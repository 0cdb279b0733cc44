//! Column dictionaries: the encode-once state cached on a [`Table`].
//!
//! A registered table is immutable while statements run over it, yet the
//! executor used to re-serialize, re-hash and re-tokenize every cell on
//! every batch of every operator. A [`ColumnDict`] does that work once per
//! distinct `(column, value)`: `codes` maps each row to a dense code
//! (distinctness by the value's `Display` text — the paper's exact-match
//! identity), and the shared [`FragmentStore`] holds, per code, the
//! `"name": "value", ` fragment's token stream and content hash — filled
//! **on first use**, so a lazy `LIMIT` that touches 100 rows of a 15 k-row
//! table tokenizes 100 fragments, not 15 k.
//!
//! Dictionaries are built lazily per column (first query naming it),
//! dropped by [`Table::push_row`], and inherited by
//! [`Table::select_rows`]/[`Table::head`]: a derived table gathers its
//! parent's codes and shares the parent's store.
//!
//! [`Table`]: crate::Table
//! [`Table::push_row`]: crate::Table::push_row
//! [`Table::select_rows`]: crate::Table::select_rows
//! [`Table::head`]: crate::Table::head

use crate::value::Value;
use llmqo_obs::{Counter, Histogram};
use llmqo_tokenizer::{TokenId, Tokenizer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{Display, Write};
use std::sync::{Arc, OnceLock};

/// Appends the paper's JSON-style `"name": "value", ` fragment to `buf`.
pub(crate) fn push_fragment(buf: &mut String, name: &str, value: impl Display) {
    buf.push('"');
    buf.push_str(name);
    buf.push_str("\": \"");
    // Writing to a `String` cannot fail.
    let _ = write!(buf, "{value}");
    buf.push_str("\", ");
}

/// Everything the executor needs from one distinct `(column, value)`
/// fragment, materialized at most once per table family.
#[derive(Debug, Clone)]
pub(crate) struct Fragment {
    /// Token stream of the fragment text.
    pub tokens: Arc<[TokenId]>,
    /// The content identity of the fragment: a 64-bit hash of its text.
    /// Row keys of the answer cache fold these in field order (see
    /// [`RowKey`](crate::adaptive::RowKey)).
    pub hash: u64,
}

/// Per-code fragment slots of one column, shared (`Arc`) by a table and
/// every table derived from it.
#[derive(Debug)]
pub(crate) struct FragmentStore {
    slots: Vec<OnceLock<Fragment>>,
}

impl FragmentStore {
    /// Number of codes (distinct values) in the column.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The fragment of `code`, whose column is `name` and whose value (on
    /// any row carrying the code) is `value`; `buf` is scratch space for
    /// the fragment text. Served from the code's slot, which the first
    /// call fills.
    pub fn fragment(
        &self,
        code: u32,
        tokenizer: &Tokenizer,
        name: &str,
        value: &Value,
        buf: &mut String,
    ) -> Fragment {
        self.slots[code as usize]
            .get_or_init(|| {
                buf.clear();
                push_fragment(buf, name, value);
                if llmqo_obs::enabled() {
                    metrics().fragments_tokenized.inc();
                }
                Fragment {
                    tokens: Arc::from(tokenizer.tokenize(buf)),
                    hash: content_hash(buf.as_bytes()),
                }
            })
            .clone()
    }

    /// Token count of `code`'s fragment if its slot is filled; never fills
    /// a slot.
    pub fn cached_len(&self, code: u32) -> Option<usize> {
        Some(self.slots[code as usize].get()?.tokens.len())
    }
}

/// One column's dictionary.
#[derive(Debug, Clone)]
pub(crate) struct ColumnDict {
    /// Row → code. Dense and first-seen-ordered on the table the
    /// dictionary was built on; a gathered subset on derived tables.
    pub codes: Vec<u32>,
    /// Per-code fragments, shared with parent/derived tables.
    pub store: Arc<FragmentStore>,
}

impl ColumnDict {
    /// Builds the dictionary of `column`: one hash-map probe per cell, keyed
    /// by the cell's `Display` text (borrowed for strings), no tokenization.
    pub fn build(column: &[Value]) -> Self {
        let timer = llmqo_obs::WallTimer::start();
        let mut index: HashMap<Cow<'_, str>, u32> = HashMap::with_capacity(column.len());
        let codes = column
            .iter()
            .map(|v| {
                let text = match v {
                    Value::Str(s) => Cow::Borrowed(s.as_str()),
                    other => Cow::Owned(other.to_string()),
                };
                let next = index.len() as u32;
                *index.entry(text).or_insert(next)
            })
            .collect();
        let dict = ColumnDict {
            codes,
            store: Arc::new(FragmentStore {
                slots: (0..index.len()).map(|_| OnceLock::new()).collect(),
            }),
        };
        let m = metrics();
        if llmqo_obs::enabled() {
            m.dict_builds.inc();
        }
        timer.observe(m.wall_dict_build_s);
        dict
    }

    /// The dictionary of the table made of `rows` of this one's table.
    pub fn gather(&self, rows: &[usize]) -> Self {
        ColumnDict {
            codes: rows.iter().map(|&r| self.codes[r]).collect(),
            store: Arc::clone(&self.store),
        }
    }
}

/// 64-bit content hash of a fragment's text: eight bytes per step through a
/// folded 128-bit multiply, length-seeded so zero padding of the tail cannot
/// alias. Stable across runs and processes (checkpoints carry it).
pub(crate) fn content_hash(bytes: &[u8]) -> u64 {
    const K0: u64 = 0x9e37_79b9_7f4a_7c15;
    const K1: u64 = 0xbf58_476d_1ce4_e5b9;
    fn fold(a: u64, b: u64) -> u64 {
        let m = u128::from(a) * u128::from(b);
        (m as u64) ^ ((m >> 64) as u64)
    }
    let mut h = K0 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    let mut word = [0u8; 8];
    for chunk in &mut chunks {
        word.copy_from_slice(chunk);
        h = fold(h ^ u64::from_le_bytes(word), K1);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fold(h ^ u64::from_le_bytes(word), K1);
    }
    fold(h ^ K1, K0)
}

/// Handles of the encode layer's metrics (behind the single `llmqo_obs`
/// gate like every other site).
pub(crate) struct EncodeMetrics {
    /// Host seconds per `encode_table_rows` call.
    pub wall_encode_s: &'static Histogram,
    /// Host seconds per column-dictionary build.
    pub wall_dict_build_s: &'static Histogram,
    /// Cells lowered by `encode_table_rows`.
    pub cells: &'static Counter,
    /// Fragments serialized, hashed and tokenized (slot fills).
    pub fragments_tokenized: &'static Counter,
    /// Column dictionaries built.
    pub dict_builds: &'static Counter,
}

/// The process-wide encode metric handles.
pub(crate) fn metrics() -> &'static EncodeMetrics {
    static METRICS: OnceLock<EncodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = llmqo_obs::registry();
        EncodeMetrics {
            wall_encode_s: r.histogram("wall.encode_s"),
            wall_dict_build_s: r.histogram("wall.dict_build_s"),
            cells: r.counter("sql.encode.cells"),
            fragments_tokenized: r.counter("sql.encode.fragments_tokenized"),
            dict_builds: r.counter("sql.encode.dict_builds"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_first_seen_and_keyed_by_display_text() {
        let column = vec![
            Value::Float(1.0),
            Value::Int(2),
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::Str("null".into()),
        ];
        let dict = ColumnDict::build(&column);
        // `1.0` and `1` both display as "1"; NULL and "null" collide too.
        assert_eq!(dict.codes, vec![0, 1, 0, 2, 3, 2]);
        assert_eq!(dict.store.len(), 4);
    }

    #[test]
    fn fragments_fill_on_demand_and_gathered_dicts_share_them() {
        let column: Vec<Value> = ["x", "y", "x", "z"].iter().map(|&s| s.into()).collect();
        let dict = ColumnDict::build(&column);
        let derived = dict.gather(&[3, 0]);
        assert_eq!(derived.codes, vec![2, 0]);
        let tok = Tokenizer::new();
        let mut buf = String::new();
        let f = derived.store.fragment(2, &tok, "col", &column[3], &mut buf);
        assert_eq!(&*f.tokens, &tok.tokenize("\"col\": \"z\", ")[..]);
        assert_eq!(f.hash, content_hash(b"\"col\": \"z\", "));
        // Only the touched slot is filled, and the parent sees it.
        let filled = |d: &ColumnDict| d.store.slots.iter().filter(|s| s.get().is_some()).count();
        assert_eq!(filled(&dict), 1);
        let again = dict.store.fragment(2, &tok, "col", &column[3], &mut buf);
        assert!(Arc::ptr_eq(&f.tokens, &again.tokens));
    }

    #[test]
    fn content_hash_separates_lengths_padding_and_order() {
        let texts: [&[u8]; 8] = [
            b"",
            b"\0",
            b"\0\0",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefgi",
            b"hgfedcba",
            b"abcdefghabcdefgh",
        ];
        for (i, a) in texts.iter().enumerate() {
            for b in &texts[i + 1..] {
                assert_ne!(content_hash(a), content_hash(b), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(content_hash(b"stable"), content_hash(b"stable"));
    }
}
