//! Column dictionaries: the encode-once state cached on a [`Table`].
//!
//! A registered table is immutable while statements run over it, yet the
//! executor used to re-serialize, re-hash and re-tokenize every cell on
//! every batch of every operator. A [`ColumnDict`] does that work once per
//! distinct `(column, value)`: `codes` maps each row to a dense code
//! (distinctness by the value's `Display` text — the paper's exact-match
//! identity), and the shared [`FragmentStore`] holds, per code, the
//! `"name": "value", ` fragment's content hash and token stream. The two
//! are made at different times, because most rows a warm statement offers
//! never become a prompt:
//!
//! * the **hash** — all the answer cache needs to recognize a row — is
//!   computed for every code when the dictionary is built;
//! * the **tokens** are filled the first time an encode call *serves* a
//!   row carrying the code: a row the answer cache answers is never
//!   tokenized, and a lazy `LIMIT` that touches 100 rows of a 15 k-row
//!   table tokenizes 100 fragments, not 15 k.
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

/// Per-code fragment state of one column, shared (`Arc`) by a table and
/// every table derived from it: each code's content hash, computed when the
/// dictionary is built, and its token stream, filled the first time an
/// encode call serves a row carrying the code. 32 B per code, hash and
/// slot together.
#[derive(Debug)]
pub(crate) struct FragmentStore {
    /// The content identity of each code's fragment: a 64-bit hash of its
    /// text. Row keys of the answer cache fold these in field order (see
    /// [`RowKey`](crate::adaptive::RowKey)).
    hashes: Box<[u64]>,
    /// Token stream of each code's fragment text; empty until served.
    tokens: Box<[OnceLock<Arc<[TokenId]>>]>,
}

impl FragmentStore {
    /// Number of codes (distinct values) in the column.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Content hash of `code`'s fragment.
    #[inline]
    pub(crate) fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// Token stream of `code`'s fragment, whose column is `name` and whose
    /// value (on any row carrying the code) is `value`; `buf` is scratch
    /// space for the fragment text. Served from the code's slot, which the
    /// first call fills.
    pub(crate) fn tokens(
        &self,
        code: u32,
        tokenizer: &Tokenizer,
        name: &str,
        value: &Value,
        buf: &mut String,
    ) -> &Arc<[TokenId]> {
        self.tokens[code as usize].get_or_init(|| {
            buf.clear();
            push_fragment(buf, name, value);
            if llmqo_obs::enabled() {
                metrics().fragments_tokenized.inc();
            }
            Arc::from(tokenizer.tokenize(buf))
        })
    }

    /// Token count of `code`'s fragment if its slot is filled; never fills
    /// a slot.
    pub(crate) fn cached_len(&self, code: u32) -> Option<usize> {
        Some(self.tokens[code as usize].get()?.len())
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
    /// Builds the dictionary of `column`, named `name`: one hash-map probe
    /// per cell, keyed by the cell's `Display` text (borrowed for strings,
    /// written into one reused buffer otherwise), then one content hash per
    /// distinct value. No tokenization.
    pub(crate) fn build(name: &str, column: &[Value]) -> Self {
        let timer = llmqo_obs::WallTimer::start();
        let mut index: HashMap<Cow<'_, str>, u32> = HashMap::with_capacity(column.len());
        let mut text = String::new();
        let codes = column
            .iter()
            .map(|v| {
                let next = index.len() as u32;
                match v {
                    Value::Str(s) => *index.entry(Cow::Borrowed(s.as_str())).or_insert(next),
                    other => {
                        text.clear();
                        // Writing to a `String` cannot fail.
                        let _ = write!(text, "{other}");
                        match index.get(text.as_str()) {
                            Some(&code) => code,
                            None => *index.entry(Cow::Owned(text.clone())).or_insert(next),
                        }
                    }
                }
            })
            .collect();
        let mut hashes = vec![0; index.len()].into_boxed_slice();
        for (value, code) in index {
            text.clear();
            push_fragment(&mut text, name, value);
            hashes[code as usize] = content_hash(text.as_bytes());
        }
        let dict = ColumnDict {
            codes,
            store: Arc::new(FragmentStore {
                tokens: hashes.iter().map(|_| OnceLock::new()).collect(),
                hashes,
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
    pub(crate) fn gather(&self, rows: &[usize]) -> Self {
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
    /// Host seconds per `BatchEncoder::encode` call.
    pub wall_encode_s: &'static Histogram,
    /// Host seconds per column-dictionary build.
    pub wall_dict_build_s: &'static Histogram,
    /// Cells `BatchEncoder::encode` interned, served or not.
    pub cells: &'static Counter,
    /// Fragments serialized and tokenized (token-slot fills).
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
        let dict = ColumnDict::build("c", &column);
        // `1.0` and `1` both display as "1"; NULL and "null" collide too.
        assert_eq!(dict.codes, vec![0, 1, 0, 2, 3, 2]);
        assert_eq!(dict.store.len(), 4);
    }

    #[test]
    fn hashes_are_computed_at_build_before_any_token_slot_fills() {
        let column: Vec<Value> = ["x", "y", "x", "z"].iter().map(|&s| s.into()).collect();
        let dict = ColumnDict::build("col", &column);
        for (code, text) in ["x", "y", "z"].iter().enumerate() {
            let fragment = format!("\"col\": \"{text}\", ");
            assert_eq!(
                dict.store.hash(code as u32),
                content_hash(fragment.as_bytes())
            );
            assert_eq!(dict.store.cached_len(code as u32), None);
        }
    }

    #[test]
    fn fragments_fill_on_demand_and_gathered_dicts_share_them() {
        let column: Vec<Value> = ["x", "y", "x", "z"].iter().map(|&s| s.into()).collect();
        let dict = ColumnDict::build("col", &column);
        let derived = dict.gather(&[3, 0]);
        assert_eq!(derived.codes, vec![2, 0]);
        let tok = Tokenizer::new();
        let mut buf = String::new();
        let tokens = derived.store.tokens(2, &tok, "col", &column[3], &mut buf);
        assert_eq!(&**tokens, &tok.tokenize("\"col\": \"z\", ")[..]);
        // Only the touched slot is filled, and the parent sees it.
        let filled = |d: &ColumnDict| d.store.tokens.iter().filter(|s| s.get().is_some()).count();
        assert_eq!(filled(&dict), 1);
        assert_eq!(dict.store.cached_len(2), Some(tokens.len()));
        let again = dict.store.tokens(2, &tok, "col", &column[3], &mut buf);
        assert!(std::ptr::eq(tokens, again));
    }

    #[test]
    fn a_code_costs_32_bytes_hash_and_token_slot_together() {
        let per_code = std::mem::size_of::<u64>() + std::mem::size_of::<OnceLock<Arc<[TokenId]>>>();
        assert_eq!(per_code, 32);
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
