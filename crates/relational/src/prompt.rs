//! Prompt construction and table encoding (paper §5).
//!
//! The paper's `LLM` operator builds each request as a system prompt (which
//! embeds the user's query text) followed by the row's field values encoded
//! as JSON-style `"name": "value"` pairs — the field *name* is part of the
//! fragment, so equal values in different fields never alias in the cache.
//!
//! [`encode_table`] lowers a relational [`Table`] into the optimizer's
//! [`ReorderTable`]. The text, tokens and content hash of each distinct
//! `(field, value)` fragment live in the table's column dictionaries
//! (`crate::dict`), produced once per table; an encode call is an integer
//! remap from dictionary codes to call-local [`ValueId`]s, and a fragment's
//! token count becomes the cell length that the PHC objective squares.

use crate::dict::{self, FragmentKey};
use crate::query::LlmQuery;
use crate::table::{Table, TableError};
use llmqo_core::{Cell, ReorderTable, ValueId};
use llmqo_tokenizer::{TokenId, Tokenizer};
use std::sync::Arc;

/// A table lowered to the optimizer's representation plus everything needed
/// to build engine requests from a schedule.
#[derive(Debug, Clone)]
pub struct EncodedTable {
    /// The optimizer's view: interned cells with fragment token lengths.
    pub reorder: ReorderTable,
    /// Token stream of each interned fragment, indexed by `ValueId`.
    pub fragments: Vec<Arc<[TokenId]>>,
    /// Shared instruction prefix (system prompt + query + preamble).
    pub instruction: Arc<[TokenId]>,
    /// Indices of the used columns in the source table's schema.
    pub used_cols: Vec<usize>,
    /// Content key of each interned fragment, indexed by `ValueId` — what
    /// answer-cache row keys are folded from. Empty unless the encode was
    /// asked for keys ([`encode_rows`]).
    pub(crate) keys: Vec<FragmentKey>,
}

impl EncodedTable {
    /// Token length of the shared instruction prefix.
    pub fn instruction_len(&self) -> usize {
        self.instruction.len()
    }

    /// Total prompt tokens if every row were sent (instruction + fields).
    pub fn total_prompt_tokens(&self) -> u64 {
        self.reorder.total_tokens() + (self.instruction.len() * self.reorder.nrows()) as u64
    }
}

/// Serializes one field cell as the paper's JSON-style fragment.
pub fn field_fragment(name: &str, value: &str) -> String {
    let mut fragment = String::with_capacity(name.len() + value.len() + 8);
    dict::push_fragment(&mut fragment, name, value);
    fragment
}

/// Lowers `table` restricted to `query.fields` into an [`EncodedTable`].
///
/// # Errors
///
/// [`TableError::UnknownColumn`] if the query references a missing field.
pub fn encode_table(
    tokenizer: &Tokenizer,
    table: &Table,
    query: &LlmQuery,
) -> Result<EncodedTable, TableError> {
    encode_table_rows(tokenizer, table, query, None)
}

/// [`encode_table`] restricted to a row subset: encoded row `i` is source
/// row `rows[i]`. `None` encodes every row. This is what the batched
/// physical executor uses — a lazy-`LIMIT` batch or a post-filter survivor
/// set is encoded directly, without materializing a sub-[`Table`].
///
/// [`ValueId`]s are local to the call: dense, in row-major first-seen
/// order over the encoded rows. The first call naming a column builds its
/// dictionary on `table`; fragments are tokenized the first time any call
/// touches them and shared (`Arc`) with every later [`EncodedTable`].
///
/// # Errors
///
/// [`TableError::UnknownColumn`] if the query references a missing field.
///
/// # Panics
///
/// Panics if an index in `rows` is out of bounds.
pub fn encode_table_rows(
    tokenizer: &Tokenizer,
    table: &Table,
    query: &LlmQuery,
    rows: Option<&[usize]>,
) -> Result<EncodedTable, TableError> {
    encode_rows(tokenizer, table, query, rows, false)
}

/// [`encode_table_rows`], optionally also collecting each fragment's
/// content key (the executor asks for them when the answer cache is on).
pub(crate) fn encode_rows(
    tokenizer: &Tokenizer,
    table: &Table,
    query: &LlmQuery,
    rows: Option<&[usize]>,
    with_keys: bool,
) -> Result<EncodedTable, TableError> {
    let used_cols = table.resolve_columns(&query.fields)?;
    let timer = llmqo_obs::WallTimer::start();
    let nrows = rows.map_or(table.nrows(), <[usize]>::len);
    let mut reorder = ReorderTable::new(query.fields.clone())
        .unwrap_or_else(|_| unreachable!("queries are validated to have at least one field"));
    // One up-front reservation sizes both the row-major store and the
    // column-major mirror the solvers scan.
    reorder.reserve_rows(nrows);

    // One code → local id remap per distinct column (0 = unseen, else
    // id + 1): a field listed twice shares its column's remap, so both
    // positions get the same ids, as equal fragment text always has.
    let fields: Vec<EncodeField<'_>> = used_cols
        .iter()
        .enumerate()
        .map(|(f, &col)| {
            let dict = table.dict(col);
            EncodeField {
                col,
                codes: &dict.codes,
                store: &dict.store,
                remap: used_cols[..f]
                    .iter()
                    .position(|&earlier| earlier == col)
                    .unwrap_or(f),
            }
        })
        .collect();
    let mut remaps: Vec<Vec<u32>> = fields
        .iter()
        .enumerate()
        .map(|(f, field)| {
            vec![
                0u32;
                if field.remap == f {
                    field.store.len()
                } else {
                    0
                }
            ]
        })
        .collect();

    // At most one fragment per distinct value of each distinct column, and
    // at most one per encoded cell.
    let distinct: usize = remaps.iter().map(Vec::len).sum();
    let max_fragments = distinct.min(nrows * fields.len());
    let mut fragments: Vec<Arc<[TokenId]>> = Vec::with_capacity(max_fragments);
    let mut keys: Vec<FragmentKey> = Vec::with_capacity(if with_keys { max_fragments } else { 0 });
    let mut row_buf: Vec<Cell> = Vec::with_capacity(fields.len());
    let mut text_buf = String::new();
    for i in 0..nrows {
        let r = rows.map_or(i, |rs| rs[i]);
        row_buf.clear();
        for (f, field) in fields.iter().enumerate() {
            let code = field.codes[r];
            let slot = &mut remaps[field.remap][code as usize];
            if *slot == 0 {
                let fragment = field.store.fragment(
                    code,
                    tokenizer,
                    &query.fields[f],
                    table.value(r, field.col),
                    &mut text_buf,
                );
                fragments.push(fragment.tokens);
                if with_keys {
                    keys.push(fragment.key);
                }
                *slot = u32::try_from(fragments.len())
                    .unwrap_or_else(|_| unreachable!("fewer than 2^32 distinct fragments"));
            }
            let id = *slot - 1;
            row_buf.push(Cell::new(
                ValueId::from_raw(id),
                fragments[id as usize].len() as u32,
            ));
        }
        reorder
            .push_row_slice(&row_buf)
            .unwrap_or_else(|_| unreachable!("row arity fixed by used_cols"));
    }

    let instruction_text = query.full_instruction();
    let instruction: Arc<[TokenId]> = Arc::from(tokenizer.tokenize(&instruction_text));

    if llmqo_obs::enabled() {
        dict::metrics().cells.add((nrows * fields.len()) as u64);
    }
    timer.observe(dict::metrics().wall_encode_s);
    Ok(EncodedTable {
        reorder,
        fragments,
        instruction,
        used_cols,
        keys,
    })
}

/// One query field's view of its column dictionary during an encode call.
struct EncodeField<'t> {
    /// Column index in the source table.
    col: usize,
    codes: &'t [u32],
    store: &'t dict::FragmentStore,
    /// Index (≤ this field's) of the field whose remap this one uses.
    remap: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{LlmQuery, QueryKind};
    use crate::schema::Schema;

    fn query(fields: &[&str]) -> LlmQuery {
        LlmQuery {
            name: "t".into(),
            kind: QueryKind::Filter,
            user_prompt: "Answer Yes or No.".into(),
            fields: fields.iter().map(|s| s.to_string()).collect(),
            label_space: vec!["Yes".into(), "No".into()],
            predicate_label: Some("Yes".into()),
            key_field: None,
            output_tokens_mean: 2.0,
        }
    }

    fn table() -> Table {
        let mut t = Table::new(Schema::of_strings(&["review", "title", "unused"]));
        t.push_row(vec!["good".into(), "Anvil".into(), "x".into()])
            .unwrap();
        t.push_row(vec!["bad".into(), "Anvil".into(), "y".into()])
            .unwrap();
        t
    }

    #[test]
    fn encodes_only_used_fields() {
        let tok = Tokenizer::new();
        let e = encode_table(&tok, &table(), &query(&["review", "title"])).unwrap();
        assert_eq!(e.reorder.ncols(), 2);
        assert_eq!(e.reorder.nrows(), 2);
        assert_eq!(e.used_cols, vec![0, 1]);
    }

    #[test]
    fn shared_values_share_ids_and_fragments() {
        let tok = Tokenizer::new();
        let e = encode_table(&tok, &table(), &query(&["review", "title"])).unwrap();
        let a = e.reorder.cell(0, 1);
        let b = e.reorder.cell(1, 1);
        assert_eq!(a.value, b.value);
        // Three distinct fragments: good, bad, Anvil.
        assert_eq!(e.fragments.len(), 3);
    }

    #[test]
    fn same_value_different_field_gets_different_id() {
        let tok = Tokenizer::new();
        let mut t = Table::new(Schema::of_strings(&["a", "b"]));
        t.push_row(vec!["same".into(), "same".into()]).unwrap();
        let e = encode_table(&tok, &t, &query(&["a", "b"])).unwrap();
        assert_ne!(e.reorder.cell(0, 0).value, e.reorder.cell(0, 1).value);
    }

    #[test]
    fn cell_len_is_fragment_token_count() {
        let tok = Tokenizer::new();
        let e = encode_table(&tok, &table(), &query(&["review"])).unwrap();
        let cell = e.reorder.cell(0, 0);
        let expected = tok.count(&field_fragment("review", "good"));
        assert_eq!(cell.len as usize, expected);
        assert_eq!(e.fragments[cell.value.as_u32() as usize].len(), expected);
    }

    #[test]
    fn instruction_is_shared_and_nonempty() {
        let tok = Tokenizer::new();
        let e = encode_table(&tok, &table(), &query(&["review"])).unwrap();
        assert!(e.instruction_len() > 4);
        assert!(e.total_prompt_tokens() > e.reorder.total_tokens());
    }

    #[test]
    fn encode_table_rows_takes_a_subset_in_order() {
        let tok = Tokenizer::new();
        let q = query(&["review", "title"]);
        let full = encode_table(&tok, &table(), &q).unwrap();
        let sub = encode_table_rows(&tok, &table(), &q, Some(&[1])).unwrap();
        assert_eq!(sub.reorder.nrows(), 1);
        // Subset row 0 is source row 1: fragments carry the same content.
        let f = |e: &EncodedTable, r: usize, c: usize| {
            e.fragments[e.reorder.cell(r, c).value.as_u32() as usize].clone()
        };
        assert_eq!(f(&sub, 0, 0), f(&full, 1, 0));
        assert_eq!(f(&sub, 0, 1), f(&full, 1, 1));
        assert_eq!(sub.instruction, full.instruction);
    }

    #[test]
    fn unknown_field_is_an_error() {
        let tok = Tokenizer::new();
        let err = encode_table(&tok, &table(), &query(&["nope"])).unwrap_err();
        assert!(matches!(err, TableError::UnknownColumn { .. }));
    }

    #[test]
    fn fragment_format_is_json_style() {
        assert_eq!(field_fragment("title", "Anvil"), "\"title\": \"Anvil\", ");
    }
}
