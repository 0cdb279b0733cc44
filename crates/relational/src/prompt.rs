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
//!
//! One per-row implementation (`BatchEncoder::intern_row`) serves every
//! caller. [`encode_table`] / [`encode_table_rows`] intern each row straight
//! into the solver's table. The executor's `encode_batch` splits the work in
//! two phases, because most rows it is offered never become an LLM call:
//! phase 1 interns every offered row — so `ValueId`s are numbered over the
//! offered rows, which the solvers' id-order tie-breaks depend on — and asks
//! the answer cache about each row from the key folded on the way; only the
//! rows the cache does not answer keep their id tuple, are grouped by it
//! (dedup), and phase 2 pushes one row per group into the table the solver
//! sees.

use crate::adaptive::RowKey;
use crate::dict::{self, FragmentKey};
use crate::hash::MixBuild;
use crate::query::LlmQuery;
use crate::table::{Table, TableError};
use llmqo_core::{Cell, ReorderTable, ValueId};
use llmqo_tokenizer::{TokenId, Tokenizer};
use std::collections::HashMap;
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
/// row `rows[i]`. `None` encodes every row.
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
    let nrows = rows.map_or(table.nrows(), <[usize]>::len);
    let mut encoder = BatchEncoder::new(tokenizer, table, query, nrows, false)?;
    let reorder = encoder.encode_all(|i| rows.map_or(i, |rs| rs[i]));
    Ok(encoder.finish(reorder))
}

/// What the executor's front half hands its back half: one batch lowered
/// to the rows the engine will actually serve.
#[derive(Debug)]
pub(crate) struct EncodedBatch {
    /// `reorder` row `g` is dedup group `g`'s representative — cell for
    /// cell what encoding every offered row and selecting the
    /// representatives gives; `fragments` covers every id numbered over
    /// the offered rows.
    pub encoded: EncodedTable,
    /// Which offered rows each `reorder` row stands for.
    pub groups: DedupGroups,
    /// Answer-cache key of each group (its members' keys are all equal).
    /// Empty when no lookup was supplied.
    pub keys: Vec<RowKey>,
    /// Batch-local indices of the rows the lookup answered, ascending.
    pub hits: Vec<u32>,
}

/// Dedup groups over a batch's novel rows in CSR form: group `g` is
/// `members[starts[g]..starts[g + 1]]` — batch-local row indices in offered
/// order, the first of them the group's representative. Groups are numbered
/// in the offered order of their representatives.
#[derive(Debug)]
pub(crate) struct DedupGroups {
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl DedupGroups {
    /// One group per entry of `members`, in order.
    fn singletons(members: Vec<u32>) -> Self {
        DedupGroups {
            starts: (0..=local_index(members.len())).collect(),
            members,
        }
    }

    /// Number of groups (engine requests).
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of rows across all groups (the batch's novel rows).
    pub fn rows(&self) -> usize {
        self.members.len()
    }

    /// Batch-local rows served by group `g`'s request, representative first.
    pub fn members(&self, g: usize) -> &[u32] {
        &self.members[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Batch-local row whose prompt group `g` submits.
    pub fn representative(&self, g: usize) -> usize {
        self.members[self.starts[g] as usize] as usize
    }
}

/// Lowers one executor batch — the `rows` of `table` offered to `query` —
/// in two phases, so that only what the engine will serve reaches the
/// solver's table.
///
/// *Phase 1* walks the offered rows once. Every cell is interned to a
/// call-local [`ValueId`], numbered in first-seen order over **all** offered
/// rows exactly as [`encode_table_rows`] numbers them: the solvers break
/// ties on id order, and an answered row can introduce a value before the
/// first novel row does, so numbering only what survives would move plans.
/// When `cached` is supplied, each row's [`RowKey`] is folded from its
/// fragments' content keys on the way and offered to `cached(local, key)`;
/// a row it answers (`true`) keeps nothing, a novel row keeps its id tuple
/// in one flat arena. Novel rows are then grouped by identical tuple when
/// `dedup` is on (one singleton group each otherwise). *Phase 2* pushes one
/// row per group into the [`ReorderTable`]. The arena does not outlive the
/// call.
///
/// With neither a lookup nor dedup every row is its own group and the two
/// phases fuse into [`encode_table_rows`]'s loop.
///
/// # Errors
///
/// [`TableError::UnknownColumn`] if the query references a missing field.
pub(crate) fn encode_batch(
    tokenizer: &Tokenizer,
    table: &Table,
    query: &LlmQuery,
    rows: &[usize],
    dedup: bool,
    mut cached: Option<&mut dyn FnMut(usize, RowKey) -> bool>,
) -> Result<EncodedBatch, TableError> {
    let mut encoder = BatchEncoder::new(tokenizer, table, query, rows.len(), cached.is_some())?;
    if cached.is_none() && !dedup {
        let reorder = encoder.encode_all(|i| rows[i]);
        return Ok(EncodedBatch {
            encoded: encoder.finish(reorder),
            groups: DedupGroups::singletons((0..local_index(rows.len())).collect()),
            keys: Vec::new(),
            hits: Vec::new(),
        });
    }

    let ncols = encoder.fields.len();
    let mut arena: Vec<u32> = Vec::new();
    let mut novel: Vec<u32> = Vec::new();
    let mut keys: Vec<RowKey> = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    if cached.is_none() {
        arena.reserve_exact(rows.len() * ncols);
        novel.reserve_exact(rows.len());
    }
    for (local, &r) in rows.iter().enumerate() {
        let start = arena.len();
        let key = encoder.intern_row(r, |id, _| arena.push(id));
        match cached.as_mut().map(|cached| cached(local, key)) {
            Some(true) => {
                arena.truncate(start);
                hits.push(local_index(local));
            }
            Some(false) => {
                novel.push(local_index(local));
                keys.push(key);
            }
            None => novel.push(local_index(local)),
        }
    }

    let grouped = dedup.then(|| group_by_tuple(&arena, ncols, &novel));
    let mut reorder = encoder.new_table();
    reorder.reserve_rows(
        grouped
            .as_ref()
            .map_or(novel.len(), |(groups, _)| groups.len()),
    );
    let mut row_buf: Vec<Cell> = Vec::with_capacity(ncols);
    let mut push = |tuple: &[u32]| {
        row_buf.clear();
        row_buf.extend(tuple.iter().map(|&id| encoder.cell(id)));
        reorder
            .push_row_slice(&row_buf)
            .unwrap_or_else(|_| unreachable!("row arity fixed by used_cols"));
    };
    let groups = match grouped {
        Some((groups, representatives)) => {
            for &i in &representatives {
                push(&arena[i as usize * ncols..][..ncols]);
            }
            if !keys.is_empty() {
                keys = representatives.iter().map(|&i| keys[i as usize]).collect();
            }
            groups
        }
        None => {
            arena.chunks_exact(ncols).for_each(&mut push);
            DedupGroups::singletons(novel)
        }
    };
    Ok(EncodedBatch {
        encoded: encoder.finish(reorder),
        groups,
        keys,
        hits,
    })
}

/// Groups a batch's novel rows — row `i`'s id tuple is
/// `arena[i * ncols..][..ncols]`, its batch-local index `novel[i]` — by
/// identical tuple, which the per-column interning makes identical
/// projected field values. Also returns each group's first row `i`.
fn group_by_tuple(arena: &[u32], ncols: usize, novel: &[u32]) -> (DedupGroups, Vec<u32>) {
    let mut index: HashMap<&[u32], u32, MixBuild> =
        HashMap::with_capacity_and_hasher(novel.len(), MixBuild::default());
    let mut representatives: Vec<u32> = Vec::new();
    let mut group_of: Vec<u32> = Vec::with_capacity(novel.len());
    // `starts[g + 1]` counts group `g`'s rows, then becomes its end offset.
    let mut starts: Vec<u32> = vec![0];
    for (i, tuple) in arena.chunks_exact(ncols).enumerate() {
        let g = *index.entry(tuple).or_insert_with(|| {
            representatives.push(local_index(i));
            starts.push(0);
            local_index(representatives.len() - 1)
        });
        starts[g as usize + 1] += 1;
        group_of.push(g);
    }
    for g in 1..starts.len() {
        starts[g] += starts[g - 1];
    }
    let mut next = starts.clone();
    let mut members = vec![0u32; novel.len()];
    for (&local, &g) in novel.iter().zip(&group_of) {
        members[next[g as usize] as usize] = local;
        next[g as usize] += 1;
    }
    (DedupGroups { starts, members }, representatives)
}

fn local_index(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| unreachable!("fewer than 2^32 rows in a batch"))
}

/// The per-call interning state under [`encode_table_rows`] and
/// [`encode_batch`]: the `code → local id` remaps of the query's columns
/// and the fragments numbered so far.
struct BatchEncoder<'t> {
    tokenizer: &'t Tokenizer,
    table: &'t Table,
    query: &'t LlmQuery,
    used_cols: Vec<usize>,
    fields: Vec<EncodeField<'t>>,
    /// One code → local id remap per distinct column (0 = unseen, else
    /// id + 1): a field listed twice shares its column's remap, so both
    /// positions get the same ids, as equal fragment text always has.
    remaps: Vec<Vec<u32>>,
    /// Token stream of each interned fragment, indexed by local id.
    fragments: Vec<Arc<[TokenId]>>,
    /// Content key of each interned fragment; collected only when `keyed`.
    keys: Vec<FragmentKey>,
    keyed: bool,
    text_buf: String,
    /// Rows the caller will intern.
    nrows: usize,
    timer: llmqo_obs::WallTimer,
}

impl<'t> BatchEncoder<'t> {
    /// An encoder for `nrows` rows of `table` under `query`; `keyed` makes
    /// [`intern_row`](BatchEncoder::intern_row) fold answer-cache keys.
    fn new(
        tokenizer: &'t Tokenizer,
        table: &'t Table,
        query: &'t LlmQuery,
        nrows: usize,
        keyed: bool,
    ) -> Result<Self, TableError> {
        let used_cols = table.resolve_columns(&query.fields)?;
        let timer = llmqo_obs::WallTimer::start();
        let fields: Vec<EncodeField<'t>> = used_cols
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
        let remaps: Vec<Vec<u32>> = fields
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
        // At most one fragment per distinct value of each distinct column,
        // and at most one per interned cell.
        let distinct: usize = remaps.iter().map(Vec::len).sum();
        let max_fragments = distinct.min(nrows * fields.len());
        Ok(BatchEncoder {
            tokenizer,
            table,
            query,
            used_cols,
            fields,
            remaps,
            fragments: Vec::with_capacity(max_fragments),
            keys: Vec::with_capacity(if keyed { max_fragments } else { 0 }),
            keyed,
            text_buf: String::new(),
            nrows,
            timer,
        })
    }

    /// Phase 1 for one row — the single per-row encode implementation:
    /// interns source row `r`'s cells, handing `cell` each field's
    /// `(local id, fragment token count)` in query-field order. Returns the
    /// row's answer-cache key (the default key unless `keyed`).
    #[inline]
    fn intern_row(&mut self, r: usize, mut cell: impl FnMut(u32, u32)) -> RowKey {
        let mut key = RowKey::default();
        for (f, field) in self.fields.iter().enumerate() {
            let code = field.codes[r];
            let slot = &mut self.remaps[field.remap][code as usize];
            if *slot == 0 {
                let fragment = field.store.fragment(
                    code,
                    self.tokenizer,
                    &self.query.fields[f],
                    self.table.value(r, field.col),
                    &mut self.text_buf,
                );
                self.fragments.push(fragment.tokens);
                if self.keyed {
                    self.keys.push(fragment.key);
                }
                *slot = u32::try_from(self.fragments.len())
                    .unwrap_or_else(|_| unreachable!("fewer than 2^32 distinct fragments"));
            }
            let id = *slot - 1;
            if self.keyed {
                let fragment = self.keys[id as usize];
                key.push(fragment.hash, fragment.bytes as usize);
            }
            cell(id, self.fragments[id as usize].len() as u32);
        }
        key
    }

    /// Phase 2 for one cell: the solver's view of interned fragment `id`.
    #[inline]
    fn cell(&self, id: u32) -> Cell {
        Cell::new(
            ValueId::from_raw(id),
            self.fragments[id as usize].len() as u32,
        )
    }

    /// An empty solver table over the query's fields.
    fn new_table(&self) -> ReorderTable {
        ReorderTable::new(self.query.fields.clone())
            .unwrap_or_else(|_| unreachable!("queries are validated to have at least one field"))
    }

    /// Both phases for every one of the `nrows` rows `row_at` yields, fused:
    /// each row is interned straight into the solver's table.
    fn encode_all(&mut self, row_at: impl Fn(usize) -> usize) -> ReorderTable {
        let mut reorder = self.new_table();
        // One up-front reservation sizes both the row-major store and the
        // column-major mirror the solvers scan.
        reorder.reserve_rows(self.nrows);
        let mut row_buf: Vec<Cell> = Vec::with_capacity(self.fields.len());
        for i in 0..self.nrows {
            row_buf.clear();
            self.intern_row(row_at(i), |id, len| {
                row_buf.push(Cell::new(ValueId::from_raw(id), len));
            });
            reorder
                .push_row_slice(&row_buf)
                .unwrap_or_else(|_| unreachable!("row arity fixed by used_cols"));
        }
        reorder
    }

    /// Closes the call: tokenizes the instruction and records the encode
    /// metrics (cells count what phase 1 interned, served or not).
    fn finish(self, reorder: ReorderTable) -> EncodedTable {
        let instruction_text = self.query.full_instruction();
        let instruction: Arc<[TokenId]> = Arc::from(self.tokenizer.tokenize(&instruction_text));
        if llmqo_obs::enabled() {
            dict::metrics()
                .cells
                .add((self.nrows * self.fields.len()) as u64);
        }
        self.timer.observe(dict::metrics().wall_encode_s);
        EncodedTable {
            reorder,
            fragments: self.fragments,
            instruction,
            used_cols: self.used_cols,
        }
    }
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

    /// A table of three columns with four-value pools (so duplicate rows
    /// and shared values are common), the third one typed.
    fn pooled_table(cells: &[Vec<u8>]) -> Table {
        use crate::schema::{DataType, Field};
        let mut t = Table::new(Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
            Field::new("n", DataType::Int),
        ]));
        for row in cells {
            t.push_row(vec![
                format!("value {} of a", "x".repeat(row[0] as usize)).into(),
                format!("b{}", row[1]).into(),
                crate::value::Value::Int(i64::from(row[2]) - 1),
            ])
            .unwrap();
        }
        t
    }

    /// The row key as the answer cache defines it, from the row's text.
    fn text_row_key(table: &Table, r: usize, query: &LlmQuery, used_cols: &[usize]) -> RowKey {
        let mut key = RowKey::default();
        for (name, &col) in query.fields.iter().zip(used_cols) {
            let text = field_fragment(name, &table.value(r, col).to_string());
            key.push(dict::content_hash(text.as_bytes()), text.len());
        }
        key
    }

    mod two_phase {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// For any table, field list (repeats allowed), offered rows
            /// (unsorted, repeated), hit mask and dedup setting, the batch
            /// encoder's table is the full encode's representatives cell
            /// for cell, over the same fragments, with the groups, hits and
            /// row keys the one-phase front half derived from the full
            /// encode — on a cold table, a warm one, and under a tokenizer
            /// the table's dictionaries do not belong to.
            #[test]
            fn batch_encode_is_full_encode_then_select(
                cells in prop::collection::vec(prop::collection::vec(0u8..4, 3), 1..=20),
                fields in prop::collection::vec(0usize..3, 1..=4),
                picks in prop::collection::vec((0usize..1000, prop::bool::ANY), 0..=40),
                switches in (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
            ) {
                let (dedup, with_lookup, warm, foreign) = switches;
                let table = pooled_table(&cells);
                let names = ["a", "b", "n"];
                let q = query(&fields.iter().map(|&f| names[f]).collect::<Vec<_>>());
                let rows: Vec<usize> = picks.iter().map(|&(r, _)| r % table.nrows()).collect();
                if warm {
                    encode_table(&Tokenizer::new(), &table, &q).unwrap();
                }
                let tok = if foreign { Tokenizer::with_piece_bytes(3) } else { Tokenizer::new() };

                let full = encode_table_rows(&tok, &table, &q, Some(&rows)).unwrap();
                let mut offered: Vec<(usize, RowKey)> = Vec::new();
                let mut lookup = |local: usize, key: RowKey| {
                    offered.push((local, key));
                    picks[local].1
                };
                let batch = encode_batch(
                    &tok,
                    &table,
                    &q,
                    &rows,
                    dedup,
                    with_lookup.then_some(&mut lookup as &mut dyn FnMut(usize, RowKey) -> bool),
                )
                .unwrap();

                // The one-phase derivation: hits out, then first-seen groups
                // of identical cell tuples.
                let is_hit = |local: usize| with_lookup && picks[local].1;
                let mut want_groups: Vec<Vec<u32>> = Vec::new();
                for local in (0..rows.len()).filter(|&l| !is_hit(l)) {
                    let same = want_groups.iter_mut().find(|g| {
                        dedup && full.reorder.row(g[0] as usize) == full.reorder.row(local)
                    });
                    match same {
                        Some(group) => group.push(local as u32),
                        None => want_groups.push(vec![local as u32]),
                    }
                }
                let reps: Vec<usize> = want_groups.iter().map(|g| g[0] as usize).collect();

                prop_assert_eq!(&batch.encoded.reorder, &full.reorder.select_rows(&reps));
                prop_assert_eq!(&batch.encoded.fragments, &full.fragments);
                prop_assert_eq!(&batch.encoded.instruction, &full.instruction);
                prop_assert_eq!(&batch.encoded.used_cols, &full.used_cols);
                prop_assert_eq!(batch.groups.len(), want_groups.len());
                prop_assert_eq!(batch.groups.rows(), want_groups.iter().map(Vec::len).sum::<usize>());
                for (g, want) in want_groups.iter().enumerate() {
                    prop_assert_eq!(batch.groups.members(g), &want[..]);
                    prop_assert_eq!(batch.groups.representative(g), reps[g]);
                }
                let want_hits: Vec<u32> =
                    (0..rows.len()).filter(|&l| is_hit(l)).map(|l| l as u32).collect();
                prop_assert_eq!(&batch.hits, &want_hits);

                // Every offered row was looked up once, in order, under the
                // key of its text; each group keeps its representative's.
                let text_key = |local: usize| text_row_key(&table, rows[local], &q, &full.used_cols);
                if with_lookup {
                    prop_assert_eq!(offered.len(), rows.len());
                    for (i, &(local, key)) in offered.iter().enumerate() {
                        prop_assert_eq!(local, i);
                        prop_assert_eq!(key, text_key(local));
                    }
                    let want_keys: Vec<RowKey> = reps.iter().map(|&l| text_key(l)).collect();
                    prop_assert_eq!(&batch.keys, &want_keys);
                } else {
                    prop_assert!(offered.is_empty() && batch.keys.is_empty());
                }
            }
        }
    }
}
