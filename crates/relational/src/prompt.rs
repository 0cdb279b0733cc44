//! Prompt construction and table encoding (paper §5).
//!
//! The paper's `LLM` operator builds each request as a system prompt (which
//! embeds the user's query text) followed by the row's field values encoded
//! as JSON-style `"name": "value"` pairs — the field *name* is part of the
//! fragment, so equal values in different fields never alias in the cache.
//!
//! [`encode_table`] lowers a relational [`Table`] into the optimizer's
//! [`ReorderTable`]. The content hash and tokens of each distinct
//! `(field, value)` fragment live in the table's column dictionaries
//! (`crate::dict`): the hash from the dictionary's build, the tokens from
//! the first call that serves the fragment. An encode call is an integer
//! remap from dictionary codes to call-local [`ValueId`]s, and a fragment's
//! token count becomes the cell length that the PHC objective squares. An
//! [`EncodedTable`] borrows its fragments from the dictionaries, so no
//! call copies a token stream or touches a reference count.
//!
//! One loop, `BatchEncoder::encode`, serves every caller in two phases,
//! because most rows the executor is offered never become an LLM call:
//! phase 1 interns every offered row (codes and hashes only) — so
//! `ValueId`s are numbered over the offered rows, which the solvers'
//! id-order tie-breaks depend on — and, with dedup, asks the answer cache
//! about each row from the key folded on the way and groups the rows it
//! does not answer by their id tuple; without dedup each row is its own
//! group. Phase 2 serves one row per group into the table the solver sees,
//! reading the row's ids back from the call's remaps. A row the cache
//! answers is never tokenized. [`encode_table`] is one such call over every
//! row, without dedup. An operator's stage keeps its encoder, and with it
//! every buffer of both phases and the solver's table, from one batch to
//! the next.

use crate::adaptive::RowKey;
use crate::dict;
use crate::hash::MixBuild;
use crate::query::LlmQuery;
use crate::table::{Table, TableError};
use llmqo_core::{Cell, ReorderTable, ValueId};
use llmqo_tokenizer::{TokenId, Tokenizer};
use std::hash::BuildHasher;
use std::sync::{Arc, LazyLock};

/// A table lowered to the optimizer's representation plus everything needed
/// to build engine requests from a schedule. `'t` is the source table's
/// lifetime: the fragments are borrowed from its column dictionaries.
#[derive(Debug, Clone)]
pub struct EncodedTable<'t> {
    /// The optimizer's view: interned cells with fragment token lengths.
    pub reorder: ReorderTable,
    /// Token stream of each interned fragment, indexed by `ValueId` and
    /// borrowed from the table's column dictionaries. An id that no row of
    /// `reorder` carries — a value only cache-answered rows of an executor
    /// batch hold — has an empty stream.
    pub fragments: Vec<&'t Arc<[TokenId]>>,
    /// Shared instruction prefix (system prompt + query + preamble).
    pub instruction: Arc<[TokenId]>,
    /// Indices of the used columns in the source table's schema.
    pub used_cols: Vec<usize>,
}

impl EncodedTable<'_> {
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

/// Lowers every row of `table`, restricted to `query.fields`, into an
/// [`EncodedTable`]: encoded row `i` is source row `i`.
///
/// [`ValueId`]s are local to the call: dense, in row-major first-seen
/// order. The first call naming a column builds its dictionary on `table`;
/// fragments are tokenized the first time any call serves them, and every
/// later [`EncodedTable`] borrows them from there. To encode a subset of
/// rows, encode [`Table::select_rows`] of it.
///
/// # Errors
///
/// [`TableError::UnknownColumn`] if the query references a missing field.
pub fn encode_table<'t>(
    tokenizer: &Tokenizer,
    table: &'t Table,
    query: &LlmQuery,
) -> Result<EncodedTable<'t>, TableError> {
    let mut encoder = BatchEncoder::new(tokenizer, table, query)?;
    encoder.encode(BatchRows::All(table.nrows()), false, None);
    Ok(encoder.batch.encoded)
}

/// What the executor's front half hands its back half: one batch lowered
/// to the rows the engine will actually serve. A [`BatchEncoder`] keeps one
/// and refills it on every [`encode`](BatchEncoder::encode).
#[derive(Debug)]
pub(crate) struct EncodedBatch<'t> {
    /// `reorder` row `g` is group `g`'s representative — cell for cell what
    /// encoding every offered row and selecting the representatives gives;
    /// `fragments` has an entry for every id numbered over the offered
    /// rows, and a stream for each id a representative carries.
    pub encoded: EncodedTable<'t>,
    /// Which offered rows each `reorder` row stands for.
    pub groups: DedupGroups,
    /// Answer-cache key of each group (its members' keys are all equal).
    /// Empty when no lookup was supplied.
    pub keys: Vec<RowKey>,
}

/// The rows a batch is offered, ascending original indices of its table by
/// batch-local index: every row, which needs no list, or a listed subset.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchRows<'a> {
    /// Rows `0..n`: batch-local row `i` is row `i`.
    All(usize),
    /// These rows.
    Listed(&'a [usize]),
}

impl BatchRows<'_> {
    /// Number of offered rows.
    pub(crate) fn len(self) -> usize {
        match self {
            BatchRows::All(n) => n,
            BatchRows::Listed(rows) => rows.len(),
        }
    }

    /// Original index of batch-local row `local`.
    pub(crate) fn get(self, local: usize) -> usize {
        match self {
            BatchRows::All(_) => local,
            BatchRows::Listed(rows) => rows[local],
        }
    }

    /// Batch-local index of original row `row`, if it is offered.
    pub(crate) fn local(self, row: usize) -> Option<usize> {
        match self {
            BatchRows::All(n) => (row < n).then_some(row),
            BatchRows::Listed(rows) => rows.binary_search(&row).ok(),
        }
    }
}

/// The groups over a batch's offered rows: group `g`'s members are
/// batch-local row indices in offered order, the first of them the group's
/// representative, and groups are numbered in the offered order of their
/// representatives.
#[derive(Debug)]
pub(crate) enum DedupGroups {
    /// Without dedup — and so without a lookup — each of the `n` offered
    /// rows is a group of one, group `g` row `g`: nothing to store.
    Singletons(usize),
    /// Dedup's groups over the novel rows.
    Csr(Csr),
}

/// Dedup's groups in CSR form: group `g` is
/// `members[starts[g]..starts[g + 1]]`, and `group_of[local]` is offered row
/// `local`'s group, or [`HIT`] for a row the lookup answered.
#[derive(Debug, Default)]
pub(crate) struct Csr {
    starts: Vec<u32>,
    members: Vec<u32>,
    group_of: Vec<u32>,
}

impl DedupGroups {
    /// Number of groups (engine requests).
    pub(crate) fn len(&self) -> usize {
        match self {
            DedupGroups::Singletons(n) => *n,
            DedupGroups::Csr(csr) => csr.starts.len() - 1,
        }
    }

    /// Number of rows across all groups (the batch's novel rows).
    pub(crate) fn rows(&self) -> usize {
        match self {
            DedupGroups::Singletons(n) => *n,
            DedupGroups::Csr(csr) => csr.members.len(),
        }
    }

    /// Batch-local rows served by group `g`'s request, representative first.
    pub(crate) fn members(&self, g: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let (span, members) = match self {
            DedupGroups::Singletons(_) => (g..g + 1, None),
            DedupGroups::Csr(csr) => (
                csr.starts[g] as usize..csr.starts[g + 1] as usize,
                Some(&csr.members),
            ),
        };
        span.map(move |i| members.map_or(i, |members| members[i] as usize))
    }

    /// Batch-local row whose prompt group `g` submits.
    pub(crate) fn representative(&self, g: usize) -> usize {
        match self {
            DedupGroups::Singletons(_) => g,
            DedupGroups::Csr(csr) => csr.members[csr.starts[g] as usize] as usize,
        }
    }

    /// The group of novel batch-local row `local`.
    pub(crate) fn group_of(&self, local: usize) -> usize {
        match self {
            DedupGroups::Singletons(_) => local,
            DedupGroups::Csr(csr) => {
                debug_assert_ne!(csr.group_of[local], HIT, "row {local} was answered");
                csr.group_of[local] as usize
            }
        }
    }

    /// Batch-local indices of the rows the lookup answered, ascending.
    pub(crate) fn hits(&self) -> impl Iterator<Item = usize> + '_ {
        let group_of = match self {
            DedupGroups::Singletons(_) => &[][..],
            DedupGroups::Csr(csr) => &csr.group_of[..],
        };
        let hits = group_of.iter().enumerate();
        hits.filter(|&(_, &g)| g == HIT).map(|(local, _)| local)
    }
}

impl Csr {
    /// Turns the group counts left in `starts` into CSR offsets and fills
    /// `members` with each group's rows in offered order: the counts become
    /// end offsets, and walking the offered rows backwards moves each
    /// group's end down to its start.
    fn close(&mut self) {
        let mut end = 0;
        for count in &mut self.starts {
            end += *count;
            *count = end;
        }
        self.starts.push(end);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for (local, &g) in self.group_of.iter().enumerate().rev() {
            if g != HIT {
                let slot = &mut self.starts[g as usize];
                *slot -= 1;
                self.members[*slot as usize] = local_index(local);
            }
        }
    }
}

fn local_index(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| unreachable!("fewer than 2^32 rows in a batch"))
}

/// A slot of the group table no group sits in.
const EMPTY: u32 = u32::MAX;

/// The group of an offered row the lookup answered.
const HIT: u32 = u32::MAX;

/// The `fragments` entry of an id the call has not served: an empty stream.
fn unserved() -> &'static Arc<[TokenId]> {
    static UNSERVED: LazyLock<Arc<[TokenId]>> = LazyLock::new(|| Arc::from([]));
    &UNSERVED
}

/// The encode state of one query over one table: what every call needs,
/// resolved once — the query's columns and their dictionaries, the
/// tokenized instruction — and the buffers a call fills, the solver's table
/// among them, cleared between calls but never freed. An LLM operator's
/// stage keeps one for all its batches, so a statement allocates these once
/// per operator, sized by its largest batch, not once per batch;
/// [`encode_table`] makes one for a single call. The tokenizer and query
/// are borrowed for `'e`, the table — and so every fragment the encoder
/// hands out — for `'t`.
///
/// `ValueId`s stay call-local: each call numbers them from 0 in first-seen
/// order over the rows it is offered, exactly as a fresh encoder would.
pub(crate) struct BatchEncoder<'e, 't> {
    tokenizer: &'e Tokenizer,
    table: &'t Table,
    query: &'e LlmQuery,
    fields: Vec<EncodeField<'t>>,
    /// One code → local id remap per distinct column (empty for a field
    /// listed again: it shares its column's remap, so both positions get
    /// the same ids, as equal fragment text always has). Generation-stamped:
    /// a slot holds `base + id` of the call that wrote it, and each call
    /// starts its `base` past every value the calls before it wrote, so a
    /// slot below `base` reads as unseen and starting a call touches none.
    remaps: Vec<Vec<u32>>,
    /// The current call's stamp; never 0, the value of a slot no call wrote.
    base: u32,
    /// Ids the current call has numbered.
    ids: u32,
    /// Whether the current call folds row keys.
    keyed: bool,
    text_buf: String,
    /// The dedup scratch: the id tuple of each group, `ncols` ids each (a
    /// novel row's tuple stays only when it opens a group), and the groups
    /// by tuple — an open-addressing table at most two-thirds full, probed
    /// linearly from the tuple's hash, [`EMPTY`] where no group sits.
    arena: Vec<u32>,
    slots: Vec<u32>,
    /// The cells of the row being served.
    row_buf: Vec<Cell>,
    /// What the last call produced.
    batch: EncodedBatch<'t>,
}

impl<'e, 't> BatchEncoder<'e, 't> {
    /// An encoder for rows of `table` under `query`: resolves the query's
    /// columns, sizes their remaps and tokenizes the instruction.
    ///
    /// # Errors
    ///
    /// [`TableError::UnknownColumn`] if the query references a missing
    /// field.
    pub(crate) fn new(
        tokenizer: &'e Tokenizer,
        table: &'t Table,
        query: &'e LlmQuery,
    ) -> Result<Self, TableError> {
        let used_cols = table.resolve_columns(&query.fields)?;
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
        let remaps = fields
            .iter()
            .enumerate()
            .map(|(f, field)| {
                let distinct = if field.remap == f {
                    field.store.len()
                } else {
                    0
                };
                vec![0; distinct]
            })
            .collect();
        let instruction: Arc<[TokenId]> = Arc::from(tokenizer.tokenize(&query.full_instruction()));
        let reorder = ReorderTable::new(query.fields.clone())
            .unwrap_or_else(|_| unreachable!("queries are validated to have at least one field"));
        Ok(BatchEncoder {
            tokenizer,
            table,
            query,
            fields,
            remaps,
            base: 1,
            ids: 0,
            keyed: false,
            text_buf: String::new(),
            arena: Vec::new(),
            slots: Vec::new(),
            row_buf: Vec::new(),
            batch: EncodedBatch {
                encoded: EncodedTable {
                    reorder,
                    fragments: Vec::new(),
                    instruction,
                    used_cols,
                },
                groups: DedupGroups::Singletons(0),
                keys: Vec::new(),
            },
        })
    }

    /// Source-table column of each query field.
    pub(crate) fn used_cols(&self) -> &[usize] {
        &self.batch.encoded.used_cols
    }

    /// What the last [`encode`](Self::encode) produced.
    pub(crate) fn batch(&self) -> &EncodedBatch<'t> {
        &self.batch
    }

    /// Lowers `rows` of the table — one executor batch, or every row for
    /// [`encode_table`] — in two phases, so that only what the engine will
    /// serve reaches the solver's table.
    ///
    /// *Phase 1* walks the offered rows once. Every cell is interned to a
    /// call-local [`ValueId`], numbered in first-seen order over **all**
    /// offered rows: the solvers break ties on id order, and an answered
    /// row can introduce a value before the first novel row does, so
    /// numbering only what survives would move plans. Phase 1 reads
    /// dictionary codes and content hashes only. When `cached` is supplied,
    /// each row's [`RowKey`] is folded from its fragments' content hashes
    /// on the way and offered to `cached(local, key)`; a row it answers
    /// (`true`) keeps nothing but its mark. With `dedup` a novel row joins
    /// the group of its id tuple, whose first row keeps the tuple in one
    /// flat arena; without it — and so without a lookup: the answer cache
    /// implies dedup — every row is its own group and nothing is kept.
    /// *Phase 2* clears the solver's [`ReorderTable`] and serves one row per
    /// group into it, reading the representative's ids back from the
    /// remaps, and only there are fragments tokenized, so the answered
    /// rows' values never are.
    pub(crate) fn encode(
        &mut self,
        rows: BatchRows<'_>,
        dedup: bool,
        cached: Option<&mut dyn FnMut(usize, RowKey) -> bool>,
    ) -> &EncodedBatch<'t> {
        debug_assert!(dedup || cached.is_none(), "the answer cache implies dedup");
        let timer = llmqo_obs::WallTimer::start();
        self.begin(rows.len(), cached.is_some());
        if dedup {
            self.group(rows, cached);
        } else {
            for local in 0..rows.len() {
                self.intern_row(rows.get(local), |_| {});
            }
            self.batch.groups = DedupGroups::Singletons(rows.len());
        }

        let ids = self.ids as usize;
        let batch = &mut self.batch;
        batch.encoded.fragments.reserve_exact(ids);
        batch.encoded.fragments.resize(ids, unserved());
        batch.encoded.reorder.clear();
        batch.encoded.reorder.reserve_rows(batch.groups.len());
        let mut cells = std::mem::take(&mut self.row_buf);
        for g in 0..self.batch.groups.len() {
            let r = rows.get(self.batch.groups.representative(g));
            cells.clear();
            cells.extend(self.fields.iter().map(|field| {
                let slot = self.remaps[field.remap][field.codes[r] as usize];
                Cell::new(ValueId::from_raw(slot - self.base), 0)
            }));
            self.serve_row(r, &mut cells);
        }
        self.row_buf = cells;
        if llmqo_obs::enabled() {
            let cells = rows.len() * self.fields.len();
            dict::metrics().cells.add(cells as u64);
        }
        timer.observe(dict::metrics().wall_encode_s);
        &self.batch
    }

    /// Phase 1 with dedup: interns every offered row, asks `cached` about
    /// it, and files each novel row under its id tuple's group.
    fn group(
        &mut self,
        rows: BatchRows<'_>,
        mut cached: Option<&mut dyn FnMut(usize, RowKey) -> bool>,
    ) {
        let mut csr = match std::mem::replace(&mut self.batch.groups, DedupGroups::Singletons(0)) {
            DedupGroups::Csr(csr) => csr,
            DedupGroups::Singletons(_) => Csr::default(),
        };
        csr.starts.clear();
        csr.group_of.clear();
        csr.group_of.reserve_exact(rows.len());
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        for local in 0..rows.len() {
            let start = arena.len();
            let key = self.intern_row(rows.get(local), |id| arena.push(id));
            let g = if cached.as_mut().is_some_and(|cached| cached(local, key)) {
                arena.truncate(start);
                HIT
            } else {
                // The first novel row sizes the grouping for every row
                // left, so it never grows within the call; a warm
                // statement's answered head reserves nothing for it.
                if csr.starts.is_empty() {
                    self.reserve_groups(&mut csr, &mut arena, rows.len() - local);
                }
                self.group_row(&mut csr, &mut arena, start, key)
            };
            csr.group_of.push(g);
        }
        csr.close();
        self.batch.groups = DedupGroups::Csr(csr);
        self.arena = arena;
    }

    /// Makes room for `rows` more novel rows — at most as many groups — in
    /// every buffer the grouping fills, and empties the group table.
    fn reserve_groups(&mut self, csr: &mut Csr, arena: &mut Vec<u32>, rows: usize) {
        csr.starts.reserve_exact(rows + 1);
        if self.keyed {
            self.batch.keys.reserve_exact(rows);
        }
        arena.reserve_exact(rows * self.fields.len());
        self.slots.clear();
        self.slots
            .resize((rows + rows / 2).next_power_of_two(), EMPTY);
    }

    /// Files the novel row whose id tuple is `arena[start..]` and key `key`
    /// under its dedup group and returns the group — identical tuples are
    /// identical projected field values, which the per-column interning
    /// guarantees: an earlier group with the same tuple, or a new one,
    /// which keeps the tuple as the group's and, keyed, `key` as its
    /// answer-cache key.
    fn group_row(&mut self, csr: &mut Csr, arena: &mut Vec<u32>, start: usize, key: RowKey) -> u32 {
        let ncols = self.fields.len();
        let tuple = &arena[start..];
        let mask = self.slots.len() - 1;
        let mut slot = MixBuild::default().hash_one(tuple) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => {
                    // A new group, one row so far: counts go in
                    // `starts[g]`, for `Csr::close`.
                    csr.starts.push(1);
                    let g = local_index(csr.starts.len() - 1);
                    if self.keyed {
                        self.batch.keys.push(key);
                    }
                    self.slots[slot] = g;
                    return g;
                }
                g if arena[g as usize * ncols..][..ncols] == *tuple => {
                    arena.truncate(start);
                    csr.starts[g as usize] += 1;
                    return g;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Starts a call over `nrows` rows: a new stamp, so every remap slot
    /// reads as unseen, and no ids, fragments or keys yet.
    fn begin(&mut self, nrows: usize, keyed: bool) {
        // Past the last call's values, with room for one per cell of this
        // call's; when the stamps run out, every slot is unseen by hand.
        let room = u32::try_from(nrows * self.fields.len()).ok();
        let base = self.base.checked_add(self.ids);
        match base.filter(|&b| room.and_then(|n| b.checked_add(n)).is_some()) {
            Some(base) => self.base = base,
            None => {
                for remap in &mut self.remaps {
                    remap.fill(0);
                }
                self.base = 1;
            }
        }
        self.ids = 0;
        self.keyed = keyed;
        self.batch.encoded.fragments.clear();
        self.batch.keys.clear();
    }

    /// Phase 1 for one row: interns source row `r`'s cells, handing `cell`
    /// each field's local id in query-field order, and returns the row's
    /// answer-cache key (the default key unless `keyed`). Reads dictionary
    /// codes and content hashes, never a token.
    #[inline]
    fn intern_row(&mut self, r: usize, mut cell: impl FnMut(u32)) -> RowKey {
        let mut key = RowKey::default();
        for field in &self.fields {
            let code = field.codes[r];
            let slot = &mut self.remaps[field.remap][code as usize];
            if *slot < self.base {
                // `begin` left room for every cell of the call.
                *slot = self.base + self.ids;
                self.ids += 1;
            }
            if self.keyed {
                key.push(field.store.hash(code));
            }
            cell(*slot - self.base);
        }
        key
    }

    /// Phase 2 for one row the engine will serve: gives `cells` — source
    /// row `r`'s ids as phase 1 interned them, in query-field order — their
    /// fragments' token counts and pushes them into the solver's table,
    /// taking the token stream of each id the call has not served yet from
    /// its dictionary slot, which fills it if no call served it before.
    #[inline]
    fn serve_row(&mut self, r: usize, cells: &mut [Cell]) {
        let unserved = unserved();
        let fragments = &mut self.batch.encoded.fragments;
        for (f, (field, cell)) in self.fields.iter().zip(cells.iter_mut()).enumerate() {
            let fragment = &mut fragments[cell.value.as_u32() as usize];
            if std::ptr::eq(*fragment, unserved) {
                let tokens = field.store.tokens(
                    field.codes[r],
                    self.tokenizer,
                    &self.query.fields[f],
                    self.table.value(r, field.col),
                    &mut self.text_buf,
                );
                // One plain read of the stream, in encode order: the prefix
                // hasher reads the served streams again in plan order, and
                // a whole-table scan measured ≈5% more rows per second when
                // encode had touched each one first (ROADMAP kill (xxi)).
                std::hint::black_box(tokens.first());
                *fragment = tokens;
            }
            cell.len = fragment.len() as u32;
        }
        self.batch
            .encoded
            .reorder
            .push_row_slice(cells)
            .unwrap_or_else(|_| unreachable!("row arity fixed by used_cols"));
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
        let t = table();
        let e = encode_table(&tok, &t, &query(&["review", "title"])).unwrap();
        assert_eq!(e.reorder.ncols(), 2);
        assert_eq!(e.reorder.nrows(), 2);
        assert_eq!(e.used_cols, vec![0, 1]);
    }

    #[test]
    fn shared_values_share_ids_and_fragments() {
        let tok = Tokenizer::new();
        let t = table();
        let e = encode_table(&tok, &t, &query(&["review", "title"])).unwrap();
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
        let t = table();
        let e = encode_table(&tok, &t, &query(&["review"])).unwrap();
        let cell = e.reorder.cell(0, 0);
        let expected = tok.count(&field_fragment("review", "good"));
        assert_eq!(cell.len as usize, expected);
        assert_eq!(e.fragments[cell.value.as_u32() as usize].len(), expected);
    }

    #[test]
    fn instruction_is_shared_and_nonempty() {
        let tok = Tokenizer::new();
        let t = table();
        let e = encode_table(&tok, &t, &query(&["review"])).unwrap();
        assert!(e.instruction.len() > 4);
        assert!(e.total_prompt_tokens() > e.reorder.total_tokens());
    }

    #[test]
    fn encoding_selected_rows_takes_a_subset_in_order() {
        let tok = Tokenizer::new();
        let q = query(&["review", "title"]);
        let t = table();
        let full = encode_table(&tok, &t, &q).unwrap();
        let selected = t.select_rows(&[1]);
        let sub = encode_table(&tok, &selected, &q).unwrap();
        assert_eq!(sub.reorder.nrows(), 1);
        // Subset row 0 is source row 1: fragments carry the same content.
        let f = |e: &EncodedTable<'_>, r: usize, c: usize| {
            e.fragments[e.reorder.cell(r, c).value.as_u32() as usize].to_vec()
        };
        assert_eq!(f(&sub, 0, 0), f(&full, 1, 0));
        assert_eq!(f(&sub, 0, 1), f(&full, 1, 1));
        assert_eq!(sub.instruction, full.instruction);
    }

    #[test]
    fn unknown_field_is_an_error() {
        let tok = Tokenizer::new();
        let t = table();
        let err = encode_table(&tok, &t, &query(&["nope"])).unwrap_err();
        assert!(matches!(err, TableError::UnknownColumn { .. }));
    }

    #[test]
    fn fragment_format_is_json_style() {
        assert_eq!(field_fragment("title", "Anvil"), "\"title\": \"Anvil\", ");
    }

    #[test]
    fn encode_table_fragments_are_the_tokenized_cells() {
        let tok = Tokenizer::new();
        let t = pooled_table(&[vec![0, 1, 2], vec![3, 1, 0], vec![0, 2, 2]]);
        let q = query(&["a", "n", "b", "a"]);
        let e = encode_table(&tok, &t, &q).unwrap();
        for r in 0..t.nrows() {
            for (f, &col) in e.used_cols.iter().enumerate() {
                let cell = e.reorder.cell(r, f);
                let text = field_fragment(&q.fields[f], &t.value(r, col).to_string());
                let want = tok.tokenize(&text);
                assert_eq!(&e.fragments[cell.value.as_u32() as usize][..], &want[..]);
                assert_eq!(cell.len as usize, want.len());
            }
        }
    }

    /// Per used column of `t`, the codes whose token slot is filled.
    fn filled_codes(t: &Table, cols: &[usize]) -> Vec<Vec<u32>> {
        cols.iter()
            .map(|&col| {
                let store = &t.dict(col).store;
                (0..store.len() as u32)
                    .filter(|&code| store.cached_len(code).is_some())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn an_all_hit_encode_tokenizes_nothing() {
        let tok = Tokenizer::new();
        let t = pooled_table(&[vec![0, 1, 2], vec![3, 1, 0], vec![0, 2, 2], vec![0, 1, 2]]);
        let q = query(&["a", "b", "n"]);
        let mut encoder = BatchEncoder::new(&tok, &t, &q).unwrap();
        let mut answer_all = |_: usize, _: RowKey| true;
        let batch = encoder.encode(
            BatchRows::Listed(&[0, 1, 2, 3]),
            true,
            Some(&mut answer_all),
        );
        assert_eq!(batch.groups.len(), 0);
        assert_eq!(batch.groups.hits().count(), 4);
        assert!(batch.encoded.fragments.iter().all(|f| f.is_empty()));
        let cols = encoder.used_cols().to_vec();
        assert!(filled_codes(&t, &cols).iter().all(Vec::is_empty));
    }

    #[test]
    fn a_mixed_batch_tokenizes_exactly_its_novel_rows_codes() {
        let tok = Tokenizer::new();
        let cells = [
            vec![0, 0, 0],
            vec![1, 1, 1],
            vec![2, 2, 2],
            vec![3, 3, 3],
            vec![1, 1, 1],
            vec![0, 3, 1],
        ];
        let t = pooled_table(&cells);
        let q = query(&["a", "b", "n"]);
        let mut encoder = BatchEncoder::new(&tok, &t, &q).unwrap();
        // Rows 1 and 4 are one dedup group; rows 0, 2 and 3 are answered.
        let novel = [1, 4, 5];
        let mut answer = |local: usize, _: RowKey| !novel.contains(&local);
        let batch = encoder.encode(
            BatchRows::Listed(&[0, 1, 2, 3, 4, 5]),
            true,
            Some(&mut answer),
        );
        assert_eq!(batch.groups.len(), 2);
        let cols = encoder.used_cols().to_vec();
        let want: Vec<Vec<u32>> = cols
            .iter()
            .map(|&col| {
                let codes = &t.dict(col).codes;
                let used: std::collections::BTreeSet<u32> =
                    novel.iter().map(|&r| codes[r]).collect();
                used.into_iter().collect()
            })
            .collect();
        assert_eq!(filled_codes(&t, &cols), want);
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
            key.push(dict::content_hash(text.as_bytes()));
        }
        key
    }

    mod two_phase {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// For any table, field list (repeats allowed), offered rows
            /// (unsorted, repeated), dedup setting and — with dedup — hit
            /// mask, the batch encoder's table is the full encode's
            /// representatives cell for cell, over the same fragments, with
            /// the groups, hits and
            /// row keys the one-phase front half derived from the full
            /// encode — on a cold table and on a warm one; and on an encoder
            /// fresh from `new` as on one that already encoded another
            /// batch (`prior`, empty for a fresh one).
            #[test]
            fn batch_encode_is_full_encode_then_select(
                cells in prop::collection::vec(prop::collection::vec(0u8..4, 3), 1..=20),
                fields in prop::collection::vec(0usize..3, 1..=4),
                picks in prop::collection::vec((0usize..1000, prop::bool::ANY), 0..=40),
                switches in (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
                prior in prop::collection::vec(0usize..1000, 0..=20),
            ) {
                let (dedup, with_lookup, warm) = switches;
                // The answer cache implies dedup.
                let with_lookup = with_lookup && dedup;
                let table = pooled_table(&cells);
                let names = ["a", "b", "n"];
                let q = query(&fields.iter().map(|&f| names[f]).collect::<Vec<_>>());
                let rows: Vec<usize> = picks.iter().map(|&(r, _)| r % table.nrows()).collect();
                if warm {
                    encode_table(&Tokenizer::new(), &table, &q).unwrap();
                }
                let tok = Tokenizer::new();

                let selected = table.select_rows(&rows);
                let full = encode_table(&tok, &selected, &q).unwrap();
                let mut offered: Vec<(usize, RowKey)> = Vec::new();
                let mut lookup = |local: usize, key: RowKey| {
                    offered.push((local, key));
                    picks[local].1
                };
                let mut encoder = BatchEncoder::new(&tok, &table, &q).unwrap();
                if !prior.is_empty() {
                    let prior: Vec<usize> = prior.iter().map(|&r| r % table.nrows()).collect();
                    encoder.encode(BatchRows::Listed(&prior), dedup, None);
                }
                let batch = encoder.encode(
                    BatchRows::Listed(&rows),
                    dedup,
                    with_lookup.then_some(&mut lookup as &mut dyn FnMut(usize, RowKey) -> bool),
                );

                // The one-phase derivation: hits out, then first-seen groups
                // of identical cell tuples.
                let is_hit = |local: usize| with_lookup && picks[local].1;
                let mut want_groups: Vec<Vec<usize>> = Vec::new();
                for local in (0..rows.len()).filter(|&l| !is_hit(l)) {
                    let same = want_groups.iter_mut().find(|g| {
                        dedup && full.reorder.row(g[0]).eq(full.reorder.row(local))
                    });
                    match same {
                        Some(group) => group.push(local),
                        None => want_groups.push(vec![local]),
                    }
                }
                let reps: Vec<usize> = want_groups.iter().map(|g| g[0]).collect();

                prop_assert_eq!(&batch.encoded.reorder, &full.reorder.select_rows(&reps));
                // An entry per id; the full encode's stream for every id a
                // representative carries, an empty one for the rest.
                let served: BTreeSet<u32> =
                    reps.iter().flat_map(|&l| full.reorder.row(l)).map(|c| c.value.as_u32()).collect();
                prop_assert_eq!(batch.encoded.fragments.len(), full.fragments.len());
                for (id, (got, want)) in batch.encoded.fragments.iter().zip(&full.fragments).enumerate() {
                    if served.contains(&(id as u32)) {
                        prop_assert_eq!(got, want);
                    } else {
                        prop_assert!(got.is_empty(), "id {} served no row", id);
                    }
                }
                prop_assert_eq!(&batch.encoded.instruction, &full.instruction);
                prop_assert_eq!(&batch.encoded.used_cols, &full.used_cols);
                prop_assert_eq!(batch.groups.len(), want_groups.len());
                prop_assert_eq!(batch.groups.rows(), want_groups.iter().map(Vec::len).sum::<usize>());
                for (g, want) in want_groups.iter().enumerate() {
                    prop_assert_eq!(&batch.groups.members(g).collect::<Vec<_>>(), want);
                    prop_assert_eq!(batch.groups.representative(g), reps[g]);
                }
                let want_hits: Vec<usize> = (0..rows.len()).filter(|&l| is_hit(l)).collect();
                prop_assert_eq!(batch.groups.hits().collect::<Vec<_>>(), want_hits);

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
