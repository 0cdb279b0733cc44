//! Reusable solver scratch: slot maps, buffer pools, and interned set keys.
//!
//! The solvers recurse over (row-set × column-set) views and, at every level,
//! need to group rows by a column's value, count distinct values, filter row
//! sets, and (for OPHR) key a memo table by the view. A naive transcription
//! pays for a fresh `HashMap` — SipHash, rehashing, and per-group `Vec`
//! allocations — at every recursion level. This module provides the
//! allocation-free alternatives the optimized solvers thread through their
//! recursion:
//!
//! * [`SlotMap`] — an open-addressing map from `u64` keys (value ids) to
//!   dense *slots* assigned in first-seen order. Clearing is an epoch bump,
//!   not a memset, so a 10-row view pays for 10 probes even when the backing
//!   table was sized for 10 000 rows.
//! * [`Scratch`] — per-solve state: one `SlotMap`, per-slot accumulators, a
//!   [`BufPool`] of `Vec<u32>` row/column buffers and the plan's prefix
//!   stack, so the steady state of a recursion allocates nothing.
//! * [`SetInterner`] — canonical ids for row/column subsets (OPHR memo keys):
//!   each distinct bitset is boxed once and every later occurrence resolves
//!   to a `u32`, replacing the reference implementation's per-call
//!   `Box<[u64]>` construction.
//! * [`FxBuild`] — a multiply-xor hasher for the remaining `HashMap`s (memo,
//!   interner); solver keys are small and attacker-free, so SipHash's
//!   flooding resistance buys nothing here.

use crate::plan::ReorderPlan;
use crate::table::{sq, ReorderTable};
use crate::ValueId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Retired [`Scratch`] arenas kept per thread for reuse. An executor
/// issuing one solve per query batch pays the index-arena allocations once
/// instead of per solve; rebuilding re-initializes every value, so reuse is
/// invisible in solver output.
const SCRATCH_POOL_CAP: usize = 4;

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Multiply-xor hasher (fxhash-style) for small trusted keys.
///
/// Solver hash keys are dense integers or short bitsets produced by the
/// solver itself — no untrusted input — so a two-instruction mix per word
/// beats SipHash by a wide margin without a flooding risk.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// One open-addressing table entry; `epoch` marks which generation wrote it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    slot: u32,
    epoch: u32,
}

/// Open-addressing map from `u64` keys to dense slots in first-seen order.
///
/// Capacity is kept at ≥ 2× the expected distinct-key count declared via
/// [`SlotMap::begin`], so linear probing stays short. Resetting bumps an
/// epoch instead of clearing, making `begin` O(1) once the table is warm.
#[derive(Debug, Default)]
pub(crate) struct SlotMap {
    entries: Vec<Entry>,
    mask: usize,
    epoch: u32,
    len: u32,
}

impl SlotMap {
    /// Starts a fresh grouping expecting at most `expect` insertions.
    pub(crate) fn begin(&mut self, expect: usize) {
        let want = (expect.max(4) * 2).next_power_of_two();
        if self.entries.len() < want {
            self.entries = vec![
                Entry {
                    key: 0,
                    slot: 0,
                    epoch: 0,
                };
                want
            ];
            self.mask = want - 1;
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            for e in &mut self.entries {
                e.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.len = 0;
    }

    /// Inserts `key` (or finds it), returning `(slot, inserted)`. Slots are
    /// dense and assigned in first-seen order.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> (u32, bool) {
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask;
        loop {
            let e = &mut self.entries[i];
            if e.epoch != self.epoch {
                *e = Entry {
                    key,
                    slot: self.len,
                    epoch: self.epoch,
                };
                self.len += 1;
                return (e.slot, true);
            }
            if e.key == key {
                return (e.slot, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Number of distinct keys inserted since the last [`SlotMap::begin`].
    pub(crate) fn len(&self) -> u32 {
        self.len
    }
}

/// Pool of reusable `Vec<u32>` buffers (row lists, column lists).
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    bufs: Vec<Vec<u32>>,
}

impl BufPool {
    /// Takes a cleared buffer from the pool (or allocates one).
    pub(crate) fn take(&mut self) -> Vec<u32> {
        let mut b = self.bufs.pop().unwrap_or_default();
        b.clear();
        b
    }

    /// Returns a buffer to the pool.
    pub(crate) fn put(&mut self, b: Vec<u32>) {
        self.bufs.push(b);
    }
}

/// Per-solve scratch threaded through solver recursion.
///
/// [`Scratch::for_table`] builds the *per-column value→group index* once:
/// every column's values are remapped to dense per-column ids, with a
/// per-id value lookup table. After that one O(n·m) pass, grouping any view
/// by any column is pure array indexing — an epoch-stamped counting pass
/// with no hashing — and stays O(view) via the `touched` list of ids
/// actually present in the view.
///
/// After [`Scratch::group_dense`], the grouping state reads as: `touched`
/// holds the distinct dense ids in first-seen order, `counts[d]` the member
/// count of id `d`, `row_dense[i]` the id of the view's `i`-th row, and
/// `acc`/`tot` are caller-managed per-id accumulators.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `dense[c][r]`: dense per-column id of the value of cell `(r, c)`.
    dense: Vec<Vec<u32>>,
    /// `dense_values[c][d]`: the [`ValueId`] behind dense id `d` of column `c`.
    dense_values: Vec<Vec<ValueId>>,
    /// Epoch stamps over dense ids (sized to the largest column cardinality).
    stamp: Vec<u32>,
    epoch: u32,
    /// Per-dense-id member count of the current grouping (stamp-guarded).
    pub counts: Vec<u32>,
    /// Per-dense-id squared length of the group's **view-first** member —
    /// the same representative the frozen references read, so equivalence
    /// holds even on tables where one [`ValueId`] recurs with different
    /// lengths (well-formed encodings never do, but the public API allows
    /// it and the differential contract must not depend on it).
    pub first_sq: Vec<u64>,
    /// Distinct dense ids of the current grouping, in first-seen order.
    pub touched: Vec<u32>,
    /// Dense id of each view row, in view order.
    pub row_dense: Vec<u32>,
    /// Per-dense-id floating-point accumulator (FD squared-length sums).
    pub acc: Vec<f64>,
    /// Per-dense-id running `HITCOUNT` total.
    pub tot: Vec<f64>,
    /// Column membership mask, `ncols` long; all `false` between uses (the
    /// adaptive fall-back marks the columns it has put on the prefix stack).
    pub col_mask: Vec<bool>,
    /// Per column: the largest squared length in an adaptive fall-back's view
    pub col_max: Vec<u64>,
    /// … and in the whole table (the bounds of GGR's group scan) …
    pub col_top: Vec<f64>,
    /// … and a sort key: a fall-back leaf's squared-length sum, the gain
    /// (`f64` bits) of a column walked in place, or a group-scan bound.
    pub col_key: Vec<u64>,
    /// The fields leading every row of the subtree being written (a stack).
    pub prefix: Vec<u32>,
    /// Slot map for the group-index remap of values whose raw ids are not
    /// dense ([`Scratch::for_view`]).
    pub map: SlotMap,
    /// Reusable row/column index buffers.
    pub pool: BufPool,
    /// Raw value → `(column + 1) << 32 | dense slot`, the direct remap path.
    vslot: Vec<u64>,
}

impl Drop for Scratch {
    /// Returns the arena's allocations to the thread-local pool so the next
    /// solve on this thread starts warm. No-op for never-built scratches,
    /// when the pool is full, or during thread teardown.
    fn drop(&mut self) {
        if self.dense.capacity() == 0 && self.stamp.capacity() == 0 {
            return;
        }
        let _ = SCRATCH_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            // When full, nothing is moved out: the allocations are simply
            // freed, and no recycled scratch is dropped under the borrow.
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(std::mem::take(self));
            }
        });
    }
}

impl Scratch {
    /// Builds the per-column group indexes for all of `table` — the one
    /// value-remap pass of a solve; everything after is array indexing.
    pub(crate) fn for_table(table: &ReorderTable) -> Self {
        let rows: Vec<u32> = (0..table.nrows() as u32).collect();
        let cols: Vec<u32> = (0..table.ncols() as u32).collect();
        Self::for_view(table, &rows, &cols)
    }

    /// Builds the group indexes for one (rows × cols) view of `table`:
    /// O(|rows|·|cols|) remap work plus an `nrows`-long id array per view
    /// column. Dense ids are numbered first-seen in view order, through a
    /// table indexed by raw [`ValueId`] while ids are dense (the encode path
    /// interns them densely), else through the slot map: the same ids.
    pub(crate) fn for_view(table: &ReorderTable, rows: &[u32], cols: &[u32]) -> Self {
        let mut s = SCRATCH_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        s.rebuild(table, rows, cols);
        s
    }

    /// Re-initializes this arena for a new (rows × cols) view, reusing the
    /// backing allocations. Every value a solver can observe is reset to
    /// exactly the fresh-construction state, so a recycled scratch is
    /// indistinguishable from a new one.
    fn rebuild(&mut self, table: &ReorderTable, rows: &[u32], cols: &[u32]) {
        let n = table.nrows();
        let m = table.ncols();
        self.col_mask.clear();
        self.col_mask.resize(m, false);
        self.col_max.resize(m, 0); // written before read: no reset needed
        self.col_key.resize(m, 0);
        self.col_top.clear();
        self.prefix.clear();
        // Largest on top, where `take` pops: a solve's first (largest) takes
        // find the buffers earlier solves grew.
        self.pool.bufs.sort_unstable_by_key(Vec::capacity);
        self.dense.truncate(m);
        self.dense.resize_with(m, Vec::new);
        self.dense_values.truncate(m);
        self.dense_values.resize_with(m, Vec::new);
        // Columns outside `cols` must look freshly built (empty), not carry
        // a previous solve's data — a stale full-length array would turn a
        // would-be out-of-bounds panic into silently wrong group ids.
        for ids in &mut self.dense {
            ids.clear();
        }
        for vals in &mut self.dense_values {
            vals.clear();
        }
        self.epoch = 0;
        self.touched.clear();
        self.row_dense.clear();
        // Entries are stamped by column id, which recurs across solves, so
        // the table starts empty and every entry it grows into reads 0.
        self.vslot.clear();
        let limit = 4 * n * m + 65_536;
        let mut max_card = 0usize;
        for &c in cols {
            let values = table.col_values(c as usize);
            let mut ids = std::mem::take(&mut self.dense[c as usize]);
            ids.clear();
            ids.resize(n, 0);
            let mut vals = std::mem::take(&mut self.dense_values[c as usize]);
            vals.clear();
            let tag = u64::from(c) + 1;
            let direct = rows.iter().all(|&r| {
                let raw = values[r as usize].as_u32() as usize;
                if raw >= self.vslot.len() {
                    if raw >= limit {
                        return false;
                    }
                    self.vslot
                        .resize((raw + 1).max(2 * self.vslot.len()).min(limit), 0);
                }
                if self.vslot[raw] >> 32 != tag {
                    self.vslot[raw] = tag << 32 | vals.len() as u64;
                    vals.push(values[r as usize]);
                }
                ids[r as usize] = self.vslot[raw] as u32;
                true
            });
            if !direct {
                vals.clear();
                self.map.begin(rows.len());
                for &r in rows {
                    let (slot, new) = self.map.insert(u64::from(values[r as usize].as_u32()));
                    if new {
                        vals.push(values[r as usize]);
                    }
                    ids[r as usize] = slot;
                }
            }
            max_card = max_card.max(vals.len());
            self.dense[c as usize] = ids;
            self.dense_values[c as usize] = vals;
        }
        self.stamp.clear();
        self.stamp.resize(max_card, 0);
        self.counts.clear();
        self.counts.resize(max_card, 0);
        self.first_sq.clear();
        self.first_sq.resize(max_card, 0);
        self.acc.clear();
        self.acc.resize(max_card, 0.0);
        self.tot.clear();
        self.tot.resize(max_card, 0.0);
    }

    /// Writes `rows`, each led by the prefix stack and then `fields`; pools `rows`.
    pub(crate) fn emit(&mut self, out: &mut ReorderPlan, rows: Vec<u32>, fields: &[u32]) {
        for &r in &rows {
            out.push(r, &self.prefix, fields);
        }
        self.pool.put(rows);
    }

    /// The [`ValueId`] behind dense id `d` of column `c`.
    #[inline]
    pub(crate) fn value_of(&self, c: usize, d: u32) -> ValueId {
        self.dense_values[c][d as usize]
    }

    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Groups the view rows by their value in column `c`, filling `touched`,
    /// `counts`, `first_sq` (squared from `lens`, that column's per-row
    /// token lengths), and `row_dense`. Returns the number of distinct
    /// values.
    ///
    /// Members of a group are the view rows holding its value, in view
    /// order, and `first_sq` carries the squared length of each group's
    /// first view member — exactly the representative a
    /// `HashMap<ValueId, Vec<u32>>` transcription reads via `members[0]`.
    pub(crate) fn group_dense(&mut self, c: usize, lens: &[u32], rows: &[u32]) -> usize {
        let epoch = self.bump_epoch();
        self.touched.clear();
        self.row_dense.clear();
        let dense = &self.dense[c];
        for &r in rows {
            let d = dense[r as usize];
            if self.stamp[d as usize] != epoch {
                self.stamp[d as usize] = epoch;
                self.counts[d as usize] = 0;
                self.first_sq[d as usize] = sq(lens[r as usize]);
                self.touched.push(d);
            }
            self.counts[d as usize] += 1;
            self.row_dense.push(d);
        }
        self.touched.len()
    }

    /// One fused view pass: distinct count of column `c` of `t` plus the
    /// view's squared-length sum. The sum accumulates per **row** in view
    /// order — the exact additions the reference implementations perform —
    /// so gains stay bit-identical even on tables where a value recurs with
    /// different lengths. A handful of rows skips the dense index: each
    /// value is compared with those before it.
    pub(crate) fn distinct_sum_sq(
        &mut self,
        t: &ReorderTable,
        c: usize,
        rows: &[u32],
    ) -> (usize, f64) {
        let (values, lens) = (t.col_values(c), t.col_lens(c));
        let (mut distinct, mut sum_sq) = (0, 0f64);
        if rows.len() <= 8 {
            let mut seen = [ValueId::from_raw(0); 8];
            for (k, &r) in rows.iter().enumerate() {
                let value = values[r as usize];
                distinct += usize::from(!seen[..k].contains(&value));
                (seen[k], sum_sq) = (value, sum_sq + sq(lens[r as usize]) as f64);
            }
            return (distinct, sum_sq);
        }
        let epoch = self.bump_epoch();
        let dense = &self.dense[c];
        let stamp = &mut self.stamp;
        for &r in rows {
            let d = dense[r as usize] as usize;
            if stamp[d] != epoch {
                stamp[d] = epoch;
                distinct += 1;
            }
            sum_sq += sq(lens[r as usize]) as f64;
        }
        (distinct, sum_sq)
    }
}

/// Splits view `rows` into those holding `value` in a column (`group`) and
/// the rest, preserving view order. This is the shared O(n) replacement for
/// the `group.rows.contains(r)` rest-filters both GGR and OPHR used to run.
pub(crate) fn partition_rows_by_value(
    values: &[ValueId],
    rows: &[u32],
    value: ValueId,
    group: &mut Vec<u32>,
    rest: &mut Vec<u32>,
) {
    for &r in rows {
        if values[r as usize] == value {
            group.push(r);
        } else {
            rest.push(r);
        }
    }
}

/// Canonical `u32` ids for index subsets, keyed by their bitset.
///
/// OPHR memoizes on (row-set, column-set); interning each distinct set once
/// turns the memo key into a `(u32, u32)` pair and eliminates the per-call
/// boxed-bitset construction of the reference implementation.
#[derive(Debug)]
pub(crate) struct SetInterner {
    map: HashMap<Box<[u64]>, u32, FxBuild>,
    scratch: Vec<u64>,
    words: usize,
}

impl SetInterner {
    /// An interner for subsets of `0..domain`.
    pub(crate) fn new(domain: usize) -> Self {
        SetInterner {
            map: HashMap::default(),
            scratch: Vec::new(),
            words: domain.div_ceil(64).max(1),
        }
    }

    /// Returns the canonical id of the set holding exactly `indices`.
    pub(crate) fn intern(&mut self, indices: &[u32]) -> u32 {
        self.scratch.clear();
        self.scratch.resize(self.words, 0);
        for &i in indices {
            self.scratch[(i / 64) as usize] |= 1 << (i % 64);
        }
        if let Some(&id) = self.map.get(self.scratch.as_slice()) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("fewer than 2^32 interned sets");
        self.map.insert(self.scratch.clone().into_boxed_slice(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_map_assigns_first_seen_slots() {
        let mut m = SlotMap::default();
        m.begin(8);
        assert_eq!(m.insert(42), (0, true));
        assert_eq!(m.insert(7), (1, true));
        assert_eq!(m.insert(42), (0, false));
        assert_eq!(m.len(), 2);
        m.begin(8);
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert(7), (0, true));
    }

    #[test]
    fn slot_map_survives_growth() {
        let mut m = SlotMap::default();
        m.begin(4);
        for k in 0..4u64 {
            m.insert(k * 1000);
        }
        m.begin(4096);
        for k in 0..4096u64 {
            let (slot, new) = m.insert(k.wrapping_mul(0x5851_f42d_4c95_7f2d));
            assert_eq!(slot as u64, k);
            assert!(new);
        }
        assert_eq!(m.len(), 4096);
    }

    #[test]
    fn group_dense_matches_hashmap_grouping() {
        use crate::table::{Cell, ReorderTable};
        let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
        for (v, len) in [(5u32, 5u32), (9, 9), (5, 5), (5, 5), (2, 2), (9, 9)] {
            t.push_row(vec![Cell::new(ValueId::from_raw(v), len)])
                .unwrap();
        }
        let mut s = Scratch::for_table(&t);
        let lens = t.col_lens(0);
        let rows: Vec<u32> = (0..6).collect();
        let n = s.group_dense(0, lens, &rows);
        assert_eq!(n, 3);
        // Dense ids are first-seen: 5 → 0, 9 → 1, 2 → 2.
        assert_eq!(s.touched, vec![0, 1, 2]);
        assert_eq!(&s.counts[..3], &[3, 2, 1]);
        assert_eq!(s.row_dense, vec![0, 1, 0, 0, 2, 1]);
        assert_eq!(s.value_of(0, 2), ValueId::from_raw(2));
        assert_eq!(&s.first_sq[..3], &[25, 81, 4]);
        // A subset view regroups correctly after the epoch bump.
        let n = s.group_dense(0, lens, &[1, 4]);
        assert_eq!(n, 2);
        assert_eq!(s.touched, vec![1, 2]);
        assert_eq!(&s.counts[1..3], &[1, 1]);
        let (distinct, sum_sq) = s.distinct_sum_sq(&t, 0, &rows);
        assert_eq!(distinct, 3);
        // 3×25 + 2×81 + 4, accumulated in view order.
        assert_eq!(sum_sq, (3 * 25 + 2 * 81 + 4) as f64);
        assert_eq!(s.distinct_sum_sq(&t, 0, &[0, 2, 3]).0, 1);
    }

    #[test]
    fn sparse_value_ids_get_the_same_dense_ids() {
        // Column 1's second id is past the direct table's reach: the column
        // starts over on the slot map, which numbers values first-seen too.
        use crate::table::{Cell, ReorderTable};
        let mut t = ReorderTable::new(vec!["a".into(), "b".into()]).unwrap();
        for (a, b) in [(5u32, 7u32), (9, 1_000_000), (5, 7)] {
            let cell = |v| Cell::new(ValueId::from_raw(v), 1);
            t.push_row(vec![cell(a), cell(b)]).unwrap();
        }
        let mut s = Scratch::for_table(&t);
        for c in 0..2 {
            assert_eq!(s.group_dense(c, t.col_lens(c), &[0, 1, 2]), 2);
            assert_eq!(s.row_dense, vec![0, 1, 0]);
        }
        assert_eq!(s.value_of(1, 1), ValueId::from_raw(1_000_000));
    }

    #[test]
    fn recycled_scratch_is_indistinguishable_from_fresh() {
        use crate::table::{Cell, ReorderTable};
        let table = |vals: &[(u32, u32)]| {
            let mut t = ReorderTable::new(vec!["a".into()]).unwrap();
            for &(v, len) in vals {
                t.push_row(vec![Cell::new(ValueId::from_raw(v), len)])
                    .unwrap();
            }
            t
        };
        // First solve grows the arena and (on drop) parks it in this
        // thread's pool.
        let big = table(&[(1, 1), (2, 2), (3, 3), (1, 1), (2, 2), (4, 4), (5, 5)]);
        {
            let mut s = Scratch::for_table(&big);
            let rows: Vec<u32> = (0..7).collect();
            assert_eq!(s.group_dense(0, big.col_lens(0), &rows), 5);
        }
        // The second (smaller, different-valued) solve reuses the pooled
        // arena; every observable result must match a fresh build.
        let small = table(&[(9, 9), (8, 8), (9, 9)]);
        let mut s = Scratch::for_table(&small);
        let rows: Vec<u32> = (0..3).collect();
        assert_eq!(s.group_dense(0, small.col_lens(0), &rows), 2);
        assert_eq!(s.touched, vec![0, 1]);
        assert_eq!(&s.counts[..2], &[2, 1]);
        assert_eq!(s.row_dense, vec![0, 1, 0]);
        assert_eq!(s.value_of(0, 0), ValueId::from_raw(9));
        assert_eq!(&s.first_sq[..2], &[81, 64]);
        let (distinct, sum_sq) = s.distinct_sum_sq(&small, 0, &rows);
        assert_eq!(distinct, 2);
        assert_eq!(sum_sq, (81 + 64 + 81) as f64);
    }

    #[test]
    fn partition_preserves_view_order() {
        let values: Vec<ValueId> = [1u32, 2, 1, 3]
            .iter()
            .map(|&v| ValueId::from_raw(v))
            .collect();
        let rows = vec![3u32, 2, 1, 0];
        let (mut g, mut r) = (Vec::new(), Vec::new());
        partition_rows_by_value(&values, &rows, ValueId::from_raw(1), &mut g, &mut r);
        assert_eq!(g, vec![2, 0]);
        assert_eq!(r, vec![3, 1]);
    }

    #[test]
    fn interner_canonicalizes_order() {
        let mut i = SetInterner::new(130);
        let a = i.intern(&[1, 64, 129]);
        let b = i.intern(&[129, 1, 64]);
        let c = i.intern(&[1, 64]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pool_round_trips() {
        let mut p = BufPool::default();
        let mut b = p.take();
        b.push(9);
        p.put(b);
        assert!(p.take().is_empty());
    }

    #[test]
    fn fx_hasher_mixes_tails() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
