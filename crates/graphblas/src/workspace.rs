//! Epoch-recycled kernel workspaces (the `STUDY_WORKSPACE` axis).
//!
//! The paper's differential analysis charges much of the matrix API's
//! overhead to per-call **materialization**: every GraphBLAS call in a
//! round-based algorithm re-allocates and re-zeroes its accumulators,
//! scratch lanes and hash tables, then throws them away at the end of the
//! call. Real systems amortize that churn — GraphMat keeps preallocated
//! per-thread SpMV state across iterations, GraphBLAST recycles masked
//! SpGEMM workspaces — so this module adds the same layer under our two
//! runtimes:
//!
//! * a process-wide **buffer pool** ([`Workspace`], handed out by
//!   [`Runtime::workspace`](crate::runtime::Runtime::workspace)): kernels
//!   check typed buffers out at op entry and return them at op exit, so a
//!   warm round allocates near-zero fresh bytes;
//! * an **epoch-stamped dense accumulator** (`EpochAcc`): clearing
//!   between calls is a generation-counter bump instead of an `O(n)`
//!   memset, with a sparse touched-list drain for very sparse frontiers;
//! * **flop-balanced scheduling** (`run_balanced`): row loops whose
//!   per-row cost is skewed (SpGEMM over rmat-like degree distributions,
//!   masked pull SpMV) are partitioned into equal-*flops* ranges instead
//!   of equal-*row* ranges and executed on `galois_rt::do_all_ranges`,
//!   which reuses the `substrate::deque` work-stealing layer for the
//!   residual imbalance.
//!
//! `STUDY_WORKSPACE=off` pins the paper-faithful per-call-allocation
//! behaviour bit-for-bit: every kernel takes exactly the pre-workspace
//! code path (same allocations, same instrumentation hooks, same loop
//! shapes), which is what `tests/paper_claims.rs` pins alongside
//! `STUDY_KERNEL=push`. The default is `on`.
//!
//! Retained (idle) pool bytes are charged against the
//! `STUDY_MEM_BUDGET` accounting from the resilience layer: a buffer
//! whose retention would exceed the budget is dropped instead of pooled
//! (the pool never errors — degraded reuse, not failure). Per-op reuse
//! is reported on the op trace span (`ws_reused_bytes`,
//! `ws_fresh_bytes`, `flops`, `chunks`).

use crate::scalar::Scalar;
use galois_rt::substrate::PerThread;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide workspace policy (the `STUDY_WORKSPACE` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkspaceMode {
    /// Recycle kernel buffers through the pool and partition skewed row
    /// loops by flops.
    #[default]
    On,
    /// The paper-faithful behaviour: every call allocates its own
    /// buffers and partitions loops by rows — bit-for-bit the
    /// pre-workspace kernels.
    Off,
}

/// 0 = not yet resolved from the environment.
static MODE: AtomicU8 = AtomicU8::new(0);

const MODE_ON: u8 = 1;
const MODE_OFF: u8 = 2;

/// Returns the process-wide workspace policy, resolving it from the
/// `STUDY_WORKSPACE` environment variable (`on` | `off`) on first use.
/// Unset defaults to [`WorkspaceMode::On`].
///
/// # Panics
///
/// Panics when `STUDY_WORKSPACE` is set to an unrecognized value.
pub fn workspace_mode() -> WorkspaceMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_ON => WorkspaceMode::On,
        MODE_OFF => WorkspaceMode::Off,
        _ => {
            let mode = match std::env::var("STUDY_WORKSPACE") {
                Ok(v) => match v.as_str() {
                    "on" => WorkspaceMode::On,
                    "off" => WorkspaceMode::Off,
                    other => panic!("STUDY_WORKSPACE must be on or off; got {other:?}"),
                },
                Err(_) => WorkspaceMode::On,
            };
            set_workspace_mode(mode);
            mode
        }
    }
}

/// Overrides the process-wide workspace policy (takes precedence over
/// `STUDY_WORKSPACE`).
pub fn set_workspace_mode(mode: WorkspaceMode) {
    MODE.store(
        match mode {
            WorkspaceMode::On => MODE_ON,
            WorkspaceMode::Off => MODE_OFF,
        },
        Ordering::Relaxed,
    );
}

/// Whether recycling/flop-balancing is active.
#[inline]
pub(crate) fn enabled() -> bool {
    workspace_mode() == WorkspaceMode::On
}

// ---------------------------------------------------------------------------
// Cumulative counters: op spans record start/finish deltas of these.

static WS_REUSED: AtomicU64 = AtomicU64::new(0);
static WS_FRESH: AtomicU64 = AtomicU64::new(0);
static WS_FLOPS: AtomicU64 = AtomicU64::new(0);
static WS_CHUNKS: AtomicU64 = AtomicU64::new(0);
static TRANSPOSE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the cumulative workspace counters; two
/// snapshots bracket one op and their difference is what that op's trace
/// span reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WsSnapshot {
    pub reused: u64,
    pub fresh: u64,
    pub flops: u64,
    pub chunks: u64,
}

/// Reads the cumulative counters.
pub(crate) fn snapshot() -> WsSnapshot {
    WsSnapshot {
        reused: WS_REUSED.load(Ordering::Relaxed),
        fresh: WS_FRESH.load(Ordering::Relaxed),
        flops: WS_FLOPS.load(Ordering::Relaxed),
        chunks: WS_CHUNKS.load(Ordering::Relaxed),
    }
}

/// Credits `bytes` of satisfied-from-pool workspace demand.
pub(crate) fn note_reused(bytes: usize) {
    WS_REUSED.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Credits `bytes` of freshly allocated workspace demand.
pub(crate) fn note_fresh(bytes: usize) {
    WS_FRESH.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Records the useful work and chunk count of one balanced loop.
pub(crate) fn note_work(flops: u64, chunks: u64) {
    WS_FLOPS.fetch_add(flops, Ordering::Relaxed);
    WS_CHUNKS.fetch_add(chunks, Ordering::Relaxed);
}

/// Records a `Matrix::transpose()` cache build of `bytes` bytes.
///
/// Called once from inside the `OnceCell` initializer, so the bytes land
/// on the op that triggered the build and are *not* re-reported on every
/// cache reuse. They count as fresh workspace bytes and as retained
/// bytes against the `STUDY_MEM_BUDGET` pool accounting (the cached
/// transpose is workspace the op keeps alive).
pub(crate) fn note_transpose_build(bytes: usize) {
    TRANSPOSE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    note_fresh(bytes);
}

/// Total bytes of cached-transpose builds recorded so far (test hook).
pub fn transpose_bytes_built() -> u64 {
    TRANSPOSE_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// The buffer pool.

/// Shelf identifiers: buffers of the same Rust type used for different
/// purposes (entry lists vs. lanes) are pooled separately so a kernel
/// always gets back a buffer shaped like the one it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Shelf {
    /// `(u32, T)` entry lists (SpMV compaction results, `u.entries()`).
    Entries,
    /// Per-row SpGEMM result rows (`Vec<Vec<(u32, T)>>`).
    Rows,
    /// Epoch-stamped dense accumulators.
    Acc,
    /// Per-thread SpGEMM scratch extracted from a `PerThread`.
    Scratch,
    /// `u64` per-index flop tallies for balanced partitioning.
    Flops,
    /// Chunk boundary lists for balanced partitioning.
    Ranges,
}

struct PoolEntry {
    buf: Box<dyn Any + Send>,
    bytes: usize,
}

/// Entries retained per `(shelf, type)` key; more than this and the
/// oldest is dropped. Kernels check out at most one buffer per key at a
/// time, so a small depth covers nested ops with headroom.
const SHELF_DEPTH: usize = 4;

/// The process-wide recyclable buffer pool.
///
/// Obtained through [`Runtime::workspace`](crate::runtime::Runtime::workspace)
/// (or [`global`]); all methods are internal to the op layer. Buffers
/// are keyed by `(shelf, concrete type)`, retention is bounded by
/// [`Workspace::retained_bytes`] against the `STUDY_MEM_BUDGET`, and a
/// checkout is credited to the per-op `ws_reused_bytes` /
/// `ws_fresh_bytes` trace counters.
pub struct Workspace {
    shelves: Mutex<HashMap<(Shelf, TypeId), Vec<PoolEntry>>>,
    retained: AtomicU64,
}

/// The process-wide pool instance.
pub fn global() -> &'static Workspace {
    static POOL: OnceLock<Workspace> = OnceLock::new();
    POOL.get_or_init(|| Workspace {
        shelves: Mutex::new(HashMap::new()),
        retained: AtomicU64::new(0),
    })
}

impl Workspace {
    /// Checks a buffer out of the pool, crediting its recorded byte size
    /// to the reuse counter. Returns `None` (and credits nothing) when
    /// the shelf is empty — the caller allocates fresh and reports the
    /// size via [`note_fresh`].
    pub(crate) fn take<K: Any + Send>(&self, shelf: Shelf) -> Option<K> {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let entry = shelves.get_mut(&(shelf, TypeId::of::<K>()))?.pop()?;
        self.retained.fetch_sub(entry.bytes as u64, Ordering::Relaxed);
        note_reused(entry.bytes);
        Some(*entry.buf.downcast::<K>().expect("shelf key matches type"))
    }

    /// Returns a buffer of `bytes` retained size to the pool. When the
    /// retention would exceed the `STUDY_MEM_BUDGET` (or the shelf is
    /// full) the buffer is dropped instead — the pool degrades, it never
    /// errors.
    pub(crate) fn give<K: Any + Send>(&self, shelf: Shelf, buf: K, bytes: usize) {
        if let Some(budget) = crate::ops::mem_budget() {
            let retained = self.retained.load(Ordering::Relaxed);
            if retained.saturating_add(bytes as u64) > budget {
                return;
            }
        }
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let entries = shelves.entry((shelf, TypeId::of::<K>())).or_default();
        if entries.len() >= SHELF_DEPTH {
            return;
        }
        self.retained.fetch_add(bytes as u64, Ordering::Relaxed);
        entries.push(PoolEntry {
            buf: Box::new(buf),
            bytes,
        });
    }

    /// Bytes currently held by idle pooled buffers.
    pub fn retained_bytes(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Drops every pooled buffer (test hook).
    pub fn clear(&self) {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves.clear();
        self.retained.store(0, Ordering::Relaxed);
    }

    /// Checks a `Vec<E>` out of the pool or allocates one, returning it
    /// emptied with at least `cap` capacity and crediting the
    /// reused/fresh counters accordingly.
    pub(crate) fn take_vec<E: Any + Send>(&self, shelf: Shelf, cap: usize) -> Vec<E> {
        match self.take::<Vec<E>>(shelf) {
            Some(mut v) => {
                v.clear();
                if v.capacity() < cap {
                    let grow = cap - v.capacity();
                    note_fresh(grow * std::mem::size_of::<E>());
                    v.reserve(cap - v.len());
                }
                v
            }
            None => {
                note_fresh(cap * std::mem::size_of::<E>());
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a `Vec<E>` to the pool, retaining its capacity.
    pub(crate) fn give_vec<E: Any + Send>(&self, shelf: Shelf, mut v: Vec<E>) {
        v.clear();
        let bytes = v.capacity() * std::mem::size_of::<E>();
        self.give(shelf, v, bytes);
    }

    /// Checks a per-row result buffer (`Vec<Vec<E>>`) out of the pool,
    /// sized to exactly `n` empty rows. Pooled inner rows keep their
    /// capacities, which is where SpGEMM's per-row churn lives.
    pub(crate) fn take_rows<E: Any + Send>(&self, n: usize) -> Vec<Vec<E>> {
        let mut rows = self.take::<Vec<Vec<E>>>(Shelf::Rows).unwrap_or_default();
        rows.truncate(n);
        if rows.len() < n {
            note_fresh((n - rows.len()) * std::mem::size_of::<Vec<E>>());
            rows.resize_with(n, Vec::new);
        }
        rows
    }

    /// Returns a rows buffer to the pool, clearing each row but keeping
    /// every capacity (outer and inner) for the next call of similar
    /// shape.
    pub(crate) fn give_rows<E: Any + Send>(&self, mut rows: Vec<Vec<E>>) {
        let mut bytes = rows.capacity() * std::mem::size_of::<Vec<E>>();
        for row in &mut rows {
            row.clear();
            bytes += row.capacity() * std::mem::size_of::<E>();
        }
        self.give(Shelf::Rows, rows, bytes);
    }
}

// ---------------------------------------------------------------------------
// Epoch-stamped dense accumulator.

/// Per-slot stamp protocol: a slot is *present* in the current epoch
/// when its stamp equals `epoch << 1 | 1`, *locked* (first write in
/// flight) at `epoch << 1`, and *empty* at any other value — so one
/// epoch bump invalidates every slot in O(1) instead of an O(n) memset.
const EPOCH_MAX: u32 = (u32::MAX >> 1) - 1;

/// Fraction of slots under which the drain walks the touched list
/// instead of scanning every slot.
const SPARSE_DRAIN_DIVISOR: usize = 8;

/// A dense, lock-free, *recyclable* accumulator: the epoch-stamped
/// counterpart of `util::AtomicAccumulator`. Any thread folds values
/// into any slot with the semiring's ⊕; clearing between ops is a
/// generation bump, and draining a sparsely touched epoch walks the
/// first-writer undo list instead of all `n` slots. It folds in arrival
/// order, so it serves only an order-independent ⊕.
pub(crate) struct EpochAcc {
    bits: Vec<AtomicU64>,
    stamp: Vec<AtomicU32>,
    epoch: u32,
    touched: PerThread<Vec<u32>>,
}

impl EpochAcc {
    /// An empty accumulator (grown by [`EpochAcc::begin`]).
    pub fn new() -> Self {
        EpochAcc {
            bits: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            touched: PerThread::new(Vec::new),
        }
    }

    /// Bytes retained by the slot arrays (for pool accounting).
    pub fn retained_bytes(&self) -> usize {
        self.bits.len() * (std::mem::size_of::<AtomicU64>() + std::mem::size_of::<AtomicU32>())
    }

    /// Opens a new epoch over `n` slots, returning the bytes that were
    /// reused vs. freshly grown. All slots read as empty afterwards.
    pub fn begin(&mut self, n: usize) -> (usize, usize) {
        let have = self.bits.len();
        let slot = std::mem::size_of::<AtomicU64>() + std::mem::size_of::<AtomicU32>();
        let (reused, fresh) = (have.min(n) * slot, n.saturating_sub(have) * slot);
        if n > have {
            self.bits.extend((have..n).map(|_| AtomicU64::new(0)));
            self.stamp.extend((have..n).map(|_| AtomicU32::new(0)));
        }
        if self.epoch >= EPOCH_MAX {
            for s in &mut self.stamp {
                *s.get_mut() = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        for lane in self.touched.iter_mut() {
            lane.clear();
        }
        (reused, fresh)
    }

    #[inline]
    fn locked_tag(&self) -> u32 {
        self.epoch << 1
    }

    #[inline]
    fn present_tag(&self) -> u32 {
        (self.epoch << 1) | 1
    }

    /// Folds `v` into slot `j` with `add` (same slot state machine and
    /// instrumentation as `AtomicAccumulator::accumulate`, with the
    /// epoch encoded in the stamp).
    pub fn accumulate<T: Scalar>(&self, j: usize, v: T, add: impl Fn(T, T) -> T) {
        perfmon::touch_ref(&self.bits[j]);
        let (locked, present) = (self.locked_tag(), self.present_tag());
        loop {
            let s = self.stamp[j].load(Ordering::Acquire);
            if s == present {
                let mut cur = self.bits[j].load(Ordering::Relaxed);
                loop {
                    let new = add(T::from_bits64(cur), v).to_bits64();
                    match self.bits[j].compare_exchange_weak(
                        cur,
                        new,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return,
                        Err(actual) => cur = actual,
                    }
                }
            } else if s == locked {
                std::hint::spin_loop();
            } else if self.stamp[j]
                .compare_exchange(s, locked, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.bits[j].store(v.to_bits64(), Ordering::Relaxed);
                self.stamp[j].store(present, Ordering::Release);
                self.touched.with(|lane| lane.push(j as u32));
                return;
            }
        }
    }

    /// Reads slot `j` (after all writers of the epoch finished).
    pub fn get<T: Scalar>(&self, j: usize) -> Option<T> {
        (self.stamp[j].load(Ordering::Acquire) == self.present_tag())
            .then(|| T::from_bits64(self.bits[j].load(Ordering::Relaxed)))
    }

    /// Drains the epoch's present entries into `out` in ascending index
    /// order. Sparse epochs (touched < n / 8) walk the sorted
    /// first-writer list; dense epochs scan all `n` slots like
    /// `AtomicAccumulator::into_entries`, with the same per-slot
    /// instrumentation.
    pub fn drain_into<T: Scalar>(&mut self, n: usize, out: &mut Vec<(u32, T)>) {
        out.clear();
        let touched: usize = self.touched.iter_mut().map(|l| l.len()).sum();
        if touched * SPARSE_DRAIN_DIVISOR < n {
            let mut idx: Vec<u32> = Vec::with_capacity(touched);
            for lane in self.touched.iter_mut() {
                idx.extend(lane.iter().copied());
            }
            idx.sort_unstable();
            for j in idx {
                perfmon::instr(1);
                perfmon::touch_ref(&self.stamp[j as usize]);
                if let Some(v) = self.get::<T>(j as usize) {
                    out.push((j, v));
                }
            }
        } else {
            for j in 0..n {
                perfmon::instr(1);
                perfmon::touch_ref(&self.stamp[j]);
                if let Some(v) = self.get::<T>(j) {
                    out.push((j as u32, v));
                }
            }
        }
    }
}

impl Default for EpochAcc {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Flop-balanced partitioning.

/// Number of chunks per active thread: enough slack for stealing to
/// absorb residual imbalance without fragmenting the loop.
const CHUNKS_PER_THREAD: usize = 4;

/// Splits `0..flops.len()` into contiguous ranges of approximately equal
/// summed flops (never more than `parts` ranges, never an empty range),
/// appended to `ranges` (a pooled buffer, so the split allocates nothing
/// once warm).
pub(crate) fn balanced_ranges(flops: &[u64], parts: usize, ranges: &mut Vec<Range<usize>>) {
    let n = flops.len();
    let total: u64 = flops.iter().sum();
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return;
    }
    let target = total / parts as u64 + 1;
    let first = ranges.len();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in flops.iter().enumerate() {
        acc += w;
        if acc >= target && ranges.len() - first + 1 < parts {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
}

/// Runs `f(i)` for every `i` in `0..n`, partitioned into equal-flops
/// chunks (`flops_of(i)` is the per-index work estimate, evaluated
/// instrumentation-free) and executed with work stealing. Records the
/// loop's total flops and chunk count on the current op's counters.
///
/// Callers guarantee the same one-writer-per-index discipline as
/// `Runtime::parallel_for`, so results are bit-identical to the
/// row-partitioned loop regardless of chunk boundaries or thread count.
pub(crate) fn run_balanced<F>(n: usize, flops_of: impl Fn(usize) -> u64, f: F)
where
    F: Fn(usize) + Sync,
{
    run_balanced_tasks(n, flops_of, |r| {
        for i in r {
            f(i);
        }
    });
}

/// [`run_balanced`] at chunk granularity: `f` receives each whole
/// equal-flops range instead of one index at a time, so a cache-blocked
/// kernel can keep per-row cursor state alive across the column bands of
/// its 2-D tile. Flops/chunk accounting is identical to `run_balanced` —
/// a tiled and an untiled execution of the same loop report the same
/// work counters.
pub(crate) fn run_balanced_tasks<F>(n: usize, flops_of: impl Fn(usize) -> u64, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let ws = global();
    let mut flops: Vec<u64> = ws.take_vec(Shelf::Flops, n);
    flops.extend((0..n).map(&flops_of));
    let parts = galois_rt::threads() * CHUNKS_PER_THREAD;
    let mut ranges: Vec<Range<usize>> = ws.take_vec(Shelf::Ranges, parts.min(n));
    balanced_ranges(&flops, parts, &mut ranges);
    let total: u64 = flops.iter().sum();
    note_work(total, ranges.len() as u64);
    galois_rt::do_all_range_tasks(&ranges, f);
    ws.give_vec(Shelf::Ranges, ranges);
    ws.give_vec(Shelf::Flops, flops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_override_roundtrips() {
        let prev = workspace_mode();
        set_workspace_mode(WorkspaceMode::Off);
        assert_eq!(workspace_mode(), WorkspaceMode::Off);
        assert!(!enabled());
        set_workspace_mode(WorkspaceMode::On);
        assert_eq!(workspace_mode(), WorkspaceMode::On);
        assert!(enabled());
        set_workspace_mode(prev);
    }

    #[test]
    fn pool_roundtrips_typed_buffers_and_counts_bytes() {
        let ws = global();
        // Drain any shelf state left by other tests in this binary.
        let v: Vec<u64> = ws.take_vec(Shelf::Flops, 32);
        assert!(v.capacity() >= 32 && v.is_empty());
        let before = snapshot();
        ws.give_vec(Shelf::Flops, v);
        let back: Vec<u64> = ws.take_vec(Shelf::Flops, 16);
        assert!(back.capacity() >= 32, "pooled capacity is retained");
        let after = snapshot();
        assert!(
            after.reused - before.reused >= 32 * 8,
            "checkout credits reused bytes"
        );
        ws.give_vec(Shelf::Flops, back);
    }

    #[test]
    fn pool_separates_shelves_of_the_same_type() {
        let ws = global();
        ws.give_vec::<u64>(Shelf::Flops, Vec::with_capacity(8));
        assert!(
            ws.take::<Vec<u64>>(Shelf::Entries).is_none(),
            "an Entries request must not see the Flops shelf"
        );
        assert!(ws.take::<Vec<u64>>(Shelf::Flops).is_some());
    }

    #[test]
    fn give_respects_the_memory_budget() {
        let ws = global();
        ws.clear();
        let prev = crate::ops::mem_budget();
        crate::ops::set_mem_budget(Some(64));
        ws.give_vec::<u64>(Shelf::Flops, Vec::with_capacity(1024));
        assert_eq!(ws.retained_bytes(), 0, "over-budget buffers are dropped");
        ws.give_vec::<u64>(Shelf::Flops, Vec::with_capacity(4));
        assert_eq!(ws.retained_bytes(), 32, "fitting buffers are pooled");
        crate::ops::set_mem_budget(prev);
        ws.clear();
    }

    #[test]
    fn epoch_acc_clears_by_generation_bump() {
        let mut acc = EpochAcc::new();
        acc.begin(8);
        acc.accumulate(3usize, 5u64, |a, b| a + b);
        acc.accumulate(3usize, 7u64, |a, b| a + b);
        assert_eq!(acc.get::<u64>(3), Some(12));
        let mut out = Vec::new();
        acc.drain_into::<u64>(8, &mut out);
        assert_eq!(out, vec![(3, 12)]);
        // New epoch: the same slots read as empty without any memset.
        let (reused, fresh) = acc.begin(8);
        assert_eq!(fresh, 0, "no growth on the second epoch");
        assert!(reused > 0);
        assert_eq!(acc.get::<u64>(3), None);
        acc.drain_into::<u64>(8, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn epoch_acc_parallel_sums_are_exact() {
        let mut acc = EpochAcc::new();
        for _ in 0..3 {
            acc.begin(16);
            galois_rt::do_all(0..100_000, |i| {
                acc.accumulate(i % 16, 1u64, |a, b| a + b);
            });
            let mut out = Vec::new();
            acc.drain_into::<u64>(16, &mut out);
            let total: u64 = out.iter().map(|&(_, v)| v).sum();
            assert_eq!(total, 100_000);
        }
    }

    #[test]
    fn epoch_acc_sparse_drain_matches_dense_scan() {
        let mut acc = EpochAcc::new();
        acc.begin(10_000);
        for j in [17usize, 400, 401, 9_999] {
            acc.accumulate(j, j as u64, |a, b| a + b);
        }
        let mut out = Vec::new();
        acc.drain_into::<u64>(10_000, &mut out);
        assert_eq!(
            out,
            vec![(17, 17), (400, 400), (401, 401), (9_999, 9_999)],
            "sparse drain is sorted and complete"
        );
    }

    #[test]
    fn epoch_acc_survives_epoch_wraparound() {
        let mut acc = EpochAcc::new();
        acc.begin(4);
        acc.epoch = EPOCH_MAX; // fast-forward to the wraparound edge
        acc.accumulate(1usize, 9u64, |a, b| a + b);
        let (_, _) = acc.begin(4);
        assert_eq!(acc.get::<u64>(1), None, "wraparound resets stale stamps");
        acc.accumulate(1usize, 2u64, |a, b| a + b);
        assert_eq!(acc.get::<u64>(1), Some(2));
    }

    fn ranges_of(flops: &[u64], parts: usize) -> Vec<Range<usize>> {
        let mut ranges = Vec::new();
        balanced_ranges(flops, parts, &mut ranges);
        ranges
    }

    #[test]
    fn balanced_ranges_cover_exactly_once_and_balance_skew() {
        // One heavy head plus a light tail — row-count chunking would
        // put the whole head in one chunk with most of the work.
        let mut flops = vec![1u64; 64];
        flops[0] = 1000;
        let ranges = ranges_of(&flops, 4);
        assert!(ranges.len() <= 4 && !ranges.is_empty());
        let mut seen = [false; 64];
        for r in &ranges {
            for i in r.clone() {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "ranges cover every index");
        assert_eq!(ranges[0], 0..1, "the heavy row gets its own chunk");
    }

    #[test]
    fn balanced_ranges_degenerate_inputs() {
        assert!(ranges_of(&[], 4).is_empty());
        assert_eq!(ranges_of(&[0, 0, 0], 4), vec![0..3]);
        let one = ranges_of(&[5], 8);
        assert_eq!(one, vec![0..1]);
    }

    #[test]
    fn run_balanced_visits_every_index_once() {
        use std::sync::atomic::AtomicUsize;
        let n = 2048;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_balanced(n, |i| (i % 17) as u64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
