//! 2-D cache-blocked SpMV execution.
//!
//! The masked-pull and push-dense kernels make random accesses into a
//! dense operand — the input vector's value slots for pull, the
//! accumulator's output slots for push. Once that operand outgrows the
//! L2, every irregular column index is a likely miss. Cache blocking
//! (GraphBLAST, and CSB before it) fixes this by splitting the column
//! dimension into *bands* sized from the machine's cache hierarchy
//! ([`perfmon::cache::geometry`]) and streaming each tile's rows through
//! the bands in ascending order, so the random accesses of one band all
//! land in a cache-resident window.
//!
//! A tile here is (task rows × column band): each equal-flops chunk from
//! [`crate::workspace::run_balanced_tasks`] — the PR-5 stealing-deque
//! schedule, now handed out at whole-chunk granularity by
//! [`galois_rt::do_all_range_tasks`] — owns a contiguous row range and
//! iterates its column bands innermost, keeping one streaming cursor per
//! row. Because every row still folds its columns in ascending order and
//! every output slot keeps one owner, results are bit-identical to the
//! untiled loops on every semiring, and the per-element instrumentation
//! (instruction and touch counts) is unchanged — only the *order* of
//! accesses differs, which is exactly what the cache model is meant to
//! see.
//!
//! The pull that writes a dense output in place (`kernels::pull_dense`,
//! every `mxv` and the unmasked replacing `vxm`) runs untiled; tiling
//! serves the masked pull that emits entries and the dense and bitmap
//! scatters.
//!
//! Tiling rides the workspace gate: `STUDY_WORKSPACE=off` (the
//! paper-faithful pin) never tiles, so the paper path keeps its exact
//! loop shape.

use crate::binops::SemiringOps;
use crate::descriptor::Descriptor;
use crate::matrix::{Matrix, RowCursor};
use crate::scalar::Scalar;
use crate::vector::Vector;
use std::cell::RefCell;
use std::ops::Range;

/// Per-thread tile scratch, pooled across tasks *and* calls so the tiled
/// kernels allocate nothing in steady state (workspace recycling's whole
/// point; the per-op alloc-churn trace counter sees tiled and untiled
/// runs alike). Accumulator values live as [`Scalar`] bit patterns so
/// one buffer serves every scalar type; cursors are the borrow-free
/// [`RowCursor`] form of the row iterators. Retention is bounded by the
/// widest equal-flops chunk a thread has run (rows ÷ chunk count).
struct Scratch {
    /// Per-row fold accumulator, as `to_bits64` patterns.
    acc: Vec<u64>,
    /// Per-row "folded at least one contribution" flags.
    any: Vec<bool>,
    /// Per-row "stop folding" flags (mask-rejected or absorbed).
    done: Vec<bool>,
    /// Per-row streaming position, persisted across column bands.
    cursors: Vec<RowCursor>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            acc: Vec::new(),
            any: Vec::new(),
            done: Vec::new(),
            cursors: Vec::new(),
        })
    };
}

/// Floor on band width: below this the per-band cursor sweep costs more
/// than the locality wins.
const MIN_BAND_COLS: usize = 1024;

/// Column-band extents for one kernel invocation.
pub(crate) struct BandPlan {
    band_cols: usize,
    ncols: usize,
}

impl BandPlan {
    /// Ascending, non-overlapping bands covering `0..ncols`.
    pub(crate) fn bands(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.ncols)
            .step_by(self.band_cols)
            .map(move |s| s..(s + self.band_cols).min(self.ncols))
    }

    #[cfg(test)]
    fn nbands(&self) -> usize {
        self.ncols.div_ceil(self.band_cols)
    }
}

/// Plans column bands for a kernel whose inner loop randomly accesses
/// `ncols` slots of `bytes_per_col` bytes. Returns `None` when blocking
/// cannot pay: workspace recycling is off (the paper path keeps its
/// exact loop shape), or the whole operand already fits the target
/// working set (half the detected L2, leaving the other half for the
/// streamed CSR arrays).
pub(crate) fn plan(ncols: usize, bytes_per_col: usize) -> Option<BandPlan> {
    if !crate::workspace::enabled() {
        return None;
    }
    let target = perfmon::cache::geometry().l2.bytes / 2;
    if ncols.saturating_mul(bytes_per_col) <= target {
        return None;
    }
    let band_cols = (target / bytes_per_col.max(1)).max(MIN_BAND_COLS);
    Some(BandPlan { band_cols, ncols })
}

/// Cache-blocked masked pull: for every row `j` of `at`, fold
/// `⊕_k mul(u(k), at(j,k))` in ascending-`k` order, visiting each tile's
/// column bands innermost so the reads of `u` stay cache-resident.
/// `emit(j, acc)` is called once per row that folded a contribution; one
/// row has one owner, so `emit` needs no synchronization beyond the
/// caller's one-writer-per-row discipline. With `early_exit`, a row
/// whose accumulator reaches the monoid's absorbing element stops
/// folding (the pull-bfs "any" exit), exactly like the untiled kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pull_rows_tiled<T, M, S>(
    tile: &BandPlan,
    u: &Vector<T>,
    at: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    mul: &(impl Fn(T, T) -> T + Sync),
    early_exit: bool,
    emit: &(impl Fn(u32, T) + Sync),
) where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
{
    let n = at.nrows();
    let udense = u.dense_parts();
    let absorbing = if early_exit {
        semiring.add_absorbing()
    } else {
        None
    };
    crate::workspace::run_balanced_tasks(
        n,
        |j| at.row_nvals(j as u32) as u64 + 1,
        |rows| {
            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                let width = rows.len();
                let identity = semiring.add_identity().to_bits64();
                s.acc.clear();
                s.acc.resize(width, identity);
                s.any.clear();
                s.any.resize(width, false);
                // done = mask-rejected up front, or absorbed mid-fold.
                s.done.clear();
                s.done.resize(width, false);
                s.cursors.clear();
                s.cursors.extend(rows.clone().map(|j| at.row_cursor(j as u32)));
                if let Some(m) = mask {
                    for (t, j) in rows.clone().enumerate() {
                        perfmon::instr(1);
                        let pass =
                            m.mask_at(j as u32, desc.mask_structural) != desc.mask_complement;
                        s.done[t] = !pass;
                    }
                }
                for band in tile.bands() {
                    for t in 0..width {
                        if s.done[t] {
                            continue;
                        }
                        while let Some(k) = at.cursor_peek_col(&s.cursors[t]) {
                            if k as usize >= band.end {
                                break;
                            }
                            let (k, &av) = at.cursor_next(&mut s.cursors[t]).expect("peeked");
                            perfmon::instr(2);
                            perfmon::touch_ref(&av);
                            let x = match udense {
                                Some((uvals, upresent)) => {
                                    perfmon::touch_ref(&uvals[k as usize]);
                                    upresent[k as usize].then(|| uvals[k as usize])
                                }
                                None => u.get(k),
                            };
                            if let Some(x) = x {
                                let folded = semiring.add(T::from_bits64(s.acc[t]), mul(x, av));
                                s.acc[t] = folded.to_bits64();
                                s.any[t] = true;
                                if absorbing == Some(folded) {
                                    s.done[t] = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                for (t, j) in rows.enumerate() {
                    if s.any[t] {
                        emit(j as u32, T::from_bits64(s.acc[t]));
                    }
                }
            });
        },
    );
}

/// Cache-blocked push scatter: each tile owns a contiguous range of
/// frontier entries and scatters their rows band-by-band, so the
/// accumulator writes of one band stay within a cache-resident window.
/// `accumulate(j, contribution)` must be safe under concurrent callers
/// (the dense accumulators' CAS fold); every `(entry, column)` pair is
/// visited exactly once, in ascending column order per entry, so the
/// contribution *set* matches the untiled scatter exactly.
pub(crate) fn scatter_tiled<T, M>(
    tile: &BandPlan,
    entries: &[(u32, T)],
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    mul: &(impl Fn(T, T) -> T + Sync),
    accumulate: &(impl Fn(usize, T) + Sync),
) where
    T: Scalar,
    M: Scalar,
{
    crate::workspace::run_balanced_tasks(
        entries.len(),
        |p| a.row_nvals(entries[p].0) as u64 + 1,
        |rng| {
            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                s.cursors.clear();
                s.cursors.extend(rng.clone().map(|p| {
                    perfmon::touch_ref(&entries[p]);
                    a.row_cursor(entries[p].0)
                }));
                for band in tile.bands() {
                    for (t, p) in rng.clone().enumerate() {
                        let x = entries[p].1;
                        while let Some(j) = a.cursor_peek_col(&s.cursors[t]) {
                            if j as usize >= band.end {
                                break;
                            }
                            let (j, &av) = a.cursor_next(&mut s.cursors[t]).expect("peeked");
                            perfmon::instr(2);
                            perfmon::touch_ref(&av);
                            if let Some(m) = mask {
                                let pass =
                                    m.mask_at(j, desc.mask_structural) != desc.mask_complement;
                                perfmon::instr(1);
                                if !pass {
                                    continue;
                                }
                            }
                            accumulate(j as usize, mul(x, av));
                        }
                    }
                }
            });
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{MinPlus, PlusTimes};
    use crate::workspace::{set_workspace_mode, WorkspaceMode};

    #[test]
    fn plan_gates_on_operand_size() {
        let prev = crate::workspace_mode();
        set_workspace_mode(WorkspaceMode::On);
        let l2 = perfmon::cache::geometry().l2.bytes;
        // Fits half the L2: no tiling.
        assert!(plan(l2 / 16 / 2, 8).is_none());
        // Four times the L2: bands.
        let p = plan(l2 / 2, 8).expect("large operand tiles");
        assert!(p.nbands() >= 2, "must split into at least two bands");
        assert_eq!(
            p.bands().map(|b| b.len()).sum::<usize>(),
            l2 / 2,
            "bands cover every column exactly once"
        );
        set_workspace_mode(WorkspaceMode::Off);
        assert!(plan(l2, 8).is_none(), "paper path never tiles");
        set_workspace_mode(prev);
    }

    #[test]
    fn band_floor_bounds_fragmentation() {
        let prev = crate::workspace_mode();
        set_workspace_mode(WorkspaceMode::On);
        // Enormous per-column footprint: the floor keeps bands usable.
        let p = plan(1 << 20, 1 << 20).expect("tiles");
        assert!(p.bands().all(|b| b.len() <= MIN_BAND_COLS));
        set_workspace_mode(prev);
    }

    /// A ring matrix whose rows span the full column range, so every
    /// band carries work.
    fn ring(n: usize) -> Matrix<u64> {
        let tuples = (0..n as u32)
            .flat_map(|i| {
                let far = (i + n as u32 / 2) % n as u32;
                [(i, (i + 1) % n as u32, 2u64), (i, far, 3)]
            })
            .collect();
        Matrix::from_tuples(n, n, tuples, crate::binops::Plus).unwrap()
    }

    #[test]
    fn tiled_pull_matches_untiled_fold() {
        let prev = crate::workspace_mode();
        set_workspace_mode(WorkspaceMode::On);
        let n = 512;
        let at = ring(n);
        let u: Vector<u64> = Vector::new_dense(n, 1);
        let tile = BandPlan { band_cols: 100, ncols: n };
        let out = std::sync::Mutex::new(vec![0u64; n]);
        let emit = |j: u32, v: u64| out.lock().unwrap()[j as usize] = v;
        let mul = |x: u64, av: u64| PlusTimes.mul(x, av);
        pull_rows_tiled(
            &tile,
            &u,
            &at,
            None::<&Vector<u64>>,
            &Descriptor::new(),
            PlusTimes,
            &mul,
            false,
            &emit,
        );
        let got = out.into_inner().unwrap();
        for (j, &g) in got.iter().enumerate() {
            let expect: u64 = at
                .row_pairs(j as u32)
                .map(|(_, &av)| av)
                .sum();
            assert_eq!(g, expect, "row {j}");
        }
        set_workspace_mode(prev);
    }

    #[test]
    fn tiling_engages_end_to_end_on_large_operands() {
        use crate::descriptor::KernelHint;
        use crate::{GaloisRuntime, StaticRuntime};
        let prev = crate::workspace_mode();
        set_workspace_mode(WorkspaceMode::On);
        // Big enough that the u / accumulator operand overflows half the
        // detected L2 under every plausible geometry, so plan() tiles.
        let n = 1 << 17;
        assert!(plan(n, 9).is_some(), "operand must exceed the tile target");
        let a = ring(n);
        let u: Vector<u64> = Vector::new_dense(n, 1);
        // Every vertex has in-edges of weight 2 and 3, so each output of
        // uᵀA (and of A·1, since out-weights match) is exactly 5.
        let mut w: Vector<u64> = Vector::new(n);
        crate::ops::mxv(
            &mut w,
            None::<&Vector<u64>>,
            PlusTimes,
            &a,
            &u,
            &Descriptor::new(),
            StaticRuntime,
        )
        .unwrap();
        assert_eq!(w.nvals(), n);
        assert!(w.entries().iter().all(|&(_, v)| v == 5), "paper pull tiled");
        for hint in [KernelHint::Pull, KernelHint::PushDense, KernelHint::Bitmap] {
            let mut w: Vector<u64> = Vector::new(n);
            crate::ops::vxm(
                &mut w,
                None::<&Vector<u64>>,
                PlusTimes,
                &u,
                &a,
                &Descriptor::new().with_replace(true).with_kernel(hint),
                GaloisRuntime,
            )
            .unwrap();
            assert_eq!(w.nvals(), n, "{hint:?}");
            assert!(
                w.entries().iter().all(|&(_, v)| v == 5),
                "{hint:?} tiled vxm must match the analytic product"
            );
        }
        set_workspace_mode(prev);
    }

    #[test]
    fn tiled_scatter_visits_each_edge_once() {
        let prev = crate::workspace_mode();
        set_workspace_mode(WorkspaceMode::On);
        let n = 512;
        let a = ring(n);
        let entries: Vec<(u32, u64)> = (0..n as u32).map(|i| (i, 10)).collect();
        let tile = BandPlan { band_cols: 64, ncols: n };
        let acc: Vec<std::sync::atomic::AtomicU64> =
            (0..n).map(|_| std::sync::atomic::AtomicU64::new(u64::MAX)).collect();
        let mul = |x: u64, av: u64| MinPlus.mul(x, av);
        let accumulate = |j: usize, v: u64| {
            acc[j].fetch_min(v, std::sync::atomic::Ordering::Relaxed);
        };
        scatter_tiled(
            &tile,
            &entries,
            &a,
            None::<&Vector<u64>>,
            &Descriptor::new(),
            &mul,
            &accumulate,
        );
        // Every vertex has two in-edges with weights 2 and 3: min = 12.
        for (j, a) in acc.iter().enumerate() {
            assert_eq!(a.load(std::sync::atomic::Ordering::Relaxed), 12, "col {j}");
        }
        set_workspace_mode(prev);
    }
}
