//! Uniform dispatch: `System × Problem → ProblemOutput`, with timing.
//!
//! This is also the reordering boundary: when the prepared graph
//! carries an [`OrderedView`](crate::prepared::OrderedView) (a
//! `STUDY_ORDER` other than `natural`), every algorithm runs on the
//! remapped views with the source translated into the reordered space,
//! and per-vertex outputs are un-permuted back to original ids before
//! they leave this module — callers (verification included) only ever
//! see natural vertex ids.

use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput, System, Variant};
use graph::CsrGraph;
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};
use std::time::{Duration, Instant};

/// The graph views and source one run actually executes on: the
/// ordered view's when a locality order is active, the natural fields
/// otherwise.
pub(crate) struct ActiveViews<'a> {
    pub(crate) graph: &'a CsrGraph,
    pub(crate) transpose: &'a CsrGraph,
    pub(crate) symmetric: &'a CsrGraph,
    pub(crate) sorted: &'a CsrGraph,
    pub(crate) out_degrees: &'a [u32],
    pub(crate) source: graph::NodeId,
}

pub(crate) fn active_views(p: &PreparedGraph) -> ActiveViews<'_> {
    match &p.ordered {
        Some(o) => ActiveViews {
            graph: &o.graph,
            transpose: &o.transpose,
            symmetric: &o.symmetric,
            sorted: &o.sorted,
            out_degrees: &o.out_degrees,
            source: o.source,
        },
        None => ActiveViews {
            graph: &p.graph,
            transpose: &p.transpose,
            symmetric: &p.symmetric,
            sorted: &p.sorted,
            out_degrees: &p.out_degrees,
            source: p.source,
        },
    }
}

/// Translates a reordered-space output back to original vertex ids
/// (identity when no order is active). Scalar outputs (triangle and
/// truss-edge counts) are permutation-invariant and pass through;
/// component labels are additionally renormalized to minimum original
/// ids so reordered cc runs stay bit-identical to natural ones.
pub(crate) fn unpermute_output(p: &PreparedGraph, out: ProblemOutput) -> ProblemOutput {
    let Some(o) = &p.ordered else { return out };
    match out {
        ProblemOutput::Levels(v) => ProblemOutput::Levels(o.perm.unpermute(&v)),
        ProblemOutput::Components(v) => {
            ProblemOutput::Components(o.perm.unpermute_components(&v))
        }
        ProblemOutput::Ranks(v) => ProblemOutput::Ranks(o.perm.unpermute(&v)),
        ProblemOutput::Dists(v) => ProblemOutput::Dists(o.perm.unpermute(&v)),
        scalar @ (ProblemOutput::TrussEdges(_) | ProblemOutput::Triangles(_)) => scalar,
    }
}

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Wall-clock time of the algorithm proper (preprocessing excluded).
    pub elapsed: Duration,
    /// The algorithm's output, for verification.
    pub output: ProblemOutput,
}

/// Runs `problem` on `system` over the prepared graph, surfacing
/// GraphBLAS failures (memory-budget exhaustion, injected faults) as
/// [`GrbError`] instead of panicking — what the resilient study runner
/// ([`crate::cell`]) calls.
///
/// # Errors
///
/// Propagates [`GrbError`] from the matrix-API systems; the Lonestar
/// implementations are infallible.
pub fn try_run(
    system: System,
    problem: Problem,
    p: &PreparedGraph,
) -> Result<ProblemOutput, GrbError> {
    match system {
        System::SuiteSparse => try_run_lagraph(problem, p, StaticRuntime),
        System::GaloisBlas => try_run_lagraph(problem, p, GaloisRuntime),
        System::Lonestar => Ok(run_lonestar(problem, p)),
    }
}

/// Runs `problem` on `system` over the prepared graph.
///
/// # Panics
///
/// Panics on any [`GrbError`] (which cannot occur on a well-formed
/// [`PreparedGraph`] without a memory budget or fault plan active); use
/// [`try_run`] to handle failures.
pub fn run(system: System, problem: Problem, p: &PreparedGraph) -> ProblemOutput {
    try_run(system, problem, p)
        .unwrap_or_else(|e| panic!("{problem} on {system} failed: {e}"))
}

/// Runs and times `problem` on `system`.
pub fn timed_run(system: System, problem: Problem, p: &PreparedGraph) -> RunMeasurement {
    let start = Instant::now();
    let output = run(system, problem, p);
    RunMeasurement {
        elapsed: start.elapsed(),
        output,
    }
}

/// One traced measurement: timing, output, and the merged op/loop trace.
#[derive(Debug, Clone)]
pub struct TracedMeasurement {
    /// Wall-clock time of the algorithm proper (tracing enabled, so
    /// slightly above [`RunMeasurement::elapsed`] for the same cell).
    pub elapsed: Duration,
    /// The algorithm's output, for verification.
    pub output: ProblemOutput,
    /// Every GraphBLAS call and runtime loop the run issued.
    pub trace: perfmon::trace::Trace,
}

/// Runs `problem` on `system` with [`perfmon::trace`] enabled, returning
/// the merged trace alongside timing and output.
///
/// Trace state is process-global; callers running traced cells
/// concurrently (tests in particular) must serialize.
pub fn traced_run(system: System, problem: Problem, p: &PreparedGraph) -> TracedMeasurement {
    let start = Instant::now();
    let (output, trace) = perfmon::trace::with_trace(|| run(system, problem, p));
    TracedMeasurement {
        elapsed: start.elapsed(),
        output,
        trace,
    }
}

/// Runs one Figure-3 variant with [`perfmon::trace`] enabled.
///
/// Same global-state caveat as [`traced_run`].
pub fn traced_run_variant(variant: Variant, p: &PreparedGraph) -> TracedMeasurement {
    let start = Instant::now();
    let (output, trace) = perfmon::trace::with_trace(|| run_variant(variant, p));
    TracedMeasurement {
        elapsed: start.elapsed(),
        output,
        trace,
    }
}

fn try_run_lagraph<R: Runtime>(
    problem: Problem,
    p: &PreparedGraph,
    rt: R,
) -> Result<ProblemOutput, GrbError> {
    let v = active_views(p);
    let out = match problem {
        Problem::Bfs => {
            ProblemOutput::Levels(lagraph::bfs::bfs(v.graph, v.source, rt)?.level)
        }
        Problem::Cc => ProblemOutput::Components(
            lagraph::cc::connected_components(v.symmetric, rt)?.component,
        ),
        Problem::Ktruss => ProblemOutput::TrussEdges(
            lagraph::ktruss::ktruss(v.symmetric, p.ktruss_k, rt)?.edges_remaining,
        ),
        Problem::Pr => ProblemOutput::Ranks(lagraph::pagerank::pagerank(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
            rt,
        )?),
        Problem::Sssp => ProblemOutput::Dists(
            lagraph::sssp::sssp_delta_stepping(v.graph, v.source, p.sssp_delta, rt)?.dist,
        ),
        Problem::Tc => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(v.symmetric, rt)?.triangles)
        }
    };
    Ok(unpermute_output(p, out))
}

fn run_lonestar(problem: Problem, p: &PreparedGraph) -> ProblemOutput {
    let v = active_views(p);
    let out = match problem {
        Problem::Bfs => ProblemOutput::Levels(lonestar::bfs::bfs(v.graph, v.source).level),
        Problem::Cc => {
            ProblemOutput::Components(lonestar::cc::afforest(v.symmetric, 2).component)
        }
        Problem::Ktruss => ProblemOutput::TrussEdges(
            lonestar::ktruss::ktruss(v.symmetric, p.ktruss_k).edges_remaining,
        ),
        Problem::Pr => ProblemOutput::Ranks(lonestar::pagerank::pagerank(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
        )),
        Problem::Sssp => ProblemOutput::Dists(
            lonestar::sssp::sssp(v.graph, v.source, p.sssp_delta, true).dist,
        ),
        Problem::Tc => ProblemOutput::Triangles(lonestar::tc::tc(v.sorted)),
    };
    unpermute_output(p, out)
}

/// Runs one differential-analysis variant (Figure 3), surfacing
/// GraphBLAS failures as [`GrbError`].
///
/// # Errors
///
/// Propagates [`GrbError`] from the matrix-API variants.
pub fn try_run_variant(variant: Variant, p: &PreparedGraph) -> Result<ProblemOutput, GrbError> {
    use Variant::*;
    let rt = GaloisRuntime;
    let v = active_views(p);
    let out = match variant {
        PrLs => ProblemOutput::Ranks(lonestar::pagerank::pagerank(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
        )),
        PrLsSoa => ProblemOutput::Ranks(lonestar::pagerank::pagerank_soa(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
        )),
        PrGbRes => ProblemOutput::Ranks(lagraph::pagerank::pagerank_residual(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
            rt,
        )?),
        PrGb => ProblemOutput::Ranks(lagraph::pagerank::pagerank(
            v.transpose,
            v.out_degrees,
            p.pr_iters,
            rt,
        )?),
        TcLs => ProblemOutput::Triangles(lonestar::tc::tc(v.sorted)),
        TcGbLl => ProblemOutput::Triangles(lagraph::tc::tc_listing(v.sorted, rt)?.triangles),
        TcGbSort => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(v.sorted, rt)?.triangles)
        }
        TcGb => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(v.symmetric, rt)?.triangles)
        }
        CcLs => ProblemOutput::Components(lonestar::cc::afforest(v.symmetric, 2).component),
        CcLsSv => {
            ProblemOutput::Components(lonestar::cc::shiloach_vishkin(v.symmetric).component)
        }
        CcGb => ProblemOutput::Components(
            lagraph::cc::connected_components(v.symmetric, rt)?.component,
        ),
        SsspLs => ProblemOutput::Dists(
            lonestar::sssp::sssp(v.graph, v.source, p.sssp_delta, true).dist,
        ),
        SsspLsNotile => ProblemOutput::Dists(
            lonestar::sssp::sssp(v.graph, v.source, p.sssp_delta, false).dist,
        ),
        SsspGb => ProblemOutput::Dists(
            lagraph::sssp::sssp_delta_stepping(v.graph, v.source, p.sssp_delta, rt)?.dist,
        ),
    };
    Ok(unpermute_output(p, out))
}

/// Runs one differential-analysis variant (Figure 3).
///
/// # Panics
///
/// Panics on any [`GrbError`]; use [`try_run_variant`] to handle
/// failures.
pub fn run_variant(variant: Variant, p: &PreparedGraph) -> ProblemOutput {
    try_run_variant(variant, p)
        .unwrap_or_else(|e| panic!("variant {} failed: {e}", variant.name()))
}

/// Runs and times one variant.
pub fn timed_run_variant(variant: Variant, p: &PreparedGraph) -> RunMeasurement {
    let start = Instant::now();
    let output = run_variant(variant, p);
    RunMeasurement {
        elapsed: start.elapsed(),
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use graph::{Scale, StudyGraph};

    #[test]
    fn all_systems_verify_on_a_small_study_graph() {
        let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
        for problem in Problem::all() {
            for system in System::all() {
                let out = run(system, problem, &p);
                verify(&p, problem, &out).unwrap_or_else(|e| {
                    panic!("{system} failed verification on {problem}: {e}")
                });
            }
        }
    }

    #[test]
    fn all_variants_verify_on_a_small_study_graph() {
        let p = PreparedGraph::study(StudyGraph::Indochina04, Scale::custom(1.0 / 64.0));
        for problem in [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp] {
            for &variant in Variant::panel(problem) {
                let out = run_variant(variant, &p);
                verify(&p, problem, &out).unwrap_or_else(|e| {
                    panic!("variant {} failed on {problem}: {e}", variant.name())
                });
            }
        }
    }

    #[test]
    fn timed_run_reports_nonzero_time() {
        let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::custom(1.0 / 64.0));
        let m = timed_run(System::Lonestar, Problem::Bfs, &p);
        assert!(m.elapsed > Duration::ZERO);
        assert!(matches!(m.output, ProblemOutput::Levels(_)));
    }

    #[test]
    fn every_order_verifies_against_natural_references() {
        use graph::OrderMode;
        let natural = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
        for mode in [OrderMode::Degree, OrderMode::Hub, OrderMode::Bfs] {
            let p = natural.clone().with_order(mode);
            for problem in Problem::all() {
                for system in System::all() {
                    // verify() runs the serial reference on the *natural*
                    // graph; a pass means the reordered run came back
                    // correctly through the inverse permutation.
                    let out = run(system, problem, &p);
                    verify(&p, problem, &out).unwrap_or_else(|e| {
                        panic!("{system} under {mode} order failed {problem}: {e}")
                    });
                }
            }
        }
    }

    #[test]
    fn ordered_outputs_are_bit_identical_to_natural() {
        use graph::OrderMode;
        let natural = PreparedGraph::study(StudyGraph::Indochina04, Scale::custom(1.0 / 64.0));
        let baseline = run(System::Lonestar, Problem::Bfs, &natural);
        let cc_baseline = run(System::Lonestar, Problem::Cc, &natural);
        for mode in [OrderMode::Degree, OrderMode::Hub, OrderMode::Bfs] {
            let p = natural.clone().with_order(mode);
            assert_eq!(
                run(System::Lonestar, Problem::Bfs, &p),
                baseline,
                "bfs levels under {mode} must un-permute bit-identically"
            );
            assert_eq!(
                run(System::Lonestar, Problem::Cc, &p),
                cc_baseline,
                "cc labels under {mode} must renormalize bit-identically"
            );
        }
    }
}
