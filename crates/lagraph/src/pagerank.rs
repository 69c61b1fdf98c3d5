//! PageRank: topology-driven (`pr-gb`) and residual-based (`pr-gb-res`).
//!
//! Both run the same power iteration
//! `pr' = (1-d)/n + d · Σ_{u→v} pr(u)/deg(u)` for a fixed number of
//! rounds (the study runs pr for 10 iterations). Like LAGraph with its
//! cached `AT`, they take the in-adjacency (the transpose the study
//! prepares once) and gather `Aᵀ·contrib` with `mxv`: every vertex sums
//! its in-neighbours' contributions in ascending order, so the ranks are
//! bit-identical at any thread count. The residual variant
//! carries the per-round delta in a separate vector; mathematically it
//! produces identical values, but — as the paper's differential analysis
//! shows (§V-B, Table V) — the matrix API must touch the residual vector
//! in **two** separate API calls per round (update the rank, scale by the
//! out-degree), where the graph API fuses both into one loop.

use graph::CsrGraph;
use graphblas::binops::{Plus, PlusTimes, Times};
use graphblas::{ops, Descriptor, GrbError, Matrix, Runtime, Vector};

/// Damping factor used throughout the study.
pub const DAMPING: f64 = 0.85;

/// Builds the dense reciprocal-out-degree vector (dangling vertices get
/// an explicit 0 so they contribute nothing). Shared with the batched
/// multi-seed variant (`crate::batch`).
pub(crate) fn inv_degree(g: &CsrGraph) -> Result<Vector<f64>, GrbError> {
    inv_degrees(g.num_nodes(), |i| g.out_degree(i))
}

/// [`inv_degree`] over `n` vertices whose out-degrees `degree` reports.
fn inv_degrees(n: usize, degree: impl Fn(u32) -> usize) -> Result<Vector<f64>, GrbError> {
    let mut v = Vector::new_dense(n, 0.0);
    for i in 0..n as u32 {
        let d = degree(i);
        if d > 0 {
            v.set(i, 1.0 / d as f64)?;
        }
    }
    Ok(v)
}

/// [`inv_degrees`] from an out-degree slice, which must have one entry
/// per vertex of the in-adjacency.
fn inv_out_degrees(n: usize, out_degrees: &[u32]) -> Result<Vector<f64>, GrbError> {
    if out_degrees.len() != n {
        return Err(GrbError::DimensionMismatch {
            expected: format!("out_degrees.len == gt.num_nodes == {n}"),
            actual: format!("out_degrees.len == {}", out_degrees.len()),
        });
    }
    inv_degrees(n, |i| out_degrees[i as usize] as usize)
}

/// `incoming = Aᵀ · contrib` over the in-adjacency matrix `at`: the
/// owner-computes gather of one pagerank round.
fn gather<R: Runtime>(
    incoming: &mut Vector<f64>,
    at: &Matrix<f64>,
    contrib: &Vector<f64>,
    rt: R,
) -> Result<(), GrbError> {
    ops::mxv(
        incoming,
        None::<&Vector<bool>>,
        PlusTimes,
        at,
        contrib,
        &Descriptor::new().with_replace(true),
        rt,
    )
}

/// Topology-driven LAGraph pagerank (`pr-gb` in the paper): `iters`
/// rounds of four bulk passes each (scale, spmv, damp, add-base).
///
/// `gt` is the transpose (in-adjacency) of the graph and `out_degrees`
/// the graph's out-degrees, the inputs Lonestar's pull pagerank takes.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] when `out_degrees` does not
/// have one entry per vertex; propagates [`GrbError`] from the GraphBLAS
/// calls.
pub fn pagerank<R: Runtime>(
    gt: &CsrGraph,
    out_degrees: &[u32],
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = gt.num_nodes();
    let inv_deg = inv_out_degrees(n, out_degrees)?;
    let at: Matrix<f64> = Matrix::from_graph(gt, |_| 1.0);
    // Initialized at (1-d)/n so the fixed-iteration result matches the
    // residual formulation exactly (the paper aligned LAGraph's pr with
    // Lonestar's answer the same way).
    let base = Vector::new_dense(n, (1.0 - DAMPING) / n as f64);
    let mut pr = base.clone();

    // Round temporaries live outside the loop so warm iterations recycle
    // their dense stores instead of reallocating them; every pass below
    // fully overwrites its output. The gather's output starts dense, so
    // even the first `mxv` writes into its store rather than allocating
    // value and presence buffers of its own.
    let mut contrib: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new_dense(n, 0.0);
    let mut next: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // Pass 1: contrib = pr .* (1/deg)
        ops::ewise_mult(&mut contrib, Times, &pr, &inv_deg, rt)?;
        // Pass 2: incoming = Aᵀ · contrib (pull along in-edges)
        gather(&mut incoming, &at, &contrib, rt)?;
        // Pass 3: damp
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // Pass 4: pr = base + damped incoming
        ops::ewise_add(&mut next, Plus, &base, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

/// Personalized PageRank seeded at one vertex: the same four bulk passes
/// per round as [`pagerank`], but the teleport vector is
/// `(1-d) · e_seed` instead of uniform, so rank mass radiates from the
/// seed. After `iters` rounds the iterate is the truncated series
/// `Σ_{t=0..iters} d^t (Mᵀ)^t b` with `b = (1-d)·e_seed` — the quantity
/// the batched multi-seed engine (`crate::batch::batched_ppr`) computes
/// per column.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls (only possible if
/// `seed` is out of range, or under a memory budget / fault plan).
pub fn ppr<R: Runtime>(
    g: &CsrGraph,
    seed: graph::NodeId,
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = g.num_nodes();
    let a: Matrix<f64> = Matrix::from_graph(g, |_| 1.0);
    let inv_deg = inv_degree(g)?;
    // The sparse teleport vector: all restart mass sits on the seed.
    let mut base: Vector<f64> = Vector::new(n);
    base.set(seed, 1.0 - DAMPING)?;
    let mut pr = base.clone();

    // Hoisted round temporaries (see `pagerank`): each pass fully
    // overwrites its output, so warm rounds reuse their stores.
    let mut contrib: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new(n);
    let mut next: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // Pass 1: contrib = pr .* (1/deg)
        ops::ewise_mult(&mut contrib, Times, &pr, &inv_deg, rt)?;
        // Pass 2: incoming = contribᵀ · A (push along out-edges)
        ops::vxm(
            &mut incoming,
            None::<&Vector<bool>>,
            PlusTimes,
            &contrib,
            &a,
            &Descriptor::new().with_replace(true),
            rt,
        )?;
        // Pass 3: damp
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // Pass 4: pr = base + damped incoming
        ops::ewise_add(&mut next, Plus, &base, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

/// Residual-based pagerank (`pr-gb-res`): identical math, carrying the
/// per-round residual explicitly like the Lonestar implementation. Takes
/// the in-adjacency and out-degrees like [`pagerank`].
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] when `out_degrees` does not
/// have one entry per vertex; propagates [`GrbError`] from the GraphBLAS
/// calls.
pub fn pagerank_residual<R: Runtime>(
    gt: &CsrGraph,
    out_degrees: &[u32],
    iters: u32,
    rt: R,
) -> Result<Vec<f64>, GrbError> {
    let n = gt.num_nodes();
    let inv_deg = inv_out_degrees(n, out_degrees)?;
    let at: Matrix<f64> = Matrix::from_graph(gt, |_| 1.0);
    let mut pr = Vector::new_dense(n, (1.0 - DAMPING) / n as f64);
    let mut residual = pr.clone();

    // Hoisted round temporaries (see `pagerank`): each pass fully
    // overwrites its output, so warm rounds reuse the dense stores.
    let mut scaled: Vector<f64> = Vector::new(n);
    let mut incoming: Vector<f64> = Vector::new_dense(n, 0.0);
    let mut next_pr: Vector<f64> = Vector::new(n);
    for _ in 0..iters {
        // API call 1 on the residual: scale by the out-degree reciprocal.
        ops::ewise_mult(&mut scaled, Times, &residual, &inv_deg, rt)?;
        // Propagate along in-edges.
        gather(&mut incoming, &at, &scaled, rt)?;
        ops::apply_inplace(&mut incoming, |x| DAMPING * x, rt);
        // API call 2 on the residual: fold the new residual into the rank.
        ops::ewise_add(&mut next_pr, Plus, &pr, &incoming, rt)?;
        std::mem::swap(&mut pr, &mut next_pr);
        std::mem::swap(&mut residual, &mut incoming);
    }

    Ok((0..n as u32).map(|i| pr.get(i).unwrap_or(0.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;
    use graphblas::{GaloisRuntime, StaticRuntime};

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// `g`'s in-adjacency and out-degrees, the inputs [`pagerank`] takes.
    fn in_adjacency(g: &CsrGraph) -> (CsrGraph, Vec<u32>) {
        let deg = (0..g.num_nodes() as u32).map(|v| g.out_degree(v) as u32).collect();
        (graph::transform::transpose(g), deg)
    }

    fn pagerank_of<R: Runtime>(g: &CsrGraph, iters: u32, rt: R) -> Vec<f64> {
        let (gt, deg) = in_adjacency(g);
        pagerank(&gt, &deg, iters, rt).unwrap()
    }

    #[test]
    fn uniform_cycle_has_uniform_rank() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank_of(&g, 10, GaloisRuntime);
        // On a cycle the iterate stays uniform; after t rounds the value is
        // the truncated geometric series (1 - d^(t+1)) / n.
        let expected = (1.0 - DAMPING.powi(11)) / 4.0;
        assert!(close(&pr, &[expected; 4], 1e-12), "{pr:?}");
        // And it converges to 1/n with more rounds.
        let pr200 = pagerank_of(&g, 200, GaloisRuntime);
        assert!(close(&pr200, &[0.25; 4], 1e-9), "{pr200:?}");
    }

    #[test]
    fn sink_like_vertex_accumulates_rank() {
        // star into vertex 3
        let g = from_edges(4, [(0, 3), (1, 3), (2, 3), (3, 0)]);
        let pr = pagerank_of(&g, 20, GaloisRuntime);
        assert!(pr[3] > pr[0] && pr[3] > pr[1] && pr[3] > pr[2], "{pr:?}");
    }

    #[test]
    fn residual_variant_matches_topology_variant() {
        let g = graph::gen::rmat(7, 8, graph::gen::RmatParams::default(), 3);
        let a = pagerank_of(&g, 10, GaloisRuntime);
        let (gt, deg) = in_adjacency(&g);
        let b = pagerank_residual(&gt, &deg, 10, GaloisRuntime).unwrap();
        assert!(close(&a, &b, 1e-12), "residual formulation is exact");
    }

    #[test]
    fn backends_agree() {
        let g = graph::gen::web_crawl(2, 30, 1);
        let ss = pagerank_of(&g, 10, StaticRuntime);
        let gb = pagerank_of(&g, 10, GaloisRuntime);
        assert!(close(&ss, &gb, 1e-12));
    }

    #[test]
    fn ppr_mass_decays_along_a_path() {
        // One out-edge per vertex: pr[i] = (1-d) * d^i after >= i rounds.
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let pr = ppr(&g, 0, 10, GaloisRuntime).unwrap();
        let expect: Vec<f64> = (0..4).map(|i| 0.15 * DAMPING.powi(i)).collect();
        assert!(close(&pr, &expect, 1e-12), "{pr:?}");
    }

    #[test]
    fn ppr_seed_zero_rounds_is_the_teleport_vector() {
        let g = from_edges(3, [(0, 1), (1, 2)]);
        let pr = ppr(&g, 1, 0, GaloisRuntime).unwrap();
        assert!(close(&pr, &[0.0, 0.15, 0.0], 1e-15), "{pr:?}");
    }

    #[test]
    fn ppr_backends_agree_bitwise() {
        let g = graph::gen::web_crawl(2, 30, 1);
        let ss = ppr(&g, 5, 10, StaticRuntime).unwrap();
        let gb = ppr(&g, 5, 10, GaloisRuntime).unwrap();
        assert_eq!(ss, gb, "per-lane execution is deterministic");
    }

    #[test]
    fn short_out_degrees_are_a_dimension_mismatch() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (gt, deg) = in_adjacency(&g);
        let short = &deg[..3];
        for r in [
            pagerank(&gt, short, 10, GaloisRuntime),
            pagerank_residual(&gt, short, 10, GaloisRuntime),
        ] {
            assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })), "{r:?}");
        }
    }

    #[test]
    fn ranks_sum_to_at_most_one() {
        // (dangling mass leaks, so the sum is <= 1)
        let g = from_edges(5, [(0, 1), (1, 2), (3, 2)]);
        let pr = pagerank_of(&g, 10, GaloisRuntime);
        let total: f64 = pr.iter().sum();
        assert!(total <= 1.0 + 1e-9 && total > 0.2, "total {total}");
    }
}
