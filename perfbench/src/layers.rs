//! Per-layer attribution of traced cells.
//!
//! Each traced cell contributes its wall time and the `elapsed_ns` of the
//! `OpSpan`s and `LoopSpan`s it recorded. The layer a system's algorithm
//! code calls into is GraphBLAS on the matrix API (SS, GB) and the
//! galois-rt runtime on the graph API (LS); the remainder of the traced
//! wall is the algorithm layer's own glue (lagraph or lonestar), reported
//! as unaccounted. Runtime loops issued inside GraphBLAS ops are already
//! part of op time, so on SS and GB they break op time down further and
//! are not added again.

use crate::Metrics;
use perfmon::trace::{Event, KernelChoice, LoopKind, OpKind, Trace};

/// GraphBLAS op groups, in report order.
pub const OP_GROUPS: [&str; 8] = [
    "spmv", "mxm", "ewise", "apply", "assign", "extract", "reduce", "select",
];

/// SpMV kernel choices, in report order.
pub const KERNELS: [&str; 4] = ["push_sparse", "push_dense", "pull", "bitmap"];

/// Runtime loop constructs, in report order.
pub const LOOP_KINDS: [LoopKind; 5] = [
    LoopKind::DoAll,
    LoopKind::DoAllStatic,
    LoopKind::ForEach,
    LoopKind::ForEachOrdered,
    LoopKind::DoAllBalanced,
];

fn op_group(kind: OpKind) -> usize {
    use OpKind::*;
    match kind {
        Vxm | Mxv => 0,
        Mxm => 1,
        EwiseAdd | EwiseMult | EwiseAddMatrix | EwiseMultMatrix => 2,
        Apply | ApplyInplace | ApplyMatrix => 3,
        AssignScalar => 4,
        Extract => 5,
        ReduceVector | ReduceMatrix | ReduceRows => 6,
        SelectVector | SelectMatrix => 7,
    }
}

fn kernel_index(kernel: KernelChoice) -> Option<usize> {
    match kernel {
        KernelChoice::Unspecified => None,
        KernelChoice::PushSparse => Some(0),
        KernelChoice::PushDense => Some(1),
        KernelChoice::Pull => Some(2),
        KernelChoice::Bitmap => Some(3),
    }
}

fn loop_index(kind: LoopKind) -> usize {
    LOOP_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("LOOP_KINDS lists every loop construct")
}

/// Layer totals of one system over the traced cells.
#[derive(Debug, Clone, Default)]
pub struct SystemLayers {
    /// Sum of traced cell walls.
    pub traced_ns: u64,
    /// Sum of the same cells' median untraced walls.
    pub untraced_ns: f64,
    /// GraphBLAS op time per [`OP_GROUPS`] entry.
    pub op_ns: [u64; 8],
    /// SpMV op time per [`KERNELS`] entry.
    pub kernel_ns: [u64; 4],
    /// GraphBLAS calls.
    pub ops: u64,
    /// Bytes of intermediates the ops materialized.
    pub materialized_bytes: u64,
    /// Bytes allocated and freed within ops.
    pub alloc_bytes: u64,
    /// Workspace bytes served from the pool.
    pub ws_reused_bytes: u64,
    /// Workspace bytes freshly allocated.
    pub ws_fresh_bytes: u64,
    /// Runtime loop time per [`LOOP_KINDS`] entry.
    pub loop_ns: [u64; 5],
    /// Runtime loop launches.
    pub loops: u64,
    /// Scheduling rounds summed over loops.
    pub rounds: u64,
    /// Work-list steals.
    pub steals: u64,
    /// Operator applications.
    pub iterations: u64,
    /// Trace events evicted from full rings.
    pub dropped: u64,
}

impl SystemLayers {
    /// Adds one traced cell.
    pub fn add_cell(&mut self, traced_ns: u64, untraced_ns: f64, trace: &Trace) {
        self.traced_ns += traced_ns;
        self.untraced_ns += untraced_ns;
        self.dropped += trace.dropped;
        for event in &trace.events {
            match event {
                Event::Op(op) => {
                    self.ops += 1;
                    self.op_ns[op_group(op.kind)] += op.elapsed_ns;
                    if let Some(k) = kernel_index(op.kernel) {
                        self.kernel_ns[k] += op.elapsed_ns;
                    }
                    self.materialized_bytes += op.materialized_bytes;
                    self.alloc_bytes += op.alloc_bytes;
                    self.ws_reused_bytes += op.ws_reused_bytes;
                    self.ws_fresh_bytes += op.ws_fresh_bytes;
                }
                Event::Loop(l) => {
                    self.loops += 1;
                    self.loop_ns[loop_index(l.kind)] += l.elapsed_ns;
                    self.rounds += l.rounds;
                    self.steals += l.steals;
                    self.iterations += l.iterations;
                }
                Event::Delta(_) => {}
            }
        }
    }

    /// Time the layer below the algorithm code accounts for: op time on
    /// the matrix API, loop time on the graph API.
    pub fn accounted_ns(&self, matrix_api: bool) -> u64 {
        if matrix_api {
            self.op_ns.iter().sum()
        } else {
            self.loop_ns.iter().sum()
        }
    }

    /// Traced wall minus accounted time; negative means the spans claim
    /// more time than the cells took, and the attribution is invalid.
    pub fn unaccounted_ns(&self, matrix_api: bool) -> i64 {
        self.traced_ns as i64 - self.accounted_ns(matrix_api) as i64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Emits the graphblas, lagraph, lonestar, galois_rt and perfmon layer
/// metrics for `[SS, GB, LS]`.
pub fn emit(layers: &[SystemLayers; 3], m: &mut Metrics) {
    const ABBREV: [&str; 3] = ["SS", "GB", "LS"];
    for (s, l) in layers.iter().take(2).enumerate() {
        let sys = ABBREV[s];
        for (g, name) in OP_GROUPS.iter().enumerate() {
            m.push(
                format!("graphblas.{sys}.op_ms.{name}"),
                ms(l.op_ns[g]),
                "ms",
            );
        }
        for (k, name) in KERNELS.iter().enumerate() {
            m.push(
                format!("graphblas.{sys}.kernel_ms.{name}"),
                ms(l.kernel_ns[k]),
                "ms",
            );
        }
        m.push(format!("graphblas.{sys}.ops"), l.ops as f64, "count");
        m.push(
            format!("graphblas.{sys}.materialized_mb"),
            mb(l.materialized_bytes),
            "MB",
        );
        m.push(format!("graphblas.{sys}.alloc_mb"), mb(l.alloc_bytes), "MB");
        let ws_total = l.ws_reused_bytes + l.ws_fresh_bytes;
        let ws_reuse = if ws_total == 0 {
            0.0
        } else {
            l.ws_reused_bytes as f64 / ws_total as f64
        };
        m.push(format!("graphblas.{sys}.ws_reuse"), ws_reuse, "ratio");
        m.push(
            format!("lagraph.{sys}.glue_ms"),
            l.unaccounted_ns(true) as f64 / 1e6,
            "ms",
        );
    }
    m.push(
        "lonestar.glue_ms".to_string(),
        layers[2].unaccounted_ns(false) as f64 / 1e6,
        "ms",
    );
    for (s, l) in layers.iter().enumerate() {
        let sys = ABBREV[s];
        for (k, kind) in LOOP_KINDS.iter().enumerate() {
            m.push(
                format!("galois_rt.{sys}.loop_ms.{}", kind.name()),
                ms(l.loop_ns[k]),
                "ms",
            );
        }
        m.push(format!("galois_rt.{sys}.loops"), l.loops as f64, "count");
        m.push(format!("galois_rt.{sys}.rounds"), l.rounds as f64, "count");
        m.push(format!("galois_rt.{sys}.steals"), l.steals as f64, "count");
        m.push(
            format!("galois_rt.{sys}.iterations"),
            l.iterations as f64,
            "count",
        );
    }
    for (s, l) in layers.iter().enumerate() {
        let overhead = if l.untraced_ns > 0.0 {
            l.traced_ns as f64 / l.untraced_ns - 1.0
        } else {
            0.0
        };
        m.push(
            format!("perfmon.trace_overhead.{}", ABBREV[s]),
            overhead,
            "ratio",
        );
    }
    let dropped: u64 = layers.iter().map(|l| l.dropped).sum();
    m.push("perfmon.dropped".to_string(), dropped as f64, "count");
}

/// Checks the traced pass is a valid attribution: no evicted events and
/// no negative remainder on any system. Returns the reasons it is not.
pub fn validate(layers: &[SystemLayers; 3]) -> Vec<String> {
    let mut problems = Vec::new();
    for (s, l) in layers.iter().enumerate() {
        let matrix_api = s < 2;
        if l.dropped > 0 {
            problems.push(format!("system {s}: {} trace events dropped", l.dropped));
        }
        if l.unaccounted_ns(matrix_api) < 0 {
            problems.push(format!(
                "system {s}: layer times exceed the traced wall by {} ns",
                -l.unaccounted_ns(matrix_api)
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmon::trace::{LoopSpan, MaskMode, OpSpan};

    fn op(kind: OpKind, kernel: KernelChoice, ns: u64) -> Event {
        Event::Op(OpSpan {
            seq: 0,
            backend: "test",
            kind,
            input_nnz: 0,
            output_nnz: 0,
            mask: MaskMode::None,
            mask_complement: false,
            replace: false,
            materialized_bytes: 0,
            kernel,
            accumulator_bytes: 0,
            frontier_degree: 0,
            matrix_nnz: 0,
            mask_admitted: 0,
            ws_reused_bytes: 0,
            ws_fresh_bytes: 0,
            flops: 0,
            chunks: 0,
            alloc_bytes: 0,
            elapsed_ns: ns,
        })
    }

    fn lp(kind: LoopKind, ns: u64) -> Event {
        Event::Loop(LoopSpan {
            seq: 0,
            kind,
            iterations: 1,
            steals: 0,
            rounds: 1,
            bucket_visits: 0,
            threads: 1,
            elapsed_ns: ns,
        })
    }

    fn trace(events: Vec<Event>) -> Trace {
        Trace { events, dropped: 0 }
    }

    #[test]
    fn layer_times_plus_unaccounted_equal_the_traced_wall() {
        let mut gb = SystemLayers::default();
        // One vxm (with its inner loop) and one ewise op, in a 1000 ns cell.
        gb.add_cell(
            1_000,
            900.0,
            &trace(vec![
                lp(LoopKind::DoAll, 300),
                op(OpKind::Vxm, KernelChoice::Pull, 400),
                op(OpKind::EwiseAdd, KernelChoice::Unspecified, 250),
            ]),
        );
        gb.add_cell(
            500,
            450.0,
            &trace(vec![op(OpKind::Mxm, KernelChoice::Unspecified, 100)]),
        );
        assert_eq!(gb.traced_ns, 1_500);
        assert_eq!(gb.accounted_ns(true), 750);
        assert_eq!(
            gb.accounted_ns(true) as i64 + gb.unaccounted_ns(true),
            1_500
        );
        assert_eq!(gb.kernel_ns, [0, 0, 400, 0]);
        assert_eq!(gb.op_ns[0] + gb.op_ns[1] + gb.op_ns[2], 750);

        let mut ls = SystemLayers::default();
        ls.add_cell(
            800,
            700.0,
            &trace(vec![lp(LoopKind::ForEach, 500), lp(LoopKind::DoAll, 200)]),
        );
        assert_eq!(
            ls.accounted_ns(false) as i64 + ls.unaccounted_ns(false),
            800
        );
        assert_eq!(ls.unaccounted_ns(false), 100);

        let layers = [SystemLayers::default(), gb, ls];
        assert!(validate(&layers).is_empty());
        let mut m = Metrics::default();
        emit(&layers, &mut m);
        assert_eq!(m.get("lagraph.GB.glue_ms"), Some(750.0 / 1e6));
        assert_eq!(m.get("lonestar.glue_ms"), Some(100.0 / 1e6));
    }

    #[test]
    fn negative_remainders_and_dropped_events_invalidate_the_pass() {
        let mut ss = SystemLayers::default();
        ss.add_cell(
            100,
            100.0,
            &trace(vec![op(OpKind::Vxm, KernelChoice::PushDense, 150)]),
        );
        let mut ls = SystemLayers::default();
        ls.add_cell(
            100,
            100.0,
            &Trace {
                events: Vec::new(),
                dropped: 3,
            },
        );
        let problems = validate(&[ss, SystemLayers::default(), ls]);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
