//! The study workloads, `powerlaw` and `road`: seeded graphs run through
//! their system × problem cells back to back, a closed loop with one
//! client, until `--seconds` have passed.

use crate::layers::SystemLayers;
use crate::stats::{geomean, median};
use crate::{EndToEnd, Outcome, PerLayer, HEAVY, PROBLEMS, SETUPS, SYSTEMS};
use graph::order::OrderMode;
use graph::{CsrGraph, NodeId};
use std::time::{Duration, Instant};
use study_core::problem::ProblemOutput;
use study_core::{verify, Json, PreparedGraph, Problem};

/// A generated input graph and its study parameters.
pub struct Built {
    /// The weighted input graph.
    pub graph: CsrGraph,
    /// bfs/sssp source.
    pub source: NodeId,
    /// ktruss `k` (carried by the preparation; ktruss is not run).
    pub ktruss_k: u32,
    /// Delta-stepping Δ.
    pub sssp_delta: u64,
}

/// One study workload.
pub struct StudySpec {
    /// Workload and graph name.
    pub name: &'static str,
    /// Passes that also run tc (the first ones; 0 = tc never runs).
    /// tc takes three times as long as the other cells together, so
    /// running it on every pass would leave the others few samples.
    pub tc_passes: usize,
    /// Seeded generator.
    pub build: fn(u64) -> Built,
}

/// rmat22 stand-in: RMAT exponent 16, edge factor 16 (65,536 vertices,
/// about 1.05M edges). Short diameter and skewed degrees: few rounds,
/// large frontiers, time in SpMV, mxm (tc), accumulators and workspaces.
pub const POWERLAW: StudySpec = StudySpec {
    name: "powerlaw",
    tc_passes: 2,
    build: |seed| {
        let graph = graph::gen::rmat(16, 16, graph::gen::RmatParams::default(), seed)
            .with_random_weights(1_000_000, seed);
        Built {
            source: graph.max_out_degree_node(),
            graph,
            ktruss_k: 7,
            sssp_delta: 1 << 13,
        }
    },
};

/// road-USA stand-in at study scale 2: a 593 × 325 weighted grid with
/// sparse shortcuts (192,725 vertices, about 769k edges, bfs depth about
/// 135). Hundreds of rounds with tiny frontiers: per-op fork-join,
/// barriers, ewise/apply glue and worklist scheduling dominate. The grid
/// has no triangles, so tc is left out.
pub const ROAD: StudySpec = StudySpec {
    name: "road",
    tc_passes: 0,
    build: |seed| Built {
        graph: graph::gen::grid_road(593, 325, seed),
        source: 0,
        ktruss_k: 4,
        sssp_delta: 1 << 13,
    },
};

/// Fewest passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Memoized `study_core::verify`: an output identical to one already
/// verified on the same prepared graph is verified by that call.
#[derive(Default)]
pub struct Verifier {
    seen: Vec<(Problem, ProblemOutput)>,
    /// Wall of each actual `verify` call per problem, milliseconds.
    pub verify_ms: [Vec<f64>; 5],
}

impl Verifier {
    /// Verifies one output.
    ///
    /// # Errors
    ///
    /// The verification failure message.
    pub fn check(
        &mut self,
        p: &PreparedGraph,
        problem: Problem,
        out: &ProblemOutput,
    ) -> Result<(), String> {
        if self.seen.iter().any(|(q, o)| *q == problem && o == out) {
            return Ok(());
        }
        let started = Instant::now();
        let verdict = verify::verify(p, problem, out);
        let idx = PROBLEMS
            .iter()
            .position(|&q| q == problem)
            .expect("a study problem");
        self.verify_ms[idx].push(ms(started.elapsed()));
        verdict.map_err(|e| e.message)?;
        // Keep a few outputs per problem (one per system when they are
        // deterministic), so memory does not grow with outputs that
        // differ run to run.
        if self.seen.iter().filter(|(q, _)| *q == problem).count() < SYSTEMS.len() {
            self.seen.push((problem, out.clone()));
        }
        Ok(())
    }

    /// Median verify time per problem.
    pub fn medians(&self) -> [f64; 5] {
        std::array::from_fn(|i| median(&self.verify_ms[i]))
    }
}

/// Operation tallies shared by the workloads.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or not verified.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts as a failure.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One set-up: generates the graph and prepares it in the default
/// (natural) order. Returns the preparation and the seconds spent
/// generating and preparing.
pub fn set_up(name: &str, build: impl FnOnce() -> Built) -> (PreparedGraph, f64, f64) {
    let t0 = Instant::now();
    let b = build();
    let t1 = Instant::now();
    let p = PreparedGraph::from_graph_ordered(
        name,
        b.graph,
        b.source,
        b.ktruss_k,
        b.sssp_delta,
        OrderMode::Natural,
    );
    (p, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
}

/// Runs every system × problem cell of `problems` (indices into
/// [`PROBLEMS`]) once with tracing on, verifying each output, and
/// attributes the traced walls to layers. `untraced_ms` holds the same
/// cells' median untraced walls.
pub fn layer_pass(
    p: &PreparedGraph,
    problems: &[usize],
    untraced_ms: &[[f64; 5]; 3],
    verifier: &mut Verifier,
    tally: &mut Tally,
) -> [SystemLayers; 3] {
    let mut layers: [SystemLayers; 3] = Default::default();
    for (s, &system) in SYSTEMS.iter().enumerate() {
        for &i in problems {
            let problem = PROBLEMS[i];
            let ((result, wall), trace) = perfmon::trace::with_trace(|| {
                let started = Instant::now();
                let r = study_core::try_run(system, problem, p);
                (r, started.elapsed())
            });
            let result = result.map_err(|e| format!("traced {problem} on {system}: {e}"));
            tally.record(result.and_then(|out| verifier.check(p, problem, &out)));
            layers[s].add_cell(wall.as_nanos() as u64, untraced_ms[s][i] * 1e6, &trace);
        }
    }
    layers
}

/// Median wall of an empty parallel region, in microseconds: a
/// `galois_rt::do_all_chunked` over one item per thread (plain `do_all`
/// runs that few items inline), the fork-join cost of one round.
pub fn region_us() -> f64 {
    const REGIONS: usize = 2_000;
    let items = galois_rt::threads();
    let mut us = Vec::with_capacity(REGIONS);
    for _ in 0..REGIONS {
        let started = Instant::now();
        galois_rt::do_all_chunked(0..items, 1, |i| {
            std::hint::black_box(i);
        });
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Runs one study workload.
pub fn run(spec: &StudySpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    // SETUPS set-ups from the same seed, one alive at a time.
    let (mut gen_s, mut prepare_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let (p, g, pr) = set_up(spec.name, || (spec.build)(seed));
        gen_s.push(g);
        prepare_s.push(pr);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS is at least one");
    let run_problems: Vec<usize> = if spec.tc_passes > 0 {
        (0..PROBLEMS.len()).collect()
    } else {
        (0..HEAVY).collect()
    };
    let mut verifier = Verifier::default();
    let mut tally = Tally::default();
    let mut walls: [[Vec<f64>; 5]; 3] = Default::default();

    // Passes until `seconds` have passed. Within a pass the systems take
    // turns on each problem, so a slow stretch of the host falls on all
    // three alike.
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        for &i in &run_problems {
            if i == HEAVY && passes >= spec.tc_passes {
                continue;
            }
            let problem = PROBLEMS[i];
            for (s, &system) in SYSTEMS.iter().enumerate() {
                let started = Instant::now();
                let result = study_core::try_run(system, problem, &p);
                let wall = started.elapsed();
                let checked = match result {
                    Ok(out) => {
                        walls[s][i].push(ms(wall));
                        verifier.check(&p, problem, &out)
                    }
                    Err(e) => Err(format!("{problem} on {system}: {e}")),
                };
                tally.record(checked);
            }
        }
        passes += 1;
    }

    let peak_rss_mb = crate::peak_rss_mb();
    let cell_ms: [[f64; 5]; 3] =
        std::array::from_fn(|s| std::array::from_fn(|i| median(&walls[s][i])));
    let e2e = EndToEnd {
        setup_s: median(
            &gen_s
                .iter()
                .zip(&prepare_s)
                .map(|(g, p)| g + p)
                .collect::<Vec<_>>(),
        ),
        cell_ms: std::array::from_fn(|s| {
            geomean(
                &run_problems
                    .iter()
                    .map(|&i| cell_ms[s][i])
                    .collect::<Vec<_>>(),
            )
        }),
        peak_rss_mb,
    };

    let mut layers = PerLayer {
        gen_s: median(&gen_s),
        prepare_s: median(&prepare_s),
        cell_ms,
        ..PerLayer::default()
    };
    let mut problems = Vec::new();
    if trace {
        layers.systems = layer_pass(&p, &run_problems, &cell_ms, &mut verifier, &mut tally);
        layers.region_us = region_us();
        problems.extend(crate::layers::validate(&layers.systems));
    }
    layers.verify_ms = verifier.medians();
    problems.extend(tally.problems);

    let mut record = Json::obj();
    record.push("graph", spec.name);
    record.push("nodes", p.graph.num_nodes());
    record.push("edges", p.graph.num_edges());
    record.push("source", u64::from(p.source));
    record.push("passes", passes);
    record.push("tc_passes", spec.tc_passes.min(passes));
    record.push("cell_ms", cell_json(&layers.cell_ms));
    Outcome {
        e2e,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        record,
    }
}

/// Per-cell medians keyed `<system>.<problem>`, for the run record.
fn cell_json(cell_ms: &[[f64; 5]; 3]) -> Json {
    let mut o = Json::obj();
    for (s, sys) in SYSTEMS.iter().enumerate() {
        for (i, problem) in PROBLEMS.iter().enumerate() {
            o.push(
                &format!("{}.{}", sys.abbrev(), problem.name()),
                Json::Num(cell_ms[s][i]),
            );
        }
    }
    o
}
