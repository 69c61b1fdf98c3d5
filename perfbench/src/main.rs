//! Seeded end-to-end and per-layer benchmark of the graph API study.
//!
//! ```text
//! perfbench --workload <powerlaw|road|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures it for about
//! `--seconds` seconds with tracing off (set-up comes before that, and
//! the service's closed loop does a fixed amount of work after its
//! open loop), verifies every output, and
//! prints one JSON result line last. With `--trace 1` it adds one traced
//! pass and prints the per-layer metrics instead of the end-to-end ones.
//! See `README.md` beside this crate for the metrics and workloads.

mod layers;
mod serve;
mod stats;
mod study;

use stats::Percentile;
use std::process::ExitCode;
use study_core::{Json, Problem, System};

// Counting allocator: GraphBLAS op spans report allocation churn only
// when it is installed. Installed in every run, so traced and untraced
// runs execute the same allocator.
#[global_allocator]
static ALLOC: perfmon::alloc::TrackingAllocator = perfmon::alloc::TrackingAllocator;

/// Problems every workload runs, in report order.
pub const PROBLEMS: [Problem; 5] = [
    Problem::Bfs,
    Problem::Cc,
    Problem::Pr,
    Problem::Sssp,
    Problem::Tc,
];

/// Index of tc in [`PROBLEMS`]: the heavy request class.
pub const HEAVY: usize = 4;

/// Systems, in report order.
pub const SYSTEMS: [System; 3] = [System::SuiteSparse, System::GaloisBlas, System::Lonestar];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Metrics by name, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, value, unit) in &self.0 {
            let mut m = Json::obj();
            m.push("value", Json::Num(*value));
            m.push("unit", *unit);
            o.push(name, m);
        }
        o
    }
}

/// The end-to-end figures of one run (meanings per workload in README.md).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Per-system cell time (SS, GB, LS), milliseconds.
    pub cell_ms: [f64; 3],
    /// Peak resident memory (VmHWM) at the end of the measured phase
    /// whose memory use repeats run to run, MiB.
    pub peak_rss_mb: f64,
}

/// Per-layer figures outside the traced spans (0 where a workload does
/// not exercise the layer).
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    /// Median graph generation time, seconds.
    pub gen_s: f64,
    /// Median preparation time, seconds.
    pub prepare_s: f64,
    /// Median untraced cell wall per system and problem, milliseconds.
    pub cell_ms: [[f64; 5]; 3],
    /// Median `study_core::verify` time per problem, milliseconds.
    pub verify_ms: [f64; 5],
    /// Traced layer totals per system.
    pub systems: [layers::SystemLayers; 3],
    /// Median empty `galois_rt::do_all` over `nproc` items, microseconds.
    pub region_us: f64,
    /// Service-side figures (service-mix only).
    pub service: serve::ServiceLayers,
}

impl PerLayer {
    fn emit(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("graph.gen_s", self.gen_s, "s");
        m.push("core.prepare_s", self.prepare_s, "s");
        for (s, sys) in SYSTEMS.iter().enumerate() {
            for (p, problem) in PROBLEMS.iter().enumerate() {
                m.push(
                    format!("core.cell_ms.{}.{}", sys.abbrev(), problem.name()),
                    self.cell_ms[s][p],
                    "ms",
                );
            }
        }
        for (p, problem) in PROBLEMS.iter().enumerate() {
            m.push(
                format!("core.verify_ms.{}", problem.name()),
                self.verify_ms[p],
                "ms",
            );
        }
        layers::emit(&self.systems, &mut m);
        m.push("galois_rt.region_us", self.region_us, "us");
        self.service.emit(&mut m);
        m
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Per-layer figures (traced ones filled only with `--trace 1`).
    pub layers: PerLayer,
    /// Operations attempted (cells, requests, writes).
    pub attempted: u64,
    /// Operations that failed or were not verified.
    pub failed: u64,
    /// Reasons the run is invalid beyond failed operations (unclean
    /// drain, dropped trace events, negative remainders) and the first
    /// few operation failures.
    pub problems: Vec<String>,
    /// Workload-specific sizes for the run record.
    pub record: Json,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Powerlaw,
    Road,
    ServiceMix,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <powerlaw|road|service-mix> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "powerlaw" => Workload::Powerlaw,
                    "road" => Workload::Road,
                    "service-mix" => Workload::ServiceMix,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Environment variables that would move the program off its default
/// configuration (kernel, workspace, order, CSR, thread, fault, cache
/// and service knobs all share these prefixes).
fn configuration_knobs() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STUDY_") || k.starts_with("GALOIS_"))
        .collect();
    set.sort();
    set
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time counters from `/proc/stat` (all CPUs): (steal, total)
/// in clock ticks; zeros when unreadable.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// The checked-out commit, read from `.git` when the run starts inside a
/// git work tree; "unknown" otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// How a reported percentile was taken, for the run record.
pub fn percentile_json(p: &Percentile) -> Json {
    let mut o = Json::obj();
    o.push("q", Json::Num(p.q));
    o.push("samples", p.n);
    o.push("rule_met", p.met);
    o
}

fn end_to_end_metrics(e: &EndToEnd) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", e.setup_s, "s");
    m.push("ss_cell_ms", e.cell_ms[0], "ms");
    m.push("gb_cell_ms", e.cell_ms[1], "ms");
    m.push("ls_cell_ms", e.cell_ms[2], "ms");
    m.push("peak_rss_mb", e.peak_rss_mb, "MB");
    m
}

/// One JSON object on one line (`Json` pretty-prints; strings never hold
/// raw newlines, so dropping the indentation is lossless).
fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = configuration_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with configuration knobs set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    galois_rt::set_threads(nproc);

    let ticks_before = cpu_ticks();
    let outcome = match args.workload {
        Workload::Powerlaw => study::run(&study::POWERLAW, args.seed, args.seconds, args.trace),
        Workload::Road => study::run(&study::ROAD, args.seed, args.seconds, args.trace),
        Workload::ServiceMix => serve::run(args.seed, args.seconds, args.trace, nproc),
    };
    let ticks_after = cpu_ticks();
    // Share of the host's CPU time a hypervisor gave to other guests
    // during the run: a busy neighbour slows every timing.
    let steal_share = (ticks_after.0.saturating_sub(ticks_before.0)) as f64
        / (ticks_after.1.saturating_sub(ticks_before.1)).max(1) as f64;
    let correct = outcome.failed == 0 && outcome.problems.is_empty();

    let mut record = Json::obj();
    record.push(
        "workload",
        match args.workload {
            Workload::Powerlaw => "powerlaw",
            Workload::Road => "road",
            Workload::ServiceMix => "service-mix",
        },
    );
    record.push("seed", args.seed);
    record.push("seconds", Json::Num(args.seconds));
    record.push("trace", args.trace);
    record.push("nproc", nproc);
    record.push("threads", galois_rt::threads());
    record.push("commit", commit());
    record.push("cache_geometry", study_core::cache_geometry_json());
    record.push("cpu_steal_share", Json::Num(steal_share));
    record.push("peak_rss_mb_run", Json::Num(peak_rss_mb()));
    record.push("inputs", outcome.record);
    record.push(
        "error_rate",
        Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
    );
    record.push(
        "problems",
        Json::Arr(
            outcome
                .problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect(),
        ),
    );
    let mut wrapped = Json::obj();
    wrapped.push("record", record);
    println!("{}", one_line(&wrapped));

    let metrics = if args.trace {
        outcome.layers.emit()
    } else {
        end_to_end_metrics(&outcome.e2e)
    };
    let mut result = Json::obj();
    result.push("correct", correct);
    result.push("attempted", outcome.attempted);
    result.push("failed", outcome.failed);
    result.push("metrics", metrics.to_json());
    println!("{}", one_line(&result));
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_malformed_input() {
        let a = parse_args(&strings(&[
            "--workload",
            "road",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Road, 7, 12.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "web"])).is_err());
        assert!(parse_args(&strings(&["--workload", "road", "--seed"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "road",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn result_line_is_a_single_line_object() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        let line = one_line(&m.to_json());
        assert_eq!(line, r#"{"latency_ms": {"value": 1.25,"unit": "ms"}}"#);
    }
}
