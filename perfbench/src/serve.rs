//! The `service-mix` workload: an in-process `service::Service` serving
//! the rmat22 stand-in at RMAT exponent 15 (32,768 vertices, 524k edges)
//! to `nproc` client connections.
//!
//! Each job takes a few milliseconds, so transport, admission queueing
//! and verification are a visible share of latency, and writes
//! (`Ingest`, `Compact`) compete with reads for the shared pool.
//!
//! * Open loop: requests follow a seeded schedule at [`RATE_RPS`]; a
//!   request's latency runs from its due time, so a stall also charges
//!   the requests queued behind it.
//! * Closed loop: `nproc` clients each send one frame of the same mix
//!   back to back, client `c` starting `c / nproc` of the way into it so
//!   their heavy requests do not start together; `service.sat_rps` is
//!   the rate they complete ok.

use crate::stats::Percentile;
use crate::stats::{geomean, median, percentile};
use crate::study::{layer_pass, ms, region_us, set_up, Built, Tally, Verifier};
use crate::{
    percentile_json, EndToEnd, Metrics, Outcome, PerLayer, HEAVY, PROBLEMS, SETUPS, SYSTEMS,
};
use graph::delta::{EdgeBatch, EdgeUpdate};
use service::protocol::{EdgeOp, IngestRequest, RunRequest, Status};
use service::{Catalog, Client, RetryPolicy, Service, ServiceConfig, ServiceHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use study_core::{delta_edges_from_env, update_batches, Json, PreparedGraph};
use substrate::rng::Rng;

const GRAPH: &str = "service";

/// Offered rate of the open loop, requests per second. Chosen so the
/// current program keeps up on two cores with little queueing: at this
/// rate both connections are mostly idle outside heavy requests.
pub const RATE_RPS: f64 = 4.5;

/// Share of `--seconds` the open loop's schedule spans. The closed loop
/// that follows does a fixed amount of work, one frame per client,
/// which took about a third of 30 seconds on a 2-core host.
const OPEN_SHARE: f64 = 2.0 / 3.0;

/// Untraced repetitions per cell before the traced pass.
const LAYER_REPS: usize = 3;

const SCHEDULE_SEED: u64 = 0x5C4E_D01E;
const UPDATE_SEED: u64 = 0x0DE1_7A00;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A verified bfs/cc/pr/sssp run: (problem index, system index).
    Read(usize, usize),
    /// A verified tc run on a system index.
    Heavy(usize),
    /// Ingest of the n-th update batch.
    Ingest(usize),
    /// Compaction of the overlay into a republished snapshot.
    Compact,
}

/// Requests per frame of the mix: 40 reads, 8 ingests, 1 heavy and 1
/// compact. The composition is fixed, and frame `f` sends its heavy
/// request to system `f mod 3`; the seed rotates which read comes first.
///
/// The write side follows the program's own defaults: each ingest is
/// one update batch of the default streaming size
/// ([`delta_edges_from_env`] with `STUDY_DELTA` unset), and a compaction
/// follows every [`graph::delta::DEFAULT_COMPACT_THRESHOLD`] ingests,
/// where a delta graph with the default threshold compacts by itself
/// (the service leaves compaction to the client). One tc per 40 reads
/// gives the heavy class about half as much server time as the reads of
/// its frame, so neither class hides the other.
pub const FRAME: usize = 50;
const INGEST_SLOTS: [usize; 8] = [3, 9, 15, 21, 28, 34, 40, 46];
const HEAVY_SLOT: usize = 0;
const COMPACT_SLOT: usize = 25;

/// The kinds of `n` consecutive requests starting at frame position
/// `offset`; ingests take batch numbers from `next_batch` in order.
pub fn mix(n: usize, offset: usize, seed: u64, next_batch: &mut usize) -> Vec<Kind> {
    let mut read = (seed % 12) as usize;
    (offset..offset + n)
        .map(|i| {
            let slot = i % FRAME;
            if slot == HEAVY_SLOT {
                Kind::Heavy((i / FRAME) % SYSTEMS.len())
            } else if slot == COMPACT_SLOT {
                Kind::Compact
            } else if INGEST_SLOTS.contains(&slot) {
                *next_batch += 1;
                Kind::Ingest(*next_batch - 1)
            } else {
                read = (read + 1) % 12;
                Kind::Read(read / SYSTEMS.len(), read % SYSTEMS.len())
            }
        })
        .collect()
}

/// Due times of `n` requests at `rate` per second: request `i` is due at
/// `(i + u_i) / rate` with `u_i` uniform in [0, 1) from the seed, so the
/// offered rate is exact and arrivals stay in order.
pub fn schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::seed_from_u64(seed ^ SCHEDULE_SEED);
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + rng.gen_f64()) / rate))
        .collect()
}

/// When one open-loop request was due, sent and answered, measured from
/// the start of the loop, plus when its worker became free to take it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Duration,
    pub free: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency from the due time: includes any wait for a free client.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How long the request waited past its due time before being sent.
    pub fn client_wait(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// How late the generator itself was: the send delay not explained
    /// by waiting for a busy client.
    pub fn gen_late(&self) -> Duration {
        self.sent.saturating_sub(self.due.max(self.free))
    }
}

/// Issues the requests due at `due` (ascending, measured from `start`)
/// from one thread per worker. Each worker takes the next request in
/// order, sleeps until it is due, and calls `issue`; a busy worker
/// delays the requests behind it, and their latencies count that delay.
pub fn open_loop<C, R, F>(
    start: Instant,
    due: &[Duration],
    workers: Vec<C>,
    issue: F,
) -> (Vec<(Timing, R)>, Vec<C>)
where
    C: Send,
    R: Send,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Timing, R)>> = Mutex::new(Vec::with_capacity(due.len()));
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut worker| {
                let (next, results, issue) = (&next, &results, &issue);
                scope.spawn(move || {
                    loop {
                        let free = start.elapsed();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due.len() {
                            break;
                        }
                        let wait = due[i].saturating_sub(start.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let reply = issue(&mut worker, i);
                        let done = start.elapsed();
                        let timing = Timing {
                            due: due[i],
                            free,
                            sent,
                            done,
                        };
                        results
                            .lock()
                            .expect("no worker panics holding the lock")
                            .push((i, timing, reply));
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut results = results
        .into_inner()
        .expect("no worker panics holding the lock");
    results.sort_by_key(|(i, _, _)| *i);
    (
        results.into_iter().map(|(_, t, r)| (t, r)).collect(),
        workers,
    )
}

/// The server's answer to one request, reduced to what the metrics use.
#[derive(Debug)]
struct Reply {
    result: Result<(), String>,
    /// Server-side job wall (runs only).
    wall_ns: u64,
    timeout: bool,
    delta_layers: u32,
    delta_nnz: u64,
}

impl Reply {
    fn failed(error: String) -> Reply {
        Reply {
            result: Err(error),
            wall_ns: 0,
            timeout: false,
            delta_layers: 0,
            delta_nnz: 0,
        }
    }
}

fn ingest_ops(batch: &EdgeBatch) -> Vec<EdgeOp> {
    batch
        .ops()
        .iter()
        .map(|op| match *op {
            EdgeUpdate::Insert { src, dst, weight } => EdgeOp {
                delete: false,
                src,
                dst,
                weight: weight.unwrap_or(1),
            },
            EdgeUpdate::Delete { src, dst } => EdgeOp {
                delete: true,
                src,
                dst,
                weight: 0,
            },
        })
        .collect()
}

fn send(client: &mut Client, kind: Kind, batches: &[EdgeBatch]) -> Reply {
    let run = |client: &mut Client, problem: usize, system: usize| {
        let request = RunRequest {
            graph: GRAPH.to_string(),
            system: SYSTEMS[system],
            problem: PROBLEMS[problem],
            deadline_ms: 0,
            verify: true,
        };
        match client.run(&request) {
            Ok(r) if r.status == Status::Ok && r.verified => Reply {
                result: Ok(()),
                wall_ns: r.wall_ns,
                ..Reply::failed(String::new())
            },
            Ok(r) => Reply {
                timeout: r.status == Status::Timeout,
                wall_ns: r.wall_ns,
                ..Reply::failed(format!(
                    "{} on {}: {} verified={} {}",
                    request.problem,
                    request.system,
                    r.status.name(),
                    r.verified,
                    r.error
                ))
            },
            Err(e) => Reply::failed(format!("{} on {}: {e}", request.problem, request.system)),
        }
    };
    match kind {
        Kind::Read(problem, system) => run(client, problem, system),
        Kind::Heavy(system) => run(client, HEAVY, system),
        Kind::Ingest(n) => {
            let request = IngestRequest {
                graph: GRAPH.to_string(),
                ops: ingest_ops(&batches[n]),
            };
            match client.ingest(&request) {
                Ok(r) if r.status == Status::Ok => Reply {
                    result: Ok(()),
                    delta_layers: r.layers,
                    delta_nnz: r.delta_nnz,
                    ..Reply::failed(String::new())
                },
                Ok(r) => Reply::failed(format!("ingest: {} {}", r.status.name(), r.error)),
                Err(e) => Reply::failed(format!("ingest: {e}")),
            }
        }
        Kind::Compact => match client.compact(GRAPH) {
            Ok(_) => Reply {
                result: Ok(()),
                ..Reply::failed(String::new())
            },
            Err(e) => Reply::failed(format!("compact: {e}")),
        },
    }
}

/// Placeholder for a percentile over no samples (a failed run).
const EMPTY: Percentile = Percentile {
    q: 0.5,
    value: 0.0,
    n: 0,
    met: false,
};

/// Service-side figures (0 on the study workloads).
#[derive(Debug, Clone, Default)]
pub struct ServiceLayers {
    /// Open-loop read latency from due time, median.
    pub read_p50_ms: f64,
    /// Open-loop read latency from due time, 90th percentile (or the
    /// percentile rule's fallback).
    pub read_p90_ms: f64,
    /// Open-loop tc latency from due time, median.
    pub heavy_p50_ms: f64,
    /// Open-loop `Ingest`/`Compact` latency from due time, median.
    pub write_p50_ms: f64,
    /// Requests completed ok per second in the closed loop.
    pub sat_rps: f64,
    pub job_p50_ms: f64,
    pub heavy_job_p50_ms: f64,
    pub overhead_p50_ms: f64,
    pub overhead_p90_ms: f64,
    pub client_wait_p90_ms: f64,
    pub gen_late_ms: f64,
    pub ingest_p50_ms: f64,
    pub compact_p50_ms: f64,
    pub rejected: f64,
    pub retried: f64,
    pub timeouts: f64,
    /// Most delta layers an ingest reply reported.
    pub delta_layers_max: f64,
    /// Most delta entries an ingest reply reported.
    pub delta_nnz_max: f64,
}

impl ServiceLayers {
    pub fn emit(&self, m: &mut Metrics) {
        m.push("service.read_p50_ms", self.read_p50_ms, "ms");
        m.push("service.read_p90_ms", self.read_p90_ms, "ms");
        m.push("service.heavy_p50_ms", self.heavy_p50_ms, "ms");
        m.push("service.write_p50_ms", self.write_p50_ms, "ms");
        m.push("service.sat_rps", self.sat_rps, "1/s");
        m.push("service.job_p50_ms", self.job_p50_ms, "ms");
        m.push("service.heavy_job_p50_ms", self.heavy_job_p50_ms, "ms");
        m.push("service.overhead_p50_ms", self.overhead_p50_ms, "ms");
        m.push("service.overhead_p90_ms", self.overhead_p90_ms, "ms");
        m.push("service.client_wait_p90_ms", self.client_wait_p90_ms, "ms");
        m.push("service.gen_late_ms", self.gen_late_ms, "ms");
        m.push("service.ingest_p50_ms", self.ingest_p50_ms, "ms");
        m.push("service.compact_p50_ms", self.compact_p50_ms, "ms");
        m.push("service.rejected", self.rejected, "count");
        m.push("service.retried", self.retried, "count");
        m.push("service.timeouts", self.timeouts, "count");
        m.push("graph.delta_layers_max", self.delta_layers_max, "count");
        m.push("graph.delta_nnz_max", self.delta_nnz_max, "count");
    }
}

fn build(seed: u64) -> Built {
    let graph = graph::gen::rmat(15, 16, graph::gen::RmatParams::default(), seed)
        .with_random_weights(1_000_000, seed);
    Built {
        source: graph.max_out_degree_node(),
        graph,
        ktruss_k: 7,
        sssp_delta: 1 << 13,
    }
}

fn connect(handle: &ServiceHandle, seed: u64) -> std::io::Result<Client> {
    Client::connect(handle.addr(), RetryPolicy::from_env(), seed)
}

/// Starts a server over `p` and checks that it answers a ping. The
/// pinging connection is closed again, so the measured phases hold at
/// most `nproc` connections.
fn start(p: PreparedGraph, seed: u64) -> Result<ServiceHandle, String> {
    let catalog = Catalog::new();
    catalog.insert(p);
    let handle =
        Service::start(ServiceConfig::from_env(), catalog).map_err(|e| format!("start: {e}"))?;
    let mut client = connect(&handle, seed).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(handle)
}

/// Asks the server to drain over a fresh connection, checks the drain
/// was clean, and returns the requests admission control shed.
fn stop(handle: ServiceHandle, seed: u64) -> Result<u64, String> {
    let mut client = connect(&handle, seed).map_err(|e| format!("connect: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let report = handle.join();
    if !report.drained_clean || report.contained_failures > 0 {
        return Err(format!("unclean drain: {report:?}"));
    }
    Ok(report.rejected)
}

/// Runs the service-mix workload.
pub fn run(seed: u64, seconds: f64, trace: bool, nproc: usize) -> Outcome {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // Set-up: generate, prepare and start a server, SETUPS times; every
    // server but the last is drained again outside the timed window.
    let (mut gen_s, mut prepare_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut server: Option<ServiceHandle> = None;
    let mut batches = Vec::new();
    let (mut nodes, mut edges) = (0, 0);
    let open_n = (RATE_RPS * OPEN_SHARE * seconds).round().max(1.0) as usize;
    let mut next_batch = 0;
    let open_kinds = mix(open_n, 0, seed, &mut next_batch);
    let closed_kinds: Vec<Vec<Kind>> = (0..nproc)
        .map(|c| mix(FRAME, c * FRAME / nproc, seed + c as u64, &mut next_batch))
        .collect();
    for _ in 0..SETUPS {
        if let Some(handle) = server.take() {
            tally.record(stop(handle, seed).map(|_| ()));
        }
        let (p, g, pr) = set_up(GRAPH, || build(seed));
        gen_s.push(g);
        prepare_s.push(pr);
        (nodes, edges) = (p.graph.num_nodes(), p.graph.num_edges());
        batches = update_batches(
            &p.graph,
            next_batch,
            delta_edges_from_env(),
            seed ^ UPDATE_SEED,
        );
        let started = Instant::now();
        match start(p, seed) {
            Ok(s) => server = Some(s),
            Err(e) => {
                tally.record(Err(e));
                break;
            }
        }
        setup_s.push(g + pr + started.elapsed().as_secs_f64());
    }
    let Some(handle) = server else {
        return failed_outcome(tally);
    };

    // Open loop: each of the `nproc` connections takes the next due
    // request, whatever its kind.
    let rss_setup = crate::peak_rss_mb();
    let due = schedule(open_n, RATE_RPS, seed);
    let clients: Vec<Client> = (0..nproc)
        .filter_map(|c| connect(&handle, seed + 1 + c as u64).ok())
        .collect();
    if clients.len() < nproc {
        tally.record(Err("could not connect every client".to_string()));
    }
    let (open, clients) = open_loop(Instant::now(), &due, clients, |c, i| {
        send(c, open_kinds[i], &batches)
    });
    let mut retried: u64 = clients.iter().map(Client::retries_used).sum();
    drop(clients);

    // Closed loop.
    let rss_open = crate::peak_rss_mb();
    let closed_started = Instant::now();
    let closed: Vec<(Vec<Reply>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = closed_kinds
            .iter()
            .enumerate()
            .map(|(c, kinds)| {
                let (handle, batches) = (&handle, &batches);
                scope.spawn(move || match connect(handle, seed + 100 + c as u64) {
                    Ok(mut client) => {
                        let started = Instant::now();
                        let replies: Vec<Reply> = kinds
                            .iter()
                            .map(|&k| send(&mut client, k, batches))
                            .collect();
                        (
                            replies,
                            started.elapsed().as_secs_f64(),
                            client.retries_used(),
                        )
                    }
                    Err(e) => (vec![Reply::failed(format!("connect: {e}"))], 0.0, 0),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (replies, elapsed, r) = h.join().expect("closed-loop client panicked");
                retried += r;
                (replies, elapsed)
            })
            .collect()
    });
    let closed_s = closed_started.elapsed().as_secs_f64();
    let drain = stop(handle, seed);
    let rejected = *drain.as_ref().unwrap_or(&0);
    tally.record(drain.map(|_| ()));

    // Tally and latency samples.
    let (mut read, mut heavy, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let mut job: [[Vec<f64>; 4]; 3] = Default::default();
    let (mut read_wall, mut heavy_wall, mut overhead, mut wait) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ingest_ms, mut compact_ms) = (Vec::new(), Vec::new());
    let (mut gen_late, mut timeouts, mut layers_max, mut nnz_max) = (0.0f64, 0u64, 0u32, 0u64);
    for (&kind, (t, reply)) in open_kinds.iter().zip(&open) {
        let latency = ms(t.latency());
        let round_trip = ms(t.done.saturating_sub(t.sent));
        gen_late = gen_late.max(ms(t.gen_late()));
        timeouts += u64::from(reply.timeout);
        layers_max = layers_max.max(reply.delta_layers);
        nnz_max = nnz_max.max(reply.delta_nnz);
        if reply.result.is_ok() {
            let wall = reply.wall_ns as f64 / 1e6;
            match kind {
                Kind::Read(p, s) => {
                    read.push(latency);
                    job[s][p].push(wall);
                    read_wall.push(wall);
                    overhead.push(round_trip - wall);
                    wait.push(ms(t.client_wait()));
                }
                Kind::Heavy(_) => {
                    heavy.push(latency);
                    heavy_wall.push(wall);
                }
                Kind::Ingest(_) => {
                    write.push(latency);
                    ingest_ms.push(round_trip);
                }
                Kind::Compact => {
                    write.push(latency);
                    compact_ms.push(round_trip);
                }
            }
        }
    }
    for (_, reply) in open {
        tally.record(reply.result);
    }
    // Each client's own completion rate, summed: a client that finishes
    // first does not leave the other's tail diluting the total.
    let mut sat_rps = 0.0;
    for (replies, elapsed) in closed {
        let ok = replies.iter().filter(|r| r.result.is_ok()).count();
        if elapsed > 0.0 {
            sat_rps += ok as f64 / elapsed;
        }
        for reply in replies {
            timeouts += u64::from(reply.timeout);
            tally.record(reply.result);
        }
    }

    let e2e = EndToEnd {
        setup_s: median(&setup_s),
        cell_ms: std::array::from_fn(|s| {
            geomean(&job[s].iter().map(|w| median(w)).collect::<Vec<_>>())
        }),
        // The closed loop's peak depends on which of the two clients'
        // requests happen to overlap (it varied by a third across seeds),
        // so the bounded figure stops at the open loop; the record keeps
        // the whole run's peak.
        peak_rss_mb: rss_open,
    };
    let read_p50 = percentile(&read, 0.5).unwrap_or(EMPTY);
    let read_p90 = percentile(&read, 0.9).unwrap_or(EMPTY);
    let heavy_p50 = percentile(&heavy, 0.5).unwrap_or(EMPTY);
    let write_p50 = percentile(&write, 0.5).unwrap_or(EMPTY);
    let mut layers = PerLayer {
        gen_s: median(&gen_s),
        prepare_s: median(&prepare_s),
        service: ServiceLayers {
            read_p50_ms: read_p50.value,
            read_p90_ms: read_p90.value,
            heavy_p50_ms: heavy_p50.value,
            write_p50_ms: write_p50.value,
            sat_rps,
            job_p50_ms: median(&read_wall),
            heavy_job_p50_ms: median(&heavy_wall),
            overhead_p50_ms: percentile(&overhead, 0.5).map_or(0.0, |p| p.value),
            overhead_p90_ms: percentile(&overhead, 0.9).map_or(0.0, |p| p.value),
            client_wait_p90_ms: percentile(&wait, 0.9).map_or(0.0, |p| p.value),
            gen_late_ms: gen_late,
            ingest_p50_ms: median(&ingest_ms),
            compact_p50_ms: median(&compact_ms),
            rejected: rejected as f64,
            retried: retried as f64,
            timeouts: timeouts as f64,
            delta_layers_max: f64::from(layers_max),
            delta_nnz_max: nnz_max as f64,
        },
        ..PerLayer::default()
    };
    if trace {
        // Cells on the same seeded graph outside the server: untraced
        // repetitions for the per-cell medians, then one traced pass.
        let (p, _, _) = set_up(GRAPH, || build(seed));
        let mut verifier = Verifier::default();
        let mut walls: [[Vec<f64>; 5]; 3] = Default::default();
        for _ in 0..LAYER_REPS {
            for (s, &system) in SYSTEMS.iter().enumerate() {
                for (i, &problem) in PROBLEMS.iter().enumerate() {
                    let started = Instant::now();
                    let result = study_core::try_run(system, problem, &p);
                    walls[s][i].push(ms(started.elapsed()));
                    let result = result.map_err(|e| format!("{problem} on {system}: {e}"));
                    tally.record(result.and_then(|out| verifier.check(&p, problem, &out)));
                }
            }
        }
        layers.cell_ms = std::array::from_fn(|s| std::array::from_fn(|i| median(&walls[s][i])));
        let all: Vec<usize> = (0..PROBLEMS.len()).collect();
        layers.systems = layer_pass(&p, &all, &layers.cell_ms, &mut verifier, &mut tally);
        layers.verify_ms = verifier.medians();
        layers.region_us = region_us();
        problems.extend(crate::layers::validate(&layers.systems));
    }
    problems.extend(tally.problems);

    let mut record = Json::obj();
    record.push("graph", GRAPH);
    record.push("nodes", nodes);
    record.push("edges", edges);
    record.push("rate_rps", Json::Num(RATE_RPS));
    record.push("open_requests", open_n);
    record.push("closed_clients", nproc);
    record.push("closed_requests_per_client", FRAME);
    record.push("closed_s", Json::Num(closed_s));
    record.push("peak_rss_mb_after_setup", Json::Num(rss_setup));
    record.push("peak_rss_mb_after_open", Json::Num(rss_open));
    record.push("update_batches", batches.len());
    record.push("update_batch_edges", delta_edges_from_env());
    let mut samples = Json::obj();
    for (name, p) in [
        ("service.read_p50_ms", read_p50),
        ("service.read_p90_ms", read_p90),
        ("service.heavy_p50_ms", heavy_p50),
        ("service.write_p50_ms", write_p50),
    ] {
        samples.push(name, percentile_json(&p));
    }
    record.push("percentiles", samples);
    Outcome {
        e2e,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        record,
    }
}

fn failed_outcome(tally: Tally) -> Outcome {
    Outcome {
        e2e: EndToEnd {
            setup_s: 0.0,
            cell_ms: [0.0; 3],
            peak_rss_mb: 0.0,
        },
        layers: PerLayer::default(),
        attempted: tally.attempted.max(1),
        failed: tally.failed.max(1),
        problems: tally.problems,
        record: Json::obj(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_stall_inflates_the_latency_of_the_requests_behind_it() {
        let step = Duration::from_millis(10);
        let stall = Duration::from_millis(120);
        let due: Vec<Duration> = (0..6).map(|i| step * i).collect();
        let (timings, workers) = open_loop(Instant::now(), &due, vec![()], |_, i| {
            if i == 1 {
                std::thread::sleep(stall);
            }
            i
        });
        assert_eq!(workers.len(), 1);
        assert_eq!(
            timings.iter().map(|(_, i)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        // Request 1 was sent no earlier than due and took the stall.
        let (t1, _) = timings[1];
        assert!(t1.done >= t1.due + stall);
        // Every later request waited for the stall to end, and its
        // latency from due time counts that wait.
        for (t, i) in &timings[2..] {
            let stall_end = t1.due + stall;
            assert!(
                t.sent >= stall_end,
                "request {i} sent before the stall ended"
            );
            assert!(t.latency() >= stall_end - t.due, "request {i}: {t:?}");
            assert!(t.client_wait() >= stall_end - t.due);
            // The delay is the busy client's, not the generator's.
            assert!(t.gen_late() < t.client_wait());
        }
    }

    #[test]
    fn schedules_and_mixes_are_seeded_in_order_and_fixed_in_composition() {
        let a = schedule(50, 10.0, 7);
        assert_eq!(a, schedule(50, 10.0, 7));
        assert_ne!(a, schedule(50, 10.0, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[49] < Duration::from_secs(5));

        for seed in [1, 2, 3] {
            let mut batches = 0;
            let kinds = mix(2 * FRAME, 0, seed, &mut batches);
            let count = |f: fn(&Kind) -> bool| kinds.iter().filter(|k| f(k)).count();
            assert_eq!(count(|k| matches!(k, Kind::Read(..))), 80);
            // Heavy requests go to the systems in frame order, whatever
            // the seed, so every seed loads the same systems.
            let heavy: Vec<Kind> = kinds
                .iter()
                .copied()
                .filter(|k| matches!(k, Kind::Heavy(_)))
                .collect();
            assert_eq!(heavy, vec![Kind::Heavy(0), Kind::Heavy(1)]);
            assert_eq!(mix(FRAME, 2 * FRAME, seed, &mut 0)[0], Kind::Heavy(2));
            assert_eq!(count(|k| matches!(k, Kind::Compact)), 2);
            assert_eq!(batches, 16);
            // One compaction per default auto-compaction threshold.
            assert_eq!(INGEST_SLOTS.len(), graph::delta::DEFAULT_COMPACT_THRESHOLD);
            // Reads rotate through every problem × system in turn.
            let reads: Vec<Kind> = kinds
                .iter()
                .copied()
                .filter(|k| matches!(k, Kind::Read(..)))
                .collect();
            for p in 0..4 {
                for s in 0..3 {
                    assert!(reads[..12].contains(&Kind::Read(p, s)));
                }
            }
        }
    }
}
