//! End-to-end benchmark of the factorization service: the real
//! `server::Server`, booted in-process with its default configuration, is
//! driven over loopback HTTP by three seeded workloads (see `README.md`).
//! With tracing on, a replay of the same requests breaks each one down by
//! layer.

pub mod check;
pub mod replay;
pub mod serve;
pub mod workload;

#[cfg(test)]
mod selftest;

use std::time::Instant;

use engine::{Engine, EngineConfig};

use crate::check::Observed;
use crate::replay::{ShadowCounts, ShadowEntry, Span, Tracer};
use crate::serve::{CacheCounters, Outcome};
use crate::workload::{Request, Scale, Workload};

/// Boots timed per run of a cold workload.  Their median plus one untimed
/// warm-up request is the workload's `setup_s`: a boot alone takes a few
/// hundred microseconds and varies by half between processes.
const SETUP_REPEATS: usize = 101;

/// Boots, each with its priming of the working set, timed per run of
/// `hot_serve`; `setup_s` is their median.  One priming takes several
/// seconds, so a few repeats already fit next to the timed phase.
const HOT_SETUP_REPEATS: usize = 3;

/// Request index of a cold workload's warm-up request, far from the timed
/// ones so its matrix seed is not reused.
const WARM_UP_INDEX: usize = 1 << 20;

/// Leading requests whose reported quality values are summed into
/// `traversal_peak`, `io_volume`, `symbolic.factor_nnz` and
/// `multifrontal.peak_entries`.  Three consecutive cold requests use all
/// three solvers, so the sums do not depend on the seed.
const QUALITY_REQUESTS: usize = 3;

/// Requests an untraced cold run serves at least, however short its
/// `--seconds`.  `peak_rss_mb` is sampled right after them, so the sample
/// does not grow with how many requests a run fits in; `cold_factor`
/// samples once the factor cache (8 slots) has overflowed.
fn min_cold_requests(workload: Workload) -> usize {
    match workload {
        Workload::ColdFactor => 10,
        _ => QUALITY_REQUESTS,
    }
}

/// Mean generator lateness, as a share of the mean inter-arrival gap,
/// beyond which a `hot_serve` run is invalid: the client, not the server,
/// fell behind the schedule.  Single late sends are expected jitter on a
/// host whose cores the server also uses; they are charged to latency,
/// which is timed from the due time.
const GENERATOR_LATE_SHARE: f64 = 0.1;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set when the run measured the generator rather than the server.
    pub invalid: Option<String>,
    pub spans: Vec<Span>,
}

impl RunResult {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A span family as total, per-call and call-count metrics.
    fn timed(
        &mut self,
        names: (&'static str, &'static str, &'static str),
        (total, calls): (f64, usize),
    ) {
        self.metric(names.0, total, "s");
        self.metric(names.1, per_call(total, calls), "s");
        self.metric(names.2, calls as f64, "count");
    }
}

fn per_call(total: f64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total / calls as f64
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, or `None` when fewer than ten samples lie
/// beyond it.
fn tail(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Sum one quality field over a set of checked responses.
fn quality_sum(observed: &[&Observed], field: fn(&Observed) -> Option<u64>) -> f64 {
    observed.iter().filter_map(|o| field(o)).sum::<u64>() as f64
}

/// The served phase of one run, plus what the traced replay needs.
struct Served {
    setup_s: f64,
    set: Vec<EngineConfig>,
    primed: Vec<(String, check::Reference)>,
    requests: Vec<Request>,
    outcomes: Vec<Outcome>,
    elapsed_s: f64,
    rss_mb: f64,
    before: CacheCounters,
    after: CacheCounters,
}

/// Run one workload: set up, serve the timed phase and, when tracing,
/// replay it.
pub fn run(options: Options) -> Result<RunResult, String> {
    // A traced run serves a third of its time and replays what it served,
    // which costs about twice the serving time on the cold workloads.
    let served_seconds = if options.trace {
        options.seconds / 3.0
    } else {
        options.seconds
    };
    let (handle, served) = serve_phase(options, served_seconds)?;
    handle
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;

    let mut result = RunResult::default();
    let mut failed: Vec<bool> = served.outcomes.iter().map(|o| o.result.is_err()).collect();
    for (request, outcome) in served.requests.iter().zip(&served.outcomes) {
        if let Err(e) = &outcome.result {
            result
                .notes
                .push(format!("failed {} {}: {e}", request.path(), outcome.status));
        }
    }
    summarize_served(options, &served, &mut result);
    if options.trace {
        let replay_failures = replay_phase(&served, &mut result)?;
        for (index, reason) in replay_failures {
            failed[index] = true;
            result
                .notes
                .push(format!("replay mismatch on request {index}: {reason}"));
        }
    }
    // Priming (hot) or the warm-up request (cold) is checked too; a failure
    // there aborts the run.
    result.attempted = served.primed.len().max(1) + served.outcomes.len();
    result.failed = failed.iter().filter(|&&f| f).count();
    result.notes.push(format!(
        "fail_share {:.6} ({} of {} timed requests)",
        per_call(result.failed as f64, served.outcomes.len()),
        result.failed,
        served.outcomes.len()
    ));
    Ok(result)
}

fn serve_phase(options: Options, seconds: f64) -> Result<(server::ServerHandle, Served), String> {
    let Options {
        workload,
        seed,
        scale,
        ..
    } = options;
    let mut setups = Vec::new();
    let mut handle = None;
    let mut set = Vec::new();
    let mut primed = Vec::new();
    let repeats = match workload {
        Workload::HotServe => HOT_SETUP_REPEATS,
        _ => SETUP_REPEATS,
    };
    for _ in 0..repeats {
        if let Some(previous) = handle.take() {
            server::ServerHandle::shutdown(previous).map_err(|e| format!("shutdown: {e}"))?;
        }
        let started = Instant::now();
        let booted = serve::boot()?;
        if workload == Workload::HotServe {
            set = workload::working_set(scale, seed);
            primed = serve::prime(booted.addr(), &set)?;
        }
        setups.push(started.elapsed().as_secs_f64());
        handle = Some(booted);
    }
    let handle = handle.expect("at least one boot");
    let addr = handle.addr();
    let mut setup_s = median(&setups);
    if workload != Workload::HotServe {
        let started = Instant::now();
        let request = workload::cold_request(workload, scale, seed, WARM_UP_INDEX);
        serve::warm_up(addr, &request)?;
        setup_s += started.elapsed().as_secs_f64();
    }
    let before = serve::cache_counters(addr)?;
    let mut rss_mb = 0.0;
    let (requests, outcomes, elapsed_s) = match workload {
        Workload::HotServe => {
            let schedule = workload::hot_requests(&set, seed, seconds);
            let (outcomes, elapsed) = serve::open_loop(addr, &schedule, &set, &primed);
            rss_mb = serve::peak_rss_mb();
            let requests = schedule.into_iter().map(|(_, request)| request).collect();
            (requests, outcomes, elapsed)
        }
        _ => {
            let min_requests = if options.trace {
                QUALITY_REQUESTS
            } else {
                min_cold_requests(workload)
            };
            let (served, elapsed) = serve::closed_loop(
                addr,
                seconds,
                min_requests,
                |index| workload::cold_request(workload, scale, seed, index),
                |done| {
                    if done == min_requests {
                        rss_mb = serve::peak_rss_mb();
                    }
                },
            );
            let (requests, outcomes) = served.into_iter().unzip();
            (requests, outcomes, elapsed)
        }
    };
    let after = serve::cache_counters(addr)?;
    Ok((
        handle,
        Served {
            setup_s,
            set,
            primed,
            requests,
            outcomes,
            elapsed_s,
            rss_mb,
            before,
            after,
        },
    ))
}

/// End-to-end metrics of the served phase.  They are the run's result when
/// tracing is off, and printed next to the per-layer table when it is on.
fn summarize_served(options: Options, served: &Served, result: &mut RunResult) {
    let latencies: Vec<f64> = served.outcomes.iter().map(|o| o.latency_s).collect();
    let quality: Vec<&Observed> = match options.workload {
        Workload::HotServe => served.primed.iter().map(|(_, r)| &r.observed).collect(),
        _ => served
            .outcomes
            .iter()
            .take(QUALITY_REQUESTS)
            .filter_map(|o| o.result.as_ref().ok())
            .collect(),
    };
    let metrics = [
        Metric {
            name: "setup_s",
            value: served.setup_s,
            unit: "s",
        },
        Metric {
            name: "latency_p50_s",
            value: median(&latencies),
            unit: "s",
        },
        Metric {
            name: "throughput_rps",
            value: served.outcomes.len() as f64 / served.elapsed_s,
            unit: "req/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: served.rss_mb,
            unit: "MB",
        },
        Metric {
            name: "traversal_peak",
            value: quality_sum(&quality, |o| o.solver_peak),
            unit: "entries",
        },
        Metric {
            name: "io_volume",
            value: quality_sum(&quality, |o| o.io_volume),
            unit: "entries",
        },
    ];
    let mut lines = vec![format!(
        "served {} requests in {:.3} s",
        latencies.len(),
        served.elapsed_s
    )];
    for (label, q) in [("latency_p90_s", 0.90), ("latency_p99_s", 0.99)] {
        match tail(&latencies, q) {
            Some(value) => lines.push(format!("{label} {value} s")),
            None => lines.push(format!(
                "{label} not reported: fewer than ten of {} samples beyond it",
                latencies.len()
            )),
        }
    }
    if quality.iter().any(|o| o.factor_nnz.is_some()) {
        let factor_nnz = quality_sum(&quality, |o| o.factor_nnz);
        let numeric_peak = quality_sum(&quality, |o| o.numeric_peak);
        lines.push(format!("factor_nnz {factor_nnz} count"));
        lines.push(format!("numeric_peak {numeric_peak} entries"));
    }
    if options.workload == Workload::HotServe {
        let late: Vec<f64> = served.outcomes.iter().map(|o| o.generator_late_s).collect();
        let late_mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        let late_max = late.iter().copied().fold(0.0, f64::max);
        let offered = workload::HOT_RATE;
        let limit = GENERATOR_LATE_SHARE / offered;
        let achieved = served.outcomes.len() as f64 / served.elapsed_s;
        lines.push(format!(
            "generator lateness mean {late_mean:.6} s (limit {limit:.6} s), max {late_max:.6} s; \
             achieved {achieved:.2} req/s of {offered} offered"
        ));
        if late_mean > limit {
            result.invalid = Some(format!(
                "the load generator fell behind its own schedule \
                 (mean lateness {late_mean:.6} s > {limit:.6} s)"
            ));
        }
    }
    if options.trace {
        for metric in &metrics {
            lines.push(format!("{} {} {}", metric.name, metric.value, metric.unit));
        }
    } else {
        result.metrics.extend(metrics);
    }
    result
        .notes
        .extend(lines.into_iter().map(|l| format!("untraced {l}")));
}

/// Replay the served requests with spans and emit the per-layer metrics.
/// Returns the requests whose replay did not reproduce the served values.
fn replay_phase(served: &Served, result: &mut RunResult) -> Result<Vec<(usize, String)>, String> {
    let handle = serve::boot()?;
    let service = handle.service();
    let engine = Engine::new();
    let mut mismatches = Vec::new();
    let handle_request = |path: &str, body: &str| {
        service.handle_request(&server::http::Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    };

    // Prime the replay server, then the shadow, with the working set.  The
    // shadow's priming is traced: on `hot_serve` it is the only place the
    // cold layers (ordering, numeric factorization) work, and its cost is
    // part of `setup_s`.  Its spans carry no request index.
    for config in &served.set {
        let response = handle_request("/report", &config.to_json());
        if response.status != 200 {
            return Err(format!("replay priming answered {}", response.status));
        }
    }
    let hashes: Vec<String> = served.primed.iter().map(|(hash, _)| hash.clone()).collect();
    let mut tracer = Tracer::new();
    let mut counts = ShadowCounts::default();
    let entries = served
        .set
        .iter()
        .zip(&served.primed)
        .map(|(config, (_, reference))| {
            let (observed, entry) =
                replay::shadow_cold(&mut tracer, &engine, &config.to_json(), &mut counts)?;
            if !same_values(&observed, &reference.observed) {
                return Err(format!(
                    "shadow priming {observed:?} differs from served {:?}",
                    reference.observed
                ));
            }
            Ok(entry)
        })
        .collect::<Result<Vec<ShadowEntry>, String>>()?;

    let mut rtt_total = 0.0;
    // Quality sums: over the working set on hot_serve, over the first
    // requests on the cold workloads.
    let mut quality_nnz: u64 = entries.iter().map(|e| e.symbolic_nnz).sum();
    let mut quality_peaks: u64 = served
        .primed
        .iter()
        .filter_map(|(_, r)| r.observed.numeric_peak)
        .sum();
    for (index, (request, outcome)) in served.requests.iter().zip(&served.outcomes).enumerate() {
        tracer.begin_request(index);
        let body = request.body(&served.set, &hashes);
        let (response, shadow) = tracer.span("request", |t| {
            let response = t.span("server.handle", |_| handle_request(request.path(), &body));
            let shadow = match request {
                Request::Report { slot: None, .. } => {
                    replay::shadow_cold(t, &engine, &body, &mut counts).map(|(observed, entry)| {
                        if index < QUALITY_REQUESTS {
                            quality_nnz += entry.symbolic_nnz;
                            quality_peaks += observed.numeric_peak.unwrap_or(0);
                        }
                        observed
                    })
                }
                Request::Report {
                    slot: Some(slot), ..
                }
                | Request::Schedule { slot }
                | Request::Solve { slot, .. } => {
                    replay::shadow_hot(t, &engine, request, &body, &entries[*slot], &mut counts)
                }
            };
            (response, shadow)
        });
        rtt_total += outcome.round_trip_s;
        let reproduced = match (&shadow, &outcome.result) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Err(_)) => Ok(()),
            (Ok(shadow), Ok(served)) if same_values(shadow, served) => Ok(()),
            (Ok(shadow), Ok(served)) => Err(format!("shadow {shadow:?}, served {served:?}")),
        };
        if response.status != 200 {
            mismatches.push((
                index,
                format!("replayed handler answered {}", response.status),
            ));
        } else if let Err(reason) = reproduced {
            mismatches.push((index, reason));
        }
    }

    let totals = |name: &str| -> (f64, usize) {
        tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| (t + s.seconds(), c + 1))
    };
    let engine_spans: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.request.is_some())
        .filter(|s| s.name != "request" && !s.name.starts_with("server."))
        .map(Span::seconds)
        .sum();
    let requests = served.outcomes.len();
    let handler_spans = totals("server.handle");
    let (handle_total, _) = handler_spans;
    let wait_total = rtt_total - handle_total;

    result.timed(
        (
            "server.handle_s",
            "server.handle_per_call_s",
            "server.handle_calls",
        ),
        handler_spans,
    );
    result.metric("server.wait_s", wait_total, "s");
    result.metric(
        "server.wait_per_call_s",
        per_call(wait_total, requests),
        "s",
    );
    let handle_self = handle_total - engine_spans;
    result.metric("server.handle_self_s", handle_self, "s");
    result.metric(
        "server.handle_self_per_call_s",
        per_call(handle_self, requests),
        "s",
    );
    result.timed(
        (
            "server.parse_s",
            "server.parse_per_call_s",
            "server.parse_calls",
        ),
        totals("server.parse"),
    );
    let bytes: usize = served.outcomes.iter().map(|o| o.response_bytes).sum();
    result.metric("server.response_bytes", bytes as f64, "bytes");
    result.metric(
        "server.response_bytes_per_call",
        per_call(bytes as f64, requests),
        "bytes",
    );
    let non2xx = served
        .outcomes
        .iter()
        .filter(|o| !(200..300).contains(&o.status))
        .count();
    result.metric("server.non2xx", non2xx as f64, "count");

    let (before, after) = (served.before, served.after);
    let ratio = |hits: u64, misses: u64| per_call(hits as f64, (hits + misses) as usize);
    result.metric(
        "cache.plan_hit_ratio",
        ratio(
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        ),
        "ratio",
    );
    result.metric(
        "cache.factor_hit_ratio",
        ratio(
            after.factor_hits - before.factor_hits,
            after.factor_misses - before.factor_misses,
        ),
        "ratio",
    );
    result.metric(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    result.metric("cache.bytes_used", after.bytes_used as f64, "bytes");

    result.timed(
        (
            "sparse.generate_s",
            "sparse.generate_per_call_s",
            "sparse.calls",
        ),
        totals("sparse.generate"),
    );
    result.timed(
        (
            "ordering.busy_s",
            "ordering.busy_per_call_s",
            "ordering.calls",
        ),
        totals("ordering.busy"),
    );
    result.timed(
        (
            "symbolic.busy_s",
            "symbolic.busy_per_call_s",
            "symbolic.calls",
        ),
        totals("symbolic.busy"),
    );
    result.metric("symbolic.factor_nnz", quality_nnz as f64, "count");
    result.timed(
        (
            "treemem.solve_s",
            "treemem.solve_per_call_s",
            "treemem.calls",
        ),
        totals("treemem.solve"),
    );
    result.timed(
        (
            "minio.schedule_s",
            "minio.schedule_per_call_s",
            "minio.calls",
        ),
        totals("minio.schedule"),
    );
    result.timed(
        (
            "multifrontal.model_s",
            "multifrontal.model_per_call_s",
            "multifrontal.model_calls",
        ),
        totals("multifrontal.model"),
    );
    result.timed(
        (
            "multifrontal.order_s",
            "multifrontal.order_per_call_s",
            "multifrontal.order_calls",
        ),
        totals("multifrontal.order"),
    );
    let factor = totals("multifrontal.factor");
    result.timed(
        (
            "multifrontal.factor_s",
            "multifrontal.factor_per_call_s",
            "multifrontal.factor_calls",
        ),
        factor,
    );
    result.timed(
        (
            "multifrontal.check_s",
            "multifrontal.check_per_call_s",
            "multifrontal.check_calls",
        ),
        totals("multifrontal.check"),
    );
    result.timed(
        (
            "multifrontal.solve_s",
            "multifrontal.solve_per_call_s",
            "multifrontal.solve_calls",
        ),
        totals("multifrontal.solve"),
    );
    result.metric("multifrontal.flops", counts.flops, "flop");
    let gflops = if factor.0 > 0.0 {
        counts.flops / factor.0 / 1e9
    } else {
        0.0
    };
    result.metric("multifrontal.gflops", gflops, "GFLOP/s");
    result.metric("multifrontal.peak_entries", quality_peaks as f64, "entries");
    result.metric("multifrontal.solve_bytes", counts.solve_bytes, "bytes");

    // The request's wall time in the replay is its handler time, measured
    // right before its shadow; what the shadow's spans leave of it is the
    // handler's own work (parse, cache lookup, serialize).
    let coverage = if handle_total > 0.0 {
        engine_spans / handle_total
    } else {
        0.0
    };
    result.metric("trace.coverage", coverage, "ratio");
    let overhead = span_cost_s() * tracer.spans.len() as f64;
    result.metric("trace.overhead_s", overhead, "s");
    result.metric("trace.spans", tracer.spans.len() as f64, "count");
    let served_p50 = median(
        &served
            .outcomes
            .iter()
            .map(|o| o.round_trip_s)
            .collect::<Vec<_>>(),
    );
    let handler_p50 = median(
        &tracer
            .spans
            .iter()
            .filter(|s| s.name == "server.handle")
            .map(Span::seconds)
            .collect::<Vec<_>>(),
    );
    result.notes.push(format!(
        "traced replay of {requests} requests: round trip p50 {served_p50:.6} s served \
         untraced, handler p50 {handler_p50:.6} s replayed in-process; layer spans \
         cover {:.1}% of the handler time, {handle_self:.6} s unattributed; tracing \
         overhead {overhead:.6} s",
        coverage * 100.0,
    ));
    result.spans = tracer.spans;
    drop(handle);
    Ok(mismatches)
}

/// The values the replay must reproduce exactly.
fn same_values(shadow: &Observed, served: &Observed) -> bool {
    let same = |a: Option<u64>, b: Option<u64>| b.is_none() || a == b;
    same(shadow.solver_peak, served.solver_peak)
        && same(shadow.io_volume, served.io_volume)
        && same(shadow.factor_nnz, served.factor_nnz)
}

/// Cost of recording one span, measured on a throwaway tracer.
fn span_cost_s() -> f64 {
    const SAMPLES: usize = 20_000;
    let mut tracer = Tracer::new();
    let started = Instant::now();
    for _ in 0..SAMPLES {
        tracer.span("calibration", |_| std::hint::black_box(0));
    }
    started.elapsed().as_secs_f64() / SAMPLES as f64
}
