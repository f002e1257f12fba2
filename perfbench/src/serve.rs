//! The served phase: boot the real server in-process with its default
//! configuration and drive it over loopback HTTP, closed loop (cold
//! workloads) or open loop (hot serving).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use engine::json::Json;
use engine::EngineConfig;
use server::{Server, ServerConfig, ServerHandle};

use crate::check::{check, Observed, Reference};
use crate::workload::Request;

/// One served request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status, or 0 when the exchange failed in transport.
    pub status: u16,
    pub response_bytes: usize,
    /// From the due time (open loop) or the send (closed loop) to the
    /// complete response.
    pub latency_s: f64,
    /// From the send to the complete response.
    pub round_trip_s: f64,
    /// How late the generator itself sent the request: time past the due
    /// time, or past the moment a connection became free when that was
    /// later.  Waiting for a free connection is not counted here.
    pub generator_late_s: f64,
    pub config_hash: Option<String>,
    /// The checked values, or why the request failed.
    pub result: Result<Observed, String>,
}

/// Boot the server and wait until it answers `/healthz`.
pub fn boot() -> Result<ServerHandle, String> {
    let handle = Server::spawn(ServerConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let health = server::client::get(handle.addr(), "/healthz").map_err(|e| e.to_string())?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok(handle)
}

/// Send one request and check its response.
fn exchange(
    addr: SocketAddr,
    request: &Request,
    set: &[EngineConfig],
    hashes: &[String],
    reference: Option<&Reference>,
) -> (Outcome, Option<String>) {
    let body = request.body(set, hashes);
    let sent = Instant::now();
    let response = server::client::post(addr, request.path(), &body);
    let round_trip_s = sent.elapsed().as_secs_f64();
    let mut outcome = Outcome {
        status: 0,
        response_bytes: 0,
        latency_s: round_trip_s,
        round_trip_s,
        generator_late_s: 0.0,
        config_hash: None,
        result: Err(String::new()),
    };
    match response {
        Ok(response) => {
            outcome.status = response.status;
            outcome.response_bytes = response.body.len();
            outcome.config_hash = response.header("x-config-hash").map(str::to_string);
            outcome.result = check(request.path(), response.status, &response.body, reference);
            (outcome, Some(response.body))
        }
        Err(e) => {
            outcome.result = Err(e.to_string());
            (outcome, None)
        }
    }
}

/// Send a cold workload's warm-up request; it must pass its checks.
pub fn warm_up(addr: SocketAddr, request: &Request) -> Result<(), String> {
    let (outcome, _) = exchange(addr, request, &[], &[], None);
    outcome
        .result
        .map(|_| ())
        .map_err(|e| format!("warm-up request: {e}"))
}

/// Prime the working set over two connections, largest problems first.
/// Returns each entry's config hash and checked cold report.
pub fn prime(addr: SocketAddr, set: &[EngineConfig]) -> Result<Vec<(String, Reference)>, String> {
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by_key(|&slot| std::cmp::Reverse(set_nodes(&set[slot])));
    let next = AtomicUsize::new(0);
    type Primed = Result<(String, Reference), String>;
    let primed: Mutex<Vec<Option<Primed>>> = Mutex::new(vec![None; set.len()]);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&slot) = order.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let request = Request::Report {
                        config: Box::new(set[slot].clone()),
                        slot: Some(slot),
                    };
                    let (outcome, body) = exchange(addr, &request, set, &[], None);
                    let entry = match (outcome.result, outcome.config_hash, body) {
                        (Ok(_), Some(hash), Some(body)) => {
                            Reference::from_cold_report(&body).map(|reference| (hash, reference))
                        }
                        (Err(e), _, _) => Err(format!("priming slot {slot}: {e}")),
                        _ => Err(format!("priming slot {slot}: no X-Config-Hash")),
                    };
                    primed.lock().expect("priming lock")[slot] = Some(entry);
                }
            });
        }
    });
    primed
        .into_inner()
        .expect("priming lock")
        .into_iter()
        .map(|entry| entry.unwrap_or_else(|| Err("slot never primed".to_string())))
        .collect()
}

fn set_nodes(config: &EngineConfig) -> usize {
    match &config.source {
        engine::ProblemSource::Generated { nodes, .. } => *nodes,
        _ => 0,
    }
}

/// The timed phase of a cold workload: one client sends `next(i)` as soon
/// as request `i - 1` completes, until `seconds` have passed and at least
/// `min_requests` have completed.  `on_complete(i)` runs after each request
/// (used to sample memory at a fixed request count).
pub fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    min_requests: usize,
    next: impl Fn(usize) -> Request,
    mut on_complete: impl FnMut(usize),
) -> (Vec<(Request, Outcome)>, f64) {
    let start = Instant::now();
    let mut served = Vec::new();
    while served.len() < min_requests || start.elapsed().as_secs_f64() < seconds {
        let request = next(served.len());
        let (outcome, _) = exchange(addr, &request, &[], &[], None);
        served.push((request, outcome));
        on_complete(served.len());
    }
    (served, start.elapsed().as_secs_f64())
}

/// The timed phase of `hot_serve`: two client connections send each request
/// at its due time (or as soon as one of them is free, if both are busy).
/// Returns the outcomes in due order and the time from the start of the
/// phase to the last completion.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[(f64, Request)],
    set: &[EngineConfig],
    primed: &[(String, Reference)],
) -> (Vec<Outcome>, f64) {
    let hashes: Vec<String> = primed.iter().map(|(hash, _)| hash.clone()).collect();
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; schedule.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some((due_s, request)) = schedule.get(index) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(*due_s);
                let picked = Instant::now();
                if picked < due {
                    std::thread::sleep(due - picked);
                }
                let sent = Instant::now();
                let slot = match request {
                    Request::Report { slot, .. } => *slot,
                    Request::Schedule { slot } | Request::Solve { slot, .. } => Some(*slot),
                };
                let reference = slot.map(|slot| &primed[slot].1);
                let (mut outcome, _) = exchange(addr, request, set, &hashes, reference);
                outcome.latency_s = (sent - due.min(sent)).as_secs_f64() + outcome.round_trip_s;
                outcome.generator_late_s = (sent - due.max(picked).min(sent)).as_secs_f64();
                outcomes.lock().expect("outcome lock")[index] = Some(outcome);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let outcomes = outcomes
        .into_inner()
        .expect("outcome lock")
        .into_iter()
        .map(|outcome| outcome.expect("every scheduled request ran"))
        .collect();
    (outcomes, elapsed)
}

/// Cache counters from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub factor_hits: u64,
    pub factor_misses: u64,
    pub evictions: u64,
    pub bytes_used: u64,
}

pub fn cache_counters(addr: SocketAddr) -> Result<CacheCounters, String> {
    let response = server::client::get(addr, "/stats").map_err(|e| e.to_string())?;
    let json = Json::parse(&response.body).map_err(|e| format!("/stats: {e}"))?;
    let caches = json.get("caches").ok_or("/stats has no caches section")?;
    let count = |cache: &str, key: &str| -> Result<u64, String> {
        caches
            .get(cache)
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/stats lacks caches.{cache}.{key}"))
    };
    Ok(CacheCounters {
        plan_hits: count("plan", "hits")?,
        plan_misses: count("plan", "misses")?,
        factor_hits: count("factor", "hits")?,
        factor_misses: count("factor", "misses")?,
        evictions: count("plan", "evictions")? + count("factor", "evictions")?,
        bytes_used: count("plan", "bytes_used")? + count("factor", "bytes_used")?,
    })
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
