//! The traced replay.  Each served request is replayed twice in-process:
//! once through `Service::handle_request` of a freshly booted server (the
//! served path without the socket), and once as a *shadow* that calls each
//! layer's public functions directly, in the order the engine calls them,
//! with a span around every call.  The shadow's outputs must equal the
//! served ones exactly, which is what makes its spans a faithful breakdown.

use std::time::Instant;

use engine::{Engine, EngineConfig, ProblemSource};
use multifrontal::memory::{instrumented_factorization_with_structure, per_column_model};
use multifrontal::numeric::SymbolicStructure;
use multifrontal::CholeskyFactor;
use sparsemat::gen::spd_matrix_from_pattern;
use sparsemat::SymmetricCsr;
use symbolic::{amalgamate, column_counts, elimination_tree};
use treemem::{TraversalResult, Tree};

use crate::check::Observed;
use crate::workload::{Request, SOLVE_RHS};

/// One recorded span.  Spans of one replayed request share `request`;
/// spans of the set-up's priming have none.  `parent` indexes the
/// enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: Option<usize>,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
pub struct Tracer {
    base: Instant,
    request: Option<usize>,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            request: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Attribute the following spans to replayed request `request`.
    pub fn begin_request(&mut self, request: usize) {
        self.request = Some(request);
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.open.last().copied(),
            start_s: self.base.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_s = self.base.elapsed().as_secs_f64();
        value
    }
}

/// What the shadow keeps of a planned configuration, so that hot requests
/// against it replay only the work a cache hit does.
pub struct ShadowEntry {
    /// Nonzeros of L from the symbolic column counts.
    pub symbolic_nnz: u64,
    tree: Tree,
    solved: TraversalResult,
    numeric: Option<(SymmetricCsr, CholeskyFactor)>,
}

/// Counters the shadow computes rather than times.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    /// Σ c_j² over the factored columns.
    pub flops: f64,
    /// Bytes a batched solve streams: the factor's values and row indices,
    /// once per sweep.
    pub solve_bytes: f64,
}

fn config_error(e: impl std::fmt::Display) -> String {
    format!("shadow: {e}")
}

/// Replay a cold `/report` as direct layer calls.
pub fn shadow_cold(
    tracer: &mut Tracer,
    engine: &Engine,
    body: &str,
    counts: &mut ShadowCounts,
) -> Result<(Observed, ShadowEntry), String> {
    let config = tracer.span("server.parse", |_| EngineConfig::from_json(body));
    let config = config.map_err(config_error)?;
    let ProblemSource::Generated { kind, nodes, seed } = config.source else {
        return Err("shadow: only generated sources are replayed".to_string());
    };
    let solver = engine
        .solvers()
        .get_or_err(&config.solver)
        .map_err(config_error)?;
    let pattern = tracer.span("sparse.generate", |_| kind.generate(nodes, seed));
    let permuted = tracer.span("ordering.busy", |_| {
        config.ordering.order(&pattern).apply(&pattern)
    });
    let (column_nnz, tree) = tracer.span("symbolic.busy", |_| {
        let etree = elimination_tree(&permuted);
        let counts = column_counts(&permuted, &etree);
        let assembly = amalgamate(&etree, &counts, config.amalgamation);
        (counts.iter().sum::<usize>(), assembly.tree)
    });
    let solved = tracer.span("treemem.solve", |_| solver.solve(&tree));
    let mut entry = ShadowEntry {
        symbolic_nnz: column_nnz as u64,
        tree,
        solved,
        numeric: None,
    };
    let mut observed = shadow_schedule(tracer, engine, &config, &entry, true)?;
    if config.numeric {
        let (matrix, structure, model) = tracer.span("multifrontal.model", |_| {
            let matrix = spd_matrix_from_pattern(&permuted, seed);
            let structure = SymbolicStructure::from_pattern(&matrix.pattern());
            let model = per_column_model(&structure);
            (matrix, structure, model)
        });
        let order = tracer.span("multifrontal.order", |_| {
            solver.solve(&model).traversal.reversed().into_order()
        });
        let stats = tracer.span("multifrontal.factor", |_| {
            instrumented_factorization_with_structure(&matrix, &structure, Some(&order))
        });
        let stats = stats.map_err(|e| format!("shadow factorization: {e:?}"))?;
        counts.flops += structure
            .column_counts()
            .iter()
            .map(|&c| (c as f64) * (c as f64))
            .sum::<f64>();
        // The report's solve_error check: one solve with a known answer.
        let error = tracer.span("multifrontal.check", |_| {
            let expected: Vec<f64> = (0..matrix.n())
                .map(|i| ((i * 7) % 13) as f64 - 6.0)
                .collect();
            let solution = multifrontal::solve(&stats.factor, &matrix.multiply(&expected));
            solution
                .iter()
                .zip(&expected)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        });
        if error > crate::check::TOLERANCE {
            return Err(format!("shadow solve error {error:e}"));
        }
        observed.factor_nnz = Some(stats.factor_nnz as u64);
        observed.numeric_peak = Some(stats.measured_peak_entries as u64);
        entry.numeric = Some((matrix, stats.factor));
    }
    Ok((observed, entry))
}

/// The out-of-core simulation of `config` on a planned entry.  A cold
/// request also computes the divisible lower bound; a hot one finds it
/// cached in the plan, so the shadow skips it too.
fn shadow_schedule(
    tracer: &mut Tracer,
    engine: &Engine,
    config: &EngineConfig,
    entry: &ShadowEntry,
    cold: bool,
) -> Result<Observed, String> {
    let policy = engine
        .policies()
        .get_or_err(&config.policy)
        .map_err(config_error)?;
    let memory = config
        .memory
        .resolve(entry.tree.max_mem_req(), entry.solved.peak);
    let traversal = &entry.solved.traversal;
    let simulated = tracer.span("minio.schedule", |_| {
        let run = minio::schedule_io_with(&entry.tree, traversal, memory, policy)?;
        let bound = if cold {
            Some(minio::divisible_lower_bound(
                &entry.tree,
                traversal,
                memory,
            )?)
        } else {
            None
        };
        Ok::<_, minio::MinIoError>((run.io_volume, bound))
    });
    let (io_volume, divisible_bound) = simulated.map_err(|e| format!("shadow I/O: {e:?}"))?;
    Ok(Observed {
        solver_peak: u64::try_from(entry.solved.peak).ok(),
        io_volume: u64::try_from(io_volume).ok(),
        divisible_bound: divisible_bound.and_then(|bound| u64::try_from(bound).ok()),
        ..Observed::default()
    })
}

/// Replay a hot request against the shadow entry of its working-set slot.
pub fn shadow_hot(
    tracer: &mut Tracer,
    engine: &Engine,
    request: &Request,
    body: &str,
    entry: &ShadowEntry,
    counts: &mut ShadowCounts,
) -> Result<Observed, String> {
    match request {
        Request::Report { .. } | Request::Schedule { .. } => {
            let config = tracer.span("server.parse", |_| EngineConfig::from_json(body));
            shadow_schedule(tracer, engine, &config.map_err(config_error)?, entry, false)
        }
        Request::Solve { seed, .. } => {
            let (matrix, factor) = entry
                .numeric
                .as_ref()
                .ok_or("shadow: /solve against a symbolic entry")?;
            let n = matrix.n();
            let mut batch = generated_rhs(n, SOLVE_RHS, *seed);
            let residual = tracer.span("multifrontal.solve", |_| {
                let rhs = batch.clone();
                factor.solve_batch(&mut batch);
                let mut worst = 0.0f64;
                for (b, x) in rhs.chunks_exact(n).zip(batch.chunks_exact(n)) {
                    for (lhs, want) in matrix.multiply(x).iter().zip(b) {
                        worst = worst.max((lhs - want).abs());
                    }
                }
                worst
            });
            if residual > crate::check::TOLERANCE {
                return Err(format!("shadow residual {residual:e}"));
            }
            let nnz = factor.nnz() as u64;
            counts.solve_bytes += 2.0 * nnz as f64 * 16.0;
            Ok(Observed {
                factor_nnz: Some(nnz),
                ..Observed::default()
            })
        }
    }
}

/// The engine's generated right-hand sides (xorshift64*, column-major),
/// reproduced so the shadow solves the same batch the server did.
fn generated_rhs(n: usize, count: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n * count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}
