//! The three workloads: which requests each one sends, in which order, and
//! how large its problems are.  Everything here is a pure function of the
//! workload seed, so the same seed always yields the same request sequence.

use engine::{EngineConfig, MemoryBudget};
use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;

/// Solvers, policies and memory fractions the cold workloads draw from.
pub const SOLVERS: [&str; 3] = ["minmem", "liu", "postorder"];
pub const POLICIES: [&str; 3] = ["LSNF", "FirstFit", "GDSF"];
pub const FRACTIONS: [f64; 2] = [0.0, 0.5];

/// Right-hand sides per hot `/solve`.
pub const SOLVE_RHS: usize = 4;

/// Offered rate of `hot_serve`, in requests per second: about a third of
/// the closed-loop capacity of the hot mix over two connections (208 req/s
/// measured on a 2-core x86-64 host), so the server queue stays short.
pub const HOT_RATE: f64 = 70.0;

/// The workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, back-to-back symbolic `/report`s that all miss the plan
    /// cache: ordering dominates.
    ColdPlan,
    /// One client, back-to-back numeric `/report`s that all miss the plan
    /// cache: the numeric factorization dominates.
    ColdFactor,
    /// Seeded Poisson arrivals of hot `/solve`, `/report` and `/schedule`
    /// requests against a primed working set: nothing is planned or
    /// factored in the timed phase.
    HotServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdPlan, Workload::ColdFactor, Workload::HotServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold_plan",
            Workload::ColdFactor => "cold_factor",
            Workload::HotServe => "hot_serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes.  [`Scale::FULL`] is the benchmark; [`Scale::TOY`] keeps
/// the self-test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Unknowns of the grid2d problems (`cold_plan`, hot `/report`).
    pub grid2d_nodes: usize,
    /// Unknowns of the grid3d problems (`cold_factor`, hot `/solve`).
    pub grid3d_nodes: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        grid2d_nodes: 100_000,
        grid3d_nodes: 8_000,
    };
    pub const TOY: Scale = Scale {
        grid2d_nodes: 400,
        grid3d_nodes: 125,
    };
}

/// One request as the benchmark sends it.  Hot requests name an entry of
/// the working set by its index (`slot`).
#[derive(Debug, Clone)]
pub enum Request {
    /// `POST /report`; `slot` is set when the configuration is a working-set
    /// entry (a hot report, or the cold report that primed it).
    Report {
        config: Box<EngineConfig>,
        slot: Option<usize>,
    },
    /// Hot `POST /schedule` of a working-set entry.
    Schedule { slot: usize },
    /// Hot `POST /solve` against the factor of a numeric working-set entry,
    /// with a fresh right-hand-side seed.
    Solve { slot: usize, seed: u64 },
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self {
            Request::Report { .. } => "/report",
            Request::Schedule { .. } => "/schedule",
            Request::Solve { .. } => "/solve",
        }
    }

    /// The configuration the request plans from.
    pub fn config<'a>(&'a self, set: &'a [EngineConfig]) -> &'a EngineConfig {
        match self {
            Request::Report { config, .. } => config,
            Request::Schedule { slot } | Request::Solve { slot, .. } => &set[*slot],
        }
    }

    /// The HTTP body; `hashes[i]` is the config hash the server returned
    /// for working-set entry `i`.
    pub fn body(&self, set: &[EngineConfig], hashes: &[String]) -> String {
        match self {
            Request::Solve { slot, seed } => format!(
                "{{\"config_hash\": \"{}\", \"count\": {SOLVE_RHS}, \"seed\": {seed}}}",
                hashes[*slot]
            ),
            other => other.config(set).to_json(),
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A matrix seed no other request of the run uses, so every cold request
/// misses the plan cache.
fn matrix_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ index as u64).next_u64() >> 1
}

/// Solver, policy and fraction of cold request `index`.  The run's seed
/// picks a starting point in the 18-combination grid and requests walk it
/// in order, so any three consecutive requests use all three solvers: the
/// quality sums over the first three requests do not depend on the seed.
fn combo(seed: u64, index: usize) -> (&'static str, &'static str, f64) {
    let start = Rng::new(seed).below(18);
    let c = (start + index) % 18;
    (SOLVERS[c % 3], POLICIES[(c / 3) % 3], FRACTIONS[c / 9])
}

/// The `index`-th timed request of a cold workload.
pub fn cold_request(workload: Workload, scale: Scale, seed: u64, index: usize) -> Request {
    let (solver, policy, fraction) = combo(seed, index);
    let (kind, nodes, numeric) = match workload {
        Workload::ColdPlan => (ProblemKind::Grid2d, scale.grid2d_nodes, false),
        Workload::ColdFactor => (ProblemKind::Grid3d, scale.grid3d_nodes, true),
        Workload::HotServe => unreachable!("hot_serve has no cold timed requests"),
    };
    let config = EngineConfig::generated(kind, nodes, matrix_seed(seed, index))
        .with_ordering(OrderingMethod::NestedDissection)
        .with_solver(solver)
        .with_policy(policy)
        .with_memory(MemoryBudget::FractionOfPeak(fraction))
        .with_numeric(numeric);
    Request::Report {
        config: Box::new(config),
        slot: None,
    }
}

/// Indices of the numeric and symbolic entries of [`working_set`].
pub const NUMERIC_SLOTS: [usize; 3] = [0, 1, 2];
pub const SYMBOLIC_SLOTS: [usize; 2] = [3, 4];

/// The working set `hot_serve` primes in set-up: numeric reports on three
/// grid3d matrices (one per solver) and symbolic reports on two grid2d
/// matrices.  Solvers are fixed per slot so the quality sums do not depend
/// on the seed; the matrices are fresh per seed.
pub fn working_set(scale: Scale, seed: u64) -> Vec<EngineConfig> {
    let numeric = NUMERIC_SLOTS.map(|slot| {
        EngineConfig::generated(
            ProblemKind::Grid3d,
            scale.grid3d_nodes,
            matrix_seed(seed, slot),
        )
        .with_ordering(OrderingMethod::NestedDissection)
        .with_solver(SOLVERS[slot])
        .with_policy(POLICIES[slot])
        .with_memory(MemoryBudget::FractionOfPeak(0.5))
        .with_numeric(true)
    });
    let symbolic = SYMBOLIC_SLOTS.map(|slot| {
        let (solver, policy) = [("minmem", "LSNF"), ("postorder", "FirstFit")][slot - 3];
        EngineConfig::generated(
            ProblemKind::Grid2d,
            scale.grid2d_nodes,
            matrix_seed(seed, slot),
        )
        .with_ordering(OrderingMethod::NestedDissection)
        .with_solver(solver)
        .with_policy(policy)
        .with_memory(MemoryBudget::FractionOfPeak(0.0))
    });
    numeric.into_iter().chain(symbolic).collect()
}

/// The timed requests of `hot_serve` with their due times (seconds from the
/// start of the timed phase): `round(rate × seconds)` arrivals of a Poisson
/// process conditioned on its count, i.e. sorted uniform times.  The mix is
/// half `/solve`, a third hot `/report`, the rest hot `/schedule`.
pub fn hot_requests(set: &[EngineConfig], seed: u64, seconds: f64) -> Vec<(f64, Request)> {
    let mut rng = Rng::new(seed ^ 0x6a09_e667_f3bc_c908);
    let count = ((HOT_RATE * seconds).round() as usize).max(1);
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|at| {
            let draw = rng.unit();
            let request = if draw < 0.5 {
                Request::Solve {
                    slot: NUMERIC_SLOTS[rng.below(NUMERIC_SLOTS.len())],
                    seed: rng.next_u64() >> 1,
                }
            } else if draw < 0.5 + 1.0 / 3.0 {
                let slot = SYMBOLIC_SLOTS[rng.below(SYMBOLIC_SLOTS.len())];
                Request::Report {
                    config: Box::new(set[slot].clone()),
                    slot: Some(slot),
                }
            } else {
                Request::Schedule {
                    slot: rng.below(set.len()),
                }
            };
            (at, request)
        })
        .collect()
}
