//! # bench — experiment harness regenerating the paper's tables and figures
//!
//! Every binary in `src/bin/` regenerates one experimental artifact of the
//! paper (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! recorded results):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `exp_minmem_assembly`  | Table I and Figure 5 |
//! | `exp_runtime`          | Figure 6 |
//! | `exp_minio_heuristics` | Figure 7 |
//! | `exp_minio_traversals` | Figure 8 |
//! | `exp_minmem_random`    | Table II and Figure 9 |
//! | `exp_theorem1`         | Theorem 1 (harpoon towers) and Theorem 2 gadget |
//! | `exp_multifrontal`     | end-to-end multifrontal check (Section II-A) |
//! | `exp_minio_sweep`      | full policies × solvers sweep (`BENCH_minio_sweep.json`) |
//! | `exp_scaling`          | large-`p` scaling benchmark + CI regression gate (`BENCH_scaling.json`) |
//! | `exp_all`              | everything above, with the quick corpus |
//! | `factor_cli`           | one `engine::EngineConfig` end to end, `Report` as JSON |
//!
//! The binaries construct their pipelines through the `engine` facade
//! (prebuilt-tree plans for corpus sweeps, generated-matrix plans for the
//! end-to-end experiments); the library part of the crate holds the shared
//! infrastructure: corpus generation (planned through the engine, replacing
//! the paper's UF-collection data set), timing helpers, report writing and
//! the parallel MinIO sweep engine ([`sweep`], on the
//! [`engine::parallel::par_map`] pool) that crosses {corpus × memory
//! budgets × registered solvers × registered eviction policies}.

pub mod corpus;
pub mod microbench;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod traces;

pub use corpus::{
    corpus_for, default_config, default_corpus, quick_config, quick_corpus, random_corpus,
    scaling_corpus, scaling_corpus_full, scaling_corpus_reduced, Corpus, CorpusTree,
};
pub use report::{write_report, ExperimentArgs, ReportFile};
pub use runner::{
    measurement_registry, memory_sweep, run_with_big_stack, time_it, MeasurementSet,
    SolverMeasurement,
};
pub use sweep::{run_sweep, run_sweep_with, SweepConfig, SweepRecord, SweepReport};
