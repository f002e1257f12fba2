//! The parallel-execution determinism battery.
//!
//! The contract of the parallel layer is that worker count is a *pure
//! performance knob*: for any problem, the computed factor, the solve
//! residual and the whole report (modulo wall-clock timings and the
//! interleaving-dependent measured peak) are bit-identical for 1, 2, 4 and 8
//! workers — and match the sequential execution path.  The battery also
//! covers the budget ledger's edge cases: a budget smaller than the largest
//! single subtree (or frontal matrix) must degrade to sequential execution,
//! not deadlock.

use engine::prelude::*;
use multifrontal::parallel::{assemble_factor, factor_columns, BudgetLedger};
use multifrontal::{multifrontal_cholesky, ContributionStore, FrontArena, SymbolicStructure};
use sparsemat::gen::{spd_matrix_from_pattern, ProblemKind};
use treemem::partition::{default_node_work, proportional_cut};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn battery_nodes(kind: ProblemKind) -> usize {
    match kind {
        // The 3-D grid rounds to a cube; give it enough for 5³.
        ProblemKind::Grid3d => 125,
        _ => 150,
    }
}

fn numeric_config(kind: ProblemKind) -> EngineConfig {
    EngineConfig::generated(kind, battery_nodes(kind), 11)
        .with_ordering(ordering::OrderingMethod::NestedDissection)
        .with_numeric(true)
}

/// Reports are bit-identical across worker counts (and the residual matches
/// the sequential path bit for bit) for every problem kind.
#[test]
fn reports_are_bit_identical_for_every_worker_count_and_kind() {
    let engine = Engine::new();
    for kind in ProblemKind::ALL {
        let config = numeric_config(kind);
        let plan = engine.plan(&config).unwrap();
        let sequential = plan.schedule(&engine).unwrap().execute(&engine).unwrap();
        assert!(sequential.parallel.is_none());
        let sequential_numeric = sequential.numeric.as_ref().unwrap();
        assert!(
            sequential_numeric.solve_error < 1e-6,
            "{kind:?}: sequential residual {}",
            sequential_numeric.solve_error
        );

        let mut fingerprints = Vec::new();
        for workers in WORKER_COUNTS {
            let parallel = ParallelConfig::with_workers(workers)
                .with_max_tasks(8)
                .with_budget(BudgetShare::MultipleOfSequentialPeak(2.0));
            let report = plan
                .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
                .unwrap()
                .execute(&engine)
                .unwrap();
            let numeric = report.numeric.as_ref().unwrap();
            let parallel_report = report.parallel.as_ref().unwrap();
            assert_eq!(parallel_report.workers, workers, "{kind:?}");
            assert_eq!(
                parallel_report.subtree_count,
                parallel_report.task_seconds.len(),
                "{kind:?}"
            );
            // The residual is a function of the factor alone: bit equality
            // here means the factor did not depend on the worker count.
            assert_eq!(
                numeric.solve_error.to_bits(),
                sequential_numeric.solve_error.to_bits(),
                "{kind:?} at {workers} workers"
            );
            assert_eq!(numeric.factor_nnz, sequential_numeric.factor_nnz);
            fingerprints.push(report.fingerprint());
        }
        for fingerprint in &fingerprints[1..] {
            assert_eq!(fingerprint, &fingerprints[0], "{kind:?}");
        }
    }
}

/// A budget far below the largest single subtree peak (one entry!) must
/// degrade to one-task-at-a-time execution — oversized tasks are admitted
/// alone — and still produce the exact factor, at every worker count.
#[test]
fn undersized_budgets_degrade_to_sequential_instead_of_deadlocking() {
    let engine = Engine::new();
    let config = numeric_config(ProblemKind::Grid2d);
    let plan = engine.plan(&config).unwrap();
    let sequential = plan.schedule(&engine).unwrap().execute(&engine).unwrap();
    let baseline = sequential.numeric.as_ref().unwrap();

    for workers in WORKER_COUNTS {
        let parallel = ParallelConfig::with_workers(workers)
            .with_max_tasks(8)
            .with_budget(BudgetShare::Entries(1));
        let report = plan
            .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
            .unwrap()
            .execute(&engine)
            .unwrap();
        let parallel_report = report.parallel.as_ref().unwrap();
        assert_eq!(parallel_report.budget_entries, Some(1));
        // Every task is oversized, every admission is forced.
        assert_eq!(
            parallel_report.oversized_tasks,
            parallel_report.subtree_count
        );
        assert_eq!(
            parallel_report.forced_admissions,
            parallel_report.subtree_count as u64
        );
        let numeric = report.numeric.as_ref().unwrap();
        assert_eq!(
            numeric.solve_error.to_bits(),
            baseline.solve_error.to_bits()
        );
    }
}

/// A budget exactly at the largest single task peak serializes the big
/// tasks without forcing anything (nothing is oversized).
#[test]
fn tight_budgets_run_without_forced_admissions() {
    let engine = Engine::new();
    let config = numeric_config(ProblemKind::Banded);
    let plan = engine.plan(&config).unwrap();
    // Probe the static peaks with an unbounded run.  A budget of (merge
    // peak + largest task peak) is always sufficient: the reserved side
    // never exceeds the retained blocks (bounded by the merge peak) plus
    // one admitted task, so the gate never has to force anything.
    let probe = plan
        .schedule_with(
            &engine,
            ScheduleSpec::default().parallel(ParallelConfig::with_workers(2).with_max_tasks(8)),
        )
        .unwrap()
        .execute(&engine)
        .unwrap();
    let probe_parallel = probe.parallel.as_ref().unwrap();
    let sufficient = probe_parallel.merge_peak_entries + probe_parallel.max_task_peak_entries;

    for workers in WORKER_COUNTS {
        let parallel = ParallelConfig::with_workers(workers)
            .with_max_tasks(8)
            .with_budget(BudgetShare::Entries(sufficient));
        let report = plan
            .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
            .unwrap()
            .execute(&engine)
            .unwrap();
        let parallel_report = report.parallel.as_ref().unwrap();
        assert_eq!(parallel_report.oversized_tasks, 0);
        assert_eq!(parallel_report.forced_admissions, 0);
        assert!(report.numeric.as_ref().unwrap().solve_error < 1e-6);
    }
}

/// Drive the public multifrontal building blocks from real concurrent
/// threads and compare the factor to the classical sequential factorization
/// entry for entry: subtree scheduling must never change a single bit.
#[test]
fn threaded_subtree_factorization_is_bitwise_equal_to_sequential() {
    let pattern = sparsemat::gen::random_spd_pattern(220, 3.5, 21);
    let matrix = spd_matrix_from_pattern(&pattern, 21);
    let n = matrix.n();
    let structure = SymbolicStructure::from_pattern(&matrix.pattern());
    let children = structure.etree.children();
    let order = symbolic::etree::etree_postorder(&structure.etree);
    let reference = multifrontal_cholesky(&matrix, Some(&order)).unwrap();

    let model = multifrontal::memory::per_column_model(&structure);
    let partition = proportional_cut(&model, 12, &default_node_work(&model));
    let mut task_orders: Vec<Vec<usize>> = vec![Vec::new(); partition.task_count()];
    let mut merge_order = Vec::new();
    for &j in &order {
        match partition.task_of[j] {
            Some(task) => task_orders[task].push(j),
            None => merge_order.push(j),
        }
    }

    for threads in [2usize, 4, 8] {
        let ledger = BudgetLedger::new(None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<std::sync::Mutex<Option<_>>> = task_orders
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut arena = FrontArena::new();
                    loop {
                        let task = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if task >= task_orders.len() {
                            break;
                        }
                        let outcome = factor_columns(
                            &matrix,
                            &structure,
                            &children,
                            &task_orders[task],
                            ContributionStore::new(),
                            &ledger,
                            &mut arena,
                        )
                        .unwrap();
                        *results[task].lock().unwrap() = Some(outcome);
                    }
                });
            }
        });

        let mut merge_blocks = ContributionStore::new();
        let mut parts = Vec::new();
        for slot in results {
            let outcome = slot.into_inner().unwrap().unwrap();
            merge_blocks.absorb(outcome.blocks);
            parts.extend(outcome.columns);
        }
        let merge = factor_columns(
            &matrix,
            &structure,
            &children,
            &merge_order,
            merge_blocks,
            &ledger,
            &mut FrontArena::new(),
        )
        .unwrap();
        parts.extend(merge.columns);
        let factor = assemble_factor(n, parts).unwrap();
        for j in 0..n {
            assert_eq!(factor.columns[j], reference.columns[j]);
            assert_eq!(
                factor.values[j], reference.values[j],
                "column {j} with {threads} threads"
            );
        }
    }
}

/// Satellite regression: the plan cache must never serve a serial plan for
/// a parallel request (the parallel section is part of the effective-config
/// hash, so the two are distinct cache entries).
#[test]
fn plan_cache_distinguishes_serial_and_parallel_requests() {
    let engine = Engine::new();
    let cache = PlanCache::default();
    let serial = numeric_config(ProblemKind::Grid2d);
    let parallel = serial
        .clone()
        .with_parallel(ParallelConfig::with_workers(4).with_max_tasks(8));

    let (serial_plan, hit) = cache.get_or_plan(&engine, &serial).unwrap();
    assert!(!hit);
    // The parallel request must miss: serving the cached serial plan would
    // execute with the wrong parallel section.
    let (parallel_plan, hit) = cache.get_or_plan(&engine, &parallel).unwrap();
    assert!(!hit, "a serial plan was served for a parallel request");
    assert_ne!(serial_plan.config_hash(), parallel_plan.config_hash());

    // Each plan executes with its own parallel section.
    let serial_report = serial_plan
        .schedule(&engine)
        .unwrap()
        .execute(&engine)
        .unwrap();
    assert!(serial_report.parallel.is_none());
    let parallel_report = parallel_plan
        .schedule(&engine)
        .unwrap()
        .execute(&engine)
        .unwrap();
    assert_eq!(parallel_report.parallel.as_ref().unwrap().workers, 4);

    // And the cache now hits each of them independently.
    assert!(cache.get_or_plan(&engine, &serial).unwrap().1);
    assert!(cache.get_or_plan(&engine, &parallel).unwrap().1);
}
