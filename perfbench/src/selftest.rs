//! The benchmark's own self-test, at toy problem sizes: every metric that
//! `BENCHMARK.json` lists is emitted with its unit, and tampered outputs
//! trip the checks that guard them.

use engine::json::Json;

use crate::check::{check, Reference};
use crate::workload::{Request, Scale, Workload};
use crate::{run, same_values, serve, Options};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn toy(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::TOY,
    }
}

/// `BENCHMARK.json` lists `cold_plan` and `hot_serve`; `cold_factor` stays
/// runnable by hand (see `README.md`).
#[test]
fn benchmark_json_names_runnable_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["cold_plan", "hot_serve"]);
    assert!(names.iter().all(|name| Workload::from_name(name).is_some()));
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(section);
        for workload in Workload::ALL {
            let result = run(toy(workload, trace)).expect("toy run completes");
            assert_eq!(result.failed, 0, "{workload:?}: {:?}", result.notes);
            assert!(
                result.invalid.is_none(),
                "{workload:?}: {:?}",
                result.invalid
            );
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared, "{workload:?} trace={trace}");
            assert!(result.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn the_traced_replay_reproduces_the_served_values() {
    let result = run(toy(Workload::ColdFactor, true)).expect("toy run completes");
    assert_eq!(result.failed, 0, "{:?}", result.notes);
    assert!(result.spans.iter().any(|s| s.name == "multifrontal.factor"));
    // On hot_serve the factorizations happen in the set-up's priming, whose
    // spans carry no request index.
    let result = run(toy(Workload::HotServe, true)).expect("toy run completes");
    assert_eq!(result.failed, 0, "{:?}", result.notes);
    assert!(result
        .spans
        .iter()
        .any(|s| s.name == "multifrontal.factor" && s.request.is_none()));
    assert!(result
        .spans
        .iter()
        .any(|s| s.name == "multifrontal.solve" && s.request.is_some()));
    let served = crate::check::Observed {
        solver_peak: Some(10),
        io_volume: Some(4),
        factor_nnz: Some(7),
        ..Default::default()
    };
    assert!(same_values(&served, &served));
    for tampered in [
        crate::check::Observed {
            solver_peak: Some(11),
            ..served.clone()
        },
        crate::check::Observed {
            io_volume: Some(5),
            ..served.clone()
        },
        crate::check::Observed {
            factor_nnz: Some(8),
            ..served.clone()
        },
    ] {
        assert!(!same_values(&tampered, &served), "{tampered:?}");
    }
}

#[test]
fn tampered_outputs_trip_their_checks() {
    let set = crate::workload::working_set(Scale::TOY, 3);
    let handle = serve::boot().unwrap();
    let primed = serve::prime(handle.addr(), &set).unwrap();
    let numeric = &primed[0].1;
    let symbolic = &primed[3].1;

    let post = |path: &str, body: &str| {
        let response = server::client::post(handle.addr(), path, body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        response.body
    };

    // A genuine numeric report passes; tampering with it does not.
    let report = post("/report", &set[0].to_json());
    assert!(check("/report", 200, &report, None).is_ok());
    assert!(check("/report", 500, &report, None).is_err());
    let observed = check("/report", 200, &report, None).unwrap();
    let io = observed.io_volume.unwrap();
    let bound = observed.divisible_bound.unwrap();
    let below_bound = report.replace(
        &format!("\"divisible_bound\": {bound}"),
        &format!("\"divisible_bound\": {}", io + 1),
    );
    assert!(check("/report", 200, &below_bound, None).is_err());
    let inexact = report.replacen("\"solve_error\": ", "\"solve_error\": 1e-3, \"was\": ", 1);
    assert!(check("/report", 200, &inexact, None).is_err());

    // A hot report must repeat its cold report.
    let hot = post("/report", &set[3].to_json());
    assert!(check("/report", 200, &hot, Some(symbolic)).is_ok());
    let drifted = hot.replacen("\"solver_peak\": ", "\"solver_peak\": 1", 1);
    assert!(check("/report", 200, &drifted, Some(symbolic)).is_err());
    let cold = Reference::from_cold_report(&hot).unwrap();
    assert!(check("/report", 200, &hot, Some(&cold)).is_ok());

    // A solve must meet the residual tolerance and name the cold factor.
    let hashes: Vec<String> = primed.iter().map(|(hash, _)| hash.clone()).collect();
    let body = Request::Solve { slot: 0, seed: 9 }.body(&set, &hashes);
    let solve = post("/solve", &body);
    assert!(check("/solve", 200, &solve, Some(numeric)).is_ok());
    let residual = solve.replacen("\"max_residual\": ", "\"max_residual\": 1e-3, \"was\": ", 1);
    assert!(check("/solve", 200, &residual, Some(numeric)).is_err());
    let wrong_factor = solve.replacen("\"factor_nnz\": ", "\"factor_nnz\": 9", 1);
    assert!(check("/solve", 200, &wrong_factor, Some(numeric)).is_err());
}
