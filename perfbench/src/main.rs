//! `perfbench --workload <cold_plan|cold_factor|hot_serve> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a provenance stamp, a human-readable summary and, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`).  Exits 1 when any output check failed and 2, without a
//! result, when the load generator itself fell behind.  With `--trace 1`
//! the spans are also written to `out/` next to this package's manifest.

use std::io::Write;
use std::process::ExitCode;

use perfbench::workload::{Scale, Workload};
use perfbench::{run, Options, RunResult};

fn usage() -> String {
    "usage: perfbench --workload <cold_plan|cold_factor|hot_serve> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(parsed)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{}", usage());
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale: Scale::FULL,
    })
}

/// Where and from what this result was produced.
fn provenance(options: &Options, args: &[String]) -> String {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = std::process::Command::new("git")
        .args(["-C", repo, "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let json = engine::json::escape;
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"host_cores\": {cores}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"mode\": \"{}\", \
         \"command\": \"{}\"}}",
        json(&commit),
        json(env!("PERFBENCH_RUSTC_VERSION")),
        options.workload.name(),
        options.seed,
        options.seconds,
        if options.trace { "traced" } else { "untraced" },
        json(&args.join(" ")),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Keep the spans of a traced run: one line per span, after the stamp.
fn write_spans(options: &Options, stamp: &str, result: &RunResult) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!(
        "{dir}/trace-{}-{}.jsonl",
        options.workload.name(),
        options.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "{stamp}")?;
    for span in &result.spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let request = span.request.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{{\"request\": {request}, \"name\": \"{}\", \"parent\": {parent}, \
             \"start_s\": {}, \"end_s\": {}}}",
            span.name, span.start_s, span.end_s
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(64);
        }
    };
    let stamp = provenance(&options, &args);
    println!("provenance {stamp}");
    let result = match run(options) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("benchmark aborted: {message}");
            return ExitCode::from(70);
        }
    };
    for note in &result.notes {
        println!("{note}");
    }
    if options.trace {
        match write_spans(&options, &stamp, &result) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    for metric in &result.metrics {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(reason) = &result.invalid {
        eprintln!("invalid run, no result: {reason}");
        return ExitCode::from(2);
    }
    println!("{}", result_json(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
