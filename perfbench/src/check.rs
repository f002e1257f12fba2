//! Output checks.  Every served response passes through [`check`]; a
//! response that fails one counts as a failed request.

use engine::json::Json;

/// Largest accepted `solve_error` of a numeric report and `max_residual` of
/// a `/solve`.
pub const TOLERANCE: f64 = 1e-6;

/// The values of a response that the benchmark checks, sums and compares
/// against the traced replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    pub solver_peak: Option<u64>,
    pub io_volume: Option<u64>,
    pub divisible_bound: Option<u64>,
    pub factor_nnz: Option<u64>,
    pub numeric_peak: Option<u64>,
}

/// The cold report of a working-set entry, which its hot responses must
/// repeat.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The report body up to its `timings` block.
    untimed: String,
    identity: Json,
    pub observed: Observed,
}

impl Reference {
    /// Check a cold report and keep it as the reference of its entry.
    pub fn from_cold_report(body: &str) -> Result<Reference, String> {
        let observed = check_report(body)?;
        let identity = server::client::report_identity(body)
            .ok_or_else(|| "report is not a JSON object".to_string())?;
        Ok(Reference {
            untimed: untimed(body).to_string(),
            identity,
            observed,
        })
    }
}

/// Check one response.  `reference` is the cold report of the working-set
/// entry a hot request names (`None` for cold requests).
pub fn check(
    path: &str,
    status: u16,
    body: &str,
    reference: Option<&Reference>,
) -> Result<Observed, String> {
    if !(200..300).contains(&status) {
        return Err(format!("{path} answered {status}"));
    }
    let observed = match (path, reference) {
        ("/report", None) => check_report(body)?,
        ("/report", Some(reference)) => {
            // Fast path: the body is byte-identical up to its timings.  The
            // full identity comparison runs only when it is not.
            if untimed(body) != reference.untimed
                && server::client::report_identity(body).as_ref() != Some(&reference.identity)
            {
                return Err("hot report differs from its cold report".to_string());
            }
            reference.observed.clone()
        }
        ("/schedule", _) => check_schedule(&parse(body)?)?,
        ("/solve", _) => check_solve(&parse(body)?)?,
        _ => return Err(format!("unexpected path {path}")),
    };
    if let Some(reference) = reference {
        let expected = &reference.observed;
        let same = |got: Option<u64>, want: Option<u64>| got.is_none() || got == want;
        if !same(observed.solver_peak, expected.solver_peak)
            || !same(observed.io_volume, expected.io_volume)
            || !same(observed.factor_nnz, expected.factor_nnz)
        {
            return Err(format!(
                "{path} reports {observed:?}, its cold report {expected:?}"
            ));
        }
    }
    Ok(observed)
}

fn parse(body: &str) -> Result<Json, String> {
    Json::parse(body).map_err(|e| format!("unparsable body: {e}"))
}

fn field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"{key}\""))
}

fn within_tolerance(json: &Json, key: &str) -> Result<(), String> {
    match json.get(key).and_then(Json::as_f64) {
        Some(value) if value <= TOLERANCE => Ok(()),
        Some(value) => Err(format!("{key} {value:e} exceeds {TOLERANCE:e}")),
        None => Err(format!("missing or non-numeric \"{key}\"")),
    }
}

/// The schedule fields shared by `/report` and `/schedule`, with the MinIO
/// sanity check: no policy writes less than the divisible lower bound.
fn check_schedule(json: &Json) -> Result<Observed, String> {
    let io_volume = field(json, "io_volume")?;
    let divisible_bound = field(json, "divisible_bound")?;
    if io_volume < divisible_bound {
        return Err(format!(
            "io_volume {io_volume} is below the divisible bound {divisible_bound}"
        ));
    }
    Ok(Observed {
        solver_peak: Some(field(json, "solver_peak")?),
        io_volume: Some(io_volume),
        divisible_bound: Some(divisible_bound),
        ..Observed::default()
    })
}

fn check_report(body: &str) -> Result<Observed, String> {
    let json = parse(body)?;
    let mut observed = check_schedule(&json)?;
    if let Some(numeric @ Json::Obj(_)) = json.get("numeric") {
        within_tolerance(numeric, "solve_error")?;
        observed.factor_nnz = Some(field(numeric, "factor_nnz")?);
        observed.numeric_peak = Some(field(numeric, "measured_peak_entries")?);
    }
    Ok(observed)
}

fn check_solve(json: &Json) -> Result<Observed, String> {
    within_tolerance(json, "max_residual")?;
    Ok(Observed {
        factor_nnz: Some(field(json, "factor_nnz")?),
        ..Observed::default()
    })
}

/// A report body up to its wall-clock `timings` block, which is the only
/// part a hot report may change.
fn untimed(body: &str) -> &str {
    body.find("\"timings\"").map_or(body, |at| &body[..at])
}
