//! Output checks: a job counts as ok only when it ran clean, passed the
//! acceptance policy, and survived the wire codec byte for byte.

use lti::{frequency_response, linspace, max_rel_error, StateSpace};
use pmtbr_cli::{evaluate_acceptance, wire_to_mat, Verdict};
use serve::{JobRequest, JobResponse, JobResult};

use crate::inputs::OMEGA_MAX;
use crate::report::Report;

/// Checks one response to `job`: a clean, strictly accepted model of
/// at most `max_order` states with finite entries, whose request and
/// response both round-trip through the codec unchanged.
pub fn response(job: &JobRequest, resp: &JobResponse, max_order: u64) -> Result<(), String> {
    let res = match resp {
        JobResponse::Ok(res) => res,
        JobResponse::Err(e) => return Err(format!("job failed: {e}")),
    };
    let acc = evaluate_acceptance(res.pipeline.as_ref(), res.sweep.as_ref(), true, 0);
    if !matches!(acc.verdict, Ok(Verdict::Clean)) || !res.pipeline.as_ref().is_some_and(|p| p.clean)
    {
        return Err(format!("job not clean: {:?} {:?}", acc.verdict, acc.stderr));
    }
    let q = res.a.rows;
    if q == 0 || q as u64 > max_order || res.a.cols != q || res.b.rows != q || res.c.cols != q {
        return Err(format!(
            "reduced model has shape {}x{}",
            res.a.rows, res.a.cols
        ));
    }
    let finite = [&res.a, &res.b, &res.c, &res.d]
        .iter()
        .all(|m| m.bits.iter().all(|&b| f64::from_bits(b).is_finite()));
    if !finite {
        return Err("reduced model has a non-finite entry".into());
    }
    let req_bytes = job.encode();
    if !JobRequest::decode(&req_bytes).is_ok_and(|back| back == *job) {
        return Err("request did not survive the codec".into());
    }
    let bytes = resp.encode();
    match JobResponse::decode(&bytes) {
        Ok(back) if back.encode() == bytes => Ok(()),
        _ => Err("response did not survive the codec".into()),
    }
}

/// Largest relative transfer error of the reduced model in `res`
/// against the full model of `netlist`, on 16 frequencies spread over
/// the band.
pub fn in_band_error(netlist: &str, res: &JobResult) -> Result<f64, String> {
    let full = circuits::parse_netlist(netlist)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    let reduced = StateSpace::new(
        wire_to_mat(&res.a)?,
        wire_to_mat(&res.b)?,
        wire_to_mat(&res.c)?,
        Some(wire_to_mat(&res.d)?),
    )
    .map_err(|e| e.to_string())?;
    let grid = linspace(OMEGA_MAX / 16.0, OMEGA_MAX, 16);
    let h_full = frequency_response(&full, &grid).map_err(|e| e.to_string())?;
    let h_red = frequency_response(&reduced, &grid).map_err(|e| e.to_string())?;
    Ok(max_rel_error(&h_full, &h_red))
}

/// Largest in-band error over the checked jobs; a check that cannot be
/// made is an error of the run.
pub fn worst_in_band(rep: &mut Report, checked: &[(JobRequest, JobResponse)]) -> f64 {
    let mut worst: f64 = 0.0;
    for (job, resp) in checked {
        let JobResponse::Ok(res) = resp else { continue };
        match in_band_error(&job.netlist, res) {
            Ok(e) => worst = worst.max(e),
            Err(e) => rep.error(format!("in-band check: {e}")),
        }
    }
    worst
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM line")?;
    Ok(kb / 1024.0)
}
