//! The server-side job handler: from a wire [`serve::JobRequest`] to a
//! wire [`serve::JobResponse`], through the exact code path a local
//! `reduce` takes.
//!
//! `pmtbr-cli serve` injects [`handle_job`] (closed over one shared
//! [`pmtbr::LruCache`]) into [`serve::serve`]'s scheduler. Because the
//! handler calls the same [`crate::Method`] runners as the local
//! command and ships matrices as raw IEEE-754 bits, a submitted job's
//! model is bit-identical to the model the same flags would produce
//! locally — the cache only changes how fast the answer arrives, never
//! which answer.

use numkit::DMat;
use pmtbr::ArtifactCache;
use serve::{JobRequest, JobResponse, JobResult, WireMat};

use crate::{summarize_pipeline, summarize_sweep, ReduceRequest};

/// Converts a dense matrix to its wire form, preserving every bit.
pub fn mat_to_wire(m: &DMat) -> WireMat {
    let mut bits = Vec::with_capacity(m.nrows() * m.ncols());
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            bits.push(m[(i, j)].to_bits());
        }
    }
    WireMat { rows: m.nrows(), cols: m.ncols(), bits }
}

/// Reconstructs a dense matrix from its wire form, preserving every
/// bit.
///
/// # Errors
///
/// Returns a message when the bit count disagrees with the dimensions.
pub fn wire_to_mat(w: &WireMat) -> Result<DMat, String> {
    if w.bits.len() != w.rows * w.cols {
        return Err(format!(
            "matrix claims {}x{} but carries {} entries",
            w.rows,
            w.cols,
            w.bits.len()
        ));
    }
    let mut m = DMat::zeros(w.rows, w.cols);
    for i in 0..w.rows {
        for j in 0..w.cols {
            m[(i, j)] = f64::from_bits(w.bits[i * w.cols + j]);
        }
    }
    Ok(m)
}

/// Builds the local [`ReduceRequest`] a job's flags describe. The fault
/// plan comes from the server's own `PMTBR_FAULT`, read per job, so a
/// daemon started under chaos testing faults every job it runs.
///
/// # Errors
///
/// A malformed `PMTBR_FAULT` spec (the job must not run unfaulted).
fn reduce_request(job: &JobRequest) -> Result<ReduceRequest, String> {
    let mut req = ReduceRequest::new(job.omega_max, job.samples as usize);
    req.tol = job.tol;
    req.order = job.order.map(|o| o as usize);
    if !job.bands.is_empty() {
        req.bands = job.bands.clone();
    }
    req.greedy_tol = job.greedy_tol;
    req.greedy_max_shifts = job.greedy_max_shifts.map(|s| s as usize);
    req.budget.max_lu_factors = job.budget_lu;
    req.budget.max_svd_sweeps = job.budget_svd;
    req.budget.max_sample_bytes = job.budget_bytes;
    req.faults = crate::fault_plan_from_env().map_err(|e| format!("invalid PMTBR_FAULT: {e}"))?;
    Ok(req)
}

/// Runs one job against the shared artifact cache.
///
/// Parse failures, unknown methods, and numerical errors all come back
/// as [`JobResponse::Err`] — a *well-formed* response the client maps
/// to exit 1, exactly as the local command would. When the job asks
/// for a trace, a deterministic (counter-clock) collector is installed
/// around just this job and its JSON-lines serialization rides back in
/// the response.
pub fn handle_job(job: &JobRequest, cache: &dyn ArtifactCache) -> JobResponse {
    let sys = match circuits::parse_netlist(&job.netlist).map_err(|e| e.to_string()).and_then(
        |nl| nl.build().map_err(|e| e.to_string()),
    ) {
        Ok(sys) => sys,
        Err(e) => return JobResponse::Err(format!("netlist: {e}")),
    };
    let Some(method) = crate::find(&job.method) else {
        return JobResponse::Err(format!(
            "unknown --method `{}` ({})",
            job.method,
            crate::method_list()
        ));
    };
    let req = match reduce_request(job) {
        Ok(req) => req,
        Err(e) => return JobResponse::Err(e),
    };
    if job.trace {
        obs::install(obs::ClockKind::Counter);
    }
    let outcome = (method.run)(&sys, &req, cache);
    let trace = if job.trace { obs::drain().map(|t| t.to_jsonl()) } else { None };
    match outcome {
        Err(e) => JobResponse::Err(e),
        Ok(out) => JobResponse::Ok(Box::new(JobResult {
            report_lines: out.report,
            pipeline: out.pipeline.as_ref().map(summarize_pipeline),
            sweep: out.diagnostics.as_ref().map(summarize_sweep),
            a: mat_to_wire(&out.reduced.a),
            b: mat_to_wire(&out.reduced.b),
            c: mat_to_wire(&out.reduced.c),
            d: mat_to_wire(&out.reduced.d),
            trace,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtbr::{LruCache, NullCache};

    fn job() -> JobRequest {
        JobRequest {
            method: "pmtbr".into(),
            netlist: circuits::rc_mesh_netlist(3, 3, &[0, 8], 1.0, 1.0, 2.0),
            omega_max: 20.0,
            bands: vec![],
            samples: 6,
            tol: 1e-8,
            order: Some(4),
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
            budget_lu: None,
            budget_svd: None,
            budget_bytes: None,
            trace: false,
        }
    }

    #[test]
    fn handled_job_matches_local_run_bit_for_bit() {
        let job = job();
        let cache = LruCache::new(16 << 20);
        let JobResponse::Ok(remote) = handle_job(&job, &cache) else {
            panic!("job must succeed");
        };
        // The same flags run locally, straight through the registry.
        let sys = circuits::parse_netlist(&job.netlist).unwrap().build().unwrap();
        let method = crate::find("pmtbr").unwrap();
        let local = (method.run)(&sys, &reduce_request(&job).unwrap(), &NullCache).unwrap();
        assert_eq!(remote.report_lines, local.report);
        for (wire, here) in [
            (&remote.a, &local.reduced.a),
            (&remote.b, &local.reduced.b),
            (&remote.c, &local.reduced.c),
            (&remote.d, &local.reduced.d),
        ] {
            assert_eq!(wire, &mat_to_wire(here), "wire trip must be bit-exact");
            assert!(wire_to_mat(wire).unwrap() == *here);
        }
        assert!(remote.pipeline.is_some() && remote.sweep.is_some());
    }

    #[test]
    fn bad_inputs_are_job_errors_not_panics() {
        let cache = NullCache;
        let mut bad_netlist = job();
        bad_netlist.netlist = "Q1 broken card".into();
        assert!(matches!(handle_job(&bad_netlist, &cache), JobResponse::Err(e) if e.starts_with("netlist:")));
        let mut bad_method = job();
        bad_method.method = "no-such".into();
        assert!(matches!(handle_job(&bad_method, &cache), JobResponse::Err(e) if e.contains("unknown --method")));
        let mut no_order = job();
        no_order.method = "tbr".into();
        no_order.order = None;
        assert!(matches!(handle_job(&no_order, &cache), JobResponse::Err(e) if e.contains("requires --order")));
    }
}
