//! Calibrated benchmark for the PMTBR workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mesh-compress|mesh-sweep|mesh-greedy|serve-mix|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One workload runs per process. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for every metric.

mod cal;
mod check;
mod inputs;
mod layers;
mod mesh;
mod report;
mod selftest;
mod servemix;
mod stats;

use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["mesh-compress", "mesh-sweep", "mesh-greedy", "serve-mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_one(args: &Args) -> Result<bool, String> {
    let rep = match args.workload.as_str() {
        "mesh-compress" => mesh::COMPRESS.run(args.seed, args.seconds, args.trace),
        "mesh-sweep" => mesh::SWEEP.run(args.seed, args.seconds, args.trace),
        "mesh-greedy" => mesh::GREEDY.run(args.seed, args.seconds, args.trace),
        "serve-mix" => servemix::run(args.seed, args.seconds, args.trace),
        w => {
            return Err(format!(
                "unknown workload `{w}` (one of {}, all)",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(rep.print(args.trace))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.self_test {
        selftest::run()
    } else if args.workload == "all" {
        selftest::all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
