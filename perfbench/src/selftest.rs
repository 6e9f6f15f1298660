//! Drivers that run workloads as child processes of this binary: every
//! workload in turn (`--workload all`), and the self-test that proves
//! the per-layer counters and the serve-mix hit/miss sequence repeat
//! exactly for one seed.

use std::process::Command;

use crate::{Args, WORKLOADS};

/// Runs `--workload <w> --seed --seconds --trace` in a child process
/// and returns its standard output and whether it exited 0.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// Every workload, untraced then traced, each in its own process.
pub fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            println!("=== {w} --trace {}", u8::from(trace));
            let (out, success) = child(w, args.seed, args.seconds, trace)?;
            print!("{out}");
            ok &= success;
        }
    }
    Ok(ok)
}

/// Two traced runs of every workload with the same small seed must
/// print identical counter lines and serve-mix hit/miss sequences.
pub fn run() -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let mut seen = Vec::new();
        for _ in 0..2 {
            let (out, success) = child(w, 1, 1.0, true)?;
            ok &= success;
            let exact: Vec<String> = out
                .lines()
                .filter(|l| l.starts_with("counters over") || l.starts_with("hit/miss"))
                .map(str::to_string)
                .collect();
            if exact.is_empty() {
                println!("self-test {w}: no counter lines in the traced run");
                ok = false;
            }
            seen.push(exact);
        }
        let same = seen[0] == seen[1];
        ok &= same;
        println!(
            "self-test {w}: {}",
            if same {
                "counters repeat exactly"
            } else {
                "COUNTERS DIFFER"
            }
        );
        for line in &seen[0] {
            println!("  {line}");
        }
        if !same {
            for line in &seen[1] {
                println!("  second run: {line}");
            }
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
