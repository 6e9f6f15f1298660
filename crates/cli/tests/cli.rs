//! End-to-end tests driving the `pmtbr-cli` binary.

use std::process::Command;

mod common;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
}

fn write_netlist(name: &str, text: &str) -> std::path::PathBuf {
    common::write_atomic(&common::scratch_dir("pmtbr-cli-tests").join(name), text)
}

const RC_LADDER: &str = "\
* 4-node RC ladder
R1 1 2 100
R2 2 3 100
R3 3 4 100
R4 4 0 100
C1 1 0 1p
C2 2 0 1p
C3 3 0 1p
C4 4 0 1p
PORT 1
.end";

#[test]
fn sweep_emits_csv() {
    let nl = write_netlist("ladder.sp", RC_LADDER);
    let out = bin()
        .args(["sweep", nl.to_str().expect("utf8 path"), "--from", "1e6", "--to", "1e9", "--points", "5"])
        .output()
        .expect("run sweep");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "freq_hz,mag_z11");
    assert_eq!(lines.len(), 6, "header + 5 rows");
    // DC-ish magnitude ≈ 400 Ω (series resistance to ground).
    let first: Vec<&str> = lines[1].split(',').collect();
    let mag: f64 = first[1].parse().expect("numeric magnitude");
    assert!((mag - 400.0).abs() < 5.0, "got {mag}");
}

#[test]
fn reduce_reports_model_and_check() {
    let nl = write_netlist("ladder2.sp", RC_LADDER);
    let out = bin()
        .args([
            "reduce",
            nl.to_str().expect("utf8 path"),
            "--order",
            "2",
            "--band",
            "2e9",
            "--samples",
            "12",
            "--check",
            "15",
        ])
        .output()
        .expect("run reduce");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("method: pmtbr"));
    assert!(text.contains("order: 2"));
    assert!(text.contains("A: # 2x2"));
    let check_line = text
        .lines()
        .find(|l| l.starts_with("check_max_rel_error:"))
        .expect("check line present");
    let err: f64 = check_line.split(':').nth(1).expect("value").trim().parse().expect("numeric");
    assert!(err < 0.05, "order-2 model of a 4-state ladder should check out: {err}");
}

#[test]
fn hsv_lists_both_spectra_for_regular_e() {
    let nl = write_netlist("ladder3.sp", RC_LADDER);
    let out = bin()
        .args(["hsv", nl.to_str().expect("utf8 path"), "--band", "2e9", "--samples", "16"])
        .output()
        .expect("run hsv");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().next().expect("header").contains("exact_hankel"));
}

#[test]
fn parse_errors_are_reported_with_line_numbers() {
    let nl = write_netlist("bad.sp", "R1 1 2 100\nQX 1 2 3\n");
    let out = bin().args(["sweep", nl.to_str().expect("utf8 path")]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// The dispatch, usage text, and unknown-method error are all derived
/// from the [`pmtbr_cli::METHODS`] registry; enumerate it end-to-end so
/// a registry entry can never exist without a working CLI path.
#[test]
fn every_registry_method_reduces_the_tiny_netlist() {
    let nl = write_netlist("registry.sp", RC_LADDER);
    let path = nl.to_str().expect("utf8 path");
    for m in pmtbr_cli::METHODS {
        let out = bin()
            .args([
                "reduce", path, "--method", m.name, "--order", "2", "--band", "2e9",
                "--samples", "10",
            ])
            .output()
            .expect("run reduce");
        assert!(
            out.status.success(),
            "{}: stderr: {}",
            m.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("method: "), "{}: {text}", m.name);
        assert!(text.lines().any(|l| l.starts_with("order: ")), "{}: {text}", m.name);
        assert!(
            text.lines().any(|l| l.starts_with("A: #")),
            "{}: model matrices must be dumped",
            m.name
        );
    }
}

/// The unknown-method error must list exactly the registry names.
#[test]
fn unknown_method_error_is_registry_derived() {
    let nl = write_netlist("registry2.sp", RC_LADDER);
    let out = bin()
        .args(["reduce", nl.to_str().expect("utf8 path"), "--method", "frobnicate"])
        .output()
        .expect("run reduce");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --method `frobnicate`"), "stderr: {err}");
    assert!(err.contains(&pmtbr_cli::method_list()), "stderr: {err}");
}

/// `help` must mention every registry method by name.
#[test]
fn help_lists_every_registry_method() {
    let out = bin().arg("help").output().expect("run help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for m in pmtbr_cli::METHODS {
        assert!(text.contains(m.name), "usage must list `{}`", m.name);
    }
}

/// Fault injection via `PMTBR_FAULT`: with drops the sweep degrades,
/// the diagnostics land on stderr, and the exit code distinguishes
/// accepted (2) from rejected (3) degradation.
#[test]
fn degraded_reduce_exit_codes() {
    let nl = write_netlist("ladder4.sp", RC_LADDER);
    let path = nl.to_str().expect("utf8 path");
    let fault = "seed=5,rate=0.3,kinds=panic,depth=2";
    let base = ["reduce", path, "--order", "2", "--band", "2e9", "--samples", "12"];

    // Clean run: exit 0, no degradation report.
    let out = bin().args(base).output().expect("clean run");
    assert_eq!(out.status.code(), Some(0));

    // Degraded but accepted: exit 2, summary on stderr, model on stdout.
    let out = bin().args(base).env("PMTBR_FAULT", fault).output().expect("degraded run");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sample points survived"), "stderr: {err}");
    assert!(err.contains("dropped"), "stderr: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("samples_surviving:"), "stdout: {text}");
    assert!(text.contains("A: # 2x2"), "model must still be emitted");

    // --strict rejects any degradation: exit 3.
    let out = bin()
        .args(base)
        .arg("--strict")
        .env("PMTBR_FAULT", fault)
        .output()
        .expect("strict run");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strict"));

    // Drop budget exceeded: exit 3.
    let out = bin()
        .args(base)
        .args(["--max-dropped-samples", "0"])
        .env("PMTBR_FAULT", fault)
        .output()
        .expect("budget run");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("max-dropped-samples"));

    // A generous budget accepts the same degradation: exit 2.
    let out = bin()
        .args(base)
        .args(["--max-dropped-samples", "11"])
        .env("PMTBR_FAULT", fault)
        .output()
        .expect("generous run");
    assert_eq!(out.status.code(), Some(2));
}
