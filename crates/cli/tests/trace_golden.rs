//! Golden-file test for `--trace`: the deterministic-clock trace of an
//! RLC reduction must be byte-identical at any thread count AND
//! byte-identical to the blessed fixture.
//!
//! The fixture (`tests/fixtures/rlc_trace.jsonl`) pins the full
//! observable behavior of the pipeline — span structure, event order,
//! ladder outcomes, float-formatted residuals, and counter totals. A
//! diff against it is a *behavior change*, not noise: under the counter
//! clock every stamp is a per-item event ordinal, so two runs that do
//! the same numerical work produce the same bytes.
//!
//! Last re-bless: greedy adaptive sampling. The counters line gained
//! the `GREEDY_SCORED` / `GREEDY_ACCEPTED` totals (zero in this
//! fixed-grid trace — the greedy driver's own determinism is pinned by
//! `crates/pmtbr/tests/greedy.rs` at 1/2/8 threads).
//!
//! Re-bless intentionally after a behavior-changing commit with:
//!
//! ```text
//! PMTBR_BLESS=1 cargo test -p pmtbr-cli --test trace_golden
//! ```

use std::process::Command;

mod common;

const RLC_TANK: &str = "\
* Parallel RLC tank driven through a source resistor.
R1 1 2 50
L1 2 0 10n
C1 2 0 1p
R2 2 0 2k
PORT 1
.end";

fn run_traced(netlist: &std::path::Path, trace: &std::path::Path, threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .args([
            "reduce",
            netlist.to_str().expect("utf8 path"),
            "--order",
            "2",
            "--band",
            "2e9",
            "--samples",
            "8",
            "--threads",
            threads,
            "--trace",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run reduce --trace");
    assert!(
        out.status.success(),
        "threads={threads} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(trace).expect("trace file written")
}

#[test]
fn trace_is_deterministic_and_matches_blessed_fixture() {
    let dir = common::scratch_dir("pmtbr-trace-golden");
    let netlist = common::write_atomic(&dir.join("tank.sp"), RLC_TANK);

    // Identical bytes at 1, 2, and 8 threads: thread scheduling must not
    // be observable in a counter-clock trace.
    let t1 = run_traced(&netlist, &dir.join("t1.jsonl"), "1");
    let t2 = run_traced(&netlist, &dir.join("t2.jsonl"), "2");
    let t8 = run_traced(&netlist, &dir.join("t8.jsonl"), "8");
    assert_eq!(t1, t2, "trace differs between 1 and 2 threads");
    assert_eq!(t1, t8, "trace differs between 1 and 8 threads");

    // Every line is a syntactically valid JSON object.
    let lines = obs::json::validate_jsonl(&t1).expect("schema-valid JSONL");
    assert!(lines > 10, "suspiciously short trace: {lines} lines");

    // Structural schema: meta first, counters last, and the spans the
    // acceptance criteria name — sparse LU, the shift ladder, the
    // sampling sweep, and the SVD — all present.
    let first = t1.lines().next().expect("nonempty");
    assert!(first.contains(r#""ev":"meta""#), "first line: {first}");
    assert!(first.contains(r#""schema":"pmtbr-trace-v1""#), "first line: {first}");
    assert!(first.contains(r#""clock":"counter""#), "first line: {first}");
    let last = t1.lines().last().expect("nonempty");
    assert!(last.contains(r#""ev":"counters""#), "last line: {last}");
    assert!(last.contains(r#""LU_FACTOR""#), "last line: {last}");
    for span in ["sparse_lu.factor", "ladder", "pmtbr.sample_sweep", "svd.jacobi"] {
        assert!(t1.contains(span), "trace must cover span {span}");
    }

    // Golden comparison. PMTBR_BLESS=1 rewrites the fixture instead.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/rlc_trace.jsonl");
    if std::env::var_os("PMTBR_BLESS").is_some() {
        std::fs::create_dir_all(fixture.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&fixture, &t1).expect("bless fixture");
        return;
    }
    let blessed = std::fs::read_to_string(&fixture).expect(
        "blessed fixture missing — run once with PMTBR_BLESS=1 to create it",
    );
    assert_eq!(
        t1, blessed,
        "trace diverged from the blessed fixture; if the behavior change \
         is intentional, re-bless with PMTBR_BLESS=1"
    );
}
