//! Golden-fixture tests: every per-file rule has a fixture file under
//! `tests/fixtures/` whose findings must match its `.expected` file
//! line-for-line (`line:col RULE_ID`), and the interprocedural rules
//! have a multi-file fixture workspace under `tests/fixtures/ws/` whose
//! combined per-file + workspace findings (witness chains included)
//! must match `ws.expected`. Regenerate an expected file by running the
//! test with `NUMLINT_BLESS=1` and reviewing the diff.

use numlint::effects::render_chain;
use numlint::{analyze_file, lint_source, workspace_diagnostics, Baseline, FileAnalysis, FileClass};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Formats diagnostics in the golden format.
fn render(diags: &[numlint::Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&format!("{}:{} {}\n", d.line, d.col, d.rule));
    }
    s
}

/// Lints `<stem>.rs` as numkit library source (all six rules plus
/// LINT00 in scope) and compares against `<stem>.expected`.
fn check_fixture(stem: &str) {
    let dir = fixtures_dir();
    let src_path = dir.join(format!("{stem}.rs"));
    let exp_path = dir.join(format!("{stem}.expected"));
    let src = fs::read_to_string(&src_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", src_path.display()));
    // Fixtures are linted under an explicit classification override:
    // on disk they live below tests/ (exempt) precisely so the real
    // workspace walk never reports their deliberate violations.
    let diags = lint_source(FileClass::CrateSrc("numkit".into()), &src);
    let got = render(&diags);
    if std::env::var_os("NUMLINT_BLESS").is_some() {
        fs::write(&exp_path, &got)
            .unwrap_or_else(|e| panic!("writing {}: {e}", exp_path.display()));
        return;
    }
    let want = fs::read_to_string(&exp_path)
        .unwrap_or_else(|e| panic!("reading {}: {e} (run with NUMLINT_BLESS=1 to create)", exp_path.display()));
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "\n== fixture {stem} drifted ==\n-- got --\n{got}\n-- want --\n{want}\n"
    );
}

#[test]
fn det01_hash_iteration() {
    check_fixture("det01");
}

#[test]
fn det02_wall_clock() {
    check_fixture("det02");
}

#[test]
fn panic01_panicking_calls() {
    check_fixture("panic01");
}

#[test]
fn float01_exact_comparison() {
    check_fixture("float01");
}

#[test]
fn float02_bare_casts() {
    check_fixture("float02");
}

#[test]
fn err01_panic_in_result_fn() {
    check_fixture("err01");
}

#[test]
fn lexer_tricky_decoys() {
    check_fixture("lexer_tricky");
}

#[test]
fn conc01_atomic_discipline() {
    check_fixture("conc01");
}

#[test]
fn env01_environment_reads() {
    check_fixture("env01");
}

#[test]
fn suppressions() {
    check_fixture("suppress");
}

/// Recursively collects the `.rs` files of the `ws` fixture workspace,
/// keyed by their ws-relative path (so `crates/<c>/src/lib.rs`
/// classification applies exactly as in a real workspace).
fn ws_fixture_files() -> BTreeMap<String, FileAnalysis> {
    let base = fixtures_dir().join("ws");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut stack = vec![base.clone()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read ws fixture dir") {
            let p = entry.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                paths.push(p);
            }
        }
    }
    paths.sort();
    let mut files = BTreeMap::new();
    for p in paths {
        let rel = p
            .strip_prefix(&base)
            .expect("ws-relative path")
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&p).expect("read ws fixture file");
        files.insert(rel.clone(), analyze_file(&rel, &src));
    }
    files
}

/// The interprocedural golden test: a six-crate fixture workspace
/// exercising the cross-crate PANIC02 chain, the `catch_unwind`
/// boundary, DET03 through bench, the `obs::WallClock` carve-out, and
/// SAFE01. Findings render as `path:line:col RULE [chain]`.
#[test]
fn ws_interprocedural_rules() {
    let files = ws_fixture_files();
    assert!(files.len() >= 6, "ws fixture walk looks truncated: {}", files.len());
    let mut findings: Vec<(String, numlint::Diagnostic)> = Vec::new();
    for (path, fa) in &files {
        findings.extend(fa.diags.iter().cloned().map(|d| (path.clone(), d)));
    }
    findings.extend(workspace_diagnostics(&files));
    findings.sort();
    let mut got = String::new();
    for (path, d) in &findings {
        got.push_str(&format!("{path}:{}:{} {}", d.line, d.col, d.rule));
        if !d.chain.is_empty() {
            got.push_str(&format!(" {}", render_chain(&d.chain)));
        }
        got.push('\n');
    }
    let exp_path = fixtures_dir().join("ws.expected");
    if std::env::var_os("NUMLINT_BLESS").is_some() {
        fs::write(&exp_path, &got)
            .unwrap_or_else(|e| panic!("writing {}: {e}", exp_path.display()));
        return;
    }
    let want = fs::read_to_string(&exp_path).unwrap_or_else(|e| {
        panic!("reading {}: {e} (run with NUMLINT_BLESS=1 to create)", exp_path.display())
    });
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "\n== ws fixture drifted ==\n-- got --\n{got}\n-- want --\n{want}\n"
    );
    // Structural guarantees beyond the golden text: the PANIC02 chain
    // crosses crates, and the catch_unwind twin stays clean.
    let panic02: Vec<_> = findings.iter().filter(|(_, d)| d.rule == "PANIC02").collect();
    assert_eq!(panic02.len(), 1, "{findings:?}");
    assert_eq!(panic02[0].0, "crates/pmtbr/src/lib.rs");
    assert!(panic02[0].1.chain.iter().any(|s| s.file.starts_with("crates/numkit/")));
    let guarded_line = 13; // the catch_unwind-contained fn in the pmtbr fixture
    assert!(
        !findings.iter().any(|(p, d)| p.contains("pmtbr") && d.line == guarded_line),
        "catch_unwind-contained entry point must stay clean: {findings:?}"
    );
}

/// Fixture findings disappear entirely when the same file is classified
/// as test code — the blanket exemption the real walk applies to
/// anything under `tests/`.
#[test]
fn fixtures_are_exempt_as_test_files() {
    let src = fs::read_to_string(fixtures_dir().join("panic01.rs")).expect("fixture");
    let diags = lint_source(FileClass::TestFile, &src);
    assert!(diags.iter().all(|d| d.rule == "LINT00"), "only LINT00 survives exemption: {diags:?}");
}

/// The shipped tree is clean: analyzing the real workspace — per-file
/// rules *and* the interprocedural PANIC02/DET03/SAFE01 pass — with the
/// checked-in baseline yields zero non-baselined findings. This is the
/// same invariant `scripts/check.sh` gates on, enforced from the tier-1
/// test suite so it cannot rot unnoticed.
#[test]
fn workspace_is_clean_under_baseline() {
    let root = numlint::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let files = numlint::walk::workspace_rs_files(&root).expect("walk workspace");
    assert!(files.len() > 100, "workspace walk looks truncated: {} files", files.len());
    let mut analyses: BTreeMap<String, FileAnalysis> = BTreeMap::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(root.join(rel)).expect("read source");
        analyses.insert(rel_str.clone(), analyze_file(&rel_str, &src));
    }
    let mut findings: Vec<(String, numlint::Diagnostic)> = Vec::new();
    for (path, fa) in &analyses {
        findings.extend(fa.diags.iter().cloned().map(|d| (path.clone(), d)));
    }
    findings.extend(workspace_diagnostics(&analyses));
    let baseline = match fs::read_to_string(root.join("numlint.baseline")) {
        Ok(text) => Baseline::parse(&text).expect("valid baseline"),
        Err(_) => Baseline::default(),
    };
    let (reported, _absorbed) = baseline.apply(findings);
    assert!(
        reported.is_empty(),
        "non-baselined findings in the shipped tree:\n{}",
        reported
            .iter()
            .map(|(p, d)| format!("{p}:{}:{} {} {}", d.line, d.col, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
