//! The numlint rule set.
//!
//! | ID      | Scope                         | Checks                                            |
//! |---------|-------------------------------|---------------------------------------------------|
//! | DET01   | workspace, non-test           | `HashMap`/`HashSet` iteration (unordered drains)  |
//! | DET02   | workspace minus `crates/bench`| wall-clock reads (`Instant`, `SystemTime`, …); allowed only inside `obs::WallClock` / `serve::Deadline` items |
//! | PANIC01 | seven library crates' `src/`  | `unwrap()`/`expect(`/`panic!`/`todo!`/`unimplemented!` |
//! | FLOAT01 | workspace, non-test           | `==`/`!=` on float operands (non-zero literals)   |
//! | FLOAT02 | `numkit`/`sparsekit` `src/`   | bare `as usize`/`as f64` casts                    |
//! | ERR01   | seven library crates' `src/`  | `panic!` inside `Result`-returning pub fns        |
//! | CONC01  | workspace, non-test           | `static mut`; atomic orderings other than Relaxed |
//! | ENV01   | eight library crates' `src/`  | `env::var`/`var_os`/`vars`/`vars_os` reads        |
//!
//! Three more rules are *interprocedural* and live in
//! `engine::workspace_diagnostics` because they need the whole-workspace
//! call graph, not one file: PANIC02 (pub Result fns that transitively
//! reach a panic site), DET03 (transitive wall-clock reachability), and
//! SAFE01 (`#![forbid(unsafe_code)]` pinned in every library lib.rs).
//!
//! All rules are token-stream heuristics, tuned to this codebase's
//! idiom; they prefer a rare false positive (silenced with a reasoned
//! `numlint:allow`) over false negatives on the invariants PR 1 and
//! PR 2 promised.

use crate::engine::{Diagnostic, FileClass, FileContext};
use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// A single lint rule.
pub struct Rule {
    /// Stable identifier (`DET01`, …) used in output, allows, baseline.
    pub id: &'static str,
    /// One-line description for `numlint rules`.
    pub summary: &'static str,
    /// Whether the rule applies to a file of the given class.
    pub applies: fn(&FileClass) -> bool,
    /// Appends findings for one file.
    pub check: fn(&FileContext, &mut Vec<Diagnostic>),
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "DET01",
        summary: "no HashMap/HashSet iteration outside test code (nondeterministic order)",
        applies: |_| true,
        check: det01,
    },
    Rule {
        id: "DET02",
        summary: "no wall-clock reads (Instant/SystemTime/UNIX_EPOCH) outside crates/bench \
                  (carve-outs: obs::WallClock and serve::Deadline items)",
        applies: |c| !c.is_bench(),
        check: det02,
    },
    Rule {
        id: "PANIC01",
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in library crates",
        applies: FileClass::is_library_src,
        check: panic01,
    },
    Rule {
        id: "FLOAT01",
        summary: "no ==/!= between float-typed expressions (non-zero literals)",
        applies: |_| true,
        check: float01,
    },
    Rule {
        id: "FLOAT02",
        summary: "no bare `as usize`/`as f64` casts in numkit/sparsekit kernels",
        applies: FileClass::is_kernel_crate,
        check: float02,
    },
    Rule {
        id: "ERR01",
        summary: "Result-returning pub fns in library crates must not contain panic!",
        applies: FileClass::is_library_src,
        check: err01,
    },
    Rule {
        id: "CONC01",
        summary: "no `static mut`; atomic loads/stores use Ordering::Relaxed only",
        applies: |_| true,
        check: conc01,
    },
    Rule {
        id: "ENV01",
        summary: "no environment-variable reads (std::env::var/var_os/vars) in library crates",
        applies: FileClass::is_library_src,
        check: env01,
    },
];

/// The interprocedural rules implemented in
/// `engine::workspace_diagnostics`: (id, summary) pairs for the
/// `numlint rules` listing and allow validation.
pub const WORKSPACE_RULES: &[(&str, &str)] = &[
    (
        "PANIC02",
        "pub Result-returning fns in library crates must not transitively reach a panic \
         site (diagnostics carry the witness call chain)",
    ),
    (
        "DET03",
        "no fn outside crates/bench and obs::WallClock may transitively reach a \
         wall-clock read",
    ),
    ("SAFE01", "every library crate's lib.rs declares #![forbid(unsafe_code)]"),
];

/// True if `id` names a rule (per-file, workspace, or the meta-rule
/// LINT00) — used to validate `numlint:allow(...)` lists.
pub fn is_known_rule(id: &str) -> bool {
    canonical_rule_id(id).is_some()
}

/// Interns a rule name back to its `&'static str` id (the cache stores
/// rule ids as plain text and `Diagnostic::rule` wants the static str).
pub fn canonical_rule_id(id: &str) -> Option<&'static str> {
    if id == "LINT00" {
        return Some("LINT00");
    }
    if let Some(r) = RULES.iter().find(|r| r.id == id) {
        return Some(r.id);
    }
    WORKSPACE_RULES.iter().find(|(w, _)| *w == id).map(|(w, _)| *w)
}

fn diag(out: &mut Vec<Diagnostic>, t: &Token, rule: &'static str, message: String) {
    out.push(Diagnostic { line: t.line, col: t.col, rule, message, chain: Vec::new() });
}

// ---------------------------------------------------------------------------
// DET01 — HashMap/HashSet iteration
// ---------------------------------------------------------------------------

const UNORDERED_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];

/// Collects identifiers bound to `HashMap`/`HashSet` in this file:
/// `let [mut] x = HashMap::…`, `let [mut] x: HashMap<…>`, and struct
/// fields / fn params `x: HashMap<…>`.
fn hash_bound_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // `x : [&][mut][&'a ] HashMap` (typed binding, field, or param).
        let mut j = i;
        while j >= 1
            && (toks[j - 1].is_punct("&")
                || toks[j - 1].is_ident("mut")
                || matches!(toks[j - 1].kind, TokKind::Lifetime(_)))
        {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].is_punct(":") {
            if let Some(name) = toks[j - 2].ident() {
                set.insert(name.to_string());
            }
        }
        // `let [mut] x = HashMap ::` (inferred binding).
        if i >= 2 && toks[i - 1].is_punct("=") {
            if let Some(name) = toks[i - 2].ident() {
                let before = if i >= 3 { toks[i - 3].ident() } else { None };
                if matches!(before, Some("let" | "mut")) {
                    set.insert(name.to_string());
                }
            }
        }
    }
    set
}

fn det01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let hashes = hash_bound_idents(toks);
    if hashes.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        // `name . method (` where `name` is hash-bound.
        if let Some(m) = t.ident() {
            if UNORDERED_ITER_METHODS.contains(&m)
                && i >= 2
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                if let Some(name) = toks[i - 2].ident() {
                    if hashes.contains(name) {
                        diag(
                            out,
                            t,
                            "DET01",
                            format!(
                                "`.{m}()` on `{name}` iterates a HashMap/HashSet in \
                                 nondeterministic order; use BTreeMap/BTreeSet or sort first"
                            ),
                        );
                    }
                }
            }
        }
        // `for pat in [&][mut][self.] name {`.
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                    TokKind::Punct(")") | TokKind::Punct("]") => depth -= 1,
                    TokKind::Ident(s) if s == "in" && depth == 0 => break,
                    TokKind::Punct("{") => {
                        j = toks.len();
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            let mut k = j + 1;
            while toks.get(k).is_some_and(|x| {
                x.is_punct("&") || x.is_ident("mut") || x.is_ident("self") || x.is_punct(".")
            }) {
                k += 1;
            }
            if let Some(name_tok) = toks.get(k) {
                if let Some(name) = name_tok.ident() {
                    if hashes.contains(name) && toks.get(k + 1).is_some_and(|n| n.is_punct("{")) {
                        diag(
                            out,
                            name_tok,
                            "DET01",
                            format!(
                                "`for … in {name}` iterates a HashMap/HashSet in \
                                 nondeterministic order; use BTreeMap/BTreeSet or sort first"
                            ),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DET02 — wall-clock reads
// ---------------------------------------------------------------------------

/// Token-index extents (inclusive) of items that *mention* the
/// crate's sanctioned clock type in their header — `struct WallClock
/// {…}`, `impl WallClock {…}`, `impl Clock for WallClock {…}` in obs,
/// and the same shapes for `Deadline` in serve. Inside these, and only
/// these, the owning crate may read the wall clock:
/// `FileClass::clock_carveout_type` names the one sanctioned type per
/// crate (obs's pluggable trace clock; serve's socket-timeout
/// deadline).
pub(crate) fn wallclock_extents(toks: &[Token], sanctioned: &str) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("struct") || t.is_ident("impl")) {
            continue;
        }
        // Scan the item header up to its body `{` (or `;` for a unit
        // struct), checking whether `WallClock` appears in it.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut mentions = false;
        let mut open = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                TokKind::Punct(")") | TokKind::Punct("]") => depth -= 1,
                TokKind::Ident(s) if s == sanctioned => mentions = true,
                TokKind::Punct("{") if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(";") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let (Some(open), true) = (open, mentions) else { continue };
        let mut level = 0i32;
        for (m, u) in toks.iter().enumerate().skip(open) {
            if u.is_punct("{") {
                level += 1;
            } else if u.is_punct("}") {
                level -= 1;
                if level == 0 {
                    extents.push((i, m));
                    break;
                }
            }
        }
    }
    extents
}

fn det02(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let carve_outs = match ctx.class.clock_carveout_type() {
        Some(name) => wallclock_extents(toks, name),
        None => Vec::new(),
    };
    for (i, t) in toks.iter().enumerate() {
        if let Some(id) = t.ident() {
            if matches!(id, "Instant" | "SystemTime" | "UNIX_EPOCH") {
                if carve_outs.iter().any(|&(s, e)| (s..=e).contains(&i)) {
                    continue;
                }
                diag(
                    out,
                    t,
                    "DET02",
                    format!(
                        "wall-clock source `{id}` outside crates/bench breaks reproducible \
                         sweeps; keep timing in the bench crate or behind the crate's \
                         sanctioned clock type (obs::WallClock / serve::Deadline) \
                         (Duration values are fine)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PANIC01 — panicking calls in library crates
// ---------------------------------------------------------------------------

fn panic01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let hit = match id {
            // `.unwrap()` / `.expect(` — method position only, so
            // `unwrap_or`/`expect_err` (distinct ident tokens) and fns
            // merely *named* unwrap don't fire.
            "unwrap" | "expect" => {
                i >= 1
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            }
            "panic" | "todo" | "unimplemented" => {
                toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            }
            _ => false,
        };
        if hit {
            let call = if matches!(id, "unwrap" | "expect") {
                format!(".{id}()")
            } else {
                format!("{id}!")
            };
            diag(
                out,
                t,
                "PANIC01",
                format!(
                    "`{call}` in library code aborts callers that were promised NumError \
                     propagation; return an error (or baseline/allow with a reason)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// FLOAT01 — exact float comparison
// ---------------------------------------------------------------------------

/// Parses a float literal's numeric value, ignoring `_` separators and
/// `f32`/`f64` suffixes. Returns `None` for unparseable text.
fn float_value(lit: &str) -> Option<f64> {
    let s: String = lit.chars().filter(|&c| c != '_').collect();
    let s = s.strip_suffix("f64").or_else(|| s.strip_suffix("f32")).unwrap_or(&s);
    let s = s.strip_suffix('.').unwrap_or(s);
    s.parse::<f64>().ok()
}

/// Float-typed identifier declarations with scope information, so a
/// `let s = 1.0…` in one function cannot poison an unrelated `s` in
/// another (single-letter locals are reused constantly in kernels).
struct FloatScopes {
    /// (declaration token index, identifier).
    decls: Vec<(usize, String)>,
    /// Function extents as token-index ranges, `fn` keyword through the
    /// body's closing brace. Nested fns yield nested ranges.
    extents: Vec<(usize, usize)>,
}

impl FloatScopes {
    fn build(toks: &[Token]) -> FloatScopes {
        let mut decls = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            // `name : f64` / `name : f32` (param, field, or typed let).
            if (t.is_ident("f64") || t.is_ident("f32")) && i >= 2 && toks[i - 1].is_punct(":") {
                if let Some(name) = toks[i - 2].ident() {
                    decls.push((i - 2, name.to_string()));
                }
            }
            // `let [mut] name = [-] <float literal>…`.
            if matches!(t.kind, TokKind::Float(_)) && i >= 2 {
                let mut j = i - 1;
                if toks[j].is_punct("-") && j >= 1 {
                    j -= 1;
                }
                if toks[j].is_punct("=") && j >= 2 {
                    if let Some(name) = toks[j - 1].ident() {
                        if matches!(toks[j - 2].ident(), Some("let" | "mut")) {
                            decls.push((j - 1, name.to_string()));
                        }
                    }
                }
            }
        }
        let mut extents = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("fn") {
                continue;
            }
            // Find the body `{` (stopping at `;` for trait decls), then
            // its matching `}` — same scan as ERR01.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut open = None;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                    TokKind::Punct(")") | TokKind::Punct("]") => depth -= 1,
                    TokKind::Punct("{") if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Punct(";") if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let mut level = 0i32;
            for (m, u) in toks.iter().enumerate().skip(open) {
                if u.is_punct("{") {
                    level += 1;
                } else if u.is_punct("}") {
                    level -= 1;
                    if level == 0 {
                        extents.push((i, m));
                        break;
                    }
                }
            }
        }
        FloatScopes { decls, extents }
    }

    /// Innermost fn extent containing token index `i`, if any.
    fn innermost(&self, i: usize) -> Option<(usize, usize)> {
        self.extents
            .iter()
            .filter(|(s, e)| (*s..=*e).contains(&i))
            .min_by_key(|(s, e)| e - s)
            .copied()
    }

    /// True if some declaration of `name` is visible at token index
    /// `use_idx`: the declaration's innermost fn extent (module scope if
    /// none) must contain the use site.
    fn is_float_at(&self, name: &str, use_idx: usize) -> bool {
        self.decls.iter().any(|(d, n)| {
            n == name
                && match self.innermost(*d) {
                    Some((s, e)) => (s..=e).contains(&use_idx),
                    None => true,
                }
        })
    }
}

fn float01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let floats = FloatScopes::build(toks);
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        // Literal on the right (allowing a unary minus)?
        let rhs = match toks.get(i + 1) {
            Some(n) if n.is_punct("-") => toks.get(i + 2),
            other => other,
        };
        let rhs_lit = rhs.and_then(|n| match &n.kind {
            TokKind::Float(s) => Some(s.as_str()),
            _ => None,
        });
        let lhs_lit = toks.get(i.wrapping_sub(1)).and_then(|p| match &p.kind {
            TokKind::Float(s) => Some(s.as_str()),
            _ => None,
        });
        let lhs_ident = i
            .checked_sub(1)
            .and_then(|j| toks[j].ident())
            .filter(|id| floats.is_float_at(id, i));
        let rhs_ident =
            toks.get(i + 1).and_then(|n| n.ident()).filter(|id| floats.is_float_at(id, i));

        let lit = lhs_lit.or(rhs_lit);
        let is_float_cmp = lit.is_some() || lhs_ident.is_some() || rhs_ident.is_some();
        if !is_float_cmp {
            continue;
        }
        // Exact comparison against ±0.0 is the idiomatic structural-zero
        // / NaN-rejecting guard throughout the LU/SVD kernels (see the
        // workspace clippy policy in Cargo.toml); only non-zero literal
        // and ident-vs-ident comparisons are suspect.
        if let Some(l) = lit {
            if float_value(l) == Some(0.0) {
                continue;
            }
        }
        let op = if t.is_punct("==") { "==" } else { "!=" };
        diag(
            out,
            t,
            "FLOAT01",
            format!(
                "exact `{op}` between float-typed expressions; compare with a tolerance \
                 (or total_cmp) — roundoff makes exact equality order-dependent"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// FLOAT02 — bare numeric casts in kernels
// ---------------------------------------------------------------------------

fn float02(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        let target = match next.ident() {
            Some("usize") => "usize",
            Some("f64") => "f64",
            _ => continue,
        };
        let hazard = if target == "usize" {
            "truncates fractions and saturates on overflow"
        } else {
            "silently rounds integers above 2^53"
        };
        diag(
            out,
            t,
            "FLOAT02",
            format!(
                "bare `as {target}` cast in kernel code {hazard}; use a checked conversion \
                 or justify with `numlint:allow(FLOAT02) <why the range is safe>`"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// CONC01 — atomic-ordering discipline
// ---------------------------------------------------------------------------

/// The workspace's concurrency is confined to counters and the PR 7
/// work-budget guards: every atomic is an independent monotone counter,
/// so `Relaxed` is sufficient and anything stronger signals either an
/// accidental synchronization dependency (which deserves a channel or a
/// mutex, not ordering games) or cargo-culted `SeqCst`. `static mut` is
/// banned outright — `#![forbid(unsafe_code)]` already keeps it out of
/// the library crates, so this mostly guards build scripts and tools.
fn conc01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            diag(
                out,
                t,
                "CONC01",
                "`static mut` is unsynchronized shared state; use an atomic, a lock, or \
                 thread-local storage"
                    .to_string(),
            );
        }
        if let Some(ord) = t.ident() {
            if matches!(ord, "SeqCst" | "AcqRel" | "Acquire" | "Release")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("Ordering")
            {
                diag(
                    out,
                    t,
                    "CONC01",
                    format!(
                        "`Ordering::{ord}` drifts from the Relaxed-only discipline; the \
                         workspace's atomics are independent counters — if this one \
                         synchronizes data, use a channel or mutex instead"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ENV01 — environment reads in library crates
// ---------------------------------------------------------------------------

/// A library run takes its inputs as arguments: an environment variable
/// read inside a library crate is a hidden global input that no caller
/// can see, and one that the cache key and the tests cannot see either.
/// The binaries read the environment at their edge and pass values in.
/// Flags `env::var`, `env::var_os`, `env::vars`, and `env::vars_os`
/// path segments (calls and `use` imports alike); writes (`set_var`),
/// `env::args`, and the `env!` macro are not reads of the run's inputs.
fn env01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if matches!(id, "var" | "var_os" | "vars" | "vars_os")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("env")
        {
            diag(
                out,
                t,
                "ENV01",
                format!(
                    "`env::{id}` in a library crate is a hidden global input; take the \
                     value as an argument and read the environment in the binary"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ERR01 — panic! inside Result-returning pub fns
// ---------------------------------------------------------------------------

fn err01(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `pub` (or `pub(crate)` etc.) within the few tokens before `fn`.
        let lead = i.saturating_sub(6);
        let is_pub = toks[lead..i].iter().any(|t| t.is_ident("pub"));
        let name = toks.get(i + 1).and_then(|t| t.ident()).unwrap_or("?").to_string();
        // Scan the signature up to the body `{` (or `;` for trait decls),
        // tracking only (), [] nesting — signatures hold no braces.
        // A `->` counts as the fn's return arrow only at paren depth 0
        // and before any `where` clause: closure bounds like
        // `impl Fn() -> Result<…>` sit inside parens, and where-clause
        // bounds come after `where`, so neither marks the fn itself as
        // Result-returning.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut arrow = false;
        let mut in_where = false;
        let mut returns_result = false;
        let mut body_open: Option<usize> = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                TokKind::Punct(")") | TokKind::Punct("]") => depth -= 1,
                TokKind::Ident(s) if s == "where" && depth == 0 => in_where = true,
                TokKind::Punct("->") if depth == 0 && !in_where => arrow = true,
                TokKind::Ident(s) if arrow && !in_where && s == "Result" => {
                    returns_result = true
                }
                TokKind::Punct("{") if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokKind::Punct(";") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        // Walk the body; flag `panic !`. Nested fn items reset the outer
        // fn scan anyway because we restart at every `fn` keyword, so a
        // panic! in a nested non-pub helper is attributed conservatively
        // to the enclosing pub fn too — that is deliberate: the caller
        // still sees an abort instead of an Err.
        let mut level = 0i32;
        let mut k = open;
        let mut end = toks.len();
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct("{") => level += 1,
                TokKind::Punct("}") => {
                    level -= 1;
                    if level == 0 {
                        end = k;
                        break;
                    }
                }
                TokKind::Ident(s)
                    if is_pub
                        && returns_result
                        && s == "panic"
                        && toks.get(k + 1).is_some_and(|n| n.is_punct("!")) =>
                {
                    diag(
                        out,
                        &toks[k],
                        "ERR01",
                        format!(
                            "pub fn `{name}` returns Result yet contains `panic!`; callers \
                             rely on Err propagation — return the error instead"
                        ),
                    );
                }
                _ => {}
            }
            k += 1;
        }
        // Continue scanning after the signature, *inside* the body, so
        // nested fns are each analyzed in their own right as well.
        i = open + 1;
        let _ = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FileClass, FileContext};

    fn run(class: FileClass, src: &str) -> Vec<Diagnostic> {
        FileContext::new(class, src).run()
    }

    fn kernel(src: &str) -> Vec<Diagnostic> {
        run(FileClass::CrateSrc("numkit".into()), src)
    }

    #[test]
    fn det01_flags_map_iteration_and_not_btree() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut m: HashMap<String, usize> = HashMap::new();\n\
                   for (k, v) in &m {\n    let _ = (k, v);\n}\n\
                   let _ = m.keys();\n\
                   let b = std::collections::BTreeMap::<u32, u32>::new();\n\
                   for x in &b {}\n\
                   }\n";
        let d = kernel(src);
        let det: Vec<_> = d.iter().filter(|d| d.rule == "DET01").collect();
        assert_eq!(det.len(), 2, "{d:?}");
    }

    #[test]
    fn det02_flags_instant_outside_bench_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(kernel(src).iter().filter(|d| d.rule == "DET02").count(), 1);
        let bench = run(FileClass::CrateSrc("bench".into()), src);
        assert!(bench.iter().all(|d| d.rule != "DET02"));
        // Duration is a value type, not a clock: no finding.
        let dur = "fn f() { let d = std::time::Duration::from_millis(3); }";
        assert!(kernel(dur).iter().all(|d| d.rule != "DET02"));
    }

    #[test]
    fn det02_obs_carve_out_covers_wallclock_items_only() {
        let obs = |src: &str| run(FileClass::CrateSrc("obs".into()), src);
        let inside = "pub struct WallClock {\n    origin: std::time::Instant,\n}\n\
                      impl Clock for WallClock {\n    fn now(&mut self) -> u64 {\n        let _ = std::time::Instant::now();\n        0\n    }\n}\n";
        assert!(obs(inside).iter().all(|d| d.rule != "DET02"), "{:?}", obs(inside));
        // A wall-clock read anywhere else in obs is still a finding.
        let outside = "fn sneaky() { let t = std::time::Instant::now(); }";
        assert_eq!(obs(outside).iter().filter(|d| d.rule == "DET02").count(), 1);
        // The carve-out exists only for crates/obs: a WallClock-named
        // item in a kernel crate gets no exemption.
        let fake = "impl WallClock { fn f() { let t = std::time::Instant::now(); } }";
        assert_eq!(kernel(fake).iter().filter(|d| d.rule == "DET02").count(), 1);
    }

    #[test]
    fn panic01_applies_to_obs() {
        let src = "fn f(x: Option<u32>) { let _ = x.unwrap(); }";
        assert_eq!(
            run(FileClass::CrateSrc("obs".into()), src)
                .iter()
                .filter(|d| d.rule == "PANIC01")
                .count(),
            1
        );
    }

    #[test]
    fn panic01_scope_and_shape() {
        let src = "fn f(x: Option<u32>) { let _ = x.unwrap(); }";
        assert_eq!(kernel(src).iter().filter(|d| d.rule == "PANIC01").count(), 1);
        // unwrap_or is fine; cli crate is out of scope.
        assert!(kernel("fn f(x: Option<u32>) { let _ = x.unwrap_or(0); }")
            .iter()
            .all(|d| d.rule != "PANIC01"));
        assert!(run(FileClass::CrateSrc("cli".into()), src)
            .iter()
            .all(|d| d.rule != "PANIC01"));
    }

    #[test]
    fn float01_zero_exempt_nonzero_flagged() {
        assert!(kernel("fn f(x: f64) -> bool { x == 0.0 }")
            .iter()
            .all(|d| d.rule != "FLOAT01"));
        assert_eq!(
            kernel("fn f(x: f64) -> bool { x == 1.0 }")
                .iter()
                .filter(|d| d.rule == "FLOAT01")
                .count(),
            1
        );
        assert_eq!(
            kernel("fn f(x: f64, y: f64) -> bool { x != y }")
                .iter()
                .filter(|d| d.rule == "FLOAT01")
                .count(),
            1
        );
        // Int comparisons never fire.
        assert!(kernel("fn f(n: usize) -> bool { n == 3 }")
            .iter()
            .all(|d| d.rule != "FLOAT01"));
    }

    #[test]
    fn float02_only_in_kernel_crates() {
        let src = "fn f(n: usize) -> f64 { n as f64 }";
        assert_eq!(kernel(src).iter().filter(|d| d.rule == "FLOAT02").count(), 1);
        assert!(run(FileClass::CrateSrc("lti".into()), src)
            .iter()
            .all(|d| d.rule != "FLOAT02"));
    }

    #[test]
    fn err01_result_pub_fn_with_panic() {
        let src = "pub fn f() -> Result<(), E> { if bad { panic!(\"no\"); } Ok(()) }";
        assert_eq!(kernel(src).iter().filter(|d| d.rule == "ERR01").count(), 1);
        // Non-pub or non-Result fns don't fire ERR01 (PANIC01 still does).
        let private = "fn g() -> Result<(), E> { panic!(\"no\") }";
        assert!(kernel(private).iter().all(|d| d.rule != "ERR01"));
        let unit = "pub fn h() { panic!(\"no\") }";
        assert!(kernel(unit).iter().all(|d| d.rule != "ERR01"));
    }

    #[test]
    fn conc01_flags_static_mut_and_strong_orderings() {
        assert_eq!(
            kernel("static mut COUNTER: u64 = 0;")
                .iter()
                .filter(|d| d.rule == "CONC01")
                .count(),
            1
        );
        assert_eq!(
            kernel("fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }")
                .iter()
                .filter(|d| d.rule == "CONC01")
                .count(),
            1
        );
        // Relaxed is the sanctioned ordering; plain statics are fine.
        assert!(kernel("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }")
            .iter()
            .all(|d| d.rule != "CONC01"));
        assert!(kernel("static LIMIT: u64 = 3;").iter().all(|d| d.rule != "CONC01"));
    }

    #[test]
    fn workspace_rule_ids_are_known() {
        for id in ["PANIC02", "DET03", "SAFE01", "CONC01", "LINT00"] {
            assert!(is_known_rule(id), "{id}");
            assert_eq!(canonical_rule_id(id), Some(id));
        }
        assert!(!is_known_rule("NOSUCH"));
    }

    #[test]
    fn suppressions_silence_rules() {
        let src = "fn f(x: Option<u32>) {\n\
                   let _ = x.unwrap(); // numlint:allow(PANIC01) test harness glue\n\
                   }";
        assert!(kernel(src).iter().all(|d| d.rule != "PANIC01"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(kernel(src).is_empty());
    }
}
