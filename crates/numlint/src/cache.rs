//! Content-hash incremental cache for per-file analyses.
//!
//! The expensive half of a `numlint check` is lexing and symbol
//! extraction over every workspace file; the workspace fixpoint itself
//! is milliseconds. So the cache stores one [`FileAnalysis`] per file,
//! keyed on an FNV-1a content hash, in a single plain-text file under
//! `target/numlint-cache/`. A warm run re-reads and re-hashes sources
//! (cheap) and skips extraction for unchanged files; the interprocedural
//! fixpoint then re-runs over the mix of cached and fresh analyses.
//!
//! Invalidation is by construction: the cache file name embeds
//! [`RULESET_VERSION`] (bump it whenever rule or extraction semantics
//! change) and every entry embeds its source hash. Any parse
//! irregularity discards the whole cache — it is a pure accelerator,
//! never a source of truth.

use crate::engine::{Diagnostic, FileAnalysis};
use crate::symbols::{CallSite, FileSymbols, FnSym, Seed};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Bump on any change to rules, extraction, or this serialization.
pub const RULESET_VERSION: u32 = 3;

/// FNV-1a 64-bit hash (std-only; no external hashing crates by design).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// In-memory cache: path → (source hash, analysis), plus hit/miss
/// accounting for the `check.sh` cache-efficiency report.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileAnalysis)>,
    fresh: BTreeMap<String, (u64, FileAnalysis)>,
    pub hits: usize,
    pub misses: usize,
}

impl Cache {
    /// The on-disk location for a workspace root.
    pub fn path_for(root: &Path) -> PathBuf {
        root.join("target")
            .join("numlint-cache")
            .join(format!("analysis-v{RULESET_VERSION}.txt"))
    }

    /// Loads the cache, returning an empty one on any miss or
    /// irregularity (stale version files simply never match the path).
    pub fn load(root: &Path) -> Cache {
        let mut cache = Cache::default();
        let Ok(text) = fs::read_to_string(Self::path_for(root)) else { return cache };
        match parse(&text) {
            Some(entries) => cache.entries = entries,
            None => cache.entries = BTreeMap::new(),
        }
        cache
    }

    /// Fetches the analysis for `path` if the cached source hash
    /// matches, recording a hit or miss either way.
    pub fn lookup(&mut self, path: &str, hash: u64) -> Option<FileAnalysis> {
        match self.entries.get(path) {
            Some((h, fa)) if *h == hash => {
                self.hits += 1;
                Some(fa.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records the analysis to be persisted by [`Cache::save`]. Only
    /// files seen this run are written back, so deleted files age out.
    pub fn record(&mut self, path: &str, hash: u64, fa: FileAnalysis) {
        self.fresh.insert(path.to_string(), (hash, fa));
    }

    /// Persists the recorded entries. Failures are reported to the
    /// caller but are never fatal: the cache is an accelerator only.
    pub fn save(&self, root: &Path) -> std::io::Result<()> {
        let path = Self::path_for(root);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut s = format!("numlint-cache v{RULESET_VERSION}\n");
        for (file, (hash, fa)) in &self.fresh {
            render_entry(&mut s, file, *hash, fa);
        }
        fs::write(path, s)
    }
}

fn render_entry(s: &mut String, file: &str, hash: u64, fa: &FileAnalysis) {
    let _ = writeln!(s, "F {hash:016x} {file}");
    let _ = writeln!(s, "B {}", u8::from(fa.has_forbid_unsafe));
    for (alias, full) in &fa.symbols.aliases {
        let _ = writeln!(s, "U {alias} {full}");
    }
    for f in &fa.symbols.fns {
        let self_ty = if f.self_ty.is_empty() { "-" } else { &f.self_ty };
        let _ = writeln!(
            s,
            "N {} {} {} {} {} {} {} {} {}",
            f.line,
            f.col,
            u8::from(f.is_pub),
            u8::from(f.returns_result),
            u8::from(f.in_wallclock),
            f.name,
            f.module,
            self_ty,
            f.qual
        );
        for seed in &f.seeds {
            let _ = writeln!(
                s,
                "S {} {} {} {}",
                seed.line,
                u8::from(seed.contained),
                seed.effect,
                seed.what
            );
        }
        for c in &f.calls {
            let _ = writeln!(
                s,
                "C {} {} {} {}",
                c.line,
                u8::from(c.contained),
                u8::from(c.is_method),
                c.path
            );
        }
    }
    for d in &fa.diags {
        let _ = writeln!(s, "D {} {} {} {}", d.line, d.col, d.rule, d.message.replace('\n', "\\n"));
    }
    for (line, rule) in &fa.allows {
        let _ = writeln!(s, "A {line} {rule}");
    }
}

/// Parses the whole cache file; `None` on any irregularity.
fn parse(text: &str) -> Option<BTreeMap<String, (u64, FileAnalysis)>> {
    let mut lines = text.lines();
    if lines.next()? != format!("numlint-cache v{RULESET_VERSION}") {
        return None;
    }
    let mut out: BTreeMap<String, (u64, FileAnalysis)> = BTreeMap::new();
    let mut cur: Option<(String, u64, FileAnalysis)> = None;
    for line in lines {
        let (tag, rest) = line.split_at(line.char_indices().nth(1).map(|(i, _)| i)?);
        let rest = rest.strip_prefix(' ')?;
        match tag {
            "F" => {
                if let Some((file, hash, fa)) = cur.take() {
                    out.insert(file, (hash, fa));
                }
                let (hash_s, file) = rest.split_once(' ')?;
                let hash = u64::from_str_radix(hash_s, 16).ok()?;
                cur = Some((
                    file.to_string(),
                    hash,
                    FileAnalysis {
                        class: crate::engine::FileClass::classify(file),
                        diags: Vec::new(),
                        symbols: FileSymbols::default(),
                        allows: Vec::new(),
                        has_forbid_unsafe: false,
                    },
                ));
            }
            "B" => cur.as_mut()?.2.has_forbid_unsafe = rest == "1",
            "U" => {
                let (alias, full) = rest.split_once(' ')?;
                cur.as_mut()?.2.symbols.aliases.push((alias.to_string(), full.to_string()));
            }
            "N" => {
                let mut it = rest.splitn(9, ' ');
                let line = it.next()?.parse().ok()?;
                let col = it.next()?.parse().ok()?;
                let is_pub = it.next()? == "1";
                let returns_result = it.next()? == "1";
                let in_wallclock = it.next()? == "1";
                let name = it.next()?.to_string();
                let module = it.next()?.to_string();
                let self_ty = match it.next()? {
                    "-" => String::new(),
                    s => s.to_string(),
                };
                let qual = it.next()?.to_string();
                let entry = cur.as_mut()?;
                entry.2.symbols.fns.push(FnSym {
                    name,
                    qual,
                    module,
                    self_ty,
                    file: entry.0.clone(),
                    line,
                    col,
                    is_pub,
                    returns_result,
                    in_wallclock,
                    seeds: Vec::new(),
                    calls: Vec::new(),
                });
            }
            "S" => {
                let mut it = rest.splitn(4, ' ');
                let line = it.next()?.parse().ok()?;
                let contained = it.next()? == "1";
                let effect = it.next()?.parse().ok()?;
                let what = it.next()?.to_string();
                cur.as_mut()?.2.symbols.fns.last_mut()?.seeds.push(Seed {
                    effect,
                    what,
                    line,
                    contained,
                });
            }
            "C" => {
                let mut it = rest.splitn(4, ' ');
                let line = it.next()?.parse().ok()?;
                let contained = it.next()? == "1";
                let is_method = it.next()? == "1";
                let path = it.next()?.to_string();
                cur.as_mut()?.2.symbols.fns.last_mut()?.calls.push(CallSite {
                    path,
                    is_method,
                    line,
                    contained,
                });
            }
            "D" => {
                let mut it = rest.splitn(4, ' ');
                let line = it.next()?.parse().ok()?;
                let col = it.next()?.parse().ok()?;
                let rule = crate::rules::canonical_rule_id(it.next()?)?;
                let message = it.next()?.replace("\\n", "\n");
                cur.as_mut()?.2.diags.push(Diagnostic {
                    line,
                    col,
                    rule,
                    message,
                    chain: Vec::new(),
                });
            }
            "A" => {
                let (line, rule) = rest.split_once(' ')?;
                cur.as_mut()?.2.allows.push((line.parse().ok()?, rule.to_string()));
            }
            _ => return None,
        }
    }
    if let Some((file, hash, fa)) = cur.take() {
        out.insert(file, (hash, fa));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_file;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }

    #[test]
    fn roundtrip_preserves_analysis() {
        let src = "use numkit::svd::jacobi;\n\
                   pub fn top() -> Result<(), E> { jacobi(); v[0]; Ok(()) }\n\
                   fn bad() { x.unwrap(); let t = Instant::now(); }\n";
        let path = "crates/lti/src/a.rs";
        let fa = analyze_file(path, src);
        assert!(!fa.symbols.fns.is_empty());
        assert!(!fa.diags.is_empty(), "expected DET02 finding: {:?}", fa.diags);

        let mut s = format!("numlint-cache v{RULESET_VERSION}\n");
        render_entry(&mut s, path, fnv64(src.as_bytes()), &fa);
        let parsed = parse(&s).expect("parse back");
        let (h, back) = parsed.get(path).expect("entry");
        assert_eq!(*h, fnv64(src.as_bytes()));
        assert_eq!(back, &fa);
    }

    #[test]
    fn version_mismatch_discards() {
        assert!(parse("numlint-cache v0\nF 00 x.rs\n").is_none());
        assert!(parse("garbage").is_none());
    }

    #[test]
    fn lookup_hit_and_miss_accounting() {
        let src = "pub fn f() {}\n";
        let path = "crates/lti/src/a.rs";
        let fa = analyze_file(path, src);
        let mut cache = Cache::default();
        cache.entries.insert(path.to_string(), (fnv64(src.as_bytes()), fa.clone()));
        assert!(cache.lookup(path, fnv64(src.as_bytes())).is_some());
        assert!(cache.lookup(path, fnv64(b"changed")).is_none());
        assert!(cache.lookup("crates/lti/src/b.rs", 1).is_none());
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }
}
