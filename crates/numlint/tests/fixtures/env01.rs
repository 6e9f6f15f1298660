//! ENV01 fixture: environment reads inside a library crate.

use std::env::var_os;

fn threads() -> Option<String> {
    std::env::var("PMTBR_THREADS").ok()
}

fn everything() -> usize {
    std::env::vars().count() + env::vars_os().count()
}

fn pinned() -> bool {
    // numlint:allow(ENV01) fixture: a justified, documented read
    std::env::var("PMTBR_PINNED").is_ok()
}

fn not_reads(cfg: &Config) -> usize {
    std::env::set_var("PMTBR_THREADS", "2"); // a write: fine
    let _ = env!("CARGO_PKG_NAME"); // compile-time macro: fine
    let _ = std::env::args().count(); // argv, not the environment
    cfg.var("x") + var(3) // a method and a local fn merely named var
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _ = std::env::var("PMTBR_FAULT");
    }
}
