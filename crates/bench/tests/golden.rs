//! Golden seeded reports: `table5`, `fig6` and `fig8` at the `experiments`
//! CLI defaults must match the committed files under `tests/golden/`
//! byte for byte.
//!
//! The reports carry no timings, so any difference is a moved result: a
//! kernel, estimator, search or sampler that now answers differently. A
//! change that means to move them re-pins the files in the same diff. On a
//! mismatch the fresh report is written next to the test binaries (the path
//! is in the panic message) so it can be diffed and, if intended, copied over.

use dance_bench::{exp_correlation, exp_tables, DEFAULT_SCALE, DEFAULT_SEED};
use std::path::Path;

fn check(name: &str, report: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    if report != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.txt"));
        std::fs::write(&fresh, report).expect("write fresh report");
        panic!(
            "{name} moved: diff {} {}",
            golden.display(),
            fresh.display()
        );
    }
}

#[test]
fn table5_matches_golden() {
    check("table5", &exp_tables::table5(DEFAULT_SCALE, DEFAULT_SEED));
}

#[test]
fn fig6_matches_golden() {
    check("fig6", &exp_correlation::fig6(DEFAULT_SCALE, DEFAULT_SEED));
}

#[test]
fn fig8_matches_golden() {
    check("fig8", &exp_correlation::fig8(DEFAULT_SCALE, DEFAULT_SEED));
}
