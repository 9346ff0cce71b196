//! Expected-findings snapshots over the seeded fixture corpus: each
//! violation class must trip its lint (so the CI gate demonstrably
//! catches regressions), and the clean fixture must pass everything.

use sparseflex_analyze::{framework, AnalysisConfig, Report};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn analyze_fixture(name: &str) -> Report {
    let root = workspace_root();
    let path = root.join("crates/analyze/fixtures").join(name);
    assert!(path.exists(), "missing fixture {}", path.display());
    framework::analyze_paths(&root, &[path], &AnalysisConfig::default())
}

fn lints(report: &Report) -> Vec<(&str, usize)> {
    report
        .findings
        .iter()
        .map(|f| (f.lint.as_str(), f.line))
        .collect()
}

#[test]
fn alloc_fixture_flags_each_seeded_allocation() {
    let report = analyze_fixture("alloc_hot.rs");
    let allocs: Vec<usize> = report
        .of("alloc-in-hot-path")
        .iter()
        .map(|f| f.line)
        .collect();
    // collect, vec!, and to_vec inside the two traversal call bodies —
    // and nothing from the cold path below them.
    assert_eq!(allocs.len(), 3, "{:?}", lints(&report));
    assert!(report
        .of("alloc-in-hot-path")
        .iter()
        .all(|f| !f.excerpt.contains("with_capacity")));
}

#[test]
fn lock_cycle_fixture_reports_the_opposite_order_pair() {
    let report = analyze_fixture("lock_cycle.rs");
    let cycles = report.of("lock-order-cycle");
    assert_eq!(cycles.len(), 1, "{:?}", lints(&report));
    let msg = &cycles[0].message;
    assert!(msg.contains("queue") && msg.contains("stats"), "{msg}");
    // Both directions appear in the evidence edge list.
    assert!(
        msg.contains("queue -> stats") && msg.contains("stats -> queue"),
        "{msg}"
    );
    assert!(report
        .edges
        .iter()
        .any(|e| e.from == "queue" && e.to == "stats"));
    assert!(report
        .edges
        .iter()
        .any(|e| e.from == "stats" && e.to == "queue"));
}

#[test]
fn pub_fixture_flags_the_orphans_and_spares_the_called_item() {
    let report = analyze_fixture("pub_without_caller");
    assert_eq!(report.files_scanned, 2);
    let found: Vec<(&str, usize)> = report
        .of("pub-without-caller")
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    let lib = "crates/analyze/fixtures/pub_without_caller/src/lib.rs";
    // `orphan_helper`, `ORPHAN_LIMIT` and the free `method_named`, not
    // `called_helper`, the `pub(crate)` item or the test helper; the
    // caller file, outside `src/`, is not library code.
    assert_eq!(
        found,
        vec![(lib, 15), (lib, 20), (lib, 24)],
        "{:?}",
        lints(&report)
    );
    assert_eq!(report.findings.len(), 3, "{:?}", lints(&report));
}

#[test]
fn clean_fixture_has_zero_findings() {
    let report = analyze_fixture("clean.rs");
    assert!(report.findings.is_empty(), "{:?}", lints(&report));
}

#[test]
fn pragma_waives_a_seeded_violation() {
    let root = workspace_root();
    let dir = std::env::temp_dir().join("sflint-fixture-pragma");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("pragma.rs");
    std::fs::write(
        &path,
        "fn f(s: &S, a: &mut Arena) {\n    s.for_each_fiber_in(a, &mut |_, cols, _| {\n        // sflint::allow(alloc-in-hot-path)\n        let warm = cols.to_vec();\n        let copy = cols.to_vec();\n    });\n}\n",
    )
    .expect("write temp fixture");
    let report = framework::analyze_paths(&root, &[path], &AnalysisConfig::default());
    // The pragma covers its own and the next line; the second copy
    // still fires.
    let allocs = report.of("alloc-in-hot-path");
    assert_eq!(allocs.len(), 1, "{:?}", lints(&report));
    assert_eq!(allocs[0].line, 5);
}
