//! The self-run: the live workspace must have zero findings. This is the
//! same check CI's `sflint` step enforces, kept in-tree so `cargo test`
//! alone catches a regression.

use sparseflex_analyze::{framework, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_has_zero_findings() {
    let report = framework::analyze_workspace(&workspace_root());
    assert!(report.files_scanned > 100, "walker found too few files");
    assert!(
        report.findings.is_empty(),
        "findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  [{}] {}:{}: {}", f.lint, f.file, f.line, f.excerpt))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_hot_fn_names_a_function() {
    // A renamed hot function would silently drop out of the lint.
    let root = workspace_root();
    for (file, func) in framework::AnalysisConfig::workspace().hot_fns {
        let text = std::fs::read_to_string(root.join(&file)).expect("hot file reads");
        let src = SourceFile::parse(&file, &text);
        assert!(
            src.fns.iter().any(|f| f.name == func),
            "{file} has no fn {func}"
        );
    }
}

#[test]
fn lock_graph_stays_acyclic() {
    let root = workspace_root();
    let report = framework::analyze_workspace(&root);
    let cycles = report.of("lock-order-cycle");
    assert!(cycles.is_empty(), "{cycles:?}");
    // The detector is actually looking at the real lock web, not an
    // empty graph: the serve scheduler's deque->central edge must exist.
    assert!(
        report
            .edges
            .iter()
            .any(|e| e.from == "deques" && e.to == "central"),
        "expected serve work-stealing edges in {:?}",
        report.edges
    );
}
