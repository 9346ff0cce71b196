//! `sflint` — the workspace lint driver.
//!
//! Modes:
//!
//! - default: analyze the workspace, print the lock graph's edges and
//!   every finding, and exit 1 if there is any finding. This is the CI
//!   mode.
//! - `--check <path>`: analyze one file, or every `.rs` file under a
//!   directory as one tree, with no extra hot code configured; exit 1
//!   if it has findings. Used by CI to prove each fixture violation
//!   class actually trips its lint.

use sparseflex_analyze::{framework, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();

    match args.as_slice() {
        [] => run_workspace(&root),
        [flag, file] if flag == "--check" => check_one(&root, Path::new(file)),
        _ => {
            eprintln!("usage: sflint [--check <file.rs | dir>]");
            ExitCode::from(2)
        }
    }
}

/// The repo root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn run_workspace(root: &Path) -> ExitCode {
    let report = framework::analyze_workspace(root);
    println!(
        "sflint: {} file(s) scanned, {} lock edge(s)",
        report.files_scanned,
        report.edges.len()
    );
    if !report.edges.is_empty() {
        println!("\nlock-acquisition graph (lock-while-holding edges):");
        for e in &report.edges {
            println!("  {e}");
        }
    }
    print_findings(&report, "the workspace")
}

fn check_one(root: &Path, file: &Path) -> ExitCode {
    let path = if file.is_absolute() {
        file.to_path_buf()
    } else {
        root.join(file)
    };
    if !path.exists() {
        eprintln!("sflint: no such file or directory: {}", path.display());
        return ExitCode::from(2);
    }
    let report = framework::analyze_paths(root, &[path], &framework::AnalysisConfig::default());
    print_findings(&report, &file.display().to_string())
}

/// Print every finding; fail when there is any.
fn print_findings(report: &Report, scope: &str) -> ExitCode {
    for f in &report.findings {
        println!("[{}] {}:{}: {}", f.lint, f.file, f.line, f.excerpt);
        println!("    {}", f.message);
    }
    println!("sflint: {} finding(s) in {scope}", report.findings.len());
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
