//! The lint framework: finding/edge records, the analysis
//! configuration (which paths each lint covers), the workspace file
//! walker, and the runner that produces a [`Report`].

use crate::lexer::SourceFile;
use crate::{alloc_hot, lock_order, pub_caller};
use std::path::{Path, PathBuf};

/// One lint finding: a violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Lint name (e.g. `alloc-in-hot-path`).
    pub lint: String,
    /// Root-relative file path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line the finding anchors to.
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One lock-while-holding edge in the Mutex-acquisition graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held at the acquisition site.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// File of the acquisition site.
    pub file: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
    /// Callee that performs the acquisition, when the edge is
    /// call-mediated rather than a direct `.lock()`.
    pub via: Option<String>,
}

impl std::fmt::Display for LockEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} -> {} ({}:{}",
            self.from, self.to, self.file, self.line
        )?;
        if let Some(via) = &self.via {
            write!(f, ", via {via}()")?;
        }
        write!(f, ")")
    }
}

/// Which code the hot-path lint treats as hot beyond the fiber-traversal
/// call bodies it always covers. [`AnalysisConfig::workspace`] is the
/// committed policy for this repository; the default (no extra hot code)
/// is what single-file fixture checks use.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Files whose entire non-test body is a hot path (no allocation
    /// tokens anywhere).
    pub hot_files: Vec<String>,
    /// `(file, fn)` pairs whose bodies are hot paths.
    pub hot_fns: Vec<(String, String)>,
}

impl AnalysisConfig {
    /// The committed lint policy for this workspace.
    pub fn workspace() -> Self {
        AnalysisConfig {
            hot_files: vec!["crates/kernels/src/lanes.rs".into()],
            hot_fns: [
                ("crates/kernels/src/spgemm.rs", "gustavson_row"),
                ("crates/kernels/src/spgemm.rs", "rowwise_row"),
                // The shared ZVC set-bit decoder and HiCOO's radix sort,
                // which run over every stored entry of a walk.
                ("crates/formats/src/zvc.rs", "for_each_set_bit"),
                ("crates/formats/src/traverse.rs", "radix_order"),
                ("crates/formats/src/size_model.rs", "matrix_charge"),
                ("crates/formats/src/size_model.rs", "tensor_storage_bits"),
                ("crates/mint/src/cost.rs", "conversion_cost"),
                ("crates/mint/src/cost.rs", "tensor_conversion_cost"),
                // The cycle simulators' per-tile, per-pass, per-beat and
                // per-MAC loops, the shape counts and the register-lane
                // value MACs; their scratch is sized once per run of
                // tiles, outside these bodies.
                ("crates/accel/src/exec.rs", "nonzeros"),
                ("crates/accel/src/exec.rs", "effective"),
                ("crates/accel/src/exec.rs", "dense_b_tile"),
                ("crates/accel/src/exec.rs", "count_dense_b_pass"),
                ("crates/accel/src/exec.rs", "beats_of"),
                ("crates/accel/src/exec.rs", "dense_b_values"),
                ("crates/accel/src/exec.rs", "mac_row"),
                ("crates/accel/src/exec.rs", "mac_lanes"),
                ("crates/accel/src/exec.rs", "csc_b_tile"),
                ("crates/accel/src/exec.rs", "load_pass"),
                ("crates/accel/src/exec.rs", "stream_pass"),
                ("crates/accel/src/exec.rs", "elem"),
                ("crates/accel/src/exec.rs", "end_beat"),
                ("crates/accel/src/exec.rs", "end_pass"),
                ("crates/accel/src/exec.rs", "dense_rows"),
                ("crates/accel/src/exec.rs", "dense_values"),
                ("crates/accel/src/exec.rs", "count_dense_rows"),
                // Every function a Gustavson tile's loops run in: the
                // tile's pass split, each pass, and per pair the next B
                // row, A's row window, the output row, the beat counters
                // and a beat's cycles.
                ("crates/accel/src/exec.rs", "simulate_spgemm_into"),
                ("crates/accel/src/exec.rs", "load"),
                ("crates/accel/src/exec.rs", "gustavson_pass"),
                ("crates/accel/src/exec.rs", "next_row"),
                ("crates/accel/src/exec.rs", "window"),
                ("crates/accel/src/exec.rs", "row"),
                ("crates/accel/src/exec.rs", "add"),
                ("crates/accel/src/exec.rs", "end"),
                ("crates/accel/src/exec.rs", "beat_cycles"),
                ("crates/formats/src/csr.rs", "row"),
                ("crates/formats/src/csr.rs", "row_nnz"),
                // The stationary tile's schedule, cut and conversion walks:
                // the schedule's column histogram and counting sort, the
                // cut straight from B's triplets and its row split, and
                // MINT's ZVC→Dense and ZVC→CSC mask scatters. Their
                // buffers are sized once per call or per tile, outside
                // these bodies.
                ("crates/formats/src/tiler.rs", "count_columns"),
                ("crates/formats/src/tiler.rs", "group_rows"),
                ("crates/formats/src/tiler.rs", "widen_ranges"),
                ("crates/formats/src/tiler.rs", "cut_schedule"),
                ("crates/formats/src/tiler.rs", "split_row"),
                ("crates/formats/src/convert.rs", "zvc_to_dense"),
                ("crates/formats/src/convert.rs", "for_each_kept_bit"),
                ("crates/formats/src/csc.rs", "copy_columns"),
                ("crates/formats/src/traverse.rs", "csc_sorted_band"),
                ("crates/formats/src/build.rs", "push_run"),
                ("crates/formats/src/csr.rs", "push"),
                ("crates/formats/src/rlc.rs", "push"),
                ("crates/formats/src/zvc.rs", "push"),
            ]
            .into_iter()
            .map(|(file, func)| (file.into(), func.into()))
            .collect(),
        }
    }
}

/// The full output of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// The Mutex-acquisition graph's lock-while-holding edges
    /// (informational; cycles over them become findings).
    pub edges: Vec<LockEdge>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings of one lint.
    pub fn of(&self, lint: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint == lint).collect()
    }
}

/// Collect the `.rs` files the workspace policy lints: `src/` trees of
/// the root package and every `crates/*` member. Vendored stand-ins,
/// integration tests, examples, benches and the analyzer's own fixture
/// corpus are not linted; tests, examples and the benchmark only count
/// as callers (`caller_files`).
fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    for member in members(root) {
        collect_rs(&member.join("src"), &mut files);
    }
    files.sort();
    files
}

/// The files that may call a library crate's `pub` items without being
/// linted themselves: every member's `tests/`, and the root `tests/`,
/// `examples/` and the benchmark's `sfbench/src/`.
fn caller_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["tests", "examples", "sfbench/src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    for member in members(root) {
        collect_rs(&member.join("tests"), &mut files);
    }
    files.sort();
    files
}

/// The `crates/*` member directories, sorted.
fn members(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut members: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    members
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Parse `paths` (made root-relative) and run every lint. A directory
/// stands for every `.rs` file under it, so a fixture can span files.
///
/// A first pass over the texts finds braceless `#[cfg(test)] mod x;`
/// declarations: the referenced files (`x.rs` / `x/mod.rs`) are test
/// code even though nothing inside them says so, and are marked
/// entirely in-test before linting.
pub fn analyze_paths(root: &Path, paths: &[PathBuf], config: &AnalysisConfig) -> Report {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs(p, &mut files);
        } else {
            files.push(p.clone());
        }
    }
    analyze_with_callers(root, &files, &[], config)
}

/// Lint `paths`; `callers` only count as callers of their `pub` items.
fn analyze_with_callers(
    root: &Path,
    paths: &[PathBuf],
    callers: &[PathBuf],
    config: &AnalysisConfig,
) -> Report {
    let mut texts: Vec<(PathBuf, String)> = Vec::new();
    for p in paths {
        if let Ok(text) = std::fs::read_to_string(p) {
            texts.push((p.clone(), text));
        }
    }
    let mut test_files: Vec<PathBuf> = Vec::new();
    for (p, text) in &texts {
        let Some(dir) = p.parent() else { continue };
        for name in cfg_test_mod_decls(text) {
            test_files.push(dir.join(format!("{name}.rs")));
            test_files.push(dir.join(&name).join("mod.rs"));
        }
    }
    let mut sources = Vec::new();
    for (p, text) in &texts {
        let mut src = SourceFile::parse(&relative(root, p), text);
        if test_files.iter().any(|t| t == p) {
            for line in &mut src.lines {
                line.in_test = true;
            }
        }
        sources.push(src);
    }
    let callers: Vec<SourceFile> = callers
        .iter()
        .filter_map(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            Some(SourceFile::parse(&relative(root, p), &text))
        })
        .collect();
    analyze_sources(&sources, &callers, config)
}

/// `path` relative to `root`, with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Names of braceless modules declared under a `#[cfg(test)]`
/// attribute (`#[cfg(test)] mod x;` → `x`).
fn cfg_test_mod_decls(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut pending = false;
    for line in text.lines() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            pending = true;
            continue;
        }
        if pending {
            if let Some(rest) = t.strip_prefix("mod ") {
                if let Some(name) = rest.strip_suffix(';') {
                    out.push(name.trim().to_string());
                }
            }
            // Any other attribute keeps the marker pending; code clears it.
            if !t.starts_with("#[") {
                pending = false;
            }
        }
    }
    out
}

/// Run every lint over already-parsed sources.
fn analyze_sources(
    sources: &[SourceFile],
    callers: &[SourceFile],
    config: &AnalysisConfig,
) -> Report {
    let mut findings = Vec::new();
    for src in sources {
        findings.extend(alloc_hot::run(src, config));
    }
    let (edges, cycle_findings) = lock_order::run(sources);
    findings.extend(cycle_findings);
    findings.extend(pub_caller::run(sources, callers));
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.excerpt).cmp(&(&b.file, b.line, &b.lint, &b.excerpt))
    });
    Report {
        findings,
        edges,
        files_scanned: sources.len(),
    }
}

/// Convenience: run the workspace policy over the whole tree at `root`.
pub fn analyze_workspace(root: &Path) -> Report {
    analyze_with_callers(
        root,
        &workspace_files(root),
        &caller_files(root),
        &AnalysisConfig::workspace(),
    )
}
