//! `alloc-in-hot-path`: the zero-alloc steady-state contract, checked
//! statically.
//!
//! The arena work (PR 8/9) made every `for_each_fiber_in` /
//! `for_each_fiber_range_in` traversal allocation-free in steady state,
//! and `kernels_gate` re-proves it dynamically under a counting global
//! allocator — minutes into CI. This lint fails in seconds instead: it
//! flags allocation tokens (`Vec::new`, `vec![..]`, `with_capacity`,
//! `.collect`, `.to_vec()`, `Box::new`, `String::new`) inside the
//! **hot regions**:
//!
//! - the balanced argument region of every `for_each_fiber_in` /
//!   `for_each_fiber_range_in` *call* (the consumer closures — format
//!   implementations draw scratch from the arena and are exercised by
//!   the dynamic gate);
//! - the whole of `kernels::lanes` (the shared vectorized inner loops);
//! - the bodies of `spgemm::{gustavson_row, rowwise_row}` (the bitmap
//!   accumulator and the k-way merge replaying its addition order, both
//!   on caller-owned buffers);
//! - the per-format size and conversion-cost formulas
//!   (`size_model::{matrix_charge, tensor_storage_bits}`,
//!   `mint::cost::{conversion_cost, tensor_conversion_cost}`), which
//!   SAGE calls for every candidate it prices;
//! - the per-pass, per-beat and per-MAC loops of the cycle simulators
//!   (`accel::exec`), which run once per stationary tile;
//! - the per-element loops of the stationary operand's schedule, cut and
//!   conversion walks (`formats::{tiler, build}`, CSC's column slice and
//!   the ZVC→Dense and ZVC→CSC mask scatters of `formats::convert`),
//!   which run over every stored entry of every tile;
//! - the per-entry loops inside the format walks that draw their scratch
//!   from the arena: ZVC's set-bit decoder (`zvc::for_each_set_bit`) and
//!   HiCOO's radix sort (`traverse::radix_order`).
//!
//! Deliberate warm-up allocation can be waived per line with
//! `// sflint::allow(alloc-in-hot-path)`.

use crate::framework::{AnalysisConfig, Finding};
use crate::lexer::SourceFile;

/// The lint's name, as used in findings and pragmas.
pub const NAME: &str = "alloc-in-hot-path";

/// Allocation tokens and the sub-token that must follow for a match
/// (empty = any boundary).
const PATTERNS: &[&str] = &[
    "Vec::new",
    "vec!",
    "with_capacity",
    ".collect",
    ".to_vec()",
    "Box::new",
    "String::new",
];

/// Scan one file for allocations inside its hot regions.
pub fn run(src: &SourceFile, config: &AnalysisConfig) -> Vec<Finding> {
    let mut hot: Vec<bool> = vec![false; src.lines.len()];

    if config.hot_files.iter().any(|f| f == &src.path) {
        hot.iter_mut().for_each(|h| *h = true);
    }
    for (file, func) in &config.hot_fns {
        if file != &src.path {
            continue;
        }
        for f in src.fns.iter().filter(|f| &f.name == func) {
            for cell in hot.iter_mut().take(f.end_line + 1).skip(f.start_line) {
                *cell = true;
            }
        }
    }
    for callee in ["for_each_fiber_in", "for_each_fiber_range_in"] {
        for span in src.call_spans(callee) {
            for cell in hot.iter_mut().take(span.end_line + 1).skip(span.start_line) {
                *cell = true;
            }
        }
    }

    let mut findings = Vec::new();
    for (li, line) in src.lines.iter().enumerate() {
        if !hot[li] || line.in_test || src.is_allowed(NAME, li) {
            continue;
        }
        for pat in PATTERNS {
            let mut from = 0usize;
            while let Some(col) = find_pattern(&line.code, pat, from) {
                from = col + pat.len();
                findings.push(Finding {
                    lint: NAME.to_string(),
                    file: src.path.clone(),
                    line: li + 1,
                    excerpt: src.excerpt(li),
                    message: format!(
                        "`{pat}` allocates inside a hot path (zero-alloc steady-state \
                         contract); draw scratch from the StreamArena or hoist the \
                         allocation out of the traversal"
                    ),
                });
            }
        }
    }
    findings
}

/// Word-bounded-ish pattern search: the character before the match must
/// not extend an identifier, and `.collect` must be a call or turbofish.
fn find_pattern(code: &str, pat: &str, from: usize) -> Option<usize> {
    let mut start = from.min(code.len());
    while let Some(rel) = code[start..].find(pat) {
        let col = start + rel;
        start = col + pat.len();
        // For dot-prefixed patterns the dot is itself the boundary; for
        // the rest, the preceding char must not extend an identifier.
        let before_ok = pat.starts_with('.')
            || col == 0
            || !code[..col]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &code[col + pat.len()..];
        let after_ok = match pat {
            ".collect" => after.starts_with('(') || after.starts_with("::<"),
            "with_capacity" | "Vec::new" | "Box::new" | "String::new" => after.starts_with('('),
            _ => true,
        };
        if before_ok && after_ok {
            return Some(col);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_hot_fn() -> AnalysisConfig {
        AnalysisConfig {
            hot_fns: vec![("t.rs".into(), "hot".into())],
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn flags_allocs_in_fiber_call_closures() {
        let src = SourceFile::parse(
            "t.rs",
            "fn f(s: &S, a: &mut Arena) {\n    s.for_each_fiber_in(a, &mut |r, c, v| {\n        let x: Vec<f64> = v.iter().copied().collect();\n        let y = vec![0.0; c.len()];\n    });\n    let fine = Vec::with_capacity(4);\n}\n",
        );
        let f = run(&src, &AnalysisConfig::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.lint == NAME));
        // The allocation outside the call span is not hot.
        assert!(f.iter().all(|f| f.line == 3 || f.line == 4));
    }

    #[test]
    fn hot_fn_bodies_and_hot_files_are_covered() {
        let src = SourceFile::parse(
            "t.rs",
            "fn hot(out: &mut Vec<usize>) {\n    let tmp = data.to_vec();\n}\nfn cold() {\n    let v = vec![1];\n}\n",
        );
        let f = run(&src, &cfg_hot_fn());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);

        let file_cfg = AnalysisConfig {
            hot_files: vec!["t.rs".into()],
            ..AnalysisConfig::default()
        };
        let f = run(&src, &file_cfg);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn pragma_and_tests_suppress() {
        let src = SourceFile::parse(
            "t.rs",
            "fn hot() {\n    // sflint::allow(alloc-in-hot-path)\n    let warm = Vec::with_capacity(8);\n}\n#[cfg(test)]\nmod tests {\n    fn hot() {\n        let v = vec![1];\n    }\n}\n",
        );
        assert!(run(&src, &cfg_hot_fn()).is_empty());
    }
}
