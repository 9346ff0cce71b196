//! `lock-order-cycle`: a static Mutex-acquisition graph and deadlock
//! detector.
//!
//! The serving stack acquires a growing web of locks — the service's
//! `central` state, per-worker `deques`, per-job ticket slots, the
//! sharded `PlanCache`, the calibrator's state. A deadlock
//! needs two threads acquiring the same pair of locks in opposite
//! orders; this lint extracts the **lock-while-holding** edges from
//! every function and reports any cycle in the resulting graph as a
//! potential deadlock, with the full edge list (file:line each) in the
//! finding.
//!
//! Extraction is token-level and deliberately conservative:
//!
//! - `X.lock()` acquires the lock named by the last field/identifier of
//!   the receiver chain (`self.shared.central.lock()` → `central`,
//!   `self.deques[w].lock()` → `deques`); numeric tuple fields and
//!   `self`/`shared` wrappers are skipped.
//! - A `let`-bound guard is held until `drop(binding)` or the end of
//!   its block; an unbound (temporary) guard is held until the end of
//!   the statement — and, matching Rust 2021 temporary-lifetime rules,
//!   an `if let`/`while let`/`match` scrutinee temporary is treated as
//!   held through the dependent block.
//! - Calls to same-file functions propagate: holding `A` while calling
//!   `f()` adds `A → L` for every lock `L` that `f` (transitively)
//!   acquires.
//! - `.try_lock()` is ignored: it cannot block, so it cannot close a
//!   deadlock cycle.
//!
//! Edges are informational (printed by the report); only cycles over
//! distinct locks become gate findings. Same-name re-acquisition
//! (`deques` while holding `deques`) is recorded as a self-edge in the
//! edge list for human review, but conservative guard-lifetime
//! over-approximation makes it too noisy to gate on.

use crate::framework::{Finding, LockEdge};
use crate::lexer::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// The lint's name, as used in findings and pragmas.
pub const NAME: &str = "lock-order-cycle";

/// A guard currently held during simulation.
#[derive(Debug, Clone)]
struct Held {
    name: String,
    binding: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below it.
    depth: usize,
    /// Unbound temporaries die at the first `;` back at their own
    /// depth — which models the 2021 scrutinee-lifetime extension for
    /// free: an `if let`/`while let`/`match` head has no `;` until
    /// after its dependent block, so the temporary is held through it.
    stmt_temporary: bool,
}

/// Run the detector over every parsed source; returns the global edge
/// list and the cycle findings.
pub fn run(sources: &[SourceFile]) -> (Vec<LockEdge>, Vec<Finding>) {
    let mut edges: Vec<LockEdge> = Vec::new();
    for src in sources {
        let summaries = fn_summaries(src);
        for f in &src.fns {
            if src.lines[f.start_line].in_test {
                continue;
            }
            simulate_fn(src, f.start_line, f.end_line, &summaries, &mut edges);
        }
    }
    // Deduplicate by (from, to, via), keeping the first site.
    let mut seen = BTreeSet::new();
    edges.retain(|e| seen.insert((e.from.clone(), e.to.clone(), e.via.clone())));
    edges.sort_by(|a, b| (&a.file, a.line, &a.from, &a.to).cmp(&(&b.file, b.line, &b.from, &b.to)));

    let findings = find_cycles(&edges, sources);
    (edges, findings)
}

/// Direct + transitive (same-file) lock-name summaries per function.
fn fn_summaries(src: &SourceFile) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &src.fns {
        let mut locks = BTreeSet::new();
        for li in f.start_line..=f.end_line.min(src.lines.len().saturating_sub(1)) {
            if !covered_by(src, f, li) {
                continue;
            }
            let code = &src.lines[li].code;
            let mut from = 0usize;
            while let Some(col) = find_lock_call(code, from) {
                from = col + ".lock()".len();
                if let Some(name) = receiver_name(code, col) {
                    locks.insert(name);
                }
            }
            let mut from = 0usize;
            while let Some(col) = find_wrapper_call(code, from) {
                from = col + WRAPPER.len();
                if let Some(name) = wrapper_arg_name(code, col + WRAPPER.len()) {
                    locks.insert(name);
                }
            }
        }
        direct.entry(f.name.clone()).or_default().extend(locks);
    }
    // Fixpoint over the same-file call graph (bounded — the graph is
    // tiny and monotone).
    for _ in 0..5 {
        let snapshot = direct.clone();
        let mut changed = false;
        for f in &src.fns {
            let mut add = BTreeSet::new();
            for li in f.start_line..=f.end_line.min(src.lines.len().saturating_sub(1)) {
                for callee in call_idents(&src.lines[li].code) {
                    if callee == f.name {
                        continue;
                    }
                    if let Some(locks) = snapshot.get(&callee) {
                        add.extend(locks.iter().cloned());
                    }
                }
            }
            let entry = direct.entry(f.name.clone()).or_default();
            let before = entry.len();
            entry.extend(add);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }
    direct
}

/// Identifiers in `code` that look like calls (followed by `(`),
/// excluding keywords and `fn` definitions. Used only to propagate
/// same-file lock summaries, so over-approximation is fine.
fn call_idents(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !(chars[i].is_alphabetic() || chars[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        let mut j = i;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        let is_call = chars.get(j) == Some(&'(');
        let preceding: String = chars[..start]
            .iter()
            .collect::<String>()
            .trim_end()
            .to_string();
        let is_def = preceding.ends_with("fn");
        if is_call
            && !is_def
            && !is_keyword(&word)
            && word != "lock"
            && word != "try_lock"
            && word != WRAPPER
        {
            out.push(word);
        }
    }
    out
}

/// Is `line` inside `f`'s span but not inside a nested fn? (Nested fns
/// simulate separately; attributing their locks to the outer fn would
/// double-count.)
fn covered_by(src: &SourceFile, f: &crate::lexer::FnSpan, line: usize) -> bool {
    src.enclosing_fn(line)
        .is_some_and(|inner| inner.start_line == f.start_line && inner.end_line == f.end_line)
}

/// Simulate one function body, appending lock-while-holding edges.
fn simulate_fn(
    src: &SourceFile,
    start: usize,
    end: usize,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    edges: &mut Vec<LockEdge>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = src.lines[start].depth;
    let mut stmt_start = true;
    let mut stmt_is_let = false;
    let mut stmt_binding: Option<String> = None;
    let mut stmt_depth = depth;

    for li in start..=end.min(src.lines.len().saturating_sub(1)) {
        if !covered_by_span(src, start, end, li) {
            continue;
        }
        let code: &str = &src.lines[li].code;
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if stmt_start {
                stmt_is_let = ident_here(&chars, i, "let");
                stmt_binding = None;
                stmt_depth = depth;
                stmt_start = false;
                if stmt_is_let {
                    stmt_binding = first_binding_ident(&chars, i + 3);
                }
            }
            match c {
                '{' => {
                    depth += 1;
                    stmt_start = true;
                    i += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| depth >= h.depth);
                    stmt_start = true;
                    i += 1;
                }
                ';' => {
                    held.retain(|h| !(h.stmt_temporary && depth <= h.depth));
                    stmt_start = true;
                    i += 1;
                }
                'd' if ident_here(&chars, i, "drop") => {
                    // drop(binding)
                    let rest: String = chars[i + 4..].iter().collect();
                    let arg = rest.trim_start();
                    if let Some(stripped) = arg.strip_prefix('(') {
                        let name: String = stripped
                            .chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect();
                        if !name.is_empty() {
                            held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                        }
                    }
                    i += 4;
                }
                '.' if lock_call_here(&chars, i) => {
                    let name = receiver_name(code, byte_col(code, i)).unwrap_or_default();
                    if !name.is_empty() {
                        acquire(
                            &mut held,
                            edges,
                            name,
                            src,
                            li,
                            &stmt_binding,
                            stmt_depth,
                            stmt_is_let,
                        );
                    }
                    i += ".lock()".len();
                }
                'l' if ident_here(&chars, i, WRAPPER) => {
                    // `lock_clean(&x)` is the sanctioned poison-tolerant
                    // acquisition wrapper: treat it exactly like
                    // `x.lock()`.
                    let after = byte_col(code, i + WRAPPER.len());
                    if let Some(name) = wrapper_arg_name(code, after) {
                        acquire(
                            &mut held,
                            edges,
                            name,
                            src,
                            li,
                            &stmt_binding,
                            stmt_depth,
                            stmt_is_let,
                        );
                    }
                    i += WRAPPER.len();
                }
                _ if c.is_alphabetic() || c == '_' => {
                    // Possible call: propagate callee lock summaries.
                    let word_start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let word: String = chars[word_start..i].iter().collect();
                    let mut j = i;
                    while j < chars.len() && chars[j].is_whitespace() {
                        j += 1;
                    }
                    let is_call = chars.get(j) == Some(&'(');
                    if is_call && !held.is_empty() && !is_keyword(&word) {
                        if let Some(locks) = summaries.get(&word) {
                            for h in &held {
                                for l in locks {
                                    if *l == h.name {
                                        continue;
                                    }
                                    edges.push(LockEdge {
                                        from: h.name.clone(),
                                        to: l.clone(),
                                        file: src.path.clone(),
                                        line: li + 1,
                                        via: Some(word.clone()),
                                    });
                                }
                            }
                        }
                    }
                }
                _ => {
                    i += 1;
                }
            }
        }
    }
}

/// Like [`covered_by`], against a raw span.
fn covered_by_span(src: &SourceFile, start: usize, end: usize, line: usize) -> bool {
    src.enclosing_fn(line)
        .is_some_and(|inner| inner.start_line == start && inner.end_line == end)
}

fn byte_col(code: &str, char_idx: usize) -> usize {
    code.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(code.len())
}

fn ident_here(chars: &[char], i: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if i + w.len() > chars.len() || chars[i..i + w.len()] != w[..] {
        return false;
    }
    let before_ok = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let after = chars.get(i + w.len());
    before_ok && !after.is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "let"
            | "fn"
            | "drop"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Vec"
            | "Box"
    )
}

/// First identifier of a `let` pattern (skipping `mut` and pattern
/// punctuation).
fn first_binding_ident(chars: &[char], from: usize) -> Option<String> {
    let mut i = from;
    loop {
        while i < chars.len() && !(chars[i].is_alphabetic() || chars[i] == '_') {
            if chars[i] == '=' {
                return None;
            }
            i += 1;
        }
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        if i == start {
            return None;
        }
        let word: String = chars[start..i].iter().collect();
        if word != "mut" {
            return Some(word);
        }
    }
}

/// Is `.lock()` (not `.try_lock()`) at char position `i` (the dot)?
fn lock_call_here(chars: &[char], i: usize) -> bool {
    let pat: Vec<char> = ".lock()".chars().collect();
    i + pat.len() <= chars.len() && chars[i..i + pat.len()] == pat[..]
}

/// Byte-level `.lock()` search (receiver ends at the returned column).
/// The literal dot already excludes `.try_lock()`: `_lock` has no dot
/// before `lock`.
fn find_lock_call(code: &str, from: usize) -> Option<usize> {
    let start = from.min(code.len());
    code[start..].find(".lock()").map(|rel| start + rel)
}

/// The sanctioned poison-tolerant acquisition wrapper, equivalent to a
/// `.lock()` on its argument.
const WRAPPER: &str = "lock_clean";

/// Word-bounded `lock_clean(` search.
fn find_wrapper_call(code: &str, from: usize) -> Option<usize> {
    let mut start = from.min(code.len());
    while let Some(rel) = code[start..].find(WRAPPER) {
        let col = start + rel;
        start = col + WRAPPER.len();
        let before_ok = col == 0
            || !code[..col]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
        let after_ok = code[col + WRAPPER.len()..].trim_start().starts_with('(');
        let not_def = !code[..col].trim_end().ends_with("fn");
        if before_ok && after_ok && not_def {
            return Some(col);
        }
    }
    None
}

/// Lock name acquired by a wrapper call whose argument list begins at or
/// after byte `from`: the receiver chain inside `( ... )`, with leading
/// `&`/`mut` stripped.
fn wrapper_arg_name(code: &str, from: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = from.min(bytes.len());
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'(') {
        return None;
    }
    let open = i;
    let mut bal = 0i64;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => bal += 1,
            b')' => {
                bal -= 1;
                if bal == 0 {
                    let inner = code[open + 1..i].trim();
                    let inner = inner.strip_prefix('&').unwrap_or(inner).trim_start();
                    let inner = inner.strip_prefix("mut ").unwrap_or(inner);
                    return receiver_name(inner, inner.len());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Record an acquisition: one edge per held lock, then hold the new one.
#[allow(clippy::too_many_arguments)]
fn acquire(
    held: &mut Vec<Held>,
    edges: &mut Vec<LockEdge>,
    name: String,
    src: &SourceFile,
    li: usize,
    stmt_binding: &Option<String>,
    stmt_depth: usize,
    stmt_is_let: bool,
) {
    for h in held.iter() {
        edges.push(LockEdge {
            from: h.name.clone(),
            to: name.clone(),
            file: src.path.clone(),
            line: li + 1,
            via: None,
        });
    }
    held.push(Held {
        name,
        binding: stmt_binding.clone(),
        depth: stmt_depth,
        stmt_temporary: stmt_binding.is_none() || !stmt_is_let,
    });
}

/// Name of the lock acquired by the `.lock()` whose dot is at byte
/// `col`: the last meaningful segment of the receiver chain.
fn receiver_name(code: &str, col: usize) -> Option<String> {
    let chars: Vec<char> = code[..col].chars().collect();
    let mut i = chars.len();
    let mut segments: Vec<String> = Vec::new();
    loop {
        // Skip whitespace.
        while i > 0 && chars[i - 1].is_whitespace() {
            i -= 1;
        }
        // Skip an index or call suffix.
        while i > 0 && (chars[i - 1] == ']' || chars[i - 1] == ')') {
            let open = if chars[i - 1] == ']' { '[' } else { '(' };
            let close = chars[i - 1];
            let mut bal = 0i64;
            while i > 0 {
                i -= 1;
                if chars[i] == close {
                    bal += 1;
                } else if chars[i] == open {
                    bal -= 1;
                    if bal == 0 {
                        break;
                    }
                }
            }
        }
        let end = i;
        while i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
            i -= 1;
        }
        if i == end {
            break;
        }
        segments.push(chars[i..end].iter().collect());
        // Continue through a field access chain.
        if i > 0 && chars[i - 1] == '.' {
            i -= 1;
            continue;
        }
        break;
    }
    // segments are innermost-last reversed: first element is the field
    // nearest the `.lock()`.
    segments
        .into_iter()
        .find(|s| {
            !s.is_empty() && !s.chars().all(|c| c.is_ascii_digit()) && s != "self" && s != "shared"
        })
        .map(|s| s.to_string())
}

/// Report every multi-lock cycle in the edge graph as a finding.
fn find_cycles(edges: &[LockEdge], sources: &[SourceFile]) -> Vec<Finding> {
    let cyclic: Vec<&LockEdge> = edges.iter().filter(|e| e.from != e.to).collect();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &cyclic {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let reach = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if *m == to {
                        return true;
                    }
                    stack.push(m);
                }
            }
        }
        false
    };
    // Group mutually-reachable nodes into components.
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut findings = Vec::new();
    for &n in &nodes {
        if assigned.contains(n) || !reach(n, n) {
            continue;
        }
        let mut comp: Vec<&str> = vec![n];
        for &m in &nodes {
            if m != n && reach(n, m) && reach(m, n) {
                comp.push(m);
            }
        }
        for m in &comp {
            assigned.insert(m);
        }
        comp.sort_unstable();
        let comp_edges: Vec<&&LockEdge> = cyclic
            .iter()
            .filter(|e| comp.contains(&e.from.as_str()) && comp.contains(&e.to.as_str()))
            .collect();
        let Some(first) = comp_edges.first() else {
            continue;
        };
        // A pragma on any participating acquisition waives the cycle.
        let allowed = comp_edges.iter().any(|e| {
            sources
                .iter()
                .find(|s| s.path == e.file)
                .is_some_and(|s| s.is_allowed(NAME, e.line.saturating_sub(1)))
        });
        if allowed {
            continue;
        }
        let edge_list = comp_edges
            .iter()
            .map(|e| format!("{e}"))
            .collect::<Vec<_>>()
            .join("; ");
        let excerpt = sources
            .iter()
            .find(|s| s.path == first.file)
            .map(|s| s.excerpt(first.line.saturating_sub(1)))
            .unwrap_or_default();
        findings.push(Finding {
            lint: NAME.to_string(),
            file: first.file.clone(),
            line: first.line,
            excerpt,
            message: format!(
                "potential deadlock: locks {{{}}} form an acquisition-order cycle; \
                 edges: {edge_list}",
                comp.join(", ")
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/l.rs", src)
    }

    #[test]
    fn opposite_orders_form_a_cycle_finding() {
        let src = parse(
            "fn ab(s: &S) {\n    let ga = s.a.lock().unwrap();\n    let gb = s.b.lock().unwrap();\n    use_both(ga, gb);\n}\nfn ba(s: &S) {\n    let gb = s.b.lock().unwrap();\n    let ga = s.a.lock().unwrap();\n    use_both(ga, gb);\n}\n",
        );
        let (edges, findings) = run(std::slice::from_ref(&src));
        assert!(edges.iter().any(|e| e.from == "a" && e.to == "b"));
        assert!(edges.iter().any(|e| e.from == "b" && e.to == "a"));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("a, b"));
        assert!(findings[0].message.contains("l.rs"));
    }

    #[test]
    fn consistent_order_yields_edges_but_no_cycle() {
        let src = parse(
            "fn ab(s: &S) {\n    let ga = s.a.lock().unwrap();\n    let gb = s.b.lock().unwrap();\n}\nfn ab2(s: &S) {\n    let ga = s.a.lock().unwrap();\n    let gb = s.b.lock().unwrap();\n}\n",
        );
        let (edges, findings) = run(std::slice::from_ref(&src));
        assert!(edges.iter().any(|e| e.from == "a" && e.to == "b"));
        assert!(!edges.iter().any(|e| e.from == "b" && e.to == "a"));
        assert!(findings.is_empty());
    }

    #[test]
    fn dropped_guard_breaks_the_edge() {
        let src = parse(
            "fn f(s: &S) {\n    let ga = s.a.lock().unwrap();\n    drop(ga);\n    let gb = s.b.lock().unwrap();\n}\nfn g(s: &S) {\n    let gb = s.b.lock().unwrap();\n    drop(gb);\n    let ga = s.a.lock().unwrap();\n}\n",
        );
        let (edges, findings) = run(std::slice::from_ref(&src));
        assert!(edges.is_empty(), "{edges:?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn block_scope_releases_bound_guards() {
        let src = parse(
            "fn f(s: &S) {\n    {\n        let ga = s.a.lock().unwrap();\n        touch(ga);\n    }\n    let gb = s.b.lock().unwrap();\n}\nfn g(s: &S) {\n    let gb = s.b.lock().unwrap();\n}\n",
        );
        let (edges, _) = run(std::slice::from_ref(&src));
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn call_mediated_edges_propagate_same_file() {
        let src = parse(
            "fn helper(s: &S) {\n    let gb = s.b.lock().unwrap();\n}\nfn f(s: &S) {\n    let ga = s.a.lock().unwrap();\n    helper(s);\n}\n",
        );
        let (edges, _) = run(std::slice::from_ref(&src));
        let e = edges
            .iter()
            .find(|e| e.from == "a" && e.to == "b")
            .expect("call-mediated edge");
        assert_eq!(e.via.as_deref(), Some("helper"));
    }

    #[test]
    fn try_lock_is_not_an_acquisition() {
        let src = parse(
            "fn f(s: &S) {\n    match s.state.try_lock() {\n        Ok(g) => use_it(g),\n        Err(_) => {\n            let g = s.state.lock().unwrap();\n        }\n    }\n}\n",
        );
        let (edges, findings) = run(std::slice::from_ref(&src));
        assert!(edges.is_empty(), "{edges:?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn if_let_scrutinee_temporary_extends_through_body() {
        let src = parse(
            "fn f(s: &S) {\n    if let Some(x) = s.deques.lock().unwrap().pop_front() {\n        let g = s.central.lock().unwrap();\n    }\n}\n",
        );
        let (edges, _) = run(std::slice::from_ref(&src));
        assert!(
            edges
                .iter()
                .any(|e| e.from == "deques" && e.to == "central"),
            "{edges:?}"
        );
    }

    #[test]
    fn lock_clean_wrapper_counts_as_acquisition() {
        let src = parse(
            "fn lock_clean(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    m.lock().unwrap_or_else(PoisonError::into_inner)\n}\nfn ab(s: &S) {\n    let ga = lock_clean(&s.a);\n    let gb = lock_clean(&mut s.b[0]);\n}\nfn ba(s: &S) {\n    let gb = lock_clean(&s.b);\n    let ga = lock_clean(&s.a);\n}\n",
        );
        let (edges, findings) = run(std::slice::from_ref(&src));
        assert!(
            edges.iter().any(|e| e.from == "a" && e.to == "b"),
            "{edges:?}"
        );
        assert!(
            edges.iter().any(|e| e.from == "b" && e.to == "a"),
            "{edges:?}"
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn receiver_names_normalize_chains_and_indexes() {
        assert_eq!(
            receiver_name("        self.shared.central", 27).as_deref(),
            Some("central")
        );
        assert_eq!(
            receiver_name("self.deques[worker]", 19).as_deref(),
            Some("deques")
        );
        assert_eq!(receiver_name("self.slot.0", 11).as_deref(), Some("slot"));
        assert_eq!(receiver_name("lock", 4).as_deref(), Some("lock"));
    }
}
