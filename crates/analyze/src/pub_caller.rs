//! `pub-without-caller`: a library crate's `pub` item exists because
//! another file calls it.
//!
//! The lint flags every non-test `pub fn`, `pub const fn`, `pub const`
//! and `pub static` of a library file (`crates/*/src/**`, outside
//! `src/bin/`) whose name no other scanned file names. Callers are the
//! other linted files plus the caller-only corpus: the crates'
//! `tests/`, and the root `tests/`, `examples/` and `sfbench/src/`.
//!
//! Matching is by identifier, on the lexer's blanked lines, so a name
//! inside a comment or a string is not a caller; nor is a `pub use`
//! re-export, which only widens the item's reach. A name shared with
//! another item or method counts as a caller: a false "called" keeps a
//! dead item, a false "uncalled" would delete a live one. The exception
//! is a free function, declared at column 0 in rustfmt'd code: nothing
//! but a path or a bare name can call it, so a method call (`.name`) or
//! another declaration (`fn name`) of the same name does not. `pub(crate)`
//! items are rustc's `dead_code` business, and a type's visibility
//! follows the signatures that use it, so both are out of scope.
//!
//! An item kept on purpose for its own sake carries
//! `// sflint::allow(pub-without-caller)` and a reason.

use crate::framework::Finding;
use crate::lexer::{find_ident, SourceFile};
use std::collections::{HashMap, HashSet};

/// The lint's name, as used in findings and pragmas.
pub(crate) const NAME: &str = "pub-without-caller";

/// Flag the uncalled `pub` items of the library files among `sources`;
/// `sources` and `callers` together are the corpus that may name them.
pub(crate) fn run(sources: &[SourceFile], callers: &[SourceFile]) -> Vec<Finding> {
    let corpus: Vec<&SourceFile> = sources.iter().chain(callers).collect();
    // Identifier -> the corpus files that name it outside a re-export,
    // and those that name it where a free function could be called.
    let mut named_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    let mut free_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (fi, src) in corpus.iter().enumerate() {
        let reexports = pub_use_lines(src);
        for (line, reexport) in src.lines.iter().zip(reexports) {
            if !reexport {
                for_each_ident(&line.code, |ident, free| {
                    named_in.entry(ident).or_default().insert(fi);
                    if free {
                        free_in.entry(ident).or_default().insert(fi);
                    }
                });
            }
        }
    }

    let mut findings = Vec::new();
    for (fi, src) in sources.iter().enumerate() {
        if !is_library_file(&src.path) {
            continue;
        }
        for (li, line) in src.lines.iter().enumerate() {
            if line.in_test || src.is_allowed(NAME, li) {
                continue;
            }
            let Some((kind, name)) = pub_item(&line.code) else {
                continue;
            };
            let free_fn = kind == "fn" && find_ident(&line.code, "pub", 0) == Some(0);
            let called = if free_fn { &free_in } else { &named_in }
                .get(name)
                .is_some_and(|files| files.iter().any(|&f| f != fi));
            if !called {
                findings.push(Finding {
                    lint: NAME.to_string(),
                    file: src.path.clone(),
                    line: li + 1,
                    excerpt: src.excerpt(li),
                    message: format!(
                        "`pub {kind} {name}` is named in no other file; delete it, or drop \
                         `pub` if its own file uses it"
                    ),
                });
            }
        }
    }
    findings
}

/// `crates/<member>/src/**` outside `src/bin/`: a library crate's own
/// code. Fixture trees under `crates/analyze/fixtures/` follow the same
/// layout.
fn is_library_file(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/src/bin/")
}

/// The kind (`fn`, `const`, `static`) and name of a `pub` item declared
/// on this blanked line; `pub(..)` visibilities are not `pub`.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let col = find_ident(code, "pub", 0)?;
    let rest = &code[col + 3..];
    if rest.trim_start().starts_with('(') {
        return None;
    }
    let mut words = rest
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty());
    let mut kind = None;
    loop {
        match words.next()? {
            "fn" => return Some(("fn", words.next()?)),
            "const" => kind = Some("const"),
            "static" => kind = Some("static"),
            "async" | "unsafe" | "mut" => {}
            "_" => return None,
            name => return kind.map(|k| (k, name)),
        }
    }
}

/// Lines covered by a `pub use` (or `pub(..) use`) statement, which
/// re-exports a name without calling it.
fn pub_use_lines(src: &SourceFile) -> Vec<bool> {
    let mut inside = false;
    src.lines
        .iter()
        .map(|line| {
            inside |= starts_pub_use(&line.code);
            let covered = inside;
            if line.code.contains(';') {
                inside = false;
            }
            covered
        })
        .collect()
}

/// Does a `pub use` or `pub(..) use` statement start on this line?
fn starts_pub_use(code: &str) -> bool {
    let Some(col) = find_ident(code, "pub", 0) else {
        return false;
    };
    let rest = code[col + 3..].trim_start();
    let rest = match rest.strip_prefix('(') {
        Some(vis) => vis.split_once(')').map_or("", |(_, r)| r).trim_start(),
        None => rest,
    };
    find_ident(rest, "use", 0) == Some(0)
}

/// Calls `f(ident, free)` for each identifier of a blanked line (number
/// literals excluded). `free` is false where the identifier names a
/// method (`.name`, not a range's `..name`) or a declaration
/// (`fn name`): no free function is called there.
fn for_each_ident<'a>(code: &'a str, mut f: impl FnMut(&'a str, bool)) {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, is_word(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                let word = &code[s..i];
                if word.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                    let before = code[..s].trim_end();
                    let method = before.ends_with('.') && !before.ends_with("..");
                    let declared = before
                        .strip_suffix("fn")
                        .is_some_and(|b| !b.ends_with(is_word));
                    f(word, !method && !declared);
                }
                start = None;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, text)| SourceFile::parse(path, text))
            .collect();
        run(&sources, &[])
            .into_iter()
            .map(|f| (f.file, f.line))
            .collect()
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn item_kinds_and_visibilities() {
        assert_eq!(pub_item("pub fn spmv(a: &A) {"), Some(("fn", "spmv")));
        assert_eq!(
            pub_item("    pub const fn lanes() -> usize {"),
            Some(("fn", "lanes"))
        );
        assert_eq!(
            pub_item("pub const WIDTH: usize = 4;"),
            Some(("const", "WIDTH"))
        );
        assert_eq!(pub_item("pub static mut N: u8 = 0;"), Some(("static", "N")));
        assert_eq!(pub_item("pub(crate) fn helper() {"), None);
        assert_eq!(pub_item("pub struct Csr {"), None);
        assert_eq!(pub_item("pub mod tiler;"), None);
        assert_eq!(pub_item("pub const _: () = ();"), None);
        assert_eq!(pub_item("fn private() {"), None);
    }

    #[test]
    fn tests_examples_and_the_benchmark_are_callers() {
        for caller in ["tests/t.rs", "examples/e.rs", "sfbench/src/main.rs"] {
            let callers = [SourceFile::parse(caller, "fn main() { demo::spmv(); }\n")];
            let lib = [SourceFile::parse(
                LIB,
                "pub fn spmv() {}\npub fn orphan() {}\n",
            )];
            let found = run(&lib, &callers);
            assert_eq!(found.len(), 1, "{caller}: {found:?}");
            assert!(found[0].excerpt.contains("orphan"));
        }
    }

    #[test]
    fn reexports_comments_and_strings_are_not_callers() {
        let found = lint(&[
            (LIB, "pub fn orphan() {}\n"),
            (
                "crates/umbrella/src/lib.rs",
                "pub use demo::{\n    orphan,\n};\n// orphan()\nconst S: &str = \"orphan\";\n",
            ),
        ]);
        assert_eq!(found, vec![(LIB.to_string(), 1)]);
    }

    #[test]
    fn test_regions_crate_visibility_and_bins_are_exempt() {
        let found = lint(&[
            (
                LIB,
                "pub(crate) fn inner() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
            ),
            ("crates/demo/src/bin/tool.rs", "pub fn unused() {}\n"),
            ("crates/demo/tests/t.rs", "pub fn unused_too() {}\n"),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn the_pragma_waives_a_finding() {
        let found = lint(&[(
            LIB,
            "// sflint::allow(pub-without-caller): kept for its own sake\npub fn kept() {}\npub fn dropped() {}\n",
        )]);
        assert_eq!(found, vec![(LIB.to_string(), 3)]);
    }

    #[test]
    fn a_name_shared_with_another_item_counts_as_called() {
        let found = lint(&[
            (LIB, "impl S {\n    pub fn len(&self) -> usize { 0 }\n}\n"),
            (
                "crates/other/src/lib.rs",
                "fn f(v: &[u8]) -> usize { v.len() }\n",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn a_free_fn_named_only_as_a_method_or_a_declaration_is_uncalled() {
        let other = "crates/other/src/lib.rs";
        let found = lint(&[
            (
                LIB,
                "pub fn orphan() {}\npub fn by_path() {}\npub fn in_range() {}\n\
                 impl E {\n    pub fn shared(&self) {}\n}\n",
            ),
            (
                other,
                "impl Engine {\n    pub fn orphan(&self) {}\n}\n\
                 fn f(e: &Engine) {\n    e.orphan();\n    e\n        .orphan();\n\
                 \x20   e.shared();\n    demo::by_path();\n    let _ = 0..in_range();\n}\n",
            ),
        ]);
        // The free `orphan` is flagged; the indented `shared` keeps the
        // looser rule, and the engine's indented `orphan` is named in
        // `LIB`.
        assert_eq!(found, vec![(LIB.to_string(), 1)]);
    }

    #[test]
    fn own_file_uses_do_not_count() {
        let found = lint(&[(LIB, "pub fn helper() {}\nfn f() { helper() }\n")]);
        assert_eq!(found, vec![(LIB.to_string(), 1)]);
    }
}
