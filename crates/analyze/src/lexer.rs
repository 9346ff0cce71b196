//! A hand-rolled token-level view of one Rust source file.
//!
//! `sflint` deliberately carries no `syn`/`proc-macro2` (the workspace
//! vendors all of its dependencies); instead this module produces the
//! minimal structure the lints need from a single character scan:
//!
//! - a **blanked** copy of every line, where string/char-literal
//!   contents and comments are replaced by spaces (byte offsets are
//!   preserved, so finding a token in the blanked text gives its real
//!   column) — lints never match tokens inside literals or docs;
//! - the **brace depth** at each line start;
//! - **test regions**: lines covered by a `#[cfg(test)]` item or a
//!   `mod tests { .. }` block, which library-hygiene lints skip;
//! - **allow pragmas**: `// sflint::allow(<lint>)` comments, applying
//!   to their own line and the next (so both trailing and
//!   line-above placement work);
//! - **function spans** (`fn` item name + body line range) and
//!   **call spans** (the balanced-parenthesis argument region of a
//!   named call), the building blocks of the hot-path and lock-order
//!   lints.
//!
//! The scanner understands line comments, nested block comments,
//! string literals with escapes, raw strings (`r#".."#`, any number of
//! hashes, `b`-prefixed too), char/byte literals, and tells lifetimes
//! (`'a`) apart from char literals (`'a'`).

/// One analyzed line of a source file.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// The line with comments and literal contents blanked to spaces.
    /// Same byte length as the raw line (tabs preserved).
    pub code: String,
    /// Brace nesting depth at the start of the line.
    pub depth: usize,
    /// True when the line is inside a `#[cfg(test)]` item or a
    /// `mod tests` block (including the marker line itself).
    pub in_test: bool,
    /// Lint names suppressed on this line via `// sflint::allow(..)`.
    pub allows: Vec<String>,
}

/// A `fn` item: its name and the line range of signature + body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's identifier.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub start_line: usize,
    /// 0-based line holding the body's closing brace.
    pub end_line: usize,
}

/// The balanced-parenthesis argument region of one call to a named
/// function/method (e.g. every closure passed to it lives inside).
#[derive(Debug, Clone)]
pub struct CallSpan {
    /// The callee identifier that was searched for.
    pub callee: String,
    /// 0-based line of the opening parenthesis.
    pub start_line: usize,
    /// 0-based line of the matching closing parenthesis.
    pub end_line: usize,
}

/// One scanned source file: raw text plus the per-line token view.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Root-relative path with forward slashes (stable across hosts).
    pub path: String,
    /// Original lines, for finding excerpts.
    pub raw_lines: Vec<String>,
    /// Blanked/annotated lines, for token scanning.
    pub lines: Vec<LineInfo>,
    /// Every `fn` item with a brace-delimited body.
    pub fns: Vec<FnSpan>,
}

/// Character-scanner state outside plain code.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

impl SourceFile {
    /// Scan `text` into the token-level view.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let raw_lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        let n = raw_lines.len();
        let mut blanked: Vec<String> = Vec::with_capacity(n);
        let mut depths: Vec<usize> = Vec::with_capacity(n);
        let mut allows: Vec<Vec<String>> = vec![Vec::new(); n];

        let mut mode = Mode::Code;
        let mut depth = 0usize;
        let mut comment_buf = String::new();
        let mut comment_start_line = 0usize;

        for (li, raw) in raw_lines.iter().enumerate() {
            depths.push(depth);
            let bytes: Vec<char> = raw.chars().collect();
            let mut out = String::with_capacity(raw.len());
            let mut i = 0usize;
            if mode == Mode::LineComment {
                // Line comments never span lines.
                mode = Mode::Code;
            }
            while i < bytes.len() {
                let c = bytes[i];
                let next = bytes.get(i + 1).copied();
                match mode {
                    Mode::Code => match c {
                        '/' if next == Some('/') => {
                            mode = Mode::LineComment;
                            comment_buf.clear();
                            comment_start_line = li;
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        }
                        '/' if next == Some('*') => {
                            mode = Mode::BlockComment(1);
                            comment_buf.clear();
                            comment_start_line = li;
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        }
                        '"' => {
                            // Raw-string openers are handled below on
                            // the `r`/`b`; a bare quote is a plain
                            // string.
                            mode = Mode::Str;
                            out.push('"');
                            i += 1;
                        }
                        'r' | 'b' if is_raw_string_start(&bytes, i) => {
                            let (hashes, consumed) = raw_string_open(&bytes, i);
                            mode = Mode::RawStr(hashes);
                            for _ in 0..consumed {
                                out.push(' ');
                            }
                            i += consumed;
                        }
                        '\'' => {
                            if is_lifetime(&bytes, i) {
                                out.push('\'');
                                i += 1;
                            } else {
                                mode = Mode::CharLit;
                                out.push(' ');
                                i += 1;
                            }
                        }
                        '{' => {
                            depth += 1;
                            out.push('{');
                            i += 1;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            out.push('}');
                            i += 1;
                        }
                        _ => {
                            out.push(c);
                            i += 1;
                        }
                    },
                    Mode::LineComment => {
                        comment_buf.push(c);
                        out.push(' ');
                        i += 1;
                    }
                    Mode::BlockComment(d) => {
                        if c == '*' && next == Some('/') {
                            if d == 1 {
                                mode = Mode::Code;
                                record_allows(&comment_buf, comment_start_line, &mut allows, n);
                            } else {
                                mode = Mode::BlockComment(d - 1);
                            }
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        } else if c == '/' && next == Some('*') {
                            mode = Mode::BlockComment(d + 1);
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        } else {
                            comment_buf.push(c);
                            out.push(' ');
                            i += 1;
                        }
                    }
                    Mode::Str => {
                        if c == '\\' && next.is_some() {
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        } else if c == '"' {
                            mode = Mode::Code;
                            out.push('"');
                            i += 1;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    }
                    Mode::RawStr(hashes) => {
                        if c == '"' && closes_raw_string(&bytes, i, hashes) {
                            mode = Mode::Code;
                            for _ in 0..(1 + hashes as usize) {
                                out.push(' ');
                            }
                            i += 1 + hashes as usize;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    }
                    Mode::CharLit => {
                        if c == '\\' && next.is_some() {
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        } else if c == '\'' {
                            mode = Mode::Code;
                            out.push(' ');
                            i += 1;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    }
                }
            }
            if mode == Mode::LineComment {
                record_allows(&comment_buf, comment_start_line, &mut allows, n);
            }
            blanked.push(out);
        }

        let in_test = mark_test_regions(&blanked);
        let fns = find_fns(&blanked);
        let lines = blanked
            .into_iter()
            .enumerate()
            .map(|(i, code)| LineInfo {
                code,
                depth: depths[i],
                in_test: in_test[i],
                allows: std::mem::take(&mut allows[i]),
            })
            .collect();
        SourceFile {
            path: path.to_string(),
            raw_lines,
            lines,
            fns,
        }
    }

    /// Trimmed raw text of a 0-based line, capped for reports.
    pub fn excerpt(&self, line: usize) -> String {
        let raw = self.raw_lines.get(line).map(String::as_str).unwrap_or("");
        let trimmed = raw.trim();
        let mut out: String = trimmed.chars().take(160).collect();
        if trimmed.chars().count() > 160 {
            out.push('…');
        }
        out
    }

    /// True when findings of `lint` are suppressed on 0-based `line`.
    pub fn is_allowed(&self, lint: &str, line: usize) -> bool {
        self.lines
            .get(line)
            .is_some_and(|l| l.allows.iter().any(|a| a == lint))
    }

    /// The function span whose body covers 0-based `line`, if any
    /// (innermost wins).
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Every call of `callee` (identifier immediately followed by `(`;
    /// `fn` definitions excluded) with its balanced argument region.
    pub fn call_spans(&self, callee: &str) -> Vec<CallSpan> {
        let mut spans = Vec::new();
        for li in 0..self.lines.len() {
            let code = &self.lines[li].code;
            let mut from = 0usize;
            while let Some(col) = find_ident(code, callee, from) {
                from = col + callee.len();
                // Skip definitions: `fn <callee>` on the same line.
                let before = &code[..col];
                let trimmed = before.trim_end();
                if trimmed.ends_with("fn") {
                    continue;
                }
                // Must be a call: next non-space char is `(`.
                let after = &code[col + callee.len()..];
                if !after.trim_start().starts_with('(') {
                    continue;
                }
                if let Some(end_line) = self.match_parens(li, col + callee.len()) {
                    spans.push(CallSpan {
                        callee: callee.to_string(),
                        start_line: li,
                        end_line,
                    });
                }
            }
        }
        spans
    }

    /// Line of the `)` matching the first `(` at/after (`line`, `col`).
    fn match_parens(&self, line: usize, col: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut started = false;
        for li in line..self.lines.len() {
            let code = &self.lines[li].code;
            let start = if li == line { col } else { 0 };
            for c in code[start.min(code.len())..].chars() {
                match c {
                    '(' => {
                        depth += 1;
                        started = true;
                    }
                    ')' => {
                        depth -= 1;
                        if started && depth == 0 {
                            return Some(li);
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// `r"`, `r#"`, `br#"` … at position `i`?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // Not part of a longer identifier (`for`, `str` …).
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Number of opener hashes and total chars consumed by the raw-string
/// opener at `i` (caller guarantees [`is_raw_string_start`]).
fn raw_string_open(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the `"`
    (hashes, j - i)
}

/// Does the `"` at `i` close a raw string opened with `hashes` hashes?
fn closes_raw_string(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// `'` at `i` starts a lifetime (not a char literal)? Lifetimes are
/// `'ident` with no closing quote right after the identifier.
fn is_lifetime(bytes: &[char], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else {
        return false;
    };
    if !(first.is_alphabetic() || first == '_') {
        return false; // `'\n'`, `'0'`… are char literals
    }
    // `'a'` is a char literal; `'a` / `'static` are lifetimes.
    let mut j = i + 2;
    while bytes
        .get(j)
        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
    {
        j += 1;
    }
    bytes.get(j) != Some(&'\'')
}

/// Parse `sflint::allow(name[, name…])` pragmas out of one comment and
/// apply them to the comment's line and the next.
fn record_allows(comment: &str, line: usize, allows: &mut [Vec<String>], n_lines: usize) {
    let mut rest = comment;
    while let Some(pos) = rest.find("sflint::allow(") {
        let args_start = pos + "sflint::allow(".len();
        let Some(close) = rest[args_start..].find(')') else {
            break;
        };
        for name in rest[args_start..args_start + close].split(',') {
            let name = name.trim().to_string();
            if name.is_empty() {
                continue;
            }
            allows[line].push(name.clone());
            if line + 1 < n_lines {
                allows[line + 1].push(name);
            }
        }
        rest = &rest[args_start + close..];
    }
}

/// Mark lines covered by `#[cfg(test)]` items or `mod tests` blocks.
fn mark_test_regions(blanked: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; blanked.len()];
    let mut depth = 0usize;
    // Depth below which an active test region ends.
    let mut test_floor: Option<usize> = None;
    // A test marker was seen; waiting for its item's `{` (cancelled by
    // a `;` first — e.g. `#[cfg(test)] use …;`).
    let mut pending: Option<usize> = None; // line of the marker

    for (li, code) in blanked.iter().enumerate() {
        if test_floor.is_none()
            && pending.is_none()
            && (code.contains("#[cfg(test)]") || find_ident_pair(code, "mod", "tests").is_some())
        {
            pending = Some(li);
        }
        if test_floor.is_some() {
            in_test[li] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(start) = pending.take() {
                        test_floor = Some(depth);
                        for cell in in_test.iter_mut().take(li + 1).skip(start) {
                            *cell = true;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_floor.is_some_and(|floor| depth <= floor) {
                        test_floor = None;
                    }
                }
                ';' if pending.is_some() && test_floor.is_none() => {
                    // Braceless item (cfg'd use/static): only its
                    // own lines are test code.
                    let start = pending.take().unwrap_or(li);
                    for cell in in_test.iter_mut().take(li + 1).skip(start) {
                        *cell = true;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// Locate every `fn` item with a brace body.
fn find_fns(blanked: &[String]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut open: Vec<(String, usize, usize)> = Vec::new(); // (name, start, floor)
    let mut pending: Option<(String, usize)> = None;
    let mut depth = 0usize;
    for (li, code) in blanked.iter().enumerate() {
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '{' => {
                    if let Some((name, start)) = pending.take() {
                        open.push((name, start, depth));
                    }
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while open.last().is_some_and(|(_, _, floor)| *floor >= depth) {
                        let (name, start, _) = open.pop().unwrap_or_default();
                        fns.push(FnSpan {
                            name,
                            start_line: start,
                            end_line: li,
                        });
                    }
                    i += 1;
                }
                ';' => {
                    // Trait method declaration without a body.
                    pending = None;
                    i += 1;
                }
                'f' if ident_at(&chars, i, "fn") => {
                    // Capture the identifier after `fn`.
                    let mut j = i + 2;
                    while chars.get(j).is_some_and(|c| c.is_whitespace()) {
                        j += 1;
                    }
                    let name_start = j;
                    while chars
                        .get(j)
                        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                    {
                        j += 1;
                    }
                    if j > name_start {
                        let name: String = chars[name_start..j].iter().collect();
                        pending = Some((name, li));
                    }
                    i = j.max(i + 2);
                }
                _ => {
                    i += 1;
                }
            }
        }
    }
    fns.sort_by_key(|f| f.start_line);
    fns
}

/// Is `word` at position `i` of `chars`, bounded by non-identifier
/// characters on both sides?
fn ident_at(chars: &[char], i: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if i + w.len() > chars.len() || chars[i..i + w.len()] != w[..] {
        return false;
    }
    let before_ok = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let after = chars.get(i + w.len());
    let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || *c == '_');
    before_ok && after_ok
}

/// Byte column of the first word-bounded occurrence of `ident` in
/// `code` at/after byte `from`.
pub fn find_ident(code: &str, ident: &str, from: usize) -> Option<usize> {
    let mut start = from.min(code.len());
    while let Some(rel) = code[start..].find(ident) {
        let col = start + rel;
        let before_ok = col == 0
            || !code[..col]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[col + ident.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(col);
        }
        start = col + ident.len();
    }
    None
}

/// Find `a` immediately followed (modulo spaces) by `b`, both
/// word-bounded; returns the column of `a`.
fn find_ident_pair(code: &str, a: &str, b: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(col) = find_ident(code, a, from) {
        from = col + a.len();
        let rest = &code[col + a.len()..];
        let skipped = rest.len() - rest.trim_start().len();
        let after = rest.trim_start();
        if after.starts_with(b) && find_ident(after, b, 0) == Some(0) && skipped >= 1 {
            return Some(col);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_comments_and_chars_are_blanked() {
        let src = "let a = \"Vec::new()\"; // Vec::new()\nlet b = 'x'; /* vec![] */ let c = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].code.contains("Vec::new"));
        assert!(f.lines[0].code.contains("let a"));
        assert!(!f.lines[1].code.contains("vec!"));
        assert!(f.lines[1].code.contains("let c"));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "let s = r#\"with_capacity(9)\"#;\nfn f<'a>(x: &'a str) -> &'a str { x }\nlet c = b'\\n';\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].code.contains("with_capacity"));
        assert!(f.lines[1].code.contains("'a str"));
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.lines[0].code.contains("let x"));
        assert!(!f.lines[0].code.contains("outer"));
    }

    #[test]
    fn test_regions_cover_cfg_test_and_mod_tests() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn allow_pragmas_cover_own_and_next_line() {
        let src = "// sflint::allow(alloc-in-hot-path)\nlet v = vec![1];\nlet w = vec![2];\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.is_allowed("alloc-in-hot-path", 0));
        assert!(f.is_allowed("alloc-in-hot-path", 1));
        assert!(!f.is_allowed("alloc-in-hot-path", 2));
    }

    #[test]
    fn fn_spans_and_call_spans() {
        let src = "fn outer() {\n    stream.for_each_fiber_in(arena, &mut |r, c, v| {\n        body();\n    });\n}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!((f.fns[0].start_line, f.fns[0].end_line), (0, 4));
        let calls = f.call_spans("for_each_fiber_in");
        assert_eq!(calls.len(), 1);
        assert_eq!((calls[0].start_line, calls[0].end_line), (1, 3));
    }

    #[test]
    fn fn_definitions_are_not_call_spans() {
        let src = "fn for_each_fiber_in(&self, a: &mut A) {\n    emit();\n}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.call_spans("for_each_fiber_in").is_empty());
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }
}
