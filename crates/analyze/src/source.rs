//! Source model: comment/string stripping, `hbc-allow` annotations, and
//! `#[cfg(test)]` block detection.

use std::path::PathBuf;

/// One line of a scanned file.
#[derive(Debug, Clone)]
pub struct Line {
    /// Source text with comments and string/char-literal contents removed.
    /// Token scans run against this, so `"HashMap"` inside a string or a
    /// doc comment never fires a rule.
    pub code: String,
    /// The original, unstripped source text — the input the lexer
    /// ([`crate::lexer`]) tokenizes for the semantic model.
    pub raw: String,
    /// Rules allowed on this line via `// hbc-allow: <rules>` (on the line
    /// itself or alone on the line above).
    pub allows: Vec<String>,
    /// True inside `#[cfg(test)]` blocks or files under `tests/`,
    /// `benches/`, `examples/`.
    pub is_test: bool,
}

/// One `hbc-allow` / `hbc-allow-file` annotation site, kept for audit
/// listings (`hbc-analyze allows`).
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based line the annotation comment sits on.
    pub line: usize,
    /// The rules it allows.
    pub rules: Vec<String>,
    /// True for `hbc-allow-file` (whole-file scope).
    pub file_level: bool,
    /// Free text following the rule list — the written justification.
    /// Empty when the author gave none.
    pub justification: String,
}

/// A scanned Rust source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path as scanned (workspace-relative when produced by
    /// [`crate::workspace::scan`]).
    pub path: PathBuf,
    /// Cargo package name of the owning crate (e.g. `hbc-mem`).
    pub crate_name: String,
    /// Rules allowed for the whole file via `// hbc-allow-file: <rules>`.
    pub file_allows: Vec<String>,
    /// The stripped lines, in order.
    pub lines: Vec<Line>,
    /// Every annotation site in the file, in order.
    pub annotations: Vec<Annotation>,
}

impl SourceFile {
    /// Parses `text` into the line model. `all_test` marks every line as
    /// test code (used for `tests/` and `benches/` trees).
    pub fn parse(path: PathBuf, crate_name: &str, text: &str, all_test: bool) -> Self {
        let stripped = strip(text);
        let raws: Vec<&str> = text.lines().collect();
        let mut file_allows = Vec::new();
        let mut annotations = Vec::new();
        let mut lines: Vec<Line> = Vec::with_capacity(stripped.len());
        // Allow annotations: an annotation sharing a line with code guards
        // that line; an annotation alone on a line guards the next line.
        let mut pending: Vec<String> = Vec::new();
        for (idx, (code, comment)) in stripped.into_iter().enumerate() {
            let mut allows = std::mem::take(&mut pending);
            for (marker, file_level) in [("hbc-allow:", false), ("hbc-allow-file:", true)] {
                if let Some((rules, justification)) = parse_allow_full(&comment, marker) {
                    if file_level {
                        file_allows.extend(rules.iter().cloned());
                    } else {
                        allows.extend(rules.iter().cloned());
                    }
                    annotations.push(Annotation {
                        line: idx + 1,
                        rules,
                        file_level,
                        justification,
                    });
                }
            }
            if code.trim().is_empty() && !allows.is_empty() {
                pending = allows;
                allows = Vec::new();
            }
            let raw = raws.get(idx).copied().unwrap_or("").to_string();
            lines.push(Line { code, raw, allows, is_test: all_test });
        }
        if !all_test {
            mark_test_blocks(&mut lines);
        }
        SourceFile { path, crate_name: crate_name.to_string(), file_allows, lines, annotations }
    }

    /// True if `rule` is allowed on 1-based line `line` (per-line or
    /// file-level annotation).
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self.lines.get(line - 1).is_some_and(|l| l.allows.iter().any(|r| r == rule))
    }
}

/// Extracts the rule list following `marker` in a comment, plus the free
/// text after it — the written justification, e.g.
/// `hbc-allow: lock-discipline, units (why…)` → `([lock-discipline,
/// units], "(why…)")`. `None` when the marker is absent or names no rules.
///
/// The marker must open the comment (doc-comment `/`/`!` and whitespace
/// aside) — prose that merely *mentions* `hbc-allow:` mid-sentence is not
/// an annotation.
fn parse_allow_full(comment: &str, marker: &str) -> Option<(Vec<String>, String)> {
    let head = comment.trim_start_matches(['/', '!']).trim_start();
    let mut rest = head.strip_prefix(marker)?.trim_start();
    let mut rules = Vec::new();
    loop {
        let rule: String =
            rest.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect();
        if rule.is_empty() {
            break;
        }
        rest = rest[rule.len()..].trim_start();
        rules.push(rule);
        match rest.strip_prefix(',') {
            Some(after) => rest = after.trim_start(),
            None => break,
        }
    }
    if rules.is_empty() {
        return None;
    }
    Some((rules, rest.trim().to_string()))
}

/// Splits `text` into per-line `(code, comment)` pairs. The code part has
/// comments removed and string/char-literal contents blanked (delimiters
/// kept); the comment part holds comment text for annotation parsing.
fn strip(text: &str) -> Vec<(String, String)> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == 'r' && raw_str_hashes(&chars, i + 1).is_some() {
                    let hashes = raw_str_hashes(&chars, i + 1).unwrap();
                    code.push_str("r\"");
                    state = State::RawStr(hashes);
                    i += 2 + hashes;
                } else if c == '\'' {
                    i += skip_char_literal(&chars, i, &mut code);
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped character — but a line-continuation
                    // escape (`\` before the newline) still ends a source
                    // line, or every line after it would be off by one.
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
                    }
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                    code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push((code, comment));
    }
    out
}

/// If `chars[from..]` starts a raw-string body (`#* "`), returns the hash
/// count; `r` itself sits at `from - 1`. Rejects identifiers like `raw`.
fn raw_str_hashes(chars: &[char], from: usize) -> Option<usize> {
    let prev_is_ident =
        from >= 2 && chars.get(from - 2).is_some_and(|p| p.is_alphanumeric() || *p == '_');
    if prev_is_ident {
        return None;
    }
    let mut hashes = 0;
    while chars.get(from + hashes) == Some(&'#') {
        hashes += 1;
    }
    (chars.get(from + hashes) == Some(&'"')).then_some(hashes)
}

/// Distinguishes char literals from lifetimes at `chars[at] == '\''`.
/// Returns how many chars to consume; pushes a placeholder to `code`.
fn skip_char_literal(chars: &[char], at: usize, code: &mut String) -> usize {
    if chars.get(at + 1) == Some(&'\\') {
        // Escaped char literal: skip to the closing quote.
        let mut j = at + 2;
        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
            j += 1;
        }
        code.push_str("' '");
        j + 1 - at
    } else if chars.get(at + 2) == Some(&'\'') && chars.get(at + 1) != Some(&'\'') {
        code.push_str("' '");
        3
    } else {
        // A lifetime (or stray quote): keep it as-is.
        code.push('\'');
        1
    }
}

/// Marks lines covered by `#[cfg(test)]` items (including conjunctive
/// forms like `#[cfg(all(test, feature = "…"))]`) as test code by counting
/// braces from the attribute to the end of the item it introduces.
fn mark_test_blocks(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") && !lines[i].code.contains("#[cfg(all(test") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            lines[j].is_test = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "hbc-mem", text, false)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = parse("let x = \"HashMap\"; // HashMap here too\nuse std::fmt;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("std::fmt"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let f = parse("let s = r#\"Instant \" quote\"#; let c = '{'; let l: &'static str = \"\";");
        assert!(!f.lines[0].code.contains("Instant"));
        assert_eq!(f.lines[0].code.matches('{').count(), 0);
        assert!(f.lines[0].code.contains("'static"));
    }

    #[test]
    fn allow_same_line_and_line_above() {
        let f = parse(
            "// hbc-allow: lock-discipline (audited)\nuse foo;\nbar(); // hbc-allow: units\n",
        );
        assert!(f.allowed(2, "lock-discipline"));
        assert!(!f.allowed(2, "units"));
        assert!(f.allowed(3, "units"));
        assert!(!f.allowed(1, "lock-discipline")); // annotation line guards the next line
    }

    #[test]
    fn allow_file_and_multiple_rules() {
        let f = parse(
            "// hbc-allow-file: units\nfn a() {}\n// hbc-allow: lock-discipline, units\nb();",
        );
        assert!(f.allowed(2, "units"));
        assert!(!f.allowed(2, "lock-discipline"));
        assert!(f.allowed(4, "lock-discipline"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_live() {}\n";
        let f = parse(text);
        assert!(!f.lines[0].is_test);
        assert!(f.lines[1].is_test);
        assert!(f.lines[3].is_test);
        assert!(!f.lines[5].is_test);
    }

    #[test]
    fn cfg_all_test_blocks_are_marked() {
        let text = "#[cfg(all(test, feature = \"sanitize\"))]\nmod sanitize_tests {\n    fn t() { x.unwrap(); }\n}\nfn live() {}\n";
        let f = parse(text);
        assert!(f.lines[0].is_test);
        assert!(f.lines[2].is_test);
        assert!(!f.lines[4].is_test);
    }

    #[test]
    fn raw_lines_are_retained() {
        let f = parse("let n = reg.counter(\"cpu.run.cycles\");\n");
        assert!(!f.lines[0].code.contains("cpu.run.cycles"));
        assert!(f.lines[0].raw.contains("cpu.run.cycles"));
    }

    #[test]
    fn raw_string_containing_slashes_is_not_a_comment() {
        // `//` inside a raw string must not start a line comment: the code
        // after the literal is still live.
        let f = parse("let url = r\"https://example.com\"; use std::fmt;\n");
        assert!(f.lines[0].code.contains("use std::fmt"));
        assert!(!f.lines[0].code.contains("example.com"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f = parse("/* outer /* inner */ still comment */ live();\nnext();\n");
        assert!(!f.lines[0].code.contains("still comment"));
        assert!(f.lines[0].code.contains("live()"));
        assert!(f.lines[1].code.contains("next()"));
    }

    #[test]
    fn allow_survives_blank_line_to_target() {
        let f = parse("// hbc-allow: lock-discipline (audited)\n\nuse foo;\n");
        assert!(f.allowed(3, "lock-discipline"), "annotation crosses the blank line");
        assert!(!f.allowed(2, "lock-discipline"));
    }

    #[test]
    fn cfg_test_boundary_with_braces_on_one_line() {
        // The brace counter must see the item end even when open and close
        // share a line, and must not bleed into the next item.
        let text = "#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }\nfn live() {}\n";
        let f = parse(text);
        assert!(f.lines[1].is_test);
        assert!(!f.lines[2].is_test, "test marking stops at the closing brace");
    }

    #[test]
    fn string_line_continuation_keeps_line_numbering() {
        // A `\`-continued string spans two source lines; the model must
        // still emit both, or every annotation below it shifts by one.
        let f = parse("let s = \"a \\\n   b\";\n// hbc-allow: units (audited)\nx.unwrap();\n");
        assert_eq!(f.lines.len(), 4);
        assert!(f.allowed(4, "units"));
    }

    #[test]
    fn annotations_record_rules_scope_and_justification() {
        let text = "// hbc-allow-file: units (legacy raw API)\n\
                    fn a() {}\n\
                    x(); // hbc-allow: lock-discipline, units (startup only)\n\
                    y(); // hbc-allow: lock-discipline\n";
        let f = parse(text);
        assert_eq!(f.annotations.len(), 3);
        assert!(f.annotations[0].file_level);
        assert_eq!(f.annotations[0].rules, ["units"]);
        assert_eq!(f.annotations[0].justification, "(legacy raw API)");
        assert_eq!(f.annotations[1].line, 3);
        assert_eq!(f.annotations[1].rules, ["lock-discipline", "units"]);
        assert_eq!(f.annotations[1].justification, "(startup only)");
        assert!(f.annotations[2].justification.is_empty());
    }
}
