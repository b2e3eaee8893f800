//! A dependency-free Rust lexer producing the token stream the semantic
//! model is built on.
//!
//! The old analyzer was a per-line scanner: it could not see a call chain
//! split across lines, a signature wrapped at 100 columns, or a string
//! literal containing a newline. The lexer fixes that at the root by
//! tokenizing whole files: every token carries its 1-based source line and
//! the brace-nesting depth it appears at, so rules can reason about
//! statements, scopes, and items instead of lines.
//!
//! Scope is deliberately limited to what the rules need: identifiers,
//! lifetimes, string/char/numeric literals, and single-character
//! punctuation. Comments are dropped (annotation parsing stays in
//! [`crate::source`], which remains the line model for `hbc-allow` and
//! `#[cfg(test)]` tracking). A string literal is one `Str` token that
//! keeps its contents, unlike the line model, which blanks them.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`).
    Ident,
    /// A lifetime (`'static`, `'a`) — kept distinct so char-literal
    /// handling never swallows one.
    Lifetime,
    /// A string literal (plain or raw); `text` holds the *contents*,
    /// without delimiters.
    Str,
    /// A char literal; `text` holds the contents.
    Char,
    /// A numeric literal (`42`, `0xff`, `1_000`, `2.5e3`).
    Num,
    /// A single punctuation character (`{`, `.`, `;`, …).
    Punct,
}

/// One token of a lexed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The token's kind.
    pub kind: TokKind,
    /// The token text (contents only for string/char literals).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Brace-nesting depth the token appears at. Both `{` and `}` report
    /// the depth *outside* the block they delimit, so a block's delimiters
    /// and its surrounding code agree.
    pub depth: u32,
}

impl Tok {
    /// True for a punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// True for an identifier token equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True for any identifier token.
    pub fn is_ident_kind(&self) -> bool {
        self.kind == TokKind::Ident
    }
}

/// Lexes `text` into a token stream. Comments (line, nested block, doc)
/// are dropped; everything else becomes a [`Tok`]. The lexer never fails:
/// malformed input degrades to punctuation tokens, which is the right
/// behavior for a linter that must not crash on the code it is judging.
pub fn lex(text: &str) -> Vec<Tok> {
    let chars: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut depth = 0u32;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut nest = 1u32;
                i += 2;
                while i < chars.len() && nest > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        nest -= 1;
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        nest += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let mut contents = String::new();
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => {
                            contents.push(chars[i]);
                            if let Some(&next) = chars.get(i + 1) {
                                contents.push(next);
                                if next == '\n' {
                                    line += 1;
                                }
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        ch => {
                            if ch == '\n' {
                                line += 1;
                            }
                            contents.push(ch);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok { kind: TokKind::Str, text: contents, line: start_line, depth });
            }
            'r' if raw_str_hashes(&chars, i).is_some() => {
                let hashes = raw_str_hashes(&chars, i).unwrap_or(0);
                let start_line = line;
                let mut contents = String::new();
                i += 2 + hashes; // consume `r`, hashes, opening quote
                while i < chars.len() {
                    if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        i += 1 + hashes;
                        break;
                    }
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    contents.push(chars[i]);
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::Str, text: contents, line: start_line, depth });
            }
            '\'' => {
                // Lifetime or char literal — same disambiguation problem
                // the line model has, solved the same way: `'x'` is a char
                // only if a closing quote follows within the literal.
                if chars.get(i + 1) == Some(&'\\') {
                    let mut j = i + 2;
                    let mut contents = String::from("\\");
                    while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                        contents.push(chars[j]);
                        j += 1;
                    }
                    toks.push(Tok { kind: TokKind::Char, text: contents, line, depth });
                    i = j + 1;
                } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                    let contents = chars.get(i + 1).map(|c| c.to_string()).unwrap_or_default();
                    toks.push(Tok { kind: TokKind::Char, text: contents, line, depth });
                    i += 3;
                } else {
                    // A lifetime: consume the identifier after the quote.
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    let text: String =
                        std::iter::once('\'').chain(chars[start..j].iter().copied()).collect();
                    toks.push(Tok { kind: TokKind::Lifetime, text, line, depth });
                    i = j;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok { kind: TokKind::Ident, text, line, depth });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric()
                        || chars[i] == '_'
                        || chars[i] == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok { kind: TokKind::Num, text, line, depth });
            }
            '{' => {
                toks.push(Tok { kind: TokKind::Punct, text: "{".to_string(), line, depth });
                depth += 1;
                i += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                toks.push(Tok { kind: TokKind::Punct, text: "}".to_string(), line, depth });
                i += 1;
            }
            c => {
                toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line, depth });
                i += 1;
            }
        }
    }
    toks
}

/// If `chars[at]` is the `r` of a raw-string opener (`r"`, `r#"`, …),
/// returns the hash count. Rejects identifiers that merely start with `r`
/// by requiring the previous character not be part of an identifier.
fn raw_str_hashes(chars: &[char], at: usize) -> Option<usize> {
    if at > 0 && chars.get(at - 1).is_some_and(|p| p.is_alphanumeric() || *p == '_') {
        return None;
    }
    let mut hashes = 0;
    while chars.get(at + 1 + hashes) == Some(&'#') {
        hashes += 1;
    }
    (chars.get(at + 1 + hashes) == Some(&'"')).then_some(hashes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(text: &str) -> Vec<String> {
        lex(text).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = lex("use std::collections::HashMap;");
        assert_eq!(
            idents("use std::collections::HashMap;"),
            ["use", "std", "collections", "HashMap"]
        );
        assert!(toks.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn comments_are_dropped_strings_kept() {
        let toks = lex("let x = \"HashMap\"; // HashMap comment\n/* HashMap /* nested */ */ y");
        assert_eq!(idents("let x = \"HashMap\"; // HashMap comment\n/* b */ y"), ["let", "x", "y"]);
        let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "HashMap");
    }

    #[test]
    fn raw_strings_and_multiline_strings_track_lines() {
        let toks = lex("let a = r#\"x \" y\"#;\nlet b = \"one\ntwo\";\nfn f() {}");
        let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs[0].text, "x \" y");
        assert_eq!(strs[1].text, "one\ntwo");
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4, "multi-line string advanced the line counter");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("let c: char = '{'; let s: &'static str = \"\"; let e = '\\n';");
        assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.text == "{"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.text == "\\n"));
        // The `{` inside the char literal must not disturb brace depth.
        assert!(toks.iter().all(|t| t.depth == 0));
    }

    #[test]
    fn depth_tracks_nesting() {
        let toks = lex("fn f() { if x { y(); } }");
        let f = toks.iter().find(|t| t.is_ident("f")).unwrap();
        let y = toks.iter().find(|t| t.is_ident("y")).unwrap();
        assert_eq!(f.depth, 0);
        assert_eq!(y.depth, 2);
        let closes: Vec<u32> = toks.iter().filter(|t| t.is_punct('}')).map(|t| t.depth).collect();
        assert_eq!(closes, [1, 0], "braces report the depth outside their block");
    }

    #[test]
    fn numbers_lex_as_one_token() {
        let toks = lex("let x = 1_000 + 0xff + 2.5e3;");
        let nums: Vec<String> =
            toks.into_iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text).collect();
        assert_eq!(nums, ["1_000", "0xff", "2.5e3"]);
    }
}
