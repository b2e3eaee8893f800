//! The semantic model: items, call edges, and a workspace symbol table
//! built from the [`crate::lexer`] token stream.
//!
//! This is what turns the analyzer from a line scanner into a (small)
//! program analyzer. For every scanned file the model extracts:
//!
//! * **functions** — name, visibility, and the token ranges of the
//!   signature and body;
//! * **call edges** — within each function body, the plain (non-method)
//!   calls that can be resolved to a function defined in the same crate.
//!
//! Resolution is deliberately conservative: a call resolves only when the
//! callee name names *exactly one* function in the crate — ambiguous names
//! (`new`, `get`) resolve to nothing rather than to the wrong thing. That
//! keeps whole-program rules like `lock-discipline` free of false paths at
//! the cost of missing some true ones, the right trade for a gate that
//! must stay at zero unaudited findings.
//!
//! The line model ([`crate::source`]) remains the authority on
//! `hbc-allow` annotations and `#[cfg(test)]` boundaries; the model caries
//! a reference to it so rules can gate token-level findings on line-level
//! context.

use crate::lexer::{lex, Tok, TokKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::ops::Range;

/// A function (free or associated) found in a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Token index range of the signature (from `fn` to the body brace or
    /// terminating semicolon, exclusive).
    pub sig: Range<usize>,
    /// Token index range of the body, *including* the delimiting braces.
    /// Empty for bodyless declarations.
    pub body: Range<usize>,
}

/// One resolved or unresolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub callee: String,
    /// 1-based line of the call.
    pub line: usize,
    /// True for `.callee(…)` method-syntax calls (never resolved).
    pub is_method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
}

/// Everything the model knows about one file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// The file's full token stream.
    pub tokens: Vec<Tok>,
    /// Functions in source order.
    pub functions: Vec<Function>,
}

/// Identifies a function as (file index, function index).
pub type FnId = (usize, usize);

/// The workspace model: per-file token streams and items plus the
/// crate-level symbol table rules query.
#[derive(Debug)]
pub struct Model<'a> {
    /// The underlying line model, index-aligned with [`Model::files`].
    pub sources: &'a [SourceFile],
    /// Per-file models, index-aligned with `sources`.
    pub files: Vec<FileModel>,
    /// Crate name → function name → the `FnId`s bearing that name.
    by_crate: BTreeMap<String, BTreeMap<String, Vec<FnId>>>,
}

impl<'a> Model<'a> {
    /// Lexes and parses every source file into the model.
    pub fn build(sources: &'a [SourceFile]) -> Model<'a> {
        let files: Vec<FileModel> = sources
            .iter()
            .map(|src| {
                let text: String =
                    src.lines.iter().map(|l| l.raw.as_str()).collect::<Vec<_>>().join("\n");
                parse_file(&lex(&text))
            })
            .collect();
        let mut by_crate: BTreeMap<String, BTreeMap<String, Vec<FnId>>> = BTreeMap::new();
        for (fi, (src, fm)) in sources.iter().zip(&files).enumerate() {
            let table = by_crate.entry(src.crate_name.clone()).or_default();
            for (gi, f) in fm.functions.iter().enumerate() {
                table.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }
        Model { sources, files, by_crate }
    }

    /// Resolves a plain call by name within `crate_name`: `Some` exactly
    /// when one function in the crate bears that name.
    pub fn resolve(&self, crate_name: &str, callee: &str) -> Option<FnId> {
        let ids = self.by_crate.get(crate_name)?.get(callee)?;
        match ids.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// Iterates `(file index, function)` over every function in
    /// `crate_name`, in file order.
    pub fn crate_functions<'m>(
        &'m self,
        crate_name: &'m str,
    ) -> impl Iterator<Item = (usize, &'m Function)> + 'm {
        self.sources
            .iter()
            .zip(&self.files)
            .enumerate()
            .filter(move |(_, (src, _))| src.crate_name == crate_name)
            .flat_map(|(fi, (_, fm))| fm.functions.iter().map(move |f| (fi, f)))
    }

    /// True when 1-based `line` of file `fi` is test code.
    pub fn is_test_line(&self, fi: usize, line: usize) -> bool {
        self.sources[fi].lines.get(line.saturating_sub(1)).is_none_or(|l| l.is_test)
    }

    /// True when `rule` is allowed on 1-based `line` of file `fi`.
    pub fn allowed(&self, fi: usize, line: usize, rule: &str) -> bool {
        self.sources[fi].allowed(line, rule)
    }

    /// Plain-syntax calls inside `f`'s body (method calls excluded).
    pub fn plain_calls(&self, fi: usize, f: &Function) -> Vec<Call> {
        calls(&self.files[fi].tokens, f.body.clone()).into_iter().filter(|c| !c.is_method).collect()
    }
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "in", "as", "let", "mut", "ref",
    "move", "fn", "impl", "struct", "enum", "pub", "use", "mod", "where", "unsafe", "dyn", "box",
    "break", "continue", "crate", "super",
];

/// Extracts call sites (`ident(`) from `range` of `toks`.
pub fn calls(toks: &[Tok], range: Range<usize>) -> Vec<Call> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 1 < range.end.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks[i + 1].is_punct('(')
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let is_method = i > 0 && toks[i - 1].is_punct('.');
            out.push(Call { callee: t.text.clone(), line: t.line, is_method, tok: i });
        }
        i += 1;
    }
    out
}

/// Finds the token index of the `}` matching the `{` at `open` (which
/// must be a `{`). Falls back to the end of the stream on imbalance.
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let open_depth = toks[open].depth;
    for (j, t) in toks.iter().enumerate().skip(open + 1) {
        if t.is_punct('}') && t.depth == open_depth {
            return j;
        }
    }
    toks.len() - 1
}

/// Parses one file's token stream into its function list.
fn parse_file(toks: &[Tok]) -> FileModel {
    let mut functions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let parsed = if toks[i].is_ident("fn") { parse_fn(toks, i) } else { None };
        match parsed {
            Some(f) => {
                i = if f.body.is_empty() { f.sig.end } else { f.body.end };
                functions.push(f);
            }
            None => i += 1,
        }
    }
    FileModel { tokens: toks.to_vec(), functions }
}

/// Parses the `fn` whose keyword sits at `at`.
fn parse_fn(toks: &[Tok], at: usize) -> Option<Function> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn` in a type position (`fn(u32) -> u32`)
    }
    let line = toks[at].line;
    // Visibility: walk back over qualifier tokens (`pub`, `(crate)`,
    // `const`, `unsafe`, `async`, `extern`) without crossing an item
    // boundary, and see whether one of them is `pub`.
    let mut is_pub = false;
    let mut back = at;
    while back > 0 {
        let t = &toks[back - 1];
        let qualifier = t.is_ident("pub")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("const")
            || t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.is_punct('(')
            || t.is_punct(')')
            || t.kind == TokKind::Str; // `extern "C"`
        if !qualifier {
            break;
        }
        if t.is_ident("pub") {
            is_pub = true;
        }
        back -= 1;
    }
    // The signature runs to the body `{` or a `;`, at the fn's own depth
    // (default-value braces cannot appear in signatures).
    let fn_depth = toks[at].depth;
    let mut j = at + 1;
    let mut body = 0..0;
    let mut sig_end = toks.len();
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') && t.depth == fn_depth {
            let close = matching_brace(toks, j);
            body = j..close + 1;
            sig_end = j;
            break;
        }
        if t.is_punct(';') && t.depth == fn_depth {
            sig_end = j;
            break;
        }
        j += 1;
    }
    Some(Function { name: name_tok.text.clone(), line, is_pub, sig: at..sig_end, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn model_of(text: &str) -> FileModel {
        parse_file(&lex(text))
    }

    #[test]
    fn functions_with_bodies_and_signatures() {
        let m = model_of("pub fn alpha(x: u64) -> u64 { beta(x) }\nfn beta(x: u64) -> u64 { x }\n");
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.functions[0].name, "alpha");
        assert!(m.functions[0].is_pub);
        assert!(!m.functions[1].is_pub);
        let body_calls = calls(&m.tokens, m.functions[0].body.clone());
        assert_eq!(body_calls.len(), 1);
        assert_eq!(body_calls[0].callee, "beta");
        assert!(!body_calls[0].is_method);
    }

    #[test]
    fn method_calls_are_marked() {
        let m = model_of("fn f(x: &X) { x.load(); store(x); }\n");
        let cs = calls(&m.tokens, m.functions[0].body.clone());
        assert_eq!(cs.len(), 2);
        assert!(cs[0].is_method);
        assert!(!cs[1].is_method);
    }

    #[test]
    fn resolution_requires_uniqueness() {
        let a = SourceFile::parse(
            PathBuf::from("a.rs"),
            "hbc-serve",
            "fn only_here() {}\nfn new() {}\n",
            false,
        );
        let b = SourceFile::parse(PathBuf::from("b.rs"), "hbc-serve", "fn new() {}\n", false);
        let sources = [a, b];
        let model = Model::build(&sources);
        assert!(model.resolve("hbc-serve", "only_here").is_some());
        assert!(model.resolve("hbc-serve", "new").is_none(), "ambiguous names never resolve");
        assert!(model.resolve("hbc-mem", "only_here").is_none(), "resolution is per-crate");
    }

    #[test]
    fn multi_line_signatures_span_lines() {
        let m = model_of("pub fn blend(\n    a: Fo4,\n    b: u64,\n) -> Fo4 {\n    a\n}\n");
        let f = &m.functions[0];
        let sig_texts: Vec<&str> =
            m.tokens[f.sig.clone()].iter().map(|t| t.text.as_str()).collect();
        assert!(sig_texts.contains(&"u64"));
        assert!(sig_texts.contains(&"Fo4"));
    }
}
