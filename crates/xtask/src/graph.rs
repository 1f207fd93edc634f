//! A module-level call graph lexed out of the code channel, for the R1
//! (panic reachability) rule family.
//!
//! This is deliberately *not* a type-checked call graph — the lint has
//! no `syn`, no name resolution, no types. It extracts `fn` spans and
//! call sites from [`crate::scan::FileScan`] code lines and resolves
//! calls **by name within one crate**:
//!
//! - a bare call `name(...)` resolves to every crate fn named `name`;
//! - a qualified call (`.name(...)` / `path::name(...)`) resolves only
//!   when the crate has exactly **one** fn of that name (otherwise the
//!   edge is dropped rather than guessed).
//!
//! Both choices approximate in the safe direction: R1 treats extra
//! edges as extra scrutiny, and a dropped edge can only hide a path,
//! never a site. Closures passed to `spawn(...)` are walked like any
//! other code: a panic on a spawned thread is still a panic.

use std::collections::{BTreeMap, VecDeque};

use crate::scan::{is_ident_char, FileScan};

/// A dangerous (or rule-relevant) site inside a function body.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteKind {
    /// `x[i + 1]`-style indexing: arithmetic inside the brackets. In
    /// release builds the arithmetic wraps instead of panicking, so an
    /// overflow can resolve to an in-bounds *wrong* element — a silent
    /// wrong result rather than a loud panic. Enforced by R1.
    IndexArith,
    /// Plain `x[i]` indexing — a loud bounds panic at worst. Advisory.
    IndexPlain,
}

#[derive(Clone, Debug)]
pub struct Site {
    pub kind: SiteKind,
    pub line: usize,
}

/// A call site, resolved by name at the crate level.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: String,
    /// `.name(` or `::name(` (resolved only if unique in the crate)
    /// vs. a bare `name(` (resolved to every fn of that name).
    pub qualified: bool,
}

/// One lexed `fn` definition.
#[derive(Clone, Debug)]
pub struct FnInfo {
    pub name: String,
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
    /// `pub` without a `pub(restricted)` qualifier.
    pub is_pub: bool,
    pub calls: Vec<Call>,
    pub sites: Vec<Site>,
}

/// Everything the walker extracted from one file.
pub struct FileAnalysis {
    pub fns: Vec<FnInfo>,
    /// Sites outside any fn body (consts, statics): kept for the R1
    /// advisory totals.
    pub orphan_sites: Vec<Site>,
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Tokenizes one code-channel line into `(byte offset, token)`.
fn line_tokens(line: &str) -> Vec<(usize, Tok)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() || !c.is_ascii() {
            i += 1;
            continue;
        }
        if is_ident_char(c) {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            out.push((start, Tok::Ident(line[start..i].to_string())));
            continue;
        }
        out.push((i, Tok::Punct(c)));
        i += 1;
    }
    out
}

/// Words that look like calls but are not (`if (x)`, `while (…)`) or
/// that construct variants rather than call crate fns. `drop` is here
/// because `Drop::drop` cannot be called directly in Rust — a `drop(`
/// call is always `std::mem::drop`, so resolving it to a crate's
/// `Drop` impl would be a guaranteed false edge.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "as", "in", "use", "pub", "impl", "where", "unsafe", "dyn", "box",
    "await", "async", "Some", "None", "Ok", "Err", "Self", "self", "super", "crate", "drop",
];

/// A signature seen but its body `{` not yet reached.
struct Pending {
    name: String,
    line: usize,
    is_pub: bool,
}

fn push_site(
    kind: SiteKind,
    line: usize,
    fns: &mut [FnInfo],
    open: &[(usize, i32)],
    orphans: &mut Vec<Site>,
) {
    let site = Site { kind, line };
    match open.last() {
        Some((f, _)) => fns[*f].sites.push(site),
        None => orphans.push(site),
    }
}

/// Lexes the `fn` spans, call sites, and dangerous sites of one file.
///
/// Test-excluded lines still drive brace/paren depth (so spans close
/// correctly) but contribute no fns, calls, or sites.
pub fn analyze_file(rel: &str, fs: &FileScan) -> FileAnalysis {
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut orphans: Vec<Site> = Vec::new();

    let mut brace_depth: i32 = 0;
    let mut paren_depth: i32 = 0;
    let mut bracket_depth: i32 = 0;
    // Open fn bodies: (index into `fns`, brace depth at entry).
    let mut open: Vec<(usize, i32)> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Tokens since the last `;` / `{` / `}` — the item prefix, for
    // `pub` detection.
    let mut prefix: Vec<Tok> = Vec::new();

    for (idx, line) in fs.code.iter().enumerate() {
        let lineno = idx + 1;
        let excluded = fs.excluded[idx];
        let toks = line_tokens(line);
        let mut t = 0usize;
        while t < toks.len() {
            let (pos, tok) = &toks[t];
            match tok {
                Tok::Punct('{') => {
                    if let Some(p) = pending.take() {
                        if paren_depth == 0 {
                            fns.push(FnInfo {
                                name: p.name,
                                file: rel.to_string(),
                                line: p.line,
                                end_line: p.line,
                                is_pub: p.is_pub,
                                calls: Vec::new(),
                                sites: Vec::new(),
                            });
                            open.push((fns.len() - 1, brace_depth));
                        } else {
                            // `{` inside a signature default — keep
                            // waiting for the body brace.
                            pending = Some(p);
                        }
                    }
                    brace_depth += 1;
                    prefix.clear();
                }
                Tok::Punct('}') => {
                    brace_depth -= 1;
                    if open.last().is_some_and(|(_, d)| *d == brace_depth) {
                        let (f, _) = open.pop().expect("non-empty");
                        fns[f].end_line = lineno;
                    }
                    prefix.clear();
                }
                Tok::Punct(';') => {
                    // `;` inside parens (fn-pointer args) or brackets
                    // (`[u8; 4]` array types) is not an item end.
                    if paren_depth == 0 && bracket_depth == 0 {
                        // A bodyless fn: a trait method declaration.
                        pending = None;
                    }
                    prefix.clear();
                }
                Tok::Punct(c) => {
                    match c {
                        '(' => paren_depth += 1,
                        ')' => paren_depth -= 1,
                        '[' => {
                            bracket_depth += 1;
                            if !excluded && pending.is_none() {
                                if let Some(arith) = index_site_at(line, *pos) {
                                    push_site(
                                        if arith {
                                            SiteKind::IndexArith
                                        } else {
                                            SiteKind::IndexPlain
                                        },
                                        lineno,
                                        &mut fns,
                                        &open,
                                        &mut orphans,
                                    );
                                }
                            }
                        }
                        ']' => bracket_depth -= 1,
                        _ => {}
                    }
                    prefix.push(Tok::Punct(*c));
                }
                Tok::Ident(word) => {
                    if word == "fn" && pending.is_none() && !excluded {
                        // A definition's next token is the name;
                        // fn-pointer types (`fn(`) have none.
                        if let Some((_, Tok::Ident(name))) = toks.get(t + 1) {
                            pending = Some(Pending {
                                name: name.clone(),
                                line: lineno,
                                is_pub: prefix_is_pub(&prefix),
                            });
                            prefix.clear();
                            t += 2; // skip `fn` and the name
                            continue;
                        }
                    }
                    if pending.is_none() && !excluded {
                        record_ident(word, &toks, t, &mut fns, &open);
                    }
                    prefix.push(Tok::Ident(word.clone()));
                }
            }
            t += 1;
        }
    }
    // Close any span left open by unbalanced input.
    for (f, _) in open {
        fns[f].end_line = fs.code.len();
    }
    FileAnalysis {
        fns,
        orphan_sites: orphans,
    }
}

/// Was the item prefix `pub` without a `(restricted)` qualifier?
fn prefix_is_pub(prefix: &[Tok]) -> bool {
    for (i, tok) in prefix.iter().enumerate() {
        if matches!(tok, Tok::Ident(w) if w == "pub") {
            return prefix.get(i + 1) != Some(&Tok::Punct('('));
        }
    }
    false
}

/// Records one identifier followed by `(` as a call on the innermost
/// open fn.
fn record_ident(
    word: &str,
    toks: &[(usize, Tok)],
    t: usize,
    fns: &mut [FnInfo],
    open: &[(usize, i32)],
) {
    let followed_by_paren = matches!(toks.get(t + 1), Some((_, Tok::Punct('('))));
    if !followed_by_paren || NON_CALL_WORDS.contains(&word) {
        return;
    }
    let prev = if t > 0 { Some(&toks[t - 1].1) } else { None };
    let qualified = matches!(prev, Some(Tok::Punct('.')) | Some(Tok::Punct(':')));
    if let Some((f, _)) = open.last() {
        fns[*f].calls.push(Call {
            name: word.to_string(),
            qualified,
        });
    }
}

/// Is the `[` at byte `pos` an index expression (`expr[` — preceded by
/// an ident char, `)`, or `]`)? Returns whether the bracket contents
/// contain *binary* arithmetic (`+`, `-`, `*` preceded by an operand),
/// so derefs `[*i]` and ranges `[..n]` stay plain. Contents are
/// scanned within the line only.
fn index_site_at(line: &str, pos: usize) -> Option<bool> {
    let bytes = line.as_bytes();
    if pos == 0 {
        return None;
    }
    let prev = bytes[pos - 1] as char;
    if !(is_ident_char(prev) || prev == ')' || prev == ']') {
        return None;
    }
    let mut depth = 1i32;
    let mut j = pos + 1;
    let mut arith = false;
    let mut prev_sig: Option<char> = None;
    while j < bytes.len() && depth > 0 {
        let c = bytes[j] as char;
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            '+' | '-' | '*'
                if prev_sig.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']') =>
            {
                arith = true;
            }
            _ => {}
        }
        if !c.is_whitespace() {
            prev_sig = Some(c);
        }
        j += 1;
    }
    Some(arith)
}

/// The per-crate graph: every fn of every file, with name-resolved
/// edges.
pub struct CrateGraph {
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CrateGraph {
    pub fn build(fns: Vec<FnInfo>) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        Self { fns, by_name }
    }

    /// Resolved callees of `f`. Bare calls fan out to every fn of that
    /// name; qualified calls resolve only when unique in the crate.
    fn callees(&self, f: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for call in &self.fns[f].calls {
            let Some(targets) = self.by_name.get(&call.name) else {
                continue;
            };
            if call.qualified && targets.len() != 1 {
                continue;
            }
            out.extend_from_slice(targets);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS from `roots`; returns, per fn, the predecessor on a
    /// shortest path from some root (a root maps to itself). `None` =
    /// unreachable.
    pub fn reach(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for callee in self.callees(f) {
                if parent[callee].is_none() {
                    parent[callee] = Some(f);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// All `pub fn` indices.
    pub fn pub_roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].is_pub)
            .collect()
    }

    /// Renders the shortest call path to `target` as `root -> ... ->
    /// target`.
    pub fn path_to(&self, parent: &[Option<usize>], target: usize) -> String {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.fns[i].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn analyze(src: &str) -> FileAnalysis {
        analyze_file("crates/x/src/lib.rs", &scan(src))
    }

    #[test]
    fn fn_spans_and_publicness_are_extracted() {
        let src = "pub fn api() { helper() }\n\nfn helper() {\n    work();\n}\n\npub(crate) fn internal() {}\n";
        let a = analyze(src);
        let names: Vec<(&str, bool)> = a.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            names,
            vec![("api", true), ("helper", false), ("internal", false)]
        );
        assert_eq!(a.fns[1].line, 3);
        assert_eq!(a.fns[1].end_line, 5);
    }

    #[test]
    fn calls_resolve_and_reachability_paths_render() {
        let src =
            "pub fn api() { mid() }\nfn mid() { leaf() }\nfn leaf() { other() }\nfn island() {}\n";
        let a = analyze(src);
        let g = CrateGraph::build(a.fns);
        let parent = g.reach(&g.pub_roots());
        let leaf = g.fns.iter().position(|f| f.name == "leaf").unwrap();
        let island = g.fns.iter().position(|f| f.name == "island").unwrap();
        assert!(parent[leaf].is_some());
        assert!(parent[island].is_none());
        assert_eq!(g.path_to(&parent, leaf), "api -> mid -> leaf");
    }

    #[test]
    fn qualified_calls_resolve_only_when_unique() {
        let src = "pub fn api(x: T) { x.go() }\nfn go() { dangerous() }\nfn dangerous() {}\n";
        let a = analyze(src);
        let g = CrateGraph::build(a.fns);
        let parent = g.reach(&g.pub_roots());
        let d = g.fns.iter().position(|f| f.name == "dangerous").unwrap();
        assert!(parent[d].is_some(), "unique method name resolves");

        // Two candidates: the edge is dropped, not guessed.
        let src = "pub fn api(x: T) { x.go() }\nimpl A { fn go(&self) { dangerous() } }\nimpl B { fn go(&self) {} }\nfn dangerous() {}\n";
        let a = analyze(src);
        let g = CrateGraph::build(a.fns);
        let parent = g.reach(&g.pub_roots());
        let d = g.fns.iter().position(|f| f.name == "dangerous").unwrap();
        assert!(
            parent[d].is_none(),
            "ambiguous method name does not resolve"
        );
    }

    #[test]
    fn index_sites_classify_arithmetic() {
        let a = analyze("fn f(x: &[f32], i: usize) -> f32 { x[i] + x[i + 1] + x[2 * i] }\n");
        let kinds: Vec<&SiteKind> = a.fns[0].sites.iter().map(|s| &s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &SiteKind::IndexPlain,
                &SiteKind::IndexArith,
                &SiteKind::IndexArith
            ]
        );
    }

    #[test]
    fn deref_and_range_indexing_stay_plain() {
        let a = analyze(
            "fn f(x: &[f32], i: &usize, n: usize) -> f32 { x[*i] + x[..n].len() as f32 }\n",
        );
        assert!(a.fns[0]
            .sites
            .iter()
            .all(|s| s.kind == SiteKind::IndexPlain));
        assert_eq!(a.fns[0].sites.len(), 2);
    }

    #[test]
    fn attribute_type_and_macro_brackets_are_not_sites() {
        let a = analyze(
            "#[inline]\nfn f(x: &[f32]) -> [f32; 4] { let v = vec![0.0; 4]; [v[0], v[1], v[2], v[3]] }\n",
        );
        assert_eq!(a.fns[0].sites.len(), 4);
        assert!(a.fns[0]
            .sites
            .iter()
            .all(|s| s.kind == SiteKind::IndexPlain));
    }

    #[test]
    fn spawn_closures_are_walked() {
        // A panic on a spawned thread is still a panic: R1 follows calls
        // inside a `spawn(...)` argument like any other call.
        let src = "pub fn api() {\n    thread::Builder::new().spawn(move || {\n        work();\n    });\n}\nfn work() {}\n";
        let g = CrateGraph::build(analyze(src).fns);
        let parent = g.reach(&g.pub_roots());
        let work = g.fns.iter().position(|f| f.name == "work").unwrap();
        assert_eq!(g.path_to(&parent, work), "api -> work");
    }

    #[test]
    fn test_modules_contribute_nothing() {
        let src = "fn lib(x: &[u32], i: usize) -> u32 { x[i + 1] }\n#[cfg(test)]\nmod tests {\n    fn t() { y[j + 2]; helper(); }\n}\n";
        let a = analyze(src);
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].sites.len(), 1);
        assert!(a.orphan_sites.is_empty());
    }
}
