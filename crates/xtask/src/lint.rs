//! `maxnvm-lint`: the repo-specific static analysis pass.
//!
//! Five rule families enforce the contracts the evaluation results rest
//! on (see DESIGN.md §11 and §16):
//!
//! - **D1 determinism** — result-affecting crates (`envm`, `encoding`,
//!   `ecc`, `dnn`, `faultsim`) must not use iteration-order-unstable
//!   containers (`HashMap`/`HashSet`), ambient randomness
//!   (`thread_rng`), or wall-clock reads (`Instant`, `SystemTime`) in
//!   library code. The one sanctioned exception — `cancel.rs` deadline
//!   checks — lives in the curated allow-list.
//! - **D2 no-panic** — library code must not call `.unwrap()`,
//!   `.expect()`, or the `panic!`-family macros; failures surface as
//!   typed errors. The `assert!` family is permitted for documented
//!   internal invariants. Direct slice indexing is reported as an
//!   advisory count only.
//! - **D3 unsafe hygiene** — every `unsafe` keyword must be covered by a
//!   `// SAFETY:` comment, and every lint escape hatch (inline allow or
//!   allow-list entry) must carry a justification, which the report
//!   prints.
//! - **R1 panic reachability** — a crate-level call graph (see
//!   [`crate::graph`]) turns the A1 advisory into an enforced rule for
//!   the dangerous subset: fns of result-affecting crates containing
//!   arithmetic-in-bracket index expressions (`x[i + 1]`) that are
//!   reachable from the crate's `pub` API must be fixed or annotated —
//!   in release builds the arithmetic wraps, so an overflow reads a
//!   *wrong* element silently instead of panicking. Plain `x[i]` stays
//!   advisory, now with a public-reachability split per crate.
//! - **C1 bounded channels** — a per-line ban on unbounded
//!   `mpsc::channel()` (or `channel::<T>()`) in `faultsim` in favour of
//!   `sync_channel`.
//!
//! Scope: `src/` of every workspace crate plus the root package, minus
//! `src/bin/`, `tests/`, `benches/`, `examples/`, `#[cfg(test)]` /
//! `#[test]` items, and this xtask itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::{analyze_file, CrateGraph, FileAnalysis, SiteKind};
use crate::scan::{find_word, scan, FileScan};

/// Crates whose library code feeds Monte-Carlo results (rule D1).
const RESULT_AFFECTING: &[&str] = &["envm", "encoding", "ecc", "dnn", "faultsim"];

/// Identifiers banned by D1, with the sub-rule they trip.
const D1_BANNED: &[(&str, &str, &str)] = &[
    (
        "HashMap",
        "D1/hash-container",
        "iteration order is nondeterministic",
    ),
    (
        "HashSet",
        "D1/hash-container",
        "iteration order is nondeterministic",
    ),
    (
        "thread_rng",
        "D1/thread-rng",
        "ambient RNG breaks seeded reproducibility",
    ),
    (
        "Instant",
        "D1/wallclock",
        "wall-clock reads make results timing-dependent",
    ),
    (
        "SystemTime",
        "D1/wallclock",
        "wall-clock reads make results timing-dependent",
    ),
];

/// Macros banned by D2 (the `assert!` family is explicitly allowed).
const D2_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Crates under the C1 unbounded-channel ban: an unbounded queue hides
/// backpressure failures until memory runs out.
const C1_CRATES: &[&str] = &["faultsim"];

/// One rule violation at a source location.
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub snippet: String,
}

/// A violation suppressed by an escape hatch; justification is printed.
pub struct Allowed {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub source: &'static str, // "inline" | "allow-list"
    pub justification: String,
}

/// One entry of the curated `lint-allow.toml`.
pub struct AllowEntry {
    pub path: String,
    pub rule: String,
    pub justification: String,
    pub used: std::cell::Cell<bool>,
}

/// Parsed `lint-allow.toml`.
pub struct AllowList {
    pub version: u64,
    pub entries: Vec<AllowEntry>,
}

/// Per-crate R1 reachability statistics (advisory context for the
/// enforced findings).
pub struct ReachStat {
    pub krate: String,
    pub fns: usize,
    pub pub_fns: usize,
    pub index_plain: usize,
    pub index_plain_reachable: usize,
    pub index_arith: usize,
    pub index_arith_reachable: usize,
}

/// A rendered call path to a dangerous-but-sanctioned site: an
/// inline-allowed D2 construct or an allowed R1 hotspot. Reported so
/// reviewers see what the public API can actually reach.
pub struct PathInfo {
    pub path: String,
    pub line: usize,
    pub rule: String,
    pub call_path: String,
}

/// Full result of a lint run.
pub struct Report {
    pub version: u64,
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub allowed: Vec<Allowed>,
    /// Advisory: direct index expressions per crate (not enforced).
    pub slice_index_counts: BTreeMap<String, usize>,
    pub errors: Vec<String>,
    /// R1 per-crate reachability statistics.
    pub reachability: Vec<ReachStat>,
    /// Call paths from pub APIs to allowed dangerous sites.
    pub allowed_paths: Vec<PathInfo>,
}

fn empty_report() -> Report {
    Report {
        version: 0,
        files_scanned: 0,
        violations: Vec::new(),
        allowed: Vec::new(),
        slice_index_counts: BTreeMap::new(),
        errors: Vec::new(),
        reachability: Vec::new(),
        allowed_paths: Vec::new(),
    }
}

/// Runs the pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut report = empty_report();

    let allow = match load_allow_list(&root.join("lint-allow.toml")) {
        Ok(a) => a,
        Err(e) => {
            report.errors.push(e);
            AllowList {
                version: 0,
                entries: Vec::new(),
            }
        }
    };
    report.version = allow.version;
    if allow.entries.len() > 5 {
        report.errors.push(format!(
            "lint-allow.toml has {} entries; the curated allow-list is capped at 5 — fix the code instead",
            allow.entries.len()
        ));
    }
    for e in &allow.entries {
        if e.justification.trim().is_empty() {
            report.errors.push(format!(
                "lint-allow.toml entry for {} has no justification",
                e.path
            ));
        }
    }

    // Per-crate caches for the graph rules: (rel, src, scan, analysis).
    let mut crate_files: BTreeMap<String, Vec<(String, String, FileScan, FileAnalysis)>> =
        BTreeMap::new();

    for file in workspace_sources(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                report.errors.push(format!("cannot read {rel}: {e}"));
                continue;
            }
        };
        report.files_scanned += 1;
        let fsc = scan(&src);
        lint_file(&rel, &src, &fsc, &allow, &mut report);
        if let Some(krate) = crate_of(&rel) {
            if RESULT_AFFECTING.contains(&krate) {
                let analysis = analyze_file(&rel, &fsc);
                crate_files
                    .entry(krate.to_string())
                    .or_default()
                    .push((rel, src, fsc, analysis));
            }
        }
    }

    graph_rules(&crate_files, &allow, &mut report);

    for e in &allow.entries {
        if !e.used.get() {
            report.errors.push(format!(
                "lint-allow.toml entry for {} ({}) matched nothing — remove it",
                e.path, e.rule
            ));
        }
    }
    report
}

/// R1: the rule over the cached per-crate analyses (it walks the call
/// graph).
fn graph_rules(
    crate_files: &BTreeMap<String, Vec<(String, String, FileScan, FileAnalysis)>>,
    allow: &AllowList,
    report: &mut Report,
) {
    for (krate, files) in crate_files {
        // Assemble the crate graph; remember which file each fn and
        // each orphan site came from.
        let mut fns = Vec::new();
        let mut fn_file: Vec<usize> = Vec::new(); // fn idx -> files idx
        for (fi, (_, _, _, analysis)) in files.iter().enumerate() {
            for f in &analysis.fns {
                fns.push(f.clone());
                fn_file.push(fi);
            }
        }
        let graph = CrateGraph::build(fns);
        let pub_roots = graph.pub_roots();
        let reachable = graph.reach(&pub_roots);

        if RESULT_AFFECTING.contains(&krate.as_str()) {
            r1_rules(krate, files, &graph, &fn_file, &reachable, allow, report);
        }
    }
}

/// R1: enforce arithmetic-index hotspots reachable from the pub API;
/// collect reachability statistics and paths to allowed D2 sites.
#[allow(clippy::too_many_arguments)]
fn r1_rules(
    krate: &str,
    files: &[(String, String, FileScan, FileAnalysis)],
    graph: &CrateGraph,
    fn_file: &[usize],
    reachable: &[Option<usize>],
    allow: &AllowList,
    report: &mut Report,
) {
    let mut stat = ReachStat {
        krate: krate.to_string(),
        fns: graph.fns.len(),
        pub_fns: graph.pub_roots().len(),
        index_plain: 0,
        index_plain_reachable: 0,
        index_arith: 0,
        index_arith_reachable: 0,
    };
    for (_, _, _, analysis) in files {
        for s in &analysis.orphan_sites {
            match s.kind {
                SiteKind::IndexPlain => stat.index_plain += 1,
                SiteKind::IndexArith => stat.index_arith += 1,
            }
        }
    }
    for (i, f) in graph.fns.iter().enumerate() {
        let is_reachable = reachable[i].is_some();
        let mut arith_lines: Vec<usize> = Vec::new();
        for s in &f.sites {
            match s.kind {
                SiteKind::IndexPlain => {
                    stat.index_plain += 1;
                    if is_reachable {
                        stat.index_plain_reachable += 1;
                    }
                }
                SiteKind::IndexArith => {
                    stat.index_arith += 1;
                    if is_reachable {
                        stat.index_arith_reachable += 1;
                        arith_lines.push(s.line);
                    }
                }
            }
        }
        if arith_lines.is_empty() {
            continue;
        }
        arith_lines.dedup();
        let call_path = graph.path_to(reachable, i);
        let (rel, src, fsc, _) = &files[fn_file[i]];
        let n_before = report.allowed.len();
        // Attributed at the fn signature so one fn-level annotation
        // covers every hotspot in the body.
        record(
            report,
            fsc,
            allow,
            rel,
            f.line,
            "R1/index-arith",
            format!(
                "fn `{}` computes indices arithmetically ({}) and is reachable from the pub API \
                 via `{}`; release-mode wrap makes an overflow read the wrong element silently — \
                 bound the arithmetic or annotate the fn",
                f.name,
                lines_list(&arith_lines),
                call_path,
            ),
            src,
        );
        if report.allowed.len() > n_before {
            report.allowed_paths.push(PathInfo {
                path: rel.clone(),
                line: f.line,
                rule: "R1/index-arith".to_string(),
                call_path: call_path.clone(),
            });
        }
    }
    // Paths to D2 sites that were inline-allowed earlier in this run:
    // the allow suppresses the violation, the path stays visible.
    let mut d2_paths = Vec::new();
    for a in &report.allowed {
        if !a.rule.starts_with("D2") || crate_of(&a.path) != Some(krate) {
            continue;
        }
        let Some(i) = graph
            .fns
            .iter()
            .position(|f| f.file == a.path && f.line <= a.line && a.line <= f.end_line)
        else {
            continue;
        };
        if reachable[i].is_some() {
            d2_paths.push(PathInfo {
                path: a.path.clone(),
                line: a.line,
                rule: a.rule.to_string(),
                call_path: graph.path_to(reachable, i),
            });
        }
    }
    report.allowed_paths.extend(d2_paths);
    report.reachability.push(stat);
}

fn lines_list(lines: &[usize]) -> String {
    let mut out = String::from(if lines.len() == 1 { "line " } else { "lines " });
    for (i, l) in lines.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{l}");
    }
    out
}

/// Library sources under `crates/*/src` and the root `src/`, minus
/// `src/bin/` and the xtask crate itself.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() && p.file_name().is_some_and(|n| n != "xtask") {
                dirs.push(p.join("src"));
            }
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "bin") {
                    dirs.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Crate name for a repo-relative path, or `None` for the root package.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn is_result_affecting(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| RESULT_AFFECTING.contains(&c))
}

fn lint_file(rel: &str, src: &str, fs: &FileScan, allow: &AllowList, report: &mut Report) {
    let d1 = is_result_affecting(rel);
    let c1 = crate_of(rel).is_some_and(|c| C1_CRATES.contains(&c));
    let mut slice_indexes = 0usize;

    for (idx, line) in fs.code.iter().enumerate() {
        if fs.excluded[idx] {
            continue;
        }
        let lineno = idx + 1;
        let mut emit = |rule: &'static str, message: String| {
            record(report, fs, allow, rel, lineno, rule, message, src);
        };

        if d1 {
            for (ident, rule, why) in D1_BANNED {
                if !find_word(line, ident).is_empty() {
                    emit(rule, format!("`{ident}` in result-affecting crate: {why}"));
                }
            }
        }

        if c1 {
            for at in find_word(line, "channel") {
                let rest = line[at + "channel".len()..].trim_start();
                if rest.starts_with('(') || rest.starts_with("::<") {
                    emit(
                        "C1/unbounded-channel",
                        "unbounded `mpsc::channel()`; use `sync_channel` so backpressure surfaces \
                         instead of growing the queue"
                            .into(),
                    );
                }
            }
        }

        for at in find_word(line, "unwrap") {
            if called_as_method(line, at, "unwrap") {
                emit(
                    "D2/unwrap",
                    "`.unwrap()` in library code; use a typed error or a total rewrite".into(),
                );
            }
        }
        for at in find_word(line, "expect") {
            if called_as_method(line, at, "expect") {
                emit(
                    "D2/expect",
                    "`.expect()` in library code; use a typed error or a total rewrite".into(),
                );
            }
        }
        for mac in D2_MACROS {
            for at in find_word(line, mac) {
                let rest = line[at + mac.len()..].trim_start();
                if rest.starts_with('!') {
                    emit(
                        "D2/panic",
                        format!("`{mac}!` in library code; surface a typed error"),
                    );
                }
            }
        }

        for at in find_word(line, "unsafe") {
            let _ = at;
            if !has_safety_comment(fs, idx) {
                emit(
                    "D3/safety-comment",
                    "`unsafe` without a `// SAFETY:` comment in the preceding lines".into(),
                );
            }
        }

        slice_indexes += count_index_exprs(line);
    }

    if slice_indexes > 0 {
        let key = crate_of(rel).unwrap_or("(root)").to_string();
        *report.slice_index_counts.entry(key).or_insert(0) += slice_indexes;
    }
}

/// Records a violation, routing it through the escape hatches first.
#[allow(clippy::too_many_arguments)]
fn record(
    report: &mut Report,
    fs: &FileScan,
    allow: &AllowList,
    rel: &str,
    lineno: usize,
    rule: &'static str,
    message: String,
    src: &str,
) {
    if let Some(justification) = inline_allow(fs, lineno, rule) {
        if justification.is_empty() {
            report.violations.push(Violation {
                path: rel.to_string(),
                line: lineno,
                rule: "D3/allow-justification",
                message: format!("inline allow for {rule} has no justification text"),
                snippet: snippet(src, lineno),
            });
        } else {
            report.allowed.push(Allowed {
                path: rel.to_string(),
                line: lineno,
                rule,
                source: "inline",
                justification,
            });
        }
        return;
    }
    for entry in &allow.entries {
        if entry.path == rel && rule.starts_with(entry.rule.as_str()) {
            entry.used.set(true);
            report.allowed.push(Allowed {
                path: rel.to_string(),
                line: lineno,
                rule,
                source: "allow-list",
                justification: entry.justification.clone(),
            });
            return;
        }
    }
    report.violations.push(Violation {
        path: rel.to_string(),
        line: lineno,
        rule,
        message,
        snippet: snippet(src, lineno),
    });
}

/// Is the identifier at byte offset `at` a method call `.name(`?
fn called_as_method(line: &str, at: usize, name: &str) -> bool {
    let before = line[..at].trim_end();
    if !before.ends_with('.') {
        return false;
    }
    let after = line[at + name.len()..].trim_start();
    after.starts_with('(')
}

/// Looks for `// SAFETY:` on the same line or within the 10 preceding
/// lines (attributes and the `unsafe` item header may sit in between).
fn has_safety_comment(fs: &FileScan, idx: usize) -> bool {
    let lo = idx.saturating_sub(10);
    fs.comments[lo..=idx].iter().any(|c| c.contains("SAFETY:"))
}

/// Parses `maxnvm-lint: allow(rule): justification` on the violation
/// line or the immediately preceding comment lines. Returns the
/// justification (possibly empty) when the rule matches.
fn inline_allow(fs: &FileScan, lineno: usize, rule: &str) -> Option<String> {
    let idx = lineno - 1;
    let lo = idx.saturating_sub(3);
    for c in fs.comments[lo..=idx].iter().rev() {
        let Some(pos) = c.find("maxnvm-lint: allow(") else {
            continue;
        };
        let rest = &c[pos + "maxnvm-lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let allowed_rule = rest[..close].trim();
        if !rule.starts_with(allowed_rule) {
            continue;
        }
        let just = rest[close + 1..]
            .trim_start_matches([':', ' ', '-', '—', '–'])
            .trim()
            .to_string();
        return Some(just);
    }
    None
}

/// Advisory: counts `expr[...]` index expressions (`name[`, `)[`, `][`).
fn count_index_exprs(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut n = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if crate::scan::is_ident_char(prev) || prev == ')' || prev == ']' {
            // Attributes (`#[...]`) never match: prev is `#` or `!` there.
            n += 1;
        }
    }
    n
}

fn snippet(src: &str, lineno: usize) -> String {
    src.lines()
        .nth(lineno - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Minimal parser for the subset of TOML `lint-allow.toml` uses:
/// a top-level `version = N` and `[[allow]]` tables of string keys.
pub fn load_allow_list(path: &Path) -> Result<AllowList, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut version = 0u64;
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut in_allow = false;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            entries.push(AllowEntry {
                path: String::new(),
                rule: String::new(),
                justification: String::new(),
                used: std::cell::Cell::new(false),
            });
            in_allow = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint-allow.toml:{}: expected `key = value`", n + 1));
        };
        let key = key.trim();
        let value = value.trim().trim_matches('"').to_string();
        if !in_allow {
            if key == "version" {
                version = value.parse().map_err(|_| {
                    format!("lint-allow.toml:{}: version must be an integer", n + 1)
                })?;
            }
            continue;
        }
        let entry = entries
            .last_mut()
            .ok_or_else(|| format!("lint-allow.toml:{}: key outside [[allow]]", n + 1))?;
        match key {
            "path" => entry.path = value,
            "rule" => entry.rule = value,
            "justification" => entry.justification = value,
            other => {
                return Err(format!("lint-allow.toml:{}: unknown key {other:?}", n + 1));
            }
        }
    }
    Ok(AllowList { version, entries })
}

impl Report {
    /// Non-empty violations or configuration errors fail the run.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "maxnvm-lint v{} — D1 determinism, D2 no-panic, D3 unsafe hygiene, \
             R1 panic reachability, C1 bounded channels",
            self.version
        );
        for v in &self.violations {
            let _ = writeln!(out, "error[{}]: {}", v.rule, v.message);
            if v.line == 0 {
                let _ = writeln!(out, "  --> {}", v.path);
            } else {
                let _ = writeln!(out, "  --> {}:{}", v.path, v.line);
            }
            if !v.snippet.is_empty() {
                let _ = writeln!(out, "   | {}", v.snippet);
            }
        }
        for e in &self.errors {
            let _ = writeln!(out, "error[config]: {e}");
        }
        if !self.allowed.is_empty() {
            let _ = writeln!(out, "allowed ({}):", self.allowed.len());
            for a in &self.allowed {
                let _ = writeln!(
                    out,
                    "  {}:{} [{}] ({}): {}",
                    a.path, a.line, a.rule, a.source, a.justification
                );
            }
        }
        for r in &self.reachability {
            let _ = writeln!(
                out,
                "advisory[R1/reach]: {}: {}/{} fn(s) pub, {} plain index site(s) ({} pub-reachable), {} arithmetic ({} pub-reachable, enforced)",
                r.krate,
                r.pub_fns,
                r.fns,
                r.index_plain,
                r.index_plain_reachable,
                r.index_arith,
                r.index_arith_reachable
            );
        }
        for (krate, n) in &self.slice_index_counts {
            let _ = writeln!(
                out,
                "advisory[A1/slice-index]: {krate}: {n} direct index expressions (not enforced; panics on out-of-range)"
            );
        }
        let _ = writeln!(
            out,
            "summary: {} violation(s), {} allowed, {} file(s) scanned",
            self.violations.len() + self.errors.len(),
            self.allowed.len(),
            self.files_scanned
        );
        out
    }

    /// Violation + allow counts per rule, for the JSON report and the
    /// bench provenance stamp.
    pub fn rule_counts(&self) -> BTreeMap<String, (usize, usize)> {
        let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for v in &self.violations {
            counts.entry(v.rule.to_string()).or_default().0 += 1;
        }
        for a in &self.allowed {
            counts.entry(a.rule.to_string()).or_default().1 += 1;
        }
        counts
    }

    /// Machine-readable JSON report (schema v3: v2 without the
    /// `semantics` block; v2 added `rule_counts`, `reachability`, and
    /// `allowed_paths`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"maxnvm-lint-report/v3\",");
        let _ = writeln!(out, "  \"lint_pass_version\": {},", self.version);
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"rule_counts\": {\n");
        let counts = self.rule_counts();
        for (i, (rule, (viols, allowed))) in counts.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{\"violations\": {viols}, \"allowed\": {allowed}}}",
                json_str(rule)
            );
            out.push_str(if i + 1 < counts.len() { ",\n" } else { "\n" });
        }
        out.push_str("  },\n");
        out.push_str("  \"reachability\": [\n");
        for (i, r) in self.reachability.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"crate\": {}, \"fns\": {}, \"pub_fns\": {}, \"index_plain\": {}, \"index_plain_reachable\": {}, \"index_arith\": {}, \"index_arith_reachable\": {}}}",
                json_str(&r.krate),
                r.fns,
                r.pub_fns,
                r.index_plain,
                r.index_plain_reachable,
                r.index_arith,
                r.index_arith_reachable
            );
            out.push_str(if i + 1 < self.reachability.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"allowed_paths\": [\n");
        for (i, p) in self.allowed_paths.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"call_path\": {}}}",
                json_str(&p.path),
                p.line,
                json_str(&p.rule),
                json_str(&p.call_path)
            );
            out.push_str(if i + 1 < self.allowed_paths.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&v.path),
                v.line,
                json_str(v.rule),
                json_str(&v.message)
            );
            out.push_str(if i + 1 < self.violations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"allowed\": [\n");
        for (i, a) in self.allowed.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"source\": {}, \"justification\": {}}}",
                json_str(&a.path),
                a.line,
                json_str(a.rule),
                json_str(a.source),
                json_str(&a.justification)
            );
            out.push_str(if i + 1 < self.allowed.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"config_errors\": [\n");
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(out, "    {}", json_str(e));
            out.push_str(if i + 1 < self.errors.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"advisory_slice_index\": {\n");
        let total = self.slice_index_counts.len();
        for (i, (krate, n)) in self.slice_index_counts.iter().enumerate() {
            let _ = write!(out, "    {}: {}", json_str(krate), n);
            out.push_str(if i + 1 < total { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Report {
        let mut report = empty_report();
        report.version = 2;
        report.files_scanned = 1;
        let allow = AllowList {
            version: 2,
            entries: Vec::new(),
        };
        lint_file(rel, src, &scan(src), &allow, &mut report);
        report
    }

    /// Runs the full graph-rule pass over in-memory files of one crate.
    fn graph_str(krate: &str, files: &[(&str, &str)]) -> Report {
        let mut report = empty_report();
        report.version = 2;
        let allow = AllowList {
            version: 2,
            entries: Vec::new(),
        };
        let mut crate_files: BTreeMap<String, Vec<(String, String, FileScan, FileAnalysis)>> =
            BTreeMap::new();
        for (rel, src) in files {
            let fsc = scan(src);
            let analysis = analyze_file(rel, &fsc);
            crate_files.entry(krate.to_string()).or_default().push((
                rel.to_string(),
                src.to_string(),
                fsc,
                analysis,
            ));
        }
        graph_rules(&crate_files, &allow, &mut report);
        report
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let r = lint_str(
            "crates/envm/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "D2/unwrap");
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let r = lint_str(
            "crates/envm/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap_or(0); }\n",
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { None::<u8>.unwrap(); }\n}\n";
        let r = lint_str("crates/envm/src/x.rs", src);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn hashmap_flagged_only_in_result_affecting_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_str("crates/envm/src/x.rs", src).violations.len(), 1);
        assert!(lint_str("crates/nvsim/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn assert_family_is_allowed() {
        let src = "fn f(n: usize) { assert!(n > 0); debug_assert_eq!(n, n); }\n";
        assert!(lint_str("crates/ecc/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn panic_macros_are_flagged() {
        let src = "fn f() { unreachable!(); }\n";
        let r = lint_str("crates/dnn/src/x.rs", src);
        assert_eq!(r.violations[0].rule, "D2/panic");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core() } }\n";
        let good = "// SAFETY: scope guard joins before return.\nfn f() { unsafe { core() } }\n";
        assert_eq!(
            lint_str("crates/faultsim/src/x.rs", bad).violations[0].rule,
            "D3/safety-comment"
        );
        assert!(lint_str("crates/faultsim/src/x.rs", good)
            .violations
            .is_empty());
    }

    #[test]
    fn inline_allow_with_justification_suppresses() {
        let src = "fn f(x: Option<u8>) {\n  // maxnvm-lint: allow(D2/unwrap): cannot fail, slot filled above\n  x.unwrap();\n}\n";
        let r = lint_str("crates/envm/src/x.rs", src);
        assert!(r.violations.is_empty());
        assert_eq!(r.allowed.len(), 1);
        assert!(r.allowed[0].justification.contains("cannot fail"));
    }

    #[test]
    fn inline_allow_without_justification_is_a_violation() {
        let src = "// maxnvm-lint: allow(D2/unwrap)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let r = lint_str("crates/envm/src/x.rs", src);
        assert_eq!(r.violations[0].rule, "D3/allow-justification");
    }

    #[test]
    fn banned_names_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str { \"HashMap Instant unwrap()\" } // thread_rng\n";
        assert!(lint_str("crates/envm/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn sparse_modules_are_in_the_d1_scan() {
        // The trial path is result-affecting end to end: the GEMM and
        // row kernels, the prefix cache, the clean decode and its
        // nonzero counts all feed Monte-Carlo results. Lock them into the
        // D1 scan so a module move can't silently drop them from
        // enforcement.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files: Vec<String> = workspace_sources(&root)
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap_or(p)
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        for rel in [
            "crates/dnn/src/sparse.rs",
            "crates/dnn/src/gemm.rs",
            "crates/dnn/src/gemm/dispatch.rs",
            "crates/dnn/src/gemm/kernel_x86.rs",
            "crates/dnn/src/gemm/kernel_neon.rs",
            "crates/dnn/src/prefix.rs",
            "crates/encoding/src/storage/prepared.rs",
            "crates/faultsim/src/evaluate.rs",
        ] {
            assert!(
                files.iter().any(|f| f == rel),
                "{rel} missing from the lint scan"
            );
            assert!(is_result_affecting(rel), "{rel} exempt from D1");
        }
        let r = lint_str(
            "crates/dnn/src/sparse.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "D1/hash-container");
    }

    #[test]
    fn checkpoint_modules_and_d1_exempt_crates_have_the_right_scan_status() {
        // The checkpoint substrate (stores, retry, parsing) feeds
        // resumed campaign results, so it must stay under the full D1
        // scan. The analytic models (`nvsim`) feed no Monte-Carlo
        // result, so they are *in* the scan (D2 no-panic still applies)
        // but *not* result-affecting.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files: Vec<String> = workspace_sources(&root)
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap_or(p)
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        for rel in [
            "crates/faultsim/src/checkpoint.rs",
            "crates/faultsim/src/engine/shard.rs",
            "crates/encoding/src/storage/cache.rs",
            "crates/nvsim/src/lib.rs",
        ] {
            assert!(
                files.iter().any(|f| f == rel),
                "{rel} missing from the lint scan"
            );
        }
        assert!(is_result_affecting("crates/faultsim/src/checkpoint.rs"));
        // Shard assignment decides which RNG streams execute where, so
        // it stays under the full D1 determinism scan.
        assert!(is_result_affecting("crates/faultsim/src/engine/shard.rs"));
        assert!(!is_result_affecting("crates/nvsim/src/lib.rs"));
        // D2 holds for a crate even though it is D1-exempt.
        let r = lint_str(
            "crates/nvsim/src/lib.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "D2/unwrap");
        // And Instant stays banned where it matters: the checkpoint
        // module retries with Duration arithmetic only.
        let r = lint_str(
            "crates/faultsim/src/checkpoint.rs",
            "use std::time::Instant;\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "D1/wallclock");
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let r = lint_str(
            "crates/envm/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        let j = r.render_json();
        assert!(j.contains("\"schema\": \"maxnvm-lint-report/v3\""));
        assert!(!j.contains("\"semantics\""));
        assert!(j.contains("\"rule\": \"D2/unwrap\""));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"rule_counts\""));
        assert!(j.contains("\"D2/unwrap\": {\"violations\": 1, \"allowed\": 0}"));
    }

    #[test]
    fn r1_flags_reachable_arithmetic_index_fns() {
        let r = graph_str(
            "dnn",
            &[(
                "crates/dnn/src/x.rs",
                "pub fn api(x: &[f32], i: usize) -> f32 { inner(x, i) }\n\
                 fn inner(x: &[f32], i: usize) -> f32 { x[i * 4 + 1] }\n\
                 fn dead(x: &[f32], i: usize) -> f32 { x[i + 2] }\n",
            )],
        );
        assert_eq!(r.violations.len(), 1, "only the reachable fn is enforced");
        assert_eq!(r.violations[0].rule, "R1/index-arith");
        assert_eq!(r.violations[0].line, 2);
        assert!(r.violations[0].message.contains("api -> inner"));
        let stat = &r.reachability[0];
        assert_eq!(stat.index_arith, 2);
        assert_eq!(stat.index_arith_reachable, 1);
    }

    #[test]
    fn r1_inline_allow_suppresses_and_reports_the_path() {
        let r = graph_str(
            "dnn",
            &[(
                "crates/dnn/src/x.rs",
                "// maxnvm-lint: allow(R1/index-arith): i < len/4 by construction\n\
                 pub fn api(x: &[f32], i: usize) -> f32 { x[i * 4] }\n",
            )],
        );
        assert!(r.violations.is_empty());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed_paths.len(), 1);
        assert_eq!(r.allowed_paths[0].rule, "R1/index-arith");
    }

    #[test]
    fn plain_indexing_stays_advisory() {
        let r = graph_str(
            "dnn",
            &[(
                "crates/dnn/src/x.rs",
                "pub fn api(x: &[f32], i: usize) -> f32 { x[i] }\n",
            )],
        );
        assert!(r.violations.is_empty());
        assert_eq!(r.reachability[0].index_plain, 1);
        assert_eq!(r.reachability[0].index_plain_reachable, 1);
    }

    #[test]
    fn c1_unbounded_channel_is_banned_in_faultsim() {
        // Both spellings of the unbounded constructor, and the one in
        // item position, which no fn body holds.
        for src in [
            "pub fn wire() { let (tx, rx) = std::sync::mpsc::channel(); }\n",
            "pub fn wire() { let (tx, rx) = mpsc::channel::<u64>(); }\n",
            "static Q: Lazy<Chan> = Lazy::new(|| channel ());\n",
        ] {
            let r = lint_str("crates/faultsim/src/x.rs", src);
            assert_eq!(r.violations.len(), 1, "{src}");
            assert_eq!(r.violations[0].rule, "C1/unbounded-channel");
        }
        // `sync_channel` is the sanctioned spelling, in either form, and
        // the ban is `faultsim`'s alone.
        for (rel, src) in [
            (
                "crates/faultsim/src/x.rs",
                "pub fn wire() { let (tx, rx) = std::sync::mpsc::sync_channel(8); }\n",
            ),
            (
                "crates/faultsim/src/x.rs",
                "pub fn wire() { let (tx, rx) = mpsc::sync_channel::<u64>(8); }\n",
            ),
            (
                "crates/bench/src/x.rs",
                "pub fn wire() { let (tx, rx) = mpsc::channel::<u64>(); }\n",
            ),
        ] {
            let r = lint_str(rel, src);
            assert!(r.violations.is_empty(), "{rel}: {src}");
            assert!(r.errors.is_empty());
        }
    }
}
