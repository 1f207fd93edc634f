//! A minimal Rust source scanner for `maxnvm-lint`.
//!
//! The build environment is offline, so the lint cannot depend on `syn`;
//! instead this module lexes a source file just far enough to separate
//! *code* from *comments and string contents*, and to mark lines that
//! belong to test-only items (`#[cfg(test)]` / `#[test]`).
//! That is all the rule matchers need: they operate on identifier
//! occurrences in the code channel, never on comment or literal text.

/// The per-line result of scanning one source file.
pub struct FileScan {
    /// Source lines with comment text and string/char-literal contents
    /// replaced by spaces (delimiters are kept). Rule matching runs on
    /// this channel so `"HashMap"` in a string never fires D1.
    pub code: Vec<String>,
    /// Comment text per line (line, doc, and block comments), used for
    /// `// SAFETY:` and `maxnvm-lint: allow(...)` detection.
    pub comments: Vec<String>,
    /// Lines inside `#[cfg(test)]` or `#[test]` items.
    pub excluded: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string; the payload is the number of `#` marks in the opener.
    RawStr(usize),
    CharLit,
}

/// Lexes `src` into code and comment channels.
pub fn scan(src: &str) -> FileScan {
    let chars: Vec<char> = src.chars().collect();
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let mut mode = Mode::Code;
    let mut i = 0usize;

    // Pushes a character to the code channel of the current line.
    macro_rules! code_push {
        ($c:expr) => {
            code.last_mut().map(|l| l.push($c));
        };
    }
    macro_rules! comment_push {
        ($c:expr) => {
            comments.last_mut().map(|l| l.push($c));
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            code.push(String::new());
            comments.push(String::new());
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        mode = Mode::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        code_push!(' ');
                        code_push!(' ');
                        i += 2;
                    }
                    '"' => {
                        mode = Mode::Str;
                        code_push!('"');
                        i += 1;
                    }
                    'r' | 'b' | 'c' if is_raw_string_start(&chars, i) => {
                        // Skip the prefix (r, br, cr, b, c) up to the
                        // hashes/quote.
                        let mut j = i;
                        while matches!(chars.get(j), Some(&'r') | Some(&'b') | Some(&'c')) {
                            code_push!(chars[j]);
                            j += 1;
                        }
                        let mut hashes = 0usize;
                        while chars.get(j) == Some(&'#') {
                            code_push!('#');
                            hashes += 1;
                            j += 1;
                        }
                        // j now points at the opening quote.
                        code_push!('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    }
                    'b' | 'c' if next == Some('"') => {
                        code_push!(c);
                        code_push!('"');
                        mode = Mode::Str;
                        i += 2;
                    }
                    '\'' => {
                        if is_char_literal(&chars, i) {
                            code_push!('\'');
                            mode = Mode::CharLit;
                        } else {
                            // Lifetime: emit as-is, stay in code mode.
                            code_push!('\'');
                        }
                        i += 1;
                    }
                    _ => {
                        code_push!(c);
                        i += 1;
                    }
                }
            }
            Mode::LineComment => {
                comment_push!(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment_push!(c);
                    i += 1;
                }
            }
            Mode::Str => match c {
                // A `\` at end of line is a string continuation: leave the
                // newline for the line-break handler so numbering stays
                // in sync.
                '\\' if chars.get(i + 1) == Some(&'\n') => {
                    code_push!(' ');
                    i += 1;
                }
                '\\' => {
                    code_push!(' ');
                    code_push!(' ');
                    i += 2;
                }
                '"' => {
                    code_push!('"');
                    mode = Mode::Code;
                    i += 1;
                }
                _ => {
                    code_push!(' ');
                    i += 1;
                }
            },
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    code_push!('"');
                    for _ in 0..hashes {
                        code_push!('#');
                    }
                    i += 1 + hashes;
                    mode = Mode::Code;
                } else {
                    code_push!(' ');
                    i += 1;
                }
            }
            Mode::CharLit => match c {
                '\\' => {
                    code_push!(' ');
                    code_push!(' ');
                    i += 2;
                }
                '\'' => {
                    code_push!('\'');
                    mode = Mode::Code;
                    i += 1;
                }
                _ => {
                    code_push!(' ');
                    i += 1;
                }
            },
        }
    }

    let excluded = mark_excluded(&code);
    FileScan {
        code,
        comments,
        excluded,
    }
}

/// `r"` / `r#"` / `br"` / `br#"` / `cr"` / `cr#"` at position `i`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Must not be the tail of a longer identifier (e.g. `for r` vs `var`).
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let mut j = i;
    if matches!(chars.get(j), Some(&'b') | Some(&'c')) {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Does the `"` at `i` close a raw string opened with `hashes` marks?
fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes `'a'` / `'\n'` (char literal) from `'static` (lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(c) if is_ident_char(*c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Identifier constituent characters.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items.
///
/// Tracks brace depth through the code channel; when a test attribute is
/// seen, the next braced body at the same depth is excluded. A `;` at
/// that depth first (an item with no body, e.g. a gated `use`) cancels
/// the pending exclusion.
fn mark_excluded(code: &[String]) -> Vec<bool> {
    let mut excluded = vec![false; code.len()];
    let mut depth: i32 = 0;
    let mut pending: Option<i32> = None;
    let mut skip_floor: Option<i32> = None;
    let mut attr: Option<(String, i32)> = None; // (buffer, bracket depth)

    for (ln, line) in code.iter().enumerate() {
        if skip_floor.is_some() {
            excluded[ln] = true;
        }
        let chars: Vec<char> = line.chars().collect();
        let mut j = 0usize;
        while j < chars.len() {
            let c = chars[j];
            if let Some((buf, bdepth)) = attr.as_mut() {
                match c {
                    '[' => *bdepth += 1,
                    ']' => {
                        *bdepth -= 1;
                        if *bdepth == 0 {
                            if is_test_attr(buf) {
                                pending = Some(depth);
                            }
                            attr = None;
                        }
                    }
                    _ => buf.push(c),
                }
                j += 1;
                continue;
            }
            match c {
                '#' if skip_floor.is_none() => {
                    // `#[...]` or `#![...]`; inner attributes (`#!`) apply
                    // to the enclosing module, which we do not exclude.
                    let mut k = j + 1;
                    if chars.get(k) == Some(&'!') {
                        k += 1;
                    }
                    if chars.get(k) == Some(&'[') {
                        attr = Some((String::new(), 1));
                        j = k + 1;
                        continue;
                    }
                }
                '{' => {
                    depth += 1;
                    if pending == Some(depth - 1) {
                        skip_floor = Some(depth - 1);
                        pending = None;
                        excluded[ln] = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if skip_floor == Some(depth) {
                        skip_floor = None;
                    }
                }
                ';' if pending == Some(depth) => pending = None,
                _ => {}
            }
            j += 1;
        }
    }
    excluded
}

/// Is this attribute body a test gate?
///
/// Matches `test`, `cfg(test)`, and `cfg(all/any(...))` combinations
/// containing the `test` word — but not `cfg(not(...))` gates, which
/// guard *production* code.
fn is_test_attr(attr: &str) -> bool {
    let t = attr.trim();
    if t == "test" {
        return true;
    }
    if !has_word(t, "cfg") || has_word(t, "not") {
        return false;
    }
    has_word(t, "test")
}

/// Whole-identifier containment check.
pub fn has_word(haystack: &str, word: &str) -> bool {
    !find_word(haystack, word).is_empty()
}

/// Byte offsets of whole-identifier occurrences of `word` in `line`.
pub fn find_word(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let wlen = word.len();
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after_ok = at + wlen >= bytes.len() || !is_ident_char(bytes[at + wlen] as char);
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + wlen.max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scan("let x = \"HashMap\"; // Instant in comment\n");
        assert!(!s.code[0].contains("HashMap"));
        assert!(s.comments[0].contains("Instant"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan("let x = r#\"unwrap() inside\"#;\nlet y = 1;\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.code[1].contains("let y = 1;"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) { x.unwrap() }\n");
        assert!(s.code[0].contains("unwrap"));
    }

    #[test]
    fn char_literal_contents_are_blanked() {
        let s = scan("let c = '\"'; let d = x.unwrap();\n");
        assert!(s.code[0].contains("unwrap"));
    }

    #[test]
    fn cfg_test_modules_are_excluded() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scan(src);
        assert!(!s.excluded[0]);
        assert!(s.excluded[3]);
        assert!(!s.excluded[5]);
    }

    #[test]
    fn cfg_not_test_is_not_excluded() {
        let src = "#[cfg(not(test))]\nfn prod() { real(); }\n";
        let s = scan(src);
        assert!(!s.excluded[1]);
    }

    #[test]
    fn gated_use_does_not_eat_the_next_block() {
        let src = "#[cfg(test)]\nuse std::sync::Mutex;\nfn prod() { body(); }\n";
        let s = scan(src);
        assert!(!s.excluded[2]);
    }

    #[test]
    fn find_word_respects_boundaries() {
        assert_eq!(find_word("unwrap_or(x)", "unwrap"), Vec::<usize>::new());
        assert_eq!(find_word("a.unwrap()", "unwrap"), vec![2]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let s = scan("/* outer /* inner */ still comment */ let x = 1;\n");
        assert!(s.code[0].contains("let x = 1;"));
        assert!(!s.code[0].contains("inner"));
    }

    #[test]
    fn rules_after_a_nested_comment_are_still_seen() {
        // A depth-unaware lexer would end the comment at the *first*
        // `*/` and hide the trailing code — or, inversely, treat
        // `x.unwrap()` inside the outer comment as code.
        let s = scan("/* /* inner */ */ x.unwrap();\n");
        assert!(s.code[0].contains("unwrap"));
        let s = scan("/* outer /* inner */ x.unwrap() */ let y = 1;\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.code[0].contains("let y = 1;"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        let s = scan("let a = b\"unwrap()\"; let b = br#\"HashMap\"#; let c = 1;\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(!s.code[0].contains("HashMap"));
        assert!(s.code[0].contains("let c = 1;"));
    }

    #[test]
    fn c_strings_and_raw_c_strings_are_blanked() {
        let s = scan("let p = c\"thread_rng\"; let q = cr#\"Instant\"#; let r = 2;\n");
        assert!(!s.code[0].contains("thread_rng"));
        assert!(!s.code[0].contains("Instant"));
        assert!(s.code[0].contains("let r = 2;"));
    }

    #[test]
    fn raw_string_with_inner_quote_hash_needs_full_delimiter() {
        // `"#` inside an `r##"…"##` literal must not close it.
        let s = scan("let x = r##\"tail\"# unwrap()\"##; let y = 3;\n");
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.code[0].contains("let y = 3;"));
    }
}
