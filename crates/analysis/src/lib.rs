//! Repo-native static analysis for the PathEnum reproduction.
//!
//! An offline, dependency-free lint engine that enforces invariants the
//! compiler cannot see: atomic-ordering justifications, panic-free serving
//! paths, zero-allocation kernels, the deliberate `FxHashMap` choice in
//! hot modules, an `unsafe` inventory, and a lock-hygiene heuristic.
//!
//! The front end is a small hand-rolled Rust lexer (no `syn`): it blanks
//! comments and string/char-literal contents out of the source while
//! preserving line/column geometry, and collects the comments separately
//! so rules can match tokens in code without false positives from prose,
//! and annotations can be read from comments.
//!
//! ## Annotations and suppressions
//!
//! - `// ordering: <invariant>` — justifies `Ordering::*` uses (rule
//!   `atomic-ordering`).
//! - `// alloc: setup|scratch — <why>` — justifies allocation-shaped calls
//!   in kernel files (rule `alloc-in-kernel`).
//! - `// SAFETY: <argument>` — required above every `unsafe` (rule
//!   `unsafe-inventory`).
//! - `// lint: allow(<rule>) — <reason>` — suppresses any rule; the reason
//!   is mandatory (a missing reason is itself a `lint-syntax` finding).
//!
//! An annotation covers its own line plus every contiguous following
//! non-blank line; coverage resets at the first blank source line. This
//! lets one justification cover a tight cluster (e.g. a block of
//! counter updates) without annotating every line.

use std::collections::BTreeMap;

/// One comment as seen by the lexer, with 1-based start/end lines.
#[derive(Debug, Clone)]
pub struct Comment {
    pub start_line: usize,
    pub end_line: usize,
    pub text: String,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub struct FileText {
    /// Source lines with comments and string/char contents blanked to
    /// spaces. Same line count and per-line width as the input.
    pub code: Vec<String>,
    /// All comments, in order of appearance.
    pub comments: Vec<Comment>,
    /// `blank[i]` is true when source line `i+1` is whitespace-only.
    pub blank: Vec<bool>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src`: blank out comments and literal contents, collect comments.
///
/// Handles line comments, nested block comments, regular/byte strings with
/// escapes, raw strings (`r"…"`, `r#"…"#`, `br#"…"#`), raw identifiers
/// (`r#match`), and char literals vs. lifetimes.
pub fn lex(src: &str) -> FileText {
    let chars: Vec<char> = src.chars().collect();
    let mut out = chars.clone();
    let mut comments = Vec::new();
    let n = chars.len();
    let mut i = 0usize;
    let mut line = 1usize;

    // Consume a quoted span with escape processing, blanking the contents.
    // `i` points at the opening quote; returns with `i` past the close.
    fn eat_quoted(chars: &[char], out: &mut [char], i: &mut usize, line: &mut usize, quote: char) {
        *i += 1; // opening quote stays visible
        while *i < chars.len() {
            let c = chars[*i];
            if c == '\\' {
                out[*i] = ' ';
                *i += 1;
                if *i < chars.len() {
                    if chars[*i] == '\n' {
                        *line += 1;
                    } else {
                        out[*i] = ' ';
                    }
                    *i += 1;
                }
                continue;
            }
            if c == quote {
                *i += 1; // closing quote stays visible
                return;
            }
            if c == '\n' {
                *line += 1;
            } else {
                out[*i] = ' ';
            }
            *i += 1;
        }
    }

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                out[i] = ' ';
                i += 1;
            }
            comments.push(Comment {
                start_line: line,
                end_line: line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            out[i] = ' ';
            out[i + 1] = ' ';
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    } else {
                        out[i] = ' ';
                    }
                    i += 1;
                }
            }
            comments.push(Comment {
                start_line,
                end_line: line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        // Identifier-ish run: also the entry point for raw strings, byte
        // strings, and raw identifiers (`r"…"`, `br#"…"#`, `b'x'`, `r#if`).
        if is_ident(c) && (i == 0 || !is_ident(chars[i - 1])) {
            let start = i;
            while i < n && is_ident(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let rawish = word == "r" || word == "br" || word == "rb";
            if rawish && i < n && (chars[i] == '"' || chars[i] == '#') {
                let mut j = i;
                let mut hashes = 0usize;
                while j < n && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && chars[j] == '"' {
                    // Raw string: no escapes; ends at `"` + `hashes` hashes.
                    i = j + 1;
                    'raw: while i < n {
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && chars[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if chars[i] == '\n' {
                            line += 1;
                        } else {
                            out[i] = ' ';
                        }
                        i += 1;
                    }
                } else if word == "r" && hashes == 1 && j < n && is_ident(chars[j]) {
                    // Raw identifier `r#ident`: skip the `#` and the word.
                    i = j;
                    while i < n && is_ident(chars[i]) {
                        i += 1;
                    }
                }
                continue;
            }
            if word == "b" && i < n && (chars[i] == '"' || chars[i] == '\'') {
                let quote = chars[i];
                eat_quoted(&chars, &mut out, &mut i, &mut line, quote);
                continue;
            }
            continue;
        }
        // Regular string.
        if c == '"' {
            eat_quoted(&chars, &mut out, &mut i, &mut line, '"');
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                eat_quoted(&chars, &mut out, &mut i, &mut line, '\'');
            } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                out[i + 1] = ' ';
                i += 3;
            } else {
                // Lifetime (or stray quote): leave the name in the code.
                i += 1;
            }
            continue;
        }
        i += 1;
    }

    let code: Vec<String> = out
        .split(|&c| c == '\n')
        .map(|l| l.iter().collect())
        .collect();
    let blank: Vec<bool> = src.split('\n').map(|l| l.trim().is_empty()).collect();
    FileText {
        code,
        comments,
        blank,
    }
}

/// One diagnostic. `path` uses forward slashes relative to the repo root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl Finding {
    /// rustc-style rendering: `error[rule]: msg\n  --> path:line:col`.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.path, self.line, self.col
        )
    }
}

pub const RULES: [&str; 7] = [
    "atomic-ordering",
    "no-panic",
    "alloc-in-kernel",
    "std-hashmap",
    "unsafe-inventory",
    "lock-hygiene",
    "lint-syntax",
];

/// Per-line annotation coverage for one file (1-based line indexing).
struct Coverage {
    ordering: Vec<bool>,
    alloc: Vec<bool>,
    safety: Vec<bool>,
    allow: BTreeMap<String, Vec<bool>>,
}

impl Coverage {
    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allow
            .get(rule)
            .map(|v| v.get(line).copied().unwrap_or(false))
            .unwrap_or(false)
    }
}

/// Mark `cov[line..]` true through the contiguous non-blank run.
fn mark_coverage(cov: &mut [bool], blank: &[bool], line: usize) {
    let mut l = line;
    while l < cov.len() {
        if l > line && blank.get(l - 1).copied().unwrap_or(true) {
            break;
        }
        cov[l] = true;
        l += 1;
    }
}

/// Extract annotation coverage (and malformed-suppression findings).
fn scan_annotations(path: &str, text: &FileText, findings: &mut Vec<Finding>) -> Coverage {
    let lines = text.code.len();
    let mut cov = Coverage {
        ordering: vec![false; lines + 1],
        alloc: vec![false; lines + 1],
        safety: vec![false; lines + 1],
        allow: BTreeMap::new(),
    };
    for comment in &text.comments {
        let body = comment
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        let anchor = comment.end_line;
        if body.starts_with("ordering:") {
            mark_coverage(&mut cov.ordering, &text.blank, anchor);
        } else if body.starts_with("alloc:") {
            mark_coverage(&mut cov.alloc, &text.blank, anchor);
        } else if body.starts_with("SAFETY:") {
            mark_coverage(&mut cov.safety, &text.blank, anchor);
        } else if let Some(rest) = body.strip_prefix("lint:") {
            let rest = rest.trim_start();
            let parsed = rest.strip_prefix("allow(").and_then(|r| {
                r.split_once(')')
                    .map(|(rule, reason)| (rule.trim().to_string(), reason))
            });
            match parsed {
                Some((rule, reason)) => {
                    let reason_ok = reason
                        .trim_matches(|c: char| {
                            c.is_whitespace() || c == '-' || c == '—' || c == ':'
                        })
                        .chars()
                        .count()
                        >= 3;
                    if !RULES.contains(&rule.as_str()) {
                        findings.push(Finding {
                            rule: "lint-syntax",
                            path: path.to_string(),
                            line: comment.start_line,
                            col: 1,
                            message: format!("suppression names unknown rule `{rule}`"),
                        });
                    } else if !reason_ok {
                        findings.push(Finding {
                            rule: "lint-syntax",
                            path: path.to_string(),
                            line: comment.start_line,
                            col: 1,
                            message: format!(
                                "suppression for `{rule}` is missing a reason \
                                 (`// lint: allow({rule}) — <why>`)"
                            ),
                        });
                    } else {
                        let slot = cov
                            .allow
                            .entry(rule)
                            .or_insert_with(|| vec![false; lines + 1]);
                        mark_coverage(slot, &text.blank, anchor);
                    }
                }
                None => findings.push(Finding {
                    rule: "lint-syntax",
                    path: path.to_string(),
                    line: comment.start_line,
                    col: 1,
                    message: "malformed lint comment; expected \
                              `// lint: allow(<rule>) — <reason>`"
                        .to_string(),
                }),
            }
        }
    }
    cov
}

/// Lines inside `#[cfg(test)]`-gated items (brace-matched heuristically).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len() + 1];
    let mut i = 0usize; // 0-based line index
    while i < code.len() {
        if !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0isize;
        let mut started = false;
        let mut j = i;
        'scan: while j < code.len() {
            for ch in code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth <= 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(code.len() - 1);
        for mark in in_test.iter_mut().take(end + 2).skip(i + 1) {
            *mark = true;
        }
        i = end + 1;
    }
    in_test
}

/// Byte offsets of `needle` in `line` with identifier boundaries on both
/// sides (so `FxHashMap` never matches `HashMap`).
fn token_hits(line: &str, needle: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for (off, _) in line.match_indices(needle) {
        let before = line[..off].chars().next_back();
        let after = line[off + needle.len()..].chars().next();
        let left_ok = !matches!(before, Some(c) if is_ident(c));
        let first = needle.chars().next().unwrap_or(' ');
        let last = needle.chars().next_back().unwrap_or(' ');
        let right_ok = !is_ident(last) || !matches!(after, Some(c) if is_ident(c));
        if (left_ok || !is_ident(first)) && right_ok {
            hits.push(off);
        }
    }
    hits
}

struct RuleCtx<'a> {
    path: &'a str,
    text: &'a FileText,
    cov: &'a Coverage,
    in_test: &'a [bool],
}

impl RuleCtx<'_> {
    fn push(
        &self,
        findings: &mut Vec<Finding>,
        rule: &'static str,
        line: usize,
        col: usize,
        msg: String,
    ) {
        if self.cov.allowed(rule, line) {
            return;
        }
        findings.push(Finding {
            rule,
            path: self.path.to_string(),
            line,
            col,
            message: msg,
        });
    }
}

const ORDERING_SCOPE: [&str; 8] = [
    "crates/pathenum/src/results.rs",
    "crates/pathenum/src/catalog.rs",
    "crates/pathenum/src/admission.rs",
    "crates/pathenum/src/plan.rs",
    "crates/pathenum/src/pipeline.rs",
    "crates/pathenum/src/sharded.rs",
    "crates/graph/src/version.rs",
    "crates/graph/src/epoch.rs",
];

const NO_PANIC_SCOPE: [&str; 5] = [
    "crates/pathenum/src/catalog.rs",
    "crates/pathenum/src/admission.rs",
    "crates/pathenum/src/results.rs",
    "crates/pathenum/src/pipeline.rs",
    "crates/pathenum/src/sharded.rs",
];

fn in_kernel_scope(path: &str) -> bool {
    path.starts_with("crates/pathenum/src/enumerate/")
        || path == "crates/graph/src/bfs.rs"
        || path == "crates/graph/src/epoch.rs"
}

fn in_hashmap_scope(path: &str) -> bool {
    in_kernel_scope(path)
        || path == "crates/pathenum/src/plan.rs"
        || path == "crates/pathenum/src/sharded.rs"
        || path.starts_with("crates/pathenum/src/index/")
}

const UNSAFE_ALLOWLIST: [&str; 2] = ["crates/graph/src/zerocopy.rs", "crates/bench/src/alloc.rs"];

fn rule_atomic_ordering(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    if !ORDERING_SCOPE.contains(&ctx.path) {
        return;
    }
    const ORDERINGS: [&str; 5] = [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
        "Ordering::SeqCst",
    ];
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        if ctx.in_test[lineno] || ctx.cov.ordering[lineno] {
            continue;
        }
        for needle in ORDERINGS {
            for off in token_hits(line, needle) {
                ctx.push(
                    findings,
                    "atomic-ordering",
                    lineno,
                    off + 1,
                    format!(
                        "`{needle}` without an `// ordering:` justification \
                         naming the invariant it upholds"
                    ),
                );
            }
        }
    }
}

fn rule_no_panic(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    if !NO_PANIC_SCOPE.contains(&ctx.path) {
        return;
    }
    const PANICKY: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        if ctx.in_test[lineno] {
            continue;
        }
        for needle in PANICKY {
            for off in token_hits(line, needle) {
                ctx.push(
                    findings,
                    "no-panic",
                    lineno,
                    off + 1,
                    format!(
                        "`{}` on a serving path — a panic here burns a \
                         catch_unwind and a ticket; recover or return a \
                         typed error",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

fn rule_alloc_in_kernel(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    if !in_kernel_scope(ctx.path) {
        return;
    }
    const ALLOCY: [&str; 10] = [
        "Vec::new",
        "VecDeque::new",
        "String::new",
        "vec!",
        "Box::new",
        ".to_vec(",
        ".collect(",
        ".clone(",
        ".to_string(",
        "format!",
    ];
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        if ctx.in_test[lineno] || ctx.cov.alloc[lineno] {
            continue;
        }
        for needle in ALLOCY {
            for off in token_hits(line, needle) {
                ctx.push(
                    findings,
                    "alloc-in-kernel",
                    lineno,
                    off + 1,
                    format!(
                        "allocation-shaped call `{}` in a kernel file — \
                         annotate `// alloc: setup|scratch — <why>` or hoist \
                         it out of the hot loop",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

fn rule_std_hashmap(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    if !in_hashmap_scope(ctx.path) {
        return;
    }
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        if ctx.in_test[lineno] {
            continue;
        }
        // The std maps, and the SipHash hasher and builder they default
        // to, each with its Fx replacement.
        for (needle, fx) in [
            ("HashMap", "FxHashMap"),
            ("HashSet", "FxHashSet"),
            ("DefaultHasher", "FxHasher"),
            ("RandomState", "FxBuildHasher"),
        ] {
            for off in token_hits(line, needle) {
                ctx.push(
                    findings,
                    "std-hashmap",
                    lineno,
                    off + 1,
                    format!(
                        "std `{needle}` (SipHash) in a kernel/plan-cache \
                         module — use `pathenum_graph::hashing::{fx}`"
                    ),
                );
            }
        }
    }
}

fn rule_unsafe_inventory(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    let allowed_file = UNSAFE_ALLOWLIST.contains(&ctx.path);
    // "unsafe" in strings/comments is blanked by the lexer, so this file
    // does not flag itself.
    let needle = "unsafe";
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        for off in token_hits(line, needle) {
            if !ctx.cov.safety[lineno] {
                ctx.push(
                    findings,
                    "unsafe-inventory",
                    lineno,
                    off + 1,
                    format!("`{needle}` without a `// SAFETY:` comment"),
                );
            }
            if !allowed_file {
                ctx.push(
                    findings,
                    "unsafe-inventory",
                    lineno,
                    off + 1,
                    format!(
                        "new `{needle}` outside the audited allowlist \
                         ({}) — keep raw-pointer code in those modules",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                );
            }
        }
    }
}

fn rule_lock_hygiene(ctx: &RuleCtx, findings: &mut Vec<Finding>) {
    const CALLBACKY: [&str; 3] = ["catch_unwind", "on_path(", "callback("];
    for (idx, line) in ctx.text.code.iter().enumerate() {
        let lineno = idx + 1;
        if ctx.in_test[lineno] {
            continue;
        }
        let locks: Vec<usize> = token_hits(line, ".lock(");
        if locks.is_empty() {
            continue;
        }
        for needle in CALLBACKY {
            if !token_hits(line, needle).is_empty() {
                ctx.push(
                    findings,
                    "lock-hygiene",
                    lineno,
                    locks[0] + 1,
                    format!(
                        "`.lock()` result held across `{}` in the same \
                         statement — drop the guard before running user \
                         code",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

/// Analyze one file's source under its repo-relative path.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let text = lex(src);
    let mut findings = Vec::new();
    let cov = scan_annotations(path, &text, &mut findings);
    let in_test = test_regions(&text.code);
    let ctx = RuleCtx {
        path,
        text: &text,
        cov: &cov,
        in_test: &in_test,
    };
    rule_atomic_ordering(&ctx, &mut findings);
    rule_no_panic(&ctx, &mut findings);
    rule_alloc_in_kernel(&ctx, &mut findings);
    rule_std_hashmap(&ctx, &mut findings);
    rule_unsafe_inventory(&ctx, &mut findings);
    rule_lock_hygiene(&ctx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Baseline: `(rule, path) -> grandfathered finding count`.
pub type Baseline = BTreeMap<(String, String), usize>;

/// Parse the committed baseline file (`#` comments and blanks ignored).
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut baseline = Baseline::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (rule, path, count) = match (parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(p), Some(c)) => (r, p, c),
            _ => {
                return Err(format!(
                    "baseline line {}: expected `<rule> <path> <count>`",
                    idx + 1
                ))
            }
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
        baseline.insert((rule.to_string(), path.to_string()), count);
    }
    Ok(baseline)
}

/// Serialize a baseline in the committed format.
pub fn format_baseline(baseline: &Baseline) -> String {
    let mut out = String::from(
        "# Static-analysis baseline: `<rule> <path> <count>` per line.\n\
         # The ratchet is shrink-only — counts may go down, never up.\n\
         # Regenerate with `cargo run -p analysis --release -- --baseline`.\n",
    );
    for ((rule, path), count) in baseline {
        out.push_str(&format!("{rule} {path} {count}\n"));
    }
    out
}

/// Result of checking findings against the committed baseline.
pub struct BaselineOutcome {
    /// Findings in (rule, file) groups that exceed their baselined count.
    pub violations: Vec<Finding>,
    /// Baseline entries whose current count shrank (or vanished): the
    /// ratchet requires re-running `--baseline` to lock in the progress.
    pub stale: Vec<String>,
}

/// Apply the shrink-only ratchet: any (rule, file) group over its baseline
/// count is a violation; any group under it is stale and must be ratcheted.
pub fn apply_baseline(findings: &[Finding], baseline: &Baseline) -> BaselineOutcome {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_insert(0) += 1;
    }
    let mut violations = Vec::new();
    let mut stale = Vec::new();
    for (key, &count) in &counts {
        let allowed = baseline.get(key).copied().unwrap_or(0);
        if count > allowed {
            violations.extend(
                findings
                    .iter()
                    .filter(|f| f.rule == key.0 && f.path == key.1)
                    .cloned(),
            );
        }
    }
    for ((rule, path), &allowed) in baseline {
        let current = counts
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if current < allowed {
            stale.push(format!(
                "baseline is stale: `{rule}` in {path} is baselined at \
                 {allowed} but only {current} remain — re-run with \
                 `--baseline` to ratchet down"
            ));
        }
    }
    BaselineOutcome { violations, stale }
}

/// Current finding counts in baseline form.
pub fn count_findings(findings: &[Finding]) -> Baseline {
    let mut counts = Baseline::new();
    for f in findings {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_insert(0) += 1;
    }
    counts
}
