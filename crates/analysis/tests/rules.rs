//! Analyzer self-tests: lexer edge cases, one fixture per rule with exact
//! diagnostic counts, suppression behavior, and the baseline ratchet.
//!
//! Fixtures live in `tests/fixtures/` as plain `.rs` text (never compiled;
//! the repo walker skips `tests/` and `fixtures/` directories) and are
//! analyzed under fake repo-relative paths chosen to hit each rule's scope.

use analysis::{analyze_source, apply_baseline, format_baseline, lex, parse_baseline, Finding};

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

fn lines(findings: &[&Finding]) -> Vec<usize> {
    findings.iter().map(|f| f.line).collect()
}

// ---------------------------------------------------------------- lexer

#[test]
fn lexer_blanks_raw_string_contents() {
    let text = lex("let s = r#\"has \"quotes\" and // not a comment\"#;\n");
    assert!(
        text.comments.is_empty(),
        "raw string must not open a comment"
    );
    assert!(!text.code[0].contains("quotes"));
    assert!(!text.code[0].contains("//"));
    // Geometry preserved: delimiters stay, contents become spaces.
    assert!(text.code[0].starts_with("let s = r#\""));
    assert!(text.code[0].ends_with("\"#;"));
}

#[test]
fn lexer_matches_raw_string_hash_count() {
    // The `"#` inside the literal does not close an `r##"…"##` string.
    let text = lex("let s = r##\"inner \"# still inside\"##; let x = 1;\n");
    assert!(text.comments.is_empty());
    assert!(!text.code[0].contains("inside"));
    assert!(text.code[0].contains("let x = 1;"));
}

#[test]
fn lexer_tracks_nested_block_comments() {
    let text = lex("/* outer /* inner */ still comment */ let x = 1;\n");
    assert_eq!(text.comments.len(), 1);
    assert!(text.comments[0].text.contains("inner"));
    assert!(!text.code[0].contains("inner"));
    assert!(text.code[0].contains("let x = 1;"));
}

#[test]
fn lexer_multiline_block_comment_spans_lines() {
    let text = lex("/* one\n   two\n   three */ let y = 2;\n");
    assert_eq!(text.comments.len(), 1);
    assert_eq!(text.comments[0].start_line, 1);
    assert_eq!(text.comments[0].end_line, 3);
    assert!(text.code[2].contains("let y = 2;"));
}

#[test]
fn lexer_leaves_raw_identifiers_in_code() {
    // `r#type` must not be parsed as the start of a raw string.
    let text = lex("let r#type = 1; let other = r#type + 1;\n");
    assert!(text.comments.is_empty());
    assert_eq!(text.code[0], "let r#type = 1; let other = r#type + 1;");
}

#[test]
fn lexer_distinguishes_char_literals_from_lifetimes() {
    let text = lex("fn f<'a>(s: &'a str) -> char { 'x' }\n");
    assert!(text.code[0].contains("<'a>"), "lifetime name must survive");
    assert!(text.code[0].contains("&'a str"));
    assert!(
        !text.code[0].contains("'x'"),
        "char contents must be blanked"
    );
}

#[test]
fn lexer_handles_escaped_quotes_and_byte_strings() {
    let text = lex("let a = \"he said \\\"hi\\\"\"; let b = b\"// bytes\";\n");
    assert!(
        text.comments.is_empty(),
        "byte string must not open a comment"
    );
    assert!(!text.code[0].contains("hi"));
    assert!(!text.code[0].contains("bytes"));
    assert!(text.code[0].contains("let b = b\""));
}

#[test]
fn lexer_preserves_line_count_across_multiline_strings() {
    let src = "let s = \"one\ntwo\nthree\";\nlet t = 4;\n";
    let text = lex(src);
    assert_eq!(text.code.len(), src.split('\n').count());
    assert!(text.code[3].contains("let t = 4;"));
}

// ---------------------------------------------------------------- rules

#[test]
fn no_panic_fixture_exact_counts() {
    let src = include_str!("fixtures/no_panic.rs");
    let findings = analyze_source("crates/pathenum/src/catalog.rs", src);
    let hits = by_rule(&findings, "no-panic");
    assert_eq!(lines(&hits), vec![5, 6, 8, 11]);
    assert_eq!(findings.len(), 4, "no other rule may fire: {findings:?}");
    // Exact geometry for one diagnostic, including the rendered form.
    assert_eq!(hits[0].col, 31);
    assert_eq!(
        hits[0].render().lines().last().unwrap(),
        "  --> crates/pathenum/src/catalog.rs:5:31"
    );
}

#[test]
fn the_request_pipeline_and_the_sharded_wrapper_are_serving_files() {
    // Every evaluator runs through pipeline.rs and every shared cache
    // through sharded.rs: both carry the serving-path rules.
    for path in [
        "crates/pathenum/src/pipeline.rs",
        "crates/pathenum/src/sharded.rs",
    ] {
        let findings = analyze_source(path, include_str!("fixtures/no_panic.rs"));
        assert_eq!(lines(&by_rule(&findings, "no-panic")), vec![5, 6, 8, 11]);
        let findings = analyze_source(path, include_str!("fixtures/ordering.rs"));
        assert_eq!(lines(&by_rule(&findings, "atomic-ordering")), vec![10, 11]);
    }
}

#[test]
fn no_panic_is_scoped_to_serving_files() {
    let src = include_str!("fixtures/no_panic.rs");
    let findings = analyze_source("crates/graph/src/bfs.rs", src);
    assert!(by_rule(&findings, "no-panic").is_empty());
}

#[test]
fn atomic_ordering_fixture_exact_counts() {
    let src = include_str!("fixtures/ordering.rs");
    let findings = analyze_source("crates/pathenum/src/results.rs", src);
    let hits = by_rule(&findings, "atomic-ordering");
    assert_eq!(
        lines(&hits),
        vec![10, 11],
        "annotated cluster, suppressed \
         use, and raw-string mention must all stay quiet: {findings:?}"
    );
    assert_eq!(findings.len(), 2);
    assert!(hits[0].message.contains("Ordering::Relaxed"));
    assert!(hits[1].message.contains("Ordering::SeqCst"));
}

#[test]
fn alloc_in_kernel_fixture_exact_counts() {
    let src = include_str!("fixtures/alloc.rs");
    let findings = analyze_source("crates/pathenum/src/enumerate/hot.rs", src);
    let hits = by_rule(&findings, "alloc-in-kernel");
    // 11/12/14 in the hot loop; 30 is past the blank line that resets the
    // `// alloc: scratch` annotation's coverage. Annotated setup lines and
    // the `#[cfg(test)]` module stay quiet.
    assert_eq!(lines(&hits), vec![11, 12, 14, 30]);
    assert_eq!(findings.len(), 4);
}

#[test]
fn std_hashmap_fixture_exact_counts() {
    let src = include_str!("fixtures/hashmap.rs");
    let findings = analyze_source("crates/pathenum/src/plan.rs", src);
    let hits = by_rule(&findings, "std-hashmap");
    // `FxHashMap`, `FxHasher` and `hash_map::Entry` must not trip the
    // token matcher; std's SipHash `DefaultHasher` and `RandomState` do.
    assert_eq!(lines(&hits), vec![5, 8, 22, 23]);
    assert_eq!(findings.len(), 4);
}

#[test]
fn std_hashmap_scope_covers_the_shared_cache_map() {
    // Both cache layers keep their entries in the one versioned LRU in
    // `sharded.rs`; `plan.rs` stays in scope beside it.
    let src = include_str!("fixtures/hashmap.rs");
    for path in [
        "crates/pathenum/src/sharded.rs",
        "crates/pathenum/src/plan.rs",
    ] {
        let findings = analyze_source(path, src);
        assert_eq!(
            lines(&by_rule(&findings, "std-hashmap")),
            vec![5, 8, 22, 23],
            "{path}"
        );
    }
    let outside = analyze_source("crates/pathenum/src/results.rs", src);
    assert!(by_rule(&outside, "std-hashmap").is_empty());
}

#[test]
fn unsafe_inventory_fixture_outside_allowlist() {
    let src = include_str!("fixtures/unsafe.rs");
    let findings = analyze_source("crates/pathenum/src/engine.rs", src);
    let hits = by_rule(&findings, "unsafe-inventory");
    // Line 7 is SAFETY-covered but still outside the allowlist (1 finding);
    // line 11 is bare (2 findings); line 17 is suppressed; strings and
    // nested block comments never count.
    assert_eq!(lines(&hits), vec![7, 11, 11]);
    assert_eq!(findings.len(), 3);
}

#[test]
fn unsafe_inventory_fixture_inside_allowlist() {
    let src = include_str!("fixtures/unsafe.rs");
    let findings = analyze_source("crates/bench/src/alloc.rs", src);
    let hits = by_rule(&findings, "unsafe-inventory");
    // Allowlisted file: only the missing-SAFETY finding on line 11 remains.
    assert_eq!(lines(&hits), vec![11]);
    assert!(hits[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_inventory_storage_shim_is_allowlisted_but_not_its_neighbors() {
    let src = include_str!("fixtures/unsafe.rs");
    // The zero-copy cast shim is the storage layer's one sanctioned
    // unsafe file: SAFETY-covered blocks pass, bare ones still fail.
    let findings = analyze_source("crates/graph/src/zerocopy.rs", src);
    let hits = by_rule(&findings, "unsafe-inventory");
    assert_eq!(lines(&hits), vec![11]);
    assert!(hits[0].message.contains("SAFETY"));
    // The rest of the graph crate stays unsafe-free: the same code in
    // the format reader, the frozen-graph accessors or the hot loops is
    // flagged even when SAFETY-commented.
    for neighbor in [
        "crates/graph/src/io_binary.rs",
        "crates/graph/src/frozen.rs",
        "crates/graph/src/handle.rs",
        "crates/graph/src/prefetch.rs",
    ] {
        let findings = analyze_source(neighbor, src);
        let hits = by_rule(&findings, "unsafe-inventory");
        assert_eq!(lines(&hits), vec![7, 11, 11], "{neighbor}");
    }
}

#[test]
fn lock_hygiene_fixture_exact_counts() {
    let src = include_str!("fixtures/lock.rs");
    let findings = analyze_source("crates/pathenum/src/worker.rs", src);
    let hits = by_rule(&findings, "lock-hygiene");
    assert_eq!(lines(&hits), vec![7]);
    assert_eq!(findings.len(), 1);
    assert!(hits[0].message.contains("catch_unwind"));
}

// ---------------------------------------------------------- suppressions

#[test]
fn suppression_with_unknown_rule_is_a_lint_syntax_finding() {
    let src = "// lint: allow(no-such-rule) — typo\nfn f() {}\n";
    let findings = analyze_source("crates/pathenum/src/catalog.rs", src);
    let hits = by_rule(&findings, "lint-syntax");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("unknown rule"));
}

#[test]
fn suppression_without_reason_is_a_lint_syntax_finding() {
    let src = "// lint: allow(no-panic)\nfn f() { x.unwrap(); }\n";
    let findings = analyze_source("crates/pathenum/src/catalog.rs", src);
    let hits = by_rule(&findings, "lint-syntax");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("missing a reason"));
    // A reasonless suppression grants nothing: the unwrap still fires.
    assert_eq!(by_rule(&findings, "no-panic").len(), 1);
}

#[test]
fn malformed_lint_comment_is_a_lint_syntax_finding() {
    let src = "// lint: deny(no-panic) — wrong verb\nfn f() {}\n";
    let findings = analyze_source("crates/pathenum/src/catalog.rs", src);
    let hits = by_rule(&findings, "lint-syntax");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("malformed"));
}

#[test]
fn suppression_only_covers_its_contiguous_block() {
    let src = "\
// lint: allow(no-panic) — covers only the next contiguous lines.
fn near() { x.unwrap(); }

fn far() { y.unwrap(); }
";
    let findings = analyze_source("crates/pathenum/src/catalog.rs", src);
    let hits = by_rule(&findings, "no-panic");
    assert_eq!(lines(&hits), vec![4], "the blank line must end coverage");
}

// -------------------------------------------------------------- baseline

fn fake_finding(rule: &'static str, path: &str, line: usize) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        col: 1,
        message: "test".to_string(),
    }
}

#[test]
fn baseline_roundtrips_through_format_and_parse() {
    let mut baseline = analysis::Baseline::new();
    baseline.insert(("no-panic".into(), "crates/a.rs".into()), 2);
    baseline.insert(("std-hashmap".into(), "crates/b.rs".into()), 1);
    let parsed = parse_baseline(&format_baseline(&baseline)).unwrap();
    assert_eq!(parsed, baseline);
}

#[test]
fn baseline_parser_rejects_bad_lines() {
    assert!(parse_baseline("no-panic crates/a.rs\n").is_err());
    assert!(parse_baseline("no-panic crates/a.rs many\n").is_err());
    assert!(parse_baseline("# comment only\n\n").unwrap().is_empty());
}

#[test]
fn baseline_flags_groups_over_their_count() {
    let findings = vec![
        fake_finding("no-panic", "crates/a.rs", 1),
        fake_finding("no-panic", "crates/a.rs", 2),
    ];
    let mut baseline = analysis::Baseline::new();
    baseline.insert(("no-panic".into(), "crates/a.rs".into()), 1);
    let outcome = apply_baseline(&findings, &baseline);
    assert_eq!(outcome.violations.len(), 2, "the whole group is reported");
    assert!(outcome.stale.is_empty());
}

#[test]
fn baseline_accepts_groups_at_their_count() {
    let findings = vec![
        fake_finding("no-panic", "crates/a.rs", 1),
        fake_finding("no-panic", "crates/a.rs", 2),
    ];
    let mut baseline = analysis::Baseline::new();
    baseline.insert(("no-panic".into(), "crates/a.rs".into()), 2);
    let outcome = apply_baseline(&findings, &baseline);
    assert!(outcome.violations.is_empty());
    assert!(outcome.stale.is_empty());
}

#[test]
fn baseline_ratchet_reports_stale_entries() {
    // Fixed findings make the committed count stale: the shrink-only
    // ratchet demands a `--baseline` re-run to lock in the progress.
    let findings = vec![fake_finding("no-panic", "crates/a.rs", 1)];
    let mut baseline = analysis::Baseline::new();
    baseline.insert(("no-panic".into(), "crates/a.rs".into()), 3);
    baseline.insert(("std-hashmap".into(), "crates/gone.rs".into()), 1);
    let outcome = apply_baseline(&findings, &baseline);
    assert!(outcome.violations.is_empty());
    assert_eq!(outcome.stale.len(), 2);
    assert!(outcome.stale[0].contains("re-run"));
}

#[test]
fn unbaselined_findings_are_violations() {
    let findings = vec![fake_finding("std-hashmap", "crates/new.rs", 9)];
    let outcome = apply_baseline(&findings, &analysis::Baseline::new());
    assert_eq!(outcome.violations.len(), 1);
}
