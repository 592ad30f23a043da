//! Fixture tests: each rule fires on its fixture, clean code passes, each
//! waiver form works, and stale waivers are reported.
//!
//! The fixtures under `tests/fixtures/` are lexed, never compiled; each one
//! is linted as if it lived at a path inside the rule's scope. Deleting any
//! rule's implementation makes at least one of these tests fail. (The
//! D1/D2/P1 fixtures are the exception: those rules are clippy
//! configuration, and `clippy_config.rs` compiles them under clippy.)

use peercache_lint::waivers::{current_pr_from_changes, stale_waivers};
use peercache_lint::{apply_waivers, lint_source, parse_waivers, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn n1_fires_on_float_and_cost_equality() {
    let v = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("n1_float_eq.rs"),
    );
    assert_eq!(rules_fired(&v), ["N1"]);
    assert_eq!(
        v.len(),
        3,
        "literal, cost-ident, and fairness sites: {v:#?}"
    );
}

#[test]
fn n1_exempts_the_helper_module() {
    let v = lint_source(
        "core",
        "crates/core/src/costs.rs",
        &fixture("n1_float_eq.rs"),
    );
    assert!(v.is_empty(), "core::costs defines the helpers: {v:#?}");
}

#[test]
fn s1_fires_on_dense_apsp_outside_the_allowed_files() {
    let v = lint_source(
        "core",
        "crates/core/src/planner.rs",
        &fixture("s1_dense_apsp.rs"),
    );
    assert_eq!(rules_fired(&v), ["S1"]);
    assert_eq!(
        v.len(),
        2,
        "compute and compute_with call sites; doc links and cfg(test) \
         regions stay quiet: {v:#?}"
    );
}

#[test]
fn s1_exempts_the_sanctioned_files() {
    for (crate_name, path) in [
        ("graph", "crates/graph/src/paths.rs"),
        ("graph", "crates/graph/src/oracle.rs"),
        ("core", "crates/core/src/costs.rs"),
    ] {
        let v = lint_source(crate_name, path, &fixture("s1_dense_apsp.rs"));
        assert!(
            !v.iter().any(|x| x.rule == "S1"),
            "S1 must not fire in {path}: {v:#?}"
        );
    }
}

#[test]
fn s1_fences_the_scoped_store() {
    // The scoped store builds its blocks with the rows-only kernel; a
    // dense all-pairs compute there is a regression, not an exemption.
    let v = lint_source(
        "core",
        "crates/core/src/scoped.rs",
        &fixture("s1_dense_apsp.rs"),
    );
    assert_eq!(v.iter().filter(|x| x.rule == "S1").count(), 2);
}

#[test]
fn s1_violations_are_waivable_by_snippet() {
    let violations = lint_source(
        "dist",
        "crates/dist/src/view.rs",
        &fixture("s1_dense_apsp.rs"),
    );
    let s1_count = violations.iter().filter(|v| v.rule == "S1").count();
    assert_eq!(s1_count, 2);
    let waivers = parse_waivers(
        r#"
[[waiver]]
rule = "S1"
file = "crates/dist/src/view.rs"
contains = "AllPairsPaths::compute(g, costs"
justification = "fixture: bounded-subgraph compute, deliberately waived"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived, 1);
    assert!(report.unused.is_empty());
}

#[test]
fn r1_fires_on_shard_mutation_outside_the_shard_modules() {
    let v = lint_source(
        "core",
        "crates/core/src/world.rs",
        &fixture("r1_shard_mutation.rs"),
    );
    assert_eq!(rules_fired(&v), ["R1"]);
    assert_eq!(
        v.len(),
        2,
        "both arena_mut call sites; bare identifiers and cfg(test) \
         regions stay quiet: {v:#?}"
    );
}

#[test]
fn r1_exempts_the_shard_modules() {
    for path in ["crates/core/src/shard.rs", "crates/core/src/sharded.rs"] {
        let v = lint_source("core", path, &fixture("r1_shard_mutation.rs"));
        assert!(
            !v.iter().any(|x| x.rule == "R1"),
            "R1 must not fire in {path}: {v:#?}"
        );
    }
}

#[test]
fn clean_code_passes_everywhere() {
    for (crate_name, path) in [
        ("core", "crates/core/src/world.rs"),
        ("dist", "crates/dist/src/sim.rs"),
        ("graph", "crates/graph/src/paths.rs"),
        ("lp", "crates/lp/src/simplex.rs"),
    ] {
        let v = lint_source(crate_name, path, &fixture("clean.rs"));
        assert!(v.is_empty(), "clean fixture flagged in {path}: {v:#?}");
    }
}

#[test]
fn test_only_code_is_exempt() {
    let v = lint_source(
        "dist",
        "crates/dist/src/fixture.rs",
        &fixture("test_exempt.rs"),
    );
    assert!(v.is_empty(), "cfg(test) region not exempted: {v:#?}");
}

#[test]
fn waivers_silence_matching_violations_only() {
    let violations = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("n1_float_eq.rs"),
    );
    let total = violations.len();
    assert_eq!(total, 3);
    let waivers = parse_waivers(
        r#"
# One matching waiver, keyed by snippet.
[[waiver]]
rule = "N1"
file = "crates/core/src/fixture.rs"
contains = "cand != best_cost"
justification = "fixture: deliberately waived"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived, 1);
    assert_eq!(report.unwaived.len(), total - 1);
    assert!(report.unused.is_empty());
}

#[test]
fn stale_waivers_are_reported() {
    let violations = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("n1_float_eq.rs"),
    );
    let waivers = parse_waivers(
        r#"
[[waiver]]
rule = "N1"
file = "crates/core/src/fixture.rs"
contains = "this snippet no longer exists"
justification = "stale entry"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived, 0);
    assert_eq!(report.unused, vec![0]);
}

/// A complete, valid waiver entry with the given rule, for budget tests.
fn entry(rule: &str, n: usize) -> String {
    format!(
        "[[waiver]]\nrule = \"{rule}\"\nfile = \"crates/x/src/f{n}.rs\"\n\
         contains = \"site{n}\"\n\
         justification = \"budget fixture entry with a long enough justification text\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 14\"\n"
    )
}

#[test]
fn waiver_parser_rejects_malformed_entries() {
    // Missing justification (stamps present so the gap is unambiguous).
    let err = parse_waivers(
        "[[waiver]]\nrule = \"S1\"\nfile = \"x.rs\"\ncontains = \"compute(\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 14\"\n",
    )
    .unwrap_err();
    assert!(err.contains("justification"), "{err}");
    // Unknown key.
    let err = parse_waivers("[[waiver]]\nrule = \"S1\"\nline = \"12\"\n").unwrap_err();
    assert!(err.contains("unknown key"), "{err}");
    // Value outside any entry.
    let err = parse_waivers("rule = \"S1\"\n").unwrap_err();
    assert!(err.contains("before any"), "{err}");
    // Unquoted value.
    let err = parse_waivers("[[waiver]]\nrule = S1\n").unwrap_err();
    assert!(err.contains("double-quoted"), "{err}");
}

#[test]
fn waiver_parser_requires_pr_stamps() {
    // Missing added_in.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"S1\"\nfile = \"x.rs\"\ncontains = \"compute(\"\n\
         justification = \"a justification long enough to clear the length gate\"\n",
    )
    .unwrap_err();
    assert!(err.contains("added_in"), "{err}");
    // Malformed stamp.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"S1\"\nfile = \"x.rs\"\ncontains = \"compute(\"\n\
         justification = \"a justification long enough to clear the length gate\"\n\
         added_in = \"nine\"\nre_audit_after = \"PR 14\"\n",
    )
    .unwrap_err();
    assert!(err.contains("PR 9"), "{err}");
    // re_audit_after before added_in.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"S1\"\nfile = \"x.rs\"\ncontains = \"compute(\"\n\
         justification = \"a justification long enough to clear the length gate\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 8\"\n",
    )
    .unwrap_err();
    assert!(err.contains("precedes"), "{err}");
}

#[test]
fn waiver_budgets_are_hard_limits() {
    // 11 entries breach the total budget of 10.
    let text: String = (0..11)
        .map(|n| entry(["N1", "O1", "S1", "R1"][n % 4], n))
        .collect();
    let err = parse_waivers(&text).unwrap_err();
    assert!(err.contains("budget"), "{err}");
    // 5 entries for one rule breach the per-rule budget of 4.
    let text: String = (0..5).map(|n| entry("N1", n)).collect();
    let err = parse_waivers(&text).unwrap_err();
    assert!(err.contains("per-rule"), "{err}");
    // 10 total with at most 4 per rule parses.
    let text: String = (0..10)
        .map(|n| entry(["N1", "O1", "S1", "R1"][n % 4], n))
        .collect();
    assert_eq!(parse_waivers(&text).unwrap().len(), 10);
}

#[test]
fn stale_waiver_metadata_is_reported() {
    let waivers = parse_waivers(&entry("N1", 0)).unwrap();
    // At or before the re-audit PR: fresh.
    assert!(stale_waivers(&waivers, 9).is_empty());
    assert!(stale_waivers(&waivers, 14).is_empty());
    // Past it: stale, with an actionable message.
    let stale = stale_waivers(&waivers, 15);
    assert_eq!(stale.len(), 1);
    assert!(stale[0].1.contains("re-audit"), "{}", stale[0].1);
}

#[test]
fn current_pr_is_derived_from_changes_md() {
    assert_eq!(current_pr_from_changes(""), 1);
    assert_eq!(
        current_pr_from_changes("- PR 3: things\n- PR 8: more things\n- PR 5: other\n"),
        9
    );
}

#[test]
fn the_committed_waiver_file_parses_within_budget() {
    let path = format!("{}/../../lint-waivers.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let waivers = parse_waivers(&text).unwrap();
    assert!(waivers.len() <= 10, "waiver budget exceeded");
    for w in &waivers {
        assert!(
            w.justification.len() >= 40,
            "waiver for {} needs a real justification",
            w.file
        );
    }
}
