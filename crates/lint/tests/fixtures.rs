//! Fixture-driven regression tests for the lint rules.
//!
//! Each fixture under `fixtures/` starts with a `// lint-fixture-path:`
//! directive naming the virtual workspace path to lint it under, so
//! path-scoped rules (R1's bench allowlist, R4's dense scope, R5's dist
//! scope) see the fixture where a real violation would live. `*_fires.rs`
//! must produce at least one finding for its rule; `*_clean.rs` must
//! produce none. R7 needs a whole tree, so its fixture is one:
//! `fixtures/r7/` is a small virtual workspace linted from its root.

use parfact_lint::{lint_text, Report};
use std::path::Path;

/// Lint a fixture file under the virtual path named by its first-line
/// `// lint-fixture-path:` directive.
fn lint_fixture(name: &str) -> parfact_lint::FileReport {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let text = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let first = text.lines().next().unwrap_or("");
    let virt = first
        .strip_prefix("// lint-fixture-path:")
        .unwrap_or_else(|| panic!("{name}: missing lint-fixture-path directive"))
        .trim();
    lint_text(virt, &text)
}

fn assert_fires(name: &str, rule: &str) {
    let rep = lint_fixture(name);
    assert!(
        rep.findings.iter().any(|f| f.rule == rule),
        "{name}: expected a {rule} finding, got {:?}",
        rep.findings
    );
    assert!(
        rep.findings.iter().all(|f| f.rule == rule),
        "{name}: expected only {rule} findings, got {:?}",
        rep.findings
    );
}

fn assert_clean(name: &str) {
    let rep = lint_fixture(name);
    assert!(
        rep.findings.is_empty(),
        "{name}: expected no findings, got {:?}",
        rep.findings
    );
    assert!(
        rep.suppressed.is_empty(),
        "{name}: clean fixtures must not rely on pragmas, got {:?}",
        rep.suppressed
            .iter()
            .map(|s| &s.finding)
            .collect::<Vec<_>>()
    );
}

#[test]
fn r1_host_clock_fixture_pair() {
    assert_fires("r1_fires.rs", "R1");
    assert_clean("r1_clean.rs");
}

#[test]
fn r2_unordered_iter_fixture_pair() {
    assert_fires("r2_fires.rs", "R2");
    assert_clean("r2_clean.rs");
}

#[test]
fn r3_undocumented_unsafe_fixture_pair() {
    assert_fires("r3_fires.rs", "R3");
    assert_clean("r3_clean.rs");
}

#[test]
fn r4_fma_fixture_pair() {
    assert_fires("r4_fires.rs", "R4");
    assert_clean("r4_clean.rs");
}

#[test]
fn r5_raw_tag_fixture_pair() {
    let rep = lint_fixture("r5_fires.rs");
    let r5: Vec<_> = rep.findings.iter().filter(|f| f.rule == "R5").collect();
    assert_eq!(
        r5.len(),
        2,
        "expected both the literal and the cast to fire: {:?}",
        rep.findings
    );
    assert_clean("r5_clean.rs");
}

#[test]
fn r6_entropy_rng_fixture_pair() {
    assert_fires("r6_fires.rs", "R6");
    assert_clean("r6_clean.rs");
}

/// Scoping sanity: the same source text that fires in scope is quiet when
/// placed where the rule does not apply (R4 outside dense, R1 in bench).
#[test]
fn path_scoping_gates_rules() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let r4 = std::fs::read_to_string(dir.join("r4_fires.rs")).unwrap();
    let rep = lint_text("crates/order/src/demo.rs", &r4);
    assert!(
        rep.findings.is_empty(),
        "R4 must not fire outside dense kernels: {:?}",
        rep.findings
    );

    let r1 = std::fs::read_to_string(dir.join("r1_fires.rs")).unwrap();
    let rep = lint_text("crates/bench/src/bin/demo.rs", &r1);
    assert!(
        rep.findings.is_empty(),
        "R1 must not fire in bench bins: {:?}",
        rep.findings
    );
}

/// The R7 fixture tree's findings: `(rule, file, message)` unsuppressed,
/// and `(file, message)` suppressed.
type R7Tree = (Vec<(&'static str, String, String)>, Vec<(String, String)>);

fn r7_tree() -> R7Tree {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("r7");
    let report = parfact_lint::lint_tree(&root).expect("scan the R7 fixture tree");
    let mut found = Vec::new();
    let mut suppressed = Vec::new();
    for file in &report.files {
        for f in &file.findings {
            found.push((f.rule, file.path.clone(), f.message.clone()));
        }
        for s in &file.suppressed {
            suppressed.push((file.path.clone(), s.finding.message.clone()));
        }
    }
    (found, suppressed)
}

/// Whether an R7 finding names `` `name` ``.
fn r7_names(found: &[(&str, String, String)], name: &str) -> bool {
    let tick = format!("`{name}`");
    found
        .iter()
        .any(|(rule, _, msg)| *rule == "R7" && msg.contains(&tick))
}

#[test]
fn r7_fires_on_a_fn_only_a_tests_file_calls() {
    let (found, _) = r7_tree();
    assert!(r7_names(&found, "only_tested"), "{found:?}");
    // What a `tests/` file defines is test code, never a finding.
    assert!(
        found.iter().all(|(_, path, _)| !path.contains("/tests/")),
        "{found:?}"
    );
}

#[test]
fn r7_counts_a_caller_in_another_crates_src() {
    let (found, _) = r7_tree();
    assert!(!r7_names(&found, "used_by_b"), "{found:?}");
    assert!(!r7_names(&found, "after_helper"), "{found:?}");
}

#[test]
fn r7_skips_only_the_cfg_test_item_in_the_middle_of_a_file() {
    let (found, _) = r7_tree();
    // Called only from the `#[cfg(test)]` helper: fires.
    assert!(r7_names(&found, "only_from_test_helper"), "{found:?}");
    // Called from the non-test code after the helper: clean.
    assert!(!r7_names(&found, "used_after_helper"), "{found:?}");
    assert!(!r7_names(&found, "pinned"), "{found:?}");
}

#[test]
fn r7_pragma_with_a_reason_suppresses() {
    let (found, suppressed) = r7_tree();
    assert!(!r7_names(&found, "oracle"), "{found:?}");
    assert!(
        suppressed.iter().any(|(_, msg)| msg.contains("`oracle`")),
        "{suppressed:?}"
    );
}

#[test]
fn r7_pragma_without_a_reason_is_p0() {
    let (found, _) = r7_tree();
    assert!(
        found
            .iter()
            .any(|(rule, path, _)| *rule == "P0" && path == "crates/a/src/lib.rs"),
        "{found:?}"
    );
    // A malformed pragma suppresses nothing.
    assert!(r7_names(&found, "unexplained"), "{found:?}");
    assert_eq!(found.len(), 4, "{found:?}");
}

/// Golden structure test for the JSON report: the machine-readable output
/// must round-trip through the workspace JSON parser and carry the keys
/// CI consumers rely on.
#[test]
fn json_report_structure() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let text = std::fs::read_to_string(dir.join("r1_fires.rs")).unwrap();
    let file = lint_text("crates/core/src/dist/demo.rs", &text);
    let report = Report {
        root: "/virtual".to_string(),
        files_scanned: 1,
        files: vec![file],
    };
    let json = report.to_json().to_string_pretty();
    let v = parfact_trace::json::parse(&json).expect("report JSON must parse");

    assert_eq!(v.get("tool").and_then(|t| t.as_str()), Some("parfact-lint"));
    assert_eq!(v.get("files_scanned").and_then(|n| n.as_f64()), Some(1.0));
    let rules = v
        .get("rules")
        .and_then(|r| r.as_arr())
        .expect("rules array");
    assert_eq!(rules.len(), 8, "R1..R7 plus P0");
    for r in rules {
        assert!(r.get("id").is_some() && r.get("name").is_some());
    }
    let findings = v
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert!(!findings.is_empty());
    for f in findings {
        for key in ["rule", "name", "file", "line", "message"] {
            assert!(f.get(key).is_some(), "finding missing key {key}");
        }
    }
    let counts = v.get("counts").expect("counts object");
    assert_eq!(
        counts.get("R1").and_then(|n| n.as_f64()),
        Some(findings.len() as f64)
    );
    assert_eq!(
        counts.get("total").and_then(|n| n.as_f64()),
        Some(findings.len() as f64)
    );
}

/// The workspace itself must be lint-clean: the `--deny-all` CI gate is
/// pinned here so a regression fails `cargo test` too, not just the CI
/// lint job.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = parfact_lint::lint_tree(&root).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "walker should see the whole workspace"
    );
    let mut msgs = Vec::new();
    for f in &report.files {
        for finding in &f.findings {
            msgs.push(format!(
                "{}:{}: {} — {}",
                f.path, finding.line, finding.rule, finding.message
            ));
        }
    }
    assert!(
        msgs.is_empty(),
        "workspace has lint findings:\n{}",
        msgs.join("\n")
    );
}
