//! Mutation tests for the serving-safety rules (S1–S5), driven by the one
//! table in `fixtures`.

mod fixtures;

use cm_lint::safety;
use fixtures::*;

#[test]
fn s1_panic_path_mutation_fails_the_pass() {
    assert_mutation_caught("S1_PANIC_PATH");
}

#[test]
fn s2_unchecked_index_mutation_fails_the_pass() {
    assert_mutation_caught("S2_UNCHECKED_INDEX");
}

#[test]
fn s3_unchecked_arith_mutation_fails_the_pass() {
    assert_mutation_caught("S3_UNCHECKED_ARITH");
}

#[test]
fn s4_untrusted_alloc_mutation_fails_the_pass() {
    assert_mutation_caught("S4_UNTRUSTED_ALLOC");
}

#[test]
fn s5_unbounded_recursion_mutation_fails_the_pass() {
    assert_mutation_caught("S5_UNBOUNDED_RECURSION");
}

#[test]
fn every_s_rule_fires_on_at_least_one_fixture() {
    let rules = safety::PANIC.rules.iter().chain(safety::UNTRUSTED.rules);
    assert_rules_fire(rules.copied());
}

/// The S3 fixture's index is bounds-checked, so it must not also trip S2:
/// the checked-identifier heuristic is what separates the two rules.
#[test]
fn s3_fixture_does_not_double_report_as_s2() {
    let (path, helper) = fixture("S3_UNCHECKED_ARITH");
    let out = run(path, helper, &passes_of("S3_UNCHECKED_ARITH"));
    assert!(
        out.findings.iter().all(|f| f.rule != "S2_UNCHECKED_INDEX"),
        "bounds-checked index must not trip S2: {:?}",
        out.findings
    );
}

/// `.get(…)`-based access is the sanctioned panic-free form.
#[test]
fn get_based_access_stays_clean() {
    let helper = "fn helper() -> u64 {\n    let v = vec![5u64, 7];\n    let i = pick();\n    \
                  v.get(i).copied().unwrap_or(0)\n}\nfn pick() -> usize { 1 }";
    let out = run(DEMO, helper, &passes_of("S1_PANIC_PATH"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn unreachable_panic_seeds_are_dormant_not_findings() {
    assert_dormant(
        "S1_PANIC_PATH",
        "fn helper(_c: &mut Cur) -> u64 { 3 }\nfn cold() -> u64 { maybe().unwrap() }\n\
         fn maybe() -> Option<u64> { Some(3) }",
    );
}
