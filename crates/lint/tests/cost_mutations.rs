//! Mutation tests for the hot-path cost rules (P1–P6), driven by the one
//! table in `fixtures`.

mod fixtures;

use cm_lint::cost;
use fixtures::*;

#[test]
fn p1_heap_alloc_mutation_fails_the_pass() {
    assert_mutation_caught("P1_HEAP_ALLOC");
}

#[test]
fn p2_clone_mutation_fails_the_pass() {
    assert_mutation_caught("P2_CLONE");
}

#[test]
fn p3_format_mutation_fails_the_pass() {
    assert_mutation_caught("P3_FORMAT");
}

#[test]
fn p4_hash_build_mutation_fails_the_pass() {
    assert_mutation_caught("P4_HASH_BUILD");
}

#[test]
fn p5_hash_redraw_mutation_fails_the_pass() {
    assert_mutation_caught("P5_HASH_REDRAW");
}

#[test]
fn p6_dyn_iter_mutation_fails_the_pass() {
    assert_mutation_caught("P6_DYN_ITER");
}

#[test]
fn every_p_rule_fires_on_at_least_one_fixture() {
    assert_rules_fire(cost::PASS.rules.iter().copied());
}

#[test]
fn unreachable_seeds_are_dormant_not_findings() {
    assert_dormant(
        "P3_FORMAT",
        "fn helper() -> u64 { 0 }\nfn cold() -> u64 {\n    let mut acc = 0u64;\n    \
         for i in 0..4u64 {\n        let s = format!(\"cold-{i}\");\n        \
         acc += s.len() as u64;\n    }\n    acc\n}",
    );
}

/// A draw keyed on the loop variable needs one draw per iteration; only
/// loop-invariant keys are redundant.
#[test]
fn p5_spares_loop_variant_draws() {
    let helper = "fn helper() -> u64 {\n    let seed = 7u64;\n    let mut acc = 0u64;\n    \
                  for i in 0..4u64 {\n        acc ^= stablehash::mix(seed, &[i]);\n    }\n    \
                  acc\n}";
    let out = run(DEMO, helper, &passes_of("P5_HASH_REDRAW"));
    assert!(
        out.findings.is_empty(),
        "variant draw must not fire: {:?}",
        out.findings
    );
}
