//! Mutation tests for the determinism (D1–D6) and lintwall (L1–L3)
//! rules, the engine's hygiene rules and the rule registry, driven by the
//! one table in `fixtures`.

mod fixtures;

use cm_lint::report;
use fixtures::*;

#[test]
fn d1_wall_clock_mutation_fails_the_lint() {
    assert_mutation_caught("D1_WALL_CLOCK");
}

#[test]
fn d2_parallelism_mutation_fails_the_lint() {
    assert_mutation_caught("D2_PARALLELISM");
}

#[test]
fn d3_unseeded_rng_mutation_fails_the_lint() {
    assert_mutation_caught("D3_UNSEEDED_RNG");
}

#[test]
fn d4_map_order_mutation_fails_the_lint() {
    assert_mutation_caught("D4_MAP_ORDER");
}

#[test]
fn d5_env_read_mutation_fails_the_lint() {
    assert_mutation_caught("D5_ENV_READ");
}

#[test]
fn d6_addr_hash_mutation_fails_the_lint() {
    assert_mutation_caught("D6_ADDR_HASH");
}

#[test]
fn l1_unwrap_mutation_fails_the_lint() {
    assert_mutation_caught("L1_UNWRAP");
}

#[test]
fn l2_map_iter_mutation_fails_the_lint() {
    assert_mutation_caught("L2_MAP_ITER");
}

#[test]
fn l3_missing_docs_mutation_fails_the_lint() {
    assert_mutation_caught("L3_MISSING_DOCS");
}

#[test]
fn seed_without_root_path_stays_dormant() {
    assert_dormant(
        "D1_WALL_CLOCK",
        "fn helper() -> u64 { 0 }\nfn stray() -> u64 { let t = Instant::now(); 1 }",
    );
}

fn rules(o: &cm_lint::engine::Outcome) -> Vec<&str> {
    o.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn a1_misspelled_rule_id_suppresses_nothing() {
    let o = hygiene("A1_STALE_ANNOTATION");
    assert_eq!(rules(&o), ["A1_STALE_ANNOTATION", "D1_WALL_CLOCK"]);
}

#[test]
fn a2_annotation_without_reason_is_a_finding() {
    let o = hygiene("A2_MISSING_REASON");
    assert_eq!(rules(&o), ["A2_MISSING_REASON"]);
    assert_eq!(o.quarantined.len(), 1, "the rule is still suppressed");
}

#[test]
fn r1_unresolvable_root_is_a_finding() {
    let o = hygiene("R1_MISSING_ROOT");
    assert_eq!(rules(&o), ["R1_MISSING_ROOT"]);
    assert_eq!(o.findings[0].symbol, "Nope::nope");
}

#[test]
fn allow_suppresses_only_the_rules_it_names() {
    let helper = "fn helper() -> u64 {\n    \
                  // cm-lint: allow(D1_WALL_CLOCK, the clock rides the nondet section)\n    \
                  let t = (Instant::now(), std::env::var(\"X\"));\n    0\n}";
    let o = run(DEMO, helper, &passes_of("D1_WALL_CLOCK"));
    assert_eq!(rules(&o), ["D5_ENV_READ"]);
    assert_eq!(o.quarantined[0].rule, "D1_WALL_CLOCK");
}

#[test]
fn no_rule_in_the_registry_is_dead() {
    assert_rules_fire(report::rule_set());
}
