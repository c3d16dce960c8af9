//! The one mutation table for every `cm-lint` rule, and the harness the
//! per-family test files drive. Each fixture injects its rule's construct
//! on the line marked `MUTATION`, in a `helper` that the appended
//! `fn root` calls; the annotated twin puts
//! `// cm-lint: allow(<RULE>, fixture twin; audited)` above that line and
//! must be clean, with the site in the ledger under that reason.

#![allow(dead_code)] // each test file drives a different slice of the table

use cm_lint::engine::{Outcome, Pass, HYGIENE_RULES};
use cm_lint::{analyze, taint, SourceFile, PASSES};
use std::collections::{BTreeMap, BTreeSet};

/// Where a fixture lives unless its rule is path-scoped.
pub const DEMO: &str = "crates/demo/src/fixture.rs";

/// (rule, path, helper source).
pub const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "D1_WALL_CLOCK",
        DEMO,
        "fn helper() -> u64 {\n    let t = Instant::now(); // MUTATION\n    0\n}",
    ),
    (
        "D2_PARALLELISM",
        DEMO,
        "fn helper() -> u64 {\n    std::thread::available_parallelism().map_or(1, |n| n.get()) as u64 // MUTATION\n}",
    ),
    (
        "D3_UNSEEDED_RNG",
        DEMO,
        "fn helper() -> u64 {\n    let mut rng = thread_rng(); // MUTATION\n    0\n}",
    ),
    (
        "D4_MAP_ORDER",
        DEMO,
        "fn helper() -> u64 {\n    let m: HashMap<u64, u64> = HashMap::new();\n    let mut acc = Vec::new();\n    for k in m.keys() { acc.push(*k); } // MUTATION\n    acc.len() as u64\n}",
    ),
    (
        "D5_ENV_READ",
        DEMO,
        "fn helper() -> u64 {\n    std::env::var(\"WORKERS\").map(|v| v.len()).unwrap_or(0) as u64 // MUTATION\n}",
    ),
    (
        "D6_ADDR_HASH",
        DEMO,
        "fn helper() -> u64 {\n    let s = RandomState::new(); // MUTATION\n    0\n}",
    ),
    (
        "P1_HEAP_ALLOC",
        DEMO,
        "fn helper() -> u64 {\n    let mut acc = 0u64;\n    for i in 0..4u64 {\n        let v: Vec<u64> = Vec::new(); // MUTATION\n        acc += v.len() as u64 + i;\n    }\n    acc\n}",
    ),
    (
        "P2_CLONE",
        DEMO,
        "fn helper() -> u64 {\n    let name = String::from(\"x\");\n    let mut acc = 0u64;\n    for _i in 0..4u64 {\n        let copy = name.clone(); // MUTATION\n        acc += copy.len() as u64;\n    }\n    acc\n}",
    ),
    (
        "P3_FORMAT",
        DEMO,
        "fn helper() -> u64 {\n    let mut acc = 0u64;\n    for i in 0..4u64 {\n        let s = format!(\"probe-{i}\"); // MUTATION\n        acc += s.len() as u64;\n    }\n    acc\n}",
    ),
    (
        "P4_HASH_BUILD",
        DEMO,
        "fn helper() -> u64 {\n    let mut acc = 0u64;\n    for i in 0..4u64 {\n        let m: HashMap<u64, u64> = HashMap::new(); // MUTATION\n        acc += m.len() as u64 + i;\n    }\n    acc\n}",
    ),
    (
        "P5_HASH_REDRAW",
        DEMO,
        "fn helper() -> u64 {\n    let seed = 7u64;\n    let mut acc = 0u64;\n    for _i in 0..4u64 {\n        acc ^= stablehash::mix(seed, &[0x5EEDu64]); // MUTATION\n    }\n    acc\n}",
    ),
    (
        "P6_DYN_ITER",
        DEMO,
        "fn helper() -> u64 {\n    let mut acc = 0u64;\n    for _i in 0..4u64 {\n        let it: &mut dyn Iterator<Item = u64> = &mut (0..4u64); // MUTATION\n        acc += it.next().unwrap_or(0);\n    }\n    acc\n}",
    ),
    (
        "S1_PANIC_PATH",
        DEMO,
        "fn helper() -> u64 {\n    let v = vec![5u64];\n    v.first().copied().unwrap() // MUTATION\n}",
    ),
    (
        "S2_UNCHECKED_INDEX",
        DEMO,
        "fn helper() -> u64 {\n    let v = vec![5u64, 7];\n    let i = pick();\n    v[i] // MUTATION\n}\nfn pick() -> usize { 1 }",
    ),
    (
        "S3_UNCHECKED_ARITH",
        DEMO,
        "fn helper() -> u64 {\n    let v = vec![5u64, 7];\n    let i = pick();\n    if i < v.len() { v[i * 2] // MUTATION\n    } else { 0 }\n}\nfn pick() -> usize { 0 }",
    ),
    (
        "S4_UNTRUSTED_ALLOC",
        DEMO,
        "fn helper(c: &mut Cur) -> u64 {\n    let n = c.u32() as usize;\n    let buf: Vec<u64> = Vec::with_capacity(n); // MUTATION\n    buf.capacity() as u64\n}",
    ),
    (
        "S5_UNBOUNDED_RECURSION",
        DEMO,
        "fn helper() -> u64 {\n    descend(3)\n}\nfn descend(d: u64) -> u64 { // MUTATION\n    if d == 0 { 0 } else { descend(d - 1) }\n}",
    ),
    (
        "L1_UNWRAP",
        DEMO,
        "fn helper(c: &mut Cur) -> u64 {\n    c.next().unwrap() // MUTATION\n}",
    ),
    (
        "L2_MAP_ITER",
        "crates/demo/src/report.rs",
        "fn helper(m: &M) -> u64 {\n    let mut n = 0;\n    for k in m.keys() { // MUTATION\n        n += *k;\n    }\n    n\n}",
    ),
    (
        "L3_MISSING_DOCS",
        "crates/demo/src/lib.rs",
        "//! Crate docs that only mention #![deny(missing_docs)]. MUTATION\nfn helper() -> u64 { 0 }",
    ),
];

/// The registered family that owns `rule` — every pass sharing the name
/// of the pass that emits it, so an S twin must be clean under S1–S5 —
/// with any roots re-set to the fixture's `fn root`.
pub fn passes_of(rule: &str) -> Vec<Pass> {
    let owner = PASSES
        .iter()
        .find(|p| p.rules.contains(&rule))
        .unwrap_or_else(|| panic!("{rule} is in no registered pass"));
    PASSES
        .iter()
        .filter(|p| p.name == owner.name)
        .map(|&p| rooted(p, &["root"]))
        .collect()
}

/// `pass` with its root specs replaced, keeping its relation; a rootless
/// pass stays rootless.
pub fn rooted(pass: Pass, roots: &'static [&'static str]) -> Pass {
    Pass {
        roots: pass.roots.map(|(_, relation)| (roots, relation)),
        ..pass
    }
}

/// Runs `passes` over one demo file: `helper`, then a `fn root` calling it.
pub fn run(path: &str, helper: &str, passes: &[Pass]) -> Outcome {
    let sources = [SourceFile {
        path: path.into(),
        crate_name: "demo".into(),
        src: format!("{helper}\nfn root(c: &mut Cur) -> u64 {{ helper(c) }}\n"),
    }];
    analyze(&sources, &BTreeMap::new(), passes)
}

/// `rule`'s (path, helper) from the table.
pub fn fixture(rule: &str) -> (&'static str, &'static str) {
    FIXTURES
        .iter()
        .find(|f| f.0 == rule)
        .map(|f| (f.1, f.2))
        .unwrap_or_else(|| panic!("no fixture for {rule}"))
}

/// Asserts the fixture trips `rule` under its family's passes — with the
/// witness chain back to `root` when the pass has roots — and that the
/// annotated twin is clean under all of them, with the site in the ledger
/// under the twin's reason.
pub fn assert_mutation_caught(rule: &str) {
    let (path, helper) = fixture(rule);
    let passes = passes_of(rule);
    let out = run(path, helper, &passes);
    let hits: Vec<_> = out.findings.iter().filter(|f| f.rule == rule).collect();
    assert!(
        !hits.is_empty(),
        "{rule}: expected a finding, got {:?}",
        out.findings
    );
    if passes.iter().all(|p| p.roots.is_some()) {
        for f in hits {
            assert_eq!(f.trace.first().map(String::as_str), Some("root"), "{rule}");
        }
    }

    let annotated: String = helper
        .lines()
        .map(|l| {
            if l.contains("MUTATION") {
                format!("// cm-lint: allow({rule}, fixture twin; audited)\n{l}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let out = run(path, &annotated, &passes);
    assert!(
        out.findings.is_empty(),
        "{rule} (annotated): {:?}",
        out.findings
    );
    assert!(
        out.quarantined.iter().any(|q| q.rule == rule),
        "{rule} (annotated): the ledger is missing the site"
    );
    assert!(
        out.quarantined
            .iter()
            .all(|q| q.reason == "fixture twin; audited"),
        "{rule} (annotated): the ledger must carry the reason"
    );
}

/// The fixture for one of the engine's own hygiene rules: a wall-clock
/// read under a misspelled rule id (A1), under an annotation with no
/// reason (A2), or checked against a root that does not exist (R1).
pub fn hygiene(rule: &str) -> Outcome {
    let clock = |annotation: &str| {
        format!("fn helper() -> u64 {{\n    {annotation}\n    let t = Instant::now();\n    0\n}}")
    };
    match rule {
        "A1_STALE_ANNOTATION" => run(
            DEMO,
            &clock("// cm-lint: allow(D1_WALL_CLCK, misspelled rule id)"),
            &passes_of("D1_WALL_CLOCK"),
        ),
        "A2_MISSING_REASON" => run(
            DEMO,
            &clock("// cm-lint: allow(D1_WALL_CLOCK)"),
            &passes_of("D1_WALL_CLOCK"),
        ),
        "R1_MISSING_ROOT" => run(DEMO, &clock(""), &[rooted(taint::PASS, &["Nope::nope"])]),
        _ => panic!("no hygiene fixture for {rule}"),
    }
}

/// No dead rules: each of `rules` fires on at least one fixture (rule or
/// hygiene), so a matcher regression that silently disables a rule fails
/// even if its own test were edited out of sync.
pub fn assert_rules_fire<'a>(rules: impl IntoIterator<Item = &'a str>) {
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for (rule, path, helper) in FIXTURES {
        fired.extend(
            run(path, helper, &passes_of(rule))
                .findings
                .into_iter()
                .map(|f| f.rule),
        );
    }
    for rule in HYGIENE_RULES {
        fired.extend(hygiene(rule).findings.into_iter().map(|f| f.rule));
    }
    for rule in rules {
        assert!(fired.contains(rule), "rule {rule} fired on no fixture");
    }
}

/// `src` holds exactly one `rule` seed, in a fn the family's root does not
/// reach: it is dormant, not a finding — out of the gate's scope, but
/// counted exactly once, so a root-list regression stays visible.
pub fn assert_dormant(rule: &str, src: &str) {
    let out = run(DEMO, src, &passes_of(rule));
    assert!(
        out.findings.is_empty(),
        "cold-path seed must not fire: {:?}",
        out.findings
    );
    assert_eq!(
        out.dormant, 1,
        "the cold-path seed must be counted dormant once"
    );
}
