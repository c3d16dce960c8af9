//! The hot-path cost pass (rules P1–P6).
//!
//! The campaign spends ~78% of its wall clock in the §4.2 expansion round
//! (`BENCH_pipeline.json`), and with the route memo absorbing 99.7% of
//! RIB lookups the residual cost is per-probe allocation, hashing and
//! string building. This pass keeps the hot loops allocation-lean
//! *statically*, the way [`crate::taint`] keeps the digest path
//! deterministic:
//!
//! 1. **seed** every per-iteration cost site — heap allocation (P1),
//!    `clone`/`to_owned`/`to_string` (P2), `format!`/string building
//!    (P3), hash-map construction (P4), loop-invariant `stablehash`
//!    draws (P5) and boxed/dyn iterator chains (P6) — but *only inside a
//!    loop body*, using the extractor's loop-depth tracking so every
//!    finding names its enclosing loop;
//! 2. **propagate** reachability along the over-approximated call graph
//!    from the declared hot roots ([`HOT_ROOTS`]): the campaign loops in
//!    `Pipeline::run`, the §4.1 border walk, the `DataPlane` per-probe
//!    emission path (the one-shot `traceroute_at` and the campaigns'
//!    `Prober` cursor) and the RIB/route-memo lookup;
//! 3. **error** when a hot root can reach a seeded loop, unless the site
//!    carries a `// cm-lint: allow(<RULE>, <reason>)` annotation
//!    ([`crate::engine`]) on its own or the preceding line.
//!
//! Seeds in functions no hot root reaches are counted as *dormant* —
//! cold-path allocation is not this pass's business.

use crate::engine::{Pass, Seed};
use crate::extract::{FileModel, Model, Relation};
use crate::lexer::{code, Tok, TokKind};
use std::collections::BTreeSet;

/// The declared hot roots: functions whose transitive callees run once
/// per probe, per hop or per RIB lookup.
pub const HOT_ROOTS: &[&str] = &[
    "Pipeline::run",
    "Campaign::run_sharded_obs",
    "BorderCollector::observe",
    "DataPlane::traceroute_at",
    "Prober::trace_into",
    "DataPlane::ping_min_rtt",
    "RoutingTable::route_at",
    "RouteMemo::route_at",
    "FaultCounters::record",
];

/// The hot-path cost pass: rules P1–P6 over the bare-name call graph.
pub const PASS: Pass = Pass {
    name: "cost",
    rules: &[
        "P1_HEAP_ALLOC",
        "P2_CLONE",
        "P3_FORMAT",
        "P4_HASH_BUILD",
        "P5_HASH_REDRAW",
        "P6_DYN_ITER",
    ],
    roots: Some((HOT_ROOTS, Relation::Full)),
    seed,
    advice: " on a hot path; hoist it out of the loop or precompute it",
};

/// The `stablehash` primitives whose redundant in-loop draws P5 flags.
const STABLEHASH_FNS: &[&str] = &["splitmix64", "mix", "unit_f64", "chance", "pick"];

fn seed(model: &Model, _: &[bool]) -> Vec<Seed> {
    let mut seeds = Vec::new();
    for fn_idx in model.seeded_fns() {
        seed_fn(fn_idx, model, &mut seeds);
    }
    seeds
}

/// One live loop scope during the body scan: the header line plus every
/// identifier the loop binds or names in its header (`for (i, x) in xs`)
/// and every `let` binding made so far in its body — the set P5 checks
/// stablehash arguments against for loop-variance.
struct LoopScope {
    line: u32,
    idents: BTreeSet<String>,
}

/// Scans one fn body for P-rule seeds. A single forward pass maintains
/// the loop-scope stack (same brace discipline as
/// [`crate::extract::loop_depths`]) so each seed records its enclosing
/// loop and depth.
fn seed_fn(fn_idx: usize, model: &Model, out: &mut Vec<Seed>) {
    let file_idx = model.fns[fn_idx].file;
    let file: &FileModel = &model.files[file_idx];
    let toks = &file.toks;
    let code = code(toks, model.fns[fn_idx].body.clone());
    let next_is =
        |ci: usize, pred: &dyn Fn(&Tok) -> bool| code.get(ci).map(|&i| &toks[i]).is_some_and(pred);
    let prev_is = |ci: usize, pred: &dyn Fn(&Tok) -> bool| {
        ci >= 1 && code.get(ci - 1).map(|&i| &toks[i]).is_some_and(pred)
    };

    let mut scopes: Vec<Option<LoopScope>> = Vec::new();
    let mut pending: Option<LoopScope> = None;
    let mut depth = 0u32;

    for ci in 0..code.len() {
        let t = &toks[code[ci]];

        // ---- loop-scope machinery -----------------------------------
        match t.kind {
            TokKind::Ident if t.text == "for" || t.text == "while" || t.text == "loop" => {
                // `for<'a>` higher-ranked bounds are not loops.
                let hrtb = t.text == "for" && next_is(ci + 1, &|n| n.is_punct('<'));
                if !hrtb {
                    pending = Some(LoopScope {
                        line: t.line,
                        idents: BTreeSet::new(),
                    });
                    continue;
                }
            }
            TokKind::Ident if pending.is_some() => {
                // Header identifiers: loop bindings and iterated names.
                if let Some(p) = pending.as_mut() {
                    if t.text != "in" && t.text != "let" && t.text != "mut" {
                        p.idents.insert(t.text.clone());
                    }
                }
            }
            TokKind::Punct if t.is_punct(';') => pending = None,
            TokKind::Punct if t.is_punct('{') => {
                if let Some(p) = pending.take() {
                    depth += 1;
                    scopes.push(Some(p));
                } else {
                    scopes.push(None);
                }
                continue;
            }
            TokKind::Punct if t.is_punct('}') => {
                if let Some(Some(_)) = scopes.pop() {
                    depth = depth.saturating_sub(1);
                }
                continue;
            }
            _ => {}
        }

        if depth == 0 || t.kind != TokKind::Ident {
            continue;
        }
        // `let` bindings inside the loop body join the innermost scope's
        // ident set, so P5 sees per-iteration locals as variant. The whole
        // pattern is scanned up to the `=` (or `;`/`{`), so destructuring
        // binds (`let Some(addr) = …`, `let (a, b) = …`) register too.
        if t.text == "let" {
            let mut k = ci + 1;
            while let Some(&bi) = code.get(k) {
                let x = &toks[bi];
                if x.is_punct('=') || x.is_punct(';') || x.is_punct('{') {
                    break;
                }
                if x.kind == TokKind::Ident && x.text != "mut" {
                    if let Some(scope) = scopes.iter_mut().rev().find_map(|s| s.as_mut()) {
                        scope.idents.insert(x.text.clone());
                    }
                }
                k += 1;
            }
            continue;
        }

        let loop_line = scopes
            .iter()
            .rev()
            .find_map(|s| s.as_ref().map(|l| l.line))
            .unwrap_or(0);
        let mut push = |rule: &'static str, what: String| {
            out.push(Seed {
                rule,
                file: file_idx,
                line: t.line,
                func: Some(fn_idx),
                message: format!("{what} inside the loop at line {loop_line} (depth {depth})"),
            });
        };

        // ---- rule matching ------------------------------------------
        match t.text.as_str() {
            // P1 — heap allocation.
            "Vec"
                if next_is(ci + 1, &|n| n.kind == TokKind::PathSep)
                    && next_is(ci + 2, &|n| {
                        n.is_ident("new") || n.is_ident("with_capacity") || n.is_ident("from")
                    }) =>
            {
                let m = &toks[code[ci + 2]].text;
                push(
                    "P1_HEAP_ALLOC",
                    format!("per-iteration allocation `Vec::{m}`"),
                );
            }
            "Box"
                if next_is(ci + 1, &|n| n.kind == TokKind::PathSep)
                    && next_is(ci + 2, &|n| n.is_ident("new")) =>
            {
                push(
                    "P1_HEAP_ALLOC",
                    "per-iteration allocation `Box::new`".into(),
                );
            }
            "vec" if next_is(ci + 1, &|n| n.is_punct('!')) => {
                push("P1_HEAP_ALLOC", "per-iteration allocation `vec!`".into());
            }
            "to_vec"
                if prev_is(ci, &|p| p.is_punct('.')) && next_is(ci + 1, &|n| n.is_punct('(')) =>
            {
                push(
                    "P1_HEAP_ALLOC",
                    "per-iteration allocation `.to_vec()`".into(),
                );
            }
            "collect" if prev_is(ci, &|p| p.is_punct('.')) => {
                // Classify by turbofish: a hash container is P4, anything
                // else (Vec, String, unspecified) a growable P1 target.
                let mut hash = false;
                if next_is(ci + 1, &|n| n.kind == TokKind::PathSep) {
                    let mut k = ci + 2;
                    while k < code.len() && !toks[code[k]].is_punct('(') {
                        let x = &toks[code[k]];
                        if x.is_ident("HashMap") || x.is_ident("HashSet") {
                            hash = true;
                        }
                        k += 1;
                    }
                }
                if hash {
                    push(
                        "P4_HASH_BUILD",
                        "per-iteration `.collect()` into a hash container".into(),
                    );
                } else {
                    push(
                        "P1_HEAP_ALLOC",
                        "per-iteration `.collect()` into a growable container".into(),
                    );
                }
            }
            // P2 — defensive copies.
            "clone" | "to_owned" | "to_string"
                if prev_is(ci, &|p| p.is_punct('.')) && next_is(ci + 1, &|n| n.is_punct('(')) =>
            {
                push("P2_CLONE", format!("per-iteration copy `.{}()`", t.text));
            }
            // P3 — string building.
            "format" if next_is(ci + 1, &|n| n.is_punct('!')) => {
                push("P3_FORMAT", "per-iteration `format!`".into());
            }
            "String"
                if next_is(ci + 1, &|n| n.kind == TokKind::PathSep)
                    && next_is(ci + 2, &|n| {
                        n.is_ident("new") || n.is_ident("from") || n.is_ident("with_capacity")
                    }) =>
            {
                let m = &toks[code[ci + 2]].text;
                push(
                    "P3_FORMAT",
                    format!("per-iteration string build `String::{m}`"),
                );
            }
            // P4 — hash-map construction.
            "HashMap" | "HashSet"
                if next_is(ci + 1, &|n| n.kind == TokKind::PathSep)
                    && next_is(ci + 2, &|n| {
                        n.is_ident("new") || n.is_ident("with_capacity") || n.is_ident("from")
                    }) =>
            {
                push(
                    "P4_HASH_BUILD",
                    format!(
                        "per-iteration hash construction `{}::{}`",
                        t.text,
                        toks[code[ci + 2]].text
                    ),
                );
            }
            // P5 — loop-invariant stablehash draws.
            name if STABLEHASH_FNS.contains(&name) && next_is(ci + 1, &|n| n.is_punct('(')) => {
                let loop_idents = || {
                    scopes
                        .iter()
                        .filter_map(|s| s.as_ref())
                        .flat_map(|s| s.idents.iter())
                };
                // Collect the call's argument identifiers.
                let mut args: BTreeSet<&str> = BTreeSet::new();
                let mut d = 0i32;
                let mut k = ci + 1;
                while k < code.len() {
                    let x = &toks[code[k]];
                    if x.is_punct('(') || x.is_punct('[') {
                        d += 1;
                    } else if x.is_punct(')') || x.is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    } else if x.kind == TokKind::Ident {
                        args.insert(x.text.as_str());
                    }
                    k += 1;
                }
                let variant = loop_idents().any(|li| args.contains(li.as_str()));
                if !variant {
                    push(
                        "P5_HASH_REDRAW",
                        format!("loop-invariant stablehash draw `{name}(…)`"),
                    );
                }
            }
            // P6 — boxed/dyn iterator chains.
            "Iterator" if prev_is(ci, &|p| p.is_ident("dyn")) => {
                push("P6_DYN_ITER", "`dyn Iterator` chain in a loop".into());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Outcome};
    use crate::extract::{build_model, lex_file};
    use std::collections::BTreeMap;

    fn outcome(src: &str, roots: &'static [&'static str]) -> Outcome {
        let file = lex_file("src/lib.rs", "demo", src);
        run(
            &build_model(vec![file], &BTreeMap::new()),
            &[Pass {
                roots: Some((roots, Relation::Full)),
                ..PASS
            }],
        )
    }

    #[test]
    fn alloc_outside_a_loop_is_not_a_finding() {
        let o = outcome(
            "fn root() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
    }

    #[test]
    fn alloc_in_a_loop_reports_the_enclosing_loop() {
        let o = outcome(
            "fn root() {\n    for i in 0..4 {\n        let v: Vec<u32> = Vec::new();\n        drop((i, v));\n    }\n}\n",
            &["root"],
        );
        assert_eq!(o.findings.len(), 1);
        assert_eq!(o.findings[0].rule, "P1_HEAP_ALLOC");
        assert!(
            o.findings[0].message.contains("loop at line 2"),
            "{}",
            o.findings[0].message
        );
    }

    #[test]
    fn acceptance_lands_in_the_ledger() {
        let o = outcome(
            "fn root() {\n    for i in 0..4 {\n        // cm-lint: allow(P1_HEAP_ALLOC, bounded by region count)\n        let v: Vec<u32> = Vec::new();\n        drop((i, v));\n    }\n}\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        assert_eq!(o.quarantined.len(), 1);
        assert_eq!(o.quarantined[0].rule, "P1_HEAP_ALLOC");
        assert_eq!(o.quarantined[0].reason, "bounded by region count");
    }

    #[test]
    fn cold_path_seed_is_dormant() {
        let o = outcome(
            "fn root() { }\nfn cold() { for i in 0..4 { let v = vec![i]; drop(v); } }\n",
            &["root"],
        );
        assert!(o.findings.is_empty());
        assert_eq!(o.dormant, 1);
    }

    #[test]
    fn invariant_draw_flagged_variant_draw_allowed() {
        let o = outcome(
            "fn root(seed: u64) -> u64 {\n    let mut acc = 0;\n    for i in 0..4 {\n        acc += mix(seed, 7);\n        acc += mix(seed, i);\n    }\n    acc\n}\nfn mix(a: u64, b: u64) -> u64 { a ^ b }\n",
            &["root"],
        );
        let p5: Vec<_> = o
            .findings
            .iter()
            .filter(|f| f.rule == "P5_HASH_REDRAW")
            .collect();
        assert_eq!(p5.len(), 1, "{:?}", o.findings);
        assert_eq!(p5[0].line, 4, "only the i-free draw is invariant");
    }

    #[test]
    fn stale_acceptance_is_a_finding() {
        let o = outcome(
            "fn root() {\n    // cm-lint: allow(P1_HEAP_ALLOC, nothing here)\n    let x = 1;\n    drop(x);\n}\n",
            &["root"],
        );
        assert!(o.findings.iter().any(|f| f.rule == "A1_STALE_ANNOTATION"));
    }
}
