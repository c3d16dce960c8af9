//! The serving-safety pass (rules S1–S5): panic-freedom plus
//! untrusted-input taint.
//!
//! `cm-serve` decodes attacker-controllable `AtlasSnapshot` bytes and
//! answers point/LPM/neighborhood queries on a thread-per-core hot path;
//! `cm-bench`'s `jsonv` parses machine-written (but possibly truncated or
//! hostile) JSON artifacts. One reachable panic — a stray `unwrap`, an
//! unchecked index, a forged-count allocation, unbounded recursion — is a
//! remote crash of a serving thread. This pass proves the serving surface
//! panic-free *statically*, the way [`crate::taint`] proves the digest
//! path deterministic:
//!
//! 1. **seed** panic-capable sites. S1 (`.unwrap()`, `.expect(…)`,
//!    `panic!`/`unreachable!`/`todo!`/`unimplemented!`) is scanned in
//!    every production fn. The untrusted-input rules are scanned only in
//!    functions reachable from an untrusted-input root: S2 flags index
//!    and slice expressions (`x[i]`, `&x[a..b]`) whose index identifiers
//!    lack a dominating bounds check in the same fn (every range slice
//!    fires — a `..` bound can exceed the backing length even when both
//!    endpoints were compared); S3 flags `+`/`-`/`*` and `as` truncation
//!    inside an index bracket or capacity argument without a
//!    `checked_`/`saturating_`/`wrapping_` wrapper; S4 flags
//!    `with_capacity`/`reserve`/`vec![…]` sized by an identifier bound
//!    from a raw cursor read (`.u8()`/`.u16()`/`.u32()`/`.u64()`/
//!    `.as_num()`) without pre-validation (the sanctioned validator is
//!    `len_prefix`, which checks `count × width` against the remaining
//!    bytes before any allocation); S5 flags every fn on a call-graph
//!    cycle — the hand-rolled recursive-descent parser — since untrusted
//!    nesting depth is untrusted stack depth.
//! 2. **propagate** along the call graph. S1 walks the bare-name
//!    relation (panic seeds are rare, so over-reach is cheap); S2–S5 walk
//!    the precise one ([`Relation::Precise`]), because indexing seeds occur
//!    everywhere and a `Vec::new` resolving to every workspace `new` would
//!    taint the world. So the rules form two passes with two root sets:
//!    [`PANIC`] from [`SERVE_ROOTS`] (the snapshot decoder, the engine
//!    query entry points, `Json::parse`, the tracefile reader,
//!    `Pipeline::run`), and [`UNTRUSTED`] from its subset
//!    [`UNTRUSTED_ROOTS`] (everything but `Pipeline::run`, whose inputs
//!    are workspace-generated).
//! 3. **error** with a witness call chain unless the site carries a
//!    `// cm-lint: allow(<RULE>, <reason>)` annotation ([`crate::engine`])
//!    on its own or the preceding line.
//!
//! S1 seeds no serve root reaches are counted *dormant*; outside the serve
//! cone, L1 still flags every `unwrap`/`expect`.
//!
//! Known approximations, all in the strict-or-documented direction:
//! pure-literal indices (`w[0]`) are exempt (overwhelmingly fixed-size
//! array access); the bounds-check detector is fn-global rather than
//! flow-sensitive (a check *anywhere* in the fn counts); `assert!` is
//! deliberately not an S1 seed (an assert is an explicit guard, and the
//! codebase's hot-path asserts are `debug_assert!`, stripped in release).

use crate::engine::{Pass, Seed};
use crate::extract::{Model, Relation};
use crate::lexer::{code, Tok, TokKind};
use std::collections::BTreeSet;

/// The serving-surface roots: functions whose transitive callees must be
/// panic-free.
pub const SERVE_ROOTS: &[&str] = &[
    "AtlasSnapshot::decode",
    "AtlasSnapshot::load",
    "Engine::point",
    "Engine::longest_prefix",
    "Engine::neighbors",
    "Json::parse",
    "read_traces",
    "Pipeline::run",
];

/// The untrusted-input roots — the subset of [`SERVE_ROOTS`] whose
/// arguments an attacker controls byte-for-byte (snapshot files, query
/// addresses, JSON artifacts, externally collected tracefiles).
pub const UNTRUSTED_ROOTS: &[&str] = &[
    "AtlasSnapshot::decode",
    "AtlasSnapshot::load",
    "Engine::point",
    "Engine::longest_prefix",
    "Engine::neighbors",
    "Json::parse",
    "read_traces",
];

/// S1: panic-capable calls and macros the serving surface reaches.
///
/// [`PANIC`] and [`UNTRUSTED`] share the pass name `safety`, and the
/// engine keys unresolved roots on (pass name, spec): a spec both root
/// lists hold is reported once by `R1_MISSING_ROOT`, and the report header
/// names the family once.
pub const PANIC: Pass = Pass {
    name: "safety",
    rules: &["S1_PANIC_PATH"],
    roots: Some((SERVE_ROOTS, Relation::Full)),
    seed: seed_panics,
    advice: SAFETY_ADVICE,
};

/// S2–S5: the untrusted-input taint rules, seeded only inside the cone
/// of [`UNTRUSTED_ROOTS`].
pub const UNTRUSTED: Pass = Pass {
    name: "safety",
    rules: &[
        "S2_UNCHECKED_INDEX",
        "S3_UNCHECKED_ARITH",
        "S4_UNTRUSTED_ALLOC",
        "S5_UNBOUNDED_RECURSION",
    ],
    roots: Some((UNTRUSTED_ROOTS, Relation::Precise)),
    seed: seed_untrusted,
    advice: SAFETY_ADVICE,
};

const SAFETY_ADVICE: &str = " is reachable from a serving-surface root; return a typed error or \
                             bound/validate the input";

/// Raw length-free cursor reads: an identifier bound from one of these
/// method calls is an untrusted count until compared against a length.
const UNTRUSTED_READS: &[&str] = &["u8", "u16", "u32", "u64", "as_num"];

/// Capacity sinks for S4: a call to one of these sized by an untrusted
/// identifier is a memory-DoS vector.
const CAPACITY_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// The S1 panic macros (`name!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// S1 in every production fn; dormancy is the engine's call.
fn seed_panics(model: &Model, _: &[bool]) -> Vec<Seed> {
    let mut out = Vec::new();
    for fn_idx in model.seeded_fns() {
        let f = &model.fns[fn_idx];
        let toks = &model.files[f.file].toks;
        let code = code(toks, f.body.clone());
        for ci in 0..code.len() {
            let t = &toks[code[ci]];
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev = ci.checked_sub(1).map(|p| &toks[code[p]]);
            let next = code.get(ci + 1).map(|&n| &toks[n]);
            let message = match t.text.as_str() {
                "unwrap" | "expect"
                    if prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|n| n.is_punct('(')) =>
                {
                    format!("`.{}()` call", t.text)
                }
                m if PANIC_MACROS.contains(&m) && next.is_some_and(|n| n.is_punct('!')) => {
                    format!("`{m}!` macro")
                }
                _ => continue,
            };
            out.push(Seed {
                rule: "S1_PANIC_PATH",
                file: f.file,
                line: t.line,
                func: Some(fn_idx),
                message,
            });
        }
    }
    out
}

/// S2–S4 in every production fn of the untrusted cone, plus S5 on every
/// cone fn that sits on a call-graph cycle.
fn seed_untrusted(model: &Model, cone: &[bool]) -> Vec<Seed> {
    let mut out = Vec::new();
    for fn_idx in model.seeded_fns().filter(|&i| cone[i]) {
        seed_fn(fn_idx, model, &mut out);
    }
    let on_cycle = cycle_members(model.edges(Relation::Cycle), cone);
    for i in model.seeded_fns().filter(|&i| on_cycle[i]) {
        let f = &model.fns[i];
        out.push(Seed {
            rule: "S5_UNBOUNDED_RECURSION",
            file: f.file,
            line: f.line,
            func: Some(i),
            message: format!("recursion cycle through `{}`", f.qualified()),
        });
    }
    out
}

/// `members[i]` — fn `i` sits on a call-graph cycle within the reached
/// subgraph (including direct self-recursion). Quadratic in the cone
/// size, which is small (the decoder, the parsers, the query fns).
fn cycle_members(edges: &[Vec<usize>], reached: &[bool]) -> Vec<bool> {
    let n = edges.len();
    let mut members = vec![false; n];
    for i in 0..n {
        if !reached[i] {
            continue;
        }
        // Can i reach itself through ≥1 edge, staying inside the cone?
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = edges[i].iter().copied().filter(|&j| reached[j]).collect();
        while let Some(j) = stack.pop() {
            if j == i {
                members[i] = true;
                break;
            }
            if seen[j] {
                continue;
            }
            seen[j] = true;
            stack.extend(edges[j].iter().copied().filter(|&k| reached[k]));
        }
    }
    members
}

/// What one scanned bracket/paren group contained.
struct GroupInfo {
    /// Code index just past the matching close.
    after: usize,
    /// Identifiers inside the group (any nesting depth).
    idents: BTreeSet<String>,
    /// A `..` range appeared at any depth.
    has_range: bool,
    /// A bare `+`/`-`/`*` or an `as` cast appeared.
    has_arith: bool,
    /// A `checked_*`/`saturating_*`/`wrapping_*` call appeared, vouching
    /// for the arithmetic.
    has_guarded_arith: bool,
}

/// Scans a bracket or paren group starting at `open_ci` (which must hold
/// the opening delimiter), collecting the facts S2–S4 match on.
fn scan_group(toks: &[Tok], code: &[usize], open_ci: usize, open: char, close: char) -> GroupInfo {
    let mut info = GroupInfo {
        after: open_ci + 1,
        idents: BTreeSet::new(),
        has_range: false,
        has_arith: false,
        has_guarded_arith: false,
    };
    let mut depth = 0i32;
    let mut ci = open_ci;
    while ci < code.len() {
        let t = &toks[code[ci]];
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                info.after = ci + 1;
                break;
            }
        } else if t.kind == TokKind::Ident {
            if t.text == "as" {
                info.has_arith = true;
            } else if t.text.starts_with("checked_")
                || t.text.starts_with("saturating_")
                || t.text.starts_with("wrapping_")
            {
                info.has_guarded_arith = true;
            } else {
                info.idents.insert(t.text.clone());
            }
        } else if t.is_punct('.') {
            if ci + 1 < code.len() && toks[code[ci + 1]].is_punct('.') {
                info.has_range = true;
            }
        } else if t.is_punct('+') || t.is_punct('*') || t.is_punct('-') {
            // `*` here is deref-or-multiply; deref of an in-range index
            // is harmless, so only count it as arithmetic when it sits
            // between two value tokens (prev is ident/num/`)`).
            let binary = t.is_punct('+')
                || ci > open_ci + 1 && {
                    let p = &toks[code[ci - 1]];
                    p.kind == TokKind::Ident || p.kind == TokKind::Num || p.is_punct(')')
                };
            if binary {
                info.has_arith = true;
            }
        }
        ci += 1;
    }
    info
}

/// Identifiers with a dominating bounds check somewhere in the fn body:
/// any comparison (`<`/`>`) whose statement-local window also mentions
/// `len`, `is_empty` or `min` marks every identifier in that window as
/// checked. Fn-global, not flow-sensitive — documented approximation.
fn checked_idents(toks: &[Tok], code: &[usize]) -> BTreeSet<String> {
    let mut checked = BTreeSet::new();
    for ci in 0..code.len() {
        let t = &toks[code[ci]];
        if !(t.is_punct('<') || t.is_punct('>')) {
            continue;
        }
        let stmt_bound = |x: &Tok| x.is_punct(';') || x.is_punct('{') || x.is_punct('}');
        let mut lo = ci;
        while lo > 0 && ci - lo < 12 && !stmt_bound(&toks[code[lo - 1]]) {
            lo -= 1;
        }
        let mut hi = ci;
        while hi + 1 < code.len() && hi - ci < 12 && !stmt_bound(&toks[code[hi + 1]]) {
            hi += 1;
        }
        let window: Vec<&Tok> = (lo..=hi).map(|k| &toks[code[k]]).collect();
        let has_len = window
            .iter()
            .any(|x| x.is_ident("len") || x.is_ident("is_empty") || x.is_ident("min"));
        if has_len {
            for x in window {
                if x.kind == TokKind::Ident {
                    checked.insert(x.text.clone());
                }
            }
        }
    }
    checked
}

/// Identifiers bound from a raw cursor read (`let n = c.u32()? …`):
/// untrusted counts until validated. `len_prefix` is deliberately not a
/// read — it is the sanctioned validator.
fn untrusted_idents(toks: &[Tok], code: &[usize]) -> BTreeSet<String> {
    let mut untrusted = BTreeSet::new();
    let mut ci = 0;
    while ci < code.len() {
        if !toks[code[ci]].is_ident("let") {
            ci += 1;
            continue;
        }
        // Pattern idents up to `=`.
        let mut pattern: Vec<String> = Vec::new();
        let mut k = ci + 1;
        while k < code.len() {
            let x = &toks[code[k]];
            if x.is_punct('=') || x.is_punct(';') || x.is_punct('{') {
                break;
            }
            if x.kind == TokKind::Ident && x.text != "mut" {
                pattern.push(x.text.clone());
            }
            k += 1;
        }
        if k >= code.len() || !toks[code[k]].is_punct('=') {
            ci = k;
            continue;
        }
        // RHS up to the statement-ending `;`: a `.read(` method call
        // taints every pattern ident.
        let mut tainted = false;
        let mut m = k + 1;
        while m < code.len() {
            let x = &toks[code[m]];
            if x.is_punct(';') {
                break;
            }
            if x.kind == TokKind::Ident
                && UNTRUSTED_READS.contains(&x.text.as_str())
                && m >= 1
                && toks[code[m - 1]].is_punct('.')
                && m + 1 < code.len()
                && toks[code[m + 1]].is_punct('(')
            {
                tainted = true;
            }
            m += 1;
        }
        if tainted {
            untrusted.extend(pattern);
        }
        ci = m;
    }
    untrusted
}

/// Scans one fn body of the untrusted cone for S2–S4 seeds.
fn seed_fn(fn_idx: usize, model: &Model, out: &mut Vec<Seed>) {
    let file = model.fns[fn_idx].file;
    let toks = &model.files[file].toks;
    let code = code(toks, model.fns[fn_idx].body.clone());
    let next_is =
        |ci: usize, pred: &dyn Fn(&Tok) -> bool| code.get(ci).map(|&i| &toks[i]).is_some_and(pred);
    let push = |out: &mut Vec<Seed>, rule: &'static str, line: u32, message: String| {
        out.push(Seed {
            rule,
            file,
            line,
            func: Some(fn_idx),
            message,
        });
    };
    let checked = checked_idents(toks, &code);
    let tainted = untrusted_idents(toks, &code);

    for ci in 0..code.len() {
        let t = &toks[code[ci]];

        // ---- S2/S3: index and slice expressions ----------------------
        if t.is_punct('[') {
            // Expression position: the bracket indexes the value ending
            // just before it — an identifier (not a keyword introducing
            // a type or pattern) or a closing `)`/`]`.
            let keyword = |x: &Tok| {
                [
                    "mut", "in", "return", "break", "else", "match", "if", "impl", "dyn", "where",
                    "as", "ref", "move",
                ]
                .iter()
                .any(|k| x.is_ident(k))
            };
            let expr_pos = ci >= 1 && {
                let p = &toks[code[ci - 1]];
                (p.kind == TokKind::Ident && !keyword(p)) || p.is_punct(')') || p.is_punct(']')
            };
            if expr_pos {
                let info = scan_group(toks, &code, ci, '[', ']');
                let unchecked: Vec<&String> = info
                    .idents
                    .iter()
                    .filter(|x| !checked.contains(*x) && x.as_str() != "self")
                    .collect();
                let recv = &toks[code[ci - 1]].text;
                if info.has_range || !unchecked.is_empty() {
                    let what = if info.has_range {
                        format!("slice expression `{recv}[…]`")
                    } else {
                        format!(
                            "unchecked index `{recv}[{}…]` (no dominating bounds check)",
                            unchecked[0]
                        )
                    };
                    push(out, "S2_UNCHECKED_INDEX", t.line, what);
                }
                if info.has_arith && !info.has_guarded_arith {
                    push(
                        out,
                        "S3_UNCHECKED_ARITH",
                        t.line,
                        format!("unchecked arithmetic inside index `{recv}[…]`"),
                    );
                }
            }
        }

        // ---- S3/S4: capacity sinks -----------------------------------
        if t.kind == TokKind::Ident
            && CAPACITY_SINKS.contains(&t.text.as_str())
            && next_is(ci + 1, &|n| n.is_punct('('))
        {
            let info = scan_group(toks, &code, ci + 1, '(', ')');
            if info.has_arith && !info.has_guarded_arith {
                push(
                    out,
                    "S3_UNCHECKED_ARITH",
                    t.line,
                    format!("unchecked arithmetic sizing `{}(…)`", t.text),
                );
            }
            if let Some(n) = info
                .idents
                .iter()
                .find(|x| tainted.contains(*x) && !checked.contains(*x))
            {
                push(
                    out,
                    "S4_UNTRUSTED_ALLOC",
                    t.line,
                    format!(
                        "allocation `{}({n}…)` sized by an unvalidated cursor read",
                        t.text
                    ),
                );
            }
        }
        if t.is_ident("vec")
            && next_is(ci + 1, &|n| n.is_punct('!'))
            && next_is(ci + 2, &|n| n.is_punct('['))
        {
            let info = scan_group(toks, &code, ci + 2, '[', ']');
            if let Some(n) = info
                .idents
                .iter()
                .find(|x| tainted.contains(*x) && !checked.contains(*x))
            {
                push(
                    out,
                    "S4_UNTRUSTED_ALLOC",
                    t.line,
                    format!("allocation `vec![…; {n}]` sized by an unvalidated cursor read"),
                );
            }
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
        let rooted = |pass: Pass| Pass {
            roots: pass.roots.map(|(_, relation)| (roots, relation)),
            ..pass
        };
        let passes = [rooted(PANIC), rooted(UNTRUSTED)];
        run(&build_model(vec![file], &BTreeMap::new()), &passes)
    }

    fn rules(o: &Outcome) -> Vec<&str> {
        o.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn unwrap_reaching_root_is_flagged_with_chain() {
        let o = outcome(
            "fn root() -> u32 { helper() }\n\
             fn helper() -> u32 { maybe().unwrap() }\n\
             fn maybe() -> Option<u32> { None }\n",
            &["root"],
        );
        let s1: Vec<_> = o
            .findings
            .iter()
            .filter(|f| f.rule == "S1_PANIC_PATH")
            .collect();
        assert_eq!(s1.len(), 1, "{:?}", rules(&o));
        assert_eq!(s1[0].trace, vec!["root", "helper"]);
    }

    #[test]
    fn unwrap_or_variants_are_not_panic_sites() {
        let o = outcome(
            "fn root(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n",
            &["root"],
        );
        assert!(!rules(&o).contains(&"S1_PANIC_PATH"), "{:?}", o.findings);
    }

    #[test]
    fn panic_macro_is_flagged() {
        let o = outcome(
            "fn root(x: u32) { if x > 3 { panic!(\"too big\"); } }\n",
            &["root"],
        );
        assert!(rules(&o).contains(&"S1_PANIC_PATH"));
    }

    #[test]
    fn annotation_quarantines_into_the_ledger() {
        let o = outcome(
            "fn root() -> u32 {\n\
                 // cm-lint: allow(S1_PANIC_PATH, list is non-empty by construction)\n\
                 maybe().unwrap()\n\
             }\n\
             fn maybe() -> Option<u32> { Some(1) }\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings[0].message);
        assert_eq!(o.quarantined.len(), 1);
        assert_eq!(o.quarantined[0].rule, "S1_PANIC_PATH");
        assert!(o.quarantined[0].reason.contains("non-empty"));
    }

    #[test]
    fn unchecked_index_fires_and_guarded_index_does_not() {
        let o = outcome("fn root(v: &[u32], i: usize) -> u32 { v[i] }\n", &["root"]);
        assert!(
            rules(&o).contains(&"S2_UNCHECKED_INDEX"),
            "{:?}",
            o.findings
        );
        let o = outcome(
            "fn root(v: &[u32], i: usize) -> u32 {\n\
                 if i < v.len() { v[i] } else { 0 }\n\
             }\n",
            &["root"],
        );
        assert!(
            !rules(&o).contains(&"S2_UNCHECKED_INDEX"),
            "{:?}",
            o.findings
        );
    }

    #[test]
    fn get_based_access_is_not_an_index() {
        let o = outcome(
            "fn root(v: &[u32], i: usize) -> u32 { v.get(i).copied().unwrap_or(0) }\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
    }

    #[test]
    fn literal_index_is_exempt_but_ranges_fire() {
        let o = outcome("fn root(w: &[u8]) -> u8 { w[0] }\n", &["root"]);
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        let o = outcome("fn root(v: &[u8]) -> &[u8] { &v[..8] }\n", &["root"]);
        assert!(rules(&o).contains(&"S2_UNCHECKED_INDEX"));
    }

    #[test]
    fn arithmetic_inside_an_index_is_flagged() {
        let o = outcome(
            "fn root(v: &[u32], i: usize) -> u32 {\n\
                 if i < v.len() { v[i * 2] } else { 0 }\n\
             }\n",
            &["root"],
        );
        let r = rules(&o);
        assert!(r.contains(&"S3_UNCHECKED_ARITH"), "{r:?}");
        assert!(
            !r.contains(&"S2_UNCHECKED_INDEX"),
            "i itself is checked: {r:?}"
        );
    }

    #[test]
    fn untrusted_count_allocation_is_flagged_and_validated_count_passes() {
        let o = outcome(
            "fn root(c: &mut Cur) -> Vec<u8> {\n\
                 let n = c.u32() as usize;\n\
                 Vec::with_capacity(n)\n\
             }\n",
            &["root"],
        );
        assert!(
            rules(&o).contains(&"S4_UNTRUSTED_ALLOC"),
            "{:?}",
            o.findings
        );
        let o = outcome(
            "fn root(c: &mut Cur, rest: &[u8]) -> Vec<u8> {\n\
                 let n = c.u32() as usize;\n\
                 if n > rest.len() { return Vec::new(); }\n\
                 Vec::with_capacity(n)\n\
             }\n",
            &["root"],
        );
        assert!(
            !rules(&o).contains(&"S4_UNTRUSTED_ALLOC"),
            "{:?}",
            o.findings
        );
    }

    #[test]
    fn recursion_cycle_is_flagged() {
        let o = outcome(
            "fn root(d: u32) -> u32 { if d == 0 { 0 } else { root(d - 1) } }\n",
            &["root"],
        );
        assert!(
            rules(&o).contains(&"S5_UNBOUNDED_RECURSION"),
            "{:?}",
            o.findings
        );
        let o = outcome(
            "fn root(d: u32) -> u32 { d + leaf() }\nfn leaf() -> u32 { 1 }\n",
            &["root"],
        );
        assert!(!rules(&o).contains(&"S5_UNBOUNDED_RECURSION"));
    }

    #[test]
    fn cold_path_unwrap_is_dormant() {
        let o = outcome(
            "fn root() -> u32 { 1 }\n\
             fn cold() -> u32 { maybe().unwrap() }\n\
             fn maybe() -> Option<u32> { Some(1) }\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        assert_eq!(o.dormant, 1);
    }

    #[test]
    fn stale_annotation_and_missing_reason_are_findings() {
        let o = outcome(
            "fn root() {\n\
                 // cm-lint: allow(S1_PANIC_PATH, unused excuse)\n\
                 let x = 1;\n\
             }\n\
             fn other() {\n\
                 // cm-lint: allow(S1_PANIC_PATH)\n\
                 let y = maybe().unwrap();\n\
             }\n\
             fn maybe() -> Option<u32> { Some(1) }\n",
            &["root"],
        );
        let r = rules(&o);
        assert!(r.contains(&"A1_STALE_ANNOTATION"), "{r:?}");
        assert!(r.contains(&"A2_MISSING_REASON"), "{r:?}");
    }

    #[test]
    fn missing_root_is_reported_once_per_spec() {
        let o = outcome("fn a() {}\n", &["Nope::nope"]);
        let r1: Vec<_> = o
            .findings
            .iter()
            .filter(|f| f.rule == "R1_MISSING_ROOT")
            .collect();
        assert_eq!(
            r1.len(),
            1,
            "one finding although both safety passes miss it"
        );
        assert_eq!(r1[0].symbol, "Nope::nope");
    }
}
