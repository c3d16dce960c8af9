//! The determinism taint pass (rules D1–D6).
//!
//! The golden-digest contract (DESIGN.md §10–§11): everything folded into
//! the versioned `AtlasSummary` digest — inference products, the frozen
//! metrics exposition, the deterministic JSONL trace — must be
//! byte-identical at any `probe_workers` count. This pass enforces the
//! contract *statically*:
//!
//! 1. **seed** every site whose value the runtime does not make
//!    reproducible — wall clocks (D1), parallelism probes (D2), unseeded
//!    randomness (D3), unordered-map iteration whose order can escape
//!    (D4), environment reads (D5) and address/identity hashing (D6);
//! 2. **propagate** function-level taint along the over-approximated call
//!    graph (a function is tainted when its body seeds, or when it may
//!    call a tainted function);
//! 3. **error** when any digest-surface root — `AtlasSummary::of/digest`,
//!    `metrics_digest`, `Snapshot::expose`, the deterministic JSONL
//!    renderers, the `stablehash` primitives, `Pipeline::run` — can reach
//!    a seed.
//!
//! A site is exempt only under a `// cm-lint: allow(<RULE>, <reason>)`
//! annotation ([`crate::engine`]) — the static counterpart of the flight
//! recorder's `"nondeterministic"` JSONL section, and the only approved way
//! wall clocks and cache-race counters ride along with a deterministic
//! trace.

use crate::engine::{Pass, Seed};
use crate::extract::{FileModel, Model, Relation};
use crate::lexer::{code, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// The digest-surface roots: functions whose transitive callees must be
/// free of unquarantined nondeterminism.
pub const DEFAULT_ROOTS: &[&str] = &[
    "AtlasSummary::of",
    "AtlasSummary::digest",
    "metrics_digest",
    "render_golden",
    "Snapshot::expose",
    "event_jsonl",
    "render_jsonl",
    "splitmix64",
    "mix",
    "unit_f64",
    "chance",
    "pick",
    "Pipeline::run",
];

/// The determinism pass: rules D1–D6 over the bare-name call graph.
pub const PASS: Pass = Pass {
    name: "taint",
    rules: &[
        "D1_WALL_CLOCK",
        "D2_PARALLELISM",
        "D3_UNSEEDED_RNG",
        "D4_MAP_ORDER",
        "D5_ENV_READ",
        "D6_ADDR_HASH",
    ],
    roots: Some((DEFAULT_ROOTS, Relation::Full)),
    seed,
    advice: " reaches the golden-digest surface; quarantine it behind the recorder's \
             nondeterministic section or restructure",
};

const ITER_METHODS: &[&str] = &[
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
];

/// Order-insensitive iterator consumers: a hash-map iteration whose value
/// is immediately reduced by one of these cannot leak ordering.
const SINK_METHODS: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
    "contains_key",
];

const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
];

fn seed(model: &Model, _: &[bool]) -> Vec<Seed> {
    let hash_idents = collect_hash_idents(model);
    let mut seeds = Vec::new();
    for fn_idx in model.seeded_fns() {
        seed_fn(fn_idx, model, &hash_idents, &mut seeds);
    }
    seeds
}

/// Identifiers declared with a `HashMap`/`HashSet` type (fields, params,
/// annotated lets) or initialized from one (`= HashMap::new()`), used to
/// resolve iteration receivers. Resolution is *scoped*: a bare receiver
/// (`m.keys()`) must be declared in the same file; a field receiver
/// (`pool.abis.values()`) may also be declared in any crate visible from
/// the caller — fields cross file boundaries, locals do not. Workspace-
/// global matching was tried first and drowned real findings in
/// collisions (a `regions: &[RegionId]` slice in cm-probe aliasing a
/// `regions: HashSet<RegionId>` field in cloudmap).
struct HashDecls {
    /// File index → names declared hash in that file.
    per_file: Vec<BTreeSet<String>>,
    /// File index → names declared in that file with some *other* concrete
    /// type (`Vec`, `BTreeMap`, a slice, …). A same-file non-hash
    /// declaration vetoes cross-crate inference: `AtlasSummary`'s
    /// `cbis: Vec<Ipv4>` must not inherit hash-ness from `SegmentPool`'s
    /// `cbis: HashMap<…>` in a dependency crate.
    per_file_nonhash: Vec<BTreeSet<String>>,
    /// Crate name → names declared hash anywhere in that crate.
    per_crate: BTreeMap<String, BTreeSet<String>>,
}

impl HashDecls {
    fn is_hash(&self, model: &Model, file_idx: usize, name: &str, dotted: bool) -> bool {
        if self.per_file[file_idx].contains(name) {
            return true;
        }
        if !dotted || self.per_file_nonhash[file_idx].contains(name) {
            return false;
        }
        let krate = &model.files[file_idx].crate_name;
        let Some(visible) = model.visible.get(krate) else {
            return false;
        };
        visible
            .iter()
            .any(|c| self.per_crate.get(c).is_some_and(|s| s.contains(name)))
    }
}

fn collect_hash_idents(model: &Model) -> HashDecls {
    let mut per_file: Vec<BTreeSet<String>> = Vec::with_capacity(model.files.len());
    let mut per_file_nonhash: Vec<BTreeSet<String>> = Vec::with_capacity(model.files.len());
    let mut per_crate: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in &model.files {
        let mut names = BTreeSet::new();
        let mut nonhash = BTreeSet::new();
        if !file.path.starts_with("vendor/") {
            let toks: Vec<&Tok> = code(&file.toks, 0..file.toks.len())
                .into_iter()
                .map(|i| &file.toks[i])
                .collect();
            for i in 0..toks.len() {
                // `name : Type` or `name = Ctor::…` — classify by the head
                // of the type/constructor path.
                if toks[i].kind != TokKind::Ident
                    || i + 1 >= toks.len()
                    || !(toks[i + 1].is_punct(':') || toks[i + 1].is_punct('='))
                {
                    continue;
                }
                let is_init = toks[i + 1].is_punct('=');
                let mut j = i + 2;
                while j < toks.len()
                    && (toks[j].is_punct('&')
                        || toks[j].is_ident("mut")
                        || toks[j].kind == TokKind::Lifetime)
                {
                    j += 1;
                }
                if j >= toks.len() {
                    continue;
                }
                // Collect the path segments: `std::collections::HashMap`
                // or `HashMap::with_capacity`.
                let mut segs = vec![j];
                while let Some(&last) = segs.last() {
                    if last + 2 < toks.len()
                        && toks[last].kind == TokKind::Ident
                        && toks[last + 1].kind == TokKind::PathSep
                        && toks[last + 2].kind == TokKind::Ident
                    {
                        segs.push(last + 2);
                    } else {
                        break;
                    }
                }
                let is_map = segs
                    .iter()
                    .any(|&s| toks[s].is_ident("HashMap") || toks[s].is_ident("HashSet"));
                if is_map {
                    names.insert(toks[i].text.clone());
                } else if !is_init && (toks[j].kind == TokKind::Ident || toks[j].is_punct('[')) {
                    // Any other type annotation pins the name as non-hash.
                    nonhash.insert(toks[i].text.clone());
                } else if is_init
                    && segs.len() >= 2
                    && toks[j].kind == TokKind::Ident
                    && toks[j].text.chars().next().is_some_and(char::is_uppercase)
                {
                    // `= Vec::new()`-style constructor paths; a bare
                    // `= compute()` initializer says nothing about the type.
                    nonhash.insert(toks[i].text.clone());
                }
            }
        }
        nonhash = &nonhash - &names;
        per_crate
            .entry(file.crate_name.clone())
            .or_default()
            .extend(names.iter().cloned());
        per_file.push(names);
        per_file_nonhash.push(nonhash);
    }
    HashDecls {
        per_file,
        per_file_nonhash,
        per_crate,
    }
}

/// `toks[code[ci]]` when `ci` is in range.
fn tok_at<'a>(toks: &'a [Tok], code: &[usize], ci: usize) -> Option<&'a Tok> {
    code.get(ci).map(|&i| &toks[i])
}

fn next_is(toks: &[Tok], code: &[usize], ci: usize, pred: impl Fn(&Tok) -> bool) -> bool {
    tok_at(toks, code, ci).is_some_and(pred)
}

fn prev_is(toks: &[Tok], code: &[usize], ci: usize, pred: impl Fn(&Tok) -> bool) -> bool {
    ci >= 1 && tok_at(toks, code, ci - 1).is_some_and(pred)
}

fn prev2_is(toks: &[Tok], code: &[usize], ci: usize, pred: impl Fn(&Tok) -> bool) -> bool {
    ci >= 2 && tok_at(toks, code, ci - 2).is_some_and(pred)
}

/// Was the nearest preceding statement-opening token a `for` introducing
/// this `in`? (`in` appears only in for-loop heads.)
fn prev_for(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    let mut k = ci;
    while k > 0 && ci - k < 32 {
        k -= 1;
        let Some(t) = tok_at(toks, code, k) else {
            return false;
        };
        if t.is_ident("for") {
            return true;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
    }
    false
}

/// Scans one fn body for rule seeds.
fn seed_fn(fn_idx: usize, model: &Model, hash_decls: &HashDecls, out: &mut Vec<Seed>) {
    let file_idx = model.fns[fn_idx].file;
    let file: &FileModel = &model.files[file_idx];
    let toks = &file.toks;
    let code = code(toks, model.fns[fn_idx].body.clone());
    let push = |out: &mut Vec<Seed>, rule: &'static str, ci: usize, message: String| {
        out.push(Seed {
            rule,
            file: file_idx,
            line: toks[code[ci]].line,
            func: Some(fn_idx),
            message,
        });
    };

    for ci in 0..code.len() {
        let t = &toks[code[ci]];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // D1 — wall clocks.
            "Instant" | "SystemTime" | "UNIX_EPOCH"
                if t.text == "UNIX_EPOCH"
                    || (next_is(toks, &code, ci + 1, |n| n.kind == TokKind::PathSep)
                        && next_is(toks, &code, ci + 2, |n| n.is_ident("now"))) =>
            {
                push(
                    out,
                    "D1_WALL_CLOCK",
                    ci,
                    format!("wall-clock read `{}`", t.text),
                );
            }
            "elapsed"
                if prev_is(toks, &code, ci, |p| p.is_punct('.'))
                    && next_is(toks, &code, ci + 1, |n| n.is_punct('(')) =>
            {
                push(
                    out,
                    "D1_WALL_CLOCK",
                    ci,
                    "wall-clock read `.elapsed()`".into(),
                );
            }
            // D2 — parallelism probes.
            "available_parallelism" | "num_cpus" => {
                push(
                    out,
                    "D2_PARALLELISM",
                    ci,
                    format!("parallelism probe `{}`", t.text),
                );
            }
            // D3 — unseeded randomness.
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" | "getrandom" => {
                push(
                    out,
                    "D3_UNSEEDED_RNG",
                    ci,
                    format!("entropy source `{}`", t.text),
                );
            }
            "random"
                if prev_is(toks, &code, ci, |p| p.kind == TokKind::PathSep)
                    && prev2_is(toks, &code, ci, |p| p.is_ident("rand")) =>
            {
                push(
                    out,
                    "D3_UNSEEDED_RNG",
                    ci,
                    "entropy source `rand::random`".into(),
                );
            }
            // D5 — environment reads.
            "var" | "vars" | "var_os" | "vars_os" | "args" | "args_os" | "current_dir"
            | "temp_dir"
                if prev_is(toks, &code, ci, |p| p.kind == TokKind::PathSep)
                    && prev2_is(toks, &code, ci, |p| p.is_ident("env")) =>
            {
                push(
                    out,
                    "D5_ENV_READ",
                    ci,
                    format!("environment read `env::{}`", t.text),
                );
            }
            // D6 — address/identity hashing.
            "RandomState" | "DefaultHasher" => {
                push(
                    out,
                    "D6_ADDR_HASH",
                    ci,
                    format!("randomized hasher `{}`", t.text),
                );
            }
            "addr_of" | "addr_of_mut" => {
                push(
                    out,
                    "D6_ADDR_HASH",
                    ci,
                    format!("address capture `{}`", t.text),
                );
            }
            "as" if next_is(toks, &code, ci + 1, |n| n.is_punct('*'))
                && next_is(toks, &code, ci + 2, |n| {
                    n.is_ident("const") || n.is_ident("mut")
                }) =>
            {
                push(out, "D6_ADDR_HASH", ci, "pointer cast `as *`".into());
            }
            // D4 — unordered-map iteration via method call.
            m if ITER_METHODS.contains(&m)
                && prev_is(toks, &code, ci, |p| p.is_punct('.'))
                && next_is(toks, &code, ci + 1, |n| n.is_punct('(')) =>
            {
                let recv_ok = ci >= 2
                    && tok_at(toks, &code, ci - 2).is_some_and(|recv| {
                        let dotted = ci >= 3 && toks[code[ci - 3]].is_punct('.');
                        recv.kind == TokKind::Ident
                            && hash_decls.is_hash(model, file_idx, &recv.text, dotted)
                    });
                if recv_ok && !d4_allowed(toks, &code, ci) {
                    let recv = &toks[code[ci - 2]].text;
                    push(
                        out,
                        "D4_MAP_ORDER",
                        ci,
                        format!("`{recv}.{}()` iteration", t.text),
                    );
                }
            }
            // D4 — `for x in [&[mut]] recv[.field]* {` direct iteration.
            "in" => {
                let mut k = ci + 1;
                while next_is(toks, &code, k, |n| n.is_punct('&') || n.is_ident("mut")) {
                    k += 1;
                }
                // Walk a dotted chain; the iterated value is its last
                // segment (`for x in self.pool.segments {`).
                let mut dotted = false;
                let mut recv = k;
                while next_is(toks, &code, recv, |n| n.kind == TokKind::Ident)
                    && next_is(toks, &code, recv + 1, |n| n.is_punct('.'))
                    && next_is(toks, &code, recv + 2, |n| n.kind == TokKind::Ident)
                {
                    dotted = true;
                    recv += 2;
                }
                let recv_ok = tok_at(toks, &code, recv).is_some_and(|n| {
                    n.kind == TokKind::Ident && hash_decls.is_hash(model, file_idx, &n.text, dotted)
                });
                if recv_ok
                    && next_is(toks, &code, recv + 1, |n| n.is_punct('{'))
                    && prev_for(toks, &code, ci)
                {
                    let name = toks[code[recv]].text.clone();
                    push(
                        out,
                        "D4_MAP_ORDER",
                        recv,
                        format!("`for … in {name}` iteration"),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Decides whether a hash-iteration site is provably order-insensitive:
///
/// * wrapped in a `sorted(…)` helper earlier in the statement;
/// * reduced by an order-insensitive consumer (`count`, `sum`, `min`,
///   `any`, …) later in the statement;
/// * collected into a keyed or unordered container (`collect::<BTreeMap…>`
///   or a `let x: BTreeSet<…>/HashMap<…> = … .collect()` binding);
/// * collected or `extend`ed into a binding that is subsequently sorted
///   in the same function (`let mut v … = ….collect(); … v.sort…()`).
fn d4_allowed(toks: &[Tok], code: &[usize], site_ci: usize) -> bool {
    // Backward to the statement start: a `;`, `{` or `}` at depth 0.
    let mut start = site_ci;
    let mut depth = 0i32;
    while start > 0 {
        let t = &toks[code[start - 1]];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            break;
        }
        start -= 1;
    }
    // Forward to the statement end: `;` or `{` at depth 0, or an
    // unbalanced close.
    let mut end = site_ci;
    let mut depth = 0i32;
    while end + 1 < code.len() {
        let t = &toks[code[end + 1]];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
            break;
        }
        end += 1;
    }

    let tok_at = |ci: usize| &toks[code[ci]];
    // sorted(...) wrapper before the site.
    for ci in start..site_ci {
        if tok_at(ci).is_ident("sorted") && ci < site_ci && tok_at(ci + 1).is_punct('(') {
            return true;
        }
    }
    // Order-insensitive consumer after the site: `.name(` with name in
    // SINK_METHODS, or a collect into an ordered/keyed container.
    let mut collect_seen = false;
    for ci in site_ci + 1..=end {
        let t = tok_at(ci);
        if t.kind != TokKind::Ident || ci == 0 || !tok_at(ci - 1).is_punct('.') {
            continue;
        }
        if SINK_METHODS.contains(&t.text.as_str()) {
            return true;
        }
        if t.text == "collect" {
            collect_seen = true;
            // Turbofish: collect::<BTreeMap<…>> / ::<HashSet<…>>.
            let mut k = ci + 1;
            if k <= end && tok_at(k).kind == TokKind::PathSep {
                k += 1;
                if k <= end && tok_at(k).is_punct('<') {
                    for m in k..=end {
                        let x = tok_at(m);
                        if x.is_ident("BTreeMap")
                            || x.is_ident("BTreeSet")
                            || x.is_ident("HashMap")
                            || x.is_ident("HashSet")
                        {
                            return true;
                        }
                        if x.is_punct('(') {
                            break;
                        }
                    }
                }
            }
        }
    }
    // Binding analysis: `let [mut] NAME [: TYPE] = …` — an unordered/keyed
    // collect target type, or a later `NAME.sort…()` in the fn body.
    let mut bind: Option<String> = None;
    if tok_at(start).is_ident("let") {
        let mut k = start + 1;
        if k <= end && tok_at(k).is_ident("mut") {
            k += 1;
        }
        if k <= end && tok_at(k).kind == TokKind::Ident {
            bind = Some(tok_at(k).text.clone());
            // Type annotation between `:` and `=`.
            let mut m = k + 1;
            if m <= end && tok_at(m).is_punct(':') {
                while m <= end && !tok_at(m).is_punct('=') {
                    let x = tok_at(m);
                    if x.is_ident("BTreeMap")
                        || x.is_ident("BTreeSet")
                        || x.is_ident("HashMap")
                        || x.is_ident("HashSet")
                    {
                        return true;
                    }
                    m += 1;
                }
            }
        }
    } else if start >= 4
        && tok_at(start - 1).is_punct('(')
        && tok_at(start - 2).is_ident("extend")
        && tok_at(start - 3).is_punct('.')
        && tok_at(start - 4).kind == TokKind::Ident
    {
        // `NAME.extend(map.keys()…)` — the backward scan stopped at the
        // call's opening paren, so the receiver sits just before it.
        // Order vanishes if NAME is later sorted.
        bind = Some(tok_at(start - 4).text.clone());
    }
    if let Some(name) = bind {
        if collect_seen || tok_at(start).kind == TokKind::Ident {
            for ci in end..code.len().saturating_sub(2) {
                if tok_at(ci).is_ident(&name)
                    && tok_at(ci + 1).is_punct('.')
                    && SORT_METHODS.contains(&tok_at(ci + 2).text.as_str())
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Outcome};
    use crate::extract::{build_model, lex_file};

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
    fn wall_clock_reaching_root_is_flagged_with_chain() {
        let o = outcome(
            "fn root() -> u64 { helper() }\n\
             fn helper() -> u64 { let t = Instant::now(); 0 }\n",
            &["root"],
        );
        assert_eq!(o.findings.len(), 1);
        assert_eq!(o.findings[0].rule, "D1_WALL_CLOCK");
        assert_eq!(o.findings[0].trace, vec!["root", "helper"]);
    }

    #[test]
    fn annotation_quarantines_and_ledger_records_reason() {
        let o = outcome(
            "fn root() -> u64 { helper() }\n\
             fn helper() -> u64 {\n\
                 // cm-lint: allow(D1_WALL_CLOCK, wall clock rides the nondet JSONL section)\n\
                 let t = Instant::now();\n\
                 0\n}\n",
            &["root"],
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings[0].message);
        assert_eq!(o.quarantined.len(), 1);
        assert!(o.quarantined[0].reason.contains("JSONL"));
    }

    #[test]
    fn unreachable_seed_is_dormant() {
        let o = outcome(
            "fn root() -> u64 { 0 }\n\
             fn lonely() { let t = Instant::now(); }\n",
            &["root"],
        );
        assert!(o.findings.is_empty());
        assert_eq!(o.dormant, 1);
    }

    #[test]
    fn stale_annotation_and_missing_reason_are_findings() {
        let o = outcome(
            "fn root() {\n\
                 // cm-lint: allow(D1_WALL_CLOCK, unused excuse)\n\
                 let x = 1;\n\
             }\n\
             fn other() {\n\
                 // cm-lint: allow(D1_WALL_CLOCK)\n\
                 let t = Instant::now();\n\
             }\n",
            &["root"],
        );
        let rules: Vec<&str> = o.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"A1_STALE_ANNOTATION"));
        assert!(rules.contains(&"A2_MISSING_REASON"));
    }

    #[test]
    fn hash_iteration_sinks_are_allowed() {
        let src = "\
            struct S { m: HashMap<u32, u32> }\n\
            fn root(s: &S) -> usize {\n\
                let total: usize = s.m.values().map(|v| *v as usize).sum();\n\
                let keyed: BTreeMap<u32, u32> = s.m.iter().map(|(k, v)| (*k, *v)).collect();\n\
                let mut v: Vec<u32> = s.m.keys().copied().collect();\n\
                v.sort_unstable();\n\
                let mut w: Vec<u32> = Vec::new();\n\
                w.extend(s.m.keys().copied());\n\
                w.sort_unstable();\n\
                s.m.keys().count()\n\
            }\n";
        let o = outcome(src, &["root"]);
        assert!(o.findings.is_empty(), "{:?}", o.findings[0]);
    }

    #[test]
    fn hash_iteration_escaping_is_flagged() {
        let src = "\
            struct S { m: HashMap<u32, u32> }\n\
            fn root(s: &S) -> Vec<u32> {\n\
                s.m.keys().copied().collect()\n\
            }\n";
        let o = outcome(src, &["root"]);
        assert_eq!(o.findings.len(), 1);
        assert_eq!(o.findings[0].rule, "D4_MAP_ORDER");
    }

    #[test]
    fn missing_root_is_reported() {
        let o = outcome("fn a() {}\n", &["Nope::nope"]);
        assert_eq!(o.findings[0].rule, "R1_MISSING_ROOT");
    }
}
