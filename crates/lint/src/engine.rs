//! The one lint engine every pass runs on.
//!
//! A pass is data ([`Pass`]): its rules, a seed scanner and a root set
//! with the call-graph relation its reachability walks (or no roots at
//! all). The engine does the rest the same way for every pass:
//!
//! 1. **roots** — each spec resolves to fns (one that matches nothing is
//!    `R1_MISSING_ROOT`, so a renamed surface fails the gate loudly), and
//!    a breadth-first walk of the pass's relation marks the reachable cone,
//!    keeping one parent per fn for witness traces;
//! 2. **annotations** — a seed is suppressed by a comment opening with
//!    `cm-lint: allow(<RULE>[, <RULE>…], <reason>)` on its own line or the
//!    line above, when the comment names the seed's rule; every suppressed
//!    seed lands in the ledger with the reason;
//! 3. **findings** — every other seed in the cone is a finding with its
//!    witness chain; seeds outside it are counted *dormant*. A rootless
//!    pass has every non-test line in scope;
//! 4. **hygiene** — a named rule that suppressed nothing (a misspelled id
//!    included) is `A1_STALE_ANNOTATION`, and an annotation without a
//!    reason is `A2_MISSING_REASON`, so waivers cannot rot.

use crate::extract::{Model, Relation};
use crate::lexer::TokKind;
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The annotation marker; it must open the comment body, so prose that
/// quotes the grammar mid-sentence does not register.
pub const ANNOTATION: &str = "cm-lint: allow";

/// The rules the engine itself enforces, whichever passes run.
pub const HYGIENE_RULES: &[&str] = &[
    "A1_STALE_ANNOTATION",
    "A2_MISSING_REASON",
    "R1_MISSING_ROOT",
];

/// One lint pass, as data.
#[derive(Clone, Copy)]
pub struct Pass {
    /// Names the pass in root findings and the report header.
    pub name: &'static str,
    /// Every rule id [`Pass::seed`] can emit.
    pub rules: &'static [&'static str],
    /// Root specs (`name` or `Owner::name`; a bare name matches any
    /// owner) a seed must be reachable from, with the call-graph relation
    /// the reachability walk follows; `None` puts every site in scope.
    pub roots: Option<(&'static [&'static str], Relation)>,
    /// The seed scanner; `reached[f]` says fn `f` is in the roots' cone.
    pub seed: fn(&Model, &[bool]) -> Vec<Seed>,
    /// What to do about a finding, appended to its message.
    pub advice: &'static str,
}

/// One site a rule fired on.
pub struct Seed {
    /// The rule id.
    pub rule: &'static str,
    /// File index into [`Model::files`].
    pub file: usize,
    /// 1-based line of the site.
    pub line: u32,
    /// The enclosing fn; every seed of a rooted pass has one.
    pub func: Option<usize>,
    /// What matched.
    pub message: String,
}

/// A seed an annotation suppressed: one ledger entry.
pub struct Quarantined {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line of the suppressed site.
    pub line: u32,
    /// The rule that would have fired.
    pub rule: &'static str,
    /// The annotation's reason text.
    pub reason: String,
}

/// Everything a run produced.
pub struct Outcome {
    /// Rule violations, deterministically ordered.
    pub findings: Vec<Finding>,
    /// The ledger of annotated sites, deterministically ordered.
    pub quarantined: Vec<Quarantined>,
    /// Seeds no root of their pass reaches (informational).
    pub dormant: usize,
}

/// One parsed annotation: the rules it names, each with whether it
/// suppressed anything yet, and the reason.
struct Annotation {
    rules: Vec<(String, bool)>,
    reason: String,
}

/// Runs `passes` over the model.
pub fn run(model: &Model, passes: &[Pass]) -> Outcome {
    let mut annotations = annotations(model);
    let mut out = Outcome {
        findings: Vec::new(),
        quarantined: Vec::new(),
        dormant: 0,
    };
    let mut missing: BTreeSet<(&str, &str)> = BTreeSet::new();
    for pass in passes {
        let n = model.fns.len();
        let (reached, parent) = match pass.roots {
            Some((specs, relation)) => {
                let mut ids = Vec::new();
                for &spec in specs {
                    let found = model.resolve_root(spec);
                    if found.is_empty() {
                        missing.insert((pass.name, spec));
                    }
                    ids.extend(found);
                }
                ids.sort_unstable();
                ids.dedup();
                reach(model.edges(relation), &ids)
            }
            None => (vec![true; n], vec![None; n]),
        };
        for seed in (pass.seed)(model, &reached) {
            let path = model.files[seed.file].path.clone();
            if let Some(reason) = suppress(&mut annotations, &seed) {
                out.quarantined.push(Quarantined {
                    path,
                    line: seed.line,
                    rule: seed.rule,
                    reason,
                });
            } else if seed.func.is_some_and(|f| !reached[f]) {
                out.dormant += 1;
            } else {
                out.findings.push(Finding {
                    rule: seed.rule.into(),
                    path,
                    line: seed.line,
                    symbol: seed
                        .func
                        .map(|f| model.fns[f].qualified())
                        .unwrap_or_default(),
                    message: format!(
                        "{}{} — or annotate with `// {ANNOTATION}({}, <reason>)`",
                        seed.message, pass.advice, seed.rule
                    ),
                    trace: seed
                        .func
                        .map(|f| witness(model, &parent, f))
                        .unwrap_or_default(),
                });
            }
        }
    }

    for ((file, line), a) in &annotations {
        let mut flag = |rule: &str, message: String| {
            out.findings.push(Finding {
                rule: rule.into(),
                path: model.files[*file].path.clone(),
                line: *line,
                symbol: String::new(),
                message,
                trace: Vec::new(),
            })
        };
        if a.reason.is_empty() {
            flag(
                "A2_MISSING_REASON",
                format!("`{ANNOTATION}(…)` must end with a reason after its rule ids"),
            );
        }
        if a.rules.is_empty() {
            flag(
                "A1_STALE_ANNOTATION",
                format!("`{ANNOTATION}(…)` names no rule"),
            );
        }
        for (rule, _) in a.rules.iter().filter(|(_, used)| !used) {
            flag(
                "A1_STALE_ANNOTATION",
                format!("`allow({rule})` suppresses nothing on this or the next line"),
            );
        }
    }
    for (pass, spec) in missing {
        out.findings.push(Finding {
            rule: "R1_MISSING_ROOT".into(),
            path: String::new(),
            line: 0,
            symbol: spec.to_string(),
            message: format!("{pass} root `{spec}` matches no workspace fn — update the root list"),
            trace: Vec::new(),
        });
    }

    out.findings.sort_by(|a, b| {
        (&a.rule, &a.path, a.line, &a.message).cmp(&(&b.rule, &b.path, b.line, &b.message))
    });
    out.quarantined
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Every annotation in the workspace, keyed by (file, line).
fn annotations(model: &Model) -> BTreeMap<(usize, u32), Annotation> {
    let mut out = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        for t in file.toks.iter().filter(|t| t.kind == TokKind::Comment) {
            if let Some(a) = parse_annotation(&t.text) {
                out.insert((fi, t.line), a);
            }
        }
    }
    out
}

/// Parses `cm-lint: allow(RULE, …, reason)`: the leading comma-separated
/// fields shaped like rule ids are the rules, the rest is the reason.
fn parse_annotation(comment: &str) -> Option<Annotation> {
    let body = comment
        .trim_start_matches(['/', '*', ' ', '\t'])
        .strip_prefix(ANNOTATION)?;
    // The reason may itself contain parens; take to the last close.
    let mut rest = match (body.find('('), body.rfind(')')) {
        (Some(open), Some(close)) if open < close => &body[open + 1..close],
        _ => "",
    };
    let mut rules = Vec::new();
    loop {
        let (head, tail) = rest.split_once(',').unwrap_or((rest, ""));
        if !is_rule_id(head.trim()) {
            break;
        }
        rules.push((head.trim().to_string(), false));
        rest = tail;
    }
    Some(Annotation {
        rules,
        reason: rest.trim().to_string(),
    })
}

/// `X9_NAME`: an uppercase letter, digits, `_`, then uppercase, digits
/// and underscores.
fn is_rule_id(s: &str) -> bool {
    let Some((head, name)) = s.split_once('_') else {
        return false;
    };
    head.len() > 1
        && head.starts_with(|c: char| c.is_ascii_uppercase())
        && head[1..].bytes().all(|b| b.is_ascii_digit())
        && !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// The reason of the annotation on the seed's line or the line above
/// that names its rule, marking that rule used.
fn suppress(annotations: &mut BTreeMap<(usize, u32), Annotation>, seed: &Seed) -> Option<String> {
    for line in [seed.line, seed.line.saturating_sub(1)] {
        let Some(a) = annotations.get_mut(&(seed.file, line)) else {
            continue;
        };
        if let Some((_, used)) = a.rules.iter_mut().find(|(r, _)| r == seed.rule) {
            *used = true;
            return Some(a.reason.clone());
        }
    }
    None
}

/// BFS over `edges` from `roots`, remembering one (shortest) parent per
/// fn so findings can print a witness call chain.
fn reach(edges: &[Vec<usize>], roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
    let mut reached = vec![false; edges.len()];
    let mut parent = vec![None; edges.len()];
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    for &r in roots {
        reached[r] = true;
    }
    while let Some(i) = queue.pop_front() {
        for &j in &edges[i] {
            if !reached[j] {
                reached[j] = true;
                parent[j] = Some(i);
                queue.push_back(j);
            }
        }
    }
    (reached, parent)
}

/// The call chain from a root down to fn `f`.
fn witness(model: &Model, parent: &[Option<usize>], f: usize) -> Vec<String> {
    let mut chain = vec![model.fns[f].qualified()];
    let mut cur = f;
    while let Some(p) = parent[cur] {
        chain.push(model.fns[p].qualified());
        cur = p;
    }
    chain.reverse();
    chain
}
