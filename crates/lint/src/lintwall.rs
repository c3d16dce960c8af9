//! The lintwall rules L1–L3: source hygiene with no root set, so every
//! non-test line of every workspace file is in scope.
//!
//! * **L1** — `.unwrap()` / `.expect(` in non-test code, one seed per
//!   line. String literals and comments cannot trigger it, and test
//!   scoping uses the real `cfg(test)` item mask.
//! * **L2** — `for … in ….keys()/.values() {` in report/output paths
//!   (`report.rs`, `src/bin/`), where HashMap order would leak straight
//!   into rendered bytes.
//! * **L3** — every crate root (`src/lib.rs`) carries the token sequence
//!   `#![deny(missing_docs)]`; a doc string merely *mentioning* the
//!   attribute does not satisfy the rule.
//!
//! A reviewed survivor carries a `// cm-lint: allow(<RULE>, <reason>)`
//! annotation like any other seed ([`crate::engine`]).

use crate::engine::{Pass, Seed};
use crate::extract::{FileModel, Model};
use crate::lexer::{code, Tok, TokKind};

/// The rootless hygiene pass.
pub const PASS: Pass = Pass {
    name: "lintwall",
    rules: &["L1_UNWRAP", "L2_MAP_ITER", "L3_MISSING_DOCS"],
    roots: None,
    seed,
    advice: "",
};

fn seed(model: &Model, _: &[bool]) -> Vec<Seed> {
    let mut out = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        let mut push = |rule: &'static str, line: u32, message: String| {
            out.push(Seed {
                rule,
                file: fi,
                line,
                func: None,
                message,
            })
        };
        let toks = &file.toks;
        let code = code(toks, 0..toks.len());
        let in_scope = file.path.ends_with("report.rs") || file.path.contains("/src/bin/");
        let mut last_l1 = 0;
        for (ci, &i) in code.iter().enumerate() {
            let t = &toks[i];
            let method_call = ci >= 1
                && toks[code[ci - 1]].is_punct('.')
                && code.get(ci + 1).is_some_and(|&n| toks[n].is_punct('('));
            if file.test_mask[i] || !method_call {
                continue;
            }
            if (t.is_ident("unwrap") || t.is_ident("expect")) && t.line != last_l1 {
                last_l1 = t.line;
                push(
                    "L1_UNWRAP",
                    t.line,
                    format!(
                        "`.{}()` outside test code: {}",
                        t.text,
                        trimmed(file, t.line)
                    ),
                );
            }
            if in_scope
                && (t.is_ident("keys") || t.is_ident("values"))
                && in_for_head(toks, &code, ci)
            {
                push(
                    "L2_MAP_ITER",
                    t.line,
                    format!(
                        "map-order iteration in an output path: {}",
                        trimmed(file, t.line)
                    ),
                );
            }
        }
        let want = ["#", "!", "[", "deny", "(", "missing_docs", ")", "]"];
        let docs_gate = |w: &[usize]| {
            w.iter().zip(want).all(|(&i, s)| {
                matches!(toks[i].kind, TokKind::Ident | TokKind::Punct) && toks[i].text == s
            })
        };
        if file.path.ends_with("src/lib.rs") && !code.windows(want.len()).any(docs_gate) {
            push(
                "L3_MISSING_DOCS",
                1,
                "crate root lacks #![deny(missing_docs)]".into(),
            );
        }
    }
    out
}

/// Scans back (bounded, without crossing a statement boundary) for the
/// `for` whose head holds code index `ci`.
fn in_for_head(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    for &k in code[ci.saturating_sub(32)..ci].iter().rev() {
        let p = &toks[k];
        if p.is_ident("for") {
            return true;
        }
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            return false;
        }
    }
    false
}

fn trimmed(file: &FileModel, line: u32) -> &str {
    file.lines.get(line as usize - 1).map_or("", |l| l.trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Outcome};
    use crate::extract::{build_model, lex_file};
    use std::collections::BTreeMap;

    fn one(path: &str, src: &str) -> Outcome {
        run(
            &build_model(vec![lex_file(path, "demo", src)], &BTreeMap::new()),
            &[PASS],
        )
    }

    fn count(o: &Outcome, rule: &str) -> usize {
        o.findings.iter().filter(|f| f.rule == rule).count()
    }

    #[test]
    fn l1_fires_on_code_but_not_strings_comments_or_tests() {
        let src = "\
            fn a() { x.unwrap(); }\n\
            fn b() { let s = \".unwrap()\"; } // .unwrap() in comment\n\
            #[cfg(test)]\n\
            mod tests { fn t() { y.unwrap(); } }\n";
        let o = one("crates/x/src/a.rs", src);
        assert_eq!(count(&o, "L1_UNWRAP"), 1);
        assert_eq!(o.findings[0].line, 1);
    }

    #[test]
    fn l1_inline_allow_lands_in_the_ledger() {
        let src = "fn a() { x.unwrap(); } // cm-lint: allow(L1_UNWRAP, guarded above)\n\
                   // cm-lint: allow(L1_UNWRAP, CLI argument parsing)\n\
                   fn b() { y.expect(\"m\"); }\n";
        let o = one("crates/x/src/a.rs", src);
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        let ledger: Vec<_> = o
            .quarantined
            .iter()
            .map(|q| (q.line, q.reason.as_str()))
            .collect();
        assert_eq!(ledger, [(1, "guarded above"), (3, "CLI argument parsing")]);
    }

    #[test]
    fn l2_flags_for_loops_only_in_scope() {
        let src = "fn a(m: &M) { for k in m.keys() { use_it(k); } }\n";
        assert_eq!(count(&one("crates/x/src/report.rs", src), "L2_MAP_ITER"), 1);
        assert_eq!(count(&one("crates/x/src/other.rs", src), "L2_MAP_ITER"), 0);
        // Not a for-loop: a collected-then-sorted chain.
        let src2 = "fn a(m: &M) { let mut v: Vec<_> = m.keys().collect(); v.sort(); }\n";
        assert_eq!(
            count(&one("crates/x/src/report.rs", src2), "L2_MAP_ITER"),
            0
        );
    }

    #[test]
    fn l3_requires_real_tokens_not_doc_mentions() {
        let src = "//! mentions #![deny(missing_docs)] in prose only\nfn a() {}\n";
        assert_eq!(
            count(&one("crates/x/src/lib.rs", src), "L3_MISSING_DOCS"),
            1
        );
        let src = "#![deny(missing_docs)]\n//! docs\n";
        assert_eq!(
            count(&one("crates/x/src/lib.rs", src), "L3_MISSING_DOCS"),
            0
        );
    }

    #[test]
    fn allow_over_test_code_only_is_stale() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   // cm-lint: allow(L1_UNWRAP, test code is out of scope)\n        \
                   t.unwrap();\n    }\n}\n";
        assert_eq!(
            count(&one("crates/x/src/a.rs", src), "A1_STALE_ANNOTATION"),
            1
        );
    }
}
