#![deny(missing_docs)]

//! `cm-lint` — a dependency-free static analyzer for the workspace: one
//! engine, four families of rules, one annotation grammar and one ledger.
//!
//! The workspace's contracts are enforced *dynamically* elsewhere (golden
//! digests, the hostile-input suites, the perf gate); `cm-lint` rejects
//! code that breaks them statically, before it runs. Layers, all
//! dependency-free (no `syn`, nothing vendored):
//!
//! * [`lexer`] — a small Rust lexer that gets raw strings, nested block
//!   comments, lifetimes-vs-chars and raw identifiers right;
//! * [`extract`] — fn items, `cfg(test)` masks and an over-approximated
//!   name-based call graph (three relations), filtered by
//!   crate-dependency visibility;
//! * [`engine`] — the one core every pass runs on: root resolution,
//!   reachability with witness traces, `// cm-lint: allow(<RULE>,
//!   <reason>)` annotations, the ledger and annotation hygiene;
//! * the passes, each a [`engine::Pass`] value: [`taint`] (D1–D6,
//!   nondeterminism reaching the golden digest), [`cost`] (P1–P6,
//!   per-iteration cost on hot paths), [`safety`] (S1–S5, panics and
//!   untrusted-input taint on the serving surface) and [`lintwall`]
//!   (L1–L3, rootless source hygiene).
//!
//! The `cm-lint` binary runs every pass over the workspace and emits
//! deterministic text or JSON ([`report`]).

pub mod cost;
pub mod engine;
pub mod extract;
pub mod lexer;
pub mod lintwall;
pub mod report;
pub mod safety;
pub mod taint;
pub mod ws;

use engine::{Outcome, Pass};
use std::collections::BTreeMap;

/// Every pass, in report order; the `cm-lint` binary runs them all.
pub const PASSES: &[Pass] = &[
    taint::PASS,
    cost::PASS,
    safety::PANIC,
    safety::UNTRUSTED,
    lintwall::PASS,
];

/// One in-memory source file for [`analyze`] — lets fixture tests inject
/// forbidden constructs without touching the filesystem.
pub struct SourceFile {
    /// Repo-relative path.
    pub path: String,
    /// Package the file belongs to.
    pub crate_name: String,
    /// Source text.
    pub src: String,
}

/// Runs `passes` over in-memory sources: lexes, builds the model (with
/// `deps` as the crate dependency graph) and hands it to the engine.
/// Vendor files (`vendor/…` paths) contribute call-graph nodes but are
/// never seeded by the rooted passes — their sites are charged to the
/// workspace call site instead.
pub fn analyze(
    sources: &[SourceFile],
    deps: &BTreeMap<String, Vec<String>>,
    passes: &[Pass],
) -> Outcome {
    let files = sources
        .iter()
        .map(|s| extract::lex_file(&s.path, &s.crate_name, &s.src))
        .collect();
    engine::run(&extract::build_model(files, deps), passes)
}
