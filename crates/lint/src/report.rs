//! Deterministic finding reports, in text and JSON.
//!
//! The JSON is hand-rolled (the crate is dependency-free) and fully
//! deterministic: findings are emitted in their sorted order, keys in a
//! fixed order, strings escaped per RFC 8259. CI uploads the JSON as an
//! artifact, so byte-stable output makes diffs between runs meaningful.

use crate::engine::{Outcome, HYGIENE_RULES};

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// Rule id, e.g. `D1_WALL_CLOCK` or `L1_UNWRAP`.
    pub rule: String,
    /// Repo-relative path (empty for workspace-level findings like
    /// `R1_MISSING_ROOT`).
    pub path: String,
    /// 1-based line (0 when not line-anchored).
    pub line: u32,
    /// The offending symbol (`Owner::name`), when known.
    pub symbol: String,
    /// Human-readable description.
    pub message: String,
    /// Witness call chain from a root of the pass to the seed, when the
    /// pass has roots.
    pub trace: Vec<String>,
}

impl Finding {
    /// One-line text rendering: `RULE: path:line: message [via a -> b]`.
    pub fn render_text(&self) -> String {
        let mut s = format!("{}: ", self.rule);
        if !self.path.is_empty() {
            s.push_str(&self.path);
            if self.line > 0 {
                s.push_str(&format!(":{}", self.line));
            }
            s.push_str(": ");
        }
        s.push_str(&self.message);
        if !self.trace.is_empty() {
            s.push_str(&format!(" [via {}]", self.trace.join(" -> ")));
        }
        s
    }
}

/// Escapes `s` for a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    let trace = f
        .trace
        .iter()
        .map(|t| format!("\"{}\"", json_escape(t)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{indent}{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \
         \"message\": \"{}\", \"trace\": [{}]}}",
        json_escape(&f.rule),
        json_escape(&f.path),
        f.line,
        json_escape(&f.symbol),
        json_escape(&f.message),
        trace,
    )
}

/// Every rule id a run can emit, in a fixed order: each pass's rules,
/// then the engine's hygiene rules. The rule-set hash in the JSON header
/// digests this list, so CI artifacts from different commits are
/// comparable only when the rule set matched.
pub fn rule_set() -> impl Iterator<Item = &'static str> {
    crate::PASSES
        .iter()
        .flat_map(|p| p.rules.iter().copied())
        .chain(HYGIENE_RULES.iter().copied())
}

/// FNV-1a (64-bit) over the canonical rule-id list — a dependency-free
/// fingerprint of the rule set, stable across runs and platforms.
pub fn rule_set_hash() -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in rule_set() {
        for b in id.bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Renders the full report of a run of every pass ([`crate::PASSES`]) as
/// deterministic JSON: a header naming the tool version, rule-set hash and
/// the passes (so CI artifacts from different commits are comparable), the
/// findings, the quarantine ledger (every annotated exemption with its
/// reason), and summary counts.
pub fn render_json(o: &Outcome) -> String {
    let mut names: Vec<String> = crate::PASSES
        .iter()
        .map(|p| format!("\"{}\"", p.name))
        .collect();
    names.dedup();
    let mut out = format!(
        "{{\n  \"tool\": \"cm-lint\",\n  \"version\": \"{}\",\n  \"rule_set_hash\": \"{}\",\n  \
         \"passes\": [{}],\n  \"findings\": [\n",
        json_escape(env!("CARGO_PKG_VERSION")),
        rule_set_hash(),
        names.join(", "),
    );
    let (findings, quarantined) = (&o.findings, &o.quarantined);
    let body = findings
        .iter()
        .map(|f| finding_json(f, "    "))
        .collect::<Vec<_>>()
        .join(",\n");
    out.push_str(&body);
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"quarantined\": [\n");
    let body = quarantined
        .iter()
        .map(|q| {
            format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(&q.path),
                q.line,
                json_escape(q.rule),
                json_escape(&q.reason),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    out.push_str(&body);
    if !quarantined.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "  ],\n  \"counts\": {{\"findings\": {}, \"quarantined\": {}, \"dormant_seeds\": {}}}\n}}\n",
        findings.len(),
        quarantined.len(),
        o.dormant,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(findings: Vec<Finding>, dormant: usize) -> Outcome {
        Outcome {
            findings,
            quarantined: Vec::new(),
            dormant,
        }
    }

    #[test]
    fn text_rendering_includes_trace() {
        let f = Finding {
            rule: "D1_WALL_CLOCK".into(),
            path: "crates/core/src/pipeline.rs".into(),
            line: 42,
            symbol: "Pipeline::run".into(),
            message: "wall-clock read `Instant`".into(),
            trace: vec!["Pipeline::run".into(), "helper".into()],
        };
        let s = f.render_text();
        assert!(s.starts_with("D1_WALL_CLOCK: crates/core/src/pipeline.rs:42:"));
        assert!(s.ends_with("[via Pipeline::run -> helper]"));
    }

    #[test]
    fn json_is_escaped_and_parseable_shape() {
        let f = Finding {
            rule: "D5_ENV_READ".into(),
            path: "a\"b.rs".into(),
            line: 1,
            symbol: String::new(),
            message: "tab\there".into(),
            trace: Vec::new(),
        };
        let s = render_json(&outcome(vec![f], 3));
        assert!(s.contains("a\\\"b.rs"));
        assert!(s.contains("tab\\there"));
        assert!(s.contains("\"dormant_seeds\": 3"));
    }

    #[test]
    fn empty_report_is_valid() {
        let s = render_json(&outcome(Vec::new(), 0));
        assert!(s.contains("\"findings\": [\n  ]"));
        assert!(s.contains("\"findings\": 0"));
    }

    #[test]
    fn header_carries_version_pass_and_rule_set_hash() {
        let s = render_json(&outcome(Vec::new(), 0));
        assert!(s.contains("\"tool\": \"cm-lint\""));
        assert!(s.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(s.contains("\"passes\": [\"taint\", \"cost\", \"safety\", \"lintwall\"]"));
        assert!(s.contains(&format!("\"rule_set_hash\": \"{}\"", rule_set_hash())));
        // The hash is a stable 16-hex-digit fingerprint.
        assert_eq!(rule_set_hash().len(), 16);
        assert_eq!(rule_set_hash(), rule_set_hash());
    }
}
