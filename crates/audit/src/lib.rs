//! # cm-audit — independent invariant checker for the cloudmap pipeline
//!
//! `cloudmap`'s pipeline produces an [`Atlas`] of intermediate products:
//! the §4.1 segment pool, §5 verification outcomes, §6 pins, §7 groups and
//! the connectivity graph. Each stage trusts the previous one. This crate
//! trusts none of them: it re-derives the border rules from a deterministic
//! replay of the probing campaign ([`rederive`]) and cross-checks every
//! layer of the atlas against the replay and against the paper's own
//! invariants ([`checks`]).
//!
//! ```no_run
//! use cloudmap::pipeline::{Pipeline, PipelineConfig};
//! use cm_topology::{Internet, TopologyConfig};
//!
//! let inet = Internet::generate(TopologyConfig::tiny(), 42);
//! let atlas = Pipeline::new(&inet, PipelineConfig::default())
//!     .run()
//!     .expect("pipeline run");
//! let report = cm_audit::audit(&atlas);
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! Source-level hygiene (no `unwrap` in library code, no map-order
//! iteration in report paths) is `cm-lint`'s L-rules; see `DESIGN.md`.

#![deny(missing_docs)]

use cloudmap::Atlas;
use cm_net::stablehash;
use std::fmt;

pub mod checks;
pub mod rederive;

pub use rederive::{rederive, RefDerivation};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong.
    Warning,
    /// An invariant of the paper or of the pipeline is violated.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifiers for the audit rules (documented in `DESIGN.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// B1 — accepted + discarded + no-border equals launched traceroutes.
    TraceConservation,
    /// B2 — every segment is observed or produced by a §5.2 shift.
    SegmentUnexplained,
    /// B3 — filter counters match the independent replay exactly.
    DiscardMismatch,
    /// T1 — Table 1 interface counts match the replay.
    Table1Mismatch,
    /// A1 — CBIs annotate external, ABIs cloud-internal (mod §5.2).
    Disposition,
    /// A2 — stored annotations equal fresh re-annotation.
    NoteStale,
    /// V1 — every ABI has a §5.1 disposition or a §5.2 witness.
    Witness,
    /// V2 — §5.2 override bookkeeping is consistent.
    ChangeStats,
    /// P1 — anchored pins respect speed-of-light feasibility.
    SpeedOfLight,
    /// P2 — pins cover known interfaces, valid metros/regions, no overlap.
    PinDomain,
    /// G1 — peering groups attribute CBIs consistently.
    Grouping,
    /// I1 — the ICG equals a rebuild from its inputs.
    IcgMismatch,
    /// C1 — the coverage report is arithmetically consistent.
    Coverage,
    /// F1 — fault counters conserve: disabled axes stay zero, per-stage
    /// deltas are bounded by the stage's probes and sum to the total.
    FaultConservation,
    /// F2 — the replay reproduces the recorded sweep + expansion fault
    /// impact exactly.
    FaultReplay,
    /// F3 — an incrementally spliced era atlas is equivalent to the
    /// from-scratch run at the same era (products, metrics, accounting),
    /// and its churn report matches an independent recomputation.
    DeltaEquivalence,
    /// O1 — the metrics registry's probe-outcome and fault counters
    /// conserve against the campaign stats and fault totals.
    MetricsConservation,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 17] = [
        Rule::TraceConservation,
        Rule::SegmentUnexplained,
        Rule::DiscardMismatch,
        Rule::Table1Mismatch,
        Rule::Disposition,
        Rule::NoteStale,
        Rule::Witness,
        Rule::ChangeStats,
        Rule::SpeedOfLight,
        Rule::PinDomain,
        Rule::Grouping,
        Rule::IcgMismatch,
        Rule::Coverage,
        Rule::FaultConservation,
        Rule::FaultReplay,
        Rule::DeltaEquivalence,
        Rule::MetricsConservation,
    ];

    /// The stable string id (what `DESIGN.md` documents).
    pub fn id(self) -> &'static str {
        match self {
            Rule::TraceConservation => "B1_TRACE_CONSERVATION",
            Rule::SegmentUnexplained => "B2_SEGMENT_UNEXPLAINED",
            Rule::DiscardMismatch => "B3_DISCARD_MISMATCH",
            Rule::Table1Mismatch => "T1_TABLE1_MISMATCH",
            Rule::Disposition => "A1_DISPOSITION",
            Rule::NoteStale => "A2_NOTE_STALE",
            Rule::Witness => "V1_WITNESS",
            Rule::ChangeStats => "V2_CHANGE_STATS",
            Rule::SpeedOfLight => "P1_SPEED_OF_LIGHT",
            Rule::PinDomain => "P2_PIN_DOMAIN",
            Rule::Grouping => "G1_GROUPING",
            Rule::IcgMismatch => "I1_ICG",
            Rule::Coverage => "C1_COVERAGE",
            Rule::FaultConservation => "F1_FAULT_CONSERVATION",
            Rule::FaultReplay => "F2_FAULT_REPLAY",
            Rule::DeltaEquivalence => "F3_DELTA_EQUIV",
            Rule::MetricsConservation => "O1_METRICS_CONSERVATION",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One audit finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// What the finding is about (an address, a segment, a field path).
    pub location: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(
        rule: Rule,
        severity: Severity,
        location: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            severity,
            location: location.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} @ {}: {}",
            self.severity,
            self.rule.id(),
            self.location,
            self.detail
        )
    }
}

/// The outcome of one audit: all findings, in a canonical order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Sorted findings (by rule, then location, then detail).
    pub findings: Vec<Finding>,
}

impl AuditReport {
    fn from_findings(mut findings: Vec<Finding>) -> Self {
        findings.sort_by(|a, b| {
            (a.rule, &a.location, &a.detail).cmp(&(b.rule, &b.location, &b.detail))
        });
        AuditReport { findings }
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one rule.
    pub fn of_rule(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Whether a given rule fired at least once.
    pub fn fired(&self, rule: Rule) -> bool {
        self.of_rule(rule).next().is_some()
    }

    /// Exports per-rule pass/fail tallies into a metrics registry:
    /// one `audit_findings_<rule id>` counter per rule plus
    /// `audit_rules_passed` / `audit_rules_failed` gauges. Callers
    /// typically pass the atlas's live `obs.registry`, which the frozen
    /// `Atlas::metrics` snapshot (and hence the golden digests) never
    /// sees.
    pub fn export_obs(&self, registry: &cm_obs::Registry) {
        let mut passed = 0i64;
        let mut failed = 0i64;
        for rule in Rule::ALL {
            let n = self.of_rule(rule).count() as u64;
            registry.inc(&format!("audit_findings_{}", rule.id()), n);
            if n == 0 {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        registry.set_gauge("audit_rules_passed", passed);
        registry.set_gauge("audit_rules_failed", failed);
    }

    /// A stable digest of the report: two audits of the same atlas must
    /// produce byte-identical findings, hence equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xA0D1_7001_u64;
        for f in &self.findings {
            let line = f.to_string();
            h = stablehash::mix(h, &[line.len() as u64]);
            for b in line.as_bytes() {
                h = stablehash::splitmix64(h ^ u64::from(*b));
            }
        }
        h
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "audit clean: no findings");
        }
        writeln!(f, "audit: {} finding(s)", self.findings.len())?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Audits an atlas against a pre-computed reference derivation.
///
/// Use this (with [`rederive`]) when auditing the same atlas repeatedly —
/// the replay is by far the most expensive part.
pub fn audit_with_reference(atlas: &Atlas<'_>, reference: &RefDerivation) -> AuditReport {
    let mut findings = Vec::new();
    checks::check_trace_conservation(atlas, reference, &mut findings);
    checks::check_segments(atlas, reference, &mut findings);
    checks::check_discards(atlas, reference, &mut findings);
    checks::check_table1(atlas, reference, &mut findings);
    checks::check_dispositions(atlas, reference, &mut findings);
    checks::check_note_staleness(atlas, &mut findings);
    checks::check_witnesses(atlas, reference, &mut findings);
    checks::check_change_stats(atlas, &mut findings);
    checks::check_speed_of_light(atlas, &mut findings);
    checks::check_pin_domain(atlas, &mut findings);
    checks::check_grouping(atlas, &mut findings);
    checks::check_icg(atlas, &mut findings);
    checks::check_coverage(atlas, &mut findings);
    checks::check_fault_conservation(atlas, &mut findings);
    checks::check_fault_replay(atlas, reference, &mut findings);
    checks::check_metrics_conservation(atlas, &mut findings);
    AuditReport::from_findings(findings)
}

/// Full audit: replays the probing campaign, re-derives the §4.1 products
/// and checks every layer of the atlas.
pub fn audit(atlas: &Atlas<'_>) -> AuditReport {
    let reference = rederive(atlas);
    audit_with_reference(atlas, &reference)
}

/// F3 audit: checks that an incrementally spliced era atlas (from
/// `cloudmap::delta::DeltaEngine`) is *equivalent* to the from-scratch
/// pipeline run at the same era — identical serving exports, metrics
/// exposition, §4.1 accounting and fault impact — and, when a churn
/// report is supplied with the previous era's view, that the report
/// matches an independent recomputation. A finding here means a stale
/// splice: the delta engine served a cached group it should have
/// re-probed, or forged its churn accounting.
pub fn audit_delta(
    delta: &Atlas<'_>,
    scratch: &Atlas<'_>,
    churn: Option<(&cloudmap::delta::ChurnView, &cloudmap::delta::ChurnReport)>,
) -> AuditReport {
    let mut findings = Vec::new();
    checks::check_delta_equivalence(delta, scratch, &mut findings);
    if let Some((prev_view, report)) = churn {
        checks::check_churn_report(delta, prev_view, report, &mut findings);
    }
    AuditReport::from_findings(findings)
}
