//! Seeded fault-injection profiles for the dataplane.
//!
//! The paper's §4.1 filters exist because real campaigns run against a
//! hostile measurement plane: ICMP rate limiting comes in bursts, routers
//! die silently, MPLS tunnels hide whole segments, VM clocks drift, and
//! routers answer from whichever interface suits them. A [`FaultPlan`]
//! composes those behaviours on top of the deterministic world:
//!
//! * **bursty correlated loss** — per-router rate-limit windows keyed on
//!   `(router, epoch, destination block)`: when a window is active, most
//!   probes through that router lose their TTL-exceeded response;
//! * **persistent blackholes** — a fixed fraction of routers drop probes
//!   outright (nothing from them, nothing downstream);
//! * **MPLS-style hidden segments** — a fixed fraction of transit routers
//!   are invisible: no hop is emitted and no TTL is consumed;
//! * **per-region clock skew** — a fixed per-region offset inflates every
//!   RTT measured from an affected region (a fast VM clock);
//! * **ICMP source-address rewriting** — affected routers answer with
//!   their canonical (lowest) address instead of the incoming interface,
//!   the hybrid-IP stress case for the §5 verifier;
//! * **mid-campaign route flaps** — a per-`(/24, epoch)` draw diverts the
//!   egress route lookup into an alternate routing universe.
//!
//! Every draw is a pure function of `(fault seed, entity id)` via
//! [`cm_net::stablehash`], never of execution order — a faulted campaign
//! is byte-identical at any worker count, and two runs of the same plan
//! produce the same [`FaultImpact`] counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bursty correlated loss: per-router rate-limit windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// Probability that a `(router, epoch, destination block)` window is
    /// rate-limiting.
    pub window_rate: f64,
    /// Per-probe loss probability inside an active window.
    pub loss_rate: f64,
}

/// Persistent blackhole routers: probes reaching one are dropped outright.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blackhole {
    /// Fraction of routers that blackhole traffic for the whole campaign.
    pub router_rate: f64,
}

/// MPLS-style hidden segments: affected transit routers emit no hop and
/// consume no TTL.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MplsTunnels {
    /// Fraction of routers hidden inside tunnels.
    pub router_rate: f64,
}

/// Per-region clock skew: a fixed non-negative offset added to every RTT
/// measured from an affected region.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockSkew {
    /// Fraction of regions with a skewed clock.
    pub region_rate: f64,
    /// Maximum skew in milliseconds; the per-region offset is a
    /// deterministic draw in `[0, max_skew_ms)`.
    pub max_skew_ms: f64,
}

/// ICMP source-address rewriting: affected routers answer with their
/// canonical (lowest addressed) interface instead of the incoming one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AddrRewrite {
    /// Fraction of routers that rewrite their response source.
    pub router_rate: f64,
}

/// Mid-campaign route flaps: per-`(/24, epoch)` diversions of the egress
/// route lookup.
///
/// The axis is *longitudinal*: a campaign at `era > 0` represents a later
/// snapshot of the same world, where a per-`(/24, epoch)` churn draw may
/// have re-rolled the flap decision since an earlier era. At `era == 0`
/// (and for every `(/24, epoch)` whose churn draw never fired) the
/// decision is exactly the legacy draw, so existing goldens are
/// byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteFlap {
    /// Probability that a `(/24, epoch)` pair is flapped.
    pub flap_rate: f64,
    /// Longitudinal era of the campaign. Era 0 is the base snapshot.
    pub era: u32,
    /// Per-era probability that a `(/24, epoch)` pair re-rolls its flap
    /// decision (ignored at era 0).
    pub churn_rate: f64,
}

/// Salt for the per-era churn ("did this pair re-roll at era s?") draw.
const FLAP_CHURN_SALT: u64 = 0xE7A0;
/// Salt for the re-rolled flap decision of a churned pair.
const FLAP_REROLL_SALT: u64 = 0xE7A1;
/// Salt of the legacy (era-0) flap draw; shared with the dataplane.
const FLAP_BASE_SALT: u64 = 0xF1A9;

impl RouteFlap {
    /// A non-longitudinal flap axis: era 0, no churn (the legacy shape).
    pub fn steady(flap_rate: f64) -> Self {
        RouteFlap {
            flap_rate,
            era: 0,
            churn_rate: 0.0,
        }
    }

    /// The same axis viewed at a different era.
    pub fn at_era(self, era: u32) -> Self {
        RouteFlap { era, ..self }
    }

    /// Whether `(dst /24 base, epoch)` is flapped at this axis' era.
    ///
    /// This is the *single* source of truth for flap decisions: the
    /// dataplane's route lookup and the delta engine's dirty-set
    /// derivation both call it, which is what makes "dirty iff the
    /// decision changed" exact. The decision of era `e` is the legacy
    /// draw unless a churn event fired at some era `s <= e`; the latest
    /// fired era selects an independent re-roll of the decision.
    pub fn decision(&self, fault_seed: u64, dst24: u64, epoch: u64) -> bool {
        let mut latest = 0u64;
        for s in 1..=u64::from(self.era) {
            if cm_net::stablehash::chance(
                fault_seed,
                &[FLAP_CHURN_SALT, dst24, epoch, s],
                self.churn_rate,
            ) {
                latest = s;
            }
        }
        if latest == 0 {
            cm_net::stablehash::chance(fault_seed, &[FLAP_BASE_SALT, dst24, epoch], self.flap_rate)
        } else {
            cm_net::stablehash::chance(
                fault_seed,
                &[FLAP_REROLL_SALT, dst24, epoch, latest],
                self.flap_rate,
            )
        }
    }
}

/// A composed, seeded fault profile. The default plan is clean (every
/// axis disabled); axes compose freely.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Bursty correlated loss, when enabled.
    pub burst_loss: Option<BurstLoss>,
    /// Persistent blackhole routers, when enabled.
    pub blackhole: Option<Blackhole>,
    /// MPLS-style hidden segments, when enabled.
    pub mpls: Option<MplsTunnels>,
    /// Per-region clock skew, when enabled.
    pub clock_skew: Option<ClockSkew>,
    /// ICMP source-address rewriting, when enabled.
    pub addr_rewrite: Option<AddrRewrite>,
    /// Mid-campaign route flaps, when enabled.
    pub route_flap: Option<RouteFlap>,
    /// Extra entropy folded into every fault draw, so two campaigns can
    /// run the same profile against different fault placements.
    pub salt: u64,
}

impl FaultPlan {
    /// Every named profile, in registry order. `"clean"` is the empty
    /// plan; `"hostile"` composes every axis at once.
    pub const PROFILES: [&'static str; 8] = [
        "clean",
        "burst-loss",
        "blackhole",
        "mpls",
        "clock-skew",
        "addr-rewrite",
        "route-flap",
        "hostile",
    ];

    /// Resolves a named profile, or `None` for an unknown name. The
    /// per-axis parameters are the registry defaults; callers needing
    /// other rates build a plan directly.
    pub fn named(name: &str) -> Option<FaultPlan> {
        let burst = BurstLoss {
            window_rate: 0.10,
            loss_rate: 0.65,
        };
        let blackhole = Blackhole { router_rate: 0.02 };
        let mpls = MplsTunnels { router_rate: 0.08 };
        let skew = ClockSkew {
            region_rate: 0.35,
            max_skew_ms: 4.0,
        };
        let rewrite = AddrRewrite { router_rate: 0.10 };
        let flap = RouteFlap::steady(0.15);
        let mut plan = FaultPlan::default();
        match name {
            "clean" => {}
            "burst-loss" => plan.burst_loss = Some(burst),
            "blackhole" => plan.blackhole = Some(blackhole),
            "mpls" => plan.mpls = Some(mpls),
            "clock-skew" => plan.clock_skew = Some(skew),
            "addr-rewrite" => plan.addr_rewrite = Some(rewrite),
            "route-flap" => plan.route_flap = Some(flap),
            "hostile" => {
                plan.burst_loss = Some(burst);
                plan.blackhole = Some(blackhole);
                plan.mpls = Some(mpls);
                plan.clock_skew = Some(skew);
                plan.addr_rewrite = Some(rewrite);
                plan.route_flap = Some(flap);
            }
            _ => return None,
        }
        Some(plan)
    }

    /// Whether every axis is disabled.
    pub fn is_clean(&self) -> bool {
        self.burst_loss.is_none()
            && self.blackhole.is_none()
            && self.mpls.is_none()
            && self.clock_skew.is_none()
            && self.addr_rewrite.is_none()
            && self.route_flap.is_none()
    }

    /// The enabled axes, as counter names (subset of
    /// [`FaultImpact::AXES`]).
    pub fn enabled_axes(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.burst_loss.is_some() {
            v.push("burst_loss");
        }
        if self.blackhole.is_some() {
            v.push("blackhole");
        }
        if self.mpls.is_some() {
            v.push("mpls");
        }
        if self.clock_skew.is_some() {
            v.push("clock_skew");
        }
        if self.addr_rewrite.is_some() {
            v.push("addr_rewrite");
        }
        if self.route_flap.is_some() {
            v.push("route_flap");
        }
        v
    }

    /// Validates every enabled axis: rates must be probabilities in
    /// `[0, 1]`, magnitudes finite and non-negative.
    pub fn validate(&self) -> Result<(), DataPlaneConfigError> {
        if let Some(b) = self.burst_loss {
            probability("faults.burst_loss.window_rate", b.window_rate)?;
            probability("faults.burst_loss.loss_rate", b.loss_rate)?;
        }
        if let Some(b) = self.blackhole {
            probability("faults.blackhole.router_rate", b.router_rate)?;
        }
        if let Some(m) = self.mpls {
            probability("faults.mpls.router_rate", m.router_rate)?;
        }
        if let Some(s) = self.clock_skew {
            probability("faults.clock_skew.region_rate", s.region_rate)?;
            magnitude("faults.clock_skew.max_skew_ms", s.max_skew_ms)?;
        }
        if let Some(r) = self.addr_rewrite {
            probability("faults.addr_rewrite.router_rate", r.router_rate)?;
        }
        if let Some(f) = self.route_flap {
            probability("faults.route_flap.flap_rate", f.flap_rate)?;
            probability("faults.route_flap.churn_rate", f.churn_rate)?;
        }
        Ok(())
    }
}

/// Why a [`crate::DataPlaneConfig`] was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DataPlaneConfigError {
    /// A probability field is NaN or outside `[0, 1]`.
    Probability {
        /// Field path within the config.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A magnitude field (milliseconds) is NaN or negative.
    Magnitude {
        /// Field path within the config.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for DataPlaneConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPlaneConfigError::Probability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            DataPlaneConfigError::Magnitude { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
        }
    }
}

impl std::error::Error for DataPlaneConfigError {}

/// Checks that `value` is a probability in `[0, 1]`.
pub(crate) fn probability(field: &'static str, value: f64) -> Result<(), DataPlaneConfigError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(DataPlaneConfigError::Probability { field, value });
    }
    Ok(())
}

/// Checks that `value` is finite and non-negative.
pub(crate) fn magnitude(field: &'static str, value: f64) -> Result<(), DataPlaneConfigError> {
    if !value.is_finite() || value < 0.0 {
        return Err(DataPlaneConfigError::Magnitude { field, value });
    }
    Ok(())
}

/// Per-axis impact counters: how many probes each fault axis touched.
///
/// A traceroute counts at most once per axis; a ping counts on the
/// `blackhole` and `clock_skew` axes; a route lookup counts on
/// `route_flap`. Counts are pure functions of the campaign, so they are
/// identical at any worker count and across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultImpact {
    /// Probes that lost at least one hop to an active burst window.
    pub burst_loss: u64,
    /// Probes absorbed by a blackholed router (traceroutes and pings).
    pub blackhole: u64,
    /// Probes with at least one MPLS-hidden hop.
    pub mpls: u64,
    /// Probes whose RTTs carry a region clock-skew offset.
    pub clock_skew: u64,
    /// Probes with at least one rewritten response address.
    pub addr_rewrite: u64,
    /// Route lookups diverted by a flap.
    pub route_flap: u64,
}

impl FaultImpact {
    /// Counter names, in struct order (also the JSON key order).
    pub const AXES: [&'static str; 6] = [
        "burst_loss",
        "blackhole",
        "mpls",
        "clock_skew",
        "addr_rewrite",
        "route_flap",
    ];

    /// `(axis, count)` pairs in [`Self::AXES`] order.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("burst_loss", self.burst_loss),
            ("blackhole", self.blackhole),
            ("mpls", self.mpls),
            ("clock_skew", self.clock_skew),
            ("addr_rewrite", self.addr_rewrite),
            ("route_flap", self.route_flap),
        ]
    }

    /// Sum across all axes.
    pub fn total(&self) -> u64 {
        self.burst_loss
            + self.blackhole
            + self.mpls
            + self.clock_skew
            + self.addr_rewrite
            + self.route_flap
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// The delta accumulated since an `earlier` snapshot of the same
    /// counters (mirrors [`cm_bgp::MemoStats::since`]).
    pub fn since(&self, earlier: FaultImpact) -> FaultImpact {
        FaultImpact {
            burst_loss: self.burst_loss - earlier.burst_loss,
            blackhole: self.blackhole - earlier.blackhole,
            mpls: self.mpls - earlier.mpls,
            clock_skew: self.clock_skew - earlier.clock_skew,
            addr_rewrite: self.addr_rewrite - earlier.addr_rewrite,
            route_flap: self.route_flap - earlier.route_flap,
        }
    }

    /// Adds another impact (used to sum per-stage deltas).
    pub fn absorb(&mut self, other: FaultImpact) {
        self.burst_loss += other.burst_loss;
        self.blackhole += other.blackhole;
        self.mpls += other.mpls;
        self.clock_skew += other.clock_skew;
        self.addr_rewrite += other.addr_rewrite;
        self.route_flap += other.route_flap;
    }

    /// Exports the per-axis counters into an observability registry as
    /// `fault_impact_<axis>` counters (the same sums the F1 audit rule
    /// conserves).
    pub fn export_obs(&self, registry: &cm_obs::Registry) {
        for (axis, count) in self.counters() {
            registry.inc(&format!("fault_impact_{axis}"), count); // cm-lint: allow(P3_FORMAT, observability export renders one counter name per axis, once per run)
        }
    }
}

/// Per-probe fault flags, folded into [`FaultCounters`] once per probe.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FaultTally {
    pub burst_loss: bool,
    pub blackhole: bool,
    pub mpls: bool,
    pub clock_skew: bool,
    pub addr_rewrite: bool,
}

/// Shared atomic impact counters. Workers bump them in arbitrary order;
/// the final sums are order-independent because every probe executes
/// exactly once regardless of scheduling.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    burst_loss: AtomicU64,
    blackhole: AtomicU64,
    mpls: AtomicU64,
    clock_skew: AtomicU64,
    addr_rewrite: AtomicU64,
    route_flap: AtomicU64,
}

impl FaultCounters {
    pub(crate) fn snapshot(&self) -> FaultImpact {
        FaultImpact {
            burst_loss: self.burst_loss.load(Ordering::Relaxed),
            blackhole: self.blackhole.load(Ordering::Relaxed),
            mpls: self.mpls.load(Ordering::Relaxed),
            clock_skew: self.clock_skew.load(Ordering::Relaxed),
            addr_rewrite: self.addr_rewrite.load(Ordering::Relaxed),
            route_flap: self.route_flap.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record(&self, t: FaultTally) {
        if t.burst_loss {
            self.burst_loss.fetch_add(1, Ordering::Relaxed);
        }
        if t.blackhole {
            self.blackhole.fetch_add(1, Ordering::Relaxed);
        }
        if t.mpls {
            self.mpls.fetch_add(1, Ordering::Relaxed);
        }
        if t.clock_skew {
            self.clock_skew.fetch_add(1, Ordering::Relaxed);
        }
        if t.addr_rewrite {
            self.addr_rewrite.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn bump_blackhole(&self) {
        self.blackhole.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_clock_skew(&self) {
        self.clock_skew.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_route_flap(&self) {
        self.route_flap.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_clean_is_clean() {
        for name in FaultPlan::PROFILES {
            let plan = FaultPlan::named(name).expect("registered profile resolves");
            assert!(plan.validate().is_ok(), "{name} registry params validate");
            assert_eq!(name == "clean", plan.is_clean());
        }
        assert!(FaultPlan::named("no-such-profile").is_none());
    }

    #[test]
    fn hostile_enables_every_axis() {
        let hostile = FaultPlan::named("hostile").expect("hostile profile");
        assert_eq!(hostile.enabled_axes(), FaultImpact::AXES.to_vec());
    }

    #[test]
    fn impact_arithmetic() {
        let mut a = FaultImpact {
            burst_loss: 3,
            blackhole: 1,
            ..FaultImpact::default()
        };
        let b = FaultImpact {
            burst_loss: 1,
            route_flap: 5,
            ..FaultImpact::default()
        };
        a.absorb(b);
        assert_eq!(a.total(), 10);
        assert_eq!(a.since(b).burst_loss, 3);
        assert!(!a.is_zero());
        assert!(FaultImpact::default().is_zero());
    }

    #[test]
    fn era_zero_decision_is_the_legacy_draw() {
        let legacy = RouteFlap::steady(0.3);
        // Even with a non-zero churn rate, era 0 never consults it.
        let era0 = RouteFlap {
            churn_rate: 0.9,
            ..legacy
        };
        for dst24 in 0..512u64 {
            for epoch in 0..3u64 {
                let want = cm_net::stablehash::chance(7, &[0xF1A9, dst24, epoch], 0.3);
                assert_eq!(legacy.decision(7, dst24, epoch), want);
                assert_eq!(era0.decision(7, dst24, epoch), want);
            }
        }
    }

    #[test]
    fn churn_rerolls_some_pairs_and_zero_churn_none() {
        let base = RouteFlap::steady(0.4);
        let frozen = RouteFlap {
            era: 5,
            churn_rate: 0.0,
            ..base
        };
        let churned = RouteFlap {
            era: 5,
            churn_rate: 0.5,
            ..base
        };
        let mut changed = 0usize;
        for dst24 in 0..2048u64 {
            assert_eq!(
                frozen.decision(11, dst24, 0),
                base.decision(11, dst24, 0),
                "zero churn must never re-roll"
            );
            if churned.decision(11, dst24, 0) != base.decision(11, dst24, 0) {
                changed += 1;
            }
        }
        assert!(changed > 0, "era-5 churn at 0.5 must re-roll some pairs");
        // A re-roll keeps the same flap rate, so roughly 2*p*(1-p) of
        // churned pairs actually change decision — far from all of them.
        assert!(changed < 2048);
    }

    #[test]
    fn decision_is_stable_within_an_era() {
        let fl = RouteFlap {
            flap_rate: 0.4,
            era: 3,
            churn_rate: 0.2,
        };
        for dst24 in 0..64u64 {
            assert_eq!(fl.decision(3, dst24, 1), fl.decision(3, dst24, 1));
        }
    }

    #[test]
    fn plan_validation_rejects_bad_churn() {
        let plan = FaultPlan {
            route_flap: Some(RouteFlap {
                flap_rate: 0.1,
                era: 2,
                churn_rate: -0.5,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(DataPlaneConfigError::Probability { field, .. })
                if field == "faults.route_flap.churn_rate"
        ));
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        let plan = FaultPlan {
            burst_loss: Some(BurstLoss {
                window_rate: 1.5,
                loss_rate: 0.5,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(DataPlaneConfigError::Probability { field, .. })
                if field == "faults.burst_loss.window_rate"
        ));
        let plan = FaultPlan {
            clock_skew: Some(ClockSkew {
                region_rate: 0.5,
                max_skew_ms: f64::NAN,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(DataPlaneConfigError::Magnitude { .. })
        ));
    }
}
