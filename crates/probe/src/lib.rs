//! # cm-probe — Scamper-style measurement campaigns
//!
//! Orchestrates the paper's probing rounds over the [`cm_dataplane`]
//! simulator:
//!
//! * [`Campaign::sweep`] — round one (§3): from every region of a cloud,
//!   traceroute to the `.1` of every /24.
//! * [`Campaign::expansion`] — round two (§4.2): traceroute to every other
//!   address inside the /24s of previously discovered client border
//!   interfaces.
//! * [`Campaign::targeted`] — the §7.1 multi-cloud pool probing: arbitrary
//!   target lists from every region of any cloud (used against the
//!   secondary vantage clouds for VPI detection).
//! * [`RttCampaign`] — the §6 ICMP campaigns: minimum RTT from every region
//!   to a set of interfaces.
//!
//! Campaign outputs are plain vectors of [`cm_dataplane::Traceroute`]s plus
//! summary [`CampaignStats`]; the inference crate consumes them without ever
//! touching the ground truth.
//!
//! Multi-epoch rounds run on a sharded `(region × epoch × target-chunk)`
//! work-queue executor ([`Campaign::run_parallel`] /
//! [`Campaign::run_sharded`]) whose merged output is byte-identical to a
//! serial run for any worker count — see the `executor` module docs for the
//! determinism argument.

#![deny(missing_docs)]

mod executor;
pub mod tracefile;

use cm_dataplane::{DataPlane, TraceStatus, Traceroute};
use cm_net::{Ipv4, Prefix};
use cm_topology::{CloudId, RegionId};
use std::collections::HashMap;

/// Summary counters for a probing round, mirroring the §3 discussion
/// (completion rate, share of probes that left the probing cloud).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CampaignStats {
    /// Traceroutes launched.
    pub launched: usize,
    /// Traceroutes whose destination answered.
    pub completed: usize,
    /// Traceroutes abandoned at the unresponsive-hop gap limit.
    pub gap_limited: usize,
    /// Traceroutes that ran out of TTL (loops).
    pub max_ttl: usize,
}

impl CampaignStats {
    /// Tallies one traceroute outcome. Public so incremental runners
    /// (the delta engine) can account synthesized groups exactly like
    /// the live executor fold does.
    pub fn absorb(&mut self, t: &Traceroute) {
        self.launched += 1;
        match t.status {
            TraceStatus::Completed => self.completed += 1,
            TraceStatus::GapLimit => self.gap_limited += 1,
            TraceStatus::MaxTtl => self.max_ttl += 1,
        }
    }

    /// Completion rate (the paper observed ≈ 7.7%).
    pub fn completion_rate(&self) -> f64 {
        if self.launched == 0 {
            0.0
        } else {
            self.completed as f64 / self.launched as f64
        }
    }

    /// Adds another round's counters (used to total multi-round and
    /// multi-cloud campaigns).
    pub fn merge(&mut self, other: &CampaignStats) {
        self.launched += other.launched;
        self.completed += other.completed;
        self.gap_limited += other.gap_limited;
        self.max_ttl += other.max_ttl;
    }
}

/// Upper bounds of the `probe_hops` histogram (hop counts of finished
/// traceroutes; the dataplane's TTL budget caps paths at 32).
pub const HOP_BUCKETS: [f64; 6] = [4.0, 8.0, 12.0, 16.0, 24.0, 32.0];

/// Upper bounds of the `rtt_ms` histogram (min-RTT echoes in
/// milliseconds).
pub const RTT_BUCKETS: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0];

/// One probing round's share of the probe metrics, tallied off the
/// registry: the outcome counters (as [`CampaignStats`]) and the
/// `probe_hops` histogram. The executor absorbs every traceroute of a
/// round into one tally and flushes it when the round ends; the delta
/// engine caches one per probe group and flushes their sum per round.
/// Counter sums and bucket counts are order-independent, so one flush per
/// round leaves the registry exactly as per-traceroute recording would.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeTally {
    /// Outcome counts of the tallied traceroutes.
    pub stats: CampaignStats,
    /// Hop counts of the tallied traceroutes, bucketed by [`HOP_BUCKETS`].
    pub hops: cm_obs::HistogramValue,
}

impl Default for ProbeTally {
    fn default() -> Self {
        ProbeTally {
            stats: CampaignStats::default(),
            hops: cm_obs::HistogramValue::new(&HOP_BUCKETS),
        }
    }
}

impl ProbeTally {
    /// Tallies one traceroute: its outcome and its hop count.
    pub fn absorb(&mut self, t: &Traceroute) {
        self.stats.absorb(t);
        self.hops.observe(t.hops.len() as f64);
    }

    /// Adds another tally (a cached probe group's, say).
    pub fn merge(&mut self, other: &ProbeTally) {
        self.stats.merge(&other.stats);
        self.hops.merge(&other.hops);
    }

    /// Adds the tally to `registry`'s probe metrics, which
    /// [`register_probe_metrics`] must have registered.
    pub fn flush(&self, registry: &cm_obs::Registry) {
        let s = &self.stats;
        registry.inc("probe_launched_total", s.launched as u64);
        registry.inc("probe_completed_total", s.completed as u64);
        registry.inc("probe_gap_limit_total", s.gap_limited as u64);
        registry.inc("probe_max_ttl_total", s.max_ttl as u64);
        registry.merge_histogram("probe_hops", &self.hops);
    }
}

/// Pre-registers every metric the probing layer records, so empty
/// campaigns still expose the full metric set deterministically.
pub fn register_probe_metrics(registry: &cm_obs::Registry) {
    registry.inc("probe_launched_total", 0);
    registry.inc("probe_completed_total", 0);
    registry.inc("probe_gap_limit_total", 0);
    registry.inc("probe_max_ttl_total", 0);
    registry.inc("ping_answered_total", 0);
    registry.histogram("probe_hops", &HOP_BUCKETS);
    registry.histogram("rtt_ms", &RTT_BUCKETS);
}

/// A traceroute campaign from every region of one cloud.
pub struct Campaign<'a, 'b> {
    /// The dataplane to probe through.
    pub plane: &'a DataPlane<'b>,
    /// The probing cloud.
    pub cloud: CloudId,
}

impl<'a, 'b> Campaign<'a, 'b> {
    /// Creates a campaign runner for `cloud`.
    pub fn new(plane: &'a DataPlane<'b>, cloud: CloudId) -> Self {
        Campaign { plane, cloud }
    }

    fn regions(&self) -> &[RegionId] {
        &self.plane.inet.clouds[self.cloud.index()].regions
    }

    /// Round one: `.1` of every /24 in the sweep list, from every region.
    pub fn sweep(&self) -> (Vec<Traceroute>, CampaignStats) {
        self.run(&self.sweep_targets())
    }

    /// Streaming round one: invokes `f` on every traceroute instead of
    /// collecting (the full-scale sweep is hundreds of thousands of traces).
    pub fn sweep_each<F: FnMut(&Traceroute)>(&self, mut f: F) -> CampaignStats {
        self.run_fold(&self.sweep_targets(), |t| f(&t))
    }

    /// Round two: every other address in each of the given /24s (the `.1`
    /// was already probed in round one and is skipped; network and broadcast
    /// addresses are skipped as in the paper's target construction).
    pub fn expansion(&self, cbi_slash24s: &[Prefix]) -> (Vec<Traceroute>, CampaignStats) {
        self.run(&self.expansion_targets(cbi_slash24s))
    }

    /// Streaming round two.
    pub fn expansion_each<F: FnMut(&Traceroute)>(
        &self,
        cbi_slash24s: &[Prefix],
        mut f: F,
    ) -> CampaignStats {
        self.run_fold(&self.expansion_targets(cbi_slash24s), |t| f(&t))
    }

    /// Arbitrary target list from every region of the campaign's cloud.
    pub fn targeted(&self, targets: &[Ipv4]) -> (Vec<Traceroute>, CampaignStats) {
        self.run(targets)
    }

    /// Streaming variant of [`Campaign::targeted`].
    pub fn targeted_each<F: FnMut(&Traceroute)>(
        &self,
        targets: &[Ipv4],
        mut f: F,
    ) -> CampaignStats {
        self.run_fold(targets, |t| f(&t))
    }

    fn run(&self, targets: &[Ipv4]) -> (Vec<Traceroute>, CampaignStats) {
        let mut out = Vec::with_capacity(targets.len() * self.regions().len());
        let stats = self.run_fold(targets, |t| out.push(t));
        (out, stats)
    }

    /// Serial epoch-0 execution handing each traceroute to `f` **by value**:
    /// the collecting variants above take ownership instead of cloning every
    /// trace out of a streaming callback.
    fn run_fold<F: FnMut(Traceroute)>(&self, targets: &[Ipv4], mut f: F) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for &region in self.regions() {
            for &t in targets {
                let tr = self.plane.traceroute(self.cloud, region, t);
                stats.absorb(&tr);
                f(tr);
            }
        }
        stats
    }

    /// Runs `targets` over `epochs` campaign days from every region on the
    /// sharded executor with `available_parallelism()` workers, folding
    /// traceroutes into one state per region. Chunk results are merged in
    /// `(region, epoch, chunk)` order, so the outcome is byte-identical to
    /// a serial run regardless of worker count or scheduling (see
    /// [`Campaign::run_sharded`] to pin the worker count).
    ///
    /// `epochs > 1` models a multi-day campaign: routing churn between
    /// epochs makes repeated probes of the same destination traverse
    /// different interconnects (see `cm_bgp::RoutingTable::route_at`), and
    /// the per-epoch probe key re-rolls the loss/dup/loop/jitter artifacts.
    pub fn run_parallel<T, I, F>(
        &self,
        targets: &[Ipv4],
        epochs: u32,
        init: I,
        fold: F,
    ) -> (Vec<T>, CampaignStats)
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, &Traceroute) + Sync,
    {
        self.run_sharded(targets, epochs, 0, init, fold)
    }

    /// [`Campaign::run_parallel`] with an explicit worker count
    /// (`0` = `available_parallelism()`, `1` = the serial reference path).
    /// Output is identical for every worker count.
    pub fn run_sharded<T, I, F>(
        &self,
        targets: &[Ipv4],
        epochs: u32,
        workers: usize,
        init: I,
        fold: F,
    ) -> (Vec<T>, CampaignStats)
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, &Traceroute) + Sync,
    {
        executor::run_sharded(self, targets, epochs, workers, None, init, fold)
    }

    /// [`Campaign::run_sharded`] that also records the round's outcome
    /// counters and hop-count histogram into an observability sink, as one
    /// [`ProbeTally`] flushed when the round ends. The sink never
    /// influences execution, and its contents stay byte-identical at any
    /// worker count.
    pub fn run_sharded_obs<T, I, F>(
        &self,
        targets: &[Ipv4],
        epochs: u32,
        workers: usize,
        obs: Option<&cm_obs::ObsSink>,
        init: I,
        fold: F,
    ) -> (Vec<T>, CampaignStats)
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, &Traceroute) + Sync,
    {
        if let Some(sink) = obs {
            register_probe_metrics(&sink.registry);
        }
        executor::run_sharded(self, targets, epochs, workers, obs, init, fold)
    }

    /// The round-one target list (`.1` of every sweep /24).
    pub fn sweep_targets(&self) -> Vec<Ipv4> {
        self.plane
            .sweep_slash24s()
            .into_iter()
            .map(|p| p.base().slash24_probe_target())
            .collect()
    }

    /// The round-two target list for the given CBI /24s.
    pub fn expansion_targets(&self, cbi_slash24s: &[Prefix]) -> Vec<Ipv4> {
        let mut targets = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for p in cbi_slash24s {
            let p24 = Prefix::slash24_of(p.base());
            if !seen.insert(p24) {
                continue;
            }
            for a in p24.hosts() {
                if a.host_byte() != 1 {
                    targets.push(a);
                }
            }
        }
        targets
    }
}

/// Minimum-RTT (ICMP) campaign results: per target, the min RTT from each
/// region that could reach it.
#[derive(Clone, Debug, Default)]
pub struct RttCampaign {
    /// target → (region → min RTT in ms).
    pub min_rtt: HashMap<Ipv4, HashMap<RegionId, f64>>,
}

impl RttCampaign {
    /// Probes every target from every region of `cloud`, `attempts` echoes
    /// each, keeping the per-region minimum.
    pub fn run(plane: &DataPlane<'_>, cloud: CloudId, targets: &[Ipv4], attempts: u32) -> Self {
        Self::run_obs(plane, cloud, targets, attempts, None)
    }

    /// [`RttCampaign::run`] that also streams the `rtt_ms` histogram and
    /// the answered-ping counter into an observability sink. Both are
    /// tallied after the per-region merge and added once per campaign, so
    /// the registry contents never depend on worker scheduling.
    pub fn run_obs(
        plane: &DataPlane<'_>,
        cloud: CloudId,
        targets: &[Ipv4],
        attempts: u32,
        obs: Option<&cm_obs::ObsSink>,
    ) -> Self {
        if let Some(sink) = obs {
            register_probe_metrics(&sink.registry);
        }
        // One worker per region; per-region maps are disjoint in their
        // region key, so merging in any order is deterministic.
        let regions = plane.inet.clouds[cloud.index()].regions.clone();
        let mut per_region: Vec<Vec<(Ipv4, f64)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &region in &regions {
                handles.push(scope.spawn(move || {
                    let mut v = Vec::new(); // cm-lint: allow(P1_HEAP_ALLOC, one result buffer per region worker, returned through the scoped-thread join)
                    for &t in targets {
                        if let Some(rtt) = plane.ping_min_rtt(cloud, region, t, attempts) {
                            v.push((t, rtt));
                        }
                    }
                    v
                }));
            }
            for h in handles {
                // cm-lint: allow(L1_UNWRAP, worker-thread join: panic propagation is intended)
                per_region.push(h.join().expect("rtt worker panicked"));
            }
        });
        // The answered count and the `rtt_ms` buckets are tallied here and
        // added to the registry once per campaign. RTTs are computed
        // floats, so `HistogramValue::observe` keeps the registry's reject
        // path for NaN, infinite and negative values.
        let mut answered = 0u64;
        let mut rtt_hist = cm_obs::HistogramValue::new(&RTT_BUCKETS);
        let mut min_rtt: HashMap<Ipv4, HashMap<RegionId, f64>> = HashMap::new();
        for (&region, rows) in regions.iter().zip(per_region) {
            for (t, rtt) in rows {
                answered += 1;
                rtt_hist.observe(rtt);
                min_rtt.entry(t).or_default().insert(region, rtt);
            }
        }
        if let Some(sink) = obs {
            sink.registry.inc("ping_answered_total", answered);
            sink.registry.merge_histogram("rtt_ms", &rtt_hist);
        }
        RttCampaign { min_rtt }
    }

    /// The overall minimum RTT to a target and the region attaining it.
    pub fn closest_region(&self, target: Ipv4) -> Option<(RegionId, f64)> {
        let per = self.min_rtt.get(&target)?;
        per.iter()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0 .0.cmp(&b.0 .0)))
            .map(|(&r, &v)| (r, v))
    }

    /// The two smallest per-region minimum RTTs for a target (used by the
    /// §6.1 regional-pinning ratio, Figure 5).
    pub fn two_lowest(&self, target: Ipv4) -> Option<(f64, Option<f64>)> {
        let per = self.min_rtt.get(&target)?;
        let mut v: Vec<f64> = per.values().copied().collect();
        v.sort_by(f64::total_cmp);
        Some((v[0], v.get(1).copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_dataplane::DataPlaneConfig;
    use cm_topology::{Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(), 17)
    }

    #[test]
    fn sweep_produces_regions_times_targets() {
        let inet = world();
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let (traces, stats) = c.sweep();
        let regions = inet.primary_cloud().regions.len();
        assert_eq!(traces.len(), stats.launched);
        assert_eq!(stats.launched % regions, 0);
        assert!(stats.completed > 0, "no completed traceroutes");
        let rate = stats.completion_rate();
        assert!(
            (0.01..0.4).contains(&rate),
            "completion rate {rate} outside the plausible band"
        );
    }

    #[test]
    fn expansion_skips_dot_one_and_dedupes() {
        let inet = world();
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let p: Prefix = "198.51.100.0/24".parse().unwrap();
        let (traces, stats) = c.expansion(&[p, p]);
        let regions = inet.primary_cloud().regions.len();
        // 253 targets (2..=254 minus .1) per region, once despite the dupe.
        assert_eq!(stats.launched, 253 * regions);
        assert!(traces.iter().all(|t| t.dst.host_byte() != 1));
    }

    #[test]
    fn rtt_campaign_orders_regions_geographically() {
        let inet = world();
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        // Target: an ABI in region 0's metro → region 0 must be the closest.
        let r0 = inet.primary_cloud().regions[0];
        let region = inet.region(r0);
        let local = region
            .border_routers
            .iter()
            .map(|&b| inet.router(b))
            .find(|b| b.metro == region.metro && b.response == cm_topology::ResponseMode::Incoming);
        let Some(b) = local else { return };
        let abi = b.ifaces.iter().find_map(|&f| inet.iface(f).addr).unwrap();
        let camp = RttCampaign::run(&plane, CloudId(0), &[abi], 4);
        let (closest, rtt) = camp.closest_region(abi).unwrap();
        assert_eq!(closest, r0, "closest region should host the ABI");
        assert!(rtt < 2.5, "local ABI rtt {rtt}");
        let (lo, hi) = camp.two_lowest(abi).unwrap();
        assert!(hi.unwrap_or(f64::MAX) >= lo);
    }

    #[test]
    fn stats_absorb_counts() {
        let mut s = CampaignStats::default();
        assert_eq!(s.completion_rate(), 0.0);
        s.launched = 10;
        s.completed = 1;
        assert!((s.completion_rate() - 0.1).abs() < 1e-12);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use cm_dataplane::DataPlaneConfig;
    use cm_topology::{CloudId, Internet, TopologyConfig};

    #[test]
    fn parallel_run_matches_serial_at_one_epoch() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = cm_dataplane::DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let targets: Vec<Ipv4> = c.sweep_targets().into_iter().take(300).collect();
        let (_, serial) = c.targeted(&targets);
        let (states, parallel) = c.run_parallel(&targets, 1, Vec::new, |v: &mut Vec<Ipv4>, t| {
            if t.status == cm_dataplane::TraceStatus::Completed {
                v.push(t.dst);
            }
        });
        assert_eq!(serial, parallel);
        let total: usize = states.iter().map(|v| v.len()).sum();
        assert_eq!(total, parallel.completed);
    }

    #[test]
    fn epochs_multiply_probe_counts_and_add_diversity() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = cm_dataplane::DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let targets: Vec<Ipv4> = c.sweep_targets();
        let collect_addrs = |epochs: u32| {
            let (states, stats) = c.run_parallel(
                &targets,
                epochs,
                std::collections::HashSet::new,
                |s: &mut std::collections::HashSet<Ipv4>, t| {
                    s.extend(t.responding_addrs());
                },
            );
            let mut all = std::collections::HashSet::new();
            for s in states {
                all.extend(s);
            }
            (all, stats)
        };
        let (one, s1) = collect_addrs(1);
        let (four, s4) = collect_addrs(4);
        assert_eq!(s4.launched, 4 * s1.launched);
        assert!(
            four.len() > one.len(),
            "churn across epochs should reveal new interfaces ({} vs {})",
            four.len(),
            one.len()
        );
    }

    #[test]
    fn sharded_run_matches_serial_at_every_worker_count() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = cm_dataplane::DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        // > TARGET_CHUNK targets so multiple chunks per (region, epoch).
        let targets: Vec<Ipv4> = c.sweep_targets().into_iter().take(700).collect();
        let collect = |workers: usize| {
            c.run_sharded(
                &targets,
                2,
                workers,
                Vec::new,
                |v: &mut Vec<(Ipv4, u8)>, t| {
                    v.push((t.dst, t.hops.len() as u8));
                },
            )
        };
        let serial = collect(1);
        for workers in [2, 3, 8] {
            let sharded = collect(workers);
            assert_eq!(serial.1, sharded.1, "stats differ at {workers} workers");
            assert_eq!(
                serial.0, sharded.0,
                "per-region states differ at {workers} workers"
            );
        }
    }

    #[test]
    fn sharded_run_handles_empty_targets_and_yields_region_states() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = cm_dataplane::DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let (states, stats) = c.run_sharded(&[], 3, 4, || 0usize, |n, _| *n += 1);
        assert_eq!(states.len(), inet.primary_cloud().regions.len());
        assert!(states.iter().all(|&n| n == 0));
        assert_eq!(stats.launched, 0);
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = cm_dataplane::DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let targets: Vec<Ipv4> = c.sweep_targets().into_iter().take(500).collect();
        let run = || {
            let (states, stats) = c.run_parallel(&targets, 3, Vec::new, |v: &mut Vec<Ipv4>, t| {
                v.extend(t.responding_addrs())
            });
            (states.into_iter().flatten().collect::<Vec<_>>(), stats)
        };
        assert_eq!(run(), run());
    }
}
