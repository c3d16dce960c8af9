//! End-to-end orchestration of the measurement study.
//!
//! [`Pipeline::run`] executes the paper start to finish against one
//! ground-truth [`Internet`]:
//!
//! 1. take a BGP snapshot, compute the collector view, derive the public
//!    datasets (§3);
//! 2. sweep every /24 from every region, infer candidate segments (§4.1),
//!    then expansion-probe the CBIs' /24s (§4.2) — Table 1;
//! 3. run the verification heuristics and the alias-set corrections (§5) —
//!    Table 2;
//! 4. run the ICMP campaigns and pin interfaces (§6) — Table 3, Figures
//!    4a/4b/5, cross-validation;
//! 5. probe the CBI pool from the secondary clouds (§7.1) — Table 4;
//! 6. group all peerings and extract features (§7.2–7.3) — Tables 5/6,
//!    Figure 6;
//! 7. build the ICG (§7.4) — Figures 7a/7b.
//!
//! The result is an [`Atlas`] holding every intermediate product, which the
//! examples and the benchmark harness render into the paper's tables.

use crate::annotate::Annotator;
use crate::borders::{BorderCollector, SegmentPool};
use crate::groups::Grouping;
use crate::icg::Icg;
use crate::pinning::{CrossValReport, PinOutcome, Pinner, PinningConfig};
use crate::verify::{apply_alias_corrections, run_heuristics, ChangeStats, HeuristicOutcome};
use crate::vpi::{detect, VpiDetection};
use cm_bgp::{bgp_snapshot, BgpView, MemoStats};
use cm_dataplane::{publicly_reachable, DataPlane, DataPlaneConfig, FaultImpact};
use cm_datasets::{DatasetConfig, PublicDatasets};
use cm_dns::DnsDb;
use cm_geo::MetroId;
use cm_net::{Asn, Ipv4, OrgId, PrefixTrie};
use cm_obs::{Event, EventKind, ObsSink, Snapshot};
use cm_probe::{Campaign, CampaignStats, RttCampaign};
use cm_topology::{CloudId, Internet, RegionId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Why a pipeline run could not produce an [`Atlas`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The measured cloud's main ASN has no AS2ORG entry, so no hop can be
    /// classified as cloud-internal.
    MissingCloudOrg,
    /// The primary cloud has no regions to probe from.
    NoRegions,
    /// An inline self-audit invariant failed (only with
    /// [`PipelineConfig::self_audit`] enabled).
    SelfAudit(String),
    /// The dataplane configuration failed validation (a NaN or
    /// out-of-range rate, or a malformed fault plan); the message is the
    /// rendered [`cm_dataplane::DataPlaneConfigError`].
    InvalidConfig(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingCloudOrg => {
                write!(f, "cloud ASN missing from the AS2ORG dataset")
            }
            PipelineError::NoRegions => write!(f, "primary cloud has no regions"),
            PipelineError::SelfAudit(msg) => write!(f, "self-audit failed: {msg}"),
            PipelineError::InvalidConfig(msg) => write!(f, "invalid dataplane config: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Pipeline knobs. Every stage can be toggled for ablations.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Dataplane artifact rates.
    pub dataplane: DataPlaneConfig,
    /// Dataset degradation knobs.
    pub datasets: DatasetConfig,
    /// Pinning thresholds.
    pub pinning: PinningConfig,
    /// Number of BGP collector feeders.
    pub n_feeders: usize,
    /// ICMP echoes per RTT target.
    pub rtt_attempts: u32,
    /// Whether to run the §4.2 expansion round (ablation knob).
    pub run_expansion: bool,
    /// Whether to run the §7.1 multi-cloud probing.
    pub run_vpi: bool,
    /// Campaign epochs (days) for the sweep and expansion rounds; churn
    /// between epochs accumulates path diversity like the paper's 16-day
    /// campaign.
    pub sweep_epochs: u32,
    /// Worker threads for the sharded probing executor (0 = one per
    /// available core). Any value produces byte-identical results; this
    /// only trades wall clock for cores.
    pub probe_workers: usize,
    /// Cross-validation folds (0 disables).
    pub crossval_folds: usize,
    /// Extra seed folded into every derived randomness source.
    pub seed: u64,
    /// Run the cheap inline invariant checks after each pool-mutating stage
    /// ([`crate::borders::SegmentPool::check_invariants`]); a violation
    /// aborts the run with [`PipelineError::SelfAudit`]. The deep
    /// re-derivation checks live in the separate `cm-audit` crate.
    pub self_audit: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dataplane: DataPlaneConfig::default(),
            datasets: DatasetConfig::default(),
            pinning: PinningConfig::default(),
            n_feeders: 300,
            rtt_attempts: 8,
            run_expansion: true,
            run_vpi: true,
            sweep_epochs: 2,
            probe_workers: 0,
            crossval_folds: 10,
            seed: 0x0C10_0D0A,
            self_audit: false,
        }
    }
}

/// Per-stage wall-clock and route-memo accounting for one pipeline run.
///
/// Since the flight recorder became the primary record, this is a thin
/// *view*: [`Pipeline::run`] records every stage into the
/// [`cm_obs::Recorder`] and materializes the view once, via
/// [`StageTimings::from_recorder`], so the benchmark harness and the
/// audit's F-rules keep their typed, positional access without a second
/// bookkeeping path. Stage names are the executor's own
/// (`"public-data"`, `"sweep"`, `"expansion"`, `"verify"`, `"rtt"`,
/// `"pinning"`, `"vpi"`, `"grouping"`), in execution order.
#[derive(Clone, Debug, Default)]
pub struct StageTimings {
    /// `(stage, wall clock)` in execution order.
    pub stages: Vec<(&'static str, Duration)>,
    /// Route-memo hit/miss deltas of the probing stages, in execution
    /// order. Stages that never consult the RIB are absent.
    pub route_memo: Vec<(&'static str, MemoStats)>,
    /// Fault-impact deltas of the probing stages, in execution order
    /// (all-zero entries under a clean [`cm_dataplane::FaultPlan`]).
    pub fault_impact: Vec<(&'static str, FaultImpact)>,
}

/// Name of the recorder counter group holding a stage's route-memo delta.
pub const GROUP_ROUTE_MEMO: &str = "route_memo";

/// Name of the recorder counter group holding a stage's fault-impact
/// delta.
pub const GROUP_FAULT_IMPACT: &str = "fault_impact";

impl StageTimings {
    /// Rebuilds the timing view from a flight-recorder stream: one entry
    /// per `stage_end` event, with the wall clock taken from the event's
    /// nondeterministic field, the `fault_impact` group decoded from the
    /// deterministic groups and the `route_memo` group from the
    /// quarantined nondeterministic ones (the hit/miss split varies with
    /// the worker count, like the wall clock).
    pub fn from_recorder(events: &[Event]) -> StageTimings {
        let mut t = StageTimings::default();
        for event in events {
            let EventKind::StageEnd { stage, groups } = &event.kind else {
                continue;
            };
            debug_assert!(
                t.stages.iter().all(|&(n, _)| n != *stage),
                "stage {stage} recorded twice in one run"
            );
            let wall_ms = event.wall_ms.unwrap_or(0.0);
            let wall = if wall_ms.is_finite() && wall_ms >= 0.0 {
                Duration::from_secs_f64(wall_ms / 1000.0)
            } else {
                Duration::ZERO
            };
            t.stages.push((stage, wall));
            for (group, counters) in groups.iter().chain(&event.nondet_groups) {
                let get = |name| cm_obs::lookup_named(counters, name).unwrap_or(0);
                match *group {
                    GROUP_ROUTE_MEMO => {
                        let memo = MemoStats {
                            hits: get("hits"),
                            misses: get("misses"),
                        };
                        t.route_memo.push((stage, memo));
                    }
                    GROUP_FAULT_IMPACT => {
                        let fi = FaultImpact {
                            burst_loss: get("burst_loss"),
                            blackhole: get("blackhole"),
                            mpls: get("mpls"),
                            clock_skew: get("clock_skew"),
                            addr_rewrite: get("addr_rewrite"),
                            route_flap: get("route_flap"),
                        };
                        t.fault_impact.push((stage, fi));
                    }
                    _ => {}
                }
            }
        }
        t
    }

    /// Total wall clock across all recorded stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|&(_, d)| d).sum()
    }

    /// Wall clock of one stage, if recorded.
    pub fn wall(&self, name: &str) -> Option<Duration> {
        cm_obs::lookup_named(&self.stages, name)
    }

    /// Route-memo delta of one stage, if recorded.
    pub fn memo(&self, name: &str) -> Option<MemoStats> {
        cm_obs::lookup_named(&self.route_memo, name)
    }

    /// Aggregate route-memo stats across all recorded stages.
    pub fn memo_total(&self) -> MemoStats {
        let mut total = MemoStats::default();
        for &(_, m) in &self.route_memo {
            total.hits += m.hits;
            total.misses += m.misses;
        }
        total
    }

    /// Fault-impact delta of one stage, if recorded.
    pub fn faults(&self, name: &str) -> Option<FaultImpact> {
        cm_obs::lookup_named(&self.fault_impact, name)
    }

    /// Aggregate fault impact across all recorded stages.
    pub fn fault_total(&self) -> FaultImpact {
        let mut total = FaultImpact::default();
        for &(_, f) in &self.fault_impact {
            total.absorb(f);
        }
        total
    }
}

/// Starts the wall clock for one pipeline stage. Together with
/// [`stage_wall_ms`] this is the *only* place [`Pipeline::run`] reads the
/// wall clock: the reading lands in the flight recorder's quarantined
/// `nondeterministic` JSONL section and never feeds the digest, which is
/// why the pair carries the lint quarantine instead of the eight call
/// sites.
pub(crate) fn stage_clock() -> Instant {
    // cm-lint: allow(D1_WALL_CLOCK, stage wall clock lands in the recorder's nondeterministic JSONL section, never the digest)
    Instant::now()
}

/// Milliseconds elapsed since a [`stage_clock`] reading.
pub(crate) fn stage_wall_ms(start: Instant) -> f64 {
    // cm-lint: allow(D1_WALL_CLOCK, stage wall clock lands in the recorder's nondeterministic JSONL section, never the digest)
    start.elapsed().as_secs_f64() * 1000.0
}

/// One Table 1 row: interface count and annotation-source fractions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table1Row {
    /// Interface count.
    pub count: usize,
    /// Fraction resolved via the BGP snapshot.
    pub bgp: f64,
    /// Fraction resolved via WHOIS.
    pub whois: f64,
    /// Fraction inside IXP LANs.
    pub ixp: f64,
}

/// Coverage comparison against public BGP (§7.3, "Coverage of Amazon's
/// Interconnections").
#[derive(Clone, Debug, Default)]
pub struct CoverageReport {
    /// Peer ASes visible in public BGP.
    pub bgp_peers: usize,
    /// Of those, peers also discovered by the traceroute pipeline.
    pub discovered_of_bgp: usize,
    /// Total peer ASes discovered by the pipeline.
    pub inferred_peers: usize,
}

/// Everything the study produced.
pub struct Atlas<'i> {
    /// The measured ground truth (used by examples for scoring only).
    pub inet: &'i Internet,
    /// The configuration used.
    pub config: PipelineConfig,
    /// BGP snapshot (prefix → origin).
    pub snapshot: PrefixTrie<Asn>,
    /// Collector view of the primary cloud.
    pub view: BgpView,
    /// Public datasets.
    pub datasets: PublicDatasets,
    /// Reverse DNS.
    pub dns: DnsDb,
    /// The measured cloud's org and sibling ASNs.
    pub cloud_org: OrgId,
    /// Sibling ASNs of the measured cloud.
    pub cloud_asns: HashSet<Asn>,
    /// Region → metro (public knowledge).
    pub region_metro: HashMap<RegionId, MetroId>,
    /// Round-one campaign stats.
    pub sweep_stats: CampaignStats,
    /// Round-two campaign stats.
    pub expansion_stats: Option<CampaignStats>,
    /// Table 1 rows: ABI, CBI (round one), eABI, eCBI (after expansion).
    pub table1: [Table1Row; 4],
    /// The final (verified, corrected) segment pool.
    pub pool: SegmentPool,
    /// §5.1 heuristic outcome.
    pub heuristics: HeuristicOutcome,
    /// §5.2 alias sets.
    pub alias_sets: Vec<Vec<Ipv4>>,
    /// §5.2 relabeling counts.
    pub changes: ChangeStats,
    /// The ICMP min-RTT campaign.
    pub rtt: RttCampaign,
    /// Per-segment min-RTT differences.
    pub segment_diffs: HashMap<(Ipv4, Ipv4), f64>,
    /// §6 pinning outcome.
    pub pinning: PinOutcome,
    /// §6.2 cross-validation.
    pub crossval: CrossValReport,
    /// §7.1 VPI detection.
    pub vpi: VpiDetection,
    /// §7.2–7.3 grouping.
    pub groups: Grouping,
    /// §7.4 connectivity graph.
    pub icg: Icg,
    /// §7.3 coverage vs public BGP.
    pub coverage: CoverageReport,
    /// Per-stage wall-clock timings and route-memo stats of this run,
    /// materialized from the flight recorder at pipeline end.
    pub timings: StageTimings,
    /// Total fault impact across all probing stages (all zero under a
    /// clean fault plan); equals the sum of the per-stage deltas in
    /// [`StageTimings::fault_impact`], an invariant `cm-audit` checks.
    pub fault_impact: FaultImpact,
    /// The metrics registry frozen at pipeline end. Deterministic for a
    /// given `(inet, config)` at any `probe_workers` count; `cm-audit`'s
    /// O1 rule cross-checks it against the campaign and fault totals.
    pub metrics: Snapshot,
    /// The live observability sink: the flight recorder behind
    /// [`Atlas::timings`] plus the registry behind [`Atlas::metrics`].
    /// Consumers may append post-run notes or tallies (the audit does).
    pub obs: ObsSink,
}

impl<'i> Atlas<'i> {
    /// Rebuilds an annotator over the atlas's own snapshot and datasets.
    pub fn annotator(&self) -> Annotator<'_> {
        Annotator::new(&self.snapshot, &self.datasets)
    }

    /// Total border interfaces (ABIs + CBIs) in the final pool.
    pub fn interface_count(&self) -> usize {
        self.pool.abis.len() + self.pool.cbis.len()
    }
}

/// The pipeline runner.
pub struct Pipeline<'i> {
    inet: &'i Internet,
    cfg: PipelineConfig,
}

impl<'i> Pipeline<'i> {
    /// Creates a runner over one ground-truth Internet.
    pub fn new(inet: &'i Internet, cfg: PipelineConfig) -> Self {
        Pipeline { inet, cfg }
    }

    /// Executes the full study.
    pub fn run(self) -> Result<Atlas<'i>, PipelineError> {
        let inet = self.inet;
        let cfg = self.cfg;
        let seed = inet.seed ^ cfg.seed;
        let primary = CloudId(0);
        cfg.dataplane
            .validate()
            .map_err(|e| PipelineError::InvalidConfig(e.to_string()))?;
        if inet.primary_cloud().regions.is_empty() {
            return Err(PipelineError::NoRegions);
        }
        let obs = ObsSink::new();
        cm_probe::register_probe_metrics(&obs.registry);
        // The worker count is deliberately absent from this note: the
        // deterministic event stream must be byte-identical at any
        // `probe_workers`, and the count would be the one field varying.
        obs.note(format!(
            "pipeline start: seed {seed:#x}, fault axes {:?}",
            cfg.dataplane.faults.enabled_axes()
        ));
        // ---- public data (§3 inputs) --------------------------------------
        obs.stage_start("public-data");
        let stage_start = stage_clock();
        let pd = derive_public_data(inet, &cfg, seed)?;
        let cloud_org = pd.cloud_org;

        let annotator = Annotator::new(&pd.snapshot, &pd.datasets);
        // Shared annotation table: the sweep and every expansion round
        // revisit the same border interfaces from all regions, so without
        // it each (region, round) collector re-resolves every address
        // against the dataset tries. `Annotator::annotate` is pure, so
        // serving notes from the shared table cannot change any result.
        let note_cache = crate::annotate::NoteCache::new();
        let plane = DataPlane::new(inet, cfg.dataplane);
        let campaign = Campaign::new(&plane, primary);
        obs.stage_end(
            "public-data",
            stage_wall_ms(stage_start),
            Vec::new(),
            Vec::new(),
        );

        // ---- round one (§3, §4.1) -----------------------------------------
        let obs_ref = &obs;
        let run_round = |targets: &[Ipv4]| -> (SegmentPool, CampaignStats) {
            let (collectors, stats) = campaign.run_sharded_obs(
                targets,
                cfg.sweep_epochs.max(1),
                cfg.probe_workers,
                Some(obs_ref),
                || BorderCollector::with_cache(&annotator, cloud_org, &note_cache),
                |c, t| c.observe(t),
            );
            let mut pools = collectors.into_iter().map(BorderCollector::finish);
            // `run_sharded` yields one collector per region, and the region
            // list was checked non-empty above.
            let mut pool = pools
                .next()
                .unwrap_or_else(|| BorderCollector::new(&annotator, cloud_org).finish());
            for p in pools {
                pool.merge(p);
            }
            (pool, stats)
        };
        let self_check = |pool: &SegmentPool, stage: &str| -> Result<(), PipelineError> {
            if !cfg.self_audit {
                return Ok(());
            }
            pool.check_invariants()
                .map_err(|e| PipelineError::SelfAudit(format!("after {stage}: {e}")))
        };
        obs.stage_start("sweep");
        let stage_start = stage_clock();
        let memo_before = plane.route_memo_stats();
        let faults_before = plane.fault_impact();
        obs.span_start("targets");
        let span_clock = stage_clock();
        let sweep_targets = campaign.sweep_targets();
        obs.span_end(
            "targets",
            Some(stage_wall_ms(span_clock)),
            vec![("targets", sweep_targets.len() as u64)],
        );
        obs.span_start("probe-round");
        let span_clock = stage_clock();
        let (mut pool, sweep_stats) = run_round(&sweep_targets);
        obs.span_end(
            "probe-round",
            Some(stage_wall_ms(span_clock)),
            vec![("probes", sweep_stats.launched as u64)],
        );
        self_check(&pool, "round one")?;
        obs.span_start("table1");
        let span_clock = stage_clock();
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_abi = table1_row(pool.abis.values());
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_cbi = table1_row(pool.cbis.values().map(|c| &c.note));
        obs.span_end("table1", Some(stage_wall_ms(span_clock)), vec![("rows", 2)]);
        // Per-stage peak-memory gauge: what the sweep leaves alive,
        // deterministically counted (not RSS). The delta engine sets the
        // same gauge from its spliced sweep pool — byte-identical pools
        // guarantee equal gauges.
        obs.registry
            .set_gauge("pool_bytes_sweep", pool.approx_bytes() as i64);
        obs.stage_end(
            "sweep",
            stage_wall_ms(stage_start),
            faults_group(plane.fault_impact().since(faults_before)),
            memo_group(plane.route_memo_stats().since(memo_before)),
        );

        // ---- round two (§4.2) ----------------------------------------------
        obs.stage_start("expansion");
        let stage_start = stage_clock();
        let memo_before = plane.route_memo_stats();
        let faults_before = plane.fault_impact();
        let expansion_stats = if cfg.run_expansion {
            obs.span_start("targets");
            let span_clock = stage_clock();
            let targets = campaign.expansion_targets(&pool.expansion_prefixes());
            obs.span_end(
                "targets",
                Some(stage_wall_ms(span_clock)),
                vec![("targets", targets.len() as u64)],
            );
            obs.span_start("probe-round");
            let span_clock = stage_clock();
            let (round2, stats) = run_round(&targets);
            obs.span_end(
                "probe-round",
                Some(stage_wall_ms(span_clock)),
                vec![("probes", stats.launched as u64)],
            );
            obs.span_start("merge");
            let span_clock = stage_clock();
            let merged_segments = round2.segments.len() as u64;
            pool.merge(round2);
            obs.span_end(
                "merge",
                Some(stage_wall_ms(span_clock)),
                vec![("pool_merges", 1), ("segments", merged_segments)],
            );
            self_check(&pool, "expansion merge")?;
            Some(stats)
        } else {
            obs.note("expansion disabled by config");
            None
        };
        obs.registry
            .set_gauge("pool_bytes_expansion", pool.approx_bytes() as i64);
        obs.stage_end(
            "expansion",
            stage_wall_ms(stage_start),
            faults_group(plane.fault_impact().since(faults_before)),
            memo_group(plane.route_memo_stats().since(memo_before)),
        );
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_eabi = table1_row(pool.abis.values());
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_ecbi = table1_row(pool.cbis.values().map(|c| &c.note));
        let table1 = [t1_abi, t1_cbi, t1_eabi, t1_ecbi];

        finish_atlas(
            inet,
            cfg,
            seed,
            obs,
            &plane,
            pd,
            pool,
            sweep_stats,
            expansion_stats,
            table1,
            ProbeAccounting::Direct,
        )
    }
}

/// The era-independent §3 inputs: BGP snapshot, collector view, public
/// datasets, reverse DNS and the cloud's identity. A pure function of
/// `(inet, cfg.datasets, cfg.n_feeders, seed)` — no fault axis touches it —
/// so the longitudinal delta engine derives it once and clones per era.
#[derive(Clone)]
pub(crate) struct PublicData {
    pub snapshot: PrefixTrie<Asn>,
    pub view: BgpView,
    pub visible_asns: HashSet<Asn>,
    pub datasets: PublicDatasets,
    pub dns: DnsDb,
    pub cloud_org: OrgId,
    pub cloud_asns: HashSet<Asn>,
    pub region_metro: HashMap<RegionId, MetroId>,
}

/// Derives the [`PublicData`] bundle (the body of the `public-data` stage).
pub(crate) fn derive_public_data(
    inet: &Internet,
    cfg: &PipelineConfig,
    seed: u64,
) -> Result<PublicData, PipelineError> {
    let primary = CloudId(0);
    let snapshot = bgp_snapshot(inet);
    let view = BgpView::compute(inet, primary, cfg.n_feeders, seed);
    let visible_asns: HashSet<Asn> = view
        .visible_peers
        .iter()
        .map(|&p| inet.as_node(p).asn)
        .collect();
    let datasets = PublicDatasets::derive(inet, cfg.datasets, &visible_asns, seed);
    let dns = DnsDb::synthesize(inet, seed);
    let cloud_asns: HashSet<Asn> = inet
        .primary_cloud()
        .ases
        .iter()
        .map(|&i| inet.as_node(i).asn)
        .collect();
    let main_asn = inet.as_node(inet.primary_cloud().ases[0]).asn;
    let cloud_org = datasets
        .as2org
        .org_of(main_asn)
        .ok_or(PipelineError::MissingCloudOrg)?;
    let region_metro: HashMap<RegionId, MetroId> = inet
        .primary_cloud()
        .regions
        .iter()
        .map(|&r| (r, inet.region(r).metro))
        .collect();
    Ok(PublicData {
        snapshot,
        view,
        visible_asns,
        datasets,
        dns,
        cloud_org,
        cloud_asns,
        region_metro,
    })
}

/// The recorder counter group carrying a stage's fault-impact delta
/// (deterministic: every probe is computed exactly once).
pub(crate) fn faults_group(faults: FaultImpact) -> Vec<(&'static str, Vec<(&'static str, u64)>)> {
    vec![(GROUP_FAULT_IMPACT, faults.counters().to_vec())]
}

/// The recorder counter group carrying a stage's route-memo delta. The
/// hit/miss split is worker-dependent (racing workers can both miss one
/// key), so it rides in the recorder's nondeterministic section.
pub(crate) fn memo_group(memo: MemoStats) -> Vec<(&'static str, Vec<(&'static str, u64)>)> {
    vec![(
        GROUP_ROUTE_MEMO,
        vec![("hits", memo.hits), ("misses", memo.misses)],
    )]
}

/// How [`finish_atlas`] accounts for probe-layer side effects (fault
/// impact, route-memo totals) that the §5–§7 stages do not produce
/// themselves.
pub(crate) enum ProbeAccounting<'k> {
    /// The plane passed in ran the whole campaign (a from-scratch run):
    /// its own cumulative counters and memo are authoritative.
    Direct,
    /// The sweep/expansion products were partly replayed from a cache
    /// (a delta run): the plane only ran the §6/§7.1 probes of *this*
    /// call, so probe-group totals ride in as ghosts and the plane
    /// contributes deltas measured from function entry. The caller must
    /// have enabled the plane's memo key log; it is drained here after
    /// the last probing stage.
    Ghost {
        /// Summed fault impact of every sweep/expansion probe group.
        fault: FaultImpact,
        /// Summed route-memo lookups of every sweep/expansion group.
        memo_lookups: u64,
        /// The delta engine's persistent refcount over every cached
        /// group's looked-up memo keys: `len()` is the distinct key
        /// count across all sweep/expansion groups.
        group_keys: &'k std::collections::HashMap<cm_bgp::MemoKey, u32, crate::fxhash::FxBuild>,
    },
}

/// Runs every post-expansion stage (§5 verification, §6 RTT + pinning,
/// §7 VPI/grouping/ICG/coverage), finalizes the metrics registry and
/// assembles the [`Atlas`]. Shared verbatim by [`Pipeline::run`] and the
/// delta engine — which is what makes "delta ≡ scratch" a property of one
/// code path instead of two parallel implementations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_atlas<'i>(
    inet: &'i Internet,
    cfg: PipelineConfig,
    seed: u64,
    obs: ObsSink,
    plane: &DataPlane<'_>,
    pd: PublicData,
    mut pool: SegmentPool,
    sweep_stats: CampaignStats,
    expansion_stats: Option<CampaignStats>,
    table1: [Table1Row; 4],
    accounting: ProbeAccounting<'_>,
) -> Result<Atlas<'i>, PipelineError> {
    let primary = CloudId(0);
    let annotator = Annotator::new(&pd.snapshot, &pd.datasets);
    let fault_entry = plane.fault_impact();
    let memo_entry = plane.route_memo_stats();
    let self_check = |pool: &SegmentPool, stage: &str| -> Result<(), PipelineError> {
        if !cfg.self_audit {
            return Ok(());
        }
        pool.check_invariants()
            .map_err(|e| PipelineError::SelfAudit(format!("after {stage}: {e}")))
    };

    // ---- verification (§5) ----------------------------------------------
    obs.stage_start("verify");
    let stage_start = stage_clock();
    obs.span_start("heuristics");
    let span_clock = stage_clock();
    let heuristics = run_heuristics(&pool, |a| publicly_reachable(inet, a));
    obs.span_end(
        "heuristics",
        Some(stage_wall_ms(span_clock)),
        vec![("unconfirmed", heuristics.unconfirmed.len() as u64)],
    );
    obs.span_start("alias-resolve");
    let span_clock = stage_clock();
    let mut addrs: Vec<Ipv4> = pool.abis.keys().copied().collect();
    addrs.extend(pool.cbis.keys().copied());
    addrs.sort_unstable();
    let alias_sets = cm_alias::resolve_all_regions(inet, primary, &addrs, seed);
    obs.span_end(
        "alias-resolve",
        Some(stage_wall_ms(span_clock)),
        vec![
            ("addresses", addrs.len() as u64),
            ("alias_sets", alias_sets.len() as u64),
        ],
    );
    obs.span_start("alias-corrections");
    let span_clock = stage_clock();
    let ds_ref = &pd.datasets;
    let changes = apply_alias_corrections(
        &mut pool,
        &annotator,
        pd.cloud_org,
        |asn| ds_ref.as2org.org_of(asn),
        &alias_sets,
    );
    obs.span_end(
        "alias-corrections",
        Some(stage_wall_ms(span_clock)),
        Vec::new(),
    );
    self_check(&pool, "alias corrections")?;
    obs.stage_end("verify", stage_wall_ms(stage_start), Vec::new(), Vec::new());

    // ---- RTT campaign + pinning (§6) ------------------------------------
    obs.stage_start("rtt");
    let stage_start = stage_clock();
    let memo_before = plane.route_memo_stats();
    let faults_before = plane.fault_impact();
    obs.span_start("targets");
    let span_clock = stage_clock();
    let mut rtt_targets: Vec<Ipv4> = pool.abis.keys().copied().collect();
    rtt_targets.extend(pool.cbis.keys().copied());
    rtt_targets.extend(pd.datasets.ixp.published_addrs().map(|(a, _)| a));
    rtt_targets.sort_unstable();
    rtt_targets.dedup();
    obs.span_end(
        "targets",
        Some(stage_wall_ms(span_clock)),
        vec![("targets", rtt_targets.len() as u64)],
    );
    obs.span_start("campaign");
    let span_clock = stage_clock();
    let rtt = RttCampaign::run_obs(plane, primary, &rtt_targets, cfg.rtt_attempts, Some(&obs));
    obs.span_end(
        "campaign",
        Some(stage_wall_ms(span_clock)),
        vec![
            ("targets", rtt_targets.len() as u64),
            ("attempts", u64::from(cfg.rtt_attempts)),
        ],
    );
    obs.stage_end(
        "rtt",
        stage_wall_ms(stage_start),
        faults_group(plane.fault_impact().since(faults_before)),
        memo_group(plane.route_memo_stats().since(memo_before)),
    );

    obs.stage_start("pinning");
    let stage_start = stage_clock();
    let pinner = Pinner {
        pool: &pool,
        dns: &pd.dns,
        rtt: &rtt,
        datasets: &pd.datasets,
        alias_sets: &alias_sets,
        region_metro: &pd.region_metro,
        catalog: &inet.metros,
        cfg: cfg.pinning,
    };
    obs.span_start("pin");
    let span_clock = stage_clock();
    let pinning = pinner.run();
    obs.span_end(
        "pin",
        Some(stage_wall_ms(span_clock)),
        vec![
            ("pins_metro", pinning.pins.len() as u64),
            ("pins_region", pinning.region_pins.len() as u64),
        ],
    );
    obs.span_start("crossval");
    let span_clock = stage_clock();
    let crossval = if cfg.crossval_folds > 0 {
        pinner.cross_validate(cfg.crossval_folds, 0.7, seed)
    } else {
        CrossValReport::default()
    };
    obs.span_end(
        "crossval",
        Some(stage_wall_ms(span_clock)),
        vec![("folds", cfg.crossval_folds as u64)],
    );

    // Per-segment diffs, reused by grouping.
    obs.span_start("segment-diffs");
    let span_clock = stage_clock();
    let mut segment_diffs: HashMap<(Ipv4, Ipv4), f64> = HashMap::new();
    for seg in pool.segments.keys() {
        if let Some((region, abi_rtt)) = rtt.closest_region(seg.abi) {
            if let Some(&cbi_rtt) = rtt.min_rtt.get(&seg.cbi).and_then(|m| m.get(&region)) {
                segment_diffs.insert((seg.abi, seg.cbi), (cbi_rtt - abi_rtt).abs());
            }
        }
    }
    obs.span_end(
        "segment-diffs",
        Some(stage_wall_ms(span_clock)),
        vec![("segments", segment_diffs.len() as u64)],
    );
    obs.stage_end(
        "pinning",
        stage_wall_ms(stage_start),
        Vec::new(),
        Vec::new(),
    );

    // ---- VPI detection (§7.1) -------------------------------------------
    obs.stage_start("vpi");
    let stage_start = stage_clock();
    let memo_before = plane.route_memo_stats();
    let faults_before = plane.fault_impact();
    let vpi = if cfg.run_vpi {
        let secondary: Vec<(CloudId, OrgId)> = inet
            .clouds
            .iter()
            .skip(1)
            .filter_map(|c| {
                let asn = inet.as_node(c.ases[0]).asn;
                pd.datasets.as2org.org_of(asn).map(|o| (c.id, o))
            })
            .collect();
        detect(
            plane,
            &annotator,
            &pool,
            &secondary,
            cfg.probe_workers,
            Some(&obs),
        )
    } else {
        obs.note("vpi detection disabled by config");
        VpiDetection::default()
    };
    obs.stage_end(
        "vpi",
        stage_wall_ms(stage_start),
        faults_group(plane.fault_impact().since(faults_before)),
        memo_group(plane.route_memo_stats().since(memo_before)),
    );

    // ---- grouping + ICG (§7.2–7.4) --------------------------------------
    obs.stage_start("grouping");
    let stage_start = stage_clock();
    obs.span_start("groups");
    let span_clock = stage_clock();
    let groups = Grouping::build(
        &pool,
        &vpi,
        &pd.datasets.asrel,
        &pd.cloud_asns,
        &pinning,
        &segment_diffs,
        &pd.snapshot,
    );
    obs.span_end(
        "groups",
        Some(stage_wall_ms(span_clock)),
        vec![("peer_groups", groups.per_as.len() as u64)],
    );
    obs.span_start("icg");
    let span_clock = stage_clock();
    let icg = Icg::build(&pool, &pinning);
    obs.span_end(
        "icg",
        Some(stage_wall_ms(span_clock)),
        vec![("edges", icg.edges as u64)],
    );
    obs.span_start("finalize");
    let span_clock = stage_clock();

    // ---- coverage vs public BGP (§7.3) ----------------------------------
    let inferred_peers: HashSet<Asn> = groups.per_as.keys().copied().collect();
    let coverage = CoverageReport {
        bgp_peers: pd.visible_asns.len(),
        discovered_of_bgp: pd
            .visible_asns
            .iter()
            .filter(|a| inferred_peers.contains(a))
            .count(),
        inferred_peers: inferred_peers.len(),
    };
    // ---- observability finalize ----------------------------------------
    // Absolute exports (fault axes, route-memo totals) plus the §4.1 /
    // §5.1 tallies land in the registry exactly once, so the final
    // `counter_snapshot` appended by the grouping `stage_end` equals
    // `Atlas::metrics`.
    let fault_impact = match &accounting {
        ProbeAccounting::Direct => {
            plane.export_obs(&obs);
            plane.fault_impact()
        }
        ProbeAccounting::Ghost {
            fault,
            memo_lookups,
            group_keys,
        } => {
            // The plane only ran this call's §6/§7.1 probes: fold its
            // since-entry deltas on top of the ghost group totals. The
            // key union reproduces `route_memo_entries` exactly — which
            // keys get looked up is a pure function of the campaign, so
            // (cached groups ∪ fresh groups ∪ this plane's log) equals a
            // scratch plane's key set. The group side arrives as a
            // refcounted map so the union is |groups| plus the finish
            // stages' novel keys, instead of a multi-million-key
            // sort+dedup every era.
            let mut total = *fault;
            total.absorb(plane.fault_impact().since(fault_entry));
            total.export_obs(&obs.registry);
            let memo_delta = plane.route_memo_stats().since(memo_entry);
            obs.registry.inc(
                "route_memo_lookups_total",
                memo_lookups + memo_delta.hits + memo_delta.misses,
            );
            // The drained log is already sorted and deduplicated.
            let novel = plane
                .memo_drain_key_log()
                .iter()
                .filter(|k| !group_keys.contains_key(k))
                .count();
            let entries = (group_keys.len() + novel) as i64;
            obs.registry.set_gauge("route_memo_entries", entries);
            obs.registry.set_gauge(
                "route_memo_bytes",
                entries.saturating_mul(cm_bgp::RouteMemo::APPROX_ENTRY_BYTES as i64),
            );
            total
        }
    };
    let reg = &obs.registry;
    let d = &pool.discards;
    for (name, v) in [
        ("no_border", d.no_border),
        ("gap_before_border", d.gap_before_border),
        ("looped", d.looped),
        ("duplicate", d.duplicate),
        ("cbi_is_destination", d.cbi_is_destination),
        ("cloud_reentry", d.cloud_reentry),
    ] {
        reg.inc(&format!("discard_{name}_total"), v as u64);
    }
    reg.inc("traceroute_accepted_total", pool.accepted as u64);
    let table2 = heuristics.table2(&pool);
    for (i, name) in ["ixp", "hybrid", "reachable"].iter().enumerate() {
        reg.set_gauge(&format!("heuristic_{name}_abis"), table2[i].0 as i64);
        reg.set_gauge(&format!("heuristic_{name}_cbis"), table2[i].1 as i64);
    }
    reg.set_gauge(
        "heuristic_unconfirmed_abis",
        heuristics.unconfirmed.len() as i64,
    );
    reg.set_gauge("pool_abis", pool.abis.len() as i64);
    reg.set_gauge("pool_cbis", pool.cbis.len() as i64);
    reg.set_gauge("pool_segments", pool.segments.len() as i64);
    reg.set_gauge("pool_bytes_final", pool.approx_bytes() as i64);
    reg.set_gauge("alias_sets", alias_sets.len() as i64);
    reg.set_gauge("pins_metro", pinning.pins.len() as i64);
    reg.set_gauge("pins_region", pinning.region_pins.len() as i64);
    reg.set_gauge("vpi_cbis", vpi.vpi_cbis.len() as i64);
    reg.set_gauge("peer_groups", groups.per_as.len() as i64);
    reg.set_gauge("icg_edges", icg.edges as i64);
    obs.span_end("finalize", Some(stage_wall_ms(span_clock)), Vec::new());
    obs.stage_end(
        "grouping",
        stage_wall_ms(stage_start),
        Vec::new(),
        Vec::new(),
    );

    let timings = StageTimings::from_recorder(&obs.recorder.events());
    let metrics = obs.registry.snapshot();

    let PublicData {
        snapshot,
        view,
        visible_asns: _,
        datasets,
        dns,
        cloud_org,
        cloud_asns,
        region_metro,
    } = pd;
    Ok(Atlas {
        inet,
        config: cfg,
        snapshot,
        view,
        datasets,
        dns,
        cloud_org,
        cloud_asns,
        region_metro,
        sweep_stats,
        expansion_stats,
        table1,
        pool,
        heuristics,
        alias_sets,
        changes,
        rtt,
        segment_diffs,
        pinning,
        crossval,
        vpi,
        groups,
        icg,
        coverage,
        timings,
        fault_impact,
        metrics,
        obs,
    })
}

pub(crate) fn table1_row<'x>(
    notes: impl Iterator<Item = &'x crate::annotate::HopNote>,
) -> Table1Row {
    let notes: Vec<_> = notes.collect();
    let count = notes.len();
    let (bgp, whois, ixp) = SegmentPool::source_fractions(notes.into_iter());
    Table1Row {
        count,
        bgp,
        whois,
        ixp,
    }
}
