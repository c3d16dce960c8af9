//! Incremental longitudinal delta engine.
//!
//! A longitudinal study re-measures the same cloud every *era* (think: a
//! weekly re-run of the whole campaign). Between eras only a small share
//! of destination /24s change their routing — the era-aware
//! [`cm_dataplane::RouteFlap`] axis re-rolls a `churn_rate` fraction of
//! `(dst /24, epoch)` flap decisions per era and leaves everything else
//! untouched. Re-running the full pipeline from scratch each era wastes
//! almost all of its probing budget re-measuring unchanged paths.
//!
//! [`DeltaEngine`] exploits that: it partitions the sweep and expansion
//! rounds into *probe groups* — contiguous runs of the serial
//! `(region, epoch, target)` iteration order — and caches each group's
//! finished products (segment pool, campaign stats, hop histogram, fault
//! impact and route-memo accounting). For era *N+1* it derives the
//! **dirty set** (groups containing a /24 whose flap decision changed,
//! plus expansion groups for newly discovered /24s), re-probes only
//! those, and splices cached products with fresh ones by merging *all*
//! group products in the canonical serial order.
//!
//! The splice is exact, not approximate: a traceroute is a pure function
//! of `(internet, config, flap decision)`, [`SegmentPool::merge`] folds
//! group pools into precisely the state a single per-region collector
//! would have reached, and every registry contribution is a sum or a
//! histogram merge, so the resulting [`Atlas`] — products, metrics
//! exposition and golden digest — is **byte-identical** to a from-scratch
//! run at the same era (enforced by the audit's F3 rule and the
//! `delta_vs_scratch` differential suite in `cm-bench`).
//!
//! Between consecutive `run_era` calls the engine also derives a
//! deterministic [`ChurnReport`] — peerings appeared/vanished, pins
//! moved, VPI flicker, ICG edge churn — rendered as a stable JSONL line
//! and exported through the live `cm-obs` registry.

use crate::annotate::{Annotator, NoteCache};
use crate::borders::{BorderCollector, CollectorScratch, SegmentPool};
use crate::export::serve_export;
use crate::fxhash::FxBuild;
use crate::pipeline::{
    derive_public_data, faults_group, finish_atlas, memo_group, stage_clock, stage_wall_ms,
    table1_row, Atlas, PipelineConfig, PipelineError, ProbeAccounting, PublicData,
};
use cm_bgp::{MemoKey, MemoStats};
use cm_dataplane::{DataPlane, FaultImpact, TraceBatch, Traceroute};
use cm_net::{Ipv4, OrgId};
use cm_obs::{ObsSink, Registry};
use cm_probe::{CampaignStats, ProbeTally};
use cm_topology::{CloudId, Internet, RegionId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Sweep targets per probe group. Smaller groups mean a finer dirty set
/// (one churned /24 invalidates fewer cached probes) at the cost of more
/// group bookkeeping; 16 keeps the expected dirty fraction close to
/// `16 × churn_rate` while group overhead stays negligible.
const SWEEP_CHUNK: usize = 16;

/// Identity of one probe group within a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct GroupKey {
    region: RegionId,
    epoch: u32,
    /// Chunk index (sweep round) or /24 base address (expansion round).
    slot: u32,
}

/// One probe group: where to probe and which /24 decisions it depends on.
#[derive(Clone, Debug)]
struct GroupSpec {
    key: GroupKey,
    targets: Vec<Ipv4>,
    /// Member /24 bases, aligned with the cached `decisions` vector.
    dst24s: Vec<u32>,
}

/// Everything a worker measures for one dirty group.
struct RawGroup {
    traces: TraceBatch,
    fault: FaultImpact,
    memo_lookups: u64,
    memo_keys: Box<[MemoKey]>,
}

/// A group's finished, splice-ready products.
#[derive(Clone)]
struct GroupProduct {
    pool: SegmentPool,
    tally: ProbeTally,
    fault: FaultImpact,
    memo_lookups: u64,
    memo_keys: Box<[MemoKey]>,
    /// Flap decisions of `dst24s` at this group's epoch when it was
    /// synthesized; the product is valid for any era reproducing them.
    decisions: Vec<bool>,
}

/// Per-era incremental-work accounting (how much probing the cache saved).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaRunStats {
    /// Sweep groups merged into the era's pool.
    pub sweep_groups: usize,
    /// Sweep groups actually re-probed this era.
    pub sweep_synthesized: usize,
    /// Expansion groups merged into the era's pool.
    pub expansion_groups: usize,
    /// Expansion groups actually re-probed this era.
    pub expansion_synthesized: usize,
}

impl DeltaRunStats {
    /// Fraction of groups served from the cache (1.0 = nothing re-probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.sweep_groups + self.expansion_groups;
        if total == 0 {
            return 0.0;
        }
        let fresh = self.sweep_synthesized + self.expansion_synthesized;
        1.0 - fresh as f64 / total as f64
    }
}

/// The churn-relevant state of one interface: metro pin, regional
/// fallback pin, VPI flag.
type IfaceChurnState = (Option<(u16, u8)>, Option<u32>, bool);

/// The inference products of one era reduced to the sets the churn report
/// diffs. Derived from [`serve_export`], so the view is canonical and
/// worker-count invariant by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnView {
    /// Peer ASes with at least one inferred peering.
    peers: BTreeSet<u32>,
    /// Interface → (metro pin, region pin, VPI flag).
    ifaces: BTreeMap<Ipv4, IfaceChurnState>,
    /// ICG edges as `(abi, cbi)` pairs.
    segments: BTreeSet<(Ipv4, Ipv4)>,
}

impl ChurnView {
    /// Reduces an atlas to its churn view.
    pub fn of(atlas: &Atlas<'_>) -> ChurnView {
        let export = serve_export(atlas);
        ChurnView {
            peers: atlas.groups.per_as.keys().map(|a| a.0).collect(),
            ifaces: export
                .interfaces
                .iter()
                .map(|i| (i.addr, (i.metro_pin, i.region_pin, i.vpi)))
                .collect(),
            segments: export.segments.iter().copied().collect(),
        }
    }
}

/// What changed between two consecutive eras' atlases. Every field is a
/// count over canonical sets, so equal era pairs always render the same
/// report — at any worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Era this report describes (diffed against the previously run era).
    pub era: u32,
    /// Peer ASes present now but not before.
    pub peers_appeared: usize,
    /// Peer ASes present before but gone now.
    pub peers_vanished: usize,
    /// Border interfaces present now but not before.
    pub ifaces_appeared: usize,
    /// Border interfaces present before but gone now.
    pub ifaces_vanished: usize,
    /// Interfaces present in both eras whose metro or regional pin changed.
    pub pins_moved: usize,
    /// Interfaces present in both eras whose VPI classification toggled.
    pub vpi_flicker: usize,
    /// ICG edges present now but not before.
    pub icg_edges_added: usize,
    /// ICG edges present before but gone now.
    pub icg_edges_removed: usize,
}

impl ChurnReport {
    /// Diffs two consecutive churn views.
    pub fn between(era: u32, prev: &ChurnView, cur: &ChurnView) -> ChurnReport {
        let both = cur
            .ifaces
            .iter()
            .filter_map(|(a, s)| prev.ifaces.get(a).map(|p| (p, s)));
        let (mut pins_moved, mut vpi_flicker) = (0, 0);
        for (&(pm, pr, pv), &(cm, cr, cv)) in both {
            if (pm, pr) != (cm, cr) {
                pins_moved += 1;
            }
            if pv != cv {
                vpi_flicker += 1;
            }
        }
        ChurnReport {
            era,
            peers_appeared: cur.peers.difference(&prev.peers).count(),
            peers_vanished: prev.peers.difference(&cur.peers).count(),
            ifaces_appeared: cur
                .ifaces
                .keys()
                .filter(|a| !prev.ifaces.contains_key(a))
                .count(),
            ifaces_vanished: prev
                .ifaces
                .keys()
                .filter(|a| !cur.ifaces.contains_key(a))
                .count(),
            pins_moved,
            vpi_flicker,
            icg_edges_added: cur.segments.difference(&prev.segments).count(),
            icg_edges_removed: prev.segments.difference(&cur.segments).count(),
        }
    }

    /// Renders the report as one stable JSONL line (fixed key order, no
    /// floats, no wall clocks) — the unit `cm-bench churn` appends to its
    /// report file.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"era\":{},\"peers_appeared\":{},\"peers_vanished\":{},\
             \"ifaces_appeared\":{},\"ifaces_vanished\":{},\"pins_moved\":{},\
             \"vpi_flicker\":{},\"icg_edges_added\":{},\"icg_edges_removed\":{}}}",
            self.era,
            self.peers_appeared,
            self.peers_vanished,
            self.ifaces_appeared,
            self.ifaces_vanished,
            self.pins_moved,
            self.vpi_flicker,
            self.icg_edges_added,
            self.icg_edges_removed,
        )
    }

    /// Exports the report as `churn_*` counters into a registry. Called on
    /// the atlas's **live** registry, after the metrics freeze, like the
    /// audit's own export — churn is an observation *about* two atlases
    /// and must never move the golden digest of either.
    pub fn export_obs(&self, registry: &Registry) {
        registry.inc("churn_peers_appeared", self.peers_appeared as u64);
        registry.inc("churn_peers_vanished", self.peers_vanished as u64);
        registry.inc("churn_ifaces_appeared", self.ifaces_appeared as u64);
        registry.inc("churn_ifaces_vanished", self.ifaces_vanished as u64);
        registry.inc("churn_pins_moved", self.pins_moved as u64);
        registry.inc("churn_vpi_flicker", self.vpi_flicker as u64);
        registry.inc("churn_icg_edges_added", self.icg_edges_added as u64);
        registry.inc("churn_icg_edges_removed", self.icg_edges_removed as u64);
    }
}

/// One era's outcome: the spliced atlas, the churn report against the
/// previously run era (absent on the first run) and the cache accounting.
pub struct DeltaEpoch<'i> {
    /// The era's atlas — byte-identical to a from-scratch run at this era.
    pub atlas: Atlas<'i>,
    /// Churn against the previously run era; `None` on the first era.
    pub churn: Option<ChurnReport>,
    /// How much probing the group cache saved.
    pub stats: DeltaRunStats,
}

/// The scratch-equivalent pipeline configuration for one era: the same
/// study with the route-flap axis advanced to `era`. A [`DeltaEngine`]
/// era run must equal `Pipeline::new(inet, era_config(cfg, era)).run()`
/// byte for byte; the differential tests and the F3 audit rule compare
/// against exactly this configuration.
pub fn era_config(mut cfg: PipelineConfig, era: u32) -> PipelineConfig {
    cfg.dataplane.faults.route_flap = cfg.dataplane.faults.route_flap.map(|f| f.at_era(era));
    cfg
}

/// Incremental longitudinal pipeline runner (see the module docs).
///
/// The engine owns the era-independent state once — public datasets, the
/// annotation table, one dataplane per worker plus one for the downstream
/// stages — and re-uses it across [`DeltaEngine::run_era`] calls, flipping
/// only the route-flap era on the persistent planes. Eras may be run in
/// any order; cache validity is keyed on flap decisions, not era numbers.
pub struct DeltaEngine<'i> {
    inet: &'i Internet,
    cfg: PipelineConfig,
    seed: u64,
    public: PublicData,
    note_cache: NoteCache,
    /// `planes[0]` drives the downstream stages (verify/rtt/vpi) and the
    /// dirty-set decisions; `planes[1..]` are the synthesis workers. All
    /// persist across eras: route-memo entries are pure per
    /// `(region, /24, lookup-epoch)` key — the era only selects *which*
    /// key `select_route` consults — and the fault tables are
    /// era-independent, so nothing cached can go stale.
    planes: Vec<DataPlane<'i>>,
    sweep_targets: Vec<Ipv4>,
    sweep_cache: HashMap<GroupKey, GroupProduct>,
    expansion_cache: HashMap<GroupKey, GroupProduct>,
    /// Refcount over every cached group's looked-up route-memo keys
    /// (both caches): `len()` is the distinct-key union that scratch
    /// accounting reports as `route_memo_entries`, maintained
    /// incrementally as groups are (re)synthesized instead of rebuilt
    /// from millions of logged keys every era.
    memo_refs: HashMap<MemoKey, u32, FxBuild>,
    prev_view: Option<ChurnView>,
}

impl<'i> DeltaEngine<'i> {
    /// Builds the engine: validates the configuration, derives the public
    /// data once and constructs the persistent dataplanes.
    pub fn new(inet: &'i Internet, cfg: PipelineConfig) -> Result<DeltaEngine<'i>, PipelineError> {
        cfg.dataplane
            .validate()
            .map_err(|e| PipelineError::InvalidConfig(e.to_string()))?;
        if inet.primary_cloud().regions.is_empty() {
            return Err(PipelineError::NoRegions);
        }
        let seed = inet.seed ^ cfg.seed;
        let public = derive_public_data(inet, &cfg, seed)?;
        let workers = if cfg.probe_workers == 0 {
            // cm-lint: allow(D2_PARALLELISM, worker count only sizes the synthesis pool; the coordinator folds group products in canonical order, so every product is byte-identical at any count)
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            cfg.probe_workers
        };
        let planes: Vec<DataPlane<'i>> = (0..=workers)
            .map(|_| DataPlane::new(inet, cfg.dataplane))
            .collect();
        // The downstream plane's memo key log stays on for the engine's
        // lifetime: `finish_atlas` drains it every era to reconstruct the
        // scratch-equivalent `route_memo_entries` gauge.
        planes[0].memo_set_key_log(true);
        let sweep_targets = cm_probe::Campaign::new(&planes[0], CloudId(0)).sweep_targets();
        Ok(DeltaEngine {
            inet,
            cfg,
            seed,
            public,
            note_cache: NoteCache::new(),
            planes,
            sweep_targets,
            sweep_cache: HashMap::new(),
            expansion_cache: HashMap::new(),
            memo_refs: HashMap::default(),
            prev_view: None,
        })
    }

    /// Runs one era: derives the dirty set, re-probes it, splices cached
    /// and fresh group products into a full atlas and diffs it against the
    /// previously run era. The returned atlas is byte-identical — products,
    /// metrics and golden digest — to a from-scratch
    /// [`crate::pipeline::Pipeline::run`] under [`era_config`].
    pub fn run_era(&mut self, era: u32) -> Result<DeltaEpoch<'i>, PipelineError> {
        let inet = self.inet;
        let primary = CloudId(0);
        let cfg = era_config(self.cfg, era);
        let flap = cfg.dataplane.faults.route_flap;
        for plane in &mut self.planes {
            plane.cfg.faults.route_flap = flap;
        }
        let (finish_plane, worker_planes) = self
            .planes
            .split_first()
            // cm-lint: allow(L1_UNWRAP, guarded by construction: the engine always holds the downstream plane)
            .expect("engine always holds the downstream plane");
        let annotator = Annotator::new(&self.public.snapshot, &self.public.datasets);
        let cloud_org = self.public.cloud_org;
        let note_cache = &self.note_cache;
        let epochs = cfg.sweep_epochs.max(1);
        let regions = &inet.primary_cloud().regions;

        let obs = ObsSink::new();
        cm_probe::register_probe_metrics(&obs.registry);
        obs.note(format!(
            "pipeline start: seed {:#x}, fault axes {:?}",
            self.seed,
            cfg.dataplane.faults.enabled_axes()
        ));
        obs.stage_start("public-data");
        let stage_start = stage_clock();
        let pd = self.public.clone();
        obs.stage_end(
            "public-data",
            stage_wall_ms(stage_start),
            Vec::new(),
            Vec::new(),
        );

        let self_check = |pool: &SegmentPool, stage: &str| -> Result<(), PipelineError> {
            if !cfg.self_audit {
                return Ok(());
            }
            pool.check_invariants()
                .map_err(|e| PipelineError::SelfAudit(format!("after {stage}: {e}")))
        };

        let mut run_stats = DeltaRunStats::default();
        let mut ghost_fault = FaultImpact::default();
        let mut ghost_lookups = 0u64;

        // ---- sweep round, incrementally -----------------------------------
        obs.stage_start("sweep");
        let stage_start = stage_clock();
        let mut sweep_specs = Vec::new();
        for &region in regions {
            for epoch in 0..epochs {
                for (ci, chunk) in self.sweep_targets.chunks(SWEEP_CHUNK).enumerate() {
                    sweep_specs.push(GroupSpec {
                        key: GroupKey {
                            region,
                            epoch,
                            slot: ci as u32,
                        },
                        targets: chunk.to_vec(),
                        dst24s: chunk.iter().map(|t| t.slash24_base().to_u32()).collect(),
                    });
                }
            }
        }
        run_stats.sweep_groups = sweep_specs.len();
        obs.span_start("refresh");
        let span_clock = stage_clock();
        run_stats.sweep_synthesized = refresh_dirty(
            finish_plane,
            worker_planes,
            primary,
            &sweep_specs,
            &annotator,
            cloud_org,
            note_cache,
            &obs,
            &mut self.sweep_cache,
            &mut self.memo_refs,
        );
        obs.span_end(
            "refresh",
            Some(stage_wall_ms(span_clock)),
            vec![
                ("groups", run_stats.sweep_groups as u64),
                ("synthesized", run_stats.sweep_synthesized as u64),
            ],
        );
        let lookups_entry = ghost_lookups;
        obs.span_start("splice");
        let span_clock = stage_clock();
        let (mut pool, sweep_stats, sweep_fault) = splice_round(
            &sweep_specs,
            &self.sweep_cache,
            &annotator,
            cloud_org,
            note_cache,
            &obs,
            &mut ghost_lookups,
        );
        obs.span_end(
            "splice",
            Some(stage_wall_ms(span_clock)),
            vec![
                ("pool_merges", sweep_specs.len() as u64),
                ("probes", sweep_stats.launched as u64),
                ("memo_lookups", ghost_lookups - lookups_entry),
            ],
        );
        ghost_fault.absorb(sweep_fault);
        self_check(&pool, "round one")?;
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_abi = table1_row(pool.abis.values());
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_cbi = table1_row(pool.cbis.values().map(|c| &c.note));
        // Mirrors the scratch pipeline's per-stage peak-memory gauge: the
        // spliced sweep pool is byte-identical to the scratch sweep pool,
        // so the gauges agree (F3 compares the metrics exposition).
        obs.registry
            .set_gauge("pool_bytes_sweep", pool.approx_bytes() as i64);
        obs.stage_end(
            "sweep",
            stage_wall_ms(stage_start),
            faults_group(sweep_fault),
            // The hit/miss split is interleaving-dependent in a scratch run
            // and meaningless for replayed groups; like the wall clock it is
            // quarantined, so the delta runner reports the deterministic
            // lookup total as misses.
            memo_group(MemoStats {
                hits: 0,
                misses: ghost_lookups - lookups_entry,
            }),
        );

        // ---- expansion round, incrementally -------------------------------
        obs.stage_start("expansion");
        let stage_start = stage_clock();
        let expansion_stats = if cfg.run_expansion {
            let mut expansion_specs = Vec::new();
            let prefixes = pool.expansion_prefixes();
            for &region in regions {
                for epoch in 0..epochs {
                    for p in &prefixes {
                        let base = p.base().slash24_base();
                        let targets: Vec<Ipv4> = cm_net::Prefix::slash24_of(base)
                            .hosts()
                            .filter(|a| a.host_byte() != 1)
                            .collect();
                        expansion_specs.push(GroupSpec {
                            key: GroupKey {
                                region,
                                epoch,
                                slot: base.to_u32(),
                            },
                            targets,
                            dst24s: vec![base.to_u32()],
                        });
                    }
                }
            }
            run_stats.expansion_groups = expansion_specs.len();
            obs.span_start("refresh");
            let span_clock = stage_clock();
            run_stats.expansion_synthesized = refresh_dirty(
                finish_plane,
                worker_planes,
                primary,
                &expansion_specs,
                &annotator,
                cloud_org,
                note_cache,
                &obs,
                &mut self.expansion_cache,
                &mut self.memo_refs,
            );
            obs.span_end(
                "refresh",
                Some(stage_wall_ms(span_clock)),
                vec![
                    ("groups", run_stats.expansion_groups as u64),
                    ("synthesized", run_stats.expansion_synthesized as u64),
                ],
            );
            let lookups_entry = ghost_lookups;
            obs.span_start("splice");
            let span_clock = stage_clock();
            let (round2, stats, expansion_fault) = splice_round(
                &expansion_specs,
                &self.expansion_cache,
                &annotator,
                cloud_org,
                note_cache,
                &obs,
                &mut ghost_lookups,
            );
            obs.span_end(
                "splice",
                Some(stage_wall_ms(span_clock)),
                vec![
                    ("pool_merges", expansion_specs.len() as u64),
                    ("probes", stats.launched as u64),
                    ("memo_lookups", ghost_lookups - lookups_entry),
                ],
            );
            ghost_fault.absorb(expansion_fault);
            pool.merge(round2);
            self_check(&pool, "expansion merge")?;
            obs.registry
                .set_gauge("pool_bytes_expansion", pool.approx_bytes() as i64);
            obs.stage_end(
                "expansion",
                stage_wall_ms(stage_start),
                faults_group(expansion_fault),
                memo_group(MemoStats {
                    hits: 0,
                    misses: ghost_lookups - lookups_entry,
                }),
            );
            Some(stats)
        } else {
            obs.note("expansion disabled by config");
            obs.registry
                .set_gauge("pool_bytes_expansion", pool.approx_bytes() as i64);
            obs.stage_end(
                "expansion",
                stage_wall_ms(stage_start),
                faults_group(FaultImpact::default()),
                memo_group(MemoStats::default()),
            );
            None
        };
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_eabi = table1_row(pool.abis.values());
        // cm-lint: allow(D4_MAP_ORDER, table1_row takes commutative count/fraction tallies; value order is immaterial)
        let t1_ecbi = table1_row(pool.cbis.values().map(|c| &c.note));
        let table1 = [t1_abi, t1_cbi, t1_eabi, t1_ecbi];

        // ---- downstream stages, live on the persistent plane --------------
        let atlas = finish_atlas(
            inet,
            cfg,
            self.seed,
            obs,
            finish_plane,
            pd,
            pool,
            sweep_stats,
            expansion_stats,
            table1,
            ProbeAccounting::Ghost {
                fault: ghost_fault,
                memo_lookups: ghost_lookups,
                group_keys: &self.memo_refs,
            },
        )?;

        // ---- churn against the previously run era -------------------------
        let view = ChurnView::of(&atlas);
        let churn = self
            .prev_view
            .replace(view.clone())
            .map(|prev| ChurnReport::between(era, &prev, &view));
        if let Some(report) = &churn {
            report.export_obs(&atlas.obs.registry);
            atlas
                .obs
                .note(format!("churn report: {}", report.to_jsonl()));
        }
        Ok(DeltaEpoch {
            atlas,
            churn,
            stats: run_stats,
        })
    }
}

/// Re-probes every group whose cached product is missing or whose flap
/// decisions no longer match, inserting fresh products into `cache`.
/// Returns the number of groups synthesized.
///
/// Workers pull dirty groups off an atomic counter and execute the probes
/// on their own persistent plane (exclusive during the group, so the
/// fault-impact and route-memo `since`-deltas attribute exactly); the
/// coordinator folds finished groups strictly in dirty-list order, like
/// the sharded executor, so every product is worker-count invariant.
///
/// The coordinator emits one flight-recorder span per dirty group —
/// attributing the era's incremental cost to the individual groups that
/// caused it. The dirty list is a pure function of the cache and the
/// era's flap decisions and the fold runs in dirty-list order, so the
/// span stream is byte-identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn refresh_dirty(
    finish_plane: &DataPlane<'_>,
    worker_planes: &[DataPlane<'_>],
    cloud: CloudId,
    specs: &[GroupSpec],
    annotator: &Annotator<'_>,
    cloud_org: OrgId,
    note_cache: &NoteCache,
    obs: &ObsSink,
    cache: &mut HashMap<GroupKey, GroupProduct>,
    memo_refs: &mut HashMap<MemoKey, u32, FxBuild>,
) -> usize {
    let mut dirty: Vec<&GroupSpec> = Vec::new();
    let mut decisions: Vec<Vec<bool>> = Vec::new();
    for spec in specs {
        let fresh = |d: u32| finish_plane.flap_decision(d, spec.key.epoch);
        // Compare in place: materializing the decision vector for every
        // clean group would be tens of thousands of allocations per era.
        let stale = match cache.get(&spec.key) {
            Some(p) => {
                p.decisions.len() != spec.dst24s.len()
                    || spec
                        .dst24s
                        .iter()
                        .zip(&p.decisions)
                        .any(|(&d, &dec)| fresh(d) != dec)
            }
            None => true,
        };
        if stale {
            dirty.push(spec);
            decisions.push(spec.dst24s.iter().map(|&d| fresh(d)).collect());
        }
    }
    if dirty.is_empty() {
        return 0;
    }
    let n = dirty.len();
    let workers = worker_planes.len().min(n).max(1);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Bounded, like the sharded executor's channel: in the cold era 0
        // the synthesis workers outrun the folding coordinator, and an
        // unbounded channel held their finished groups in memory. Created
        // inside the scope so a panicking fold drops the receiver (failing
        // the workers' blocked sends) before the scope joins them.
        let (tx, rx) = mpsc::sync_channel::<(usize, RawGroup)>(2 * workers);
        for plane in &worker_planes[..workers] {
            let tx = tx.clone(); // cm-lint: allow(P2_CLONE, one sender clone per worker thread at spawn)
            let next = &next;
            let dirty = &dirty;
            scope.spawn(move || {
                plane.memo_set_key_log(true);
                let mut tr = Traceroute::empty(cloud, RegionId(0));
                loop {
                    let w = next.fetch_add(1, Ordering::Relaxed);
                    if w >= n {
                        break;
                    }
                    let spec = dirty[w];
                    let fault_before = plane.fault_impact();
                    let memo_before = plane.route_memo_stats();
                    // One probe cursor per group: an expansion group is
                    // exactly one (region, epoch, /24) run. The batch is
                    // sent to the coordinator, so it cannot be reused.
                    let (region, epoch) = (spec.key.region, spec.key.epoch);
                    let mut prober = plane.prober(cloud, region, epoch);
                    let mut traces = TraceBatch::with_capacity(cloud, region, spec.targets.len());
                    for &t in &spec.targets {
                        prober.trace_into(t, &mut tr);
                        traces.push(&tr);
                    }
                    let memo = plane.route_memo_stats().since(memo_before);
                    let raw = RawGroup {
                        traces,
                        fault: plane.fault_impact().since(fault_before),
                        memo_lookups: memo.hits + memo.misses,
                        memo_keys: plane.memo_drain_key_log(),
                    };
                    if tx.send((w, raw)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // In-order fold, buffering early arrivals (executor pattern). A
        // recv error means a worker panicked; the scope exit re-raises it.
        // One scratch bundle (annotation memo + per-trace buffers) is
        // threaded through all group collectors so the memo stays warm.
        let mut pending: HashMap<usize, RawGroup> = HashMap::new();
        let mut scratch = CollectorScratch::default();
        let mut tr = Traceroute::empty(cloud, RegionId(0));
        'fold: for (w, cur) in decisions.into_iter().enumerate() {
            let raw = loop {
                if let Some(r) = pending.remove(&w) {
                    break r;
                }
                match rx.recv() {
                    Ok((got, r)) if got == w => break r,
                    Ok((got, r)) => {
                        pending.insert(got, r);
                    }
                    Err(_) => break 'fold,
                }
            };
            let spec = dirty[w];
            // Span name = the group identity, so a flamegraph of a delta
            // era shows exactly which dirty groups the cost went to.
            let span = format!(
                "g{}-{}-{}",
                spec.key.region.0, spec.key.epoch, spec.key.slot
            );
            obs.span_start(&span);
            let mut collector = BorderCollector::with_scratch(
                annotator,
                cloud_org,
                note_cache,
                std::mem::take(&mut scratch),
            );
            let mut tally = ProbeTally::default();
            raw.traces.replay(&mut tr, |t| {
                tally.absorb(t);
                collector.observe(t);
            });
            obs.span_end(
                &span,
                None,
                vec![
                    ("probes", raw.traces.len() as u64),
                    ("memo_lookups", raw.memo_lookups),
                ],
            );
            let (group_pool, reclaimed) = collector.finish_reclaim();
            scratch = reclaimed;
            for k in &raw.memo_keys {
                *memo_refs.entry(*k).or_insert(0) += 1;
            }
            let old = cache.insert(
                spec.key,
                GroupProduct {
                    pool: group_pool,
                    tally,
                    fault: raw.fault,
                    memo_lookups: raw.memo_lookups,
                    memo_keys: raw.memo_keys,
                    decisions: cur,
                },
            );
            if let Some(old) = old {
                for k in &old.memo_keys {
                    match memo_refs.get_mut(k) {
                        Some(1) => {
                            memo_refs.remove(k);
                        }
                        Some(n) => *n -= 1,
                        None => debug_assert!(false, "memo refcount underflow"),
                    }
                }
            }
        }
    });
    n
}

/// Merges every group product of one round — cached or freshly
/// synthesized — in canonical `(region, epoch, slot)` order, reproducing
/// byte for byte the pool a from-scratch per-region fold would build, and
/// sums the groups' probe tallies into one flush — the same per-round
/// registry contribution the sharded executor makes. Returns the
/// round's pool, campaign stats and fault-impact delta, and accumulates
/// the ghost route-memo lookup total for `finish_atlas` (the distinct-key
/// side lives in the engine's persistent `memo_refs`).
#[allow(clippy::too_many_arguments)]
fn splice_round(
    specs: &[GroupSpec],
    cache: &HashMap<GroupKey, GroupProduct>,
    annotator: &Annotator<'_>,
    cloud_org: OrgId,
    note_cache: &NoteCache,
    obs: &ObsSink,
    ghost_lookups: &mut u64,
) -> (SegmentPool, CampaignStats, FaultImpact) {
    let mut pool = BorderCollector::with_cache(annotator, cloud_org, note_cache).finish();
    let mut tally = ProbeTally::default();
    let mut fault = FaultImpact::default();
    for spec in specs {
        let p = cache
            .get(&spec.key)
            // cm-lint: allow(L1_UNWRAP, guarded by containment: refresh_dirty synthesized every missing group)
            .expect("refresh_dirty synthesized every missing group");
        pool.merge_ref(&p.pool);
        tally.merge(&p.tally);
        fault.absorb(p.fault);
        *ghost_lookups += p.memo_lookups;
    }
    tally.flush(&obs.registry);
    (pool, tally.stats, fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    type IfaceRow = (u32, Option<(u16, u8)>, Option<u32>, bool);

    fn view(peers: &[u32], ifaces: &[IfaceRow], segments: &[(u32, u32)]) -> ChurnView {
        ChurnView {
            peers: peers.iter().copied().collect(),
            ifaces: ifaces
                .iter()
                .map(|&(a, m, r, v)| (Ipv4(a), (m, r, v)))
                .collect(),
            segments: segments.iter().map(|&(a, c)| (Ipv4(a), Ipv4(c))).collect(),
        }
    }

    #[test]
    fn churn_report_counts_every_axis() {
        let prev = view(
            &[64500, 64501],
            &[
                (10, Some((3, 0)), None, false), // pin moves
                (11, None, Some(7), true),       // vpi flickers off
                (12, None, None, false),         // vanishes
            ],
            &[(1, 10), (1, 11)],
        );
        let cur = view(
            &[64500, 64502], // 64501 vanished, 64502 appeared
            &[
                (10, Some((4, 0)), None, false),
                (11, None, Some(7), false),
                (13, None, None, false), // appears
            ],
            &[(1, 10), (2, 13)], // (1,11) removed, (2,13) added
        );
        let report = ChurnReport::between(5, &prev, &cur);
        assert_eq!(
            report,
            ChurnReport {
                era: 5,
                peers_appeared: 1,
                peers_vanished: 1,
                ifaces_appeared: 1,
                ifaces_vanished: 1,
                pins_moved: 1,
                vpi_flicker: 1,
                icg_edges_added: 1,
                icg_edges_removed: 1,
            }
        );
    }

    #[test]
    fn identical_views_yield_an_all_zero_report() {
        let v = view(&[64500], &[(10, None, None, false)], &[(1, 10)]);
        let report = ChurnReport::between(2, &v, &v);
        assert_eq!(
            report,
            ChurnReport {
                era: 2,
                ..ChurnReport::default()
            }
        );
    }

    #[test]
    fn jsonl_rendering_is_stable_and_keyed() {
        let report = ChurnReport {
            era: 3,
            peers_appeared: 1,
            pins_moved: 2,
            ..ChurnReport::default()
        };
        let line = report.to_jsonl();
        assert_eq!(line, report.to_jsonl());
        for key in [
            "\"era\":3",
            "\"peers_appeared\":1",
            "\"pins_moved\":2",
            "\"vpi_flicker\":0",
            "\"icg_edges_removed\":0",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains(' '), "JSONL line must be compact: {line}");
    }

    #[test]
    fn churn_counters_export_to_a_live_registry() {
        let report = ChurnReport {
            era: 1,
            peers_appeared: 2,
            vpi_flicker: 3,
            ..ChurnReport::default()
        };
        let registry = Registry::new();
        report.export_obs(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("churn_peers_appeared"), Some(2));
        assert_eq!(snap.counter("churn_vpi_flicker"), Some(3));
        assert_eq!(snap.counter("churn_pins_moved"), Some(0));
    }
}
