//! The traced run: per-layer metrics, from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! It never produces the end-to-end numbers. It runs one small study, the
//! layer primitives on that study's own inputs and products, a few churn
//! eras and a serve round, and reports the study, era and round times it
//! saw (`trace.*`) so the tracing overhead shows beside the untraced run.

use crate::load::{self, CLIENTS};
use crate::refs::Refs;
use crate::stats::{median, Tracer};
use crate::workloads::{
    churn_config, clean_config, cold_start, digest_check, serve_rounds, Budget, Outcome,
};
use cloudmap::annotate::NoteCache;
use cloudmap::borders::{BorderCollector, SegmentPool};
use cloudmap::groups::Grouping;
use cloudmap::icg::Icg;
use cloudmap::pinning::Pinner;
use cloudmap::verify::{apply_alias_corrections, run_heuristics};
use cm_bench::{build_internet, run_study_with, AtlasSummary};
use cm_bgp::RouteMemo;
use cm_dataplane::{publicly_reachable, DataPlane};
use cm_net::Ipv4;
use cm_probe::Campaign;
use cm_serve::{AtlasSnapshot, Engine, QueryKind};
use cm_topology::CloudId;
use std::hint::black_box;
use std::path::Path;

/// Eras after era 0 the traced run measures.
const ERAS: u32 = 3;
/// Repetitions of the millisecond serve set-up calls.
const SERVE_SETUPS: usize = 15;
/// Batches per single-family serve stream.
const FAMILY_BATCHES: usize = 4096;
/// Mixed-stream rounds.
const ROUNDS: usize = 20;
/// Sweep targets per delta-engine probe group.
const GROUP_TARGETS: usize = 16;

/// The stage names a study records, in order, with their metric names.
const STAGES: [(&str, &str); 8] = [
    ("public-data", "stage.public_data_s"),
    ("sweep", "stage.sweep_s"),
    ("expansion", "stage.expansion_s"),
    ("verify", "stage.verify_s"),
    ("rtt", "stage.rtt_s"),
    ("pinning", "stage.pinning_s"),
    ("vpi", "stage.vpi_s"),
    ("grouping", "stage.grouping_s"),
];
/// The §5–§7 stages that finish an atlas after probing.
const FINISH: [&str; 5] = ["verify", "rtt", "pinning", "vpi", "grouping"];

/// Runs `f` in a span and returns its value with the span's seconds.
fn timed<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = tr.open(name);
    let v = f();
    tr.close(id);
    (v, tr.secs(id))
}

/// Records `timings`' stages as children of span `parent`, laid end to
/// end from its start, and returns the seconds they cover.
fn stage_children(tr: &mut Tracer, parent: usize, timings: &cloudmap::StageTimings) -> f64 {
    let mut at = tr.start_ns(parent);
    for (name, wall) in &timings.stages {
        let end = at + wall.as_nanos() as u64;
        tr.record(parent, name, at, end);
        at = end;
    }
    timings.total().as_secs_f64()
}

/// The traced run. `spans`, when given, receives every span as JSONL.
pub fn run(refs: &Refs, seed: u64, spans: Option<&Path>) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut out = Outcome::new();
    let cloud = CloudId(0);

    // ---- topology, and the study the primitives take their inputs from --
    let (inet, secs) = timed(&mut tr, "topology.generate", || {
        build_internet("small", refs.world_seed)
    });
    out.metric("topology.generate_s", secs, "s");
    let study = tr.open("study");
    let atlas = run_study_with(&inet, clean_config());
    tr.close(study);
    let staged = stage_children(&mut tr, study, &atlas.timings);
    let study_s = tr.secs(study);
    let ok = digest_check(
        &mut out,
        "study",
        AtlasSummary::of(&atlas).digest(),
        Some(refs.study),
    );
    out.op(ok);
    out.metric("trace.study_s", study_s, "s");
    out.metric("study.stage_share", staged / study_s, "ratio");
    for (stage, metric) in STAGES {
        let wall = atlas
            .timings
            .wall(stage)
            .map_or(f64::NAN, |d| d.as_secs_f64());
        out.metric(metric, wall, "s");
    }
    out.metric(
        "bgp.memo_hit_ratio",
        atlas.timings.memo_total().hit_rate(),
        "ratio",
    );
    let launched =
        atlas.sweep_stats.launched + atlas.expansion_stats.as_ref().map_or(0, |s| s.launched);
    out.metric("probe.traces", launched as f64, "count");

    // ---- bgp and dataplane, on the sweep's own targets ---------------------
    let plane = DataPlane::new(&inet, atlas.config.dataplane);
    let regions = inet.primary_cloud().regions.clone();
    let targets = Campaign::new(&plane, cloud).sweep_targets();
    let probes = (regions.len() * targets.len()) as f64;
    let table = &plane.tables[&cloud];
    let memo = RouteMemo::new();
    let lookup_all = || {
        for &r in &regions {
            for &t in &targets {
                black_box(memo.route_at(table, &inet, t, r, 0));
            }
        }
    };
    let ((), cold) = timed(&mut tr, "bgp.route_at cold", lookup_all);
    let ((), warm) = timed(&mut tr, "bgp.route_at warm", lookup_all);
    out.metric("bgp.route_cold_ns", cold * 1e9 / probes, "ns");
    out.metric("bgp.route_warm_ns", warm * 1e9 / probes, "ns");

    let trace_all = || {
        let mut traces = Vec::with_capacity(probes as usize);
        for &r in &regions {
            for &t in &targets {
                traces.push(plane.traceroute_at(cloud, r, t, 0));
            }
        }
        traces
    };
    let (traces, cold) = timed(&mut tr, "dataplane.traceroute_at cold", trace_all);
    let (again, warm) = timed(&mut tr, "dataplane.traceroute_at warm", trace_all);
    drop(again);
    out.metric("dataplane.trace_cold_ns", cold * 1e9 / probes, "ns");
    out.metric("dataplane.trace_warm_ns", warm * 1e9 / probes, "ns");

    let mut rtt_targets: Vec<Ipv4> = atlas.pool.abis.keys().copied().collect();
    rtt_targets.extend(atlas.pool.cbis.keys().copied());
    rtt_targets.extend(atlas.datasets.ixp.published_addrs().map(|(a, _)| a));
    rtt_targets.sort_unstable();
    rtt_targets.dedup();
    let attempts = atlas.config.rtt_attempts;
    let ((), secs) = timed(&mut tr, "dataplane.ping_min_rtt", || {
        for &r in &regions {
            for &t in &rtt_targets {
                black_box(plane.ping_min_rtt(cloud, r, t, attempts));
            }
        }
    });
    out.metric(
        "dataplane.ping_ns",
        secs * 1e9 / (regions.len() * rtt_targets.len()) as f64,
        "ns",
    );

    // ---- annotate and net, per responding hop -----------------------------
    let hops: Vec<Ipv4> = traces.iter().flat_map(|t| t.responding_addrs()).collect();
    let per_hop = 1e9 / hops.len() as f64;
    let annotator = atlas.annotator();
    let ((), secs) = timed(&mut tr, "annotate.annotate", || {
        for &a in &hops {
            black_box(annotator.annotate(a));
        }
    });
    out.metric("annotate.annotate_ns", secs * per_hop, "ns");
    let cache = NoteCache::new();
    let note_all = || {
        for &a in &hops {
            black_box(cache.note_of(&annotator, a));
        }
    };
    timed(&mut tr, "annotate.note_of fill", note_all);
    let ((), secs) = timed(&mut tr, "annotate.note_of warm", note_all);
    out.metric("annotate.cache_ns", secs * per_hop, "ns");
    let ((), secs) = timed(&mut tr, "net.longest_match", || {
        for &a in &hops {
            black_box(atlas.snapshot.longest_match(a));
        }
    });
    out.metric("net.lpm_ns", secs * per_hop, "ns");
    drop(hops);

    // ---- borders: observe, merge and the delta engine's merge_ref ----------
    let org = atlas.cloud_org;
    let per_region = targets.len();
    let (collectors, secs) = timed(&mut tr, "borders.observe", || {
        traces
            .chunks(per_region)
            .map(|region| {
                let mut c = BorderCollector::with_cache(&annotator, org, &cache);
                for t in region {
                    c.observe(t);
                }
                c
            })
            .collect::<Vec<_>>()
    });
    out.metric("borders.observe_ns", secs * 1e9 / probes, "ns");
    let mut region_pools = collectors.into_iter().map(BorderCollector::finish);
    let mut sweep_pool = region_pools.next().ok_or("the cloud has no regions")?;
    for p in region_pools {
        sweep_pool.merge(p);
    }
    out.metric(
        "borders.accept_ratio",
        sweep_pool.accepted as f64 / probes,
        "ratio",
    );

    let groups: Vec<SegmentPool> = tr.span("borders.group pools", || {
        traces
            .chunks(per_region)
            .flat_map(|region| region.chunks(GROUP_TARGETS))
            .map(|group| {
                let mut c = BorderCollector::with_cache(&annotator, org, &cache);
                for t in group {
                    c.observe(t);
                }
                c.finish()
            })
            .collect()
    });
    drop(traces);
    let (spliced, secs) = timed(&mut tr, "borders.merge_ref", || {
        let mut acc = BorderCollector::new(&annotator, org).finish();
        for g in &groups {
            acc.merge_ref(g);
        }
        acc
    });
    out.metric("borders.merge_ref_ms", secs * 1e3, "ms");
    drop((groups, spliced));

    let expansion_pool = tr.span("probe.expansion round", || {
        let campaign = Campaign::new(&plane, cloud);
        let exp_targets = campaign.expansion_targets(&sweep_pool.expansion_prefixes());
        let (collectors, _) = campaign.run_sharded(
            &exp_targets,
            1,
            1,
            || BorderCollector::with_cache(&annotator, org, &cache),
            |c, t| c.observe(t),
        );
        let mut pools = collectors.into_iter().map(BorderCollector::finish);
        let first = pools.next();
        first.map(|mut acc| {
            pools.for_each(|p| acc.merge(p));
            acc
        })
    });
    let expansion_pool = expansion_pool.ok_or("the cloud has no regions")?;
    let ((), secs) = timed(&mut tr, "borders.merge", || {
        sweep_pool.merge(expansion_pool)
    });
    out.metric("borders.merge_ms", secs * 1e3, "ms");
    drop(sweep_pool);

    // ---- verify, alias, pinning, vpi, groups, icg on the atlas's products --
    let seed_mix = inet.seed ^ atlas.config.seed;
    let ((), secs) = timed(&mut tr, "verify.run_heuristics", || {
        black_box(run_heuristics(&atlas.pool, |a| {
            publicly_reachable(&inet, a)
        }));
    });
    out.metric("verify.heuristics_ms", secs * 1e3, "ms");
    let mut addrs: Vec<Ipv4> = atlas.pool.abis.keys().copied().collect();
    addrs.extend(atlas.pool.cbis.keys().copied());
    addrs.sort_unstable();
    let (alias_sets, secs) = timed(&mut tr, "alias.resolve_all_regions", || {
        cm_alias::resolve_all_regions(&inet, cloud, &addrs, seed_mix)
    });
    out.metric("alias.resolve_ms", secs * 1e3, "ms");
    let mut pool = atlas.pool.clone();
    let datasets = &atlas.datasets;
    let ((), secs) = timed(&mut tr, "verify.apply_alias_corrections", || {
        black_box(apply_alias_corrections(
            &mut pool,
            &annotator,
            org,
            |asn| datasets.as2org.org_of(asn),
            &alias_sets,
        ));
    });
    out.metric("verify.corrections_ms", secs * 1e3, "ms");
    drop(pool);
    let pinner = Pinner {
        pool: &atlas.pool,
        dns: &atlas.dns,
        rtt: &atlas.rtt,
        datasets,
        alias_sets: &atlas.alias_sets,
        region_metro: &atlas.region_metro,
        catalog: &inet.metros,
        cfg: atlas.config.pinning,
    };
    let (_, secs) = timed(&mut tr, "pinning.run", || black_box(pinner.run()));
    out.metric("pinning.pin_ms", secs * 1e3, "ms");
    let (_, secs) = timed(&mut tr, "pinning.cross_validate", || {
        black_box(pinner.cross_validate(atlas.config.crossval_folds, 0.7, seed_mix))
    });
    out.metric("pinning.crossval_ms", secs * 1e3, "ms");
    let secondary: Vec<_> = inet
        .clouds
        .iter()
        .skip(1)
        .filter_map(|c| {
            let asn = inet.as_node(c.ases[0]).asn;
            datasets.as2org.org_of(asn).map(|o| (c.id, o))
        })
        .collect();
    let (_, secs) = timed(&mut tr, "vpi.detect", || {
        black_box(cloudmap::vpi::detect(
            &plane,
            &annotator,
            &atlas.pool,
            &secondary,
            1,
            None,
        ))
    });
    out.metric("vpi.detect_ms", secs * 1e3, "ms");
    let (_, secs) = timed(&mut tr, "groups.build", || {
        black_box(Grouping::build(
            &atlas.pool,
            &atlas.vpi,
            &datasets.asrel,
            &atlas.cloud_asns,
            &atlas.pinning,
            &atlas.segment_diffs,
            &atlas.snapshot,
        ))
    });
    out.metric("groups.build_ms", secs * 1e3, "ms");
    let (_, secs) = timed(&mut tr, "icg.build", || {
        black_box(Icg::build(&atlas.pool, &atlas.pinning))
    });
    out.metric("icg.build_ms", secs * 1e3, "ms");
    drop(plane);

    // ---- serve, on the study's own snapshot -------------------------------
    let snap = cm_bench::serve::snapshot_of(&atlas);
    drop(atlas);
    let bytes = snap.encode();
    let mut decode = Vec::new();
    let mut build = Vec::new();
    for _ in 0..SERVE_SETUPS {
        let (decoded, secs) = timed(&mut tr, "serve.decode", || AtlasSnapshot::decode(&bytes));
        decode.push(secs * 1e3);
        let decoded = decoded.map_err(|e| e.to_string())?;
        let (_, secs) = timed(&mut tr, "serve.build", || Engine::build(&decoded, CLIENTS));
        build.push(secs * 1e3);
    }
    out.metric("serve.decode_ms", median(&decode), "ms");
    out.metric("serve.build_ms", median(&build), "ms");
    let engine = Engine::build(&snap, CLIENTS);
    for (kind, ns_metric, hit_metric) in [
        (QueryKind::Point, "serve.point_ns", "serve.point_hit_ratio"),
        (
            QueryKind::LongestPrefix,
            "serve.lpm_ns",
            "serve.lpm_hit_ratio",
        ),
        (
            QueryKind::Neighbors,
            "serve.neighbors_ns",
            "serve.neighbors_hit_ratio",
        ),
    ] {
        let ((ns, hit), _) = timed(&mut tr, kind.span_name(), || {
            load::family_latency(&engine, seed, kind, FAMILY_BATCHES)
        });
        out.metric(ns_metric, ns, "ns");
        out.metric(hit_metric, hit, "ratio");
    }
    let (rounds, _) = timed(&mut tr, "serve.rounds", || {
        serve_rounds(&engine, &snap, refs, seed, Budget::Count(ROUNDS))
    });
    let qps = rounds
        .metrics
        .iter()
        .find(|m| m.name == "queries_per_s")
        .map_or(f64::NAN, |m| m.value);
    out.absorb(rounds, &[]);
    out.metric("trace.queries_per_s", qps, "1/s");
    drop((engine, snap));

    // ---- churn: eras of one delta engine ----------------------------------
    let (started, secs) = timed(&mut tr, "delta.cold start", || {
        cold_start(&inet, churn_config())
    });
    let (mut engine, era0) = started.map_err(|e| e.to_string())?;
    out.metric("delta.cold_start_s", secs, "s");
    let ok = digest_check(
        &mut out,
        "era 0",
        AtlasSummary::of(&era0.atlas).digest(),
        refs.eras.first().copied(),
    );
    out.op(ok);
    drop(era0);
    let mut era_s = Vec::new();
    let mut per_era: [Vec<f64>; 5] = Default::default();
    for era in 1..=ERAS {
        let id = tr.open(&format!("era {era}"));
        let epoch = engine.run_era(era).map_err(|e| e.to_string())?;
        tr.close(id);
        stage_children(&mut tr, id, &epoch.atlas.timings);
        let wall = tr.secs(id);
        era_s.push(wall);
        let want = refs.eras.get(era as usize).copied();
        let ok = digest_check(
            &mut out,
            &format!("era {era}"),
            AtlasSummary::of(&epoch.atlas).digest(),
            want,
        );
        out.op(ok);
        let s = epoch.stats;
        let profile =
            cm_bench::tracediff::profile_events("era", &epoch.atlas.obs.recorder.events());
        let span_s = |leaf: &str| {
            profile
                .paths
                .iter()
                .filter(|(p, _)| p.ends_with(leaf))
                .map(|(_, st)| st.wall_ms / 1e3)
                .sum::<f64>()
        };
        let finish: f64 = FINISH
            .iter()
            .filter_map(|s| epoch.atlas.timings.wall(s))
            .map(|d| d.as_secs_f64())
            .sum();
        for (v, x) in per_era.iter_mut().zip([
            (s.sweep_synthesized + s.expansion_synthesized) as f64,
            s.cache_hit_rate(),
            span_s(";refresh"),
            span_s(";splice"),
            finish / wall,
        ]) {
            v.push(x);
        }
    }
    out.metric("trace.era_s", median(&era_s), "s");
    for ((name, unit), v) in [
        ("delta.resynth_groups", "count"),
        ("delta.cache_hit_ratio", "ratio"),
        ("delta.refresh_s", "s"),
        ("delta.splice_s", "s"),
        ("delta.finish_share", "ratio"),
    ]
    .into_iter()
    .zip(&per_era)
    {
        out.metric(name, median(v), unit);
    }
    drop(engine);

    out.notes.push(format!(
        "traced: 1 study, {ERAS} eras after era 0, {ROUNDS} serve rounds; \
         per-call metrics are medians of {SERVE_SETUPS} calls or means over all inputs"
    ));
    out.notes.push(self_time_table(&tr));
    if let Some(path) = spans {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// Self time of every span with children, and of each stage, in ms.
fn self_time_table(tr: &Tracer) -> String {
    let mut table = String::from("span self times (ms):");
    for (id, s) in tr.spans().iter().enumerate() {
        let has_kids = tr.spans().iter().any(|k| k.parent == Some(id));
        if has_kids || s.parent.is_some() {
            table.push_str(&format!(
                "\n  {:<36} total {:>10.3}  self {:>10.3}",
                match s.parent {
                    Some(p) => format!("{} > {}", tr.spans()[p].name, s.name),
                    None => s.name.clone(),
                },
                s.dur_ns() as f64 / 1e6,
                tr.self_ns(id) as f64 / 1e6
            ));
        }
    }
    table
}
