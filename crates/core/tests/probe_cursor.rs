//! Reference test for the dataplane's probe cursor (`DataPlane::prober`):
//! a cursor that shares each `(region, /24, epoch)` path prefix must
//! produce exactly what fresh `traceroute_at` calls produce — the same
//! traceroutes, the same route-memo lookup total, the same drained
//! lookup-key set and the same fault impact — over every address of every
//! expansion /24 of the tiny world, from every primary region, at the
//! churn-free epoch, a churn epoch and a route-flap universe epoch.

use cloudmap::borders::BorderCollector;
use cloudmap::pipeline::{Pipeline, PipelineConfig};
use cm_dataplane::{DataPlane, DataPlaneConfig, FaultPlan, Traceroute};
use cm_net::{Ipv4, Prefix};
use cm_probe::Campaign;
use cm_topology::{CloudId, Internet, RegionId, TopologyConfig};

const EPOCHS: [u32; 3] = [0, 1, 1 ^ 0x4000_0000];
const CLOUD: CloudId = CloudId(0);

fn config(profile: &str) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.dataplane.faults = FaultPlan::named(profile).expect("registered profile");
    cfg
}

/// The /24s the pipeline's expansion round probes: the CBI /24s of its
/// sweep round, re-run here with the atlas's own annotator.
fn expansion_slash24s(inet: &Internet, cfg: PipelineConfig) -> Vec<Prefix> {
    let atlas = Pipeline::new(inet, cfg).run().expect("pipeline run");
    let annotator = atlas.annotator();
    let plane = DataPlane::new(inet, cfg.dataplane);
    let campaign = Campaign::new(&plane, CLOUD);
    let (collectors, _) = campaign.run_sharded(
        &campaign.sweep_targets(),
        cfg.sweep_epochs,
        1,
        || BorderCollector::new(&annotator, atlas.cloud_org),
        |c, t| c.observe(t),
    );
    let mut pools = collectors.into_iter().map(BorderCollector::finish);
    let mut pool = pools.next().expect("primary regions");
    pools.for_each(|p| pool.merge(p));
    pool.expansion_prefixes()
}

fn every_address(p: Prefix) -> impl Iterator<Item = Ipv4> {
    let base = p.base().slash24_base().to_u32();
    (0..256).map(move |k| Ipv4(base + k))
}

/// Probes `targets` from `region` at `epoch` on two identical planes — one
/// fresh traceroute per target on `fresh`, one cursor on `cursor` — and
/// asserts that traces, memo lookups, drained keys and fault impact agree.
fn check_run(
    fresh: &DataPlane<'_>,
    cursor: &DataPlane<'_>,
    region: RegionId,
    epoch: u32,
    targets: &[Ipv4],
) {
    let mut prober = cursor.prober(CLOUD, region, epoch);
    let mut out = Traceroute::empty(CLOUD, region);
    for &t in targets {
        let want = fresh.traceroute_at(CLOUD, region, t, epoch);
        prober.trace_into(t, &mut out);
        assert_eq!(out, want, "trace to {t} from {region} at epoch {epoch:#x}");
    }
    let (a, b) = (fresh.route_memo_stats(), cursor.route_memo_stats());
    assert_eq!(
        a.hits + a.misses,
        b.hits + b.misses,
        "memo lookups from {region} at epoch {epoch:#x}"
    );
    assert_eq!(
        fresh.memo_drain_key_log(),
        cursor.memo_drain_key_log(),
        "looked-up memo keys from {region} at epoch {epoch:#x}"
    );
    assert_eq!(
        fresh.fault_impact(),
        cursor.fault_impact(),
        "fault impact from {region} at epoch {epoch:#x}"
    );
}

fn planes(inet: &Internet, cfg: DataPlaneConfig) -> (DataPlane<'_>, DataPlane<'_>) {
    let (fresh, cursor) = (DataPlane::new(inet, cfg), DataPlane::new(inet, cfg));
    fresh.memo_set_key_log(true);
    cursor.memo_set_key_log(true);
    (fresh, cursor)
}

#[test]
fn cursor_equals_fresh_traceroutes_on_every_expansion_address() {
    let inet = Internet::generate(TopologyConfig::tiny(), 2019);
    let regions = &inet.primary_cloud().regions;
    for profile in ["clean", "route-flap"] {
        let cfg = config(profile);
        let prefixes = expansion_slash24s(&inet, cfg);
        assert!(
            prefixes.len() >= 10,
            "{profile}: {} expansion /24s",
            prefixes.len()
        );
        let targets: Vec<Ipv4> = prefixes.iter().flat_map(|&p| every_address(p)).collect();
        let owned = targets
            .iter()
            .filter(|a| inet.iface_by_addr.contains_key(a))
            .count();
        assert!(owned > 0, "{profile}: no interface-owning target");
        let (fresh, cursor) = planes(&inet, cfg.dataplane);
        for &region in regions {
            for epoch in EPOCHS {
                check_run(&fresh, &cursor, region, epoch, &targets);
            }
        }
        if profile == "route-flap" {
            assert!(
                cursor.fault_impact().route_flap > 0,
                "the flap profile diverted no route"
            );
        }
    }
}

#[test]
fn cursor_is_exact_in_any_target_order() {
    let inet = Internet::generate(TopologyConfig::tiny(), 2019);
    let cfg = config("route-flap");
    let prefixes = expansion_slash24s(&inet, cfg);
    let owners: Vec<Ipv4> = prefixes
        .iter()
        .flat_map(|&p| every_address(p))
        .filter(|a| inet.iface_by_addr.contains_key(a))
        .collect();
    assert!(!owners.is_empty());
    let (fresh, cursor) = planes(&inet, cfg.dataplane);
    let region = inet.primary_cloud().regions[0];
    for pair in prefixes.windows(2) {
        let (p, q) = (pair[0].base().to_u32(), pair[1].base().to_u32());
        let mut targets = Vec::new();
        // Two /24s interleaved address by address, an interface-owning
        // target after every pair, then one /24 run with an owner in the
        // middle of it.
        for k in 0..256u32 {
            targets.push(Ipv4(p + k));
            targets.push(Ipv4(q + k));
            targets.push(owners[k as usize % owners.len()]);
        }
        for k in 0..256u32 {
            if k == 128 {
                targets.push(owners[0]);
            }
            targets.push(Ipv4(q + k));
        }
        for epoch in EPOCHS {
            check_run(&fresh, &cursor, region, epoch, &targets);
        }
    }
}
