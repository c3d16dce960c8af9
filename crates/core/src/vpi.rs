//! Virtual private interconnect detection (§7.1).
//!
//! A VPI is a single client port that exchanges traffic with one or more
//! clouds over a cloud-exchange fabric. The detection method exploits
//! exactly that: build a target pool around the primary cloud's non-IXP
//! CBIs, probe it **from other clouds**, run the same border inference
//! there, and call any CBI observed from two or more clouds a VPI.
//!
//! The result is a *lower bound*: single-cloud VPIs and VPIs on private
//! (VPC) addressing are invisible to the method — the basis of the paper's
//! §7.3 hypothesis that many Pr-nB-nV peerings are VPIs too.

use crate::annotate::{Annotator, NoteSource};
use crate::borders::{BorderCollector, SegmentPool};
use cm_dataplane::DataPlane;
use cm_net::{Ipv4, OrgId};
use cm_probe::{Campaign, CampaignStats};
use cm_topology::CloudId;
use std::collections::HashSet;

/// Outcome of the multi-cloud probing.
#[derive(Clone, Debug, Default)]
pub struct VpiDetection {
    /// Size of the probed target pool.
    pub pool_size: usize,
    /// Primary-cloud non-IXP CBIs (the candidates).
    pub candidates: usize,
    /// Per secondary cloud: (cloud name, CBIs overlapping the primary's).
    pub per_cloud: Vec<(String, HashSet<Ipv4>)>,
    /// All CBIs identified as VPI ports.
    pub vpi_cbis: HashSet<Ipv4>,
    /// Campaign stats summed across all secondary clouds; part of the
    /// launch-conservation invariant `cm-audit`'s O1 rule checks.
    pub campaign: CampaignStats,
}

impl VpiDetection {
    /// Table 4, first row: pairwise overlap counts per secondary cloud.
    pub fn pairwise(&self) -> Vec<(String, usize)> {
        self.per_cloud
            .iter()
            .map(|(n, s)| (n.clone(), s.len()))
            .collect()
    }

    /// Table 4, second row: cumulative overlap counts in cloud order.
    pub fn cumulative(&self) -> Vec<(String, usize)> {
        let mut acc: HashSet<Ipv4> = HashSet::new();
        self.per_cloud
            .iter()
            .map(|(n, s)| {
                acc.extend(s.iter().copied());
                (n.clone(), acc.len())
            })
            .collect()
    }

    /// Fraction of candidate CBIs identified as VPIs (the paper's ≈ 20%).
    pub fn vpi_share(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.vpi_cbis.len() as f64 / self.candidates as f64
        }
    }
}

/// Builds the probing pool: every non-IXP CBI, its `+1` neighbour, and the
/// destination of the traceroute that first revealed it.
pub fn build_target_pool(pool: &SegmentPool) -> Vec<Ipv4> {
    let mut targets: HashSet<Ipv4> = HashSet::new();
    // cm-lint: allow(D4_MAP_ORDER, set inserts commute and the target pool is sorted before probing)
    for (&cbi, info) in &pool.cbis {
        if info.note.source == NoteSource::Ixp {
            continue;
        }
        targets.insert(cbi);
        targets.insert(cbi.saturating_next());
        targets.insert(info.first_dst);
    }
    let mut v: Vec<Ipv4> = targets.into_iter().collect();
    v.sort_unstable();
    v
}

/// Probes the pool from every secondary cloud and intersects the resulting
/// CBI sets with the primary's.
///
/// `clouds` lists the vantage clouds as `(cloud id, that cloud's org)`; the
/// same [`Annotator`] serves all clouds (public datasets are global).
/// `workers` sizes the sharded probing executor (0 = one per available
/// core) and never affects the result. `obs`, when present, receives
/// per-probe outcome counters and hop histograms.
pub fn detect(
    plane: &DataPlane<'_>,
    annotator: &Annotator<'_>,
    primary_pool: &SegmentPool,
    clouds: &[(CloudId, OrgId)],
    workers: usize,
    obs: Option<&cm_obs::ObsSink>,
) -> VpiDetection {
    let targets = build_target_pool(primary_pool);
    let candidates: HashSet<Ipv4> = primary_pool
        .cbis
        .iter()
        .filter(|(_, i)| i.note.source != NoteSource::Ixp)
        .map(|(&a, _)| a)
        .collect();

    let mut out = VpiDetection {
        pool_size: targets.len(),
        candidates: candidates.len(),
        ..VpiDetection::default()
    };
    for &(cloud, org) in clouds {
        let campaign = Campaign::new(plane, cloud);
        let (collectors, stats) = campaign.run_sharded_obs(
            &targets,
            1,
            workers,
            obs,
            || BorderCollector::new(annotator, org),
            |c, t| c.observe(t),
        );
        out.campaign.merge(&stats);
        let mut pools = collectors.into_iter().map(BorderCollector::finish);
        // cm-lint: allow(L1_UNWRAP, guarded by construction: one collector per region of the vantage cloud)
        let mut their_pool = pools.next().expect("vantage cloud has regions");
        for p in pools {
            their_pool.merge(p);
        }
        let overlap: HashSet<Ipv4> = their_pool
            .cbis
            .keys()
            .filter(|a| candidates.contains(a))
            .copied()
            .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the per-cloud overlap set is the detection output itself)
                        // cm-lint: allow(D4_MAP_ORDER, set union; extending a set commutes, so source order is immaterial)
        out.vpi_cbis.extend(overlap.iter().copied());
        let name = plane.inet.clouds[cloud.index()].name.clone(); // cm-lint: allow(P2_CLONE, one cloud-name copy per compared cloud for the report)
        out.per_cloud.push((name, overlap));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::HopNote;
    use crate::borders::CbiInfo;
    use cm_net::Asn;

    fn mk_pool() -> SegmentPool {
        // Build a small pool by hand through the public API surface.
        let mut pool = {
            // SegmentPool has no public constructor; go through a collector
            // with no traces, then inject CBIs directly.
            let snap = cm_net::PrefixTrie::<Asn>::new();
            let inet = cm_topology::Internet::generate(cm_topology::TopologyConfig::tiny(), 3);
            let ds = cm_datasets::PublicDatasets::derive(
                &inet,
                cm_datasets::DatasetConfig::default(),
                &std::collections::HashSet::new(),
                3,
            );
            let ann = Annotator::new(&snap, &ds);
            BorderCollector::new(&ann, OrgId(1)).finish()
        };
        let mk = |_s: &str, src: NoteSource| CbiInfo {
            note: HopNote {
                asn: Asn(1),
                org: OrgId(2),
                ixp: matches!(src, NoteSource::Ixp).then_some(0),
                source: src,
            },
            first_dst: "9.9.9.9".parse().unwrap(),
            reachable_slash24: Default::default(),
        };
        pool.cbis
            .insert("1.2.3.4".parse().unwrap(), mk("x", NoteSource::Bgp));
        pool.cbis
            .insert("5.6.7.8".parse().unwrap(), mk("y", NoteSource::Ixp));
        pool
    }

    #[test]
    fn pool_excludes_ixp_cbis_and_adds_neighbours() {
        let pool = mk_pool();
        let targets = build_target_pool(&pool);
        let t: HashSet<String> = targets.iter().map(|a| a.to_string()).collect();
        assert!(t.contains("1.2.3.4"));
        assert!(t.contains("1.2.3.5"), "+1 neighbour missing");
        assert!(t.contains("9.9.9.9"), "original destination missing");
        assert!(!t.contains("5.6.7.8"), "IXP CBI must be excluded");
    }

    #[test]
    fn cumulative_is_monotone() {
        let mut d = VpiDetection {
            candidates: 10,
            ..VpiDetection::default()
        };
        let a: Ipv4 = "1.1.1.1".parse().unwrap();
        let b: Ipv4 = "2.2.2.2".parse().unwrap();
        d.per_cloud.push(("ms".into(), [a].into_iter().collect()));
        d.per_cloud
            .push(("gg".into(), [a, b].into_iter().collect()));
        d.per_cloud.push(("or".into(), HashSet::new()));
        d.vpi_cbis = [a, b].into_iter().collect();
        let cum = d.cumulative();
        assert_eq!(cum[0].1, 1);
        assert_eq!(cum[1].1, 2);
        assert_eq!(cum[2].1, 2, "empty cloud must not reduce the cumulative");
        assert!((d.vpi_share() - 0.2).abs() < 1e-12);
    }
}
