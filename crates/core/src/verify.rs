//! Interconnection verification (§5).
//!
//! Two stages, exactly as in the paper:
//!
//! 1. **Heuristics (§5.1)** confirm candidate ABIs (and thereby their CBIs):
//!    *IXP-client* (a CBI inside an IXP LAN pins the segment), *hybrid IPs*
//!    (an ABI observed forwarding to both cloud and client next-hops must be
//!    a border interface), and *interface reachability* (ABIs are filtered
//!    from the public Internet while many CBIs answer).
//! 2. **Alias sets (§5.2)** resolve routers with MIDAR-style probing; the
//!    majority AS owner of each router then overrides mislabeled interfaces
//!    — the fix for the §4.1 address-sharing ambiguity, where a
//!    cloud-numbered client port drags the inferred segment one hop too far
//!    into the client network.

use crate::annotate::{Annotator, NoteSource};
use crate::borders::{Segment, SegmentPool};
use cm_net::{Asn, Ipv4, OrgId};
use std::collections::{HashMap, HashSet};

/// Which §5.1 heuristics confirmed each ABI.
#[derive(Clone, Debug, Default)]
pub struct HeuristicOutcome {
    /// ABIs confirmed by the IXP-client heuristic.
    pub ixp: HashSet<Ipv4>,
    /// ABIs confirmed by the hybrid-IP heuristic.
    pub hybrid: HashSet<Ipv4>,
    /// ABIs confirmed by the reachability heuristic.
    pub reachable: HashSet<Ipv4>,
    /// ABIs matched by no heuristic.
    pub unconfirmed: HashSet<Ipv4>,
}

impl HeuristicOutcome {
    /// ABIs confirmed by at least one heuristic.
    pub fn confirmed(&self) -> HashSet<Ipv4> {
        let mut s = self.ixp.clone();
        // cm-lint: allow(D4_MAP_ORDER, set union; extending a set commutes, so source order is immaterial)
        s.extend(self.hybrid.iter().copied());
        // cm-lint: allow(D4_MAP_ORDER, set union; extending a set commutes, so source order is immaterial)
        s.extend(self.reachable.iter().copied());
        s
    }

    /// The Table 2 rows: per heuristic, `(ABIs, CBIs)` counts — individual
    /// and cumulative in the paper's order (IXP, hybrid, reachable).
    pub fn table2(&self, pool: &SegmentPool) -> [(usize, usize); 6] {
        let cbis_of = |confirmed: &HashSet<Ipv4>| -> usize {
            let set: HashSet<Ipv4> = pool
                .segments
                .keys()
                .filter(|s| confirmed.contains(&s.abi))
                .map(|s| s.cbi)
                .collect();
            set.len()
        };
        let cum1 = self.ixp.clone();
        let c1 = (cum1.len(), cbis_of(&cum1));
        let mut cum2 = cum1;
        cum2.extend(self.hybrid.iter().copied());
        let c2 = (cum2.len(), cbis_of(&cum2));
        let mut cum3 = cum2.clone();
        cum3.extend(self.reachable.iter().copied());
        let c3 = (cum3.len(), cbis_of(&cum3));
        [
            (self.ixp.len(), cbis_of(&self.ixp)),
            (self.hybrid.len(), cbis_of(&self.hybrid)),
            (self.reachable.len(), cbis_of(&self.reachable)),
            c1,
            c2,
            c3,
        ]
    }
}

/// Runs the three §5.1 heuristics.
///
/// `reachable_from_public` abstracts the probe from a public vantage point
/// (the authors used a University of Oregon host); the caller supplies it so
/// inference never touches ground truth directly.
pub fn run_heuristics<F>(pool: &SegmentPool, reachable_from_public: F) -> HeuristicOutcome
where
    F: Fn(Ipv4) -> bool,
{
    let mut out = HeuristicOutcome::default();
    // Index CBIs per ABI once.
    let mut cbis_of: HashMap<Ipv4, Vec<Ipv4>> = HashMap::new();
    // cm-lint: allow(D4_MAP_ORDER, per-ABI CBI lists are only probed with any()/contains-style checks, which ignore order)
    for seg in pool.segments.keys() {
        cbis_of.entry(seg.abi).or_default().push(seg.cbi);
    }
    // cm-lint: allow(D4_MAP_ORDER, ABIs are classified independently into sets; visit order is immaterial)
    for (&abi, cbis) in &cbis_of {
        // IXP-client: any CBI inside an IXP prefix.
        if cbis.iter().any(|c| {
            pool.cbis
                .get(c)
                .map(|i| i.note.source == NoteSource::Ixp)
                .unwrap_or(false)
        }) {
            out.ixp.insert(abi);
        }
        // Hybrid: the ABI has been seen forwarding to both cloud-internal
        // and client next-hops.
        if let Some(ev) = pool.successors.get(&abi) {
            if ev.cloud_successor && ev.client_successor {
                out.hybrid.insert(abi);
            }
        }
        // Reachability: the ABI filters public probes while at least one of
        // its CBIs answers them.
        if !reachable_from_public(abi) && cbis.iter().any(|&c| reachable_from_public(c)) {
            out.reachable.insert(abi);
        }
    }
    let confirmed = out.confirmed();
    out.unconfirmed = pool
        .abis
        .keys()
        .filter(|a| !confirmed.contains(a))
        .copied()
        .collect();
    out
}

/// Counts of §5.2 relabelings (the paper reports 18 / 2 / 25).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChangeStats {
    /// Inferred ABIs that sit on client-owned routers (segment shifted).
    pub abi_to_cbi: usize,
    /// Inferred CBIs that sit on cloud-owned routers.
    pub cbi_to_abi: usize,
    /// CBIs reattributed to a different client.
    pub cbi_to_cbi: usize,
    /// Alias sets with a clear (>50%) majority owner.
    pub sets_with_majority: usize,
    /// Alias sets without one.
    pub sets_ambiguous: usize,
}

/// Majority AS owner of an alias set, by annotating each member address.
/// Returns `None` when no AS holds a strict majority.
pub fn majority_owner(annotator: &Annotator<'_>, members: &[Ipv4]) -> Option<Asn> {
    let mut votes: HashMap<Asn, usize> = HashMap::new();
    let mut n = 0;
    for &a in members {
        let note = annotator.annotate(a);
        if !note.asn.is_reserved() {
            *votes.entry(note.asn).or_default() += 1;
            n += 1;
        }
    }
    let (&asn, &c) = votes.iter().max_by_key(|(a, c)| (**c, a.0))?;
    (2 * c > n).then_some(asn)
}

/// Applies the §5.2 router-ownership consistency check to the pool,
/// relabeling interfaces whose alias-set owner contradicts their label.
///
/// * an ABI on a client-owned router becomes a CBI; its segments shift one
///   hop up (`pre_abi` becomes the ABI, the mislabeled interface the CBI);
/// * a CBI on a cloud-owned router becomes an ABI; its segments shift one
///   hop down (`post_cbi` becomes the CBI);
/// * a CBI on a router owned by a *different* client keeps its label but is
///   reattributed via [`SegmentPool::owner_override`].
pub fn apply_alias_corrections(
    pool: &mut SegmentPool,
    annotator: &Annotator<'_>,
    cloud_org: OrgId,
    cloud_org_of: impl Fn(Asn) -> Option<OrgId>,
    sets: &[Vec<Ipv4>],
) -> ChangeStats {
    let mut stats = ChangeStats::default();
    let mut owner_of_addr: HashMap<Ipv4, Asn> = HashMap::new();
    for members in sets {
        match majority_owner(annotator, members) {
            Some(owner) => {
                stats.sets_with_majority += 1;
                for &a in members {
                    owner_of_addr.insert(a, owner);
                }
            }
            None => stats.sets_ambiguous += 1,
        }
    }

    let is_cloud_owner =
        |asn: Asn| -> bool { cloud_org_of(asn).map(|o| o == cloud_org).unwrap_or(false) };

    // Pass 1: ABIs on client routers → shift segments up.
    let mut abis: Vec<Ipv4> = pool.abis.keys().copied().collect();
    abis.sort_unstable();
    for abi in abis {
        let Some(&owner) = owner_of_addr.get(&abi) else {
            continue;
        };
        if is_cloud_owner(owner) {
            continue;
        }
        stats.abi_to_cbi += 1;
        // Rewrite every segment that used this ABI.
        let mut affected: Vec<(Segment, crate::borders::SegmentMeta)> = pool
            .segments
            .iter()
            .filter(|(s, _)| s.abi == abi)
            .map(|(s, m)| (*s, m.clone())) // cm-lint: allow(P2_CLONE, meta is detached before pool.segments is mutated below)
            .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the affected list must be snapshotted before pool.segments is mutated)
        affected.sort_by_key(|&(s, _)| s);
        for (seg, meta) in affected {
            pool.segments.remove(&seg);
            if let Some(pre) = meta.pre_abi {
                let new_seg = Segment { abi: pre, cbi: abi };
                let e = pool.segments.entry(new_seg).or_default();
                e.count += meta.count;
                e.post_cbi = Some(seg.cbi);
                // cm-lint: allow(D4_MAP_ORDER, set union; extending a set commutes, so source order is immaterial)
                e.regions.extend(meta.regions.iter().copied());
                pool.abis
                    .entry(pre)
                    .or_insert_with(|| annotator.annotate(pre));
            }
            // The old CBI stays known (it belongs to the same client's
            // internal router) but its segment is gone.
        }
        // The mislabeled interface is now a CBI of `owner`.
        let note = annotator.annotate(abi);
        pool.abis.remove(&abi);
        pool.cbis
            .entry(abi)
            .or_insert_with(|| crate::borders::CbiInfo {
                note,
                first_dst: abi,
                reachable_slash24: HashSet::new(), // cm-lint: allow(P4_HASH_BUILD, empty-set initializer, evaluated only when a new CBI is first inserted)
            });
        pool.owner_override.insert(abi, owner);
    }

    // Pass 2: CBIs on cloud routers → shift segments down.
    let mut cbis: Vec<Ipv4> = pool.cbis.keys().copied().collect();
    cbis.sort_unstable();
    for cbi in cbis {
        let Some(&owner) = owner_of_addr.get(&cbi) else {
            continue;
        };
        if is_cloud_owner(owner) {
            stats.cbi_to_abi += 1;
            let mut affected: Vec<(Segment, crate::borders::SegmentMeta)> = pool
                .segments
                .iter()
                .filter(|(s, _)| s.cbi == cbi)
                .map(|(s, m)| (*s, m.clone())) // cm-lint: allow(P2_CLONE, meta is detached before pool.segments is mutated below)
                .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the affected list must be snapshotted before pool.segments is mutated)
            affected.sort_by_key(|&(s, _)| s);
            for (seg, meta) in affected {
                pool.segments.remove(&seg);
                if let Some(post) = meta.post_cbi {
                    let new_seg = Segment {
                        abi: cbi,
                        cbi: post,
                    };
                    let e = pool.segments.entry(new_seg).or_default();
                    e.count += meta.count;
                    e.pre_abi = Some(seg.abi);
                    // cm-lint: allow(D4_MAP_ORDER, set union; extending a set commutes, so source order is immaterial)
                    e.regions.extend(meta.regions.iter().copied());
                    pool.cbis
                        .entry(post)
                        .or_insert_with(|| crate::borders::CbiInfo {
                            note: annotator.annotate(post),
                            first_dst: post,
                            reachable_slash24: HashSet::new(), // cm-lint: allow(P4_HASH_BUILD, empty-set initializer, evaluated only when a new CBI is first inserted)
                        });
                }
            }
            let note = annotator.annotate(cbi);
            pool.cbis.remove(&cbi);
            pool.abis.entry(cbi).or_insert(note);
        } else {
            // Owner is a (possibly different) client.
            let current = pool.peer_of(cbi);
            if current != Some(owner) {
                stats.cbi_to_cbi += 1;
                pool.owner_override.insert(cbi, owner);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Annotator;
    use crate::borders::BorderCollector;
    use cm_bgp::{bgp_snapshot, BgpView};
    use cm_dataplane::{publicly_reachable, DataPlane, DataPlaneConfig};
    use cm_datasets::{DatasetConfig, PublicDatasets};
    use cm_probe::Campaign;
    use cm_topology::{CloudId, Internet, TopologyConfig};

    struct World {
        inet: Internet,
        snap: cm_net::PrefixTrie<Asn>,
        ds: PublicDatasets,
    }

    impl World {
        fn new() -> Self {
            let inet = Internet::generate(TopologyConfig::tiny(), 47);
            let snap = bgp_snapshot(&inet);
            let view = BgpView::compute(&inet, CloudId(0), 16, 47);
            let visible = view
                .visible_peers
                .iter()
                .map(|&p| inet.as_node(p).asn)
                .collect();
            let ds = PublicDatasets::derive(&inet, DatasetConfig::default(), &visible, 47);
            World { inet, snap, ds }
        }

        fn cloud_org(&self) -> OrgId {
            self.ds
                .as2org
                .org_of(self.inet.as_node(self.inet.primary_cloud().ases[0]).asn)
                .unwrap()
        }

        fn pool(&self) -> SegmentPool {
            let ann = Annotator::new(&self.snap, &self.ds);
            let plane = DataPlane::new(&self.inet, DataPlaneConfig::default());
            let campaign = Campaign::new(&plane, CloudId(0));
            let mut c = BorderCollector::new(&ann, self.cloud_org());
            campaign.sweep_each(|t| c.observe(t));
            c.finish()
        }
    }

    #[test]
    fn heuristics_confirm_most_abis() {
        let w = World::new();
        let pool = w.pool();
        let out = run_heuristics(&pool, |a| publicly_reachable(&w.inet, a));
        let confirmed = out.confirmed().len();
        let total = pool.abis.len();
        assert!(
            confirmed * 10 >= total * 6,
            "only {confirmed}/{total} ABIs confirmed"
        );
        assert!(!out.ixp.is_empty(), "IXP heuristic found nothing");
        assert!(
            !out.reachable.is_empty(),
            "reachability heuristic found nothing"
        );
        // Table 2 shape: cumulative counts are monotone.
        let t2 = out.table2(&pool);
        assert!(t2[3].0 <= t2[4].0 && t2[4].0 <= t2[5].0);
        assert!(t2[5].0 == confirmed);
    }

    #[test]
    fn heuristics_do_not_confirm_everything_blindly() {
        let w = World::new();
        let pool = w.pool();
        let out = run_heuristics(&pool, |_| false);
        // With nothing publicly reachable, the reachability heuristic must
        // confirm nothing (no CBI evidence).
        assert!(out.reachable.is_empty());
    }

    #[test]
    fn majority_owner_rules() {
        let w = World::new();
        let ann = Annotator::new(&w.snap, &w.ds);
        // A set of addresses from a single client AS.
        let a = &w.inet.ases[0];
        let base = a.prefixes[0].base();
        let set = vec![
            base.saturating_next(),
            Ipv4(base.to_u32() + 5),
            Ipv4(base.to_u32() + 9),
        ];
        assert_eq!(majority_owner(&ann, &set), Some(a.asn));
        // Mixed set with no majority.
        let b = &w.inet.ases[1];
        let mixed = vec![
            base.saturating_next(),
            b.prefixes[0].base().saturating_next(),
        ];
        assert_eq!(majority_owner(&ann, &mixed), None);
    }

    #[test]
    fn alias_corrections_fix_shifted_segments() {
        let w = World::new();
        let mut pool = w.pool();
        let ann = Annotator::new(&w.snap, &w.ds);
        let cloud_org = w.cloud_org();

        // Count mislabeled ABIs before correction: ground-truth client
        // addresses labeled as ABI (the address-sharing ambiguity).
        let mislabeled_before = pool
            .abis
            .keys()
            .filter(|a| {
                w.inet
                    .iface_by_addr
                    .get(a)
                    .map(|&f| {
                        matches!(
                            w.inet.router(w.inet.iface(f).router).role,
                            cm_topology::RouterRole::ClientBorder
                                | cm_topology::RouterRole::ClientInternal
                        )
                    })
                    .unwrap_or(false)
            })
            .count();

        // Resolve aliases over all observed interfaces.
        let mut addrs: Vec<Ipv4> = pool.abis.keys().copied().collect();
        addrs.extend(pool.cbis.keys().copied());
        addrs.sort_unstable();
        let sets = cm_alias::resolve_all_regions(&w.inet, CloudId(0), &addrs, 47);
        let ds = &w.ds;
        let stats = apply_alias_corrections(
            &mut pool,
            &ann,
            cloud_org,
            |asn| ds.as2org.org_of(asn),
            &sets,
        );
        assert!(stats.sets_with_majority > 0);

        let mislabeled_after = pool
            .abis
            .keys()
            .filter(|a| {
                w.inet
                    .iface_by_addr
                    .get(a)
                    .map(|&f| {
                        matches!(
                            w.inet.router(w.inet.iface(f).router).role,
                            cm_topology::RouterRole::ClientBorder
                                | cm_topology::RouterRole::ClientInternal
                        )
                    })
                    .unwrap_or(false)
            })
            .count();
        assert!(
            mislabeled_after <= mislabeled_before,
            "corrections made things worse: {mislabeled_before} -> {mislabeled_after}"
        );
        // Completeness with respect to the available evidence: no remaining
        // ABI may sit in an alias set whose majority owner is a client.
        let cloud_asns: std::collections::HashSet<Asn> = w
            .inet
            .primary_cloud()
            .ases
            .iter()
            .map(|&i| w.inet.as_node(i).asn)
            .collect();
        for set in &sets {
            let Some(owner) = majority_owner(&ann, set) else {
                continue;
            };
            if cloud_asns.contains(&owner) {
                continue;
            }
            for a in set {
                assert!(
                    !pool.abis.contains_key(a),
                    "{a} still labeled ABI despite client-owned alias set"
                );
            }
        }
        let _ = stats;
    }
}
