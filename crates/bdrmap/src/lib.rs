//! # cm-bdrmap — a bdrmap-style baseline for the §8 comparison
//!
//! bdrmap (Luckie et al., IMC 2016) infers the borders between one network
//! and the rest of the Internet from traceroutes plus BGP-derived inputs.
//! The paper ran it from VMs in every cloud region and documented three
//! classes of inconsistency that arise in the cloud setting:
//!
//! 1. CBIs with no AS owner (AS0) — bdrmap does not consult WHOIS or IXP
//!    per-IP data;
//! 2. different AS owners for the same interface when run from different
//!    regions — its heuristics depend on the per-region view;
//! 3. ABI/CBI flips across regions — border placement disagrees between
//!    vantage points, mostly for interfaces advertised from the cloud's
//!    own (WHOIS-only) space.
//!
//! This reimplementation follows bdrmap's *structure* (per-vantage
//! processing; BGP-snapshot-only annotation; AS-relationship-driven
//! heuristics including a third-party heuristic that assigns unresolved
//! interfaces to a common provider of downstream destinations) at the scale
//! of this workspace. It deliberately inherits the baseline's documented
//! blind spots — no WHOIS fallback, no layer-2/IXP awareness, no
//! cross-region reconciliation — because reproducing those failure modes
//! *is* the experiment.

#![deny(missing_docs)]

use cm_dataplane::{DataPlane, Traceroute};
use cm_datasets::PublicDatasets;
use cm_net::{Asn, Ipv4, PrefixTrie};
use cm_probe::Campaign;
use cm_topology::{CloudId, RegionId};
use std::collections::{HashMap, HashSet};

/// Label assigned to an interface by one per-region run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// Cloud-side border interface.
    Abi,
    /// Customer-side border interface, with bdrmap's inferred owner
    /// (`Asn::RESERVED` when unresolved — the AS0 case).
    Cbi(Asn),
}

/// The output of one region's bdrmap run.
#[derive(Clone, Debug, Default)]
pub struct RegionRun {
    /// Interface labels inferred from this vantage point.
    pub labels: HashMap<Ipv4, Label>,
}

/// The merged multi-region result with the §8 inconsistency metrics.
#[derive(Clone, Debug, Default)]
pub struct BdrmapResult {
    /// Per-region outputs.
    pub runs: Vec<(RegionId, RegionRun)>,
    /// All interfaces ever labeled ABI.
    pub abis: HashSet<Ipv4>,
    /// All interfaces ever labeled CBI, with every owner reported.
    pub cbis: HashMap<Ipv4, HashSet<Asn>>,
    /// CBIs whose owner could not be resolved in some run (AS0).
    pub as0_cbis: usize,
    /// Interfaces with two or more distinct inferred owners across regions.
    pub multi_owner: usize,
    /// Interfaces labeled ABI in one region and CBI in another.
    pub flips: usize,
}

impl BdrmapResult {
    /// Distinct peer ASes claimed by the baseline.
    pub fn peer_ases(&self) -> HashSet<Asn> {
        self.cbis
            .values()
            .flat_map(|s| s.iter().copied())
            .filter(|a| !a.is_reserved())
            .collect()
    }
}

/// The baseline runner.
pub struct Bdrmap<'d> {
    /// BGP snapshot (the only annotation source bdrmap uses here).
    pub snapshot: &'d PrefixTrie<Asn>,
    /// Public datasets — bdrmap consumes only the AS relationships.
    pub datasets: &'d PublicDatasets,
    /// The measured cloud's ASNs (bdrmap is given the network under study).
    pub cloud_asns: &'d HashSet<Asn>,
}

impl<'d> Bdrmap<'d> {
    /// Runs the baseline from every region of `cloud` over the dataplane.
    pub fn run(&self, plane: &DataPlane<'_>, cloud: CloudId) -> BdrmapResult {
        let mut result = BdrmapResult::default();
        let regions: Vec<RegionId> = plane.inet.clouds[cloud.index()].regions.clone();
        let campaign = Campaign::new(plane, cloud);
        let targets: Vec<Ipv4> = plane
            .sweep_slash24s()
            .into_iter()
            .map(|p| p.base().slash24_probe_target())
            .collect();
        for region in regions {
            let mut traces: Vec<Traceroute> = Vec::new(); // cm-lint: allow(P1_HEAP_ALLOC, one trace buffer per region; bounded by region count, and run_region borrows it immediately)
            for &t in &targets {
                traces.push(plane.traceroute(cloud, region, t));
            }
            let run = self.run_region(&traces);
            result.runs.push((region, run));
        }
        let _ = campaign; // the campaign API is kept for parity with cloudmap
        self.merge(&mut result);
        result
    }

    /// Processes one region's traceroutes (exposed for tests and for the
    /// harness to feed identical traces to both tools).
    ///
    /// The walk uses only the BGP snapshot. Hops without an origin are
    /// *unrouted*; when an unrouted hop sits right at the apparent border,
    /// bdrmap must guess which side it belongs to — it leans "neighbor
    /// router" when the hop fans out to several downstream ASes and "home
    /// network" otherwise. Because the guess depends on the per-region
    /// destination mix, different regions disagree, producing exactly the
    /// ABI/CBI flips and multi-owner interfaces the paper reports (§8).
    pub fn run_region(&self, traces: &[Traceroute]) -> RegionRun {
        let mut run = RegionRun::default();
        // Pass 1: successor fan-out and reachable destination ASes.
        let mut succ_ases: HashMap<Ipv4, HashSet<Asn>> = HashMap::new();
        let mut dest_ases: HashMap<Ipv4, HashSet<Asn>> = HashMap::new();
        let mut walks: Vec<(Vec<(u8, Ipv4)>, Ipv4)> = Vec::new();
        for t in traces {
            let hops: Vec<(u8, Ipv4)> = t
                .hops
                .iter()
                .filter_map(|h| h.addr.map(|a| (h.ttl, a)))
                .collect(); // cm-lint: allow(P1_HEAP_ALLOC, per-trace hop list feeds windows(2); mirrors the reference bdrmap walk)
            for w in hops.windows(2) {
                if let Some(&asn) = self.snapshot.lookup(w[1].1) {
                    if !self.cloud_asns.contains(&asn) {
                        succ_ases.entry(w[0].1).or_default().insert(asn);
                    }
                }
            }
            walks.push((hops, t.dst));
        }
        // Pass 2: border placement.
        let mut pending: Vec<(Option<Ipv4>, Ipv4)> = Vec::new();
        for (hops, dst) in &walks {
            let mut border: Option<usize> = None;
            for (i, &(_, a)) in hops.iter().enumerate() {
                match self.snapshot.lookup(a) {
                    Some(asn) if !self.cloud_asns.contains(asn) => {
                        border = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(ci) = border else { continue };
            if ci == 0 {
                continue;
            }
            let (abi_ttl, abi_addr) = hops[ci - 1];
            let (cbi_ttl, cbi_addr) = hops[ci];
            if cbi_ttl != abi_ttl + 1 || cbi_addr == *dst {
                continue;
            }
            let prev_unrouted =
                self.snapshot.lookup(abi_addr).is_none() && !abi_addr.is_private_or_shared();
            if prev_unrouted && succ_ases.get(&abi_addr).map(|s| s.len()).unwrap_or(0) >= 2 {
                // The unrouted hop fans out to several ASes: bdrmap reads it
                // as the *neighbor's* aggregation router.
                let pre = (ci >= 2).then(|| hops[ci - 2].1);
                pending.push((pre, abi_addr));
            } else {
                pending.push((Some(abi_addr), cbi_addr));
            }
            if let Some(&asn) = self.snapshot.lookup(*dst) {
                dest_ases.entry(cbi_addr).or_default().insert(asn);
                dest_ases.entry(abi_addr).or_default().insert(asn);
            }
        }
        // Pass 3: owner assignment.
        for (abi, cbi) in pending {
            if let Some(a) = abi {
                run.labels.insert(a, Label::Abi);
            }
            let owner = match self.snapshot.lookup(cbi) {
                Some(&asn) => {
                    let related = self
                        .cloud_asns
                        .iter()
                        .any(|&c| self.datasets.asrel.related(asn, c));
                    if related {
                        asn
                    } else {
                        self.third_party_owner(&dest_ases, cbi).unwrap_or(asn)
                    }
                }
                None => self
                    .third_party_owner(&dest_ases, cbi)
                    .unwrap_or(Asn::RESERVED),
            };
            run.labels.insert(cbi, Label::Cbi(owner));
        }
        run
    }

    /// bdrmap's third-party heuristic: if every destination AS reached
    /// through the interface shares exactly one common provider in the
    /// AS-relationship data, that provider owns the interface.
    fn third_party_owner(&self, dest_ases: &HashMap<Ipv4, HashSet<Asn>>, cbi: Ipv4) -> Option<Asn> {
        let dests = dest_ases.get(&cbi)?;
        let mut common: Option<HashSet<Asn>> = None;
        for &d in dests {
            let provs: HashSet<Asn> = self.datasets.asrel.providers(d).into_iter().collect(); // cm-lint: allow(P1_HEAP_ALLOC, provider sets are small and intersected immediately; the loop exits once the intersection empties)
            common = Some(match common {
                None => provs,
                Some(c) => c.intersection(&provs).copied().collect(), // cm-lint: allow(P1_HEAP_ALLOC, intersection shrinks monotonically; rebuilt at most once per destination AS)
            });
            if common.as_ref().map(|c| c.is_empty()).unwrap_or(false) {
                return None;
            }
        }
        let common = common?;
        if common.len() == 1 {
            common.into_iter().next()
        } else {
            None
        }
    }

    fn merge(&self, result: &mut BdrmapResult) {
        let mut owners: HashMap<Ipv4, HashSet<Asn>> = HashMap::new();
        let mut was_abi: HashSet<Ipv4> = HashSet::new();
        let mut was_cbi: HashSet<Ipv4> = HashSet::new();
        let mut as0: HashSet<Ipv4> = HashSet::new();
        for (_, run) in &result.runs {
            // cm-lint: allow(D4_MAP_ORDER, keyed set accumulation; inserts commute, so label iteration order is immaterial)
            for (&addr, &label) in &run.labels {
                match label {
                    Label::Abi => {
                        was_abi.insert(addr);
                    }
                    Label::Cbi(owner) => {
                        was_cbi.insert(addr);
                        owners.entry(addr).or_default().insert(owner);
                        if owner.is_reserved() {
                            as0.insert(addr);
                        }
                    }
                }
            }
        }
        result.abis = was_abi.clone();
        result.cbis = owners.clone();
        result.as0_cbis = as0.len();
        result.multi_owner = owners
            .values()
            .filter(|s| s.iter().filter(|a| !a.is_reserved()).count() >= 2)
            .count();
        result.flips = was_abi.intersection(&was_cbi).count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bgp::{bgp_snapshot, BgpView};
    use cm_dataplane::DataPlaneConfig;
    use cm_datasets::DatasetConfig;
    use cm_topology::{Internet, TopologyConfig};

    fn setup() -> (Internet, PrefixTrie<Asn>, PublicDatasets, HashSet<Asn>) {
        let inet = Internet::generate(TopologyConfig::tiny(), 83);
        let snap = bgp_snapshot(&inet);
        let view = BgpView::compute(&inet, CloudId(0), 16, 83);
        let visible = view
            .visible_peers
            .iter()
            .map(|&p| inet.as_node(p).asn)
            .collect();
        let ds = PublicDatasets::derive(&inet, DatasetConfig::default(), &visible, 83);
        let cloud_asns: HashSet<Asn> = inet
            .primary_cloud()
            .ases
            .iter()
            .map(|&i| inet.as_node(i).asn)
            .collect();
        (inet, snap, ds, cloud_asns)
    }

    #[test]
    fn baseline_runs_and_exhibits_inconsistencies() {
        let (inet, snap, ds, cloud_asns) = setup();
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let bdr = Bdrmap {
            snapshot: &snap,
            datasets: &ds,
            cloud_asns: &cloud_asns,
        };
        let result = bdr.run(&plane, CloudId(0));
        assert!(!result.cbis.is_empty(), "baseline found nothing");
        assert!(!result.abis.is_empty());
        // The §8 signatures: unresolved owners must appear (IXP LANs and
        // WHOIS-only space have no BGP origin).
        assert!(
            result.as0_cbis > 0,
            "expected AS0 owners from IXP/WHOIS-only CBIs"
        );
    }

    #[test]
    fn third_party_heuristic_requires_unique_common_provider() {
        let (_inet, snap, ds, cloud_asns) = setup();
        let bdr = Bdrmap {
            snapshot: &snap,
            datasets: &ds,
            cloud_asns: &cloud_asns,
        };
        let cbi: Ipv4 = "9.9.9.9".parse().unwrap();
        // No destination info → no inference.
        let empty: HashMap<Ipv4, HashSet<Asn>> = HashMap::new();
        assert_eq!(bdr.third_party_owner(&empty, cbi), None);
        // A destination with several providers → ambiguous unless unique.
        let any_customer = ds
            .asrel
            .edges
            .iter()
            .find(|(_, _, k)| *k == cm_datasets::AsRelKind::ProviderCustomer)
            .map(|(_, c, _)| *c)
            .expect("some customer edge");
        let mut m = HashMap::new();
        m.insert(cbi, [any_customer].into_iter().collect::<HashSet<_>>());
        let provs = ds.asrel.providers(any_customer);
        let got = bdr.third_party_owner(&m, cbi);
        if provs.len() == 1 {
            assert_eq!(got, Some(provs[0]));
        } else {
            assert_eq!(got, None);
        }
    }
}
