//! Grouping the peering fabric (§7.2) and per-group features (§7.3).
//!
//! Every inferred peering is classified along three axes:
//!
//! * **public vs private** — public iff the CBI sits on an IXP LAN;
//! * **BGP-visible or not** — whether the (peer, cloud) AS link exists in
//!   the public AS-relationship data (per AS, as in the paper);
//! * **virtual or not** — for private peerings, whether the CBI was
//!   identified as a VPI port by the §7.1 multi-cloud method.
//!
//! That yields the paper's six groups (Table 5), the hybrid-peering census
//! (Table 6), the "hidden peerings" share, and the Figure 6 feature
//! distributions per group.

use crate::annotate::NoteSource;
use crate::borders::SegmentPool;
use crate::pinning::PinOutcome;
use crate::vpi::VpiDetection;
use cm_datasets::{AsRel, AsRelKind};
use cm_net::{Asn, Ipv4, PrefixTrie};
use std::collections::{HashMap, HashSet};

/// The six peering groups of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeeringGroup {
    /// Public, not in BGP.
    PbNb,
    /// Public, in BGP.
    PbB,
    /// Private, not in BGP, virtual.
    PrNbV,
    /// Private, not in BGP, non-virtual.
    PrNbNv,
    /// Private, in BGP, non-virtual.
    PrBNv,
    /// Private, in BGP, virtual.
    PrBV,
}

impl PeeringGroup {
    /// All groups in the paper's Table 5 order.
    pub const ALL: [PeeringGroup; 6] = [
        PeeringGroup::PbNb,
        PeeringGroup::PbB,
        PeeringGroup::PrNbV,
        PeeringGroup::PrNbNv,
        PeeringGroup::PrBNv,
        PeeringGroup::PrBV,
    ];

    /// Display label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            PeeringGroup::PbNb => "Pb-nB",
            PeeringGroup::PbB => "Pb-B",
            PeeringGroup::PrNbV => "Pr-nB-V",
            PeeringGroup::PrNbNv => "Pr-nB-nV",
            PeeringGroup::PrBNv => "Pr-B-nV",
            PeeringGroup::PrBV => "Pr-B-V",
        }
    }

    /// "Hidden" peerings: virtual ones plus private ones invisible in BGP —
    /// the traffic crossing them cannot be seen by conventional measurement
    /// (the paper's 33.29%).
    pub fn is_hidden(self) -> bool {
        matches!(
            self,
            PeeringGroup::PrNbV | PeeringGroup::PrNbNv | PeeringGroup::PrBV
        )
    }
}

/// One peer AS's profile.
#[derive(Clone, Debug, Default)]
pub struct AsProfile {
    /// Whether the (peer, cloud) link appears in public BGP data.
    pub bgp_visible: bool,
    /// Groups the AS belongs to, with the member CBIs of each.
    pub cbis_by_group: HashMap<PeeringGroup, HashSet<Ipv4>>,
    /// ABIs facing each group's CBIs.
    pub abis_by_group: HashMap<PeeringGroup, HashSet<Ipv4>>,
}

impl AsProfile {
    /// The set of groups this AS participates in.
    pub fn groups(&self) -> Vec<PeeringGroup> {
        let mut v: Vec<PeeringGroup> = self.cbis_by_group.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Feature distributions per group (Figure 6, one vector per boxplot).
#[derive(Clone, Debug, Default)]
pub struct FeatureDists {
    /// /24s in the AS's customer cone ("BGP /24").
    pub cone_slash24: Vec<f64>,
    /// /24s reachable from the cloud through this group's CBIs.
    pub reachable_slash24: Vec<f64>,
    /// ABIs per AS.
    pub abis: Vec<f64>,
    /// CBIs per AS.
    pub cbis: Vec<f64>,
    /// Median min-RTT difference across the group's segments per AS (ms).
    pub rtt_diff_ms: Vec<f64>,
    /// Distinct pinned metros of the group's CBIs per AS.
    pub metros: Vec<f64>,
}

/// The grouping result.
#[derive(Clone, Debug, Default)]
pub struct Grouping {
    /// Profile per peer AS.
    pub per_as: HashMap<Asn, AsProfile>,
    /// Figure 6 feature distributions per group.
    pub features: HashMap<PeeringGroup, FeatureDists>,
}

/// One row of Table 5.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table5Row {
    /// Distinct peer ASes in the group.
    pub ases: usize,
    /// Distinct CBIs.
    pub cbis: usize,
    /// Distinct ABIs.
    pub abis: usize,
}

impl Grouping {
    /// Classifies every peering.
    ///
    /// `rtt_diff` supplies the per-segment min-RTT difference (from the
    /// pinning stage); `snapshot` provides per-origin announced /24 counts
    /// for the cone feature.
    pub fn build(
        pool: &SegmentPool,
        vpi: &VpiDetection,
        asrel: &AsRel,
        cloud_asns: &HashSet<Asn>,
        pins: &PinOutcome,
        rtt_diff: &HashMap<(Ipv4, Ipv4), f64>,
        snapshot: &PrefixTrie<Asn>,
    ) -> Grouping {
        let mut per_as: HashMap<Asn, AsProfile> = HashMap::new();
        // cm-lint: allow(D4_MAP_ORDER, keyed per-AS profile accumulation; counter adds and set inserts commute)
        for seg in pool.segments.keys() {
            let Some(info) = pool.cbis.get(&seg.cbi) else {
                continue;
            };
            let Some(peer) = pool.peer_of(seg.cbi) else {
                continue;
            };
            if cloud_asns.contains(&peer) {
                continue;
            }
            let public = info.note.source == NoteSource::Ixp;
            let bgp = cloud_asns.iter().any(|&c| asrel.related(peer, c));
            let virt = vpi.vpi_cbis.contains(&seg.cbi);
            let group = match (public, bgp, virt) {
                (true, false, _) => PeeringGroup::PbNb,
                (true, true, _) => PeeringGroup::PbB,
                (false, false, true) => PeeringGroup::PrNbV,
                (false, false, false) => PeeringGroup::PrNbNv,
                (false, true, false) => PeeringGroup::PrBNv,
                (false, true, true) => PeeringGroup::PrBV,
            };
            let profile = per_as.entry(peer).or_default();
            profile.bgp_visible = bgp;
            profile
                .cbis_by_group
                .entry(group)
                .or_default()
                .insert(seg.cbi);
            profile
                .abis_by_group
                .entry(group)
                .or_default()
                .insert(seg.abi);
        }

        // Announced /24s per origin and AS-rel customer cones for Figure 6.
        let mut slash24_of_asn: HashMap<Asn, u64> = HashMap::new();
        for (p, &asn) in snapshot.iter() {
            *slash24_of_asn.entry(asn).or_default() += (p.num_addresses() / 256).max(1);
        }
        let mut customers: HashMap<Asn, Vec<Asn>> = HashMap::new();
        for (a, b, kind) in &asrel.edges {
            if *kind == AsRelKind::ProviderCustomer {
                customers.entry(*a).or_default().push(*b);
            }
        }
        let cone_24 = |asn: Asn| -> u64 {
            let mut seen = HashSet::new();
            let mut stack = vec![asn];
            let mut total = 0u64;
            while let Some(x) = stack.pop() {
                if !seen.insert(x) {
                    continue;
                }
                total += slash24_of_asn.get(&x).copied().unwrap_or(0);
                if let Some(cs) = customers.get(&x) {
                    stack.extend(cs.iter().copied());
                }
            }
            total
        };

        // Per-(AS, group) feature rows.
        let mut features: HashMap<PeeringGroup, FeatureDists> = HashMap::new();
        // Segment diffs indexed per CBI for the RTT feature.
        let mut diffs_of_cbi: HashMap<Ipv4, Vec<f64>> = HashMap::new();
        // cm-lint: allow(D4_MAP_ORDER, per-CBI diff lists are distributions; every consumer sorts before summarizing)
        for (&(_, cbi), &d) in rtt_diff {
            diffs_of_cbi.entry(cbi).or_default().push(d);
        }
        // cm-lint: allow(D4_MAP_ORDER, feature vectors are distributions; every consumer sorts before summarizing or dumping)
        for (&asn, profile) in &per_as {
            let cone = cone_24(asn) as f64;
            // cm-lint: allow(D4_MAP_ORDER, feature vectors are distributions; every consumer sorts before summarizing or dumping)
            for (&group, cbis) in &profile.cbis_by_group {
                let f = features.entry(group).or_default();
                f.cone_slash24.push(cone);
                let reach: HashSet<u32> = cbis
                    .iter()
                    .filter_map(|c| pool.cbis.get(c))
                    .flat_map(|i| i.reachable_slash24.iter().copied())
                    .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the per-group reachability union is the feature being computed; each group is visited once)
                f.reachable_slash24.push(reach.len() as f64);
                f.cbis.push(cbis.len() as f64);
                f.abis.push(
                    profile
                        .abis_by_group
                        .get(&group)
                        .map(|s| s.len())
                        .unwrap_or(0) as f64,
                );
                let mut ds: Vec<f64> = cbis
                    .iter()
                    .filter_map(|c| diffs_of_cbi.get(c))
                    .flat_map(|v| v.iter().copied())
                    .collect(); // cm-lint: allow(P1_HEAP_ALLOC, RTT diffs must be materialized to take a median)
                                // cm-lint: allow(L1_UNWRAP, float comparator over finite values)
                ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
                if !ds.is_empty() {
                    f.rtt_diff_ms.push(ds[ds.len() / 2]);
                }
                let metros: HashSet<_> = cbis
                    .iter()
                    .filter_map(|c| pins.pins.get(c).map(|p| p.metro))
                    .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the per-group metro set is the feature being computed; dedup needs a set)
                f.metros.push(metros.len() as f64);
            }
        }

        Grouping { per_as, features }
    }

    /// Table 5: one row per group plus the three aggregate rows
    /// (`Pb`, `Pr-nB`, `Pr-B`), in paper order.
    pub fn table5(&self) -> Vec<(String, Table5Row)> {
        let row_for = |groups: &[PeeringGroup]| -> Table5Row {
            let mut ases = 0usize;
            let mut cbis: HashSet<Ipv4> = HashSet::new();
            let mut abis: HashSet<Ipv4> = HashSet::new();
            for profile in self.per_as.values() {
                let mut member = false;
                for g in groups {
                    if let Some(c) = profile.cbis_by_group.get(g) {
                        member = true;
                        cbis.extend(c.iter().copied());
                    }
                    if let Some(a) = profile.abis_by_group.get(g) {
                        abis.extend(a.iter().copied());
                    }
                }
                if member {
                    ases += 1;
                }
            }
            Table5Row {
                ases,
                cbis: cbis.len(),
                abis: abis.len(),
            }
        };
        vec![
            ("Pb-nB".into(), row_for(&[PeeringGroup::PbNb])),
            ("Pb-B".into(), row_for(&[PeeringGroup::PbB])),
            (
                "Pb".into(),
                row_for(&[PeeringGroup::PbNb, PeeringGroup::PbB]),
            ),
            ("Pr-nB-V".into(), row_for(&[PeeringGroup::PrNbV])),
            ("Pr-nB-nV".into(), row_for(&[PeeringGroup::PrNbNv])),
            (
                "Pr-nB".into(),
                row_for(&[PeeringGroup::PrNbV, PeeringGroup::PrNbNv]),
            ),
            ("Pr-B-nV".into(), row_for(&[PeeringGroup::PrBNv])),
            ("Pr-B-V".into(), row_for(&[PeeringGroup::PrBV])),
            (
                "Pr-B".into(),
                row_for(&[PeeringGroup::PrBNv, PeeringGroup::PrBV]),
            ),
        ]
    }

    /// Table 6: the hybrid-peering census — combination of groups → number
    /// of ASes with exactly that combination, sorted by count.
    pub fn table6(&self) -> Vec<(String, usize)> {
        let mut census: HashMap<Vec<PeeringGroup>, usize> = HashMap::new();
        for profile in self.per_as.values() {
            *census.entry(profile.groups()).or_default() += 1;
        }
        let mut rows: Vec<(String, usize)> = census
            .into_iter()
            .map(|(combo, n)| {
                let label = combo
                    .iter()
                    .map(|g| g.label())
                    .collect::<Vec<_>>()
                    .join("; ");
                (label, n)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Share of (AS, group) memberships that are hidden from conventional
    /// measurement (virtual or private-non-BGP; the paper's 33.29%).
    pub fn hidden_share(&self) -> f64 {
        let mut total = 0usize;
        let mut hidden = 0usize;
        for profile in self.per_as.values() {
            for g in profile.cbis_by_group.keys() {
                total += 1;
                if g.is_hidden() {
                    hidden += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hidden as f64 / total as f64
        }
    }

    /// The number of distinct peer ASes.
    pub fn peer_count(&self) -> usize {
        self.per_as.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_labels_and_order() {
        assert_eq!(PeeringGroup::ALL.len(), 6);
        assert_eq!(PeeringGroup::PrNbNv.label(), "Pr-nB-nV");
    }

    #[test]
    fn hidden_groups() {
        assert!(PeeringGroup::PrNbV.is_hidden());
        assert!(PeeringGroup::PrNbNv.is_hidden());
        assert!(PeeringGroup::PrBV.is_hidden());
        assert!(!PeeringGroup::PbNb.is_hidden());
        assert!(!PeeringGroup::PbB.is_hidden());
        assert!(!PeeringGroup::PrBNv.is_hidden());
    }

    #[test]
    fn table6_counts_most_specific_combo_once() {
        let mut g = Grouping::default();
        let mut p = AsProfile::default();
        p.cbis_by_group
            .entry(PeeringGroup::PbNb)
            .or_default()
            .insert("1.1.1.1".parse().unwrap());
        p.cbis_by_group
            .entry(PeeringGroup::PrNbNv)
            .or_default()
            .insert("2.2.2.2".parse().unwrap());
        g.per_as.insert(Asn(1), p.clone());
        g.per_as.insert(Asn(2), p);
        let mut q = AsProfile::default();
        q.cbis_by_group
            .entry(PeeringGroup::PbNb)
            .or_default()
            .insert("3.3.3.3".parse().unwrap());
        g.per_as.insert(Asn(3), q);
        let t6 = g.table6();
        assert_eq!(t6[0], ("Pb-nB; Pr-nB-nV".to_string(), 2));
        assert_eq!(t6[1], ("Pb-nB".to_string(), 1));
        // Hidden share: 2 of 2 ASes have one hidden membership each out of
        // (2+2+1)=5 memberships.
        assert!((g.hidden_share() - 0.4).abs() < 1e-12);
    }
}
