//! Pinning border interfaces to metros (§6).
//!
//! The method has two phases. First, **anchors** — interfaces whose location
//! is known from reliable evidence:
//!
//! * DNS-embedded locations (airport codes / city names), sanity-checked
//!   against RTT feasibility (stale PTR records are rejected because light
//!   cannot cover the claimed distance in the observed time);
//! * IXP association: CBIs on a single-metro IXP LAN whose RTT from the
//!   IXP's closest region is within 2 ms of the fabric's own minimum
//!   (remote-peering members fail this test and are excluded);
//! * single colo/metro footprint from PeeringDB/PCH listings;
//! * native-colo ABIs: cloud border interfaces under 2 ms from their
//!   closest region's VM (Figure 4a's knee).
//!
//! Second, **co-presence propagation**: alias sets share a facility
//! (rule 1), and interconnection segments whose two ends differ by under
//! 2 ms of min-RTT share a metro (rule 2 — Figure 4b's knee). Propagation is
//! conservative: anchors with conflicting evidence are dropped up front and
//! a pin is only copied when all sources agree. Interfaces still unpinned
//! fall back to *regional* pinning via the ratio of their two lowest
//! per-region RTTs (Figure 5).

use crate::borders::SegmentPool;
use cm_datasets::PublicDatasets;
use cm_dns::DnsDb;
use cm_geo::{MetroCatalog, MetroId};
use cm_net::{stablehash, Ipv4};
use cm_probe::RttCampaign;
use cm_topology::RegionId;
use std::collections::{HashMap, HashSet};

/// Pinning thresholds; defaults follow the paper's choices.
#[derive(Clone, Copy, Debug)]
pub struct PinningConfig {
    /// Co-presence RTT-difference threshold (rule 2), ms.
    pub copresence_ms: f64,
    /// Slack over minIXRTT for declaring an IXP member local, ms.
    pub ixp_local_slack_ms: f64,
    /// Closest-region RTT below which an ABI sits in a native colo, ms.
    pub native_colo_ms: f64,
    /// Minimum ratio of the two lowest per-region RTTs for regional pinning.
    pub region_ratio: f64,
    /// Speed of light in fiber used for DNS feasibility checks, km/ms.
    pub fiber_km_per_ms: f64,
    /// Anchor sources in effect, in order (DNS, IXP, footprint, native
    /// colo). Disabling one is the DESIGN.md anchor-ablation experiment.
    pub enabled_anchors: [bool; 4],
}

impl Default for PinningConfig {
    fn default() -> Self {
        PinningConfig {
            copresence_ms: 2.0,
            ixp_local_slack_ms: 2.0,
            native_colo_ms: 2.0,
            region_ratio: 1.5,
            fiber_km_per_ms: 204.0,
            enabled_anchors: [true; 4],
        }
    }
}

/// Evidence source behind a metro pin, in the paper's confidence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PinSource {
    /// Parsed from the interface's reverse-DNS name.
    DnsName,
    /// Single-metro IXP LAN membership (local members only).
    IxpAssociation,
    /// Single-colo/metro PeeringDB footprint of the owning AS.
    Footprint,
    /// Native-colo ABI (sub-2 ms from the closest region).
    NativeColo,
    /// Propagated through an alias set (co-presence rule 1).
    AliasRule,
    /// Propagated across a short interconnection segment (rule 2).
    RttRule,
}

impl PinSource {
    /// True for first-phase anchor evidence.
    pub fn is_anchor(self) -> bool {
        !matches!(self, PinSource::AliasRule | PinSource::RttRule)
    }
}

/// A metro-level pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// The metro.
    pub metro: MetroId,
    /// Evidence.
    pub source: PinSource,
}

/// Everything the §6 stage produces.
#[derive(Clone, Debug, Default)]
pub struct PinOutcome {
    /// Metro-level pins.
    pub pins: HashMap<Ipv4, Pin>,
    /// Regional fallback pins for interfaces unpinned at the metro level.
    pub region_pins: HashMap<Ipv4, RegionId>,
    /// Anchors dropped for inconsistent evidence.
    pub dropped_anchors: usize,
    /// Alias sets / segments with conflicting pinned ends encountered
    /// during propagation.
    pub conflicts: usize,
    /// Propagation rounds until fixpoint.
    pub rounds: usize,
    /// Table 3, left: exclusive and cumulative anchor counts in source
    /// order (DNS, IXP, footprint, native).
    pub anchor_counts: [(usize, usize); 4],
    /// Table 3, right: exclusive and cumulative propagated counts
    /// (alias rule, RTT rule).
    pub pinned_counts: [(usize, usize); 2],
    /// Figure 4a: min-RTT from the closest region, per ABI.
    pub fig4a_abi_rtts: Vec<f64>,
    /// Figure 4b: min-RTT difference across each segment.
    pub fig4b_segment_diffs: Vec<f64>,
    /// Figure 5: ratio of two lowest per-region RTTs for unpinned interfaces.
    pub fig5_ratios: Vec<f64>,
    /// Interfaces visible from a single region only (regional fallback).
    pub single_region: usize,
}

impl PinOutcome {
    /// Metro-level coverage over a universe of `total` interfaces.
    pub fn metro_coverage(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.pins.len() as f64 / total as f64
        }
    }
}

/// Cross-validation report (§6.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossValReport {
    /// Mean precision over folds.
    pub precision_mean: f64,
    /// Standard deviation of precision.
    pub precision_std: f64,
    /// Mean recall over folds.
    pub recall_mean: f64,
    /// Standard deviation of recall.
    pub recall_std: f64,
    /// Folds evaluated.
    pub folds: usize,
}

/// The pinning engine.
pub struct Pinner<'x> {
    /// Verified segment pool.
    pub pool: &'x SegmentPool,
    /// Reverse DNS.
    pub dns: &'x DnsDb,
    /// Min-RTT campaign covering ABIs, CBIs and published IXP LAN addresses.
    pub rtt: &'x RttCampaign,
    /// Public datasets (footprint, IXP membership).
    pub datasets: &'x PublicDatasets,
    /// Alias sets from §5.2.
    pub alias_sets: &'x [Vec<Ipv4>],
    /// Region → home metro (public knowledge of the cloud's regions).
    pub region_metro: &'x HashMap<RegionId, MetroId>,
    /// World metro catalog.
    pub catalog: &'x MetroCatalog,
    /// Thresholds.
    pub cfg: PinningConfig,
}

impl<'x> Pinner<'x> {
    /// Runs anchor extraction, consistency checks, propagation and the
    /// regional fallback.
    pub fn run(&self) -> PinOutcome {
        let mut out = PinOutcome::default();
        let (anchors, anchor_counts, dropped) = self.collect_anchors(&mut out);
        out.anchor_counts = anchor_counts;
        out.dropped_anchors = dropped;
        self.propagate(anchors, &mut out);
        self.regional_fallback(&mut out);
        out
    }

    // ----- anchors ---------------------------------------------------------

    /// All interfaces in scope (ABIs + CBIs).
    fn universe(&self) -> impl Iterator<Item = Ipv4> + '_ {
        // cm-lint: allow(D4_MAP_ORDER, consumers make per-address independent decisions into keyed maps, so order is immaterial)
        self.pool.abis.keys().chain(self.pool.cbis.keys()).copied()
    }

    fn collect_anchors(
        &self,
        out: &mut PinOutcome,
    ) -> (HashMap<Ipv4, Pin>, [(usize, usize); 4], usize) {
        // Candidate anchors per address, possibly from several sources.
        let mut cands: HashMap<Ipv4, Vec<Pin>> = HashMap::new();

        // 1. DNS names with RTT-feasibility check.
        for (&cbi, _) in self
            .pool
            .cbis
            .iter()
            .filter(|_| self.cfg.enabled_anchors[0])
        {
            let Some(name) = self.dns.lookup(cbi) else {
                continue;
            };
            let Some(metro) = cm_dns::parse_location(name, self.catalog) else {
                continue;
            };
            if !self.feasible(cbi, metro) {
                continue; // stale DNS: light cannot cover the claimed distance
            }
            cands.entry(cbi).or_default().push(Pin {
                metro,
                source: PinSource::DnsName,
            });
        }

        // 2. IXP association with the local/remote test.
        let ixp_metrics = self.ixp_metrics();
        for (&cbi, info) in self
            .pool
            .cbis
            .iter()
            .filter(|_| self.cfg.enabled_anchors[1])
        {
            let Some(ix) = info.note.ixp else { continue };
            let rec = self.datasets.ixp.get(ix);
            if rec.metros.len() != 1 {
                continue; // multi-metro fabrics cannot pin
            }
            let Some(&(min_region, min_rtt)) = ixp_metrics.get(&ix) else {
                continue;
            };
            let Some(per) = self.rtt.min_rtt.get(&cbi) else {
                continue;
            };
            let Some(&mine) = per.get(&min_region) else {
                continue;
            };
            if mine > min_rtt + self.cfg.ixp_local_slack_ms {
                continue; // remote peering member
            }
            cands.entry(cbi).or_default().push(Pin {
                metro: rec.metros[0],
                source: PinSource::IxpAssociation,
            });
        }

        // 3. Single colo/metro footprint, with the same RTT-feasibility
        // guard (PeeringDB listings are incomplete: an AS listed at one
        // facility may well run routers elsewhere, and the feasibility
        // check rejects the physically impossible claims).
        for (&cbi, _) in self
            .pool
            .cbis
            .iter()
            .filter(|_| self.cfg.enabled_anchors[2])
        {
            let Some(asn) = self.pool.peer_of(cbi) else {
                continue;
            };
            let metros = self.datasets.footprint_metros(asn);
            if metros.len() == 1 && self.feasible(cbi, metros[0]) {
                cands.entry(cbi).or_default().push(Pin {
                    metro: metros[0],
                    source: PinSource::Footprint,
                });
            }
        }

        // 4. Native-colo ABIs (and the Figure 4a series).
        for &abi in self.pool.abis.keys() {
            let Some((region, rtt)) = self.rtt.closest_region(abi) else {
                continue;
            };
            out.fig4a_abi_rtts.push(rtt);
            if self.cfg.enabled_anchors[3] && rtt < self.cfg.native_colo_ms {
                cands.entry(abi).or_default().push(Pin {
                    metro: self.region_metro[&region],
                    source: PinSource::NativeColo,
                });
            }
        }

        // Consistency check 1: multi-source anchors must agree.
        let mut anchors: HashMap<Ipv4, Pin> = HashMap::new();
        let mut dropped = 0usize;
        for (addr, pins) in cands {
            let metros: HashSet<MetroId> = pins.iter().map(|p| p.metro).collect();
            if metros.len() == 1 {
                // Keep the highest-confidence source for bookkeeping.
                // cm-lint: allow(L1_UNWRAP, guarded by an emptiness check: one metro implies at least one pin)
                let best = pins.iter().min_by_key(|p| p.source).unwrap();
                anchors.insert(addr, *best);
            } else {
                dropped += 1;
            }
        }
        // Consistency check 2: anchored members of one alias set must agree.
        for set in self.alias_sets {
            let metros: HashSet<MetroId> = set
                .iter()
                .filter_map(|a| anchors.get(a).map(|p| p.metro))
                .collect();
            if metros.len() > 1 {
                for a in set {
                    if anchors.remove(a).is_some() {
                        dropped += 1;
                    }
                }
            }
        }

        // Table 3 anchor accounting (exclusive = newly covered by each
        // source in confidence order; cumulative = running union).
        let order = [
            PinSource::DnsName,
            PinSource::IxpAssociation,
            PinSource::Footprint,
            PinSource::NativeColo,
        ];
        let mut counts = [(0usize, 0usize); 4];
        let mut covered: HashSet<Ipv4> = HashSet::new();
        for (i, src) in order.iter().enumerate() {
            let newly: Vec<Ipv4> = anchors
                .iter()
                .filter(|(a, p)| p.source == *src && !covered.contains(*a))
                .map(|(a, _)| *a)
                .collect();
            covered.extend(newly.iter().copied());
            counts[i] = (newly.len(), covered.len());
        }
        (anchors, counts, dropped)
    }

    /// RTT feasibility of locating `addr` in `metro`: the observed min RTT
    /// must not undercut the propagation floor of the claimed distance, and
    /// must not exceed what would place the interface much farther away.
    fn feasible(&self, addr: Ipv4, metro: MetroId) -> bool {
        let Some((region, rtt)) = self.rtt.closest_region(addr) else {
            return true; // no measurement: cannot refute
        };
        let vm_metro = self.region_metro[&region];
        let km = self.catalog.distance_km(vm_metro, metro);
        let floor = 2.0 * km / self.cfg.fiber_km_per_ms;
        if rtt + 0.05 < floor {
            return false; // too fast for the claimed distance
        }
        // Upper bound: fiber paths inflate the great circle, but not
        // boundlessly. An interface whose RTT far exceeds what the claimed
        // location can explain (2.5x inflation plus 2.5 ms of queueing and
        // per-hop overhead) is somewhere else.
        if rtt > 2.5 * floor + 2.5 {
            return false;
        }
        true
    }

    /// Per single-metro IXP: the closest region and the fabric's minimum
    /// RTT (minIXRegion / minIXRTT of §6.1), over all addresses known to sit
    /// on the LAN (observed CBIs plus published member addresses).
    fn ixp_metrics(&self) -> HashMap<usize, (RegionId, f64)> {
        let mut lan_addrs: HashMap<usize, Vec<Ipv4>> = HashMap::new();
        for (&cbi, info) in &self.pool.cbis {
            if let Some(ix) = info.note.ixp {
                lan_addrs.entry(ix).or_default().push(cbi);
            }
        }
        for (addr, ix) in self.datasets.ixp.published_addrs() {
            lan_addrs.entry(ix).or_default().push(addr);
        }
        let mut out = HashMap::new();
        for (ix, addrs) in lan_addrs {
            let mut best: Option<(RegionId, f64)> = None;
            for a in addrs {
                if let Some((r, v)) = self.rtt.closest_region(a) {
                    if best.map(|(_, b)| v < b).unwrap_or(true) {
                        best = Some((r, v));
                    }
                }
            }
            if let Some(b) = best {
                out.insert(ix, b);
            }
        }
        out
    }

    // ----- propagation -----------------------------------------------------

    /// The min-RTT difference across a segment, measured from the region
    /// closest to the ABI (footnote 13 of the paper).
    fn segment_diff(&self, abi: Ipv4, cbi: Ipv4) -> Option<f64> {
        let (region, abi_rtt) = self.rtt.closest_region(abi)?;
        let cbi_rtt = *self.rtt.min_rtt.get(&cbi)?.get(&region)?;
        Some((cbi_rtt - abi_rtt).abs())
    }

    /// Runs co-presence propagation from `anchors` into `out.pins`.
    pub fn propagate(&self, anchors: HashMap<Ipv4, Pin>, out: &mut PinOutcome) {
        let mut pins = anchors;
        // Precompute short segments (and the Figure 4b series).
        let mut short_segments: Vec<(Ipv4, Ipv4)> = Vec::new();
        // cm-lint: allow(D4_MAP_ORDER, short_segments is sorted before use and the fig4b series is sorted by every consumer)
        for seg in self.pool.segments.keys() {
            if let Some(d) = self.segment_diff(seg.abi, seg.cbi) {
                out.fig4b_segment_diffs.push(d);
                if d < self.cfg.copresence_ms {
                    short_segments.push((seg.abi, seg.cbi));
                }
            }
        }
        short_segments.sort_unstable();

        let mut alias_new = 0usize;
        let mut rtt_new = 0usize;
        let mut rounds = 0usize;
        let mut conflict_sets: HashSet<usize> = HashSet::new();
        let mut conflict_segs: HashSet<(Ipv4, Ipv4)> = HashSet::new();
        loop {
            let mut changed = false;
            rounds += 1;
            // Rule 1: alias sets share a facility.
            for (set_idx, set) in self.alias_sets.iter().enumerate() {
                let metros: HashSet<MetroId> = set
                    .iter()
                    .filter_map(|a| pins.get(a).map(|p| p.metro))
                    .collect(); // cm-lint: allow(P1_HEAP_ALLOC, alias sets are small; the set dedups metros to detect facility conflicts)
                match metros.len() {
                    0 => {}
                    1 => {
                        // cm-lint: allow(D4_MAP_ORDER, L1_UNWRAP, guarded singleton read; the len() == 1 arm has exactly one element)
                        let m = *metros.iter().next().unwrap();
                        for &a in set {
                            if !pins.contains_key(&a) && self.in_universe(a) {
                                pins.insert(
                                    a,
                                    Pin {
                                        metro: m,
                                        source: PinSource::AliasRule,
                                    },
                                );
                                alias_new += 1;
                                changed = true;
                            }
                        }
                    }
                    _ => {
                        conflict_sets.insert(set_idx);
                    }
                }
            }
            // Rule 2: short segments share a metro.
            for &(abi, cbi) in &short_segments {
                match (pins.get(&abi).copied(), pins.get(&cbi).copied()) {
                    (Some(p), None) => {
                        pins.insert(
                            cbi,
                            Pin {
                                metro: p.metro,
                                source: PinSource::RttRule,
                            },
                        );
                        rtt_new += 1;
                        changed = true;
                    }
                    (None, Some(p)) => {
                        pins.insert(
                            abi,
                            Pin {
                                metro: p.metro,
                                source: PinSource::RttRule,
                            },
                        );
                        rtt_new += 1;
                        changed = true;
                    }
                    (Some(a), Some(b)) if a.metro != b.metro => {
                        conflict_segs.insert((abi, cbi));
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        out.conflicts = conflict_sets.len() + conflict_segs.len();
        let anchor_total = out.anchor_counts[3].1;
        out.pinned_counts = [
            (alias_new, anchor_total + alias_new),
            (rtt_new, anchor_total + alias_new + rtt_new),
        ];
        out.rounds = rounds;
        out.pins = pins;
    }

    fn in_universe(&self, a: Ipv4) -> bool {
        self.pool.abis.contains_key(&a) || self.pool.cbis.contains_key(&a)
    }

    // ----- regional fallback -----------------------------------------------

    fn regional_fallback(&self, out: &mut PinOutcome) {
        for addr in self.universe() {
            if out.pins.contains_key(&addr) {
                continue;
            }
            let Some(per) = self.rtt.min_rtt.get(&addr) else {
                continue;
            };
            if per.len() == 1 {
                out.single_region += 1;
                // cm-lint: allow(L1_UNWRAP, guarded by an emptiness check: the per.len() == 1 arm has one key)
                out.region_pins.insert(addr, *per.keys().next().unwrap());
                continue;
            }
            let Some((lo, Some(second))) = self.rtt.two_lowest(addr) else {
                continue;
            };
            let ratio = second / lo.max(1e-9);
            out.fig5_ratios.push(ratio);
            if ratio >= self.cfg.region_ratio {
                if let Some((region, _)) = self.rtt.closest_region(addr) {
                    out.region_pins.insert(addr, region);
                }
            }
        }
    }

    // ----- evaluation -------------------------------------------------------

    /// Stratified k-fold cross-validation of the propagation (§6.2): anchors
    /// are split 70/30 per metro; propagation runs from the training side and
    /// is scored on the held-out anchors.
    pub fn cross_validate(&self, folds: usize, train_frac: f64, seed: u64) -> CrossValReport {
        // Reconstruct the anchor set exactly as `run` does.
        let mut scratch = PinOutcome::default();
        let (anchors, _, _) = self.collect_anchors(&mut scratch);
        // Stratify by metro.
        let mut by_metro: HashMap<MetroId, Vec<(Ipv4, Pin)>> = HashMap::new();
        // cm-lint: allow(D4_MAP_ORDER, keyed stratification; each metro bucket is stablehash-sorted before the fold split)
        for (a, p) in &anchors {
            by_metro.entry(p.metro).or_default().push((*a, *p));
        }
        let mut precisions = Vec::new();
        let mut recalls = Vec::new();
        for fold in 0..folds {
            let mut train: HashMap<Ipv4, Pin> = HashMap::new(); // cm-lint: allow(P4_HASH_BUILD, one train split per cross-validation fold; folds is a small constant)
            let mut test: HashMap<Ipv4, Pin> = HashMap::new(); // cm-lint: allow(P4_HASH_BUILD, one test split per cross-validation fold; folds is a small constant)
                                                               // cm-lint: allow(D4_MAP_ORDER, metros split independently into keyed train/test maps; visit order is immaterial)
            for (metro, members) in &by_metro {
                let mut members = members.clone(); // cm-lint: allow(P2_CLONE, the per-fold shuffle must not reorder the shared anchor list)
                members.sort_by_key(|(a, _)| {
                    stablehash::mix(seed, &[fold as u64, metro.0 as u64, a.to_u32() as u64])
                });
                let n_train = ((members.len() as f64) * train_frac).round().max(1.0) as usize;
                for (i, (a, p)) in members.into_iter().enumerate() {
                    if i < n_train {
                        train.insert(a, p);
                    } else {
                        test.insert(a, p);
                    }
                }
            }
            if test.is_empty() {
                continue;
            }
            let mut out = PinOutcome {
                anchor_counts: [(0, 0); 4],
                ..PinOutcome::default()
            };
            self.propagate(train, &mut out);
            let mut pinned = 0usize;
            let mut correct = 0usize;
            // cm-lint: allow(D4_MAP_ORDER, commutative precision/recall tallies; visit order is immaterial)
            for (a, expected) in &test {
                if let Some(got) = out.pins.get(a) {
                    pinned += 1;
                    if got.metro == expected.metro {
                        correct += 1;
                    }
                }
            }
            if pinned > 0 {
                precisions.push(correct as f64 / pinned as f64);
            }
            recalls.push(pinned as f64 / test.len() as f64);
        }
        let stats = |v: &[f64]| -> (f64, f64) {
            if v.is_empty() {
                return (0.0, 0.0);
            }
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
            (mean, var.sqrt())
        };
        let (pm, ps) = stats(&precisions);
        let (rm, rs) = stats(&recalls);
        CrossValReport {
            precision_mean: pm,
            precision_std: ps,
            recall_mean: rm,
            recall_std: rs,
            folds: recalls.len(),
        }
    }
}

/// Facility-level refinement of metro pins — a constrained-facility-search
/// extension in the spirit of Giotsas et al. (CoNEXT'15), which the paper
/// discusses but could not apply for lack of an implementation (§2).
///
/// A metro-pinned CBI can be narrowed to a single building when the
/// PeeringDB tenant lists leave exactly one facility in that metro where
/// both the peer AS and the cloud are present. Alias sets then act as
/// constraints: all interfaces of one router share a facility, so candidate
/// sets are intersected across each set.
#[derive(Clone, Debug, Default)]
pub struct FacilityPins {
    /// Interface → facility index (into the PeeringDB facility catalog).
    pub pins: HashMap<Ipv4, usize>,
    /// Interfaces whose candidate set was empty (data contradiction).
    pub contradicted: usize,
    /// Interfaces left at metro level (several candidate facilities).
    pub ambiguous: usize,
}

/// Runs the refinement over the §6 metro pins.
pub fn refine_to_facilities(
    pool: &SegmentPool,
    metro_pins: &HashMap<Ipv4, Pin>,
    alias_sets: &[Vec<Ipv4>],
    datasets: &PublicDatasets,
    cloud_asns: &HashSet<cm_net::Asn>,
) -> FacilityPins {
    let mut out = FacilityPins::default();
    // Facilities where the cloud itself is listed.
    let mut cloud_facs: HashSet<usize> = HashSet::new();
    for asn in cloud_asns {
        if let Some(fs) = datasets.peeringdb.as_facilities.get(asn) {
            cloud_facs.extend(fs.iter().copied());
        }
    }
    // Candidate facilities per pinned CBI.
    let mut candidates: HashMap<Ipv4, HashSet<usize>> = HashMap::new();
    for (&addr, pin) in metro_pins {
        let Some(asn) = pool.peer_of(addr) else {
            continue;
        };
        let Some(peer_facs) = datasets.peeringdb.as_facilities.get(&asn) else {
            continue;
        };
        let cands: HashSet<usize> = peer_facs
            .iter()
            .copied()
            .filter(|&f| {
                cloud_facs.contains(&f) && datasets.peeringdb.facilities[f].metro == pin.metro
            })
            .collect();
        if !cands.is_empty() {
            candidates.insert(addr, cands);
        }
    }
    // Alias-set constraint: one router, one facility.
    for set in alias_sets {
        let mut inter: Option<HashSet<usize>> = None;
        for a in set {
            if let Some(c) = candidates.get(a) {
                inter = Some(match inter {
                    None => c.clone(),
                    Some(acc) => acc.intersection(c).copied().collect(),
                });
            }
        }
        let Some(inter) = inter else { continue };
        if inter.is_empty() {
            out.contradicted += set.len();
            continue;
        }
        for a in set {
            if candidates.contains_key(a) {
                candidates.insert(*a, inter.clone());
            }
        }
    }
    for (addr, cands) in candidates {
        if cands.len() == 1 {
            // cm-lint: allow(L1_UNWRAP, guarded by an emptiness check: the cands.len() == 1 arm has one element)
            out.pins.insert(addr, *cands.iter().next().unwrap());
        } else {
            out.ambiguous += 1;
        }
    }
    out
}
