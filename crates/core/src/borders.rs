//! Border inference (§4.1) and expansion-round bookkeeping (§4.2).
//!
//! The walk examines each annotated traceroute from the VM outward until the
//! first hop whose organization is neither reserved (AS0) nor the measured
//! cloud's; that hop is a candidate **CBI** and its predecessor the
//! candidate **ABI**. The §4.1 filters discard unreliable traces (loops,
//! gaps at the border, duplicate hops, probes whose destination *is* the
//! CBI, cloud re-entry downstream).
//!
//! [`BorderCollector`] is a streaming consumer: full-scale campaigns produce
//! millions of traceroutes, so observations are folded into the
//! [`SegmentPool`] immediately and raw traces are never retained.

use crate::annotate::{Annotator, HopNote, NoteSource};
use crate::fxhash::FxBuild;
use cm_dataplane::Traceroute;
use cm_net::{Ipv4, OrgId, Prefix};
use cm_topology::RegionId;
use std::collections::{HashMap, HashSet};

/// One unique candidate interconnection segment: the (ABI, CBI) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Segment {
    /// Cloud-side border interface.
    pub abi: Ipv4,
    /// Customer-side border interface.
    pub cbi: Ipv4,
}

/// Aggregated observations of one segment.
#[derive(Clone, Debug, Default)]
pub struct SegmentMeta {
    /// Number of accepted traceroutes crossing the segment.
    pub count: usize,
    /// The hop observed immediately before the ABI (for the §5.2 shift
    /// correction), when it was responsive and contiguous.
    pub pre_abi: Option<Ipv4>,
    /// The hop observed immediately after the CBI.
    pub post_cbi: Option<Ipv4>,
    /// Regions the segment was observed from.
    pub regions: HashSet<RegionId>,
}

/// Aggregated per-CBI observations.
#[derive(Clone, Debug)]
pub struct CbiInfo {
    /// Annotation of the CBI address.
    pub note: HopNote,
    /// Destination of the first traceroute that revealed this CBI
    /// (part of the §7.1 VPI target pool).
    pub first_dst: Ipv4,
    /// /24s (as u32 bases) of destinations reached through this CBI
    /// (the Figure 6 "Reachable /24" feature).
    pub reachable_slash24: HashSet<u32>,
}

/// Per-address successor evidence for the §5.1 hybrid heuristic.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuccessorEvidence {
    /// Seen at least once followed by a cloud-organization hop.
    pub cloud_successor: bool,
    /// Seen at least once followed by a non-cloud hop.
    pub client_successor: bool,
}

/// Why traceroutes were discarded by the §4.1 filters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiscardStats {
    /// Never left the cloud (no candidate CBI found).
    pub no_border: usize,
    /// Unresponsive hop immediately before the border.
    pub gap_before_border: usize,
    /// IP-level loop.
    pub looped: usize,
    /// Duplicate adjacent hops before the border.
    pub duplicate: usize,
    /// The candidate CBI was the probe's destination.
    pub cbi_is_destination: usize,
    /// A downstream hop mapped back into the cloud's organization.
    pub cloud_reentry: usize,
}

impl DiscardStats {
    /// Total number of discarded traceroutes.
    pub fn total(&self) -> usize {
        self.gap_before_border
            + self.looped
            + self.duplicate
            + self.cbi_is_destination
            + self.cloud_reentry
    }
}

/// The accumulated result of a probing round.
#[derive(Clone, Debug)]
pub struct SegmentPool {
    /// The measured cloud's organization.
    pub cloud_org: OrgId,
    /// Unique segments and their metadata.
    pub segments: HashMap<Segment, SegmentMeta>,
    /// Unique CBIs.
    pub cbis: HashMap<Ipv4, CbiInfo>,
    /// Unique ABIs with their annotations.
    pub abis: HashMap<Ipv4, HopNote>,
    /// Successor evidence per cloud-internal address (hybrid heuristic).
    pub successors: HashMap<Ipv4, SuccessorEvidence>,
    /// Filter counters.
    pub discards: DiscardStats,
    /// Accepted traceroutes.
    pub accepted: usize,
    /// Peer-AS overrides produced by the §5.2 alias verification (router
    /// majority ownership beats the address annotation).
    pub owner_override: HashMap<Ipv4, cm_net::Asn>,
}

impl SegmentPool {
    fn new(cloud_org: OrgId) -> Self {
        SegmentPool {
            cloud_org,
            segments: HashMap::new(),
            cbis: HashMap::new(),
            abis: HashMap::new(),
            successors: HashMap::new(),
            discards: DiscardStats::default(),
            accepted: 0,
            owner_override: HashMap::new(),
        }
    }

    /// The peer AS a CBI is attributed to: the §5.2 override when present,
    /// otherwise the address annotation (BGP/WHOIS/IXP membership).
    pub fn peer_of(&self, cbi: Ipv4) -> Option<cm_net::Asn> {
        if let Some(&asn) = self.owner_override.get(&cbi) {
            return Some(asn);
        }
        let note = self.cbis.get(&cbi)?.note;
        (!note.asn.is_reserved()).then_some(note.asn)
    }

    /// The /24s of all discovered CBIs — the §4.2 expansion targets.
    pub fn expansion_prefixes(&self) -> Vec<Prefix> {
        let mut v: Vec<Prefix> = self.cbis.keys().map(|a| Prefix::slash24_of(*a)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Segments touching a given ABI.
    pub fn segments_of_abi(&self, abi: Ipv4) -> impl Iterator<Item = (&Segment, &SegmentMeta)> {
        self.segments.iter().filter(move |(s, _)| s.abi == abi)
    }

    /// Fraction of interfaces per annotation source: `(bgp, whois, ixp)`.
    pub fn source_fractions<'x>(notes: impl Iterator<Item = &'x HopNote>) -> (f64, f64, f64) {
        let mut n = 0usize;
        let (mut b, mut w, mut i) = (0usize, 0usize, 0usize);
        for note in notes {
            n += 1;
            match note.source {
                NoteSource::Bgp => b += 1,
                NoteSource::Whois => w += 1,
                NoteSource::Ixp => i += 1,
                NoteSource::None => {}
            }
        }
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            b as f64 / n as f64,
            w as f64 / n as f64,
            i as f64 / n as f64,
        )
    }

    /// Cheap structural invariants, usable inline after every pool-mutating
    /// stage (the deep §4.1/§5/§6 re-derivation checks live in `cm-audit`):
    ///
    /// * every segment endpoint is present in the corresponding interface
    ///   map (`abis` / `cbis`);
    /// * no address is labeled both ABI and CBI at once;
    /// * per-segment trace counts never exceed the number of accepted
    ///   traceroutes (equality holds before §5.2 corrections, which may
    ///   drop unexplainable segments);
    /// * `owner_override` only covers known interfaces.
    pub fn check_invariants(&self) -> Result<(), String> {
        // cm-lint: allow(D4_MAP_ORDER, validation scan; the success path is order-independent and any violation aborts the run)
        for seg in self.segments.keys() {
            if !self.abis.contains_key(&seg.abi) {
                return Err(format!("segment {:?} has unknown ABI", seg)); // cm-lint: allow(P3_FORMAT, failure-path message; the format! runs at most once, right before the scan aborts)
            }
            if !self.cbis.contains_key(&seg.cbi) {
                return Err(format!("segment {:?} has unknown CBI", seg)); // cm-lint: allow(P3_FORMAT, failure-path message; the format! runs at most once, right before the scan aborts)
            }
        }
        if let Some(both) = self.abis.keys().find(|a| self.cbis.contains_key(a)) {
            return Err(format!("{both} labeled both ABI and CBI"));
        }
        let counted: usize = self.segments.values().map(|m| m.count).sum();
        if counted > self.accepted {
            return Err(format!(
                "segment counts ({counted}) exceed accepted traces ({})",
                self.accepted
            ));
        }
        // cm-lint: allow(D4_MAP_ORDER, validation scan; the success path is order-independent and any violation aborts the run)
        for addr in self.owner_override.keys() {
            if !self.abis.contains_key(addr) && !self.cbis.contains_key(addr) {
                // cm-lint: allow(P3_FORMAT, failure-path message; the format! runs at most once, right before the scan aborts)
                return Err(format!("owner override on unknown interface {addr}"));
            }
        }
        Ok(())
    }

    /// Merges another pool into this one (round one + round two).
    pub fn merge(&mut self, other: SegmentPool) {
        self.merge_ref(&other);
    }

    /// Reference-taking [`SegmentPool::merge`]: the identical fold, but
    /// reading `other` through a shared borrow. The delta engine splices
    /// tens of thousands of cached group pools per era; cloning each
    /// whole pool just to consume it would double the splice's
    /// allocation bill. Every merged value is `Copy` or a small set, so
    /// the by-value path delegates here at no extra cost.
    pub fn merge_ref(&mut self, other: &SegmentPool) {
        assert_eq!(self.cloud_org, other.cloud_org);
        // cm-lint: allow(D4_MAP_ORDER, keyed entry-merge; each key is visited once and the folds commute)
        for (seg, meta) in &other.segments {
            let e = self.segments.entry(*seg).or_default();
            e.count += meta.count;
            if e.pre_abi.is_none() {
                e.pre_abi = meta.pre_abi;
            }
            if e.post_cbi.is_none() {
                e.post_cbi = meta.post_cbi;
            }
            // cm-lint: allow(D4_MAP_ORDER, set-union extend; insertion order into a HashSet cannot affect its contents)
            e.regions.extend(meta.regions.iter().copied());
        }
        // cm-lint: allow(D4_MAP_ORDER, keyed entry-merge; each key is visited once and the folds commute)
        for (&a, info) in &other.cbis {
            match self.cbis.entry(a) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut()
                        .reachable_slash24
                        // cm-lint: allow(D4_MAP_ORDER, set-union extend; insertion order into a HashSet cannot affect its contents)
                        .extend(info.reachable_slash24.iter().copied());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(info.clone()); // cm-lint: allow(P2_CLONE, first sighting of a CBI must own its reachable-set; the by-ref splice cannot move it out)
                }
            }
        }
        // cm-lint: allow(D4_MAP_ORDER, keyed entry-merge; each key is visited once and the folds commute)
        for (&a, &n) in &other.abis {
            self.abis.entry(a).or_insert(n);
        }
        // cm-lint: allow(D4_MAP_ORDER, keyed entry-merge; each key is visited once and the folds commute)
        for (&a, ev) in &other.successors {
            let e = self.successors.entry(a).or_default();
            e.cloud_successor |= ev.cloud_successor;
            e.client_successor |= ev.client_successor;
        }
        self.discards.no_border += other.discards.no_border;
        self.discards.gap_before_border += other.discards.gap_before_border;
        self.discards.looped += other.discards.looped;
        self.discards.duplicate += other.discards.duplicate;
        self.discards.cbi_is_destination += other.discards.cbi_is_destination;
        self.discards.cloud_reentry += other.discards.cloud_reentry;
        self.accepted += other.accepted;
        self.owner_override
            // cm-lint: allow(D4_MAP_ORDER, keyed map extend; each key maps to one deterministic override, so insertion order is immaterial)
            .extend(other.owner_override.iter().map(|(&k, &v)| (k, v)));
    }

    /// Deterministically-counted approximate heap footprint of the pool,
    /// in bytes: entry counts times entry sizes, plus the per-entry
    /// nested sets. This is *accounting*, not `malloc` truth — it
    /// ignores map capacity slack and allocator overhead on purpose, so
    /// the number is a pure function of the pool's contents and can sit
    /// in the deterministic registry as a peak-memory gauge (the
    /// out-of-core work in the roadmap needs exactly this: a
    /// worker-count-invariant measure of what each stage holds alive).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let seg_fixed = size_of::<Segment>() + size_of::<SegmentMeta>();
        let cbi_fixed = size_of::<Ipv4>() + size_of::<CbiInfo>();
        // Commutative sums over map values: visit order cannot change a
        // total, so HashMap iteration is safe here.
        let seg_regions: usize = self.segments.values().map(|m| m.regions.len()).sum();
        let cbi_reach: usize = self.cbis.values().map(|c| c.reachable_slash24.len()).sum();
        let bytes = self.segments.len() * seg_fixed
            + seg_regions * size_of::<RegionId>()
            + self.cbis.len() * cbi_fixed
            + cbi_reach * size_of::<u32>()
            + self.abis.len() * (size_of::<Ipv4>() + size_of::<HopNote>())
            + self.successors.len() * (size_of::<Ipv4>() + size_of::<SuccessorEvidence>())
            + self.owner_override.len() * (size_of::<Ipv4>() + size_of::<cm_net::Asn>());
        bytes as u64
    }
}

/// Streaming traceroute consumer implementing the §4.1 walk.
pub struct BorderCollector<'a, 'd> {
    annotator: &'a Annotator<'d>,
    pool: SegmentPool,
    /// Annotation memo: campaigns revisit the same router interfaces
    /// millions of times, so each address is resolved once per collector.
    /// Keyed with the multiply-xor hasher: it is probed once per
    /// responding hop, and only ever looked up, never iterated.
    memo: HashMap<Ipv4, HopNote, FxBuild>,
    /// Optional shared annotation table (pre-resolved across rounds and
    /// regions); consulted on local-memo misses before the annotator.
    shared: Option<&'a crate::annotate::NoteCache>,
    /// Reusable per-trace scratch: the annotated responding hops, which
    /// every step of the §4.1 walk reads. Hoisted out of
    /// [`BorderCollector::observe`] so a million-trace campaign reuses one
    /// allocation instead of growing a fresh `Vec` per trace.
    scratch_hops: Vec<(u8, Ipv4, HopNote)>,
}

/// Reusable cross-collector state: the annotation memo plus the per-trace
/// scratch buffers. A collector hands it back via
/// [`BorderCollector::finish_reclaim`] so the next collector starts with a
/// warm memo — the delta engine folds tens of thousands of per-group
/// collectors per era, and a cold memo per group would re-resolve (or
/// re-lock the shared table for) every hop of every group.
#[derive(Default)]
pub struct CollectorScratch {
    memo: HashMap<Ipv4, HopNote, FxBuild>,
    hops: Vec<(u8, Ipv4, HopNote)>,
}

impl<'a, 'd> BorderCollector<'a, 'd> {
    /// Creates a collector for traceroutes of the cloud with organization
    /// `cloud_org`.
    pub fn new(annotator: &'a Annotator<'d>, cloud_org: OrgId) -> Self {
        BorderCollector {
            annotator,
            pool: SegmentPool::new(cloud_org),
            memo: HashMap::default(),
            shared: None,
            scratch_hops: Vec::new(),
        }
    }

    /// [`BorderCollector::new`] backed by a shared annotation table, so
    /// addresses resolved by earlier rounds (or other regions' collectors)
    /// are never re-annotated.
    pub fn with_cache(
        annotator: &'a Annotator<'d>,
        cloud_org: OrgId,
        cache: &'a crate::annotate::NoteCache,
    ) -> Self {
        let mut c = Self::new(annotator, cloud_org);
        c.shared = Some(cache);
        c
    }

    /// [`BorderCollector::with_cache`] that additionally adopts the memo
    /// and scratch buffers reclaimed from a previous collector. Annotation
    /// is pure, so a pre-warmed memo changes no product — only how often
    /// the shared table (an `RwLock`) must be consulted.
    pub fn with_scratch(
        annotator: &'a Annotator<'d>,
        cloud_org: OrgId,
        cache: &'a crate::annotate::NoteCache,
        scratch: CollectorScratch,
    ) -> Self {
        let mut c = Self::with_cache(annotator, cloud_org, cache);
        c.memo = scratch.memo;
        c.scratch_hops = scratch.hops;
        c
    }

    /// [`BorderCollector::finish`] that also hands back the reusable
    /// state for [`BorderCollector::with_scratch`].
    pub fn finish_reclaim(self) -> (SegmentPool, CollectorScratch) {
        let scratch = CollectorScratch {
            memo: self.memo,
            hops: self.scratch_hops,
        };
        let pool = BorderCollector {
            annotator: self.annotator,
            pool: self.pool,
            memo: HashMap::default(),
            shared: self.shared,
            scratch_hops: Vec::new(),
        }
        .finish();
        (pool, scratch)
    }

    /// Memoized annotation (local memo first, then the shared table).
    fn note_of(&mut self, addr: Ipv4) -> HopNote {
        if let Some(&n) = self.memo.get(&addr) {
            return n;
        }
        let n = match self.shared {
            Some(cache) => cache.note_of(self.annotator, addr),
            None => self.annotator.annotate(addr),
        };
        self.memo.insert(addr, n);
        n
    }

    /// Folds one traceroute into the pool.
    ///
    /// The hop TTLs must rise strictly, as the simulator emits them and as
    /// `cm_probe::tracefile::read_traces` enforces: the walk then reads
    /// "TTL + 1" as "the next hop" without overflow, and two responding
    /// hops are adjacent in the trace exactly when they are adjacent in the
    /// annotated scratch with consecutive TTLs.
    pub fn observe(&mut self, t: &Traceroute) {
        debug_assert!(
            t.hops.windows(2).all(|w| w[0].ttl < w[1].ttl),
            "hop TTLs of the trace to {} do not rise strictly",
            t.dst
        );
        // Annotate the responding hops once, keeping TTLs. The buffer is
        // collector-owned scratch, moved out for the duration of the walk
        // (so `note_of` can borrow `self`) and restored afterwards.
        let mut hops = std::mem::take(&mut self.scratch_hops);
        hops.clear();
        for h in &t.hops {
            if let Some(a) = h.addr {
                let note = self.note_of(a);
                hops.push((h.ttl, a, note));
            }
        }
        self.observe_annotated(t, &hops);
        self.scratch_hops = hops;
    }

    /// The §4.1 walk over the pre-annotated responding hops.
    fn observe_annotated(&mut self, t: &Traceroute, hops: &[(u8, Ipv4, HopNote)]) {
        let ann = self.annotator;
        let org = self.pool.cloud_org;

        // Successor evidence is gathered on every trace, accepted or not:
        // the hybrid heuristic draws on all observations (§5.1). With
        // strictly rising TTLs, consecutive TTLs mark adjacent trace hops.
        for w in hops.windows(2) {
            let ((ttl_a, a, note_a), (ttl_b, b, note_b)) = (w[0], w[1]);
            if ttl_b != ttl_a + 1 || a == b {
                continue;
            }
            if note_a.org == org {
                let e = self.pool.successors.entry(a).or_default();
                if note_b.org == org {
                    e.cloud_successor = true;
                } else if !ann.is_cloud_internal(&note_b, org) {
                    e.client_successor = true;
                }
            }
        }

        // Locate the first non-internal hop: the candidate CBI.
        let Some(cbi_pos) = hops
            .iter()
            .position(|(_, _, n)| !ann.is_cloud_internal(n, org))
        else {
            self.pool.discards.no_border += 1;
            return;
        };
        let (cbi_ttl, cbi_addr, cbi_note) = hops[cbi_pos];

        // Filter: CBI as the probe destination.
        if cbi_addr == t.dst {
            self.pool.discards.cbi_is_destination += 1;
            return;
        }
        // Filter: the hop right before the CBI must exist and be contiguous
        // (no unresponsive hop at the border).
        if cbi_pos == 0 {
            self.pool.discards.gap_before_border += 1;
            return;
        }
        let (abi_ttl, abi_addr, abi_note) = hops[cbi_pos - 1];
        if abi_ttl + 1 != cbi_ttl {
            self.pool.discards.gap_before_border += 1;
            return;
        }
        // Filter: IP-level loop anywhere in the trace. Each hop is checked
        // against the latest earlier hop with its address: right behind it
        // is a duplicate, further back a loop. A trace holds at most
        // `max_ttl` responding hops, so the backward scan beats hashing.
        let mut looped = false;
        let mut dup_before_border = false;
        for (i, &(ttl, a, _)) in hops.iter().enumerate() {
            let Some(&(prev_ttl, _, _)) = hops[..i].iter().rev().find(|h| h.1 == a) else {
                continue;
            };
            if ttl == prev_ttl + 1 {
                if i <= cbi_pos {
                    dup_before_border = true;
                }
            } else {
                looped = true;
                break;
            }
        }
        if looped {
            self.pool.discards.looped += 1;
            return;
        }
        if dup_before_border {
            self.pool.discards.duplicate += 1;
            return;
        }
        // Filter: the cloud must not reappear downstream of the CBI.
        if hops[cbi_pos + 1..].iter().any(|(_, _, n)| n.org == org) {
            self.pool.discards.cloud_reentry += 1;
            return;
        }

        // Accept.
        debug_assert!(
            abi_ttl + 1 == cbi_ttl,
            "accepted segment with non-contiguous border TTLs ({abi_ttl} -> {cbi_ttl})"
        );
        debug_assert!(
            ann.is_cloud_internal(&abi_note, org),
            "ABI {abi_addr} is not cloud-internal"
        );
        debug_assert!(
            !ann.is_cloud_internal(&cbi_note, org),
            "CBI {cbi_addr} is cloud-internal"
        );
        debug_assert!(
            abi_addr != cbi_addr,
            "degenerate segment: ABI equals CBI ({abi_addr})"
        );
        self.pool.accepted += 1;
        let seg = Segment {
            abi: abi_addr,
            cbi: cbi_addr,
        };
        let meta = self.pool.segments.entry(seg).or_default();
        meta.count += 1;
        meta.regions.insert(t.src_region);
        if meta.pre_abi.is_none() && cbi_pos >= 2 {
            let (pre_ttl, pre_addr, _) = hops[cbi_pos - 2];
            if pre_ttl + 1 == abi_ttl && pre_addr != abi_addr {
                meta.pre_abi = Some(pre_addr);
            }
        }
        if meta.post_cbi.is_none() {
            if let Some(&(post_ttl, post_addr, _)) = hops.get(cbi_pos + 1) {
                if post_ttl == cbi_ttl + 1 {
                    meta.post_cbi = Some(post_addr);
                }
            }
        }
        self.pool.abis.entry(abi_addr).or_insert(abi_note);
        let info = self.pool.cbis.entry(cbi_addr).or_insert_with(|| CbiInfo {
            note: cbi_note,
            first_dst: t.dst,
            reachable_slash24: HashSet::new(),
        });
        info.reachable_slash24.insert(t.dst.slash24_base().to_u32());
    }

    /// Consumes the collector, returning the pool.
    pub fn finish(self) -> SegmentPool {
        debug_assert_eq!(
            self.pool.segments.values().map(|m| m.count).sum::<usize>(),
            self.pool.accepted,
            "every accepted trace contributes exactly one segment observation"
        );
        debug_assert!(
            self.pool.check_invariants().is_ok(),
            "collector produced an inconsistent pool: {:?}",
            self.pool.check_invariants()
        );
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bgp::{bgp_snapshot, BgpView};
    use cm_dataplane::{DataPlane, DataPlaneConfig};
    use cm_datasets::{DatasetConfig, PublicDatasets};
    use cm_probe::Campaign;
    use cm_topology::{CloudId, IcKind, Internet, TopologyConfig};

    struct Setup {
        inet: Internet,
    }

    impl Setup {
        fn new() -> Self {
            Setup {
                inet: Internet::generate(TopologyConfig::tiny(), 41),
            }
        }

        fn datasets(&self) -> (cm_net::PrefixTrie<cm_net::Asn>, PublicDatasets) {
            let snap = bgp_snapshot(&self.inet);
            let view = BgpView::compute(&self.inet, CloudId(0), 16, 41);
            let visible = view
                .visible_peers
                .iter()
                .map(|&p| self.inet.as_node(p).asn)
                .collect();
            let ds = PublicDatasets::derive(&self.inet, DatasetConfig::default(), &visible, 41);
            (snap, ds)
        }

        fn cloud_org(&self, ds: &PublicDatasets) -> OrgId {
            ds.as2org
                .org_of(self.inet.as_node(self.inet.primary_cloud().ases[0]).asn)
                .unwrap()
        }
    }

    #[test]
    fn sweep_discovers_segments_for_most_peering_kinds() {
        let s = Setup::new();
        let (snap, ds) = s.datasets();
        let ann = Annotator::new(&snap, &ds);
        let org = s.cloud_org(&ds);
        let plane = DataPlane::new(&s.inet, DataPlaneConfig::default());
        let campaign = Campaign::new(&plane, CloudId(0));
        let mut collector = BorderCollector::new(&ann, org);
        campaign.sweep_each(|t| collector.observe(t));
        let pool = collector.finish();

        assert!(pool.accepted > 100, "only {} accepted", pool.accepted);
        assert!(!pool.segments.is_empty());
        assert!(pool.cbis.len() > 50, "only {} CBIs", pool.cbis.len());
        assert!(pool.abis.len() > 5, "only {} ABIs", pool.abis.len());
        assert!(
            pool.cbis.len() > pool.abis.len(),
            "CBIs should outnumber ABIs"
        );

        // Found CBIs must include IXP-sourced and BGP-sourced addresses.
        let (b, _w, i) = SegmentPool::source_fractions(pool.cbis.values().map(|c| &c.note));
        assert!(b > 0.2, "BGP share {b}");
        assert!(i > 0.02, "IXP share {i}");

        // Ground-truth check: every inferred CBI must actually be a
        // client-side address or loopback of a client router (or a
        // shifted-segment artifact, which lives on a client router too).
        let mut on_client_router = 0;
        let mut total = 0;
        for &cbi in pool.cbis.keys() {
            total += 1;
            if let Some(&fid) = s.inet.iface_by_addr.get(&cbi) {
                let role = s.inet.router(s.inet.iface(fid).router).role;
                if matches!(
                    role,
                    cm_topology::RouterRole::ClientBorder | cm_topology::RouterRole::ClientInternal
                ) {
                    on_client_router += 1;
                }
            }
        }
        let frac = on_client_router as f64 / total as f64;
        assert!(frac > 0.9, "only {frac} of CBIs on client routers");
    }

    #[test]
    fn vpi_and_ixp_cbis_are_discovered() {
        let s = Setup::new();
        let (snap, ds) = s.datasets();
        let ann = Annotator::new(&snap, &ds);
        let org = s.cloud_org(&ds);
        let plane = DataPlane::new(&s.inet, DataPlaneConfig::default());
        let campaign = Campaign::new(&plane, CloudId(0));
        let mut collector = BorderCollector::new(&ann, org);
        campaign.sweep_each(|t| collector.observe(t));
        let pool = collector.finish();

        // Discovery is judged per AS: a client has several VIF ports but
        // announces few prefixes, so most ports never carry a probed flow
        // (the paper's §7.1 undercount). Count ASes with a cooperative
        // router where at least one port was observed.
        let mut per_as: std::collections::HashMap<_, (bool, bool)> =
            std::collections::HashMap::new();
        for ic in s.inet.cloud_interconnects(CloudId(0)) {
            if let IcKind::Vpi { .. } = ic.kind {
                if s.inet.router(ic.client_router).response != cm_topology::ResponseMode::Incoming {
                    continue;
                }
                let e = per_as.entry(ic.peer).or_insert((false, false));
                e.0 = true;
                if let Some(a) = s.inet.iface(ic.client_iface).addr {
                    if pool.cbis.contains_key(&a) {
                        e.1 = true;
                    }
                }
            }
        }
        let total = per_as.len();
        let found = per_as.values().filter(|(_, f)| *f).count();
        assert!(total > 0);
        assert!(
            found * 2 >= total,
            "only {found}/{total} VPI ASes discovered"
        );
    }

    #[test]
    fn expansion_improves_cbi_coverage() {
        let s = Setup::new();
        let (snap, ds) = s.datasets();
        let ann = Annotator::new(&snap, &ds);
        let org = s.cloud_org(&ds);
        let plane = DataPlane::new(&s.inet, DataPlaneConfig::default());
        let campaign = Campaign::new(&plane, CloudId(0));
        let mut c1 = BorderCollector::new(&ann, org);
        campaign.sweep_each(|t| c1.observe(t));
        let mut pool = c1.finish();
        let round1_cbis = pool.cbis.len();

        let mut c2 = BorderCollector::new(&ann, org);
        campaign.expansion_each(&pool.expansion_prefixes(), |t| c2.observe(t));
        pool.merge(c2.finish());
        assert!(
            pool.cbis.len() > round1_cbis,
            "expansion found nothing new ({round1_cbis})"
        );
    }

    #[test]
    fn hybrid_evidence_appears_on_cloud_interfaces() {
        let s = Setup::new();
        let (snap, ds) = s.datasets();
        let ann = Annotator::new(&snap, &ds);
        let org = s.cloud_org(&ds);
        let plane = DataPlane::new(&s.inet, DataPlaneConfig::default());
        let campaign = Campaign::new(&plane, CloudId(0));
        let mut collector = BorderCollector::new(&ann, org);
        campaign.sweep_each(|t| collector.observe(t));
        let pool = collector.finish();
        let with_client_succ = pool
            .successors
            .values()
            .filter(|e| e.client_successor)
            .count();
        assert!(with_client_succ > 0);
    }

    #[test]
    fn discard_counters_capture_artifacts() {
        let s = Setup::new();
        let (snap, ds) = s.datasets();
        let ann = Annotator::new(&snap, &ds);
        let org = s.cloud_org(&ds);
        // Crank artifacts up to force the filters to fire.
        let cfg = DataPlaneConfig {
            loss_rate: 0.2,
            dup_rate: 0.2,
            loop_rate: 0.2,
            ..DataPlaneConfig::default()
        };
        let plane = DataPlane::new(&s.inet, cfg);
        let campaign = Campaign::new(&plane, CloudId(0));
        let mut collector = BorderCollector::new(&ann, org);
        campaign.sweep_each(|t| collector.observe(t));
        let pool = collector.finish();
        assert!(pool.discards.duplicate > 0, "{:?}", pool.discards);
        assert!(pool.discards.gap_before_border > 0, "{:?}", pool.discards);
    }
}
