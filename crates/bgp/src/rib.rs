//! Per-cloud egress routing.

use cm_net::stablehash;
use cm_net::{Ipv4, PrefixTrie};
use cm_topology::{AsIndex, CloudId, IcAnnouncement, IcId, IcKind, Internet, RegionId};
use std::collections::HashMap;

/// One way a destination prefix can be reached from a cloud: leave through
/// interconnect `ic` and descend `path_len` AS hops to `origin`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The interconnect the traffic egresses through.
    pub ic: IcId,
    /// The AS originating the prefix.
    pub origin: AsIndex,
    /// Number of ASes on the path (1 = the peer originates the prefix).
    pub path_len: u8,
    /// Egress preference class at equal path length: direct-connect VPIs
    /// beat cross-connects beat public peering (clouds prefer private
    /// interconnects for the traffic they carry).
    pub pref: u8,
}

/// Preference class of an interconnect kind.
fn kind_pref(kind: IcKind) -> u8 {
    match kind {
        IcKind::Vpi { .. } => 0,
        IcKind::CrossConnect => 1,
        IcKind::PublicIxp(_) => 2,
    }
}

/// Per-prefix announcement subsetting (traffic engineering): a peer with
/// several interconnects does not announce every prefix everywhere. Each
/// own-prefix is announced on a deterministic subset of the peer's links —
/// always including the peer's first interconnect so reachability never
/// regresses to transit for single-homed peers.
fn announces_prefix(
    inet: &Internet,
    ic: &cm_topology::Interconnect,
    first_ic: IcId,
    p: cm_net::Prefix,
) -> bool {
    if ic.id == first_ic {
        return true;
    }
    let rate = match ic.kind {
        IcKind::Vpi { .. } => 0.8,
        IcKind::CrossConnect => 0.85,
        IcKind::PublicIxp(_) => 0.75,
    };
    stablehash::chance(
        inet.seed,
        &[0xA44, ic.id.0 as u64, u64::from(p.base().to_u32())],
        rate,
    )
}

/// A selected route: the egress interconnect plus the full AS path from the
/// peer down to the origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Egress interconnect.
    pub ic: IcId,
    /// AS path starting at the peer and ending at the origin (length ≥ 1).
    pub as_path: Vec<AsIndex>,
}

/// The egress routing table of one cloud.
///
/// Best-route selection follows BGP intuition: shortest AS path first, then
/// egress preference, then hot-potato (egress closest to the source
/// region), then a per-destination flow hash as the deterministic
/// tie-break (see [`RoutingTable::route_at`]).
pub struct RoutingTable {
    /// The cloud this table routes for.
    pub cloud: CloudId,
    trie: PrefixTrie<Vec<Candidate>>,
    /// Per transit peer: parent array of the customer-edge BFS tree used to
    /// reconstruct descent paths (`parent[d] == u32::MAX` means unreachable).
    descent: HashMap<AsIndex, Vec<u32>>,
    /// Region-to-region great-circle km, flat and indexed by
    /// `src.index() * region_count + egress.index()` over every region of
    /// the Internet. Pairs involving another cloud's region hold
    /// `f64::MAX`, so they lose every hot-potato comparison.
    region_km: Vec<f64>,
    /// Number of regions across all clouds (the row length of
    /// `region_km`).
    region_count: usize,
    /// Longest prefix length stored in the trie (0 when empty). When this
    /// is ≤ 24, every address of a destination /24 resolves to the same
    /// trie leaf, and a /24-keyed route cache is exact.
    max_prefix_len: u8,
}

impl RoutingTable {
    /// Builds the routing table for `cloud` from the ground-truth
    /// interconnect announcements.
    pub fn build(inet: &Internet, cloud: CloudId) -> Self {
        let mut trie: PrefixTrie<Vec<Candidate>> = PrefixTrie::new();
        let mut descent: HashMap<AsIndex, Vec<u32>> = HashMap::new();
        // Prefix → owner map for Specific announcements.
        let mut owner_of_prefix: HashMap<cm_net::Prefix, AsIndex> = HashMap::new();
        for a in &inet.ases {
            for &p in &a.prefixes {
                owner_of_prefix.insert(p, a.idx);
            }
        }

        // Accumulate per-prefix candidate lists first, then build the trie
        // once (repeated trie re-insertion would be quadratic for prefixes
        // announced by every tier-1 cone).
        let mut acc: HashMap<cm_net::Prefix, Vec<Candidate>> = HashMap::new();
        let add = |acc: &mut HashMap<cm_net::Prefix, Vec<Candidate>>,
                   prefix: cm_net::Prefix,
                   cand: Candidate| {
            acc.entry(prefix).or_default().push(cand);
        };

        // First interconnect per peer (announcement fallback anchor).
        let mut first_ic: HashMap<AsIndex, IcId> = HashMap::new();
        for ic in inet.cloud_interconnects(cloud) {
            let e = first_ic.entry(ic.peer).or_insert(ic.id);
            if ic.id.0 < e.0 {
                *e = ic.id;
            }
        }

        for ic in inet.cloud_interconnects(cloud) {
            let pref = kind_pref(ic.kind);
            match &ic.announced {
                IcAnnouncement::OwnPrefixes => {
                    for &p in &inet.as_node(ic.peer).prefixes {
                        if !announces_prefix(inet, ic, first_ic[&ic.peer], p) {
                            continue;
                        }
                        add(
                            &mut acc,
                            p,
                            Candidate {
                                ic: ic.id,
                                origin: ic.peer,
                                path_len: 1,
                                pref,
                            },
                        );
                    }
                }
                IcAnnouncement::CustomerCone => {
                    descent
                        .entry(ic.peer)
                        .or_insert_with(|| bfs_descent(inet, ic.peer));
                    let parents = &descent[&ic.peer];
                    for &member in &inet.cones[ic.peer.index()] {
                        let depth = descent_depth(parents, ic.peer, member);
                        let Some(depth) = depth else { continue };
                        for &p in &inet.as_node(member).prefixes {
                            add(
                                &mut acc,
                                p,
                                Candidate {
                                    ic: ic.id,
                                    origin: member,
                                    path_len: depth + 1,
                                    pref,
                                },
                            );
                        }
                    }
                }
                IcAnnouncement::Specific(prefixes) => {
                    for &p in prefixes {
                        let origin = owner_of_prefix.get(&p).copied().unwrap_or(ic.peer);
                        let len = if origin == ic.peer { 1 } else { 2 };
                        add(
                            &mut acc,
                            p,
                            Candidate {
                                ic: ic.id,
                                origin,
                                path_len: len,
                                pref,
                            },
                        );
                    }
                }
            }
        }

        let mut max_prefix_len = 0u8;
        // cm-lint: allow(D4_MAP_ORDER, candidates are sorted and inserted into a keyed trie, erasing accumulation order)
        for (prefix, mut cands) in acc {
            // Deterministic candidate order regardless of HashMap iteration.
            // `route_at` relies on it: each (path_len, pref) tier is one
            // contiguous run, and tiers come in selection order.
            cands.sort_by_key(|c| (c.path_len, c.pref, c.ic.0));
            debug_assert!(
                cands.is_sorted_by_key(|c| (c.path_len, c.pref, c.ic.0)),
                "candidates must be sorted by (path_len, pref, ic)"
            );
            max_prefix_len = max_prefix_len.max(prefix.len());
            trie.insert(prefix, cands);
        }

        // Region distance matrix for hot-potato tie-breaking.
        let region_count = inet.regions.len();
        let mut region_km = vec![f64::MAX; region_count * region_count];
        let regions = &inet.clouds[cloud.index()].regions;
        for &a in regions {
            for &b in regions {
                let km = inet.metro_km(inet.region(a).metro, inet.region(b).metro);
                region_km[a.index() * region_count + b.index()] = km;
            }
        }

        RoutingTable {
            cloud,
            trie,
            descent,
            region_km,
            region_count,
            max_prefix_len,
        }
    }

    /// Number of distinct prefixes with at least one candidate.
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }

    /// Whether a per-(region, /24, epoch) memo of [`RoutingTable::route_at`]
    /// is exact for this table: true iff no stored prefix is finer than a
    /// /24, so every address of one /24 hits the same trie leaf (and the
    /// selection tie-break already keys on `dest >> 8` only).
    pub fn memo_exact(&self) -> bool {
        self.max_prefix_len <= 24
    }

    /// Selects the best route from `src_region` to `dest`.
    ///
    /// Returns `None` when no interconnect announces a covering prefix
    /// (including destinations inside the cloud's own address space, which
    /// never leave the cloud). Equivalent to [`RoutingTable::route_at`] at
    /// epoch 0 (the churn-free baseline).
    pub fn route(&self, inet: &Internet, dest: Ipv4, src_region: RegionId) -> Option<Route> {
        self.route_at(inet, dest, src_region, 0)
    }

    /// Epoch-aware route selection.
    ///
    /// A measurement campaign spans days; BGP sessions flap, links drain
    /// for maintenance, and traffic engineering shifts. Each epoch > 0
    /// deterministically marks a share of candidates "down", so repeated
    /// sweeps traverse *different* interconnects of the same peer — the
    /// path diversity a 16-day campaign accumulates (§3 of the paper).
    /// Epoch 0 never suffers outages; if churn removes every candidate for
    /// a prefix, selection runs over all candidates as if none were down
    /// (the fabric never partitions).
    ///
    /// Selection is lexicographic, like BGP's decision process: shortest
    /// AS path, then egress preference, then hot-potato distance, then —
    /// as the final tie for parallel links at one facility —
    /// per-destination flow hashing, so every member of a LAG bundle
    /// carries some prefixes and becomes observable. `build` sorts each
    /// prefix's candidates by `(path_len, pref, ic)`, so only the first
    /// `(path_len, pref)` tier holding an up candidate can win: a lookup
    /// walks to the first up candidate, then computes distances and flow
    /// hashes for that tier alone instead of for every candidate.
    pub fn route_at(
        &self,
        inet: &Internet,
        dest: Ipv4,
        src_region: RegionId,
        epoch: u32,
    ) -> Option<Route> {
        let candidates = self.trie.lookup(dest)?;
        let up = |c: &Candidate| -> bool {
            epoch == 0
                || !stablehash::chance(inet.seed, &[0xF1A9, epoch as u64, c.ic.0 as u64], 0.18)
        };
        // The winning tier starts at the first up candidate; when every
        // candidate is down it is the first tier, with nothing filtered.
        let (start, filter_up) = match candidates.iter().position(up) {
            Some(i) => (i, true),
            None => (0, false),
        };
        let head = candidates.get(start)?;
        let tier = (head.path_len, head.pref);
        let mut best = head;
        let (mut best_km, mut best_flow) = self.tie_key(inet, head, dest, src_region, epoch);
        for c in candidates[start + 1..]
            .iter()
            .take_while(|c| (c.path_len, c.pref) == tier)
        {
            if filter_up && !up(c) {
                continue;
            }
            let (km, flow) = self.tie_key(inet, c, dest, src_region, epoch);
            // Strictly better only: on a full tie the earlier candidate
            // stays, as `Iterator::min_by` keeps the first minimum.
            if km.total_cmp(&best_km).then(flow.cmp(&best_flow)).is_lt() {
                (best, best_km, best_flow) = (c, km, flow);
            }
        }
        let peer = inet.interconnect(best.ic).peer;
        let as_path = self.reconstruct_path(peer, best.origin);
        Some(Route {
            ic: best.ic,
            as_path,
        })
    }

    /// The within-tier sort key of `c`: hot-potato km from `src` to the
    /// egress, then the per-(destination /24, interconnect, epoch) flow
    /// hash.
    fn tie_key(
        &self,
        inet: &Internet,
        c: &Candidate,
        dest: Ipv4,
        src: RegionId,
        epoch: u32,
    ) -> (f64, u64) {
        let egress = inet.interconnect(c.ic).region;
        let km = self
            .region_km
            .get(src.index() * self.region_count + egress.index())
            .copied()
            .unwrap_or(f64::MAX);
        let flow = stablehash::mix(
            0xECB0,
            &[u64::from(dest.to_u32()) >> 8, c.ic.0 as u64, epoch as u64],
        );
        (km, flow)
    }

    /// Walks the descent tree from `origin` back to `peer`.
    fn reconstruct_path(&self, peer: AsIndex, origin: AsIndex) -> Vec<AsIndex> {
        if peer == origin {
            return vec![peer];
        }
        match self.descent.get(&peer) {
            Some(parents) => {
                let mut rev = vec![origin];
                let mut cur = origin;
                while cur != peer {
                    let p = parents[cur.index()];
                    if p == u32::MAX {
                        // Origin not actually in the tree (Specific route):
                        // fall back to the two-hop path.
                        // cm-lint: allow(P1_HEAP_ALLOC, fallback executes at most once per lookup and returns immediately)
                        return vec![peer, origin];
                    }
                    cur = AsIndex(p);
                    rev.push(cur);
                }
                rev.reverse();
                rev
            }
            None => vec![peer, origin],
        }
    }
}

/// BFS over customer edges rooted at `root`; returns the parent array
/// (`u32::MAX` = not reachable / the root itself).
fn bfs_descent(inet: &Internet, root: AsIndex) -> Vec<u32> {
    let mut parents = vec![u32::MAX; inet.ases.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(root);
    let mut visited = vec![false; inet.ases.len()];
    visited[root.index()] = true;
    while let Some(u) = queue.pop_front() {
        // Deterministic order: customers are stored in generation order.
        for &c in &inet.as_node(u).customers {
            if !visited[c.index()] {
                visited[c.index()] = true;
                parents[c.index()] = u.0;
                queue.push_back(c);
            }
        }
    }
    parents
}

/// Depth of `node` under `root` in the descent tree (0 for the root).
fn descent_depth(parents: &[u32], root: AsIndex, node: AsIndex) -> Option<u8> {
    let mut cur = node;
    let mut d = 0u16;
    while cur != root {
        let p = parents[cur.index()];
        if p == u32::MAX {
            return None;
        }
        cur = AsIndex(p);
        d += 1;
        if d > 64 {
            return None; // defensive: malformed tree
        }
    }
    Some(d.min(255) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::{Internet, TopologyConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tiny() -> Internet {
        Internet::generate(TopologyConfig::tiny(), 11)
    }

    /// The full-scan selection the tier scan replaced, kept as the
    /// reference: key every candidate, then take the lexicographic
    /// minimum of `(path_len, pref, km, flow hash)` over the up
    /// candidates, or over all of them when none is up. Distances come
    /// straight from the metro coordinates, not from `region_km`.
    fn full_scan_route(
        table: &RoutingTable,
        inet: &Internet,
        dest: Ipv4,
        src_region: RegionId,
        epoch: u32,
    ) -> Option<Route> {
        let candidates = table.trie.lookup(dest)?;
        let regions = &inet.clouds[table.cloud.index()].regions;
        let keys: Vec<(f64, u64)> = candidates
            .iter()
            .map(|c| {
                let egress = inet.interconnect(c.ic).region;
                let km = if regions.contains(&src_region) && regions.contains(&egress) {
                    inet.metro_km(inet.region(src_region).metro, inet.region(egress).metro)
                } else {
                    f64::MAX
                };
                let flow = stablehash::mix(
                    0xECB0,
                    &[u64::from(dest.to_u32()) >> 8, c.ic.0 as u64, epoch as u64],
                );
                (km, flow)
            })
            .collect();
        let up = |c: &Candidate| -> bool {
            epoch == 0
                || !stablehash::chance(inet.seed, &[0xF1A9, epoch as u64, c.ic.0 as u64], 0.18)
        };
        let pick = |filter_up: bool| -> Option<&Candidate> {
            candidates
                .iter()
                .zip(&keys)
                .filter(|(c, _)| !filter_up || up(c))
                .min_by(|(x, (dx, hx)), (y, (dy, hy))| {
                    x.path_len
                        .cmp(&y.path_len)
                        .then(x.pref.cmp(&y.pref))
                        .then(dx.total_cmp(dy))
                        .then(hx.cmp(hy))
                })
                .map(|(c, _)| c)
        };
        let best = pick(true).or_else(|| pick(false))?;
        let peer = inet.interconnect(best.ic).peer;
        Some(Route {
            ic: best.ic,
            as_path: table.reconstruct_path(peer, best.origin),
        })
    }

    /// The epochs the pins cover: the churn-free baseline, two churn
    /// epochs, and epoch 1 of the route-flap universe (the dataplane
    /// diverts a flapped lookup to `epoch ^ 0x4000_0000`).
    const PIN_EPOCHS: [u32; 4] = [0, 1, 2, 1 ^ 0x4000_0000];

    #[test]
    fn tier_scan_matches_full_scan_on_every_sweep_slash24() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        // The sweep list, derived as the dataplane derives it: every /24
        // of every allocated block.
        let mut sweep = Vec::new();
        for (block, _) in &inet.addr_plan.blocks {
            let base = block.base().to_u32();
            for k in 0..(block.num_addresses() / 256).max(1) {
                sweep.push(Ipv4(base + (k as u32) * 256).slash24_probe_target());
            }
        }
        let (mut routed, mut first_down) = (0usize, 0usize);
        for &region in &inet.primary_cloud().regions {
            for &dest in &sweep {
                for epoch in PIN_EPOCHS {
                    let want = full_scan_route(&table, &inet, dest, region, epoch);
                    assert_eq!(
                        table.route_at(&inet, dest, region, epoch),
                        want,
                        "{dest} from {region:?} at epoch {epoch:#x}"
                    );
                    let Some(cands) = table.trie.lookup(dest) else {
                        continue;
                    };
                    routed += 1;
                    first_down += usize::from(is_down(&inet, &cands[0], epoch));
                }
            }
        }
        // The pin must reach the walk past down candidates, not only the
        // common case where the first candidate is up.
        assert!(routed > 1000, "only {routed} routed lookups");
        assert!(first_down > 0, "no lookup started with a down candidate");
    }

    /// Whether churn marks `c` down at `epoch` (the `up` rule, negated).
    fn is_down(inet: &Internet, c: &Candidate, epoch: u32) -> bool {
        epoch != 0 && stablehash::chance(inet.seed, &[0xF1A9, epoch as u64, c.ic.0 as u64], 0.18)
    }

    #[test]
    fn every_candidate_down_selects_over_the_whole_first_tier() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        // No sweep lookup at the pinned epochs loses every candidate, so
        // search: for the routed prefixes with the fewest candidates, find
        // epochs that take all of them down.
        let mut dests: Vec<(usize, Ipv4)> = inet
            .addr_plan
            .blocks
            .iter()
            .map(|(block, _)| block.base().slash24_probe_target())
            .filter_map(|d| Some((table.trie.lookup(d)?.len(), d)))
            .collect();
        dests.sort_by_key(|&(n, d)| (n, d.to_u32()));
        let mut checked = 0;
        for &(_, dest) in dests.iter().take(20) {
            let cands = table.trie.lookup(dest).unwrap();
            for epoch in 1..20_000u32 {
                if !cands.iter().all(|c| is_down(&inet, c, epoch)) {
                    continue;
                }
                for &region in &inet.primary_cloud().regions {
                    assert_eq!(
                        table.route_at(&inet, dest, region, epoch),
                        full_scan_route(&table, &inet, dest, region, epoch),
                        "{dest} from {region:?} at epoch {epoch}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked >= 10, "only {checked} all-down lookups found");
    }

    fn world() -> &'static (Internet, RoutingTable) {
        static W: OnceLock<(Internet, RoutingTable)> = OnceLock::new();
        W.get_or_init(|| {
            let inet = tiny();
            let table = RoutingTable::build(&inet, CloudId(0));
            (inet, table)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any address — inside an allocated block or anywhere in the
        /// IPv4 space — from any primary region at any epoch selects the
        /// full scan's route.
        #[test]
        fn tier_scan_matches_full_scan_on_random_addresses(
            raw in any::<u32>(),
            block_pick in any::<u64>(),
            inside in any::<bool>(),
            region_pick in 0usize..8,
            epoch in 0u32..64,
            flapped in any::<bool>(),
        ) {
            let (inet, table) = world();
            let blocks = &inet.addr_plan.blocks;
            let dest = if inside {
                let (block, _) = blocks[(block_pick % blocks.len() as u64) as usize];
                let span = block.num_addresses().max(1);
                Ipv4(block.base().to_u32() + (u64::from(raw) % span) as u32)
            } else {
                Ipv4(raw)
            };
            let regions = &inet.primary_cloud().regions;
            let region = regions[region_pick % regions.len()];
            let epoch = if flapped { epoch ^ 0x4000_0000 } else { epoch };
            prop_assert_eq!(
                table.route_at(inet, dest, region, epoch),
                full_scan_route(table, inet, dest, region, epoch)
            );
        }
    }

    #[test]
    fn builds_and_routes_to_peer_prefix() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        assert!(table.prefix_count() > 0);
        // Pick any interconnect peer with own-prefix announcement and route
        // to one of its addresses.
        let ic = inet
            .cloud_interconnects(CloudId(0))
            .find(|ic| ic.announced == IcAnnouncement::OwnPrefixes)
            .expect("some own-prefix peering exists");
        let peer = ic.peer;
        let dest = inet.as_node(peer).prefixes[0].base().saturating_next();
        let region = inet.primary_cloud().regions[0];
        let route = table.route(&inet, dest, region).expect("route exists");
        let chosen = inet.interconnect(route.ic);
        assert_eq!(chosen.peer, peer, "direct peering must win");
        assert_eq!(route.as_path, vec![peer]);
    }

    #[test]
    fn transit_covers_non_peers() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        let peers: std::collections::HashSet<AsIndex> =
            inet.cloud_peers(CloudId(0)).into_iter().collect();
        let region = inet.primary_cloud().regions[0];
        // Find an AS that is not a direct peer; it must still be routable
        // via some transit cone.
        let non_peer = inet
            .ases
            .iter()
            .find(|a| {
                !peers.contains(&a.idx)
                    && a.tier != cm_topology::AsTier::Cloud
                    && !a.prefixes.is_empty()
            })
            .expect("some non-peer AS exists");
        let dest = non_peer.prefixes[0].base().saturating_next();
        let route = table
            .route(&inet, dest, region)
            .expect("transit path must exist");
        assert!(route.as_path.len() >= 2, "non-peer must be ≥ 2 AS hops");
        assert_eq!(*route.as_path.last().unwrap(), non_peer.idx);
        // Path must follow provider->customer edges.
        for w in route.as_path.windows(2) {
            assert!(
                inet.as_node(w[0]).customers.contains(&w[1]),
                "{:?} is not a customer edge",
                w
            );
        }
    }

    #[test]
    fn cloud_own_space_is_not_routed_out() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        let region = inet.primary_cloud().regions[0];
        let own = inet.as_node(inet.primary_cloud().ases[0]).prefixes[0]
            .base()
            .saturating_next();
        assert!(table.route(&inet, own, region).is_none());
    }

    #[test]
    fn shorter_paths_preferred() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        let region = inet.primary_cloud().regions[0];
        // For every direct peer with own prefixes, the selected route to its
        // space must be the one-hop route.
        for ic in inet.cloud_interconnects(CloudId(0)) {
            if ic.announced != IcAnnouncement::OwnPrefixes {
                continue;
            }
            let p = inet.as_node(ic.peer).prefixes.first();
            let Some(&p) = p else { continue };
            if let Some(r) = table.route(&inet, p.base().saturating_next(), region) {
                assert_eq!(r.as_path.len(), 1, "direct peer route must be 1 hop");
            }
        }
    }

    #[test]
    fn hot_potato_picks_near_egress() {
        let inet = tiny();
        let table = RoutingTable::build(&inet, CloudId(0));
        // A tier-1 with cross-connects in several regions: routes from a
        // region that hosts one of them should egress in that region.
        let t1_ics: Vec<_> = inet
            .cloud_interconnects(CloudId(0))
            .filter(|ic| {
                inet.as_node(ic.peer).tier == cm_topology::AsTier::Tier1
                    && ic.announced == IcAnnouncement::CustomerCone
            })
            .collect();
        if t1_ics.len() < 2 {
            return; // tiny topologies may not have enough spread
        }
        let peer = t1_ics[0].peer;
        let same_peer: Vec<_> = t1_ics.iter().filter(|ic| ic.peer == peer).collect();
        if same_peer.len() < 2 {
            return;
        }
        let dest = inet.as_node(peer).prefixes[0].base().saturating_next();
        for ic in &same_peer {
            let r = table.route(&inet, dest, ic.region).unwrap();
            let egress = inet.interconnect(r.ic).region;
            let km_chosen = inet.metro_km(inet.region(ic.region).metro, inet.region(egress).metro);
            // The chosen egress can be no farther than this peer's
            // interconnect in the source region itself (0 km).
            let km_own = inet.metro_km(inet.region(ic.region).metro, inet.region(ic.region).metro);
            assert!(km_chosen <= km_own + 1e-9, "hot potato violated");
        }
    }
}
