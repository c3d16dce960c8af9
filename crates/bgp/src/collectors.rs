//! Public-BGP visibility: the collector / feeder model.

use cm_net::stablehash;
use cm_topology::{AsIndex, AsTier, CloudId, Internet};
use std::collections::{HashMap, HashSet, VecDeque};

/// The view a RouteViews/RIS-style collector infrastructure has of a cloud's
/// peering fabric.
///
/// A fixed set of *feeder* ASes export their best path towards the cloud.
/// Route preference and export follow Gao–Rexford:
///
/// * a direct cloud peering is a **peer route** — exported only to the
///   peer's customers;
/// * customers re-export the resulting **provider routes** to their own
///   customers, never sideways or upward.
///
/// A peering link `(X, cloud)` is therefore visible iff some feeder sits at
/// or below `X` in the customer hierarchy *and* selects a path through `X`.
/// With feeders concentrated at large transit networks — where real
/// collectors peer — most edge peerings stay invisible, reproducing the
/// paper's "hidden peerings" finding (§7.2).
#[derive(Clone, Debug)]
pub struct BgpView {
    /// The cloud this view observes.
    pub cloud: CloudId,
    /// Feeder ASes exporting their tables to the collectors.
    pub feeders: Vec<AsIndex>,
    /// Peer ASes whose link with the cloud appears on some exported path.
    pub visible_peers: HashSet<AsIndex>,
    /// The exported AS path of each feeder towards the cloud
    /// (`feeder, ..., peer` — the cloud itself is implicit at the end).
    pub feeder_paths: HashMap<AsIndex, Vec<AsIndex>>,
}

impl BgpView {
    /// Computes the collector view for `cloud`, with `n_feeders` feeders
    /// selected deterministically from `seed`: every tier-1, then large
    /// tier-2s, then a few access networks.
    pub fn compute(inet: &Internet, cloud: CloudId, n_feeders: usize, seed: u64) -> Self {
        let feeders = select_feeders(inet, n_feeders, seed);
        let best = best_paths_to_cloud(inet, cloud);
        let mut visible_peers = HashSet::new();
        let mut feeder_paths = HashMap::new();
        for &f in &feeders {
            if let Some(path) = best.get(&f) {
                // The last AS on the path is the direct peer of the cloud.
                if let Some(&peer) = path.last() {
                    visible_peers.insert(peer);
                }
                feeder_paths.insert(f, path.clone()); // cm-lint: allow(P2_CLONE, one path copy per feeder at view construction; the view must own its paths)
            }
        }
        BgpView {
            cloud,
            feeders,
            visible_peers,
            feeder_paths,
        }
    }

    /// Whether the AS link `(peer, cloud)` is present in public BGP.
    pub fn link_visible(&self, peer: AsIndex) -> bool {
        self.visible_peers.contains(&peer)
    }
}

/// Deterministic feeder selection: all tier-1s first, then tier-2s, then
/// access networks, shuffled within each class by the seed.
fn select_feeders(inet: &Internet, n: usize, seed: u64) -> Vec<AsIndex> {
    let mut by_class: [Vec<AsIndex>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for a in &inet.ases {
        match a.tier {
            AsTier::Tier1 => by_class[0].push(a.idx),
            AsTier::Tier2 => by_class[1].push(a.idx),
            AsTier::Access => by_class[2].push(a.idx),
            _ => {}
        }
    }
    for (c, class) in by_class.iter_mut().enumerate() {
        class.sort_by_key(|a| stablehash::mix(seed, &[0xFEED, c as u64, a.0 as u64]));
    }
    let mut out = Vec::new();
    for class in by_class {
        for a in class {
            if out.len() >= n {
                return out;
            }
            out.push(a);
        }
    }
    out
}

/// Gao–Rexford best path from every AS towards the cloud.
///
/// Returns, for each AS that has any valley-free route, the AS path
/// `[self, ..., peer]` (the cloud omitted). Direct peers have the path
/// `[self]`.
///
/// Routes propagate only downward (peer routes and provider routes are
/// exported to customers only), so the reachable set is exactly the union of
/// the direct peers' customer cones. Preference at each AS: shortest path;
/// among equal-length choices each AS breaks the tie with a stable per-AS
/// hash — real networks tie-break on local policy, which is what spreads
/// different feeders over different upstream peers and lets a larger
/// collector infrastructure reveal more distinct peering links.
pub fn best_paths_to_cloud(inet: &Internet, cloud: CloudId) -> HashMap<AsIndex, Vec<AsIndex>> {
    let n = inet.ases.len();
    let peers = inet.cloud_peers(cloud);
    // BFS over provider->customer edges for hop distance.
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut sorted_peers = peers;
    sorted_peers.sort_unstable();
    for &p in &sorted_peers {
        if inet.as_node(p).tier == AsTier::Cloud {
            continue;
        }
        dist[p.index()] = 0;
        queue.push_back(p);
    }
    while let Some(u) = queue.pop_front() {
        for &c in &inet.as_node(u).customers {
            if dist[c.index()] == u32::MAX {
                dist[c.index()] = dist[u.index()] + 1;
                queue.push_back(c);
            }
        }
    }
    // Per AS: choose among equal-distance providers (or the direct peering)
    // with a stable per-AS hash, then walk up to reconstruct the path.
    let mut best: HashMap<AsIndex, Vec<AsIndex>> = HashMap::new();
    for i in 0..n {
        if dist[i] == u32::MAX {
            continue;
        }
        let mut path = Vec::new(); // cm-lint: allow(P1_HEAP_ALLOC, each AS owns its reconstructed best path; built once per AS when the view is computed)
        let mut cur = AsIndex(i as u32);
        loop {
            path.push(cur);
            let d = dist[cur.index()];
            if d == 0 {
                break;
            }
            let parents: Vec<AsIndex> = inet
                .as_node(cur)
                .providers
                .iter()
                .copied()
                .filter(|p| dist[p.index()] == d - 1)
                .collect(); // cm-lint: allow(P1_HEAP_ALLOC, the stable pick draw needs the candidate parents as a slice; provider fan-in is small)
            debug_assert!(!parents.is_empty());
            let pick = stablehash::pick(
                0x9A0_u64,
                &[i as u64, cur.0 as u64, d as u64],
                parents.len(),
            );
            cur = parents[pick];
            if path.len() > 64 {
                break; // defensive
            }
        }
        best.insert(AsIndex(i as u32), path);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::TopologyConfig;

    fn tiny() -> Internet {
        Internet::generate(TopologyConfig::tiny(), 5)
    }

    #[test]
    fn feeders_are_deterministic_and_bounded() {
        let inet = tiny();
        let a = select_feeders(&inet, 10, 3);
        let b = select_feeders(&inet, 10, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let c = select_feeders(&inet, 10, 4);
        assert_ne!(a, c, "different seeds should reorder feeders");
        // Tier-1s come first.
        let t1 = inet.config.as_counts.tier1;
        for f in a.iter().take(t1.min(10)) {
            assert_eq!(inet.as_node(*f).tier, AsTier::Tier1);
        }
    }

    #[test]
    fn direct_peers_have_self_paths() {
        let inet = tiny();
        let best = best_paths_to_cloud(&inet, CloudId(0));
        for p in inet.cloud_peers(CloudId(0)) {
            if inet.as_node(p).tier == AsTier::Cloud {
                continue;
            }
            let path = best.get(&p).expect("direct peer must have a route");
            assert_eq!(*path.last().unwrap(), p);
            assert_eq!(path[0], p);
        }
    }

    #[test]
    fn paths_are_valley_free_descents() {
        let inet = tiny();
        let best = best_paths_to_cloud(&inet, CloudId(0));
        for (asx, path) in &best {
            assert_eq!(path[0], *asx);
            // Each consecutive pair (a, b) with a closer to the feeder side:
            // b must be a provider of a (we walked provider->customer edges
            // downward, so in path order a's provider is the next element).
            for w in path.windows(2) {
                assert!(
                    inet.as_node(w[1]).customers.contains(&w[0]),
                    "{:?} not provider of {:?}",
                    w[1],
                    w[0]
                );
            }
        }
    }

    #[test]
    fn visibility_is_subset_of_peers() {
        let inet = tiny();
        let view = BgpView::compute(&inet, CloudId(0), 12, 9);
        let peers: HashSet<AsIndex> = inet.cloud_peers(CloudId(0)).into_iter().collect();
        for v in &view.visible_peers {
            assert!(peers.contains(v), "{v:?} visible but not a peer");
        }
        // With feeders at the top of the hierarchy, a strict minority of the
        // peering fabric is visible (the paper's hidden-peering finding).
        assert!(
            view.visible_peers.len() < peers.len() / 2,
            "too many visible peerings: {}/{}",
            view.visible_peers.len(),
            peers.len()
        );
        assert!(!view.visible_peers.is_empty(), "no visible peerings at all");
    }

    #[test]
    fn more_feeders_reveal_more_links() {
        let inet = tiny();
        let small = BgpView::compute(&inet, CloudId(0), 4, 9);
        let large = BgpView::compute(&inet, CloudId(0), 40, 9);
        assert!(large.visible_peers.len() >= small.visible_peers.len());
    }
}
