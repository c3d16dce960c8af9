//! The Interface Connectivity Graph (§7.4).
//!
//! A bipartite graph with ABIs and CBIs as nodes and one edge per inferred
//! interconnection segment, annotated with the min-RTT difference between
//! its ends. The paper examines its largest connected component (92.3% of
//! nodes — evidence of remote peering knitting regions together), the
//! intra-metro share of fully pinned peerings, and the two degree
//! distributions (Figures 7a/7b).

use crate::borders::SegmentPool;
use crate::pinning::PinOutcome;
use cm_geo::MetroId;
use cm_net::Ipv4;
use std::collections::{HashMap, HashSet};

/// The ICG and its derived statistics.
#[derive(Clone, Debug, Default)]
pub struct Icg {
    /// Degree of each ABI (number of distinct CBIs).
    pub abi_degree: HashMap<Ipv4, usize>,
    /// Degree of each CBI (number of distinct ABIs).
    pub cbi_degree: HashMap<Ipv4, usize>,
    /// Number of nodes in the graph.
    pub nodes: usize,
    /// Number of edges (unique segments).
    pub edges: usize,
    /// Fraction of nodes inside the largest connected component.
    pub largest_component_share: f64,
    /// Of the segments with both ends metro-pinned: how many are
    /// intra-metro, and how many span metros (remote peerings).
    pub both_pinned: usize,
    /// Intra-metro count among `both_pinned`.
    pub intra_metro: usize,
    /// Example remote (cross-metro) pinned pairs, up to a small cap.
    pub remote_examples: Vec<(MetroId, MetroId)>,
}

impl Icg {
    /// Builds the graph from the verified pool and the pinning outcome.
    pub fn build(pool: &SegmentPool, pins: &PinOutcome) -> Icg {
        let mut abi_nbrs: HashMap<Ipv4, HashSet<Ipv4>> = HashMap::new();
        let mut cbi_nbrs: HashMap<Ipv4, HashSet<Ipv4>> = HashMap::new();
        // cm-lint: allow(D4_MAP_ORDER, keyed adjacency-set accumulation; inserts commute)
        for seg in pool.segments.keys() {
            abi_nbrs.entry(seg.abi).or_default().insert(seg.cbi);
            cbi_nbrs.entry(seg.cbi).or_default().insert(seg.abi);
        }
        let edges: usize = abi_nbrs.values().map(|s| s.len()).sum();
        let nodes = abi_nbrs.len() + cbi_nbrs.len();

        // Largest connected component by BFS over the bipartite adjacency.
        let mut visited: HashSet<(bool, Ipv4)> = HashSet::new();
        let mut largest = 0usize;
        let mut abis_sorted: Vec<Ipv4> = abi_nbrs.keys().copied().collect();
        abis_sorted.sort_unstable();
        for &start in &abis_sorted {
            if visited.contains(&(true, start)) {
                continue;
            }
            let mut size = 0usize;
            let mut queue = vec![(true, start)]; // cm-lint: allow(P1_HEAP_ALLOC, one BFS queue per connected component; components partition the graph, so total pushes stay linear)
            visited.insert((true, start));
            while let Some((is_abi, node)) = queue.pop() {
                size += 1;
                let nbrs = if is_abi {
                    &abi_nbrs[&node]
                } else {
                    &cbi_nbrs[&node]
                };
                for &n in nbrs {
                    let key = (!is_abi, n);
                    if visited.insert(key) {
                        queue.push(key);
                    }
                }
            }
            largest = largest.max(size);
        }

        // Pinned-segment geography. Sorted order so the capped
        // `remote_examples` sample is the same across runs.
        let mut segs: Vec<&crate::borders::Segment> = pool.segments.keys().collect();
        segs.sort_unstable();
        let mut both_pinned = 0usize;
        let mut intra = 0usize;
        let mut remote = Vec::new();
        for seg in segs {
            let (Some(a), Some(c)) = (pins.pins.get(&seg.abi), pins.pins.get(&seg.cbi)) else {
                continue;
            };
            both_pinned += 1;
            if a.metro == c.metro {
                intra += 1;
            } else if remote.len() < 32 {
                remote.push((a.metro, c.metro));
            }
        }

        Icg {
            abi_degree: abi_nbrs.into_iter().map(|(k, v)| (k, v.len())).collect(),
            cbi_degree: cbi_nbrs.into_iter().map(|(k, v)| (k, v.len())).collect(),
            nodes,
            edges,
            largest_component_share: if nodes == 0 {
                0.0
            } else {
                largest as f64 / nodes as f64
            },
            both_pinned,
            intra_metro: intra,
            remote_examples: remote,
        }
    }

    /// Sorted ABI degrees (Figure 7a series).
    pub fn abi_degrees(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.abi_degree.values().copied().collect();
        v.sort_unstable();
        v
    }

    /// Sorted CBI degrees (Figure 7b series).
    pub fn cbi_degrees(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.cbi_degree.values().copied().collect();
        v.sort_unstable();
        v
    }

    /// Fraction of a sorted degree vector at or below `x`.
    pub fn cdf_at(sorted: &[usize], x: usize) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let n = sorted.partition_point(|&d| d <= x);
        n as f64 / sorted.len() as f64
    }

    /// Intra-metro share among fully pinned segments (the paper's 98%).
    pub fn intra_metro_share(&self) -> f64 {
        if self.both_pinned == 0 {
            0.0
        } else {
            self.intra_metro as f64 / self.both_pinned as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_helper() {
        let v = vec![1, 1, 2, 5, 9];
        assert_eq!(Icg::cdf_at(&v, 0), 0.0);
        assert!((Icg::cdf_at(&v, 1) - 0.4).abs() < 1e-12);
        assert!((Icg::cdf_at(&v, 5) - 0.8).abs() < 1e-12);
        assert_eq!(Icg::cdf_at(&v, 100), 1.0);
        assert_eq!(Icg::cdf_at(&[], 3), 0.0);
    }
}
