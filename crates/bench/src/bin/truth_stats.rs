//! Inspect the ground-truth peering fabric of a generated Internet —
//! per-tier portfolio composition and interconnect counts. Useful when
//! calibrating `TopologyConfig` against the paper's population.
//!
//! ```sh
//! cargo run --release -p cm-bench --bin truth_stats -- [tiny|small|full] [seed]
//! ```

use cm_topology::*;
use std::collections::{HashMap, HashSet};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale = args.next().unwrap_or_else(|| "full".into());
    // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
    let seed: u64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(2019);
    let inet = cm_bench::build_internet(&scale, seed);

    let mut kinds: HashMap<AsIndex, HashSet<u8>> = HashMap::new();
    let mut ic_count: HashMap<AsIndex, usize> = HashMap::new();
    for ic in inet.cloud_interconnects(CloudId(0)) {
        let k = match ic.kind {
            IcKind::PublicIxp(_) => 0u8,
            IcKind::CrossConnect => 1,
            IcKind::Vpi { .. } => 2,
        };
        kinds.entry(ic.peer).or_default().insert(k);
        *ic_count.entry(ic.peer).or_default() += 1;
    }
    let total = kinds.len();
    let with_pub = kinds.values().filter(|k| k.contains(&0)).count();
    let pub_only = kinds
        .values()
        .filter(|k| k.len() == 1 && k.contains(&0))
        .count();
    let with_cross = kinds.values().filter(|k| k.contains(&1)).count();
    let with_vpi = kinds.values().filter(|k| k.contains(&2)).count();
    println!(
        "peers {total}: public {with_pub} ({:.0}%), public-only {pub_only}, \
         cross {with_cross}, vpi {with_vpi}",
        100.0 * with_pub as f64 / total as f64
    );
    println!(
        "interconnects: {} total for the primary cloud",
        inet.cloud_interconnects(CloudId(0)).count()
    );
    for tier in [
        AsTier::Tier1,
        AsTier::Tier2,
        AsTier::Access,
        AsTier::Content,
        AsTier::Enterprise,
    ] {
        let peers: Vec<_> = kinds
            .keys()
            .filter(|i| inet.as_node(**i).tier == tier)
            .collect();
        let p = peers.iter().filter(|i| kinds[i].contains(&0)).count();
        let ics: usize = peers.iter().map(|i| ic_count[i]).sum();
        println!(
            "  {:?}: {} peers, {} public, {} interconnects",
            tier,
            peers.len(),
            p,
            ics
        );
    }
}
