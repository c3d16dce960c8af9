//! # cm-alias — MIDAR-style IP alias resolution
//!
//! §5.2 of the paper runs MIDAR from VMs in every region to group observed
//! border interfaces into routers ("alias sets"), then assigns each router a
//! majority AS owner and uses that to repair mis-inferred interconnection
//! segments.
//!
//! MIDAR's core signal is the shared, monotonically increasing IP-ID counter
//! most routers use across all their interfaces. This crate simulates that
//! signal and reimplements the inference side:
//!
//! * every ground-truth router has a hidden counter `base + rate·t`
//!   (mod 2¹⁶) with per-router rate; probing any of its addresses samples
//!   that counter (plus noise, minus silent routers and per-region loss);
//! * [`resolve_region`] runs the estimation stage (per-address rate/
//!   intercept fit), buckets compatible addresses, and verifies candidate
//!   pairs with the Monotonic Bounds Test;
//! * [`merge_sets`] combines per-region alias sets on overlapping members,
//!   as the paper does across its 15 vantage regions.
//!
//! The output deliberately contains only addresses — inference code never
//! learns the ground-truth router ids.

#![deny(missing_docs)]

use cm_net::stablehash;
use cm_net::Ipv4;
use cm_topology::{Internet, RegionId, ResponseMode};
use std::collections::HashMap;

/// Probing schedule: samples per target and spacing in seconds.
const SAMPLES: usize = 12;
const SPACING_S: f64 = 0.5;

/// Velocity tolerance (IP-ID per second) when comparing two estimates.
const RATE_TOL: f64 = 8.0;

/// Simulates the measurable IP-ID side channel of the ground-truth routers.
pub struct AliasProber<'a> {
    inet: &'a Internet,
    seed: u64,
}

impl<'a> AliasProber<'a> {
    /// Creates a prober over the ground truth.
    pub fn new(inet: &'a Internet, seed: u64) -> Self {
        AliasProber {
            inet,
            seed: seed ^ 0xA11A_5EED,
        }
    }

    /// Hidden per-router counter parameters.
    fn router_counter(&self, router: u32) -> (f64, f64) {
        let base = stablehash::mix(self.seed, &[0x1D0, router as u64]) % 65536;
        // Rates between ~80 and ~4000 IP-IDs/s, log-ish spread.
        let u = stablehash::unit_f64(stablehash::mix(self.seed, &[0x1D1, router as u64]));
        let rate = 80.0 * (50.0f64).powf(u);
        (base as f64, rate)
    }

    /// Samples the IP-ID of `addr` at virtual time `t` from `region`.
    ///
    /// Returns `None` for unknown addresses, silent routers, and per-probe
    /// loss (a region sees ~90% of targets, modelling the paper's partial
    /// per-region visibility).
    pub fn sample(&self, region: RegionId, addr: Ipv4, t: f64, k: usize) -> Option<u16> {
        let &fid = self.inet.iface_by_addr.get(&addr)?;
        let router = self.inet.iface(fid).router;
        if matches!(self.inet.router(router).response, ResponseMode::Silent) {
            return None;
        }
        // Per (region, addr) visibility.
        if !stablehash::chance(
            self.seed,
            &[0x115, region.0 as u64, addr.to_u32() as u64],
            0.9,
        ) {
            return None;
        }
        // Rare per-probe loss.
        if stablehash::chance(self.seed, &[0x116, addr.to_u32() as u64, k as u64], 0.03) {
            return None;
        }
        let (base, rate) = self.router_counter(router.0);
        let noise =
            (stablehash::mix(self.seed, &[0x117, addr.to_u32() as u64, k as u64]) % 3) as f64;
        Some(((base + rate * t + noise) as u64 % 65536) as u16)
    }

    /// Collects the (time, ip-id) series for one address.
    fn series(&self, region: RegionId, addr: Ipv4) -> Vec<(f64, u16)> {
        (0..SAMPLES)
            .filter_map(|k| {
                let t = k as f64 * SPACING_S;
                self.sample(region, addr, t, k).map(|v| (t, v))
            })
            .collect()
    }
}

/// Per-address velocity estimate.
#[derive(Clone, Copy, Debug)]
struct Estimate {
    addr: Ipv4,
    rate: f64,
    intercept: f64,
}

/// Unwraps a mod-2¹⁶ series into a monotone one.
fn unwrap(series: &[(f64, u16)]) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(series.len());
    let mut offset = 0.0;
    let mut prev: Option<u16> = None;
    for &(t, v) in series {
        if let Some(p) = prev {
            if v < p {
                offset += 65536.0;
            }
        }
        prev = Some(v);
        out.push((t, v as f64 + offset));
    }
    out
}

/// Least-squares (rate, intercept) fit of an unwrapped series.
fn fit(series: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = series.len() as f64;
    if series.len() < 4 {
        return None;
    }
    let sx: f64 = series.iter().map(|p| p.0).sum();
    let sy: f64 = series.iter().map(|p| p.1).sum();
    let sxx: f64 = series.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = series.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let rate = (n * sxy - sx * sy) / denom;
    let intercept = (sy - rate * sx) / n;
    Some((rate, intercept))
}

/// The Monotonic Bounds Test: would the two series, interleaved by time, be
/// consistent with one shared counter?
fn monotonic_bounds_test(a: &[(f64, f64)], b: &[(f64, f64)], rate: f64) -> bool {
    let mut merged: Vec<(f64, f64)> = a.iter().chain(b.iter()).copied().collect();
    // cm-lint: allow(L1_UNWRAP, float comparator over finite values)
    merged.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    // Align both series modulo 65536: the unwrapped offsets may differ by a
    // multiple of 65536; normalize each point by subtracting rate*t and
    // folding into one period.
    let fold = |p: &(f64, f64)| (p.1 - rate * p.0).rem_euclid(65536.0);
    let refv = fold(&merged[0]);
    merged.iter().all(|p| {
        let d = (fold(p) - refv).abs();
        let d = d.min(65536.0 - d);
        d < 48.0 + RATE_TOL * (p.0 + 1.0)
    })
}

/// Runs alias resolution for the candidate addresses visible from one
/// region. Returns alias sets of size ≥ 2 (singletons carry no information).
pub fn resolve_region(
    inet: &Internet,
    region: RegionId,
    addrs: &[Ipv4],
    seed: u64,
) -> Vec<Vec<Ipv4>> {
    let prober = AliasProber::new(inet, seed);
    // Estimation stage.
    let mut estimates: Vec<(Estimate, Vec<(f64, f64)>)> = Vec::new();
    for &a in addrs {
        let s = prober.series(region, a);
        let u = unwrap(&s);
        if let Some((rate, intercept)) = fit(&u) {
            estimates.push((
                Estimate {
                    addr: a,
                    rate,
                    intercept,
                },
                u,
            ));
        }
    }
    // Bucket by quantized rate; verify within buckets.
    let mut buckets: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, (e, _)) in estimates.iter().enumerate() {
        let q = (e.rate / RATE_TOL).round() as i64;
        for k in [q - 1, q, q + 1] {
            buckets.entry(k).or_default().push(i);
        }
    }
    // Union-find over verified pairs.
    let mut parent: Vec<usize> = (0..estimates.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let n = parent[c];
            parent[c] = r;
            c = n;
        }
        r
    }
    // cm-lint: allow(D4_MAP_ORDER, union-find merge order cannot change the final partition; members are sorted before output)
    for idxs in buckets.values() {
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                if find(&mut parent, i) == find(&mut parent, j) {
                    continue;
                }
                let (ei, si) = (&estimates[i].0, &estimates[i].1);
                let (ej, sj) = (&estimates[j].0, &estimates[j].1);
                if (ei.rate - ej.rate).abs() > RATE_TOL {
                    continue;
                }
                // Intercepts must agree modulo the counter period.
                let d = (ei.intercept - ej.intercept).rem_euclid(65536.0);
                let d = d.min(65536.0 - d);
                if d > 96.0 {
                    continue;
                }
                let rate = (ei.rate + ej.rate) / 2.0;
                if monotonic_bounds_test(si, sj, rate) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut sets: HashMap<usize, Vec<Ipv4>> = HashMap::new();
    for (i, (e, _)) in estimates.iter().enumerate() {
        let r = find(&mut parent, i);
        sets.entry(r).or_default().push(e.addr);
    }
    let mut out: Vec<Vec<Ipv4>> = sets
        .into_values()
        .filter(|s| s.len() >= 2)
        .map(|mut s| {
            s.sort_unstable();
            s
        })
        .collect();
    out.sort();
    out
}

/// Merges alias sets (e.g. from different regions) that share any address,
/// as §5.2 does before computing router ownership.
pub fn merge_sets(all: Vec<Vec<Ipv4>>) -> Vec<Vec<Ipv4>> {
    let mut id_of: HashMap<Ipv4, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let n = parent[c];
            parent[c] = r;
            c = n;
        }
        r
    }
    for set in &all {
        let mut first: Option<usize> = None;
        for &a in set {
            let id = *id_of.entry(a).or_insert_with(|| {
                parent.push(parent.len());
                parent.len() - 1
            });
            if let Some(f) = first {
                let (ra, rb) = (find(&mut parent, f), find(&mut parent, id));
                parent[ra] = rb;
            } else {
                first = Some(id);
            }
        }
    }
    let mut groups: HashMap<usize, Vec<Ipv4>> = HashMap::new();
    // cm-lint: allow(D4_MAP_ORDER, each address is folded into its root exactly once and every group is sorted before output)
    for (&addr, &id) in &id_of {
        let r = find(&mut parent, id);
        groups.entry(r).or_default().push(addr);
    }
    let mut out: Vec<Vec<Ipv4>> = groups
        .into_values()
        .filter(|s| s.len() >= 2)
        .map(|mut s| {
            s.sort_unstable();
            s
        })
        .collect();
    out.sort();
    out
}

/// Convenience: per-region resolution over all regions of a cloud, merged.
pub fn resolve_all_regions(
    inet: &Internet,
    cloud: cm_topology::CloudId,
    addrs: &[Ipv4],
    seed: u64,
) -> Vec<Vec<Ipv4>> {
    let mut all = Vec::new();
    for &r in &inet.clouds[cloud.index()].regions {
        all.extend(resolve_region(inet, r, addrs, seed));
    }
    merge_sets(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::{CloudId, RouterRole, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(), 23)
    }

    /// Addresses of a multi-interface, non-silent client border router.
    fn multi_iface_router_addrs(inet: &Internet) -> Option<Vec<Ipv4>> {
        inet.routers
            .iter()
            .filter(|r| r.role == RouterRole::ClientBorder && r.response != ResponseMode::Silent)
            .map(|r| {
                r.ifaces
                    .iter()
                    .filter_map(|&f| inet.iface(f).addr)
                    .collect::<Vec<_>>()
            })
            .find(|v| v.len() >= 3)
    }

    #[test]
    fn same_router_interfaces_alias() {
        let inet = world();
        let Some(addrs) = multi_iface_router_addrs(&inet) else {
            panic!("no multi-interface router in tiny world");
        };
        let region = inet.primary_cloud().regions[0];
        let sets = resolve_region(&inet, region, &addrs, 5);
        // All of the router's addresses that responded must land in one set.
        assert_eq!(sets.len(), 1, "expected one alias set, got {sets:?}");
        assert!(sets[0].len() >= 2);
    }

    #[test]
    fn different_routers_do_not_alias() {
        let inet = world();
        // One address from each of many distinct routers.
        let mut addrs = Vec::new();
        for r in inet
            .routers
            .iter()
            .filter(|r| r.response != ResponseMode::Silent)
            .take(120)
        {
            if let Some(a) = r.ifaces.iter().find_map(|&f| inet.iface(f).addr) {
                addrs.push((r.id, a));
            }
        }
        let region = inet.primary_cloud().regions[0];
        let only_addrs: Vec<Ipv4> = addrs.iter().map(|(_, a)| *a).collect();
        let sets = resolve_region(&inet, region, &only_addrs, 5);
        // False-positive rate must be tiny: with one iface per router, any
        // produced set is a false alias.
        let fp: usize = sets.iter().map(|s| s.len()).sum();
        assert!(
            fp <= only_addrs.len() / 20,
            "too many false aliases: {sets:?}"
        );
    }

    #[test]
    fn merge_joins_overlapping_sets() {
        let a: Ipv4 = "10.0.0.1".parse().unwrap();
        let b: Ipv4 = "10.0.0.2".parse().unwrap();
        let c: Ipv4 = "10.0.0.3".parse().unwrap();
        let d: Ipv4 = "10.0.0.4".parse().unwrap();
        let merged = merge_sets(vec![vec![a, b], vec![b, c], vec![d, a]]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], vec![a, b, c, d]);
    }

    #[test]
    fn merge_keeps_disjoint_sets_apart() {
        let a: Ipv4 = "10.0.0.1".parse().unwrap();
        let b: Ipv4 = "10.0.0.2".parse().unwrap();
        let c: Ipv4 = "10.0.1.1".parse().unwrap();
        let d: Ipv4 = "10.0.1.2".parse().unwrap();
        let merged = merge_sets(vec![vec![a, b], vec![c, d]]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn multi_region_resolution_recovers_full_routers() {
        let inet = world();
        let Some(addrs) = multi_iface_router_addrs(&inet) else {
            panic!("no multi-interface router");
        };
        let sets = resolve_all_regions(&inet, CloudId(0), &addrs, 5);
        assert_eq!(sets.len(), 1);
        // Cross-region merging should recover at least as much as any single
        // region (per-region loss hides some interfaces).
        let region = inet.primary_cloud().regions[0];
        let single = resolve_region(&inet, region, &addrs, 5);
        let single_max = single.iter().map(|s| s.len()).max().unwrap_or(0);
        assert!(sets[0].len() >= single_max);
    }

    #[test]
    fn silent_routers_are_invisible() {
        let inet = world();
        let silent = inet
            .routers
            .iter()
            .find(|r| matches!(r.response, ResponseMode::Silent));
        let Some(r) = silent else { return };
        let Some(a) = r.ifaces.iter().find_map(|&f| inet.iface(f).addr) else {
            return;
        };
        let prober = AliasProber::new(&inet, 5);
        let region = inet.primary_cloud().regions[0];
        for k in 0..SAMPLES {
            assert_eq!(prober.sample(region, a, k as f64 * SPACING_S, k), None);
        }
    }

    #[test]
    fn unwrap_handles_wraparound() {
        let s = vec![(0.0, 65500u16), (1.0, 100u16), (2.0, 300u16)];
        let u = unwrap(&s);
        assert!(u[1].1 > u[0].1);
        assert!(u[2].1 > u[1].1);
    }

    #[test]
    fn fit_recovers_rate() {
        let pts: Vec<(f64, f64)> = (0..10).map(|k| (k as f64, 7.0 + 42.0 * k as f64)).collect();
        let (rate, intercept) = fit(&pts).unwrap();
        assert!((rate - 42.0).abs() < 1e-9);
        assert!((intercept - 7.0).abs() < 1e-9);
    }
}
