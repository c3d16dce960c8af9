//! # cm-dns — reverse DNS synthesis and DRoP-style parsing
//!
//! Operators embed location and circuit hints in router hostnames
//! (`ae-4.amazon.atlnga05.us.bb.gin.ntt.net`), and the paper leans on them
//! twice:
//!
//! * §6.1 uses DNS-embedded locations (airport codes, city names) as pinning
//!   **anchors**, sanity-checked against RTT feasibility;
//! * §7.3 uses `dxvif`/`dxcon`/VLAN keywords as evidence that a private
//!   interconnect is in fact virtual.
//!
//! [`DnsDb::synthesize`] generates hostnames for a configurable share of
//! client interfaces, in several operator conventions, including a small
//! fraction of *stale* names pointing at the wrong metro (these are what the
//! RTT-feasibility check exists to catch). [`parse_location`] and
//! [`parse_vpi_hint`] are the DRoP-style extraction side used by inference.

#![deny(missing_docs)]

use cm_geo::{MetroCatalog, MetroId};
use cm_net::stablehash;
use cm_net::Ipv4;
use cm_topology::{IcKind, IfaceKind, Internet, RouterRole};
use std::collections::HashMap;

/// The synthesized reverse-DNS database (what a PTR sweep would return).
#[derive(Clone, Debug, Default)]
pub struct DnsDb {
    names: HashMap<Ipv4, String>,
}

/// Hostname conventions used by the synthesizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Style {
    /// `ae-4.cloud.fra03.de.bb.<as>.net` — airport code + digits.
    BackboneAirport,
    /// `<as>-frankfurt-edge2.<as>.com` — full city token.
    EdgeCity,
    /// `core3.<as>.net` — no location at all.
    Bare,
}

/// Share of generated names that point at the *wrong* metro (stale PTR
/// records); the RTT-feasibility check of §6.1 must filter these.
pub const STALE_FRACTION: f64 = 0.03;

impl DnsDb {
    /// Generates hostnames for client-side interfaces of the ground truth.
    ///
    /// Coverage follows `inet.config.cbi_dns_coverage`; ABIs never get names
    /// (the paper observed none on Amazon's side, §6.1 footnote 9). VPI
    /// ports frequently carry `dxvif`/VLAN markers.
    pub fn synthesize(inet: &Internet, seed: u64) -> Self {
        let mut names = HashMap::new();
        for iface in &inet.ifaces {
            let Some(addr) = iface.addr else { continue };
            let router = inet.router(iface.router);
            if !matches!(
                router.role,
                RouterRole::ClientBorder | RouterRole::ClientInternal
            ) {
                continue;
            }
            if !stablehash::chance(
                seed,
                &[0xD45, addr.to_u32() as u64],
                inet.config.cbi_dns_coverage,
            ) {
                continue;
            }
            let metro = Self::name_metro(inet, seed, addr, router.metro);
            let as_name = sanitized(&inet.as_node(router.owner).name);
            let style = Self::pick_style(seed, router.owner.0 as u64);
            let vpi_port = Self::is_vpi_port(inet, iface.id);
            let m = inet.metros.get(metro);
            let h = stablehash::mix(seed, &[0x6A3E, addr.to_u32() as u64]);
            let name = if vpi_port && stablehash::chance(seed, &[0xDF, addr.to_u32() as u64], 0.55)
            {
                // Direct-connect virtual-interface convention.
                let vlan = 100 + (h % 3900);
                match h % 3 {
                    // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                    0 => format!(
                        "dxvif-{:06x}.vl{}.{}{:02}.{}.net",
                        h & 0xffffff,
                        vlan,
                        m.airport,
                        h % 20,
                        as_name
                    ),
                    1 => format!("aws-dx.vl{}.{}x{}.{}.net", vlan, m.airport, h % 9, as_name), // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                    // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                    _ => format!(
                        "dxcon-{:06x}.{}{:02}.{}.net",
                        h & 0xffffff,
                        m.airport,
                        h % 20,
                        as_name
                    ),
                }
            } else {
                match style {
                    // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                    Style::BackboneAirport => format!(
                        "ae-{}.cloud.{}{:02}.{}.bb.{}.net",
                        h % 16,
                        m.airport,
                        h % 24,
                        m.country.to_ascii_lowercase(),
                        as_name
                    ),
                    Style::EdgeCity => {
                        // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                        format!("{}-{}-edge{}.{}.com", as_name, m.token, h % 8, as_name)
                    }
                    Style::Bare => format!("core{}.{}.net", h % 12, as_name), // cm-lint: allow(P3_FORMAT, hostnames are synthesized once per run; every interface needs its own name string)
                }
            };
            names.insert(addr, name);
        }
        DnsDb { names }
    }

    fn pick_style(seed: u64, as_key: u64) -> Style {
        match stablehash::mix(seed, &[0x57E1, as_key]) % 10 {
            0..=4 => Style::BackboneAirport,
            5..=7 => Style::EdgeCity,
            _ => Style::Bare,
        }
    }

    /// The metro the name claims — usually the truth, occasionally stale.
    fn name_metro(inet: &Internet, seed: u64, addr: Ipv4, truth: MetroId) -> MetroId {
        if stablehash::chance(seed, &[0x57A1E, addr.to_u32() as u64], STALE_FRACTION) {
            let n = inet.metros.len();
            MetroId(stablehash::pick(seed, &[0x57A1F, addr.to_u32() as u64], n) as u16)
        } else {
            truth
        }
    }

    fn is_vpi_port(inet: &Internet, iface: cm_topology::IfaceId) -> bool {
        match inet.iface(iface).kind {
            IfaceKind::Interconnect(ic) => matches!(inet.interconnect(ic).kind, IcKind::Vpi { .. }),
            _ => false,
        }
    }

    /// PTR lookup.
    pub fn lookup(&self, addr: Ipv4) -> Option<&str> {
        self.names.get(&addr).map(|s| s.as_str())
    }

    /// Number of named addresses.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names were generated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates all (address, hostname) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4, &str)> {
        // cm-lint: allow(D4_MAP_ORDER, unordered pair stream by design; no digest-path code calls it and every test sorts what it collects)
        self.names.iter().map(|(&a, n)| (a, n.as_str()))
    }
}

fn sanitized(as_name: &str) -> String {
    as_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// DRoP-style location extraction: scans hostname labels for full city
/// tokens first (unambiguous), then 3-letter airport codes optionally
/// followed by digits.
///
/// ```
/// use cm_geo::MetroCatalog;
/// let cat = MetroCatalog::world();
/// let m = cm_dns::parse_location("ae-4.cloud.fra03.de.bb.tr-x.net", &cat).unwrap();
/// assert_eq!(cat.get(m).name, "Frankfurt");
/// let m = cm_dns::parse_location("acme-atlanta-edge2.acme.com", &cat).unwrap();
/// assert_eq!(cat.get(m).name, "Atlanta");
/// assert!(cm_dns::parse_location("core7.acme.net", &cat).is_none());
/// ```
pub fn parse_location(name: &str, catalog: &MetroCatalog) -> Option<MetroId> {
    let labels: Vec<&str> = name
        .split(['.', '-', '_'])
        .filter(|s| !s.is_empty())
        .collect();
    // Full city tokens win over airport codes.
    for l in &labels {
        if l.len() >= 4 {
            if let Some(m) = catalog.by_token(&l.to_ascii_lowercase()) {
                return Some(m.id);
            }
        }
    }
    for l in &labels {
        let lower = l.to_ascii_lowercase();
        // "fra03" → "fra"; plain "fra" also matches.
        let alpha: String = lower
            .chars()
            .take_while(|c| c.is_ascii_alphabetic())
            .collect();
        if alpha.len() == 3 && lower.len() <= 5 {
            if let Some(m) = catalog.by_airport(&alpha) {
                return Some(m.id);
            }
        }
    }
    None
}

/// Does the hostname carry direct-connect / VLAN markers suggesting a
/// virtual interconnect (§7.3's `dxvif` evidence)?
pub fn parse_vpi_hint(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("dxvif")
        || lower.contains("dxcon")
        || lower.contains("awsdx")
        || lower.contains("aws-dx")
        || lower.split(['.', '-']).any(|l| {
            l.len() > 2 && l.starts_with("vl") && l[2..].chars().all(|c| c.is_ascii_digit())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::TopologyConfig;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(), 13)
    }

    #[test]
    fn coverage_is_partial_and_deterministic() {
        let inet = world();
        let a = DnsDb::synthesize(&inet, 99);
        let b = DnsDb::synthesize(&inet, 99);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        // Not everything is named.
        let client_ifaces = inet
            .ifaces
            .iter()
            .filter(|f| {
                f.addr.is_some()
                    && matches!(
                        inet.router(f.router).role,
                        RouterRole::ClientBorder | RouterRole::ClientInternal
                    )
            })
            .count();
        assert!(a.len() < client_ifaces);
    }

    #[test]
    fn abis_never_have_names() {
        let inet = world();
        let db = DnsDb::synthesize(&inet, 99);
        for r in &inet.routers {
            if r.role == RouterRole::CloudBorder {
                for &f in &r.ifaces {
                    if let Some(addr) = inet.iface(f).addr {
                        assert!(db.lookup(addr).is_none(), "{addr} has a name");
                    }
                }
            }
        }
    }

    #[test]
    fn most_names_parse_to_true_metro() {
        let inet = world();
        let db = DnsDb::synthesize(&inet, 99);
        let mut parsed = 0;
        let mut correct = 0;
        for (addr, name) in db.iter() {
            let Some(m) = parse_location(name, &inet.metros) else {
                continue;
            };
            parsed += 1;
            let fid = inet.iface_by_addr[&addr];
            if inet.iface_metro(fid) == m {
                correct += 1;
            }
        }
        assert!(parsed > 10, "too few parseable names ({parsed})");
        let acc = correct as f64 / parsed as f64;
        assert!(acc > 0.9, "location accuracy {acc} too low");
    }

    #[test]
    fn vpi_ports_carry_dx_hints() {
        let inet = world();
        let db = DnsDb::synthesize(&inet, 99);
        let mut vpi_hints = 0;
        let mut non_vpi_hints = 0;
        for (addr, name) in db.iter() {
            let fid = inet.iface_by_addr[&addr];
            let is_vpi = matches!(
                inet.iface(fid).kind,
                IfaceKind::Interconnect(ic) if inet.interconnect(ic).kind.is_vpi()
            );
            if parse_vpi_hint(name) {
                if is_vpi {
                    vpi_hints += 1;
                } else {
                    non_vpi_hints += 1;
                }
            }
        }
        assert!(vpi_hints > 0, "no dx hints on VPI ports");
        assert_eq!(non_vpi_hints, 0, "dx hints must only appear on VPI ports");
    }

    #[test]
    fn parser_handles_edge_cases() {
        let cat = MetroCatalog::world();
        assert!(parse_location("", &cat).is_none());
        assert!(parse_location("x.y.z", &cat).is_none());
        // Airport code with trailing digits.
        assert!(parse_location("po1.lhr12.isp.net", &cat).is_some());
        // City token anywhere.
        assert_eq!(
            parse_location("edge.singapore.isp.net", &cat).map(|m| cat.get(m).name),
            Some("Singapore")
        );
    }

    #[test]
    fn vpi_hint_parser() {
        assert!(parse_vpi_hint("dxvif-00ab12.vl300.fra03.x.net"));
        assert!(parse_vpi_hint("aws-dx.vl200.iadx3.y.net"));
        assert!(parse_vpi_hint("po1.vl1234.z.net"));
        assert!(!parse_vpi_hint("ae-4.cloud.fra03.de.bb.x.net"));
        assert!(!parse_vpi_hint("vlx.pop.net"));
    }
}
