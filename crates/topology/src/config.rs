//! Generator configuration.
//!
//! Every knob that shapes the synthetic Internet lives here, with defaults
//! chosen so the generated fabric matches the *scale and shape* of the
//! measurements in the paper (§3–§7): ~3.5k peer ASes, ~25k client border
//! interfaces, ~3.7k cloud border interfaces, a ~20% VPI share dominated by
//! overlap with one other cloud, and six peering-type groups with the Table 5
//! proportions.
//!
//! The config is plain data; `Internet::generate` consumes it together with
//! a seed, and the same `(config, seed)` pair always produces the identical
//! Internet (the property the whole test suite relies on).

/// Fractions controlling how a router answers traceroute probes.
///
/// The paper's verification heuristics (§5.1) and its limitations section
/// (§9) both hinge on these behaviours existing in the wild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResponsePolicyMix {
    /// Probability a router replies with the incoming interface (the
    /// assumption behind border inference; >50% in the wild per §9).
    pub incoming: f64,
    /// Probability a router always replies with one fixed interface
    /// (a "default" interface — a known traceroute artifact).
    pub fixed: f64,
    /// Probability a router never replies.
    pub silent: f64,
}

impl ResponsePolicyMix {
    /// Validates that the fractions form a distribution.
    pub fn validate(&self) -> Result<(), String> {
        let s = self.incoming + self.fixed + self.silent;
        if !(0.999..=1.001).contains(&s) {
            return Err(format!("response policy mix sums to {s}, expected 1.0"));
        }
        if self.incoming < 0.0 || self.fixed < 0.0 || self.silent < 0.0 {
            return Err("negative response policy fraction".into());
        }
        Ok(())
    }
}

impl Default for ResponsePolicyMix {
    fn default() -> Self {
        ResponsePolicyMix {
            incoming: 0.90,
            fixed: 0.05,
            silent: 0.05,
        }
    }
}

/// Per-tier AS population sizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsCounts {
    /// Transit-free backbone networks (full peer mesh).
    pub tier1: usize,
    /// Regional transit providers.
    pub tier2: usize,
    /// Access / eyeball networks.
    pub access: usize,
    /// Content networks and CDNs.
    pub content: usize,
    /// Enterprise and campus networks.
    pub enterprise: usize,
}

impl AsCounts {
    /// Total number of non-cloud ASes.
    pub fn total(&self) -> usize {
        self.tier1 + self.tier2 + self.access + self.content + self.enterprise
    }
}

impl Default for AsCounts {
    fn default() -> Self {
        AsCounts {
            tier1: 12,
            tier2: 90,
            access: 380,
            content: 260,
            enterprise: 2900,
        }
    }
}

/// How many /24-equivalents of *announced* host space each tier receives
/// (per AS, before the cone is counted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrefixBudget {
    /// /24s per tier-1 AS.
    pub tier1: u32,
    /// /24s per tier-2 AS.
    pub tier2: u32,
    /// /24s per access AS.
    pub access: u32,
    /// /24s per content AS.
    pub content: u32,
    /// /24s per enterprise AS.
    pub enterprise: u32,
    /// /24s of announced space per cloud.
    pub cloud: u32,
}

impl Default for PrefixBudget {
    fn default() -> Self {
        PrefixBudget {
            tier1: 256,
            tier2: 64,
            access: 16,
            content: 4,
            enterprise: 2,
            cloud: 1024,
        }
    }
}

/// Probability, per (AS tier), of establishing each flavour of peering with
/// the primary cloud. An AS can match several (hybrid peering, Table 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeeringPropensity {
    /// Public peering over an IXP fabric.
    pub public_ixp: f64,
    /// Private cross-connect (physical).
    pub cross_connect: f64,
    /// Virtual private interconnect over a cloud exchange.
    pub vpi: f64,
}

/// Full generator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyConfig {
    /// AS population.
    pub as_counts: AsCounts,
    /// Announced address space per tier.
    pub prefix_budget: PrefixBudget,
    /// Router traceroute-response behaviour.
    pub response_mix: ResponsePolicyMix,
    /// Number of secondary clouds (probing vantage clouds; the paper used
    /// Microsoft, Google, IBM and Oracle — 4).
    pub secondary_clouds: usize,
    /// Regions of the primary cloud (the paper's 15 probe-able regions).
    pub primary_regions: usize,
    /// Sibling ASNs announced by the primary cloud (paper footnote 4 lists 8).
    pub primary_cloud_asns: usize,
    /// Number of IXPs to place (each gets a dedicated LAN prefix).
    pub ixp_count: usize,
    /// Number of IXPs that span multiple metros (excluded from pinning, §6.1).
    pub multi_metro_ixps: usize,
    /// Per-tier propensity to peer with the primary cloud.
    pub propensity_tier1: PeeringPropensity,
    /// Tier-2 propensity.
    pub propensity_tier2: PeeringPropensity,
    /// Access-network propensity.
    pub propensity_access: PeeringPropensity,
    /// Content-network propensity.
    pub propensity_content: PeeringPropensity,
    /// Enterprise propensity.
    pub propensity_enterprise: PeeringPropensity,
    /// Fraction of VPI clients that also buy VPIs to at least one secondary
    /// cloud (these are the only VPIs the §7.1 method can detect).
    pub vpi_multicloud: f64,
    /// Fraction of interconnects whose /30-/31 addresses are supplied by the
    /// cloud rather than the client — the §4.1 ambiguity source.
    pub cloud_provided_addr: f64,
    /// Fraction of IXP peerings established remotely (member's router in a
    /// different metro than the IXP, §6.1 "remote peering").
    pub remote_ixp_peering: f64,
    /// Fraction of VPIs established remotely through a connectivity partner.
    pub remote_vpi: f64,
    /// Fraction of client border routers that are reachable from the public
    /// Internet (the §5.1 reachability heuristic).
    pub client_public_reachable: f64,
    /// Probability that a /24 of announced host space answers probes at all
    /// (drives the paper's ~7.7% traceroute completion, §3).
    pub host_responsive: f64,
    /// Fraction of client border interfaces that carry a reverse-DNS name.
    pub cbi_dns_coverage: f64,
    /// Fraction of the cloud's internal border-facing addresses drawn from
    /// *unannounced* (WHOIS-only) infrastructure space (Table 1: 61.6% of
    /// ABIs were WHOIS-mapped).
    pub cloud_infra_unannounced: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            as_counts: AsCounts::default(),
            prefix_budget: PrefixBudget::default(),
            response_mix: ResponsePolicyMix::default(),
            secondary_clouds: 4,
            primary_regions: 15,
            primary_cloud_asns: 4,
            ixp_count: 110,
            multi_metro_ixps: 10,
            propensity_tier1: PeeringPropensity {
                public_ixp: 0.25,
                cross_connect: 1.0,
                vpi: 0.45,
            },
            propensity_tier2: PeeringPropensity {
                public_ixp: 0.55,
                cross_connect: 0.50,
                vpi: 0.18,
            },
            propensity_access: PeeringPropensity {
                public_ixp: 0.75,
                cross_connect: 0.28,
                vpi: 0.07,
            },
            propensity_content: PeeringPropensity {
                public_ixp: 0.82,
                cross_connect: 0.30,
                vpi: 0.18,
            },
            propensity_enterprise: PeeringPropensity {
                public_ixp: 0.78,
                cross_connect: 0.30,
                vpi: 0.12,
            },
            vpi_multicloud: 0.80,
            cloud_provided_addr: 0.10,
            remote_ixp_peering: 0.45,
            remote_vpi: 0.45,
            client_public_reachable: 0.55,
            host_responsive: 0.10,
            cbi_dns_coverage: 0.30,
            cloud_infra_unannounced: 0.62,
        }
    }
}

impl TopologyConfig {
    /// A drastically smaller configuration for unit tests: same structure,
    /// a few hundred ASes, 4 regions, 2 secondary clouds.
    pub fn tiny() -> Self {
        TopologyConfig {
            as_counts: AsCounts {
                tier1: 4,
                tier2: 10,
                access: 24,
                content: 18,
                enterprise: 120,
            },
            prefix_budget: PrefixBudget {
                tier1: 32,
                tier2: 8,
                access: 4,
                content: 2,
                enterprise: 1,
                cloud: 64,
            },
            secondary_clouds: 2,
            primary_regions: 4,
            primary_cloud_asns: 2,
            ixp_count: 12,
            multi_metro_ixps: 2,
            ..TopologyConfig::default()
        }
    }

    /// A mid-size configuration (~¼ of the paper's scale): the default for
    /// the experiment harness, where the full default takes minutes.
    pub fn small() -> Self {
        TopologyConfig {
            as_counts: AsCounts {
                tier1: 8,
                tier2: 30,
                access: 100,
                content: 70,
                enterprise: 700,
            },
            prefix_budget: PrefixBudget {
                tier1: 96,
                tier2: 24,
                access: 8,
                content: 3,
                enterprise: 2,
                cloud: 256,
            },
            secondary_clouds: 4,
            primary_regions: 15,
            primary_cloud_asns: 4,
            ixp_count: 40,
            multi_metro_ixps: 6,
            ..TopologyConfig::default()
        }
    }

    /// Sanity-checks cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        self.response_mix.validate()?;
        if self.primary_regions == 0 || self.primary_regions > 15 {
            return Err(format!(
                "primary_regions must be 1..=15, got {}",
                self.primary_regions
            ));
        }
        if self.multi_metro_ixps > self.ixp_count {
            return Err("multi_metro_ixps exceeds ixp_count".into());
        }
        if self.as_counts.tier1 < 2 {
            return Err("need at least two tier-1 ASes".into());
        }
        for (name, v) in [
            ("vpi_multicloud", self.vpi_multicloud),
            ("cloud_provided_addr", self.cloud_provided_addr),
            ("remote_ixp_peering", self.remote_ixp_peering),
            ("remote_vpi", self.remote_vpi),
            ("client_public_reachable", self.client_public_reachable),
            ("host_responsive", self.host_responsive),
            ("cbi_dns_coverage", self.cbi_dns_coverage),
            ("cloud_infra_unannounced", self.cloud_infra_unannounced),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability, got {v}")); // cm-lint: allow(P3_FORMAT, failure-path message in startup validation over a fixed list of knobs)
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        TopologyConfig::default().validate().unwrap();
    }

    #[test]
    fn tiny_config_validates() {
        TopologyConfig::tiny().validate().unwrap();
    }

    #[test]
    fn small_config_validates() {
        TopologyConfig::small().validate().unwrap();
    }

    #[test]
    fn bad_mix_rejected() {
        let c = TopologyConfig {
            response_mix: ResponsePolicyMix {
                incoming: 0.2,
                ..ResponsePolicyMix::default()
            },
            ..TopologyConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_region_count_rejected() {
        for bad in [16, 0] {
            let c = TopologyConfig {
                primary_regions: bad,
                ..TopologyConfig::default()
            };
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn probability_bounds_checked() {
        let c = TopologyConfig {
            vpi_multicloud: 1.5,
            ..TopologyConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn as_total() {
        let c = AsCounts::default();
        assert_eq!(
            c.total(),
            c.tier1 + c.tier2 + c.access + c.content + c.enterprise
        );
    }
}
