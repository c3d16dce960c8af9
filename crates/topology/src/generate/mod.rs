//! The synthetic-Internet generator.
//!
//! [`Internet::generate`] builds the full ground truth in deterministic
//! phases:
//!
//! 1. **ASes** — tiered population (tier-1 .. enterprise) with orgs, home
//!    metros and presence footprints.
//! 2. **Relationships** — provider/customer/peer edges forming a
//!    valley-free-able DAG (tiers only buy upward).
//! 3. **Addressing** — announced host blocks, WHOIS-only infrastructure
//!    blocks and per-AS point-to-point pools.
//! 4. **Facilities & IXPs** — colos per metro, IXP LAN prefixes, cloud
//!    exchanges.
//! 5. **Clouds** — the primary measurement-target cloud (15 regions, DX
//!    metros, sibling ASNs) and the secondary vantage clouds.
//! 6. **Interconnects** — the peering fabric proper: public IXP peerings,
//!    private cross-connects and local/remote VPIs, with cloud- or
//!    client-provided addressing and per-interconnect announcements.
//! 7. **Downstream plumbing** — client internal routers, transit-descent
//!    interfaces, extra IXP members.
//!
//! All randomness is either drawn from a seeded RNG in a fixed order or
//! derived from [`cm_net::stablehash`], so `(config, seed)` fully determines
//! the result.

use crate::addr::{AddrOwner, AddrPlan, BlockAllocator, PoolKind};
use crate::asys::{customer_cones, AsNode, AsTier};
use crate::cloud::{Cloud, Region};
use crate::config::TopologyConfig;
use crate::facility::{Facility, Ixp};
use crate::ids::*;
use crate::interconnect::Interconnect;
use crate::internet::Internet;
use crate::router::{Iface, IfaceKind, Link, ResponseMode, Router, RouterRole};
use cm_geo::{MetroCatalog, MetroId, RttModel};
use cm_net::{Ipv4, OrgId, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Fraction of client-provided point-to-point space carved from announced
/// (BGP-visible) blocks rather than WHOIS-only infrastructure blocks.
/// Calibrated against Table 1's CBI BGP/WHOIS split.
const CLIENT_P2P_ANNOUNCED: f64 = 0.68;

/// Router classes on the cloud side, with how many interconnects each class
/// of border router aggregates before a new router is created. The skew
/// (IXP-facing routers serve hundreds of peers, cross-connect routers only a
/// handful) produces the heavy-tailed ABI degree distribution of Figure 7a.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum BorderClass {
    IxpFace,
    DxGateway,
    CrossConnect,
}

impl BorderClass {
    fn capacity(self) -> u32 {
        match self {
            BorderClass::IxpFace => 160,
            BorderClass::DxGateway => 48,
            BorderClass::CrossConnect => 7,
        }
    }
}

/// Cursor carving consecutive /31s out of a block.
struct P2pPool {
    prefix: Prefix,
    next: u64,
}

impl P2pPool {
    fn new(prefix: Prefix) -> Self {
        P2pPool {
            prefix,
            next: u64::from(prefix.base().to_u32()),
        }
    }

    fn alloc_slash31(&mut self) -> Option<Prefix> {
        let end = u64::from(self.prefix.base().to_u32()) + self.prefix.num_addresses();
        if self.next + 2 > end {
            return None;
        }
        let p = Prefix::new(Ipv4(self.next as u32), 31);
        self.next += 2;
        Some(p)
    }
}

/// Cursor handing out single host addresses from a block, skipping `.0`,
/// `.1` and `.255` so sweep targets (`.1`) never collide with loopbacks.
struct HostCursor {
    prefix: Prefix,
    next: u64,
}

impl HostCursor {
    fn new(prefix: Prefix) -> Self {
        HostCursor {
            prefix,
            next: u64::from(prefix.base().to_u32()),
        }
    }

    fn alloc(&mut self) -> Option<Ipv4> {
        let end = u64::from(self.prefix.base().to_u32()) + self.prefix.num_addresses();
        while self.next < end {
            let a = Ipv4(self.next as u32);
            self.next += 1;
            let b = a.host_byte();
            if b >= 2 && b != 255 {
                return Some(a);
            }
        }
        None
    }
}

pub(crate) struct Builder {
    cfg: TopologyConfig,
    seed: u64,
    rng: StdRng,
    metros: MetroCatalog,
    ases: Vec<AsNode>,
    org_names: Vec<String>,
    facilities: Vec<Facility>,
    ixps: Vec<Ixp>,
    clouds: Vec<Cloud>,
    regions: Vec<Region>,
    routers: Vec<Router>,
    ifaces: Vec<Iface>,
    links: Vec<Link>,
    interconnects: Vec<Interconnect>,
    addr_plan: AddrPlan,
    alloc: BlockAllocator,
    /// 10.0.0.0/8 cursor for cloud-internal private addressing.
    next_private: u32,
    /// Per-AS /31 pools (client-provided interconnect addressing).
    p2p_pools: HashMap<AsIndex, P2pPool>,
    /// Shared cloud-provided /31 pool (primary cloud).
    cloud_p2p: Vec<P2pPool>,
    /// Per-AS single-address cursors (loopbacks, VM addresses).
    host_cursors: HashMap<AsIndex, HostCursor>,
    /// Per-IXP next LAN host offset.
    ixp_lan_next: Vec<u64>,
    /// Cloud border router pools: (cloud, facility, class) -> router + load.
    border_pools: HashMap<(CloudId, FacilityId, BorderClass), Vec<(RouterId, u32)>>,
    /// Native facility -> owning region, per cloud.
    native_region: HashMap<(CloudId, FacilityId), RegionId>,
    /// Client border routers: (AS, placement metro) -> router.
    client_border: HashMap<(AsIndex, cm_geo::MetroId), RouterId>,
    /// Client internal router per AS.
    client_internal: HashMap<AsIndex, RouterId>,
    /// Per provider->customer descent interface.
    transit_in_iface: HashMap<(AsIndex, AsIndex), IfaceId>,
    /// IXP membership gathered during generation: (ixp, as, lan iface).
    pub(crate) ixp_members: Vec<(IxpId, AsIndex, IfaceId)>,
    /// Cloud attachment facilities per IXP.
    pub(crate) ixp_presence: HashMap<(CloudId, IxpId), Vec<FacilityId>>,
}

impl Internet {
    /// Generates the full ground-truth Internet from a configuration and a
    /// seed. The same arguments always produce the same Internet.
    ///
    /// # Panics
    /// Panics if the configuration fails [`TopologyConfig::validate`].
    pub fn generate(cfg: TopologyConfig, seed: u64) -> Internet {
        // cm-lint: allow(L1_UNWRAP, documented panic contract: an invalid TopologyConfig is a caller bug)
        cfg.validate().expect("invalid TopologyConfig");
        let mut b = Builder::new(cfg, seed);
        b.build_ases();
        b.build_relationships();
        b.build_addressing();
        b.build_facilities();
        b.build_clouds();
        b.build_interconnects();
        b.build_extra_ixp_members();
        b.finish()
    }
}

impl Builder {
    fn new(cfg: TopologyConfig, seed: u64) -> Self {
        Builder {
            rng: StdRng::seed_from_u64(seed ^ SEED_SALT),
            cfg,
            seed,
            metros: MetroCatalog::world(),
            ases: Vec::new(),
            org_names: Vec::new(),
            facilities: Vec::new(),
            ixps: Vec::new(),
            clouds: Vec::new(),
            regions: Vec::new(),
            routers: Vec::new(),
            ifaces: Vec::new(),
            links: Vec::new(),
            interconnects: Vec::new(),
            addr_plan: AddrPlan::default(),
            alloc: BlockAllocator::new(),
            next_private: Ipv4::new(10, 0, 0, 2).to_u32(),
            p2p_pools: HashMap::new(),
            cloud_p2p: Vec::new(),
            host_cursors: HashMap::new(),
            ixp_lan_next: Vec::new(),
            border_pools: HashMap::new(),
            native_region: HashMap::new(),
            client_border: HashMap::new(),
            client_internal: HashMap::new(),
            transit_in_iface: HashMap::new(),
            ixp_members: Vec::new(),
            ixp_presence: HashMap::new(),
        }
    }

    // ----- small arena helpers -------------------------------------------

    fn new_org(&mut self, name: String) -> OrgId {
        self.org_names.push(name);
        OrgId(self.org_names.len() as u32)
    }

    fn new_router(
        &mut self,
        owner: AsIndex,
        role: RouterRole,
        metro: MetroId,
        facility: Option<FacilityId>,
        response: ResponseMode,
        publicly_reachable: bool,
    ) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router {
            id,
            owner,
            role,
            metro,
            facility,
            ifaces: Vec::new(),
            response,
            publicly_reachable,
        });
        id
    }

    fn new_iface(&mut self, router: RouterId, addr: Option<Ipv4>, kind: IfaceKind) -> IfaceId {
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(Iface {
            id,
            router,
            addr,
            kind,
            link: None,
        });
        self.routers[router.index()].ifaces.push(id);
        id
    }

    fn new_link(&mut self, a: IfaceId, b: IfaceId, km: f64) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { id, a, b, km });
        self.ifaces[a.index()].link = Some(id);
        self.ifaces[b.index()].link = Some(id);
        id
    }

    fn next_private_addr(&mut self) -> Ipv4 {
        loop {
            let a = Ipv4(self.next_private);
            self.next_private += 1;
            assert!(
                a.is_private_or_shared(),
                "private pool exhausted (impossible at sane scales)"
            );
            let b = a.host_byte();
            if b != 0 && b != 255 {
                return a;
            }
        }
    }

    /// Re-draws routers into `Fixed` mode where the mix asked for it; called
    /// by router constructors that can build a loopback. Transit routers
    /// answer with a stable loopback far more often than edge boxes — the
    /// behaviour that lets one address show up across many paths (and that
    /// ultimately knits the §7.4 connectivity graph together).
    fn maybe_make_fixed(&mut self, router: RouterId, owner: AsIndex) {
        let m = self.cfg.response_mix;
        let fixed_p = match self.ases[owner.index()].tier {
            AsTier::Tier1 | AsTier::Tier2 | AsTier::Access => (m.fixed * 3.5).min(0.5),
            _ => m.fixed * 0.6,
        };
        let x: f64 = self.rng.gen();
        if x < fixed_p {
            if let Some(addr) = self.alloc_host_addr(owner) {
                let lo = self.new_iface(router, Some(addr), IfaceKind::Loopback);
                self.routers[router.index()].response = ResponseMode::Fixed(lo);
            }
        } else if x < fixed_p + m.silent {
            self.routers[router.index()].response = ResponseMode::Silent;
        }
    }

    /// Allocates one host address from the AS's announced space.
    fn alloc_host_addr(&mut self, owner: AsIndex) -> Option<Ipv4> {
        if !self.host_cursors.contains_key(&owner) {
            let block = self.ases[owner.index()].prefixes.first().copied()?;
            self.host_cursors.insert(owner, HostCursor::new(block));
        }
        self.host_cursors.get_mut(&owner).and_then(|c| c.alloc())
    }

    /// Allocates a /31 from the AS's point-to-point pool, creating pool
    /// blocks on demand. `announced` decides whether new blocks come from
    /// BGP-announced or WHOIS-only space.
    fn alloc_client_slash31(&mut self, owner: AsIndex, announced: bool) -> Prefix {
        loop {
            if let Some(pool) = self.p2p_pools.get_mut(&owner) {
                if let Some(p) = pool.alloc_slash31() {
                    return p;
                }
            }
            let block = self.alloc.alloc(24);
            let kind = if announced {
                PoolKind::HostAnnounced
            } else {
                PoolKind::InfraUnannounced
            };
            self.addr_plan.add(
                block,
                AddrOwner {
                    owner,
                    kind,
                    ixp: None,
                },
            );
            if announced {
                self.ases[owner.index()].prefixes.push(block);
            } else {
                self.ases[owner.index()].infra_prefixes.push(block);
            }
            self.p2p_pools.insert(owner, P2pPool::new(block));
        }
    }

    /// Allocates a /31 from the primary cloud's provided-interconnect pool.
    fn alloc_cloud_slash31(&mut self, cloud_main_as: AsIndex) -> Prefix {
        loop {
            if let Some(pool) = self.cloud_p2p.last_mut() {
                if let Some(p) = pool.alloc_slash31() {
                    return p;
                }
            }
            let block = self.alloc.alloc(20);
            self.addr_plan.add(
                block,
                AddrOwner {
                    owner: cloud_main_as,
                    kind: PoolKind::CloudProvidedInterconnect,
                    ixp: None,
                },
            );
            self.cloud_p2p.push(P2pPool::new(block));
        }
    }

    /// Allocates the next LAN address of an IXP.
    fn alloc_ixp_lan_addr(&mut self, ixp: IxpId) -> Ipv4 {
        let pfx = self.ixps[ixp.index()].prefix;
        let off = &mut self.ixp_lan_next[ixp.index()];
        let a = Ipv4((u64::from(pfx.base().to_u32()) + *off) as u32);
        *off += 1;
        assert!(pfx.contains(a), "IXP LAN {pfx} exhausted");
        a
    }

    fn finish(self) -> Internet {
        let cones = customer_cones(&self.ases);
        let mut asn_index = HashMap::new();
        for a in &self.ases {
            asn_index.insert(a.asn, a.idx);
        }
        let mut iface_by_addr = HashMap::new();
        for f in &self.ifaces {
            if let Some(a) = f.addr {
                let prev = iface_by_addr.insert(a, f.id);
                assert!(prev.is_none(), "duplicate iface address {a}");
            }
        }
        let inet = Internet {
            config: self.cfg,
            seed: self.seed,
            metros: self.metros,
            rtt: RttModel::default(),
            ases: self.ases,
            asn_index,
            org_names: self.org_names,
            facilities: self.facilities,
            ixps: self.ixps,
            clouds: self.clouds,
            regions: self.regions,
            routers: self.routers,
            ifaces: self.ifaces,
            links: self.links,
            interconnects: self.interconnects,
            addr_plan: self.addr_plan,
            iface_by_addr,
            cones,
            ixp_members: self.ixp_members,
            ixp_presence: self.ixp_presence,
            transit_in_iface: self.transit_in_iface,
        };
        debug_assert_eq!(inet.check_invariants(), Ok(()));
        inet
    }
}

/// Salt xor'ed into the user seed before feeding the RNG, so that seed 0 is
/// not a degenerate RNG state.
const SEED_SALT: u64 = 0x1a2b_3c4d_5e6f_7081;

// Generation phases live in a sibling module to keep file sizes reviewable.
mod phases;
