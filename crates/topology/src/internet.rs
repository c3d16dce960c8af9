//! The ground-truth Internet container.

use crate::addr::AddrPlan;
use crate::asys::AsNode;
use crate::cloud::{Cloud, Region};
use crate::config::TopologyConfig;
use crate::facility::{Facility, Ixp};
use crate::ids::*;
use crate::interconnect::Interconnect;
use crate::router::{Iface, Link, Router};
use cm_geo::{MetroCatalog, MetroId, RttModel};
use cm_net::{Asn, Ipv4, OrgId, Prefix};
use std::collections::HashMap;

/// The complete synthetic Internet: every AS, facility, router, interface,
/// link and interconnect, plus the ground-truth address plan.
///
/// `Internet` is produced once by [`Internet::generate`] and is immutable
/// afterwards; every other crate only reads from it. The inference pipeline
/// (crate `cloudmap`) restricts itself to *observable* artifacts — probes
/// executed by the dataplane and the public dataset views — and only the
/// experiment harness compares its output against the ground truth here.
#[derive(Clone, Debug)]
pub struct Internet {
    /// The configuration that produced this Internet.
    pub config: TopologyConfig,
    /// The seed that produced this Internet.
    pub seed: u64,
    /// World metro catalog.
    pub metros: MetroCatalog,
    /// Distance → RTT model shared by all crates.
    pub rtt: RttModel,
    /// All ASes (clouds included).
    pub ases: Vec<AsNode>,
    /// ASN → arena index.
    pub asn_index: HashMap<Asn, AsIndex>,
    /// Organization display names, indexed by `OrgId.0 - 1` (org 0 reserved).
    pub org_names: Vec<String>,
    /// Colo facilities.
    pub facilities: Vec<Facility>,
    /// IXPs.
    pub ixps: Vec<Ixp>,
    /// Clouds; `clouds[0]` is the primary (measurement target).
    pub clouds: Vec<Cloud>,
    /// All regions across clouds.
    pub regions: Vec<Region>,
    /// Routers.
    pub routers: Vec<Router>,
    /// Interfaces.
    pub ifaces: Vec<Iface>,
    /// Point-to-point links.
    pub links: Vec<Link>,
    /// Ground-truth interconnects.
    pub interconnects: Vec<Interconnect>,
    /// Ground-truth address ownership.
    pub addr_plan: AddrPlan,
    /// Address → interface (for ping targets and ground-truth checks).
    pub iface_by_addr: HashMap<Ipv4, IfaceId>,
    /// Customer cones, indexed by `AsIndex` (computed once at generation).
    pub cones: Vec<Vec<AsIndex>>,
    /// IXP memberships: every (IXP, member AS, LAN interface) triple,
    /// including members that do not peer with any cloud.
    pub ixp_members: Vec<(IxpId, AsIndex, IfaceId)>,
    /// Facilities from which each cloud attaches to each IXP fabric it
    /// peers at. Large (especially multi-metro) fabrics are joined at
    /// several native facilities; probes toward a member may egress through
    /// any of them.
    pub ixp_presence: HashMap<(CloudId, IxpId), Vec<FacilityId>>,
    /// Per provider→customer edge, the interface on the customer side used
    /// when a probe descends from the provider into the customer network.
    pub transit_in_iface: HashMap<(AsIndex, AsIndex), IfaceId>,
}

impl Internet {
    /// The primary cloud (the measurement target).
    pub fn primary_cloud(&self) -> &Cloud {
        &self.clouds[0]
    }

    /// Returns the AS node.
    pub fn as_node(&self, idx: AsIndex) -> &AsNode {
        &self.ases[idx.index()]
    }

    /// Returns the router.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Returns the interface.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.index()]
    }

    /// Returns the link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Returns the facility.
    pub fn facility(&self, id: FacilityId) -> &Facility {
        &self.facilities[id.index()]
    }

    /// Returns the region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Returns the interconnect.
    pub fn interconnect(&self, id: IcId) -> &Interconnect {
        &self.interconnects[id.index()]
    }

    /// Metro of a router.
    pub fn router_metro(&self, id: RouterId) -> MetroId {
        self.router(id).metro
    }

    /// Metro of an interface (its router's metro).
    pub fn iface_metro(&self, id: IfaceId) -> MetroId {
        self.router_metro(self.iface(id).router)
    }

    /// The org name for an `OrgId` (empty string for the reserved org 0).
    pub fn org_name(&self, org: OrgId) -> &str {
        if org.is_reserved() {
            ""
        } else {
            &self.org_names[(org.0 - 1) as usize]
        }
    }

    /// True if `asn` belongs to the given cloud's organization.
    pub fn asn_belongs_to_cloud(&self, asn: Asn, cloud: CloudId) -> bool {
        self.asn_index
            .get(&asn)
            .map(|&i| self.clouds[cloud.index()].ases.contains(&i))
            .unwrap_or(false)
    }

    /// All interconnects of a given cloud.
    pub fn cloud_interconnects(&self, cloud: CloudId) -> impl Iterator<Item = &Interconnect> {
        self.interconnects
            .iter()
            .filter(move |ic| ic.cloud == cloud)
    }

    /// Ground-truth great-circle distance between two metros, km.
    pub fn metro_km(&self, a: MetroId, b: MetroId) -> f64 {
        self.metros.distance_km(a, b)
    }

    /// The announced prefixes of an AS's full customer cone (used by the
    /// BGP layer when a transit peer announces its cone).
    pub fn cone_prefixes(&self, idx: AsIndex) -> Vec<Prefix> {
        let mut out = Vec::new();
        for &m in &self.cones[idx.index()] {
            out.extend_from_slice(&self.ases[m.index()].prefixes);
        }
        out
    }

    /// All distinct peer ASes of a cloud (ground truth).
    pub fn cloud_peers(&self, cloud: CloudId) -> Vec<AsIndex> {
        let mut v: Vec<AsIndex> = self.cloud_interconnects(cloud).map(|ic| ic.peer).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Basic structural sanity checks; used by tests and run once by the
    /// generator in debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Interface/router cross-references.
        for (i, iface) in self.ifaces.iter().enumerate() {
            if iface.id.index() != i {
                return Err(format!("iface {i} has id {}", iface.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
            }
            let r = self.router(iface.router);
            if !r.ifaces.contains(&iface.id) {
                // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
                return Err(format!("{} not listed on its router {}", iface.id, r.id));
            }
        }
        for (i, r) in self.routers.iter().enumerate() {
            if r.id.index() != i {
                return Err(format!("router {i} has id {}", r.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
            }
            for &f in &r.ifaces {
                if self.iface(f).router != r.id {
                    return Err(format!("{f} on {} claims other router", r.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
                }
            }
        }
        // Links reference existing interfaces and are symmetric.
        for (i, l) in self.links.iter().enumerate() {
            if l.id.index() != i {
                return Err(format!("link {i} has id {}", l.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
            }
            for end in [l.a, l.b] {
                if self.iface(end).link != Some(l.id) {
                    // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
                    return Err(format!("{end} does not point back to {}", l.id));
                }
            }
        }
        // Interconnect endpoints are consistent.
        for ic in &self.interconnects {
            if self.iface(ic.cloud_iface).router != ic.cloud_router {
                return Err(format!("{}: cloud iface/router mismatch", ic.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
            }
            if self.iface(ic.client_iface).router != ic.client_router {
                return Err(format!("{}: client iface/router mismatch", ic.id)); // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
            }
            let peer_owner = self.router(ic.client_router).owner;
            if peer_owner != ic.peer {
                // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
                return Err(format!("{}: client router owned by {peer_owner:?}", ic.id));
            }
        }
        // Unique addresses.
        let mut seen: HashMap<Ipv4, IfaceId> = HashMap::new();
        for iface in &self.ifaces {
            if let Some(a) = iface.addr {
                if let Some(prev) = seen.insert(a, iface.id) {
                    // cm-lint: allow(P3_FORMAT, failure-path message; runs at most once before the invariant check aborts)
                    return Err(format!("address {a} on both {prev} and {}", iface.id));
                }
            }
        }
        Ok(())
    }
}
