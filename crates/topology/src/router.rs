//! Routers, interfaces and links.

use crate::ids::{AsIndex, FacilityId, IcId, IfaceId, IxpId, LinkId, RouterId};
use cm_geo::MetroId;
use cm_net::Ipv4;

/// How a router answers a traceroute probe whose TTL expires at it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseMode {
    /// Reply sourced from the interface the packet arrived on (the common
    /// case the inference methodology assumes).
    Incoming,
    /// Reply always sourced from one fixed interface, regardless of where
    /// the packet arrived (a "default interface" router).
    Fixed(IfaceId),
    /// Never replies.
    Silent,
}

/// The functional role of a router (ground-truth labeling used by tests and
/// by the experiment harness to compute inference accuracy; the inference
/// pipeline itself never reads it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterRole {
    /// A VM host inside a cloud region (traceroute source).
    CloudVmHost,
    /// A cloud region core/backbone router.
    CloudCore,
    /// A cloud border router (terminates interconnects). Holds the true ABIs.
    CloudBorder,
    /// A client network's border router (terminates interconnects with the
    /// cloud). Holds the true CBIs.
    ClientBorder,
    /// A client-internal router.
    ClientInternal,
}

/// A router.
#[derive(Clone, Debug)]
pub struct Router {
    /// Arena index.
    pub id: RouterId,
    /// Owning AS.
    pub owner: AsIndex,
    /// Functional role.
    pub role: RouterRole,
    /// Where the router physically sits.
    pub metro: MetroId,
    /// Facility, when the router is inside a colo.
    pub facility: Option<FacilityId>,
    /// The router's interfaces.
    pub ifaces: Vec<IfaceId>,
    /// Probe-response behaviour.
    pub response: ResponseMode,
    /// True if the router answers probes arriving from arbitrary public
    /// sources (not only via its interconnect); drives the §5.1
    /// reachability heuristic.
    pub publicly_reachable: bool,
}

/// What an interface is attached to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IfaceKind {
    /// Intra-AS link (cloud backbone, client internal).
    Internal,
    /// One end of a ground-truth interconnect between the cloud and a client.
    Interconnect(IcId),
    /// Port on an IXP's shared LAN.
    IxpLan(IxpId),
    /// Loopback / management; used as the source of `Fixed` responses.
    Loopback,
}

/// A router interface.
#[derive(Clone, Debug)]
pub struct Iface {
    /// Arena index.
    pub id: IfaceId,
    /// Owning router.
    pub router: RouterId,
    /// Assigned address. `None` for unnumbered internal interfaces.
    pub addr: Option<Ipv4>,
    /// Attachment kind.
    pub kind: IfaceKind,
    /// The link this interface terminates, if connected.
    pub link: Option<LinkId>,
}

/// A point-to-point link between two interfaces.
///
/// IXP fabrics are *not* links: the dataplane models a LAN crossing
/// directly, reflecting the fact that the layer-2 switch is invisible to
/// traceroute (the core difficulty the paper addresses).
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Arena index.
    pub id: LinkId,
    /// One end.
    pub a: IfaceId,
    /// Other end.
    pub b: IfaceId,
    /// One-way fiber distance in kilometres (drives the RTT model).
    pub km: f64,
}

impl Link {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of this link.
    pub fn other_end(&self, from: IfaceId) -> IfaceId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            // cm-lint: allow(S1_PANIC_PATH, documented contract — callers only pass iface ids read from this link's own endpoints)
            panic!("{from} is not an endpoint of {}", self.id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_other_end() {
        let l = Link {
            id: LinkId(0),
            a: IfaceId(1),
            b: IfaceId(2),
            km: 1.0,
        };
        assert_eq!(l.other_end(IfaceId(1)), IfaceId(2));
        assert_eq!(l.other_end(IfaceId(2)), IfaceId(1));
    }

    #[test]
    #[should_panic]
    fn link_other_end_panics_on_foreign_iface() {
        let l = Link {
            id: LinkId(0),
            a: IfaceId(1),
            b: IfaceId(2),
            km: 1.0,
        };
        let _ = l.other_end(IfaceId(9));
    }

    #[test]
    fn response_mode_matchable() {
        let m = ResponseMode::Fixed(IfaceId(4));
        assert!(matches!(m, ResponseMode::Fixed(i) if i == IfaceId(4)));
    }
}
