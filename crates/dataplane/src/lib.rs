//! # cm-dataplane — packet-level measurement simulation
//!
//! Executes traceroutes and pings over the ground-truth router graph, the
//! way Scamper would observe them from a cloud VM (§3 of the paper):
//!
//! * hop addresses are the *incoming* interfaces of the routers on the
//!   forward path (or a fixed interface / silence, per the router's
//!   [`cm_topology::ResponseMode`]),
//! * the layer-2 fabrics (IXP LANs, cloud exchanges, remote-peering
//!   carriers) are invisible: a probe goes straight from the cloud border
//!   router to the client router, exactly the property that defeats
//!   MAP-IT/bdrmapIT-style tools and motivates the paper,
//! * RTTs follow the geographic model in `cm-geo` plus per-probe jitter;
//!   minimum-RTT campaigns converge to the propagation floor,
//! * measurement artifacts (probe loss, duplicate hops, loops) are injected
//!   at configurable rates so the §4.1 traceroute filters have something to
//!   filter.
//!
//! A [`TraceHop`] carries only what a measurer sees: the TTL, the
//! responding address and its RTT. Campaigns probe through a [`Prober`]
//! cursor, which shares each `(region, /24, epoch)` path prefix across the
//! addresses of a /24 and renders into a caller-owned [`Traceroute`].
//!
//! Hostile measurement conditions — bursty rate limiting, blackholed
//! routers, MPLS-hidden segments, clock skew, source-address rewriting,
//! route flaps — are composed on top via the seeded profiles in
//! [`faults`]; every profile stays byte-deterministic at any worker count.

#![deny(missing_docs)]

pub mod faults;
mod plane;
pub mod reachability;

pub use faults::{DataPlaneConfigError, FaultImpact, FaultPlan, RouteFlap};
pub use plane::{
    DataPlane, DataPlaneConfig, Prober, TraceBatch, TraceHop, TraceStatus, Traceroute,
};
pub use reachability::publicly_reachable;
