//! Traceroute and ping execution.

use crate::faults::{
    self, DataPlaneConfigError, FaultCounters, FaultImpact, FaultPlan, FaultTally,
};
use cm_bgp::{MemoStats, RouteMemo, RoutingTable};
use cm_net::stablehash;
use cm_net::{Ipv4, Prefix};
use cm_topology::{
    AsIndex, CloudId, IcId, IfaceId, IfaceKind, Internet, RegionId, ResponseMode, RouterId,
    RouterRole,
};
use std::collections::HashMap;

/// Artifact and probing knobs for the dataplane.
#[derive(Clone, Copy, Debug)]
pub struct DataPlaneConfig {
    /// Probability that any single hop response is lost (rate limiting).
    pub loss_rate: f64,
    /// Probability that a hop is duplicated in the output (a known
    /// traceroute artifact the paper filters, §4.1).
    pub dup_rate: f64,
    /// Probability that a probe's tail enters a forwarding loop.
    pub loop_rate: f64,
    /// Consecutive unresponsive hops before a probe is abandoned
    /// (the paper used five, §3).
    pub gap_limit: u8,
    /// Maximum TTL explored.
    pub max_ttl: u8,
    /// Jitter amplitude in milliseconds (exponential-ish tail).
    pub jitter_ms: f64,
    /// Composed fault-injection profile (clean by default); see
    /// [`crate::faults`].
    pub faults: FaultPlan,
}

impl DataPlaneConfig {
    /// Validates every rate and magnitude, including the fault plan's.
    /// [`DataPlane::new`] and the pipeline both call this, so a NaN or
    /// out-of-range rate is a typed error instead of degenerate draws.
    pub fn validate(&self) -> Result<(), DataPlaneConfigError> {
        faults::probability("loss_rate", self.loss_rate)?;
        faults::probability("dup_rate", self.dup_rate)?;
        faults::probability("loop_rate", self.loop_rate)?;
        faults::magnitude("jitter_ms", self.jitter_ms)?;
        self.faults.validate()
    }
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            loss_rate: 0.01,
            dup_rate: 0.004,
            loop_rate: 0.002,
            gap_limit: 5,
            max_ttl: 30,
            jitter_ms: 2.0,
            faults: FaultPlan::default(),
        }
    }
}

/// One traceroute hop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceHop {
    /// TTL of the probe that elicited this response (1-based).
    pub ttl: u8,
    /// Responding address; `None` is a `*` (no response).
    pub addr: Option<Ipv4>,
    /// Round-trip time of the response, when present.
    pub rtt_ms: Option<f64>,
}

/// How a traceroute terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceStatus {
    /// The destination answered.
    Completed,
    /// Abandoned after `gap_limit` consecutive silent hops.
    GapLimit,
    /// TTL budget exhausted (looping tail).
    MaxTtl,
}

/// A full traceroute observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Traceroute {
    /// Probing cloud.
    pub cloud: CloudId,
    /// Source region.
    pub src_region: RegionId,
    /// Probed destination.
    pub dst: Ipv4,
    /// Hops in TTL order.
    pub hops: Vec<TraceHop>,
    /// Termination status.
    pub status: TraceStatus,
}

impl Traceroute {
    /// A hop-less trace from `(cloud, src_region)`: the buffer a
    /// [`Prober`] renders into, reused probe after probe.
    pub fn empty(cloud: CloudId, src_region: RegionId) -> Traceroute {
        Traceroute {
            cloud,
            src_region,
            dst: Ipv4(0),
            hops: Vec::new(),
            status: TraceStatus::GapLimit,
        }
    }

    /// The responding hop addresses in order (gaps skipped).
    pub fn responding_addrs(&self) -> impl Iterator<Item = Ipv4> + '_ {
        self.hops.iter().filter_map(|h| h.addr)
    }
}

/// Traceroutes from one `(cloud, region)`, stored flat: one hop buffer for
/// the whole batch and one `(dst, status, end of its hops)` record per
/// trace. A probing worker fills one per work item and sends it to the
/// folding thread, which reads the traces back into one reused
/// [`Traceroute`]: two allocations per batch instead of a hop `Vec` per
/// trace, each freed on another thread than the one that made it.
pub struct TraceBatch {
    cloud: CloudId,
    src_region: RegionId,
    traces: Vec<(Ipv4, TraceStatus, usize)>,
    hops: Vec<TraceHop>,
}

impl TraceBatch {
    /// An empty batch with room for `traces` traceroutes.
    pub fn with_capacity(cloud: CloudId, src_region: RegionId, traces: usize) -> TraceBatch {
        TraceBatch {
            cloud,
            src_region,
            traces: Vec::with_capacity(traces),
            hops: Vec::new(),
        }
    }

    /// Appends a copy of `t`, which must come from the batch's
    /// `(cloud, region)`.
    pub fn push(&mut self, t: &Traceroute) {
        debug_assert!(t.cloud == self.cloud && t.src_region == self.src_region);
        self.hops.extend_from_slice(&t.hops);
        self.traces.push((t.dst, t.status, self.hops.len()));
    }

    /// Number of traceroutes in the batch.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the batch holds no traceroute.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Reads the traceroutes back in push order, each into `out` (its hop
    /// buffer is reused), and hands each to `f`.
    pub fn replay(&self, out: &mut Traceroute, mut f: impl FnMut(&Traceroute)) {
        out.cloud = self.cloud;
        out.src_region = self.src_region;
        let mut start = 0;
        for &(dst, status, end) in &self.traces {
            out.dst = dst;
            out.status = status;
            out.hops.clear();
            out.hops.extend_from_slice(&self.hops[start..end]);
            start = end;
            f(out);
        }
    }
}

/// A step on the router-level forward path, before response behaviour and
/// artifacts are applied.
struct PathStep {
    router: RouterId,
    /// The incoming interface (None when arriving over an unnumbered hop).
    in_iface: Option<IfaceId>,
    /// Cumulative one-way kilometres from the VM.
    km: f64,
    /// True when this step is the destination answering the probe itself.
    is_destination: bool,
    /// Destination address override for the final answering step.
    dest_addr: Option<Ipv4>,
}

/// The measurement dataplane: executes probes for every cloud over one
/// ground-truth [`Internet`].
pub struct DataPlane<'a> {
    /// The ground truth being measured.
    pub inet: &'a Internet,
    /// Per-cloud egress tables.
    pub tables: HashMap<CloudId, RoutingTable>,
    /// Artifact configuration.
    pub cfg: DataPlaneConfig,
    /// Downstream (toward the client's internal router) interface per
    /// client border router.
    downstream: HashMap<RouterId, (IfaceId, f64)>,
    /// IXP LAN interface of each cloud's border routers: (cloud, ixp) → ic.
    ixp_port: HashMap<(CloudId, u32), IcId>,
    /// Pre-resolved ECMP ingress pool per interconnect (indexed by
    /// `IcId::index`): the addressed uplink interfaces of all border
    /// routers in the interconnect's pool metros. Real cloud edge PoPs
    /// front their border routers with a Clos fabric, so a probe crossing
    /// any interconnect at the facility may arrive on any pool member —
    /// this is what lets one CBI pair with several ABIs (Figure 7b's
    /// degrees) and knits the ICG into one large component (§7.4). The
    /// pool depends only on the interconnect, so it is flattened here once
    /// instead of being rebuilt by every probe's path walk.
    ingress_pool: Vec<Vec<IfaceId>>,
    /// Seed for per-probe deterministic noise.
    seed: u64,
    /// Seed for fault-profile draws (a separate domain from artifact
    /// noise, so enabling a fault axis never re-rolls the base artifacts).
    fault_seed: u64,
    /// Per-router persistent-blackhole draws (indexed by
    /// `RouterId::index`). Every per-router fault predicate is a pure
    /// function of `(fault seed, router id)`, so the draws are batched at
    /// construction — with exactly the keys the per-probe predicates used
    /// — instead of re-hashed on every hop of every probe.
    blackholed_tbl: Vec<bool>,
    /// Per-router MPLS-tunnel draws (same batching as `blackholed_tbl`).
    mpls_tbl: Vec<bool>,
    /// Per-router ICMP source-rewrite draws (same batching).
    rewrite_tbl: Vec<bool>,
    /// Per-region clock-skew offsets in ms (indexed by `RegionId::index`;
    /// 0 for unaffected regions).
    skew_tbl: Vec<f64>,
    /// Per-axis fault impact counters (atomic: sums are order-independent
    /// at any worker count).
    counters: FaultCounters,
    /// Shared per-(region, /24, epoch) egress-route cache; region ids are
    /// globally unique, so one memo serves every cloud's table.
    route_memo: RouteMemo,
}

impl<'a> DataPlane<'a> {
    /// Builds the dataplane (routing tables for every cloud are computed
    /// here; this is the expensive step).
    ///
    /// # Panics
    /// On an invalid [`DataPlaneConfig`]; use [`DataPlane::try_new`] to
    /// handle the error instead.
    pub fn new(inet: &'a Internet, cfg: DataPlaneConfig) -> Self {
        match Self::try_new(inet, cfg) {
            Ok(plane) => plane,
            // cm-lint: allow(S1_PANIC_PATH, documented constructor contract — configs are workspace-built, not wire input; fallible callers use try_new)
            Err(e) => panic!("invalid DataPlaneConfig: {e}"),
        }
    }

    /// Validates the configuration, then builds the dataplane.
    pub fn try_new(inet: &'a Internet, cfg: DataPlaneConfig) -> Result<Self, DataPlaneConfigError> {
        cfg.validate()?;
        let mut tables = HashMap::new();
        for c in &inet.clouds {
            tables.insert(c.id, RoutingTable::build(inet, c.id));
        }
        // Client border router → (internal-side iface of its downstream
        // link, link km).
        let mut downstream = HashMap::new();
        for r in &inet.routers {
            if r.role != RouterRole::ClientBorder {
                continue;
            }
            for &f in &r.ifaces {
                let iface = inet.iface(f);
                if iface.kind != IfaceKind::Internal {
                    continue;
                }
                if let Some(l) = iface.link {
                    let link = inet.link(l);
                    let other = link.other_end(f);
                    if inet.router(inet.iface(other).router).role == RouterRole::ClientInternal {
                        downstream.insert(r.id, (other, link.km));
                        break;
                    }
                }
            }
        }
        // First interconnect per (cloud, IXP): used to route pings to IXP
        // LAN addresses (the minIXRTT measurements of §6.1).
        let mut ixp_port = HashMap::new();
        for ic in &inet.interconnects {
            if let cm_topology::IcKind::PublicIxp(ix) = ic.kind {
                ixp_port.entry((ic.cloud, ix.0)).or_insert(ic.id);
            }
        }
        // ECMP ingress pools: every addressed internal (uplink) interface of
        // the border routers at each (cloud, facility).
        let mut facility_uplinks: HashMap<(CloudId, u16), Vec<IfaceId>> = HashMap::new();
        {
            let mut border_cloud: HashMap<RouterId, (CloudId, u16)> = HashMap::new();
            for ic in &inet.interconnects {
                let metro = inet.facility(ic.facility).metro;
                border_cloud
                    .entry(ic.cloud_router)
                    .or_insert((ic.cloud, metro.0));
            }
            for r in &inet.routers {
                let Some(&key) = border_cloud.get(&r.id) else {
                    continue;
                };
                if r.response == ResponseMode::Silent {
                    continue;
                }
                for &f in &r.ifaces {
                    let i = inet.iface(f);
                    if i.kind == IfaceKind::Internal && i.addr.is_some() {
                        facility_uplinks.entry(key).or_default().push(f);
                    }
                }
            }
            // cm-lint: allow(D4_MAP_ORDER, each value list is sorted independently; visit order is immaterial)
            for v in facility_uplinks.values_mut() {
                v.sort_unstable();
            }
        }
        // Flatten the per-interconnect ingress pools. Member order must
        // match the old per-probe build exactly (facility metro first,
        // then IXP presence metros in listed order) — the ECMP draw
        // indexes into this slice, so any reordering would change which
        // uplink a flow lands on and break the golden digests.
        let mut ingress_pool: Vec<Vec<IfaceId>> = Vec::with_capacity(inet.interconnects.len());
        for ic in &inet.interconnects {
            let fac_metro = inet.facility(ic.facility).metro;
            let mut pool_metros = vec![fac_metro]; // cm-lint: allow(P1_HEAP_ALLOC, once-per-run constructor; this loop is precomputing the ingress pools)
            if let cm_topology::IcKind::PublicIxp(ix) = ic.kind {
                if let Some(hosts) = inet.ixp_presence.get(&(ic.cloud, ix)) {
                    for &h in hosts {
                        let m = inet.facility(h).metro;
                        if !pool_metros.contains(&m) {
                            pool_metros.push(m);
                        }
                    }
                }
            }
            let mut pool = Vec::new(); // cm-lint: allow(P1_HEAP_ALLOC, once-per-run constructor; the pool built here is the flat table the hot path reuses)
            for m in &pool_metros {
                if let Some(p) = facility_uplinks.get(&(ic.cloud, m.0)) {
                    pool.extend_from_slice(p);
                }
            }
            ingress_pool.push(pool);
        }
        // Batch the per-entity fault draws (identical keys to the old
        // per-probe predicates; see the fault-profile section below).
        let fault_seed = inet.seed ^ cfg.faults.salt ^ 0xFA17_0A7E_5EED_0001;
        let blackholed_tbl = inet
            .routers
            .iter()
            .map(|r| {
                cfg.faults.blackhole.is_some_and(|b| {
                    stablehash::chance(fault_seed, &[0xB1AC, u64::from(r.id.0)], b.router_rate)
                })
            })
            .collect();
        let mpls_tbl = inet
            .routers
            .iter()
            .map(|r| {
                cfg.faults.mpls.is_some_and(|m| {
                    stablehash::chance(fault_seed, &[0x3915, u64::from(r.id.0)], m.router_rate)
                })
            })
            .collect();
        let rewrite_tbl = inet
            .routers
            .iter()
            .map(|r| {
                cfg.faults.addr_rewrite.is_some_and(|a| {
                    stablehash::chance(fault_seed, &[0x5FC4, u64::from(r.id.0)], a.router_rate)
                })
            })
            .collect();
        let skew_tbl = inet
            .regions
            .iter()
            .map(|rg| {
                let Some(s) = cfg.faults.clock_skew else {
                    return 0.0;
                };
                if !stablehash::chance(fault_seed, &[0xC10C, u64::from(rg.id.0)], s.region_rate) {
                    return 0.0;
                }
                s.max_skew_ms
                    * stablehash::unit_f64(stablehash::mix(
                        fault_seed,
                        &[0xC10C, 0x0FF5, u64::from(rg.id.0)],
                    ))
            })
            .collect();
        Ok(DataPlane {
            inet,
            tables,
            cfg,
            downstream,
            ixp_port,
            ingress_pool,
            seed: inet.seed ^ 0x0DA7_A91A_4E00_55AA,
            fault_seed,
            counters: FaultCounters::default(),
            route_memo: RouteMemo::new(),
            blackholed_tbl,
            mpls_tbl,
            rewrite_tbl,
            skew_tbl,
        })
    }

    /// Snapshot of the per-axis fault impact counters accumulated so far
    /// (all zero under a clean plan).
    pub fn fault_impact(&self) -> FaultImpact {
        self.counters.snapshot()
    }

    /// Cumulative hit/miss counters of the egress-route memo (expansion
    /// probing revisits each /24 ~253 times, so the steady-state hit rate
    /// should be well above 90%).
    pub fn route_memo_stats(&self) -> MemoStats {
        self.route_memo.stats()
    }

    /// Turns the route memo's lookup-key log on or off (see
    /// [`cm_bgp::RouteMemo::set_key_log`]; off by default).
    pub fn memo_set_key_log(&self, enabled: bool) {
        self.route_memo.set_key_log(enabled);
    }

    /// Drains the route memo's lookup-key log (sorted, deduplicated).
    pub fn memo_drain_key_log(&self) -> Box<[cm_bgp::MemoKey]> {
        self.route_memo.drain_key_log()
    }

    /// All route-memo keys cached so far, sorted.
    pub fn memo_keys(&self) -> Vec<cm_bgp::MemoKey> {
        self.route_memo.keys()
    }

    /// The route-flap decision for `(dst /24 base, epoch)` under this
    /// plane's fault plan (`false` when the flap axis is disabled). This
    /// is the exact draw `select_route` consults, exposed so incremental
    /// runners can derive dirty sets without probing.
    pub fn flap_decision(&self, dst24: u32, epoch: u32) -> bool {
        match self.cfg.faults.route_flap {
            Some(fl) => fl.decision(self.fault_seed, u64::from(dst24), u64::from(epoch)),
            None => false,
        }
    }

    /// Exports the fault engine's per-axis impact counters and the
    /// route memo's counters into an observability sink. Both are sums of
    /// per-probe atomics, so the exported values are identical at any
    /// worker count.
    pub fn export_obs(&self, sink: &cm_obs::ObsSink) {
        self.fault_impact().export_obs(&sink.registry);
        self.route_memo.export_obs(&sink.registry);
    }

    /// Executes one traceroute from a region of a cloud (campaign epoch 0).
    pub fn traceroute(&self, cloud: CloudId, src_region: RegionId, dst: Ipv4) -> Traceroute {
        self.traceroute_at(cloud, src_region, dst, 0)
    }

    /// Executes one traceroute during a given campaign epoch. Routing churn
    /// (session flaps, drained links, TE shifts) makes later epochs traverse
    /// different interconnects and ECMP members of the same destinations —
    /// the diversity a multi-day campaign accumulates.
    ///
    /// A one-shot [`Prober`]: campaigns that probe many targets from one
    /// region and epoch should hold a cursor from [`DataPlane::prober`]
    /// instead, and render into a reused [`Traceroute`].
    pub fn traceroute_at(
        &self,
        cloud: CloudId,
        src_region: RegionId,
        dst: Ipv4,
        epoch: u32,
    ) -> Traceroute {
        let mut out = Traceroute::empty(cloud, src_region);
        self.prober(cloud, src_region, epoch)
            .trace_into(dst, &mut out);
        out
    }

    /// A probe cursor for traceroutes from `(cloud, src_region)` during
    /// campaign `epoch`; see [`Prober`].
    pub fn prober(&self, cloud: CloudId, src_region: RegionId, epoch: u32) -> Prober<'_, 'a> {
        Prober {
            plane: self,
            cloud,
            region: src_region,
            epoch,
            shares: self
                .tables
                .get(&cloud)
                .is_some_and(RoutingTable::memo_exact),
            run: None,
            path: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Minimum RTT to `target` over `attempts` probes from a region, or
    /// `None` when the target never answers. Models the ICMP campaigns used
    /// for anchor identification and co-presence checks (§6.1).
    pub fn ping_min_rtt(
        &self,
        cloud: CloudId,
        src_region: RegionId,
        target: Ipv4,
        attempts: u32,
    ) -> Option<f64> {
        let mut steps = Vec::new();
        let dst_iface = self.inet.iface_by_addr.get(&target).copied();
        self.forward_path(cloud, src_region, target, dst_iface, 0, &mut steps);
        let last = steps.last()?;
        if !last.is_destination {
            return None;
        }
        // The destination must be willing to answer at all.
        if matches!(self.inet.router(last.router).response, ResponseMode::Silent) {
            return None;
        }
        // Persistent blackholes eat echo requests (and replies) too.
        if steps.iter().any(|s| self.blackholed(s.router)) {
            self.counters.bump_blackhole();
            return None;
        }
        let base = self.base_rtt(last.km, steps.len() as u32);
        // The jitter key carries the vantage (cloud, region): per-region
        // minimum RTTs to one target must be independent draws, or the
        // Fig. 4/5 CDFs and the §6.1 co-presence threshold see the same
        // noise floor from every region.
        let jitter = (0..attempts)
            .map(|a| {
                self.jitter(&[
                    u64::from(cloud.0),
                    u64::from(src_region.0),
                    u64::from(target.0),
                    0xFFFF,
                    u64::from(a),
                ])
            })
            .fold(f64::MAX, f64::min);
        // A skewed VM clock shifts even the minimum: min(x + c) = min(x) + c.
        let skew = self.region_skew_ms(src_region);
        if skew > 0.0 {
            self.counters.bump_clock_skew();
        }
        Some(base + jitter + skew)
    }

    // ----- path construction ----------------------------------------------

    /// Builds the router-level forward path from the region's VM to `dst`
    /// into `steps` (cleared by the caller). `dst_iface` is the interface
    /// that owns `dst`, if any (`iface_by_addr`).
    ///
    /// Returns the origin AS when the path ends at the synthetic-host
    /// decision ([`DataPlane::host_tail`]) — the one step of a path to an
    /// interface-less destination that reads more than its /24 — and `None`
    /// when it ends anywhere else.
    fn forward_path(
        &self,
        cloud: CloudId,
        src_region: RegionId,
        dst: Ipv4,
        dst_iface: Option<IfaceId>,
        epoch: u32,
        steps: &mut Vec<PathStep>,
    ) -> Option<AsIndex> {
        let inet = self.inet;
        let region = inet.region(src_region);
        debug_assert_eq!(region.cloud, cloud);
        debug_assert_eq!(dst_iface, inet.iface_by_addr.get(&dst).copied());
        let mut km = 0.0;

        // 1. Internal destinations (own cloud space, own infrastructure).
        if let Some(fid) = dst_iface {
            let owner = inet.router(inet.iface(fid).router).owner;
            if inet.clouds[cloud.index()].ases.contains(&owner) {
                self.internal_path(src_region, fid, dst, steps);
                return None;
            }
        }

        // 2. First hop(s): VM → core (ECMP by destination /24), then to the
        // first core if a second core was chosen (the backbone and the
        // border uplinks hang off core 0 for cross-region egress).
        let core_pick = stablehash::pick(
            self.seed,
            &[
                0xEC39,
                src_region.0 as u64,
                u64::from(dst.slash24_base().to_u32()),
            ],
            region.core_routers.len(),
        );
        let chosen_core = region.core_routers[core_pick];
        km += 0.2;
        steps.push(PathStep {
            router: chosen_core,
            in_iface: self.incoming_iface_from(region.vm_router, chosen_core),
            km,
            is_destination: false,
            dest_addr: None,
        });

        // 3. Egress selection.
        // Unrouted: the probe dies after the core.
        let route = self.select_route(cloud, src_region, dst, dst_iface, epoch)?;
        let ic = inet.interconnect(route.ic);

        // Cross-region transit via core 0 of both regions.
        let egress_region = ic.region;
        let mut last_core = chosen_core;
        if egress_region != src_region {
            let core0_src = region.core_routers[0];
            if chosen_core != core0_src {
                km += 0.5;
                steps.push(PathStep {
                    router: core0_src,
                    in_iface: self.incoming_iface_from(chosen_core, core0_src),
                    km,
                    is_destination: false,
                    dest_addr: None,
                });
            }
            let er = inet.region(egress_region);
            let core0_dst = er.core_routers[0];
            km += inet.metro_km(region.metro, er.metro).max(1.0);
            steps.push(PathStep {
                router: core0_dst,
                in_iface: self.incoming_iface_from(core0_src, core0_dst),
                km,
                is_destination: false,
                dest_addr: None,
            });
            last_core = core0_dst;
        }

        // 4. Border complex ingress: ECMP across the uplinks of all border
        // routers in the egress metro; IXP crossings spread further, over
        // every metro where the cloud attaches to that fabric (multi-metro
        // fabrics bridge regions — the §7.4 remote-peering effect). Falls
        // back to the interconnect's own router when the pool is empty.
        // The pool itself is pre-resolved per interconnect at construction.
        let pool = &self.ingress_pool[route.ic.index()];
        let uplink = if pool.is_empty() {
            self.incoming_iface_from(last_core, ic.cloud_router)
                .or_else(|| self.any_uplink(ic.cloud_router))
        } else {
            // Flow placement hashes on the destination only (a flow keeps
            // its path regardless of where it entered the backbone), and is
            // deliberately skewed: a few pool members carry most prefixes
            // (aggregation routers) while many carry a handful — the source
            // of Figure 7a's 30% degree-one ABIs next to thousand-degree
            // hubs.
            let u = stablehash::unit_f64(stablehash::mix(
                self.seed,
                &[
                    0x00B0_4DE4,
                    u64::from(dst.slash24_base().to_u32()),
                    epoch as u64,
                ],
            ));
            let idx = (u.powf(3.0) * pool.len() as f64) as usize;
            Some(pool[idx.min(pool.len() - 1)])
        };
        let border = uplink
            .map(|u| inet.iface(u).router)
            .unwrap_or(ic.cloud_router);
        let border_km = inet
            .metro_km(inet.region(egress_region).metro, inet.router(border).metro)
            .max(5.0);
        km += border_km;
        steps.push(PathStep {
            router: border,
            in_iface: uplink,
            km,
            is_destination: false,
            dest_addr: None,
        });

        // 5. Across the fabric to the client border router.
        km += ic.fabric_km;
        let client_is_dest = dst_iface
            .map(|f| inet.iface(f).router == ic.client_router)
            .unwrap_or(false);
        steps.push(PathStep {
            router: ic.client_router,
            in_iface: Some(ic.client_iface),
            km,
            is_destination: client_is_dest,
            dest_addr: client_is_dest.then_some(dst),
        });
        if client_is_dest {
            return None;
        }

        // 6. Descend the AS path.
        let mut current_metro = ic.client_metro;
        // First, the peer's internal router.
        if let Some(&(down_iface, down_km)) = self.downstream.get(&ic.client_router) {
            km += down_km;
            let internal_router = inet.iface(down_iface).router;
            current_metro = inet.router(internal_router).metro;
            let internal_is_dest = dst_iface
                .map(|f| inet.iface(f).router == internal_router)
                .unwrap_or(false);
            steps.push(PathStep {
                router: internal_router,
                in_iface: Some(down_iface),
                km,
                is_destination: internal_is_dest,
                dest_addr: internal_is_dest.then_some(dst),
            });
            if internal_is_dest {
                return None;
            }
        }
        for w in route.as_path.windows(2) {
            let (prev, next) = (w[0], w[1]);
            let Some(&down_iface) = inet.transit_in_iface.get(&(prev, next)) else {
                break;
            };
            let next_router = inet.iface(down_iface).router;
            let next_metro = inet.router(next_router).metro;
            km += inet.metro_km(current_metro, next_metro).max(1.0);
            current_metro = next_metro;
            let is_dest = dst_iface
                .map(|f| inet.iface(f).router == next_router)
                .unwrap_or(false);
            steps.push(PathStep {
                router: next_router,
                in_iface: Some(down_iface),
                km,
                is_destination: is_dest,
                dest_addr: is_dest.then_some(dst),
            });
            if is_dest {
                return None;
            }
        }

        // 7. Destination endpoint. Either an interface we can attribute, or
        // a synthetic host in the origin's announced space.
        // cm-lint: allow(S1_PANIC_PATH, L1_UNWRAP, RoutingTable never emits a route with an empty AS path — the origin is appended at build time)
        let origin = *route.as_path.last().unwrap();
        if let Some(fid) = dst_iface {
            let r = inet.iface(fid).router;
            let r_metro = inet.router(r).metro;
            km += inet.metro_km(current_metro, r_metro).max(1.0);
            steps.push(PathStep {
                router: r,
                in_iface: Some(fid),
                km,
                is_destination: true,
                dest_addr: Some(dst),
            });
            return None;
        }
        self.host_tail(origin, dst, steps);
        Some(origin)
    }

    /// The last step of a path to an interface-less destination: a
    /// synthetic end host in `origin`'s announced space, appended when it
    /// answers at `dst`. The only part of such a path that reads the
    /// address rather than its /24, so [`Prober`] re-evaluates it per
    /// target on top of a shared prefix.
    fn host_tail(&self, origin: AsIndex, dst: Ipv4, steps: &mut Vec<PathStep>) {
        if !self.synthetic_host_answers(origin, dst) {
            return;
        }
        // The "router" of a synthetic host is the origin's internal router
        // for bookkeeping; the response comes from `dst` itself. The path
        // reaching here holds at least the core step.
        let Some(last) = steps.last() else {
            return;
        };
        let (router, km) = (last.router, last.km + 5.0);
        steps.push(PathStep {
            router,
            in_iface: None,
            km,
            is_destination: true,
            dest_addr: Some(dst),
        });
    }

    /// Routes `dst`, with the direct-interface special cases evaluated
    /// before the RIB:
    ///
    /// * the client side of one of this cloud's own interconnects (including
    ///   unannounced /31s and cloud-provided addressing) is directly
    ///   connected;
    /// * IXP LAN addresses are reachable when this cloud has a port on that
    ///   IXP's fabric.
    fn select_route(
        &self,
        cloud: CloudId,
        src_region: RegionId,
        dst: Ipv4,
        dst_iface: Option<IfaceId>,
        epoch: u32,
    ) -> Option<std::sync::Arc<cm_bgp::Route>> {
        let inet = self.inet;
        if let Some(fid) = dst_iface {
            match inet.iface(fid).kind {
                IfaceKind::Interconnect(ic) if inet.interconnect(ic).cloud == cloud => {
                    let peer = inet.interconnect(ic).peer;
                    return Some(std::sync::Arc::new(cm_bgp::Route {
                        ic,
                        as_path: vec![peer],
                    }));
                }
                IfaceKind::IxpLan(ix) => {
                    if let Some(&ic) = self.ixp_port.get(&(cloud, ix.0)) {
                        // Route to the member over the shared fabric: egress
                        // through the cloud's port, then the member answers.
                        let owner = inet.router(inet.iface(fid).router).owner;
                        return Some(std::sync::Arc::new(cm_bgp::Route {
                            ic,
                            as_path: vec![owner],
                        }));
                    }
                }
                _ => {}
            }
        }
        // Mid-campaign route flap: a per-(/24, epoch) draw diverts the
        // lookup into an alternate routing universe (a disjoint epoch key),
        // deterministically re-routing every probe to that /24 this epoch.
        let mut lookup_epoch = epoch;
        if let Some(fl) = self.cfg.faults.route_flap {
            if fl.decision(
                self.fault_seed,
                u64::from(dst.slash24_base().to_u32()),
                u64::from(epoch),
            ) {
                lookup_epoch = epoch ^ 0x4000_0000;
                self.counters.bump_route_flap();
            }
        }
        self.route_memo.route_at(
            self.tables.get(&cloud)?,
            inet,
            dst,
            src_region,
            lookup_epoch,
        )
    }

    /// A member of an IXP LAN answering over the fabric is not on the
    /// egress interconnect's AS path; patch the client hop accordingly.
    /// (Handled inside `forward_path` by the iface ownership checks.)
    fn any_uplink(&self, border: RouterId) -> Option<IfaceId> {
        self.inet.router(border).ifaces.iter().copied().find(|&f| {
            let i = self.inet.iface(f);
            i.kind == IfaceKind::Internal && i.addr.is_some()
        })
    }

    /// The interface on `to` that terminates a link from `from`.
    fn incoming_iface_from(&self, from: RouterId, to: RouterId) -> Option<IfaceId> {
        let inet = self.inet;
        for &f in &inet.router(to).ifaces {
            let iface = inet.iface(f);
            if let Some(l) = iface.link {
                let link = inet.link(l);
                let other = link.other_end(f);
                if inet.iface(other).router == from {
                    return Some(f);
                }
            }
        }
        None
    }

    /// Whether a synthetic end host answers at `dst` (per-/24 ground-truth
    /// responsiveness drawn from the topology seed).
    fn synthetic_host_answers(&self, origin: AsIndex, dst: Ipv4) -> bool {
        let inet = self.inet;
        // The /24 must actually be announced space of the origin.
        let covered = inet
            .as_node(origin)
            .prefixes
            .iter()
            .any(|p| p.contains(dst));
        if !covered {
            return false;
        }
        stablehash::chance(
            inet.seed,
            &[0xD057, u64::from(dst.slash24_base().to_u32())],
            inet.config.host_responsive,
        )
    }

    // ----- fault-profile draws ---------------------------------------------
    //
    // Every predicate is a pure function of (fault seed, entity id), never
    // of the probe or of execution order: a blackholed router is blackholed
    // for every probe of the campaign, a skewed region stays skewed, and a
    // worker reordering cannot change any draw. That purity is what lets
    // the per-entity draws be batched into lookup tables at construction
    // (`try_new`); only the per-probe burst-loss window still draws here.

    /// Whether `router` persistently blackholes probes.
    fn blackholed(&self, router: RouterId) -> bool {
        self.blackholed_tbl[router.index()]
    }

    /// Whether `router` sits inside an MPLS tunnel (invisible, no TTL).
    fn mpls_hidden(&self, router: RouterId) -> bool {
        self.mpls_tbl[router.index()]
    }

    /// Whether `router` rewrites its ICMP response source address.
    fn rewrites_source(&self, router: RouterId) -> bool {
        self.rewrite_tbl[router.index()]
    }

    /// The clock-skew offset of a probing region (0 when unaffected).
    fn region_skew_ms(&self, region: RegionId) -> f64 {
        self.skew_tbl[region.index()]
    }

    /// Whether a `(router, epoch, destination block)` rate-limit window is
    /// active. Windows span /20 destination blocks, so the loss a window
    /// causes is *correlated* across nearby probes — the shape the §4.1
    /// gap filter must survive, as opposed to the i.i.d. base `loss_rate`.
    fn burst_window_active(&self, router: RouterId, epoch: u32, dst: Ipv4) -> bool {
        self.cfg.faults.burst_loss.is_some_and(|b| {
            stablehash::chance(
                self.fault_seed,
                &[
                    0xB57,
                    u64::from(router.0),
                    u64::from(epoch),
                    u64::from(dst.to_u32() >> 12),
                ],
                b.window_rate,
            )
        })
    }

    /// The lowest addressed interface of `router` — the canonical source
    /// used by address-rewriting routers.
    fn canonical_iface(&self, router: RouterId) -> Option<IfaceId> {
        self.inet
            .router(router)
            .ifaces
            .iter()
            .copied()
            .filter(|&f| self.inet.iface(f).addr.is_some())
            .min_by_key(|&f| self.inet.iface(f).addr)
    }

    // ----- rendering (responses, artifacts) --------------------------------

    fn base_rtt(&self, km: f64, hops: u32) -> f64 {
        self.inet.rtt.min_rtt_ms_with_hops(km, hops)
    }

    /// Deterministic non-negative jitter with a light tail.
    fn jitter(&self, parts: &[u64]) -> f64 {
        let u = stablehash::unit_f64(stablehash::mix(self.seed, parts));
        // Squaring skews toward zero: min over a handful of attempts is
        // close to the propagation floor.
        self.cfg.jitter_ms * u * u
    }

    /// Renders `steps` — responses, faults and artifacts — into `out`,
    /// replacing its previous contents but keeping its hop buffer.
    fn render(
        &self,
        cloud: CloudId,
        src_region: RegionId,
        dst: Ipv4,
        epoch: u32,
        steps: &[PathStep],
        out: &mut Traceroute,
    ) {
        let inet = self.inet;
        out.cloud = cloud;
        out.src_region = src_region;
        out.dst = dst;
        let hops = &mut out.hops;
        hops.clear();
        let mut ttl = 0u8;
        let mut gap = 0u8;
        // Every loss/dup/loop/jitter draw keys on this. Folding the epoch in
        // is what makes a multi-day campaign re-roll its artifacts each day
        // instead of replaying them; epoch 0 keeps the historical key so the
        // churn-free baseline is unchanged.
        let mut probe_key = u64::from(dst.to_u32()) ^ ((src_region.0 as u64) << 40);
        if epoch != 0 {
            probe_key = stablehash::mix(probe_key, &[0xE70C, u64::from(epoch)]);
        }

        let push_silent = |hops: &mut Vec<TraceHop>, ttl: &mut u8, gap: &mut u8| {
            *ttl += 1;
            hops.push(TraceHop {
                ttl: *ttl,
                addr: None,
                rtt_ms: None,
            });
            *gap += 1;
        };

        // A skewed VM clock offsets every RTT this probe records.
        let skew_ms = self.region_skew_ms(src_region);
        let mut tally = FaultTally::default();

        let mut completed = false;
        for (i, step) in steps.iter().enumerate() {
            if ttl >= self.cfg.max_ttl || gap >= self.cfg.gap_limit {
                break;
            }
            // Persistent blackhole: the router drops the probe outright —
            // no TTL-exceeded from it, nothing downstream, only the
            // trailing-silence fill below.
            if self.blackholed(step.router) {
                tally.blackhole = true;
                break;
            }
            // MPLS tunnel: a hidden transit router emits no hop and
            // consumes no TTL — downstream hops appear adjacent.
            if !step.is_destination && self.mpls_hidden(step.router) {
                tally.mpls = true;
                continue;
            }
            let router = inet.router(step.router);
            // Decide the responding address and the interface it sits on.
            let (mut addr, iface) = if step.is_destination {
                // Destinations answer with the probed address.
                (step.dest_addr, step.in_iface)
            } else {
                match router.response {
                    ResponseMode::Silent => (None, None),
                    ResponseMode::Fixed(lo) => (inet.iface(lo).addr, Some(lo)),
                    ResponseMode::Incoming => match step.in_iface {
                        Some(f) => (inet.iface(f).addr, Some(f)),
                        None => (None, None),
                    },
                }
            };
            // ICMP source rewriting: the router answers from its canonical
            // interface instead of the incoming one (hybrid-IP stress for
            // the §5 verifier).
            if addr.is_some() && !step.is_destination && self.rewrites_source(step.router) {
                if let Some(canon) = self.canonical_iface(step.router) {
                    if Some(canon) != iface {
                        tally.addr_rewrite = true;
                        addr = inet.iface(canon).addr;
                    }
                }
            }
            // Rate-limit loss applies to transit hops, not the destination.
            let lost = !step.is_destination
                && stablehash::chance(
                    self.seed,
                    &[0x1055, probe_key, i as u64],
                    self.cfg.loss_rate,
                );
            // Bursty loss on top: only inside an active per-router window.
            let burst = self.cfg.faults.burst_loss;
            let burst_lost = !step.is_destination
                && !lost
                && addr.is_some()
                && self.burst_window_active(step.router, epoch, dst)
                && burst.is_some_and(|b| {
                    stablehash::chance(
                        self.fault_seed,
                        &[0xB57, 0x1055, probe_key, i as u64],
                        b.loss_rate,
                    )
                });
            if burst_lost {
                tally.burst_loss = true;
            }
            let addr = if lost || burst_lost { None } else { addr };
            match addr {
                Some(a) => {
                    ttl += 1;
                    gap = 0;
                    let rtt = self.base_rtt(step.km, ttl as u32)
                        + self.jitter(&[probe_key, ttl as u64])
                        + skew_ms;
                    if skew_ms > 0.0 {
                        tally.clock_skew = true;
                    }
                    hops.push(TraceHop {
                        ttl,
                        addr: Some(a),
                        rtt_ms: Some(rtt),
                    });
                    if step.is_destination {
                        completed = true;
                        break;
                    }
                    // Duplicate-hop artifact.
                    if stablehash::chance(
                        self.seed,
                        &[0xD0B1, probe_key, i as u64],
                        self.cfg.dup_rate,
                    ) && ttl < self.cfg.max_ttl
                    {
                        ttl += 1;
                        hops.push(TraceHop {
                            ttl,
                            addr: Some(a),
                            rtt_ms: Some(
                                self.base_rtt(step.km, ttl as u32)
                                    + self.jitter(&[probe_key, ttl as u64, 7])
                                    + skew_ms,
                            ),
                        });
                    }
                }
                None => push_silent(hops, &mut ttl, &mut gap),
            }
        }

        // Loop artifact: a small share of incomplete probes end bouncing
        // between the last two responding hops until the TTL budget runs out.
        if !completed
            && hops.iter().filter(|h| h.addr.is_some()).count() >= 2
            && stablehash::chance(self.seed, &[0x100B, probe_key], self.cfg.loop_rate)
        {
            let mut responding = hops.iter().rev().filter(|h| h.addr.is_some()).copied();
            let responding = [responding.next(), responding.next()];
            // Truncate trailing silence, then bounce.
            while hops.last().map(|h| h.addr.is_none()).unwrap_or(false) {
                hops.pop();
                ttl = ttl.saturating_sub(1);
            }
            let mut flip = 0;
            while ttl < self.cfg.max_ttl {
                ttl += 1;
                let src = responding[flip % 2];
                hops.push(TraceHop {
                    ttl,
                    addr: src.and_then(|h| h.addr),
                    rtt_ms: src.and_then(|h| h.rtt_ms),
                });
                flip += 1;
            }
            self.counters.record(tally);
            out.status = TraceStatus::MaxTtl;
            return;
        }

        // Unfinished probes keep probing into silence up to the gap limit.
        if !completed {
            while gap < self.cfg.gap_limit && ttl < self.cfg.max_ttl {
                push_silent(hops, &mut ttl, &mut gap);
            }
        }

        out.status = if completed {
            TraceStatus::Completed
        } else if ttl >= self.cfg.max_ttl {
            TraceStatus::MaxTtl
        } else {
            TraceStatus::GapLimit
        };
        self.counters.record(tally);
    }

    /// Internal path for destinations inside the probing cloud: the probe
    /// ends at the owning router without ever crossing a border.
    fn internal_path(
        &self,
        src_region: RegionId,
        fid: IfaceId,
        dst: Ipv4,
        steps: &mut Vec<PathStep>,
    ) {
        let inet = self.inet;
        let region = inet.region(src_region);
        let target_router = inet.iface(fid).router;
        let core = region.core_routers[0];
        let mut km = 0.2;
        if target_router != core {
            steps.push(PathStep {
                router: core,
                in_iface: self.incoming_iface_from(region.vm_router, core),
                km,
                is_destination: false,
                dest_addr: None,
            });
        }
        km += inet
            .metro_km(region.metro, inet.router(target_router).metro)
            .max(0.5);
        steps.push(PathStep {
            router: target_router,
            in_iface: Some(fid),
            km,
            is_destination: true,
            dest_addr: Some(dst),
        });
    }

    /// Every /24 the sweep campaign should target: all ground-truth
    /// allocated space (announced, infrastructure, IXP LANs, cloud pools).
    /// Unallocated IPv4 space would never produce a response and is skipped,
    /// a shortcut documented in DESIGN.md.
    pub fn sweep_slash24s(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        for (block, _) in &self.inet.addr_plan.blocks {
            let n = (block.num_addresses() / 256).max(1);
            let base = u64::from(block.base().to_u32());
            for k in 0..n {
                out.push(Prefix::new(Ipv4((base + k * 256) as u32), 24));
            }
        }
        out
    }
}

/// A caller-owned probe cursor: traceroutes from one `(cloud, region)` at
/// one campaign epoch, rendered into a [`Traceroute`] the caller reuses.
///
/// Probes into one destination /24 share their router path up to its last
/// step. When the destination owns no interface (`iface_by_addr` misses)
/// and the cloud's table is [`RoutingTable::memo_exact`], every step of
/// `DataPlane::forward_path` but the synthetic-host tail is a function of
/// `(cloud, region, /24, epoch)`: the core pick and the ingress draw key on
/// the /24, the route comes from the /24-exact memo, the flap decision keys
/// on `(/24, epoch)`, and no step is the destination. The cursor keeps the
/// prefix of the last such probe and, for the next address of the same
/// /24, re-evaluates only the tail (`DataPlane::host_tail`) — the
/// simulator's counterpart of Doubletree's redundancy removal. Every other
/// destination (interconnect /31s, IXP LAN members, own-cloud space) takes
/// the full path and leaves the kept prefix alone. Rendering stays per
/// probe: every loss, dup, loop and jitter draw keys on the address.
///
/// Sharing only saves work: in any target order, a cursor produces the
/// traces, counters and memo state that fresh [`DataPlane::traceroute_at`]
/// calls would. A shared probe still does the accounting of the lookup it
/// skips — one route-memo hit, plus one `route_flap` bump when the run's
/// flap decision diverted it. The memo's key log sees a run's key once, at
/// the run's first probe; a drain deduplicates anyway, so drain the log
/// between cursors, not in the middle of one.
pub struct Prober<'p, 'a> {
    plane: &'p DataPlane<'a>,
    cloud: CloudId,
    region: RegionId,
    epoch: u32,
    /// Whether the cloud's routes are constant per destination /24.
    shares: bool,
    /// The run whose prefix `path` holds.
    run: Option<SharedRun>,
    /// The last shared probe's path: the run's prefix, then its tail.
    path: Vec<PathStep>,
    /// The path of a probe that shares nothing, kept apart from `path` so
    /// that such a probe does not end the run around it.
    steps: Vec<PathStep>,
}

/// What a [`Prober`] knows about its current `(region, /24, epoch)` run.
#[derive(Clone, Copy)]
struct SharedRun {
    /// The run's destination /24 base.
    dst24: u32,
    /// Steps of the prefix, before the synthetic-host tail.
    len: usize,
    /// Origin AS of the tail; `None` when the /24 is unrouted and the
    /// path ends at the core.
    origin: Option<AsIndex>,
    /// The run's route-flap decision diverted its route lookup.
    flapped: bool,
}

impl Prober<'_, '_> {
    /// Probes `dst`, replacing the contents of `out` (its hop buffer is
    /// reused).
    pub fn trace_into(&mut self, dst: Ipv4, out: &mut Traceroute) {
        let plane = self.plane;
        let (cloud, region, epoch) = (self.cloud, self.region, self.epoch);
        let dst_iface = plane.inet.iface_by_addr.get(&dst).copied();
        if !self.shares || dst_iface.is_some() {
            self.steps.clear();
            plane.forward_path(cloud, region, dst, dst_iface, epoch, &mut self.steps);
            plane.render(cloud, region, dst, epoch, &self.steps, out);
            return;
        }
        let dst24 = dst.slash24_base().to_u32();
        match self.run {
            Some(run) if run.dst24 == dst24 => {
                // The lookup `select_route` would make: a memo hit (the
                // run's first probe cached the key), plus its flap bump.
                plane.route_memo.replay_hit();
                if run.flapped {
                    plane.counters.bump_route_flap();
                }
                self.path.truncate(run.len);
                if let Some(origin) = run.origin {
                    plane.host_tail(origin, dst, &mut self.path);
                }
            }
            _ => {
                self.path.clear();
                let origin = plane.forward_path(cloud, region, dst, None, epoch, &mut self.path);
                // Only the synthetic host is a destination step here.
                let tail = self.path.last().is_some_and(|s| s.is_destination);
                self.run = Some(SharedRun {
                    dst24,
                    len: self.path.len() - usize::from(tail),
                    origin,
                    flapped: plane.flap_decision(dst24, epoch),
                });
            }
        }
        plane.render(cloud, region, dst, epoch, &self.path, out);
    }
}
