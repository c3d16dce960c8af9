//! Generation phases for [`super::Builder`].

use super::{BorderClass, Builder, CLIENT_P2P_ANNOUNCED};
use crate::addr::{AddrOwner, PoolKind};
use crate::asys::{AsNode, AsTier};
use crate::cloud::{Cloud, Region};
use crate::config::PeeringPropensity;
use crate::facility::{Facility, Ixp};
use crate::ids::*;
use crate::interconnect::{AddrProvider, IcAnnouncement, IcKind, Interconnect};
use crate::router::{IfaceKind, ResponseMode, RouterRole};
use cm_geo::MetroId;
use cm_net::{Asn, Prefix};
use rand::seq::SliceRandom;
use rand::Rng;

/// ASNs used by the primary cloud's siblings — the same set the paper
/// observed for Amazon (footnote 4), for flavour.
const PRIMARY_ASNS: [u32; 8] = [7224, 16509, 14618, 19047, 38895, 39111, 8987, 9059];

/// ASNs for the secondary vantage clouds (Microsoft, Google, IBM, Oracle).
const SECONDARY_ASNS: [u32; 4] = [8075, 15169, 36351, 31898];

/// Names for the secondary clouds.
const SECONDARY_NAMES: [&str; 4] = ["cloud-ms", "cloud-gg", "cloud-ib", "cloud-or"];

/// How many metros beyond the region homes get native "direct connect"
/// facilities (drives the Figure 4a split: ABIs in DX metros are > 2 ms from
/// every VM).
const DX_EXTRA_METROS: usize = 34;
const DX_EXTRA_METROS_TINY: usize = 8;

impl Builder {
    fn counts(&self) -> crate::config::AsCounts {
        self.cfg.as_counts
    }

    fn n_metros(&self) -> usize {
        self.metros.len()
    }

    /// Samples `k` distinct metros, always including `home` first.
    fn sample_presence(&mut self, home: MetroId, k: usize) -> Vec<MetroId> {
        let n = self.n_metros();
        let mut v = vec![home];
        let mut guard = 0;
        while v.len() < k.min(n) && guard < 10 * n {
            let m = MetroId(self.rng.gen_range(0..n) as u16);
            if !v.contains(&m) {
                v.push(m);
            }
            guard += 1;
        }
        v
    }

    // ================================================================ phase 1
    pub(super) fn build_ases(&mut self) {
        let c = self.counts();
        let mut next_asn = 40_000u32;
        let n_metros = self.n_metros();

        let mut push_as = |b: &mut Builder,
                           tier: AsTier,
                           name_prefix: &str,
                           home: MetroId,
                           presence: Vec<MetroId>| {
            let idx = AsIndex(b.ases.len() as u32);
            let asn = Asn(next_asn);
            next_asn += 1;
            let name = format!("{name_prefix}{}", idx.0);
            let org = b.new_org(name.clone());
            b.ases.push(AsNode {
                idx,
                asn,
                org,
                name,
                tier,
                home_metro: home,
                presence,
                providers: vec![],
                peers: vec![],
                customers: vec![],
                prefixes: vec![],
                infra_prefixes: vec![],
            });
            idx
        };

        // Tier-1 backbones: headquartered in major metros, present nearly
        // everywhere.
        for i in 0..c.tier1 {
            let home = MetroId((i % 20) as u16);
            let k = (24 + self.rng.gen_range(0..16)).min(n_metros);
            let presence = self.sample_presence(home, k);
            push_as(self, AsTier::Tier1, "bb", home, presence);
        }
        // Tier-2 transit.
        for _ in 0..c.tier2 {
            let home = MetroId(self.rng.gen_range(0..n_metros) as u16);
            let k = 4 + self.rng.gen_range(0..8);
            let presence = self.sample_presence(home, k);
            push_as(self, AsTier::Tier2, "tr", home, presence);
        }
        // Access / eyeball networks.
        for _ in 0..c.access {
            let home = MetroId(self.rng.gen_range(0..n_metros) as u16);
            let k = 1 + self.rng.gen_range(0..3);
            let presence = self.sample_presence(home, k);
            push_as(self, AsTier::Access, "net", home, presence);
        }
        // Content / CDN networks.
        for _ in 0..c.content {
            let home = MetroId(self.rng.gen_range(0..n_metros) as u16);
            let k = 1 + self.rng.gen_range(0..6);
            let presence = self.sample_presence(home, k);
            push_as(self, AsTier::Content, "cdn", home, presence);
        }
        // Enterprises. A small share of enterprises are siblings of the
        // previous one (multi-ASN orgs, exercising the ORG-level walk).
        for i in 0..c.enterprise {
            let home = MetroId(self.rng.gen_range(0..n_metros) as u16);
            let idx = push_as(self, AsTier::Enterprise, "corp", home, vec![home]);
            if i > 0 && self.rng.gen_bool(0.02) {
                let prev_org = self.ases[idx.index() - 1].org;
                self.ases[idx.index()].org = prev_org;
            }
        }
    }

    // ================================================================ phase 2
    pub(super) fn build_relationships(&mut self) {
        let c = self.counts();
        let t1_end = c.tier1;
        let t2_end = t1_end + c.tier2;
        let acc_end = t2_end + c.access;
        let con_end = acc_end + c.content;
        let ent_end = con_end + c.enterprise;

        let add_rel = |b: &mut Builder, provider: usize, customer: usize| {
            let (p, cu) = (AsIndex(provider as u32), AsIndex(customer as u32));
            if !b.ases[provider].customers.contains(&cu) {
                b.ases[provider].customers.push(cu);
                b.ases[customer].providers.push(p);
            }
        };

        // Tier-1 full peer mesh.
        for i in 0..t1_end {
            for j in (i + 1)..t1_end {
                self.ases[i].peers.push(AsIndex(j as u32));
                self.ases[j].peers.push(AsIndex(i as u32));
            }
        }
        // Tier-2: buy from 2-3 tier-1s; sparse tier-2 peer mesh.
        for i in t1_end..t2_end {
            let np = 2 + self.rng.gen_range(0..2usize);
            let mut provs: Vec<usize> = (0..t1_end).collect();
            provs.shuffle(&mut self.rng);
            for &p in provs.iter().take(np) {
                add_rel(self, p, i);
            }
        }
        for i in t1_end..t2_end {
            for j in (i + 1)..t2_end {
                if self.rng.gen_bool(0.10) {
                    self.ases[i].peers.push(AsIndex(j as u32));
                    self.ases[j].peers.push(AsIndex(i as u32));
                }
            }
        }
        // Access: buy from tier-2 (mostly) or tier-1.
        for i in t2_end..acc_end {
            let np = 1 + self.rng.gen_range(0..3usize);
            for _ in 0..np {
                let p = if self.rng.gen_bool(0.7) {
                    self.rng.gen_range(t1_end..t2_end)
                } else {
                    self.rng.gen_range(0..t1_end)
                };
                add_rel(self, p, i);
            }
        }
        // Content: buy from tier-2/tier-1.
        for i in acc_end..con_end {
            let np = 1 + self.rng.gen_range(0..2usize);
            for _ in 0..np {
                let p = if self.rng.gen_bool(0.6) {
                    self.rng.gen_range(t1_end..t2_end)
                } else {
                    self.rng.gen_range(0..t1_end)
                };
                add_rel(self, p, i);
            }
        }
        // Enterprise: buy from access / tier-2 / tier-1.
        for i in con_end..ent_end {
            let np = 1 + usize::from(self.rng.gen_bool(0.3));
            for _ in 0..np {
                let x: f64 = self.rng.gen();
                let p = if x < 0.5 {
                    self.rng.gen_range(t2_end..acc_end)
                } else if x < 0.9 {
                    self.rng.gen_range(t1_end..t2_end)
                } else {
                    self.rng.gen_range(0..t1_end)
                };
                add_rel(self, p, i);
            }
        }
    }

    // ================================================================ phase 3
    pub(super) fn build_addressing(&mut self) {
        let budget = self.cfg.prefix_budget;
        for i in 0..self.ases.len() {
            let tier = self.ases[i].tier;
            let mut slash24s = match tier {
                AsTier::Tier1 => budget.tier1,
                AsTier::Tier2 => budget.tier2,
                AsTier::Access => budget.access,
                AsTier::Content => budget.content,
                AsTier::Enterprise => budget.enterprise,
                AsTier::Cloud => 0, // clouds handled in build_clouds
            };
            let owner = AsIndex(i as u32);
            // Announced host space: blocks of at most /18 (64 x /24).
            while slash24s > 0 {
                let take = slash24s.min(64).next_power_of_two().min(64);
                let take = if take > slash24s { take / 2 } else { take };
                let take = take.max(1);
                let len = 24 - (take as f64).log2() as u8;
                let p = self.alloc.alloc(len);
                self.addr_plan.add(
                    p,
                    AddrOwner {
                        owner,
                        kind: PoolKind::HostAnnounced,
                        ixp: None,
                    },
                );
                self.ases[i].prefixes.push(p);
                slash24s -= take;
            }
            // One WHOIS-only infrastructure /24 per AS.
            let infra = self.alloc.alloc(24);
            self.addr_plan.add(
                infra,
                AddrOwner {
                    owner,
                    kind: PoolKind::InfraUnannounced,
                    ixp: None,
                },
            );
            self.ases[i].infra_prefixes.push(infra);
        }
    }

    // ================================================================ phase 4
    pub(super) fn build_facilities(&mut self) {
        let n_metros = self.n_metros();
        for m in 0..n_metros {
            let metro = MetroId(m as u16);
            let n_fac = if m < 30 {
                3 + self.rng.gen_range(0..3usize)
            } else {
                1 + self.rng.gen_range(0..2usize)
            };
            for f in 0..n_fac {
                let id = FacilityId(self.facilities.len() as u32);
                let token = self.metros.get(metro).token;
                self.facilities.push(Facility {
                    id,
                    name: format!("colo-{token}-{f}"),
                    metro,
                    ixp: None,
                    cloud_exchange: self.rng.gen_bool(0.25),
                    native_clouds: vec![],
                });
            }
        }
        // IXPs: round-robin across metros, one facility each; the last
        // `multi_metro_ixps` also get a second facility in the next metro.
        let facs_by_metro: Vec<Vec<FacilityId>> = {
            let mut v = vec![Vec::new(); n_metros];
            for f in &self.facilities {
                v[f.metro.0 as usize].push(f.id);
            }
            v
        };
        for i in 0..self.cfg.ixp_count {
            let metro = i % n_metros;
            let fac = facs_by_metro[metro][0];
            let prefix = self.alloc.alloc(22);
            let id = IxpId(self.ixps.len() as u32);
            let mut facilities = vec![fac];
            let mut metros = vec![MetroId(metro as u16)];
            if i >= self.cfg.ixp_count - self.cfg.multi_metro_ixps {
                let metro2 = (metro + 1) % n_metros;
                facilities.push(facs_by_metro[metro2][0]);
                metros.push(MetroId(metro2 as u16));
            }
            let token = self.metros.get(MetroId(metro as u16)).token;
            self.addr_plan.add(
                prefix,
                AddrOwner {
                    owner: AsIndex(u32::MAX), // no AS owns IXP LAN space
                    kind: PoolKind::IxpLan,
                    ixp: Some(id.0),
                },
            );
            self.facilities[fac.index()].ixp = Some(id);
            self.ixps.push(Ixp {
                id,
                name: format!("ix-{token}-{}", id.0),
                prefix,
                facilities,
                metros,
            });
            self.ixp_lan_next.push(1);
        }
    }

    // ================================================================ phase 5
    pub(super) fn build_clouds(&mut self) {
        self.build_primary_cloud();
        self.build_secondary_clouds();
    }

    fn new_cloud_as(
        &mut self,
        asn: u32,
        org: cm_net::OrgId,
        name: String,
        home: MetroId,
    ) -> AsIndex {
        let idx = AsIndex(self.ases.len() as u32);
        self.ases.push(AsNode {
            idx,
            asn: Asn(asn),
            org,
            name,
            tier: AsTier::Cloud,
            home_metro: home,
            presence: vec![home],
            providers: vec![],
            peers: vec![],
            customers: vec![],
            prefixes: vec![],
            infra_prefixes: vec![],
        });
        idx
    }

    /// Registers `n24` /24s of announced space plus infrastructure blocks
    /// for a cloud's main AS.
    fn cloud_addressing(&mut self, main: AsIndex, n24: u32) {
        let mut left = n24;
        while left > 0 {
            let take = left.min(256);
            let len = 24 - (take as f64).log2() as u8;
            let p = self.alloc.alloc(len);
            self.addr_plan.add(
                p,
                AddrOwner {
                    owner: main,
                    kind: PoolKind::HostAnnounced,
                    ixp: None,
                },
            );
            self.ases[main.index()].prefixes.push(p);
            left -= take;
        }
        // Unannounced infrastructure: two /16-equivalents.
        for _ in 0..2 {
            let p = self.alloc.alloc(16);
            self.addr_plan.add(
                p,
                AddrOwner {
                    owner: main,
                    kind: PoolKind::InfraUnannounced,
                    ixp: None,
                },
            );
            self.ases[main.index()].infra_prefixes.push(p);
        }
    }

    fn build_primary_cloud(&mut self) {
        let org = self.new_org("primary-cloud".into());
        let home = self.metros.cloud_region_metros()[0].id;
        let mut as_list = Vec::new();
        for (i, &asn) in PRIMARY_ASNS
            .iter()
            .take(self.cfg.primary_cloud_asns)
            .enumerate()
        {
            let idx = self.new_cloud_as(asn, org, format!("primary-cloud-{i}"), home);
            as_list.push(idx);
        }
        let main = as_list[0];
        self.cloud_addressing(main, self.cfg.prefix_budget.cloud);

        let cloud_id = CloudId(self.clouds.len() as u32);
        self.clouds.push(Cloud {
            id: cloud_id,
            name: "primary".into(),
            org,
            ases: as_list.clone(),
            regions: vec![],
        });

        // Regions at the catalog's region metros.
        let region_metros: Vec<MetroId> = self
            .metros
            .cloud_region_metros()
            .iter()
            .take(self.cfg.primary_regions)
            .map(|m| m.id)
            .collect();
        for (ordinal, &metro) in region_metros.iter().enumerate() {
            self.build_region(cloud_id, main, ordinal, metro, 2);
        }
        self.build_backbone(cloud_id);

        // Native facilities: two per region metro...
        let region_ids = self.clouds[cloud_id.index()].regions.clone();
        for &rid in &region_ids {
            let metro = self.regions[rid.index()].metro;
            let facs: Vec<FacilityId> = self
                .facilities
                .iter()
                .filter(|f| f.metro == metro)
                .take(2)
                .map(|f| f.id)
                .collect();
            for f in facs {
                self.mark_native(cloud_id, f, rid);
            }
        }
        // ...plus DX metros assigned to the nearest region.
        let extra = if self.cfg.as_counts.enterprise < 500 {
            DX_EXTRA_METROS_TINY
        } else {
            DX_EXTRA_METROS
        };
        let region_metro_set: Vec<MetroId> = region_ids
            .iter()
            .map(|&r| self.regions[r.index()].metro)
            .collect();
        let mut added = 0;
        for m in 0..self.n_metros() {
            if added >= extra {
                break;
            }
            let metro = MetroId(m as u16);
            if region_metro_set.contains(&metro) {
                continue;
            }
            let fac = self
                .facilities
                .iter()
                .find(|f| f.metro == metro)
                .map(|f| f.id)
                // cm-lint: allow(L1_UNWRAP, generator invariant: every metro has a facility)
                .expect("every metro has a facility");
            // Nearest region by great-circle distance.
            let rid = *region_ids
                .iter()
                .min_by(|&&a, &&b| {
                    let da = self
                        .metros
                        .distance_km(self.regions[a.index()].metro, metro);
                    let db = self
                        .metros
                        .distance_km(self.regions[b.index()].metro, metro);
                    // cm-lint: allow(L1_UNWRAP, float comparator over finite values)
                    da.partial_cmp(&db).unwrap()
                })
                // cm-lint: allow(L1_UNWRAP, guarded by construction: every cloud has at least one region)
                .unwrap();
            self.mark_native(cloud_id, fac, rid);
            added += 1;
        }
    }

    fn build_secondary_clouds(&mut self) {
        let n = self.cfg.secondary_clouds.min(SECONDARY_ASNS.len());
        for s in 0..n {
            let org = self.new_org(SECONDARY_NAMES[s].into());
            let home = self.metros.cloud_region_metros()[s % 15].id;
            let main = self.new_cloud_as(SECONDARY_ASNS[s], org, SECONDARY_NAMES[s].into(), home);
            self.cloud_addressing(main, self.cfg.prefix_budget.cloud / 2);
            let cloud_id = CloudId(self.clouds.len() as u32);
            self.clouds.push(Cloud {
                id: cloud_id,
                name: SECONDARY_NAMES[s].into(),
                org,
                ases: vec![main],
                regions: vec![],
            });
            // Six regions (or as many as the primary has), rotated so the
            // secondary clouds' footprints overlap but differ.
            let n_regions = 6.min(self.cfg.primary_regions);
            let all: Vec<MetroId> = self
                .metros
                .cloud_region_metros()
                .iter()
                .take(self.cfg.primary_regions)
                .map(|m| m.id)
                .collect();
            let mut used = Vec::new();
            for ordinal in 0..n_regions {
                let metro = all[(ordinal * 2 + s) % all.len()];
                if used.contains(&metro) {
                    continue;
                }
                used.push(metro);
                self.build_region(cloud_id, main, ordinal, metro, 1);
            }
            self.build_backbone(cloud_id);
            // Native at the first facility of each region metro (often shared
            // with the primary cloud, like CoreSite LA1 in Figure 1).
            let region_ids = self.clouds[cloud_id.index()].regions.clone();
            for &rid in &region_ids {
                let metro = self.regions[rid.index()].metro;
                let fac = self
                    .facilities
                    .iter()
                    .find(|f| f.metro == metro)
                    .map(|f| f.id)
                    // cm-lint: allow(L1_UNWRAP, generator invariant: every metro has a facility)
                    .unwrap();
                self.mark_native(cloud_id, fac, rid);
            }
        }
    }

    fn mark_native(&mut self, cloud: CloudId, fac: FacilityId, region: RegionId) {
        if !self.facilities[fac.index()].native_clouds.contains(&cloud) {
            self.facilities[fac.index()].native_clouds.push(cloud);
        }
        self.facilities[fac.index()].cloud_exchange = true;
        self.native_region.insert((cloud, fac), region);
        if !self.regions[region.index()]
            .native_facilities
            .contains(&fac)
        {
            self.regions[region.index()].native_facilities.push(fac);
        }
    }

    /// Builds one region: a VM host router and `n_cores` core routers.
    fn build_region(
        &mut self,
        cloud: CloudId,
        main_as: AsIndex,
        ordinal: usize,
        metro: MetroId,
        n_cores: usize,
    ) {
        let rid = RegionId(self.regions.len() as u32);
        let token = self.metros.get(metro).token;
        let cloud_name = self.clouds[cloud.index()].name.clone();
        let vm_router = self.new_router(
            main_as,
            RouterRole::CloudVmHost,
            metro,
            None,
            ResponseMode::Incoming,
            false,
        );
        let vm_addr = self
            .alloc_host_addr(main_as)
            // cm-lint: allow(L1_UNWRAP, generator invariant: cloud host space is sized for the topology)
            .expect("cloud host space exhausted");
        self.new_iface(vm_router, Some(vm_addr), IfaceKind::Internal);
        let mut core_routers = Vec::new();
        for _ in 0..n_cores {
            let core = self.new_router(
                main_as,
                RouterRole::CloudCore,
                metro,
                None,
                ResponseMode::Incoming,
                false,
            );
            // VM -> core link; the core-side interface carries a private
            // address (the AS0 hops at the start of every traceroute, §3).
            let vm_side = self.new_iface(vm_router, None, IfaceKind::Internal);
            let addr = self.next_private_addr();
            let core_side = self.new_iface(core, Some(addr), IfaceKind::Internal);
            self.new_link(vm_side, core_side, 0.2);
            core_routers.push(core);
        }
        // Pair up cores inside the region so probes entering via any core can
        // reach the backbone (which hangs off the first core).
        if core_routers.len() > 1 {
            for k in 1..core_routers.len() {
                let a0 = self.next_private_addr();
                let i0 = self.new_iface(core_routers[0], Some(a0), IfaceKind::Internal);
                let ak = self.next_private_addr();
                let ik = self.new_iface(core_routers[k], Some(ak), IfaceKind::Internal);
                self.new_link(i0, ik, 0.5);
            }
        }
        self.regions.push(Region {
            id: rid,
            cloud,
            ordinal,
            name: format!("{cloud_name}-{token}"),
            metro,
            vm_router,
            vm_addr,
            core_routers,
            border_routers: vec![],
            native_facilities: vec![],
        });
        self.clouds[cloud.index()].regions.push(rid);
    }

    /// Full-mesh backbone between the first core routers of each region pair
    /// of a cloud, numbered from the cloud's unannounced infrastructure pool.
    fn build_backbone(&mut self, cloud: CloudId) {
        let regions = self.clouds[cloud.index()].regions.clone();
        for i in 0..regions.len() {
            for j in (i + 1)..regions.len() {
                let (ra, rb) = (regions[i], regions[j]);
                let (ca, cb) = (
                    self.regions[ra.index()].core_routers[0],
                    self.regions[rb.index()].core_routers[0],
                );
                let km = self.metros.distance_km(
                    self.regions[ra.index()].metro,
                    self.regions[rb.index()].metro,
                );
                let aa = self.cloud_infra_addr(cloud);
                let ia = self.new_iface(ca, Some(aa), IfaceKind::Internal);
                let ab = self.cloud_infra_addr(cloud);
                let ib = self.new_iface(cb, Some(ab), IfaceKind::Internal);
                self.new_link(ia, ib, km.max(1.0));
            }
        }
    }

    /// One address from the cloud's unannounced infrastructure space (or,
    /// with probability `1 - cloud_infra_unannounced`, from announced space)
    /// — the pools true ABIs are numbered from.
    fn cloud_infra_addr(&mut self, cloud: CloudId) -> cm_net::Ipv4 {
        let main = self.clouds[cloud.index()].ases[0];
        let unannounced = self.rng.gen_bool(self.cfg.cloud_infra_unannounced);
        if unannounced {
            // Walk the infra blocks with a per-AS cursor keyed negatively to
            // avoid clashing with the announced-space cursor.
            let block = self.ases[main.index()].infra_prefixes[0];
            let key = AsIndex(main.0 | 0x8000_0000);
            self.host_cursors
                .entry(key)
                .or_insert_with(|| super::HostCursor::new(block));
            // cm-lint: allow(L1_UNWRAP, guarded by containment: the cursor is inserted just above)
            if let Some(a) = self.host_cursors.get_mut(&key).unwrap().alloc() {
                return a;
            }
            // First block exhausted: fall through to the second.
            let block2 = self.ases[main.index()].infra_prefixes[1];
            self.host_cursors
                .insert(key, super::HostCursor::new(block2));
            return self
                .host_cursors
                .get_mut(&key)
                // cm-lint: allow(L1_UNWRAP, guarded by containment: the cursor is inserted just above)
                .unwrap()
                .alloc()
                // cm-lint: allow(L1_UNWRAP, generator invariant: cloud infra space is sized for the topology)
                .expect("cloud infra space exhausted");
        }
        self.alloc_host_addr(main)
            // cm-lint: allow(L1_UNWRAP, generator invariant: cloud host space is sized for the topology)
            .expect("cloud host space exhausted")
    }

    // ================================================================ phase 6
    pub(super) fn build_interconnects(&mut self) {
        let n_noncloud = self.counts().total();
        // Pre-compute IXPs per metro for local lookups.
        let mut ixps_by_metro: Vec<Vec<IxpId>> = vec![Vec::new(); self.n_metros()];
        for ix in &self.ixps {
            for &m in &ix.metros {
                ixps_by_metro[m.0 as usize].push(ix.id);
            }
        }
        let primary = CloudId(0);

        // Peering portfolios are nearly exclusive: the paper's hybrid census
        // (Table 6) shows most peers use one strategy — public peering for
        // three quarters, private otherwise — with only ~10% mixing. Tier-1
        // transit is the exception: always cross-connected, frequently also
        // public and virtual.
        for i in 0..n_noncloud {
            let idx = AsIndex(i as u32);
            let tier = self.ases[i].tier;
            let prop = self.propensity(tier);
            let (wants_public, wants_cross, wants_vpi) = if tier == AsTier::Tier1 {
                (
                    self.rng.gen_bool(prop.public_ixp),
                    true,
                    self.rng.gen_bool(prop.vpi),
                )
            } else {
                let peer_rate = match tier {
                    AsTier::Tier2 => 0.90,
                    AsTier::Access => 0.85,
                    AsTier::Content => 0.90,
                    _ => 0.80,
                };
                if !self.rng.gen_bool(peer_rate) {
                    continue; // not a cloud peer at all
                }
                let public = self.rng.gen_bool(prop.public_ixp);
                let (cross, vpi) = if public {
                    (
                        self.rng.gen_bool((prop.cross_connect * 0.25).min(1.0)),
                        self.rng.gen_bool((prop.vpi * 0.6).min(1.0)),
                    )
                } else {
                    // A peer without public peering must peer privately.
                    let vpi = self.rng.gen_bool((prop.vpi * 2.2).min(1.0));
                    let cross = self.rng.gen_bool(0.85) || !vpi;
                    (cross, vpi)
                };
                (public, cross, vpi)
            };

            if wants_public {
                self.make_public_peerings(primary, idx, &ixps_by_metro);
            }
            if wants_cross {
                self.make_cross_connects(primary, idx);
            }
            if wants_vpi {
                self.make_vpis(primary, idx);
            }
        }

        // Secondary clouds buy reach: cross-connects to every tier-1 (cone
        // announcements make the whole Internet reachable from them).
        let t1 = self.counts().tier1;
        for s in 1..self.clouds.len() {
            let cloud = CloudId(s as u32);
            for t in 0..t1 {
                let peer = AsIndex(t as u32);
                let fac = self.nearest_native_facility(cloud, self.ases[t].home_metro);
                let n = 1 + self.rng.gen_range(0..2usize);
                for _ in 0..n {
                    self.create_cross_connect(cloud, peer, fac, IcAnnouncement::CustomerCone);
                }
            }
        }

        // Cloud-to-cloud peering: the primary peers with each secondary
        // (the paper lists Google/Microsoft among Amazon's hybrid peers).
        for s in 1..self.clouds.len() {
            let sec_main = self.clouds[s].ases[0];
            let home = self.ases[sec_main.index()].home_metro;
            let fac = self.nearest_native_facility(primary, home);
            for _ in 0..2 {
                self.create_cross_connect(primary, sec_main, fac, IcAnnouncement::OwnPrefixes);
            }
            if let Some(&ixp) = ixps_by_metro[home.0 as usize].first() {
                self.create_ixp_peering(primary, sec_main, ixp, false);
            }
        }
    }

    fn propensity(&self, tier: AsTier) -> PeeringPropensity {
        match tier {
            AsTier::Tier1 => self.cfg.propensity_tier1,
            AsTier::Tier2 => self.cfg.propensity_tier2,
            AsTier::Access => self.cfg.propensity_access,
            AsTier::Content => self.cfg.propensity_content,
            AsTier::Enterprise | AsTier::Cloud => self.cfg.propensity_enterprise,
        }
    }

    fn make_public_peerings(&mut self, cloud: CloudId, idx: AsIndex, ixps_by_metro: &[Vec<IxpId>]) {
        let tier = self.ases[idx.index()].tier;
        let n_ixps = match tier {
            AsTier::Tier1 | AsTier::Tier2 => 1 + self.rng.gen_range(0..3usize),
            _ => 1 + self.rng.gen_range(0..2usize),
        };
        let presence = self.ases[idx.index()].presence.clone();
        let mut chosen: Vec<(IxpId, bool)> = Vec::new();
        for _ in 0..n_ixps {
            let remote = self.rng.gen_bool(self.cfg.remote_ixp_peering);
            let pick = if remote {
                // A regional IXP reached over a layer-2 carrier: remote
                // peering spans a few hundred to a few thousand km, not the
                // globe.
                let home = self.ases[idx.index()].home_metro;
                let regional: Vec<IxpId> = self
                    .ixps
                    .iter()
                    .filter(|x| {
                        let m = x.metros[0];
                        m != home && self.metros.distance_km(m, home) < 3_500.0
                    })
                    .map(|x| x.id)
                    .collect();
                if regional.is_empty() {
                    IxpId(self.rng.gen_range(0..self.ixps.len()) as u32)
                } else {
                    regional[self.rng.gen_range(0..regional.len())]
                }
            } else {
                // An IXP in a presence metro, if one exists.
                let local: Vec<IxpId> = presence
                    .iter()
                    .flat_map(|m| ixps_by_metro[m.0 as usize].iter().copied())
                    .collect();
                if local.is_empty() {
                    IxpId(self.rng.gen_range(0..self.ixps.len()) as u32)
                } else {
                    local[self.rng.gen_range(0..local.len())]
                }
            };
            if !chosen.iter().any(|&(x, _)| x == pick) {
                chosen.push((pick, remote));
            }
        }
        for (ixp, remote) in chosen {
            self.create_ixp_peering(cloud, idx, ixp, remote);
        }
    }

    fn make_cross_connects(&mut self, cloud: CloudId, idx: AsIndex) {
        let tier = self.ases[idx.index()].tier;
        let announcement = if tier.is_transit() {
            IcAnnouncement::CustomerCone
        } else {
            IcAnnouncement::OwnPrefixes
        };
        match tier {
            AsTier::Tier1 => {
                // Heavy worldwide presence: several parallel links at one or
                // two facilities near most regions.
                let regions = self.clouds[cloud.index()].regions.clone();
                for rid in regions {
                    if self.rng.gen_bool(0.15) {
                        continue;
                    }
                    let metro = self.regions[rid.index()].metro;
                    let n = 6 + self.rng.gen_range(0..6usize);
                    for _ in 0..n {
                        // Large transit interconnects spread beyond the
                        // region metro into the direct-connect facilities
                        // (the far side of Figure 4a's knee).
                        let natives = self.regions[rid.index()].native_facilities.clone();
                        let fac = if self.rng.gen_bool(0.4) && !natives.is_empty() {
                            natives[self.rng.gen_range(0..natives.len())]
                        } else {
                            self.nearest_native_facility(cloud, metro)
                        };
                        self.create_cross_connect(cloud, idx, fac, announcement.clone());
                    }
                }
            }
            AsTier::Tier2 => {
                let large = self.rng.gen_bool(0.4);
                let n = if large {
                    15 + self.rng.gen_range(0..26usize)
                } else {
                    4 + self.rng.gen_range(0..7usize)
                };
                self.spread_cross_connects(cloud, idx, n, announcement);
            }
            AsTier::Access => {
                let n = 6 + self.rng.gen_range(0..11usize);
                self.spread_cross_connects(cloud, idx, n, announcement);
            }
            AsTier::Content => {
                let n = 2 + self.rng.gen_range(0..7usize);
                self.spread_cross_connects(cloud, idx, n, announcement);
            }
            AsTier::Enterprise | AsTier::Cloud => {
                let n = 1 + self.rng.gen_range(0..4usize);
                self.spread_cross_connects(cloud, idx, n, announcement);
            }
        }
    }

    /// Places `n` cross-connects at native facilities near the AS's
    /// presence metros.
    fn spread_cross_connects(
        &mut self,
        cloud: CloudId,
        idx: AsIndex,
        n: usize,
        announcement: IcAnnouncement,
    ) {
        let presence = self.ases[idx.index()].presence.clone();
        for k in 0..n {
            let metro = presence[k % presence.len()];
            let fac = self.nearest_native_facility(cloud, metro);
            self.create_cross_connect(cloud, idx, fac, announcement.clone());
        }
    }

    fn make_vpis(&mut self, cloud: CloudId, idx: AsIndex) {
        let tier = self.ases[idx.index()].tier;
        let home = self.ases[idx.index()].home_metro;
        let n_ports = 2 + self.rng.gen_range(0..5usize);
        for _ in 0..n_ports {
            // Local if the home metro has a native cloud-exchange facility.
            let local_fac = self
                .facilities
                .iter()
                .find(|f| f.metro == home && f.cloud_exchange && f.native_clouds.contains(&cloud))
                .map(|f| f.id);
            let force_remote = self.rng.gen_bool(self.cfg.remote_vpi);
            let (fac, remote) = match (local_fac, force_remote) {
                (Some(f), false) => (f, false),
                _ => (self.nearest_native_facility(cloud, home), true),
            };
            // Transit-tier VPIs model connectivity partners bringing specific
            // enterprises to the exchange (the paper's Pr-B-V group).
            let announcement = if matches!(tier, AsTier::Tier1 | AsTier::Tier2) {
                let n_ents = 1 + self.rng.gen_range(0..3usize);
                let ents = self.random_enterprise_prefixes(n_ents);
                IcAnnouncement::Specific(ents)
            } else {
                IcAnnouncement::OwnPrefixes
            };
            let port = self.create_vpi(cloud, idx, fac, remote, announcement.clone(), None);
            // Multi-cloud VPIs share the same client port.
            if self.rng.gen_bool(self.cfg.vpi_multicloud) && self.clouds.len() > 1 {
                let n_sec = 1 + self.rng.gen_range(0..(self.clouds.len() - 1));
                let mut secs: Vec<usize> = (1..self.clouds.len()).collect();
                secs.shuffle(&mut self.rng);
                for &s in secs.iter().take(n_sec) {
                    let sec = CloudId(s as u32);
                    let sec_fac = self.nearest_native_facility(sec, home);
                    let sec_remote = self.facilities[sec_fac.index()].metro != home;
                    self.create_vpi(
                        sec,
                        idx,
                        sec_fac,
                        sec_remote,
                        IcAnnouncement::OwnPrefixes,
                        Some(port),
                    );
                }
            }
        }
    }

    fn random_enterprise_prefixes(&mut self, n: usize) -> Vec<Prefix> {
        let c = self.counts();
        let start = c.tier1 + c.tier2 + c.access + c.content;
        let end = start + c.enterprise;
        let mut out = Vec::new();
        for _ in 0..n {
            let e = self.rng.gen_range(start..end);
            out.extend_from_slice(&self.ases[e].prefixes);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The native facility of `cloud` whose metro is closest to `metro`.
    fn nearest_native_facility(&self, cloud: CloudId, metro: MetroId) -> FacilityId {
        self.facilities
            .iter()
            .filter(|f| f.native_clouds.contains(&cloud))
            .min_by(|a, b| {
                let da = self.metros.distance_km(a.metro, metro);
                let db = self.metros.distance_km(b.metro, metro);
                // cm-lint: allow(L1_UNWRAP, float comparator over finite values)
                da.partial_cmp(&db).unwrap().then(a.id.0.cmp(&b.id.0))
            })
            .map(|f| f.id)
            // cm-lint: allow(L1_UNWRAP, generator invariant: every cloud has a native facility)
            .expect("cloud has at least one native facility")
    }

    // ----- router/interconnect constructors -------------------------------

    /// Returns (and creates on demand) a cloud border router of the given
    /// class at a facility, respecting per-class aggregation capacities.
    fn cloud_border_router(
        &mut self,
        cloud: CloudId,
        fac: FacilityId,
        class: BorderClass,
    ) -> RouterId {
        let key = (cloud, fac, class);
        if let Some(pool) = self.border_pools.get_mut(&key) {
            if let Some(entry) = pool.last_mut() {
                if entry.1 < class.capacity() {
                    entry.1 += 1;
                    return entry.0;
                }
            }
        }
        // Create a new border router owned by a random sibling AS.
        let siblings = self.clouds[cloud.index()].ases.clone();
        let owner = siblings[self.rng.gen_range(0..siblings.len())];
        let metro = self.facilities[fac.index()].metro;
        let region = self.native_region[&(cloud, fac)];
        let router = self.new_router(
            owner,
            RouterRole::CloudBorder,
            metro,
            Some(fac),
            ResponseMode::Incoming,
            false,
        );
        // Uplinks to both cores of the owning region; the border-side
        // interface addresses are the ground-truth ABIs.
        let cores = self.regions[region.index()].core_routers.clone();
        let region_metro = self.regions[region.index()].metro;
        let km = self.metros.distance_km(region_metro, metro).max(5.0);
        for core in cores {
            let abi_addr = self.cloud_infra_addr(cloud);
            let border_side = self.new_iface(router, Some(abi_addr), IfaceKind::Internal);
            let pa = self.next_private_addr();
            let core_side = self.new_iface(core, Some(pa), IfaceKind::Internal);
            self.new_link(core_side, border_side, km);
        }
        // A small share of border routers are silent (never respond).
        if self.rng.gen_bool(0.03) {
            self.routers[router.index()].response = ResponseMode::Silent;
        }
        self.regions[region.index()].border_routers.push(router);
        self.border_pools.entry(key).or_default().push((router, 1));
        router
    }

    /// Returns (and creates on demand) a client border router at a facility.
    /// `metro_override` places the router elsewhere (remote peering).
    fn client_border_router(
        &mut self,
        idx: AsIndex,
        fac: FacilityId,
        metro_override: Option<MetroId>,
    ) -> RouterId {
        // One border router per (AS, placement metro): the same device
        // terminates every interconnect the AS runs in a metro (remote IXP
        // sessions, local VPIs, cross-connects), as real border routers do.
        let metro = metro_override.unwrap_or(self.facilities[fac.index()].metro);
        let key = (idx, metro);
        if let Some(&r) = self.client_border.get(&key) {
            return r;
        }
        let reachable = cm_net::stablehash::chance(
            self.seed,
            &[0xB04D_u64, idx.0 as u64],
            self.cfg.client_public_reachable,
        );
        let router = self.new_router(
            idx,
            RouterRole::ClientBorder,
            metro,
            if metro_override.is_none() {
                Some(fac)
            } else {
                None
            },
            ResponseMode::Incoming,
            reachable,
        );
        self.maybe_make_fixed(router, idx);
        // Plumb toward the client's internal router (the downstream hop).
        let internal = self.ensure_client_internal(idx);
        let b_side = self.new_iface(router, None, IfaceKind::Internal);
        let in_addr = self
            .alloc_host_addr(idx)
            .unwrap_or_else(|| self.next_private_addr());
        let i_side = self.new_iface(internal, Some(in_addr), IfaceKind::Internal);
        let km = self
            .metros
            .distance_km(metro, self.ases[idx.index()].home_metro)
            .max(1.0);
        self.new_link(b_side, i_side, km);
        self.client_border.insert(key, router);
        router
    }

    /// The AS's single internal router at its home metro.
    fn ensure_client_internal(&mut self, idx: AsIndex) -> RouterId {
        if let Some(&r) = self.client_internal.get(&idx) {
            return r;
        }
        let home = self.ases[idx.index()].home_metro;
        let reachable = cm_net::stablehash::chance(
            self.seed,
            &[0xB04D_u64, idx.0 as u64],
            self.cfg.client_public_reachable,
        );
        let r = self.new_router(
            idx,
            RouterRole::ClientInternal,
            home,
            None,
            ResponseMode::Incoming,
            reachable,
        );
        self.maybe_make_fixed(r, idx);
        self.client_internal.insert(idx, r);
        r
    }

    fn create_cross_connect(
        &mut self,
        cloud: CloudId,
        peer: AsIndex,
        fac: FacilityId,
        announced: IcAnnouncement,
    ) -> IcId {
        let region = self.native_region[&(cloud, fac)];
        let cloud_router = self.cloud_border_router(cloud, fac, BorderClass::CrossConnect);
        let client_router = self.client_border_router(peer, fac, None);
        let cloud_provided = self.rng.gen_bool(self.cfg.cloud_provided_addr) && cloud.0 == 0;
        let (prefix, provider) = if cloud_provided {
            let main = self.clouds[cloud.index()].ases[0];
            (self.alloc_cloud_slash31(main), AddrProvider::Cloud)
        } else {
            let announced_space = self.rng.gen_bool(CLIENT_P2P_ANNOUNCED);
            (
                self.alloc_client_slash31(peer, announced_space),
                AddrProvider::Client,
            )
        };
        let mut hosts = prefix.hosts();
        // cm-lint: allow(L1_UNWRAP, a /31 always has exactly two hosts)
        let cloud_addr = hosts.next().unwrap();
        // cm-lint: allow(L1_UNWRAP, a /31 always has exactly two hosts)
        let client_addr = hosts.next().unwrap();
        let id = IcId(self.interconnects.len() as u32);
        let cloud_iface =
            self.new_iface(cloud_router, Some(cloud_addr), IfaceKind::Interconnect(id));
        let client_iface = self.new_iface(
            client_router,
            Some(client_addr),
            IfaceKind::Interconnect(id),
        );
        let metro = self.facilities[fac.index()].metro;
        self.interconnects.push(Interconnect {
            id,
            cloud,
            region,
            peer,
            kind: IcKind::CrossConnect,
            facility: fac,
            cloud_router,
            cloud_iface,
            client_router,
            client_iface,
            client_metro: metro,
            fabric_km: 0.05,
            addr_provider: provider,
            prefix,
            announced,
        });
        id
    }

    fn create_ixp_peering(
        &mut self,
        cloud: CloudId,
        peer: AsIndex,
        ixp: IxpId,
        remote: bool,
    ) -> IcId {
        let ixp_fac = self.ixps[ixp.index()].facilities[0];
        let ixp_metro = self.facilities[ixp_fac.index()].metro;
        // The cloud attaches to the fabric from one native facility per
        // fabric metro (large and multi-metro IXPs are joined at several
        // points; probes toward a member may then ingress at any of them).
        if !self.ixp_presence.contains_key(&(cloud, ixp)) {
            let mut hosts: Vec<FacilityId> = Vec::new();
            let metros = self.ixps[ixp.index()].metros.clone();
            for m in metros {
                let f = self.ixps[ixp.index()]
                    .facilities
                    .iter()
                    .copied()
                    .find(|&f| {
                        self.facilities[f.index()].metro == m
                            && self.native_region.contains_key(&(cloud, f))
                    })
                    .unwrap_or_else(|| self.nearest_native_facility(cloud, m));
                if !hosts.contains(&f) {
                    hosts.push(f);
                }
            }
            self.ixp_presence.insert((cloud, ixp), hosts);
        }
        let host_fac = self.ixp_presence[&(cloud, ixp)][0];
        let region = self.native_region[&(cloud, host_fac)];
        let cloud_router = self.cloud_border_router(cloud, host_fac, BorderClass::IxpFace);
        // One LAN port per (cloud router, IXP).
        let cloud_iface = self
            .ifaces
            .iter()
            .find(|f| f.router == cloud_router && f.kind == IfaceKind::IxpLan(ixp))
            .map(|f| f.id)
            .unwrap_or_else(|| {
                let addr = self.alloc_ixp_lan_addr(ixp);
                let f = self.new_iface(cloud_router, Some(addr), IfaceKind::IxpLan(ixp));
                let owner = self.routers[cloud_router.index()].owner;
                self.ixp_members.push((ixp, owner, f));
                f
            });
        // The member's router: local (at the IXP facility) or remote (at the
        // member's home metro, reached over a carrier).
        let home = self.ases[peer.index()].home_metro;
        let client_metro = if remote { home } else { ixp_metro };
        let client_router =
            self.client_border_router(peer, ixp_fac, remote.then_some(client_metro));
        let addr = self.alloc_ixp_lan_addr(ixp);
        let id = IcId(self.interconnects.len() as u32);
        let client_iface = self.new_iface(client_router, Some(addr), IfaceKind::IxpLan(ixp));
        self.ixp_members.push((ixp, peer, client_iface));
        let host_metro = self.facilities[host_fac.index()].metro;
        let backhaul_cloud = self.metros.distance_km(host_metro, ixp_metro);
        let backhaul_member = if remote {
            self.metros.distance_km(ixp_metro, client_metro)
        } else {
            0.0
        };
        self.interconnects.push(Interconnect {
            id,
            cloud,
            region,
            peer,
            kind: IcKind::PublicIxp(ixp),
            facility: host_fac,
            cloud_router,
            cloud_iface,
            client_router,
            client_iface,
            client_metro,
            fabric_km: 2.0 + backhaul_cloud + backhaul_member,
            addr_provider: AddrProvider::Ixp,
            prefix: self.ixps[ixp.index()].prefix,
            announced: IcAnnouncement::OwnPrefixes,
        });
        id
    }

    /// Creates a VPI. When `shared_port` is given, the new interconnect
    /// reuses that client interface (a multi-cloud port); otherwise a new
    /// port interface is created on the client's border router.
    fn create_vpi(
        &mut self,
        cloud: CloudId,
        peer: AsIndex,
        fac: FacilityId,
        remote: bool,
        announced: IcAnnouncement,
        shared_port: Option<IfaceId>,
    ) -> IfaceId {
        let region = self.native_region[&(cloud, fac)];
        let cloud_router = self.cloud_border_router(cloud, fac, BorderClass::DxGateway);
        let home = self.ases[peer.index()].home_metro;
        let fac_metro = self.facilities[fac.index()].metro;
        let client_metro = if remote { home } else { fac_metro };
        let client_router = match shared_port {
            Some(p) => self.ifaces[p.index()].router,
            None => self.client_border_router(peer, fac, remote.then_some(client_metro)),
        };
        let id = IcId(self.interconnects.len() as u32);

        let cloud_provided = cloud.0 == 0
            && self.rng.gen_bool(self.cfg.cloud_provided_addr)
            && shared_port.is_none();
        let (prefix, provider, cloud_addr, port_addr) = if cloud_provided {
            let main = self.clouds[cloud.index()].ases[0];
            let p = self.alloc_cloud_slash31(main);
            let mut h = p.hosts();
            // cm-lint: allow(L1_UNWRAP, a /31 always has exactly two hosts)
            (p, AddrProvider::Cloud, h.next().unwrap(), h.next().unwrap())
        } else {
            let announced_space = self.rng.gen_bool(CLIENT_P2P_ANNOUNCED);
            let p = self.alloc_client_slash31(peer, announced_space);
            let mut h = p.hosts();
            (
                p,
                AddrProvider::Client,
                // cm-lint: allow(L1_UNWRAP, a /31 always has exactly two hosts)
                h.next().unwrap(),
                // cm-lint: allow(L1_UNWRAP, a /31 always has exactly two hosts)
                h.next().unwrap(),
            )
        };
        let cloud_iface =
            self.new_iface(cloud_router, Some(cloud_addr), IfaceKind::Interconnect(id));
        let client_iface = match shared_port {
            Some(p) => p,
            None => self.new_iface(client_router, Some(port_addr), IfaceKind::Interconnect(id)),
        };
        // A shared port keeps the addressing of the interconnect it was
        // created for; record that provider rather than the unused /31.
        let provider = match shared_port {
            Some(p) => match self.ifaces[p.index()].kind {
                IfaceKind::Interconnect(orig) => self.interconnects[orig.index()].addr_provider,
                _ => provider,
            },
            None => provider,
        };
        let client_metro = self.routers[client_router.index()].metro;
        let backhaul = self.metros.distance_km(fac_metro, client_metro);
        self.interconnects.push(Interconnect {
            id,
            cloud,
            region,
            peer,
            kind: IcKind::Vpi { remote },
            facility: fac,
            cloud_router,
            cloud_iface,
            client_router,
            client_iface,
            client_metro,
            fabric_km: 1.0 + backhaul,
            addr_provider: provider,
            prefix,
            announced,
        });
        client_iface
    }

    // ================================================================ phase 7
    pub(super) fn build_extra_ixp_members(&mut self) {
        // Transit-descent interfaces: one per provider->customer edge, on the
        // customer's internal router.
        let edges: Vec<(AsIndex, AsIndex)> = self
            .ases
            .iter()
            .flat_map(|a| a.customers.iter().map(move |&c| (a.idx, c)))
            .collect();
        for (p, c) in edges {
            let internal = self.ensure_client_internal(c);
            let addr = self
                .alloc_host_addr(c)
                .unwrap_or_else(|| self.next_private_addr());
            let f = self.new_iface(internal, Some(addr), IfaceKind::Internal);
            self.transit_in_iface.insert((p, c), f);
        }

        // Extra IXP members that never peer with any cloud: they exist so
        // the IXP datasets and the minIXRTT probing see realistic LANs.
        let n_as = self.counts().total();
        for ix in 0..self.ixps.len() {
            let ixp = IxpId(ix as u32);
            let fac = self.ixps[ix].facilities[0];
            let metro = self.facilities[fac.index()].metro;
            let n_extra = 5 + self.rng.gen_range(0..9usize);
            for _ in 0..n_extra {
                let cand = AsIndex(self.rng.gen_range(0..n_as) as u32);
                if self
                    .ixp_members
                    .iter()
                    .any(|&(x, a, _)| x == ixp && a == cand)
                {
                    continue;
                }
                let remote = self.rng.gen_bool(self.cfg.remote_ixp_peering);
                let override_metro = remote.then(|| self.ases[cand.index()].home_metro);
                let _ = metro;
                let router = self.client_border_router(cand, fac, override_metro);
                let addr = self.alloc_ixp_lan_addr(ixp);
                let f = self.new_iface(router, Some(addr), IfaceKind::IxpLan(ixp));
                self.ixp_members.push((ixp, cand, f));
            }
        }
    }
}
