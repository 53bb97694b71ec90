//! The forwarding and ICMP-generation engine.

use crate::faults::FaultPlan;
use crate::packet::{Probe, ProbeKind, RespKind, Response, UnreachReason};
use crate::runtime::Runtime;
use crate::spt::{fnv, InternalGraph, SptCache};
use bdrmap_bgp::{OriginationId, RouteClass, RouteTree};
use bdrmap_topo::{ExportStrategy, IfaceKind, Internet, LinkKind, ResponsePolicy, SrcSelect};
use bdrmap_types::{Addr, Asn, IfaceId, LinkId, OrgId, RouterId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Hop budget: drop anything still in flight after this many routers.
const MAX_HOPS: usize = 128;

/// Per-hop processing/serialisation delay (µs).
const PER_HOP_US: u32 = 50;
/// Propagation delay per link-metric unit (µs); the metric is ten times
/// the inter-PoP geographic distance in degrees, so one degree of
/// great-circle distance costs ~0.5 ms one-way — the right order for
/// fibre.
const US_PER_METRIC: u32 = 50;

/// A diurnal congestion profile on one link (the phenomenon the
/// CAIDA/MIT congestion project probes for, §2 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct CongestionProfile {
    /// Peak queuing delay at the busiest point of the cycle (µs).
    pub peak_us: u32,
    /// Cycle length in milliseconds (a simulated "day").
    pub period_ms: u64,
}

impl CongestionProfile {
    /// Queuing delay at an instant: a half-rectified sinusoid — idle
    /// half the cycle, building to `peak_us` at the busy hour.
    pub fn delay_at(&self, time_ms: u64) -> u32 {
        let phase = (time_ms % self.period_ms) as f64 / self.period_ms as f64;
        let s = (std::f64::consts::TAU * phase).sin();
        if s <= 0.0 {
            0
        } else {
            (self.peak_us as f64 * s * s) as u32
        }
    }
}

/// One way out of an organisation toward a neighbor AS.
#[derive(Clone, Copy, Debug)]
struct EgressLink {
    /// The border router on our side.
    near: RouterId,
    /// Our interface on the link (source of RFC1812 responses).
    near_iface: IfaceId,
    /// The first router on the neighbor side.
    far: RouterId,
    /// The neighbor-side interface the packet arrives on.
    far_iface: IfaceId,
    /// Position in the deterministic ordering of this neighbor's
    /// sessions, consumed by [`ExportStrategy`].
    ordinal: u32,
    /// Longitude of the near PoP (Regional strategy).
    longitude_milli: i32,
    /// Underlying link.
    link: LinkId,
}

/// Cached egress link sets keyed by (organisation, neighbor AS).
type EgressCache = RwLock<HashMap<(OrgId, Asn), Arc<Vec<EgressLink>>>>;

/// One allowed way out in an egress plan: the link, and the neighbor AS
/// whose candidacy admitted it (the flow hash mixes its number in).
#[derive(Clone, Copy, Debug)]
struct PlannedLink {
    link: EgressLink,
    neighbor: Asn,
}

/// An organisation's egress decision toward one origination, up to the
/// two things that vary per hop: the IGP distance from the current
/// router to each link, and the flow hash that breaks ties.
enum Plan {
    /// The organisation originates the covering prefix and learned no
    /// external candidate: traffic leaves toward the AS that holds the
    /// destination, by the plan keyed on that AS.
    Fallback,
    /// The allowed egress links, candidate by candidate, each
    /// candidate's links in ordinal order; none if no member of the
    /// organisation has a route.
    Links(Box<[PlannedLink]>),
}

/// Which plan: an organisation's own toward an origination, or (with
/// `fallback_to`) its [`Plan::Fallback`] toward the AS holding the
/// destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    org: OrgId,
    origination: OriginationId,
    fallback_to: Option<Asn>,
}

/// What forwarding needs to know about a destination address, looked up
/// once per probe rather than once per hop.
#[derive(Clone, Copy)]
struct Dest {
    addr: Addr,
    /// The router the address is an interface of.
    router: Option<RouterId>,
    /// Where the address lives: `router`, else the router its covering
    /// subnet or prefix is homed at.
    home: Option<RouterId>,
    /// The origination covering the address.
    origination: Option<OriginationId>,
}

/// A VP address's return-path facts, computed once per data plane.
struct VpFacts {
    /// The router the VP hangs off.
    attach: RouterId,
    /// The VP address as a destination, for responses sourced toward
    /// the prober.
    dest: Dest,
    /// Routes toward the VP address's covering prefix: an AS can answer
    /// the VP only if it has one.
    tree: Option<Arc<RouteTree>>,
}

/// One probe in flight: the probe and its per-probe facts.
struct Walk<'a> {
    p: &'a Probe,
    vp: &'a VpFacts,
    dest: Dest,
}

/// Result of a single routing decision at a router.
enum Step {
    /// Hand the packet to `next`, arriving on `in_iface`; it left through
    /// `out_iface` on the current router.
    Forward {
        next: RouterId,
        in_iface: IfaceId,
        out_iface: IfaceId,
    },
    /// The destination does not exist beyond this router.
    Unreachable,
    /// No route at all; the packet is silently dropped.
    NoRoute,
}

/// The data-plane simulator. Cheap to share: all caches are interior.
///
/// # Examples
///
/// ```
/// use bdrmap_dataplane::{DataPlane, Probe, ProbeKind, RespKind};
/// use bdrmap_topo::{generate, TopoConfig};
///
/// let dp = DataPlane::new(generate(&TopoConfig::tiny(1)));
/// let vp = dp.internet().vps[0].addr;
/// let dst = dp.internet().origins.iter().next().unwrap().prefix.nth(1);
/// // A TTL-1 probe expires at the first hop.
/// let resp = dp
///     .probe(&Probe { src: vp, dst, ttl: 1, flow: 0, kind: ProbeKind::IcmpEcho, time_ms: 0 })
///     .unwrap();
/// assert_eq!(resp.kind, RespKind::TimeExceeded);
/// ```
pub struct DataPlane {
    net: Internet,
    oracle: bdrmap_bgp::RoutingOracle,
    spt: SptCache,
    runtime: Runtime,
    /// Return-path facts of each VP address.
    vps: HashMap<Addr, VpFacts>,
    /// Egress link sets keyed by (org of current AS, neighbor AS).
    egress_cache: EgressCache,
    /// Egress plans, each built on first use.
    plans: RwLock<HashMap<PlanKey, Arc<Plan>>>,
    /// Org membership for quick checks.
    org_of_as: Vec<OrgId>,
    /// Members of each organisation (usually one; the VP org may have
    /// siblings).
    org_members: HashMap<OrgId, Vec<Asn>>,
    /// Injected congestion per link.
    congestion: RwLock<HashMap<LinkId, CongestionProfile>>,
    /// Injected fault plan (loss, storms, flaps, reroutes).
    faults: RwLock<Arc<FaultPlan>>,
    /// Fast-path flag: false whenever the plan is a no-op, so unfaulted
    /// probes never take the `faults` lock.
    faults_active: AtomicBool,
}

impl DataPlane {
    /// Build the data plane over a generated Internet.
    pub fn new(net: Internet) -> DataPlane {
        let oracle = bdrmap_bgp::RoutingOracle::new(net.graph.clone(), net.origins.clone());
        let spt = SptCache::new(InternalGraph::build(&net));
        let org_of_as: Vec<OrgId> = (0..=net.graph.num_ases() as u32)
            .map(|a| {
                if a == 0 {
                    OrgId(u32::MAX)
                } else {
                    net.graph.org(Asn(a))
                }
            })
            .collect();
        let mut org_members: HashMap<OrgId, Vec<Asn>> = HashMap::new();
        for a in net.graph.ases() {
            org_members.entry(net.graph.org(a)).or_default().push(a);
        }
        let mut dp = DataPlane {
            net,
            oracle,
            spt,
            runtime: Runtime::new(),
            vps: HashMap::new(),
            egress_cache: RwLock::new(HashMap::new()),
            plans: RwLock::new(HashMap::new()),
            org_of_as,
            org_members,
            congestion: RwLock::new(HashMap::new()),
            faults: RwLock::new(Arc::new(FaultPlan::none())),
            faults_active: AtomicBool::new(false),
        };
        dp.vps = dp
            .net
            .vps
            .iter()
            .map(|v| {
                let facts = VpFacts {
                    attach: v.attach,
                    dest: dp.dest(v.addr),
                    tree: dp.oracle.route_tree_for(v.addr).map(|(_, t)| t),
                };
                (v.addr, facts)
            })
            .collect();
        dp
    }

    /// Install a fault plan. A no-op plan (all rates zero) disables the
    /// fault layer entirely, restoring bit-for-bit unfaulted behaviour.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.faults_active.store(!plan.is_noop(), Ordering::Release);
        *self.faults.write() = Arc::new(plan);
    }

    /// Remove any injected faults.
    pub fn clear_faults(&self) {
        self.set_faults(FaultPlan::none());
    }

    /// The currently installed fault plan (inert by default).
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.faults.read())
    }

    /// The plan, but only when it can actually change an outcome.
    fn active_faults(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_active.load(Ordering::Acquire) {
            return None;
        }
        Some(Arc::clone(&self.faults.read()))
    }

    /// Snapshot the mutable router state (IPID counters, rate-limit
    /// tallies) so a checkpointed probing run can be resumed without
    /// diverging from an uninterrupted one.
    pub fn runtime_snapshot(&self) -> crate::runtime::RuntimeSnapshot {
        self.runtime.snapshot()
    }

    /// Restore router state captured by
    /// [`runtime_snapshot`](Self::runtime_snapshot).
    pub fn restore_runtime(&self, snap: &crate::runtime::RuntimeSnapshot) {
        self.runtime.restore(snap);
    }

    /// Inject a diurnal congestion profile on a link (evaluation-side
    /// ground truth for the congestion-detection application).
    pub fn congest(&self, link: LinkId, profile: CongestionProfile) {
        self.congestion.write().insert(link, profile);
    }

    /// Remove all injected congestion.
    pub fn clear_congestion(&self) {
        self.congestion.write().clear();
    }

    fn queue_delay(&self, link: LinkId, time_ms: u64) -> u32 {
        self.congestion
            .read()
            .get(&link)
            .map_or(0, |c| c.delay_at(time_ms))
    }

    /// The ground truth (for evaluation only — the probing and inference
    /// layers must not look at it).
    pub fn internet(&self) -> &Internet {
        &self.net
    }

    /// The routing oracle (shared with collector-view assembly).
    pub fn oracle(&self) -> &bdrmap_bgp::RoutingOracle {
        &self.oracle
    }

    fn org(&self, a: Asn) -> OrgId {
        self.org_of_as[a.0 as usize]
    }

    fn router_org(&self, r: RouterId) -> OrgId {
        self.org(self.net.routers[r.index()].owner)
    }

    /// The per-probe facts of a destination address.
    fn dest(&self, addr: Addr) -> Dest {
        let router = self.net.router_of_addr(addr);
        Dest {
            addr,
            router,
            home: router.or_else(|| self.net.dest_home.lookup(addr).map(|(_, &r)| r)),
            origination: self.oracle.origins().lookup_id(addr).map(|(id, _)| id),
        }
    }

    // ------------------------------------------------------------ egress

    /// All ways out of `org` into neighbor AS `n`, ordinal-ordered.
    fn egress_links(&self, org: OrgId, n: Asn) -> Arc<Vec<EgressLink>> {
        if let Some(v) = self.egress_cache.read().get(&(org, n)) {
            return Arc::clone(v);
        }
        let mut out = Vec::new();
        for l in &self.net.links {
            match l.kind {
                LinkKind::Interdomain { .. } => {
                    let i0 = &self.net.ifaces[l.ifaces[0].index()];
                    let i1 = &self.net.ifaces[l.ifaces[1].index()];
                    let o0 = self.net.routers[i0.router.index()].owner;
                    let o1 = self.net.routers[i1.router.index()].owner;
                    let (near, far) = if self.org(o0) == org && o1 == n {
                        (i0, i1)
                    } else if self.org(o1) == org && o0 == n {
                        (i1, i0)
                    } else {
                        continue;
                    };
                    let pop = self.net.routers[near.router.index()].pop;
                    out.push(EgressLink {
                        near: near.router,
                        near_iface: near.id,
                        far: far.router,
                        far_iface: far.id,
                        ordinal: 0, // assigned below
                        longitude_milli: (self.net.pops[pop.index()].longitude * 1000.0) as i32,
                        link: l.id,
                    });
                }
                LinkKind::IxpLan { .. } => {
                    // Crossing a shared LAN: any of our ports to any of the
                    // neighbor's ports (route-server peering).
                    let ours: Vec<&bdrmap_topo::Iface> = l
                        .ifaces
                        .iter()
                        .map(|i| &self.net.ifaces[i.index()])
                        .filter(|i| self.router_org(i.router) == org)
                        .collect();
                    let theirs: Vec<&bdrmap_topo::Iface> = l
                        .ifaces
                        .iter()
                        .map(|i| &self.net.ifaces[i.index()])
                        .filter(|i| self.net.routers[i.router.index()].owner == n)
                        .collect();
                    for o in &ours {
                        for t in &theirs {
                            let pop = self.net.routers[o.router.index()].pop;
                            out.push(EgressLink {
                                near: o.router,
                                near_iface: o.id,
                                far: t.router,
                                far_iface: t.id,
                                ordinal: 0,
                                longitude_milli: (self.net.pops[pop.index()].longitude * 1000.0)
                                    as i32,
                                link: l.id,
                            });
                        }
                    }
                }
                LinkKind::Internal => {}
            }
        }
        // Deterministic ordinal assignment: sort by link id.
        out.sort_by_key(|e| (e.link, e.near_iface));
        for (i, e) in out.iter_mut().enumerate() {
            e.ordinal = i as u32;
        }
        let arc = Arc::new(out);
        self.egress_cache.write().insert((org, n), Arc::clone(&arc));
        arc
    }

    /// Does the neighbor's export strategy place `prefix` on session
    /// `ordinal` (out of `total`)?
    fn strategy_allows(
        &self,
        strategy: ExportStrategy,
        prefix: bdrmap_types::Prefix,
        e: &EgressLink,
        total: u32,
        median_longitude: i32,
    ) -> bool {
        if total <= 1 {
            return true;
        }
        let pbits = u32::from(prefix.network());
        match strategy {
            ExportStrategy::Everywhere => true,
            ExportStrategy::Subset { percent } => {
                // Guarantee at least one session: the anchor session is
                // always eligible.
                let anchor = fnv(&[pbits, prefix.len() as u32]) % total as u64;
                e.ordinal as u64 == anchor
                    || fnv(&[pbits, prefix.len() as u32, e.ordinal]) % 100 < percent as u64
            }
            ExportStrategy::Anchored => {
                // Consecutive prefixes rotate across sessions, so every
                // interconnection carries some prefix once the CDN
                // announces at least `total` prefixes — which is what
                // lets a single VP discover all of Akamai's links in
                // Figure 15.
                (pbits >> 8) % total == e.ordinal
            }
            ExportStrategy::Regional => {
                let west = fnv(&[pbits, prefix.len() as u32]).is_multiple_of(2);
                if west {
                    e.longitude_milli <= median_longitude
                } else {
                    e.longitude_milli > median_longitude
                }
            }
        }
    }

    /// The plan under `key`, built on first use.
    fn plan(&self, key: PlanKey) -> Arc<Plan> {
        if let Some(p) = self.plans.read().get(&key) {
            return Arc::clone(p);
        }
        let plan = Arc::new(match key.fallback_to {
            None => self.build_plan(key.org, key.origination),
            Some(n) => self.plan_links(key.org, &[n], key.origination),
        });
        Arc::clone(self.plans.write().entry(key).or_insert(plan))
    }

    /// Organisation `org`'s egress plan toward an origination: the
    /// union of BGP-multipath-tied next-hop ASes of every AS in the
    /// organisation (iBGP across siblings), each narrowed to the links
    /// its export strategy places the prefix on.
    fn build_plan(&self, org: OrgId, id: OriginationId) -> Plan {
        let tree = self.oracle.tree(id);
        // The org's members share routes; collect the union of their
        // externally-learned candidates. Same-org "next hops" (a sibling
        // taking transit from its parent AS) are internal, not egress.
        let mut candidates: Vec<Asn> = Vec::new();
        let mut best: Option<bdrmap_bgp::BestRoute> = None;
        for &m in &self.org_members[&org] {
            let Some(r) = tree.route(m) else { continue };
            if best.is_none() {
                best = Some(r);
            }
            if r.class == RouteClass::Origin {
                continue;
            }
            for n in self.oracle.tied_next_hops_of(m, id) {
                if self.org(n) != org && !candidates.contains(&n) {
                    candidates.push(n);
                }
            }
        }
        let Some(best) = best else {
            return Plan::Links(Box::new([]));
        };
        if best.class == RouteClass::Origin && candidates.is_empty() {
            // The org announces the covering prefix but the address
            // physically lives elsewhere (PA space, neighbor link
            // subnets): fall back to a direct link toward the AS that
            // has it.
            return Plan::Fallback;
        }
        if candidates.is_empty() {
            if let Some(nh) = best.next_hop {
                if self.org(nh) != org {
                    candidates.push(nh);
                }
            }
        }
        self.plan_links(org, &candidates, id)
    }

    /// The links out of `org` toward each candidate AS, in candidate
    /// order, that the candidate's export strategy allows for the
    /// origination's prefix.
    fn plan_links(&self, org: OrgId, candidates: &[Asn], id: OriginationId) -> Plan {
        let prefix = self.oracle.origins().by_id(id).prefix;
        let mut out = Vec::new();
        for &n in candidates {
            let links = self.egress_links(org, n);
            if links.is_empty() {
                continue;
            }
            let total = links.len() as u32;
            let median = {
                let mut lons: Vec<i32> = links.iter().map(|e| e.longitude_milli).collect();
                lons.sort_unstable();
                lons[lons.len() / 2]
            };
            let strategy = self.net.as_info(n).export;
            out.extend(
                links
                    .iter()
                    .filter(|e| self.strategy_allows(strategy, prefix, e, total, median))
                    .map(|&link| PlannedLink { link, neighbor: n }),
            );
        }
        Plan::Links(out.into_boxed_slice())
    }

    /// Pick the hot-potato egress toward `dest` from router `cur`: the
    /// planned link nearest `cur` by IGP distance, ties broken by a
    /// flow-stable hash.
    fn pick_egress(&self, cur: RouterId, dest: &Dest, flow: u16) -> Option<EgressLink> {
        let key = PlanKey {
            org: self.router_org(cur),
            origination: dest.origination?,
            fallback_to: None,
        };
        let mut plan = self.plan(key);
        if let Plan::Fallback = *plan {
            let t = dest.home?;
            plan = self.plan(PlanKey {
                fallback_to: Some(self.net.routers[t.index()].owner),
                ..key
            });
        }
        let Plan::Links(links) = &*plan else {
            return None;
        };
        let mut best_choice: Option<(u64, EgressLink)> = None;
        for pl in links.iter() {
            let d = self.spt.tree(pl.link.near).dist(cur);
            if d == u32::MAX {
                continue;
            }
            // Hot potato first, then a deterministic flow-stable
            // shuffle among equal distances.
            let key = ((d as u64) << 32)
                | (fnv(&[pl.link.link.0, flow as u32, pl.neighbor.0]) & 0xffff_ffff);
            if best_choice.as_ref().is_none_or(|(k, _)| key < *k) {
                best_choice = Some((key, pl.link));
            }
        }
        best_choice.map(|(_, e)| e)
    }

    // ----------------------------------------------------------- routing

    /// One routing decision: where does `cur` send a packet for `dest`?
    fn route_step(&self, cur: RouterId, dest: &Dest, flow: u16) -> Step {
        let dst = dest.addr;
        let cur_org = self.router_org(cur);
        // (a) Directly attached subnet?
        for &ifc_id in &self.net.routers[cur.index()].ifaces {
            let ifc = &self.net.ifaces[ifc_id.index()];
            let Some(link_id) = ifc.link else { continue };
            let link = &self.net.links[link_id.index()];
            if !link.subnet.contains(dst) {
                continue;
            }
            // Deliver to the attached neighbor owning dst, if any.
            if let Some(peer) = link
                .ifaces
                .iter()
                .map(|i| &self.net.ifaces[i.index()])
                .find(|i| i.addr == dst && i.router != cur)
            {
                return Step::Forward {
                    next: peer.router,
                    in_iface: peer.id,
                    out_iface: ifc_id,
                };
            }
            if dest.router == Some(cur) {
                // Shouldn't happen (local delivery is handled earlier),
                // but be safe.
                return Step::Unreachable;
            }
            // An unused address on a directly attached subnet: nobody
            // home. Only conclude this for point-to-point subnets; a
            // larger covering aggregate can still route elsewhere.
            if link.subnet.len() >= 24 {
                return Step::Unreachable;
            }
        }
        // (b) Internal target?
        if let Some(target) = dest.home {
            if self.router_org(target) == cur_org {
                if target == cur {
                    return Step::Unreachable; // homed here, host absent
                }
                let t = self.spt.tree(target);
                if let Some(next) = t.next_hop(cur, flow) {
                    let (out_iface, in_iface) = match self.internal_ifaces(cur, next) {
                        Some(x) => x,
                        None => return Step::NoRoute,
                    };
                    return Step::Forward {
                        next,
                        in_iface,
                        out_iface,
                    };
                }
                return Step::NoRoute;
            }
        }
        // (c) Interdomain forwarding.
        let Some(e) = self.pick_egress(cur, dest, flow) else {
            return Step::NoRoute;
        };
        if e.near == cur {
            return Step::Forward {
                next: e.far,
                in_iface: e.far_iface,
                out_iface: e.near_iface,
            };
        }
        let t = self.spt.tree(e.near);
        if let Some(next) = t.next_hop(cur, flow) {
            if let Some((out_iface, in_iface)) = self.internal_ifaces(cur, next) {
                return Step::Forward {
                    next,
                    in_iface,
                    out_iface,
                };
            }
        }
        Step::NoRoute
    }

    /// The pair of interfaces joining two internally adjacent routers,
    /// flow-independent and deterministic (first matching internal link).
    fn internal_ifaces(&self, a: RouterId, b: RouterId) -> Option<(IfaceId, IfaceId)> {
        for &ifc_id in &self.net.routers[a.index()].ifaces {
            let ifc = &self.net.ifaces[ifc_id.index()];
            let Some(link_id) = ifc.link else { continue };
            let link = &self.net.links[link_id.index()];
            if link.kind != LinkKind::Internal {
                continue;
            }
            if let Some(other) = link
                .ifaces
                .iter()
                .map(|i| &self.net.ifaces[i.index()])
                .find(|i| i.router == b)
            {
                return Some((ifc_id, other.id));
            }
        }
        None
    }

    // --------------------------------------------------------- responses

    /// The loopback (first) interface address of a router.
    fn loopback(&self, r: RouterId) -> Option<Addr> {
        self.net.routers[r.index()]
            .ifaces
            .iter()
            .map(|i| &self.net.ifaces[i.index()])
            .find(|i| i.kind == IfaceKind::Loopback)
            .map(|i| i.addr)
    }

    /// Any source address for a router (loopback, else first interface).
    fn any_addr(&self, r: RouterId) -> Option<Addr> {
        self.loopback(r).or_else(|| {
            self.net.routers[r.index()]
                .ifaces
                .first()
                .map(|i| self.net.ifaces[i.index()].addr)
        })
    }

    /// Can `r`'s network route a response back to the prober?
    fn can_respond_to(&self, r: RouterId, prober: &VpFacts) -> bool {
        if let Some(t) = prober.dest.home {
            if self.router_org(t) == self.router_org(r) {
                return true;
            }
        }
        let owner = self.net.routers[r.index()].owner;
        prober
            .tree
            .as_ref()
            .is_some_and(|t| t.route(owner).is_some())
    }

    /// Choose the source address of a time-exceeded response per the
    /// router's [`SrcSelect`] behaviour.
    fn te_source(&self, r: RouterId, inbound: Option<IfaceId>, w: &Walk) -> Option<Addr> {
        let fallback = || {
            inbound
                .map(|i| self.net.ifaces[i.index()].addr)
                .or_else(|| self.any_addr(r))
        };
        match self.net.routers[r.index()].src_select {
            SrcSelect::Inbound => fallback(),
            SrcSelect::TowardProber => match self.route_step(r, &w.vp.dest, w.p.flow) {
                Step::Forward { out_iface, .. } => Some(self.net.ifaces[out_iface.index()].addr),
                _ => fallback(),
            },
            SrcSelect::TowardDest => match self.route_step(r, &w.dest, w.p.flow) {
                Step::Forward { out_iface, .. } => Some(self.net.ifaces[out_iface.index()].addr),
                _ => fallback(),
            },
        }
    }

    /// Build a TTL-expired response at router `r`, or `None` if policy or
    /// reachability suppresses it.
    fn ttl_expired(
        &self,
        rt: &Runtime,
        r: RouterId,
        inbound: Option<IfaceId>,
        w: &Walk,
        fwd_us: u32,
    ) -> Option<Response> {
        let p = w.p;
        let policy = self.net.routers[r.index()].policy;
        match policy {
            ResponsePolicy::Silent | ResponsePolicy::EchoOtherIcmp => return None,
            ResponsePolicy::RateLimited { period } => {
                if !rt.rate_limit_allows(r, period) {
                    return None;
                }
            }
            ResponsePolicy::Normal | ResponsePolicy::Firewall => {}
        }
        if !self.can_respond_to(r, w.vp) {
            return None;
        }
        let src = self.te_source(r, inbound, w)?;
        let ipid = rt.ipid(&self.net, r, src, p.time_ms);
        Some(Response {
            src,
            kind: RespKind::TimeExceeded,
            ipid,
            rtt_us: 2 * fwd_us + PER_HOP_US,
        })
    }

    /// Build the response for a probe delivered to one of `r`'s own
    /// addresses.
    fn delivered(&self, rt: &Runtime, r: RouterId, w: &Walk, fwd_us: u32) -> Option<Response> {
        let p = w.p;
        let rtt_us = 2 * fwd_us + PER_HOP_US;
        let router = &self.net.routers[r.index()];
        if router.policy == ResponsePolicy::Silent {
            return None;
        }
        if !self.can_respond_to(r, w.vp) {
            return None;
        }
        match p.kind {
            ProbeKind::IcmpEcho => {
                // Echo replies are sourced from the probed address — which
                // is why bdrmap refuses to locate interfaces with them
                // (§4 challenge 2).
                let ipid = rt.ipid(&self.net, r, p.dst, p.time_ms);
                Some(Response {
                    src: p.dst,
                    kind: RespKind::EchoReply,
                    ipid,
                    rtt_us,
                })
            }
            ProbeKind::Udp => match router.unreach_src {
                bdrmap_topo::UnreachSrc::Canonical => {
                    let src = self.any_addr(r)?;
                    let ipid = rt.ipid(&self.net, r, src, p.time_ms);
                    Some(Response {
                        src,
                        kind: RespKind::DestUnreach(UnreachReason::Port),
                        ipid,
                        rtt_us,
                    })
                }
                bdrmap_topo::UnreachSrc::Probed => {
                    let ipid = rt.ipid(&self.net, r, p.dst, p.time_ms);
                    Some(Response {
                        src: p.dst,
                        kind: RespKind::DestUnreach(UnreachReason::Port),
                        ipid,
                        rtt_us,
                    })
                }
                bdrmap_topo::UnreachSrc::None => None,
            },
            ProbeKind::TcpAck => {
                let ipid = rt.ipid(&self.net, r, p.dst, p.time_ms);
                Some(Response {
                    src: p.dst,
                    kind: RespKind::TcpRst,
                    ipid,
                    rtt_us,
                })
            }
        }
    }

    /// Response when the packet hit a dead end at `r` (host absent).
    fn unreachable(
        &self,
        rt: &Runtime,
        r: RouterId,
        inbound: Option<IfaceId>,
        w: &Walk,
        fwd_us: u32,
    ) -> Option<Response> {
        let p = w.p;
        let policy = self.net.routers[r.index()].policy;
        if !policy.sends_ttl_expired() {
            return None;
        }
        if !self.can_respond_to(r, w.vp) {
            return None;
        }
        let src = self.te_source(r, inbound, w)?;
        let ipid = rt.ipid(&self.net, r, src, p.time_ms);
        let reason = match p.kind {
            ProbeKind::Udp => UnreachReason::Port,
            _ => UnreachReason::Host,
        };
        Some(Response {
            src,
            kind: RespKind::DestUnreach(reason),
            ipid,
            rtt_us: 2 * fwd_us + PER_HOP_US,
        })
    }

    /// Response when a firewalling edge router discards a transiting
    /// probe.
    fn firewalled(&self, rt: &Runtime, r: RouterId, w: &Walk, fwd_us: u32) -> Option<Response> {
        let p = w.p;
        match self.net.routers[r.index()].policy {
            ResponsePolicy::EchoOtherIcmp => {
                if !self.can_respond_to(r, w.vp) {
                    return None;
                }
                // Responds from its own (announced) address space — the
                // heuristic-8.2 signal.
                let src = self.any_addr(r)?;
                let ipid = rt.ipid(&self.net, r, src, p.time_ms);
                Some(Response {
                    src,
                    kind: RespKind::DestUnreach(UnreachReason::AdminFiltered),
                    ipid,
                    rtt_us: 2 * fwd_us + PER_HOP_US,
                })
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------- probe

    /// Send one probe and collect the response, if any.
    ///
    /// Returns `None` when the probe or its response is lost: dropped by
    /// a firewall, suppressed by policy or rate limiting, unroutable,
    /// the responder has no route back to the prober — or, when a
    /// [`FaultPlan`] is installed, lost to injected faults.
    pub fn probe(&self, p: &Probe) -> Option<Response> {
        self.probe_with(p, &self.runtime)
    }

    /// Send one probe against an explicit [`Runtime`] instead of the
    /// plane's shared one.
    ///
    /// The topology, routing, congestion, and fault state are all still
    /// the plane's; only the mutable counter state (IPID counters, rate
    /// limiting) comes from `rt`. A caller that gives each measurement
    /// its own fresh `Runtime` gets responses that are a pure function
    /// of the probe stream it sends — the isolation the parallel alias
    /// engine relies on for byte-identical results at any parallelism.
    pub fn probe_with(&self, p: &Probe, rt: &Runtime) -> Option<Response> {
        let faults = self.active_faults();
        let faults = faults.as_deref();
        let resp = self.probe_inner(rt, p, faults)?;
        // Return-path loss hits every response kind uniformly.
        if faults.is_some_and(|f| f.drops_response(p)) {
            return None;
        }
        Some(resp)
    }

    /// Forward a probe hop by hop and build the response at its end.
    fn probe_inner(&self, rt: &Runtime, p: &Probe, faults: Option<&FaultPlan>) -> Option<Response> {
        let vp = self.vps.get(&p.src)?;
        let w = Walk {
            p,
            vp,
            dest: self.dest(p.dst),
        };
        let mut cur = vp.attach;
        let mut inbound: Option<IfaceId> = None;
        let mut ttl = p.ttl;
        let mut fwd_us: u32 = 0;
        // Reroute epochs re-salt the per-flow hash mid-run, shifting
        // ECMP and hot-potato tie-breaks the way IGP events do. The
        // salt is zero in epoch 0 and whenever reroutes are disabled.
        let flow = match faults {
            Some(f) => p.flow ^ f.flow_salt(p.time_ms),
            None => p.flow,
        };
        for _ in 0..MAX_HOPS {
            // Local delivery beats everything.
            if w.dest.router == Some(cur) {
                return self.delivered(rt, cur, &w, fwd_us);
            }
            // TTL check-and-decrement on arrival.
            ttl = ttl.saturating_sub(1);
            if ttl == 0 {
                // A storming router's control plane generates no error
                // ICMP during its burst window.
                if faults.is_some_and(|f| f.storm_suppresses(cur, p.time_ms)) {
                    return None;
                }
                return self.ttl_expired(rt, cur, inbound, &w, fwd_us);
            }
            // Edge firewalls discard transit traffic.
            let policy = self.net.routers[cur.index()].policy;
            if policy.firewalls_transit() && inbound.is_some() {
                // The firewall applies at the edge of its network: only
                // once the packet tries to go *through* this router.
                if faults.is_some_and(|f| f.storm_suppresses(cur, p.time_ms)) {
                    return None;
                }
                return self.firewalled(rt, cur, &w, fwd_us);
            }
            match self.route_step(cur, &w.dest, flow) {
                Step::Forward {
                    next,
                    in_iface,
                    out_iface,
                } => {
                    // Accumulate propagation + any queuing on the link.
                    if let Some(link) = self.net.ifaces[out_iface.index()].link {
                        // Forward-path faults: flap down-windows and
                        // stochastic per-link loss.
                        if faults.is_some_and(|f| f.drops_probe(link, p)) {
                            return None;
                        }
                        let metric = self.net.links[link.index()].metric;
                        fwd_us = fwd_us
                            .saturating_add(metric.saturating_mul(US_PER_METRIC))
                            .saturating_add(PER_HOP_US)
                            .saturating_add(self.queue_delay(link, p.time_ms));
                    }
                    cur = next;
                    inbound = Some(in_iface);
                }
                Step::Unreachable => {
                    if faults.is_some_and(|f| f.storm_suppresses(cur, p.time_ms)) {
                        return None;
                    }
                    return self.unreachable(rt, cur, inbound, &w, fwd_us);
                }
                Step::NoRoute => return None,
            }
        }
        debug_assert!(false, "forwarding loop for {}", p.dst);
        None
    }

    /// The attach router of a VP address (for tests and evaluation).
    pub fn vp_attach(&self, vp_addr: Addr) -> Option<RouterId> {
        self.vps.get(&vp_addr).map(|v| v.attach)
    }

    /// The planned egress from `cur` toward `dst` on `flow`, as (near
    /// router, near iface, far router, far iface, link).
    #[cfg(test)]
    pub(crate) fn egress_for(
        &self,
        cur: RouterId,
        dst: Addr,
        flow: u16,
    ) -> Option<(RouterId, IfaceId, RouterId, IfaceId, LinkId)> {
        self.pick_egress(cur, &self.dest(dst), flow)
            .map(|e| (e.near, e.near_iface, e.far, e.far_iface, e.link))
    }

    /// What the plans built so far cover.
    #[cfg(test)]
    pub(crate) fn plan_census(&self) -> PlanCensus {
        let mut c = PlanCensus::default();
        for (key, plan) in self.plans.read().iter() {
            if self.org_members[&key.org].len() > 1 {
                c.sibling_org += 1;
            }
            if key.fallback_to.is_some() {
                c.fallback += 1;
            }
            let Plan::Links(links) = &**plan else {
                continue;
            };
            for pl in links.iter() {
                if matches!(
                    self.net.links[pl.link.link.index()].kind,
                    LinkKind::IxpLan { .. }
                ) {
                    c.ixp_lan += 1;
                }
                // A strategy decides something only among parallel links.
                if self.egress_links(key.org, pl.neighbor).len() > 1 {
                    match self.net.as_info(pl.neighbor).export {
                        ExportStrategy::Everywhere => c.everywhere += 1,
                        ExportStrategy::Subset { .. } => c.subset += 1,
                        ExportStrategy::Anchored => c.anchored += 1,
                        ExportStrategy::Regional => c.regional += 1,
                    }
                }
            }
        }
        c
    }
}

/// Counts over the egress plans a data plane has built: planned links
/// chosen among parallel links by each export strategy, planned links
/// across an IXP LAN, plans of multi-AS organisations, and fallback
/// plans.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct PlanCensus {
    pub everywhere: usize,
    pub subset: usize,
    pub anchored: usize,
    pub regional: usize,
    pub ixp_lan: usize,
    pub sibling_org: usize,
    pub fallback: usize,
}
