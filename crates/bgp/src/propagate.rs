//! Valley-free route propagation.
//!
//! Given the AS graph and an origination, compute for every AS its best
//! route under the standard Gao–Rexford policy model:
//!
//! 1. prefer routes learned from customers over peers over providers;
//! 2. among equals, prefer the shortest AS path;
//! 3. break remaining ties on the lowest next-hop ASN (deterministic).
//!
//! Export follows valley-free rules: an AS exports its best route to its
//! customers always, but exports to peers and providers only routes it
//! originated or learned from a customer.
//!
//! Results are shared per *origination key* — (origin set, neighbor
//! filter) — because every prefix announced the same way by the same
//! origin propagates identically. This keeps the memory cost proportional
//! to the number of ASes rather than (ASes × prefixes). The oracle maps
//! each origination of its table to its key's slot once, when it is
//! built, and propagates a slot's tree on first use.

use crate::graph::AsGraph;
use crate::origin::{OriginTable, Origination, OriginationId};
use bdrmap_types::{Asn, Prefix, Relationship};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// How an AS's best route for a prefix was learned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// This AS originates the prefix.
    Origin,
    /// Learned from a customer.
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

impl RouteClass {
    fn rank(self) -> u8 {
        match self {
            RouteClass::Origin => 0,
            RouteClass::Customer => 1,
            RouteClass::Peer => 2,
            RouteClass::Provider => 3,
        }
    }

    /// May a route of this class be exported to a neighbor in role `to`?
    fn exportable_to(self, to: Relationship) -> bool {
        match self {
            RouteClass::Origin | RouteClass::Customer => true,
            RouteClass::Peer | RouteClass::Provider => to == Relationship::Customer,
        }
    }
}

/// An AS's best route toward an origination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BestRoute {
    /// The neighbor AS the route was learned from (`None` at the origin).
    pub next_hop: Option<Asn>,
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length (origin = 0).
    pub path_len: u8,
    /// The origin the path leads to (relevant for MOAS prefixes).
    pub origin: Asn,
}

/// Per-origination propagation result: best route for every AS, indexed
/// by ASN.
#[derive(Clone, Debug)]
pub struct RouteTree {
    routes: Vec<Option<BestRoute>>,
}

impl RouteTree {
    /// Best route of `a`, if it has one.
    pub fn route(&self, a: Asn) -> Option<BestRoute> {
        self.routes.get(a.0 as usize).copied().flatten()
    }

    /// Reconstruct the AS path from `a` to the origin (inclusive on both
    /// ends, `a` first). `None` if `a` has no route.
    pub fn as_path(&self, a: Asn) -> Option<Vec<Asn>> {
        let mut path = vec![a];
        let mut cur = self.route(a)?;
        while let Some(nh) = cur.next_hop {
            path.push(nh);
            cur = self.route(nh).expect("next hop must have a route");
            // Defensive bound: AS paths can't exceed the AS count.
            if path.len() > self.routes.len() {
                panic!("next-hop cycle in route tree");
            }
        }
        Some(path)
    }

    /// Number of ASes that have a route.
    pub fn reachable_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }
}

/// Key identifying a propagation result that prefixes can share.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct OriginationKey {
    origins: Vec<Asn>,
    filter: Option<Vec<Asn>>,
}

fn key_of(o: &Origination) -> OriginationKey {
    let mut origins = o.origins.clone();
    origins.sort_unstable();
    OriginationKey {
        origins,
        filter: o.scope.neighbor_filter(),
    }
}

/// The routing oracle: answers "what is AS X's best route toward address
/// d?" for the data plane, and exposes route trees for collector views.
///
/// # Examples
///
/// ```
/// use bdrmap_bgp::{AsGraph, OriginTable, RouteClass, RoutingOracle};
/// use bdrmap_types::Relationship;
///
/// // provider ← customer chain: 1 is 2's provider; 2 originates a /16.
/// let mut g = AsGraph::new();
/// let provider = g.add_as();
/// let customer = g.add_as();
/// g.add_link(provider, customer, Relationship::Customer);
/// let mut origins = OriginTable::new();
/// origins.announce("10.2.0.0/16".parse().unwrap(), customer);
///
/// let oracle = RoutingOracle::new(g, origins);
/// let (prefix, route) = oracle
///     .best_route(provider, "10.2.3.4".parse().unwrap())
///     .unwrap();
/// assert_eq!(prefix.to_string(), "10.2.0.0/16");
/// assert_eq!(route.class, RouteClass::Customer);
/// assert_eq!(route.next_hop, Some(customer));
/// ```
pub struct RoutingOracle {
    graph: AsGraph,
    origins: OriginTable,
    /// Route-tree slot of each origination, by [`OriginationId`].
    slot_of: Box<[u32]>,
    /// The key of each slot.
    keys: Box<[OriginationKey]>,
    /// The slot of each key.
    slot_by_key: HashMap<OriginationKey, u32>,
    /// Each slot's tree, propagated on first use.
    trees: Box<[OnceLock<Arc<RouteTree>>]>,
}

impl RoutingOracle {
    /// Build an oracle over a graph and origination table.
    ///
    /// # Panics
    /// Panics if the provider→customer relation contains a cycle, because
    /// propagation would then be ill-defined.
    pub fn new(graph: AsGraph, origins: OriginTable) -> RoutingOracle {
        assert!(
            graph.provider_customer_acyclic(),
            "provider-customer cycle in AS graph"
        );
        let mut keys = Vec::new();
        let mut slot_by_key = HashMap::new();
        let slot_of = (0..origins.len() as u32)
            .map(|i| {
                let key = key_of(origins.by_id(OriginationId(i)));
                *slot_by_key.entry(key).or_insert_with_key(|key| {
                    keys.push(key.clone());
                    keys.len() as u32 - 1
                })
            })
            .collect();
        RoutingOracle {
            graph,
            origins,
            slot_of,
            trees: (0..keys.len()).map(|_| OnceLock::new()).collect(),
            keys: keys.into_boxed_slice(),
            slot_by_key,
        }
    }

    /// The underlying AS graph (ground truth).
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The origination table.
    pub fn origins(&self) -> &OriginTable {
        &self.origins
    }

    fn slot_tree(&self, slot: u32) -> &Arc<RouteTree> {
        self.trees[slot as usize]
            .get_or_init(|| Arc::new(self.propagate(&self.keys[slot as usize])))
    }

    /// The route tree for an origination. Originations of the oracle's
    /// table share their key's tree; any other is propagated afresh on
    /// every call.
    pub fn route_tree(&self, o: &Origination) -> Arc<RouteTree> {
        let key = key_of(o);
        match self.slot_by_key.get(&key) {
            Some(&slot) => Arc::clone(self.slot_tree(slot)),
            None => Arc::new(self.propagate(&key)),
        }
    }

    /// The route tree for an origination of the oracle's table, by
    /// index: no key is built or hashed.
    pub fn tree(&self, id: OriginationId) -> &RouteTree {
        self.slot_tree(self.slot_of[id.index()])
    }

    /// The route tree for the longest-match prefix covering `d`, together
    /// with that origination. `None` if `d` is unrouted.
    pub fn route_tree_for(&self, d: bdrmap_types::Addr) -> Option<(&Origination, Arc<RouteTree>)> {
        let (id, o) = self.origins.lookup_id(d)?;
        Some((o, Arc::clone(self.slot_tree(self.slot_of[id.index()]))))
    }

    /// AS `a`'s best route toward destination address `d`, with the
    /// matched prefix. `None` if unrouted or not propagated to `a`.
    pub fn best_route(&self, a: Asn, d: bdrmap_types::Addr) -> Option<(Prefix, BestRoute)> {
        let (id, o) = self.origins.lookup_id(d)?;
        self.tree(id).route(a).map(|r| (o.prefix, r))
    }

    /// All neighbors of `a` whose route toward `o` is exactly as good as
    /// `a`'s best (same class and path length) — the BGP multipath set.
    /// The data plane breaks this tie with IGP distance (hot potato),
    /// which is what makes different ingress routers of the same AS pick
    /// different next-hop ASes (Figure 14 of the paper).
    ///
    /// Returns an empty vector if `a` has no route or originates the
    /// prefix itself.
    pub fn tied_next_hops(&self, a: Asn, o: &Origination) -> Vec<Asn> {
        let filter = o.scope.neighbor_filter();
        self.tied_in(a, &self.route_tree(o), filter.as_deref())
    }

    /// [`tied_next_hops`](Self::tied_next_hops) for an origination of
    /// the oracle's table, by index.
    pub fn tied_next_hops_of(&self, a: Asn, id: OriginationId) -> Vec<Asn> {
        let slot = self.slot_of[id.index()];
        let filter = self.keys[slot as usize].filter.as_deref();
        self.tied_in(a, self.slot_tree(slot), filter)
    }

    fn tied_in(&self, a: Asn, tree: &RouteTree, filter: Option<&[Asn]>) -> Vec<Asn> {
        let Some(best) = tree.route(a) else {
            return Vec::new();
        };
        if best.class == RouteClass::Origin {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &(v, role_of_v) in self.graph.neighbors(a) {
            let Some(vr) = tree.route(v) else { continue };
            // v exports to a only if a is in an allowed role; a's role
            // from v's view is the flip.
            if !vr.class.exportable_to(role_of_v.flip()) {
                continue;
            }
            if vr.class == RouteClass::Origin {
                if let Some(f) = filter {
                    if !f.contains(&a) {
                        continue;
                    }
                }
            }
            let learned = match role_of_v {
                Relationship::Customer => RouteClass::Customer,
                Relationship::Peer => RouteClass::Peer,
                Relationship::Provider => RouteClass::Provider,
            };
            if learned == best.class && vr.path_len + 1 == best.path_len {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }

    /// Full valley-free propagation for one origination key.
    fn propagate(&self, key: &OriginationKey) -> RouteTree {
        let n = self.graph.num_ases() + 1;
        let mut routes: Vec<Option<BestRoute>> = vec![None; n];

        // Candidate comparison: (class rank, path_len, next_hop asn).
        let better = |cand: &BestRoute, cur: &Option<BestRoute>| -> bool {
            match cur {
                None => true,
                Some(cur) => {
                    let ck = (
                        cand.class.rank(),
                        cand.path_len,
                        cand.next_hop.map_or(0, |a| a.0),
                    );
                    let uk = (
                        cur.class.rank(),
                        cur.path_len,
                        cur.next_hop.map_or(0, |a| a.0),
                    );
                    ck < uk
                }
            }
        };

        // Seed the origins.
        for &o in &key.origins {
            let cand = BestRoute {
                next_hop: None,
                class: RouteClass::Origin,
                path_len: 0,
                origin: o,
            };
            if better(&cand, &routes[o.0 as usize]) {
                routes[o.0 as usize] = Some(cand);
            }
        }

        // Dijkstra-style relaxation ordered by (class rank, path length,
        // learner ASN). Because preference is lexicographic on
        // (class, length) and export rules only ever weaken class, a
        // settled AS's best route never improves after it pops.
        let mut heap: BinaryHeap<Reverse<(u8, u8, u32)>> = BinaryHeap::new();
        for &o in &key.origins {
            heap.push(Reverse((0, 0, o.0)));
        }
        let mut settled = vec![false; n];

        while let Some(Reverse((rank, len, asn))) = heap.pop() {
            let u = Asn(asn);
            let ui = asn as usize;
            if settled[ui] {
                continue;
            }
            let cur = match routes[ui] {
                Some(r) => r,
                None => continue,
            };
            // Skip stale heap entries.
            if cur.class.rank() != rank || cur.path_len != len {
                continue;
            }
            settled[ui] = true;

            // Export u's best route to its neighbors.
            for &(v, role_of_v) in self.graph.neighbors(u) {
                if !cur.class.exportable_to(role_of_v) {
                    continue;
                }
                // Selective advertisement applies at the origin only.
                if cur.class == RouteClass::Origin {
                    if let Some(filter) = &key.filter {
                        if !filter.contains(&v) {
                            continue;
                        }
                    }
                }
                let learned_class = match role_of_v {
                    // v is u's customer: v learns the route from a provider.
                    Relationship::Customer => RouteClass::Provider,
                    Relationship::Peer => RouteClass::Peer,
                    // v is u's provider: v learns the route from a customer.
                    Relationship::Provider => RouteClass::Customer,
                };
                let cand = BestRoute {
                    next_hop: Some(u),
                    class: learned_class,
                    path_len: cur.path_len + 1,
                    origin: cur.origin,
                };
                let vi = v.0 as usize;
                if !settled[vi] && better(&cand, &routes[vi]) {
                    routes[vi] = Some(cand);
                    heap.push(Reverse((cand.class.rank(), cand.path_len, v.0)));
                }
            }
        }

        RouteTree { routes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::AdvertisementScope;
    use bdrmap_types::Prefix;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Chain: 1 (tier-1) — customers 2, 3; 2 and 3 peer; 3 provider of 4.
    ///  1
    ///  |\
    ///  2 3   (2-3 peer)
    ///    |
    ///    4
    fn fixture() -> (AsGraph, OriginTable) {
        let mut g = AsGraph::new();
        let a1 = g.add_as();
        let a2 = g.add_as();
        let a3 = g.add_as();
        let a4 = g.add_as();
        g.add_link(a1, a2, Relationship::Customer);
        g.add_link(a1, a3, Relationship::Customer);
        g.add_link(a2, a3, Relationship::Peer);
        g.add_link(a3, a4, Relationship::Customer);
        let mut t = OriginTable::new();
        t.announce(p("10.4.0.0/16"), a4);
        (g, t)
    }

    #[test]
    fn everyone_reaches_a_customer_prefix() {
        let (g, t) = fixture();
        let oracle = RoutingOracle::new(g, t);
        let d = "10.4.0.1".parse().unwrap();
        for a in 1..=4u32 {
            assert!(oracle.best_route(Asn(a), d).is_some(), "AS{a} unreachable");
        }
    }

    #[test]
    fn prefer_customer_and_peer_over_provider() {
        let (g, t) = fixture();
        let oracle = RoutingOracle::new(g, t);
        let d = "10.4.0.1".parse().unwrap();
        // AS3 learns from customer AS4.
        let (_, r3) = oracle.best_route(Asn(3), d).unwrap();
        assert_eq!(r3.class, RouteClass::Customer);
        assert_eq!(r3.next_hop, Some(Asn(4)));
        // AS2 prefers the peer route via 3 over the provider route via 1.
        let (_, r2) = oracle.best_route(Asn(2), d).unwrap();
        assert_eq!(r2.class, RouteClass::Peer);
        assert_eq!(r2.next_hop, Some(Asn(3)));
        // AS1 learns from customer AS3.
        let (_, r1) = oracle.best_route(Asn(1), d).unwrap();
        assert_eq!(r1.class, RouteClass::Customer);
        assert_eq!(r1.next_hop, Some(Asn(3)));
    }

    #[test]
    fn valley_free_no_peer_route_reexported() {
        // 5 peers with 2; 2's peer-learned route to 4 must not reach 5.
        let (mut g, mut t) = {
            let (g, t) = fixture();
            (g, t)
        };
        let a5 = g.add_as();
        g.add_link(Asn(2), a5, Relationship::Peer);
        t.announce(p("10.5.0.0/16"), a5);
        let oracle = RoutingOracle::new(g, t);
        let d = "10.4.0.1".parse().unwrap();
        // AS5's only possible path to 10.4/16 would be via peer 2, whose
        // best route is peer-learned — not exportable to a peer.
        assert!(oracle.best_route(Asn(5), d).is_none());
    }

    #[test]
    fn as_path_reconstruction() {
        let (g, t) = fixture();
        let oracle = RoutingOracle::new(g, t);
        let o = oracle.origins().get(p("10.4.0.0/16")).unwrap().clone();
        let tree = oracle.route_tree(&o);
        assert_eq!(tree.as_path(Asn(1)), Some(vec![Asn(1), Asn(3), Asn(4)]));
        assert_eq!(tree.as_path(Asn(2)), Some(vec![Asn(2), Asn(3), Asn(4)]));
        assert_eq!(tree.as_path(Asn(4)), Some(vec![Asn(4)]));
    }

    #[test]
    fn selective_advertisement_restricts_propagation() {
        let (mut g, mut t) = fixture();
        // AS4 dual-homes to 2 as well, but announces a prefix only to 3.
        g.add_link(Asn(2), Asn(4), Relationship::Customer);
        t.announce_scoped(
            p("10.44.0.0/16"),
            vec![Asn(4)],
            AdvertisementScope::Neighbors(vec![Asn(3)]),
        );
        let oracle = RoutingOracle::new(g, t);
        let d = "10.44.0.1".parse().unwrap();
        // AS2 still reaches it, but via peer 3, not via its customer 4.
        let (_, r2) = oracle.best_route(Asn(2), d).unwrap();
        assert_eq!(r2.next_hop, Some(Asn(3)));
        assert_eq!(r2.class, RouteClass::Peer);
    }

    #[test]
    fn moas_prefix_reaches_nearest_origin() {
        let (mut g, mut t) = fixture();
        let a5 = g.add_as();
        g.add_link(Asn(2), a5, Relationship::Customer);
        // Anycast prefix from AS4 and AS5.
        t.announce_scoped(p("10.99.0.0/16"), vec![Asn(4), a5], AdvertisementScope::All);
        let oracle = RoutingOracle::new(g, t);
        let d = "10.99.0.1".parse().unwrap();
        let (_, r2) = oracle.best_route(Asn(2), d).unwrap();
        assert_eq!(r2.origin, a5, "AS2 should use its direct customer AS5");
        let (_, r3) = oracle.best_route(Asn(3), d).unwrap();
        assert_eq!(r3.origin, Asn(4));
    }

    #[test]
    fn cache_shares_trees_across_prefixes() {
        let (g, mut t) = fixture();
        t.announce(p("10.40.0.0/16"), Asn(4));
        let oracle = RoutingOracle::new(g, t);
        let o1 = oracle.origins().get(p("10.4.0.0/16")).unwrap().clone();
        let o2 = oracle.origins().get(p("10.40.0.0/16")).unwrap().clone();
        let t1 = oracle.route_tree(&o1);
        let t2 = oracle.route_tree(&o2);
        assert!(
            Arc::ptr_eq(&t1, &t2),
            "same origination key must share the tree"
        );
    }

    #[test]
    fn indexed_lookups_agree_with_keyed_ones() {
        let (mut g, mut t) = fixture();
        g.add_link(Asn(2), Asn(4), Relationship::Customer);
        t.announce_scoped(
            p("10.44.0.0/16"),
            vec![Asn(4)],
            AdvertisementScope::Neighbors(vec![Asn(3)]),
        );
        t.announce(p("10.40.0.0/16"), Asn(4));
        let oracle = RoutingOracle::new(g, t);
        for d in ["10.4.0.1", "10.44.0.1", "10.40.0.1"] {
            let (id, o) = oracle.origins().lookup_id(d.parse().unwrap()).unwrap();
            let keyed = oracle.route_tree(o);
            assert!(std::ptr::eq(oracle.tree(id), &*keyed));
            for a in 1..=4 {
                assert_eq!(
                    oracle.tied_next_hops_of(Asn(a), id),
                    oracle.tied_next_hops(Asn(a), o),
                    "{d} from AS{a}"
                );
            }
        }
        // An origination outside the table still propagates.
        let foreign = Origination {
            prefix: p("10.99.0.0/16"),
            origins: vec![Asn(1)],
            scope: AdvertisementScope::All,
        };
        assert_eq!(oracle.route_tree(&foreign).reachable_count(), 4);
    }

    #[test]
    fn deterministic_tiebreak_lowest_asn() {
        // Diamond: 1 has customers 2 and 3, both providers of 4.
        let mut g = AsGraph::new();
        let a1 = g.add_as();
        let a2 = g.add_as();
        let a3 = g.add_as();
        let a4 = g.add_as();
        g.add_link(a1, a2, Relationship::Customer);
        g.add_link(a1, a3, Relationship::Customer);
        g.add_link(a2, a4, Relationship::Customer);
        g.add_link(a3, a4, Relationship::Customer);
        let mut t = OriginTable::new();
        t.announce(p("10.4.0.0/16"), a4);
        let oracle = RoutingOracle::new(g, t);
        let (_, r1) = oracle.best_route(a1, "10.4.0.1".parse().unwrap()).unwrap();
        assert_eq!(r1.next_hop, Some(a2), "tie must break to the lower ASN");
    }
}
