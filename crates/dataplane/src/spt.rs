//! Intra-organisation shortest-path trees.
//!
//! Routers of one organisation (an AS plus its siblings) form an IGP
//! domain over the internal links. Forwarding toward an internal target —
//! a destination home router or a hot-potato egress border router — walks
//! the shortest-path tree rooted at that target. Trees are computed on
//! demand into one slot per root router and kept for the cache's life;
//! each covers only its root's domain, so its size is the domain's, not
//! the world's. Equal-cost next hops are kept so the data plane can hash
//! flows across them (ECMP).

use bdrmap_topo::{Internet, LinkKind};
use bdrmap_types::RouterId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

/// The internal links of every IGP domain.
pub struct InternalGraph {
    /// Dense domain index of each router (one per organisation).
    domain: Vec<u32>,
    /// Each router's index within its domain; a domain's routers are
    /// numbered in router-id order.
    local: Vec<u32>,
    /// Each domain's routers, in router-id order.
    members: Vec<Vec<RouterId>>,
    /// Same-domain adjacency, CSR by router: `adj[adj_start[r]..adj_start[r + 1]]`
    /// holds `(neighbor's local index, metric)` in link order.
    adj_start: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl InternalGraph {
    /// Build the internal adjacency from the ground truth.
    pub fn build(net: &Internet) -> InternalGraph {
        let n = net.routers.len();
        let mut by_org: HashMap<u32, u32> = HashMap::new();
        let mut domain = Vec::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        let mut members: Vec<Vec<RouterId>> = Vec::new();
        for r in &net.routers {
            let org = net.graph.org(r.owner).0;
            let d = *by_org.entry(org).or_insert_with(|| {
                members.push(Vec::new());
                members.len() as u32 - 1
            });
            domain.push(d);
            local.push(members[d as usize].len() as u32);
            members[d as usize].push(r.id);
        }
        let mut lists = vec![Vec::new(); n];
        for l in &net.links {
            if l.kind != LinkKind::Internal {
                continue;
            }
            let r0 = net.ifaces[l.ifaces[0].index()].router.index();
            let r1 = net.ifaces[l.ifaces[1].index()].router.index();
            if domain[r0] != domain[r1] {
                continue;
            }
            lists[r0].push((local[r1], l.metric));
            lists[r1].push((local[r0], l.metric));
        }
        let mut adj_start = Vec::with_capacity(n + 1);
        adj_start.push(0);
        for l in &lists {
            adj_start.push(adj_start.last().unwrap() + l.len() as u32);
        }
        InternalGraph {
            domain,
            local,
            members,
            adj_start,
            adj: lists.concat(),
        }
    }

    /// True if two routers are in the same IGP domain.
    pub fn same_domain(&self, a: RouterId, b: RouterId) -> bool {
        self.domain[a.index()] == self.domain[b.index()]
    }

    fn neighbors(&self, r: RouterId) -> &[(u32, u32)] {
        &self.adj[self.adj_start[r.index()] as usize..self.adj_start[r.index() + 1] as usize]
    }
}

/// A shortest-path tree rooted at a target router, over the target's
/// IGP domain only: its arrays are indexed by domain-local index.
struct Spt {
    /// The root's domain.
    domain: u32,
    /// Distance from each domain router to the root (`u32::MAX` =
    /// unreachable).
    dist: Box<[u32]>,
    /// Equal-cost next hops toward the root, CSR by local index
    /// (none at the root itself).
    next_start: Box<[u32]>,
    next: Box<[RouterId]>,
}

/// A tree together with the graph that locates routers in it.
#[derive(Clone, Copy)]
pub struct SptRef<'a> {
    graph: &'a InternalGraph,
    spt: &'a Spt,
}

impl SptRef<'_> {
    /// `r`'s index in the tree, or `None` for a router of another domain.
    fn slot(&self, r: RouterId) -> Option<usize> {
        (self.graph.domain[r.index()] == self.spt.domain)
            .then(|| self.graph.local[r.index()] as usize)
    }

    /// Distance from `r` to the root (`u32::MAX` = unreachable or
    /// foreign domain).
    pub fn dist(&self, r: RouterId) -> u32 {
        self.slot(r).map_or(u32::MAX, |i| self.spt.dist[i])
    }

    /// True if `r` can reach the root internally.
    pub fn reaches(&self, r: RouterId) -> bool {
        self.dist(r) != u32::MAX
    }

    /// The next hop from `r` toward the root, choosing among equal-cost
    /// options by flow hash (Paris-stable).
    pub fn next_hop(&self, r: RouterId, flow: u16) -> Option<RouterId> {
        let i = self.slot(r)?;
        let opts =
            &self.spt.next[self.spt.next_start[i] as usize..self.spt.next_start[i + 1] as usize];
        if opts.is_empty() {
            return None;
        }
        let h = fnv(&[r.0, flow as u32]);
        Some(opts[(h % opts.len() as u64) as usize])
    }
}

/// SPTs by root router, each computed on first use.
pub struct SptCache {
    graph: InternalGraph,
    trees: Box<[OnceLock<Spt>]>,
}

/// Keep at most this many equal-cost next hops per router.
const MAX_ECMP: usize = 4;

impl SptCache {
    /// Create a cache over the internal graph.
    pub fn new(graph: InternalGraph) -> SptCache {
        SptCache {
            trees: (0..graph.domain.len()).map(|_| OnceLock::new()).collect(),
            graph,
        }
    }

    /// The internal graph.
    pub fn graph(&self) -> &InternalGraph {
        &self.graph
    }

    /// The SPT rooted at `root`.
    pub fn tree(&self, root: RouterId) -> SptRef<'_> {
        SptRef {
            graph: &self.graph,
            spt: self.trees[root.index()].get_or_init(|| self.compute(root)),
        }
    }

    /// Dijkstra over the root's domain. Local indices follow router ids,
    /// so heap order, and with it which equal-cost next hops are kept
    /// when there are more than [`MAX_ECMP`], is that of a search over
    /// global ids.
    fn compute(&self, root: RouterId) -> Spt {
        let g = &self.graph;
        let domain = g.domain[root.index()];
        let members = &g.members[domain as usize];
        let n = members.len();
        let mut dist = vec![u32::MAX; n];
        let mut next = vec![[0u32; MAX_ECMP]; n];
        let mut count = vec![0u8; n];
        let mut heap = BinaryHeap::new();
        let root_local = g.local[root.index()];
        dist[root_local as usize] = 0;
        heap.push(Reverse((0u32, root_local)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in g.neighbors(members[u as usize]) {
                let vi = v as usize;
                let nd = d.saturating_add(w);
                let c = count[vi] as usize;
                if nd < dist[vi] {
                    dist[vi] = nd;
                    next[vi][0] = u;
                    count[vi] = 1;
                    heap.push(Reverse((nd, v)));
                } else if nd == dist[vi] && c < MAX_ECMP && !next[vi][..c].contains(&u) {
                    next[vi][c] = u;
                    count[vi] += 1;
                }
            }
        }
        // Deterministic ECMP order.
        let mut next_start = Vec::with_capacity(n + 1);
        let mut flat = Vec::new();
        next_start.push(0);
        for (hops, &c) in next.iter_mut().zip(&count) {
            let hops = &mut hops[..c as usize];
            hops.sort_unstable();
            flat.extend(hops.iter().map(|&l| members[l as usize]));
            next_start.push(flat.len() as u32);
        }
        Spt {
            domain,
            dist: dist.into_boxed_slice(),
            next_start: next_start.into_boxed_slice(),
            next: flat.into_boxed_slice(),
        }
    }
}

/// FNV-1a over a few words — the deterministic hash used for ECMP and
/// export-strategy decisions throughout the data plane.
pub fn fnv(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_topo::{generate, TopoConfig};

    #[test]
    fn spt_distances_are_symmetric_enough() {
        let net = generate(&TopoConfig::tiny(1));
        let cache = SptCache::new(InternalGraph::build(&net));
        // Pick two routers of the VP AS.
        let rs: Vec<RouterId> = net.as_info(net.vp_as).routers.clone();
        assert!(rs.len() >= 2);
        let (a, b) = (rs[0], rs[1]);
        let ta = cache.tree(a);
        let tb = cache.tree(b);
        assert_eq!(
            ta.dist(b),
            tb.dist(a),
            "undirected metric must be symmetric"
        );
        assert!(ta.reaches(b));
    }

    #[test]
    fn walk_reaches_root_without_loops() {
        let net = generate(&TopoConfig::tiny(2));
        let cache = SptCache::new(InternalGraph::build(&net));
        let rs = &net.as_info(net.vp_as).routers;
        let root = rs[0];
        let t = cache.tree(root);
        for &start in rs.iter().skip(1) {
            let mut cur = start;
            let mut hops = 0;
            while cur != root {
                cur = t.next_hop(cur, 7).expect("reachable");
                hops += 1;
                assert!(hops < 1000, "loop detected");
            }
        }
    }

    #[test]
    fn foreign_domain_is_unreachable() {
        let net = generate(&TopoConfig::tiny(3));
        let cache = SptCache::new(InternalGraph::build(&net));
        let vp_router = net.as_info(net.vp_as).routers[0];
        // Find a router in a different org.
        let other = net
            .routers
            .iter()
            .find(|r| !net.graph.same_org(r.owner, net.vp_as))
            .unwrap();
        let t = cache.tree(vp_router);
        assert!(!t.reaches(other.id));
        assert!(!cache.graph().same_domain(vp_router, other.id));
    }

    #[test]
    fn ecmp_next_hops_are_flow_stable() {
        let net = generate(&TopoConfig::tiny(4));
        let cache = SptCache::new(InternalGraph::build(&net));
        let rs = &net.as_info(net.vp_as).routers;
        let t = cache.tree(rs[0]);
        for &r in rs.iter().skip(1) {
            let a = t.next_hop(r, 42);
            let b = t.next_hop(r, 42);
            assert_eq!(a, b, "same flow must take the same path");
        }
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv(&[1, 2]), fnv(&[1, 2]));
        assert_ne!(fnv(&[1, 2]), fnv(&[2, 1]));
    }
}
