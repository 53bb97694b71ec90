//! The observed router-level graph (§5.3 "Build router-level graph").
//!
//! Interfaces seen in ICMP time-exceeded messages are collapsed into
//! routers through transitive closure over confirmed alias pairs —
//! except that a pair any measurement rejected is never merged, even
//! indirectly (the paper's guard against false transitive aliases).
//! Adjacency comes from consecutive responding time-exceeded hops.

use crate::aliases::AliasData;
use crate::input::IpMapper;
use bdrmap_probe::Trace;
use bdrmap_types::{Addr, Asn};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One observed router: an alias set with everything the heuristics
/// need to reason about it.
#[derive(Clone, Debug, Default)]
pub struct ORouter {
    /// Interfaces observed in time-exceeded messages.
    pub addrs: BTreeSet<Addr>,
    /// Minimum hop distance from the VP.
    pub min_hop: u8,
    /// Target ASes whose traces passed through this router.
    pub dests: BTreeSet<Asn>,
    /// Routers observed immediately after this one.
    pub succs: BTreeSet<usize>,
    /// Routers observed immediately before this one.
    pub preds: BTreeSet<usize>,
    /// Addresses observed immediately after this router.
    pub succ_addrs: BTreeSet<Addr>,
    /// Target ASes for which this router was the last responding
    /// time-exceeded hop.
    pub final_dests: BTreeSet<Asn>,
}

/// One trace re-expressed over router indices.
#[derive(Clone, Debug)]
pub struct TracePath {
    /// The target AS probed.
    pub target_as: Asn,
    /// The probed address.
    pub dst: Addr,
    /// Responding time-exceeded hops as (router index, address).
    pub routers: Vec<(usize, Addr)>,
    /// Non-time-exceeded response addresses (echo replies, destination
    /// unreachables) — consumed only by heuristic 8.2.
    pub other_icmp: Vec<Addr>,
}

/// The full observed graph.
#[derive(Clone, Debug, Default)]
pub struct ObservedGraph {
    /// Routers (alias sets).
    pub routers: Vec<ORouter>,
    /// Time-exceeded address → router index.
    pub addr_router: HashMap<Addr, usize>,
    /// All traces over router indices.
    pub paths: Vec<TracePath>,
    /// (path index, first position on that path) of every path through
    /// each router, grouped by router and in path order within a group;
    /// router `r`'s group is `through[through_start[r]..through_start[r + 1]]`.
    through: Vec<(u32, u32)>,
    through_start: Vec<u32>,
    /// Path indices ordered by (target AS, path index).
    toward: Vec<u32>,
}

/// Union-find with veto-aware merging.
struct Uf {
    parent: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
            members: (0..n).map(|i| vec![i]).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge unless `veto` rejects any cross pair of the two components.
    fn union_checked(&mut self, a: usize, b: usize, veto: impl Fn(usize, usize) -> bool) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        for &x in &self.members[ra] {
            for &y in &self.members[rb] {
                if veto(x, y) {
                    return false;
                }
            }
        }
        let (big, small) = if self.members[ra].len() >= self.members[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let moved = std::mem::take(&mut self.members[small]);
        self.members[big].extend(moved);
        self.parent[small] = big;
        true
    }
}

impl ObservedGraph {
    /// Build the graph from traces and alias measurements.
    pub fn build<'t, T, M>(traces: T, alias: &AliasData, _ip2as: &M) -> ObservedGraph
    where
        T: IntoIterator<Item = &'t Trace>,
        T::IntoIter: Clone,
        M: IpMapper,
    {
        let traces = traces.into_iter();
        // Index all time-exceeded addresses.
        let mut addr_ids: BTreeMap<Addr, usize> = BTreeMap::new();
        for tr in traces.clone() {
            for a in tr.te_addrs() {
                let next = addr_ids.len();
                addr_ids.entry(a).or_insert(next);
            }
        }
        let n = addr_ids.len();
        let ids: HashMap<Addr, usize> = addr_ids.iter().map(|(&a, &i)| (a, i)).collect();
        let rev: Vec<Addr> = {
            let mut v = vec![None; n];
            for (&a, &i) in &addr_ids {
                v[i] = Some(a);
            }
            v.into_iter().map(Option::unwrap).collect()
        };

        // Union confirmed aliases, respecting vetoes.
        let mut uf = Uf::new(n);
        let veto = |x: usize, y: usize| alias.vetoed(rev[x], rev[y]);
        for &(a, b) in &alias.aliases {
            if let (Some(&ia), Some(&ib)) = (ids.get(&a), ids.get(&b)) {
                uf.union_checked(ia, ib, veto);
            }
        }

        // Canonical router index per component.
        let mut comp_router: HashMap<usize, usize> = HashMap::new();
        let mut routers: Vec<ORouter> = Vec::new();
        let mut addr_router: HashMap<Addr, usize> = HashMap::new();
        for (&a, &i) in &addr_ids {
            let root = uf.find(i);
            let r = *comp_router.entry(root).or_insert_with(|| {
                routers.push(ORouter {
                    min_hop: u8::MAX,
                    ..ORouter::default()
                });
                routers.len() - 1
            });
            routers[r].addrs.insert(a);
            addr_router.insert(a, r);
        }

        // Walk traces: adjacency, hop distances, destination sets.
        let mut paths = Vec::with_capacity(traces.size_hint().0);
        for tr in traces {
            let mut path_routers: Vec<(usize, Addr)> = Vec::new();
            let mut other_icmp = Vec::new();
            for h in &tr.hops {
                let Some(a) = h.addr else { continue };
                if h.time_exceeded {
                    let r = addr_router[&a];
                    // Collapse consecutive hops on one router (aliases
                    // at successive positions).
                    if path_routers.last().map(|&(pr, _)| pr) != Some(r) {
                        path_routers.push((r, a));
                    }
                    let rr = &mut routers[r];
                    rr.min_hop = rr.min_hop.min(h.ttl);
                    rr.dests.insert(tr.target_as);
                } else {
                    other_icmp.push(a);
                }
            }
            for w in path_routers.windows(2) {
                let (a, addr_b) = (w[0].0, w[1].1);
                let b = w[1].0;
                routers[a].succs.insert(b);
                routers[a].succ_addrs.insert(addr_b);
                routers[b].preds.insert(a);
            }
            if let Some(&(last, _)) = path_routers.last() {
                routers[last].final_dests.insert(tr.target_as);
            }
            paths.push(TracePath {
                target_as: tr.target_as,
                dst: tr.dst,
                routers: path_routers,
                other_icmp,
            });
        }

        let mut g = ObservedGraph {
            routers,
            addr_router,
            paths,
            ..ObservedGraph::default()
        };
        g.index_paths();
        g
    }

    /// Every path through router `r` as (path index, first position of
    /// `r` on that path), in path order: the §5.4 walk looks up the paths
    /// through a router here instead of scanning them all.
    pub fn paths_through(&self, r: usize) -> &[(u32, u32)] {
        let (lo, hi) = (self.through_start[r], self.through_start[r + 1]);
        &self.through[lo as usize..hi as usize]
    }

    /// Indices of the paths toward `asn`, in path order.
    pub fn paths_toward(&self, asn: Asn) -> &[u32] {
        let target = |p: &u32| self.paths[*p as usize].target_as;
        let lo = self.toward.partition_point(|p| target(p) < asn);
        let hi = self.toward.partition_point(|p| target(p) <= asn);
        &self.toward[lo..hi]
    }

    /// Build the `paths_through` and `paths_toward` indexes: count each
    /// router's paths, then fill one flat table.
    fn index_paths(&mut self) {
        let n = self.routers.len();
        // `seen[r]` is one past the last path that listed `r`, so a
        // router met again further down a path keeps its first position.
        let mut seen = vec![0u32; n];
        let mut start = vec![0u32; n + 1];
        for (p, path) in (1u32..).zip(&self.paths) {
            for &(r, _) in &path.routers {
                if seen[r] != p {
                    seen[r] = p;
                    start[r + 1] += 1;
                }
            }
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut through = vec![(0, 0); start[n] as usize];
        seen.fill(0);
        for (p, path) in (1u32..).zip(&self.paths) {
            for (pos, &(r, _)) in (0u32..).zip(&path.routers) {
                if seen[r] != p {
                    seen[r] = p;
                    through[next[r] as usize] = (p - 1, pos);
                    next[r] += 1;
                }
            }
        }
        let mut toward: Vec<u32> = (0..self.paths.len() as u32).collect();
        toward.sort_by_key(|&p| self.paths[p as usize].target_as);
        self.through = through;
        self.through_start = start;
        self.toward = toward;
    }

    /// Routers sorted by min hop distance (the §5.4 traversal order).
    pub fn hop_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.routers.len()).collect();
        idx.sort_by_key(|&i| (self.routers[i].min_hop, i));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Input, Ip2As};
    use bdrmap_bgp::{AsGraph, CollectorView, InferredRelationships, OriginTable, RoutingOracle};
    use bdrmap_probe::{TraceHop, TraceStop};
    use bdrmap_types::{Prefix, Relationship};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn hop(addr: &str, ttl: u8) -> TraceHop {
        TraceHop {
            ttl,
            addr: Some(a(addr)),
            time_exceeded: true,
            other_icmp: false,
            ipid: 0,
        }
    }

    fn trace(dst: &str, target: u32, hops: Vec<TraceHop>) -> Trace {
        Trace {
            dst: a(dst),
            target_as: Asn(target),
            hops,
            stop: TraceStop::GapLimit,
        }
    }

    fn dummy_ip2as() -> Ip2As {
        let mut g = AsGraph::new();
        let t1 = g.add_as();
        let vp = g.add_as();
        g.add_link(t1, vp, Relationship::Customer);
        let mut t = OriginTable::new();
        t.announce("10.2.0.0/16".parse::<Prefix>().unwrap(), vp);
        let oracle = RoutingOracle::new(g, t);
        let view = CollectorView::collect(&oracle, &[t1]);
        let rels = InferredRelationships::infer(&view);
        Input {
            view,
            rels,
            ixp_prefixes: vec![],
            rir: vec![],
            vp_asns: vec![vp],
        }
        .ip2as_for_probing()
    }

    #[test]
    fn distinct_addrs_without_aliases_are_distinct_routers() {
        let traces = vec![trace(
            "10.9.0.1",
            9,
            vec![hop("10.2.0.1", 1), hop("10.2.0.5", 2), hop("10.9.0.9", 3)],
        )];
        let g = ObservedGraph::build(&traces, &AliasData::default(), &dummy_ip2as());
        assert_eq!(g.routers.len(), 3);
        let r0 = g.addr_router[&a("10.2.0.1")];
        let r1 = g.addr_router[&a("10.2.0.5")];
        assert!(g.routers[r0].succs.contains(&r1));
        assert!(g.routers[r1].preds.contains(&r0));
        assert_eq!(g.routers[r0].min_hop, 1);
        assert!(g.routers[r0].dests.contains(&Asn(9)));
    }

    #[test]
    fn alias_pairs_merge_routers() {
        let traces = vec![
            trace("10.8.0.1", 8, vec![hop("10.2.0.1", 1), hop("10.3.0.1", 2)]),
            trace("10.9.0.1", 9, vec![hop("10.2.0.1", 1), hop("10.3.0.5", 2)]),
        ];
        let mut alias = AliasData::default();
        alias.aliases.push((a("10.3.0.1"), a("10.3.0.5")));
        let g = ObservedGraph::build(&traces, &alias, &dummy_ip2as());
        assert_eq!(g.addr_router[&a("10.3.0.1")], g.addr_router[&a("10.3.0.5")]);
        let r = g.addr_router[&a("10.3.0.1")];
        assert_eq!(g.routers[r].addrs.len(), 2);
        assert_eq!(g.routers[r].dests.len(), 2);
    }

    #[test]
    fn veto_blocks_transitive_merge() {
        let traces = vec![trace(
            "10.9.0.1",
            9,
            vec![hop("10.3.0.1", 1), hop("10.3.0.5", 2), hop("10.3.0.9", 3)],
        )];
        let mut alias = AliasData::default();
        // a–b aliased, b–c aliased, but a–c measured as NOT aliases.
        alias.aliases.push((a("10.3.0.1"), a("10.3.0.5")));
        alias.aliases.push((a("10.3.0.5"), a("10.3.0.9")));
        alias
            .not_aliases
            .insert(AliasData::key(a("10.3.0.1"), a("10.3.0.9")));
        let g = ObservedGraph::build(&traces, &alias, &dummy_ip2as());
        // First merge happens; second must be refused.
        assert_eq!(g.addr_router[&a("10.3.0.1")], g.addr_router[&a("10.3.0.5")]);
        assert_ne!(g.addr_router[&a("10.3.0.1")], g.addr_router[&a("10.3.0.9")]);
    }

    #[test]
    fn final_dests_track_last_hop() {
        let traces = vec![
            trace("10.8.0.1", 8, vec![hop("10.2.0.1", 1), hop("10.2.0.9", 2)]),
            trace("10.9.0.1", 9, vec![hop("10.2.0.1", 1)]),
        ];
        let g = ObservedGraph::build(&traces, &AliasData::default(), &dummy_ip2as());
        let r_last = g.addr_router[&a("10.2.0.9")];
        let r_first = g.addr_router[&a("10.2.0.1")];
        assert!(g.routers[r_last].final_dests.contains(&Asn(8)));
        assert!(g.routers[r_first].final_dests.contains(&Asn(9)));
        assert!(!g.routers[r_first].final_dests.contains(&Asn(8)));
    }

    #[test]
    fn hop_order_sorts_by_distance() {
        let traces = vec![trace(
            "10.9.0.1",
            9,
            vec![hop("10.2.0.1", 1), hop("10.2.0.5", 2), hop("10.9.0.9", 3)],
        )];
        let g = ObservedGraph::build(&traces, &AliasData::default(), &dummy_ip2as());
        let order = g.hop_order();
        let hops: Vec<u8> = order.iter().map(|&i| g.routers[i].min_hop).collect();
        assert!(hops.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A router met again further down a path (here through an alias:
    /// r1, r2, r1, r3) is indexed once for that path, at its first
    /// position; the per-target list holds each path once.
    #[test]
    fn path_index_keeps_first_position_of_a_revisited_router() {
        let traces = vec![
            trace(
                "10.9.0.1",
                9,
                vec![
                    hop("10.2.0.1", 1),
                    hop("10.2.0.5", 2),
                    hop("10.2.0.2", 3),
                    hop("10.9.0.9", 4),
                ],
            ),
            trace("10.8.0.1", 8, vec![hop("10.2.0.5", 1), hop("10.2.0.1", 2)]),
            trace("10.9.0.2", 9, vec![hop("10.9.0.9", 1)]),
        ];
        let mut alias = AliasData::default();
        alias.aliases.push((a("10.2.0.1"), a("10.2.0.2")));
        let g = ObservedGraph::build(&traces, &alias, &dummy_ip2as());
        let r1 = g.addr_router[&a("10.2.0.1")];
        let r2 = g.addr_router[&a("10.2.0.5")];
        let r3 = g.addr_router[&a("10.9.0.9")];
        assert_eq!(g.addr_router[&a("10.2.0.2")], r1);
        let on_path0: Vec<usize> = g.paths[0].routers.iter().map(|&(r, _)| r).collect();
        assert_eq!(on_path0, vec![r1, r2, r1, r3]);
        assert_eq!(g.paths_through(r1), [(0, 0), (1, 1)]);
        assert_eq!(g.paths_through(r2), [(0, 1), (1, 0)]);
        assert_eq!(g.paths_through(r3), [(0, 3), (2, 0)]);
        assert_eq!(g.paths_toward(Asn(9)), [0, 2]);
        assert_eq!(g.paths_toward(Asn(8)), [1]);
        assert!(g.paths_toward(Asn(7)).is_empty());
    }

    #[test]
    fn other_icmp_kept_separate() {
        let mut hops = vec![hop("10.2.0.1", 1)];
        hops.push(TraceHop {
            ttl: 2,
            addr: Some(a("10.9.0.1")),
            time_exceeded: false,
            other_icmp: true,
            ipid: 0,
        });
        let traces = vec![trace("10.9.0.1", 9, hops)];
        let g = ObservedGraph::build(&traces, &AliasData::default(), &dummy_ip2as());
        assert_eq!(g.routers.len(), 1, "echo replies must not create routers");
        assert_eq!(g.paths[0].other_icmp, vec![a("10.9.0.1")]);
    }
}
