//! The §5.4 inference engine: router ownership and border extraction.
//!
//! Routers are visited in order of observed hop distance. The first pass
//! identifies routers operated by the hosting network (§5.4.1); every
//! later heuristic attributes far-side routers to neighbor networks,
//! ordered by the strength of available constraints, exactly as the
//! paper orders them. Every inference carries a [`Heuristic`] tag so the
//! evaluation can regenerate Table 1 as a group-by.

use crate::graph::ObservedGraph;
use crate::input::{Input, IpMapper, Mapping};
use crate::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_probe::{ProbeBudget, TraceCollection};
use bdrmap_types::{Addr, Asn};
use std::collections::{BTreeMap, BTreeSet};

/// Ownership state built up while walking the graph.
struct OwnerState {
    owner: Vec<Option<Asn>>,
    tag: Vec<Option<Heuristic>>,
}

/// How an observed router's own addresses map, in aggregate.
#[derive(Debug, PartialEq, Eq)]
enum RClass {
    /// Every address maps to the hosting network.
    AllVp,
    /// Every address is unrouted (or a mix of unrouted and VP space —
    /// still no external constraint on the router itself).
    Unrouted,
    /// Addresses map (by majority) to one external AS.
    External(Asn),
    /// Addresses sit in IXP LAN space.
    Ixp,
}

fn classify<M: IpMapper>(ip2as: &M, addrs: &BTreeSet<Addr>) -> RClass {
    let mut ext_counts: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut vp = 0usize;
    let mut unrouted = 0usize;
    let mut ixp = 0usize;
    for &a in addrs {
        match ip2as.lookup(a) {
            Mapping::Vp => vp += 1,
            Mapping::Unrouted => unrouted += 1,
            Mapping::Ixp => ixp += 1,
            Mapping::External(orig) => {
                for o in orig {
                    *ext_counts.entry(o).or_insert(0) += 1;
                }
            }
        }
    }
    if !ext_counts.is_empty() {
        // Majority external origin, deterministic tie-break on ASN.
        let (&best, _) = ext_counts
            .iter()
            .max_by_key(|(asn, &c)| (c, std::cmp::Reverse(asn.0)))
            .unwrap();
        return RClass::External(best);
    }
    if vp > 0 {
        return RClass::AllVp;
    }
    if ixp > 0 {
        return RClass::Ixp;
    }
    debug_assert!(unrouted > 0);
    RClass::Unrouted
}

/// `nextas` (§5.4): the most common inferred provider among the
/// destination ASes probed through a router.
fn nextas(input: &Input, dests: &BTreeSet<Asn>) -> Option<Asn> {
    let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
    for &d in dests {
        for p in input.rels.providers_of(d) {
            *counts.entry(p).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(asn, c)| (c, std::cmp::Reverse(asn.0)))
        .map(|(asn, _)| asn)
}

/// External ASes mapped by a set of addresses.
fn ext_ases<M: IpMapper>(ip2as: &M, addrs: impl IntoIterator<Item = Addr>) -> BTreeSet<Asn> {
    let mut out = BTreeSet::new();
    for a in addrs {
        out.extend(ip2as.lookup(a).externals().iter().copied());
    }
    out
}

/// Is `n` a neighbor of the hosting network in the public BGP view?
fn bgp_neighbor(input: &Input, n: Asn) -> bool {
    input.vp_asns.iter().any(|&v| input.view.has_link(v, n))
}

/// The per-router outcome of the §5.4.1–§5.4.6 walk, captured *before*
/// the §5.4.7 collapse rewrites tags. Seeding a later [`infer_seeded`]
/// call with a router's decision reproduces exactly the state the walk
/// would have computed, so the downstream passes (collapse, link
/// extraction, silent neighbors) — which always re-run in full — see
/// identical inputs. `owner: None` is a real decision (no heuristic
/// fired), distinct from "not yet inferred".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OwnerDecision {
    /// Inferred operator, if any heuristic fired.
    pub owner: Option<Asn>,
    /// The heuristic that fired.
    pub tag: Option<Heuristic>,
}

/// Run the full inference and emit the border map.
pub fn infer<M: IpMapper>(
    graph: &ObservedGraph,
    input: &Input,
    ip2as: &M,
    collection: TraceCollection,
) -> BorderMap {
    infer_seeded(graph, input, ip2as, collection.budget, &[]).0
}

/// [`infer`] with per-router seeds: a router with `Some(decision)` skips
/// the ownership walk and adopts the decision verbatim. Returns the map
/// plus every router's decision (seeded or freshly computed) for the
/// next pass. `seeds` may be shorter than the router count; missing
/// entries mean "compute". Of the probing run, the map records only
/// its `budget`.
pub fn infer_seeded<M: IpMapper>(
    graph: &ObservedGraph,
    input: &Input,
    ip2as: &M,
    budget: ProbeBudget,
    seeds: &[Option<OwnerDecision>],
) -> (BorderMap, Vec<OwnerDecision>) {
    let n = graph.routers.len();
    let mut st = OwnerState {
        owner: vec![None; n],
        tag: vec![None; n],
    };
    let mut done = vec![false; n];
    for (r, seed) in seeds.iter().take(n).enumerate() {
        if let Some(d) = seed {
            st.owner[r] = d.owner;
            st.tag[r] = d.tag;
            done[r] = true;
        }
    }
    let order = graph.hop_order();
    let vp_asn = ip2as.vp_asn();

    // ---------------------------------------------------------- §5.4.1
    // First pass: routers of the hosting network.
    for &r in &order {
        if done[r] {
            continue;
        }
        let rr = &graph.routers[r];
        if classify(ip2as, &rr.addrs) != RClass::AllVp {
            continue;
        }
        // H1.2 condition: a VP-mapped address appears *after* this
        // router on some trace.
        let vp_after = graph.paths_through(r).iter().any(|&(p, pos)| {
            graph.paths[p as usize].routers[pos as usize + 1..]
                .iter()
                .any(|&(_, a)| ip2as.is_vp(a))
        });
        if !vp_after {
            continue; // far-side candidate; later heuristics decide.
        }
        // H1.1 exception: the router actually belongs to a neighbor
        // multihomed to the VP network through adjacent routers. The
        // signal: every external address adjacent to this router (and to
        // the VP-mapped routers right behind it) belongs to one AS A that
        // is a BGP neighbor, and everything probed through the router is
        // A or A's customers.
        let adj_ext = {
            let mut s = ext_ases(ip2as, rr.succ_addrs.iter().copied());
            for &p in &rr.preds {
                s.extend(ext_ases(ip2as, graph.routers[p].addrs.iter().copied()));
            }
            s
        };
        let h11 = (|| {
            if adj_ext.len() != 1 {
                return None;
            }
            let a = *adj_ext.iter().next().unwrap();
            if !bgp_neighbor(input, a) {
                return None;
            }
            // All destinations reached through the router are A or
            // customers of A.
            let all_in_cone = rr
                .dests
                .iter()
                .all(|&d| d == a || input.rels.providers_of(d).contains(&a));
            if !all_in_cone {
                return None;
            }
            // Guard from the paper: no subsequent router may look like a
            // customer of the VP network that is not a neighbor of A.
            for &s in &rr.succs {
                let sc = ext_ases(ip2as, graph.routers[s].addrs.iter().copied());
                for &x in &sc {
                    let vp_customer = input.vp_asns.iter().any(|&v| {
                        input.rels.relationship(x, v) == Some(bdrmap_types::Relationship::Provider)
                    });
                    let a_neighbor = input.rels.relationship(x, a).is_some() || x == a;
                    if vp_customer && !a_neighbor {
                        return None;
                    }
                }
            }
            Some(a)
        })();
        match h11 {
            Some(a) => {
                st.owner[r] = Some(a);
                st.tag[r] = Some(Heuristic::MultihomedToVp);
            }
            None => {
                st.owner[r] = Some(vp_asn);
                st.tag[r] = Some(Heuristic::VpInternal);
            }
        }
    }

    // ------------------------------------------------- §5.4.2 – §5.4.6
    for &r in &order {
        if done[r] || st.owner[r].is_some() {
            continue;
        }
        let rr = &graph.routers[r];
        let class = classify(ip2as, &rr.addrs);
        match class {
            // IXP-fabric addresses are supplied by the exchange, exactly
            // as VP-space link addresses are supplied by the hosting
            // network: the same last-router / destination reasoning
            // applies (§5.4.2, §5.4.4–§5.4.6).
            RClass::AllVp | RClass::Ixp => {
                infer_vp_numbered(graph, input, ip2as, &mut st, r);
            }
            RClass::Unrouted => {
                infer_unrouted(graph, input, ip2as, &mut st, r);
            }
            RClass::External(a) => {
                infer_external(graph, input, ip2as, &mut st, r, a);
            }
        }
    }

    // Capture decisions before §5.4.7 rewrites tags: seeding from the
    // pre-collapse state and re-running the collapse reproduces the
    // post-collapse state exactly.
    let decisions: Vec<OwnerDecision> = (0..n)
        .map(|r| OwnerDecision {
            owner: st.owner[r],
            tag: st.tag[r],
        })
        .collect();

    // ---------------------------------------------------------- §5.4.7
    // Collapse single-interface near-side routers that all front the
    // same neighbor router over what must be one point-to-point link.
    let mut merged_into: Vec<usize> = (0..n).collect();
    for f in 0..n {
        let Some(owner) = st.owner[f] else { continue };
        if input.vp_asns.contains(&owner) {
            continue;
        }
        let preds: Vec<usize> = graph.routers[f]
            .preds
            .iter()
            .copied()
            .filter(|&p| {
                st.owner[p] == Some(vp_asn)
                    && graph.routers[p].addrs.len() == 1
                    // The only *neighbor-side* router behind it is `f`
                    // (VP-internal successors don't preclude the
                    // point-to-point hypothesis).
                    && graph.routers[p].succs.iter().all(|&s| {
                        s == f || st.owner[s] == Some(vp_asn)
                    })
            })
            .collect();
        if preds.len() >= 2 {
            let target = preds[0];
            for &p in &preds[1..] {
                merged_into[p] = target;
                st.tag[p] = Some(Heuristic::CollapsedPtp);
            }
            st.tag[target] = Some(Heuristic::CollapsedPtp);
        }
    }

    // ------------------------------------------------- link extraction
    // An interdomain link: adjacency from a VP-operated router to a
    // router attributed to a neighbor.
    let mut router_out: Vec<InferredRouter> = graph
        .routers
        .iter()
        .enumerate()
        .map(|(i, rr)| InferredRouter {
            addrs: rr.addrs.iter().copied().collect(),
            other_addrs: Vec::new(),
            owner: st.owner[i],
            heuristic: st.tag[i],
            min_hop: rr.min_hop,
        })
        .collect();
    // Fold merged routers' addresses into their targets.
    for i in 0..n {
        let t = merged_into[i];
        if t != i {
            let addrs = std::mem::take(&mut router_out[i].addrs);
            router_out[t].addrs.extend(addrs);
        }
    }

    let mut links: Vec<InferredLink> = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for path in &graph.paths {
        for w in path.routers.windows(2) {
            let (near_raw, near_addr) = w[0];
            let (far, far_addr) = w[1];
            let near = merged_into[near_raw];
            let near_owner = st.owner[near_raw];
            let far_owner = st.owner[far];
            let (Some(no), Some(fo)) = (near_owner, far_owner) else {
                continue;
            };
            if !input.vp_asns.contains(&no) || input.vp_asns.contains(&fo) {
                continue;
            }
            if !seen.insert((near, far)) {
                continue;
            }
            links.push(InferredLink {
                near,
                far: Some(far),
                far_as: fo,
                near_addr: Some(near_addr),
                far_addr: Some(far_addr),
                heuristic: st.tag[far].unwrap_or(Heuristic::IpAsFallback),
            });
        }
    }

    // ---------------------------------------------------------- §5.4.8
    // Neighbors in BGP with no inferred link: place them by the common
    // final VP router of traces toward them.
    let inferred_neighbors: BTreeSet<Asn> = links.iter().map(|l| l.far_as).collect();
    let mut bgp_neighbors: BTreeSet<Asn> = BTreeSet::new();
    for &v in &input.vp_asns {
        bgp_neighbors.extend(input.view.neighbors_of(v));
    }
    bgp_neighbors.retain(|a| !input.vp_asns.contains(a));
    for &a in &bgp_neighbors {
        if inferred_neighbors.contains(&a) {
            continue;
        }
        let mut final_vp_router: Option<usize> = None;
        let mut consistent = true;
        let mut saw_other_icmp = false;
        let mut any_trace = false;
        for path in graph
            .paths_toward(a)
            .iter()
            .map(|&p| &graph.paths[p as usize])
        {
            any_trace = true;
            // The last router owned by the VP network with nothing
            // external after it.
            let last_vp = path.routers.iter().rposition(|&(r, _)| {
                st.owner[merged_into[r]] == Some(vp_asn) || st.owner[r] == Some(vp_asn)
            });
            let Some(pos) = last_vp else {
                consistent = false;
                break;
            };
            if pos + 1 != path.routers.len() {
                // Something responded beyond the VP network: not the
                // silent-neighbor shape.
                consistent = false;
                break;
            }
            let r = merged_into[path.routers[pos].0];
            match final_vp_router {
                None => final_vp_router = Some(r),
                Some(prev) if prev != r => {
                    consistent = false;
                    break;
                }
                _ => {}
            }
            for &oi in &path.other_icmp {
                if ip2as.lookup(oi).externals().contains(&a) {
                    saw_other_icmp = true;
                }
            }
        }
        if !any_trace || !consistent {
            continue;
        }
        let Some(near) = final_vp_router else {
            continue;
        };
        let near_addr = router_out[near].addrs.first().copied();
        links.push(InferredLink {
            near,
            far: None,
            far_as: a,
            near_addr,
            far_addr: None,
            heuristic: if saw_other_icmp {
                Heuristic::OtherIcmp
            } else {
                Heuristic::SilentNeighbor
            },
        });
    }

    // Attach other-ICMP addresses to routers where resolvable (purely
    // informational).
    for path in &graph.paths {
        for &a in &path.other_icmp {
            if let Some(&r) = graph.addr_router.get(&a) {
                if !router_out[r].addrs.contains(&a) && !router_out[r].other_addrs.contains(&a) {
                    router_out[r].other_addrs.push(a);
                }
            }
        }
    }

    let map = BorderMap {
        routers: router_out,
        links,
        packets: budget.packets,
        elapsed_ms: budget.elapsed_ms,
    };
    (map, decisions)
}

/// §5.4.2 and §5.4.4(4.2)–§5.4.6: a far-side candidate numbered from the
/// hosting network's space.
fn infer_vp_numbered<M: IpMapper>(
    graph: &ObservedGraph,
    input: &Input,
    ip2as: &M,
    st: &mut OwnerState,
    r: usize,
) {
    let rr = &graph.routers[r];

    if rr.succs.is_empty() {
        // §5.4.2 firewall: last router toward its destinations.
        if rr.dests.len() == 1 {
            let a = *rr.dests.iter().next().unwrap();
            st.owner[r] = Some(a);
            st.tag[r] = Some(Heuristic::Firewall);
        } else if let Some(a) = nextas(input, &rr.dests) {
            st.owner[r] = Some(a);
            st.tag[r] = Some(Heuristic::FirewallNextAs);
        }
        return;
    }

    // §5.4.4 step 4.2: two consecutive routers after r mapping to one
    // external AS.
    for &(p, pos) in graph.paths_through(r) {
        let (path, pos) = (&graph.paths[p as usize], pos as usize);
        if pos + 2 < path.routers.len() {
            let a1 = ext_ases(ip2as, [path.routers[pos + 1].1]);
            let a2 = ext_ases(ip2as, [path.routers[pos + 2].1]);
            if let Some(&common) = a1.intersection(&a2).next() {
                st.owner[r] = Some(common);
                st.tag[r] = Some(Heuristic::OneNetConsecutive);
                return;
            }
        }
    }

    // §5.4.5 step 5.1: a successor using a third-party address. If the
    // successor's single external mapping A is a provider of the sole
    // destination B probed through it, the successor (and this router)
    // belong to B.
    for &s in &rr.succs {
        let sr = &graph.routers[s];
        let s_ext = ext_ases(ip2as, sr.addrs.iter().copied());
        if s_ext.len() == 1 && sr.dests.len() == 1 {
            let a = *s_ext.iter().next().unwrap();
            let b = *sr.dests.iter().next().unwrap();
            if a != b && input.rels.is_provider_of(a, b) && !bgp_neighbor(input, a) {
                st.owner[r] = Some(b);
                st.tag[r] = Some(Heuristic::ThirdParty);
                return;
            }
        }
    }

    let adj_ext = ext_ases(ip2as, rr.succ_addrs.iter().copied());
    if adj_ext.len() == 1 {
        let a = *adj_ext.iter().next().unwrap();
        // §5.4.5 step 5.3: known peer or customer.
        let known = input.vp_asns.iter().any(|&v| {
            matches!(
                input.rels.relationship(v, a),
                Some(bdrmap_types::Relationship::Customer | bdrmap_types::Relationship::Peer)
            )
        }) || bgp_neighbor(input, a);
        if known {
            st.owner[r] = Some(a);
            st.tag[r] = Some(Heuristic::RelKnownNeighbor);
            return;
        }
        // §5.4.5 step 5.4: B provider of A, VP provider of B.
        let mut b_cand: Vec<Asn> = input
            .rels
            .providers_of(a)
            .into_iter()
            .filter(|&b| {
                input.vp_asns.iter().any(|&v| {
                    input.rels.relationship(v, b) == Some(bdrmap_types::Relationship::Customer)
                })
            })
            .collect();
        b_cand.sort_unstable();
        if let Some(&b) = b_cand.first() {
            st.owner[r] = Some(b);
            st.tag[r] = Some(Heuristic::RelCustomerOfCustomer);
            return;
        }
        // §5.4.5 step 5.5: single subsequent AS with no known
        // relationship — a hidden neighbor.
        st.owner[r] = Some(a);
        st.tag[r] = Some(Heuristic::RelSubsequentSingle);
        return;
    }
    if adj_ext.len() > 1 {
        // §5.4.6 step 6.1: majority of adjacent addresses.
        let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
        for &sa in &rr.succ_addrs {
            for o in ip2as.lookup(sa).externals() {
                *counts.entry(*o).or_insert(0) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let tied: Vec<Asn> = counts
            .iter()
            .filter(|(_, &c)| c == max)
            .map(|(&a, _)| a)
            .collect();
        let pick = tied
            .iter()
            .copied()
            .find(|&a| bgp_neighbor(input, a))
            .or_else(|| tied.first().copied());
        if let Some(a) = pick {
            st.owner[r] = Some(a);
            st.tag[r] = Some(Heuristic::CountMajority);
        }
        return;
    }
    // Successors exist but none map externally (VP or unrouted space
    // beyond): reason from destinations like the firewall case.
    if rr.dests.len() == 1 {
        let a = *rr.dests.iter().next().unwrap();
        st.owner[r] = Some(a);
        st.tag[r] = Some(Heuristic::Firewall);
    } else if let Some(a) = nextas(input, &rr.dests) {
        st.owner[r] = Some(a);
        st.tag[r] = Some(Heuristic::FirewallNextAs);
    }
}

/// §5.4.3: routers with unrouted (or IXP) interface addresses.
fn infer_unrouted<M: IpMapper>(
    graph: &ObservedGraph,
    input: &Input,
    ip2as: &M,
    st: &mut OwnerState,
    r: usize,
) {
    // First routed external interface after r on each trace.
    let mut after: BTreeSet<Asn> = BTreeSet::new();
    for &(p, pos) in graph.paths_through(r) {
        for &(_, a) in &graph.paths[p as usize].routers[pos as usize + 1..] {
            let ext = ip2as.lookup(a).externals().to_vec();
            if !ext.is_empty() {
                after.extend(ext);
                break;
            }
        }
    }
    if after.len() == 1 {
        st.owner[r] = Some(*after.iter().next().unwrap());
        st.tag[r] = Some(Heuristic::UnroutedOneAs);
        return;
    }
    if after.len() > 1 {
        // Most frequent provider among the observed set.
        let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
        for &d in &after {
            for p in input.rels.providers_of(d) {
                *counts.entry(p).or_insert(0) += 1;
            }
            // The AS itself also counts as a candidate (it may be the
            // transit for the others).
            if after
                .iter()
                .any(|&x| input.rels.providers_of(x).contains(&d))
            {
                *counts.entry(d).or_insert(0) += 1;
            }
        }
        if let Some((a, _)) = counts
            .into_iter()
            .max_by_key(|&(asn, c)| (c, std::cmp::Reverse(asn.0)))
        {
            st.owner[r] = Some(a);
            st.tag[r] = Some(Heuristic::UnroutedProvider);
            return;
        }
    }
    if let Some(a) = nextas(input, &graph.routers[r].dests) {
        st.owner[r] = Some(a);
        st.tag[r] = Some(Heuristic::UnroutedNextAs);
    } else if graph.routers[r].dests.len() == 1 {
        st.owner[r] = Some(*graph.routers[r].dests.iter().next().unwrap());
        st.tag[r] = Some(Heuristic::UnroutedNextAs);
    }
}

/// §5.4.4 step 4.1, §5.4.5 step 5.2, §5.4.6 step 6.2: routers whose own
/// addresses map to an external AS.
fn infer_external<M: IpMapper>(
    graph: &ObservedGraph,
    input: &Input,
    ip2as: &M,
    st: &mut OwnerState,
    r: usize,
    a: Asn,
) {
    let rr = &graph.routers[r];
    // §5.4.4 step 4.1: an adjacent subsequent router also in A — two
    // third-party addresses in a row are unlikely.
    let adj_same = rr
        .succ_addrs
        .iter()
        .any(|&sa| ip2as.lookup(sa).externals().contains(&a));
    if adj_same {
        st.owner[r] = Some(a);
        st.tag[r] = Some(Heuristic::OneNet);
        return;
    }
    // §5.4.5 step 5.2: observed only toward B with A a provider of B —
    // a third-party address; the router is B's.
    if rr.dests.len() == 1 {
        let b = *rr.dests.iter().next().unwrap();
        if b != a && input.rels.is_provider_of(a, b) {
            st.owner[r] = Some(b);
            st.tag[r] = Some(Heuristic::ThirdParty);
            return;
        }
    }
    // §5.4.6 step 6.2: plain IP-AS mapping.
    st.owner[r] = Some(a);
    st.tag[r] = Some(Heuristic::IpAsFallback);
}
