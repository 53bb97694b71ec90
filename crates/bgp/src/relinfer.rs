//! AS relationship inference from public BGP paths.
//!
//! bdrmap does not get to use the simulator's ground-truth relationships:
//! like the real system, it consumes relationships *inferred* from the
//! public view, following the approach of Luckie et al. (IMC 2013) in
//! simplified form:
//!
//! 1. compute each AS's *transit degree* — the number of distinct
//!    neighbors it appears between in paths;
//! 2. infer the Tier-1 clique by growing a pairwise-adjacent set from
//!    the highest-transit-degree collector peers (Route Views collectors
//!    peer predominantly with settlement-free core networks);
//! 3. walk every path and cast **strong** votes justified by the
//!    valley-free export rule:
//!    * a downhill link whose *preceding* link was also downhill (or a
//!      clique peering) proves a customer — the upstream AS accepted the
//!      route from a peer or provider, which only happens for customer
//!      routes;
//!    * an uphill link whose *following* link is also uphill proves a
//!      provider — the AS exported a provider-learned route, which only
//!      goes to customers;
//! 4. links between clique members are peer-peer; links with strong
//!    customer evidence in one direction are customer-provider; strong
//!    evidence both ways, or no strong evidence at all, yields
//!    peer-peer (the conservative default).
//!
//! The result is imperfect in exactly the way the paper's inputs are
//! imperfect, which matters: several bdrmap heuristics (§5.4.3, §5.4.5)
//! key off these inferred labels.

use crate::view::CollectorView;
use bdrmap_types::{Asn, Relationship};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Inferred relationship labels for publicly visible AS links.
#[derive(Clone, Debug, Default)]
pub struct InferredRelationships {
    /// Map keyed by (lower ASN, higher ASN); the label is the role of the
    /// *second* (higher) ASN as seen from the first.
    rels: BTreeMap<(Asn, Asn), Relationship>,
    /// The inferred Tier-1 clique.
    clique: BTreeSet<Asn>,
}

impl InferredRelationships {
    /// Run inference over a collector view.
    pub fn infer(view: &CollectorView) -> InferredRelationships {
        let paths = view.paths();

        // 1. Transit degree and observed adjacency.
        let mut transit_neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        let mut adjacency: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        for path in paths {
            for w in path.windows(2) {
                adjacency.entry(w[0]).or_default().insert(w[1]);
                adjacency.entry(w[1]).or_default().insert(w[0]);
            }
            for w in path.windows(3) {
                let e = transit_neighbors.entry(w[1]).or_default();
                e.insert(w[0]);
                e.insert(w[2]);
            }
        }
        let tdeg = |a: Asn| transit_neighbors.get(&a).map_or(0, |s| s.len());

        // 2. Clique: grow a pairwise-adjacent set from the
        // highest-transit-degree collector peers. A candidate observed
        // immediately after two consecutive clique members is *below*
        // the clique — a clique-peer export followed by a descent proves
        // a customer under valley-free routing (a genuine clique member
        // can never sit there: it would be a peer-peer-peer valley).
        let mut triples_by_third: HashMap<Asn, Vec<(Asn, Asn)>> = HashMap::new();
        for path in paths {
            for w in path.windows(3) {
                triples_by_third.entry(w[2]).or_default().push((w[0], w[1]));
            }
        }
        let mut cand: Vec<Asn> = view.collector_peers().to_vec();
        cand.sort_by_key(|&a| (std::cmp::Reverse(tdeg(a)), a));
        cand.dedup();
        let mut clique: BTreeSet<Asn> = BTreeSet::new();
        for &c in &cand {
            // A minimal transit degree keeps stub collector peers out;
            // the pairwise-adjacency requirement does the real work (a
            // clique member must interconnect with every other member,
            // and those peerings are visible from the members' own
            // collector feeds).
            if tdeg(c) < 2 || clique.len() >= 20 {
                break;
            }
            let below_clique = triples_by_third.get(&c).is_some_and(|pairs| {
                pairs
                    .iter()
                    .any(|(m1, m2)| clique.contains(m1) && clique.contains(m2))
            });
            if below_clique {
                continue;
            }
            let adj = adjacency.get(&c);
            if clique.iter().all(|m| adj.is_some_and(|s| s.contains(m))) {
                clique.insert(c);
            }
        }
        // Retroactive pruning: a member observed after a pair of final
        // members is below the clique (evidence that only became
        // available once the later members joined).
        loop {
            let doomed: Vec<Asn> = clique
                .iter()
                .copied()
                .filter(|c| {
                    triples_by_third.get(c).is_some_and(|pairs| {
                        pairs.iter().any(|(m1, m2)| {
                            m1 != c && m2 != c && clique.contains(m1) && clique.contains(m2)
                        })
                    })
                })
                .collect();
            if doomed.is_empty() {
                break;
            }
            for d in doomed {
                clique.remove(&d);
            }
        }

        // 3. Strong votes from the valley-free export lemma.
        #[derive(Default, Clone, Copy)]
        struct Votes {
            /// Strong votes that high is low's customer.
            high_customer: u32,
            /// Strong votes that high is low's provider.
            high_provider: u32,
            /// Seen at all (for the peer default).
            seen: u32,
        }
        let mut votes: HashMap<(Asn, Asn), Votes> = HashMap::new();
        let mut vote = |a: Asn, b: Asn, role_of_b: Option<Relationship>| {
            let (k, role) = if a < b {
                ((a, b), role_of_b)
            } else {
                ((b, a), role_of_b.map(Relationship::flip))
            };
            let v = votes.entry(k).or_default();
            v.seen += 1;
            match role {
                Some(Relationship::Customer) => v.high_customer += 1,
                Some(Relationship::Provider) => v.high_provider += 1,
                _ => {}
            }
        };

        for path in paths {
            if path.len() < 2 {
                continue;
            }
            // Top of the path: prefer clique members, then transit
            // degree.
            let t = (0..path.len())
                .max_by_key(|&i| (clique.contains(&path[i]), tdeg(path[i])))
                .unwrap();
            // Edge j joins path[j] and path[j+1]; it is "up" when it
            // moves toward the top.
            let is_down = |j: usize| j + 1 > t;
            let is_clique_pair =
                |j: usize| clique.contains(&path[j]) && clique.contains(&path[j + 1]);
            for j in 0..path.len() - 1 {
                let (a, b) = (path[j], path[j + 1]);
                if is_clique_pair(j) {
                    vote(a, b, None); // label fixed to peer below
                } else if is_down(j) {
                    // a exported b's route to path[j-1]. Strong only if
                    // path[j-1] sits above a (previous edge down or a
                    // clique peering): then the route must be a customer
                    // route, so b is a's customer.
                    let strong = j > 0 && (is_down(j - 1) || is_clique_pair(j - 1));
                    vote(a, b, strong.then_some(Relationship::Customer));
                } else {
                    // Uphill: b exported the route to a. Strong only if
                    // the next edge is also uphill: b passed on a
                    // provider-learned route, which only goes to
                    // customers, so b is a's provider.
                    let strong = j + 1 < path.len() - 1 && j + 2 <= t;
                    vote(a, b, strong.then_some(Relationship::Provider));
                }
            }
        }

        // 4. Assemble labels.
        let mut rels: BTreeMap<(Asn, Asn), Relationship> = BTreeMap::new();
        for (k, v) in votes {
            let label = if clique.contains(&k.0) && clique.contains(&k.1) {
                Relationship::Peer
            } else if v.high_customer > 0 && v.high_provider == 0 {
                Relationship::Customer
            } else if v.high_provider > 0 && v.high_customer == 0 {
                Relationship::Provider
            } else if v.high_customer >= 3 * v.high_provider.max(1) {
                Relationship::Customer
            } else if v.high_provider >= 3 * v.high_customer.max(1) {
                Relationship::Provider
            } else {
                Relationship::Peer
            };
            rels.insert(k, label);
        }
        // Links visible in the view but never voted default to peer.
        for (a, b) in view.links() {
            rels.entry((a, b)).or_insert(Relationship::Peer);
        }

        InferredRelationships { rels, clique }
    }

    /// Build directly from known labels (for tests and for "perfect
    /// relationship oracle" ablations). `role_of_b` is b's role from a's
    /// perspective.
    pub fn from_labels(labels: impl IntoIterator<Item = (Asn, Asn, Relationship)>) -> Self {
        let mut rels = BTreeMap::new();
        for (a, b, role_of_b) in labels {
            let (k, role) = if a < b {
                ((a, b), role_of_b)
            } else {
                ((b, a), role_of_b.flip())
            };
            rels.insert(k, role);
        }
        InferredRelationships {
            rels,
            clique: BTreeSet::new(),
        }
    }

    /// The role of `b` as seen from `a`, if the link was inferred.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        if a < b {
            self.rels.get(&(a, b)).copied()
        } else {
            self.rels.get(&(b, a)).copied().map(Relationship::flip)
        }
    }

    /// True if `p` is an inferred provider of `c`.
    pub fn is_provider_of(&self, p: Asn, c: Asn) -> bool {
        self.relationship(c, p) == Some(Relationship::Provider)
    }

    /// All inferred providers of `a`.
    pub fn providers_of(&self, a: Asn) -> Vec<Asn> {
        self.neighbors_with(a, Relationship::Provider)
    }

    /// All inferred customers of `a`.
    pub fn customers_of(&self, a: Asn) -> Vec<Asn> {
        self.neighbors_with(a, Relationship::Customer)
    }

    fn neighbors_with(&self, a: Asn, role: Relationship) -> Vec<Asn> {
        self.rels
            .iter()
            .filter_map(|(&(x, y), &r)| {
                if x == a && r == role {
                    Some(y)
                } else if y == a && r.flip() == role {
                    Some(x)
                } else {
                    None
                }
            })
            .collect()
    }

    /// The inferred Tier-1 clique.
    pub fn clique(&self) -> impl Iterator<Item = Asn> + '_ {
        self.clique.iter().copied()
    }

    /// Number of labeled links.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True if no links are labeled.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Iterate over all labeled links as (low, high, role-of-high).
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.rels.iter().map(|(&(a, b), &r)| (a, b, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AsGraph;
    use crate::origin::OriginTable;
    use crate::propagate::RoutingOracle;
    use bdrmap_types::Prefix;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Two tier-1s peering at the top (each with several direct stub
    /// customers, so their transit degree dominates as in the real
    /// Internet), two mid-tier transits that peer with each other, and
    /// stubs below the transits.
    ///
    /// ASNs: 1,2 = tier-1; 3 = transit under 1; 4 = transit under 2;
    /// 5,6 = stubs of 3; 7,8 = stubs of 4; 9–11 = stubs of 1;
    /// 12–14 = stubs of 2.
    fn fixture() -> (RoutingOracle, Vec<Asn>) {
        let mut g = AsGraph::new();
        let ases: Vec<Asn> = (0..14).map(|_| g.add_as()).collect();
        let (t1a, t1b, tra, trb) = (ases[0], ases[1], ases[2], ases[3]);
        g.add_link(t1a, t1b, bdrmap_types::Relationship::Peer);
        g.add_link(t1a, tra, bdrmap_types::Relationship::Customer);
        g.add_link(t1b, trb, bdrmap_types::Relationship::Customer);
        g.add_link(tra, trb, bdrmap_types::Relationship::Peer);
        g.add_link(tra, ases[4], bdrmap_types::Relationship::Customer);
        g.add_link(tra, ases[5], bdrmap_types::Relationship::Customer);
        g.add_link(trb, ases[6], bdrmap_types::Relationship::Customer);
        g.add_link(trb, ases[7], bdrmap_types::Relationship::Customer);
        for &s in &ases[8..11] {
            g.add_link(t1a, s, bdrmap_types::Relationship::Customer);
        }
        for &s in &ases[11..14] {
            g.add_link(t1b, s, bdrmap_types::Relationship::Customer);
        }
        let mut t = OriginTable::new();
        for (i, a) in ases.iter().enumerate() {
            t.announce(p(&format!("10.{}.0.0/16", i + 1)), *a);
        }
        let oracle = RoutingOracle::new(g, t);
        // Collector peers: both tier-1s plus two stubs (stub collectors
        // give peer-link visibility from below, like real Route Views).
        (oracle, vec![Asn(1), Asn(2), Asn(5), Asn(7)])
    }

    #[test]
    fn infers_c2p_chain_correctly() {
        let (oracle, peers) = fixture();
        let view = CollectorView::collect(&oracle, &peers);
        let inf = InferredRelationships::infer(&view);
        assert_eq!(
            inf.relationship(Asn(5), Asn(3)),
            Some(Relationship::Provider)
        );
        assert_eq!(
            inf.relationship(Asn(3), Asn(1)),
            Some(Relationship::Provider)
        );
        assert_eq!(
            inf.relationship(Asn(1), Asn(3)),
            Some(Relationship::Customer)
        );
    }

    #[test]
    fn infers_tier1_peering_and_clique() {
        let (oracle, peers) = fixture();
        let view = CollectorView::collect(&oracle, &peers);
        let inf = InferredRelationships::infer(&view);
        assert_eq!(inf.relationship(Asn(1), Asn(2)), Some(Relationship::Peer));
        let clique: Vec<Asn> = inf.clique().collect();
        assert!(
            clique.contains(&Asn(1)) && clique.contains(&Asn(2)),
            "{clique:?}"
        );
        assert!(
            !clique.contains(&Asn(5)),
            "stub collector must not join the clique"
        );
    }

    #[test]
    fn provider_queries() {
        let (oracle, peers) = fixture();
        let view = CollectorView::collect(&oracle, &peers);
        let inf = InferredRelationships::infer(&view);
        assert!(inf.is_provider_of(Asn(3), Asn(5)));
        assert!(!inf.is_provider_of(Asn(5), Asn(3)));
        assert_eq!(inf.providers_of(Asn(5)), vec![Asn(3)]);
        assert!(inf.customers_of(Asn(1)).contains(&Asn(3)));
    }

    #[test]
    fn from_labels_round_trip() {
        let inf = InferredRelationships::from_labels([
            (Asn(9), Asn(4), Relationship::Customer),
            (Asn(4), Asn(7), Relationship::Peer),
        ]);
        assert_eq!(
            inf.relationship(Asn(9), Asn(4)),
            Some(Relationship::Customer)
        );
        assert_eq!(
            inf.relationship(Asn(4), Asn(9)),
            Some(Relationship::Provider)
        );
        assert_eq!(inf.relationship(Asn(7), Asn(4)), Some(Relationship::Peer));
        assert_eq!(inf.relationship(Asn(7), Asn(9)), None);
        assert_eq!(inf.len(), 2);
    }

    #[test]
    fn mid_tier_peer_link_labeled_peer_when_visible_from_below() {
        let (oracle, peers) = fixture();
        let view = CollectorView::collect(&oracle, &peers);
        assert!(view.has_link(Asn(3), Asn(4)), "precondition: link visible");
        let inf = InferredRelationships::infer(&view);
        // The 3-4 peer link only ever appears after an uphill step from
        // a stub collector, so no strong customer evidence exists in
        // either direction.
        assert_eq!(inf.relationship(Asn(3), Asn(4)), Some(Relationship::Peer));
    }

    #[test]
    fn peer_link_from_cone_not_mislabeled_customer() {
        // The failure mode this module exists to avoid: a high-degree
        // access network's settlement-free peers must not be inferred as
        // its customers just because the only paths crossing the peering
        // come from inside the access network's customer cone.
        let mut g = AsGraph::new();
        let ases: Vec<Asn> = (0..12).map(|_| g.add_as()).collect();
        let (t1a, t1b, access, peer) = (ases[0], ases[1], ases[2], ases[3]);
        g.add_link(t1a, t1b, bdrmap_types::Relationship::Peer);
        g.add_link(t1a, access, bdrmap_types::Relationship::Customer);
        g.add_link(t1b, peer, bdrmap_types::Relationship::Customer);
        g.add_link(access, peer, bdrmap_types::Relationship::Peer);
        // Access has many customers (high transit degree).
        for &s in &ases[4..10] {
            g.add_link(access, s, bdrmap_types::Relationship::Customer);
        }
        // The peer has its own customers.
        for &s in &ases[10..12] {
            g.add_link(peer, s, bdrmap_types::Relationship::Customer);
        }
        let mut t = OriginTable::new();
        for (i, a) in ases.iter().enumerate() {
            t.announce(p(&format!("10.{}.0.0/16", i + 1)), *a);
        }
        let oracle = RoutingOracle::new(g, t);
        // Collectors: the tier-1s plus a stub deep in the access cone.
        let view = CollectorView::collect(&oracle, &[t1a, t1b, ases[4]]);
        let inf = InferredRelationships::infer(&view);
        assert_eq!(
            inf.relationship(access, peer),
            Some(Relationship::Peer),
            "cone-only visibility must not produce a customer label"
        );
        // While real customers of the access network are still labeled.
        assert_eq!(
            inf.relationship(access, ases[5]),
            Some(Relationship::Customer)
        );
        // And the access network's provider is labeled as such.
        assert_eq!(inf.relationship(access, t1a), Some(Relationship::Provider));
    }
}
