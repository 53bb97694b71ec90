//! The query model over a finished inference, and its heap builder.
//!
//! [`QueryIndex`] turns a [`BorderMap`] into the tables a border map is
//! queried through: flat, arena-backed router and link tables (indices
//! instead of pointers, one allocation per table) under a
//! longest-prefix-match trie over the owned address space. Router
//! interfaces enter the trie as `/32` host entries; coarser prefix
//! ownership (e.g. the BGP collector view's routed prefixes) can be
//! layered underneath so any address in routed space resolves, with the
//! observed routers winning as the most-specific match.
//!
//! bdrmapd does not serve from this heap index: it serves the zero-copy
//! [`V3View`](crate::flat::V3View) over snapshot bytes. `QueryIndex`
//! has two jobs. It builds the tables [`encode_v3`](crate::flat::encode_v3)
//! lays out, and it is the reference the compat suites compare the view
//! against through [`QueryRead`].

use crate::output::{BorderMap, Heuristic};
use bdrmap_types::{Addr, Asn, Prefix, PrefixTrie};

/// A router row in the flat table. Interface addresses live in the
/// shared arena, referenced by range.
#[derive(Clone, Copy, Debug)]
pub struct RouterRec {
    /// Inferred operator, if one was concluded.
    pub owner: Option<Asn>,
    /// The heuristic that decided the owner.
    pub heuristic: Option<Heuristic>,
    /// Minimum hop distance from the VP.
    pub min_hop: u8,
    pub(crate) addr_start: u32,
    pub(crate) addr_end: u32,
}

/// An interdomain-link row in the flat table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRec {
    /// Near-side (VP network) router id.
    pub near: u32,
    /// Far-side router id, when one was observed.
    pub far: Option<u32>,
    /// The neighbor network on the far side.
    pub far_as: Asn,
    /// Near-side interface the far router was observed behind.
    pub near_addr: Option<Addr>,
    /// A far-side interface, when observed.
    pub far_addr: Option<Addr>,
    /// The heuristic that attributed the far side.
    pub heuristic: Heuristic,
}

/// What the trie stores: the most specific thing known about a prefix.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TrieEntry {
    /// A `/32` of an observed router with an inferred owner.
    Router(u32),
    /// A routed prefix with a known origin (no observed router).
    Owner(Asn),
}

/// Answer to an owner-of-address query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnerAnswer {
    /// The owning AS.
    pub asn: Asn,
    /// The matched prefix (a `/32` when an observed router matched).
    pub prefix: Prefix,
    /// The observed router carrying the address, when one matched.
    pub router: Option<u32>,
}

/// Answer to a border-router-of-link query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BorderAnswer {
    /// Link id within the index.
    pub link: u32,
    /// Near-side border router id.
    pub near_router: u32,
    /// The border router's inferred owner.
    pub near_owner: Option<Asn>,
    /// The neighbor on the far side.
    pub far_as: Asn,
    /// Near-side interface address.
    pub near_addr: Option<Addr>,
    /// Far-side interface address.
    pub far_addr: Option<Addr>,
    /// The heuristic that attributed the link.
    pub heuristic: Heuristic,
}

/// The immutable query index. See the module docs for layout.
///
/// The fields are crate-visible so the flat codec ([`crate::flat`])
/// can serialize exactly the structures this builder produces — a v4
/// file is these tables, laid out as fixed-width records, with the
/// trie's router `/32`s as a sorted host index.
pub struct QueryIndex {
    pub(crate) routers: Vec<RouterRec>,
    pub(crate) addr_arena: Vec<Addr>,
    pub(crate) links: Vec<LinkRec>,
    /// Link ids grouped by neighbor AS, contiguous per neighbor.
    pub(crate) link_arena: Vec<u32>,
    /// Sorted `(neighbor, start, end)` ranges into `link_arena`.
    pub(crate) neighbor_index: Vec<(Asn, u32, u32)>,
    /// Sorted `(interface address, link id)` pairs covering both sides
    /// of every link.
    pub(crate) border_index: Vec<(Addr, u32)>,
    pub(crate) trie: PrefixTrie<TrieEntry>,
    pub(crate) prefix_owners: u32,
}

impl QueryIndex {
    /// Build from a finished inference alone (router `/32`s only).
    pub fn build(map: &BorderMap) -> QueryIndex {
        Self::build_with_prefixes(map, std::iter::empty())
    }

    /// Build from a finished inference plus a coarser prefix-ownership
    /// layer (typically the collector view's single-origin prefixes).
    pub fn build_with_prefixes(
        map: &BorderMap,
        prefixes: impl IntoIterator<Item = (Prefix, Asn)>,
    ) -> QueryIndex {
        let mut trie = PrefixTrie::new();
        let mut prefix_owners = 0u32;
        for (p, asn) in prefixes {
            if trie.insert(p, TrieEntry::Owner(asn)).is_none() {
                prefix_owners += 1;
            }
        }
        let mut routers = Vec::with_capacity(map.routers.len());
        let mut addr_arena = Vec::new();
        for (i, r) in map.routers.iter().enumerate() {
            let addr_start = addr_arena.len() as u32;
            addr_arena.extend_from_slice(&r.addrs);
            addr_arena.extend_from_slice(&r.other_addrs);
            routers.push(RouterRec {
                owner: r.owner,
                heuristic: r.heuristic,
                min_hop: r.min_hop,
                addr_start,
                addr_end: addr_arena.len() as u32,
            });
            if r.owner.is_some() {
                for &a in r.addrs.iter().chain(&r.other_addrs) {
                    let host = Prefix::host(a);
                    // First router to claim an address keeps it; a
                    // router /32 always shadows a prefix-owner entry.
                    match trie.get(host) {
                        Some(TrieEntry::Router(_)) => {}
                        _ => {
                            trie.insert(host, TrieEntry::Router(i as u32));
                        }
                    }
                }
            }
        }
        let links: Vec<LinkRec> = map
            .links
            .iter()
            .map(|l| LinkRec {
                near: l.near as u32,
                far: l.far.map(|f| f as u32),
                far_as: l.far_as,
                near_addr: l.near_addr,
                far_addr: l.far_addr,
                heuristic: l.heuristic,
            })
            .collect();
        // Group link ids by neighbor into one arena.
        let mut by_neighbor: Vec<(Asn, u32)> = links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.far_as, i as u32))
            .collect();
        by_neighbor.sort_unstable();
        let mut link_arena = Vec::with_capacity(by_neighbor.len());
        let mut neighbor_index: Vec<(Asn, u32, u32)> = Vec::new();
        for (asn, link) in by_neighbor {
            match neighbor_index.last_mut() {
                Some((last, _, end)) if *last == asn => *end += 1,
                _ => {
                    let at = link_arena.len() as u32;
                    neighbor_index.push((asn, at, at + 1));
                }
            }
            link_arena.push(link);
        }
        let mut border_index: Vec<(Addr, u32)> = Vec::new();
        for (i, l) in links.iter().enumerate() {
            for a in [l.near_addr, l.far_addr].into_iter().flatten() {
                border_index.push((a, i as u32));
            }
        }
        border_index.sort_unstable();
        border_index.dedup();
        QueryIndex {
            routers,
            addr_arena,
            links,
            link_arena,
            neighbor_index,
            border_index,
            trie,
            prefix_owners,
        }
    }

    fn border_answer(&self, link: u32) -> BorderAnswer {
        let l = &self.links[link as usize];
        BorderAnswer {
            link,
            near_router: l.near,
            near_owner: self.routers[l.near as usize].owner,
            far_as: l.far_as,
            near_addr: l.near_addr,
            far_addr: l.far_addr,
            heuristic: l.heuristic,
        }
    }
}

/// The read contract both index implementations answer: the heap
/// [`QueryIndex`] a builder produces and the zero-copy
/// [`V3View`](crate::flat::V3View) over snapshot bytes. Both answer
/// byte-identically over the same border map and prefix overlay — the
/// compat suite pins that down.
///
/// Methods that hand out id lists or address sets return owned values:
/// a view reads unaligned little-endian records, so it cannot lend
/// `&[u32]` slices.
pub trait QueryRead {
    /// Longest-prefix-match owner of `a`: the observed router holding
    /// the address if there is one, else the routed prefix's origin.
    fn owner_of(&self, a: Addr) -> Option<OwnerAnswer>;
    /// The border link carrying interface address `a` (either side),
    /// with its near-side border router. The lowest link id wins when
    /// one interface fronts several inferred links.
    fn border_of(&self, a: Addr) -> Option<BorderAnswer>;
    /// Ids of every link to neighbor `asn` (empty if none).
    fn neighbor_links(&self, asn: Asn) -> Vec<u32>;
    /// The border-link answer for link `id`.
    fn link_answer(&self, id: u32) -> Option<BorderAnswer>;
    /// The link row for `id`.
    fn link_rec(&self, id: u32) -> Option<LinkRec>;
    /// The router row and its interface addresses.
    fn router_info(&self, id: u32) -> Option<(RouterRec, Vec<Addr>)>;
    /// Number of routers.
    fn num_routers(&self) -> u32;
    /// Number of links.
    fn num_links(&self) -> u32;
    /// Number of trie entries (router `/32`s plus prefix owners).
    fn num_prefixes(&self) -> u32;
    /// Number of coarse prefix-owner entries layered under the routers.
    fn num_prefix_owners(&self) -> u32;
    /// Neighbor ASes with at least one link, ascending.
    fn neighbor_list(&self) -> Vec<Asn>;
}

impl QueryRead for QueryIndex {
    fn owner_of(&self, a: Addr) -> Option<OwnerAnswer> {
        let (prefix, entry) = self.trie.lookup(a)?;
        match *entry {
            // Only owned routers enter the trie; an index that violates
            // that answers a miss instead of panicking the read path.
            TrieEntry::Router(r) => Some(OwnerAnswer {
                asn: self.routers.get(r as usize)?.owner?,
                prefix,
                router: Some(r),
            }),
            TrieEntry::Owner(asn) => Some(OwnerAnswer {
                asn,
                prefix,
                router: None,
            }),
        }
    }

    fn border_of(&self, a: Addr) -> Option<BorderAnswer> {
        let at = self.border_index.partition_point(|&(b, _)| b < a);
        let &(found, link) = self.border_index.get(at)?;
        if found != a {
            return None;
        }
        Some(self.border_answer(link))
    }

    fn neighbor_links(&self, asn: Asn) -> Vec<u32> {
        match self
            .neighbor_index
            .binary_search_by_key(&asn, |&(a, _, _)| a)
        {
            Ok(i) => {
                let (_, start, end) = self.neighbor_index[i];
                self.link_arena[start as usize..end as usize].to_vec()
            }
            Err(_) => Vec::new(),
        }
    }

    fn link_answer(&self, id: u32) -> Option<BorderAnswer> {
        if (id as usize) < self.links.len() {
            Some(self.border_answer(id))
        } else {
            None
        }
    }

    fn link_rec(&self, id: u32) -> Option<LinkRec> {
        self.links.get(id as usize).copied()
    }

    fn router_info(&self, id: u32) -> Option<(RouterRec, Vec<Addr>)> {
        let r = self.routers.get(id as usize)?;
        let addrs = &self.addr_arena[r.addr_start as usize..r.addr_end as usize];
        Some((*r, addrs.to_vec()))
    }

    fn num_routers(&self) -> u32 {
        self.routers.len() as u32
    }

    fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    fn num_prefixes(&self) -> u32 {
        self.trie.len() as u32
    }

    fn num_prefix_owners(&self) -> u32 {
        self.prefix_owners
    }

    fn neighbor_list(&self) -> Vec<Asn> {
        self.neighbor_index.iter().map(|&(a, _, _)| a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{InferredLink, InferredRouter};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn map() -> BorderMap {
        BorderMap {
            routers: vec![
                InferredRouter {
                    addrs: vec![a("10.0.0.1")],
                    other_addrs: vec![],
                    owner: Some(Asn(100)),
                    heuristic: Some(Heuristic::VpInternal),
                    min_hop: 1,
                },
                InferredRouter {
                    addrs: vec![a("203.0.113.1"), a("203.0.113.5")],
                    other_addrs: vec![a("203.0.113.9")],
                    owner: Some(Asn(200)),
                    heuristic: Some(Heuristic::OneNet),
                    min_hop: 2,
                },
                InferredRouter {
                    addrs: vec![a("198.51.100.1")],
                    other_addrs: vec![],
                    owner: None,
                    heuristic: None,
                    min_hop: 4,
                },
            ],
            links: vec![
                InferredLink {
                    near: 0,
                    far: Some(1),
                    far_as: Asn(200),
                    near_addr: Some(a("10.0.0.1")),
                    far_addr: Some(a("203.0.113.1")),
                    heuristic: Heuristic::OneNet,
                },
                InferredLink {
                    near: 0,
                    far: None,
                    far_as: Asn(300),
                    near_addr: Some(a("10.0.0.1")),
                    far_addr: None,
                    heuristic: Heuristic::SilentNeighbor,
                },
                InferredLink {
                    near: 0,
                    far: Some(1),
                    far_as: Asn(200),
                    near_addr: None,
                    far_addr: Some(a("203.0.113.5")),
                    heuristic: Heuristic::ThirdParty,
                },
            ],
            packets: 1,
            elapsed_ms: 1,
        }
    }

    #[test]
    fn owner_prefers_router_over_prefix_layer() {
        let idx = QueryIndex::build_with_prefixes(
            &map(),
            [("203.0.113.0/24".parse().unwrap(), Asn(999))],
        );
        // The observed router /32 shadows the routed prefix...
        let got = idx.owner_of(a("203.0.113.1")).unwrap();
        assert_eq!(got.asn, Asn(200));
        assert_eq!(got.router, Some(1));
        assert_eq!(got.prefix.len(), 32);
        // ...but the rest of the prefix falls back to the origin.
        let got = idx.owner_of(a("203.0.113.77")).unwrap();
        assert_eq!(got.asn, Asn(999));
        assert_eq!(got.router, None);
        assert_eq!(got.prefix, "203.0.113.0/24".parse().unwrap());
        assert_eq!(idx.num_prefix_owners(), 1);
    }

    #[test]
    fn ownerless_routers_stay_out_of_the_trie() {
        let idx = QueryIndex::build(&map());
        assert_eq!(idx.owner_of(a("198.51.100.1")), None);
        assert_eq!(idx.owner_of(a("8.8.8.8")), None);
        // other_addrs of owned routers do resolve.
        assert_eq!(idx.owner_of(a("203.0.113.9")).unwrap().asn, Asn(200));
    }

    #[test]
    fn border_lookup_covers_both_sides() {
        let idx = QueryIndex::build(&map());
        let near = idx.border_of(a("10.0.0.1")).unwrap();
        assert_eq!(near.near_router, 0);
        assert_eq!(near.near_owner, Some(Asn(100)));
        assert_eq!(near.link, 0, "lowest link id wins for a shared iface");
        let far = idx.border_of(a("203.0.113.5")).unwrap();
        assert_eq!(far.far_as, Asn(200));
        assert_eq!(far.heuristic, Heuristic::ThirdParty);
        assert_eq!(idx.border_of(a("203.0.113.99")), None);
    }

    #[test]
    fn neighbor_links_are_grouped() {
        let idx = QueryIndex::build(&map());
        assert_eq!(idx.neighbor_links(Asn(200)), vec![0, 2]);
        assert_eq!(idx.neighbor_links(Asn(300)), vec![1]);
        assert_eq!(idx.neighbor_links(Asn(400)), Vec::<u32>::new());
        assert_eq!(idx.neighbor_list(), vec![Asn(200), Asn(300)]);
    }

    #[test]
    fn flat_tables_expose_rows() {
        let idx = QueryIndex::build(&map());
        assert_eq!(idx.num_routers(), 3);
        assert_eq!(idx.num_links(), 3);
        let (rec, addrs) = idx.router_info(1).unwrap();
        assert_eq!(rec.owner, Some(Asn(200)));
        assert_eq!(addrs.len(), 3);
        assert!(idx.router_info(9).is_none());
        assert_eq!(idx.link_rec(2).unwrap().heuristic, Heuristic::ThirdParty);
        assert!(idx.link_answer(9).is_none());
        assert_eq!(idx.link_answer(1).unwrap().far_as, Asn(300));
    }
}
