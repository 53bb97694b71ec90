//! The query model over a finished inference, and its reference reader.
//!
//! A border map is queried through [`QueryRead`]: the owner of an
//! address (longest match: an observed router's `/32` first, else a
//! coarser prefix-owner overlay such as the collector view's routed
//! prefixes), the border link behind an interface, the links to a
//! neighbor, and the router and link rows. bdrmapd answers it from one
//! index, the zero-copy [`V3View`](crate::flat::V3View) over snapshot
//! bytes.
//!
//! [`ScanOracle`] answers the same contract by linear scans over the
//! [`BorderMap`] itself and shares no code with the flat encoder. The
//! compat, e2e and chaos suites compare the view against it, so they
//! check the encoder's derived tables against an independent statement
//! of the read rules.

use crate::output::{BorderMap, Heuristic, InferredRouter};
use bdrmap_types::{Addr, Asn, Prefix};

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

/// The read contract bdrmapd serves: implemented by the zero-copy
/// [`V3View`](crate::flat::V3View) over snapshot bytes and by the
/// [`ScanOracle`] over the map it was encoded from. Both answer
/// identically over the same border map and prefix overlay; the compat
/// suite pins that down.
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
    /// Number of distinct prefixes `owner_of` answers from: owned-router
    /// interface `/32`s plus overlay prefixes, a shared `/32` once.
    fn num_prefixes(&self) -> u32;
    /// Number of distinct prefix-owner overlay entries.
    fn num_prefix_owners(&self) -> u32;
    /// Neighbor ASes with at least one link, ascending.
    fn neighbor_list(&self) -> Vec<Asn>;
}

/// The reference reader: answers [`QueryRead`] by linear scans over a
/// [`BorderMap`] and an optional prefix-owner overlay, with no derived
/// table. It states each read rule in its most direct form: the first
/// owned router to list an address owns it, the lowest link id carrying
/// an address answers for it, and a router's `/32` outranks every
/// overlay prefix. Each answer costs a scan of the map, so it is an
/// oracle for tests and the chaos harness, not an index to serve from.
pub struct ScanOracle<'a> {
    map: &'a BorderMap,
    prefixes: Vec<(Prefix, Asn)>,
}

impl<'a> ScanOracle<'a> {
    /// An oracle over `map` alone.
    pub fn new(map: &'a BorderMap) -> ScanOracle<'a> {
        Self::with_prefixes(map, std::iter::empty())
    }

    /// An oracle over `map` under a coarser prefix-ownership overlay.
    /// Where the overlay lists a prefix twice, the later entry wins.
    pub fn with_prefixes(
        map: &'a BorderMap,
        prefixes: impl IntoIterator<Item = (Prefix, Asn)>,
    ) -> ScanOracle<'a> {
        ScanOracle {
            map,
            prefixes: prefixes.into_iter().collect(),
        }
    }

    fn overlay_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.prefixes.iter().map(|&(p, _)| p)
    }
}

/// Number of distinct prefixes in `prefixes`.
fn distinct(prefixes: impl Iterator<Item = Prefix>) -> u32 {
    let mut all: Vec<Prefix> = prefixes.collect();
    all.sort_unstable();
    all.dedup();
    all.len() as u32
}

/// A router's interfaces in arena order: `addrs`, then `other_addrs`.
fn interfaces(r: &InferredRouter) -> impl Iterator<Item = Addr> + '_ {
    r.addrs.iter().chain(&r.other_addrs).copied()
}

impl QueryRead for ScanOracle<'_> {
    fn owner_of(&self, a: Addr) -> Option<OwnerAnswer> {
        let claim = (0..).zip(&self.map.routers).find_map(|(id, r)| {
            let asn = r.owner?;
            interfaces(r).any(|x| x == a).then_some((id, asn))
        });
        if let Some((router, asn)) = claim {
            return Some(OwnerAnswer {
                asn,
                prefix: Prefix::host(a),
                router: Some(router),
            });
        }
        // `max_by_key` keeps the last of equal keys: the later entry of
        // a repeated prefix.
        let &(prefix, asn) = self
            .prefixes
            .iter()
            .filter(|(p, _)| p.contains(a))
            .max_by_key(|(p, _)| p.len())?;
        Some(OwnerAnswer {
            asn,
            prefix,
            router: None,
        })
    }

    fn border_of(&self, a: Addr) -> Option<BorderAnswer> {
        let link = self
            .map
            .links
            .iter()
            .position(|l| l.near_addr == Some(a) || l.far_addr == Some(a))?;
        self.link_answer(link as u32)
    }

    fn neighbor_links(&self, asn: Asn) -> Vec<u32> {
        (0..)
            .zip(&self.map.links)
            .filter(|(_, l)| l.far_as == asn)
            .map(|(id, _)| id)
            .collect()
    }

    fn link_answer(&self, id: u32) -> Option<BorderAnswer> {
        let l = self.map.links.get(id as usize)?;
        Some(BorderAnswer {
            link: id,
            near_router: l.near as u32,
            near_owner: self.map.routers.get(l.near)?.owner,
            far_as: l.far_as,
            near_addr: l.near_addr,
            far_addr: l.far_addr,
            heuristic: l.heuristic,
        })
    }

    fn link_rec(&self, id: u32) -> Option<LinkRec> {
        let l = self.map.links.get(id as usize)?;
        Some(LinkRec {
            near: l.near as u32,
            far: l.far.map(|f| f as u32),
            far_as: l.far_as,
            near_addr: l.near_addr,
            far_addr: l.far_addr,
            heuristic: l.heuristic,
        })
    }

    fn router_info(&self, id: u32) -> Option<(RouterRec, Vec<Addr>)> {
        let r = self.map.routers.get(id as usize)?;
        let start: usize = self.map.routers[..id as usize]
            .iter()
            .map(|r| r.addrs.len() + r.other_addrs.len())
            .sum();
        let addrs: Vec<Addr> = interfaces(r).collect();
        let rec = RouterRec {
            owner: r.owner,
            heuristic: r.heuristic,
            min_hop: r.min_hop,
            addr_start: start as u32,
            addr_end: (start + addrs.len()) as u32,
        };
        Some((rec, addrs))
    }

    fn num_routers(&self) -> u32 {
        self.map.routers.len() as u32
    }

    fn num_links(&self) -> u32 {
        self.map.links.len() as u32
    }

    fn num_prefixes(&self) -> u32 {
        let owned = self.map.routers.iter().filter(|r| r.owner.is_some());
        let hosts = owned.flat_map(interfaces).map(Prefix::host);
        distinct(self.overlay_prefixes().chain(hosts))
    }

    fn num_prefix_owners(&self) -> u32 {
        distinct(self.overlay_prefixes())
    }

    fn neighbor_list(&self) -> Vec<Asn> {
        self.map.neighbors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::V3View;
    use crate::output::InferredLink;
    use crate::snapshot::encode_v3;

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

    /// Run `check` on the oracle and on a view over the encoded map,
    /// both under the overlay `prefixes`; each gets its name as a tag.
    fn on_both(prefixes: &[(Prefix, Asn)], check: impl Fn(&str, &dyn QueryRead)) {
        let m = map();
        let view = V3View::open(encode_v3(&m).unwrap(), prefixes.iter().copied()).unwrap();
        let oracle = ScanOracle::with_prefixes(&m, prefixes.iter().copied());
        check("oracle", &oracle);
        check("view", &view);
    }

    #[test]
    fn owner_prefers_router_over_prefix_layer() {
        let overlay = [("203.0.113.0/24".parse().unwrap(), Asn(999))];
        on_both(&overlay, |tag, idx| {
            // The observed router /32 shadows the routed prefix...
            let got = idx.owner_of(a("203.0.113.1")).unwrap();
            assert_eq!(got.asn, Asn(200), "{tag}");
            assert_eq!(got.router, Some(1), "{tag}");
            assert_eq!(got.prefix.len(), 32, "{tag}");
            // ...but the rest of the prefix falls back to the origin.
            let got = idx.owner_of(a("203.0.113.77")).unwrap();
            assert_eq!(got.asn, Asn(999), "{tag}");
            assert_eq!(got.router, None, "{tag}");
            assert_eq!(got.prefix, "203.0.113.0/24".parse().unwrap(), "{tag}");
            assert_eq!(idx.num_prefix_owners(), 1, "{tag}");
        });
    }

    #[test]
    fn ownerless_routers_stay_out_of_the_trie() {
        on_both(&[], |tag, idx| {
            assert_eq!(idx.owner_of(a("198.51.100.1")), None, "{tag}");
            assert_eq!(idx.owner_of(a("8.8.8.8")), None, "{tag}");
            // other_addrs of owned routers do resolve.
            let other = idx.owner_of(a("203.0.113.9")).unwrap();
            assert_eq!(other.asn, Asn(200), "{tag}");
            assert_eq!(idx.num_prefixes(), 4, "{tag}: owned interfaces only");
        });
    }

    #[test]
    fn border_lookup_covers_both_sides() {
        on_both(&[], |tag, idx| {
            let near = idx.border_of(a("10.0.0.1")).unwrap();
            assert_eq!(near.near_router, 0, "{tag}");
            assert_eq!(near.near_owner, Some(Asn(100)), "{tag}");
            assert_eq!(
                near.link, 0,
                "{tag}: lowest link id wins for a shared iface"
            );
            let far = idx.border_of(a("203.0.113.5")).unwrap();
            assert_eq!(far.far_as, Asn(200), "{tag}");
            assert_eq!(far.heuristic, Heuristic::ThirdParty, "{tag}");
            assert_eq!(idx.border_of(a("203.0.113.99")), None, "{tag}");
        });
    }

    #[test]
    fn neighbor_links_are_grouped() {
        on_both(&[], |tag, idx| {
            assert_eq!(idx.neighbor_links(Asn(200)), vec![0, 2], "{tag}");
            assert_eq!(idx.neighbor_links(Asn(300)), vec![1], "{tag}");
            assert_eq!(idx.neighbor_links(Asn(400)), Vec::<u32>::new(), "{tag}");
            assert_eq!(idx.neighbor_list(), vec![Asn(200), Asn(300)], "{tag}");
        });
    }

    #[test]
    fn flat_tables_expose_rows() {
        on_both(&[], |tag, idx| {
            assert_eq!(idx.num_routers(), 3, "{tag}");
            assert_eq!(idx.num_links(), 3, "{tag}");
            let (rec, addrs) = idx.router_info(1).unwrap();
            assert_eq!(rec.owner, Some(Asn(200)), "{tag}");
            assert_eq!(addrs.len(), 3, "{tag}");
            assert_eq!((rec.addr_start, rec.addr_end), (1, 4), "{tag}");
            assert!(idx.router_info(9).is_none(), "{tag}");
            let rec = idx.link_rec(2).unwrap();
            assert_eq!(rec.heuristic, Heuristic::ThirdParty, "{tag}");
            assert!(idx.link_answer(9).is_none(), "{tag}");
            assert_eq!(idx.link_answer(1).unwrap().far_as, Asn(300), "{tag}");
        });
    }
}
