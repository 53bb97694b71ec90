//! Prefix origination: who announces what, and where.

use bdrmap_types::{Asn, Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};

/// Where an origin AS announces a prefix.
///
/// Most networks announce every prefix to every BGP neighbor, and rely on
/// hot-potato routing inside their peers. Some CDNs (the paper's
/// Akamai-like case, §6) instead announce certain prefixes only over
/// specific interconnections, anchoring inbound traffic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdvertisementScope {
    /// Announce to every neighbor, over every session.
    All,
    /// Announce only to the listed neighbor ASes (over all sessions with
    /// them).
    Neighbors(Vec<Asn>),
    /// Announce only over specific interdomain links, identified by the
    /// generator's link index. AS-level propagation treats this like
    /// `Neighbors` of the link far-ends; the data plane additionally
    /// restricts which border routers carry the prefix.
    Links(Vec<ScopedLink>),
}

/// One (neighbor AS, link ordinal) pair for link-scoped advertisement.
/// The ordinal indexes the interdomain links between origin and neighbor
/// in generator order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScopedLink {
    /// The neighbor AS the session is with.
    pub neighbor: Asn,
    /// Which of the (possibly many) interconnections with that neighbor.
    pub link_ordinal: u32,
}

impl AdvertisementScope {
    /// The neighbor ASes the origin announces to, or `None` for all.
    pub fn neighbor_filter(&self) -> Option<Vec<Asn>> {
        match self {
            AdvertisementScope::All => None,
            AdvertisementScope::Neighbors(v) => Some(v.clone()),
            AdvertisementScope::Links(v) => {
                let mut out: Vec<Asn> = v.iter().map(|l| l.neighbor).collect();
                out.sort_unstable();
                out.dedup();
                Some(out)
            }
        }
    }
}

/// One originated prefix.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Origination {
    /// The announced prefix.
    pub prefix: Prefix,
    /// Origin AS(es). More than one means a MOAS prefix (§4 challenge 7).
    pub origins: Vec<Asn>,
    /// Where the origin(s) announce it.
    pub scope: AdvertisementScope,
}

/// Dense index of an origination in its [`OriginTable`]: the order in
/// which prefixes were first announced. A table never drops an entry,
/// so an index stays valid for the table's life.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OriginationId(pub u32);

impl OriginationId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The global table of originations, with longest-prefix-match lookup.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OriginTable {
    /// Prefix → index into `entries`.
    trie: PrefixTrie<u32>,
    /// Originations by [`OriginationId`].
    entries: Vec<Origination>,
}

impl OriginTable {
    /// An empty table.
    pub fn new() -> OriginTable {
        OriginTable::default()
    }

    /// Announce `prefix` from a single origin to everyone.
    pub fn announce(&mut self, prefix: Prefix, origin: Asn) {
        self.announce_scoped(prefix, vec![origin], AdvertisementScope::All);
    }

    /// Announce `prefix` with explicit origins and scope. Replaces any
    /// existing origination of exactly this prefix, keeping its index.
    pub fn announce_scoped(
        &mut self,
        prefix: Prefix,
        origins: Vec<Asn>,
        scope: AdvertisementScope,
    ) {
        assert!(!origins.is_empty(), "origination needs at least one origin");
        let o = Origination {
            prefix,
            origins,
            scope,
        };
        match self.trie.get(prefix) {
            Some(&i) => self.entries[i as usize] = o,
            None => {
                self.trie.insert(prefix, self.entries.len() as u32);
                self.entries.push(o);
            }
        }
    }

    /// Longest-match origination for an address: the BGP prefix that
    /// covers it, and who originates that prefix.
    pub fn lookup(&self, a: bdrmap_types::Addr) -> Option<&Origination> {
        self.lookup_id(a).map(|(_, o)| o)
    }

    /// [`lookup`](Self::lookup), with the origination's index.
    pub fn lookup_id(&self, a: bdrmap_types::Addr) -> Option<(OriginationId, &Origination)> {
        self.trie
            .lookup(a)
            .map(|(_, &i)| (OriginationId(i), &self.entries[i as usize]))
    }

    /// Exact-match origination.
    pub fn get(&self, p: Prefix) -> Option<&Origination> {
        self.trie.get(p).map(|&i| &self.entries[i as usize])
    }

    /// The origination at an index.
    pub fn by_id(&self, id: OriginationId) -> &Origination {
        &self.entries[id.index()]
    }

    /// Iterate over all originations, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Origination> {
        self.trie.iter().map(|(_, &i)| &self.entries[i as usize])
    }

    /// Number of originated prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no prefixes are originated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All prefixes originated (primary origin) by `a`.
    pub fn prefixes_of(&self, a: Asn) -> Vec<Prefix> {
        self.iter()
            .filter(|o| o.origins.contains(&a))
            .map(|o| o.prefix)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_origin() {
        let mut t = OriginTable::new();
        t.announce(p("128.66.0.0/16"), Asn(10));
        t.announce(p("128.66.2.0/24"), Asn(20));
        let o = t.lookup("128.66.2.1".parse().unwrap()).unwrap();
        assert_eq!(o.origins, vec![Asn(20)]);
        let o = t.lookup("128.66.1.1".parse().unwrap()).unwrap();
        assert_eq!(o.origins, vec![Asn(10)]);
        assert!(t.lookup("10.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn moas_prefix() {
        let mut t = OriginTable::new();
        t.announce_scoped(
            p("192.0.2.0/24"),
            vec![Asn(1), Asn(2)],
            AdvertisementScope::All,
        );
        let o = t.get(p("192.0.2.0/24")).unwrap();
        assert_eq!(o.origins.len(), 2);
    }

    #[test]
    fn scoped_neighbor_filter() {
        assert_eq!(AdvertisementScope::All.neighbor_filter(), None);
        let s = AdvertisementScope::Links(vec![
            ScopedLink {
                neighbor: Asn(5),
                link_ordinal: 0,
            },
            ScopedLink {
                neighbor: Asn(5),
                link_ordinal: 2,
            },
            ScopedLink {
                neighbor: Asn(3),
                link_ordinal: 1,
            },
        ]);
        assert_eq!(s.neighbor_filter(), Some(vec![Asn(3), Asn(5)]));
    }

    #[test]
    fn ids_are_dense_and_survive_replacement() {
        let mut t = OriginTable::new();
        t.announce(p("10.0.0.0/8"), Asn(1));
        t.announce(p("10.1.0.0/16"), Asn(2));
        t.announce_scoped(p("10.0.0.0/8"), vec![Asn(3)], AdvertisementScope::All);
        assert_eq!(t.len(), 2);
        let (id, o) = t.lookup_id("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(
            (id, o.origins.as_slice()),
            (OriginationId(1), &[Asn(2)][..])
        );
        let (id, o) = t.lookup_id("10.2.0.1".parse().unwrap()).unwrap();
        assert_eq!(
            (id, o.origins.as_slice()),
            (OriginationId(0), &[Asn(3)][..])
        );
        assert_eq!(t.by_id(id).prefix, p("10.0.0.0/8"));
    }

    #[test]
    fn prefixes_of_origin() {
        let mut t = OriginTable::new();
        t.announce(p("10.0.0.0/8"), Asn(1));
        t.announce(p("192.0.2.0/24"), Asn(2));
        t.announce(p("198.51.100.0/24"), Asn(1));
        assert_eq!(
            t.prefixes_of(Asn(1)),
            vec![p("10.0.0.0/8"), p("198.51.100.0/24")]
        );
        assert_eq!(t.len(), 3);
    }
}
