//! Longest-prefix-match tables.
//!
//! A compact binary trie keyed by [`Prefix`]. This is the workhorse for
//! both the BGP simulator's RIBs and bdrmap's IP-to-AS mapping: lookups
//! walk the address bits from the top and remember the last node that
//! carried a value, yielding the longest matching prefix.

use crate::{addr_bits, Addr, Prefix};
use serde::{Deserialize, Serialize};

/// A map from [`Prefix`] to `T` supporting longest-prefix-match lookup.
///
/// # Examples
///
/// ```
/// use bdrmap_types::{Prefix, PrefixTrie};
///
/// let mut table: PrefixTrie<&str> = PrefixTrie::new();
/// table.insert("128.66.0.0/16".parse().unwrap(), "X");
/// table.insert("128.66.2.0/24".parse().unwrap(), "Y");
///
/// // Longest match wins.
/// let (p, owner) = table.lookup("128.66.2.9".parse().unwrap()).unwrap();
/// assert_eq!((p.to_string().as_str(), *owner), ("128.66.2.0/24", "Y"));
/// let (p, owner) = table.lookup("128.66.9.9".parse().unwrap()).unwrap();
/// assert_eq!((p.to_string().as_str(), *owner), ("128.66.0.0/16", "X"));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Node<T> {
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn empty() -> Node<T> {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty table.
    pub fn new() -> PrefixTrie<T> {
        PrefixTrie {
            nodes: vec![Node::empty()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(bits: u32, depth: u8) -> usize {
        ((bits >> (31 - depth)) & 1) as usize
    }

    /// Insert `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let bits = addr_bits(prefix.network());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(bits, depth);
            node = match self.nodes[node].children[b] {
                Some(c) => c as usize,
                None => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(Node::empty());
                    self.nodes[node].children[b] = Some(idx);
                    idx as usize
                }
            };
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the value at exactly `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let bits = addr_bits(prefix.network());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(bits, depth);
            node = self.nodes[node].children[b]? as usize;
        }
        let old = self.nodes[node].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let bits = addr_bits(prefix.network());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(bits, depth);
            node = self.nodes[node].children[b]? as usize;
        }
        self.nodes[node].value.as_ref()
    }

    /// Mutable exact-match lookup.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let bits = addr_bits(prefix.network());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(bits, depth);
            node = self.nodes[node].children[b]? as usize;
        }
        self.nodes[node].value.as_mut()
    }

    /// Longest-prefix-match lookup: the most-specific stored prefix
    /// containing `a`, with its value.
    pub fn lookup(&self, a: Addr) -> Option<(Prefix, &T)> {
        let bits = addr_bits(a);
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let b = Self::bit(bits, depth);
            match self.nodes[node].children[b] {
                Some(c) => {
                    node = c as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::new(a, len), v))
    }

    /// All stored prefixes that contain `a`, least-specific first.
    pub fn matches(&self, a: Addr) -> Vec<(Prefix, &T)> {
        let bits = addr_bits(a);
        let mut out = Vec::new();
        let mut node = 0usize;
        if let Some(v) = self.nodes[0].value.as_ref() {
            out.push((Prefix::DEFAULT, v));
        }
        for depth in 0..32u8 {
            let b = Self::bit(bits, depth);
            match self.nodes[node].children[b] {
                Some(c) => {
                    node = c as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        out.push((Prefix::new(a, depth + 1), v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Iterate over all `(prefix, value)` pairs in lexicographic
    /// (network address, then length) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::new();
        self.walk(0, 0, 0, &mut out);
        out.into_iter()
    }

    fn walk<'a>(&'a self, node: usize, bits: u32, depth: u8, out: &mut Vec<(Prefix, &'a T)>) {
        if let Some(v) = self.nodes[node].value.as_ref() {
            out.push((Prefix::new(crate::addr(bits), depth), v));
        }
        if depth == 32 {
            return;
        }
        if let Some(c) = self.nodes[node].children[0] {
            self.walk(c as usize, bits, depth + 1, out);
        }
        if let Some(c) = self.nodes[node].children[1] {
            self.walk(c as usize, bits | (1 << (31 - depth)), depth + 1, out);
        }
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

/// A set of prefixes with longest-match membership tests.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PrefixSet {
    trie: PrefixTrie<()>,
}

impl PrefixSet {
    /// An empty set.
    pub fn new() -> PrefixSet {
        PrefixSet {
            trie: PrefixTrie::new(),
        }
    }

    /// Insert a prefix; returns true if it was not already present.
    pub fn insert(&mut self, p: Prefix) -> bool {
        self.trie.insert(p, ()).is_none()
    }

    /// True if exactly `p` is in the set.
    pub fn contains(&self, p: Prefix) -> bool {
        self.trie.get(p).is_some()
    }

    /// True if any stored prefix contains `a`.
    pub fn covers_addr(&self, a: Addr) -> bool {
        self.trie.lookup(a).is_some()
    }

    /// The most specific stored prefix containing `a`.
    pub fn longest_match(&self, a: Addr) -> Option<Prefix> {
        self.trie.lookup(a).map(|(p, _)| p)
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Iterate over stored prefixes.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.trie.iter().map(|(p, _)| p)
    }
}

impl FromIterator<Prefix> for PrefixSet {
    fn from_iter<I: IntoIterator<Item = Prefix>>(iter: I) -> Self {
        let mut s = PrefixSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_prefers_more_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("128.66.0.0/16"), "X");
        t.insert(p("128.66.2.0/24"), "Y");
        assert_eq!(t.lookup(a("128.66.2.9")), Some((p("128.66.2.0/24"), &"Y")));
        assert_eq!(t.lookup(a("128.66.3.9")), Some((p("128.66.0.0/16"), &"X")));
        assert_eq!(t.lookup(a("128.67.0.1")), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT, 0u8);
        assert_eq!(t.lookup(a("1.2.3.4")), Some((Prefix::DEFAULT, &0u8)));
    }

    #[test]
    fn insert_returns_old_value() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_works() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(1));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(a("10.1.2.3")), Some((p("10.1.0.0/16"), &2)));
        assert_eq!(t.lookup(a("10.2.0.0")), None);
    }

    #[test]
    fn matches_returns_all_covering_prefixes() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        let m = t.matches(a("10.1.2.3"));
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].0, Prefix::DEFAULT);
        assert_eq!(m[2].0, p("10.1.0.0/16"));
    }

    #[test]
    fn iter_visits_in_order() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.0/24"), 3);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.128.0.0/9"), 2);
        let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(
            got,
            vec![p("10.0.0.0/8"), p("10.128.0.0/9"), p("192.0.2.0/24")]
        );
    }

    #[test]
    fn slash32_entries() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::host(a("203.0.113.7")), "h");
        assert_eq!(t.lookup(a("203.0.113.7")).map(|x| x.1), Some(&"h"));
        assert_eq!(t.lookup(a("203.0.113.8")), None);
    }

    #[test]
    fn lpm_default_route_under_nested_chain() {
        // /0 below a /8–/16–/24–/32 chain: every address gets its
        // deepest cover, and addresses outside the chain fall through
        // to the default route rather than to a partial match.
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "dfl");
        t.insert(p("10.0.0.0/8"), "a8");
        t.insert(p("10.20.0.0/16"), "a16");
        t.insert(p("10.20.30.0/24"), "a24");
        t.insert(Prefix::host(a("10.20.30.40")), "a32");
        assert_eq!(
            t.lookup(a("10.20.30.40")),
            Some((p("10.20.30.40/32"), &"a32"))
        );
        assert_eq!(
            t.lookup(a("10.20.30.41")),
            Some((p("10.20.30.0/24"), &"a24"))
        );
        assert_eq!(t.lookup(a("10.20.31.1")), Some((p("10.20.0.0/16"), &"a16")));
        assert_eq!(t.lookup(a("10.21.0.1")), Some((p("10.0.0.0/8"), &"a8")));
        assert_eq!(t.lookup(a("11.0.0.1")), Some((p("0.0.0.0/0"), &"dfl")));
        assert_eq!(
            t.lookup(a("255.255.255.255")),
            Some((p("0.0.0.0/0"), &"dfl"))
        );
    }

    #[test]
    fn lpm_no_covering_entry_despite_populated_siblings() {
        // Without a default route, an address whose path shares trie
        // nodes with stored prefixes but is covered by none must miss.
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/9"), 1);
        t.insert(p("10.128.0.0/10"), 2);
        t.insert(Prefix::host(a("10.192.0.1")), 3);
        // 10.192.0.2 walks through the 10.128.0.0/9 subtree's bits but
        // only /10 covers 10.128–10.191; 10.192+ has no entry.
        assert_eq!(t.lookup(a("10.192.0.2")), None);
        assert_eq!(t.lookup(a("11.0.0.1")), None);
        assert_eq!(t.lookup(a("9.255.255.255")), None);
        // The /32 island still matches exactly.
        assert_eq!(t.lookup(a("10.192.0.1")), Some((p("10.192.0.1/32"), &3)));
    }

    #[test]
    fn lpm_overlapping_nested_prefixes_report_stored_network() {
        // The reported prefix is the canonical stored network (host
        // bits masked), not the queried address.
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "outer");
        t.insert(p("10.64.0.0/10"), "inner");
        let (got, v) = t.lookup(a("10.64.3.4")).unwrap();
        assert_eq!((got, *v), (p("10.64.0.0/10"), "inner"));
        assert_eq!(got.network(), a("10.64.0.0"));
        let (got, v) = t.lookup(a("10.128.3.4")).unwrap();
        assert_eq!((got, *v), (p("10.0.0.0/8"), "outer"));
    }

    #[test]
    fn lpm_host_entries_and_their_neighbors() {
        // /32 entries shadow every shorter cover for exactly one
        // address; adjacent addresses fall back to the covering prefix.
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.0/24"), 0u32);
        t.insert(Prefix::host(a("192.0.2.1")), 1);
        t.insert(Prefix::host(a("192.0.2.255")), 2);
        assert_eq!(t.lookup(a("192.0.2.1")).map(|x| *x.1), Some(1));
        assert_eq!(t.lookup(a("192.0.2.2")).map(|x| *x.1), Some(0));
        assert_eq!(t.lookup(a("192.0.2.255")).map(|x| *x.1), Some(2));
        assert_eq!(t.lookup(a("192.0.3.1")), None);
        // matches() reports the full nesting for the /32.
        let m = t.matches(a("192.0.2.255"));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, p("192.0.2.0/24"));
        assert_eq!(m[1].0, p("192.0.2.255/32"));
    }

    #[test]
    fn prefix_set_basics() {
        let mut s = PrefixSet::new();
        assert!(s.insert(p("198.51.100.0/24")));
        assert!(!s.insert(p("198.51.100.0/24")));
        assert!(s.contains(p("198.51.100.0/24")));
        assert!(!s.contains(p("198.51.0.0/16")));
        assert!(s.covers_addr(a("198.51.100.77")));
        assert!(!s.covers_addr(a("198.51.101.77")));
        assert_eq!(
            s.longest_match(a("198.51.100.77")),
            Some(p("198.51.100.0/24"))
        );
    }
}
