//! Input data (§5.2 of the paper) and IP-to-AS mapping.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_probe::Trace;
use bdrmap_types::RirRecord;
use bdrmap_types::{Addr, Asn, Prefix, PrefixSet, PrefixTrie};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything bdrmap is seeded with: all public, none of it ground
/// truth.
pub struct Input {
    /// The public BGP view (prefix origins + visible links).
    pub view: CollectorView,
    /// AS relationships inferred from that view.
    pub rels: InferredRelationships,
    /// IXP peering LAN prefixes (PeeringDB/PCH substitute).
    pub ixp_prefixes: Vec<Prefix>,
    /// RIR delegation records (prefix → opaque org ID).
    pub rir: Vec<RirRecord>,
    /// The hosting network's ASes: the measured AS plus its manually
    /// curated siblings (§5.2 "VP ASes").
    pub vp_asns: Vec<Asn>,
}

/// What an address maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mapping {
    /// Originated (or estimated to be held) by the hosting network.
    Vp,
    /// Originated by external ASes (usually one; several for MOAS).
    External(Vec<Asn>),
    /// Inside an IXP peering LAN.
    Ixp,
    /// Not covered by any announcement.
    Unrouted,
}

impl Mapping {
    /// The external origin if the mapping is a single external AS.
    pub fn single_external(&self) -> Option<Asn> {
        match self {
            Mapping::External(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }

    /// All external origins (empty otherwise).
    pub fn externals(&self) -> &[Asn] {
        match self {
            Mapping::External(v) => v,
            _ => &[],
        }
    }
}

/// The prefix tables every [`Ip2As`] built from one [`Input`] shares:
/// the collector view's origins, the IXP LANs and the VP ASes.
struct BaseTables {
    view_origins: PrefixTrie<Vec<Asn>>,
    ixps: PrefixSet,
    vp_asns: Vec<Asn>,
}

/// The IP-to-AS mapper: collector view + IXP list + estimated VP space.
/// Mappers with different estimates share the view and IXP tries, so
/// swapping in a new estimate costs only the estimate.
pub struct Ip2As {
    base: Arc<BaseTables>,
    /// Prefixes estimated to belong to the hosting network although it
    /// does not announce them (§5.4.1, via RIR delegations).
    estimated_vp: PrefixSet,
}

/// A [`Mapping`] borrowed from the tries that hold it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MappingRef<'a> {
    Vp,
    External(&'a [Asn]),
    Ixp,
    Unrouted,
}

impl MappingRef<'_> {
    fn to_mapping(self) -> Mapping {
        match self {
            MappingRef::Vp => Mapping::Vp,
            MappingRef::External(o) => Mapping::External(o.to_vec()),
            MappingRef::Ixp => Mapping::Ixp,
            MappingRef::Unrouted => Mapping::Unrouted,
        }
    }
}

impl Ip2As {
    fn resolve(&self, a: Addr) -> MappingRef<'_> {
        let base = &*self.base;
        if base.ixps.covers_addr(a) {
            return MappingRef::Ixp;
        }
        if let Some((_, origins)) = base.view_origins.lookup(a) {
            if origins.iter().any(|o| base.vp_asns.contains(o)) {
                return MappingRef::Vp;
            }
            return MappingRef::External(origins);
        }
        if self.estimated_vp.covers_addr(a) {
            return MappingRef::Vp;
        }
        MappingRef::Unrouted
    }

    /// Map one address.
    pub fn lookup(&self, a: Addr) -> Mapping {
        self.resolve(a).to_mapping()
    }

    /// True if the address maps to an external network (the stop-set /
    /// block-retry criterion of §5.3).
    pub fn is_external(&self, a: Addr) -> bool {
        matches!(self.resolve(a), MappingRef::External(_))
    }

    /// True if the address maps to the hosting network.
    pub fn is_vp(&self, a: Addr) -> bool {
        self.resolve(a) == MappingRef::Vp
    }

    /// The hosting network's primary ASN.
    pub fn vp_asn(&self) -> Asn {
        self.base.vp_asns[0]
    }

    /// The hosting network's sibling set.
    pub fn vp_asns(&self) -> &[Asn] {
        &self.base.vp_asns
    }
}

/// Anything that maps addresses to networks. [`Ip2As`] resolves every
/// lookup through its prefix trie; [`Ip2AsCache`] wraps it with a
/// per-run memo so the heuristics walk, graph build, and alias
/// candidate filtering resolve each observed address once.
pub trait IpMapper {
    /// Map one address.
    fn lookup(&self, a: Addr) -> Mapping;

    /// True if the address maps to an external network; answered
    /// without copying the origins.
    fn is_external(&self, a: Addr) -> bool;

    /// True if the address maps to the hosting network.
    fn is_vp(&self, a: Addr) -> bool;

    /// The hosting network's primary ASN.
    fn vp_asn(&self) -> Asn;

    /// The hosting network's sibling set.
    fn vp_asns(&self) -> &[Asn];
}

impl IpMapper for Ip2As {
    fn lookup(&self, a: Addr) -> Mapping {
        Ip2As::lookup(self, a)
    }

    fn is_external(&self, a: Addr) -> bool {
        Ip2As::is_external(self, a)
    }

    fn is_vp(&self, a: Addr) -> bool {
        Ip2As::is_vp(self, a)
    }

    fn vp_asn(&self) -> Asn {
        Ip2As::vp_asn(self)
    }

    fn vp_asns(&self) -> &[Asn] {
        Ip2As::vp_asns(self)
    }
}

/// Hit/miss counters of an [`Ip2AsCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that walked the trie.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the memo.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoizing view over an [`Ip2As`]: each distinct address is
/// trie-resolved at most once per cache lifetime. Single-threaded by
/// design (interior mutability via `RefCell`) — the inference stages
/// that consume it all run on one thread.
pub struct Ip2AsCache<'a> {
    inner: &'a Ip2As,
    memo: RefCell<HashMap<Addr, Mapping>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> Ip2AsCache<'a> {
    /// A fresh cache over `inner`.
    pub fn new(inner: &'a Ip2As) -> Self {
        Ip2AsCache {
            inner,
            memo: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Apply `f` to the memoized mapping of `a`, resolving and
    /// memoizing it on a miss. Every call counts one hit or one miss.
    fn with_mapping<R>(&self, a: Addr, f: impl FnOnce(&Mapping) -> R) -> R {
        if let Some(m) = self.memo.borrow().get(&a) {
            self.hits.set(self.hits.get() + 1);
            return f(m);
        }
        let m = self.inner.lookup(a);
        self.misses.set(self.misses.get() + 1);
        let out = f(&m);
        self.memo.borrow_mut().insert(a, m);
        out
    }
}

impl IpMapper for Ip2AsCache<'_> {
    fn lookup(&self, a: Addr) -> Mapping {
        self.with_mapping(a, Mapping::clone)
    }

    fn is_external(&self, a: Addr) -> bool {
        self.with_mapping(a, |m| matches!(m, Mapping::External(_)))
    }

    fn is_vp(&self, a: Addr) -> bool {
        self.with_mapping(a, |m| *m == Mapping::Vp)
    }

    fn vp_asn(&self) -> Asn {
        self.inner.vp_asn()
    }

    fn vp_asns(&self) -> &[Asn] {
        self.inner.vp_asns()
    }
}

/// VP-space estimation (§5.4.1) split per trace: the blocks each trace
/// attributes to the hosting network, and the mapper a set of blocks
/// yields. Holds the probing-time mapper and the RIR trie, both built
/// once from one [`Input`].
pub(crate) struct VpEstimator {
    base: Ip2As,
    rir: PrefixTrie<Prefix>,
}

impl VpEstimator {
    /// Build the probing-time mapper and the RIR trie of `input`.
    pub(crate) fn new(input: &Input) -> VpEstimator {
        VpEstimator {
            base: input.ip2as_for_probing(),
            rir: input.rir.iter().map(|r| (r.prefix, r.prefix)).collect(),
        }
    }

    /// The blocks `tr` attributes to the hosting network, in hop order
    /// (repeats included): wherever an address originated by the
    /// hosting network appears, every *unrouted* address earlier in the
    /// trace is estimated to be the hosting network's too, and its
    /// covering RIR delegation — or a /24 around it if no record
    /// matches — is attributed whole.
    pub(crate) fn blocks<'t>(&'t self, tr: &'t Trace) -> impl Iterator<Item = Prefix> + 't {
        let last_vp = tr
            .hops
            .iter()
            .rposition(|h| h.addr.is_some_and(|a| self.base.is_vp(a)))
            .unwrap_or(0);
        tr.hops[..last_vp]
            .iter()
            .filter_map(|h| h.addr)
            .filter(|&a| self.base.resolve(a) == MappingRef::Unrouted)
            .map(|a| match self.rir.lookup(a) {
                Some((_, &block)) => block,
                None => Prefix::new(a, 24),
            })
    }

    /// The final mapper for an estimated VP space of `blocks`; the view
    /// and IXP tries are shared, not rebuilt.
    pub(crate) fn ip2as(&self, blocks: impl IntoIterator<Item = Prefix>) -> Ip2As {
        Ip2As {
            base: Arc::clone(&self.base.base),
            estimated_vp: blocks.into_iter().collect(),
        }
    }
}

impl Input {
    /// The mapper used during probing, before VP-space estimation is
    /// possible (no traces yet).
    pub fn ip2as_for_probing(&self) -> Ip2As {
        let base = BaseTables {
            view_origins: self.view.prefixes().map(|(p, o)| (p, o.to_vec())).collect(),
            ixps: self.ixp_prefixes.iter().copied().collect(),
            vp_asns: self.vp_asns.clone(),
        };
        Ip2As {
            base: Arc::new(base),
            estimated_vp: PrefixSet::new(),
        }
    }

    /// The final mapper: walks the traces and, wherever an address
    /// originated by the hosting network appears, estimates that any
    /// *unrouted* address earlier in that trace is also the hosting
    /// network's, attributing the whole RIR-delegated block (§5.4.1).
    pub fn ip2as_with_estimation(&self, traces: &[Trace]) -> Ip2As {
        let est = VpEstimator::new(self);
        est.ip2as(traces.iter().flat_map(|tr| est.blocks(tr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_bgp::{AsGraph, OriginTable, RoutingOracle};
    use bdrmap_probe::{TraceHop, TraceStop};
    use bdrmap_types::Relationship;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn input() -> Input {
        let mut g = AsGraph::new();
        let t1 = g.add_as(); // collector peer / tier-1
        let vp = g.add_as();
        let ext = g.add_as();
        g.add_link(t1, vp, Relationship::Customer);
        g.add_link(vp, ext, Relationship::Customer);
        let mut t = OriginTable::new();
        t.announce(p("10.2.0.0/16"), vp);
        t.announce(p("10.3.0.0/16"), ext);
        let oracle = RoutingOracle::new(g, t);
        let view = CollectorView::collect(&oracle, &[t1]);
        let rels = InferredRelationships::infer(&view);
        Input {
            view,
            rels,
            ixp_prefixes: vec![p("198.32.0.0/24")],
            rir: vec![RirRecord {
                prefix: p("172.16.8.0/22"),
                opaque_org: 42,
            }],
            vp_asns: vec![vp],
        }
    }

    #[test]
    fn basic_mappings() {
        let ip2as = input().ip2as_for_probing();
        assert_eq!(ip2as.lookup(a("10.2.1.1")), Mapping::Vp);
        assert_eq!(ip2as.lookup(a("10.3.1.1")), Mapping::External(vec![Asn(3)]));
        assert_eq!(ip2as.lookup(a("198.32.0.9")), Mapping::Ixp);
        assert_eq!(ip2as.lookup(a("172.16.9.1")), Mapping::Unrouted);
        assert!(ip2as.is_external(a("10.3.1.1")));
        assert!(!ip2as.is_external(a("10.2.1.1")));
    }

    #[test]
    fn vp_space_estimation_from_traces() {
        let inp = input();
        let hop = |addr: &str, ttl| TraceHop {
            ttl,
            addr: Some(a(addr)),
            time_exceeded: true,
            other_icmp: false,
            ipid: 0,
        };
        // An unrouted RIR-delegated address appears *before* a VP
        // address: the whole delegated block becomes VP space.
        let tr = Trace {
            dst: a("10.3.0.1"),
            target_as: Asn(3),
            hops: vec![hop("172.16.9.1", 1), hop("10.2.0.1", 2), hop("10.3.0.9", 3)],
            stop: TraceStop::GapLimit,
        };
        let ip2as = inp.ip2as_with_estimation(&[tr]);
        assert_eq!(ip2as.lookup(a("172.16.9.1")), Mapping::Vp);
        // The whole /22 is attributed, not just the /32.
        assert_eq!(ip2as.lookup(a("172.16.11.200")), Mapping::Vp);
        // But unrelated unrouted space is not.
        assert_eq!(ip2as.lookup(a("172.16.12.1")), Mapping::Unrouted);
    }

    #[test]
    fn unrouted_after_vp_is_not_estimated() {
        let inp = input();
        let hop = |addr: &str, ttl| TraceHop {
            ttl,
            addr: Some(a(addr)),
            time_exceeded: true,
            other_icmp: false,
            ipid: 0,
        };
        let tr = Trace {
            dst: a("10.3.0.1"),
            target_as: Asn(3),
            hops: vec![hop("10.2.0.1", 1), hop("172.16.9.1", 2)],
            stop: TraceStop::GapLimit,
        };
        let ip2as = inp.ip2as_with_estimation(&[tr]);
        assert_eq!(
            ip2as.lookup(a("172.16.9.1")),
            Mapping::Unrouted,
            "space beyond the last VP hop belongs to neighbors, not the VP"
        );
    }

    #[test]
    fn cache_memoizes_and_agrees_with_inner() {
        let ip2as = input().ip2as_for_probing();
        let cache = Ip2AsCache::new(&ip2as);
        for addr in ["10.2.1.1", "10.3.1.1", "198.32.0.9", "172.16.9.1"] {
            let addr = a(addr);
            // First lookup misses, the rest hit, all agree with the trie.
            for _ in 0..3 {
                assert_eq!(IpMapper::lookup(&cache, addr), ip2as.lookup(addr));
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
        assert!((stats.hit_rate() - 8.0 / 12.0).abs() < 1e-9);
        assert_eq!(cache.vp_asn(), ip2as.vp_asn());
        // The predicates count like lookups: a hit each on memoized
        // addresses, and a miss that memoizes a new one.
        assert!(cache.is_vp(a("10.2.1.1")));
        assert!(cache.is_external(a("10.3.1.1")));
        assert!(!cache.is_vp(a("10.3.9.9")));
        assert!(cache.is_external(a("10.3.9.9")));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 11,
                misses: 5
            }
        );
    }

    #[test]
    fn moas_mapping_keeps_all_origins() {
        let m = Mapping::External(vec![Asn(3), Asn(5)]);
        assert_eq!(m.single_external(), None);
        assert_eq!(m.externals(), &[Asn(3), Asn(5)]);
        assert_eq!(
            Mapping::External(vec![Asn(3)]).single_external(),
            Some(Asn(3))
        );
        assert!(Mapping::Vp.externals().is_empty());
    }
}
