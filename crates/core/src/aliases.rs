//! Alias-resolution driving (§5.3 "Resolve IP address aliases").
//!
//! bdrmap assembles candidate alias sets as it walks the traces and
//! probes them with Mercator, Ally, and prefixscan. Negative Ally
//! results are kept as vetoes: a pair the measurements said was *not*
//! aliases must never be merged, even transitively.
//!
//! The engine is staged the way MIDAR scales alias resolution: all
//! candidates are generated up front and deduplicated through canonical
//! pair keys, the cheap tests (Mercator: one probe per address;
//! prefixscan: a handful per segment) run first, and the expensive
//! Ally/MBT IPID time-series tests run last over only the pairs the
//! cheap stages left unresolved. Each stage fans its tests across
//! scoped worker threads as independent tasks (see
//! [`Prober::ally_task`]); task ids are content-keyed hashes (a pure
//! function of the test kind and addresses, see [`task_id`]) and their
//! results applied in job order, so the output is byte-identical to
//! the serial run at any parallelism — and a pair re-tested in a later
//! run (the incremental engine's case) replays the exact same virtual
//! timeline and yields the exact same verdict and packet count.

use crate::input::{IpMapper, Mapping};
use bdrmap_probe::{AliasVerdict, Prober, ProberShard, ShardBudget, Trace, TASK_BUCKETS};
use bdrmap_types::wire::WireWriter;
use bdrmap_types::{addr_bits, Addr};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;

/// Tunables for [`resolve`].
#[derive(Clone, Copy, Debug)]
pub struct AliasConfig {
    /// Cap on Ally tests per shared-predecessor candidate set.
    pub max_ally_per_set: usize,
    /// Worker threads the pair tests are sharded across. `1` runs
    /// everything inline on the caller's thread (the fault-replay
    /// path); any value produces byte-identical output.
    pub parallelism: usize,
    /// Stage the tests (dedup + cheap-first). `false` reproduces the
    /// naive engine — every candidate probed as discovered — kept as
    /// the benchmark baseline.
    pub staged: bool,
}

impl Default for AliasConfig {
    fn default() -> Self {
        AliasConfig {
            max_ally_per_set: 8,
            parallelism: 1,
            staged: true,
        }
    }
}

/// Work accounting for one [`resolve`] run.
#[derive(Clone, Debug, Default)]
pub struct AliasStats {
    /// Mercator tests executed (one per distinct TE address).
    pub mercator_tests: u64,
    /// Distinct directed trace segments considered for prefixscan.
    pub prefixscan_candidates: u64,
    /// Segments dropped by canonical-pair dedup.
    pub prefixscan_deduped: u64,
    /// Prefixscan tests executed.
    pub prefixscan_executed: u64,
    /// Ally candidate pairs that passed the compatibility filter.
    pub ally_candidates: u64,
    /// Candidates skipped because a cheaper stage already confirmed
    /// the pair as aliases.
    pub ally_staged_out: u64,
    /// Candidates skipped because the pair was already tested in an
    /// earlier stage (canonical-pair dedup).
    pub ally_deduped: u64,
    /// Ally tests executed.
    pub ally_executed: u64,
    /// Packets all alias tests sent.
    pub packets: u64,
    /// Per-worker traffic partition.
    pub shards: Vec<ShardBudget>,
    /// Traffic partitioned by stable task-id hash bucket
    /// ([`ShardBudget::shard`] is the bucket, 0..16). Unlike `shards`,
    /// this partition is byte-identical at any parallelism.
    pub hash_shards: Vec<ShardBudget>,
}

/// The stable, content-keyed task id for an alias test: a splitmix64
/// hash of the test kind and the addresses. Ids do not depend on how
/// many other tasks a run happens to schedule, so the same test in any
/// later run replays the same virtual probe timeline (the byte-
/// determinism the incremental engine's scoped re-testing relies on).
pub fn task_id(kind: TaskKind, a: Addr, b: Addr) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let ab = ((u32::from(a) as u64) << 32) | u32::from(b) as u64;
    mix(mix(kind as u64) ^ ab)
}

/// The alias-test kinds [`task_id`] distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Mercator source-address probe (single address; pass it twice).
    Mercator = 1,
    /// Prefixscan subnet-mate test of a directed (prev, cur) segment.
    Prefixscan = 2,
    /// Ally/MBT IPID time-series test of a canonical pair.
    Ally = 3,
}

/// Confirmed alias pairs and vetoes.
#[derive(Debug, Default)]
pub struct AliasData {
    /// Pairs confirmed to share a router.
    pub aliases: Vec<(Addr, Addr)>,
    /// Pairs measured to be on different routers.
    pub not_aliases: HashSet<(Addr, Addr)>,
    /// Addresses confirmed (by prefixscan) to be the inbound interface
    /// of a point-to-point link from the given previous-hop address.
    pub ptp_confirmed: Vec<(Addr, Addr)>,
    /// Alias probes spent.
    pub pairs_tested: usize,
    /// How the run went (stage sizes, dedup wins, shard budgets).
    pub stats: AliasStats,
}

impl AliasData {
    /// Normalised key for a pair.
    pub fn key(a: Addr, b: Addr) -> (Addr, Addr) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// True if the pair was measured as not-aliases.
    pub fn vetoed(&self, a: Addr, b: Addr) -> bool {
        self.not_aliases.contains(&Self::key(a, b))
    }

    /// Deterministic byte encoding of the measurement outcome —
    /// aliases, vetoes, point-to-point confirmations, pair-test count.
    /// Run-shape diagnostics ([`AliasData::stats`]) are excluded: shard
    /// budgets legitimately differ across parallelism levels while the
    /// outcome must not. Two runs are equivalent iff these bytes match.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        let put_pairs = |w: &mut WireWriter, pairs: &[(Addr, Addr)]| {
            w.put_u32(pairs.len() as u32);
            for &(a, b) in pairs {
                w.put_u32(addr_bits(a));
                w.put_u32(addr_bits(b));
            }
        };
        put_pairs(&mut w, &self.aliases);
        let mut vetoes: Vec<(Addr, Addr)> = self.not_aliases.iter().copied().collect();
        vetoes.sort_unstable();
        put_pairs(&mut w, &vetoes);
        put_pairs(&mut w, &self.ptp_confirmed);
        w.put_u64(self.pairs_tested as u64);
        w.into_vec()
    }
}

/// Fold a finished worker tally into the per-shard accumulator.
fn absorb_shard(shards: &mut Vec<ShardBudget>, b: ShardBudget) {
    while shards.len() <= b.shard {
        shards.push(ShardBudget {
            shard: shards.len(),
            ..ShardBudget::default()
        });
    }
    shards[b.shard].absorb(&b);
}

/// Run one stage's tasks sharded across scoped workers.
///
/// Each job carries its content-keyed task id (see [`task_id`]); job
/// `i` lands on worker `i % workers`, each worker drives its own
/// [`ProberShard`], and `(index, result)` pairs are merged back in
/// index order. Because every task is self-contained (its responses
/// depend only on its id and addresses, not on scheduling — see
/// [`Prober::ally_task`]), the merged result vector is identical at
/// any worker count, including the inline `workers == 1` path.
fn run_tasks<P, J, R>(
    prober: &P,
    parallelism: usize,
    jobs: &[(u64, J)],
    run: impl Fn(&mut ProberShard<'_, P>, u64, &J) -> R + Sync,
    shards: &mut Vec<ShardBudget>,
    hash_shards: &mut Vec<ShardBudget>,
) -> Vec<R>
where
    P: Prober + ?Sized,
    J: Sync,
    R: Send,
{
    let absorb_buckets = |shards: &mut Vec<ShardBudget>, b: [ShardBudget; TASK_BUCKETS]| {
        for bucket in b {
            absorb_shard(shards, bucket);
        }
    };
    let workers = parallelism.max(1).min(jobs.len().max(1));
    if workers <= 1 {
        let mut shard = ProberShard::new(prober, 0);
        let out = jobs
            .iter()
            .map(|&(t, ref j)| run(&mut shard, t, j))
            .collect();
        absorb_shard(shards, shard.budget());
        absorb_buckets(hash_shards, shard.bucket_budgets());
        return out;
    }
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let budgets: Mutex<Vec<(ShardBudget, [ShardBudget; TASK_BUCKETS])>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let results = &results;
            let budgets = &budgets;
            let run = &run;
            scope.spawn(move || {
                let mut shard = ProberShard::new(prober, w);
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut i = w;
                while i < jobs.len() {
                    let (t, ref j) = jobs[i];
                    local.push((i, run(&mut shard, t, j)));
                    i += workers;
                }
                results.lock().unwrap().extend(local);
                budgets
                    .lock()
                    .unwrap()
                    .push((shard.budget(), shard.bucket_budgets()));
            });
        }
    });
    for (b, buckets) in budgets.into_inner().unwrap() {
        absorb_shard(shards, b);
        absorb_buckets(hash_shards, buckets);
    }
    let mut collected = results.into_inner().unwrap();
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// The trace-derived inputs of alias resolution, as refcounted
/// multisets so they can be kept up to date one trace at a time: every
/// time-exceeded address (the Mercator candidates) and every window of
/// two consecutive time-exceeded addresses (the prefixscan segments
/// and, grouped by their first address, the Ally candidate sets).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AliasCandidates {
    te_addrs: BTreeMap<Addr, u32>,
    windows: BTreeMap<(Addr, Addr), u32>,
}

impl AliasCandidates {
    /// The candidates of a trace set.
    pub(crate) fn from_traces<'t>(traces: impl IntoIterator<Item = &'t Trace>) -> AliasCandidates {
        let mut c = AliasCandidates::default();
        for tr in traces {
            c.add(tr);
        }
        c
    }

    /// Count `tr`'s candidates in.
    pub(crate) fn add(&mut self, tr: &Trace) {
        let mut prev = None;
        for a in tr.te_addrs() {
            *self.te_addrs.entry(a).or_insert(0) += 1;
            if let Some(p) = prev {
                *self.windows.entry((p, a)).or_insert(0) += 1;
            }
            prev = Some(a);
        }
    }

    /// Count `tr`'s candidates out again; `tr` must have been added.
    pub(crate) fn remove(&mut self, tr: &Trace) {
        fn dec<K: Ord>(m: &mut BTreeMap<K, u32>, k: K) {
            let n = m.get_mut(&k).expect("removing a candidate never added");
            *n -= 1;
            if *n == 0 {
                m.remove(&k);
            }
        }
        let mut prev = None;
        for a in tr.te_addrs() {
            dec(&mut self.te_addrs, a);
            if let Some(p) = prev {
                dec(&mut self.windows, (p, a));
            }
            prev = Some(a);
        }
    }
}

/// Run the alias-resolution phase over collected traces.
pub fn resolve<P: Prober + ?Sized, M: IpMapper>(
    prober: &P,
    traces: &[Trace],
    ip2as: &M,
    cfg: &AliasConfig,
) -> AliasData {
    resolve_candidates(prober, &AliasCandidates::from_traces(traces), ip2as, cfg)
}

/// [`resolve`] over the candidates of a trace set rather than the
/// traces themselves. Jobs are derived in canonical (address-sorted)
/// order, so the outcome depends only on the candidate sets.
pub(crate) fn resolve_candidates<P: Prober + ?Sized, M: IpMapper>(
    prober: &P,
    cands: &AliasCandidates,
    ip2as: &M,
    cfg: &AliasConfig,
) -> AliasData {
    let mut data = AliasData::default();
    let mut stats = AliasStats::default();
    let mut shards: Vec<ShardBudget> = Vec::new();
    let mut hash_shards: Vec<ShardBudget> = Vec::new();
    let par = cfg.parallelism.max(1);

    // --- Job derivation (sequential, canonical order). ----------------
    // Mercator: every distinct time-exceeded address.
    let merc_jobs: Vec<(u64, Addr)> = cands
        .te_addrs
        .keys()
        .map(|&a| (task_id(TaskKind::Mercator, a, a), a))
        .collect();

    // Prefixscan: each (prev, cur) adjacency where cur might be a
    // far-side interface. The same pair discovered from multiple traces
    // or in both directions is normalised through `key` and tested once.
    let mut seen: HashSet<(Addr, Addr)> = HashSet::new();
    let mut pf_jobs: Vec<(u64, (Addr, Addr))> = Vec::new();
    for &(prev, cur) in cands.windows.keys().filter(|(a, b)| a != b) {
        stats.prefixscan_candidates += 1;
        if cfg.staged && !seen.insert(AliasData::key(prev, cur)) {
            stats.prefixscan_deduped += 1;
            continue;
        }
        pf_jobs.push((task_id(TaskKind::Prefixscan, prev, cur), (prev, cur)));
    }

    // --- Stage 1: Mercator (cheapest — one probe per address). --------
    stats.mercator_tests = merc_jobs.len() as u64;
    let merc_results = run_tasks(
        prober,
        par,
        &merc_jobs,
        |sh, t, &a| sh.mercator(t, a),
        &mut shards,
        &mut hash_shards,
    );
    let mut by_src: BTreeMap<Addr, Vec<Addr>> = BTreeMap::new();
    for (&(_, a), m) in merc_jobs.iter().zip(&merc_results) {
        let Some(m) = m else { continue };
        if m.responded_from != a {
            data.aliases.push((a, m.responded_from));
        }
        by_src.entry(m.responded_from).or_default().push(a);
    }
    // Two probed addresses answering from one source are aliases.
    for group in by_src.values() {
        for w in group.windows(2) {
            data.aliases.push((w[0], w[1]));
        }
    }
    // Pairs the cheap stages have already confirmed, so the expensive
    // Ally stage can skip them.
    let mut confirmed: HashSet<(Addr, Addr)> = data
        .aliases
        .iter()
        .map(|&(a, b)| AliasData::key(a, b))
        .collect();

    // --- Stage 2: prefixscan on deduplicated trace segments. ----------
    stats.prefixscan_executed = pf_jobs.len() as u64;
    let pf_results = run_tasks(
        prober,
        par,
        &pf_jobs,
        |sh, t, &(prev, cur)| sh.prefixscan(t, prev, cur),
        &mut shards,
        &mut hash_shards,
    );
    for (&(_, (prev, cur)), mate) in pf_jobs.iter().zip(&pf_results) {
        data.pairs_tested += 1;
        if let Some(mate) = *mate {
            data.ptp_confirmed.push((prev, cur));
            if mate != prev {
                data.aliases.push((mate, prev));
                confirmed.insert(AliasData::key(mate, prev));
            }
        }
    }

    // --- Stage 3: Ally on candidate sets sharing a predecessor. -------
    // Addresses that follow the same previous hop — toward any target
    // AS, since the same far router appears on paths to many
    // destinations — are candidates for being interfaces of one router
    // (load-balanced paths, virtual routers — the Figure 13 scenario).
    let windows: Vec<(Addr, Addr)> = cands.windows.keys().copied().collect();
    let mut tested: HashSet<(Addr, Addr)> = HashSet::new();
    let mut ally_jobs: Vec<(u64, (Addr, Addr))> = Vec::new();
    for set in windows.chunk_by(|x, y| x.0 == y.0) {
        // Only same-mapping candidates: two successors in different
        // networks are not plausibly one router.
        let members: Vec<Addr> = set.iter().map(|&(_, succ)| succ).collect();
        let mut budget = cfg.max_ally_per_set;
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if budget == 0 {
                    break;
                }
                let (a, b) = (members[i], members[j]);
                let key = AliasData::key(a, b);
                if tested.contains(&key) {
                    continue;
                }
                if !compatible_mapping(ip2as, a, b) {
                    continue;
                }
                stats.ally_candidates += 1;
                if cfg.staged {
                    if confirmed.contains(&key) {
                        // A cheaper test already resolved this pair.
                        stats.ally_staged_out += 1;
                        tested.insert(key);
                        continue;
                    }
                    if !seen.insert(key) {
                        stats.ally_deduped += 1;
                        tested.insert(key);
                        continue;
                    }
                }
                tested.insert(key);
                budget -= 1;
                ally_jobs.push((task_id(TaskKind::Ally, a, b), (a, b)));
            }
        }
    }
    stats.ally_executed = ally_jobs.len() as u64;
    let ally_results = run_tasks(
        prober,
        par,
        &ally_jobs,
        |sh, t, &(a, b)| sh.ally(t, a, b),
        &mut shards,
        &mut hash_shards,
    );
    for (&(_, (a, b)), v) in ally_jobs.iter().zip(&ally_results) {
        data.pairs_tested += 1;
        match v {
            AliasVerdict::Aliases => data.aliases.push((a, b)),
            AliasVerdict::NotAliases => {
                data.not_aliases.insert(AliasData::key(a, b));
            }
            AliasVerdict::Unknown => {}
        }
    }

    stats.packets = shards.iter().map(|s| s.packets).sum();
    stats.shards = shards;
    stats.hash_shards = hash_shards;
    data.stats = stats;
    data
}

/// Two addresses are plausible aliases only when their IP-AS mappings do
/// not contradict: identical external origin, either VP-mapped, one side
/// unrouted, or an IXP address (which lives on a member router).
fn compatible_mapping<M: IpMapper>(ip2as: &M, a: Addr, b: Addr) -> bool {
    match (ip2as.lookup(a), ip2as.lookup(b)) {
        (Mapping::External(x), Mapping::External(y)) => x.iter().any(|o| y.contains(o)),
        (Mapping::Unrouted, _) | (_, Mapping::Unrouted) => true,
        (Mapping::Ixp, _) | (_, Mapping::Ixp) => true,
        (Mapping::Vp, Mapping::Vp) => true,
        // A VP-mapped and an external address can share a neighbor's
        // border router (the neighbor numbers one side from VP space).
        (Mapping::Vp, Mapping::External(_)) | (Mapping::External(_), Mapping::Vp) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Input, Ip2As};
    use bdrmap_bgp::{AsGraph, CollectorView, InferredRelationships, OriginTable, RoutingOracle};
    use bdrmap_probe::{MercatorResult, ProbeBudget, StopSet, TraceHop, TraceStop};
    use bdrmap_types::{Asn, Prefix, Relationship};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn key_is_order_independent() {
        assert_eq!(
            AliasData::key(a("10.0.0.2"), a("10.0.0.1")),
            AliasData::key(a("10.0.0.1"), a("10.0.0.2"))
        );
    }

    #[test]
    fn veto_lookup() {
        let mut d = AliasData::default();
        d.not_aliases
            .insert(AliasData::key(a("10.0.0.1"), a("10.0.0.2")));
        assert!(d.vetoed(a("10.0.0.2"), a("10.0.0.1")));
        assert!(!d.vetoed(a("10.0.0.1"), a("10.0.0.3")));
    }

    #[test]
    fn canonical_bytes_ignore_stats_and_sort_vetoes() {
        let mut d1 = AliasData::default();
        d1.aliases.push((a("10.0.0.1"), a("10.0.0.2")));
        d1.not_aliases.insert((a("10.0.0.3"), a("10.0.0.4")));
        d1.not_aliases.insert((a("10.0.0.1"), a("10.0.0.9")));
        d1.pairs_tested = 3;
        let mut d2 = AliasData {
            stats: AliasStats {
                ally_executed: 99,
                shards: vec![ShardBudget {
                    shard: 0,
                    tests: 9,
                    packets: 900,
                }],
                ..AliasStats::default()
            },
            ..AliasData::default()
        };
        d2.aliases.push((a("10.0.0.1"), a("10.0.0.2")));
        d2.not_aliases.insert((a("10.0.0.1"), a("10.0.0.9")));
        d2.not_aliases.insert((a("10.0.0.3"), a("10.0.0.4")));
        d2.pairs_tested = 3;
        assert_eq!(d1.canonical_bytes(), d2.canonical_bytes());
        d2.pairs_tested = 4;
        assert_ne!(d1.canonical_bytes(), d2.canonical_bytes());
    }

    /// An IP-to-AS view where everything is unrouted (compatible with
    /// anything) except the announced VP prefix.
    fn unrouted_ip2as() -> Ip2As {
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

    /// A prober that never confirms anything but counts what each
    /// primitive was asked to do — except that Mercator reports the
    /// scripted pair as answering from one shared source.
    #[derive(Default)]
    struct CountingProber {
        mercator: AtomicU64,
        prefixscan: AtomicU64,
        ally: AtomicU64,
        shared_src: Option<(Addr, Addr, Addr)>,
    }

    impl Prober for CountingProber {
        fn trace(&self, dst: Addr, target_as: Asn, _stop: &StopSet) -> Trace {
            Trace {
                dst,
                target_as,
                hops: Vec::new(),
                stop: TraceStop::GapLimit,
            }
        }

        fn ally(&self, _a: Addr, _b: Addr) -> AliasVerdict {
            self.ally.fetch_add(1, Ordering::Relaxed);
            AliasVerdict::Unknown
        }

        fn mercator(&self, probed: Addr) -> Option<MercatorResult> {
            self.mercator.fetch_add(1, Ordering::Relaxed);
            let (x, y, src) = self.shared_src?;
            (probed == x || probed == y).then_some(MercatorResult {
                probed,
                responded_from: src,
            })
        }

        fn prefixscan(&self, _prev_hop: Addr, _addr: Addr) -> Option<Addr> {
            self.prefixscan.fetch_add(1, Ordering::Relaxed);
            None
        }

        fn budget(&self) -> ProbeBudget {
            ProbeBudget::default()
        }
    }

    /// Both directions of one adjacency appear in the traces; staging
    /// normalises them through `key` and tests the pair once.
    #[test]
    fn staged_dedup_tests_reversed_segments_once() {
        let traces = vec![
            trace(
                "10.9.0.1",
                9,
                vec![hop("172.16.0.1", 1), hop("172.16.0.2", 2)],
            ),
            trace(
                "10.9.0.2",
                9,
                vec![hop("172.16.0.2", 1), hop("172.16.0.1", 2)],
            ),
        ];
        let ip2as = unrouted_ip2as();

        let naive = CountingProber::default();
        let d = resolve(
            &naive,
            &traces,
            &ip2as,
            &AliasConfig {
                staged: false,
                ..AliasConfig::default()
            },
        );
        assert_eq!(naive.prefixscan.load(Ordering::Relaxed), 2);
        let naive_pairs = d.pairs_tested;

        let staged = CountingProber::default();
        let d = resolve(&staged, &traces, &ip2as, &AliasConfig::default());
        assert_eq!(staged.prefixscan.load(Ordering::Relaxed), 1);
        assert_eq!(d.stats.prefixscan_deduped, 1);
        assert!(
            d.pairs_tested < naive_pairs,
            "dedup must reduce executed pair tests: {} vs {naive_pairs}",
            d.pairs_tested
        );
    }

    /// A pair Mercator already confirmed is staged out of the Ally set.
    #[test]
    fn ally_skips_pairs_confirmed_by_cheap_stages() {
        // Two successors of one predecessor → an Ally candidate pair.
        let traces = vec![
            trace(
                "10.9.0.1",
                9,
                vec![hop("172.16.0.1", 1), hop("172.16.0.2", 2)],
            ),
            trace(
                "10.9.0.2",
                9,
                vec![hop("172.16.0.1", 1), hop("172.16.0.6", 2)],
            ),
        ];
        let ip2as = unrouted_ip2as();
        let shared = (a("172.16.0.2"), a("172.16.0.6"), a("172.16.0.9"));

        let naive = CountingProber {
            shared_src: Some(shared),
            ..CountingProber::default()
        };
        let _ = resolve(
            &naive,
            &traces,
            &ip2as,
            &AliasConfig {
                staged: false,
                ..AliasConfig::default()
            },
        );
        assert_eq!(naive.ally.load(Ordering::Relaxed), 1);

        let staged = CountingProber {
            shared_src: Some(shared),
            ..CountingProber::default()
        };
        let d = resolve(&staged, &traces, &ip2as, &AliasConfig::default());
        assert_eq!(staged.ally.load(Ordering::Relaxed), 0);
        assert_eq!(d.stats.ally_staged_out, 1);
        assert_eq!(d.stats.ally_executed, 0);
        // The pair is still in the alias set, via Mercator.
        assert!(d.aliases.contains(&(a("172.16.0.2"), a("172.16.0.6"))));
    }

    /// The shard accumulator partitions tests deterministically.
    #[test]
    fn shard_budgets_cover_all_tests() {
        let traces = vec![
            trace(
                "10.9.0.1",
                9,
                vec![hop("172.16.0.1", 1), hop("172.16.0.2", 2)],
            ),
            trace(
                "10.9.0.2",
                9,
                vec![hop("172.16.0.1", 1), hop("172.16.0.6", 2)],
            ),
            trace(
                "10.9.0.3",
                9,
                vec![hop("172.16.0.5", 1), hop("172.16.0.6", 2)],
            ),
        ];
        let ip2as = unrouted_ip2as();
        let p = CountingProber::default();
        let d = resolve(
            &p,
            &traces,
            &ip2as,
            &AliasConfig {
                parallelism: 4,
                ..AliasConfig::default()
            },
        );
        let tests: u64 = d.stats.shards.iter().map(|s| s.tests).sum();
        let executed = d.stats.mercator_tests + d.stats.prefixscan_executed + d.stats.ally_executed;
        assert_eq!(tests, executed);
        assert!(d.stats.shards.len() > 1, "parallel run uses several shards");
    }
}
