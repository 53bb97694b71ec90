//! Incremental inference: stream trace batches into a live router
//! graph and re-run the §5.4 walk over only the dirty region.
//!
//! The one-shot pipeline ([`crate::pipeline::run_stages`]) rebuilds
//! everything from scratch per run. [`IncrementalEngine`] instead keeps
//! the cumulative trace set (keyed by destination) together with what
//! each held trace contributes to the pass inputs — the blocks it adds
//! to the estimated VP space (§5.4.1) and its alias candidates, both as
//! refcounted multisets updated only for the traces a batch upserts or
//! retracts — and per batch:
//!
//! 1. builds the IP-to-AS mapper from the block multiset, sharing the
//!    view and IXP tries built once for the engine's life;
//! 2. replays alias resolution through a [`CachingProber`] over the
//!    candidate multisets — task ids
//!    are content-keyed ([`crate::aliases::task_id`]), so a pair tested
//!    in an earlier pass replays its cached verdict and packet count
//!    byte-for-byte, and only genuinely new pairs touch the network;
//! 3. rebuilds the router graph (cheap, pure CPU) and diffs each
//!    router's canonical record against the previous pass;
//! 4. expands the dirty set to its closure (everything whose §5.4
//!    decision could observe a change) and re-runs the ownership walk
//!    over only that region, seeding every clean router with its
//!    previous decision ([`crate::heuristics::infer_seeded`]).
//!
//! The correctness contract is absolute: after any batch sequence the
//! emitted map is byte-identical to a from-scratch [`run_stages`] over
//! the same cumulative traces (see `shadow_collection` and the
//! property tests). Two properties carry the argument:
//!
//! * **Probe determinism.** Alias verdicts and packet counts are pure
//!   functions of (topology, task id, addresses); ids are pure
//!   functions of the test content. A fresh engine only ever charges
//!   `packets += n; clock += n·tick` per task, so the cumulative
//!   budget a shadow rebuild reports is `Σ packets` and
//!   `Σ packets · tick / 1000` — exactly what [`CachingProber`]
//!   synthesises from cached counts.
//! * **Walk locality.** A router's §5.4.1–§5.4.6 decision reads its own
//!   record, its neighbours' records, the paths through it, and the
//!   IP-to-AS mappings of those addresses — never another router's
//!   decision. Dirtying every router whose inputs changed, plus one
//!   adjacency step, therefore covers every decision that could
//!   differ; the global post-passes (§5.4.7 collapse, link extraction,
//!   §5.4.8 silent neighbours) are cheap and re-run in full.

use crate::aliases::{self, AliasCandidates, AliasConfig, AliasData};
use crate::graph::ObservedGraph;
use crate::heuristics::{self, OwnerDecision};
use crate::input::{Input, Ip2AsCache, IpMapper, Mapping, VpEstimator};
use crate::output::BorderMap;
use crate::BdrmapConfig;
use bdrmap_probe::{
    AliasVerdict, MercatorResult, ProbeBudget, Prober, StopSet, Trace, TraceCollection,
};
use bdrmap_types::{Addr, Asn, Prefix};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One batch of trace-set edits.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Traces to add, or to replace if a trace to the same destination
    /// is already held.
    pub upserts: Vec<Trace>,
    /// Destinations whose traces are withdrawn.
    pub retractions: Vec<Addr>,
}

impl Batch {
    /// A batch that only adds/replaces traces.
    pub fn upserts(traces: Vec<Trace>) -> Batch {
        Batch {
            upserts: traces,
            retractions: Vec::new(),
        }
    }
}

/// What one [`IncrementalEngine::apply`] pass did.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// 1-based pass number.
    pub pass: u64,
    /// Cumulative traces after the batch.
    pub traces: usize,
    /// Batch edits that introduced a new destination.
    pub added: usize,
    /// Batch edits that replaced an existing destination's trace.
    pub replaced: usize,
    /// Destinations withdrawn.
    pub retracted: usize,
    /// Routers in the rebuilt graph.
    pub routers: usize,
    /// Routers whose direct inputs changed.
    pub dirty: usize,
    /// Dirty set after closure expansion — the re-inferred region.
    pub reinferred: usize,
    /// Routers that reused their previous decision.
    pub reused: usize,
    /// True when no previous pass existed (everything inferred).
    pub full_walk: bool,
    /// Alias tasks answered from the cache.
    pub alias_cache_hits: u64,
    /// Alias tasks that probed the network.
    pub alias_cache_misses: u64,
    /// Alias packets the cumulative budget accounts for this pass.
    pub alias_packets: u64,
    /// Addresses whose IP-to-AS mapping changed since the last pass.
    pub remapped_addrs: usize,
    /// Wall-clock for the whole pass, ms.
    pub pass_ms: f64,
    /// Wall-clock of each phase of the pass; together they make up
    /// `pass_ms` but for the metric recording at its end.
    pub phases: PassPhases,
}

/// Wall-clock of each phase of one [`IncrementalEngine::apply`] pass, in
/// the order they run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassPhases {
    /// Trace-set edits, with the per-trace VP-space and alias-candidate
    /// updates.
    pub edits: Duration,
    /// The IP-to-AS mapper over the estimated VP space.
    pub ip2as: Duration,
    /// Alias resolution, replayed through the task cache.
    pub alias: Duration,
    /// The router-graph rebuild.
    pub graph: Duration,
    /// Records, path forms and mappings, and their diff into the dirty
    /// set and seeds.
    pub diff: Duration,
    /// The seeded §5.4 walk and its global post-passes.
    pub walk: Duration,
    /// The state the next pass diffs against.
    pub state: Duration,
}

impl PassPhases {
    /// `(name, wall-clock)` of each phase, in pass order.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("edits", self.edits),
            ("ip2as", self.ip2as),
            ("alias", self.alias),
            ("graph", self.graph),
            ("diff", self.diff),
            ("walk", self.walk),
            ("state", self.state),
        ]
    }
}

/// Cache key for one alias task: kind, content-keyed id, addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TaskKey {
    Mercator(u64, Addr),
    Prefixscan(u64, Addr, Addr),
    Ally(u64, Addr, Addr),
}

#[derive(Clone, Copy, Debug)]
enum TaskResult {
    Mercator(Option<MercatorResult>),
    Prefixscan(Option<Addr>),
    Ally(AliasVerdict),
}

#[derive(Clone, Copy, Debug)]
struct CachedTask {
    result: TaskResult,
    packets: u64,
}

/// A [`Prober`] that memoizes alias tasks and synthesises the budget a
/// fresh engine running exactly these tasks would report.
///
/// On a hit the cached verdict and packet count are replayed without
/// touching the inner prober; on a miss the inner prober runs the task
/// (its result is a pure function of the task id and addresses, so
/// caching is sound) and the outcome is stored. [`Prober::budget`]
/// returns `packets = Σ charged` and `elapsed_ms = Σ charged · tick_us
/// / 1000` — the exact totals a fresh [`bdrmap_probe::ProbeEngine`]
/// accumulates when it runs only alias tasks, which is what a
/// from-scratch `run_stages` rebuild observes at budget-capture time.
pub struct CachingProber<'a, P: Prober + ?Sized> {
    inner: &'a P,
    cache: Mutex<HashMap<TaskKey, CachedTask>>,
    tick_us: u64,
    charged: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a, P: Prober + ?Sized> CachingProber<'a, P> {
    /// Wrap `inner`, paced at `tick_us` microseconds per packet (use
    /// `1_000_000 / pps` of the engine the shadow rebuild will use).
    pub fn new(inner: &'a P, tick_us: u64) -> Self {
        CachingProber {
            inner,
            cache: Mutex::new(HashMap::new()),
            tick_us,
            charged: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Reset the per-pass charge and hit/miss counters, keeping the
    /// cached task results.
    fn begin_pass(&self) {
        self.charged.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn lookup(&self, key: &TaskKey) -> Option<CachedTask> {
        let hit = self.cache.lock().unwrap().get(key).copied();
        if let Some(c) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.charged.fetch_add(c.packets, Ordering::Relaxed);
        }
        hit
    }

    fn store(&self, key: TaskKey, result: TaskResult, packets: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.charged.fetch_add(packets, Ordering::Relaxed);
        self.cache
            .lock()
            .unwrap()
            .insert(key, CachedTask { result, packets });
    }
}

impl<P: Prober + ?Sized> Prober for CachingProber<'_, P> {
    fn trace(&self, dst: Addr, target_as: Asn, stop: &StopSet) -> Trace {
        self.inner.trace(dst, target_as, stop)
    }

    // The sequential primitives are uncached passthroughs; the staged
    // alias engine only ever calls the task forms below.
    fn ally(&self, a: Addr, b: Addr) -> AliasVerdict {
        self.inner.ally(a, b)
    }

    fn mercator(&self, a: Addr) -> Option<MercatorResult> {
        self.inner.mercator(a)
    }

    fn prefixscan(&self, prev_hop: Addr, addr: Addr) -> Option<Addr> {
        self.inner.prefixscan(prev_hop, addr)
    }

    fn budget(&self) -> ProbeBudget {
        let packets = self.charged.load(Ordering::Relaxed);
        ProbeBudget {
            packets,
            elapsed_ms: packets * self.tick_us / 1000,
        }
    }

    fn ally_task(&self, task: u64, a: Addr, b: Addr) -> (AliasVerdict, u64) {
        let key = TaskKey::Ally(task, a, b);
        if let Some(c) = self.lookup(&key) {
            if let TaskResult::Ally(v) = c.result {
                return (v, c.packets);
            }
        }
        let (v, packets) = self.inner.ally_task(task, a, b);
        self.store(key, TaskResult::Ally(v), packets);
        (v, packets)
    }

    fn mercator_task(&self, task: u64, a: Addr) -> (Option<MercatorResult>, u64) {
        let key = TaskKey::Mercator(task, a);
        if let Some(c) = self.lookup(&key) {
            if let TaskResult::Mercator(m) = c.result {
                return (m, c.packets);
            }
        }
        let (m, packets) = self.inner.mercator_task(task, a);
        self.store(key, TaskResult::Mercator(m), packets);
        (m, packets)
    }

    fn prefixscan_task(&self, task: u64, prev_hop: Addr, addr: Addr) -> (Option<Addr>, u64) {
        let key = TaskKey::Prefixscan(task, prev_hop, addr);
        if let Some(c) = self.lookup(&key) {
            if let TaskResult::Prefixscan(m) = c.result {
                return (m, c.packets);
            }
        }
        let (m, packets) = self.inner.prefixscan_task(task, prev_hop, addr);
        self.store(key, TaskResult::Prefixscan(m), packets);
        (m, packets)
    }
}

/// Everything a router's §5.4.1–§5.4.6 decision reads from its own
/// graph node, in index-free form (neighbours as canonical keys). Two
/// passes where a router's record, its neighbours' records, the paths
/// through it, and the relevant IP-to-AS mappings are all unchanged
/// compute the same decision.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RouterRecord {
    addrs: BTreeSet<Addr>,
    min_hop: u8,
    dests: BTreeSet<Asn>,
    final_dests: BTreeSet<Asn>,
    succ_keys: BTreeSet<Addr>,
    pred_keys: BTreeSet<Addr>,
    succ_addrs: BTreeSet<Addr>,
}

/// Index-free form of a trace's path: the target AS plus (router key,
/// hop address) per hop. Other-ICMP addresses are excluded — they feed
/// only the always-rerun global post-passes.
type PathForm = (Asn, Vec<(Addr, Addr)>);

/// State the previous pass left behind.
struct PrevPass {
    records: BTreeMap<Addr, RouterRecord>,
    decisions: BTreeMap<Addr, OwnerDecision>,
    paths: BTreeMap<Addr, PathForm>,
    mappings: HashMap<Addr, Mapping>,
}

/// What the held traces contribute to a pass's inputs, kept up to date
/// trace by trace. A trace's contributions are a pure function of the
/// trace and the engine's one [`Input`], so a replaced or retracted
/// trace's are recomputed from it and counted out.
struct HeldInputs {
    /// The probing-time mapper and RIR trie, built once.
    estimator: VpEstimator,
    /// Every block the held traces attribute to the hosting network,
    /// with the number of attributions.
    blocks: BTreeMap<Prefix, u32>,
    /// The held traces' alias candidates.
    candidates: AliasCandidates,
    /// Fingerprint of the `Input` the above were built from.
    #[cfg(debug_assertions)]
    input: u64,
}

impl HeldInputs {
    fn new(input: &Input) -> HeldInputs {
        HeldInputs {
            estimator: VpEstimator::new(input),
            blocks: BTreeMap::new(),
            candidates: AliasCandidates::default(),
            #[cfg(debug_assertions)]
            input: input_fingerprint(input),
        }
    }

    fn add(&mut self, tr: &Trace) {
        for b in self.estimator.blocks(tr) {
            *self.blocks.entry(b).or_insert(0) += 1;
        }
        self.candidates.add(tr);
    }

    fn remove(&mut self, tr: &Trace) {
        for b in self.estimator.blocks(tr) {
            let n = self
                .blocks
                .get_mut(&b)
                .expect("removing a block never added");
            *n -= 1;
            if *n == 0 {
                self.blocks.remove(&b);
            }
        }
        self.candidates.remove(tr);
    }
}

/// A content hash of everything an engine reads from its `Input`, to
/// check in debug builds that every pass is fed the same one.
#[cfg(debug_assertions)]
fn input_fingerprint(input: &Input) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    input.vp_asns.hash(&mut h);
    input.ixp_prefixes.hash(&mut h);
    for r in &input.rir {
        (r.prefix, r.opaque_org).hash(&mut h);
    }
    for (p, origins) in input.view.prefixes() {
        (p, origins).hash(&mut h);
    }
    h.finish()
}

/// The long-lived incremental engine. Feed it batches with
/// [`IncrementalEngine::apply`]; each call returns the updated map,
/// byte-identical to a from-scratch rebuild over
/// [`IncrementalEngine::shadow_collection`].
///
/// An engine serves one [`Input`] for its whole life: the first pass
/// builds the probing-time mapper from it, and every held trace's
/// VP-space blocks and alias candidates are kept against that mapper.
/// Debug builds check that every pass is given the same input.
pub struct IncrementalEngine {
    cfg: BdrmapConfig,
    tick_us: u64,
    traces: BTreeMap<Addr, Trace>,
    /// Pass in which each held trace was last upserted — the expiry
    /// clock for [`IncrementalEngine::expired`].
    refreshed: BTreeMap<Addr, u64>,
    cache: Option<HashMap<TaskKey, CachedTask>>,
    prev: Option<PrevPass>,
    /// Built by the first pass.
    held: Option<HeldInputs>,
    pass: u64,
}

impl IncrementalEngine {
    /// A fresh engine. `tick_us` must match the per-packet pacing of
    /// the probers that will feed it (`1_000_000 / pps`).
    pub fn new(cfg: BdrmapConfig, tick_us: u64) -> IncrementalEngine {
        IncrementalEngine {
            cfg,
            tick_us,
            traces: BTreeMap::new(),
            refreshed: BTreeMap::new(),
            cache: Some(HashMap::new()),
            prev: None,
            held: None,
            pass: 0,
        }
    }

    /// Rebuild an engine from checkpointed state: one bulk apply over
    /// the checkpointed traces, then restore the recorded pass number
    /// and per-trace refresh passes. Because every piece of carried
    /// state (alias cache entries that matter, previous-pass records
    /// and decisions) is a pure function of the cumulative trace set,
    /// the restored engine's next map is byte-identical to what the
    /// original engine would have published — the recovery contract
    /// `bdrmap watch --journal-dir` relies on.
    pub fn restore<P: Prober + ?Sized>(
        cfg: BdrmapConfig,
        tick_us: u64,
        prober: &P,
        input: &Input,
        entries: &[(Trace, u64)],
        pass: u64,
    ) -> (IncrementalEngine, BorderMap) {
        let mut eng = IncrementalEngine::new(cfg, tick_us);
        let traces: Vec<Trace> = entries.iter().map(|(t, _)| t.clone()).collect();
        let (map, _report) = eng.apply(prober, input, Batch::upserts(traces));
        eng.pass = pass;
        eng.refreshed = entries.iter().map(|(t, p)| (t.dst, *p)).collect();
        (eng, map)
    }

    /// Number of traces currently held.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Passes applied so far.
    pub fn passes(&self) -> u64 {
        self.pass
    }

    /// Destinations whose trace has not been refreshed within the last
    /// `n` passes: a trace last upserted in pass `P` is reported once
    /// the engine has applied pass `P + n`, so retracting the result in
    /// the next batch removes it in pass `P + n + 1` — it survives
    /// exactly `n` passes beyond its refresh. A fresh upsert resets the
    /// clock.
    pub fn expired(&self, n: u64) -> Vec<Addr> {
        self.refreshed
            .iter()
            .filter(|&(_, &last)| self.pass.saturating_sub(last) >= n)
            .map(|(&dst, _)| dst)
            .collect()
    }

    /// The held traces with their last-refresh pass, destination-sorted:
    /// everything a checkpoint must persist to rebuild this engine via
    /// [`IncrementalEngine::restore`].
    pub fn checkpoint_entries(&self) -> Vec<(Trace, u64)> {
        self.traces
            .values()
            .map(|t| {
                let last = self.refreshed.get(&t.dst).copied().unwrap_or(self.pass);
                (t.clone(), last)
            })
            .collect()
    }

    /// The cumulative traces in canonical (destination-sorted) order,
    /// with a zeroed budget: exactly what a from-scratch shadow rebuild
    /// must feed `run_stages` to reproduce this engine's latest map
    /// byte-for-byte (the budget is overwritten from the prober at the
    /// capture point inside `run_stages`).
    pub fn shadow_collection(&self) -> TraceCollection {
        TraceCollection {
            traces: self.traces.values().cloned().collect(),
            budget: ProbeBudget::default(),
        }
    }

    /// Apply one batch and emit the updated map.
    pub fn apply<P: Prober + ?Sized>(
        &mut self,
        prober: &P,
        input: &Input,
        batch: Batch,
    ) -> (BorderMap, PassReport) {
        let t0 = Instant::now();
        let mut phase_start = t0;
        let mut lap = || {
            let now = Instant::now();
            let d = now - phase_start;
            phase_start = now;
            d
        };
        self.pass += 1;
        let mut report = PassReport {
            pass: self.pass,
            ..PassReport::default()
        };

        // -------------------------------------------- trace-set edits
        let held = self.held.get_or_insert_with(|| HeldInputs::new(input));
        #[cfg(debug_assertions)]
        assert_eq!(
            held.input,
            input_fingerprint(input),
            "an IncrementalEngine serves one Input for its whole life"
        );
        for tr in batch.upserts {
            self.refreshed.insert(tr.dst, self.pass);
            held.add(&tr);
            if let Some(old) = self.traces.insert(tr.dst, tr) {
                held.remove(&old);
                report.replaced += 1;
            } else {
                report.added += 1;
            }
        }
        for dst in batch.retractions {
            self.refreshed.remove(&dst);
            if let Some(old) = self.traces.remove(&dst) {
                held.remove(&old);
                report.retracted += 1;
            }
        }
        report.traces = self.traces.len();
        report.phases.edits = lap();

        // --------------------------------- ip2as (with VP estimation)
        let ip2as = held.estimator.ip2as(held.blocks.keys().copied());
        let cache = Ip2AsCache::new(&ip2as);
        report.phases.ip2as = lap();

        // ------------------------------- alias resolution (replayed)
        let caching = CachingProber {
            inner: prober,
            cache: Mutex::new(self.cache.take().unwrap_or_default()),
            tick_us: self.tick_us,
            charged: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        };
        caching.begin_pass();
        let alias_data = if self.cfg.alias_resolution {
            aliases::resolve_candidates(
                &caching,
                &held.candidates,
                &cache,
                &AliasConfig {
                    max_ally_per_set: self.cfg.max_ally_per_set,
                    parallelism: self.cfg.alias_parallelism,
                    staged: true,
                },
            )
        } else {
            AliasData::default()
        };
        let (hits, misses) = caching.cache_stats();
        report.alias_cache_hits = hits;
        report.alias_cache_misses = misses;
        let budget = caching.budget();
        report.alias_packets = budget.packets;
        report.phases.alias = lap();

        // ------------------------------------------------ graph build
        let graph = ObservedGraph::build(self.traces.values(), &alias_data, &cache);
        let n = graph.routers.len();
        report.routers = n;
        report.phases.graph = lap();

        // Canonical keys and records.
        let keys: Vec<Addr> = graph
            .routers
            .iter()
            .map(|r| *r.addrs.iter().next().expect("router with no address"))
            .collect();
        let records: Vec<RouterRecord> = graph
            .routers
            .iter()
            .map(|r| RouterRecord {
                addrs: r.addrs.clone(),
                min_hop: r.min_hop,
                dests: r.dests.clone(),
                final_dests: r.final_dests.clone(),
                succ_keys: r.succs.iter().map(|&s| keys[s]).collect(),
                pred_keys: r.preds.iter().map(|&p| keys[p]).collect(),
                succ_addrs: r.succ_addrs.clone(),
            })
            .collect();
        let path_forms: BTreeMap<Addr, PathForm> = graph
            .paths
            .iter()
            .map(|p| {
                let form: Vec<(Addr, Addr)> =
                    p.routers.iter().map(|&(r, a)| (keys[r], a)).collect();
                (p.dst, (p.target_as, form))
            })
            .collect();
        let mappings: HashMap<Addr, Mapping> = graph
            .addr_router
            .keys()
            .map(|&a| (a, cache.lookup(a)))
            .collect();

        // ------------------------------------------- dirty set + seeds
        let seeds: Vec<Option<OwnerDecision>> = match &self.prev {
            None => {
                report.full_walk = true;
                report.dirty = n;
                report.reinferred = n;
                Vec::new()
            }
            Some(prev) => {
                let mut dirty: HashSet<usize> = HashSet::new();

                // Routers whose own canonical record changed (covers
                // new routers and neighbours of removed ones).
                for i in 0..n {
                    if prev.records.get(&keys[i]) != Some(&records[i]) {
                        dirty.insert(i);
                    }
                }

                // Addresses whose IP-to-AS mapping changed: the
                // containing router reads them via `classify`, its
                // preds via `succ_addrs`/`nextas`, and every router on
                // a path carrying them via the path scans.
                let mut remapped: HashSet<Addr> = HashSet::new();
                for (&a, m) in &mappings {
                    if prev.mappings.get(&a).is_some_and(|pm| pm != m) {
                        remapped.insert(a);
                        if let Some(&r) = graph.addr_router.get(&a) {
                            dirty.insert(r);
                            dirty.extend(graph.routers[r].preds.iter().copied());
                        }
                    }
                }
                report.remapped_addrs = remapped.len();

                // Paths that changed, appeared, or vanished dirty every
                // router they touch(ed): the walk scans whole paths
                // (H1.2's vp-after check, OneNetConsecutive, the
                // unrouted suffix scan).
                let mark_form = |dirty: &mut HashSet<usize>, form: &PathForm| {
                    for &(_, a) in &form.1 {
                        if let Some(&r) = graph.addr_router.get(&a) {
                            dirty.insert(r);
                        }
                    }
                };
                for (dst, form) in &path_forms {
                    if prev.paths.get(dst) != Some(form) {
                        mark_form(&mut dirty, form);
                        if let Some(old) = prev.paths.get(dst) {
                            mark_form(&mut dirty, old);
                        }
                    }
                }
                for (dst, old) in &prev.paths {
                    if !path_forms.contains_key(dst) {
                        mark_form(&mut dirty, old);
                    }
                }
                for path in &graph.paths {
                    if path.routers.iter().any(|&(_, a)| remapped.contains(&a)) {
                        for &(r, _) in &path.routers {
                            dirty.insert(r);
                        }
                    }
                }
                report.dirty = dirty.len();

                // Closure: one adjacency step covers every cross-router
                // read (a pred's addresses, a succ's record).
                let mut closure = dirty.clone();
                for &r in &dirty {
                    closure.extend(graph.routers[r].preds.iter().copied());
                    closure.extend(graph.routers[r].succs.iter().copied());
                }
                report.reinferred = closure.len();

                (0..n)
                    .map(|i| {
                        if closure.contains(&i) {
                            None
                        } else {
                            prev.decisions.get(&keys[i]).copied()
                        }
                    })
                    .collect()
            }
        };
        report.reused = seeds.iter().filter(|s| s.is_some()).count();
        report.phases.diff = lap();

        // ------------------------------------------- seeded inference
        let (map, decisions) = heuristics::infer_seeded(&graph, input, &cache, budget, &seeds);
        report.phases.walk = lap();

        // ------------------------------------------------- next-pass state
        self.cache = Some(caching.cache.into_inner().unwrap());
        self.prev = Some(PrevPass {
            records: keys.iter().copied().zip(records).collect(),
            decisions: keys.iter().copied().zip(decisions).collect(),
            paths: path_forms,
            mappings,
        });
        report.phases.state = lap();

        report.pass_ms = t0.elapsed().as_secs_f64() * 1e3;
        record_pass_metrics(&report);
        (map, report)
    }
}

/// Mirror a pass report into the process-wide metric registry.
fn record_pass_metrics(report: &PassReport) {
    let reg = bdrmap_obs::global();
    reg.counter("bdrmap_incremental_passes_total", &[]).inc();
    reg.counter("bdrmap_incremental_traces_added_total", &[])
        .add(report.added as u64);
    reg.counter("bdrmap_incremental_traces_replaced_total", &[])
        .add(report.replaced as u64);
    reg.counter("bdrmap_incremental_traces_retracted_total", &[])
        .add(report.retracted as u64);
    reg.counter("bdrmap_incremental_routers_reinferred_total", &[])
        .add(report.reinferred as u64);
    reg.counter("bdrmap_incremental_routers_reused_total", &[])
        .add(report.reused as u64);
    reg.counter("bdrmap_incremental_alias_cache_hits_total", &[])
        .add(report.alias_cache_hits);
    reg.counter("bdrmap_incremental_alias_cache_misses_total", &[])
        .add(report.alias_cache_misses);
    reg.gauge("bdrmap_incremental_traces", &[])
        .set(report.traces as u64);
    reg.histogram("bdrmap_incremental_dirty_routers", &[])
        .record(report.reinferred as u64);
    reg.histogram("bdrmap_incremental_pass_us", &[])
        .record((report.pass_ms * 1e3) as u64);
    for (phase, d) in report.phases.named() {
        reg.histogram("bdrmap_incremental_phase_us", &[("phase", phase)])
            .record(d.as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_bgp::{AsGraph, CollectorView, InferredRelationships, OriginTable, RoutingOracle};
    use bdrmap_probe::{TraceHop, TraceStop};
    use bdrmap_types::{addr, splitmix64, Relationship, RirRecord};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A VP network, two external neighbors, an IXP LAN and two RIR
    /// delegations nobody announces.
    fn tiny_input() -> Input {
        let mut g = AsGraph::new();
        let t1 = g.add_as();
        let vp = g.add_as();
        let e3 = g.add_as();
        let e4 = g.add_as();
        g.add_link(t1, vp, Relationship::Customer);
        g.add_link(vp, e3, Relationship::Customer);
        g.add_link(vp, e4, Relationship::Peer);
        let mut t = OriginTable::new();
        t.announce(p("10.2.0.0/16"), vp);
        t.announce(p("10.3.0.0/16"), e3);
        t.announce(p("10.4.0.0/16"), e4);
        let oracle = RoutingOracle::new(g, t);
        let view = CollectorView::collect(&oracle, &[t1]);
        let rels = InferredRelationships::infer(&view);
        Input {
            view,
            rels,
            ixp_prefixes: vec![p("198.32.0.0/24")],
            rir: vec![
                RirRecord {
                    prefix: p("172.16.0.0/22"),
                    opaque_org: 1,
                },
                RirRecord {
                    prefix: p("172.16.4.0/22"),
                    opaque_org: 2,
                },
            ],
            vp_asns: vec![vp],
        }
    }

    /// Answers every alias test "unknown" and charges one packet.
    struct Silent;

    impl Prober for Silent {
        fn trace(&self, dst: Addr, target_as: Asn, _stop: &StopSet) -> Trace {
            Trace {
                dst,
                target_as,
                hops: Vec::new(),
                stop: TraceStop::GapLimit,
            }
        }
        fn ally(&self, _a: Addr, _b: Addr) -> AliasVerdict {
            AliasVerdict::Unknown
        }
        fn mercator(&self, _a: Addr) -> Option<MercatorResult> {
            None
        }
        fn prefixscan(&self, _prev_hop: Addr, _addr: Addr) -> Option<Addr> {
            None
        }
        fn budget(&self) -> ProbeBudget {
            ProbeBudget::default()
        }
        fn ally_task(&self, _task: u64, _a: Addr, _b: Addr) -> (AliasVerdict, u64) {
            (AliasVerdict::Unknown, 1)
        }
        fn mercator_task(&self, _task: u64, _a: Addr) -> (Option<MercatorResult>, u64) {
            (None, 1)
        }
        fn prefixscan_task(&self, _task: u64, _prev: Addr, _addr: Addr) -> (Option<Addr>, u64) {
            (None, 1)
        }
    }

    /// A few addresses from each kind of space: VP, external, IXP,
    /// RIR-delegated but unrouted, and unrouted without a record.
    fn pool() -> Vec<Addr> {
        [
            0x0a02_0001u32,
            0x0a02_0002,
            0x0a02_0003,
            0x0a03_0001,
            0x0a03_0002,
            0x0a04_0001,
            0xc620_0001,
            0xac10_0001,
            0xac10_0201,
            0xac10_0401,
            0xac10_0701,
            0xc000_0201,
        ]
        .map(addr)
        .to_vec()
    }

    fn random_trace(rng: &mut u64, dst: Addr, pool: &[Addr]) -> Trace {
        let len = (splitmix64(rng) % 9) as usize;
        let hops = (0..len)
            .map(|i| {
                let roll = splitmix64(rng) % 10;
                let a = pool[(splitmix64(rng) as usize) % pool.len()];
                TraceHop {
                    ttl: i as u8 + 1,
                    addr: (roll != 0).then_some(a),
                    time_exceeded: roll > 1,
                    other_icmp: roll == 1,
                    ipid: 0,
                }
            })
            .collect();
        Trace {
            dst,
            target_as: Asn(3 + (splitmix64(rng) % 2) as u32),
            hops,
            stop: TraceStop::GapLimit,
        }
    }

    fn blocks_from_scratch(input: &Input, traces: &[Trace]) -> BTreeMap<Prefix, u32> {
        let est = VpEstimator::new(input);
        let mut blocks = BTreeMap::new();
        for b in traces.iter().flat_map(|tr| est.blocks(tr)) {
            *blocks.entry(b).or_insert(0) += 1;
        }
        blocks
    }

    /// The per-trace state the engine keeps across passes never drifts
    /// from the state a fresh computation over the held traces gives,
    /// whatever mix of adds, replaces, truncating replaces and
    /// retractions (of held and unheld destinations) it is fed.
    #[test]
    fn maintained_inputs_equal_recomputed_inputs() {
        let input = tiny_input();
        let pool = pool();
        let dsts: Vec<Addr> = (0..10u32).map(|i| addr(0x0a03_0100 + i)).collect();
        let (mut saw_blocks, mut saw_removal) = (false, false);
        for seed in 1..=4u64 {
            let mut rng = seed;
            let mut eng = IncrementalEngine::new(BdrmapConfig::default(), 10_000);
            for _ in 0..25 {
                let mut batch = Batch::default();
                for _ in 0..(splitmix64(&mut rng) % 4) {
                    let dst = dsts[(splitmix64(&mut rng) as usize) % dsts.len()];
                    match (splitmix64(&mut rng) % 4, eng.traces.get(&dst)) {
                        (0, Some(held)) => {
                            let mut tr = held.clone();
                            tr.hops.truncate(tr.hops.len() / 2);
                            batch.upserts.push(tr);
                        }
                        (1, _) => batch.retractions.push(dst),
                        _ => batch.upserts.push(random_trace(&mut rng, dst, &pool)),
                    }
                }
                let (_, report) = eng.apply(&Silent, &input, batch);
                saw_removal |= report.replaced + report.retracted > 0;

                let shadow = eng.shadow_collection();
                let held = eng.held.as_ref().unwrap();
                assert_eq!(
                    held.candidates,
                    AliasCandidates::from_traces(&shadow.traces),
                    "seed {seed} pass {}: alias candidates drifted",
                    eng.passes()
                );
                assert_eq!(
                    held.blocks,
                    blocks_from_scratch(&input, &shadow.traces),
                    "seed {seed} pass {}: estimated blocks drifted",
                    eng.passes()
                );
                saw_blocks |= !held.blocks.is_empty();
                let kept = held.estimator.ip2as(held.blocks.keys().copied());
                let fresh = input.ip2as_with_estimation(&shadow.traces);
                for &a in &pool {
                    assert_eq!(kept.lookup(a), fresh.lookup(a));
                }
            }
        }
        assert!(
            saw_blocks && saw_removal,
            "the batches exercised too little"
        );
    }
}
