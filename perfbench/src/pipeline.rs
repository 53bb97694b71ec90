//! `pipeline`: a cold border map from one vantage point (paper
//! §5.3–§5.4) on the large-access preset at a reduced scale.
//!
//! Why this workload: probing (`probe`, `dataplane`) and alias
//! resolution (`core::aliases`) carry this op, and no other workload
//! runs them timed. It also loads `core::input`, `core::graph`,
//! `core::heuristics` and the v3 encoder (`core::snapshot`,
//! `core::flat`). It never reloads or serves.
//!
//! One op is the public call chain of `run_stages` with probing in
//! front: `probe::run_traces` → `Input::ip2as_with_estimation` →
//! `aliases::resolve` → `ObservedGraph::build` → `heuristics::infer` →
//! `snapshot::encode_v3`, at trace and alias parallelism 1. Two trace
//! workers share the engine's logical clock, so a parallel trace phase
//! hands out send times in a different order each op and the bytes
//! differ. Two alias workers made the op's wall time depend on whether
//! a neighbour held the other core of the shared 2-core host: in one
//! set of ten runs the op's wall-to-CPU ratio rose from 0.73 to 0.90
//! and the median op time spread 0.24 across seeds, while op CPU time
//! spread 0.09. Before every op the data plane's
//! mutable router state (IPID counters, rate-limit tallies) is restored
//! to its set-up snapshot and a fresh probe engine starts its clock at
//! zero, so every op does the same work; an op whose bytes differ from
//! the run's reference fails.

use crate::report::{self, median, overhead_pct, repeated_setup, tail, Report, Tracer};
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::{Args, Size};
use bdrmap_core::graph::ObservedGraph;
use bdrmap_core::input::Ip2As;
use bdrmap_core::{aliases, heuristics, snapshot, AliasConfig, BorderMap, Ip2AsCache};
use bdrmap_dataplane::{Probe, ProbeKind, Runtime, RuntimeSnapshot};
use bdrmap_eval::Scenario;
use bdrmap_probe::{run_traces, target_blocks, RunOptions, TargetAs};
use bdrmap_topo::TopoConfig;
use bdrmap_types::Addr;
use std::time::Instant;

/// The world every seed probes: large-access at scale 0.3 from the
/// generator seed the repo's `BENCH_*.json` files use (959 routers,
/// ~3.4k traces). Seeding the world itself moved median op time by
/// 574–900 ms across ten seeds, wider than any bound the benchmark can
/// hold, so `--seed` varies the probing schedule instead.
const SCALE: f64 = 0.3;
pub const WORLD_SEED: u64 = 42;
pub const TRACE_PARALLELISM: usize = 1;
pub const ALIAS_PARALLELISM: usize = 1;
/// Nominal op time; a run does `seconds / NOMINAL_OP_S` ops whatever
/// the speed of the commit under test.
const NOMINAL_OP_S: [f64; 2] = [1.0, 0.02];
/// The link-error floor: a map with more wrong links fails the run.
/// Every seed reads 0% (the world is fixed, so every seed infers the
/// same 286 links, all correct); the floor adds a margin of one link.
const LINK_ERR_FLOOR_PCT: f64 = 0.35;
/// Probes per data-plane replay in a traced op.
const REPLAY_PACKETS: usize = 20_000;
const VP: usize = 0;

pub fn topo(args: &Args) -> TopoConfig {
    match args.size {
        Size::Full => TopoConfig::large_access_scaled(WORLD_SEED, SCALE),
        Size::Tiny => TopoConfig::tiny(WORLD_SEED),
    }
}

struct Setup {
    sc: Scenario,
    targets: Vec<TargetAs>,
    ip2as_probe: Ip2As,
    runtime: RuntimeSnapshot,
    reference: Vec<u8>,
    link_err_pct: f64,
    links: usize,
}

/// Everything one op produced, with the instants between its calls.
struct OpOut {
    bytes: Vec<u8>,
    map: BorderMap,
    /// Before/after each of the six calls.
    stamps: [(Instant, Instant); 6],
    trace_packets: u64,
    alias_tests: u64,
    alias_packets: u64,
    ip2as_hit_ratio: f64,
    /// (destination, hops) of every trace, for the data-plane replay.
    replay: Vec<(Addr, u8)>,
}

const LAYERS: [&str; 6] = [
    "probe.run_traces",
    "input.ip2as",
    "aliases.resolve",
    "graph.build",
    "heuristics.infer",
    "snapshot.encode",
];

/// The trace phase's options (the paper's §5.3 defaults).
pub fn trace_options() -> RunOptions {
    RunOptions {
        parallelism: TRACE_PARALLELISM,
        addrs_per_block: 5,
        use_stop_sets: true,
        quarantine: None,
    }
}

/// One op. The caller restores the data plane's runtime first.
fn op(s: &Setup, keep_replay: bool) -> OpOut {
    let engine = s.sc.engine(VP);
    let opts = trace_options();
    let a0 = Instant::now();
    let mut coll = run_traces(&engine, &s.targets, opts, |a| s.ip2as_probe.is_external(a));
    let a1 = Instant::now();
    let trace_packets = coll.budget.packets;
    let replay = if keep_replay {
        let hops = |t: &bdrmap_probe::Trace| t.hops.last().map_or(0, |h| h.ttl);
        coll.traces.iter().map(|t| (t.dst, hops(t))).collect()
    } else {
        Vec::new()
    };

    let b0 = Instant::now();
    let ip2as = s.sc.input.ip2as_with_estimation(&coll.traces);
    let b1 = Instant::now();
    let cache = Ip2AsCache::new(&ip2as);
    let cfg = AliasConfig {
        max_ally_per_set: 8,
        parallelism: ALIAS_PARALLELISM,
        staged: true,
    };
    let c0 = Instant::now();
    let alias = aliases::resolve(&engine, &coll.traces, &cache, &cfg);
    let c1 = Instant::now();
    let d0 = Instant::now();
    let graph = ObservedGraph::build(&coll.traces, &alias, &cache);
    let d1 = Instant::now();
    coll.budget = bdrmap_probe::Prober::budget(&engine);
    let e0 = Instant::now();
    let map = heuristics::infer(&graph, &s.sc.input, &cache, coll);
    let e1 = Instant::now();
    let f0 = Instant::now();
    let bytes = snapshot::encode_v3(&map).expect("an inferred map always encodes");
    let f1 = Instant::now();

    let st = &alias.stats;
    OpOut {
        bytes,
        map,
        stamps: [(a0, a1), (b0, b1), (c0, c1), (d0, d1), (e0, e1), (f0, f1)],
        trace_packets,
        alias_tests: st.mercator_tests + st.prefixscan_executed + st.ally_executed,
        alias_packets: st.packets,
        ip2as_hit_ratio: cache.stats().hit_rate(),
        replay,
    }
}

/// The VP's target ASes in the order `seed` gives: the probing
/// schedule, which moves every probe's send time and so the IPIDs and
/// rate-limit answers the traces and alias tests see.
pub fn schedule(sc: &Scenario, seed: u64) -> Result<Vec<TargetAs>, String> {
    let mut targets = target_blocks(&sc.input.view, &sc.input.vp_asns);
    if targets.is_empty() {
        return Err("scenario has no target blocks".into());
    }
    crate::rng::shuffle(&mut targets, seed);
    Ok(targets)
}

fn setup(args: &Args) -> Result<Setup, String> {
    let sc = Scenario::build("large-access", &topo(args));
    let targets = schedule(&sc, args.seed)?;
    let ip2as_probe = sc.input.ip2as_for_probing();
    let runtime = sc.dp.runtime_snapshot();
    let mut s = Setup {
        sc,
        targets,
        ip2as_probe,
        runtime,
        reference: Vec::new(),
        link_err_pct: 0.0,
        links: 0,
    };
    // The warm-up op fills the data plane's route caches; its bytes are
    // the reference every timed op must reproduce, and its map is
    // scored against ground truth once.
    s.sc.dp.restore_runtime(&s.runtime);
    let warm = op(&s, false);
    let net = s.sc.net();
    let neighbors = s.sc.input.view.neighbors_of(net.vp_as);
    let v = bdrmap_eval::validate::validate(net, &neighbors, &warm.map);
    s.link_err_pct = 100.0 * (1.0 - v.link_accuracy());
    s.links = v.links_total;
    s.reference = warm.bytes;
    Ok(s)
}

/// Send the op's trace probes again, one fresh counter state for the
/// lot, straight into `DataPlane::probe_with`: the data plane's cost
/// per packet without the probe engine around it.
fn dataplane_ns_per_packet(s: &Setup, replay: &[(Addr, u8)]) -> f64 {
    let rt = Runtime::new();
    let src = s.sc.net().vps[VP].addr;
    let mut sent = 0usize;
    let t = Instant::now();
    'all: for &(dst, hops) in replay {
        for ttl in 1..=hops {
            let p = Probe {
                src,
                dst,
                ttl,
                flow: bdrmap_probe::trace::flow_of(dst),
                kind: ProbeKind::IcmpEcho,
                time_ms: 0,
            };
            std::hint::black_box(s.sc.dp.probe_with(&p, &rt));
            sent += 1;
            if sent >= REPLAY_PACKETS {
                break 'all;
            }
        }
    }
    t.elapsed().as_nanos() as f64 / sent.max(1) as f64
}

pub fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let (s, setup_s) = repeated_setup(started, || setup(args))?;
    let n = (args.seconds as f64 / args.sized(NOMINAL_OP_S))
        .round()
        .max(3.0) as u64;
    println!(
        "pipeline: seed {}, {} target ASes, {} reference bytes, link_err_pct {} \
         of {} links (floor {LINK_ERR_FLOOR_PCT}%), {n} ops at trace/alias parallelism \
         {TRACE_PARALLELISM}/{ALIAS_PARALLELISM}",
        args.seed,
        s.targets.len(),
        s.reference.len(),
        s.link_err_pct,
        s.links,
    );

    let mut tracer = Tracer::new();
    let mut wall = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut ns_per_packet, mut hit_ratio) = (Vec::new(), Vec::new());
    let (mut trace_packets, mut alias_tests, mut alias_packets) = (0, 0, 0);
    let mut failed = 0u64;
    let cpu0 = process_cpu_s();
    for i in 0..n {
        let traced = args.trace && report::traced_op(i);
        s.sc.dp.restore_runtime(&s.runtime);
        let t0 = Instant::now();
        let mut out = op(&s, traced);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        wall.push(ms);
        if args.inject_fault && i == n / 2 {
            let mid = out.bytes.len() / 2;
            out.bytes[mid] ^= 0x01;
        }
        if out.bytes != s.reference {
            failed += 1;
            eprintln!("pipeline op {i}: snapshot bytes differ from the run's reference");
        }
        if traced {
            traced_ms.push(ms);
            tracer.record("pipeline.op", i, t0, t1);
            for (name, (a, b)) in LAYERS.iter().zip(out.stamps) {
                tracer.record(name, i, a, b);
            }
            ns_per_packet.push(dataplane_ns_per_packet(&s, &out.replay));
            hit_ratio.push(out.ip2as_hit_ratio);
            trace_packets = out.trace_packets;
            alias_tests = out.alias_tests;
            alias_packets = out.alias_packets;
        } else {
            untraced_ms.push(ms);
        }
    }
    let run_cpu_s = process_cpu_s() - cpu0;
    if s.link_err_pct > LINK_ERR_FLOOR_PCT {
        failed = n;
        eprintln!(
            "pipeline: link error {:.2}% is above the {LINK_ERR_FLOOR_PCT}% floor",
            s.link_err_pct
        );
    }

    let mut r = Report::new(n, failed);
    if args.trace {
        let ms = |name| tracer.median_ms(name);
        r.metric("probe.run_traces_ms", ms("probe.run_traces"));
        r.metric("probe.packets", trace_packets as f64);
        r.metric("dataplane.ns_per_packet", median(&ns_per_packet));
        r.metric("input.ip2as_ms", ms("input.ip2as"));
        r.metric("input.ip2as_hit_ratio", median(&hit_ratio));
        r.metric("aliases.resolve_ms", ms("aliases.resolve"));
        r.metric("aliases.tests", alias_tests as f64);
        r.metric("aliases.packets", alias_packets as f64);
        r.metric("graph.build_ms", ms("graph.build"));
        r.metric("heuristics.infer_ms", ms("heuristics.infer"));
        r.metric("snapshot.encode_ms", ms("snapshot.encode"));
        r.metric("eval.link_err_pct", s.link_err_pct);
        let rest = tracer.unaccounted_ms("pipeline.op", &LAYERS);
        r.metric("trace.unaccounted_ms", median(&rest));
        r.metric("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
        tracer
            .write_jsonl(&report::spans_path("pipeline", args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        r.metric("setup_s", setup_s);
        r.metric("peak_rss_mb", peak_rss_mb());
        r.metric("op_p50_ms", median(&wall));
        r.metric("op_tail_ms", tail(&wall).1);
        r.metric("run_cpu_s", run_cpu_s);
        r.metric("snapshot_mb", s.reference.len() as f64 / 1e6);
        println!("pipeline: op tail is p{} of {n}", tail(&wall).0);
    }
    Ok(r)
}
