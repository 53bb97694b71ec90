//! `watch-churn`: continuous inference. A warm `IncrementalEngine`
//! holds the full trace set of the pipeline workload's world (the fill
//! pass is set-up) and takes a stream of small batches, each journaled,
//! applied, published and hot-swapped into an in-process bdrmapd.
//!
//! Why this workload: a replace-only 2% batch re-infers a few dozen of
//! ~960 routers, yet `apply` still clones the trace set, recomputes
//! ip2as, replays alias candidates and rebuilds the graph — all
//! O(held traces). The O(dirty) work the roadmap asks for shows here and
//! not on `pipeline`. Layers loaded: `core::journal`,
//! `core::incremental` (and through it `core::input`, `core::aliases`
//! replayed from cache, `core::graph`, `core::heuristics`),
//! `core::snapstore` (write side, v3) and `serve` (a small reload).
//!
//! One op (pass) is `Journal::append` → `IncrementalEngine::apply` →
//! `SnapStore::publish` → `Journal::checkpoint` on every fourth pass
//! (the watch loop's default cadence) → a store `Reload` on bdrmapd's
//! single event loop. It ends when the `Reloaded` reply is in and the
//! server reports the generation just published. Store and journal
//! writes skip fsync (see `nosync`). The store keeps every generation,
//! as `bdrmap watch`'s does, so the directory scans in publish and in
//! the server's reload grow over a run; the pass count is fixed, so
//! they grow alike on every commit. A traced run also replays the
//! server's read side of these small reloads (`snapstore`, `flat`,
//! `types::integrity`) on the store after the timed phase.
//!
//! Every batch is built during set-up from two probe sweeps. It
//! retracts one slice of the held destinations, re-adds the slice the
//! previous batch retracted, and replaces a third slice with the other
//! sweep's traces — together about 2% of the held set — so every pass
//! changes the router graph and the held set stays within 1% of full.

use crate::pipeline::{schedule, topo, trace_options, ALIAS_PARALLELISM, TRACE_PARALLELISM};
use crate::report::{
    self, median, overhead_pct, repeated_setup, tail, windowed_tail, Report, Tracer, WorkDir,
};
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::{nosync, Args};
use bdrmap_core::{
    snapshot, Batch, BdrmapConfig, IncrementalEngine, Journal, JournalCheckpoint, JournalConfig,
    SnapStore,
};
use bdrmap_eval::Scenario;
use bdrmap_obs::Registry;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, Trace, TraceCollection};
use bdrmap_serve::{Client, Request, Response, ServeConfig, Server};
use bdrmap_types::integrity::Crc32c;
use bdrmap_types::Addr;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal pass time; a run does `seconds / NOMINAL_PASS_S` passes.
const NOMINAL_PASS_S: [f64; 2] = [0.045, 0.005];
/// Share of the held destinations each slice covers; a batch touches
/// three slices.
const SLICE_SHARE: f64 = 0.02 / 3.0;
/// Windows the pass tail is taken in (see `report::windowed_tail`):
/// about 110 passes each, so p90 with eleven passes beyond it. In one
/// set of ten runs the run-wide p95 spread 0.24 across seeds, against
/// 0.11 for the median pass.
const TAIL_WINDOWS: usize = 4;
/// `bdrmap watch --compact-every` default.
const CHECKPOINT_EVERY: u64 = 4;
const VP: usize = 0;

const LAYERS: [&str; 5] = [
    "journal.append",
    "incremental.apply",
    "snapstore.publish",
    "journal.checkpoint",
    "serve.reload",
];

fn config() -> BdrmapConfig {
    BdrmapConfig {
        parallelism: TRACE_PARALLELISM,
        alias_parallelism: ALIAS_PARALLELISM,
        ..BdrmapConfig::default()
    }
}

struct Setup {
    sc: Scenario,
    prober: ProbeEngine,
    engine: IncrementalEngine,
    journal: Journal,
    store: SnapStore,
    generation: u64,
    plan: Vec<Batch>,
    digest: u32,
    client: Client,
    server: Option<Server>,
    // Dropped last: the store and journal files live here.
    _dir: WorkDir,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn sweep(
    sc: &Scenario,
    prober: &ProbeEngine,
    targets: &[bdrmap_probe::TargetAs],
) -> TraceCollection {
    let ip2as = sc.input.ip2as_for_probing();
    run_traces(prober, targets, trace_options(), |a| ip2as.is_external(a))
}

/// The batch plan: `passes` batches over slices of the held
/// destinations, in a seed-shuffled order (see the module comment).
fn plan(first: &[Trace], second: &[Trace], passes: usize, seed: u64) -> Vec<Batch> {
    let held: BTreeMap<Addr, &Trace> = first.iter().map(|t| (t.dst, t)).collect();
    let other: BTreeMap<Addr, &Trace> = second.iter().map(|t| (t.dst, t)).collect();
    let mut dsts: Vec<Addr> = held.keys().copied().collect();
    crate::rng::shuffle(&mut dsts, seed ^ 0x5a5a);
    let size = ((dsts.len() as f64 * SLICE_SHARE).round() as usize).max(1);
    let slices: Vec<&[Addr]> = dsts.chunks_exact(size).collect();
    let pairs = (slices.len() / 2).max(1);
    let retract = |k: usize| slices[2 * (k % pairs)];
    (0..passes)
        .map(|k| {
            let mut upserts: Vec<Trace> = Vec::new();
            if k > 0 {
                upserts.extend(retract(k - 1).iter().map(|a| held[a].clone()));
            }
            // Odd slices alternate between the two sweeps' traces on
            // every lap, so a replacement always changes something
            // whenever the sweeps disagree.
            let replace = slices[(2 * (k % pairs) + 1).min(slices.len() - 1)];
            let from_second = (k / pairs).is_multiple_of(2);
            for a in replace {
                let t = if from_second {
                    other.get(a).copied()
                } else {
                    None
                };
                upserts.push(t.unwrap_or(held[a]).clone());
            }
            Batch {
                upserts,
                retractions: retract(k).to_vec(),
            }
        })
        .collect()
}

fn digest(plan: &[Batch]) -> u32 {
    let mut h = Crc32c::new();
    for b in plan {
        for t in &b.upserts {
            h.update(&bdrmap_probe::store::trace_to_vec(t));
        }
        for a in &b.retractions {
            h.update(&u32::from(*a).to_be_bytes());
        }
    }
    h.finalize()
}

fn passes(args: &Args) -> usize {
    (args.seconds as f64 / args.sized(NOMINAL_PASS_S))
        .round()
        .max(12.0) as usize
}

fn setup(args: &Args) -> Result<Setup, String> {
    let dir = WorkDir::new("watch-churn")?;
    let sc = Scenario::build("large-access", &topo(args));
    let targets = schedule(&sc, args.seed)?;
    let prober = sc.engine(VP);
    let first = sweep(&sc, &prober, &targets);
    let second = sweep(&sc, &prober, &targets);
    let plan = plan(&first.traces, &second.traces, passes(args), args.seed);
    let digest = digest(&plan);

    let tick_us = 1_000_000 / u64::from(EngineConfig::default().pps);
    let mut engine = IncrementalEngine::new(config(), tick_us);
    let (mut journal, _) = Journal::open_with(
        dir.path().join("journal"),
        nosync::vfs(),
        Registry::new(),
        JournalConfig::default(),
    )
    .map_err(|e| format!("opening journal: {e}"))?;
    let store = SnapStore::open_with(dir.path().join("store"), nosync::vfs(), Registry::new())
        .map_err(|e| format!("opening store: {e}"))?
        .with_snapshot_version(bdrmap_core::flat::VERSION);
    let fill = Batch::upserts(first.traces);
    journal
        .append(args.seed, &fill)
        .map_err(|e| format!("journaling the fill batch: {e}"))?;
    let (map, _) = engine.apply(&prober, &sc.input, fill);
    let generation = store
        .publish(&map)
        .map_err(|e| format!("publishing the fill pass: {e}"))?;
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start_from_store(dir.path().join("store"), cfg)
        .map_err(|e| format!("starting bdrmapd: {e}"))?;
    let client = Client::connect(&server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    Ok(Setup {
        sc,
        prober,
        engine,
        journal,
        store,
        generation,
        plan,
        digest,
        client,
        server: Some(server),
        _dir: dir,
    })
}

/// What one pass produced, with the instants around each layer call
/// (`None` for the checkpoint on passes without one).
struct PassOut {
    ok: bool,
    stamps: [Option<(Instant, Instant)>; 5],
    report: bdrmap_core::PassReport,
    /// The server's view build and swap times for the reload, in µs.
    build_swap_us: (u64, u64),
}

fn pass(s: &mut Setup, seed: u64, batch: Batch) -> Result<PassOut, String> {
    let a0 = Instant::now();
    let lsn = s
        .journal
        .append(seed, &batch)
        .map_err(|e| format!("journal append: {e}"))?;
    let a1 = Instant::now();
    let (map, report) = s.engine.apply(&s.prober, &s.sc.input, batch);
    let b1 = Instant::now();
    let generation = s.store.publish(&map).map_err(|e| format!("publish: {e}"))?;
    let c1 = Instant::now();
    let checkpoint = if s.engine.passes().is_multiple_of(CHECKPOINT_EVERY) {
        let ckpt = JournalCheckpoint {
            lsn,
            generation,
            pass: s.engine.passes(),
            entries: s.engine.checkpoint_entries(),
        };
        s.journal
            .checkpoint(&ckpt)
            .map_err(|e| format!("journal checkpoint: {e}"))?;
        Some((c1, Instant::now()))
    } else {
        None
    };
    let d1 = Instant::now();
    let resp = s
        .client
        .call(&Request::Reload(String::new()))
        .map_err(|e| format!("reload: {e}"))?;
    let e1 = Instant::now();
    let served = s.server.as_ref().map_or(0, Server::store_generation);
    let (ok, build_swap_us) = match resp {
        Response::Reloaded {
            build_us, swap_us, ..
        } => (served == generation, (build_us, swap_us)),
        _ => (false, (0, 0)),
    };
    if !ok {
        eprintln!(
            "watch-churn pass {}: published {generation}, served {served}: {resp:?}",
            report.pass
        );
    }
    s.generation = generation;
    Ok(PassOut {
        ok,
        stamps: [
            Some((a0, a1)),
            Some((a1, b1)),
            Some((b1, c1)),
            checkpoint,
            Some((d1, e1)),
        ],
        report,
        build_swap_us,
    })
}

pub fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let (mut s, setup_s) = repeated_setup(started, || setup(args))?;
    let plan = std::mem::take(&mut s.plan);
    let n = plan.len();
    println!(
        "watch-churn: seed {}, {} held traces, {n} batches, plan digest {:08x}",
        args.seed,
        s.engine.trace_count(),
        s.digest
    );

    let mut tracer = Tracer::new();
    let mut wall = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut dirty, mut reinferred, mut reused) = (Vec::new(), Vec::new(), Vec::new());
    let (mut build_us, mut swap_us) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut ip2as_ms = Vec::new();
    let mut failed = 0u64;
    let cpu0 = process_cpu_s();
    for (i, batch) in plan.into_iter().enumerate() {
        let i = i as u64;
        let traced = args.trace && report::traced_op(i);
        let t0 = Instant::now();
        let out = pass(&mut s, args.seed, batch)?;
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        wall.push(ms);
        if !out.ok {
            failed += 1;
        }
        if traced {
            traced_ms.push(ms);
            tracer.record("watch-churn.op", i, t0, t1);
            for (name, stamp) in LAYERS.iter().zip(out.stamps) {
                if let Some((a, b)) = stamp {
                    tracer.record(name, i, a, b);
                }
            }
            let r = &out.report;
            dirty.push(r.dirty as f64);
            reinferred.push(r.reinferred as f64);
            reused.push(r.reused as f64);
            hits += r.alias_cache_hits;
            misses += r.alias_cache_misses;
            build_us.push(out.build_swap_us.0 as f64);
            swap_us.push(out.build_swap_us.1 as f64);
            // `apply` recomputes ip2as over the held set every pass;
            // the same call, replayed here outside the op, shows its
            // share.
            let held = s.engine.shadow_collection();
            let t = Instant::now();
            std::hint::black_box(s.sc.input.ip2as_with_estimation(&held.traces));
            ip2as_ms.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            untraced_ms.push(ms);
        }
    }
    let run_cpu_s = process_cpu_s() - cpu0;

    // The last pass, byte-checked against a from-scratch rebuild.
    let mut published = std::fs::read(s.store.path_of(s.generation))
        .map_err(|e| format!("reading the last published generation: {e}"))?;
    let snapshot_mb = published.len() as f64 / 1e6;
    if args.inject_fault {
        let mid = published.len() / 2;
        published[mid] ^= 0x01;
    }
    let t = Instant::now();
    let shadow = bdrmap_core::run_stages(
        &s.sc.engine(VP),
        &s.sc.input,
        &config(),
        s.engine.shadow_collection(),
    );
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let rebuilt = snapshot::encode_v3(&shadow.map).map_err(|e| format!("encoding rebuild: {e}"))?;
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    if rebuilt != published {
        failed += 1;
        eprintln!("watch-churn: the last pass differs from a from-scratch rebuild");
    }

    let mut r = Report::new(n as u64, failed);
    if args.trace {
        let ms = |name| tracer.median_ms(name);
        r.metric("journal.append_ms", ms("journal.append"));
        r.metric("journal.checkpoint_ms", ms("journal.checkpoint"));
        r.metric("incremental.apply_ms", ms("incremental.apply"));
        r.metric("incremental.dirty", median(&dirty));
        r.metric("incremental.reinferred", median(&reinferred));
        r.metric("incremental.reused", median(&reused));
        let ratio = hits as f64 / (hits + misses).max(1) as f64;
        r.metric("incremental.alias_hit_ratio", ratio);
        r.metric("incremental.rebuild_ms", rebuild_ms);
        r.metric("input.ip2as_ms", median(&ip2as_ms));
        r.metric("snapshot.encode_ms", encode_ms);
        r.metric("snapstore.publish_ms", ms("snapstore.publish"));
        r.metric("serve.reload_ms", ms("serve.reload"));
        r.metric("serve.reload_build_us", median(&build_us));
        r.metric("serve.reload_swap_us", median(&swap_us));
        let rest = tracer.unaccounted_ms("watch-churn.op", &LAYERS);
        r.metric("trace.unaccounted_ms", median(&rest));
        r.metric("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
        // The server's read side of those small reloads, replayed on
        // the store after the timed phase.
        crate::serve::replay_reloads(&s.store, &[], &mut tracer, n as u64, &mut r)?;
        tracer
            .write_jsonl(&report::spans_path("watch-churn", args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        r.metric("setup_s", setup_s);
        r.metric("peak_rss_mb", peak_rss_mb());
        r.metric("op_p50_ms", median(&wall));
        let (q, tail_ms) = windowed_tail(&wall, TAIL_WINDOWS);
        r.metric("op_tail_ms", tail_ms);
        r.metric("run_cpu_s", run_cpu_s);
        r.metric("snapshot_mb", snapshot_mb);
        let (q_all, tail_all) = tail(&wall);
        println!(
            "watch-churn: pass tail is the median over {TAIL_WINDOWS} windows of p{q} of \
             {} passes; p{q_all} of all {n} passes {tail_all:.3} ms",
            n.div_ceil(TAIL_WINDOWS)
        );
    }
    Ok(r)
}
