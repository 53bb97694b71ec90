//! The durable-watch contract: a watch loop killed at any point and
//! recovered from its write-ahead journal (checkpoint + tail replay)
//! publishes maps byte-identical to an uninterrupted run — at any
//! alias parallelism — and `--expire-after`-style retraction windows
//! behave exactly at their boundaries.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{
    snapshot, Batch, BdrmapConfig, IncrementalEngine, Input, Journal, JournalCheckpoint,
    JournalConfig,
};
use bdrmap_dataplane::DataPlane;
use bdrmap_obs::Registry;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions, TraceCollection};
use bdrmap_topo::{generate, AsKind, Internet, TopoConfig};
use bdrmap_types::{Asn, ChaosFsConfig, ChaosVfs, FsFaultBudget, Vfs};
use std::path::PathBuf;
use std::sync::Arc;

/// Per-packet virtual pacing of `EngineConfig::default()` (100 pps).
const TICK_US: u64 = 1_000_000 / 100;

fn build_input(net: &Internet, dp: &DataPlane) -> Input {
    let mut peers: Vec<Asn> = net
        .graph
        .ases()
        .filter(|&a| net.as_info(a).kind == AsKind::Tier1)
        .collect();
    peers.extend(
        net.graph
            .ases()
            .filter(|&a| net.as_info(a).kind == AsKind::Stub)
            .take(6),
    );
    let view = CollectorView::collect(dp.oracle(), &peers);
    let rels = InferredRelationships::infer(&view);
    Input {
        view,
        rels,
        ixp_prefixes: net.ixps.iter().map(|x| x.lan).collect(),
        rir: net.rir.clone(),
        vp_asns: net.vp_siblings.clone(),
    }
}

fn probed_world(seed: u64) -> (Arc<DataPlane>, Input, TraceCollection) {
    let net = generate(&TopoConfig::tiny(seed));
    let dp = Arc::new(DataPlane::new(net));
    let input = build_input(dp.internet(), &dp);
    let vp = dp.internet().vps[0].addr;
    let engine = ProbeEngine::new(Arc::clone(&dp), vp, EngineConfig::default());
    let targets = bdrmap_probe::target_blocks(&input.view, &input.vp_asns);
    let ip2as = input.ip2as_for_probing();
    let coll = run_traces(&engine, &targets, RunOptions::default(), |a| {
        ip2as.is_external(a)
    });
    (dp, input, coll)
}

fn fresh_engine(dp: &Arc<DataPlane>) -> ProbeEngine {
    let vp = dp.internet().vps[0].addr;
    ProbeEngine::new(Arc::clone(dp), vp, EngineConfig::default())
}

/// From-scratch reference: `run_stages` with a fresh engine over the
/// engine's cumulative collection.
fn shadow_bytes(
    dp: &Arc<DataPlane>,
    input: &Input,
    cfg: &BdrmapConfig,
    coll: TraceCollection,
) -> Vec<u8> {
    let engine = fresh_engine(dp);
    snapshot::encode_v3(&bdrmap_core::run_stages(&engine, input, cfg, coll).map).unwrap()
}

fn tmp(tag: &str, n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdrmap-journal-it-{tag}-{n}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &PathBuf) -> (Journal, bdrmap_core::journal::Recovered) {
    Journal::open_with(dir, Vfs::real(), Registry::new(), JournalConfig::default()).unwrap()
}

/// Kill the watch loop after two journaled passes, recover by tail
/// replay, and the recovered engine's next map is byte-identical both
/// to an uninterrupted incremental run and to a from-scratch rebuild —
/// at alias parallelism 1 and 4.
#[test]
fn replay_after_kill_is_byte_identical_at_parallelism_1_and_4() {
    let (dp, input, coll) = probed_world(313);
    let pool = coll.traces;
    assert!(pool.len() >= 6, "need a few traces to batch");
    let third = pool.len() / 3;
    let batches = [
        Batch::upserts(pool[..third].to_vec()),
        Batch::upserts(pool[third..2 * third].to_vec()),
        Batch::upserts(pool[2 * third..].to_vec()),
    ];

    for &par in &[1usize, 4] {
        let cfg = BdrmapConfig {
            alias_parallelism: par,
            ..BdrmapConfig::default()
        };
        let dir = tmp("replay", par as u64);
        let (mut journal, rec) = open(&dir);
        assert!(rec.checkpoint.is_none() && rec.tail.is_empty());
        let prober = fresh_engine(&dp);
        let mut engine = IncrementalEngine::new(cfg, TICK_US);
        for b in &batches[..2] {
            journal.append(7, b).unwrap();
            engine.apply(&prober, &input, b.clone());
        }
        // Kill: both the journal handle and the engine die mid-run.
        drop(journal);
        drop(engine);

        let (mut journal, rec) = open(&dir);
        assert_eq!(rec.tail.len(), 2, "both acked batches must replay");
        assert_eq!(journal.lsn(), 2);
        let mut engine = IncrementalEngine::new(cfg, TICK_US);
        for r in &rec.tail {
            engine.apply(&prober, &input, r.batch.clone());
        }

        // The recovered engine's next pass, against both references.
        journal.append(7, &batches[2]).unwrap();
        let (map, report) = engine.apply(&prober, &input, batches[2].clone());
        assert_eq!(report.pass, 3);
        let bytes = snapshot::encode_v3(&map).unwrap();
        let mut uninterrupted = IncrementalEngine::new(cfg, TICK_US);
        let mut reference = None;
        for b in &batches {
            reference = Some(uninterrupted.apply(&prober, &input, b.clone()).0);
        }
        assert_eq!(
            bytes,
            snapshot::encode_v3(&reference.unwrap()).unwrap(),
            "recovered pass 3 diverged from the uninterrupted run at parallelism {par}"
        );
        assert_eq!(
            bytes,
            shadow_bytes(&dp, &input, &cfg, engine.shadow_collection()),
            "recovered pass 3 diverged from the from-scratch rebuild at parallelism {par}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn checkpoint rename is detected at compaction time, leaves no
/// evidence behind, and recovery falls back to the previous checkpoint
/// plus a tail replay — byte-identically.
#[test]
fn torn_compaction_falls_back_to_previous_checkpoint() {
    let (dp, input, coll) = probed_world(509);
    let pool = coll.traces;
    assert!(pool.len() >= 6, "need a few traces to batch");
    let third = pool.len() / 3;
    let b1 = Batch::upserts(pool[..third].to_vec());
    let b2 = Batch::upserts(pool[third..2 * third].to_vec());
    let b3 = Batch::upserts(pool[2 * third..].to_vec());
    let cfg = BdrmapConfig::default();
    let dir = tmp("torn-ckpt", 0);

    let (mut journal, _) = open(&dir);
    let prober = fresh_engine(&dp);
    let mut engine = IncrementalEngine::new(cfg, TICK_US);
    for b in [&b1, &b2] {
        journal.append(7, b).unwrap();
        engine.apply(&prober, &input, b.clone());
    }
    journal
        .checkpoint(&JournalCheckpoint {
            lsn: journal.lsn(),
            generation: 2,
            pass: engine.passes(),
            entries: engine.checkpoint_entries(),
        })
        .unwrap();
    journal.append(7, &b3).unwrap();
    engine.apply(&prober, &input, b3.clone());

    // Compaction through a seam whose one fault is a silent torn
    // rename: the read-back verify must catch it and fail loudly.
    let chaos = ChaosVfs::new(ChaosFsConfig {
        seed: 11,
        fault_rate: 1.0,
        budget: FsFaultBudget {
            torn_rename: 1,
            ..Default::default()
        },
    });
    let (mut cj, _) =
        Journal::open_with(&dir, chaos.vfs(), Registry::new(), JournalConfig::default()).unwrap();
    let torn = JournalCheckpoint {
        lsn: cj.lsn(),
        generation: 3,
        pass: 3,
        entries: engine.checkpoint_entries(),
    };
    assert!(
        cj.checkpoint(&torn).is_err(),
        "a torn checkpoint rename must not pass verification"
    );
    drop(journal);
    drop(engine);

    // Recovery: the pass-2 checkpoint survives, pass 3 replays.
    let (journal, rec) = open(&dir);
    let c = rec.checkpoint.expect("previous checkpoint must survive");
    assert_eq!((c.lsn, c.pass, c.generation), (2, 2, 2));
    assert_eq!(rec.tail.len(), 1);
    assert_eq!(journal.lsn(), 3);
    let (mut engine, _) = IncrementalEngine::restore(cfg, TICK_US, &prober, &input, &c.entries, 2);
    for r in &rec.tail {
        engine.apply(&prober, &input, r.batch.clone());
    }
    assert_eq!(engine.passes(), 3);

    // The recovered engine's next map (a retraction, to stress the
    // non-trivial path) is byte-identical to an uninterrupted run.
    let retract = Batch {
        upserts: Vec::new(),
        retractions: vec![b1.upserts[0].dst],
    };
    let (map, _) = engine.apply(&prober, &input, retract.clone());
    let mut uninterrupted = IncrementalEngine::new(cfg, TICK_US);
    let mut reference = None;
    for b in [&b1, &b2, &b3, &retract] {
        reference = Some(uninterrupted.apply(&prober, &input, b.clone()).0);
    }
    assert_eq!(
        snapshot::encode_v3(&map).unwrap(),
        snapshot::encode_v3(&reference.unwrap()).unwrap(),
        "post-recovery retraction diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--expire-after` boundary semantics: a trace refreshed at pass P is
/// alive through pass P+n-1, expires exactly when the clock reads
/// P+n, a refresh resets its clock, and retraction removes it from
/// both the checkpoint image and the expiry clock.
#[test]
fn expire_after_boundaries_refresh_and_retraction() {
    let (dp, input, coll) = probed_world(601);
    let pool = coll.traces;
    assert!(pool.len() >= 4, "need a few traces to expire");
    let cfg = BdrmapConfig::default();
    let prober = fresh_engine(&dp);
    let mut engine = IncrementalEngine::new(cfg, TICK_US);
    let (a, rest) = pool.split_at(2);

    engine.apply(&prober, &input, Batch::upserts(a.to_vec())); // pass 1
    assert!(
        engine.expired(1).is_empty(),
        "nothing expires inside its own pass"
    );

    engine.apply(&prober, &input, Batch::upserts(rest.to_vec())); // pass 2
    let mut want: Vec<_> = a.iter().map(|t| t.dst).collect();
    want.sort_unstable();
    // Exactly-n boundary: clock 2 - refresh 1 == 1.
    assert_eq!(engine.expired(1), want);
    assert!(engine.expired(2).is_empty());

    // A refresh resets the clock: only the unrefreshed half of the
    // first batch is stale two passes later.
    engine.apply(&prober, &input, Batch::upserts(vec![a[0].clone()])); // pass 3
    assert_eq!(engine.expired(2), vec![a[1].dst]);
    let entries = engine.checkpoint_entries();
    assert_eq!(
        entries.iter().find(|(t, _)| t.dst == a[0].dst).unwrap().1,
        3,
        "checkpoint entries must carry the refreshed pass"
    );

    // Retracting the expired set is byte-identical to a from-scratch
    // rebuild without those traces, and erases them from the
    // checkpoint image and the expiry clock alike.
    let batch = Batch {
        upserts: Vec::new(),
        retractions: engine.expired(2),
    };
    let (map, report) = engine.apply(&prober, &input, batch); // pass 4
    assert_eq!(report.retracted, 1);
    assert_eq!(
        snapshot::encode_v3(&map).unwrap(),
        shadow_bytes(&dp, &input, &cfg, engine.shadow_collection()),
        "retraction of expired traces diverged from the rebuild"
    );
    assert!(engine
        .checkpoint_entries()
        .iter()
        .all(|(t, _)| t.dst != a[1].dst));
    assert!(engine.expired(1).iter().all(|&d| d != a[1].dst));
}
