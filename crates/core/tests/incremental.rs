//! The incremental engine's correctness contract: after any sequence
//! of add/replace/retract batches, the published map is byte-identical
//! to a from-scratch `run_stages` rebuild over the same cumulative
//! trace set — at any alias parallelism.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{snapshot, Batch, BdrmapConfig, IncrementalEngine, Input};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions, Trace, TraceCollection};
use bdrmap_topo::{generate, AsKind, Internet, TopoConfig};
use bdrmap_types::Asn;
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A "re-measured" trace to the same destination that saw one hop
/// fewer — the replace case with genuinely different content.
fn truncated(tr: &Trace) -> Trace {
    let mut t = tr.clone();
    t.hops.pop();
    t
}

/// Random interleavings of add/replace/retract batches converge: the
/// incremental snapshot bytes equal the full-rebuild bytes after every
/// step, at alias parallelism 1 and 4.
#[test]
fn incremental_matches_shadow_rebuild_under_random_interleavings() {
    let (dp, input, coll) = probed_world(271);
    let pool = coll.traces;
    assert!(pool.len() >= 8, "need a few traces to interleave");

    for &par in &[1usize, 4] {
        let cfg = BdrmapConfig {
            alias_parallelism: par,
            ..BdrmapConfig::default()
        };
        let mut engine = IncrementalEngine::new(cfg, TICK_US);
        let prober = fresh_engine(&dp);
        let mut rng = 0xbd12_0000 + par as u64;
        let mut next = pool.len() / 3; // pool[..next] is held initially
        let mut cache_hits_seen = false;

        // Pass 1: a third of the traces.
        let (map, report) = engine.apply(&prober, &input, Batch::upserts(pool[..next].to_vec()));
        assert!(report.full_walk && report.reused == 0);
        assert_eq!(
            snapshot::encode_v3(&map).unwrap(),
            shadow_bytes(&dp, &input, &cfg, engine.shadow_collection()),
            "pass 1 diverged at parallelism {par}"
        );

        for step in 2..=6 {
            let mut batch = Batch::default();
            match splitmix(&mut rng) % 3 {
                // Add a couple of fresh destinations.
                0 => {
                    let take = (pool.len() - next).min(2);
                    batch.upserts = pool[next..next + take].to_vec();
                    next += take;
                }
                // Replace a held trace with a truncated re-measurement.
                1 if next > 0 => {
                    let i = (splitmix(&mut rng) % next as u64) as usize;
                    batch.upserts = vec![truncated(&pool[i])];
                }
                // Retract a held destination (it may be re-added later
                // via the add arm, which walks the pool front to back).
                _ if next > 0 => {
                    let i = (splitmix(&mut rng) % next as u64) as usize;
                    batch.retractions = vec![pool[i].dst];
                }
                _ => {}
            }
            let (map, report) = engine.apply(&prober, &input, batch);
            assert_eq!(
                snapshot::encode_v3(&map).unwrap(),
                shadow_bytes(&dp, &input, &cfg, engine.shadow_collection()),
                "step {step} diverged at parallelism {par}"
            );
            cache_hits_seen |= report.alias_cache_hits > 0;
        }
        assert!(
            cache_hits_seen,
            "later passes must replay cached alias tasks (parallelism {par})"
        );
    }
}

/// A batch that changes nothing re-infers nothing: every router reuses
/// its previous decision and the map bytes are unchanged.
#[test]
fn noop_batch_reuses_every_router() {
    let (dp, input, coll) = probed_world(272);
    let cfg = BdrmapConfig::default();
    let mut engine = IncrementalEngine::new(cfg, TICK_US);
    let prober = fresh_engine(&dp);

    let (map1, _) = engine.apply(&prober, &input, Batch::upserts(coll.traces.clone()));
    // Re-upsert an identical trace: the cumulative set is unchanged.
    let (map2, report) = engine.apply(
        &prober,
        &input,
        Batch::upserts(vec![coll.traces[0].clone()]),
    );
    assert_eq!(report.replaced, 1);
    assert_eq!(report.reinferred, 0, "clean pass must re-infer nothing");
    assert_eq!(report.reused, report.routers);
    assert_eq!(report.alias_cache_misses, 0, "no new alias task may probe");
    assert_eq!(
        snapshot::encode_v3(&map1).unwrap(),
        snapshot::encode_v3(&map2).unwrap()
    );
}

/// Retracting everything ever added converges back to the small map.
#[test]
fn retraction_restores_the_smaller_maps_bytes() {
    let (dp, input, coll) = probed_world(273);
    let cfg = BdrmapConfig::default();
    let split = coll.traces.len() / 2;
    let prober = fresh_engine(&dp);

    let mut engine = IncrementalEngine::new(cfg, TICK_US);
    let (small, _) = engine.apply(
        &prober,
        &input,
        Batch::upserts(coll.traces[..split].to_vec()),
    );

    let mut engine2 = IncrementalEngine::new(cfg, TICK_US);
    let _ = engine2.apply(&prober, &input, Batch::upserts(coll.traces.clone()));
    let (shrunk, report) = engine2.apply(
        &prober,
        &input,
        Batch {
            upserts: Vec::new(),
            retractions: coll.traces[split..].iter().map(|t| t.dst).collect(),
        },
    );
    assert_eq!(report.retracted, coll.traces.len() - split);
    assert_eq!(
        snapshot::encode_v3(&small).unwrap(),
        snapshot::encode_v3(&shrunk).unwrap(),
        "retraction must converge to the same bytes as never adding"
    );
    assert_eq!(
        snapshot::encode_v3(&shrunk).unwrap(),
        shadow_bytes(&dp, &input, &cfg, engine2.shadow_collection())
    );
}
