//! Parallel alias resolution is byte-identical to the serial run.
//!
//! Each alias pair test is an isolated task: it probes through a fresh
//! dataplane runtime on a private virtual timeline keyed on its
//! canonical task id, so its verdict cannot depend on worker
//! interleaving. These tests pin the consequence: the alias outcome —
//! and the final border map built from it — is the same at any
//! parallelism, and staging strictly reduces the executed pair tests.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{aliases, snapshot, AliasConfig, BdrmapConfig, Input};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions, TraceCollection};
use bdrmap_topo::{generate, AsKind, Internet, TopoConfig};
use bdrmap_types::Asn;
use std::sync::Arc;

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

/// Generate a topology and probe it once; alias runs at different
/// parallelism levels then reuse the same trace collection.
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

/// A fresh engine per run keeps the probe budget comparable: it carries
/// only the alias traffic of that run.
fn fresh_engine(dp: &Arc<DataPlane>) -> ProbeEngine {
    let vp = dp.internet().vps[0].addr;
    ProbeEngine::new(Arc::clone(dp), vp, EngineConfig::default())
}

#[test]
fn alias_data_and_border_map_identical_at_any_parallelism() {
    let (dp, input, coll) = probed_world(314);

    let mut runs = Vec::new();
    for parallelism in [1usize, 4, 8] {
        let engine = fresh_engine(&dp);
        let cfg = BdrmapConfig {
            alias_parallelism: parallelism,
            ..BdrmapConfig::default()
        };
        let run = bdrmap_core::run_stages(&engine, &input, &cfg, coll.clone());
        let map_bytes = snapshot::encode_v3(&run.map).unwrap();
        runs.push((parallelism, run, map_bytes));
    }

    let (_, serial, serial_map) = &runs[0];
    for (parallelism, run, map_bytes) in &runs[1..] {
        assert_eq!(
            serial.alias_bytes, run.alias_bytes,
            "alias outcome diverged at parallelism {parallelism}"
        );
        assert_eq!(
            serial_map, map_bytes,
            "border map diverged at parallelism {parallelism}"
        );
        // Even the traffic totals match: each task's cost is a pure
        // function of its id, and budgets are commutative sums.
        assert_eq!(
            serial.stages.alias.packets, run.stages.alias.packets,
            "alias packet totals diverged at parallelism {parallelism}"
        );
    }
    // The parallel runs actually sharded the work.
    assert!(runs[2].1.stages.alias.shards.len() > 1);
}

#[test]
fn staged_engine_executes_fewer_pair_tests_than_naive() {
    let (dp, input, coll) = probed_world(316);
    let ip2as = input.ip2as_with_estimation(&coll.traces);

    let naive = aliases::resolve(
        &fresh_engine(&dp),
        &coll.traces,
        &ip2as,
        &AliasConfig {
            staged: false,
            ..AliasConfig::default()
        },
    );
    let staged = aliases::resolve(
        &fresh_engine(&dp),
        &coll.traces,
        &ip2as,
        &AliasConfig::default(),
    );

    assert!(
        staged.pairs_tested < naive.pairs_tested,
        "staging must shrink the executed pair-test set: staged {} vs naive {}",
        staged.pairs_tested,
        naive.pairs_tested
    );
    let skipped =
        staged.stats.ally_staged_out + staged.stats.ally_deduped + staged.stats.prefixscan_deduped;
    assert!(skipped > 0, "no pair was deduplicated or staged out");
}
