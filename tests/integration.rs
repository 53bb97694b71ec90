//! Workspace-level integration tests: exercise the whole stack through
//! the `bdrmap` facade, across scenarios and deployment modes.

use bdrmap::eval::insights::{collect_vp_traces, fig14, fig15};
use bdrmap::eval::table1::table1;
use bdrmap::eval::validate::validate;
use bdrmap::prelude::*;
use bdrmap_topo::TopoConfig;

#[test]
fn small_access_scenario_end_to_end() {
    let sc = Scenario::build("small access", &TopoConfig::small_access(301));
    let map = sc.run_vp(0, &BdrmapConfig::default());
    let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
    let v = validate(sc.net(), &neighbors, &map);
    assert!(v.links_total >= 20, "links: {}", v.links_total);
    assert!(
        v.link_accuracy() >= 0.9,
        "accuracy {:.2}",
        v.link_accuracy()
    );
    assert!(v.bgp_coverage() >= 0.7, "coverage {:.2}", v.bgp_coverage());
}

#[test]
fn multiple_vps_discover_more_links_than_one() {
    let sc = Scenario::build("scaled access", &TopoConfig::large_access_scaled(302, 0.05));
    let per_vp = collect_vp_traces(&sc, 2);
    let curves = fig15(&sc, &per_vp);
    // For at least one tracked neighbor, the cumulative curve must grow
    // after the first VP (the hot-potato signature).
    assert!(
        curves
            .iter()
            .any(|c| c.cumulative.last().unwrap() > &c.cumulative[0]),
        "no neighbor benefited from extra VPs: {curves:?}"
    );
    // And the all-VP coverage never regresses (cumulative).
    for c in &curves {
        assert!(c.cumulative.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn fig14_diversity_exists_across_vps() {
    let sc = Scenario::build("scaled access", &TopoConfig::large_access_scaled(303, 0.05));
    let per_vp = collect_vp_traces(&sc, 2);
    let f = fig14(&sc, &per_vp);
    assert!(!f.all.per_prefix.is_empty());
    // Far prefixes must show more egress diversity than the hosting
    // network's own single-homed customers.
    let far_multi = f.far.frac_routers(|r| r >= 2);
    let all_single = f.all.frac_routers(|r| r == 1);
    assert!(far_multi > 0.3, "far multi-router share {far_multi:.2}");
    assert!(all_single > 0.0);
}

#[test]
fn table1_columns_are_consistent_with_validation() {
    let sc = Scenario::build("re", &TopoConfig::re_network(304));
    let map = sc.run_vp(0, &BdrmapConfig::default());
    let t = table1(&sc, &map);
    let total_neighbors: usize = t.observed_bdrmap.iter().sum();
    assert_eq!(total_neighbors, map.neighbors().len());
    // Row shares are probabilities.
    for (label, shares) in &t.rows {
        for &s in shares {
            assert!((0.0..=1.0).contains(&s), "{label}: share {s}");
        }
    }
    // Neighbor routers is at least the number of neighbors with links.
    let routers: usize = t.neighbor_routers.iter().sum();
    assert!(routers >= total_neighbors);
}

#[test]
fn facade_prelude_compiles_and_runs() {
    // The doc-example flow through the prelude.
    let scenario = Scenario::build("demo", &TopoConfig::tiny(305));
    let map = scenario.run_vp(0, &BdrmapConfig::default());
    assert!(!map.links.is_empty());
    let hist = map.heuristic_histogram();
    assert!(!hist.is_empty());
    // Heuristic tags on links are also present on the far routers.
    for l in &map.links {
        if let Some(f) = l.far {
            assert!(map.routers[f].owner.is_some());
        }
    }
}

#[test]
fn vp_count_affects_coverage_monotonically_in_aggregate() {
    let sc = Scenario::build("scaled access", &TopoConfig::large_access_scaled(306, 0.04));
    let cfg = BdrmapConfig {
        parallelism: 4,
        ..Default::default()
    };
    // Union of neighbors over k VPs grows (weakly) with k.
    let maps: Vec<_> = (0..3).map(|i| sc.run_vp(i, &cfg)).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut counts = Vec::new();
    for m in &maps {
        seen.extend(m.neighbors());
        counts.push(seen.len());
    }
    assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    assert!(counts[2] >= counts[0]);
}

#[test]
fn heuristic_mix_matches_paper_shape() {
    // The firewall heuristic must dominate customer inference (>40% of
    // customer neighbors), mirroring Table 1's headline observation.
    let sc = Scenario::build("scaled access", &TopoConfig::large_access_scaled(307, 0.08));
    let map = sc.run_vp(0, &BdrmapConfig::default());
    let t = table1(&sc, &map);
    let firewall_share = t
        .rows
        .iter()
        .find(|(l, _)| l == "2. Firewall")
        .map(|(_, s)| s[0])
        .unwrap_or(0.0);
    assert!(
        firewall_share > 0.4,
        "firewall share of customers {firewall_share:.2} (paper: 0.51–0.65)"
    );
}

#[test]
fn far_links_extracted_with_reasonable_accuracy() {
    // The bdrmapIT-direction extension: links between networks beyond
    // the first border. Accuracy is allowed to be lower than at the
    // first border (fewer constraints, §1 of the paper), but the
    // extraction must produce real adjacencies far more often than not.
    let sc = Scenario::build("tiny", &TopoConfig::tiny(108));
    let engine = sc.engine(0);
    let input = &sc.input;

    let targets = bdrmap_probe::target_blocks(&input.view, &input.vp_asns);
    let ip2as_probe = input.ip2as_for_probing();
    let coll = bdrmap_probe::run_traces(
        &engine,
        &targets,
        bdrmap_probe::RunOptions::default(),
        |a| ip2as_probe.is_external(a),
    );
    let ip2as = input.ip2as_with_estimation(&coll.traces);
    let alias = bdrmap::core::aliases::resolve(
        &engine,
        &coll.traces,
        &ip2as,
        &bdrmap::core::AliasConfig::default(),
    );
    let graph = bdrmap::core::graph::ObservedGraph::build(&coll.traces, &alias, &ip2as);
    let map = bdrmap::core::heuristics::infer(&graph, input, &ip2as, coll);
    let _ = engine.budget();

    let far = bdrmap::core::far_links(
        &graph,
        |r| map.routers[r].owner,
        |r| map.routers[r].heuristic,
        &input.vp_asns,
    );
    assert!(!far.is_empty(), "a transit-rich world must show far links");
    let (correct, total) = bdrmap::eval::validate::validate_far_links(sc.net(), &far);
    assert!(
        correct * 10 >= total * 7,
        "far-link accuracy {correct}/{total}"
    );
}

#[test]
fn per_vp_validation_spread_is_tight() {
    // The paper evaluated three VPs inside the large access network and
    // found 97.0–98.9% correct from each: accuracy must not depend on
    // where the VP sits.
    let sc = Scenario::build("scaled access", &TopoConfig::large_access_scaled(309, 0.06));
    let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
    let cfg = BdrmapConfig {
        parallelism: 4,
        ..Default::default()
    };
    let mut accs = Vec::new();
    for vp in [0usize, sc.num_vps() / 2, sc.num_vps() - 1] {
        let map = sc.run_vp(vp, &cfg);
        let v = validate(sc.net(), &neighbors, &map);
        accs.push(v.link_accuracy());
    }
    for (i, a) in accs.iter().enumerate() {
        assert!(*a > 0.9, "vp#{i} accuracy {a:.3}");
    }
    let spread = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - accs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.08, "per-VP accuracy spread {spread:.3}");
}

#[test]
fn sibling_org_routers_are_not_borders() {
    // A regional subsidiary's routers are part of the hosting
    // organisation: traces crossing main↔sibling internal links must not
    // produce inferred interdomain links between the two.
    let mut cfg = TopoConfig::tiny(310);
    cfg.vp_sibling = true;
    let sc = Scenario::build("sibling", &cfg);
    let net = sc.net();
    assert_eq!(net.vp_siblings.len(), 2);
    let map = sc.run_vp(0, &BdrmapConfig::default());
    for l in &map.links {
        assert!(
            !net.vp_siblings.contains(&l.far_as),
            "inferred a border to the sibling org: {l:?}"
        );
    }
    // And the map still finds external neighbors.
    assert!(map.neighbors().len() > 3);
}

#[test]
fn tiny_map_bytes_match_pinned_crc() {
    // At trace and alias parallelism 1 the map is a pure function of
    // (world, seed, config), so its encoded bytes can be pinned: a
    // change to the simulator, the probing or the inference that moves
    // any byte must update this digest on purpose.
    let sc = Scenario::build("tiny", &TopoConfig::tiny(42));
    let cfg = BdrmapConfig {
        parallelism: 1,
        alias_parallelism: 1,
        ..BdrmapConfig::default()
    };
    let map = sc.run_vp(0, &cfg);
    let bytes = bdrmap::core::snapshot::encode_v3(&map).expect("an inferred map encodes");
    let crc = bdrmap::types::integrity::crc32c(&bytes);
    assert_eq!((crc, bytes.len()), (0x1c76_cbe2, 2878));
}
