//! Subcommand implementations.

use crate::args::{ArgError, Args};
use bdrmap_core::{merge_maps, BdrmapConfig};
use bdrmap_eval::report::TextTable;
use bdrmap_eval::Scenario;
use bdrmap_serve::{Client, LoadgenConfig, Request, Response, ServeConfig, Server};
use bdrmap_topo::TopoConfig;
use bdrmap_types::{Asn, Prefix};

/// Resolve `--preset/--seed/--scale` into a generator config.
pub fn preset(args: &Args) -> Result<TopoConfig, ArgError> {
    let seed: u64 = args.get_parse("seed", 42)?;
    let scale: f64 = args.get_parse("scale", 0.1)?;
    let name = args.get("preset").unwrap_or("tiny");
    let cfg = match name {
        "tiny" => TopoConfig::tiny(seed),
        "re" | "r&e" => TopoConfig::re_network(seed),
        "large-access" | "access" => {
            if args.flag("full") {
                TopoConfig::large_access(seed)
            } else {
                TopoConfig::large_access_scaled(seed, scale)
            }
        }
        "tier1" => {
            if args.flag("full") {
                TopoConfig::tier1(seed)
            } else {
                TopoConfig::tier1_scaled(seed, scale)
            }
        }
        "small-access" => TopoConfig::small_access(seed),
        other => return Err(ArgError(format!("unknown preset: {other}"))),
    };
    Ok(cfg)
}

/// Resolve `--alias-parallelism`: defaults to the machine's available
/// cores. Alias output is byte-identical at any value (each pair test
/// is an isolated task), so this only trades wall time for threads.
fn alias_parallelism(args: &Args) -> Result<usize, ArgError> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n: usize = args.get_parse("alias-parallelism", default)?;
    if n == 0 {
        return Err(ArgError(
            "--alias-parallelism must be at least 1 (0 workers cannot make progress)".into(),
        ));
    }
    Ok(n)
}

fn bdrmap_config(args: &Args) -> Result<BdrmapConfig, ArgError> {
    Ok(BdrmapConfig {
        alias_resolution: !args.flag("no-alias"),
        addrs_per_block: if args.flag("one-addr") { 1 } else { 5 },
        use_stop_sets: !args.flag("no-stop-sets"),
        alias_parallelism: alias_parallelism(args)?,
        ..Default::default()
    })
}

/// Resolve `--vp` against the scenario, rejecting out-of-range indices
/// with an error instead of an index panic deep in the pipeline.
fn vp_index(args: &Args, sc: &Scenario) -> Result<usize, ArgError> {
    let vp: usize = args.get_parse("vp", 0)?;
    if vp >= sc.num_vps() {
        return Err(ArgError(format!(
            "--vp {vp} out of range (have {})",
            sc.num_vps()
        )));
    }
    Ok(vp)
}

/// Resolve `--fault-seed/--loss/--flap` into a fault plan, or `None`
/// when no fault was requested (keeping the exact pre-fault code path).
fn fault_args(args: &Args) -> Result<Option<bdrmap_dataplane::FaultPlan>, ArgError> {
    let seed: u64 = args.get_parse("fault-seed", 1)?;
    let loss: f64 = args.get_parse("loss", 0.0)?;
    let flap: f64 = args.get_parse("flap", 0.0)?;
    if !(0.0..=1.0).contains(&loss) || !(0.0..=1.0).contains(&flap) {
        return Err(ArgError(format!(
            "--loss/--flap must be in [0, 1], got {loss}/{flap}"
        )));
    }
    if loss == 0.0 && flap == 0.0 {
        return Ok(None);
    }
    Ok(Some(bdrmap_eval::degradation::fault_plan(seed, loss, flap)))
}

/// `bdrmap generate`: build a topology, print the inventory.
pub fn generate(args: &Args) -> Result<(), ArgError> {
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let net = sc.net();
    println!(
        "generated: {} ASes, {} routers, {} interfaces, {} links, {} routed prefixes, {} IXPs, {} VPs",
        net.graph.num_ases(),
        net.routers.len(),
        net.ifaces.len(),
        net.links.len(),
        net.origins.len(),
        net.ixps.len(),
        net.vps.len()
    );
    let mut kinds: std::collections::BTreeMap<String, usize> = Default::default();
    for a in net.graph.ases() {
        *kinds
            .entry(format!("{:?}", net.as_info(a).kind))
            .or_insert(0) += 1;
    }
    let mut t = TextTable::new(&["AS kind", "count"]);
    for (k, c) in kinds {
        t.row(vec![k, c.to_string()]);
    }
    println!("\n{}", t.render());
    println!(
        "measured network: {} ({} PoPs, {} interdomain links, {} BGP neighbors)",
        net.vp_as,
        net.as_info(net.vp_as).pops.len(),
        net.border_links_of(net.vp_as).len(),
        net.graph.neighbors(net.vp_as).len()
    );
    Ok(())
}

/// `bdrmap run`: one VP, full pipeline, printed border map + score.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let vp = vp_index(args, &sc)?;
    let map = match fault_args(args)? {
        Some(plan) => {
            // Faulted runs go through the self-healing engine and probe
            // sequentially, so identical flags replay identically.
            sc.dp.set_faults(plan);
            let engine = bdrmap_probe::ProbeEngine::new(
                std::sync::Arc::clone(&sc.dp),
                sc.net().vps[vp].addr,
                bdrmap_eval::degradation::hardened_config(),
            );
            let cfg = BdrmapConfig {
                parallelism: 1,
                alias_parallelism: 1,
                ..bdrmap_config(args)?
            };
            let m = bdrmap_core::run_bdrmap(&engine, &sc.input, &cfg);
            sc.dp.clear_faults();
            m
        }
        None => sc.run_vp(vp, &bdrmap_config(args)?),
    };
    println!(
        "vp{} probed {} packets ({:.2} simulated h at 100 pps)\n",
        vp,
        map.packets,
        map.elapsed_ms as f64 / 3.6e6
    );
    let mut t = TextTable::new(&["neighbor", "links", "heuristics"]);
    for (nb, links) in map.links_by_neighbor() {
        let mut tags: Vec<String> = links.iter().map(|l| format!("{:?}", l.heuristic)).collect();
        tags.sort();
        tags.dedup();
        t.row(vec![
            nb.to_string(),
            links.len().to_string(),
            tags.join(","),
        ]);
    }
    println!("{}", t.render());
    let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
    let v = bdrmap_eval::validate::validate(sc.net(), &neighbors, &map);
    println!(
        "validation: {}/{} links correct ({:.1}%), BGP coverage {:.1}%, owner accuracy {:.1}%",
        v.links_correct,
        v.links_total,
        v.link_accuracy() * 100.0,
        v.bgp_coverage() * 100.0,
        v.owner_accuracy() * 100.0
    );
    if let Some(out) = args.get("map-out") {
        bdrmap_core::snapshot::save(std::path::Path::new(out), &map)
            .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
        println!(
            "wrote border-map snapshot to {out} (serve it with `bdrmap serve --snapshot {out}`)"
        );
    }
    if let Some(dir) = args.get("snap-dir") {
        let store = bdrmap_core::SnapStore::open(dir)
            .map_err(|e| ArgError(format!("opening snapshot store {dir}: {e}")))?;
        let generation = store
            .publish(&map)
            .map_err(|e| ArgError(format!("publishing into {dir}: {e}")))?;
        println!(
            "published generation {generation} into {dir} (serve it with `bdrmap serve --snap-dir {dir}`)"
        );
    }
    write_metrics_out(args)?;
    Ok(())
}

/// Write the global metric exposition to `--metrics-out`, when given.
///
/// Everything recorded during the invocation — probe engine, alias
/// resolution, pipeline stages, heuristics attribution — lands in one
/// Prometheus-style exposition. Count-valued families are pure
/// functions of (preset, seed, fault flags); only `_us` wall-clock
/// families vary between identically-seeded runs.
fn write_metrics_out(args: &Args) -> Result<(), ArgError> {
    if let Some(out) = args.get("metrics-out") {
        bdrmap_types::fsutil::write_atomic(
            std::path::Path::new(out),
            bdrmap_obs::global().render().as_bytes(),
        )
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
        println!("wrote metric exposition to {out}");
    }
    Ok(())
}

/// `bdrmap merge`: all VPs merged into one interconnectivity view.
pub fn merge(args: &Args) -> Result<(), ArgError> {
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let nvps: usize = args.get_parse("vps", sc.num_vps())?;
    let nvps = nvps.min(sc.num_vps());
    let bcfg = bdrmap_config(args)?;
    let maps: Vec<_> = (0..nvps).map(|i| sc.run_vp(i, &bcfg)).collect();
    // Each per-VP run above reports its stage timings through
    // `run_stages`; the cross-VP union is the one stage that happens
    // nowhere else, so it gets accounted here.
    let t = std::time::Instant::now();
    let merged = merge_maps(&maps);
    bdrmap_core::pipeline::record_extra_stage("merge", t.elapsed().as_secs_f64() * 1e3);
    let reg = bdrmap_obs::global();
    reg.gauge("bdrmap_merge_vps", &[]).set(merged.vps as u64);
    reg.gauge("bdrmap_merge_routers", &[])
        .set(merged.routers.len() as u64);
    reg.gauge("bdrmap_merge_links", &[])
        .set(merged.links.len() as u64);
    println!(
        "merged {} VPs: {} routers, {} links, {} neighbors",
        merged.vps,
        merged.routers.len(),
        merged.links.len(),
        merged.neighbors().len()
    );
    // Top neighbors by link count — the inference-side Figure 15 view.
    let mut by_links: Vec<_> = merged.links_per_neighbor().into_iter().collect();
    by_links.sort_by_key(|&(a, c)| (std::cmp::Reverse(c), a));
    let mut t = TextTable::new(&["neighbor", "links (merged)", "name"]);
    for (nb, c) in by_links.iter().take(15) {
        t.row(vec![
            nb.to_string(),
            c.to_string(),
            sc.net().as_info(*nb).name.clone(),
        ]);
    }
    println!("\n{}", t.render());
    write_metrics_out(args)?;
    Ok(())
}

/// `bdrmap table1`: the Table 1 suite.
pub fn table1(args: &Args) -> Result<(), ArgError> {
    let full = args.flag("full");
    let seed: u64 = args.get_parse("seed", 1)?;
    let scale: f64 = args.get_parse("scale", 0.12)?;
    let scenarios: Vec<(&str, TopoConfig)> = vec![
        ("R&E network", TopoConfig::re_network(seed)),
        (
            "Large access network",
            if full {
                TopoConfig::large_access(seed + 1)
            } else {
                TopoConfig::large_access_scaled(seed + 1, scale)
            },
        ),
        (
            "Tier-1 network",
            if full {
                TopoConfig::tier1(seed + 2)
            } else {
                TopoConfig::tier1_scaled(seed + 2, scale)
            },
        ),
        ("Small access network", TopoConfig::small_access(seed + 3)),
    ];
    for (name, cfg) in scenarios {
        let sc = Scenario::build(name, &cfg);
        let map = sc.run_vp(0, &bdrmap_config(args)?);
        println!(
            "{}",
            bdrmap_eval::table1::render(&bdrmap_eval::table1::table1(&sc, &map))
        );
        let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
        let v = bdrmap_eval::validate::validate(sc.net(), &neighbors, &map);
        println!(
            "validation: {:.1}% links correct, {:.1}% coverage (paper: 96.3-98.9%, 92.2-96.8%)\n",
            v.link_accuracy() * 100.0,
            v.bgp_coverage() * 100.0
        );
    }
    Ok(())
}

/// `bdrmap insights`: Figures 14/15/16.
pub fn insights(args: &Args) -> Result<(), ArgError> {
    let seed: u64 = args.get_parse("seed", 20)?;
    let scale: f64 = args.get_parse("scale", 0.1)?;
    let cfg = if args.flag("full") {
        TopoConfig::large_access(seed)
    } else {
        TopoConfig::large_access_scaled(seed, scale)
    };
    let sc = Scenario::build("large access network", &cfg);
    let per_vp =
        bdrmap_eval::insights::collect_vp_traces(&sc, if args.flag("full") { 5 } else { 3 });

    let f14 = bdrmap_eval::insights::fig14(&sc, &per_vp);
    println!(
        "Figure 14 ({} prefixes, {} far):",
        f14.all.per_prefix.len(),
        f14.far.per_prefix.len()
    );
    for (label, d) in [("all", &f14.all), ("far", &f14.far)] {
        println!(
            "  [{label}] 1 router {:.1}% | 5-15 {:.1}% | >15 {:.1}% | same next-hop {:.1}%",
            d.frac_routers(|r| r == 1) * 100.0,
            d.frac_routers(|r| (5..=15).contains(&r)) * 100.0,
            d.frac_routers(|r| r > 15) * 100.0,
            d.frac_same_next_hop() * 100.0
        );
    }
    println!("\nFigure 15 (cumulative links by #VPs):");
    for c in bdrmap_eval::insights::fig15(&sc, &per_vp) {
        println!(
            "  {:<24} truth={:<3} {:?}",
            c.name, c.true_links, c.cumulative
        );
    }
    println!("\nFigure 16 (per-VP link longitudes, first/middle/last VP):");
    let f16 = bdrmap_eval::insights::fig16(&sc, &per_vp);
    for row in [f16.first(), f16.get(f16.len() / 2), f16.last()]
        .into_iter()
        .flatten()
    {
        print!("  vp{:<2} @ {:>7.1}:", row.vp, row.vp_longitude);
        for (name, lons) in &row.links {
            let s: Vec<String> = lons.iter().map(|l| format!("{l:.0}")).collect();
            print!("  {}=[{}]", name, s.join(","));
        }
        println!();
    }
    Ok(())
}

/// `bdrmap ablation`.
pub fn ablation(args: &Args) -> Result<(), ArgError> {
    let seed: u64 = args.get_parse("seed", 55)?;
    let scale: f64 = args.get_parse("scale", 0.08)?;
    let sc = Scenario::build(
        "ablation",
        &bdrmap_eval::ablation::stress_config(seed, scale),
    );
    let results = bdrmap_eval::ablation::run_ablations(&sc, 0);
    let mut t = TextTable::new(&[
        "variant", "links", "accuracy", "coverage", "routers", "packets",
    ]);
    for r in &results {
        t.row(vec![
            r.name.clone(),
            r.validation.links_total.to_string(),
            format!("{:.1}%", r.validation.link_accuracy() * 100.0),
            format!("{:.1}%", r.validation.bgp_coverage() * 100.0),
            r.routers.to_string(),
            r.packets.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// `bdrmap resources`: §5.8 accounting.
pub fn resources(args: &Args) -> Result<(), ArgError> {
    let seed: u64 = args.get_parse("seed", 77)?;
    let sc = Scenario::build("resources", &TopoConfig::re_network(seed));
    let r = bdrmap_eval::resources::resources(&sc, 0);
    println!(
        "central {} B vs device {} B over {} traces — ratio ×{:.0} (paper: ≈43×)",
        r.central_bytes,
        r.device_bytes,
        r.traces,
        r.ratio()
    );
    Ok(())
}

/// `bdrmap probe`: trace collection only, saved to a warts-like store.
/// Decouples probing from inference exactly as scamper/warts does.
pub fn probe(args: &Args) -> Result<(), ArgError> {
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("probe needs --out <path>".into()))?;
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let vp = vp_index(args, &sc)?;
    let faults = fault_args(args)?;
    let engine = match &faults {
        Some(plan) => {
            sc.dp.set_faults(plan.clone());
            bdrmap_probe::ProbeEngine::new(
                std::sync::Arc::clone(&sc.dp),
                sc.net().vps[vp].addr,
                bdrmap_eval::degradation::hardened_config(),
            )
        }
        None => sc.engine(vp),
    };
    let ip2as = sc.input.ip2as_for_probing();
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    let bcfg = bdrmap_config(args)?;
    let opts = bdrmap_probe::RunOptions {
        // Faulted runs probe sequentially so identical flags replay
        // identically (fault draws are keyed on probe send times).
        parallelism: if faults.is_some() {
            1
        } else {
            bcfg.parallelism
        },
        addrs_per_block: bcfg.addrs_per_block,
        use_stop_sets: bcfg.use_stop_sets,
        quarantine: faults
            .is_some()
            .then(bdrmap_probe::QuarantinePolicy::default),
    };
    let every: u32 = args.get_parse("checkpoint-every", 0)?;
    let coll = if every > 0 {
        let ckpt = std::path::PathBuf::from(format!("{out}.ckpt"));
        let resume = if args.flag("resume") && ckpt.exists() {
            let cp = bdrmap_probe::Checkpoint::load(&ckpt)
                .map_err(|e| ArgError(format!("reading {}: {e}", ckpt.display())))?;
            println!(
                "resuming from {} ({} traces, {} target ASes done)",
                ckpt.display(),
                cp.traces.len(),
                cp.next_target
            );
            Some(cp)
        } else {
            None
        };
        let ccfg = bdrmap_probe::CheckpointConfig {
            every,
            path: ckpt,
            vfs: bdrmap_types::Vfs::real(),
        };
        bdrmap_probe::run_traces_checkpointed(
            &engine,
            &targets,
            opts,
            |a| ip2as.is_external(a),
            &ccfg,
            resume,
        )
        .map_err(|e| ArgError(format!("writing {}: {e}", ccfg.path.display())))?
    } else {
        bdrmap_probe::run_traces(&engine, &targets, opts, |a| ip2as.is_external(a))
    };
    sc.dp.clear_faults();
    let n = coll.traces.len();
    let packets = coll.budget.packets;
    bdrmap_probe::store::save(std::path::Path::new(out), &coll)
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!("saved {n} traces ({packets} packets) to {out}");
    Ok(())
}

/// `bdrmap degradation`: sweep fault intensity, report precision/recall
/// of the border inference at each point.
pub fn degradation(args: &Args) -> Result<(), ArgError> {
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let vp = vp_index(args, &sc)?;
    let fault_seed: u64 = args.get_parse("fault-seed", 1)?;
    let max_loss: f64 = args.get_parse("loss", 0.2)?;
    let max_flap: f64 = args.get_parse("flap", 0.25)?;
    if !(0.0..=1.0).contains(&max_loss) || !(0.0..=1.0).contains(&max_flap) {
        return Err(ArgError(format!(
            "--loss/--flap must be in [0, 1], got {max_loss}/{max_flap}"
        )));
    }
    let losses = [max_loss / 4.0, max_loss / 2.0, max_loss];
    let flaps = [max_flap];
    let points = bdrmap_eval::degradation::sweep(&sc, vp, fault_seed, &losses, &flaps);
    let mut t = TextTable::new(&[
        "loss",
        "flap",
        "links",
        "precision",
        "recall",
        "packets",
        "sim h",
    ]);
    for p in &points {
        t.row(vec![
            format!("{:.3}", p.loss),
            format!("{:.3}", p.flap),
            p.validation.links_total.to_string(),
            format!("{:.1}%", p.precision() * 100.0),
            format!("{:.1}%", p.recall() * 100.0),
            p.packets.to_string(),
            format!("{:.2}", p.elapsed_ms as f64 / 3.6e6),
        ]);
    }
    println!("{}", t.render());
    println!(
        "fault seed {fault_seed}: identical flags replay this table exactly; \
         the self-healing engine (3 attempts, 300 ms backoff, quarantine) absorbs \
         moderate loss at the cost of extra packets"
    );
    Ok(())
}

/// `bdrmap infer`: run the heuristics over a saved trace store (the
/// scenario must be regenerated with the same preset/seed so the public
/// inputs and the alias-probing substrate match the collection run).
pub fn infer(args: &Args) -> Result<(), ArgError> {
    let input_path = args
        .get("in")
        .ok_or_else(|| ArgError("infer needs --in <path>".into()))?;
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let vp = vp_index(args, &sc)?;
    let coll = bdrmap_probe::store::load(std::path::Path::new(input_path))
        .map_err(|e| ArgError(format!("reading {input_path}: {e}")))?;
    println!("loaded {} traces from {input_path}", coll.traces.len());
    let engine = sc.engine(vp);
    let map = bdrmap_core::run_bdrmap_on_traces(&engine, &sc.input, &bdrmap_config(args)?, coll);
    let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
    let v = bdrmap_eval::validate::validate(sc.net(), &neighbors, &map);
    println!(
        "inferred {} links to {} neighbors — {:.1}% correct, {:.1}% coverage",
        map.links.len(),
        map.neighbors().len(),
        v.link_accuracy() * 100.0,
        v.bgp_coverage() * 100.0
    );
    Ok(())
}

/// `bdrmap fleet`: the §5.7 "25 other networks" experiment.
pub fn fleet(args: &Args) -> Result<(), ArgError> {
    let mut cfg = preset(args)?;
    cfg.extra_vp_hosts = args.get_parse("hosts", 5)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    // Every hosted VP runs through `run_bdrmap` → `run_stages`, so the
    // per-stage histograms accumulate across the whole fleet; the
    // cross-host sweep itself is timed as its own stage.
    let t = std::time::Instant::now();
    let results = bdrmap_eval::fleet::run_fleet(&sc, &bdrmap_config(args)?);
    bdrmap_core::pipeline::record_extra_stage("fleet", t.elapsed().as_secs_f64() * 1e3);
    let mut t = TextTable::new(&["host", "kind", "links", "accuracy", "coverage"]);
    for r in &results {
        t.row(vec![
            r.host.to_string(),
            r.kind.clone(),
            r.links.to_string(),
            format!("{:.1}%", r.validation.link_accuracy() * 100.0),
            format!("{:.1}%", r.validation.bgp_coverage() * 100.0),
        ]);
    }
    println!("{}", t.render());
    let avg: f64 = results
        .iter()
        .map(|r| r.validation.link_accuracy())
        .sum::<f64>()
        / results.len().max(1) as f64;
    println!(
        "{} hosting networks, mean link accuracy {:.1}% (paper §5.7: 'similar results' across 25 networks)",
        results.len(),
        avg * 100.0
    );
    write_metrics_out(args)?;
    Ok(())
}

/// `bdrmap congestion`: the end-to-end §2 application — discover the
/// borders, inject diurnal queuing, find it with TSLP.
pub fn congestion(args: &Args) -> Result<(), ArgError> {
    use bdrmap_dataplane::CongestionProfile;
    const PERIOD_MS: u64 = 3_600_000;
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("re"), &cfg);
    let net = sc.net();
    let map = sc.run_vp(0, &bdrmap_config(args)?);
    // Congest three links found on the map.
    let mut congested = Vec::new();
    for l in &map.links {
        if congested.len() == 3 {
            break;
        }
        let Some(far) = l.far_addr else { continue };
        let Some(lid) = net.iface_of_addr(far).and_then(|i| i.link) else {
            continue;
        };
        if !congested.contains(&lid) {
            sc.dp.congest(
                lid,
                CongestionProfile {
                    peak_us: 40_000,
                    period_ms: PERIOD_MS,
                },
            );
            congested.push(lid);
        }
    }
    let engine = sc.engine(0);
    let (mut tp, mut fp, mut fnn) = (0, 0, 0);
    for l in &map.links {
        let (Some(near), Some(far)) = (l.near_addr, l.far_addr) else {
            continue;
        };
        let r = bdrmap_probe::tslp::tslp(&engine, near, far, PERIOD_MS, 2, 24);
        if r.far.samples.is_empty() {
            continue;
        }
        let flagged = r.congested(8_000);
        let truth = net
            .iface_of_addr(far)
            .and_then(|i| i.link)
            .map(|lid| congested.contains(&lid))
            .unwrap_or(false);
        match (flagged, truth) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fnn += 1,
            _ => {}
        }
    }
    println!(
        "injected congestion on {} discovered links; TSLP found {tp} (false positives {fp}, missed {fnn})",
        congested.len()
    );
    Ok(())
}

/// `bdrmap devcheck`: the §5.1 development-mode sanity checks — DNS
/// agreement and the border-router degree anomaly scan.
pub fn devcheck(args: &Args) -> Result<(), ArgError> {
    use bdrmap_topo::{DnsConfig, DnsDb};
    let cfg = preset(args)?;
    let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
    let map = sc.run_vp(0, &bdrmap_config(args)?);
    let db = DnsDb::synthesize(sc.net(), cfg.seed, &DnsConfig::default());
    let net = sc.net();
    let check = bdrmap_eval::devcheck::dns_check(&db, &map, |a| net.as_info(a).name.clone());
    println!(
        "DNS cross-check: {}/{} labels agree ({:.1}%), {} uncovered/unparseable, {} disagreements",
        check.agree,
        check.comparable,
        check.agreement() * 100.0,
        check.uncovered,
        check.disagree.len()
    );
    for (host, asn) in check.disagree.iter().take(5) {
        println!("  suspicious: {host} inferred as {asn} (stale label or inference error — §5.1)");
    }
    let anomalies = bdrmap_eval::devcheck::degree_anomalies(&map, 4);
    if anomalies.is_empty() {
        println!("degree check: no border router fronts >4 links to one neighbor — clean");
    } else {
        for a in anomalies {
            println!(
                "degree check: router #{} shows {} links to {} — possible unresolved aliases",
                a.near, a.count, a.far_as
            );
        }
    }
    Ok(())
}

/// The coarse ownership layer bdrmapd builds under every snapshot: the
/// collector view's single-origin prefixes (MOAS prefixes are skipped —
/// no unambiguous owner).
fn single_origin_prefixes(view: &bdrmap_bgp::CollectorView) -> Vec<(Prefix, Asn)> {
    view.prefixes()
        .filter_map(|(p, origins)| match origins {
            [asn] => Some((p, *asn)),
            _ => None,
        })
        .collect()
}

/// Resolve what `serve`/`loadgen` should serve: a saved snapshot file
/// (`--snapshot`), or a fresh inference over a generated scenario.
fn serve_map(args: &Args) -> Result<(bdrmap_core::BorderMap, Vec<(Prefix, Asn)>), ArgError> {
    if let Some(path) = args.get("snapshot") {
        let map = bdrmap_core::snapshot::load(std::path::Path::new(path))
            .map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        // A bare snapshot carries no BGP view, so no prefix layer.
        Ok((map, Vec::new()))
    } else {
        let cfg = preset(args)?;
        let sc = Scenario::build(args.get("preset").unwrap_or("tiny"), &cfg);
        let vp = vp_index(args, &sc)?;
        let map = sc.run_vp(vp, &bdrmap_config(args)?);
        Ok((map, single_origin_prefixes(&sc.input.view)))
    }
}

fn serve_config(args: &Args, listen: String) -> Result<ServeConfig, ArgError> {
    Ok(ServeConfig {
        listen,
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        workers: args.get_parse("workers", 4)?,
        queue: args.get_parse("queue", 128)?,
        prefix_owners: Vec::new(),
        ..ServeConfig::default()
    })
}

/// `bdrmap serve`: bdrmapd. Load (or infer) a border map and answer
/// queries until killed. With `--snap-dir`, boot from the store's
/// newest verified-good generation, rolling back past corrupt files.
pub fn serve(args: &Args) -> Result<(), ArgError> {
    let listen = args.get("listen").unwrap_or("127.0.0.1:47700").to_string();
    let server = if let Some(dir) = args.get("snap-dir") {
        let cfg = serve_config(args, listen)?;
        let workers = cfg.workers;
        let queue = cfg.queue;
        let server = Server::start_from_store(dir, cfg)
            .map_err(|e| ArgError(format!("starting bdrmapd from store {dir}: {e}")))?;
        println!(
            "bdrmapd serving store {dir} generation {} on {} ({} event loops, admission queue {})",
            server.store_generation(),
            server.local_addr(),
            workers,
            queue
        );
        server
    } else {
        let cfg = serve_config(args, listen)?;
        let workers = cfg.workers;
        let queue = cfg.queue;
        let server = match args.get("snapshot") {
            // A saved snapshot is served as read: one verification, no
            // decode. A bare snapshot carries no BGP view, so no prefix
            // layer.
            Some(path) => {
                let bytes =
                    std::fs::read(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
                Server::start_from_bytes(bytes, cfg)
            }
            None => {
                let (map, prefix_owners) = serve_map(args)?;
                Server::start(
                    &map,
                    ServeConfig {
                        prefix_owners,
                        ..cfg
                    },
                )
            }
        }
        .map_err(|e| ArgError(format!("starting bdrmapd: {e}")))?;
        let stats = server.stats();
        println!(
            "bdrmapd serving {} routers / {} links on {} ({} event loops, admission queue {})",
            stats.routers,
            stats.links,
            server.local_addr(),
            workers,
            queue
        );
        server
    };
    if let Some(ma) = server.metrics_addr() {
        println!("metrics:   curl http://{ma}/metrics");
    }
    println!(
        "query it:  bdrmap query --connect {} --stats",
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn breaker_name(code: u8) -> &'static str {
    match code {
        0 => "closed",
        1 => "open",
        2 => "half-open",
        _ => "unknown",
    }
}

fn print_link(l: &bdrmap_serve::LinkInfo) {
    let owner = l
        .near_owner
        .map(|a| a.to_string())
        .unwrap_or_else(|| "?".to_string());
    let near = l
        .near_addr
        .map(|a| a.to_string())
        .unwrap_or_else(|| "-".to_string());
    let far = l
        .far_addr
        .map(|a| a.to_string())
        .unwrap_or_else(|| "-".to_string());
    println!(
        "link #{}: border router #{} (owner {owner}) {near} -> {far} to {} [{:?}]",
        l.link, l.near_router, l.far_as, l.heuristic
    );
}

/// `bdrmap query`: one-shot client for a running bdrmapd.
pub fn query(args: &Args) -> Result<(), ArgError> {
    let connect = args
        .get("connect")
        .ok_or_else(|| ArgError("query needs --connect <host:port>".into()))?;
    let addr: std::net::SocketAddr = connect
        .parse()
        .map_err(|_| ArgError(format!("invalid --connect address: {connect}")))?;
    let req = if let Some(a) = args.get("addr") {
        Request::Owner(
            a.parse()
                .map_err(|_| ArgError(format!("invalid --addr: {a}")))?,
        )
    } else if let Some(a) = args.get("border") {
        Request::Border(
            a.parse()
                .map_err(|_| ArgError(format!("invalid --border: {a}")))?,
        )
    } else if let Some(n) = args.get("neighbor") {
        Request::Neighbor(Asn(n
            .parse()
            .map_err(|_| ArgError(format!("invalid --neighbor: {n}")))?))
    } else if let Some(path) = args.get("reload") {
        Request::Reload(path.to_string())
    } else if args.flag("reload-store") {
        // Empty path = "reload from the server's snapshot store".
        Request::Reload(String::new())
    } else if args.flag("stats") {
        Request::Stats
    } else if args.flag("health") {
        Request::Health
    } else if args.flag("metrics") {
        Request::Metrics
    } else {
        return Err(ArgError(
            "query needs one of --addr/--border/--neighbor/--reload/--reload-store/--stats/--health/--metrics"
                .into(),
        ));
    };
    let mut client =
        Client::connect(&addr).map_err(|e| ArgError(format!("connecting to {addr}: {e}")))?;
    let resp = client
        .call(&req)
        .map_err(|e| ArgError(format!("querying {addr}: {e}")))?;
    match resp {
        Response::Owner(Some(o)) => {
            let router = o
                .router
                .map(|r| format!("border router #{r}"))
                .unwrap_or_else(|| "no observed router".to_string());
            println!("owner {} via {} ({router})", o.asn, o.prefix);
        }
        Response::Owner(None) => println!("no covering prefix"),
        Response::Border(Some(l)) => print_link(&l),
        Response::Border(None) => println!("address is on no inferred interdomain link"),
        Response::Neighbor(links) => {
            println!("{} inferred links:", links.len());
            for l in &links {
                print_link(l);
            }
        }
        Response::Stats(s) => {
            println!(
                "generation {} | {} routers, {} links, {} prefixes | {} queries, {} shed | last reload: build {} us, swap {} us",
                s.generation,
                s.routers,
                s.links,
                s.prefixes,
                s.queries,
                s.sheds,
                s.last_build_us,
                s.last_swap_us
            );
            println!(
                "robustness: {} slow evicted, {} flood evicted, {} setup errors, {} reload failures, {} drained | breaker {}",
                s.evicted_slow,
                s.evicted_flood,
                s.setup_errors,
                s.reload_failures,
                s.drained,
                breaker_name(s.breaker_state)
            );
        }
        Response::Health(h) => {
            println!(
                "generation {} | swap epoch {} | breaker {} | {} reload failures | \
                 journal lsn {} ({} batches recovered) | up {:.1}s",
                h.generation,
                h.swap_epoch,
                breaker_name(h.breaker_state),
                h.reload_failures,
                h.journal_lsn,
                h.recovered_batches,
                h.uptime_ms as f64 / 1e3
            );
        }
        Response::Reloaded {
            generation,
            build_us,
            swap_us,
            routers,
            links,
        } => {
            println!(
                "reloaded: generation {generation}, {routers} routers / {links} links (build {build_us} us, swap {swap_us} us)"
            );
        }
        Response::Metrics(text) => {
            // Raw exposition on stdout, scrape-ready: `bdrmap query
            // --metrics | promtool check metrics` style tooling works.
            print!("{text}");
        }
        Response::Overload => return Err(ArgError("server overloaded; retry".into())),
        Response::Error(msg) => return Err(ArgError(format!("server error: {msg}"))),
    }
    Ok(())
}

/// `bdrmap loadgen`: closed-loop load against bdrmapd. With
/// `--connect`, hammers an external daemon (needs `--snapshot` for the
/// query mix); without it, infers a map, serves it in-process, and
/// fires a mid-run hot swap — the CI smoke path.
pub fn loadgen(args: &Args) -> Result<(), ArgError> {
    if args.get("connections").is_some() {
        return loadgen_scale(args);
    }
    let secs: f64 = args.get_parse("secs", 2.0)?;
    if secs <= 0.0 || !secs.is_finite() {
        return Err(ArgError(format!("--secs must be positive, got {secs}")));
    }
    let corrupt_rate: f64 = args.get_parse("corrupt-rate", 0.0)?;
    if !(0.0..=1.0).contains(&corrupt_rate) {
        return Err(ArgError(format!(
            "--corrupt-rate must be in [0,1], got {corrupt_rate}"
        )));
    }
    let base = LoadgenConfig {
        conns: args.get_parse("conns", 4)?,
        duration: std::time::Duration::from_secs_f64(secs),
        reload_with: None,
        corrupt_rate,
        stall_conns: args.get_parse("stall-conns", 0)?,
        ..LoadgenConfig::default()
    };
    let report = if let Some(connect) = args.get("connect") {
        let addr: std::net::SocketAddr = connect
            .parse()
            .map_err(|_| ArgError(format!("invalid --connect address: {connect}")))?;
        let snap = args.get("snapshot").ok_or_else(|| {
            ArgError("loadgen --connect needs --snapshot <path> to derive the query mix".into())
        })?;
        let map = bdrmap_core::snapshot::load(std::path::Path::new(snap))
            .map_err(|e| ArgError(format!("reading {snap}: {e}")))?;
        let cfg = LoadgenConfig {
            reload_with: args.get("reload").map(std::path::PathBuf::from),
            ..base
        };
        bdrmap_serve::loadgen::run(addr, &bdrmap_serve::queries_for_map(&map), &cfg)
            .map_err(|e| ArgError(format!("load generation failed: {e}")))?
    } else {
        let (map, prefix_owners) = serve_map(args)?;
        let mut cfg = ServeConfig {
            prefix_owners,
            ..serve_config(args, "127.0.0.1:0".to_string())?
        };
        if base.stall_conns > 0 {
            // Stalled connections must be evictable within the run, so
            // the in-process server's deadline scales with --secs.
            cfg.request_deadline = (base.duration / 2).max(std::time::Duration::from_millis(100));
        }
        let server =
            Server::start(&map, cfg).map_err(|e| ArgError(format!("starting bdrmapd: {e}")))?;
        // Mid-run hot swap of the same map: exercises the reload path
        // and measures build/swap latency without changing answers.
        let snap_path =
            std::env::temp_dir().join(format!("bdrmap-loadgen-{}.bdrm", std::process::id()));
        bdrmap_core::snapshot::save(&snap_path, &map)
            .map_err(|e| ArgError(format!("writing {}: {e}", snap_path.display())))?;
        let cfg = LoadgenConfig {
            reload_with: Some(snap_path.clone()),
            ..base
        };
        let result = bdrmap_serve::loadgen::run(
            server.local_addr(),
            &bdrmap_serve::queries_for_map(&map),
            &cfg,
        );
        std::fs::remove_file(&snap_path).ok();
        server.shutdown();
        result.map_err(|e| ArgError(format!("load generation failed: {e}")))?
    };
    println!(
        "{} conns for {:.2}s: {} ok ({} not-found), {} shed, {} errors | {:.0} qps | p50 {} us, p99 {} us, p99.9 {} us",
        report.conns,
        report.duration_s,
        report.queries_ok,
        report.queries_not_found,
        report.queries_shed,
        report.queries_error,
        report.qps,
        report.p50_us,
        report.p99_us,
        report.p999_us
    );
    // Per-opcode split on its own line, in a fixed grep-able shape: the
    // CI metrics-smoke job diffs these numbers against the server's
    // `bdrmapd_requests_total{op=...}` counters.
    println!(
        "per-op ok: owner={} border={} neighbor={}",
        report.ok_owner, report.ok_border, report.ok_neighbor
    );
    if let Some(r) = &report.reload {
        println!(
            "hot swap under load: round trip {} us (build {} us, swap {} us), generation {}",
            r.round_trip_us, r.build_us, r.swap_us, r.generation
        );
    }
    if report.corrupt_sent > 0 {
        println!(
            "hostile frames: {} sent, {} answered well-formed",
            report.corrupt_sent, report.corrupt_survived
        );
    }
    if report.stalled > 0 {
        println!(
            "slow-loris: {} stalled connections, {} evicted by deadline",
            report.stalled, report.stalled_evicted
        );
    }
    if let Some(json) = args.get("json") {
        report
            .write_json(std::path::Path::new(json))
            .map_err(|e| ArgError(format!("writing {json}: {e}")))?;
        println!("wrote {json}");
    }
    if report.queries_ok == 0 {
        return Err(ArgError(
            "load generator completed zero successful queries".into(),
        ));
    }
    if report.queries_error > 0 {
        return Err(ArgError(format!(
            "{} queries were lost in flight",
            report.queries_error
        )));
    }
    if report.corrupt_survived < report.corrupt_sent {
        return Err(ArgError(format!(
            "{} corrupt frames did not get a well-formed response",
            report.corrupt_sent - report.corrupt_survived
        )));
    }
    if report.stalled_evicted < report.stalled {
        return Err(ArgError(format!(
            "{} stalled connections were not evicted by the deadline",
            report.stalled - report.stalled_evicted
        )));
    }
    Ok(())
}

/// `bdrmap loadgen --connections N`: scale mode. One epoll client loop
/// holds N concurrent connections (a fraction idle as keepalive
/// ballast, the rest pipelined closed-loop) against an in-process or
/// remote bdrmapd, then writes `BENCH_serve_scale.json`. Hard-fails on
/// any acked-then-lost query or any evicted idle connection.
#[cfg(target_os = "linux")]
fn loadgen_scale(args: &Args) -> Result<(), ArgError> {
    use bdrmap_serve::{ScaleConfig, ScaleLoopStat};

    let connections: usize = args.get_parse("connections", 1000)?;
    if connections == 0 {
        return Err(ArgError("--connections must be at least 1".into()));
    }
    let idle_frac: f64 = args.get_parse("idle-frac", 0.5)?;
    if !(0.0..=1.0).contains(&idle_frac) || !idle_frac.is_finite() {
        return Err(ArgError(format!(
            "--idle-frac must be in [0,1], got {idle_frac}"
        )));
    }
    let secs: f64 = args.get_parse("secs", 5.0)?;
    if secs <= 0.0 || !secs.is_finite() {
        return Err(ArgError(format!("--secs must be positive, got {secs}")));
    }
    let scfg = ScaleConfig {
        connections,
        idle_frac,
        duration: std::time::Duration::from_secs_f64(secs),
        pipeline: args.get_parse("pipeline", 4)?,
    };
    let mut report = if let Some(connect) = args.get("connect") {
        let addr: std::net::SocketAddr = connect
            .parse()
            .map_err(|_| ArgError(format!("invalid --connect address: {connect}")))?;
        let snap = args.get("snapshot").ok_or_else(|| {
            ArgError("loadgen --connect needs --snapshot <path> to derive the query mix".into())
        })?;
        let map = bdrmap_core::snapshot::load(std::path::Path::new(snap))
            .map_err(|e| ArgError(format!("reading {snap}: {e}")))?;
        let mut report =
            bdrmap_serve::loadgen::run_scale(addr, &bdrmap_serve::queries_for_map(&map), &scfg)
                .map_err(|e| ArgError(format!("scale load generation failed: {e}")))?;
        // Per-loop counters live in the remote server's process; pull
        // them out of its metrics exposition over the query protocol.
        if let Ok(mut client) = Client::connect(&addr) {
            if let Ok(Response::Metrics(text)) = client.call(&Request::Metrics) {
                report.loops = scale_loops_from_exposition(&text);
            }
        }
        report
    } else {
        let (map, prefix_owners) = serve_map(args)?;
        let mut cfg = ServeConfig {
            prefix_owners,
            ..serve_config(args, "127.0.0.1:0".to_string())?
        };
        if args.get("queue").is_none() {
            // The benchmark measures capacity, not admission control:
            // by default every connection fits the budget. Pass --queue
            // explicitly to exercise shedding.
            cfg.queue = connections + 1024;
        }
        let server =
            Server::start(&map, cfg).map_err(|e| ArgError(format!("starting bdrmapd: {e}")))?;
        let result = bdrmap_serve::loadgen::run_scale(
            server.local_addr(),
            &bdrmap_serve::queries_for_map(&map),
            &scfg,
        );
        let mut report =
            result.map_err(|e| ArgError(format!("scale load generation failed: {e}")))?;
        report.loops = server
            .loop_stats()
            .iter()
            .map(|l| ScaleLoopStat {
                index: l.index,
                wakeups: l.wakeups,
                events: l.events,
                reads: l.reads,
                frames: l.frames,
                writevs: l.writevs,
                accepts: l.accepts,
                batch_p50: l.batch_p50,
                batch_p99: l.batch_p99,
            })
            .collect();
        server.shutdown();
        report
    };
    report.connections = connections;
    println!(
        "{} conns ({} active / {} idle) for {:.2}s: {} ok | {:.0} qps | p50 {} us, p99 {} us, p99.9 {} us",
        report.connections,
        report.active_conns,
        report.idle_conns,
        report.duration_s,
        report.queries_ok,
        report.qps,
        report.p50_us,
        report.p99_us,
        report.p999_us
    );
    println!(
        "integrity: {} lost, {} idle evicted | admission: {} shed, {} unadmitted, {} connect failures",
        report.lost,
        report.idle_evicted,
        report.shed_conns,
        report.unadmitted,
        report.connect_failures
    );
    for l in &report.loops {
        println!(
            "loop {}: {} wakeups, {} events (batch p50 {}, p99 {}), {} reads, {} frames, {} writevs, {} accepts",
            l.index, l.wakeups, l.events, l.batch_p50, l.batch_p99, l.reads, l.frames, l.writevs,
            l.accepts
        );
    }
    let json = args.get("json").unwrap_or("BENCH_serve_scale.json");
    report
        .write_json(std::path::Path::new(json))
        .map_err(|e| ArgError(format!("writing {json}: {e}")))?;
    println!("wrote {json}");
    if report.queries_ok == 0 {
        return Err(ArgError(
            "scale load generator completed zero successful queries".into(),
        ));
    }
    if report.lost > 0 {
        return Err(ArgError(format!(
            "{} acknowledged queries were lost in flight",
            report.lost
        )));
    }
    if report.idle_evicted > 0 {
        return Err(ArgError(format!(
            "{} idle keepalive connections were evicted",
            report.idle_evicted
        )));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn loadgen_scale(_args: &Args) -> Result<(), ArgError> {
    Err(ArgError(
        "loadgen --connections (scale mode) needs the Linux epoll client loop".into(),
    ))
}

/// Reconstruct per-event-loop counters from a remote bdrmapd's metrics
/// exposition (`bdrmapd_loop_*{loop="i"}` families). Batch quantiles
/// are recovered from the cumulative histogram buckets with the same
/// nearest-rank rule the in-process path uses, so remote and local
/// reports agree on semantics (remote values are bucket upper bounds).
#[cfg(target_os = "linux")]
fn scale_loops_from_exposition(text: &str) -> Vec<bdrmap_serve::ScaleLoopStat> {
    use std::collections::BTreeMap;
    let mut loops: BTreeMap<usize, bdrmap_serve::ScaleLoopStat> = BTreeMap::new();
    // (loop index, cumulative count) per bucket bound, in line order.
    let mut buckets: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<usize, u64> = BTreeMap::new();
    fn parse<'a>(line: &'a str, name: &str) -> Option<(usize, &'a str, u64)> {
        let rest = line.strip_prefix(name)?.strip_prefix('{')?;
        let (labels, value) = rest.split_once("} ")?;
        let li = labels.split_once("loop=\"")?.1.split('"').next()?;
        Some((li.parse().ok()?, labels, value.trim().parse().ok()?))
    }
    for line in text.lines() {
        for (name, field) in [
            ("bdrmapd_loop_wakeups_total", 0usize),
            ("bdrmapd_loop_events_total", 1),
            ("bdrmapd_loop_reads_total", 2),
            ("bdrmapd_loop_frames_total", 3),
            ("bdrmapd_loop_writevs_total", 4),
            ("bdrmapd_loop_accepts_total", 5),
        ] {
            if let Some((li, _, v)) = parse(line, name) {
                let l = loops.entry(li).or_default();
                l.index = li;
                match field {
                    0 => l.wakeups = v,
                    1 => l.events = v,
                    2 => l.reads = v,
                    3 => l.frames = v,
                    4 => l.writevs = v,
                    _ => l.accepts = v,
                }
            }
        }
        if let Some((li, labels, cum)) = parse(line, "bdrmapd_loop_event_batch_bucket") {
            let le = labels
                .split_once("le=\"")
                .and_then(|(_, r)| r.split('"').next())
                .map(|b| b.parse::<u64>().unwrap_or(u64::MAX))
                .unwrap_or(u64::MAX);
            buckets.entry(li).or_default().push((le, cum));
        }
        if let Some((li, _, v)) = parse(line, "bdrmapd_loop_event_batch_count") {
            counts.insert(li, v);
        }
    }
    for (li, bs) in &buckets {
        let count = counts.get(li).copied().unwrap_or(0);
        if count == 0 {
            continue;
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((count as f64) * q).ceil().clamp(1.0, count as f64) as u64;
            bs.iter()
                .find(|(_, cum)| *cum >= rank)
                .map(|(le, _)| *le)
                .unwrap_or(0)
        };
        let l = loops.entry(*li).or_default();
        l.batch_p50 = quantile(0.50);
        l.batch_p99 = quantile(0.99);
    }
    loops.into_values().collect()
}

/// `bdrmap fuzz`: seeded structure-aware fuzzing of the BDRM snapshot
/// codec, the wire protocol, the frame reader, the trace store and the
/// BDRC checkpoint reader. Fails (exit 1) on any panic or any
/// accepted-but-non-canonical input.
pub fn fuzz(args: &Args) -> Result<(), ArgError> {
    let iters: u64 = args.get_parse("iters", 10_000)?;
    let seed: u64 = args.get_parse("fuzz-seed", 42)?;
    if iters == 0 {
        return Err(ArgError("--iters must be at least 1".into()));
    }
    let report = bdrmap_bench::fuzz::run(seed, iters);
    println!(
        "fuzz seed {seed}: {} mutants ({} snapshot, {} wire, {} frame, {} trace store, {} checkpoint) | {} accepted, {} rejected",
        report.iterations,
        report.snapshot_cases,
        report.wire_cases,
        report.frame_cases,
        report.trace_store_cases,
        report.checkpoint_cases,
        report.accepted,
        report.rejected
    );
    println!(
        "panics: {} | canonical violations: {}",
        report.panics, report.canonical_violations
    );
    if let Some(json) = args.get("json") {
        bdrmap_types::fsutil::write_atomic(std::path::Path::new(json), report.to_json().as_bytes())
            .map_err(|e| ArgError(format!("writing {json}: {e}")))?;
        println!("wrote {json}");
    }
    if !report.clean() {
        return Err(ArgError(format!(
            "fuzzing found failures: {} panics, {} canonical violations (repro with --fuzz-seed {seed} --iters {iters})",
            report.panics, report.canonical_violations
        )));
    }
    Ok(())
}

/// `bdrmap bench-pipeline`: run the full pipeline once, timing each
/// stage, and write `BENCH_pipeline.json`. The alias stage runs twice —
/// serially and at `--alias-parallelism` — both to report the speedup
/// and to check the byte-identity guarantee on every invocation.
pub fn bench_pipeline(args: &Args) -> Result<(), ArgError> {
    let out = args.get("json").unwrap_or("BENCH_pipeline.json");
    let preset_name = args.get("preset").unwrap_or("tiny");
    let cfg = preset(args)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let bcfg = bdrmap_config(args)?;
    let par = bcfg.alias_parallelism;

    let t = std::time::Instant::now();
    let sc = Scenario::build(preset_name, &cfg);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let vp = vp_index(args, &sc)?;

    // Probe once; both alias runs below reuse the same traces.
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    let ip2as_probe = sc.input.ip2as_for_probing();
    let t = std::time::Instant::now();
    let coll = bdrmap_probe::run_traces(
        &sc.engine(vp),
        &targets,
        bdrmap_probe::RunOptions {
            parallelism: bcfg.parallelism,
            addrs_per_block: bcfg.addrs_per_block,
            use_stop_sets: bcfg.use_stop_sets,
            quarantine: None,
        },
        |a| ip2as_probe.is_external(a),
    );
    let probe_ms = t.elapsed().as_secs_f64() * 1e3;

    // Serial baseline, then the measured parallel run. Fresh engines
    // keep the probe budgets comparable (alias traffic only).
    let serial_cfg = BdrmapConfig {
        alias_parallelism: 1,
        ..bcfg
    };
    let serial = bdrmap_core::run_stages(&sc.engine(vp), &sc.input, &serial_cfg, coll.clone());
    let run = bdrmap_core::run_stages(&sc.engine(vp), &sc.input, &bcfg, coll.clone());
    if serial.alias_bytes != run.alias_bytes {
        return Err(ArgError(format!(
            "alias output diverged between parallelism 1 and {par} — determinism bug"
        )));
    }

    let st = &run.stages;
    let alias = &st.alias;
    let shards = alias
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\": {}, \"tests\": {}, \"packets\": {}}}",
                s.shard, s.tests, s.packets
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"schema\": 1,\n  \"preset\": \"{preset_name}\",\n  \"seed\": {seed},\n  \"alias_parallelism\": {par},\n  \"stages\": {{\n    \"generate_ms\": {generate_ms:.3},\n    \"probe_ms\": {probe_ms:.3},\n    \"ip2as_ms\": {ip2as:.3},\n    \"alias_serial_ms\": {alias_serial:.3},\n    \"alias_ms\": {alias_ms:.3},\n    \"graph_ms\": {graph:.3},\n    \"infer_ms\": {infer:.3}\n  }},\n  \"probe\": {{\"traces\": {traces}, \"packets\": {probe_packets}}},\n  \"alias\": {{\n    \"mercator_tests\": {mercator},\n    \"prefixscan_candidates\": {pf_cand},\n    \"prefixscan_deduped\": {pf_dedup},\n    \"prefixscan_executed\": {pf_exec},\n    \"ally_candidates\": {ally_cand},\n    \"ally_staged_out\": {ally_staged},\n    \"ally_deduped\": {ally_dedup},\n    \"ally_executed\": {ally_exec},\n    \"packets\": {alias_packets},\n    \"shards\": [{shards}]\n  }},\n  \"ip2as_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4}}},\n  \"alias_output_identical\": true\n}}\n",
        ip2as = st.ip2as_ms,
        alias_serial = serial.stages.alias_ms,
        alias_ms = st.alias_ms,
        graph = st.graph_ms,
        infer = st.infer_ms,
        traces = coll.traces.len(),
        probe_packets = coll.budget.packets,
        mercator = alias.mercator_tests,
        pf_cand = alias.prefixscan_candidates,
        pf_dedup = alias.prefixscan_deduped,
        pf_exec = alias.prefixscan_executed,
        ally_cand = alias.ally_candidates,
        ally_staged = alias.ally_staged_out,
        ally_dedup = alias.ally_deduped,
        ally_exec = alias.ally_executed,
        alias_packets = alias.packets,
        hits = st.cache.hits,
        misses = st.cache.misses,
        hit_rate = st.cache.hit_rate(),
    );
    bdrmap_types::fsutil::write_atomic(std::path::Path::new(out), json.as_bytes())
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!(
        "pipeline: generate {generate_ms:.1} ms, probe {probe_ms:.1} ms ({} traces), \
         alias {:.1} ms at parallelism {par} (serial {:.1} ms, {:.2}x), \
         graph {:.1} ms, infer {:.1} ms",
        coll.traces.len(),
        st.alias_ms,
        serial.stages.alias_ms,
        serial.stages.alias_ms / st.alias_ms.max(1e-9),
        st.graph_ms,
        st.infer_ms,
    );
    println!(
        "alias tests: {} mercator, {} prefixscan ({} deduped), {} ally ({} staged out, {} deduped); \
         ip2as cache hit rate {:.1}%; output identical to serial run",
        alias.mercator_tests,
        alias.prefixscan_executed,
        alias.prefixscan_deduped,
        alias.ally_executed,
        alias.ally_staged_out,
        alias.ally_deduped,
        st.cache.hit_rate() * 100.0,
    );
    println!("wrote {out}");
    Ok(())
}

/// `bdrmap watch`: the incremental-inference driver.
///
/// Streams the VP's target blocks through a live
/// [`bdrmap_core::IncrementalEngine`] in `--batches` chunks. Every pass
/// re-infers only the dirty region of the router graph and replays
/// untouched alias tests from the cache, then (unless `--no-shadow`) is
/// byte-checked against a from-scratch `run_stages` rebuild over the
/// same cumulative traces — divergence is a hard error, not a warning.
/// With `--snap-dir` each pass publishes a generation into the
/// crash-safe store; `--serve` additionally boots bdrmapd from that
/// store after the first pass and hot-swaps it after every later one
/// via the Reload RPC, asserting the served generation advanced.
/// Per-pass rows land in `--json` (default BENCH_incremental.json).
///
/// With `--journal-dir` every batch is appended to a write-ahead
/// journal *before* it is applied, and startup recovers from the
/// newest verified checkpoint plus a journal tail replay — a killed
/// watch loop resumes exactly where it died, and its next published
/// map is byte-identical to a from-scratch rebuild (the shadow check
/// holds across the crash). `--expire-after <n>` retracts traces not
/// refreshed within n passes; `--compact-every <n>` sets the
/// checkpoint cadence.
pub fn watch(args: &Args) -> Result<(), ArgError> {
    use bdrmap_core::{snapshot, Batch, IncrementalEngine, Journal, JournalCheckpoint, SnapStore};

    let out = args.get("json").unwrap_or("BENCH_incremental.json");
    let preset_name = args.get("preset").unwrap_or("tiny");
    let cfg = preset(args)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let bcfg = bdrmap_config(args)?;
    let batches: usize = args.get_parse("batches", 4)?;
    if batches == 0 {
        return Err(ArgError("--batches must be at least 1".into()));
    }
    let no_shadow = args.flag("no-shadow");
    if args.flag("serve") && args.get("snap-dir").is_none() {
        return Err(ArgError(
            "--serve requires --snap-dir (bdrmapd boots from the store)".into(),
        ));
    }
    let expire_after = match args.get("expire-after") {
        Some(_) => {
            let n: u64 = args.get_parse("expire-after", 0)?;
            if n == 0 {
                return Err(ArgError("--expire-after must be at least 1".into()));
            }
            Some(n)
        }
        None => None,
    };
    let compact_every: u64 = args.get_parse("compact-every", 4)?;
    if compact_every == 0 {
        return Err(ArgError("--compact-every must be at least 1".into()));
    }

    let sc = Scenario::build(preset_name, &cfg);
    let vp = vp_index(args, &sc)?;
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    if targets.is_empty() {
        return Err(ArgError("no target blocks to watch".into()));
    }
    let chunk = targets.len().div_ceil(batches);
    let ip2as_probe = sc.input.ip2as_for_probing();

    // One live prober feeds every pass. The engine's virtual tick must
    // match its pacing so replayed alias tasks charge the same budget a
    // fresh engine would.
    let prober = sc.engine(vp);
    let pps = bdrmap_probe::EngineConfig::default().pps;
    let tick_us = 1_000_000 / pps as u64;
    let mut engine = IncrementalEngine::new(bcfg, tick_us);

    // Durable watch: recover from the journal before the first pass
    // probes anything. The newest verified checkpoint seeds the engine
    // in one bulk apply; acked batches past it replay in LSN order.
    let mut journal: Option<Journal> = None;
    let mut recovered_batches = 0u64;
    let mut recovery_ms: Option<f64> = None;
    if let Some(jdir) = args.get("journal-dir") {
        let t = std::time::Instant::now();
        let (j, rec) =
            Journal::open(jdir).map_err(|e| ArgError(format!("opening journal {jdir}: {e}")))?;
        if let Some(c) = &rec.checkpoint {
            let (restored, _) =
                IncrementalEngine::restore(bcfg, tick_us, &prober, &sc.input, &c.entries, c.pass);
            engine = restored;
        }
        for r in &rec.tail {
            engine.apply(&prober, &sc.input, r.batch.clone());
        }
        recovered_batches = rec.tail.len() as u64;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        recovery_ms = Some(ms);
        if rec.checkpoint.is_some() || !rec.tail.is_empty() || !rec.torn.is_empty() {
            println!(
                "journal {jdir}: recovered {} traces at pass {} \
                 (checkpoint lsn {}, {} batches replayed, {} torn tails discarded) in {ms:.1} ms",
                engine.trace_count(),
                engine.passes(),
                rec.checkpoint.as_ref().map_or(0, |c| c.lsn),
                recovered_batches,
                rec.torn.len(),
            );
        }
        journal = Some(j);
    }

    let store = match args.get("snap-dir") {
        Some(dir) => Some((
            dir,
            SnapStore::open(dir)
                .map_err(|e| ArgError(format!("opening snapshot store {dir}: {e}")))?,
        )),
        None => None,
    };
    let mut server: Option<Server> = None;
    let mut rows = Vec::new();

    for chunk_targets in targets.chunks(chunk) {
        let coll = bdrmap_probe::run_traces(
            &prober,
            chunk_targets,
            bdrmap_probe::RunOptions {
                parallelism: bcfg.parallelism,
                addrs_per_block: bcfg.addrs_per_block,
                use_stop_sets: bcfg.use_stop_sets,
                quarantine: None,
            },
            |a| ip2as_probe.is_external(a),
        );
        // Expiry runs against the engine's pre-pass clock: a trace last
        // refreshed at pass P survives through P+n and is retracted on
        // the first pass after that — unless this very batch refreshes
        // it, which resets its clock instead.
        let retractions = match expire_after {
            Some(n) => {
                let fresh: std::collections::HashSet<_> =
                    coll.traces.iter().map(|t| t.dst).collect();
                let mut ex = engine.expired(n);
                ex.retain(|a| !fresh.contains(a));
                ex
            }
            None => Vec::new(),
        };
        let batch = Batch {
            upserts: coll.traces,
            retractions,
        };
        // Append-before-apply: the batch must be durable before any of
        // it takes effect. A failed append seals its segment, so one
        // retry lands on a fresh segment with the same LSN; two
        // failures in a row is an environment problem, not a crash the
        // journal is built to ride out.
        let lsn = match &mut journal {
            Some(j) => Some(
                j.append(seed, &batch)
                    .or_else(|e| {
                        println!("journal append failed ({e}); retrying on a fresh segment");
                        j.append(seed, &batch)
                    })
                    .map_err(|e| ArgError(format!("journal append failed twice: {e}")))?,
            ),
            None => None,
        };
        let (map, report) = engine.apply(&prober, &sc.input, batch);
        let bytes = snapshot::encode_v3(&map)
            .map_err(|e| ArgError(format!("encoding pass {}: {e}", report.pass)))?;

        let (full_ms, identical) = if no_shadow {
            (None, None)
        } else {
            let t = std::time::Instant::now();
            let shadow = bdrmap_core::run_stages(
                &sc.engine(vp),
                &sc.input,
                &bcfg,
                engine.shadow_collection(),
            );
            let full_ms = t.elapsed().as_secs_f64() * 1e3;
            let shadow_bytes = snapshot::encode_v3(&shadow.map)
                .map_err(|e| ArgError(format!("encoding shadow pass {}: {e}", report.pass)))?;
            if shadow_bytes != bytes {
                return Err(ArgError(format!(
                    "pass {}: incremental map diverged from the from-scratch rebuild \
                     ({} vs {} bytes) — determinism bug",
                    report.pass,
                    bytes.len(),
                    shadow_bytes.len()
                )));
            }
            (Some(full_ms), Some(true))
        };

        let generation = match &store {
            Some((dir, st)) => Some(
                st.publish(&map)
                    .map_err(|e| ArgError(format!("publishing into {dir}: {e}")))?,
            ),
            None => None,
        };

        // Compaction after publish: the checkpoint records the
        // generation its state had published, so a recovery never
        // resumes ahead of what the store serves.
        if let Some(j) = &mut journal {
            if engine.passes().is_multiple_of(compact_every) {
                let ckpt = JournalCheckpoint {
                    lsn: j.lsn(),
                    generation: generation.unwrap_or(0),
                    pass: engine.passes(),
                    entries: engine.checkpoint_entries(),
                };
                j.checkpoint(&ckpt)
                    .map_err(|e| ArgError(format!("journal compaction failed: {e}")))?;
            }
        }

        if let (Some(generation), Some((dir, _))) = (generation, &store) {
            if args.flag("serve") {
                match &server {
                    None => {
                        let listen = args.get("listen").unwrap_or("127.0.0.1:0").to_string();
                        let s = Server::start_from_store(dir, serve_config(args, listen)?)
                            .map_err(|e| {
                                ArgError(format!("starting bdrmapd from store {dir}: {e}"))
                            })?;
                        println!(
                            "bdrmapd serving store {dir} generation {} on {}",
                            s.store_generation(),
                            s.local_addr()
                        );
                        server = Some(s);
                    }
                    Some(s) => {
                        let resp =
                            call_retry(&s.local_addr(), &Request::Reload(String::new()), 60)?;
                        if !matches!(resp, Response::Reloaded { .. }) {
                            return Err(ArgError(format!(
                                "pass {}: reload rejected: {resp:?}",
                                report.pass
                            )));
                        }
                        if s.store_generation() != generation {
                            return Err(ArgError(format!(
                                "pass {}: bdrmapd serves generation {} after reload, \
                                 store has {generation}",
                                report.pass,
                                s.store_generation()
                            )));
                        }
                    }
                }
                if let (Some(s), Some(j)) = (&server, &journal) {
                    s.set_journal_state(j.lsn(), recovered_batches);
                }
            }
        }

        println!(
            "pass {}: +{} traces ({} held), {} routers, {} re-inferred / {} reused, \
             alias {} hits / {} misses, {:.1} ms{}{}",
            report.pass,
            report.added,
            report.traces,
            report.routers,
            report.reinferred,
            report.reused,
            report.alias_cache_hits,
            report.alias_cache_misses,
            report.pass_ms,
            match full_ms {
                Some(f) => format!(" (full rebuild {f:.1} ms, identical)"),
                None => String::new(),
            },
            match generation {
                Some(g) => format!(" [generation {g}]"),
                None => String::new(),
            },
        );

        // Whole microseconds, rounded down: the phases then never add up
        // to more than `pass_ms` as printed.
        let phase_us: Vec<String> = report
            .phases
            .named()
            .iter()
            .map(|(name, d)| format!("\"{name}\": {}", d.as_micros()))
            .collect();
        rows.push(format!(
            "    {{\"pass\": {}, \"traces\": {}, \"added\": {}, \"replaced\": {}, \
             \"retracted\": {}, \"routers\": {}, \"dirty\": {}, \"reinferred\": {}, \
             \"reused\": {}, \"alias_cache_hits\": {}, \"alias_cache_misses\": {}, \
             \"alias_packets\": {}, \"pass_ms\": {:.3}, \"phase_us\": {{{}}}, \"full_ms\": {}, \
             \"identical\": {}, \"generation\": {}, \"journal_lsn\": {}}}",
            report.pass,
            report.traces,
            report.added,
            report.replaced,
            report.retracted,
            report.routers,
            report.dirty,
            report.reinferred,
            report.reused,
            report.alias_cache_hits,
            report.alias_cache_misses,
            report.alias_packets,
            report.pass_ms,
            phase_us.join(", "),
            full_ms.map_or("null".into(), |f: f64| format!("{f:.3}")),
            identical.map_or("null".into(), |b: bool| b.to_string()),
            generation.map_or("null".into(), |g| g.to_string()),
            lsn.map_or("null".into(), |l| l.to_string()),
        ));
    }

    if let Some(s) = server.take() {
        println!("shutting down bdrmapd on {}", s.local_addr());
        s.shutdown();
    }

    let journal_json = match &journal {
        Some(j) => format!(
            "{{\"lsn\": {}, \"recovered_batches\": {recovered_batches}, \
             \"recovery_ms\": {:.3}, \"segments\": {}, \"checkpoints\": {}}}",
            j.lsn(),
            recovery_ms.unwrap_or(0.0),
            j.segments().map_or(0, |s| s.len()),
            j.checkpoints().map_or(0, |c| c.len()),
        ),
        None => "null".into(),
    };
    let json = format!(
        "{{\n  \"bench\": \"incremental\",\n  \"schema\": 1,\n  \"preset\": \"{preset_name}\",\n  \"seed\": {seed},\n  \"alias_parallelism\": {par},\n  \"batches\": {nbatches},\n  \"shadow_checked\": {shadow},\n  \"expire_after\": {expire},\n  \"journal\": {journal_json},\n  \"passes\": [\n{rows}\n  ]\n}}\n",
        par = bcfg.alias_parallelism,
        nbatches = rows.len(),
        shadow = !no_shadow,
        expire = expire_after.map_or("null".into(), |n| n.to_string()),
        rows = rows.join(",\n"),
    );
    bdrmap_types::fsutil::write_atomic(std::path::Path::new(out), json.as_bytes())
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!("wrote {out}");
    write_metrics_out(args)?;
    Ok(())
}

/// Per-kind fault counts of a [`bdrmap_types::ChaosVfs`] as the inner
/// fields of a JSON object, in the fixed [`bdrmap_types::FaultKind`]
/// order.
fn fs_fault_json(vfs: &bdrmap_types::ChaosVfs) -> String {
    bdrmap_types::FaultKind::ALL
        .iter()
        .map(|&k| format!("\"{}\": {}", k.as_str(), vfs.injected(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every data-plane request `map` can answer, in deterministic order.
fn sweep_requests(map: &bdrmap_core::BorderMap) -> Vec<Request> {
    let mut reqs = Vec::new();
    for router in &map.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            reqs.push(Request::Owner(a));
        }
    }
    for link in &map.links {
        for a in [link.near_addr, link.far_addr].into_iter().flatten() {
            reqs.push(Request::Border(a));
        }
    }
    let mut neighbors: Vec<_> = map.links.iter().map(|l| l.far_as).collect();
    neighbors.sort_unstable();
    neighbors.dedup();
    reqs.extend(neighbors.into_iter().map(Request::Neighbor));
    reqs
}

/// One request against a chaos-ridden bdrmapd, with retries: injected
/// resets, crashed components, and overload sheds cost another attempt
/// on a fresh connection — never a wrong answer. Erring out after
/// `attempts` is itself an invariant violation (a query was lost).
fn call_retry(
    addr: &std::net::SocketAddr,
    req: &Request,
    attempts: usize,
) -> Result<Response, ArgError> {
    for _ in 0..attempts {
        let Ok(mut client) = Client::connect(addr) else {
            std::thread::sleep(std::time::Duration::from_millis(25));
            continue;
        };
        match client.call(req) {
            Ok(Response::Overload) | Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Ok(resp) => return Ok(resp),
        }
    }
    Err(ArgError(format!(
        "chaos: request never answered after {attempts} attempts: {req:?}"
    )))
}

/// `bdrmap chaos`: the end-to-end chaos harness. Runs
/// probe → infer → publish → serve → loadgen under a seeded fault
/// timeline — filesystem faults (ENOSPC, short writes, fsync failures,
/// silent torn renames) on every durable write, socket faults (frame
/// splits, mid-write resets, accept delays, stalls) plus scripted
/// acceptor/worker crashes on the serving path — and asserts the
/// system invariants:
///
/// 1. no acknowledged answer is ever wrong, and no query is lost;
/// 2. published generations advance monotonically;
/// 3. every failed publish leaves the store serving a verified-good
///    snapshot (rolling back past anything torn);
/// 4. once the faults stop, the system converges: the served snapshot
///    is byte-identical to the fault-free baseline.
///
/// The report (stdout summary + `--json` artifact) is a pure function
/// of `--seed`/`--fault-seed`: CI runs the same seed twice and diffs.
pub fn chaos(args: &Args) -> Result<(), ArgError> {
    use bdrmap_core::{snapshot, QueryIndex, SnapStore};
    use bdrmap_serve::{answer, ChaosNetConfig, NetFaultBudget};
    use bdrmap_types::{ChaosFsConfig, ChaosVfs, FaultKind, FsFaultBudget, Vfs};

    if args.flag("crash-watch") {
        return crash_watch(args);
    }
    use std::time::Duration;

    let seed: u64 = args.get_parse("seed", 42)?;
    let fault_seed: u64 = args.get_parse("fault-seed", 1)?;
    let rounds: u64 = args.get_parse("rounds", 8)?;
    if rounds == 0 {
        return Err(ArgError("--rounds must be at least 1".into()));
    }
    let secs: f64 = args.get_parse("secs", 0.25)?;
    if secs <= 0.0 || !secs.is_finite() {
        return Err(ArgError(format!("--secs must be positive, got {secs}")));
    }
    let every: u32 = args.get_parse("checkpoint-every", 2)?;
    if every == 0 {
        return Err(ArgError("--checkpoint-every must be at least 1".into()));
    }
    let preset_name = args.get("preset").unwrap_or("tiny").to_string();
    let cfg = preset(args)?;
    let bcfg = bdrmap_config(args)?;
    let dir = match args.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("bdrmap-chaos-{seed}-{fault_seed}")),
    };
    // A clean slate keeps the whole run a pure function of the seeds.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)
        .map_err(|e| ArgError(format!("creating {}: {e}", dir.display())))?;
    let mut violations: Vec<String> = Vec::new();

    // ---- Phase A: fault-free baseline -----------------------------
    // The sequential checkpointed probe path is the determinism
    // contract the chaos run is held to, so the baseline uses it too
    // (checkpointing off, real filesystem).
    let sc0 = Scenario::build(&preset_name, &cfg);
    let vp = vp_index(args, &sc0)?;
    println!("phase A: fault-free baseline (preset {preset_name}, seed {seed}, vp {vp})");
    let ropts = || bdrmap_probe::RunOptions {
        parallelism: 1,
        addrs_per_block: bcfg.addrs_per_block,
        use_stop_sets: bcfg.use_stop_sets,
        quarantine: None,
    };
    let targets0 = bdrmap_probe::target_blocks(&sc0.input.view, &sc0.input.vp_asns);
    let ip2as0 = sc0.input.ip2as_for_probing();
    let ck0 = bdrmap_probe::CheckpointConfig {
        every: 0,
        path: dir.join("baseline.bdrc"),
        vfs: Vfs::real(),
    };
    let coll0 = bdrmap_probe::run_traces_checkpointed(
        &sc0.engine(vp),
        &targets0,
        ropts(),
        |a| ip2as0.is_external(a),
        &ck0,
        None,
    )
    .map_err(|e| ArgError(format!("baseline probe failed: {e}")))?;
    let baseline_fp = bdrmap_probe::store::encode(&coll0);
    let baseline_traces = coll0.traces.len();
    // Inference on a pristine scenario, exactly as `bdrmap infer` does.
    let sci = Scenario::build(&preset_name, &cfg);
    let map = bdrmap_core::run_bdrmap_on_traces(&sci.engine(vp), &sci.input, &bcfg, coll0);
    let baseline_bytes =
        snapshot::encode_v3(&map).map_err(|e| ArgError(format!("encoding baseline: {e}")))?;
    println!(
        "  {baseline_traces} traces; {} routers / {} links; snapshot {} bytes",
        map.routers.len(),
        map.links.len(),
        baseline_bytes.len()
    );

    // ---- Phase B: probe + checkpoint under filesystem chaos -------
    println!("phase B: probing under injected filesystem faults");
    let probe_budget = FsFaultBudget {
        enospc: 2,
        short_write: 2,
        fsync_fail: 1,
        torn_rename: 1,
        // A rotted checkpoint fails its CRC32C and costs a from-scratch
        // attempt; a rotted trace-store read-back costs a rewrite.
        bit_rot: 1,
        rename_fail: 0,
    };
    let fs_probe = ChaosVfs::new(ChaosFsConfig {
        seed: fault_seed ^ 0x5052_4f42, // "PROB"
        fault_rate: 1.0,
        budget: probe_budget,
    });
    let attempt_cap = probe_budget.total() + 2;
    let ckpt_path = dir.join("probe.bdrc");
    let mut probe_attempts = 0u64;
    let coll = loop {
        probe_attempts += 1;
        if probe_attempts > attempt_cap {
            return Err(ArgError(format!(
                "probe never converged in {attempt_cap} attempts — a retry failed to drain the fault budget"
            )));
        }
        // A fresh scenario per attempt: the data plane mutates under
        // probing, and a real re-run starts from a clean process too.
        let sc = Scenario::build(&preset_name, &cfg);
        let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
        let ip2as = sc.input.ip2as_for_probing();
        // A torn or missing checkpoint fails decode and costs a
        // from-scratch attempt; a good one resumes mid-run.
        let resume = bdrmap_probe::Checkpoint::load_with(&ckpt_path, &fs_probe.vfs()).ok();
        let from = resume.as_ref().map_or("scratch".to_string(), |c| {
            format!("target {}", c.next_target)
        });
        let ck = bdrmap_probe::CheckpointConfig {
            every,
            path: ckpt_path.clone(),
            vfs: fs_probe.vfs(),
        };
        match bdrmap_probe::run_traces_checkpointed(
            &sc.engine(vp),
            &targets,
            ropts(),
            |a| ip2as.is_external(a),
            &ck,
            resume,
        ) {
            Ok(c) => break c,
            Err(e) => println!("  attempt {probe_attempts} (from {from}) aborted: {e}"),
        }
    };
    let fp_identical = bdrmap_probe::store::encode(&coll) == baseline_fp;
    if !fp_identical {
        violations.push("probe: chaos-run traces diverged from the fault-free fingerprint".into());
    }
    // The trace store write is verified by read-back, so even a silent
    // torn rename costs only a retry.
    let trace_path = dir.join("chaos.bdrw");
    let mut store_write_retries = 0u64;
    loop {
        let written = bdrmap_probe::store::save_with(&trace_path, &coll, &fs_probe.vfs())
            .and_then(|()| bdrmap_probe::store::load_with(&trace_path, &fs_probe.vfs()));
        match written {
            Ok(back) if bdrmap_probe::store::encode(&back) == baseline_fp => break,
            Ok(_) => println!("  trace store read back corrupt; rewriting"),
            Err(e) => println!("  trace store write failed ({e}); rewriting"),
        }
        store_write_retries += 1;
        if store_write_retries > attempt_cap {
            return Err(ArgError("trace store write never converged".into()));
        }
    }
    // The deterministic fault log doubles as the artifact-writer
    // exercise: emit it through the same faulty seam, verified.
    let log_csv = {
        let mut s = String::from("op,fault,file\n");
        for line in fs_probe.log() {
            let mut parts = line.splitn(3, ' ');
            let (op, kind, file) = (
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
            );
            s.push_str(&format!("{op},{kind},{file}\n"));
        }
        s
    };
    let log_path = dir.join("fs-fault-log.csv");
    let mut artifact_retries = 0u64;
    loop {
        let ok = bdrmap_eval::artifacts::write_artifact_with(&log_path, &log_csv, &fs_probe.vfs())
            .is_ok()
            && std::fs::read_to_string(&log_path).is_ok_and(|s| s == log_csv);
        if ok {
            break;
        }
        artifact_retries += 1;
        if artifact_retries > attempt_cap {
            return Err(ArgError("artifact write never converged".into()));
        }
    }
    let probe_faults = fs_fault_json(&fs_probe);
    println!(
        "  converged after {probe_attempts} attempts ({} faults injected); fingerprint identical: {fp_identical}",
        fs_probe.injected_total()
    );

    // ---- Phase C: publish rounds under filesystem chaos -----------
    println!("phase C: {rounds} publish rounds against the snapshot store");
    let snapdir = dir.join("snapstore");
    let registry = bdrmap_obs::Registry::new();
    let store_clean = SnapStore::open_with(&snapdir, Vfs::real(), registry.clone())
        .map_err(|e| ArgError(format!("opening snapshot store: {e}")))?;
    let fs_pub = ChaosVfs::new(ChaosFsConfig {
        seed: fault_seed ^ 0x5055_424c, // "PUBL"
        // Every publish with remaining budget faults, so the schedule
        // is exact: one budget unit per failed round, clean after.
        fault_rate: 1.0,
        budget: FsFaultBudget {
            enospc: 1,
            short_write: 1,
            fsync_fail: 1,
            torn_rename: 2,
            bit_rot: 0,
            rename_fail: 0,
        },
    });
    let store_chaos = SnapStore::open_with(&snapdir, fs_pub.vfs(), registry.clone())
        .map_err(|e| ArgError(format!("opening snapshot store: {e}")))?;
    let mut last_gen = store_clean
        .publish(&map)
        .map_err(|e| ArgError(format!("base publish failed: {e}")))?;
    let (mut publishes_ok, mut publishes_failed, mut rollbacks) = (1u64, 0u64, 0u64);
    let mut monotone = true;
    for round in 1..=rounds {
        match store_chaos.publish(&map) {
            Ok(g) => {
                if g <= last_gen {
                    monotone = false;
                    violations.push(format!(
                        "publish round {round}: generation {g} did not advance past {last_gen}"
                    ));
                }
                last_gen = g;
                publishes_ok += 1;
            }
            Err(e) => {
                publishes_failed += 1;
                println!("  round {round}: publish failed ({e}); verifying recovery");
                match store_clean.load_verified() {
                    Ok(out) => {
                        if out.rolled_back() {
                            rollbacks += 1;
                        }
                        if out.bytes != baseline_bytes {
                            violations.push(format!(
                                "publish round {round}: store served a non-baseline map after the failure"
                            ));
                        }
                        if out.generation < last_gen {
                            monotone = false;
                            violations.push(format!(
                                "publish round {round}: recovery regressed to generation {} below {last_gen}",
                                out.generation
                            ));
                        }
                        last_gen = out.generation;
                    }
                    Err(e) => violations.push(format!(
                        "publish round {round}: store unrecoverable after failed publish: {e}"
                    )),
                }
            }
        }
    }
    // Every torn rename plants a corrupt generation file, and nothing
    // else does — observed rollbacks must match exactly.
    let torn = fs_pub.injected(FaultKind::TornRename);
    if rollbacks != torn {
        violations.push(format!(
            "publish: {torn} torn renames injected but {rollbacks} rollbacks observed"
        ));
    }
    fs_pub.quiesce();
    let final_gen = store_chaos
        .publish(&map)
        .map_err(|e| ArgError(format!("quiesced publish failed: {e}")))?;
    if final_gen <= last_gen {
        monotone = false;
        violations.push(format!(
            "publish: quiesced generation {final_gen} did not advance past {last_gen}"
        ));
    }
    last_gen = final_gen;
    publishes_ok += 1;
    let final_identical =
        std::fs::read(store_clean.path_of(final_gen)).is_ok_and(|b| b == baseline_bytes);
    if !final_identical {
        violations
            .push("publish: quiesced final snapshot is not byte-identical to the baseline".into());
    }
    let gen_gauge = registry.gauge("bdrmap_snapstore_generation", &[]).get();
    if gen_gauge != last_gen {
        violations.push(format!(
            "publish: generation gauge reads {gen_gauge}, store is at {last_gen}"
        ));
    }
    let pub_faults = fs_fault_json(&fs_pub);
    println!(
        "  {publishes_ok} published, {publishes_failed} failed, {rollbacks} rollbacks; store at generation {last_gen}"
    );

    // ---- Phase D: serve under socket chaos + scripted crashes -----
    println!("phase D: bdrmapd under socket chaos, scripted crashes, and a corrupt reload");
    let net_cfg = ChaosNetConfig {
        seed: fault_seed ^ 0x4e45_5457, // "NETW"
        fault_rate: 0.35,
        budget: NetFaultBudget {
            split: 4,
            reset: 3,
            accept_delay: 2,
            stall: 2,
        },
        delay: Duration::from_millis(5),
        accept_panic_after: Some(2),
        worker_panic_after: Some(5),
    };
    let scfg = ServeConfig {
        restart_backoff: Duration::from_millis(10),
        restart_backoff_cap: Duration::from_millis(80),
        chaos: Some(net_cfg),
        ..serve_config(args, "127.0.0.1:0".to_string())?
    };
    let server = Server::start_from_store(&snapdir, scfg)
        .map_err(|e| ArgError(format!("starting bdrmapd from {}: {e}", snapdir.display())))?;
    if server.store_generation() != last_gen {
        violations.push(format!(
            "serve: booted from generation {} instead of {last_gen}",
            server.store_generation()
        ));
    }
    let addr = server.local_addr();
    let expected = QueryIndex::build(&map);
    let reqs = sweep_requests(&map);
    let mut mismatches = 0u64;
    for req in &reqs {
        let served = call_retry(&addr, req, 60)?;
        if answer(&expected, req).as_ref() != Some(&served) {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        violations.push(format!(
            "serve: {mismatches}/{} acknowledged answers were wrong under socket chaos",
            reqs.len()
        ));
    }
    // The supervisor notices a death on its next heartbeat, which may
    // land after the sweep's last answer — poll briefly, don't race it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.watchdog_restarts() != (1, 1) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let restarts = server.watchdog_restarts();
    if restarts != (1, 1) {
        violations.push(format!(
            "serve: watchdog restarts {restarts:?}, expected (1, 1) — a scripted crash went unhealed"
        ));
    }
    // Plant a corrupt newer generation and hot-reload from the store:
    // bdrmapd must quarantine it and keep serving the last good one.
    std::fs::write(
        store_clean.path_of(last_gen + 1),
        b"chaos: not a BDRM snapshot",
    )
    .map_err(|e| ArgError(format!("planting corrupt generation: {e}")))?;
    let reloaded = call_retry(&addr, &Request::Reload(String::new()), 60)?;
    if !matches!(reloaded, Response::Reloaded { .. }) {
        violations.push(format!(
            "serve: reload over a corrupt newest generation failed: {reloaded:?}"
        ));
    }
    if server.store_generation() != last_gen {
        violations.push(format!(
            "serve: reload moved to generation {} instead of holding {last_gen}",
            server.store_generation()
        ));
    }
    let quarantined = std::fs::read_dir(snapdir.join("corrupt"))
        .map(|d| d.count() as u64)
        .unwrap_or(0);
    if quarantined != torn + 1 {
        violations.push(format!(
            "serve: {quarantined} files quarantined, expected {} (torn renames + planted garbage)",
            torn + 1
        ));
    }
    let metrics_text = server.metrics();
    for needle in [
        "bdrmapd_watchdog_restarts_total{component=\"acceptor\"} 1",
        "bdrmapd_watchdog_restarts_total{component=\"worker\"} 1",
        "bdrmap_snapstore_rollbacks_total 1",
    ] {
        if !metrics_text.contains(needle) {
            violations.push(format!("serve: metrics exposition missing `{needle}`"));
        }
    }
    println!(
        "  {} requests verified, {mismatches} mismatches; watchdog restarts {restarts:?}; {quarantined} quarantined",
        reqs.len()
    );

    // ---- Phase E: quiesce and converge ----------------------------
    println!("phase E: quiesce, verified clean sweep, loadgen");
    server.quiesce_chaos();
    let mut clean_first_try = true;
    match Client::connect(&addr) {
        Ok(mut client) => {
            for req in &reqs {
                match client.call(req) {
                    Ok(resp) if answer(&expected, req).as_ref() == Some(&resp) => {}
                    other => {
                        clean_first_try = false;
                        violations.push(format!(
                            "quiesce: {req:?} did not answer cleanly first try: {other:?}"
                        ));
                        break;
                    }
                }
            }
        }
        Err(e) => {
            clean_first_try = false;
            violations.push(format!(
                "quiesce: could not connect to the quiesced server: {e}"
            ));
        }
    }
    let lcfg = LoadgenConfig {
        conns: 2,
        duration: Duration::from_secs_f64(secs),
        reload_with: None,
        corrupt_rate: 0.0,
        stall_conns: 0,
        ..LoadgenConfig::default()
    };
    let lreport = bdrmap_serve::loadgen::run(addr, &bdrmap_serve::queries_for_map(&map), &lcfg)
        .map_err(|e| ArgError(format!("loadgen failed: {e}")))?;
    let loadgen_lossless = lreport.queries_error == 0 && lreport.queries_ok > 0;
    if !loadgen_lossless {
        violations.push(format!(
            "loadgen: {} queries lost in flight ({} completed)",
            lreport.queries_error, lreport.queries_ok
        ));
    }
    println!(
        "  loadgen: {} ok, {} shed, {} errors at {:.0} qps",
        lreport.queries_ok, lreport.queries_shed, lreport.queries_error, lreport.qps
    );
    let net = server.net_fault_counts().unwrap_or_default();
    server.shutdown();
    // The store, read fresh off disk, still serves the baseline.
    let converged = match store_clean.load_verified() {
        Ok(out) => out.generation == last_gen && out.bytes == baseline_bytes && !out.rolled_back(),
        Err(_) => false,
    };
    if !converged {
        violations.push("quiesce: final on-disk store does not serve the baseline".into());
    }

    // ---- Report ---------------------------------------------------
    // Deliberately free of wall-clock, qps, and retry-timing fields:
    // two runs with the same seeds must produce byte-identical JSON.
    let violist = violations
        .iter()
        .map(|v| format!("\"{}\"", v.escape_default()))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"report\": \"chaos\",\n  \"schema\": 1,\n  \"preset\": \"{preset_name}\",\n  \"seed\": {seed},\n  \"fault_seed\": {fault_seed},\n  \"probe\": {{\"attempts\": {probe_attempts}, \"store_write_retries\": {store_write_retries}, \"artifact_retries\": {artifact_retries}, \"fingerprint_identical\": {fp_identical}, \"fs_faults\": {{{probe_faults}}}}},\n  \"publish\": {{\"rounds\": {rounds}, \"ok\": {publishes_ok}, \"failed\": {publishes_failed}, \"rollbacks\": {rollbacks}, \"generations_monotone\": {monotone}, \"final_generation\": {last_gen}, \"final_snapshot_identical\": {final_identical}, \"fs_faults\": {{{pub_faults}}}}},\n  \"serve\": {{\"requests\": {nreqs}, \"mismatches\": {mismatches}, \"watchdog_restarts\": {{\"acceptor\": {r0}, \"worker\": {r1}}}, \"quarantined_files\": {quarantined}, \"net_faults\": {{\"split\": {split}, \"reset\": {reset}, \"accept_delay\": {accept_delay}, \"stall\": {stall}}}}},\n  \"quiesce\": {{\"clean_sweep_first_try\": {clean_first_try}, \"loadgen_lossless\": {loadgen_lossless}, \"store_converged\": {converged}}},\n  \"violations\": [{violist}]\n}}\n",
        nreqs = reqs.len(),
        r0 = restarts.0,
        r1 = restarts.1,
        split = net.split,
        reset = net.reset,
        accept_delay = net.accept_delay,
        stall = net.stall,
    );
    print!("{json}");
    if let Some(out) = args.get("json") {
        bdrmap_eval::artifacts::write_artifact(std::path::Path::new(out), &json)
            .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
        println!("wrote {out}");
    }
    if !violations.is_empty() {
        return Err(ArgError(format!(
            "chaos invariants violated:\n  {}",
            violations.join("\n  ")
        )));
    }
    println!(
        "chaos: all invariants held ({} filesystem faults, {} socket faults, 2 scripted crashes healed)",
        fs_probe.injected_total() + fs_pub.injected_total(),
        net.split + net.reset + net.accept_delay + net.stall
    );
    Ok(())
}

/// One splitmix64 step, for the crash-kill schedule. Same mixer the
/// fault injectors use, so one seed convention covers the harness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where the crash-kill schedule murders the watch loop within a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kill {
    /// The pass completes: append, apply, publish, checkpoint.
    None,
    /// Killed during the journal append, with an injected append fault
    /// (ENOSPC / short write / fsync failure). The batch was never
    /// acked; only an fsync failure leaves it durable anyway.
    MidAppend,
    /// Killed after the append acked but before apply/publish. The
    /// batch must replay from the journal tail on recovery.
    PostAppend,
    /// Killed during compaction, with the checkpoint rename torn.
    /// Recovery must fall back to the previous checkpoint.
    MidCompaction,
    /// Killed during the snapstore publish, with an injected write
    /// fault. The journal is ahead of the store; recovery republishes.
    MidPublish,
}

impl Kill {
    fn as_str(self) -> &'static str {
        match self {
            Kill::None => "none",
            Kill::MidAppend => "mid-append",
            Kill::PostAppend => "post-append",
            Kill::MidCompaction => "mid-compaction",
            Kill::MidPublish => "mid-publish",
        }
    }
}

/// `bdrmap chaos --crash-watch`: the deterministic crash-kill recovery
/// harness for the durable watch loop.
///
/// Probes the target plan once up front, records a fault-free baseline
/// (per-pass snapshot bytes), then drives the journaled watch loop
/// through a seeded schedule of kills — mid-append (with an injected
/// append fault), post-append/pre-apply, mid-compaction (torn
/// checkpoint rename), and mid-publish — "respawning" after each kill
/// by re-opening the journal and recovering, exactly as a supervised
/// restart would. Asserts, at every recovery:
///
/// 1. no acked batch is lost and no unacked batch is half-applied —
///    the recovered trace set is exactly the durable plan prefix;
/// 2. the recovered engine's next map is byte-identical to the
///    fault-free baseline at the same pass;
/// 3. published generations stay monotone across crashes;
/// 4. the final recovered map equals a from-scratch `run_stages`
///    rebuild, byte for byte.
///
/// The report (stdout summary + `--json` artifact) is a pure function
/// of `--seed`/`--fault-seed`: CI runs the same seed twice and diffs.
fn crash_watch(args: &Args) -> Result<(), ArgError> {
    use bdrmap_core::{
        snapshot, IncrementalEngine, Journal, JournalCheckpoint, JournalConfig, SnapStore,
    };
    use bdrmap_types::{ChaosFsConfig, ChaosVfs, FaultKind, FsFaultBudget, Vfs};

    let seed: u64 = args.get_parse("seed", 42)?;
    let fault_seed: u64 = args.get_parse("fault-seed", 1)?;
    let batches: usize = args.get_parse("batches", 6)?;
    if batches == 0 {
        return Err(ArgError("--batches must be at least 1".into()));
    }
    let preset_name = args.get("preset").unwrap_or("tiny").to_string();
    let cfg = preset(args)?;
    let bcfg = bdrmap_config(args)?;
    let dir = match args.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("bdrmap-crash-{seed}-{fault_seed}")),
    };
    // A clean slate keeps the whole run a pure function of the seeds.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)
        .map_err(|e| ArgError(format!("creating {}: {e}", dir.display())))?;
    let jdir = dir.join("journal");
    let snapdir = dir.join("snapstore");
    let registry = bdrmap_obs::Registry::new();
    let mut violations: Vec<String> = Vec::new();

    // ---- Phase A: probe the plan once, up front --------------------
    // The kill schedule replays precomputed batches so every life sees
    // the same edits a fault-free watch loop would, in the same order.
    let sc = Scenario::build(&preset_name, &cfg);
    let vp = vp_index(args, &sc)?;
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    if targets.is_empty() {
        return Err(ArgError("no target blocks to watch".into()));
    }
    let chunk = targets.len().div_ceil(batches);
    let ip2as = sc.input.ip2as_for_probing();
    let prober = sc.engine(vp);
    let pps = bdrmap_probe::EngineConfig::default().pps;
    let tick_us = 1_000_000 / pps as u64;
    println!(
        "phase A: probing the {batches}-batch plan (preset {preset_name}, seed {seed}, vp {vp})"
    );
    let plan: Vec<bdrmap_core::Batch> = targets
        .chunks(chunk)
        .map(|ct| {
            bdrmap_core::Batch::upserts(
                bdrmap_probe::run_traces(
                    &prober,
                    ct,
                    bdrmap_probe::RunOptions {
                        parallelism: bcfg.parallelism,
                        addrs_per_block: bcfg.addrs_per_block,
                        use_stop_sets: bcfg.use_stop_sets,
                        quarantine: None,
                    },
                    |a| ip2as.is_external(a),
                )
                .traces,
            )
        })
        .collect();
    let npasses = plan.len();
    let plan_traces: usize = plan.iter().map(|b| b.upserts.len()).sum();

    // ---- Phase B: fault-free baseline over the plan ----------------
    println!("phase B: fault-free baseline ({npasses} passes, {plan_traces} traces)");
    let mut expected: Vec<Vec<u8>> = Vec::new();
    let mut expected_counts: Vec<usize> = Vec::new();
    {
        let mut base = IncrementalEngine::new(bcfg, tick_us);
        for b in &plan {
            let (m, rep) = base.apply(&prober, &sc.input, b.clone());
            expected.push(
                snapshot::encode_v3(&m).map_err(|e| ArgError(format!("encoding baseline: {e}")))?,
            );
            expected_counts.push(rep.traces);
        }
    }

    // ---- Kill schedule ---------------------------------------------
    // One seeded draw per pass; with ≥ 4 passes the first four are a
    // seeded permutation of the four kill kinds, so every crash point
    // is exercised on every run. A consumed kill never re-fires: the
    // re-run of a killed pass proceeds normally.
    let mut rng = fault_seed ^ 0x4352_4153; // "CRAS"
    let mut schedule: Vec<Kill> = (0..npasses)
        .map(|_| match splitmix64(&mut rng) % 5 {
            0 => Kill::None,
            1 => Kill::MidAppend,
            2 => Kill::PostAppend,
            3 => Kill::MidCompaction,
            _ => Kill::MidPublish,
        })
        .collect();
    if npasses >= 4 {
        let mut kinds = [
            Kill::MidAppend,
            Kill::PostAppend,
            Kill::MidCompaction,
            Kill::MidPublish,
        ];
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
        }
        schedule[..4].copy_from_slice(&kinds);
    }
    // Per-pass append fault kind, drawn for every pass so the schedule
    // is fixed regardless of which passes actually reach an append.
    let append_faults: Vec<FaultKind> = (0..npasses)
        .map(|_| match splitmix64(&mut rng) % 3 {
            0 => FaultKind::Enospc,
            1 => FaultKind::ShortWrite,
            _ => FaultKind::FsyncFail,
        })
        .collect();

    // ---- Phase C: the crash-kill loop ------------------------------
    println!("phase C: crash-kill loop over {npasses} passes");
    let mut next_pass = 0usize; // plan index to process next
    let mut acked = 0usize; // durable plan prefix
    let mut total_replayed = 0u64;
    let mut total_torn = 0u64;
    let mut ckpts_skipped = 0u64;
    let mut last_gen = 0u64;
    let mut monotone = true;
    let mut lives = 0u64;
    let mut attempt = 0u64;
    let mut kills = [0u64; 4]; // mid-append, post-append, mid-compaction, mid-publish
    let mut rows: Vec<String> = Vec::new();
    let jcfg = JournalConfig::default();

    'respawn: loop {
        lives += 1;
        // Respawn: recover exactly as `watch --journal-dir` does.
        let (mut journal, rec) = Journal::open_with(&jdir, Vfs::real(), registry.clone(), jcfg)
            .map_err(|e| ArgError(format!("life {lives}: journal recovery failed: {e}")))?;
        let mut engine = match &rec.checkpoint {
            Some(c) => {
                IncrementalEngine::restore(bcfg, tick_us, &prober, &sc.input, &c.entries, c.pass).0
            }
            None => IncrementalEngine::new(bcfg, tick_us),
        };
        for r in &rec.tail {
            engine.apply(&prober, &sc.input, r.batch.clone());
        }
        total_replayed += rec.tail.len() as u64;
        total_torn += rec.torn.len() as u64;
        ckpts_skipped += rec.checkpoints_skipped as u64;
        // No acked batch lost, no unacked batch half-applied: the
        // recovered state is exactly the durable plan prefix.
        let want = if acked == 0 {
            0
        } else {
            expected_counts[acked - 1]
        };
        if engine.trace_count() != want {
            violations.push(format!(
                "life {lives}: recovered {} traces, the durable prefix holds {want}",
                engine.trace_count()
            ));
        }
        if journal.lsn() != acked as u64 {
            violations.push(format!(
                "life {lives}: recovered lsn {} does not match {acked} durable batches",
                journal.lsn()
            ));
        }
        if next_pass >= npasses {
            // ---- Phase D: final recovery and convergence -----------
            println!(
                "phase D: final recovery (life {lives}, {} batches replayed) and convergence",
                rec.tail.len()
            );
            let shadow = bdrmap_core::run_stages(
                &sc.engine(vp),
                &sc.input,
                &bcfg,
                engine.shadow_collection(),
            );
            let final_bytes = snapshot::encode_v3(&shadow.map)
                .map_err(|e| ArgError(format!("encoding final map: {e}")))?;
            if &final_bytes != expected.last().unwrap() {
                violations.push(
                    "final: recovered map is not byte-identical to the fault-free baseline".into(),
                );
            }
            let store = SnapStore::open_with(&snapdir, Vfs::real(), registry.clone())
                .map_err(|e| ArgError(format!("opening snapshot store: {e}")))?;
            let g = store
                .publish(&shadow.map)
                .map_err(|e| ArgError(format!("final publish failed: {e}")))?;
            if g <= last_gen {
                monotone = false;
                violations.push(format!(
                    "final: generation {g} did not advance past {last_gen}"
                ));
            }
            last_gen = g;
            break 'respawn;
        }
        let store = SnapStore::open_with(&snapdir, Vfs::real(), registry.clone())
            .map_err(|e| ArgError(format!("opening snapshot store: {e}")))?;

        while next_pass < npasses {
            let p = next_pass;
            attempt += 1;
            let kill = schedule[p];
            let batch = plan[p].clone();
            let mut fault = "none";
            match kill {
                Kill::MidAppend => {
                    schedule[p] = Kill::None;
                    kills[0] += 1;
                    let fk = append_faults[p];
                    fault = fk.as_str();
                    // The one faultable op this handle ever sees is the
                    // append itself (reads only draw bit rot, and that
                    // budget is zero), so the fault lands exactly there.
                    let fsa = ChaosVfs::new(ChaosFsConfig {
                        seed: fault_seed ^ 0x4150_5044 ^ p as u64, // "APPD"
                        fault_rate: 1.0,
                        budget: FsFaultBudget {
                            enospc: u32::from(fk == FaultKind::Enospc),
                            short_write: u32::from(fk == FaultKind::ShortWrite),
                            fsync_fail: u32::from(fk == FaultKind::FsyncFail),
                            torn_rename: 0,
                            bit_rot: 0,
                            rename_fail: 0,
                        },
                    });
                    let (mut aj, _) = Journal::open_with(&jdir, fsa.vfs(), registry.clone(), jcfg)
                        .map_err(|e| {
                            ArgError(format!("pass {}: faulty reopen failed: {e}", p + 1))
                        })?;
                    if aj.append(seed, &batch).is_ok() {
                        violations.push(format!(
                            "pass {}: append under a scheduled {fault} fault was acked",
                            p + 1
                        ));
                    }
                    // An fsync failure leaves the full frame durable —
                    // unacked, but recovery replays it and the retry's
                    // identical LSN dedupes. Anything else left at most
                    // a torn tail: the pass re-runs from scratch.
                    if fk == FaultKind::FsyncFail {
                        acked = p + 1;
                        next_pass = p + 1;
                    }
                }
                Kill::PostAppend => {
                    schedule[p] = Kill::None;
                    kills[1] += 1;
                    journal
                        .append(seed, &batch)
                        .map_err(|e| ArgError(format!("pass {}: append failed: {e}", p + 1)))?;
                    acked = p + 1;
                    next_pass = p + 1;
                }
                Kill::None | Kill::MidCompaction | Kill::MidPublish => {
                    journal
                        .append(seed, &batch)
                        .map_err(|e| ArgError(format!("pass {}: append failed: {e}", p + 1)))?;
                    acked = p + 1;
                    let (map, _report) = engine.apply(&prober, &sc.input, batch);
                    let bytes = snapshot::encode_v3(&map)
                        .map_err(|e| ArgError(format!("encoding pass {}: {e}", p + 1)))?;
                    if bytes != expected[p] {
                        violations.push(format!(
                            "pass {}: map diverged from the fault-free rebuild ({} vs {} bytes)",
                            p + 1,
                            bytes.len(),
                            expected[p].len()
                        ));
                    }
                    match kill {
                        Kill::MidPublish => {
                            schedule[p] = Kill::None;
                            kills[3] += 1;
                            fault = FaultKind::Enospc.as_str();
                            let fsp = ChaosVfs::new(ChaosFsConfig {
                                seed: fault_seed ^ 0x5055_424c ^ p as u64, // "PUBL"
                                fault_rate: 1.0,
                                budget: FsFaultBudget {
                                    enospc: 1,
                                    short_write: 0,
                                    fsync_fail: 0,
                                    torn_rename: 0,
                                    bit_rot: 0,
                                    rename_fail: 0,
                                },
                            });
                            let cstore =
                                SnapStore::open_with(&snapdir, fsp.vfs(), registry.clone())
                                    .map_err(|e| {
                                        ArgError(format!("opening snapshot store: {e}"))
                                    })?;
                            if cstore.publish(&map).is_ok() {
                                violations.push(format!(
                                    "pass {}: publish under a scheduled fault succeeded",
                                    p + 1
                                ));
                            }
                            next_pass = p + 1;
                        }
                        Kill::MidCompaction => {
                            schedule[p] = Kill::None;
                            kills[2] += 1;
                            fault = FaultKind::TornRename.as_str();
                            let fsc = ChaosVfs::new(ChaosFsConfig {
                                seed: fault_seed ^ 0x434b_5054 ^ p as u64, // "CKPT"
                                fault_rate: 1.0,
                                budget: FsFaultBudget {
                                    enospc: 0,
                                    short_write: 0,
                                    fsync_fail: 0,
                                    torn_rename: 1,
                                    bit_rot: 0,
                                    rename_fail: 0,
                                },
                            });
                            let (mut cj, _) =
                                Journal::open_with(&jdir, fsc.vfs(), registry.clone(), jcfg)
                                    .map_err(|e| {
                                        ArgError(format!(
                                            "pass {}: faulty reopen failed: {e}",
                                            p + 1
                                        ))
                                    })?;
                            let ckpt = JournalCheckpoint {
                                lsn: cj.lsn(),
                                generation: last_gen,
                                pass: engine.passes(),
                                entries: engine.checkpoint_entries(),
                            };
                            if cj.checkpoint(&ckpt).is_ok() {
                                violations.push(format!(
                                    "pass {}: a torn checkpoint rename went undetected",
                                    p + 1
                                ));
                            }
                            next_pass = p + 1;
                        }
                        _ => {
                            let g = store.publish(&map).map_err(|e| {
                                ArgError(format!("pass {}: publish failed: {e}", p + 1))
                            })?;
                            if g <= last_gen {
                                monotone = false;
                                violations.push(format!(
                                    "pass {}: generation {g} did not advance past {last_gen}",
                                    p + 1
                                ));
                            }
                            last_gen = g;
                            let ckpt = JournalCheckpoint {
                                lsn: journal.lsn(),
                                generation: g,
                                pass: engine.passes(),
                                entries: engine.checkpoint_entries(),
                            };
                            journal.checkpoint(&ckpt).map_err(|e| {
                                ArgError(format!("pass {}: compaction failed: {e}", p + 1))
                            })?;
                            next_pass = p + 1;
                        }
                    }
                }
            }
            // The durable LSN always equals the durable batch count:
            // torn appends never count, fsync-failed ones always do.
            rows.push(format!(
                "    {{\"attempt\": {attempt}, \"pass\": {}, \"kill\": \"{}\", \
                 \"fault\": \"{fault}\", \"acked\": {acked}, \"lsn\": {acked}}}",
                p + 1,
                kill.as_str(),
            ));
            println!(
                "  attempt {attempt}: pass {} {} (fault {fault}); {acked}/{npasses} durable",
                p + 1,
                kill.as_str()
            );
            if kill != Kill::None {
                continue 'respawn; // the kill: drop everything mid-flight
            }
        }
    }

    if total_replayed == 0 {
        violations.push("no batch was ever replayed from the journal tail".into());
    }

    // ---- Report ----------------------------------------------------
    // Free of wall-clock fields: two runs with the same seeds must
    // produce byte-identical JSON.
    let violist = violations
        .iter()
        .map(|v| format!("\"{}\"", v.escape_default()))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"report\": \"crash-watch\",\n  \"schema\": 1,\n  \"preset\": \"{preset_name}\",\n  \"seed\": {seed},\n  \"fault_seed\": {fault_seed},\n  \"batches\": {npasses},\n  \"plan_traces\": {plan_traces},\n  \"lives\": {lives},\n  \"kills\": {{\"mid_append\": {ka}, \"post_append\": {kp}, \"mid_compaction\": {kc}, \"mid_publish\": {kb}}},\n  \"replayed_batches\": {total_replayed},\n  \"torn_tails\": {total_torn},\n  \"checkpoints_skipped\": {ckpts_skipped},\n  \"final_lsn\": {final_lsn},\n  \"final_generation\": {last_gen},\n  \"generations_monotone\": {monotone},\n  \"attempts\": [\n{rows}\n  ],\n  \"violations\": [{violist}]\n}}\n",
        ka = kills[0],
        kp = kills[1],
        kc = kills[2],
        kb = kills[3],
        final_lsn = acked,
        rows = rows.join(",\n"),
    );
    print!("{json}");
    if let Some(out) = args.get("json") {
        bdrmap_eval::artifacts::write_artifact(std::path::Path::new(out), &json)
            .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
        println!("wrote {out}");
    }
    if !violations.is_empty() {
        return Err(ArgError(format!(
            "crash-watch invariants violated:\n  {}",
            violations.join("\n  ")
        )));
    }
    println!(
        "crash-watch: all invariants held across {lives} lives ({} kills, {total_replayed} batches replayed, {total_torn} torn tails discarded)",
        kills.iter().sum::<u64>()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), crate::VALUE_KEYS).unwrap()
    }

    #[test]
    fn preset_resolution() {
        assert!(preset(&args("run --preset tiny")).is_ok());
        assert!(preset(&args("run --preset re")).is_ok());
        assert!(preset(&args("run --preset large-access --scale 0.05")).is_ok());
        assert!(preset(&args("run --preset nonsense")).is_err());
        assert!(preset(&args("run --seed banana")).is_err());
    }

    #[test]
    fn bdrmap_config_flags() {
        let c = bdrmap_config(&args("run --no-alias --one-addr")).unwrap();
        assert!(!c.alias_resolution);
        assert_eq!(c.addrs_per_block, 1);
        assert!(c.use_stop_sets);
        let d = bdrmap_config(&args("run --no-stop-sets")).unwrap();
        assert!(!d.use_stop_sets);
        assert!(d.alias_resolution);
    }

    #[test]
    fn generate_and_run_commands_work() {
        generate(&args("generate --preset tiny --seed 9")).unwrap();
        run(&args("run --preset tiny --seed 9")).unwrap();
    }

    #[test]
    fn merge_command_works() {
        merge(&args("merge --preset tiny --seed 9 --vps 2")).unwrap();
    }

    #[test]
    fn probe_then_infer_round_trips() {
        let dir = std::env::temp_dir().join("bdrmap-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bdrw");
        let path_s = path.to_str().unwrap();
        probe(&args(&format!(
            "probe --preset tiny --seed 9 --out {path_s}"
        )))
        .unwrap();
        infer(&args(&format!(
            "infer --preset tiny --seed 9 --in {path_s}"
        )))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_and_congestion_commands_work() {
        fleet(&args("fleet --preset tiny --seed 9 --hosts 2")).unwrap();
        congestion(&args("congestion --preset tiny --seed 9")).unwrap();
        devcheck(&args("devcheck --preset tiny --seed 9")).unwrap();
    }

    #[test]
    fn probe_requires_out() {
        assert!(probe(&args("probe --preset tiny")).is_err());
        assert!(infer(&args("infer --preset tiny")).is_err());
    }

    #[test]
    fn run_rejects_bad_vp() {
        assert!(run(&args("run --preset tiny --seed 9 --vp 99")).is_err());
    }

    #[test]
    fn fault_rates_must_be_probabilities() {
        assert!(run(&args("run --preset tiny --seed 9 --loss 1.5")).is_err());
        assert!(run(&args("run --preset tiny --seed 9 --flap -0.1")).is_err());
    }

    #[test]
    fn faulted_run_and_degradation_commands_work() {
        run(&args(
            "run --preset tiny --seed 9 --loss 0.05 --fault-seed 3",
        ))
        .unwrap();
        degradation(&args(
            "degradation --preset tiny --seed 9 --loss 0.1 --flap 0.2",
        ))
        .unwrap();
    }

    #[test]
    fn probe_resumed_from_checkpoint_writes_identical_store() {
        let dir = std::env::temp_dir().join("bdrmap-cli-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.bdrw");
        let p = path.to_str().unwrap();
        // Full run leaves its last periodic checkpoint behind.
        probe(&args(&format!(
            "probe --preset tiny --seed 9 --out {p} --checkpoint-every 2"
        )))
        .unwrap();
        let first = std::fs::read(&path).unwrap();
        assert!(dir.join("c.bdrw.ckpt").exists());
        // Resuming from it in a fresh "process" (new scenario, pristine
        // data plane) must reproduce the store byte-for-byte.
        probe(&args(&format!(
            "probe --preset tiny --seed 9 --out {p} --checkpoint-every 2 --resume"
        )))
        .unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "resumed store must be byte-identical");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(dir.join("c.bdrw.ckpt")).ok();
    }

    #[test]
    fn probe_and_infer_reject_bad_vp() {
        let dir = std::env::temp_dir().join("bdrmap-cli-vp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bdrw");
        let p = p.to_str().unwrap();
        assert!(probe(&args(&format!(
            "probe --preset tiny --seed 9 --vp 99 --out {p}"
        )))
        .is_err());
        assert!(infer(&args(&format!(
            "infer --preset tiny --seed 9 --vp 99 --in {p}"
        )))
        .is_err());
    }

    #[test]
    fn query_and_loadgen_reject_bad_args() {
        assert!(query(&args("query")).is_err());
        assert!(query(&args("query --connect not-an-addr --stats")).is_err());
        assert!(query(&args("query --connect 127.0.0.1:1")).is_err());
        assert!(loadgen(&args("loadgen --connect 127.0.0.1:1 --secs 0.1")).is_err());
        assert!(loadgen(&args("loadgen --preset tiny --secs 0")).is_err());
    }

    #[test]
    fn run_map_out_then_loadgen_smoke() {
        let dir = std::env::temp_dir().join("bdrmap-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("m.bdrm");
        let snap_s = snap.to_str().unwrap();
        let json = dir.join("BENCH_serve.json");
        let json_s = json.to_str().unwrap();
        run(&args(&format!(
            "run --preset tiny --seed 9 --map-out {snap_s}"
        )))
        .unwrap();
        // Inline loadgen serves the saved snapshot, hammers it briefly,
        // hot-swaps mid-run, and writes the benchmark artifact.
        loadgen(&args(&format!(
            "loadgen --snapshot {snap_s} --secs 0.4 --conns 2 --workers 2 --json {json_s}"
        )))
        .unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"bench\": \"serve\""));
        assert!(report.contains("\"queries_ok\""));
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn chaos_command_end_to_end() {
        let dir = std::env::temp_dir().join("bdrmap-cli-chaos-test");
        let json = std::env::temp_dir().join("bdrmap-cli-chaos-test.json");
        let dir_s = dir.to_str().unwrap();
        let json_s = json.to_str().unwrap();
        chaos(&args(&format!(
            "chaos --preset tiny --seed 9 --fault-seed 3 --rounds 6 --secs 0.2 --dir {dir_s} --json {json_s}"
        )))
        .unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"report\": \"chaos\""), "{report}");
        assert!(report.contains("\"violations\": []"), "{report}");
        assert!(
            report.contains("\"fingerprint_identical\": true"),
            "{report}"
        );
        assert!(report.contains("\"store_converged\": true"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn chaos_rejects_bad_args() {
        assert!(chaos(&args("chaos --rounds 0")).is_err());
        assert!(chaos(&args("chaos --secs 0")).is_err());
        assert!(chaos(&args("chaos --checkpoint-every 0")).is_err());
    }

    #[test]
    fn watch_with_journal_recovers_from_tail_replay() {
        let dir = std::env::temp_dir().join("bdrmap-cli-watch-journal-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let jdir = dir.join("journal");
        let json = dir.join("b.json");
        let base = format!(
            "watch --preset tiny --seed 9 --batches 2 --journal-dir {} --json {}",
            jdir.display(),
            json.display()
        );
        // First "process": two passes, both journaled, no checkpoint
        // (the default cadence is 4 passes).
        watch(&args(&base)).unwrap();
        let first = std::fs::read_to_string(&json).unwrap();
        assert!(first.contains("\"recovered_batches\": 0"), "{first}");
        assert!(first.contains("\"journal_lsn\": 2"), "{first}");
        // Second "process": recovery replays both batches from the
        // journal tail, then every new pass still shadow-checks clean
        // against a from-scratch rebuild (watch errors on divergence).
        watch(&args(&base)).unwrap();
        let second = std::fs::read_to_string(&json).unwrap();
        assert!(second.contains("\"recovered_batches\": 2"), "{second}");
        assert!(second.contains("\"journal_lsn\": 4"), "{second}");
        assert!(!second.contains("\"identical\": false"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_with_journal_recovers_from_checkpoint() {
        let dir = std::env::temp_dir().join("bdrmap-cli-watch-ckpt-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let jdir = dir.join("journal");
        let json = dir.join("b.json");
        let base = format!(
            "watch --preset tiny --seed 9 --batches 2 --compact-every 2 --journal-dir {} --json {}",
            jdir.display(),
            json.display()
        );
        watch(&args(&base)).unwrap();
        assert!(
            std::fs::read_dir(&jdir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".bdrk")),
            "pass 2 must have written a checkpoint"
        );
        // Recovery restores from the checkpoint (empty tail) and the
        // restored engine's passes are byte-identical to a rebuild.
        watch(&args(&base)).unwrap();
        let second = std::fs::read_to_string(&json).unwrap();
        assert!(second.contains("\"recovered_batches\": 0"), "{second}");
        assert!(second.contains("\"journal_lsn\": 4"), "{second}");
        assert!(!second.contains("\"identical\": false"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_expire_after_retracts_unrefreshed_traces() {
        let dir = std::env::temp_dir().join("bdrmap-cli-watch-expire-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("b.json");
        // Three chunked passes with a one-pass expiry: at pass 3 the
        // pass-1 chunk is stale (refreshed at 1, clock at 2) and is not
        // in the pass-3 probe batch, so it must be retracted — and the
        // shadow check proves the retracted rebuild is byte-identical.
        watch(&args(&format!(
            "watch --preset tiny --seed 9 --batches 3 --expire-after 1 --json {}",
            json.display()
        )))
        .unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"expire_after\": 1"), "{report}");
        let pass3 = report.split("\"pass\": 3").nth(1).unwrap();
        let retracted: u64 = pass3
            .split("\"retracted\": ")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(retracted > 0, "pass 3 must retract the stale pass-1 chunk");
        // A wide window never retracts anything here.
        watch(&args(&format!(
            "watch --preset tiny --seed 9 --batches 3 --expire-after 3 --json {}",
            json.display()
        )))
        .unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert_eq!(
            report.matches("\"retracted\": 0").count(),
            3,
            "a 3-pass window must never expire anything: {report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_watch_end_to_end() {
        let dir = std::env::temp_dir().join("bdrmap-cli-crash-watch-test");
        let json = std::env::temp_dir().join("bdrmap-cli-crash-watch-test.json");
        chaos(&args(&format!(
            "chaos --crash-watch --preset tiny --seed 9 --fault-seed 5 --batches 6 --dir {} --json {}",
            dir.display(),
            json.display()
        )))
        .unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"report\": \"crash-watch\""), "{report}");
        assert!(report.contains("\"violations\": []"), "{report}");
        assert!(
            report.contains("\"generations_monotone\": true"),
            "{report}"
        );
        // Every crash point fired, and at least one acked batch came
        // back from the journal tail rather than a checkpoint.
        for k in [
            "\"mid_append\": 1",
            "\"post_append\": 1",
            "\"mid_compaction\": 1",
            "\"mid_publish\": 1",
        ] {
            assert!(report.contains(k), "missing {k} in {report}");
        }
        assert!(!report.contains("\"replayed_batches\": 0"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn watch_and_crash_watch_reject_bad_args() {
        assert!(chaos(&args("chaos --crash-watch --batches 0")).is_err());
        assert!(watch(&args("watch --preset tiny --expire-after 0")).is_err());
        assert!(watch(&args("watch --preset tiny --compact-every 0")).is_err());
        assert!(watch(&args("watch --preset tiny --serve")).is_err());
    }

    #[test]
    fn presets_cover_all_vp_kinds() {
        use bdrmap_topo::AsKind;
        let kinds = [
            preset(&args("x --preset re")).unwrap().vp_kind,
            preset(&args("x --preset large-access")).unwrap().vp_kind,
            preset(&args("x --preset tier1")).unwrap().vp_kind,
            preset(&args("x --preset small-access")).unwrap().vp_kind,
        ];
        assert_eq!(
            kinds,
            [
                AsKind::ResearchEdu,
                AsKind::Access,
                AsKind::Tier1,
                AsKind::SmallAccess
            ]
        );
    }
    #[test]
    fn alias_parallelism_rejects_zero_and_defaults_to_cores() {
        let e = alias_parallelism(&args("x --alias-parallelism 0")).unwrap_err();
        assert!(e.0.contains("alias-parallelism"));
        assert_eq!(
            alias_parallelism(&args("x --alias-parallelism 6")).unwrap(),
            6
        );
        assert!(alias_parallelism(&args("x")).unwrap() >= 1);
    }

    #[test]
    fn bdrmap_config_carries_alias_parallelism() {
        let cfg = bdrmap_config(&args("x --alias-parallelism 4")).unwrap();
        assert_eq!(cfg.alias_parallelism, 4);
        assert!(bdrmap_config(&args("x --alias-parallelism 0")).is_err());
    }
}
