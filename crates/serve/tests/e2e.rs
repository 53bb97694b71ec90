//! End-to-end tests for bdrmapd: a real inference served over real TCP.
//!
//! These are the PR's acceptance experiments: (1) every query kind
//! round-trips correctly against the border map the daemon is serving,
//! (2) a hot snapshot swap under sustained load loses zero in-flight
//! queries and post-swap answers reflect the new snapshot, and (3) a
//! saturated admission budget sheds with `Overload` instead of
//! queueing without bound. bdrmapd serves on Linux only.
#![cfg(target_os = "linux")]

use bdrmap_core::{snapshot, BdrmapConfig, BorderMap, QueryRead, ScanOracle};
use bdrmap_eval::Scenario;
use bdrmap_serve::{
    loadgen, queries_for_map, Client, LinkInfo, LoadgenConfig, Request, Response, ServeConfig,
    Server,
};
use bdrmap_topo::TopoConfig;
use bdrmap_types::wire::{read_frame, MAX_FRAME};
use std::time::Duration;

fn infer(seed: u64, vp: usize) -> BorderMap {
    let sc = Scenario::build("serve-e2e", &TopoConfig::tiny(seed));
    sc.run_vp(vp, &BdrmapConfig::default())
}

fn start(map: &BorderMap, workers: usize, queue: usize) -> Server {
    Server::start(
        map,
        ServeConfig {
            workers,
            queue,
            ..ServeConfig::default()
        },
    )
    .expect("server starts on an ephemeral port")
}

/// Acceptance: for every address/AS the map knows about, the served
/// answer equals what the scan oracle computes.
#[test]
fn serves_all_three_query_kinds_correctly() {
    let map = infer(61, 0);
    assert!(!map.links.is_empty(), "tiny scenario must infer links");
    let reference = ScanOracle::new(&map);
    let server = start(&map, 2, 16);
    let mut client = Client::connect(&server.local_addr()).unwrap();

    // Owner-of-address over every router interface in the map.
    let mut owners = 0;
    for router in &map.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            let served = match client.call(&Request::Owner(a)).unwrap() {
                Response::Owner(ans) => ans,
                other => panic!("owner query answered with {other:?}"),
            };
            assert_eq!(served, reference.owner_of(a), "owner mismatch for {a}");
            owners += served.is_some() as u32;
        }
    }
    assert!(owners > 0, "no owned router interface resolved");

    // Border-router-of-link over every link interface.
    let mut borders = 0;
    for link in &map.links {
        for a in [link.near_addr, link.far_addr].into_iter().flatten() {
            let served = match client.call(&Request::Border(a)).unwrap() {
                Response::Border(ans) => ans,
                other => panic!("border query answered with {other:?}"),
            };
            let expected = reference.border_of(a).map(LinkInfo::from);
            assert_eq!(served, expected, "border mismatch for {a}");
            borders += served.is_some() as u32;
        }
    }
    assert!(borders > 0, "no link interface resolved to a border");

    // Links-of-neighbor-AS over every far AS in the map.
    let mut neighbor_links = 0;
    let mut neighbors: Vec<_> = map.links.iter().map(|l| l.far_as).collect();
    neighbors.sort_unstable();
    neighbors.dedup();
    for asn in neighbors {
        let served = match client.call(&Request::Neighbor(asn)).unwrap() {
            Response::Neighbor(links) => links,
            other => panic!("neighbor query answered with {other:?}"),
        };
        let expected: Vec<LinkInfo> = reference
            .neighbor_links(asn)
            .into_iter()
            .filter_map(|id| reference.link_answer(id))
            .map(LinkInfo::from)
            .collect();
        assert_eq!(served, expected, "neighbor mismatch for {asn}");
        neighbor_links += served.len();
    }
    assert!(neighbor_links > 0, "no neighbor produced links");

    // A covering miss stays a miss.
    let nowhere = "255.255.255.254".parse().unwrap();
    assert_eq!(
        client.call(&Request::Owner(nowhere)).unwrap(),
        Response::Owner(None)
    );
    assert_eq!(
        client.call(&Request::Border(nowhere)).unwrap(),
        Response::Border(None)
    );

    // Stats reflect the work and the initial generation.
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("stats answered with {other:?}"),
    };
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.routers as usize, map.routers.len());
    assert_eq!(stats.links as usize, map.links.len());
    assert!(stats.queries > 0);

    drop(client);
    server.shutdown();
}

/// Acceptance: a reload concurrent with sustained load answers every
/// in-flight query, and post-swap responses reflect the new snapshot.
#[test]
fn hot_swap_under_load_loses_no_queries() {
    let map_a = infer(61, 0);
    let map_b = infer(61, 1);
    let dir = std::env::temp_dir().join("bdrmap-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_b = dir.join("map-b.bdrm");
    snapshot::save(&snap_b, &map_b).unwrap();

    let server = start(&map_a, 4, 64);
    let queries = queries_for_map(&map_a);
    let report = loadgen::run(
        server.local_addr(),
        &queries,
        &LoadgenConfig {
            conns: 4,
            duration: Duration::from_millis(1200),
            reload_with: Some(snap_b.clone()),
            ..LoadgenConfig::default()
        },
    )
    .unwrap();

    assert!(report.queries_ok > 0, "load generator made no progress");
    assert_eq!(
        report.queries_error, 0,
        "hot swap lost in-flight queries: {report:?}"
    );
    let reload = report.reload.expect("mid-run reload must report stats");
    assert_eq!(reload.generation, 2, "exactly one swap must have landed");
    assert!(reload.round_trip_us > 0);

    // Post-swap, the daemon answers from the new snapshot: every owner
    // answer matches the oracle over map B, not map A.
    let reference_b = ScanOracle::new(&map_b);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    for router in &map_b.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            let served = match client.call(&Request::Owner(a)).unwrap() {
                Response::Owner(ans) => ans,
                other => panic!("owner query answered with {other:?}"),
            };
            assert_eq!(served, reference_b.owner_of(a), "stale answer for {a}");
        }
    }
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("stats answered with {other:?}"),
    };
    assert_eq!(stats.generation, 2);

    drop(client);
    server.shutdown();
    std::fs::remove_file(&snap_b).ok();
}

/// With one loop and a one-deep queue (a budget of two open
/// connections), extra connections are shed
/// with a single `Overload` frame instead of piling up.
#[test]
fn saturated_accept_queue_sheds_overload() {
    let map = infer(61, 0);
    let server = start(&map, 1, 1);

    // Hold one budget slot for the whole test.
    let mut busy = Client::connect(&server.local_addr()).unwrap();
    let addr = map.routers[0]
        .addrs
        .first()
        .copied()
        .unwrap_or_else(|| "203.0.113.1".parse().unwrap());
    busy.call(&Request::Owner(addr)).unwrap();

    // Flood: one connection fits the budget; later ones must be shed.
    let mut sheds = 0;
    let mut extras = Vec::new();
    for _ in 0..8 {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // Shed frames arrive immediately; an admitted connection just
        // times out here and is kept open to hold its budget slot.
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(payload)) => {
                assert_eq!(Response::decode(&payload).unwrap(), Response::Overload);
                sheds += 1;
            }
            // Admitted (no frame yet) — keep the socket open so the budget
            // stays full for the rest of the flood.
            _ => extras.push(stream),
        }
    }
    assert!(sheds > 0, "no connection was shed past the budget");
    assert!(server.stats().sheds >= sheds);

    // The busy connection still works: shedding is per-connection, not
    // a server-wide failure.
    assert!(matches!(
        busy.call(&Request::Owner(addr)).unwrap(),
        Response::Owner(_)
    ));

    drop(busy);
    drop(extras);
    server.shutdown();
}

/// Pull one counter value out of a Prometheus-style exposition.
fn scrape(text: &str, name: &str, labels: &str) -> u64 {
    let series = if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    };
    for line in text.lines() {
        if let Some(v) = line.strip_prefix(&format!("{series} ")) {
            return v.trim().parse().unwrap_or_else(|_| {
                panic!("unparseable sample for {series}: {line}");
            });
        }
    }
    panic!("series {series} not found in exposition:\n{text}");
}

/// Regression (observability sweep): polling `Stats` must neither
/// inflate the query counter (the old bug class: control frames
/// counted as queries) nor vanish from accounting — every control
/// frame shows up under its own opcode in `bdrmapd_requests_total`.
#[test]
fn stats_polling_neither_distorts_nor_vanishes() {
    let map = infer(61, 0);
    let server = start(&map, 2, 16);
    let mut client = Client::connect(&server.local_addr()).unwrap();

    let addr = map.routers[0]
        .addrs
        .first()
        .copied()
        .unwrap_or_else(|| "203.0.113.1".parse().unwrap());
    let far_as = map
        .links
        .first()
        .map(|l| l.far_as)
        .unwrap_or(bdrmap_types::Asn(64500));
    for _ in 0..5 {
        client.call(&Request::Owner(addr)).unwrap();
    }
    for _ in 0..3 {
        client.call(&Request::Border(addr)).unwrap();
    }
    for _ in 0..2 {
        client.call(&Request::Neighbor(far_as)).unwrap();
    }

    // Poll Stats heavily; the query counter must not move.
    let mut last = None;
    for _ in 0..7 {
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(s) => last = Some(s),
            other => panic!("stats answered with {other:?}"),
        }
    }
    assert_eq!(
        last.unwrap().queries,
        10,
        "Stats polling distorted the query counter"
    );

    // ...and one Health frame for good measure.
    match client.call(&Request::Health).unwrap() {
        Response::Health(_) => {}
        other => panic!("health answered with {other:?}"),
    }

    // The control frames are accounted under their own opcodes.
    let text = match client.call(&Request::Metrics).unwrap() {
        Response::Metrics(t) => t,
        other => panic!("metrics answered with {other:?}"),
    };
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"owner\""), 5);
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"border\""), 3);
    assert_eq!(
        scrape(&text, "bdrmapd_requests_total", "op=\"neighbor\""),
        2
    );
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"stats\""), 7);
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"health\""), 1);
    // The Metrics request itself was counted before rendering.
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"metrics\""), 1);
    // Exposition agrees with the wire Stats view of query volume.
    assert!(text.contains("# TYPE bdrmapd_request_us histogram"));

    drop(client);
    server.shutdown();
}

/// Regression (torn reload triple): `(generation, build_us, swap_us)`
/// is published as one atomically-swapped unit, so a `Stats` reader
/// racing concurrent reloads can never observe a mix of two reloads'
/// fields. Every observed triple must be exactly the initial one or
/// one returned by some `Reloaded` response.
#[test]
fn concurrent_reloads_never_tear_the_stats_triple() {
    let map = infer(61, 0);
    let map_b = infer(61, 1);
    let dir = std::env::temp_dir().join("bdrmap-serve-e2e-tear");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("map-b.bdrm");
    snapshot::save(&snap, &map_b).unwrap();

    let server = start(&map, 4, 64);
    let addr = server.local_addr();
    let path = snap.display().to_string();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Two threads hammer Reload; collect every triple the server
    // acknowledged.
    let reloaders: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut acked = Vec::new();
                for _ in 0..12 {
                    match client.call(&Request::Reload(path.clone())).unwrap() {
                        Response::Reloaded {
                            generation,
                            build_us,
                            swap_us,
                            ..
                        } => acked.push((generation, build_us, swap_us)),
                        Response::Error(e) => panic!("reload failed: {e}"),
                        other => panic!("reload answered with {other:?}"),
                    }
                }
                acked
            })
        })
        .collect();

    // One thread polls Stats the whole time.
    let poller = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let mut seen = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match client.call(&Request::Stats).unwrap() {
                    Response::Stats(s) => {
                        seen.push((s.generation, s.last_build_us, s.last_swap_us))
                    }
                    other => panic!("stats answered with {other:?}"),
                }
            }
            seen
        })
    };

    let mut acked: Vec<(u64, u64, u64)> = Vec::new();
    for h in reloaders {
        acked.extend(h.join().unwrap());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let seen = poller.join().unwrap();

    assert!(!seen.is_empty(), "poller observed nothing");
    for triple in &seen {
        let legitimate = *triple == (1, 0, 0) || acked.contains(triple);
        assert!(
            legitimate,
            "torn stats triple {triple:?}: not the boot state and not \
             acknowledged by any reload (acked: {acked:?})"
        );
    }
    // Sanity: the 24 reloads really advanced the generation.
    assert_eq!(server.generation(), 25);

    server.shutdown();
    std::fs::remove_file(&snap).ok();
}
