//! Socket-chaos and supervision tests for bdrmapd.
//!
//! Three acceptance properties of the chaos harness's serving layer:
//!
//! 1. **Supervision**: scripted acceptor and worker crashes are
//!    detected by the watchdog, counted in the registry, and healed by
//!    respawn — the server keeps answering correctly afterwards.
//! 2. **No corrupted answers**: under seeded frame splitting and
//!    mid-write resets, every query that completes returns exactly the
//!    answer the scan oracle computes. Faults may cost retries,
//!    never correctness.
//! 3. **Determinism**: the same seed and the same client behaviour
//!    inject the same fault counts, run to run.
//!
//! bdrmapd serves on Linux only.
#![cfg(target_os = "linux")]

use bdrmap_core::{BdrmapConfig, BorderMap, ScanOracle};
use bdrmap_eval::Scenario;
use bdrmap_serve::{
    answer, ChaosNetConfig, Client, NetFaultBudget, Request, Response, ServeConfig, Server,
};
use bdrmap_topo::TopoConfig;
use std::net::SocketAddr;
use std::time::Duration;

fn infer(seed: u64) -> BorderMap {
    let sc = Scenario::build("serve-chaos", &TopoConfig::tiny(seed));
    sc.run_vp(0, &BdrmapConfig::default())
}

/// Every data-plane request the map can answer, in deterministic order.
fn sweep_requests(map: &BorderMap) -> Vec<Request> {
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

/// One request with retries: injected resets, crashed loops, and
/// overload sheds cost another attempt on a fresh connection, never a
/// wrong answer.
fn call_retry(addr: &SocketAddr, req: &Request, attempts: usize) -> Response {
    for _ in 0..attempts {
        let Ok(mut client) = Client::connect(addr) else {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        match client.call(req) {
            Ok(Response::Overload) | Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(resp) => return resp,
        }
    }
    panic!("request never answered after {attempts} attempts: {req:?}")
}

fn chaos_server(map: &BorderMap, chaos: ChaosNetConfig) -> Server {
    Server::start(
        map,
        ServeConfig {
            workers: 2,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_millis(80),
            chaos: Some(chaos),
            ..ServeConfig::default()
        },
    )
    .expect("server starts on an ephemeral port")
}

/// Scripted crashes of both components are healed by the watchdog and
/// counted; the server then still answers every query correctly.
#[test]
fn watchdog_restarts_crashed_components() {
    let map = infer(71);
    let reference = ScanOracle::new(&map);
    let server = chaos_server(
        &map,
        ChaosNetConfig {
            accept_panic_after: Some(2),
            worker_panic_after: Some(3),
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let reqs = sweep_requests(&map);
    assert!(reqs.len() >= 4, "need enough requests to trip both crashes");

    for req in &reqs {
        let served = call_retry(&addr, req, 40);
        let expected = answer(&reference, req).expect("sweep sends only query requests");
        assert_eq!(served, expected, "mismatch for {req:?}");
    }
    // Both scripted crashes fired and were healed. The supervisor
    // notices a death on its next heartbeat, which may land after the
    // sweep's last answer — poll briefly rather than race it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.watchdog_restarts() != (1, 1) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.watchdog_restarts(),
        (1, 1),
        "each scripted crash restarts its component exactly once"
    );
    // The restarts are visible in the metric exposition.
    let text = server.metrics();
    assert!(
        text.contains("bdrmapd_watchdog_restarts_total{component=\"acceptor\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("bdrmapd_watchdog_restarts_total{component=\"worker\"} 1"),
        "{text}"
    );
    server.shutdown();
}

/// Under seeded splits, resets, delays, and stalls, every completed
/// query matches the scan oracle. Faults must actually have been
/// injected for the test to mean anything.
#[test]
fn verified_sweep_under_socket_chaos() {
    let map = infer(72);
    let reference = ScanOracle::new(&map);
    let server = chaos_server(
        &map,
        ChaosNetConfig {
            seed: 1009,
            fault_rate: 0.35,
            budget: NetFaultBudget {
                split: 6,
                reset: 4,
                accept_delay: 3,
                stall: 3,
            },
            delay: Duration::from_millis(5),
            ..Default::default()
        },
    );
    let addr = server.local_addr();

    for req in &sweep_requests(&map) {
        let served = call_retry(&addr, req, 40);
        let expected = answer(&reference, req).expect("sweep sends only query requests");
        assert_eq!(served, expected, "fault corrupted the answer for {req:?}");
    }
    // Both write plans must have fired, or the sweep proved nothing
    // about them: a split response still reassembles into one frame,
    // and a reset one never decodes as an answer.
    let counts = server.net_fault_counts().expect("chaos was configured");
    assert!(counts.split > 0, "no split write injected: {counts:?}");
    assert!(counts.reset > 0, "no mid-write reset injected: {counts:?}");

    // Quiesced, a re-sweep completes first-try on one connection.
    server.quiesce_chaos();
    let mut client = Client::connect(&addr).unwrap();
    for req in &sweep_requests(&map) {
        let served = client.call(req).expect("quiesced server answers cleanly");
        assert_eq!(served, answer(&reference, req).unwrap());
    }
    drop(client);
    server.shutdown();
}

/// Same seed, same sequential client → byte-identical fault counts.
#[test]
fn same_seed_injects_same_fault_counts() {
    let map = infer(73);
    let cfg = ChaosNetConfig {
        seed: 4321,
        fault_rate: 0.4,
        budget: NetFaultBudget {
            split: 5,
            reset: 3,
            accept_delay: 2,
            stall: 2,
        },
        delay: Duration::from_millis(2),
        ..Default::default()
    };
    let run = || {
        let server = chaos_server(&map, cfg);
        let addr = server.local_addr();
        for req in &sweep_requests(&map) {
            let _ = call_retry(&addr, req, 40);
        }
        let counts = server.net_fault_counts().unwrap();
        server.shutdown();
        counts
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fault schedule must be seed-deterministic");
    assert!(first.split + first.reset + first.accept_delay + first.stall > 0);
}
