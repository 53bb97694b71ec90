//! Crash-safety acceptance tests: the server must come up — and stay
//! up — when the newest snapshot is corrupt, when reloads fail
//! repeatedly, and when clients stall or flood their connections.
//! bdrmapd serves on Linux only.
#![cfg(target_os = "linux")]

use bdrmap_core::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_core::SnapStore;
use bdrmap_serve::{
    loadgen, queries_for_map, Client, LoadgenConfig, Request, Response, ServeConfig, Server,
};
use bdrmap_types::wire::{read_frame, write_frame, MAX_FRAME};
use bdrmap_types::{addr, Asn};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A deterministic hand-built map; `salt` varies the content so
/// different generations are distinguishable through query answers.
fn map(salt: u32) -> BorderMap {
    let base = 0x0A00_0000 + salt * 0x100;
    BorderMap {
        routers: vec![
            InferredRouter {
                addrs: vec![addr(base + 1)],
                other_addrs: vec![],
                owner: Some(Asn(64500)),
                heuristic: Some(Heuristic::VpInternal),
                min_hop: 1,
            },
            InferredRouter {
                addrs: vec![addr(base + 2), addr(base + 3)],
                other_addrs: vec![],
                owner: Some(Asn(64501 + salt)),
                heuristic: Some(Heuristic::OneNet),
                min_hop: 2,
            },
        ],
        links: vec![InferredLink {
            near: 0,
            far: Some(1),
            far_as: Asn(64501 + salt),
            near_addr: Some(addr(base + 1)),
            far_addr: Some(addr(base + 2)),
            heuristic: Heuristic::OneNet,
        }],
        packets: 1000 + salt as u64,
        elapsed_ms: 42,
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdrmap-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue: 16,
        reload_attempts: 1,
        reload_backoff: Duration::from_millis(5),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

/// Query every address the map knows about; every answer must be a
/// well-formed response on the first try — zero lost queries.
fn assert_serves_map(server: &Server, m: &BorderMap) {
    let mut client = Client::connect(&server.local_addr()).unwrap();
    for req in queries_for_map(m) {
        let resp = client.call(&req).expect("query must not be lost");
        assert!(resp.answers(&req), "mismatched answer for {req:?}");
        assert!(
            !matches!(resp, Response::Error(_) | Response::Overload),
            "query failed: {resp:?}"
        );
    }
}

fn health(server: &Server) -> bdrmap_serve::HealthInfo {
    let mut client = Client::connect(&server.local_addr()).unwrap();
    match client.call(&Request::Health).unwrap() {
        Response::Health(h) => h,
        other => panic!("health answered with {other:?}"),
    }
}

/// Acceptance: bit-flip the newest snapshot; the server starts on the
/// rolled-back generation, loses no queries, and a good publish +
/// store-reload re-advances the generation with the breaker closed.
#[test]
fn bitflip_rolls_back_then_good_reload_readvances() {
    let dir = temp_store("bitflip");
    let store = SnapStore::open(&dir).unwrap();
    assert_eq!(store.publish(&map(1)).unwrap(), 1);
    assert_eq!(store.publish(&map(2)).unwrap(), 2);

    // Flip one bit in the middle of generation 2.
    let victim = store.path_of(2);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    let server = Server::start_from_store(&dir, fast_cfg()).unwrap();
    let h = health(&server);
    assert_eq!(h.generation, 1, "must roll back to the last good gen");
    assert_eq!(h.breaker_state, 0);
    assert_serves_map(&server, &map(1));
    // The corrupt file was quarantined, not left in place.
    assert!(!victim.exists(), "corrupt snapshot must be quarantined");
    assert!(dir.join("corrupt").read_dir().unwrap().next().is_some());

    // A good publish and an empty-path reload re-advance the store.
    let gen = store.publish(&map(3)).unwrap();
    assert_eq!(gen, 2, "next generation after the quarantined one");
    let mut client = Client::connect(&server.local_addr()).unwrap();
    match client.call(&Request::Reload(String::new())).unwrap() {
        Response::Reloaded { .. } => {}
        other => panic!("store reload answered with {other:?}"),
    }
    let h = health(&server);
    assert_eq!(h.generation, 2);
    assert_eq!(h.breaker_state, 0, "breaker closed after a good reload");
    assert_eq!(h.swap_epoch, 2, "exactly one swap since start");
    assert_serves_map(&server, &map(3));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: truncate the newest snapshot mid-file; same rollback.
#[test]
fn truncation_rolls_back() {
    let dir = temp_store("truncate");
    let store = SnapStore::open(&dir).unwrap();
    store.publish(&map(1)).unwrap();
    store.publish(&map(2)).unwrap();

    let victim = store.path_of(2);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 3]).unwrap();

    let server = Server::start_from_store(&dir, fast_cfg()).unwrap();
    assert_eq!(health(&server).generation, 1);
    assert_serves_map(&server, &map(1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repeated reload failures open the breaker (visible in `Health`),
/// the last-good snapshot stays pinned, and after the cooldown a good
/// reload closes the breaker again.
#[test]
fn breaker_opens_pins_and_recovers() {
    let dir = temp_store("breaker");
    let store = SnapStore::open(&dir).unwrap();
    store.publish(&map(1)).unwrap();
    let server = Server::start_from_store(&dir, fast_cfg()).unwrap();
    let mut client = Client::connect(&server.local_addr()).unwrap();

    // Two failing reloads (threshold = 2) open the breaker.
    for _ in 0..2 {
        match client
            .call(&Request::Reload("/nonexistent/snap.bdrm".into()))
            .unwrap()
        {
            Response::Error(msg) => assert!(msg.contains("reload failed"), "{msg}"),
            other => panic!("bad reload answered with {other:?}"),
        }
    }
    let h = health(&server);
    assert_eq!(h.breaker_state, 1, "breaker must be open");
    assert_eq!(h.reload_failures, 2);

    // While open: refused immediately, pinned snapshot keeps serving.
    match client.call(&Request::Reload(String::new())).unwrap() {
        Response::Error(msg) => assert!(msg.contains("breaker open"), "{msg}"),
        other => panic!("pinned reload answered with {other:?}"),
    }
    assert_serves_map(&server, &map(1));
    assert_eq!(health(&server).generation, 1);

    // After the cooldown, a good store reload closes the breaker.
    store.publish(&map(2)).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    match client.call(&Request::Reload(String::new())).unwrap() {
        Response::Reloaded { .. } => {}
        other => panic!("recovery reload answered with {other:?}"),
    }
    let h = health(&server);
    assert_eq!(h.breaker_state, 0);
    assert_eq!(h.generation, 2);
    assert_serves_map(&server, &map(2));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled (slow-loris) connection is evicted by the request
/// deadline while healthy closed-loop connections keep their latency:
/// the fields asserted here are the same ones BENCH_serve.json reports.
#[test]
fn stalled_connections_evicted_without_hurting_healthy_p99() {
    let m = map(1);
    let server = Server::start(
        &m,
        ServeConfig {
            workers: 4,
            request_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = loadgen::run(
        server.local_addr(),
        &queries_for_map(&m),
        &LoadgenConfig {
            conns: 2,
            duration: Duration::from_millis(900),
            stall_conns: 2,
            ..LoadgenConfig::default()
        },
    )
    .unwrap();

    assert_eq!(report.stalled, 2, "both stall connections must open");
    assert_eq!(
        report.stalled_evicted, 2,
        "deadline must evict the stalls: {report:?}"
    );
    assert_eq!(report.queries_error, 0, "healthy traffic must be clean");
    assert!(report.queries_ok > 0);
    // Healthy p99 stays far below the stall deadline: the stalled
    // sockets did not capture the loops.
    assert!(
        report.p99_us < 100_000,
        "healthy p99 degraded: {} us",
        report.p99_us
    );
    assert!(server.stats().evicted_slow >= 2);
    server.shutdown();
}

/// Corrupted frames under load are each answered with a well-formed
/// `Error` frame — never a hang, close, or lost healthy query.
#[test]
fn corrupt_frames_survive_under_load() {
    let m = map(2);
    let server = Server::start(&m, ServeConfig::default()).unwrap();
    let report = loadgen::run(
        server.local_addr(),
        &queries_for_map(&m),
        &LoadgenConfig {
            conns: 2,
            duration: Duration::from_millis(700),
            corrupt_rate: 0.2,
            corrupt_seed: 99,
            ..LoadgenConfig::default()
        },
    )
    .unwrap();
    assert!(report.corrupt_sent > 0, "corruption must have fired");
    assert_eq!(
        report.corrupt_survived, report.corrupt_sent,
        "every corrupt frame must get a well-formed Error: {report:?}"
    );
    assert_eq!(report.queries_error, 0);
    assert!(report.queries_ok > 0);
    server.shutdown();
}

/// Hostile input past the frame limits — a burst past the max-inflight
/// cap, or a length prefix past the frame cap — is evicted with an
/// Error frame, and the server remains available to the next
/// connection.
#[test]
fn pipelining_flood_is_evicted() {
    let m = map(3);
    let server = Server::start(
        &m,
        ServeConfig {
            workers: 2,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // 32 valid frames in a single write: far past the cap of 1.
    let mut burst = Vec::new();
    for _ in 0..32 {
        let payload = Request::Stats.encode();
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    // A length prefix no frame may carry; its payload never follows.
    let oversize = u32::MAX.to_be_bytes().to_vec();
    for (input, what) in [(burst, "inflight flood"), (oversize, "oversize prefix")] {
        let before = server.stats().evicted_flood;
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&input).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Read until the server closes us; the goodbye must be a
        // well-formed Error frame.
        let mut goodbye = None;
        while let Ok(Some(payload)) = read_frame(&mut stream, MAX_FRAME) {
            if let Ok(Response::Error(reason)) = Response::decode(&payload) {
                goodbye = Some(reason);
            }
        }
        assert_eq!(
            goodbye.as_deref(),
            Some("frame limits exceeded"),
            "{what} eviction must say goodbye with an Error"
        );
        assert_eq!(server.stats().evicted_flood, before + 1, "{what}");
    }

    // The server is still fine for well-behaved clients.
    let mut client = Client::connect(&server.local_addr()).unwrap();
    assert!(matches!(
        client.call(&Request::Stats).unwrap(),
        Response::Stats(_)
    ));
    drop(client);
    server.shutdown();
}

/// Graceful drain: a connection with requests in flight at shutdown
/// gets its answers before the close.
#[test]
fn shutdown_drains_inflight_frames() {
    let m = map(4);
    let server = Server::start(&m, ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Queue three requests, then immediately shut down.
    for _ in 0..3 {
        write_frame(&mut stream, &Request::Stats.encode()).unwrap();
    }
    // Give the loop a moment to pick the connection up.
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || server.shutdown());
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut answered = 0;
    while let Ok(Some(payload)) = read_frame(&mut stream, MAX_FRAME) {
        assert!(matches!(Response::decode(&payload), Ok(Response::Stats(_))));
        answered += 1;
        if answered == 3 {
            break;
        }
    }
    assert_eq!(answered, 3, "buffered requests must be answered on drain");
    shutdown.join().unwrap();
}
