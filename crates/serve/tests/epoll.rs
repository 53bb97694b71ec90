//! Readiness-loop behaviour: request deadlines (stalls, drip feeds,
//! and frames that keep ending mid-frame), half-close and mid-frame
//! EOF handling, the idle-costs-nothing guarantee, admission, and the
//! plain-HTTP metrics endpoint. bdrmapd serves on Linux only.
#![cfg(target_os = "linux")]

use bdrmap_core::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_serve::proto::{Request, Response, Stats};
use bdrmap_serve::{loadgen, queries_for_map, Client, ScaleConfig, ServeConfig, Server};
use bdrmap_types::wire::{read_frame, write_frame};
use bdrmap_types::{addr, Asn};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn epoll_server(cfg: ServeConfig) -> Server {
    Server::start(&map(1), cfg).unwrap()
}

/// `payload` behind its big-endian length prefix.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut v = (payload.len() as u32).to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn stats(server: &Server) -> Stats {
    let mut client = Client::connect(&server.local_addr()).unwrap();
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A connection that stalls mid-frame is evicted by the request
/// deadline: the goodbye Error frame (or the close itself) arrives
/// well before the grace window runs out.
#[test]
fn stalled_connection_is_evicted_by_the_wheel() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        request_deadline: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&[0, 0]).unwrap(); // two bytes of a length prefix
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut evicted = false;
    let mut buf = [0u8; 64];
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => {
                evicted = true;
                break;
            }
            Ok(_) => {} // goodbye frame bytes; keep reading to the close
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                evicted = true;
                break;
            }
        }
    }
    assert!(evicted, "stalled connection survived past its deadline");
    assert_eq!(stats(&server).evicted_slow, 1);
    server.shutdown();
}

/// The deadline covers one frame, not the connection: a client whose
/// every write completes one frame and starts the next keeps a partial
/// frame buffered at all times, yet each frame completes well within
/// the deadline, so it is never evicted as a slow loris.
#[test]
fn deadline_restarts_when_a_frame_completes() {
    let deadline = Duration::from_millis(300);
    let server = epoll_server(ServeConfig {
        workers: 1,
        request_deadline: deadline,
        ..ServeConfig::default()
    });
    let owner = frame(&queries_for_map(&map(1))[0].encode());
    assert_eq!(owner.len(), 9, "an Owner frame is 9 bytes on the wire");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&owner[..4]).unwrap();
    // Every 30 ms for four deadlines: the rest of one frame, then the
    // first four bytes of the next.
    let rounds = (4 * deadline.as_millis() / 30) as usize;
    let mut step = owner[4..].to_vec();
    step.extend_from_slice(&owner[..4]);
    for round in 0..rounds {
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(&step).unwrap();
        let payload = read_frame(&mut stream, 1 << 20)
            .unwrap_or_else(|e| panic!("round {round}: {e}"))
            .unwrap_or_else(|| panic!("round {round}: server closed"));
        let resp = Response::decode(&payload).unwrap();
        assert!(
            matches!(resp, Response::Owner(_)),
            "round {round} of {rounds} answered with {resp:?}"
        );
    }
    assert_eq!(server.stats().evicted_slow, 0);
    server.shutdown();
}

/// A frame that never completes cannot buy time by trickling bytes: fed
/// one byte every 15 ms for three seconds, it still dies by the request
/// deadline, timed from its first byte, long before the drip ends.
#[test]
fn drip_fed_frame_is_evicted_by_the_deadline() {
    let deadline = Duration::from_millis(200);
    let server = epoll_server(ServeConfig {
        workers: 1,
        request_deadline: deadline,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    // A 256-byte frame of which at most 196 payload bytes are ever sent.
    let mut drip = vec![0u8, 0, 1, 0];
    drip.resize(200, 0xAB);
    let start = Instant::now();
    let closed = Arc::new(AtomicBool::new(false));
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        let closed = Arc::clone(&closed);
        std::thread::spawn(move || {
            for b in drip {
                if closed.load(Ordering::SeqCst) || stream.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(15));
            }
        })
    };
    let mut received = Vec::new();
    let mut buf = [0u8; 64];
    while start.elapsed() < Duration::from_secs(5) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break, // a reset after the close
        }
    }
    let evicted_after = start.elapsed();
    closed.store(true, Ordering::SeqCst);
    writer.join().unwrap();
    assert!(
        evicted_after >= deadline && evicted_after < 10 * deadline,
        "drip feed closed after {evicted_after:?}"
    );
    if !received.is_empty() {
        let goodbye = read_frame(&mut received.as_slice(), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(
            Response::decode(&goodbye).unwrap(),
            Response::Error("request deadline exceeded".to_string())
        );
    }
    assert_eq!(server.stats().evicted_slow, 1);
    server.shutdown();
}

/// A slow loris that also never reads is evicted once. Its goodbye
/// queues behind answers the peer will not drain, so the write
/// deadline, not a second request-deadline eviction, closes it.
#[test]
fn unread_slow_loris_is_evicted_once() {
    let (request_deadline, write_deadline) =
        (Duration::from_millis(200), Duration::from_millis(300));
    let server = epoll_server(ServeConfig {
        workers: 1,
        max_inflight: 4096,
        request_deadline,
        write_deadline,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Each Metrics answer is kilobytes long; 2000 unread ones overflow
    // both socket buffers, so the rest queue inside the loop.
    let metrics = frame(&Request::Metrics.encode());
    let mut burst = metrics.repeat(2000);
    burst.extend_from_slice(&[0, 0]); // then half a length prefix
    stream.write_all(&burst).unwrap();
    let give_up = Instant::now() + Duration::from_secs(5);
    while server.stats().evicted_slow == 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Two more write deadlines: long enough to close it, and for a
    // re-eviction to show.
    std::thread::sleep(2 * write_deadline);
    assert_eq!(server.stats().evicted_slow, 1);
    drop(stream);
    server.shutdown();
}

/// EOF in the middle of a frame: the complete frame before it is
/// answered, then the server closes with nothing further, and the
/// truncated frame counts as neither eviction.
#[test]
fn mid_frame_eof_answers_complete_frames_then_closes() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let owner = frame(&queries_for_map(&map(1))[0].encode());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&frame(&Request::Stats.encode())).unwrap();
    stream.write_all(&owner[..5]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Stats(_)
    ));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    let after = server.stats();
    assert_eq!((after.evicted_slow, after.evicted_flood), (0, 0));
    server.shutdown();
}

/// TCP half-close (shutdown(Write) → EPOLLRDHUP): queries written
/// before the half-close are still answered, then the server closes.
#[test]
fn half_close_answers_buffered_queries_then_closes() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let m = map(1);
    let queries = queries_for_map(&m);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for q in queries.iter().take(3) {
        write_frame(&mut stream, &q.encode()).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for _ in 0..3 {
        let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        let resp = Response::decode(&payload).unwrap();
        assert!(
            !matches!(resp, Response::Error(_) | Response::Overload),
            "buffered query answered with {resp:?}"
        );
    }
    // After the last answer the server closes its side too: clean EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    server.shutdown();
}

/// The idle guarantee the timer wheel buys: a server with only idle
/// keepalive connections does zero proto work between ticks. Counters,
/// not timing — reads and frames stay flat while idle, then move again
/// once a query arrives.
#[test]
fn idle_connections_cost_zero_proto_work() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // Park some idle connections; complete one round trip each so the
    // server has definitely finished admitting and reading them.
    let m = map(1);
    let q = &queries_for_map(&m)[0];
    let mut idle = Vec::new();
    for _ in 0..8 {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut s, &q.encode()).unwrap();
        let _ = read_frame(&mut s, 1 << 20).unwrap().unwrap();
        idle.push(s);
    }
    let flat = |text: &str, name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    let before = server.metrics();
    std::thread::sleep(Duration::from_millis(400));
    let after = server.metrics();
    for name in ["bdrmapd_loop_reads_total", "bdrmapd_loop_frames_total"] {
        assert_eq!(
            flat(&before, name),
            flat(&after, name),
            "{name} moved while every connection was idle"
        );
    }
    // Liveness check on the counters themselves: traffic moves them.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut s, &q.encode()).unwrap();
    let _ = read_frame(&mut s, 1 << 20).unwrap().unwrap();
    let busy = server.metrics();
    assert!(
        flat(&busy, "bdrmapd_loop_frames_total") > flat(&after, "bdrmapd_loop_frames_total"),
        "frame counter failed to move under traffic"
    );
    drop(idle);
    server.shutdown();
}

/// Admission control: opening more connections than `workers + queue`
/// gets the surplus an Overload frame.
#[test]
fn connections_past_the_budget_are_shed() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        queue: 2,
        ..ServeConfig::default()
    });
    // budget = workers + queue = 3: hold three open, the fourth sheds.
    let held: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    // Admission is asynchronous to connect; give the loop a beat.
    std::thread::sleep(Duration::from_millis(100));
    let mut extra = TcpStream::connect(server.local_addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = read_frame(&mut extra, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Overload
    ));
    drop(held);
    server.shutdown();
}

/// Scale-mode loadgen smoke: a few hundred connections (half idle
/// ballast, half pipelined) against the loops, with the hard
/// invariants the big benchmark enforces — no acked query lost, no
/// idle connection evicted.
#[test]
fn scale_loadgen_smoke_holds_invariants() {
    let server = epoll_server(ServeConfig {
        workers: 2,
        queue: 512,
        ..ServeConfig::default()
    });
    let m = map(1);
    let report = loadgen::run_scale(
        server.local_addr(),
        &queries_for_map(&m),
        &ScaleConfig {
            connections: 256,
            idle_frac: 0.5,
            duration: Duration::from_millis(800),
            pipeline: 4,
        },
    )
    .unwrap();
    assert_eq!(report.idle_conns, 128);
    assert_eq!(report.active_conns, 128);
    assert_eq!(report.lost, 0, "acked queries lost: {report:?}");
    assert_eq!(report.idle_evicted, 0, "idle ballast evicted: {report:?}");
    assert_eq!(report.connect_failures, 0);
    assert!(report.queries_ok > 0, "no queries served: {report:?}");
    let stats = server.loop_stats();
    assert_eq!(stats.len(), 2, "one LoopStat per event loop");
    assert!(
        stats.iter().map(|l| l.accepts).sum::<u64>() >= 256,
        "loops under-reported accepts: {stats:?}"
    );
    server.shutdown();
}

/// The plain-HTTP metrics endpoint, served from loop 0 of the same
/// readiness loop: GET /metrics renders, non-GET is 405, one request
/// per connection.
#[test]
fn http_metrics_endpoint_serves_scrapes() {
    let server = epoll_server(ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = server.metrics_addr().expect("metrics listener configured");
    // Generate one query so a request counter exists.
    let m = map(1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let _ = client.call(&queries_for_map(&m)[0]).unwrap();

    let fetch = |request: &str| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    let ok = fetch("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ok}");
    assert!(ok.contains("bdrmapd_requests_total"), "got: {ok}");
    assert!(ok.contains("Connection: close"));

    let nope = fetch("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(nope.starts_with("HTTP/1.1 405 "), "got: {nope}");
    assert!(nope.contains("Allow: GET"));

    let missing = fetch("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404 "), "got: {missing}");
    server.shutdown();
}
