//! Closed-loop load generator for bdrmapd.
//!
//! Each connection is a thread that sends one request, waits for the
//! response, records the round-trip latency, and immediately sends the
//! next — classic closed-loop load, so offered QPS is bounded by server
//! latency rather than a target rate. The query mix round-robins over a
//! set derived from the border map being served (every router address,
//! every link interface, every neighbor AS), touching all three read
//! paths.
//!
//! Optionally, half-way through the run a control connection fires a
//! `Reload`, measuring snapshot build, publish (swap), and end-to-end
//! round-trip times while the query threads keep hammering — the
//! experiment behind the "zero lost queries across a hot swap" claim.
//!
//! Two adversarial modes exercise the server's robustness layers under
//! real load:
//!
//! - `corrupt_rate` makes each connection occasionally replace a valid
//!   request payload with a seeded deterministic mutation (bit flip,
//!   truncation, garbage opcode). The server must answer every one with
//!   a well-formed `Error` frame — never a hang, close, or panic — and
//!   the report counts how many survived that way.
//! - `stall_conns` opens connections that send two bytes of a frame
//!   header and then go silent: textbook slow loris. The report counts
//!   how many the server evicted, and the healthy connections' p99 in
//!   the same run shows the stalls didn't slow the loops serving them.

use crate::proto::{Request, Response};
use crate::server::Client;
use bdrmap_core::BorderMap;
use bdrmap_types::splitmix64;
use bdrmap_types::wire::{read_frame, write_frame, MAX_FRAME};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator tunables.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop connections.
    pub conns: usize,
    /// How long to run.
    pub duration: Duration,
    /// Snapshot file to `Reload` half-way through the run (measures
    /// hot-swap behaviour under load).
    pub reload_with: Option<PathBuf>,
    /// Probability (0..=1) that a request is replaced by a corrupted
    /// frame payload.
    pub corrupt_rate: f64,
    /// Seed for the corruption RNG; same seed, same hostile bytes.
    pub corrupt_seed: u64,
    /// Extra connections that stall mid-frame-header (slow loris) and
    /// wait to be evicted.
    pub stall_conns: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            conns: 4,
            duration: Duration::from_secs(2),
            reload_with: None,
            corrupt_rate: 0.0,
            corrupt_seed: 0xb0d4_c0de,
            stall_conns: 0,
        }
    }
}

/// What the mid-run reload reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReloadStats {
    /// Client-observed request round trip, microseconds.
    pub round_trip_us: u64,
    /// Server-side index build time, microseconds.
    pub build_us: u64,
    /// Server-side publish (pointer swap + retire) time, microseconds.
    pub swap_us: u64,
    /// Generation after the swap.
    pub generation: u64,
}

/// Aggregated results of one load-generator run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Connections used.
    pub conns: usize,
    /// Wall-clock run time in seconds.
    pub duration_s: f64,
    /// Queries answered `Ok`/`NotFound` with a well-formed payload.
    pub queries_ok: u64,
    /// Subset of `queries_ok` that were `Owner` lookups. The per-opcode
    /// split lets CI cross-check the server's own
    /// `bdrmapd_requests_total{op=...}` counters against what this
    /// closed-loop client actually got answered: on a clean run
    /// (`queries_shed == 0 && queries_error == 0`, no corruption) the
    /// two tallies must match exactly.
    pub ok_owner: u64,
    /// Subset of `queries_ok` that were `Border` lookups.
    pub ok_border: u64,
    /// Subset of `queries_ok` that were `Neighbor` lookups.
    pub ok_neighbor: u64,
    /// Subset of `queries_ok` whose answer was "not found".
    pub queries_not_found: u64,
    /// Connections shed by the server's overload path.
    pub queries_shed: u64,
    /// Protocol or transport failures (a lost in-flight query).
    pub queries_error: u64,
    /// Successful queries per second.
    pub qps: f64,
    /// Latency percentiles over successful queries, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: u64,
    /// Corrupted frames deliberately sent.
    pub corrupt_sent: u64,
    /// Corrupted frames the server answered with a well-formed frame
    /// (an `Error` for malformed payloads, a normal answer when the
    /// mutation happened to stay valid) — the only acceptable outcome.
    pub corrupt_survived: u64,
    /// Slow-loris connections opened.
    pub stalled: u64,
    /// Slow-loris connections the server evicted before the run ended.
    pub stalled_evicted: u64,
    /// Mid-run reload measurements, when one was requested.
    pub reload: Option<ReloadStats>,
}

impl LoadReport {
    /// Stable JSON schema for `BENCH_serve.json`; keys are fixed so CI
    /// and trend tooling can grep/diff across revisions. Schema 2 adds
    /// the hostile-input counters; every schema-1 key is unchanged.
    /// The per-opcode `ok_*` split is deliberately *not* serialized:
    /// it exists for the metrics cross-check on stdout, and the bench
    /// schema stays byte-identical.
    pub fn to_json(&self) -> String {
        let reload = match &self.reload {
            Some(r) => format!(
                "{{\"round_trip_us\": {}, \"build_us\": {}, \"swap_us\": {}, \"generation\": {}}}",
                r.round_trip_us, r.build_us, r.swap_us, r.generation
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"schema\": 2,\n  \"conns\": {},\n  \"duration_s\": {:.3},\n  \"queries_ok\": {},\n  \"queries_not_found\": {},\n  \"queries_shed\": {},\n  \"queries_error\": {},\n  \"qps\": {:.1},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \"p999_us\": {},\n  \"corrupt_sent\": {},\n  \"corrupt_survived\": {},\n  \"stalled\": {},\n  \"stalled_evicted\": {},\n  \"reload\": {}\n}}\n",
            self.conns,
            self.duration_s,
            self.queries_ok,
            self.queries_not_found,
            self.queries_shed,
            self.queries_error,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.corrupt_sent,
            self.corrupt_survived,
            self.stalled,
            self.stalled_evicted,
            reload
        )
    }

    /// Write the JSON report atomically.
    pub fn write_json(&self, path: &std::path::Path) -> io::Result<()> {
        bdrmap_types::fsutil::write_atomic(path, self.to_json().as_bytes())
    }
}

/// Derive a mixed query set from a border map: one `Owner` per router
/// interface, one `Border` per link interface, one `Neighbor` per
/// distinct far AS. Round-robining over it exercises all three read
/// paths in proportion to the map's own shape.
pub fn queries_for_map(map: &BorderMap) -> Vec<Request> {
    let mut queries = Vec::new();
    for router in &map.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            queries.push(Request::Owner(a));
        }
    }
    let mut neighbors = Vec::new();
    for link in &map.links {
        for a in [link.near_addr, link.far_addr].into_iter().flatten() {
            queries.push(Request::Border(a));
        }
        neighbors.push(link.far_as);
    }
    neighbors.sort_unstable();
    neighbors.dedup();
    queries.extend(neighbors.into_iter().map(Request::Neighbor));
    queries
}

/// Nearest-rank percentile over an ascending-sorted latency vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Tally {
    ok: AtomicU64,
    ok_owner: AtomicU64,
    ok_border: AtomicU64,
    ok_neighbor: AtomicU64,
    not_found: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    corrupt_sent: AtomicU64,
    corrupt_survived: AtomicU64,
    stalled: AtomicU64,
    stalled_evicted: AtomicU64,
}

/// Deterministically mangle a valid request payload. The frame header
/// stays well-formed so the bytes reach the protocol decoder, which is
/// the layer under test.
fn corrupt_payload(payload: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    match splitmix64(rng) % 3 {
        0 => {
            // Flip one bit somewhere.
            let i = (splitmix64(rng) as usize) % bytes.len().max(1);
            let bit = (splitmix64(rng) % 8) as u8;
            if bytes.is_empty() {
                bytes.push(1 << bit);
            } else {
                bytes[i] ^= 1 << bit;
            }
        }
        1 => {
            // Truncate to a strict prefix (possibly empty).
            let keep = (splitmix64(rng) as usize) % bytes.len().max(1);
            bytes.truncate(keep);
        }
        _ => {
            // Garbage opcode, valid-looking tail.
            if bytes.is_empty() {
                bytes.push(0);
            }
            bytes[0] = 200u8.wrapping_add((splitmix64(rng) % 55) as u8);
        }
    }
    bytes
}

/// One closed-loop connection: query until the deadline, reconnecting
/// (and counting a shed) whenever the server's overload path drops us.
/// With a nonzero corrupt rate, some requests are replaced by hostile
/// frames that must come back as well-formed `Error` responses.
fn drive(
    addr: SocketAddr,
    queries: &[Request],
    offset: usize,
    deadline: Instant,
    tally: &Tally,
    corrupt_rate: f64,
    mut rng: u64,
) -> Vec<u64> {
    let mut latencies = Vec::new();
    let mut i = offset;
    'reconnect: while Instant::now() < deadline {
        let mut client = match Client::connect(&addr) {
            Ok(c) => c,
            Err(_) => {
                tally.errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        while Instant::now() < deadline {
            let req = &queries[i % queries.len()];
            i += 1;
            if corrupt_rate > 0.0 && (splitmix64(&mut rng) as f64 / u64::MAX as f64) < corrupt_rate
            {
                // Hostile path: mangled payload under a valid frame.
                let mangled = corrupt_payload(&req.encode(), &mut rng);
                tally.corrupt_sent.fetch_add(1, Ordering::Relaxed);
                let outcome = write_frame(client.stream_mut(), &mangled)
                    .and_then(|()| read_frame(client.stream_mut(), MAX_FRAME));
                match outcome {
                    Ok(Some(payload)) => {
                        // Some mutations still decode as valid requests
                        // (a flipped address bit, say); survival means
                        // a well-formed response of *any* kind came
                        // back and the connection is still usable.
                        if Response::decode(&payload).is_ok() {
                            tally.corrupt_survived.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A close or transport error is a lost connection,
                    // not a survival; reconnect and keep going.
                    Ok(None) | Err(_) => continue 'reconnect,
                }
                continue;
            }
            let start = Instant::now();
            match client.call(req) {
                Ok(Response::Overload) => {
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                    continue 'reconnect;
                }
                Ok(Response::Error(_)) => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                }
                Ok(resp) if resp.answers(req) => {
                    latencies.push(start.elapsed().as_micros() as u64);
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    let per_op = match req {
                        Request::Owner(_) => Some(&tally.ok_owner),
                        Request::Border(_) => Some(&tally.ok_border),
                        Request::Neighbor(_) => Some(&tally.ok_neighbor),
                        _ => None,
                    };
                    if let Some(c) = per_op {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                    if matches!(resp, Response::Owner(None) | Response::Border(None)) {
                        tally.not_found.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(_) => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                    continue 'reconnect;
                }
            }
        }
        break;
    }
    latencies
}

/// One slow-loris connection: two bytes of a frame header, then
/// silence. Returns once the server closes the socket (an eviction) or
/// the grace deadline passes (not evicted — a robustness failure the
/// report surfaces).
fn stall(addr: SocketAddr, grace_deadline: Instant, tally: &Tally) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    tally.stalled.fetch_add(1, Ordering::Relaxed);
    if stream.write_all(&[0, 0]).is_err() {
        // Closed before we even stalled: still an eviction.
        tally.stalled_evicted.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut byte = [0u8; 16];
    while Instant::now() < grace_deadline {
        match stream.read(&mut byte) {
            // Server closed us (clean EOF) or reset us: evicted.
            Ok(0) => {
                tally.stalled_evicted.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Ok(_) => {
                // An Error frame before the close also counts; keep
                // reading until the close lands.
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => {
                tally.stalled_evicted.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Run the load generator against a live server.
pub fn run(addr: SocketAddr, queries: &[Request], cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    if queries.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "empty query set: the border map has no routers or links",
        ));
    }
    let tally = Arc::new(Tally {
        ok: AtomicU64::new(0),
        ok_owner: AtomicU64::new(0),
        ok_border: AtomicU64::new(0),
        ok_neighbor: AtomicU64::new(0),
        not_found: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        corrupt_sent: AtomicU64::new(0),
        corrupt_survived: AtomicU64::new(0),
        stalled: AtomicU64::new(0),
        stalled_evicted: AtomicU64::new(0),
    });
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut handles = Vec::new();
    for c in 0..cfg.conns.max(1) {
        let queries = queries.to_vec();
        let tally = Arc::clone(&tally);
        let rate = cfg.corrupt_rate.clamp(0.0, 1.0);
        let seed = cfg.corrupt_seed ^ (c as u64).wrapping_mul(0x9e37_79b9);
        handles.push(std::thread::spawn(move || {
            drive(addr, &queries, c * 7919, deadline, &tally, rate, seed)
        }));
    }
    // Stall threads get a grace window past the main deadline so an
    // eviction landing near the end is still observed.
    let mut stall_handles = Vec::new();
    let grace_deadline = deadline + Duration::from_secs(2);
    for _ in 0..cfg.stall_conns {
        let tally = Arc::clone(&tally);
        stall_handles.push(std::thread::spawn(move || {
            stall(addr, grace_deadline, &tally)
        }));
    }
    let reload = match &cfg.reload_with {
        Some(path) => {
            // Fire the hot swap once the pool has warmed up.
            std::thread::sleep(cfg.duration / 2);
            let mut client = Client::connect(&addr)?;
            let req = Request::Reload(path.display().to_string());
            let rt_start = Instant::now();
            match client.call(&req)? {
                Response::Reloaded {
                    generation,
                    build_us,
                    swap_us,
                    ..
                } => Some(ReloadStats {
                    round_trip_us: rt_start.elapsed().as_micros() as u64,
                    build_us,
                    swap_us,
                    generation,
                }),
                Response::Error(msg) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg))
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reload response: {other:?}"),
                    ))
                }
            }
        }
        None => None,
    };
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().unwrap_or_default());
    }
    for h in stall_handles {
        let _ = h.join();
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let ok = tally.ok.load(Ordering::Relaxed);
    Ok(LoadReport {
        conns: cfg.conns.max(1),
        duration_s: elapsed,
        queries_ok: ok,
        ok_owner: tally.ok_owner.load(Ordering::Relaxed),
        ok_border: tally.ok_border.load(Ordering::Relaxed),
        ok_neighbor: tally.ok_neighbor.load(Ordering::Relaxed),
        queries_not_found: tally.not_found.load(Ordering::Relaxed),
        queries_shed: tally.shed.load(Ordering::Relaxed),
        queries_error: tally.errors.load(Ordering::Relaxed),
        qps: if elapsed > 0.0 {
            ok as f64 / elapsed
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        corrupt_sent: tally.corrupt_sent.load(Ordering::Relaxed),
        corrupt_survived: tally.corrupt_survived.load(Ordering::Relaxed),
        stalled: tally.stalled.load(Ordering::Relaxed),
        stalled_evicted: tally.stalled_evicted.load(Ordering::Relaxed),
        reload,
    })
}

// ---- high-connection scale mode -------------------------------------
//
// The closed-loop generator above spends a thread per connection; at
// tens of thousands of connections that is exactly the architecture the
// server's epoll loops exist to avoid. The scale mode drives the same
// protocol from a single epoll loop on the client side: a configurable
// fraction of connections sit idle as keepalive ballast while the rest
// run pipelined closed-loop queries.

/// Scale-mode tunables (`loadgen --connections N --idle-frac F`).
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Total concurrent connections to hold open.
    pub connections: usize,
    /// Fraction (0..=1) of connections that stay idle after connecting:
    /// pure keepalive ballast the server must carry for free.
    pub idle_frac: f64,
    /// How long the active connections keep querying.
    pub duration: Duration,
    /// Frames in flight per active connection (pipelining depth).
    pub pipeline: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            connections: 1000,
            idle_frac: 0.5,
            duration: Duration::from_secs(5),
            pipeline: 4,
        }
    }
}

/// One event loop's counters as reported in `BENCH_serve_scale.json`
/// (mirrors [`crate::server::LoopStat`], owned here so the report can
/// serialize without a live server handle).
#[derive(Clone, Debug, Default)]
pub struct ScaleLoopStat {
    /// Loop index.
    pub index: usize,
    /// `epoll_wait` returns.
    pub wakeups: u64,
    /// Readiness events dispatched.
    pub events: u64,
    /// Socket reads issued.
    pub reads: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Vectored writes issued.
    pub writevs: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Median events per non-empty wakeup.
    pub batch_p50: u64,
    /// p99 events per non-empty wakeup.
    pub batch_p99: u64,
}

/// Results of one scale-mode run.
#[derive(Clone, Debug, Default)]
pub struct ScaleReport {
    /// Connections requested.
    pub connections: usize,
    /// Connections running closed-loop queries.
    pub active_conns: usize,
    /// Connections parked as keepalive ballast.
    pub idle_conns: usize,
    /// Wall-clock run time in seconds.
    pub duration_s: f64,
    /// Queries answered with a well-formed non-error response.
    pub queries_ok: u64,
    /// Successful queries per second.
    pub qps: f64,
    /// Latency percentiles over successful queries, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: u64,
    /// Queries lost after being acked: the connection had received
    /// responses, then died with queries still in flight. Must be 0.
    pub lost: u64,
    /// In-flight queries on connections the server never served
    /// (shed at admission, or still queued at shutdown). Not losses:
    /// nothing on these connections was ever acknowledged.
    pub unadmitted: u64,
    /// Connections the server shed with an `Overload` frame.
    pub shed_conns: u64,
    /// Idle connections the server closed before the deadline. Must be
    /// 0: idle keepalive ballast is not evictable load.
    pub idle_evicted: u64,
    /// TCP connects that failed outright.
    pub connect_failures: u64,
    /// Per-event-loop server counters (filled by the caller, who holds
    /// the server handle; empty when driving a remote server).
    pub loops: Vec<ScaleLoopStat>,
}

impl ScaleReport {
    /// Stable JSON schema for `BENCH_serve_scale.json`.
    pub fn to_json(&self) -> String {
        let loops = self
            .loops
            .iter()
            .map(|l| {
                format!(
                    "    {{\"loop\": {}, \"wakeups\": {}, \"events\": {}, \"reads\": {}, \
                     \"frames\": {}, \"writevs\": {}, \"accepts\": {}, \"batch_p50\": {}, \
                     \"batch_p99\": {}}}",
                    l.index,
                    l.wakeups,
                    l.events,
                    l.reads,
                    l.frames,
                    l.writevs,
                    l.accepts,
                    l.batch_p50,
                    l.batch_p99
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let loops = if loops.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{loops}\n  ]")
        };
        format!(
            "{{\n  \"bench\": \"serve_scale\",\n  \"schema\": 1,\n  \
             \"connections\": {},\n  \"active_conns\": {},\n  \"idle_conns\": {},\n  \
             \"duration_s\": {:.3},\n  \"queries_ok\": {},\n  \"qps\": {:.1},\n  \
             \"p50_us\": {},\n  \"p99_us\": {},\n  \"p999_us\": {},\n  \"lost\": {},\n  \
             \"unadmitted\": {},\n  \"shed_conns\": {},\n  \"idle_evicted\": {},\n  \
             \"connect_failures\": {},\n  \"loops\": {}\n}}\n",
            self.connections,
            self.active_conns,
            self.idle_conns,
            self.duration_s,
            self.queries_ok,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.lost,
            self.unadmitted,
            self.shed_conns,
            self.idle_evicted,
            self.connect_failures,
            loops
        )
    }

    /// Write the JSON report atomically.
    pub fn write_json(&self, path: &std::path::Path) -> io::Result<()> {
        bdrmap_types::fsutil::write_atomic(path, self.to_json().as_bytes())
    }
}

/// Client-side state for one scale-mode connection.
#[cfg(target_os = "linux")]
struct ScaleConn {
    stream: TcpStream,
    idle: bool,
    /// Send timestamps of in-flight requests, oldest first.
    pending: std::collections::VecDeque<Instant>,
    inbuf: crate::conn::FrameBuf,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Registered epoll interest bits.
    interest: u32,
    /// Responses received on this connection (0 = never admitted).
    recvd: u64,
    /// The server shed us with an Overload frame.
    shed: bool,
    dead: bool,
    /// Next query index for this connection's round-robin.
    qi: usize,
}

/// Drive a server at high connection counts from one epoll loop.
///
/// `connections × idle_frac` connections park as keepalive ballast; the
/// rest run `pipeline`-deep closed-loop queries until the deadline,
/// then a grace window collects in-flight responses. The returned
/// report distinguishes hard failures (acked-then-lost queries, evicted
/// idle connections) from admission-control outcomes (shed, unadmitted)
/// that are correct behaviour for an overloaded server.
#[cfg(target_os = "linux")]
pub fn run_scale(
    addr: SocketAddr,
    queries: &[Request],
    cfg: &ScaleConfig,
) -> io::Result<ScaleReport> {
    use bdrmap_types::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

    if queries.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "empty query set: the border map has no routers or links",
        ));
    }
    let connections = cfg.connections.max(1);
    let idle_target = ((connections as f64) * cfg.idle_frac.clamp(0.0, 1.0)) as usize;
    let pipeline = cfg.pipeline.max(1);
    // Each connection needs a client-side fd (the caller's in-process
    // server doubles that); headroom for listeners and stdio.
    let _ = bdrmap_types::sys::ensure_nofile((connections as u64) * 2 + 512);

    let ep = Epoll::new()?;
    let mut conns: Vec<ScaleConn> = Vec::with_capacity(connections);
    let mut connect_failures = 0u64;
    for c in 0..connections {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                // One paced retry: a full listen backlog mid-storm is
                // transient while the server's accept loop catches up.
                std::thread::sleep(Duration::from_millis(10));
                match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => {
                        connect_failures += 1;
                        continue;
                    }
                }
            }
        };
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idle = c < idle_target;
        let tok = conns.len() as u64;
        use std::os::unix::io::AsRawFd;
        ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, tok)?;
        conns.push(ScaleConn {
            stream,
            idle,
            pending: std::collections::VecDeque::new(),
            inbuf: crate::conn::FrameBuf::new(MAX_FRAME, pipeline * 2 + 8),
            outbuf: Vec::new(),
            outpos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            recvd: 0,
            shed: false,
            dead: false,
            qi: c.wrapping_mul(7919),
        });
    }

    let mut ok = 0u64;
    let mut lost = 0u64;
    let mut unadmitted = 0u64;
    let mut shed_conns = 0u64;
    let mut idle_evicted = 0u64;
    let mut latencies: Vec<u64> = Vec::new();

    let enqueue = |conn: &mut ScaleConn, queries: &[Request]| {
        let req = &queries[conn.qi % queries.len()];
        conn.qi = conn.qi.wrapping_add(1);
        let payload = req.encode();
        conn.outbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        conn.outbuf.extend_from_slice(&payload);
        conn.pending.push_back(Instant::now());
    };

    // Prime the pipelines.
    for conn in conns.iter_mut().filter(|c| !c.idle) {
        for _ in 0..pipeline {
            enqueue(conn, queries);
        }
    }

    let start = Instant::now();
    let deadline = start + cfg.duration;
    let grace = deadline + Duration::from_secs(2);
    let mut events = vec![EpollEvent::default(); 1024];
    loop {
        let now = Instant::now();
        if now >= grace {
            break;
        }
        let in_flight = conns.iter().any(|c| !c.dead && !c.pending.is_empty());
        let writable = conns.iter().any(|c| !c.dead && c.outpos < c.outbuf.len());
        if now >= deadline && !in_flight && !writable {
            break;
        }
        // Flush pass: push queued request bytes until the kernel pushes
        // back, then lean on EPOLLOUT.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead || conn.outpos >= conn.outbuf.len() {
                continue;
            }
            loop {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outpos += n;
                        if conn.outpos >= conn.outbuf.len() {
                            conn.outbuf.clear();
                            conn.outpos = 0;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let want = if conn.outpos < conn.outbuf.len() {
                EPOLLIN | EPOLLRDHUP | EPOLLOUT
            } else {
                EPOLLIN | EPOLLRDHUP
            };
            if !conn.dead && want != conn.interest {
                use std::os::unix::io::AsRawFd;
                conn.interest = want;
                let _ = ep.modify(conn.stream.as_raw_fd(), want, i as u64);
            }
        }
        let n = ep.wait(&mut events, 25)?;
        for e in events.iter().take(n) {
            let idx = e.data as usize;
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            // Read everything available, then classify the frames.
            let mut eof = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(nread) => conn.inbuf.push(&chunk[..nread]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            let frames = conn.inbuf.extract().unwrap_or_default();
            for payload in frames {
                match Response::decode(&payload) {
                    Ok(Response::Overload) if conn.recvd == 0 => {
                        // Shed at admission: nothing was ever acked.
                        conn.shed = true;
                        shed_conns += 1;
                        unadmitted += conn.pending.len() as u64;
                        conn.pending.clear();
                    }
                    Ok(Response::Error(_)) | Err(_) => {
                        // Goodbye/error frame: the in-flight query it
                        // answers is gone, but it was never acked.
                        if conn.pending.pop_front().is_some() {
                            unadmitted += 1;
                        }
                    }
                    Ok(_) => {
                        if let Some(sent) = conn.pending.pop_front() {
                            latencies.push(sent.elapsed().as_micros() as u64);
                            ok += 1;
                            conn.recvd += 1;
                            if Instant::now() < deadline {
                                enqueue(conn, queries);
                            }
                        }
                    }
                }
            }
            if eof {
                conn.dead = true;
                let in_flight = conn.pending.len() as u64;
                if conn.idle {
                    // A shed connection's close is admission control
                    // (already counted in shed_conns), not an eviction
                    // of admitted idle ballast.
                    if !conn.shed && Instant::now() < deadline {
                        idle_evicted += 1;
                    }
                } else if in_flight > 0 {
                    if conn.recvd > 0 {
                        // The server served this connection, then
                        // dropped acked queries: a hard failure.
                        lost += in_flight;
                    } else {
                        unadmitted += in_flight;
                    }
                }
                conn.pending.clear();
            }
        }
    }
    // Whatever is still pending after the grace window on a live,
    // previously-served connection counts as lost.
    for conn in &conns {
        if conn.dead || conn.pending.is_empty() {
            continue;
        }
        if conn.recvd > 0 {
            lost += conn.pending.len() as u64;
        } else {
            unadmitted += conn.pending.len() as u64;
        }
    }
    let elapsed = start
        .elapsed()
        .as_secs_f64()
        .min(cfg.duration.as_secs_f64());
    latencies.sort_unstable();
    Ok(ScaleReport {
        connections,
        active_conns: conns.iter().filter(|c| !c.idle).count(),
        idle_conns: conns.iter().filter(|c| c.idle).count(),
        duration_s: elapsed,
        queries_ok: ok,
        qps: if elapsed > 0.0 {
            ok as f64 / elapsed
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        lost,
        unadmitted,
        shed_conns,
        idle_evicted,
        connect_failures,
        loops: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
    }

    /// Pins the nearest-rank edge-case semantics: rank is
    /// `ceil(len * q)` clamped to `1..=len`, so `q = 0.0` is the
    /// minimum, `q = 1.0` the maximum, and any quantile of fewer
    /// samples than its resolution (p999 of < 1000) lands on the
    /// maximum rather than interpolating past the data.
    #[test]
    fn percentile_edge_cases() {
        // Empty input: defined as 0 for every q.
        assert_eq!(percentile(&[], 0.0), 0);
        assert_eq!(percentile(&[], 1.0), 0);
        assert_eq!(percentile(&[], 0.999), 0);
        // A single sample answers every quantile.
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 0.5), 42);
        assert_eq!(percentile(&[42], 1.0), 42);
        // q = 0.0 gives rank 0, clamped up to rank 1: the minimum.
        assert_eq!(percentile(&[3, 8, 20], 0.0), 3);
        // q = 1.0 gives rank = len exactly: the maximum.
        assert_eq!(percentile(&[3, 8, 20], 1.0), 20);
        // p999 with fewer than 1000 samples: ceil rounds the rank up
        // to len, so the answer is the maximum, never out of bounds.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.999), 100);
        assert_eq!(percentile(&[5, 6], 0.999), 6);
        // Duplicate maxima: the tied value is returned for every rank
        // that lands in the run of duplicates.
        let dup = [1, 2, 9, 9, 9];
        assert_eq!(percentile(&dup, 1.0), 9);
        assert_eq!(percentile(&dup, 0.999), 9);
        assert_eq!(percentile(&dup, 0.5), 9); // rank ceil(2.5) = 3
        assert_eq!(percentile(&dup, 0.4), 2); // rank 2
    }

    /// The same nearest-rank semantics must hold for the observability
    /// histogram. `Histogram::quantile` uses the identical rank rule,
    /// and its bucket mapping is monotonic, so for every input the
    /// histogram answer is exactly the upper bucket bound of the exact
    /// nearest-rank answer:
    /// `hist.quantile(q) == Histogram::bucket_bound(percentile(v, q))`.
    #[test]
    fn histogram_quantile_matches_percentile_semantics() {
        use bdrmap_obs::Histogram;
        let cases: &[&[u64]] = &[
            &[],
            &[42],
            &[3, 8, 20],
            &[5, 6],
            &[1, 2, 9, 9, 9],
            &[0, 0, 0, 1],
            &[1, 1_000, 1_000_000, u64::MAX],
        ];
        let hundred: Vec<u64> = (1..=100).collect();
        for samples in cases.iter().copied().chain([hundred.as_slice()]) {
            let hist = Histogram::new();
            for &s in samples {
                hist.record(s);
            }
            for q in [0.0, 0.4, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(
                    hist.quantile(q),
                    Histogram::bucket_bound(percentile(samples, q)),
                    "samples {samples:?} q {q}"
                );
            }
        }
    }

    #[test]
    fn report_json_is_stable() {
        let report = LoadReport {
            conns: 4,
            duration_s: 2.0,
            queries_ok: 1000,
            ok_owner: 500,
            ok_border: 300,
            ok_neighbor: 200,
            queries_not_found: 10,
            queries_shed: 1,
            queries_error: 0,
            qps: 500.0,
            p50_us: 12,
            p99_us: 90,
            p999_us: 400,
            corrupt_sent: 50,
            corrupt_survived: 50,
            stalled: 2,
            stalled_evicted: 2,
            reload: Some(ReloadStats {
                round_trip_us: 1500,
                build_us: 1200,
                swap_us: 20,
                generation: 2,
            }),
        };
        let json = report.to_json();
        for key in [
            "\"bench\": \"serve\"",
            "\"schema\": 2",
            "\"queries_ok\": 1000",
            "\"queries_shed\": 1",
            "\"qps\": 500.0",
            "\"p999_us\": 400",
            "\"corrupt_sent\": 50",
            "\"corrupt_survived\": 50",
            "\"stalled\": 2",
            "\"stalled_evicted\": 2",
            "\"swap_us\": 20",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The per-opcode split is stdout-only; the bench schema must
        // not grow keys.
        assert!(!json.contains("ok_owner"), "per-op counts leaked into JSON");
        let none = LoadReport::default().to_json();
        assert!(none.contains("\"reload\": null"));
    }

    #[test]
    fn scale_report_json_is_stable() {
        let report = ScaleReport {
            connections: 20000,
            active_conns: 10000,
            idle_conns: 10000,
            duration_s: 10.0,
            queries_ok: 123456,
            qps: 12345.6,
            p50_us: 40,
            p99_us: 900,
            p999_us: 4000,
            lost: 0,
            unadmitted: 3,
            shed_conns: 1,
            idle_evicted: 0,
            connect_failures: 0,
            loops: vec![ScaleLoopStat {
                index: 0,
                wakeups: 1000,
                events: 5000,
                reads: 4000,
                frames: 123456,
                writevs: 3000,
                accepts: 20000,
                batch_p50: 4,
                batch_p99: 64,
            }],
        };
        let json = report.to_json();
        for key in [
            "\"bench\": \"serve_scale\"",
            "\"schema\": 1",
            "\"connections\": 20000",
            "\"active_conns\": 10000",
            "\"idle_conns\": 10000",
            "\"queries_ok\": 123456",
            "\"p99_us\": 900",
            "\"lost\": 0",
            "\"unadmitted\": 3",
            "\"shed_conns\": 1",
            "\"idle_evicted\": 0",
            "\"connect_failures\": 0",
            "\"batch_p99\": 64",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let empty = ScaleReport::default().to_json();
        assert!(empty.contains("\"loops\": []"));
    }

    #[test]
    fn corruption_is_deterministic_and_differs() {
        let payload = Request::Stats.encode();
        let mut a = 42u64;
        let mut b = 42u64;
        let x = corrupt_payload(&payload, &mut a);
        let y = corrupt_payload(&payload, &mut b);
        assert_eq!(x, y, "same seed, same mutation");
        assert_ne!(x, payload, "mutation must change the bytes");
        // Different seeds eventually produce different mutations.
        let mut c = 43u64;
        let z = corrupt_payload(&payload, &mut c);
        let mut c2 = 44u64;
        let z2 = corrupt_payload(&payload, &mut c2);
        assert!(z != x || z2 != x);
    }
}
