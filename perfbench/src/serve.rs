//! `serve`: bdrmapd answering queries while its map is hot-swapped.
//!
//! Why this workload: only here do lookups, frame handling and the
//! snapshot store's read, verify and validate path carry the op. The
//! reload runs inline on the single event loop, so a reload gain that
//! costs lookups (or the reverse) makes one metric better and another
//! worse in the same run. Layers loaded: `serve` (epoll loop, proto),
//! `core::snapstore` (read side), `core::flat`, `core::snapshot` and
//! `types::integrity`.
//!
//! bdrmapd runs in-process with the default epoll backend and one loop,
//! serving a 50k-router v3 map (the roadmap's reload reference size)
//! from a `SnapStore`, under the prefix overlay `bdrmap serve` builds.
//! The map, the overlay and the query mix come from a generator seeded
//! by `--seed`. Two client threads, one connection each:
//!
//! - connection A sends an open-loop mix of Owner, Border and Neighbor
//!   queries at a fixed rate, about a twentieth of what one loop
//!   sustains.
//!   Each query is timed from the moment it was due, so a stall charges
//!   every query that waited behind it; queries still unanswered when
//!   the run ends count as failed. Every answer must equal
//!   `serve::answer` on a view the benchmark opened locally. The
//!   generator spins rather than sleeps: when it slept between queries,
//!   its own wake-ups were part of every latency, and the median query
//!   moved from 0.045 to 0.18 ms between runs with the host's load;
//! - connection B issues a store `Reload` once per period.
//!
//! The workload's op is a query: `op_p50_ms` is set by the loop's
//! wake-up, frame handling and lookups, while `op_tail_ms` (the median
//! over reload periods of each period's p99) falls inside the stalls
//! behind the inline reloads and so moves with the reload's cost, which the traced run reports as `serve.reload_ms` and
//! breaks down. `run_cpu_s` is the server's CPU: the process's, less
//! the two client threads'.

use crate::report::{
    self, median, overhead_pct, repeated_setup, windowed_tail, Report, Tracer, WorkDir,
};
use crate::rng::Rng;
use crate::sys::{peak_rss_mb, process_cpu_s, thread_cpu_s};
use crate::{nosync, Args};
use bdrmap_core::{flat, BorderMap, Heuristic, InferredLink, InferredRouter, SnapStore, V3View};
use bdrmap_obs::Registry;
use bdrmap_serve::{
    answer, queries_for_map, Client, LoopStat, Request, Response, ServeConfig, Server,
};
use bdrmap_types::{addr, integrity, Asn, Prefix};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Routers in the served map, per size.
const ROUTERS: [u32; 2] = [50_000, 2_000];
/// Open-loop query rate (queries/s), per size: about a twentieth of the
/// ~200k/s at which one loop's median latency starts to climb on an
/// idle 2-core machine. On a shared host whose cores at times run half
/// as fast when neighbours are busy, higher rates were bistable: at
/// 100k/s, 50k/s and (in a slow stretch of the host, with reloads
/// taking 120–154 ms) 20k/s some runs no longer drained each reload's
/// backlog before the next query was due, and their median query read
/// the backlog (0.17–1.2 ms against 0.03–0.06 ms) instead of the loop's
/// frame handling.
const RATE: [f64; 2] = [10_000.0, 5_000.0];
/// Reload period, per size. The program has no reload cadence to copy
/// (bdrmapd reloads on request), so this is an assumption: at ~100 ms a
/// reload, one a second puts about a tenth of the loop's time into
/// reloads, so the stalls set the query tail while lookups set the
/// median.
const RELOAD_EVERY: [Duration; 2] = [Duration::from_millis(1000), Duration::from_millis(100)];
/// Distinct queries in the mix; query `i` of the schedule is
/// `mix[i % MIX]`.
const MIX: usize = 1 << 16;
/// Percent of the mix that the map itself answers (see [`queries`]).
const HIT_PCT: u64 = 80;
/// Reload-layer replays in a traced run (see [`replay_reloads`]).
const REPLAYS: u64 = 5;
/// How long past the schedule's end unanswered queries may still land.
const GRACE: Duration = Duration::from_secs(5);
/// Neighbor ASes in the generated map (a few links each, as for a
/// large access network).
const ASNS: u32 = 4096;
/// Frames one read may carry before the epoll loop evicts the
/// connection as a flood; an open-loop client pipelines through reload
/// stalls, and one 4 KiB read holds up to ~455 request frames.
const MAX_INFLIGHT: usize = 1024;

/// A border map with `n` routers of two interfaces each (one in seven
/// with one more off-path address) and a border link on every other
/// router — the shape `bdrmap bench-reload` uses — with its /12
/// interface blocks, owners and neighbor ASes drawn from `seed`.
/// Returns the map, the single-origin prefix overlay, and the /12
/// blocks no router uses (the first 512 hold the overlay's /16s).
fn generate(n: u32, seed: u64) -> (BorderMap, Vec<(Prefix, Asn)>, Vec<u32>) {
    let mut rng = Rng::new(seed);
    // 1024 distinct /12 blocks, scattered.
    let mut blocks: Vec<u32> = (1..4095).collect();
    crate::rng::shuffle(&mut blocks, rng.next_u64());
    blocks.truncate(1024);
    let iface = |r: u32, k: u32| addr((blocks[(r % 1024) as usize] << 20) | (2 * (r / 1024) + k));
    let other = |r: u32| addr((blocks[(r % 1024) as usize] << 20) | (0x8_0000 + r / 1024));
    let asn = |rng: &mut Rng| Asn(64_512 + rng.below(u64::from(ASNS)) as u32);
    let tags = [
        Heuristic::MultihomedToVp,
        Heuristic::Firewall,
        Heuristic::OneNet,
        Heuristic::ThirdParty,
        Heuristic::RelKnownNeighbor,
        Heuristic::CountMajority,
    ];
    let routers: Vec<InferredRouter> = (0..n)
        .map(|i| InferredRouter {
            addrs: vec![iface(i, 0), iface(i, 1)],
            other_addrs: if rng.below(7) == 0 {
                vec![other(i)]
            } else {
                vec![]
            },
            owner: Some(asn(&mut rng)),
            heuristic: Some(tags[rng.below(tags.len() as u64) as usize]),
            min_hop: 1 + rng.below(12) as u8,
        })
        .collect();
    let links: Vec<InferredLink> = (0..n.saturating_sub(1))
        .step_by(2)
        .map(|i| InferredLink {
            near: i as usize,
            far: Some(i as usize + 1),
            far_as: routers[i as usize + 1]
                .owner
                .expect("every router has an owner"),
            near_addr: Some(iface(i, 0)),
            far_addr: Some(iface(i + 1, 0)),
            heuristic: tags[rng.below(tags.len() as u64) as usize],
        })
        .collect();
    // The overlay: every interface block as a /12 (router addresses
    // shadow it; the rest of the block is overlay-only), plus /16s in
    // space no router uses.
    let mut prefixes: Vec<(Prefix, Asn)> = blocks
        .iter()
        .map(|&b| (Prefix::new(addr(b << 20), 12), asn(&mut rng)))
        .collect();
    let used: std::collections::HashSet<u32> = blocks.iter().copied().collect();
    let mut spare: Vec<u32> = (1..4095).filter(|b| !used.contains(b)).collect();
    crate::rng::shuffle(&mut spare, rng.next_u64());
    for &b in spare.iter().take(512) {
        prefixes.push((
            Prefix::new(addr((b << 20) | (0xa << 16)), 16),
            asn(&mut rng),
        ));
    }
    let map = BorderMap {
        routers,
        links,
        packets: u64::from(n) * 10,
        elapsed_ms: u64::from(n),
    };
    (map, prefixes, spare)
}

/// The query mix. `HIT_PCT`% are drawn uniformly from
/// `loadgen::queries_for_map` — every router interface (Owner), every
/// link endpoint (Border) and every neighbor AS (Neighbor), the mix the
/// repo's own load generator sends; on the generated map that is about
/// 66% Owner, 31% Border and 2.5% Neighbor. The rest is split evenly
/// between Owner queries for addresses only the prefix overlay answers
/// and Owner queries for addresses nothing answers. The two miss shares
/// are an assumption: the program records no traffic to take them from.
fn queries(map: &BorderMap, prefixes: &[(Prefix, Asn)], spare: &[u32], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x9e37);
    let hits = queries_for_map(map);
    let overlay_pct = HIT_PCT + (100 - HIT_PCT) / 2;
    (0..MIX)
        .map(|_| match rng.below(100) {
            k if k < HIT_PCT => hits[rng.below(hits.len() as u64) as usize].clone(),
            k if k < overlay_pct => {
                // Inside a prefix, outside every router's addresses.
                let (p, _) = prefixes[rng.below(prefixes.len() as u64) as usize];
                Request::Owner(p.nth(p.size() / 4 * 3 + rng.below(256) as u32))
            }
            _ => {
                // Space nothing answers for.
                let b = spare[512 + rng.below((spare.len() - 512) as u64) as usize];
                Request::Owner(addr((b << 20) | rng.below(1 << 20) as u32))
            }
        })
        .collect()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_be_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

struct Setup {
    store: SnapStore,
    prefixes: Vec<(Prefix, Asn)>,
    map_bytes: usize,
    routers: u32,
    links: u32,
    requests: Vec<Request>,
    /// Wire frames of `requests`.
    frames: Vec<Vec<u8>>,
    /// `serve::answer` on the local view, encoded, per request.
    expected: Vec<Vec<u8>>,
    view: V3View,
    conn_a: Option<TcpStream>,
    conn_b: Option<Client>,
    server: Option<Server>,
    _dir: WorkDir,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn reload(c: &mut Client) -> Result<Response, String> {
    c.call(&Request::Reload(String::new()))
        .map_err(|e| format!("reload: {e}"))
}

fn setup(args: &Args) -> Result<Setup, String> {
    let dir = WorkDir::new("serve")?;
    let (map, prefixes, spare) = generate(args.sized(ROUTERS), args.seed);
    let store_dir = dir.path().join("store");
    let store = SnapStore::open_with(&store_dir, nosync::vfs(), Registry::new())
        .map_err(|e| format!("opening store: {e}"))?
        .with_snapshot_version(flat::VERSION);
    let generation = store.publish(&map).map_err(|e| format!("publish: {e}"))?;
    let bytes = std::fs::read(store.path_of(generation)).map_err(|e| format!("read: {e}"))?;
    let map_bytes = bytes.len();
    let view = V3View::open(bytes, prefixes.iter().copied())
        .map_err(|e| format!("opening the local view: {e}"))?;
    let requests = queries(&map, &prefixes, &spare, args.seed);
    let frames = requests.iter().map(|r| frame(&r.encode())).collect();
    let expected = requests
        .iter()
        .map(|r| Ok(answer(&view, r).ok_or("not a query")?.encode()))
        .collect::<Result<Vec<_>, String>>()?;
    drop(map);

    let cfg = ServeConfig {
        workers: 1,
        prefix_owners: prefixes.clone(),
        max_inflight: MAX_INFLIGHT,
        ..ServeConfig::default()
    };
    let server = Server::start_from_store(&store_dir, cfg).map_err(|e| format!("bdrmapd: {e}"))?;
    let conn_a = TcpStream::connect(server.local_addr()).map_err(|e| format!("conn A: {e}"))?;
    conn_a
        .set_nodelay(true)
        .map_err(|e| format!("conn A: {e}"))?;
    let mut conn_b = Client::connect(&server.local_addr()).map_err(|e| format!("conn B: {e}"))?;
    // Warm-up on connection B: one reload, then the first queries of the
    // mix, closed-loop.
    let Response::Reloaded { routers, links, .. } = reload(&mut conn_b)? else {
        return Err("warm-up reload refused".into());
    };
    for (r, want) in requests.iter().zip(&expected).take(2_000) {
        let got = conn_b.call(r).map_err(|e| format!("warm-up query: {e}"))?;
        if got.encode() != *want {
            return Err(format!("warm-up query {r:?} answered {got:?}"));
        }
    }
    Ok(Setup {
        store,
        prefixes,
        map_bytes,
        routers,
        links,
        requests,
        frames,
        expected,
        view,
        conn_a: Some(conn_a),
        conn_b: Some(conn_b),
        server: Some(server),
        _dir: dir,
    })
}

/// Connection A's tally.
struct LoadOut {
    latency_us: Vec<f32>,
    lateness_us: Vec<f32>,
    failed: u64,
    /// CPU time of the generator's own thread.
    cpu_s: f64,
}

/// Send `n` queries on `stream`, query `i` due at `start + i / rate`,
/// reading answers as they arrive; no query waits for another's answer.
/// The thread never sleeps: it spins on its non-blocking socket, so
/// neither a send nor the reading of an answer waits for this thread to
/// be woken, and the latency it records is the server's.
fn open_loop(
    mut stream: TcpStream,
    s: &Setup,
    start: Instant,
    n: usize,
    rate: f64,
    inject_fault: bool,
) -> io::Result<LoadOut> {
    let cpu0 = thread_cpu_s();
    stream.set_nonblocking(true)?;
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let give_up = due(n) + GRACE;
    let mut out = LoadOut {
        latency_us: Vec::with_capacity(n),
        lateness_us: Vec::with_capacity(n),
        failed: 0,
        cpu_s: 0.0,
    };
    let (mut next, mut done) = (0usize, 0usize);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let (mut wbuf, mut woff) = (Vec::<u8>::with_capacity(1 << 16), 0usize);
    let (mut rbuf, mut roff) = (Vec::<u8>::with_capacity(1 << 16), 0usize);
    let mut chunk = vec![0u8; 1 << 16];
    while done < n {
        let now = Instant::now();
        while next < n && due(next) <= now {
            wbuf.extend_from_slice(&s.frames[next % MIX]);
            out.lateness_us.push((now - due(next)).as_secs_f32() * 1e6);
            pending.push_back(next);
            next += 1;
        }
        while woff < wbuf.len() {
            match stream.write(&wbuf[woff..]) {
                Ok(k) => woff += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if woff == wbuf.len() {
            wbuf.clear();
            woff = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(k) => {
                    let at = Instant::now();
                    rbuf.extend_from_slice(&chunk[..k]);
                    while rbuf.len() - roff >= 4 {
                        let len = u32::from_be_bytes(rbuf[roff..roff + 4].try_into().unwrap());
                        let end = roff + 4 + len as usize;
                        if rbuf.len() < end {
                            break;
                        }
                        let i = pending.pop_front().ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "unsolicited answer")
                        })?;
                        let mut got = &rbuf[roff + 4..end];
                        let flipped;
                        if inject_fault && i == n / 2 {
                            let mut v = got.to_vec();
                            let mid = v.len() / 2;
                            v[mid] ^= 0x01;
                            flipped = v;
                            got = &flipped;
                        }
                        if got != &s.expected[i % MIX][..] {
                            out.failed += 1;
                            eprintln!(
                                "serve: query {i} ({:?}) answered wrongly",
                                s.requests[i % MIX]
                            );
                        }
                        out.latency_us.push((at - due(i)).as_secs_f32() * 1e6);
                        done += 1;
                        roff = end;
                    }
                    rbuf.drain(..roff);
                    roff = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if Instant::now() >= give_up {
            break;
        }
        std::hint::spin_loop();
    }
    // Unanswered (or never sent, if the run gave up) queries fail.
    out.failed += (n - done) as u64;
    out.cpu_s = thread_cpu_s() - cpu0;
    Ok(out)
}

/// Median of the request-latency histograms bdrmapd keeps for Owner,
/// Border and Neighbor queries, read from its exposition (the upper
/// bound of the median's log2 bucket).
fn handle_p50_us(exposition: &str) -> f64 {
    let mut buckets: std::collections::BTreeMap<u64, u64> = Default::default();
    for op in ["owner", "border", "neighbor"] {
        let prefix = format!("bdrmapd_request_us_bucket{{op=\"{op}\",le=\"");
        let mut prev = 0;
        for line in exposition.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else {
                continue;
            };
            let Some((le, cum)) = rest.split_once("\"} ") else {
                continue;
            };
            let (Ok(le), Ok(cum)) = (le.parse::<u64>(), cum.trim().parse::<u64>()) else {
                continue; // the +Inf bucket repeats the last count
            };
            *buckets.entry(le).or_default() += cum - prev;
            prev = cum;
        }
    }
    let total: u64 = buckets.values().sum();
    let mut seen = 0;
    for (le, n) in buckets {
        seen += n;
        if 2 * seen >= total {
            return le as f64;
        }
    }
    f64::NAN
}

fn frames_per_read(before: &[LoopStat], after: &[LoopStat]) -> f64 {
    let sum = |v: &[LoopStat], f: fn(&LoopStat) -> u64| v.iter().map(f).sum::<u64>();
    let frames = sum(after, |l| l.frames) - sum(before, |l| l.frames);
    let reads = sum(after, |l| l.reads) - sum(before, |l| l.reads);
    frames as f64 / reads.max(1) as f64
}

/// ns per call of `f` over the whole mix.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Replay a reload's read, verify, validate and build steps on
/// `store`, the store a server reloads from, [`REPLAYS`] times as spans
/// of ops `first_op..`, and set their per-layer metrics, with the CRC32C
/// time over the file (a sub-step of the first two) beside them.
pub fn replay_reloads(
    store: &SnapStore,
    prefixes: &[(Prefix, Asn)],
    tracer: &mut Tracer,
    first_op: u64,
    r: &mut Report,
) -> Result<(), String> {
    let mut crc_ms = Vec::new();
    for op in first_op..first_op + REPLAYS {
        let t0 = Instant::now();
        let outcome = store.load_verified().map_err(|e| format!("load: {e}"))?;
        let t1 = Instant::now();
        let layout = flat::verify_integrity(&outcome.bytes).map_err(|e| format!("verify: {e}"))?;
        let t2 = Instant::now();
        let proof =
            flat::validate_structure(&outcome.bytes, &layout).map_err(|e| format!("{e}"))?;
        let t3 = Instant::now();
        let bytes = outcome.bytes.clone();
        let t4 = Instant::now();
        let view = V3View::from_validated(bytes, layout, proof, prefixes.iter().copied());
        let t5 = Instant::now();
        std::hint::black_box(view);
        tracer.record("snapstore.load_verified", op, t0, t1);
        tracer.record("flat.verify_integrity", op, t1, t2);
        tracer.record("flat.validate_structure", op, t2, t3);
        tracer.record("flat.view_build", op, t4, t5);
        let t = Instant::now();
        std::hint::black_box(integrity::crc32c(&outcome.bytes));
        crc_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ms = |name| tracer.median_ms(name);
    r.metric("snapstore.load_verified_ms", ms("snapstore.load_verified"));
    r.metric("flat.verify_integrity_ms", ms("flat.verify_integrity"));
    r.metric("flat.validate_structure_ms", ms("flat.validate_structure"));
    r.metric("flat.view_build_ms", ms("flat.view_build"));
    r.metric("integrity.crc32c_ms", median(&crc_ms));
    Ok(())
}

pub fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let (mut s, setup_s) = repeated_setup(started, || setup(args))?;
    let rate = args.sized(RATE);
    let period = args.sized(RELOAD_EVERY);
    let n = (rate * args.seconds as f64).round() as usize;
    let reloads = ((args.seconds as f64 / period.as_secs_f64()).round() as u64).max(1);
    println!(
        "serve: seed {}, {} routers / {} links, {:.2} MB v3, {} overlay prefixes, \
         {n} queries at {rate} /s, {reloads} reloads",
        args.seed,
        s.routers,
        s.links,
        s.map_bytes as f64 / 1e6,
        s.prefixes.len(),
    );

    let server_loops = |s: &Setup| s.server.as_ref().map_or(Vec::new(), Server::loop_stats);
    let loops_before = server_loops(&s);
    let (mut rtt_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut build_us, mut swap_us) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut failed = 0u64;
    let conn_a = s.conn_a.take().ok_or("connection A already used")?;
    let mut conn_b = s.conn_b.take().ok_or("connection B already used")?;
    let (cpu0, main_cpu0) = (process_cpu_s(), thread_cpu_s());
    let start = Instant::now() + Duration::from_millis(5);
    let load = std::thread::scope(|scope| -> Result<LoadOut, String> {
        let setup = &s;
        let gen = scope.spawn(move || open_loop(conn_a, setup, start, n, rate, args.inject_fault));
        for j in 0..reloads {
            let due = start + period.mul_f64(j as f64 + 0.5);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let t0 = Instant::now();
            let resp = reload(&mut conn_b)?;
            let t1 = Instant::now();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            rtt_ms.push(ms);
            match resp {
                Response::Reloaded {
                    build_us: b,
                    swap_us: w,
                    routers,
                    links,
                    ..
                } if routers == setup.routers && links == setup.links => {
                    build_us.push(b as f64);
                    swap_us.push(w as f64);
                }
                other => {
                    failed += 1;
                    eprintln!("serve: reload {j} answered {other:?}");
                }
            }
            if args.trace && report::traced_op(j) {
                traced_ms.push(ms);
                tracer.record("serve.reload", j, t0, t1);
            } else {
                untraced_ms.push(ms);
            }
        }
        gen.join()
            .map_err(|_| "load generator panicked".to_string())?
            .map_err(|e| format!("connection A: {e}"))
    })?;
    // The program's CPU: the load generator's spinning thread and this
    // thread's reload calls are the benchmark's own.
    let run_cpu_s = process_cpu_s() - cpu0 - load.cpu_s - (thread_cpu_s() - main_cpu0);
    let loops_after = server_loops(&s);
    failed += load.failed;

    let mut r = Report::new(n as u64 + reloads, failed);
    if args.trace {
        // The reload's layers run inside the server; replaying them here
        // after the timed phase, on the store just served, times them
        // without the query load the live reloads shared two cores with.
        replay_reloads(&s.store, &s.prefixes, &mut tracer, reloads, &mut r)?;
        r.metric("serve.reload_ms", median(&rtt_ms));
        r.metric("serve.reload_build_us", median(&build_us));
        r.metric("serve.reload_swap_us", median(&swap_us));
        // A reload is read + verify + validate (replayed) + the view
        // build and swap the server reports; the rest is wire and
        // queueing on the loop.
        let ms = |name| tracer.median_ms(name);
        let covered = ms("snapstore.load_verified")
            + ms("flat.verify_integrity")
            + ms("flat.validate_structure")
            + (median(&build_us) + median(&swap_us)) / 1e3;
        r.metric("trace.unaccounted_ms", median(&traced_ms) - covered);
        r.metric("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
        let view = &s.view;
        let reqs = &s.requests;
        let answer_ns = ns_per_call(MIX, |i| {
            std::hint::black_box(answer(view, &reqs[i]));
        });
        let payloads: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
        let decode_ns = ns_per_call(MIX, |i| {
            std::hint::black_box(Request::decode(&payloads[i]).ok());
        });
        let answers: Vec<Response> = reqs.iter().filter_map(|q| answer(view, q)).collect();
        let encode_ns = ns_per_call(answers.len(), |i| {
            std::hint::black_box(answers[i].encode());
        });
        r.metric("query.answer_ns", answer_ns);
        r.metric("proto.request_decode_ns", decode_ns);
        r.metric("proto.response_encode_ns", encode_ns);
        let exposition = s.server.as_ref().map_or(String::new(), Server::metrics);
        r.metric("serve.handle_p50_us", handle_p50_us(&exposition));
        let per_read = frames_per_read(&loops_before, &loops_after);
        r.metric("serve.frames_per_read", per_read);
        let mut lateness: Vec<f64> = load.lateness_us.iter().map(|&v| f64::from(v)).collect();
        lateness.sort_by(f64::total_cmp);
        let late_p99 = report::percentile(&lateness, 99.0);
        r.metric("loadgen.lateness_p99_us", late_p99);
        tracer
            .write_jsonl(&report::spans_path("serve", args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        let latency_ms: Vec<f64> = load
            .latency_us
            .iter()
            .map(|&v| f64::from(v) / 1e3)
            .collect();
        // Answers arrive in order, so `latency_ms[i]` is query `i`. The
        // tail is taken per reload period (one stall each): a run-wide
        // p99 was set by the one or two stalls the shared host happened
        // to slow (163–178 ms in runs whose median reload took 101–102
        // ms).
        let (q, tail_ms) = windowed_tail(&latency_ms, reloads as usize);
        println!(
            "serve: query tail is the median over {reloads} reload periods of p{q}; \
             {} answered; reload p50 {:.3} ms",
            latency_ms.len(),
            median(&rtt_ms)
        );
        r.metric("setup_s", setup_s);
        r.metric("peak_rss_mb", peak_rss_mb());
        r.metric("op_p50_ms", median(&latency_ms));
        r.metric("op_tail_ms", tail_ms);
        r.metric("run_cpu_s", run_cpu_s);
        r.metric("snapshot_mb", s.map_bytes as f64 / 1e6);
    }
    Ok(r)
}
