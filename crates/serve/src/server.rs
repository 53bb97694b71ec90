//! bdrmapd: the query-serving daemon.
//!
//! A [`Server`] owns a TCP listener, a bounded accept queue, and a
//! fixed pool of worker threads. Each worker serves one connection at a
//! time, answering length-prefixed [`proto`](crate::proto) frames from
//! an immutable [`V3View`] over BDRM v4 snapshot bytes. A server started
//! from an in-process [`BorderMap`] encodes it as v4 first, so every
//! server answers through the same view. When the accept queue is full
//! the acceptor *sheds*: the connection gets a single `Overload` frame
//! and is closed, so saturation degrades into fast rejections instead
//! of unbounded queueing.
//!
//! Snapshots are hot-swappable. A `Reload` control frame makes the
//! handling worker read, verify and validate the next snapshot once
//! and assemble its view — off the other workers' hot path — then
//! publish it with an atomic pointer swap ([`SwapCell`]):
//! readers that already loaded the old `Arc` finish their in-flight
//! queries on it, and every later query sees the new snapshot. No
//! reader ever takes a lock.
//!
//! Robustness layers (see [`conn`](crate::conn) and
//! [`reload`](crate::reload)):
//!
//! - connections get request/write deadlines, a max-inflight-frames
//!   cap, and slow-loris eviction; socket-setup failures are counted
//!   and the connection refused rather than served without timeouts;
//! - reloads retry with backoff, never panic the worker (validation and
//!   view assembly run under `catch_unwind`), and sit behind a circuit
//!   breaker that pins the last-good snapshot after repeated failures;
//! - a server may be started from a [`SnapStore`] directory, in which
//!   case startup and store-reloads verify checksums and roll back
//!   past corrupt generations automatically;
//! - shutdown drains: workers finish the frames already buffered on
//!   their connection, then close.

use crate::conn::{
    ChaosNet, ChaosNetConfig, Conn, ConnError, ConnEvent, ConnLimits, NetFaultCounts,
};
use crate::proto::{HealthInfo, Request, Response, Stats};
use crate::reload::Breaker;
use bdrmap_core::{flat, snapshot, BorderMap, QueryRead, SnapStore, V3View};
use bdrmap_obs::{Counter, Histogram, Registry};
use bdrmap_types::wire::{read_frame, write_frame, MAX_FRAME};
use bdrmap_types::{Asn, Prefix, SwapCell, SwapReader, Vfs};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker blocks on a quiet connection before checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How often the supervisor heartbeats its components.
pub(crate) const SUPERVISE_POLL: Duration = Duration::from_millis(20);

/// Which connection-handling engine a [`Server`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerBackend {
    /// The original fixed pool of blocking worker threads: one thread
    /// serves one connection at a time, a bounded channel queues the
    /// rest, and the acceptor sheds beyond it.
    Threads,
    /// Shared-nothing epoll readiness loops (Linux only): every loop
    /// multiplexes thousands of non-blocking connections through
    /// per-connection state machines, with a hashed timer wheel for
    /// deadlines and vectored writes for response bursts.
    Epoll,
}

impl Default for ServerBackend {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ServerBackend::Epoll
        } else {
            ServerBackend::Threads
        }
    }
}

impl std::str::FromStr for ServerBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(ServerBackend::Threads),
            "epoll" => Ok(ServerBackend::Epoll),
            other => Err(format!(
                "unknown server backend {other:?} (expected threads|epoll)"
            )),
        }
    }
}

impl std::fmt::Display for ServerBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServerBackend::Threads => "threads",
            ServerBackend::Epoll => "epoll",
        })
    }
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub listen: String,
    /// Connection-handling engine; defaults to epoll on Linux.
    pub backend: ServerBackend,
    /// Optional plain-HTTP `GET /metrics` listener address (Prometheus
    /// text exposition); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Thread-pool size (threads backend) or event-loop count (epoll
    /// backend).
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it are shed.
    /// Under epoll the same number bounds *open* connections past the
    /// worker/loop count, so both backends shed at `workers + queue`.
    pub queue: usize,
    /// Coarse prefix-ownership layer built under every snapshot,
    /// including reloaded ones (typically the collector view's
    /// single-origin prefixes).
    pub prefix_owners: Vec<(Prefix, Asn)>,
    /// A started request frame must complete within this long
    /// (slow-loris eviction deadline).
    pub request_deadline: Duration,
    /// Socket write timeout for responses.
    pub write_deadline: Duration,
    /// Max complete frames buffered from one connection at once.
    pub max_inflight: usize,
    /// Attempts per reload request before it counts as a failure.
    pub reload_attempts: u32,
    /// Sleep between reload attempts (scales linearly per retry).
    pub reload_backoff: Duration,
    /// Consecutive reload failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub breaker_cooldown: Duration,
    /// First watchdog restart backoff after a component death.
    pub restart_backoff: Duration,
    /// Cap on the watchdog's doubling restart backoff.
    pub restart_backoff_cap: Duration,
    /// Server-side socket chaos (frame splitting, mid-write resets,
    /// accept delays, stalls, scripted thread crashes). `None` in
    /// production.
    pub chaos: Option<ChaosNetConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            backend: ServerBackend::default(),
            metrics_addr: None,
            workers: 4,
            queue: 128,
            prefix_owners: Vec::new(),
            request_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(5),
            max_inflight: 64,
            reload_attempts: 3,
            reload_backoff: Duration::from_millis(50),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            restart_backoff: Duration::from_millis(50),
            restart_backoff_cap: Duration::from_secs(2),
            chaos: None,
        }
    }
}

impl ServeConfig {
    fn limits(&self) -> ConnLimits {
        ConnLimits {
            poll: READ_POLL,
            request_deadline: self.request_deadline,
            write_deadline: self.write_deadline,
            max_inflight: self.max_inflight.max(1),
            max_frame: MAX_FRAME,
        }
    }
}

/// Wire-opcode labels for the `op` metric label, in dispatch order.
const OPS: [&str; 7] = [
    "owner", "border", "neighbor", "stats", "reload", "health", "metrics",
];

/// Index into [`OPS`] (and the per-opcode metric arrays) for a request.
fn op_index(req: &Request) -> usize {
    match req {
        Request::Owner(_) => 0,
        Request::Border(_) => 1,
        Request::Neighbor(_) => 2,
        Request::Stats => 3,
        Request::Reload(_) => 4,
        Request::Health => 5,
        Request::Metrics => 6,
    }
}

/// The daemon's metric handles, resolved once from a server-private
/// [`Registry`] (private so two servers in one process never mix their
/// numbers). The ad-hoc `AtomicU64`s that used to live on `Shared`
/// migrated here; `Stats` wire responses read the same storage, so the
/// two reporters cannot disagree.
pub(crate) struct ServerMetrics {
    pub(crate) registry: Registry,
    /// `bdrmapd_requests_total{op=...}` — every well-formed request,
    /// control frames included.
    pub(crate) requests: [Counter; 7],
    /// `bdrmapd_request_us{op=...}` — wall-clock handling latency.
    pub(crate) latency: [Histogram; 7],
    /// `bdrmapd_malformed_requests_total` — frames that failed decode.
    pub(crate) malformed: Counter,
    /// `bdrmapd_sheds_total` — connections shed at the accept queue.
    pub(crate) sheds: Counter,
    /// `bdrmapd_evictions_total{cause=...}`.
    pub(crate) evicted_slow: Counter,
    pub(crate) evicted_flood: Counter,
    /// `bdrmapd_setup_errors_total` — sockets refused at setup.
    pub(crate) setup_errors: Counter,
    /// `bdrmapd_reloads_total` — successful snapshot swaps.
    pub(crate) reloads: Counter,
    /// `bdrmapd_reload_failures_total` — reloads out of retries.
    pub(crate) reload_failures: Counter,
    /// `bdrmapd_drained_total` — connections closed by graceful drain.
    pub(crate) drained: Counter,
    /// `bdrmapd_watchdog_restarts_total{component=...}` — dead threads
    /// the supervisor brought back: `[acceptor, worker]`.
    pub(crate) watchdog_restarts: [Counter; 2],
    /// `bdrmapd_watchdog_heartbeats_total` — supervision ticks, proof
    /// the watchdog itself is alive.
    pub(crate) watchdog_heartbeats: Counter,
}

/// Per-event-loop instruments (`bdrmapd_loop_*{loop=...}`), created
/// once per loop index so watchdog respawns keep accumulating into the
/// same series. The `reads`/`frames` counters double as the proof that
/// idle connections cost nothing: an all-idle server holds both flat
/// between timer ticks.
#[derive(Clone)]
pub(crate) struct LoopMetrics {
    /// `epoll_wait` returns.
    pub(crate) wakeups: Counter,
    /// Readiness events dispatched.
    pub(crate) events: Counter,
    /// Events delivered per wakeup (batch-size histogram).
    pub(crate) batch: Histogram,
    /// `read` syscalls that returned bytes on connection sockets.
    pub(crate) reads: Counter,
    /// Request frames decoded (proto work).
    pub(crate) frames: Counter,
    /// `writev` syscalls issued for responses.
    pub(crate) writevs: Counter,
    /// Connections accepted by this loop.
    pub(crate) accepts: Counter,
}

impl LoopMetrics {
    fn new(registry: &Registry, index: usize) -> LoopMetrics {
        let l = index.to_string();
        let lbl: &[(&'static str, &str)] = &[("loop", &l)];
        LoopMetrics {
            wakeups: registry.counter("bdrmapd_loop_wakeups_total", lbl),
            events: registry.counter("bdrmapd_loop_events_total", lbl),
            batch: registry.histogram("bdrmapd_loop_event_batch", lbl),
            reads: registry.counter("bdrmapd_loop_reads_total", lbl),
            frames: registry.counter("bdrmapd_loop_frames_total", lbl),
            writevs: registry.counter("bdrmapd_loop_writevs_total", lbl),
            accepts: registry.counter("bdrmapd_loop_accepts_total", lbl),
        }
    }
}

/// One event loop's counters, snapshotted for reports
/// (`BENCH_serve_scale.json` embeds these per loop).
#[derive(Clone, Debug)]
pub struct LoopStat {
    /// Loop index (0-based).
    pub index: usize,
    /// `epoll_wait` returns.
    pub wakeups: u64,
    /// Readiness events dispatched.
    pub events: u64,
    /// Reads that returned bytes.
    pub reads: u64,
    /// Request frames decoded.
    pub frames: u64,
    /// Vectored writes issued.
    pub writevs: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Median events per wakeup.
    pub batch_p50: u64,
    /// 99th-percentile events per wakeup.
    pub batch_p99: u64,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        let req = |i: usize| registry.counter("bdrmapd_requests_total", &[("op", OPS[i])]);
        let lat = |i: usize| registry.histogram("bdrmapd_request_us", &[("op", OPS[i])]);
        ServerMetrics {
            requests: std::array::from_fn(req),
            latency: std::array::from_fn(lat),
            malformed: registry.counter("bdrmapd_malformed_requests_total", &[]),
            sheds: registry.counter("bdrmapd_sheds_total", &[]),
            evicted_slow: registry.counter("bdrmapd_evictions_total", &[("cause", "slow_loris")]),
            evicted_flood: registry.counter("bdrmapd_evictions_total", &[("cause", "flood")]),
            setup_errors: registry.counter("bdrmapd_setup_errors_total", &[]),
            reloads: registry.counter("bdrmapd_reloads_total", &[]),
            reload_failures: registry.counter("bdrmapd_reload_failures_total", &[]),
            drained: registry.counter("bdrmapd_drained_total", &[]),
            watchdog_restarts: [
                registry.counter(
                    "bdrmapd_watchdog_restarts_total",
                    &[("component", "acceptor")],
                ),
                registry.counter(
                    "bdrmapd_watchdog_restarts_total",
                    &[("component", "worker")],
                ),
            ],
            watchdog_heartbeats: registry.counter("bdrmapd_watchdog_heartbeats_total", &[]),
            registry,
        }
    }

    /// Data-plane queries only — `Stats`/`Health`/`Reload`/`Metrics`
    /// polling must not distort reported load.
    fn queries(&self) -> u64 {
        self.requests[0].get() + self.requests[1].get() + self.requests[2].get()
    }
}

/// Post-reload accounting, published as ONE atomically-swapped unit.
///
/// The old code stored `last_build_us`, `last_swap_us`, and
/// `store_generation` in independent atomics, so a `Stats` scrape
/// racing a reload could pair the new snapshot's timings with the old
/// generation. Readers now grab the whole triple in one
/// [`SwapCell::load_locked`], so every observed combination was
/// actually published together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ReloadInfo {
    /// Swap epoch as of this publication.
    generation: u64,
    /// Snapshot-store generation served (0 without a store; carried
    /// over unchanged by file reloads).
    store_generation: u64,
    /// Microseconds the reload spent assembling the view.
    build_us: u64,
    /// Microseconds the reload spent publishing the swap.
    swap_us: u64,
}

/// State shared by the acceptor, the workers/loops, and the handle.
pub(crate) struct Shared {
    pub(crate) cell: Arc<SwapCell<V3View>>,
    /// Reload accounting; see [`ReloadInfo`].
    reload_info: SwapCell<ReloadInfo>,
    /// Orders concurrent reload publications so a slower reload cannot
    /// overwrite a newer triple with a stale one.
    reload_publish: Mutex<()>,
    pub(crate) stop: AtomicBool,
    prefix_owners: Vec<(Prefix, Asn)>,
    pub(crate) limits: ConnLimits,
    breaker: Mutex<Breaker>,
    store: Option<SnapStore>,
    started: Instant,
    reload_attempts: u32,
    reload_backoff: Duration,
    pub(crate) metrics: ServerMetrics,
    /// Socket-chaos schedule shared by the acceptor and every worker;
    /// `None` in production.
    pub(crate) chaos: Option<ChaosNet>,
    /// Open proto connections across every event loop (epoll backend;
    /// the threads backend bounds admission with its channel instead).
    pub(crate) open_conns: std::sync::atomic::AtomicUsize,
    /// Admission budget: connections past it are shed with one
    /// `Overload` frame, matching the threads backend's
    /// `workers + queue` capacity.
    pub(crate) conn_budget: usize,
    /// Per-loop instruments, created up front so respawned loops keep
    /// their series. Empty under the threads backend.
    pub(crate) loop_metrics: Vec<LoopMetrics>,
    /// Last acknowledged journal LSN of the watch loop feeding this
    /// server; 0 when no journal is attached.
    journal_lsn: AtomicU64,
    /// Batches the watch loop replayed from the journal tail at start.
    recovered_batches: AtomicU64,
}

impl Shared {
    fn stats(&self, idx: &V3View) -> Stats {
        let info = self.reload_info.load_locked();
        Stats {
            generation: info.generation,
            routers: idx.num_routers(),
            links: idx.num_links(),
            prefixes: idx.num_prefixes(),
            queries: self.metrics.queries(),
            sheds: self.metrics.sheds.get(),
            last_build_us: info.build_us,
            last_swap_us: info.swap_us,
            evicted_slow: self.metrics.evicted_slow.get(),
            evicted_flood: self.metrics.evicted_flood.get(),
            setup_errors: self.metrics.setup_errors.get(),
            reload_failures: self.metrics.reload_failures.get(),
            drained: self.metrics.drained.get(),
            breaker_state: self.breaker_code(),
        }
    }

    fn breaker_code(&self) -> u8 {
        self.breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .state_code()
    }

    fn health(&self) -> HealthInfo {
        let info = self.reload_info.load_locked();
        HealthInfo {
            generation: info.store_generation,
            swap_epoch: self.cell.generation(),
            breaker_state: self.breaker_code(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            reload_failures: self.metrics.reload_failures.get(),
            journal_lsn: self.journal_lsn.load(Ordering::Relaxed),
            recovered_batches: self.recovered_batches.load(Ordering::Relaxed),
        }
    }

    /// Publish a finished reload's triple, dropping it if a newer
    /// reload already published (generations are swap epochs, so
    /// "newer" is well-defined even across concurrent reloads).
    fn publish_reload(&self, info: ReloadInfo) {
        let _g = self
            .reload_publish
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if self.reload_info.load_locked().generation < info.generation {
            self.reload_info.store(Arc::new(info));
        }
    }
}

/// A running bdrmapd instance. Dropping the handle without calling
/// [`shutdown`](Server::shutdown) leaves the threads serving until the
/// process exits (daemon mode).
///
/// The handle owns a single *supervisor* thread; the acceptor and the
/// worker pool live under it. The supervisor heartbeats its components
/// and restarts any that die, so a panicking thread degrades into a
/// counted restart instead of a silently smaller server.
pub struct Server {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Encode `map` as a v4 snapshot and serve it through
    /// [`start_from_bytes`](Server::start_from_bytes) — the read path
    /// every server answers through.
    pub fn start(map: &BorderMap, cfg: ServeConfig) -> io::Result<Server> {
        let bytes = snapshot::encode_v3(map)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Server::start_from_bytes(bytes, cfg)
    }

    /// Verify v4 snapshot `bytes` once, open a view over them, and start
    /// serving it.
    pub fn start_from_bytes(bytes: Vec<u8>, cfg: ServeConfig) -> io::Result<Server> {
        let view = V3View::open(bytes, cfg.prefix_owners.iter().copied())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Server::start_inner(view, cfg, ServerMetrics::new(), None, 0)
    }

    /// Load the newest verified-good generation from the snapshot store
    /// at `dir` (rolling back past corrupt files) and start serving it.
    /// `Reload` requests with an empty path re-read the store.
    pub fn start_from_store(dir: impl Into<PathBuf>, cfg: ServeConfig) -> io::Result<Server> {
        // The store reports into the server's private registry, so its
        // generation/disk/quarantine gauges show up in `Metrics`
        // responses next to the daemon's own counters.
        let metrics = ServerMetrics::new();
        let store = SnapStore::open_with(dir, Vfs::real(), metrics.registry.clone())?;
        let outcome = store
            .load_verified()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if outcome.rolled_back() {
            eprintln!(
                "bdrmapd: quarantined {} corrupt snapshot(s); serving generation {}",
                outcome.quarantined.len(),
                outcome.generation
            );
        }
        // The store verified the bytes once; the view is assembled
        // from that pass's layout and proof, without verifying again.
        let view = V3View::from_validated(
            outcome.bytes,
            outcome.layout,
            outcome.proof,
            cfg.prefix_owners.iter().copied(),
        );
        Server::start_inner(view, cfg, metrics, Some(store), outcome.generation)
    }

    fn start_inner(
        view: V3View,
        cfg: ServeConfig,
        metrics: ServerMetrics,
        store: Option<SnapStore>,
        store_generation: u64,
    ) -> io::Result<Server> {
        if cfg.backend == ServerBackend::Epoll && !cfg!(target_os = "linux") {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the epoll backend requires Linux; use --server-backend threads",
            ));
        }
        let workers = cfg.workers.max(1);
        let cell = Arc::new(SwapCell::new(Arc::new(view)));
        let reload_info = SwapCell::new(Arc::new(ReloadInfo {
            generation: cell.generation(),
            store_generation,
            build_us: 0,
            swap_us: 0,
        }));
        let loop_metrics = if cfg.backend == ServerBackend::Epoll {
            (0..workers)
                .map(|i| LoopMetrics::new(&metrics.registry, i))
                .collect()
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            cell,
            reload_info,
            reload_publish: Mutex::new(()),
            stop: AtomicBool::new(false),
            prefix_owners: cfg.prefix_owners.clone(),
            limits: cfg.limits(),
            breaker: Mutex::new(Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown)),
            store,
            started: Instant::now(),
            reload_attempts: cfg.reload_attempts.max(1),
            reload_backoff: cfg.reload_backoff,
            metrics,
            chaos: cfg.chaos.map(ChaosNet::new),
            open_conns: std::sync::atomic::AtomicUsize::new(0),
            conn_budget: workers + cfg.queue.max(1),
            loop_metrics,
            journal_lsn: AtomicU64::new(0),
            recovered_batches: AtomicU64::new(0),
        });
        let listener = Arc::new(TcpListener::bind(&cfg.listen)?);
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => Some(Arc::new(TcpListener::bind(addr)?)),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let backoff = cfg.restart_backoff.max(Duration::from_millis(1));
        let cap = cfg.restart_backoff_cap.max(backoff);
        let supervisor = match cfg.backend {
            ServerBackend::Threads => {
                let (tx, rx) = sync_channel::<TcpStream>(cfg.queue.max(1));
                let rx = Arc::new(Mutex::new(rx));
                if let Some(ml) = metrics_listener {
                    // A small polling thread scrapes independently of
                    // the worker pool, so `/metrics` stays reachable
                    // even when every worker is pinned.
                    ml.set_nonblocking(true)?;
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || crate::http::polling_metrics_loop(shared, ml));
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    supervise(shared, listener, tx, rx, workers, backoff, cap)
                })
            }
            ServerBackend::Epoll => {
                #[cfg(target_os = "linux")]
                {
                    listener.set_nonblocking(true)?;
                    if let Some(ml) = &metrics_listener {
                        ml.set_nonblocking(true)?;
                    }
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        crate::event::supervise_loops(
                            shared,
                            listener,
                            metrics_listener,
                            workers,
                            backoff,
                            cap,
                        )
                    })
                }
                #[cfg(not(target_os = "linux"))]
                unreachable!("epoll backend rejected above on non-Linux")
            }
        };
        Ok(Server {
            local_addr,
            metrics_addr,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The plain-HTTP `/metrics` listener address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Per-event-loop counters (empty under the threads backend).
    pub fn loop_stats(&self) -> Vec<LoopStat> {
        self.shared
            .loop_metrics
            .iter()
            .enumerate()
            .map(|(index, lm)| LoopStat {
                index,
                wakeups: lm.wakeups.get(),
                events: lm.events.get(),
                reads: lm.reads.get(),
                frames: lm.frames.get(),
                writevs: lm.writevs.get(),
                accepts: lm.accepts.get(),
                batch_p50: lm.batch.quantile(0.50),
                batch_p99: lm.batch.quantile(0.99),
            })
            .collect()
    }

    /// Current snapshot swap generation.
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Snapshot-store generation currently served (0 without a store).
    pub fn store_generation(&self) -> u64 {
        self.shared.reload_info.load_locked().store_generation
    }

    /// The server's metric registry rendered as exposition text, as a
    /// `Metrics` wire request would return it.
    pub fn metrics(&self) -> String {
        self.shared.metrics.registry.render()
    }

    /// Statistics as a control client would see them.
    pub fn stats(&self) -> Stats {
        let idx = self.shared.cell.load_locked();
        self.shared.stats(&idx)
    }

    /// Health as a control client would see it.
    pub fn health(&self) -> HealthInfo {
        self.shared.health()
    }

    /// Record the watch loop's journal position so `Health` responses
    /// expose replay state without scraping metrics. `lsn` is the last
    /// acknowledged journal LSN; `recovered` is how many batches
    /// startup recovery replayed from the journal tail.
    pub fn set_journal_state(&self, lsn: u64, recovered: u64) {
        self.shared.journal_lsn.store(lsn, Ordering::Relaxed);
        self.shared
            .recovered_batches
            .store(recovered, Ordering::Relaxed);
    }

    /// Watchdog restart counts so far, as `(acceptor, worker)`.
    pub fn watchdog_restarts(&self) -> (u64, u64) {
        (
            self.shared.metrics.watchdog_restarts[0].get(),
            self.shared.metrics.watchdog_restarts[1].get(),
        )
    }

    /// Injected network-fault counts, when chaos is configured.
    pub fn net_fault_counts(&self) -> Option<NetFaultCounts> {
        self.shared.chaos.as_ref().map(|c| c.counts())
    }

    /// Stop injecting network faults (no-op without chaos). The
    /// quiescent-convergence check flips this before its final sweep.
    pub fn quiesce_chaos(&self) {
        if let Some(c) = &self.shared.chaos {
            c.quiesce();
        }
    }

    /// Stop accepting, drain the workers, and join every thread.
    /// In-flight connections finish the frames they have buffered,
    /// then close.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept; the supervisor
        // joins it and the workers before exiting.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Run the acceptor and the worker pool under a watchdog: heartbeat
/// every component, join any that died (a panic, scripted or real), and
/// respawn it after a capped doubling backoff. Restarts are counted per
/// component in the metric registry; the snapshot store's rollback
/// contract means a restarted component always finds a servable index,
/// so supervision never has to reason about partial state.
fn supervise(
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    tx: SyncSender<TcpStream>,
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    worker_count: usize,
    backoff0: Duration,
    backoff_cap: Duration,
) {
    let spawn_acceptor = |shared: &Arc<Shared>, tx: SyncSender<TcpStream>| {
        let shared = Arc::clone(shared);
        let listener = Arc::clone(&listener);
        std::thread::spawn(move || accept_loop(shared, listener, tx))
    };
    let spawn_worker = |shared: &Arc<Shared>| {
        let reader = SwapCell::reader(&shared.cell);
        let shared = Arc::clone(shared);
        let rx = Arc::clone(&rx);
        std::thread::spawn(move || worker_loop(shared, reader, rx))
    };
    // The supervisor — not the acceptor — owns `tx`: an acceptor panic
    // must not drop the last sender, or every idle worker would see a
    // disconnected queue and exit right when we want to restart one
    // thread, not the whole pool.
    let mut acceptor = spawn_acceptor(&shared, tx.clone());
    let mut workers: Vec<JoinHandle<()>> =
        (0..worker_count).map(|_| spawn_worker(&shared)).collect();
    let mut acceptor_backoff = backoff0;
    let mut worker_backoff = backoff0;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(SUPERVISE_POLL);
        shared.metrics.watchdog_heartbeats.inc();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if acceptor.is_finished() {
            let _ = acceptor.join();
            shared.metrics.watchdog_restarts[0].inc();
            std::thread::sleep(acceptor_backoff);
            acceptor_backoff = (acceptor_backoff * 2).min(backoff_cap);
            acceptor = spawn_acceptor(&shared, tx.clone());
        }
        for slot in workers.iter_mut() {
            if slot.is_finished() && !shared.stop.load(Ordering::SeqCst) {
                shared.metrics.watchdog_restarts[1].inc();
                std::thread::sleep(worker_backoff);
                worker_backoff = (worker_backoff * 2).min(backoff_cap);
                let dead = std::mem::replace(slot, spawn_worker(&shared));
                let _ = dead.join();
            }
        }
    }
    // Shutdown: the acceptor was woken by the handle's connect; join
    // it, then drop the last sender so idle workers drain and exit.
    let _ = acceptor.join();
    drop(tx);
    for h in workers {
        let _ = h.join();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: Arc<TcpListener>, tx: SyncSender<TcpStream>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = listener.accept() else {
            // Usually fd exhaustion (EMFILE): accept keeps failing
            // instantly while the backlog is non-empty, so a bare
            // `continue` would spin the acceptor at 100% CPU.
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(chaos) = &shared.chaos {
            let action = chaos.on_accept();
            if action.panic {
                // Scripted crash: the supervisor must notice, count,
                // and respawn this thread. The accepted connection is
                // dropped un-acked, so clients retry it.
                panic!("chaos: scripted acceptor crash");
            }
            if let Some(d) = action.delay {
                std::thread::sleep(d);
            }
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Overload shedding: one frame, then close.
                shared.metrics.sheds.inc();
                let _ = write_frame(&mut stream, &Response::Overload.encode());
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    reader: SwapReader<V3View>,
    rx: Arc<Mutex<Receiver<TcpStream>>>,
) {
    loop {
        // Take the next queued connection; the lock is only held for
        // the dequeue itself.
        let conn = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv_timeout(READ_POLL)
        };
        match conn {
            Ok(stream) => serve_conn(&shared, &reader, stream),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one connection until the peer closes it, a robustness policy
/// evicts it, or shutdown drains it.
fn serve_conn(shared: &Shared, reader: &SwapReader<V3View>, stream: TcpStream) {
    let mut conn = match Conn::new(stream, shared.limits, shared.chaos.clone()) {
        Ok(conn) => conn,
        Err(_) => {
            // A socket we cannot arm timeouts on could pin this worker
            // forever; refuse it and account for the refusal.
            shared.metrics.setup_errors.inc();
            return;
        }
    };
    loop {
        match conn.next_event() {
            Ok(ConnEvent::Frames(frames)) => {
                for payload in frames {
                    // Chaos charges one draw per *received frame* — a
                    // deterministic event count, unlike read polls.
                    if let Some(chaos) = &shared.chaos {
                        let action = chaos.on_frame();
                        if action.panic {
                            // Scripted crash before any response: the
                            // query is un-acked, the client retries,
                            // the supervisor respawns this worker.
                            panic!("chaos: scripted worker crash");
                        }
                        if let Some(d) = action.stall {
                            std::thread::sleep(d);
                        }
                    }
                    let response = match Request::decode(&payload) {
                        Ok(req) => handle(shared, reader, req),
                        Err(e) => {
                            shared.metrics.malformed.inc();
                            Response::Error(format!("malformed request: {e}"))
                        }
                    };
                    if conn.send(&response.encode()).is_err() {
                        return;
                    }
                }
                // Graceful drain: requests already buffered were
                // answered above; stop before reading more.
                if shared.stop.load(Ordering::SeqCst) {
                    shared.metrics.drained.inc();
                    return;
                }
            }
            Ok(ConnEvent::Idle) => {
                if shared.stop.load(Ordering::SeqCst) {
                    shared.metrics.drained.inc();
                    return;
                }
            }
            Ok(ConnEvent::Closed) => return,
            Err(ConnError::SlowLoris) => {
                shared.metrics.evicted_slow.inc();
                evict(&mut conn, "request deadline exceeded");
                return;
            }
            Err(ConnError::Flood) | Err(ConnError::Oversize(_)) => {
                shared.metrics.evicted_flood.inc();
                evict(&mut conn, "frame limits exceeded");
                return;
            }
            Err(ConnError::MidFrameEof) | Err(ConnError::Io(_)) | Err(ConnError::Setup(_)) => {
                return;
            }
        }
    }
}

/// Best-effort goodbye frame before closing an evicted connection.
fn evict(conn: &mut Conn, reason: &str) {
    let _ = write_frame(conn.stream(), &Response::Error(reason.to_string()).encode());
}

/// Count, time, and dispatch one well-formed request. Every opcode —
/// data plane and control plane alike — gets its own request counter
/// and latency histogram; only `Owner`/`Border`/`Neighbor` contribute
/// to the `queries` figure in `Stats`, so a client polling `Stats` or
/// `Health` neither distorts nor vanishes from reported load.
pub(crate) fn handle(shared: &Shared, reader: &SwapReader<V3View>, req: Request) -> Response {
    let op = op_index(&req);
    shared.metrics.requests[op].inc();
    let start = Instant::now();
    let resp = dispatch(shared, reader, req);
    shared.metrics.latency[op].record(start.elapsed().as_micros() as u64);
    resp
}

/// The pure data-plane answer for a query request against one index:
/// exactly what a worker would serve, minus the transport. `None` for
/// control-plane requests. Generic over [`QueryRead`], so the served
/// [`V3View`] and the heap [`QueryIndex`](bdrmap_core::QueryIndex)
/// reference go through the same code — the chaos harness and the
/// compat suites compare live responses against the reference to prove
/// no fault (or codec) ever corrupted an answer.
pub fn answer<I: QueryRead>(idx: &I, req: &Request) -> Option<Response> {
    match req {
        Request::Owner(a) => Some(Response::Owner(idx.owner_of(*a))),
        Request::Border(a) => Some(Response::Border(idx.border_of(*a).map(Into::into))),
        Request::Neighbor(asn) => Some(Response::Neighbor(
            idx.neighbor_links(*asn)
                .into_iter()
                .filter_map(|id| idx.link_answer(id))
                .map(Into::into)
                .collect(),
        )),
        _ => None,
    }
}

fn dispatch(shared: &Shared, reader: &SwapReader<V3View>, req: Request) -> Response {
    match req {
        Request::Owner(_) | Request::Border(_) | Request::Neighbor(_) => {
            let idx = reader.load();
            answer(&*idx, &req).expect("query requests always have an answer")
        }
        Request::Stats => {
            let idx = reader.load();
            shared.stats(&idx).into()
        }
        Request::Reload(path) => reload(shared, &path),
        Request::Health => Response::Health(shared.health()),
        Request::Metrics => Response::Metrics(shared.metrics.registry.render()),
    }
}

impl From<Stats> for Response {
    fn from(s: Stats) -> Response {
        Response::Stats(s)
    }
}

/// Where a reload's snapshot comes from.
enum ReloadSource<'a> {
    /// A server-local `.bdrm` file.
    File(&'a str),
    /// The server's snapshot store (newest verified generation).
    Store,
}

/// Open the next view and publish it, behind the circuit breaker and a
/// bounded retry loop. Runs on the worker that received the control
/// frame, so the other workers keep serving the old snapshot until the
/// swap lands.
fn reload(shared: &Shared, path: &str) -> Response {
    let source = if path.is_empty() {
        if shared.store.is_none() {
            return Response::Error("reload: no snapshot store configured".to_string());
        }
        ReloadSource::Store
    } else {
        ReloadSource::File(path)
    };
    {
        let mut breaker = shared.breaker.lock().unwrap_or_else(|e| e.into_inner());
        if !breaker.allow_attempt(Instant::now()) {
            return Response::Error(
                "reload refused: circuit breaker open; serving pinned snapshot".to_string(),
            );
        }
    }
    let attempts = shared.reload_attempts;
    let mut last_err = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(shared.reload_backoff * attempt);
        }
        match reload_once(shared, &source) {
            Ok(resp) => {
                shared
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .on_success();
                return resp;
            }
            Err(e) => last_err = e,
        }
    }
    shared.metrics.reload_failures.inc();
    shared
        .breaker
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .on_failure(Instant::now());
    Response::Error(format!(
        "reload failed after {attempts} attempt(s): {last_err}"
    ))
}

fn reload_once(shared: &Shared, source: &ReloadSource<'_>) -> Result<Response, String> {
    // Load phase: read the bytes and verify them once — every checksum,
    // then the structural pass — yielding the layout and proof the view
    // is assembled from. The store does both inside `load_verified`
    // (rolling back past bad generations); a file is checked here.
    // Validation runs under `catch_unwind`: a panicking pass must not
    // kill the worker thread; the old view stays live and the reload
    // counts as a failed attempt.
    let validation_panicked = |_| "snapshot validation panicked".to_string();
    let (bytes, layout, proof, store_gen) = match source {
        ReloadSource::File(path) => {
            let bytes = std::fs::read(std::path::Path::new(path))
                .map_err(|e| format!("load {path}: {e}"))?;
            let layout =
                flat::verify_integrity(&bytes).map_err(|e| format!("verify {path}: {e}"))?;
            let proof = catch_unwind(AssertUnwindSafe(|| {
                flat::validate_structure(&bytes, &layout)
            }))
            .map_err(validation_panicked)?
            .map_err(|e| format!("validate {path}: {e}"))?;
            (bytes, layout, proof, None)
        }
        ReloadSource::Store => {
            let store = shared.store.as_ref().expect("source checked by caller");
            let outcome = catch_unwind(AssertUnwindSafe(|| store.load_verified()))
                .map_err(validation_panicked)?
                .map_err(|e| format!("store: {e}"))?;
            (
                outcome.bytes,
                outcome.layout,
                outcome.proof,
                Some(outcome.generation),
            )
        }
    };
    // Build phase, also under `catch_unwind`: assemble the view over
    // the trusted bytes. That is only the configured prefix overlay, so
    // `build_us` is near-zero and independent of map size.
    let build_start = Instant::now();
    let next = catch_unwind(AssertUnwindSafe(|| {
        V3View::from_validated(bytes, layout, proof, shared.prefix_owners.iter().copied())
    }))
    .map_err(|_| "snapshot view assembly panicked".to_string())?;
    let build_us = build_start.elapsed().as_micros() as u64;
    let routers = next.num_routers();
    let links = next.num_links();
    let swap_start = Instant::now();
    shared.cell.store(Arc::new(next));
    let swap_us = swap_start.elapsed().as_micros() as u64;
    let generation = shared.cell.generation();
    // Publish (generation, build_us, swap_us) — and the store
    // generation — as one swapped unit; see [`ReloadInfo`].
    let store_generation =
        store_gen.unwrap_or_else(|| shared.reload_info.load_locked().store_generation);
    shared.publish_reload(ReloadInfo {
        generation,
        store_generation,
        build_us,
        swap_us,
    });
    shared.metrics.reloads.inc();
    Ok(Response::Reloaded {
        generation,
        build_us,
        swap_us,
        routers,
        links,
    })
}

/// A blocking protocol client: one connection, synchronous
/// request/response.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a bdrmapd instance.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Raw stream access for tests and hostile-input injection.
    pub(crate) fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream, MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}
