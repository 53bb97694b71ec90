//! The epoll readiness loops that serve every bdrmapd connection
//! (Linux only).
//!
//! Each loop owns a private epoll instance, a slab of non-blocking
//! connections, and a hashed [`TimerWheel`] for deadlines. All loops
//! register the *shared* listening socket level-triggered and accept
//! until `EAGAIN` — an accept-and-dispatch shard without
//! `SO_REUSEPORT`, so ephemeral-port test servers keep working
//! unchanged. The serving contract:
//!
//! - **Shedding** at `workers + queue` open connections: one
//!   `Overload` frame, then close.
//! - **Slow-loris eviction**: a partial frame arms a wheel entry and a
//!   completed frame restarts the deadline; expiry re-validates against
//!   live state (lazy cancellation), so idle connections own no timers
//!   and cost zero proto work.
//! - **Flood/oversize eviction** per 4 KiB read chunk, through
//!   [`FrameBuf`](crate::conn::FrameBuf)'s caps.
//! - Every eviction ends with a goodbye `Error` frame.
//! - **Graceful drain**: on shutdown each loop answers the frames its
//!   connections already delivered, flushes, and closes.
//! - **Chaos**: `on_accept`/`on_frame`/`write_plan` charge at
//!   deterministic events (an accept, a received frame, a response
//!   write); scripted panics kill the whole loop and the supervisor
//!   attributes the restart via
//!   [`ChaosNet::scripted_fired`](crate::conn::ChaosNet::scripted_fired).
//!
//! Responses queue into per-connection out-buffers and flush with
//! vectored `writev` bursts; `EPOLLOUT` interest is registered only
//! while bytes are pending. A chaos `Split` plan inserts a flush
//! barrier so the halves leave in separate syscalls.

#![cfg(target_os = "linux")]

use crate::conn::WritePlan;
use crate::http;
use crate::proto::{Request, Response};
use crate::server::{handle, LoopMetrics, Shared};
use crate::timer::TimerWheel;
use bdrmap_core::V3View;
use bdrmap_types::sys::{
    writev_fd, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use bdrmap_types::wire::write_frame;
use bdrmap_types::{SwapCell, SwapReader};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll wait bound; also the shutdown-notice and timer-advance cadence.
const WAIT_MS: i32 = 25;
/// How often the supervisor heartbeats its loops.
const SUPERVISE_POLL: Duration = Duration::from_millis(20);
/// Timer-wheel granularity.
const WHEEL_TICK: Duration = Duration::from_millis(10);
/// Timer-wheel slots (horizon = slots × tick = 2.56 s per revolution).
const WHEEL_SLOTS: usize = 256;
/// Readiness events drained per `epoll_wait`.
const MAX_EVENTS: usize = 1024;
/// Accepts per listener wakeup, so one flood can't starve served conns.
const ACCEPT_BATCH: usize = 256;
/// Read chunk size. Frames are extracted after every chunk, so
/// `max_inflight` caps the complete frames one chunk may carry.
const READ_CHUNK: usize = 4096;
/// Per-connection bytes per wakeup before yielding to other conns.
const READ_SWEEP_MAX: usize = 256 * 1024;
/// Concurrent HTTP metrics connections per loop (scrapes are one
/// round trip; anything past this is dropped, not queued).
const HTTP_CAP: usize = 64;
/// How long a loop parks a listener after a fatal `accept` error
/// (EMFILE/ENFILE fd exhaustion). A level-triggered listener with a
/// backlog stays ready forever, so leaving it registered while accept
/// cannot succeed spins the loop at 100% CPU doing nothing.
const ACCEPT_RETRY: Duration = Duration::from_millis(250);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_METRICS: u64 = u64::MAX - 1;

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn split_token(tok: u64) -> (usize, u32) {
    ((tok & 0xffff_ffff) as usize, (tok >> 32) as u32)
}

/// Spawn `nloops` event loops and supervise them: heartbeat, join the
/// dead (a panic, scripted or real), and respawn after a capped
/// doubling backoff. A loop that died of a scripted chaos panic is
/// attributed to the acceptor or worker restart counter of the crash
/// that killed it; any other death counts as a worker restart. The
/// snapshot store's rollback contract means a respawned loop always
/// finds a servable view, so supervision never reasons about partial
/// state.
pub(crate) fn supervise_loops(
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    metrics_listener: Option<Arc<TcpListener>>,
    nloops: usize,
    backoff0: Duration,
    backoff_cap: Duration,
) {
    let spawn = |i: usize| -> JoinHandle<()> {
        let shared = Arc::clone(&shared);
        let reader = SwapCell::reader(&shared.cell);
        let listener = Arc::clone(&listener);
        let ml = if i == 0 {
            metrics_listener.clone()
        } else {
            None
        };
        std::thread::spawn(move || run_loop(shared, reader, listener, ml, i))
    };
    let mut loops: Vec<JoinHandle<()>> = (0..nloops).map(spawn).collect();
    let mut backoff = backoff0;
    // Once per scripted panic kind: later deaths attribute as plain
    // worker restarts.
    let mut attributed = [false; 2];
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(SUPERVISE_POLL);
        shared.metrics.watchdog_heartbeats.inc();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        for (i, slot) in loops.iter_mut().enumerate() {
            if slot.is_finished() && !shared.stop.load(Ordering::SeqCst) {
                let scripted = shared
                    .chaos
                    .as_ref()
                    .map(|c| c.scripted_fired())
                    .unwrap_or((false, false));
                let component = if scripted.0 && !attributed[0] {
                    attributed[0] = true;
                    0 // acceptor
                } else if scripted.1 && !attributed[1] {
                    attributed[1] = true;
                    1 // worker
                } else {
                    1
                };
                shared.metrics.watchdog_restarts[component].inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(backoff_cap);
                let dead = std::mem::replace(slot, spawn(i));
                let _ = dead.join();
            }
        }
    }
    for h in loops {
        let _ = h.join();
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    Proto,
    Http,
}

/// Out-queue chunk list with a head offset; `barrier` chunks force a
/// flush boundary (chaos split plans) so the next bytes leave in a
/// separate syscall.
#[derive(Default)]
struct OutQueue {
    chunks: VecDeque<(Vec<u8>, bool)>,
    head: usize,
    len: usize,
}

impl OutQueue {
    fn push(&mut self, bytes: Vec<u8>, barrier: bool) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        self.chunks.push_back((bytes, barrier));
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Collect IoSlices up to the first barrier (inclusive) or the
    /// writev fan-in cap. Returns the byte count submitted.
    fn gather<'a>(&'a self, out: &mut Vec<IoSlice<'a>>) -> usize {
        let mut total = 0;
        for (i, (chunk, barrier)) in self.chunks.iter().enumerate() {
            let start = if i == 0 { self.head } else { 0 };
            total += chunk.len() - start;
            out.push(IoSlice::new(&chunk[start..]));
            if *barrier || out.len() >= 64 {
                break;
            }
        }
        total
    }

    fn consume(&mut self, mut n: usize) {
        self.len -= n.min(self.len);
        while n > 0 {
            let Some((front, _)) = self.chunks.front() else {
                return;
            };
            let avail = front.len() - self.head;
            if n >= avail {
                n -= avail;
                self.head = 0;
                self.chunks.pop_front();
            } else {
                self.head += n;
                return;
            }
        }
    }

    /// Remaining bytes as one contiguous buffer (drain-time flush).
    fn take_bytes(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for (i, (chunk, _)) in self.chunks.iter().enumerate() {
            let start = if i == 0 { self.head } else { 0 };
            out.extend_from_slice(&chunk[start..]);
        }
        self.chunks.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

struct EConn {
    stream: TcpStream,
    fd: RawFd,
    kind: ConnKind,
    inbuf: crate::conn::FrameBuf,
    /// HTTP request head (metrics connections only).
    head: Vec<u8>,
    out: OutQueue,
    /// When the incomplete frame now buffered started arriving; reset
    /// whenever a frame completes (for HTTP: when the connection was
    /// accepted).
    partial_since: Option<Instant>,
    /// When the out-queue last became non-empty.
    write_since: Option<Instant>,
    /// Due instant of the connection's authoritative wheel entry; see
    /// [`arm`].
    timer_at: Option<Instant>,
    /// Currently-registered epoll interest bits.
    interest: u32,
    /// Flush pending bytes, then close; reads are finished.
    closing: bool,
    /// Peer half-closed its sending side (RDHUP / EOF).
    read_shut: bool,
}

enum Fate {
    Keep,
    Close,
}

enum FrameFail {
    /// Policy eviction started; goodbye frame queued, stop reading.
    Evicted,
    /// Chaos reset killed the socket outright.
    Reset,
}

struct Slab {
    entries: Vec<Option<EConn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: EConn) -> (usize, u32) {
        if let Some(idx) = self.free.pop() {
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.entries[idx] = Some(conn);
            (idx, self.gens[idx])
        } else {
            self.entries.push(Some(conn));
            self.gens.push(0);
            (self.entries.len() - 1, 0)
        }
    }

    fn get_mut(&mut self, idx: usize, gen: u32) -> Option<&mut EConn> {
        if idx >= self.entries.len() || self.gens[idx] != gen {
            return None;
        }
        self.entries[idx].as_mut()
    }

    fn remove(&mut self, idx: usize) -> Option<EConn> {
        let conn = self.entries.get_mut(idx)?.take()?;
        self.free.push(idx);
        Some(conn)
    }
}

struct LoopState {
    shared: Arc<Shared>,
    reader: SwapReader<V3View>,
    listener: Arc<TcpListener>,
    metrics_listener: Option<Arc<TcpListener>>,
    lm: LoopMetrics,
    ep: Epoll,
    slab: Slab,
    wheel: TimerWheel,
    /// Admitted proto connections alive on this loop; reconciled
    /// against `Shared::open_conns` on drop so a panicking loop (chaos
    /// scripted crash) can't leak budget and shed forever after.
    proto_live: usize,
    http_live: usize,
    /// Listener deregistered after fd exhaustion; a wheel entry
    /// re-registers it once [`ACCEPT_RETRY`] has passed.
    listener_parked: bool,
    metrics_parked: bool,
}

impl Drop for LoopState {
    fn drop(&mut self) {
        self.shared
            .open_conns
            .fetch_sub(self.proto_live, Ordering::SeqCst);
    }
}

fn run_loop(
    shared: Arc<Shared>,
    reader: SwapReader<V3View>,
    listener: Arc<TcpListener>,
    metrics_listener: Option<Arc<TcpListener>>,
    index: usize,
) {
    let lm = shared.loop_metrics[index].clone();
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(_) => {
            shared.metrics.setup_errors.inc();
            return;
        }
    };
    if ep
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .is_err()
    {
        shared.metrics.setup_errors.inc();
        return;
    }
    if let Some(ml) = &metrics_listener {
        if ep.add(ml.as_raw_fd(), EPOLLIN, TOKEN_METRICS).is_err() {
            shared.metrics.setup_errors.inc();
        }
    }
    let mut st = LoopState {
        shared,
        reader,
        listener,
        metrics_listener,
        lm,
        ep,
        slab: Slab::new(),
        wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS, Instant::now()),
        proto_live: 0,
        http_live: 0,
        listener_parked: false,
        metrics_parked: false,
    };
    st.run();
}

impl LoopState {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::default(); MAX_EVENTS];
        let mut expired: Vec<u64> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.drain();
                return;
            }
            let n = self.ep.wait(&mut events, WAIT_MS).unwrap_or_default();
            self.lm.wakeups.inc();
            if n > 0 {
                self.lm.events.add(n as u64);
                self.lm.batch.record(n as u64);
            }
            for ev in events.iter().take(n) {
                let (bits, tok) = (ev.events, ev.data);
                match tok {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_METRICS => self.accept_metrics_ready(),
                    tok => self.conn_ready(tok, bits),
                }
            }
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for &tok in &expired {
                self.timer_fired(tok);
            }
        }
    }

    // ---- admission ---------------------------------------------------

    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.lm.accepts.inc();
                    self.admit_proto(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Typically EMFILE/ENFILE: accept cannot succeed
                    // until an fd frees up, but the backlog keeps the
                    // listener level-triggered-ready. Park it and let
                    // the wheel re-register after a breather.
                    self.park_listener();
                    return;
                }
            }
        }
    }

    fn park_listener(&mut self) {
        if self.listener_parked {
            return;
        }
        self.shared.metrics.setup_errors.inc();
        let _ = self.ep.del(self.listener.as_raw_fd());
        self.listener_parked = true;
        self.wheel
            .schedule(Instant::now() + ACCEPT_RETRY, TOKEN_LISTENER);
    }

    fn unpark_listener(&mut self) {
        if !self.listener_parked {
            return;
        }
        match self
            .ep
            .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        {
            Ok(()) => {
                self.listener_parked = false;
                self.accept_ready();
            }
            Err(_) => {
                // Epoll itself is out of fds; keep waiting.
                self.wheel
                    .schedule(Instant::now() + ACCEPT_RETRY, TOKEN_LISTENER);
            }
        }
    }

    fn admit_proto(&mut self, mut stream: TcpStream) {
        if let Some(chaos) = &self.shared.chaos {
            let action = chaos.on_accept();
            if action.panic {
                // Scripted crash: the supervisor notices the dead loop,
                // attributes it to the acceptor, and respawns. The
                // accepted connection dies un-acked; clients retry.
                panic!("chaos: scripted acceptor crash");
            }
            if let Some(d) = action.delay {
                std::thread::sleep(d);
            }
        }
        let prev = self.shared.open_conns.fetch_add(1, Ordering::SeqCst);
        if prev >= self.shared.conn_budget {
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.sheds.inc();
            // Overload shedding: one frame, then close. Freshly accepted
            // sockets are blocking (accept does not inherit the
            // listener's non-blocking flag); the timeout stops a
            // zero-window peer pinning the loop.
            let _ = stream.set_write_timeout(Some(self.shared.limits.write_deadline));
            let _ = write_frame(&mut stream, &Response::Overload.encode());
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.setup_errors.inc();
            return;
        }
        let fd = stream.as_raw_fd();
        let conn = EConn {
            stream,
            fd,
            kind: ConnKind::Proto,
            inbuf: crate::conn::FrameBuf::new(
                self.shared.limits.max_frame,
                self.shared.limits.max_inflight,
            ),
            head: Vec::new(),
            out: OutQueue::default(),
            partial_since: None,
            write_since: None,
            timer_at: None,
            interest: EPOLLIN | EPOLLRDHUP,
            closing: false,
            read_shut: false,
        };
        let (idx, gen) = self.slab.insert(conn);
        self.proto_live += 1;
        if self
            .ep
            .add(fd, EPOLLIN | EPOLLRDHUP, token_of(idx, gen))
            .is_err()
        {
            self.slab.remove(idx);
            self.proto_live -= 1;
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.setup_errors.inc();
        }
    }

    fn accept_metrics_ready(&mut self) {
        let Some(ml) = self.metrics_listener.clone() else {
            return;
        };
        for _ in 0..ACCEPT_BATCH {
            match ml.accept() {
                Ok((stream, _)) => {
                    if self.http_live >= HTTP_CAP || stream.set_nonblocking(true).is_err() {
                        continue; // drop: scrapers retry
                    }
                    let fd = stream.as_raw_fd();
                    let now = Instant::now();
                    let due = now + self.shared.limits.request_deadline;
                    let conn = EConn {
                        stream,
                        fd,
                        kind: ConnKind::Http,
                        inbuf: crate::conn::FrameBuf::new(0, 1),
                        head: Vec::new(),
                        out: OutQueue::default(),
                        partial_since: Some(now),
                        write_since: None,
                        // Scrapes get the request deadline too, so a
                        // stalled scraper can't pin an fd forever.
                        timer_at: Some(due),
                        interest: EPOLLIN | EPOLLRDHUP,
                        closing: false,
                        read_shut: false,
                    };
                    let (idx, gen) = self.slab.insert(conn);
                    self.http_live += 1;
                    let tok = token_of(idx, gen);
                    if self.ep.add(fd, EPOLLIN | EPOLLRDHUP, tok).is_err() {
                        self.slab.remove(idx);
                        self.http_live -= 1;
                        continue;
                    }
                    self.wheel.schedule(due, tok);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if !self.metrics_parked {
                        let _ = self.ep.del(ml.as_raw_fd());
                        self.metrics_parked = true;
                        self.wheel
                            .schedule(Instant::now() + ACCEPT_RETRY, TOKEN_METRICS);
                    }
                    return;
                }
            }
        }
    }

    fn unpark_metrics(&mut self) {
        if !self.metrics_parked {
            return;
        }
        let Some(ml) = self.metrics_listener.clone() else {
            return;
        };
        if self.ep.add(ml.as_raw_fd(), EPOLLIN, TOKEN_METRICS).is_ok() {
            self.metrics_parked = false;
            self.accept_metrics_ready();
        } else {
            self.wheel
                .schedule(Instant::now() + ACCEPT_RETRY, TOKEN_METRICS);
        }
    }

    // ---- readiness dispatch ------------------------------------------

    fn conn_ready(&mut self, tok: u64, bits: u32) {
        let (idx, gen) = split_token(tok);
        let Some(conn) = self.slab.get_mut(idx, gen) else {
            return;
        };
        let fate = match conn.kind {
            ConnKind::Proto => proto_ready(
                &self.shared,
                &self.reader,
                &self.lm,
                &mut self.wheel,
                conn,
                tok,
                bits,
            ),
            ConnKind::Http => http_ready(&self.shared, conn, bits),
        };
        match fate {
            Fate::Keep => self.sync_interest(idx, gen, tok),
            Fate::Close => self.close(idx),
        }
    }

    fn sync_interest(&mut self, idx: usize, gen: u32, tok: u64) {
        let Some(conn) = self.slab.get_mut(idx, gen) else {
            return;
        };
        let mut want = 0;
        if !conn.closing {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        if want == 0 {
            // Closing with nothing left to flush.
            self.close(idx);
            return;
        }
        if want != conn.interest {
            let fd = conn.fd;
            conn.interest = want;
            if self.ep.modify(fd, want, tok).is_err() {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slab.remove(idx) else {
            return;
        };
        let _ = self.ep.del(conn.fd);
        match conn.kind {
            ConnKind::Proto => {
                self.proto_live -= 1;
                self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            }
            ConnKind::Http => self.http_live -= 1,
        }
        // `conn.stream` drops here and closes the fd.
    }

    // ---- timers ------------------------------------------------------

    fn timer_fired(&mut self, tok: u64) {
        match tok {
            TOKEN_LISTENER => {
                self.unpark_listener();
                return;
            }
            TOKEN_METRICS => {
                self.unpark_metrics();
                return;
            }
            _ => {}
        }
        let (idx, gen) = split_token(tok);
        let deadlines = (
            self.shared.limits.request_deadline,
            self.shared.limits.write_deadline,
        );
        let Some(conn) = self.slab.get_mut(idx, gen) else {
            return; // lazily-cancelled: the conn is gone or reused
        };
        let now = Instant::now();
        match conn.timer_at {
            Some(due) if due <= now => conn.timer_at = None,
            // A superseded entry: the authoritative one is still
            // pending, or no deadline is.
            _ => return,
        }
        let (request_deadline, write_deadline) = deadlines;
        if conn.kind == ConnKind::Http {
            if let Some(t0) = conn.partial_since {
                if now >= t0 + request_deadline {
                    self.close(idx);
                }
            }
            return;
        }
        if let Some(t0) = conn.partial_since {
            if now >= t0 + request_deadline {
                // Slow loris: a started frame outlived its deadline.
                self.shared.metrics.evicted_slow.inc();
                begin_eviction(conn, "request deadline exceeded");
                conn.write_since = Some(now);
                arm(
                    &mut self.wheel,
                    &mut conn.timer_at,
                    tok,
                    now + write_deadline,
                );
                let _ = flush_out(&self.lm, conn);
                if conn.out.is_empty() {
                    self.close(idx);
                } else {
                    self.sync_interest(idx, gen, tok);
                }
                return;
            }
        }
        if let Some(w0) = conn.write_since {
            if now >= w0 + write_deadline {
                // Write-stalled peer: its queued responses outlived the
                // write deadline; close without ceremony.
                self.close(idx);
                return;
            }
        }
        // Re-validate failed (deadline moved or cleared): reschedule at
        // the earliest still-pending deadline, if any.
        let next = [
            conn.partial_since.map(|t| t + request_deadline),
            conn.write_since.map(|t| t + write_deadline),
        ]
        .into_iter()
        .flatten()
        .min();
        if let Some(due) = next {
            arm(&mut self.wheel, &mut conn.timer_at, tok, due);
        }
    }

    // ---- graceful drain ----------------------------------------------

    /// Answer the frames every connection already delivered, flush, and
    /// close: requests buffered (or already sitting in the kernel
    /// receive buffer) get answers, and the peer sees them before EOF.
    fn drain(&mut self) {
        let indices: Vec<usize> = (0..self.slab.entries.len())
            .filter(|&i| self.slab.entries[i].is_some())
            .collect();
        for idx in indices {
            let Some(mut conn) = self.slab.remove(idx) else {
                continue;
            };
            let _ = self.ep.del(conn.fd);
            if conn.kind == ConnKind::Proto {
                if !conn.closing {
                    let mut total = 0usize;
                    let mut chunk = [0u8; READ_CHUNK];
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(n) => {
                                self.lm.reads.inc();
                                conn.inbuf.push(&chunk[..n]);
                                if process_frames(&self.shared, &self.reader, &self.lm, &mut conn)
                                    .is_err()
                                {
                                    break;
                                }
                                total += n;
                                if total >= READ_SWEEP_MAX {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                self.shared.metrics.drained.inc();
                self.proto_live -= 1;
                self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            } else {
                self.http_live -= 1;
            }
            let bytes = conn.out.take_bytes();
            if !bytes.is_empty() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn
                    .stream
                    .set_write_timeout(Some(self.shared.limits.write_deadline));
                let _ = conn.stream.write_all(&bytes);
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Make sure a wheel entry for `tok` fires by `due`. A connection keeps
/// one authoritative entry, due at `*timer_at`: a later deadline waits
/// for it (its expiry re-arms at the next pending deadline), and only
/// an earlier one schedules a new entry, superseding the old. Without
/// this, a connection that starts a deadline on every read would add an
/// entry per read that re-arms itself on every expiry.
fn arm(wheel: &mut TimerWheel, timer_at: &mut Option<Instant>, tok: u64, due: Instant) {
    if timer_at.is_none_or(|t| due < t) {
        wheel.schedule(due, tok);
        *timer_at = Some(due);
    }
}

// ---- per-connection state machines (free functions keep the borrows
// of `LoopState`'s fields disjoint) -----------------------------------

fn proto_ready(
    shared: &Shared,
    reader: &SwapReader<V3View>,
    lm: &LoopMetrics,
    wheel: &mut TimerWheel,
    conn: &mut EConn,
    tok: u64,
    bits: u32,
) -> Fate {
    if bits & EPOLLERR != 0 {
        return Fate::Close;
    }
    if !conn.closing && bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
        let mut total = 0usize;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_shut = true;
                    break;
                }
                Ok(n) => {
                    lm.reads.inc();
                    conn.inbuf.push(&chunk[..n]);
                    // Extract per chunk: the flood cap counts the frames
                    // one chunk carries, and complete frames in one
                    // chunk decode as one batch.
                    match process_frames(shared, reader, lm, conn) {
                        Ok(()) => {}
                        Err(FrameFail::Evicted) => break,
                        Err(FrameFail::Reset) => return Fate::Close,
                    }
                    total += n;
                    if total >= READ_SWEEP_MAX {
                        break; // level-triggered epoll re-notifies
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if !conn.closing {
            if conn.inbuf.has_bytes() {
                if conn.partial_since.is_none() {
                    let now = Instant::now();
                    conn.partial_since = Some(now);
                    arm(
                        wheel,
                        &mut conn.timer_at,
                        tok,
                        now + shared.limits.request_deadline,
                    );
                }
            } else {
                conn.partial_since = None;
            }
        }
    }
    if flush_out(lm, conn).is_err() {
        return Fate::Close;
    }
    if conn.out.is_empty() {
        conn.write_since = None;
    } else if conn.write_since.is_none() {
        let now = Instant::now();
        conn.write_since = Some(now);
        arm(
            wheel,
            &mut conn.timer_at,
            tok,
            now + shared.limits.write_deadline,
        );
    }
    if conn.read_shut && !conn.closing {
        if conn.inbuf.has_bytes() {
            // Mid-frame EOF: nothing useful can follow.
            return Fate::Close;
        }
        // TCP half-close (EPOLLRDHUP): the peer is done sending but
        // still reads; flush the answers, then close our side too.
        conn.closing = true;
    }
    if conn.closing && conn.out.is_empty() {
        return Fate::Close;
    }
    Fate::Keep
}

fn process_frames(
    shared: &Shared,
    reader: &SwapReader<V3View>,
    lm: &LoopMetrics,
    conn: &mut EConn,
) -> Result<(), FrameFail> {
    let frames = match conn.inbuf.extract() {
        Ok(frames) => frames,
        Err(_) => {
            shared.metrics.evicted_flood.inc();
            begin_eviction(conn, "frame limits exceeded");
            return Err(FrameFail::Evicted);
        }
    };
    if frames.is_empty() {
        return Ok(());
    }
    // A completed frame met its deadline; bytes left over begin the
    // next frame, whose deadline starts when the caller sees them.
    conn.partial_since = None;
    lm.frames.add(frames.len() as u64);
    for payload in frames {
        if let Some(chaos) = &shared.chaos {
            // One draw per received frame: a deterministic event
            // count, unlike reads, whose number depends on timing.
            let action = chaos.on_frame();
            if action.panic {
                // Scripted crash before any response: the query is
                // un-acked, the client retries, the supervisor respawns
                // this loop and attributes a worker restart.
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
        queue_response(shared, conn, &response.encode())?;
    }
    Ok(())
}

/// Frame a response payload into the out-queue, honouring the chaos
/// write plan: splits become flush barriers (two syscalls), resets
/// write the cut prefix and kill the socket.
fn queue_response(shared: &Shared, conn: &mut EConn, payload: &[u8]) -> Result<(), FrameFail> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    let plan = match &shared.chaos {
        Some(c) => c.write_plan(frame.len()),
        None => WritePlan::Intact,
    };
    match plan {
        WritePlan::Intact => {
            conn.out.push(frame, false);
            Ok(())
        }
        WritePlan::Split(cut) if cut > 0 && cut < frame.len() => {
            let tail = frame.split_off(cut);
            conn.out.push(frame, true);
            conn.out.push(tail, false);
            Ok(())
        }
        WritePlan::Split(_) => {
            conn.out.push(frame, false);
            Ok(())
        }
        WritePlan::ResetAfter(cut) => {
            let cut = cut.min(frame.len());
            let _ = (&conn.stream).write(&frame[..cut]);
            let _ = conn.stream.shutdown(Shutdown::Both);
            Err(FrameFail::Reset)
        }
    }
}

/// Queue the goodbye frame and stop reading; the connection closes once
/// the flush lands (or its write deadline expires). Bypasses the chaos
/// write plan, so fault draws stay charged to answers only.
fn begin_eviction(conn: &mut EConn, reason: &str) {
    let payload = Response::Error(reason.to_string()).encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    conn.out.push(frame, false);
    conn.closing = true;
    // Nothing more is read, so no request deadline applies; only the
    // write deadline can close a peer that never drains the goodbye.
    conn.partial_since = None;
}

/// Vectored flush: submit response bursts with `writev` until the
/// queue empties or the kernel buffer fills. `Ok` means "keep the
/// connection"; the caller re-arms `EPOLLOUT` when bytes remain.
fn flush_out(lm: &LoopMetrics, conn: &mut EConn) -> io::Result<()> {
    loop {
        if conn.out.is_empty() {
            return Ok(());
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(16);
        let submitted = conn.out.gather(&mut slices);
        let wrote = match writev_fd(conn.fd, &slices) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        drop(slices);
        lm.writevs.inc();
        conn.out.consume(wrote);
        if wrote < submitted {
            return Ok(()); // kernel send buffer is full; wait for EPOLLOUT
        }
    }
}

fn http_ready(shared: &Shared, conn: &mut EConn, bits: u32) -> Fate {
    if bits & EPOLLERR != 0 {
        return Fate::Close;
    }
    if !conn.closing && bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
        let mut chunk = [0u8; 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_shut = true;
                    break;
                }
                Ok(n) => {
                    conn.head.extend_from_slice(&chunk[..n]);
                    if http::head_complete(&conn.head) || conn.head.len() >= http::MAX_HEAD {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if http::head_complete(&conn.head) || conn.head.len() >= http::MAX_HEAD {
            let out = http::respond(&conn.head, || shared.metrics.registry.render());
            conn.out.push(out, false);
            conn.closing = true;
        } else if conn.read_shut {
            return Fate::Close;
        }
    }
    if !conn.out.is_empty() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(4);
        let _ = conn.out.gather(&mut slices);
        match writev_fd(conn.fd, &slices) {
            Ok(n) => {
                drop(slices);
                conn.out.consume(n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Fate::Close,
        }
    }
    if conn.closing && conn.out.is_empty() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        return Fate::Close;
    }
    Fate::Keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_keeps_one_live_wheel_entry() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut wheel = TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS, t0);
        let mut timer_at = None;
        // A deadline restarted on every read: later dues reuse the entry.
        for i in 0..100 {
            arm(&mut wheel, &mut timer_at, 7, t0 + ms(300 + 30 * i));
        }
        assert_eq!(wheel.len(), 1);
        assert_eq!(timer_at, Some(t0 + ms(300)));
        // An earlier deadline needs its own entry.
        arm(&mut wheel, &mut timer_at, 7, t0 + ms(100));
        assert_eq!(wheel.len(), 2);
        assert_eq!(timer_at, Some(t0 + ms(100)));
    }
}
