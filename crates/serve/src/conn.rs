//! Per-connection framing policy and server-side socket chaos.
//!
//! [`FrameBuf`] accumulates one connection's bytes and enforces the
//! server's robustness policy at the framing layer, before any protocol
//! decode runs:
//!
//! - **Max inflight frames.** A peer that pipelines an unbounded burst
//!   of frames in one write could monopolise its loop; more than
//!   [`ConnLimits::max_inflight`] complete frames extracted at once is
//!   an eviction.
//! - **Oversize frames** are rejected by length prefix alone — the
//!   payload is never buffered.
//!
//! The event loops enforce the time-based half of [`ConnLimits`]: a
//! started frame must complete within its request deadline (slow-loris
//! defence), and queued responses must drain within the write deadline.
//! Idle connections (no partial frame buffered) are never evicted.
//!
//! [`ChaosNet`] is the seeded server-side fault schedule the loops
//! consult at every accept, received frame and response write.

use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The splitmix64 step, the workspace's standard deterministic PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many injections of each server-side network fault a chaos run
/// may perform. Mirrors [`bdrmap_types::FsFaultBudget`] on the socket
/// side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetFaultBudget {
    /// Response frames written in two chunks with a pause between.
    pub split: u32,
    /// Responses cut off mid-write by a TCP reset.
    pub reset: u32,
    /// Accepted connections delayed before admission.
    pub accept_delay: u32,
    /// Received frames whose handling stalls before dispatch.
    pub stall: u32,
}

impl NetFaultBudget {
    fn as_array(self) -> [u32; 4] {
        [self.split, self.reset, self.accept_delay, self.stall]
    }

    /// Total injections across all kinds.
    pub fn total(self) -> u64 {
        self.as_array().iter().map(|&n| u64::from(n)).sum()
    }
}

/// Seeded configuration for server-side socket chaos.
#[derive(Clone, Copy, Debug)]
pub struct ChaosNetConfig {
    /// Seed for the fault schedule; same seed, same event sequence →
    /// same injections.
    pub seed: u64,
    /// Probability that an eligible event draws a fault.
    pub fault_rate: f64,
    /// Per-kind injection caps.
    pub budget: NetFaultBudget,
    /// How long an injected accept delay or stall lasts.
    pub delay: Duration,
    /// With `Some(n)`, panic the loop that makes the server's nth
    /// accept (a scripted, count-based crash — deterministic where a
    /// random draw would not be). Fires at most once.
    pub accept_panic_after: Option<u64>,
    /// With `Some(n)`, panic the loop that receives the server's nth
    /// request frame. Fires at most once.
    pub worker_panic_after: Option<u64>,
}

impl Default for ChaosNetConfig {
    fn default() -> Self {
        ChaosNetConfig {
            seed: 0,
            fault_rate: 0.0,
            budget: NetFaultBudget::default(),
            delay: Duration::from_millis(40),
            accept_panic_after: None,
            worker_panic_after: None,
        }
    }
}

/// Injected-fault counts, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetFaultCounts {
    /// Split response writes performed.
    pub split: u64,
    /// Mid-write resets performed.
    pub reset: u64,
    /// Accept delays performed.
    pub accept_delay: u64,
    /// Pre-dispatch stalls performed.
    pub stall: u64,
}

/// What a loop should do with the connection it just accepted.
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptAction {
    /// Sleep this long before admitting the connection.
    pub delay: Option<Duration>,
    /// Panic the loop (a scripted crash the watchdog counts as an
    /// acceptor restart).
    pub panic: bool,
}

/// What a loop should do with a request frame it just received.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameAction {
    /// Sleep this long before dispatching (a stuck read, from the
    /// client's point of view).
    pub stall: Option<Duration>,
    /// Panic the loop (a scripted crash the watchdog counts as a worker
    /// restart).
    pub panic: bool,
}

/// How to write one response frame.
#[derive(Clone, Copy, Debug)]
pub enum WritePlan {
    /// One clean write.
    Intact,
    /// Two writes split at this byte offset, with a pause between.
    Split(usize),
    /// Write this many bytes, then hard-close the socket.
    ResetAfter(usize),
}

#[derive(Debug)]
struct NetState {
    fault_rate: f64,
    delay: Duration,
    accept_panic_after: Option<u64>,
    worker_panic_after: Option<u64>,
    /// Independent rng streams per event family. Fault draws must be
    /// charged against *deterministic* events (a response write, a
    /// received frame, an accept) — never against read polls, whose
    /// count depends on timing — and separate streams keep one
    /// family's draw count from perturbing another's schedule.
    write_rng: u64,
    frame_rng: u64,
    accept_rng: u64,
    remaining: [u32; 4],
    injected: [u64; 4],
    accepts: u64,
    frames: u64,
    acceptor_panicked: bool,
    worker_panicked: bool,
    quiesced: bool,
}

/// Seeded server-side socket chaos: frame splitting, mid-write resets,
/// accept delays, pre-dispatch stalls, and scripted loop crashes.
/// Clones share state, so every loop and the test harness observe one
/// schedule and one budget.
#[derive(Clone, Debug)]
pub struct ChaosNet {
    state: Arc<Mutex<NetState>>,
}

const SPLIT: usize = 0;
const RESET: usize = 1;
const ACCEPT_DELAY: usize = 2;
const STALL: usize = 3;

impl ChaosNet {
    /// Build from a seeded config.
    pub fn new(cfg: ChaosNetConfig) -> ChaosNet {
        ChaosNet {
            state: Arc::new(Mutex::new(NetState {
                fault_rate: cfg.fault_rate,
                delay: cfg.delay,
                accept_panic_after: cfg.accept_panic_after,
                worker_panic_after: cfg.worker_panic_after,
                write_rng: cfg.seed ^ 0x57_52_49_54_45,
                frame_rng: cfg.seed ^ 0x46_52_41_4d_45,
                accept_rng: cfg.seed ^ 0x41_43_43_45_50,
                remaining: cfg.budget.as_array(),
                injected: [0; 4],
                accepts: 0,
                frames: 0,
                acceptor_panicked: false,
                worker_panicked: false,
                quiesced: false,
            })),
        }
    }

    /// Stop injecting: every later event passes through clean, and no
    /// scripted panic fires. The quiescent-convergence invariant rests
    /// on this.
    pub fn quiesce(&self) {
        self.lock().quiesced = true;
    }

    /// Injected-fault counts so far.
    pub fn counts(&self) -> NetFaultCounts {
        let st = self.lock();
        NetFaultCounts {
            split: st.injected[SPLIT],
            reset: st.injected[RESET],
            accept_delay: st.injected[ACCEPT_DELAY],
            stall: st.injected[STALL],
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, NetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Charge one fault draw of `kind` against its rng stream and
    /// budget. `rng` is selected by the caller so each event family
    /// has an independent schedule.
    fn draw(st: &mut NetState, kind: usize, pick_rng: fn(&mut NetState) -> &mut u64) -> bool {
        if st.quiesced || st.remaining[kind] == 0 {
            return false;
        }
        let bits = splitmix64(pick_rng(st));
        let p = (bits >> 11) as f64 / (1u64 << 53) as f64;
        if p >= st.fault_rate {
            return false;
        }
        st.remaining[kind] -= 1;
        st.injected[kind] += 1;
        true
    }

    /// Called by a loop once per accepted connection.
    pub fn on_accept(&self) -> AcceptAction {
        let mut st = self.lock();
        st.accepts += 1;
        if !st.quiesced && !st.acceptor_panicked && st.accept_panic_after == Some(st.accepts) {
            st.acceptor_panicked = true;
            return AcceptAction {
                delay: None,
                panic: true,
            };
        }
        let delay = ChaosNet::draw(&mut st, ACCEPT_DELAY, |s| &mut s.accept_rng).then(|| st.delay);
        AcceptAction {
            delay,
            panic: false,
        }
    }

    /// Called by a loop once per received request frame, before
    /// dispatch.
    pub fn on_frame(&self) -> FrameAction {
        let mut st = self.lock();
        st.frames += 1;
        if !st.quiesced && !st.worker_panicked && st.worker_panic_after == Some(st.frames) {
            st.worker_panicked = true;
            return FrameAction {
                stall: None,
                panic: true,
            };
        }
        let stall = ChaosNet::draw(&mut st, STALL, |s| &mut s.frame_rng).then(|| st.delay);
        FrameAction {
            stall,
            panic: false,
        }
    }

    /// Which scripted panics have fired so far, as
    /// `(acceptor, worker)`. The supervisor uses this to attribute a
    /// dead loop to the component whose scripted crash killed it, which
    /// keeps the `{component="acceptor"|"worker"}` restart split.
    pub fn scripted_fired(&self) -> (bool, bool) {
        let st = self.lock();
        (st.acceptor_panicked, st.worker_panicked)
    }

    /// Called once per response frame about to be written; `frame_len`
    /// is the full encoded length including the length prefix.
    pub fn write_plan(&self, frame_len: usize) -> WritePlan {
        let mut st = self.lock();
        // Reset takes precedence: it is the harsher fault, and giving
        // each kind its own draw keeps the schedules independent.
        if ChaosNet::draw(&mut st, RESET, |s| &mut s.write_rng) {
            let cut = if frame_len > 1 {
                1 + (splitmix64(&mut st.write_rng) as usize) % (frame_len - 1)
            } else {
                0
            };
            return WritePlan::ResetAfter(cut);
        }
        if ChaosNet::draw(&mut st, SPLIT, |s| &mut s.write_rng) && frame_len > 1 {
            let cut = 1 + (splitmix64(&mut st.write_rng) as usize) % (frame_len - 1);
            return WritePlan::Split(cut);
        }
        WritePlan::Intact
    }
}

/// Per-connection policy knobs, derived from
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// A started frame must complete within this long.
    pub request_deadline: Duration,
    /// Queued response bytes must drain within this long.
    pub write_deadline: Duration,
    /// Max complete frames buffered from one connection at once.
    pub max_inflight: usize,
    /// Max frame payload length in bytes.
    pub max_frame: usize,
}

/// Why a [`FrameBuf`] refused its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeded the frame cap.
    Oversize(usize),
    /// More than `max_inflight` complete frames buffered at once.
    Flood,
}

/// Policy-enforcing accumulator for length-prefixed frames, used by the
/// event loops' per-connection state machines and the scale load
/// generator's client loop. Push raw bytes in, extract complete
/// payloads out; the
/// oversize check runs on the length prefix alone (the payload is
/// never buffered) and the flood cap bounds frames per extraction.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    max_frame: usize,
    max_inflight: usize,
}

impl FrameBuf {
    /// An empty buffer enforcing the given caps.
    pub fn new(max_frame: usize, max_inflight: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            max_frame,
            max_inflight: max_inflight.max(1),
        }
    }

    /// Append raw bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when bytes of an incomplete frame (or unextracted complete
    /// frames) are buffered — the state a request deadline applies to.
    pub fn has_bytes(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pull every complete frame out, in arrival order. Errors on
    /// oversize length prefixes and on inflight floods; complete
    /// frames parsed before the violation are dropped with the
    /// connection.
    pub fn extract(&mut self) -> Result<Vec<Vec<u8>>, FrameError> {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        loop {
            let rest = &self.buf[pos..];
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len > self.max_frame {
                return Err(FrameError::Oversize(len));
            }
            if rest.len() < 4 + len {
                break;
            }
            frames.push(rest[4..4 + len].to_vec());
            if frames.len() > self.max_inflight {
                return Err(FrameError::Flood);
            }
            pos += 4 + len;
        }
        self.buf.drain(..pos);
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    #![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]
    use super::*;
    use crate::proto::{Request, Response};
    use crate::{ServeConfig, Server};
    use bdrmap_types::wire::{read_frame, MAX_FRAME};
    use std::io::{self, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn same_seed_same_net_schedule() {
        let cfg = ChaosNetConfig {
            seed: 99,
            fault_rate: 0.5,
            budget: NetFaultBudget {
                split: 3,
                reset: 2,
                accept_delay: 2,
                stall: 3,
            },
            delay: Duration::from_millis(1),
            ..Default::default()
        };
        let drive = |net: &ChaosNet| {
            let mut plans = Vec::new();
            for i in 0..24 {
                if i % 3 == 0 {
                    let _ = net.on_accept();
                }
                let _ = net.on_frame();
                plans.push(format!("{:?}", net.write_plan(64)));
            }
            (plans, net.counts())
        };
        let (p1, c1) = drive(&ChaosNet::new(cfg));
        let (p2, c2) = drive(&ChaosNet::new(cfg));
        assert_eq!(p1, p2, "same seed, same event order, same plans");
        assert_eq!(c1, c2);
        assert!(c1.split + c1.reset + c1.accept_delay + c1.stall > 0);
    }

    #[test]
    fn net_budget_exhausts_then_clean() {
        let net = ChaosNet::new(ChaosNetConfig {
            seed: 7,
            fault_rate: 1.0,
            budget: NetFaultBudget {
                reset: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut resets = 0;
        for _ in 0..10 {
            if matches!(net.write_plan(64), WritePlan::ResetAfter(_)) {
                resets += 1;
            }
        }
        assert_eq!(resets, 2, "budget caps injections");
        assert_eq!(net.counts().reset, 2);
        assert!(matches!(net.write_plan(64), WritePlan::Intact));
    }

    #[test]
    fn scripted_panics_fire_exactly_once() {
        let net = ChaosNet::new(ChaosNetConfig {
            accept_panic_after: Some(2),
            worker_panic_after: Some(3),
            ..Default::default()
        });
        let accepts: Vec<bool> = (0..5).map(|_| net.on_accept().panic).collect();
        assert_eq!(accepts, [false, true, false, false, false]);
        let frames: Vec<bool> = (0..5).map(|_| net.on_frame().panic).collect();
        assert_eq!(frames, [false, false, true, false, false]);
    }

    #[test]
    fn quiesced_net_injects_nothing() {
        let net = ChaosNet::new(ChaosNetConfig {
            seed: 11,
            fault_rate: 1.0,
            budget: NetFaultBudget {
                split: 100,
                reset: 100,
                accept_delay: 100,
                stall: 100,
            },
            accept_panic_after: Some(1),
            worker_panic_after: Some(1),
            ..Default::default()
        });
        net.quiesce();
        for _ in 0..8 {
            let a = net.on_accept();
            assert!(!a.panic && a.delay.is_none());
            let f = net.on_frame();
            assert!(!f.panic && f.stall.is_none());
            assert!(matches!(net.write_plan(64), WritePlan::Intact));
        }
        assert_eq!(net.counts(), NetFaultCounts::default());
    }

    #[test]
    fn framebuf_extracts_incrementally() {
        let mut fb = FrameBuf::new(1024, 8);
        let f = frame(b"abc");
        fb.push(&f[..5]);
        assert_eq!(fb.extract().unwrap(), Vec::<Vec<u8>>::new());
        assert!(fb.has_bytes());
        fb.push(&f[5..]);
        fb.push(&frame(b"defg"));
        let got = fb.extract().unwrap();
        assert_eq!(got, vec![b"abc".to_vec(), b"defg".to_vec()]);
        assert!(!fb.has_bytes());
    }

    #[test]
    fn framebuf_enforces_caps() {
        let mut fb = FrameBuf::new(8, 2);
        fb.push(&(64u32).to_be_bytes());
        assert_eq!(fb.extract(), Err(FrameError::Oversize(64)));

        let mut fb = FrameBuf::new(1024, 2);
        for _ in 0..3 {
            fb.push(&frame(b"x"));
        }
        assert_eq!(fb.extract(), Err(FrameError::Flood));
    }

    // The tests below hold one connection against a one-loop server:
    // the policy above as the event loops apply it on a real socket
    // (serving is Linux-only).

    fn fast() -> ServeConfig {
        ServeConfig {
            workers: 1,
            request_deadline: Duration::from_millis(120),
            ..ServeConfig::default()
        }
    }

    /// A server over an empty map and one client connected to it.
    fn pair(cfg: ServeConfig) -> (Server, TcpStream) {
        let server = Server::start(&bdrmap_core::BorderMap::default(), cfg).unwrap();
        let client = TcpStream::connect(server.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (server, client)
    }

    fn request(req: &Request) -> Vec<u8> {
        frame(&req.encode())
    }

    fn answer(client: &mut TcpStream) -> Response {
        let payload = read_frame(client, MAX_FRAME).unwrap().expect("an answer");
        Response::decode(&payload).unwrap()
    }

    /// Read until the server closes the connection; the reason in the
    /// last `Error` frame seen, which an eviction sends as its goodbye.
    fn goodbye(client: &mut TcpStream) -> Option<String> {
        let mut reason = None;
        while let Ok(Some(payload)) = read_frame(client, MAX_FRAME) {
            if let Ok(Response::Error(r)) = Response::decode(&payload) {
                reason = Some(r);
            }
        }
        reason
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn whole_frames_arrive() {
        let (server, mut client) = pair(fast());
        let mut both = request(&Request::Stats);
        both.extend_from_slice(&request(&Request::Health));
        client.write_all(&both).unwrap();
        assert!(matches!(answer(&mut client), Response::Stats(_)));
        assert!(matches!(answer(&mut client), Response::Health(_)));
        // The peer is done: the server closes between frames.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(read_frame(&mut client, MAX_FRAME).unwrap(), None);
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn split_frame_reassembles() {
        let (server, mut client) = pair(fast());
        let f = request(&Request::Stats);
        client.write_all(&f[..3]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        client.write_all(&f[3..]).unwrap();
        match answer(&mut client) {
            Response::Stats(s) => assert_eq!(s.evicted_slow, 0),
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_ticks_without_eviction() {
        let (server, mut client) = pair(fast());
        // No bytes at all: idle, not an error, even past the deadline.
        std::thread::sleep(3 * fast().request_deadline);
        client.write_all(&request(&Request::Stats)).unwrap();
        match answer(&mut client) {
            Response::Stats(s) => assert_eq!((s.evicted_slow, s.evicted_flood), (0, 0)),
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn slow_loris_is_evicted() {
        let (server, mut client) = pair(fast());
        // Two bytes of a header, then silence: the deadline applies.
        let start = Instant::now();
        client.write_all(&[0, 0]).unwrap();
        assert_eq!(
            goodbye(&mut client).as_deref(),
            Some("request deadline exceeded")
        );
        assert!(start.elapsed() >= fast().request_deadline);
        assert_eq!(server.stats().evicted_slow, 1);
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn flood_is_evicted() {
        let (server, mut client) = pair(ServeConfig {
            max_inflight: 4,
            ..fast()
        });
        client
            .write_all(&request(&Request::Stats).repeat(32))
            .unwrap();
        assert_eq!(
            goodbye(&mut client).as_deref(),
            Some("frame limits exceeded")
        );
        let s = server.stats();
        assert_eq!((s.evicted_flood, s.evicted_slow), (1, 0));
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn oversize_prefix_rejected_without_buffering() {
        // A deadline far past the read timeout: only a refusal on the
        // prefix alone, with no payload awaited, can close us in time.
        let (server, mut client) = pair(ServeConfig {
            request_deadline: Duration::from_secs(60),
            ..fast()
        });
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert_eq!(
            goodbye(&mut client).as_deref(),
            Some("frame limits exceeded")
        );
        let s = server.stats();
        assert_eq!((s.evicted_flood, s.evicted_slow), (1, 0));
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn split_send_still_delivers_a_whole_frame() {
        let (server, mut client) = pair(ServeConfig {
            chaos: Some(ChaosNetConfig {
                seed: 3,
                fault_rate: 1.0,
                budget: NetFaultBudget {
                    split: 1,
                    ..Default::default()
                },
                ..Default::default()
            }),
            ..fast()
        });
        client.write_all(&request(&Request::Stats)).unwrap();
        assert!(matches!(answer(&mut client), Response::Stats(_)));
        assert_eq!(server.net_fault_counts().unwrap().split, 1);
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reset_send_errors_and_kills_the_socket() {
        let (server, mut client) = pair(ServeConfig {
            chaos: Some(ChaosNetConfig {
                seed: 5,
                fault_rate: 1.0,
                budget: NetFaultBudget {
                    reset: 1,
                    ..Default::default()
                },
                ..Default::default()
            }),
            ..fast()
        });
        client.write_all(&request(&Request::Stats)).unwrap();
        // The client sees a truncated stream, never a valid frame.
        let err = read_frame(&mut client, MAX_FRAME).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
            ),
            "got {err:?}"
        );
        assert_eq!(server.net_fault_counts().unwrap().reset, 1);
        // Only that socket died: the loop answers the next connection.
        let mut next = TcpStream::connect(server.local_addr()).unwrap();
        next.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        next.write_all(&request(&Request::Stats)).unwrap();
        assert!(matches!(answer(&mut next), Response::Stats(_)));
        server.shutdown();
    }
}
