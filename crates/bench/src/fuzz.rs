//! Seeded structure-aware fuzzing of the BDRM v4 snapshot reader, the
//! bdrmapd wire protocol, the trace-store codec and the BDRC probe
//! checkpoint reader.
//!
//! No external fuzzing engine: a splitmix64 generator (the same
//! pattern as the dataplane fault layer) drives every draw, so a run
//! is reproduced exactly by its seed — a CI failure is one `--fuzz-seed`
//! away from a local repro.
//!
//! The fuzzer starts from *valid* artifacts (border maps encoded as
//! BDRM v4, encoded requests and responses) and applies
//! structure-aware mutations: bit flips, byte overwrites, truncations,
//! extensions, internal splices, and 32-bit boundary overwrites aimed
//! at length/count fields. Half the snapshot mutants are then
//! *re-sealed* with [`flat::seal`]: every section CRC and the footer
//! are recomputed over the mutated bytes, so the mutant gets past the
//! checksums into the structural pass and, when that accepts it, the
//! query path bdrmapd serves from. Two properties must hold:
//!
//! 1. **No panic.** Decoding arbitrary bytes returns `Ok` or a typed
//!    error; it never unwinds. Neither does any query against an
//!    accepted snapshot: each one is opened as a [`V3View`] and asked
//!    for owner, border, neighbor, router and link answers over the
//!    corpus addresses plus misses. (Checked under `catch_unwind`.)
//! 2. **Canonical acceptance.** If a mutant that was *not* re-sealed is
//!    accepted, re-encoding the decoded map must reproduce its bytes
//!    exactly. Accepted-but-not-canonical inputs are how silent
//!    corruption propagates through a snapshot store. Re-sealed mutants
//!    are exempt: a file whose checksums verify is trusted as written
//!    (see [`bdrmap_core::flat`]), so only the no-panic property
//!    applies to them.
//!
//! Raw frame reading ([`read_frame`]) gets its own hostile stream
//! cases (lying length prefixes, truncated bodies) with the same
//! no-panic requirement.
//!
//! The trace-store codec ([`bdrmap_probe::store`]) is held to both
//! properties with no exemption: it is what `bdrmap infer --in`, probe
//! checkpoints, journal records and journal checkpoints read back.
//!
//! So is the BDRC checkpoint reader ([`Checkpoint::decode`]), whose
//! corpus is every checkpoint a tiny checkpointed probing run writes.
//! Half its mutants get a recomputed CRC32C trailer, so they reach the
//! structural checks behind the checksum; a re-sealed mutant that is
//! accepted must still re-encode to its own bytes.

use bdrmap_core::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_core::{flat, snapshot, QueryRead, V3View};
use bdrmap_probe::{store, ProbeBudget, Trace, TraceCollection, TraceHop, TraceStop};
use bdrmap_probe::{Checkpoint, CheckpointConfig, RunOptions};
use bdrmap_serve::{answer, Request, Response};
use bdrmap_types::integrity::crc32c;
use bdrmap_types::wire::read_frame;
use bdrmap_types::{addr, Addr, Asn, Prefix, Vfs, VfsBackend};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One splitmix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Aggregated outcome of one fuzzing run. CI asserts the two failure
/// counters are zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzReport {
    /// Total mutants exercised.
    pub iterations: u64,
    /// Mutants aimed at the snapshot reader.
    pub snapshot_cases: u64,
    /// Snapshot mutants the reader accepted; each was then queried
    /// through a [`V3View`].
    pub snapshot_accepted: u64,
    /// Mutants aimed at the request/response codecs.
    pub wire_cases: u64,
    /// Hostile raw-frame streams fed to `read_frame`.
    pub frame_cases: u64,
    /// Mutants aimed at the trace-store codec.
    pub trace_store_cases: u64,
    /// Trace-store mutants the codec accepted.
    pub trace_store_accepted: u64,
    /// Mutants aimed at the BDRC checkpoint reader.
    pub checkpoint_cases: u64,
    /// Checkpoint mutants the reader accepted.
    pub checkpoint_accepted: u64,
    /// Mutants the decoder accepted.
    pub accepted: u64,
    /// Mutants the decoder rejected with a typed error.
    pub rejected: u64,
    /// Decodes that panicked — must be zero.
    pub panics: u64,
    /// Accepted mutants whose re-encode was not a byte-level fixed
    /// point — must be zero.
    pub canonical_violations: u64,
}

impl FuzzReport {
    /// True when every property held.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.canonical_violations == 0
    }

    /// Stable JSON for CI logs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"fuzz\",\n  \"schema\": 1,\n  \"iterations\": {},\n  \"snapshot_cases\": {},\n  \"snapshot_accepted\": {},\n  \"wire_cases\": {},\n  \"frame_cases\": {},\n  \"trace_store_cases\": {},\n  \"trace_store_accepted\": {},\n  \"checkpoint_cases\": {},\n  \"checkpoint_accepted\": {},\n  \"accepted\": {},\n  \"rejected\": {},\n  \"panics\": {},\n  \"canonical_violations\": {}\n}}\n",
            self.iterations,
            self.snapshot_cases,
            self.snapshot_accepted,
            self.wire_cases,
            self.frame_cases,
            self.trace_store_cases,
            self.trace_store_accepted,
            self.checkpoint_cases,
            self.checkpoint_accepted,
            self.accepted,
            self.rejected,
            self.panics,
            self.canonical_violations
        )
    }
}

/// Hand-built border maps exercising every structural variant the
/// format has: empty, option-dense, multi-router, multi-link.
fn snapshot_corpus() -> Vec<BorderMap> {
    let r = |addrs: &[u32], owner: Option<u32>, h: Option<Heuristic>| InferredRouter {
        addrs: addrs.iter().map(|&a| addr(a)).collect(),
        other_addrs: vec![],
        owner: owner.map(Asn),
        heuristic: h,
        min_hop: 3,
    };
    let empty = BorderMap::default();
    let small = BorderMap {
        routers: vec![
            r(&[0x0A00_0001], Some(64500), Some(Heuristic::VpInternal)),
            r(
                &[0x0A00_0002, 0x0A00_0003],
                Some(64501),
                Some(Heuristic::OneNet),
            ),
        ],
        links: vec![InferredLink {
            near: 0,
            far: Some(1),
            far_as: Asn(64501),
            near_addr: Some(addr(0x0A00_0001)),
            far_addr: Some(addr(0x0A00_0002)),
            heuristic: Heuristic::OneNet,
        }],
        packets: 1234,
        elapsed_ms: 60_000,
    };
    let dense = BorderMap {
        routers: vec![
            InferredRouter {
                addrs: vec![addr(0xC000_0201)],
                other_addrs: vec![addr(0xC000_0202), addr(0xC000_0203)],
                owner: None,
                heuristic: None,
                min_hop: 0,
            },
            r(&[0xC000_0204], Some(64502), Some(Heuristic::SilentNeighbor)),
            r(&[], None, None),
        ],
        links: vec![
            InferredLink {
                near: 0,
                far: None,
                far_as: Asn(64502),
                near_addr: None,
                far_addr: None,
                heuristic: Heuristic::SilentNeighbor,
            },
            InferredLink {
                near: 1,
                far: Some(2),
                far_as: Asn(64503),
                near_addr: Some(addr(0xC000_0204)),
                far_addr: None,
                heuristic: Heuristic::ThirdParty,
            },
        ],
        packets: u64::MAX,
        elapsed_ms: 0,
    };
    vec![empty, small, dense]
}

/// Valid protocol payloads covering every request and response shape.
fn wire_corpus() -> Vec<Vec<u8>> {
    use bdrmap_core::OwnerAnswer;
    use bdrmap_serve::{HealthInfo, LinkInfo, Stats};
    let link = LinkInfo {
        link: 9,
        near_router: 2,
        near_owner: Some(Asn(64500)),
        far_as: Asn(64501),
        near_addr: Some(addr(0x0A00_0001)),
        far_addr: None,
        heuristic: Heuristic::OneNet,
    };
    let mut corpus: Vec<Vec<u8>> = vec![
        Request::Owner(addr(0xC000_0201)).encode(),
        Request::Border(addr(0x0A00_0001)).encode(),
        Request::Neighbor(Asn(64501)).encode(),
        Request::Stats.encode(),
        Request::Reload("/snap/gen-000001.bdrm".into()).encode(),
        Request::Reload(String::new()).encode(),
        Request::Health.encode(),
    ];
    corpus.extend([
        Response::Owner(Some(OwnerAnswer {
            asn: Asn(64500),
            prefix: "10.0.0.0/8".parse().unwrap(),
            router: Some(2),
        }))
        .encode(),
        Response::Owner(None).encode(),
        Response::Border(Some(link)).encode(),
        Response::Border(None).encode(),
        Response::Neighbor(vec![link, link]).encode(),
        Response::Neighbor(vec![]).encode(),
        Response::Stats(Stats {
            generation: 3,
            routers: 4,
            links: 2,
            prefixes: 9,
            queries: 100,
            sheds: 1,
            last_build_us: 500,
            last_swap_us: 5,
            evicted_slow: 1,
            evicted_flood: 0,
            setup_errors: 0,
            reload_failures: 2,
            drained: 1,
            breaker_state: 1,
        })
        .encode(),
        Response::Reloaded {
            generation: 2,
            build_us: 900,
            swap_us: 12,
            routers: 4,
            links: 2,
        }
        .encode(),
        Response::Health(HealthInfo {
            generation: 5,
            swap_epoch: 6,
            breaker_state: 2,
            uptime_ms: 100_000,
            reload_failures: 1,
            journal_lsn: 17,
            recovered_batches: 2,
        })
        .encode(),
        Response::Overload.encode(),
        Response::Error("reload failed after 3 attempt(s)".into()).encode(),
    ]);
    corpus
}

/// Trace collections covering every hop shape (gap, time-exceeded,
/// other-ICMP, both flags), every stop reason, and the empty store.
fn trace_store_corpus() -> Vec<Vec<u8>> {
    let hop = |ttl: u8, a: Option<u32>, te: bool, oi: bool| TraceHop {
        ttl,
        addr: a.map(addr),
        time_exceeded: te,
        other_icmp: oi,
        ipid: ttl as u16 * 257,
    };
    let tr = |dst: u32, stop: TraceStop, hops: Vec<TraceHop>| Trace {
        dst: addr(dst),
        target_as: Asn(64500 + dst % 7),
        hops,
        stop,
    };
    let full = TraceCollection {
        traces: vec![
            tr(
                0x0A01_0101,
                TraceStop::Completed,
                vec![
                    hop(1, Some(0x0A00_0001), true, false),
                    hop(2, None, false, false),
                    hop(3, Some(0x0A00_0009), false, true),
                    hop(4, Some(0x0A00_000D), true, true),
                ],
            ),
            tr(0x0A02_0202, TraceStop::GapLimit, vec![]),
            tr(
                0x0A03_0303,
                TraceStop::StopSet,
                vec![hop(1, Some(0x0A00_0001), true, false)],
            ),
            tr(
                0x0A04_0404,
                TraceStop::MaxTtl,
                vec![hop(255, None, false, false)],
            ),
        ],
        budget: ProbeBudget {
            packets: 4321,
            elapsed_ms: 98_765,
        },
    };
    [TraceCollection::default(), full]
        .iter()
        .map(|c| store::encode(c).to_vec())
        .collect()
}

/// Decode a trace-store mutant and enforce both properties: no panic,
/// and an accepted store re-encodes to exactly its own bytes.
fn check_trace_store(bytes: &[u8]) -> Outcome {
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        store::decode(bytes::Bytes::copy_from_slice(bytes))
    }));
    match decoded {
        Err(_) => Outcome::Panicked,
        Ok(Err(_)) => Outcome::Rejected,
        Ok(Ok(coll)) if store::encode(&coll)[..] == *bytes => Outcome::Accepted,
        Ok(Ok(_)) => Outcome::NotCanonical,
    }
}

/// A filesystem that keeps every atomically written file in memory, in
/// write order, and refuses everything else.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Vec<Vec<u8>>>>);

impl VfsBackend for Recorder {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        Err(std::io::Error::other(format!(
            "{}: not recorded",
            path.display()
        )))
    }
    fn write_atomic(&self, _: &Path, data: &[u8]) -> std::io::Result<()> {
        self.0.lock().expect("recorder lock").push(data.to_vec());
        Ok(())
    }
    fn append(&self, path: &Path, _: &[u8]) -> std::io::Result<()> {
        Err(std::io::Error::other(format!(
            "{}: append unsupported",
            path.display()
        )))
    }
    fn rename(&self, from: &Path, _: &Path) -> std::io::Result<()> {
        Err(std::io::Error::other(format!(
            "{}: rename unsupported",
            from.display()
        )))
    }
    fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every checkpoint a checkpointed probing run of the first six target
/// ASes of a tiny world writes, one after every second AS: router
/// runtime state of every table, and trace blobs from small to full.
fn checkpoint_corpus() -> Vec<Vec<u8>> {
    let sc = bdrmap_eval::Scenario::build("tiny", &bdrmap_topo::TopoConfig::tiny(42));
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    let ip2as = sc.input.ip2as_for_probing();
    let recorder = Recorder::default();
    let cfg = CheckpointConfig {
        every: 2,
        path: "fuzz.bdrc".into(),
        vfs: Vfs::new(recorder.clone()),
    };
    let opts = RunOptions {
        parallelism: 1,
        ..RunOptions::default()
    };
    bdrmap_probe::run_traces_checkpointed(
        &sc.engine(0),
        &targets[..targets.len().min(6)],
        opts,
        |a| ip2as.is_external(a),
        &cfg,
        None,
    )
    .expect("recorded checkpoints never fail");
    let written = recorder.0.lock().expect("recorder lock").clone();
    written
}

/// Recompute a checkpoint mutant's CRC32C trailer over its body.
fn reseal_checkpoint(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let crc = crc32c(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_be_bytes());
    }
}

/// Decode a checkpoint mutant and enforce both properties: no panic,
/// and an accepted checkpoint re-encodes to exactly its own bytes.
fn check_checkpoint(bytes: &[u8]) -> Outcome {
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        Checkpoint::decode(bytes::Bytes::copy_from_slice(bytes))
    }));
    match decoded {
        Err(_) => Outcome::Panicked,
        Ok(Err(_)) => Outcome::Rejected,
        Ok(Ok(cp)) if cp.encode()[..] == *bytes => Outcome::Accepted,
        Ok(Ok(_)) => Outcome::NotCanonical,
    }
}

/// Apply one structure-aware mutation. Draw order is fixed, so the
/// whole mutant stream replays from the seed.
fn mutate(base: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let kind = splitmix64(rng) % 6;
    match kind {
        0 => {
            // Single bit flip.
            if !bytes.is_empty() {
                let i = (splitmix64(rng) as usize) % bytes.len();
                bytes[i] ^= 1 << (splitmix64(rng) % 8);
            }
        }
        1 => {
            // Byte overwrite.
            if !bytes.is_empty() {
                let i = (splitmix64(rng) as usize) % bytes.len();
                bytes[i] = splitmix64(rng) as u8;
            }
        }
        2 => {
            // Truncate to a strict prefix.
            let keep = (splitmix64(rng) as usize) % bytes.len().max(1);
            bytes.truncate(keep);
        }
        3 => {
            // Extend with garbage.
            let extra = 1 + (splitmix64(rng) as usize) % 16;
            for _ in 0..extra {
                bytes.push(splitmix64(rng) as u8);
            }
        }
        4 => {
            // Splice: copy one internal chunk over another.
            if bytes.len() >= 8 {
                let len = 1 + (splitmix64(rng) as usize) % (bytes.len() / 2);
                let src = (splitmix64(rng) as usize) % (bytes.len() - len + 1);
                let dst = (splitmix64(rng) as usize) % (bytes.len() - len + 1);
                let chunk = bytes[src..src + len].to_vec();
                bytes[dst..dst + len].copy_from_slice(&chunk);
            }
        }
        _ => {
            // Boundary-value u32 overwrite: aims at length/count/CRC
            // fields, which all live on arbitrary offsets.
            if bytes.len() >= 4 {
                let i = (splitmix64(rng) as usize) % (bytes.len() - 3);
                let v: u32 = match splitmix64(rng) % 5 {
                    0 => 0,
                    1 => 1,
                    2 => u32::MAX,
                    3 => bytes.len() as u32,
                    _ => 1 << 30,
                };
                bytes[i..i + 4].copy_from_slice(&v.to_be_bytes());
            }
        }
    }
    bytes
}

enum Outcome {
    Accepted,
    Rejected,
    Panicked,
    NotCanonical,
}

/// A corpus snapshot: its v4 bytes and where their sections sit.
struct CorpusSnap {
    bytes: Vec<u8>,
    layout: flat::Layout,
}

/// Recompute every section CRC and the footer of a mutant of `lay`'s
/// file with [`flat::seal`], as a writer that seals whatever it wrote
/// would. A mutant whose length changed has no layout to seal against
/// and is left alone.
fn reseal(bytes: &mut [u8], lay: &flat::Layout) -> bool {
    if bytes.len() != lay.total {
        return false;
    }
    flat::seal(bytes, lay);
    true
}

/// What every accepted snapshot is asked: the corpus maps' addresses
/// and neighbors, plus misses.
struct Probes {
    addrs: Vec<Addr>,
    asns: Vec<Asn>,
    /// Prefix-owner overlay the view is opened under, so the side-trie
    /// merge is exercised too.
    overlay: Vec<(Prefix, Asn)>,
}

fn probes(corpus: &[BorderMap]) -> Probes {
    let mut addrs = vec![addr(0), addr(u32::MAX), addr(0xC633_6401)];
    let mut asns = vec![Asn(0), Asn(u32::MAX)];
    for map in corpus {
        for r in &map.routers {
            addrs.extend(r.addrs.iter().chain(&r.other_addrs));
        }
        for l in &map.links {
            addrs.extend(l.near_addr.into_iter().chain(l.far_addr));
            asns.push(l.far_as);
        }
    }
    Probes {
        addrs,
        asns,
        overlay: vec![
            (Prefix::new(addr(0x0A00_0000), 8), Asn(64999)),
            (Prefix::new(addr(0x0A00_0001), 32), Asn(64998)),
            (Prefix::new(addr(0xC000_0200), 24), Asn(64997)),
        ],
    }
}

/// Ask an accepted view everything bdrmapd could be asked, over the
/// probe set and the view's own interfaces and ids, plus misses.
fn query_everything(view: &V3View, p: &Probes) {
    let mut addrs = p.addrs.clone();
    for id in 0..view.num_routers() + 2 {
        if let Some((_, ifaces)) = black_box(view.router_info(id)) {
            addrs.extend(ifaces);
        }
    }
    let asns = p.asns.iter().copied().chain(view.neighbor_list());
    let requests = addrs
        .iter()
        .flat_map(|&a| [Request::Owner(a), Request::Border(a)])
        .chain(asns.map(Request::Neighbor));
    for req in requests {
        black_box(answer(view, &req));
    }
    for id in 0..view.num_links() + 2 {
        black_box((view.link_rec(id), view.link_answer(id)));
    }
    black_box((view.num_prefixes(), view.packets(), view.elapsed_ms()));
}

/// Open a snapshot mutant, query it if accepted, and enforce both fuzz
/// properties.
fn check_snapshot(bytes: &[u8], resealed: bool, p: &Probes) -> Outcome {
    let opened = catch_unwind(AssertUnwindSafe(|| {
        V3View::open(bytes.to_vec(), p.overlay.iter().copied()).map(|view| {
            query_everything(&view, p);
            view.to_border_map()
        })
    }));
    let map = match opened {
        Err(_) => return Outcome::Panicked,
        Ok(Err(_)) => return Outcome::Rejected,
        Ok(Ok(map)) => map,
    };
    // Canonical: an accepted mutant nobody re-sealed re-encodes to
    // exactly its own bytes.
    if resealed || snapshot::encode_v3(&map).as_deref() == Ok(bytes) {
        Outcome::Accepted
    } else {
        Outcome::NotCanonical
    }
}

/// Decode a protocol mutant as both a request and a response (a fuzzer
/// does not know which side the bytes were meant for — neither does a
/// hostile peer) and enforce both properties on whichever accepts.
fn check_wire(bytes: &[u8]) -> Outcome {
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        (Request::decode(bytes), Response::decode(bytes))
    }));
    let (req, resp) = match decoded {
        Err(_) => return Outcome::Panicked,
        Ok(pair) => pair,
    };
    let mut accepted = false;
    if let Ok(req) = req {
        accepted = true;
        let e1 = req.encode();
        if Request::decode(&e1).ok().map(|r| r.encode()) != Some(e1) {
            return Outcome::NotCanonical;
        }
    }
    if let Ok(resp) = resp {
        accepted = true;
        let e1 = resp.encode();
        if Response::decode(&e1).ok().map(|r| r.encode()) != Some(e1) {
            return Outcome::NotCanonical;
        }
    }
    if accepted {
        Outcome::Accepted
    } else {
        Outcome::Rejected
    }
}

/// Feed a hostile byte stream to the frame reader; only the no-panic
/// property applies (there is no value to re-encode).
fn check_frame(bytes: &[u8]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut cursor = std::io::Cursor::new(bytes);
        // Small cap so lying length prefixes are exercised cheaply.
        read_frame(&mut cursor, 1 << 16)
    }));
    match result {
        Err(_) => Outcome::Panicked,
        Ok(Ok(_)) => Outcome::Accepted,
        Ok(Err(_)) => Outcome::Rejected,
    }
}

/// Run `iters` seeded mutants across all five targets.
pub fn run(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = seed ^ 0xbd2_3a93;
    let corpus = snapshot_corpus();
    let probes = probes(&corpus);
    let snaps: Vec<CorpusSnap> = corpus
        .iter()
        .map(|m| {
            let bytes = snapshot::encode_v3(m).unwrap();
            let layout = flat::verify_integrity(&bytes).unwrap();
            CorpusSnap { bytes, layout }
        })
        .collect();
    let wires = wire_corpus();
    let stores = trace_store_corpus();
    let checkpoints = checkpoint_corpus();
    let mut report = FuzzReport::default();
    for _ in 0..iters {
        report.iterations += 1;
        let outcome = match splitmix64(&mut rng) % 7 {
            // Snapshot reader gets the biggest share: it guards
            // persistence, where corruption is stickiest.
            0 | 1 => {
                report.snapshot_cases += 1;
                let base = &snaps[(splitmix64(&mut rng) as usize) % snaps.len()];
                let mut mutant = mutate(&base.bytes, &mut rng);
                let resealed = splitmix64(&mut rng) & 1 == 0 && reseal(&mut mutant, &base.layout);
                let outcome = check_snapshot(&mutant, resealed, &probes);
                if matches!(outcome, Outcome::Accepted | Outcome::NotCanonical) {
                    report.snapshot_accepted += 1;
                }
                outcome
            }
            2 | 3 => {
                report.wire_cases += 1;
                let base = &wires[(splitmix64(&mut rng) as usize) % wires.len()];
                check_wire(&mutate(base, &mut rng))
            }
            4 => {
                report.frame_cases += 1;
                // Frames: mutate a framed wire payload so length
                // prefixes and bodies both get mangled.
                let base = &wires[(splitmix64(&mut rng) as usize) % wires.len()];
                let mut framed = (base.len() as u32).to_be_bytes().to_vec();
                framed.extend_from_slice(base);
                check_frame(&mutate(&framed, &mut rng))
            }
            5 => {
                report.trace_store_cases += 1;
                let base = &stores[(splitmix64(&mut rng) as usize) % stores.len()];
                let outcome = check_trace_store(&mutate(base, &mut rng));
                if matches!(outcome, Outcome::Accepted | Outcome::NotCanonical) {
                    report.trace_store_accepted += 1;
                }
                outcome
            }
            _ => {
                report.checkpoint_cases += 1;
                let base = &checkpoints[(splitmix64(&mut rng) as usize) % checkpoints.len()];
                let mut mutant = mutate(base, &mut rng);
                if splitmix64(&mut rng) & 1 == 0 {
                    reseal_checkpoint(&mut mutant);
                }
                let outcome = check_checkpoint(&mutant);
                if matches!(outcome, Outcome::Accepted | Outcome::NotCanonical) {
                    report.checkpoint_accepted += 1;
                }
                outcome
            }
        };
        match outcome {
            Outcome::Accepted => report.accepted += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::Panicked => report.panics += 1,
            Outcome::NotCanonical => report.canonical_violations += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_valid_before_mutation() {
        for map in snapshot_corpus() {
            let v3 = snapshot::encode_v3(&map).unwrap();
            assert!(snapshot::decode(&v3).is_ok());
        }
        for bytes in wire_corpus() {
            assert!(Request::decode(&bytes).is_ok() || Response::decode(&bytes).is_ok());
        }
        for bytes in trace_store_corpus() {
            assert!(matches!(check_trace_store(&bytes), Outcome::Accepted));
        }
        let checkpoints = checkpoint_corpus();
        assert_eq!(checkpoints.len(), 3, "one checkpoint per two target ASes");
        for bytes in &checkpoints {
            assert!(matches!(check_checkpoint(bytes), Outcome::Accepted));
            let cp = Checkpoint::decode(bytes::Bytes::copy_from_slice(bytes)).unwrap();
            assert!(!cp.traces.is_empty() && !cp.runtime.shared.is_empty());
        }
    }

    #[test]
    fn short_run_is_clean_and_deterministic() {
        let a = run(7, 2000);
        let b = run(7, 2000);
        assert_eq!(a.panics, 0, "decode panicked: {a:?}");
        assert_eq!(a.canonical_violations, 0, "non-canonical accept: {a:?}");
        assert!(a.clean());
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.snapshot_cases, b.snapshot_cases);
        assert!(a.rejected > 0, "mutations should mostly be rejected");
        assert!(
            a.snapshot_cases > 0 && a.wire_cases > 0 && a.frame_cases > 0,
            "all targets exercised: {a:?}"
        );
        assert!(
            a.trace_store_cases > 0 && a.trace_store_accepted > 0,
            "trace-store mutants reach acceptance: {a:?}"
        );
        assert!(
            a.checkpoint_cases > 0 && a.checkpoint_accepted > 0,
            "checkpoint mutants reach acceptance: {a:?}"
        );
        assert_eq!(a.checkpoint_accepted, b.checkpoint_accepted);
    }

    /// A re-sealed mutant passes the checksums, so what is left to
    /// refuse it is the structural pass — and what it leaves is served.
    #[test]
    fn resealed_mutants_reach_validation_and_the_query_path() {
        let corpus = snapshot_corpus();
        let p = probes(&corpus);
        let bytes = snapshot::encode_v3(&corpus[1]).unwrap();
        let lay = flat::verify_integrity(&bytes).unwrap();
        // Router 0's min_hop: free-form, so a sealed change is accepted
        // and decodes to a different map.
        let mut hop = bytes.clone();
        hop[lay.routers + 6] ^= 1;
        assert!(matches!(check_snapshot(&hop, false, &p), Outcome::Rejected));
        assert!(reseal(&mut hop, &lay));
        assert!(matches!(check_snapshot(&hop, true, &p), Outcome::Accepted));
        assert_eq!(snapshot::decode(&hop).unwrap().routers[0].min_hop, 2);
        // Router 0's pad byte must be zero: sealed or not, refused.
        let mut pad = bytes.clone();
        pad[lay.routers + 7] = 1;
        assert!(reseal(&mut pad, &lay));
        assert!(flat::verify_integrity(&pad).is_ok());
        assert!(matches!(check_snapshot(&pad, true, &p), Outcome::Rejected));
        // Length-changing mutants have nothing to seal against.
        let mut short = bytes[..bytes.len() - 1].to_vec();
        assert!(!reseal(&mut short, &lay));

        let r = run(7, 2000);
        assert!(
            r.snapshot_accepted > 0,
            "no mutant reached the query path: {r:?}"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(1, 500);
        let b = run(2, 500);
        assert!(a.clean() && b.clean());
        // Identical splits would be suspicious; counts should differ
        // somewhere.
        assert!(
            a.snapshot_cases != b.snapshot_cases
                || a.accepted != b.accepted
                || a.rejected != b.rejected
        );
    }
}
