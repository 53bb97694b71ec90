//! Seeded structure-aware fuzzing of the BDRM v3 snapshot reader and
//! the bdrmapd wire protocol.
//!
//! No external fuzzing engine: a splitmix64 generator (the same
//! pattern as the dataplane fault layer) drives every draw, so a run
//! is reproduced exactly by its seed — a CI failure is one `--fuzz-seed`
//! away from a local repro.
//!
//! The fuzzer starts from *valid* artifacts (border maps encoded as
//! BDRM v3, encoded requests and responses) and applies
//! structure-aware mutations: bit flips, byte overwrites, truncations,
//! extensions, internal splices, and 32-bit boundary overwrites aimed
//! at length/count fields. Half the snapshot mutants are then
//! *re-sealed*: every section CRC and the footer are recomputed over
//! the mutated bytes, so the mutant gets past the checksums into the
//! structural pass and, when that accepts it, the query path bdrmapd
//! serves from. Two properties must hold:
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

use bdrmap_core::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_core::{flat, snapshot, QueryRead, V3View};
use bdrmap_serve::{answer, Request, Response};
use bdrmap_types::integrity::crc32c;
use bdrmap_types::wire::read_frame;
use bdrmap_types::{addr, Addr, Asn, Prefix};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
            "{{\n  \"bench\": \"fuzz\",\n  \"schema\": 1,\n  \"iterations\": {},\n  \"snapshot_cases\": {},\n  \"snapshot_accepted\": {},\n  \"wire_cases\": {},\n  \"frame_cases\": {},\n  \"accepted\": {},\n  \"rejected\": {},\n  \"panics\": {},\n  \"canonical_violations\": {}\n}}\n",
            self.iterations,
            self.snapshot_cases,
            self.snapshot_accepted,
            self.wire_cases,
            self.frame_cases,
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

/// A corpus snapshot: its v3 bytes and where their sections sit.
struct CorpusSnap {
    bytes: Vec<u8>,
    layout: flat::Layout,
}

/// Recompute every section CRC and the footer of a mutant of `lay`'s
/// file, as a writer that seals whatever it wrote would. A mutant whose
/// length changed has no layout to seal against and is left alone.
fn reseal(bytes: &mut [u8], lay: &flat::Layout) -> bool {
    if bytes.len() != lay.total {
        return false;
    }
    // Each section body runs from its start up to the 4-byte CRC in
    // front of the next one; the header starts after "BDRM" + u16
    // version, and the trie's CRC sits in front of the footer.
    let starts = [
        6,
        lay.routers,
        lay.addrs,
        lay.links,
        lay.link_arena,
        lay.neighbor_index,
        lay.border_index,
        lay.trie,
        lay.total - 4,
    ];
    for w in starts.windows(2) {
        let crc_at = w[1] - 4;
        let crc = crc32c(&bytes[w[0]..crc_at]);
        bytes[crc_at..w[1]].copy_from_slice(&crc.to_le_bytes());
    }
    let foot = lay.total - 4;
    let crc = crc32c(&bytes[..foot]);
    bytes[foot..].copy_from_slice(&crc.to_le_bytes());
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

/// Run `iters` seeded mutants across all three targets.
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
    let mut report = FuzzReport::default();
    for _ in 0..iters {
        report.iterations += 1;
        let outcome = match splitmix64(&mut rng) % 5 {
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
            _ => {
                report.frame_cases += 1;
                // Frames: mutate a framed wire payload so length
                // prefixes and bodies both get mangled.
                let base = &wires[(splitmix64(&mut rng) as usize) % wires.len()];
                let mut framed = (base.len() as u32).to_be_bytes().to_vec();
                framed.extend_from_slice(base);
                check_frame(&mutate(&framed, &mut rng))
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
