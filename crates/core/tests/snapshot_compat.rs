//! Snapshot compatibility: every query answer bdrmapd serves from the
//! zero-copy [`V3View`] over BDRM v4 bytes equals the [`ScanOracle`]'s
//! answer over the same map — over real pipeline-produced maps, crafted
//! corner cases and random small maps, with and without a prefix-owner
//! overlay. The oracle shares no code with the encoder, so these
//! comparisons check the encoder's derived tables, and pinned digests
//! hold its bytes fixed. The hostile half of the suite pins
//! the reader's blast radius: truncation at every length and every
//! single-bit flip (the version preamble included) are rejected with an
//! error, never a panic, and a re-sealed file whose host index breaks
//! its contract (an ownerless or out-of-range router, a repeated or
//! descending address) is refused at open.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{
    flat, snapshot, BorderMap, Heuristic, InferredLink, InferredRouter, Input, QueryRead,
    ScanOracle, V3View,
};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions};
use bdrmap_topo::{generate, AsKind, TopoConfig};
use bdrmap_types::integrity::crc32c;
use bdrmap_types::{addr, addr_bits, Asn, Prefix};
use proptest::prelude::*;
use std::sync::Arc;

fn a(s: &str) -> bdrmap_types::Addr {
    s.parse().unwrap()
}

/// A real border map out of the full pipeline over a tiny topology,
/// probed at trace parallelism 1 so its bytes are a pure function of
/// `seed` (parallel workers share one probe clock).
fn pipeline_map(seed: u64) -> (BorderMap, Input) {
    let net = generate(&TopoConfig::tiny(seed));
    let dp = Arc::new(DataPlane::new(net));
    let mut peers: Vec<Asn> = dp
        .internet()
        .graph
        .ases()
        .filter(|&x| dp.internet().as_info(x).kind == AsKind::Tier1)
        .collect();
    peers.extend(
        dp.internet()
            .graph
            .ases()
            .filter(|&x| dp.internet().as_info(x).kind == AsKind::Stub)
            .take(6),
    );
    let view = CollectorView::collect(dp.oracle(), &peers);
    let rels = InferredRelationships::infer(&view);
    let input = Input {
        view,
        rels,
        ixp_prefixes: dp.internet().ixps.iter().map(|x| x.lan).collect(),
        rir: dp.internet().rir.clone(),
        vp_asns: dp.internet().vp_siblings.clone(),
    };
    let vp = dp.internet().vps[0].addr;
    let engine = ProbeEngine::new(Arc::clone(&dp), vp, EngineConfig::default());
    let targets = bdrmap_probe::target_blocks(&input.view, &input.vp_asns);
    let ip2as = input.ip2as_for_probing();
    let opts = RunOptions {
        parallelism: 1,
        ..RunOptions::default()
    };
    let coll = run_traces(&engine, &targets, opts, |x| ip2as.is_external(x));
    let map = bdrmap_core::run_stages(&engine, &input, &Default::default(), coll).map;
    (map, input)
}

/// A small hand-built map with every corner the codecs care about: an
/// ownerless router, a silent neighbor, a missing near_addr, one
/// interface fronting several links, and one address (10.0.0.9) that
/// two owned routers both claim.
fn crafted_map() -> BorderMap {
    BorderMap {
        routers: vec![
            InferredRouter {
                addrs: vec![a("10.0.0.1")],
                other_addrs: vec![a("10.0.0.9")],
                owner: Some(Asn(100)),
                heuristic: Some(Heuristic::VpInternal),
                min_hop: 1,
            },
            InferredRouter {
                addrs: vec![a("203.0.113.1"), a("203.0.113.5")],
                other_addrs: vec![a("10.0.0.9")],
                owner: Some(Asn(200)),
                heuristic: Some(Heuristic::OneNet),
                min_hop: 2,
            },
            InferredRouter {
                addrs: vec![a("198.51.100.1")],
                other_addrs: vec![],
                owner: None,
                heuristic: None,
                min_hop: 4,
            },
        ],
        links: vec![
            InferredLink {
                near: 0,
                far: Some(1),
                far_as: Asn(200),
                near_addr: Some(a("10.0.0.1")),
                far_addr: Some(a("203.0.113.1")),
                heuristic: Heuristic::OneNet,
            },
            InferredLink {
                near: 0,
                far: None,
                far_as: Asn(300),
                near_addr: Some(a("10.0.0.1")),
                far_addr: None,
                heuristic: Heuristic::SilentNeighbor,
            },
            InferredLink {
                near: 0,
                far: Some(1),
                far_as: Asn(200),
                near_addr: None,
                far_addr: Some(a("203.0.113.5")),
                heuristic: Heuristic::ThirdParty,
            },
        ],
        packets: 7,
        elapsed_ms: 9,
    }
}

/// Every address worth probing on `map`: all interfaces, their
/// neighbors in address space, and a few guaranteed misses.
fn probe_addrs(map: &BorderMap) -> Vec<bdrmap_types::Addr> {
    let mut probes = Vec::new();
    for r in &map.routers {
        for &x in r.addrs.iter().chain(&r.other_addrs) {
            probes.push(x);
            probes.push(addr(addr_bits(x).wrapping_add(1)));
        }
    }
    for l in &map.links {
        probes.extend(l.near_addr);
        probes.extend(l.far_addr);
    }
    probes.extend([a("0.0.0.0"), a("255.255.255.255"), a("192.0.2.77")]);
    probes
}

/// The whole read contract, compared answer by answer.
fn assert_same_answers(want: &dyn QueryRead, got: &dyn QueryRead, map: &BorderMap, tag: &str) {
    assert_eq!(want.num_routers(), got.num_routers(), "{tag}: num_routers");
    assert_eq!(want.num_links(), got.num_links(), "{tag}: num_links");
    assert_eq!(
        want.num_prefixes(),
        got.num_prefixes(),
        "{tag}: num_prefixes"
    );
    assert_eq!(
        want.num_prefix_owners(),
        got.num_prefix_owners(),
        "{tag}: num_prefix_owners"
    );
    assert_eq!(
        want.neighbor_list(),
        got.neighbor_list(),
        "{tag}: neighbors"
    );
    for x in probe_addrs(map) {
        assert_eq!(want.owner_of(x), got.owner_of(x), "{tag}: owner_of({x})");
        assert_eq!(want.border_of(x), got.border_of(x), "{tag}: border_of({x})");
    }
    let mut asns = want.neighbor_list();
    asns.push(Asn(4_200_000_000));
    for asn in asns {
        assert_eq!(
            want.neighbor_links(asn),
            got.neighbor_links(asn),
            "{tag}: neighbor_links({asn:?})"
        );
    }
    for id in 0..want.num_links() + 2 {
        assert_eq!(
            want.link_answer(id),
            got.link_answer(id),
            "{tag}: link_answer({id})"
        );
        assert_eq!(want.link_rec(id), got.link_rec(id), "{tag}: link_rec({id})");
    }
    for id in 0..want.num_routers() + 2 {
        let (w, g) = (want.router_info(id), got.router_info(id));
        assert_eq!(w.is_some(), g.is_some(), "{tag}: router_info({id})");
        if let (Some((wr, wa)), Some((gr, ga))) = (w, g) {
            assert_eq!(
                (wr.owner, wr.heuristic, wr.min_hop),
                (gr.owner, gr.heuristic, gr.min_hop),
                "{tag}: router_info({id}) record"
            );
            assert_eq!(wa, ga, "{tag}: router_info({id}) addrs");
        }
    }
}

/// A prefix-owner overlay that exercises every merge case: a /32
/// exactly shadowed by an observed router, a coarse prefix under live
/// interfaces, and one covering otherwise-unknown space.
fn overlay(map: &BorderMap) -> Vec<(Prefix, Asn)> {
    let mut v = vec![(Prefix::new(a("192.0.2.0"), 24), Asn(64999))];
    if let Some(r) = map.routers.iter().find(|r| !r.addrs.is_empty()) {
        v.push((Prefix::new(r.addrs[0], 32), Asn(65000)));
        v.push((Prefix::new(r.addrs[0], 12), Asn(65001)));
    }
    v
}

#[test]
fn view_matches_the_heap_oracle_on_a_pipeline_map() {
    let (map, _input) = pipeline_map(905);
    assert!(
        map.routers.len() > 4 && map.links.len() > 2,
        "map too small to mean much"
    );
    let over = overlay(&map);
    let bytes = snapshot::encode_v3(&map).unwrap();

    let reference = ScanOracle::with_prefixes(&map, over.iter().copied());
    let view = V3View::open(bytes.clone(), over.iter().copied()).unwrap();
    assert_same_answers(&reference, &view, &map, "v3 view");
    let bare = ScanOracle::new(&map);
    let bare_view = V3View::open(bytes.clone(), std::iter::empty()).unwrap();
    assert_same_answers(&bare, &bare_view, &map, "bare v3 view");
    // Decoding is lossless: the oracle over the decoded map answers
    // like the one over the original.
    let decoded = snapshot::decode(&bytes).unwrap();
    let heap = ScanOracle::with_prefixes(&decoded, over.iter().copied());
    assert_same_answers(&reference, &heap, &map, "decoded map");
}

#[test]
fn view_matches_the_heap_oracle_on_the_crafted_map() {
    let map = crafted_map();
    let over = overlay(&map);
    let reference = ScanOracle::with_prefixes(&map, over.iter().copied());
    let view = V3View::open(snapshot::encode_v3(&map).unwrap(), over.iter().copied()).unwrap();
    assert_same_answers(&reference, &view, &map, "crafted v3 view");
    // And with no overlay at all.
    let bare = ScanOracle::new(&map);
    let bare_view = V3View::open(snapshot::encode_v3(&map).unwrap(), std::iter::empty()).unwrap();
    assert_same_answers(&bare, &bare_view, &map, "crafted bare view");
    // Routers 0 and 1 both list 10.0.0.9: the lowest router id wins.
    for (tag, got) in [("oracle", &reference as &dyn QueryRead), ("view", &view)] {
        let owner = got.owner_of(a("10.0.0.9")).expect("a claimed address");
        assert_eq!((owner.router, owner.asn), (Some(0), Asn(100)), "{tag}");
    }
}

/// Address `i` of a 16-address pool in 10.0.0.0/28: small enough that
/// random routers and links share addresses.
fn pooled(i: u32) -> bdrmap_types::Addr {
    addr(0x0a00_0000 + i)
}

/// A small random border map over the pool, and a prefix-owner overlay
/// for it. Addresses repeat across routers, within a router and across
/// links; an owner draw of 0 leaves a router ownerless; a link may lack
/// either address; the overlay holds random prefixes over the pool (a
/// repeated prefix among them now and then) plus the `/32` of an owned
/// router's interface, which its host entry shadows.
fn arb_case() -> impl Strategy<Value = (BorderMap, Vec<(Prefix, Asn)>)> {
    let ifaces = || prop::collection::vec(0u32..16, 0..4);
    let router = (ifaces(), ifaces(), 0u32..3, 1u8..6).prop_map(|(addrs, other, owner, hop)| {
        let owner = (owner > 0).then_some(Asn(100 * owner));
        InferredRouter {
            addrs: addrs.into_iter().map(pooled).collect(),
            other_addrs: other.into_iter().map(pooled).collect(),
            owner,
            heuristic: owner.map(|_| Heuristic::OneNet),
            min_hop: hop,
        }
    });
    let lens = prop::sample::select(vec![32u8, 30, 28, 24, 12]);
    let prefix = (0u32..16, lens, 1u32..4)
        .prop_map(|(i, len, asn)| (Prefix::new(pooled(i), len), Asn(64_000 + asn)));
    (
        prop::collection::vec(router, 1..7),
        prop::collection::vec(prefix, 0..5),
    )
        .prop_flat_map(|(routers, prefixes)| {
            let n = routers.len();
            let some_addr = || prop::option::of(0u32..16);
            let heuristic = prop::sample::select(vec![
                Heuristic::OneNet,
                Heuristic::ThirdParty,
                Heuristic::SilentNeighbor,
            ]);
            let link = (
                0..n,
                prop::option::of(0..n),
                1u32..5,
                some_addr(),
                some_addr(),
                heuristic,
            );
            (
                Just(routers),
                Just(prefixes),
                prop::collection::vec(link, 0..8),
            )
        })
        .prop_map(|(routers, mut prefixes, links)| {
            let links = links
                .into_iter()
                .map(
                    |(near, far, far_as, near_addr, far_addr, heuristic)| InferredLink {
                        near,
                        far,
                        far_as: Asn(far_as),
                        near_addr: near_addr.map(pooled),
                        far_addr: far_addr.map(pooled),
                        heuristic,
                    },
                )
                .collect();
            let owned = routers.iter().filter(|r| r.owner.is_some());
            if let Some(&x) = owned
                .flat_map(|r| r.addrs.iter().chain(&r.other_addrs))
                .next()
            {
                prefixes.push((Prefix::host(x), Asn(65_000)));
            }
            let map = BorderMap {
                routers,
                links,
                packets: 3,
                elapsed_ms: 5,
            };
            (map, prefixes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn view_matches_the_scan_oracle_on_random_maps(case in arb_case()) {
        let (map, over) = case;
        let bytes = snapshot::encode_v3(&map).unwrap();
        let view = V3View::open(bytes.clone(), over.iter().copied()).unwrap();
        let oracle = ScanOracle::with_prefixes(&map, over.iter().copied());
        assert_same_answers(&oracle, &view, &map, "random map");
        let bare = V3View::open(bytes, std::iter::empty()).unwrap();
        assert_same_answers(&ScanOracle::new(&map), &bare, &map, "random map, no overlay");
    }
}

#[test]
fn v3_round_trips_to_a_canonical_fixed_point() {
    let (map, _input) = pipeline_map(906);
    let e1 = snapshot::encode_v3(&map).unwrap();
    let m1 = snapshot::decode(&e1).unwrap();
    assert_eq!(
        snapshot::encode_v3(&m1).unwrap(),
        e1,
        "re-encode is not a fixed point"
    );
}

#[test]
fn lowest_link_id_wins_on_heap_and_view_paths() {
    // 10.0.0.1 fronts links 0 and 1 (near side of both); 203.0.113.5
    // fronts only link 2 via its far side. Both read paths must hand
    // back the lowest link id for the shared interface.
    let map = crafted_map();
    let heap = ScanOracle::new(&map);
    let bytes = snapshot::encode_v3(&map).unwrap();
    let view = V3View::open(bytes.clone(), std::iter::empty()).unwrap();
    for (tag, got) in [
        ("heap", heap.border_of(a("10.0.0.1"))),
        ("view", view.border_of(a("10.0.0.1"))),
    ] {
        let b = got.expect("shared interface must resolve");
        assert_eq!(b.link, 0, "{tag}: lowest link id must win");
        assert_eq!(b.far_as, Asn(200), "{tag}: and carry link 0's answer");
    }
    // The v3 border section stores only the winning entry per address:
    // 3 distinct bordered addresses (10.0.0.1 fronts two links), not 4
    // rows.
    let lay = flat::verify_integrity(&bytes).unwrap();
    assert_eq!(
        lay.n_border, 3,
        "v3 border index must dedup to first-per-addr"
    );
}

#[test]
fn v3_truncation_at_every_length_is_rejected() {
    let bytes = snapshot::encode_v3(&crafted_map()).unwrap();
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        assert!(
            snapshot::decode(cut).is_err(),
            "truncation to {len}/{} bytes was accepted",
            bytes.len()
        );
        assert!(
            flat::verify_integrity(cut).is_err(),
            "verify_integrity accepted a {len}-byte prefix"
        );
    }
    assert!(
        snapshot::decode(&bytes).is_ok(),
        "the untruncated file must load"
    );
}

#[test]
fn v3_single_bit_flips_are_rejected() {
    let map = crafted_map();
    let bytes = snapshot::encode_v3(&map).unwrap();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[i] ^= 1 << bit;
            // No other version parses, so a flip anywhere — the
            // magic and version preamble included — is refused.
            assert!(
                snapshot::decode(&m).is_err(),
                "flip at byte {i} bit {bit} was accepted"
            );
        }
    }
}

fn get32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn put32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn bad_host_entries_are_rejected_at_open() {
    // Routers 0 and 2 are owned, router 1 is not, so the host index
    // holds (10.0.0.1 → 0) and (10.0.0.3 → 2). Each case breaks one
    // rule the read path relies on and re-seals the file, so only the
    // structural pass can catch it. The contract is rejection at open,
    // never a panic or a wrong answer at query time.
    let router = |x: &str, owner: Option<Asn>| InferredRouter {
        addrs: vec![a(x)],
        other_addrs: vec![],
        owner,
        heuristic: owner.map(|_| Heuristic::VpInternal),
        min_hop: 1,
    };
    let map = BorderMap {
        routers: vec![
            router("10.0.0.1", Some(Asn(100))),
            router("10.0.0.2", None),
            router("10.0.0.3", Some(Asn(300))),
        ],
        links: vec![InferredLink {
            near: 0,
            far: Some(1),
            far_as: Asn(200),
            near_addr: Some(a("10.0.0.1")),
            far_addr: Some(a("10.0.0.2")),
            heuristic: Heuristic::OneNet,
        }],
        packets: 0,
        elapsed_ms: 0,
    };
    let bytes = snapshot::encode_v3(&map).unwrap();
    let lay = flat::verify_integrity(&bytes).unwrap();
    assert_eq!(lay.n_hosts, 2);
    let (e0, e1) = (lay.host_index, lay.host_index + 8);
    assert_eq!(get32(&bytes, e0 + 4), 0);

    type Corrupt = fn(&mut [u8], usize, usize);
    let cases: [(&str, Corrupt); 4] = [
        ("an ownerless router", |b, e0, _| put32(b, e0 + 4, 1)),
        ("a router id past n_routers", |b, e0, _| {
            put32(b, e0 + 4, u32::MAX)
        }),
        ("a repeated address", |b, e0, e1| put32(b, e1, get32(b, e0))),
        ("a descending address", |b, e0, e1| {
            let (x, y) = (get32(b, e0), get32(b, e1));
            put32(b, e0, y);
            put32(b, e1, x);
        }),
    ];
    for (what, corrupt) in cases {
        let mut evil = bytes.clone();
        corrupt(&mut evil, e0, e1);
        flat::seal(&mut evil, &lay);
        assert!(flat::verify_integrity(&evil).is_ok(), "{what}: sealed");
        let opened = std::panic::catch_unwind(|| V3View::open(evil.clone(), std::iter::empty()));
        assert!(
            matches!(opened, Ok(Err(snapshot::SnapshotError::Malformed))),
            "{what}: must be refused at open"
        );
        let decoded = std::panic::catch_unwind(|| snapshot::decode(&evil));
        assert!(matches!(decoded, Ok(Err(_))), "{what}: decode");
    }
}

#[test]
fn encoded_bytes_match_pinned_crcs() {
    // The v4 encoding is canonical, so a map's bytes can be pinned: a
    // change to how `encode_v3` derives or lays out its tables that
    // moves any byte must update these digests on purpose.
    let pins = [
        ("crafted", crafted_map(), (0xaf20_0653, 334)),
        ("pipeline 905", pipeline_map(905).0, (0x9dd6_4c19, 2522)),
        ("pipeline 906", pipeline_map(906).0, (0xf4c3_53f4, 2866)),
    ];
    for (tag, map, pin) in pins {
        let bytes = snapshot::encode_v3(&map).unwrap();
        assert_eq!((crc32c(&bytes), bytes.len()), pin, "{tag}");
    }
}
