//! Snapshot compatibility: every query answer bdrmapd serves from the
//! zero-copy [`V3View`] over BDRM v4 bytes is byte-identical to the
//! heap [`QueryIndex`] oracle built from the same map — over a real
//! pipeline-produced map and over crafted corner cases, with and
//! without a prefix-owner overlay. The hostile half of the suite pins
//! the reader's blast radius: truncation at every length and every
//! single-bit flip (the version preamble included) are rejected with an
//! error, never a panic, and a re-sealed file whose host index breaks
//! its contract (an ownerless or out-of-range router, a repeated or
//! descending address) is refused at open.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{
    flat, snapshot, BorderMap, Heuristic, InferredLink, InferredRouter, Input, QueryIndex,
    QueryRead, V3View,
};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions};
use bdrmap_topo::{generate, AsKind, TopoConfig};
use bdrmap_types::{addr, addr_bits, Asn, Prefix};
use std::sync::Arc;

fn a(s: &str) -> bdrmap_types::Addr {
    s.parse().unwrap()
}

/// A real border map out of the full pipeline over a tiny topology.
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
    let coll = run_traces(&engine, &targets, RunOptions::default(), |x| {
        ip2as.is_external(x)
    });
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

    let reference = QueryIndex::build_with_prefixes(&map, over.iter().copied());
    let view = V3View::open(bytes.clone(), over.iter().copied()).unwrap();
    assert_same_answers(&reference, &view, &map, "v3 view");
    let bare = QueryIndex::build(&map);
    let bare_view = V3View::open(bytes.clone(), std::iter::empty()).unwrap();
    assert_same_answers(&bare, &bare_view, &map, "bare v3 view");
    // Decoding is lossless: an oracle built from the decoded map
    // answers like the one built from the original.
    let decoded = snapshot::decode(&bytes).unwrap();
    let heap = QueryIndex::build_with_prefixes(&decoded, over.iter().copied());
    assert_same_answers(&reference, &heap, &map, "decoded heap");
}

#[test]
fn view_matches_the_heap_oracle_on_the_crafted_map() {
    let map = crafted_map();
    let over = overlay(&map);
    let reference = QueryIndex::build_with_prefixes(&map, over.iter().copied());
    let view = V3View::open(snapshot::encode_v3(&map).unwrap(), over.iter().copied()).unwrap();
    assert_same_answers(&reference, &view, &map, "crafted v3 view");
    // And with no overlay at all.
    let bare = QueryIndex::build(&map);
    let bare_view = V3View::open(snapshot::encode_v3(&map).unwrap(), std::iter::empty()).unwrap();
    assert_same_answers(&bare, &bare_view, &map, "crafted bare view");
    // Routers 0 and 1 both list 10.0.0.9: the lowest router id wins.
    for (tag, got) in [("oracle", &reference as &dyn QueryRead), ("view", &view)] {
        let owner = got.owner_of(a("10.0.0.9")).expect("a claimed address");
        assert_eq!((owner.router, owner.asn), (Some(0), Asn(100)), "{tag}");
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
    let heap = QueryIndex::build(&map);
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
