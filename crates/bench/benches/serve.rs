//! Serving-subsystem benchmarks: view-open cost (the verify, validate
//! and assemble work a `reload` pays off the hot path) and the three
//! read paths the daemon serves, measured directly against the
//! [`V3View`] it serves from — the network and framing cost on top of
//! these is what `bdrmap loadgen` reports.

use bdrmap_core::{snapshot, BdrmapConfig, QueryRead, V3View};
use bdrmap_eval::Scenario;
use bdrmap_serve::{queries_for_map, Request};
use bdrmap_topo::TopoConfig;
use bdrmap_types::SwapCell;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let sc = Scenario::build("serve-bench", &TopoConfig::re_network(61));
    let map = sc.run_vp(0, &BdrmapConfig::default());
    let bytes = snapshot::encode_v3(&map).unwrap();
    let open = || V3View::open(bytes.clone(), std::iter::empty()).unwrap();
    let index = open();
    let queries = queries_for_map(&map);

    // ------------------------------------------------------- view open
    // verify_integrity + validate_structure + overlay assembly, plus
    // the copy of the bytes the view takes ownership of.
    c.bench_function("serve/view-open", |b| {
        b.iter(|| black_box(open().num_routers()))
    });

    // -------------------------------------------------------- hot paths
    let owners: Vec<_> = queries
        .iter()
        .filter_map(|q| match q {
            Request::Owner(a) => Some(*a),
            _ => None,
        })
        .collect();
    c.bench_function("serve/owner-of-address", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % owners.len();
            black_box(index.owner_of(owners[i]))
        })
    });

    let borders: Vec<_> = queries
        .iter()
        .filter_map(|q| match q {
            Request::Border(a) => Some(*a),
            _ => None,
        })
        .collect();
    c.bench_function("serve/border-of-link", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % borders.len();
            black_box(index.border_of(borders[i]))
        })
    });

    let neighbors: Vec<_> = queries
        .iter()
        .filter_map(|q| match q {
            Request::Neighbor(asn) => Some(*asn),
            _ => None,
        })
        .collect();
    c.bench_function("serve/links-of-neighbor", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % neighbors.len();
            black_box(index.neighbor_links(neighbors[i]).len())
        })
    });

    // ---------------------------------------------- snapshot access path
    // What every query pays to pin the current snapshot, isolated from
    // the query itself.
    let cell = Arc::new(SwapCell::new(Arc::new(open())));
    let reader = SwapCell::reader(&cell);
    c.bench_function("serve/swapcell-load", |b| {
        b.iter(|| black_box(reader.load().num_routers()))
    });

    // ------------------------------------------------- wire round trip
    let req = Request::Owner(owners[0]);
    c.bench_function("serve/request-codec", |b| {
        b.iter(|| black_box(Request::decode(&req.encode()).unwrap()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
