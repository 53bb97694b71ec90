//! Integration-style tests driving the data plane over generated
//! Internets, checking the traceroute idiosyncrasies the paper relies on,
//! pinning its answers across changes, and checking its table-driven
//! decisions against the per-call derivations they replaced.

use crate::packet::{Probe, ProbeKind, RespKind};
use crate::plane::DataPlane;
use bdrmap_topo::{
    generate, AsKind, ExportStrategy, Internet, LinkKind, ResponsePolicy, TopoConfig,
};
use bdrmap_types::{Addr, Asn, IfaceId, LinkId, OrgId, RouterId};
use std::collections::HashMap;

fn plane(seed: u64) -> DataPlane {
    DataPlane::new(generate(&TopoConfig::tiny(seed)))
}

/// Run a full traceroute: probes with increasing TTL until an echo
/// reply / unreachable, too many silent hops, or the hop limit.
fn traceroute(dp: &DataPlane, src: Addr, dst: Addr) -> Vec<Option<(Addr, RespKind)>> {
    let flow = (u32::from(dst) & 0xffff) as u16;
    let mut hops = Vec::new();
    let mut gap = 0;
    for ttl in 1..=32u8 {
        let p = Probe {
            src,
            dst,
            ttl,
            flow,
            kind: ProbeKind::IcmpEcho,
            time_ms: ttl as u64 * 20,
        };
        match dp.probe(&p) {
            Some(r) => {
                gap = 0;
                let done = !matches!(r.kind, RespKind::TimeExceeded);
                hops.push(Some((r.src, r.kind)));
                if done {
                    break;
                }
            }
            None => {
                gap += 1;
                hops.push(None);
                if gap >= 5 {
                    break;
                }
            }
        }
    }
    hops
}

#[test]
fn traceroute_reaches_a_routed_destination() {
    let dp = plane(1);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // Probe toward some stub's announced prefix.
    let stub = net
        .graph
        .ases()
        .find(|&a| net.as_info(a).kind == AsKind::Stub && !net.origins.prefixes_of(a).is_empty())
        .unwrap();
    let p = net.origins.prefixes_of(stub)[0];
    let dst = p.nth(1);
    let hops = traceroute(&dp, vp, dst);
    assert!(!hops.is_empty());
    let answered = hops.iter().flatten().count();
    assert!(
        answered >= 2,
        "expected several responding hops, got {answered}: {hops:?}"
    );
}

#[test]
fn paris_stability_same_flow_same_path() {
    let dp = plane(2);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let stub = net
        .graph
        .ases()
        .find(|&a| net.as_info(a).kind == AsKind::Stub && !net.origins.prefixes_of(a).is_empty())
        .unwrap();
    let dst = net.origins.prefixes_of(stub)[0].nth(7);
    let a = traceroute(&dp, vp, dst);
    let b = traceroute(&dp, vp, dst);
    // Rate-limited routers may answer one run and not the other, but
    // wherever both runs got an answer at the same TTL, the address must
    // be identical: the per-flow path is stable.
    let mut compared = 0;
    for (ha, hb) in a.iter().zip(&b) {
        if let (Some((aa, _)), Some((ab, _))) = (ha, hb) {
            assert_eq!(aa, ab, "Paris traceroute must be stable per flow");
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "need overlapping responsive hops, got {compared}"
    );
}

#[test]
fn first_hops_belong_to_vp_network() {
    let dp = plane(3);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let stub = net
        .graph
        .ases()
        .find(|&a| net.as_info(a).kind == AsKind::Stub && !net.origins.prefixes_of(a).is_empty())
        .unwrap();
    let dst = net.origins.prefixes_of(stub)[0].nth(3);
    let hops = traceroute(&dp, vp, dst);
    let first = hops
        .iter()
        .flatten()
        .next()
        .expect("at least one responding hop");
    let owner = net
        .owner_of_addr(first.0)
        .expect("hop address is an interface");
    assert!(
        net.vp_siblings.contains(&owner),
        "first hop {} owned by {owner}, not the VP network",
        first.0
    );
}

#[test]
fn ttl_expiry_yields_time_exceeded_and_delivery_yields_echo() {
    let dp = plane(4);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // Find an interface address of a normally-responding router outside
    // the VP org but routed.
    let target = net
        .ifaces
        .iter()
        .find(|i| {
            let r = &net.routers[i.router.index()];
            r.policy == ResponsePolicy::Normal
                && !net.vp_siblings.contains(&r.owner)
                && net.origins.lookup(i.addr).is_some()
        })
        .expect("responsive external interface");
    let p = Probe {
        src: vp,
        dst: target.addr,
        ttl: 64,
        flow: 1,
        kind: ProbeKind::IcmpEcho,
        time_ms: 0,
    };
    let r = dp.probe(&p).expect("echo reply");
    assert_eq!(r.kind, RespKind::EchoReply);
    assert_eq!(
        r.src, target.addr,
        "echo reply must come from the probed address"
    );

    let p1 = Probe { ttl: 1, ..p };
    let r1 = dp.probe(&p1).expect("first hop");
    assert_eq!(r1.kind, RespKind::TimeExceeded);
    assert_ne!(r1.src, target.addr);
}

#[test]
fn firewalled_stub_hides_internal_hops() {
    // With an all-firewall customer mix, no probe into a stub's space may
    // reveal an address from the stub's own announced blocks via
    // time-exceeded.
    let mut cfg = TopoConfig::tiny(5);
    cfg.customer_policy = bdrmap_topo::PolicyMix {
        firewall: 1.0,
        silent: 0.0,
        echo_other: 0.0,
        rate_limited: 0.0,
    };
    cfg.third_party_frac = 0.0;
    cfg.virtual_router_frac = 0.0;
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    for a in net.graph.ases() {
        if net.as_info(a).kind != AsKind::Stub {
            continue;
        }
        for pfx in net.origins.prefixes_of(a) {
            let dst = pfx.nth(9);
            for h in traceroute(&dp, vp, dst).iter().flatten() {
                if h.1 == RespKind::TimeExceeded {
                    let owner = net.owner_of_addr(h.0);
                    // The stub's edge responds with the provider-assigned
                    // link address, never its own space: the address we
                    // see may be *on* the stub's router, but always maps
                    // to someone else's announced space.
                    let origin_as = net.origins.lookup(h.0).map(|o| o.origins[0]);
                    assert_ne!(origin_as, Some(a), "leaked {h:?} owner {owner:?}");
                }
            }
        }
    }
}

#[test]
fn normal_stub_reveals_internal_hop() {
    // With an all-normal mix, stubs with internal routers reveal
    // addresses in their own space.
    let mut cfg = TopoConfig::tiny(6);
    cfg.customer_policy = bdrmap_topo::PolicyMix::all_normal();
    cfg.unrouted_infra_frac = 0.0;
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut found_internal = false;
    for a in net.graph.ases() {
        if !matches!(net.as_info(a).kind, AsKind::Stub) {
            continue;
        }
        for pfx in net.origins.prefixes_of(a) {
            let dst = pfx.nth(11);
            for h in traceroute(&dp, vp, dst).iter().flatten() {
                if h.1 == RespKind::TimeExceeded
                    && net.origins.lookup(h.0).map(|o| o.origins[0]) == Some(a)
                {
                    found_internal = true;
                }
            }
        }
    }
    assert!(found_internal, "no stub revealed its own address space");
}

#[test]
fn responses_are_deterministic() {
    let dp1 = plane(7);
    let dp2 = plane(7);
    let net = dp1.internet();
    let vp = net.vps[0].addr;
    let dst = net.origins.iter().map(|o| o.prefix.nth(1)).nth(5).unwrap();
    for ttl in 1..10 {
        let p = Probe {
            src: vp,
            dst,
            ttl,
            flow: 3,
            kind: ProbeKind::IcmpEcho,
            time_ms: 50,
        };
        let a = dp1.probe(&p);
        let b = dp2.probe(&p);
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.src, y.src);
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.ipid, y.ipid);
            }
            (None, None) => {}
            other => panic!("divergent results: {other:?}"),
        }
    }
}

#[test]
fn shared_counter_router_yields_interleavable_ipids() {
    let dp = plane(8);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // Find a shared-counter router with two routed addresses.
    let router = net
        .routers
        .iter()
        .find(|r| {
            matches!(r.ipid, bdrmap_topo::IpidModel::SharedCounter { .. })
                && r.policy == ResponsePolicy::Normal
                && r.ifaces.len() >= 2
                && r.ifaces.iter().all(|i| {
                    let a = net.ifaces[i.index()].addr;
                    net.origins.lookup(a).is_some()
                })
                && !net.vp_siblings.contains(&r.owner)
        })
        .expect("need a shared-counter router");
    let a0 = net.ifaces[router.ifaces[0].index()].addr;
    let a1 = net.ifaces[router.ifaces[1].index()].addr;
    let mut ids = Vec::new();
    for (i, &dst) in [a0, a1, a0, a1].iter().enumerate() {
        let p = Probe {
            src: vp,
            dst,
            ttl: 64,
            flow: 9,
            kind: ProbeKind::IcmpEcho,
            time_ms: 1000 + i as u64,
        };
        if let Some(r) = dp.probe(&p) {
            ids.push(r.ipid);
        }
    }
    assert_eq!(ids.len(), 4, "all probes should be answered");
    // Monotone (mod wrap) across both addresses: the MIDAR test.
    for w in ids.windows(2) {
        let d = w[1].wrapping_sub(w[0]);
        assert!(
            d > 0 && d < 5000,
            "interleaved IPIDs not from one counter: {ids:?}"
        );
    }
}

#[test]
fn probe_to_unrouted_space_is_lost() {
    let dp = plane(9);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // An address in deliberately unannounced space of a non-VP AS.
    let dark = net
        .graph
        .ases()
        .filter(|&a| !net.vp_siblings.contains(&a))
        .flat_map(|a| net.as_info(a).unannounced.clone())
        .next();
    if let Some(p) = dark {
        let probe = Probe {
            src: vp,
            dst: p.nth(p.size() - 2),
            ttl: 64,
            flow: 1,
            kind: ProbeKind::IcmpEcho,
            time_ms: 0,
        };
        // Either silently lost or answered by someone on-path whose
        // covering aggregate routes it — but never an echo reply from
        // the dark address itself.
        if let Some(r) = dp.probe(&probe) {
            assert_ne!(r.kind, RespKind::EchoReply);
        }
    }
}

#[test]
fn udp_probe_mercator_behaviour() {
    let dp = plane(10);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut saw_canonical = false;
    for r in &net.routers {
        if r.unreach_src != bdrmap_topo::UnreachSrc::Canonical
            || r.policy != ResponsePolicy::Normal
            || net.vp_siblings.contains(&r.owner)
        {
            continue;
        }
        // Probe a non-loopback interface; expect the canonical (loopback)
        // address in the reply.
        let Some(target) = r.ifaces.iter().map(|i| &net.ifaces[i.index()]).find(|i| {
            i.kind != bdrmap_topo::IfaceKind::Loopback && net.origins.lookup(i.addr).is_some()
        }) else {
            continue;
        };
        let p = Probe {
            src: vp,
            dst: target.addr,
            ttl: 64,
            flow: 2,
            kind: ProbeKind::Udp,
            time_ms: 10,
        };
        if let Some(resp) = dp.probe(&p) {
            assert!(matches!(resp.kind, RespKind::DestUnreach(_)));
            if resp.src != target.addr {
                saw_canonical = true;
                break;
            }
        }
    }
    assert!(
        saw_canonical,
        "no Mercator-style canonical response observed"
    );
}

#[test]
fn vp_addresses_resolve_to_attach_routers() {
    let dp = plane(11);
    let net = dp.internet();
    for vp in &net.vps {
        assert_eq!(dp.vp_attach(vp.addr), Some(vp.attach));
    }
    assert_eq!(dp.vp_attach("9.9.9.9".parse().unwrap()), None);
}

#[test]
fn probe_from_unknown_source_is_rejected() {
    let dp = plane(12);
    let p = Probe {
        src: "203.0.113.99".parse().unwrap(),
        dst: "10.0.0.1".parse().unwrap(),
        ttl: 8,
        flow: 0,
        kind: ProbeKind::IcmpEcho,
        time_ms: 0,
    };
    assert!(dp.probe(&p).is_none());
}

#[test]
fn hot_potato_prefers_near_egress() {
    // With 19 VPs in the scaled access network, at least two VPs must use
    // different egress border routers for the same far-away prefix.
    let cfg = TopoConfig::large_access_scaled(13, 0.05);
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    // A prefix of a major peer (Subset export) or any transit customer.
    let dst = net
        .graph
        .ases()
        .filter(|&a| {
            !net.vp_siblings.contains(&a) && net.graph.relationship(net.vp_as, a).is_none()
        })
        .flat_map(|a| net.origins.prefixes_of(a))
        .map(|p| p.nth(1))
        .next()
        .expect("external destination");
    let mut egress_addrs = std::collections::HashSet::new();
    for vp in &net.vps {
        // Walk the trace; record the last VP-network address seen.
        let hops = traceroute(&dp, vp.addr, dst);
        let mut last_vp_addr = None;
        for (a, k) in hops.iter().flatten() {
            if *k == RespKind::TimeExceeded {
                if let Some(owner) = net.owner_of_addr(*a) {
                    if net.vp_siblings.contains(&owner) {
                        last_vp_addr = Some(*a);
                    }
                }
            }
        }
        if let Some(a) = last_vp_addr {
            egress_addrs.insert(net.router_of_addr(a));
        }
    }
    assert!(
        egress_addrs.len() >= 2,
        "hot potato should spread egress across VPs: {egress_addrs:?}"
    );
}

#[test]
fn third_party_source_addresses_occur() {
    // Force everyone to RFC1812 sourcing and check that at least one
    // time-exceeded hop maps to an AS that is neither the VP network nor
    // on the forward path toward the destination's origin.
    let mut cfg = TopoConfig::tiny(14);
    cfg.third_party_frac = 1.0;
    cfg.virtual_router_frac = 0.0;
    cfg.customer_policy = bdrmap_topo::PolicyMix::all_normal();
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut any_mismatch = false;
    'outer: for o in net.origins.iter() {
        let dst = o.prefix.nth(1);
        for (a, k) in traceroute(&dp, vp, dst).iter().flatten() {
            if *k != RespKind::TimeExceeded {
                continue;
            }
            let Some(owner) = net.owner_of_addr(*a) else {
                continue;
            };
            let Some(mapped) = net.origins.lookup(*a).map(|x| x.origins[0]) else {
                continue;
            };
            if mapped != owner && !net.graph.same_org(mapped, owner) {
                any_mismatch = true;
                break 'outer;
            }
        }
    }
    assert!(
        any_mismatch,
        "RFC1812 sourcing should produce at least one address mapping to a third party"
    );
}

#[test]
fn virtual_router_sources_toward_destination() {
    // A TowardDest router answers TTL-expired with the interface that
    // would forward the probe onward — so probes through it toward
    // different destinations can reveal different addresses of the same
    // physical router (the Figure 13 input).
    let mut cfg = TopoConfig::tiny(61);
    cfg.virtual_router_frac = 1.0;
    cfg.third_party_frac = 0.0;
    cfg.customer_policy = bdrmap_topo::PolicyMix::all_normal();
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // Probe toward every routed prefix; collect per-ground-truth-router
    // the set of source addresses seen in TTL-expired responses.
    let mut per_router: std::collections::BTreeMap<_, std::collections::BTreeSet<Addr>> =
        Default::default();
    for o in net.origins.iter() {
        let dst = o.prefix.nth(1);
        for h in traceroute(&dp, vp, dst).iter().flatten() {
            if h.1 == RespKind::TimeExceeded {
                if let Some(r) = net.router_of_addr(h.0) {
                    per_router.entry(r).or_default().insert(h.0);
                }
            }
        }
    }
    let multi = per_router.values().filter(|s| s.len() >= 2).count();
    assert!(
        multi >= 1,
        "with virtual-router sourcing some router must show several addresses: {per_router:?}"
    );
}

#[test]
fn firewall_answers_expiry_but_blocks_transit() {
    // The paper's R5: a firewalling border answers the TTL-expired probe
    // that dies on it, yet swallows probes that would transit.
    let mut cfg = TopoConfig::tiny(62);
    cfg.customer_policy = bdrmap_topo::PolicyMix {
        firewall: 1.0,
        silent: 0.0,
        echo_other: 0.0,
        rate_limited: 0.0,
    };
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut verified = 0;
    for a in net.graph.ases() {
        if net.as_info(a).kind != AsKind::Stub {
            continue;
        }
        // The stub's edge router firewalls; probe its own prefix.
        let Some(pfx) = net.origins.prefixes_of(a).first().copied() else {
            continue;
        };
        let hops = traceroute(&dp, vp, pfx.nth(3));
        // The last responding hop must be a TTL-expired (the edge), and
        // everything after must be silence (no DestUnreach from inside).
        let responding: Vec<_> = hops.iter().flatten().collect();
        if let Some(last) = responding.last() {
            assert_eq!(
                last.1,
                RespKind::TimeExceeded,
                "a firewalled stub must end in an expiry, not {last:?}"
            );
            verified += 1;
        }
    }
    assert!(verified >= 3, "checked {verified} stubs");
}

#[test]
fn echo_other_icmp_policy_emits_admin_filtered() {
    let mut cfg = TopoConfig::tiny(63);
    cfg.customer_policy = bdrmap_topo::PolicyMix {
        firewall: 0.0,
        silent: 0.0,
        echo_other: 1.0,
        rate_limited: 0.0,
    };
    let dp = DataPlane::new(generate(&cfg));
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut saw_admin = false;
    'outer: for a in net.graph.ases() {
        if net.as_info(a).kind != AsKind::Stub {
            continue;
        }
        for pfx in net.origins.prefixes_of(a) {
            for h in traceroute(&dp, vp, pfx.nth(5)).iter().flatten() {
                if h.1 == RespKind::DestUnreach(crate::packet::UnreachReason::AdminFiltered) {
                    // The source must map to the stub's own space — the
                    // heuristic 8.2 signal.
                    assert_eq!(net.owner_of_addr(h.0), Some(a));
                    saw_admin = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(saw_admin, "no admin-filtered response observed");
}

#[test]
fn noop_fault_plan_is_byte_identical_to_no_plan() {
    use crate::faults::FaultPlan;
    let clean = plane(70);
    let faulted = plane(70);
    // A plan with every rate at zero must be bit-for-bit inert, even
    // with a nonzero seed installed.
    faulted.set_faults(FaultPlan::with_loss(999, 0.0));
    let net = clean.internet();
    let vp = net.vps[0].addr;
    let dsts: Vec<Addr> = net.origins.iter().map(|o| o.prefix.nth(1)).collect();
    for (i, &dst) in dsts.iter().enumerate() {
        for ttl in 1..=12u8 {
            let p = Probe {
                src: vp,
                dst,
                ttl,
                flow: i as u16,
                kind: ProbeKind::IcmpEcho,
                time_ms: i as u64 * 31 + ttl as u64,
            };
            let a = clean.probe(&p);
            let b = faulted.probe(&p);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.src, y.src);
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.ipid, y.ipid);
                    assert_eq!(x.rtt_us, y.rtt_us);
                }
                (None, None) => {}
                other => panic!("zero-fault divergence at {dst} ttl {ttl}: {other:?}"),
            }
        }
    }
}

#[test]
fn faulted_runs_replay_identically() {
    use crate::faults::FaultPlan;
    let a = plane(71);
    let b = plane(71);
    a.set_faults(FaultPlan::with_loss(5, 0.25));
    b.set_faults(FaultPlan::with_loss(5, 0.25));
    let net = a.internet();
    let vp = net.vps[0].addr;
    let dsts: Vec<Addr> = net.origins.iter().map(|o| o.prefix.nth(1)).collect();
    let mut lost = 0;
    let mut answered = 0;
    for (i, &dst) in dsts.iter().enumerate() {
        for ttl in 1..=12u8 {
            let p = Probe {
                src: vp,
                dst,
                ttl,
                flow: i as u16,
                kind: ProbeKind::IcmpEcho,
                time_ms: i as u64 * 31 + ttl as u64,
            };
            let ra = a.probe(&p);
            let rb = b.probe(&p);
            match (ra, rb) {
                (Some(x), Some(y)) => {
                    answered += 1;
                    assert_eq!(x.src, y.src);
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.ipid, y.ipid);
                }
                (None, None) => lost += 1,
                other => panic!("same-seed fault divergence at {dst} ttl {ttl}: {other:?}"),
            }
        }
    }
    assert!(answered > 0, "everything lost at 25% loss");
    assert!(lost > 0, "nothing lost at 25% loss over {answered} probes");
}

#[test]
fn loss_reduces_response_rate() {
    use crate::faults::FaultPlan;
    let clean = plane(72);
    let lossy = plane(72);
    lossy.set_faults(FaultPlan::with_loss(3, 0.3));
    let net = clean.internet();
    let vp = net.vps[0].addr;
    let count = |dp: &DataPlane| {
        let mut n = 0;
        for (i, o) in net.origins.iter().enumerate() {
            for ttl in 1..=10u8 {
                let p = Probe {
                    src: vp,
                    dst: o.prefix.nth(1),
                    ttl,
                    flow: i as u16,
                    kind: ProbeKind::IcmpEcho,
                    time_ms: i as u64 * 17 + ttl as u64,
                };
                if dp.probe(&p).is_some() {
                    n += 1;
                }
            }
        }
        n
    };
    let full = count(&clean);
    let degraded = count(&lossy);
    assert!(
        degraded < full * 9 / 10,
        "30% loss should cost >10% of responses: {degraded}/{full}"
    );
    // Clearing faults restores the clean response set size.
    lossy.clear_faults();
}

#[test]
fn flap_down_window_blacks_out_forwarding() {
    use crate::faults::{FaultPlan, FlapPlan};
    let dp = plane(73);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // Collect probes that demonstrably cross a link on the clean plane:
    // answered at ttl >= 2 from a router other than the VP attach.
    let attach = dp.vp_attach(vp).unwrap();
    let mut crossing = Vec::new();
    for (i, o) in net.origins.iter().enumerate() {
        for ttl in 2..=6u8 {
            let p = Probe {
                src: vp,
                dst: o.prefix.nth(1),
                ttl,
                flow: i as u16,
                kind: ProbeKind::IcmpEcho,
                time_ms: 100,
            };
            if let Some(r) = dp.probe(&p) {
                if net.router_of_addr(r.src) != Some(attach) {
                    crossing.push(p);
                }
            }
        }
    }
    assert!(crossing.len() >= 5, "need link-crossing probes to test");
    // Every link permanently down: all of them must now be lost.
    dp.set_faults(FaultPlan {
        seed: 1,
        flap: Some(FlapPlan {
            link_frac: 1.0,
            period_ms: 1000,
            down_ms: 1000,
        }),
        ..FaultPlan::none()
    });
    for p in &crossing {
        assert!(
            dp.probe(p).is_none(),
            "probe to {} ttl {} crossed a permanently-down link",
            p.dst,
            p.ttl
        );
    }
}

#[test]
fn storms_silence_member_routers_during_bursts() {
    use crate::faults::{FaultPlan, StormPlan};
    let dp = plane(74);
    // All routers storm, 100% duty cycle: no error ICMP at all, but
    // echo replies (delivered probes) still come back.
    dp.set_faults(FaultPlan {
        seed: 2,
        storm: Some(StormPlan {
            router_frac: 1.0,
            period_ms: 1000,
            burst_ms: 1000,
        }),
        ..FaultPlan::none()
    });
    let net = dp.internet();
    let vp = net.vps[0].addr;
    let mut echo = 0;
    for (i, o) in net.origins.iter().enumerate() {
        for ttl in 1..=10u8 {
            let p = Probe {
                src: vp,
                dst: o.prefix.nth(1),
                ttl,
                flow: i as u16,
                kind: ProbeKind::IcmpEcho,
                time_ms: 50,
            };
            if let Some(r) = dp.probe(&p) {
                assert_ne!(
                    r.kind,
                    RespKind::TimeExceeded,
                    "storming router emitted error ICMP"
                );
                assert!(!matches!(r.kind, RespKind::DestUnreach(_)));
                echo += 1;
            }
        }
    }
    assert!(echo > 0, "delivered probes should still be answered");
}

#[test]
fn congestion_profile_shape() {
    use crate::plane::CongestionProfile;
    let c = CongestionProfile {
        peak_us: 10_000,
        period_ms: 1000,
    };
    // Idle at cycle start and through the second half.
    assert_eq!(c.delay_at(0), 0);
    assert_eq!(c.delay_at(600), 0);
    assert_eq!(c.delay_at(999), 0);
    // Peaks near the quarter cycle.
    let peak = c.delay_at(250);
    assert!((9_000..=10_000).contains(&peak), "peak {peak}");
    // Periodic.
    assert_eq!(c.delay_at(250), c.delay_at(1250));
}

#[test]
fn rtt_grows_with_hop_distance_and_congestion() {
    use crate::plane::CongestionProfile;
    let dp = plane(64);
    let net = dp.internet();
    let vp = net.vps[0].addr;
    // A responsive external interface.
    let target = net
        .ifaces
        .iter()
        .find(|i| {
            let r = &net.routers[i.router.index()];
            i.link.is_some()
                && r.policy == ResponsePolicy::Normal
                && !net.vp_siblings.contains(&r.owner)
                && net.origins.lookup(i.addr).is_some()
        })
        .unwrap();
    let ping = |t: u64| {
        dp.probe(&Probe {
            src: vp,
            dst: target.addr,
            ttl: 64,
            flow: 5,
            kind: ProbeKind::IcmpEcho,
            time_ms: t,
        })
    };
    let quiet = ping(0).expect("reply").rtt_us;
    assert!(quiet > 0, "RTT must be positive");
    // Hop 1 must be faster than the full path.
    let first_hop = dp
        .probe(&Probe {
            src: vp,
            dst: target.addr,
            ttl: 1,
            flow: 5,
            kind: ProbeKind::IcmpEcho,
            time_ms: 0,
        })
        .expect("first hop");
    assert!(first_hop.rtt_us < quiet, "{} !< {quiet}", first_hop.rtt_us);
    // Congest a link the probe path demonstrably crosses: the inbound
    // interface of the last time-exceeded hop identifies it.
    let hops = traceroute(&dp, vp, target.addr);
    let last_te = hops
        .iter()
        .flatten()
        .rfind(|h| h.1 == RespKind::TimeExceeded)
        .expect("trace has hops");
    let link = net
        .iface_of_addr(last_te.0)
        .and_then(|i| i.link)
        .expect("hop interface has a link");
    dp.congest(
        link,
        CongestionProfile {
            peak_us: 50_000,
            period_ms: 1000,
        },
    );
    let busy = ping(250).expect("reply").rtt_us;
    let idle = ping(0).expect("reply").rtt_us;
    assert!(busy > quiet + 20_000, "busy {busy} vs quiet {quiet}");
    assert!(idle < quiet + 5_000, "idle {idle} vs quiet {quiet}");
    dp.clear_congestion();
}

// ------------------------------------------------------ pinned digests

/// The reduced large-access world of the digest tests: CDNs with every
/// [`bdrmap_topo::ExportStrategy`], a sibling of the VP network, IXP
/// LANs, and two VPs.
fn reduced_large_access() -> TopoConfig {
    let mut cfg = TopoConfig::large_access_scaled(17, 0.02);
    cfg.num_vps = 2;
    cfg
}

/// The probe set's destinations: every router interface, every fifth
/// `dest_home` block, and addresses no origination covers.
fn digest_destinations(net: &Internet) -> Vec<Addr> {
    let mut dsts: Vec<Addr> = net.ifaces.iter().map(|i| i.addr).collect();
    for (i, (p, _)) in net.dest_home.iter().enumerate() {
        if i % 5 == 0 {
            dsts.push(p.nth(p.size().min(6) - 1));
        }
    }
    let mut dark: Vec<Addr> = net
        .graph
        .ases()
        .flat_map(|a| net.as_info(a).unannounced.clone())
        .map(|p| p.nth(p.size() - 2))
        .collect();
    dark.extend(["0.0.0.1", "198.18.0.1", "223.255.255.254"].map(|s| s.parse::<Addr>().unwrap()));
    dsts.extend(
        dark.into_iter()
            .filter(|&a| net.origins.lookup(a).is_none()),
    );
    dsts
}

/// CRC32C over every outcome of the fixed probe set, sent through
/// `probe_with` on one fresh [`Runtime`](crate::Runtime): from every VP
/// to every destination, on two flows, as each probe kind, at TTL
/// 1..=16, each probe 37 ms after the last. Returns the digest, the
/// probes sent and the probes answered.
fn probe_set_digest(dp: &DataPlane) -> (u32, u64, u64) {
    use crate::packet::UnreachReason;
    let net = dp.internet();
    let dsts = digest_destinations(net);
    let rt = crate::Runtime::new();
    let mut crc = bdrmap_types::integrity::Crc32c::new();
    let (mut sent, mut answered) = (0u64, 0u64);
    for vp in &net.vps {
        for &dst in &dsts {
            for flow in [7u16, 0xbeef] {
                for kind in [ProbeKind::IcmpEcho, ProbeKind::Udp, ProbeKind::TcpAck] {
                    for ttl in 1..=16u8 {
                        let p = Probe {
                            src: vp.addr,
                            dst,
                            ttl,
                            flow,
                            kind,
                            time_ms: sent * 37,
                        };
                        sent += 1;
                        let Some(r) = dp.probe_with(&p, &rt) else {
                            crc.update(&[0]);
                            continue;
                        };
                        answered += 1;
                        let code = match r.kind {
                            RespKind::TimeExceeded => 1u8,
                            RespKind::EchoReply => 2,
                            RespKind::DestUnreach(UnreachReason::Host) => 3,
                            RespKind::DestUnreach(UnreachReason::AdminFiltered) => 4,
                            RespKind::DestUnreach(UnreachReason::Port) => 5,
                            RespKind::TcpRst => 6,
                        };
                        crc.update(&[code]);
                        crc.update(&u32::from(r.src).to_le_bytes());
                        crc.update(&r.ipid.to_le_bytes());
                        crc.update(&r.rtt_us.to_le_bytes());
                    }
                }
            }
        }
    }
    (crc.finalize(), sent, answered)
}

/// The fault plan of the digest tests: loss both ways, storms, flaps
/// and reroute epochs, all several times over within the probe set.
fn digest_faults() -> crate::FaultPlan {
    crate::FaultPlan {
        seed: 11,
        probe_loss: 0.05,
        response_loss: 0.05,
        bucket_ms: 250,
        storm: Some(crate::StormPlan {
            router_frac: 0.2,
            period_ms: 10_000,
            burst_ms: 2_000,
        }),
        flap: Some(crate::FlapPlan {
            link_frac: 0.1,
            period_ms: 20_000,
            down_ms: 3_000,
        }),
        reroute: Some(crate::ReroutePlan { period_ms: 50_000 }),
    }
}

/// Digests of one world, unfaulted and then faulted, each on a fresh
/// data plane, with the census of the plans the unfaulted pass built.
fn world_digests(cfg: &TopoConfig) -> ([(u32, u64, u64); 2], crate::plane::PlanCensus) {
    let clean = DataPlane::new(generate(cfg));
    let faulted = DataPlane::new(generate(cfg));
    faulted.set_faults(digest_faults());
    let got = [probe_set_digest(&clean), probe_set_digest(&faulted)];
    (got, clean.plan_census())
}

// The pinned (digest, sent, answered) triples below were taken from the
// simulator before its egress plans, per-probe facts and per-domain
// trees; a change that moves any of them changes what bdrmap observes.

#[test]
fn tiny_world_answers_match_pinned_digests() {
    let (got, census) = world_digests(&TopoConfig::tiny(5));
    // Every export strategy, IXP LANs and the fallback branch; the tiny
    // VP network has no sibling AS.
    assert!(
        census.everywhere > 0 && census.subset > 0 && census.anchored > 0 && census.regional > 0,
        "{census:?}"
    );
    assert!(census.ixp_lan > 0 && census.fallback > 0, "{census:?}");
    assert_eq!(
        got,
        [
            (0xd7bd_fde5, 133_248, 122_722),
            (0x38d4_bd5a, 133_248, 85_622)
        ],
        "unfaulted, faulted"
    );
}

#[test]
fn reduced_large_access_answers_match_pinned_digests() {
    let (got, census) = world_digests(&reduced_large_access());
    // Every export strategy, IXP LANs, the fallback branch, and a VP
    // network with a sibling AS.
    assert!(
        census.everywhere > 0 && census.subset > 0 && census.anchored > 0 && census.regional > 0,
        "{census:?}"
    );
    assert!(
        census.ixp_lan > 0 && census.fallback > 0 && census.sibling_org > 0,
        "{census:?}"
    );
    assert_eq!(
        got,
        [
            (0xb378_8952, 307_200, 289_089),
            (0xb1cd_d66e, 307_200, 186_385)
        ],
        "unfaulted, faulted"
    );
}

// ----------------------------------------- decisions against the old code
//
// The two decisions the simulator now answers from tables — the egress
// pick and the per-domain shortest-path trees — checked over a whole
// world against copies of the code that re-derived them on every call.

/// The shortest-path tree the SPT cache computed before it kept trees
/// per domain: a Dijkstra over the whole world, skipping routers of
/// other domains. Returns each router's distance and sorted next hops.
fn whole_world_spt(net: &Internet, root: RouterId) -> (Vec<u32>, Vec<Vec<RouterId>>) {
    let n = net.routers.len();
    let mut adj = vec![Vec::new(); n];
    for l in &net.links {
        if l.kind != LinkKind::Internal {
            continue;
        }
        let r0 = net.ifaces[l.ifaces[0].index()].router;
        let r1 = net.ifaces[l.ifaces[1].index()].router;
        adj[r0.index()].push((r1, l.metric));
        adj[r1.index()].push((r0, l.metric));
    }
    let org: Vec<u32> = net
        .routers
        .iter()
        .map(|r| net.graph.org(r.owner).0)
        .collect();
    let mut dist = vec![u32::MAX; n];
    let mut next: Vec<Vec<RouterId>> = vec![Vec::new(); n];
    let domain = org[root.index()];
    let mut heap = std::collections::BinaryHeap::new();
    dist[root.index()] = 0;
    heap.push(std::cmp::Reverse((0u32, root)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, w) in &adj[u.index()] {
            if org[v.index()] != domain {
                continue;
            }
            let nd = d.saturating_add(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                next[v.index()].clear();
                next[v.index()].push(u);
                heap.push(std::cmp::Reverse((nd, v)));
            } else if nd == dist[v.index()]
                && !next[v.index()].contains(&u)
                && next[v.index()].len() < 4
            {
                next[v.index()].push(u);
            }
        }
    }
    for opts in &mut next {
        opts.sort_unstable();
    }
    (dist, next)
}

#[test]
fn per_domain_spts_equal_whole_world_dijkstra() {
    // The tiny world alone does not exercise the order of equal-cost
    // next hops (a copy that skips their sort passes on it); the reduced
    // large-access world does.
    let (mut foreign, mut ecmp) = (0, 0);
    for cfg in [TopoConfig::tiny(5), reduced_large_access()] {
        let net = generate(&cfg);
        let cache = crate::spt::SptCache::new(crate::spt::InternalGraph::build(&net));
        for root in net.routers.iter().map(|r| r.id) {
            let (dist, next) = whole_world_spt(&net, root);
            let t = cache.tree(root);
            for r in net.routers.iter().map(|r| r.id) {
                assert_eq!(t.dist(r), dist[r.index()], "dist {r:?} toward {root:?}");
                assert_eq!(t.reaches(r), dist[r.index()] != u32::MAX);
                let opts = &next[r.index()];
                ecmp += usize::from(opts.len() > 1);
                for flow in [0u16, 1, 7, 0xffff] {
                    let old = (!opts.is_empty()).then(|| {
                        opts[(crate::spt::fnv(&[r.0, flow as u32]) % opts.len() as u64) as usize]
                    });
                    assert_eq!(t.next_hop(r, flow), old, "next hop {r:?} toward {root:?}");
                }
                let (a, b) = (
                    net.routers[r.index()].owner,
                    net.routers[root.index()].owner,
                );
                if !net.graph.same_org(a, b) {
                    assert_eq!((t.dist(r), t.next_hop(r, 0)), (u32::MAX, None));
                    foreign += 1;
                }
            }
        }
    }
    assert!(foreign > 0 && ecmp > 0, "{foreign} foreign, {ecmp} ECMP");
}

/// One way out, as the old egress code described it.
#[derive(Clone, Copy)]
struct OldLink {
    near: RouterId,
    near_iface: IfaceId,
    far: RouterId,
    far_iface: IfaceId,
    ordinal: u32,
    longitude_milli: i32,
    link: LinkId,
}

type Choice = (RouterId, IfaceId, RouterId, IfaceId, LinkId);

/// The egress choice as the data plane made it before egress plans,
/// copied for comparison: every input is re-derived on every call.
struct OldEgress<'a> {
    dp: &'a DataPlane,
    org_members: HashMap<OrgId, Vec<Asn>>,
    spts: HashMap<RouterId, Vec<u32>>,
}

impl OldEgress<'_> {
    fn org(&self, a: Asn) -> OrgId {
        self.dp.internet().graph.org(a)
    }

    fn dist(&mut self, root: RouterId, cur: RouterId) -> u32 {
        let net = self.dp.internet();
        self.spts
            .entry(root)
            .or_insert_with(|| whole_world_spt(net, root).0)[cur.index()]
    }

    fn egress_links(&self, org: OrgId, n: Asn) -> Vec<OldLink> {
        let net = self.dp.internet();
        let lon =
            |r: RouterId| (net.pops[net.routers[r.index()].pop.index()].longitude * 1000.0) as i32;
        let mut out = Vec::new();
        for l in &net.links {
            match l.kind {
                LinkKind::Interdomain { .. } => {
                    let i0 = &net.ifaces[l.ifaces[0].index()];
                    let i1 = &net.ifaces[l.ifaces[1].index()];
                    let o0 = net.routers[i0.router.index()].owner;
                    let o1 = net.routers[i1.router.index()].owner;
                    let (near, far) = if self.org(o0) == org && o1 == n {
                        (i0, i1)
                    } else if self.org(o1) == org && o0 == n {
                        (i1, i0)
                    } else {
                        continue;
                    };
                    out.push(OldLink {
                        near: near.router,
                        near_iface: near.id,
                        far: far.router,
                        far_iface: far.id,
                        ordinal: 0,
                        longitude_milli: lon(near.router),
                        link: l.id,
                    });
                }
                LinkKind::IxpLan { .. } => {
                    let ifaces = || l.ifaces.iter().map(|i| &net.ifaces[i.index()]);
                    let ours: Vec<_> = ifaces()
                        .filter(|i| self.org(net.routers[i.router.index()].owner) == org)
                        .collect();
                    let theirs: Vec<_> = ifaces()
                        .filter(|i| net.routers[i.router.index()].owner == n)
                        .collect();
                    for o in &ours {
                        for t in &theirs {
                            out.push(OldLink {
                                near: o.router,
                                near_iface: o.id,
                                far: t.router,
                                far_iface: t.id,
                                ordinal: 0,
                                longitude_milli: lon(o.router),
                                link: l.id,
                            });
                        }
                    }
                }
                LinkKind::Internal => {}
            }
        }
        out.sort_by_key(|e| (e.link, e.near_iface));
        for (i, e) in out.iter_mut().enumerate() {
            e.ordinal = i as u32;
        }
        out
    }

    fn strategy_allows(
        strategy: ExportStrategy,
        prefix: bdrmap_types::Prefix,
        e: &OldLink,
        total: u32,
        median_longitude: i32,
    ) -> bool {
        use crate::spt::fnv;
        if total <= 1 {
            return true;
        }
        let pbits = u32::from(prefix.network());
        match strategy {
            ExportStrategy::Everywhere => true,
            ExportStrategy::Subset { percent } => {
                let anchor = fnv(&[pbits, prefix.len() as u32]) % total as u64;
                e.ordinal as u64 == anchor
                    || fnv(&[pbits, prefix.len() as u32, e.ordinal]) % 100 < percent as u64
            }
            ExportStrategy::Anchored => (pbits >> 8) % total == e.ordinal,
            ExportStrategy::Regional => {
                let west = fnv(&[pbits, prefix.len() as u32]).is_multiple_of(2);
                if west {
                    e.longitude_milli <= median_longitude
                } else {
                    e.longitude_milli > median_longitude
                }
            }
        }
    }

    fn pick(&mut self, cur: RouterId, dst: Addr, flow: u16) -> Option<Choice> {
        let net = self.dp.internet();
        let oracle = self.dp.oracle();
        let owner = net.routers[cur.index()].owner;
        let org = self.org(owner);
        let origination = oracle.origins().lookup(dst)?;
        let tree = oracle.route_tree(origination);
        let mut candidates: Vec<Asn> = Vec::new();
        let mut best: Option<bdrmap_bgp::BestRoute> = None;
        for &m in &self.org_members[&org] {
            let Some(r) = tree.route(m) else { continue };
            if best.is_none() {
                best = Some(r);
            }
            if r.class == bdrmap_bgp::RouteClass::Origin {
                continue;
            }
            for n in oracle.tied_next_hops(m, origination) {
                if self.org(n) != org && !candidates.contains(&n) {
                    candidates.push(n);
                }
            }
        }
        let best = best?;
        if best.class == bdrmap_bgp::RouteClass::Origin && candidates.is_empty() {
            let t = net
                .router_of_addr(dst)
                .or_else(|| net.dest_home.lookup(dst).map(|(_, &r)| r))?;
            candidates = vec![net.routers[t.index()].owner];
        }
        if candidates.is_empty() {
            if let Some(nh) = best.next_hop {
                if self.org(nh) != org {
                    candidates.push(nh);
                }
            }
        }
        let mut best_choice: Option<(u64, OldLink)> = None;
        for n in candidates {
            let links = self.egress_links(org, n);
            if links.is_empty() {
                continue;
            }
            let total = links.len() as u32;
            let median = {
                let mut lons: Vec<i32> = links.iter().map(|e| e.longitude_milli).collect();
                lons.sort_unstable();
                lons[lons.len() / 2]
            };
            let strategy = net.as_info(n).export;
            for e in links
                .iter()
                .filter(|e| Self::strategy_allows(strategy, origination.prefix, e, total, median))
            {
                let d = self.dist(e.near, cur);
                if d == u32::MAX {
                    continue;
                }
                let key = ((d as u64) << 32)
                    | (crate::spt::fnv(&[e.link.0, flow as u32, n.0]) & 0xffff_ffff);
                if best_choice.as_ref().is_none_or(|(k, _)| key < *k) {
                    best_choice = Some((key, *e));
                }
            }
        }
        best_choice.map(|(_, e)| (e.near, e.near_iface, e.far, e.far_iface, e.link))
    }
}

#[test]
fn planned_egress_equals_the_old_per_pick_derivation() {
    let dp = plane(5);
    let net = dp.internet();
    let mut org_members: HashMap<OrgId, Vec<Asn>> = HashMap::new();
    for a in net.graph.ases() {
        org_members.entry(net.graph.org(a)).or_default().push(a);
    }
    let mut old = OldEgress {
        dp: &dp,
        org_members,
        spts: HashMap::new(),
    };
    let (mut picks, mut some) = (0, 0);
    for cur in net.routers.iter().map(|r| r.id) {
        for o in net.origins.iter() {
            let dst = o.prefix.nth(1);
            for flow in [0u16, 1, 0xffff] {
                let want = old.pick(cur, dst, flow);
                assert_eq!(
                    dp.egress_for(cur, dst, flow),
                    want,
                    "{cur:?} toward {dst} on flow {flow}"
                );
                picks += 1;
                some += usize::from(want.is_some());
            }
        }
    }
    assert!(
        some > 0 && some < picks,
        "{some} of {picks} picks found an egress"
    );
}
