//! The ground-truth data model of the simulated Internet.

use bdrmap_types::{Addr, Asn, IfaceId, LinkId, PopId, Prefix, PrefixTrie, RouterId, VpId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Business type of an AS. Drives the generated router topology,
/// geography, interconnection density, and response-policy mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Settlement-free top of the hierarchy; many PoPs, many customers.
    Tier1,
    /// Mid-tier transit provider.
    Transit,
    /// Large residential/eyeball access network (the paper's main
    /// measured network).
    Access,
    /// Small regional access network.
    SmallAccess,
    /// Content distribution network: many PoPs, peers widely, may anchor
    /// prefixes to individual interconnects.
    Cdn,
    /// Research and education network.
    ResearchEdu,
    /// Enterprise edge network: firewalls aggressively.
    Enterprise,
    /// Single-homed or dual-homed stub.
    Stub,
    /// An IXP's own AS (route server, peering LAN).
    IxpOperator,
}

/// How a router treats probe packets. Mirrors the behaviours in §4 and
/// §5.4.8 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResponsePolicy {
    /// Answers TTL-expired, forwards everything.
    Normal,
    /// Answers TTL-expired, but discards packets that would transit
    /// deeper into its own network (enterprise edge firewall): the router
    /// is the last hop observable on paths into its AS.
    Firewall,
    /// Sends no ICMP at all and firewalls inbound probes (the paper's
    /// "silent neighbor", heuristic 8.1).
    Silent,
    /// Does not send TTL-expired, firewalls transit, but answers packets
    /// addressed *into* its network with destination-unreachable from its
    /// own address space (heuristic 8.2, the "other ICMP" row).
    EchoOtherIcmp,
    /// Answers only every `period`-th TTL-expired (ICMP rate limiting).
    RateLimited {
        /// Respond to one in `period` expired probes.
        period: u16,
    },
}

impl ResponsePolicy {
    /// Does this policy ever emit TTL-expired messages?
    pub fn sends_ttl_expired(self) -> bool {
        !matches!(self, ResponsePolicy::Silent | ResponsePolicy::EchoOtherIcmp)
    }

    /// Does this policy discard packets transiting into its network?
    pub fn firewalls_transit(self) -> bool {
        matches!(
            self,
            ResponsePolicy::Firewall | ResponsePolicy::Silent | ResponsePolicy::EchoOtherIcmp
        )
    }
}

/// How a router picks the source address of an ICMP time-exceeded
/// response (§4 challenges 2 and 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcSelect {
    /// Use the address of the interface the probe arrived on (the common
    /// behaviour; time-exceeded "usually identifies ingress interfaces").
    Inbound,
    /// RFC 1812: use the address of the interface that transmits the
    /// response, i.e. the egress toward the prober — the mechanism that
    /// produces third-party addresses.
    TowardProber,
    /// Virtual-router behaviour: use the address of the interface that
    /// would have forwarded the probe onward (toward the *destination*),
    /// regardless of where the response leaves.
    TowardDest,
}

/// How a router assigns IP-ID values to the packets it originates. This
/// is what the Ally and MIDAR alias-resolution tests key on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IpidModel {
    /// One central counter shared by all interfaces (aliases resolvable).
    SharedCounter {
        /// Initial value.
        init: u16,
        /// Background increment per millisecond of simulated time
        /// (traffic the router sends besides our probes).
        velocity_per_ms: u16,
    },
    /// An independent counter per interface (Ally finds nothing).
    PerInterface {
        /// Background increment per millisecond.
        velocity_per_ms: u16,
    },
    /// Pseudo-random IDs (Ally must reject).
    Random,
    /// Always zero (some routers send constant IDs).
    Constant,
}

/// Source address a router uses for UDP port-unreachable responses — the
/// Mercator alias-resolution signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnreachSrc {
    /// Always the same address (its first/loopback interface): Mercator
    /// can resolve aliases.
    Canonical,
    /// The address that was probed: Mercator learns nothing.
    Probed,
    /// Does not answer UDP probes at all.
    None,
}

/// A point of presence: a location that houses routers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Pop {
    /// Identifier (dense index).
    pub id: PopId,
    /// City name (for reporting).
    pub name: String,
    /// Longitude in degrees (negative = west), the x-axis of Figure 16.
    pub longitude: f64,
    /// Latitude in degrees.
    pub latitude: f64,
}

/// A physical router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Router {
    /// Identifier (dense index).
    pub id: RouterId,
    /// Ground-truth operator.
    pub owner: Asn,
    /// Where it sits.
    pub pop: PopId,
    /// Its interfaces.
    pub ifaces: Vec<IfaceId>,
    /// Probe-response policy.
    pub policy: ResponsePolicy,
    /// Time-exceeded source-address selection.
    pub src_select: SrcSelect,
    /// IP-ID assignment behaviour.
    pub ipid: IpidModel,
    /// UDP unreachable source behaviour (Mercator).
    pub unreach_src: UnreachSrc,
    /// True if this router has at least one interdomain interface.
    pub is_border: bool,
}

/// What role an interface plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IfaceKind {
    /// Loopback / canonical address.
    Loopback,
    /// One end of an intra-AS point-to-point link.
    Internal,
    /// One end of an interdomain point-to-point link.
    Interdomain,
    /// A port on an IXP peering LAN.
    IxpLan,
}

/// An interface: one IP address on one router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Iface {
    /// Identifier (dense index).
    pub id: IfaceId,
    /// The router it belongs to.
    pub router: RouterId,
    /// Its address (globally unique in the simulation).
    pub addr: Addr,
    /// Role.
    pub kind: IfaceKind,
    /// The link it attaches to (`None` for loopbacks).
    pub link: Option<LinkId>,
}

/// What a link connects.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkKind {
    /// Intra-AS link.
    Internal,
    /// Interdomain point-to-point link between two ASes.
    Interdomain {
        /// The AS that supplied the link subnet's address space.
        space_from: Asn,
        /// Ordinal among the interconnections between this AS pair
        /// (generator order), used for link-scoped advertisement.
        ordinal: u32,
    },
    /// A shared IXP peering LAN (more than two attached interfaces).
    IxpLan {
        /// Which IXP.
        ixp: usize,
    },
}

/// A link: a subnet joining two (or, for IXP LANs, many) interfaces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Link {
    /// Identifier (dense index).
    pub id: LinkId,
    /// What it connects.
    pub kind: LinkKind,
    /// The subnet it is numbered from (/31 or /30 point-to-point,
    /// /24 for IXP LANs).
    pub subnet: Prefix,
    /// Attached interfaces (2 for point-to-point).
    pub ifaces: Vec<IfaceId>,
    /// IGP metric (geographic distance between the endpoints' PoPs,
    /// plus a constant; used for hot-potato egress selection).
    pub metric: u32,
}

/// An Internet exchange point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ixp {
    /// IXP name.
    pub name: String,
    /// The operator's AS (may or may not originate the LAN prefix).
    pub operator: Asn,
    /// The shared peering LAN subnet.
    pub lan: Prefix,
    /// Where it is.
    pub pop: PopId,
    /// Member ASes.
    pub members: Vec<Asn>,
    /// True if the LAN prefix is announced in BGP by the operator
    /// (inconsistent in the wild, §4 challenge 6).
    pub lan_announced: bool,
}

/// A measurement vantage point: a host attached to an access router of
/// the hosting network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vp {
    /// Identifier.
    pub id: VpId,
    /// The VP host's own address.
    pub addr: Addr,
    /// The first-hop router it attaches to.
    pub attach: RouterId,
    /// The network hosting it.
    pub host_as: Asn,
}

/// How a neighbor AS spreads prefixes across its interconnections with
/// another network — the mechanism behind Figures 15 and 16 of the paper.
/// The data plane consults the *next-hop* AS's strategy when choosing
/// which of several parallel interconnections may carry a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExportStrategy {
    /// Advertise every prefix over every session (classic hot-potato
    /// handoff; the paper's Level3 needed 17 VPs because of this).
    Everywhere,
    /// Advertise each prefix over a deterministic pseudo-random subset of
    /// sessions covering roughly `percent`% of them.
    Subset {
        /// Percentage of sessions carrying each prefix.
        percent: u8,
    },
    /// Advertise each prefix over exactly one session (the paper's
    /// Akamai: one VP anywhere discovers every interconnection).
    Anchored,
    /// Split prefixes between the western and eastern halves of the
    /// session footprint (the paper's Google: west- plus east-coast VPs
    /// suffice).
    Regional,
}

/// Per-AS ground-truth info.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsInfo {
    /// The ASN.
    pub asn: Asn,
    /// Business type.
    pub kind: AsKind,
    /// Display name.
    pub name: String,
    /// Routers operated by this AS.
    pub routers: Vec<RouterId>,
    /// PoPs where this AS is present.
    pub pops: Vec<PopId>,
    /// Address space delegated to this AS by the RIR (announced or not).
    pub delegated: Vec<Prefix>,
    /// Space the AS holds but deliberately does not announce
    /// (infrastructure addressing, §5.4.3).
    pub unannounced: Vec<Prefix>,
    /// How this AS spreads prefixes across parallel interconnections.
    pub export: ExportStrategy,
    /// If this AS numbers its internal routers from provider-aggregatable
    /// space, the provider that delegated it (the Figure 12 limitation);
    /// evaluation treats border misplacements here as expected.
    pub pa_parent: Option<Asn>,
}

pub use bdrmap_types::RirRecord;

/// The generated Internet: ground truth for everything.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Internet {
    /// AS-level relationships (ground truth).
    pub graph: bdrmap_bgp::AsGraph,
    /// Prefix originations.
    pub origins: bdrmap_bgp::OriginTable,
    /// Per-AS info, indexed by ASN (slot 0 unused).
    pub as_info: Vec<AsInfo>,
    /// All PoPs.
    pub pops: Vec<Pop>,
    /// All routers.
    pub routers: Vec<Router>,
    /// All interfaces.
    pub ifaces: Vec<Iface>,
    /// All links.
    pub links: Vec<Link>,
    /// All IXPs.
    pub ixps: Vec<Ixp>,
    /// Vantage points available in the measured network.
    pub vps: Vec<Vp>,
    /// RIR delegation records (public input data for bdrmap).
    pub rir: Vec<RirRecord>,
    /// Address → interface lookup.
    pub addr_index: HashMap<Addr, IfaceId>,
    /// Destination "homing": the router that owns / is closest to a
    /// given covered prefix (link subnets and announced blocks).
    pub dest_home: PrefixTrie<RouterId>,
    /// The measured network (the AS hosting the VPs).
    pub vp_as: Asn,
    /// Sibling ASes of the measured network, including itself (the
    /// manually curated "VP ASes" input of §5.2).
    pub vp_siblings: Vec<Asn>,
}

impl Internet {
    /// The router an address belongs to, if any.
    pub fn router_of_addr(&self, a: Addr) -> Option<RouterId> {
        self.addr_index
            .get(&a)
            .map(|i| self.ifaces[i.index()].router)
    }

    /// Ground-truth owner of the router an address is on.
    pub fn owner_of_addr(&self, a: Addr) -> Option<Asn> {
        self.router_of_addr(a)
            .map(|r| self.routers[r.index()].owner)
    }

    /// Interface record for an address.
    pub fn iface_of_addr(&self, a: Addr) -> Option<&Iface> {
        self.addr_index.get(&a).map(|i| &self.ifaces[i.index()])
    }

    /// All interdomain links where one side is `a` and the other `b`.
    pub fn interdomain_links_between(&self, a: Asn, b: Asn) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| {
                matches!(l.kind, LinkKind::Interdomain { .. }) && {
                    let owners: Vec<Asn> = l
                        .ifaces
                        .iter()
                        .map(|i| self.routers[self.ifaces[i.index()].router.index()].owner)
                        .collect();
                    owners.contains(&a) && owners.contains(&b)
                }
            })
            .map(|l| l.id)
            .collect()
    }

    /// All ground-truth interdomain links adjacent to AS `a` (including
    /// IXP LAN memberships represented by the LAN link).
    pub fn border_links_of(&self, a: Asn) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| match &l.kind {
                LinkKind::Interdomain { .. } => l
                    .ifaces
                    .iter()
                    .any(|i| self.routers[self.ifaces[i.index()].router.index()].owner == a),
                _ => false,
            })
            .map(|l| l.id)
            .collect()
    }

    /// Owner ASes on an interdomain link: (near, far) sorted by ASN.
    pub fn link_parties(&self, l: LinkId) -> Vec<Asn> {
        let mut out: Vec<Asn> = self.links[l.index()]
            .ifaces
            .iter()
            .map(|i| self.routers[self.ifaces[i.index()].router.index()].owner)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Info for one AS.
    pub fn as_info(&self, a: Asn) -> &AsInfo {
        &self.as_info[a.0 as usize]
    }

    /// Iterate over interdomain links.
    pub fn interdomain_links(&self) -> impl Iterator<Item = &Link> {
        self.links
            .iter()
            .filter(|l| matches!(l.kind, LinkKind::Interdomain { .. }))
    }

    /// Sanity checks on internal consistency; used by tests and run by
    /// the generator before returning.
    pub fn validate(&self) -> Result<(), String> {
        // Interfaces point at valid routers and are indexed.
        for ifc in &self.ifaces {
            let r = self
                .routers
                .get(ifc.router.index())
                .ok_or_else(|| format!("{}: bad router", ifc.id))?;
            if !r.ifaces.contains(&ifc.id) {
                return Err(format!("{} not listed on its router", ifc.id));
            }
            if self.addr_index.get(&ifc.addr) != Some(&ifc.id) {
                return Err(format!("{} ({}) not in addr index", ifc.id, ifc.addr));
            }
        }
        // Links have consistent subnets and endpoints.
        for l in &self.links {
            match l.kind {
                LinkKind::IxpLan { .. } => {
                    if l.ifaces.len() < 2 {
                        return Err(format!("{}: IXP LAN with < 2 ports", l.id));
                    }
                }
                _ => {
                    if l.ifaces.len() != 2 {
                        return Err(format!("{}: point-to-point with != 2 ends", l.id));
                    }
                }
            }
            for i in &l.ifaces {
                let ifc = &self.ifaces[i.index()];
                if !l.subnet.contains(ifc.addr) {
                    return Err(format!(
                        "{}: {} outside subnet {}",
                        l.id, ifc.addr, l.subnet
                    ));
                }
                if ifc.link != Some(l.id) {
                    return Err(format!("{}: back-pointer mismatch on {}", l.id, ifc.id));
                }
            }
        }
        // Routers' border flag is consistent.
        for r in &self.routers {
            let has_ext = r.ifaces.iter().any(|i| {
                matches!(
                    self.ifaces[i.index()].kind,
                    IfaceKind::Interdomain | IfaceKind::IxpLan
                )
            });
            if has_ext != r.is_border {
                return Err(format!("{}: border flag wrong", r.id));
            }
        }
        // VP AS is set and has VPs.
        if !self.vp_as.is_assigned() {
            return Err("vp_as unset".into());
        }
        if !self.vp_siblings.contains(&self.vp_as) {
            return Err("vp_siblings must include vp_as".into());
        }
        Ok(())
    }
}
