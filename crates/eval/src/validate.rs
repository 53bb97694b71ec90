//! Ground-truth validation (§5.6 of the paper).
//!
//! The paper validated against operator data from four networks,
//! finding 96.3%–98.9% of inferred links correct. Here the generator
//! *is* the operator: every inference can be scored.

use bdrmap_core::BorderMap;
use bdrmap_topo::Internet;
use bdrmap_types::Asn;

/// Scores for one border map against ground truth.
#[derive(Clone, Debug, Default)]
pub struct Validation {
    /// Inferred interdomain links.
    pub links_total: usize,
    /// Links whose neighbor AS matches a ground-truth adjacency of the
    /// hosting organisation (sibling-of-correct counts, matching the
    /// paper's methodology).
    pub links_correct: usize,
    /// Links where additionally the near-side address really sits on a
    /// border router of the hosting organisation.
    pub links_placed: usize,
    /// Ground-truth neighbor ASes visible in the public BGP view.
    pub bgp_neighbors: usize,
    /// Of those, neighbors with at least one inferred link.
    pub bgp_neighbors_found: usize,
    /// Routers with an inferred owner whose addresses identify a
    /// ground-truth router.
    pub owners_checked: usize,
    /// Of those, inferences matching the true operator's organisation.
    pub owners_correct: usize,
}

impl Validation {
    /// Fraction of links correct (the headline §5.6 number).
    pub fn link_accuracy(&self) -> f64 {
        if self.links_total == 0 {
            return 0.0;
        }
        self.links_correct as f64 / self.links_total as f64
    }

    /// Fraction of links with the near side placed on a real border
    /// router.
    pub fn placement_accuracy(&self) -> f64 {
        if self.links_total == 0 {
            return 0.0;
        }
        self.links_placed as f64 / self.links_total as f64
    }

    /// Fraction of BGP-visible neighbors covered (Table 1 "Coverage of
    /// BGP").
    pub fn bgp_coverage(&self) -> f64 {
        if self.bgp_neighbors == 0 {
            return 0.0;
        }
        self.bgp_neighbors_found as f64 / self.bgp_neighbors as f64
    }

    /// Fraction of router-owner inferences correct.
    pub fn owner_accuracy(&self) -> f64 {
        if self.owners_checked == 0 {
            return 0.0;
        }
        self.owners_correct as f64 / self.owners_checked as f64
    }
}

/// True if organisation of `far` has a ground-truth interconnection
/// (direct link or shared IXP LAN) with the hosting organisation.
pub fn truly_adjacent(net: &Internet, far: Asn) -> bool {
    let far_org = net.graph.org(far);
    let direct = net.interdomain_links().any(|l| {
        let parties: Vec<Asn> = l
            .ifaces
            .iter()
            .map(|i| net.routers[net.ifaces[i.index()].router.index()].owner)
            .collect();
        parties.iter().any(|&p| net.graph.org(p) == far_org)
            && parties.iter().any(|p| net.vp_siblings.contains(p))
    });
    if direct {
        return true;
    }
    net.ixps.iter().any(|x| {
        x.members.iter().any(|&m| net.graph.org(m) == far_org)
            && x.members.iter().any(|m| net.vp_siblings.contains(m))
    })
}

/// Score a border map.
pub fn validate(net: &Internet, view_neighbors: &[Asn], map: &BorderMap) -> Validation {
    let mut v = Validation {
        links_total: map.links.len(),
        ..Validation::default()
    };

    for l in &map.links {
        if truly_adjacent(net, l.far_as) {
            v.links_correct += 1;
            // Placement: the near address is on a real border router of
            // the hosting org.
            let placed = l
                .near_addr
                .and_then(|a| net.router_of_addr(a))
                .map(|r| {
                    let rr = &net.routers[r.index()];
                    net.vp_siblings.contains(&rr.owner) && rr.is_border
                })
                .unwrap_or(false);
            if placed {
                v.links_placed += 1;
            }
        }
    }

    // BGP coverage: of the neighbors visible in the public view that are
    // truly adjacent, how many did bdrmap find?
    let inferred = map.neighbors();
    for &nb in view_neighbors {
        if net.vp_siblings.contains(&nb) || !truly_adjacent(net, nb) {
            continue;
        }
        v.bgp_neighbors += 1;
        let found = inferred
            .iter()
            .any(|&a| a == nb || net.graph.same_org(a, nb));
        if found {
            v.bgp_neighbors_found += 1;
        }
    }

    // Router-owner accuracy.
    for r in &map.routers {
        let Some(owner) = r.owner else { continue };
        let mut counts = std::collections::BTreeMap::new();
        for &a in &r.addrs {
            if let Some(o) = net.owner_of_addr(a) {
                *counts.entry(o).or_insert(0usize) += 1;
            }
        }
        let Some((&truth, _)) = counts.iter().max_by_key(|(_, &c)| c) else {
            continue;
        };
        v.owners_checked += 1;
        if owner == truth || net.graph.same_org(owner, truth) {
            v.owners_correct += 1;
        }
    }

    v
}

/// §5.6's IXP validation path: "we validated the interdomain links
/// established via route servers at the three IXPs by using the
/// IXP-published information on which ASes are present and the IP
/// addresses they use." The IXP member lists and port addresses are
/// public (PeeringDB/PCH style), so this check does not touch router
/// ground truth — only the published registry.
#[derive(Clone, Debug, Default)]
pub struct IxpValidation {
    /// Inferred links whose far address lies in an IXP LAN.
    pub ixp_links: usize,
    /// Of those, links whose inferred neighbor is a registered member
    /// of that IXP.
    pub member_confirmed: usize,
    /// Of those, links where the far address is exactly the member's
    /// registered port.
    pub port_confirmed: usize,
}

impl IxpValidation {
    /// Fraction of IXP links confirmed by the registry.
    pub fn confirmation_rate(&self) -> f64 {
        if self.ixp_links == 0 {
            return 0.0;
        }
        self.member_confirmed as f64 / self.ixp_links as f64
    }
}

/// Validate route-server links against the published IXP registry.
pub fn validate_ixp(net: &Internet, map: &BorderMap) -> IxpValidation {
    let mut v = IxpValidation::default();
    for l in &map.links {
        let Some(far) = l.far_addr else { continue };
        let Some(ixp) = net.ixps.iter().find(|x| x.lan.contains(far)) else {
            continue;
        };
        v.ixp_links += 1;
        let member = ixp
            .members
            .iter()
            .any(|&m| m == l.far_as || net.graph.same_org(m, l.far_as));
        if member {
            v.member_confirmed += 1;
            // Port check: the address really is on a router of that
            // member (the registry records (member, port) pairs).
            if net
                .owner_of_addr(far)
                .is_some_and(|o| o == l.far_as || net.graph.same_org(o, l.far_as))
            {
                v.port_confirmed += 1;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scenario;
    use bdrmap_core::BdrmapConfig;
    use bdrmap_topo::TopoConfig;

    #[test]
    fn tiny_scenario_validates_well() {
        let sc = Scenario::build("tiny", &TopoConfig::tiny(71));
        let map = sc.run_vp(0, &BdrmapConfig::default());
        let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
        let v = validate(sc.net(), &neighbors, &map);
        assert!(v.links_total > 5, "links: {}", v.links_total);
        assert!(v.link_accuracy() > 0.8, "accuracy {:.2}", v.link_accuracy());
        assert!(v.bgp_coverage() > 0.6, "coverage {:.2}", v.bgp_coverage());
    }

    #[test]
    fn ixp_links_confirmed_by_registry() {
        // The R&E preset joins three IXPs, like the paper's network.
        let sc = Scenario::build("re", &TopoConfig::re_network(72));
        let map = sc.run_vp(0, &BdrmapConfig::default());
        let v = validate_ixp(sc.net(), &map);
        assert!(v.ixp_links > 3, "IXP links found: {v:?}");
        assert!(
            v.confirmation_rate() > 0.9,
            "registry confirmation {:.2} ({v:?})",
            v.confirmation_rate()
        );
        assert!(v.port_confirmed * 10 >= v.member_confirmed * 8, "{v:?}");
    }

    #[test]
    fn metrics_handle_empty_map() {
        let v = Validation::default();
        assert_eq!(v.link_accuracy(), 0.0);
        assert_eq!(v.bgp_coverage(), 0.0);
        assert_eq!(v.owner_accuracy(), 0.0);
        assert_eq!(v.placement_accuracy(), 0.0);
    }
}
