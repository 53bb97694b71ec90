//! Scenario assembly: a generated Internet plus the public inputs
//! bdrmap consumes, ready to run from any of its VPs.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{run_bdrmap, BdrmapConfig, BorderMap, Input};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{EngineConfig, ProbeEngine};
use bdrmap_topo::{generate, AsKind, Internet, TopoConfig};
use bdrmap_types::Asn;
use std::sync::Arc;

/// A ready-to-measure world.
pub struct Scenario {
    /// Human-readable name (used in report headers).
    pub name: String,
    /// The data plane over the generated Internet.
    pub dp: Arc<DataPlane>,
    /// The public input data (shared by all VPs).
    pub input: Input,
}

impl Scenario {
    /// Generate and assemble a scenario.
    pub fn build(name: &str, cfg: &TopoConfig) -> Scenario {
        let net = generate(cfg);
        let dp = Arc::new(DataPlane::new(net));
        let input = Self::public_input(dp.internet(), &dp);
        Scenario {
            name: name.to_string(),
            dp,
            input,
        }
    }

    /// Assemble the public inputs: a collector view from the Tier-1
    /// clique plus a handful of stub feeds (Route Views realism), the
    /// relationship inference over it, IXP prefix lists, and RIR
    /// records.
    pub fn public_input(net: &Internet, dp: &DataPlane) -> Input {
        let mut peers: Vec<Asn> = net
            .graph
            .ases()
            .filter(|&a| net.as_info(a).kind == AsKind::Tier1)
            .collect();
        peers.extend(
            net.graph
                .ases()
                .filter(|&a| {
                    matches!(net.as_info(a).kind, AsKind::Stub | AsKind::Transit)
                        && !net.vp_siblings.contains(&a)
                })
                .step_by(7)
                .take(12),
        );
        let view = CollectorView::collect(dp.oracle(), &peers);
        let rels = InferredRelationships::infer(&view);
        Input {
            view,
            rels,
            ixp_prefixes: net.ixps.iter().map(|x| x.lan).collect(),
            rir: net.rir.clone(),
            vp_asns: net.vp_siblings.clone(),
        }
    }

    /// The ground truth (evaluation only).
    pub fn net(&self) -> &Internet {
        self.dp.internet()
    }

    /// A probe engine for VP `vp_idx`.
    pub fn engine(&self, vp_idx: usize) -> ProbeEngine {
        let vp = self.net().vps[vp_idx].addr;
        ProbeEngine::new(Arc::clone(&self.dp), vp, EngineConfig::default())
    }

    /// Run the full bdrmap pipeline from VP `vp_idx`.
    pub fn run_vp(&self, vp_idx: usize, cfg: &BdrmapConfig) -> BorderMap {
        let engine = self.engine(vp_idx);
        run_bdrmap(&engine, &self.input, cfg)
    }

    /// Number of VPs available.
    pub fn num_vps(&self) -> usize {
        self.net().vps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_runs() {
        let sc = Scenario::build("tiny", &TopoConfig::tiny(61));
        assert_eq!(sc.num_vps(), 2);
        let map = sc.run_vp(0, &BdrmapConfig::default());
        assert!(!map.links.is_empty());
    }
}
