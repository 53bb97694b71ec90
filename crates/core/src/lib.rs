//! bdrmap: inference of borders between IP networks.
//!
//! The paper's primary contribution (Luckie et al., IMC 2016): given a
//! vantage point inside a network, infer every interdomain link attached
//! to that network at router granularity — which border router of the
//! hosting network connects to which router of which neighbor AS.
//!
//! Pipeline (`run_bdrmap`):
//!
//! 1. **Targets** — one address block per externally-routed BGP prefix
//!    (more-specifics carved out), probed one target AS at a time;
//! 2. **Traces** — Paris traceroute toward up to five addresses per
//!    block with doubletree stop sets (§5.3);
//! 3. **Alias resolution** — prefixscan on path segments, Mercator on
//!    every observed address, Ally on candidate sets that share a
//!    predecessor, with negative results vetoing merges;
//! 4. **Router graph** — union-find over confirmed aliases, adjacency
//!    from consecutive time-exceeded hops;
//! 5. **Heuristics §5.4.1–§5.4.8** — walk routers in hop order and
//!    infer each router's operator, tagging every inference with the
//!    heuristic that produced it (the provenance Table 1 reports);
//! 6. **Borders** — emit the interdomain links of the hosting network,
//!    including links to silent or firewalled neighbors that never
//!    appear in traceroute themselves.
//!
//! The inference layer consumes only public inputs (BGP collector view,
//! inferred relationships, RIR delegations, IXP prefix lists, the
//! curated sibling list) and probe responses — never simulator ground
//! truth.

pub mod aliases;
pub mod beyond;
pub mod flat;
pub mod graph;
pub mod heuristics;
pub mod incremental;
pub mod input;
pub mod journal;
pub mod merge;
pub mod output;
pub mod pipeline;
pub mod query;
pub mod snapshot;
pub mod snapstore;

pub use aliases::{task_id, AliasConfig, AliasStats, TaskKind};
pub use beyond::{far_links, FarLink};
pub use flat::V3View;
pub use incremental::{Batch, CachingProber, IncrementalEngine, PassReport};
pub use input::{CacheStats, Input, Ip2As, Ip2AsCache, IpMapper, Mapping};
pub use journal::{Journal, JournalCheckpoint, JournalConfig, JournalError, JournalRecord};
pub use merge::{merge_maps, MergedMap, Merger};
pub use output::{BorderMap, Heuristic, InferredLink, InferredRouter};
pub use pipeline::{run_stages, PipelineRun, StageReport};
pub use query::{BorderAnswer, LinkRec, OwnerAnswer, QueryIndex, QueryRead, RouterRec};
pub use snapstore::{LoadOutcome, Quarantined, SnapStore, StoreError};

use bdrmap_probe::{run_traces, Prober, RunOptions, TraceCollection};

/// Tunables and ablation switches.
#[derive(Clone, Copy, Debug)]
pub struct BdrmapConfig {
    /// Worker threads for the trace phase.
    pub parallelism: usize,
    /// Addresses probed per block before giving up (§5.3 uses 5;
    /// ablation A2 sets 1).
    pub addrs_per_block: u32,
    /// Use doubletree stop sets (the R1 run-time ablation disables
    /// them).
    pub use_stop_sets: bool,
    /// Run alias resolution (ablation A1 disables it, reproducing the
    /// Figure 13 failure mode).
    pub alias_resolution: bool,
    /// Cap on Ally tests per shared-predecessor candidate set.
    pub max_ally_per_set: usize,
    /// Worker threads for the alias-resolution phase. Output is
    /// byte-identical at any value; fault replay forces `1`.
    pub alias_parallelism: usize,
}

impl Default for BdrmapConfig {
    fn default() -> Self {
        BdrmapConfig {
            parallelism: 8,
            addrs_per_block: 5,
            use_stop_sets: true,
            alias_resolution: true,
            max_ally_per_set: 8,
            alias_parallelism: 1,
        }
    }
}

/// Run the full bdrmap pipeline from one vantage point.
pub fn run_bdrmap<P: Prober + ?Sized>(prober: &P, input: &Input, cfg: &BdrmapConfig) -> BorderMap {
    // 1. Targets.
    let targets = bdrmap_probe::target_blocks(&input.view, &input.vp_asns);
    // 2. Traces.
    let ip2as_probe = input.ip2as_for_probing();
    let collection = run_traces(
        prober,
        &targets,
        RunOptions {
            parallelism: cfg.parallelism,
            addrs_per_block: cfg.addrs_per_block,
            use_stop_sets: cfg.use_stop_sets,
            quarantine: None,
        },
        |a| ip2as_probe.is_external(a),
    );
    run_bdrmap_on_traces(prober, input, cfg, collection)
}

/// Run inference over an existing trace collection (lets ablations and
/// multi-VP analyses reuse probing work).
pub fn run_bdrmap_on_traces<P: Prober + ?Sized>(
    prober: &P,
    input: &Input,
    cfg: &BdrmapConfig,
    collection: TraceCollection,
) -> BorderMap {
    // 3–6. IP-to-AS view, alias resolution, router graph, heuristics —
    // see `pipeline::run_stages` for the instrumented driver.
    pipeline::run_stages(prober, input, cfg, collection).map
}
