//! Unified observability for the bdrmap workspace.
//!
//! Every layer of the pipeline — probe engine, alias resolution, graph
//! construction, the §5.4 heuristics, the snapshot store, and the
//! bdrmapd query daemon — reports into one [`Registry`] of named
//! metrics. Three instrument kinds cover everything the repo measures:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`; all hot-path
//!   updates are a single relaxed `fetch_add`.
//! * [`Gauge`] — a settable `AtomicU64` for level-style readings
//!   (current logical clock, quarantined block count, …).
//! * [`Histogram`] — fixed-boundary log2 buckets (see below), lock-free
//!   to record into, merge-able, and deterministic: the same multiset
//!   of samples always produces the same buckets, sum, and count, so
//!   histograms over *virtual-time* quantities replay bit-identically
//!   under a fixed `--fault-seed`.
//!
//! The crate is zero-dependency on purpose: `std::sync::atomic` plus a
//! registration mutex is all it needs, so every other crate can depend
//! on it without cycles or feature creep.
//!
//! # Bucket layout
//!
//! A histogram has 65 buckets indexed by the bit length of the sample:
//! bucket 0 holds the value 0, bucket `i` (1 ≤ i ≤ 64) holds values in
//! `[2^(i-1), 2^i)`. Boundaries are fixed at compile time — no
//! adaptive resizing — which is what makes two histograms mergeable by
//! bucket-wise addition and makes [`Histogram::quantile`] a pure
//! function of the recorded multiset.
//!
//! # Naming scheme
//!
//! `bdrmap_<subsystem>_<what>_<unit-or-total>`, with the daemon using
//! the `bdrmapd_` prefix. Label keys are `&'static str`; families with
//! the `_us` suffix measure *wall-clock* microseconds and are the only
//! families exempt from the fault-seed determinism guarantee (see
//! DESIGN.md §10).
//!
//! # Example
//!
//! ```
//! use bdrmap_obs::Registry;
//!
//! let reg = Registry::new();
//! let sent = reg.counter("bdrmap_probe_packets_total", &[]);
//! sent.add(3);
//! let h = reg.histogram("bdrmap_pipeline_stage_us", &[("stage", "infer")]);
//! h.record(1500);
//! let text = reg.render();
//! assert!(text.contains("bdrmap_probe_packets_total 3"));
//! assert!(text.contains("stage=\"infer\""));
//! ```

mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, BUCKETS};
pub use registry::{MetricKind, Registry};

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide default registry.
///
/// One-shot tools (`bdrmap run --metrics-out`) and library layers with
/// no natural owner for a registry handle (pipeline stages, heuristics,
/// the snapshot store) report here. Long-lived servers that need
/// isolation (bdrmapd, tests) create their own [`Registry`] instead.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Records wall-clock microseconds into a histogram when dropped.
///
/// ```
/// use bdrmap_obs::{Registry, ScopedTimer};
/// let reg = Registry::new();
/// let h = reg.histogram("demo_us", &[]);
/// {
///     let _t = ScopedTimer::new(&h);
///     // ... timed span ...
/// }
/// assert_eq!(h.count(), 1);
/// ```
pub struct ScopedTimer {
    hist: Histogram,
    start: Instant,
}

impl ScopedTimer {
    /// Start timing; the elapsed microseconds land in `hist` on drop.
    pub fn new(hist: &Histogram) -> ScopedTimer {
        ScopedTimer {
            hist: hist.clone(),
            start: Instant::now(),
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}
