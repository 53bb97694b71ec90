//! The result line, order statistics, set-up timing and the span
//! recorder shared by the workloads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every end-to-end metric and its unit, as BENCHMARK.json declares
/// them. Each workload reports all of them (`--trace 0`), each for its
/// own op — the cold map on `pipeline`, the batch-to-served pass on
/// `watch-churn` and the query on `serve`:
///
/// - `setup_s`: median of the run's set-ups, the first timed from
///   process start;
/// - `peak_rss_mb`: `VmHWM` at the end of the run;
/// - `op_p50_ms` / `op_tail_ms`: the op's median and tail latency (see
///   [`tail`], [`windowed_tail`]); `serve` times each query from its
///   due time;
/// - `run_cpu_s`: process CPU over the timed phase, whose work is fixed
///   by `--seconds` and the workload's nominal rate (`serve`: less its
///   client threads);
/// - `snapshot_mb`: size of the v3 map the workload builds, publishes
///   or serves.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("run_cpu_s", "s"),
    ("snapshot_mb", "MB"),
];

/// Every per-layer metric and its unit, as BENCHMARK.json declares
/// them. Each workload reports all of them (`--trace 1`); a layer its
/// op never calls reads 0. `trace.unaccounted_ms` and
/// `trace.overhead_pct` belong to the workload's traced op: the map on
/// `pipeline`, the pass on `watch-churn`, the reload on `serve`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("probe.run_traces_ms", "ms"),
    ("probe.packets", "count"),
    ("dataplane.ns_per_packet", "ns"),
    ("input.ip2as_ms", "ms"),
    ("input.ip2as_hit_ratio", "ratio"),
    ("aliases.resolve_ms", "ms"),
    ("aliases.tests", "count"),
    ("aliases.packets", "count"),
    ("graph.build_ms", "ms"),
    ("heuristics.infer_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("eval.link_err_pct", "%"),
    ("journal.append_ms", "ms"),
    ("journal.checkpoint_ms", "ms"),
    ("incremental.apply_ms", "ms"),
    ("incremental.dirty", "count"),
    ("incremental.reinferred", "count"),
    ("incremental.reused", "count"),
    ("incremental.alias_hit_ratio", "ratio"),
    ("incremental.rebuild_ms", "ms"),
    ("snapstore.publish_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("snapstore.load_verified_ms", "ms"),
    ("flat.verify_integrity_ms", "ms"),
    ("flat.validate_structure_ms", "ms"),
    ("flat.view_build_ms", "ms"),
    ("integrity.crc32c_ms", "ms"),
    ("serve.reload_build_us", "us"),
    ("serve.reload_swap_us", "us"),
    ("query.answer_ns", "ns"),
    ("proto.request_decode_ns", "ns"),
    ("proto.response_encode_ns", "ns"),
    ("serve.handle_p50_us", "us"),
    ("serve.frames_per_read", "count"),
    ("loadgen.lateness_p99_us", "us"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One run's result: op accounting plus the metrics a workload set.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Set metric `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`]; its unit comes from there.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.metrics.push((name, value));
    }

    /// The result as one JSON line holding every metric of the run's
    /// kind, in declaration order. An end-to-end metric the workload
    /// did not set, or any non-finite value, is a bug in the benchmark:
    /// it is written as `null` and the run marked incorrect. A per-layer
    /// metric the workload did not set is a layer its op never calls,
    /// and reads 0.
    pub fn to_json(&self, trace: bool) -> String {
        let mut correct = self.correct;
        let (declared, unset) = if trace {
            (&PER_LAYER[..], 0.0)
        } else {
            (&END_TO_END[..], f64::NAN)
        };
        let mut m = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(unset, |(_, v)| *v);
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                correct = false;
                "null".to_string()
            };
            let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Candidate tail percentiles, highest first. They stop at p99: in the
/// `serve` workload everything beyond p99 is set by the single slowest
/// reload stall of the run, not by how the run went.
const TAIL_QS: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile in [`TAIL_QS`] with at least ten samples
/// ranked beyond it, and its value (p50 for `pipeline`'s twenty ops).
/// The choice depends only on the sample count, which every workload
/// fixes, so both commits of a comparison report the same percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in TAIL_QS {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (q, percentile(&v, q));
        }
    }
    (50.0, percentile(&v, 50.0))
}

/// The [`tail`] of each of `windows` consecutive, equal slices of
/// `values`, and the median of those tails, with the percentile the
/// slices used. A slowdown of the shared host that covers a few windows
/// moves this less than it moves one tail over the whole run.
pub fn windowed_tail(values: &[f64], windows: usize) -> (f64, f64) {
    let size = values.len().div_ceil(windows.max(1)).max(1);
    let tails: Vec<(f64, f64)> = values.chunks(size).map(tail).collect();
    let q = tails.first().map_or(50.0, |t| t.0);
    let v: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (q, median(&v))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Run a workload's set-up [`SETUP_REPS`] times, keeping the last
/// state, and return it with the median set-up time in seconds. The
/// first repetition is timed from process start. Each earlier state is
/// dropped, and its freed heap handed back to the kernel, before the
/// next is built; the peak-RSS mark is then reset, so `peak_rss_mb`
/// covers one set-up and the timed phase, as a user's run would.
pub fn repeated_setup<S>(
    started: Instant,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut state = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if state.take().is_some() {
            crate::sys::trim_heap();
            crate::sys::reset_peak_rss();
        }
        let t = if rep == 0 { started } else { Instant::now() };
        state = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up ran");
    Ok((state, median(&times)))
}

/// A scratch directory inside the checkout, unique to this process and
/// removed on drop. Store and journal files live here.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One timed call into a layer. Spans of one op share `op`; the op's
/// own span is the parent of every layer span with the same id.
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Median duration of the spans called `name`, in ms.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        median(&ms)
    }

    /// For every op that has an `op_name` span: its duration minus the
    /// durations of its `layers` spans, in ms. The median of these is a
    /// workload's `trace.unaccounted_ms`.
    pub fn unaccounted_ms(&self, op_name: &str, layers: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == op_name)
            .map(|op| {
                let covered: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.op == op.op && layers.contains(&s.name))
                    .map(|s| s.dur_ns)
                    .sum();
                (op.dur_ns as f64 - covered as f64) / 1e6
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.name, s.op, s.start_ns, s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Whether op `i` of a traced run is traced. Ops alternate in blocks of
/// four, so every cadence of period four or less (watch checkpoints)
/// falls equally on traced and untraced ops; the untraced ones are the
/// baseline for the tracing overhead.
pub fn traced_op(i: u64) -> bool {
    (i / 4) % 2 == 1
}

/// Tracing cost: how much slower the median traced op is than the
/// median untraced op of the same run, in percent.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    100.0 * (median(traced_ms) / median(untraced_ms) - 1.0)
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("spans-{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 99_000.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        // Two windows of 1000: p99s 990 and 1990; one slow window among
        // three does not set the result.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(windowed_tail(&v, 2), (99.0, 1490.0));
        let mut v = vec![1.0; 3000];
        v[1000..2000].fill(50.0);
        assert_eq!(windowed_tail(&v, 3), (99.0, 1.0));
    }

    #[test]
    fn median_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let mut r = Report::new(3, 0);
        for (name, _) in END_TO_END {
            r.metric(name, 1.25);
        }
        let json = r.to_json(false);
        assert!(
            json.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                 \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            ),
            "{json}"
        );
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
        // Layers nobody timed read 0; a missing end-to-end metric or a
        // non-finite value fails the run.
        let traced = r.to_json(true);
        assert!(traced.starts_with("{\"correct\": true"), "{traced}");
        assert!(traced.contains("\"trace.overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(Report::new(3, 0)
            .to_json(false)
            .starts_with("{\"correct\": false"));
        r.metric("op_p50_ms", f64::NAN);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }
}
