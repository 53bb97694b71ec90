//! End-to-end benchmark for bdrmap.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline|watch-churn|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the program under test only sees
//! the generated inputs. Every op's output is checked, and the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every workload prints every metric BENCHMARK.json declares for the
//! run's kind (see `report::END_TO_END` and `report::PER_LAYER`). With
//! `--trace 0` these are the end-to-end ones, each for the workload's
//! own op; with `--trace 1` they are per-layer times and counts, taken
//! by timing each call into a layer's public function from this
//! package's code (the program itself is not instrumented).
//!
//! The amount of work a run does is fixed by `--seconds` and the
//! workload's nominal rate, never by how fast the ops go, so two
//! commits do the same batches, queries and reloads.

mod nosync;
mod pipeline;
mod report;
mod rng;
mod serve;
mod sys;
mod watch;

use report::Report;
use std::time::Instant;

/// Input sizes: `full` is the benchmark proper; `tiny` is the seconds-
/// long self-check the package's tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Corrupt one op's output on purpose; the run must then report
    /// that op as failed (used by the self-check tests).
    pub inject_fault: bool,
}

impl Args {
    /// The `[full, tiny]` entry for this run's size.
    pub fn sized<T: Copy>(&self, per_size: [T; 2]) -> T {
        per_size[usize::from(self.size == Size::Tiny)]
    }
}

const USAGE: &str = "usage: perfbench --workload <pipeline|watch-churn|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--size full|tiny] [--inject-fault]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut inject_fault = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, got {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size,
        inject_fault,
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args, started),
        "watch-churn" => watch::run(&args, started),
        "serve" => serve::run(&args, started),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json(args.trace));
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
