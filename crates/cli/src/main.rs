//! `bdrmap` — the command-line face of the reproduction.
//!
//! ```text
//! bdrmap generate  --preset large-access --seed 42 [--scale 0.1]
//! bdrmap run       --preset re --seed 1 [--vp 0] [--no-alias] [--one-addr]
//! bdrmap merge     --preset large-access --seed 2 --scale 0.08 [--vps 5]
//! bdrmap table1    [--full] [--seed N]
//! bdrmap insights  [--full] [--seed N]
//! bdrmap ablation  [--seed N] [--scale 0.08]
//! bdrmap resources [--seed N]
//! ```

mod args;
mod commands;

use args::Args;

const VALUE_KEYS: &[&str] = &[
    "preset",
    "seed",
    "scale",
    "vp",
    "vps",
    "out",
    "in",
    "hosts",
    "fault-seed",
    "loss",
    "flap",
    "checkpoint-every",
    "map-out",
    "snapshot",
    "listen",
    "connect",
    "workers",
    "queue",
    "metrics-addr",
    "connections",
    "idle-frac",
    "pipeline",
    "addr",
    "border",
    "neighbor",
    "reload",
    "conns",
    "secs",
    "json",
    "alias-parallelism",
    "snap-dir",
    "corrupt-rate",
    "stall-conns",
    "iters",
    "fuzz-seed",
    "metrics-out",
    "rounds",
    "dir",
    "batches",
    "journal-dir",
    "expire-after",
    "compact-every",
];
const FLAGS: &[&str] = &[
    "full",
    "no-alias",
    "one-addr",
    "no-stop-sets",
    "resume",
    "stats",
    "health",
    "reload-store",
    "metrics",
    "serve",
    "no-shadow",
    "crash-watch",
    "help",
];

fn usage() -> &'static str {
    "bdrmap — inference of borders between IP networks (IMC 2016 reproduction)

USAGE:
    bdrmap <COMMAND> [OPTIONS]

COMMANDS:
    generate    generate a ground-truth Internet and print its summary
    run         run the full pipeline from one VP and print the border map
    merge       run every VP and print the merged interconnectivity view
    table1      regenerate Table 1 + §5.6 validation for the paper's networks
    insights    regenerate Figures 14/15/16 (19-VP access network)
    ablation    run the design-choice ablation suite
    resources   reproduce the §5.8 central-vs-device state comparison
    probe       collect traces only and save them (--out traces.bdrw)
    infer       run inference over saved traces (--in traces.bdrw)
    fleet       run bdrmap from VPs hosted in many other networks (§5.7)
    devcheck    §5.1 development-mode sanity checks over synthesized DNS
    congestion  discover borders, inject diurnal congestion, detect with TSLP
    degradation sweep injected loss/flap rates, report precision/recall
    serve       run bdrmapd: answer border-map queries over TCP
    query       one-shot client for a running bdrmapd
    loadgen     closed-loop load against bdrmapd, reporting QPS + latency
    fuzz        seeded hostile-input fuzzing of the snapshot + wire codecs
    chaos       end-to-end seeded fault injection: probe, publish, and serve
                under filesystem + socket chaos, asserting system invariants
    watch       stream trace batches through the incremental engine: each
                pass re-infers only the dirty region, shadow-checks against
                a from-scratch rebuild, and can publish + hot-swap bdrmapd
    bench-pipeline  time every pipeline stage, write BENCH_pipeline.json

OPTIONS:
    --preset <tiny|re|large-access|tier1|small-access>   topology preset
    --seed <u64>         RNG seed (default 42)
    --scale <f64>        scale factor for the big presets (default 0.1)
    --vp <idx>           vantage point index for `run` (default 0)
    --vps <n>            number of VPs for `merge` (default: all)
    --full               paper-scale scenarios for table1/insights
    --no-alias           disable alias resolution (ablation A1)
    --one-addr           probe one address per block (ablation A2)
    --no-stop-sets       disable doubletree stop sets
    --out <path>         where `probe` writes the trace store
    --in <path>          trace store `infer` reads
    --alias-parallelism <n>  alias-resolution worker threads (default: all
                         cores; output is byte-identical at any value)

FAULT INJECTION (run / probe / degradation):
    --fault-seed <u64>   fault PRNG seed (default 1); same seed replays identically
    --loss <f64>         probe/response loss rate in [0,1] (degradation: sweep max)
    --flap <f64>         fraction of links flapping (degradation: sweep max)
    --checkpoint-every <n>  `probe`: checkpoint to <out>.ckpt every n target ASes
    --resume             `probe`: resume from <out>.ckpt if present

SERVING (serve / query / loadgen):
    --map-out <path>     `run`: also save the border map as a BDRM v4
                         snapshot file
    --snap-dir <dir>     `run`: publish the map into a crash-safe snapshot
                         store; `serve`: boot from the store's newest
                         verified-good generation (rolls back past corrupt
                         files, quarantining them)
    --snapshot <path>    serve/loadgen: use a saved snapshot instead of inferring
    --listen <addr>      `serve`: bind address (default 127.0.0.1:47700)
    --workers <n>        event loops (default 4)
    --queue <n>          connections admitted past the loop count before
                         shedding (default 128)
    --metrics-addr <addr>  serve/loadgen: also serve GET /metrics over
                         plain HTTP on this address
    --connect <addr>     query/loadgen: a running bdrmapd to talk to
    --addr <ip>          `query`: who owns this address?
    --border <ip>        `query`: which border link carries this interface?
    --neighbor <asn>     `query`: all links to this neighbor AS
    --stats              `query`: server statistics
    --health             `query`: generation, swap epoch, breaker state, uptime
    --metrics            `query`: Prometheus-style metrics exposition
    --reload <path>      query/loadgen: hot-swap in this snapshot file
    --reload-store       `query`: hot-swap from the server's snapshot store
    --conns <n>          `loadgen`: closed-loop connections (default 4)
    --secs <f>           `loadgen`: run time in seconds (default 2)
    --corrupt-rate <f>   `loadgen`: fraction of requests sent corrupted [0,1]
    --stall-conns <n>    `loadgen`: extra slow-loris connections (default 0)
    --connections <n>    `loadgen`: scale mode (Linux) — hold n concurrent
                         connections from one epoll client loop and write
                         BENCH_serve_scale.json (overrides --conns)
    --idle-frac <f>      `loadgen` scale mode: fraction of connections
                         parked as idle keepalive ballast (default 0.5)
    --pipeline <n>       `loadgen` scale mode: frames in flight per active
                         connection (default 4)
    --json <path>        loadgen/bench-pipeline: report path (bench-pipeline
                         default: BENCH_pipeline.json)
    --metrics-out <path> run/merge/fleet/watch: write the pipeline/probe
                         metric exposition to this file after the run

WATCH (watch):
    --batches <n>        split the target blocks into n probe batches (default 4)
    --no-shadow          skip the per-pass byte-check against a from-scratch
                         rebuild (the check is the correctness contract;
                         only skip it when timing incremental passes alone)
    --snap-dir <dir>     publish each pass as a new store generation
    --serve              with --snap-dir: boot bdrmapd from the store and
                         hot-swap it after every pass (--listen, default
                         127.0.0.1:0)
    --journal-dir <dir>  write-ahead journal: append every batch before
                         applying it, and recover on startup from the
                         newest verified checkpoint + journal tail replay
    --expire-after <n>   retract traces not refreshed within n passes
    --compact-every <n>  journal checkpoint cadence in passes (default 4)
    --json <path>        per-pass report (default BENCH_incremental.json)

FUZZING (fuzz):
    --iters <n>          seeded mutations to run (default 10000)
    --fuzz-seed <u64>    fuzzer seed (default 42); same seed, same mutants

CHAOS (chaos):
    --fault-seed <u64>   fault-schedule seed (default 1); the printed report
                         and --json artifact are byte-identical per seed
    --crash-watch        run the crash-kill recovery harness instead: kill
                         and respawn the journaled watch loop at seeded
                         points (mid-append, post-append, mid-compaction,
                         mid-publish), asserting byte-identical recovery
                         (--batches sets the plan size, default 6)
    --rounds <n>         snapshot publish rounds under fs faults (default 8)
    --secs <f>           quiesced loadgen duration (default 0.25)
    --checkpoint-every <n>  probe checkpoint cadence in target ASes (default 2)
    --dir <path>         working directory (default: a per-seed temp dir)
    --json <path>        also write the deterministic report there
"
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1), VALUE_KEYS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = args.check_flags(FLAGS) {
        eprintln!("error: {e}\n\n{}", usage());
        std::process::exit(2);
    }
    if args.flag("help") || args.command.is_none() {
        println!("{}", usage());
        return;
    }
    let result = match args.command.as_deref().unwrap() {
        "generate" => commands::generate(&args),
        "run" => commands::run(&args),
        "merge" => commands::merge(&args),
        "table1" => commands::table1(&args),
        "insights" => commands::insights(&args),
        "ablation" => commands::ablation(&args),
        "resources" => commands::resources(&args),
        "probe" => commands::probe(&args),
        "infer" => commands::infer(&args),
        "fleet" => commands::fleet(&args),
        "devcheck" => commands::devcheck(&args),
        "congestion" => commands::congestion(&args),
        "degradation" => commands::degradation(&args),
        "serve" => commands::serve(&args),
        "query" => commands::query(&args),
        "loadgen" => commands::loadgen(&args),
        "fuzz" => commands::fuzz(&args),
        "chaos" => commands::chaos(&args),
        "watch" => commands::watch(&args),
        "bench-pipeline" => commands::bench_pipeline(&args),
        other => {
            eprintln!("error: unknown command: {other}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
