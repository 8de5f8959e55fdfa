//! `perfbench`: the end-to-end and per-layer benchmark of `dnscentral`.
//!
//! ```text
//! perfbench --bin <dnscentral> --workload <calibrated|fleet|serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! ```
//!
//! End-to-end numbers come from the release `dnscentral` binary run as
//! a child process with tracing off, accounted from `/proc`. With
//! `--trace 1` the harness also runs each workload's layers in-process
//! under its own span recorder and prints the per-layer metrics and
//! the ledger that reconciles them with the end-to-end time. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end set, or with `--trace 1` the
//! per-layer set). Any failed correctness check exits 1.
//!
//! See `perfbench/NOTES.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod offline;
mod proc;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

// The counting allocator the program installs, so the traced run's
// per-layer allocation counts see every heap event.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// Workload parameters shared by every workload.
pub struct Ctx {
    /// The `dnscentral` release binary under test.
    pub bin: PathBuf,
    /// Scratch directory for warehouses, taps and child output.
    pub work: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Run a child of the binary under test to completion.
    pub fn run(&self, args: &[String], tag: &str) -> Result<proc::Usage, String> {
        proc::run(&self.bin, args, &self.work, tag)
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (the `--trace 0` set).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (the `--trace 1` set; bypassed layers read 0).
    pub layers: Vec<Metric>,
    /// Correctness checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// Every per-layer metric, in print order. A workload reports 0 for a
/// layer it does not exercise.
const LAYERS: &[(&str, &str)] = &[
    ("simnet.generate.ns_per_query", "ns"),
    ("simnet.generate.allocs_per_query", "count"),
    ("simnet.fleet.ns_per_query", "ns"),
    ("simnet.fleet.allocs_per_query", "count"),
    ("resolver.cache.hit_ratio", "ratio"),
    ("resolver.rate_decay_ratio", "ratio"),
    ("resolver.retries_per_query", "count"),
    ("resolver.timeouts", "count"),
    ("dns-wire.parse.ns_per_msg", "ns"),
    ("dns-wire.parse.allocs_per_msg", "count"),
    ("entrada.ingest.ns_per_row", "ns"),
    ("entrada.ingest.allocs_per_row", "count"),
    ("entrada.enrich.memo_hit_ratio", "ratio"),
    ("core.analysis.ns_per_row", "ns"),
    ("core.analysis.allocs_per_row", "count"),
    ("warehouse.append.ns_per_row", "ns"),
    ("warehouse.append.bytes_per_row", "B"),
    ("warehouse.scan.ns_per_row", "ns"),
    ("warehouse.scan.partitions_opened", "count"),
    ("warehouse.scan.partitions_pruned", "count"),
    ("ledger.fused_speedup", "ratio"),
    ("process.cpu_s_per_kquery", "s"),
    ("authd.respond.ns_per_query", "ns"),
    ("authd.respond.allocs_per_query", "count"),
    ("authd.respond.cache_hit_ratio", "ratio"),
    ("authd.truncated_ratio", "ratio"),
    ("authd.tap.ns_per_record", "ns"),
    ("authd.cpu_us_per_query", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The end-to-end metrics every workload reports.
const E2E: &[&str] = &[
    "setup_s",
    "queries_per_s",
    "cpu_ms_per_kquery",
    "peak_rss_mb",
];

struct Args {
    bin: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        let pos = argv.iter().position(|a| a == name)?;
        argv.get(pos + 1).cloned()
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("{name} is required"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        bin: PathBuf::from(need("--bin")?),
        work: PathBuf::from(get("--work").unwrap_or_else(|| ".bench_work".into())),
        workload: need("--workload")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer".to_string())?,
        seconds,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.bin.is_file() {
        eprintln!("perfbench: no binary at {}", args.bin.display());
        return ExitCode::from(2);
    }
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        bin: args.bin,
        work: args.work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut rec = trace::Recorder::new(ctx.trace);
    let result = match args.workload.as_str() {
        "calibrated" => offline::calibrated(&ctx, &mut rec),
        "fleet" => offline::fleet(&ctx, &mut rec),
        "serve" => serve::serve(&ctx, &mut rec),
        other => Err(format!(
            "unknown workload {other:?} (calibrated|fleet|serve)"
        )),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace {
        let path = ctx
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, ctx.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => println!("spans -> {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    finish(&args.workload, &ctx, &out)
}

/// Print the human-readable summary, then the JSON result line.
fn finish(workload: &str, ctx: &Ctx, out: &Outcome) -> ExitCode {
    println!("== {workload} (seed {}) checks ==", ctx.seed);
    for (what, ok) in &out.checks {
        println!("  [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("== {workload} end-to-end ==");
    for m in &out.e2e {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>16.6} ratio ({} of {})",
        "failed_ratio", failed_ratio, out.failed, out.attempted
    );

    let chosen: Vec<Metric> = if ctx.trace {
        println!("== {workload} per-layer ==");
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let value = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                println!("  {name:<34} {value:>16.6} {unit}");
                Metric { name, value, unit }
            })
            .collect()
    } else {
        E2E.iter()
            .map(|name| {
                out.e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .expect("every workload reports every end-to-end metric")
            })
            .collect()
    };
    let correct =
        out.checks.iter().all(|(_, ok)| *ok) && chosen.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
