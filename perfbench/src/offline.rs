//! The offline workloads: `calibrated` (ingest → report over the
//! calibrated engine) and `fleet` (the emergent resolver fleet).
//!
//! End-to-end numbers come from `dnscentral` children. The in-process
//! pass then runs the same dataset and seed through each layer's
//! public functions one after the other — generate, parse probe,
//! ingest (parse + join + enrich), analysis sinks, warehouse append and
//! commit, and for `calibrated` the warehouse scan and report — which
//! gives the ingest accounting every run checks, and, traced, the
//! per-layer ledger.

use crate::proc::Usage;
use crate::trace::Recorder;
use crate::{Ctx, Outcome};
use asdb::synth::InternetPlan;
use dnscentral_core::analysis::DatasetAnalysis;
use dnscentral_core::dualstack::DualStackAnalysis;
use dnscentral_core::sink::{DualStackSink, FanoutSink, RowSink};
use dnscentral_core::store::{ensure_source, SourceInfo};
use entrada::enrich::Enricher;
use entrada::ingest::{CaptureIngest, IngestStats};
use entrada::schema::QueryRow;
use netbase::capture::{CaptureRecord, Direction, RecordSink};
use simnet::engine::{plan_config_for, Engine};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, DatasetSpec, Scale};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use warehouse::scan::row_matches;
use warehouse::{AppendConfig, Predicate, ScanStats, Warehouse};

/// Set-up repetitions per batch; a run times three batches spread over
/// its length (so one busy moment of the machine moves few samples), and
/// `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 15;
/// Share of `--seconds` given to the ingest phase of `calibrated`; the
/// rest repeats the report over the warehouse the first ingest wrote.
const INGEST_SHARE: f64 = 0.7;
/// Queries in the `fleet` scenario: enough for `FleetCache` to hold
/// tens of thousands of entries, few enough for several runs in one
/// measured phase.
const FLEET_QUERIES: u64 = 69_000;

fn scale() -> Scale {
    Scale::small()
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Time a batch of the public set-up calls of an offline run:
/// `Engine::new`, `InternetPlan::build` and (when the run writes one)
/// the warehouse open.
fn setup_batch(
    spec: &DatasetSpec,
    seed: u64,
    wh_dir: Option<&Path>,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUP_REPEATS {
        if let Some(dir) = wh_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let engine = Engine::new(spec.clone(), scale(), seed);
        let plan = InternetPlan::build(&plan_config_for(spec, scale(), seed));
        let wh = wh_dir
            .map(Warehouse::open)
            .transpose()
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        black_box((&engine, &plan, &wh));
    }
    if let Some(dir) = wh_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// Run children back to back until the phase budget is (about) spent;
/// at least `min` of them.
fn repeat_children(
    budget: f64,
    min: usize,
    mut one: impl FnMut(usize) -> Result<Usage, String>,
) -> Result<Vec<Usage>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        runs.push(one(runs.len())?);
        let spent = start.elapsed().as_secs_f64();
        let mean = spent / runs.len() as f64;
        if runs.len() >= min && spent + mean / 2.0 > budget {
            return Ok(runs);
        }
    }
}

/// Median user+sys CPU of the children, in ms per 1000 queries.
fn cpu_ms_per_kquery(runs: &[Usage], queries: u64) -> f64 {
    median_of(runs, |u| u.cpu.as_secs_f64()) * 1e3 / (queries.max(1) as f64 / 1e3)
}

fn median_of(runs: &[Usage], f: impl Fn(&Usage) -> f64) -> f64 {
    let mut v: Vec<f64> = runs.iter().map(f).collect();
    median(&mut v)
}

/// The Table 3 query total of a dataset report: the first number of
/// the row under the "Table 3" header.
fn table3_total(report: &str) -> Option<u64> {
    let mut lines = report.lines().skip_while(|l| !l.starts_with("Table 3"));
    lines.next()?;
    let row = lines.find(|l| !l.starts_with("Dataset") && !l.starts_with('-'))?;
    row.split_whitespace().nth(1)?.parse().ok()
}

/// A number that directly precedes `marker` in `text`, e.g. the 42 in
/// "42 row(s) read".
fn number_before(text: &str, marker: &str) -> Option<u64> {
    let head = &text[..text.find(marker)?];
    head.rsplit(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())?
        .parse()
        .ok()
}

/// A record sink that keeps every record and notes, at each slice end,
/// the time and the cumulative query count — the generation-rate
/// profile `resolver.rate_decay_ratio` is computed from.
struct TimedSink {
    records: Vec<CaptureRecord>,
    queries: u64,
    start: Instant,
    marks: Vec<(f64, u64)>,
}

impl RecordSink for TimedSink {
    fn emit(&mut self, rec: CaptureRecord) -> std::io::Result<()> {
        self.queries += (rec.direction == Direction::Query) as u64;
        self.records.push(rec);
        Ok(())
    }

    fn slice_end(&mut self, _slot: u64) -> std::io::Result<()> {
        self.marks
            .push((self.start.elapsed().as_secs_f64(), self.queries));
        Ok(())
    }
}

/// Query rate over the last tenth of the queries generated divided by
/// the rate over the first tenth. 1.0 is a flat rate.
fn rate_decay(marks: &[(f64, u64)]) -> f64 {
    let Some(&(end_s, total)) = marks.last() else {
        return 0.0;
    };
    let tenth = total / 10;
    let Some(&(t_first, q_first)) = marks.iter().find(|m| m.1 >= tenth) else {
        return 0.0;
    };
    let Some(&(t_last, q_last)) = marks.iter().rev().find(|m| m.1 <= total - tenth) else {
        return 0.0;
    };
    let first = q_first as f64 / t_first.max(1e-9);
    let last = (total - q_last) as f64 / (end_s - t_last).max(1e-9);
    last / first
}

/// What the in-process pass observed.
struct Pass {
    /// Wall time of the serial pass, parse probe excluded.
    wall: f64,
    queries: u64,
    ingest: IngestStats,
    distinct_sources: usize,
    parsed_msgs: u64,
    rows_pushed: u64,
    append_bytes: u64,
    scan: Option<ScanStats>,
    report: String,
    rate_decay: f64,
    /// `(cache hit ratio, retries, timeouts)` from the fleet's own
    /// metrics.
    resolver: Option<(f64, u64, u64)>,
}

fn analysis_sink<'e>(
    engine: &'e Engine,
    spec: &DatasetSpec,
) -> FanoutSink<DatasetAnalysis, DualStackSink<'e>> {
    FanoutSink::new(
        DatasetAnalysis::new(engine.zone().clone()),
        DualStackSink::new(
            DualStackAnalysis::with_servers(&spec.servers),
            engine.ptr_db(),
        ),
    )
}

fn render(
    id: &str,
    spec: &DatasetSpec,
    sink: FanoutSink<DatasetAnalysis, DualStackSink<'_>>,
) -> String {
    let (analysis, dualstack) = sink.into_parts();
    dnscentral_core::report::render_dataset_report(
        id,
        spec.vantage,
        &analysis,
        &dualstack.into_inner(),
        spec,
    )
}

/// The serial in-process pass over `spec`: each layer runs to
/// completion before the next starts, inside its own span. The ingest
/// phase (what the `ingest`/`scenario` child does) sits under a
/// `phase.ingest` span, the report over the warehouse under
/// `phase.report`.
fn pass(
    spec: &DatasetSpec,
    seed: u64,
    fleet: bool,
    wh_dir: Option<&Path>,
    rec: &mut Recorder,
) -> Result<Pass, String> {
    let id = spec.id();
    let started = Instant::now();
    let phase = rec.enter("phase.ingest");
    let (engine, mapper) = rec.span("simnet.setup", |_| {
        let engine = Engine::new(spec.clone(), scale(), seed);
        let plan = InternetPlan::build(&plan_config_for(spec, scale(), seed));
        (engine, plan.mapper)
    });
    let wh = match wh_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let wh = rec
                .span("warehouse.open", |_| Warehouse::open(dir))
                .map_err(|e| e.to_string())?;
            Some(Arc::new(wh))
        }
        None => None,
    };

    let counter = |name: &str| obs::counter(name, "").get();
    let (retries0, timeouts0) = (
        counter("resolver_retries_total"),
        counter("resolver_timeouts_total"),
    );
    let mut sink = TimedSink {
        records: Vec::new(),
        queries: 0,
        start: Instant::now(),
        marks: Vec::new(),
    };
    let gen = if fleet {
        rec.span("simnet.fleet", |_| engine.generate_fleet(&mut sink, 1))
    } else {
        rec.span("simnet.generate", |_| engine.generate_sharded(&mut sink, 1))
    }
    .map_err(|e| format!("generation failed: {e}"))?;

    // Parse probe: `Message::parse` over every UDP record of the run.
    // Ingest parses the same messages again, so this span is reported
    // on its own and left out of the ledger and of the pass wall time.
    let mut probe = Duration::ZERO;
    let mut parsed_msgs = 0u64;
    if rec.enabled() {
        let t = Instant::now();
        parsed_msgs = rec.span("dns-wire.parse", |_| {
            let mut n = 0u64;
            for r in &sink.records {
                if r.flow.transport == netbase::flow::Transport::Udp {
                    black_box(dns_wire::message::Message::parse(black_box(&r.payload)).is_ok());
                    n += 1;
                }
            }
            n
        });
        probe = t.elapsed();
    }

    let records = std::mem::take(&mut sink.records);
    let (rows, ingest) = rec.span("entrada.ingest", |_| {
        let mut ingest = CaptureIngest::new(records.into_iter(), Enricher::new(mapper));
        let rows: Vec<QueryRow> = ingest.by_ref().collect();
        (rows, ingest.stats().clone())
    });
    let analysis = rec.span("core.analysis", |_| {
        let mut s = analysis_sink(&engine, spec);
        for row in &rows {
            s.push(row);
        }
        s
    });
    let mut report = String::new();
    match &wh {
        // the `scenario` child renders its report at the end of the run
        None => report = rec.span("core.report", |_| render(&id, spec, analysis)),
        Some(wh) => {
            drop(analysis);
            rec.span("warehouse.append", |_| -> Result<(), String> {
                let info = SourceInfo {
                    spec: spec.clone(),
                    scale: scale(),
                    seed,
                };
                ensure_source(wh, &id, &info)?;
                let mut app = wh.appender(&id, AppendConfig::default());
                for row in &rows {
                    app.push(row);
                }
                app.finish().map(|_| ()).map_err(|e| e.to_string())
            })?;
            rec.span("warehouse.commit", |_| wh.commit())
                .map_err(|e| e.to_string())?;
        }
    }
    rec.exit(phase);
    let wall = (started.elapsed() - probe).as_secs_f64();

    let resolver = fleet.then(|| {
        (
            obs::gauge("resolver_fleet_cache_hit_ratio", "").get(),
            counter("resolver_retries_total") - retries0,
            counter("resolver_timeouts_total") - timeouts0,
        )
    });
    let mut out = Pass {
        wall,
        queries: gen.queries,
        distinct_sources: rows
            .iter()
            .map(|r| r.src)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        ingest,
        parsed_msgs,
        rows_pushed: rows.len() as u64,
        append_bytes: 0,
        scan: None,
        report,
        rate_decay: rate_decay(&sink.marks),
        resolver,
    };
    drop(rows);
    let Some(wh) = wh else {
        return Ok(out);
    };
    out.append_bytes = wh.partitions().iter().map(|p| p.bytes).sum();

    // The report phase: what `report --warehouse` does with one job.
    let phase = rec.enter("phase.report");
    let mut pred = Predicate::all();
    pred.source = Some(id.clone());
    let engine = rec.span("simnet.setup", |_| Engine::new(spec.clone(), scale(), seed));
    let (metas, mut stats) = wh.plan(&pred);
    let mut sink = analysis_sink(&engine, spec);
    for meta in &metas {
        let rows = rec.span("warehouse.scan", |_| {
            wh.read_for_scan(meta, &mut stats).map(|batch| {
                batch
                    .iter()
                    .filter(|row| row_matches(row, &pred))
                    .collect::<Vec<_>>()
            })
        });
        let Some(rows) = rows else { continue };
        stats.rows_matched += rows.len() as u64;
        out.rows_pushed += rows.len() as u64;
        rec.span("core.analysis", |_| {
            for row in &rows {
                sink.push(row);
            }
        });
    }
    out.report = rec.span("core.report", |_| render(&id, spec, sink));
    rec.exit(phase);
    out.scan = Some(stats);
    Ok(out)
}

/// Run the pass untraced (its accounting feeds every run's checks) and,
/// with `--trace 1`, again under the recorder; fill in the per-layer
/// metrics and print the ledger against the child's wall time.
fn in_process(
    ctx: &Ctx,
    rec: &mut Recorder,
    spec: &DatasetSpec,
    fleet: bool,
    child: &ChildFigures,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let wh_dir = (!fleet).then(|| ctx.work.join("wh-inproc"));
    let plain = pass(
        spec,
        ctx.seed,
        fleet,
        wh_dir.as_deref(),
        &mut Recorder::new(false),
    )?;
    let ing = &plain.ingest;
    out.attempted = ing.messages;
    out.failed = ing.malformed + ing.unanswered_queries + ing.capture_errors;
    out.check(
        format!(
            "in-process ingest is balanced ({} messages: {} malformed, {} unanswered, {} unmatched responses, {} capture errors)",
            ing.messages, ing.malformed, ing.unanswered_queries, ing.unmatched_responses, ing.capture_errors
        ),
        ing.balanced(),
    );
    out.check(
        format!("in-process rows {} == child rows {}", ing.rows, child.rows),
        ing.rows == child.rows,
    );
    if !ctx.trace {
        return Ok(plain);
    }

    // `plain` ran cold and doubles as the warm-up: the recorder's
    // overhead is the traced pass against a second, warm untraced one.
    let warm = pass(
        spec,
        ctx.seed,
        fleet,
        wh_dir.as_deref(),
        &mut Recorder::new(false),
    )?;
    let traced = pass(spec, ctx.seed, fleet, wh_dir.as_deref(), rec)?;
    out.check(
        "traced pass reproduces the untraced pass's report",
        traced.report == plain.report,
    );
    let all = rec.layers(None);
    let self_ns = |name: &str| all.get(name).map_or(0, |l| l.self_ns) as f64;
    let self_allocs = |name: &str| all.get(name).map_or(0, |l| l.self_allocs) as f64;
    let per = |v: f64, n: u64| v / n.max(1) as f64;
    let q = traced.queries;
    let rows = traced.ingest.rows;
    let (gen, ns_name, allocs_name) = if fleet {
        (
            "simnet.fleet",
            "simnet.fleet.ns_per_query",
            "simnet.fleet.allocs_per_query",
        )
    } else {
        (
            "simnet.generate",
            "simnet.generate.ns_per_query",
            "simnet.generate.allocs_per_query",
        )
    };
    out.layer(ns_name, per(self_ns(gen), q), "ns");
    out.layer(allocs_name, per(self_allocs(gen), q), "count");
    let msgs = traced.parsed_msgs;
    out.layer(
        "dns-wire.parse.ns_per_msg",
        per(self_ns("dns-wire.parse"), msgs),
        "ns",
    );
    out.layer(
        "dns-wire.parse.allocs_per_msg",
        per(self_allocs("dns-wire.parse"), msgs),
        "count",
    );
    out.layer(
        "entrada.ingest.ns_per_row",
        per(self_ns("entrada.ingest"), rows),
        "ns",
    );
    out.layer(
        "entrada.ingest.allocs_per_row",
        per(self_allocs("entrada.ingest"), rows),
        "count",
    );
    // the memo is unbounded, so it misses exactly once per distinct
    // source address and hits on every other enriched query
    out.layer(
        "entrada.enrich.memo_hit_ratio",
        1.0 - per(traced.distinct_sources as f64, rows),
        "ratio",
    );
    let pushed = traced.rows_pushed;
    out.layer(
        "core.analysis.ns_per_row",
        per(self_ns("core.analysis"), pushed),
        "ns",
    );
    out.layer(
        "core.analysis.allocs_per_row",
        per(self_allocs("core.analysis"), pushed),
        "count",
    );
    if let Some(scan) = &traced.scan {
        let append = self_ns("warehouse.append") + self_ns("warehouse.commit");
        out.layer("warehouse.append.ns_per_row", per(append, rows), "ns");
        out.layer(
            "warehouse.append.bytes_per_row",
            per(traced.append_bytes as f64, rows),
            "B",
        );
        out.layer(
            "warehouse.scan.ns_per_row",
            per(self_ns("warehouse.scan"), scan.rows),
            "ns",
        );
        out.layer(
            "warehouse.scan.partitions_opened",
            scan.scanned as f64,
            "count",
        );
        out.layer(
            "warehouse.scan.partitions_pruned",
            scan.pruned as f64,
            "count",
        );
    }
    if let Some((hit_ratio, retries, timeouts)) = traced.resolver {
        out.layer("resolver.cache.hit_ratio", hit_ratio, "ratio");
        out.layer("resolver.rate_decay_ratio", traced.rate_decay, "ratio");
        out.layer(
            "resolver.retries_per_query",
            per(retries as f64, q),
            "count",
        );
        out.layer("resolver.timeouts", timeouts as f64, "count");
    }

    // The ledger: the ingest phase's serial layer self-times against
    // the wall time of the fused child doing the same work.
    println!("== ledger: serial layer self-times of the ingest phase vs the fused child ==");
    let mut sum = 0.0;
    for (name, layer) in rec.layers(Some("phase.ingest")) {
        if name == "dns-wire.parse" {
            continue; // the probe re-parses what ingest parses
        }
        let ns = layer.self_ns as f64;
        sum += ns;
        println!(
            "  {name:<20} {:>10.1} ms {:>9.1} ns/query {:>7.2} allocs/query",
            ns / 1e6,
            per(ns, q),
            per(layer.self_allocs as f64, q)
        );
    }
    let sum_s = sum / 1e9;
    let phase_self = rec
        .layers(None)
        .get("phase.ingest")
        .map_or(0, |l| l.self_ns) as f64
        / 1e9;
    println!("  {:<20} {:>10.1} ms", "sum of layers", sum_s * 1e3);
    println!(
        "  {:<20} {:>10.1} ms  (inside the phase, outside every layer)",
        "unattributed",
        phase_self * 1e3
    );
    println!(
        "  {:<20} {:>10.1} ms  -> fused speedup {:.3} (sum / child wall)",
        "fused child wall",
        child.wall * 1e3,
        sum_s / child.wall
    );
    println!(
        "  child cpu {:.3} s = {:.4} s/kquery; serial sum {:.4} s/kquery",
        child.cpu,
        child.cpu / (child.rows as f64 / 1e3),
        sum_s / (q as f64 / 1e3)
    );
    println!(
        "  traced pass {:.1} ms vs warm untraced pass {:.1} ms (cold: {:.1} ms)",
        traced.wall * 1e3,
        warm.wall * 1e3,
        plain.wall * 1e3
    );
    out.layer("ledger.fused_speedup", sum_s / child.wall, "ratio");
    out.layer(
        "process.cpu_s_per_kquery",
        child.cpu / (child.rows as f64 / 1e3),
        "s",
    );
    out.layer("trace.overhead_ratio", traced.wall / warm.wall, "ratio");
    Ok(plain)
}

/// The fused child's figures the in-process pass is held against.
struct ChildFigures {
    /// Median wall time of the ingest-phase child.
    wall: f64,
    /// Median user+sys CPU of the same children.
    cpu: f64,
    /// Rows (queries) the child reported.
    rows: u64,
}

pub fn calibrated(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = dataset(Vantage::Nl, 2020);
    let seed = format!("--seed={}", ctx.seed);
    let wh_setup = ctx.work.join("wh-setup");
    let mut setups = Vec::new();
    setup_batch(&spec, ctx.seed, Some(&wh_setup), &mut setups)?;

    let ingests = repeat_children(ctx.seconds * INGEST_SHARE, 1, |k| {
        let dir = ctx.work.join(format!("wh-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let args = [
            "ingest".to_string(),
            "nl".into(),
            "2020".into(),
            "--scale=small".into(),
            seed.clone(),
            format!("--warehouse={}", dir.display()),
        ];
        let usage = ctx.run(&args, &format!("ingest-{k}"))?;
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(usage)
    })?;
    let rows_of = |u: &Usage| number_before(&u.stdout, " row(s)");
    let rows = rows_of(&ingests[0]).ok_or("ingest printed no row count")?;
    out.check(
        format!("{} ingest run(s) all report {rows} rows", ingests.len()),
        ingests.iter().all(|u| rows_of(u) == Some(rows)),
    );

    setup_batch(&spec, ctx.seed, Some(&wh_setup), &mut setups)?;
    let wh0 = format!("--warehouse={}", ctx.work.join("wh-0").display());
    let reports = repeat_children(ctx.seconds * (1.0 - INGEST_SHARE), 3, |k| {
        ctx.run(&["report".to_string(), wh0.clone()], &format!("report-{k}"))
    })?;
    let text = &reports[0].stdout;
    let scanned = number_before(&reports[0].stderr, " row(s) read")
        .ok_or("report printed no scan summary")?;
    let corrupt = number_before(&reports[0].stderr, " corrupt").unwrap_or(u64::MAX);
    out.check(
        format!("rows scanned {scanned} == rows ingested {rows}, 0 corrupt partitions"),
        scanned == rows && corrupt == 0,
    );
    out.check(
        format!("Table 3 total {:?} == rows ingested", table3_total(text)),
        table3_total(text) == Some(rows),
    );
    out.check(
        format!("{} report run(s) byte-identical", reports.len()),
        reports.iter().all(|u| &u.stdout == text),
    );
    let direct = ctx.run(
        &[
            "dataset".to_string(),
            "nl".into(),
            "2020".into(),
            "--scale=small".into(),
            seed.clone(),
        ],
        "dataset",
    )?;
    out.check(
        "report --warehouse byte-identical to dataset nl 2020",
        &direct.stdout == text,
    );

    setup_batch(&spec, ctx.seed, Some(&wh_setup), &mut setups)?;
    let ingest_wall = median_of(&ingests, |u| u.wall.as_secs_f64());
    let report_wall = median_of(&reports, |u| u.wall.as_secs_f64());
    out.e2e("setup_s", median(&mut setups), "s");
    out.e2e("queries_per_s", rows as f64 / ingest_wall, "1/s");
    out.e2e("peak_rss_mb", median_of(&ingests, Usage::peak_rss_mb), "MB");
    out.e2e("cpu_ms_per_kquery", cpu_ms_per_kquery(&ingests, rows), "ms");
    println!(
        "calibrated: {} ingest(s) of {rows} queries, median {:.3} s; {} report(s), median {:.3} s",
        ingests.len(),
        ingest_wall,
        reports.len(),
        report_wall
    );
    println!(
        "  scan_rows_per_s {:.1} rows/s; report peak_rss_mb {:.1} MB",
        scanned as f64 / report_wall,
        median_of(&reports, Usage::peak_rss_mb)
    );

    let child = ChildFigures {
        wall: ingest_wall,
        cpu: median_of(&ingests, |u| u.cpu.as_secs_f64()),
        rows,
    };
    let pass = in_process(ctx, rec, &spec, false, &child, &mut out)?;
    for dir in ["wh-0", "wh-inproc"] {
        let _ = std::fs::remove_dir_all(ctx.work.join(dir));
    }
    out.check("in-process report == child report", &pass.report == text);
    if let Some(scan) = &pass.scan {
        out.check(
            format!(
                "in-process scan opened {} + pruned {} == partitions {}",
                scan.scanned, scan.pruned, scan.partitions_total
            ),
            scan.scanned + scan.pruned == scan.partitions_total,
        );
    }
    Ok(out)
}

pub fn fleet(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let template = ctx.run(
        &["scenario-template".to_string(), "nl".into(), "2020".into()],
        "template",
    )?;
    let mut spec: DatasetSpec = serde_json::from_str(&template.stdout)
        .map_err(|e| format!("scenario-template output unreadable: {e}"))?;
    // scale the full dataset's query count so the small scale yields
    // FLEET_QUERIES queries
    spec.total_queries = (FLEET_QUERIES as f64 / scale().queries).round() as u64;
    let scenario = ctx.work.join("fleet.json");
    std::fs::write(
        &scenario,
        serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("cannot write {}: {e}", scenario.display()))?;
    let mut setups = Vec::new();
    setup_batch(&spec, ctx.seed, None, &mut setups)?;

    let args = [
        "scenario".to_string(),
        scenario.display().to_string(),
        "--fleet".into(),
        "--scale=small".into(),
        format!("--seed={}", ctx.seed),
    ];
    let half = repeat_children(ctx.seconds / 2.0, 1, |k| {
        ctx.run(&args, &format!("fleet-{k}"))
    })?;
    setup_batch(&spec, ctx.seed, None, &mut setups)?;
    let mut runs = repeat_children(ctx.seconds / 2.0, 1, |k| {
        ctx.run(&args, &format!("fleet-{}", half.len() + k))
    })?;
    runs.extend(half);
    setup_batch(&spec, ctx.seed, None, &mut setups)?;
    let text = &runs[0].stdout;
    let rows = table3_total(text).ok_or("fleet report has no Table 3 total")?;
    out.check(
        format!("{} fleet run(s) of one seed byte-identical", runs.len()),
        runs.iter().all(|u| &u.stdout == text),
    );
    let wall = median_of(&runs, |u| u.wall.as_secs_f64());
    out.e2e("setup_s", median(&mut setups), "s");
    out.e2e("queries_per_s", rows as f64 / wall, "1/s");
    out.e2e("peak_rss_mb", median_of(&runs, Usage::peak_rss_mb), "MB");
    out.e2e("cpu_ms_per_kquery", cpu_ms_per_kquery(&runs, rows), "ms");
    println!(
        "fleet: {} run(s) of {rows} queries, median {wall:.3} s",
        runs.len()
    );

    let child = ChildFigures {
        wall,
        cpu: median_of(&runs, |u| u.cpu.as_secs_f64()),
        rows,
    };
    let pass = in_process(ctx, rec, &spec, true, &child, &mut out)?;
    out.check(
        format!(
            "fleet ingest has 0 malformed messages ({})",
            pass.ingest.malformed
        ),
        pass.ingest.malformed == 0,
    );
    out.check("in-process report == child report", &pass.report == text);
    Ok(out)
}
