//! End-to-end and per-layer benchmark of the anytime index stack.
//!
//! ```text
//! perfbench --workload <ingest|certify|classify|cluster> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --calibrate
//! ```
//!
//! One process, one thread.  After set-up (repeated, see [`MIN_SETUPS`]; the
//! median is `setup_s`) the run times one untimed warm-up round and then
//! identical rounds for `--seconds`.  Every timing is thread CPU time
//! ([`harness::cpu_ns`]); every set-up and round is bracketed by a
//! [`SpeedProbe`] and its timings are scaled to the probe's nominal speed.
//! Together they keep the host's slow phases out of the figures.  Timing
//! metrics are medians over all rounds.  `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced rounds, prints the
//! per-layer metrics and writes the spans to `.bench_trace/`.  The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod harness;
mod workloads;

use harness::{
    median, peak_rss_mb, percentile, ratio, self_time_of, self_times, Calls, Kind, Span,
    SpeedProbe, PROBE_NOMINAL_S,
};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Knobs, RoundReport, Workload};

/// Set-up repeats at least [`MIN_SETUPS`] times and until [`SETUP_SECONDS`]
/// have passed (at most [`MAX_SETUPS`] times); `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 0.5;
/// Rounds each timed mode needs at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Cap on rounds per run, which bounds the memory kept for latencies.
const MAX_ROUNDS: usize = 4_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

const USAGE: &str = "usage: perfbench --workload <ingest|certify|classify|cluster> \
                     --seed <n> --seconds <s> --trace <0|1> [--calibrate]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(args)
}

/// Counters the metrics registry gained over one round.
#[derive(Debug, Default, Clone, Copy)]
struct RegistryCounts {
    objects: u64,
    parked: u64,
    node_visits: u64,
    refreshes: u64,
    splits: u64,
    elements: u64,
    gathers: u64,
    gathers_avoided: u64,
    refine_rounds: u64,
}

impl RegistryCounts {
    fn of(delta: &bt_obs::Snapshot) -> Self {
        Self {
            objects: delta.counter("bt_insert_objects_total"),
            parked: delta.counter("bt_insert_parked_total"),
            node_visits: delta.counter("bt_insert_node_visits_total"),
            refreshes: delta.counter("bt_insert_summary_refreshes_total"),
            splits: delta.counter("bt_insert_splits_total"),
            elements: delta.counter("bt_query_elements_scored_total"),
            gathers: delta.counter("bt_query_block_gathers_total"),
            gathers_avoided: delta.counter("bt_query_gathers_avoided_total"),
            refine_rounds: delta.histogram_totals("bt_refine_bound_width").0,
        }
    }

    fn add(&mut self, other: &Self) {
        self.objects += other.objects;
        self.parked += other.parked;
        self.node_visits += other.node_visits;
        self.refreshes += other.refreshes;
        self.splits += other.splits;
        self.elements += other.elements;
        self.gathers += other.gathers;
        self.gathers_avoided += other.gathers_avoided;
        self.refine_rounds += other.refine_rounds;
    }
}

/// One measured round.  `secs`, `latencies` and `self_ns` are as the clock
/// read them; `scale` brings them to the probe's nominal speed.
struct Round {
    traced: bool,
    secs: f64,
    scale: f64,
    latencies: Vec<u64>,
    report: RoundReport,
    registry: RegistryCounts,
    self_ns: [u64; 5],
}

struct Measured {
    rounds: Vec<Round>,
    /// Spans of every traced round, keyed by round number.
    spans: Vec<(usize, Vec<Span>)>,
    attempted: u64,
    failed: u64,
    quality: f64,
    /// Peak RSS after the first timed round.  Later rounds repeat the same
    /// work; only the benchmark's own latency samples keep growing, by as
    /// much as the host's speed lets rounds run.
    rss_peak_mb: f64,
}

fn measure(workload: &mut dyn Workload, probe: &SpeedProbe, seconds: u64, trace: bool) -> Measured {
    let mut calls = Calls::new(workload.latency_of());
    let registry = bt_obs::Registry::global();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Measured {
        rounds: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        quality: 0.0,
        rss_peak_mb: f64::NAN,
    };
    for index in 0..=MAX_ROUNDS {
        // Round 0 is the warm-up; a traced run alternates after it.
        let traced = trace && index > 0 && index % 2 == 0;
        workload.prepare();
        let before = registry.snapshot();
        let ((latencies, spans), secs, scale) = probe.bracket(|| {
            calls.begin_round(traced);
            workload.run(&mut calls);
            calls.end_round()
        });
        let delta = registry.snapshot().delta_since(&before);
        let report = workload.verify(&delta);
        out.attempted += report.checked;
        out.failed += report.failed;
        out.quality = report.quality;
        if index == 0 {
            continue;
        }
        if index == 1 {
            out.rss_peak_mb = peak_rss_mb().unwrap_or(f64::NAN);
        }
        out.rounds.push(Round {
            traced,
            secs,
            scale,
            latencies,
            report,
            registry: RegistryCounts::of(&delta),
            self_ns: self_times(&spans),
        });
        if traced {
            out.spans.push((index, spans));
        }
        let enough =
            |mode: bool| out.rounds.iter().filter(|r| r.traced == mode).count() >= MIN_ROUNDS;
        if Instant::now() >= deadline && enough(false) && (!trace || enough(true)) {
            break;
        }
    }
    let (checked, failed) = workload.final_check();
    out.attempted += checked;
    out.failed += failed;
    out
}

/// The rounds of one mode.
fn of_mode(rounds: &[Round], traced: bool) -> Vec<&Round> {
    rounds.iter().filter(|r| r.traced == traced).collect()
}

/// Median over rounds of each round's ops per second, at nominal speed
/// (`nominal`) or as the clock read it.
fn ops_per_s(rounds: &[&Round], nominal: bool) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.report.ops as f64 / (r.secs * if nominal { r.scale } else { 1.0 }))
        .collect();
    median(&rates)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let rounds = of_mode(&m.rounds, false);
    let mut latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().map(|&ns| ns as f64 * r.scale))
        .collect();
    let speeds: Vec<f64> = rounds.iter().map(|r| 1.0 / r.scale).collect();
    println!("# latency samples: {}", latencies.len());
    println!(
        "# host speed: median probe {:.1} us (nominal {:.1} us); ops_per_s by the clock: {:.1}",
        median(&speeds) * PROBE_NOMINAL_S * 1e6,
        PROBE_NOMINAL_S * 1e6,
        ops_per_s(&rounds, false)
    );
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s(&rounds, true), "1/s"),
        (
            "latency_p50_us",
            percentile(&mut latencies, 50.0) / 1e3,
            "us",
        ),
        (
            "latency_p90_us",
            percentile(&mut latencies, 90.0) / 1e3,
            "us",
        ),
        ("rss_peak_mb", m.rss_peak_mb, "MB"),
        ("quality", m.quality, "frac"),
    ]
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let rounds = of_mode(&m.rounds, true);
    let round_ns: f64 = rounds.iter().map(|r| r.secs * 1e9 * r.scale).sum();
    let mut self_ns = [0f64; 5];
    let mut reg = RegistryCounts::default();
    let mut rep = RoundReport::default();
    for r in &rounds {
        for (total, ns) in self_ns.iter_mut().zip(r.self_ns) {
            *total += ns as f64 * r.scale;
        }
        reg.add(&r.registry);
        rep.queries += r.report.queries;
        rep.query_nodes_read += r.report.query_nodes_read;
        rep.pins += r.report.pins;
        rep.batches += r.report.batches;
        rep.cow_copies += r.report.cow_copies;
    }
    let layer = |kind| self_time_of(&self_ns, kind);
    let (descent, query, snapshot) = (
        layer(Kind::Descent),
        layer(Kind::Query),
        layer(Kind::Snapshot),
    );
    let bench = layer(Kind::Round) + layer(Kind::Batch);
    let accounted: f64 = self_ns.iter().sum();
    println!(
        "# trace.accounted: {:.4} of traced round time",
        accounted / round_ns
    );
    let nodes = m.rounds.last().map_or(0, |r| r.report.nodes);
    vec![
        ("descent.busy_share", descent / round_ns, "frac"),
        ("descent.ns_per_obj", ratio(descent, reg.objects), "ns"),
        (
            "descent.node_visits_per_obj",
            ratio(reg.node_visits as f64, reg.objects),
            "count",
        ),
        (
            "descent.refreshes_per_obj",
            ratio(reg.refreshes as f64, reg.objects),
            "count",
        ),
        (
            "descent.splits_per_kobj",
            ratio(1e3 * reg.splits as f64, reg.objects),
            "count",
        ),
        (
            "descent.parked_frac",
            ratio(reg.parked as f64, reg.objects),
            "frac",
        ),
        ("query.busy_share", query / round_ns, "frac"),
        ("query.ns_per_query", ratio(query, rep.queries), "ns"),
        (
            "query.nodes_read_per_query",
            ratio(rep.query_nodes_read as f64, rep.queries),
            "count",
        ),
        (
            "query.elements_per_query",
            ratio(reg.elements as f64, rep.queries),
            "count",
        ),
        ("query.ns_per_element", ratio(query, reg.elements), "ns"),
        (
            "query.gather_hit_rate",
            ratio(
                reg.gathers_avoided as f64,
                reg.gathers + reg.gathers_avoided,
            ),
            "frac",
        ),
        (
            "query.refine_rounds_per_query",
            ratio(reg.refine_rounds as f64, rep.queries),
            "count",
        ),
        ("snapshot.busy_share", snapshot / round_ns, "frac"),
        ("snapshot.ns_per_pin", ratio(snapshot, rep.pins), "ns"),
        (
            "arena.cow_copies_per_batch",
            ratio(rep.cow_copies as f64, rep.batches),
            "count",
        ),
        ("arena.nodes", nodes as f64, "count"),
        ("bench.busy_share", bench / round_ns, "frac"),
        (
            "trace.overhead",
            ops_per_s(&rounds, true) / ops_per_s(&of_mode(&m.rounds, false), true),
            "ratio",
        ),
    ]
}

/// Writes the traced rounds' spans as CSV: one row per span.
fn write_spans(path: &str, rounds: &[(usize, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "round,span,parent,kind,start_ns,end_ns")?;
    for (round, spans) in rounds {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{round},{i},{parent},{},{},{}",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn emit(attempted: u64, failed: u64, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Prints the quality-versus-knob curve the workload constants were
/// chosen from: one untimed round per setting.
fn calibrate(name: &str, seed: u64) {
    let base = Knobs::default_for(name);
    let settings: Vec<Knobs> = match name {
        "certify" => [0.1, 0.3]
            .iter()
            .flat_map(|&factor| {
                [24, 32, 40, 48, 56].map(|budget| Knobs {
                    budget,
                    threshold_factor: factor,
                })
            })
            .collect(),
        "classify" => [0, 1, 2, 4, 6, 8, 10, 12, 16, 20, 32, 60]
            .map(|budget| Knobs { budget, ..base })
            .to_vec(),
        "cluster" => [2, 3, 4, 5, 6, 8]
            .map(|budget| Knobs { budget, ..base })
            .to_vec(),
        _ => vec![base],
    };
    for knobs in settings {
        let mut workload = workloads::setup(name, seed, knobs).expect("known workload");
        let mut calls = Calls::new(workload.latency_of());
        workload.prepare();
        calls.begin_round(false);
        workload.run(&mut calls);
        calls.end_round();
        let report = workload.verify(&bt_obs::Snapshot::default());
        println!(
            "{name} budget {:>3} threshold x{:<5} {} {:.4}",
            knobs.budget,
            knobs.threshold_factor,
            workload.quality_name(),
            report.quality
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        calibrate(&args.workload, args.seed);
        return ExitCode::SUCCESS;
    }
    let knobs = Knobs::default_for(&args.workload);
    let probe = SpeedProbe::new();
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.len() < MAX_SETUPS && setup_secs.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(workload.take());
        let (built, secs, scale) =
            probe.bracket(|| workloads::setup(&args.workload, args.seed, knobs));
        workload = built;
        setup_secs.push(secs * scale);
    }
    let mut workload = workload.expect("workload name was validated");
    let measured = measure(workload.as_mut(), &probe, args.seconds, args.trace);

    let untraced: Vec<f64> = measured
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.secs)
        .collect();
    let fastest_secs = untraced.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "# workload {} seed {} rounds {} (traced {}), quality = {}",
        args.workload,
        args.seed,
        measured.rounds.len(),
        measured.spans.len(),
        workload.quality_name()
    );
    println!(
        "# slow_round_ratio: {:.3} (median round / fastest round, untraced)",
        median(&untraced) / fastest_secs
    );
    let metrics = if args.trace {
        let path = format!(".bench_trace/{}-seed{}.csv", args.workload, args.seed);
        match write_spans(&path, &measured.spans) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        per_layer(&measured)
    } else {
        end_to_end(&measured, median(&setup_secs))
    };
    emit(measured.attempted, measured.failed, &metrics);
    ExitCode::SUCCESS
}
