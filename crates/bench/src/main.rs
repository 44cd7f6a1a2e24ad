//! `tmcc-bench` — the parallel sweep driver for the whole figure suite.
//!
//! ```text
//! tmcc-bench list
//! tmcc-bench run <name>... [--jobs N] [--quick|--test] [--profile] [--out DIR]
//!                          [--resume] [--retries N]
//! tmcc-bench run-all       [--jobs N] [--quick|--test] [--profile] [--out DIR]
//!                          [--resume] [--retries N]
//! ```
//!
//! `run-all` executes every registered experiment and writes one
//! `results/<name>.json` per experiment — byte-identically at any
//! `--jobs` count — plus a consolidated
//! `results/BENCH_sweep.json` with wall-clock, accesses simulated and
//! accesses/sec per experiment. `--profile` additionally collects the
//! simulator's host-time phase split (workload / translation / data /
//! maintenance).
//!
//! # Crash safety (DESIGN.md §6.2)
//!
//! Every completed simulation run is journaled under
//! `<out>/.journal/`; `--resume` replays journaled runs byte-identically
//! and simulates only the remainder. Failing points are retried
//! (`--retries`, default 2) and then quarantined into
//! `results/FAILURES.json`; a quarantined point fails its experiment but
//! never the rest of the fleet, and the process exits non-zero so CI
//! notices.

use rayon::ThreadPoolBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmcc::PhaseProfile;
use tmcc_bench::failures::FailureSink;
use tmcc_bench::journal::{JournalMeta, ResumeState, SweepJournal};
use tmcc_bench::perf_gate;
use tmcc_bench::registry::{self, Experiment};
use tmcc_bench::sweep::{
    add_profile, ExperimentTiming, PointAborted, PointReplayDone, Scale, Sweep, SweepCtx,
    SweepSummary, DEFAULT_RETRIES,
};
use tmcc_bench::watchdog::Watchdog;

struct Options {
    jobs: usize,
    scale: Scale,
    profile: bool,
    out: PathBuf,
    resume: bool,
    retries: u32,
    point: Option<usize>,
    names: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tmcc-bench <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                 list registered experiments\n\
         \x20 run <name>...        run the named experiments\n\
         \x20 run-all              run every registered experiment\n\
         \x20 perf-gate --baseline F --current F [--tolerance-pct P]\n\
         \x20           [--rss-tolerance-pct R]\n\
         \x20                      diff two BENCH_sweep.json summaries; exit 1 on\n\
         \x20                      any acc/s regression beyond P% (default 15) or\n\
         \x20                      peak-RSS growth beyond R% (default 25)\n\
         \n\
         options:\n\
         \x20 --jobs N             worker threads (default: one per CPU)\n\
         \x20 --quick              ~5x smaller runs (CI smoke scale)\n\
         \x20 --test               tiny runs (golden determinism scale)\n\
         \x20 --profile            collect host-time per-phase timing\n\
         \x20 --out DIR            output directory (default: repo results/)\n\
         \x20 --resume             replay completed points from the sweep journal\n\
         \x20 --retries N          attempts per point = N + 1 (default: 2)\n\
         \x20 --point N            (run, one experiment) replay only grid point N —\n\
         \x20                      standalone reproduction of a FAILURES.json entry"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        jobs: 0,
        scale: Scale::Full,
        profile: false,
        out: tmcc_bench::results_dir(),
        resume: false,
        retries: DEFAULT_RETRIES,
        point: None,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--quick" => opts.scale = Scale::Quick,
            "--test" => opts.scale = Scale::Test,
            "--profile" => opts.profile = true,
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.out = PathBuf::from(v);
            }
            "--resume" => opts.resume = true,
            "--point" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.point = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--retries" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.retries = v.parse().unwrap_or_else(|_| usage());
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}\n");
                usage();
            }
            name => opts.names.push(name.to_string()),
        }
    }
    opts
}

/// Opens the sweep journal (resuming if asked), starts the watchdog, and
/// builds the worker pool every experiment's context shares.
fn open_sweep(opts: &Options) -> Arc<Sweep> {
    let meta = JournalMeta::current(opts.scale);
    let journal = if opts.resume {
        match SweepJournal::open_resume(&opts.out, &meta) {
            Ok((journal, state)) => {
                match state {
                    ResumeState::Fresh => {
                        println!("[resume] no journal found; starting cold");
                    }
                    ResumeState::Resumed { records, dropped_tail } => {
                        println!(
                            "[resume] replaying {records} completed point(s) from {}{}",
                            journal.path().display(),
                            if dropped_tail { " (torn tail dropped)" } else { "" }
                        );
                    }
                    ResumeState::Invalidated { field } => {
                        println!(
                            "[resume] journal {field} mismatch (different build, scale, or \
                             tuning); starting cold"
                        );
                    }
                }
                journal
            }
            Err(e) => {
                eprintln!("cannot resume: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match SweepJournal::open_fresh(&opts.out, &meta) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cannot open sweep journal: {e}");
                std::process::exit(1);
            }
        }
    };
    Arc::new(Sweep {
        scale: opts.scale,
        out_dir: opts.out.clone(),
        profile: opts.profile,
        retries: opts.retries,
        only_point: opts.point,
        // Zero threads means one per available CPU.
        pool: ThreadPoolBuilder::new().num_threads(opts.jobs).build().expect("pool"),
        journal,
        watchdog: Watchdog::new(),
        failures: FailureSink::new(),
    })
}

/// Runs one experiment through its context, isolating panics: a point
/// quarantine ([`PointAborted`]) or any other experiment-level panic
/// marks the experiment failed without taking down the suite.
fn run_one(e: &Experiment, ctx: &SweepCtx) -> ExperimentTiming {
    println!("\n━━━ {} ━━━", e.name);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| (e.run)(ctx)));
    let wall = start.elapsed();
    let status = match outcome {
        Ok(()) => "ok",
        Err(payload) if payload.is::<PointReplayDone>() => "replayed",
        Err(payload) => {
            if !payload.is::<PointAborted>() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                eprintln!("[{}] experiment aborted: {message}", e.name);
            }
            "failed"
        }
    };
    let accesses = ctx.accesses_simulated();
    // Throughput divides by summed point-execution time, not the span:
    // under the shared pool a span includes time this experiment's
    // workers spent stolen by other experiments, which makes span-based
    // acc/s flip 2x+ with scheduling order and trip the perf gate.
    let busy = ctx.busy_ns() as f64 / 1e9;
    let denom = if busy > 0.0 { busy } else { wall.as_secs_f64() };
    ExperimentTiming {
        name: e.name,
        status,
        wall_ms: wall.as_secs_f64() * 1e3,
        busy_ms: busy * 1e3,
        accesses_simulated: accesses,
        accesses_per_sec: accesses as f64 / denom.max(1e-9),
        points_replayed: ctx.points_replayed(),
    }
}

/// Runs `experiments`, timing each; returns the consolidated summary.
///
/// With one worker they run one after another. Otherwise they run as
/// tasks on the sweep's shared work-stealing pool: every experiment is
/// spawned up front, each with its own context (so access counters stay
/// per-experiment), and the pool saturates its workers across experiment
/// boundaries — an experiment's inner grid chunks fill the gaps left by
/// another's stragglers.
///
/// Results land in per-experiment slots indexed by registry position, so
/// the summary (and every `results/*.json`) keeps registry order no
/// matter how the tasks get scheduled. Per-experiment wall clocks overlap
/// under this scheduler (workers help whichever task is queued), so they
/// sum to more than the suite's wall clock. Panics never reach the
/// shared pool's scope join — [`run_one`] catches them at the experiment
/// boundary, so one failing experiment cannot poison the batch.
fn run_suite(experiments: &[Experiment], sweep: &Arc<Sweep>) -> SweepSummary {
    let jobs = sweep.pool.current_num_threads();
    let suite_start = Instant::now();
    let ctxs: Vec<SweepCtx> = experiments
        .iter()
        .map(|e| SweepCtx::new(Arc::clone(sweep), e.name, e.budget_weight))
        .collect();
    let timings: Vec<ExperimentTiming> = if jobs <= 1 {
        experiments.iter().zip(&ctxs).map(|(e, ctx)| run_one(e, ctx)).collect()
    } else {
        let slots: Vec<Mutex<Option<ExperimentTiming>>> =
            experiments.iter().map(|_| Mutex::new(None)).collect();
        sweep.pool.scope(|scope| {
            for ((e, ctx), slot) in experiments.iter().zip(&ctxs).zip(&slots) {
                scope.spawn(move || {
                    *slot.lock().expect("timing slot") = Some(run_one(e, ctx));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("timing slot").expect("experiment ran"))
            .collect()
    };
    let total_wall = suite_start.elapsed();
    let mut profile = PhaseProfile::default();
    for p in ctxs.iter().filter_map(SweepCtx::profile) {
        add_profile(&mut profile, &p);
    }
    let total_accesses: u64 = timings.iter().map(|t| t.accesses_simulated).sum();
    SweepSummary {
        scale: sweep.scale.name(),
        jobs,
        experiments: timings,
        total_wall_ms: total_wall.as_secs_f64() * 1e3,
        total_accesses_simulated: total_accesses,
        accesses_per_sec: total_accesses as f64 / total_wall.as_secs_f64().max(1e-9),
        peak_rss_kb: tmcc_bench::hostmem::peak_rss_kb(),
        profile,
    }
}

fn print_summary(summary: &SweepSummary) {
    println!("\n━━━ sweep summary ({} scale, {} jobs) ━━━", summary.scale, summary.jobs);
    for t in &summary.experiments {
        let replayed = if t.points_replayed > 0 {
            format!("  ({} replayed)", t.points_replayed)
        } else {
            String::new()
        };
        println!(
            "  {:<28} {:>6} {:>9.0} ms  {:>12} accesses  {:>12.0} acc/s{}",
            t.name, t.status, t.wall_ms, t.accesses_simulated, t.accesses_per_sec, replayed
        );
    }
    println!(
        "  {:<28} {:>6} {:>9.0} ms  {:>12} accesses  {:>12.0} acc/s",
        "TOTAL",
        "",
        summary.total_wall_ms,
        summary.total_accesses_simulated,
        summary.accesses_per_sec
    );
    let p = &summary.profile;
    if p.steps > 0 {
        let (w, t, d, m) = p.shares();
        println!(
            "  phase profile over {} steps: workload {:.1}% / translation {:.1}% / \
             data {:.1}% / maintenance {:.1}%",
            p.steps,
            w * 100.0,
            t * 100.0,
            d * 100.0,
            m * 100.0
        );
    }
}

/// Writes `FAILURES.json` (or removes a stale one) and exits non-zero
/// when anything was quarantined.
fn finish(sweep: &Sweep) {
    let quarantined = sweep.failures.finalize(&sweep.out_dir);
    if quarantined > 0 {
        eprintln!("tmcc-bench: {}", sweep.failures.summary_line());
        std::process::exit(1);
    }
}

fn main() {
    // `--point` unwinds with [`PointReplayDone`] on success; that control
    // flow must not print as a panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<PointReplayDone>() {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "list" => {
            for e in registry::all() {
                println!("{:<28} {}", e.name, e.title);
            }
        }
        "run" => {
            let opts = parse_options(&args[1..]);
            if opts.names.is_empty() {
                eprintln!("run: at least one experiment name required\n");
                usage();
            }
            let mut experiments = Vec::new();
            for name in &opts.names {
                match registry::find(name) {
                    Ok(e) => experiments.push(e),
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(1);
                    }
                }
            }
            if opts.point.is_some() && experiments.len() != 1 {
                eprintln!("--point replays one grid point; name exactly one experiment\n");
                usage();
            }
            let sweep = open_sweep(&opts);
            let summary = run_suite(&experiments, &sweep);
            print_summary(&summary);
            finish(&sweep);
            if opts.point.is_some() && summary.experiments.iter().any(|t| t.status != "replayed") {
                // An out-of-range point aborts without quarantining
                // anything; the replay still failed.
                std::process::exit(1);
            }
        }
        "run-all" => {
            let opts = parse_options(&args[1..]);
            if !opts.names.is_empty() {
                eprintln!("run-all takes no experiment names\n");
                usage();
            }
            if opts.point.is_some() {
                eprintln!("--point requires `run` with a single experiment\n");
                usage();
            }
            let sweep = open_sweep(&opts);
            let summary = run_suite(&registry::all(), &sweep);
            print_summary(&summary);
            let _ = std::fs::create_dir_all(&opts.out);
            let path = opts.out.join("BENCH_sweep.json");
            match serde_json::to_string_pretty(&summary) {
                Ok(s) => {
                    if std::fs::write(&path, s).is_ok() {
                        println!("\n[sweep summary written to {}]", path.display());
                    }
                }
                Err(e) => eprintln!("could not serialize sweep summary: {e}"),
            }
            finish(&sweep);
        }
        "perf-gate" => {
            let mut baseline = None;
            let mut current = None;
            let mut tolerance = perf_gate::DEFAULT_TOLERANCE_PCT;
            let mut rss_tolerance = perf_gate::DEFAULT_RSS_TOLERANCE_PCT;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--baseline" => baseline = it.next().map(PathBuf::from),
                    "--current" => current = it.next().map(PathBuf::from),
                    "--tolerance-pct" => {
                        let v = it.next().unwrap_or_else(|| usage());
                        tolerance = v.parse().unwrap_or_else(|_| usage());
                    }
                    "--rss-tolerance-pct" => {
                        let v = it.next().unwrap_or_else(|| usage());
                        rss_tolerance = v.parse().unwrap_or_else(|_| usage());
                    }
                    other => {
                        eprintln!("perf-gate: unknown argument {other}\n");
                        usage();
                    }
                }
            }
            let (Some(baseline), Some(current)) = (baseline, current) else {
                eprintln!("perf-gate: --baseline and --current are both required\n");
                usage();
            };
            let read = |path: &PathBuf| match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("perf-gate: cannot read {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let outcome = match perf_gate::evaluate(
                &read(&baseline),
                &read(&current),
                tolerance,
                rss_tolerance,
            ) {
                Ok(o) => o,
                Err(msg) => {
                    eprintln!("perf-gate: {msg}");
                    std::process::exit(1);
                }
            };
            println!("━━━ perf gate (tolerance {tolerance:.0}%, RSS {rss_tolerance:.0}%) ━━━");
            for r in &outcome.rows {
                println!(
                    "  {:<28} {:>12.0} → {:>12.0} acc/s  {:>+7.1}%  {}",
                    r.name,
                    r.baseline_aps,
                    r.current_aps,
                    r.delta_pct,
                    if r.regressed { "REGRESSED" } else { "ok" }
                );
            }
            if let Some(rss) = outcome.rss {
                println!(
                    "  {:<28} {:>12} → {:>12} kB     {:>+7.1}%  {}",
                    "peak RSS",
                    rss.baseline_kb,
                    rss.current_kb,
                    rss.delta_pct,
                    if rss.regressed { "REGRESSED" } else { "ok" }
                );
            }
            for s in &outcome.skipped {
                println!("  skipped: {s}");
            }
            let regressions = outcome.regressions();
            if !regressions.is_empty() {
                eprintln!(
                    "perf-gate: {} experiment(s) regressed beyond {tolerance:.0}%: {}",
                    regressions.len(),
                    regressions.join(", ")
                );
            }
            if outcome.rss.is_some_and(|r| r.regressed) {
                eprintln!("perf-gate: peak RSS grew beyond {rss_tolerance:.0}%");
            }
            if outcome.failed() {
                std::process::exit(1);
            }
            println!("perf-gate: {} experiment(s) within tolerance", outcome.rows.len());
        }
        _ => usage(),
    }
}
