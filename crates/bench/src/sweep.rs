//! The shared sweep harness behind `tmcc-bench`.
//!
//! Every experiment runs through a [`SweepCtx`] within one [`Sweep`]: it
//! supplies the run [`Scale`], a worker pool for [`SweepCtx::par_map`]
//! grids, the JSON output directory, and per-experiment counters
//! (accesses simulated, optional host-time phase profile). Determinism is by construction — each config
//! point carries its own seed, `par_map` returns results in input order
//! regardless of scheduling, and the JSON emitters consume those ordered
//! results — so `--jobs 1` and `--jobs N` produce byte-identical
//! `results/<name>.json` files.
//!
//! # Failure isolation (DESIGN.md §6.2)
//!
//! Every `par_map` point runs inside a `catch_unwind` ring: a panicking, erroring, or timed-out point is
//! retried up to `--retries` times (each retry deterministically
//! re-seeded in [`SweepCtx::tune`]), and a point that exhausts its
//! retries is quarantined into `results/FAILURES.json` — its experiment
//! aborts, the rest of the fleet keeps running. Every simulation a point
//! runs goes through one journaled runner (`SweepCtx::run_journaled`):
//! the sweep journal ([`crate::journal`]) makes completed runs replayable
//! after a crash, and the watchdog ([`crate::watchdog`]) cancels runs
//! that exceed their deadline — construction included — through the
//! simulator's cooperative [`RunHandle`].

use crate::failures::{FailPoint, FailureCause, FailureSink, PointFailure};
use crate::journal::{fingerprint, SweepJournal};
use crate::watchdog::{effective_budget, Watchdog};
use crate::DEFAULT_ACCESSES;
use rayon::prelude::*;
use rayon::ThreadPool;
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tmcc::config::TmccToggles;
use tmcc::{
    MultiTenantConfig, MultiTenantReport, MultiTenantSystem, PhaseProfile, RunHandle, RunReport,
    SchemeKind, System, SystemConfig, TmccError,
};
use tmcc_workloads::WorkloadProfile;

/// How much work each config point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-fidelity runs (the published `results/` files).
    Full,
    /// ~5× smaller: CI smoke runs that still exercise every phase.
    Quick,
    /// Tiny: the golden determinism test (seconds for the whole suite).
    Test,
}

impl Scale {
    /// Display name (recorded in `BENCH_sweep.json`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
            Scale::Test => "test",
        }
    }

    /// Measured accesses per simulation run.
    pub fn accesses(self) -> u64 {
        match self {
            Scale::Full => DEFAULT_ACCESSES,
            Scale::Quick => 10_000,
            Scale::Test => 1_000,
        }
    }

    /// Warmup override (`None` keeps each config's paper default).
    pub fn warmup(self) -> Option<u64> {
        match self {
            Scale::Full => None,
            Scale::Quick => Some(5_000),
            Scale::Test => Some(500),
        }
    }

    /// Pages per workload image for the compression-ratio study (Fig. 15).
    pub fn content_pages(self) -> u64 {
        match self {
            Scale::Full => 384,
            Scale::Quick => 96,
            Scale::Test => 16,
        }
    }

    /// Pages per workload feeding the Deflate cycle model (Table II).
    pub fn corpus_pages(self) -> u64 {
        match self {
            Scale::Full => 24,
            Scale::Quick => 8,
            Scale::Test => 4,
        }
    }

    /// Cap on each workload's simulated footprint (`None` keeps the
    /// paper-scale page counts). Only the test scale shrinks footprints:
    /// system construction (page table, size-model sampling) is linear in
    /// pages and would otherwise dominate tiny runs.
    pub fn pages_cap(self) -> Option<u64> {
        match self {
            Scale::Full | Scale::Quick => None,
            Scale::Test => Some(2_048),
        }
    }

    /// Size-model codec samples per system ([`SystemConfig::size_samples`]).
    /// Sampling compresses real pages with the real codecs, a fixed
    /// ~100 ms per constructed system at the paper default of 128 — fine
    /// for paper-scale runs, dominant at the test scale.
    pub fn size_samples(self) -> usize {
        match self {
            Scale::Full | Scale::Quick => 128,
            Scale::Test => 16,
        }
    }

    /// Base watchdog budget per simulation run, before the experiment's
    /// `budget_weight` multiplier. Calibrated ~50× above observed run
    /// times at each scale — the watchdog exists to catch wedged points,
    /// not slow ones.
    pub fn point_budget(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(600),
            Scale::Quick => Duration::from_secs(120),
            Scale::Test => Duration::from_secs(60),
        }
    }
}

/// Default `--retries`: attempts per point = retries + 1.
pub const DEFAULT_RETRIES: u32 = 2;

/// A point's retry state, visible to [`SweepCtx::tune`] on the worker
/// thread executing the point.
#[derive(Debug, Clone, Copy, Default)]
struct PointState {
    attempt: u32,
    timeouts: u32,
}

thread_local! {
    /// Retry state of the point currently executing on this worker.
    static POINT_CTX: Cell<PointState> = const { Cell::new(PointState { attempt: 0, timeouts: 0 }) };
    /// Display form of the last simulator error [`SweepCtx::run`]
    /// panicked on — lets the retry ring report a typed `sim-error`
    /// cause instead of a generic panic.
    static LAST_SIM_ERROR: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Seed of the most recently tuned config on this worker, recorded
    /// into `FAILURES.json` so a quarantined point can be replayed at
    /// the exact seed of its final attempt.
    static LAST_POINT_SEED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Panic payload for a watchdog-cancelled run; the journaled runner
/// throws it so timeouts route through the same retry ring as panics,
/// even for callers that match on `Result` (the robustness sweep).
struct PointTimeout {
    budget_ms: u64,
}

/// Panic payload thrown after a point exhausts its retries and was
/// recorded in the failure sink. The experiment-level `catch_unwind` in
/// `tmcc-bench` recognizes it and does not double-report.
pub struct PointAborted;

/// Panic payload thrown by `--point` replay after the selected point
/// finished: the experiment stops before aggregating or emitting partial
/// results, and `tmcc-bench` reports the replay as a success.
pub struct PointReplayDone;

/// One `tmcc-bench` invocation: its run settings, the worker pool, and
/// the crash-safety plumbing every experiment's [`SweepCtx`] shares.
///
/// The pool is shared so the `run-all` scheduler's experiments feed the
/// same work-stealing deques; the journal, watchdog, and failure sink are
/// shared so one file, one deadline thread, and one quarantine report
/// cover the whole fleet.
pub struct Sweep {
    /// Run scale of every experiment.
    pub scale: Scale,
    /// Output directory for `results/<name>.json`.
    pub out_dir: PathBuf,
    /// Collect the simulator's host-time phase profile (`--profile`).
    pub profile: bool,
    /// Per-point retry count (attempts = retries + 1).
    pub retries: u32,
    /// `--point`: run only this index of the experiment's first grid
    /// through the normal retry ring, then stop with [`PointReplayDone`]
    /// instead of emitting partial results — the standalone replay for a
    /// `FAILURES.json` entry.
    pub only_point: Option<usize>,
    /// The worker pool behind [`SweepCtx::par_map`] and
    /// [`SweepCtx::seq_map`]; its thread count is the sweep's `--jobs`.
    pub pool: ThreadPool,
    /// Completed points are appended; journaled points replay.
    pub journal: SweepJournal,
    /// Gives every point a cancellation deadline.
    pub watchdog: Watchdog,
    /// Collects points that exhausted their retries.
    pub failures: FailureSink,
}

/// One experiment's context within a [`Sweep`]: the shared settings plus
/// this experiment's name, deadline class, and counters.
pub struct SweepCtx {
    sweep: Arc<Sweep>,
    experiment: &'static str,
    budget_weight: f64,
    accesses: AtomicU64,
    /// Summed worker time spent executing this experiment's points. Under
    /// the shared `run-all` pool an experiment's *span* includes time its
    /// workers were stolen by other experiments, so span-based throughput
    /// is schedule-dependent; busy time is not.
    busy_ns: AtomicU64,
    points_replayed: AtomicU64,
    profile: Mutex<PhaseProfile>,
}

/// Journal key prefixes, one per point family, so records of different
/// families can never shadow one another (an integrity-storm config
/// differs from a plain run's only by its flip plan).
const PLAIN: &str = "";
const INTEGRITY: &str = "int|";
const MULTI_TENANT: &str = "mt|";
const CAPACITY: &str = "cap|";

/// The journal key of one point: its family prefix, the tuned config's
/// `Debug` form, and the measured access count.
fn point_key(prefix: &str, cfg: &impl fmt::Debug, accesses: u64) -> u64 {
    fingerprint(&format!("{prefix}{cfg:?}|{accesses}"))
}

/// A point family's journal record: serialized compactly on append and
/// decoded bit-exactly on replay, so replayed points feed downstream JSON
/// byte-identically.
trait PointRecord: Serialize + Sized {
    fn from_value(v: &serde::Value) -> Result<Self, String>;
}

impl PointRecord for RunReport {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        RunReport::from_value(v)
    }
}

impl PointRecord for MultiTenantReport {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        MultiTenantReport::from_value(v)
    }
}

/// A capacity point's record: the report plus the host-side
/// measurements a plain [`RunReport`] cannot express.
#[derive(Serialize)]
struct CapacityRecord {
    report: RunReport,
    probe: CapacityProbe,
}

impl PointRecord for CapacityRecord {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let mut f = serde::FieldReader::open(v, "CapacityRecord")?;
        let report = RunReport::from_value(f.value("report")?)?;
        let probe = CapacityProbe::from_value(f.value("probe")?)?;
        f.finish()?;
        Ok(Self { report, probe })
    }
}

/// Folds one phase profile into an accumulator.
pub fn add_profile(acc: &mut PhaseProfile, p: &PhaseProfile) {
    acc.steps += p.steps;
    acc.workload_ns += p.workload_ns;
    acc.translation_ns += p.translation_ns;
    acc.data_ns += p.data_ns;
    acc.maintenance_ns += p.maintenance_ns;
}

/// Unwraps a point result, panicking on a simulator error so the failure
/// reaches the retry ring; the typed error is left for its classifier.
fn or_panic<R>(result: Result<R, TmccError>) -> R {
    result.unwrap_or_else(|e| {
        LAST_SIM_ERROR.with(|c| *c.borrow_mut() = Some(e.to_string()));
        panic!("{e}")
    })
}

impl SweepCtx {
    /// The context for experiment `name` within `sweep`; `budget_weight`
    /// scales its watchdog deadline (`registry::Experiment::budget_weight`).
    pub fn new(sweep: Arc<Sweep>, name: &'static str, budget_weight: f64) -> Self {
        Self {
            sweep,
            experiment: name,
            budget_weight,
            accesses: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            points_replayed: AtomicU64::new(0),
            profile: Mutex::new(PhaseProfile::default()),
        }
    }

    /// The run scale.
    pub fn scale(&self) -> Scale {
        self.sweep.scale
    }

    /// Measured accesses per simulation run at this scale.
    pub fn accesses(&self) -> u64 {
        self.sweep.scale.accesses()
    }

    /// Total accesses (warmup included) simulated through this context.
    /// Replayed runs count too — the figure they feed represents the
    /// same simulated work whether it ran now or before the crash.
    pub fn accesses_simulated(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Summed worker nanoseconds spent executing this context's points
    /// (all attempts). Independent of how the shared pool interleaved
    /// this experiment with others, unlike its start-to-finish span.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Runs replayed from the journal instead of simulated.
    pub fn points_replayed(&self) -> u64 {
        self.points_replayed.load(Ordering::Relaxed)
    }

    /// Aggregated host-time phase profile, if profiling was requested.
    pub fn profile(&self) -> Option<PhaseProfile> {
        self.sweep.profile.then(|| *self.profile.lock().expect("profile lock"))
    }

    /// Maps `f` over `items` on the worker pool; results come back in
    /// input order no matter how the workers are scheduled.
    ///
    /// Each point runs inside the retry ring: a panic, simulator error,
    /// or watchdog timeout is retried up to the configured `--retries`
    /// with a deterministic re-seed, and a point that exhausts its
    /// attempts is quarantined before the experiment aborts with
    /// [`PointAborted`].
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.map_points(items, f, false)
    }

    /// Like [`SweepCtx::par_map`], but runs the points one at a time on
    /// the calling thread with the worker pool *installed*, so all
    /// `--jobs` parallelism serves work *inside* the point (the
    /// multi-tenant round loop fans its tenant quanta onto the ambient
    /// pool). Fleet-scale grids use this: one thousand-tenant roster
    /// live at a time parallelizes cleanly, while running several such
    /// points concurrently just thrashes the allocator.
    pub fn seq_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.map_points(items, f, true)
    }

    fn map_points<T, R, F>(&self, items: Vec<T>, f: F, sequential: bool) -> Vec<R>
    where
        T: Send + Clone,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        if let Some(point) = self.sweep.only_point {
            let grid = indexed.len();
            let Some((index, item)) = indexed.into_iter().find(|&(i, _)| i == point) else {
                eprintln!("[{}] --point {point} out of range (grid has {grid})", self.experiment);
                std::panic::panic_any(PointAborted);
            };
            let _ = self.run_point(index, item, &f);
            println!("[{}] point {point} replayed successfully", self.experiment);
            std::panic::panic_any(PointReplayDone);
        }
        let run = |(index, item): (usize, T)| self.run_point(index, item, &f);
        if self.sweep.pool.current_num_threads() <= 1 {
            return indexed.into_iter().map(run).collect();
        }
        if sequential {
            self.sweep.pool.install(|| indexed.into_iter().map(run).collect())
        } else {
            self.sweep.pool.install(|| indexed.into_par_iter().map(run).collect())
        }
    }

    /// One point through the retry ring.
    fn run_point<T, R, F>(&self, index: usize, item: T, f: &F) -> R
    where
        T: Clone,
        F: Fn(T) -> R,
    {
        let attempts = self.sweep.retries + 1;
        let mut timeouts = 0u32;
        let mut last_cause = None;
        for attempt in 0..attempts {
            POINT_CTX.with(|c| c.set(PointState { attempt, timeouts }));
            LAST_SIM_ERROR.with(|c| c.borrow_mut().take());
            let injected =
                FailPoint::from_env().is_some_and(|fp| fp.matches(self.experiment, index, attempt));
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    panic!("injected failure ({})", crate::failures::FAIL_POINT_ENV);
                }
                f(item.clone())
            }));
            self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            POINT_CTX.with(|c| c.set(PointState::default()));
            match result {
                Ok(r) => {
                    if attempt > 0 {
                        eprintln!(
                            "[{}] point {index} recovered on attempt {}",
                            self.experiment,
                            attempt + 1
                        );
                    }
                    return r;
                }
                Err(payload) => {
                    let cause = classify_failure(payload);
                    if matches!(cause, FailureCause::Timeout { .. }) {
                        timeouts += 1;
                    }
                    eprintln!(
                        "[{}] point {index} attempt {}/{attempts} failed ({})",
                        self.experiment,
                        attempt + 1,
                        cause.kind()
                    );
                    last_cause = Some(cause);
                }
            }
        }
        let cause = last_cause.unwrap_or(FailureCause::Panic { message: "unknown".into() });
        self.sweep.failures.record(PointFailure {
            experiment: self.experiment,
            index,
            cause,
            attempts,
            seed: LAST_POINT_SEED.with(Cell::get),
            scale: self.sweep.scale.name(),
            config_hash: crate::journal::scale_config_hash(self.sweep.scale),
        });
        std::panic::panic_any(PointAborted);
    }

    /// Writes `<name>.json` under the sweep's output directory.
    pub fn emit<T: Serialize>(&self, name: &str, value: &T) {
        let _ = fs::create_dir_all(&self.sweep.out_dir);
        let path = self.sweep.out_dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(s) => {
                if fs::write(&path, s).is_ok() {
                    println!("\n[results written to {}]", path.display());
                }
            }
            Err(e) => eprintln!("could not serialize results: {e}"),
        }
    }

    /// Applies the scale's warmup/footprint overrides and the profile
    /// flag to a config, plus the executing point's retry adjustments:
    /// retry attempts get a deterministic seed perturbation (a flaky
    /// point re-rolls its access stream instead of replaying the exact
    /// crash), and `--quick` runs halve the footprint per prior timeout
    /// so a wedged smoke point degrades instead of timing out forever.
    fn tune(&self, mut cfg: SystemConfig) -> SystemConfig {
        let scale = self.sweep.scale;
        if let Some(w) = scale.warmup() {
            cfg.warmup_accesses = w;
        }
        if let Some(cap) = scale.pages_cap() {
            cfg.workload.sim_pages = cfg.workload.sim_pages.min(cap);
        }
        cfg.size_samples = scale.size_samples();
        if self.sweep.profile {
            cfg.profile = true;
        }
        let point = POINT_CTX.with(Cell::get);
        if point.attempt > 0 {
            cfg.seed ^= RESEED_GOLDEN.wrapping_mul(point.attempt as u64);
        }
        if point.timeouts > 0 && scale == Scale::Quick {
            let shift = point.timeouts.min(8);
            cfg.workload.sim_pages = (cfg.workload.sim_pages >> shift).max(64);
        }
        LAST_POINT_SEED.with(|c| c.set(Some(cfg.seed)));
        cfg
    }

    /// Multi-tenant counterpart of [`SweepCtx::tune`]. The scenario
    /// builders in `experiments::mt` are already scale-aware (roster
    /// footprints, warmups and quanta are sized per [`Scale`]), so only
    /// the per-attempt retry re-seed applies here.
    fn tune_mt(&self, mut cfg: MultiTenantConfig) -> MultiTenantConfig {
        let point = POINT_CTX.with(Cell::get);
        if point.attempt > 0 {
            cfg.seed ^= RESEED_GOLDEN.wrapping_mul(point.attempt as u64);
        }
        LAST_POINT_SEED.with(|c| c.set(Some(cfg.seed)));
        cfg
    }

    /// The one journaled point runner behind every family: journal lookup
    /// → decode, else arm the watchdog → construct and run (`point`) →
    /// convert a cancellation into a [`PointTimeout`] panic → append.
    ///
    /// `cfg` is already tuned; with `prefix` and `accesses` it keys the
    /// journal record. `simulated` (warmup included) is added to the
    /// access counter for replays and live runs alike. `point` gets the
    /// point's cancellation handle, armed *before* construction so the
    /// deadline covers the whole point, and a slot for the phase profile
    /// of the `System` it ran. Its outer `Err` means construction failed
    /// before simulating anything (not counted); the inner result is the
    /// run's, counted even when it failed, since the work up to the
    /// failure was simulated. Timeouts reach the retry ring as panics
    /// even from callers that handle the `Err` branch themselves.
    fn run_journaled<C, R, F>(
        &self,
        prefix: &str,
        cfg: C,
        accesses: u64,
        simulated: u64,
        point: F,
    ) -> Result<R, TmccError>
    where
        C: fmt::Debug,
        R: PointRecord,
        F: FnOnce(C, &RunHandle, &mut PhaseProfile) -> Result<Result<R, TmccError>, TmccError>,
    {
        let key = point_key(prefix, &cfg, accesses);
        let journal = &self.sweep.journal;
        if let Some(json) = journal.lookup(self.experiment, key) {
            let decoded = serde_json::from_str(json)
                .map_err(|e| e.to_string())
                .and_then(|v| R::from_value(&v));
            match decoded {
                Ok(record) => {
                    self.accesses.fetch_add(simulated, Ordering::Relaxed);
                    self.points_replayed.fetch_add(1, Ordering::Relaxed);
                    return Ok(record);
                }
                Err(detail) => eprintln!(
                    "warning: [{}] journal record undecodable ({detail}); re-running",
                    self.experiment
                ),
            }
        }
        let handle = RunHandle::new();
        let _guard = self.sweep.watchdog.arm(self.point_budget(), &handle);
        let mut profile = PhaseProfile::default();
        let result = point(cfg, &handle, &mut profile).and_then(|run| {
            self.accesses.fetch_add(simulated, Ordering::Relaxed);
            run
        });
        add_profile(&mut self.profile.lock().expect("profile lock"), &profile);
        if result.as_ref().is_err_and(TmccError::is_cancelled) {
            let budget_ms = self.point_budget().as_millis() as u64;
            std::panic::panic_any(PointTimeout { budget_ms });
        }
        if let Ok(record) = &result {
            match serde_json::to_string(record) {
                Ok(json) => journal.append(self.experiment, key, &json),
                Err(e) => eprintln!("warning: could not journal a run: {e}"),
            }
        }
        result
    }

    /// Runs one tuned config for `accesses` measured accesses, counting
    /// the simulated work and (if enabled) the phase profile.
    pub fn run(&self, cfg: SystemConfig, accesses: u64) -> RunReport {
        or_panic(self.try_run(cfg, accesses))
    }

    /// Fallible variant of [`SweepCtx::run`] (the robustness sweep records
    /// the error instead of aborting).
    pub fn try_run(&self, cfg: SystemConfig, accesses: u64) -> Result<RunReport, TmccError> {
        self.run_system(PLAIN, cfg, accesses)
    }

    /// Integrity-storm counterpart of [`SweepCtx::try_run`]: identical,
    /// but journaled under the `int|` key prefix.
    pub fn try_run_integrity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> Result<RunReport, TmccError> {
        self.run_system(INTEGRITY, cfg, accesses)
    }

    fn run_system(
        &self,
        prefix: &str,
        cfg: SystemConfig,
        accesses: u64,
    ) -> Result<RunReport, TmccError> {
        let cfg = self.tune(cfg);
        let simulated = cfg.warmup_accesses + accesses;
        self.run_journaled(prefix, cfg, accesses, simulated, |cfg, handle, profile| {
            let mut sys = System::try_new_cancellable(cfg, Some(handle))?;
            let result = sys.try_run(accesses);
            *profile = *sys.phase_profile();
            Ok(result)
        })
    }

    /// Runs one multi-tenant scenario (journaled under `mt|`), panicking
    /// on error so failures route through the retry ring.
    pub fn run_mt(&self, cfg: MultiTenantConfig, accesses: u64) -> MultiTenantReport {
        let cfg = self.tune_mt(cfg);
        let warmups = cfg.warmup_accesses * cfg.initial_tenants.min(cfg.roster.len()) as u64;
        or_panic(self.run_journaled(
            MULTI_TENANT,
            cfg,
            accesses,
            warmups + accesses,
            |cfg, h, _| {
                // Construction runs the admission warmups, so a scenario that
                // fails in it has simulated work too.
                Ok(MultiTenantSystem::try_new_cancellable(cfg, Some(h))
                    .and_then(|mut sys| sys.try_run(accesses)))
            },
        ))
    }

    /// Runs one capacity/footprint point (journaled under `cap|` with a
    /// [`CapacityProbe`] beside the report), then audits the scheme's
    /// invariants ([`System::validate`]) — footprints this large are where
    /// a physical-layout overlap would break frame conservation —
    /// panicking on error so failures route through the retry ring. The
    /// returned [`HostCost`] is the *nondeterministic* wall-clock/RSS side
    /// and is `None` for replayed points; it must never feed a
    /// golden-compared results file.
    pub fn run_capacity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> (RunReport, CapacityProbe, Option<HostCost>) {
        let cfg = self.tune(cfg);
        let simulated = cfg.warmup_accesses + accesses;
        let mut host = None;
        let record =
            self.run_journaled(CAPACITY, cfg, accesses, simulated, |cfg, handle, profile| {
                let rss_before_kb = crate::hostmem::current_rss_kb();
                let construct_start = Instant::now();
                let mut sys = System::try_new_cancellable(cfg, Some(handle))?;
                let construct_ms = construct_start.elapsed().as_secs_f64() * 1e3;
                let run_start = Instant::now();
                let result = sys.try_run(accesses);
                let run_ms = run_start.elapsed().as_secs_f64() * 1e3;
                let result = result.and_then(|report| sys.validate().map(|()| report));
                *profile = *sys.phase_profile();
                Ok(result.map(|report| {
                    let store = sys.page_store();
                    let (store_reads, store_writes, store_divergent_writes) = store.stats();
                    let probe = CapacityProbe {
                        metadata_heap_bytes: sys.metadata_heap_bytes() as u64,
                        store_heap_bytes: store.heap_bytes() as u64,
                        store_reads,
                        store_writes,
                        store_divergent_writes,
                        pinned_pages: store.pinned_pages() as u64,
                    };
                    host = Some(HostCost {
                        construct_ms,
                        run_ms,
                        rss_before_kb,
                        rss_after_kb: crate::hostmem::current_rss_kb(),
                    });
                    CapacityRecord { report, probe }
                }))
            });
        let CapacityRecord { report, probe } = or_panic(record);
        (report, probe, host)
    }

    /// This context's watchdog deadline per simulation run.
    fn point_budget(&self) -> Duration {
        effective_budget(self.sweep.scale.point_budget().mul_f64(self.budget_weight.max(0.1)))
    }

    /// Runs one workload under one scheme with an optional budget.
    pub fn run_scheme(
        &self,
        workload: &WorkloadProfile,
        scheme: SchemeKind,
        budget: Option<u64>,
        accesses: u64,
    ) -> RunReport {
        let mut cfg = SystemConfig::new(workload.clone(), scheme);
        cfg.dram_budget_bytes = budget;
        self.run(cfg, accesses)
    }

    /// Runs a two-level scheme with explicit toggles (Fig. 20 ablations).
    pub fn run_two_level(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        budget: u64,
        accesses: u64,
    ) -> RunReport {
        self.run(two_level_cfg(workload, toggles, budget), accesses)
    }

    /// Runs Compresso and returns `(report, dram_used)` — the iso-savings
    /// anchor of Figs. 17/18/19.
    pub fn compresso_anchor(&self, workload: &WorkloadProfile, accesses: u64) -> (RunReport, u64) {
        let r = self.run_scheme(workload, SchemeKind::Compresso, None, accesses);
        let used = r.stats.dram_used_bytes;
        (r, used)
    }

    /// Binary-searches the smallest DRAM budget at which `toggles` still
    /// delivers at least `perf_floor` accesses/µs (the Table IV
    /// methodology: "operating points where TMCC can still provide the
    /// same performance as Compresso"). Returns `(budget, report_at_budget)`.
    pub fn iso_perf_budget_search(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        perf_floor: f64,
        accesses: u64,
    ) -> (u64, RunReport) {
        self.iso_perf_budget_search_cfg(
            workload,
            |b| two_level_cfg(workload, toggles, b),
            perf_floor,
            accesses,
        )
    }

    /// Like [`SweepCtx::iso_perf_budget_search`], but with an arbitrary
    /// config factory — the huge-page sensitivity study needs extra
    /// settings on every probe.
    pub fn iso_perf_budget_search_cfg(
        &self,
        workload: &WorkloadProfile,
        make_cfg: impl Fn(u64) -> SystemConfig,
        perf_floor: f64,
        accesses: u64,
    ) -> (u64, RunReport) {
        let probe = SystemConfig::new(workload.clone(), SchemeKind::Tmcc);
        let min = System::min_budget_bytes(&probe);
        let max = workload.sim_pages * 4096 + (1 << 22);
        let mut lo = min;
        let mut hi = max;
        let mut best: Option<(u64, RunReport)> = None;
        for _ in 0..5 {
            let mid = lo + (hi - lo) / 2;
            let r = self.run(make_cfg(mid), accesses);
            if r.perf_accesses_per_us() >= perf_floor {
                best = Some((mid, r));
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        best.unwrap_or_else(|| {
            let r = self.run(make_cfg(max), accesses);
            (max, r)
        })
    }
}

/// A two-level scheme config with explicit toggles: full TMCC when both
/// of its mechanisms are on, the OS-inspired baseline otherwise.
fn two_level_cfg(workload: &WorkloadProfile, toggles: TmccToggles, budget: u64) -> SystemConfig {
    let kind = if toggles.embedded_ctes && toggles.fast_deflate {
        SchemeKind::Tmcc
    } else {
        SchemeKind::OsInspired
    };
    SystemConfig::new(workload.clone(), kind).with_budget(budget).with_toggles(toggles)
}

/// Seed-perturbation constant for retry attempts (the golden-ratio
/// multiplier also used by the workspace hasher). `seed ^ GOLDEN*attempt`
/// is deterministic — re-running a resumed sweep retries with the same
/// perturbed seeds — yet decorrelates the access stream from the attempt
/// that failed.
const RESEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Classifies a caught point panic into a typed cause, consuming the
/// thread-local simulator-error note when one was left.
fn classify_failure(payload: Box<dyn std::any::Any + Send>) -> FailureCause {
    let payload = match payload.downcast::<PointTimeout>() {
        Ok(t) => return FailureCause::Timeout { budget_ms: t.budget_ms },
        Err(p) => p,
    };
    if let Some(error) = LAST_SIM_ERROR.with(|c| c.borrow_mut().take()) {
        return FailureCause::Sim { error };
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    FailureCause::Panic { message }
}

/// Deterministic host-side measurements of one capacity point: the
/// scheme's metadata heap and the lazy page store's activity. Everything
/// here is a pure function of the config, so it is journaled beside the
/// report and may feed golden-compared results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CapacityProbe {
    /// Host heap bytes of the scheme's metadata structures
    /// (`System::metadata_heap_bytes`).
    pub metadata_heap_bytes: u64,
    /// Host heap bytes of the lazy page store (scratch + pinned pages).
    pub store_heap_bytes: u64,
    /// Pages materialized from the content seed.
    pub store_reads: u64,
    /// Whole-page writes verified against the seed.
    pub store_writes: u64,
    /// Writes that diverged from the seed and pinned host memory.
    pub store_divergent_writes: u64,
    /// Pages pinned (divergent) at the end of the run.
    pub pinned_pages: u64,
}

impl CapacityProbe {
    /// Decodes a probe from its journaled JSON value.
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        let mut f = serde::FieldReader::open(v, "CapacityProbe")?;
        let probe = Self {
            metadata_heap_bytes: f.u64("metadata_heap_bytes")?,
            store_heap_bytes: f.u64("store_heap_bytes")?,
            store_reads: f.u64("store_reads")?,
            store_writes: f.u64("store_writes")?,
            store_divergent_writes: f.u64("store_divergent_writes")?,
            pinned_pages: f.u64("pinned_pages")?,
        };
        f.finish()?;
        Ok(probe)
    }
}

/// Nondeterministic host costs of one *live* capacity run (wall clock,
/// RSS). `None` for journal-replayed points; only ever emitted to
/// `FOOTPRINT.json`, which the golden diffs exclude.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    /// `System::try_new` wall time, ms.
    pub construct_ms: f64,
    /// Warmup + measured accesses wall time, ms.
    pub run_ms: f64,
    /// Process RSS just before construction, kB.
    pub rss_before_kb: u64,
    /// Process RSS right after the run, kB.
    pub rss_after_kb: u64,
}

/// One experiment's entry in `BENCH_sweep.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentTiming {
    /// Registry name (also the `results/<name>.json` file stem).
    pub name: &'static str,
    /// `"ok"`, or `"failed"` when the experiment aborted on a
    /// quarantined point (see `results/FAILURES.json`).
    pub status: &'static str,
    /// Wall-clock milliseconds from the experiment's start to its finish.
    /// Under a shared `run-all` pool spans overlap and include time spent
    /// on *other* experiments' stolen work, so they sum to more than the
    /// suite wall clock and vary with scheduling order.
    pub wall_ms: f64,
    /// Summed worker milliseconds actually executing this experiment's
    /// points — schedule-independent, what `accesses_per_sec` divides by.
    pub busy_ms: f64,
    /// Total accesses (warmup included) the experiment simulated.
    pub accesses_simulated: u64,
    /// Simulation throughput per busy worker-second (falls back to the
    /// wall span for experiments that never enter the point runner).
    /// This is what `tmcc-bench perf-gate` compares: busy time makes it
    /// reproducible under the work-stealing scheduler, where span-based
    /// throughput flips by 2x+ with queue position.
    pub accesses_per_sec: f64,
    /// Runs replayed from the sweep journal instead of simulated
    /// (non-zero only under `--resume`).
    pub points_replayed: u64,
}

/// The consolidated `BENCH_sweep.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSummary {
    /// Scale the sweep ran at.
    pub scale: &'static str,
    /// Worker count.
    pub jobs: usize,
    /// Per-experiment wall clock and throughput.
    pub experiments: Vec<ExperimentTiming>,
    /// Wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
    /// Total accesses simulated across every experiment.
    pub total_accesses_simulated: u64,
    /// Aggregate simulation throughput.
    pub accesses_per_sec: f64,
    /// Peak process RSS over the whole sweep, kB (0 off-Linux). Gated
    /// one-sidedly by `tmcc-bench perf-gate` against the checked-in
    /// baseline so metadata-footprint regressions fail CI.
    pub peak_rss_kb: u64,
    /// Host-time phase profile (all zeros unless `--profile` was given).
    pub profile: PhaseProfile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_key_spaces_are_pinned_and_disjoint() {
        let w = WorkloadProfile::by_name("canneal").expect("known workload");
        let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
        let n = 1_000;
        let keys = [
            (point_key(PLAIN, &cfg, n), fingerprint(&format!("{cfg:?}|{n}"))),
            (point_key(INTEGRITY, &cfg, n), fingerprint(&format!("int|{cfg:?}|{n}"))),
            (point_key(MULTI_TENANT, &cfg, n), fingerprint(&format!("mt|{cfg:?}|{n}"))),
            (point_key(CAPACITY, &cfg, n), fingerprint(&format!("cap|{cfg:?}|{n}"))),
        ];
        for (key, expected) in keys {
            assert_eq!(
                key, expected,
                "a journal key format changed; old journals would not replay"
            );
        }
        for (i, (a, _)) in keys.iter().enumerate() {
            for (b, _) in &keys[i + 1..] {
                assert_ne!(a, b, "two point families share a journal key space");
            }
        }
    }
}
