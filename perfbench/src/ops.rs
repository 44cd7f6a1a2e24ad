//! The three workloads, run through the simulator's public entry points,
//! and the standalone layer probes the traced run adds.
//!
//! An *operation* is one simulated system taken through its whole public
//! lifecycle — construct, warm up, run in fixed-size slices, report,
//! validate. Each one is checked: a typed error, a panic, a failed
//! `validate()`, or an executed-access count that differs from the one
//! requested marks it failed.

use crate::trace::Tracer;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tmcc::schemes::{CompressoScheme, TwoLevelScheme};
use tmcc::tenancy::{ChurnKind, ChurnPlan, MultiTenantConfig, MultiTenantSystem, TenantSpec};
use tmcc::{
    LatencyHistogram, PhaseProfile, QosPolicyKind, RunReport, SchemeKind, SizeModel, System,
    SystemConfig,
};
use tmcc_deflate::MemDeflate;
use tmcc_sim_mem::{PageTable, PageTableConfig};
use tmcc_types::addr::{Ppn, Vpn};
use tmcc_workloads::{PageStore, WorkloadProfile};

/// Accesses per `try_run_slice` call. Slices are the unit the slice-time
/// percentiles are taken over.
const SLICE: u64 = 1_000;
/// Warm-up and measured accesses per system in the Fig. 17 method (the
/// sweep's Full scale).
const ISO_WARMUP: u64 = 60_000;
const ISO_ACCESSES: u64 = 100_000;
/// 64 GiB of 4 KiB pages.
const CAP_PAGES: u64 = 16_777_216;
const CAP_WARMUP: u64 = 5_000;
const CAP_ACCESSES: u64 = 10_000;
const CAP_SIZE_SAMPLES: usize = 64;
/// Tenants in the overcommitted kv pool.
const KV_TENANTS: usize = 32;
/// Measured accesses across the whole kv fleet.
const KV_TOTAL: u64 = 1_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 17 over the twelve large workloads: access-loop bound.
    IsoSavings,
    /// One 64 GiB TMCC system with a short run: construction bound.
    Capacity64g,
    /// 32 kv tenants over an overcommitted shared pool: write-heavy,
    /// migration-heavy, and the only user of the tenancy layer.
    KvOvercommit,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] =
        [Workload::IsoSavings, Workload::Capacity64g, Workload::KvOvercommit];

    /// The name the command line and BENCHMARK.json use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IsoSavings => "iso_savings",
            Workload::Capacity64g => "capacity_64g",
            Workload::KvOvercommit => "kv_overcommit",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Host-side figures read off each system after its run.
#[derive(Debug, Clone, Default)]
pub struct HostFigures {
    /// Summed loop profile (all zero unless the systems ran with
    /// `SystemConfig::profile`).
    pub profile: PhaseProfile,
    /// Scheme metadata heap at report time, bytes.
    pub metadata_heap: u64,
    /// Page-store heap at report time, bytes.
    pub store_heap: u64,
    /// VmRSS after the run minus VmRSS before construction, kB.
    pub rss_growth_kb: i64,
}

/// Tenancy-layer counters of a multi-tenant run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenancyFigures {
    /// Scheduling rounds.
    pub rounds: u64,
    /// Quanta run at the quarantine-throttled rate, summed over tenants.
    pub throttled_quanta: u64,
    /// Admissions the arbiter turned down.
    pub admission_rejections: u64,
    /// Rounds with some tenant below its guarantee.
    pub breach_rounds: u64,
    /// Measured accesses across the fleet.
    pub measured_accesses: u64,
}

/// Everything one workload operation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Systems (or tenants) attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Accesses executed inside the run spans (warm-up + measured for
    /// standalone systems; measured for the tenancy run, whose warm-ups
    /// happen at admission).
    pub run_accesses: u64,
    /// Configurations of every system constructed, in order — the
    /// replicas rebuild exactly these.
    pub configs: Vec<SystemConfig>,
    /// Reports of the TMCC systems (or tenants).
    pub tmcc: Vec<RunReport>,
    /// TMCC perf / Compresso perf per iso-savings pair.
    pub iso_ratios: Vec<f64>,
    /// Merged per-access latency histogram of the TMCC systems.
    pub latency: LatencyHistogram,
    /// The multi-tenant report's fleet p99, when the op is a fleet.
    pub fleet_p99_ns: Option<u64>,
    /// FNV-1a over every serialized report, in run order.
    pub digest: u64,
    /// Host-side figures of the standalone systems.
    pub host: HostFigures,
    /// Tenancy counters, when the operation is a fleet.
    pub tenancy: TenancyFigures,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Self { digest: FNV_OFFSET, ..Default::default() }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn absorb_report(&mut self, json: &str) {
        self.digest = fnv1a(self.digest, json.as_bytes());
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A field of `/proc/self/status`, kB (0 where unavailable).
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Runs `f`, turning a panic into an error and closing any span the panic
/// left open.
fn guarded<R>(
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<R, String>,
) -> Result<R, String> {
    let depth = tr.depth();
    let r = catch_unwind(AssertUnwindSafe(|| f(tr)));
    tr.unwind_to(depth);
    match r {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// One system through its lifecycle: `try_new`, `try_warmup`,
/// `try_run_slice` × ⌈accesses / SLICE⌉, `report`, `validate`.
fn lifecycle(
    tr: &mut Tracer,
    cfg: SystemConfig,
    accesses: u64,
    host: &mut HostFigures,
) -> Result<(RunReport, LatencyHistogram), String> {
    let warmup = cfg.warmup_accesses;
    let rss_before = status_kb("VmRSS") as i64;
    let mut sys = tr
        .time("core.system.try_new", || System::try_new(cfg))
        .map_err(|e| format!("try_new: {e}"))?;
    tr.time("core.system.warmup", || sys.try_warmup()).map_err(|e| format!("warmup: {e}"))?;
    let mut left = accesses;
    while left > 0 {
        let n = left.min(SLICE);
        tr.time("core.system.slice", || sys.try_run_slice(n)).map_err(|e| format!("run: {e}"))?;
        left -= n;
    }
    let report = tr.time("core.system.report", || sys.report());
    tr.time("core.system.validate", || sys.validate()).map_err(|e| format!("validate: {e}"))?;
    if report.stats.accesses != accesses || sys.total_accesses() != warmup + accesses {
        return Err(format!(
            "executed {} measured / {} total accesses, requested {accesses} / {}",
            report.stats.accesses,
            sys.total_accesses(),
            warmup + accesses
        ));
    }
    let p = sys.phase_profile();
    host.profile.steps += p.steps;
    host.profile.workload_ns += p.workload_ns;
    host.profile.translation_ns += p.translation_ns;
    host.profile.data_ns += p.data_ns;
    host.profile.maintenance_ns += p.maintenance_ns;
    host.metadata_heap += sys.metadata_heap_bytes() as u64;
    host.store_heap += sys.page_store().heap_bytes() as u64;
    host.rss_growth_kb += status_kb("VmRSS") as i64 - rss_before;
    let latency = sys.latency_histogram().clone();
    tr.time("core.system.drop", || drop(sys));
    Ok((report, latency))
}

/// [`lifecycle`] with failures caught and the result folded into `out`.
fn run_system(
    tr: &mut Tracer,
    cfg: SystemConfig,
    accesses: u64,
    out: &mut Outcome,
) -> Option<RunReport> {
    out.attempted += 1;
    let label = format!("{}/{}", cfg.workload.name, cfg.scheme.name());
    let is_tmcc = cfg.scheme == SchemeKind::Tmcc;
    let run = cfg.warmup_accesses + accesses;
    out.configs.push(cfg.clone());
    let host = &mut out.host;
    match guarded(tr, |tr| lifecycle(tr, cfg, accesses, host)) {
        Ok((report, latency)) => {
            out.run_accesses += run;
            out.absorb_report(&serde_json::to_string(&report).expect("report serializes"));
            if is_tmcc {
                out.latency.merge(&latency);
                out.tmcc.push(report.clone());
            }
            Some(report)
        }
        Err(e) => {
            out.fail(format!("{label}: {e}"));
            None
        }
    }
}

/// The Fig. 17 method for one workload: Compresso unbudgeted, then TMCC
/// at `max(Compresso dram_used, System::min_budget_bytes)`, each warmed
/// for `warmup` accesses and measured over `accesses`.
pub fn iso_pair(
    tr: &mut Tracer,
    w: WorkloadProfile,
    seed: u64,
    (warmup, accesses): (u64, u64),
    profile: bool,
    out: &mut Outcome,
) {
    let mut compresso = SystemConfig::new(w.clone(), SchemeKind::Compresso).with_seed(seed);
    let mut tmcc = SystemConfig::new(w, SchemeKind::Tmcc).with_seed(seed);
    for cfg in [&mut compresso, &mut tmcc] {
        cfg.warmup_accesses = warmup;
        cfg.profile = profile;
    }
    let Some(rc) = run_system(tr, compresso, accesses, out) else {
        out.attempted += 1;
        out.fail(format!("{}/tmcc: no Compresso anchor to budget against", tmcc.workload.name));
        return;
    };
    let min =
        guarded(tr, |tr| Ok(tr.time("core.system.min_budget", || System::min_budget_bytes(&tmcc))));
    let min = match min {
        Ok(m) => m,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("{}/tmcc min_budget_bytes: {e}", tmcc.workload.name));
            return;
        }
    };
    let budget = rc.stats.dram_used_bytes.max(min);
    if let Some(rt) = run_system(tr, tmcc.with_budget(budget), accesses, out) {
        out.iso_ratios.push(rt.perf_accesses_per_us() / rc.perf_accesses_per_us());
    }
}

/// Per-member seed salt, the mixing the tenancy layer applies to tenant
/// seeds: members of a suite that share a content profile still draw
/// independent pages.
fn member_seed(seed: u64, salt: u64) -> u64 {
    seed ^ salt.rotate_left(17)
}

/// iso_savings: the Fig. 17 method over the twelve large workloads.
pub fn iso_savings(tr: &mut Tracer, seed: u64, profile: bool, out: &mut Outcome) {
    for (i, w) in WorkloadProfile::large_suite().into_iter().enumerate() {
        iso_pair(tr, w, member_seed(seed, i as u64 + 1), (ISO_WARMUP, ISO_ACCESSES), profile, out);
    }
}

/// The capacity_64g system: pageRank over 64 GiB at the `capacity_cliff`
/// budget (9/16 of the footprint plus the translation allowance).
fn capacity_config(seed: u64) -> SystemConfig {
    let mut w = WorkloadProfile::by_name("pageRank").expect("pageRank is a suite workload");
    w.sim_pages = CAP_PAGES;
    let mut cfg = SystemConfig::new(w, SchemeKind::Tmcc)
        .with_seed(seed)
        .with_budget(CAP_PAGES * 4096 * 9 / 16 + CAP_PAGES * 32)
        .with_size_samples(CAP_SIZE_SAMPLES);
    cfg.warmup_accesses = CAP_WARMUP;
    cfg
}

/// capacity_64g: `min_budget_bytes`, then the system's lifecycle.
pub fn capacity_64g(tr: &mut Tracer, seed: u64, profile: bool, out: &mut Outcome) {
    let mut cfg = capacity_config(seed);
    cfg.profile = profile;
    let min =
        guarded(tr, |tr| Ok(tr.time("core.system.min_budget", || System::min_budget_bytes(&cfg))));
    let budget = cfg.dram_budget_bytes.expect("capacity config is budgeted");
    match min {
        Ok(min) if min <= budget => {
            run_system(tr, cfg, CAP_ACCESSES, out);
        }
        Ok(min) => {
            out.attempted += 1;
            out.fail(format!("capacity budget {budget} below min_budget_bytes {min}"));
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("capacity min_budget_bytes: {e}"));
        }
    }
}

/// The kv roster: 32 TMCC tenants of 6,144 pages cycling the four kv
/// shapes, over a pool holding 60 % of their summed resident demand,
/// proportional share, one balloon shrink/grow cycle, audits on.
fn kv_config(seed: u64) -> MultiTenantConfig {
    let shapes = WorkloadProfile::kv_suite();
    let resident: u64 = (0..KV_TENANTS)
        .map(|i| u64::from(TenantSpec::resident_frames(&shapes[i % shapes.len()])))
        .sum();
    let pool = resident * 6 / 10;
    let balloon = pool / 5;
    let churn = ChurnPlan::none()
        .with(KV_TOTAL / 3, ChurnKind::PoolShrink { frames: balloon })
        .with(2 * KV_TOTAL / 3, ChurnKind::PoolGrow { frames: balloon });
    let mut cfg = MultiTenantConfig::new(pool, QosPolicyKind::ProportionalShare)
        .with_churn(churn)
        .with_seed(seed)
        .with_audit();
    for i in 0..KV_TENANTS {
        let w = shapes[i % shapes.len()].clone();
        cfg = cfg.with_tenant(TenantSpec::new(
            &format!("t{i:02}"),
            w,
            SchemeKind::Tmcc,
            i as u64 + 1,
        ));
    }
    cfg
}

/// kv_overcommit: admission, the round-robin run and the fleet audit on
/// an installed pool. Each tenant is one attempted operation; a tenant
/// evicted with a fault is a failed one.
pub fn kv_overcommit(tr: &mut Tracer, seed: u64, pool: &rayon::ThreadPool, out: &mut Outcome) {
    let n = KV_TENANTS as u64;
    out.attempted += n;
    let cfg = kv_config(seed);
    let r = guarded(tr, |tr| {
        pool.install(|| {
            let mut mt = tr
                .time("core.tenancy.admit", || MultiTenantSystem::try_new(cfg))
                .map_err(|e| format!("admit: {e}"))?;
            let report = tr
                .time("core.tenancy.run", || mt.try_run(KV_TOTAL))
                .map_err(|e| format!("run: {e}"))?;
            tr.time("core.tenancy.validate", || mt.validate())
                .map_err(|e| format!("validate: {e}"))?;
            tr.time("core.tenancy.drop", || drop(mt));
            Ok(report)
        })
    });
    let report = match r {
        Ok(r) => r,
        Err(e) => {
            out.failed += n;
            out.failures.push(format!("kv fleet: {e}"));
            return;
        }
    };
    out.absorb_report(&serde_json::to_string(&report).expect("report serializes"));
    let executed: u64 = report.tenants.iter().map(|t| t.measured_accesses).sum();
    if report.total_accesses != KV_TOTAL || executed != KV_TOTAL {
        out.fail(format!(
            "kv fleet executed {} (tenant sum {executed}), requested {KV_TOTAL}",
            report.total_accesses
        ));
    }
    for t in &report.tenants {
        if let Some(fault) = &t.fault {
            out.fail(format!("tenant {} evicted: {fault}", t.name));
        } else if let Some(r) = &t.report {
            out.tmcc.push(r.clone());
        }
        out.tenancy.throttled_quanta += t.throttled_quanta;
    }
    out.run_accesses += report.total_accesses;
    out.fleet_p99_ns = Some(report.fleet_lat_p99_ns);
    out.tenancy.rounds = report.rounds;
    out.tenancy.admission_rejections = report.admission_rejections;
    out.tenancy.breach_rounds = report.guarantee_breach_rounds;
    out.tenancy.measured_accesses = report.total_accesses;
}

/// Runs one operation of `w` inside a root span and returns the span.
pub fn run_op(
    tr: &mut Tracer,
    w: Workload,
    seed: u64,
    profile: bool,
    pool: &rayon::ThreadPool,
    out: &mut Outcome,
) -> usize {
    let root = tr.enter("op");
    match w {
        Workload::IsoSavings => iso_savings(tr, seed, profile, out),
        Workload::Capacity64g => capacity_64g(tr, seed, profile, out),
        Workload::KvOvercommit => kv_overcommit(tr, seed, pool, out),
    }
    tr.exit(root);
    root
}

/// The Fig. 17 ratio for the workload's own kernels, for the workloads
/// whose operation has no Compresso side: pageRank at suite scale for
/// capacity_64g; for kv_overcommit, every roster tenant's workload and
/// content seed, warmed and measured for its share of the fleet run. Run
/// outside any timed operation.
pub fn anchor(tr: &mut Tracer, w: Workload, seed: u64, out: &mut Outcome) {
    let root = tr.enter("anchor");
    match w {
        Workload::IsoSavings => {}
        Workload::Capacity64g => {
            let k = WorkloadProfile::by_name("pageRank").expect("pageRank is a suite workload");
            iso_pair(tr, k, seed, (ISO_WARMUP, ISO_ACCESSES), false, out);
        }
        Workload::KvOvercommit => {
            let cfg = kv_config(seed);
            let run = (cfg.warmup_accesses, KV_TOTAL / KV_TENANTS as u64);
            for spec in cfg.roster {
                iso_pair(tr, spec.workload, member_seed(seed, spec.seed), run, false, out);
            }
        }
    }
    tr.exit(root);
}

/// kv_overcommit's layer probes: one standalone system per kv shape,
/// since the tenancy layer exposes no per-tenant system (and
/// `MultiTenantConfig` no profile switch). Each gets the mean tenant grant,
/// or four fifths of its resident frames where that is more: kv_hostile's
/// poorly compressible pages need about 70 % of theirs. The budget is
/// fixed without `min_budget_bytes`, whose size-model sample would turn
/// the probe's construction into a memo hit its replica cannot mirror.
pub fn kv_probe(tr: &mut Tracer, seed: u64, profile: bool, out: &mut Outcome) -> usize {
    let root = tr.enter("probe");
    let cfg = kv_config(seed);
    let grant = cfg.pool_frames / KV_TENANTS as u64;
    for (i, w) in WorkloadProfile::kv_suite().into_iter().enumerate() {
        let frames = grant.max(u64::from(TenantSpec::resident_frames(&w)) * 4 / 5);
        let mut c = SystemConfig::new(w, SchemeKind::Tmcc)
            .with_seed(member_seed(seed, i as u64 + 1))
            .with_budget(frames * 4096);
        c.warmup_accesses = cfg.warmup_accesses;
        c.profile = profile;
        run_system(tr, c, KV_TOTAL / KV_TENANTS as u64, out);
    }
    tr.exit(root);
    root
}

/// What the construction replicas and codec probes measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaFigures {
    /// Page-table pages across the replicas.
    pub table_pages: u64,
    /// Bytes compressed / decompressed by the codec probe.
    pub codec_bytes: u64,
    /// Stored (compressed) bytes.
    pub codec_stored: u64,
    /// Pages whose decompression did not reproduce the input.
    pub codec_mismatches: u64,
    /// Constructors (real or replica) that returned an error, which would
    /// leave their span timing a failure path.
    pub errors: u64,
}

/// For each config, times a real `System::try_new` and then rebuilds its
/// construction steps from outside, back to back so host-speed drift
/// hits both alike, one span each: `PageTable::new` plus the identity
/// `map` loop, `SizeModel::sample_via` on a fresh store, and the scheme
/// constructor — for two-level schemes again with embedded CTEs off (the
/// difference is the PTB-embedding warm-up). Then times `MemDeflate` on
/// the sampled pages. The real build and the replica take two different
/// salts of the config's seed, so the size-model memo (keyed by page
/// bytes) misses in both exactly where the traced operation missed.
pub fn replicas(tr: &mut Tracer, cfgs: &[SystemConfig], salt: u64) -> (usize, ReplicaFigures) {
    let root = tr.enter("replicas");
    let mut fig = ReplicaFigures::default();
    for cfg in cfgs {
        let real = SystemConfig { seed: cfg.seed ^ salt.rotate_left(32), ..cfg.clone() };
        let sys = tr.time("core.system.try_new", || System::try_new(real));
        fig.errors += u64::from(sys.is_err());
        tr.time("core.system.drop", || drop(sys));

        let seed = cfg.seed ^ salt;
        let pages = cfg.workload.sim_pages;
        let pt = tr.time("sim-mem.page_table_build", || {
            let mut pt = PageTable::new(PageTableConfig {
                huge_pages: cfg.huge_pages,
                ..Default::default()
            });
            for i in 0..pages {
                pt.map(Vpn::new(i), Ppn::new(i));
            }
            pt
        });
        let table_pages = pt.table_page_count() as u64;
        fig.table_pages += table_pages;
        let model = tr.time("core.size_model.sample", || {
            let mut store = PageStore::new(cfg.workload.page_content(seed));
            SizeModel::sample_via(&mut store, cfg.size_samples)
        });
        match cfg.scheme {
            SchemeKind::Tmcc | SchemeKind::OsInspired => {
                let metadata = (pages + table_pages) * 24;
                let frames = match cfg.dram_budget_bytes {
                    Some(b) => (b.saturating_sub(metadata) / 4096) as u32,
                    None => (pages + table_pages) as u32 + 512,
                };
                let build = |toggles| {
                    TwoLevelScheme::try_new(
                        toggles,
                        cfg.cte_cache,
                        model.clone(),
                        &pt,
                        pages,
                        frames,
                        seed,
                        cfg.recency_sample,
                    )
                };
                let s = tr.time("core.schemes.try_new", || build(cfg.toggles));
                fig.errors += u64::from(s.is_err());
                tr.time("core.schemes.drop", || drop(s));
                let flat = tmcc::config::TmccToggles { embedded_ctes: false, ..cfg.toggles };
                let s = tr.time("core.schemes.try_new_flat", || build(flat));
                fig.errors += u64::from(s.is_err());
                tr.time("core.schemes.drop", || drop(s));
            }
            SchemeKind::Compresso => {
                let s = tr.time("core.schemes.try_new_compresso", || {
                    let mut ppns: Vec<Ppn> = (0..pages).map(Ppn::new).collect();
                    for level in 1..=4u8 {
                        ppns.extend(pt.ptbs_at_level(level).into_iter().map(|(b, _)| b.ppn()));
                    }
                    ppns.sort_unstable_by_key(|p| p.raw());
                    ppns.dedup();
                    CompressoScheme::new(cfg.cte_cache, model.clone(), ppns, seed)
                });
                tr.time("core.schemes.drop", || drop(s));
            }
            SchemeKind::NoCompression => {}
        }
        tr.time("sim-mem.page_table_drop", || drop(pt));
        codec_probe(tr, cfg, seed, &mut fig);
    }
    tr.exit(root);
    (root, fig)
}

/// `MemDeflate::compress_page` / `decompress_page` over the pages the
/// size model samples, checking every round trip.
fn codec_probe(tr: &mut Tracer, cfg: &SystemConfig, seed: u64, fig: &mut ReplicaFigures) {
    let mut store = PageStore::new(cfg.workload.page_content(seed));
    let pages: Vec<Vec<u8>> = (0..cfg.size_samples as u64)
        .map(|i| store.read(i.wrapping_mul(0x9E37) + i).to_vec())
        .collect();
    let codec = MemDeflate::default();
    let compressed = tr.time("deflate-mem.compress", || {
        pages.iter().map(|p| codec.compress_page(black_box(p))).collect::<Vec<_>>()
    });
    let restored = tr.time("deflate-mem.decompress", || {
        compressed.iter().map(|c| codec.decompress_page(black_box(c))).collect::<Vec<_>>()
    });
    for ((page, c), back) in pages.iter().zip(&compressed).zip(&restored) {
        fig.codec_bytes += page.len() as u64;
        fig.codec_stored += c.stored_len() as u64;
        fig.codec_mismatches += u64::from(back != page);
    }
}

/// `AccessStream::next_access` on each config's own stream, standalone.
/// Returns the number of calls timed.
pub fn stream_probe(tr: &mut Tracer, cfgs: &[SystemConfig], calls: u64) -> (usize, u64) {
    let root = tr.enter("stream_probe");
    let mut total = 0;
    for cfg in cfgs {
        let mut stream = cfg.workload.stream(cfg.seed);
        tr.time("workloads.next_access", || {
            for _ in 0..calls {
                black_box(stream.next_access());
            }
        });
        total += calls;
    }
    tr.exit(root);
    (root, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kv shape shrunk to `pages`, TMCC at 70 % of its footprint so ML2
    /// and migrations are exercised.
    fn tiny(pages: u64, seed: u64) -> SystemConfig {
        let mut w = WorkloadProfile::by_name("kv_hostile").expect("kv shape");
        w.sim_pages = pages;
        let mut cfg = SystemConfig::new(w, SchemeKind::Tmcc).with_seed(seed).with_size_samples(8);
        cfg.warmup_accesses = 500;
        let budget = System::min_budget_bytes(&cfg).max(pages * 4096 * 7 / 10);
        cfg.with_budget(budget)
    }

    fn report_json(cfg: SystemConfig, slices: &[u64]) -> String {
        let mut sys = System::try_new(cfg).expect("feasible");
        sys.try_warmup().expect("warmup");
        for &n in slices {
            sys.try_run_slice(n).expect("slice");
        }
        serde_json::to_string(&sys.report()).expect("serializes")
    }

    /// The slice-time percentiles time a run cut into `try_run_slice`
    /// calls; the cut must not change a simulated bit.
    #[test]
    fn sliced_run_reports_byte_identical_to_one_call() {
        for scheme in [SchemeKind::Tmcc, SchemeKind::Compresso] {
            let mut cfg = tiny(1_024, 7);
            cfg.scheme = scheme;
            let whole = report_json(cfg.clone(), &[6_000]);
            assert_eq!(whole, report_json(cfg.clone(), &[SLICE; 6]), "{}", scheme.name());
            assert_eq!(whole, report_json(cfg.clone(), &[1, 999, 2_500, 2_500]));
            let mut sys = System::try_new(cfg).expect("feasible");
            let once = serde_json::to_string(&sys.try_run(6_000).expect("run")).expect("json");
            assert_eq!(whole, once, "try_run must equal warmup + slices + report");
        }
    }

    /// Every span's children lie inside it, and for every root operation
    /// the layer self times plus the unattributed residual equal its wall
    /// time.
    #[test]
    fn spans_plus_residual_sum_to_wall_time() {
        let mut tr = Tracer::new();
        let mut out = Outcome::new();
        let root = tr.enter("op");
        iso_pair(&mut tr, tiny(1_024, 3).workload, 3, (500, 2_000), false, &mut out);
        run_system(&mut tr, tiny(2_048, 4), 3_000, &mut out);
        tr.exit(root);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.attempted, 3);

        let spans = tr.spans();
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns, "span {i} open or inverted");
            let children: Vec<_> = spans.iter().filter(|c| c.parent == Some(i)).collect();
            for c in &children {
                assert!(c.start_ns >= s.start_ns && c.end_ns <= s.end_ns, "{} escapes", c.name);
            }
            let covered: u64 = children.iter().map(|c| c.dur_ns()).sum();
            assert_eq!(covered + tr.self_ns(i), s.dur_ns(), "{}", s.name);
        }
        let ledger = tr.ledger();
        assert_eq!(ledger.len(), 1);
        let l = &ledger[0];
        assert_eq!(l.self_ns.values().sum::<u64>() + l.unattributed_ns, l.wall_ns);
        let setup = crate::metrics::setup_s(&tr, root);
        let run = crate::metrics::run_s(&tr, root);
        assert!(setup > 0.0 && run > 0.0 && setup + run <= crate::metrics::wall_s(&tr, root));
    }

    /// The three construction replicas account for `System::try_new`: what
    /// they leave unexplained is a small share of it.
    #[test]
    fn construction_replicas_cover_try_new() {
        let mut best = f64::INFINITY;
        for attempt in 0..3u64 {
            let mut tr = Tracer::new();
            let mut out = Outcome::new();
            let root = tr.enter("op");
            run_system(&mut tr, tiny(65_536, 40 + attempt), SLICE, &mut out);
            tr.exit(root);
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            let (rep, _) = replicas(&mut tr, &out.configs, 0x5A17);
            let try_new = tr.total_s("core.system.try_new", rep);
            let covered = tr.total_s("sim-mem.page_table_build", rep)
                + tr.total_s("core.size_model.sample", rep)
                + tr.total_s("core.schemes.try_new", rep);
            best = best.min((try_new - covered).abs() / try_new);
        }
        assert!(best < 0.2, "replicas leave {:.0}% of try_new unexplained", best * 100.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
