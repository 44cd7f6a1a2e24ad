//! Metric definitions: the end-to-end set a measured run prints and the
//! per-layer set a traced run prints. Names and units here are the ones
//! BENCHMARK.json declares (a test keeps the two in step).

use crate::ops::{Outcome, ReplicaFigures};
use crate::trace::Tracer;
use tmcc::RunReport;

/// One reported figure.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Host seconds in constructor calls.
const SETUP_SPANS: [&str; 3] =
    ["core.system.min_budget", "core.system.try_new", "core.tenancy.admit"];
/// Host seconds in warm-up, the access loop and the report.
const RUN_SPANS: [&str; 4] =
    ["core.system.warmup", "core.system.slice", "core.system.report", "core.tenancy.run"];

fn sum_spans(tr: &Tracer, names: &[&str], root: usize) -> f64 {
    names.iter().map(|n| tr.total_s(n, root)).sum()
}

/// Host seconds of one operation's set-up.
pub fn setup_s(tr: &Tracer, root: usize) -> f64 {
    sum_spans(tr, &SETUP_SPANS, root)
}

/// Host seconds of one operation's run phase.
pub fn run_s(tr: &Tracer, root: usize) -> f64 {
    sum_spans(tr, &RUN_SPANS, root)
}

/// Host seconds of the whole operation.
pub fn wall_s(tr: &Tracer, root: usize) -> f64 {
    tr.spans()[root].dur_ns() as f64 * 1e-9
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated figures of one operation (deterministic per seed):
/// `(sim_perf_acc_per_us, dram_saved_pct, p99 latency ns)`.
pub fn simulated(out: &Outcome) -> (f64, f64, f64) {
    let perf = geomean(out.tmcc.iter().map(RunReport::perf_accesses_per_us));
    let used: u64 = out.tmcc.iter().map(|r| r.stats.dram_used_bytes).sum();
    let footprint: u64 = out.tmcc.iter().map(|r| r.stats.footprint_bytes).sum();
    let saved = 100.0 * (1.0 - ratio(used as f64, footprint as f64));
    let p99 = out.fleet_p99_ns.unwrap_or_else(|| out.latency.percentile_ns(990));
    (perf, saved, p99 as f64)
}

/// Geomean TMCC / Compresso perf over an outcome's iso-savings pairs.
pub fn tmcc_vs_compresso(out: &Outcome) -> f64 {
    geomean(out.iso_ratios.iter().copied())
}

/// Set-up seconds of the repetitions of one operation, combined call by
/// call: each constructor call (a `min_budget_bytes`, a `try_new`, an
/// admission) is matched with the same call in every other repetition,
/// the median of each is taken, and the medians are summed — so a burst
/// of host interference during one repetition's call does not count.
pub fn setup_median(tr: &Tracer, roots: &[usize]) -> f64 {
    let mut calls: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for &root in roots {
        let children = tr.spans().iter().filter(|s| s.parent == Some(root));
        for (pos, span) in children.enumerate() {
            let secs = span.dur_ns() as f64 * 1e-9;
            match calls.get_mut(pos) {
                Some((name, v)) if *name == span.name => v.push(secs),
                Some(_) => {}
                None => calls.push((span.name, vec![secs])),
            }
        }
    }
    calls
        .iter()
        .filter(|(n, _)| SETUP_SPANS.contains(n))
        .map(|(_, v)| median(v))
        .fold(0.0, |a, b| a + b)
}

/// End-to-end metrics of a measured run: set-up from [`setup_median`],
/// peak RSS after the first repetition, simulated figures from the first
/// repetition, `tmcc_vs_compresso` from the operation itself or, where it
/// has no Compresso side, from the untimed `anchor`.
pub fn end_to_end(
    tr: &Tracer,
    reps: &[(usize, Outcome)],
    anchor: &Outcome,
    peak_rss_kb: u64,
) -> Vec<Metric> {
    let roots: Vec<usize> = reps.iter().map(|(root, _)| *root).collect();
    let first = &reps[0].1;
    let (perf, saved, _) = simulated(first);
    let vs = if first.iso_ratios.is_empty() { anchor } else { first };
    vec![
        m("setup_s", "s", setup_median(tr, &roots)),
        m("peak_rss_mb", "MB", peak_rss_kb as f64 * 1024.0 / 1e6),
        m("sim_perf_acc_per_us", "acc/us", perf),
        m("dram_saved_pct", "%", saved),
        m("tmcc_vs_compresso", "ratio", tmcc_vs_compresso(vs)),
    ]
}

/// Inputs of the per-layer metrics, all from one traced run.
pub struct LayerInputs<'a> {
    /// The traced operation: simulated counters and tenancy spans.
    pub op: (usize, &'a Outcome),
    /// Source of the per-system host figures (the traced op itself, or
    /// the kv probe systems).
    pub systems: (usize, &'a Outcome),
    /// The same systems re-run with `SystemConfig::profile` on.
    pub profiled: (usize, &'a Outcome),
    /// The construction probe (real `try_new` plus replicas) of
    /// `systems`' configs.
    pub replicas: (usize, ReplicaFigures),
    /// The standalone stream probe and its call count.
    pub stream: (usize, u64),
}

/// Per-layer metrics of a traced run.
pub fn per_layer(tr: &Tracer, x: &LayerInputs) -> Vec<Metric> {
    let (op_root, op) = x.op;
    let (sys_root, sys) = x.systems;
    let (prof_root, prof) = x.profiled;
    let (rep_root, rep) = x.replicas;
    let (stream_root, stream_calls) = x.stream;
    let span = |name: &str, root: usize| tr.total_s(name, root);

    // Simulated counters over the operation's TMCC systems (or tenants).
    let sum = |f: &dyn Fn(&RunReport) -> f64| op.tmcc.iter().map(f).fold(0.0, |a, b| a + b);
    let acc = sum(&|r| r.stats.accesses as f64);
    let per_kacc = |n: f64| 1000.0 * ratio(n, acc);
    let tlb_miss = sum(&|r| r.stats.tlb_misses as f64);
    let tlb_hit = sum(&|r| r.stats.tlb_hits as f64);
    let llc = sum(&|r| r.stats.llc_misses() as f64);
    let wb = sum(&|r| r.stats.llc_writebacks as f64);
    let cte_hits = sum(&|r| r.stats.cte_hits as f64);
    let cte_misses = sum(&|r| r.stats.cte_misses as f64);
    let par_ok = sum(&|r| r.stats.ml1_parallel_correct as f64);
    let par_bad = sum(&|r| r.stats.ml1_parallel_mismatch as f64);
    let row_hits = sum(&|r| r.dram.row_hits as f64);
    let row_misses = sum(&|r| r.dram.row_misses as f64);
    let bw = ratio(sum(&|r| r.bandwidth_utilization), op.tmcc.len() as f64);

    // The loop split, from the profiled re-run.
    let p = prof.host.profile;
    let steps = p.steps as f64;
    let overhead = 100.0 * (ratio(run_s(tr, prof_root), run_s(tr, sys_root)) - 1.0);

    let try_new = span("core.system.try_new", sys_root);
    let probe_try_new = span("core.system.try_new", rep_root);
    let pt_build = span("sim-mem.page_table_build", rep_root);
    let sample = span("core.size_model.sample", rep_root);
    let two_level_new = span("core.schemes.try_new", rep_root);
    let scheme_new = two_level_new + span("core.schemes.try_new_compresso", rep_root);
    let two_level_flat = span("core.schemes.try_new_flat", rep_root);
    let slices_ms: Vec<f64> =
        tr.durations_s("core.system.slice", sys_root).iter().map(|s| s * 1e3).collect();
    let rss_growth_mb = sys.host.rss_growth_kb as f64 * 1024.0 / 1e6;
    let heap_mb = (sys.host.metadata_heap + sys.host.store_heap) as f64 / 1e6;
    let tenancy_run = span("core.tenancy.run", op_root);
    let op_run = run_s(tr, op_root);
    let op_wall = wall_s(tr, op_root);
    let op_residual = tr.self_ns(op_root) as f64 * 1e-9;
    let (_, _, p99) = simulated(op);

    vec![
        m("sim-mem.page_table_build_s", "s", pt_build),
        m("sim-mem.table_pages", "count", rep.table_pages as f64),
        m("sim-mem.translation_ns_per_acc", "ns", ratio(p.translation_ns as f64, steps)),
        m("sim-mem.data_ns_per_acc", "ns", ratio(p.data_ns as f64, steps)),
        m("sim-mem.tlb_miss_rate", "ratio", ratio(tlb_miss, tlb_miss + tlb_hit)),
        m(
            "sim-mem.walker_fetches_per_kacc",
            "1/kacc",
            per_kacc(sum(&|r| r.stats.walker_fetches as f64)),
        ),
        m("sim-mem.llc_misses_per_kacc", "1/kacc", per_kacc(llc)),
        m("workloads.stream_ns_per_acc", "ns", ratio(p.workload_ns as f64, steps)),
        m(
            "workloads.next_access_ns",
            "ns",
            1e9 * ratio(span("workloads.next_access", stream_root), stream_calls as f64),
        ),
        m("workloads.store_heap_mb", "MB", sys.host.store_heap as f64 / 1e6),
        m("core.size_model.sample_s", "s", sample),
        m(
            "deflate-mem.compress_mb_per_s",
            "MB/s",
            ratio(rep.codec_bytes as f64 / 1e6, span("deflate-mem.compress", rep_root)),
        ),
        m(
            "deflate-mem.decompress_mb_per_s",
            "MB/s",
            ratio(rep.codec_bytes as f64 / 1e6, span("deflate-mem.decompress", rep_root)),
        ),
        m("deflate-mem.ratio", "ratio", ratio(rep.codec_bytes as f64, rep.codec_stored as f64)),
        m("core.schemes.try_new_s", "s", scheme_new),
        m("core.schemes.ptb_warmup_s", "s", two_level_new - two_level_flat),
        m("core.schemes.metadata_heap_mb", "MB", sys.host.metadata_heap as f64 / 1e6),
        m("core.schemes.maintenance_ns_per_acc", "ns", ratio(p.maintenance_ns as f64, steps)),
        m(
            "core.schemes.migrations_per_kacc",
            "1/kacc",
            per_kacc(sum(&|r| {
                (r.stats.ml1_to_ml2_migrations + r.stats.ml2_to_ml1_migrations) as f64
            })),
        ),
        m(
            "core.schemes.migration_stall_ns_per_acc",
            "sim_ns",
            ratio(sum(&|r| r.stats.migration_stall_ns), acc),
        ),
        m(
            "core.schemes.ml2_access_rate",
            "ratio",
            ratio(sum(&|r| r.stats.ml2_reads as f64), llc + wb),
        ),
        m(
            "core.schemes.emergency_evictions",
            "count",
            sum(&|r| r.stats.emergency_evictions as f64),
        ),
        m("core.schemes.cte_hit_rate", "ratio", ratio(cte_hits, cte_hits + cte_misses)),
        m("core.schemes.ml1_spec_accuracy", "ratio", ratio(par_ok, par_ok + par_bad)),
        m("core.system.lat_p99_ns", "sim_ns", p99),
        m("sim-dram.row_hit_rate", "ratio", ratio(row_hits, row_hits + row_misses)),
        m("sim-dram.bw_utilization", "ratio", bw),
        m(
            "sim-dram.accesses_per_kacc",
            "1/kacc",
            per_kacc(sum(&|r| (r.dram.reads + r.dram.writes) as f64)),
        ),
        m("core.system.min_budget_s", "s", span("core.system.min_budget", sys_root)),
        m("core.system.try_new_s", "s", try_new),
        m(
            "core.system.try_new_unattributed_s",
            "s",
            probe_try_new - pt_build - sample - scheme_new,
        ),
        m("core.system.slice_ms.p50", "ms", percentile(&slices_ms, 0.50)),
        m("core.system.slice_ms.p95", "ms", percentile(&slices_ms, 0.95)),
        m("core.system.slice_samples", "count", slices_ms.len() as f64),
        m("core.system.validate_s", "s", span("core.system.validate", sys_root)),
        m("core.system.profile_overhead_pct", "%", overhead),
        m("core.system.rss_growth_mb", "MB", rss_growth_mb),
        m("core.system.heap_accounted_pct", "%", 100.0 * ratio(heap_mb, rss_growth_mb)),
        m("core.tenancy.admit_s", "s", span("core.tenancy.admit", op_root)),
        m("core.tenancy.run_s", "s", tenancy_run),
        m("core.tenancy.validate_s", "s", span("core.tenancy.validate", op_root)),
        m(
            "core.tenancy.ns_per_acc",
            "ns",
            1e9 * ratio(tenancy_run, op.tenancy.measured_accesses as f64),
        ),
        m("core.tenancy.rounds", "count", op.tenancy.rounds as f64),
        m("core.tenancy.throttled_quanta", "count", op.tenancy.throttled_quanta as f64),
        m("core.tenancy.admission_rejections", "count", op.tenancy.admission_rejections as f64),
        m("core.tenancy.breach_rounds", "count", op.tenancy.breach_rounds as f64),
        m("bench.run_s", "s", op_run),
        m("bench.wall_s", "s", op_wall),
        m("bench.sim_acc_per_host_s", "acc/s", ratio(op.run_accesses as f64, op_run)),
        m("bench.unattributed_pct", "%", 100.0 * ratio(op_residual, op_wall)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::from_str(text).expect("BENCHMARK.json parses");
        v.get(section)
            .and_then(Value::as_seq)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    /// BENCHMARK.json declares the names and units a run prints; the code
    /// must print exactly those, in that order.
    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let mut tr = Tracer::new();
        let root = tr.enter("op");
        tr.exit(root);
        let out = Outcome::new();
        let reps = vec![(root, Outcome::new())];
        assert_eq!(emitted(&end_to_end(&tr, &reps, &out, 0)), declared("end_to_end"));
        let inputs = LayerInputs {
            op: (root, &out),
            systems: (root, &out),
            profiled: (root, &out),
            replicas: (root, ReplicaFigures::default()),
            stream: (root, 0),
        };
        assert_eq!(emitted(&per_layer(&tr, &inputs)), declared("per_layer"));
    }

    #[test]
    fn setup_median_drops_a_burst_in_one_repetition() {
        let mut tr = Tracer::new();
        let mut roots = Vec::new();
        for rep in 0..3 {
            let root = tr.enter("op");
            for name in ["core.system.try_new", "core.system.slice", "core.system.try_new"] {
                let id = tr.enter(name);
                // One slow constructor in the middle repetition only.
                let n = if rep == 1 && name == "core.system.try_new" { 2_000_000 } else { 20_000 };
                std::hint::black_box((0..n).fold(0u64, |a, x| a ^ x));
                tr.exit(id);
            }
            tr.exit(root);
            roots.push(root);
        }
        let setup = setup_median(&tr, &roots);
        let news = tr.spans().iter().filter(|s| s.name == "core.system.try_new");
        let slow: u64 = news.map(|s| s.dur_ns()).max().expect("spans");
        assert!(setup > 0.0 && setup * 1e9 < slow as f64);
        assert!(setup <= run_s(&tr, roots[1]) + setup_s(&tr, roots[1]));
    }

    #[test]
    fn quartile_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }
}
