//! The TMCC benchmark: workloads, metrics and the traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload iso_savings --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A measured run (`--trace 0`) repeats the workload's operation, each
//! time on inputs derived from the seed and the repetition index, until
//! `--seconds` have passed, and prints the end-to-end metrics: set-up time
//! combined call by call over the repetitions, peak RSS and simulated
//! figures from the first. A traced run (`--trace 1`) runs the
//! operation, repeats it on the same seed (with the loop profiler on,
//! which must not change a simulated bit) and on a held-out seed (which
//! must change them), rebuilds the construction steps as standalone
//! spans, and prints the per-layer metrics; its spans are written out at
//! exit. The last stdout line is always one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

mod metrics;
mod ops;
mod trace;

use metrics::Metric;
use ops::{Outcome, Workload};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seed no tuning run uses; the traced run checks that simulated results
/// change when it replaces the given seed.
const HELD_OUT_SEED: u64 = 1_000_003;
/// Salts keeping the replicas' and probes' inputs apart from the traced
/// operation's (the size-model memo is keyed by page bytes).
const REPLICA_SALT: u64 = 0x5EB1_1CA5;
const PROBE_SALT: u64 = 0x9B0B_E5A1;
/// `next_access` calls per stream in the standalone stream probe.
const STREAM_CALLS: u64 = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The seed of repetition `rep` of a run seeded `seed` (SplitMix64).
fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed.wrapping_add(rep.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a run hands to the result line.
struct RunResult {
    ok: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn tally(outcomes: &[&Outcome]) -> (u64, u64) {
    for o in outcomes {
        for f in &o.failures {
            eprintln!("perfbench: FAILED {f}");
        }
    }
    (outcomes.iter().map(|o| o.attempted).sum(), outcomes.iter().map(|o| o.failed).sum())
}

fn measured(tr: &mut Tracer, a: &Args, pool: &rayon::ThreadPool) -> RunResult {
    let w = a.workload;
    let start = Instant::now();
    let mut reps: Vec<(usize, Outcome)> = Vec::new();
    // VmHWM after the first operation: later repetitions run other seeds,
    // and the size-model memo they grow would make a whole-run peak
    // depend on how many repetitions fit in the time.
    let mut peak_rss_kb = 0;
    for rep in 0.. {
        let mut out = Outcome::new();
        let root = ops::run_op(tr, w, rep_seed(a.seed, rep), false, pool, &mut out);
        if rep == 0 {
            peak_rss_kb = ops::status_kb("VmHWM");
        }
        println!(
            "{} seed={} rep={rep}: setup {:.4} s, run {:.4} s, wall {:.4} s, {} systems, \
             {} failed",
            w.name(),
            a.seed,
            metrics::setup_s(tr, root),
            metrics::run_s(tr, root),
            metrics::wall_s(tr, root),
            out.attempted,
            out.failed
        );
        reps.push((root, out));
        if start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    let mut anchor = Outcome::new();
    ops::anchor(tr, w, rep_seed(a.seed, 0), &mut anchor);
    println!(
        "digest {} seed={} fnv1a64={:016x} ({} repetitions)",
        w.name(),
        a.seed,
        reps[0].1.digest,
        reps.len()
    );
    let metrics = metrics::end_to_end(tr, &reps, &anchor, peak_rss_kb);
    let mut all: Vec<&Outcome> = reps.iter().map(|(_, o)| o).collect();
    all.push(&anchor);
    let (attempted, failed) = tally(&all);
    RunResult { ok: failed == 0, attempted, failed, metrics }
}

fn traced(tr: &mut Tracer, a: &Args, pool: &rayon::ThreadPool) -> RunResult {
    let w = a.workload;
    let seed = rep_seed(a.seed, 0);
    let held = rep_seed(if a.seed == HELD_OUT_SEED { HELD_OUT_SEED + 1 } else { HELD_OUT_SEED }, 0);
    let profile = w != Workload::KvOvercommit;

    let mut op = Outcome::new();
    let op_root = ops::run_op(tr, w, seed, false, pool, &mut op);
    let mut again = Outcome::new();
    let again_root = ops::run_op(tr, w, seed, profile, pool, &mut again);
    let mut other = Outcome::new();
    ops::run_op(tr, w, held, false, pool, &mut other);

    let same = op.digest == again.digest;
    let differs = op.digest != other.digest;
    println!(
        "digest {} seed={} fnv1a64={:016x} repeat={:016x} held-out={:016x}",
        w.name(),
        a.seed,
        op.digest,
        again.digest,
        other.digest
    );
    if !same {
        eprintln!("perfbench: simulated results differ between repeats of one seed");
    }
    if !differs {
        eprintln!("perfbench: simulated results identical under the held-out seed");
    }

    // The kv fleet hides its tenants' systems, so its host-side system
    // figures come from standalone probe systems run twice.
    let mut probe_off = Outcome::new();
    let mut probe_on = Outcome::new();
    let (systems, profiled) = if w == Workload::KvOvercommit {
        let off = ops::kv_probe(tr, seed ^ PROBE_SALT, false, &mut probe_off);
        let on = ops::kv_probe(tr, seed ^ PROBE_SALT, true, &mut probe_on);
        ((off, &probe_off), (on, &probe_on))
    } else {
        ((op_root, &op), (again_root, &again))
    };
    let replicas = ops::replicas(tr, &systems.1.configs, REPLICA_SALT);
    let stream = ops::stream_probe(tr, &systems.1.configs, STREAM_CALLS);
    let (_, fig) = replicas;
    if fig.codec_mismatches > 0 {
        eprintln!("perfbench: {} pages failed the codec round trip", fig.codec_mismatches);
    }
    if fig.errors > 0 {
        eprintln!("perfbench: {} construction probes failed", fig.errors);
    }

    let inputs = metrics::LayerInputs { op: (op_root, &op), systems, profiled, replicas, stream };
    let metrics = metrics::per_layer(tr, &inputs);
    let (attempted, failed) = tally(&[&op, &again, &other, &probe_off, &probe_on]);
    if let Err(e) = write_trace(tr, a, &metrics) {
        eprintln!("perfbench: could not write the trace: {e}");
    }
    let ok = failed == 0 && same && differs && fig.codec_mismatches == 0 && fig.errors == 0;
    RunResult { ok, attempted, failed, metrics }
}

/// Writes the spans, per-operation ledgers and per-layer metrics under
/// the cargo target directory.
fn write_trace(tr: &Tracer, a: &Args, metrics: &[Metric]) -> std::io::Result<()> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", a.workload.name(), a.seed));
    let trace = Value::Map(vec![
        ("trace".into(), tr.to_value()),
        ("metrics".into(), metrics_value(metrics)),
    ]);
    let json = serde_json::to_string(&trace).expect("trace serializes");
    std::fs::write(&path, json)?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|x| {
                (
                    x.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(x.value)),
                        ("unit".into(), Value::Str(x.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <iso_savings|capacity_64g|kv_overcommit> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // kv_overcommit runs tenant quanta in parallel on this pool; the
    // other workloads are single-threaded and never touch it.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("worker pool builds");
    let mut tr = Tracer::new();
    let result =
        if args.trace { traced(&mut tr, &args, &pool) } else { measured(&mut tr, &args, &pool) };
    drop(pool);
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(result.ok)),
        ("attempted".into(), Value::U64(result.attempted)),
        ("failed".into(), Value::U64(result.failed)),
        ("metrics".into(), metrics_value(&result.metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("result serializes"));
    ExitCode::SUCCESS
}
