//! # rapid-bench
//!
//! The experiment harness: one binary per table/figure in the paper's
//! evaluation (run `cargo run -p rapid-bench --bin <name> --release`).
//! Host kernel timing lives in `kernel_speed`; `repro_all` runs every
//! experiment in sequence — its output is the source of EXPERIMENTS.md.
//!
//! Every experiment binary is one [`run`] call, and its exit status is
//! its contract: 0 means every invariant it checks held.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig10_chip_table` | Fig 10 chip specification table (E1) |
//! | `fig13_inference` | Fig 13 inference latency & speedups (E2) |
//! | `fig14_efficiency` | Fig 14 sustained TOPS/W (E3) |
//! | `fig15_training` | Fig 15 training throughput (E4) |
//! | `fig16_throttling` | Fig 16 sparsity-aware throttling (E5) |
//! | `fig17_breakdown` | Fig 17 INT4 cycle breakdown (E6) |
//! | `fig18_scaling` | Fig 18 core/chip scaling (E7) |
//! | `fig4c_area_power` | Fig 4(c) FPU/FXU area & power accounting (E8) |
//! | `calibration` | §V-A model-calibration claim (E9) |
//! | `numerics_validation` | §II-B/§II-C numerics claims (E10) |
//! | `ring_multicast` | Fig 8 multicast protocol (E11) |
//! | `int2_future` | §VII INT2 future work (E12) |
//! | `ablations` | design-choice ablations (E13) |
//! | `batch_sweep` | batch-size design point (E14) |
//! | `energy_breakdown` | energy breakdown & mixed-precision DSE (E15) |
//! | `fault_sweep` | fault-injection sweep (E16) |
//! | `recovery_sweep` | recovery-layer cost (E17) |
//! | `protection_sweep` | end-to-end data protection (E19) |
//! | `kernel_speed` | kernel backend speed & bit-exactness (E20) |
//! | `serving_sweep` | overload-hardened serving (E21) |
//! | `elastic_sweep` | elastic multi-chip training (E22) |
//! | `obs_sweep` | spans, burn-rate SLOs, OpenMetrics (E23) |
//! | `health_sweep` | core health: probes, quarantine, fleet remap (E24) |
//! | `repro_all` | everything above, aggregated into `BENCH_repro.json` |
//! | `telemetry_report` | renders and validates the aggregate (E18) |
//! | `benchmark` | the repo benchmark (`BENCHMARK.json` workloads) |

use rapid_arch::precision::Precision;
use rapid_compiler::passes::compile;
use rapid_fault::FaultConfig;
use rapid_model::inference::{evaluate_inference, InferenceResult};
use rapid_model::training::{evaluate_training, TrainingResult};
use rapid_telemetry::{trace_path_from_env, TraceSink};
use rapid_workloads::graph::Network;
use rapid_workloads::suite::benchmark_suite;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};

/// Environment variable naming an experiment binary that [`run`] fails
/// before its body runs — the hook proving `repro_all` degrades
/// gracefully (full table, that row FAILED, non-zero exit).
pub const FORCE_FAIL_ENV: &str = "RAPID_FORCE_FAIL";

/// Parsed experiment flags.
#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    seed: Option<u64>,
    json: Option<PathBuf>,
}

/// Parses `--smoke`, `--seed N` and `--json PATH`/`--json=PATH`;
/// anything else — a missing or malformed value included — is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if let Some(path) = record::json_flag(&a, &mut args) {
            out.json = Some(path?);
            continue;
        }
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => {
                let v = args.next().ok_or("--seed requires a value")?;
                out.seed = Some(v.parse().map_err(|_| format!("invalid --seed value '{v}'"))?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// What an experiment body works with: its parsed flags, its record, and
/// the soft failures it has noted so far.
#[derive(Debug)]
pub struct Ctx {
    /// The experiment's machine-readable record; [`run`] finishes it on
    /// every path.
    pub rec: BenchRecord,
    args: Args,
    failures: Vec<String>,
}

impl Ctx {
    /// Whether `--smoke` was passed; stamps config `mode` (`smoke`/`full`).
    pub fn smoke(&mut self) -> bool {
        self.rec.config_str("mode", if self.args.smoke { "smoke" } else { "full" });
        self.args.smoke
    }

    /// The experiment's fault seed — `--seed N`, else `RAPID_FAULT_SEED`,
    /// else `default` — stamped over the record's config `fault_seed`, so
    /// the record and its footer name the seed the run actually used.
    pub fn seed(&mut self, default: u64) -> u64 {
        let seed = self.args.seed.unwrap_or_else(|| FaultConfig::seed_from_env(default));
        self.rec.stamp_fault_seed(seed);
        seed
    }

    /// Notes a soft failure: the body keeps going (its table completes)
    /// but [`run`] exits with [`ExitCode::FAILURE`].
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Soft-fails unless the record carries metric `name` with a positive
    /// value — the proof that a counted path was actually exercised.
    pub fn require_positive(&mut self, name: &str) {
        if !self.rec.metric_value(name).is_some_and(|v| v > 0.0) {
            self.fail(format!("record is missing a positive `{name}`"));
        }
    }

    /// Writes `sink` as Chrome-trace JSON to the `RAPID_TRACE` path and
    /// stamps config `trace_path` and metric `trace.span_events`; a no-op
    /// when `RAPID_TRACE` is unset.
    ///
    /// # Errors
    ///
    /// Fails on an empty sink or when the file cannot be written.
    pub fn write_trace(&mut self, sink: &TraceSink) -> Result<(), String> {
        let Some(path) = trace_path_from_env() else { return Ok(()) };
        if sink.is_empty() {
            return Err(format!("RAPID_TRACE={}: the trace sink is empty", path.display()));
        }
        sink.write(&path).map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        self.rec.metric("trace.span_events", sink.len() as f64);
        self.rec.config_str("trace_path", &path.display().to_string());
        println!("trace written to {}", path.display());
        Ok(())
    }
}

/// Runs one experiment binary: parses this process's flags (a bad flag
/// prints one usage line and exits 2), hands `body` a [`Ctx`], then
/// finishes the record — on every path, failures included.
///
/// Returns [`ExitCode::FAILURE`] when the body returned `Err` or
/// panicked (a hard failure), noted any [`Ctx::fail`] (a soft failure),
/// or its record could not be written; [`FORCE_FAIL_ENV`] naming `name`
/// forces a hard failure before the body runs.
pub fn run(
    name: &str,
    body: impl FnOnce(&mut Ctx) -> Result<(), Box<dyn std::error::Error>>,
) -> ExitCode {
    run_with(name, std::env::args().skip(1), body)
}

fn run_with(
    name: &str,
    argv: impl IntoIterator<Item = String>,
    body: impl FnOnce(&mut Ctx) -> Result<(), Box<dyn std::error::Error>>,
) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: {e} (usage: {name} [--smoke] [--seed N] [--json PATH])");
            return ExitCode::from(2);
        }
    };
    let rec = BenchRecord::with_json(name, args.json.clone());
    let mut ctx = Ctx { rec, args, failures: Vec::new() };
    let outcome = if std::env::var(FORCE_FAIL_ENV).is_ok_and(|t| t == name) {
        Err(format!("{FORCE_FAIL_ENV}={name}: forced failure (harness degradation test)"))
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)))
            .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
            .and_then(|r| r.map_err(|e| e.to_string()))
    };
    ctx.failures.extend(outcome.err());
    ctx.failures.extend(ctx.rec.try_finish().err());
    if ctx.failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &ctx.failures {
        eprintln!("[{name}] FAILED: {f}");
    }
    ExitCode::FAILURE
}

/// Prints a section heading.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `measured vs paper` comparison line.
pub fn compare(label: &str, measured: impl std::fmt::Display, paper: &str) {
    println!("{label:<44} measured: {measured:<18} paper: {paper}");
}

/// Evaluates one benchmark for batch-1 inference at a precision on the
/// 4-core chip (optionally at a non-nominal frequency).
pub fn infer(net: &Network, p: Precision, freq_ghz: Option<f64>) -> InferenceResult {
    let mut chip = rapid_arch::geometry::ChipConfig::rapid_4core();
    if let Some(f) = freq_ghz {
        chip.freq_ghz = f;
    }
    let plan = compile(net, &chip, p);
    evaluate_inference(net, &plan, &chip, 1)
}

/// Evaluates one benchmark for a training step on the 4×32-core system.
pub fn train_step(net: &Network, p: Precision) -> TrainingResult {
    let sys = rapid_arch::geometry::SystemConfig::training_4x32();
    evaluate_training(net, &sys, p, 512)
}

pub use rapid_numerics::gemm::num_threads;

/// [`try_par_map`] for work that must not fail.
///
/// # Panics
///
/// Propagates a panic from any worker (after [`try_par_map`]'s one retry).
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    try_par_map(items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("worker panicked twice: {e}"),
        })
        .collect()
}

/// Runs `f` over `items` on a bounded worker pool, preserving input order
/// in the returned vector, with graceful degradation.
///
/// The pool holds `num_threads().min(items.len())` workers (so the
/// `RAPID_THREADS` environment knob caps harness parallelism too) pulling
/// work items off a shared index — long and short experiments interleave
/// instead of each getting a dedicated thread. Each worker catches panics
/// from `f`, retries the item once (transient failures get a second
/// chance), and returns `Err(panic message)` for items that fail both
/// attempts — so a sweep always yields a complete, ordered table with
/// failed rows marked instead of tearing down the whole harness.
pub fn try_par_map<T: Sync, U: Send>(
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<Result<U, String>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let attempt = |item: &T| -> Result<U, String> {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(v) => Ok(v),
            Err(_) => catch_unwind(AssertUnwindSafe(|| f(item)))
                .map_err(|p| panic_message(p.as_ref())),
        }
    };
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(attempt).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(items.len()));
    // Workers catch panics from `f`, so the scope never re-raises one and
    // the lock is never poisoned by `f`.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = attempt(&items[i]);
                results.lock().unwrap_or_else(PoisonError::into_inner).push((i, r));
            });
        }
    });
    let mut v = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    v.sort_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// Renders a panic payload as a one-line reason for failure tables.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `f` over the whole suite in parallel, preserving suite order.
pub fn suite_map<T: Send>(f: impl Fn(&Network) -> T + Sync) -> Vec<(String, T)> {
    let suite = benchmark_suite();
    let results = par_map(&suite, &f);
    suite.into_iter().zip(results).map(|(net, r)| (net.name, r)).collect()
}

pub mod record;
pub use record::{json_path_from_args, BenchRecord};

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Minimum and maximum of a slice.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..57).collect();
        let doubled = par_map(&items, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn suite_map_preserves_order() {
        let names: Vec<String> =
            suite_map(|n| n.name.clone()).into_iter().map(|(n, _)| n).collect();
        let expect: Vec<String> = benchmark_suite().into_iter().map(|n| n.name).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn try_par_map_marks_failures_and_keeps_the_rest() {
        let items: Vec<usize> = (0..12).collect();
        let results = try_par_map(&items, |&i| {
            assert!(i != 5, "item five always fails");
            i * 10
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().expect_err("item 5 must fail");
                assert!(e.contains("item five always fails"), "{e}");
            } else {
                assert_eq!(r.as_ref().copied().expect("others succeed"), i * 10);
            }
        }
    }

    #[test]
    fn harness_parses_flags_and_rejects_malformed_ones() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| (*s).to_string()));
        let json = |p: &str| Args { json: Some(PathBuf::from(p)), ..Args::default() };
        assert_eq!(parse(&[]), Ok(Args::default()));
        assert_eq!(parse(&["--json", "out.json"]), Ok(json("out.json")));
        assert_eq!(parse(&["--json=x/y.json"]), Ok(json("x/y.json")));
        assert_eq!(
            parse(&["--seed", "9", "--smoke"]),
            Ok(Args { smoke: true, seed: Some(9), json: None })
        );
        for bad in [
            &["--json"][..],
            &["--json="],
            &["--json", "--smoke"],
            &["--seed"],
            &["--seed", "x"],
            &["--verbose"],
            &["--jsonx"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn run_exit_status_carries_failures_and_the_record_is_always_written() {
        let dir = std::env::temp_dir().join(format!("rapid-bench-run-{}", std::process::id()));
        let path = dir.join("rec.json");
        let argv = || vec!["--json".to_string(), path.display().to_string()];
        let read = || {
            let text = std::fs::read_to_string(&path).expect("record written");
            std::fs::remove_file(&path).expect("record removable");
            let j = rapid_telemetry::Json::parse(&text).expect("record parses");
            rapid_telemetry::validate_bench_record(&j).expect("record validates");
            j
        };

        let code = run_with("unit_test", argv(), |ctx| {
            ctx.rec.metric("before", 1.0);
            ctx.fail("soft contract broken");
            ctx.rec.metric("after", 2.0);
            Ok(())
        });
        assert_eq!(code, ExitCode::FAILURE, "ctx.fail must fail the run");
        let j = read();
        let metrics = j.get("metrics").and_then(rapid_telemetry::Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), 2, "the body keeps running after a soft failure");

        assert_eq!(run_with("unit_test", argv(), |_| Err("hard".into())), ExitCode::FAILURE);
        read();
        let panicking =
            |_: &mut Ctx| -> Result<(), Box<dyn std::error::Error>> { panic!("body panicked") };
        assert_eq!(run_with("unit_test", argv(), panicking), ExitCode::FAILURE);
        read();
        let code = run_with("unit_test", argv(), |ctx| {
            ctx.rec.metric("count", 3.0);
            ctx.require_positive("count");
            Ok(())
        });
        assert_eq!(code, ExitCode::SUCCESS);
        read();
        let code = run_with("unit_test", argv(), |ctx| {
            ctx.require_positive("absent");
            Ok(())
        });
        assert_eq!(code, ExitCode::FAILURE, "a missing required counter fails the run");
        read();
        assert_eq!(
            run_with("unit_test", ["--json".to_string()], |_| Ok(())),
            ExitCode::from(2),
            "a flag error exits 2 before the body runs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_and_footer_carry_the_seed_the_run_used() {
        let dir = std::env::temp_dir().join(format!("rapid-bench-seed-{}", std::process::id()));
        let path = dir.join("rec.json");
        // Above 2^53, where an f64 would drop the low bits.
        let seed = 5_388_115_659_948_436_559u64;
        let argv = ["--seed", &seed.to_string(), "--json", &path.display().to_string()];
        let code = run_with("unit_test", argv.map(String::from), |ctx| {
            assert_eq!(ctx.seed(3), seed);
            let footer = ctx.rec.footer();
            assert!(footer.ends_with(&format!("fault seed {seed}")), "{footer}");
            Ok(())
        });
        assert_eq!(code, ExitCode::SUCCESS);
        let text = std::fs::read_to_string(&path).expect("record written");
        let j = rapid_telemetry::Json::parse(&text).expect("record parses");
        let config = j.get("config").expect("config");
        let stamped = config.get("fault_seed").and_then(rapid_telemetry::Json::as_str);
        assert_eq!(stamped, Some("5388115659948436559"));
        assert!(config.get("seed").is_none(), "one seed key, not two: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
        assert_eq!(mean(&[]), 0.0);
    }
}
