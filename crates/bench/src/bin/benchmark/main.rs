//! The repository benchmark: whole networks through the emulated kernels,
//! HFP8 training, cycle simulation and open-loop serving, each timed end to
//! end and layer by layer. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--trace-out <path>] [--json <path>]
//! benchmark --smoke
//! benchmark --compare <dirA> <dirB>
//! ```
//!
//! A run prints every metric by name with its unit and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits non-zero when an output differs from its reference.

mod bert;
mod check;
mod chip;
mod clock;
mod cnn;
mod compare;
mod lstm;
mod metrics;
mod ops;
mod serve;
mod stats;
mod trace;

use check::Gate;
use clock::HostSpeed;
use metrics::Metric;
use ops::Kernels;
use rapid_bench::BenchRecord;
use rapid_numerics::Tensor;
use rapid_telemetry::Json;
use rapid_workloads::{cnn::resnet50, nlp};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Profile, Recorder, Span};

/// Run length when `--seconds` is not given (`run_seconds` in BENCHMARK.json).
const RUN_SECONDS: f64 = 10.0;
/// Set-ups per full-size run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Operations an untraced run measures at least: the samples a median needs.
const MIN_SAMPLES: usize = 20;
/// Distinct seeded inputs each kernel workload cycles through.
const INPUTS: usize = 2;
/// Input resolution of the smoke-size ResNet50 copy.
const SMOKE_HW: usize = 16;
/// Sequence length of the trained BERT layer: at 128 a step takes about
/// 2 s, too few steps per run for a median.
const BERT_SEQ: usize = 64;
/// Kernel threads (`RAPID_THREADS`) of every workload. On one thread the
/// CPU time an operation takes is its latency on an idle core. With more,
/// process CPU time would add the threads up and hide a loss of parallel
/// speed-up, while wall time would count whatever else holds the shared
/// host's cores.
const KERNEL_THREADS: &str = "1";

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] \
[--trace-out <path>] [--json <path>]\n       benchmark --smoke\n       benchmark --compare <dirA> <dirB>\n\
workloads: resnet50_int4 bert_hfp8_train lstm_fp16 chip_sim serve_open_loop";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Resnet50Int4,
    BertHfp8Train,
    LstmFp16,
    ChipSim,
    ServeOpenLoop,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::Resnet50Int4,
        Workload::BertHfp8Train,
        Workload::LstmFp16,
        Workload::ChipSim,
        Workload::ServeOpenLoop,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Resnet50Int4 => "resnet50_int4",
            Workload::BertHfp8Train => "bert_hfp8_train",
            Workload::LstmFp16 => "lstm_fp16",
            Workload::ChipSim => "chip_sim",
            Workload::ServeOpenLoop => "serve_open_loop",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Smoke,
}

/// What one measured run yields.
pub struct Measured {
    /// Time per operation, ms: the process CPU time of each inference or
    /// training step, or of each simulated layer per 1000 modelled chip
    /// cycles, scaled to the reference host (see [`clock::HostSpeed`]); the
    /// wall time from its due time to completion of each nominal-phase
    /// request (a failed request reads infinite). In a traced run, the
    /// traced operations.
    pub latencies_ms: Vec<f64>,
    /// In a traced run, the latencies of the untraced operations.
    pub baseline_ms: Vec<f64>,
    /// Units of work completed: inferences, sequences, simulated MMACs, or
    /// requests executed in batches started during the overload phase.
    pub work: f64,
    /// CPU seconds that work took, scaled like `latencies_ms` except in
    /// serving.
    pub busy_s: f64,
    /// Wall seconds the timed operations took.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Workload-specific per-layer values.
    pub extras: Vec<(&'static str, f64)>,
    pub profile: Profile,
    /// Spans per thread, for the Chrome trace.
    pub tracks: Vec<(&'static str, Vec<Span>)>,
}

/// A workload made of operations that run back to back.
trait Kernel {
    /// Operations per replay cycle; runs stop on a cycle boundary.
    fn period(&self) -> usize;
    /// Runs operation `i` of the cycle; returns its outputs and its units
    /// of work.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String>;
    /// Untimed step after each cycle.
    fn end_cycle(&mut self) {}
    /// What operation `i`'s time is divided by to give its latency sample.
    fn latency_divisor(&self, _i: usize) -> f64 {
        1.0
    }
    /// Reference hash of each operation of a cycle, and whether computing
    /// it already ran the fast path (so no separate warm-up is needed).
    fn reference(&mut self, seed: u64) -> Result<(Vec<u64>, bool), String>;
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

struct Resnet {
    plan: cnn::CnnPlan,
    images: Vec<Tensor>,
}

impl Kernel for Resnet {
    fn period(&self) -> usize {
        self.images.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String> {
        let y = self.plan.infer(Kernels::Fast, cnn::Prec::Int4, rec, self.images[i].clone());
        Ok((vec![y], 1.0))
    }

    /// Scalar and fast kernels must agree on a smoke-size copy; the
    /// full-size reference is the fast path's output.
    fn reference(&mut self, seed: u64) -> Result<(Vec<u64>, bool), String> {
        let small = cnn::CnnPlan::build(&resnet50(), SMOKE_HW, 1, seed)?;
        let img = cnn::image(&small, seed);
        let infer = |plan: &cnn::CnnPlan, k: Kernels, x: &Tensor| {
            check::hash(&[plan.infer(k, cnn::Prec::Int4, &mut Recorder::off(), x.clone())])
        };
        let (scalar, fast) =
            (infer(&small, Kernels::Scalar, &img), infer(&small, Kernels::Fast, &img));
        check::same("resnet50_int4 smoke copy", &[scalar], &[fast])?;
        Ok((self.images.iter().map(|x| infer(&self.plan, Kernels::Fast, x)).collect(), true))
    }
}

impl Kernel for bert::Bert {
    /// Two steps from the initial weights: the second trains on weights the
    /// first step's SGD wrote.
    fn period(&self) -> usize {
        2
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String> {
        Ok((self.step(Kernels::Fast, rec, i)?, 1.0))
    }

    fn end_cycle(&mut self) {
        self.reset();
    }

    fn reference(&mut self, seed: u64) -> Result<(Vec<u64>, bool), String> {
        let full = bert::Dims::from_network(&nlp::bert_base_384(), BERT_SEQ)?;
        let small = bert::Bert::new(full.scaled_down(8), INPUTS, seed);
        let run = |mut b: bert::Bert, k: Kernels| -> Result<Vec<u64>, String> {
            (0..2).map(|i| b.step(k, &mut Recorder::off(), i).map(|o| check::hash(&o))).collect()
        };
        check::same(
            "bert_hfp8_train smoke copy",
            &run(small.clone(), Kernels::Scalar)?,
            &run(small, Kernels::Fast)?,
        )?;
        let fast = (0..self.period())
            .map(|i| self.step(Kernels::Fast, &mut Recorder::off(), i).map(|o| check::hash(&o)))
            .collect::<Result<Vec<_>, _>>()?;
        self.reset();
        Ok((fast, true))
    }
}

impl Kernel for lstm::Lstm {
    fn period(&self) -> usize {
        INPUTS
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String> {
        Ok((vec![self.infer(Kernels::Fast, rec, i)], 1.0))
    }

    fn reference(&mut self, _seed: u64) -> Result<(Vec<u64>, bool), String> {
        let r = (0..INPUTS)
            .map(|i| check::hash(&[self.infer(Kernels::Scalar, &mut Recorder::off(), i)]));
        Ok((r.collect(), false))
    }
}

impl Kernel for chip::Chip {
    fn period(&self) -> usize {
        self.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String> {
        self.run(i, rec)
    }

    /// Layers range from 2 ms to 1 s, so the median over raw layer times
    /// jumps between clusters of similar layers; per modelled kcycle, every
    /// layer gives a comparable sample of the simulator's speed.
    fn latency_divisor(&self, i: usize) -> f64 {
        self.kcycles(i)
    }

    fn reference(&mut self, _seed: u64) -> Result<(Vec<u64>, bool), String> {
        Ok((chip::Chip::reference(self).iter().map(|c| check::hash(c)).collect(), false))
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        chip::Chip::extras(self)
    }
}

enum Built {
    Kernel(Box<dyn Kernel>),
    Serve(serve::Serve),
}

fn setup(w: Workload, size: Size, seed: u64) -> Result<Built, String> {
    let full = size == Size::Full;
    Ok(match w {
        Workload::Resnet50Int4 => {
            let plan =
                cnn::CnnPlan::build(&resnet50(), if full { 112 } else { SMOKE_HW }, 1, seed)?;
            let images =
                (0..INPUTS as u64).map(|i| cnn::image(&plan, seed.wrapping_add(i))).collect();
            Built::Kernel(Box::new(Resnet { plan, images }))
        }
        Workload::BertHfp8Train => {
            let d = bert::Dims::from_network(&nlp::bert_base_384(), BERT_SEQ)?;
            let d = if full { d } else { d.scaled_down(8) };
            Built::Kernel(Box::new(bert::Bert::new(d, INPUTS, seed)))
        }
        Workload::LstmFp16 => {
            let d = lstm::Dims::from_network(&nlp::lstm_ptb(), if full { 256 } else { 16 })?;
            Built::Kernel(Box::new(lstm::Lstm::new(d, INPUTS, seed)))
        }
        Workload::ChipSim => {
            let c = if full {
                let d = bert::Dims::from_network(&nlp::bert_base_384(), 32)?;
                chip::Chip::new(32, usize::MAX, d, seed)?
            } else {
                chip::Chip::new(8, 4, bert::Dims { seq: 4, hidden: 32, heads: 2, ffn: 64 }, seed)?
            };
            Built::Kernel(Box::new(c))
        }
        Workload::ServeOpenLoop => {
            Built::Serve(serve::Serve::new(if full { 32 } else { 8 }, seed)?)
        }
    })
}

/// Runs operations until `budget_s` has passed and the cycle is complete.
/// A traced run alternates traced and untraced cycles, so the tracing
/// overhead is measured under the same conditions as the traced work.
/// The host-speed probe runs after every operation and scales its time.
fn measure(
    k: &mut dyn Kernel,
    root: &'static str,
    gate: &mut Gate,
    speed: &mut HostSpeed,
    budget_s: f64,
    traced: bool,
) -> Result<Measured, String> {
    let mut rec = Recorder::new(traced, Instant::now());
    let mut off = Recorder::off();
    let mismatches_before = gate.mismatches;
    // Latencies of untraced and traced cycles.
    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut work, mut busy_s, mut wall_s) = (0.0, 0.0, 0.0);
    let start = Instant::now();
    for cycle in 0usize.. {
        let on = traced && cycle % 2 == 0;
        let r = if on { &mut rec } else { &mut off };
        for i in 0..k.period() {
            let (t0, c0) = (Instant::now(), clock::process_ns());
            let (out, units) = r.span(root, |r| k.op(i, r))?;
            let cpu_s = (clock::process_ns() - c0) as f64 / 1e9;
            wall_s += t0.elapsed().as_secs_f64();
            let cpu_s = cpu_s * speed.sample();
            gate.check(i, &out);
            latencies[usize::from(on)].push(cpu_s * 1e3 / k.latency_divisor(i));
            work += units;
            busy_s += cpu_s;
        }
        k.end_cycle();
        // Slow operations extend an untraced run past its budget.
        let enough = if traced { cycle >= 1 } else { latencies[0].len() >= MIN_SAMPLES };
        if enough && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let mut profile = Profile::default();
    let spans = rec.into_spans();
    profile.add(&spans);
    let [untraced, traced_ms] = latencies;
    let (latencies_ms, baseline_ms) =
        if traced { (traced_ms, untraced) } else { (untraced, Vec::new()) };
    Ok(Measured {
        attempted: (latencies_ms.len() + baseline_ms.len()) as u64,
        latencies_ms,
        baseline_ms,
        work,
        busy_s,
        wall_s,
        failed: 0,
        mismatches: gate.mismatches - mismatches_before,
        extras: k.extras(),
        profile,
        tracks: vec![(root, spans)],
    })
}

/// One workload run: set-up times on the reference host, the measurement,
/// the host speed and, for a traced run, the tracing overhead in %.
struct Run {
    setup_s: Vec<f64>,
    speed: HostSpeed,
    /// Untimed reference and warm-up.
    reference_s: f64,
    measured: Measured,
    mismatches: u64,
    overhead_pct: f64,
}

fn run(w: Workload, size: Size, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let repeats = if size == Size::Full { SETUP_REPEATS } else { 1 };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut speed = HostSpeed::new();
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take()); // free the previous set-up before timing the next
        let c0 = clock::process_ns();
        built = Some(setup(w, size, seed)?);
        let cpu_s = (clock::process_ns() - c0) as f64 / 1e9;
        setup_s.push(cpu_s * speed.sample());
    }
    let t = Instant::now();
    let reference_s;
    let (measured, earlier_mismatches) = match built {
        Some(Built::Kernel(mut k)) => {
            let (expected, warmed) = k.reference(seed)?;
            let mut gate = Gate::new(expected);
            if !warmed {
                let (out, _) = k.op(0, &mut Recorder::off())?;
                gate.check(0, &out);
            }
            reference_s = t.elapsed().as_secs_f64();
            let warm_mismatches = gate.mismatches;
            let m = measure(k.as_mut(), w.name(), &mut gate, &mut speed, seconds, traced)?;
            (m, warm_mismatches)
        }
        // The server cannot switch tracing per request: a traced run
        // serves an untraced half, then a traced one.
        Some(Built::Serve(s)) => {
            let refs = s.reference();
            reference_s = t.elapsed().as_secs_f64();
            if traced {
                let untraced = s.run(&refs, seconds / 2.0, false)?;
                let mut m = s.run(&refs, seconds / 2.0, true)?;
                m.baseline_ms = untraced.latencies_ms;
                (m, untraced.mismatches)
            } else {
                (s.run(&refs, seconds, false)?, 0)
            }
        }
        None => return Err("no set-up ran".to_string()),
    };
    let overhead_pct =
        match (stats::median(&measured.latencies_ms), stats::median(&measured.baseline_ms)) {
            (Some(on), Some(off)) => (on / off - 1.0) * 100.0,
            _ => 0.0,
        };
    let mismatches = measured.mismatches + earlier_mismatches;
    Ok(Run { setup_s, speed, reference_s, measured, mismatches, overhead_pct })
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

enum Mode {
    Run(RunArgs),
    Smoke,
    Compare(PathBuf, PathBuf),
    Help,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Mode, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut traced, mut trace_out) =
        (None, None, RUN_SECONDS, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                workload = Some(w.ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            // Read by `BenchRecord`, which writes the record there.
            "--json" => drop(value()?),
            "--smoke" => return Ok(Mode::Smoke),
            "--compare" => {
                return Ok(Mode::Compare(PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (workload, seed) {
        (Some(workload), Some(seed)) => {
            Ok(Mode::Run(RunArgs { workload, seed, seconds, traced, trace_out }))
        }
        _ => Err("--workload and --seed are required".to_string()),
    }
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<36} {value:>16.4} {unit}");
}

fn execute(a: &RunArgs) -> Result<bool, String> {
    let w = a.workload;
    println!(
        "== {} (seed {}, {} s, trace {}, RAPID_THREADS={})",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.traced),
        KERNEL_THREADS
    );
    let mut record = BenchRecord::new("benchmark");
    let r = run(w, Size::Full, a.seed, a.seconds, a.traced)?;
    let m = &r.measured;
    let correct = r.mismatches == 0;
    record.config_str("workload", w.name());
    record.config_num("seed", a.seed as f64);
    record.config_num("seconds", a.seconds);
    record.config_num("trace", f64::from(u8::from(a.traced)));

    let values: Vec<(&Metric, f64)> = if a.traced {
        metrics::PER_LAYER.iter().zip(metrics::per_layer(m, r.overhead_pct)?).collect()
    } else {
        metrics::END_TO_END.iter().zip(metrics::end_to_end(&r.setup_s, m)?).collect()
    };
    let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let probe_ms = r.speed.probe_ms().ok_or("no host-speed probe ran")?;
    println!(
        "host-speed probe: median {probe_ms:.4} ms over the run, {} ms on the reference host",
        clock::PROBE_REF_MS
    );
    println!(
        "set-up {} s (scaled), untimed reference and warm-up {:.2} s",
        setups.join(" / "),
        r.reference_s
    );
    println!(
        "operations: {} attempted, {} failed, {} output mismatches; {:.2} CPU s (scaled) in {:.2} wall s",
        m.attempted, m.failed, r.mismatches, m.busy_s, m.wall_s
    );
    for (metric, v) in &values {
        print_metric(metric.name, *v, metric.unit);
        record.metric(metric.name, *v);
    }
    if let Some(p) = stats::highest_supported(m.latencies_ms.len()).filter(|&p| p > 50.0) {
        let v = stats::percentile(&m.latencies_ms, p).map_err(|e| e.to_string())?;
        print_metric(&format!("op_ms_p{p}"), v, "ms");
    }
    println!("  (time per operation over {} samples)", m.latencies_ms.len());
    // The record also keeps the workload's own figures (the modelled-chip
    // cycles among them), so `--compare` can check them on untraced runs.
    for (name, v) in m.extras.iter().copied().chain([
        ("attempted", m.attempted as f64),
        ("failed", m.failed as f64),
        ("mismatches", r.mismatches as f64),
        ("host_probe_ms", probe_ms),
    ]) {
        record.metric(name, v);
    }
    if a.traced {
        let attributed = m.profile.attributed_pct();
        if attributed < trace::MIN_ATTRIBUTED_PCT {
            eprintln!(
                "warning: layer spans cover {attributed:.1}% of root time (< {}%)",
                trace::MIN_ATTRIBUTED_PCT
            );
        }
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("bench_out/{}.trace.json", w.name())));
        let tracks: Vec<(&str, &[Span])> =
            m.tracks.iter().map(|(n, s)| (*n, s.as_slice())).collect();
        trace::write_chrome(&path, &tracks)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
    }
    record.finish();
    if !correct {
        eprintln!("error: {} operation outputs differ from their reference", r.mismatches);
    }
    let metrics = values
        .iter()
        .map(|(metric, v)| {
            let entry = Json::Obj(vec![
                ("value".to_string(), Json::num(*v)),
                ("unit".to_string(), Json::str(metric.unit)),
            ]);
            (metric.name.to_string(), entry)
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::u64(m.attempted)),
        ("failed".to_string(), Json::u64(m.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// Every workload at tiny dims, traced and untraced, with the same
/// correctness checks.
fn smoke() -> Result<(), String> {
    for w in Workload::ALL {
        let t = Instant::now();
        let seconds = if w == Workload::ServeOpenLoop { 0.6 } else { 0.05 };
        let r = run(w, Size::Smoke, 7, seconds, true)?;
        metrics::per_layer(&r.measured, r.overhead_pct)?;
        if r.mismatches > 0 || r.measured.attempted == 0 || r.measured.failed > 0 {
            return Err(format!(
                "{}: {} mismatches, {} attempted, {} failed",
                w.name(),
                r.mismatches,
                r.measured.attempted,
                r.measured.failed
            ));
        }
        println!(
            "smoke {:<16} ok: {} operations in {:.2} s",
            w.name(),
            r.measured.attempted,
            t.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    // Before anything reads it: the kernels and `BenchRecord`'s config.
    std::env::set_var("RAPID_THREADS", KERNEL_THREADS);
    let mode = match parse_args(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Help => {
            println!("{USAGE}");
            Ok(true)
        }
        Mode::Smoke => smoke().map(|()| true),
        Mode::Compare(a, b) => compare::run(&a, &b),
        Mode::Run(a) => execute(&a),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_correctly() {
        smoke().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        match args("--workload chip_sim --seed 3 --seconds 10 --trace 1 --json out.json") {
            Ok(Mode::Run(a)) => {
                assert_eq!(
                    (a.workload, a.seed, a.seconds, a.traced),
                    (Workload::ChipSim, 3, 10.0, true)
                );
            }
            _ => panic!("valid arguments rejected"),
        }
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload chip_sim").is_err());
        assert!(args("--workload chip_sim --seed 1 --trace 2").is_err());
        assert!(args("--workload chip_sim --seed 1 --seconds 0").is_err());
        assert!(matches!(args("--compare a b"), Ok(Mode::Compare(..))));
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("{e}"));
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
        for (key, table) in
            [("end_to_end", &metrics::END_TO_END[..]), ("per_layer", &metrics::PER_LAYER[..])]
        {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (e, m) in entries.iter().zip(table) {
                assert_eq!(e.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
                assert_eq!(
                    e.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(e.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
