//! Open-loop serving of ResNet50 through the threaded `serve::Server`.
//!
//! A generator thread submits requests on a seeded Poisson schedule (a
//! fixed count of arrivals, uniformly placed) whether or not the server
//! keeps up, and each request is timed from when it was due. A nominal
//! phase offers about a quarter of what one worker serves at batch 1; an
//! overload phase offers about twice what it serves with full batches, so
//! the hardened config's admission control rejects, and its deadline
//! propagation times out, the excess. The session executes the real network
//! at the batch's tier, the batch stacked along N, and checks every
//! member's output against the tier's scalar reference.
//!
//! Unlike the other workloads' times, these are not scaled by the host-speed
//! probe (`clock::HostSpeed`): run on the worker thread before every batch,
//! or on the generator between arrivals, the probe did not track the
//! server's slowdowns, and scaling widened the spread over ten runs.

use crate::check::hash;
use crate::clock;
use crate::cnn::{self, CnnPlan, Prec};
use crate::ops::Kernels;
use crate::stats;
use crate::trace::{Profile, Recorder};
use crate::Measured;
use rapid_model::{LatencyEntry, LatencyTable};
use rapid_numerics::Tensor;
use rapid_serve::{
    InferenceSession, Outcome, QosClass, ServeConfig, Server, SessionError, SessionReport, Tier,
};
use rapid_workloads::cnn::resnet50;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const MODEL: &str = "resnet50";
/// The served ResNet50 is this many times narrower than the published one.
/// At full width one HFP8 request at 32×32 takes about 0.6 s on one thread,
/// too slow for an open loop to build a queue within a run; at a quarter of
/// the width the nominal phase held about 40 requests, too few for a steady
/// median. At an eighth a request takes about 12 ms.
const WIDTH_DIV: u64 = 8;
/// Offered load of the nominal phase, requests/s: about 0.25× what one
/// worker serves at batch 1 (about 88/s on a 2-core x86-64 host). At 0.5×
/// queueing doubled the host's run-to-run drift in the median latency.
pub const NOMINAL_QPS: f64 = 22.0;
/// Offered load of the overload phase, requests/s: about 2× what one
/// worker serves with full batches of 8 (about 165/s on that host).
pub const OVERLOAD_QPS: f64 = 330.0;
/// Deadline budget of every request.
pub const DEADLINE_US: u64 = 1_000_000;
/// Share of requests in the `Critical` class (never downgraded or shed).
const CRITICAL_SHARE: f32 = 0.1;
/// Nominal share of the run: 20 s nominal to 8 s overload.
const NOMINAL_SHARE: f64 = 20.0 / 28.0;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update below completes before the guard drops.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn prec(tier: Tier) -> Prec {
    match tier {
        Tier::Fp16 => Prec::Fp16,
        Tier::Hfp8 => Prec::Hfp8,
        Tier::Int4 => Prec::Int4,
    }
}

/// The served network, its request image and the latency table the
/// engine's admission control uses.
#[derive(Debug, Clone)]
pub struct Serve {
    plan: CnnPlan,
    image: Tensor,
    table: LatencyTable,
    seed: u64,
}

impl Serve {
    /// ResNet50 at `hw × hw` and 1/[`WIDTH_DIV`] width. The latency table
    /// comes from host times measured at batch 1 and 4 for each tier the
    /// run can execute.
    pub fn new(hw: usize, seed: u64) -> Result<Self, String> {
        let plan = CnnPlan::build(&resnet50(), hw, WIDTH_DIV, seed)?;
        let image = cnn::image(&plan, seed ^ 0x1a);
        let mut rec = Recorder::off();
        let mut entries = Vec::new();
        for tier in [Tier::Hfp8, Tier::Int4] {
            plan.infer(Kernels::Fast, prec(tier), &mut rec, image.clone());
            // Median of three timings: admission control trusts these numbers.
            let mut time_us = |n: usize| {
                let mut t = [0.0; 3];
                for v in &mut t {
                    let start = Instant::now();
                    plan.infer(Kernels::Fast, prec(tier), &mut rec, cnn::stack(&image, n));
                    *v = start.elapsed().as_secs_f64() * 1e6;
                }
                t.sort_by(f64::total_cmp);
                t[1]
            };
            let (t1, t4) = (time_us(1), time_us(4));
            let per_item_us = ((t4 - t1) / 3.0).max(0.0);
            let base_us = (t1 - per_item_us).max(0.0);
            entries.push((
                (MODEL.to_string(), tier.precision()),
                LatencyEntry { base_us, per_item_us },
            ));
        }
        Ok(Self { plan, image, table: LatencyTable::from_entries(entries), seed })
    }

    /// Reference hash of one request's output at each tier, from the
    /// scalar kernels.
    pub fn reference(&self) -> Vec<(Tier, u64)> {
        [Tier::Hfp8, Tier::Int4]
            .into_iter()
            .map(|t| {
                let out = self.plan.infer(
                    Kernels::Scalar,
                    prec(t),
                    &mut Recorder::off(),
                    self.image.clone(),
                );
                (t, hash(&[out]))
            })
            .collect()
    }

    /// Serves both phases within `budget_s` seconds.
    pub fn run(
        &self,
        refs: &[(Tier, u64)],
        budget_s: f64,
        trace: bool,
    ) -> Result<Measured, String> {
        let nominal_s = budget_s * NOMINAL_SHARE;
        let overload_s = budget_s - nominal_s;
        let arrivals = schedule(self.seed, nominal_s, overload_s);
        let epoch = Instant::now();
        let session = Session {
            serve: self,
            refs,
            overload_from: epoch + Duration::from_secs_f64(nominal_s),
            rec: Mutex::new(Recorder::new(trace, epoch)),
            tally: Mutex::new(Tally::default()),
        };
        let cfg = ServeConfig { workers: 1, record_spans: trace, ..ServeConfig::hardened() };
        let report = Server::run(cfg, self.table.clone(), &session, |h| {
            let mut gen = Recorder::new(trace, epoch);
            let mut sent = Vec::with_capacity(arrivals.len());
            for a in &arrivals {
                let mut now = h.now_us();
                while now < a.due_us {
                    std::thread::sleep(Duration::from_micros(a.due_us - now));
                    now = h.now_us();
                }
                let qos = if a.critical { QosClass::Critical } else { QosClass::Standard };
                let id =
                    gen.span("serve.submit", |_| h.submit(MODEL, Tier::Hfp8, qos, DEADLINE_US));
                sent.push((id, now));
            }
            (sent, gen)
        });
        let (sent, gen) = report.result;
        let Session { rec, tally, .. } = session;
        let tally = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
        let worker = rec.into_inner().unwrap_or_else(PoisonError::into_inner).into_spans();
        let gen = gen.into_spans();

        let outcomes: BTreeMap<u64, &Outcome> =
            report.responses.iter().map(|r| (r.id, &r.outcome)).collect();
        let mut latencies_ms = Vec::new();
        let (mut failed, mut goodput) = (0u64, 0u64);
        let mut lags = Vec::with_capacity(arrivals.len());
        for (a, &(id, at)) in arrivals.iter().zip(&sent) {
            lags.push((at - a.due_us) as f64);
            let latency_us = match outcomes.get(&id) {
                Some(Outcome::Completed { latency_us, .. }) => Some(*latency_us),
                _ => None,
            };
            if !a.nominal {
                goodput += u64::from(latency_us.is_some());
                continue;
            }
            match latency_us {
                Some(l) => latencies_ms.push((at - a.due_us + l) as f64 / 1e3),
                // A failed or refused request misses every latency limit.
                None => {
                    failed += 1;
                    latencies_ms.push(f64::INFINITY);
                }
            }
        }

        let c = report.counters;
        for tier in [Tier::Hfp8, Tier::Int4] {
            if let Some(e) = self.table.entry(MODEL, tier.precision()) {
                let (base, item) = (e.base_us / 1e3, e.per_item_us / 1e3);
                println!(
                    "serve: {} service time {base:.1} ms + {item:.1} ms per request",
                    tier.label()
                );
            }
        }
        println!(
            "serve: {} submitted, {} completed ({} downgraded), {} rejected, {} shed, {} timed out, {} batches",
            c.submitted, c.completed, c.downgraded, c.rejected, c.shed, c.timed_out, c.batches
        );
        let pct = |part: u64, whole: u64| {
            if whole > 0 {
                part as f64 / whole as f64 * 100.0
            } else {
                0.0
            }
        };
        let mut extras = vec![
            (
                "serve.batch_mean",
                if tally.batches > 0 { tally.members as f64 / tally.batches as f64 } else { 0.0 },
            ),
            ("serve.downgraded_pct", pct(c.downgraded, c.completed)),
            ("serve.shed_pct", pct(c.shed, c.submitted)),
            ("serve.rejected", c.rejected as f64),
            ("serve.timed_out", c.timed_out as f64),
            ("serve.batches", c.batches as f64),
            ("serve.goodput_per_s", goodput as f64 / overload_s),
        ];
        if trace {
            let stage = |name: &str| -> u64 {
                report.spans.iter().filter(|s| s.name == name).map(|s| s.dur()).sum()
            };
            let requests = stage("request");
            extras.push(("serve.exec.share", pct(stage("exec"), requests)));
            extras.push(("serve.queue.share", pct(stage("queue"), requests)));
            let submit_ns: u64 = gen.iter().map(|s| s.end_ns - s.start_ns).sum();
            extras.push(("serve.submit.share", submit_ns as f64 / (budget_s * 1e9) * 100.0));
            let mean_gap_us = budget_s * 1e6 / arrivals.len().max(1) as f64;
            if let Ok(p90) = stats::percentile(&lags, 90.0) {
                extras.push(("bench.gen.lag_p90_pct", p90 / mean_gap_us * 100.0));
            }
            let max = lags.iter().copied().fold(0.0, f64::max);
            extras.push(("bench.gen.lag_max_pct", max / mean_gap_us * 100.0));
        }
        let mut profile = Profile::default();
        profile.add(&worker);
        Ok(Measured {
            latencies_ms,
            baseline_ms: Vec::new(),
            work: tally.saturated_members as f64,
            busy_s: tally.saturated_cpu_ns as f64 / 1e9,
            wall_s: tally.wall_ns as f64 / 1e9,
            attempted: arrivals.iter().filter(|a| a.nominal).count() as u64,
            failed,
            mismatches: tally.mismatches,
            extras,
            profile,
            tracks: vec![("serve-worker", worker), ("generator", gen)],
        })
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due_us: u64,
    critical: bool,
    nominal: bool,
}

/// Arrival times of both phases: within each phase a Poisson process
/// conditioned on its count (rate × length arrivals, uniformly placed), so
/// the offered load is exact and only the spacing varies with the seed.
fn schedule(seed: u64, nominal_s: f64, overload_s: f64) -> Vec<Arrival> {
    let phase = |rate: f64, start_s: f64, len_s: f64, nominal: bool, s: u64| {
        let n = (rate * len_s).round() as usize;
        let at = Tensor::random_uniform(vec![n], 0.0, 1.0, s);
        let class = Tensor::random_uniform(vec![n], 0.0, 1.0, s ^ 0x5eed);
        let mut due: Vec<u64> = at
            .as_slice()
            .iter()
            .map(|&u| ((start_s + f64::from(u) * len_s) * 1e6) as u64)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .zip(class.as_slice())
            .map(|(due_us, &c)| Arrival { due_us, critical: c < CRITICAL_SHARE, nominal })
            .collect::<Vec<_>>()
    };
    let mut all = phase(NOMINAL_QPS, 0.0, nominal_s, true, seed);
    all.extend(phase(OVERLOAD_QPS, nominal_s, overload_s, false, seed.wrapping_add(1)));
    all
}

#[derive(Debug, Default)]
struct Tally {
    batches: u64,
    members: u64,
    /// Worker wall time spent executing batches.
    wall_ns: u128,
    /// Requests executed in batches started during the overload phase,
    /// and the worker CPU time those batches took.
    saturated_members: u64,
    saturated_cpu_ns: u64,
    mismatches: u64,
}

/// Runs the network at the batch's tier and checks every member.
struct Session<'a> {
    serve: &'a Serve,
    refs: &'a [(Tier, u64)],
    /// Start of the overload phase.
    overload_from: Instant,
    rec: Mutex<Recorder>,
    tally: Mutex<Tally>,
}

impl InferenceSession for Session<'_> {
    fn name(&self) -> &'static str {
        "benchmark"
    }

    fn infer(&self, _model: &str, tier: Tier, batch: usize) -> Result<SessionReport, SessionError> {
        let plan = &self.serve.plan;
        let (start, cpu0) = (Instant::now(), clock::thread_ns());
        let out = lock(&self.rec).span("serve.exec", |r| {
            plan.infer(Kernels::Fast, prec(tier), r, cnn::stack(&self.serve.image, batch))
        });
        let (cpu_ns, wall_ns) = (clock::thread_ns() - cpu0, start.elapsed().as_nanos());
        let want = self.refs.iter().find(|(t, _)| *t == tier).map(|(_, h)| *h);
        let classes = out.shape()[1];
        let bad = out
            .as_slice()
            .chunks(classes)
            .filter(|row| want != Some(hash(&[Tensor::from_vec(vec![1, classes], row.to_vec())])))
            .count();
        let mut t = lock(&self.tally);
        t.batches += 1;
        t.members += batch as u64;
        t.wall_ns += wall_ns;
        if start >= self.overload_from {
            t.saturated_members += batch as u64;
            t.saturated_cpu_ns += cpu_ns;
        }
        t.mismatches += bad as u64;
        Ok(SessionReport { macs: plan.macs * batch as u64, guard_clamps: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_exact_in_count() {
        let a = schedule(7, 2.0, 1.0);
        assert_eq!(a.len(), (NOMINAL_QPS * 2.0 + OVERLOAD_QPS) as usize);
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(a.iter().filter(|x| x.nominal).all(|x| x.due_us < 2_000_000));
        let b = schedule(7, 2.0, 1.0);
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_us == y.due_us && x.critical == y.critical));
        assert!(schedule(8, 2.0, 1.0).iter().zip(&a).any(|(x, y)| x.due_us != y.due_us));
    }
}
