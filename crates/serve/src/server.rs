//! The real threaded serving runtime: scoped worker threads
//! (`std::thread::scope`) around the same [`ServeEngine`] the
//! virtual-time sweeps exercise.
//!
//! No async runtime — workers are plain threads sharing the engine
//! under a `std::sync::Mutex` + `Condvar`, with inference executed
//! *outside* the lock so GEMMs overlap. Because all scheduling policy
//! lives in the engine, the chaos guarantees proven in virtual time
//! (conservation, no late deliveries) carry over verbatim; the threads
//! only decide *when* the engine's methods run, never *what* they do.
//!
//! Shutdown is a clean drain: new submissions reject with
//! `RejectReason::Shutdown`, partial batch windows flush, and anything
//! still stuck after [`ServeConfig::drain_timeout_us`] is aborted as
//! `TimedOut(Drain)` — never silently lost.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rapid_model::LatencyTable;
use rapid_telemetry::slo::SloReport;
use rapid_telemetry::span::SpanRecord;
use rapid_telemetry::{MetricsRegistry, ServeCounters};

use crate::engine::{ServeConfig, ServeEngine};
use crate::request::{QosClass, Request, RequestId, Response, Tier};
use crate::session::InferenceSession;

/// Engine plus the one flag the threads coordinate on.
struct State {
    engine: ServeEngine,
    hard_stop: bool,
}

fn lock<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    // Engine mutations are transactional (finish() either runs fully or
    // not at all), so a poisoned lock is safe to recover.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Client-side handle valid for the duration of [`Server::run`]'s
/// callback: submit requests, read the clock, snapshot counters.
pub struct ServerHandle<'a> {
    state: &'a Mutex<State>,
    cv: &'a Condvar,
    epoch: Instant,
}

impl ServerHandle<'_> {
    /// Microseconds since the server started.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Submits a request with a relative deadline budget. The terminal
    /// outcome shows up in [`ServerReport::responses`] under the
    /// returned id.
    pub fn submit(
        &self,
        model: &str,
        tier: Tier,
        qos: QosClass,
        deadline_budget_us: u64,
    ) -> RequestId {
        let mut st = lock(self.state);
        let now = self.now_us();
        let id = st.engine.allocate_id();
        let req = Request {
            id,
            model: model.to_string(),
            tier,
            qos,
            submit_us: now,
            deadline_us: now.saturating_add(deadline_budget_us),
        };
        st.engine.submit(req, now);
        drop(st);
        self.cv.notify_all();
        id
    }
}

/// What a completed [`Server::run`] hands back.
#[derive(Debug)]
pub struct ServerReport<R> {
    /// The callback's return value.
    pub result: R,
    /// Final counters after full drain (conservation holds here).
    pub counters: ServeCounters,
    /// Every terminal response.
    pub responses: Vec<Response>,
    /// The engine's full metrics registry.
    pub registry: MetricsRegistry,
    /// Request spans (when [`ServeConfig::record_spans`]).
    pub spans: Vec<SpanRecord>,
    /// Burn-rate rule outcomes over the wall-clock-µs virtual clock.
    pub slo: SloReport,
}

/// The threaded serving runtime. Stateless — [`Server::run`] owns the
/// engine for exactly one serve-and-drain lifecycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Server;

impl Server {
    /// Runs a server over `session` with `cfg.workers` worker threads,
    /// calls `f` with a submission handle, then drains and joins.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `f` or of a worker thread once the remaining
    /// workers have stopped (engine invariants would be unverifiable).
    pub fn run<S, F, R>(cfg: ServeConfig, table: LatencyTable, session: &S, f: F) -> ServerReport<R>
    where
        S: InferenceSession,
        F: FnOnce(&ServerHandle<'_>) -> R,
    {
        let workers = cfg.workers.max(1);
        let wait = Duration::from_micros((cfg.batch_window_us / 2).max(200));
        let drain_timeout = Duration::from_micros(cfg.drain_timeout_us.max(1_000));
        let epoch = Instant::now();
        let state = Mutex::new(State {
            engine: ServeEngine::new(cfg, table),
            hard_stop: false,
        });
        let cv = Condvar::new();

        let result = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| worker_loop(&state, &cv, epoch, wait, session)))
                .collect();

            // Stops the workers when this closure ends, also by a panic in
            // `f`: the scope joins them before it re-raises that panic.
            let _stop = StopOnDrop { state: &state, cv: &cv };
            let handle = ServerHandle { state: &state, cv: &cv, epoch };
            let out = f(&handle);

            // Drain: reject new work, flush partial windows, wait.
            lock(&state).engine.drain();
            cv.notify_all();
            let deadline = Instant::now() + drain_timeout;
            let mut hard_stopped = false;
            loop {
                // With every worker gone nothing can finish in-flight work:
                // a worker that panicked leaves its batch in flight, and
                // the scope re-raises that panic once this loop ends.
                if handles.iter().all(|h| h.is_finished()) {
                    break;
                }
                {
                    let mut st = lock(&state);
                    if !hard_stopped && st.engine.idle() {
                        break;
                    }
                    if hard_stopped && st.engine.inflight() == 0 {
                        break;
                    }
                    if !hard_stopped && Instant::now() >= deadline {
                        // Drain window closed: abort queued/retrying work
                        // (workers still complete their in-flight batch).
                        let now = epoch.elapsed().as_micros() as u64;
                        st.engine.abort_remaining(now);
                        st.hard_stop = true;
                        hard_stopped = true;
                    }
                }
                cv.notify_all();
                std::thread::sleep(Duration::from_millis(1));
            }
            out
        });

        let mut st = lock(&state);
        let counters = st.engine.counters();
        let mut registry = MetricsRegistry::new();
        registry.merge(st.engine.registry());
        let responses = st.engine.take_responses();
        let slo = st.engine.slo_report();
        let spans = st.engine.take_spans().map(|s| s.spans().to_vec()).unwrap_or_default();
        ServerReport { result, counters, responses, registry, spans, slo }
    }
}

/// Sets `hard_stop` and wakes every worker when dropped.
struct StopOnDrop<'a> {
    state: &'a Mutex<State>,
    cv: &'a Condvar,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        lock(self.state).hard_stop = true;
        self.cv.notify_all();
    }
}

fn worker_loop(
    state: &Mutex<State>,
    cv: &Condvar,
    epoch: Instant,
    wait: Duration,
    session: &dyn InferenceSession,
) {
    loop {
        let mut st = lock(state);
        if st.hard_stop {
            break;
        }
        let now = epoch.elapsed().as_micros() as u64;
        st.engine.tick(now);
        match st.engine.next_batch(now) {
            Some(batch) => {
                drop(st); // execute outside the lock so workers overlap
                let result =
                    session.infer(&batch.model, batch.tier, batch.requests.len()).map(|_| ());
                let done = epoch.elapsed().as_micros() as u64;
                lock(state).engine.complete_batch(batch, result, done);
                cv.notify_all();
            }
            None => {
                if st.engine.draining() && st.engine.idle() {
                    drop(st);
                    cv.notify_all();
                    break;
                }
                let (g, _timeout) =
                    cv.wait_timeout(st, wait).unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(g);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::session::{EmulatedSession, OkSession, SessionError, SessionReport};
    use crate::sweep::synthetic_table;
    use std::sync::mpsc;

    #[test]
    fn threaded_server_serves_and_conserves() {
        let table = synthetic_table(&["m"], 100.0, 50.0);
        let cfg = ServeConfig {
            workers: 2,
            batch_window_us: 500,
            drain_timeout_us: 2_000_000,
            ..ServeConfig::hardened()
        };
        let report = Server::run(cfg, table, &OkSession, |h| {
            for _ in 0..50 {
                h.submit("m", Tier::Fp16, QosClass::Standard, 1_000_000);
            }
        });
        assert_eq!(report.counters.submitted, 50);
        assert_eq!(report.counters.lost(), 0);
        assert_eq!(report.counters.deadline_violations, 0);
        assert!(report.counters.completed > 0, "some requests completed");
        assert_eq!(report.responses.len(), 50);
    }

    #[test]
    fn threaded_server_emits_spans_and_scrape_snapshot() {
        use rapid_telemetry::span::validate_forest;
        let table = synthetic_table(&["m"], 100.0, 50.0);
        let cfg = ServeConfig {
            workers: 2,
            batch_window_us: 500,
            drain_timeout_us: 2_000_000,
            record_spans: true,
            ..ServeConfig::hardened()
        };
        let report = Server::run(cfg, table, &OkSession, |h| {
            for _ in 0..10 {
                h.submit("m", Tier::Fp16, QosClass::Standard, 1_000_000);
            }
        });
        assert!(!report.spans.is_empty());
        validate_forest(&report.spans).expect("well-nested");
        let labels = [("job", "rapid_serve")];
        let text = rapid_telemetry::openmetrics::render_labeled(&report.registry, &labels);
        let doc = rapid_telemetry::openmetrics::validate(&text).expect("valid snapshot");
        assert_eq!(doc.counter("serve_submitted"), Some(10.0));
    }

    #[test]
    fn threaded_server_over_emulated_kernels() {
        let table = synthetic_table(&["resnet50", "bert"], 150.0, 60.0);
        let cfg = ServeConfig {
            workers: 2,
            batch_window_us: 500,
            drain_timeout_us: 5_000_000,
            ..ServeConfig::hardened()
        };
        let session = EmulatedSession::clean();
        let report = Server::run(cfg, table, &session, |h| {
            for i in 0..20 {
                let model = if i % 2 == 0 { "resnet50" } else { "bert" };
                h.submit(model, Tier::Hfp8, QosClass::Standard, 2_000_000);
            }
        });
        assert_eq!(report.counters.lost(), 0);
        assert_eq!(report.counters.completed, 20, "clean session completes everything");
    }

    struct PanicSession;

    impl InferenceSession for PanicSession {
        fn name(&self) -> &'static str {
            "panic"
        }

        fn infer(&self, _: &str, _: Tier, _: usize) -> Result<SessionReport, SessionError> {
            panic!("session failure");
        }
    }

    #[test]
    fn panicking_worker_panics_run_instead_of_hanging_it() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let table = synthetic_table(&["m"], 100.0, 50.0);
                let cfg = ServeConfig {
                    workers: 2,
                    batch_window_us: 500,
                    drain_timeout_us: 50_000,
                    ..ServeConfig::hardened()
                };
                Server::run(cfg, table, &PanicSession, |h| {
                    h.submit("m", Tier::Fp16, QosClass::Standard, 1_000_000);
                })
            });
            let _ = tx.send(run.is_err());
        });
        // A regression hangs the helper thread; the bounded wait turns
        // that into a failure instead of a hung test run.
        let panicked = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(panicked, Ok(true), "Server::run must re-raise the worker panic");
    }

    #[test]
    fn panicking_callback_panics_run_instead_of_hanging_it() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let table = synthetic_table(&["m"], 100.0, 50.0);
                let cfg = ServeConfig { workers: 2, ..ServeConfig::hardened() };
                Server::run(cfg, table, &OkSession, |h| {
                    h.submit("m", Tier::Fp16, QosClass::Standard, 1_000_000);
                    panic!("callback failure");
                })
            });
            let _ = tx.send(run.is_err());
        });
        // A regression hangs the helper thread on workers that never
        // stop; the bounded wait turns that into a failure.
        let panicked = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(panicked, Ok(true), "Server::run must re-raise the callback's panic");
    }
}
