//! The deterministic serving engine: bounded queue → admission control →
//! continuous batcher → execution accounting, over an explicit
//! microsecond clock.
//!
//! The engine owns **no threads and no clock**. Every method takes
//! `now_us`; the virtual-time sweep driver advances it event-by-event
//! (bit-reproducible chaos tests), while the threaded [`Server`] feeds it
//! wall-clock micros under a mutex. Both therefore run the *same* state
//! machines — the chaos results transfer.
//!
//! Robustness invariants, enforced by construction:
//!
//! - **Conservation**: every submitted request flows through the single
//!   `ServeEngine::finish` path exactly once —
//!   `completed + rejected + shed + timed_out == submitted` after drain.
//! - **No late deliveries**: a completion past its deadline is converted
//!   to `TimedOut(Exec)` before it reaches the client, unconditionally.
//!   `serve.deadline_violations` counts any escape and must stay 0.
//! - **Deadline propagation**: with [`ServeConfig::deadline_propagation`]
//!   on, expired requests are dropped at every stage boundary (queue
//!   scan, batch formation, retry dispatch) instead of being executed.
//!
//! [`Server`]: crate::server::Server

use std::collections::{BTreeMap, VecDeque};

use rapid_model::LatencyTable;
use rapid_telemetry::serve as names;
use rapid_telemetry::slo::{SloConfig, SloMonitor, SloReport};
use rapid_telemetry::span::{derive_trace_id, SpanContext, SpanSink};
use rapid_telemetry::{MetricsRegistry, ServeCounters};

use crate::breaker::{Admit, BreakerConfig, CircuitBreaker};
use crate::request::{
    Batch, Outcome, QosClass, RejectReason, Request, RequestId, Response, Tier, TimeoutStage,
};
use crate::session::SessionError;
use crate::shed::{ShedConfig, ShedController};

/// Safety factor on the admission latency estimate (≥ 1.0 rejects
/// earlier).
const ADMISSION_SLACK: f64 = 1.2;

/// Serving-runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded request-queue capacity (total across models and tiers).
    pub queue_cap: usize,
    /// Maximum requests per formed batch.
    pub batch_max: usize,
    /// Microseconds a partial batch waits for more members.
    pub batch_window_us: u64,
    /// Whether the admission controller rejects infeasible deadlines.
    pub admission: bool,
    /// Whether expired requests are dropped at stage boundaries.
    pub deadline_propagation: bool,
    /// Overload shedding controller; `None` disables downgrades and
    /// shedding entirely.
    pub shed: Option<ShedConfig>,
    /// Per-model circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Maximum retry attempts per batch after a failed execution.
    pub retry_max: u32,
    /// Base retry backoff, microseconds (doubles per attempt).
    pub retry_backoff_us: u64,
    /// Parallel executors the admission estimate divides backlog across.
    pub workers: usize,
    /// Microseconds the shutdown drain waits before aborting leftovers.
    pub drain_timeout_us: u64,
    /// Record batch compositions for determinism tests.
    pub record_batches: bool,
    /// Record request-scoped spans (admission → queue → exec → retry
    /// stages with a root per request). Off by default; purely
    /// observational — results are bit-identical either way.
    pub record_spans: bool,
    /// Seed mixed into span trace ids (so concurrent cells in a sweep
    /// get disjoint trace-id streams).
    pub span_seed: u64,
    /// Burn-rate SLO rules evaluated on the engine's virtual clock;
    /// `None` disables monitoring. Observers only — never changes
    /// scheduling decisions.
    pub slo: Option<SloPolicy>,
}

/// The engine's SLO rule pair: deadline violations and shed rate, each a
/// multi-window burn-rate rule (see [`rapid_telemetry::slo`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Deadline-violation rule: bad = timed out or failed execution,
    /// over requests that reached a terminal post-admission state.
    pub deadline: SloConfig,
    /// Shed-rate rule: bad = shed or load-rejected (queue full, breaker,
    /// infeasible deadline), over all non-shutdown traffic.
    pub shed: SloConfig,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self { deadline: SloConfig::deadline_default(), shed: SloConfig::shed_default() }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 256,
            batch_max: 8,
            batch_window_us: 2_000,
            admission: true,
            deadline_propagation: true,
            shed: Some(ShedConfig::default()),
            breaker: Some(BreakerConfig::default()),
            retry_max: 2,
            retry_backoff_us: 500,
            workers: 4,
            drain_timeout_us: 200_000,
            record_batches: false,
            record_spans: false,
            span_seed: 0,
            slo: Some(SloPolicy::default()),
        }
    }
}

impl ServeConfig {
    /// The full overload-hardened stack (all defenses on).
    pub fn hardened() -> Self {
        Self::default()
    }

    /// Admission control and deadline propagation, but no precision
    /// shedding — the middle rung of the E21 overload experiment.
    pub fn admission_only() -> Self {
        Self { shed: None, ..Self::default() }
    }

    /// No admission, no deadline propagation, no shedding, no breaker:
    /// workers happily execute stale work. The collapse baseline. (Late
    /// completions are still never *delivered* — they convert to
    /// timeouts — so even this config cannot violate a deadline.)
    pub fn naive() -> Self {
        Self {
            admission: false,
            deadline_propagation: false,
            shed: None,
            breaker: None,
            ..Self::default()
        }
    }
}

/// A queued request plus its cached admission-time work estimate.
#[derive(Debug, Clone)]
struct Queued {
    req: Request,
    est_us: f64,
    enqueued_us: u64,
}

/// A failed batch waiting out its retry backoff.
#[derive(Debug, Clone)]
struct RetryEntry {
    batch: Batch,
    eligible_us: u64,
}

/// Per-request span bookkeeping: the open root context plus the stage
/// currently running. Stages are contiguous by construction (each
/// transition closes the previous stage at the instant the next one
/// starts), so per-request attribution sums to the root duration
/// exactly.
#[derive(Debug, Clone)]
struct SpanState {
    ctx: SpanContext,
    stage: &'static str,
    stage_start: u64,
    root_start: u64,
    class: String,
}

/// One formed batch, as recorded for the determinism proptests.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLogEntry {
    /// Batch identifier.
    pub batch_id: u64,
    /// Model the batch ran.
    pub model: String,
    /// Effective execution tier.
    pub tier: Tier,
    /// Member request ids, in dequeue order.
    pub request_ids: Vec<RequestId>,
    /// Clock at formation.
    pub formed_us: u64,
}

/// The clock-explicit serving state machine. See the module docs.
#[derive(Debug)]
pub struct ServeEngine {
    cfg: ServeConfig,
    table: LatencyTable,
    queues: BTreeMap<(String, Tier), VecDeque<Queued>>,
    queued_total: usize,
    queued_work_us: f64,
    shed: Option<ShedController>,
    breakers: BTreeMap<String, CircuitBreaker>,
    retries: VecDeque<RetryEntry>,
    responses: Vec<Response>,
    reg: MetricsRegistry,
    draining: bool,
    next_request_id: RequestId,
    next_batch_id: u64,
    inflight: usize,
    batch_log: Vec<BatchLogEntry>,
    /// Last (model, tier) queue a batch was formed from; the next scan
    /// resumes after it so no model starves behind a lexicographically
    /// earlier one (deterministic round-robin).
    rr_cursor: Option<(String, Tier)>,
    spans: Option<SpanSink>,
    span_states: BTreeMap<RequestId, SpanState>,
    slo_deadline: Option<SloMonitor>,
    slo_shed: Option<SloMonitor>,
    /// Fraction of nominal chip capacity currently in service (1.0 =
    /// full strength). Lowered by the health layer when cores are
    /// quarantined; scales the admission backlog estimate and the shed
    /// controller's occupancy signal.
    capacity_derate: f64,
}

impl ServeEngine {
    /// A fresh engine over a calibrated (or synthetic) latency table.
    pub fn new(cfg: ServeConfig, table: LatencyTable) -> Self {
        let shed = cfg.shed.map(ShedController::new);
        let spans = cfg.record_spans.then(SpanSink::new);
        let slo_deadline = cfg.slo.map(|p| SloMonitor::new("deadline", p.deadline));
        let slo_shed = cfg.slo.map(|p| SloMonitor::new("shed", p.shed));
        Self {
            cfg,
            table,
            queues: BTreeMap::new(),
            queued_total: 0,
            queued_work_us: 0.0,
            shed,
            breakers: BTreeMap::new(),
            retries: VecDeque::new(),
            responses: Vec::new(),
            reg: MetricsRegistry::new(),
            draining: false,
            next_request_id: 0,
            next_batch_id: 0,
            inflight: 0,
            batch_log: Vec::new(),
            rr_cursor: None,
            spans,
            span_states: BTreeMap::new(),
            slo_deadline,
            slo_shed,
            capacity_derate: 1.0,
        }
    }

    /// Derates effective capacity to `factor` of nominal (clamped to
    /// `(0, 1]`). Call when the health layer quarantines or reinstates
    /// cores: with `factor < 1` the admission ETA divides backlog across
    /// proportionally fewer workers (rejecting deadlines the weakened
    /// chip cannot meet) and the shed controller sees proportionally
    /// higher occupancy (its watermarks shift down), so load sheds
    /// *before* the derated chip saturates rather than after.
    pub fn set_capacity_derate(&mut self, factor: f64) {
        self.capacity_derate = if factor > 0.0 { factor.min(1.0) } else { f64::MIN_POSITIVE };
        self.reg.set_gauge("serve.capacity_derate", self.capacity_derate);
    }

    /// Opens the root span for a freshly submitted request (span
    /// recording only).
    fn span_open(&mut self, req: &Request, now_us: u64) {
        let Some(sink) = &mut self.spans else { return };
        let ctx = sink.open_root(derive_trace_id(self.cfg.span_seed, req.id));
        self.span_states.insert(
            req.id,
            SpanState {
                ctx,
                stage: "admission",
                stage_start: now_us,
                root_start: now_us,
                class: format!("{}/{}", req.model, req.tier.label()),
            },
        );
    }

    /// Closes the request's current stage span at `now_us` and opens
    /// `stage` in its place.
    fn span_stage(&mut self, id: RequestId, stage: &'static str, now_us: u64) {
        if self.spans.is_none() {
            return;
        }
        if let Some(state) = self.span_states.get_mut(&id) {
            let (ctx, prev, start) = (state.ctx, state.stage, state.stage_start);
            state.stage = stage;
            state.stage_start = now_us;
            if let Some(sink) = &mut self.spans {
                sink.child(ctx, prev, start, now_us);
            }
        }
    }

    /// Allocates the next request id (clients building [`Request`]s).
    pub fn allocate_id(&mut self) -> RequestId {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Amortized per-request work estimate: marginal cost plus the fixed
    /// batch cost spread over a full batch. Uncalibrated models get a
    /// conservative constant so they are still servable.
    fn work_estimate(&self, model: &str, tier: Tier) -> f64 {
        match self.table.entry(model, tier.precision()) {
            Some(e) => e.per_item_us + e.base_us / self.cfg.batch_max.max(1) as f64,
            None => 1_000.0,
        }
    }

    /// Submits a request. Returns `true` when enqueued; `false` means a
    /// terminal rejection was already recorded.
    pub fn submit(&mut self, req: Request, now_us: u64) -> bool {
        self.reg.incr(names::SUBMITTED);
        self.span_open(&req, now_us);
        if self.draining {
            self.finish(req, Outcome::Rejected(RejectReason::Shutdown), now_us);
            return false;
        }
        if self.cfg.breaker.is_some() {
            if let Some(b) = self.breakers.get_mut(&req.model) {
                if b.rejects_submissions(now_us) {
                    self.finish(req, Outcome::Rejected(RejectReason::BreakerOpen), now_us);
                    return false;
                }
            }
        }
        if self.queued_total >= self.cfg.queue_cap {
            self.finish(req, Outcome::Rejected(RejectReason::QueueFull), now_us);
            return false;
        }
        let est = self.work_estimate(&req.model, req.tier);
        if self.cfg.admission {
            let own = self
                .table
                .estimate_us(&req.model, req.tier.precision(), 1)
                .unwrap_or(1_000.0);
            let backlog =
                self.queued_work_us / (self.cfg.workers.max(1) as f64 * self.capacity_derate);
            let eta = now_us as f64
                + ADMISSION_SLACK * (backlog + self.cfg.batch_window_us as f64 + own);
            if eta > req.deadline_us as f64 {
                self.finish(req, Outcome::Rejected(RejectReason::DeadlineInfeasible), now_us);
                return false;
            }
        }
        self.queued_total += 1;
        self.queued_work_us += est;
        self.span_stage(req.id, "queue", now_us);
        self.queues
            .entry((req.model.clone(), req.tier))
            .or_default()
            .push_back(Queued { req, est_us: est, enqueued_us: now_us });
        true
    }

    /// Periodic housekeeping: one shed-controller observation and (with
    /// deadline propagation) a sweep dropping expired queued requests.
    /// Call once per scheduling round.
    pub fn tick(&mut self, now_us: u64) {
        let occupancy =
            self.queued_total as f64 / (self.cfg.queue_cap.max(1) as f64 * self.capacity_derate);
        if let Some(s) = &mut self.shed {
            let level = s.observe(occupancy);
            self.reg.set_gauge("serve.shed_level", f64::from(level));
        }
        if self.cfg.deadline_propagation {
            let mut expired = Vec::new();
            for q in self.queues.values_mut() {
                let mut i = 0;
                while i < q.len() {
                    let past = q.get(i).map(|e| e.req.deadline_us < now_us).unwrap_or(false);
                    if past {
                        if let Some(item) = q.remove(i) {
                            expired.push(item);
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            for item in expired {
                self.remove_queued_accounting(&item);
                self.finish(item.req, Outcome::TimedOut(TimeoutStage::Queue), now_us);
            }
        }
    }

    fn remove_queued_accounting(&mut self, item: &Queued) {
        self.queued_total = self.queued_total.saturating_sub(1);
        self.queued_work_us = (self.queued_work_us - item.est_us).max(0.0);
    }

    /// The tier a request executes at under the current shed level.
    fn effective_tier(req: &Request, shed_level: u8) -> Tier {
        match req.qos {
            QosClass::Critical => req.tier,
            QosClass::Standard => req.tier.downgraded_by(shed_level.min(2)),
        }
    }

    /// Pulls the next executable batch, if any is ready: eligible retries
    /// first, then fresh batches round-robin across the (model, tier)
    /// queues — the scan resumes after the last-served queue so a model
    /// early in key order cannot starve the others. The caller executes
    /// the batch and must hand it back via [`Self::complete_batch`].
    pub fn next_batch(&mut self, now_us: u64) -> Option<Batch> {
        if let Some(batch) = self.next_retry(now_us) {
            self.inflight += 1;
            return Some(batch);
        }
        let shed_level = self.shed.as_ref().map(ShedController::level).unwrap_or(0);
        let keys: Vec<(String, Tier)> = self.queues.keys().cloned().collect();
        let start = self
            .rr_cursor
            .as_ref()
            .and_then(|c| keys.iter().position(|k| k > c))
            .unwrap_or(0);
        let keys: Vec<(String, Tier)> =
            keys[start..].iter().chain(keys[..start].iter()).cloned().collect();
        for key in keys {
            let ready = match self.queues.get(&key) {
                Some(q) if !q.is_empty() => {
                    let oldest = q.front().map(|e| e.enqueued_us).unwrap_or(now_us);
                    q.len() >= self.cfg.batch_max
                        || now_us.saturating_sub(oldest) >= self.cfg.batch_window_us
                        || self.draining
                }
                _ => false,
            };
            if !ready {
                continue;
            }
            let probe = match self.admit_dispatch(&key.0, now_us) {
                Admit::Reject => continue,
                Admit::Probe => true,
                Admit::Allow => false,
            };
            if probe {
                self.reg.incr(names::BREAKER_PROBES);
            }
            if let Some(batch) = self.form_batch(&key, shed_level, probe, now_us) {
                self.inflight += 1;
                self.rr_cursor = Some(key);
                return Some(batch);
            }
        }
        None
    }

    fn admit_dispatch(&mut self, model: &str, now_us: u64) -> Admit {
        match &self.cfg.breaker {
            None => Admit::Allow,
            Some(cfg) => self
                .breakers
                .entry(model.to_string())
                .or_insert_with(|| CircuitBreaker::new(*cfg))
                .admit(now_us),
        }
    }

    fn next_retry(&mut self, now_us: u64) -> Option<Batch> {
        // The deque is kept sorted by eligibility, so the front decides.
        while self.retries.front().map(|r| r.eligible_us <= now_us).unwrap_or(false) {
            let entry = self.retries.pop_front()?;
            let mut batch = entry.batch;
            if self.cfg.deadline_propagation {
                let (live, dead): (Vec<Request>, Vec<Request>) =
                    batch.requests.into_iter().partition(|r| r.deadline_us >= now_us);
                batch.requests = live;
                for req in dead {
                    self.finish(req, Outcome::TimedOut(TimeoutStage::Retry), now_us);
                }
            }
            if !batch.requests.is_empty() {
                for id in batch.requests.iter().map(|r| r.id).collect::<Vec<_>>() {
                    self.span_stage(id, "exec", now_us);
                }
                return Some(batch);
            }
        }
        None
    }

    fn form_batch(
        &mut self,
        key: &(String, Tier),
        shed_level: u8,
        probe: bool,
        now_us: u64,
    ) -> Option<Batch> {
        let limit = if probe { 1 } else { self.cfg.batch_max };
        let mut member_items: Vec<Queued> = Vec::new();
        let mut dropped: Vec<(Queued, Outcome)> = Vec::new();
        let mut batch_tier: Option<Tier> = None;
        {
            let q = self.queues.get_mut(key)?;
            while member_items.len() < limit {
                let Some(front) = q.front() else { break };
                let expired =
                    self.cfg.deadline_propagation && front.req.deadline_us < now_us;
                let shed_now = shed_level >= 3
                    && front.req.qos == QosClass::Standard
                    && !expired;
                let eff = Self::effective_tier(&front.req, shed_level);
                if !expired && !shed_now {
                    if let Some(bt) = batch_tier {
                        if eff != bt {
                            break; // tier boundary: next batch picks it up
                        }
                    }
                }
                let Some(item) = q.pop_front() else { break };
                if expired {
                    dropped.push((item, Outcome::TimedOut(TimeoutStage::Queue)));
                } else if shed_now {
                    dropped.push((item, Outcome::Shed));
                } else {
                    batch_tier = Some(eff);
                    member_items.push(item);
                }
            }
        }
        for (item, outcome) in dropped {
            self.remove_queued_accounting(&item);
            self.finish(item.req, outcome, now_us);
        }
        let tier = batch_tier?;
        if member_items.is_empty() {
            return None;
        }
        let mut members: Vec<Request> = Vec::with_capacity(member_items.len());
        for item in member_items {
            self.remove_queued_accounting(&item);
            self.span_stage(item.req.id, "exec", now_us);
            members.push(item.req);
        }
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        self.reg.incr(names::BATCHES);
        if self.cfg.record_batches {
            self.batch_log.push(BatchLogEntry {
                batch_id: id,
                model: key.0.clone(),
                tier,
                request_ids: members.iter().map(|r| r.id).collect(),
                formed_us: now_us,
            });
        }
        Some(Batch { id, model: key.0.clone(), tier, requests: members, attempts: 0, probe })
    }

    /// Hands back an executed batch with its result. Successful members
    /// complete (late ones convert to `TimedOut(Exec)` — never
    /// delivered); failures retry with exponential backoff until
    /// `retry_max`, then reject as `ExecFailed`.
    pub fn complete_batch(
        &mut self,
        mut batch: Batch,
        result: Result<(), SessionError>,
        now_us: u64,
    ) {
        self.inflight = self.inflight.saturating_sub(1);
        match result {
            Ok(()) => {
                if self.cfg.breaker.is_some() {
                    if let Some(b) = self.breakers.get_mut(&batch.model) {
                        if b.on_success() {
                            self.reg.incr(names::BREAKER_CLOSES);
                        }
                    }
                }
                for req in batch.requests {
                    if now_us > req.deadline_us {
                        self.finish(req, Outcome::TimedOut(TimeoutStage::Exec), now_us);
                    } else {
                        let downgraded = batch.tier > req.tier;
                        let latency_us = now_us.saturating_sub(req.submit_us);
                        self.finish(
                            req,
                            Outcome::Completed { tier: batch.tier, latency_us, downgraded },
                            now_us,
                        );
                    }
                }
            }
            Err(_) => {
                if self.cfg.breaker.is_some() {
                    if let Some(b) = self.breakers.get_mut(&batch.model) {
                        if b.on_failure(now_us) {
                            self.reg.incr(names::BREAKER_OPENS);
                        }
                    }
                }
                batch.attempts += 1;
                if batch.attempts <= self.cfg.retry_max {
                    self.reg.incr(names::RETRIES);
                    for id in batch.requests.iter().map(|r| r.id).collect::<Vec<_>>() {
                        self.span_stage(id, "retry_wait", now_us);
                    }
                    let shift = (batch.attempts - 1).min(16);
                    let backoff = self.cfg.retry_backoff_us.saturating_mul(1 << shift);
                    let eligible_us = now_us.saturating_add(backoff);
                    let pos = self
                        .retries
                        .iter()
                        .position(|r| r.eligible_us > eligible_us)
                        .unwrap_or(self.retries.len());
                    self.retries.insert(pos, RetryEntry { batch, eligible_us });
                } else {
                    for req in batch.requests {
                        self.finish(req, Outcome::Rejected(RejectReason::ExecFailed), now_us);
                    }
                }
            }
        }
    }

    /// Begins shutdown: new submissions reject, partial batch windows
    /// flush immediately.
    pub(crate) fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether shutdown drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Whether the engine holds no work (queues, retries, in-flight).
    pub(crate) fn idle(&self) -> bool {
        self.queued_total == 0 && self.retries.is_empty() && self.inflight == 0
    }

    /// Time-outs everything still queued or awaiting retry — the drain
    /// window closed at `now_us`. In-flight batches must be completed by
    /// the caller first.
    pub(crate) fn abort_remaining(&mut self, now_us: u64) {
        let mut leftovers: Vec<Queued> = Vec::new();
        for (_, mut q) in std::mem::take(&mut self.queues) {
            leftovers.extend(q.drain(..));
        }
        for item in leftovers {
            self.remove_queued_accounting(&item);
            self.finish(item.req, Outcome::TimedOut(TimeoutStage::Drain), now_us);
        }
        for entry in std::mem::take(&mut self.retries) {
            for req in entry.batch.requests {
                self.finish(req, Outcome::TimedOut(TimeoutStage::Drain), now_us);
            }
        }
    }

    /// Feeds the two SLO monitors with the request's terminal outcome.
    /// An alert transition is mirrored into the registry as
    /// `serve.slo.<rule>.alerts` so sweeps and scrapes see it.
    fn slo_observe(&mut self, outcome: &Outcome, now_us: u64) {
        // deadline rule: over post-admission terminal states; shed rule:
        // over all non-shutdown traffic. `None` = outcome not in scope.
        let (deadline_bad, shed_bad): (Option<bool>, Option<bool>) = match outcome {
            Outcome::Completed { .. } => (Some(false), Some(false)),
            Outcome::TimedOut(_) => (Some(true), Some(false)),
            Outcome::Rejected(RejectReason::ExecFailed) => (Some(true), Some(false)),
            Outcome::Shed => (None, Some(true)),
            Outcome::Rejected(
                RejectReason::QueueFull
                | RejectReason::BreakerOpen
                | RejectReason::DeadlineInfeasible,
            ) => (None, Some(true)),
            Outcome::Rejected(RejectReason::Shutdown) => (None, None),
        };
        for (monitor, bad) in [
            (&mut self.slo_deadline, deadline_bad),
            (&mut self.slo_shed, shed_bad),
        ] {
            if let (Some(m), Some(bad)) = (monitor.as_mut(), bad) {
                let before = m.alerts().len();
                m.observe(now_us, bad);
                if m.alerts().len() > before {
                    self.reg.incr(&format!("serve.slo.{}.alerts", m.name()));
                }
            }
        }
    }

    /// The single terminal-outcome accounting path. Every request passes
    /// through here exactly once; the conservation law is a corollary.
    /// `now_us` closes the request's span and timestamps its SLO event —
    /// accounting itself does not read the clock.
    fn finish(&mut self, req: Request, outcome: Outcome, now_us: u64) {
        if self.spans.is_some() {
            if let Some(state) = self.span_states.remove(&req.id) {
                if let Some(sink) = &mut self.spans {
                    sink.child(state.ctx, state.stage, state.stage_start, now_us);
                    sink.close_root(state.ctx, "request", &state.class, state.root_start, now_us);
                }
            }
        }
        self.slo_observe(&outcome, now_us);
        match &outcome {
            Outcome::Completed { latency_us, downgraded, .. } => {
                self.reg.incr(names::COMPLETED);
                if *downgraded {
                    self.reg.incr(names::DOWNGRADED);
                }
                self.reg.observe("serve.latency_us", *latency_us);
                // Self-check: complete_batch converts late completions
                // before calling finish, so this can never fire.
                if req.submit_us.saturating_add(*latency_us) > req.deadline_us {
                    self.reg.incr(names::DEADLINE_VIOLATIONS);
                }
            }
            Outcome::Rejected(reason) => {
                self.reg.incr(names::REJECTED);
                self.reg.incr(match reason {
                    RejectReason::QueueFull => names::REJECTED_QUEUE_FULL,
                    RejectReason::DeadlineInfeasible => names::REJECTED_INFEASIBLE,
                    RejectReason::BreakerOpen => names::REJECTED_BREAKER,
                    RejectReason::ExecFailed => names::REJECTED_EXEC_FAILED,
                    RejectReason::Shutdown => names::REJECTED_SHUTDOWN,
                });
            }
            Outcome::Shed => self.reg.incr(names::SHED),
            Outcome::TimedOut(stage) => {
                self.reg.incr(names::TIMED_OUT);
                self.reg.incr(match stage {
                    TimeoutStage::Queue => names::TIMED_OUT_QUEUE,
                    TimeoutStage::Exec => names::TIMED_OUT_EXEC,
                    TimeoutStage::Retry => names::TIMED_OUT_RETRY,
                    TimeoutStage::Drain => names::TIMED_OUT_DRAIN,
                });
            }
        }
        self.responses.push(Response { id: req.id, model: req.model, outcome });
    }

    /// Snapshot of the canonical serving counters.
    pub fn counters(&self) -> ServeCounters {
        ServeCounters::from_registry(&self.reg)
    }

    /// The full metrics registry (for bench-record merges).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Terminal responses recorded so far (drains the buffer).
    pub(crate) fn take_responses(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.responses)
    }

    /// Responses recorded so far, without draining.
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// Batches currently dispatched and not yet completed.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    /// Recorded batch compositions (empty unless
    /// [`ServeConfig::record_batches`]).
    pub(crate) fn batch_log(&self) -> &[BatchLogEntry] {
        &self.batch_log
    }

    /// Takes the span sink out of the engine (for merging into a shared
    /// trace), leaving span recording disabled.
    pub(crate) fn take_spans(&mut self) -> Option<SpanSink> {
        self.spans.take()
    }

    /// The burn-rate rule outcomes so far (empty when
    /// [`ServeConfig::slo`] is `None`).
    pub(crate) fn slo_report(&self) -> SloReport {
        SloReport {
            rules: [&self.slo_deadline, &self.slo_shed]
                .into_iter()
                .flatten()
                .map(SloMonitor::report)
                .collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_arch::precision::Precision;
    use rapid_model::LatencyEntry;

    /// Synthetic table: one model, 100us base + 50us/item at FP16, with
    /// each lower tier 2x faster.
    fn table() -> LatencyTable {
        let mut entries = Vec::new();
        for (i, p) in [Precision::Fp16, Precision::Hfp8, Precision::Int4].iter().enumerate() {
            let scale = 1.0 / (1 << i) as f64;
            entries.push((
                ("m".to_string(), *p),
                LatencyEntry { base_us: 100.0 * scale, per_item_us: 50.0 * scale },
            ));
        }
        LatencyTable::from_entries(entries)
    }

    fn req(engine: &mut ServeEngine, now: u64, deadline: u64) -> Request {
        let id = engine.allocate_id();
        Request {
            id,
            model: "m".to_string(),
            tier: Tier::Fp16,
            qos: QosClass::Standard,
            submit_us: now,
            deadline_us: deadline,
        }
    }

    #[test]
    fn completes_within_deadline_and_conserves() {
        let mut e = ServeEngine::new(ServeConfig::default(), table());
        let r = req(&mut e, 0, 10_000);
        assert!(e.submit(r, 0));
        // window not yet expired, nothing ready
        assert!(e.next_batch(100).is_none());
        let batch = e.next_batch(2_100).expect("window expired");
        assert_eq!(batch.requests.len(), 1);
        e.complete_batch(batch, Ok(()), 2_400);
        let c = e.counters();
        assert_eq!(c.completed, 1);
        assert_eq!(c.lost(), 0);
        assert_eq!(c.deadline_violations, 0);
        assert!(matches!(
            e.responses()[0].outcome,
            Outcome::Completed { latency_us: 2_400, downgraded: false, .. }
        ));
    }

    #[test]
    fn late_completion_converts_to_exec_timeout() {
        let mut e = ServeEngine::new(ServeConfig::naive(), table());
        let r = req(&mut e, 0, 1_000);
        assert!(e.submit(r, 0));
        let batch = e.next_batch(2_100).expect("ready");
        e.complete_batch(batch, Ok(()), 5_000); // way past deadline
        let c = e.counters();
        assert_eq!(c.completed, 0);
        assert_eq!(c.timed_out, 1);
        assert_eq!(c.deadline_violations, 0);
        assert_eq!(c.lost(), 0);
    }

    #[test]
    fn admission_rejects_infeasible_deadlines() {
        let mut e = ServeEngine::new(ServeConfig::default(), table());
        let r = req(&mut e, 0, 50); // deadline < batch1 service time (150us)
        assert!(!e.submit(r, 0));
        let c = e.counters();
        assert_eq!(c.rejected, 1);
        assert_eq!(e.registry().counter(names::REJECTED_INFEASIBLE), 1);
    }

    #[test]
    fn capacity_derate_shifts_admission_and_shed_watermarks() {
        // Backlog the engine, then compare a tight-deadline admission at
        // full strength vs derated to half capacity: the same request is
        // feasible at 1.0 and infeasible at 0.5 because the ETA divides
        // the backlog across proportionally fewer workers.
        let feasible_when = |derate: f64| {
            let mut e = ServeEngine::new(ServeConfig::default(), table());
            e.set_capacity_derate(derate);
            for _ in 0..64 {
                let r = req(&mut e, 0, 1_000_000);
                e.submit(r, 0);
            }
            let probe = req(&mut e, 0, 4_000);
            e.submit(probe, 0)
        };
        assert!(feasible_when(1.0), "full-strength chip admits the probe");
        assert!(!feasible_when(0.5), "derated chip must reject it");
        // The shed controller sees occupancy scaled by the derate: the
        // same queue depth that is calm at full strength escalates the
        // shed level once half the capacity is quarantined.
        let shed_level_when = |derate: f64| {
            let cfg = ServeConfig { queue_cap: 16, admission: false, ..ServeConfig::default() };
            let mut e = ServeEngine::new(cfg, table());
            e.set_capacity_derate(derate);
            for _ in 0..8 {
                let r = req(&mut e, 0, 1_000_000);
                e.submit(r, 0);
            }
            for t in 0..20 {
                e.tick(t * 100);
            }
            e.registry().gauge("serve.shed_level").unwrap_or(0.0)
        };
        assert!(
            shed_level_when(0.5) > shed_level_when(1.0),
            "derating must raise the shed level at equal queue depth"
        );
        // Reinstatement restores the factor (and clamps bad inputs).
        let mut e = ServeEngine::new(ServeConfig::default(), table());
        e.set_capacity_derate(0.75);
        assert!((e.capacity_derate - 0.75).abs() < 1e-12);
        e.set_capacity_derate(1.0);
        assert!((e.capacity_derate - 1.0).abs() < 1e-12);
        e.set_capacity_derate(7.0);
        assert!((e.capacity_derate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_full_backpressure_rejects() {
        let cfg = ServeConfig { queue_cap: 2, admission: false, ..ServeConfig::default() };
        let mut e = ServeEngine::new(cfg, table());
        for _ in 0..2 {
            let r = req(&mut e, 0, 1_000_000);
            assert!(e.submit(r, 0));
        }
        let r = req(&mut e, 0, 1_000_000);
        assert!(!e.submit(r, 0));
        assert_eq!(e.registry().counter(names::REJECTED_QUEUE_FULL), 1);
    }

    #[test]
    fn deadline_propagation_drops_expired_in_queue() {
        let mut e = ServeEngine::new(ServeConfig::default(), table());
        let r = req(&mut e, 0, 3_000); // feasible at submit time
        assert!(e.submit(r, 0));
        e.tick(4_000); // past the deadline
        let c = e.counters();
        assert_eq!(c.timed_out, 1);
        assert_eq!(e.registry().counter(names::TIMED_OUT_QUEUE), 1);
        assert_eq!(e.queued_total, 0);
        assert!(e.next_batch(10_000).is_none());
    }

    #[test]
    fn failed_batches_retry_then_reject() {
        let cfg = ServeConfig {
            retry_max: 1,
            retry_backoff_us: 100,
            breaker: None,
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        let r = req(&mut e, 0, 1_000_000);
        assert!(e.submit(r, 0));
        let b = e.next_batch(2_100).expect("ready");
        e.complete_batch(b, Err(SessionError::Transient), 2_200);
        assert!(e.next_batch(2_250).is_none()); // backoff not elapsed
        let b = e.next_batch(2_300).expect("retry eligible");
        assert_eq!(b.attempts, 1);
        e.complete_batch(b, Err(SessionError::Transient), 2_400);
        let c = e.counters();
        assert_eq!(c.retries, 1);
        assert_eq!(e.registry().counter(names::REJECTED_EXEC_FAILED), 1);
        assert_eq!(c.lost(), 0);
    }

    #[test]
    fn breaker_opens_then_probes_then_closes() {
        let cfg = ServeConfig {
            retry_max: 0,
            breaker: Some(BreakerConfig { open_after: 2, cooldown_us: 1_000 }),
            batch_window_us: 0,
            admission: false,
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        for t in 0..2u64 {
            let r = req(&mut e, t * 10, 1_000_000);
            assert!(e.submit(r, t * 10));
            let b = e.next_batch(t * 10 + 1).expect("ready");
            e.complete_batch(b, Err(SessionError::Transient), t * 10 + 2);
        }
        assert_eq!(e.counters().breaker_opens, 1);
        // While open: submissions reject.
        let r = req(&mut e, 100, 1_000_000);
        assert!(!e.submit(r, 100));
        assert_eq!(e.registry().counter(names::REJECTED_BREAKER), 1);
        // After cooldown: probe admitted, success closes.
        let r = req(&mut e, 2_000, 1_000_000);
        assert!(e.submit(r, 2_000));
        let b = e.next_batch(2_001).expect("probe");
        assert!(b.probe);
        e.complete_batch(b, Ok(()), 2_010);
        assert_eq!(e.registry().counter(names::BREAKER_CLOSES), 1);
        assert_eq!(e.counters().lost(), 0);
    }

    #[test]
    fn shed_levels_downgrade_then_drop_standard_only() {
        let cfg = ServeConfig {
            queue_cap: 10,
            admission: false,
            batch_window_us: 0,
            shed: Some(ShedConfig { hi: 0.1, lo: 0.05, up_ticks: 1, down_ticks: 100, max_level: 3 }),
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        // Fill the queue, tick until level 3.
        for i in 0..8u64 {
            let id = e.allocate_id();
            let qos = if i == 0 { QosClass::Critical } else { QosClass::Standard };
            let r = Request {
                id,
                model: "m".to_string(),
                tier: Tier::Fp16,
                qos,
                submit_us: 0,
                deadline_us: 1_000_000,
            };
            assert!(e.submit(r, 0));
        }
        for _ in 0..3 {
            e.tick(1);
        }
        assert_eq!(e.shed.as_ref().map(ShedController::level), Some(3));
        // Critical request survives at its tier; standards are shed.
        let b = e.next_batch(2).expect("critical batch");
        assert_eq!(b.tier, Tier::Fp16);
        assert_eq!(b.requests.len(), 1);
        e.complete_batch(b, Ok(()), 3);
        assert!(e.next_batch(4).is_none());
        let c = e.counters();
        assert_eq!(c.shed, 7);
        assert_eq!(c.completed, 1);
        assert_eq!(c.lost(), 0);
    }

    #[test]
    fn shed_level_below_three_downgrades_tier() {
        let cfg = ServeConfig {
            queue_cap: 10,
            admission: false,
            batch_window_us: 0,
            shed: Some(ShedConfig { hi: 0.1, lo: 0.05, up_ticks: 1, down_ticks: 100, max_level: 1 }),
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        for _ in 0..4 {
            let r = req(&mut e, 0, 1_000_000);
            assert!(e.submit(r, 0));
        }
        e.tick(1);
        assert_eq!(e.shed.as_ref().map(ShedController::level), Some(1));
        let b = e.next_batch(2).expect("batch");
        assert_eq!(b.tier, Tier::Hfp8); // downgraded one step
        e.complete_batch(b, Ok(()), 3);
        let c = e.counters();
        assert_eq!(c.completed, 4);
        assert_eq!(c.downgraded, 4);
    }

    #[test]
    fn drain_rejects_new_flushes_old_and_aborts_leftovers() {
        let cfg = ServeConfig { admission: false, ..ServeConfig::default() };
        let mut e = ServeEngine::new(cfg, table());
        let r = req(&mut e, 0, 1_000_000);
        assert!(e.submit(r, 0));
        e.drain();
        let r = req(&mut e, 1, 1_000_000);
        assert!(!e.submit(r, 1));
        assert_eq!(e.registry().counter(names::REJECTED_SHUTDOWN), 1);
        // Draining flushes the partial window immediately.
        let b = e.next_batch(2).expect("flush");
        e.complete_batch(b, Ok(()), 3);
        // A leftover that never got dispatched is aborted.
        assert!(e.idle());
        let c = e.counters();
        assert_eq!(c.completed, 1);
        assert_eq!(c.lost(), 0);
    }

    #[test]
    fn abort_remaining_accounts_queued_and_retrying() {
        let cfg = ServeConfig {
            admission: false,
            breaker: None,
            retry_max: 5,
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        for _ in 0..3 {
            let r = req(&mut e, 0, 1_000_000);
            assert!(e.submit(r, 0));
        }
        let b = e.next_batch(2_100).expect("batch");
        e.complete_batch(b, Err(SessionError::Transient), 2_200); // → retry queue
        e.abort_remaining(2_300);
        let c = e.counters();
        assert_eq!(c.lost(), 0);
        assert_eq!(e.registry().counter(names::TIMED_OUT_DRAIN), 3);
        assert!(e.idle());
    }

    #[test]
    fn spans_cover_the_request_lifecycle_exactly() {
        use rapid_telemetry::span::{critical_path, validate_forest};
        let cfg = ServeConfig {
            record_spans: true,
            retry_max: 1,
            retry_backoff_us: 100,
            breaker: None,
            admission: false,
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        let r = req(&mut e, 0, 1_000_000);
        assert!(e.submit(r, 0));
        let b = e.next_batch(2_100).expect("ready");
        e.complete_batch(b, Err(SessionError::Transient), 2_200);
        let b = e.next_batch(2_300).expect("retry");
        e.complete_batch(b, Ok(()), 2_500);
        let spans = e.spans.as_ref().expect("spans recorded").spans();
        validate_forest(spans).expect("well-nested");
        // Stages: admission, queue, exec, retry_wait, exec + 1 root.
        assert_eq!(spans.len(), 6);
        let root = spans.iter().find(|s| s.parent_id == 0).expect("root");
        assert_eq!(root.name, "request");
        assert_eq!(root.class, "m/fp16");
        assert_eq!((root.start, root.end), (0, 2_500));
        let cp = critical_path(spans);
        assert_eq!(cp.len(), 1);
        assert_eq!(cp[0].attributed(), cp[0].total);
        assert_eq!(cp[0].unattributed, 0);
        // Queue wait (0 → 2100) dominates; exec contributed 100 + 200.
        assert_eq!(cp[0].dominant().map(|(n, _)| n), Some("queue"));
        let exec = cp[0].stages.iter().find(|(n, _)| *n == "exec").map(|(_, d)| *d);
        assert_eq!(exec, Some(300));
        let retry = cp[0].stages.iter().find(|(n, _)| *n == "retry_wait").map(|(_, d)| *d);
        assert_eq!(retry, Some(100));
    }

    #[test]
    fn spans_off_means_no_span_storage() {
        let mut e = ServeEngine::new(ServeConfig::default(), table());
        let r = req(&mut e, 0, 10_000);
        assert!(e.submit(r, 0));
        let b = e.next_batch(2_100).expect("ready");
        e.complete_batch(b, Ok(()), 2_400);
        assert!(e.take_spans().is_none());
    }

    #[test]
    fn slo_monitors_fire_on_sustained_exec_failures_only() {
        use rapid_telemetry::slo::SloConfig;
        let slo = SloPolicy {
            deadline: SloConfig { min_events: 8, ..SloConfig::deadline_default() },
            shed: SloConfig::shed_default(),
        };
        let cfg = ServeConfig {
            retry_max: 0,
            breaker: None,
            admission: false,
            batch_window_us: 0,
            slo: Some(slo),
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        // Sustained failures: every batch errors until retries exhaust.
        for i in 0..64u64 {
            let now = i * 200;
            let r = req(&mut e, now, now + 1_000_000);
            assert!(e.submit(r, now));
            let b = e.next_batch(now + 1).expect("ready");
            e.complete_batch(b, Err(SessionError::Transient), now + 2);
        }
        let report = e.slo_report();
        let deadline = report.rule("deadline").expect("deadline rule");
        assert!(!deadline.alerts.is_empty(), "100% failure must burn the budget");
        assert_eq!(deadline.bad, 64);
        assert_eq!(
            e.registry().counter("serve.slo.deadline.alerts"),
            deadline.alerts.len() as u64
        );
        // The shed rule saw only good traffic.
        let shed = report.rule("shed").expect("shed rule");
        assert!(shed.alerts.is_empty());
        assert_eq!(shed.bad, 0);
    }

    #[test]
    fn slo_none_disables_monitoring() {
        let cfg = ServeConfig { slo: None, ..ServeConfig::default() };
        let mut e = ServeEngine::new(cfg, table());
        let r = req(&mut e, 0, 10_000);
        assert!(e.submit(r, 0));
        assert!(e.slo_report().rules.is_empty());
    }

    #[test]
    fn batch_log_records_composition_when_enabled() {
        let cfg = ServeConfig {
            record_batches: true,
            admission: false,
            batch_window_us: 0,
            ..ServeConfig::default()
        };
        let mut e = ServeEngine::new(cfg, table());
        for _ in 0..2 {
            let r = req(&mut e, 0, 1_000_000);
            assert!(e.submit(r, 0));
        }
        let b = e.next_batch(1).expect("batch");
        e.complete_batch(b, Ok(()), 2);
        assert_eq!(e.batch_log().len(), 1);
        assert_eq!(e.batch_log()[0].request_ids, vec![0, 1]);
    }
}
