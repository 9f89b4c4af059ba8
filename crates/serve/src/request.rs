//! Request, outcome and batch types for the serving runtime.
//!
//! Every request submitted to the runtime reaches **exactly one** of the
//! four terminal outcomes — completed, rejected, shed, or timed out —
//! through the engine's single accounting path. The enums here are the
//! vocabulary of that state machine; DESIGN.md §10 draws the full graph.

use rapid_arch::precision::Precision;

/// Opaque request identifier, unique per engine instance.
pub type RequestId = u64;

/// Precision tier a request is served at.
///
/// Declaration order is quality order (highest first); the shed
/// controller downgrades by walking down this list. Only the three
/// serving precisions are tiers — FP32 is a reference mode and INT2 is
/// below the accuracy floor for serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Full-quality tier (FP16 accumulate-in-FP32 emulated GEMM).
    Fp16,
    /// Standard tier (hybrid-FP8 forward path, the paper's default).
    Hfp8,
    /// Degraded tier (INT4 quantized path) — last stop before shedding.
    Int4,
}

impl Tier {
    /// All tiers, highest quality first.
    pub const ALL: [Tier; 3] = [Tier::Fp16, Tier::Hfp8, Tier::Int4];

    /// The numeric precision this tier executes at.
    pub fn precision(self) -> Precision {
        match self {
            Tier::Fp16 => Precision::Fp16,
            Tier::Hfp8 => Precision::Hfp8,
            Tier::Int4 => Precision::Int4,
        }
    }

    /// This tier lowered by `levels` quality steps, saturating at INT4.
    pub(crate) fn downgraded_by(self, levels: u8) -> Tier {
        let idx = match self {
            Tier::Fp16 => 0usize,
            Tier::Hfp8 => 1,
            Tier::Int4 => 2,
        };
        Tier::ALL[(idx + levels as usize).min(Tier::ALL.len() - 1)]
    }

    /// Short lowercase label for metrics keys and logs.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Fp16 => "fp16",
            Tier::Hfp8 => "hfp8",
            Tier::Int4 => "int4",
        }
    }
}

/// Quality-of-service class: critical requests are never downgraded or
/// shed; standard requests absorb the overload response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Must be served at the requested tier or not at all.
    Critical,
    /// May be downgraded or shed under overload.
    Standard,
}

/// An inference request as submitted by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Engine-assigned identifier.
    pub id: RequestId,
    /// Workload name (e.g. `"resnet50"`); must exist in the latency table.
    pub model: String,
    /// Requested precision tier.
    pub tier: Tier,
    /// Whether the overload controller may touch this request.
    pub qos: QosClass,
    /// Submission timestamp, microseconds on the engine clock.
    pub submit_us: u64,
    /// Absolute deadline, microseconds on the engine clock. The runtime
    /// never delivers a completion after this instant.
    pub deadline_us: u64,
}

/// Why a request was rejected (each maps to a `serve.rejected.*` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue was full (backpressure).
    QueueFull,
    /// The admission estimate said the deadline could not be met.
    DeadlineInfeasible,
    /// The model's circuit breaker was open.
    BreakerOpen,
    /// Execution failed after exhausting all retries.
    ExecFailed,
    /// The runtime was draining for shutdown.
    Shutdown,
}

/// Which stage boundary a request's deadline expired at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutStage {
    /// Dropped at batch formation, still queued.
    Queue,
    /// Execution finished past the deadline; result discarded.
    Exec,
    /// Expired while waiting for a retry slot.
    Retry,
    /// Still in flight when the shutdown drain window closed.
    Drain,
}

/// Terminal outcome of a request — exactly one per submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served within deadline, possibly at a downgraded tier.
    Completed {
        /// The tier actually executed.
        tier: Tier,
        /// End-to-end latency in microseconds.
        latency_us: u64,
        /// True when `tier` is lower quality than the request asked for.
        downgraded: bool,
    },
    /// Refused without execution (or after exhausted retries).
    Rejected(RejectReason),
    /// Dropped by the overload controller at its final escalation level.
    Shed,
    /// Deadline expired at the given stage boundary.
    TimedOut(TimeoutStage),
}

/// A terminal response delivered back to the submitting client.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request this answers.
    pub id: RequestId,
    /// Workload name, echoed for correlation.
    pub model: String,
    /// The one terminal outcome.
    pub outcome: Outcome,
}

/// A formed batch: same model, same effective tier, executed as one unit.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Engine-assigned batch identifier (also the determinism-log key).
    pub id: u64,
    /// Workload the batch runs.
    pub model: String,
    /// Effective execution tier (after any downgrade).
    pub tier: Tier,
    /// Member requests, in dequeue order.
    pub requests: Vec<Request>,
    /// Execution attempts so far (0 before first dispatch completes).
    pub attempts: u32,
    /// True when this batch is a circuit-breaker half-open probe.
    pub probe: bool,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_is_quality_order_and_downgrade_saturates() {
        assert!(Tier::Fp16 < Tier::Hfp8);
        assert!(Tier::Hfp8 < Tier::Int4);
        assert_eq!(Tier::Fp16.downgraded_by(1), Tier::Hfp8);
        assert_eq!(Tier::Fp16.downgraded_by(2), Tier::Int4);
        assert_eq!(Tier::Fp16.downgraded_by(9), Tier::Int4);
        assert_eq!(Tier::Int4.downgraded_by(1), Tier::Int4);
        assert_eq!(Tier::Hfp8.downgraded_by(0), Tier::Hfp8);
    }

    #[test]
    fn tier_maps_to_serving_precisions() {
        for (t, p) in Tier::ALL.iter().zip(rapid_model::SERVING_PRECISIONS) {
            assert_eq!(t.precision(), p);
        }
    }
}
