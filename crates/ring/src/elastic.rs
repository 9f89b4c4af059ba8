//! Elastic all-reduce: membership epochs, heartbeat failure detection,
//! and ring healing over the reliable channel.
//!
//! [`super::reliable`] survives *flit*-level faults — drops, duplicates,
//! corruption — but assumes every chip lives to the end of the exchange.
//! A crashed or hung node would stall that protocol forever: its shard
//! never arrives, the ack never comes, and retries burn against a peer
//! that cannot answer. This module closes that gap for multi-chip
//! training:
//!
//! * a [`Membership`] tracks which nodes are in the ring under a
//!   monotonically increasing **epoch**; every splice (node removed) or
//!   rejoin bumps the epoch, so any two nodes that disagree about the
//!   ring can detect it from the epoch number alone;
//! * heartbeat detection declares a silent node hung after a fixed
//!   number of missed heartbeats — deterministic (pure cycle arithmetic,
//!   no wall clock), so detection latency is a constant, not a race;
//! * [`elastic_allreduce`] runs one collective under a [`FaultPlan`]'s
//!   node-fault domain: a crashed node is detected fast (its links drop —
//!   link-down signal), a hung node slowly (links stay up; only heartbeat
//!   silence reveals it), and either way the ring **heals**: the dead
//!   node is spliced out, in-flight chunks it contributed are re-reduced
//!   from surviving contributions, and the exchange completes over the
//!   survivor ring. Stragglers are bounded by a deadline: a slow node
//!   that can still meet it is waited for; one that cannot is dropped
//!   from *this exchange's* contributor set (partial all-reduce) without
//!   losing membership.
//!
//! Reduced values are a fixed ring-order sum over the **contributor**
//! set, so the same seed reproduces bit-identical results and the
//! identical event trace; every path is bounded in cycles — the module's
//! zero-hang guarantee is by construction, not by timeout luck.

use crate::reliable::{
    chunk_cycles, ideal_exchange_cycles, reliable_allreduce, ReliableConfig, ReliableError,
    RingHealth, CHUNK_ELEMS, GRAD_BYTES,
};
use rapid_fault::{FaultPlan, NodeFault};

/// Heartbeat period in cycles.
const HEARTBEAT_CYCLES: u64 = 2_000;

/// Missed heartbeats before a silent node is declared hung.
const SUSPECT_AFTER: u64 = 3;

/// Cycles of silence after which a hung node is detected.
const HANG_DETECT_CYCLES: u64 = HEARTBEAT_CYCLES * SUSPECT_AFTER;

/// Link-down detection latency for a crashed node, in cycles. Much smaller
/// than the heartbeat path: dead links announce themselves.
const CRASH_DETECT_CYCLES: u64 = 500;

/// Cost of one membership-epoch agreement round (splice broadcast +
/// acknowledgements), in cycles.
const HEAL_EPOCH_CYCLES: u64 = 1_500;

/// Straggler deadline as a multiple of the survivor ring's ideal exchange
/// time. A slow node projected to finish within the deadline is waited
/// for; one projected past it is dropped from this exchange's
/// contributors.
const STRAGGLER_DEADLINE: f64 = 2.0;

/// Minimum contributors an exchange may shrink to before it is an error
/// instead of a heal.
pub const MIN_WORLD: usize = 1;

/// Ring membership under an epoch protocol. Nodes are identified by their
/// original rank (`0..world`); the member list is always sorted, so the
/// ring order after any sequence of splices is a deterministic function
/// of *who* is alive, never of detection timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u64,
    members: Vec<u32>,
    world: u32,
}

impl Membership {
    /// A full ring of `world` nodes at epoch 0.
    ///
    /// # Errors
    ///
    /// [`ElasticError::InvalidConfig`] when `world` is zero.
    pub fn new(world: u32) -> Result<Self, ElasticError> {
        if world == 0 {
            return Err(ElasticError::InvalidConfig("world size must be positive".to_string()));
        }
        Ok(Self { epoch: 0, members: (0..world).collect(), world })
    }

    /// Current epoch; bumped by every membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Alive members, sorted by rank.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The original world size this ring started with.
    pub fn world(&self) -> u32 {
        self.world
    }

    /// Whether `node` is currently a member.
    pub fn is_member(&self, node: u32) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Removes `dead` nodes from the ring. Bumps the epoch once if
    /// anything was actually removed; returns the (possibly unchanged)
    /// epoch.
    pub(crate) fn splice(&mut self, dead: &[u32]) -> u64 {
        let before = self.members.len();
        self.members.retain(|m| !dead.contains(m));
        if self.members.len() != before {
            self.epoch += 1;
        }
        self.epoch
    }

    /// Re-admits a previously spliced node (rank order is restored by the
    /// sorted invariant). Bumps the epoch if the node was absent; returns
    /// the epoch.
    pub fn rejoin(&mut self, node: u32) -> u64 {
        if node < self.world {
            if let Err(pos) = self.members.binary_search(&node) {
                self.members.insert(pos, node);
                self.epoch += 1;
            }
        }
        self.epoch
    }
}

/// One membership- or schedule-affecting decision during an elastic
/// exchange, in the order it was made. The trace is part of the
/// reproducibility contract: same seed, same events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElasticEvent {
    /// A crashed node was detected via link-down at phase step `at_step`.
    CrashDetected {
        /// The dead node's rank.
        node: u32,
        /// Phase step of the exchange at which it died.
        at_step: u32,
    },
    /// A hung node was detected via heartbeat silence.
    HangDetected {
        /// The hung node's rank.
        node: u32,
        /// Phase step at which it stopped making progress.
        at_step: u32,
    },
    /// A straggler was slow but inside the deadline; the ring waits.
    StragglerRetained {
        /// The slow node's rank.
        node: u32,
        /// Its service-time multiplier this exchange.
        factor: f64,
    },
    /// A straggler was projected past the deadline and dropped from this
    /// exchange's contributors (it keeps its membership).
    StragglerDropped {
        /// The dropped node's rank.
        node: u32,
        /// Its service-time multiplier this exchange.
        factor: f64,
    },
    /// The membership healed: dead nodes spliced out, epoch bumped.
    Spliced {
        /// The new epoch after the splice.
        epoch: u64,
        /// Members remaining after the splice.
        survivors: u32,
    },
    /// A member's chip health fell below the fleet floor; it was demoted
    /// at the barrier instead of waiting for it to crash mid-exchange.
    HealthDemoted {
        /// The demoted node's rank.
        node: u32,
        /// Its chip health at demotion, in milli-units (0..=1000) —
        /// integer so same-seed event traces compare with `==`.
        score_milli: u32,
    },
}

/// Proactive health demotion at a barrier: splices out every member
/// whose chip-health score (as reported by each node's
/// `ChipHealthMonitor::chip_health`) fell below `floor`, bumping the
/// epoch once. This is the elastic ring's half of the mercurial-core
/// story: a chip accumulating quarantined cores leaves the training ring
/// *before* it corrupts a gradient exchange or stalls it, rather than
/// waiting for the crash/hang detectors to fire mid-allreduce.
///
/// Call between exchanges (at the step barrier, where no flits are in
/// flight). `chip_health` pairs node ranks with their current scores;
/// non-members and healthy nodes are ignored. Returns the decision
/// events in rank order — same scores, same trace.
pub fn demote_unhealthy(
    membership: &mut Membership,
    chip_health: &[(u32, f64)],
    floor: f64,
) -> Vec<ElasticEvent> {
    let mut events = Vec::new();
    let mut demoted = Vec::new();
    for &(node, score) in chip_health {
        if membership.is_member(node) && score < floor {
            demoted.push(node);
            events.push(ElasticEvent::HealthDemoted {
                node,
                score_milli: (score.clamp(0.0, 1.0) * 1000.0).round() as u32,
            });
        }
    }
    if !demoted.is_empty() {
        let epoch = membership.splice(&demoted);
        events.push(ElasticEvent::Spliced {
            epoch,
            survivors: membership.members().len() as u32,
        });
    }
    events
}

/// Observability report of one elastic exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ElasticHealth {
    /// Crashed nodes detected (link-down path).
    pub crashes_detected: u64,
    /// Hung nodes detected (heartbeat-silence path).
    pub hangs_detected: u64,
    /// Stragglers retained within the deadline.
    pub stragglers_retained: u64,
    /// Stragglers dropped from the contributor set by the deadline.
    pub stragglers_dropped: u64,
    /// Membership splices performed (0 or 1 per exchange).
    pub splices: u64,
    /// In-flight chunks re-reduced from surviving contributions after a
    /// splice.
    pub rereduced_chunks: u64,
    /// Cycles spent detecting failures (max over concurrent detections).
    pub detect_cycles: u64,
    /// Cycles spent healing (epoch agreement + re-reduction).
    pub heal_cycles: u64,
    /// Total exchange cycles including detection, healing, and straggler
    /// waiting.
    pub cycles: u64,
    /// Cycles the same exchange takes fault-free over the full membership.
    pub ideal_cycles: u64,
    /// The survivor ring's flit-level transport report.
    pub transport: RingHealth,
}

impl ElasticHealth {
    /// Accumulates this report into a metrics registry under `<prefix>.*`
    /// (the transport sub-report lands under `<prefix>.transport.*`) —
    /// the unified-telemetry form of this struct.
    pub(crate) fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.crashes_detected"), self.crashes_detected);
        reg.add(&format!("{prefix}.hangs_detected"), self.hangs_detected);
        reg.add(&format!("{prefix}.stragglers_retained"), self.stragglers_retained);
        reg.add(&format!("{prefix}.stragglers_dropped"), self.stragglers_dropped);
        reg.add(&format!("{prefix}.splices"), self.splices);
        reg.add(&format!("{prefix}.rereduced_chunks"), self.rereduced_chunks);
        reg.add(&format!("{prefix}.detect_cycles"), self.detect_cycles);
        reg.add(&format!("{prefix}.heal_cycles"), self.heal_cycles);
        reg.add(&format!("{prefix}.cycles"), self.cycles);
        reg.add(&format!("{prefix}.ideal_cycles"), self.ideal_cycles);
        self.transport.record_into(reg, &format!("{prefix}.transport"));
    }

    /// Reconstructs the struct from registry counters written by
    /// [`ElasticHealth::record_into`] with the same prefix: the reader the
    /// round-trip test checks the writer against.
    #[cfg(test)]
    pub(crate) fn from_registry(reg: &rapid_telemetry::MetricsRegistry, prefix: &str) -> Self {
        Self {
            crashes_detected: reg.counter(&format!("{prefix}.crashes_detected")),
            hangs_detected: reg.counter(&format!("{prefix}.hangs_detected")),
            stragglers_retained: reg.counter(&format!("{prefix}.stragglers_retained")),
            stragglers_dropped: reg.counter(&format!("{prefix}.stragglers_dropped")),
            splices: reg.counter(&format!("{prefix}.splices")),
            rereduced_chunks: reg.counter(&format!("{prefix}.rereduced_chunks")),
            detect_cycles: reg.counter(&format!("{prefix}.detect_cycles")),
            heal_cycles: reg.counter(&format!("{prefix}.heal_cycles")),
            cycles: reg.counter(&format!("{prefix}.cycles")),
            ideal_cycles: reg.counter(&format!("{prefix}.ideal_cycles")),
            transport: RingHealth::from_registry(reg, &format!("{prefix}.transport")),
        }
    }
}

/// Why an elastic exchange could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElasticError {
    /// A construction parameter is out of the supported range.
    InvalidConfig(String),
    /// Too few contributors remain to run the exchange.
    WorldTooSmall {
        /// Contributors left after failures and straggler drops.
        survivors: usize,
        /// The configured minimum.
        min: usize,
    },
    /// The survivor ring's flit-level transport failed.
    Reliable(ReliableError),
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid elastic-allreduce config: {why}"),
            Self::WorldTooSmall { survivors, min } => write!(
                f,
                "only {survivors} contributors remain (minimum {min}) — cannot heal further"
            ),
            Self::Reliable(e) => write!(f, "survivor-ring transport failed: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {}

impl From<ReliableError> for ElasticError {
    fn from(e: ReliableError) -> Self {
        Self::Reliable(e)
    }
}

/// What one elastic exchange produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticOutcome {
    /// The reduced vector: a fixed ring-order sum over `contributors`.
    pub reduced: Vec<f32>,
    /// Nodes whose gradients are in `reduced`, sorted by rank. Average
    /// over `contributors.len()` to rescale to the surviving world.
    pub contributors: Vec<u32>,
    /// Membership epoch after the exchange (bumped if the ring healed).
    pub epoch: u64,
    /// Timing and counter report.
    pub health: ElasticHealth,
    /// Decision trace, identical for identical seeds.
    pub events: Vec<ElasticEvent>,
}

/// Runs one elastic ring all-reduce of `inputs` (one gradient vector per
/// original rank; only current members' entries are read) under the
/// optional fault plan's node domain, healing the ring through crashes
/// and hangs and bounding stragglers with a deadline.
///
/// Membership-affecting faults are spliced out of `membership` (epoch
/// bump); dropped stragglers stay members but are excluded from this
/// exchange's contributors. The reduced values are the fixed ring-order
/// sum over the final contributor set — average over
/// [`ElasticOutcome::contributors`] to rescale gradients to the surviving
/// world.
///
/// Every path is bounded: detection, healing, and straggler waiting are
/// all fixed cycle charges, and the survivor exchange inherits the
/// reliable protocol's bounded-retry guarantee.
///
/// With `tele = Some`, the exchange's [`ElasticHealth`] accumulates into
/// the bundle under `ring.elastic.*` (plus a `ring.elastic.exchanges` call
/// counter and, when the bundle records spans, one `exchange` span with
/// its detect/heal/transfer stages). `tele = None` records nothing.
///
/// # Errors
///
/// [`ElasticError::InvalidConfig`] on shape mismatches,
/// [`ElasticError::WorldTooSmall`] when failures and straggler drops
/// leave fewer than [`MIN_WORLD`] contributors, and
/// [`ElasticError::Reliable`] when the survivor transport itself fails.
pub fn elastic_allreduce(
    inputs: &[Vec<f32>],
    membership: &mut Membership,
    cfg: &ReliableConfig,
    mut faults: Option<&mut FaultPlan>,
    tele: Option<&mut rapid_telemetry::Telemetry>,
) -> Result<ElasticOutcome, ElasticError> {
    if inputs.len() != membership.world() as usize {
        return Err(ElasticError::InvalidConfig(format!(
            "{} inputs for a world of {}",
            inputs.len(),
            membership.world()
        )));
    }
    let members = membership.members().to_vec();
    let Some(&first) = members.first() else {
        return Err(ElasticError::WorldTooSmall { survivors: 0, min: MIN_WORLD });
    };
    let elems = inputs[first as usize].len();
    if members.iter().any(|&m| inputs[m as usize].len() != elems) {
        return Err(ElasticError::InvalidConfig("member input lengths differ".to_string()));
    }

    let n = members.len();
    // Phase steps of a full-membership exchange: (n-1) reduce-scatter +
    // (n-1) all-gather. Fates are drawn once per member, in rank order,
    // so the draw sequence is a function of membership alone.
    let steps = (2 * n.saturating_sub(1)).max(1) as u32;
    let mut crashed: Vec<(u32, u32)> = Vec::new();
    let mut hung: Vec<(u32, u32)> = Vec::new();
    let mut slow: Vec<(u32, f64)> = Vec::new();
    if let Some(plan) = faults.as_mut() {
        for &node in &members {
            match plan.node_fault(node, steps) {
                Some(NodeFault::Crash { at_step }) => crashed.push((node, at_step)),
                Some(NodeFault::Hang { at_step }) => hung.push((node, at_step)),
                Some(NodeFault::Slow { factor }) => slow.push((node, factor)),
                None => {}
            }
        }
    }

    let mut health = ElasticHealth::default();
    let mut events = Vec::new();
    health.ideal_cycles = ideal_exchange_cycles(n, elems);

    // Detection: crashes announce themselves via link-down, hangs only
    // via heartbeat silence. Concurrent detections overlap, so the charge
    // is the max, not the sum; pre-fault progress is the furthest the
    // doomed exchange got before the latest failure.
    let mut detect = 0u64;
    let mut pre_fault = 0u64;
    for &(node, at_step) in &crashed {
        health.crashes_detected += 1;
        detect = detect.max(CRASH_DETECT_CYCLES);
        pre_fault =
            pre_fault.max(health.ideal_cycles * u64::from(at_step) / u64::from(steps.max(1)));
        events.push(ElasticEvent::CrashDetected { node, at_step });
    }
    for &(node, at_step) in &hung {
        health.hangs_detected += 1;
        detect = detect.max(HANG_DETECT_CYCLES);
        pre_fault =
            pre_fault.max(health.ideal_cycles * u64::from(at_step) / u64::from(steps.max(1)));
        events.push(ElasticEvent::HangDetected { node, at_step });
    }
    health.detect_cycles = detect;

    // Heal: splice the dead out of the membership, agree on the new
    // epoch, and re-reduce the in-flight chunks the dead had already
    // contributed from the surviving copies (one shard's worth per dead
    // node, priced at gradient chunk cycles).
    let dead: Vec<u32> =
        crashed.iter().map(|&(m, _)| m).chain(hung.iter().map(|&(m, _)| m)).collect();
    let survivors: Vec<u32> = members.iter().copied().filter(|m| !dead.contains(m)).collect();
    if survivors.len() < MIN_WORLD {
        return Err(ElasticError::WorldTooSmall { survivors: survivors.len(), min: MIN_WORLD });
    }
    let mut heal = 0u64;
    if !dead.is_empty() {
        let shard_len = elems.div_ceil(n);
        let chunks_per_shard = shard_len.div_ceil(CHUNK_ELEMS) as u64;
        health.rereduced_chunks = chunks_per_shard * dead.len() as u64;
        heal = HEAL_EPOCH_CYCLES + health.rereduced_chunks * chunk_cycles(GRAD_BYTES);
        health.splices = 1;
        let epoch = membership.splice(&dead);
        events.push(ElasticEvent::Spliced { epoch, survivors: survivors.len() as u32 });
    }
    health.heal_cycles = heal;

    // Straggler deadline: projected completion beyond `deadline ×
    // ideal(survivor ring)` drops the node from this exchange's
    // contributors; within it, the ring waits (factor multiplies the
    // exchange).
    let ideal_survivor = ideal_exchange_cycles(survivors.len(), elems);
    let mut wait_factor = 1.0f64;
    let mut contributors = survivors.clone();
    for &(node, factor) in &slow {
        if dead.contains(&node) {
            continue;
        }
        let factor = factor.max(1.0);
        if factor <= STRAGGLER_DEADLINE {
            health.stragglers_retained += 1;
            wait_factor = wait_factor.max(factor);
            events.push(ElasticEvent::StragglerRetained { node, factor });
        } else {
            health.stragglers_dropped += 1;
            contributors.retain(|&m| m != node);
            events.push(ElasticEvent::StragglerDropped { node, factor });
        }
    }
    if contributors.len() < MIN_WORLD {
        return Err(ElasticError::WorldTooSmall { survivors: contributors.len(), min: MIN_WORLD });
    }

    // Survivor exchange: the reliable protocol over the contributor ring
    // carries the values (and the flit-level fault stream). Its fixed
    // ring-order reduction makes the result a function of *who*
    // contributed, never of when failures were detected.
    let contributor_inputs: Vec<Vec<f32>> =
        contributors.iter().map(|&m| inputs[m as usize].clone()).collect();
    let (reduced, transport) = reliable_allreduce(&contributor_inputs, cfg, faults, None)?;
    health.transport = transport;
    // A dropped straggler's deadline expires before the fallback
    // completes; a retained one stretches the exchange by its factor.
    let mut exchange = (transport.cycles as f64 * wait_factor).ceil() as u64;
    if health.stragglers_dropped > 0 {
        exchange =
            exchange.max((ideal_survivor as f64 * STRAGGLER_DEADLINE).ceil() as u64);
    }
    health.cycles = pre_fault + detect + heal + exchange;
    if health.ideal_cycles == 0 {
        health.ideal_cycles = health.cycles.max(1);
    }

    let out = ElasticOutcome { reduced, contributors, epoch: membership.epoch(), health, events };
    if let Some(t) = tele {
        // The cumulative exchange-cycle counter doubles as the span time
        // base: exchange N starts where exchange N-1 ended, so a whole
        // training run renders as contiguous exchange spans.
        let base = t.registry.counter("ring.elastic.cycles");
        out.health.record_into(&mut t.registry, "ring.elastic");
        t.registry.incr("ring.elastic.exchanges");
        t.registry.counter_max("ring.elastic.epoch", out.epoch);
        if let Some(spans) = &mut t.spans {
            let n = t.registry.counter("ring.elastic.exchanges");
            let h = &out.health;
            let ctx = spans.open_root(rapid_telemetry::span::derive_trace_id(
                u64::from_le_bytes(*b"elastic\0"),
                n,
            ));
            let end = base + h.cycles;
            let mut at = base;
            for (stage, dur) in [
                ("detect", h.detect_cycles),
                ("heal", h.heal_cycles),
                ("transfer", h.cycles.saturating_sub(h.detect_cycles + h.heal_cycles)),
            ] {
                let stop = (at + dur).min(end);
                if stop > at {
                    spans.child(ctx, stage, at, stop);
                    at = stop;
                }
            }
            spans.close_root(ctx, "exchange", "elastic/allreduce", base, base + h.cycles);
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_fault::FaultConfig;

    fn gradients(world: usize, elems: usize) -> Vec<Vec<f32>> {
        (0..world)
            .map(|c| {
                (0..elems).map(|i| ((i * 13 + c * 5 + 1) % 89) as f32 * 0.021 - 0.9).collect()
            })
            .collect()
    }

    fn crash_plan(seed: u64, rate: f64, budget: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            node_crash_rate: rate,
            node_fault_budget: budget,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn health_demotion_splices_at_the_barrier_and_the_ring_continues() {
        let mut mem = Membership::new(4).unwrap();
        // Node 2's chip health collapsed below the fleet floor.
        let scores = [(0, 0.98), (1, 0.95), (2, 0.31), (3, 1.0)];
        let events = demote_unhealthy(&mut mem, &scores, 0.5);
        assert_eq!(
            events,
            vec![
                ElasticEvent::HealthDemoted { node: 2, score_milli: 310 },
                ElasticEvent::Spliced { epoch: 1, survivors: 3 },
            ]
        );
        assert_eq!(mem.members(), &[0, 1, 3]);
        // The next exchange proceeds over the survivors.
        let inputs = gradients(4, 1024);
        let cfg = ReliableConfig::rapid_training();
        let out = elastic_allreduce(&inputs, &mut mem, &cfg, None, None).unwrap();
        assert_eq!(out.contributors, vec![0, 1, 3]);
        assert_eq!(out.epoch, 1);
        // Healthy fleets and non-members are untouched; no epoch churn.
        let none = demote_unhealthy(&mut mem, &[(0, 0.9), (2, 0.1), (7, 0.0)], 0.5);
        assert!(none.is_empty(), "node 2 already gone, node 7 unknown");
        assert_eq!(mem.epoch(), 1);
        // Same scores produce the same trace (determinism contract).
        let mut m2 = Membership::new(4).unwrap();
        assert_eq!(demote_unhealthy(&mut m2, &scores, 0.5), events);
    }

    #[test]
    fn fault_free_matches_reliable_over_full_membership() {
        let inputs = gradients(4, 4096);
        let cfg = ReliableConfig::rapid_training();
        let mut mem = Membership::new(4).unwrap();
        let out = elastic_allreduce(&inputs, &mut mem, &cfg, None, None).unwrap();
        let (expect, rh) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        assert_eq!(out.reduced, expect);
        assert_eq!(out.contributors, vec![0, 1, 2, 3]);
        assert_eq!(out.epoch, 0);
        assert!(out.events.is_empty());
        assert_eq!(out.health.cycles, rh.cycles);
        assert_eq!(out.health.ideal_cycles, rh.ideal_cycles);
        assert_eq!(out.health.cycles, out.health.ideal_cycles);
    }

    #[test]
    fn crash_heals_the_ring_and_reduces_over_survivors() {
        let inputs = gradients(4, 4096);
        let cfg = ReliableConfig::rapid_training();
        let mut mem = Membership::new(4).unwrap();
        let mut plan = crash_plan(11, 1.0, 1);
        let out = elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap();
        assert_eq!(out.health.crashes_detected, 1);
        assert_eq!(out.health.splices, 1);
        assert_eq!(out.contributors.len(), 3);
        assert_eq!(mem.members().len(), 3);
        assert_eq!(mem.epoch(), 1);
        assert_eq!(out.epoch, 1);
        assert!(out.health.rereduced_chunks > 0);
        // Values equal the reliable exchange over exactly the survivors.
        let survivor_inputs: Vec<Vec<f32>> =
            out.contributors.iter().map(|&m| inputs[m as usize].clone()).collect();
        let (expect, _) = reliable_allreduce(&survivor_inputs, &cfg, None, None).unwrap();
        assert_eq!(out.reduced, expect);
        // Healing costs cycles: detection + epoch + re-reduction.
        assert!(out.health.cycles > out.health.transport.cycles);
        assert!(out.health.cycles > out.health.ideal_cycles);
    }

    #[test]
    fn same_seed_reproduces_identical_outcome_and_trace() {
        let inputs = gradients(6, 8192);
        let cfg = ReliableConfig::rapid_training();
        let run = |seed: u64| {
            let mut mem = Membership::new(6).unwrap();
            let mut plan = FaultPlan::new(FaultConfig {
                seed,
                node_crash_rate: 0.15,
                node_hang_rate: 0.1,
                node_slow_rate: 0.3,
                node_slow_factor: 1.5,
                ..FaultConfig::default()
            });
            elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce bit-identical outcome");
        assert!(!a.events.is_empty(), "rates this high must fire");
        let c = run(43);
        assert_ne!(a.events, c.events, "different seed, different trace");
    }

    #[test]
    fn hang_detection_is_slower_than_crash_detection() {
        let inputs = gradients(4, 4096);
        let cfg = ReliableConfig::rapid_training();
        let detect_of = |hang: bool| {
            let mut mem = Membership::new(4).unwrap();
            let mut plan = FaultPlan::new(FaultConfig {
                seed: 5,
                node_crash_rate: if hang { 0.0 } else { 1.0 },
                node_hang_rate: if hang { 1.0 } else { 0.0 },
                node_fault_budget: 1,
                ..FaultConfig::default()
            });
            elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None)
                .unwrap()
                .health
                .detect_cycles
        };
        let crash = detect_of(false);
        let hang = detect_of(true);
        assert_eq!(crash, CRASH_DETECT_CYCLES);
        assert_eq!(hang, HEARTBEAT_CYCLES * SUSPECT_AFTER, "hangs are found by heartbeat silence");
        assert!(hang > crash, "link-down beats heartbeat timeout");
    }

    #[test]
    fn straggler_within_deadline_waits_beyond_it_drops() {
        let inputs = gradients(4, 4096);
        let cfg = ReliableConfig::rapid_training();
        let run = |rate: f64, factor: f64| {
            let mut mem = Membership::new(4).unwrap();
            let mut plan = FaultPlan::new(FaultConfig {
                seed: 9,
                node_slow_rate: rate,
                node_slow_factor: factor,
                ..FaultConfig::default()
            });
            elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap()
        };
        // Factor 1.5 ≤ deadline 2.0: everyone retained, exchange stretched.
        let retained = run(1.0, 1.5);
        assert_eq!(retained.health.stragglers_retained, 4);
        assert_eq!(retained.contributors.len(), 4);
        assert!(retained.health.cycles > retained.health.ideal_cycles);
        // Factor 4.0 > deadline, partial straggle: the stragglers are
        // dropped from the contributor set (partial all-reduce); the
        // punctual nodes still contribute, and membership is untouched.
        // Scan for a seed where 1–3 of the 4 nodes straggle.
        let dropped = (0..64)
            .find_map(|seed| {
                let mut mem = Membership::new(4).unwrap();
                let mut plan = FaultPlan::new(FaultConfig {
                    seed,
                    node_slow_rate: 0.5,
                    node_slow_factor: 4.0,
                    ..FaultConfig::default()
                });
                elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None)
                    .ok()
                    .filter(|o| (1..=3).contains(&o.health.stragglers_dropped))
            })
            .expect("some seed must straggle 1-3 of 4 nodes");
        assert_eq!(
            dropped.contributors.len() as u64,
            4 - dropped.health.stragglers_dropped
        );
        assert_eq!(dropped.epoch, 0, "dropped stragglers keep their membership");
        // All four past the deadline: nothing left to reduce over.
        let mut mem = Membership::new(4).unwrap();
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 9,
            node_slow_rate: 1.0,
            node_slow_factor: 4.0,
            ..FaultConfig::default()
        });
        let err = elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap_err();
        assert!(matches!(err, ElasticError::WorldTooSmall { survivors: 0, .. }), "{err}");
    }

    #[test]
    fn world_too_small_is_a_structured_error() {
        let inputs = gradients(2, 512);
        let cfg = ReliableConfig::rapid_training();
        let mut mem = Membership::new(2).unwrap();
        // Both nodes crash: no survivor is left to reach the minimum world.
        let mut plan = crash_plan(3, 1.0, u64::MAX);
        let err = elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap_err();
        assert!(
            matches!(err, ElasticError::WorldTooSmall { survivors: 0, min: MIN_WORLD }),
            "{err}"
        );
    }

    #[test]
    fn membership_epochs_splice_and_rejoin() {
        let mut mem = Membership::new(4).unwrap();
        assert_eq!(mem.epoch(), 0);
        assert_eq!(mem.splice(&[2]), 1);
        assert_eq!(mem.members(), &[0, 1, 3]);
        assert!(!mem.is_member(2));
        // Splicing nothing does not bump the epoch.
        assert_eq!(mem.splice(&[2]), 1);
        assert_eq!(mem.rejoin(2), 2);
        assert_eq!(mem.members(), &[0, 1, 2, 3]);
        // Rejoining a present node or an out-of-world rank is a no-op.
        assert_eq!(mem.rejoin(2), 2);
        assert_eq!(mem.rejoin(9), 2);
        assert!(Membership::new(0).is_err());
    }

    #[test]
    fn heartbeat_detector_is_deterministic() {
        // Whenever a node hangs, its silence is found after the same
        // number of missed heartbeats.
        let inputs = gradients(4, 2048);
        let cfg = ReliableConfig::rapid_training();
        let mut at_steps = Vec::new();
        for seed in 0..16 {
            let mut mem = Membership::new(4).unwrap();
            let mut plan = FaultPlan::new(FaultConfig {
                seed,
                node_hang_rate: 1.0,
                node_fault_budget: 1,
                ..FaultConfig::default()
            });
            let out = elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).unwrap();
            assert_eq!(out.health.detect_cycles, 6_000, "seed {seed}");
            at_steps.extend(out.events.iter().filter_map(|e| match e {
                ElasticEvent::HangDetected { at_step, .. } => Some(*at_step),
                _ => None,
            }));
        }
        at_steps.sort_unstable();
        at_steps.dedup();
        assert!(at_steps.len() > 1, "hangs at different steps: {at_steps:?}");
    }

    #[test]
    fn instrumented_exchange_fills_the_elastic_registry() {
        let inputs = gradients(4, 2048);
        let cfg = ReliableConfig::rapid_training();
        let mut mem = Membership::new(4).unwrap();
        let mut plan = crash_plan(21, 1.0, 1);
        let mut tele = rapid_telemetry::Telemetry::default();
        let out =
            elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), Some(&mut tele)).unwrap();
        assert_eq!(tele.registry.counter("ring.elastic.exchanges"), 1);
        assert_eq!(tele.registry.counter("ring.elastic.crashes_detected"), 1);
        let round = ElasticHealth::from_registry(&tele.registry, "ring.elastic");
        assert_eq!(round, out.health, "registry round-trips the health report");
        // No span sink attached → no spans recorded.
        assert!(tele.spans.is_none());
    }

    #[test]
    fn instrumented_exchanges_emit_contiguous_spans() {
        use rapid_telemetry::span::{critical_path, validate_forest};
        let inputs = gradients(4, 2048);
        let cfg = ReliableConfig::rapid_training();
        let mut mem = Membership::new(4).unwrap();
        let mut plan = crash_plan(21, 1.0, 1);
        let mut tele = rapid_telemetry::Telemetry::with_spans();
        for _ in 0..3 {
            elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), Some(&mut tele)).unwrap();
        }
        let spans = tele.spans.as_ref().unwrap().spans();
        validate_forest(spans).unwrap();
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 3, "one exchange root per allreduce");
        // Exchange N starts where N-1 ended (cumulative-cycle time base).
        for pair in roots.windows(2) {
            assert_eq!(pair[1].start, pair[0].end);
        }
        let cp = critical_path(spans);
        assert_eq!(cp.len(), 1);
        assert_eq!(cp[0].class, "elastic/allreduce");
        assert_eq!(cp[0].attributed(), cp[0].total, "stages partition the exchange");
        assert!(cp[0].stages.iter().any(|(n, _)| *n == "transfer"));
    }
}
