//! Elastic multi-chip training: the data-parallel loop that survives
//! node loss.
//!
//! [`crate::train`] hardens a *single* chip's training against numeric
//! corruption; `rapid_ring::elastic` heals the *collective* when a node
//! crashes, hangs, or straggles. This module ties the two layers into a
//! training loop over a multi-chip data-parallel world:
//!
//! ```text
//!   step:    shard batch over members ─▶ per-node delta (backward SGD)
//!            ─▶ elastic all-reduce (heal / splice / deadline)
//!            ─▶ average over CONTRIBUTORS ─▶ apply to the global model
//!   epoch:   coordinated checkpoint barrier (one generation per epoch)
//!            ─▶ optional rejoin-with-catchup of spliced nodes
//! ```
//!
//! The key invariants:
//!
//! * **world rescaling** — the applied update is the contributor *mean*,
//!   so losing a node rescales gradient averaging to the surviving world
//!   instead of silently shrinking the step;
//! * **barrier checkpoints** — every epoch ends in one coordinated
//!   checkpoint generation; a rejoining node restores the latest
//!   generation, which *is* the live parameters at that barrier, so
//!   catch-up is bit-identical by construction;
//! * **resume** — a loop started over a non-empty store restores the
//!   newest generation and skips the epochs it covers: a node restored
//!   from generation N−1 replays epoch N exactly (same data order, same
//!   ring order) and lands on the uninterrupted run's generation-N
//!   weights bit for bit;
//! * **bounded everything** — detection, healing, and straggler waits are
//!   fixed cycle charges inside the elastic exchange; no path in this
//!   loop can hang.

use crate::checkpoint::{CheckpointError, CheckpointStore, LayerState, TrainState};
use rapid_fault::FaultPlan;
use rapid_refnet::backend::{Backend, Fp32Backend};
use rapid_refnet::data::Dataset;
use rapid_refnet::mlp::{softmax_cross_entropy, Mlp};
use rapid_ring::elastic::{
    elastic_allreduce, ElasticConfig, ElasticError, ElasticEvent, Membership,
};
use rapid_telemetry::Telemetry;

/// Configuration of one elastic training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticTrainConfig {
    /// Epochs to run (each ends in a checkpoint barrier).
    pub epochs: usize,
    /// Global batch size, sharded over the current members.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// The elastic collective layer (heartbeats, healing, deadline).
    pub ring: ElasticConfig,
    /// Whether spliced nodes rejoin at the next barrier, catching up from
    /// the just-written checkpoint generation.
    pub rejoin_at_barrier: bool,
}

impl ElasticTrainConfig {
    /// Paper-shaped defaults for a `world`-chip HFP8 run.
    pub fn rapid_training(world: u32) -> Self {
        Self {
            epochs: 8,
            batch: 32,
            lr: 0.05,
            ring: ElasticConfig::rapid_training(world, true),
            rejoin_at_barrier: false,
        }
    }
}

/// What the elastic loop did, alongside the trained model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElasticReport {
    /// Optimization steps taken (one collective exchange each).
    pub steps_run: u64,
    /// Node crashes survived (spliced out, training continued).
    pub crashes_survived: u64,
    /// Node hangs survived.
    pub hangs_survived: u64,
    /// Straggler exchanges waited out within the deadline.
    pub stragglers_retained: u64,
    /// Straggler contributions dropped by the deadline (partial
    /// all-reduce steps).
    pub stragglers_dropped: u64,
    /// Membership splices (ring heals).
    pub splices: u64,
    /// Nodes re-admitted at a barrier with checkpoint catch-up.
    pub rejoins: u64,
    /// Checkpoint barriers taken (one per completed epoch).
    pub barriers: u64,
    /// Epochs skipped because the store already covered them (resume).
    pub epochs_resumed: u64,
    /// Members alive at the end of the run.
    pub final_world: usize,
    /// Membership epoch at the end of the run.
    pub final_epoch: u64,
    /// Modeled cycles of all collective exchanges, including detection,
    /// healing, and straggler waits.
    pub cycles: u64,
    /// Modeled cycles the same exchanges would take fault-free.
    pub ideal_cycles: u64,
    /// Every elastic event across the run, in order — the reproducible
    /// trace the same-seed contract is asserted on.
    pub events: Vec<ElasticEvent>,
}

impl ElasticReport {
    /// Goodput: the fraction of fault-free exchange throughput the run
    /// retained.
    pub fn goodput(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.ideal_cycles as f64 / self.cycles as f64
    }

    /// Accumulates this report into a metrics registry under
    /// `<prefix>.*` — the unified-telemetry form of this struct.
    pub fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.steps_run"), self.steps_run);
        reg.add(&format!("{prefix}.crashes_survived"), self.crashes_survived);
        reg.add(&format!("{prefix}.hangs_survived"), self.hangs_survived);
        reg.add(&format!("{prefix}.stragglers_retained"), self.stragglers_retained);
        reg.add(&format!("{prefix}.stragglers_dropped"), self.stragglers_dropped);
        reg.add(&format!("{prefix}.splices"), self.splices);
        reg.add(&format!("{prefix}.rejoins"), self.rejoins);
        reg.add(&format!("{prefix}.barriers"), self.barriers);
        reg.add(&format!("{prefix}.epochs_resumed"), self.epochs_resumed);
        reg.counter_max(&format!("{prefix}.final_world"), self.final_world as u64);
        reg.counter_max(&format!("{prefix}.final_epoch"), self.final_epoch);
        reg.add(&format!("{prefix}.cycles"), self.cycles);
        reg.add(&format!("{prefix}.ideal_cycles"), self.ideal_cycles);
    }
}

/// Why an elastic training run could not finish.
#[derive(Debug)]
pub enum ElasticTrainError {
    /// The collective layer failed (world shrank below the minimum, or
    /// the survivor transport died).
    Ring(ElasticError),
    /// The checkpoint store failed.
    Checkpoint(CheckpointError),
    /// A training step's numerics tripped a guard (this loop does not
    /// absorb numeric faults — wrap the backend with
    /// [`crate::train::train_mlp_resilient`]'s machinery for that).
    Numerics(rapid_numerics::NumericsError),
    /// A construction parameter is out of the supported range.
    InvalidConfig(String),
}

impl std::fmt::Display for ElasticTrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ring(e) => write!(f, "elastic collective failed: {e}"),
            Self::Checkpoint(e) => write!(f, "checkpoint store failure: {e}"),
            Self::Numerics(e) => write!(f, "training step numerics failure: {e}"),
            Self::InvalidConfig(why) => write!(f, "invalid elastic training config: {why}"),
        }
    }
}

impl std::error::Error for ElasticTrainError {}

impl From<ElasticError> for ElasticTrainError {
    fn from(e: ElasticError) -> Self {
        Self::Ring(e)
    }
}

impl From<CheckpointError> for ElasticTrainError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<rapid_numerics::NumericsError> for ElasticTrainError {
    fn from(e: rapid_numerics::NumericsError) -> Self {
        Self::Numerics(e)
    }
}

/// Flattens the model's parameters (layer weights, then biases, in layer
/// order) into one vector — the unit the collective reduces.
fn flatten(mlp: &Mlp) -> Vec<f32> {
    let mut out = Vec::new();
    for i in 0..mlp.depth() {
        out.extend_from_slice(mlp.weights(i).as_slice());
        out.extend_from_slice(mlp.biases(i));
    }
    out
}

/// Writes a flat parameter vector (the [`flatten`] layout) back into the
/// model.
fn unflatten(mlp: &mut Mlp, flat: &[f32]) {
    let mut at = 0usize;
    for i in 0..mlp.depth() {
        let shape = mlp.weights(i).shape().to_vec();
        let wlen = shape[0] * shape[1];
        let w = flat[at..at + wlen].to_vec();
        at += wlen;
        let blen = mlp.biases(i).len();
        let b = flat[at..at + blen].to_vec();
        at += blen;
        mlp.set_weights(i, rapid_numerics::Tensor::from_vec(shape, w));
        mlp.set_biases(i, b);
    }
}

/// Snapshot of the model as a checkpointable [`TrainState`].
fn state_of(mlp: &Mlp, step: u64) -> TrainState {
    let layers = (0..mlp.depth())
        .map(|i| {
            let w = mlp.weights(i);
            LayerState {
                rows: w.shape()[0] as u64,
                cols: w.shape()[1] as u64,
                w: w.as_slice().to_vec(),
                b: mlp.biases(i).to_vec(),
            }
        })
        .collect();
    TrainState { step, rng_state: 0, scale: 1.0, scaler_good_steps: 0, layers, alphas: Vec::new() }
}

/// Restores a checkpointed [`TrainState`] into the model.
fn restore_state(mlp: &mut Mlp, state: &TrainState) {
    for (i, layer) in state.layers.iter().enumerate() {
        let shape = vec![layer.rows as usize, layer.cols as usize];
        mlp.set_weights(i, rapid_numerics::Tensor::from_vec(shape, layer.w.clone()));
        mlp.set_biases(i, layer.b.clone());
    }
}

/// The contiguous sub-range of `[start, end)` assigned to member index
/// `idx` of `of` members (balanced split, earlier members get the
/// remainder).
fn shard_range(start: usize, end: usize, idx: usize, of: usize) -> (usize, usize) {
    let len = end - start;
    let base = len / of;
    let rem = len % of;
    let lo = start + idx * base + idx.min(rem);
    let hi = lo + base + usize::from(idx < rem);
    (lo, hi)
}

/// Trains `mlp` data-parallel over the `membership`'s world with the
/// elastic collective: each step shards the batch over the current
/// members, computes per-node SGD deltas, all-reduces them through
/// [`elastic_allreduce`] (healing crashes and hangs,
/// deadline-bounding stragglers), and applies the contributor mean —
/// gradient averaging rescaled to the surviving world.
///
/// Each epoch ends in a coordinated checkpoint barrier when a store is
/// attached; with [`ElasticTrainConfig::rejoin_at_barrier`] spliced nodes
/// rejoin there, catching up from the just-written generation. A loop
/// started over a non-empty store resumes after the epochs its newest
/// generation covers.
///
/// Returns the final training accuracy — evaluated on the clean FP32
/// path — and the [`ElasticReport`].
///
/// # Errors
///
/// [`ElasticTrainError::Ring`] when the world shrinks below the
/// configured minimum or the survivor transport fails;
/// [`ElasticTrainError::Checkpoint`] on store I/O failure;
/// [`ElasticTrainError::Numerics`] if a step's numerics trip.
#[allow(clippy::too_many_arguments)] // mirrors run_resilient: the hooks are the API
pub fn train_elastic(
    mlp: &mut Mlp,
    backend: &dyn Backend,
    data: &Dataset,
    cfg: &ElasticTrainConfig,
    membership: &mut Membership,
    mut faults: Option<&mut FaultPlan>,
    mut store: Option<&mut CheckpointStore>,
    mut tele: Option<&mut Telemetry>,
) -> Result<(f64, ElasticReport), ElasticTrainError> {
    if cfg.batch == 0 || data.is_empty() {
        return Err(ElasticTrainError::InvalidConfig(
            "batch size and dataset must be non-empty".to_string(),
        ));
    }
    let world = membership.world() as usize;
    let mut report = ElasticReport::default();
    let mut gstep = 0u64;
    let mut start_epoch = 0usize;

    // Resume: a non-empty store means earlier epochs already ran to their
    // barriers. Generation g is the barrier at the end of epoch
    // (epochs_before_store + g) — with a fresh loop per store, epoch g.
    if let Some(st) = store.as_deref_mut() {
        if let Some((gen, state)) = st.load_latest()? {
            restore_state(mlp, &state);
            gstep = state.step;
            start_epoch = (gen + 1) as usize;
            report.epochs_resumed = gen + 1;
        }
    }

    for _epoch in start_epoch..cfg.epochs {
        let mut at = 0usize;
        while at < data.len() {
            let end = (at + cfg.batch).min(data.len());
            let members = membership.members().to_vec();
            if members.is_empty() {
                return Err(ElasticTrainError::Ring(ElasticError::WorldTooSmall {
                    survivors: 0,
                    min: cfg.ring.min_world.max(1),
                }));
            }
            let snapshot = flatten(mlp);
            // Per-node deltas: each member trains its shard of the batch
            // from the shared snapshot. delta = post-step − snapshot =
            // −lr·grad(shard), so averaging deltas over contributors is
            // SGD on the contributor-averaged gradient.
            let mut deltas: Vec<Vec<f32>> = vec![Vec::new(); world];
            for (idx, &node) in members.iter().enumerate() {
                let (lo, hi) = shard_range(at, end, idx, members.len());
                if lo < hi {
                    let (bx, by) = data.batch(lo, hi);
                    let logits = mlp.try_forward(backend, &bx)?;
                    let (_, grad) = softmax_cross_entropy(&logits, by);
                    mlp.try_backward_sgd(backend, &grad, cfg.lr)?;
                }
                let new = flatten(mlp);
                deltas[node as usize] =
                    new.iter().zip(&snapshot).map(|(n, s)| n - s).collect();
                unflatten(mlp, &snapshot);
            }
            // Elastic exchange: heals crashes/hangs, bounds stragglers.
            let out = elastic_allreduce(
                &deltas,
                membership,
                &cfg.ring,
                faults.as_deref_mut(),
                tele.as_deref_mut(),
            )?;
            report.steps_run += 1;
            gstep += 1;
            report.crashes_survived += out.health.crashes_detected;
            report.hangs_survived += out.health.hangs_detected;
            report.stragglers_retained += out.health.stragglers_retained;
            report.stragglers_dropped += out.health.stragglers_dropped;
            report.splices += out.health.splices;
            report.cycles += out.health.cycles;
            report.ideal_cycles += out.health.ideal_cycles;
            report.events.extend_from_slice(&out.events);
            // Contributor mean: the world-rescaled update.
            let k = out.contributors.len() as f32;
            let applied: Vec<f32> = snapshot
                .iter()
                .zip(&out.reduced)
                .map(|(s, r)| s + r / k)
                .collect();
            unflatten(mlp, &applied);
            at = end;
        }
        // Coordinated barrier: one checkpoint generation per epoch.
        if let Some(st) = store.as_deref_mut() {
            st.save(&state_of(mlp, gstep))?;
            report.barriers += 1;
        }
        // Rejoin-with-catchup: spliced nodes come back at the barrier,
        // restoring the generation just written — which IS the live
        // parameters, so catch-up is bit-identical by construction.
        if cfg.rejoin_at_barrier {
            for node in 0..membership.world() {
                if !membership.is_member(node) {
                    membership.rejoin(node);
                    report.rejoins += 1;
                }
            }
        }
    }

    report.final_world = membership.members().len();
    report.final_epoch = membership.epoch();
    if let Some(t) = tele {
        report.record_into(&mut t.registry, "recover.elastic");
    }
    Ok((mlp.accuracy(&Fp32Backend, data), report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_fault::FaultConfig;
    use rapid_refnet::backend::Hfp8Backend;
    use rapid_refnet::data::gaussian_blobs;

    fn world_cfg(world: u32, epochs: usize) -> ElasticTrainConfig {
        ElasticTrainConfig { epochs, ..ElasticTrainConfig::rapid_training(world) }
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
    fn fault_free_elastic_training_converges() {
        let data = gaussian_blobs(256, 4, 16, 0.35, 42);
        let mut mlp = Mlp::new(&[16, 32, 4], 1);
        let mut mem = Membership::new(4).unwrap();
        let (acc, report) = train_elastic(
            &mut mlp,
            &Fp32Backend,
            &data,
            &world_cfg(4, 10),
            &mut mem,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(acc > 0.8, "elastic data-parallel training must converge: {acc}");
        assert_eq!(report.crashes_survived, 0);
        assert_eq!(report.final_world, 4);
        assert_eq!(report.final_epoch, 0);
        assert!(report.events.is_empty());
        assert!((report.goodput() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn crash_mid_run_heals_and_training_finishes_on_survivors() {
        let data = gaussian_blobs(256, 4, 16, 0.35, 42);
        let mut clean = Mlp::new(&[16, 32, 4], 1);
        let mut mem = Membership::new(4).unwrap();
        let (acc_clean, _) = train_elastic(
            &mut clean,
            &Hfp8Backend::default(),
            &data,
            &world_cfg(4, 10),
            &mut mem,
            None,
            None,
            None,
        )
        .unwrap();
        let mut mlp = Mlp::new(&[16, 32, 4], 1);
        let mut mem = Membership::new(4).unwrap();
        let mut plan = crash_plan(7, 0.02, 1);
        let (acc, report) = train_elastic(
            &mut mlp,
            &Hfp8Backend::default(),
            &data,
            &world_cfg(4, 10),
            &mut mem,
            Some(&mut plan),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.crashes_survived, 1, "{report:?}");
        assert_eq!(report.final_world, 3);
        assert_eq!(report.final_epoch, 1);
        assert!(report.goodput() < 1.0, "healing must cost cycles");
        assert!(
            acc >= acc_clean - 0.02,
            "one crash must cost ≤ 2% accuracy: {acc} vs fault-free {acc_clean}"
        );
    }

    #[test]
    fn same_seed_reproduces_identical_weights_and_events() {
        let data = gaussian_blobs(128, 4, 16, 0.35, 43);
        let run = || {
            let mut mlp = Mlp::new(&[16, 24, 4], 2);
            let mut mem = Membership::new(4).unwrap();
            let mut plan = FaultPlan::new(FaultConfig {
                seed: 99,
                node_crash_rate: 0.01,
                node_slow_rate: 0.05,
                node_slow_factor: 1.5,
                ..FaultConfig::default()
            });
            let (acc, report) = train_elastic(
                &mut mlp,
                &Hfp8Backend::default(),
                &data,
                &world_cfg(4, 6),
                &mut mem,
                Some(&mut plan),
                None,
                None,
            )
            .unwrap();
            (flatten(&mlp), acc, report)
        };
        let (w1, a1, r1) = run();
        let (w2, a2, r2) = run();
        assert_eq!(w1, w2, "same seed, bit-identical weights");
        assert!((a1 - a2).abs() < f64::EPSILON);
        assert_eq!(r1.events, r2.events, "same seed, identical event trace");
    }

    #[test]
    fn barrier_checkpoints_resume_bit_identical() {
        let dir = std::env::temp_dir()
            .join(format!("rapid-elastic-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = gaussian_blobs(128, 4, 16, 0.35, 44);
        let cfg = world_cfg(4, 5);
        // Uninterrupted run, checkpointing each barrier.
        let mut full = Mlp::new(&[16, 24, 4], 3);
        let mut mem = Membership::new(4).unwrap();
        let mut store = CheckpointStore::open(dir.join("full"), "el", 8).unwrap();
        train_elastic(
            &mut full,
            &Fp32Backend,
            &data,
            &cfg,
            &mut mem,
            None,
            Some(&mut store),
            None,
        )
        .unwrap();
        // Interrupted run: same schedule but only the first 4 epochs —
        // the store now holds generation N-1.
        let mut part = Mlp::new(&[16, 24, 4], 3);
        let mut mem = Membership::new(4).unwrap();
        let mut store2 = CheckpointStore::open(dir.join("part"), "el", 8).unwrap();
        train_elastic(
            &mut part,
            &Fp32Backend,
            &data,
            &ElasticTrainConfig { epochs: 4, ..cfg },
            &mut mem,
            None,
            Some(&mut store2),
            None,
        )
        .unwrap();
        // Catch-up: a fresh node over the interrupted store resumes from
        // generation N-1 and replays the final epoch.
        let mut rejoined = Mlp::new(&[16, 24, 4], 3);
        let mut mem = Membership::new(4).unwrap();
        let mut store3 = CheckpointStore::open(dir.join("part"), "el", 8).unwrap();
        let (_, report) = train_elastic(
            &mut rejoined,
            &Fp32Backend,
            &data,
            &cfg,
            &mut mem,
            None,
            Some(&mut store3),
            None,
        )
        .unwrap();
        assert_eq!(report.epochs_resumed, 4, "{report:?}");
        assert_eq!(
            flatten(&rejoined),
            flatten(&full),
            "catch-up from generation N-1 must be bit-identical at the next barrier"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejoined_nodes_return_at_the_barrier() {
        let data = gaussian_blobs(128, 4, 16, 0.35, 45);
        let dir = std::env::temp_dir()
            .join(format!("rapid-elastic-rejoin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mlp = Mlp::new(&[16, 24, 4], 4);
        let mut mem = Membership::new(4).unwrap();
        let mut store = CheckpointStore::open(&dir, "el", 4).unwrap();
        let mut plan = crash_plan(13, 0.05, 1);
        let cfg = ElasticTrainConfig { rejoin_at_barrier: true, ..world_cfg(4, 6) };
        let (_, report) = train_elastic(
            &mut mlp,
            &Fp32Backend,
            &data,
            &cfg,
            &mut mem,
            Some(&mut plan),
            Some(&mut store),
            None,
        )
        .unwrap();
        assert_eq!(report.crashes_survived, 1, "{report:?}");
        assert!(report.rejoins >= 1);
        assert_eq!(report.final_world, 4, "the crashed node is back by the end");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_counters_cover_both_layers() {
        let data = gaussian_blobs(64, 4, 16, 0.35, 46);
        let mut mlp = Mlp::new(&[16, 24, 4], 5);
        let mut mem = Membership::new(4).unwrap();
        let mut plan = crash_plan(21, 1.0, 1);
        let mut tele = Telemetry::default();
        let (_, report) = train_elastic(
            &mut mlp,
            &Fp32Backend,
            &data,
            &world_cfg(4, 2),
            &mut mem,
            Some(&mut plan),
            None,
            Some(&mut tele),
        )
        .unwrap();
        assert_eq!(tele.registry.counter("recover.elastic.crashes_survived"), 1);
        assert_eq!(
            tele.registry.counter("recover.elastic.steps_run"),
            report.steps_run
        );
        assert_eq!(
            tele.registry.counter("ring.elastic.exchanges"),
            report.steps_run,
            "every step is one instrumented elastic exchange"
        );
        assert!(tele.registry.counter("ring.elastic.splices") >= 1);
    }

    #[test]
    fn shard_ranges_partition_the_batch() {
        for (len, of) in [(32usize, 4usize), (10, 3), (7, 4), (3, 4)] {
            let mut covered = 0;
            for idx in 0..of {
                let (lo, hi) = shard_range(100, 100 + len, idx, of);
                assert!(lo <= hi && hi <= 100 + len);
                covered += hi - lo;
            }
            assert_eq!(covered, len, "shards must cover the batch exactly");
        }
    }
}
