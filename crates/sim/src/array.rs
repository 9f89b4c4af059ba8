//! The corelet's systolic MPE array as a cycle-tracked state machine.
//!
//! The array executes the weight-stationary dataflow of Fig 5 one
//! (co-tile, ci-block) stationary block at a time:
//!
//! 1. **BlockLoad** — pull the block's weights from the weight link into
//!    the LRFs (the array is occupied, as with the `BlockLoad` MPE
//!    instruction);
//! 2. **Fill** — systolic pipeline fill (`rows + cols` cycles);
//! 3. **Stream** — consume input positions from the input link at up to
//!    `ci_tile(precision)` elements/cycle;
//! 4. signal the weight sequencer (token) so the next block may load.
//!
//! Ticks set the time and never compute. While a tile streams, the array
//! records the operands it actually popped from its links: each block's
//! LRF rows and each position's A slice. When the tile's last block
//! finishes, the tile's values and zero-gated count come from one call to
//! the `rapid-numerics` kernels on exactly those operands
//! ([`matmul_emulated_with`] at chunk `ci_lrf`, or [`matmul_int_with`] at
//! chunk 64), so a scratchpad word that reached a link reaches the values.
//! The cycle counts are what the calibration experiment (E9) compares
//! with the analytical model.

use crate::error::SimError;
use crate::seq::Link;
use crate::token::TokenFile;
use rapid_arch::geometry::CoreletConfig;
use rapid_arch::precision::Precision;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{matmul_emulated_with, matmul_int_with, Exec};
use rapid_numerics::int::QuantParams;
use rapid_numerics::Tensor;

/// Token the array signals when a stationary block has fully streamed and
/// its LRF may be overwritten.
pub const TOKEN_BLOCK_FREE: u8 = 0;

/// INT16 chunk length of the FXU pipeline.
const INT_CHUNK: usize = 64;

/// How the array's datapath computes (which pipeline + quantizers).
#[derive(Debug, Clone)]
pub enum Datapath {
    /// FPU pipeline (FP16 or HFP8). The kernel quantizes the received
    /// words to the mode's operand formats, so a corrupted word counts only
    /// through the bits those formats keep.
    Float {
        /// FMA mode (fixes operand formats and sub-SIMD factor).
        mode: FmaMode,
    },
    /// FXU pipeline: INT4/INT2 codes with INT16-chunk accumulation.
    Int {
        /// Input-activation quantization.
        qa: QuantParams,
        /// Weight quantization.
        qb: QuantParams,
    },
}

/// Phase of the block state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    BlockLoad,
    Fill(u64),
    Stream,
    Done,
}

/// Static description of the GEMM the array runs: `C[M,N] = A[M,K]×B[K,N]`
/// restricted to this corelet's share of output tiles.
#[derive(Debug, Clone)]
pub struct ArrayJob {
    /// Stream positions (rows of A).
    pub m: u64,
    /// Reduction length.
    pub k: u64,
    /// Output-column tiles owned by this corelet: `(col_start, width)`.
    pub tiles: Vec<(u64, u64)>,
    /// Execution precision.
    pub precision: Precision,
}

/// The corelet MPE array simulator.
#[derive(Debug)]
pub struct MpeArray {
    cfg: CoreletConfig,
    job: ArrayJob,
    datapath: Datapath,
    // Iteration state.
    tile_idx: usize,
    block_idx: u64,
    n_blocks: u64,
    phase: Phase,
    // Weights loaded into the current block's LRFs.
    lrf_filled: u64,
    // Current streaming position and the elements it has received.
    pos: u64,
    pos_filled: u64,
    // Operands the current tile received: A `[m, k]` and B `[k, width]`,
    // both row-major.
    tile_a: Vec<f32>,
    tile_b: Vec<f32>,
    /// Completed outputs: `(row, col, value)` triples.
    pub outputs: Vec<(u64, u64, f32)>,
    /// Cycles spent per phase: `[blockload, fill, stream, starved]`.
    pub phase_cycles: [u64; 4],
    /// MACs actually issued (zero-gated included).
    pub macs: u64,
    /// Zero-gated MACs.
    pub zero_gated: u64,
}

impl MpeArray {
    /// An array for `job`, rejecting structurally invalid jobs (no tiles,
    /// zero reduction, or no stream positions) with
    /// [`SimError::InvalidConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub(crate) fn try_new(
        cfg: CoreletConfig,
        job: ArrayJob,
        datapath: Datapath,
    ) -> Result<Self, SimError> {
        if job.tiles.is_empty() {
            return Err(SimError::InvalidConfig("job must own at least one tile".to_string()));
        }
        if job.k == 0 || job.m == 0 {
            return Err(SimError::InvalidConfig(format!(
                "degenerate GEMM: m = {}, k = {}",
                job.m, job.k
            )));
        }
        let ci_lrf = u64::from(cfg.ci_lrf_max(job.precision));
        let n_blocks = job.k.div_ceil(ci_lrf);
        let tile_a = vec![0.0; (job.m * job.k) as usize];
        let mut array = Self {
            cfg,
            job,
            datapath,
            tile_idx: 0,
            block_idx: 0,
            n_blocks,
            phase: Phase::BlockLoad,
            lrf_filled: 0,
            pos: 0,
            pos_filled: 0,
            tile_a,
            tile_b: Vec::new(),
            outputs: Vec::new(),
            phase_cycles: [0; 4],
            macs: 0,
            zero_gated: 0,
        };
        array.start_tile();
        Ok(array)
    }

    fn ci_lrf(&self) -> u64 {
        u64::from(self.cfg.ci_lrf_max(self.job.precision))
    }

    /// Reduction depth of the current block.
    fn block_ci(&self) -> u64 {
        let ci_lrf = self.ci_lrf();
        let start = self.block_idx * ci_lrf;
        (self.job.k - start).min(ci_lrf)
    }

    fn tile_width(&self) -> u64 {
        self.job.tiles[self.tile_idx].1
    }

    fn start_tile(&mut self) {
        // Every A element is overwritten as the tile streams; B is rebuilt
        // block by block in load order, which is row-major `[k, width]`.
        self.tile_b.clear();
        self.block_idx = 0;
        self.begin_block();
    }

    fn begin_block(&mut self) {
        self.lrf_filled = 0;
        self.pos = 0;
        self.pos_filled = 0;
        self.phase = Phase::BlockLoad;
    }

    /// Whether the whole job completed.
    pub(crate) fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// A composite counter that changes whenever the array makes forward
    /// progress, for watchdog change-detection. Deliberately excludes the
    /// block-load and starvation cycle counters, which tick even when the
    /// array is wedged waiting on data that will never arrive.
    pub(crate) fn progress_marker(&self) -> u64 {
        self.macs
            .wrapping_add(self.outputs.len() as u64)
            .wrapping_add(self.lrf_filled)
            .wrapping_add(self.pos)
            .wrapping_add(self.pos_filled)
            .wrapping_add(self.block_idx)
            .wrapping_add(self.tile_idx as u64)
            .wrapping_add(self.phase_cycles[1])
            .wrapping_add(self.phase_cycles[2])
    }

    /// One cycle: consumes from the weight/input links per the phase.
    pub(crate) fn tick(&mut self, weights: &mut Link, inputs: &mut Link, tokens: &mut TokenFile) {
        match self.phase {
            Phase::Done => {}
            Phase::BlockLoad => {
                self.phase_cycles[0] += 1;
                // The LRF write port absorbs up to one L1 port's worth of
                // weights per cycle; the weight link is already
                // budget-limited, so drain whatever arrived.
                let need = self.block_ci() * self.tile_width();
                while self.lrf_filled < need {
                    let Some(v) = weights.pop() else { break };
                    self.tile_b.push(v);
                    self.lrf_filled += 1;
                }
                if self.lrf_filled == need {
                    self.phase = Phase::Fill(self.cfg.pipeline_fill_cycles());
                }
            }
            Phase::Fill(n) => {
                self.phase_cycles[1] += 1;
                self.phase = if n <= 1 { Phase::Stream } else { Phase::Fill(n - 1) };
            }
            Phase::Stream => {
                // Per cycle the rows accept up to ci_tile input elements.
                let ci_cyc = u64::from(self.cfg.ci_tile(self.job.precision));
                let need = self.block_ci();
                let row = (self.pos * self.job.k + self.block_idx * self.ci_lrf()) as usize;
                let mut taken = 0;
                while taken < ci_cyc && self.pos_filled < need {
                    let Some(v) = inputs.pop() else { break };
                    self.tile_a[row + self.pos_filled as usize] = v;
                    self.pos_filled += 1;
                    taken += 1;
                }
                if taken == 0 && self.pos_filled < need {
                    self.phase_cycles[3] += 1; // starved on inputs
                    return;
                }
                self.phase_cycles[2] += 1;
                if self.pos_filled == need {
                    // The position issues its FMMA work against the
                    // stationary block.
                    self.macs += need * self.tile_width();
                    self.pos_filled = 0;
                    self.pos += 1;
                    if self.pos == self.job.m {
                        self.finish_block(tokens);
                    }
                }
            }
        }
    }

    fn finish_block(&mut self, tokens: &mut TokenFile) {
        tokens.signal(TOKEN_BLOCK_FREE);
        self.block_idx += 1;
        if self.block_idx < self.n_blocks {
            self.begin_block();
            return;
        }
        self.compute_tile();
        self.tile_idx += 1;
        if self.tile_idx == self.job.tiles.len() {
            self.phase = Phase::Done;
        } else {
            self.start_tile();
        }
    }

    /// Computes the finished tile's outputs from the operands it received.
    // The recorded operands are `[m, k] × [k, width]` by construction, the
    // chunk lengths are positive, and the default guard policy propagates,
    // so the kernels cannot fail here; a failure is a simulator bug.
    #[allow(clippy::expect_used)]
    fn compute_tile(&mut self) {
        let (m, k) = (self.job.m as usize, self.job.k as usize);
        let (col_start, w) = self.job.tiles[self.tile_idx];
        let a = Tensor::from_vec(vec![m, k], std::mem::take(&mut self.tile_a));
        let b = Tensor::from_vec(vec![k, w as usize], std::mem::take(&mut self.tile_b));
        let (c, stats) = match &self.datapath {
            Datapath::Float { mode } => {
                matmul_emulated_with(*mode, &a, &b, self.ci_lrf() as usize, Exec::default())
            }
            Datapath::Int { qa, qb } => {
                matmul_int_with(&a, &b, *qa, *qb, INT_CHUNK, Exec::default())
            }
        }
        .expect("tile operands are [m, k] x [k, width]");
        self.zero_gated += stats.zero_gated;
        for (r, row) in c.as_slice().chunks_exact(w as usize).enumerate() {
            for (cc, &v) in row.iter().enumerate() {
                self.outputs.push((r as u64, col_start + cc as u64, v));
            }
        }
        self.tile_a = a.into_vec();
        self.tile_b = b.into_vec();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn drive(
        array: &mut MpeArray,
        weights: &mut Link,
        inputs: &mut Link,
        feed: impl Fn(u64) -> (Vec<f32>, Vec<f32>),
    ) -> u64 {
        // Test harness: refill links greedily each cycle from the feed
        // closure (cycle -> (weight elems, input elems) to offer).
        let mut tokens = TokenFile::new(2);
        let mut cycle = 0u64;
        while !array.is_done() {
            let (ws, is) = feed(cycle);
            for w in ws {
                let _ = weights.push(w);
            }
            for i in is {
                let _ = inputs.push(i);
            }
            array.tick(weights, inputs, &mut tokens);
            cycle += 1;
            assert!(cycle < 1_000_000, "array did not finish");
        }
        cycle
    }

    #[test]
    fn tiny_fp16_gemm_is_exact() {
        // 2×2 GEMM with one tile of width 2, k=2.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 2, k: 2, tiles: vec![(0, 2)], precision: Precision::Fp16 };
        let a = [[1.0f32, 2.0], [3.0, 4.0]]; // [m][k]
        let b = [[5.0f32, 6.0], [7.0, 8.0]]; // [k][n]
        let mut array = MpeArray::try_new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 })
            .expect("valid job");
        let mut wl = Link::new(1024);
        let mut il = Link::new(1024);
        // Weights stream ci-major: row ci=0 (cols), row ci=1.
        for row in &b {
            for &v in row {
                wl.push(v);
            }
        }
        // Inputs: position 0 (k elems), position 1.
        for row in &a {
            for &v in row {
                il.push(v);
            }
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        let mut c = [[0.0f32; 2]; 2];
        for &(r, cc, v) in &array.outputs {
            c[r as usize][cc as usize] = v;
        }
        assert_eq!(c, [[19.0, 22.0], [43.0, 50.0]]);
        assert_eq!(array.macs, 8);
    }

    #[test]
    fn stream_rate_matches_ci_tile() {
        // k = 64 at FP16: 8 elems/cycle -> 8 stream cycles per position.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 4, k: 64, tiles: vec![(0, 8)], precision: Precision::Fp16 };
        let mut array = MpeArray::try_new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 })
            .expect("valid job");
        let mut wl = Link::new(4096);
        let mut il = Link::new(4096);
        for _ in 0..64 * 8 {
            wl.push(0.5);
        }
        for _ in 0..4 * 64 {
            il.push(1.0);
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        // 4 positions × ceil(64/8) = 32 stream cycles.
        assert_eq!(array.phase_cycles[2], 32);
        for &(_, _, v) in &array.outputs {
            assert_eq!(v, 32.0); // 64 × 0.5
        }
    }

    #[test]
    fn starved_inputs_are_counted() {
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 1, k: 8, tiles: vec![(0, 1)], precision: Precision::Fp16 };
        let mut array = MpeArray::try_new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 })
            .expect("valid job");
        let mut wl = Link::new(64);
        let mut il = Link::new(64);
        for _ in 0..8 {
            wl.push(1.0);
        }
        // Deliver inputs 1 element every fourth cycle — slower than the
        // block-load + fill phases can buffer ahead.
        let cycles = drive(&mut array, &mut wl, &mut il, |c| {
            if c % 4 == 0 {
                (vec![], vec![1.0])
            } else {
                (vec![], vec![])
            }
        });
        assert!(array.phase_cycles[3] > 0, "starvation must be visible");
        assert!(cycles > 8);
        assert_eq!(array.outputs[0].2, 8.0);
    }

    #[test]
    fn int4_datapath_quantizes_and_scales() {
        use rapid_numerics::int::{IntFormat, Signedness};
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 1, k: 4, tiles: vec![(0, 2)], precision: Precision::Int4 };
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 7.0);
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 7.0);
        let mut array = MpeArray::try_new(cfg, job, Datapath::Int { qa, qb })
            .expect("valid job");
        let mut wl = Link::new(64);
        let mut il = Link::new(64);
        // b rows (k=4, n=2): all ones; a: [1, 2, 3, 4].
        for _ in 0..4 {
            wl.push(1.0);
            wl.push(2.0);
        }
        for v in [1.0, 2.0, 3.0, 4.0] {
            il.push(v);
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        // Exact: col0 = 10, col1 = 20 (all values on the integer grid).
        assert_eq!(array.outputs[0].2, 10.0);
        assert_eq!(array.outputs[1].2, 20.0);
    }

    #[test]
    fn float_datapath_requantizes_received_words() {
        // An unprotected scratchpad delivers a flipped bit inside an f32
        // word. The kernel quantizes the word to the operand format, so a
        // flip below FP16 precision rounds away while a sign or exponent
        // flip reaches the output.
        let run = |first: f32| {
            let cfg = CoreletConfig::default();
            let job = ArrayJob { m: 1, k: 4, tiles: vec![(0, 2)], precision: Precision::Fp16 };
            let mut array = MpeArray::try_new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 })
                .expect("valid job");
            let mut wl = Link::new(64);
            let mut il = Link::new(64);
            for _ in 0..4 {
                wl.push(0.5);
                wl.push(2.0);
            }
            for v in [first, 2.0, 3.0, 4.0] {
                il.push(v);
            }
            drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
            array.outputs[0].2
        };
        let clean = 1.5f32;
        let flipped = |bit: u32| f32::from_bits(clean.to_bits() ^ (1 << bit));
        assert_eq!(run(clean), 5.25);
        assert_eq!(run(flipped(0)), run(clean), "sub-FP16 flip must round away");
        assert_ne!(run(flipped(31)), run(clean), "sign flip must reach the output");
        assert_ne!(run(flipped(23)), run(clean), "exponent flip must reach the output");
    }

    #[test]
    fn multi_block_reduction_signals_tokens() {
        // k = 300 at FP16 (LRF depth 128): 3 blocks -> 3 block-free tokens.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 2, k: 300, tiles: vec![(0, 4)], precision: Precision::Fp16 };
        let mut array = MpeArray::try_new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 })
            .expect("valid job");
        let mut wl = Link::new(8192);
        let mut il = Link::new(8192);
        let mut tokens = TokenFile::new(2);
        for _ in 0..300 * 4 {
            wl.push(0.25);
        }
        for _ in 0..2 * 300 {
            il.push(2.0);
        }
        let mut guard = 0;
        while !array.is_done() {
            array.tick(&mut wl, &mut il, &mut tokens);
            guard += 1;
            assert!(guard < 100_000);
        }
        assert_eq!(tokens.snapshot()[usize::from(TOKEN_BLOCK_FREE)].1, 3);
        // 300 × 0.25 × 2 = 150, exactly representable.
        assert_eq!(array.outputs[0].2, 150.0);
    }
}
