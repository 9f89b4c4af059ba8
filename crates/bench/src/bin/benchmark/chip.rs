//! Cycle simulation of whole networks on the 4-core chip.
//!
//! Every compute layer of ResNet50 (INT4, first and last layer FP16) and of
//! one BERT encoder layer (HFP8) is lowered to a GEMM — convolutions
//! through `numerics::gemm::im2col` — and run on `sim`'s chip model, whose
//! operand distribution goes over the `ring`. The analytic mapping model of
//! `compiler` prices the same GEMM, and its error against the simulated
//! compute cycles is tracked per layer.

use crate::bert;
use crate::cnn::CnnPlan;
use crate::ops::{cols, put_cols, CHUNK};
use crate::trace::Recorder;
use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_compiler::mapping::map_layer;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{self, ConvSpec};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::Tensor;
use rapid_sim::chip::{try_run_chip_gemm, ChipGemmJob};
use rapid_workloads::cnn::resnet50;
use rapid_workloads::graph::Op;
use std::time::Instant;

/// One simulated layer.
#[derive(Debug, Clone)]
struct Layer {
    /// Convolution input `[1, ci, h, w]`, kernel size and geometry; `None`
    /// for GEMM layers, whose A operand stays in the job.
    conv: Option<(Tensor, usize, ConvSpec)>,
    job: ChipGemmJob,
    /// The lowered GEMM, for the analytic model.
    op: Op,
    /// Identical instances per network pass (attention heads).
    repeat: u64,
    macs: u64,
}

/// Cycles of one layer's latest simulation.
#[derive(Debug, Default, Clone, Copy)]
struct Cycles {
    total: u64,
    compute: u64,
    distribution: u64,
    model: f64,
}

/// The chip-simulation workload.
#[derive(Debug, Clone)]
pub struct Chip {
    cfg: ChipConfig,
    layers: Vec<Layer>,
    cycles: Vec<Cycles>,
    sim_ns: u128,
    sim_cycles: u64,
}

fn gemm_layer(a: Tensor, b: Tensor, precision: Precision, repeat: u64) -> Layer {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    Layer {
        conv: None,
        job: ChipGemmJob { a, b, precision },
        op: Op::Gemm { m: m as u64, k: k as u64, n: n as u64, weighted: true },
        repeat,
        macs: (m * k * n) as u64,
    }
}

impl Chip {
    /// ResNet50 at `hw × hw` (its first `max_convs` convolutions plus the
    /// classifier) and one BERT encoder layer of dims `bert`, operands
    /// drawn from `seed`.
    pub fn new(hw: usize, max_convs: usize, bert: bert::Dims, seed: u64) -> Result<Self, String> {
        let plan = CnnPlan::build(&resnet50(), hw, 1, seed)?;
        let mut layers = Vec::new();
        let mut draw = seed;
        let mut operand = |shape: Vec<usize>, lo: f32| {
            draw = draw.wrapping_add(0x9e37_79b9_7f4a_7c15);
            Tensor::random_uniform(shape, lo, 1.0, draw)
        };
        for c in plan.convs().take(max_convs) {
            let [ci, h, w] = c.input;
            let (co, k) = (c.w.shape()[0], c.w.shape()[2]);
            let b =
                c.w.clone().reshape(vec![co, ci * k * k]).map_err(|e| e.to_string())?.transposed();
            let (ho, wo) = (c.spec.out_dim(h, k), c.spec.out_dim(w, k));
            let precision = if c.high_precision { Precision::Fp16 } else { Precision::Int4 };
            let mut layer = gemm_layer(Tensor::zeros(vec![ho * wo, ci * k * k]), b, precision, 1);
            layer.conv = Some((operand(vec![1, ci, h, w], 0.0), k, c.spec));
            layers.push(layer);
        }
        for (w, high_precision) in plan.fcs() {
            let p = if high_precision { Precision::Fp16 } else { Precision::Int4 };
            layers.push(gemm_layer(operand(vec![1, w.shape()[0]], 0.0), w.clone(), p, 1));
        }
        let bert::Dims { seq, hidden: h, heads, ffn } = bert;
        let hd = h / heads;
        let hfp8 = Precision::Hfp8;
        let mut bert_gemm = |m: usize, k: usize, n: usize, repeat: u64| {
            gemm_layer(operand(vec![m, k], -1.0), operand(vec![k, n], -1.0), hfp8, repeat)
        };
        layers.extend([
            bert_gemm(seq, h, 3 * h, 1),
            bert_gemm(seq, hd, seq, heads as u64),
            bert_gemm(seq, seq, hd, heads as u64),
            bert_gemm(seq, h, h, 1),
            bert_gemm(seq, h, ffn, 1),
            bert_gemm(seq, ffn, h, 1),
        ]);
        let cycles = vec![Cycles::default(); layers.len()];
        Ok(Self { cfg: ChipConfig::rapid_4core(), layers, cycles, sim_ns: 0, sim_cycles: 0 })
    }

    /// Layers per network pass.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Modelled chip cycles of layer `i`'s latest simulation, in thousands.
    pub fn kcycles(&self, i: usize) -> f64 {
        self.cycles[i].total as f64 / 1e3
    }

    fn lowered_a(&self, i: usize) -> Tensor {
        match &self.layers[i].conv {
            Some((x, k, spec)) => gemm::im2col(x, *k, *k, *spec),
            None => self.layers[i].job.a.clone(),
        }
    }

    /// Simulates layer `i`; returns the chip's result and the simulated
    /// MMACs.
    pub fn run(&mut self, i: usize, rec: &mut Recorder) -> Result<(Vec<Tensor>, f64), String> {
        let lowered = self.layers[i]
            .conv
            .as_ref()
            .map(|(x, k, spec)| rec.span("numerics.im2col", |_| gemm::im2col(x, *k, *k, *spec)));
        if let Some(a) = lowered {
            self.layers[i].job.a = a;
        }
        let layer = &self.layers[i];
        let cores = self.cfg.cores as usize;
        let t0 = Instant::now();
        let r = rec.span("sim.chip", |r| {
            r.work(layer.macs);
            try_run_chip_gemm(&layer.job, self.cfg.core, cores)
        });
        self.sim_ns += t0.elapsed().as_nanos();
        let r = r.map_err(|e| format!("chip simulation of layer {i}: {e}"))?;
        let corelets = self.cfg.cores * self.cfg.core.corelets;
        let model = rec.span("compiler.map_layer", |_| {
            map_layer(&layer.op, layer.job.precision, 1, &self.cfg.core.corelet, corelets)
                .total_cycles()
        });
        self.sim_cycles += r.total_cycles;
        self.cycles[i] = Cycles {
            total: r.total_cycles,
            compute: r.compute_cycles,
            distribution: r.distribution_cycles,
            model,
        };
        Ok((vec![r.c], layer.macs as f64 / 1e6))
    }

    /// Reference outputs through the scalar kernels: the chip's values must
    /// equal the emulated GEMM at the corelet's accumulation chunk. INT4
    /// layers quantise B per core, over the column slice each core gets.
    pub fn reference(&self) -> Vec<Vec<Tensor>> {
        (0..self.layers.len())
            .map(|i| {
                let (a, b) = (self.lowered_a(i), &self.layers[i].job.b);
                let p = self.layers[i].job.precision;
                let chunk = self.cfg.core.corelet.ci_lrf_max(p) as usize;
                let c = match p {
                    Precision::Int4 => {
                        let q = |t: &Tensor| {
                            QuantParams::from_abs_max(
                                IntFormat::Int4,
                                Signedness::Signed,
                                t.max_abs(),
                            )
                        };
                        let n = b.shape()[1];
                        let per_core = n.div_ceil(self.cfg.cores as usize);
                        let mut c = Tensor::zeros(vec![a.shape()[0], n]);
                        for c0 in (0..n).step_by(per_core) {
                            let slice = cols(b, c0, per_core.min(n - c0));
                            put_cols(
                                &mut c,
                                c0,
                                &gemm::matmul_int_scalar(&a, &slice, q(&a), q(&slice), CHUNK).0,
                            );
                        }
                        c
                    }
                    Precision::Hfp8 => {
                        gemm::matmul_emulated_scalar(FmaMode::hfp8_fwd_default(), &a, b, chunk).0
                    }
                    _ => gemm::matmul_emulated_scalar(FmaMode::Fp16, &a, b, chunk).0,
                };
                vec![c]
            })
            .collect()
    }

    /// Modelled-chip and simulator-speed figures of the latest pass.
    pub fn extras(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&Cycles) -> f64| -> f64 {
            self.layers.iter().zip(&self.cycles).map(|(l, c)| l.repeat as f64 * f(c)).sum()
        };
        let mut weighted = 0.0;
        let mut weight = 0.0;
        let mut worst = 0.0f64;
        for (l, c) in self.layers.iter().zip(&self.cycles) {
            let err = (c.model - c.compute as f64).abs() / (c.compute.max(1) as f64) * 100.0;
            let w = (l.macs * l.repeat) as f64;
            weighted += err * w;
            weight += w;
            worst = worst.max(err);
        }
        let sim_s = self.sim_ns as f64 / 1e9;
        vec![
            ("sim.chip.total_kcycles", sum(|c| c.total as f64) / 1e3),
            ("sim.chip.compute_kcycles", sum(|c| c.compute as f64) / 1e3),
            ("ring.distribution_kcycles", sum(|c| c.distribution as f64) / 1e3),
            (
                "sim.chip.kcycles_per_s",
                if sim_s > 0.0 { self.sim_cycles as f64 / 1e3 / sim_s } else { 0.0 },
            ),
            ("model.err_pct", if weight > 0.0 { weighted / weight } else { 0.0 }),
            ("model.max_layer_err_pct", worst),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::hash;

    #[test]
    fn simulated_layers_match_the_scalar_reference() {
        let dims = bert::Dims { seq: 4, hidden: 16, heads: 2, ffn: 32 };
        let mut chip = Chip::new(8, 3, dims, 5).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(chip.len(), 3 + 1 + 6);
        let reference = chip.reference();
        let mut rec = Recorder::off();
        for (i, want) in reference.iter().enumerate() {
            let (got, mmac) = chip.run(i, &mut rec).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(hash(&got), hash(want), "layer {i}");
            assert!(mmac > 0.0);
        }
        let extras = chip.extras();
        assert!(extras.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
        assert!(extras[0].1 > 0.0);
    }
}
