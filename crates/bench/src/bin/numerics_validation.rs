//! Experiment E10: validate the paper's numerics claims end-to-end —
//! HFP8 training parity with FP32 (§II-B) and INT4/INT2 post-training
//! quantization accuracy with PACT + SaWB (§II-C) — on synthetic tasks.

use rapid_bench::{compare, run, section};
use rapid_numerics::accumulate::{dot_chunked, dot_flat_fp16};
use rapid_numerics::dispatch::kernel_matrix;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::int::IntFormat;
use rapid_refnet::backend::{Fp16Backend, Fp32Backend, Hfp8Backend};
use rapid_refnet::conv::{pattern_images, TinyCnn};
use rapid_refnet::data::gaussian_blobs;
use rapid_refnet::lstm::{parity_sequences, GateMath, LstmNet};
use rapid_refnet::mlp::{softmax_cross_entropy, train, Mlp, TrainConfig};
use rapid_refnet::quantized::QuantizedMlp;

fn main() -> std::process::ExitCode {
    run("numerics_validation", |ctx| {
        section("E10.0 — kernel selection matrix (128³, chunk 64, current RAPID_SIMD)");
        for choice in kernel_matrix() {
            compare(&format!("  {}", choice.format), choice.backend, &choice.reason);
            ctx.rec.config_str(&format!("kernel.{}", choice.format), &choice.backend.to_string());
        }

        section("E10.1 — chunk-based accumulation (Sakr et al. [51])");
        let n = 8192;
        let a = vec![1.0f32; n];
        let b = vec![0.25f32; n];
        let exact = 0.25 * n as f32;
        let flat = dot_flat_fp16(FmaMode::Fp16, &a, &b);
        let chunked = dot_chunked(FmaMode::Fp16, &a, &b, 64);
        compare("flat FP16 accumulation of 8192 terms", flat, "swamps (stalls near 512)");
        compare("chunked accumulation (chunk 64)", chunked, format!("exact = {exact}").as_str());

        section("E10.2 — HFP8 training parity (paper §II-B, refs [44, 45])");
        let data = gaussian_blobs(1024, 4, 16, 0.35, 42);
        let cfg = TrainConfig { lr: 0.1, epochs: 40, batch: 32 };
        let mut fp32 = Mlp::new(&[16, 32, 4], 1);
        let acc32 = train(&mut fp32, &Fp32Backend, &data, &cfg);
        let mut fp16 = Mlp::new(&[16, 32, 4], 1);
        let acc16 = train(&mut fp16, &Fp16Backend::default(), &data, &cfg);
        let mut hfp8 = Mlp::new(&[16, 32, 4], 1);
        let acc8 = train(&mut hfp8, &Hfp8Backend::default(), &data, &cfg);
        compare("FP32 training accuracy", format!("{:.1}%", acc32 * 100.0), "reference");
        compare("FP16 (DLFloat) training accuracy", format!("{:.1}%", acc16 * 100.0), "≈ FP32");
        compare(
            "HFP8 training accuracy",
            format!("{:.1}% ({:+.1} pts)", acc8 * 100.0, (acc8 - acc32) * 100.0),
            "equivalent to FP32",
        );

        section("E10.3 — HFP8 parity beyond MLPs: CNN and LSTM");
        // CNN on a texture-classification task.
        let (xi, yi) = pattern_images(128, 4, 0.15, 9);
        let cnn_acc = |backend: &dyn rapid_refnet::backend::Backend| {
            let mut cnn = TinyCnn::new(1, 4, 8, 4, 3);
            for _ in 0..60 {
                let logits = cnn.forward(backend, &xi);
                let (_, grad) = softmax_cross_entropy(&logits, &yi);
                cnn.backward_sgd(backend, &grad, 0.5);
            }
            cnn.accuracy(backend, &xi, &yi)
        };
        let c32 = cnn_acc(&Fp32Backend);
        let c8 = cnn_acc(&Hfp8Backend::default());
        compare("CNN (texture task) FP32", format!("{:.1}%", c32 * 100.0), "reference");
        compare(
            "CNN HFP8",
            format!("{:.1}% ({:+.1} pts)", c8 * 100.0, (c8 - c32) * 100.0),
            "≈ FP32",
        );
        // LSTM on sequence parity with SFU-approximated gates.
        let (seqs, labels) = parity_sequences(96, 5, 17);
        let lstm_acc = |gates, backend: &dyn rapid_refnet::backend::Backend| {
            let mut net = LstmNet::new(12, gates, 4);
            for _ in 0..500 {
                net.train_step(backend, &seqs, &labels, 1.2);
            }
            net.accuracy(backend, &seqs, &labels)
        };
        let l_exact = lstm_acc(GateMath::Exact, &Fp32Backend);
        let l_hfp8 = lstm_acc(GateMath::SfuAccurate, &Hfp8Backend::default());
        compare(
            "LSTM (parity) FP32 + exact gates",
            format!("{:.1}%", l_exact * 100.0),
            "reference",
        );
        compare(
            "LSTM HFP8 + SFU-approximated gates",
            format!("{:.1}% ({:+.1} pts)", l_hfp8 * 100.0, (l_hfp8 - l_exact) * 100.0),
            "≈ FP32 (§III-B approximations suffice)",
        );

        section("E10.4 — INT4/INT2 PTQ with PACT + SaWB (paper §II-C, refs [42, 46])");
        let int4 = QuantizedMlp::quantize(&fp32, IntFormat::Int4, &data).accuracy(&data);
        let int2 = QuantizedMlp::quantize(&fp32, IntFormat::Int2, &data).accuracy(&data);
        compare(
            "INT4 quantized accuracy",
            format!("{:.1}% ({:+.1} pts)", int4 * 100.0, (int4 - acc32) * 100.0),
            "negligible loss",
        );
        compare(
            "INT2 quantized accuracy",
            format!("{:.1}% ({:+.1} pts)", int2 * 100.0, (int2 - acc32) * 100.0),
            "minimal loss (≈2%)",
        );
        ctx.rec.metric("mlp.fp32_acc", acc32);
        ctx.rec.metric("mlp.fp16_acc", acc16);
        ctx.rec.metric("mlp.hfp8_acc", acc8);
        ctx.rec.metric("cnn.fp32_acc", c32);
        ctx.rec.metric("cnn.hfp8_acc", c8);
        ctx.rec.metric("lstm.fp32_acc", l_exact);
        ctx.rec.metric("lstm.hfp8_sfu_acc", l_hfp8);
        ctx.rec.metric("mlp.int4_ptq_acc", int4);
        ctx.rec.metric("mlp.int2_ptq_acc", int2);
        Ok(())
    })
}
