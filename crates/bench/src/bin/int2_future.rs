//! The paper's stated future work (§VII): "we plan to study INT2
//! performance of RAPID". This binary runs that study on the model —
//! batch-1 INT2 inference across the suite — together with the accuracy
//! caveat the paper gives (≈2% loss at 2 bits, §II-C), demonstrated on
//! the reference trainer.

use rapid_arch::precision::Precision;
use rapid_bench::{compare, infer, mean, min_max, run, section, suite_map};
use rapid_numerics::int::IntFormat;
use rapid_refnet::backend::Fp32Backend;
use rapid_refnet::data::gaussian_blobs;
use rapid_refnet::mlp::{train, Mlp, TrainConfig};
use rapid_refnet::qat::{train_qat, QatConfig, QatMlp};
use rapid_refnet::quantized::QuantizedMlp;

fn main() -> std::process::ExitCode {
    run("int2_future", |ctx| {
        section("future work — INT2 inference performance (paper §VII)");
        println!(
            "{:<12} {:>11} {:>11} {:>10} {:>10}",
            "benchmark", "int4 inf/s", "int2 inf/s", "int2/int4", "int2/fp16"
        );
        let rows = suite_map(|net| {
            (
                infer(net, Precision::Fp16, None),
                infer(net, Precision::Int4, None),
                infer(net, Precision::Int2, None),
            )
        });
        let mut vs_int4 = Vec::new();
        let mut vs_fp16 = Vec::new();
        for (name, (fp16, int4, int2)) in &rows {
            let r4 = int4.latency_s / int2.latency_s;
            let r16 = fp16.latency_s / int2.latency_s;
            vs_int4.push(r4);
            vs_fp16.push(r16);
            println!(
                "{:<12} {:>11.0} {:>11.0} {:>9.2}x {:>9.2}x",
                name, int4.throughput_per_s, int2.throughput_per_s, r4, r16
            );
        }
        let (lo, hi) = min_max(&vs_int4);
        compare(
            "INT2 speedup over INT4",
            format!("{lo:.2}x - {hi:.2}x (avg {:.2}x)", mean(&vs_int4)),
            "n/a (future work; engines are 2x INT4)",
        );
        compare("INT2 speedup over FP16", format!("avg {:.2}x", mean(&vs_fp16)), "n/a");
        println!("\nINT2 gains are much smaller than the 2x engine ratio: at 128 channels/cycle");
        println!("most layers exhaust their input-channel parallelism, and quantization +");
        println!(
            "auxiliary work (unchanged from INT4) dominates — the reason the paper defers it."
        );

        section("accuracy caveat (§II-C): INT2 PTQ vs QAT on the reference task");
        let data = gaussian_blobs(512, 4, 16, 0.5, 99);
        let mut fp = Mlp::new(&[16, 32, 4], 5);
        let acc_fp = train(&mut fp, &Fp32Backend, &data, &TrainConfig::default());
        let ptq2 = QuantizedMlp::quantize(&fp, IntFormat::Int2, &data).accuracy(&data);
        let mut q = QatMlp::new(&[16, 32, 4], IntFormat::Int2, 5);
        let qat2 = train_qat(&mut q, &data, &QatConfig::default());
        compare("FP32 reference accuracy", format!("{:.1}%", acc_fp * 100.0), "reference");
        compare(
            "INT2 post-training quantization",
            format!("{:.1}% ({:+.1} pts)", ptq2 * 100.0, (ptq2 - acc_fp) * 100.0),
            "≈2% loss",
        );
        compare(
            "INT2 quantization-aware training (PACT+SaWB)",
            format!("{:.1}% ({:+.1} pts)", qat2 * 100.0, (qat2 - acc_fp) * 100.0),
            "recovers most of the loss",
        );
        ctx.rec.metric("int2_vs_int4_speedup.mean", mean(&vs_int4));
        ctx.rec.metric("int2_vs_fp16_speedup.mean", mean(&vs_fp16));
        ctx.rec.metric("fp32_acc", acc_fp);
        ctx.rec.metric("int2_ptq_acc", ptq2);
        ctx.rec.metric("int2_qat_acc", qat2);
        Ok(())
    })
}
