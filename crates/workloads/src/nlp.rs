//! Language and speech benchmarks: BERT (seq 384), 2-layer LSTM (PTB) and
//! a 4-layer bidirectional LSTM (SWB300).

use crate::graph::{AuxKind, Domain, Layer, Network, Op, PrecisionClass};

fn aux(name: &str, kind: AuxKind, elems: u64) -> Layer {
    Layer::new(name, Op::Aux { kind, elems, ops_per_elem: 1 })
}

fn gemm(name: &str, m: u64, k: u64, n: u64) -> Layer {
    Layer::new(name, Op::Gemm { m, k, n, weighted: true })
}

/// BERT-Base encoder with sequence length 384 (WMT14 En-De fine-tune as in
/// the paper): 12 layers, hidden 768, 12 heads, FFN 3072.
pub fn bert_base_384() -> Network {
    let mut net = Network::new("bert", Domain::NaturalLanguage);
    let (seq, hidden, heads, ffn) = (384u64, 768u64, 12u64, 3072u64);
    let head_dim = hidden / heads;
    // Embedding lookup + additions + layernorm.
    net.layers.push(aux("embed_add", AuxKind::EltwiseAdd, seq * hidden));
    net.layers.push(aux("embed_ln", AuxKind::LayerNorm, seq * hidden));
    for l in 0..12 {
        // Fused QKV projection.
        net.layers.push(gemm(&format!("l{l}_qkv"), seq, hidden, 3 * hidden));
        // Attention scores per head (activation × activation).
        net.layers.push(
            Layer::new(
                format!("l{l}_scores"),
                Op::Gemm { m: seq, k: head_dim, n: seq, weighted: false },
            )
            .repeated(heads),
        );
        net.layers.push(aux(&format!("l{l}_softmax"), AuxKind::Softmax, heads * seq * seq));
        // Context per head.
        net.layers.push(
            Layer::new(
                format!("l{l}_context"),
                Op::Gemm { m: seq, k: seq, n: head_dim, weighted: false },
            )
            .repeated(heads),
        );
        // Output projection + residual + layernorm.
        net.layers.push(gemm(&format!("l{l}_out"), seq, hidden, hidden));
        net.layers.push(aux(&format!("l{l}_res1"), AuxKind::EltwiseAdd, seq * hidden));
        net.layers.push(aux(&format!("l{l}_ln1"), AuxKind::LayerNorm, seq * hidden));
        // Feed-forward block.
        net.layers.push(gemm(&format!("l{l}_ffn1"), seq, hidden, ffn));
        net.layers.push(aux(&format!("l{l}_gelu"), AuxKind::Gelu, seq * ffn));
        net.layers.push(gemm(&format!("l{l}_ffn2"), seq, ffn, hidden));
        net.layers.push(aux(&format!("l{l}_res2"), AuxKind::EltwiseAdd, seq * hidden));
        net.layers.push(aux(&format!("l{l}_ln2"), AuxKind::LayerNorm, seq * hidden));
    }
    // Task head (kept high precision: last layer).
    let mut pooler = gemm("pooler", 1, hidden, hidden);
    pooler.class = PrecisionClass::HighPrecision;
    net.layers.push(pooler);
    let mut cls = gemm("classifier", 1, hidden, 2);
    cls.class = PrecisionClass::HighPrecision;
    net.layers.push(cls);
    net
}

/// Appends one (unidirectional) LSTM layer processing `seq` timesteps:
/// a batched input projection, a sequential recurrent projection, and the
/// gate non-linearities.
fn lstm_layer(net: &mut Network, name: &str, seq: u64, input: u64, hidden: u64) {
    // Input projection x_t → 4h for all timesteps at once (batched).
    net.layers.push(gemm(&format!("{name}_xproj"), seq, input, 4 * hidden));
    // Recurrent projection h_{t-1} → 4h, inherently sequential: one GEMV
    // per timestep (this is where batch-1 utilization collapses, Fig 17).
    net.layers
        .push(gemm(&format!("{name}_hproj"), 1, hidden, 4 * hidden).repeated(seq));
    // Gates: 3 sigmoids + 1 tanh over h elements each, plus elementwise
    // cell updates, per timestep.
    net.layers.push(aux(&format!("{name}_sig"), AuxKind::Sigmoid, seq * 3 * hidden));
    net.layers.push(aux(&format!("{name}_tanh"), AuxKind::Tanh, seq * 2 * hidden));
    net.layers.push(aux(&format!("{name}_cell"), AuxKind::EltwiseMul, seq * 3 * hidden));
}

/// 2-layer LSTM language model on PennTreeBank (large config: hidden 1500,
/// vocab 10k, unrolled 35 steps).
pub fn lstm_ptb() -> Network {
    let mut net = Network::new("lstm", Domain::NaturalLanguage);
    let (seq, hidden, vocab) = (35u64, 1500u64, 10_000u64);
    net.layers.push(aux("embed", AuxKind::Shuffle, seq * hidden));
    lstm_layer(&mut net, "l0", seq, hidden, hidden);
    lstm_layer(&mut net, "l1", seq, hidden, hidden);
    // Output projection to the vocabulary each timestep (batched over seq);
    // last layer stays high precision.
    let mut proj = gemm("vocab_proj", seq, hidden, vocab);
    proj.class = PrecisionClass::HighPrecision;
    net.layers.push(proj);
    net.layers.push(aux("softmax", AuxKind::Softmax, seq * vocab));
    net
}

/// 4-layer bidirectional LSTM acoustic model on SWB300 (hidden 512 per
/// direction, ~300 frames per utterance, 32k context-dependent targets).
pub(crate) fn bilstm_swb300() -> Network {
    let mut net = Network::new("bilstm", Domain::Speech);
    let (frames, feat, hidden, targets) = (300u64, 260u64, 512u64, 32_000u64);
    for l in 0..4 {
        let input = if l == 0 { feat } else { 2 * hidden };
        for dir in ["fwd", "bwd"] {
            lstm_layer(&mut net, &format!("l{l}_{dir}"), frames, input, hidden);
        }
    }
    let mut proj = gemm("am_proj", frames, 2 * hidden, targets);
    proj.class = PrecisionClass::HighPrecision;
    net.layers.push(proj);
    net.layers.push(aux("softmax", AuxKind::Softmax, frames * targets));
    net
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn bert_macs_match_published() {
        let net = bert_base_384();
        let gmacs = net.total_macs() as f64 / 1e9;
        // BERT-Base forward at seq 384: 12 × (4·768² + 2·384·768 + 2·768·3072)
        // per token ≈ 33.7 GMACs per sequence.
        assert!((gmacs - 33.7).abs() < 3.0, "bert {gmacs} GMACs");
        // ~85 M encoder weights.
        let mp = net.total_weights() as f64 / 1e6;
        assert!((mp - 85.0).abs() < 5.0, "bert {mp} M params");
    }

    #[test]
    fn attention_gemms_are_unweighted() {
        let net = bert_base_384();
        let unweighted: u64 = net
            .layers
            .iter()
            .filter(|l| matches!(l.op, Op::Gemm { weighted: false, .. }))
            .map(|l| l.macs())
            .sum();
        // 12 layers × 2 × 12 heads × 384×64×384.
        assert_eq!(unweighted, 12 * 2 * 12 * 384 * 64 * 384);
    }

    #[test]
    fn lstm_ptb_macs() {
        let net = lstm_ptb();
        let gmacs = net.total_macs() as f64 / 1e9;
        // 2 layers × 35 steps × 2 × 1500×6000 + 35 × 1500×10000 ≈ 1.8 G.
        assert!((gmacs - 1.78).abs() < 0.2, "lstm {gmacs} GMACs");
    }

    #[test]
    fn lstm_recurrent_work_is_batch1() {
        let net = lstm_ptb();
        let gemv_macs: u64 = net
            .layers
            .iter()
            .filter(|l| matches!(l.op, Op::Gemm { m: 1, .. }))
            .map(|l| l.macs())
            .sum();
        assert_eq!(gemv_macs, 2 * 35 * 1500 * 6000);
    }

    #[test]
    fn bilstm_macs() {
        let net = bilstm_swb300();
        let gmacs = net.total_macs() as f64 / 1e9;
        // layer 1: 2×300×(260+512)·2048·... gates are (in+h)→4h split into
        // x and h projections; dominated by the 32k-target projection.
        assert!((5.0..25.0).contains(&gmacs), "bilstm {gmacs} GMACs");
    }
}
