//! A SECDED scratchpad stores no codewords: it keeps each word's data and,
//! for the few words a particle strike hit, the XOR mask of the upset
//! codeword bits. These properties pin that representation against a
//! dense reference holding one 39-bit codeword per word, and pin the two
//! facts it rests on: a clean codeword decodes `Clean` with its data
//! intact, and the code is linear, so `encode(d) ^ mask` is exactly the
//! word a dense store would hold after the same flips.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid_sim::ecc::{self, Decoded};
use rapid_sim::Scratchpad;

const WORDS: usize = 8;

/// The dense model: every word's stored codeword, re-encoded on each
/// store and XORed by each flip, decoded on every read.
struct Dense {
    data: Vec<f32>,
    codewords: Vec<u64>,
    sec: u64,
    ded: u64,
    pending: Option<usize>,
}

impl Dense {
    fn new(values: &[f32]) -> Self {
        let codewords = values.iter().map(|v| ecc::encode(v.to_bits())).collect();
        Self { data: values.to_vec(), codewords, sec: 0, ded: 0, pending: None }
    }

    fn store_slice(&mut self, addr: usize, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(addr + i, v);
        }
    }

    fn write(&mut self, addr: usize, v: f32) {
        self.data[addr] = v;
        self.codewords[addr] = ecc::encode(v.to_bits());
    }

    fn inject_flip(&mut self, addr: usize, bit: u32) {
        self.codewords[addr] ^= 1u64 << (bit % ecc::CODEWORD_BITS);
    }

    fn read(&mut self, addr: usize) -> f32 {
        let cw = self.codewords[addr];
        match ecc::decode(cw) {
            Decoded::Clean => self.data[addr],
            Decoded::CorrectedData(bits) => {
                self.sec += 1;
                f32::from_bits(bits)
            }
            Decoded::CorrectedCheck => {
                self.sec += 1;
                self.data[addr]
            }
            Decoded::DoubleError => {
                self.ded += 1;
                self.pending.get_or_insert(addr);
                f32::from_bits(ecc::data_of(cw))
            }
        }
    }
}

fn values_of(raw: u32, len: usize) -> Vec<f32> {
    (0..len as u32).map(|i| f32::from_bits(raw.rotate_left(7 * i) ^ i)).collect()
}

/// Reads `addr` from both models and checks the value and the counters.
fn read_both(spad: &Scratchpad, dense: &mut Dense, addr: usize, step: usize) {
    let (got, want) = (spad.read(addr), dense.read(addr));
    assert_eq!(got.to_bits(), want.to_bits(), "step {step}: read of word {addr}");
    assert_eq!(spad.ecc_sec(), dense.sec, "step {step}: SEC count");
    assert_eq!(spad.ecc_ded(), dense.ded, "step {step}: DED count");
}

proptest! {
    #[test]
    fn sparse_upsets_match_the_dense_codeword_model(
        init in 0u32..=u32::MAX,
        ops in proptest::collection::vec(
            (0u8..8, 0usize..WORDS, 0u32..=u32::MAX, 1usize..=WORDS),
            0..64,
        ),
    ) {
        let initial = values_of(init, WORDS);
        let mut spad = Scratchpad::new(WORDS);
        spad.store_slice(0, &initial);
        let mut spad = spad.with_ecc();
        let mut dense = Dense::new(&initial);
        for (step, &(kind, addr, raw, len)) in ops.iter().enumerate() {
            // Bits beyond the codeword wrap, as `inject_flip` documents.
            let bit = raw % 64;
            match kind {
                0 => {
                    let values = values_of(raw, len.min(WORDS - addr));
                    spad.store_slice(addr, &values);
                    dense.store_slice(addr, &values);
                }
                1 => {
                    spad.write(addr, f32::from_bits(raw));
                    dense.write(addr, f32::from_bits(raw));
                }
                2 | 3 => {
                    spad.inject_flip(addr, bit);
                    dense.inject_flip(addr, bit);
                }
                4 => {
                    // Two flips at one word: distinct bits or a pair that
                    // cancels, leaving the word clean again.
                    let second = if raw & 1 == 0 { bit } else { raw.rotate_right(6) % 39 };
                    for b in [bit, second] {
                        spad.inject_flip(addr, b);
                        dense.inject_flip(addr, b);
                    }
                }
                5 | 6 => read_both(&spad, &mut dense, addr, step),
                _ => {
                    prop_assert_eq!(
                        spad.take_uncorrectable(),
                        dense.pending.take(),
                        "step {}: pending address",
                        step
                    );
                }
            }
            read_both(&spad, &mut dense, addr, step);
        }
        for addr in 0..WORDS {
            read_both(&spad, &mut dense, addr, ops.len());
        }
        prop_assert_eq!(spad.take_uncorrectable(), dense.pending.take());
        prop_assert_eq!(spad.take_uncorrectable(), None);
    }

    #[test]
    fn a_clean_codeword_decodes_clean_with_its_data(d in 0u32..=u32::MAX) {
        let cw = ecc::encode(d);
        prop_assert_eq!(ecc::decode(cw), Decoded::Clean);
        prop_assert_eq!(ecc::data_of(cw), d);
    }

    #[test]
    fn the_code_is_linear(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
        prop_assert_eq!(ecc::encode(a ^ b), ecc::encode(a) ^ ecc::encode(b));
    }
}
