//! Instruction formats of the RaPiD programmable units (Fig 4b).
//!
//! Execution of a DNN operation is orchestrated by many small programs
//! (paper §II-A): *data-processing* programs on the MPEs and SFUs, and
//! *data-sequencing* programs on the load/store sequencers at the end
//! points of each link. Token-based hardware synchronization orders
//! producers and consumers. The compiler (`rapid-compiler`) emits these
//! instructions; the cycle simulator (`rapid-sim`) executes them.

use crate::precision::Precision;

/// Identifies a synchronization token counter (hardware semaphore).
pub type TokenId = u8;

/// Source of an FMMA multiplicand (Fig 4a: North/West neighbors or LRF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSrc {
    /// Operand streams in from the West link (row broadcast).
    West,
    /// Operand streams in from the North link.
    North,
    /// Operand is read from the local register file.
    Lrf,
}

/// An MPE (data-processing) instruction.
///
/// Within a program the operand precision is fixed and held in registers so
/// the hardware can data-gate operand widths (paper §III-A); the simulator
/// enforces the same invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpeInstr {
    /// Fused multiply-multiply-accumulate across the SIMD lanes: multiply
    /// the streaming operand by `vecs` stationary LRF vectors and
    /// accumulate into the passing partial sums.
    Fmma {
        /// Execution precision (FP16/HFP8 on the FPU, INT4/INT2 on the FXU).
        precision: Precision,
        /// Multiplicand A source.
        src_a: OperandSrc,
        /// Multiplicand B source.
        src_b: OperandSrc,
        /// First LRF register of the stationary block.
        lrf_base: u8,
        /// Number of LRF vectors consumed (INT4 mode reads 2 registers /
        /// 256 bits per MAC instruction, §III-A).
        vecs: u8,
    },
    /// Block-load `words` 128-bit words from the incoming link into the LRF
    /// starting at `lrf_base`.
    BlockLoad {
        /// Destination LRF register.
        lrf_base: u8,
        /// Number of 128-bit words to load.
        words: u8,
    },
    /// Configure the programmable exponent bias of the (1,4,3) operands.
    SetBias {
        /// Bias for operand A's tensor.
        bias_a: i8,
        /// Bias for operand B's tensor.
        bias_b: i8,
    },
    /// Pass partial sums through unchanged for `cycles` cycles.
    Nop {
        /// Idle cycle count.
        cycles: u16,
    },
}

impl MpeInstr {
    /// Encodes into the 32-bit instruction word layout of Fig 4(b):
    /// `[31:28] opcode | [27:24] precision | fields`.
    pub fn encode(&self) -> u32 {
        match *self {
            MpeInstr::Fmma { precision, src_a, src_b, lrf_base, vecs } => {
                (0x1 << 28)
                    | (precision_code(precision) << 24)
                    | (src_code(src_a) << 22)
                    | (src_code(src_b) << 20)
                    | ((lrf_base as u32) << 12)
                    | ((vecs as u32) << 4)
            }
            MpeInstr::BlockLoad { lrf_base, words } => {
                (0x2 << 28) | ((lrf_base as u32) << 12) | ((words as u32) << 4)
            }
            MpeInstr::SetBias { bias_a, bias_b } => {
                (0x3 << 28) | (((bias_a as u8) as u32) << 8) | ((bias_b as u8) as u32)
            }
            MpeInstr::Nop { cycles } => cycles as u32,
        }
    }

    /// Decodes an instruction word produced by [`MpeInstr::encode`].
    ///
    /// Returns `None` for an unknown opcode or field encoding.
    pub fn decode(word: u32) -> Option<Self> {
        match word >> 28 {
            0x0 => Some(MpeInstr::Nop { cycles: (word & 0xffff) as u16 }),
            0x1 => Some(MpeInstr::Fmma {
                precision: decode_precision((word >> 24) & 0xf)?,
                src_a: decode_src((word >> 22) & 0x3)?,
                src_b: decode_src((word >> 20) & 0x3)?,
                lrf_base: ((word >> 12) & 0xff) as u8,
                vecs: ((word >> 4) & 0xff) as u8,
            }),
            0x2 => Some(MpeInstr::BlockLoad {
                lrf_base: ((word >> 12) & 0xff) as u8,
                words: ((word >> 4) & 0xff) as u8,
            }),
            0x3 => Some(MpeInstr::SetBias {
                bias_a: ((word >> 8) & 0xff) as u8 as i8,
                bias_b: (word & 0xff) as u8 as i8,
            }),
            _ => None,
        }
    }
}

fn precision_code(p: Precision) -> u32 {
    match p {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
        Precision::Hfp8 => 2,
        Precision::Int4 => 3,
        Precision::Int2 => 4,
    }
}

fn decode_precision(c: u32) -> Option<Precision> {
    Some(match c {
        0 => Precision::Fp32,
        1 => Precision::Fp16,
        2 => Precision::Hfp8,
        3 => Precision::Int4,
        4 => Precision::Int2,
        _ => return None,
    })
}

fn src_code(s: OperandSrc) -> u32 {
    match s {
        OperandSrc::West => 0,
        OperandSrc::North => 1,
        OperandSrc::Lrf => 2,
    }
}

fn decode_src(c: u32) -> Option<OperandSrc> {
    Some(match c {
        0 => OperandSrc::West,
        1 => OperandSrc::North,
        2 => OperandSrc::Lrf,
        _ => return None,
    })
}

/// Special Function Unit operation kinds (paper §III-B: accurate and fast
/// variants of a broad set of non-linear and data-movement functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuOpKind {
    /// Rectified linear unit (forward or backward).
    Relu,
    /// Leaky ReLU with a fixed negative slope.
    LeakyRelu,
    /// PACT clipped activation (clip at a learned α).
    PactClip,
    /// Logistic sigmoid (approximated).
    Sigmoid,
    /// Hyperbolic tangent (approximated).
    Tanh,
    /// Square root (approximated).
    Sqrt,
    /// Natural exponent (approximated).
    Exp,
    /// Natural logarithm (approximated).
    Ln,
    /// Reciprocal (approximated).
    Reciprocal,
    /// Element-wise add (residual connections, gradient reduction).
    Add,
    /// Element-wise multiply (gates, scales).
    Mul,
    /// Running maximum (max pooling).
    Max,
    /// Chunk-based accumulation of MPE partial sums (FP16/INT16 → FP32).
    ChunkAccum,
    /// FP16 → INT4/INT2 quantization with a per-tensor scale.
    Quantize,
    /// INT16/INT32 → FP16 dequantization with a per-tensor scale.
    Dequantize,
    /// Data shuffle / permute.
    Permute,
    /// Tile transpose (update phase of training).
    Transpose,
}

impl SfuOpKind {
    /// Throughput in elements per lane per cycle (fast approximations run
    /// at 1/lane/cycle; accurate iterative versions at 1/4).
    pub fn elems_per_lane_cycle(&self, accurate: bool) -> f64 {
        let base = match self {
            SfuOpKind::Relu
            | SfuOpKind::LeakyRelu
            | SfuOpKind::PactClip
            | SfuOpKind::Add
            | SfuOpKind::Mul
            | SfuOpKind::Max
            | SfuOpKind::ChunkAccum
            | SfuOpKind::Quantize
            | SfuOpKind::Dequantize
            | SfuOpKind::Permute
            | SfuOpKind::Transpose => 1.0,
            SfuOpKind::Sigmoid
            | SfuOpKind::Tanh
            | SfuOpKind::Sqrt
            | SfuOpKind::Exp
            | SfuOpKind::Ln
            | SfuOpKind::Reciprocal => 0.5,
        };
        if accurate {
            base / 4.0
        } else {
            base
        }
    }
}

/// A data-sequencing instruction for the programmable load/store units at
/// the end points of each link (paper §II-A, access–execute style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqInstr {
    /// Read `len` elements from scratchpad starting at `addr` with the
    /// given element `stride`, pushing them onto the outgoing link.
    Read {
        /// Start address (element index into the scratchpad).
        addr: u32,
        /// Element count.
        len: u32,
        /// Stride between elements (in elements).
        stride: u32,
    },
    /// Pop `len` elements from the incoming link and write them starting
    /// at `addr` with `stride`.
    Write {
        /// Start address (element index into the scratchpad).
        addr: u32,
        /// Element count.
        len: u32,
        /// Stride between elements (in elements).
        stride: u32,
    },
    /// Block until token `token` has been signalled at least `count` times,
    /// then consume `count` signals.
    WaitToken {
        /// Token counter id.
        token: TokenId,
        /// Signals to consume.
        count: u16,
    },
    /// Signal token `token` once.
    SignalToken {
        /// Token counter id.
        token: TokenId,
    },
    /// Begin a hardware loop repeating the following instructions `count`
    /// times (loops may nest).
    LoopBegin {
        /// Iteration count.
        count: u32,
    },
    /// End of the innermost hardware loop body.
    LoopEnd,
}

impl SeqInstr {
    /// Encodes into a 64-bit word: `[63:60] opcode | fields`.
    pub fn encode(&self) -> u64 {
        match *self {
            SeqInstr::Read { addr, len, stride } => {
                (0x1u64 << 60)
                    | ((u64::from(addr) & 0xFFFF_FFFF) << 28)
                    | ((u64::from(len) & 0xF_FFFF) << 8)
                    | (u64::from(stride) & 0xFF)
            }
            SeqInstr::Write { addr, len, stride } => {
                (0x2u64 << 60)
                    | ((u64::from(addr) & 0xFFFF_FFFF) << 28)
                    | ((u64::from(len) & 0xF_FFFF) << 8)
                    | (u64::from(stride) & 0xFF)
            }
            SeqInstr::WaitToken { token, count } => {
                (0x3u64 << 60) | (u64::from(token) << 16) | u64::from(count)
            }
            SeqInstr::SignalToken { token } => (0x4u64 << 60) | u64::from(token),
            SeqInstr::LoopBegin { count } => (0x5u64 << 60) | u64::from(count),
            SeqInstr::LoopEnd => 0x6u64 << 60,
        }
    }

    /// Decodes a word produced by [`SeqInstr::encode`]. Returns `None` for
    /// an unknown opcode.
    pub fn decode(word: u64) -> Option<Self> {
        Some(match word >> 60 {
            0x1 => SeqInstr::Read {
                addr: ((word >> 28) & 0xFFFF_FFFF) as u32,
                len: ((word >> 8) & 0xF_FFFF) as u32,
                stride: (word & 0xFF) as u32,
            },
            0x2 => SeqInstr::Write {
                addr: ((word >> 28) & 0xFFFF_FFFF) as u32,
                len: ((word >> 8) & 0xF_FFFF) as u32,
                stride: (word & 0xFF) as u32,
            },
            0x3 => SeqInstr::WaitToken {
                token: ((word >> 16) & 0xFF) as u8,
                count: (word & 0xFFFF) as u16,
            },
            0x4 => SeqInstr::SignalToken { token: (word & 0xFF) as u8 },
            0x5 => SeqInstr::LoopBegin { count: (word & 0xFFFF_FFFF) as u32 },
            0x6 => SeqInstr::LoopEnd,
            _ => return None,
        })
    }
}

/// MNI (memory/neighbor interface) primitives (paper §III-E, Fig 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MniInstr {
    /// Post a receive for `bytes` tagged `tag`, to be written at `local_addr`.
    /// `consumers` is the number of participating consumers for multi-cast
    /// aggregation (1 for unicast).
    Recv {
        /// Transfer identification tag.
        tag: u16,
        /// Producer core id (or memory).
        from: u8,
        /// Bytes to receive.
        bytes: u32,
        /// Local scratchpad address for the data return.
        local_addr: u32,
        /// Number of participating consumers (multi-cast group size).
        consumers: u8,
    },
    /// Send `bytes` from `local_addr`, tagged `tag`, once `consumers`
    /// matching `Recv` requests have aggregated.
    Send {
        /// Transfer identification tag.
        tag: u16,
        /// Bytes to send.
        bytes: u32,
        /// Local scratchpad address of the payload.
        local_addr: u32,
        /// Number of consumer requests to aggregate before posting.
        consumers: u8,
    },
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn mpe_encode_decode_roundtrip() {
        let instrs = [
            MpeInstr::Fmma {
                precision: Precision::Int4,
                src_a: OperandSrc::West,
                src_b: OperandSrc::Lrf,
                lrf_base: 3,
                vecs: 2,
            },
            MpeInstr::BlockLoad { lrf_base: 0, words: 16 },
            MpeInstr::SetBias { bias_a: -4, bias_b: 7 },
            MpeInstr::Nop { cycles: 100 },
        ];
        for i in instrs {
            assert_eq!(MpeInstr::decode(i.encode()), Some(i), "{i:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_opcodes() {
        assert_eq!(MpeInstr::decode(0xF000_0000), None);
        // Bad precision code in an FMMA word.
        assert_eq!(MpeInstr::decode((0x1 << 28) | (0xA << 24)), None);
    }

    #[test]
    fn seq_encode_decode_roundtrip() {
        let instrs = [
            SeqInstr::Read { addr: 0xDEAD_BEEF, len: 1000, stride: 4 },
            SeqInstr::Write { addr: 42, len: 7, stride: 1 },
            SeqInstr::WaitToken { token: 3, count: 2 },
            SeqInstr::SignalToken { token: 250 },
            SeqInstr::LoopBegin { count: 123_456 },
            SeqInstr::LoopEnd,
        ];
        for i in instrs {
            assert_eq!(SeqInstr::decode(i.encode()), Some(i), "{i:?}");
        }
        assert_eq!(SeqInstr::decode(0xF000_0000_0000_0000), None);
    }

    #[test]
    fn sfu_throughputs() {
        assert_eq!(SfuOpKind::Relu.elems_per_lane_cycle(false), 1.0);
        assert_eq!(SfuOpKind::Sigmoid.elems_per_lane_cycle(false), 0.5);
        assert_eq!(SfuOpKind::Sigmoid.elems_per_lane_cycle(true), 0.125);
    }
}
