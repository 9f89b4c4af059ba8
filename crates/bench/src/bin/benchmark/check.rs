//! Output-correctness gate: every timed operation's output must hash to the
//! reference computed before timing starts.
//!
//! References come from the public `*_scalar` kernels. Where a scalar pass
//! at full size would take seconds, the scalar kernels check the fast path
//! on a smoke-size copy of the same layer list, and the full-size reference
//! is that verified fast path's first, untimed output.

use rapid_numerics::Tensor;

/// FNV-1a over every tensor's shape and the bit pattern of its values: one
/// flipped output bit changes the hash.
pub fn hash(outputs: &[Tensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in outputs {
        eat(t.shape().len() as u64);
        for &d in t.shape() {
            eat(d as u64);
        }
        for &v in t.as_slice() {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

/// Compares each operation's output with its reference hash.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    expected: Vec<u64>,
    pub checked: u64,
    pub mismatches: u64,
}

impl Gate {
    /// A gate for operations whose reference hashes are `expected[i]`, with
    /// `i` the operation's index in its replay cycle.
    pub fn new(expected: Vec<u64>) -> Self {
        Self { expected, checked: 0, mismatches: 0 }
    }

    /// Checks the output of operation `i`; false on a mismatch.
    pub fn check(&mut self, i: usize, outputs: &[Tensor]) -> bool {
        self.checked += 1;
        let ok = self.expected.get(i) == Some(&hash(outputs));
        if !ok {
            self.mismatches += 1;
        }
        ok
    }
}

/// Errors unless two hash lists agree element by element.
pub fn same(what: &str, reference: &[u64], fast: &[u64]) -> Result<(), String> {
    if reference.len() != fast.len() {
        return Err(format!(
            "{what}: {} reference outputs, {} fast outputs",
            reference.len(),
            fast.len()
        ));
    }
    match reference.iter().zip(fast).position(|(a, b)| a != b) {
        Some(i) => Err(format!("{what}: output {i} differs from the scalar reference")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_output_bit_is_caught() {
        let out = Tensor::random_uniform(vec![4, 8], -1.0, 1.0, 3);
        let mut gate = Gate::new(vec![hash(std::slice::from_ref(&out))]);
        assert!(gate.check(0, std::slice::from_ref(&out)));
        for bit in [0u32, 22, 31] {
            let mut bad = out.clone();
            let v = &mut bad.as_mut_slice()[17];
            *v = f32::from_bits(v.to_bits() ^ (1 << bit));
            assert!(!gate.check(0, &[bad]), "bit {bit} flip slipped through");
        }
        assert_eq!((gate.checked, gate.mismatches), (4, 3));
    }

    #[test]
    fn shape_is_part_of_the_hash() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        assert_ne!(hash(&[a]), hash(&[b]));
    }

    #[test]
    fn same_reports_the_first_difference() {
        assert!(same("x", &[1, 2], &[1, 2]).is_ok());
        assert!(same("x", &[1, 2], &[1, 3]).is_err());
        assert!(same("x", &[1], &[1, 2]).is_err());
    }
}
