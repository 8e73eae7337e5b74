//! Seeded inputs and their verification.
//!
//! Every payload byte is a pure function of `(seed, message id, offset)`,
//! so the receiver checks what arrived without a copy of what was sent,
//! and a byte placed at the wrong offset or from the wrong message fails
//! the check.

/// SplitMix64: the seeded generator behind every workload's op sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// An independent stream for item `n` of a seeded sequence, so any
    /// party can draw item `n`'s properties without replaying the others.
    pub fn for_item(seed: u64, n: u64) -> Self {
        Self::new(mix(seed ^ mix(n.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform integer in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * self.unit()).exp().round() as usize).clamp(lo, hi)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload pattern of one message.
#[derive(Clone, Copy, Debug)]
pub struct Pattern {
    key: u64,
}

impl Pattern {
    pub fn new(seed: u64, msg: u64) -> Self {
        Self {
            key: mix(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ msg),
        }
    }

    fn word(self, index: u64) -> [u8; 8] {
        (self.key ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
            .rotate_left((index & 63) as u32)
            .to_le_bytes()
    }

    /// The first `len` bytes of the message.
    pub fn bytes(self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill_at(0, &mut out);
        out
    }

    /// Writes the pattern for message offsets `[offset, offset + out.len())`.
    pub fn fill_at(self, offset: u64, out: &mut [u8]) {
        let (mut o, mut i) = (offset, 0);
        while i < out.len() {
            let (w, k) = (self.word(o / 8), (o % 8) as usize);
            let n = (8 - k).min(out.len() - i);
            out[i..i + n].copy_from_slice(&w[k..k + n]);
            i += n;
            o += n as u64;
        }
    }

    /// True when `got` equals the pattern at message offset `offset`.
    pub fn matches_at(self, offset: u64, got: &[u8]) -> bool {
        let (mut o, mut i) = (offset, 0);
        while i < got.len() {
            let (w, k) = (self.word(o / 8), (o % 8) as usize);
            let n = (8 - k).min(got.len() - i);
            if got[i..i + n] != w[k..k + n] {
                return false;
            }
            i += n;
            o += n as u64;
        }
        true
    }
}

/// A planted fault: flip one received byte of op `op` before it is
/// checked. The verifier must catch it and the run must fail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Plant {
    pub flip_op: Option<u64>,
}

impl Plant {
    /// Flips the first byte of `buf` when `op` is the planted op.
    pub fn apply(self, op: u64, buf: &mut [u8]) {
        if self.flip_op == Some(op) {
            if let Some(b) = buf.first_mut() {
                *b ^= 0x5A;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_checks_every_offset_alignment() {
        let p = Pattern::new(7, 3);
        let all = p.bytes(100);
        for start in 0..20 {
            for end in start..100 {
                assert!(p.matches_at(start as u64, &all[start..end]));
            }
        }
        let mut bad = all.clone();
        bad[41] ^= 1;
        assert!(!p.matches_at(0, &bad));
        assert!(!Pattern::new(7, 4).matches_at(0, &all));
        let mut part = vec![0u8; 13];
        p.fill_at(29, &mut part);
        assert_eq!(part, all[29..42]);
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let v = r.log_uniform(4096, 1 << 20);
            assert!((4096..=1 << 20).contains(&v));
        }
    }
}
