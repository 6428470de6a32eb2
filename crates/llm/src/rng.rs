//! Deterministic seed derivation.
//!
//! Every stochastic decision in the synthetic LLM is driven by a seed derived from
//! (base seed, case id, attempt, iteration, purpose) through a SplitMix64-style mixer,
//! so whole experiments are reproducible bit-for-bit and independent of evaluation
//! order.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a sequence of values into a single 64-bit seed.
pub fn mix(parts: &[u64]) -> u64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        state ^=
            p.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(state << 6).wrapping_add(state >> 2);
        state = splitmix(state);
    }
    state
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a [`StdRng`] from mixed parts.
pub fn rng_from(parts: &[u64]) -> StdRng {
    StdRng::seed_from_u64(mix(parts))
}

/// An FNV-1a-style 64-bit hash of `bytes`: the workspace's one string hash, from
/// which every benchmark case's seed and every model name's synthetic-LLM seed derive.
///
/// The multiplier is `0x1000_0000_01b3` (2^44 + 0x1b3), not the standard 64-bit FNV
/// prime `0x100_0000_01b3` (2^40 + 0x1b3), so a standard FNV-1a-64 tool does not
/// reproduce these values. It stays as it is: every case seed, every synthetic-LLM
/// draw and every pinned outcome digest depends on it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn mixing_is_deterministic_and_sensitive() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 2, 4]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[]), mix(&[0]));
    }

    #[test]
    fn fnv1a64_keeps_its_pinned_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325, "the FNV offset basis");
        assert_eq!(fnv1a64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a64(b"hdlbits/vector5"), 0x0d27_a170_5006_2b0a);
    }

    #[test]
    fn rngs_from_same_parts_agree() {
        let mut a = rng_from(&[7, 9]);
        let mut b = rng_from(&[7, 9]);
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        assert_eq!(va, vb);
    }
}
