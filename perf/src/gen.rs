//! Seeded input generation. The seed decides payload bytes, ragged count
//! vectors, roots and slot order; the program under test sees only the
//! generated inputs, never the seed.

use exacoll_comm::DType;

/// SplitMix64: small, stateless to seed, identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed on the seed and a purpose label, so adding a consumer
    /// never shifts the values another one draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ exacoll_comm::fnv1a(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `bytes` of payload holding elements of `dtype`. Reduced types hold small
/// non-negative integers (0..=15), so a sum over four ranks is exact in f32
/// and f64 and every reduction order gives the same bytes.
pub fn payload(rng: &mut Rng, dtype: DType, bytes: usize) -> Vec<u8> {
    assert_eq!(bytes % dtype.size(), 0, "payload must hold whole elements");
    let mut out = Vec::with_capacity(bytes);
    for _ in 0..bytes / dtype.size() {
        let word = rng.next_u64();
        let small = (word & 0xf) as u8;
        match dtype {
            DType::U8 => out.push(word as u8),
            DType::I32 => out.extend_from_slice(&i32::from(small).to_le_bytes()),
            DType::I64 => out.extend_from_slice(&i64::from(small).to_le_bytes()),
            DType::U64 => out.extend_from_slice(&u64::from(small).to_le_bytes()),
            DType::F32 => out.extend_from_slice(&f32::from(small).to_le_bytes()),
            DType::F64 => out.extend_from_slice(&f64::from(small).to_le_bytes()),
        }
    }
    out
}

/// A ragged per-rank byte-count vector: sums to `total`, one rank has
/// nothing, the rest are skewed (about 1 : 2 : 5 with seeded jitter), and
/// which rank gets which share is seeded. Counts are multiples of 8.
pub fn ragged_counts(rng: &mut Rng, p: usize, total: usize) -> Vec<usize> {
    assert!(
        p >= 3,
        "a ragged vector needs a zero rank and two unequal ones"
    );
    assert_eq!(
        total % 64,
        0,
        "total must split into 8-byte units of eighths"
    );
    let mut weights: Vec<usize> = (0..p).map(|i| [0, 1, 2, 5][i.min(3)]).collect();
    rng.shuffle(&mut weights);
    let unit = total / weights.iter().sum::<usize>() / 8 * 8;
    let mut counts: Vec<usize> = weights.iter().map(|w| w * unit).collect();
    let largest = (0..p).max_by_key(|&r| counts[r]).expect("p > 0");
    let smallest = (0..p)
        .filter(|&r| counts[r] > 0)
        .min_by_key(|&r| counts[r])
        .expect("non-zero ranks exist");
    let jitter = rng.below(unit / 8) * 8;
    counts[largest] -= jitter;
    counts[smallest] += jitter;
    counts[largest] += total - counts.iter().sum::<usize>();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::fnv1a;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let draw = |seed| fnv1a(&payload(&mut Rng::new(seed, "t"), DType::F64, 4096));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let counts = |seed| ragged_counts(&mut Rng::new(seed, "c"), 4, 256 << 10);
        assert_eq!(counts(7), counts(7));
        assert!((1..20).any(|s| counts(s) != counts(s + 1)));
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(
            Rng::new(1, "a").next_u64(),
            Rng::new(1, "b").next_u64(),
            "two consumers of one seed must not draw the same values"
        );
    }

    #[test]
    fn ragged_counts_keep_their_promises() {
        for seed in 0..50 {
            for total in [256, 256 << 10] {
                let c = ragged_counts(&mut Rng::new(seed, "c"), 4, total);
                assert_eq!(c.iter().sum::<usize>(), total);
                assert_eq!(c.iter().filter(|&&x| x == 0).count(), 1, "{c:?}");
                assert!(c.iter().all(|x| x % 8 == 0), "{c:?}");
                let max = *c.iter().max().unwrap();
                let min = *c.iter().filter(|&&x| x > 0).min().unwrap();
                assert!(max >= 2 * min, "not skewed: {c:?}");
            }
        }
    }

    #[test]
    fn reduced_payloads_hold_small_integers() {
        let bytes = payload(&mut Rng::new(3, "p"), DType::F32, 64);
        for chunk in bytes.chunks_exact(4) {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert!((0.0..=15.0).contains(&v) && v.fract() == 0.0);
        }
    }
}
