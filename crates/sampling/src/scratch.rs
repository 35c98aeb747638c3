//! Reusable per-sampler scratch: the allocation-free Floyd draw.
//!
//! The original `floyd_sample` kept its "already chosen" set in a
//! `HashSet`, costing one hash-map allocation plus per-pick hashing on
//! every draw. [`SamplerScratch`] replaces it with a pick bitmap: one bit
//! per population member, so membership is one word read and the whole
//! set costs `n / 8` bytes. The bitmap is reused across every draw a
//! thread performs, so a steady-state draw allocates nothing at all.

use rand::rngs::StdRng;
use rand::RngExt;

/// Reusable scratch for without-replacement draws.
///
/// `marks` holds one bit per population member, ⌈n/64⌉ words, cleared
/// at the start of every draw. Its capacity grows to the largest
/// population seen and is then reused.
#[derive(Clone, Debug, Default)]
pub struct SamplerScratch {
    marks: Vec<u64>,
}

impl SamplerScratch {
    /// A fresh scratch; the bitmap grows on first use.
    pub fn new() -> Self {
        SamplerScratch::default()
    }

    /// Floyd's algorithm: feeds `k` distinct values from `0..n` to `push`
    /// in O(k + n/64) time with zero steady-state allocation.
    ///
    /// The pick sequence is bit-for-bit the one the original
    /// `HashSet`-based implementation produced for the same RNG stream,
    /// so every downstream sample (and therefore every ensemble vote) is
    /// unchanged by the swap.
    pub fn floyd_fill(
        &mut self,
        n: usize,
        k: usize,
        rng: &mut StdRng,
        mut push: impl FnMut(usize),
    ) {
        debug_assert!(k <= n);
        self.marks.clear();
        self.marks.resize(n.div_ceil(64), 0);
        for j in (n - k)..n {
            let t = rng.random_range(0..=j);
            let pick = if (self.marks[t / 64] >> (t % 64)) & 1 != 0 { j } else { t };
            self.marks[pick / 64] |= 1 << (pick % 64);
            push(pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reuse_across_draws_stays_distinct() {
        let mut scratch = SamplerScratch::new();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            scratch.floyd_fill(50, 25, &mut rng, |i| out.push(i));
            assert_eq!(out.len(), 25);
            let set: std::collections::HashSet<usize> = out.iter().copied().collect();
            assert_eq!(set.len(), 25, "duplicates at seed {seed}");
            assert!(out.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn shrinking_population_reuses_larger_buffer() {
        let mut scratch = SamplerScratch::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut big = Vec::new();
        scratch.floyd_fill(1000, 10, &mut rng, |i| big.push(i));
        let mut small = Vec::new();
        scratch.floyd_fill(5, 5, &mut rng, |i| small.push(i));
        let mut sorted = small.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    /// The HashSet-based Floyd draw the bitmap replaced: the reference
    /// pick sequence.
    fn hashset_floyd(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut chosen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.random_range(0..=j);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        out
    }

    #[test]
    fn bitmap_picks_equal_the_hashset_reference_across_reuse() {
        // Populations off the 64-bit word grid, growing then shrinking,
        // so stale bits from a larger draw would show in a smaller one.
        let mut scratch = SamplerScratch::new();
        for (seed, &(n, k)) in [
            (1, 1),
            (63, 63),
            (65, 40),
            (1000, 999),
            (4097, 300),
            (130, 130),
            (129, 64),
            (7, 7),
            (200, 150),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut got = Vec::new();
            scratch.floyd_fill(n, k, &mut rng, |i| got.push(i));
            let mut rng = StdRng::seed_from_u64(seed as u64);
            assert_eq!(got, hashset_floyd(n, k, &mut rng), "n={n} k={k}");
        }
    }
}
