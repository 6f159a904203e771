//! Seeded inputs. The seed permutes sample order and draws the sampled
//! inputs (replayed points, wrapped/unwrapped call sequences); it never
//! changes how many operations of each kind a workload performs.

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of the seed; distinct `stream` values
    /// give independent draws from the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Stream ids, one per kind of draw.
pub mod stream {
    /// Sample order of one round.
    pub const ORDER: u64 = 1;
    /// Replayed injection points.
    pub const POINTS: u64 = 2;
    /// Masked-calls call sequences.
    pub const CALLS: u64 = 3;
}

/// The order in which round `round` visits `n` configurations: a seeded
/// permutation of `0..n`, different in every round.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream::ORDER + (round << 8)).shuffle(&mut order);
    order
}

/// A stratified draw of `k` injection points from `1..=total`: the range
/// is cut into `k` strata as equal as integer division allows and one
/// point is drawn uniformly from each. Every seed draws exactly `k`
/// points (`total` when fewer exist), so the per-app op count is fixed.
pub fn stratified_points(seed: u64, app: u64, total: u64, k: u64) -> Vec<u64> {
    let k = k.min(total);
    let mut rng = Rng::new(seed, stream::POINTS + (app << 8));
    (0..k)
        .map(|i| {
            let lo = 1 + i * total / k;
            let hi = (i + 1) * total / k;
            lo + rng.below(hi - lo + 1)
        })
        .collect()
}

/// The width of every stratum [`stratified_points`] draws from.
#[cfg(test)]
pub fn stratum_sizes(total: u64, k: u64) -> Vec<u64> {
    let k = k.min(total);
    (0..k)
        .map(|i| (i + 1) * total / k - i * total / k)
        .collect()
}

/// A call sequence of `len` calls of which exactly
/// `round(len · pct / 100)` go to the wrapped method (`true`), at seeded
/// positions.
pub fn call_sequence(seed: u64, cell: u64, len: usize, pct: u32) -> Vec<bool> {
    let wrapped = (len * pct as usize + 50) / 100;
    let mut seq: Vec<bool> = (0..len).map(|i| i < wrapped).collect();
    Rng::new(seed, stream::CALLS + (cell << 8)).shuffle(&mut seq);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_give_identical_op_counts_and_stratum_sizes() {
        let totals = [159u64, 237, 1371, 1516, 7];
        for (app, &total) in totals.iter().enumerate() {
            let a = stratified_points(1, app as u64, total, 64);
            let b = stratified_points(2, app as u64, total, 64);
            assert_eq!(a.len(), b.len(), "per-app op count");
            if total > 64 {
                assert_ne!(a, b, "the seed draws the points");
            }
            let sizes = stratum_sizes(total, 64);
            assert_eq!(sizes.iter().sum::<u64>(), total);
            assert_eq!(sizes.len(), a.len());
            // Each drawn point lies in its own stratum, for both seeds.
            let mut lo = 1;
            for ((&pa, &pb), &w) in a.iter().zip(&b).zip(&sizes) {
                assert!(w >= 1);
                assert!((lo..lo + w).contains(&pa) && (lo..lo + w).contains(&pb));
                lo += w;
            }
        }
        for pct in [1, 10, 50, 100] {
            let a = call_sequence(1, 3, 2000, pct);
            let b = call_sequence(2, 3, 2000, pct);
            let wrapped = |s: &[bool]| s.iter().filter(|&&w| w).count();
            assert_eq!(a.len(), b.len());
            assert_eq!(wrapped(&a), wrapped(&b), "wrapped share at {pct}%");
            assert_eq!(wrapped(&a), 20 * pct as usize);
        }
        let (mut x, mut y) = (round_order(1, 0, 32), round_order(2, 0, 32));
        assert_ne!(x, y, "the seed permutes sample order");
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y, "every configuration is visited once per round");
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(
            stratified_points(9, 4, 1371, 64),
            stratified_points(9, 4, 1371, 64)
        );
        assert_eq!(call_sequence(9, 2, 500, 10), call_sequence(9, 2, 500, 10));
        assert_eq!(round_order(9, 3, 16), round_order(9, 3, 16));
        assert_ne!(round_order(9, 3, 16), round_order(9, 4, 16));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(5, 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert_eq!(rng.below(1), 0);
    }
}
