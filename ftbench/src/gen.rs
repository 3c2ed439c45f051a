//! Seeded input generators. Everything random in a run — prompts, lengths,
//! arrival gaps, priorities, Q/K/V — derives from `--seed` through these
//! pure functions; the program under test receives only the generated
//! inputs.
//!
//! Shapes are *stratified*: a workload draws its prompt lengths, output
//! lengths and priorities from a fixed multiset in an order that is part of
//! the workload, and lets `--seed` choose the token ids.
//! Two seeds therefore offer the same work in the same pattern, so the
//! spread between runs with different seeds measures the system, not the
//! dice.

/// SplitMix64: small, fast, and good enough to shuffle request shapes.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0). Modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Independent sub-seed `stream` of `root` (same mixer as the RNG).
pub fn derive(root: u64, stream: u64) -> u64 {
    SplitMix::new(root ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Prompt `idx` of a run: `len` token ids in `1..vocab`, distinct per
/// `(seed, idx)` so no two requests of a run share a prefix by design.
pub fn prompt(seed: u64, idx: usize, len: usize, vocab: usize) -> Vec<u32> {
    let mut rng = SplitMix::new(derive(seed, 0x5052_4F4D ^ idx as u64));
    (0..len).map(|_| 1 + rng.below(vocab - 1) as u32).collect()
}

/// `n` items cycling through `pattern`, order shuffled by `seed`.
pub fn stratified<T: Copy>(seed: u64, pattern: &[T], n: usize) -> Vec<T> {
    let mut out: Vec<T> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
    SplitMix::new(seed).shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(prompt(7, 3, 16, 8192), prompt(7, 3, 16, 8192));
        assert_ne!(prompt(7, 3, 16, 8192), prompt(8, 3, 16, 8192));
        assert_ne!(prompt(7, 3, 16, 8192), prompt(7, 4, 16, 8192));
        assert!(prompt(7, 0, 64, 100).iter().all(|&t| (1..100).contains(&t)));
        assert_eq!(
            stratified(1, &[8, 16, 32], 9),
            stratified(1, &[8, 16, 32], 9)
        );
    }

    #[test]
    fn stratified_shapes_do_not_depend_on_the_seed() {
        let mut a = stratified(1, &[8usize, 16, 16, 32], 40);
        let mut b = stratified(2, &[8usize, 16, 16, 32], 40);
        assert_ne!(a, b, "order differs");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "multiset is the same");
    }
}
