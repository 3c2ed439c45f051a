//! Token and positional embeddings.

use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_num::{Matrix, MatrixF16, MatrixF32};

/// Learned token embedding table plus sinusoidal positions.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// `vocab × hidden` embedding table (FP16 storage).
    pub table: MatrixF16,
    /// Maximum sequence length supported by the positional encoding.
    pub max_seq: usize,
}

impl Embedding {
    /// Random table (seeded) for `vocab` tokens of width `hidden`.
    pub fn random(seed: u64, vocab: usize, hidden: usize, max_seq: usize) -> Self {
        let mut rng = rng_from_seed(seed);
        Embedding {
            table: normal_matrix_f16(&mut rng, vocab, hidden, 0.02),
            max_seq,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.table.cols()
    }

    /// Denominator of channel `ch`'s sinusoid, `10000^(2⌊ch/2⌋ / hidden)`.
    fn denominator(ch: usize, hidden: usize) -> f32 {
        let i = (ch / 2) as f32;
        10_000f32.powf(2.0 * i / hidden as f32)
    }

    /// Sinusoidal positional value at `pos` for channel `ch`, whose
    /// [`denominator`](Embedding::denominator) is `denom`.
    fn positional(pos: usize, ch: usize, denom: f32) -> f32 {
        let angle = pos as f32 / denom;
        if ch.is_multiple_of(2) {
            angle.sin()
        } else {
            angle.cos()
        }
    }

    /// Embed a token sequence: `seq × hidden` activations (token + position).
    pub fn forward(&self, tokens: &[u32]) -> MatrixF32 {
        self.forward_at(tokens, 0)
    }

    /// Embed tokens occupying absolute positions `start_pos..` — the decode
    /// path embeds one token at a time at its true position so cached and
    /// prefill activations agree.
    pub fn forward_at(&self, tokens: &[u32], start_pos: usize) -> MatrixF32 {
        assert!(
            start_pos + tokens.len() <= self.max_seq,
            "sequence exceeds max_seq"
        );
        let hidden = self.hidden();
        let denoms: Vec<f32> = (0..hidden)
            .map(|ch| Self::denominator(ch, hidden))
            .collect();
        Matrix::from_fn(tokens.len(), hidden, |i, j| {
            let tok = tokens[i] as usize % self.vocab();
            self.table.get(tok, j).to_f32() + Self::positional(start_pos + i, j, denoms[j])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let e = Embedding::random(1, 100, 32, 64);
        let x = e.forward(&[1, 2, 3, 2]);
        assert_eq!(x.shape(), (4, 32));
        let y = e.forward(&[1, 2, 3, 2]);
        assert_eq!(x, y);
    }

    #[test]
    fn same_token_differs_by_position() {
        let e = Embedding::random(2, 50, 16, 64);
        let x = e.forward(&[7, 7]);
        let d: f32 = x
            .row(0)
            .iter()
            .zip(x.row(1))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-3, "positions must distinguish identical tokens");
    }

    #[test]
    fn positional_encoding_is_bounded() {
        let e = Embedding::random(3, 10, 64, 128);
        let x = e.forward(&(0..100).map(|i| i % 10).collect::<Vec<_>>());
        for (_, _, v) in x.iter_indexed() {
            assert!(v.abs() < 2.0, "embedding value {v} out of expected range");
        }
    }

    #[test]
    fn forward_at_matches_the_per_element_formula() {
        for hidden in [16, 256] {
            let e = Embedding::random(5, 10, hidden, 96);
            let tokens: Vec<u32> = (0..96).map(|i| i % 10).collect();
            for start in [0, 37, 95] {
                let x = e.forward_at(&tokens[..96 - start], start);
                for (i, j, v) in x.iter_indexed() {
                    let (pos, k) = ((start + i) as f32, (j / 2) as f32);
                    let angle = pos / 10_000f32.powf(2.0 * k / hidden as f32);
                    let p = if j % 2 == 0 { angle.sin() } else { angle.cos() };
                    let want = e.table.get(tokens[i] as usize, j).to_f32() + p;
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "hidden {hidden} pos {pos} ch {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_vocab_tokens_wrap() {
        let e = Embedding::random(4, 10, 8, 16);
        let a = e.forward(&[3]);
        let b = e.forward(&[13]);
        assert_eq!(a, b);
    }
}
