//! Model configurations for the Fig. 15 experiment: GPT-2, BERT-Base,
//! BERT-Large and T5-Small at the shapes the paper uses (input length 512).

/// Transformer model hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of transformer blocks. For T5-Small this counts encoder plus
    /// decoder blocks: the paper measures per-step *time overhead*, for
    /// which a 12-block stack of the same per-block shape is equivalent
    /// work — a simplification: the decoder blocks' cross-attention is not
    /// modelled.
    pub layers: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Model width.
    pub hidden: usize,
    /// Feed-forward inner width.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
}

impl ModelConfig {
    /// GPT-2 (117M): 12 layers, 12 heads, width 768.
    pub fn gpt2() -> Self {
        ModelConfig {
            name: "GPT2",
            layers: 12,
            heads: 12,
            hidden: 768,
            ffn_dim: 3072,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// BERT-Base: 12 layers, 12 heads, width 768.
    pub fn bert_base() -> Self {
        ModelConfig {
            name: "BERT-Base",
            layers: 12,
            heads: 12,
            hidden: 768,
            ffn_dim: 3072,
            vocab: 30522,
            max_seq: 512,
        }
    }

    /// BERT-Large: 24 layers, 16 heads, width 1024.
    pub fn bert_large() -> Self {
        ModelConfig {
            name: "BERT-Large",
            layers: 24,
            heads: 16,
            hidden: 1024,
            ffn_dim: 4096,
            vocab: 30522,
            max_seq: 512,
        }
    }

    /// T5-Small: 6 encoder + 6 decoder blocks, 8 heads, width 512.
    pub fn t5_small() -> Self {
        ModelConfig {
            name: "T5-Small",
            layers: 12,
            heads: 8,
            hidden: 512,
            ffn_dim: 2048,
            vocab: 32128,
            max_seq: 512,
        }
    }

    /// The four models of Fig. 15.
    pub fn paper_models() -> [ModelConfig; 4] {
        [
            Self::gpt2(),
            Self::bert_base(),
            Self::bert_large(),
            Self::t5_small(),
        ]
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// A shrunken version preserving head structure, for fast tests and
    /// scaled benches.
    pub fn scaled(mut self, hidden: usize, layers: usize) -> Self {
        assert_eq!(hidden % self.heads, 0);
        self.ffn_dim = hidden * 4;
        self.hidden = hidden;
        self.layers = layers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_shapes() {
        let g = ModelConfig::gpt2();
        assert_eq!(g.head_dim(), 64);
        let bl = ModelConfig::bert_large();
        assert_eq!(bl.head_dim(), 64);
        assert_eq!(bl.layers, 24);
        let t5 = ModelConfig::t5_small();
        assert_eq!(t5.head_dim(), 64);
        assert_eq!(ModelConfig::paper_models().len(), 4);
    }

    #[test]
    fn scaled_preserves_head_structure() {
        let s = ModelConfig::gpt2().scaled(96, 2);
        assert_eq!(s.heads, 12);
        assert_eq!(s.head_dim(), 8);
        assert_eq!(s.layers, 2);
        assert_eq!(s.ffn_dim, 384);
    }
}
