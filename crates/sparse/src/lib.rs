//! # pe-sparse
//!
//! Sparse backpropagation schemes and the scheme search (paper §2.6, §3.1).
//!
//! * `scheme` — the update-rule vocabulary (full / bias-only / layer-sparse
//!   / channel-sparse), the per-model schemes reported in the paper, and the
//!   translation into the autodiff's per-parameter `TrainSpec`.
//! * `search` — offline sensitivity analysis plus the evolutionary search
//!   that maximises summed accuracy contribution under a memory budget
//!   (Eq. 1).
//!
//! # Example
//!
//! ```
//! use pe_models::{build_bert, BertConfig};
//! use pe_sparse::{apply_rule, UpdateRule};
//! use pe_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let model = build_bert(&BertConfig::tiny(2, 3), &mut rng);
//! let spec = apply_rule(&model, &UpdateRule::BiasOnly);
//! assert_eq!(spec.len(), model.named_params().len());
//! ```

#![deny(missing_docs)]

pub(crate) mod scheme;
pub(crate) mod search;

pub use scheme::{
    apply_rule, paper_scheme_bert, paper_scheme_distilbert, paper_scheme_llama,
    paper_scheme_mcunet, paper_scheme_mobilenetv2, paper_scheme_resnet50, trainable_elements,
    BlockSelector, SparseScheme, UpdateRule, WeightRule,
};

pub use search::{evolutionary_search, sensitivity_analysis, Candidate, SearchResult, Selection};
