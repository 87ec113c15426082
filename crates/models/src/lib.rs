//! # pe-models
//!
//! The model zoo used throughout the PockEngine-RS evaluation: the vision
//! models (MCUNet-style TinyML network, MobileNetV2, ResNet-50) and the
//! language models (BERT, DistilBERT, ALBERT-like, Llama-style decoders)
//! from the paper, expressed as forward graphs over the unified IR.
//!
//! Each builder returns a [`BuiltModel`] with a consistent parameter naming
//! scheme (`blocks.{i}.conv1.weight`, `blocks.{i}.attn.q.weight`, ...) so
//! that sparse-update schemes can be described the way the paper describes
//! them ("the first point-wise convolution of the last 7 blocks").
//!
//! Paper-scale configurations (`MobileNetV2Config::paper`,
//! `BertConfig::bert_base`, `LlamaConfig::llama2_7b`, ...) defer parameter
//! initialisation and are meant for memory/latency analysis; the `tiny`
//! configurations materialise parameters and train end-to-end in tests and
//! examples.
//!
//! # Example
//!
//! ```
//! use pe_models::{build_bert, BertConfig};
//! use pe_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let model = build_bert(&BertConfig::tiny(2, 3), &mut rng);
//! assert!(model.graph.validate().is_empty());
//! assert_eq!(model.num_blocks, 2);
//! ```

#![deny(missing_docs)]

pub(crate) mod cnn;
pub(crate) mod common;
pub(crate) mod transformer;

pub use cnn::{
    build_mobilenet, build_resnet, mcunet_5fps_config, mcunet_tiny_config, MbBlockSpec,
    MobileNetV2Config, ResNetConfig,
};

pub use common::BuiltModel;
pub use transformer::{build_bert, build_llama, BertConfig, LlamaConfig};
