//! # pe-data
//!
//! Synthetic workload generators standing in for the datasets used in the
//! paper's evaluation: vision transfer-learning tasks (Table 2), GLUE-style
//! sequence classification (Table 3, Figure 8), an Alpaca-style
//! instruction-tuning corpus (Table 5), and mixed-size serving request
//! streams for the engine facade. The substitution rests on one
//! rationale: every generator preserves the *relative* comparison the paper
//! makes (full vs bias-only vs sparse backpropagation) rather than absolute
//! dataset-specific accuracy.

#![deny(missing_docs)]

pub(crate) mod instruct;
pub(crate) mod json;
pub(crate) mod nlp;
pub mod serving;
pub(crate) mod vision;

pub use instruct::{generate_instruct_dataset, response_accuracy, InstructConfig, InstructDataset};
pub use json::Json;
pub use nlp::{generate_nlp_task, table3_nlp_tasks, NlpTask, NlpTaskConfig};
pub use serving::{
    generate_request_stream, Priority, Request, RequestMeta, RequestStreamConfig, ServingKind,
};
pub use vision::{generate_vision_task, table2_vision_tasks, VisionTask, VisionTaskConfig};
