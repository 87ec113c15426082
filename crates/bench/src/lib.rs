//! # pe-bench
//!
//! Reproduction harness for every table and figure in the paper's evaluation.
//! The logic lives in this library (so the unit tests and Criterion benches
//! can exercise it); the `repro_*` binaries in `src/bin/` print the tables.
//!
//! | Paper artefact | Module / binary |
//! |---|---|
//! | Table 1 (framework features)        | `pe_backends::feature_matrix`, `repro_table1` |
//! | Speedup chart (bias/sparse vs full) | [`speed::scheme_speedups`], `repro_fig2_speedup` |
//! | Table 2 (vision accuracy)           | [`accuracy::vision_methods`], `repro_table2` |
//! | Table 3 (NLP accuracy)              | [`accuracy::nlp_methods`], `repro_table3` |
//! | Table 4 (training memory)           | [`memory::table4_memory`], `repro_table4` |
//! | Table 5 (Llama fine-tuning)         | [`speed::table5_llama_system`] + [`accuracy::llama_quality`], `repro_table5` |
//! | Figure 7 (autodiff overhead)        | [`overhead::measure_autodiff_overhead`], `repro_fig7_overhead` |
//! | Figure 8 (loss curves)              | [`accuracy::loss_curves`], `repro_fig8_loss_curves` |
//! | Figure 9 (throughput)               | [`speed::figure9_for_device`], `repro_fig9_throughput` |
//! | §3.2 graph-opt ablation (DCE, reordering) | [`speed::graph_optimization_ablation`], `repro_ablation_graphopt` |
//!
//! Beyond the paper artefacts, the perf trajectory of this repository is
//! tracked by machine-readable reports: `bench_training_step` writes
//! `BENCH_training_step.json` ([`stepbench`]), `bench_serving` writes
//! `BENCH_engine_serving.json` ([`serving`]), `bench_net` writes
//! `BENCH_net_serving.json` ([`net`], the multi-client TCP loopback run)
//! and `bench_fleet` writes `BENCH_fleet_serving.json` ([`fleet`], the
//! balancer + worker-pool run at several pool sizes) using the tiny JSON
//! codec in [`report`]. The `bench_check` binary
//! ([`check`]) is the CI gate that compares freshly emitted reports
//! against the committed baselines and fails the build on a regression.

#![deny(missing_docs)]

pub mod accuracy;
pub mod check;
pub mod fleet;
pub mod memory;
pub mod net;
pub mod overhead;
pub mod report;
pub mod serving;
pub mod speed;
pub mod stepbench;
pub mod table;

pub use pockengine::pe_backends;
pub use table::TextTable;
