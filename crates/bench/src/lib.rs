//! # pe-bench
//!
//! Reproduction harness for the paper's evaluation tables and figures.
//! The logic lives in this library (so the unit tests and Criterion benches
//! can exercise it); the `repro_*` binaries in `src/bin/` print the tables.
//!
//! | Paper artefact | Module / binary |
//! |---|---|
//! | Speedup chart (bias/sparse vs full) | [`speed::measure_steps`] over [`speed::Setup::schemes`], `repro_fig2_speedup` |
//! | Table 2 (vision accuracy)           | [`accuracy::vision_methods`], `repro_table2` |
//! | Table 3 (NLP accuracy)              | [`accuracy::nlp_methods`], `repro_table3` |
//! | Table 4 (training memory)           | [`memory::table4_memory`], `repro_table4` |
//! | Table 5 (Llama fine-tuning)         | [`speed::measure_steps`] + [`accuracy::llama_quality`], `repro_table5` |
//! | Figure 7 (autodiff overhead)        | [`overhead::measure_autodiff_overhead`], `repro_fig7_overhead` |
//! | Figure 8 (loss curves)              | [`accuracy::loss_curves`], `repro_fig8_loss_curves` |
//! | §3.2 graph-opt ablation (DCE, reordering) | [`speed::measure_steps`], `repro_ablation_graphopt` |
//!
//! Every speed number is a median of wall-clock steps on the host that ran
//! the binary, timed by the one loop in [`speed::measure_steps`]; every
//! memory number is the planner's output for the real compiled graph.
//! Paper figures are printed beside them and labelled as such. Table 1 (the
//! qualitative framework comparison) is a static table in the README;
//! Figure 9 compares frameworks on devices this repository cannot run and
//! has no binary.
//!
//! Kernel and compile-time microbenchmarks live in `benches/`. End-to-end
//! speed, memory and serving cost are measured by the repository benchmark
//! (`BENCHMARK.json`, the `benchmarks/` package), not by this crate.

#![deny(missing_docs)]

pub mod accuracy;
pub mod memory;
pub mod overhead;
pub mod speed;
pub(crate) mod table;

pub use table::TextTable;
