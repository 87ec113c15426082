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

pub use table::TextTable;
