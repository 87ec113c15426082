//! Minimal machine-readable bench reports.
//!
//! The perf trajectory of this repository is tracked by JSON files
//! (`BENCH_training_step.json`, `BENCH_engine_serving.json`) written by the
//! bench binaries. The hand-rolled JSON value/parser/writer now lives in
//! `pe_data::json`; this module re-exports it under its historical home so
//! the bench crate's report and gate code keep reading naturally.

pub use pockengine::pe_data::json::{write_report, Json};
