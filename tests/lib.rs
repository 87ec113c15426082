//! Cross-crate integration tests for PockEngine-RS.
//!
//! The test files under `tests/` exercise the whole pipeline — frontend,
//! compile-time autodiff, graph optimisation, scheduling, memory planning,
//! execution and serving — across crates. [`support`] holds the
//! differential harness every parity test calls: `assert_chain` (eager ≈
//! arena over a disjoint plan = arena over the planner's plan) and
//! `run_everywhere` (`Engine` = queue = TCP = fleet).

pub mod support;
