//! The CI perf-regression gate: compares freshly emitted `BENCH_*.json`
//! reports against the committed baselines.
//!
//! Nothing used to stop a PR from silently regressing the numbers the bench
//! binaries accumulate. The `bench_check` binary (this module's logic)
//! closes that gap: CI regenerates the reports into a scratch directory and
//! fails the build if a gated metric regressed beyond tolerance:
//!
//! * **Throughput** (`requests_per_sec` for the serving report, the
//!   per-variant `micros_per_step` inverse for the training-step report)
//!   may not drop by more than the tolerance band (default **25%**).
//! * **Allocations** (`allocs_per_step`) may not increase at all — the
//!   arena executor's zero-allocation steady state is a hard invariant, so
//!   the slack is one allocation per step (absorbing one-off harness noise
//!   in the averaged counter), not a percentage.
//! * A variant present in the baseline may not disappear from the fresh
//!   report; a gated field present in the baseline must exist in the fresh
//!   report.
//!
//! Gated fields missing from the *baseline* are skipped (with a note), so a
//! report-format extension lands in the same PR that starts gating it.
//! Baselines are machine-specific: refresh the committed files when the
//! benchmark hardware changes.

use crate::report::Json;

/// Gate configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Allowed fractional throughput drop (0.25 = fail below 75% of the
    /// baseline).
    pub tolerance: f64,
    /// Allowed fractional drop for the networked gates: the net report and
    /// every fleet leg, including its per-pool-size
    /// `requests_per_sec_workers_N` fields. TCP hops and cross-process
    /// scheduling are at the mercy of the host's core count and load, so
    /// they get a wider band than the in-process headline.
    pub multi_worker_tolerance: f64,
    /// Allowed absolute increase of averaged allocation counters.
    pub alloc_slack: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            tolerance: 0.25,
            multi_worker_tolerance: 0.40,
            alloc_slack: 1.0,
        }
    }
}

/// Outcome of checking one report pair.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Human-readable `metric: baseline -> fresh` lines that passed.
    pub passes: Vec<String>,
    /// Violations that must fail the build.
    pub violations: Vec<String>,
    /// Skipped comparisons (e.g. field not in the baseline yet).
    pub notes: Vec<String>,
}

impl CheckOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn num(report: &Json, field: &str) -> Option<f64> {
    report
        .get(field)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
}

/// Checks one `lower is worse` throughput-style metric.
fn check_throughput(
    outcome: &mut CheckOutcome,
    label: &str,
    baseline: Option<f64>,
    fresh: Option<f64>,
    tolerance: f64,
) {
    match (baseline, fresh) {
        (Some(base), Some(new)) => {
            let floor = base * (1.0 - tolerance);
            let line = format!("{label}: baseline {base:.1}, fresh {new:.1} (floor {floor:.1})");
            if new < floor {
                outcome
                    .violations
                    .push(format!("{line} — throughput regression"));
            } else {
                outcome.passes.push(line);
            }
        }
        (Some(_), None) => outcome.violations.push(format!(
            "{label}: gated metric missing from the fresh report"
        )),
        (None, _) => outcome
            .notes
            .push(format!("{label}: not in the baseline yet, skipped")),
    }
}

/// Checks one `higher is worse` counter-style metric (allocations, kernel
/// launches, fallback dispatches). `failure` names the violation.
fn check_counter(
    outcome: &mut CheckOutcome,
    label: &str,
    baseline: Option<f64>,
    fresh: Option<f64>,
    slack: f64,
    failure: &str,
) {
    match (baseline, fresh) {
        (Some(base), Some(new)) => {
            let line = format!("{label}: baseline {base:.1}, fresh {new:.1}");
            if new > base + slack {
                outcome.violations.push(format!("{line} — {failure}"));
            } else {
                outcome.passes.push(line);
            }
        }
        (Some(_), None) => outcome.violations.push(format!(
            "{label}: gated metric missing from the fresh report"
        )),
        (None, _) => outcome
            .notes
            .push(format!("{label}: not in the baseline yet, skipped")),
    }
}

/// Compares a fresh report against its committed baseline. Dispatches on
/// the report's `bench` tag; unknown tags only check that the tags match.
pub fn check_reports(baseline: &Json, fresh: &Json, cfg: CheckConfig) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let base_tag = baseline.get("bench").and_then(Json::as_str).unwrap_or("?");
    let fresh_tag = fresh.get("bench").and_then(Json::as_str).unwrap_or("?");
    if base_tag != fresh_tag {
        outcome.violations.push(format!(
            "bench tag mismatch: baseline '{base_tag}' vs fresh '{fresh_tag}'"
        ));
        return outcome;
    }
    match base_tag {
        "engine_serving" => {
            check_throughput(
                &mut outcome,
                "engine_serving.requests_per_sec",
                num(baseline, "requests_per_sec"),
                num(fresh, "requests_per_sec"),
                cfg.tolerance,
            );
        }
        "training_step" => {
            // Program invariants. The step may not launch more kernels
            // than the committed baseline, and the arena run may never
            // dispatch an allocating fallback kernel.
            check_counter(
                &mut outcome,
                "training_step.launch_count",
                num(baseline, "launch_count"),
                num(fresh, "launch_count"),
                0.0,
                "kernel launches increased",
            );
            check_counter(
                &mut outcome,
                "training_step.fallback_dispatches",
                num(baseline, "fallback_dispatches"),
                num(fresh, "fallback_dispatches"),
                0.0,
                "allocating fallback kernels dispatched",
            );
            let base_variants = baseline
                .get("variants")
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            let fresh_variants = fresh.get("variants").and_then(Json::as_arr).unwrap_or(&[]);
            for base_variant in base_variants {
                let Some(name) = base_variant.get("name").and_then(Json::as_str) else {
                    outcome
                        .notes
                        .push("baseline variant without a name, skipped".to_string());
                    continue;
                };
                let Some(fresh_variant) = fresh_variants
                    .iter()
                    .find(|v| v.get("name").and_then(Json::as_str) == Some(name))
                else {
                    outcome.violations.push(format!(
                        "training_step.{name}: variant disappeared from the fresh report"
                    ));
                    continue;
                };
                // micros_per_step is latency: invert the band so a >tol
                // throughput drop (1/latency) fails.
                let base_us = num(base_variant, "micros_per_step");
                let fresh_us = num(fresh_variant, "micros_per_step");
                check_throughput(
                    &mut outcome,
                    &format!("training_step.{name}.steps_per_sec"),
                    base_us.map(|us| 1e6 / us.max(1e-9)),
                    fresh_us.map(|us| 1e6 / us.max(1e-9)),
                    cfg.tolerance,
                );
                check_counter(
                    &mut outcome,
                    &format!("training_step.{name}.allocs_per_step"),
                    num(base_variant, "allocs_per_step"),
                    num(fresh_variant, "allocs_per_step"),
                    cfg.alloc_slack,
                    "allocations increased",
                );
            }
        }
        "net_serving" => {
            // The networked path stacks the host's TCP loopback and thread
            // scheduler on top of the engine, so both gates use the wide
            // multi-worker band: throughput as a floor, and tail latency as
            // a ceiling by inverting to a rate so the same lower-is-worse
            // comparison applies.
            check_throughput(
                &mut outcome,
                "net_serving.requests_per_sec",
                num(baseline, "requests_per_sec"),
                num(fresh, "requests_per_sec"),
                cfg.multi_worker_tolerance,
            );
            check_throughput(
                &mut outcome,
                "net_serving.p99_resolutions_per_sec",
                num(baseline, "latency_p99_us").map(|us| 1e6 / us.max(1e-9)),
                num(fresh, "latency_p99_us").map(|us| 1e6 / us.max(1e-9)),
                cfg.multi_worker_tolerance,
            );
        }
        "fleet_serving" => {
            // Every fleet metric crosses two TCP hops (client → balancer →
            // worker) plus the balancer's routing threads, so all gates —
            // the single-worker headline, every pool-size leg, and the
            // inverted p99 ceiling — use the wide multi-worker band.
            check_throughput(
                &mut outcome,
                "fleet_serving.requests_per_sec",
                num(baseline, "requests_per_sec"),
                num(fresh, "requests_per_sec"),
                cfg.multi_worker_tolerance,
            );
            check_throughput(
                &mut outcome,
                "fleet_serving.p99_resolutions_per_sec",
                num(baseline, "latency_p99_us").map(|us| 1e6 / us.max(1e-9)),
                num(fresh, "latency_p99_us").map(|us| 1e6 / us.max(1e-9)),
                cfg.multi_worker_tolerance,
            );
            if let Json::Obj(fields) = baseline {
                for (key, value) in fields {
                    if !key.starts_with("requests_per_sec_workers_") {
                        continue;
                    }
                    check_throughput(
                        &mut outcome,
                        &format!("fleet_serving.{key}"),
                        value.as_f64().filter(|v| v.is_finite()),
                        num(fresh, key),
                        cfg.multi_worker_tolerance,
                    );
                }
            }
        }
        other => outcome
            .notes
            .push(format!("no gate rules for bench tag '{other}'")),
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serving(rps: f64) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("engine_serving".into())),
            ("requests_per_sec", Json::Num(rps)),
        ])
    }

    fn training(variants: Vec<(&str, f64, f64)>) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("training_step".into())),
            (
                "variants",
                Json::Arr(
                    variants
                        .into_iter()
                        .map(|(name, us, allocs)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.into())),
                                ("micros_per_step", Json::Num(us)),
                                ("allocs_per_step", Json::Num(allocs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn passes_within_the_band() {
        let outcome = check_reports(&serving(1000.0), &serving(800.0), CheckConfig::default());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        // Faster than baseline is trivially fine.
        assert!(check_reports(&serving(1000.0), &serving(2000.0), CheckConfig::default()).ok());
    }

    #[test]
    fn fails_on_a_throughput_drop_beyond_tolerance() {
        let outcome = check_reports(&serving(1000.0), &serving(700.0), CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("throughput regression"));
    }

    #[test]
    fn fails_on_any_alloc_increase_beyond_slack() {
        let base = training(vec![("step_arena", 100.0, 0.0)]);
        let ok = training(vec![("step_arena", 100.0, 0.5)]);
        let bad = training(vec![("step_arena", 100.0, 3.0)]);
        assert!(check_reports(&base, &ok, CheckConfig::default()).ok());
        let outcome = check_reports(&base, &bad, CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("allocations increased"));
    }

    #[test]
    fn fails_on_slowdown_or_missing_variant() {
        let base = training(vec![
            ("step_arena", 100.0, 0.0),
            ("step_bias_only", 100.0, 0.0),
        ]);
        // 100µs -> 150µs is a 33% throughput drop: outside the 25% band.
        let slow = training(vec![
            ("step_arena", 150.0, 0.0),
            ("step_bias_only", 100.0, 0.0),
        ]);
        assert!(!check_reports(&base, &slow, CheckConfig::default()).ok());
        // 100µs -> 120µs is a 17% drop: inside.
        let fine = training(vec![
            ("step_arena", 120.0, 0.0),
            ("step_bias_only", 100.0, 0.0),
        ]);
        assert!(check_reports(&base, &fine, CheckConfig::default()).ok());
        let missing = training(vec![("step_arena", 100.0, 0.0)]);
        let outcome = check_reports(&base, &missing, CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("disappeared"));
    }

    #[test]
    fn new_baseline_fields_are_skipped_with_a_note() {
        let old_format = Json::obj(vec![("bench", Json::Str("engine_serving".into()))]);
        let outcome = check_reports(&old_format, &serving(500.0), CheckConfig::default());
        assert!(outcome.ok());
        assert_eq!(outcome.notes.len(), 1, "the gated field is skipped");
    }

    #[test]
    fn gates_the_fusion_launch_counts_and_fallbacks() {
        let with = |launches: f64, fallbacks: f64| {
            Json::obj(vec![
                ("bench", Json::Str("training_step".into())),
                ("launch_count", Json::Num(launches)),
                ("fallback_dispatches", Json::Num(fallbacks)),
                ("variants", Json::Arr(vec![])),
            ])
        };
        let base = with(60.0, 0.0);
        assert!(check_reports(&base, &with(60.0, 0.0), CheckConfig::default()).ok());
        // Fewer launches than the committed baseline: pass.
        assert!(check_reports(&base, &with(50.0, 0.0), CheckConfig::default()).ok());
        // More launches than the committed baseline: fail.
        let outcome = check_reports(&base, &with(70.0, 0.0), CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("kernel launches increased"));
        // Any allocating fallback dispatch: fail.
        let outcome = check_reports(&base, &with(60.0, 2.0), CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("fallback"));
        // Baselines predating the fields skip them with notes.
        assert!(check_reports(&training(vec![]), &base, CheckConfig::default()).ok());
    }

    fn net(rps: f64, p99_us: f64) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("net_serving".into())),
            ("requests_per_sec", Json::Num(rps)),
            ("latency_p99_us", Json::Num(p99_us)),
        ])
    }

    #[test]
    fn net_serving_gates_on_the_wide_band() {
        let base = net(1000.0, 100.0);
        // A 30% throughput drop and a 30% p99 increase both sit inside the
        // 40% multi-worker band.
        assert!(check_reports(&base, &net(700.0, 140.0), CheckConfig::default()).ok());
        // A 50% throughput collapse fails the floor.
        let outcome = check_reports(&base, &net(500.0, 100.0), CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("net_serving.requests_per_sec"));
        // 100us -> 180us p99 is a 44% resolutions-per-sec drop: fails the
        // ceiling.
        let outcome = check_reports(&base, &net(1000.0, 180.0), CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("p99_resolutions_per_sec"));
        // Gated fields may not disappear from the fresh report.
        let gone = Json::obj(vec![("bench", Json::Str("net_serving".into()))]);
        let outcome = check_reports(&base, &gone, CheckConfig::default());
        assert_eq!(outcome.violations.len(), 2);
    }

    fn fleet(rps: f64, p99_us: f64, workers: Vec<(u64, f64)>) -> Json {
        let mut fields = vec![
            ("bench".to_string(), Json::Str("fleet_serving".into())),
            ("requests_per_sec".to_string(), Json::Num(rps)),
            ("latency_p99_us".to_string(), Json::Num(p99_us)),
        ];
        for (n, w_rps) in workers {
            fields.push((format!("requests_per_sec_workers_{n}"), Json::Num(w_rps)));
        }
        Json::Obj(fields)
    }

    #[test]
    fn fleet_serving_gates_every_pool_size_on_the_wide_band() {
        let base = fleet(1000.0, 100.0, vec![(1, 1000.0), (2, 1500.0), (4, 2000.0)]);
        // 30% off everywhere: inside the 40% band.
        let noisy = fleet(700.0, 140.0, vec![(1, 700.0), (2, 1050.0), (4, 1400.0)]);
        assert!(check_reports(&base, &noisy, CheckConfig::default()).ok());
        // One pool leg collapses beyond the band.
        let bad = fleet(1000.0, 100.0, vec![(1, 1000.0), (2, 1500.0), (4, 900.0)]);
        let outcome = check_reports(&base, &bad, CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("requests_per_sec_workers_4"));
        // A p99 blow-up fails the inverted ceiling.
        let slow_tail = fleet(1000.0, 180.0, vec![(1, 1000.0), (2, 1500.0), (4, 2000.0)]);
        let outcome = check_reports(&base, &slow_tail, CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("p99_resolutions_per_sec"));
        // A gated pool leg may not disappear from the fresh report.
        let gone = fleet(1000.0, 100.0, vec![(1, 1000.0), (2, 1500.0)]);
        let outcome = check_reports(&base, &gone, CheckConfig::default());
        assert!(!outcome.ok());
        assert!(outcome.violations[0].contains("missing from the fresh report"));
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let outcome = check_reports(&serving(1.0), &training(vec![]), CheckConfig::default());
        assert!(!outcome.ok());
    }
}
