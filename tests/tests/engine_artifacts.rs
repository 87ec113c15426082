//! Program-artifact integration suite: offline export → registry-backed
//! cold start must be **bit-identical** to JIT compilation, and a damaged
//! registry must degrade to JIT transparently (cost time, never
//! soundness).
//!
//! The load-bearing claims:
//!
//! 1. Artifact generation is deterministic: exporting the same program
//!    twice yields byte-identical files (content-addressed caching would
//!    be meaningless otherwise).
//! 2. An engine whose warm rungs load from a registry produces exactly
//!    the same parameters (`f32::to_bits`), per-request losses and
//!    rejected sets as a JIT-compiled engine on a mixed train/eval
//!    stream, on both the arena and boxed backends.
//! 3. With a warm registry the engine compiles nothing (`misses == 0`)
//!    and its admission latency model is seeded before the first request.
//! 4. Truncated, corrupted or version-bumped artifacts are rejected
//!    without panicking, recorded in `registry_misses`, and the JIT
//!    fallback still serves bit-identical results.

use std::path::PathBuf;

use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::{ExecutorConfig, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{
    AdmissionPolicy, ArtifactRegistry, CompileOptions, Compiler, Engine, EngineConfig, Outcome,
    Program, Request, ServingKind,
};

const DIM: usize = 16;
const CLASSES: usize = 4;

/// Deterministic two-layer MLP family (the `ModelFactory` contract: same
/// parameter names, shapes and values at every batch size).
fn mlp(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(42);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, DIM]);
    let labels = b.input("labels", [batch]);
    let w1 = b.weight("fc1.weight", [32, DIM], &mut rng);
    let b1 = b.bias("fc1.bias", 32);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [CLASSES, 32], &mut rng);
    let b2 = b.bias("fc2.bias", CLASSES);
    let logits = b.linear(h, w2, Some(b2));
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "x".to_string(),
        label_input: "labels".to_string(),
        num_blocks: 2,
        name: "artifact-mlp".to_string(),
    }
}

fn options(executor: ExecutorConfig) -> CompileOptions {
    let mut o = CompileOptions {
        optimizer: Optimizer::sgd(0.1),
        executor,
        ..CompileOptions::default()
    };
    // Pin the fusion level so this suite's artifacts always carry a
    // fused-region program, deterministically under any ambient `PE_FUSION`.
    o.optimize.fusion = pockengine::pe_passes::FusionLevel::Regions;
    o
}

/// A freshly-compiled program with any ambient `PE_PROGRAM_REGISTRY`
/// detached, so the suite is deterministic regardless of the environment.
fn jit_program(executor: ExecutorConfig) -> Program {
    let mut p = Compiler::new(options(executor)).compile(mlp);
    p.attach_registry(None);
    p
}

/// A scratch registry directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pe-artifacts-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A linearly-separable request: class signal at feature `c * 3`.
fn request(kind: ServingKind, rows: usize, rng: &mut Rng) -> Request {
    let mut features = Tensor::zeros([rows, DIM]);
    let mut labels = Tensor::zeros([rows]);
    for i in 0..rows {
        let c = rng.next_usize(CLASSES);
        for j in 0..DIM {
            features.set(&[i, j], rng.normal() * 0.2);
        }
        features.set(&[i, c * 3], 2.0);
        labels.data_mut()[i] = c as f32;
    }
    Request::new(kind, features, labels)
}

/// Mixed train/eval traffic across several rungs.
fn stream() -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(7);
    let mut out = Vec::new();
    for i in 0..10 {
        out.push(request(ServingKind::Train, 4, &mut rng));
        out.push(request(
            ServingKind::Eval,
            if i % 2 == 0 { 2 } else { 8 },
            &mut rng,
        ));
    }
    out
}

/// Every parameter's exact bit pattern, in canonical store order.
fn param_bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store
        .keys()
        .iter()
        .map(|key| {
            store
                .get(key)
                .expect("param present")
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// Per-request observable behaviour, bit-exact: completion losses and the
/// rejected index set.
fn outcome_fingerprint(outcomes: &[Outcome]) -> (Vec<Option<u32>>, Vec<usize>) {
    let mut losses = Vec::new();
    let mut rejected = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Completed(r) => losses.push(r.loss.map(f32::to_bits)),
            Outcome::Rejected { .. } => rejected.push(i),
            Outcome::Cancelled => panic!("synchronous serving never cancels"),
        }
    }
    (losses, rejected)
}

fn engine_config(executor: ExecutorConfig, registry: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        executor,
        warm_batches: vec![2, 4, 8],
        admission: AdmissionPolicy::AcceptAll,
        registry,
        ..EngineConfig::default()
    }
}

#[test]
fn export_is_deterministic_byte_for_byte() {
    for exec in [ExecutorConfig::arena(), ExecutorConfig::boxed()] {
        for batch in [1, 4, 8] {
            let first = jit_program(exec).export_artifact(batch, exec).render();
            let second = jit_program(exec).export_artifact(batch, exec).render();
            assert_eq!(
                first, second,
                "artifact bytes differ across runs (batch {batch}, {exec:?})"
            );
        }
    }
}

#[test]
fn stored_artifacts_round_trip_through_the_registry_loader() {
    let dir = scratch_dir("roundtrip");
    let exec = ExecutorConfig::arena();
    let program = jit_program(exec);
    let registry = ArtifactRegistry::new(&dir);
    let paths = program
        .export_artifacts(&registry, &[2, 4], exec)
        .expect("export succeeds");
    assert_eq!(paths.len(), 2);
    for (path, batch) in paths.iter().zip([2usize, 4]) {
        let artifact = registry
            .load(program.content_hash(), batch, exec)
            .expect("stored artifact loads");
        assert_eq!(artifact.batch, batch);
        assert_eq!(artifact.content_hash, program.content_hash());
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            artifact.render(),
            "render is the on-disk byte representation"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_engine_is_bit_identical_to_jit_engine() {
    let requests = stream();
    for exec in [ExecutorConfig::arena(), ExecutorConfig::boxed()] {
        let dir = scratch_dir(&format!("identity-{}", exec.backend.name()));
        let registry = ArtifactRegistry::new(&dir);
        jit_program(exec)
            .export_artifacts(&registry, &[2, 4, 8], exec)
            .expect("export succeeds");

        let mut jit = Engine::new(jit_program(exec), engine_config(exec, None));
        let jit_outcomes = jit.serve(&requests).unwrap();

        let mut cold = Engine::new(jit_program(exec), engine_config(exec, Some(dir.clone())));
        let stats = cold.cache_stats();
        assert_eq!(
            stats.registry_hits, 3,
            "every warm rung should load from the registry ({exec:?})"
        );
        assert_eq!(stats.registry_misses, 0, "{exec:?}");
        let cold_outcomes = cold.serve(&requests).unwrap();

        assert_eq!(
            outcome_fingerprint(&jit_outcomes),
            outcome_fingerprint(&cold_outcomes),
            "losses/rejections diverge under {exec:?}"
        );
        assert_eq!(
            param_bits(jit.program().store()),
            param_bits(cold.program().store()),
            "trained parameters diverge under {exec:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_registry_cold_start_skips_compilation_and_seeds_admission() {
    let dir = scratch_dir("coldstart");
    let exec = ExecutorConfig::arena();
    let registry = ArtifactRegistry::new(&dir);
    jit_program(exec)
        .export_artifacts(&registry, &[2, 4, 8], exec)
        .expect("export succeeds");

    let engine = Engine::new(jit_program(exec), engine_config(exec, Some(dir.clone())));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 0, "a warm registry compiles nothing");
    assert_eq!(stats.registry_hits, 3);
    let metrics = engine.metrics();
    assert_eq!(metrics.registry_hits, 3);
    assert_eq!(metrics.registry_misses, 0);
    for batch in [2, 4, 8] {
        assert!(
            engine.latency_estimate(batch, exec).is_some(),
            "artifact latency profile should seed admission for batch {batch} \
             before any request is served"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_registry_counts_misses_and_still_serves() {
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let engine = Engine::new(jit_program(ExecutorConfig::arena()), {
        engine_config(ExecutorConfig::arena(), Some(dir.clone()))
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.registry_hits, 0);
    assert_eq!(
        stats.registry_misses, 3,
        "every warm rung consulted the registry and fell back to JIT"
    );
    assert_eq!(stats.misses, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damages every artifact in `dir` with `f`, then proves the engine falls
/// back to JIT without panicking, records the misses, and still matches
/// the JIT engine bit for bit.
fn assert_damage_falls_back(tag: &str, damage: impl Fn(&str) -> String) {
    let exec = ExecutorConfig::arena();
    let requests = stream();
    let dir = scratch_dir(tag);
    let registry = ArtifactRegistry::new(&dir);
    let paths = jit_program(exec)
        .export_artifacts(&registry, &[2, 4, 8], exec)
        .expect("export succeeds");
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, damage(&text)).unwrap();
    }

    let mut jit = Engine::new(jit_program(exec), engine_config(exec, None));
    let jit_outcomes = jit.serve(&requests).unwrap();

    let mut cold = Engine::new(jit_program(exec), engine_config(exec, Some(dir.clone())));
    let stats = cold.cache_stats();
    assert_eq!(
        stats.registry_hits, 0,
        "{tag}: damaged artifacts must not load"
    );
    assert_eq!(
        stats.registry_misses, 3,
        "{tag}: fallbacks must be recorded"
    );
    assert_eq!(cold.metrics().registry_misses, 3, "{tag}");
    let cold_outcomes = cold.serve(&requests).unwrap();

    assert_eq!(
        outcome_fingerprint(&jit_outcomes),
        outcome_fingerprint(&cold_outcomes),
        "{tag}: JIT fallback must serve identical results"
    );
    assert_eq!(
        param_bits(jit.program().store()),
        param_bits(cold.program().store()),
        "{tag}: JIT fallback must train identical parameters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_artifacts_fall_back_to_jit() {
    assert_damage_falls_back("truncated", |text| text[..text.len() / 2].to_string());
}

#[test]
fn corrupted_artifacts_fall_back_to_jit() {
    // Flip the schedule into garbage while keeping the JSON well-formed
    // enough to exercise the structural validators, not just the parser.
    assert_damage_falls_back("corrupted", |text| {
        text.replacen(
            "\"schedule\":{\"order\":[",
            "\"schedule\":{\"order\":[999999,",
            1,
        )
    });
}

#[test]
fn version_bumped_artifacts_fall_back_to_jit() {
    assert_damage_falls_back("version", |text| {
        let current = format!("{{\"version\":{},", pockengine::ARTIFACT_VERSION);
        assert!(text.starts_with(&current), "artifact version prefix moved");
        text.replacen(&current, "{\"version\":999,", 1)
    });
}

#[test]
fn non_json_artifacts_fall_back_to_jit() {
    assert_damage_falls_back("nonjson", |_| "not an artifact at all".to_string());
}

#[test]
fn unknown_micro_op_artifacts_fall_back_to_jit() {
    // A fused-region program naming a micro-op this build does not know
    // (e.g. written by a future version) must decode as a registry miss.
    assert_damage_falls_back("microop", |text| {
        assert!(
            text.contains("fused_region "),
            "artifact must carry a fused-region program"
        );
        text.replacen("u relu", "u frobnicate", 1)
    });
}
