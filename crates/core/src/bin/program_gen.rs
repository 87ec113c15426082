//! Offline program generator: compiles a model factory across a batch-size
//! rung set and writes content-addressed program artifacts into a registry
//! directory. A cold worker pointed at that directory (via
//! `PE_PROGRAM_REGISTRY` or [`EngineConfig::registry`]) then loads every
//! warm rung from disk instead of JIT-compiling it.
//!
//! ```text
//! cargo run --release -p pockengine --bin program-gen -- \
//!     --out target/program-registry --model mlp --batches 1,2,4,8
//! ```
//!
//! Output is deterministic by default (latency profiles are derived from
//! the graph's flop count, not measured), so running the tool twice over
//! the same model and options produces byte-identical artifacts. Pass
//! `--measure` to override each artifact's latency profile with a timed
//! training step on this machine — more accurate seeding, but the emitted
//! bytes then vary run to run.
//!
//! [`EngineConfig::registry`]: pockengine::EngineConfig

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::{build_mobilenet, BuiltModel, MobileNetV2Config};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{ArtifactRegistry, CompileOptions, Compiler, Program};

/// A small MLP distinct from every model the test and bench suites
/// compile (content hashes ignore parameter values, so the dimensions and
/// op structure are what keep this tool's artifacts from shadowing the
/// exact-stats fixtures when CI points `PE_PROGRAM_REGISTRY` at its
/// output).
fn progen_mlp(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(11);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, 32]);
    let labels = b.input("labels", [batch]);
    let w1 = b.weight("fc1.weight", [48, 32], &mut rng);
    let b1 = b.bias("fc1.bias", 48);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [8, 48], &mut rng);
    let b2 = b.bias("fc2.bias", 8);
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
        name: "progen-mlp".to_string(),
    }
}

fn progen_mobilenet(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(11);
    build_mobilenet(&MobileNetV2Config::tiny(batch, 10), &mut rng)
}

struct Args {
    out: String,
    model: String,
    batches: Vec<usize>,
    measure: bool,
}

const USAGE: &str = "usage: program-gen --out DIR [--model mlp|mobilenet] \
     [--batches 1,2,4,8] [--measure]";

fn parse_args() -> Result<Args, String> {
    let mut out = None;
    let mut model = "mlp".to_string();
    let mut batches = vec![1, 2, 4, 8];
    let mut measure = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--out" => out = Some(value("--out")?),
            "--model" => model = value("--model")?,
            "--batches" => {
                batches = value("--batches")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("invalid batch size '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
                if batches.is_empty() {
                    return Err("--batches requires at least one rung".to_string());
                }
            }
            "--measure" => measure = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(Args {
        out: out.ok_or_else(|| format!("--out is required\n{USAGE}"))?,
        model,
        batches,
        measure,
    })
}

/// Times a handful of training steps on the specialization for `batch`
/// (zero-filled inputs — artifacts never carry parameter values, so the
/// mutated store is irrelevant) and returns the best observation in
/// microseconds.
fn measure_latency_us(program: &mut Program, batch: usize) -> u64 {
    let spec = program.specialize(batch);
    let graph = &spec.analysis.training_graph.graph;
    let mut inputs = HashMap::new();
    for &id in graph.inputs() {
        let node = graph.node(id);
        inputs.insert(node.name.clone(), Tensor::zeros(node.shape.clone()));
    }
    let mut best = u64::MAX;
    for trial in 0..4 {
        let start = Instant::now();
        spec.executor
            .run_step(&inputs)
            .unwrap_or_else(|e| panic!("measured step failed: {e:?}"));
        // Discard the first trial: it pays one-time allocation costs.
        if trial > 0 {
            best = best.min(start.elapsed().as_micros() as u64);
        }
    }
    best.max(1)
}

fn run(args: Args) -> Result<(), String> {
    let factory: fn(usize) -> BuiltModel = match args.model.as_str() {
        "mlp" => progen_mlp,
        "mobilenet" => progen_mobilenet,
        other => return Err(format!("unknown model '{other}' (mlp|mobilenet)")),
    };
    let mut program = Compiler::new(CompileOptions::default()).compile(factory);
    // The generator always compiles from scratch; a stale registry named
    // by the environment must not short-circuit artifact production.
    program.attach_registry(None);
    let registry = ArtifactRegistry::new(&args.out);
    for &batch in &args.batches {
        let mut artifact = program.export_artifact(batch);
        if args.measure {
            artifact.latency_us = measure_latency_us(&mut program, batch);
        }
        let path = registry
            .store(&artifact)
            .map_err(|e| format!("writing {}: {e}", args.out))?;
        println!(
            "{:016x} batch={:<3} latency={}us -> {}",
            artifact.content_hash,
            batch,
            artifact.latency_us,
            path.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
