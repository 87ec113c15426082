//! Latency / throughput experiments driven by the device cost models
//! (Figure 2's speedup chart, Figure 9, Table 5's iteration latency, and the
//! graph-optimisation ablation).

use pockengine::pe_backends::{estimate_step_latency, DeviceProfile, FrameworkProfile};
use pockengine::pe_models::{
    build_bert, build_llama, build_mobilenet, build_resnet, mcunet_5fps_config, BertConfig,
    BuiltModel, LlamaConfig, MobileNetV2Config, ResNetConfig,
};
use pockengine::pe_passes::{OptimizeOptions, ScheduleStrategy};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{
    paper_scheme_bert, paper_scheme_distilbert, paper_scheme_llama, paper_scheme_mcunet,
    paper_scheme_mobilenetv2, paper_scheme_resnet50, SparseScheme, UpdateRule,
};
use pockengine::pe_tensor::Rng;
use pockengine::{analyze, CompileOptions, ProgramAnalysis};

/// The evaluation models used by the throughput experiments, at paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperModel {
    /// MCUNet-5FPS (TinyML CNN, 128x128).
    McuNet,
    /// MobileNetV2 width 1.0 at 224x224.
    MobileNetV2,
    /// ResNet-50 at 224x224.
    ResNet50,
    /// BERT-base at sequence length 128.
    Bert,
    /// DistilBERT at sequence length 128.
    DistilBert,
    /// LlamaV2-7B geometry at sequence length 512.
    Llama7b,
}

impl PaperModel {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PaperModel::McuNet => "MCUNet",
            PaperModel::MobileNetV2 => "MobileNetV2",
            PaperModel::ResNet50 => "ResNet-50",
            PaperModel::Bert => "BERT",
            PaperModel::DistilBert => "DistilBERT",
            PaperModel::Llama7b => "LlamaV2-7B",
        }
    }

    /// The vision/NLP models compared in Figure 9 (excluding Llama, which has
    /// its own Orin experiment).
    pub fn figure9_models() -> Vec<PaperModel> {
        vec![
            PaperModel::McuNet,
            PaperModel::MobileNetV2,
            PaperModel::ResNet50,
            PaperModel::Bert,
            PaperModel::DistilBert,
        ]
    }

    /// Builds the paper-scale model (deferred parameters) at the given batch.
    pub fn build(self, batch: usize, rng: &mut Rng) -> BuiltModel {
        match self {
            PaperModel::McuNet => build_mobilenet(&mcunet_5fps_config(batch), rng),
            PaperModel::MobileNetV2 => build_mobilenet(&MobileNetV2Config::paper(1.0, batch), rng),
            PaperModel::ResNet50 => build_resnet(&ResNetConfig::resnet50(batch), rng),
            PaperModel::Bert => build_bert(&BertConfig::bert_base(batch, 2), rng),
            PaperModel::DistilBert => build_bert(&BertConfig::distilbert(batch, 2), rng),
            PaperModel::Llama7b => build_llama(&LlamaConfig::llama2_7b(batch), rng),
        }
    }

    /// The paper's sparse update scheme for this model.
    pub fn paper_scheme(self) -> SparseScheme {
        match self {
            PaperModel::McuNet => paper_scheme_mcunet(17),
            PaperModel::MobileNetV2 => paper_scheme_mobilenetv2(),
            PaperModel::ResNet50 => paper_scheme_resnet50(),
            PaperModel::Bert => paper_scheme_bert(),
            PaperModel::DistilBert => paper_scheme_distilbert(),
            PaperModel::Llama7b => paper_scheme_llama(),
        }
    }
}

/// Analyses one model under a rule, with all graph optimisations enabled.
pub fn analyze_model(
    model: &BuiltModel,
    rule: UpdateRule,
    optimizer: Optimizer,
) -> ProgramAnalysis {
    analyze(
        model,
        &CompileOptions {
            update_rule: rule,
            optimizer,
            optimize: OptimizeOptions::default(),
            schedule: ScheduleStrategy::Reordered,
            ..CompileOptions::default()
        },
    )
}

/// One throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    /// Framework name.
    pub framework: String,
    /// Model name.
    pub model: String,
    /// Device name.
    pub device: String,
    /// Samples (images / sentences) per second, `None` when the framework
    /// cannot target the device.
    pub samples_per_sec: Option<f64>,
}

/// Figure 9: training throughput for each framework on one device.
///
/// Baseline frameworks execute the *full* unpruned backward graph (they
/// cannot realise sparse savings); PockEngine is reported twice, once with
/// full backpropagation and once with the paper's sparse scheme.
pub fn figure9_for_device(
    device: &DeviceProfile,
    models: &[PaperModel],
    batch: usize,
) -> Vec<ThroughputPoint> {
    let mut rng = Rng::seed_from_u64(0);
    let mut points = Vec::new();
    for &pm in models {
        let model = pm.build(batch, &mut rng);
        let full = analyze_model(&model, UpdateRule::Full, Optimizer::sgd(0.01));
        let sparse = analyze_model(
            &model,
            UpdateRule::Sparse(pm.paper_scheme()),
            Optimizer::sgd(0.01),
        );

        for fw in FrameworkProfile::baselines() {
            let lat = estimate_step_latency(
                &full.training_graph.graph,
                &full.schedule.order,
                device,
                &fw,
            );
            points.push(ThroughputPoint {
                framework: fw.name.clone(),
                model: pm.name().to_string(),
                device: device.name.clone(),
                samples_per_sec: lat.ok().map(|l| l.throughput(batch)),
            });
        }
        let pe = FrameworkProfile::pockengine();
        for (label, analysis) in [
            ("PockEngine (full-bp)", &full),
            ("PockEngine (sparse-bp)", &sparse),
        ] {
            let lat = estimate_step_latency(
                &analysis.training_graph.graph,
                &analysis.schedule.order,
                device,
                &pe,
            );
            points.push(ThroughputPoint {
                framework: label.to_string(),
                model: pm.name().to_string(),
                device: device.name.clone(),
                samples_per_sec: lat.ok().map(|l| l.throughput(batch)),
            });
        }
    }
    points
}

/// One bar of the sparse-backpropagation speedup chart (paper Figure 2's
/// companion chart): speedup of a scheme over full backpropagation, from the
/// backward+update work on an edge CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupPoint {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Step speedup over full backpropagation.
    pub speedup: f64,
}

/// Computes the per-model speedups of bias-only and sparse-BP over full BP.
pub fn scheme_speedups(models: &[PaperModel], batch: usize) -> Vec<SpeedupPoint> {
    let device = DeviceProfile::raspberry_pi4();
    let fw = FrameworkProfile::pockengine();
    let mut rng = Rng::seed_from_u64(0);
    let mut out = Vec::new();
    for &pm in models {
        let model = pm.build(batch, &mut rng);
        let latency_of = |rule: UpdateRule| -> f64 {
            let a = analyze_model(&model, rule, Optimizer::sgd(0.01));
            estimate_step_latency(&a.training_graph.graph, &a.schedule.order, &device, &fw)
                .expect("pockengine supports every device")
                .total_us()
        };
        let full = latency_of(UpdateRule::Full);
        let bias = latency_of(UpdateRule::BiasOnly);
        let sparse = latency_of(UpdateRule::Sparse(pm.paper_scheme()));
        out.push(SpeedupPoint {
            model: pm.name().to_string(),
            scheme: "full-bp".into(),
            speedup: 1.0,
        });
        out.push(SpeedupPoint {
            model: pm.name().to_string(),
            scheme: "bias-only".into(),
            speedup: full / bias,
        });
        out.push(SpeedupPoint {
            model: pm.name().to_string(),
            scheme: "sparse-bp".into(),
            speedup: full / sparse,
        });
    }
    out
}

/// One row of Table 5's latency/memory comparison on Jetson AGX Orin.
#[derive(Debug, Clone, PartialEq)]
pub struct LlamaRow {
    /// Framework + method label.
    pub label: String,
    /// Iteration latency in seconds.
    pub iteration_s: f64,
    /// Training memory in GiB.
    pub memory_gib: f64,
}

/// Table 5 (system half): LlamaV2-7B instruction-tuning iteration latency and
/// memory on Jetson AGX Orin for PyTorch full fine-tuning, PyTorch LoRA
/// (approximated as tiny-rank channel-sparse updates over every block, which
/// keeps the full backpropagation depth), PockEngine full, and PockEngine
/// sparse.
pub fn table5_llama_system(batch: usize) -> Vec<LlamaRow> {
    let device = DeviceProfile::jetson_agx_orin();
    let mut rng = Rng::seed_from_u64(0);
    let model = PaperModel::Llama7b.build(batch, &mut rng);
    let optimizer = Optimizer::lion(1e-4);

    // LoRA proxy: rank-8-like updates on attention and gate projections of
    // every block (full backward depth, tiny weight gradients).
    let lora_rule = UpdateRule::Sparse(SparseScheme {
        name: "lora-proxy".to_string(),
        bias_last_blocks: 0,
        weight_rules: vec![
            pockengine::pe_sparse::WeightRule::partial(
                "attn.",
                pockengine::pe_sparse::BlockSelector::All,
                8.0 / 4096.0,
            ),
            pockengine::pe_sparse::WeightRule::partial(
                "ffn.gate",
                pockengine::pe_sparse::BlockSelector::All,
                8.0 / 4096.0,
            ),
        ],
        train_head: false,
        train_norm: false,
    });

    let full = analyze_model(&model, UpdateRule::Full, optimizer);
    let lora = analyze_model(&model, lora_rule, optimizer);
    let sparse = analyze_model(
        &model,
        UpdateRule::Sparse(PaperModel::Llama7b.paper_scheme()),
        optimizer,
    );

    let gib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0 * 1024.0);
    let latency = |a: &ProgramAnalysis, fw: &FrameworkProfile| {
        estimate_step_latency(&a.training_graph.graph, &a.schedule.order, &device, fw)
            .expect("edge GPU is supported by both frameworks")
            .total_us()
            / 1e6
    };

    vec![
        LlamaRow {
            label: "PyTorch FT-Full".to_string(),
            iteration_s: latency(&full, &FrameworkProfile::pytorch()),
            memory_gib: gib(full.memory.total_bytes()),
        },
        LlamaRow {
            label: "PyTorch LoRA (rank=8)".to_string(),
            iteration_s: latency(&lora, &FrameworkProfile::pytorch()),
            memory_gib: gib(lora.memory.total_bytes()),
        },
        LlamaRow {
            label: "PockEngine FT-Full".to_string(),
            iteration_s: latency(&full, &FrameworkProfile::pockengine()),
            memory_gib: gib(full.memory.total_bytes()),
        },
        LlamaRow {
            label: "PockEngine Sparse".to_string(),
            iteration_s: latency(&sparse, &FrameworkProfile::pockengine()),
            memory_gib: gib(sparse.memory.total_bytes()),
        },
    ]
}

/// One row of the graph-optimisation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Step latency in milliseconds on the ablation device.
    pub latency_ms: f64,
    /// Peak transient memory in MiB.
    pub transient_mib: f64,
}

/// Graph-optimisation ablation (§3.2): each pass toggled off in turn, on the
/// MobileNetV2 sparse-BP workload on a Raspberry Pi 4.
pub fn graph_optimization_ablation() -> Vec<AblationRow> {
    let device = DeviceProfile::raspberry_pi4();
    let fw = FrameworkProfile::pockengine();
    let mut rng = Rng::seed_from_u64(0);
    let model = PaperModel::MobileNetV2.build(8, &mut rng);
    let rule = UpdateRule::Sparse(PaperModel::MobileNetV2.paper_scheme());

    let full = OptimizeOptions::default();
    let configs: Vec<(&str, OptimizeOptions, ScheduleStrategy)> = vec![
        ("all optimizations", full, ScheduleStrategy::Reordered),
        ("no reordering", full, ScheduleStrategy::Conventional),
        (
            "none",
            OptimizeOptions::none(),
            ScheduleStrategy::Conventional,
        ),
    ];

    configs
        .into_iter()
        .map(|(label, opts, sched)| {
            let analysis = analyze(
                &model,
                &CompileOptions {
                    update_rule: rule.clone(),
                    optimizer: Optimizer::sgd(0.01),
                    optimize: opts,
                    schedule: sched,
                    ..CompileOptions::default()
                },
            );
            let lat = estimate_step_latency(
                &analysis.training_graph.graph,
                &analysis.schedule.order,
                &device,
                &fw,
            )
            .expect("supported");
            AblationRow {
                config: label.to_string(),
                latency_ms: lat.total_ms(),
                transient_mib: analysis.memory.transient_peak_bytes as f64 / (1024.0 * 1024.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_chart_has_expected_shape() {
        let points = scheme_speedups(&[PaperModel::McuNet, PaperModel::ResNet50], 8);
        assert_eq!(points.len(), 6);
        for p in &points {
            match p.scheme.as_str() {
                "full-bp" => assert!((p.speedup - 1.0).abs() < 1e-9),
                _ => assert!(
                    p.speedup > 1.0,
                    "{} {} should beat full-bp",
                    p.model,
                    p.scheme
                ),
            }
        }
        // ResNet's sparse speedup should exceed MCUNet's (paper: 1.6x vs 1.3x).
        let get = |model: &str| {
            points
                .iter()
                .find(|p| p.model == model && p.scheme == "sparse-bp")
                .map(|p| p.speedup)
                .unwrap()
        };
        assert!(get("ResNet-50") > get("MCUNet") * 0.9);
    }

    #[test]
    fn table5_orders_frameworks_correctly() {
        let rows = table5_llama_system(1);
        let get = |label: &str| rows.iter().find(|r| r.label.contains(label)).unwrap();
        let pytorch_full = get("PyTorch FT-Full");
        let pe_full = get("PockEngine FT-Full");
        let pe_sparse = get("PockEngine Sparse");
        let lora = get("LoRA");
        // Shape of Table 5: PockEngine much faster than PyTorch; sparse faster
        // than full; LoRA saves memory but not much time versus PyTorch full.
        let speedup_full = pytorch_full.iteration_s / pe_full.iteration_s;
        assert!(
            (2.0..12.0).contains(&speedup_full),
            "speedup {speedup_full:.1}"
        );
        assert!(pe_sparse.iteration_s < pe_full.iteration_s);
        assert!(lora.memory_gib < pytorch_full.memory_gib);
        assert!(lora.iteration_s > pe_full.iteration_s);
        assert!(pe_sparse.memory_gib < pe_full.memory_gib);
    }

    #[test]
    fn ablation_shows_every_pass_helps() {
        let rows = graph_optimization_ablation();
        let all = rows
            .iter()
            .find(|r| r.config == "all optimizations")
            .unwrap();
        let none = rows.iter().find(|r| r.config == "none").unwrap();
        // With no fusion pass, DCE finds nothing to remove here and the cost
        // model sums per-op latencies in any order, so the passes may tie
        // but must never cost latency.
        assert!(
            none.latency_ms >= all.latency_ms,
            "optimizations must not add latency"
        );
        // Reordering never hurts memory; for this large-activation workload
        // the peak can be activation-bound, so only require "no worse" here
        // (the MCU case in `memory::mcu_reordering_saving` shows the strict
        // reduction).
        let no_reorder = rows.iter().find(|r| r.config == "no reordering").unwrap();
        assert!(no_reorder.transient_mib >= all.transient_mib - 1e-6);
    }
}
