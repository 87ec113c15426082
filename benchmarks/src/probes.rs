//! Per-layer probes of the traced run: each times the calls into one
//! crate's public functions, from outside, with fixed op counts so that
//! every count repeats exactly from run to run.
//!
//! Model-scoped probes (`models.*`, `graph.*`, `passes.*`, `memplan.*`,
//! `runtime.*`) run on the workload's own model — the CNN, the sparse
//! encoder, or the served MLP at batch 8. Kernel probes use fixed shapes
//! taken from the two finetune models, and the stack ledger, codec and fleet
//! probes always serve the MLP.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pe_fleet::Balancer;
use pe_net::proto::{self, SubmitMode};
use pe_net::{Client, Server, ServerConfig};
use pockengine::pe_graph::OpKind;
use pockengine::pe_runtime::ExecError;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::kernels::conv::{
    conv2d_flops, conv2d_grad_input_into, conv2d_grad_weight_into, conv2d_into, conv2d_out_dims,
    Conv2dParams,
};
use pockengine::pe_tensor::kernels::elementwise::{binary_into, BinaryOp};
use pockengine::pe_tensor::kernels::gemm::{batched_matmul_into, matmul_flops, matmul_into};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{Compiler, Outcome, QueueConfig, Request, Submit, SubmitHandle};

use crate::common::Stop;
use crate::estimator::{median, quiet_quartile};
use crate::finetune::{staged_compile, FinetuneSpec, Model, Staged};
use crate::serve::{self, ServeBuffers, ServeSpec};
use crate::sys::thread_allocs;
use crate::trace::Tracer;

/// A per-layer metric as measured.
pub type Metric = (&'static str, f64);

#[derive(Default)]
pub struct Probed {
    pub metrics: Vec<Metric>,
    /// One line per check a probe failed.
    pub findings: Vec<String>,
}

impl Probed {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// The quiet-side quartile of a set of timings of the same work.
fn quiet(times: &[f64]) -> f64 {
    quiet_quartile(times, true)
}

/// Duration of one of `calls` identical calls, in nanoseconds: their
/// quiet-side quartile, for the reason the workloads use it.
fn call_ns(calls: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    quiet(&times)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// `max |got - reference| / max |reference|`.
fn rel_err(got: &[f32], reference: &[f64]) -> f64 {
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let worst = got
        .iter()
        .zip(reference)
        .fold(0.0f64, |m, (g, r)| m.max((*g as f64 - r).abs()));
    worst / scale
}

/// `a [m, k] x b [n, k]^T` per batch entry, in f64.
fn naive_matmul_nt(a: &[f32], b: &[f32], batch: usize, m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; batch * m * n];
    for bi in 0..batch {
        for i in 0..m {
            for j in 0..n {
                out[(bi * m + i) * n + j] = (0..k)
                    .map(|p| a[(bi * m + i) * k + p] as f64 * b[(bi * n + j) * k + p] as f64)
                    .sum();
            }
        }
    }
    out
}

/// Forward output, input gradient and weight gradient of a grouped
/// convolution, in f64, from the definition.
fn naive_conv(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    p: Conv2dParams,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let [n, cin, h, wd] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    let [cout, cing, kh, kw] = [w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]];
    let [_, _, oh, ow] = conv2d_out_dims(x.dims(), w.dims(), p);
    let per_group = cout / p.groups;
    let (mut y, mut dx, mut dw) = (
        vec![0.0f64; n * cout * oh * ow],
        vec![0.0f64; x.numel()],
        vec![0.0f64; w.numel()],
    );
    for ni in 0..n {
        for co in 0..cout {
            for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                let yi = ((ni * cout + co) * oh + oy) * ow + ox;
                for cg in 0..cing {
                    let ci = (co / per_group) * cing + cg;
                    for (ky, kx) in (0..kh).flat_map(|ky| (0..kw).map(move |kx| (ky, kx))) {
                        let (iy, ix) = (oy * p.stride + ky, ox * p.stride + kx);
                        if iy < p.padding
                            || ix < p.padding
                            || iy - p.padding >= h
                            || ix - p.padding >= wd
                        {
                            continue;
                        }
                        let xi = ((ni * cin + ci) * h + iy - p.padding) * wd + ix - p.padding;
                        let wi = ((co * cing + cg) * kh + ky) * kw + kx;
                        let (xv, wv, g) = (
                            x.data()[xi] as f64,
                            w.data()[wi] as f64,
                            dy.data()[yi] as f64,
                        );
                        y[yi] += xv * wv;
                        dx[xi] += g * wv;
                        dw[wi] += g * xv;
                    }
                }
            }
        }
    }
    (y, dx, dw)
}

/// The CNN's heaviest convolution: input dims, weight dims, parameters.
fn heaviest_conv(seed: u64) -> (Vec<usize>, Vec<usize>, Conv2dParams) {
    let graph = FinetuneSpec::new(Model::CnnFull, seed).build_model().graph;
    graph
        .nodes()
        .iter()
        .filter_map(|node| match node.op {
            OpKind::Conv2d(p) => {
                let dims = |i: usize| graph.node(node.inputs[i]).shape.dims().to_vec();
                Some((dims(0), dims(1), p))
            }
            _ => None,
        })
        .max_by_key(|(x, w, p)| conv2d_flops(x, w, *p))
        .expect("the CNN has convolutions")
}

/// Kernel throughput on the finetune models' shapes, and the kernels' worst
/// error against a naive f64 reference.
fn tensor_probes(seed: u64, out: &mut Probed) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7e50);
    let mut worst = 0.0f64;

    // The encoder's first FFN linear: [batch * seq, hidden] x [ffn, hidden]^T.
    let (m, k, n) = (128, 64, 128);
    let (a, b) = (
        Tensor::randn([m, k], 1.0, &mut rng),
        Tensor::randn([n, k], 1.0, &mut rng),
    );
    let mut y = vec![0.0f32; m * n];
    let ns = call_ns(300, || matmul_into(a.view(), b.view(), false, true, &mut y));
    out.put("tensor.matmul_gflops", matmul_flops(m, k, n, 1) as f64 / ns);
    worst = worst.max(rel_err(
        &y,
        &naive_matmul_nt(a.data(), b.data(), 1, m, k, n),
    ));

    // Its attention scores: [batch, heads, seq, dh] x [batch, heads, seq, dh]^T.
    let (batch, t, dh) = (16, 32, 16);
    let (q, kt) = (
        Tensor::randn([4, 4, t, dh], 1.0, &mut rng),
        Tensor::randn([4, 4, t, dh], 1.0, &mut rng),
    );
    let mut scores = vec![0.0f32; batch * t * t];
    let ns = call_ns(600, || {
        batched_matmul_into(q.view(), kt.view(), false, true, &mut scores)
    });
    out.put(
        "tensor.batched_matmul_gflops",
        matmul_flops(t, dh, t, batch) as f64 / ns,
    );
    worst = worst.max(rel_err(
        &scores,
        &naive_matmul_nt(q.data(), kt.data(), batch, t, dh, t),
    ));

    // The CNN's heaviest layer, forward and both gradients.
    let (x_dims, w_dims, p) = heaviest_conv(seed);
    let flops = conv2d_flops(&x_dims, &w_dims, p) as f64;
    let y_dims = conv2d_out_dims(&x_dims, &w_dims, p);
    let x = Tensor::randn(x_dims.clone(), 1.0, &mut rng);
    let w = Tensor::randn(w_dims.clone(), 0.3, &mut rng);
    let dy = Tensor::randn(y_dims.to_vec(), 1.0, &mut rng);
    let (mut cy, mut dx, mut dw) = (
        vec![0.0f32; dy.numel()],
        vec![0.0f32; x.numel()],
        vec![0.0f32; w.numel()],
    );
    let ns = call_ns(300, || conv2d_into(x.view(), w.view(), p, &mut cy));
    out.put("tensor.conv2d_fwd_gflops", flops / ns);
    let ns = call_ns(300, || {
        conv2d_grad_input_into(dy.view(), w.view(), &x_dims, p, &mut dx);
        conv2d_grad_weight_into(x.view(), dy.view(), &w_dims, p, &mut dw);
    });
    out.put("tensor.conv2d_bwd_gflops", 2.0 * flops / ns);
    let (ry, rdx, rdw) = naive_conv(&x, &w, &dy, p);
    worst = worst
        .max(rel_err(&cy, &ry))
        .max(rel_err(&dx, &rdx))
        .max(rel_err(&dw, &rdw));

    // A residual add the size of the encoder's largest activation, counted
    // in bytes computed on: two operands read, one result written.
    let len = 1 << 16;
    let (ea, eb) = (
        Tensor::randn([len], 1.0, &mut rng),
        Tensor::randn([len], 1.0, &mut rng),
    );
    let mut sum = vec![0.0f32; len];
    let ns = call_ns(600, || {
        binary_into(BinaryOp::Add, ea.view(), eb.view(), &mut sum)
    });
    out.put("tensor.elementwise_gbs", (3 * 4 * len) as f64 / ns);
    let exact: Vec<f64> = ea
        .data()
        .iter()
        .zip(eb.data())
        .map(|(a, b)| *a as f64 + *b as f64)
        .collect();
    worst = worst.max(rel_err(&sum, &exact));

    out.put("tensor.kernel_max_rel_err", worst);
    if worst.is_nan() || worst > 1e-4 {
        out.findings
            .push(format!("kernels are {worst:e} off the naive f64 reference"));
    }
}

const COMPILE_REPEATS: usize = 5;
const STEP_REPEATS: usize = 40;

/// Compile stages, graph counts, planned memory and step costs of `model`.
fn model_probes(model: Model, seed: u64, out: &mut Probed) {
    let spec = FinetuneSpec::new(model, seed);
    let stages = [
        ("models.build", "models.build_ms", 1e6),
        ("sparse.apply_rule", "sparse.apply_rule_us", 1e3),
        ("graph.autodiff", "graph.autodiff_ms", 1e6),
        ("passes.optimize", "passes.optimize_ms", 1e6),
        ("memplan.plan", "memplan.plan_ms", 1e6),
        ("runtime.executor_build", "runtime.executor_build_ms", 1e6),
    ];
    let mut tracer = Tracer::with_capacity(COMPILE_REPEATS * stages.len());
    tracer.set_enabled(true);
    let mut staged: Vec<Staged> = (0..COMPILE_REPEATS)
        .map(|_| staged_compile(&spec, &mut tracer, None))
        .collect();
    for (span, metric, per_unit) in stages {
        let times: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end_ns - s.start_ns) as f64 / per_unit)
            .collect();
        out.put(metric, quiet(&times));
    }
    let Staged {
        mut executor,
        stats,
        memory,
        train_nodes,
        trainable_elements,
    } = staged.pop().expect("compiled at least once");
    drop(staged);
    out.put("graph.train_nodes", train_nodes as f64);
    out.put("passes.launches_per_step", stats.launches_after as f64);
    out.put("passes.fused_regions", stats.fusion.regions as f64);
    out.put("sparse.trainable_elements", trainable_elements as f64);
    out.put("memplan.arena_bytes", memory.arena_bytes as f64);

    let mut step = 0;
    let mut batch = || {
        step += 1;
        &spec.batches[step % spec.batches.len()]
    };
    for _ in 0..10 {
        executor.train_step(batch()).expect("warm-up step");
    }
    let train_ns = call_ns(STEP_REPEATS, || {
        executor.train_step(batch()).expect("train step");
    });
    out.put("runtime.train_step_ms", ms(train_ns));
    let allocs = thread_allocs();
    for _ in 0..STEP_REPEATS {
        executor.train_step(batch()).expect("train step");
    }
    let allocs = thread_allocs() - allocs;
    out.put(
        "runtime.allocs_per_step",
        allocs as f64 / STEP_REPEATS as f64,
    );
    let eval_ns = call_ns(STEP_REPEATS, || {
        executor.run_eval(batch()).expect("eval step");
    });
    out.put("runtime.eval_step_ms", ms(eval_ns));
    out.put(
        "runtime.fallback_dispatches",
        executor.fallback_dispatches() as f64,
    );

    let store = executor.param_store();
    let mut snapshot = Vec::new();
    out.put(
        "runtime.snapshot_ms",
        ms(call_ns(20, || snapshot = store.snapshot())),
    );
    out.put("runtime.snapshot_bytes", snapshot.len() as f64);
    let restore_ns = call_ns(20, || {
        store.restore(&snapshot).expect("own snapshot restores")
    });
    out.put("runtime.restore_ms", ms(restore_ns));
}

/// What the paper's mechanism buys on the encoder: the pruned backward
/// graph, the planned memory and the step time of the sparse scheme against
/// full backpropagation, steps interleaved ABAB so both see the same host.
fn sparse_probes(seed: u64, out: &mut Probed) {
    let mut off = Tracer::with_capacity(0);
    let sparse_spec = FinetuneSpec::new(Model::BertSparse, seed);
    let full_spec = FinetuneSpec::with_rule(Model::BertSparse, seed, Some(UpdateRule::Full));
    let mut sparse = staged_compile(&sparse_spec, &mut off, None);
    let mut full = staged_compile(&full_spec, &mut off, None);
    out.put(
        "passes.pruned_nodes",
        (full.train_nodes - sparse.train_nodes) as f64,
    );
    out.put(
        "memplan.sparse_over_full_bytes",
        sparse.memory.total_bytes() as f64 / full.memory.total_bytes() as f64,
    );
    let (mut full_ns, mut sparse_ns) = (Vec::new(), Vec::new());
    for step in 0..STEP_REPEATS + 5 {
        let batch = &sparse_spec.batches[step % sparse_spec.batches.len()];
        let start = Instant::now();
        full.executor.train_step(batch).expect("full step");
        let mid = Instant::now();
        sparse.executor.train_step(batch).expect("sparse step");
        if step >= 5 {
            full_ns.push((mid - start).as_nanos() as f64);
            sparse_ns.push(mid.elapsed().as_nanos() as f64);
        }
    }
    out.put("sparse.step_speedup", quiet(&full_ns) / quiet(&sparse_ns));
}

/// Independent rounds of the ledger, each through every depth.
const LEDGER_ROUNDS: usize = 7;
/// Requests per ledger leg.
const LEDGER_REQUESTS: usize = 4096;

/// Pushes `stream` through `fronts` the way the serve workloads load their
/// stack — one caller per front, each submitting its share of the stream one
/// request at a time — and returns wall microseconds per request.
fn drive<S: Submit + Sync>(fronts: &[S], stream: &[Request], findings: &mut Vec<String>) -> f64 {
    let share = stream.len() / fronts.len();
    let start = Instant::now();
    let failed: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = fronts
            .iter()
            .zip(stream.chunks(share))
            .map(|(front, requests)| {
                scope.spawn(move || {
                    requests
                        .iter()
                        .filter(|request| {
                            let outcome = front.submit((*request).clone()).map(SubmitHandle::wait);
                            !matches!(outcome, Ok(Ok(Outcome::Completed(_))))
                        })
                        .count()
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("ledger caller panicked"))
            .sum()
    });
    if failed > 0 {
        findings.push(format!("{failed} ledger requests failed"));
    }
    start.elapsed().as_nanos() as f64 / 1e3 / (share * fronts.len()) as f64
}

fn connect_all(addr: std::net::SocketAddr) -> Vec<Client> {
    (0..serve::CLIENTS)
        .map(|_| Client::connect(addr).expect("loopback connect"))
        .collect()
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_nanos() as f64)
}

/// The stack ledger: one seeded eval stream, one eight-caller driver, pushed
/// through each depth of the stack; what each layer adds is the difference
/// to the layer below. Like the workloads, it is the quiet-side quartile over
/// independent rounds, each of which rebuilds every depth. Set-up costs and the queue's useful-work
/// ratios are read off the same legs.
fn ledger_probes(seed: u64, out: &mut Probed) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1ed9e);
    let stream = serve::eval_stream(LEDGER_REQUESTS, &mut rng);
    let queue = serve::queue_config();
    let mut compile_ns = Vec::new();
    let mut engine = || {
        let (engine, ns) = timed(|| serve::engine(seed));
        compile_ns.push(ns);
        engine
    };
    let (mut sync_us, mut queue_us, mut tcp_us, mut fleet_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut connect_ns, mut boot_ns) = (Vec::new(), Vec::new());
    let (mut rows, mut padded, mut batches, mut groups, mut expired, mut hits, mut misses) =
        (0, 0, 0, 0, 0, 0, 0);

    for _ in 0..LEDGER_ROUNDS {
        // Depth 0: the synchronous engine.
        let mut sync = engine();
        let (_, ns) = timed(|| {
            // Eight requests at a time: what the eight callers of the deeper
            // legs put within the batcher's reach.
            for group in stream.chunks(serve::CLIENTS) {
                let outcomes = sync.serve(group).expect("well-formed stream");
                assert!(outcomes.iter().all(Outcome::is_completed));
            }
        });
        sync_us.push(ns / 1e3 / stream.len() as f64);

        // Depth 1: behind the submission queue and batcher.
        let queued = engine().into_async(queue);
        let submitters: Vec<_> = (0..serve::CLIENTS).map(|_| queued.submitter()).collect();
        queue_us.push(drive(&submitters, &stream, &mut out.findings));
        drop(submitters);
        let (drained, batcher) = queued.shutdown_with_stats();
        let (served, cache) = (drained.metrics(), drained.cache_stats());
        rows += served.rows;
        padded += served.padded_rows;
        batches += served.eval_batches;
        groups += batcher.eval_groups;
        expired += batcher.deadline_flushes;
        hits += cache.request_hits;
        misses += cache.request_misses;

        // Depth 2: over loopback TCP.
        let server = Server::spawn(engine().into_async(queue), ServerConfig::default())
            .expect("loopback server");
        let (clients, ns) = timed(|| connect_all(server.local_addr()));
        connect_ns.push(ns / serve::CLIENTS as f64);
        tcp_us.push(drive(&clients, &stream, &mut out.findings));
        drop(clients);
        drop(server.shutdown());

        // Depth 3: through the balancer and one worker.
        let worker = Server::spawn(engine().into_async(queue), ServerConfig::default())
            .expect("loopback worker");
        let (balancer, ns) = timed(|| {
            Balancer::spawn(&[worker.local_addr().to_string()], serve::balancer_config())
                .expect("spawn balancer")
        });
        boot_ns.push(ns);
        let clients = connect_all(balancer.local_addr());
        fleet_us.push(drive(&clients, &stream, &mut out.findings));
        drop(clients);
        drop(balancer.shutdown());
        drop(worker.shutdown());
    }

    let (sync_us, queue_us, tcp_us, fleet_us) = (
        quiet(&sync_us),
        quiet(&queue_us),
        quiet(&tcp_us),
        quiet(&fleet_us),
    );
    out.put("core.sync_us_per_req", sync_us);
    out.put("core.queue_us_per_req", queue_us);
    out.put("net.tcp_us_per_req", tcp_us);
    out.put("fleet.hop_us_per_req", fleet_us);
    out.put("core.queue_added_us", queue_us - sync_us);
    out.put("net.tcp_added_us", tcp_us - queue_us);
    out.put("fleet.hop_added_us", fleet_us - tcp_us);
    out.put("core.compile_ms", ms(quiet(&compile_ns)));
    out.put("net.connect_ms", ms(quiet(&connect_ns)));
    out.put("fleet.boot_ms", ms(quiet(&boot_ns)));
    out.put("core.batch_rows_mean", rows as f64 / batches as f64);
    out.put("core.batch_expired_share", expired as f64 / groups as f64);
    out.put("core.pad_share", padded as f64 / (rows + padded) as f64);
    out.put("core.cache_hit_share", hits as f64 / (hits + misses) as f64);

    // One cold specialization: a batch size outside the warm ladder.
    let specialize_ns: Vec<f64> = (0..LEDGER_ROUNDS)
        .map(|_| {
            let mut program =
                Compiler::new(serve::compile_options()).compile(serve::mlp_factory(seed));
            timed(|| {
                program.specialize(2);
            })
            .1
        })
        .collect();
    out.put("core.specialize_ms", ms(quiet(&specialize_ns)));
}

/// Codec cost per frame, bytes per request and the two round trips a closed
/// loop pays: the submit's ack (one request in flight) and a ping.
fn wire_probes(seed: u64, out: &mut Probed) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x31e);
    let sample = &serve::eval_stream(1024, &mut rng)[..];
    let outcomes: Vec<Result<Outcome, ExecError>> = serve::engine(seed)
        .serve(sample)
        .expect("well-formed stream")
        .into_iter()
        .map(Ok)
        .collect();
    let mut index = 0;
    let mut next = || {
        index = (index + 1) % sample.len();
        index
    };
    let submits: Vec<Vec<u8>> = sample
        .iter()
        .map(|r| proto::encode_submit(1, SubmitMode::Block, r))
        .collect();
    let replies: Vec<Vec<u8>> = outcomes
        .iter()
        .map(|o| proto::encode_outcome(1, o))
        .collect();
    let calls = 4 * sample.len();
    out.put(
        "net.encode_submit_ns",
        call_ns(calls, || {
            black_box(proto::encode_submit(1, SubmitMode::Block, &sample[next()]));
        }),
    );
    out.put(
        "net.decode_submit_ns",
        call_ns(calls, || {
            black_box(proto::decode_submit(&submits[next()]).expect("own encoding"));
        }),
    );
    out.put(
        "net.encode_outcome_ns",
        call_ns(calls, || {
            black_box(proto::encode_outcome(1, &outcomes[next()]));
        }),
    );
    out.put(
        "net.decode_outcome_ns",
        call_ns(calls, || {
            drop(black_box(
                proto::decode_outcome(&replies[next()]).expect("own encoding"),
            ));
        }),
    );
    // Each frame is a 4-byte length and a 1-byte kind ahead of its payload.
    let frames = 3 * 5 + proto::encode_ack(1).len();
    let payloads: usize = submits.iter().chain(&replies).map(Vec::len).sum();
    out.put(
        "net.bytes_per_req",
        frames as f64 + payloads as f64 / sample.len() as f64,
    );

    let server = Server::spawn(
        serve::engine(seed).into_async(serve::queue_config()),
        ServerConfig::default(),
    )
    .expect("loopback server");
    let client = Client::connect(server.local_addr()).expect("loopback connect");
    let mut ack_ns = Vec::new();
    for request in &sample[..400] {
        let (ticket, ns) = timed(|| client.submit(request.clone()));
        ack_ns.push(ns);
        if let Ok(ticket) = ticket {
            let _ = ticket.wait();
        }
    }
    out.put("net.ack_rtt_us", quiet(&ack_ns) / 1e3);
    let ping_ns = call_ns(400, || drop(client.ping(Duration::from_secs(5))));
    out.put("net.ping_rtt_us", ping_ns / 1e3);
    drop(client);
    drop(server.shutdown());
}

/// The queue as designed, the closed loops' opposite: seeded Poisson
/// arrivals at 2,000 req/s into the in-process queue with its default 2 ms
/// batching budget, each request timed from when it was due.
fn paced_probe(seed: u64, out: &mut Probed) {
    const RATE: f64 = 2_000.0;
    let mut rng = Rng::seed_from_u64(seed ^ 0x9ace);
    let stream = serve::eval_stream(1_500, &mut rng);
    let mut at = 0.0f64;
    let due: Vec<Duration> = stream
        .iter()
        .map(|_| {
            at += -(1.0 - rng.next_f32() as f64).ln() / RATE;
            Duration::from_secs_f64(at)
        })
        .collect();
    let queued = serve::engine(seed).into_async(QueueConfig::default());
    let mut latency_us = Vec::with_capacity(stream.len());
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(Instant, pockengine::Ticket)>();
        let latency_us = &mut latency_us;
        scope.spawn(move || {
            for (due, ticket) in rx {
                let (_, resolved) = ticket.wait_timed();
                latency_us.push(resolved.saturating_duration_since(due).as_nanos() as f64 / 1e3);
            }
        });
        let start = Instant::now();
        for (request, offset) in stream.iter().zip(&due) {
            let due = start + *offset;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if let Ok(ticket) = queued.submit(request.clone()) {
                tx.send((due, ticket)).expect("waiter alive");
            }
        }
    });
    drop(queued.shutdown());
    if latency_us.len() < stream.len() {
        out.findings.push(format!(
            "{} paced requests were refused",
            stream.len() - latency_us.len()
        ));
    }
    out.put("core.paced_p50_us", median(&latency_us));
}

/// Writes beside reads through the balancer and two workers, a fixed number
/// of ops: train latency, and the balancer's own counts.
fn fleet_probes(seed: u64, out: &mut Probed) {
    let spec = ServeSpec::mixed_fleet(seed);
    let mut buffers = ServeBuffers::new(1.0, 0);
    let round = serve::run_round(&spec, Stop::Ops(512), &mut buffers);
    out.findings.extend(round.findings);
    let stats = round.fleet.expect("the mixed workload runs a balancer");
    out.put("fleet.train_p50_ms", round.train_p50_ms.unwrap_or(f64::NAN));
    out.put(
        "fleet.checkpoints_broadcast",
        stats.checkpoints_broadcast as f64,
    );
    out.put("fleet.redispatches", stats.redispatches as f64);
    out.put("fleet.cancelled", stats.cancelled as f64);
    // Every train goes to the primary, worker 0; the rest are evals.
    let evals: Vec<f64> = stats
        .workers
        .iter()
        .enumerate()
        .map(|(i, w)| (w.dispatched - if i == 0 { stats.trains_routed } else { 0 }) as f64)
        .collect();
    let (most, fewest) = evals
        .iter()
        .fold((f64::MIN, f64::MAX), |(hi, lo), e| (hi.max(*e), lo.min(*e)));
    out.put("fleet.eval_imbalance", most / fewest.max(1.0));
}

/// Every probe, for a traced run of a workload whose model is `model`.
pub fn run_all(model: Model, seed: u64) -> Probed {
    let mut out = Probed::default();
    tensor_probes(seed, &mut out);
    model_probes(model, seed, &mut out);
    sparse_probes(seed, &mut out);
    ledger_probes(seed, &mut out);
    wire_probes(seed, &mut out);
    paced_probe(seed, &mut out);
    fleet_probes(seed, &mut out);
    out
}
