//! Generated hostile input over the two decoders that take untrusted
//! bytes: `pe_net::proto`'s payloads and `ParamStore::restore`'s `PESN`
//! snapshot, which a `Checkpoint` frame carries. Both read through the one
//! `pe_tensor::codec::Reader`.
//!
//! Every valid encoding below is truncated at every offset, has seeded
//! bytes flipped, and has each rank and dim field of its tensor headers set
//! to hostile values. Each decode must return its typed error or a value
//! that re-encodes to exactly the bytes it was given; a panic fails the
//! case and names it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pe_net::proto::{self, SubmitMode};
use pe_tests::support::{executor, labelled_batch};
use pockengine::pe_graph::{GraphBuilder, TrainKind, TrainSpec};
use pockengine::pe_runtime::{ExecError, Executor, Optimizer, ParamStore};
use pockengine::pe_tensor::{Rng, Tensor};
use pockengine::{Outcome, Priority, RejectReason, Request, Response, ServingKind};

/// Seeded single-byte flips per valid encoding.
const FLIPS: usize = 256;
/// What each rank field is set to (a rank is one byte).
const RANKS: [u8; 3] = [0, 9, 0xFF];
/// What each dim field is set to, one at a time and all of a header at
/// once. Two dims of `1 << 31` make a volume whose byte count wraps to 0.
const DIMS: [u32; 4] = [0, 9, 1 << 31, u32::MAX];

/// Decodes a payload and re-encodes what it decoded, `None` on a typed
/// error.
type RoundTrip<'a> = &'a dyn Fn(&[u8]) -> Option<Vec<u8>>;

/// One valid encoding and the offsets of its tensor headers' rank bytes.
struct Valid {
    name: &'static str,
    bytes: Vec<u8>,
    tensors: Vec<usize>,
}

/// The rank and volume of the valid tensor header at `at`.
fn header(bytes: &[u8], at: usize) -> (usize, usize) {
    let rank = bytes[at] as usize;
    let dim = |i: usize| {
        let d = at + 1 + 4 * i;
        u32::from_le_bytes(bytes[d..d + 4].try_into().unwrap()) as usize
    };
    (rank, (0..rank).map(dim).product())
}

/// The offset just past the valid tensor at `at`.
fn tensor_end(bytes: &[u8], at: usize) -> usize {
    let (rank, numel) = header(bytes, at);
    at + 1 + 4 * rank + 4 * numel
}

/// Every mutation of `valid`, labelled for the failure message.
fn mutations(valid: &Valid) -> Vec<(String, Vec<u8>)> {
    let bytes = &valid.bytes;
    let mut cases = Vec::new();
    for len in 0..bytes.len() {
        cases.push((format!("truncated to {len}"), bytes[..len].to_vec()));
    }
    let mut rng = Rng::seed_from_u64(bytes.len() as u64);
    for _ in 0..FLIPS {
        let (at, mask) = (rng.next_usize(bytes.len()), 1 + rng.next_usize(255) as u8);
        let mut flipped = bytes.clone();
        flipped[at] ^= mask;
        cases.push((format!("byte {at} ^= {mask:#04x}"), flipped));
    }
    for &at in &valid.tensors {
        for rank in RANKS {
            let mut hostile = bytes.clone();
            hostile[at] = rank;
            cases.push((format!("rank at {at} = {rank}"), hostile));
        }
        let (rank, _) = header(bytes, at);
        let dim_at = |i: usize| at + 1 + 4 * i;
        for value in DIMS {
            let mut all = bytes.clone();
            for i in 0..rank {
                let mut one = bytes.clone();
                one[dim_at(i)..dim_at(i) + 4].copy_from_slice(&value.to_le_bytes());
                all[dim_at(i)..dim_at(i) + 4].copy_from_slice(&value.to_le_bytes());
                cases.push((format!("dim {i} at {at} = {value}"), one));
            }
            cases.push((format!("every dim at {at} = {value}"), all));
        }
    }
    cases
}

/// Runs every mutation of `valid` through `round_trip`; returns how many
/// decoded to a value (each of which re-encoded to its own bytes).
fn assert_hostile_input_is_refused_or_faithful(valid: &Valid, round_trip: RoundTrip) -> usize {
    assert_eq!(
        round_trip(&valid.bytes).as_deref(),
        Some(&valid.bytes[..]),
        "{}: the valid encoding must round-trip",
        valid.name
    );
    let mut decoded = 0;
    for (case, bytes) in mutations(valid) {
        match catch_unwind(AssertUnwindSafe(|| round_trip(&bytes))) {
            Err(_) => panic!("{}, {case}: decoding panicked", valid.name),
            Ok(None) => {}
            Ok(Some(again)) => {
                assert_eq!(
                    again, bytes,
                    "{}, {case}: re-encoded differently",
                    valid.name
                );
                decoded += 1;
            }
        }
    }
    decoded
}

fn submits() -> Vec<Valid> {
    let full = Request::train(
        Tensor::from_vec(vec![0.1, -2.5e-7, f32::MIN_POSITIVE, 4.0], [2, 2]),
        Tensor::from_vec(vec![1.0, 0.0], [2]),
    )
    .deadline(Duration::from_nanos(1_234_567_891))
    .priority(Priority::High)
    .id(u64::MAX);
    let bare = Request::eval(Tensor::zeros([1, 2, 3]), Tensor::zeros([1]));
    // corr, mode, kind, flags, priority; then id and deadline when set.
    [("full submit", full, 12 + 16), ("bare submit", bare, 12)]
        .into_iter()
        .map(|(name, request, features)| {
            let bytes = proto::encode_submit(9, SubmitMode::Try, &request);
            Valid {
                name,
                tensors: vec![features, tensor_end(&bytes, features)],
                bytes,
            }
        })
        .collect()
}

fn outcomes() -> Vec<Valid> {
    let completed = Ok(Outcome::Completed(Response {
        id: 7,
        client_id: Some(99),
        kind: ServingKind::Eval,
        rows: 2,
        batch: 4,
        loss: Some(0.5),
        logits: Some(Tensor::from_vec(
            vec![1.5, -0.25, 3.0, 0.0, 1.0, 2.0],
            [2, 3],
        )),
    }));
    let rejected = Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible {
        estimated: Duration::from_nanos(123_456_789),
        budget: Duration::from_nanos(100),
    }));
    let shape = Err(ExecError::InputShapeMismatch {
        name: "labels".into(),
        expected: vec![4, 1],
        actual: vec![2, 2, 2],
    });
    let index = Err(ExecError::InputIndexOutOfRange {
        name: "labels".into(),
        position: 3,
        bound: 4,
    });
    let missing = Err(ExecError::MissingInput("x".into()));
    // corr and tag lead; a completed outcome then carries id, flags, kind,
    // rows, batch, client id and loss before its logits, a shape mismatch
    // its tag and name before the two shapes.
    let shape_at = 8 + 1 + 1 + 4 + "labels".len();
    [
        (
            "completed outcome",
            completed,
            vec![9 + 8 + 1 + 1 + 4 + 4 + 8 + 4],
        ),
        ("rejected outcome", rejected, vec![]),
        ("cancelled outcome", Ok(Outcome::Cancelled), vec![]),
        ("shape outcome", shape, vec![shape_at, shape_at + 1 + 4 * 2]),
        ("index outcome", index, vec![]),
        ("missing outcome", missing, vec![]),
    ]
    .into_iter()
    .map(|(name, result, tensors)| Valid {
        name,
        bytes: proto::encode_outcome(5, &result),
        tensors,
    })
    .collect()
}

/// An MLP with a frozen bias (no state rows) after two Adam steps, and a
/// builder of fresh stores of the same family to restore into.
fn trained_store() -> (Executor, impl Fn() -> ParamStore) {
    let mut rng = Rng::seed_from_u64(3);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [2, 4]);
    let labels = b.input("labels", [2]);
    let w1 = b.weight("fc1.weight", [5, 4], &mut rng);
    let b1 = b.bias("fc1.bias", 5);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [3, 5], &mut rng);
    let logits = b.linear(h, w2, None);
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss]);
    let spec = TrainSpec::from([
        (w1, TrainKind::Full),
        (b1, TrainKind::Frozen),
        (w2, TrainKind::Full),
    ]);
    let optimizer = Optimizer::adam(0.01);
    let mut exec = executor(graph, loss, &spec, optimizer);
    let inputs = labelled_batch(&[2, 4], 3);
    for _ in 0..2 {
        exec.train_step(&inputs).unwrap();
    }
    let graph = exec.training_graph().graph.clone();
    (exec, move || ParamStore::from_graph(&graph, optimizer))
}

/// The rank bytes of every parameter in a snapshot: past the magic,
/// version, optimizer tag, global steps and count, each parameter is a
/// name, a tensor, a state-row count, the rows and an update count.
fn snapshot_tensors(bytes: &[u8], params: usize) -> Vec<usize> {
    let mut at = 4 + 4 + 1 + 8 + 4;
    (0..params)
        .map(|_| {
            let name = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let tensor = at + 4 + name;
            let rows = tensor_end(bytes, tensor);
            let (_, numel) = header(bytes, tensor);
            at = rows + 1 + 4 * numel * bytes[rows] as usize + 8;
            tensor
        })
        .collect()
}

#[test]
fn every_submit_and_outcome_mutation_is_refused_or_faithful() {
    let submit = |bytes: &[u8]| {
        let (corr, mode, request) = proto::decode_submit(bytes).ok()?;
        Some(proto::encode_submit(corr, mode, &request))
    };
    let decoded: usize = submits()
        .iter()
        .map(|valid| assert_hostile_input_is_refused_or_faithful(valid, &submit))
        .sum();
    assert!(
        decoded > 0,
        "no mutation decoded: the re-encode check never ran"
    );
    let outcome = |bytes: &[u8]| {
        let (corr, result) = proto::decode_outcome(bytes).ok()?;
        Some(proto::encode_outcome(corr, &result))
    };
    let decoded: usize = outcomes()
        .iter()
        .map(|valid| assert_hostile_input_is_refused_or_faithful(valid, &outcome))
        .sum();
    assert!(
        decoded > 0,
        "no mutation decoded: the re-encode check never ran"
    );
}

#[test]
fn every_snapshot_and_checkpoint_mutation_is_refused_or_faithful() {
    let (exec, fresh) = trained_store();
    let snapshot = exec.param_store().snapshot();
    let params = exec.param_store().len();
    // A restore that succeeds must leave a store whose snapshot is the
    // bytes restored; a refused one must leave the store untouched.
    let restore = |bytes: &[u8]| {
        let store = fresh();
        let before = store.snapshot();
        match store.restore(bytes) {
            Ok(()) => Some(store.snapshot()),
            Err(_) => {
                assert_eq!(
                    store.snapshot(),
                    before,
                    "a refused restore wrote the store"
                );
                None
            }
        }
    };
    let valid = Valid {
        name: "PESN snapshot",
        tensors: snapshot_tensors(&snapshot, params),
        bytes: snapshot.clone(),
    };
    assert_eq!(valid.tensors.len(), 3);
    let decoded = assert_hostile_input_is_refused_or_faithful(&valid, &restore);
    assert!(
        decoded > 0,
        "no mutation restored: the re-encode check never ran"
    );

    let checkpoint = |bytes: &[u8]| {
        let (corr, snapshot) = proto::decode_checkpoint(bytes).ok()?;
        Some(proto::encode_checkpoint(corr, &restore(snapshot)?))
    };
    let valid = Valid {
        name: "checkpoint",
        bytes: proto::encode_checkpoint(17, &snapshot),
        tensors: valid.tensors.iter().map(|at| at + 8).collect(),
    };
    let decoded = assert_hostile_input_is_refused_or_faithful(&valid, &checkpoint);
    assert!(
        decoded > 0,
        "no mutation restored: the re-encode check never ran"
    );
}
