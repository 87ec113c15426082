//! The shared parameter store.
//!
//! PockEngine's compile pipeline may specialize one model family into many
//! executable programs (one per batch size), but
//! the *parameters* of the family exist exactly once. [`ParamStore`] holds
//! the canonical tensor and optimizer state for every parameter, keyed by
//! the stable [`ParamKey`] identity from `pe-graph` (node ids are positional
//! and change across rebuilds; canonical names do not). Executors *borrow*
//! a store via `Arc` instead of materialising private copies, so N
//! batch-size specializations train one set of weights — and pay one set of
//! optimizer-state bytes — between them.
//!
//! # Concurrency contract
//!
//! The cells live *inside* the store's reader/writer lock, so the step
//! guard is the only way to reach them and the compiler checks every access:
//!
//! * a **training step** (which updates parameters in place) takes the
//!   exclusive guard once, for the whole step, and hands `&mut [ParamCell]`
//!   down to the nodes it runs;
//! * an **evaluation step** takes the shared guard and hands down
//!   `&[ParamCell]`, so it can never write a parameter and never overlaps a
//!   writer;
//! * `snapshot`, `get` and `resident_bytes` read under the shared guard;
//!   `set`, `ensure_state` and `restore` write under the exclusive one.
//!
//! The guard does not care which thread takes it. In the engine, one
//! drainer thread runs every queued step; the other thread that touches a
//! served store is a network connection answering a snapshot request, and
//! the shared guard keeps that snapshot from observing a half-applied step.
//!
//! Executors read parameter values straight from the cells at every step
//! and cache nothing derived from them, so a value replaced by `set` or
//! `restore` — by this executor or any other sharing the store — is what
//! the next step of every executor sees.
//!
//! # Shared and owned values
//!
//! A cell's value is an `Arc<Tensor>`. [`ParamStore::from_graph`] shares it
//! with the graph's initial value (`ParamInit::Value`), so a fresh store
//! copies no weight, and every graph of the family — the model's, the
//! optimised training graph, each executor's — names that same buffer.
//! A cell is unshared exactly once, by [`ParamStore::ensure_state`], which
//! every executor build calls for each parameter its program updates: the
//! update then writes a buffer the cell owns, and the step allocates
//! nothing. A frozen parameter is never unshared, so it stays one buffer
//! for the life of the process. `set` and `restore` never write through a
//! shared value: `set` installs the caller's tensor as a new owned buffer,
//! and `restore` replaces a value whose bits change (and leaves one whose
//! bits match, so a frozen parameter stays shared across a restore).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pe_graph::{Graph, NodeId, ParamInit, ParamKey, TrainingGraph};
use pe_tensor::Tensor;

use crate::optimizer::Optimizer;

/// Maps every parameter node of a training graph to its slot in the shared
/// store, validating presence and shape.
pub(crate) fn resolve_param_slots(
    tg: &TrainingGraph,
    store: &ParamStore,
) -> HashMap<NodeId, usize> {
    let cells = store.lock_shared();
    tg.graph
        .param_keys()
        .into_iter()
        .map(|(id, key)| {
            let slot = store
                .slot(&key)
                .unwrap_or_else(|| panic!("parameter '{key}' missing from the shared store"));
            assert_eq!(
                cells[slot].value.shape(),
                &tg.graph.node(id).shape,
                "parameter '{key}' shape differs from the store's canonical tensor"
            );
            (id, slot)
        })
        .collect()
}

/// Canonical value and optimizer state of one parameter.
#[derive(Debug)]
pub(crate) struct ParamCell {
    /// The parameter tensor: shared with the graph's initial value until
    /// [`ParamStore::ensure_state`] unshares it, then owned and updated in
    /// place by `ApplyUpdate` nodes (module docs).
    pub(crate) value: Arc<Tensor>,
    /// Optimizer state rows ([`Optimizer::state_slots`] vectors), allocated
    /// lazily the first time an executor registers the parameter as
    /// trainable.
    pub(crate) state: Vec<Vec<f32>>,
    /// Optimizer updates applied to *this* parameter (drives Adam bias
    /// correction). Tracked per cell rather than globally so a reset
    /// parameter restarts its correction schedule like a freshly
    /// initialized one.
    pub(crate) steps: usize,
}

/// Shared, canonical storage for the parameters of one model family.
///
/// See the module docs for the ownership and concurrency model. Constructed
/// from any graph of the family (parameter names, shapes and initial values
/// are batch-independent) and then shared across every specialized executor
/// via `Arc`.
pub struct ParamStore {
    /// The cells, owned by the step guard (see the module docs).
    cells: RwLock<Vec<ParamCell>>,
    slots: HashMap<ParamKey, usize>,
    keys: Vec<ParamKey>,
    optimizer: Optimizer,
    /// 1-based count of completed optimisation steps across *all* executors
    /// sharing the store (drives Adam bias correction).
    steps: AtomicUsize,
}

impl std::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamStore")
            .field("params", &self.keys.len())
            .field("optimizer", &self.optimizer)
            .field("steps", &self.steps.load(Ordering::Relaxed))
            .finish()
    }
}

impl ParamStore {
    /// Builds the canonical store from a graph's parameter table. Each cell
    /// shares the graph's initial value rather than copying it; a deferred
    /// parameter gets zeros.
    ///
    /// Slots are assigned in sorted node-id order, which is deterministic
    /// for a given builder run. Optimizer state is *not* allocated here —
    /// executors register their trainable parameters via
    /// `ParamStore::ensure_state`, so frozen parameters never pay for
    /// momentum/Adam rows.
    pub fn from_graph(graph: &Graph, optimizer: Optimizer) -> Self {
        let mut cells = Vec::new();
        let mut slots = HashMap::new();
        let mut keys = Vec::new();
        for (id, key) in graph.param_keys() {
            let value = match &graph.params()[&id].init {
                ParamInit::Value(init) => Arc::clone(init),
                ParamInit::Deferred => Arc::new(Tensor::zeros(graph.node(id).shape.clone())),
            };
            slots.insert(key.clone(), cells.len());
            keys.push(key);
            cells.push(ParamCell {
                value,
                state: Vec::new(),
                steps: 0,
            });
        }
        ParamStore {
            cells: RwLock::new(cells),
            slots,
            keys,
            optimizer,
            steps: AtomicUsize::new(0),
        }
    }

    /// The optimizer whose state this store holds.
    pub(crate) fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// Number of parameters in the store.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All parameter keys, in slot order.
    pub fn keys(&self) -> &[ParamKey] {
        &self.keys
    }

    /// Slot index of a parameter key, if present.
    pub(crate) fn slot(&self, key: &ParamKey) -> Option<usize> {
        self.slots.get(key).copied()
    }

    /// Completed optimisation steps across every executor sharing the store.
    pub fn steps_completed(&self) -> usize {
        self.steps.load(Ordering::Relaxed)
    }

    /// Current value of a parameter (cloned under the shared guard).
    pub fn get(&self, key: &ParamKey) -> Option<Tensor> {
        let slot = self.slot(key)?;
        Some(Tensor::clone(&self.lock_shared()[slot].value))
    }

    /// Overwrites the value in `slot` (e.g. loading a checkpoint) and
    /// **resets its optimizer state**: momentum/Adam moments accumulated for
    /// the old trajectory are meaningless for the new value, so they are
    /// zeroed — and the parameter's update count restarts, so Adam's bias
    /// correction warms up again exactly as for a freshly initialized
    /// parameter. The value becomes a buffer the cell owns; a graph whose
    /// initial value the cell shared is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or the shapes do not match.
    pub(crate) fn set_slot(&self, slot: usize, value: Tensor) {
        let mut cells = self.lock_exclusive();
        let cell = &mut cells[slot];
        assert_eq!(
            cell.value.shape(),
            value.shape(),
            "parameter shape mismatch"
        );
        cell.value = Arc::new(value);
        for row in &mut cell.state {
            row.fill(0.0);
        }
        cell.steps = 0;
    }

    /// Makes a slot's value a buffer the cell owns (copying it out of the
    /// graph's shared initial value the first time) and allocates its
    /// optimizer state rows if not yet present.
    ///
    /// Called by executors at construction for every parameter their program
    /// updates, so the updated value and its state exist exactly once per
    /// trainable parameter no matter how many specializations share the
    /// store, and a training step never allocates to unshare.
    pub(crate) fn ensure_state(&self, slot: usize) {
        let slots_needed = self.optimizer.state_slots();
        let mut cells = self.lock_exclusive();
        let cell = &mut cells[slot];
        Arc::make_mut(&mut cell.value);
        if cell.state.len() < slots_needed {
            let n = cell.value.numel();
            cell.state = (0..slots_needed).map(|_| vec![0.0f32; n]).collect();
        }
    }

    /// Bytes held by parameter values plus allocated optimizer state.
    pub fn resident_bytes(&self) -> usize {
        resident_bytes(&self.lock_shared())
    }

    /// Acquires the exclusive (training-step) guard over the cells.
    pub(crate) fn lock_exclusive(&self) -> RwLockWriteGuard<'_, Vec<ParamCell>> {
        self.cells.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the shared (evaluation-step) guard over the cells.
    pub(crate) fn lock_shared(&self) -> RwLockReadGuard<'_, Vec<ParamCell>> {
        self.cells.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Increments the global step counter, returning the new 1-based count.
    ///
    /// Must be called under the exclusive guard, once per training step.
    pub(crate) fn begin_step(&self) -> usize {
        self.steps.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Serialises the complete training state into the versioned binary
    /// checkpoint format (see the constants below): every parameter's value
    /// as exact f32 bit patterns, its optimizer state rows, its per-cell
    /// update count, plus the global step counter. Taken under the shared
    /// step guard, so a snapshot never observes a half-applied training
    /// step.
    ///
    /// A [`ParamStore::restore`] of these bytes into a store built from the
    /// same model family resumes training **bit-identically** to the
    /// uninterrupted run — which is what lets fleet followers converge to a
    /// primary's exact parameters.
    pub fn snapshot(&self) -> Vec<u8> {
        // Encoding a value wider than its wire field would truncate
        // silently and produce a snapshot that restore() may accept with
        // wrong shapes — assert instead. All of these sit orders of
        // magnitude beyond any real store (u8 rank / state rows, u32
        // dims / name length / parameter count).
        let fits_u8 = |v: usize, what: &str| {
            assert!(
                v <= u8::MAX as usize,
                "{what} {v} overflows the u8 snapshot field"
            );
            v as u8
        };
        let fits_u32 = |v: usize, what: &str| {
            assert!(
                v <= u32::MAX as usize,
                "{what} {v} overflows the u32 snapshot field"
            );
            v as u32
        };
        let cells = self.lock_shared();
        let mut buf = Vec::with_capacity(64 + resident_bytes(&cells));
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(optimizer_tag(self.optimizer));
        buf.extend_from_slice(&(self.steps.load(Ordering::Relaxed) as u64).to_le_bytes());
        buf.extend_from_slice(&fits_u32(cells.len(), "parameter count").to_le_bytes());
        for (cell, key) in cells.iter().zip(&self.keys) {
            let name = key.as_str().as_bytes();
            buf.extend_from_slice(&fits_u32(name.len(), "parameter name length").to_le_bytes());
            buf.extend_from_slice(name);
            let dims = cell.value.dims();
            buf.push(fits_u8(dims.len(), "tensor rank"));
            for &d in dims {
                buf.extend_from_slice(&fits_u32(d, "tensor dimension").to_le_bytes());
            }
            for &v in cell.value.data() {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            buf.push(fits_u8(cell.state.len(), "optimizer state rows"));
            for row in &cell.state {
                for &v in row {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            buf.extend_from_slice(&(cell.steps as u64).to_le_bytes());
        }
        buf
    }

    /// Restores a [`ParamStore::snapshot`] into this store, overwriting
    /// parameter values, optimizer state, per-cell update counts and the
    /// global step counter with the snapshot's exact bits. Performed under
    /// the exclusive step guard.
    ///
    /// Unlike [`crate::Executor::set_param`] — which deliberately *zeroes* optimizer
    /// state because an externally loaded value invalidates the old
    /// trajectory — a restore resumes the snapshot's own trajectory, so the
    /// state rows and step counts come along bit-exactly.
    ///
    /// A value whose bits the snapshot changes is replaced by a buffer the
    /// cell owns, never written through a value shared with a graph; one
    /// whose bits match (a frozen parameter) keeps its buffer.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are malformed, were produced by an
    /// incompatible layout version or optimizer family, or do not cover
    /// exactly this store's parameters (names and shapes must match).
    pub fn restore(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader { bytes, at: 0 };
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError("bad magic: not a ParamStore snapshot".into()));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError(format!(
                "snapshot layout v{version}, this build reads v{SNAPSHOT_VERSION}"
            )));
        }
        let tag = r.u8()?;
        if tag != optimizer_tag(self.optimizer) {
            return Err(SnapshotError(format!(
                "snapshot optimizer family (tag {tag}) differs from the store's {:?}",
                self.optimizer
            )));
        }
        let global_steps = r.u64()? as usize;
        let count = r.u32()? as usize;
        if count != self.keys.len() {
            return Err(SnapshotError(format!(
                "snapshot holds {count} parameters, the store holds {}",
                self.keys.len()
            )));
        }
        let state_slots = self.optimizer.state_slots();
        let mut cells = self.lock_exclusive();
        // Decode fully before touching any cell, so a truncated or
        // mismatched snapshot can never leave the store half-restored. Each
        // parameter's dims are checked against its slot before they size
        // anything, so hostile dims never reach a product.
        let mut decoded = Vec::with_capacity(count);
        for (cell, key) in cells.iter().zip(&self.keys) {
            let name = r.string()?;
            if name != key.as_str() {
                return Err(SnapshotError(format!(
                    "snapshot parameter '{name}' does not match store slot '{key}' \
                     (snapshots are slot-ordered and must come from the same family)"
                )));
            }
            let ndims = r.u8()? as usize;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                dims.push(r.u32()? as usize);
            }
            if cell.value.dims() != dims.as_slice() {
                return Err(SnapshotError(format!(
                    "parameter '{key}' shape {:?} differs from the snapshot's {dims:?}",
                    cell.value.dims()
                )));
            }
            let numel = cell.value.numel();
            let values = r.f32_row(numel)?;
            let rows = r.u8()? as usize;
            if rows != 0 && rows != state_slots {
                return Err(SnapshotError(format!(
                    "parameter '{key}' carries {rows} optimizer state rows, \
                     {:?} keeps {state_slots}",
                    self.optimizer
                )));
            }
            let state: Vec<Vec<f32>> = (0..rows)
                .map(|_| r.f32_row(numel))
                .collect::<Result<_, _>>()?;
            let steps = r.u64()? as usize;
            decoded.push((values, state, steps));
        }
        if r.at != r.bytes.len() {
            return Err(SnapshotError(format!(
                "{} trailing bytes after the snapshot",
                r.bytes.len() - r.at
            )));
        }
        for (cell, (values, state, steps)) in cells.iter_mut().zip(decoded) {
            let same_bits = cell
                .value
                .data()
                .iter()
                .zip(&values)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same_bits {
                cell.value = Arc::new(Tensor::from_vec(values, cell.value.shape().clone()));
            }
            if state.is_empty() {
                // The snapshot predates this parameter's first training
                // step; keep any rows an executor already registered, but
                // zero them so no stale momentum leaks into the resumed
                // trajectory.
                for row in &mut cell.state {
                    row.fill(0.0);
                }
            } else {
                cell.state = state;
            }
            cell.steps = steps;
        }
        self.steps.store(global_steps, Ordering::Relaxed);
        Ok(())
    }
}

/// Bytes held by parameter values plus allocated optimizer state.
fn resident_bytes(cells: &[ParamCell]) -> usize {
    cells
        .iter()
        .map(|cell| (cell.value.numel() + cell.state.iter().map(Vec::len).sum::<usize>()) * 4)
        .sum()
}

/// Four magic bytes leading every snapshot: "PockEngine SNapshot".
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"PESN";

/// Layout version of the snapshot byte format written by this build.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// A malformed or incompatible snapshot handed to [`ParamStore::restore`].
/// The store is left untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Optimizer *family* byte written into snapshots: state-row layouts are
/// only compatible within a family, so restore validates the tag.
fn optimizer_tag(optimizer: Optimizer) -> u8 {
    match optimizer {
        Optimizer::Sgd { .. } => 0,
        Optimizer::Momentum { .. } => 1,
        Optimizer::Adam { .. } => 2,
        Optimizer::Lion { .. } => 3,
    }
}

/// Minimal truncation-checked reader over snapshot bytes.
struct SnapReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.at < n {
            return Err(SnapshotError(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len() - self.at
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError("parameter name is not UTF-8".into()))
    }

    fn f32_row(&mut self, n: usize) -> Result<Vec<f32>, SnapshotError> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| SnapshotError("row volume overflows".into()))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_graph::{build_training_graph, GraphBuilder, ParamKey, TrainKind, TrainSpec};
    use pe_passes::{build_schedule, ScheduleStrategy};
    use pe_tensor::Rng;

    use crate::Executor;

    /// A one-parameter store (`fc.weight`, `[3, 4]`) under `optimizer`.
    fn store_with(optimizer: Optimizer) -> ParamStore {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let w = b.weight("fc.weight", [3, 4], &mut rng);
        let logits = b.linear(x, w, None);
        let g = b.finish(vec![logits]);
        ParamStore::from_graph(&g, optimizer)
    }

    fn store() -> ParamStore {
        store_with(Optimizer::Momentum {
            lr: 0.1,
            momentum: 0.9,
        })
    }

    /// Byte offset of `fc.weight`'s rank byte: magic, version, optimizer
    /// tag, global steps, parameter count, then the length-prefixed name.
    const RANK_AT: usize = 4 + 4 + 1 + 8 + 4 + 4 + "fc.weight".len();

    #[test]
    fn slots_and_keys_round_trip() {
        let s = store();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let key = ParamKey::new("fc.weight");
        assert_eq!(s.slot(&key), Some(0));
        assert_eq!(s.keys(), std::slice::from_ref(&key));
        assert!(s.get(&key).is_some());
        assert!(s.get(&ParamKey::new("nope")).is_none());
    }

    #[test]
    fn set_resets_state_and_update_count() {
        let s = store();
        s.ensure_state(0);
        {
            let cell = &mut s.lock_exclusive()[0];
            assert_eq!(cell.state.len(), 1);
            cell.state[0].fill(7.0);
            cell.steps = 4;
        }
        s.set_slot(0, Tensor::ones([3, 4]));
        let cell = &s.lock_shared()[0];
        assert!(cell.state[0].iter().all(|&v| v == 0.0), "state must reset");
        assert_eq!(cell.steps, 0, "update count must restart");
        assert_eq!(cell.value.data()[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_checks_shapes() {
        let s = store();
        s.set_slot(0, Tensor::ones([2, 2]));
    }

    #[test]
    fn snapshot_restores_values_state_and_steps_bit_exactly() {
        let s = store();
        s.ensure_state(0);
        {
            let cell = &mut s.lock_exclusive()[0];
            Arc::get_mut(&mut cell.value).unwrap().data_mut()[0] = f32::from_bits(0x3f8f_5c29);
            cell.state[0].fill(0.25);
            cell.steps = 3;
        }
        s.steps.store(5, Ordering::Relaxed);
        let bytes = s.snapshot();

        let fresh = store();
        fresh.ensure_state(0);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.steps_completed(), 5);
        {
            let cell = &fresh.lock_shared()[0];
            assert_eq!(cell.value.data()[0].to_bits(), 0x3f8f_5c29);
            assert!(cell.state[0].iter().all(|&v| v == 0.25));
            assert_eq!(cell.steps, 3);
        }
        // Round trip: a snapshot of the restored store is byte-identical.
        assert_eq!(fresh.snapshot(), bytes);
    }

    #[test]
    fn restore_rejects_malformed_and_mismatched_snapshots() {
        let s = store();
        let good = s.snapshot();
        assert!(s.restore(b"nope").unwrap_err().0.contains("magic"));
        assert!(s
            .restore(&good[..good.len() - 1])
            .unwrap_err()
            .0
            .contains("truncated"));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(s.restore(&trailing).unwrap_err().0.contains("trailing"));
        // A different optimizer family must be refused: state layouts are
        // incompatible.
        let adam = store_with(Optimizer::adam(0.001));
        assert!(adam.restore(&good).unwrap_err().0.contains("optimizer"));
        // The good bytes still restore cleanly after all the rejections.
        assert!(s.restore(&good).is_ok());
    }

    #[test]
    fn restore_rejects_a_state_row_count_the_optimizer_cannot_use() {
        let adam = store_with(Optimizer::adam(0.001));
        adam.ensure_state(0);
        let good = adam.snapshot();
        // Drop Adam's second state row: [.., rows, row0, row1, steps].
        let row = 12 * 4;
        let tail = good.len() - 8;
        let mut one_row = good[..tail - row].to_vec();
        one_row[tail - 2 * row - 1] = 1;
        one_row.extend_from_slice(&good[tail..]);
        let err = adam.restore(&one_row).unwrap_err();
        assert!(err.0.contains("state rows"), "{err}");
        assert_eq!(adam.snapshot(), good, "a refused restore leaves the store");
    }

    #[test]
    fn restore_rejects_hostile_dims_before_sizing_anything() {
        let s = store();
        let good = s.snapshot();
        assert_eq!(good[RANK_AT], 2);
        let mut hostile = good[..RANK_AT].to_vec();
        hostile.push(4);
        for _ in 0..4 {
            hostile.extend_from_slice(&65536u32.to_le_bytes());
        }
        let err = s.restore(&hostile).unwrap_err();
        assert!(err.0.contains("shape"), "{err}");
        assert_eq!(s.snapshot(), good);
    }

    /// A linear classifier whose `fc.weight` is frozen and `fc.bias`
    /// trained, as a training graph, with a momentum store built from it.
    fn frozen_weight_program() -> (TrainingGraph, ParamStore) {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let labels = b.input("labels", [2]);
        let w = b.weight("fc.weight", [3, 4], &mut rng);
        let bias = b.bias("fc.bias", 3);
        let logits = b.linear(x, w, Some(bias));
        let loss = b.cross_entropy(logits, labels);
        let g = b.finish(vec![loss]);
        let spec = TrainSpec::from([(w, TrainKind::Frozen), (bias, TrainKind::Full)]);
        let tg = build_training_graph(g, loss, &spec);
        let store = ParamStore::from_graph(
            &tg.graph,
            Optimizer::Momentum {
                lr: 0.1,
                momentum: 0.9,
            },
        );
        (tg, store)
    }

    /// The graph's shared initial value of the parameter named `name`.
    fn init_of<'g>(graph: &'g Graph, name: &str) -> &'g Arc<Tensor> {
        match &graph.params()[&graph.find_param(name).unwrap()].init {
            ParamInit::Value(init) => init,
            ParamInit::Deferred => panic!("'{name}' has no initial value"),
        }
    }

    /// Bit patterns of a tensor, for exact comparisons.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_fresh_store_shares_every_initial_value_with_the_graph() {
        let (tg, store) = frozen_weight_program();
        let cells = store.lock_shared();
        for name in ["fc.weight", "fc.bias"] {
            let slot = store.slot(&ParamKey::new(name)).unwrap();
            assert!(
                Arc::ptr_eq(&cells[slot].value, init_of(&tg.graph, name)),
                "'{name}' must share the graph's buffer until an executor updates it"
            );
        }
    }

    #[test]
    fn an_executor_unshares_only_the_cells_it_updates() {
        let (tg, store) = frozen_weight_program();
        let graph = tg.graph.clone();
        let bias_init = bits(init_of(&graph, "fc.bias"));
        let schedule = build_schedule(&tg.graph, ScheduleStrategy::Reordered);
        let mut exec = Executor::with_store(tg, schedule, Arc::new(store));
        let store = Arc::clone(exec.param_store());
        let slot = |name: &str| store.slot(&ParamKey::new(name)).unwrap();
        {
            let cells = store.lock_shared();
            let weight = &cells[slot("fc.weight")].value;
            assert!(Arc::ptr_eq(weight, init_of(&graph, "fc.weight")), "frozen");
            let bias = &cells[slot("fc.bias")].value;
            assert!(!Arc::ptr_eq(bias, init_of(&graph, "fc.bias")), "updated");
            assert_eq!(Arc::strong_count(bias), 1, "the cell owns its buffer");
        }
        let inputs = HashMap::from([
            ("x".to_string(), Tensor::ones([2, 4])),
            ("labels".to_string(), Tensor::from_vec(vec![0.0, 2.0], [2])),
        ]);
        for _ in 0..3 {
            exec.train_step(&inputs).unwrap();
        }
        let cells = store.lock_shared();
        assert_ne!(bits(&cells[slot("fc.bias")].value), bias_init, "trained");
        assert_eq!(bits(init_of(&graph, "fc.bias")), bias_init);
        assert!(Arc::ptr_eq(
            &cells[slot("fc.weight")].value,
            init_of(&graph, "fc.weight")
        ));
    }

    #[test]
    fn set_and_restore_never_write_through_a_shared_initial_value() {
        let (tg, store) = frozen_weight_program();
        let weight = ParamKey::new("fc.weight");
        let slot = store.slot(&weight).unwrap();
        let init = Arc::clone(init_of(&tg.graph, "fc.weight"));
        let before = bits(&init);

        // A restore of the same bits keeps the cell shared.
        let same = store.snapshot();
        store.restore(&same).unwrap();
        assert!(Arc::ptr_eq(&store.lock_shared()[slot].value, &init));

        store.set_slot(slot, Tensor::ones([3, 4]));
        assert!(!Arc::ptr_eq(&store.lock_shared()[slot].value, &init));
        assert_eq!(bits(&init), before, "set must not write the graph's value");
        let ones = store.snapshot();

        let (tg, fresh) = frozen_weight_program();
        let init = Arc::clone(init_of(&tg.graph, "fc.weight"));
        fresh.restore(&ones).unwrap();
        assert_eq!(fresh.get(&weight).unwrap(), Tensor::ones([3, 4]));
        assert_eq!(
            bits(&init),
            before,
            "restore must not write the graph's value"
        );
    }

    #[test]
    fn resident_bytes_counts_state_once() {
        let s = store();
        let before = s.resident_bytes();
        assert_eq!(before, 12 * 4);
        s.ensure_state(0);
        s.ensure_state(0); // idempotent
        assert_eq!(s.resident_bytes(), 2 * 12 * 4);
    }
}
