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
//! The store serialises cross-executor access with a reader/writer guard:
//!
//! * a **training step** (which updates parameters in place) takes the
//!   exclusive guard for the duration of the step;
//! * an **evaluation step** (read-only parameter access) takes the shared
//!   guard, so any number of evaluating executors may overlap with each
//!   other but never with a writer.
//!
//! *Within* one training step the owning executor touches cells one node
//! at a time on the stepping thread; the store only promises that two
//! executors never interleave steps unsoundly.
//!
//! The guard is **thread-agnostic**: it does not matter *which* thread runs
//! a step, only that the step holds the right guard. In particular the
//! engine's queue-drainer thread (`pockengine`'s async ingestion path) is
//! just another stepping thread — a queued training request acquires the
//! exclusive guard through `run_step` exactly like a caller-thread step, so
//! evaluation executors on other threads need no special case for drained
//! traffic. The executor type asserts its own `Send`-ness at compile time
//! for the same reason: a drainer owning executors outright must stay sound
//! to move across threads.
//!
//! Executors read parameter values straight from the cells at every step
//! and cache nothing derived from them, so a value replaced by `set` or
//! `restore` — by this executor or any other sharing the store — is what
//! the next step of every executor sees.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pe_graph::{Graph, NodeId, ParamKey, TrainingGraph};
use pe_tensor::Tensor;

use crate::optimizer::Optimizer;

/// Maps every parameter node of a training graph to its slot in the shared
/// store, validating presence and shape.
pub(crate) fn resolve_param_slots(
    tg: &TrainingGraph,
    store: &ParamStore,
) -> HashMap<NodeId, usize> {
    let _g = store.lock_shared();
    tg.graph
        .param_keys()
        .into_iter()
        .map(|(id, key)| {
            let slot = store
                .slot(&key)
                .unwrap_or_else(|| panic!("parameter '{key}' missing from the shared store"));
            // SAFETY: shared guard held; no writer can be active.
            let stored = unsafe { &(*store.cell(slot)).value };
            assert_eq!(
                stored.shape(),
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
    /// The parameter tensor, updated in place by `ApplyUpdate` nodes.
    pub value: Tensor,
    /// Optimizer state rows ([`Optimizer::state_slots`] vectors), allocated
    /// lazily the first time an executor registers the parameter as
    /// trainable.
    pub state: Vec<Vec<f32>>,
    /// Optimizer updates applied to *this* parameter (drives Adam bias
    /// correction). Tracked per cell rather than globally so a reset
    /// parameter restarts its correction schedule like a freshly
    /// initialized one.
    pub steps: usize,
}

/// Shared, canonical storage for the parameters of one model family.
///
/// See the module docs for the ownership and concurrency model. Constructed
/// from any graph of the family (parameter names, shapes and initial values
/// are batch-independent) and then shared across every specialized executor
/// via `Arc`.
pub struct ParamStore {
    cells: Vec<UnsafeCell<ParamCell>>,
    slots: HashMap<ParamKey, usize>,
    keys: Vec<ParamKey>,
    optimizer: Optimizer,
    /// 1-based count of completed optimisation steps across *all* executors
    /// sharing the store (drives Adam bias correction).
    steps: AtomicUsize,
    /// Cross-executor step guard (see the module docs).
    guard: RwLock<()>,
}

// SAFETY: all access to the `UnsafeCell` cells is mediated by the step
// guard: mutation happens only under the exclusive guard (training steps,
// `set`, `ensure_state`), shared references only under either guard. An
// executor updates cells only inside a training step, on the thread that
// holds the exclusive guard.
unsafe impl Sync for ParamStore {}
unsafe impl Send for ParamStore {}

impl std::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamStore")
            .field("params", &self.cells.len())
            .field("optimizer", &self.optimizer)
            .field("steps", &self.steps.load(Ordering::Relaxed))
            .finish()
    }
}

impl ParamStore {
    /// Materialises the canonical store from a graph's parameter table.
    ///
    /// Slots are assigned in sorted node-id order, which is deterministic
    /// for a given builder run. Optimizer state is *not* allocated here —
    /// executors register their trainable parameters via
    /// [`ParamStore::ensure_state`], so frozen parameters never pay for
    /// momentum/Adam rows.
    pub fn from_graph(graph: &Graph, optimizer: Optimizer) -> Self {
        let mut cells = Vec::new();
        let mut slots = HashMap::new();
        let mut keys = Vec::new();
        for (id, key) in graph.param_keys() {
            let info = &graph.params()[&id];
            let value = info.init.materialize(&graph.node(id).shape);
            slots.insert(key.clone(), cells.len());
            keys.push(key);
            cells.push(UnsafeCell::new(ParamCell {
                value,
                state: Vec::new(),
                steps: 0,
            }));
        }
        ParamStore {
            cells,
            slots,
            keys,
            optimizer,
            steps: AtomicUsize::new(0),
            guard: RwLock::new(()),
        }
    }

    /// The optimizer whose state this store holds.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// Number of parameters in the store.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All parameter keys, in slot order.
    pub fn keys(&self) -> &[ParamKey] {
        &self.keys
    }

    /// Slot index of a parameter key, if present.
    pub fn slot(&self, key: &ParamKey) -> Option<usize> {
        self.slots.get(key).copied()
    }

    /// Completed optimisation steps across every executor sharing the store.
    pub fn steps_completed(&self) -> usize {
        self.steps.load(Ordering::Relaxed)
    }

    /// Current value of a parameter (cloned under the shared guard).
    pub fn get(&self, key: &ParamKey) -> Option<Tensor> {
        let slot = self.slot(key)?;
        let _g = self.lock_shared();
        // SAFETY: shared guard held; no writer can be active.
        Some(unsafe { (*self.cells[slot].get()).value.clone() })
    }

    /// Overwrites a parameter value (e.g. loading a checkpoint) and
    /// **resets its optimizer state**: momentum/Adam moments accumulated for
    /// the old trajectory are meaningless for the new value, so they are
    /// zeroed — and the parameter's update count restarts, so Adam's bias
    /// correction warms up again exactly as for a freshly initialized
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown or the shapes do not match.
    pub fn set(&self, key: &ParamKey, value: Tensor) {
        let slot = self.slot(key).expect("unknown parameter");
        self.set_slot(slot, value);
    }

    /// [`ParamStore::set`] addressed by slot index.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or the shapes do not match.
    pub fn set_slot(&self, slot: usize, value: Tensor) {
        let _g = self.lock_exclusive();
        // SAFETY: exclusive guard held.
        let cell = unsafe { &mut *self.cells[slot].get() };
        assert_eq!(
            cell.value.shape(),
            value.shape(),
            "parameter shape mismatch"
        );
        cell.value = value;
        for row in &mut cell.state {
            row.fill(0.0);
        }
        cell.steps = 0;
    }

    /// Allocates optimizer state rows for a slot if not yet present.
    ///
    /// Called by executors at construction for every parameter their program
    /// updates, so state exists exactly once per trainable parameter no
    /// matter how many specializations share the store.
    pub fn ensure_state(&self, slot: usize) {
        let slots_needed = self.optimizer.state_slots();
        let _g = self.lock_exclusive();
        // SAFETY: exclusive guard held.
        let cell = unsafe { &mut *self.cells[slot].get() };
        if cell.state.len() < slots_needed {
            let n = cell.value.numel();
            cell.state = (0..slots_needed).map(|_| vec![0.0f32; n]).collect();
        }
    }

    /// Bytes held by parameter values plus allocated optimizer state.
    pub fn resident_bytes(&self) -> usize {
        let _g = self.lock_shared();
        self.cells
            .iter()
            .map(|c| {
                // SAFETY: shared guard held.
                let cell = unsafe { &*c.get() };
                (cell.value.numel() + cell.state.iter().map(Vec::len).sum::<usize>()) * 4
            })
            .sum()
    }

    /// Acquires the exclusive (training-step) guard.
    pub fn lock_exclusive(&self) -> RwLockWriteGuard<'_, ()> {
        self.guard.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the shared (evaluation-step) guard.
    pub fn lock_shared(&self) -> RwLockReadGuard<'_, ()> {
        self.guard.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Increments the global step counter, returning the new 1-based count.
    ///
    /// Must be called under the exclusive guard, once per training step.
    pub(crate) fn begin_step(&self) -> usize {
        self.steps.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Raw pointer to a cell.
    ///
    /// # Safety
    ///
    /// The caller must hold the appropriate guard for the access performed
    /// through the pointer: the exclusive guard for any mutation, at least
    /// the shared guard for reads — and must uphold Rust aliasing for the
    /// references it forms (the arena executor runs one node at a time, so
    /// an update's mutable reference never meets a reader's view).
    pub(crate) unsafe fn cell(&self, slot: usize) -> *mut ParamCell {
        self.cells[slot].get()
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
        let _g = self.lock_shared();
        let mut buf = Vec::with_capacity(64 + self.resident_bytes_locked());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(optimizer_tag(self.optimizer));
        buf.extend_from_slice(&(self.steps.load(Ordering::Relaxed) as u64).to_le_bytes());
        buf.extend_from_slice(&fits_u32(self.cells.len(), "parameter count").to_le_bytes());
        for (slot, key) in self.keys.iter().enumerate() {
            // SAFETY: shared guard held; no writer can be active.
            let cell = unsafe { &*self.cells[slot].get() };
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
    /// Unlike [`ParamStore::set`] — which deliberately *zeroes* optimizer
    /// state because an externally loaded value invalidates the old
    /// trajectory — a restore resumes the snapshot's own trajectory, so the
    /// state rows and step counts come along bit-exactly.
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
        if count != self.cells.len() {
            return Err(SnapshotError(format!(
                "snapshot holds {count} parameters, the store holds {}",
                self.cells.len()
            )));
        }
        // Decode fully before touching any cell, so a truncated or
        // mismatched snapshot can never leave the store half-restored.
        let mut decoded = Vec::with_capacity(count);
        for key in &self.keys {
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
            let numel: usize = dims.iter().product();
            let values = r.f32_row(numel)?;
            let rows = r.u8()? as usize;
            let state: Vec<Vec<f32>> = (0..rows)
                .map(|_| r.f32_row(numel))
                .collect::<Result<_, _>>()?;
            let steps = r.u64()? as usize;
            decoded.push((dims, values, state, steps));
        }
        if r.at != r.bytes.len() {
            return Err(SnapshotError(format!(
                "{} trailing bytes after the snapshot",
                r.bytes.len() - r.at
            )));
        }
        let _g = self.lock_exclusive();
        for (slot, (dims, _, _, _)) in decoded.iter().enumerate() {
            // SAFETY: exclusive guard held.
            let cell = unsafe { &*self.cells[slot].get() };
            if cell.value.dims() != dims.as_slice() {
                return Err(SnapshotError(format!(
                    "parameter '{}' shape {:?} differs from the snapshot's {:?}",
                    self.keys[slot],
                    cell.value.dims(),
                    dims
                )));
            }
        }
        for (slot, (dims, values, state, steps)) in decoded.into_iter().enumerate() {
            // SAFETY: exclusive guard held.
            let cell = unsafe { &mut *self.cells[slot].get() };
            cell.value = Tensor::from_vec(values, dims);
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

    /// [`ParamStore::resident_bytes`] without re-acquiring the guard the
    /// caller already holds.
    fn resident_bytes_locked(&self) -> usize {
        self.cells
            .iter()
            .map(|c| {
                // SAFETY: the caller holds a guard.
                let cell = unsafe { &*c.get() };
                (cell.value.numel() + cell.state.iter().map(Vec::len).sum::<usize>()) * 4
            })
            .sum()
    }
}

/// Four magic bytes leading every snapshot: "PockEngine SNapshot".
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PESN";

/// Layout version of the snapshot byte format written by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

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
    use pe_graph::{GraphBuilder, ParamKey};
    use pe_tensor::Rng;

    fn store() -> ParamStore {
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let w = b.weight("fc.weight", [3, 4], &mut rng);
        let logits = b.linear(x, w, None);
        let g = b.finish(vec![logits]);
        ParamStore::from_graph(
            &g,
            Optimizer::Momentum {
                lr: 0.1,
                momentum: 0.9,
            },
        )
    }

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
        // SAFETY: single-threaded test, no guards needed for inspection.
        unsafe {
            let cell = &mut *s.cell(0);
            assert_eq!(cell.state.len(), 1);
            cell.state[0].fill(7.0);
            cell.steps = 4;
        }
        s.set(&ParamKey::new("fc.weight"), Tensor::ones([3, 4]));
        unsafe {
            let cell = &*s.cell(0);
            assert!(cell.state[0].iter().all(|&v| v == 0.0), "state must reset");
            assert_eq!(cell.steps, 0, "update count must restart");
            assert_eq!(cell.value.data()[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_checks_shapes() {
        let s = store();
        s.set(&ParamKey::new("fc.weight"), Tensor::ones([2, 2]));
    }

    #[test]
    fn snapshot_restores_values_state_and_steps_bit_exactly() {
        let s = store();
        s.ensure_state(0);
        unsafe {
            let cell = &mut *s.cell(0);
            cell.value.data_mut()[0] = f32::from_bits(0x3f8f_5c29);
            cell.state[0].fill(0.25);
            cell.steps = 3;
        }
        s.steps.store(5, Ordering::Relaxed);
        let bytes = s.snapshot();

        let fresh = store();
        fresh.ensure_state(0);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.steps_completed(), 5);
        unsafe {
            let cell = &*fresh.cell(0);
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
        let mut rng = Rng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 4]);
        let w = b.weight("fc.weight", [3, 4], &mut rng);
        let logits = b.linear(x, w, None);
        let g = b.finish(vec![logits]);
        let adam = ParamStore::from_graph(&g, crate::Optimizer::adam(0.001));
        assert!(adam.restore(&good).unwrap_err().0.contains("optimizer"));
        // The good bytes still restore cleanly after all the rejections.
        assert!(s.restore(&good).is_ok());
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
