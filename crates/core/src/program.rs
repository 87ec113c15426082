//! The staged compilation pipeline: a batch-size–generic [`Program`] with a
//! lazily filled, content-keyed specialization cache.
//!
//! PockEngine pays its graph work at compile time — but the seed compiler
//! welded that payment to a single batch size: `compile(&model, ..)`
//! produced one executor owning one private copy of every parameter.
//! Serving mixed request shapes (or running train and eval concurrently)
//! meant duplicating all weights and optimizer state per shape.
//!
//! The staged pipeline splits compilation in two:
//!
//! 1. **Generic stage** ([`Compiler::compile`]): bind a *model factory*
//!    (batch size → forward graph) and materialise the canonical
//!    [`ParamStore`] once. Parameter identity uses `pe_graph::ParamKey`
//!    (canonical names), which is batch-independent, so every later
//!    specialization resolves the same store slots.
//! 2. **Specialization stage** ([`Program::specialize`]): per requested
//!    batch size, run the batch-*dependent* tail of the pipeline — autodiff
//!    → optimisation passes → scheduling → memory planning → executor —
//!    and cache the result under its batch size. Cache hits return the
//!    cached executor; every specialization borrows the one store.

use std::collections::HashMap;
use std::sync::Arc;

use pe_data::serving::Request;
use pe_graph::{Graph, Node, OpKind};
use pe_models::BuiltModel;
use pe_runtime::{ExecError, Executor, ParamStore};
use pe_tensor::Tensor;

use crate::{build_executor, CompileOptions};

/// Builds the forward graph of one model family at a requested batch size.
///
/// Implementations must be deterministic and batch-consistent: the same
/// batch always yields the same graph, and graphs built at different batch
/// sizes carry identical parameter names, shapes and initial values (the
/// model zoo's builders satisfy this — parameter initialisation never
/// depends on the batch dimension).
pub trait ModelFactory: Send {
    /// Builds the model with `batch` baked into its input shapes.
    fn build(&self, batch: usize) -> BuiltModel;
}

impl<F> ModelFactory for F
where
    F: Fn(usize) -> BuiltModel + Send,
{
    fn build(&self, batch: usize) -> BuiltModel {
        self(batch)
    }
}

/// Specialization-cache hit/miss accounting.
///
/// Counts exist at two granularities, because one executor **dispatch** may
/// serve many coalesced requests:
///
/// * `hits` / `misses` are **per dispatch** — one count per
///   `Program::specialize_for_requests` call (a training step, an eval
///   micro-batch, or a warmup compile);
/// * `request_hits` / `request_misses` are **per request** — a coalesced
///   eval group of five requests served by a cached specialization adds 5
///   to `request_hits` but only 1 to `hits`. Warmup compiles serve no
///   request and leave the request counts untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dispatches answered by an already-compiled specialization.
    pub hits: u64,
    /// Dispatches that ran the specialization pipeline.
    pub misses: u64,
    /// Requests served through an already-compiled specialization.
    pub request_hits: u64,
    /// Requests whose dispatch had to run the specialization pipeline.
    /// Requests rejected by admission control are **not** counted here (or
    /// anywhere in this struct): a rejection never reaches the cache, so it
    /// must not look like cache churn.
    pub request_misses: u64,
    /// Specializations evicted by the size-budgeted LRU policy (see
    /// `Program::set_max_specializations`).
    pub evictions: u64,
}

/// One batch-size specialization: the pooled executor borrowing the
/// program's shared parameter store.
#[derive(Debug)]
pub struct Specialization {
    /// The executor; borrows the program's [`ParamStore`].
    pub(crate) executor: Executor,
}

/// The staged compiler: fixes the compilation options, then binds a model
/// factory to produce a batch-size–generic [`Program`].
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// Runs the generic stage: builds the model once (at batch size 1) to
    /// materialise the canonical parameter store and capture the family's
    /// input/output names, and returns a [`Program`] whose batch-dependent
    /// pipeline runs lazily per specialization. Every specialization is
    /// compiled in process, on first use of its batch size.
    pub fn compile<F: ModelFactory + 'static>(self, factory: F) -> Program {
        let base = factory.build(1);
        let store = Arc::new(ParamStore::from_graph(&base.graph, self.options.optimizer));
        Program {
            factory: Box::new(factory),
            options: self.options,
            store,
            features: InputSpec::of(&base.graph, &base.feature_input),
            labels: InputSpec::of(&base.graph, &base.label_input),
            logits_name: base.logits_name(),
            model_name: base.name,
            cache: HashMap::new(),
            rungs: Vec::new(),
            lru: HashMap::new(),
            clock: 0,
            max_specializations: None,
            stats: CacheStats::default(),
        }
    }
}

/// One step input as a request must carry it, read off the model's graph.
#[derive(Debug)]
struct InputSpec {
    name: String,
    /// The input's dims after the first, which is a request's row count.
    row_dims: Vec<usize>,
    /// The exclusive bound of the input's values when the graph uses them as
    /// indices: the embedding table's rows for token ids, the logits' last
    /// dim for cross-entropy targets.
    index_bound: Option<usize>,
}

impl InputSpec {
    fn of(graph: &Graph, name: &str) -> Self {
        let input = graph
            .inputs()
            .iter()
            .map(|&id| graph.node(id))
            .find(|n| n.name == name);
        let input = input.unwrap_or_else(|| panic!("the model has no input named '{name}'"));
        let bound = |node: &Node| match (&node.op, &node.inputs[..]) {
            (OpKind::Embedding, &[table, ids]) if ids == input.id => {
                Some(graph.node(table).shape.dims()[0])
            }
            (OpKind::CrossEntropyLoss, &[logits, targets]) if targets == input.id => {
                graph.node(logits).shape.dims().last().copied()
            }
            _ => None,
        };
        InputSpec {
            name: name.to_string(),
            row_dims: input.shape.dims().get(1..).unwrap_or_default().to_vec(),
            index_bound: graph.nodes().iter().find_map(bound),
        }
    }

    /// Checks one request tensor of `rows` rows against the input.
    fn check(&self, t: &Tensor, rows: usize) -> Result<(), ExecError> {
        if t.dims().split_first() != Some((&rows, &self.row_dims[..])) {
            return Err(ExecError::InputShapeMismatch {
                name: self.name.clone(),
                expected: [&[rows][..], &self.row_dims].concat(),
                actual: t.dims().to_vec(),
            });
        }
        let Some(bound) = self.index_bound else {
            return Ok(());
        };
        // NaN fails the first comparison, so it is out of range too.
        let is_index = |v: f32| v >= 0.0 && v < bound as f32 && v.fract() == 0.0;
        match t.data().iter().position(|&v| !is_index(v)) {
            None => Ok(()),
            Some(position) => Err(ExecError::InputIndexOutOfRange {
                name: self.name.clone(),
                position,
                bound,
            }),
        }
    }
}

/// A batch-size–generic compiled program: one canonical [`ParamStore`] plus
/// a cache of batch-size specializations that all borrow it.
///
/// See the module docs for the staging model. Obtain one via
/// [`Compiler::compile`].
pub struct Program {
    factory: Box<dyn ModelFactory>,
    options: CompileOptions,
    store: Arc<ParamStore>,
    /// The feature and label inputs, as a request must carry them.
    features: InputSpec,
    labels: InputSpec,
    logits_name: String,
    model_name: String,
    cache: HashMap<usize, Specialization>,
    /// Sorted cached batch sizes, maintained on insert/evict so the serving
    /// hot path (admission, pad-to-nearest lookups) never rebuilds and
    /// sorts a key scan.
    rungs: Vec<usize>,
    /// Last-access tick per cached specialization (the LRU order).
    lru: HashMap<usize, u64>,
    /// Monotonic access counter feeding `lru`.
    clock: u64,
    /// Size budget of the specialization cache; `None` is unbounded.
    max_specializations: Option<usize>,
    stats: CacheStats,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("model", &self.model_name)
            .field("params", &self.store.len())
            .field("specializations", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Program {
    /// The shared canonical parameter store.
    pub fn store(&self) -> &Arc<ParamStore> {
        &self.store
    }

    /// Name of the model family's feature input node.
    pub(crate) fn feature_input(&self) -> &str {
        &self.features.name
    }

    /// Name of the model family's label input node.
    pub(crate) fn label_input(&self) -> &str {
        &self.labels.name
    }

    /// Name of the logits output node.
    pub(crate) fn logits_name(&self) -> &str {
        &self.logits_name
    }

    /// Checks that a request fits this program before it joins a batch: its
    /// features and labels match the inputs in every dim but the first (its
    /// row count), and every class index or token id is an integer in range.
    pub(crate) fn check_request(&self, request: &Request) -> Result<(), ExecError> {
        let rows = request.rows();
        self.features.check(&request.features, rows)?;
        self.labels.check(&request.labels, rows)
    }

    /// Cache hit/miss counts so far.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Batch sizes with a cached specialization, sorted: the maintained
    /// rung index the serving hot path reads.
    pub fn cached_batches(&self) -> &[usize] {
        &self.rungs
    }

    /// Whether a specialization for `batch` is already compiled.
    pub fn is_cached(&self, batch: usize) -> bool {
        self.cache.contains_key(&batch)
    }

    /// Returns the specialization for `batch`, running the batch-dependent
    /// pipeline (autodiff → passes → scheduling → memory planning →
    /// executor) on a cache miss.
    ///
    /// # Panics
    ///
    /// Panics if the factory produces a model whose parameters disagree
    /// with the canonical store (a non-conforming [`ModelFactory`]).
    pub fn specialize(&mut self, batch: usize) -> &mut Specialization {
        self.specialize_for_requests(batch, 0)
    }

    /// [`Program::specialize`], additionally attributing the dispatch to
    /// `requests` serving requests in the per-request cache accounting (see
    /// [`CacheStats`]). The engine passes the coalesced group size here;
    /// warmup compiles pass 0.
    pub(crate) fn specialize_for_requests(
        &mut self,
        batch: usize,
        requests: u64,
    ) -> &mut Specialization {
        self.clock += 1;
        if self.cache.contains_key(&batch) {
            self.stats.hits += 1;
            self.stats.request_hits += requests;
        } else {
            self.stats.misses += 1;
            self.stats.request_misses += requests;
            let model = self.factory.build(batch);
            let executor = build_executor(&model, &self.options, Arc::clone(&self.store));
            self.cache.insert(batch, Specialization { executor });
            if let Err(at) = self.rungs.binary_search(&batch) {
                self.rungs.insert(at, batch);
            }
            self.evict_beyond_budget(batch);
        }
        self.lru.insert(batch, self.clock);
        self.cache
            .get_mut(&batch)
            .expect("just inserted or present")
    }

    /// Sets the size budget of the specialization cache: at most `max`
    /// specializations stay resident, evicting least-recently-used entries
    /// (the entry being served is never evicted). `None` (the default)
    /// keeps the cache unbounded. Evictions are counted in
    /// [`CacheStats::evictions`].
    ///
    /// Shrinking the budget below the current cache size evicts immediately
    /// on the next specialization access, not eagerly.
    pub(crate) fn set_max_specializations(&mut self, max: Option<usize>) {
        assert!(
            max.is_none_or(|m| m > 0),
            "the specialization budget must be positive (use None for unbounded)"
        );
        self.max_specializations = max;
    }

    /// The configured specialization-cache budget.
    pub fn max_specializations(&self) -> Option<usize> {
        self.max_specializations
    }

    /// Evicts least-recently-used specializations until the cache fits the
    /// budget, never evicting `keep` (the entry about to be returned).
    fn evict_beyond_budget(&mut self, keep: usize) {
        let Some(max) = self.max_specializations else {
            return;
        };
        while self.cache.len() > max.max(1) {
            let victim = self
                .lru
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, tick)| **tick)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            self.cache.remove(&victim);
            self.lru.remove(&victim);
            if let Ok(at) = self.rungs.binary_search(&victim) {
                self.rungs.remove(at);
            }
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_models::{build_mobilenet, MobileNetV2Config};
    use pe_runtime::Optimizer;
    use pe_tensor::Rng;

    fn program() -> Program {
        Compiler::new(CompileOptions {
            optimizer: Optimizer::sgd(0.05),
            ..CompileOptions::default()
        })
        .compile(|batch: usize| {
            let mut rng = Rng::seed_from_u64(0);
            build_mobilenet(&MobileNetV2Config::tiny(batch, 3), &mut rng)
        })
    }

    #[test]
    fn specializations_share_one_store() {
        let mut p = program();
        let params = p.store().len();
        assert!(params > 0);
        let a = p.specialize(2).executor.param_store().clone();
        let b = p.specialize(4).executor.param_store().clone();
        assert!(Arc::ptr_eq(&a, &b), "specializations must share the store");
        assert!(Arc::ptr_eq(&a, p.store()));
        assert_eq!(p.cached_batches(), vec![2, 4]);
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let mut p = program();
        assert_eq!(p.cache_stats(), CacheStats::default());
        p.specialize(2);
        p.specialize(2);
        p.specialize(4);
        assert_eq!(
            p.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );
        assert!(p.is_cached(2) && p.is_cached(4) && !p.is_cached(8));
    }

    #[test]
    fn request_counts_track_coalesced_group_sizes() {
        let mut p = program();
        // Warmup-style dispatch: no requests attributed.
        p.specialize(4);
        // A coalesced group of 5 requests hits the cached specialization.
        p.specialize_for_requests(4, 5);
        // A train request misses at a new batch size.
        p.specialize_for_requests(2, 1);
        assert_eq!(
            p.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                request_hits: 5,
                request_misses: 1,
                evictions: 0,
            }
        );
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_counts() {
        let mut p = program();
        p.set_max_specializations(Some(2));
        p.specialize(2);
        p.specialize(4);
        assert_eq!(p.cached_batches(), vec![2, 4]);
        assert_eq!(p.cache_stats().evictions, 0);

        // Touch 2 so 4 becomes the LRU entry, then overflow the budget.
        p.specialize(2);
        p.specialize(8);
        assert_eq!(p.cached_batches(), vec![2, 8], "4 was least recently used");
        assert_eq!(p.cache_stats().evictions, 1);

        // The evicted rung recompiles on demand (a miss), evicting again.
        p.specialize(4);
        assert_eq!(p.cache_stats().evictions, 2);
        assert!(p.cached_batches().len() <= 2);
        let stats = p.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_specialization_budget_is_rejected() {
        let mut p = program();
        p.set_max_specializations(Some(0));
    }

    #[test]
    fn specialized_graphs_bake_the_batch() {
        let mut p = program();
        let spec = p.specialize(4);
        let graph = &spec.executor.training_graph().graph;
        let feature = graph
            .inputs()
            .iter()
            .map(|&id| graph.node(id))
            .find(|n| n.name == "x")
            .expect("feature input");
        assert_eq!(feature.shape.dims()[0], 4);
    }
}
