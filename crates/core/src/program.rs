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
use std::time::Duration;

use pe_memplan::{plan_memory_with, MemPlanOptions};
use pe_models::BuiltModel;
use pe_runtime::{Executor, ExecutorSeed, ParamStore};

use crate::artifact::{content_hash, derived_latency_us, ArtifactRegistry, ProgramArtifact};
use crate::{analyze, CompileOptions, ProgramAnalysis};

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
///   [`Program::specialize_for_requests`] call (a training step, an eval
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
    /// [`Program::set_max_specializations`]).
    pub evictions: u64,
    /// Dispatches answered by loading a serialized artifact from the
    /// attached [`ArtifactRegistry`] instead of compiling. Registry hits
    /// are counted as cache `hits` (the pipeline never ran), plus here.
    pub registry_hits: u64,
    /// Dispatches that consulted an attached registry and fell back to JIT
    /// compilation (absent file, version or hash mismatch, corruption).
    /// Always counted inside `misses`; zero when no registry is attached.
    pub registry_misses: u64,
}

/// One batch-size specialization: the compiled analysis plus the pooled
/// executor borrowing the program's shared parameter store.
#[derive(Debug)]
pub struct Specialization {
    /// The batch size baked into this specialization's graph.
    pub batch: usize,
    /// Compile-time analysis (graph, schedule, memory breakdown).
    pub analysis: ProgramAnalysis,
    /// The executor; borrows the program's [`ParamStore`].
    pub executor: Executor,
    /// Offline latency profile carried by a registry-loaded artifact
    /// (`None` for JIT-compiled specializations). The engine seeds its
    /// admission latency model from this, so a cold worker with a warm
    /// registry makes deadline decisions from the first request.
    pub latency_profile: Option<Duration>,
    /// Lazily captured recipe for building sibling executors (the parallel
    /// drain's per-worker executors) over the shared store; populated on the
    /// first [`Specialization::executor_seed`] call.
    pub(crate) fork_seed: Option<Arc<ExecutorSeed>>,
}

impl Specialization {
    /// A shared recipe for constructing sibling executors of this
    /// specialization — same compiled program, same shared [`ParamStore`],
    /// private execution state. Captured from [`Specialization::executor`]
    /// on first call and cached, so repeated dispatches of the same rung
    /// hand workers one `Arc` instead of recloning the graph.
    pub fn executor_seed(&mut self) -> Arc<ExecutorSeed> {
        if self.fork_seed.is_none() {
            self.fork_seed = Some(Arc::new(self.executor.seed()));
        }
        Arc::clone(self.fork_seed.as_ref().expect("fork_seed populated above"))
    }
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
    /// pipeline runs lazily per specialization.
    ///
    /// The program's artifact content hash is derived here from the base
    /// graph and the compile options, and the `PE_PROGRAM_REGISTRY`
    /// environment variable (when set) attaches an [`ArtifactRegistry`]
    /// that specializations consult before compiling; use
    /// [`Program::attach_registry`] to override either way.
    pub fn compile<F: ModelFactory + 'static>(self, factory: F) -> Program {
        let base = factory.build(1);
        let store = Arc::new(ParamStore::from_graph(&base.graph, self.options.optimizer));
        let content_hash = content_hash(&base.graph, &self.options);
        Program {
            factory: Box::new(factory),
            options: self.options,
            store,
            feature_input: base.feature_input.clone(),
            label_input: base.label_input.clone(),
            logits_name: base.logits_name(),
            model_name: base.name,
            content_hash,
            registry: ArtifactRegistry::from_env(),
            cache: HashMap::new(),
            rungs: Vec::new(),
            lru: HashMap::new(),
            clock: 0,
            max_specializations: None,
            stats: CacheStats::default(),
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
    feature_input: String,
    label_input: String,
    logits_name: String,
    model_name: String,
    /// Content address of (base graph structure × compile options); the key
    /// under which the artifact registry files this program's rungs.
    content_hash: u64,
    /// Registry consulted before JIT compiling a specialization; `None`
    /// compiles everything.
    registry: Option<ArtifactRegistry>,
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
            .field("content_hash", &format_args!("{:016x}", self.content_hash))
            .field("registry", &self.registry.as_ref().map(|r| r.dir()))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Program {
    /// The shared canonical parameter store.
    pub fn store(&self) -> &Arc<ParamStore> {
        &self.store
    }

    /// The compilation options the program was created with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Name of the model family's feature input node.
    pub fn feature_input(&self) -> &str {
        &self.feature_input
    }

    /// Name of the model family's label input node.
    pub fn label_input(&self) -> &str {
        &self.label_input
    }

    /// Name of the logits output node.
    pub fn logits_name(&self) -> &str {
        &self.logits_name
    }

    /// Human-readable model family name.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Cache hit/miss counts so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// The program's artifact content address: a 64-bit hash of the base
    /// graph structure and the compile options (see
    /// [`crate::artifact::content_hash`]).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The attached artifact registry, if any.
    pub fn registry(&self) -> Option<&ArtifactRegistry> {
        self.registry.as_ref()
    }

    /// Attaches (or with `None` detaches) the artifact registry future
    /// specializations consult before JIT compiling. Overrides whatever
    /// `PE_PROGRAM_REGISTRY` attached at compile time; already-cached
    /// specializations are unaffected.
    pub fn attach_registry(&mut self, registry: Option<ArtifactRegistry>) {
        self.registry = registry;
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
    pub fn specialize_for_requests(&mut self, batch: usize, requests: u64) -> &mut Specialization {
        self.clock += 1;
        if self.cache.contains_key(&batch) {
            self.stats.hits += 1;
            self.stats.request_hits += requests;
        } else {
            // Consult the artifact registry first: a validated artifact
            // skips the whole pipeline (a hit); anything wrong with it —
            // absent, stale version, hash mismatch, corruption — falls
            // back to JIT compilation and is only slower, never unsound.
            let loaded = self.load_from_registry(batch);
            let spec = match loaded {
                Some(spec) => {
                    self.stats.hits += 1;
                    self.stats.request_hits += requests;
                    self.stats.registry_hits += 1;
                    spec
                }
                None => {
                    self.stats.misses += 1;
                    self.stats.request_misses += requests;
                    if self.registry.is_some() {
                        self.stats.registry_misses += 1;
                    }
                    let model = self.factory.build(batch);
                    let analysis = analyze(&model, &self.options);
                    let executor = Executor::with_store(
                        analysis.training_graph.clone(),
                        analysis.schedule.clone(),
                        Arc::clone(&self.store),
                    );
                    Specialization {
                        batch,
                        analysis,
                        executor,
                        latency_profile: None,
                        fork_seed: None,
                    }
                }
            };
            self.cache.insert(batch, spec);
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

    /// Tries to satisfy a specialization from the attached registry;
    /// `None` on any miss (no registry, absent rung, failed validation).
    fn load_from_registry(&self, batch: usize) -> Option<Specialization> {
        let registry = self.registry.as_ref()?;
        let artifact = registry.load(self.content_hash, batch).ok()?;
        artifact.into_specialization(Arc::clone(&self.store)).ok()
    }

    /// Compiles (without caching) the specialization for `batch` and
    /// packages it as a serializable [`ProgramArtifact`], with a
    /// deterministic flops-derived latency profile. The memory plan is
    /// generated with the exact options the executor plans with, so a
    /// loaded artifact replays it instead of re-planning.
    pub fn export_artifact(&self, batch: usize) -> ProgramArtifact {
        let model = self.factory.build(batch);
        let analysis = analyze(&model, &self.options);
        let graph = &analysis.training_graph.graph;
        let plan = plan_memory_with(graph, &analysis.schedule, &MemPlanOptions::for_execution());
        let latency_us = derived_latency_us(pe_graph::graph_cost(graph).flops);
        ProgramArtifact {
            content_hash: self.content_hash,
            batch,
            model_name: self.model_name.clone(),
            feature_input: self.feature_input.clone(),
            label_input: self.label_input.clone(),
            analysis,
            plan,
            latency_us,
        }
    }

    /// Exports one artifact per batch rung into `registry` (see
    /// [`Program::export_artifact`]) and returns the written paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the registry.
    pub fn export_artifacts(
        &self,
        registry: &ArtifactRegistry,
        batches: &[usize],
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        batches
            .iter()
            .map(|&batch| registry.store(&self.export_artifact(batch)))
            .collect()
    }

    /// Sets the size budget of the specialization cache: at most `max`
    /// specializations stay resident, evicting least-recently-used entries
    /// (the entry being served is never evicted). `None` (the default)
    /// keeps the cache unbounded. Evictions are counted in
    /// [`CacheStats::evictions`].
    ///
    /// Shrinking the budget below the current cache size evicts immediately
    /// on the next specialization access, not eagerly.
    pub fn set_max_specializations(&mut self, max: Option<usize>) {
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
        let mut p = Compiler::new(CompileOptions {
            optimizer: Optimizer::sgd(0.05),
            ..CompileOptions::default()
        })
        .compile(|batch: usize| {
            let mut rng = Rng::seed_from_u64(0);
            build_mobilenet(&MobileNetV2Config::tiny(batch, 3), &mut rng)
        });
        // Exact-stats assertions below must not depend on whatever
        // PE_PROGRAM_REGISTRY the test process inherited.
        p.attach_registry(None);
        p
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
                registry_hits: 0,
                registry_misses: 0,
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
        assert_eq!(spec.batch, 4);
        let graph = &spec.analysis.training_graph.graph;
        let feature = graph
            .inputs()
            .iter()
            .map(|&id| graph.node(id))
            .find(|n| n.name == "x")
            .expect("feature input");
        assert_eq!(feature.shape.dims()[0], 4);
    }
}
