//! Sensitivity analysis and evolutionary scheme search (paper §3.1, Eq. 1).
//!
//! The search picks which biases and weight tensors (and at what channel
//! ratio) to update so that the summed accuracy contribution is maximised
//! while the memory footprint stays under a budget:
//!
//! ```text
//! max  Σ Δacc_bias[k] + Σ Δacc_weight[i, r]
//! s.t. Memory(k, i, r) <= constraint
//! ```
//!
//! Contributions are measured offline by fine-tuning one tensor at a time
//! ([`sensitivity_analysis`]); the contributions are assumed additive, so the
//! constrained maximisation is solved with a small evolutionary search.

use pe_graph::NodeId;
use pe_tensor::Rng;

/// Accuracy contribution and memory cost of updating one candidate tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The parameter node.
    pub(crate) param: NodeId,
    /// Parameter name (for reporting).
    pub(crate) name: String,
    /// Measured accuracy improvement over the frozen baseline when only this
    /// tensor is fine-tuned (`Δacc`), in absolute accuracy points.
    pub(crate) contribution: f32,
    /// Extra training memory (bytes) incurred by updating the full tensor
    /// (saved activation + gradient + optimizer state).
    pub memory_cost: usize,
    /// Channel ratios the search may choose from (always includes 1.0; a
    /// ratio r scales both contribution and memory cost linearly, following
    /// the paper's additive-contribution assumption).
    pub(crate) ratio_options: Vec<f32>,
}

impl Candidate {
    /// Creates a full-tensor-only candidate.
    pub(crate) fn new(
        param: NodeId,
        name: impl Into<String>,
        contribution: f32,
        memory_cost: usize,
    ) -> Self {
        Candidate {
            param,
            name: name.into(),
            contribution,
            memory_cost,
            ratio_options: vec![1.0],
        }
    }
}

/// Measures per-tensor accuracy contributions.
///
/// `evaluate` receives a single candidate parameter id and must return the
/// downstream accuracy achieved when *only that tensor* is fine-tuned (the
/// caller owns the training loop, dataset and step budget); `baseline` is the
/// accuracy with everything frozen. This mirrors the paper's offline
/// analysis, which fine-tunes one layer at a time until convergence.
pub fn sensitivity_analysis(
    params: &[(NodeId, String, usize)],
    baseline: f32,
    mut evaluate: impl FnMut(NodeId) -> f32,
) -> Vec<Candidate> {
    params
        .iter()
        .map(|(id, name, memory_cost)| {
            let acc = evaluate(*id);
            Candidate::new(*id, name.clone(), acc - baseline, *memory_cost)
        })
        .collect()
}

/// One selected tensor in a search result.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen parameter.
    pub param: NodeId,
    /// Parameter name.
    pub(crate) name: String,
    /// Chosen channel ratio (1.0 = full tensor).
    pub(crate) ratio: f32,
}

/// Result of the evolutionary search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Selected tensors and ratios.
    pub selections: Vec<Selection>,
    /// Total (assumed-additive) accuracy contribution.
    pub(crate) total_contribution: f32,
    /// Total memory cost in bytes.
    pub total_memory: usize,
}

/// Genome: per-candidate choice index (0 = not updated, i>0 = ratio_options[i-1]).
type Genome = Vec<usize>;

fn genome_fitness(cands: &[Candidate], genome: &Genome, budget: usize) -> (f32, usize) {
    let mut contribution = 0.0;
    let mut memory = 0usize;
    for (c, &choice) in cands.iter().zip(genome) {
        if choice == 0 {
            continue;
        }
        let ratio = c.ratio_options[choice - 1];
        contribution += c.contribution * ratio;
        memory += (c.memory_cost as f32 * ratio) as usize;
    }
    if memory > budget {
        // Infeasible genomes are heavily penalised but keep a gradient toward
        // feasibility so crossover can repair them.
        contribution -= 1e3 * (memory - budget) as f32 / budget.max(1) as f32;
    }
    (contribution, memory)
}

/// Evolutionary search for the best update configuration under a memory
/// budget (Eq. 1). Deterministic given the RNG seed.
pub fn evolutionary_search(
    cands: &[Candidate],
    memory_budget: usize,
    generations: usize,
    population: usize,
    rng: &mut Rng,
) -> SearchResult {
    assert!(!cands.is_empty(), "search requires at least one candidate");
    let n = cands.len();
    let random_genome = |rng: &mut Rng| -> Genome {
        (0..n)
            .map(|i| {
                if rng.bernoulli(0.5) {
                    0
                } else {
                    1 + rng.next_usize(cands[i].ratio_options.len())
                }
            })
            .collect()
    };

    let mut pop: Vec<Genome> = (0..population.max(4)).map(|_| random_genome(rng)).collect();
    // Also seed the empty genome (always feasible).
    pop[0] = vec![0; n];

    let mut best = pop[0].clone();
    let mut best_fit = genome_fitness(cands, &best, memory_budget).0;

    for _ in 0..generations {
        // Score and sort.
        let mut scored: Vec<(f32, Genome)> = pop
            .iter()
            .map(|g| (genome_fitness(cands, g, memory_budget).0, g.clone()))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        if scored[0].0 > best_fit {
            best_fit = scored[0].0;
            best = scored[0].1.clone();
        }
        // Elitism + mutation/crossover of the top half.
        let survivors: Vec<Genome> = scored
            .iter()
            .take(pop.len() / 2)
            .map(|(_, g)| g.clone())
            .collect();
        let mut next = survivors.clone();
        while next.len() < pop.len() {
            let a = &survivors[rng.next_usize(survivors.len())];
            let b = &survivors[rng.next_usize(survivors.len())];
            let mut child: Genome = (0..n)
                .map(|i| if rng.bernoulli(0.5) { a[i] } else { b[i] })
                .collect();
            // Point mutation.
            let m = rng.next_usize(n);
            child[m] = if rng.bernoulli(0.5) {
                0
            } else {
                1 + rng.next_usize(cands[m].ratio_options.len())
            };
            next.push(child);
        }
        pop = next;
    }

    let (total_contribution, total_memory) = genome_fitness(cands, &best, memory_budget);
    let selections = cands
        .iter()
        .zip(&best)
        .filter(|(_, &choice)| choice > 0)
        .map(|(c, &choice)| Selection {
            param: c.param,
            name: c.name.clone(),
            ratio: c.ratio_options[choice - 1],
        })
        .collect();
    SearchResult {
        selections,
        total_contribution,
        total_memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Candidate> {
        // Contribution / memory profiles chosen so that the best feasible
        // solution under budget 100 is {a, c} (contribution 5.0), not the
        // greedy-by-contribution pick {b} (4.0, memory 90).
        vec![
            Candidate::new(NodeId(1), "a", 3.0, 50),
            Candidate::new(NodeId(2), "b", 4.0, 90),
            Candidate::new(NodeId(3), "c", 2.0, 40),
            Candidate::new(NodeId(4), "d", 0.5, 80),
        ]
    }

    #[test]
    fn respects_memory_budget() {
        let mut rng = Rng::seed_from_u64(0);
        let result = evolutionary_search(&candidates(), 100, 60, 24, &mut rng);
        assert!(
            result.total_memory <= 100,
            "memory {} over budget",
            result.total_memory
        );
    }

    #[test]
    fn finds_the_better_combination() {
        let mut rng = Rng::seed_from_u64(1);
        let result = evolutionary_search(&candidates(), 100, 80, 32, &mut rng);
        let names: Vec<&str> = result.selections.iter().map(|s| s.name.as_str()).collect();
        assert!(
            names.contains(&"a") && names.contains(&"c"),
            "got {names:?}"
        );
        assert!((result.total_contribution - 5.0).abs() < 1e-5);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let mut rng = Rng::seed_from_u64(2);
        let small = evolutionary_search(&candidates(), 60, 80, 32, &mut rng);
        let mut rng = Rng::seed_from_u64(2);
        let large = evolutionary_search(&candidates(), 300, 80, 32, &mut rng);
        assert!(large.total_contribution >= small.total_contribution);
    }

    #[test]
    fn ratio_options_allow_cheaper_partial_updates() {
        let mut rng = Rng::seed_from_u64(3);
        let cands = vec![
            Candidate {
                ratio_options: vec![0.5, 1.0],
                ..Candidate::new(NodeId(1), "big", 4.0, 200)
            },
            Candidate::new(NodeId(2), "small", 1.0, 50),
        ];
        // Budget only fits the half-ratio big tensor (100) plus the small one.
        let result = evolutionary_search(&cands, 150, 100, 32, &mut rng);
        assert!(result.total_memory <= 150);
        let big = result.selections.iter().find(|s| s.name == "big");
        assert!(
            big.is_some(),
            "the high-contribution tensor should be selected at a partial ratio"
        );
        assert!((big.unwrap().ratio - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sensitivity_analysis_subtracts_baseline() {
        let params = vec![
            (NodeId(1), "w1".to_string(), 10usize),
            (NodeId(2), "w2".to_string(), 20usize),
        ];
        let cands =
            sensitivity_analysis(&params, 0.5, |id| if id == NodeId(1) { 0.7 } else { 0.55 });
        assert!((cands[0].contribution - 0.2).abs() < 1e-6);
        assert!((cands[1].contribution - 0.05).abs() < 1e-6);
        assert_eq!(cands[0].memory_cost, 10);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut rng = Rng::seed_from_u64(0);
        evolutionary_search(&[], 10, 5, 5, &mut rng);
    }
}
