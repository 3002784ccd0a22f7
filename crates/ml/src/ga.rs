//! Genetic-algorithm feature-subset selection, mirroring the paper's
//! pyeasyga setup: population 500, crossover probability 0.8, mutation rate
//! 0.1. An individual is a set of `k` distinct feature indices (the paper
//! subsets 10 of the 256 embedding dimensions).

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// GA hyper-parameters (paper defaults).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GaParams {
    pub population: usize,
    pub generations: usize,
    pub crossover_prob: f64,
    pub mutation_rate: f64,
    pub seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 500,
            generations: 30,
            crossover_prob: 0.8,
            mutation_rate: 0.1,
            seed: 23,
        }
    }
}

/// The optimizer. Maximizes a caller-provided fitness over k-subsets of
/// `0..n_features`.
pub struct Ga {
    pub params: GaParams,
}

type Individual = Vec<usize>;

impl Ga {
    pub fn new(params: GaParams) -> Ga {
        Ga { params }
    }

    fn random_individual(n: usize, k: usize, rng: &mut ChaCha8Rng) -> Individual {
        let mut all: Vec<usize> = (0..n).collect();
        all.shuffle(rng);
        let mut ind: Individual = all.into_iter().take(k).collect();
        ind.sort_unstable();
        ind
    }

    fn crossover(
        a: &Individual,
        b: &Individual,
        k: usize,
        n: usize,
        rng: &mut ChaCha8Rng,
    ) -> Individual {
        let mut pool: BTreeSet<usize> = a.iter().chain(b.iter()).copied().collect();
        let mut merged: Vec<usize> = pool.iter().copied().collect();
        merged.shuffle(rng);
        merged.truncate(k);
        while merged.len() < k {
            let cand = rng.gen_range(0..n);
            if !merged.contains(&cand) {
                merged.push(cand);
            }
            pool.insert(cand);
        }
        merged.sort_unstable();
        merged
    }

    fn mutate(ind: &mut Individual, n: usize, rng: &mut ChaCha8Rng, rate: f64) {
        if ind.len() >= n {
            return; // every feature is selected: nothing to swap in
        }
        for slot in 0..ind.len() {
            if rng.gen_bool(rate) {
                loop {
                    let cand = rng.gen_range(0..n);
                    if !ind.contains(&cand) {
                        ind[slot] = cand;
                        break;
                    }
                }
            }
        }
        ind.sort_unstable();
    }

    /// Run the GA; returns the best subset found and its fitness.
    /// `fitness` is maximized and must be deterministic.
    pub fn select_features(
        &self,
        n_features: usize,
        k: usize,
        fitness: impl Fn(&[usize]) -> f64 + Sync,
    ) -> (Vec<usize>, f64) {
        assert!(k <= n_features, "cannot select {k} of {n_features}");
        let p = self.params;
        let mut ga_span = irnuma_obs::span!(
            "ml.ga",
            population = p.population,
            generations = p.generations,
            features = n_features,
            k = k
        );
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        let mut pop: Vec<Individual> =
            (0..p.population).map(|_| Self::random_individual(n_features, k, &mut rng)).collect();

        // Memoized parallel evaluation. Elitism re-submits the best
        // individual every generation and crossover/mutation frequently
        // reproduce subsets seen before, so only *new* genomes pay the
        // fitness call: duplicates are deduplicated within the generation
        // (first-seen order keeps the parallel map's work list — and hence
        // the result — deterministic) and resolved from the cache across
        // generations. Sound because `fitness` must be deterministic.
        let mut cache: HashMap<Individual, f64> = HashMap::new();
        // Fitness workers adopt the GA span's context: with a trace sink
        // installed, every evaluation shows up as an `ml.ga_eval` span
        // under `ml.ga` in the forest (inert otherwise).
        let ga_ctx = ga_span.ctx();
        let eval = |pop: &[Individual], cache: &mut HashMap<Individual, f64>| -> Vec<f64> {
            use rayon::prelude::*;
            let mut fresh: Vec<&Individual> = Vec::new();
            let mut queued: HashSet<&Individual> = HashSet::new();
            for ind in pop {
                if !cache.contains_key(ind) && queued.insert(ind) {
                    fresh.push(ind);
                }
            }
            if irnuma_obs::telemetry_enabled() {
                irnuma_obs::counter!("ml.ga_fitness_evals").inc(fresh.len() as u64);
                irnuma_obs::counter!("ml.ga_fitness_cached").inc((pop.len() - fresh.len()) as u64);
            }
            let scores: Vec<f64> = fresh
                .par_iter()
                .map(|ind| {
                    let _g = irnuma_obs::span_fanout!(ga_ctx, "ml.ga_eval");
                    fitness(ind)
                })
                .collect();
            for (ind, score) in fresh.into_iter().zip(scores) {
                cache.insert(ind.clone(), score);
            }
            pop.iter().map(|ind| cache[ind]).collect()
        };

        let mut scores = eval(&pop, &mut cache);
        for _gen in 0..p.generations {
            // Elitism: keep the best individual.
            let best_i = argmax(&scores);
            let elite = pop[best_i].clone();

            let mut next: Vec<Individual> = vec![elite];
            while next.len() < p.population {
                // Tournament selection (size 2), as pyeasyga defaults.
                let pick = |rng: &mut ChaCha8Rng| -> usize {
                    let a = rng.gen_range(0..pop.len());
                    let b = rng.gen_range(0..pop.len());
                    if scores[a] >= scores[b] {
                        a
                    } else {
                        b
                    }
                };
                let pa = pick(&mut rng);
                let pb = pick(&mut rng);
                let mut child = if rng.gen_bool(p.crossover_prob) {
                    Self::crossover(&pop[pa], &pop[pb], k, n_features, &mut rng)
                } else {
                    pop[pa].clone()
                };
                Self::mutate(&mut child, n_features, &mut rng, p.mutation_rate);
                next.push(child);
            }
            pop = next;
            scores = eval(&pop, &mut cache);
        }
        let best_i = argmax(&scores);
        ga_span.field("best_fitness", scores[best_i]);
        (pop[best_i].clone(), scores[best_i])
    }
}

fn argmax(v: &[f64]) -> usize {
    v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GaParams {
        GaParams { population: 60, generations: 25, ..Default::default() }
    }

    #[test]
    fn finds_planted_informative_features() {
        // Fitness: number of selected features among the planted set.
        let planted: Vec<usize> = vec![3, 17, 42, 99, 123];
        let ga = Ga::new(small());
        let (best, score) = ga.select_features(128, 5, |sel| {
            sel.iter().filter(|f| planted.contains(f)).count() as f64
        });
        assert!(score >= 4.0, "found {best:?} (score {score})");
    }

    #[test]
    fn selecting_every_feature_terminates() {
        let (best, _) = Ga::new(small()).select_features(6, 6, |sel| sel.len() as f64);
        assert_eq!(best, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn respects_subset_size_and_uniqueness() {
        let ga = Ga::new(small());
        let (best, _) = ga.select_features(64, 10, |sel| {
            // Any deterministic fitness.
            sel.iter().map(|&f| (f % 7) as f64).sum()
        });
        assert_eq!(best.len(), 10);
        let mut dedup = best.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "indices are distinct (sorted by construction)");
        assert!(best.iter().all(|&f| f < 64));
    }

    #[test]
    fn deterministic_given_seed() {
        let ga = Ga::new(small());
        let f = |sel: &[usize]| sel.iter().map(|&v| ((v * 37) % 11) as f64).sum::<f64>();
        let a = ga.select_features(96, 6, f);
        let b = ga.select_features(96, 6, f);
        assert_eq!(a, b);
    }

    #[test]
    fn memoization_never_reevaluates_a_seen_genome() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let ga = Ga::new(small());
        let f = |sel: &[usize]| {
            calls.fetch_add(1, Ordering::Relaxed);
            sel.iter().map(|&v| ((v * 37) % 11) as f64).sum::<f64>()
        };
        let (best, score) = ga.select_features(96, 6, f);
        // 60 individuals × (1 initial + 25 generations) submissions; elitism
        // alone guarantees repeats, so the cache must absorb a good chunk.
        let submitted = 60 * 26;
        let evaluated = calls.load(Ordering::Relaxed);
        assert!(evaluated < submitted, "{evaluated} fitness calls for {submitted} submissions");
        // Caching must not change the outcome.
        let plain = |sel: &[usize]| sel.iter().map(|&v| ((v * 37) % 11) as f64).sum::<f64>();
        assert_eq!((best, score), ga.select_features(96, 6, plain));
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversized_subset_panics() {
        Ga::new(small()).select_features(4, 10, |_| 0.0);
    }
}
