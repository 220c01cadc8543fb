//! The CATAPULT greedy selection loop (§2.3).
//!
//! Each round: random walks refresh edge-traversal statistics on every
//! weighted CSG; FCPs are proposed per pattern size; the candidate with the
//! highest pattern score (Def. 2.1) joins `P`; the CSG weights are updated
//! multiplicatively \[7\]. Selection stops at `γ` patterns or when no new
//! pattern can be found, honouring the per-size cap
//! `⌈γ / (η_max − η_min + 1)⌉` of Def. 3.1.

use crate::candidates::generate_candidates;
use crate::random_walk::random_walks;
use crate::score::{diversity, lcov_pattern, pattern_score, CcovTable, PatternScoreParts};
use crate::weights::WeightedCsg;
use midas_cluster::ClusterSet;
use midas_graph::{CanonicalCode, LabeledGraph, MatchPlan};
use midas_mining::EdgeCatalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The pattern budget `b = (η_min, η_max, γ)` (Def. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternBudget {
    /// Minimum pattern size in edges (> 2 per Def. 3.1).
    pub eta_min: usize,
    /// Maximum pattern size in edges.
    pub eta_max: usize,
    /// Number of patterns displayed on the GUI.
    pub gamma: usize,
}

impl Default for PatternBudget {
    /// The paper's defaults: `η_min = 3`, `η_max = 12`, `γ = 30` (§7.1).
    fn default() -> Self {
        PatternBudget {
            eta_min: 3,
            eta_max: 12,
            gamma: 30,
        }
    }
}

impl PatternBudget {
    /// The per-size cap `⌈γ / (η_max − η_min + 1)⌉`.
    pub fn per_size_cap(&self) -> usize {
        self.gamma.div_ceil(self.eta_max - self.eta_min + 1)
    }
}

/// Selection parameters.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// The pattern budget.
    pub budget: PatternBudget,
    /// Random walks per CSG per round (`x`; the paper's example uses 100).
    pub walks: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Seed ranks tried per (CSG, size) when proposing candidates.
    pub seeds_per_size: usize,
    /// Multiplicative-weights penalty factor applied after each selection.
    pub mwu_penalty: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            budget: PatternBudget::default(),
            walks: 100,
            walk_length: 24,
            seeds_per_size: 3,
            mwu_penalty: 0.5,
            seed: 0,
        }
    }
}

/// Runs CATAPULT's canned pattern selection over the given clusters.
///
/// Returns at most `γ` patterns, deduplicated up to isomorphism. The same
/// routine backs the CATAPULT++ baseline (the clustering feature basis is
/// decided by the caller).
///
/// `ccov` and `lcov` depend only on a candidate's isomorphism class (the
/// clusters and the edge catalog are fixed while selection runs), so each
/// class is scored once per run and every repeat reads the memo.
pub fn select_patterns(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
) -> Vec<LabeledGraph> {
    select(clusters, catalog, db_len, config, true)
}

/// [`select_patterns`] with every candidate scored afresh instead of
/// through the per-class memo: the reference the property tests hold the
/// memo to. Same output, slower.
pub fn select_patterns_unmemoized(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
) -> Vec<LabeledGraph> {
    select(clusters, catalog, db_len, config, false)
}

fn select(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
    memoize: bool,
) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut csgs: Vec<WeightedCsg> = clusters
        .iter()
        .map(|(_, c)| WeightedCsg::build(c.csg(), catalog, db_len))
        .collect();
    let table = CcovTable::build(clusters, db_len);
    // Per isomorphism class: `(ccov, lcov)`.
    let mut memo: HashMap<CanonicalCode, (f64, f64)> = HashMap::new();
    let (mut scored, mut reused) = (0u64, 0u64);
    let mut patterns: Vec<LabeledGraph> = Vec::new();
    let mut seen: BTreeSet<CanonicalCode> = BTreeSet::new();
    let mut per_size: BTreeMap<usize, usize> = BTreeMap::new();
    let cap = config.budget.per_size_cap();
    let max_rounds = config.budget.gamma * 4;

    for _ in 0..max_rounds {
        if patterns.len() >= config.budget.gamma {
            break;
        }
        // Propose candidates from every CSG and admissible size.
        let mut best: Option<(f64, LabeledGraph, CanonicalCode, usize)> = None;
        for (ci, csg) in csgs.iter().enumerate() {
            let stats = random_walks(csg, config.walks, config.walk_length, &mut rng);
            for size in config.budget.eta_min..=config.budget.eta_max {
                if per_size.get(&size).copied().unwrap_or(0) >= cap {
                    continue;
                }
                let mut no_hook = |_: &[(u32, u32)], _: (u32, u32)| true;
                let candidates =
                    generate_candidates(csg, &stats, size, config.seeds_per_size, &mut no_hook);
                for (candidate, code) in candidates {
                    if seen.contains(&code) {
                        continue;
                    }
                    let (coverage, lcov) = match memo.get(&code) {
                        Some(&known) => {
                            reused += 1;
                            known
                        }
                        None => {
                            scored += 1;
                            let fresh = (
                                table.ccov(&MatchPlan::compile(&candidate)),
                                lcov_pattern(&candidate, catalog, db_len),
                            );
                            if memoize {
                                memo.insert(code.clone(), fresh);
                            }
                            fresh
                        }
                    };
                    let parts = PatternScoreParts {
                        coverage,
                        lcov,
                        div: diversity(&candidate, &patterns),
                        cog: candidate.cognitive_load(),
                    };
                    let score = pattern_score(parts);
                    if best.as_ref().is_none_or(|(b, ..)| score > *b) {
                        best = Some((score, candidate, code, ci));
                    }
                }
            }
        }
        let Some((_, chosen, code, source)) = best else {
            break; // no new pattern can be found
        };
        seen.insert(code);
        *per_size.entry(chosen.edge_count()).or_insert(0) += 1;
        csgs[source].penalize(&chosen, config.mwu_penalty);
        patterns.push(chosen);
    }
    midas_obs::counter_add!("catapult.scored", scored);
    midas_obs::counter_add!("catapult.score_reused", reused);
    midas_obs::obs_info!(
        "catapult::select",
        "selected {} of γ = {} patterns from {} clusters ({scored} classes scored, {reused} repeats reused)",
        patterns.len(),
        config.budget.gamma,
        clusters.len()
    );
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cluster::{ClusterConfig, FeatureSpace};
    use midas_graph::{GraphBuilder, GraphDb};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn build_world(db: &GraphDb) -> (ClusterSet, EdgeCatalog) {
        let graphs: Vec<_> = db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let lattice = mine_lattice(
            &graphs,
            &MiningConfig {
                sup_min: 0.25,
                max_edges: 3,
            },
        );
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        let clusters = ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: 2,
                ..ClusterConfig::default()
            },
        );
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        (clusters, catalog)
    }

    fn chain_db() -> GraphDb {
        // Long chains so size-3 patterns exist.
        GraphDb::from_graphs((0..8).map(|i| path(&[0, 1, 2, 0, 1, (i % 3) as u32])))
    }

    #[test]
    fn selects_up_to_gamma_patterns() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 4,
                gamma: 3,
            },
            seed: 1,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        assert!(!patterns.is_empty());
        assert!(patterns.len() <= 3);
        for p in &patterns {
            assert!(p.is_connected());
            assert!((3..=4).contains(&p.edge_count()));
        }
    }

    #[test]
    fn patterns_are_pairwise_nonisomorphic() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 5,
                gamma: 6,
            },
            seed: 2,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        for i in 0..patterns.len() {
            for j in i + 1..patterns.len() {
                assert!(
                    !midas_graph::canonical::are_isomorphic(&patterns[i], &patterns[j]),
                    "patterns {i} and {j} are isomorphic"
                );
            }
        }
    }

    #[test]
    fn per_size_cap_is_respected() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let budget = PatternBudget {
            eta_min: 3,
            eta_max: 4,
            gamma: 4,
        };
        assert_eq!(budget.per_size_cap(), 2);
        let config = SelectionConfig {
            budget,
            seed: 3,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        let mut by_size: BTreeMap<usize, usize> = BTreeMap::new();
        for p in &patterns {
            *by_size.entry(p.edge_count()).or_insert(0) += 1;
        }
        assert!(by_size.values().all(|&c| c <= 2), "{by_size:?}");
    }

    #[test]
    fn empty_database_selects_nothing() {
        let db = GraphDb::new();
        let (clusters, catalog) = build_world(&db);
        let patterns = select_patterns(&clusters, &catalog, 0, &SelectionConfig::default());
        assert!(patterns.is_empty());
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 4,
                gamma: 3,
            },
            seed: 7,
            ..SelectionConfig::default()
        };
        let a = select_patterns(&clusters, &catalog, db.len(), &config);
        let b = select_patterns(&clusters, &catalog, db.len(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_default_matches_paper() {
        let b = PatternBudget::default();
        assert_eq!((b.eta_min, b.eta_max, b.gamma), (3, 12, 30));
        assert_eq!(b.per_size_cap(), 3);
    }
}
