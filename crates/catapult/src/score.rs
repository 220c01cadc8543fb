//! Pattern scoring (Def. 2.1 and §6.1).
//!
//! CATAPULT's score: `s_p = ccov(p, cw, C) × lcov(p, D) × div(p, P\p) /
//! cog(p)`. MIDAS's adaptation `s'_p` replaces cluster coverage with
//! subgraph coverage (computed in `midas-core` via the indices) and uses
//! the tightened GED bound for diversity; the multiplicative combination
//! here is shared by both.

use midas_cluster::ClusterSet;
use midas_graph::ged::ged_tight_lower_bound;
use midas_graph::isomorphism::is_subgraph_of;
use midas_graph::{Csr, LabeledGraph, MatchKernel, MatchPlan};
use midas_mining::EdgeCatalog;
use std::collections::BTreeSet;

/// The four multiplicative components of a pattern score.
#[derive(Debug, Clone, Copy)]
pub struct PatternScoreParts {
    /// Coverage: `ccov` (CATAPULT, Def. 2.1) or `scov` (MIDAS, §6.1).
    pub coverage: f64,
    /// Label coverage `lcov(p, D)`.
    pub lcov: f64,
    /// Diversity `div(p, P \ p)`.
    pub div: f64,
    /// Cognitive load `cog(p)`.
    pub cog: f64,
}

/// Combines the parts into the multiplicative score. A zero cognitive load
/// (impossible for patterns with edges) is clamped to avoid division by
/// zero.
pub fn pattern_score(parts: PatternScoreParts) -> f64 {
    parts.coverage * parts.lcov * parts.div / parts.cog.max(f64::MIN_POSITIVE)
}

/// Cluster coverage `ccov(p, cw, C) = Σ cw_i · I_i` (Def. 2.1) over the
/// clusters of one selection run: `cw_i = |C_i| / |D|` and `I_i = 1` iff
/// the CSG of `C_i` contains a subgraph isomorphic to `p` (tested on the
/// CSG's labeled projection).
///
/// The clusters are fixed while selection runs, so each projection is
/// built into a [`Csr`] once, next to its weight, and every candidate is
/// matched against all of them through its compiled [`MatchPlan`].
#[derive(Debug)]
pub struct CcovTable {
    /// Per cluster, in [`ClusterSet::iter`] order: `(cw_i, projection)`.
    projections: Vec<(f64, Csr)>,
}

impl CcovTable {
    /// Builds the table for `clusters` over a database of `db_len` graphs.
    pub fn build(clusters: &ClusterSet, db_len: usize) -> Self {
        let projections = clusters
            .iter()
            .map(|(_, c)| {
                let weight = c.len() as f64 / db_len as f64;
                (weight, Csr::from_graph(&c.csg().to_labeled_graph().0))
            })
            .collect();
        CcovTable { projections }
    }

    /// The `(cw_i, projection)` pairs, in summation order.
    pub fn projections(&self) -> &[(f64, Csr)] {
        &self.projections
    }

    /// `ccov` of the pattern `plan` was compiled from: the weights of the
    /// containing projections, summed in table order.
    pub fn ccov(&self, plan: &MatchPlan) -> f64 {
        self.projections
            .iter()
            .filter(|(_, projection)| plan.is_subgraph_of(projection))
            .map(|(weight, _)| *weight)
            .sum()
    }
}

/// Label coverage of a pattern: `|⋃_{e ∈ p} L(e, D)| / |D|` — the fraction
/// of data graphs containing at least one edge label of `p` (§2.2).
pub fn lcov_pattern(pattern: &LabeledGraph, catalog: &EdgeCatalog, db_len: usize) -> f64 {
    if db_len == 0 {
        return 0.0;
    }
    let mut union: BTreeSet<midas_graph::GraphId> = BTreeSet::new();
    for label in pattern.edge_labels().collect::<BTreeSet<_>>() {
        if let Some(stats) = catalog.get(label) {
            union.extend(stats.support.iter().copied());
        }
    }
    union.len() as f64 / db_len as f64
}

/// Diversity `div(p, P \ p) = min GED'_l(p, p_i)` (§2.2, §6.1), with the
/// graph-level tightened bound. An empty reference set yields the neutral
/// value 1.0 (first pattern selected).
pub fn diversity(pattern: &LabeledGraph, others: &[LabeledGraph]) -> f64 {
    others
        .iter()
        .map(|p| ged_tight_lower_bound(pattern, p) as f64)
        .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
        .unwrap_or(1.0)
}

/// Pattern-set level quality `f` measures (§2.2): used by experiments and
/// by the swap criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetQuality {
    /// `f_scov(P)`: fraction of data graphs covered by at least one pattern.
    pub scov: f64,
    /// `f_lcov(P)`: fraction of data graphs containing at least one pattern
    /// edge label.
    pub lcov: f64,
    /// `f_div(P)`: minimum pairwise diversity.
    pub div: f64,
    /// `f_cog(P)`: maximum cognitive load.
    pub cog: f64,
}

/// Computes the set-level quality over an explicit universe of graphs.
pub fn set_quality(
    patterns: &[LabeledGraph],
    db: &midas_graph::GraphDb,
    catalog: &EdgeCatalog,
    universe: &BTreeSet<midas_graph::GraphId>,
) -> SetQuality {
    set_quality_impl(patterns, db, catalog, universe, None)
}

/// [`set_quality`] with the `f_scov` containment scan routed through a
/// parallel + memoized kernel. Identical result, much cheaper when the same
/// patterns are evaluated over overlapping universes batch after batch.
pub fn set_quality_with(
    kernel: &MatchKernel,
    patterns: &[LabeledGraph],
    db: &midas_graph::GraphDb,
    catalog: &EdgeCatalog,
    universe: &BTreeSet<midas_graph::GraphId>,
) -> SetQuality {
    set_quality_impl(patterns, db, catalog, universe, Some(kernel))
}

fn set_quality_impl(
    patterns: &[LabeledGraph],
    db: &midas_graph::GraphDb,
    catalog: &EdgeCatalog,
    universe: &BTreeSet<midas_graph::GraphId>,
    kernel: Option<&MatchKernel>,
) -> SetQuality {
    let denom = universe.len().max(1) as f64;
    let covered = match kernel {
        Some(kernel) => {
            let graphs: Vec<(midas_graph::GraphId, &LabeledGraph)> = universe
                .iter()
                .map(|&id| (id, db.get(id).expect("live id").as_ref()))
                .collect();
            let prepared: Vec<midas_graph::CachedPattern> =
                patterns.iter().map(|p| kernel.prepare(p)).collect();
            kernel
                .any_covered_in(&prepared, &graphs)
                .into_iter()
                .filter(|&hit| hit)
                .count()
        }
        None => universe
            .iter()
            .filter(|&&id| {
                let g = db.get(id).expect("live id");
                patterns.iter().any(|p| is_subgraph_of(p, g))
            })
            .count(),
    };
    let mut label_union: BTreeSet<midas_graph::GraphId> = BTreeSet::new();
    for p in patterns {
        for label in p.edge_labels() {
            if let Some(stats) = catalog.get(label) {
                label_union.extend(stats.support.intersection(universe).copied());
            }
        }
    }
    let div = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let others: Vec<LabeledGraph> = patterns
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| q.clone())
                .collect();
            diversity(p, &others)
        })
        .fold(f64::INFINITY, f64::min);
    let cog = patterns
        .iter()
        .map(|p| p.cognitive_load())
        .fold(0.0, f64::max);
    SetQuality {
        scov: covered as f64 / denom,
        lcov: label_union.len() as f64 / denom,
        div: if div.is_finite() { div } else { 0.0 },
        cog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cluster::{ClusterConfig, FeatureSpace};
    use midas_graph::{GraphBuilder, GraphDb, GraphId};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn sample_db() -> GraphDb {
        GraphDb::from_graphs([
            path(&[0, 1, 2]),
            path(&[0, 1, 2]),
            path(&[0, 1]),
            path(&[3, 4, 3]),
        ])
    }

    fn clusters(db: &GraphDb) -> ClusterSet {
        let graphs: Vec<_> = db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let lattice = mine_lattice(
            &graphs,
            &MiningConfig {
                sup_min: 0.25,
                max_edges: 3,
            },
        );
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: 2,
                ..ClusterConfig::default()
            },
        )
    }

    #[test]
    fn ccov_sums_matching_cluster_weights() {
        let db = sample_db();
        let set = clusters(&db);
        let table = CcovTable::build(&set, db.len());
        let ccov = |p: &LabeledGraph| table.ccov(&MatchPlan::compile(p));
        // C-O edge appears in the C-O-N cluster's CSG only.
        let got = ccov(&path(&[0, 1]));
        assert!((got - 0.75).abs() < 1e-12, "got {got}");
        // S-P in the other cluster (1 graph).
        assert!((ccov(&path(&[3, 4])) - 0.25).abs() < 1e-12);
        // Absent label: zero.
        assert_eq!(ccov(&path(&[7, 7])), 0.0);
        // One weight per cluster, summing to the clustered share of D.
        let weights: f64 = table.projections().iter().map(|(w, _)| w).sum();
        assert_eq!(table.projections().len(), set.len());
        assert!((weights - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lcov_unions_edge_supports() {
        let db = sample_db();
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        // Pattern with C-O edge: 3 of 4 graphs have the label.
        assert!((lcov_pattern(&path(&[0, 1]), &catalog, db.len()) - 0.75).abs() < 1e-12);
        // Pattern with both C-O and S-P: union is all 4.
        let mixed = GraphBuilder::new()
            .vertices(&[0, 1, 3, 4])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build();
        assert!((lcov_pattern(&mixed, &catalog, db.len()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_minimum_and_default() {
        let p = path(&[0, 1]);
        assert_eq!(diversity(&p, &[]), 1.0);
        let others = vec![path(&[0, 1]), path(&[3, 4, 3])];
        assert_eq!(diversity(&p, &others), 0.0, "identical pattern in set");
        let others2 = vec![path(&[0, 1, 2])];
        assert!(diversity(&p, &others2) > 0.0);
    }

    #[test]
    fn score_is_multiplicative() {
        let parts = PatternScoreParts {
            coverage: 0.5,
            lcov: 0.8,
            div: 2.0,
            cog: 4.0,
        };
        assert!((pattern_score(parts) - 0.2).abs() < 1e-12);
        let zero_cog = PatternScoreParts { cog: 0.0, ..parts };
        assert!(pattern_score(zero_cog).is_finite() || pattern_score(zero_cog) > 0.0);
    }

    #[test]
    fn set_quality_measures() {
        let db = sample_db();
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let patterns = vec![path(&[0, 1]), path(&[3, 4])];
        let q = set_quality(&patterns, &db, &catalog, &universe);
        assert!((q.scov - 1.0).abs() < 1e-12, "all graphs covered");
        assert!((q.lcov - 1.0).abs() < 1e-12);
        assert!(q.div > 0.0);
        assert!(q.cog > 0.0);
        // Empty pattern set: zero coverage, zero div, zero cog.
        let empty = set_quality(&[], &db, &catalog, &universe);
        assert_eq!(empty.scov, 0.0);
        assert_eq!(empty.cog, 0.0);
    }
}
