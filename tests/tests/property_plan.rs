//! Property tests for the plan-compiled matcher: on random connected
//! (pattern, target) pairs the plan interpreter over CSR label slices
//! must agree exactly with the serial VF2 reference — counts at every
//! cap, coverage booleans, full embedding sets, and the kernel routed
//! through either matcher. CATAPULT selection's `ccov` table, which
//! matches plans against cluster CSG projections, must agree bit for bit
//! with a VF2 sum, and its per-class memo must not change the selection.

use midas_catapult::select::select_patterns_unmemoized;
use midas_catapult::{select_patterns, CcovTable, PatternBudget, SelectionConfig};
use midas_cluster::{ClusterConfig, ClusterSet, FeatureSpace};
use midas_graph::isomorphism::{count_embeddings, find_embeddings, is_subgraph_of};
use midas_graph::plan::{count_embeddings_plan, find_embeddings_plan, is_subgraph_plan};
use midas_graph::{Csr, GraphDb, GraphId, LabeledGraph, MatchKernel, MatchPlan, MatcherKind};
use midas_mining::{mine_lattice, EdgeCatalog, MiningConfig};
use midas_tests::connected_graph_strategy;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A database over `graphs`, clustered into clusters of at most three
/// graphs (so there are several CSGs), with its edge catalog.
fn cluster_world(graphs: Vec<LabeledGraph>) -> (GraphDb, ClusterSet, EdgeCatalog) {
    let db = GraphDb::from_graphs(graphs);
    let refs: Vec<(GraphId, &LabeledGraph)> = db.iter().map(|(id, g)| (id, g.as_ref())).collect();
    let mining = MiningConfig {
        sup_min: 0.3,
        max_edges: 2,
    };
    let lattice = mine_lattice(&refs, &mining);
    let space = FeatureSpace::from_frequent(&lattice, mining.sup_min, db.len());
    let config = ClusterConfig {
        coarse_clusters: 2,
        max_cluster_size: 3,
        threads: 1,
        ..ClusterConfig::default()
    };
    let clusters = ClusterSet::build(&db, &lattice, space, config);
    let catalog = EdgeCatalog::build(refs.iter().copied());
    (db, clusters, catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Capped counts agree at a spread of caps, including the degenerate
    /// cap 1 (containment) and an effectively unbounded cap.
    #[test]
    fn plan_counts_match_vf2(
        pattern in connected_graph_strategy(6, 3),
        target in connected_graph_strategy(9, 3),
    ) {
        for cap in [1, 2, 64, u64::MAX] {
            prop_assert_eq!(
                count_embeddings_plan(&pattern, &target, cap),
                count_embeddings(&pattern, &target, cap),
                "cap {}", cap
            );
        }
    }

    /// Coverage booleans agree, in both directions of the pair.
    #[test]
    fn plan_coverage_matches_vf2(
        a in connected_graph_strategy(6, 3),
        b in connected_graph_strategy(7, 3),
    ) {
        prop_assert_eq!(is_subgraph_plan(&a, &b), is_subgraph_of(&a, &b));
        prop_assert_eq!(is_subgraph_plan(&b, &a), is_subgraph_of(&b, &a));
    }

    /// Both matchers enumerate in the pattern's own vertex numbering, so
    /// the embedding *sets* (order-free) must be identical.
    #[test]
    fn plan_embedding_sets_match_vf2(
        pattern in connected_graph_strategy(5, 3),
        target in connected_graph_strategy(7, 3),
    ) {
        let reference: BTreeSet<Vec<u32>> =
            find_embeddings(&pattern, &target, 10_000).into_iter().collect();
        let plan: BTreeSet<Vec<u32>> =
            find_embeddings_plan(&pattern, &target, 10_000).into_iter().collect();
        prop_assert_eq!(plan, reference);
    }

    /// The CSR twin reproduces the adjacency structure it was built from:
    /// same labels, same degrees, `has_edge` agreeing with the edge list,
    /// and per-label neighbor slices partitioning the neighborhood.
    #[test]
    fn csr_round_trips_random_graphs(g in connected_graph_strategy(8, 4)) {
        let csr = Csr::from_graph(&g);
        prop_assert_eq!(csr.vertex_count(), g.vertex_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(csr.label(v), g.label(v));
            prop_assert_eq!(csr.degree(v), g.neighbors(v).len());
            let mut want: Vec<u32> = g.neighbors(v).to_vec();
            want.sort_unstable();
            let mut got: Vec<u32> = csr.neighbors(v).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            // Per-label slices are sorted and partition the neighborhood.
            let mut by_label: Vec<u32> = Vec::new();
            let mut labels: Vec<u32> = g.neighbors(v).iter().map(|&w| g.label(w)).collect();
            labels.sort_unstable();
            labels.dedup();
            for l in labels {
                let slice = csr.neighbors_with_label(v, l);
                prop_assert!(slice.windows(2).all(|w| w[0] < w[1]));
                by_label.extend_from_slice(slice);
            }
            by_label.sort_unstable();
            let mut want: Vec<u32> = g.neighbors(v).to_vec();
            want.sort_unstable();
            prop_assert_eq!(by_label, want);
        }
        for &(u, v) in g.edges() {
            prop_assert!(csr.has_edge(u, v));
            prop_assert!(csr.has_edge(v, u));
        }
    }

    /// A kernel routed through the plan matcher and one routed through
    /// VF2 produce identical bulk results on the same inputs.
    #[test]
    fn kernels_agree_across_matchers(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let plan = MatchKernel::with_matcher(1, MatcherKind::Plan);
        let vf2 = MatchKernel::with_matcher(1, MatcherKind::Vf2);
        let refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u64), g))
            .collect();
        for p in &patterns {
            prop_assert_eq!(
                plan.count_in_graphs(p, &refs, 64),
                vf2.count_in_graphs(p, &refs, 64)
            );
            prop_assert_eq!(plan.covered_in(p, &refs), vf2.covered_in(p, &refs));
            let targets: Vec<&LabeledGraph> = graphs.iter().collect();
            prop_assert_eq!(
                plan.count_plain_many(p, &targets, u64::MAX),
                vf2.count_plain_many(p, &targets, u64::MAX)
            );
        }
        let prepared_plan: Vec<_> = patterns.iter().map(|p| plan.prepare(p)).collect();
        let prepared_vf2: Vec<_> = patterns.iter().map(|p| vf2.prepare(p)).collect();
        prop_assert_eq!(
            plan.count_grid(&prepared_plan, &refs, 64),
            vf2.count_grid(&prepared_vf2, &refs, 64)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `ccov` table (plans over per-cluster CSR projections) equals,
    /// bit for bit, the weights `|C_i| / |D|` of the CSG projections VF2
    /// finds the pattern in, summed in cluster order. Patterns are every
    /// database graph, its first one and two edges (each in at least its
    /// own cluster's CSG) and a few random graphs.
    #[test]
    fn ccov_table_matches_vf2_sum(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..10),
        extra in proptest::collection::vec(connected_graph_strategy(4, 3), 0..4),
    ) {
        let (db, clusters, _) = cluster_world(graphs);
        let table = CcovTable::build(&clusters, db.len());
        let reference: Vec<(f64, LabeledGraph)> = clusters
            .iter()
            .map(|(_, c)| (c.len() as f64 / db.len() as f64, c.csg().to_labeled_graph().0))
            .collect();
        let mut patterns = extra;
        for (_, g) in db.iter() {
            for k in 1..=2.min(g.edge_count()) {
                patterns.push(g.edge_subgraph(&g.edges()[..k]));
            }
            patterns.push(g.as_ref().clone());
        }
        for p in &patterns {
            let want: f64 = reference
                .iter()
                .filter(|(_, projection)| is_subgraph_of(p, projection))
                .map(|(weight, _)| *weight)
                .sum();
            let got = table.ccov(&MatchPlan::compile(p));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
        }
    }

    /// Reading `(ccov, lcov)` from the per-class memo selects exactly
    /// what scoring every candidate afresh selects.
    #[test]
    fn memoized_selection_matches_fresh_scoring(
        graphs in proptest::collection::vec(connected_graph_strategy(7, 3), 2..10),
        seed in 0..1_000u64,
    ) {
        let (db, clusters, catalog) = cluster_world(graphs);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 2,
                eta_max: 4,
                gamma: 5,
            },
            walks: 20,
            walk_length: 8,
            seeds_per_size: 2,
            seed,
            ..SelectionConfig::default()
        };
        prop_assert_eq!(
            select_patterns(&clusters, &catalog, db.len(), &config),
            select_patterns_unmemoized(&clusters, &catalog, db.len(), &config)
        );
    }
}
