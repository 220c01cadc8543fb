//! Property tests for the bookkeeping structures: closure graphs (CSG
//! maintenance §4.4), the index matrices (§5.1), and the swap guarantees
//! (§6.2).

use midas_cluster::{fine_cluster, ClusterConfig, ClusterId, ClusterSet, FeatureSpace};
use midas_core::candidate_gen::{coverage_state, Candidate};
use midas_core::metrics::ScovContext;
use midas_core::patterns::PatternStore;
use midas_core::swap::{multi_scan_swap, ScoreTable, SwapOutcome, SwapParams, SwapScope};
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::{mine_lattice, EdgeCatalog, MiningConfig, TreeLattice};
use midas_tests::connected_graph_strategy;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Covers the store and `candidates` over `sample` (serial context), then
/// runs the multi-scan swap with default parameters.
fn covered_swap(
    store: &mut PatternStore,
    candidates: Vec<LabeledGraph>,
    db: &GraphDb,
    catalog: &EdgeCatalog,
    sample: &BTreeSet<GraphId>,
    fct: &mut FctIndex,
    ife: &mut IfeIndex,
) -> SwapOutcome {
    let ctx = ScovContext {
        fct,
        ife,
        db,
        sample,
        catalog,
        kernel: None,
    };
    let state = coverage_state(store, &ctx);
    let candidates: Vec<Candidate> = candidates
        .into_iter()
        .map(|graph| Candidate {
            covered: ctx.covered(&graph),
            graph,
        })
        .collect();
    let scope = SwapScope {
        sample,
        catalog,
        db_len: db.len(),
        pattern_covered: &state.covered,
    };
    multi_scan_swap(store, candidates, &scope, &SwapParams::default(), fct, ife)
}

/// Adds `id` to the support of every lattice tree it contains, as
/// incremental mining does before clusters see an insertion.
fn extend_supports(lattice: &mut TreeLattice, id: GraphId, graph: &LabeledGraph) {
    let keys: Vec<_> = lattice.iter().map(|(k, _)| k.clone()).collect();
    for key in keys {
        let entry = lattice.get(&key).expect("listed key");
        if midas_graph::isomorphism::is_subgraph_of(&entry.tree, graph) {
            let mut entry = entry.clone();
            entry.support.insert(id);
            lattice.insert(key, entry);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSG insert/remove round-trips: removing everything that was added
    /// after a base set restores the base edge structure (§4.4's edge
    /// support discipline).
    #[test]
    fn closure_graph_roundtrip(
        base in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
        extra in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
    ) {
        let mut csg = ClosureGraph::new();
        for (i, g) in base.iter().enumerate() {
            csg.insert_graph(GraphId(i as u64), g);
        }
        let snapshot: Vec<(u32, u32, Vec<GraphId>)> = csg
            .edges()
            .map(|(u, v, s)| (u, v, s.iter().copied().collect()))
            .collect();
        let member_snapshot = csg.members().clone();
        for (i, g) in extra.iter().enumerate() {
            csg.insert_graph(GraphId(100 + i as u64), g);
        }
        for (i, g) in extra.iter().enumerate() {
            csg.remove_graph(GraphId(100 + i as u64), g);
        }
        let back: Vec<(u32, u32, Vec<GraphId>)> = csg
            .edges()
            .map(|(u, v, s)| (u, v, s.iter().copied().collect()))
            .collect();
        prop_assert_eq!(snapshot, back);
        prop_assert_eq!(member_snapshot, csg.members().clone());
    }

    /// Every member graph's edges appear in its CSG with that member in
    /// the support set (§4.4 step 1 invariant).
    #[test]
    fn closure_graph_supports_cover_members(
        graphs in proptest::collection::vec(connected_graph_strategy(5, 3), 1..5),
    ) {
        let refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u64), g))
            .collect();
        let csg = ClosureGraph::from_graphs(refs.iter().copied());
        for &(id, g) in &refs {
            let supported_edges = csg
                .edges()
                .filter(|(_, _, s)| s.contains(&id))
                .count();
            prop_assert_eq!(
                supported_edges,
                g.edge_count(),
                "member {} must support exactly its own edge count", id
            );
        }
    }

    /// Index graph columns: adding then removing a graph leaves the
    /// matrices untouched (§5.1 rules 3–4).
    #[test]
    fn index_graph_column_roundtrip(
        feature in connected_graph_strategy(3, 2),
        graphs in proptest::collection::vec(connected_graph_strategy(5, 2), 1..4),
        newcomer in connected_graph_strategy(5, 2),
    ) {
        // Only tree-shaped features are meaningful; skip others.
        prop_assume!(midas_mining::canonical::is_tree(&feature));
        let refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u64), g))
            .collect();
        let mut index = FctIndex::build(
            [(midas_mining::tree_key(&feature), &feature)],
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let before: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        index.add_graph(GraphId(999), &newcomer);
        index.remove_graph(GraphId(999));
        let after: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        prop_assert_eq!(before, after);
    }

    /// The swap never decreases sample-level coverage, diversity or label
    /// coverage, and never increases cognitive load (sw1–sw5 as a
    /// property).
    #[test]
    fn swap_quality_monotonicity(
        db_graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 4..10),
        initial in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
        candidates in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(db_graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let mut fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut store = PatternStore::new();
        for p in initial {
            store.insert(p);
        }
        prop_assume!(!store.is_empty());
        let before = midas_core::quality_of(&store.graphs(), &db, &catalog, &sample);
        covered_swap(&mut store, candidates, &db, &catalog, &sample, &mut fct, &mut ife);
        let after = midas_core::quality_of(&store.graphs(), &db, &catalog, &sample);
        prop_assert!(after.scov >= before.scov - 1e-9, "sw1: {} -> {}", before.scov, after.scov);
        prop_assert!(after.div >= before.div - 1e-9, "sw3: {} -> {}", before.div, after.div);
        prop_assert!(after.cog <= before.cog + 1e-9, "sw4: {} -> {}", before.cog, after.cog);
        prop_assert!(after.lcov >= before.lcov - 1e-9, "sw5: {} -> {}", before.lcov, after.lcov);
    }

    /// Pattern-store size is invariant under swapping (γ preservation).
    #[test]
    fn swap_preserves_gamma(
        db_graphs in proptest::collection::vec(connected_graph_strategy(5, 2), 3..7),
        candidates in proptest::collection::vec(connected_graph_strategy(4, 2), 1..4),
    ) {
        let db = GraphDb::from_graphs(db_graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let mut fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut store = PatternStore::new();
        store.insert(midas_tests::path(&[0, 1, 0]));
        store.insert(midas_tests::path(&[1, 0, 1]));
        let gamma = store.len();
        covered_swap(&mut store, candidates, &db, &catalog, &sample, &mut fct, &mut ife);
        prop_assert_eq!(store.len(), gamma);
    }

    /// The swap's scoring table and GED matrix derive the same set-level
    /// `(div, cog, lcov)` as `set_quality`, field for field, for random
    /// pattern subsets over a random sample.
    #[test]
    fn score_table_set_measures_match_set_quality(
        db_graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..9),
        patterns in proptest::collection::vec(connected_graph_strategy(5, 3), 0..6),
        sample_mask in proptest::collection::vec(0..2u8, 9),
        subset_mask in proptest::collection::vec(0..2u8, 6),
    ) {
        let db = GraphDb::from_graphs(db_graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db
            .ids()
            .zip(&sample_mask)
            .filter(|&(_, &keep)| keep == 1)
            .map(|(id, _)| id)
            .collect();
        let mut table = ScoreTable::new(&sample, &catalog, db.len(), None);
        let entries: Vec<usize> = patterns.iter().map(|p| table.push(p.clone(), 0)).collect();
        let (subset, members): (Vec<LabeledGraph>, Vec<usize>) = patterns
            .iter()
            .zip(&entries)
            .zip(&subset_mask)
            .filter(|&(_, &keep)| keep == 1)
            .map(|((p, &i), _)| (p.clone(), i))
            .unzip();
        let q = midas_catapult::score::set_quality(&subset, &db, &catalog, &sample);
        prop_assert_eq!(table.set_measures(&members), (q.div, q.cog, q.lcov));
    }

    /// Splits that reuse each cluster's kept seed similarities form the
    /// same clusters, seeds and similarities as fine-clustering the
    /// pre-split members from scratch, over random assign/remove
    /// sequences; kept similarities never outnumber the members.
    #[test]
    fn cluster_splits_match_from_scratch_fine_clustering(
        base in proptest::collection::vec(connected_graph_strategy(5, 3), 2..6),
        ops in proptest::collection::vec((0..3u8, connected_graph_strategy(6, 3), 0..64usize), 1..16),
    ) {
        let mut db = GraphDb::from_graphs(base);
        let graphs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let mining = MiningConfig { sup_min: 0.3, max_edges: 2 };
        let mut lattice = mine_lattice(&graphs, &mining);
        let space = FeatureSpace::from_frequent(&lattice, mining.sup_min, db.len());
        let config = ClusterConfig {
            coarse_clusters: 1,
            max_cluster_size: 3,
            threads: 1,
            ..ClusterConfig::default()
        };
        let mut set = ClusterSet::build(&db, &lattice, space, config);
        for (op, graph, pick) in ops {
            if op == 0 {
                let live: Vec<GraphId> = db.ids().collect();
                if let Some(&id) = live.get(pick % live.len().max(1)) {
                    let gone = db.remove(id).expect("live id");
                    set.remove(id, &gone);
                }
                continue;
            }
            let id = db.insert(graph);
            let graph = db.get(id).expect("inserted").clone();
            extend_supports(&mut lattice, id, &graph);
            let before: BTreeMap<ClusterId, BTreeSet<GraphId>> =
                set.iter().map(|(cid, c)| (cid, c.members().clone())).collect();
            let affected = set.assign(&db, &lattice, id, &graph);
            if affected.len() < 2 {
                continue;
            }
            let (_, mut members) = before
                .into_iter()
                .find(|(cid, _)| set.get(*cid).is_none())
                .expect("the split cluster is replaced");
            members.insert(id);
            let with_graphs: Vec<(GraphId, &LabeledGraph)> = members
                .iter()
                .map(|&m| (m, db.get(m).expect("live member").as_ref()))
                .collect();
            let want: Vec<_> = fine_cluster(&with_graphs, None, 3, config.mccs_budget, 1)
                .into_iter()
                .map(|g| (g.members.into_iter().collect::<BTreeSet<_>>(), g.seed))
                .collect();
            let got: Vec<_> = affected
                .iter()
                .map(|&cid| {
                    let c = set.get(cid).expect("affected cluster");
                    (c.members().clone(), c.seed_similarities().cloned())
                })
                .collect();
            prop_assert_eq!(got, want);
        }
        let kept: usize = set
            .iter()
            .filter_map(|(_, c)| c.seed_similarities())
            .map(|s| s.sims.len())
            .sum();
        prop_assert!(kept <= set.total_members());
    }
}
