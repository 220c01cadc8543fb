//! Index-accelerated subgraph coverage (§6.1).
//!
//! > "if a pattern `p` is contained in a graph `G`, then the corresponding
//! > column entries for `p` in TP-matrix must be smaller than or equal to
//! > that of `G` in TG-matrix."
//!
//! Given a pattern, we compute its feature-count profile (over FCTs,
//! frequent edges, and infrequent edges), intersect the graphs whose counts
//! dominate it, and only run VF2 on the survivors — exactly the
//! `(p₃, G₈), (p₃, G₉)` pruning of the paper's example.

use crate::fct_index::FctIndex;
use crate::ife_index::IfeIndex;
use crate::EMBED_CAP;
use midas_graph::isomorphism::{count_embeddings, is_subgraph_of};
use midas_graph::{EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchKernel};
use std::collections::BTreeSet;

/// A pattern's feature-count profile against the current indices.
#[derive(Debug, Clone, Default)]
pub struct PatternProfile {
    /// Counts over FCT-Index features (only non-zero entries).
    pub fct_counts: Vec<(crate::FeatureId, u32)>,
    /// Counts over tracked infrequent edges (only non-zero entries).
    pub ife_counts: Vec<(EdgeLabel, u32)>,
}

/// Computes the profile of an arbitrary (candidate) pattern by counting
/// feature embeddings directly — features are tiny, so this is cheap.
pub fn profile_pattern(fct: &FctIndex, ife: &IfeIndex, pattern: &LabeledGraph) -> PatternProfile {
    let fct_counts = fct
        .features()
        .filter_map(|(id, feature)| {
            let c = count_embeddings(&feature.tree, pattern, EMBED_CAP) as u32;
            (c > 0).then_some((id, c))
        })
        .collect();
    let ife_counts = ife
        .tracked()
        .iter()
        .filter_map(|&label| {
            let c = pattern.edge_labels().filter(|&l| l == label).count() as u32;
            (c > 0).then_some((label, c))
        })
        .collect();
    PatternProfile {
        fct_counts,
        ife_counts,
    }
}

/// Returns the ids of graphs whose index columns dominate `profile` —
/// the candidate set that still needs isomorphism verification.
///
/// `universe` bounds the candidates (e.g. a sampled database `D_s`). When
/// the profile is empty the filter is vacuous and the whole universe
/// returns. Each universe member is checked by point lookups: the sample
/// is far smaller than a matrix row, which spans the whole database.
pub fn candidate_graphs(
    fct: &FctIndex,
    ife: &IfeIndex,
    profile: &PatternProfile,
    universe: &BTreeSet<GraphId>,
) -> BTreeSet<GraphId> {
    universe
        .iter()
        .copied()
        .filter(|&id| {
            profile
                .fct_counts
                .iter()
                .all(|&(fid, need)| fct.tg().get(fid, id) >= need)
                && profile
                    .ife_counts
                    .iter()
                    .all(|&(label, need)| ife.eg().get(label, id) >= need)
        })
        .collect()
}

/// Computes the exact set of graphs in `universe` containing `pattern`,
/// using the dominance filter before VF2 verification.
pub fn covered_graphs(
    fct: &FctIndex,
    ife: &IfeIndex,
    db: &GraphDb,
    pattern: &LabeledGraph,
    universe: &BTreeSet<GraphId>,
) -> BTreeSet<GraphId> {
    let profile = profile_pattern(fct, ife, pattern);
    candidate_graphs(fct, ife, &profile, universe)
        .into_iter()
        .filter(|&id| db.get(id).is_some_and(|g| is_subgraph_of(pattern, g)))
        .collect()
}

/// Parallel + memoized form of [`covered_graphs`]: the dominance filter is
/// unchanged, the surviving candidates are verified through `kernel`
/// (cached per `(pattern, GraphId)`, VF2 in parallel on misses). Always
/// returns the same set as the serial path.
pub fn covered_graphs_with(
    kernel: &MatchKernel,
    fct: &FctIndex,
    ife: &IfeIndex,
    db: &GraphDb,
    pattern: &LabeledGraph,
    universe: &BTreeSet<GraphId>,
) -> BTreeSet<GraphId> {
    let profile = profile_pattern(fct, ife, pattern);
    let candidates: Vec<(GraphId, &LabeledGraph)> = candidate_graphs(fct, ife, &profile, universe)
        .into_iter()
        .filter_map(|id| db.get(id).map(|g| (id, g.as_ref())))
        .collect();
    kernel
        .covered_in(pattern, &candidates)
        .into_iter()
        .zip(&candidates)
        .filter_map(|(hit, &(id, _))| hit.then_some(id))
        .collect()
}

/// Subgraph coverage `scov(p, D) = |G_p| / |D|` over `universe` (§2.2),
/// where the denominator is `denominator` (usually `|D|`, or `|D_s|` when
/// sampling).
pub fn scov(
    fct: &FctIndex,
    ife: &IfeIndex,
    db: &GraphDb,
    pattern: &LabeledGraph,
    universe: &BTreeSet<GraphId>,
    denominator: usize,
) -> f64 {
    if denominator == 0 {
        return 0.0;
    }
    covered_graphs(fct, ife, db, pattern, universe).len() as f64 / denominator as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternId;
    use midas_graph::GraphBuilder;
    use midas_mining::tree_key;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn setup() -> (FctIndex, IfeIndex, GraphDb) {
        // DB: G0 = C-O-N-S, G1 = C-O-C, G2 = S-N.
        let db = GraphDb::from_graphs([path(&[0, 1, 2, 3]), path(&[0, 1, 0]), path(&[3, 2])]);
        let features = [path(&[0, 1]), path(&[1, 2])]; // C-O, O-N
        let feature_refs: Vec<(midas_mining::TreeKey, &LabeledGraph)> =
            features.iter().map(|t| (tree_key(t), t)).collect();
        let graph_refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let fct = FctIndex::build(
            feature_refs.iter().map(|(k, t)| (k.clone(), *t)),
            graph_refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let ife = IfeIndex::build(
            BTreeSet::from([EdgeLabel::new(2, 3)]), // N-S infrequent
            graph_refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        (fct, ife, db)
    }

    #[test]
    fn profile_counts_features_and_infrequent_edges() {
        let (fct, ife, _) = setup();
        let pattern = path(&[0, 1, 2, 3]); // C-O-N-S
        let profile = profile_pattern(&fct, &ife, &pattern);
        assert_eq!(profile.fct_counts.len(), 2);
        assert_eq!(profile.ife_counts, vec![(EdgeLabel::new(2, 3), 1)]);
    }

    #[test]
    fn dominance_filter_prunes_incompatible_graphs() {
        let (fct, ife, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let pattern = path(&[0, 1, 2]); // C-O-N
        let profile = profile_pattern(&fct, &ife, &pattern);
        let candidates = candidate_graphs(&fct, &ife, &profile, &universe);
        // Only G0 has both a C-O and an O-N embedding.
        assert_eq!(candidates.len(), 1);
        assert!(candidates.contains(&db.ids().next().unwrap()));
    }

    #[test]
    fn covered_graphs_matches_direct_isomorphism() {
        let (fct, ife, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        for pattern in [
            path(&[0, 1]),
            path(&[0, 1, 2]),
            path(&[2, 3]),
            path(&[0, 1, 0]),
            path(&[3, 3]),
        ] {
            let via_index = covered_graphs(&fct, &ife, &db, &pattern, &universe);
            let direct: BTreeSet<GraphId> = db
                .iter()
                .filter(|(_, g)| is_subgraph_of(&pattern, g))
                .map(|(id, _)| id)
                .collect();
            assert_eq!(via_index, direct, "pattern {pattern:?}");
        }
    }

    #[test]
    fn kernel_covered_graphs_matches_serial() {
        let (fct, ife, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let kernel = MatchKernel::new(2);
        for pattern in [
            path(&[0, 1]),
            path(&[0, 1, 2]),
            path(&[2, 3]),
            path(&[0, 1, 0]),
            path(&[3, 3]),
        ] {
            let serial = covered_graphs(&fct, &ife, &db, &pattern, &universe);
            let cached = covered_graphs_with(&kernel, &fct, &ife, &db, &pattern, &universe);
            assert_eq!(serial, cached, "pattern {pattern:?}");
            // Repeat: answered from the memo, still identical.
            let again = covered_graphs_with(&kernel, &fct, &ife, &db, &pattern, &universe);
            assert_eq!(serial, again);
        }
        assert!(kernel.cache().stats().hits > 0);
    }

    #[test]
    fn empty_profile_returns_universe() {
        let (fct, ife, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        // A pattern over labels unknown to the indices: P-P.
        let pattern = path(&[4, 4]);
        let profile = profile_pattern(&fct, &ife, &pattern);
        assert!(profile.fct_counts.is_empty());
        assert!(profile.ife_counts.is_empty());
        let candidates = candidate_graphs(&fct, &ife, &profile, &universe);
        assert_eq!(candidates, universe);
        // But verification still rejects everything.
        assert!(covered_graphs(&fct, &ife, &db, &pattern, &universe).is_empty());
    }

    #[test]
    fn scov_respects_universe_and_denominator() {
        let (fct, ife, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let pattern = path(&[0, 1]); // in G0 and G1
        assert!((scov(&fct, &ife, &db, &pattern, &universe, db.len()) - 2.0 / 3.0).abs() < 1e-12);
        // Restrict the universe to G2 only.
        let small: BTreeSet<GraphId> = db.ids().skip(2).collect();
        assert_eq!(scov(&fct, &ife, &db, &pattern, &small, small.len()), 0.0);
        assert_eq!(scov(&fct, &ife, &db, &pattern, &universe, 0), 0.0);
    }
}
