//! Candidate pattern generation: PCP → FCP (§2.3), with MIDAS's
//! early-termination hook (§5.2).
//!
//! A final candidate pattern (FCP) of size `η` is a connected subgraph of
//! the CSG built from the most frequently traversed edges: construction
//! starts at a seed edge and repeatedly adds the most-traversed edge
//! adjacent to the partial pattern. MIDAS interposes a [`CandidateHook`]
//! before each extension — when the hook vetoes the next edge (Eq. 2's low
//! marginal-coverage test), generation terminates early and the candidate
//! is abandoned.

use crate::random_walk::WalkStats;
use crate::weights::WeightedCsg;
use midas_graph::canonical::canonical_code;
use midas_graph::{CanonicalCode, LabeledGraph, VertexId};
use std::collections::BTreeSet;

/// Decision hook consulted before each edge extension.
///
/// Arguments: the partial pattern so far (as an edge list into the CSG
/// projection) and the candidate next edge. Return `false` to veto (which
/// aborts this candidate), `true` to continue.
pub type CandidateHook<'a> = dyn FnMut(&[(VertexId, VertexId)], (VertexId, VertexId)) -> bool + 'a;

/// Grows one FCP of exactly `size` edges from the `seed_rank`-th
/// most-traversed edge. `order` is the CSG's edge indices by descending
/// traversal count ([`WalkStats::edges_by_frequency`]). Returns `None` when
/// the CSG is too small, the pattern cannot grow connected to the target
/// size, or the hook vetoes an extension.
pub fn generate_fcp(
    csg: &WeightedCsg,
    order: &[usize],
    size: usize,
    seed_rank: usize,
    hook: &mut CandidateHook<'_>,
) -> Option<LabeledGraph> {
    let graph = &csg.graph;
    if size == 0 || graph.edge_count() < size {
        return None;
    }
    let &seed = order.get(seed_rank)?;
    let seed_edge = graph.edges()[seed];
    let mut chosen: Vec<(VertexId, VertexId)> = vec![seed_edge];
    let mut chosen_set: BTreeSet<usize> = BTreeSet::from([seed]);
    let mut vertices: BTreeSet<VertexId> = BTreeSet::from([seed_edge.0, seed_edge.1]);
    while chosen.len() < size {
        // Most-traversed unchosen edge adjacent to the partial pattern:
        // the first such edge in rank order.
        let next = order.iter().copied().find(|&i| {
            let (u, v) = graph.edges()[i];
            !chosen_set.contains(&i) && (vertices.contains(&u) || vertices.contains(&v))
        })?;
        let edge = graph.edges()[next];
        if !hook(&chosen, edge) {
            return None; // early termination (Eq. 2)
        }
        chosen.push(edge);
        chosen_set.insert(next);
        vertices.insert(edge.0);
        vertices.insert(edge.1);
    }
    Some(graph.edge_subgraph(&chosen))
}

/// Generates the PCP library for one size: FCP attempts from the top
/// `seeds` seed ranks **plus** the best-ranked edge of every distinct edge
/// label (so rare labels — e.g. a newly arrived functional group — still
/// seed candidates, giving the "variety of potential candidate patterns"
/// of §2.3). Results are deduplicated by canonical code and returned with
/// it, so callers never recompute a candidate's code.
pub fn generate_candidates(
    csg: &WeightedCsg,
    stats: &WalkStats,
    size: usize,
    seeds: usize,
    hook: &mut CandidateHook<'_>,
) -> Vec<(LabeledGraph, CanonicalCode)> {
    let order = stats.edges_by_frequency();
    let mut seed_ranks: Vec<usize> = (0..seeds.min(order.len())).collect();
    // Label-diverse extras are capped at `seeds` so candidate volume stays
    // bounded on label-rich CSGs.
    let mut seen_labels = BTreeSet::new();
    let mut extras = 0usize;
    for (rank, &edge_idx) in order.iter().enumerate() {
        if extras >= seeds {
            break;
        }
        let (u, v) = csg.graph.edges()[edge_idx];
        if seen_labels.insert(csg.graph.edge_label(u, v)) && !seed_ranks.contains(&rank) {
            seed_ranks.push(rank);
            extras += 1;
        }
    }
    let mut out: Vec<(LabeledGraph, CanonicalCode)> = Vec::new();
    let mut codes = BTreeSet::new();
    for rank in seed_ranks {
        if let Some(candidate) = generate_fcp(csg, &order, size, rank, hook) {
            let code = canonical_code(&candidate);
            if codes.insert(code.clone()) {
                out.push((candidate, code));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_walk::random_walks;
    use midas_graph::{ClosureGraph, GraphBuilder, GraphId};
    use midas_mining::EdgeCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weighted(graph: &LabeledGraph) -> WeightedCsg {
        let csg = ClosureGraph::from_graphs([(GraphId(1), graph)]);
        let catalog = EdgeCatalog::build([(GraphId(1), graph)]);
        WeightedCsg::build(&csg, &catalog, 1)
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn no_hook() -> Box<CandidateHook<'static>> {
        Box::new(|_, _| true)
    }

    #[test]
    fn fcp_is_connected_with_exact_size() {
        let graph = GraphBuilder::new()
            .vertices(&[0, 1, 2, 0, 1])
            .path(&[0, 1, 2, 3, 4])
            .edge(4, 0)
            .build();
        let csg = weighted(&graph);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = random_walks(&csg, 100, 8, &mut rng);
        let order = stats.edges_by_frequency();
        for size in 1..=4 {
            let fcp = generate_fcp(&csg, &order, size, 0, &mut *no_hook()).expect("csg big enough");
            assert_eq!(fcp.edge_count(), size);
            assert!(fcp.is_connected());
        }
    }

    #[test]
    fn oversized_requests_fail() {
        let csg = weighted(&path(&[0, 1, 2]));
        let mut rng = StdRng::seed_from_u64(5);
        let stats = random_walks(&csg, 10, 4, &mut rng);
        let order = stats.edges_by_frequency();
        assert!(generate_fcp(&csg, &order, 5, 0, &mut *no_hook()).is_none());
        assert!(generate_fcp(&csg, &order, 0, 0, &mut *no_hook()).is_none());
    }

    #[test]
    fn hook_veto_aborts_generation() {
        let csg = weighted(&path(&[0, 1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(6);
        let stats = random_walks(&csg, 50, 6, &mut rng);
        let order = stats.edges_by_frequency();
        let mut always_veto: Box<CandidateHook<'_>> = Box::new(|_, _| false);
        // Size 1 needs no extension, so it survives; size 2 needs one.
        assert!(generate_fcp(&csg, &order, 1, 0, &mut *always_veto).is_some());
        assert!(generate_fcp(&csg, &order, 2, 0, &mut *always_veto).is_none());
    }

    #[test]
    fn hook_sees_partial_pattern_growth() {
        let csg = weighted(&path(&[0, 1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(7);
        let stats = random_walks(&csg, 50, 6, &mut rng);
        let order = stats.edges_by_frequency();
        let mut sizes_seen = Vec::new();
        let mut hook: Box<CandidateHook<'_>> = Box::new(|partial, _| {
            sizes_seen.push(partial.len());
            true
        });
        generate_fcp(&csg, &order, 3, 0, &mut *hook).expect("fits");
        drop(hook);
        assert_eq!(sizes_seen, vec![1, 2]);
    }

    #[test]
    fn different_seeds_can_differ_and_dedup_works() {
        // A star: seeds from different spokes give isomorphic patterns,
        // which dedup to one.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        let csg = weighted(&star);
        let mut rng = StdRng::seed_from_u64(8);
        let stats = random_walks(&csg, 60, 6, &mut rng);
        let candidates = generate_candidates(&csg, &stats, 1, 3, &mut *no_hook());
        assert_eq!(candidates.len(), 1, "isomorphic seeds deduplicate");
        let bigger = generate_candidates(&csg, &stats, 2, 3, &mut *no_hook());
        assert_eq!(bigger.len(), 1);
        assert_eq!(bigger[0].0.edge_count(), 2);
        assert_eq!(
            bigger[0].1,
            canonical_code(&bigger[0].0),
            "code travels along"
        );
    }

    #[test]
    fn candidates_inherit_csg_labels() {
        let graph = path(&[0, 1, 2]);
        let csg = weighted(&graph);
        let mut rng = StdRng::seed_from_u64(9);
        let stats = random_walks(&csg, 40, 4, &mut rng);
        let order = stats.edges_by_frequency();
        let fcp = generate_fcp(&csg, &order, 2, 0, &mut *no_hook()).unwrap();
        assert_eq!(fcp.sorted_labels(), vec![0, 1, 2]);
    }
}
