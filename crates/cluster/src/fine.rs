//! Fine clustering (§2.3): splitting oversized coarse clusters by MCCS
//! similarity.
//!
//! A coarse cluster larger than the maximum cluster size `N` is replaced by
//! smaller clusters of at most `N` graphs each, grouping graphs with high
//! `ω_MCCS` similarity to a seed (the cluster's largest graph). This is the
//! greedy realization of the fine-clustering objective: members of a fine
//! cluster are more MCCS-similar to each other than to members of other
//! fine clusters.
//!
//! Each seeded group comes back with the `ω_MCCS(seed, m)` values that
//! formed it ([`SeedSimilarities`]). A cluster keeps them, and when it is
//! split again around the same seed, [`fine_cluster`] reuses them and
//! scores only the members it has not seen. Reuse is exact: graphs are
//! immutable, ids are never reused, and `mccs_similarity` is deterministic
//! for an ordered pair (its budget counts search nodes, not time), so a
//! stored value is the value a fresh call would return.

use midas_graph::exec::par_map;
use midas_graph::mccs::mccs_similarity;
use midas_graph::{GraphId, LabeledGraph};
use std::collections::BTreeMap;

/// `ω_MCCS(seed, m)` for one fine-clustering seed, keyed by member `m`.
///
/// Each value is `mccs_similarity(seed, m, budget)` with the seed as the
/// first argument: `mccs_edges` orients its search by vertex count and, on
/// ties, by argument order, so a tripped budget may depend on the order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSimilarities {
    /// The seed graph.
    pub seed: GraphId,
    /// Similarity of each other member to the seed.
    pub sims: BTreeMap<GraphId, f64>,
}

/// One group produced by [`fine_cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct FineGroup {
    /// Member ids; a seeded group lists its seed first.
    pub members: Vec<GraphId>,
    /// The similarities that formed a seeded group; `None` for the last
    /// group, which takes whatever is left once it fits without a seed.
    pub seed: Option<SeedSimilarities>,
}

/// Splits `members` into groups of at most `max_size`, grouping by MCCS
/// similarity to a seed graph. Groups come back in creation order; input
/// order within a group is not preserved.
///
/// `known` holds similarities computed earlier (the splitting cluster's
/// own); a seed round whose seed is `known.seed` reads them instead of
/// recomputing. The missing pairs are scored across `threads` workers
/// (`0` = auto, see [`midas_graph::exec::thread_count`]). The groups do not
/// depend on `known` or `threads`.
///
/// `budget` caps each pairwise MCCS search (see
/// [`midas_graph::mccs::mccs_edges`]).
pub fn fine_cluster(
    members: &[(GraphId, &LabeledGraph)],
    known: Option<&SeedSimilarities>,
    max_size: usize,
    budget: u64,
    threads: usize,
) -> Vec<FineGroup> {
    assert!(max_size >= 1, "max cluster size must be positive");
    if members.len() <= max_size {
        return vec![FineGroup {
            members: members.iter().map(|&(id, _)| id).collect(),
            seed: None,
        }];
    }
    let mut pool: Vec<(GraphId, &LabeledGraph)> = members.to_vec();
    let mut groups = Vec::new();
    while !pool.is_empty() {
        if pool.len() <= max_size {
            groups.push(FineGroup {
                members: pool.drain(..).map(|(id, _)| id).collect(),
                seed: None,
            });
            break;
        }
        // Seed: the largest remaining graph (ties by id for determinism).
        let seed_idx = pool
            .iter()
            .enumerate()
            .max_by_key(|(_, (id, g))| (g.edge_count(), std::cmp::Reverse(*id)))
            .map(|(i, _)| i)
            .expect("pool non-empty");
        let (seed_id, seed_graph) = pool.swap_remove(seed_idx);
        // Rank the rest by similarity to the seed, scoring only the pairs
        // not already known.
        let reuse = known.filter(|k| k.seed == seed_id);
        let mut sims: Vec<Option<f64>> = pool
            .iter()
            .map(|(id, _)| reuse.and_then(|k| k.sims.get(id).copied()))
            .collect();
        let missing: Vec<usize> = (0..pool.len()).filter(|&i| sims[i].is_none()).collect();
        midas_obs::counter_add!("cluster.mccs_calls", missing.len());
        midas_obs::counter_add!("cluster.mccs_reused", pool.len() - missing.len());
        let fresh = par_map(threads, &missing, |&i| {
            mccs_similarity(seed_graph, pool[i].1, budget)
        });
        for (i, sim) in missing.into_iter().zip(fresh) {
            sims[i] = Some(sim);
        }
        let mut scored: Vec<(f64, usize)> = sims
            .into_iter()
            .enumerate()
            .map(|(i, sim)| (sim.expect("every pair scored"), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        scored.truncate(max_size - 1);
        scored.sort_unstable_by_key(|&(_, i)| std::cmp::Reverse(i)); // remove back-to-front
        let mut group = vec![seed_id];
        let mut group_sims = BTreeMap::new();
        for (sim, idx) in scored {
            let id = pool.swap_remove(idx).0;
            group.push(id);
            group_sims.insert(id, sim);
        }
        groups.push(FineGroup {
            members: group,
            seed: Some(SeedSimilarities {
                seed: seed_id,
                sims: group_sims,
            }),
        });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn gid(i: u64) -> GraphId {
        GraphId(i)
    }

    #[test]
    fn small_input_stays_whole() {
        let a = path(&[0, 1]);
        let b = path(&[0, 2]);
        let members = vec![(gid(1), &a), (gid(2), &b)];
        let groups = fine_cluster(&members, None, 5, 1000, 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 2);
        assert_eq!(groups[0].seed, None);
    }

    #[test]
    fn oversized_cluster_splits_to_max_size() {
        let graphs: Vec<LabeledGraph> = (0..7).map(|i| path(&[i % 3, (i + 1) % 3])).collect();
        let members: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let groups = member_lists(&fine_cluster(&members, None, 3, 1000, 1));
        assert!(groups.iter().all(|g| g.len() <= 3));
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
        // No id lost or duplicated.
        let mut all: Vec<GraphId> = groups.concat();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn similar_graphs_group_together() {
        // Two families: C-O-C chains vs S-S-S chains, max size 3.
        let family_a: Vec<LabeledGraph> = (0..3).map(|_| path(&[0, 1, 0, 1])).collect();
        let family_b: Vec<LabeledGraph> = (0..3).map(|_| path(&[3, 3, 3, 3])).collect();
        let mut members: Vec<(GraphId, &LabeledGraph)> = Vec::new();
        for (i, g) in family_a.iter().enumerate() {
            members.push((gid(i as u64), g));
        }
        for (i, g) in family_b.iter().enumerate() {
            members.push((gid(10 + i as u64), g));
        }
        let groups = member_lists(&fine_cluster(&members, None, 3, 2000, 1));
        assert_eq!(groups.len(), 2);
        for group in &groups {
            let in_a = group.iter().filter(|id| id.0 < 10).count();
            assert!(
                in_a == 0 || in_a == group.len(),
                "families must not mix: {groups:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_size_panics() {
        let a = path(&[0, 1]);
        fine_cluster(&[(gid(1), &a)], None, 0, 100, 1);
    }

    fn member_lists(groups: &[FineGroup]) -> Vec<Vec<GraphId>> {
        groups.iter().map(|g| g.members.clone()).collect()
    }

    /// Graphs of varied size and labels, so ranks and seeds are non-trivial.
    fn mixed_graphs(n: u32) -> Vec<LabeledGraph> {
        (0..n)
            .map(|i| {
                let len = 2 + (i * 7 % 5) as usize;
                let labels: Vec<u32> = (0..len as u32).map(|j| (i + j * 3) % 4).collect();
                path(&labels)
            })
            .collect()
    }

    #[test]
    fn seeded_groups_carry_their_similarities() {
        let graphs = mixed_graphs(11);
        let members: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let groups = fine_cluster(&members, None, 4, 2000, 1);
        let (last, seeded) = groups.split_last().unwrap();
        assert_eq!(last.seed, None, "the remainder has no seed round");
        for group in seeded {
            let seed = group.seed.as_ref().expect("seeded group");
            assert_eq!(seed.seed, group.members[0], "seed comes first");
            let others: Vec<GraphId> = seed.sims.keys().copied().collect();
            let mut want = group.members[1..].to_vec();
            want.sort();
            assert_eq!(others, want);
            for (&m, &sim) in &seed.sims {
                let fresh =
                    mccs_similarity(&graphs[seed.seed.0 as usize], &graphs[m.0 as usize], 2000);
                assert_eq!(sim.to_bits(), fresh.to_bits());
            }
        }
    }

    #[test]
    fn known_similarities_give_the_same_groups_as_none() {
        let graphs = mixed_graphs(13);
        let members: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let fresh = fine_cluster(&members, None, 5, 2000, 1);
        // Pre-fill the first seed's similarities for every member, and for
        // only half of them; the second pass must score just the rest.
        let seed = fresh[0].seed.clone().unwrap().seed;
        let all: BTreeMap<GraphId, f64> = members
            .iter()
            .filter(|&&(id, _)| id != seed)
            .map(|&(id, g)| (id, mccs_similarity(&graphs[seed.0 as usize], g, 2000)))
            .collect();
        let half: BTreeMap<GraphId, f64> = all.iter().step_by(2).map(|(&k, &v)| (k, v)).collect();
        for sims in [all, half] {
            let known = SeedSimilarities { seed, sims };
            for threads in [1, 2] {
                let again = fine_cluster(&members, Some(&known), 5, 2000, threads);
                assert_eq!(again, fresh, "threads = {threads}");
            }
        }
        // Similarities of another seed are ignored, not misapplied.
        let stranger = SeedSimilarities {
            seed: gid(999),
            sims: members.iter().map(|&(id, _)| (id, 1.0)).collect(),
        };
        assert_eq!(fine_cluster(&members, Some(&stranger), 5, 2000, 1), fresh);
    }
}
