//! The [`ClusterSet`]: clusters with centroids and CSGs, built by coarse +
//! fine clustering and maintained incrementally (§4.3–4.4, Algorithm 1
//! lines 1–2 and 6–7).

use crate::features::{FeatureSpace, FeatureVector};
use crate::fine::{fine_cluster, FineGroup, SeedSimilarities};
use crate::kmeans::{dist2_to_centroid, kmeans};
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph};
use midas_mining::TreeLattice;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Stable identifier of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u64);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// One graph cluster: members, centroid, and its cluster summary graph.
#[derive(Debug, Clone)]
pub struct Cluster {
    members: BTreeSet<GraphId>,
    centroid: Vec<f64>,
    csg: ClosureGraph,
    /// The fine-clustering seed that formed the cluster and its known
    /// similarities, at most one per member; reused by the next split.
    seed: Option<SeedSimilarities>,
    dirty: bool,
}

impl Cluster {
    /// Member graph ids.
    pub fn members(&self) -> &BTreeSet<GraphId> {
        &self.members
    }

    /// Number of members `|C_i|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cluster summary graph.
    pub fn csg(&self) -> &ClosureGraph {
        &self.csg
    }

    /// The centroid in feature space.
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }

    /// The fine-clustering seed that formed this cluster, with
    /// `ω_MCCS(seed, m)` for every member `m` still present from that
    /// round. `None` when no seed round formed the cluster or the seed was
    /// deleted. Members assigned since carry no entry until the next split
    /// scores them.
    pub fn seed_similarities(&self) -> Option<&SeedSimilarities> {
        self.seed.as_ref()
    }

    /// Whether the cluster changed since the last
    /// [`ClusterSet::take_dirty`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// Clustering parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of coarse (k-means) clusters.
    pub coarse_clusters: usize,
    /// Maximum cluster size `N`; larger clusters are fine-clustered.
    pub max_cluster_size: usize,
    /// Node budget per pairwise MCCS search in fine clustering.
    pub mccs_budget: u64,
    /// Lloyd-iteration cap for k-means.
    pub kmeans_max_iterations: usize,
    /// Seed for k-means++.
    pub seed: u64,
    /// Worker threads for fine-clustering MCCS scoring and CSG builds;
    /// `0` means auto (see [`midas_graph::exec::thread_count`]).
    pub threads: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            coarse_clusters: 10,
            max_cluster_size: 100,
            mccs_budget: 2_000,
            kmeans_max_iterations: 30,
            seed: 0,
            threads: 0,
        }
    }
}

/// All clusters of a database, plus the frozen feature space and the cached
/// per-member feature vectors needed for incremental centroid updates.
#[derive(Debug, Clone)]
pub struct ClusterSet {
    config: ClusterConfig,
    feature_space: FeatureSpace,
    clusters: BTreeMap<ClusterId, Cluster>,
    membership: HashMap<GraphId, ClusterId>,
    member_vectors: HashMap<GraphId, FeatureVector>,
    next_id: u64,
}

impl ClusterSet {
    /// Builds the cluster set from scratch: k-means++ coarse clustering on
    /// feature vectors, fine clustering of oversized clusters, then one CSG
    /// per cluster (built in parallel).
    pub fn build(
        db: &GraphDb,
        lattice: &TreeLattice,
        feature_space: FeatureSpace,
        config: ClusterConfig,
    ) -> Self {
        let ids: Vec<GraphId> = db.ids().collect();
        let vectors: Vec<FeatureVector> = ids
            .iter()
            .map(|&id| feature_space.vector(lattice, id))
            .collect();
        let result = kmeans(
            &vectors,
            feature_space.dims(),
            config.coarse_clusters,
            config.seed,
            config.kmeans_max_iterations,
        );
        // Group members per coarse cluster.
        let mut coarse: BTreeMap<usize, Vec<GraphId>> = BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let slot = result.assignment.get(i).copied().unwrap_or(0);
            coarse.entry(slot).or_default().push(id);
        }
        // Fine-cluster oversized groups.
        let mut groups: Vec<FineGroup> = Vec::new();
        for members in coarse.into_values() {
            let with_graphs: Vec<(GraphId, &LabeledGraph)> = members
                .iter()
                .map(|&id| (id, db.get(id).expect("live id").as_ref()))
                .collect();
            groups.extend(fine_cluster(
                &with_graphs,
                None,
                config.max_cluster_size,
                config.mccs_budget,
                config.threads,
            ));
        }
        let mut set = ClusterSet {
            config,
            feature_space,
            clusters: BTreeMap::new(),
            membership: HashMap::new(),
            member_vectors: HashMap::new(),
            next_id: 0,
        };
        for (i, &id) in ids.iter().enumerate() {
            set.member_vectors.insert(id, vectors[i].clone());
        }
        // Build CSGs in parallel (one closure per cluster).
        let csgs: Vec<ClosureGraph> = build_csgs_parallel(db, &groups, config.threads);
        for (group, csg) in groups.into_iter().zip(csgs) {
            set.install_cluster(group, csg);
        }
        set
    }

    fn install_cluster(&mut self, group: FineGroup, csg: ClosureGraph) -> ClusterId {
        let FineGroup { members, seed } = group;
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        let centroid = self.mean_vector(&members);
        for &m in &members {
            self.membership.insert(m, id);
        }
        self.clusters.insert(
            id,
            Cluster {
                members: members.into_iter().collect(),
                centroid,
                csg,
                seed,
                dirty: true,
            },
        );
        id
    }

    fn mean_vector(&self, members: &[GraphId]) -> Vec<f64> {
        let mut c = vec![0.0; self.feature_space.dims()];
        if members.is_empty() {
            return c;
        }
        for id in members {
            if let Some(v) = self.member_vectors.get(id) {
                for &j in &v.0 {
                    c[j as usize] += 1.0;
                }
            }
        }
        let n = members.len() as f64;
        for x in &mut c {
            *x /= n;
        }
        c
    }

    /// The frozen feature space.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// The configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterates `(id, cluster)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> {
        self.clusters.iter().map(|(&id, c)| (id, c))
    }

    /// Looks up a cluster.
    pub fn get(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(&id)
    }

    /// The cluster a graph belongs to.
    pub fn cluster_of(&self, graph: GraphId) -> Option<ClusterId> {
        self.membership.get(&graph).copied()
    }

    /// Total members across clusters.
    pub fn total_members(&self) -> usize {
        self.clusters.values().map(|c| c.len()).sum()
    }

    /// Assigns a newly inserted graph to the nearest cluster by centroid
    /// distance (Algorithm 1 line 1), updates that cluster's CSG (§4.4 step
    /// 1) and centroid, and fine-clusters if the size cap is exceeded.
    ///
    /// Returns the ids of every cluster affected (the receiving cluster, or
    /// the clusters created by a split).
    ///
    /// The lattice must already reflect the insertion (supports include
    /// `id`), which is the order Algorithm 1 establishes.
    pub fn assign(
        &mut self,
        db: &GraphDb,
        lattice: &TreeLattice,
        id: GraphId,
        graph: &Arc<LabeledGraph>,
    ) -> Vec<ClusterId> {
        let v = self.feature_space.vector(lattice, id);
        self.member_vectors.insert(id, v.clone());
        // Nearest centroid.
        let target = self
            .clusters
            .iter()
            .min_by(|(_, a), (_, b)| {
                let da = dist2_to_centroid(&a.centroid, norm2(&a.centroid), &v);
                let db_ = dist2_to_centroid(&b.centroid, norm2(&b.centroid), &v);
                da.partial_cmp(&db_).expect("finite")
            })
            .map(|(&cid, _)| cid);
        let Some(target) = target else {
            // First graph ever: create a singleton cluster.
            let mut csg = ClosureGraph::new();
            csg.insert_graph(id, graph);
            let group = FineGroup {
                members: vec![id],
                seed: None,
            };
            return vec![self.install_cluster(group, csg)];
        };
        {
            let cluster = self.clusters.get_mut(&target).expect("target exists");
            let m = cluster.members.len() as f64;
            cluster.members.insert(id);
            cluster.csg.insert_graph(id, graph);
            cluster.dirty = true;
            // Incremental centroid update: c' = (c·m + x) / (m + 1).
            for cj in cluster.centroid.iter_mut() {
                *cj = *cj * m / (m + 1.0);
            }
            for &j in &v.0 {
                cluster.centroid[j as usize] += 1.0 / (m + 1.0);
            }
        }
        self.membership.insert(id, target);
        if self.clusters[&target].members.len() > self.config.max_cluster_size {
            self.split(db, target)
        } else {
            vec![target]
        }
    }

    /// Removes a deleted graph from its cluster (Algorithm 1 line 2),
    /// updating the CSG (§4.4 step 2) and centroid. Returns the affected
    /// cluster id, or `None` if the graph was not clustered. Empty clusters
    /// are dropped.
    pub fn remove(&mut self, id: GraphId, graph: &LabeledGraph) -> Option<ClusterId> {
        let cid = self.membership.remove(&id)?;
        let v = self.member_vectors.remove(&id).unwrap_or_default();
        let cluster = self.clusters.get_mut(&cid).expect("membership consistent");
        cluster.members.remove(&id);
        cluster.csg.remove_graph(id, graph);
        if cluster.seed.as_ref().is_some_and(|s| s.seed == id) {
            cluster.seed = None;
        } else if let Some(seed) = &mut cluster.seed {
            seed.sims.remove(&id);
        }
        cluster.dirty = true;
        let m = cluster.members.len() as f64;
        if m == 0.0 {
            self.clusters.remove(&cid);
        } else {
            // c' = (c·(m+1) − x) / m.
            for cj in cluster.centroid.iter_mut() {
                *cj = *cj * (m + 1.0) / m;
            }
            for &j in &v.0 {
                cluster.centroid[j as usize] -= 1.0 / m;
            }
        }
        Some(cid)
    }

    /// Splits an oversized cluster via fine clustering; the original cluster
    /// is replaced by the resulting groups (fresh ids, fresh CSGs). The
    /// cluster's kept seed similarities spare the MCCS calls they cover.
    fn split(&mut self, db: &GraphDb, cid: ClusterId) -> Vec<ClusterId> {
        let _span = midas_obs::span!("batch.cluster.split");
        let cluster = &self.clusters[&cid];
        let with_graphs: Vec<(GraphId, &LabeledGraph)> = cluster
            .members
            .iter()
            .map(|&id| (id, db.get(id).expect("live id").as_ref()))
            .collect();
        let groups = fine_cluster(
            &with_graphs,
            cluster.seed.as_ref(),
            self.config.max_cluster_size,
            self.config.mccs_budget,
            self.config.threads,
        );
        let csgs = build_csgs_parallel(db, &groups, self.config.threads);
        midas_obs::obs_debug!(
            "cluster::clusters",
            "fine-clustered oversized cluster of {} members into {} groups",
            with_graphs.len(),
            groups.len()
        );
        midas_obs::counter_add!("cluster.splits", 1);
        // Replace the cluster only now that every fan-out has returned, so
        // a panicking task leaves the set as it was.
        let cluster = self.clusters.remove(&cid).expect("cluster exists");
        for id in &cluster.members {
            self.membership.remove(id);
        }
        groups
            .into_iter()
            .zip(csgs)
            .map(|(group, csg)| self.install_cluster(group, csg))
            .collect()
    }

    /// Returns the set of dirty cluster ids and clears the flags. These are
    /// the "newly-generated and modified clusters" whose CSGs feed candidate
    /// generation (§4.3, §5).
    pub fn take_dirty(&mut self) -> Vec<ClusterId> {
        let mut dirty = Vec::new();
        for (&id, cluster) in self.clusters.iter_mut() {
            if cluster.dirty {
                dirty.push(id);
                cluster.dirty = false;
            }
        }
        dirty
    }
}

fn norm2(c: &[f64]) -> f64 {
    c.iter().map(|x| x * x).sum()
}

/// Builds one CSG per group, distributing groups across threads with the
/// shared execution helpers ([`midas_graph::exec`]).
fn build_csgs_parallel(db: &GraphDb, groups: &[FineGroup], threads: usize) -> Vec<ClosureGraph> {
    midas_graph::exec::par_map(threads, groups, |group| build_one_csg(db, &group.members))
}

fn build_one_csg(db: &GraphDb, group: &[GraphId]) -> ClosureGraph {
    ClosureGraph::from_graphs(
        group
            .iter()
            .map(|&id| (id, db.get(id).expect("live id").as_ref())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn mining_config() -> MiningConfig {
        MiningConfig {
            sup_min: 0.2,
            max_edges: 3,
        }
    }

    /// Two chemically distinct families: C-O chains and S-P chains.
    fn two_family_db() -> GraphDb {
        let mut graphs = Vec::new();
        for _ in 0..4 {
            graphs.push(path(&[0, 1, 0, 1]));
            graphs.push(path(&[3, 4, 3, 4]));
        }
        GraphDb::from_graphs(graphs)
    }

    fn build_set(db: &GraphDb, k: usize, max_size: usize) -> (ClusterSet, TreeLattice) {
        let graphs: Vec<_> = db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let lattice = mine_lattice(&graphs, &mining_config());
        let space = FeatureSpace::from_frequent(&lattice, 0.2, db.len());
        let set = ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: k,
                max_cluster_size: max_size,
                ..ClusterConfig::default()
            },
        );
        (set, lattice)
    }

    #[test]
    fn build_partitions_all_graphs() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        assert_eq!(set.total_members(), db.len());
        for (id, _) in db.iter() {
            assert!(set.cluster_of(id).is_some(), "graph {id} unclustered");
        }
    }

    #[test]
    fn families_separate_into_clusters() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        assert_eq!(set.len(), 2);
        // Each cluster is label-pure.
        for (_, cluster) in set.iter() {
            let labels: BTreeSet<u32> = cluster
                .members()
                .iter()
                .flat_map(|&id| db.get(id).unwrap().labels().to_vec())
                .collect();
            assert!(
                labels == BTreeSet::from([0, 1]) || labels == BTreeSet::from([3, 4]),
                "mixed cluster: {labels:?}"
            );
        }
    }

    #[test]
    fn csgs_cover_cluster_members() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        for (_, cluster) in set.iter() {
            assert_eq!(cluster.csg().members().len(), cluster.len());
        }
    }

    #[test]
    fn max_cluster_size_is_enforced_at_build() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 1, 3);
        assert!(set.iter().all(|(_, c)| c.len() <= 3));
        assert_eq!(set.total_members(), db.len());
    }

    #[test]
    fn assign_routes_to_matching_family() {
        let mut db = two_family_db();
        let (mut set, mut lattice) = build_set(&db, 2, 100);
        set.take_dirty();
        // Insert a new C-O graph; extend lattice supports first (as the
        // framework does).
        let newcomer = path(&[0, 1, 0]);
        let id = db.insert(newcomer);
        let graph = db.get(id).unwrap().clone();
        let keys: Vec<_> = lattice.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            let tree = lattice.get(&key).unwrap().tree.clone();
            if midas_graph::isomorphism::is_subgraph_of(&tree, &graph) {
                let mut entry = lattice.get(&key).unwrap().clone();
                entry.support.insert(id);
                lattice.insert(key, entry);
            }
        }
        let affected = set.assign(&db, &lattice, id, &graph);
        assert_eq!(affected.len(), 1);
        let cid = set.cluster_of(id).unwrap();
        // Its cluster must be the C-O one.
        let peer = set
            .get(cid)
            .unwrap()
            .members()
            .iter()
            .next()
            .copied()
            .unwrap();
        let peer_labels: BTreeSet<u32> = db.get(peer).unwrap().labels().iter().copied().collect();
        assert!(peer_labels.contains(&0));
        // Dirty flag set.
        assert!(set.get(cid).unwrap().is_dirty());
        // CSG includes the newcomer.
        assert!(set.get(cid).unwrap().csg().members().contains(&id));
    }

    #[test]
    fn assign_splits_oversized_cluster() {
        let mut db = GraphDb::from_graphs((0..3).map(|_| path(&[0, 1])));
        let (mut set, lattice) = build_set(&db, 1, 3);
        assert_eq!(set.len(), 1);
        let id = db.insert(path(&[0, 1]));
        let graph = db.get(id).unwrap().clone();
        let affected = set.assign(&db, &lattice, id, &graph);
        assert!(affected.len() >= 2, "split must create clusters");
        assert!(set.iter().all(|(_, c)| c.len() <= 3));
        assert_eq!(set.total_members(), 4);
    }

    fn stored_similarities(set: &ClusterSet) -> usize {
        set.iter()
            .filter_map(|(_, c)| c.seed_similarities())
            .map(|s| s.sims.len())
            .sum()
    }

    /// A cluster formed by a seed round, with at least one non-seed member.
    fn seeded_cluster(set: &ClusterSet) -> (ClusterId, GraphId, GraphId) {
        set.iter()
            .find_map(|(cid, c)| {
                let seed = c.seed_similarities()?;
                let member = *seed.sims.keys().next()?;
                Some((cid, seed.seed, member))
            })
            .expect("a seeded cluster")
    }

    #[test]
    fn split_keeps_seed_similarities_within_membership() {
        let mut db = GraphDb::from_graphs((0..3).map(|i| path(&[0, 1, i % 2])));
        let (mut set, lattice) = build_set(&db, 1, 3);
        for i in 0..6 {
            let id = db.insert(path(&[0, 1, 0, i % 2]));
            let graph = db.get(id).unwrap().clone();
            set.assign(&db, &lattice, id, &graph);
            assert!(stored_similarities(&set) <= set.total_members());
            for (_, cluster) in set.iter() {
                if let Some(seed) = cluster.seed_similarities() {
                    assert!(cluster.members().contains(&seed.seed));
                    assert!(!seed.sims.contains_key(&seed.seed));
                    assert!(seed.sims.keys().all(|m| cluster.members().contains(m)));
                }
            }
        }
        assert!(
            stored_similarities(&set) > 0,
            "splits formed seeded clusters"
        );
    }

    #[test]
    fn removing_a_member_drops_its_similarity() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 1, 3);
        let (cid, seed, member) = seeded_cluster(&set);
        let before = set.get(cid).unwrap().seed_similarities().unwrap().clone();
        set.remove(member, &db.get(member).unwrap().clone());
        let after = set.get(cid).unwrap().seed_similarities().unwrap();
        assert_eq!(after.seed, seed);
        assert!(!after.sims.contains_key(&member));
        assert_eq!(after.sims.len(), before.sims.len() - 1);
    }

    #[test]
    fn removing_the_seed_clears_the_similarities() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 1, 3);
        let (cid, seed, _) = seeded_cluster(&set);
        set.remove(seed, &db.get(seed).unwrap().clone());
        let cluster = set.get(cid).expect("other members remain");
        assert!(cluster.seed_similarities().is_none());
    }

    #[test]
    fn remove_updates_membership_and_csg() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        let victim = db.ids().next().unwrap();
        let graph = db.get(victim).unwrap().clone();
        let cid = set.cluster_of(victim).unwrap();
        let before = set.get(cid).unwrap().len();
        let affected = set.remove(victim, &graph);
        assert_eq!(affected, Some(cid));
        assert_eq!(set.get(cid).unwrap().len(), before - 1);
        assert!(set.cluster_of(victim).is_none());
        assert!(!set.get(cid).unwrap().csg().members().contains(&victim));
    }

    #[test]
    fn removing_last_member_drops_cluster() {
        let db = GraphDb::from_graphs([path(&[0, 1])]);
        let (mut set, _) = build_set(&db, 1, 10);
        let id = db.ids().next().unwrap();
        let graph = db.get(id).unwrap().clone();
        set.remove(id, &graph);
        assert!(set.is_empty());
    }

    #[test]
    fn remove_unknown_graph_is_none() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        assert_eq!(set.remove(GraphId(999), &path(&[0, 1])), None);
    }

    #[test]
    fn assign_into_empty_set_creates_cluster() {
        let mut db = GraphDb::new();
        let (mut set, lattice) = {
            let empty = GraphDb::new();
            build_set(&empty, 2, 10)
        };
        let id = db.insert(path(&[0, 1]));
        let graph = db.get(id).unwrap().clone();
        let affected = set.assign(&db, &lattice, id, &graph);
        assert_eq!(affected.len(), 1);
        assert_eq!(set.total_members(), 1);
    }

    #[test]
    fn take_dirty_clears_flags() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        let dirty = set.take_dirty();
        assert_eq!(dirty.len(), set.len(), "all fresh clusters are dirty");
        assert!(set.take_dirty().is_empty());
    }

    #[test]
    fn centroid_updates_match_rebuild() {
        let mut db = two_family_db();
        let (mut set, lattice) = build_set(&db, 2, 100);
        let id = db.insert(path(&[0, 1, 0, 1]));
        let graph = db.get(id).unwrap().clone();
        // Update lattice supports as the framework would.
        let mut lattice = lattice;
        let keys: Vec<_> = lattice.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            let entry = lattice.get(&key).unwrap();
            if midas_graph::isomorphism::is_subgraph_of(&entry.tree, &graph) {
                let mut e = entry.clone();
                e.support.insert(id);
                lattice.insert(key, e);
            }
        }
        set.assign(&db, &lattice, id, &graph);
        let cid = set.cluster_of(id).unwrap();
        let cluster = set.get(cid).unwrap();
        // Recompute mean from scratch and compare.
        let members: Vec<GraphId> = cluster.members().iter().copied().collect();
        let mut expect = vec![0.0; set.feature_space().dims()];
        for m in &members {
            let v = set.feature_space().vector(&lattice, *m);
            for &j in &v.0 {
                expect[j as usize] += 1.0;
            }
        }
        for x in &mut expect {
            *x /= members.len() as f64;
        }
        for (got, want) in cluster.centroid().iter().zip(&expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
