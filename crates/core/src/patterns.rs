//! The canned pattern store: stable [`PatternId`]s for the TP/EP matrix
//! columns, isomorphism-deduplicated membership.

use midas_graph::canonical::canonical_code;
use midas_graph::{CanonicalCode, LabeledGraph};
use midas_index::PatternId;
use std::collections::BTreeMap;

/// The current canned pattern set `P`, with stable ids.
#[derive(Debug, Clone, Default)]
pub struct PatternStore {
    patterns: BTreeMap<PatternId, (LabeledGraph, CanonicalCode)>,
    next: u64,
}

impl PatternStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store from initial patterns (e.g. CATAPULT's selection).
    pub fn from_patterns<I>(patterns: I) -> Self
    where
        I: IntoIterator<Item = LabeledGraph>,
    {
        let mut store = Self::new();
        for p in patterns {
            store.insert(p);
        }
        store
    }

    /// Inserts a pattern; returns `None` (and drops it) when an isomorphic
    /// pattern is already present.
    pub fn insert(&mut self, pattern: LabeledGraph) -> Option<PatternId> {
        let code = canonical_code(&pattern);
        if self.patterns.values().any(|(_, c)| *c == code) {
            return None;
        }
        let id = PatternId(self.next);
        self.next += 1;
        self.patterns.insert(id, (pattern, code));
        Some(id)
    }

    /// Removes a pattern by id.
    pub fn remove(&mut self, id: PatternId) -> Option<LabeledGraph> {
        self.patterns.remove(&id).map(|(g, _)| g)
    }

    /// Looks up a pattern.
    pub fn get(&self, id: PatternId) -> Option<&LabeledGraph> {
        self.patterns.get(&id).map(|(g, _)| g)
    }

    /// Whether an isomorphic pattern is present.
    pub fn contains_isomorphic(&self, pattern: &LabeledGraph) -> bool {
        self.contains_code(&canonical_code(pattern))
    }

    /// Whether a pattern with canonical code `code` is present.
    pub(crate) fn contains_code(&self, code: &CanonicalCode) -> bool {
        self.patterns.values().any(|(_, c)| c == code)
    }

    /// Number of patterns `|P|`.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterates `(id, pattern)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &LabeledGraph)> {
        self.patterns.iter().map(|(&id, (g, _))| (id, g))
    }

    /// The patterns as a vector (id order).
    pub fn graphs(&self) -> Vec<LabeledGraph> {
        self.patterns.values().map(|(g, _)| g.clone()).collect()
    }

    /// The sizes (edge counts) of all patterns, id order — input to the KS
    /// guard.
    pub fn sizes(&self) -> Vec<usize> {
        self.patterns
            .values()
            .map(|(g, _)| g.edge_count())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn insert_assigns_fresh_ids() {
        let mut store = PatternStore::new();
        let a = store.insert(path(&[0, 1])).unwrap();
        let b = store.insert(path(&[0, 2])).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn isomorphic_duplicates_are_rejected() {
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        // Same path written backwards.
        assert!(store.insert(path(&[2, 1, 0])).is_none());
        assert_eq!(store.len(), 1);
        assert!(store.contains_isomorphic(&path(&[0, 1, 2])));
    }

    #[test]
    fn remove_frees_the_structure_for_reinsertion() {
        let mut store = PatternStore::new();
        let id = store.insert(path(&[0, 1])).unwrap();
        let got = store.remove(id).unwrap();
        assert_eq!(got.edge_count(), 1);
        assert!(store.is_empty());
        let id2 = store.insert(path(&[0, 1])).unwrap();
        assert_ne!(id, id2, "ids are never reused");
    }

    #[test]
    fn sizes_and_graphs_align() {
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1])).unwrap();
        store.insert(path(&[0, 1, 2])).unwrap();
        assert_eq!(store.sizes(), vec![1, 2]);
        assert_eq!(store.graphs().len(), 2);
    }

    #[test]
    fn get_and_iter() {
        let mut store = PatternStore::new();
        let id = store.insert(path(&[0, 1])).unwrap();
        assert!(store.get(id).is_some());
        assert_eq!(store.iter().count(), 1);
        assert!(store.get(PatternId(99)).is_none());
    }
}
