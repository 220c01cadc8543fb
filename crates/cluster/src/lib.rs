//! # midas-cluster
//!
//! Small-graph clustering and cluster summary graphs (CSGs) for
//! CATAPULT / CATAPULT++ / MIDAS (§2.3, §4.3–4.4 of the paper).
//!
//! * [`features`] — sparse binary feature vectors over frequent (closed)
//!   trees. Feature membership comes straight from the exact support sets
//!   maintained by `midas-mining`, so no isomorphism tests are needed here.
//! * [`mod@kmeans`] — k-means with k-means++ seeding over those vectors
//!   (the *coarse clustering* step).
//! * [`fine`] — MCCS-similarity-based splitting of oversized coarse
//!   clusters (the *fine clustering* step, max cluster size `N`), reusing
//!   the seed similarities a cluster kept from its last split.
//! * [`clusters`] — the [`ClusterSet`]: clusters with centroids and CSGs,
//!   plus the incremental maintenance of §4.3 (assign / remove /
//!   re-fine-cluster) and §4.4 (CSG edge-support updates).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clusters;
pub mod features;
pub mod fine;
pub mod kmeans;

pub use clusters::{Cluster, ClusterConfig, ClusterId, ClusterSet};
pub use features::{FeatureSpace, FeatureVector};
pub use fine::{fine_cluster, FineGroup, SeedSimilarities};
pub use kmeans::{kmeans, KmeansResult};
