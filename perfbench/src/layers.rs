//! Per-layer measurements: the phase split of each [`MaintenanceReport`],
//! the program's own telemetry counters, and the set-up split timed
//! around each public builder.

use crate::sched::ms;
use crate::stats::Samples;
use crate::{host, trace, Metrics};
use midas_catapult::select_patterns;
use midas_cluster::{ClusterSet, FeatureSpace};
use midas_core::monitor::GraphletMonitor;
use midas_core::{MaintenanceReport, MidasConfig, ModificationKind, PatternStore};
use midas_graph::{GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::incremental::FctState;
use midas_mining::TreeKey;
use midas_obs::MetricsSnapshot;
use std::collections::BTreeSet;
use std::time::Instant;

/// What the benchmark keeps of one applied batch.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    pub major: bool,
    /// Wall time of the `apply_batch` call, as the benchmark timed it.
    pub wall_ms: f64,
    /// The host-speed calibration piece run just before the call.
    pub mark: usize,
    pub pmt_ms: f64,
    pub swap_ms: f64,
    pub candidates_ms: f64,
    pub cluster_ms: f64,
    pub fct_ms: f64,
    pub index_ms: f64,
    pub candidates: usize,
    pub swaps: usize,
    pub error: bool,
    pub telemetry: MetricsSnapshot,
}

impl BatchRecord {
    pub fn of(r: &MaintenanceReport, wall_ms: f64, mark: usize) -> BatchRecord {
        BatchRecord {
            major: r.kind == ModificationKind::Major,
            wall_ms,
            mark,
            pmt_ms: ms(r.pattern_maintenance_time),
            swap_ms: ms(r.swap_time),
            candidates_ms: ms(r.candidate_time),
            cluster_ms: ms(r.clustering_time),
            fct_ms: ms(r.fct_time),
            index_ms: ms(r.index_time),
            candidates: r.candidates_generated,
            swaps: r.swaps,
            error: r.error.is_some(),
            telemetry: r.telemetry.clone(),
        }
    }

    /// PMT minus the five timed phases: ingest, classify and publish.
    pub fn other_ms(&self) -> f64 {
        (self.pmt_ms
            - self.swap_ms
            - self.candidates_ms
            - self.cluster_ms
            - self.fct_ms
            - self.index_ms)
            .max(0.0)
    }
}

/// The median, or 0 when there are no samples (a class that never ran).
pub fn median_or_zero(s: &Samples) -> f64 {
    if s.len() == 0 {
        0.0
    } else {
        s.median()
    }
}

/// PMT of the major and of the minor batches.
pub fn pmt_medians(records: &[BatchRecord]) -> (Samples, Samples) {
    let mut major = Samples::default();
    let mut minor = Samples::default();
    for r in records {
        if r.major {
            major.push(r.pmt_ms);
        } else {
            minor.push(r.pmt_ms);
        }
    }
    (major, minor)
}

/// Per batch, the record with the lowest PMT among `runs`, each run being
/// the same batch sequence applied again. The work is deterministic, so
/// host load can only add time; the fastest run is the least disturbed.
pub fn fastest(runs: &[Vec<BatchRecord>]) -> Vec<BatchRecord> {
    (0..runs[0].len())
        .map(|i| {
            runs.iter()
                .map(|r| &r[i])
                .min_by(|a, b| a.pmt_ms.total_cmp(&b.pmt_ms))
                .expect("at least one run")
                .clone()
        })
        .collect()
}

/// Per batch, the median over `runs` (the same sequence applied again)
/// of `f` of its record.
fn per_batch_median(runs: &[Vec<BatchRecord>], f: impl Fn(&BatchRecord) -> f64) -> Vec<f64> {
    (0..runs[0].len())
        .map(|i| Samples(runs.iter().map(|r| f(&r[i])).collect()).median())
        .collect()
}

/// The gated maintenance times of `runs`, each the same batch sequence
/// applied again (`what` says how): `maintain_s`, the sequence's summed
/// `apply_batch` time, and `pmt_minor_ms`, the median PMT of its Minor
/// batches. Each batch counts with its median over the runs, at the
/// reference host speed (see [`host`]).
pub fn maintenance_times(runs: &[Vec<BatchRecord>], what: &str, m: &mut Metrics) {
    let total =
        |f: &dyn Fn(&BatchRecord) -> f64| per_batch_median(runs, f).iter().sum::<f64>() / 1e3;
    let minor = |f: &dyn Fn(&BatchRecord) -> f64| {
        let v = per_batch_median(runs, f);
        Samples(
            v.iter()
                .zip(&runs[0])
                .filter(|(_, r)| !r.major)
                .map(|(x, _)| *x)
                .collect(),
        )
    };
    m.time(
        "maintain_s",
        total(&|r| host::reference(r.wall_ms, r.mark)),
        total(&|r| r.wall_ms),
        "s",
        &format!(
            "{} batches, each the median of {what}, summed",
            runs[0].len()
        ),
    );
    let wall = minor(&|r| r.pmt_ms);
    m.time(
        "pmt_minor_ms",
        minor(&|r| host::reference(r.pmt_ms, r.mark)).median(),
        wall.median(),
        "ms",
        &format!(
            "median of {} Minor batches, each the median of {what}",
            wall.len()
        ),
    );
}

/// The `core.*` phase split, summed per class, plus the swap counts and
/// the program's telemetry counters (non-zero only with telemetry on).
pub fn core_metrics(records: &[BatchRecord], m: &mut Metrics) {
    type Phase = fn(&BatchRecord) -> f64;
    let phases: [(&str, Phase); 6] = [
        ("swap", |r| r.swap_ms),
        ("candidates", |r| r.candidates_ms),
        ("cluster", |r| r.cluster_ms),
        ("fct", |r| r.fct_ms),
        ("index", |r| r.index_ms),
        ("other", BatchRecord::other_ms),
    ];
    for (name, f) in phases {
        for (class, major) in [("major", true), ("minor", false)] {
            // `0.0 +`: an empty f64 sum is -0.0.
            let total: f64 = 0.0
                + records
                    .iter()
                    .filter(|r| r.major == major)
                    .map(f)
                    .sum::<f64>();
            m.layer(&format!("core.{name}_ms.{class}"), total, "ms", "summed");
        }
    }
    let majors = records.iter().filter(|r| r.major).count();
    let candidates: usize = records.iter().map(|r| r.candidates).sum();
    let swaps: usize = records.iter().map(|r| r.swaps).sum();
    m.layer("core.major_batches", majors as f64, "count", "");
    m.layer(
        "core.minor_batches",
        (records.len() - majors) as f64,
        "count",
        "",
    );
    m.layer("core.candidates", candidates as f64, "count", "");
    m.layer("core.swaps", swaps as f64, "count", "");
    m.layer(
        "core.swap_yield",
        if candidates == 0 {
            0.0
        } else {
            swaps as f64 / candidates as f64
        },
        "ratio",
        "swaps / candidates",
    );
    let all: Samples = Samples(records.iter().map(|r| r.pmt_ms).collect());
    m.layer("core.apply_ms", all.median(), "ms", "median per batch");

    let counter = |name: &str| -> f64 {
        records
            .iter()
            .map(|r| r.telemetry.counter(name) as f64)
            .sum()
    };
    let scans: u64 = records
        .iter()
        .map(|r| r.telemetry.span("batch.swap.scan").count)
        .sum();
    let scan_us: u64 = records
        .iter()
        .map(|r| r.telemetry.span("batch.swap.scan").total_us)
        .sum();
    m.layer("cluster.splits", counter("cluster.splits"), "count", "");
    m.layer("core.swap_scans", scans as f64, "count", "");
    m.layer("core.swap_scan_ms", scan_us as f64 / 1e3, "ms", "");
    m.layer("fct.rebuilds", counter("fct.rebuilds"), "count", "");
    let hits = counter("cache.hits");
    let misses = counter("cache.misses");
    m.layer(
        "graph.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
        "cache.hits / (hits + misses)",
    );
    m.layer("graph.plan_searches", counter("plan.searches"), "count", "");
    m.layer("graph.vf2_searches", counter("vf2.searches"), "count", "");
    m.layer("exec.fanouts", counter("exec.fanouts"), "count", "");
    m.layer("exec.tasks", counter("exec.tasks"), "count", "");
}

/// Times each public builder of `Midas::bootstrap` once on `db`, in the
/// order bootstrap runs them. Returns the summed seconds.
pub fn setup_split(dbs: &[GraphDb], config: &MidasConfig, m: &mut Metrics) -> f64 {
    let mut t = [0.0f64; 5];
    for (i, db) in dbs.iter().enumerate() {
        let req = i as u64;
        let root = trace::open("core.setup_split", req, None);
        let stage =
            |k: usize, name: &'static str| (k, trace::open(name, req, root.id()), Instant::now());
        let end = |(k, span, begin): (usize, trace::Open, Instant), t: &mut [f64; 5]| {
            t[k] += begin.elapsed().as_secs_f64();
            span.close();
        };
        let s = stage(0, "mining.fct_build");
        let fct_state = FctState::build(db, config.mining());
        end(s, &mut t);

        let s = stage(1, "cluster.build");
        let space = FeatureSpace::from_fct(&fct_state.lattice, config.sup_min, db.len());
        let clusters = ClusterSet::build(db, &fct_state.lattice, space, config.clustering());
        end(s, &mut t);

        let s = stage(2, "catapult.select");
        let patterns = PatternStore::from_patterns(select_patterns(
            &clusters,
            &fct_state.edges,
            db.len(),
            &config.selection(),
        ));
        end(s, &mut t);

        let s = stage(3, "index.build");
        let (fct_index, ife_index) = build_indices(db, &fct_state, &patterns, config);
        end(s, &mut t);
        std::hint::black_box((&fct_index, &ife_index));

        let s = stage(4, "core.monitor_build");
        let monitor = GraphletMonitor::build(db);
        end(s, &mut t);
        std::hint::black_box(&monitor);
        root.close();
    }
    let names = [
        "mining.fct_build_s",
        "cluster.build_s",
        "catapult.select_s",
        "index.build_s",
        "core.monitor_build_s",
    ];
    for (name, v) in names.iter().zip(t) {
        m.layer(name, v, "s", "one build per initial database");
    }
    t.iter().sum()
}

/// The index build as bootstrap performs it: FCT features plus frequent
/// single edges as FCT-Index rows, infrequent edges in the IFE-Index.
/// A copy of the private `build_indices` in `crates/core/src/framework.rs`,
/// which bootstrap does not time on its own; keep the two in step.
fn build_indices(
    db: &GraphDb,
    fct_state: &FctState,
    patterns: &PatternStore,
    config: &MidasConfig,
) -> (FctIndex, IfeIndex) {
    let db_len = db.len();
    let kernel = MatchKernel::with_matcher(config.threads, config.matcher);
    let graph_refs: Vec<(GraphId, &LabeledGraph)> =
        db.iter().map(|(id, g)| (id, g.as_ref())).collect();
    let pattern_refs: Vec<(PatternId, &LabeledGraph)> = patterns.iter().collect();
    let fct_trees = fct_state
        .fct(db_len)
        .into_iter()
        .map(|(k, e)| (k.clone(), e.tree.clone()));
    let freq_edges = fct_state
        .edges
        .frequent(config.sup_min, db_len)
        .into_iter()
        .map(|(label, _)| {
            let tree = midas_mining::canonical::edge_tree(label.0, label.1);
            (midas_mining::tree_key(&tree), tree)
        });
    let mut seen = BTreeSet::new();
    let features: Vec<(TreeKey, LabeledGraph)> = fct_trees
        .chain(freq_edges)
        .filter(|(k, _)| seen.insert(k.clone()))
        .collect();
    let fct_index = FctIndex::build_with(&kernel, features, &graph_refs, &pattern_refs);
    let infrequent: BTreeSet<midas_graph::EdgeLabel> = fct_state
        .edges
        .infrequent(config.sup_min, db_len)
        .into_iter()
        .map(|(label, _)| label)
        .collect();
    let ife_index = IfeIndex::build(
        infrequent,
        graph_refs.iter().copied(),
        pattern_refs.iter().copied(),
    );
    (fct_index, ife_index)
}

/// Median time of one call, microseconds, over `n` calls.
pub fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..n {
        let begin = Instant::now();
        f();
        s.push(begin.elapsed().as_secs_f64() * 1e6);
    }
    s.median()
}

/// Steps to formulate every query against every pattern set, averaged.
pub fn mean_steps(queries: &[LabeledGraph], epochs: &[Vec<LabeledGraph>]) -> f64 {
    let mut total = 0usize;
    let mut n = 0usize;
    for patterns in epochs {
        for q in queries {
            total += midas_queryform::formulate(q, patterns).steps;
            n += 1;
        }
    }
    total as f64 / n.max(1) as f64
}
