//! End-to-end telemetry: Algorithm-1 phase spans must tile PMT, the
//! bootstrap sub-spans must tile bootstrap, the required counters must
//! appear in a batch's snapshot, and both exporters must emit valid JSON.
//!
//! The telemetry switch is process-global, so every test here holds a
//! shared lock and restores the disabled default before releasing it.

use midas_catapult::select::select_patterns_unmemoized;
use midas_core::framework::Midas;
use midas_graph::{BatchUpdate, GraphBuilder, GraphDb, LabeledGraph};
use midas_obs::{json, MetricsSnapshot, TelemetryConfig};
use midas_tests::{path, test_config};
use std::sync::{Mutex, MutexGuard};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn seed_db() -> GraphDb {
    GraphDb::from_graphs((0..24).map(|i| path(&[0, 1, 2, 0, (i % 3) as u32])))
}

fn dense_wave() -> Vec<LabeledGraph> {
    let brick = GraphBuilder::new()
        .vertices(&[3, 3, 3, 3])
        .path(&[0, 1, 2, 3])
        .edge(0, 2)
        .edge(1, 3)
        .edge(0, 3)
        .build();
    vec![brick; 16]
}

/// The Algorithm-1 phase spans, in pipeline order.
const PHASES: &[&str] = &[
    "batch.ingest",
    "batch.fct",
    "batch.cluster",
    "batch.index",
    "batch.classify",
    "batch.candidates",
    "batch.swap",
];

#[test]
fn phase_spans_tile_pattern_maintenance_time() {
    let _g = exclusive();
    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true; // metrics only; no trace.json side effect
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    // Every phase that ran left exactly one span; together they must cover
    // at least 95% of PMT (what is left over is Vec bookkeeping between
    // phases and the snapshot captures themselves).
    let telemetry = &report.telemetry;
    for phase in &PHASES[..5] {
        assert_eq!(telemetry.span(phase).count, 1, "span {phase}");
    }
    let covered = telemetry.span_total(PHASES);
    let pmt = report.pattern_maintenance_time;
    assert!(
        covered.as_secs_f64() >= 0.95 * pmt.as_secs_f64(),
        "phase spans cover {covered:?} of PMT {pmt:?}"
    );

    // The counters the CI schema gate requires, plus phase accounting.
    assert!(telemetry.counter("pmt_us") > 0);
    assert!(telemetry.counter("vf2.nodes") > 0);
    assert!(telemetry.counter("cache.hits") + telemetry.counter("cache.misses") > 0);
    assert_eq!(telemetry.counter("batch.inserted"), 16);
    assert_eq!(
        telemetry.counter("monitor.major") + telemetry.counter("monitor.minor"),
        1,
        "snapshot delta is scoped to exactly one batch"
    );
    // PGT phases only run on a major modification; this wave forces one.
    assert!(telemetry.counter("monitor.major") == 1, "wave drifts");
    assert_eq!(telemetry.span("batch.candidates").count, 1);
    assert_eq!(telemetry.span("batch.swap").count, 1);
    assert_eq!(telemetry.span("batch.swap.score").count, 1);
    assert!(telemetry.span("batch.swap.scan").count >= 1);
}

/// The bootstrap sub-spans, in pipeline order.
const BOOTSTRAP_PHASES: &[&str] = &[
    "bootstrap.fct",
    "bootstrap.cluster",
    "bootstrap.select",
    "bootstrap.index",
];

#[test]
fn bootstrap_sub_spans_tile_bootstrap_and_selection_counts_every_candidate() {
    let _g = exclusive();
    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true;
    // A span name's first record registers it, between the sub-spans; on
    // a bootstrap this small that one-off cost shows, so measure a second
    // bootstrap.
    Midas::bootstrap(seed_db(), cfg).unwrap();
    let baseline = MetricsSnapshot::capture();
    let midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let telemetry = MetricsSnapshot::capture().since(&baseline);

    let bootstrap = telemetry.span("bootstrap");
    assert_eq!(bootstrap.count, 1);
    for phase in BOOTSTRAP_PHASES {
        assert_eq!(telemetry.span(phase).count, 1, "span {phase}");
    }
    let covered = telemetry.span_total(BOOTSTRAP_PHASES);
    assert!(
        covered.as_secs_f64() >= 0.95 * bootstrap.total().as_secs_f64(),
        "sub-spans cover {covered:?} of bootstrap {:?}",
        bootstrap.total()
    );

    // Scoring every candidate afresh counts each candidate considered once;
    // the memoized bootstrap run splits the same candidates into scored
    // classes and memo reads.
    let scored = telemetry.counter("catapult.scored");
    let reused = telemetry.counter("catapult.score_reused");
    let baseline = MetricsSnapshot::capture();
    let fresh = select_patterns_unmemoized(
        midas.clusters(),
        &midas.fct_state().edges,
        midas.db().len(),
        &midas.config().selection(),
    );
    let considered = MetricsSnapshot::capture()
        .since(&baseline)
        .counter("catapult.scored");
    TelemetryConfig::default().activate();
    assert!(scored > 0);
    assert!(reused > 0, "repeated classes are read from the memo");
    assert_eq!(scored + reused, considered);
    assert_eq!(fresh, midas.patterns());
}

#[test]
fn splitting_batch_records_split_spans_and_mccs_counters() {
    let _g = exclusive();
    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true;
    cfg.max_cluster_size = 8;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let telemetry = &report.telemetry;
    let splits = telemetry.counter("cluster.splits");
    assert!(
        splits >= 1,
        "16 inserts into clusters of at most 8 must split"
    );
    assert_eq!(telemetry.span("batch.cluster.split").count, splits);
    assert!(telemetry.counter("cluster.mccs_calls") > 0);
    assert!(
        telemetry.counter("cluster.mccs_reused") > 0,
        "repeat splits around one seed reuse its similarities"
    );
}

#[test]
fn metrics_snapshot_exports_valid_json() {
    let _g = exclusive();
    let mut cfg = test_config(11);
    cfg.telemetry.enabled = true;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let doc = report.telemetry.to_json();
    json::validate(&doc).expect("metrics JSON validates");
    for key in ["\"pmt_us\"", "\"cache.hits\"", "\"vf2.nodes\"", "\"spans\""] {
        assert!(doc.contains(key), "metrics.json must contain {key}");
    }

    // Round-trip through a file, as the CI gate consumes it.
    let file = std::env::temp_dir().join(format!("midas-metrics-{}.json", std::process::id()));
    report.telemetry.write(&file).expect("write metrics.json");
    let read_back = std::fs::read_to_string(&file).expect("read metrics.json");
    json::validate(&read_back).expect("file round-trip validates");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn trace_export_is_valid_chrome_trace() {
    let _g = exclusive();
    let trace_file = std::env::temp_dir().join(format!("midas-trace-{}.json", std::process::id()));
    std::env::set_var("MIDAS_TRACE_OUT", &trace_file);
    let mut cfg = test_config(13);
    cfg.telemetry.enabled = true;
    cfg.telemetry.trace = true;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let _report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();
    std::env::remove_var("MIDAS_TRACE_OUT");

    let doc = std::fs::read_to_string(&trace_file).expect("trace.json written");
    let _ = std::fs::remove_file(&trace_file);
    json::validate(&doc).expect("trace JSON validates");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\": \"X\""));
    assert!(doc.contains("\"batch.ingest\""));
    assert!(doc.contains("\"displayTimeUnit\": \"ms\""));
}

#[test]
fn disabled_telemetry_leaves_no_trace_in_reports() {
    let _g = exclusive();
    TelemetryConfig::default().activate();
    let mut midas = Midas::bootstrap(seed_db(), test_config(17)).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
    assert!(report.telemetry.is_empty());
    assert!(MetricsSnapshot::capture()
        .since(&MetricsSnapshot::capture())
        .counters
        .is_empty());
}
