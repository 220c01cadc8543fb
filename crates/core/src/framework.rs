//! The MIDAS framework — Algorithm 1 end to end.
//!
//! [`Midas`] owns the database and every derived structure (FCT lattice,
//! edge catalog, clusters + CSGs, graphlet monitor, FCT-/IFE-Index, and the
//! canned pattern set). [`Midas::apply_batch`] is Algorithm 1:
//!
//! 1. capture `ψ_D`, apply `ΔD` to the database;
//! 2. maintain the FCT state (§4.2) and the edge catalog;
//! 3. assign `Δ⁺` to clusters / remove `Δ⁻` (§4.3), with CSG updates
//!    (§4.4) and fine re-clustering along the way;
//! 4. maintain the indices (§5.1);
//! 5. classify the modification by graphlet drift (§3.4); for a **major**
//!    one, generate promising candidates from dirty CSGs (§5.2) and run
//!    the multi-scan swap (§6.2).
//!
//! Every phase is timed; the report exposes PMT (total) and PGT
//! (candidate generation + swapping), the quantities §7 plots.
//!
//! When telemetry is enabled (`MidasConfig::telemetry`, or the
//! `MIDAS_TELEMETRY` environment variable — see `midas-obs`), each phase
//! additionally runs under a span (`batch.ingest`, `batch.fct`,
//! `batch.cluster`, `batch.index`, `batch.classify`, `batch.candidates`,
//! `batch.swap`), the batch records `pmt_us`/`pgt_us` counters, and the
//! report carries a [`MetricsSnapshot`] delta scoped to just that batch.

use crate::candidate_gen::{
    coverage_state, generate_promising_candidates, Candidate, GenerationParams,
};
use crate::config::MidasConfig;
use crate::metrics::ScovContext;
use crate::monitor::{classify, GraphletMonitor, Modification};
use crate::patterns::PatternStore;
use crate::published::{PatternSnapshot, Published};
use crate::sampling::sample_database;
use crate::swap::{multi_scan_swap, SwapParams, SwapScope};
use midas_catapult::score::SetQuality;
use midas_catapult::{select_patterns, WeightedCsg};
use midas_cluster::{ClusterSet, FeatureSpace};
use midas_graph::{BatchUpdate, GraphDb, GraphId, KernelError, LabeledGraph, MatchKernel};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::incremental::FctState;
use midas_mining::TreeKey;
use midas_obs::{MetricsSnapshot, TelemetryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a batch was classified and handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModificationKind {
    /// Type 1: patterns were maintained.
    Major,
    /// Type 2: only clusters/CSGs/indices were maintained.
    Minor,
}

/// Timing and outcome report for one batch (the measurements of §7).
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Major or minor modification.
    pub kind: ModificationKind,
    /// Graphlet-distribution distance `dist(ψ_D, ψ_{D⊕ΔD})`.
    pub distance: f64,
    /// Total pattern maintenance time (PMT).
    pub pattern_maintenance_time: Duration,
    /// Cluster + CSG maintenance time.
    pub clustering_time: Duration,
    /// FCT maintenance time.
    pub fct_time: Duration,
    /// Index maintenance time.
    pub index_time: Duration,
    /// Candidate generation time (half of PGT).
    pub candidate_time: Duration,
    /// Swap time (the other half of PGT).
    pub swap_time: Duration,
    /// Number of promising candidates generated.
    pub candidates_generated: usize,
    /// Number of swaps performed.
    pub swaps: usize,
    /// Metrics delta scoped to this batch (empty when telemetry is off):
    /// phase spans, `pmt_us`/`pgt_us`, VF2 and cache counters, exec
    /// fan-out accounting.
    pub telemetry: MetricsSnapshot,
    /// A worker panic contained during this batch (e.g. an injected
    /// `MIDAS_FAULT`): the failing phase was abandoned, later
    /// pattern-maintenance phases were skipped, and the process kept
    /// running. `None` on a healthy batch.
    pub error: Option<KernelError>,
}

impl MaintenanceReport {
    /// Pattern generation time PGT = candidate generation + swapping
    /// (Exp 1's definition).
    pub fn pattern_generation_time(&self) -> Duration {
        self.candidate_time + self.swap_time
    }
}

/// The MIDAS framework state.
pub struct Midas {
    config: MidasConfig,
    db: GraphDb,
    fct_state: FctState,
    clusters: ClusterSet,
    monitor: GraphletMonitor,
    fct_index: FctIndex,
    ife_index: IfeIndex,
    patterns: PatternStore,
    kernel: MatchKernel,
    batch_counter: u64,
    obs_server: Option<midas_obs::ObsServer>,
    /// The serving-side pattern snapshot: republished after bootstrap and
    /// at the end of every batch, read lock-free (never blocked by a
    /// batch) by any thread holding [`Midas::snapshot_handle`].
    published: Published<PatternSnapshot>,
}

impl Midas {
    /// Bootstraps MIDAS on an initial database: mines the FCT state,
    /// clusters with FCT features (the CATAPULT++ configuration), selects
    /// the initial pattern set, and builds both indices.
    ///
    /// Returns `Err` only if the database is empty.
    pub fn bootstrap(db: GraphDb, mut config: MidasConfig) -> Result<Self, String> {
        config.telemetry = config.telemetry.from_env();
        if let Some(matcher) = midas_graph::MatcherKind::from_env() {
            config.matcher = matcher;
        }
        config.telemetry.activate();
        Midas::bootstrap_inner(db, config)
    }

    /// [`Midas::bootstrap`] for instances *embedded in a host daemon*
    /// (one per tenant in `midas-serve`): the configuration is taken
    /// exactly as given — no `MIDAS_*` environment overrides, and no
    /// per-instance observability server (the host process owns the
    /// single [`midas_obs::ObsServer`]; a second tenant would otherwise
    /// fight it for the `MIDAS_SERVE` port). Everything else — mining,
    /// clustering, selection, index builds, snapshot publication — is
    /// identical, so an embedded instance fed the same batches is
    /// bit-identical to a standalone one (the oracle's serve-vs-library
    /// parity check pins this).
    ///
    /// Unlike [`Midas::bootstrap`], this never calls
    /// [`TelemetryConfig::activate`]: global telemetry switches belong to
    /// the host process, and a tenant bootstrapping mid-flight must not
    /// flip them out from under the other tenants.
    pub fn bootstrap_embedded(db: GraphDb, mut config: MidasConfig) -> Result<Self, String> {
        config.telemetry.serve = false;
        Midas::bootstrap_inner(db, config)
    }

    fn bootstrap_inner(db: GraphDb, config: MidasConfig) -> Result<Self, String> {
        if db.is_empty() {
            return Err("cannot bootstrap MIDAS on an empty database".into());
        }
        // Live observability: bind the HTTP endpoints and arm the flight
        // recorder before any batch runs, so the very first crash or scrape
        // already has context.
        let obs_server = if config.telemetry.serve {
            midas_obs::flight::install_panic_hook();
            midas_obs::flight::set_span_capture(true);
            let addr = TelemetryConfig::serve_addr();
            match midas_obs::ObsServer::start(&addr) {
                Ok(server) => {
                    midas_obs::obs_info!(
                        "core::framework",
                        "observability endpoints on http://{}",
                        server.addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    midas_obs::obs_warn!(
                        "core::framework",
                        "failed to bind observability server on {addr}: {e}"
                    );
                    None
                }
            }
        } else {
            None
        };
        // The four `bootstrap.*` sub-spans tile the `bootstrap` span.
        let _span = midas_obs::span!("bootstrap");
        let fct_state = {
            let _phase = midas_obs::span!("bootstrap.fct");
            FctState::build(&db, config.mining())
        };
        let clusters = {
            let _phase = midas_obs::span!("bootstrap.cluster");
            let space = FeatureSpace::from_fct(&fct_state.lattice, config.sup_min, db.len());
            ClusterSet::build(&db, &fct_state.lattice, space, config.clustering())
        };
        let patterns = {
            let _phase = midas_obs::span!("bootstrap.select");
            PatternStore::from_patterns(select_patterns(
                &clusters,
                &fct_state.edges,
                db.len(),
                &config.selection(),
            ))
        };
        let (monitor, kernel, fct_index, ife_index) = {
            let _phase = midas_obs::span!("bootstrap.index");
            let monitor = GraphletMonitor::build(&db);
            let kernel = MatchKernel::with_matcher(config.threads, config.matcher);
            let (fct_index, ife_index) =
                build_indices(&db, &fct_state, &patterns, &config, &kernel);
            (monitor, kernel, fct_index, ife_index)
        };
        let mut midas = Midas {
            config,
            db,
            fct_state,
            clusters,
            monitor,
            fct_index,
            ife_index,
            patterns,
            kernel,
            batch_counter: 0,
            obs_server,
            published: Published::default(),
        };
        midas.publish_snapshot();
        midas.clusters.take_dirty(); // fresh clusters are not "modified"

        // Bootstrap mining floods the VF2 tail-latency reservoir with
        // one-time setup searches that carry no (pattern, graph)
        // attribution; the sentry watches steady-state maintenance, so
        // `/slow` starts fresh from the first batch.
        midas_obs::exemplar::series("vf2.search_ns", "ns").reset();
        Ok(midas)
    }

    /// The configuration.
    pub fn config(&self) -> &MidasConfig {
        &self.config
    }

    /// The bound address of the live observability endpoints, if
    /// [`TelemetryConfig::serve`] was set (e.g. via `MIDAS_SERVE`).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(|s| s.addr())
    }

    /// The current database.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The current canned pattern set.
    ///
    /// Routed through the published [`PatternSnapshot`] (not the mutable
    /// [`PatternStore`]), so every read path observes only complete,
    /// end-of-batch pattern sets.
    pub fn patterns(&self) -> Vec<LabeledGraph> {
        self.published.read().patterns.clone()
    }

    /// The latest published [`PatternSnapshot`]: the pattern set plus its
    /// epoch and the graphlet distribution at publish time. Cheap (`Arc`
    /// clone) and always a complete, immutable set.
    pub fn pattern_snapshot(&self) -> Arc<PatternSnapshot> {
        self.published.read()
    }

    /// A cloneable handle onto the published pattern snapshot, for reader
    /// threads that outlive any `&Midas` borrow (the closed-loop load
    /// harness's simulated users). Reads through the handle are never
    /// blocked by [`Midas::apply_batch`]: a batch assembles its new
    /// snapshot off to the side and swaps one `Arc` at the very end.
    pub fn snapshot_handle(&self) -> Published<PatternSnapshot> {
        self.published.clone()
    }

    /// Builds and publishes a fresh [`PatternSnapshot`] from the current
    /// store, monitor and batch counter.
    fn publish_snapshot(&self) {
        self.published.publish(PatternSnapshot {
            epoch: self.batch_counter,
            patterns: self.patterns.graphs(),
            graphlets: self.monitor.distribution(),
            db_len: self.db.len(),
            published_unix_ms: midas_obs::flight::unix_ms(),
        });
        midas_obs::counter_add!("patterns.published", 1);
        midas_obs::gauge_set!("patterns.snapshot_epoch", self.batch_counter as f64);
    }

    /// The maintained small-pattern strip (single frequent edges), empty
    /// unless `config.small_pattern_slots > 0`. Refreshed from the edge
    /// catalog, so it is always consistent with the current database —
    /// the η_min ≤ 2 maintenance of §3.1's Remark.
    pub fn small_patterns(&self) -> Vec<LabeledGraph> {
        crate::small_patterns::small_pattern_set(
            &self.fct_state.edges,
            self.config.small_pattern_slots,
        )
    }

    /// The pattern store (ids + graphs).
    pub fn pattern_store(&self) -> &PatternStore {
        &self.patterns
    }

    /// The cluster set.
    pub fn clusters(&self) -> &ClusterSet {
        &self.clusters
    }

    /// The FCT state (lattice + edge catalog).
    pub fn fct_state(&self) -> &FctState {
        &self.fct_state
    }

    /// The FCT-Index.
    pub fn fct_index(&self) -> &FctIndex {
        &self.fct_index
    }

    /// The IFE-Index.
    pub fn ife_index(&self) -> &IfeIndex {
        &self.ife_index
    }

    /// The parallel + memoized isomorphism kernel shared by every hot
    /// `(graph × pattern)` scan. Its cache is invalidated per graph as
    /// batches arrive, so answers are always current.
    pub fn kernel(&self) -> &MatchKernel {
        &self.kernel
    }

    /// Pattern-set quality over a fresh sample of the current database.
    pub fn quality(&self) -> SetQuality {
        let sample = self.sample();
        crate::metrics::quality_of_with(
            &self.kernel,
            &self.patterns.graphs(),
            &self.db,
            &self.fct_state.edges,
            &sample,
        )
    }

    fn sample(&self) -> BTreeSet<GraphId> {
        sample_database(
            &self.db,
            &self.clusters,
            self.config.sample_size,
            self.config.seed ^ self.batch_counter,
        )
    }

    /// Applies one batch update — Algorithm 1.
    pub fn apply_batch(&mut self, update: BatchUpdate) -> MaintenanceReport {
        self.apply_batch_with_strategy(update, SwapStrategy::MultiScan)
    }

    /// Applies a batch with an explicit swap strategy (the *Random*
    /// baseline reuses the entire pipeline with random swapping).
    pub fn apply_batch_with_strategy(
        &mut self,
        update: BatchUpdate,
        strategy: SwapStrategy,
    ) -> MaintenanceReport {
        let total_start = Instant::now();
        let telemetry_on = midas_obs::enabled();
        let baseline = if telemetry_on {
            MetricsSnapshot::capture()
        } else {
            MetricsSnapshot::default()
        };
        self.batch_counter += 1;

        // Ingest: apply ΔD and keep the graphlet monitor current.
        let ingest_span = midas_obs::span!("batch.ingest");
        let psi_before = self.monitor.distribution();

        // Capture Δ⁻ graphs before they leave the database.
        let deleted_graphs: Vec<(GraphId, Arc<LabeledGraph>)> = update
            .delete
            .iter()
            .filter_map(|&id| self.db.get(id).map(|g| (id, g.clone())))
            .collect();
        let (inserted, deleted_ids) = self.db.apply(update);
        midas_obs::counter_add!("batch.inserted", inserted.len() as u64);
        midas_obs::counter_add!("batch.deleted", deleted_ids.len() as u64);

        // Graphlet monitor (lines 3–4).
        for &id in &deleted_ids {
            self.monitor.remove_graph(id);
        }
        for &id in &inserted {
            self.monitor
                .add_graph(id, self.db.get(id).expect("inserted id"));
        }
        let psi_after = self.monitor.distribution();
        drop(ingest_span);

        // Every phase below runs fan-outs through the kernel; a worker panic
        // (including an injected `MIDAS_FAULT`) is contained here — the
        // failing phase is abandoned, later pattern-maintenance phases are
        // skipped, and the report carries the error instead of the process
        // aborting.
        let mut batch_error: Option<KernelError> = None;

        // FCT maintenance (line 5).
        let fct_span = midas_obs::span!("batch.fct");
        let fct_start = Instant::now();
        let deleted_refs: Vec<(GraphId, &LabeledGraph)> = deleted_graphs
            .iter()
            .map(|(id, g)| (*id, g.as_ref()))
            .collect();
        contain("batch.fct", &mut batch_error, || {
            self.fct_state
                .apply_batch(&self.db, &inserted, &deleted_refs);
        });
        let fct_time = fct_start.elapsed();
        drop(fct_span);
        midas_obs::alerts::record_phase("batch.fct", fct_time.as_micros() as u64);

        // Cluster + CSG maintenance (lines 1–2, 6–7).
        let cluster_span = midas_obs::span!("batch.cluster");
        let cluster_start = Instant::now();
        contain("batch.cluster", &mut batch_error, || {
            for (id, g) in &deleted_graphs {
                self.clusters.remove(*id, g);
            }
            for &id in &inserted {
                let graph = self.db.get(id).expect("inserted id").clone();
                self.clusters
                    .assign(&self.db, &self.fct_state.lattice, id, &graph);
            }
        });
        let clustering_time = cluster_start.elapsed();
        drop(cluster_span);
        midas_obs::alerts::record_phase("batch.cluster", clustering_time.as_micros() as u64);

        // Index maintenance (line 12 — we keep indices fresh every batch so
        // minor modifications leave them consistent too). The kernel passes
        // here are the fallible `try_*` fan-outs: a contained task panic
        // surfaces as a `KernelError` with the index left untouched.
        let index_span = midas_obs::span!("batch.index");
        let index_start = Instant::now();
        // Injected slowdown (`MIDAS_FAULT=slow:US`): burns wall-clock inside
        // this span so the SLO burn-rate alerts have a reproducible trigger.
        if let Some(us) = env_fault_slow_us() {
            std::thread::sleep(Duration::from_micros(us));
        }
        if let Some(Err(e)) = contain("batch.index", &mut batch_error, || {
            self.maintain_indices(&inserted, &deleted_ids)
        }) {
            record_kernel_error(&e);
            batch_error = Some(e);
        }
        let index_time = index_start.elapsed();
        drop(index_span);
        midas_obs::alerts::record_phase("batch.index", index_time.as_micros() as u64);

        // Classification (line 8).
        let classify_span = midas_obs::span!("batch.classify");
        let (kind, distance) = classify(&psi_before, &psi_after, self.config.epsilon);
        drop(classify_span);
        midas_obs::obs_info!(
            "core::framework",
            "batch {}: {kind:?} modification, drift {distance:.6} (ε = {})",
            self.batch_counter,
            self.config.epsilon
        );
        let mut candidate_time = Duration::ZERO;
        let mut swap_time = Duration::ZERO;
        let mut candidates_generated = 0;
        let mut swaps = 0;
        if kind == Modification::Major && !self.patterns.is_empty() && batch_error.is_none() {
            contain("batch.maintenance", &mut batch_error, || {
                // Candidate generation from dirty CSGs (§5, lines 9–10).
                let candidates_span = midas_obs::span!("batch.candidates");
                let cand_start = Instant::now();
                let dirty = self.clusters.take_dirty();
                let sample = self.sample();
                let ctx = ScovContext {
                    fct: &self.fct_index,
                    ife: &self.ife_index,
                    db: &self.db,
                    sample: &sample,
                    catalog: &self.fct_state.edges,
                    kernel: Some(&self.kernel),
                };
                let csgs: Vec<WeightedCsg> = dirty
                    .iter()
                    .filter_map(|&cid| self.clusters.get(cid))
                    .map(|c| WeightedCsg::build(c.csg(), &self.fct_state.edges, self.db.len()))
                    .collect();
                let state = coverage_state(&self.patterns, &ctx);
                let params = GenerationParams {
                    budget: self.config.budget,
                    walks: self.config.walks,
                    walk_length: self.config.walk_length,
                    seeds_per_size: self.config.seeds_per_size,
                    kappa: self.config.kappa,
                };
                let mut rng = StdRng::seed_from_u64(self.config.seed ^ (self.batch_counter << 16));
                let candidates = generate_promising_candidates(
                    &csgs,
                    &self.patterns,
                    &ctx,
                    &state,
                    &params,
                    &mut rng,
                );
                candidates_generated = candidates.len();
                candidate_time = cand_start.elapsed();
                drop(candidates_span);
                midas_obs::alerts::record_phase(
                    "batch.candidates",
                    candidate_time.as_micros() as u64,
                );
                midas_obs::counter_add!("batch.candidates_generated", candidates_generated as u64);

                // Swapping (§6).
                let swap_span = midas_obs::span!("batch.swap");
                let swap_start = Instant::now();
                swaps = match strategy {
                    SwapStrategy::MultiScan => {
                        // The swap reads only coverage already computed
                        // above, so it may mutate the indices' pattern
                        // columns directly.
                        let scope = SwapScope {
                            sample: &sample,
                            catalog: &self.fct_state.edges,
                            db_len: self.db.len(),
                            pattern_covered: &state.covered,
                        };
                        let outcome = multi_scan_swap(
                            &mut self.patterns,
                            candidates,
                            &scope,
                            &SwapParams {
                                kappa: self.config.kappa,
                                lambda: self.config.lambda,
                                ks_alpha: self.config.ks_alpha,
                                ..SwapParams::default()
                            },
                            &mut self.fct_index,
                            &mut self.ife_index,
                        );
                        outcome.swaps
                    }
                    SwapStrategy::Random => self.random_swap(candidates, &mut rng),
                };
                swap_time = swap_start.elapsed();
                drop(swap_span);
                midas_obs::alerts::record_phase("batch.swap", swap_time.as_micros() as u64);
                midas_obs::counter_add!("batch.swaps", swaps as u64);
                midas_obs::obs_info!(
                    "core::framework",
                    "batch {}: {candidates_generated} candidates, {swaps} swaps",
                    self.batch_counter
                );
            });
        }
        // On a minor modification the dirty flags are deliberately *kept*:
        // clusters stay marked as modified until the next major round
        // consumes them, so candidate generation sees every cluster that
        // changed since patterns were last maintained (§4.3, §5).

        // Publish the post-batch pattern snapshot before reporting: even a
        // contained phase failure publishes (the store holds whatever state
        // the batch reached — always a complete set, swaps are per-pattern
        // atomic), so concurrent readers converge on the current epoch.
        self.publish_snapshot();

        let pattern_maintenance_time = total_start.elapsed();
        midas_obs::counter_add!("pmt_us", pattern_maintenance_time.as_micros() as u64);
        midas_obs::counter_add!("pgt_us", (candidate_time + swap_time).as_micros() as u64);
        // Flight recorder: always-on (bounded ring, one short lock), so a
        // post-mortem dump has the last batches even when metrics are off.
        midas_obs::flight::record_batch(midas_obs::BatchSummary {
            seq: self.batch_counter,
            kind: match kind {
                Modification::Major => "major",
                Modification::Minor => "minor",
            },
            distance,
            pmt_us: pattern_maintenance_time.as_micros() as u64,
            pgt_us: (candidate_time + swap_time).as_micros() as u64,
            inserted: inserted.len(),
            deleted: deleted_ids.len(),
            candidates: candidates_generated,
            swaps,
            unix_ms: midas_obs::flight::unix_ms(),
        });
        let telemetry = if telemetry_on {
            let snap = MetricsSnapshot::capture().since(&baseline);
            if midas_obs::tracing_enabled() {
                let path = TelemetryConfig::trace_path();
                match midas_obs::trace::write_trace(&path) {
                    Ok(n) => midas_obs::obs_debug!(
                        "core::framework",
                        "wrote {n} trace events to {}",
                        path.display()
                    ),
                    Err(e) => midas_obs::obs_warn!(
                        "core::framework",
                        "failed to write trace to {}: {e}",
                        path.display()
                    ),
                }
            }
            snap
        } else {
            MetricsSnapshot::default()
        };

        MaintenanceReport {
            kind: match kind {
                Modification::Major => ModificationKind::Major,
                Modification::Minor => ModificationKind::Minor,
            },
            distance,
            pattern_maintenance_time,
            clustering_time,
            fct_time,
            index_time,
            candidate_time,
            swap_time,
            candidates_generated,
            swaps,
            telemetry,
            error: batch_error,
        }
    }

    /// The *Random* baseline's swap step: each candidate replaces a
    /// uniformly random pattern, no criteria checked.
    fn random_swap(&mut self, candidates: Vec<Candidate>, rng: &mut StdRng) -> usize {
        use rand::RngExt;
        let mut swaps = 0;
        for candidate in candidates.into_iter().map(|c| c.graph) {
            if self.patterns.is_empty() {
                break;
            }
            let ids: Vec<PatternId> = self.patterns.iter().map(|(id, _)| id).collect();
            let victim = ids[rng.random_range(0..ids.len())];
            self.patterns.remove(victim);
            self.fct_index.remove_pattern(victim);
            self.ife_index.remove_pattern(victim);
            if let Some(new_id) = self.patterns.insert(candidate.clone()) {
                self.fct_index.add_pattern(new_id, &candidate);
                self.ife_index.add_pattern(new_id, &candidate);
                swaps += 1;
            }
        }
        swaps
    }

    /// Refreshes both indices after a batch: graph columns for `Δ⁺`/`Δ⁻`
    /// and feature rows against the current FCT ∪ frequent-edge set. The
    /// embedding cache is invalidated per touched graph first, then the
    /// inserted TG columns are filled in one parallel kernel pass.
    ///
    /// Runs every kernel fan-out through the fault-isolating `try_*` twins:
    /// a contained worker panic returns the [`KernelError`] with the failed
    /// kernel pass never applied to the index.
    fn maintain_indices(
        &mut self,
        inserted: &[GraphId],
        deleted: &[GraphId],
    ) -> Result<(), KernelError> {
        for &id in deleted.iter().chain(inserted) {
            self.kernel.invalidate_graph(id);
        }
        for &id in deleted {
            self.fct_index.remove_graph(id);
            self.ife_index.remove_graph(id);
        }
        let inserted_graphs: Vec<(GraphId, Arc<LabeledGraph>)> = inserted
            .iter()
            .map(|&id| (id, self.db.get(id).expect("inserted id").clone()))
            .collect();
        let inserted_refs: Vec<(GraphId, &LabeledGraph)> = inserted_graphs
            .iter()
            .map(|(id, g)| (*id, g.as_ref()))
            .collect();
        self.fct_index
            .try_add_graphs_kernel(&self.kernel, &inserted_refs)?;
        for (id, graph) in &inserted_graphs {
            self.ife_index.add_graph(*id, graph);
        }
        // Feature rows: FCT ∪ E_freq (Def. 5.1); IFE rows: E_inf (Def. 5.2).
        let db_len = self.db.len();
        let fct_trees: Vec<(TreeKey, LabeledGraph)> = self
            .fct_state
            .fct(db_len)
            .into_iter()
            .map(|(k, e)| (k.clone(), e.tree.clone()))
            .collect();
        let freq_edges: Vec<(TreeKey, LabeledGraph)> = self
            .fct_state
            .edges
            .frequent(self.config.sup_min, db_len)
            .into_iter()
            .map(|(label, _)| {
                let tree = midas_mining::canonical::edge_tree(label.0, label.1);
                (midas_mining::tree_key(&tree), tree)
            })
            .collect();
        let mut target: Vec<(TreeKey, &LabeledGraph)> = Vec::new();
        for (k, t) in fct_trees.iter().chain(freq_edges.iter()) {
            if !target.iter().any(|(existing, _)| existing == k) {
                target.push((k.clone(), t));
            }
        }
        let graph_refs: Vec<(GraphId, &LabeledGraph)> =
            self.db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let pattern_refs: Vec<(PatternId, &LabeledGraph)> = self.patterns.iter().collect();
        self.fct_index.try_refresh_features_kernel(
            &self.kernel,
            &target,
            &graph_refs,
            &pattern_refs,
        )?;
        let infrequent: BTreeSet<midas_graph::EdgeLabel> = self
            .fct_state
            .edges
            .infrequent(self.config.sup_min, db_len)
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        self.ife_index.refresh_edges(
            infrequent,
            graph_refs.iter().copied(),
            pattern_refs.iter().copied(),
        );
        Ok(())
    }
}

/// `MIDAS_FAULT=slow:US` — injected per-batch slowdown in microseconds,
/// burned inside the `batch.index` span. The variable is shared with the
/// kernel's panic injector (`MIDAS_FAULT=task:N`); each consumer parses
/// only its own prefix, so the two faults are mutually exclusive by
/// construction. Read fresh on every batch (no caching) so tests and
/// operators can arm/disarm it mid-process.
fn env_fault_slow_us() -> Option<u64> {
    std::env::var("MIDAS_FAULT")
        .ok()
        .as_deref()
        .and_then(|s| s.trim().strip_prefix("slow:"))
        .and_then(|n| n.trim().parse::<u64>().ok())
        .filter(|&us| us > 0)
}

/// Logs a contained worker failure to telemetry and the flight recorder.
fn record_kernel_error(e: &KernelError) {
    midas_obs::counter_add!("batch.kernel_errors", 1);
    midas_obs::obs_warn!("core::framework", "contained worker failure: {e}");
    midas_obs::flight::record_event("kernel_error", e.to_string());
}

/// Runs one maintenance phase under a panic backstop. A panic that escapes
/// an infallible fan-out (or any phase-internal bug) is converted into a
/// phase-level [`KernelError`] instead of unwinding out of `apply_batch`;
/// once a batch has failed, later phases are skipped (`None`).
fn contain<R>(
    phase: &'static str,
    error: &mut Option<KernelError>,
    f: impl FnOnce() -> R,
) -> Option<R> {
    if error.is_some() {
        return None;
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => Some(result),
        Err(payload) => {
            let e = KernelError {
                task: KernelError::PHASE,
                message: format!("{phase}: {}", midas_graph::exec::panic_message(payload)),
            };
            record_kernel_error(&e);
            *error = Some(e);
            None
        }
    }
}

/// Which swap step to run on a major modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStrategy {
    /// MIDAS's multi-scan swap (§6.2).
    MultiScan,
    /// The *Random* baseline: candidates replace random patterns.
    Random,
}

fn build_indices(
    db: &GraphDb,
    fct_state: &FctState,
    patterns: &PatternStore,
    config: &MidasConfig,
    kernel: &MatchKernel,
) -> (FctIndex, IfeIndex) {
    let db_len = db.len();
    let graph_refs: Vec<(GraphId, &LabeledGraph)> =
        db.iter().map(|(id, g)| (id, g.as_ref())).collect();
    let pattern_refs: Vec<(PatternId, &LabeledGraph)> = patterns.iter().collect();
    let fct_trees: Vec<(TreeKey, LabeledGraph)> = fct_state
        .fct(db_len)
        .into_iter()
        .map(|(k, e)| (k.clone(), e.tree.clone()))
        .collect();
    let freq_edges: Vec<(TreeKey, LabeledGraph)> = fct_state
        .edges
        .frequent(config.sup_min, db_len)
        .into_iter()
        .map(|(label, _)| {
            let tree = midas_mining::canonical::edge_tree(label.0, label.1);
            (midas_mining::tree_key(&tree), tree)
        })
        .collect();
    let mut seen = BTreeSet::new();
    let mut features: Vec<(TreeKey, LabeledGraph)> = Vec::new();
    for (k, t) in fct_trees.into_iter().chain(freq_edges) {
        if seen.insert(k.clone()) {
            features.push((k, t));
        }
    }
    let fct_index = FctIndex::build_with(kernel, features, &graph_refs, &pattern_refs);
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

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn seed_db() -> GraphDb {
        // C-O-N-C chains with some variety; big enough to mine and select.
        GraphDb::from_graphs((0..10).map(|i| path(&[0, 1, 2, 0, (i % 2) as u32])))
    }

    fn config() -> MidasConfig {
        MidasConfig::small_defaults()
    }

    #[test]
    fn bootstrap_selects_initial_patterns() {
        let midas = Midas::bootstrap(seed_db(), config()).unwrap();
        assert!(!midas.patterns().is_empty());
        assert!(midas.patterns().len() <= config().budget.gamma);
        for p in midas.patterns() {
            assert!(p.is_connected());
        }
        assert!(midas.fct_index().feature_count() > 0);
    }

    #[test]
    fn bootstrap_rejects_empty_db() {
        assert!(Midas::bootstrap(GraphDb::new(), config()).is_err());
    }

    #[test]
    fn minor_modification_keeps_patterns() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let before = midas.patterns();
        // Insert more graphs of the same shape: graphlet drift ~ 0.
        let update = BatchUpdate::insert_only(vec![path(&[0, 1, 2, 0, 0]), path(&[0, 1, 2, 0, 1])]);
        let report = midas.apply_batch(update);
        assert_eq!(
            report.kind,
            ModificationKind::Minor,
            "d = {}",
            report.distance
        );
        assert_eq!(midas.patterns(), before);
        assert_eq!(report.swaps, 0);
        // But the substrate was maintained.
        assert_eq!(midas.db().len(), 12);
        assert_eq!(midas.clusters().total_members(), 12);
    }

    #[test]
    fn major_modification_triggers_pattern_maintenance() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        // A novel dense family: triangles of S.
        let triangle = GraphBuilder::new()
            .vertices(&[3, 3, 3, 3])
            .path(&[0, 1, 2, 3])
            .edge(0, 2)
            .edge(1, 3)
            .edge(0, 3)
            .build();
        let update = BatchUpdate::insert_only(vec![triangle; 12]);
        let report = midas.apply_batch(update);
        assert_eq!(
            report.kind,
            ModificationKind::Major,
            "d = {}",
            report.distance
        );
        // Candidate generation ran (swaps may or may not pass criteria).
        assert!(report.pattern_maintenance_time >= report.pattern_generation_time());
    }

    #[test]
    fn quality_never_degrades_across_major_batches() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let before = midas.quality();
        let novel: Vec<LabeledGraph> = (0..14).map(|_| path(&[3, 4, 3, 4, 3])).collect();
        let report = midas.apply_batch(BatchUpdate::insert_only(novel));
        let after = midas.quality();
        if report.swaps > 0 {
            // sw1–sw5 are sample-relative; the invariant we can assert
            // globally is that diversity and cognitive load did not worsen.
            assert!(after.div >= before.div - 1e-9);
            assert!(after.cog <= before.cog + 1e-9);
        }
        assert_eq!(midas.patterns().len(), midas.pattern_store().len());
    }

    #[test]
    fn deletion_batches_are_handled() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let victim = midas.db().ids().next().unwrap();
        let report = midas.apply_batch(BatchUpdate::delete_only(vec![victim]));
        assert_eq!(midas.db().len(), 9);
        assert!(!midas.db().contains(victim));
        assert_eq!(midas.clusters().total_members(), 9);
        let _ = report;
    }

    #[test]
    fn random_strategy_swaps_without_criteria() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let novel: Vec<LabeledGraph> = (0..14).map(|_| path(&[3, 4, 3, 4, 3])).collect();
        let report =
            midas.apply_batch_with_strategy(BatchUpdate::insert_only(novel), SwapStrategy::Random);
        // With candidates present, random swapping must swap.
        if report.candidates_generated > 0 {
            assert!(report.swaps > 0);
        }
    }

    #[test]
    fn small_pattern_strip_tracks_the_catalog() {
        let mut cfg = config();
        cfg.small_pattern_slots = 3;
        let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
        let strip = midas.small_patterns();
        assert_eq!(strip.len(), 3);
        assert!(strip.iter().all(|p| p.edge_count() == 1));
        // A wave of S-S edges must surface in the strip after maintenance.
        let wave: Vec<LabeledGraph> = (0..30).map(|_| path(&[3, 3, 3])).collect();
        midas.apply_batch(BatchUpdate::insert_only(wave));
        let strip = midas.small_patterns();
        assert!(
            strip.iter().any(|p| p.sorted_labels() == vec![3, 3]),
            "S-S should rank into the refreshed strip: {strip:?}"
        );
        // Disabled by default.
        let plain = Midas::bootstrap(seed_db(), config()).unwrap();
        assert!(plain.small_patterns().is_empty());
    }

    #[test]
    fn published_snapshot_tracks_batches() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let s0 = midas.pattern_snapshot();
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.patterns, midas.patterns());
        assert_eq!(s0.db_len, 10);
        let handle = midas.snapshot_handle();
        midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        let s1 = handle.read();
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.patterns, midas.patterns());
        assert_eq!(s1.db_len, 11);
        // The held pre-batch snapshot is immutable.
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.batches_behind(&s1), 1);
    }

    // Enabled-telemetry behavior (phase spans, pmt_us, snapshot deltas) is
    // exercised in the `midas-tests` integration binary: the enable flag is
    // process-global, and unit tests here bootstrap concurrently with
    // default (disabled) configs, which would race with it.

    #[test]
    fn telemetry_disabled_report_is_empty() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let report = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        assert!(report.telemetry.is_empty());
    }

    #[test]
    fn reports_time_phases_nest() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let report = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        let parts = report.clustering_time
            + report.fct_time
            + report.index_time
            + report.candidate_time
            + report.swap_time;
        assert!(report.pattern_maintenance_time >= parts.saturating_sub(Duration::from_millis(1)));
    }
}
