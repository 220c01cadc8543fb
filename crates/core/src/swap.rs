//! Swap-based pattern maintenance: the multi-scan swap of §6.2.
//!
//! Candidates (descending `s'_p`) are matched against existing patterns
//! (ascending `s'_p`). A swap happens only when **all** criteria hold:
//!
//! * **sw1** `S_B(p_c) ≥ (1 + κ) · S_L(p)` — benefit beats loss
//!   (Def. 6.2 reduces both to the respective subgraph coverages);
//! * **sw2** `s'_{p_c} ≥ (1 + λ) · s'_p` — score dominance; a failure here
//!   terminates the scan (candidates are sorted, nothing later can pass);
//! * **sw3** diversity does not drop; **sw4** cognitive load does not rise;
//!   **sw5** label coverage does not drop;
//! * the pattern-size distributions of `P` and `P'` pass the KS guard.
//!
//! Scans repeat with the `SWAP_α` κ-schedule (Lemma 6.3): starting from
//! `σ₀ = 0.25`, scan `t` uses `κ_t = 1 − 2σ_{t−1}` and improves the bound
//! to `σ_t = 0.25 / (1 − σ_{t−1})`, stopping once `σ ≥ 0.5`, candidates run
//! out, or a scan makes no swap. The first scan uses the configured `κ`.
//!
//! ## Scoring once per run
//!
//! The database and the sample do not change while the swap runs, so
//! everything a scan reads except diversity belongs to a single graph:
//! `scov` (taken from the coverage sets candidate generation and
//! [`crate::candidate_gen::CoverageState`] already hold), `lcov`, `cog`, the
//! query-log weight, and the graph's label cover over the sample. A
//! [`ScoreTable`] over `P ∪ pool` computes each once per run; `lcov` and
//! the label cover depend only on the edge-label set and are memoized per
//! distinct set. Diversity needs `GED'_l` between pairs, which a lazily
//! filled matrix keyed by ordered pair computes at most once per run. A
//! scan then ranks with `O(|pool|·|P| + |P|²)` matrix lookups, and each
//! (candidate, victim) test costs `O(|P|²)` lookups plus a bitset union
//! of `|P|` label covers.

use crate::candidate_gen::Candidate;
use crate::ks::distributions_similar;
use crate::patterns::PatternStore;
use crate::query_log::QueryLog;
use midas_catapult::score::{lcov_pattern, pattern_score, PatternScoreParts};
use midas_graph::ged::ged_tight_lower_bound;
use midas_graph::{EdgeLabel, GraphId, LabeledGraph};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::EdgeCatalog;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Swap parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwapParams {
    /// Benefit/loss threshold `κ` (sw1) for the first scan.
    pub kappa: f64,
    /// Score threshold `λ` (sw2); the paper sets `λ = κ`.
    pub lambda: f64,
    /// KS significance level for the size-distribution guard.
    pub ks_alpha: f64,
    /// Optional stricter user requirement on diversity (§6.2):
    /// `f_div(P') ≥ (1 + α₁) · f_div(P)`. Zero recovers sw3.
    pub alpha_div: f64,
    /// Optional stricter requirement on cognitive load:
    /// `f_cog(P) · (1 + α₂) ≥ f_cog(P')`. Zero recovers sw4.
    pub alpha_cog: f64,
    /// Optional stricter requirement on label coverage:
    /// `f_lcov(P') ≥ (1 + α₃) · f_lcov(P)`. Zero recovers sw5.
    pub alpha_lcov: f64,
}

impl Default for SwapParams {
    /// Paper defaults: `κ = λ = 0.1`, KS at 5%, no extra α requirements.
    fn default() -> Self {
        SwapParams {
            kappa: 0.1,
            lambda: 0.1,
            ks_alpha: 0.05,
            alpha_div: 0.0,
            alpha_cog: 0.0,
            alpha_lcov: 0.0,
        }
    }
}

/// Outcome of a multi-scan swap run.
#[derive(Debug, Clone, Default)]
pub struct SwapOutcome {
    /// Number of swaps performed.
    pub swaps: usize,
    /// Number of scans executed.
    pub scans: usize,
    /// The ids removed and added, in order.
    pub replaced: Vec<(PatternId, PatternId)>,
}

/// What the swap reads besides the store. The database and the sample are
/// fixed for the whole run; no index is consulted.
#[derive(Debug, Clone, Copy)]
pub struct SwapScope<'a> {
    /// The sampled universe `D_s` the coverage sets were computed over.
    pub sample: &'a BTreeSet<GraphId>,
    /// The edge catalog (for `lcov` and the sw5 label cover).
    pub catalog: &'a EdgeCatalog,
    /// `|D|`, the denominator of a pattern's `lcov`.
    pub db_len: usize,
    /// `G_p ∩ D_s` of every live pattern (`CoverageState::covered`).
    pub pattern_covered: &'a BTreeMap<PatternId, BTreeSet<GraphId>>,
}

/// One graph's run-invariant score inputs.
#[derive(Debug)]
struct Scored {
    graph: LabeledGraph,
    scov: f64,
    lcov: f64,
    cog: f64,
    weight: f64,
    /// Index into `ScoreTable::covers`.
    cover: usize,
}

/// Per-run scoring table over `P ∪ pool` plus the lazily filled pairwise
/// `GED'_l` matrix (see the module docs). Entries are addressed by the
/// index [`ScoreTable::push`] returns.
#[derive(Debug)]
pub struct ScoreTable<'a> {
    catalog: &'a EdgeCatalog,
    db_len: usize,
    log: Option<&'a QueryLog>,
    /// The sample in id order; a graph's position is its label-cover bit.
    sample: Vec<GraphId>,
    entries: Vec<Scored>,
    /// Per distinct edge-label set: `lcov` and the index of its cover.
    by_labels: BTreeMap<BTreeSet<EdgeLabel>, (f64, usize)>,
    /// Label covers over the sample as bitsets.
    covers: Vec<Vec<u64>>,
    /// `GED'_l(entry i, entry j)` by ordered pair `(i, j)`, filled on
    /// first use.
    ged: HashMap<(usize, usize), u32>,
}

impl<'a> ScoreTable<'a> {
    /// An empty table over the sampled universe `sample` of a database
    /// with `db_len` graphs, with scores weighted by `log`.
    pub fn new(
        sample: &BTreeSet<GraphId>,
        catalog: &'a EdgeCatalog,
        db_len: usize,
        log: Option<&'a QueryLog>,
    ) -> Self {
        ScoreTable {
            catalog,
            db_len,
            log,
            sample: sample.iter().copied().collect(),
            entries: Vec::new(),
            by_labels: BTreeMap::new(),
            covers: Vec::new(),
            ged: HashMap::new(),
        }
    }

    /// Scores `graph`, which is contained in `covered` sampled graphs, and
    /// returns its entry index.
    pub fn push(&mut self, graph: LabeledGraph, covered: usize) -> usize {
        let labels: BTreeSet<EdgeLabel> = graph.edge_labels().collect();
        let (lcov, cover) = match self.by_labels.get(&labels) {
            Some(&memo) => memo,
            None => {
                let memo = (
                    lcov_pattern(&graph, self.catalog, self.db_len),
                    self.covers.len(),
                );
                self.covers.push(self.label_cover(&labels));
                self.by_labels.insert(labels, memo);
                memo
            }
        };
        let scov = if self.sample.is_empty() {
            0.0
        } else {
            covered as f64 / self.sample.len() as f64
        };
        self.entries.push(Scored {
            scov,
            lcov,
            cog: graph.cognitive_load(),
            weight: self.log.map_or(1.0, |l| l.weight(&graph)),
            cover,
            graph,
        });
        self.entries.len() - 1
    }

    /// The sampled graphs containing at least one of `labels`, as a bitset
    /// over sample positions.
    fn label_cover(&self, labels: &BTreeSet<EdgeLabel>) -> Vec<u64> {
        let mut bits = vec![0u64; self.sample.len().div_ceil(64)];
        for &label in labels {
            if let Some(stats) = self.catalog.get(label) {
                for id in &stats.support {
                    if let Ok(pos) = self.sample.binary_search(id) {
                        bits[pos / 64] |= 1 << (pos % 64);
                    }
                }
            }
        }
        bits
    }

    /// `GED'_l(entry i, entry j)`, computed on first use.
    fn ged(&mut self, i: usize, j: usize) -> u32 {
        let entries = &self.entries;
        *self
            .ged
            .entry((i, j))
            .or_insert_with(|| ged_tight_lower_bound(&entries[i].graph, &entries[j].graph))
    }

    /// `div(i, others)`: the minimum `GED'_l` from entry `i` to `others`,
    /// or the neutral 1.0 when `others` is empty (as
    /// [`midas_catapult::score::diversity`]).
    fn diversity(&mut self, i: usize, others: &[usize]) -> f64 {
        others
            .iter()
            .map(|&j| self.ged(i, j) as f64)
            .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
            .unwrap_or(1.0)
    }

    /// The log-weighted MIDAS score `s'_p` of entry `i` against `others`.
    fn score(&mut self, i: usize, others: &[usize]) -> f64 {
        let div = self.diversity(i, others);
        let e = &self.entries[i];
        pattern_score(PatternScoreParts {
            coverage: e.scov,
            lcov: e.lcov,
            div,
            cog: e.cog,
        }) * e.weight
    }

    /// Set-level `(div, cog, lcov)` over the sample for the entries in
    /// `members` — the quantities sw3–sw5 guard, equal field for field to
    /// [`midas_catapult::score::set_quality`] over the same set.
    pub fn set_measures(&mut self, members: &[usize]) -> (f64, f64, f64) {
        let mut others = Vec::with_capacity(members.len());
        let mut div = f64::INFINITY;
        for (k, &i) in members.iter().enumerate() {
            others.clear();
            others.extend(members[..k].iter().chain(&members[k + 1..]).copied());
            div = div.min(self.diversity(i, &others));
        }
        let div = if div.is_finite() { div } else { 0.0 };
        let cog = members
            .iter()
            .map(|&i| self.entries[i].cog)
            .fold(0.0, f64::max);
        let mut union = vec![0u64; self.sample.len().div_ceil(64)];
        for &i in members {
            for (word, bits) in union.iter_mut().zip(&self.covers[self.entries[i].cover]) {
                *word |= bits;
            }
        }
        let covered: u32 = union.iter().map(|w| w.count_ones()).sum();
        let lcov = if self.sample.is_empty() {
            0.0
        } else {
            covered as f64 / self.sample.len() as f64
        };
        (div, cog, lcov)
    }
}

/// Runs the multi-scan swap, mutating `store` and keeping the TP/EP matrix
/// columns of both indices in sync.
pub fn multi_scan_swap(
    store: &mut PatternStore,
    candidates: Vec<Candidate>,
    scope: &SwapScope<'_>,
    params: &SwapParams,
    fct_index: &mut FctIndex,
    ife_index: &mut IfeIndex,
) -> SwapOutcome {
    multi_scan_swap_weighted(store, candidates, scope, params, fct_index, ife_index, None)
}

/// The query-log-aware variant (§3.5's extension): pattern and candidate
/// scores are multiplied by their log weight, biasing swaps toward
/// structures users actually formulate. `log = None` is the log-oblivious
/// default.
pub fn multi_scan_swap_weighted(
    store: &mut PatternStore,
    candidates: Vec<Candidate>,
    scope: &SwapScope<'_>,
    params: &SwapParams,
    fct_index: &mut FctIndex,
    ife_index: &mut IfeIndex,
    log: Option<&QueryLog>,
) -> SwapOutcome {
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    let score_span = midas_obs::span!("batch.swap.score");
    let mut table = ScoreTable::new(scope.sample, scope.catalog, scope.db_len, log);
    // Entry index of every live pattern, in id order (the store's order;
    // a swapped-in pattern gets the largest id, so the orders stay equal).
    let mut slots: BTreeMap<PatternId, usize> = BTreeMap::new();
    for (id, p) in store.iter() {
        let covered = scope
            .pattern_covered
            .get(&id)
            .expect("coverage set for every live pattern")
            .len();
        slots.insert(id, table.push(p.clone(), covered));
    }
    // Remaining candidate pool across scans.
    let mut pool: Vec<usize> = candidates
        .into_iter()
        .map(|c| table.push(c.graph, c.covered.len()))
        .collect();
    drop(score_span);
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        let _scan_span = midas_obs::span!("batch.swap.scan");
        outcome.scans += 1;
        // Rank candidates by s' descending against the current set.
        let members: Vec<usize> = slots.values().copied().collect();
        let mut ranked: Vec<(f64, usize)> = pool
            .iter()
            .map(|&c| (table.score(c, &members), c))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        // Rank patterns by s' ascending.
        let mut pq_patterns: Vec<(f64, PatternId)> = slots
            .iter()
            .map(|(&id, &i)| {
                let others: Vec<usize> = members.iter().copied().filter(|&j| j != i).collect();
                (table.score(i, &others), id)
            })
            .collect();
        pq_patterns.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));

        let mut swaps_this_scan = 0;
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut victim_idx = 0usize;
        for (ci, &(cand_score, cand)) in ranked.iter().enumerate() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_id) = pq_patterns[victim_idx];
            let victim = slots[&victim_id];
            // sw2 failure terminates the scan (sorted candidates).
            if cand_score < (1.0 + params.lambda) * victim_score {
                break;
            }
            // sw1: benefit vs loss (Def. 6.2 — the coverage delta).
            if table.entries[cand].scov < (1.0 + kappa) * table.entries[victim].scov {
                continue; // try the next candidate against the same victim
            }
            // sw3–sw5 and the KS guard on the hypothetical P'.
            let before: Vec<usize> = slots.values().copied().collect();
            let after: Vec<usize> = before
                .iter()
                .copied()
                .filter(|&i| i != victim)
                .chain([cand])
                .collect();
            let (div_before, cog_before, lcov_before) = table.set_measures(&before);
            let (div_after, cog_after, lcov_after) = table.set_measures(&after);
            let sw3 = div_after >= (1.0 + params.alpha_div) * div_before;
            let sw4 = cog_before * (1.0 + params.alpha_cog) >= cog_after;
            let sw5 = lcov_after >= (1.0 + params.alpha_lcov) * lcov_before;
            let size = |i: usize| table.entries[i].graph.edge_count();
            let sizes_before: Vec<usize> = before.iter().map(|&i| size(i)).collect();
            let mut sizes_after = sizes_before.clone();
            // Replace the victim's size by the candidate's.
            if let Some(pos) = sizes_after.iter().position(|&s| s == size(victim)) {
                sizes_after[pos] = size(cand);
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, params.ks_alpha);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                continue; // candidate unusable against this victim
            }
            // Swap.
            let candidate = &table.entries[cand].graph;
            store.remove(victim_id);
            fct_index.remove_pattern(victim_id);
            ife_index.remove_pattern(victim_id);
            let new_id = store
                .insert(candidate.clone())
                .expect("candidates were deduplicated against the store");
            fct_index.add_pattern(new_id, candidate);
            ife_index.add_pattern(new_id, candidate);
            slots.remove(&victim_id);
            slots.insert(new_id, cand);
            outcome.replaced.push((victim_id, new_id));
            outcome.swaps += 1;
            swaps_this_scan += 1;
            consumed.insert(ci);
            victim_idx += 1;
        }
        // Remove consumed candidates from the pool.
        pool = ranked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, (_, c))| c)
            .collect();
        // SWAP_α schedule (Lemma 6.3).
        if swaps_this_scan == 0 || pool.is_empty() || sigma >= 0.5 {
            break;
        }
        kappa = (1.0 - 2.0 * sigma).max(0.0);
        sigma = 0.25 / (1.0 - sigma);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_gen::coverage_state;
    use crate::metrics::ScovContext;
    use midas_graph::{GraphBuilder, GraphDb};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        catalog: EdgeCatalog,
        sample: BTreeSet<GraphId>,
        fct: FctIndex,
        ife: IfeIndex,
    }

    fn world(graphs: Vec<LabeledGraph>) -> World {
        let db = GraphDb::from_graphs(graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        World {
            db,
            catalog,
            sample,
            fct,
            ife,
        }
    }

    fn params() -> SwapParams {
        SwapParams {
            kappa: 0.1,
            lambda: 0.1,
            ks_alpha: 0.05,
            ..Default::default()
        }
    }

    /// Covers the store and the candidates over the world's sample, then
    /// runs the weighted swap.
    fn swap(
        w: &mut World,
        store: &mut PatternStore,
        candidates: Vec<LabeledGraph>,
        log: Option<&QueryLog>,
    ) -> SwapOutcome {
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
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
            sample: &w.sample,
            catalog: &w.catalog,
            db_len: w.db.len(),
            pattern_covered: &state.covered,
        };
        multi_scan_swap_weighted(
            store,
            candidates,
            &scope,
            &params(),
            &mut w.fct,
            &mut w.ife,
            log,
        )
    }

    #[test]
    fn beneficial_swap_happens() {
        // DB dominated by S-S-S chains; current pattern is a stale C-O-N
        // (covers 1 graph), candidate S-S-S covers 5.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 5]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let outcome = swap(&mut w, &mut store, vec![path(&[3, 3, 3])], None);
        assert_eq!(outcome.swaps, 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains_isomorphic(&path(&[3, 3, 3])));
    }

    #[test]
    fn quality_never_degrades_under_swaps() {
        let mut graphs = vec![path(&[0, 1, 2]); 2];
        graphs.extend(vec![path(&[3, 3, 3]); 6]);
        graphs.extend(vec![path(&[0, 1]); 2]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        store.insert(path(&[0, 1, 0])).unwrap();
        let before = crate::metrics::quality_of(&store.graphs(), &w.db, &w.catalog, &w.sample);
        swap(
            &mut w,
            &mut store,
            vec![path(&[3, 3, 3]), path(&[3, 3])],
            None,
        );
        let after = crate::metrics::quality_of(&store.graphs(), &w.db, &w.catalog, &w.sample);
        assert!(after.scov >= before.scov, "sw1 guarantees coverage gain");
        assert!(after.div >= before.div, "sw3");
        assert!(after.cog <= before.cog + 1e-9, "sw4");
        assert!(after.lcov >= before.lcov - 1e-9, "sw5");
    }

    #[test]
    fn useless_candidates_cause_no_swaps() {
        let graphs = vec![path(&[0, 1, 2]); 5];
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        // Candidate covering nothing.
        let outcome = swap(&mut w, &mut store, vec![path(&[7, 7, 7])], None);
        assert_eq!(outcome.swaps, 0);
        assert!(store.contains_isomorphic(&path(&[0, 1, 2])));
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut w = world(vec![path(&[0, 1])]);
        let mut store = PatternStore::new();
        let outcome = swap(&mut w, &mut store, vec![path(&[0, 1])], None);
        assert_eq!(outcome.swaps, 0, "empty store: nothing to swap");
        store.insert(path(&[0, 1])).unwrap();
        let outcome2 = swap(&mut w, &mut store, vec![], None);
        assert_eq!(outcome2.swaps, 0, "no candidates: nothing to do");
    }

    #[test]
    fn query_log_weighting_changes_priorities() {
        // Two candidates with similar coverage; the log favours one.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 4]);
        graphs.extend(vec![path(&[4, 4, 4]); 4]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let mut log = QueryLog::new(16);
        for _ in 0..5 {
            log.record(path(&[4, 4, 4, 4]));
        }
        let outcome = swap(
            &mut w,
            &mut store,
            vec![path(&[3, 3, 3]), path(&[4, 4, 4])],
            Some(&log),
        );
        assert!(outcome.swaps >= 1);
        // The single slot must have gone to the logged family.
        assert!(
            store.contains_isomorphic(&path(&[4, 4, 4])),
            "log-weighted swap should prefer the formulated family"
        );
    }

    #[test]
    fn indices_track_pattern_columns() {
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 5]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        let old_id = store.insert(path(&[0, 1, 2])).unwrap();
        w.fct.add_pattern(old_id, &path(&[0, 1, 2]));
        w.ife.add_pattern(old_id, &path(&[0, 1, 2]));
        let outcome = swap(&mut w, &mut store, vec![path(&[3, 3, 3])], None);
        assert_eq!(outcome.swaps, 1);
        let (removed, added) = outcome.replaced[0];
        assert_eq!(removed, old_id);
        assert!(w.fct.tp().col(removed).next().is_none());
        // The new pattern's column may be empty (no features), but the
        // store must hold it.
        assert!(store.get(added).is_some());
    }
}
