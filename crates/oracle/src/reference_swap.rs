//! The naive multi-scan swap (§6.2): check 5's reference twin.
//!
//! Every scan re-scores every candidate and every pattern from scratch
//! through a [`ScovContext`] (containment scan included), and every
//! (candidate, victim) test recomputes the sw3–sw5 set measures over
//! freshly cloned pattern sets — the literal reading of §6.2. The
//! production swap (`midas_core::swap`), which scores each graph once per
//! run, must reach the same decisions.

use midas_catapult::score::diversity;
use midas_core::ks::distributions_similar;
use midas_core::metrics::ScovContext;
use midas_core::query_log::QueryLog;
use midas_core::swap::{SwapOutcome, SwapParams};
use midas_core::PatternStore;
use midas_graph::{GraphId, LabeledGraph};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::EdgeCatalog;
use std::collections::BTreeSet;

/// Set-level `(div, cog, lcov)` over the sample: the minimum pairwise
/// diversity, the maximum cognitive load and the sampled label coverage —
/// the quantities sw3–sw5 guard.
pub fn set_measures(
    patterns: &[LabeledGraph],
    catalog: &EdgeCatalog,
    sample: &BTreeSet<GraphId>,
) -> (f64, f64, f64) {
    let div = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let others: Vec<LabeledGraph> = patterns
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| q.clone())
                .collect();
            diversity(p, &others)
        })
        .fold(f64::INFINITY, f64::min);
    let div = if div.is_finite() { div } else { 0.0 };
    let cog = patterns
        .iter()
        .map(|p| p.cognitive_load())
        .fold(0.0, f64::max);
    let mut union: BTreeSet<GraphId> = BTreeSet::new();
    for p in patterns {
        for label in p.edge_labels() {
            if let Some(stats) = catalog.get(label) {
                union.extend(stats.support.intersection(sample).copied());
            }
        }
    }
    let lcov = if sample.is_empty() {
        0.0
    } else {
        union.len() as f64 / sample.len() as f64
    };
    (div, cog, lcov)
}

/// The multi-scan swap, recomputing every score in every scan. Mutates
/// `store` and the indices' pattern columns like the production swap.
pub fn multi_scan_swap(
    store: &mut PatternStore,
    candidates: Vec<LabeledGraph>,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
    fct_index: &mut FctIndex,
    ife_index: &mut IfeIndex,
    log: Option<&QueryLog>,
) -> SwapOutcome {
    let log_weight = |p: &LabeledGraph| log.map_or(1.0, |l| l.weight(p));
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    let mut pool: Vec<LabeledGraph> = candidates;
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        outcome.scans += 1;
        let current = store.graphs();
        let mut ranked: Vec<(f64, f64, LabeledGraph)> = pool
            .iter()
            .map(|c| {
                let score = ctx.midas_score(c, &current) * log_weight(c);
                (score, ctx.scov(c), c.clone())
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let mut pq_patterns: Vec<(f64, f64, PatternId)> = store
            .iter()
            .map(|(id, p)| {
                let others: Vec<LabeledGraph> = store
                    .iter()
                    .filter(|(other, _)| *other != id)
                    .map(|(_, q)| q.clone())
                    .collect();
                (ctx.midas_score(p, &others) * log_weight(p), ctx.scov(p), id)
            })
            .collect();
        pq_patterns.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));

        let mut swaps_this_scan = 0;
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut victim_idx = 0usize;
        for (ci, (cand_score, cand_scov, candidate)) in ranked.iter().enumerate() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_scov, victim_id) = pq_patterns[victim_idx];
            if *cand_score < (1.0 + params.lambda) * victim_score {
                break;
            }
            if *cand_scov < (1.0 + kappa) * victim_scov {
                continue;
            }
            let victim_graph = store.get(victim_id).expect("live pattern").clone();
            let before: Vec<LabeledGraph> = store.graphs();
            let mut after: Vec<LabeledGraph> = store
                .iter()
                .filter(|(id, _)| *id != victim_id)
                .map(|(_, p)| p.clone())
                .collect();
            after.push(candidate.clone());
            let (div_before, cog_before, lcov_before) =
                set_measures(&before, ctx.catalog, ctx.sample);
            let (div_after, cog_after, lcov_after) = set_measures(&after, ctx.catalog, ctx.sample);
            let sw3 = div_after >= (1.0 + params.alpha_div) * div_before;
            let sw4 = cog_before * (1.0 + params.alpha_cog) >= cog_after;
            let sw5 = lcov_after >= (1.0 + params.alpha_lcov) * lcov_before;
            let sizes_before = store.sizes();
            let mut sizes_after: Vec<usize> = before.iter().map(|p| p.edge_count()).collect();
            if let Some(pos) = sizes_after
                .iter()
                .position(|&s| s == victim_graph.edge_count())
            {
                sizes_after[pos] = candidate.edge_count();
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, params.ks_alpha);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                continue;
            }
            store.remove(victim_id);
            fct_index.remove_pattern(victim_id);
            ife_index.remove_pattern(victim_id);
            let new_id = store
                .insert(candidate.clone())
                .expect("candidates were deduplicated against the store");
            fct_index.add_pattern(new_id, candidate);
            ife_index.add_pattern(new_id, candidate);
            outcome.replaced.push((victim_id, new_id));
            outcome.swaps += 1;
            swaps_this_scan += 1;
            consumed.insert(ci);
            victim_idx += 1;
        }
        pool = ranked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, (_, _, c))| c)
            .collect();
        if swaps_this_scan == 0 || pool.is_empty() || sigma >= 0.5 {
            break;
        }
        kappa = (1.0 - 2.0 * sigma).max(0.0);
        sigma = 0.25 / (1.0 - sigma);
    }
    outcome
}
