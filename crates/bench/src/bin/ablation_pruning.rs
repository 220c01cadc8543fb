//! Ablation: MIDAS's coverage-based candidate pruning (§5.2, Eq. 2 +
//! Def. 5.5) versus unpruned CATAPULT-style generation on the same CSGs.
//!
//! The paper motivates the pruning as the reason candidate generation can
//! "guide the FCP generation process towards candidates that are deemed to
//! have greater potential"; this harness quantifies it: candidates
//! produced, share surviving the promising test, and wall-clock.

use midas_bench::{experiment_config, fmt_duration, print_table, scaled_dataset};
use midas_catapult::candidates::generate_candidates;
use midas_catapult::random_walk::random_walks;
use midas_catapult::WeightedCsg;
use midas_core::candidate_gen::{coverage_state, generate_promising_candidates, GenerationParams};
use midas_core::metrics::ScovContext;
use midas_core::Midas;
use midas_datagen::updates::novel_family_batch;
use midas_datagen::{DatasetKind, MotifKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let kind = DatasetKind::PubchemLike;
    let db = scaled_dataset(kind, 25_000, 100, 77);
    let mut config = experiment_config(77);
    // Suppress the swap so we measure candidate generation against the
    // *stale* pattern set — the state §5.2's pruning actually sees.
    config.epsilon = f64::INFINITY;
    let mut midas = Midas::bootstrap(db, config).expect("non-empty");
    midas.apply_batch(novel_family_batch(MotifKind::BoronicEster, 60, 770));

    let sample: std::collections::BTreeSet<midas_graph::GraphId> = midas.db().ids().collect();
    let ctx = ScovContext {
        fct: midas.fct_index(),
        ife: midas.ife_index(),
        db: midas.db(),
        sample: &sample,
        catalog: &midas.fct_state().edges,
        kernel: Some(midas.kernel()),
    };
    let csgs: Vec<WeightedCsg> = midas
        .clusters()
        .iter()
        .map(|(_, c)| WeightedCsg::build(c.csg(), &midas.fct_state().edges, midas.db().len()))
        .collect();
    let state = coverage_state(midas.pattern_store(), &ctx);
    let params = GenerationParams {
        budget: config.budget,
        walks: config.walks,
        walk_length: config.walk_length,
        seeds_per_size: config.seeds_per_size,
        kappa: config.kappa,
    };

    // Pruned (MIDAS).
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(7_700);
    let pruned = generate_promising_candidates(
        &csgs,
        midas.pattern_store(),
        &ctx,
        &state,
        &params,
        &mut rng,
    );
    let pruned_time = t.elapsed();

    // Unpruned (CATAPULT-style): same walks and sizes, pass-through hook,
    // no promising filter.
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(7_700);
    let mut unpruned = Vec::new();
    for csg in &csgs {
        let stats = random_walks(csg, params.walks, params.walk_length, &mut rng);
        for size in params.budget.eta_min..=params.budget.eta_max {
            let mut pass = |_: &[(u32, u32)], _: (u32, u32)| true;
            unpruned.extend(
                generate_candidates(csg, &stats, size, params.seeds_per_size, &mut pass)
                    .into_iter()
                    .map(|(candidate, _)| candidate),
            );
        }
    }
    let unpruned_time = t.elapsed();
    // How many unpruned candidates would actually be promising?
    let threshold = ((1.0 + params.kappa) * state.min_exclusive as f64).ceil() as usize;
    let promising = unpruned
        .iter()
        .filter(|c| ctx.covered(c).difference(&state.covered_union).count() >= threshold)
        .count();

    print_table(
        "Ablation: Eq. 2 pruning in candidate generation",
        &["variant", "candidates", "promising", "time"],
        &[
            vec![
                "MIDAS (pruned)".into(),
                pruned.len().to_string(),
                pruned.len().to_string(),
                fmt_duration(pruned_time),
            ],
            vec![
                "unpruned".into(),
                unpruned.len().to_string(),
                promising.to_string(),
                fmt_duration(unpruned_time),
            ],
        ],
    );
    println!(
        "\nmin exclusive coverage = {} -> promising threshold = {threshold}.",
        state.min_exclusive
    );
    if threshold == 0 {
        println!(
            "threshold 0: at this scale some pattern has zero exclusive\n\
             coverage, so Def. 5.5 admits every candidate and the pruning\n\
             pass only adds verification cost. At the paper's scale (25K+\n\
             graphs, γ = 30 diverse patterns) exclusive coverages are\n\
             positive and the filter discards the unproductive majority —\n\
             rerun with a larger dataset to see the crossover."
        );
    } else {
        println!(
            "pruning emitted {} promising FCPs; unpruned generation produced\n\
             {} candidates of which only {promising} were promising.",
            pruned.len(),
            unpruned.len()
        );
    }
}
