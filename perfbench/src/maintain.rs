//! `maintain_mix`: the paper's PMT through the library alone.
//!
//! One round bootstraps `Midas` on a 1000-graph PubChem-like database and
//! applies a fixed 16-batch sequence back to back: growth, growth, a
//! deletion that takes |D| back below 1000, and a novel-family wave
//! (boronic ester and phosphate alternating) that restores it.
//!
//! The database and the batch sequence are pinned (generated from
//! [`DATA_SEED`]), so their per-epoch pattern-set digests can be pinned
//! below and a run fails if the program's output changes; set-up cost
//! also varies more than twofold between generated databases, which
//! would swamp any change under test. The workload seed draws the
//! queries of the traced run's formulation probe.

use crate::layers::{self, BatchRecord};
use crate::sched::{self, fnv1a, ms, us};
use crate::stats::Samples;
use crate::{host, trace, Metrics};
use midas_catapult::PatternBudget;
use midas_core::{Midas, MidasConfig, PatternSnapshot};
use midas_datagen::{
    deletion_batch, growth_batch, novel_family_batch, query_set, DatasetKind, DatasetSpec,
    MotifKind,
};
use midas_graph::{io, BatchUpdate, GraphDb, LabeledGraph};
use midas_obs::TelemetryConfig;
use std::sync::Arc;
use std::time::Instant;

const DB_SIZE: usize = 1000;
const GROWTH: usize = 50;
const NOVEL: usize = 100;
const BATCHES: usize = 16;
/// Generator seed of the pinned database and batch sequence.
const DATA_SEED: u64 = 0x6d69_6461_7300;
const STEP_QUERIES: usize = 32;
/// Seconds of `--seconds` per round: 15 gives four rounds, each of which
/// took 5–9 s on a 2-vCPU host.
const ROUND_S: u64 = 4;

/// Pattern-set digests per epoch (bootstrap, then one per batch). A
/// mismatch means the program's output changed.
const PINNED: [u64; BATCHES + 1] = [
    0x055e429387c40998,
    0xb939c8584ddd4d74,
    0xcee9f53e6f2c1bc5,
    0x4beda7600b403e49,
    0x974a19d6f68baff8,
    0xfbd79bb60d02bc0c,
    0x1b5c6cd61e07ca9d,
    0x4873659fa9043119,
    0x11fa0fc7b2c5a9d4,
    0xff35468f5978e020,
    0xaec5638e9b0537f6,
    0xb6e844b4b1259d9c,
    0xb17cfeb8d39e9d23,
    0xf1f7e9134686f067,
    0x3baa75da0b337502,
    0x1da436f9be458180,
    0x9cd131bbb69f9baf,
];

fn config(threads: usize, telemetry: bool) -> MidasConfig {
    MidasConfig {
        budget: PatternBudget {
            eta_min: 3,
            eta_max: 6,
            gamma: 8,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 4,
        epsilon: 0.01,
        threads,
        telemetry: TelemetryConfig {
            enabled: telemetry,
            trace: false,
            ..TelemetryConfig::default()
        },
        ..MidasConfig::default()
    }
}

struct Inputs {
    db: GraphDb,
    batches: Vec<BatchUpdate>,
    step_queries: Vec<LabeledGraph>,
    probe_queries: Vec<LabeledGraph>,
}

fn inputs(seed: u64) -> Inputs {
    let base = DATA_SEED;
    let db = DatasetSpec::new(DatasetKind::PubchemLike, DB_SIZE, base)
        .generate()
        .db;
    let params = DatasetKind::PubchemLike.params();
    let mut shadow = db.clone();
    let mut batches = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let s = base ^ ((i as u64 + 1) << 20);
        let batch = match i % 4 {
            0 | 1 => growth_batch(&params, GROWTH, s),
            2 => deletion_batch(&shadow, 2 * GROWTH + NOVEL, s),
            _ => novel_family_batch(
                if (i / 4) % 2 == 0 {
                    MotifKind::BoronicEster
                } else {
                    MotifKind::Phosphate
                },
                NOVEL,
                s,
            ),
        };
        shadow.apply(batch.clone());
        batches.push(batch);
    }
    let step_queries = query_set(&db, STEP_QUERIES, (3, 8), base ^ 0x51);
    let probe_queries = query_set(&db, 64, (3, 8), seed ^ 0x52);
    Inputs {
        db,
        batches,
        step_queries,
        probe_queries,
    }
}

/// Digest of a published snapshot: epoch, size and the exact pattern set.
pub fn digest(s: &PatternSnapshot) -> u64 {
    let json = io::patterns_to_json(&s.patterns).expect("patterns serialize");
    fnv1a(format!("{}|{}|{json}", s.epoch, s.db_len).as_bytes())
}

struct Round {
    setup_s: f64,
    /// The calibration piece just before the bootstrap (see [`host`]).
    setup_mark: usize,
    records: Vec<BatchRecord>,
    epochs: Vec<Arc<PatternSnapshot>>,
}

/// One bootstrap plus the whole batch sequence.
fn round(inp: &Inputs, threads: usize, telemetry: bool, id: u64) -> Round {
    sched::release_free_memory();
    let db = inp.db.clone();
    let batches = inp.batches.clone();
    let setup_mark = host::sample(host::WINDOW + 1);
    let boot = trace::open("core.bootstrap", id, None);
    let begin = Instant::now();
    let mut midas = Midas::bootstrap(db, config(threads, telemetry)).expect("non-empty database");
    let setup_s = begin.elapsed().as_secs_f64();
    boot.close();
    midas_obs::set_enabled(telemetry);

    let mut epochs = vec![midas.pattern_snapshot()];
    let mut records = Vec::with_capacity(BATCHES);
    let seq = trace::open("core.batch_sequence", id, None);
    for (i, batch) in batches.into_iter().enumerate() {
        // A batch takes 10 ms to 1 s, so its own pieces, and the next
        // batch's, are the ones close to it in time.
        let mark = host::sample(host::WINDOW);
        let begin = Instant::now();
        let span = trace::open_at("core.apply_batch", id * 1000 + i as u64, seq.id(), begin);
        let report = midas.apply_batch(batch);
        let done = Instant::now();
        span.close_at(done);
        records.push(BatchRecord::of(&report, ms(done - begin), mark));
        epochs.push(midas.pattern_snapshot());
    }
    seq.close();
    host::sample(host::WINDOW);
    midas_obs::set_enabled(false);
    Round {
        setup_s,
        setup_mark,
        records,
        epochs,
    }
}

fn check_digests(m: &mut Metrics, r: &Round, what: &str) {
    let got: Vec<u64> = r.epochs.iter().map(|s| digest(s)).collect();
    m.check(got == PINNED, || {
        format!("maintain_mix ({what}): epoch digests {got:?} differ from the pinned {PINNED:?}")
    });
    for (i, rec) in r.records.iter().enumerate() {
        m.check(!rec.error, || {
            format!("batch {i} reported a contained error")
        });
    }
}

/// End-to-end metrics of a set of rounds.
fn e2e(m: &mut Metrics, rounds: &[Round], steps: f64) {
    let setup = Samples(rounds.iter().map(|r| r.setup_s).collect());
    let setup_ref = Samples(
        rounds
            .iter()
            .map(|r| host::reference(r.setup_s, r.setup_mark))
            .collect(),
    );
    let runs: Vec<Vec<BatchRecord>> = rounds.iter().map(|r| r.records.clone()).collect();
    let (major, _) = layers::pmt_medians(&layers::fastest(&runs));
    let publish = Samples(runs.iter().flatten().map(|r| r.wall_ms).collect());
    let n = |s: &Samples| format!("median of {}", s.len());
    let fastest_of = format!("fastest of {} rounds", rounds.len());
    m.time(
        "setup_s",
        setup_ref.median(),
        setup.median(),
        "s",
        &n(&setup),
    );
    layers::maintenance_times(&runs, &format!("{} rounds", rounds.len()), m);
    m.layer(
        "core.pmt_major_ms",
        major.median(),
        "ms",
        &format!("{}, each the {fastest_of}", n(&major)),
    );
    m.e2e(
        "steps_per_query",
        steps,
        "steps",
        &format!("{STEP_QUERIES} queries x {} epochs", BATCHES + 1),
    );
    let (pt, pp) = publish.tail();
    m.layer("load.publish_p50_ms", publish.median(), "ms", &n(&publish));
    m.layer(
        "load.publish_tail_ms",
        pt,
        "ms",
        &format!("p{pp:.2} of {}", publish.len()),
    );
    let records = runs.concat();
    m.attempted += records.len() as u64;
    m.failed += records.iter().filter(|r| r.error).count() as u64;
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Metrics {
    let mut m = Metrics::default();
    let inp = inputs(seed);
    eprintln!(
        "maintain_mix: {} graphs, {} batches",
        inp.db.len(),
        inp.batches.len()
    );
    // A round count fixed by `seconds`, not by elapsed time, so a faster
    // program measures the same batches and its tails sit at the same rank.
    let count = seconds.div_ceil(ROUND_S).max(2);
    let mut rounds = Vec::new();
    for i in 0..count {
        let r = round(&inp, 0, false, i);
        check_digests(&mut m, &r, "timed");
        rounds.push(r);
    }
    let epochs: Vec<Vec<LabeledGraph>> = rounds[0]
        .epochs
        .iter()
        .map(|s| s.patterns.clone())
        .collect();
    let steps = layers::mean_steps(&inp.step_queries, &epochs);
    e2e(&mut m, &rounds, steps);
    if !traced {
        return m;
    }

    // Traced: the same round with telemetry and spans on.
    let untraced = std::mem::take(&mut m.e2e);
    trace::set_on(true);
    let t = round(&inp, 0, true, 100);
    check_digests(&mut m, &t, "traced");
    trace::set_on(false);
    e2e(&mut m, std::slice::from_ref(&t), steps);
    layers::core_metrics(&t.records, &mut m);
    let traced_e2e = std::mem::replace(&mut m.e2e, untraced);
    trace::overhead(&mut m, &traced_e2e);

    trace::set_on(true);
    let split = layers::setup_split(std::slice::from_ref(&inp.db), &config(0, false), &mut m);
    trace::set_on(false);
    eprintln!(
        "set-up split sums to {split:.3} s against setup_s {:.3} s",
        m.get("setup_s")
    );
    let one = round(&inp, 1, false, 200);
    check_digests(&mut m, &one, "threads = 1");
    m.layer(
        "exec.threads1_maintain_s",
        one.records.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3,
        "s",
        "maintain_s with MidasConfig.threads = 1",
    );
    library_probes(&mut m, &inp, &t);
    trace::write_spans(&mut m, "maintain_mix", seed, &traced_e2e);
    m
}

/// Layer probes on the library read path, on the last published snapshot.
fn library_probes(m: &mut Metrics, inp: &Inputs, r: &Round) {
    let snap = r.epochs.last().expect("epochs").clone();
    let handle = midas_core::Published::new((*snap).clone());
    m.layer(
        "graph.patterns_to_json_us",
        layers::median_us(500, || {
            std::hint::black_box(io::patterns_to_json(&snap.patterns).expect("serialize"));
        }),
        "us",
        "median of 500",
    );
    let reps = 100_000;
    let begin = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(handle.read());
    }
    m.layer(
        "core.snapshot_read_ns",
        begin.elapsed().as_secs_f64() * 1e9 / reps as f64,
        "ns",
        "Published::read, mean of 100000",
    );
    let mut f = Samples::default();
    for q in &inp.probe_queries {
        let begin = Instant::now();
        std::hint::black_box(midas_queryform::formulate(q, &snap.patterns));
        f.push(us(begin.elapsed()));
    }
    m.layer(
        "queryform.formulate_us",
        f.median(),
        "us",
        &format!("median of {}", f.len()),
    );
    let bodies: Vec<String> = inp
        .batches
        .iter()
        .map(|b| io::batch_to_json(b).expect("batch serializes"))
        .collect();
    let mut d = Samples::default();
    for body in &bodies {
        let begin = Instant::now();
        let v = midas_serve::json::Value::parse(body).expect("batch JSON parses");
        if let Some(ins) = v.get("insert") {
            std::hint::black_box(midas_serve::json::graphs_from_value(ins).expect("graphs"));
        }
        d.push(us(begin.elapsed()));
    }
    m.layer(
        "serve.batch_decode_us",
        d.median(),
        "us",
        &format!("median of {}", d.len()),
    );
}
