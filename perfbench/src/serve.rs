//! `serve_read` and `serve_write`: the pattern-serving daemon over real
//! HTTP, driven by an open-loop generator.
//!
//! The daemon runs in this process with `ServeConfig::default()`; the
//! load is at most two threads, which also observe publication. Tenants
//! are created with explicit graphs and receive only explicit batches,
//! all generated here. Tenant databases and batch sequences are pinned
//! (see `maintain.rs` for why); the workload seed draws the request
//! schedule: which tenant and endpoint each request hits, and the queries
//! each query log carries. After the window every tenant's
//! final pattern set must be bit-identical to a library replay
//! (`Midas::bootstrap_embedded` under the `small` preset, the same
//! batches in the same order), and every reader must have seen per-tenant
//! epochs that never go backwards.

use crate::layers::{self, BatchRecord};
use crate::sched::{self, ms, us, wait_until_with, Rng};
use crate::stats::Samples;
use crate::{host, trace, Metrics};
use midas_core::{Midas, MidasConfig};
use midas_datagen::{
    deletion_batch, growth_batch, novel_family_batch, query_set, DatasetKind, DatasetSpec,
    MotifKind,
};
use midas_graph::{io, BatchUpdate, GraphDb, LabeledGraph};
use midas_serve::json::Value;
use midas_serve::{ServeClient, ServeConfig, ServeDaemon, Tenant};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANT_GRAPHS: usize = 240;
/// Generator seed of the pinned tenant databases and batch sequences.
const DATA_SEED: u64 = 0x7365_7276_6500;
const PRESET: &str = "small";
const QUERYLOG_SIZE: usize = 8;
const STEP_QUERIES: usize = 16;
/// Load threads, observer duties included: the host's two cores.
const THREADS: usize = 2;
/// How long to wait for accepted batches to publish after the window.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Read-latency limit for the `load.read_max_rps` ladder.
const READ_TAIL_LIMIT_US: f64 = 1000.0;
const LADDER: [f64; 5] = [1000.0, 2000.0, 4000.0, 6000.0, 8000.0];
const LADDER_STEP: Duration = Duration::from_secs(1);
/// Reads per chunk for the read tail (see [`Samples::chunked_tail`]).
const READ_CHUNK: usize = 100;
/// How often a waiting load thread checks for published batches.
const OBSERVE_EVERY: Duration = Duration::from_micros(200);
/// Set-ups per pass (daemon start + every tenant created); `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// Batches each tenant applies before the window opens.
const WARMUP: usize = 1;
/// Library replays per pass; each batch's gated time is its median over
/// them.
const REPLAYS: usize = 5;

/// One serve workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    name: &'static str,
    /// Relative popularity of each tenant for reads.
    weights: &'static [f64],
    /// Offered read rate, requests/s, spread over `read_threads`.
    read_rate: f64,
    read_threads: &'static [usize],
    /// Shares of GET patterns, GET epoch and POST querylog among reads.
    mix: [f64; 3],
    /// One update batch is due every `write_interval`, from thread 0,
    /// round-robin over the tenants.
    write_interval: Duration,
    /// Rotation of a tenant's update batches.
    rotation: &'static [Op],
    /// Whether the traced run climbs the read-rate [`LADDER`].
    ladder: bool,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Growth(usize),
    Deletion(usize),
    Novel(usize),
}

impl Spec {
    pub fn read() -> Spec {
        Spec {
            name: "serve_read",
            weights: &[0.4, 0.3, 0.2, 0.1],
            read_rate: 500.0,
            read_threads: &[0, 1],
            mix: [0.85, 0.10, 0.05],
            write_interval: Duration::from_millis(250),
            rotation: &[Op::Growth(20), Op::Deletion(20)],
            ladder: true,
        }
    }

    pub fn write() -> Spec {
        Spec {
            name: "serve_write",
            weights: &[0.5, 0.5],
            read_rate: 200.0,
            read_threads: &[1],
            mix: [0.95, 0.0, 0.05],
            write_interval: Duration::from_millis(330),
            rotation: &[Op::Growth(12), Op::Deletion(60), Op::Novel(48)],
            ladder: false,
        }
    }
}

struct TenantInput {
    name: String,
    graphs: Vec<LabeledGraph>,
    /// Every batch this tenant receives, in order: [`WARMUP`] before the
    /// window, the rest in it.
    batches: Vec<BatchUpdate>,
    bodies: Vec<String>,
    querylog: Vec<String>,
    querylog_graphs: Vec<LabeledGraph>,
    step_queries: Vec<LabeledGraph>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Patterns(usize),
    Epoch(usize),
    Querylog(usize, usize),
    Post(usize, usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    at: Duration,
    kind: Kind,
    id: u64,
}

/// Per-thread schedules for a window of `seconds`, plus how many batches
/// each tenant is sent in it.
fn schedule(
    spec: &Spec,
    rng: &mut Rng,
    seconds: f64,
    read_rate: f64,
    posts: bool,
) -> (Vec<Vec<Event>>, Vec<usize>) {
    let n = spec.weights.len();
    let mut threads: Vec<Vec<Event>> = vec![Vec::new(); THREADS];
    let mut per_tenant = vec![0usize; n];
    let mut id = 0u64;
    let k = spec.read_threads.len();
    let gap = k as f64 / read_rate;
    for (j, &t) in spec.read_threads.iter().enumerate() {
        let mut at = gap * (j as f64 + 1.0) / k as f64;
        while at < seconds {
            let tenant = rng.pick(spec.weights);
            let kind = match rng.pick(&spec.mix) {
                0 => Kind::Patterns(tenant),
                1 => Kind::Epoch(tenant),
                _ => Kind::Querylog(tenant, (rng.next_u64() % 16) as usize),
            };
            id += 1;
            threads[t].push(Event {
                at: Duration::from_secs_f64(at),
                kind,
                id,
            });
            at += gap;
        }
    }
    if posts {
        let w = spec.write_interval.as_secs_f64();
        let mut at = w / 2.0;
        let mut b = 0usize;
        while at < seconds {
            let tenant = b % n;
            id += 1;
            threads[0].push(Event {
                at: Duration::from_secs_f64(at),
                kind: Kind::Post(tenant, per_tenant[tenant]),
                id,
            });
            per_tenant[tenant] += 1;
            b += 1;
            at += w;
        }
    }
    for t in &mut threads {
        t.sort_by_key(|e| e.at);
    }
    (threads, per_tenant)
}

fn tenant_inputs(spec: &Spec, seed: u64, batches_per_tenant: &[usize]) -> Vec<TenantInput> {
    let params = DatasetKind::PubchemLike.params();
    (0..spec.weights.len())
        .map(|t| {
            let base = DATA_SEED + t as u64 * 7919;
            let db = DatasetSpec::new(DatasetKind::PubchemLike, TENANT_GRAPHS, base)
                .generate()
                .db;
            let graphs: Vec<LabeledGraph> = db.iter().map(|(_, g)| g.as_ref().clone()).collect();
            let mut shadow = GraphDb::from_graphs(graphs.iter().cloned());
            let mut batches = Vec::new();
            let motif = |i: usize| {
                if i.is_multiple_of(2) {
                    MotifKind::BoronicEster
                } else {
                    MotifKind::Phosphate
                }
            };
            for i in 0..=batches_per_tenant[t] {
                let s = base ^ ((i as u64 + 1) << 24);
                batches.push(match spec.rotation[i % spec.rotation.len()] {
                    Op::Growth(n) => growth_batch(&params, n, s),
                    Op::Deletion(n) => deletion_batch(&shadow, n, s),
                    Op::Novel(n) => novel_family_batch(motif(i / spec.rotation.len()), n, s),
                });
                shadow.apply(batches.last().expect("just pushed").clone());
            }
            for b in &batches {
                assert!(!b.is_empty(), "an empty batch would not advance the epoch");
            }
            let bodies = batches
                .iter()
                .map(|b| io::batch_to_json(b).expect("batch serializes"))
                .collect();
            let querylog_graphs =
                query_set(&db, 16 * QUERYLOG_SIZE, (3, 8), seed ^ (t as u64) << 32);
            let querylog = querylog_graphs
                .chunks(QUERYLOG_SIZE)
                .map(|c| {
                    format!(
                        "{{\"queries\": {}}}",
                        io::patterns_to_json(c).expect("queries serialize")
                    )
                })
                .collect();
            TenantInput {
                name: format!("t{t}"),
                graphs,
                batches,
                bodies,
                querylog,
                querylog_graphs,
                step_queries: query_set(&db, STEP_QUERIES, (3, 8), base ^ 0xc3),
            }
        })
        .collect()
}

/// Starts a daemon and creates every tenant; returns it with the seconds
/// its `POST /v1/tenants` calls took until each was answered 201, summed,
/// as wall time and at the reference host speed (see [`host`]).
fn setup(tenants: &[TenantInput], m: &mut Metrics) -> (ServeDaemon, f64, f64) {
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("daemon starts");
    let client = ServeClient::new(daemon.addr().to_string());
    let s = trace::open("serve.setup", 0, None);
    let mut calls = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mark = host::sample(host::WINDOW + usize::from(i == 0));
        let span = trace::open("http.post_tenants", i as u64, s.id());
        let begin = Instant::now();
        let r = client.create_tenant_with_graphs(&t.name, &t.graphs, PRESET);
        let secs = begin.elapsed().as_secs_f64();
        span.close();
        calls.push((secs, mark));
        m.attempted += 1;
        let ok = matches!(&r, Ok(reply) if reply.status == 201);
        if !ok {
            m.failed += 1;
        }
        m.check(ok, || format!("creating tenant {}: {r:?}", t.name));
    }
    s.close();
    host::sample(host::WINDOW);
    let wall = calls.iter().map(|c| c.0).sum();
    let reference = calls.iter().map(|&(s, k)| host::reference(s, k)).sum();
    (daemon, wall, reference)
}

#[derive(Default)]
struct Load {
    /// GET patterns latencies, in order of when they were due.
    patterns_us: Samples,
    /// `(due, latency)` as each thread saw them.
    patterns_at: Vec<(Duration, f64)>,
    querylog_ms: Samples,
    accept_ms: Samples,
    late_us: Samples,
    bytes: Samples,
    attempted: u64,
    failed: u64,
    regressions: Vec<String>,
    busy: u64,
    samples: u64,
    depth_max: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    tenant: usize,
    seq: usize,
    epoch: u64,
    due: Instant,
    id: u64,
}

#[derive(Default)]
struct Published {
    /// `(tenant, seq, publish latency ms)`.
    done: Vec<(usize, usize, f64)>,
    pending: Vec<Pending>,
}

/// Moves every pending batch whose epoch is now visible to `done`.
fn observe(published: &Mutex<Published>, live: &[Arc<Tenant>]) {
    let mut p = published.lock().expect("publish log poisoned");
    if p.pending.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut i = 0;
    while i < p.pending.len() {
        let e = p.pending[i];
        if live[e.tenant].snapshot().epoch >= e.epoch {
            p.done.push((e.tenant, e.seq, ms(now - e.due)));
            trace::open_at("serve.publish_wait", e.id, None, e.due).close_at(now);
            p.pending.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

fn epoch_of(body: &str) -> Option<u64> {
    Value::parse(body).ok()?.get("epoch")?.as_u64()
}

#[allow(clippy::too_many_arguments)]
fn drive(
    events: &[Event],
    start: Instant,
    client: &ServeClient,
    tenants: &[TenantInput],
    live: &[Arc<Tenant>],
    published: &Mutex<Published>,
) -> Load {
    let mut l = Load::default();
    let mut seen = vec![0u64; tenants.len()];
    for e in events {
        let due = start + e.at;
        // Observing while waiting times publication to within about
        // [`OBSERVE_EVERY`].
        let wait = wait_until_with(due, OBSERVE_EVERY, || observe(published, live));
        l.late_us.push(us(wait));
        l.attempted += 1;
        let (name, method, path, body): (&str, &str, String, Option<&str>) = match e.kind {
            Kind::Patterns(t) => (
                "http.get_patterns",
                "GET",
                format!("/v1/{}/patterns", tenants[t].name),
                None,
            ),
            Kind::Epoch(t) => (
                "http.get_epoch",
                "GET",
                format!("/v1/{}/epoch", tenants[t].name),
                None,
            ),
            Kind::Querylog(t, q) => (
                "http.post_querylog",
                "POST",
                format!("/v1/{}/querylog", tenants[t].name),
                Some(tenants[t].querylog[q].as_str()),
            ),
            Kind::Post(t, j) => (
                "http.post_updates",
                "POST",
                format!("/v1/{}/updates", tenants[t].name),
                Some(tenants[t].bodies[j + WARMUP].as_str()),
            ),
        };
        let span = trace::open_at(name, e.id, None, due);
        let reply = client.request(method, &path, body);
        let done = Instant::now();
        span.close_at(done);
        let lat = done - due;
        let ok_status = match e.kind {
            Kind::Post(..) => 202,
            _ => 200,
        };
        match &reply {
            Ok(r) if r.status == ok_status => {}
            other => {
                l.failed += 1;
                if l.failed <= 5 {
                    eprintln!("request {method} {path} failed: {other:?}");
                }
                continue;
            }
        }
        let reply = reply.expect("checked above");
        match e.kind {
            Kind::Patterns(t) | Kind::Epoch(t) => {
                if matches!(e.kind, Kind::Patterns(_)) {
                    l.patterns_at.push((e.at, us(lat)));
                    l.bytes.push(reply.body.len() as f64);
                }
                match epoch_of(&reply.body) {
                    Some(ep) if ep >= seen[t] => seen[t] = ep,
                    Some(ep) => l.regressions.push(format!(
                        "tenant {} epoch went back from {} to {ep}",
                        tenants[t].name, seen[t]
                    )),
                    None => l
                        .regressions
                        .push(format!("tenant {} reply without an epoch", tenants[t].name)),
                }
            }
            Kind::Querylog(..) => l.querylog_ms.push(ms(lat)),
            Kind::Post(t, j) => {
                l.accept_ms.push(ms(lat));
                published
                    .lock()
                    .expect("publish log poisoned")
                    .pending
                    .push(Pending {
                        tenant: t,
                        seq: j,
                        epoch: (j + WARMUP) as u64 + 1,
                        due,
                        id: e.id,
                    });
            }
        }
        observe(published, live);
        for t in live {
            let depth = t.pending_len();
            l.depth_max = l.depth_max.max(depth);
            l.busy += t.busy() as u64;
            l.samples += 1;
        }
    }
    l
}

struct Window {
    load: Load,
    publish_ms: Samples,
    /// Publish latency per `(tenant, seq)`.
    publish_by_batch: Vec<(usize, usize, f64)>,
    unpublished: usize,
}

/// Runs one open-loop window of `seconds` against a running daemon.
fn window(
    spec: &Spec,
    daemon: &ServeDaemon,
    tenants: &[TenantInput],
    events: &[Vec<Event>],
    seconds: f64,
) -> Window {
    let client = ServeClient::new(daemon.addr().to_string());
    let live: Vec<Arc<Tenant>> = tenants
        .iter()
        .map(|t| daemon.state().tenant(&t.name).expect("tenant exists"))
        .collect();
    let published = Mutex::new(Published::default());
    let start = Instant::now() + Duration::from_millis(20);
    let loads: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .iter()
            .map(|ev| {
                let (client, live, published) = (&client, &live, &published);
                scope.spawn(move || drive(ev, start, client, tenants, live, published))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    // Drain: wait for every accepted batch to publish.
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        observe(&published, &live);
        let left = published
            .lock()
            .expect("publish log poisoned")
            .pending
            .len();
        if left == 0 || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let p = published.into_inner().expect("publish log poisoned");
    let mut load = Load::default();
    for l in loads {
        load.patterns_at.extend(l.patterns_at);
        load.querylog_ms.0.extend(l.querylog_ms.0);
        load.accept_ms.0.extend(l.accept_ms.0);
        load.late_us.0.extend(l.late_us.0);
        load.bytes.0.extend(l.bytes.0);
        load.attempted += l.attempted;
        load.failed += l.failed;
        load.regressions.extend(l.regressions);
        load.busy += l.busy;
        load.samples += l.samples;
        load.depth_max = load.depth_max.max(l.depth_max);
    }
    load.patterns_at.sort_by_key(|x| x.0);
    load.patterns_us = Samples(load.patterns_at.iter().map(|x| x.1).collect());
    eprintln!(
        "{}: window {seconds:.1} s, {} requests, {} failed, {} batches published",
        spec.name,
        load.attempted,
        load.failed,
        p.done.len()
    );
    Window {
        publish_ms: Samples(p.done.iter().map(|d| d.2).collect()),
        publish_by_batch: p.done,
        unpublished: p.pending.len(),
        load,
    }
}

/// The library replay of every tenant: bootstrap on the same graphs, then
/// the same batches in the same order.
struct Replay {
    records: Vec<BatchRecord>,
    /// Per tenant, PMT of each batch in order.
    pmt_ms: Vec<Vec<f64>>,
    epochs: Vec<Vec<Vec<LabeledGraph>>>,
    finals: Vec<Arc<midas_core::PatternSnapshot>>,
}

fn replay(tenants: &[TenantInput], sent: &[usize], threads: usize, telemetry: bool) -> Replay {
    let mut out = Replay {
        records: Vec::new(),
        pmt_ms: Vec::new(),
        epochs: Vec::new(),
        finals: Vec::new(),
    };
    for (t, inp) in tenants.iter().enumerate() {
        let config = MidasConfig {
            threads,
            ..midas_serve::config_preset(PRESET).expect("preset exists")
        };
        let db = GraphDb::from_graphs(inp.graphs.iter().cloned());
        let mut lib = Midas::bootstrap_embedded(db, config).expect("non-empty database");
        midas_obs::set_enabled(telemetry);
        let mut epochs = vec![lib.pattern_snapshot().patterns.clone()];
        let mut pmt = Vec::new();
        for (j, batch) in inp.batches[..sent[t]].iter().enumerate() {
            let batch = batch.clone();
            let mark = host::sample(1);
            let span = trace::open("core.apply_batch", (t * 100_000 + j) as u64, None);
            let begin = Instant::now();
            let report = lib.apply_batch(batch);
            let wall = ms(begin.elapsed());
            span.close();
            let rec = BatchRecord::of(&report, wall, mark);
            pmt.push(rec.pmt_ms);
            out.records.push(rec);
            epochs.push(lib.pattern_snapshot().patterns.clone());
        }
        midas_obs::set_enabled(false);
        out.pmt_ms.push(pmt);
        out.epochs.push(epochs);
        out.finals.push(lib.pattern_snapshot());
    }
    host::sample(host::WINDOW);
    out
}

/// The first replay, with each batch's record replaced by that of the
/// fastest replay of the batch (see [`layers::fastest`]), for the phase
/// split and the queue wait.
fn fastest_replay(runs: &[Vec<BatchRecord>], mut replays: Vec<Replay>) -> Replay {
    let mut out = replays.swap_remove(0);
    out.records = layers::fastest(runs);
    let mut k = 0;
    for pmts in &mut out.pmt_ms {
        for pmt in pmts.iter_mut() {
            *pmt = out.records[k].pmt_ms;
            k += 1;
        }
    }
    out
}

struct Pass {
    /// Each set-up's seconds, wall and at the reference host speed.
    setups: Vec<(f64, f64)>,
    window: Window,
    /// Every replay's records, for the gated times.
    runs: Vec<Vec<BatchRecord>>,
    replay: Replay,
    sent: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn pass(
    spec: &Spec,
    seconds: f64,
    tenants: &[TenantInput],
    per_tenant: &[usize],
    events: &[Vec<Event>],
    telemetry: bool,
    m: &mut Metrics,
    mut probes: impl FnMut(&ServeDaemon, &[TenantInput], &mut Metrics),
) -> Pass {
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        // Drop the previous daemon first: one daemon's threads at a time.
        drop(daemon.take());
        sched::release_free_memory();
        let (d, wall, reference) = setup(tenants, m);
        setups.push((wall, reference));
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    midas_obs::set_enabled(telemetry);
    let client = ServeClient::new(daemon.addr().to_string());
    // The first batch of a tenant is several times dearer than the rest
    // (cold matcher caches); users pay it once, so it goes before the
    // window, synchronously.
    for t in tenants {
        let path = format!("/v1/{}/updates?mode=sync", t.name);
        let r = client.request("POST", &path, Some(&t.bodies[0]));
        m.attempted += 1;
        let ok = matches!(&r, Ok(reply) if reply.status == 200);
        m.failed += u64::from(!ok);
        m.check(ok, || format!("warm-up batch for {}: {r:?}", t.name));
    }
    let w = window(spec, &daemon, tenants, events, seconds);
    m.attempted += w.load.attempted;
    m.failed += w.load.failed + w.unpublished as u64;
    m.check(w.load.failed == 0, || {
        format!(
            "{} of {} requests in the window failed (non-2xx reply or transport error)",
            w.load.failed, w.load.attempted
        )
    });
    m.check(w.unpublished == 0, || {
        format!("{} accepted batches never published", w.unpublished)
    });
    m.check(w.load.regressions.is_empty(), || {
        w.load.regressions.join("; ")
    });
    probes(&daemon, tenants, m);
    let served: Vec<_> = tenants.iter().map(|t| client.patterns(&t.name)).collect();
    midas_obs::set_enabled(false);
    daemon.shutdown();

    let sent: Vec<usize> = per_tenant.iter().map(|n| n + WARMUP).collect();
    let replays: Vec<Replay> = (0..REPLAYS)
        .map(|_| replay(tenants, &sent, 0, telemetry))
        .collect();
    for r in &replays[1..] {
        m.check(
            r.finals
                .iter()
                .zip(&replays[0].finals)
                .all(|(a, b)| a.patterns == b.patterns && a.epoch == b.epoch),
            || "two library replays of the same batches differ".to_owned(),
        );
    }
    let runs: Vec<Vec<BatchRecord>> = replays.iter().map(|r| r.records.clone()).collect();
    let replay = fastest_replay(&runs, replays);
    for (t, got) in served.iter().enumerate() {
        let want = &replay.finals[t];
        let name = &tenants[t].name;
        m.attempted += 1;
        match got {
            Ok(p) => m.check(
                p.epoch == want.epoch
                    && p.db_len as usize == want.db_len
                    && p.patterns == want.patterns,
                || {
                    format!(
                        "tenant {name}: served epoch {} / {} graphs / {} patterns differs from the library replay's epoch {} / {} graphs / {} patterns",
                        p.epoch, p.db_len, p.patterns.len(), want.epoch, want.db_len, want.patterns.len()
                    )
                },
            ),
            Err(e) => {
                m.failed += 1;
                m.check(false, || format!("final GET patterns for {name}: {e}"));
            }
        }
    }
    m.failed += replay.records.iter().filter(|r| r.error).count() as u64;
    m.check(replay.records.iter().all(|r| !r.error), || {
        "a replayed batch reported a contained error".to_owned()
    });
    Pass {
        setups,
        window: w,
        runs,
        replay,
        sent,
    }
}

fn e2e(m: &mut Metrics, p: &Pass, tenants: &[TenantInput]) {
    let n = |s: &Samples| format!("median of {}", s.len());
    let setup = Samples(p.setups.iter().map(|s| s.0).collect());
    m.time(
        "setup_s",
        Samples(p.setups.iter().map(|s| s.1).collect()).median(),
        setup.median(),
        "s",
        &n(&setup),
    );
    layers::maintenance_times(&p.runs, &format!("{REPLAYS} library replays"), m);
    let (major, _) = layers::pmt_medians(&p.replay.records);
    m.layer(
        "core.pmt_major_ms",
        layers::median_or_zero(&major),
        "ms",
        &n(&major),
    );
    let mut total = 0.0;
    let mut count = 0usize;
    for (t, inp) in tenants.iter().enumerate() {
        let s = layers::mean_steps(&inp.step_queries, &p.replay.epochs[t]);
        let k = inp.step_queries.len() * p.replay.epochs[t].len();
        total += s * k as f64;
        count += k;
    }
    m.e2e(
        "steps_per_query",
        total / count.max(1) as f64,
        "steps",
        &format!("{count} query x epoch pairs"),
    );
    let reads = &p.window.load.patterns_us;
    let (rt, rp, k) = reads.chunked_tail(READ_CHUNK);
    m.layer("load.read_p50_us", reads.median(), "us", &n(reads));
    m.layer(
        "load.read_tail_us",
        rt,
        "us",
        &format!(
            "median over {k} chunks of p{rp:.2} ({} samples)",
            reads.len()
        ),
    );
    let chunks: Vec<String> = reads
        .0
        .chunks(READ_CHUNK)
        .map(|c| {
            let c = Samples(c.to_vec());
            format!("{:.0}/{:.0}", c.median(), c.tail().0)
        })
        .collect();
    eprintln!("GET patterns p50/tail per chunk: {}", chunks.join(" "));
    let q = &p.window.load.querylog_ms;
    m.layer("load.querylog_p50_ms", q.median(), "ms", &n(q));
    let pubs = &p.window.publish_ms;
    let (pt, pp) = pubs.tail();
    m.layer("load.publish_p50_ms", pubs.median(), "ms", &n(pubs));
    m.layer(
        "load.publish_tail_ms",
        pt,
        "ms",
        &format!("p{pp:.2} of {}", pubs.len()),
    );
    let late = &p.window.load.late_us;
    let (lt, lp) = late.tail();
    m.layer("load.late_p50_us", late.median(), "us", &n(late));
    m.layer(
        "load.late_tail_us",
        lt,
        "us",
        &format!("p{lp:.2} of {}", late.len()),
    );
    let a = &p.window.load.accept_ms;
    m.layer("serve.accept_p50_ms", a.median(), "ms", &n(a));
}

pub fn run(spec: Spec, seed: u64, seconds: u64, traced: bool) -> Metrics {
    let mut m = Metrics::default();
    let secs = seconds as f64;
    let mut rng = Rng::new(seed ^ 0x5e_4e);
    let (events, per_tenant) = schedule(&spec, &mut rng, secs, spec.read_rate, true);
    let tenants = tenant_inputs(&spec, seed, &per_tenant);
    eprintln!(
        "{}: {} tenants x {} graphs, batches per tenant {:?}",
        spec.name,
        tenants.len(),
        TENANT_GRAPHS,
        per_tenant
    );
    let p = pass(
        &spec,
        secs,
        &tenants,
        &per_tenant,
        &events,
        false,
        &mut m,
        |_, _, _| {},
    );
    e2e(&mut m, &p, &tenants);
    if !traced {
        return m;
    }

    let untraced = std::mem::take(&mut m.e2e);
    trace::set_on(true);
    let t = pass(
        &spec,
        secs,
        &tenants,
        &per_tenant,
        &events,
        true,
        &mut m,
        |daemon, tenants, m| {
            trace::set_on(false);
            probes(daemon, tenants, m);
            trace::set_on(true);
        },
    );
    trace::set_on(false);
    e2e(&mut m, &t, &tenants);
    layers::core_metrics(&t.replay.records, &mut m);
    let traced_e2e = std::mem::replace(&mut m.e2e, untraced);
    trace::overhead(&mut m, &traced_e2e);

    // Queue wait: publish latency minus the library's apply time.
    let mut wait = Samples::default();
    for &(tenant, seq, publish) in &t.window.publish_by_batch {
        wait.push(publish - t.replay.pmt_ms[tenant][seq + WARMUP]);
    }
    m.layer(
        "serve.queue_wait_ms",
        wait.median(),
        "ms",
        &format!("median of {}", wait.len()),
    );
    let l = &t.window.load;
    m.layer(
        "serve.queue_depth_max",
        l.depth_max as f64,
        "count",
        "sampled",
    );
    m.layer(
        "serve.maint_busy_share",
        l.busy as f64 / l.samples.max(1) as f64,
        "ratio",
        &format!("{} samples", l.samples),
    );
    m.layer(
        "serve.response_bytes",
        l.bytes.mean(),
        "bytes",
        "mean GET patterns body",
    );
    let dbs: Vec<GraphDb> = tenants
        .iter()
        .map(|t| GraphDb::from_graphs(t.graphs.iter().cloned()))
        .collect();
    let config = midas_serve::config_preset(PRESET).expect("preset exists");
    trace::set_on(true);
    let split = layers::setup_split(&dbs, &config, &mut m);
    trace::set_on(false);
    eprintln!(
        "set-up split sums to {split:.3} s against setup_s {:.3} s",
        m.get("setup_s")
    );
    let one = replay(&tenants, &t.sent, 1, false);
    m.layer(
        "exec.threads1_maintain_s",
        one.records.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3,
        "s",
        "maintain_s with MidasConfig.threads = 1",
    );
    for (a, b) in one.finals.iter().zip(&t.replay.finals) {
        m.check(a.patterns == b.patterns && a.epoch == b.epoch, || {
            "replay with threads = 1 differs from the default thread count".to_owned()
        });
    }
    if spec.ladder {
        ladder(&spec, seed, &tenants, &mut m);
    }
    trace::write_spans(&mut m, spec.name, seed, &traced_e2e);
    m
}

/// Layer probes against the live daemon after the window.
fn probes(daemon: &ServeDaemon, tenants: &[TenantInput], m: &mut Metrics) {
    let addr = daemon.addr();
    let mut connect = Samples::default();
    for _ in 0..200 {
        let begin = Instant::now();
        let Ok(mut s) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        connect.push(us(begin.elapsed()));
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }
    m.layer(
        "http.connect_us",
        connect.median(),
        "us",
        &format!("median of {}", connect.len()),
    );
    let name = &tenants[0].name;
    let req = midas_obs::httpd::Request {
        method: "GET".to_owned(),
        path: format!("/v1/{name}/patterns"),
        query: None,
        headers: Vec::new(),
        body: Vec::new(),
    };
    let state = daemon.state();
    m.layer(
        "serve.route_patterns_us",
        layers::median_us(500, || {
            std::hint::black_box(midas_serve::api::route(state, &req));
        }),
        "us",
        "median of 500, in process",
    );
    let tenant = state.tenant(name).expect("tenant exists");
    let snap = tenant.snapshot();
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
        std::hint::black_box(tenant.snapshot());
    }
    m.layer(
        "core.snapshot_read_ns",
        begin.elapsed().as_secs_f64() * 1e9 / reps as f64,
        "ns",
        "Tenant::snapshot, mean of 100000",
    );
    let mut f = Samples::default();
    for t in tenants {
        let patterns = state
            .tenant(&t.name)
            .expect("tenant")
            .snapshot()
            .patterns
            .clone();
        for q in &t.querylog_graphs {
            let begin = Instant::now();
            std::hint::black_box(midas_queryform::formulate(q, &patterns));
            f.push(us(begin.elapsed()));
        }
    }
    m.layer(
        "queryform.formulate_us",
        f.median(),
        "us",
        &format!("median of {}", f.len()),
    );
    let mut d = Samples::default();
    for t in tenants {
        for body in &t.bodies {
            let begin = Instant::now();
            let v = Value::parse(body).expect("batch JSON parses");
            if let Some(ins) = v.get("insert") {
                std::hint::black_box(midas_serve::json::graphs_from_value(ins).expect("graphs"));
            }
            d.push(us(begin.elapsed()));
        }
    }
    m.layer(
        "serve.batch_decode_us",
        d.median(),
        "us",
        &format!("median of {}", d.len()),
    );
}

/// Highest offered read rate on [`LADDER`] whose read tail (as in
/// `load.read_tail_us`) stays under [`READ_TAIL_LIMIT_US`] with no failures and
/// no backlog: the generator's own lateness tail stays under the limit
/// too. Each step gets a fresh daemon, on a fresh port, so one step's
/// TIME_WAIT connections do not slow the next one's connects.
fn ladder(spec: &Spec, seed: u64, tenants: &[TenantInput], m: &mut Metrics) {
    let mut scratch = Metrics::default();
    let mut best = 0.0;
    let read_only = Spec {
        mix: [1.0, 0.0, 0.0],
        ..spec.clone()
    };
    for (i, rate) in LADDER.iter().enumerate() {
        let mut rng = Rng::new(seed ^ (i as u64 + 1) << 40);
        let (events, _) = schedule(
            &read_only,
            &mut rng,
            LADDER_STEP.as_secs_f64(),
            *rate,
            false,
        );
        let (daemon, _, _) = setup(tenants, &mut scratch);
        let w = window(
            &read_only,
            &daemon,
            tenants,
            &events,
            LADDER_STEP.as_secs_f64(),
        );
        daemon.shutdown();
        let (tail, p, _) = w.load.patterns_us.chunked_tail(READ_CHUNK);
        let (late_tail, _, _) = w.load.late_us.chunked_tail(READ_CHUNK);
        let meets =
            w.load.failed == 0 && tail < READ_TAIL_LIMIT_US && late_tail < READ_TAIL_LIMIT_US;
        eprintln!(
            "ladder {rate:>6.0} req/s: read p50 {:.1} us, p{p:.2} {tail:.1} us, late tail {late_tail:.1} us, failed {} -> {}",
            w.load.patterns_us.median(),
            w.load.failed,
            if meets { "meets" } else { "misses" }
        );
        if meets {
            best = *rate;
        }
    }
    m.layer(
        "load.read_max_rps",
        best,
        "1/s",
        &format!("ladder {LADDER:?}, tail limit {READ_TAIL_LIMIT_US} us"),
    );
}
