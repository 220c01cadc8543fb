//! End-to-end benchmark of MIDAS canned-pattern maintenance and the
//! pattern-serving daemon.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload maintain_mix --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `perfbench/NOTES.md` for why each exists and how it was
//! sized):
//!
//! * `maintain_mix` — the library alone: `Midas::bootstrap`, then a fixed
//!   sequence of growth, deletion and novel-family batches through
//!   `Midas::apply_batch`.
//! * `serve_read` — `ServeDaemon` with four tenants, an open loop of
//!   pattern reads, epoch probes and query logs over HTTP, and a slow
//!   trickle of minor update batches.
//! * `serve_write` — `ServeDaemon` with two tenants, an open loop of
//!   update batches (growth, deletion, novel-family waves) and a light read
//!   probe.
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` the run repeats its measured part
//! with the program's telemetry and the benchmark's own spans on, and the
//! JSON holds every per-layer metric. Any failed output check makes the
//! run exit non-zero with `"correct": false`.

mod host;
mod layers;
mod maintain;
mod sched;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

/// End-to-end metrics, in output order, with units.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("maintain_s", "s"),
    ("pmt_minor_ms", "ms"),
    ("steps_per_query", "steps"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics reported by a traced run, with units. A layer a
/// workload does not exercise reads 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.swap_ms.major", "ms"),
    ("core.swap_ms.minor", "ms"),
    ("core.candidates_ms.major", "ms"),
    ("core.candidates_ms.minor", "ms"),
    ("core.cluster_ms.major", "ms"),
    ("core.cluster_ms.minor", "ms"),
    ("core.fct_ms.major", "ms"),
    ("core.fct_ms.minor", "ms"),
    ("core.index_ms.major", "ms"),
    ("core.index_ms.minor", "ms"),
    ("core.other_ms.major", "ms"),
    ("core.other_ms.minor", "ms"),
    ("core.major_batches", "count"),
    ("core.minor_batches", "count"),
    ("core.candidates", "count"),
    ("core.swaps", "count"),
    ("core.swap_yield", "ratio"),
    ("core.apply_ms", "ms"),
    ("core.pmt_major_ms", "ms"),
    ("mining.fct_build_s", "s"),
    ("cluster.build_s", "s"),
    ("catapult.select_s", "s"),
    ("index.build_s", "s"),
    ("core.monitor_build_s", "s"),
    ("cluster.splits", "count"),
    ("core.swap_scans", "count"),
    ("core.swap_scan_ms", "ms"),
    ("fct.rebuilds", "count"),
    ("graph.cache_hit_ratio", "ratio"),
    ("graph.plan_searches", "count"),
    ("graph.vf2_searches", "count"),
    ("exec.fanouts", "count"),
    ("exec.tasks", "count"),
    ("http.connect_us", "us"),
    ("serve.route_patterns_us", "us"),
    ("graph.patterns_to_json_us", "us"),
    ("core.snapshot_read_ns", "ns"),
    ("queryform.formulate_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.batch_decode_us", "us"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.maint_busy_share", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("load.late_p50_us", "us"),
    ("load.late_tail_us", "us"),
    ("load.read_p50_us", "us"),
    ("load.querylog_p50_ms", "ms"),
    ("load.publish_p50_ms", "ms"),
    ("load.read_tail_us", "us"),
    ("load.publish_tail_ms", "ms"),
    ("load.read_max_rps", "1/s"),
    ("proc.cpu_s", "s"),
    ("exec.threads1_maintain_s", "s"),
    ("trace.overhead_maintain_s", "s"),
    ("trace.overhead_pmt_minor_ms", "ms"),
    ("trace.spans", "count"),
    ("host.calibration_ms", "ms"),
    ("wall.setup_s", "s"),
    ("wall.maintain_s", "s"),
    ("wall.pmt_minor_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Metrics {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Failed output checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        put(&mut self.e2e, name, value, unit, note);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        put(&mut self.layer, name, value, unit, note);
    }

    /// An end-to-end time at the reference host speed (see [`host`]); its
    /// wall time is kept as the per-layer `wall.<name>`.
    pub fn time(&mut self, name: &str, reference: f64, wall: f64, unit: &str, note: &str) {
        self.e2e(
            name,
            reference,
            unit,
            &format!("{note}; at reference host speed"),
        );
        self.layer(&format!("wall.{name}"), wall, unit, note);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

fn put(v: &mut Vec<Metric>, name: &str, value: f64, unit: &str, note: &str) {
    let m = Metric {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
        note: note.to_owned(),
    };
    match v.iter_mut().find(|x| x.name == name) {
        Some(slot) => *slot = m,
        None => v.push(m),
    }
}

/// Where traced runs write their spans file.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Telemetry is the benchmark's to switch: an inherited MIDAS_TELEMETRY
    // would otherwise turn the untraced measurement into a traced one.
    std::env::remove_var("MIDAS_TELEMETRY");
    std::env::remove_var("MIDAS_TRACE_OUT");
    std::env::remove_var("MIDAS_SERVE");
    std::env::remove_var("MIDAS_THREADS");
    std::env::remove_var("MIDAS_MATCHER");
    std::env::remove_var("MIDAS_FAULT");
    midas_obs::set_enabled(false);
    midas_obs::set_tracing(false);

    let cpu0 = sched::cpu_s();
    let mut m = match args.workload.as_str() {
        "maintain_mix" => maintain::run(args.seed, args.seconds, args.trace),
        "serve_read" => serve::run(serve::Spec::read(), args.seed, args.seconds, args.trace),
        "serve_write" => serve::run(serve::Spec::write(), args.seed, args.seconds, args.trace),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (maintain_mix, serve_read, serve_write)"
            );
            std::process::exit(2);
        }
    };
    m.e2e("peak_rss_mb", sched::peak_rss_mb(), "MiB", "VmHWM");
    let (cal, pieces) = host::calibration_ms();
    m.layer(
        "host.calibration_ms",
        cal,
        "ms",
        &format!("median of {pieces} calibration pieces"),
    );
    m.layer("proc.cpu_s", sched::cpu_s() - cpu0, "s", "user + sys");

    let wanted: &[(&str, &str)] = if args.trace { LAYERS } else { E2E };
    let have = if args.trace { &m.layer } else { &m.e2e };
    let mut out = Vec::new();
    for (name, unit) in wanted {
        match have.iter().find(|x| x.name == *name) {
            Some(x) => {
                assert_eq!(x.unit, *unit, "unit of {name}");
                out.push(x.clone());
            }
            None if args.trace => out.push(Metric {
                name: (*name).to_owned(),
                value: 0.0,
                unit: (*unit).to_owned(),
                note: "not exercised on this workload".to_owned(),
            }),
            None => panic!("workload {} did not measure {name}", args.workload),
        }
    }
    for x in &out {
        assert!(x.value.is_finite(), "{} is not a finite number", x.name);
        println!("{:<32} {:>14.4} {:<6} {}", x.name, x.value, x.unit, x.note);
    }
    if !args.trace {
        // Layer numbers the untraced run also measured (the client-side
        // latencies, the generator's lateness), for the reader; not part of
        // the result.
        for x in &m.layer {
            println!(
                "{:<32} {:>14.4} {:<6} {} (per-layer)",
                x.name, x.value, x.unit, x.note
            );
        }
    }
    let correct = m.failures.is_empty();
    let metrics: Vec<String> = out
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
