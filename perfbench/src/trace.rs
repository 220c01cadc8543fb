//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer of the system.
//!
//! A span has a name (the layer and call), start and end, the span that
//! caused it, and a request id shared by every span of one request or
//! batch. Spans are kept in memory while the run measures and written out
//! once at the end, with each name's self time: its duration minus the
//! part of that interval its child spans cover.

use crate::{Metric, Metrics};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        t0: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns span collection on or off.
pub fn set_on(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

pub fn on() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

/// An open span; [`Open::close`] records it. Inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    pub fn close(self) {
        self.close_at(Instant::now());
    }

    pub fn close_at(self, end: Instant) {
        if self.id == 0 {
            return;
        }
        let t = tracer();
        let span = Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_us: self.start.duration_since(t.t0).as_secs_f64() * 1e6,
            end_us: end.duration_since(t.t0).as_secs_f64() * 1e6,
        };
        t.spans.lock().expect("span store poisoned").push(span);
    }
}

/// Opens a span now.
pub fn open(name: &'static str, req: u64, parent: Option<u64>) -> Open {
    open_at(name, req, parent, Instant::now())
}

/// Opens a span that started at `start` (e.g. when a request was due).
pub fn open_at(name: &'static str, req: u64, parent: Option<u64>, start: Instant) -> Open {
    let id = if on() {
        tracer().next.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    Open {
        id,
        parent,
        req,
        name,
        start,
    }
}

/// Per-name totals: `(count, total_ms, self_ms)`.
pub fn self_times() -> BTreeMap<&'static str, (u64, f64, f64)> {
    let spans = tracer().spans.lock().expect("span store poisoned").clone();
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in &spans {
        let dur = (s.end_us - s.start_us).max(0.0);
        let covered = children
            .get(&s.id)
            .map(|c| union_within(c, s.start_us, s.end_us))
            .unwrap_or(0.0);
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur / 1e3;
        e.2 += (dur - covered).max(0.0) / 1e3;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes every span, the per-name self times and `extra` (a JSON object
/// body, without braces) to `path`.
pub fn write(path: &std::path::Path, extra: &str) -> std::io::Result<()> {
    use std::io::Write;
    let spans = tracer().spans.lock().expect("span store poisoned").clone();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    if !extra.is_empty() {
        writeln!(f, "{extra},")?;
    }
    writeln!(f, "\"self_time\": {{")?;
    let st = self_times();
    let n = st.len();
    for (i, (name, (count, total, selft))) in st.into_iter().enumerate() {
        let sep = if i + 1 < n { "," } else { "" };
        writeln!(
            f,
            "  \"{name}\": {{\"count\": {count}, \"total_ms\": {total:.3}, \"self_ms\": {selft:.3}}}{sep}"
        )?;
    }
    writeln!(f, "}},")?;
    writeln!(f, "\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            f,
            "  {{\"id\": {}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}{sep}",
            s.id, s.req, s.name, s.start_us, s.end_us
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

/// Tracing overhead: the traced end-to-end numbers minus the untraced
/// ones, for the metrics a tracing cost would show in first.
pub fn overhead(m: &mut Metrics, traced: &[Metric]) {
    let t = |name: &str| {
        traced
            .iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    for (metric, layer, unit) in [
        ("maintain_s", "trace.overhead_maintain_s", "s"),
        ("pmt_minor_ms", "trace.overhead_pmt_minor_ms", "ms"),
    ] {
        let v = t(metric) - m.get(metric);
        m.layer(layer, v, unit, "traced minus untraced");
    }
}

/// Writes the spans file with the full traced-vs-untraced table, and
/// prints each span name's self time.
pub fn write_spans(m: &mut Metrics, workload: &str, seed: u64, traced: &[Metric]) {
    let spans = self_times();
    let count: u64 = spans.values().map(|v| v.0).sum();
    m.layer("trace.spans", count as f64, "count", "spans recorded");
    let rows: Vec<String> = m
        .e2e
        .iter()
        .map(|u| {
            let tv = traced
                .iter()
                .find(|x| x.name == u.name)
                .map_or(f64::NAN, |x| x.value);
            format!(
                "  \"{}\": {{\"untraced\": {}, \"traced\": {}, \"unit\": \"{}\"}}",
                u.name,
                json_num(u.value),
                json_num(tv),
                u.unit
            )
        })
        .collect();
    let extra = format!(
        "\"workload\": \"{workload}\", \"seed\": {seed},\n\"overhead\": {{\n{}\n}}",
        rows.join(",\n")
    );
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.json"));
    match write(&path, &extra) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => m.check(false, || format!("writing {}: {e}", path.display())),
    }
    for (name, (count, total, selft)) in spans {
        eprintln!("  span {name:<28} n={count:<6} total {total:>10.3} ms  self {selft:>10.3} ms");
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
