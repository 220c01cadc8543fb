//! Host-speed calibration.
//!
//! The benchmark runs on a VM that shares its machine, and the machine
//! lends it more or less speed from one second to the next and for
//! minutes at a time: the same deterministic library replay took 1.14 s
//! in one run and 2.39 s in another, the same morning. Repeats inside a
//! run cannot remove that, so the gated times are reported at a reference
//! host speed. Next to every timed call the benchmark runs a fixed piece
//! of its own work (no program code) and records the piece's wall time;
//! a time is then scaled by `REF_MS` over the median of the pieces run
//! around it. A change to the program moves the timed call and leaves the
//! pieces alone.

use crate::sched::{ms, Rng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Mutex;
use std::time::Instant;

/// The piece's wall time on the reference host, ms. A time at the
/// reference speed is what the call would have taken on a host where one
/// piece takes this long.
const REF_MS: f64 = 1.0;
/// Integers sorted and hashed by one piece.
const PIECE_ITEMS: usize = 16_000;
/// Pieces on either side of a timed call whose median is the host's speed
/// at that call. A call with no other timed calls near it runs
/// `WINDOW + 1` pieces before and `WINDOW` after.
pub const WINDOW: usize = 5;

static PIECES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Runs the piece `n` times and records each wall time. Returns the index
/// of the last piece: the mark of a timed call that follows.
pub fn sample(n: usize) -> usize {
    let mut p = PIECES.lock().expect("calibration pieces");
    for _ in 0..n {
        p.push(piece());
    }
    p.len().checked_sub(1).expect("at least one piece")
}

/// One piece, about a millisecond on an idle 2.1 GHz Xeon vCPU: sorts
/// seeded integers, puts them in a hash map with a fixed hasher, and
/// looks each one up. Returns its wall time, ms.
fn piece() -> f64 {
    let begin = Instant::now();
    let mut rng = Rng::new(0xca1);
    let mut v: Vec<u64> = (0..PIECE_ITEMS).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut h: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, x) in v.iter().enumerate() {
        h.insert(x >> 20, i);
    }
    let mut acc = 0usize;
    for x in &v {
        acc = acc.wrapping_add(h.get(&(x >> 20)).copied().unwrap_or(0));
    }
    std::hint::black_box(acc);
    ms(begin.elapsed())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `wall`, a time taken just after the piece `mark`, at the reference
/// host speed. Call it once the pieces after `mark` have run.
pub fn reference(wall: f64, mark: usize) -> f64 {
    let p = PIECES.lock().expect("calibration pieces");
    let lo = mark.saturating_sub(WINDOW);
    let hi = (mark + WINDOW + 1).min(p.len());
    wall * REF_MS / median(p[lo..hi].to_vec())
}

/// Median piece time over the whole run, ms, and the number of pieces.
pub fn calibration_ms() -> (f64, usize) {
    let p = PIECES.lock().expect("calibration pieces").clone();
    let n = p.len();
    (if n == 0 { f64::NAN } else { median(p) }, n)
}
