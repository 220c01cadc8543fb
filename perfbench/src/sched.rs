//! Open-loop pacing, seeded randomness and process measurements.

use std::time::{Duration, Instant};

/// `thread::sleep` overshoots by tens of microseconds, so the last stretch
/// before a send is spun instead of slept.
const SPIN: Duration = Duration::from_micros(250);

/// Waits until `due`, running `poll` at least every `every` until the last
/// [`SPIN`] before `due`, and returns how late the caller is on return.
pub fn wait_until_with(due: Instant, every: Duration, mut poll: impl FnMut()) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > SPIN {
            poll();
            std::thread::sleep((left - SPIN).min(every));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// SplitMix64: a small, fully specified generator, so inputs drawn from a
/// seed never depend on a library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

/// FNV-1a over bytes: a digest that is the same on every platform and
/// toolchain.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn status_kb(key: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the allocator holds but no longer uses back to the
/// system, so that what an earlier repeat left in the allocator's
/// per-thread arenas does not add to the peak of the next one.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// User + system CPU time of this process, seconds.
pub fn cpu_s() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    (ticks(11) + ticks(12)) / 100.0
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
