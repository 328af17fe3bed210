//! Sample summaries, process counters read from `/proc`, and the
//! host-speed reference that end-to-end timings are scaled by.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks, or `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A percentile guarded by its sample count: `None` unless at least
/// ten samples lie beyond it. Prints the count either way, so a report
/// always says what each percentile rests on.
pub fn guarded_percentile(name: &str, samples: &[f64], pct: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - pct / 100.0)).floor() as usize;
    let value = if beyond >= 10 {
        quantile(samples, pct / 100.0)
    } else {
        None
    };
    match value {
        Some(v) => eprintln!(
            "  {name}: p{pct} = {v:.4} over {} samples ({beyond} beyond)",
            samples.len()
        ),
        None => eprintln!(
            "  {name}: p{pct} MISSING: {} samples, {beyond} beyond (need 10)",
            samples.len()
        ),
    }
    value
}

/// Milliseconds since `t0`, as a float with full resolution.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks of 10 ms). Includes threads that
/// have already exited, which the morsel pool's threads do.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may contain spaces; count fields after its ')'.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    (utime + stime) as f64 / 100.0
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Reference-kernel time that [`HostRef::factor`] scales to, in ms.
const REF_NOMINAL_MS: f64 = 15.0;
/// Minimum spacing of reference samples.
const REF_INTERVAL_S: f64 = 0.15;

/// The host's current speed, read off a fixed kernel that uses no code
/// of this repository: hash-map inserts and lookups plus a sort, about
/// 15 ms on an unloaded two-core host. On a shared host the speed of
/// everything in the process drifts by tens of percent over minutes,
/// CPU time included; this kernel drifts with it, so timings are
/// reported scaled by `REF_NOMINAL_MS / median(reference)`: seconds on a
/// host where the kernel takes 15 ms. A change to the engine cannot
/// move the kernel. It runs on the calling thread, between timed spans.
#[derive(Default)]
pub struct HostRef {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostRef {
    /// Runs the kernel once and records its time.
    pub fn sample(&mut self) {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 300_000, i);
        }
        let hits: u64 = (0..300_000u64).filter_map(|k| map.get(&k)).sum();
        let mut keys: Vec<u64> = map.keys().copied().collect();
        keys.sort_unstable();
        black_box((hits, keys));
        self.samples.push(ms_since(t0));
        self.last = Some(Instant::now());
    }

    /// Samples when the last sample is at least `REF_INTERVAL_S` old;
    /// returns the seconds spent, for callers that exclude it from a
    /// timed span.
    pub fn tick(&mut self) -> f64 {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < REF_INTERVAL_S)
        {
            return 0.0;
        }
        let t0 = Instant::now();
        self.sample();
        t0.elapsed().as_secs_f64()
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples).expect("the reference was sampled")
    }

    /// Multiplier from this run's host speed to the reference speed.
    pub fn factor(&self) -> f64 {
        REF_NOMINAL_MS / self.median_ms()
    }
}
