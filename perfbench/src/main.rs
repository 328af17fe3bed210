//! treequery's benchmark: one workload per process, driven only
//! through the crates' public APIs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run times the
//! benchmark's own calls into each crate (the per-layer metrics) and
//! reports its overhead against the same run's untraced passes.
//! `run.py` builds this package and runs it; `README.md` maps every
//! per-layer metric to the end-to-end metric it should move.

mod check;
mod join;
mod probe;
mod serve;
mod stats;

use std::process::ExitCode;

/// Command-line settings shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Seeds the database build and every client's operation script.
    pub seed: u64,
    /// Minimum length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One named, unit-carrying measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order, plus the names of any the run could not
/// measure (a guarded percentile without enough samples).
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub missing: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => self.missing.push(name.into()),
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted (cells or served requests).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, deadline misses, leaked
    /// handles, wrong result counts.
    pub failed: u64,
    /// Output checks made outside the timed window that failed.
    pub check_failures: u64,
    pub metrics: Metrics,
}

const WORKLOADS: [&str; 4] = [
    "join_grid",
    "join_grid_par2",
    "serve_warm_read",
    "serve_rw_sharded",
];

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={workload} seed={} seconds={} trace={} cores={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = match workload.as_str() {
        "join_grid" => join::run(&args, join::Mode::Serial),
        "join_grid_par2" => join::run(&args, join::Mode::Par2),
        "serve_warm_read" => serve::run(&args, serve::Mode::WarmRead),
        "serve_rw_sharded" => serve::run(&args, serve::Mode::RwSharded),
        _ => unreachable!("validated in parse_args"),
    };
    for m in &out.metrics.list {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for name in &out.metrics.missing {
        eprintln!("  {name:<36} missing");
    }
    let correct = out.attempted > 0
        && out.failed == 0
        && out.check_failures == 0
        && out.metrics.missing.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .list
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
