//! `join_grid` and `join_grid_par2`: cold in-process join cells, each
//! on a fresh clone of the built database, repeated in whole passes.
//!
//! A pass is the fixed cell sequence; every timing is a median over
//! passes (or over all cells of all passes), so the mix a median is
//! taken over never changes with run length.

use std::collections::HashMap;
use std::time::Instant;

use tq_pagestore::IoStats;
use tq_query::{ExecTrace, JoinAlgo, JoinOptions, PlannerPolicy};
use tq_server::measure::{run_chain_cell, run_join_cell, run_join_cell_parallel};
use tq_workload::{build, BuildConfig, Database, DbShape, Organization};

use crate::stats::{guarded_percentile, median, ms_since, peak_rss_mb, process_cpu_s, HostRef};
use crate::{check, probe, Args, Metrics, Outcome};

/// The join grid's selectivity pairs, `(patient %, provider %)`.
pub const PAIRS: [(u32, u32); 4] = [(10, 10), (10, 90), (90, 10), (90, 90)];
/// The `fig_multiway` chain cells: depth × `(patient %, provider %)`.
pub const CHAINS: [(u32, u32, u32); 6] = [
    (3, 10, 90),
    (3, 90, 10),
    (3, 50, 50),
    (4, 10, 90),
    (4, 90, 10),
    (4, 50, 50),
];
/// Both join workloads run the paper's grids at 1/10 of paper scale.
const SCALE: u32 = 10;
/// Set-up is repeated and its median reported (set-up is short, so a
/// single sample is at the mercy of the host).
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `join_grid`: Figure 11 (db1) and Figure 12 (db2) grids, then the
    /// six estimate-planned chains, all serial.
    Serial,
    /// `join_grid_par2`: the db2 grid at morsel degree 2.
    Par2,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Join {
        db: usize,
        algo: JoinAlgo,
        pat: u32,
        prov: u32,
    },
    Chain {
        depth: u32,
        pat: u32,
        prov: u32,
    },
}

/// One cell's measurement.
struct CellRun {
    ms: f64,
    results: u64,
    io: IoStats,
    handle_gets: u64,
}

/// The paper's database for a shape at this benchmark's scale.
fn config(shape: DbShape, seed: u64) -> BuildConfig {
    let mut cfg = BuildConfig::scaled(shape, Organization::ClassClustered, SCALE);
    cfg.seed = seed;
    cfg
}

pub fn trace_handle_gets(trace: &ExecTrace) -> u64 {
    trace.ops.iter().map(|op| op.counters.handle_gets()).sum()
}

fn ops(mode: Mode) -> Vec<Op> {
    let dbs: &[usize] = match mode {
        Mode::Serial => &[0, 1],
        Mode::Par2 => &[0],
    };
    let mut ops = Vec::new();
    for &db in dbs {
        for (pat, prov) in PAIRS {
            for algo in JoinAlgo::all() {
                ops.push(Op::Join {
                    db,
                    algo,
                    pat,
                    prov,
                });
            }
        }
    }
    if mode == Mode::Serial {
        for (depth, pat, prov) in CHAINS {
            ops.push(Op::Chain { depth, pat, prov });
        }
    }
    ops
}

/// Runs one cell on a fresh clone. `Err` for an engine error, a morsel
/// panic, or a handle left pinned after the query.
fn run_op(dbs: &[Database], op: Op, degree: usize) -> Result<CellRun, String> {
    let opts = JoinOptions::default();
    match op {
        Op::Join {
            db,
            algo,
            pat,
            prov,
        } => {
            let mut db = dbs[db].clone();
            let t0 = Instant::now();
            let cell = if degree == 1 {
                run_join_cell(&mut db, algo, pat, prov, &opts)
            } else {
                run_join_cell_parallel(&mut db, algo, pat, prov, &opts, None, degree)
                    .map_err(|p| p.to_string())?
            };
            let ms = ms_since(t0);
            leak_check(&db)?;
            Ok(CellRun {
                ms,
                results: cell.results,
                io: cell.io,
                handle_gets: trace_handle_gets(&cell.report.trace),
            })
        }
        Op::Chain { depth, pat, prov } => {
            // Chains run on the last database: db2 in the serial grid.
            let mut db = dbs[dbs.len() - 1].clone();
            let t0 = Instant::now();
            let cell = run_chain_cell(&mut db, depth, pat, prov, PlannerPolicy::Estimate, None)?;
            let ms = ms_since(t0);
            leak_check(&db)?;
            Ok(CellRun {
                ms,
                results: cell.results,
                io: cell.io,
                handle_gets: trace_handle_gets(&cell.report.trace),
            })
        }
    }
}

fn leak_check(db: &Database) -> Result<(), String> {
    match db.store.live_handles() {
        0 => Ok(()),
        n => Err(format!("{n} handles still pinned after the query")),
    }
}

/// Per-pass tallies of a traced pass.
#[derive(Default)]
struct PassTrace {
    algo_s: [f64; 4],
    chain_s: f64,
    cells_ns: f64,
    io: IoStats,
    handle_gets: u64,
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let shapes: &[DbShape] = match mode {
        Mode::Serial => &[DbShape::Db1, DbShape::Db2],
        Mode::Par2 => &[DbShape::Db2],
    };
    let degree = match mode {
        Mode::Serial => 1,
        Mode::Par2 => 2,
    };
    let mut host = HostRef::default();
    let mut setup_s = Vec::new();
    let mut dbs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut dbs));
        host.sample();
        let t0 = Instant::now();
        dbs = shapes
            .iter()
            .map(|&s| build(&config(s, args.seed)))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Expected answers, from the independent scan.
    let mut check_failures = 0;
    let mut expected: HashMap<(usize, u32, u32), u64> = HashMap::new();
    for (i, db) in dbs.iter().enumerate() {
        for (&(pat, prov), n) in PAIRS.iter().zip(check::join_counts(db, &PAIRS)) {
            expected.insert((i, pat, prov), n);
        }
    }
    let ops = ops(mode);
    if mode == Mode::Par2 {
        // The morsel grid must answer what the serial grid answers.
        for &op in &ops {
            if let Op::Join { db, pat, prov, .. } = op {
                let serial = run_op(&dbs, op, 1).map(|c| c.results);
                if serial != Ok(expected[&(db, pat, prov)]) {
                    eprintln!("check: serial {op:?} gave {serial:?}");
                    check_failures += 1;
                }
            }
        }
    }

    let min_passes = match (args.trace, mode) {
        (true, _) => 2,
        // Enough cells that the p90 has ten samples beyond it.
        (false, Mode::Serial) => 3,
        (false, Mode::Par2) => 7,
    };
    let mut chain_expected: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cell_ms = Vec::new();
    let (mut pass_s, mut traced_pass_s) = (Vec::new(), Vec::new());
    let mut traces: Vec<PassTrace> = Vec::new();
    // Reference samples taken between cells are excluded from the pass
    // times, the window and the CPU total.
    let mut ref_s = 0.0;
    let cpu0 = process_cpu_s();
    let window = Instant::now();
    while pass_s.len() + traced_pass_s.len() < min_passes
        || window.elapsed().as_secs_f64() < args.seconds
    {
        // A traced run alternates untraced and traced passes; the
        // ratio of their medians is the tracing overhead.
        let traced = args.trace && (pass_s.len() + traced_pass_s.len()) % 2 == 1;
        let mut tr = PassTrace::default();
        let pass_ref_s = ref_s;
        let t0 = Instant::now();
        for &op in &ops {
            ref_s += host.tick();
            attempted += 1;
            let cell = match run_op(&dbs, op, degree) {
                Ok(cell) => cell,
                Err(e) => {
                    eprintln!("failed: {op:?}: {e}");
                    failed += 1;
                    continue;
                }
            };
            let want = match op {
                Op::Join { db, pat, prov, .. } => expected[&(db, pat, prov)],
                Op::Chain { depth, pat, prov } => *chain_expected
                    .entry((depth, pat, prov))
                    .or_insert(cell.results),
            };
            if cell.results != want {
                eprintln!(
                    "failed: {op:?} returned {} rows, expected {want}",
                    cell.results
                );
                failed += 1;
            }
            cell_ms.push(cell.ms);
            if traced {
                match op {
                    Op::Join { algo, .. } => tr.algo_s[algo_index(algo)] += cell.ms / 1e3,
                    Op::Chain { .. } => tr.chain_s += cell.ms / 1e3,
                }
                tr.cells_ns += cell.ms * 1e6;
                tr.io.accumulate(&cell.io);
                tr.handle_gets += cell.handle_gets;
            }
        }
        let secs = t0.elapsed().as_secs_f64() - (ref_s - pass_ref_s);
        if traced {
            traced_pass_s.push(secs);
            traces.push(tr);
        } else {
            pass_s.push(secs);
        }
    }
    let wall = window.elapsed().as_secs_f64() - ref_s;
    let cpu = process_cpu_s() - cpu0 - ref_s;
    let passes = (pass_s.len() + traced_pass_s.len()) as f64;
    eprintln!(
        "{} passes of {} cells in {wall:.2}s, {cpu:.2}s cpu; reference {:.2} ms",
        passes,
        ops.len(),
        host.median_ms()
    );

    let mut m = Metrics::default();
    if !args.trace {
        let f = host.factor();
        m.put("setup_s", f * median(&setup_s).expect("setup ran"), "s");
        m.put("run_s", f * median(&pass_s).expect("a pass ran"), "s");
        m.put("throughput_ops", cell_ms.len() as f64 / wall / f, "1/s");
        m.put("cpu_ms_per_op", f * cpu * 1e3 / cell_ms.len() as f64, "ms");
        m.put(
            "read_p50_ms",
            f * median(&cell_ms).expect("a cell ran"),
            "ms",
        );
        m.put_opt(
            "read_tail_ms",
            guarded_percentile("cell ms", &cell_ms, 90.0).map(|v| f * v),
            "ms",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        m.put("host.ref_ms", host.median_ms(), "ms");
        m.put(
            "workload.build_s",
            median(&setup_s).expect("setup ran"),
            "s",
        );
        for (i, algo) in JoinAlgo::all().into_iter().enumerate() {
            let per_pass: Vec<f64> = traces.iter().map(|t| t.algo_s[i]).collect();
            m.put(
                &format!("core.join_s.{}", algo.label().to_ascii_lowercase()),
                median(&per_pass).expect("a traced pass ran"),
                "s",
            );
        }
        let db2 = &dbs[dbs.len() - 1];
        let chain_s = match mode {
            Mode::Serial => median(&traces.iter().map(|t| t.chain_s).collect::<Vec<_>>()),
            Mode::Par2 => Some(probe::chain_cells_s(db2)),
        };
        m.put("core.chain_s", chain_s.expect("chains ran"), "s");
        let last = traces.last().expect("a traced pass ran");
        put_io_counts(&mut m, &last.io, last.handle_gets);
        let (ns, io, gets) = traces.iter().fold((0.0, IoStats::default(), 0), |acc, t| {
            let mut io = acc.1;
            io.accumulate(&t.io);
            (acc.0 + t.cells_ns, io, acc.2 + t.handle_gets)
        });
        m.put(
            "core.host_ns_per_sim_page",
            ns / (io.client_hits + io.client_misses) as f64,
            "ns",
        );
        m.put("core.host_ns_per_handle_get", ns / gets as f64, "ns");
        m.put("core.par2_cpu_per_wall", cpu / wall, "ratio");
        m.put(
            "trace.overhead_ratio",
            median(&traced_pass_s).expect("traced") / median(&pass_s).expect("untraced"),
            "ratio",
        );
        probe::storage(db2, args.seed, &mut m);
        drop(dbs);
        probe::service(args.seed, None, &mut m);
        m.put("server.queries_shed", 0.0, "count");
        m.put("router.shed_router", 0.0, "count");
    }
    Outcome {
        attempted,
        failed,
        check_failures,
        metrics: m,
    }
}

pub fn algo_index(algo: JoinAlgo) -> usize {
    JoinAlgo::all()
        .iter()
        .position(|&a| a == algo)
        .expect("a known algorithm")
}

/// The pagestore and objstore counters of one pass (or one probe).
pub fn put_io_counts(m: &mut Metrics, io: &IoStats, handle_gets: u64) {
    let lookups = io.client_hits + io.client_misses;
    m.put("pagestore.client_lookups", lookups as f64, "count");
    m.put("pagestore.d2sc_pages", io.d2sc_read_pages as f64, "count");
    m.put("pagestore.cc_miss_pct", io.client_miss_rate(), "%");
    m.put("pagestore.sc_miss_pct", io.server_miss_rate(), "%");
    m.put("objstore.handle_gets", handle_gets as f64, "count");
}
