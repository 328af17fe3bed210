//! `serve_warm_read` and `serve_rw_sharded`: closed-loop clients over
//! in-process duplex streams, one thread per client.
//!
//! Each client runs a fixed script of operations drawn from the seed
//! and its index, once per pass; a pass ends when every client has
//! finished its script. The mix within a pass is therefore fixed by
//! the seed, and every median is taken over whole passes. Reads and
//! write transactions keep separate samples: a write's time spans every
//! retry from the first `update` to the final `Committed`.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tq_pagestore::{CacheConfig, IoStats};
use tq_query::{JoinAlgo, JoinOptions};
use tq_router::{Router, RouterConfig};
use tq_server::measure::run_join_cell;
use tq_server::{
    CacheMode, Client, DuplexStream, QuerySpec, Response, Server, ServerConfig, UpdateTarget,
};
use tq_simrng::SimRng;
use tq_statsdb::Stat;
use tq_workload::{build, BuildConfig, Database, DbShape, Organization};

use crate::join::put_io_counts;
use crate::probe::{self, WriteTally};
use crate::stats::{
    guarded_percentile, median, ms_since, peak_rss_mb, process_cpu_s, status_kb, HostRef,
};
use crate::{check, Args, Metrics, Outcome};

/// The percentile reported as `read_tail_ms`. Served reads take 1.5 to
/// 5 ms, so their p99 is set by the two-core host's scheduler slices
/// and abort bursts: it spread 19% (warm) and 31% (sharded) over ten
/// runs of the same code; the p95 still shows queueing and the slower
/// shard.
const TAIL_PCT: f64 = 95.0;
/// Closed-loop clients: one per core of the two-core reference host.
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 15;
/// Percent of `serve_rw_sharded` operations that are write transactions.
const WRITE_PCT: usize = 25;
/// Patients each write transaction updates, in percent. Every commit
/// publishes an epoch that is never retired, so the write is kept small
/// enough that a run's epoch chain stays within a few hundred MiB.
const WRITE_SEL_PCT: u32 = 1;
/// Abort-and-retry bound for one write transaction; reaching it is a
/// failed operation, not a hang.
const MAX_ATTEMPTS: u32 = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Unsharded server, two workers, warm read-only sessions over a
    /// database the simulated caches hold whole.
    WarmRead,
    /// Router over two one-worker shards, cold sessions, 25% writes.
    RwSharded,
}

impl Mode {
    /// Operations per client per pass: a third to half a second. The
    /// window ends on a pass boundary, so a short pass keeps the number
    /// of commits a run makes (and the epochs it retains) close to
    /// proportional to its length.
    fn script_len(self) -> usize {
        match self {
            Mode::WarmRead => 200,
            Mode::RwSharded => 40,
        }
    }

    /// Passes per front. `serve_rw_sharded` restarts its router every
    /// few passes: epochs are never retired, so without a restart the
    /// chain, and the process's memory, would grow with run length and
    /// throughput instead of being the same in every run.
    fn segment_passes(self) -> usize {
        match self {
            Mode::WarmRead => usize::MAX,
            Mode::RwSharded => 10,
        }
    }

    /// The read every operation of this workload's read stream runs.
    fn read(self, algo: JoinAlgo) -> (JoinAlgo, u32, u32) {
        match self {
            Mode::WarmRead => (algo, 10, 10),
            Mode::RwSharded => (JoinAlgo::Chj, 10, 90),
        }
    }
}

/// db2, class-clustered, 1/100 scale, with the paper's full-size
/// simulated caches: the whole database stays resident.
pub fn warm_config(seed: u64) -> BuildConfig {
    let mut cfg = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, 100);
    cfg.cache = CacheConfig::default();
    cfg.seed = seed;
    cfg
}

/// db2, class-clustered, 1/100 scale, caches scaled with the data.
fn sharded_config(seed: u64) -> BuildConfig {
    let mut cfg = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, 100);
    cfg.seed = seed;
    cfg
}

/// A client's seeded rotation over the four algorithms: every block of
/// four is a permutation, so each algorithm has exactly a quarter of
/// the reads whatever the seed.
pub fn read_script(seed: u64, client: usize, len: usize) -> Vec<JoinAlgo> {
    let mut rng = SimRng::seed_from_u64(seed ^ (0x00C1_1E47 + client as u64));
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        let mut block = JoinAlgo::all();
        rng.shuffle(&mut block);
        script.extend(block);
    }
    script.truncate(len);
    script
}

/// A client's seeded read/write sequence (`true` = write): exactly
/// `WRITE_PCT` percent writes, at seeded positions.
fn write_script(seed: u64, client: usize, len: usize) -> Vec<bool> {
    let mut rng = SimRng::seed_from_u64(seed ^ (0x0037_17E5 + client as u64));
    let writes = len * WRITE_PCT / 100;
    let mut script: Vec<bool> = (0..len).map(|i| i < writes).collect();
    rng.shuffle(&mut script);
    script
}

/// One write transaction: `update Patients` at 1% plus `commit`,
/// retried on abort until it commits. `num` is not a join key, so
/// committed writes never change a read's answer.
pub fn write_txn<S: Read + Write>(
    client: &mut Client<S>,
    session: u64,
    tally: &mut WriteTally,
) -> Result<(), String> {
    let t0 = Instant::now();
    for _ in 0..MAX_ATTEMPTS {
        let tu = Instant::now();
        match client.update(session, UpdateTarget::Patients, WRITE_SEL_PCT, 1, 0) {
            Ok(Response::UpdateOk { .. }) => tally.update_ms.push(ms_since(tu)),
            other => return Err(format!("update: {other:?}")),
        }
        let tc = Instant::now();
        match client.commit(session) {
            Ok(Response::Committed { .. }) => {
                tally.commit_ms.push(ms_since(tc));
                tally.txn_ms.push(ms_since(t0));
                tally.commits += 1;
                return Ok(());
            }
            Ok(Response::Aborted { .. } | Response::ShardsAborted { .. }) => {
                tally.commit_ms.push(ms_since(tc));
                tally.aborts += 1;
            }
            other => return Err(format!("commit: {other:?}")),
        }
    }
    Err(format!("no commit in {MAX_ATTEMPTS} attempts"))
}

enum Front {
    Single(Server),
    Sharded(Router),
}

impl Front {
    fn start(mode: Mode, base: &Database) -> Self {
        match mode {
            Mode::WarmRead => Front::Single(Server::start(
                base.clone(),
                ServerConfig {
                    workers: 2,
                    queue_depth: 16,
                    parallel: 1,
                },
            )),
            Mode::RwSharded => Front::Sharded(Router::start_partitioned(
                base,
                2,
                RouterConfig {
                    workers_per_shard: 1,
                    queue_depth: 16,
                    max_inflight: 2 + 16,
                    parallel: 1,
                },
            )),
        }
    }

    fn connect(&self) -> DuplexStream {
        match self {
            Front::Single(s) => s.connect_in_proc(),
            Front::Sharded(r) => r.connect_in_proc(),
        }
    }

    fn servers(&self) -> Vec<&Server> {
        match self {
            Front::Single(s) => vec![s],
            Front::Sharded(r) => r.shards().iter().map(|s| s.as_ref()).collect(),
        }
    }

    fn shutdown(self) {
        match self {
            Front::Single(s) => s.shutdown(),
            Front::Sharded(r) => r.shutdown(),
        }
    }
}

/// What one client recorded.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    read_ms: Vec<f64>,
    /// Write transactions of traced passes, with per-call splits.
    writes: WriteTally,
    /// Commits and aborts of untraced passes.
    commits: u64,
    aborts: u64,
    /// Simulated counters of the segment's last traced pass, from reply
    /// `Stat`s.
    io: IoStats,
    handle_gets: u64,
}

fn add_stat_counts(io: &mut IoStats, gets: &mut u64, stat: &Stat) {
    let faults = stat.cc_pagefaults;
    io.client_hits += stat.cc_lookups - faults;
    io.client_misses += faults;
    // The server cache is consulted once per client miss; each server
    // miss is one disk read.
    io.server_hits += faults.saturating_sub(stat.d2sc_read_pages);
    io.server_misses += stat.d2sc_read_pages;
    io.d2sc_read_pages += stat.d2sc_read_pages;
    *gets += stat.operators.iter().map(|o| o.handle_gets).sum::<u64>();
}

struct ClientCtx {
    mode: Mode,
    client: Client<DuplexStream>,
    session: u64,
    reads: Vec<JoinAlgo>,
    writes: Vec<bool>,
    expected: u64,
    trace: bool,
    /// Global index of the segment's first pass (traced passes are the
    /// odd ones).
    first_pass: usize,
}

impl ClientCtx {
    fn read(&mut self, algo: JoinAlgo) -> Result<Response, String> {
        let (algo, pat_pct, prov_pct) = self.mode.read(algo);
        self.client
            .query(QuerySpec {
                session: self.session,
                algo,
                pat_pct,
                prov_pct,
                deadline_nanos: 0,
            })
            .map_err(|e| e.to_string())
    }

    /// Runs the script once per pass until `stop`; `Err` ends the
    /// client's operations but it keeps meeting the pass barriers.
    fn run(mut self, start: &Barrier, end: &Barrier, stop: &AtomicBool) -> Tally {
        let mut t = Tally::default();
        let mut alive = true;
        for pass in self.first_pass.. {
            start.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let traced = self.trace && pass % 2 == 1;
            if traced {
                t.io = IoStats::default();
                t.handle_gets = 0;
            }
            for i in 0..self.reads.len() {
                if !alive {
                    break;
                }
                t.attempted += 1;
                if self.writes[i] {
                    let mut w = WriteTally::default();
                    match write_txn(&mut self.client, self.session, &mut w) {
                        Ok(()) => {}
                        Err(e) => {
                            eprintln!("failed: write: {e}");
                            t.failed += 1;
                        }
                    }
                    if traced {
                        t.writes.merge(w);
                    } else {
                        t.commits += w.commits;
                        t.aborts += w.aborts;
                    }
                    continue;
                }
                let t0 = Instant::now();
                match self.read(self.reads[i]) {
                    Ok(Response::QueryOk { results, stat }) => {
                        let ms = ms_since(t0);
                        if results != self.expected {
                            eprintln!(
                                "failed: read returned {results} rows, expected {}",
                                self.expected
                            );
                            t.failed += 1;
                        } else {
                            t.read_ms.push(ms);
                        }
                        if traced {
                            add_stat_counts(&mut t.io, &mut t.handle_gets, &stat);
                        }
                    }
                    Ok(other) => {
                        eprintln!("failed: read: {other:?}");
                        t.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("failed: read: {e}");
                        t.failed += 1;
                        alive = false;
                    }
                }
            }
            end.wait();
        }
        t.attempted += 1;
        match self.client.close_session(self.session) {
            Ok((_, 0, _)) => {}
            other => {
                eprintln!("failed: close: {other:?}");
                t.failed += 1;
            }
        }
        t
    }
}

/// Opens the workload's sessions and warms them: each warm-read client
/// runs every algorithm once; each sharded client runs one read.
fn open_clients(mode: Mode, front: &Front) -> Vec<(Client<DuplexStream>, u64)> {
    (0..CLIENTS)
        .map(|_| {
            let mut client = Client::new(front.connect());
            let cache = match mode {
                Mode::WarmRead => CacheMode::Warm,
                Mode::RwSharded => CacheMode::Cold,
            };
            let session = client.open_session(cache).expect("open session");
            let warm: &[JoinAlgo] = match mode {
                Mode::WarmRead => &JoinAlgo::all(),
                Mode::RwSharded => &[JoinAlgo::Chj],
            };
            for &algo in warm {
                let (algo, pat_pct, prov_pct) = mode.read(algo);
                let r = client
                    .query(QuerySpec {
                        session,
                        algo,
                        pat_pct,
                        prov_pct,
                        deadline_nanos: 0,
                    })
                    .expect("warm-up read");
                assert!(matches!(r, Response::QueryOk { .. }), "warm-up read: {r:?}");
            }
            (client, session)
        })
        .collect()
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let cfg = match mode {
        Mode::WarmRead => warm_config(args.seed),
        Mode::RwSharded => sharded_config(args.seed),
    };
    // Set-up: build, start the front, open and warm the sessions.
    let mut host = HostRef::default();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut live = None;
    for rep in 0..SETUP_REPS {
        host.sample();
        let t0 = Instant::now();
        let base = build(&cfg);
        build_s.push(t0.elapsed().as_secs_f64());
        let front = Front::start(mode, &base);
        let clients = open_clients(mode, &front);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            live = Some((base, front, clients));
        } else {
            for (mut client, session) in clients {
                client.close_session(session).expect("close");
            }
            front.shutdown();
        }
    }
    let (base, front, clients) = live.expect("set up");

    // The answer every read must return: the independent scan, and the
    // in-process engine, must agree on it.
    let (_, pat, prov) = mode.read(JoinAlgo::Chj);
    let expected = check::join_counts(&base, &[(pat, prov)])[0];
    let mut check_failures = 0;
    let algos: &[JoinAlgo] = match mode {
        Mode::WarmRead => &JoinAlgo::all(),
        Mode::RwSharded => &[JoinAlgo::Chj],
    };
    for &algo in algos {
        let mut db = base.clone();
        let cell = run_join_cell(&mut db, algo, pat, prov, &JoinOptions::default());
        if cell.results != expected {
            eprintln!(
                "check: in-process {algo:?} gave {}, scan gave {expected}",
                cell.results
            );
            check_failures += 1;
        }
    }

    let len = mode.script_len();
    let scripts: Vec<(Vec<JoinAlgo>, Vec<bool>)> = (0..CLIENTS)
        .map(|i| {
            let writes = match mode {
                Mode::WarmRead => vec![false; len],
                Mode::RwSharded => write_script(args.seed, i, len),
            };
            (read_script(args.seed, i, len), writes)
        })
        .collect();
    // Enough reads that the p99 has at least 15 samples beyond it.
    let reads_per_pass: usize = scripts
        .iter()
        .map(|(_, w)| w.iter().filter(|&&w| !w).count())
        .sum();
    let min_passes = 1500usize
        .div_ceil(reads_per_pass)
        .max(if args.trace { 4 } else { 3 });

    let (mut pass_s, mut traced_pass_s) = (Vec::new(), Vec::new());
    let mut total = Tally::default();
    let (mut shed, mut epochs, mut shed_router) = (0, 0, 0);
    let (mut wall, mut cpu, mut ref_s) = (0.0, 0.0, 0.0);
    let mut first_segment: Option<(f64, u64)> = None;
    let mut live = Some((front, clients));
    loop {
        // A segment runs passes on one front; later segments start a
        // fresh front and sessions outside the timed passes.
        let (front, clients) = live.take().unwrap_or_else(|| {
            let front = Front::start(mode, &base);
            let clients = open_clients(mode, &front);
            (front, clients)
        });
        let start = Arc::new(Barrier::new(CLIENTS + 1));
        let end = Arc::new(Barrier::new(CLIENTS + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let first_pass = pass_s.len() + traced_pass_s.len();
        let threads: Vec<_> = clients
            .into_iter()
            .zip(scripts.iter().cloned())
            .enumerate()
            .map(|(i, ((client, session), (reads, writes)))| {
                let ctx = ClientCtx {
                    mode,
                    client,
                    session,
                    reads,
                    writes,
                    expected,
                    trace: args.trace,
                    first_pass,
                };
                let (start, end, stop) = (start.clone(), end.clone(), stop.clone());
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn(move || ctx.run(&start, &end, &stop))
                    .expect("spawn client")
            })
            .collect();

        // Reference samples run between passes, while the clients wait
        // at the barrier; their time is excluded from the window.
        let rss0 = status_kb("VmRSS");
        let cpu0 = process_cpu_s();
        let segment = Instant::now();
        let segment_ref0 = ref_s;
        let done = loop {
            let passes = pass_s.len() + traced_pass_s.len();
            let traced = args.trace && passes % 2 == 1;
            ref_s += host.tick();
            start.wait();
            let t0 = Instant::now();
            end.wait();
            let secs = t0.elapsed().as_secs_f64();
            if traced {
                traced_pass_s.push(secs);
            } else {
                pass_s.push(secs);
            }
            let elapsed = wall + segment.elapsed().as_secs_f64() - (ref_s - segment_ref0);
            if passes + 1 >= min_passes && elapsed >= args.seconds {
                break true;
            }
            if passes + 1 - first_pass == mode.segment_passes() {
                break false;
            }
        };
        wall += segment.elapsed().as_secs_f64() - (ref_s - segment_ref0);
        cpu += process_cpu_s() - cpu0 - (ref_s - segment_ref0);
        let rss_kb = status_kb("VmRSS") - rss0;
        stop.store(true, Ordering::SeqCst);
        start.wait();
        let (mut commits, mut io, mut gets) = (0, IoStats::default(), 0);
        for handle in threads {
            let t = handle.join().expect("client thread");
            total.attempted += t.attempted;
            total.failed += t.failed;
            total.read_ms.extend(t.read_ms);
            commits += t.commits + t.writes.commits;
            total.writes.merge(t.writes);
            total.commits += t.commits;
            total.aborts += t.aborts;
            io.accumulate(&t.io);
            gets += t.handle_gets;
        }
        if gets > 0 {
            (total.io, total.handle_gets) = (io, gets);
        }
        first_segment.get_or_insert((rss_kb, commits));
        let servers = front.servers();
        shed += servers.iter().map(|s| s.stats().queries_shed).sum::<u64>();
        epochs += servers.iter().map(|s| s.current_epoch()).sum::<u64>();
        if let Front::Sharded(r) = &front {
            shed_router += r.stats().shed_router;
        }
        front.shutdown();
        if done {
            break;
        }
    }
    total.writes.commits += total.commits;
    total.writes.aborts += total.aborts;
    let (rss_kb, segment_commits) = first_segment.expect("a segment ran");

    let passes = (pass_s.len() + traced_pass_s.len()) as f64;
    let ops = total.read_ms.len() as u64 + total.writes.commits;
    eprintln!(
        "{passes} passes, {ops} ops ({} reads, {} commits, {} aborts) in {wall:.2}s, {cpu:.2}s cpu; reference {:.2} ms",
        total.read_ms.len(),
        total.writes.commits,
        total.writes.aborts,
        host.median_ms(),
    );
    let mut m = Metrics::default();
    if !args.trace {
        let f = host.factor();
        m.put("setup_s", f * median(&setup_s).expect("setup ran"), "s");
        m.put("run_s", f * median(&pass_s).expect("a pass ran"), "s");
        m.put("throughput_ops", ops as f64 / wall / f, "1/s");
        m.put("cpu_ms_per_op", f * cpu * 1e3 / ops.max(1) as f64, "ms");
        m.put(
            "read_p50_ms",
            f * median(&total.read_ms).expect("reads ran"),
            "ms",
        );
        m.put_opt(
            "read_tail_ms",
            guarded_percentile("read ms", &total.read_ms, TAIL_PCT).map(|v| f * v),
            "ms",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        m.put("host.ref_ms", host.median_ms(), "ms");
        m.put("workload.build_s", median(&build_s).expect("built"), "s");
        put_io_counts(&mut m, &total.io, total.handle_gets);
        m.put("core.par2_cpu_per_wall", cpu / wall, "ratio");
        m.put(
            "trace.overhead_ratio",
            median(&traced_pass_s).expect("traced") / median(&pass_s).expect("untraced"),
            "ratio",
        );
        m.put("server.queries_shed", shed as f64, "count");
        m.put("router.shed_router", shed_router as f64, "count");
        probe::core_grid(&base, &mut m);
        probe::storage(&base, args.seed, &mut m);
        drop(base);
        let writes =
            (mode == Mode::RwSharded).then_some((total.writes, epochs, rss_kb, segment_commits));
        probe::service(args.seed, writes, &mut m);
    }
    Outcome {
        attempted: total.attempted,
        failed: total.failed,
        check_failures,
        metrics: m,
    }
}
