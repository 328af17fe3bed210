//! Per-layer probes: timed calls a traced run makes after its workload,
//! each into one crate's public functions, so a layer's cost shows
//! without the layers above it.

use std::hint::black_box;
use std::time::Instant;

use tq_objstore::{record, ClassId, ObjBatch, Rid};
use tq_pagestore::{IoStats, LruCache};
use tq_query::{plan_chain, ChainFacts, JoinAlgo, JoinOptions, PlannerPolicy};
use tq_router::{Router, RouterConfig};
use tq_server::measure::{compile_chain_spec, measure_current, run_chain_cell, run_join_cell};
use tq_server::{CacheMode, Client, QuerySpec, Response, Server, ServerConfig};
use tq_simrng::SimRng;
use tq_statsdb::merge_stats;
use tq_workload::{build, patient_attr, provider_attr, Database};

use crate::join::{algo_index, trace_handle_gets, CHAINS, PAIRS};
use crate::serve::{read_script, warm_config, write_txn};
use crate::stats::{median, ms_since, status_kb};
use crate::Metrics;

/// Median over `samples` of `f`'s time per call, `f` called `batch`
/// times per sample, in nanoseconds.
fn per_call_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&v).expect("samples > 0")
}

/// Storage-layer and planner probes on a clone of `db`.
pub fn storage(db: &Database, seed: u64, m: &mut Metrics) {
    let mut c = db.clone();
    let opts = JoinOptions::default();
    // A CHJ (10,90) cell fills both cache tiers; the restart empties them.
    let restart_us: Vec<f64> = (0..10)
        .map(|_| {
            run_join_cell(&mut c, JoinAlgo::Chj, 10, 90, &opts);
            let t0 = Instant::now();
            c.store.cold_restart();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.put(
        "pagestore.cold_restart_us",
        median(&restart_us).expect("probed"),
        "us",
    );

    let cap = db.config.cache.client_pages;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1_12u64);
    let keys: Vec<u64> = (0..1 << 18).map(|_| rng.below(2 * cap as u64)).collect();
    let mut lru: LruCache<u64> = LruCache::new(cap);
    let mut at = 0;
    let ns = per_call_ns(15, keys.len(), || {
        let k = keys[at % keys.len()];
        at += 1;
        if !lru.touch(k) {
            black_box(lru.insert(k));
        }
    });
    m.put("pagestore.lru_touch_ns", ns, "ns");

    let mut rids = Vec::new();
    let mut cursor = c.store.collection_cursor("Patients");
    while let Some(rid) = cursor.next(c.store.stack_mut()) {
        rids.push(rid);
        if rids.len() == 100_000 {
            break;
        }
    }
    let fetch_ns: Vec<f64> = (0..3)
        .map(|_| {
            c.store.cold_restart();
            let t0 = Instant::now();
            for &rid in &rids {
                let f = c.store.fetch(rid);
                black_box(&f.object);
                c.store.release(f);
            }
            t0.elapsed().as_nanos() as f64 / rids.len() as f64
        })
        .collect();
    m.put(
        "objstore.fetch_ns_per_obj",
        median(&fetch_ns).expect("probed"),
        "ns",
    );
    let mut batch = ObjBatch::default();
    let batch_ns: Vec<f64> = (0..3)
        .map(|_| {
            c.store.cold_restart();
            let t0 = Instant::now();
            for chunk in rids.chunks(1024) {
                c.store.fetch_batch(chunk, &mut batch);
                black_box(batch.len());
                c.store.release_batch(&mut batch);
            }
            t0.elapsed().as_nanos() as f64 / rids.len() as f64
        })
        .collect();
    m.put(
        "objstore.fetch_batch_ns_per_obj",
        median(&batch_ns).expect("probed"),
        "ns",
    );
    c.store.end_of_query();

    let records: Vec<(ClassId, Vec<u8>)> = rids
        .iter()
        .take(4096)
        .filter_map(|rid: &Rid| {
            let bytes = c.store.stack_mut().read_page(rid.page).read(rid.slot)?;
            (!record::is_forwarder(bytes))
                .then(|| (record::peek_class(bytes).expect("object"), bytes.to_vec()))
        })
        .collect();
    let schema = c.store.schema().clone();
    let mut i = 0;
    let ns = per_call_ns(25, records.len(), || {
        let (class, bytes) = &records[i % records.len()];
        i += 1;
        black_box(record::decode(schema.class(*class), bytes).expect("decodes"));
    });
    m.put("objstore.decode_ns", ns, "ns");

    let hi = c.patient_selectivity_key(10) - 1;
    let range_ns: Vec<f64> = (0..7)
        .map(|_| {
            let Database {
                store,
                idx_patient_mrn,
                ..
            } = &mut c;
            let t0 = Instant::now();
            let mut cursor = idx_patient_mrn.range(store.stack_mut(), i64::MIN, hi);
            let mut n = 0u64;
            while let Some(entry) = cursor.next(store.stack_mut()) {
                black_box(entry);
                n += 1;
            }
            t0.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    m.put(
        "index.range_ns_per_entry",
        median(&range_ns).expect("probed"),
        "ns",
    );

    let model = db.store.stack().model().clone();
    let plan_us: Vec<f64> = CHAINS
        .iter()
        .flat_map(|&(depth, pat, prov)| {
            let spec = compile_chain_spec(db, depth, pat, prov).expect("served depth");
            let model = &model;
            (0..30).map(move |_| {
                let t0 = Instant::now();
                let facts = ChainFacts::derive(&db.store, &spec, |class, attr| {
                    index_clustered(db, class, attr)
                });
                black_box(plan_chain(PlannerPolicy::Estimate, &spec, &facts, model));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
        })
        .collect();
    m.put("core.plan_us", median(&plan_us).expect("probed"), "us");
}

/// Clustering of the workload's index on `(class, attr)`, if there is
/// one — the planner's view of the three indexes every figure uses.
fn index_clustered(db: &Database, class: ClassId, attr: usize) -> Option<bool> {
    let d = &db.derby;
    if class == d.provider && attr == provider_attr::UPIN {
        Some(db.idx_provider_upin.clustered)
    } else if class == d.patient && attr == patient_attr::MRN {
        Some(db.idx_patient_mrn.clustered)
    } else if class == d.patient && attr == patient_attr::NUM {
        Some(db.idx_patient_num.clustered)
    } else {
        None
    }
}

/// Host seconds of the six estimate-planned chain cells, one cold run
/// each on a fresh clone.
pub fn chain_cells_s(db: &Database) -> f64 {
    CHAINS
        .iter()
        .map(|&(depth, pat, prov)| {
            let mut c = db.clone();
            let t0 = Instant::now();
            run_chain_cell(&mut c, depth, pat, prov, PlannerPolicy::Estimate, None)
                .expect("served depth");
            t0.elapsed().as_secs_f64()
        })
        .sum()
}

/// The sixteen-cell cold grid run once, in-process, on `db`: the core
/// metrics of a workload that makes no in-process join calls itself.
pub fn core_grid(db: &Database, m: &mut Metrics) {
    let opts = JoinOptions::default();
    let mut algo_s = [0.0; 4];
    let (mut io, mut gets, mut ns) = (IoStats::default(), 0, 0.0);
    for (pat, prov) in PAIRS {
        for algo in JoinAlgo::all() {
            let mut c = db.clone();
            let t0 = Instant::now();
            let cell = run_join_cell(&mut c, algo, pat, prov, &opts);
            let s = t0.elapsed().as_secs_f64();
            algo_s[algo_index(algo)] += s;
            ns += s * 1e9;
            io.accumulate(&cell.io);
            gets += trace_handle_gets(&cell.report.trace);
        }
    }
    for algo in JoinAlgo::all() {
        m.put(
            &format!("core.join_s.{}", algo.label().to_ascii_lowercase()),
            algo_s[algo_index(algo)],
            "s",
        );
    }
    m.put("core.chain_s", chain_cells_s(db), "s");
    m.put(
        "core.host_ns_per_sim_page",
        ns / (io.client_hits + io.client_misses) as f64,
        "ns",
    );
    m.put("core.host_ns_per_handle_get", ns / gets as f64, "ns");
}

/// Write transactions a run made: its own workload's, or the write
/// probe's when the workload makes none.
#[derive(Default)]
pub struct WriteTally {
    /// `Client::update` round trips, every attempt.
    pub update_ms: Vec<f64>,
    /// `Client::commit` round trips, aborted attempts included.
    pub commit_ms: Vec<f64>,
    /// Whole transactions: first update sent to `Committed` received.
    pub txn_ms: Vec<f64>,
    pub commits: u64,
    pub aborts: u64,
}

impl WriteTally {
    pub fn merge(&mut self, other: WriteTally) {
        self.update_ms.extend(other.update_ms);
        self.commit_ms.extend(other.commit_ms);
        self.txn_ms.extend(other.txn_ms);
        self.commits += other.commits;
        self.aborts += other.aborts;
    }
}

/// Service, router, wire-protocol and merge probes on a fresh
/// warm-read database (the `serve_warm_read` data, whose caches hold
/// it whole), plus the session-layer write metrics. `writes` carries
/// the workload's own write transactions with the epochs they
/// published, and the resident-set growth over a number of commits;
/// `None` runs the write probe instead.
pub fn service(seed: u64, writes: Option<(WriteTally, u64, f64, u64)>, m: &mut Metrics) {
    let fixture = build(&warm_config(seed));
    let script = read_script(seed, 0, 100);

    // In-process execution of the warm-read rotation on a warm clone.
    let mut db = fixture.clone();
    let opts = JoinOptions::default();
    for algo in JoinAlgo::all() {
        measure_current(&mut db, algo, 10, 10, &opts, None);
    }
    let exec_us: Vec<f64> = script
        .iter()
        .map(|&algo| {
            let t0 = Instant::now();
            black_box(measure_current(&mut db, algo, 10, 10, &opts, None));
            ms_since(t0) * 1e3
        })
        .collect();
    drop(db);
    let exec_p50 = median(&exec_us).expect("probed");
    m.put("core.exec_us_p50", exec_p50, "us");

    let server = Server::start(
        fixture.clone(),
        ServerConfig {
            workers: 1,
            queue_depth: 16,
            parallel: 1,
        },
    );
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Warm).expect("session");
    let query = |algo| QuerySpec {
        session,
        algo,
        pat_pct: 10,
        prov_pct: 10,
        deadline_nanos: 0,
    };
    for algo in JoinAlgo::all() {
        client.query(query(algo)).expect("prime");
    }
    let mut reply = None;
    let rtt_us: Vec<f64> = script
        .iter()
        .map(|&algo| {
            let t0 = Instant::now();
            let r = client.query(query(algo)).expect("probe read");
            let us = ms_since(t0) * 1e3;
            assert!(matches!(r, Response::QueryOk { .. }), "probe read: {r:?}");
            reply = Some(r);
            us
        })
        .collect();
    let rtt_p50 = median(&rtt_us).expect("probed");
    m.put("server.unloaded_rtt_us_p50", rtt_p50, "us");
    m.put("server.fixed_us_p50", rtt_p50 - exec_p50, "us");

    let reply = reply.expect("a QueryOk");
    let bytes = reply.encode();
    let ns = per_call_ns(30, 200, || {
        black_box(reply.encode());
    });
    m.put("server.proto.encode_us", ns / 1e3, "us");
    let ns = per_call_ns(30, 200, || {
        black_box(Response::decode(&bytes).expect("decodes"));
    });
    m.put("server.proto.decode_us", ns / 1e3, "us");

    let (tally, epochs, rss_kb, rss_commits) = match writes {
        Some(w) => w,
        None => {
            let rss0 = status_kb("VmRSS");
            let mut tally = WriteTally::default();
            for _ in 0..30 {
                write_txn(&mut client, session, &mut tally).expect("probe write");
            }
            let commits = tally.commits;
            (
                tally,
                server.current_epoch(),
                status_kb("VmRSS") - rss0,
                commits,
            )
        }
    };
    let (_, leaked, _) = client.close_session(session).expect("close");
    assert_eq!(leaked, 0, "probe session leaked handles");
    drop(client);
    server.shutdown();
    m.put(
        "server.update_ms_p50",
        median(&tally.update_ms).expect("updates ran"),
        "ms",
    );
    m.put(
        "server.commit_ms_p50",
        median(&tally.commit_ms).expect("commits ran"),
        "ms",
    );
    m.put(
        "server.write_ms_p50",
        median(&tally.txn_ms).expect("writes ran"),
        "ms",
    );
    let commits = tally.commits.max(1) as f64;
    m.put(
        "server.session.aborts_per_commit",
        tally.aborts as f64 / commits,
        "ratio",
    );
    m.put("server.session.epochs_published", epochs as f64, "count");
    m.put(
        "server.session.rss_kb_per_commit",
        rss_kb / rss_commits.max(1) as f64,
        "kB",
    );

    router_probes(&fixture, m);
}

/// Unloaded reads through a two-shard router against the same read
/// sent straight to each shard, and the merge of a scatter's partials.
fn router_probes(fixture: &Database, m: &mut Metrics) {
    let router = Router::start_partitioned(
        fixture,
        2,
        RouterConfig {
            workers_per_shard: 1,
            queue_depth: 16,
            max_inflight: 18,
            parallel: 1,
        },
    );
    let open = |conn| {
        let mut client = Client::new(conn);
        let session = client.open_session(CacheMode::Warm).expect("session");
        (client, session)
    };
    let mut routed = open(router.connect_in_proc());
    let mut direct: Vec<_> = router
        .shards()
        .iter()
        .map(|s| open(s.connect_in_proc()))
        .collect();
    let read = |(client, session): &mut (Client<_>, u64)| {
        let t0 = Instant::now();
        let r = client
            .query(QuerySpec {
                session: *session,
                algo: JoinAlgo::Chj,
                pat_pct: 10,
                prov_pct: 90,
                deadline_nanos: 0,
            })
            .expect("probe read");
        assert!(matches!(r, Response::QueryOk { .. }), "probe read: {r:?}");
        ms_since(t0) * 1e3
    };
    read(&mut routed);
    direct.iter_mut().for_each(|c| {
        read(c);
    });
    let (mut routed_us, mut slowest_us, mut overhead_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..60 {
        let r = read(&mut routed);
        let s = direct.iter_mut().map(&read).fold(0.0, f64::max);
        routed_us.push(r);
        slowest_us.push(s);
        overhead_us.push(r - s);
    }
    m.put(
        "router.routed_rtt_us_p50",
        median(&routed_us).expect("probed"),
        "us",
    );
    m.put(
        "router.slowest_shard_us_p50",
        median(&slowest_us).expect("probed"),
        "us",
    );
    m.put(
        "router.overhead_us_p50",
        median(&overhead_us).expect("probed"),
        "us",
    );

    let (client, session) = &mut routed;
    let partials = match client
        .scatter(QuerySpec {
            session: *session,
            algo: JoinAlgo::Chj,
            pat_pct: 10,
            prov_pct: 90,
            deadline_nanos: 0,
        })
        .expect("scatter")
    {
        Response::ScatterOk { partials, .. } => partials,
        other => panic!("scatter: {other:?}"),
    };
    let ns = per_call_ns(30, 200, || {
        black_box(merge_stats(partials.iter().map(|p| &p.stat)));
    });
    m.put("statsdb.merge_stats_us", ns / 1e3, "us");

    for (mut client, session) in direct.into_iter().chain(std::iter::once(routed)) {
        let (_, leaked, _) = client.close_session(session).expect("close");
        assert_eq!(leaked, 0, "probe session leaked handles");
    }
    router.shutdown();
}
