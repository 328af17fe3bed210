//! End-to-end tests through the `treequery` facade: OQL text in,
//! measured results out, across physical organizations.

use treequery::query::join::{run_join, JoinContext, JoinOptions};
use treequery::query::oql::{compile_str, CompiledQuery};
use treequery::query::{index_scan, seq_scan, sorted_index_scan, JoinAlgo, ResultMode};
use treequery::workload::{build, BuildConfig, Database, DbShape, Organization};

fn db(org: Organization) -> Database {
    build(&BuildConfig::scaled(DbShape::Db2, org, 1000))
}

fn run_compiled_join(db: &mut Database, algo: JoinAlgo, text: &str) -> Vec<(i64, i64)> {
    let CompiledQuery::TreeJoin(mut spec) = compile_str(&db.store, text).expect("compiles") else {
        panic!("expected a join");
    };
    spec.result_mode = ResultMode::Transient;
    let parent_index = db.idx_provider_upin.clone();
    let child_index = db.idx_patient_mrn.clone();
    let (report, _) = db.measure_cold(move |db| {
        let mut ctx = JoinContext {
            store: &mut db.store,
            parent_index: &parent_index,
            child_index: &child_index,
        };
        run_join(algo, &mut ctx, &spec, &JoinOptions::default(), true)
    });
    let mut pairs = report.pairs.unwrap();
    pairs.sort_unstable();
    pairs
}

/// The same OQL query returns the same answer in every physical
/// organization — "three physical representation of the same
/// databases".
#[test]
fn answers_are_organization_invariant() {
    let mut reference: Option<Vec<(i64, i64)>> = None;
    for org in Organization::all() {
        let mut d = db(org);
        let k1 = d.patient_selectivity_key(30);
        let k2 = d.provider_selectivity_key(70);
        let text = format!(
            "select [p.name, pa.age] from p in Providers, pa in p.clients \
             where pa.mrn < {k1} and p.upin < {k2}"
        );
        let pairs = run_compiled_join(&mut d, JoinAlgo::Phj, &text);
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(r, &pairs, "answers differ under {org:?}"),
        }
    }
}

/// OQL selections agree across all three access paths and with a
/// direct predicate count.
#[test]
fn selection_paths_agree_via_oql() {
    let mut d = db(Organization::ClassClustered);
    let k = d.patient_count as i64 / 3;
    let text = format!("select pa.age from pa in Patients where pa.num < {k}");
    let CompiledQuery::Selection(sel) = compile_str(&d.store, &text).unwrap() else {
        panic!("expected a selection");
    };
    let idx = d.idx_patient_num.clone();
    let (a, _) = d.measure_cold(|d| seq_scan(&mut d.store, &sel, true));
    let (b, _) = d.measure_cold(|d| index_scan(&mut d.store, &idx, &sel, true));
    let (c, _) = d.measure_cold(|d| sorted_index_scan(&mut d.store, &idx, &sel, true));
    let norm = |mut v: Vec<i64>| {
        v.sort_unstable();
        v
    };
    let (av, bv, cv) = (
        norm(a.values.unwrap()),
        norm(b.values.unwrap()),
        norm(c.values.unwrap()),
    );
    assert_eq!(av, bv);
    assert_eq!(bv, cv);
    // num is uniform in 0..patient_count, so ~1/3 of patients qualify.
    let frac = av.len() as f64 / d.patient_count as f64;
    assert!(
        (0.28..0.39).contains(&frac),
        "selectivity came out at {frac}"
    );
}

/// A warm re-run is cheaper than the cold run (the caches work), and a
/// cold restart restores the cold cost.
#[test]
fn cold_vs_warm_measurement_protocol() {
    // Small data, paper-sized caches: the warm working set fits.
    let mut cfg = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, 1000);
    cfg.cache = treequery::pagestore::CacheConfig::paper_default();
    let mut d = build(&cfg);
    let k = d.patient_count as i64 / 2;
    let text = format!("select pa.age from pa in Patients where pa.mrn < {k}");
    let CompiledQuery::Selection(sel) = compile_str(&d.store, &text).unwrap() else {
        panic!("expected a selection");
    };
    // Cold.
    let (_, cold_secs) = d.measure_cold(|d| seq_scan(&mut d.store, &sel, false));
    // Warm: run again without restarting the server.
    d.store.reset_metrics();
    seq_scan(&mut d.store, &sel, false);
    d.store.end_of_query();
    let warm_secs = d.store.clock().elapsed_secs();
    // The warm run saves all the I/O — but only the I/O: handle CPU
    // dominates scans (the paper's §4 point), so the saving is real
    // yet bounded.
    assert!(
        warm_secs < 0.95 * cold_secs,
        "warm {warm_secs:.2}s vs cold {cold_secs:.2}s"
    );
    assert_eq!(
        d.store.stats().d2sc_read_pages,
        0,
        "warm run hits the cache"
    );
    // Cold again.
    let (_, cold2) = d.measure_cold(|d| seq_scan(&mut d.store, &sel, false));
    assert!((cold2 - cold_secs).abs() < cold_secs * 0.05);
}

/// Figure-3 counter sanity on a measured run: every client miss is an
/// RPC; cold disk reads equal server misses.
#[test]
fn figure3_counters_are_consistent() {
    let mut d = db(Organization::ClassClustered);
    let k1 = d.patient_selectivity_key(50);
    let k2 = d.provider_selectivity_key(50);
    let text = format!(
        "select [p.name, pa.age] from p in Providers, pa in p.clients \
         where pa.mrn < {k1} and p.upin < {k2}"
    );
    run_compiled_join(&mut d, JoinAlgo::Nojoin, &text);
    let s = d.store.stats();
    assert_eq!(
        s.client_misses, s.sc2cc_read_pages,
        "one RPC per client miss"
    );
    assert_eq!(
        s.server_misses, s.d2sc_read_pages,
        "one disk read per server miss"
    );
    assert!(s.client_hits > 0);
    assert!(s.rpc_total_bytes() == s.sc2cc_read_pages * 4096);
    assert!(s.client_miss_rate() > 0.0 && s.client_miss_rate() <= 100.0);
}

/// The whole pipeline rejects bad OQL with useful errors.
#[test]
fn oql_errors_are_reported() {
    let d = db(Organization::ClassClustered);
    for (text, needle) in [
        (
            "select pa.age from pa in Nobody where pa.mrn < 1",
            "unknown collection",
        ),
        (
            "select pa.age from pa in Patients where pa.wrong < 1",
            "no attribute",
        ),
        ("select pa.age from pa into Patients", "keyword `in`"),
    ] {
        let err = compile_str(&d.store, text).unwrap_err().to_string();
        assert!(err.contains(needle), "{text}: {err}");
    }
}

/// One cold join cell's counter fingerprint: the eight `IoStats`
/// counters, the query's five handle-traffic counters (allocations,
/// touches, revivals, unrefs, frees), the simulated nanoseconds and
/// the result count.
fn cell_fingerprint(
    d: &mut Database,
    algo: JoinAlgo,
    child_pct: u32,
    parent_pct: u32,
) -> [u64; 15] {
    let k1 = d.patient_selectivity_key(child_pct);
    let k2 = d.provider_selectivity_key(parent_pct);
    let text = format!(
        "select [p.name, pa.age] from p in Providers, pa in p.clients \
         where pa.mrn < {k1} and p.upin < {k2}"
    );
    let before = d.store.handle_stats();
    let pairs = run_compiled_join(d, algo, &text);
    let h = d.store.handle_stats();
    let s = d.store.stats();
    [
        s.d2sc_read_pages,
        s.sc2cc_read_pages,
        s.client_hits,
        s.client_misses,
        s.server_hits,
        s.server_misses,
        s.pages_written,
        s.log_pages_written,
        h.allocations - before.allocations,
        h.touches - before.touches,
        h.revivals - before.revivals,
        h.unrefs - before.unrefs,
        h.frees - before.frees,
        d.store.clock().elapsed(),
        pairs.len() as u64,
    ]
}

/// Counter identity: the exact I/O, handle and simulated-time figures
/// of the four algorithms at the grid's two extreme cells, on both
/// database shapes. At 1/100 scale both caches (81 client pages, 10
/// server pages) and the 4096-handle delayed-free pool evict, so any
/// change to cache residency, handle bookkeeping or charging moves a
/// number here. The figures were recorded on the single-probe engine's
/// predecessor and must never drift: host-side speedups keep the
/// simulated output byte-identical.
#[test]
fn join_counters_are_pinned() {
    #[rustfmt::skip]
    const EXPECTED: [(DbShape, JoinAlgo, u32, u32, [u64; 15]); 16] = [
        (DbShape::Db1, JoinAlgo::Nl, 10, 90, [5716, 5716, 28543, 5716, 0, 5716, 0, 0, 17138, 0, 0, 17138, 17138, 53429246000, 1716]),
        (DbShape::Db1, JoinAlgo::Nl, 90, 10, [600, 600, 2373, 600, 0, 600, 0, 0, 1487, 0, 0, 1487, 1487, 5912004000, 1335]),
        (DbShape::Db1, JoinAlgo::Nojoin, 10, 90, [45, 45, 3686, 45, 0, 45, 0, 0, 1881, 0, 1841, 3722, 1881, 1334796400, 1716]),
        (DbShape::Db1, JoinAlgo::Nojoin, 90, 10, [381, 381, 33192, 381, 0, 381, 0, 0, 16772, 0, 16732, 33504, 16772, 7906616500, 1335]),
        (DbShape::Db1, JoinAlgo::Phj, 10, 90, [46, 46, 1843, 46, 0, 46, 0, 0, 1879, 0, 0, 1879, 1879, 954447000, 1716]),
        (DbShape::Db1, JoinAlgo::Phj, 90, 10, [382, 382, 16442, 382, 0, 382, 0, 0, 16754, 0, 0, 16754, 16754, 6644334700, 1335]),
        (DbShape::Db1, JoinAlgo::Chj, 10, 90, [46, 46, 1843, 46, 0, 46, 0, 0, 1879, 0, 0, 1879, 1879, 972362000, 1716]),
        (DbShape::Db1, JoinAlgo::Chj, 90, 10, [382, 382, 16442, 382, 0, 382, 0, 0, 16754, 0, 0, 16754, 16754, 7653104700, 1335]),
        (DbShape::Db2, JoinAlgo::Nl, 10, 90, [19157, 19157, 12435, 19157, 0, 19157, 0, 0, 31554, 0, 0, 31554, 31554, 207524342000, 2247]),
        (DbShape::Db2, JoinAlgo::Nl, 90, 10, [2159, 2159, 1353, 2159, 0, 2159, 0, 0, 3506, 0, 0, 3506, 3506, 23915238000, 2243]),
        (DbShape::Db2, JoinAlgo::Nojoin, 10, 90, [2033, 2033, 3005, 2033, 0, 2033, 0, 0, 4787, 0, 239, 5026, 4787, 22835723500, 2247]),
        (DbShape::Db2, JoinAlgo::Nojoin, 90, 10, [18109, 18109, 27217, 18109, 0, 18109, 0, 0, 41759, 0, 3475, 45234, 41759, 198573200800, 2243]),
        (DbShape::Db2, JoinAlgo::Phj, 10, 90, [406, 406, 11157, 406, 0, 406, 0, 0, 11513, 0, 0, 11513, 11513, 46140326700, 2247]),
        (DbShape::Db2, JoinAlgo::Phj, 90, 10, [552, 552, 23163, 552, 0, 552, 0, 0, 23617, 0, 0, 23617, 23617, 9623906400, 2243]),
        (DbShape::Db2, JoinAlgo::Chj, 10, 90, [406, 406, 11157, 406, 0, 406, 0, 0, 11513, 0, 0, 11513, 11513, 6863851700, 2247]),
        (DbShape::Db2, JoinAlgo::Chj, 90, 10, [552, 552, 23163, 552, 0, 552, 0, 0, 23617, 0, 0, 23617, 23617, 153554431400, 2243]),
    ];
    for shape in [DbShape::Db1, DbShape::Db2] {
        let cfg = BuildConfig::scaled(shape, Organization::ClassClustered, 100);
        let mut d = build(&cfg);
        let (mut client_misses, mut server_misses) = (0, 0);
        for &(_, algo, c, p, want) in EXPECTED.iter().filter(|e| e.0 == shape) {
            let got = cell_fingerprint(&mut d, algo, c, p);
            assert_eq!(got, want, "{shape:?} {algo:?} ({c},{p})");
            client_misses = client_misses.max(got[3]);
            server_misses = server_misses.max(got[5]);
        }
        // More cold misses than slots: both tiers evicted.
        assert!(client_misses > cfg.cache.client_pages as u64);
        assert!(server_misses > cfg.cache.server_pages as u64);
        assert_eq!(d.store.live_handles(), 0, "{shape:?}: leaked handle pins");
    }
}
