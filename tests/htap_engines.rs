//! Tier-1 tests for "one engine per job, one reader of the column index".
//!
//! * an indexed table answers exactly like the same table before the index
//!   existed, whichever engine runs the statement;
//! * the AP engine (`MppExecutor`) reads a table from its column index iff
//!   the provider attaches one — and then never from the row partitions —
//!   while the TP engine (`execute_plan`) never asks for an index;
//! * the one remaining join records its time;
//! * the AP engine builds rows only for the answer: TPC-H's refresh
//!   queries run on lanes from scan to root;
//! * a filter on one table of a join makes no other table a point read;
//! * an index-sourced query still runs under the AP governor;
//! * all 22 TPC-H shapes agree across both engines, both sources and both
//!   degrees of parallelism;
//! * the column index is fed by the DNs' redo: a write reaches it whoever
//!   made it and from whichever CN, an indexed INSERT scans nothing and
//!   appends one row, snapshots share the index's columns, `ship_now`
//!   returns only once a late phase two is in the index, and at every
//!   commit timestamp of a concurrent run — built mid-run, through a
//!   re-home round — the index equals the row store.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polardbx::gms::shard_table_id;
use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_columnar::ColumnSnapshot;
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, Error, Key, NodeId, Result, Row, Value};
use polardbx_executor::{
    exec_metrics, execute_plan, ExecCtx, MppExecutor, TableProvider, WorkloadManager,
};
use polardbx_simnet::Handler;
use polardbx_sql::{LogicalPlan, Statement};
use polardbx_txn::{DnService, TxnMsg, WireWriteOp};
use polardbx_wal::RedoPayload;
use polardbx_workloads::tpch;
use rand::{Rng, SeedableRng};

fn plan(db: &PolarDbx, sql: &str) -> LogicalPlan {
    let Statement::Select(sel) = polardbx_sql::parse(sql).unwrap() else {
        panic!("not a SELECT: {sql}")
    };
    polardbx_optimizer::optimize_with_stats(
        polardbx_sql::build_plan(&sel, db.gms().as_ref()).unwrap(),
        &db.gms().statistics(),
    )
}

/// Rows as a sorted multiset.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

// ------------------------------------------------- wrong rows from an index

#[test]
fn indexed_table_answers_like_the_row_store() {
    // `v` is an INT column and the constants are not integers: a filter
    // that truncates them (10.5 → 10) loses v = 10.
    let statements = [
        ("v < 10.5", 10),
        ("10.5 > v", 10),
        ("v BETWEEN 2.5 AND 10.5", 8),
        ("v = 10.0", 1),
    ];
    let tp = ClusterConfig::default();
    let ap = |mpp_workers| ClusterConfig { ap_threshold: 0.0, mpp_workers, ..Default::default() };
    for (name, config) in [("TP", tp), ("AP x4", ap(4)), ("AP x1", ap(1))] {
        let db = PolarDbx::build(config).unwrap();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        let values: Vec<String> = (1..=20).map(|v| format!("({v}, {v})")).collect();
        s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(","))).unwrap();
        let sqls: Vec<String> = statements
            .iter()
            .flat_map(|(pred, _)| {
                [format!("SELECT COUNT(*) FROM t WHERE {pred}"), format!("SELECT v FROM t WHERE {pred}")]
            })
            .collect();
        let answers =
            || -> Vec<Vec<Row>> { sqls.iter().map(|sql| sorted(s.query(sql).unwrap())).collect() };
        let before = answers();
        for ((pred, expect), pair) in statements.iter().zip(before.chunks(2)) {
            assert_eq!(pair[0][0].get(0).unwrap(), &Value::Int(*expect), "{name}: COUNT(*) {pred}");
            assert_eq!(pair[1].len() as i64, *expect, "{name}: SELECT v {pred}");
        }
        db.enable_column_index("t").unwrap();
        for ((sql, before), after) in sqls.iter().zip(&before).zip(answers()) {
            assert_eq!(before, &after, "{name}: the index changed the answer of {sql}");
        }
        db.shutdown();
    }
}

// ------------------------------------------- who reads the index, who doesn't

/// Forwards to the cluster's provider, counting calls per table.
struct CountingProvider<P> {
    inner: P,
    /// table → (`columnar()` calls, `scan_partition` calls)
    calls: Mutex<HashMap<String, (u64, u64)>>,
}

impl<P: TableProvider> CountingProvider<P> {
    fn new(inner: P) -> Arc<CountingProvider<P>> {
        Arc::new(CountingProvider { inner, calls: Mutex::new(HashMap::new()) })
    }

    fn take(&self, table: &str) -> (u64, u64) {
        self.calls.lock().unwrap().remove(table).unwrap_or_default()
    }
}

impl<P: TableProvider> TableProvider for CountingProvider<P> {
    fn partitions(&self, table: &str) -> usize {
        self.inner.partitions(table)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        self.calls.lock().unwrap().entry(table.to_string()).or_default().1 += 1;
        self.inner.scan_partition(table, partition)
    }

    fn columnar(&self, table: &str) -> Option<ColumnSnapshot> {
        self.calls.lock().unwrap().entry(table.to_string()).or_default().0 += 1;
        self.inner.columnar(table)
    }
}

/// `fact` (2 000 rows, 8 shards, column index) and `dim` (4 rows, no index).
fn fact_and_dim() -> PolarDbx {
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE fact (id BIGINT NOT NULL, grp BIGINT, amt DOUBLE, PRIMARY KEY (id))")
        .unwrap();
    s.execute("CREATE TABLE dim (grp BIGINT NOT NULL, name VARCHAR(8), PRIMARY KEY (grp))")
        .unwrap();
    for chunk in 0..4 {
        let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
            .map(|i| format!("({i}, {}, {}.5)", i % 4, i % 97))
            .collect();
        s.execute(&format!("INSERT INTO fact (id, grp, amt) VALUES {}", values.join(","))).unwrap();
    }
    s.execute("INSERT INTO dim (grp, name) VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')").unwrap();
    db.enable_column_index("fact").unwrap();
    db
}

const AGGREGATE: &str = "SELECT grp, COUNT(*), SUM(amt) FROM fact WHERE amt < 50.0 GROUP BY grp";
const JOIN: &str = "SELECT dim.name, COUNT(*) FROM fact JOIN dim ON fact.grp = dim.grp \
                    WHERE fact.amt < 50.0 GROUP BY dim.name";

#[test]
fn ap_engine_reads_the_index_and_tp_engine_the_row_store() {
    let db = fact_and_dim();
    let counting = CountingProvider::new(db.provider(true));
    let provider: Arc<dyn TableProvider> = counting.clone();
    let ctx = ExecCtx::unrestricted();
    for sql in [AGGREGATE, JOIN] {
        let plan = plan(&db, sql);
        let expect = sorted(execute_plan(&plan, provider.as_ref(), &ctx).unwrap());
        let (columnar, partitions) = counting.take("fact");
        assert_eq!(columnar, 0, "the TP engine never asks for an index: {sql}");
        assert!(partitions >= 1, "{sql}");
        counting.take("dim");
        for workers in [1, 4] {
            let mpp = MppExecutor::with_pool(workers, WorkloadManager::new(4, 1.0, 1.0));
            let rows = sorted(mpp.execute(&plan, &provider, &ctx).unwrap());
            assert_eq!(rows, expect, "{workers} workers: {sql}");
            let (columnar, partitions) = counting.take("fact");
            assert!(columnar >= 1, "{workers} workers read no index: {sql}");
            assert_eq!(partitions, 0, "{workers} workers scanned fact's row partitions: {sql}");
            if sql == JOIN {
                let (_, partitions) = counting.take("dim");
                assert!(partitions >= 1, "dim has no index: its partitions are the source");
            }
        }
    }
    db.shutdown();
}

#[test]
fn join_time_is_recorded() {
    let db = fact_and_dim();
    let provider: Arc<dyn TableProvider> = Arc::new(db.provider(true));
    let plan = plan(&db, JOIN);
    let join = &exec_metrics().join;
    let (rows, nanos) = (join.rows.get(), join.nanos.get());
    MppExecutor::new(4).execute(&plan, &provider, &ExecCtx::unrestricted()).unwrap();
    // 4 build rows, and every fact row under the filter finds its dim row.
    assert!(join.rows.get() >= rows + 4 + 1_000, "join.rows did not grow");
    assert!(join.nanos.get() > nanos, "join.nanos did not grow");
    db.shutdown();
}

/// Set in the child process that runs
/// [`the_ap_engine_builds_rows_only_for_the_answer`] alone.
const ALONE: &str = "POLARDBX_HTAP_ENGINES_ALONE";

/// The refresh queries (Q1, Q6, Q3, Q12) on the indexed TPC-H-lite
/// cluster build exactly the rows they return: joins, aggregates, sorts
/// and limits all run on lanes, and `Collect` turns lanes into rows once,
/// at the root. `ExecMetrics::materialized` is process-wide, so the check
/// runs in a child process of this test binary that runs this test alone.
#[test]
fn the_ap_engine_builds_rows_only_for_the_answer() {
    let name = "the_ap_engine_builds_rows_only_for_the_answer";
    if std::env::var_os(ALONE).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--test-threads", "1"])
            .env(ALONE, "1")
            .output()
            .unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success() && stdout.contains("1 passed"), "{stdout}\n{stderr}");
        return;
    }
    let config =
        ClusterConfig { dns: 2, default_shards: 4, ap_threshold: 0.0, ..Default::default() };
    let db = PolarDbx::build(config).unwrap();
    let s = db.connect(DcId(1));
    tpch::create_schema(&s, 4).unwrap();
    tpch::load(&db, tpch::ScaleFactor(0.01), 7).unwrap();
    for t in ["lineitem", "orders", "customer"] {
        db.enable_column_index(t).unwrap();
    }
    let materialized = &exec_metrics().materialized;
    for q in [1, 6, 3, 12] {
        let before = materialized.get();
        let (rows, class) = s.query_classified(tpch::query_sql(q)).unwrap();
        let built = materialized.get() - before;
        assert_eq!(class, polardbx_optimizer::WorkloadClass::Ap, "Q{q}");
        assert!(!rows.is_empty(), "Q{q} answered nothing");
        assert_eq!(built, rows.len() as u64, "Q{q} built rows beside its answer's");
    }
    db.shutdown();
}

// --------------------------------------- which store an AP plan reads

/// A filter on one table makes no other table of the plan a point read:
/// TPC-H Q3's `c_mktsegment = 'BUILDING'` sits on `customer`, so `orders`
/// and `lineitem` — filtered on non-key columns — are read from their
/// column indexes, not row by row from the row store.
#[test]
fn an_indexed_join_reads_the_column_indexes() {
    // At this scale Q3 costs less than the default AP threshold.
    let config =
        ClusterConfig { dns: 2, default_shards: 4, ap_threshold: 0.0, ..Default::default() };
    let db = PolarDbx::build(config).unwrap();
    tpch::create_schema(&db.connect(DcId(1)), 4).unwrap();
    tpch::load(&db, tpch::ScaleFactor(0.01), 7).unwrap();
    for t in ["lineitem", "orders", "customer"] {
        db.enable_column_index(t).unwrap();
    }
    let explain = db.connect(DcId(1)).explain(tpch::query_sql(3)).unwrap();
    assert!(explain.contains("class: Ap"), "{explain}");
    for table in ["orders", "lineitem"] {
        assert!(explain.contains(&format!("scan {table}: ColumnIndex")), "{explain}");
        assert!(explain.contains(&format!("access {table}: all shards")), "{explain}");
    }
    db.shutdown();
}

// ------------------------------------------------ isolation still holds

/// With TP work in flight the AP governor paces an index-sourced query:
/// at its floor quota of 1 %, each quantum of `TICK_EVERY` rows earns
/// 1 024 × 50 ns × 99 ≈ 5.1 ms of sleep, and 3 000 rows are at least one
/// quantum.
#[test]
fn tp_work_paces_an_index_sourced_query() {
    let db = PolarDbx::build(ClusterConfig { ap_threshold: 0.0, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE m (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
    // More rows than the governor's poll interval (1 024 ticks).
    for chunk in 0..3 {
        let values: Vec<String> =
            (chunk * 1000..(chunk + 1) * 1000).map(|i| format!("({i}, {})", i % 10)).collect();
        s.execute(&format!("INSERT INTO m (id, v) VALUES {}", values.join(","))).unwrap();
    }
    db.enable_column_index("m").unwrap();
    let sql = "SELECT COUNT(*), SUM(v) FROM m WHERE v >= 0";
    let explain = s.explain(sql).unwrap();
    assert!(explain.contains("class: Ap") && explain.contains("scan m: ColumnIndex"), "{explain}");
    // What the index can answer: the build stamped every row at its floor.
    let floor = db.column_index("m").unwrap().floor();
    let can_answer =
        format!("(applied ts {floor}, floor {floor}, rows 3000 live / 3000 physical, copies 0)\n");
    assert!(floor > 0 && explain.contains(&can_answer), "{explain}");

    db.workload().ap_governor.set_quota(0.01);
    let tp_job = db.workload().tp_work().enter();
    let t0 = Instant::now();
    let rows = s.query(sql).unwrap();
    let paced = t0.elapsed();
    drop(tp_job);
    assert!(paced >= Duration::from_millis(5), "never paced: {paced:?}");
    assert_eq!(rows[0].values(), &[Value::Int(3000), Value::Int(13_500)]);
    db.shutdown();
}

// ------------------------------------------------------ 22-shape differential

/// Sort rows as a multiset and compare cell by cell, numbers within 1e-9
/// (relative): float sums depend on the merge order of partial aggregates.
fn assert_same_rows(expect: Vec<Row>, got: Vec<Row>, what: &str) {
    let (expect, got) = (sorted(expect), sorted(got));
    assert_eq!(expect.len(), got.len(), "{what}: row count");
    for (e, g) in expect.iter().zip(&got) {
        assert_eq!(e.arity(), g.arity(), "{what}: {e:?} vs {g:?}");
        for (a, b) in e.values().iter().zip(g.values()) {
            let same = match (a.as_double(), b.as_double()) {
                (Ok(x), Ok(y)) if !a.is_null() && !b.is_null() => {
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                }
                _ => a == b,
            };
            assert!(same, "{what}: {e:?} vs {g:?}");
        }
    }
}

#[test]
fn tpch_shapes_agree_across_engines_and_sources() {
    for seed in [7, 99, 4242] {
        let db = PolarDbx::build(ClusterConfig { dns: 2, default_shards: 4, ..Default::default() })
            .unwrap();
        tpch::create_schema(&db.connect(DcId(1)), 4).unwrap();
        tpch::load(&db, tpch::ScaleFactor(0.01), seed).unwrap();
        for t in ["lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region"]
        {
            db.enable_column_index(t).unwrap();
        }
        let rows_only: Arc<dyn TableProvider> = Arc::new(db.provider(false));
        let indexed: Arc<dyn TableProvider> = Arc::new(db.provider(true));
        let ctx = ExecCtx::unrestricted();
        let pool = WorkloadManager::new(4, 1.0, 1.0);
        for q in 1..=22 {
            let plan = plan(&db, tpch::query_sql(q));
            let expect = execute_plan(&plan, rows_only.as_ref(), &ctx).unwrap();
            for (source, provider) in [("row partitions", &rows_only), ("column index", &indexed)] {
                for workers in [1, 4] {
                    let mpp = MppExecutor::with_pool(workers, Arc::clone(&pool));
                    let got = mpp.execute(&plan, provider, &ctx).unwrap();
                    let what = format!("seed {seed} Q{q}, {source}, {workers} workers");
                    assert_same_rows(expect.clone(), got, &what);
                }
            }
        }
        db.shutdown();
    }
}

// ------------------------------------------------- the index is fed by redo

/// `SELECT COUNT(*), SUM(v) FROM t` as the AP engine answers it.
fn count_and_sum(s: &Session) -> (i64, i64) {
    let rows = s.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    (rows[0].get(0).unwrap().as_int().unwrap(), rows[0].get(1).unwrap().as_int().unwrap())
}

/// A write that does not go through `Session` DML — the coordinator API
/// every loader and driver uses — reaches the index like any other commit.
#[test]
fn a_write_through_the_coordinator_reaches_the_index() {
    let db = PolarDbx::build(ClusterConfig { ap_threshold: 0.0, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
    s.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.enable_column_index("t").unwrap();
    let explain = s.explain("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert!(explain.contains("scan t: ColumnIndex"), "{explain}");
    assert_eq!(count_and_sum(&s), (3, 60));

    let pk = [Value::Int(4)];
    let (stid, dn, epoch) = s.route_fenced("t", &pk).unwrap();
    let mut txn = s.coordinator().begin();
    txn.pin_epoch(stid, epoch).unwrap();
    let row = Row::new(vec![Value::Int(4), Value::Int(40)]);
    txn.write(dn, stid, Key::encode(&pk), WireWriteOp::Insert(row)).unwrap();
    txn.commit().unwrap();

    assert_eq!(count_and_sum(&s), (4, 100), "the AP aggregate missed a committed row");
    assert_eq!(db.column_index("t").unwrap().physical_rows(), 4);
    db.shutdown();
}

/// Read-your-writes through the index from a CN other than the one the
/// index was built on: the index waits for the DNs' logs, not for some
/// CN's clock. Every fourth INSERT spans shards, so its phase two is still
/// in flight when the aggregate starts.
#[test]
fn a_session_in_another_dc_reads_its_own_inserts_through_the_index() {
    let db = PolarDbx::build(ClusterConfig {
        dcs: 3,
        cns_per_dc: 1,
        dns: 3,
        ap_threshold: 0.0,
        ..Default::default()
    })
    .unwrap();
    db.connect(DcId(1))
        .execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))")
        .unwrap();
    db.enable_column_index("t").unwrap();
    let built = db.column_index("t").unwrap();
    let s = db.connect(DcId(2));
    assert_eq!(s.cn_dc(), DcId(2));
    let (mut count, mut sum) = (0i64, 0i64);
    for i in 0..200i64 {
        let ids: Vec<i64> = if i % 4 == 3 { (0..3).map(|k| 1_000 + 3 * i + k).collect() } else { vec![i] };
        let values: Vec<String> = ids.iter().map(|id| format!("({id}, {id})")).collect();
        s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(","))).unwrap();
        count += ids.len() as i64;
        sum += ids.iter().sum::<i64>();
        assert_eq!(count_and_sum(&s), (count, sum), "after INSERT #{i} of {ids:?}");
    }
    let index = db.column_index("t").unwrap();
    assert_eq!(index.live_rows() as i64, count);
    assert!(Arc::ptr_eq(&built, &index), "reads and writes rebuild nothing");
    db.shutdown();
}

/// The exact counts of an indexed INSERT: no table scan (a build is the
/// only thing that scans for the index, and none runs), one appended index
/// row, and snapshots that share the index's columns instead of copying.
#[test]
fn an_indexed_insert_appends_one_row_and_snapshots_share_the_columns() {
    let db = fact_and_dim();
    let s = db.connect(DcId(1));
    let index = db.column_index("fact").unwrap();
    assert_eq!(index.physical_rows(), 2_000);

    s.execute("INSERT INTO fact (id, grp, amt) VALUES (2000, 0, 1.5)").unwrap();
    db.ship_now();
    assert!(Arc::ptr_eq(&index, &db.column_index("fact").unwrap()), "the INSERT rebuilt the index");
    assert_eq!(index.physical_rows(), 2_001);

    let (a, b) = (index.snapshot(u64::MAX), index.snapshot(u64::MAX));
    assert_eq!(a.len(), 2_001);
    for (x, y) in a.columns.iter().zip(&b.columns) {
        assert!(Arc::ptr_eq(x, y), "two snapshots with no write between them copied a column");
    }
    // A write while a snapshot is alive copies; the snapshot does not move.
    s.execute("INSERT INTO fact (id, grp, amt) VALUES (2001, 1, 2.5)").unwrap();
    db.ship_now();
    assert_eq!((a.len(), a.columns[0].len()), (2_001, 2_001));
    assert_eq!(index.snapshot(u64::MAX).len(), 2_002);
    db.shutdown();
}

/// Rounds of inserts and refreshes, as `htap_mixed` runs them, on a
/// TPC-H-lite cluster whose `lineitem` is more than a morsel: each refresh
/// releases its snapshots at its answer, so the feed's next write appends
/// to the indexes' columns in place and `EXPLAIN` counts no copy.
#[test]
fn inserts_between_refreshes_copy_no_index_column() {
    let config =
        ClusterConfig { dns: 2, default_shards: 4, ap_threshold: 0.0, ..Default::default() };
    let db = PolarDbx::build(config).unwrap();
    let s = db.connect(DcId(1));
    tpch::create_schema(&s, 4).unwrap();
    tpch::load(&db, tpch::ScaleFactor(0.15), 7).unwrap();
    for t in ["lineitem", "orders"] {
        db.enable_column_index(t).unwrap();
    }
    let lines = db.column_index("lineitem").unwrap().physical_rows();
    assert!(lines > polardbx_executor::morsel::MORSEL_ROWS, "{lines} lines fit one morsel");
    for round in 0..30 {
        let o = 1_000_000 + round;
        s.execute(&format!(
            "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, \
             o_orderdate, o_orderpriority, o_shippriority) VALUES \
             ({o}, 1, 'O', 1000.0, 100, '3-MEDIUM', 0)"
        ))
        .unwrap();
        s.execute(&format!(
            "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, l_linenumber, \
             l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, \
             l_shipdate, l_commitdate, l_receiptdate, l_shipmode) VALUES \
             ({o}, 1, 1, 0, 5, 900.0, 0.05, 0.02, 'N', 'O', 120, 130, 125, 'MAIL')"
        ))
        .unwrap();
        for q in [1, 6, 3, 12] {
            assert!(!s.query(tpch::query_sql(q)).unwrap().is_empty(), "Q{q}");
        }
    }
    assert_eq!(db.column_index("lineitem").unwrap().physical_rows(), lines + 30);
    let explain = s.explain(tpch::query_sql(3)).unwrap();
    for table in ["orders", "lineitem"] {
        let line = explain
            .lines()
            .find(|l| l.starts_with(&format!("scan {table}: ColumnIndex")))
            .unwrap_or_else(|| panic!("{explain}"));
        assert!(line.ends_with(", copies 0)"), "{line}");
    }
    db.shutdown();
}

/// A DN's participant service whose posted phase-two `Commit`s arrive
/// 50 ms late.
struct LateCommit(Arc<DnService>);

impl Handler<TxnMsg> for LateCommit {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        self.0.handle(from, msg)
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        if matches!(msg, TxnMsg::Commit { .. }) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.0.handle_oneway(from, msg)
    }
}

/// `ship_now` returns once every acknowledged commit is in the feeds: a
/// multi-shard INSERT acked before its phase two reached one DN is in the
/// index when `ship_now` returns.
#[test]
fn ship_now_waits_for_a_posted_phase_two() {
    let db = fact_and_dim();
    let s = db.connect(DcId(1));
    let ids: Vec<i64> = (2_000..2_008).collect();
    let homes: BTreeSet<NodeId> =
        ids.iter().map(|&id| s.route("fact", &[Value::Int(id)]).unwrap().1).collect();
    assert!(homes.len() > 1, "the INSERT must span DNs");
    let late = db.dns().into_iter().find(|dn| dn.id == *homes.first().unwrap()).unwrap();
    db.net().register(late.id, late.dc, Arc::new(LateCommit(Arc::clone(&late.service))));

    let index = db.column_index("fact").unwrap();
    let before = index.live_rows();
    let values: Vec<String> = ids.iter().map(|id| format!("({id}, 0, 1.5)")).collect();
    s.execute(&format!("INSERT INTO fact (id, grp, amt) VALUES {}", values.join(","))).unwrap();
    db.ship_now();
    assert_eq!(index.live_rows(), before + ids.len(), "ship_now returned before phase two");
    db.shutdown();
}

// ---------------------------------- row store ≡ column index, with history

/// One seed: four writers run INSERT / UPDATE / DELETE, single- and
/// multi-shard (one-phase commits, and 2PC whose phase two is posted),
/// while the index is built and then every shard is re-homed once. After
/// they stop, the index must hold the table's whole history since its
/// build: at every commit timestamp, the rows the row store shows.
fn index_equals_row_store_at_every_commit(seed: u64) {
    eprintln!("index history differential seed: POLARDBX_TEST_SEED={}", format_seed(seed));
    const WRITERS: u64 = 4;
    const SHARED: i64 = 400;
    let db = PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, note VARCHAR(8), PRIMARY KEY (id))")
        .unwrap();
    for chunk in 0..4 {
        let values: Vec<String> =
            (chunk * 100..(chunk + 1) * 100).map(|i| format!("({i}, 0, 'seed')")).collect();
        s.execute(&format!("INSERT INTO t (id, v, note) VALUES {}", values.join(","))).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let session = db.connect_nth(w as usize);
            let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ w);
                // Ids this writer inserted and has not deleted; nobody else
                // touches them.
                let (mut own, mut next) = (Vec::<i64>::new(), 10_000 * (w as i64 + 1));
                while !stop.load(Ordering::Relaxed) {
                    let n = if rng.gen_bool(0.5) { 1 } else { 3 };
                    let sql = match rng.gen_range(0..10) {
                        0..=4 => {
                            let ids: Vec<i64> = (next..next + n).collect();
                            next += n;
                            own.extend(&ids);
                            let values: Vec<String> =
                                ids.iter().map(|id| format!("({id}, {w}, 'new')")).collect();
                            format!("INSERT INTO t (id, v, note) VALUES {}", values.join(","))
                        }
                        5..=7 => {
                            let ids: Vec<String> =
                                (0..n).map(|_| rng.gen_range(0..SHARED).to_string()).collect();
                            format!("UPDATE t SET v = v + 1, note = 'upd' WHERE id IN ({})", ids.join(","))
                        }
                        _ if own.len() >= n as usize => {
                            let ids: Vec<String> =
                                own.drain(..n as usize).map(|id| id.to_string()).collect();
                            format!("DELETE FROM t WHERE id IN ({})", ids.join(","))
                        }
                        _ => continue,
                    };
                    match session.execute(&sql) {
                        Ok(_) => {}
                        // Lost a shared row to another writer.
                        Err(e) if e.is_retryable() => {}
                        Err(e) => panic!("writer {w}: {sql}: {e:?}"),
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    // Each step starts once the writers have got 60 statements further, so
    // the build and the cutovers run under them.
    let writers_advance = || {
        let target = done.load(Ordering::Relaxed) + 60;
        while done.load(Ordering::Relaxed) < target {
            std::thread::yield_now();
        }
    };
    writers_advance();
    db.enable_column_index("t").unwrap();
    let built = db.column_index("t").unwrap();
    let built_at = built.floor();
    writers_advance();
    let schema = db.gms().table("t").unwrap();
    let dns: Vec<NodeId> = db.gms().dns();
    for shard in 0..6u32 {
        let cur = db.gms().shard_dn(schema.id, shard).unwrap();
        let dest = *dns.iter().find(|&&d| d != cur).unwrap();
        // A drain can time out retryably under the writers.
        let moved = (0..50).any(|_| match db.rehome_shard_by_id(schema.id, shard, dest) {
            Ok(_) => true,
            Err(Error::Timeout { .. }) => false,
            Err(e) => panic!("rehome of shard {shard}: {e:?}"),
        });
        assert!(moved, "shard {shard} never moved");
    }
    writers_advance();
    stop.store(true, Ordering::Relaxed);
    writers.into_iter().for_each(|w| w.join().unwrap());
    db.ship_now();

    let index = db.column_index("t").unwrap();
    assert!(Arc::ptr_eq(&built, &index), "the run rebuilt the index");
    // The mix keeps the tombstoned share under the reclaimer's trigger, so
    // the whole history since the build is there to compare.
    let floor = index.floor();
    assert_eq!(floor, built_at, "seed {seed:#x}: the index was compacted mid-run");
    // Every commit timestamp in any DN's log since the build, and the
    // build's own.
    let mut stamps = BTreeSet::from([floor]);
    for dn in db.dns() {
        let log = bytes::Bytes::from(dn.rw.log_sink_bytes());
        for record in RedoPayload::decode_all(log).unwrap() {
            if let RedoPayload::TxnCommit { commit_ts, .. } = record {
                stamps.extend((commit_ts >= floor).then_some(commit_ts));
            }
        }
    }
    assert!(stamps.len() > 100, "only {} commits after the build", stamps.len());
    eprintln!("seed {seed:#x}: {} commit timestamps, {} index rows", stamps.len(), index.physical_rows());
    let row_store_at = |ts: u64| -> Vec<Row> {
        let mut rows = Vec::new();
        for shard in 0..6u32 {
            let home = db.gms().shard_dn(schema.id, shard).unwrap();
            let dn = db.dns().into_iter().find(|dn| dn.id == home).unwrap();
            // A transaction left PREPARED for good would show here, as a
            // reader timing out on its decision.
            let scanned = dn
                .rw
                .engine
                .scan_table(shard_table_id(schema.id, shard), ts)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: shard {shard} at {ts}: {e:?}"));
            rows.extend(scanned.into_iter().map(|(_, row)| row));
        }
        sorted(rows)
    };
    for &ts in &stamps {
        let snapshot = index.snapshot_at(ts).expect("at or above the floor");
        assert_eq!(sorted(snapshot.rows()), row_store_at(ts), "seed {seed:#x}: at commit ts {ts}");
    }
    db.shutdown();
}

#[test]
fn index_equals_row_store_at_every_commit_on_three_seeds() {
    // POLARDBX_TEST_SEED replays one seed; the default is three fixed ones.
    let seeds = match seed_from_env(0) {
        0 => vec![0x1DC0_FEED_0001, 0x1DC0_FEED_0002, 0x1DC0_FEED_0003],
        pinned => vec![pinned],
    };
    seeds.into_iter().for_each(index_equals_row_store_at_every_commit);
}
