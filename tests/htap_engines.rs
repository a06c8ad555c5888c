//! Tier-1 tests for "one engine per job, one reader of the column index".
//!
//! * an indexed table answers exactly like the same table before the index
//!   existed, whichever engine runs the statement;
//! * the AP engine (`MppExecutor`) reads a table from its column index iff
//!   the provider attaches one — and then never from the row partitions —
//!   while the TP engine (`execute_plan`) never asks for an index;
//! * the one remaining join records its time;
//! * an index-sourced query still runs under the AP governor;
//! * all 22 TPC-H shapes agree across both engines, both sources and both
//!   degrees of parallelism.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_columnar::ColumnSnapshot;
use polardbx_common::{DcId, Result, Row, Value};
use polardbx_executor::{
    exec_metrics, execute_plan, ExecCtx, MppExecutor, TableProvider, WorkloadManager,
};
use polardbx_sql::{LogicalPlan, Statement};
use polardbx_workloads::tpch;

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
            let mpp = MppExecutor::with_pool(workers, WorkloadManager::new(2, 4, 1.0, 1.0));
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

// ------------------------------------------------ isolation still holds

#[test]
fn paused_governor_stalls_an_index_sourced_query() {
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

    db.workload().ap_governor.set_paused(true);
    let (tx, rx) = std::sync::mpsc::channel();
    let query = std::thread::spawn(move || {
        let t0 = Instant::now();
        let rows = s.query(sql).unwrap();
        tx.send(()).unwrap();
        (rows, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(40));
    assert!(rx.try_recv().is_err(), "the query finished under a paused AP governor");
    db.workload().ap_governor.set_paused(false);
    let (rows, elapsed) = query.join().unwrap();
    assert!(elapsed >= Duration::from_millis(30), "never stalled: {elapsed:?}");
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
        let pool = WorkloadManager::new(2, 4, 1.0, 1.0);
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
