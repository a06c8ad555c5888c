//! Execution-engine benchmark: seed row engine vs morsel-driven
//! vectorized engine on a CPU-bound fig10-style aggregate.
//!
//! The workload is `SELECT g, COUNT(*), SUM(v*v) FROM t WHERE v >= k GROUP
//! BY g` over ≥1M rows in 8 partitions (one deliberately skewed), at 8
//! workers:
//!
//! * **row engine** — the seed executor's exact MPP strategy: one thread
//!   per partition (`thread::scope`), per-row `Expr::eval` filtering, and
//!   partial `AggTable`s keyed by per-row `Key::encode` allocations.
//! * **vectorized** — `MppExecutor` on a persistent pool: morsel-driven
//!   scheduling with work stealing, typed filter loops over columnar
//!   lanes, numeric vector evaluation of `v*v`, and hashed group slots
//!   with collision verification (no key allocation, no `Value` clones).
//!
//! Results (before/after and speedup) are written to `BENCH_exec.json`
//! and the per-operator metric counters are printed. Then the same query
//! and a join of a 16-row dimension with `t` run on one worker, and the
//! wall nanoseconds per input row of the aggregate, the join build, the
//! join probe and the row-partition scan are printed and written beside
//! them (`ns_per_row`).
//!
//! Run: `cargo run --release -p polardbx-bench --bin exec_bench [--quick]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use polardbx_bench::{fmt_dur, quick};
use polardbx_common::{Result, Row, Value};
use polardbx_executor::operators::{apply_filter, AggTable, MemTables};
use polardbx_executor::{exec_metrics, ExecCtx, MppExecutor, TableProvider, WorkloadManager};
use polardbx_sql::expr::{AggFunc, BinOp, Expr};
use polardbx_sql::plan::{AggSpec, LogicalPlan};

const PARTITIONS: usize = 8;
const WORKERS: usize = 8;

fn build_provider(rows_per_part: usize) -> (Arc<dyn TableProvider>, usize) {
    // One skewed partition (3× the rows) so work stealing matters.
    let mut total = 0usize;
    let mut parts = Vec::with_capacity(PARTITIONS);
    for p in 0..PARTITIONS {
        let n = if p == 0 { rows_per_part * 3 } else { rows_per_part };
        let base = (p * rows_per_part * 3) as i64;
        parts.push(
            (0..n as i64)
                .map(|i| {
                    let id = base + i;
                    Row::new(vec![
                        Value::Int(id),
                        Value::Int(id % 16),
                        Value::Int((id * 37) % 1000),
                    ])
                })
                .collect::<Vec<Row>>(),
        );
        total += n;
    }
    let mut mem = MemTables::new();
    mem.add("t", parts);
    // The join's build side: one row per group, with a name.
    let dim = (0..16).map(|g| Row::new(vec![Value::Int(g), Value::str(format!("g{g}"))]));
    mem.add("d", vec![dim.collect()]);
    (Arc::new(mem), total)
}

/// `SELECT d.name, COUNT(*), SUM(t.v) FROM d JOIN t ON d.g = t.g WHERE
/// t.v >= 500 GROUP BY d.name`: a build of 16 rows and a probe of every
/// selected `t` row.
fn join_plan() -> LogicalPlan {
    let scan = |table: &str, cols: &[&str]| LogicalPlan::Scan {
        table: table.into(),
        schema: cols.iter().map(|c| format!("{table}.{c}")).collect(),
    };
    let join = LogicalPlan::Join {
        left: Box::new(scan("d", &["g", "name"])),
        right: Box::new(LogicalPlan::Filter {
            input: Box::new(scan("t", &["id", "g", "v"])),
            predicate: Expr::binary(BinOp::Ge, Expr::ColumnIdx(2), Expr::int(500)),
        }),
        on: vec![(0, 1)],
        filter: None,
    };
    LogicalPlan::Aggregate {
        input: Box::new(join),
        group_by: vec![Expr::ColumnIdx(1)],
        aggs: vec![
            AggSpec { func: AggFunc::Count, arg: None, distinct: false },
            AggSpec { func: AggFunc::Sum, arg: Some(Expr::ColumnIdx(4)), distinct: false },
        ],
        names: vec!["name".into(), "c".into(), "s".into()],
    }
}

/// Wall nanoseconds per input row of each vectorized operator since the
/// counters were last reset: (aggregate, join build, join probe,
/// row-partition scan).
fn ns_per_row() -> [f64; 4] {
    let m = exec_metrics();
    let per = |ns: u64, rows: u64| if rows == 0 { 0.0 } else { ns as f64 / rows as f64 };
    [
        per(m.aggregate.nanos.get(), m.aggregate.rows.get()),
        per(m.build_nanos.get(), m.build_rows.get()),
        per(m.join.nanos.get() - m.build_nanos.get(), m.probe_rows.get()),
        per(m.scan.nanos.get(), m.scan.rows.get()),
    ]
}

fn plan() -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                schema: vec!["t.id".into(), "t.g".into(), "t.v".into()],
            }),
            predicate: Expr::binary(BinOp::Ge, Expr::ColumnIdx(2), Expr::int(100)),
        }),
        group_by: vec![Expr::ColumnIdx(1)],
        aggs: vec![
            AggSpec { func: AggFunc::Count, arg: None, distinct: false },
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::ColumnIdx(2))),
                distinct: false,
            },
        ],
        names: vec!["g".into(), "c".into(), "s".into()],
    }
}

/// The seed executor's MPP aggregate, verbatim strategy: one scoped thread
/// per partition, row-at-a-time filter, partial `AggTable`s merged at the
/// coordinator.
fn seed_row_engine(
    provider: &Arc<dyn TableProvider>,
    plan: &LogicalPlan,
) -> Result<Vec<Row>> {
    let LogicalPlan::Aggregate { input, group_by, aggs, .. } = plan else { unreachable!() };
    let LogicalPlan::Filter { predicate, .. } = input.as_ref() else { unreachable!() };
    let nparts = provider.partitions("t");
    let queue =
        parking_lot::Mutex::new((0..nparts).collect::<Vec<usize>>());
    let partials = parking_lot::Mutex::new(Vec::<AggTable>::new());
    let err = parking_lot::Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..WORKERS.min(nparts) {
            s.spawn(|| loop {
                let Some(part) = queue.lock().pop() else { break };
                let work = || -> Result<AggTable> {
                    let ctx = ExecCtx::unrestricted();
                    let rows = provider.scan_partition("t", part)?;
                    let rows = apply_filter(rows, predicate, &ctx)?;
                    let mut t = AggTable::new(group_by.clone(), aggs.clone());
                    t.update_batch(&rows, &ctx)?;
                    Ok(t)
                };
                match work() {
                    Ok(t) => partials.lock().push(t),
                    Err(e) => {
                        *err.lock() = Some(e);
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = err.into_inner() {
        return Err(e);
    }
    let mut merged = AggTable::new(group_by.clone(), aggs.clone());
    for p in partials.into_inner() {
        merged.merge(p);
    }
    merged.finish()
}


fn main() {
    let rows_per_part = if quick() { 20_000 } else { 105_000 };
    let reps = if quick() { 3 } else { 5 };
    let (provider, total) = build_provider(rows_per_part);
    let plan = plan();

    println!("# exec_bench — row engine vs vectorized, {total} rows, {WORKERS} workers");
    println!();

    let check = |rows: &[Row]| {
        let mut rows = rows.to_vec();
        rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()));
        rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>().join("\n")
    };

    // Before: the seed row engine at 8 workers. After: the morsel-driven
    // vectorized engine at 8 workers on a persistent pool. Reps are
    // interleaved (row, vectorized, row, …) so transient host noise lands
    // on both engines rather than skewing one measurement block; best-of
    // is taken per engine.
    let pool = WorkloadManager::new(WORKERS, 1.0, 1.0);
    let mpp = MppExecutor::with_pool(WORKERS, pool);
    let ctx = ExecCtx::unrestricted();
    // Warm-up both engines, then reset the counters so the report reflects
    // the measured reps only.
    let mut row_result = check(&seed_row_engine(&provider, &plan).unwrap());
    let mut vec_result = check(&mpp.execute(&plan, &provider, &ctx).unwrap());
    exec_metrics().reset();
    let mut t_row = Duration::MAX;
    let mut t_vec = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = seed_row_engine(&provider, &plan).unwrap();
        t_row = t_row.min(t0.elapsed());
        row_result = check(&out);

        let t0 = Instant::now();
        let out = mpp.execute(&plan, &provider, &ctx).unwrap();
        t_vec = t_vec.min(t0.elapsed());
        vec_result = check(&out);
    }

    assert_eq!(row_result, vec_result, "engines disagree");

    let speedup = t_row.as_secs_f64() / t_vec.as_secs_f64();
    println!("  row engine (seed, {WORKERS} workers):  {}", fmt_dur(t_row));
    println!("  vectorized (morsel, {WORKERS} workers): {}", fmt_dur(t_vec));
    println!("  speedup: {speedup:.2}x");
    println!();
    print!("{}", exec_metrics().report());

    // Per-row costs on one worker — with more workers than cores, an
    // operator's wall time would count the others' time slices: the
    // aggregate query and a join query, each operator's time over its own
    // input rows.
    let serial = MppExecutor::with_pool(1, WorkloadManager::new(1, 1.0, 1.0));
    let join = join_plan();
    for plan in [&plan, &join] {
        serial.execute(plan, &provider, &ctx).unwrap();
    }
    exec_metrics().reset();
    for _ in 0..reps {
        for plan in [&plan, &join] {
            serial.execute(plan, &provider, &ctx).unwrap();
        }
    }
    let [agg, build, probe, scan] = ns_per_row();
    println!();
    println!(
        "  ns per input row, 1 worker: aggregate {agg:.1}, join build {build:.1}, join probe {probe:.1}, \
         row-partition scan {scan:.1}"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"exec_bench\",\n  \"rows\": {total},\n  \"workers\": {WORKERS},\n  \"partitions\": {PARTITIONS},\n  \"query\": \"SELECT g, COUNT(*), SUM(v*v) FROM t WHERE v >= 100 GROUP BY g\",\n  \"before_row_engine_ms\": {:.3},\n  \"after_vectorized_ms\": {:.3},\n  \"speedup\": {:.3},\n  \"ns_per_row\": {{\"aggregate\": {agg:.1}, \"join_build\": {build:.1}, \"join_probe\": {probe:.1}, \"row_partition_scan\": {scan:.1}}}\n}}\n",
        t_row.as_secs_f64() * 1e3,
        t_vec.as_secs_f64() * 1e3,
        speedup,
    );
    std::fs::write("BENCH_exec.json", &json).unwrap();
    println!();
    println!("  wrote BENCH_exec.json");

    if speedup < 2.0 {
        println!("  WARNING: speedup below the 2x acceptance bar");
        // The full-size run enforces the bar; the downsized CI smoke run
        // only reports (shared runners are too noisy to gate on).
        if !quick() {
            std::process::exit(1);
        }
    }
}
