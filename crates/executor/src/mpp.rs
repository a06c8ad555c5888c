//! MPP execution: fragment the plan, fan out, exchange, merge (§VI-C).
//!
//! "The plan is split into multiple fragments … Task Scheduler encapsulates
//! each fragment as a Task, and then schedules all tasks to appropriate CN
//! nodes for execution. … Each executed task exchanges necessary data with
//! others. When all tasks complete, partial results are sent back to Query
//! Coordinator, who assembles the final result."
//!
//! [`MppExecutor::execute`] is the AP engine, and the only interpreter of
//! a plan on this side of the house. Every `Filter*/Project*`-over-`Scan`
//! leaf is a [`ScanSource`] — the column-index snapshot when the provider
//! attaches one, the row partitions otherwise — drained morsel by morsel
//! on a persistent worker pool (the `WorkloadManager` AP pool) by
//! [`morsel_execute`]. A join on the way up from the leaf is a stage of
//! the same pipeline: its build side runs first, into lanes, and each
//! morsel worker probes it and runs the residual filter and the stages
//! above it batch by batch. What consumes the pipeline's batches is the
//! fragment's [`MorselWork`]: collect them, or fold them into a partial
//! aggregate. Pipeline breakers keep per-worker state merged once at the
//! barrier; per-batch operator work is the operator library of
//! [`crate::vectorized`]. Every operator gives batches, so rows are built
//! once, at the root.

use std::collections::HashMap;
use std::sync::Arc;

use polardbx_common::time::Timer;
use polardbx_common::{Result, Row};
use polardbx_sql::expr::Expr;
use polardbx_sql::plan::{AggSpec, LogicalPlan};

use crate::batch::RowBatch;
use crate::exec_metrics::exec_metrics;
use crate::morsel::{morsel_execute, shared_pool, MorselWork, ScanSource};
use crate::operators::{ExecCtx, TableProvider};
use crate::scheduler::{JobClass, WorkloadManager};
use crate::vectorized::{
    conjuncts, limit_batches, pipeline_stages, run_stages, sort_batches, JoinBuild, StageOp,
    VecAggTable,
};

/// The MPP engine: a degree of parallelism (worker tasks ≈ CN nodes ×
/// cores) on a persistent worker pool.
pub struct MppExecutor {
    /// Maximum concurrent tasks per query.
    pub workers: usize,
    pool: Arc<WorkloadManager>,
}

/// Per-worker state of a fragment: its partial result plus a forked
/// execution context (same governor/deadline as the query, own row
/// counter), which every batch ticks.
struct Local<T> {
    out: T,
    ctx: ExecCtx,
}

/// The fused stages every fragment runs over a batch before consuming it.
struct Pipeline {
    stages: Vec<StageOp>,
    ctx: ExecCtx,
}

impl Pipeline {
    fn local<T>(&self, out: T) -> Local<T> {
        Local { out, ctx: self.ctx.fork() }
    }

    fn run<T>(&self, batch: RowBatch, local: &Local<T>) -> Result<RowBatch> {
        run_stages(batch, &self.stages, &local.ctx)
    }
}

/// Fragment that keeps the pipeline's output batches.
struct Collect(Pipeline);

impl MorselWork<Local<Vec<RowBatch>>> for Collect {
    fn new_local(&self) -> Local<Vec<RowBatch>> {
        self.0.local(Vec::new())
    }
    fn process(&self, batch: RowBatch, local: &mut Local<Vec<RowBatch>>) -> Result<()> {
        let batch = self.0.run(batch, local)?;
        local.ctx.tick(batch.num_rows() as u64)?;
        if batch.num_rows() > 0 {
            local.out.push(batch);
        }
        Ok(())
    }
}

/// Fragment for two-phase aggregation: per-worker partial [`VecAggTable`]s
/// folded batch by batch, merged at the coordinator.
struct PartialAgg {
    pipeline: Pipeline,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
}

impl MorselWork<Local<VecAggTable>> for PartialAgg {
    fn new_local(&self) -> Local<VecAggTable> {
        self.pipeline.local(VecAggTable::new(self.group_by.clone(), self.aggs.clone()))
    }
    fn process(&self, batch: RowBatch, local: &mut Local<VecAggTable>) -> Result<()> {
        let batch = self.pipeline.run(batch, local)?;
        // Tick first: a pacing sleep is not aggregation time.
        local.ctx.tick(batch.num_rows() as u64)?;
        let t0 = Timer::start();
        local.out.update_batch(&batch)?;
        exec_metrics().aggregate.record(batch.num_rows() as u64, 0, t0);
        Ok(())
    }
}

/// The columns of each scan that the plan above it reads: what a scan
/// leaf of a row partition builds lanes for. Worked out once per query,
/// top down from the root, whose every column is read.
struct Reads(HashMap<*const LogicalPlan, Vec<bool>>);

impl Reads {
    fn of_plan(plan: &LogicalPlan) -> Reads {
        let mut reads = Reads(HashMap::new());
        reads.walk(plan, vec![true; width(plan)]);
        reads
    }

    /// The columns of `plan`, a scan, read above it; all of them for a
    /// scan the walk did not reach.
    fn of(&self, plan: &LogicalPlan) -> Vec<bool> {
        self.0.get(&(plan as *const _)).cloned().unwrap_or_else(|| vec![true; width(plan)])
    }

    /// `plan`'s output columns `need` are read: mark what its inputs must
    /// give.
    fn walk(&mut self, plan: &LogicalPlan, mut need: Vec<bool>) {
        match plan {
            LogicalPlan::Scan { .. } => {
                self.0.insert(plan as *const _, need);
            }
            LogicalPlan::Filter { input, predicate } => {
                mark(predicate, &mut need);
                self.walk(input, need);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                // A computed expression is evaluated whether or not
                // anything above reads it; a plain column is passed on
                // without reading it.
                let mut under = vec![false; width(input)];
                for (e, &n) in exprs.iter().zip(&need) {
                    if n || !matches!(e, Expr::ColumnIdx(_)) {
                        mark(e, &mut under);
                    }
                }
                self.walk(input, under);
            }
            LogicalPlan::Join { left, right, on, filter } => {
                // The residual filter reads the joined lanes; the keys
                // are read from the inputs.
                if let Some(f) = filter {
                    mark(f, &mut need);
                }
                let width = width(left);
                for &(l, r) in on {
                    match (need.get(l).is_some(), need.get(width + r).is_some()) {
                        (true, true) => (need[l], need[width + r]) = (true, true),
                        _ => need.fill(true),
                    }
                }
                let right_need = need.split_off(width);
                self.walk(left, need);
                self.walk(right, right_need);
            }
            LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
                let mut under = vec![false; width(input)];
                for e in group_by.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())) {
                    mark(e, &mut under);
                }
                self.walk(input, under);
            }
            LogicalPlan::Sort { input, keys } => {
                for (e, _) in keys {
                    mark(e, &mut need);
                }
                self.walk(input, need);
            }
            LogicalPlan::Limit { input, .. } => self.walk(input, need),
        }
    }
}

/// The number of columns `plan` outputs.
fn width(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::Scan { schema, .. } => schema.len(),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => width(input),
        LogicalPlan::Project { exprs, .. } => exprs.len(),
        LogicalPlan::Join { left, right, .. } => width(left) + width(right),
        LogicalPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
    }
}

/// Mark the columns `e` reads in `need`; every column when it names one
/// by name or out of range.
fn mark(e: &Expr, need: &mut [bool]) {
    let mut all = false;
    e.visit(&mut |e| match e {
        Expr::ColumnIdx(c) if *c < need.len() => need[*c] = true,
        Expr::ColumnIdx(_) | Expr::Column(_) => all = true,
        _ => {}
    });
    if all {
        need.fill(true);
    }
}

impl MppExecutor {
    /// An engine with `workers` parallel tasks on the process-wide shared
    /// pool.
    pub fn new(workers: usize) -> MppExecutor {
        MppExecutor::with_pool(workers, shared_pool())
    }

    /// An engine borrowing workers from a specific `WorkloadManager` (the
    /// cluster CN's pool), so queries compete under its governors instead
    /// of oversubscribing the host.
    pub fn with_pool(workers: usize, pool: Arc<WorkloadManager>) -> MppExecutor {
        MppExecutor { workers: workers.max(1), pool }
    }

    /// Execute `plan` with MPP parallelism where fragments allow it. The
    /// answer's rows are the only rows built.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
    ) -> Result<Vec<Row>> {
        let batches = self.batches(plan, provider, ctx, &Reads::of_plan(plan))?;
        let t0 = Timer::start();
        let rows: Vec<Row> = batches.iter().flat_map(RowBatch::to_rows).collect();
        exec_metrics().setup.record(rows.len() as u64, 0, t0);
        Ok(rows)
    }

    /// `plan`'s output as batches.
    fn batches(
        &self,
        plan: &LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
        reads: &Reads,
    ) -> Result<Vec<RowBatch>> {
        match plan {
            LogicalPlan::Limit { input, n } => {
                Ok(limit_batches(self.batches(input, provider, ctx, reads)?, *n))
            }
            LogicalPlan::Sort { input, keys } => {
                let input = self.batches(input, provider, ctx, reads)?;
                ctx.tick(input.iter().map(|b| b.num_rows() as u64).sum())?;
                let t0 = Timer::start();
                let sorted = sort_batches(&input, keys)?;
                let rows = sorted.as_ref().map_or(0, RowBatch::num_rows);
                exec_metrics().sort.record(rows as u64, 0, t0);
                Ok(sorted.into_iter().collect())
            }
            LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
                // Partial aggregation per worker, merged at the coordinator
                // — the classic two-phase MPP aggregate.
                let locals = self.drive(input, provider, ctx, reads, |pipeline| PartialAgg {
                    pipeline,
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                })?;
                let t0 = Timer::start();
                let mut partials = locals.into_iter().map(|l| l.out);
                let mut merged = partials.next().expect("the caller's own partial");
                for partial in partials {
                    merged.merge(partial);
                }
                let out = merged.finish();
                exec_metrics().setup.record(0, 0, t0);
                Ok(vec![out])
            }
            LogicalPlan::Project { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Scan { .. }
            | LogicalPlan::Join { .. } => {
                let locals = self.drive(plan, provider, ctx, reads, Collect)?;
                Ok(locals.into_iter().flat_map(|l| l.out).collect())
            }
        }
    }

    /// The leaf `plan`'s batches come from, and the stages each batch runs
    /// on its way up: the `Filter*/Project*` nodes, and through each join
    /// its probe and residual filter. A join's build side (left) runs here,
    /// before any batch flows; its probe side (right) is the pipeline the
    /// join continues.
    fn pipeline<'p>(
        &self,
        plan: &'p LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
        reads: &Reads,
    ) -> Result<(&'p LogicalPlan, Vec<StageOp>)> {
        let (base, above) = pipeline_stages(plan);
        let LogicalPlan::Join { left, right, on, filter } = base else {
            return Ok((base, above));
        };
        let build = self.batches(left, provider, ctx, reads)?;
        ctx.tick(build.iter().map(|b| b.num_rows() as u64).sum())?;
        let t0 = Timer::start();
        let keys = on.iter().map(|&(l, _)| l).collect();
        let build = JoinBuild::build(&build, width(left), keys)?;
        let m = exec_metrics();
        m.build_rows.add(build.len() as u64);
        m.build_nanos.add(t0.elapsed().as_nanos() as u64);
        m.join.record(build.len() as u64, 0, t0);
        let (leaf, mut stages) = self.pipeline(right, provider, ctx, reads)?;
        stages.push(StageOp::Probe(build, on.iter().map(|&(_, r)| r).collect()));
        if let Some(filter) = filter {
            stages.push(StageOp::Filter(conjuncts(filter)));
        }
        stages.extend(above);
        Ok((leaf, stages))
    }

    /// Feed every batch of `plan`'s output to the fragment `fragment`
    /// builds around the plan's pipeline. Over a `Scan` leaf the fragment
    /// drains the table's [`ScanSource`] morsel by morsel, on as many
    /// workers as the source has morsels for; over a pipeline breaker, that
    /// runs first and its batches are fed through on the calling thread.
    fn drive<W, T>(
        &self,
        plan: &LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
        reads: &Reads,
        fragment: impl FnOnce(Pipeline) -> T,
    ) -> Result<Vec<W>>
    where
        W: Send + 'static,
        T: MorselWork<W> + 'static,
    {
        let (leaf, stages) = self.pipeline(plan, provider, ctx, reads)?;
        let work = fragment(Pipeline { stages, ctx: ctx.fork() });
        if let LogicalPlan::Scan { table, .. } = leaf {
            let source = ScanSource::open(provider, table, reads.of(leaf), self.workers);
            return morsel_execute(&self.pool, JobClass::Ap, self.workers, source, Arc::new(work));
        }
        let mut local = work.new_local();
        for batch in self.batches(leaf, provider, ctx, reads)? {
            work.process(batch, &mut local)?;
        }
        Ok(vec![local])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{execute_plan, MemTables};
    use polardbx_common::{Error, Value};
    use polardbx_sql::expr::{AggFunc, BinOp, Expr};
    use polardbx_sql::plan::AggSpec;
    use std::time::Instant;

    fn provider(partitions: usize, rows_per_part: i64) -> Arc<dyn TableProvider> {
        let mut p = MemTables::new();
        let parts: Vec<Vec<Row>> = (0..partitions as i64)
            .map(|pt| {
                (0..rows_per_part)
                    .map(|i| {
                        let id = pt * rows_per_part + i;
                        Row::new(vec![Value::Int(id), Value::Int(id % 5), Value::Int(id * 3)])
                    })
                    .collect()
            })
            .collect();
        p.add("t", parts);
        Arc::new(p)
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: vec!["t.id".into(), "t.grp".into(), "t.v".into()],
        }
    }

    #[test]
    fn parallel_scan_collects_all_partitions() {
        let p = provider(4, 100);
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 400);
    }

    #[test]
    fn mpp_aggregate_equals_serial() {
        let p = provider(4, 250);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::binary(BinOp::Ge, Expr::ColumnIdx(0), Expr::int(100)),
            }),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![
                AggSpec { func: AggFunc::Count, arg: None, distinct: false },
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::ColumnIdx(2)), distinct: false },
                AggSpec { func: AggFunc::Min, arg: Some(Expr::ColumnIdx(0)), distinct: false },
            ],
            names: vec!["grp".into(), "c".into(), "s".into(), "m".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &p, &ctx).unwrap();
        let mut serial = execute_plan(&plan, p.as_ref(), &ctx).unwrap();
        let sort = |rows: &mut Vec<Row>| {
            rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()))
        };
        sort(&mut parallel);
        sort(&mut serial);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn mpp_join_equals_serial() {
        let p = provider(4, 100);
        let mut small = MemTables::new();
        small.add(
            "dim",
            vec![(0..5i64)
                .map(|g| Row::new(vec![Value::Int(g), Value::str(format!("g{g}"))]))
                .collect()],
        );
        // Combined provider.
        struct Both(MemTables, Arc<dyn TableProvider>);
        impl TableProvider for Both {
            fn partitions(&self, t: &str) -> usize {
                if t == "dim" {
                    self.0.partitions(t)
                } else {
                    self.1.partitions(t)
                }
            }
            fn scan_partition(&self, t: &str, p: usize) -> Result<Vec<Row>> {
                if t == "dim" {
                    self.0.scan_partition(t, p)
                } else {
                    self.1.scan_partition(t, p)
                }
            }
        }
        let both: Arc<dyn TableProvider> = Arc::new(Both(small, p));
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "dim".into(),
                schema: vec!["dim.g".into(), "dim.name".into()],
            }),
            right: Box::new(scan()),
            on: vec![(0, 1)],
            filter: None,
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &both, &ctx).unwrap();
        let mut serial = execute_plan(&plan, both.as_ref(), &ctx).unwrap();
        assert_eq!(parallel.len(), 400, "every row matches one dim group");
        let key = |r: &Row| format!("{r:?}");
        parallel.sort_by_key(key);
        serial.sort_by_key(key);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn mpp_speedup_on_cpu_bound_aggregate() {
        // A CPU-heavy aggregate over many partitions should run measurably
        // faster with 4 workers than with 1 (shape check, generous margin).
        let p = provider(8, 30_000);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::binary(
                    BinOp::Ge,
                    Expr::binary(
                        BinOp::Mod,
                        Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::int(37)),
                        Expr::int(97),
                    ),
                    Expr::int(1),
                ),
            }),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::ColumnIdx(2))),
                distinct: false,
            }],
            names: vec!["g".into(), "s".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let time = |w: usize| {
            let mpp = MppExecutor::new(w);
            let t0 = Instant::now();
            let out = mpp.execute(&plan, &p, &ctx).unwrap();
            assert_eq!(out.len(), 5);
            t0.elapsed()
        };
        // Warm up, then measure. Absolute speedups are benchmarked in the
        // exec_bench/fig10 harnesses under controlled conditions; under
        // `cargo test`'s concurrent test threads we only sanity-check that
        // the parallel path is not catastrophically slower.
        let _ = time(1);
        let serial = time(1);
        let parallel = time(4);
        assert!(
            parallel < serial * 2,
            "MPP path pathologically slow: serial={serial:?} parallel={parallel:?}"
        );
    }

    #[test]
    fn single_partition_is_scanned_whole() {
        let p = provider(1, 50);
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn errors_propagate_from_workers() {
        struct Failing;
        impl TableProvider for Failing {
            fn partitions(&self, _t: &str) -> usize {
                4
            }
            fn scan_partition(&self, _t: &str, p: usize) -> Result<Vec<Row>> {
                if p == 2 {
                    Err(Error::execution("partition 2 broke"))
                } else {
                    Ok(vec![])
                }
            }
        }
        let p: Arc<dyn TableProvider> = Arc::new(Failing);
        let mpp = MppExecutor::new(4);
        let err = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap_err();
        assert!(matches!(err, Error::Execution { .. }));
    }

    #[test]
    fn limit_and_sort_over_mpp() {
        let p = provider(4, 100);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![(Expr::ColumnIdx(0), true)],
            }),
            n: 3,
        };
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&plan, &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(399));
    }

    #[test]
    fn project_over_aggregate_over_partitions() {
        // A stage over a pipeline breaker runs on the breaker's rows.
        let p = provider(4, 100);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan()),
                group_by: vec![Expr::ColumnIdx(1)],
                aggs: vec![AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Expr::ColumnIdx(2)),
                    distinct: false,
                }],
                names: vec!["g".into(), "s".into()],
            }),
            exprs: vec![Expr::binary(BinOp::Add, Expr::ColumnIdx(1), Expr::int(1))],
            names: vec!["s1".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &p, &ctx).unwrap();
        let mut serial = execute_plan(&plan, p.as_ref(), &ctx).unwrap();
        let key = |r: &Row| format!("{r:?}");
        parallel.sort_by_key(key);
        serial.sort_by_key(key);
        assert_eq!(parallel, serial);
    }

    /// An aggregate over a join of two column-index scans, each more than
    /// a morsel, run as a job on a one-thread pool: the morsel helpers it
    /// submits can start only once the job has returned. By then the
    /// snapshot's columns — shared with the index, and with the join's
    /// build lanes — must be free again, or the index's next write copies
    /// every column.
    #[test]
    fn a_query_on_a_one_thread_pool_releases_the_snapshot_at_its_answer() {
        use polardbx_columnar::{ColumnIndex, ColumnSnapshot};
        use polardbx_common::{DataType, Key, TrxId};

        struct Indexed(Arc<ColumnIndex>);
        impl TableProvider for Indexed {
            fn partitions(&self, _t: &str) -> usize {
                1
            }
            fn scan_partition(&self, _t: &str, _p: usize) -> Result<Vec<Row>> {
                Err(Error::execution("the snapshot is the source"))
            }
            fn columnar(&self, _t: &str) -> Option<ColumnSnapshot> {
                Some(self.0.snapshot(u64::MAX))
            }
        }
        let index = ColumnIndex::new(vec![DataType::Int, DataType::Int]);
        let n = crate::morsel::MORSEL_ROWS as i64 + 1_000;
        for id in 0..n {
            let row = Row::new(vec![Value::Int(id), Value::Int(id % 5)]);
            index.apply_put(TrxId(1), 1, Key::encode(&[Value::Int(id)]), &row).unwrap();
        }
        let provider: Arc<dyn TableProvider> = Arc::new(Indexed(Arc::clone(&index)));
        let side = || {
            let schema = vec!["t.id".into(), "t.grp".into()];
            Box::new(LogicalPlan::Scan { table: "t".into(), schema })
        };
        let join = LogicalPlan::Join { left: side(), right: side(), on: vec![(0, 0)], filter: None };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![AggSpec { func: AggFunc::Count, arg: None, distinct: false }],
            names: vec!["grp".into(), "c".into()],
        };
        let pool = WorkloadManager::new(1, 1.0, 1.0);
        let mpp = MppExecutor::with_pool(4, Arc::clone(&pool));
        // Counted at the end of the job, while its helpers wait behind it.
        let (groups, holders) = pool.run(JobClass::Ap, move || {
            let rows = mpp.execute(&plan, &provider, &ExecCtx::unrestricted()).unwrap();
            let held = index.snapshot(u64::MAX);
            (rows.len(), held.columns.iter().map(Arc::strong_count).collect::<Vec<_>>())
        });
        assert_eq!(groups, 5, "one group per grp");
        assert_eq!(holders, [2, 2], "each column held by the index and the job's own snapshot");
    }

    #[test]
    fn concurrent_queries_share_the_pool() {
        // Many queries in flight at once must all complete correctly while
        // drawing from the same persistent pool (no per-query spawns).
        let p = provider(4, 500);
        let mpp = Arc::new(MppExecutor::new(4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mpp = Arc::clone(&mpp);
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let rows =
                        mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
                    assert_eq!(rows.len(), 2000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
