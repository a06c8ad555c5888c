//! The traced run: where an op's time goes, layer by layer.
//!
//! No code outside `benchmark/` records anything, so the layers are peeled
//! from here, one level at a time. Each op of the traced slice is sent
//! over the wire (`front.wire`), then run again in-process through
//! `Session` (`sql.parse`, `core.session`), then once more as the calls
//! `Session` makes (`sql.plan`, `optimizer.*`, `executor.exec`, or for
//! writes `core.route`, `txn.*`), and last the engine calls under those
//! (`storage.*`: scans on the DNs' own engines, write and commit on a
//! stand-alone engine, because they would change the DNs'). A span names the span one level up
//! as its parent; a span's self time is its duration minus its children's,
//! and a layer's self time in an op is the sum over the layer's spans.
//!
//! The replays are real executions: a replayed write commits. Inserted
//! keys of replay level `n` are moved by `n` twin offsets, and the answer
//! checker follows every level.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx::gms::shard_table_id;
use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_common::time::Timer;
use polardbx_common::{DataType, Error, Result, Row, Value};
use polardbx_executor::scheduler::TickState;
use polardbx_executor::{
    exec_metrics, execute_plan, ExecCtx, JobClass, MppExecutor, TableProvider,
};
use polardbx_optimizer::{classify_with_threshold, estimate, optimize_with_stats, WorkloadClass};
use polardbx_simnet::LatencyMatrix;
use polardbx_sql::ast::{Insert, Select, Statement, Update};
use polardbx_sql::{build_plan, parse};
use polardbx_txn::WireWriteOp;

use crate::driver::{wire_op, wire_stmt, Env, Reply};
use crate::gen::{Generator, Op, Spec, Stmt};
use crate::layers::{self, Metrics, Standalone};
use crate::stats;
use crate::timed::Runner;
use polardbx_front::FrontClient;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id, unique in the run.
    pub id: u32,
    /// Id of the span one level up; 0 for a `front.wire` root.
    pub parent: u32,
    /// Index of the op in the traced slice; shared by the op's spans.
    pub op: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds from the start of the traced pass.
    pub start_ns: u64,
    /// Nanoseconds from the start of the traced pass.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one run, kept in memory until the run ends.
pub struct Tracer {
    origin: Timer,
    /// Every span recorded so far, in order of completion.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Timer::start(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span; returns the span's id and `f`'s result.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        (id, out)
    }

    /// One JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layers of the budget table, outermost first.
pub const LAYERS: [&str; 7] = [
    "front",
    "sql",
    "optimizer",
    "core",
    "executor",
    "txn",
    "storage",
];

/// Where the p50 op of one class (read or write) spends its time.
pub struct Budget {
    /// Ops of the class in the traced slice.
    pub ops: usize,
    /// p50 of the class's wire round trips in the traced pass, µs.
    pub end_to_end_us: f64,
    /// p50 self time per layer of [`LAYERS`], µs. Levels are separate
    /// executions, so a self time can come out negative.
    pub layer_us: [f64; LAYERS.len()],
    /// `end_to_end_us` minus the layers: medians do not add up exactly.
    pub unattributed_us: f64,
}

fn p50_signed(values: &mut [i64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2] as f64
}

fn budget(spans: &[Span], class: &[bool], want_read: bool) -> Budget {
    let ops = class.len();
    let mut children = vec![0u64; spans.len() + 1];
    for s in spans {
        children[s.parent as usize] += s.ns();
    }
    let mut self_ns = vec![[0i64; LAYERS.len()]; ops];
    let mut wire_ns = vec![0u64; ops];
    for s in spans {
        let layer = LAYERS
            .iter()
            .position(|l| *l == s.layer())
            .expect("span of a known layer");
        self_ns[s.op as usize][layer] += s.ns() as i64 - children[s.id as usize] as i64;
        if s.parent == 0 {
            wire_ns[s.op as usize] = s.ns();
        }
    }
    let of_class: Vec<usize> = (0..ops).filter(|&i| class[i] == want_read).collect();
    let wire: Vec<u64> = of_class.iter().map(|&i| wire_ns[i]).collect();
    let end_to_end_us = stats::percentile(&stats::sorted(&wire), 0.5) as f64 / 1e3;
    let mut layer_us = [0.0; LAYERS.len()];
    for (l, slot) in layer_us.iter_mut().enumerate() {
        let mut v: Vec<i64> = of_class.iter().map(|&i| self_ns[i][l]).collect();
        *slot = p50_signed(&mut v) / 1e3;
    }
    let unattributed_us = end_to_end_us - layer_us.iter().sum::<f64>();
    Budget {
        ops: of_class.len(),
        end_to_end_us,
        layer_us,
        unattributed_us,
    }
}

/// Counts rows handed to the executor by the row store.
struct CountingProvider<P> {
    inner: P,
    rows: AtomicU64,
}

impl<P: TableProvider> TableProvider for CountingProvider<P> {
    fn partitions(&self, table: &str) -> usize {
        self.inner.partitions(table)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        let rows = self.inner.scan_partition(table, partition)?;
        self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }

    fn columnar(&self, table: &str) -> Option<polardbx_columnar::ColumnSnapshot> {
        self.inner.columnar(table)
    }
}

/// The executor's process-wide operator counters at one instant, or a sum
/// of their growth over several intervals.
#[derive(Default, Clone)]
struct ExecCounters {
    scan_rows: u64,
    scan_ns: u64,
    join_ns: u64,
    agg_ns: u64,
    morsels: u64,
    steals: u64,
}

impl ExecCounters {
    fn now() -> ExecCounters {
        let m = exec_metrics();
        ExecCounters {
            scan_rows: m.scan.rows.get(),
            scan_ns: m.scan.nanos.get(),
            join_ns: m.join.nanos.get(),
            agg_ns: m.aggregate.nanos.get(),
            morsels: m.morsels.get(),
            steals: m.steals.get(),
        }
    }

    fn add_since(&mut self, before: &ExecCounters) {
        let now = ExecCounters::now();
        self.scan_rows += now.scan_rows - before.scan_rows;
        self.scan_ns += now.scan_ns - before.scan_ns;
        self.join_ns += now.join_ns - before.join_ns;
        self.agg_ns += now.agg_ns - before.agg_ns;
        self.morsels += now.morsels - before.morsels;
        self.steals += now.steals - before.steals;
    }
}

/// Counters the per-statement replays add up.
#[derive(Default)]
struct Tally {
    read_stmts: u64,
    ap_stmts: u64,
    prepared_stmts: u64,
    stmts: u64,
    /// Rows the row store handed to the TP executor.
    rows_scanned: u64,
    /// Operator counters of the AP executor, level 2 only.
    exec: ExecCounters,
    ap_wall_ns: u64,
    ap_cpu_s: f64,
}

struct Replay<'a> {
    spec: &'a Spec,
    db: &'a PolarDbx,
    session: Session,
    /// Pre-parsed prepared statements, by slot.
    prepared: Vec<(String, Select)>,
    standalone: &'a mut Standalone,
    tracer: Tracer,
    tally: Tally,
}

fn select_of(sql: &str) -> Result<Select> {
    match parse(sql)? {
        Statement::Select(sel) => Ok(sel),
        _ => Err(Error::invalid(format!("not a SELECT: {sql}"))),
    }
}

impl Replay<'_> {
    /// Level 3 of a scan: `StorageEngine::scan_table` on every shard of
    /// `table`, called on the DNs' own engines (reading changes nothing).
    fn engine_scan(&mut self, table: &str, parent: u32, op: u32) -> Result<()> {
        let db = self.db;
        let schema = db.gms().table(table)?;
        let ts = self.session.coordinator().clock().now().raw();
        let dns = db.dns();
        let (_, out) = self
            .tracer
            .span("storage.scan", parent, op, || -> Result<()> {
                for shard in 0..schema.partition.shard_count() {
                    let home = db.gms().shard_dn(schema.id, shard)?;
                    let dn = dns
                        .iter()
                        .find(|dn| dn.id == home)
                        .expect("shard home is a DN");
                    std::hint::black_box(
                        dn.rw
                            .engine
                            .scan_table(shard_table_id(schema.id, shard), ts)?,
                    );
                }
                Ok(())
            });
        out
    }

    /// Levels 1 to 3 of one read statement. A prepared slot gets no
    /// `sql.parse` span: the server skips that parse too.
    fn read_stmt(&mut self, stmt: &Stmt, wire: u32, op: u32) -> Result<Vec<Row>> {
        let (sql, sel) = match stmt {
            Stmt::Sql(sql) => {
                let (_, sel) = self.tracer.span("sql.parse", wire, op, || select_of(sql));
                (sql.clone(), sel?)
            }
            Stmt::Prepared(slot) => {
                self.tally.prepared_stmts += 1;
                self.prepared[*slot].clone()
            }
        };
        self.tally.stmts += 1;
        self.tally.read_stmts += 1;
        let session = &self.session;
        let (level1, answer) = self.tracer.span("core.session", wire, op, || {
            session.query_statement(&sql, &sel)
        });
        let (rows, _) = answer?;

        let db = self.db;
        let gms = db.gms();
        let (_, plan) = self
            .tracer
            .span("sql.plan", level1, op, || build_plan(&sel, gms.as_ref()));
        let plan = plan?;
        let (_, plan) = self.tracer.span("optimizer.rewrite", level1, op, || {
            optimize_with_stats(plan, &gms.statistics())
        });
        let threshold = self.spec.cluster().ap_threshold;
        let (_, class) = self.tracer.span("optimizer.classify", level1, op, || {
            let stats = gms.statistics();
            std::hint::black_box(estimate(&plan, &stats));
            classify_with_threshold(&plan, &stats, threshold)
        });
        if class == WorkloadClass::Ap {
            self.tally.ap_stmts += 1;
            self.tracer.span("core.ro_catchup", level1, op, || {
                for dn in db.dns() {
                    if let Some(ro) = dn.rw.ros().first() {
                        let token = dn.rw.session_token();
                        dn.rw.ship();
                        let _ = ro.wait_for(token, Duration::from_millis(200));
                    }
                }
            });
            let provider: Arc<dyn TableProvider> = Arc::new(db.provider(true));
            let mpp =
                MppExecutor::with_pool(self.spec.cluster().mpp_workers, Arc::clone(db.workload()));
            let before = ExecCounters::now();
            let cpu = layers::process_cpu_s();
            let workload = db.workload();
            let governor = workload.governor_for(JobClass::Ap);
            let (id, out) = self.tracer.span("executor.exec_ap", level1, op, || {
                workload.run(JobClass::Ap, move || {
                    let ctx = ExecCtx::with_ticks(TickState::new(governor, None));
                    mpp.execute(&plan, &provider, &ctx)
                })
            });
            out?;
            self.tally.ap_cpu_s += layers::process_cpu_s() - cpu;
            self.tally.ap_wall_ns += self.tracer.spans[id as usize - 1].ns();
            self.tally.exec.add_since(&before);
        } else {
            let provider = CountingProvider {
                inner: db.provider(false),
                rows: AtomicU64::new(0),
            };
            let (exec, out) = self.tracer.span("executor.exec_tp", level1, op, || {
                execute_plan(&plan, &provider, &ExecCtx::unrestricted())
            });
            out?;
            self.tally.rows_scanned += provider.rows.load(Ordering::Relaxed);
            for table in plan.tables() {
                self.engine_scan(&table, exec, op)?;
            }
        }
        Ok(rows)
    }

    /// Level 1 of a write: parse and run the statement through `Session`.
    fn write_session(&mut self, sql: &str, wire: u32, op: u32) -> Result<(u32, u64)> {
        self.tally.stmts += 1;
        let (_, stmt) = self.tracer.span("sql.parse", wire, op, || parse(sql));
        let stmt = stmt?;
        let session = &self.session;
        let (level1, affected) = self.tracer.span("core.session", wire, op, || {
            session.execute_statement(sql, &stmt)
        });
        Ok((level1, affected?))
    }

    /// Levels 2 and 3 of a write: the calls `Session` makes for it.
    fn write_pieces(&mut self, sql: &str, level1: u32, op: u32) -> Result<u64> {
        match parse(sql)? {
            Statement::Insert(ins) => self.insert_pieces(&ins, level1, op),
            Statement::Update(upd) => self.update_pieces(&upd, level1, op),
            _ => Err(Error::invalid(format!("not an INSERT or UPDATE: {sql}"))),
        }
    }

    fn commit_pieces(
        &mut self,
        table: &str,
        writes: Vec<(polardbx_common::Key, Row, WireWriteOp)>,
        level1: u32,
        op: u32,
    ) -> Result<u64> {
        let db = self.db;
        let schema = db.gms().table(table)?;
        let session = &self.session;
        let (_, routes) = self.tracer.span("core.route", level1, op, || {
            writes
                .iter()
                .map(|(_, row, _)| {
                    let at: Vec<Value> = schema
                        .partition_col_indexes()
                        .iter()
                        .map(|&i| row.values()[i].clone())
                        .collect();
                    session.route_fenced(table, &at)
                })
                .collect::<Result<Vec<_>>>()
        });
        let routes = routes?;
        let (_, mut txn) = self
            .tracer
            .span("txn.begin", level1, op, || session.coordinator().begin());
        let count = writes.len() as u64;
        let sample = writes[0].1.clone();
        let (write, out) = self.tracer.span("txn.write", level1, op, || -> Result<()> {
            for ((key, _, wire_op), (stid, dn, epoch)) in writes.into_iter().zip(routes) {
                txn.pin_epoch(stid, epoch)?;
                txn.write(dn, stid, key, wire_op)?;
            }
            Ok(())
        });
        out?;
        let standalone = &mut *self.standalone;
        self.tracer
            .span("storage.write", write, op, || standalone.write(&sample))
            .1?;
        let (commit, out) = self.tracer.span("txn.commit", level1, op, || txn.commit());
        out?;
        self.tracer
            .span("storage.commit", commit, op, || standalone.commit())
            .1?;
        if db.gms().statistics().get(table).has_column_index {
            self.tracer
                .span("core.colindex_rebuild", level1, op, || {
                    db.enable_column_index(table)
                })
                .1?;
        }
        Ok(count)
    }

    fn insert_pieces(&mut self, ins: &Insert, level1: u32, op: u32) -> Result<u64> {
        let schema = self.db.gms().table(&ins.table)?;
        let columns = ins
            .columns
            .as_ref()
            .ok_or_else(|| Error::invalid("INSERT without column list"))?;
        let mut writes = Vec::new();
        for exprs in &ins.values {
            let mut values = vec![Value::Null; schema.arity()];
            for (expr, column) in exprs.iter().zip(columns) {
                values[schema.column_index(column)?] = expr.eval(&Row::empty())?;
            }
            let row = Row::new(values);
            writes.push((schema.pk_of(&row)?, row.clone(), WireWriteOp::Insert(row)));
        }
        let count = self.commit_pieces(&ins.table, writes, level1, op)?;
        self.db.gms().record_rows(&ins.table, count as i64);
        Ok(count)
    }

    fn update_pieces(&mut self, upd: &Update, level1: u32, op: u32) -> Result<u64> {
        let gms = self.db.gms();
        let schema = gms.table(&upd.table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let predicate = upd
            .predicate
            .as_ref()
            .map(|p| p.resolve(&names))
            .transpose()?;
        let assignments = upd
            .assignments
            .iter()
            .map(|(c, e)| Ok((schema.column_index(c)?, e.resolve(&names)?)))
            .collect::<Result<Vec<_>>>()?;
        let session = &self.session;
        let (_, mut txn) = self
            .tracer
            .span("txn.begin", level1, op, || session.coordinator().begin());
        let (scan, matches) = self
            .tracer
            .span("txn.scan", level1, op, || -> Result<Vec<_>> {
                let mut matches = Vec::new();
                for shard in 0..schema.partition.shard_count() {
                    let (dn, _) = gms.shard_dn_fenced(schema.id, shard)?;
                    for (key, row) in txn.scan(dn, shard_table_id(schema.id, shard), None, None)? {
                        if predicate.as_ref().map_or(Ok(true), |p| p.eval_bool(&row))? {
                            matches.push((key, row));
                        }
                    }
                }
                txn.abort();
                Ok(matches)
            });
        self.engine_scan(&upd.table, scan, op)?;
        let mut writes = Vec::new();
        for (key, old) in matches? {
            let mut new = old.clone();
            for (column, expr) in &assignments {
                new.set(*column, expr.eval(&old)?)?;
            }
            writes.push((key, new.clone(), WireWriteOp::Update(new)));
        }
        self.commit_pieces(&upd.table, writes, level1, op)
    }

    /// Trace one op: `op` over the wire, `twin1` through `Session`,
    /// `twin2` as pieces. Returns the answers of the three levels.
    fn op(
        &mut self,
        client: &mut FrontClient,
        stmt_ids: &[u64],
        op: &Op,
        twins: [&Op; 2],
        id: u32,
    ) -> Result<[Reply; 3]> {
        let (wire, reply) = self
            .tracer
            .span("front.wire", 0, id, || wire_op(client, stmt_ids, op));
        let reply = reply?;
        if op.tag.is_read() {
            let mut level1 = Reply::default();
            for stmt in &op.stmts {
                level1.sets.push(self.read_stmt(stmt, wire, id)?);
            }
            // The pieces of a read change nothing; their answer is level 1's.
            let level2 = Reply {
                sets: level1.sets.clone(),
                affected: 0,
            };
            Ok([reply, level1, level2])
        } else {
            let (Stmt::Sql(sql1), Stmt::Sql(sql2)) = (&twins[0].stmts[0], &twins[1].stmts[0])
            else {
                return Err(Error::invalid("a write op is one SQL statement"));
            };
            let (level1, affected1) = self.write_session(sql1, wire, id)?;
            let affected2 = self.write_pieces(sql2, level1, id)?;
            Ok([
                reply,
                Reply {
                    sets: Vec::new(),
                    affected: affected1,
                },
                Reply {
                    sets: Vec::new(),
                    affected: affected2,
                },
            ])
        }
    }
}

/// What one traced run produced.
pub struct Traced {
    /// Set-up time of this run (a single set-up, printed for reference).
    pub setup_s: f64,
    /// Every per-layer metric, by name.
    pub metrics: Metrics,
    /// Budget of the p50 read op.
    pub read: Budget,
    /// Budget of the p50 write op.
    pub write: Budget,
    /// Spans recorded.
    pub spans: usize,
    /// Where the spans were written.
    pub path: PathBuf,
    /// Digest of the traced slice's op sequence.
    pub digest: u64,
    /// Ops sent over the wire, warm-up and untraced pass included.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

/// Bytes in the DNs' redo logs, once posted commit records have landed
/// (phase two of a 2PC commit is posted, not awaited).
fn log_bytes(db: &PolarDbx) -> u64 {
    let dns = db.dns();
    for _ in 0..200 {
        if dns.iter().all(|dn| !dn.rw.engine.has_active_txns()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    dns.iter()
        .map(|dn| dn.rw.log_sink_bytes().len() as u64)
        .sum()
}

fn p50_of(ns: &[u64]) -> f64 {
    stats::percentile(&stats::sorted(ns), 0.5) as f64
}

fn p50_us(spans: &[Span], name: &str) -> f64 {
    let v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect();
    p50_of(&v) / 1e3
}

/// p50, over the ops of one class, of the op's summed spans that `pick`
/// selects, in µs.
fn p50_per_op_us(
    spans: &[Span],
    class: &[bool],
    want_read: bool,
    pick: impl Fn(&Span) -> bool,
) -> f64 {
    let mut per_op = vec![0u64; class.len()];
    for s in spans.iter().filter(|s| pick(s)) {
        per_op[s.op as usize] += s.ns();
    }
    let v: Vec<u64> = (0..class.len())
        .filter(|&i| class[i] == want_read)
        .map(|i| per_op[i])
        .collect();
    p50_of(&v) / 1e3
}

/// Name, visible column types and rows of the workload's main table.
fn main_table(spec: &Spec, db: &PolarDbx) -> Result<(&'static str, Vec<DataType>, Vec<Row>)> {
    let table = spec.point_table().unwrap_or("lineitem");
    let schema = db.gms().table(table)?;
    let types = schema
        .columns
        .iter()
        .take(schema.visible_arity())
        .map(|c| c.ty)
        .collect();
    let rows = db.provider(false).scan_all(table)?;
    Ok((table, types, rows))
}

/// p50 coordinator time (`txn.*` spans per op) of the traced slice's
/// writes on a twin cluster whose network has no latency, µs.
fn zero_latency_txn_us(spec: &Spec, seed: u64) -> Result<f64> {
    let config = ClusterConfig {
        latency: LatencyMatrix::zero(),
        ..spec.cluster()
    };
    let env = Env::build_on(spec, config)?;
    let (_, _, rows) = main_table(spec, &env.db)?;
    let mut standalone = Standalone::load(&rows)?;
    let mut replay = Replay {
        spec,
        db: &env.db,
        session: env.session(),
        prepared: Vec::new(),
        standalone: &mut standalone,
        tracer: Tracer::new(),
        tally: Tally::default(),
    };
    let mut gen = Generator::new(spec, seed);
    let mut class = Vec::new();
    for round in 0..2 * spec.warmup_rounds {
        for op in gen.next_round() {
            if let (false, true, Stmt::Sql(sql)) =
                (op.tag.is_read(), round >= spec.warmup_rounds, &op.stmts[0])
            {
                replay.write_pieces(sql, 0, class.len() as u32)?;
                class.push(false);
            }
        }
    }
    let us = p50_per_op_us(&replay.tracer.spans, &class, false, |s| s.layer() == "txn");
    drop(replay);
    env.teardown();
    Ok(us)
}

/// Set up, warm up, trace the next tenth of the sequence, run one more
/// tenth untraced, take the stand-alone numbers, and write the spans to
/// `out_dir/trace-<workload>.jsonl`.
pub fn run(spec: &Spec, seed: u64, process_start: Timer, out_dir: &Path) -> Result<Traced> {
    let mut runner = Runner::set_up(spec, seed)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    let mut m = Metrics::new();
    let rounds = spec.warmup_rounds;

    let (table, types, rows) = main_table(spec, &runner.env.db)?;
    let mut standalone = Standalone::load(&rows)?;
    let prepared = spec
        .prepared_sql()
        .into_iter()
        .map(|sql| select_of(&sql).map(|sel| (sql, sel)))
        .collect::<Result<Vec<_>>>()?;
    let mut twins = [
        Generator::twin(spec, seed, 1),
        Generator::twin(spec, seed, 2),
    ];
    for twin in &mut twins {
        for _ in 0..rounds {
            twin.next_round();
        }
    }

    // ---- traced pass ------------------------------------------------------
    let session = runner.env.session();
    let Env {
        db,
        client,
        stmt_ids,
        front,
        ..
    } = &mut runner.env;
    let db = &*db;
    let txn = db.txn_metrics();
    let (one0, two0) = (txn.one_phase_commits.get(), txn.two_phase_commits.get());
    let bytes0 = log_bytes(db);
    let mut replay = Replay {
        spec,
        db,
        session,
        prepared,
        standalone: &mut standalone,
        tracer: Tracer::new(),
        tally: Tally::default(),
    };
    let mut class = Vec::new();
    let mut first_sql = String::new();
    for _ in 0..rounds {
        let round = runner.gen.next_round();
        let twin_rounds = [twins[0].next_round(), twins[1].next_round()];
        for (i, op) in round.iter().enumerate() {
            let id = class.len() as u32;
            class.push(op.tag.is_read());
            if let (true, Some(Stmt::Sql(sql))) = (first_sql.is_empty(), op.stmts.first()) {
                first_sql = sql.clone();
            }
            runner.attempted += 1;
            let levels = [op, &twin_rounds[0][i], &twin_rounds[1][i]];
            match replay.op(client, stmt_ids, op, [levels[1], levels[2]], id) {
                Ok(replies) => {
                    for (level, reply) in levels.iter().zip(&replies) {
                        runner.checker.check(level, reply);
                    }
                }
                Err(e) => {
                    runner.failed += 1;
                    runner
                        .checker
                        .wrong
                        .get_or_insert(format!("traced op failed: {e}"));
                }
            }
        }
    }
    let Replay { tracer, tally, .. } = replay;
    let spans = &tracer.spans;
    let bytes = log_bytes(db) - bytes0;
    let (one, two) = (
        txn.one_phase_commits.get() - one0,
        txn.two_phase_commits.get() - two0,
    );
    let reads = class.iter().filter(|r| **r).count() as f64;
    let writes = class.len() as f64 - reads;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };

    // ---- untraced pass ----------------------------------------------------
    // The server's own time for one statement is read back from
    // `FrontMetrics.query_latency`, emptied before the statement is sent.
    let server = &front.metrics().query_latency;
    let cpu0 = layers::process_cpu_s();
    let (mut read_ns, mut write_ns) = (Vec::new(), Vec::new());
    let (mut server_ns, mut overhead_ns) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for op in runner.gen.next_round() {
            runner.attempted += 1;
            let mut reply = Reply::default();
            let mut op_ns = 0;
            let mut outcome = Ok(());
            for stmt in &op.stmts {
                server.reset();
                let t = Timer::start();
                outcome = wire_stmt(client, stmt_ids, op.tag, stmt, &mut reply);
                let ns = t.elapsed().as_nanos() as u64;
                op_ns += ns;
                if outcome.is_err() {
                    break;
                }
                if op.tag.is_read() {
                    let inside = server.mean().as_nanos() as u64;
                    server_ns.push(inside);
                    overhead_ns.push(ns.saturating_sub(inside));
                }
            }
            match outcome {
                Ok(()) => {
                    if op.tag.is_read() {
                        &mut read_ns
                    } else {
                        &mut write_ns
                    }
                    .push(op_ns);
                    runner.checker.check(&op, &reply);
                }
                Err(e) => {
                    runner.failed += 1;
                    runner
                        .checker
                        .wrong
                        .get_or_insert(format!("op failed: {e}"));
                }
            }
        }
    }
    let cpu_s = layers::process_cpu_s() - cpu0;
    let (read_ns, write_ns) = (stats::sorted(&read_ns), stats::sorted(&write_ns));

    let read = budget(spans, &class, true);
    let write = budget(spans, &class, false);

    m.insert("front.server_p50_us", p50_of(&server_ns) / 1e3);
    m.insert("front.wire_overhead_us", p50_of(&overhead_ns) / 1e3);
    m.insert(
        "front.prepared_share",
        per(tally.prepared_stmts as f64, tally.stmts as f64),
    );
    m.insert("front.errors", front.metrics().queries_err.get() as f64);
    m.insert("front.throttled", front.metrics().throttled.get() as f64);
    m.insert(
        "front.read_p99_ms",
        stats::percentile(&read_ns, 0.99) as f64 / 1e6,
    );
    m.insert(
        "front.write_p99_ms",
        stats::percentile(&write_ns, 0.99) as f64 / 1e6,
    );
    m.insert("sql.parse_us_per_stmt", p50_us(spans, "sql.parse"));
    m.insert("sql.plan_us_per_stmt", p50_us(spans, "sql.plan"));
    m.insert(
        "optimizer.rewrite_us_per_stmt",
        p50_us(spans, "optimizer.rewrite"),
    );
    m.insert(
        "optimizer.classify_us_per_stmt",
        p50_us(spans, "optimizer.classify"),
    );
    m.insert(
        "optimizer.ap_share",
        per(tally.ap_stmts as f64, tally.read_stmts as f64),
    );
    m.insert(
        "core.session_read_us",
        p50_per_op_us(spans, &class, true, |s| s.name == "core.session"),
    );
    m.insert(
        "core.session_write_us",
        p50_per_op_us(spans, &class, false, |s| s.name == "core.session"),
    );
    m.insert("core.ro_catchup_us", p50_us(spans, "core.ro_catchup"));
    let rebuild_ms = if spec.is_htap() {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t = Timer::start();
            db.enable_column_index(table)?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        stats::median(&samples)
    } else {
        0.0
    };
    m.insert("core.colindex_rebuild_ms", rebuild_ms);
    m.insert(
        "executor.scan_rows_per_read",
        per((tally.rows_scanned + tally.exec.scan_rows) as f64, reads),
    );
    m.insert(
        "executor.tp_exec_us_per_read",
        p50_us(spans, "executor.exec_tp"),
    );
    m.insert(
        "executor.ap_exec_ms_per_query",
        p50_us(spans, "executor.exec_ap") / 1e3,
    );
    let refreshes = if spec.is_htap() { reads } else { 0.0 };
    m.insert(
        "executor.scan_ms_per_refresh",
        per(tally.exec.scan_ns as f64 / 1e6, refreshes),
    );
    m.insert(
        "executor.join_ms_per_refresh",
        per(tally.exec.join_ns as f64 / 1e6, refreshes),
    );
    m.insert(
        "executor.agg_ms_per_refresh",
        per(tally.exec.agg_ns as f64 / 1e6, refreshes),
    );
    m.insert(
        "executor.morsels_per_refresh",
        per(tally.exec.morsels as f64, refreshes),
    );
    m.insert(
        "executor.steals_per_refresh",
        per(tally.exec.steals as f64, refreshes),
    );
    m.insert(
        "executor.cpu_per_wall",
        per(tally.ap_cpu_s, tally.ap_wall_ns as f64 / 1e9),
    );
    m.insert("txn.one_phase_share", per(one as f64, (one + two) as f64));
    let txn_us = p50_per_op_us(spans, &class, false, |s| s.layer() == "txn");
    let rtt = 2.0 * spec.latency().inter_dc.as_secs_f64() * 1e6;
    let zero_us = if rtt > 0.0 {
        zero_latency_txn_us(spec, seed)?
    } else {
        txn_us
    };
    m.insert("txn.commit_us_zero_latency", zero_us);
    m.insert("txn.blocking_rtts_per_write", per(txn_us - zero_us, rtt));
    m.insert("txn.rpc_retries", txn.rpc_retries.get() as f64);
    // Every write of the slice ran at three levels, each logged by the DNs.
    m.insert("wal.bytes_per_write_op", per(bytes as f64, 3.0 * writes));
    m.insert(
        "process.cpu_ms_per_op",
        per(cpu_s * 1e3, (read_ns.len() + write_ns.len()) as f64),
    );
    m.insert(
        "trace.overhead_share",
        per(
            read.end_to_end_us * 1e3,
            stats::percentile(&read_ns, 0.5) as f64,
        ) - 1.0,
    );
    m.insert("trace.read_unattributed_us", read.unattributed_us);
    m.insert("trace.write_unattributed_us", write.unattributed_us);
    layers::measure(
        &runner.env.session(),
        table,
        &types,
        &rows,
        &mut standalone,
        &first_sql,
        &mut m,
    )?;
    m.insert("process.peak_rss_mb", layers::peak_rss_mb());

    runner.checker.final_check(&mut runner.env.client)?;
    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| Error::execution(format!("writing {}: {e}", path.display())))?;
    let traced = Traced {
        setup_s,
        metrics: m,
        read,
        write,
        spans: tracer.spans.len(),
        path,
        digest: crate::gen::sequence_digest(spec, seed, 2 * rounds),
        attempted: runner.attempted,
        failed: runner.failed,
        wrong: runner.checker.wrong.take(),
    };
    runner.env.teardown();
    Ok(traced)
}
