//! A client session: SQL in, rows or affected counts out.
//!
//! The session owns the statement surface (`run` / `execute` / `query` /
//! `explain`), the SELECT path (plan, classify, run on the TP or AP engine)
//! and DDL; [`dml`] holds INSERT / UPDATE / DELETE and global-index
//! maintenance.
//!
//! Every statement arrives as text, from the wire, a prepared statement or
//! an embedded caller, and takes one path. The lexer's one pass gives its
//! tokens and its shape, and the leading keyword tells its `Kind` once,
//! for every entry point. INSERT and DDL are parsed and run. A SELECT,
//! UPDATE or DELETE looks its shape up in the cluster's plan cache
//! (`crate::plan_cache`) and binds its literals into the cached
//! template; only a miss parses and plans. Per execution, as without a
//! cache: a SELECT chooses its join build sides, estimates and
//! classifies against the current statistics, reserves memory from its
//! class's region, routes fenced and picks each table's store; an UPDATE /
//! DELETE decides its write path from its bound predicate. A session admits
//! nothing itself: the front door's per-tenant gate is the one admission
//! step.

mod dml;

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use polardbx_common::{
    ColumnDef, DcId, Error, IndexDef, IndexKind, NodeId, PartitionSpec, Result, Row,
    TableSchema, TenantId, Value,
};
use polardbx_executor::memory::Reservation;
use polardbx_executor::scheduler::{run_with_demotion, TickState};
use polardbx_executor::{execute_plan, ExecCtx, JobClass, MppExecutor, TableProvider};
use polardbx_optimizer::{
    choose_build_sides, choose_storage, classify_cost, estimate, optimize, PlanCost, Statistics,
    StorageChoice, WorkloadClass,
};
use polardbx_sql::ast::{self, IndexPlacement, Statement};
use polardbx_sql::expr::Expr;
use polardbx_sql::{Lexed, LogicalPlan};
use polardbx_txn::Coordinator;

use crate::access::{key_access, KeyAccess};
use crate::cluster::{CnNode, Inner};
use crate::gms::shard_table_id;
use crate::plan_cache::Entry;
use crate::provider::ClusterProvider;

pub(crate) use dml::EditTemplate;

/// What a statement answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A SELECT's rows.
    Rows(Vec<Row>),
    /// The rows any other statement affected.
    Affected(u64),
}

/// What a statement is, told once by its leading keyword.
enum Kind {
    /// A SELECT: takes the plan cache.
    Select,
    /// An UPDATE or DELETE: takes the plan cache.
    Edit,
    /// An INSERT or DDL: parsed and run, no cache lookup.
    Other,
}

impl Kind {
    fn of(lexed: &Lexed<'_>) -> Kind {
        if lexed.starts_with_kw("select") {
            Kind::Select
        } else if lexed.starts_with_kw("update") || lexed.starts_with_kw("delete") {
            Kind::Edit
        } else {
            Kind::Other
        }
    }
}

/// A client session bound to one CN, acting for one tenant.
pub struct Session {
    pub(crate) inner: Arc<Inner>,
    pub(crate) cn: Arc<CnNode>,
    pub(crate) tenant: TenantId,
}

impl Session {
    /// This session acting for `tenant`: the tables it creates are the
    /// tenant's, the unit [`PolarDbx::migrate_tenant`][crate::PolarDbx::migrate_tenant]
    /// moves. Ownership places data and grants nothing: any session reads
    /// and writes any table.
    pub fn for_tenant(mut self, tenant: TenantId) -> Session {
        self.tenant = tenant;
        self
    }

    /// The CN this session landed on (load-balancer tests).
    pub fn cn_id(&self) -> NodeId {
        self.cn.id
    }

    /// The CN's datacenter.
    pub fn cn_dc(&self) -> DcId {
        self.cn.dc
    }

    /// Direct access to the CN's transaction coordinator — benchmark
    /// drivers use it to bypass SQL parsing on hot paths.
    pub fn coordinator(&self) -> &Coordinator {
        &self.cn.coordinator
    }

    /// Route a primary-key tuple of `table` to its (shard-table id, DN).
    pub fn route(
        &self,
        table: &str,
        pk: &[Value],
    ) -> Result<(polardbx_common::TableId, NodeId)> {
        let schema = self.inner.gms.table(table)?;
        let (shard, dn) = self.inner.gms.route_key(&schema, pk)?;
        Ok((shard_table_id(schema.id, shard), dn))
    }

    /// Like [`Session::route`], but also captures the shard's routing
    /// epoch for commit-time fencing, and bounces retryably while the
    /// shard is frozen for a re-home cutover. Drivers pin the returned
    /// epoch on their transaction (`DistTxn::pin_epoch`) before writing.
    pub fn route_fenced(
        &self,
        table: &str,
        pk: &[Value],
    ) -> Result<(polardbx_common::TableId, NodeId, u64)> {
        let schema = self.inner.gms.table(table)?;
        let (shard, dn, epoch) = self.inner.gms.route_key_fenced(&schema, pk)?;
        Ok((shard_table_id(schema.id, shard), dn, epoch))
    }

    /// Run any statement: the rows of a SELECT, or the rows another
    /// statement affected. Every entry point below takes this path.
    pub fn run(&self, sql: &str) -> Result<Outcome> {
        let lexed = polardbx_sql::lex(sql)?;
        match Kind::of(&lexed) {
            Kind::Select => self.select(&lexed).map(|(rows, _)| Outcome::Rows(rows)),
            Kind::Edit => self.edit(&lexed).map(Outcome::Affected),
            Kind::Other => self.other(&lexed).map(Outcome::Affected),
        }
    }

    /// Execute a DDL/DML statement; returns affected row count.
    pub fn execute(&self, sql: &str) -> Result<u64> {
        let lexed = polardbx_sql::lex(sql)?;
        match Kind::of(&lexed) {
            Kind::Select => Err(Error::invalid("use query() for SELECT statements")),
            Kind::Edit => self.edit(&lexed),
            Kind::Other => self.other(&lexed),
        }
    }

    /// [`Session::execute`] for a caller that has parsed `sql` already:
    /// `stmt` is what it parses to. The plan cache keys by the text, so
    /// `stmt` is not read.
    pub fn execute_statement(&self, sql: &str, _stmt: &Statement) -> Result<u64> {
        self.execute(sql)
    }

    /// Execute a SELECT; returns result rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Row>> {
        self.query_classified(sql).map(|(rows, _)| rows)
    }

    /// Execute a SELECT and report how the optimizer classified it.
    pub fn query_classified(&self, sql: &str) -> Result<(Vec<Row>, WorkloadClass)> {
        let lexed = polardbx_sql::lex(sql)?;
        match Kind::of(&lexed) {
            Kind::Select => self.select(&lexed),
            Kind::Edit | Kind::Other => Err(Error::invalid("query() only accepts SELECT")),
        }
    }

    /// [`Session::query_classified`] for a caller that has parsed `sql`
    /// already: `sel` is what it parses to. The plan cache keys by the
    /// text, so `sel` is not read.
    pub fn query_statement(
        &self,
        sql: &str,
        _sel: &ast::Select,
    ) -> Result<(Vec<Row>, WorkloadClass)> {
        self.query_classified(sql)
    }

    /// An INSERT or DDL statement has no plan to cache: it is parsed and
    /// run.
    fn other(&self, lexed: &Lexed<'_>) -> Result<u64> {
        match polardbx_sql::parse_lexed(lexed)? {
            Statement::CreateTable(ct) => self.create_table(ct).map(|_| 0),
            Statement::CreateIndex(ci) => self.create_index(ci).map(|_| 0),
            // DML retries the whole statement on a re-home bounce: the
            // retry re-routes and lands on the shard's new home.
            Statement::Insert(ins) => self.retry_dml(|| self.insert(&ins)),
            Statement::Select(_) | Statement::Update(_) | Statement::Delete(_) => {
                Err(Error::invalid("a SELECT, UPDATE or DELETE takes the plan cache"))
            }
        }
    }

    /// The plan-cache entry of a SELECT: its statistics-free rewrite,
    /// cached when `literals` fit it at the current catalog generation,
    /// else built now.
    fn select_template(
        &self,
        lexed: &Lexed<'_>,
        literals: &[Value],
    ) -> Result<Arc<Entry<LogicalPlan>>> {
        let gms = &self.inner.gms;
        let generation = gms.generation();
        self.inner.plans.selects.get_or_build(lexed, literals, generation, |stmt| match stmt {
            Statement::Select(sel) => Ok(optimize(polardbx_sql::build_plan(&sel, gms.as_ref())?)),
            _ => Err(Error::invalid("not a SELECT")),
        })
    }

    /// Run a SELECT through the plan cache.
    fn select(&self, lexed: &Lexed<'_>) -> Result<(Vec<Row>, WorkloadClass)> {
        let literals = lexed.literals();
        let entry = self.select_template(lexed, &literals)?;
        let stats = self.inner.gms.statistics();
        let (plan, cost, class) = self.bind_select(&entry.template, &literals, &stats);
        let rows = self.run_plan(plan, class, &cost, &stats)?;
        Ok((rows, class))
    }

    /// One execution of a SELECT template: bind its literals, then the
    /// steps that follow the current statistics — choose each join's build
    /// side, estimate the cost and classify it.
    fn bind_select(
        &self,
        template: &LogicalPlan,
        literals: &[Value],
        stats: &Statistics,
    ) -> (LogicalPlan, PlanCost, WorkloadClass) {
        let plan = choose_build_sides(template.bind(literals), stats);
        let cost = estimate(&plan, stats);
        let class = classify_cost(&cost, self.inner.config.ap_threshold);
        (plan, cost, class)
    }

    /// The store each table `plan` scans is read from (§VI-E): a TP plan
    /// runs on the row engine, which reads the row store; an AP plan reads
    /// what the optimizer's `choose_storage` picks, told whether every scan
    /// of the table is a point read by `accesses`, the plan's
    /// [`Session::scan_accesses`]. This is the one decision: `EXPLAIN`
    /// prints it and [`Session::build_provider`] attaches exactly the
    /// column indexes it names.
    fn storage_choices(
        plan: &LogicalPlan,
        class: WorkloadClass,
        stats: &Statistics,
        accesses: &[(String, KeyAccess)],
    ) -> Vec<(String, StorageChoice)> {
        plan
            .tables()
            .into_iter()
            .map(|table| {
                let choice = match class {
                    WorkloadClass::Tp => StorageChoice::RowStore,
                    WorkloadClass::Ap => {
                        let point_read = accesses.iter().filter(|(t, _)| *t == table).all(
                            |(_, access)| matches!(access, KeyAccess::Keys(_)),
                        );
                        choose_storage(plan, &table, stats, point_read)
                    }
                };
                (table, choice)
            })
            .collect()
    }

    /// The row-store access path of every scan of `plan`, in plan order:
    /// `key_access` of the predicate of the Filter node directly above the
    /// scan, or `All` without one. The row store reads exactly these
    /// (`ClusterProvider::scan_where`) and `EXPLAIN` prints them.
    fn scan_accesses(&self, plan: &LogicalPlan) -> Result<Vec<(String, KeyAccess)>> {
        fn walk(
            session: &Session,
            plan: &LogicalPlan,
            filter: Option<&Expr>,
            out: &mut Vec<(String, KeyAccess)>,
        ) -> Result<()> {
            match plan {
                LogicalPlan::Scan { table, .. } => {
                    let schema = session.inner.gms.table(table)?;
                    let access = filter.map_or(KeyAccess::All, |p| key_access(&schema, p));
                    out.push((table.clone(), access));
                    Ok(())
                }
                LogicalPlan::Filter { input, predicate } => {
                    walk(session, input, Some(predicate), out)
                }
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => walk(session, input, None, out),
                LogicalPlan::Join { left, right, .. } => {
                    walk(session, left, None, out)?;
                    walk(session, right, None, out)
                }
            }
        }
        let mut out = Vec::new();
        walk(self, plan, None, &mut out)?;
        Ok(out)
    }

    /// EXPLAIN: parse and plan a SELECT without executing it, returning
    /// the optimized operator tree, the TP/AP classification, and per
    /// scanned table the store the executor reads (§VI-B/E) — with what a
    /// column index can answer — and the row-store access path: `keys(n)`
    /// when the filter above the scan names n primary keys, else `all
    /// shards`. For an UPDATE / DELETE: the access path and how the
    /// statement writes — `pushed (1 round)`, or `read-then-write (2
    /// rounds)` and why the read cannot ride the write.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let lexed = polardbx_sql::lex(sql)?;
        let literals = lexed.literals();
        let entry = match Kind::of(&lexed) {
            Kind::Select => self.select_template(&lexed, &literals)?,
            Kind::Edit => {
                let entry = self.edit_template(&lexed, &literals)?;
                return Ok(self.explain_dml(&entry.template, &literals));
            }
            Kind::Other => {
                return Err(Error::invalid("EXPLAIN supports SELECT, UPDATE and DELETE only"))
            }
        };
        let stats = self.inner.gms.statistics();
        let (plan, cost, class) = self.bind_select(&entry.template, &literals, &stats);
        let mut out = String::new();
        out.push_str(&format!(
            "class: {class:?} (est. cost {:.0}, rows {:.0})\n",
            cost.total(),
            cost.rows_out
        ));
        let accesses = self.scan_accesses(&plan)?;
        for (table, choice) in Self::storage_choices(&plan, class, &stats, &accesses) {
            out.push_str(&format!("scan {table}: {choice:?}"));
            // What the index can answer: how far the feed has brought it,
            // the oldest snapshot it serves, how much of it is dead, and
            // how many columns its writes copied from under a snapshot.
            let index = self.inner.column_indexes.read().get(&table).cloned();
            if let (StorageChoice::ColumnIndex, Some(index)) = (choice, index) {
                let index = index.index();
                out.push_str(&format!(
                    " (applied ts {}, floor {}, rows {} live / {} physical, copies {})",
                    index.version(),
                    index.floor(),
                    index.live_rows(),
                    index.physical_rows(),
                    index.copies()
                ));
            }
            out.push('\n');
        }
        for (table, access) in accesses {
            out.push_str(&format!("access {table}: {access}\n"));
        }
        out.push_str(&plan.explain());
        Ok(out)
    }

    fn run_plan(
        &self,
        plan: LogicalPlan,
        class: WorkloadClass,
        cost: &PlanCost,
        stats: &Statistics,
    ) -> Result<Vec<Row>> {
        // Reserve working memory from the class's region before executing
        // (§VI-D): TP reservations may preempt AP headroom; an AP query that
        // cannot reserve fails with a retryable error instead of thrashing.
        // Working-set proxy: rows the operators touch, not just output rows.
        let bytes = ((cost.cpu as usize).saturating_mul(8)).clamp(4 << 10, 64 << 20);
        let _reservation = match class {
            WorkloadClass::Tp => Reservation::tp(Arc::clone(&self.inner.memory), bytes)?,
            WorkloadClass::Ap => Reservation::ap(Arc::clone(&self.inner.memory), bytes)?,
        };
        let snapshot_ts = self.cn.coordinator.clock().now().raw();
        let provider = self.build_provider(&plan, class, stats, snapshot_ts)?;
        let workload = &self.inner.workload;
        match class {
            WorkloadClass::Tp => {
                // On this thread under the TP slice; overruns demote to AP,
                // then slow (§VI-D's misclassification recovery).
                let (result, _class) =
                    run_with_demotion(workload, JobClass::Tp, move |deadline, governor| {
                        let ctx = ExecCtx::with_ticks(TickState::new(governor, deadline));
                        match execute_plan(&plan, &provider, &ctx) {
                            Err(Error::Throttled { .. }) => None, // slice expired
                            other => Some(other),
                        }
                    });
                result
            }
            WorkloadClass::Ap => {
                // The MPP engine borrows morsel workers from the CN's own
                // persistent pools, so concurrent AP queries share workers
                // (under the AP governor) instead of each spawning threads.
                let mpp =
                    MppExecutor::with_pool(self.inner.config.mpp_workers, Arc::clone(workload));
                let governor = workload.governor_for(JobClass::Ap);
                let provider: Arc<dyn TableProvider> = Arc::new(provider);
                workload.run(JobClass::Ap, move || {
                    let ctx = ExecCtx::with_ticks(TickState::new(governor, None));
                    mpp.execute(&plan, &provider, &ctx)
                })
            }
        }
    }

    fn build_provider(
        &self,
        plan: &LogicalPlan,
        class: WorkloadClass,
        stats: &Statistics,
        snapshot_ts: u64,
    ) -> Result<ClusterProvider> {
        // TP reads the RW engines and no index. AP queries read RO replicas
        // when present and HTAP routing is on, and exactly the indexes
        // `storage_choices` names: the executor reads an index iff the
        // provider has one. One that cannot answer at this snapshot — the
        // statement's snapshot is older than the index's floor — yields no
        // snapshot, and the row store answers.
        if class == WorkloadClass::Tp {
            return Ok(self.inner.provider_at(snapshot_ts, false, HashMap::new()));
        }
        let accesses = self.scan_accesses(plan)?;
        let choices = Self::storage_choices(plan, class, stats, &accesses);
        let registered = self.inner.column_indexes.read();
        let chosen = choices
            .into_iter()
            .filter(|(_, choice)| *choice == StorageChoice::ColumnIndex)
            .filter_map(|(table, _)| {
                let index = Arc::clone(registered.get(&table)?);
                Some((table, index))
            })
            .collect();
        drop(registered);
        let use_ro = self.inner.htap_ro.load(Ordering::Relaxed);
        Ok(self.inner.provider_at(snapshot_ts, use_ro, chosen))
    }

    // ------------------------------------------------------------------- DDL

    fn create_table(&self, ct: ast::CreateTable) -> Result<()> {
        let id = self.inner.gms.next_table_id();
        let columns: Vec<ColumnDef> = ct
            .columns
            .iter()
            .map(|(n, t, nn)| {
                let mut c = ColumnDef::new(n.clone(), *t);
                if *nn {
                    c = c.not_null();
                }
                c
            })
            .collect();
        let mut schema = match &ct.partition {
            Some((cols, shards)) => TableSchema::new(
                id,
                &ct.name,
                columns,
                ct.primary_key.clone(),
                PartitionSpec::Hash { columns: cols.clone(), shards: *shards },
            )?,
            None => TableSchema::hash_on_pk(
                id,
                &ct.name,
                columns,
                ct.primary_key.clone(),
                self.inner.config.default_shards,
            )?,
        };
        if let Some(g) = &ct.table_group {
            schema = schema.in_table_group(g.clone());
        }
        self.inner.gms.create_table(schema.clone(), self.tenant)?;
        // Create the shard tables on their DNs (and RO mirrors).
        for shard in 0..schema.partition.shard_count() {
            let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
            let dn = self.inner.dn(dn_id);
            dn.rw.create_table(shard_table_id(schema.id, shard));
        }
        Ok(())
    }

    fn create_index(&self, ci: ast::CreateIndex) -> Result<()> {
        let mut schema = self.inner.gms.table(&ci.table)?;
        let kind = match ci.placement {
            IndexPlacement::Local => IndexKind::Local,
            IndexPlacement::Global => IndexKind::GlobalNonClustered,
            IndexPlacement::GlobalClustered => IndexKind::GlobalClustered,
        };
        schema = schema.with_index(IndexDef {
            name: ci.name.clone(),
            columns: ci.columns.clone(),
            kind,
            unique: ci.unique,
        })?;

        if matches!(kind, IndexKind::GlobalNonClustered | IndexKind::GlobalClustered) {
            // Global index = hidden table partitioned by the indexed
            // columns (§II-B). Schema: indexed cols + pk cols (+ the rest
            // when clustered).
            let hidden_name = format!("__gsi_{}_{}", ci.table, ci.name);
            let mut cols: Vec<ColumnDef> = Vec::new();
            for c in &ci.columns {
                let i = schema.column_index(c)?;
                cols.push(schema.columns[i].clone());
            }
            let pk_names: Vec<String> =
                schema.primary_key.iter().map(|&i| schema.columns[i].name.clone()).collect();
            for &i in &schema.primary_key {
                if !ci.columns.contains(&schema.columns[i].name) {
                    cols.push(schema.columns[i].clone());
                }
            }
            if kind == IndexKind::GlobalClustered {
                for c in &schema.columns {
                    if !cols.iter().any(|x| x.name == c.name) {
                        cols.push(c.clone());
                    }
                }
            }
            let hidden_id = self.inner.gms.next_table_id();
            let hidden = TableSchema::new(
                hidden_id,
                &hidden_name,
                cols,
                // Index rows are keyed by indexed cols + pk for uniqueness.
                ci.columns.iter().chain(pk_names.iter()).cloned().collect(),
                PartitionSpec::Hash {
                    columns: ci.columns.clone(),
                    shards: schema.partition.shard_count(),
                },
            )?;
            // The index belongs to its table's tenant and moves with it.
            let owner = self.inner.gms.owner(schema.id);
            self.inner.gms.create_table(hidden.clone(), owner)?;
            for shard in 0..hidden.partition.shard_count() {
                // lint:allow(fence_completeness, DDL provisioning of the just-created hidden index table: nothing can re-home a shard that has no data yet, and GSI writes go through write_gsi_row's fenced route)
                let dn_id = self.inner.gms.shard_dn(hidden.id, shard)?;
                let dn = self.inner.dn(dn_id);
                dn.rw.create_table(shard_table_id(hidden.id, shard));
            }
            self.inner
                .gsi_tables
                .write()
                .entry(ci.table.clone())
                .or_default()
                .push(hidden_name.clone());
            // From here on a write to the table maintains the index: no
            // cached UPDATE / DELETE of the table outlives this.
            self.inner.gms.catalog_changed();
            // Backfill from existing rows.
            let ts = self.cn.coordinator.clock().now().raw();
            for shard in 0..schema.partition.shard_count() {
                // lint:allow(fence_completeness, backfill scan routing is read-only: the index rows it produces are written through write_gsi_row's fenced route, so a racing re-home fails the DDL retryably instead of losing writes)
                let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
                let dn = self.inner.dn(dn_id);
                for (_, row) in
                    dn.rw.engine.scan_table(shard_table_id(schema.id, shard), ts)?
                {
                    self.write_gsi_row(&hidden, &schema, &row, false)?;
                }
            }
        }
        self.inner.gms.update_table(schema);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use polardbx_common::{DcId, Error, Value};
    use polardbx_executor::memory::Reservation;
    use polardbx_executor::TableProvider;
    use std::sync::Arc;
    use polardbx_optimizer::{PlanCost, Statistics, WorkloadClass};
    use polardbx_sql::LogicalPlan;

    use super::Session;
    use crate::cluster::{ClusterConfig, PolarDbx};

    /// The plan, cost and class one execution of the SELECT `sql` gets.
    fn planned(
        s: &Session,
        sql: &str,
        stats: &Statistics,
    ) -> (LogicalPlan, PlanCost, WorkloadClass) {
        let lexed = polardbx_sql::lex(sql).unwrap();
        let literals = lexed.literals();
        let entry = s.select_template(&lexed, &literals).unwrap();
        s.bind_select(&entry.template, &literals, stats)
    }

    /// Working memory is reserved per query from the class's region
    /// (§VI-D): an AP query that cannot reserve fails with
    /// `MemoryExhausted` instead of hanging or thrashing, and TP preempts
    /// AP headroom rather than failing.
    #[test]
    fn ap_memory_region_limits_and_tp_preempts() {
        let db = PolarDbx::build(ClusterConfig { dns: 1, default_shards: 8, ..Default::default() })
            .unwrap();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE m (id BIGINT NOT NULL, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO m (id) VALUES (1), (2), (3)").unwrap();
        db.gms().record_rows("m", 50_000_000); // huge estimate → large AP reservation
        let memory = &db.inner.memory;

        // Exhaust the AP region; the AP query must fail with MemoryExhausted,
        // not hang or thrash.
        let hog = (0..13)
            .map(|_| Reservation::ap(Arc::clone(memory), 64 << 20))
            .take_while(|r| r.is_ok())
            .collect::<Vec<_>>();
        let err = s.query("SELECT COUNT(*) FROM m").unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }), "{err}");
        drop(hog);
        // With the region free again the query runs.
        let rows = s.query("SELECT COUNT(*) FROM m").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));

        // TP is privileged: it preempts AP headroom rather than failing. The
        // whole AP region (768 MB by default) fits before and not after.
        let ap_max = 768 << 20;
        drop(Reservation::ap(Arc::clone(memory), ap_max).expect("the AP region is free"));
        let _tp = Reservation::tp(Arc::clone(memory), 380 << 20).expect("TP preempts");
        let err = Reservation::ap(Arc::clone(memory), ap_max).err();
        assert!(err.is_some(), "AP budget shrank under TP pressure");
        db.shutdown();
    }

    #[test]
    fn an_index_serves_no_snapshot_older_than_its_build() {
        let db = PolarDbx::build(ClusterConfig { ap_threshold: 0.0, ..Default::default() }).unwrap();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (1, 1), (2, 2)").unwrap();
        db.enable_column_index("t").unwrap();
        let built_at = db.column_index("t").unwrap().floor();

        let stats = db.gms().statistics();
        let (plan, _, class) = planned(&s, "SELECT SUM(v) FROM t", &stats);
        let attached = |snapshot_ts| {
            s.build_provider(&plan, class, &stats, snapshot_ts).unwrap().columnar("t").is_some()
        };
        assert!(attached(built_at), "the index serves its build timestamp and later");
        assert!(!attached(built_at - 1), "an older snapshot falls back to the row store");
        // A write does not move the floor: the index keeps its history.
        s.execute("INSERT INTO t (id, v) VALUES (3, 3)").unwrap();
        assert_eq!(db.column_index("t").unwrap().floor(), built_at);
        assert!(attached(built_at));
        db.shutdown();
    }

    /// The point rule is `key_access` on the filter directly above the
    /// scan: an equality on a non-key column is a scan, whatever sits
    /// above it, and only a filter naming every primary key reads the row
    /// store.
    #[test]
    fn only_a_primary_key_filter_makes_a_point_read() {
        use polardbx_optimizer::StorageChoice::{ColumnIndex, RowStore};
        let config = ClusterConfig { ap_threshold: 0.0, ..Default::default() };
        let db = PolarDbx::build(config).unwrap();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_orderstatus VARCHAR, \
             o_totalprice DOUBLE, PRIMARY KEY (o_orderkey))",
        )
        .unwrap();
        db.gms().set_column_index("orders", true);
        let stats = db.gms().statistics();
        let choice = |sql: &str| {
            let (plan, _, class) = planned(&s, sql, &stats);
            let accesses = s.scan_accesses(&plan).unwrap();
            Session::storage_choices(&plan, class, &stats, &accesses)[0].1
        };
        let agg = "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE";
        assert_eq!(choice(&format!("{agg} o_orderstatus = 'O'")), ColumnIndex);
        assert_eq!(choice(&format!("{agg} o_orderkey = 7")), RowStore);
        let keys_and_status = format!("{agg} o_orderkey IN (7, 8) AND o_orderstatus = 'O'");
        assert_eq!(choice(&keys_and_status), RowStore);
        assert_eq!(choice(&format!("{agg} o_orderkey = 7 OR o_orderstatus = 'O'")), ColumnIndex);
        db.shutdown();
    }
}
