//! The system under test and the one client that drives it: cluster
//! set-up, the wire connection, op execution and the answer checks.

use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_common::{DcId, Error, Result, Row, TenantQuotas, Value};
use polardbx_front::{FrontClient, FrontDoor};
use polardbx_optimizer::WorkloadClass;
use polardbx_workloads::tpch;

use crate::gen::{Kind, Op, Spec, Stmt, Tag, REFRESH_QUERIES, TPCH_SEED};

/// A built cluster with its front door and the benchmark's one connection.
pub struct Env {
    /// The workload this cluster serves.
    pub spec: Spec,
    /// The cluster.
    pub db: PolarDbx,
    /// The wire endpoint.
    pub front: FrontDoor,
    /// The one client connection.
    pub client: FrontClient,
    /// Server-side ids of [`Spec::prepared_sql`], by slot.
    pub stmt_ids: Vec<u64>,
    /// HTAP: the in-process answer of each refresh query on the loaded data.
    pub reference: Vec<Vec<Row>>,
    /// HTAP: `orders` rows loaded.
    pub loaded_orders: i64,
}

impl Env {
    /// Build the cluster, create and load the schema, build column indexes,
    /// start the front door and connect. Everything a run needs before its
    /// first op except the warm-up pass.
    pub fn build(spec: &Spec) -> Result<Env> {
        Env::build_on(spec, spec.cluster())
    }

    /// [`Env::build`] on a cluster of another shape (the traced run's
    /// zero-latency twin).
    pub fn build_on(spec: &Spec, config: ClusterConfig) -> Result<Env> {
        let shards = config.default_shards;
        let db = PolarDbx::build(config)?;
        let session = db.connect(DcId(1));
        let mut reference = Vec::new();
        let mut loaded_orders = 0;
        match spec.kind {
            Kind::OltpPoint => {
                session.execute(
                    "CREATE TABLE b (id BIGINT NOT NULL, v BIGINT, pad VARCHAR(64), \
                     PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 8",
                )?;
                let pad = "x".repeat(64);
                load_rows(&session, "b (id, v, pad)", spec.rows, |id| {
                    format!("({id}, 0, '{pad}')")
                })?;
            }
            Kind::CrossdcTxn => {
                session.execute(
                    "CREATE TABLE acct (id BIGINT NOT NULL, bal BIGINT, PRIMARY KEY (id)) \
                     PARTITION BY HASH(id) PARTITIONS 6",
                )?;
                load_rows(&session, "acct (id, bal)", spec.rows, |id| {
                    format!("({id}, 100)")
                })?;
            }
            Kind::HtapScan | Kind::HtapMixed => {
                tpch::create_schema(&session, shards)?;
                tpch::load(&db, tpch::ScaleFactor(spec.scale), TPCH_SEED)?;
                session.execute(
                    "CREATE TABLE refresh_log (id BIGINT NOT NULL, at BIGINT, note VARCHAR(32), \
                     PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 2",
                )?;
                db.enable_column_index("lineitem")?;
                db.enable_column_index("orders")?;
                loaded_orders = db.count_rows("orders")? as i64;
                for q in REFRESH_QUERIES {
                    let (rows, class) = session.query_classified(tpch::query_sql(q))?;
                    if class != WorkloadClass::Ap {
                        return Err(Error::execution(format!(
                            "Q{q} classified {class:?}, not AP"
                        )));
                    }
                    reference.push(rows);
                }
            }
        }
        let tenant = db.register_tenant("polarbench", TenantQuotas::unlimited());
        let front = FrontDoor::start_default(db.clone())?;
        let mut client = FrontClient::connect(front.addr(), tenant.raw())?;
        let mut stmt_ids = Vec::new();
        for sql in spec.prepared_sql() {
            stmt_ids.push(client.prepare(&sql)?.0);
        }
        Ok(Env {
            spec: spec.clone(),
            db,
            front,
            client,
            stmt_ids,
            reference,
            loaded_orders,
        })
    }

    /// A fresh in-process session on the CN the wire connection landed on.
    pub fn session(&self) -> Session {
        self.db.connect_nth(self.client.cn() as usize)
    }

    /// Close the connection, stop the front door and the cluster's threads.
    pub fn teardown(self) {
        let Env {
            db,
            mut front,
            client,
            ..
        } = self;
        let _ = client.quit();
        front.shutdown();
        db.shutdown();
    }
}

fn load_rows(
    session: &Session,
    target: &str,
    rows: i64,
    tuple: impl Fn(i64) -> String,
) -> Result<()> {
    for start in (0..rows).step_by(100) {
        let tuples: Vec<String> = (start..(start + 100).min(rows)).map(&tuple).collect();
        session.execute(&format!("INSERT INTO {target} VALUES {}", tuples.join(",")))?;
    }
    Ok(())
}

/// What the program answered to one op.
#[derive(Debug, Default)]
pub struct Reply {
    /// One result set per SELECT statement of the op.
    pub sets: Vec<Vec<Row>>,
    /// Rows affected, summed over the op's DML statements.
    pub affected: u64,
}

/// Send one statement of an op with tag `tag` over the wire and add its
/// answer to `reply`.
pub fn wire_stmt(
    client: &mut FrontClient,
    stmt_ids: &[u64],
    tag: Tag,
    stmt: &Stmt,
    reply: &mut Reply,
) -> Result<()> {
    match stmt {
        Stmt::Sql(sql) if tag.is_read() => reply.sets.push(client.query(sql)?),
        Stmt::Sql(sql) => reply.affected += client.execute(sql)?,
        Stmt::Prepared(slot) => reply.sets.push(client.execute_prepared(stmt_ids[*slot])?),
    }
    Ok(())
}

/// Send one op over the wire and collect its answer.
pub fn wire_op(client: &mut FrontClient, stmt_ids: &[u64], op: &Op) -> Result<Reply> {
    let mut reply = Reply::default();
    for stmt in &op.stmts {
        wire_stmt(client, stmt_ids, op.tag, stmt, &mut reply)?;
    }
    Ok(reply)
}

/// Number of [`Tag`] variants.
const TAGS: usize = 8;

/// The expected state of the database, advanced by every acknowledged op.
/// One closed-loop client makes the expectation exact: each answer is
/// compared with it as it arrives.
pub struct Checker {
    spec: Spec,
    /// Expected `v` / `bal` of every row of the point table.
    model: Vec<i64>,
    /// Acknowledged ops per tag.
    acked: [u64; TAGS],
    reference: Vec<Vec<Row>>,
    loaded_orders: i64,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

impl Checker {
    /// The expectation right after [`Env::build`].
    pub fn new(env: &Env) -> Checker {
        let initial = if env.spec.kind == Kind::CrossdcTxn {
            100
        } else {
            0
        };
        Checker {
            spec: env.spec.clone(),
            model: vec![initial; env.spec.rows as usize],
            acked: [0; TAGS],
            reference: env.reference.clone(),
            loaded_orders: env.loaded_orders,
            wrong: None,
        }
    }

    /// Acknowledged ops with this tag.
    pub fn acked(&self, tag: Tag) -> u64 {
        self.acked[tag as usize]
    }

    fn fail(&mut self, what: String) {
        self.wrong.get_or_insert(what);
    }

    /// Compare one acknowledged op's answer with the expectation and
    /// advance the expectation by the op's effect.
    pub fn check(&mut self, op: &Op, reply: &Reply) {
        self.acked[op.tag as usize] += 1;
        let k = op.key as usize;
        match op.tag {
            Tag::PointRead | Tag::PreparedRead => {
                let got = single_int(&reply.sets[0]);
                if got != Some(self.model[k]) {
                    self.fail(format!(
                        "read id {k}: got {got:?}, expected {}",
                        self.model[k]
                    ));
                }
            }
            Tag::PointUpdate | Tag::RangeUpdate => {
                let width = if op.tag == Tag::RangeUpdate { 3 } else { 1 };
                if reply.affected != width as u64 {
                    self.fail(format!("update at id {k} affected {} rows", reply.affected));
                }
                for v in &mut self.model[k..k + width] {
                    *v += 1;
                }
            }
            Tag::LogInsert | Tag::OrderInsert | Tag::LineInsert => {
                if reply.affected != 1 {
                    self.fail(format!(
                        "insert of key {k} affected {} rows",
                        reply.affected
                    ));
                }
            }
            Tag::Refresh => self.check_refresh(reply),
        }
    }

    /// `htap_scan`: the indexed tables never change, so every refresh must
    /// repeat the in-process answers. `htap_mixed`: the refresh must see
    /// every line inserted before it (all pass Q1's date filter).
    fn check_refresh(&mut self, reply: &Reply) {
        if self.spec.kind == Kind::HtapScan {
            for (i, q) in REFRESH_QUERIES.iter().enumerate() {
                if !same_rows(&reply.sets[i], &self.reference[i]) {
                    self.fail(format!("Q{q} differs from the in-process answer"));
                }
            }
        } else {
            let expected = q1_count(&self.reference[0]) + self.acked(Tag::LineInsert) as i64;
            let got = q1_count(&reply.sets[0]);
            if got != expected {
                self.fail(format!(
                    "stale refresh: Q1 counts {got} lines, expected {expected}"
                ));
            }
        }
    }

    /// The end-of-run totals, asked over the wire.
    pub fn final_check(&mut self, client: &mut FrontClient) -> Result<()> {
        let (sql, expected) = match self.spec.kind {
            Kind::OltpPoint => ("SELECT SUM(v) FROM b", self.acked(Tag::PointUpdate) as i64),
            Kind::CrossdcTxn => (
                "SELECT SUM(bal) FROM acct",
                100 * self.spec.rows + 3 * self.acked(Tag::RangeUpdate) as i64,
            ),
            Kind::HtapScan => (
                "SELECT COUNT(*) FROM refresh_log",
                self.acked(Tag::LogInsert) as i64,
            ),
            Kind::HtapMixed => (
                "SELECT COUNT(*) FROM orders",
                self.loaded_orders + self.acked(Tag::OrderInsert) as i64,
            ),
        };
        let got = single_int(&client.query(sql)?);
        if got != Some(expected) {
            self.fail(format!("{sql}: got {got:?}, expected {expected}"));
        }
        Ok(())
    }
}

fn single_int(rows: &[Row]) -> Option<i64> {
    match rows {
        [row] => row.get(0).ok()?.as_int().ok(),
        _ => None,
    }
}

/// Q1's `COUNT(*)` (its last column) summed over the groups.
fn q1_count(rows: &[Row]) -> i64 {
    rows.iter()
        .filter_map(|r| r.values().last()?.as_int().ok())
        .sum()
}

/// Row-by-row equality; doubles may differ in the last digits because the
/// parallel aggregation adds partial sums in scheduling order.
fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.arity() == y.arity()
                && x.values().iter().zip(y.values()).all(|pair| match pair {
                    (Value::Double(p), Value::Double(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs())
                    }
                    (p, q) => p == q,
                })
        })
}
