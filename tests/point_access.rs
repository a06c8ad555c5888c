//! Tier-1 tests for primary-key access (`polardbx::access`): a point
//! statement touches one row, and narrowing a statement to the keys its
//! predicate names never changes its answer.
//!
//! * exact counts on the benchmark's point table (2 000 rows, 8 shards):
//!   a point SELECT hands the executor 1 row, a point UPDATE / DELETE sends
//!   its DN no `Read` and no `Scan` message (the edit rides the commit);
//! * a seeded differential over random predicates and four table shapes:
//!   `scan_where` + filter ≡ `scan_all` + filter, and `UPDATE` / `DELETE …
//!   WHERE p` ≡ the same statement forced down the all-shards path;
//! * a second one over keyed statements only: the edit pushed to the row's
//!   DN ≡ the same statement read back and edited on the CN — affected
//!   count, table contents and error class.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx::access::{key_access, KeyAccess};
use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, NodeId, Result, Row};
use polardbx_executor::{execute_plan, ExecCtx, TableProvider};
use polardbx_simnet::Handler;
use polardbx_sql::expr::Expr;
use polardbx_sql::Statement;
use polardbx_txn::{DnService, TxnMsg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------ exact counts

/// Forwards to the cluster's provider, counting the rows it hands out.
struct CountingProvider<P> {
    inner: P,
    rows: AtomicU64,
}

impl<P: TableProvider> CountingProvider<P> {
    fn counted(&self, rows: Result<Vec<Row>>) -> Result<Vec<Row>> {
        if let Ok(rows) = &rows {
            self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        }
        rows
    }
}

impl<P: TableProvider> TableProvider for CountingProvider<P> {
    fn partitions(&self, table: &str) -> usize {
        self.inner.partitions(table)
    }
    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        self.counted(self.inner.scan_partition(table, partition))
    }
    fn scan_where(&self, table: &str, predicate: &Expr) -> Result<Vec<Row>> {
        self.counted(self.inner.scan_where(table, predicate))
    }
}

/// A DN's participant service behind a tally of the reads it is asked for.
struct CountingDn {
    inner: Arc<DnService>,
    reads: Arc<AtomicU64>,
    scans: Arc<AtomicU64>,
}

impl Handler<TxnMsg> for CountingDn {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        match &msg {
            TxnMsg::Read { .. } => self.reads.fetch_add(1, Ordering::Relaxed),
            TxnMsg::Scan { .. } => self.scans.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        self.inner.handle(from, msg)
    }
    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        self.inner.handle_oneway(from, msg)
    }
}

/// The benchmark's `oltp_point` table: 2 000 rows over 8 hash shards.
fn point_table(s: &Session) {
    s.execute(
        "CREATE TABLE b (id BIGINT NOT NULL, v INT, pad VARCHAR(64), PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    for chunk in 0..20 {
        let values: Vec<String> =
            (chunk * 100..(chunk + 1) * 100).map(|i| format!("({i}, 0, 'p{i}')")).collect();
        s.execute(&format!("INSERT INTO b (id, v, pad) VALUES {}", values.join(", "))).unwrap();
    }
}

#[test]
fn point_select_examines_one_row() {
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = db.connect(DcId(1));
    point_table(&s);
    let examined = |sql: &str| -> (usize, u64) {
        let Statement::Select(sel) = polardbx_sql::parse(sql).unwrap() else { unreachable!() };
        let plan = polardbx_optimizer::optimize_with_stats(
            polardbx_sql::build_plan(&sel, db.gms().as_ref()).unwrap(),
            &db.gms().statistics(),
        );
        let provider = CountingProvider { inner: db.provider(false), rows: AtomicU64::new(0) };
        let rows = execute_plan(&plan, &provider, &ExecCtx::unrestricted()).unwrap();
        (rows.len(), provider.rows.load(Ordering::Relaxed))
    };
    assert_eq!(examined("SELECT v FROM b WHERE id = 1234"), (1, 1));
    assert_eq!(examined("SELECT v FROM b WHERE id >= 7 AND id < 7 + 3"), (3, 3));
    assert_eq!(examined("SELECT v FROM b WHERE id = 999999"), (0, 0));
    // The counter does count: a predicate that names no key reads the table.
    assert_eq!(examined("SELECT v FROM b WHERE pad = 'p5'"), (1, 2_000));
    db.shutdown();
}

#[test]
fn point_dml_sends_no_read_and_no_scan() {
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = db.connect(DcId(1));
    point_table(&s);
    let reads = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    for dn in db.dns() {
        let counting = CountingDn {
            inner: Arc::clone(&dn.service),
            reads: Arc::clone(&reads),
            scans: Arc::clone(&scans),
        };
        db.net().register(dn.id, dn.dc, Arc::new(counting));
    }
    let sent = |sql: &str, affected: u64| -> (u64, u64) {
        let before = (reads.load(Ordering::Relaxed), scans.load(Ordering::Relaxed));
        assert_eq!(s.execute(sql).unwrap(), affected, "{sql}");
        (reads.load(Ordering::Relaxed) - before.0, scans.load(Ordering::Relaxed) - before.1)
    };
    assert_eq!(sent("UPDATE b SET v = v + 1 WHERE id = 77", 1), (0, 0));
    assert_eq!(sent("UPDATE b SET v = v + 1 WHERE id >= 10 AND id < 10 + 3", 3), (0, 0));
    assert_eq!(sent("DELETE FROM b WHERE id = 78", 1), (0, 0));
    assert_eq!(sent("DELETE FROM b WHERE id = 78", 0), (0, 0));
    // A predicate that names no key visits every shard once.
    assert_eq!(sent("UPDATE b SET v = v + 1 WHERE pad = 'p5'", 1), (0, 8));
    let rows = s.query("SELECT v FROM b WHERE id = 77").unwrap();
    assert_eq!(rows[0].get(0).unwrap(), &polardbx_common::Value::Int(1));
    db.shutdown();
}

// ------------------------------------------------------------ differential

/// Rows loaded per table; ids run a little past both ends in predicates.
const ROWS: i64 = 40;
const ROUNDS: usize = 5;
const PREDICATES_PER_ROUND: usize = 60;

/// The four shapes: what the key is, and what the shards hash.
const SHAPES: [(&str, &str); 4] = [
    ("one", ", PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 4"),
    ("two", ", PRIMARY KEY (id, s)) PARTITION BY HASH(id) PARTITIONS 4"),
    ("byg", ", PRIMARY KEY (id)) PARTITION BY HASH(g) PARTITIONS 4"),
    ("nopk", ")"),
];

fn create_and_load(s: &Session, shape: usize, table: &str) {
    let (kind, tail) = SHAPES[shape];
    s.execute(&format!(
        "CREATE TABLE {table} (id BIGINT NOT NULL, g BIGINT NOT NULL, s VARCHAR(8) NOT NULL, \
         v INT{tail}"
    ))
    .unwrap();
    let values: Vec<String> = (0..ROWS)
        .map(|i| {
            // `two` is keyed by (id, s): half the ids, each under two strings.
            let (id, tag) = if kind == "two" { (i % 20, i / 20) } else { (i, i % 3) };
            let v = if i % 7 == 0 { "NULL".to_string() } else { (i % 4).to_string() };
            format!("({id}, {}, 's{tag}', {v})", i % 5)
        })
        .collect();
    s.execute(&format!("INSERT INTO {table} (id, g, s, v) VALUES {}", values.join(", ")))
        .unwrap();
}

/// Random WHERE clauses over `(id, g, s, v)`.
struct Gen {
    rng: StdRng,
}

impl Gen {
    /// An integer constant: a literal, or arithmetic that folds to one.
    fn int(&mut self, max: i64) -> String {
        let k = self.rng.gen_range(-1..max + 2);
        match self.rng.gen_range(0..10) {
            0 => format!("{} + {}", k - 2, 2),
            1 => format!("{} - {}", k + 3, 3),
            2 if k > 0 => format!("-{} + {}", k, 2 * k),
            3 => format!("{} * 1", k),
            _ => k.to_string(),
        }
    }

    fn leaf(&mut self) -> String {
        match self.rng.gen_range(0..30) {
            0..=4 => format!("id = {}", self.int(ROWS)),
            5 => format!("{} = id", self.int(ROWS)),
            6..=7 => {
                let n = self.rng.gen_range(1..5);
                let list: Vec<String> = (0..n).map(|_| self.int(ROWS)).collect();
                format!("id IN ({})", list.join(", "))
            }
            8..=9 => {
                let a = self.rng.gen_range(-2..ROWS);
                let low = ["id >=", "id >", "NOT id <"][self.rng.gen_range(0..3)];
                let high = ["id <", "id <="][self.rng.gen_range(0..2)];
                // Mostly a few keys; sometimes dozens, or past the bound.
                let width = if self.rng.gen_bool(0.25) { 80 } else { 11 };
                format!("{low} {a} AND {high} {a} + {}", self.rng.gen_range(0..width))
            }
            10 => {
                let a = self.rng.gen_range(-2..ROWS);
                format!("id BETWEEN {a} AND {}", a + self.rng.gen_range(-1..10))
            }
            11 => format!("id > {}", self.int(ROWS)),
            12 => format!("{} >= id", self.int(ROWS)),
            // Literals that compare equal but do not encode like the column,
            // NULLs, and ill-typed comparisons (an execution error).
            13 => format!("id = {}.0", self.rng.gen_range(0..ROWS)),
            14 => format!("id IN ({}, {}.0, NULL)", self.int(ROWS), self.rng.gen_range(0..ROWS)),
            15 => "id = NULL".to_string(),
            16 if self.rng.gen_bool(0.3) => format!("id = '{}'", self.rng.gen_range(0..ROWS)),
            16 => format!("id NOT IN ({}, {})", self.int(ROWS), self.int(ROWS)),
            17..=18 => format!("g = {}", self.int(5)),
            19 => format!("g IN ({}, {})", self.int(5), self.int(5)),
            20..=21 => format!("s = 's{}'", self.rng.gen_range(0..4)),
            22 => "s IN ('s0', 's2')".to_string(),
            23 if self.rng.gen_bool(0.3) => "s = 1".to_string(),
            23 => "s >= 's1'".to_string(),
            24 => format!("v = {}", self.rng.gen_range(0..4)),
            25 => "v IS NULL".to_string(),
            26 => format!("v + 1 > {}", self.rng.gen_range(0..4)),
            // Every key column of every shape bound at once.
            _ => format!(
                "id = {} AND s = 's{}' AND g = {}",
                self.int(ROWS),
                self.rng.gen_range(0..3),
                self.int(5)
            ),
        }
    }

    fn predicate(&mut self, depth: usize) -> String {
        let pick = if depth == 0 { 0 } else { self.rng.gen_range(0..100) };
        match pick {
            0..=39 => self.leaf(),
            40..=79 => format!("{} AND {}", self.predicate(depth - 1), self.predicate(depth - 1)),
            80..=91 => {
                format!("({} OR {})", self.predicate(depth - 1), self.predicate(depth - 1))
            }
            _ => format!("NOT ({})", self.predicate(depth - 1)),
        }
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

fn keep(rows: Vec<Row>, predicate: &Expr) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        if predicate.eval_bool(&row)? {
            out.push(row);
        }
    }
    Ok(sorted(out))
}

fn contents(db: &PolarDbx, table: &str) -> Vec<Row> {
    sorted(db.provider(false).scan_all(table).unwrap())
}

/// One seed of the differential. Returns how many predicates took the keyed
/// path, per shape.
fn pruned_matches_unpruned(seed: u64) -> [usize; 4] {
    eprintln!("point_access differential seed: POLARDBX_TEST_SEED={}", format_seed(seed));
    let db = PolarDbx::build(ClusterConfig { dns: 3, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    let mut gen = Gen { rng: StdRng::seed_from_u64(seed) };
    let mut keyed = [0usize; 4];
    for round in 0..ROUNDS {
        let tables: Vec<(String, String)> = (0..SHAPES.len())
            .map(|shape| {
                let name = format!("{}_{round}", SHAPES[shape].0);
                let reference = format!("{name}_ref");
                create_and_load(&s, shape, &name);
                create_and_load(&s, shape, &reference);
                (name, reference)
            })
            .collect();
        'predicates: for n in 0..PREDICATES_PER_ROUND {
            let p = gen.predicate(3);
            let dml = gen.rng.gen_range(0..100);
            for (shape, (table, reference)) in tables.iter().enumerate() {
                let ctx = format!("seed {seed:#x} round {round} #{n} {table} WHERE {p}");
                let Statement::Select(sel) =
                    polardbx_sql::parse(&format!("SELECT * FROM {table} WHERE {p}")).unwrap()
                else {
                    unreachable!()
                };
                let schema = db.gms().table(table).unwrap();
                let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
                let resolved = sel.predicate.unwrap().resolve(&names[..4]).unwrap();
                if matches!(key_access(&schema, &resolved), KeyAccess::Keys(_)) {
                    keyed[shape] += 1;
                }

                // SELECT: the narrowed scan keeps what the full scan keeps.
                // An ill-typed comparison fails the full scan on the first
                // row that reaches it; the narrowed scan examines fewer
                // rows and may never meet it, so only success is compared.
                let provider = db.provider(false);
                if let Ok(full) = provider.scan_all(table).and_then(|rows| keep(rows, &resolved)) {
                    let pruned = provider
                        .scan_where(table, &resolved)
                        .and_then(|rows| keep(rows, &resolved))
                        .unwrap_or_else(|e| panic!("{ctx}: pruned scan failed: {e}"));
                    assert_eq!(pruned, full, "{ctx}");
                    let through_sql = s
                        .query(&format!("SELECT * FROM {table} WHERE {p}"))
                        .unwrap_or_else(|e| panic!("{ctx}: query failed: {e}"));
                    assert_eq!(sorted(through_sql), full, "{ctx}: through SQL");
                }

                // DML: `NOT (NOT (p))` keeps the same rows and names no key.
                let statement = match dml {
                    0..=54 => "UPDATE {t} SET v = v + 1 WHERE {p}",
                    55..=64 => "DELETE FROM {t} WHERE {p}",
                    _ => continue,
                };
                let run = |t: &str, p: &str| {
                    s.execute(&statement.replace("{t}", t).replace("{p}", p))
                };
                match (run(table, &p), run(reference, &format!("NOT (NOT ({p}))"))) {
                    (Ok(pruned), Ok(full)) => assert_eq!(pruned, full, "{ctx}: affected rows"),
                    (Err(_), Err(_)) => {}
                    // As for SELECT: the keyed statement met no ill-typed
                    // row and went through. The twins now differ by design;
                    // start the next round on fresh ones.
                    (Ok(_), Err(e)) => {
                        assert!(!e.is_retryable(), "{ctx}: {e}");
                        break 'predicates;
                    }
                    (Err(e), Ok(_)) => panic!("{ctx}: only the keyed statement failed: {e}"),
                }
                assert_eq!(contents(&db, table), contents(&db, reference), "{ctx}: table contents");
            }
        }
    }
    db.shutdown();
    keyed
}

#[test]
fn pruned_access_matches_unpruned_on_three_seeds() {
    // POLARDBX_TEST_SEED replays one seed; the default is three fixed ones.
    let seeds = match seed_from_env(0) {
        0 => vec![0x00AC_CE55_0001, 0x00AC_CE55_0002, 0x00AC_CE55_0003],
        pinned => vec![pinned],
    };
    for seed in seeds {
        let keyed = pruned_matches_unpruned(seed);
        // Both sides of the choice ran: the keyed shapes saw keyed and
        // scanned predicates, the implicit-key shape only scans.
        let total = ROUNDS * PREDICATES_PER_ROUND;
        for shape in 0..3 {
            assert!(
                keyed[shape] >= 10 && keyed[shape] < total,
                "seed {seed:#x}: {} took the keyed path {} of {total} times",
                SHAPES[shape].0,
                keyed[shape]
            );
        }
        assert_eq!(keyed[3], 0, "an implicit primary key is never named");
    }
}

// ------------------------------------------- pushed ≡ read-then-write

const EDIT_ROUNDS: usize = 3;
const EDITS_PER_ROUND: usize = 40;

impl Gen {
    /// A conjunction that binds every key column of `shape` — so the
    /// statement is keyed — to present and missing keys, lists with
    /// repeats, and for `byg` several partition values per id, some of
    /// which hash to one shard.
    fn keyed(&mut self, shape: usize) -> String {
        let id = match self.rng.gen_range(0..4) {
            0 => format!("id = {}", self.int(ROWS)),
            1 => {
                let k = self.int(ROWS);
                format!("id IN ({k}, {}, {k})", self.int(ROWS))
            }
            2 => {
                let a = self.rng.gen_range(-2..ROWS);
                format!("id >= {a} AND id < {a} + {}", self.rng.gen_range(0..6))
            }
            _ => format!("id IN ({}, {}, {})", self.int(ROWS), self.int(ROWS), self.int(ROWS)),
        };
        let rest = match (SHAPES[shape].0, self.rng.gen_bool(0.5)) {
            ("two", true) => format!(" AND s = 's{}'", self.rng.gen_range(0..3)),
            ("two", false) => " AND s IN ('s0', 's1', 's0')".to_string(),
            ("byg", true) => format!(" AND g = {}", self.int(5)),
            ("byg", false) => " AND g IN (0, 1, 2, 3, 4)".to_string(),
            _ => String::new(),
        };
        // Sometimes a residual conjunct the keys do not decide.
        let residual = match self.rng.gen_range(0..8) {
            0 => format!(" AND v = {}", self.rng.gen_range(0..4)),
            1 => " AND v IS NULL".to_string(),
            2 => format!(" AND g > {}", self.rng.gen_range(0..4)),
            3 => " AND v + 1 > 2".to_string(),
            _ => String::new(),
        };
        format!("{id}{rest}{residual}")
    }

    /// An UPDATE's `SET` list or a DELETE: plain arithmetic, NULL-producing,
    /// `NOT NULL`-violating (always, or on the rows whose `v` is NULL),
    /// ill-typed, and key-column assignments.
    fn statement(&mut self) -> &'static str {
        [
            "UPDATE {t} SET v = v + 1 WHERE {p}",
            "UPDATE {t} SET v = v + 1 WHERE {p}",
            "UPDATE {t} SET v = g * 2, s = 'x' WHERE {p}",
            "UPDATE {t} SET v = NULL WHERE {p}",
            "UPDATE {t} SET g = v WHERE {p}",
            "UPDATE {t} SET s = NULL WHERE {p}",
            "UPDATE {t} SET v = s WHERE {p}",
            "UPDATE {t} SET v = 12 / v WHERE {p}",
            "DELETE FROM {t} WHERE {p}",
        ][self.rng.gen_range(0..9)]
    }
}

/// One seed; returns how many statements ran pushed.
fn pushed_matches_read_then_write(seed: u64) -> usize {
    eprintln!("pushed-edit differential seed: POLARDBX_TEST_SEED={}", format_seed(seed));
    let db = PolarDbx::build(ClusterConfig { dns: 3, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    let mut gen = Gen { rng: StdRng::seed_from_u64(seed) };
    let mut pushed = 0;
    for round in 0..EDIT_ROUNDS {
        // The three shapes with a nameable key.
        for (shape, (kind, _)) in SHAPES.iter().enumerate().take(3) {
            let table = format!("e{kind}_{round}");
            let reference = format!("{table}_ref");
            create_and_load(&s, shape, &table);
            create_and_load(&s, shape, &reference);
            for n in 0..EDITS_PER_ROUND {
                let (p, statement) = (gen.keyed(shape), gen.statement());
                let sql = |t: &str, p: &str| statement.replace("{t}", t).replace("{p}", p);
                let ctx = format!("seed {seed:#x} round {round} #{n}: {}", sql(&table, &p));
                // `NOT (NOT (p))` keeps the same rows and names no key, so the
                // twin reads every shard back and edits on the CN. A key
                // column in the SET list is refused before either path.
                let twin = sql(&reference, &format!("NOT (NOT ({p}))"));
                if let Ok(plan) = s.explain(&sql(&table, &p)) {
                    assert!(plan.contains("pushed (1 round)"), "{ctx}: {plan}");
                    assert!(s.explain(&twin).unwrap().contains("read-then-write"), "{ctx}");
                    pushed += 1;
                }
                match (s.execute(&sql(&table, &p)), s.execute(&twin)) {
                    (Ok(pushed), Ok(read)) => assert_eq!(pushed, read, "{ctx}: affected rows"),
                    (Err(pushed), Err(read)) => assert_eq!(
                        std::mem::discriminant(&pushed),
                        std::mem::discriminant(&read),
                        "{ctx}: {pushed} vs {read}"
                    ),
                    (pushed, read) => panic!("{ctx}: pushed {pushed:?}, read-then-write {read:?}"),
                }
                assert_eq!(contents(&db, &table), contents(&db, &reference), "{ctx}: contents");
            }
        }
    }
    db.shutdown();
    pushed
}

#[test]
fn pushed_edit_matches_read_then_write_on_three_seeds() {
    let seeds = match seed_from_env(0) {
        0 => vec![0x00ED_17ED_0001, 0x00ED_17ED_0002, 0x00ED_17ED_0003],
        pinned => vec![pinned],
    };
    for seed in seeds {
        let pushed = pushed_matches_read_then_write(seed);
        let total = EDIT_ROUNDS * 3 * EDITS_PER_ROUND;
        assert!(pushed > total / 2, "seed {seed:#x}: {pushed} of {total} statements ran pushed");
    }
}
