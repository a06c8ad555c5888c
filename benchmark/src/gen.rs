//! Workload definitions and the seeded op generator.
//!
//! The program under test receives only the SQL text generated here. A
//! workload is an endless sequence of *rounds* (a round is the smallest
//! repeating unit of its mix); the same seed always yields the same
//! sequence, so the timed run, the warm-up and the traced run replay
//! prefixes of one stream.

use polardbx::ClusterConfig;
use polardbx_simnet::LatencyMatrix;
use polardbx_workloads::tpch;
use std::time::Duration;

/// What an op does; decides its read/write class and its answer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Literal `SELECT … WHERE id = k`, parsed on every call.
    PointRead,
    /// `Execute` of a prepared point SELECT (parse skipped).
    PreparedRead,
    /// `UPDATE … WHERE id = k`.
    PointUpdate,
    /// `UPDATE … WHERE id >= k AND id < k + 3`.
    RangeUpdate,
    /// Dashboard refresh: Q1, Q6, Q3, Q12 back to back.
    Refresh,
    /// Single-row INSERT into the un-indexed `refresh_log`.
    LogInsert,
    /// Single-row INSERT into the column-indexed `orders`.
    OrderInsert,
    /// Single-row INSERT into the column-indexed `lineitem`.
    LineInsert,
}

impl Tag {
    /// True for ops counted under `read_*`, false for `write_*`.
    pub fn is_read(self) -> bool {
        matches!(self, Tag::PointRead | Tag::PreparedRead | Tag::Refresh)
    }
}

/// One statement of an op, as sent over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `Query` frame with this text.
    Sql(String),
    /// `Execute` frame for the prepared statement in this slot.
    Prepared(usize),
}

/// One client op: its statements run back to back and are timed together.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Class and answer check.
    pub tag: Tag,
    /// The key the op addresses (row id, first id of a range, or new key).
    pub key: i64,
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
}

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Point reads and updates on one DC.
    OltpPoint,
    /// Point reads and multi-shard updates across three DCs.
    CrossdcTxn,
    /// Analytic refreshes beside un-indexed writes.
    HtapScan,
    /// Analytic refreshes beside writes into the indexed tables.
    HtapMixed,
}

/// Sizes of one workload. The shipped values are [`Spec::of`]; the
/// determinism test shrinks them.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence: why this workload exists.
    pub why: &'static str,
    /// Rows loaded into the point table (`b` / `acct`).
    pub rows: i64,
    /// TPC-H scale factor for the HTAP pair.
    pub scale: f64,
    /// Rounds in the warm-up pass and in the traced replay: a tenth of
    /// what the measured phase completes in 15 s at seed speed.
    pub warmup_rounds: usize,
    /// Rounds per `ops_per_s` window: a twentieth of the same.
    pub window_rounds: usize,
}

/// Prepared point SELECTs of `oltp_point`.
pub const PREPARED_SLOTS: usize = 32;
/// Seed of the TPC-H-lite data (fixed: `--seed` varies the op sequence).
pub const TPCH_SEED: u64 = 7;
/// The refresh: TPC-H-lite query numbers run back to back.
pub const REFRESH_QUERIES: [usize; 4] = [1, 6, 3, 12];
/// First key of rows inserted by the measured sequence; loaded keys are
/// far below, replayed twins of the traced run far above.
pub const NEW_KEY_BASE: i64 = 1_000_000;
/// Key offset of the in-process twin of a traced write.
pub const TWIN_KEY_OFFSET: i64 = 1_000_000_000;

impl Spec {
    /// The shipped sizes.
    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::OltpPoint => Spec {
                kind,
                name: "oltp_point",
                why: "point SELECT/Execute/UPDATE on one DC: front, sql, optimizer, core routing and the TP row path do the work; columnar, MPP and cross-DC messaging do none",
                rows: 2_000,
                scale: 0.0,
                warmup_rounds: 1_800,
                window_rounds: 900,
            },
            Kind::CrossdcTxn => Spec {
                kind,
                name: "crossdc_txn",
                why: "3 DCs at 1 ms RTT, a third of the ops 3-row updates spanning DNs: txn, hlc, simnet and the commit path set write latency through message rounds; plain reads bypass simnet",
                rows: 240,
                scale: 0.0,
                warmup_rounds: 450,
                window_rounds: 225,
            },
            Kind::HtapScan => Spec {
                kind,
                name: "htap_scan",
                why: "TPC-H-lite Q1/Q6/Q3/Q12 refreshes on RO replicas and column indexes beside un-indexed inserts: executor, columnar and storage scans do the work; index maintenance does none",
                rows: 0,
                scale: 0.1,
                warmup_rounds: 40,
                window_rounds: 20,
            },
            Kind::HtapMixed => Spec {
                kind,
                name: "htap_mixed",
                why: "the same refreshes after inserts into the column-indexed tables: index rebuild-on-write and RO catch-up, which htap_scan bypasses, dominate the writes",
                rows: 0,
                scale: 0.1,
                warmup_rounds: 18,
                window_rounds: 9,
            },
        }
    }

    /// All four, in reporting order.
    pub fn all() -> Vec<Spec> {
        [
            Kind::OltpPoint,
            Kind::CrossdcTxn,
            Kind::HtapScan,
            Kind::HtapMixed,
        ]
        .into_iter()
        .map(Spec::of)
        .collect()
    }

    /// Look a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    /// Cluster shape. Every field not named here keeps its default.
    pub fn cluster(&self) -> ClusterConfig {
        match self.kind {
            Kind::OltpPoint => ClusterConfig {
                dcs: 1,
                dns: 2,
                ..Default::default()
            },
            Kind::CrossdcTxn => ClusterConfig {
                dcs: 3,
                cns_per_dc: 1,
                dns: 3,
                latency: self.latency(),
                ..Default::default()
            },
            Kind::HtapScan | Kind::HtapMixed => ClusterConfig {
                dcs: 1,
                dns: 2,
                ros_per_dn: 1,
                ..Default::default()
            },
        }
    }

    /// The network model: the paper's ≈ 1 ms cross-DC round trip, without
    /// jitter so that the message rounds are the only variable.
    pub fn latency(&self) -> LatencyMatrix {
        match self.kind {
            Kind::CrossdcTxn => LatencyMatrix {
                intra_dc: Duration::ZERO,
                inter_dc: Duration::from_micros(500),
                jitter: 0.0,
            },
            _ => LatencyMatrix::zero(),
        }
    }

    /// The point table's name, for the workloads that have one.
    pub fn point_table(&self) -> Option<&'static str> {
        match self.kind {
            Kind::OltpPoint => Some("b"),
            Kind::CrossdcTxn => Some("acct"),
            _ => None,
        }
    }

    /// True for the HTAP pair.
    pub fn is_htap(&self) -> bool {
        matches!(self.kind, Kind::HtapScan | Kind::HtapMixed)
    }

    /// Texts of the statements prepared once per connection.
    pub fn prepared_sql(&self) -> Vec<String> {
        match self.kind {
            Kind::OltpPoint => (0..PREPARED_SLOTS)
                .map(|slot| format!("SELECT v FROM b WHERE id = {}", self.hot_key(slot)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The row a prepared slot reads: 32 ids spread over the table.
    pub fn hot_key(&self, slot: usize) -> i64 {
        (slot as i64 * 61 + 7) % self.rows
    }
}

/// splitmix64: small, seedable, and owned by the benchmark so that the
/// sequence cannot change under it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }
}

/// The op stream of one workload for one seed.
pub struct Generator {
    spec: Spec,
    rng: Rng,
    /// Keys handed to inserted rows so far.
    inserted: i64,
    /// Added to every inserted key: 0 for the wire sequence, multiples of
    /// [`TWIN_KEY_OFFSET`] for the traced run's in-process replays.
    key_offset: i64,
}

impl Generator {
    /// The wire sequence of `spec` for `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        Generator {
            spec: spec.clone(),
            rng: Rng::new(seed),
            inserted: 0,
            key_offset: 0,
        }
    }

    /// The same sequence with every inserted key moved by `level` twin
    /// offsets, so a replay does not collide with the rows of the original.
    pub fn twin(spec: &Spec, seed: u64, level: i64) -> Generator {
        Generator {
            key_offset: level * TWIN_KEY_OFFSET,
            ..Generator::new(spec, seed)
        }
    }

    /// The next round of ops.
    pub fn next_round(&mut self) -> Vec<Op> {
        match self.spec.kind {
            Kind::OltpPoint => vec![self.oltp_op()],
            Kind::CrossdcTxn => vec![self.crossdc_op()],
            Kind::HtapScan => vec![refresh_op(), self.log_insert()],
            Kind::HtapMixed => {
                let mut round = Vec::with_capacity(7);
                for with_line in [true, true, false, false] {
                    let (order, line) = self.new_order();
                    round.push(order);
                    round.extend(with_line.then_some(line));
                }
                round.push(refresh_op());
                round
            }
        }
    }

    fn oltp_op(&mut self) -> Op {
        let dice = self.rng.below(100);
        if dice < 60 {
            let k = self.rng.below(self.spec.rows);
            sql_op(Tag::PointRead, k, format!("SELECT v FROM b WHERE id = {k}"))
        } else if dice < 80 {
            let slot = self.rng.below(PREPARED_SLOTS as i64) as usize;
            Op {
                tag: Tag::PreparedRead,
                key: self.spec.hot_key(slot),
                stmts: vec![Stmt::Prepared(slot)],
            }
        } else {
            let k = self.rng.below(self.spec.rows);
            sql_op(
                Tag::PointUpdate,
                k,
                format!("UPDATE b SET v = v + 1 WHERE id = {k}"),
            )
        }
    }

    fn crossdc_op(&mut self) -> Op {
        // Two reads to one write: a read that follows a 2PC write waits for
        // the write's phase two (~0.6 ms), any other read does not
        // (~0.25 ms). At one to one the two kinds are equally many and the
        // read p50 falls between them; at two to one the p50 is a plain
        // read and the p90 a waiting one.
        if self.rng.below(3) != 0 {
            let k = self.rng.below(self.spec.rows);
            sql_op(
                Tag::PointRead,
                k,
                format!("SELECT bal FROM acct WHERE id = {k}"),
            )
        } else {
            let k = self.rng.below(self.spec.rows - 2);
            sql_op(
                Tag::RangeUpdate,
                k,
                format!("UPDATE acct SET bal = bal + 1 WHERE id >= {k} AND id < {k} + 3"),
            )
        }
    }

    fn new_key(&mut self) -> i64 {
        self.inserted += 1;
        NEW_KEY_BASE + self.key_offset + self.inserted
    }

    /// Row count of a TPC-H-lite table with `base` rows at scale 1.
    fn scaled(&self, base: i64) -> i64 {
        ((base as f64 * self.spec.scale) as i64).max(1)
    }

    fn log_insert(&mut self) -> Op {
        let id = self.new_key();
        let at = self.rng.below(2_557);
        sql_op(
            Tag::LogInsert,
            id,
            format!("INSERT INTO refresh_log (id, at, note) VALUES ({id}, {at}, 'dashboard')"),
        )
    }

    /// One new order: an `orders` row and its single `lineitem` row. Dates
    /// stay inside the generator's range, so Q1's `l_shipdate <= 2450`
    /// counts every new line (the freshness check relies on it).
    fn new_order(&mut self) -> (Op, Op) {
        let o = self.new_key();
        let cust = self.rng.below(self.scaled(1_500));
        let odate = self.rng.below(2_300);
        let price = 1_000 + self.rng.below(399_000);
        let order = sql_op(
            Tag::OrderInsert,
            o,
            format!(
                "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, \
                 o_orderdate, o_orderpriority, o_shippriority) VALUES \
                 ({o}, {cust}, 'O', {price}.0, {odate}, '3-MEDIUM', 0)"
            ),
        );
        let part = self.rng.below(self.scaled(2_000));
        let supp = self.rng.below(self.scaled(100));
        let qty = 1 + self.rng.below(50);
        let ext = 900 + self.rng.below(99_000);
        let ship = odate + 1 + self.rng.below(121);
        let line = sql_op(
            Tag::LineInsert,
            o,
            format!(
                "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, l_linenumber, \
                 l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, \
                 l_shipdate, l_commitdate, l_receiptdate, l_shipmode) VALUES \
                 ({o}, {part}, {supp}, 0, {qty}, {ext}.0, 0.05, 0.02, 'N', 'O', \
                 {ship}, {}, {}, 'MAIL')",
                odate + 30,
                ship + 5
            ),
        );
        (order, line)
    }
}

fn sql_op(tag: Tag, key: i64, sql: String) -> Op {
    Op {
        tag,
        key,
        stmts: vec![Stmt::Sql(sql)],
    }
}

fn refresh_op() -> Op {
    Op {
        tag: Tag::Refresh,
        key: 0,
        stmts: REFRESH_QUERIES
            .iter()
            .map(|&q| Stmt::Sql(tpch::query_sql(q).to_string()))
            .collect(),
    }
}

/// FNV-1a digest of the first `rounds` rounds of a sequence: two runs
/// drove the program with the same inputs exactly when their digests match.
pub fn sequence_digest(spec: &Spec, seed: u64, rounds: usize) -> u64 {
    let mut gen = Generator::new(spec, seed);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..rounds {
        for op in gen.next_round() {
            eat(&[op.tag as u8]);
            for stmt in &op.stmts {
                match stmt {
                    Stmt::Sql(sql) => eat(sql.as_bytes()),
                    Stmt::Prepared(slot) => eat(&(*slot as u64).to_le_bytes()),
                }
            }
        }
    }
    h
}
