//! TPC-C-lite: the transactional side of the HTAP experiment (Fig 9).
//!
//! A scaled-down TPC-C with the NewOrder + Payment mix over the classic
//! schema (warehouse, district, customer, stock, item, orders,
//! order_line). tpmC — NewOrder commits per minute — is the metric whose
//! stability under concurrent TPC-H load Fig 9(a) tracks.

use rand::rngs::StdRng;
use rand::Rng;

use polardbx::{PolarDbx, Session};
use polardbx_common::{Key, NodeId, Result, Row, TableId, Value};
use polardbx_txn::{DistTxn, WireWriteOp};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: i64,
    /// Districts per warehouse (TPC-C fixes 10; configurable for speed).
    pub districts: i64,
    /// Customers per district.
    pub customers: i64,
    /// Item catalog size.
    pub items: i64,
    /// Partition every cc_* table by its warehouse column alone (one
    /// partition group per warehouse) instead of the classic composite
    /// hash. Composite hashing scatters a warehouse's rows across DNs, so
    /// even warehouse-local transactions pay 2PC; warehouse partitioning
    /// gives the adaptive placer partitions it can actually colocate.
    pub by_warehouse: bool,
    /// Probability that a worker's transaction targets its *home*
    /// warehouse (the `*_at` entry points) instead of a uniformly random
    /// one. High affinity + `by_warehouse` is the skewed mix of the
    /// placement experiment.
    pub home_affinity: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 2,
            districts: 4,
            customers: 30,
            items: 100,
            by_warehouse: false,
            home_affinity: 0.0,
        }
    }
}

impl TpccConfig {
    /// The skewed warehouse-affinity configuration of the placement bench:
    /// warehouse-pure partitions, workers glued to home warehouses.
    pub fn skewed(warehouses: i64) -> TpccConfig {
        TpccConfig {
            warehouses,
            districts: 2,
            customers: 20,
            items: 50,
            by_warehouse: true,
            home_affinity: 0.9,
        }
    }
}

/// The TPC-C-lite driver.
pub struct TpccDriver {
    cfg: TpccConfig,
}

impl TpccDriver {
    /// Create the schema and load initial data.
    pub fn setup(db: &PolarDbx, cfg: TpccConfig) -> Result<TpccDriver> {
        let s = db.connect(polardbx_common::DcId(1));
        // `by_warehouse`: hash on the warehouse column with one partition
        // per warehouse — same single-column hash in every table, so a
        // warehouse's partitions form a colocatable group.
        let w_shards = cfg.warehouses.max(1) as u32;
        let pb = |bw_col: &str, classic: &str| {
            if cfg.by_warehouse {
                format!("PARTITION BY HASH({bw_col}) PARTITIONS {w_shards}")
            } else {
                format!("PARTITION BY HASH({classic}) PARTITIONS 4")
            }
        };
        s.execute(&format!(
            "CREATE TABLE cc_warehouse (w_id BIGINT NOT NULL, w_ytd DOUBLE, \
             PRIMARY KEY (w_id)) {}",
            pb("w_id", "w_id")
        ))?;
        s.execute(&format!(
            "CREATE TABLE cc_district (d_w_id BIGINT NOT NULL, d_id BIGINT NOT NULL, \
             d_next_o_id BIGINT, d_ytd DOUBLE, PRIMARY KEY (d_w_id, d_id)) {}",
            pb("d_w_id", "d_w_id, d_id")
        ))?;
        s.execute(&format!(
            "CREATE TABLE cc_customer (c_w_id BIGINT NOT NULL, c_d_id BIGINT NOT NULL, \
             c_id BIGINT NOT NULL, c_balance DOUBLE, c_ytd_payment DOUBLE, \
             PRIMARY KEY (c_w_id, c_d_id, c_id)) {}",
            pb("c_w_id", "c_w_id, c_d_id, c_id")
        ))?;
        s.execute(
            "CREATE TABLE cc_item (i_id BIGINT NOT NULL, i_price DOUBLE, i_name VARCHAR(24), \
             PRIMARY KEY (i_id)) PARTITION BY HASH(i_id) PARTITIONS 4",
        )?;
        s.execute(&format!(
            "CREATE TABLE cc_stock (s_w_id BIGINT NOT NULL, s_i_id BIGINT NOT NULL, \
             s_quantity BIGINT, PRIMARY KEY (s_w_id, s_i_id)) {}",
            pb("s_w_id", "s_w_id, s_i_id")
        ))?;
        s.execute(&format!(
            "CREATE TABLE cc_orders (o_w_id BIGINT NOT NULL, o_d_id BIGINT NOT NULL, \
             o_id BIGINT NOT NULL, o_c_id BIGINT, o_entry_d BIGINT, o_ol_cnt BIGINT, \
             PRIMARY KEY (o_w_id, o_d_id, o_id)) {}",
            pb("o_w_id", "o_w_id, o_d_id, o_id")
        ))?;
        s.execute(&format!(
            "CREATE TABLE cc_order_line (ol_w_id BIGINT NOT NULL, ol_d_id BIGINT NOT NULL, \
             ol_o_id BIGINT NOT NULL, ol_number BIGINT NOT NULL, ol_i_id BIGINT, \
             ol_quantity BIGINT, ol_amount DOUBLE, \
             PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) {}",
            pb("ol_w_id", "ol_w_id, ol_d_id, ol_o_id")
        ))?;

        // Load through the coordinator (no SQL on the hot path). Loading
        // routes *unfenced*: bulk transactions touch far more partitions
        // than the commit-time pin budget, and no re-home runs during
        // setup.
        let coord = s.coordinator();
        let mut txn = coord.begin();
        let mut writes = 0usize;
        let push = |txn: &mut polardbx_txn::DistTxn<'_>,
                        writes: &mut usize,
                        table: &str,
                        pk: &[Value],
                        row: Row|
         -> Result<()> {
            let rv: &[Value] =
                if cfg.by_warehouse && table != "cc_item" { &pk[..1] } else { pk };
            let (stid, dn) = s.route(table, rv)?;
            txn.write(dn, stid, Key::encode(pk), WireWriteOp::Insert(row))?;
            *writes += 1;
            Ok(())
        };
        for w in 0..cfg.warehouses {
            push(
                &mut txn,
                &mut writes,
                "cc_warehouse",
                &[Value::Int(w)],
                Row::new(vec![Value::Int(w), Value::Double(0.0)]),
            )?;
            for d in 0..cfg.districts {
                push(
                    &mut txn,
                    &mut writes,
                    "cc_district",
                    &[Value::Int(w), Value::Int(d)],
                    Row::new(vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(1),
                        Value::Double(0.0),
                    ]),
                )?;
                for c in 0..cfg.customers {
                    push(
                        &mut txn,
                        &mut writes,
                        "cc_customer",
                        &[Value::Int(w), Value::Int(d), Value::Int(c)],
                        Row::new(vec![
                            Value::Int(w),
                            Value::Int(d),
                            Value::Int(c),
                            Value::Double(100.0),
                            Value::Double(0.0),
                        ]),
                    )?;
                    if writes > 96 {
                        txn.commit()?;
                        txn = coord.begin();
                        writes = 0;
                    }
                }
            }
            for i in 0..cfg.items {
                push(
                    &mut txn,
                    &mut writes,
                    "cc_stock",
                    &[Value::Int(w), Value::Int(i)],
                    Row::new(vec![Value::Int(w), Value::Int(i), Value::Int(1000)]),
                )?;
                if writes > 96 {
                    txn.commit()?;
                    txn = coord.begin();
                    writes = 0;
                }
            }
        }
        for i in 0..cfg.items {
            push(
                &mut txn,
                &mut writes,
                "cc_item",
                &[Value::Int(i)],
                Row::new(vec![
                    Value::Int(i),
                    Value::Double(1.0 + (i % 100) as f64),
                    Value::Str(format!("item-{i}")),
                ]),
            )?;
            if writes > 96 {
                txn.commit()?;
                txn = coord.begin();
                writes = 0;
            }
        }
        txn.commit()?;
        db.gms().record_rows("cc_order_line", 0);
        Ok(TpccDriver { cfg })
    }

    /// Partition-key values to route by: the warehouse column alone under
    /// `by_warehouse` (cc_item keeps its own key).
    fn route_vals<'v>(&self, table: &str, pk: &'v [Value]) -> &'v [Value] {
        if self.cfg.by_warehouse && table != "cc_item" {
            &pk[..1]
        } else {
            pk
        }
    }

    /// Route a read (no epoch pin — read-only partitions don't fence).
    fn route_read(&self, s: &Session, table: &str, pk: &[Value]) -> Result<(TableId, NodeId)> {
        s.route(table, self.route_vals(table, pk))
    }

    /// Route a write and pin the shard's routing epoch on the transaction,
    /// so a concurrent re-home aborts the commit retryably instead of
    /// letting it land on the old home.
    fn route_write(
        &self,
        s: &Session,
        txn: &mut DistTxn<'_>,
        table: &str,
        pk: &[Value],
    ) -> Result<(TableId, NodeId)> {
        let (stid, dn, epoch) = s.route_fenced(table, self.route_vals(table, pk))?;
        txn.pin_epoch(stid, epoch)?;
        Ok((stid, dn))
    }

    /// Pick a warehouse: the home one with probability `home_affinity`,
    /// uniform otherwise.
    fn pick_warehouse(&self, rng: &mut StdRng, home: i64) -> i64 {
        if self.cfg.home_affinity > 0.0 && rng.gen_bool(self.cfg.home_affinity) {
            home.rem_euclid(self.cfg.warehouses.max(1))
        } else {
            rng.gen_range(0..self.cfg.warehouses)
        }
    }

    /// NewOrder pinned to warehouse `w` (placement bench workers keep a
    /// home warehouse; see [`TpccDriver::transaction_from`]).
    pub fn new_order_at(&self, s: &Session, rng: &mut StdRng, w: i64) -> Result<()> {
        let d = rng.gen_range(0..self.cfg.districts);
        let c = rng.gen_range(0..self.cfg.customers);
        let coord = s.coordinator();
        let mut txn = coord.begin();

        // District: fetch + bump next order id (the contention point).
        let dpk = [Value::Int(w), Value::Int(d)];
        let (d_tid, d_dn) = self.route_write(s, &mut txn, "cc_district", &dpk)?;
        let drow = txn
            .read(d_dn, d_tid, &Key::encode(&dpk))?
            .ok_or(polardbx_common::Error::KeyNotFound)?;
        let o_id = drow.get(2)?.as_int()?;
        let mut new_d = drow.clone();
        new_d.set(2, Value::Int(o_id + 1))?;
        txn.write(d_dn, d_tid, Key::encode(&dpk), WireWriteOp::Update(new_d))?;

        // Order header.
        let ol_cnt = rng.gen_range(5..=15i64);
        let opk = [Value::Int(w), Value::Int(d), Value::Int(o_id)];
        let (o_tid, o_dn) = self.route_write(s, &mut txn, "cc_orders", &opk)?;
        txn.write(
            o_dn,
            o_tid,
            Key::encode(&opk),
            WireWriteOp::Insert(Row::new(vec![
                Value::Int(w),
                Value::Int(d),
                Value::Int(o_id),
                Value::Int(c),
                Value::Int(rng.gen_range(0..2557)),
                Value::Int(ol_cnt),
            ])),
        )?;

        // Order lines: read item price, decrement stock, insert line.
        for ol in 0..ol_cnt {
            let item = rng.gen_range(0..self.cfg.items);
            let ipk = [Value::Int(item)];
            let (i_tid, i_dn) = self.route_read(s, "cc_item", &ipk)?;
            let irow = txn
                .read(i_dn, i_tid, &Key::encode(&ipk))?
                .ok_or(polardbx_common::Error::KeyNotFound)?;
            let price = irow.get(1)?.as_double()?;
            let qty = rng.gen_range(1..=10i64);

            let spk = [Value::Int(w), Value::Int(item)];
            let (s_tid, s_dn) = self.route_write(s, &mut txn, "cc_stock", &spk)?;
            let srow = txn
                .read(s_dn, s_tid, &Key::encode(&spk))?
                .ok_or(polardbx_common::Error::KeyNotFound)?;
            let mut new_s = srow.clone();
            let have = srow.get(2)?.as_int()?;
            new_s.set(2, Value::Int(if have > qty { have - qty } else { have + 91 }))?;
            txn.write(s_dn, s_tid, Key::encode(&spk), WireWriteOp::Update(new_s))?;

            let lpk = [Value::Int(w), Value::Int(d), Value::Int(o_id), Value::Int(ol)];
            let (l_tid, l_dn) = self.route_write(s, &mut txn, "cc_order_line", &lpk)?;
            txn.write(
                l_dn,
                l_tid,
                Key::encode(&lpk),
                WireWriteOp::Insert(Row::new(vec![
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(o_id),
                    Value::Int(ol),
                    Value::Int(item),
                    Value::Int(qty),
                    Value::Double(price * qty as f64),
                ])),
            )?;
        }
        txn.commit()?;
        Ok(())
    }

    /// Payment pinned to warehouse `w`.
    pub fn payment_at(&self, s: &Session, rng: &mut StdRng, w: i64) -> Result<()> {
        let d = rng.gen_range(0..self.cfg.districts);
        let c = rng.gen_range(0..self.cfg.customers);
        let amount = rng.gen_range(1.0..500.0);
        let coord = s.coordinator();
        let mut txn = coord.begin();

        let wpk = [Value::Int(w)];
        let (w_tid, w_dn) = self.route_write(s, &mut txn, "cc_warehouse", &wpk)?;
        let wrow = txn
            .read(w_dn, w_tid, &Key::encode(&wpk))?
            .ok_or(polardbx_common::Error::KeyNotFound)?;
        let mut new_w = wrow.clone();
        new_w.set(1, Value::Double(wrow.get(1)?.as_double()? + amount))?;
        txn.write(w_dn, w_tid, Key::encode(&wpk), WireWriteOp::Update(new_w))?;

        let dpk = [Value::Int(w), Value::Int(d)];
        let (d_tid, d_dn) = self.route_write(s, &mut txn, "cc_district", &dpk)?;
        let drow = txn
            .read(d_dn, d_tid, &Key::encode(&dpk))?
            .ok_or(polardbx_common::Error::KeyNotFound)?;
        let mut new_d = drow.clone();
        new_d.set(3, Value::Double(drow.get(3)?.as_double()? + amount))?;
        txn.write(d_dn, d_tid, Key::encode(&dpk), WireWriteOp::Update(new_d))?;

        let cpk = [Value::Int(w), Value::Int(d), Value::Int(c)];
        let (c_tid, c_dn) = self.route_write(s, &mut txn, "cc_customer", &cpk)?;
        let crow = txn
            .read(c_dn, c_tid, &Key::encode(&cpk))?
            .ok_or(polardbx_common::Error::KeyNotFound)?;
        let mut new_c = crow.clone();
        new_c.set(3, Value::Double(crow.get(3)?.as_double()? - amount))?;
        new_c.set(4, Value::Double(crow.get(4)?.as_double()? + amount))?;
        txn.write(c_dn, c_tid, Key::encode(&cpk), WireWriteOp::Update(new_c))?;

        txn.commit()?;
        Ok(())
    }

    /// The standard mix: ~45 % NewOrder, ~43 % Payment, rest reads.
    /// Returns true when the transaction counted toward tpmC (NewOrder).
    pub fn transaction(&self, s: &Session, rng: &mut StdRng) -> Result<bool> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        self.transaction_from(s, rng, w)
    }

    /// The standard mix driven by a worker whose home warehouse is `home`:
    /// with probability `home_affinity` the transaction targets `home`,
    /// else a uniform warehouse. `transaction` delegates here with a
    /// uniformly random home, which degenerates to the classic mix.
    pub fn transaction_from(&self, s: &Session, rng: &mut StdRng, home: i64) -> Result<bool> {
        let dice = rng.gen_range(0..100);
        let w = self.pick_warehouse(rng, home);
        if dice < 45 {
            self.new_order_at(s, rng, w)?;
            Ok(true)
        } else if dice < 88 {
            self.payment_at(s, rng, w)?;
            Ok(false)
        } else {
            // Order-status style read.
            let d = rng.gen_range(0..self.cfg.districts);
            let c = rng.gen_range(0..self.cfg.customers);
            let cpk = [Value::Int(w), Value::Int(d), Value::Int(c)];
            let (c_tid, c_dn) = self.route_read(s, "cc_customer", &cpk)?;
            s.coordinator().read_autocommit(c_dn, c_tid, &Key::encode(&cpk))?;
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx::ClusterConfig;
    use rand::SeedableRng;

    #[test]
    fn setup_and_run_mix() {
        let db = PolarDbx::build(ClusterConfig { dns: 2, ..Default::default() }).unwrap();
        let driver = TpccDriver::setup(&db, TpccConfig::default()).unwrap();
        let s = db.connect(polardbx_common::DcId(1));
        let mut rng = StdRng::seed_from_u64(11);
        let mut new_orders = 0;
        let mut attempts = 0;
        while new_orders < 5 && attempts < 200 {
            attempts += 1;
            match driver.transaction(&s, &mut rng) {
                Ok(true) => new_orders += 1,
                Ok(false) => {}
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(new_orders >= 5, "NewOrders must commit");
        // Orders and lines landed.
        assert!(db.count_rows("cc_orders").unwrap() >= 5);
        assert!(db.count_rows("cc_order_line").unwrap() >= 25);
        db.shutdown();
    }

    #[test]
    fn skewed_mix_runs_warehouse_pure() {
        // by_warehouse partitioning + home affinity: the placement-bench
        // configuration must execute the full mix with fenced routing.
        let db = PolarDbx::build(ClusterConfig { dns: 2, ..Default::default() }).unwrap();
        let driver = TpccDriver::setup(&db, TpccConfig::skewed(4)).unwrap();
        let s = db.connect(polardbx_common::DcId(1));
        let mut rng = StdRng::seed_from_u64(7);
        let mut new_orders = 0;
        for _ in 0..120 {
            match driver.transaction_from(&s, &mut rng, 1) {
                Ok(true) => new_orders += 1,
                Ok(false) => {}
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("unexpected: {e}"),
            }
            if new_orders >= 5 {
                break;
            }
        }
        assert!(new_orders >= 5, "NewOrders must commit under skewed config");
        assert!(db.count_rows("cc_orders").unwrap() >= 5);
        db.shutdown();
    }

    #[test]
    fn money_conservation_under_payments() {
        let db = PolarDbx::build(ClusterConfig { dns: 2, ..Default::default() }).unwrap();
        let cfg =
            TpccConfig { warehouses: 1, districts: 2, customers: 5, items: 10, ..Default::default() };
        let driver = TpccDriver::setup(&db, cfg.clone()).unwrap();
        let s = db.connect(polardbx_common::DcId(1));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let _ = driver.payment_at(&s, &mut rng, 0);
        }
        // Sum of warehouse ytd equals sum of customer ytd_payment.
        let w = s.query("SELECT SUM(w_ytd) FROM cc_warehouse").unwrap();
        let c = s.query("SELECT SUM(c_ytd_payment) FROM cc_customer").unwrap();
        let wy = w[0].get(0).unwrap().as_double().unwrap();
        let cy = c[0].get(0).unwrap().as_double().unwrap();
        assert!((wy - cy).abs() < 1e-6, "w_ytd {wy} != c_ytd {cy}");
        db.shutdown();
    }
}
