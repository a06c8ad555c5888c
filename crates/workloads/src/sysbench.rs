//! Sysbench OLTP workloads over the transaction coordinator.
//!
//! The drivers operate directly on [`polardbx_txn::Coordinator`] (no SQL
//! parsing on the hot path) so Fig 7 measures clock-scheme costs, not the
//! parser. "A transaction in oltp-write-only includes deletes, inserts and
//! index updates to different rows. While the transaction in
//! oltp-read-only consists of ten point reads and another four range
//! queries. Data access follows a random distribution" (§VII-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use polardbx_common::{Key, NodeId, Result, Row, TableId, Value};
use polardbx_txn::{Coordinator, WireWriteOp};

/// Table layout: `sbtest(id BIGINT PK, k INT, c CHAR(120), pad CHAR(60))`.
#[derive(Debug, Clone)]
pub struct SysbenchConfig {
    /// Logical rows per table.
    pub rows: i64,
    /// The sbtest table id (shard tables derived per DN by the router fn).
    pub table: TableId,
    /// Payload size of the `c` column.
    pub payload: usize,
}

impl Default for SysbenchConfig {
    fn default() -> Self {
        SysbenchConfig { rows: 10_000, table: TableId(77), payload: 120 }
    }
}

/// Maps a row id to the DN + engine-level shard table holding it. The
/// benches provide this from GMS routing or a fixed hash.
pub type RouteFn = dyn Fn(i64) -> (TableId, NodeId) + Send + Sync;

/// Build the canonical sbtest row.
pub fn sbtest_row(cfg: &SysbenchConfig, id: i64, rng: &mut StdRng) -> Row {
    let k: i64 = rng.gen_range(0..cfg.rows);
    Row::new(vec![
        Value::Int(id),
        Value::Int(k),
        Value::Str("c".repeat(cfg.payload)),
        Value::Str("p".repeat(cfg.payload / 2)),
    ])
}

/// Primary key of row `id`.
pub fn pk(id: i64) -> Key {
    Key::encode(&[Value::Int(id)])
}

/// Seed `rows` rows through `route` (one transaction per batch of 64).
pub fn seed(
    cfg: &SysbenchConfig,
    coord: &Coordinator,
    route: &RouteFn,
    seed: u64,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut txn = coord.begin();
    for id in 0..cfg.rows {
        let (table, dn) = route(id);
        txn.write(dn, table, pk(id), WireWriteOp::Insert(sbtest_row(cfg, id, &mut rng)))?;
        if id % 64 == 63 {
            txn.commit()?;
            txn = coord.begin();
        }
    }
    txn.commit()?;
    Ok(())
}

/// One `oltp-point-select` operation.
pub fn point_select(
    cfg: &SysbenchConfig,
    coord: &Coordinator,
    route: &RouteFn,
    rng: &mut StdRng,
) -> Result<()> {
    let id = rng.gen_range(0..cfg.rows);
    let (table, dn) = route(id);
    coord.read_autocommit(dn, table, &pk(id))?;
    Ok(())
}

/// One `oltp-read-only` transaction: ten point reads + four range queries.
pub fn read_only(
    cfg: &SysbenchConfig,
    coord: &Coordinator,
    route: &RouteFn,
    rng: &mut StdRng,
) -> Result<()> {
    let mut txn = coord.begin();
    for _ in 0..10 {
        let id = rng.gen_range(0..cfg.rows);
        let (table, dn) = route(id);
        txn.read(dn, table, &pk(id))?;
    }
    for _ in 0..4 {
        let lo = rng.gen_range(0..cfg.rows.saturating_sub(100).max(1));
        let (table, dn) = route(lo);
        txn.scan(dn, table, Some(pk(lo)), Some(pk(lo + 100)))?;
    }
    txn.commit()?;
    Ok(())
}

/// One `oltp-write-only` transaction: a delete, an insert (re-insert of the
/// deleted id, keeping the table stable) and two index-style updates on
/// other rows — "deletes, inserts and index updates to different rows".
pub fn write_only(
    cfg: &SysbenchConfig,
    coord: &Coordinator,
    route: &RouteFn,
    rng: &mut StdRng,
) -> Result<()> {
    let del_id = rng.gen_range(0..cfg.rows);
    let upd1 = rng.gen_range(0..cfg.rows);
    let upd2 = rng.gen_range(0..cfg.rows);
    let mut txn = coord.begin();
    let (t_del, dn_del) = route(del_id);
    txn.write(dn_del, t_del, pk(del_id), WireWriteOp::Delete)?;
    txn.write(
        dn_del,
        t_del,
        pk(del_id),
        WireWriteOp::Update(sbtest_row(cfg, del_id, rng)),
    )?;
    for id in [upd1, upd2] {
        let (t, dn) = route(id);
        txn.write(dn, t, pk(id), WireWriteOp::Update(sbtest_row(cfg, id, rng)))?;
    }
    txn.commit()?;
    Ok(())
}

/// One `oltp-read-write` transaction: the read-only body plus the
/// write-only body under one commit.
pub fn read_write(
    cfg: &SysbenchConfig,
    coord: &Coordinator,
    route: &RouteFn,
    rng: &mut StdRng,
) -> Result<()> {
    let mut txn = coord.begin();
    for _ in 0..4 {
        let id = rng.gen_range(0..cfg.rows);
        let (table, dn) = route(id);
        txn.read(dn, table, &pk(id))?;
    }
    for _ in 0..2 {
        let id = rng.gen_range(0..cfg.rows);
        let (table, dn) = route(id);
        txn.write(dn, table, pk(id), WireWriteOp::Update(sbtest_row(cfg, id, rng)))?;
    }
    txn.commit()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{DcId, IdGenerator, TenantId};
    use polardbx_hlc::Hlc;
    use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
    use polardbx_storage::StorageEngine;
    use polardbx_txn::{DnService, TxnMsg};
    use std::sync::Arc;

    struct CnStub;
    impl Handler<TxnMsg> for CnStub {
        fn handle(&self, _f: polardbx_common::NodeId, m: TxnMsg) -> TxnMsg {
            m
        }
    }

    fn world() -> (Coordinator, Vec<Arc<DnService>>, SysbenchConfig) {
        let net = SimNet::new(LatencyMatrix::zero());
        let cfg = SysbenchConfig { rows: 500, ..Default::default() };
        let mut dns = Vec::new();
        for i in 1..=3u64 {
            let engine = StorageEngine::in_memory();
            // One shard table per DN.
            engine.create_table(TableId(cfg.table.raw() * 10 + i), TenantId(1));
            let dn = DnService::new(NodeId(i), engine, Hlc::new());
            net.register(NodeId(i), DcId(i), dn.clone() as Arc<dyn Handler<TxnMsg>>);
            dns.push(dn);
        }
        net.register(NodeId(9), DcId(1), Arc::new(CnStub));
        let coord =
            Coordinator::new(NodeId(9), net, Hlc::new(), Arc::new(IdGenerator::new()));
        (coord, dns, cfg)
    }

    fn route_for(cfg: &SysbenchConfig) -> Box<RouteFn> {
        let base = cfg.table.raw() * 10;
        Box::new(move |id: i64| {
            let dn = 1 + (id as u64 % 3);
            (TableId(base + dn), NodeId(dn))
        })
    }

    #[test]
    fn seed_then_mixed_workload() {
        let (coord, dns, cfg) = world();
        let route = route_for(&cfg);
        seed(&cfg, &coord, &route, 42).unwrap();
        let total: usize = dns
            .iter()
            .enumerate()
            .map(|(i, dn)| {
                dn.engine
                    .count_rows(TableId(cfg.table.raw() * 10 + i as u64 + 1), u64::MAX)
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 500);

        // Phase two of a 2PC commit is posted after the client is answered,
        // and a writer does not wait for a row another transaction still
        // holds PREPARED: one client's next transaction can bounce off its
        // own last one with a retryable `WriteConflict`. A driver retries.
        let mut rng = StdRng::seed_from_u64(7);
        let mut retrying = |op: fn(&SysbenchConfig, &Coordinator, &RouteFn, &mut StdRng) -> Result<()>| {
            let done = (0..100).any(|_| match op(&cfg, &coord, &route, &mut rng) {
                Ok(()) => true,
                Err(e) => {
                    assert!(e.is_retryable(), "{e:?}");
                    std::thread::yield_now();
                    false
                }
            });
            assert!(done, "100 retryable failures in a row");
        };
        for _ in 0..20 {
            retrying(point_select);
            retrying(read_only);
            retrying(write_only);
            retrying(read_write);
        }
        // Write-only keeps the row population stable (delete + re-insert).
        let total_after: usize = dns
            .iter()
            .enumerate()
            .map(|(i, dn)| {
                dn.engine
                    .count_rows(TableId(cfg.table.raw() * 10 + i as u64 + 1), u64::MAX)
                    .unwrap()
            })
            .sum();
        assert_eq!(total_after, 500);
    }

    #[test]
    fn deterministic_rows() {
        let cfg = SysbenchConfig::default();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(sbtest_row(&cfg, 5, &mut a), sbtest_row(&cfg, 5, &mut b));
    }
}
