//! SaaS multi-tenancy and live tenant migration (§V of the paper).
//!
//! A SaaS provider consolidates many subscriber tenants onto a few DNs.
//! When load grows, a tenant moves to another DN in milliseconds — no table
//! data moves, because storage is shared: its shards are handed over by
//! reference, under the same cutover a shard re-home runs.
//!
//! ```sh
//! cargo run --release --example saas_elasticity
//! ```

use std::collections::BTreeMap;

use polardbx::gms::shard_table_id;
use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::{DcId, Key, NodeId, Row, TenantQuotas, TrxId, Value};
use polardbx_storage::WriteOp;

/// How many shards each DN holds.
fn load(db: &PolarDbx) -> BTreeMap<NodeId, usize> {
    let mut load: BTreeMap<NodeId, usize> = db.gms().dns().into_iter().map(|dn| (dn, 0)).collect();
    for tenant in db.gms().tenants() {
        for (table, shard) in db.gms().tenant_shards(tenant.id) {
            *load.entry(db.gms().shard_dn(table, shard).expect("placed")).or_default() += 1;
        }
    }
    load
}

fn main() -> polardbx_common::Result<()> {
    let db = PolarDbx::build(ClusterConfig { dns: 3, default_shards: 2, ..Default::default() })?;
    let dns = db.gms().dns();

    // Six subscriber tenants on the first two DNs, each with an orders
    // table its own session creates.
    let mut tenants = Vec::new();
    for t in 1..=6usize {
        let tenant = db.register_tenant(&format!("subscriber{t}"), TenantQuotas::unlimited());
        let s = db.connect(DcId(1)).for_tenant(tenant);
        s.execute(&format!("CREATE TABLE orders{t} (id BIGINT NOT NULL, item VARCHAR(32), PRIMARY KEY (id))"))?;
        let values: Vec<String> = (0..200).map(|i| format!("({i}, 'order-{i}')")).collect();
        s.execute(&format!("INSERT INTO orders{t} (id, item) VALUES {}", values.join(",")))?;
        db.migrate_tenant(tenant, dns[t % 2])?;
        tenants.push(tenant);
    }
    println!("6 tenants live on 2 DNs; shards per DN: {:?}", load(&db));

    // Tenant 3 becomes hot: move it to the idle DN.
    let (hot, old, new) = (tenants[2], dns[1], dns[2]);
    let pause = db.migrate_tenant(hot, new)?;
    // The pause is what `fig8_elasticity` reports as "max pause".
    println!("migrated {hot} to {new}: cutover pause {pause:?}, zero rows copied");
    for (table, shard) in db.gms().tenant_shards(hot) {
        assert_eq!(db.gms().shard_dn(table, shard)?, new, "every shard of {hot} moved");
    }

    // Traffic follows the placement transparently.
    let rows = db.count_rows("orders3")?;
    assert_eq!(rows, 200);
    println!("{hot} still sees all {rows} rows");

    // The old DN no longer holds the tenant's stores: single writer.
    let old_dn = db.dns().into_iter().find(|dn| dn.id == old).expect("old DN");
    let stid = shard_table_id(db.gms().table("orders3")?.id, 0);
    old_dn.rw.engine.begin(TrxId(u64::MAX), 0);
    let row = Row::new(vec![Value::Int(999), Value::str("stale")]);
    let err = old_dn.rw.engine.write(TrxId(u64::MAX), stid, Key::encode(&[Value::Int(999)]), WriteOp::Insert(row));
    old_dn.rw.engine.abort(TrxId(u64::MAX));
    println!("write via old owner rejected: {}", err.expect_err("the old DN detached the store"));

    println!("final shards per DN: {:?}", load(&db));
    db.shutdown();
    Ok(())
}
