//! SaaS multi-tenancy and live tenant migration (§V of the paper).
//!
//! A SaaS provider consolidates many subscriber tenants onto a few RW
//! nodes. When load grows, new RW nodes join and tenants migrate to them
//! in milliseconds — no table data moves, because storage is shared.
//!
//! ```sh
//! cargo run --release --example saas_elasticity
//! ```

use std::sync::Arc;
use std::time::Duration;

use polardbx_common::{Key, NodeId, Row, TableId, TenantId, Value};
use polardbx_mt::{migrate_tenant, BindingTable, DataDictionary, MtRwNode, Router};
use polardbx_storage::WriteOp;

fn main() -> polardbx_common::Result<()> {
    // Control plane: the shared binding table and data dictionary.
    let bindings = Arc::new(BindingTable::new(Duration::from_secs(30)));
    let dict = DataDictionary::new(NodeId(1));
    let router = Router::new(Arc::clone(&bindings));

    // Two RW nodes to start.
    for n in 1..=2u64 {
        router.add_node(MtRwNode::new(NodeId(n), Arc::clone(&bindings)));
        bindings.acquire_lease(NodeId(n));
    }

    // Six subscriber tenants, three per node, each with an orders table.
    for t in 1..=6u64 {
        let tenant = TenantId(t);
        bindings.bind(tenant, NodeId(1 + (t - 1) % 2));
        router.execute(tenant, |node| {
            node.create_table(TableId(t), tenant)?;
            for i in 0..200i64 {
                node.write_row(
                    tenant,
                    TableId(t),
                    Key::encode(&[Value::Int(i)]),
                    WriteOp::Insert(Row::new(vec![
                        Value::Int(i),
                        Value::Str(format!("order-{i} of tenant {t}")),
                    ])),
                )?;
            }
            Ok(())
        })?;
    }
    println!("6 tenants live on 2 RW nodes; load: {:?}", bindings.load_distribution());

    // Tenant 3 becomes hot — scale out: add a node, migrate the tenant.
    router.add_node(MtRwNode::new(NodeId(3), Arc::clone(&bindings)));
    bindings.acquire_lease(NodeId(3));
    let report = migrate_tenant(&router, &dict, &bindings, TenantId(3), NodeId(3))?;
    // The pause is what `fig8_elasticity` reports as "max pause".
    println!(
        "migrated tenant 3 in {:?} (cutover pause {:?}, {} dirty pages flushed) — zero rows copied",
        report.total, report.pause, report.pages_flushed
    );

    // Traffic follows the binding transparently.
    let rows = router.execute(TenantId(3), |node| {
        println!("tenant 3 now served by {}", node.id);
        node.count_rows(TableId(3))
    })?;
    println!("tenant 3 still sees all {rows} rows");

    // Writes to the old node are rejected — single-writer per tenant.
    let old = router.node(NodeId(1)).unwrap();
    let err = old.write_row(
        TenantId(3),
        TableId(3),
        Key::encode(&[Value::Int(999)]),
        WriteOp::Insert(Row::new(vec![Value::Int(999), Value::str("stale")])),
    );
    println!("write via old owner rejected: {}", err.unwrap_err());

    println!("final load: {:?}", bindings.load_distribution());
    Ok(())
}
