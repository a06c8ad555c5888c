//! The Global Meta Service (§II-A).
//!
//! "The GMS is the control plane of PolarDB-X. It manages the system's
//! metadata, such as cluster membership, catalog tables, table/index
//! partition rules, locations of shards, and statistics. … it schedules
//! data redistribution according to the load."

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx_common::{
    Error, IdGenerator, NodeId, Result, Row, TableId, TableSchema, TenantId, TenantMeta,
    TenantQuotas, Value,
};
use polardbx_optimizer::{Statistics, TableStats};
use polardbx_placement::EpochMap;
use polardbx_txn::RoutingFence;

/// Derive the engine-level table id for one shard of a logical table.
/// Engines store each shard as its own table; 10 000 shards per table is
/// the address-space bound (far above the paper's configurations).
pub fn shard_table_id(table: TableId, shard: u32) -> TableId {
    TableId(table.raw() * 10_000 + shard as u64)
}

/// Catalog + placement + statistics.
pub struct Gms {
    tables: RwLock<HashMap<String, TableSchema>>,
    /// The catalog generation: bumped after every DDL has changed the
    /// catalog. A cached plan is valid for the generation read before the
    /// catalog it was built from.
    generation: AtomicU64,
    /// (logical table, shard) → DN node hosting it.
    placement: RwLock<HashMap<(TableId, u32), NodeId>>,
    /// Logical table → the tenant owning it: the unit a tenant migration
    /// moves (§V). Ownership places data; it grants no access.
    owners: RwLock<HashMap<TableId, TenantId>>,
    /// Table-group → anchor table placements (shared shard placement).
    group_anchor: RwLock<HashMap<String, TableId>>,
    /// Shared by every statement that reads it; writers copy on write.
    stats: RwLock<Arc<Statistics>>,
    table_ids: IdGenerator,
    /// Auto-increment sequences for implicit primary keys.
    sequences: RwLock<HashMap<TableId, Arc<IdGenerator>>>,
    dns: RwLock<Vec<NodeId>>,
    /// Routing epochs per shard table: the fence that keeps live-traffic
    /// re-homes from split-braining (see `polardbx-placement`).
    epochs: Arc<EpochMap>,
    /// Front-door tenant catalog: the wire handshake names a tenant, the
    /// admission controller enforces its quotas.
    tenants: RwLock<HashMap<TenantId, TenantMeta>>,
    tenant_ids: IdGenerator,
}

impl Gms {
    /// Empty metadata service.
    pub fn new() -> Arc<Gms> {
        Arc::new(Gms {
            tables: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
            placement: RwLock::new(HashMap::new()),
            owners: RwLock::new(HashMap::new()),
            group_anchor: RwLock::new(HashMap::new()),
            stats: RwLock::new(Arc::new(Statistics::new())),
            table_ids: IdGenerator::new(),
            sequences: RwLock::new(HashMap::new()),
            dns: RwLock::new(Vec::new()),
            epochs: Arc::new(EpochMap::new()),
            tenants: RwLock::new(HashMap::new()),
            tenant_ids: IdGenerator::new(),
        })
    }

    /// Register a front-door tenant with its admission quotas; returns the
    /// allocated tenant id (the wire handshake carries its raw value).
    pub fn register_tenant(&self, name: &str, quotas: TenantQuotas) -> TenantId {
        let id = TenantId(self.tenant_ids.next_id());
        let meta = TenantMeta { id, name: name.to_string(), quotas };
        self.tenants.write().insert(id, meta);
        id
    }

    /// Tenant catalog lookup.
    pub fn tenant(&self, id: TenantId) -> Option<TenantMeta> {
        self.tenants.read().get(&id).cloned()
    }

    /// All registered tenants.
    pub fn tenants(&self) -> Vec<TenantMeta> {
        let mut v: Vec<TenantMeta> = self.tenants.read().values().cloned().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    /// Register a DN node.
    pub fn register_dn(&self, dn: NodeId) {
        let mut dns = self.dns.write();
        if !dns.contains(&dn) {
            dns.push(dn);
        }
    }

    /// All registered DNs.
    pub fn dns(&self) -> Vec<NodeId> {
        self.dns.read().clone()
    }

    /// Allocate a fresh logical table id.
    pub fn next_table_id(&self) -> TableId {
        TableId(self.table_ids.next_id())
    }

    /// Install a table schema owned by `owner` and place its shards.
    /// Members of a table group land shard-for-shard on the same DNs ("the
    /// shards in a partition group are always located on the same DN",
    /// §II-B); other tables round-robin across DNs.
    pub fn create_table(&self, schema: TableSchema, owner: TenantId) -> Result<()> {
        let name = schema.name.clone();
        if self.tables.read().contains_key(&name) {
            return Err(Error::Schema { message: format!("table {name} already exists") });
        }
        let dns = self.dns();
        if dns.is_empty() {
            return Err(Error::Schema { message: "no DN registered".into() });
        }
        let shards = schema.partition.shard_count();
        // Table-group-aware placement.
        let anchor_placement: Option<Vec<NodeId>> = schema.table_group.as_ref().and_then(|g| {
            let anchors = self.group_anchor.read();
            anchors.get(g).map(|&anchor| {
                let placement = self.placement.read();
                (0..shards)
                    .map(|s| placement.get(&(anchor, s)).copied().unwrap_or(dns[0]))
                    .collect()
            })
        });
        {
            let mut placement = self.placement.write();
            for s in 0..shards {
                let dn = match &anchor_placement {
                    Some(v) => v[s as usize],
                    None => dns[(schema.id.raw() as usize + s as usize) % dns.len()],
                };
                placement.insert((schema.id, s), dn);
            }
        }
        self.owners.write().insert(schema.id, owner);
        if let Some(g) = &schema.table_group {
            self.group_anchor.write().entry(g.clone()).or_insert(schema.id);
        }
        if schema.implicit_pk {
            self.sequences.write().insert(schema.id, Arc::new(IdGenerator::new()));
        }
        Arc::make_mut(&mut self.stats.write()).set(
            &name,
            TableStats { rows: 0, avg_row_bytes: 100, ..Default::default() },
        );
        self.tables.write().insert(name, schema);
        self.catalog_changed();
        Ok(())
    }

    /// The catalog generation. Read it *before* reading the catalog: a plan
    /// built from a catalog that a DDL changed meanwhile then carries the
    /// older generation and is never used after that DDL.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Start a new catalog generation; every DDL calls it after its change.
    pub(crate) fn catalog_changed(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Look up a schema by name.
    pub fn table(&self, name: &str) -> Result<TableSchema> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or(Error::UnknownTable { name: name.into() })
    }

    /// `read` over the schema of table `name`, without copying it.
    pub fn with_table<T>(&self, name: &str, read: impl FnOnce(&TableSchema) -> T) -> Result<T> {
        let tables = self.tables.read();
        let schema = tables
            .get(&name.to_ascii_lowercase())
            .ok_or(Error::UnknownTable { name: name.into() })?;
        Ok(read(schema))
    }

    /// Replace a schema (DDL like CREATE INDEX).
    pub fn update_table(&self, schema: TableSchema) {
        self.tables.write().insert(schema.name.clone(), schema);
        self.catalog_changed();
    }

    /// The tenant owning a table.
    pub fn owner(&self, table: TableId) -> TenantId {
        self.owners.read().get(&table).copied().unwrap_or_default()
    }

    /// Every shard of every table `tenant` owns.
    pub fn tenant_shards(&self, tenant: TenantId) -> Vec<(TableId, u32)> {
        let owned: Vec<TableId> = self
            .owners
            .read()
            .iter()
            .filter(|(_, &owner)| owner == tenant)
            .map(|(&table, _)| table)
            .collect();
        let mut shards: Vec<(TableId, u32)> = self
            .tables
            .read()
            .values()
            .filter(|schema| owned.contains(&schema.id))
            .flat_map(|schema| (0..schema.partition.shard_count()).map(|s| (schema.id, s)))
            .collect();
        shards.sort_unstable();
        shards
    }

    /// DN hosting a shard.
    pub fn shard_dn(&self, table: TableId, shard: u32) -> Result<NodeId> {
        self.placement
            .read()
            .get(&(table, shard))
            .copied()
            .ok_or(Error::Schema { message: format!("unplaced shard {table}/{shard}") })
    }

    /// Move a shard to another DN (the last step of a cutover).
    pub fn move_shard(&self, table: TableId, shard: u32, to: NodeId) {
        self.placement.write().insert((table, shard), to);
    }

    /// Next implicit-PK value for a table.
    pub fn next_sequence(&self, table: TableId) -> Result<i64> {
        self.sequences
            .read()
            .get(&table)
            .map(|g| g.next_id() as i64)
            .ok_or(Error::Schema { message: format!("{table} has no sequence") })
    }

    /// Current statistics snapshot.
    pub fn statistics(&self) -> Arc<Statistics> {
        Arc::clone(&self.stats.read())
    }

    /// Bump a table's row-count estimate by `delta` rows.
    pub fn record_rows(&self, name: &str, delta: i64) {
        let mut stats = self.stats.write();
        let stats = Arc::make_mut(&mut stats);
        let mut ts = stats.get(name);
        ts.rows = (ts.rows as i64 + delta).max(0) as u64;
        stats.set(name, ts);
    }

    /// Mark a table as covered by a column index (feeds the optimizer's
    /// row/column choice, §VI-E).
    pub fn set_column_index(&self, name: &str, enabled: bool) {
        let mut stats = self.stats.write();
        let stats = Arc::make_mut(&mut stats);
        let mut ts = stats.get(name);
        ts.has_column_index = enabled;
        stats.set(name, ts);
    }

    /// Encode the full row key a SQL value-tuple produces (for routing).
    pub fn route_row(&self, schema: &TableSchema, row: &Row) -> Result<(u32, NodeId)> {
        let shard = schema.shard_of(row)?;
        Ok((shard, self.shard_dn(schema.id, shard)?))
    }

    /// Route by explicit partition-key values.
    pub fn route_key(&self, schema: &TableSchema, values: &[Value]) -> Result<(u32, NodeId)> {
        let shard = schema.shard_of_key(values);
        Ok((shard, self.shard_dn(schema.id, shard)?))
    }

    /// The routing-epoch table. Coordinators install it as their
    /// [`polardbx_txn::RoutingFence`]; the re-home executor freezes/bumps
    /// through it.
    pub fn epochs(&self) -> &Arc<EpochMap> {
        &self.epochs
    }

    /// Route a row and capture the shard's routing epoch for commit-time
    /// validation. Bounces retryably while the shard is frozen for a
    /// cutover — the caller retries and lands on the new home.
    pub fn route_row_fenced(
        &self,
        schema: &TableSchema,
        row: &Row,
    ) -> Result<(u32, NodeId, u64)> {
        let (shard, dn) = self.route_row(schema, row)?;
        let (dn, epoch) = self.fence_shard(schema.id, shard, dn)?;
        Ok((shard, dn, epoch))
    }

    /// [`Gms::route_row_fenced`] by explicit partition-key values.
    pub fn route_key_fenced(
        &self,
        schema: &TableSchema,
        values: &[Value],
    ) -> Result<(u32, NodeId, u64)> {
        let (shard, dn) = self.route_key(schema, values)?;
        let (dn, epoch) = self.fence_shard(schema.id, shard, dn)?;
        Ok((shard, dn, epoch))
    }

    /// [`Gms::shard_dn`] with routing-epoch capture, for callers that
    /// already know the shard (UPDATE/DELETE re-route their matched rows'
    /// shards fenced so each write pins an epoch).
    pub fn shard_dn_fenced(&self, table: TableId, shard: u32) -> Result<(NodeId, u64)> {
        let dn = self.shard_dn(table, shard)?;
        self.fence_shard(table, shard, dn)
    }

    fn fence_shard(&self, table: TableId, shard: u32, dn: NodeId) -> Result<(NodeId, u64)> {
        let stid = shard_table_id(table, shard);
        // Read order matters: epoch, frozen?, home, epoch-unchanged?. A
        // cutover bumps the epoch at freeze time and stays frozen until
        // after the home has moved, so any cutover overlapping this
        // sequence either trips the frozen check or changes the epoch
        // between the two reads — a torn (old home, new epoch) pair can
        // never be returned, only a retryable bounce.
        let epoch = self.epochs.epoch_of(stid);
        if self.epochs.is_frozen(stid) {
            return Err(Error::Throttled { rule: format!("rehome-freeze:{stid}") });
        }
        let dn = self.shard_dn(table, shard).unwrap_or(dn);
        if self.epochs.epoch_of(stid) != epoch {
            return Err(Error::Throttled { rule: format!("routing-epoch-moved:{stid}") });
        }
        Ok((dn, epoch))
    }
}

impl polardbx_sql::plan::SchemaProvider for Gms {
    fn table_columns(&self, table: &str) -> Result<Vec<String>> {
        let schema = self.table(table)?;
        Ok(schema
            .columns
            .iter()
            .take(schema.visible_arity())
            .map(|c| c.name.clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{ColumnDef, DataType};

    fn schema(gms: &Gms, name: &str, shards: u32, group: Option<&str>) -> TableSchema {
        let id = gms.next_table_id();
        let mut s = TableSchema::hash_on_pk(
            id,
            name,
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Str),
            ],
            vec!["id".into()],
            shards,
        )
        .unwrap();
        if let Some(g) = group {
            s = s.in_table_group(g);
        }
        s
    }

    fn gms_with_dns(n: u64) -> Arc<Gms> {
        let gms = Gms::new();
        for i in 1..=n {
            gms.register_dn(NodeId(i));
        }
        gms
    }

    #[test]
    fn create_and_lookup() {
        let gms = gms_with_dns(2);
        gms.create_table(schema(&gms, "t1", 4, None), TenantId::default()).unwrap();
        let t = gms.table("t1").unwrap();
        assert_eq!(t.partition.shard_count(), 4);
        let duplicate = gms.create_table(schema(&gms, "t1", 4, None), TenantId::default());
        assert!(duplicate.is_err(), "duplicate");
        assert!(gms.table("nope").is_err());
    }

    #[test]
    fn a_tenant_owns_the_shards_of_its_tables() {
        let gms = gms_with_dns(2);
        let (a, b) = (TenantId(1), TenantId(2));
        gms.create_table(schema(&gms, "t1", 2, None), a).unwrap();
        gms.create_table(schema(&gms, "t2", 3, None), b).unwrap();
        gms.create_table(schema(&gms, "t3", 1, None), a).unwrap();
        let (t1, t3) = (gms.table("t1").unwrap().id, gms.table("t3").unwrap().id);
        assert_eq!(gms.owner(t3), a);
        assert_eq!(gms.tenant_shards(a), vec![(t1, 0), (t1, 1), (t3, 0)]);
        assert_eq!(gms.tenant_shards(b).len(), 3);
        assert!(gms.tenant_shards(TenantId(3)).is_empty());
    }

    #[test]
    fn shards_spread_across_dns() {
        let gms = gms_with_dns(3);
        gms.create_table(schema(&gms, "t1", 6, None), TenantId::default()).unwrap();
        let t = gms.table("t1").unwrap();
        let mut dns: Vec<NodeId> =
            (0..6).map(|s| gms.shard_dn(t.id, s).unwrap()).collect();
        dns.sort();
        dns.dedup();
        assert_eq!(dns.len(), 3, "all DNs used");
    }

    #[test]
    fn table_group_members_colocate() {
        let gms = gms_with_dns(3);
        gms.create_table(schema(&gms, "orders", 6, Some("g1")), TenantId::default()).unwrap();
        gms.create_table(schema(&gms, "lineitem", 6, Some("g1")), TenantId::default()).unwrap();
        let a = gms.table("orders").unwrap();
        let b = gms.table("lineitem").unwrap();
        for s in 0..6 {
            assert_eq!(
                gms.shard_dn(a.id, s).unwrap(),
                gms.shard_dn(b.id, s).unwrap(),
                "partition group must colocate shard {s}"
            );
        }
    }

    #[test]
    fn routing_is_stable() {
        let gms = gms_with_dns(2);
        gms.create_table(schema(&gms, "t", 8, None), TenantId::default()).unwrap();
        let t = gms.table("t").unwrap();
        let row = Row::new(vec![Value::Int(42), Value::str("x")]);
        let (s1, d1) = gms.route_row(&t, &row).unwrap();
        let (s2, d2) = gms.route_key(&t, &[Value::Int(42)]).unwrap();
        assert_eq!((s1, d1), (s2, d2));
    }

    #[test]
    fn fenced_routes_bounce_while_frozen() {
        let gms = gms_with_dns(2);
        gms.create_table(schema(&gms, "t", 2, None), TenantId::default()).unwrap();
        let t = gms.table("t").unwrap();
        let row = Row::new(vec![Value::Int(1), Value::str("x")]);
        let (shard, _, e1) = gms.route_row_fenced(&t, &row).unwrap();
        let stid = shard_table_id(t.id, shard);
        gms.epochs().freeze(stid);
        assert!(gms.route_row_fenced(&t, &row).unwrap_err().is_retryable());
        assert!(gms.shard_dn_fenced(t.id, shard).unwrap_err().is_retryable());
        gms.epochs().unfreeze(stid);
        let (_, e2) = gms.shard_dn_fenced(t.id, shard).unwrap();
        assert!(e2 > e1, "freeze must have bumped the epoch ({e1} -> {e2})");
    }

    #[test]
    fn sequences_for_implicit_pk() {
        let gms = gms_with_dns(1);
        let id = gms.next_table_id();
        let s = TableSchema::hash_on_pk(
            id,
            "nopk",
            vec![ColumnDef::new("v", DataType::Str)],
            vec![],
            2,
        )
        .unwrap();
        gms.create_table(s, TenantId::default()).unwrap();
        let a = gms.next_sequence(id).unwrap();
        let b = gms.next_sequence(id).unwrap();
        assert!(b > a);
    }

    #[test]
    fn stats_track_row_counts_and_column_indexes() {
        let gms = gms_with_dns(1);
        gms.create_table(schema(&gms, "t", 2, None), TenantId::default()).unwrap();
        gms.record_rows("t", 500);
        gms.record_rows("t", -100);
        assert_eq!(gms.statistics().get("t").rows, 400);
        gms.set_column_index("t", true);
        assert!(gms.statistics().get("t").has_column_index);
    }

    #[test]
    fn schema_provider_hides_implicit_pk() {
        use polardbx_sql::plan::SchemaProvider;
        let gms = gms_with_dns(1);
        let id = gms.next_table_id();
        let s = TableSchema::hash_on_pk(
            id,
            "nopk",
            vec![ColumnDef::new("v", DataType::Str)],
            vec![],
            1,
        )
        .unwrap();
        gms.create_table(s, TenantId::default()).unwrap();
        assert_eq!(gms.table_columns("nopk").unwrap(), vec!["v".to_string()]);
    }

    #[test]
    fn tenant_catalog_register_lookup() {
        let gms = gms_with_dns(1);
        let a = gms.register_tenant("alpha", TenantQuotas::rate_limited(100.0, 10.0));
        let b = gms.register_tenant("beta", TenantQuotas::unlimited());
        assert_ne!(a, b);
        let meta = gms.tenant(a).unwrap();
        assert_eq!(meta.name, "alpha");
        assert_eq!(meta.quotas.rate_per_sec, 100.0);
        assert!(gms.tenant(TenantId(999)).is_none());
        let names: Vec<String> = gms.tenants().into_iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn shard_table_ids_unique() {
        let a = shard_table_id(TableId(1), 0);
        let b = shard_table_id(TableId(1), 1);
        let c = shard_table_id(TableId(2), 0);
        assert!(a != b && b != c && a != c);
    }
}
