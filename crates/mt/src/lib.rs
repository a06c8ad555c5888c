//! PolarDB-MT: multi-tenancy with multiple RW nodes over shared storage
//! (§V of the paper).
//!
//! A tenant is a collection of tables with no cross-tenant transactions.
//! Multiple RW nodes share the storage but operate on **disjoint** tenants;
//! each tenant is bound to exactly one RW node at any time. The pieces:
//!
//! * [`binding`] — the tenant→RW binding system table with leases; an RW
//!   that lost its lease must abort affected transactions.
//! * [`dictionary`] — the shared data dictionary: one master RW holds the
//!   authority, other RWs keep read caches of tables they open, and DDL
//!   goes through an exclusive MDL + master validation.
//! * [`node`] — an MT-enabled RW node: a storage `RwNode` (private redo
//!   log, per-tenant dirty pages) behind ownership checks on every transaction.
//! * [`transfer`] — the §V tenant-transfer protocol (pause → drain → flush
//!   dirty pages → rebind → open at destination → resume): the router gate
//!   and binding + lease around `RwNode::hand_off`, the cluster's cutover,
//!   moving **no table data**; plus the row-copy baseline of Fig 8(b).
//! * [`recovery`] — per-tenant parallel redo replay: because each RW's log
//!   only touches its own tenants, logs replay independently and a peer RW
//!   can take over a failed node's tenants from its log.
//! * [`rehome`] — throttled executor for adaptive-placement partition
//!   moves: spaces cutovers out so migration storms never stack pauses.

pub mod binding;
pub mod dictionary;
pub mod node;
pub mod recovery;
pub mod rehome;
pub mod transfer;

pub use binding::{BindingTable, Lease};
pub use dictionary::{DataDictionary, TableMeta};
pub use node::MtRwNode;
pub use rehome::{RehomeConfig, RehomeExecutor, RehomeReport};
pub use transfer::{migrate_by_copy, migrate_tenant, CopyReport, MigrationReport, Router};
