//! Strongly typed identifiers for cluster entities.
//!
//! The paper's architecture names several kinds of nodes and data units:
//! datacenters (DC1..DC3), CN/DN/SN nodes, shards (hash partitions),
//! tenants (owners of tables, the unit a migration moves), tables,
//! transactions, and redo-log positions (LSN). Newtypes prevent mixing them
//! up.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A datacenter (availability zone). The evaluation deploys three.
    DcId,
    "dc"
);
id_type!(
    /// Any node in the cluster: CN, DN (RW/RO/logger replica) or SN.
    NodeId,
    "node"
);
id_type!(
    /// A hash partition of a table (or of a table group).
    ShardId,
    "shard"
);
id_type!(
    /// A tenant: owns the tables its sessions create; the unit of admission
    /// and of migration between DNs (§V).
    TenantId,
    "tenant"
);
id_type!(
    /// A table in the catalog.
    TableId,
    "table"
);
id_type!(
    /// A transaction id; consistent between row store and column index (§VI-E).
    TrxId,
    "trx"
);

/// Log sequence number: a byte offset into the redo log stream, exactly as
/// InnoDB uses it. Orders redo records; `Lsn::ZERO` is "before any record".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The origin of the log.
    pub const ZERO: Lsn = Lsn(0);
    /// The largest representable LSN, used as an "infinite" bound.
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// Advance by `bytes` of log payload.
    pub fn advance(self, bytes: u64) -> Lsn {
        Lsn(self.0 + bytes)
    }

    /// Raw offset.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Monotonic id generator, used for transaction ids and implicit primary
/// keys (the paper adds an invisible auto-increment BIGINT when a table has
/// no primary key, §II-B).
#[derive(Debug, Default)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Start from 1 so that 0 can mean "unset".
    pub fn new() -> Self {
        IdGenerator { next: AtomicU64::new(1) }
    }

    /// Allocate the next id.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Peek without allocating.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(DcId(2).to_string(), "dc2");
        assert_eq!(TenantId(7).to_string(), "tenant7");
        assert_eq!(Lsn(42).to_string(), "lsn:42");
    }

    #[test]
    fn lsn_orders_and_advances() {
        let a = Lsn(10);
        let b = a.advance(5);
        assert!(a < b);
        assert_eq!(b, Lsn(15));
        assert!(Lsn::ZERO < a && a < Lsn::MAX);
    }

    #[test]
    fn id_generator_is_monotonic() {
        let g = IdGenerator::new();
        let a = g.next_id();
        let b = g.next_id();
        assert!(b > a);
        assert_eq!(g.peek(), b + 1);
    }

    #[test]
    fn id_generator_threads_unique() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let g = Arc::new(IdGenerator::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_id()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(all.len(), 4000);
    }
}
