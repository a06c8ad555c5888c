//! The adaptive placer's throttle: [`rehome`] spaces placement-driven shard
//! re-homes out so migration storms never stack cutover pauses.
//!
//! Tenants (§V) are the GMS catalog's: a tenant owns the tables its
//! sessions create, and `PolarDbx::migrate_tenant` moves them through the
//! cluster's shard cutover.

pub mod rehome;

pub use rehome::{RehomeConfig, RehomeExecutor, RehomeReport};
