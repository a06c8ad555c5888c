//! The paper's evaluation workloads, scaled for a laptop (§VII). The
//! Sysbench mixes of Fig 7 live with that figure in `crates/bench`.
//!
//! * [`tpcc`] — TPC-C-lite: warehouses/districts/customers/orders with the
//!   NewOrder + Payment mix; tpmC is NewOrder commits per minute (Fig 9).
//! * [`tpch`] — TPC-H-lite: the eight-table schema, a seeded generator,
//!   and all 22 query *shapes* expressed in the supported SQL subset
//!   (Fig 9b / Fig 10). Queries whose original text needs subqueries are
//!   rewritten join/aggregate equivalents that preserve the operator mix;
//!   each deviation is documented on the query constant.

pub mod tpcc;
pub mod tpch;
