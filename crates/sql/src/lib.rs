//! SQL front end: lexer, parser, expressions and logical plans.
//!
//! PolarDB-X is MySQL-compatible; this crate implements the dialect subset
//! the paper's workloads need — DDL with hash partitioning, table groups
//! and global/local indexes (§II-B), DML, and SELECT with joins,
//! aggregation, ordering and limits (enough to express sysbench, TPC-C and
//! the 22 TPC-H query shapes).
//!
//! Pipeline: text → [`token::lex`] → [`parser::Parser`] → [`ast`] →
//! [`plan::build_plan`] → [`plan::LogicalPlan`]. Expressions resolve column
//! names against an output schema ([`expr::Expr::resolve`]) and then
//! evaluate against rows without further name lookups.
//!
//! The lexer's one pass also gives the statement's shape — its text with
//! one `?` per literal — which keys the CN's plan cache. For a cached plan
//! the parser turns `WHERE` / `SET` operand literals into [`Expr::Param`]s
//! ([`parser::parse_with_params`]); a cached plan is bound to one
//! statement's literals with [`plan::LogicalPlan::bind`] / [`Expr::bind`].

pub mod ast;
pub mod expr;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::Statement;
pub use expr::{AggFunc, Expr};
pub use parser::{parse, parse_lexed, parse_with_params};
pub use plan::{build_plan, LogicalPlan};
pub use token::{lex, Lexed};
