//! Unified error type shared across the workspace.

use std::fmt;

/// Result alias used throughout the PolarDB-X reproduction.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by any layer of the system.
///
/// The variants mirror the failure classes the paper's components expose:
/// transaction aborts (write conflicts, SI violations), routing errors
/// (tenant not bound to this RW node), consensus errors (not leader, lease
/// lost), and plain validation/catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A write-write conflict forced the transaction to abort.
    WriteConflict { key: String },
    /// The transaction was aborted (explicitly or by the system).
    TxnAborted { reason: String },
    /// 2PC prepare was rejected by a participant.
    PrepareRejected { participant: String, reason: String },
    /// A statement was routed to a node that does not own the tenant/shard.
    NotOwner { tenant: u64, node: u64 },
    /// The node's lease on a tenant binding or leadership expired.
    LeaseLost { holder: u64 },
    /// A consensus operation was submitted to a non-leader replica.
    NotLeader { leader_hint: Option<u64> },
    /// Quorum could not be reached (partition or too many failures).
    NoQuorum { acks: usize, needed: usize },
    /// Catalog lookup failed.
    UnknownTable { name: String },
    /// Catalog lookup failed for a column.
    UnknownColumn { name: String },
    /// Schema-level validation failure (duplicate table, bad partition count…).
    Schema { message: String },
    /// SQL text could not be parsed.
    Parse { message: String, position: usize },
    /// The planner could not produce a plan for a legal query.
    Plan { message: String },
    /// Executor runtime failure (type mismatch, overflow, missing resource).
    Execution { message: String },
    /// Memory quota for a workload group was exhausted and could not preempt.
    MemoryExhausted { group: String, requested: usize },
    /// A storage-layer invariant failed (corrupt page, bad LSN order…).
    Storage { message: String },
    /// The simulated network dropped or could not route a message.
    Network { message: String },
    /// Row not found when one was required.
    KeyNotFound,
    /// Duplicate key on insert into a unique index / primary key.
    DuplicateKey { key: String },
    /// The operation timed out.
    Timeout { what: String },
    /// A commit answer was lost and nobody refused: it may have committed,
    /// so it is not retryable (a re-run could apply it twice).
    InDoubt { what: String },
    /// Traffic control rejected the statement (concurrency limit reached).
    Throttled { rule: String },
    /// Generic invalid-argument error.
    Invalid { message: String },
    /// A shared reference to one error delivered to many waiters (e.g.
    /// every committer of a failed epoch): cloning is
    /// a refcount bump, not a deep copy of the inner error's strings.
    Shared(std::sync::Arc<Error>),
}

impl Error {
    /// Convenience constructor for execution errors.
    pub fn execution(msg: impl Into<String>) -> Self {
        Error::Execution { message: msg.into() }
    }

    /// Convenience constructor for invalid-argument errors.
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::Invalid { message: msg.into() }
    }

    /// Convenience constructor for storage invariant violations.
    pub fn storage(msg: impl Into<String>) -> Self {
        Error::Storage { message: msg.into() }
    }

    /// The underlying error with any [`Error::Shared`] layers unwrapped.
    /// Callers that match on a kind (`NoQuorum`, `Timeout`, …) should
    /// match on the root, since durability errors fanned out to many
    /// waiters arrive wrapped.
    pub fn root(&self) -> &Error {
        let mut e = self;
        while let Error::Shared(inner) = e {
            e = inner;
        }
        e
    }

    /// True when retrying the whole transaction may succeed (conflicts,
    /// lease races, throttling) as opposed to deterministic failures.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.root(),
            Error::WriteConflict { .. }
                | Error::TxnAborted { .. }
                | Error::PrepareRejected { .. }
                | Error::NotOwner { .. }
                | Error::LeaseLost { .. }
                | Error::NotLeader { .. }
                | Error::Timeout { .. }
                | Error::Throttled { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::WriteConflict { key } => write!(f, "write-write conflict on key {key}"),
            Error::TxnAborted { reason } => write!(f, "transaction aborted: {reason}"),
            Error::PrepareRejected { participant, reason } => {
                write!(f, "prepare rejected by {participant}: {reason}")
            }
            Error::NotOwner { tenant, node } => {
                write!(f, "tenant {tenant} is not bound to node {node}")
            }
            Error::LeaseLost { holder } => write!(f, "lease lost by node {holder}"),
            Error::NotLeader { leader_hint } => match leader_hint {
                Some(l) => write!(f, "not leader; try node {l}"),
                None => write!(f, "not leader; leader unknown"),
            },
            Error::NoQuorum { acks, needed } => {
                write!(f, "no quorum: {acks} acks, {needed} needed")
            }
            Error::UnknownTable { name } => write!(f, "unknown table '{name}'"),
            Error::UnknownColumn { name } => write!(f, "unknown column '{name}'"),
            Error::Schema { message } => write!(f, "schema error: {message}"),
            Error::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            Error::Plan { message } => write!(f, "plan error: {message}"),
            Error::Execution { message } => write!(f, "execution error: {message}"),
            Error::MemoryExhausted { group, requested } => {
                write!(f, "memory exhausted in group {group} (requested {requested} bytes)")
            }
            Error::Storage { message } => write!(f, "storage error: {message}"),
            Error::Network { message } => write!(f, "network error: {message}"),
            Error::KeyNotFound => write!(f, "key not found"),
            Error::DuplicateKey { key } => write!(f, "duplicate key {key}"),
            Error::Timeout { what } => write!(f, "timeout waiting for {what}"),
            Error::InDoubt { what } => write!(f, "outcome in doubt: {what}"),
            Error::Throttled { rule } => write!(f, "throttled by traffic-control rule {rule}"),
            Error::Invalid { message } => write!(f, "invalid argument: {message}"),
            Error::Shared(inner) => inner.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(Error::WriteConflict { key: "k".into() }.is_retryable());
        assert!(Error::NotLeader { leader_hint: None }.is_retryable());
        assert!(Error::Throttled { rule: "r".into() }.is_retryable());
        assert!(!Error::UnknownTable { name: "t".into() }.is_retryable());
        assert!(!Error::DuplicateKey { key: "k".into() }.is_retryable());
        assert!(!Error::InDoubt { what: "c".into() }.is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = Error::NoQuorum { acks: 1, needed: 2 };
        assert!(e.to_string().contains("1 acks"));
        let e = Error::Parse { message: "bad token".into(), position: 7 };
        assert!(e.to_string().contains("byte 7"));
    }

    #[test]
    fn shared_forwards_display_and_retryability() {
        let inner = std::sync::Arc::new(Error::NoQuorum { acks: 1, needed: 2 });
        let a = Error::Shared(std::sync::Arc::clone(&inner));
        let b = Error::Shared(inner);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "no quorum: 1 acks, 2 needed");
        assert!(!a.is_retryable());
        assert!(Error::Shared(std::sync::Arc::new(Error::Timeout { what: "t".into() }))
            .is_retryable());
    }
}
