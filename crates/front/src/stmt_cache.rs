//! Per-connection prepared-statement ids.
//!
//! `Prepare` checks a statement once and hands back a statement id;
//! `Execute` runs the id's text down the session's one text path, where the
//! cluster's plan cache — keyed by the statement's shape — spares it the
//! parse and the plan. This cache maps ids to texts only. Entries are keyed
//! by their exact SQL text, so a connection that prepares the same
//! statement twice gets the same id back instead of a second slot.
//!
//! The cache is bounded with LRU eviction. Evicting a slot invalidates its
//! statement id (`Execute` on it returns a typed error) but any in-flight
//! execution keeps its `Arc` handle alive.

use std::collections::HashMap;
use std::sync::Arc;

use polardbx_common::{Error, Result};

/// One cached prepared statement.
pub struct PreparedStmt {
    /// Statement id handed to the client.
    pub id: u32,
    /// Exact SQL text as prepared.
    pub sql: String,
}

/// Bounded LRU cache of prepared statements for one connection.
pub struct StmtCache {
    capacity: usize,
    next_id: u32,
    /// id → entry.
    by_id: HashMap<u32, Arc<PreparedStmt>>,
    /// Exact SQL text → id.
    by_sql: HashMap<String, u32>,
    /// LRU order, least recent first.
    lru: Vec<u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StmtCache {
    /// Cache holding at most `capacity` statements (minimum 1).
    pub fn new(capacity: usize) -> StmtCache {
        StmtCache {
            capacity: capacity.max(1),
            next_id: 1,
            by_id: HashMap::new(),
            by_sql: HashMap::new(),
            lru: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, id: u32) {
        if let Some(pos) = self.lru.iter().position(|&x| x == id) {
            self.lru.remove(pos);
        }
        self.lru.push(id);
    }

    /// Prepare `sql`: reuse the id when the exact text was prepared
    /// before, otherwise check it with `check` and insert (evicting the
    /// least recently used slot if full). Returns the entry and whether it
    /// was a cache hit.
    pub fn prepare(
        &mut self,
        sql: &str,
        check: impl FnOnce(&str) -> Result<()>,
    ) -> Result<(Arc<PreparedStmt>, bool)> {
        if let Some(&id) = self.by_sql.get(sql) {
            let entry = Arc::clone(&self.by_id[&id]);
            self.hits += 1;
            self.touch(id);
            return Ok((entry, true));
        }
        self.misses += 1;
        check(sql)?;
        if self.by_id.len() >= self.capacity {
            let victim = self.lru.remove(0);
            if let Some(old) = self.by_id.remove(&victim) {
                self.by_sql.remove(&old.sql);
                self.evictions += 1;
            }
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let entry = Arc::new(PreparedStmt { id, sql: sql.to_string() });
        self.by_id.insert(id, Arc::clone(&entry));
        self.by_sql.insert(entry.sql.clone(), id);
        self.lru.push(id);
        Ok((entry, false))
    }

    /// Look up a statement id for `Execute`.
    pub fn get(&mut self, id: u32) -> Result<Arc<PreparedStmt>> {
        match self.by_id.get(&id) {
            Some(entry) => {
                let entry = Arc::clone(entry);
                self.touch(id);
                Ok(entry)
            }
            None => Err(Error::invalid(format!("unknown prepared statement id {id}"))),
        }
    }

    /// Explicitly close a statement id. Closing an unknown id is a no-op
    /// (the slot may have been evicted already).
    pub fn close(&mut self, id: u32) {
        if let Some(old) = self.by_id.remove(&id) {
            self.by_sql.remove(&old.sql);
            if let Some(pos) = self.lru.iter().position(|&x| x == id) {
                self.lru.remove(pos);
            }
        }
    }

    /// Cached statement count.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when no statements are cached.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Result<()> {
        polardbx_sql::parse(sql).map(drop)
    }

    #[test]
    fn same_text_hits_without_reparse() {
        let mut c = StmtCache::new(4);
        let (a, hit) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        assert!(!hit);
        let (b, hit) = c
            .prepare("SELECT id FROM t WHERE id = 1", |_| {
                panic!("cache hit must not re-check")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(a.id, b.id);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn same_fingerprint_different_literals_is_a_miss() {
        let mut c = StmtCache::new(4);
        let (a, _) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        let (b, hit) = c.prepare("SELECT id FROM t WHERE id = 2", parse).unwrap();
        assert!(!hit, "different texts are different ids");
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn a_statement_prepared_again_after_one_of_its_shape_hits() {
        let mut c = StmtCache::new(4);
        let (a, _) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        c.prepare("SELECT id FROM t WHERE id = 2", parse).unwrap();
        let (again, hit) = c
            .prepare("SELECT id FROM t WHERE id = 1", |_| panic!("cache hit must not re-check"))
            .unwrap();
        assert!(hit);
        assert_eq!(again.id, a.id);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recent_and_invalidates_id() {
        let mut c = StmtCache::new(2);
        let (a, _) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        let (_b, _) = c.prepare("SELECT v FROM t WHERE id = 1", parse).unwrap();
        // Touch a so the second statement becomes the LRU victim.
        c.get(a.id).unwrap();
        let (_c3, _) = c.prepare("SELECT id, v FROM t WHERE id = 1", parse).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(a.id).is_ok(), "recently used survives");
        assert!(c.get(_b.id).is_err(), "evicted id is invalid");
        assert_eq!(c.stats().2, 1);
        // The evicted Arc handle stays usable for in-flight executions.
        assert_eq!(_b.sql, "SELECT v FROM t WHERE id = 1");
    }

    #[test]
    fn close_frees_slot_and_text() {
        let mut c = StmtCache::new(2);
        let (a, _) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        c.close(a.id);
        assert!(c.is_empty());
        assert!(c.get(a.id).is_err());
        // Same text now gets a fresh slot.
        let (b, hit) = c.prepare("SELECT id FROM t WHERE id = 1", parse).unwrap();
        assert!(!hit);
        assert_ne!(a.id, b.id);
        // Closing an unknown/already-closed id is a no-op.
        c.close(a.id);
        c.close(9999);
    }

    #[test]
    fn parse_errors_do_not_occupy_slots() {
        let mut c = StmtCache::new(2);
        assert!(c.prepare("SELEKT nonsense", parse).is_err());
        assert!(c.is_empty());
        assert_eq!(c.stats(), (0, 1, 0));
    }
}
