//! The cluster's plan cache: plan once per statement shape, bind many.
//!
//! The CN parses, optimizes and classifies every request (§II-A, §VI-B),
//! but a client sends the same statement shapes again and again with new
//! constants. An entry is keyed by the statement's shape — the lexer's text
//! with one `?` per literal, also the §VIII traffic fingerprint — and holds
//! a template built once: the statement's plan with every `WHERE` / `SET`
//! operand literal left out as an [`polardbx_sql::Expr::Param`]. A hit
//! binds the statement's literals into a copy of it.
//!
//! An entry records, per literal of its shape, either the *type* of a
//! parameter or the *value* of a structural literal (`LIMIT n`, a `LIKE`
//! pattern, anything in the select list …), which the template baked in. A
//! statement hits only when every structural value and every parameter
//! type is equal; otherwise it is a miss, and its template replaces the
//! old one. An entry is valid for one catalog generation
//! ([`crate::Gms`] bumps it after every DDL), read before the catalog the
//! template was built from.
//!
//! The cache keeps one map for SELECT shapes and one for UPDATE / DELETE
//! shapes, so each kind's template has its own type. Each holds at most
//! [`CAPACITY`] shapes. Their locks are leaves of the lock order: nothing
//! else is acquired while one is held, and a miss builds its template with
//! the lock released.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use polardbx_common::{Result, Value};
use polardbx_sql::{Lexed, LogicalPlan, Statement};

use crate::session::EditTemplate;

/// Most shapes one map caches. Counted per cluster, the repository's
/// workloads use few: 2 to 3 for polarbench's OLTP workloads, 5 for its
/// HTAP ones and for `fig9_htap`, and at most 48 across all the clusters
/// of one root test suite. 512 is ten times that largest count. When the
/// map is full, a new shape evicts an arbitrary one: a working set this
/// large is past anything measured, so which shape goes is not tuned.
pub(crate) const CAPACITY: usize = 512;

/// What an entry knows about one literal of its shape.
enum Slot {
    /// A parameter of this type: any value of it binds.
    Param(Discriminant<Value>),
    /// A literal the template depends on: only this value hits.
    Fixed(Value),
}

/// One cached statement shape.
pub(crate) struct Entry<T> {
    /// The catalog generation the template was built at.
    generation: u64,
    slots: Vec<Slot>,
    /// The plan the statement's literals bind into.
    pub(crate) template: T,
}

impl<T> Entry<T> {
    /// Can a statement with these literals use this template?
    fn fits(&self, literals: &[Value]) -> bool {
        self.slots.len() == literals.len()
            && self.slots.iter().zip(literals).all(|(slot, value)| match slot {
                Slot::Param(ty) => discriminant(value) == *ty,
                Slot::Fixed(fixed) => discriminant(value) == discriminant(fixed) && value == fixed,
            })
    }
}

/// The cluster's plan cache: one map per kind of cached statement.
pub(crate) struct PlanCache {
    /// SELECT shape → its statistics-free plan.
    pub(crate) selects: Templates<LogicalPlan>,
    /// UPDATE / DELETE shape → its resolved edit.
    pub(crate) edits: Templates<EditTemplate>,
}

impl PlanCache {
    pub(crate) fn new() -> PlanCache {
        PlanCache { selects: Templates::new(), edits: Templates::new() }
    }
}

/// Statement shape → its template.
pub(crate) struct Templates<T> {
    entries: RwLock<HashMap<Arc<str>, Arc<Entry<T>>>>,
}

impl<T> Templates<T> {
    fn new() -> Templates<T> {
        Templates { entries: RwLock::new(HashMap::new()) }
    }

    /// The entry for `lexed`, whose literals are `literals`, valid at
    /// catalog `generation`: a hit takes the read lock only. A miss parses
    /// the statement with its operand literals as parameters, calls `build`
    /// on it for the template, and caches the result.
    pub(crate) fn get_or_build(
        &self,
        lexed: &Lexed<'_>,
        literals: &[Value],
        generation: u64,
        build: impl FnOnce(Statement) -> Result<T>,
    ) -> Result<Arc<Entry<T>>> {
        if let Some(entry) = self.entries.read().get(lexed.shape()) {
            if entry.generation == generation && entry.fits(literals) {
                return Ok(Arc::clone(entry));
            }
        }
        let (stmt, params) = polardbx_sql::parse_with_params(lexed)?;
        let template = build(stmt)?;
        let mut is_param = vec![false; literals.len()];
        for i in params {
            is_param[i] = true;
        }
        let slots = literals
            .iter()
            .zip(is_param)
            .map(|(value, param)| {
                if param {
                    Slot::Param(discriminant(value))
                } else {
                    Slot::Fixed(value.clone())
                }
            })
            .collect();
        let shape: Arc<str> = lexed.shape().into();
        let entry = Arc::new(Entry { generation, slots, template });
        let evicted = {
            let mut entries = self.entries.write();
            let victim = if entries.len() >= CAPACITY && !entries.contains_key(&shape) {
                entries.keys().next().cloned().and_then(|key| entries.remove(&key))
            } else {
                None
            };
            entries.insert(shape, Arc::clone(&entry));
            victim
        };
        drop(evicted);
        Ok(entry)
    }

    /// Cached shapes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Look `sql` up in a cache whose templates are the statements; true
    /// when it was built.
    fn get(
        cache: &Templates<Statement>,
        sql: &str,
        generation: u64,
    ) -> (bool, Arc<Entry<Statement>>) {
        let lexed = polardbx_sql::lex(sql).unwrap();
        let mut built = false;
        let entry = cache
            .get_or_build(&lexed, &lexed.literals(), generation, |stmt| {
                built = true;
                Ok(stmt)
            })
            .unwrap();
        (built, entry)
    }

    #[test]
    fn a_hit_needs_the_generation_the_structural_values_and_the_parameter_types() {
        let cache = Templates::new();
        assert!(get(&cache, "SELECT v FROM t WHERE id = 1 LIMIT 5", 0).0);
        assert!(!get(&cache, "SELECT v FROM t WHERE id = 2 LIMIT 5", 0).0, "new binding");
        assert!(get(&cache, "SELECT v FROM t WHERE id = 2 LIMIT 6", 0).0, "new LIMIT");
        assert!(get(&cache, "SELECT v FROM t WHERE id = '2' LIMIT 6", 0).0, "new type");
        assert!(get(&cache, "SELECT v FROM t WHERE id = 2.0 LIMIT 6", 0).0, "new type");
        assert!(!get(&cache, "SELECT v FROM t WHERE id = 3.5 LIMIT 6", 0).0);
        assert!(get(&cache, "SELECT v FROM t WHERE id = 3.5 LIMIT 6", 1).0, "after a DDL");
        assert!(!get(&cache, "select v from t where id = 4.5 limit 6", 1).0, "case folded");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_cache_holds_at_most_its_capacity() {
        let cache = Templates::new();
        for i in 0..CAPACITY + 10 {
            get(&cache, &format!("SELECT v FROM t{i} WHERE id = 1"), 0);
        }
        assert_eq!(cache.len(), CAPACITY);
        let newest = format!("SELECT v FROM t{} WHERE id = 1", CAPACITY + 9);
        assert!(!get(&cache, &newest, 0).0, "the newest shape stays cached");
    }
}
