//! The cluster's plan cache: plan once per statement shape, bind many.
//!
//! The CN parses, optimizes and classifies every request (§II-A, §VI-B),
//! but a client sends the same statement shapes again and again with new
//! constants. An entry is keyed by the statement's shape — the lexer's text
//! with one `?` per literal — and holds a template built once: the
//! statement's plan with every `WHERE` / `SET` operand literal left out as
//! an [`polardbx_sql::Expr::Param`]. A hit binds the statement's literals
//! into a copy of it.
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
//!
//! A SELECT template also remembers its last AP binding ([`ApBinding`]):
//! the bound, costed plan and the store each table is read from. The next
//! execution takes it instead of binding, costing and routing again when
//! its literals are the same and every table the plan reads has the
//! statistics it was costed with; otherwise it binds as without the memo.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use polardbx_common::{Result, Value};
use polardbx_optimizer::{PlanCost, Statistics, StorageChoice, TableStats};
use polardbx_sql::{Lexed, LogicalPlan, Statement};

use crate::session::EditTemplate;

/// Most shapes one map caches. Counted per cluster, the repository's
/// workloads use few: 2 to 3 for polarbench's OLTP workloads, 5 for its
/// HTAP ones and for `fig9_htap`, and at most 48 across all the clusters
/// of one root test suite. 512 is ten times that largest count. When the
/// map is full, a new shape evicts an arbitrary one: a working set this
/// large is past anything measured, so which shape goes is not tuned.
pub(crate) const CAPACITY: usize = 512;

/// Are `a` and `b` the same literal: the same type and value?
fn same_literal(a: &Value, b: &Value) -> bool {
    discriminant(a) == discriminant(b) && a == b
}

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
                Slot::Fixed(fixed) => same_literal(value, fixed),
            })
    }
}

/// A cached SELECT: its statistics-free plan, and the last AP binding of
/// it.
pub(crate) struct SelectTemplate {
    /// The plan the statement's literals bind into.
    pub(crate) plan: LogicalPlan,
    memo: RwLock<Option<Arc<ApBinding>>>,
}

/// One AP execution's planning of a SELECT template: what an execution
/// with the same literals, against the same statistics of the tables the
/// plan reads, would compute again. It lives in its template's entry, so
/// it is valid for the entry's catalog generation only. It holds each read
/// table's [`TableStats`], not the [`Statistics`] they came from: those
/// are copied on every write that records rows, so a held one would pin a
/// copy per write and say nothing about whether this plan's tables moved.
pub(crate) struct ApBinding {
    literals: Vec<Value>,
    /// The bound plan, its join build sides chosen.
    pub(crate) plan: Arc<LogicalPlan>,
    pub(crate) cost: PlanCost,
    /// Each table the plan reads: the store it is read from, and its
    /// statistics when that was chosen.
    pub(crate) tables: Vec<(String, StorageChoice, TableStats)>,
}

impl ApBinding {
    pub(crate) fn new(
        literals: Vec<Value>,
        plan: LogicalPlan,
        cost: PlanCost,
        tables: Vec<(String, StorageChoice, TableStats)>,
    ) -> ApBinding {
        ApBinding { literals, plan: Arc::new(plan), cost, tables }
    }
}

impl SelectTemplate {
    pub(crate) fn new(plan: LogicalPlan) -> SelectTemplate {
        SelectTemplate { plan, memo: RwLock::new(None) }
    }

    /// The remembered AP binding, if an execution with `literals` under
    /// `stats` may take it.
    pub(crate) fn memo(&self, literals: &[Value], stats: &Statistics) -> Option<Arc<ApBinding>> {
        let binding = self.memo.read().clone()?;
        let fits = binding.literals.len() == literals.len()
            && binding.literals.iter().zip(literals).all(|(a, b)| same_literal(a, b))
            && binding.tables.iter().all(|(table, _, then)| stats.get(table) == *then);
        fits.then_some(binding)
    }

    /// Remember `binding`, in place of the last one, which is dropped
    /// with the lock released.
    pub(crate) fn remember(&self, binding: Arc<ApBinding>) {
        let old = self.memo.write().replace(binding);
        drop(old);
    }
}

/// The cluster's plan cache: one map per kind of cached statement.
pub(crate) struct PlanCache {
    /// SELECT shape → its statistics-free plan.
    pub(crate) selects: Templates<SelectTemplate>,
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

    mod ap_memo {
        use std::sync::Arc;

        use polardbx_common::DcId;
        use polardbx_optimizer::WorkloadClass;

        use super::super::ApBinding;
        use crate::cluster::{ClusterConfig, PolarDbx};
        use crate::Session;

        const Q: &str = "SELECT g, SUM(v) FROM t WHERE v > 1 GROUP BY g";

        /// A cluster whose table `t` (8 rows) is column-indexed, and an
        /// unread table `u`; `ap_threshold` decides whether `Q` is AP.
        fn cluster(ap_threshold: f64) -> (PolarDbx, Session) {
            let db = PolarDbx::build(ClusterConfig { ap_threshold, ..Default::default() }).unwrap();
            let s = db.connect(DcId(1));
            for t in ["t", "u"] {
                s.execute(&format!(
                    "CREATE TABLE {t} (id BIGINT NOT NULL, g BIGINT, v BIGINT, PRIMARY KEY (id))"
                ))
                .unwrap();
            }
            let rows: Vec<String> = (0..8).map(|i| format!("({i}, {}, {i})", i % 2)).collect();
            s.execute(&format!("INSERT INTO t (id, g, v) VALUES {}", rows.join(", "))).unwrap();
            db.enable_column_index("t").unwrap();
            (db, s)
        }

        /// The AP binding an execution of `sql` would take now.
        fn memo(s: &Session, sql: &str) -> Option<Arc<ApBinding>> {
            let lexed = polardbx_sql::lex(sql).unwrap();
            let literals = lexed.literals();
            let entry = s.select_template(&lexed, &literals).unwrap();
            entry.template.memo(&literals, &s.inner.gms.statistics())
        }

        #[test]
        fn a_hit_plans_as_a_fresh_bind_does() {
            let (db, s) = cluster(0.0);
            let (rows, class) = s.query_classified(Q).unwrap();
            assert_eq!((rows.len(), class), (2, WorkloadClass::Ap));
            let hit = memo(&s, Q).expect("an AP execution is remembered");

            let lexed = polardbx_sql::lex(Q).unwrap();
            let literals = lexed.literals();
            let entry = s.select_template(&lexed, &literals).unwrap();
            let stats = s.inner.gms.statistics();
            let (plan, cost, class) = s.bind_select(&entry.template.plan, &literals, &stats);
            let fresh = s.bind_ap(plan, cost, literals, &stats).unwrap();
            assert_eq!(class, WorkloadClass::Ap);
            assert_eq!(*hit.plan, *fresh.plan);
            assert_eq!(hit.cost, fresh.cost);
            assert_eq!(hit.tables, fresh.tables);

            // The next execution takes it and keeps it.
            assert_eq!(s.query_classified(Q).unwrap(), (rows, WorkloadClass::Ap));
            assert!(Arc::ptr_eq(&hit, &memo(&s, Q).unwrap()));
            db.shutdown();
        }

        #[test]
        fn rows_recorded_on_a_read_table_re_cost_and_can_turn_tp_into_ap() {
            let (db, s) = cluster(polardbx_optimizer::DEFAULT_AP_THRESHOLD);
            assert_eq!(s.query_classified(Q).unwrap().1, WorkloadClass::Tp);
            assert!(memo(&s, Q).is_none(), "a TP execution leaves no binding");
            db.gms().record_rows("t", 50_000_000);
            assert_eq!(s.query_classified(Q).unwrap().1, WorkloadClass::Ap);
            let first = memo(&s, Q).expect("remembered");
            db.gms().record_rows("t", 1);
            assert!(memo(&s, Q).is_none(), "t's statistics moved");
            assert_eq!(s.query_classified(Q).unwrap().1, WorkloadClass::Ap);
            let second = memo(&s, Q).expect("re-costed and remembered");
            assert!(!Arc::ptr_eq(&first, &second));
            db.shutdown();
        }

        #[test]
        fn a_write_to_an_unread_table_keeps_the_binding() {
            let (db, s) = cluster(0.0);
            s.query(Q).unwrap();
            let before = memo(&s, Q).unwrap();
            s.execute("INSERT INTO u (id, g, v) VALUES (1, 1, 1)").unwrap();
            let after = memo(&s, Q).expect("u is not read");
            assert!(Arc::ptr_eq(&before, &after));
            // The write to `t` below moves its statistics, and is seen.
            s.execute("INSERT INTO t (id, g, v) VALUES (100, 0, 100)").unwrap();
            assert!(memo(&s, Q).is_none());
            assert_eq!(s.query(Q).unwrap().len(), 2);
            db.shutdown();
        }

        #[test]
        fn ddl_a_new_column_index_and_other_literals_miss() {
            let (db, s) = cluster(0.0);
            let other = "SELECT g, SUM(v) FROM t WHERE v > 2 GROUP BY g";
            s.query(Q).unwrap();
            assert!(memo(&s, Q).is_some());
            assert!(memo(&s, other).is_none(), "other literals");

            s.execute("CREATE INDEX iv ON u (v)").unwrap();
            assert!(memo(&s, Q).is_none(), "a DDL starts a new generation");

            let u = "SELECT g, SUM(v) FROM u WHERE v > 1 GROUP BY g";
            s.query(u).unwrap();
            let rows = s.query(u).unwrap();
            assert!(memo(&s, u).is_some());
            db.enable_column_index("u").unwrap();
            assert!(memo(&s, u).is_none(), "u now has a column index");
            assert_eq!(s.query(u).unwrap(), rows);
            let binding = memo(&s, u).unwrap();
            let (_, choice, _) = &binding.tables[0];
            assert_eq!(*choice, polardbx_optimizer::StorageChoice::ColumnIndex);
            db.shutdown();
        }
    }
}
