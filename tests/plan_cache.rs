//! The cluster's plan cache, driven through `Session`: statements of one
//! shape share one cached template and each still gets its own answer, a
//! literal the plan depends on is never shared, a DDL retires the templates
//! built before it, and a cached SELECT is classified per execution.

use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_common::{DcId, Value};
use polardbx_optimizer::WorkloadClass;

fn ints(s: &Session, sql: &str) -> Vec<i64> {
    s.query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .iter()
        .map(|row| match row.get(0).unwrap() {
            Value::Int(v) => *v,
            other => panic!("{sql}: {other:?}"),
        })
        .collect()
}

/// Two CNs run bindings of one SELECT shape and one UPDATE shape,
/// interleaved: every statement after the first of its shape is a hit, and
/// each reads or changes its own row. Each CN inserts, updates and reads
/// its own rows: a CN's snapshot covers its own commits, not yet another
/// CN's.
#[test]
fn interleaved_bindings_on_two_cns_each_get_their_own_row() {
    let db = PolarDbx::build(ClusterConfig { cns_per_dc: 2, default_shards: 4, ..Default::default() })
        .unwrap();
    let (a, b) = (db.connect_nth(0), db.connect_nth(1));
    assert_ne!(a.cn_id(), b.cn_id());
    a.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
    for (cn, first) in [(&a, 0), (&b, 1)] {
        let values: Vec<String> =
            (first..8).step_by(2).map(|id| format!("({id}, {})", id * 10)).collect();
        cn.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
    }
    for round in 1..=3 {
        for id in 0..8i64 {
            let cn = if id % 2 == 0 { &a } else { &b };
            let sql = format!("UPDATE t SET v = v + {id} WHERE id = {id}");
            assert_eq!(cn.execute(&sql).unwrap(), 1, "{sql}");
            let sql = format!("SELECT v FROM t WHERE id = {id}");
            assert_eq!(ints(cn, &sql), vec![id * 10 + round * id], "{sql}");
        }
    }
    let even = "SELECT SUM(v) FROM t WHERE id IN (0, 2, 4, 6)";
    assert_eq!(ints(&a, even), vec![120 + 3 * 12]);
    db.shutdown();
}

/// `LIMIT n` and a `LIKE` pattern are part of the plan, and a parameter's
/// type is part of the entry: statements differing in them share a shape
/// but not a template, and each gets the answer a cold cache gives it.
#[test]
fn a_structural_literal_or_a_parameter_type_is_never_shared() {
    let seed = |db: &PolarDbx| {
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, PRIMARY KEY (id))")
            .unwrap();
        s.execute("INSERT INTO t (id, name) VALUES (1, 'apple'), (2, 'avocado'), (3, 'banana')")
            .unwrap();
        s
    };
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = seed(&db);
    for (sql, want) in [
        ("SELECT id FROM t ORDER BY id LIMIT 1", vec![1]),
        ("SELECT id FROM t ORDER BY id LIMIT 2", vec![1, 2]),
        ("SELECT id FROM t ORDER BY id LIMIT 1", vec![1]),
        ("SELECT id FROM t WHERE name LIKE 'a%' ORDER BY id", vec![1, 2]),
        ("SELECT id FROM t WHERE name LIKE 'b%' ORDER BY id", vec![3]),
        ("SELECT id FROM t WHERE name LIKE 'a%' ORDER BY id", vec![1, 2]),
        ("SELECT id FROM t WHERE id = 1", vec![1]),
        ("SELECT id FROM t WHERE id = 1.0", vec![1]),
        ("SELECT id FROM t WHERE id = 2", vec![2]),
    ] {
        assert_eq!(ints(&s, sql), want, "{sql}");
    }
    // A string against an integer key: whatever the statement answers on
    // its own, it answers after its shape was cached with an integer.
    let sql = "SELECT id FROM t WHERE id = '1'";
    let warm = format!("{:?}", s.query(sql));
    let cold_db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let cold = format!("{:?}", seed(&cold_db).query(sql));
    assert_eq!(warm, cold, "{sql}");
    assert_eq!(ints(&s, "SELECT id FROM t WHERE id = 3"), vec![3]);
    cold_db.shutdown();
    db.shutdown();
}

/// A global `CREATE INDEX` between two runs of a cached UPDATE: the second
/// run is planned anew and maintains the new index table.
#[test]
fn a_cached_update_maintains_an_index_created_after_it_was_cached() {
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE g (id BIGINT NOT NULL, k BIGINT, v BIGINT, PRIMARY KEY (id))")
        .unwrap();
    s.execute("INSERT INTO g (id, k, v) VALUES (1, 10, 0), (2, 20, 0)").unwrap();
    assert_eq!(s.execute("UPDATE g SET k = 11 WHERE id = 1").unwrap(), 1);
    s.execute("CREATE GLOBAL INDEX by_k ON g (k)").unwrap();
    assert_eq!(ints(&s, "SELECT k FROM __gsi_g_by_k ORDER BY k"), vec![11, 20]);
    assert_eq!(s.execute("UPDATE g SET k = 12 WHERE id = 1").unwrap(), 1);
    assert_eq!(ints(&s, "SELECT k FROM __gsi_g_by_k ORDER BY k"), vec![12, 20]);
    assert_eq!(ints(&s, "SELECT k FROM g WHERE id = 1"), vec![12]);
    db.shutdown();
}

/// The template holds no statistics: a cached SELECT is estimated and
/// classified per execution, so it turns AP once its table grows.
#[test]
fn a_cached_select_is_reclassified_when_the_statistics_change() {
    let db = PolarDbx::build(ClusterConfig::default()).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
    s.execute("INSERT INTO t (id, v) VALUES (1, 5), (2, 7)").unwrap();
    let sql = "SELECT SUM(v) FROM t WHERE v > 1";
    let (rows, class) = s.query_classified(sql).unwrap();
    assert_eq!((rows[0].get(0).unwrap(), class), (&Value::Int(12), WorkloadClass::Tp));
    db.gms().record_rows("t", 1_000_000);
    let (rows, class) = s.query_classified(sql).unwrap();
    assert_eq!((rows[0].get(0).unwrap(), class), (&Value::Int(12), WorkloadClass::Ap));
    db.shutdown();
}

