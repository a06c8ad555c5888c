//! Allocation ratchet for the point-statement path. After warm-up, one
//! in-process `Session::query` point SELECT, one pushed `UPDATE … WHERE
//! id = k` and one single-row INSERT are counted, armed on the calling
//! thread. A TP statement runs
//! on the thread that received it, so the count covers admission, the
//! plan-cache hit (lex, bind) and the per-execution planning steps,
//! routing, execution and (for the UPDATE) the commit this thread waits
//! on; work done on other threads (simnet delivery) is not counted. Every
//! counted SELECT and UPDATE is a plan-cache hit: the warm-up ran its
//! shape. An INSERT skips the cache; its shape is admitted by traffic
//! control, which allocates only for a shape it has not seen.
//!
//! The bounds are what the path allocates today, in an optimized build
//! (an unoptimized one keeps clones the optimizer removes, so it only
//! prints its counts). They only go down: a change that lowers a count
//! lowers its bound with it.

use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_bench::alloc_count;
use polardbx_common::DcId;

/// Allocations of one point SELECT.
const SELECT_BOUND: u64 = 50;
/// Allocations of one pushed single-key UPDATE.
const UPDATE_BOUND: u64 = 53;
/// Allocations of one single-row INSERT.
const INSERT_BOUND: u64 = 66;
const ROWS: i64 = 64;
const WARMUP: i64 = 2_000;
const ROUNDS: i64 = 50;

fn select(s: &Session, k: i64) -> u64 {
    let sql = format!("SELECT v FROM b WHERE id = {k}");
    alloc_count::arm();
    let rows = s.query(&sql);
    let allocs = alloc_count::disarm();
    assert_eq!(rows.unwrap().len(), 1, "{sql}");
    allocs
}

fn update(s: &Session, k: i64) -> u64 {
    let sql = format!("UPDATE b SET v = v + 1 WHERE id = {k}");
    alloc_count::arm();
    let affected = s.execute(&sql);
    let allocs = alloc_count::disarm();
    assert_eq!(affected.unwrap(), 1, "{sql}");
    allocs
}

fn insert(s: &Session, k: i64) -> u64 {
    let sql = format!("INSERT INTO b (id, v, pad) VALUES ({k}, 0, 'x')");
    alloc_count::arm();
    let affected = s.execute(&sql);
    let allocs = alloc_count::disarm();
    assert_eq!(affected.unwrap(), 1, "{sql}");
    allocs
}

#[test]
fn a_point_select_a_pushed_update_and_an_insert_stay_within_their_allocation_bounds() {
    if !alloc_count::ENABLED {
        eprintln!("count-alloc feature off — skipping");
        return;
    }
    let db = PolarDbx::build(ClusterConfig { dns: 2, default_shards: 8, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE b (id BIGINT NOT NULL, v BIGINT, pad VARCHAR(64), \
         PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    let pad = "x".repeat(64);
    let values: Vec<String> = (0..ROWS).map(|id| format!("({id}, 0, '{pad}')")).collect();
    s.execute(&format!("INSERT INTO b (id, v, pad) VALUES {}", values.join(","))).unwrap();
    for i in 0..WARMUP {
        select(&s, i % ROWS);
        update(&s, i % ROWS);
        insert(&s, ROWS + i);
    }
    // The steady-state cost is the least seen over the rounds: a version
    // chain or a map now and then grows, which adds to one statement in
    // many.
    let (mut of_select, mut of_update, mut of_insert) = (u64::MAX, u64::MAX, u64::MAX);
    for i in 0..ROUNDS {
        of_select = of_select.min(select(&s, i % ROWS));
        of_update = of_update.min(update(&s, i % ROWS));
        of_insert = of_insert.min(insert(&s, ROWS + WARMUP + i));
    }
    eprintln!(
        "a point SELECT allocates {of_select} times, a pushed UPDATE {of_update}, \
         an INSERT {of_insert}"
    );
    db.shutdown();
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        of_select <= SELECT_BOUND,
        "a point SELECT allocates {of_select} times (bound {SELECT_BOUND})"
    );
    assert!(
        of_update <= UPDATE_BOUND,
        "a pushed UPDATE allocates {of_update} times (bound {UPDATE_BOUND})"
    );
    assert!(
        of_insert <= INSERT_BOUND,
        "an INSERT allocates {of_insert} times (bound {INSERT_BOUND})"
    );
}
