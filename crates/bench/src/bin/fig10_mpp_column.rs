//! Fig 10 — MPP execution and the in-memory column index on TPC-H.
//!
//! §VII-C: "after using MPP, almost all queries are greatly improved, and
//! 21 of them are improved by more than 100%. Q9 has the highest
//! improvement ratio … The ratios of Q11 and Q15 are relatively low";
//! "using column index, the latency of seven queries [Q1, Q6, Q8, Q12,
//! Q14, Q15, Q21] have been significantly reduced."
//!
//! Measurement strategy on this single-core host:
//!
//! * **Row-store serial** — measured directly.
//! * **MPP ×4** — measured-component model: `T·(f/4 + 1−f) + overhead`
//!   where `f` is each plan's parallelizable cost fraction from the
//!   optimizer (see `polardbx_bench::modeled_mpp_time`). On multi-core
//!   hosts `MppExecutor` realizes this directly.
//! * **Column index** — measured directly, and measured on what ships:
//!   the AP engine (`MppExecutor`, one worker, so the column isolates the
//!   source from the fan-out) over a provider that attaches every table's
//!   column index — each scan leaf draws selection ranges over the
//!   snapshot's typed lanes instead of scanning row partitions (§VI-E).
//! * **Vectorized MPP** — measured directly: the same engine at four
//!   workers over the row partitions (typed filter loops, hashed group
//!   slots, morsels on the persistent worker pool). Per-operator metric
//!   counters are printed at the end.
//!
//! Run: `cargo run --release -p polardbx-bench --bin fig10_mpp_column [--quick]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_bench::{fmt_dur, header, modeled_mpp_time, parallel_fraction, quick, row};
use polardbx_common::DcId;
use polardbx_executor::{exec_metrics, execute_plan, ExecCtx, MppExecutor, TableProvider};
use polardbx_workloads::tpch;

/// Warm-up, then best-of-`reps` (stable on a shared host).
fn best_of(reps: usize, mut run: impl FnMut()) -> Duration {
    run();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed()
        })
        .min()
        .unwrap()
}

fn main() {
    let sf = if quick() { 0.02 } else { 0.08 };
    let reps = if quick() { 3 } else { 5 };

    println!("# Fig 10 — MPP ×4 and in-memory column index, TPC-H-lite SF {sf}");
    println!();

    let db = PolarDbx::build(ClusterConfig { dns: 4, default_shards: 8, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    tpch::create_schema(&s, 8).unwrap();
    let lineitems = tpch::load(&db, tpch::ScaleFactor(sf), 99).unwrap();
    println!("  loaded {} lineitem rows", lineitems);
    for t in ["lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region"]
    {
        db.enable_column_index(t).unwrap();
    }
    println!();

    let stats = db.gms().statistics();
    let row_provider: Arc<dyn TableProvider> = Arc::new(db.provider(false));
    let col_provider: Arc<dyn TableProvider> = Arc::new(db.provider(true));
    let ctx = ExecCtx::unrestricted();

    let mpp = MppExecutor::new(4);
    let mpp_serial = MppExecutor::new(1);
    exec_metrics().reset();

    header(&[
        "query",
        "row serial",
        "MPP x4 (modeled)",
        "MPP gain",
        "column index",
        "column gain",
        "vectorized",
        "vec gain",
        "f",
    ]);

    let mut mpp_over_100 = 0;
    let mut col_wins: Vec<(usize, f64)> = Vec::new();
    for q in 1..=22usize {
        let sql = tpch::query_sql(q);
        let polardbx_sql::Statement::Select(sel) = polardbx_sql::parse(sql).unwrap() else {
            unreachable!()
        };
        let plan = polardbx_optimizer::optimize_with_stats(
            polardbx_sql::build_plan(&sel, db.gms().as_ref()).unwrap(),
            &stats,
        );

        let t_row = best_of(reps, || {
            execute_plan(&plan, row_provider.as_ref(), &ctx).unwrap();
        });
        let t_col = best_of(reps, || {
            mpp_serial.execute(&plan, &col_provider, &ctx).unwrap();
        });
        let t_vec = best_of(reps, || {
            mpp.execute(&plan, &row_provider, &ctx).unwrap();
        });
        let f = parallel_fraction(&plan, &stats);
        let t_mpp = modeled_mpp_time(t_row, f, 4, Duration::from_micros(150));

        let mpp_gain = (t_row.as_secs_f64() / t_mpp.as_secs_f64() - 1.0) * 100.0;
        let col_gain = (t_row.as_secs_f64() / t_col.as_secs_f64() - 1.0) * 100.0;
        let vec_gain = (t_row.as_secs_f64() / t_vec.as_secs_f64() - 1.0) * 100.0;
        if mpp_gain > 100.0 {
            mpp_over_100 += 1;
        }
        if col_gain > 50.0 {
            col_wins.push((q, col_gain));
        }
        row(&[
            format!("Q{q}"),
            fmt_dur(t_row),
            fmt_dur(t_mpp),
            format!("{mpp_gain:+.0}%"),
            fmt_dur(t_col),
            format!("{col_gain:+.0}%"),
            fmt_dur(t_vec),
            format!("{vec_gain:+.0}%"),
            format!("{f:.2}"),
        ]);
    }

    println!();
    println!("  MPP: {mpp_over_100}/22 queries improved >100% (paper: 21/22; Q9 highest,");
    println!("  Q11/Q15 lowest — small inputs leave the CN unsaturated).");
    println!(
        "  Column index: {} queries improved >50%: {:?}",
        col_wins.len(),
        col_wins.iter().map(|(q, g)| format!("Q{q} {g:+.0}%")).collect::<Vec<_>>()
    );
    println!("  (paper: Q1 +748%, Q6 +1828%, Q8 +243%, Q12 +556%, Q14 +547%, Q15 +463%, Q21 +348%)");
    println!();
    print!("{}", exec_metrics().report());
    db.shutdown();
}
