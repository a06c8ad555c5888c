//! `sitcheck` — run the seeded isolation matrix and write a report.
//!
//! ```text
//! sitcheck [--quick | --full] [--seeds N] [--base-seed HEX]
//!          [--mutations] [--out PATH]
//! ```
//!
//! Exit status is non-zero when any unmutated run reports an anomaly, any
//! derived audit total disagrees, or any mutation goes undetected.

use polardbx_common::testseed::{format_seed, parse_seed, seed_from_env};
use polardbx_sitcheck::explorer::{self, ExplorerConfig, Mutation, Schedule};
use polardbx_sitcheck::report::render_report;
use polardbx_sitcheck::AnomalyKind;

const DEFAULT_BASE_SEED: u64 = 0x51_C4EC;

struct Args {
    quick: bool,
    seeds: usize,
    base_seed: u64,
    mutations: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: true,
        seeds: 4,
        base_seed: seed_from_env(DEFAULT_BASE_SEED),
        mutations: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--full" => {
                args.quick = false;
                args.seeds = args.seeds.max(8);
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad --seeds {v}"))?;
            }
            "--base-seed" => {
                let v = it.next().ok_or("--base-seed needs a value")?;
                args.base_seed = parse_seed(&v).ok_or(format!("bad --base-seed {v}"))?;
            }
            "--mutations" => args.mutations = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                println!(
                    "usage: sitcheck [--quick|--full] [--seeds N] [--base-seed HEX] \
                     [--mutations] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Rewrite the (partial) report after every run. CI's artifact step is
/// `if: always()`, but an artifact can only capture what reached disk: a
/// panic or runner timeout mid-matrix used to discard every witness
/// rendered so far because the report was written once at exit. Flushing
/// per run means a flaky schedule (the ro-lag witness especially) leaves
/// its evidence behind even when the job dies on a later run.
fn flush_report(path: Option<&String>, text: &str) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("sitcheck: cannot write {path}: {e}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sitcheck: {e}");
            std::process::exit(2);
        }
    };
    let schedules = if args.quick { Schedule::quick() } else { Schedule::all() };
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.base_seed.wrapping_add(i)).collect();
    println!(
        "sitcheck: {} schedule(s) x {} seed(s), base seed {}",
        schedules.len(),
        seeds.len(),
        format_seed(args.base_seed)
    );

    let mut report_text = String::new();
    let mut failed = false;
    let expected_total = 12 * 100i64; // ExplorerConfig::quick's bank shape

    for &seed in &seeds {
        for &schedule in schedules {
            let run = explorer::run(&ExplorerConfig::quick(seed, schedule));
            let text = render_report(&run);
            print!("{text}");
            report_text.push_str(&text);
            if !run.report.is_clean() {
                failed = true;
            }
            for (trx, total) in &run.audit_totals {
                if *total != expected_total {
                    failed = true;
                    let line = format!(
                        "  AUDIT MISMATCH: {trx} summed {total}, expected {expected_total}\n"
                    );
                    print!("{line}");
                    report_text.push_str(&line);
                }
            }
            flush_report(args.out.as_ref(), &report_text);
        }
    }

    if args.mutations {
        for &m in Mutation::all() {
            let expect: &[AnomalyKind] = match m {
                Mutation::SkipCommitClockUpdate => &[AnomalyKind::GSIb],
                Mutation::IgnorePreparedReads => &[AnomalyKind::GSIa],
                Mutation::DropPrepare => &[AnomalyKind::LostWrite],
                // A fence-skipped commit lands on the abandoned old home;
                // depending on interleaving the checker names it a lost
                // update, a lost write, or a missed effect.
                Mutation::SkipRoutingEpochFence => {
                    &[AnomalyKind::LostUpdate, AnomalyKind::LostWrite, AnomalyKind::GSIb]
                }
                Mutation::SkipEditConflictCheck => &[AnomalyKind::LostUpdate],
                Mutation::ResolveOnPartialView | Mutation::ForgetRefusal => {
                    &[AnomalyKind::LostWrite]
                }
            };
            let expect_names = expect.iter().map(|k| k.name()).collect::<Vec<_>>().join(" | ");
            // Three consecutive seeds cover the scenario's three write paths
            // (`write()`s, writes staged into the commit round, pushed edits).
            for seed in (0..3).map(|i| args.base_seed.wrapping_add(i)) {
                let path = m.path(seed);
                let mutated = explorer::run_mutated(m, seed);
                let twin = explorer::run_unmutated_twin(m, seed);
                let caught = expect.iter().any(|k| mutated.report.has(*k));
                let twin_clean = twin.report.is_clean();
                let line = format!(
                    "=== {} ({path:?}) === expected {} : {} | unmutated twin: {}\n",
                    mutated.schedule_label,
                    expect_names,
                    if caught { "DETECTED" } else { "MISSED" },
                    if twin_clean { "clean" } else { "ANOMALOUS" },
                );
                print!("{line}");
                report_text.push_str(&line);
                report_text.push_str(&render_report(&mutated));
                if !twin_clean {
                    report_text.push_str(&render_report(&twin));
                }
                if !caught || !twin_clean {
                    failed = true;
                }
                flush_report(args.out.as_ref(), &report_text);
            }
        }
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &report_text) {
            eprintln!("sitcheck: cannot write {path}: {e}");
            failed = true;
        } else {
            println!("sitcheck: report written to {path}");
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
