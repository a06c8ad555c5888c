//! polarbench command line. See `benchmark/README.md`.

use polardbx_common::time::Timer;
use std::process::ExitCode;

use polarbench::gen::Spec;
use polarbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use polarbench::timed::{Probe, Timed};
use polarbench::trace::{Budget, Traced, LAYERS};
use polarbench::{stats, timed, trace};

const USAGE: &str =
    "usage: polarbench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
  --workload  oltp_point | crossdc_txn | htap_scan | htap_mixed | all   (default all)
  --seed      seed of the op sequence                                    (default 42)
  --seconds   length of the measured phase of the timed run              (default 15)
  --trace     0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default 0)";

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Spec::all(),
        seed: 42,
        seconds: 15,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                args.workloads =
                    vec![Spec::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Restrict this thread, and so every thread the run starts, to the
/// highest-numbered CPU it may use (device interrupts land on the lowest);
/// returns that CPU. One client in a closed loop keeps one thread runnable
/// at a time, but on a shared 2-vCPU host the scheduler spread the op's
/// hand-offs over both CPUs differently in every process: cross-CPU
/// wake-ups made `oltp_point` 40 % slower and every metric 6-18 % apart
/// between identical runs. On one CPU identical runs agree within 2-3 %.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A JSON number with every digit measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    value: impl Fn(&str) -> f64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value(d.name)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn report_timed(spec: &Spec, t: &Timed) -> (bool, String) {
    // Sorted latencies, indexed [read][corrected].
    let sorted =
        [false, true].map(|read| [false, true].map(|corrected| t.latencies(read, corrected)));
    let value = |name: &str, corrected: bool| {
        let pct = |read: bool, p: f64| {
            ms(stats::percentile(
                &sorted[read as usize][corrected as usize],
                p,
            ))
        };
        match name {
            "setup_s" => t.setup_s(corrected),
            "ops_per_s" => t.ops_per_s(corrected),
            "read_p50_ms" => pct(true, 0.50),
            "read_p90_ms" => pct(true, 0.90),
            "write_p50_ms" => pct(false, 0.50),
            "write_p90_ms" => pct(false, 0.90),
            other => unreachable!("undeclared end-to-end metric {other}"),
        }
    };
    let (reads, writes) = (&sorted[1][0], &sorted[0][0]);
    let samples = |name: &str| match name {
        "setup_s" => format!("median of {} set-ups", t.setups.len()),
        "ops_per_s" => format!(
            "median of {} windows of {} rounds; run total {:.2} 1/s: {} ops in {:.2} s",
            t.windows.len(),
            spec.window_rounds,
            t.ops() as f64 / t.wall_s,
            t.ops(),
            t.wall_s
        ),
        n if n.starts_with("read") => format!("{} samples", reads.len()),
        _ => format!("{} samples", writes.len()),
    };
    println!("  metric         at ref speed          as timed  samples");
    for d in &END_TO_END {
        println!(
            "  {:<14} {:>12.4} {:<4} {:>12.4}  {}",
            d.name,
            value(d.name, true),
            d.unit,
            value(d.name, false),
            samples(d.name)
        );
    }
    println!(
        "  host probe: median {:.3} ms between windows (reference {:.3} ms); {:.2} CPU-s per wall-s \
         in the measured phase; peak RSS {:.0} MiB",
        t.probe_ns() / 1e6,
        Probe::REF_NS / 1e6,
        t.busy,
        polarbench::layers::peak_rss_mb()
    );
    let rates: Vec<String> = t
        .windows
        .iter()
        .map(|w| format!("{:.1}", w.ops as f64 / w.wall_s))
        .collect();
    println!("  window rates as timed, 1/s: {}", rates.join(" "));
    println!(
        "  not end-to-end (too few samples beyond them), as timed: read p99 {:.4} ms, \
         p99.9 {:.4} ms; write p99 {:.4} ms, p99.9 {:.4} ms",
        ms(stats::percentile(reads, 0.99)),
        ms(stats::percentile(reads, 0.999)),
        ms(stats::percentile(writes, 0.99)),
        ms(stats::percentile(writes, 0.999))
    );
    let correct = t.wrong.is_none() && t.failed == 0;
    (
        correct,
        result_line(correct, t.attempted, t.failed, &END_TO_END, |name| {
            value(name, true)
        }),
    )
}

fn print_budget(class: &str, b: &Budget) {
    println!("  budget of the p50 {class} op ({} ops traced), us:", b.ops);
    for (layer, us) in LAYERS.iter().zip(b.layer_us) {
        let share = if b.end_to_end_us > 0.0 {
            100.0 * us / b.end_to_end_us
        } else {
            0.0
        };
        println!("    {layer:<14} {us:>12.1} {share:>6.1} %");
    }
    println!("    {:<14} {:>12.1}", "unattributed", b.unattributed_us);
    println!(
        "    {:<14} {:>12.1}  = end-to-end p50 of the traced pass",
        "sum", b.end_to_end_us
    );
}

fn report_traced(t: &Traced) -> (bool, String) {
    for d in &PER_LAYER {
        println!("  {:<34} {:>14.4} {}", d.name, t.metrics[d.name], d.unit);
    }
    print_budget("read", &t.read);
    print_budget("write", &t.write);
    println!(
        "  {} spans in {} · sequence digest {:016x} · set-up {:.3} s",
        t.spans,
        t.path.display(),
        t.digest,
        t.setup_s
    );
    let correct = t.wrong.is_none() && t.failed == 0;
    (
        correct,
        result_line(correct, t.attempted, t.failed, &PER_LAYER, |name| {
            t.metrics[name]
        }),
    )
}

fn main() -> ExitCode {
    let start = Timer::start();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("polarbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = pin_to_one_cpu().map_or("not pinned".to_string(), |c| format!("pinned to CPU {c}"));
    let mut all_correct = true;
    for (i, spec) in args.workloads.iter().enumerate() {
        // Only the first workload of a run starts with the process.
        let begun = if i == 0 { start } else { Timer::start() };
        let mode = if args.trace {
            "traced run"
        } else {
            "timed run"
        };
        println!(
            "== {} · seed {} · {mode} · 1 client, 1 connection, closed loop · {cpu}",
            spec.name, args.seed
        );
        println!(
            "  why: {}",
            spec.why.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        let outcome = if args.trace {
            trace::run(
                spec,
                args.seed,
                begun,
                std::path::Path::new("benchmark/out"),
            )
            .map(|t| (report_traced(&t), t.attempted, t.failed, t.wrong))
        } else {
            timed::run(spec, args.seed, args.seconds, begun)
                .map(|t| (report_timed(spec, &t), t.attempted, t.failed, t.wrong))
        };
        match outcome {
            Ok(((correct, line), attempted, failed, wrong)) => {
                let answers = wrong.map_or("correct".to_string(), |w| format!("WRONG: {w}"));
                println!(
                    "  attempted {attempted} · failed {failed} · the client never retries · answers {answers}"
                );
                println!("{line}");
                all_correct &= correct;
            }
            Err(e) => {
                eprintln!("polarbench: {}: {e}", spec.name);
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
