//! The timed run: one client, one connection, closed loop. It records
//! nothing but client-side latencies (and the host probe between windows);
//! per-layer numbers come from the separate traced run.

use std::time::Duration;

use polardbx_common::time::Timer;
use polardbx_common::Result;

use crate::driver::{wire_op, Checker, Env};
use crate::gen::{Generator, Spec};
use crate::layers::process_cpu_s;
use crate::stats;

/// Set-ups per run. `setup_s` is their median: one set-up is a second or
/// two of single-shot work, too few samples to compare two commits by.
pub const SETUP_REPEATS: usize = 3;

/// A set-up cluster, its client and the state that follows the sequence.
pub struct Runner {
    /// The system under test.
    pub env: Env,
    /// The wire sequence; the warm-up has consumed its first rounds.
    pub gen: Generator,
    /// Expected answers.
    pub checker: Checker,
    /// Ops sent, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error (they have no latency).
    pub failed: u64,
    /// Client-side latency of each acknowledged read op since the last
    /// [`Runner::take_latencies`].
    pub read_ns: Vec<u64>,
    /// The same for write ops.
    pub write_ns: Vec<u64>,
}

impl Runner {
    /// Everything before the first measured op: build, load, index,
    /// connect, and the warm-up pass over the first rounds of the sequence.
    pub fn set_up(spec: &Spec, seed: u64) -> Result<Runner> {
        let env = Env::build(spec)?;
        let checker = Checker::new(&env);
        let mut runner = Runner {
            env,
            gen: Generator::new(spec, seed),
            checker,
            attempted: 0,
            failed: 0,
            read_ns: Vec::new(),
            write_ns: Vec::new(),
        };
        runner.run_rounds(spec.warmup_rounds);
        runner.take_latencies();
        Ok(runner)
    }

    /// Run `rounds` rounds; returns the ops acknowledged.
    pub fn run_rounds(&mut self, rounds: usize) -> u64 {
        let mut acked = 0;
        for _ in 0..rounds {
            for op in self.gen.next_round() {
                self.attempted += 1;
                let t = Timer::start();
                let reply = wire_op(&mut self.env.client, &self.env.stmt_ids, &op);
                let ns = t.elapsed().as_nanos() as u64;
                match reply {
                    Ok(reply) => {
                        if op.tag.is_read() {
                            &mut self.read_ns
                        } else {
                            &mut self.write_ns
                        }
                        .push(ns);
                        self.checker.check(&op, &reply);
                        acked += 1;
                    }
                    Err(e) => {
                        self.failed += 1;
                        self.checker.wrong.get_or_insert(format!("op failed: {e}"));
                    }
                }
            }
        }
        acked
    }

    /// Hand over the (read, write) latencies recorded since the last call.
    pub fn take_latencies(&mut self) -> (Vec<u64>, Vec<u64>) {
        (
            std::mem::take(&mut self.read_ns),
            std::mem::take(&mut self.write_ns),
        )
    }
}

/// A fixed piece of work that depends on nothing in the repository: 100 000
/// dependent loads around one random cycle through 4 MiB. Its time is the
/// host's memory latency at that moment.
///
/// On the shared host the benchmark was written on, that latency wanders by
/// a factor of two over minutes (neighbours on the same socket), and every
/// CPU-bound metric follows it: identical runs came out 15-35 % apart, and
/// no statistic inside a run helps because a slow phase outlasts the run.
/// The probe runs between windows and around each set-up, and CPU-bound
/// time is reported at [`Probe::REF_NS`]: see [`Probe::factor`].
pub struct Probe {
    cycle: Vec<u32>,
}

impl Probe {
    /// Probe time of the reference host in its quiet state.
    pub const REF_NS: f64 = 3.0e6;

    /// Build the cycle (Sattolo's shuffle: one cycle through every slot).
    pub fn new() -> Probe {
        let mut cycle: Vec<u32> = (0..1u32 << 20).collect();
        let mut rng = crate::gen::Rng::new(0x5EED);
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as i64) as usize);
        }
        Probe { cycle }
    }

    /// The quickest of three walks, in nanoseconds.
    pub fn run(&self) -> f64 {
        let mut best = u128::MAX;
        for _ in 0..3 {
            let t = Timer::start();
            let mut at = 0u32;
            for _ in 0..100_000 {
                at = self.cycle[at as usize];
            }
            std::hint::black_box(at);
            best = best.min(t.elapsed().as_nanos());
        }
        best as f64
    }

    /// What an interval's wall time is multiplied by to report it at the
    /// reference host speed: the `busy` share of the interval (process CPU
    /// time ÷ wall time) scales with the probe, the rest (sleeps, simulated
    /// network delay) does not. `probe_ns` is the mean of the probes right
    /// before and right after the interval.
    pub fn factor(busy: f64, probe_ns: f64) -> f64 {
        1.0 - busy.clamp(0.0, 1.0) * (1.0 - Probe::REF_NS / probe_ns)
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// One window of the measured phase.
pub struct Window {
    /// Ops acknowledged.
    pub ops: u64,
    /// Wall time.
    pub wall_s: f64,
    /// Mean of the probes before and after the window.
    pub probe_ns: f64,
    /// Read latencies, in arrival order.
    pub read_ns: Vec<u64>,
    /// Write latencies, in arrival order.
    pub write_ns: Vec<u64>,
}

/// One set-up of the run.
pub struct SetUp {
    /// Wall time, the first counted from process start.
    pub wall_s: f64,
    /// Process CPU time ÷ wall time.
    pub busy: f64,
    /// Mean of the probes before and after.
    pub probe_ns: f64,
}

/// What one timed run measured.
pub struct Timed {
    /// Every set-up.
    pub setups: Vec<SetUp>,
    /// Every window of the measured phase.
    pub windows: Vec<Window>,
    /// Wall time of the measured phase, probes included.
    pub wall_s: f64,
    /// Process CPU time ÷ wall time over the measured phase.
    pub busy: f64,
    /// Ops sent, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

impl Timed {
    /// Ops acknowledged in the measured phase.
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    /// An interval's factor, its probe kept within a factor of two of the
    /// run's median probe so that one disturbed probe cannot distort it.
    fn factor(&self, busy: f64, probe_ns: f64, corrected: bool) -> f64 {
        if !corrected {
            return 1.0;
        }
        let typical = self.probe_ns();
        Probe::factor(busy, probe_ns.clamp(typical / 2.0, typical * 2.0))
    }

    /// Median set-up time; at the reference host speed when `corrected`.
    pub fn setup_s(&self, corrected: bool) -> f64 {
        let times: Vec<f64> = self
            .setups
            .iter()
            .map(|s| s.wall_s * self.factor(s.busy, s.probe_ns, corrected))
            .collect();
        stats::median(&times)
    }

    /// Median over the windows of ops ÷ wall time.
    pub fn ops_per_s(&self, corrected: bool) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ops as f64 / (w.wall_s * self.factor(self.busy, w.probe_ns, corrected)))
            .collect();
        stats::median(&rates)
    }

    /// Sorted read (or write) latencies of the measured phase in ns, each
    /// scaled by its window's factor when `corrected`.
    pub fn latencies(&self, read: bool, corrected: bool) -> Vec<u64> {
        let mut all = Vec::new();
        for w in &self.windows {
            let factor = self.factor(self.busy, w.probe_ns, corrected);
            let samples = if read { &w.read_ns } else { &w.write_ns };
            all.extend(samples.iter().map(|&ns| (ns as f64 * factor) as u64));
        }
        all.sort_unstable();
        all
    }

    /// Median probe time over the windows.
    pub fn probe_ns(&self) -> f64 {
        stats::median(&self.windows.iter().map(|w| w.probe_ns).collect::<Vec<_>>())
    }
}

/// Set up [`SETUP_REPEATS`] times, then measure whole windows of the
/// sequence on the last set-up until `seconds` have passed.
pub fn run(spec: &Spec, seed: u64, seconds: u64, process_start: Timer) -> Result<Timed> {
    let probe = Probe::new();
    let mut setups = Vec::new();
    let mut runner: Option<Runner> = None;
    let mut before = probe.run();
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = runner.take() {
            previous.env.teardown();
        }
        let (t, cpu) = (
            if repeat == 0 {
                process_start
            } else {
                Timer::start()
            },
            process_cpu_s(),
        );
        runner = Some(Runner::set_up(spec, seed)?);
        let wall_s = t.elapsed().as_secs_f64();
        let busy = (process_cpu_s() - cpu) / wall_s;
        let after = probe.run();
        setups.push(SetUp {
            wall_s,
            busy,
            probe_ns: (before + after) / 2.0,
        });
        before = after;
    }
    let mut runner = runner.expect("SETUP_REPEATS is at least 1");

    let budget = Duration::from_secs(seconds);
    let mut windows = Vec::new();
    let (t0, cpu0) = (Timer::start(), process_cpu_s());
    while t0.elapsed() < budget {
        let w = Timer::start();
        let ops = runner.run_rounds(spec.window_rounds);
        let wall_s = w.elapsed().as_secs_f64();
        let after = probe.run();
        let (read_ns, write_ns) = runner.take_latencies();
        windows.push(Window {
            ops,
            wall_s,
            probe_ns: (before + after) / 2.0,
            read_ns,
            write_ns,
        });
        before = after;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let busy = (process_cpu_s() - cpu0) / wall_s;

    runner.checker.final_check(&mut runner.env.client)?;
    let timed = Timed {
        setups,
        windows,
        wall_s,
        busy,
        attempted: runner.attempted,
        failed: runner.failed,
        wrong: runner.checker.wrong.take(),
    };
    runner.env.teardown();
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_only_the_busy_share() {
        // At the reference speed nothing changes.
        assert_eq!(Probe::factor(0.9, Probe::REF_NS), 1.0);
        // A host twice as slow: fully busy time halves, idle time stays.
        assert_eq!(Probe::factor(1.0, 2.0 * Probe::REF_NS), 0.5);
        assert_eq!(Probe::factor(0.0, 2.0 * Probe::REF_NS), 1.0);
        assert!((Probe::factor(0.2, 2.0 * Probe::REF_NS) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn the_probe_walks_one_full_cycle() {
        let probe = Probe::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = probe.cycle[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, probe.cycle.len());
    }
}
