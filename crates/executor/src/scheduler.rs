//! Workload classes, CPU governors and time-slicing (§VI-C/D).
//!
//! The CN classifies query jobs into three classes:
//!
//! * **TP** — unrestricted CPU, on the thread that received the statement
//!   (the connection thread of a wire client, the caller's own thread for
//!   an embedded session). A TP job runs under its slice, and one that runs
//!   longer "will terminate its current time slice and be re-assigned to
//!   AP Core Pool for subsequent execution". The slice and the demotion
//!   isolate TP; no pool of its own is needed for that;
//! * **AP Core Pool** — CPU capped (cgroups in the paper, a cooperative
//!   [`CpuGovernor`] here) while TP work is in flight;
//! * **Slow Query AP Core Pool** — an even lower share for queries that
//!   overran the AP slice.
//!
//! The governor is polled from the executor's inner loops (`ExecCtx::tick`),
//! giving the same preemption granularity as the paper's time-slicing
//! execution model.

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx_common::time::{mono_now, Timer};

use polardbx_common::metrics::{Counter, InFlight};

use crate::exec_metrics::exec_metrics;

/// Which class a job runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// TP: on the calling thread, under the TP slice.
    Tp,
    /// AP Core Pool.
    Ap,
    /// Slow Query AP Core Pool.
    SlowAp,
}

/// Cooperative CPU cap: jobs call [`CpuGovernor::pace`] from their inner
/// loops; the governor sleeps them whenever their running share exceeds
/// `quota` while TP work is in flight. It is work-conserving, like cgroups'
/// `cpu.weight` rather than a hard `cpu.cfs_quota`: an AP query that has
/// the machine to itself runs at full speed.
pub struct CpuGovernor {
    /// Allowed CPU share in (0, 1], stored as f64 bits (runtime-adjustable:
    /// the HTAP harness re-provisions AP capacity when RO nodes are added).
    quota_bits: AtomicU64,
    /// Work-to-time calibration: how long `pace(1)` of work represents.
    work_unit: Duration,
    /// TP jobs and open coordinator transactions: the pressure that makes
    /// the quota bind.
    tp_work: InFlight,
}

impl CpuGovernor {
    /// A governor granting `quota` of the CPU whenever `tp_work` is up.
    pub fn new(quota: f64, tp_work: InFlight) -> Arc<CpuGovernor> {
        Arc::new(CpuGovernor {
            quota_bits: AtomicU64::new(quota.clamp(0.01, 1.0).to_bits()),
            work_unit: Duration::from_nanos(50),
            tp_work,
        })
    }

    /// Current quota.
    pub fn quota(&self) -> f64 {
        f64::from_bits(self.quota_bits.load(Ordering::Relaxed))
    }

    /// Re-provision the quota (cgroups `cpu.cfs_quota` rewrite).
    pub fn set_quota(&self, quota: f64) {
        self.quota_bits.store(quota.clamp(0.01, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// Account `units` of work. While TP work is in flight, sleep long
    /// enough that the caller's duty cycle stays at the quota: for quota q,
    /// every unit of work earns `(1-q)/q` units of sleep. Otherwise return
    /// at once.
    pub fn pace(&self, units: u64) {
        let quota = self.quota();
        if quota < 1.0 && self.tp_work.any() {
            let work = self.work_unit * units as u32;
            let sleep = work.mul_f64((1.0 - quota) / quota);
            if sleep > Duration::from_micros(10) {
                let t0 = Timer::start();
                std::thread::sleep(sleep);
                exec_metrics().pacing_sleeps.inc();
                exec_metrics().pacing_nanos.add(t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

fn spawn_pool(name: &str, threads: usize) -> Sender<Job> {
    let (tx, rx) = unbounded::<Job>();
    for i in 0..threads {
        let rx = rx.clone();
        std::thread::Builder::new()
            .name(format!("{name}-{i}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("spawn pool worker");
    }
    tx
}

/// The CN's workload manager: the two AP pools + governors + counters.
pub struct WorkloadManager {
    /// TP work in flight: running TP jobs, plus the open transactions of
    /// the coordinators that share it (`Coordinator::with_tp_work`).
    tp_work: InFlight,
    ap: Sender<Job>,
    slow: Sender<Job>,
    /// AP group governor (shared by all AP jobs).
    pub ap_governor: Arc<CpuGovernor>,
    /// Slow-pool governor (lower share).
    pub slow_governor: Arc<CpuGovernor>,
    /// TP slice: a TP job exceeding this is re-assigned to the AP pool.
    pub tp_slice: Duration,
    /// AP slice: an AP job exceeding this migrates to the slow pool.
    pub ap_slice: Duration,
    /// Jobs re-assigned TP→AP (misclassification catches).
    pub tp_demotions: Counter,
    /// Jobs re-assigned AP→slow.
    pub ap_demotions: Counter,
    /// Resource isolation switch (Fig 9's first configuration turns it off).
    isolation_enabled: AtomicBool,
}

impl WorkloadManager {
    /// Build with the AP pool's thread count and CPU quotas for the AP
    /// groups.
    pub fn new(ap_threads: usize, ap_quota: f64, slow_quota: f64) -> Arc<WorkloadManager> {
        let tp_work = InFlight::new();
        Arc::new(WorkloadManager {
            ap: spawn_pool("ap-core", ap_threads.max(1)),
            slow: spawn_pool("slow-ap", 1),
            ap_governor: CpuGovernor::new(ap_quota, tp_work.clone()),
            slow_governor: CpuGovernor::new(slow_quota, tp_work.clone()),
            tp_work,
            tp_slice: Duration::from_millis(50),
            ap_slice: Duration::from_millis(500),
            tp_demotions: Counter::new(),
            ap_demotions: Counter::new(),
            isolation_enabled: AtomicBool::new(true),
        })
    }

    /// Typical CN sizing: TP runs on the threads that receive statements,
    /// AP gets half the cores and a restricted share.
    pub fn with_defaults() -> Arc<WorkloadManager> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
        WorkloadManager::new((cores / 2).max(1), 0.5, 0.1)
    }

    /// The TP-work gauge the governors read; a coordinator that shares it
    /// counts its open transactions as TP work.
    pub fn tp_work(&self) -> &InFlight {
        &self.tp_work
    }

    /// Toggle resource isolation (Fig 9 configuration switch). With
    /// isolation off, AP jobs run ungoverned and compete freely.
    pub fn set_isolation(&self, enabled: bool) {
        self.isolation_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is isolation on?
    pub fn isolation(&self) -> bool {
        self.isolation_enabled.load(Ordering::Relaxed)
    }

    /// The governor an AP-class job should poll (None = isolation off).
    pub fn governor_for(&self, class: JobClass) -> Option<Arc<CpuGovernor>> {
        if !self.isolation() {
            return None;
        }
        match class {
            JobClass::Tp => None,
            JobClass::Ap => Some(Arc::clone(&self.ap_governor)),
            JobClass::SlowAp => Some(Arc::clone(&self.slow_governor)),
        }
    }

    /// Submit a job to an AP pool. TP has no pool: [`run_with_demotion`]
    /// runs a TP job on the thread that received it.
    pub fn submit(&self, class: JobClass, job: impl FnOnce() + Send + 'static) {
        let pool = match class {
            JobClass::Tp => unreachable!("a TP job runs on its caller's thread"),
            JobClass::Ap => &self.ap,
            JobClass::SlowAp => &self.slow,
        };
        let _ = pool.send(Box::new(job));
    }

    /// Run an AP job synchronously in its pool and return its result.
    pub fn run<T: Send + 'static>(
        &self,
        class: JobClass,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.submit(class, move || {
            let _ = tx.send(job());
        });
        rx.recv().expect("pool worker died")
    }
}

/// Helper implementing the slice-overrun → demote discipline: runs `job`
/// with a deadline, a TP job on the calling thread; on overrun the job
/// aborts (it checks the deadline cooperatively) and re-runs in the AP
/// pool, and so on to the slow pool. Returns the result together with the
/// class that completed it. Only a demoted job is moved to the heap.
pub fn run_with_demotion<T: Send + 'static>(
    mgr: &WorkloadManager,
    start_class: JobClass,
    job: impl Fn(Option<Deadline>, Option<Arc<CpuGovernor>>) -> Option<T> + Send + Sync + 'static,
) -> (T, JobClass) {
    let mut class = start_class;
    if class == JobClass::Tp {
        let in_flight = mgr.tp_work.enter();
        if let Some(v) = job(Some(Deadline::after(mgr.tp_slice)), None) {
            return (v, class);
        }
        drop(in_flight);
        mgr.tp_demotions.inc();
        class = JobClass::Ap;
    }
    let job = Arc::new(job);
    loop {
        let deadline = (class == JobClass::Ap).then(|| Deadline::after(mgr.ap_slice));
        let governor = mgr.governor_for(class);
        let j = Arc::clone(&job);
        if let Some(v) = mgr.run(class, move || j(deadline, governor)) {
            return (v, class);
        }
        assert_eq!(class, JobClass::Ap, "the slow pool has no deadline");
        mgr.ap_demotions.inc();
        class = JobClass::SlowAp;
    }
}

/// A cooperative deadline jobs poll to honour their time slice.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Duration,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Deadline {
        Deadline { at: mono_now() + d }
    }

    /// Has the slice expired?
    pub fn expired(&self) -> bool {
        mono_now() >= self.at
    }
}

/// Per-job execution context threaded through the operators: polls the
/// governor and the slice deadline every `TICK_EVERY` rows.
pub struct TickState {
    counter: Mutex<u64>,
    governor: Option<Arc<CpuGovernor>>,
    deadline: Option<Deadline>,
}

/// Poll frequency in row-operations.
pub const TICK_EVERY: u64 = 1024;

impl TickState {
    /// A context with optional governor and deadline.
    pub fn new(governor: Option<Arc<CpuGovernor>>, deadline: Option<Deadline>) -> TickState {
        TickState { counter: Mutex::new(0), governor, deadline }
    }

    /// Unrestricted context.
    pub fn unrestricted() -> TickState {
        TickState::new(None, None)
    }

    /// A sibling context for a parallel worker: same governor and deadline,
    /// fresh row counter (each worker paces its own work).
    pub fn fork(&self) -> TickState {
        TickState::new(self.governor.clone(), self.deadline)
    }

    /// Account `rows` of work; pace/abort as configured. Returns false when
    /// the slice expired (the job must stop and report demotion).
    pub fn tick(&self, rows: u64) -> bool {
        let mut c = self.counter.lock();
        *c += rows;
        if *c < TICK_EVERY {
            return true;
        }
        let units = *c / TICK_EVERY;
        *c %= TICK_EVERY;
        drop(c);
        if let Some(g) = &self.governor {
            g.pace(units * TICK_EVERY);
        }
        if let Some(d) = &self.deadline {
            if d.expired() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_execute_jobs() {
        let mgr = WorkloadManager::new(2, 1.0, 1.0);
        let out = mgr.run(JobClass::Ap, || "ap".to_string());
        assert_eq!(out, "ap");
        let out = mgr.run(JobClass::SlowAp, || 41 + 1);
        assert_eq!(out, 42);
    }

    #[test]
    fn a_tp_job_runs_on_the_callers_thread() {
        let mgr = WorkloadManager::new(1, 0.5, 0.1);
        let caller = std::thread::current().id();
        let (ran_on, class) = run_with_demotion(&mgr, JobClass::Tp, |deadline, governor| {
            assert!(deadline.is_some() && governor.is_none(), "TP runs ungoverned, in its slice");
            Some(std::thread::current().id())
        });
        assert_eq!((ran_on, class), (caller, JobClass::Tp));
        assert_eq!(mgr.tp_demotions.get(), 0);
    }

    #[test]
    fn a_tp_job_that_overruns_its_slice_reruns_on_the_ap_pool() {
        let mgr = WorkloadManager::new(1, 0.5, 0.1);
        let caller = std::thread::current().id();
        let (ran_on, class) = run_with_demotion(&mgr, JobClass::Tp, move |_, _| {
            let me = std::thread::current();
            // The TP attempt reports its slice expired; the AP re-run ends.
            (me.id() != caller).then(|| me.name().map(str::to_string))
        });
        assert_eq!(class, JobClass::Ap);
        assert!(ran_on.is_some_and(|name| name.starts_with("ap-core")), "re-run off the AP pool");
        assert_eq!(mgr.tp_demotions.get(), 1);
        assert_eq!(mgr.ap_demotions.get(), 0);
    }

    /// How long `g` takes over 200 paced quanta of 4 096 rows.
    fn paced(g: &Arc<CpuGovernor>) -> Duration {
        let t0 = Timer::start();
        for _ in 0..200 {
            g.pace(4096);
        }
        t0.elapsed()
    }

    #[test]
    fn governor_paces_only_while_tp_work_is_in_flight() {
        let tp_work = InFlight::new();
        let capped = CpuGovernor::new(0.25, tp_work.clone());
        // Idle machine: 200 quanta earn 200 × 614 µs of sleep at quota
        // 0.25, none of which is taken.
        let idle = paced(&capped);
        assert!(idle < Duration::from_millis(60), "paced without TP work: {idle:?}");
        // A TP job or an open transaction holds the cap at the quota.
        let guard = tp_work.enter();
        let busy = paced(&capped);
        assert!(busy >= Duration::from_millis(100), "quota not enforced: {busy:?}");
        drop(guard);
        assert!(!tp_work.any());
    }

    #[test]
    fn a_tp_job_is_tp_work_until_it_returns() {
        let mgr = WorkloadManager::new(1, 0.5, 0.1);
        assert!(!mgr.tp_work().any());
        let gauge = mgr.tp_work().clone();
        assert!(run_with_demotion(&mgr, JobClass::Tp, move |_, _| Some(gauge.any())).0);
        // The caller drops the job's guard right after the job hands back
        // its result.
        let deadline = mono_now() + Duration::from_secs(2);
        while mgr.tp_work().any() {
            assert!(mono_now() < deadline, "a finished TP job is still in flight");
            std::thread::yield_now();
        }
        let gauge = mgr.tp_work().clone();
        assert!(!mgr.run(JobClass::Ap, move || gauge.any()), "an AP job is not TP work");
    }

    #[test]
    fn tick_paces_and_detects_expiry() {
        let ts = TickState::new(None, Some(Deadline::after(Duration::from_millis(10))));
        assert!(ts.tick(1));
        std::thread::sleep(Duration::from_millis(15));
        // Needs to accumulate a full tick quantum to check the deadline.
        assert!(!ts.tick(TICK_EVERY));
    }

    #[test]
    fn misclassified_job_demotes_tp_to_ap() {
        let mgr = WorkloadManager::new(2, 1.0, 1.0);
        // The job "runs long": it reports slice expiry as a TP job, then
        // completes in the AP pool.
        let (result, class) = run_with_demotion(&mgr, JobClass::Tp, move |deadline, _gov| {
            if let Some(d) = deadline {
                // Simulate work that outlives a TP slice.
                while !d.expired() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // TP slice always expires for this job; AP slice (500 ms) is
                // enough to finish "instantly" after the spin.
                if d.expired() && mono_now() < d.at + Duration::from_millis(200) {
                    // Came from the 50 ms TP slice → give up.
                    return None;
                }
            }
            Some(7)
        });
        // It must NOT have completed as a TP job.
        assert_eq!(result, 7);
        assert_ne!(class, JobClass::Tp);
        assert!(mgr.tp_demotions.get() >= 1);
    }

    #[test]
    fn isolation_switch_removes_governor() {
        let mgr = WorkloadManager::new(1, 0.5, 0.1);
        assert!(mgr.governor_for(JobClass::Ap).is_some());
        mgr.set_isolation(false);
        assert!(mgr.governor_for(JobClass::Ap).is_none());
        assert!(mgr.governor_for(JobClass::Tp).is_none());
        mgr.set_isolation(true);
        assert!(mgr.governor_for(JobClass::SlowAp).is_some());
    }

    #[test]
    fn concurrent_jobs_all_complete() {
        let mgr = WorkloadManager::new(2, 1.0, 1.0);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            mgr.submit(JobClass::Ap, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = mono_now() + Duration::from_secs(2);
        while counter.load(Ordering::Relaxed) < 64 && mono_now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
