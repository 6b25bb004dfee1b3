//! Public simulation API: [`Simulation`] owns a run, [`Sim`] is the cheap
//! cloneable handle processes use to talk to the kernel.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::kernel::{Kernel, ProcId, RunOutcome};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKey, Tracer};

/// A complete simulation run: kernel + metrics + tracer.
///
/// Typical use:
/// ```
/// use deep_simkit::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new(42);
/// let ctx = sim.handle();
/// sim.spawn("hello", async move {
///     ctx.sleep(SimDuration::micros(5)).await;
///     assert_eq!(ctx.now().as_nanos(), 5_000);
/// });
/// sim.run().assert_completed();
/// ```
pub struct Simulation {
    sim: Sim,
}

/// Cheap, cloneable handle to the simulation kernel. All simulated
/// components hold one of these.
#[derive(Clone)]
pub struct Sim {
    pub(crate) kernel: Rc<RefCell<Kernel>>,
    metrics: Rc<RefCell<Metrics>>,
    tracer: Rc<RefCell<Tracer>>,
    seed: u64,
}

impl Simulation {
    /// Create a simulation with the given master seed. Two simulations
    /// built with the same seed and the same program are bit-identical.
    pub fn new(seed: u64) -> Self {
        Simulation {
            sim: Sim {
                kernel: Rc::new(RefCell::new(Kernel::new())),
                metrics: Rc::new(RefCell::new(Metrics::new())),
                tracer: Rc::new(RefCell::new(Tracer::disabled())),
                seed,
            },
        }
    }

    /// Enable the event tracer (records `trace!`-style strings with
    /// timestamps; useful in tests and when debugging protocol issues).
    pub fn enable_tracing(&mut self) {
        self.sim.tracer.borrow_mut().enable();
    }

    /// Get a handle usable inside and outside processes.
    pub fn handle(&self) -> Sim {
        self.sim.clone()
    }

    /// Spawn a root process. See [`Sim::spawn`].
    pub fn spawn<F, T>(&mut self, name: impl Into<String>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.sim.spawn(name, fut)
    }

    /// Total process polls performed so far — the kernel's event
    /// counter. One poll is one scheduled event (a wake, a message
    /// delivery, a timer firing); scaling benchmarks divide this by wall
    /// time for an events/s figure.
    pub fn events_processed(&self) -> u64 {
        self.sim.kernel.borrow().events
    }

    /// Run until every process finished (or deadlock).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until the horizon, completion, or deadlock — whichever first.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        loop {
            // Drain the ready list at the current instant. Each poll costs
            // exactly two kernel borrows: take the future out, put it back.
            loop {
                let Some((pid, mut fut)) = self.sim.kernel.borrow_mut().take_ready() else {
                    break;
                };
                if fut.as_mut().poll(&mut cx).is_ready() {
                    self.sim.kernel.borrow_mut().finish_proc(pid);
                    // `fut` dropped here, outside the kernel borrow.
                } else {
                    self.sim.kernel.borrow_mut().finish_poll(pid, fut);
                }
            }

            // Advance to the next timer.
            let mut k = self.sim.kernel.borrow_mut();
            match k.next_timer_at() {
                None => {
                    return if k.live == 0 {
                        RunOutcome::Completed
                    } else {
                        RunOutcome::Deadlock(k.blocked_proc_names(16))
                    };
                }
                Some(at) if at > horizon => {
                    k.now = horizon;
                    return RunOutcome::HorizonReached;
                }
                Some(at) => k.fire_timers_at(at),
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Access collected metrics after (or during) a run.
    pub fn metrics(&self) -> std::cell::Ref<'_, Metrics> {
        self.sim.metrics.borrow()
    }

    /// Drain the trace log as rendered lines (empty unless tracing was
    /// enabled). Events emitted via [`Sim::trace`] come back as their
    /// payload; typed events from [`Sim::emit`] are rendered as
    /// `[component/kind] payload`.
    pub fn take_trace(&self) -> Vec<(SimTime, String)> {
        self.take_events()
            .into_iter()
            .map(|e| (e.at, e.render()))
            .collect()
    }

    /// Drain the trace log as typed events (empty unless tracing was
    /// enabled). Component/kind names are stored interned during the run
    /// and resolved to strings here, at export.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.sim.tracer.borrow_mut().take()
    }
}

impl Sim {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Master seed of this simulation.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent, deterministic RNG stream. Components should
    /// fork one stream each (keyed by a stable identifier) so adding a
    /// component never perturbs another's randomness.
    pub fn fork_rng(&self, stream: u64) -> SimRng {
        SimRng::from_seed_stream(self.seed, stream)
    }

    /// Spawn a process; returns a handle that can be awaited for the result.
    pub fn spawn<F, T>(&self, name: impl Into<String>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let (wrapped, result) = wrap_proc(fut);
        let id = self.kernel.borrow_mut().add_proc(name.into(), wrapped);
        ProcHandle {
            sim: self.clone(),
            id,
            result,
        }
    }

    /// Same as [`Sim::spawn`]; the partition is ignored. Kept only for
    /// callers built against the former partitioned kernel.
    #[doc(hidden)]
    pub fn spawn_in<F, T>(&self, _partition: u32, name: impl Into<String>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn(name, fut)
    }

    /// Same as [`Sim::spawn_fmt`]; the partition is ignored. Kept only
    /// for callers built against the former partitioned kernel.
    #[doc(hidden)]
    pub fn spawn_in_fmt<F, T>(
        &self,
        _partition: u32,
        name: std::fmt::Arguments<'_>,
        fut: F,
    ) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn_fmt(name, fut)
    }

    /// Spawn with a name formatted straight into recycled kernel storage:
    /// `sim.spawn_fmt(format_args!("rank-{r}"), fut)` builds no fresh
    /// `String` once the name pool is warm. Use in spawn-heavy loops.
    pub fn spawn_fmt<F, T>(&self, name: std::fmt::Arguments<'_>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let (wrapped, result) = wrap_proc(fut);
        let id = self.kernel.borrow_mut().add_proc_fmt(name, wrapped);
        ProcHandle {
            sim: self.clone(),
            id,
            result,
        }
    }

    /// Sleep for a span of virtual time.
    #[inline]
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        Sleep {
            kernel: self.kernel.clone(),
            until: self.now() + d,
            token: None,
        }
    }

    /// Sleep until an absolute instant (no-op if already past).
    #[inline]
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            kernel: self.kernel.clone(),
            until: at,
            token: None,
        }
    }

    /// Yield to let other ready processes run at the same instant.
    /// Unlike `sleep(ZERO)` (which completes immediately), this puts the
    /// caller at the back of the ready list exactly once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow {
            kernel: self.kernel.clone(),
            yielded: false,
        }
    }

    /// Forcibly terminate a process. Joiners are woken; the handle reports
    /// `None` as its result.
    pub fn kill(&self, id: ProcId) {
        let fut = self.kernel.borrow_mut().kill_proc(id);
        // Drop outside the borrow: the future's destructors may re-enter
        // the kernel (e.g. a pending `Sleep` cancels its timer).
        drop(fut);
    }

    /// Record a plain trace line (no-op unless tracing enabled). Recorded
    /// as a [`TraceEvent`] with component `"sim"` and kind `"msg"`.
    pub fn trace(&self, msg: impl FnOnce() -> String) {
        self.emit("sim", "msg", msg);
    }

    /// Record a typed trace event (no-op unless tracing enabled). The
    /// payload closure is only evaluated when tracing is on. Component and
    /// kind are interned — recording allocates only the payload. Hot
    /// loops should pre-intern with [`Sim::trace_key`] and use
    /// [`Sim::emit_key`] to skip the name lookups entirely.
    pub fn emit(&self, component: &str, kind: &str, payload: impl FnOnce() -> String) {
        let mut t = self.tracer.borrow_mut();
        if t.is_enabled() {
            let at = self.now();
            t.record_named(at, component, kind, payload());
        }
    }

    /// Pre-intern a `(component, kind)` pair for allocation- and
    /// lookup-free emission via [`Sim::emit_key`]. Keys are cheap `Copy`
    /// ids, stable for the lifetime of the run, and valid whether or not
    /// tracing is currently enabled.
    pub fn trace_key(&self, component: &str, kind: &str) -> TraceKey {
        self.tracer.borrow_mut().intern_key(component, kind)
    }

    /// Record a typed trace event through a pre-interned [`TraceKey`]
    /// (no-op unless tracing enabled). The payload closure is only
    /// evaluated when tracing is on.
    #[inline]
    pub fn emit_key(&self, key: TraceKey, payload: impl FnOnce() -> String) {
        let mut t = self.tracer.borrow_mut();
        if t.is_enabled() {
            let at = self.now();
            t.record_key(at, key, payload());
        }
    }

    /// Mutate the metrics registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut Metrics) -> R) -> R {
        f(&mut self.metrics.borrow_mut())
    }

    /// The id of the process currently being polled. Panics outside a poll.
    pub fn current_proc(&self) -> ProcId {
        self.kernel.borrow().current_proc()
    }

    #[inline]
    pub(crate) fn make_ready(&self, id: ProcId) {
        self.kernel.borrow_mut().make_ready(id);
    }
}

/// Box a user future, capturing its output into a shared result cell.
fn wrap_proc<F, T>(fut: F) -> (crate::kernel::BoxedProc, Rc<RefCell<Option<T>>>)
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    let result: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
    let r2 = result.clone();
    let wrapped = Box::pin(async move {
        let v = fut.await;
        *r2.borrow_mut() = Some(v);
    });
    (wrapped, result)
}

/// Handle to a spawned process; awaiting it yields `Some(result)` or
/// `None` if the process was killed.
pub struct ProcHandle<T> {
    sim: Sim,
    id: ProcId,
    result: Rc<RefCell<Option<T>>>,
}

impl<T> ProcHandle<T> {
    /// Kernel id of the process.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// True once the process has terminated.
    pub fn is_finished(&self) -> bool {
        self.sim.kernel.borrow().is_finished(self.id)
    }

    /// Take the result without awaiting (None if still running or killed).
    pub fn try_result(&self) -> Option<T> {
        self.result.borrow_mut().take()
    }
}

impl<T> Future for ProcHandle<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut k = self.sim.kernel.borrow_mut();
        if k.is_finished(self.id) {
            drop(k);
            Poll::Ready(self.result.borrow_mut().take())
        } else {
            let me = k.current_proc();
            k.add_join_waiter(self.id, me);
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`].
///
/// Holds only the kernel handle (one `Rc`, not a whole [`Sim`] clone) and
/// arms exactly one timer. A spurious wake (e.g. by a channel during a
/// race) does **not** re-push a duplicate timer — the original entry is
/// still pending. Dropping an armed `Sleep` before its deadline lazily
/// cancels the timer, so lost races and timeouts leave no dead heap
/// entries behind.
pub struct Sleep {
    kernel: Rc<RefCell<Kernel>>,
    until: SimTime,
    /// Token of the armed timer; `None` before arming and after firing.
    token: Option<u64>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut k = this.kernel.borrow_mut();
        if k.now >= this.until {
            // The timer (if armed) fired to get us here; nothing to cancel.
            this.token = None;
            return Poll::Ready(());
        }
        if this.token.is_none() {
            let me = k.current_proc();
            this.token = Some(k.schedule_wake(this.until, me));
        }
        // Armed and not yet due: the original timer is still pending, so a
        // spurious wake needs no re-arm.
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            let mut k = self.kernel.borrow_mut();
            // Before the deadline the timer cannot have fired yet (time
            // only advances through pending timers); after it, it has.
            if k.now < self.until {
                k.cancel_wake(token);
            }
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    kernel: Rc<RefCell<Kernel>>,
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            return Poll::Ready(());
        }
        self.yielded = true;
        let mut k = self.kernel.borrow_mut();
        let me = k.current_proc();
        // Re-queue ourselves behind everything already runnable.
        k.procs[me.0 as usize].queued = false; // currently being polled
        k.make_ready(me);
        Poll::Pending
    }
}

impl RunOutcome {
    /// Panic unless the run completed normally.
    pub fn assert_completed(&self) {
        match self {
            RunOutcome::Completed => {}
            RunOutcome::HorizonReached => panic!("simulation hit its horizon before completing"),
            RunOutcome::Deadlock(names) => {
                panic!("simulation deadlocked; blocked processes: {names:?}")
            }
        }
    }

    /// True if the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes() {
        let mut sim = Simulation::new(1);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_time() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("sleeper", async move {
            ctx.sleep(SimDuration::micros(10)).await;
            ctx.sleep(SimDuration::micros(5)).await;
            assert_eq!(ctx.now().as_micros(), 15);
        });
        sim.run().assert_completed();
        assert_eq!(sim.now().as_micros(), 15);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let ctx = sim.handle();
            let log = log.clone();
            sim.spawn(format!("p{i}"), async move {
                for step in 0..3u64 {
                    ctx.sleep(SimDuration::nanos(10 * (step + 1) + i as u64))
                        .await;
                    log.borrow_mut().push((ctx.now().as_nanos(), i));
                }
            });
        }
        sim.run().assert_completed();
        let got = log.borrow().clone();
        // Times strictly ordered by (time, spawn order at equal times).
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 9);
    }

    #[test]
    fn join_returns_result() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("parent", async move {
            let c2 = ctx.clone();
            let child = ctx.spawn("child", async move {
                c2.sleep(SimDuration::micros(1)).await;
                1234u64
            });
            let v = child.await;
            assert_eq!(v, Some(1234));
            assert_eq!(ctx.now().as_micros(), 1);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn join_already_finished_child() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("parent", async move {
            let child = ctx.spawn("child", async move { 7u32 });
            ctx.sleep(SimDuration::micros(1)).await;
            assert!(child.is_finished());
            assert_eq!(child.await, Some(7));
        });
        sim.run().assert_completed();
    }

    #[test]
    fn spawn_fmt_reuses_name_storage() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            for i in 0..100u32 {
                let c = ctx.clone();
                let h = ctx.spawn_fmt(format_args!("worker-{i}"), async move {
                    c.sleep(SimDuration::nanos(1)).await;
                    i
                });
                assert_eq!(h.await, Some(i));
            }
        });
        sim.run().assert_completed();
    }

    #[test]
    fn kill_wakes_joiner_with_none() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("parent", async move {
            let c2 = ctx.clone();
            let child = ctx.spawn("victim", async move {
                c2.sleep(SimDuration::secs(1000)).await;
                1u8
            });
            ctx.sleep(SimDuration::micros(1)).await;
            ctx.kill(child.id());
            assert_eq!(child.await, None);
            // Killed long before its sleep would have expired.
            assert!(ctx.now().as_secs_f64() < 1.0);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn deadlock_reports_blocked_process() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("waiter", async move {
            // Join a process that never finishes and is never killed.
            let c2 = ctx.clone();
            let stuck = ctx.spawn("stuck", async move {
                // Wait on a process handle that nobody completes: itself via
                // an event that never fires. Simplest: join parent's handle —
                // but we don't have it. Use an empty never-ready future.
                std::future::pending::<()>().await;
                drop(c2);
            });
            stuck.await;
        });
        match sim.run() {
            RunOutcome::Deadlock(names) => {
                assert!(names.iter().any(|n| n == "stuck"));
                assert!(names.iter().any(|n| n == "waiter"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn run_until_horizon_stops_early() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("late", async move {
            ctx.sleep(SimDuration::secs(10)).await;
        });
        let out = sim.run_until(SimTime::ZERO + SimDuration::secs(1));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::secs(1));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace_of(seed: u64) -> Vec<(SimTime, String)> {
            let mut sim = Simulation::new(seed);
            sim.enable_tracing();
            let ctx = sim.handle();
            sim.spawn("rng-user", async move {
                let mut rng = ctx.fork_rng(7);
                for _ in 0..5 {
                    let d = SimDuration::nanos(rng.gen_range(1..1000));
                    ctx.sleep(d).await;
                    ctx.trace(|| format!("tick at {}", ctx.now()));
                }
            });
            sim.run().assert_completed();
            sim.take_trace()
        }
        assert_eq!(trace_of(99), trace_of(99));
        assert_ne!(trace_of(99), trace_of(100));
    }

    #[test]
    fn typed_events_carry_structure() {
        let mut sim = Simulation::new(3);
        sim.enable_tracing();
        let ctx = sim.handle();
        sim.spawn("emitter", async move {
            ctx.emit("net", "retry", || "link 4".to_string());
            ctx.sleep(SimDuration::nanos(10)).await;
            ctx.trace(|| "plain".to_string());
        });
        sim.run().assert_completed();
        let events = sim.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].component, "net");
        assert_eq!(events[0].kind, "retry");
        assert_eq!(events[0].payload, "link 4");
        assert_eq!(events[0].at, SimTime::ZERO);
        assert_eq!(events[1].component, "sim");
        assert_eq!(events[1].kind, "msg");
        assert_eq!(events[1].render(), "plain");
        assert_eq!(events[1].at.as_nanos(), 10);
    }

    #[test]
    fn events_not_recorded_when_disabled() {
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        sim.spawn("emitter", async move {
            ctx.emit("net", "retry", || unreachable!("payload must not be built"));
        });
        sim.run().assert_completed();
        assert!(sim.take_events().is_empty());
    }

    #[test]
    fn emit_key_round_trips_through_interner() {
        let mut sim = Simulation::new(3);
        sim.enable_tracing();
        let ctx = sim.handle();
        let key = ctx.trace_key("net", "retry");
        // Interning is idempotent: same names, same key, whole run long.
        assert_eq!(ctx.trace_key("net", "retry"), key);
        sim.spawn("emitter", async move {
            ctx.emit_key(key, || "via key".to_string());
            ctx.emit("net", "retry", || "via names".to_string());
            assert_eq!(ctx.trace_key("net", "retry"), key);
        });
        sim.run().assert_completed();
        let events = sim.take_events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.component, "net");
            assert_eq!(e.kind, "retry");
        }
        assert_eq!(events[0].payload, "via key");
        assert_eq!(events[1].payload, "via names");
    }

    #[test]
    fn heap_and_wheel_timers_fire_in_schedule_order() {
        // Five wake-ups collide at T. Two were armed on the heap (a full
        // wheel horizon ahead), three on the wheel (armed within 1 µs of
        // T), and a sixth heap timer for T was cancelled when its race
        // was lost. Schedule order is every heap seq before every wheel
        // seq; spawn order differs from it, so a wrong drain shows.
        const T: u64 = 5_000;
        let mut sim = Simulation::new(7);
        sim.enable_tracing();
        // (name, first sleep, second sleep); the two legs add up to T.
        let legs = [
            ("w-late", 4_900, 100),
            ("w-early", 4_500, 500),
            ("h-late", 2_000, 3_000),
            ("h-early", T, 0),
        ];
        for (name, first, second) in legs {
            let ctx = sim.handle();
            sim.spawn(name, async move {
                ctx.sleep(SimDuration::nanos(first)).await;
                ctx.sleep(SimDuration::nanos(second)).await;
                ctx.trace(|| name.to_string());
            });
        }
        let ctx = sim.handle();
        sim.spawn("cancel", async move {
            let (c1, c2) = (ctx.clone(), ctx.clone());
            let won = ctx
                .race(
                    async move { c1.sleep(SimDuration::nanos(4_800)).await },
                    async move { c2.sleep(SimDuration::nanos(T)).await },
                )
                .await;
            assert!(won.left().is_some());
            // Armed on the wheel at 4.8 µs. A stale wake from the
            // cancelled heap timer would run it ahead of `h-late`.
            ctx.sleep(SimDuration::nanos(200)).await;
            ctx.trace(|| "cancel".to_string());
        });
        sim.run().assert_completed();
        let at = SimTime::ZERO + SimDuration::nanos(T);
        let order: Vec<(SimTime, String)> = ["h-early", "h-late", "w-early", "cancel", "w-late"]
            .iter()
            .map(|n| (at, n.to_string()))
            .collect();
        assert_eq!(sim.take_trace(), order);
    }

    #[test]
    fn events_processed_counts_polls() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("ticker", async move {
            for _ in 0..10 {
                ctx.sleep(SimDuration::nanos(5)).await;
            }
        });
        sim.run().assert_completed();
        // One initial poll plus one per timer wake, at minimum.
        assert!(sim.events_processed() >= 11);
    }

    #[test]
    fn dropped_sleep_cancels_its_timer() {
        // A lost race leaves no timer behind: the loser's deadline must
        // not hold the clock back or wake anyone.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("racer", async move {
            let c1 = ctx.clone();
            let c2 = ctx.clone();
            let r = ctx
                .race(
                    async move {
                        c1.sleep(SimDuration::micros(1)).await;
                        "fast"
                    },
                    async move {
                        c2.sleep(SimDuration::secs(3600)).await;
                        "slow"
                    },
                )
                .await;
            (r.left(), ctx.now().as_micros())
        });
        sim.run().assert_completed();
        // The run completed at 1us — the abandoned 1-hour timer was
        // discarded rather than fired.
        assert_eq!(h.try_result(), Some((Some("fast"), 1)));
        assert_eq!(sim.now().as_micros(), 1);
    }
}
