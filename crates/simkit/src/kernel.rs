//! The simulation kernel: event queue, process table and ready list.
//!
//! The kernel is deliberately separated from the public [`crate::Sim`]
//! handle so that all mutation happens behind a single `RefCell`. The
//! executor never holds a kernel borrow while polling a process, which is
//! what allows process bodies to freely call back into the kernel (to
//! spawn, sleep, or touch channels) without re-entrancy panics.
//!
//! ## Hot-path layout
//!
//! The process table is split into a *hot* slab (`procs`: the future slot
//! plus run-state flags, 24 bytes per process) and *cold* side tables
//! (`names`, `join_waiters`) touched only at spawn, join and exit. The
//! event loop touches one hot slot per event, so a simulation with
//! thousands of processes keeps its working set in L1 instead of dragging
//! 80-byte slots (with inline `String`s) through the cache.
//!
//! Timers use lazy deletion: a cancelled sleep (future dropped before its
//! deadline) marks its token dead and the heap entry is discarded when it
//! surfaces, so timeout- and race-heavy workloads no longer accumulate
//! dead entries that must be popped, re-heapified and filtered at the
//! worst possible moment.
//!
//! ## Two timer queues
//!
//! Deadlines within [`WHEEL_SLOTS`] ns of now go to an O(1) timer
//! wheel; everything further out goes to one `BinaryHeap`. Firing
//! drains the heap's entries for an instant before the wheel slot's,
//! which is exact `(at, seq)` order — see [`Kernel::fire_timers_at`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;

use crate::time::SimTime;

/// Identifier of a simulated process. Dense, never reused within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A future pinned on the heap, as stored in the process table.
pub(crate) type BoxedProc = Pin<Box<dyn Future<Output = ()>>>;

/// Lifecycle of a process slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcStatus {
    /// Runnable or blocked.
    Alive,
    /// Ran to completion.
    Done,
    /// Killed before completion (fault injection, job abort).
    Killed,
}

/// Hot per-process state: exactly what the event loop touches per poll.
pub(crate) struct ProcSlot {
    /// The future lives here except while being polled.
    pub(crate) fut: Option<BoxedProc>,
    pub(crate) status: ProcStatus,
    /// Set while the process is in the ready list to avoid duplicate polls.
    pub(crate) queued: bool,
}

/// A far-horizon timer entry in the overflow heap. Ordered by `(at, seq)`
/// so that simultaneous events fire in the order they were scheduled —
/// this is the cornerstone of reproducibility.
#[derive(Clone, Copy)]
struct Timer {
    at: SimTime,
    /// Schedule order at equal `at`; unique per timer, so it doubles as
    /// the cancellation token: a sleep whose future is dropped registers
    /// its `seq` in `Kernel::cancelled` and the entry is discarded when
    /// it surfaces. One field, 24-byte entries.
    seq: u64,
    proc: ProcId,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Horizon of the short-timer wheel, in slots of one nanosecond each.
/// Must be a power of two. LogGP gaps, per-hop latencies and back-off
/// waits are all under a microsecond, so the overwhelming majority of
/// timers land here; anything further out takes the heap path.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Index-based timer wheel for deadlines within [`WHEEL_SLOTS`] ns of now.
///
/// Insertion and removal are O(1): slot `at % WHEEL_SLOTS` holds every
/// pending timer due at instant `at` (the mapping is injective because
/// the kernel never advances time past a pending timer, so live deadlines
/// always span less than one wheel turn). Within a slot, entries are
/// naturally seq-sorted — `seq` grows monotonically with scheduling
/// order, and slots only ever append. An occupancy bitmap makes "next
/// non-empty slot" a couple of `trailing_zeros` calls rather than a scan.
///
/// Slot `Vec`s keep their capacity across turns, so the steady-state
/// wheel performs no allocation at all.
struct TimerWheel {
    slots: Vec<Vec<(u64, ProcId)>>,
    occupied: [u64; WHEEL_WORDS],
    len: usize,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            len: 0,
        }
    }

    #[inline(always)]
    fn slot_of(at: SimTime) -> usize {
        at.as_nanos() as usize & (WHEEL_SLOTS - 1)
    }

    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, proc: ProcId) {
        let s = Self::slot_of(at);
        self.slots[s].push((seq, proc));
        self.occupied[s / 64] |= 1 << (s % 64);
        self.len += 1;
    }

    /// Absolute time of the earliest pending wheel timer, given `now`.
    /// All live entries are due within [now, now + WHEEL_SLOTS), so the
    /// circular slot distance from `now`'s slot *is* the time distance.
    fn next_at(&self, now: SimTime) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let cursor = Self::slot_of(now);
        let mut dist = None;
        let (w0, b0) = (cursor / 64, cursor % 64);
        let first = self.occupied[w0] >> b0;
        if first != 0 {
            dist = Some(first.trailing_zeros() as usize);
        } else {
            for step in 1..=WHEEL_WORDS {
                let w = (w0 + step) % WHEEL_WORDS;
                let word = if w == w0 {
                    // Wrapped all the way: only bits before the cursor.
                    self.occupied[w0] & ((1u64 << b0) - 1)
                } else {
                    self.occupied[w]
                };
                if word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    dist = Some((w * 64 + bit + WHEEL_SLOTS - cursor) % WHEEL_SLOTS);
                    break;
                }
            }
        }
        dist.map(|d| SimTime(now.as_nanos() + d as u64))
    }

    /// Drop cancelled entries from the slot due at `at`; returns true if
    /// the slot still has live entries. Only called on the rare path
    /// where the cancelled set is non-empty.
    fn purge(&mut self, at: SimTime, cancelled: &mut HashSet<u64>) -> bool {
        let s = Self::slot_of(at);
        let slot = &mut self.slots[s];
        let before = slot.len();
        slot.retain(|&(seq, _)| !cancelled.remove(&seq));
        self.len -= before - slot.len();
        if slot.is_empty() {
            self.occupied[s / 64] &= !(1 << (s % 64));
            false
        } else {
            true
        }
    }
}

/// Why [`crate::Simulation::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All processes finished and the event queue drained.
    Completed,
    /// The time horizon passed to `run_until` was reached.
    HorizonReached,
    /// Live processes remain but none can ever make progress.
    /// Contains the names of the blocked processes (up to a small cap).
    Deadlock(Vec<String>),
}

pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    seq: u64,
    /// O(1) queue for deadlines within the wheel horizon (the hot path).
    wheel: TimerWheel,
    /// Overflow heap for far-horizon deadlines.
    heap: BinaryHeap<Timer>,
    /// Tokens of cancelled (not yet surfaced) timers. Almost always empty;
    /// the `is_empty` fast path keeps the per-event cost at one branch.
    cancelled: HashSet<u64>,
    pub(crate) ready: VecDeque<ProcId>,
    /// Hot process slab: one 24-byte slot per process.
    pub(crate) procs: Vec<ProcSlot>,
    /// Cold: process names, only read at spawn/deadlock/diagnostics time.
    names: Vec<String>,
    /// Cold: processes waiting on each slot's completion.
    join_waiters: Vec<Vec<ProcId>>,
    /// Recycled name storage for `add_proc_fmt` (slab reuse: finished
    /// processes donate their `String` allocation to future spawns).
    name_pool: Vec<String>,
    /// Currently polled process; valid only during a poll.
    pub(crate) current: Option<ProcId>,
    /// Number of slots still `Alive`.
    pub(crate) live: usize,
    /// Total process polls performed — the kernel's event counter, used
    /// for events/s reporting by the scaling benchmarks.
    pub(crate) events: u64,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            wheel: TimerWheel::new(),
            heap: BinaryHeap::with_capacity(256),
            cancelled: HashSet::new(),
            ready: VecDeque::with_capacity(256),
            procs: Vec::with_capacity(256),
            names: Vec::with_capacity(256),
            join_waiters: Vec::with_capacity(256),
            name_pool: Vec::new(),
            current: None,
            live: 0,
            events: 0,
        }
    }

    /// Register a new process; it becomes runnable immediately.
    pub(crate) fn add_proc(&mut self, name: String, fut: BoxedProc) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(ProcSlot {
            fut: Some(fut),
            status: ProcStatus::Alive,
            queued: true,
        });
        self.names.push(name);
        self.join_waiters.push(Vec::new());
        self.live += 1;
        self.ready.push_back(id);
        id
    }

    /// Like [`Kernel::add_proc`], but formats the name into a recycled
    /// `String` from the name pool, so spawn-heavy loops do not allocate
    /// a fresh name per process.
    pub(crate) fn add_proc_fmt(&mut self, name: fmt::Arguments<'_>, fut: BoxedProc) -> ProcId {
        use fmt::Write as _;
        let mut s = self.name_pool.pop().unwrap_or_default();
        s.clear();
        let _ = s.write_fmt(name);
        self.add_proc(s, fut)
    }

    /// The process being polled right now. Panics outside a poll: kernel
    /// futures may only be awaited from inside simulation processes.
    #[inline]
    pub(crate) fn current_proc(&self) -> ProcId {
        self.current
            .expect("simkit future polled outside a simulation process")
    }

    /// Mark a process runnable (idempotent while already queued).
    #[inline]
    pub(crate) fn make_ready(&mut self, id: ProcId) {
        let slot = &mut self.procs[id.0 as usize];
        if slot.status == ProcStatus::Alive && !slot.queued {
            slot.queued = true;
            self.ready.push_back(id);
        }
    }

    /// Pop the next runnable process and take its future for polling.
    /// Sets `current`; the caller must hand the future back through
    /// [`Kernel::finish_poll`]. One kernel borrow instead of three.
    #[inline]
    pub(crate) fn take_ready(&mut self) -> Option<(ProcId, BoxedProc)> {
        while let Some(pid) = self.ready.pop_front() {
            let slot = &mut self.procs[pid.0 as usize];
            slot.queued = false;
            if slot.status != ProcStatus::Alive {
                continue; // stale wake of a finished/killed process
            }
            if let Some(fut) = slot.fut.take() {
                self.current = Some(pid);
                self.events += 1;
                return Some((pid, fut));
            }
        }
        None
    }

    /// Store the future back after a pending poll (single kernel borrow).
    /// Completed futures are instead reported via [`Kernel::finish_proc`];
    /// the caller drops them *outside* the kernel borrow, because dropping
    /// a future can re-enter the kernel (e.g. `Sleep` cancels its timer).
    #[inline]
    pub(crate) fn finish_poll(&mut self, pid: ProcId, fut: BoxedProc) {
        self.current = None;
        let slot = &mut self.procs[pid.0 as usize];
        if slot.status == ProcStatus::Alive {
            slot.fut = Some(fut);
        }
        // If the process was killed while polling (cannot kill itself
        // mid-poll in this design) the caller drops the future.
    }

    /// Schedule a wake-up for `proc` at absolute time `at`.
    /// Returns the token (the timer's unique `seq`) guarding this timer.
    #[inline]
    pub(crate) fn schedule_wake(&mut self, at: SimTime, proc: ProcId) -> u64 {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        self.seq += 1;
        if at.as_nanos() - self.now.as_nanos() < WHEEL_SLOTS as u64 {
            self.wheel.push(at, self.seq, proc);
        } else {
            self.heap.push(Timer {
                at,
                seq: self.seq,
                proc,
            });
        }
        self.seq
    }

    /// Lazily delete a pending timer: the entry stays in the heap but is
    /// discarded when it surfaces. Callers must only cancel timers that
    /// have not fired yet (a `Sleep` knows: its deadline is still ahead).
    #[inline]
    pub(crate) fn cancel_wake(&mut self, token: u64) {
        self.cancelled.insert(token);
    }

    /// Time of the earliest *live* pending timer, if any. Purges dead
    /// (cancelled) entries from the heap top and the wheel as a side
    /// effect.
    #[inline]
    pub(crate) fn next_timer_at(&mut self) -> Option<SimTime> {
        let heap_at = loop {
            match self.heap.peek() {
                None => break None,
                Some(t) => {
                    if self.cancelled.is_empty() || !self.cancelled.remove(&t.seq) {
                        break Some(t.at);
                    }
                    self.heap.pop();
                }
            }
        };
        let wheel_at = loop {
            match self.wheel.next_at(self.now) {
                None => break None,
                Some(at) => {
                    if self.cancelled.is_empty() || self.wheel.purge(at, &mut self.cancelled) {
                        break Some(at);
                    }
                    // Slot was entirely cancelled entries; keep scanning.
                }
            }
        };
        match (heap_at, wheel_at) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, None) => h,
            (None, w) => w,
        }
    }

    /// Fire every live timer due at instant `at` — which the caller just
    /// obtained from [`Kernel::next_timer_at`] — advancing `now` and
    /// waking the owners in schedule order.
    ///
    /// Heap entries are drained before the wheel slot, and that is exact
    /// `(at, seq)` order with no sort:
    ///
    /// * pops at equal `at` come out of the heap seq-sorted, and a wheel
    ///   slot is seq-sorted by construction (append-only, `seq`
    ///   monotone);
    /// * every heap-resident timer for this instant was scheduled when
    ///   the deadline was a full wheel-horizon away, i.e. strictly
    ///   earlier in virtual time than any wheel-resident timer for the
    ///   same instant — so all heap seqs precede all wheel seqs.
    #[inline]
    pub(crate) fn fire_timers_at(&mut self, at: SimTime) {
        self.now = at;
        while let Some(t) = self.heap.peek() {
            if t.at != at {
                break;
            }
            let t = self.heap.pop().unwrap();
            if !self.cancelled.is_empty() && self.cancelled.remove(&t.seq) {
                continue; // cancelled while queued at this instant
            }
            self.make_ready(t.proc);
        }
        if self.wheel.len > 0 {
            let s = TimerWheel::slot_of(at);
            if !self.wheel.slots[s].is_empty() {
                // Take the slot out so waking owners cannot alias the
                // wheel; its capacity is handed straight back.
                let mut slot = std::mem::take(&mut self.wheel.slots[s]);
                self.wheel.occupied[s / 64] &= !(1 << (s % 64));
                self.wheel.len -= slot.len();
                for &(seq, proc) in &slot {
                    if !self.cancelled.is_empty() && self.cancelled.remove(&seq) {
                        continue;
                    }
                    self.make_ready(proc);
                }
                slot.clear();
                self.wheel.slots[s] = slot;
            }
        }
    }

    /// Mark `id` finished and wake its joiners. The future has already
    /// been taken out by the poll loop; the slot's name allocation is
    /// recycled into the spawn pool.
    pub(crate) fn finish_proc(&mut self, id: ProcId) {
        let idx = id.0 as usize;
        let slot = &mut self.procs[idx];
        slot.status = ProcStatus::Done;
        slot.fut = None;
        self.current = None;
        self.live -= 1;
        self.recycle_name(idx);
        let waiters = std::mem::take(&mut self.join_waiters[idx]);
        for w in waiters {
            self.make_ready(w);
        }
    }

    /// Forcibly terminate a process. No-op if finished. Returns the
    /// process's future so the *caller* can drop it outside the kernel
    /// borrow (dropping it may re-enter the kernel, e.g. to cancel a
    /// pending sleep timer).
    #[must_use = "drop the returned future outside the kernel borrow"]
    pub(crate) fn kill_proc(&mut self, id: ProcId) -> Option<BoxedProc> {
        let idx = id.0 as usize;
        let slot = &mut self.procs[idx];
        if slot.status != ProcStatus::Alive {
            return None;
        }
        slot.status = ProcStatus::Killed;
        let fut = slot.fut.take();
        self.live -= 1;
        self.recycle_name(idx);
        let waiters = std::mem::take(&mut self.join_waiters[idx]);
        for w in waiters {
            self.make_ready(w);
        }
        fut
    }

    /// Move a finished slot's name into the spawn pool (bounded).
    fn recycle_name(&mut self, idx: usize) {
        if self.name_pool.len() < 64 {
            let name = std::mem::take(&mut self.names[idx]);
            if name.capacity() > 0 {
                self.name_pool.push(name);
            }
        }
    }

    /// Register `waiter` to be woken when `id` finishes.
    #[inline]
    pub(crate) fn add_join_waiter(&mut self, id: ProcId, waiter: ProcId) {
        self.join_waiters[id.0 as usize].push(waiter);
    }

    /// True if the process has terminated (normally or by kill).
    #[inline]
    pub(crate) fn is_finished(&self, id: ProcId) -> bool {
        self.procs[id.0 as usize].status != ProcStatus::Alive
    }

    /// Names of processes that are alive but not runnable — the deadlock set.
    pub(crate) fn blocked_proc_names(&self, cap: usize) -> Vec<String> {
        self.procs
            .iter()
            .zip(self.names.iter())
            .filter(|(s, _)| s.status == ProcStatus::Alive && !s.queued)
            .map(|(_, n)| n.clone())
            .take(cap)
            .collect()
    }
}
