//! The event-driven simulation kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::{EventId, EventState};
use crate::process::{ProcState, Process, ProcessEntry, ProcessId, Resume};
use crate::time::SimTime;

/// Why a [`Kernel::run`] call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// Every process finished.
    Completed,
    /// No process is runnable and no timed activity is pending, but some
    /// processes are still blocked on events that can never fire.
    /// Carries the names of the starved processes.
    Starved(Vec<String>),
    /// The time limit passed to [`Kernel::run_until`] was reached while
    /// activity was still pending.
    TimeLimit,
}

/// Summary statistics of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Total number of process resumptions.
    pub resumes: u64,
    /// Number of delta cycles executed.
    pub deltas: u64,
    /// Number of event notifications delivered.
    pub events_fired: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// A timed wakeup: `(due time, insertion sequence, process)`.
type HeapEntry = Reverse<(SimTime, u64, ProcessId)>;

/// One step of the splitmix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle driven by a splitmix64 state.
fn shuffle<T>(state: &mut u64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = usize::try_from(splitmix64(state) % (i as u64 + 1)).expect("index fits");
        items.swap(i, j);
    }
}

/// The discrete-event simulation kernel.
///
/// Owns all processes, events and the pending-activity queue. See the crate
/// docs for an end-to-end example.
#[derive(Debug, Default)]
pub struct Kernel {
    now: SimTime,
    seq: u64,
    procs: Vec<ProcessEntry>,
    events: Vec<EventState>,
    runnable: VecDeque<ProcessId>,
    next_delta: VecDeque<ProcessId>,
    heap: BinaryHeap<HeapEntry>,
    resumes: u64,
    deltas: u64,
    events_fired: u64,
    /// Running splitmix64 state for seeded wakeup permutation; `None`
    /// keeps the default deterministic FIFO/heap order.
    permute: Option<u64>,
}

impl Kernel {
    /// Creates an empty kernel at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Registers a process; it becomes runnable at the current time.
    pub fn spawn(&mut self, name: impl Into<String>, body: impl Process + 'static) -> ProcessId {
        let id = ProcessId(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcessEntry {
            name: name.into(),
            body: Some(Box::new(body)),
            state: ProcState::Runnable,
        });
        self.runnable.push_back(id);
        id
    }

    /// Registers a closure as a process. Convenience over [`Kernel::spawn`].
    pub fn spawn_fn(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Ctx<'_>) -> Resume + 'static,
    ) -> ProcessId {
        self.spawn(name, f)
    }

    /// Allocates a fresh event.
    pub fn event(&mut self) -> EventId {
        let id = EventId(u32::try_from(self.events.len()).expect("too many events"));
        self.events.push(EventState::default());
        id
    }

    /// Enables seeded wakeup permutation: same-timestamp process wakeups
    /// (and the runnable order within each delta cycle) are permuted by a
    /// splitmix64 stream seeded with `seed`. The permutation is fully
    /// deterministic — the same seed always yields the identical event
    /// order — so order-dependence bugs found under one seed replay
    /// exactly. Call before [`Kernel::run`]; without it the kernel keeps
    /// its default FIFO/heap order bit-for-bit.
    pub fn set_order_seed(&mut self, seed: u64) {
        self.permute = Some(seed);
    }

    /// Runs until no activity remains. Equivalent to
    /// `run_until(SimTime::MAX)`.
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Runs until no activity remains or simulated time would pass `limit`.
    pub fn run_until(&mut self, limit: SimTime) -> RunReport {
        self.permute_runnable();
        let stop = loop {
            // Execute every delta cycle at the current timestamp.
            loop {
                while let Some(pid) = self.runnable.pop_front() {
                    self.resume_process(pid);
                }
                if self.next_delta.is_empty() {
                    break;
                }
                std::mem::swap(&mut self.runnable, &mut self.next_delta);
                self.permute_runnable();
                self.deltas += 1;
            }

            // Advance to the next timestamp.
            let Some(&Reverse((t, _, _))) = self.heap.peek() else {
                break self.idle_stop_reason();
            };
            if t > limit {
                break StopReason::TimeLimit;
            }
            self.now = t;
            if self.permute.is_some() {
                // A wakeup never pushes heap entries (it goes to
                // `runnable`), so collecting the batch first and
                // permuting it is equivalent to the direct pop loop up
                // to same-timestamp order.
                let mut batch = Vec::new();
                while let Some(&Reverse((t2, _, _))) = self.heap.peek() {
                    if t2 != t {
                        break;
                    }
                    let Reverse((_, _, pid)) = self.heap.pop().expect("peeked entry");
                    batch.push(pid);
                }
                if let Some(mut state) = self.permute {
                    shuffle(&mut state, &mut batch);
                    self.permute = Some(state);
                }
                for pid in batch {
                    self.wake(pid);
                }
            } else {
                while let Some(&Reverse((t2, _, _))) = self.heap.peek() {
                    if t2 != t {
                        break;
                    }
                    let Reverse((_, _, pid)) = self.heap.pop().expect("peeked entry");
                    self.wake(pid);
                }
            }
        };
        RunReport {
            end_time: self.now,
            resumes: self.resumes,
            deltas: self.deltas,
            events_fired: self.events_fired,
            stop,
        }
    }

    /// Delivers one due timed wakeup.
    fn wake(&mut self, pid: ProcessId) {
        let entry = &mut self.procs[pid.index()];
        assert!(entry.body.is_some(), "process is mid-resume");
        debug_assert_eq!(entry.state, ProcState::WaitingTime);
        entry.state = ProcState::Runnable;
        self.runnable.push_back(pid);
    }

    /// Permutes the runnable queue in place when an order seed is set.
    fn permute_runnable(&mut self) {
        if let Some(mut state) = self.permute {
            if self.runnable.len() > 1 {
                shuffle(&mut state, self.runnable.make_contiguous());
            }
            self.permute = Some(state);
        }
    }

    fn idle_stop_reason(&self) -> StopReason {
        let starved: Vec<String> = self
            .procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::WaitingEvent(_)))
            .map(|p| p.name.clone())
            .collect();
        if starved.is_empty() {
            StopReason::Completed
        } else {
            StopReason::Starved(starved)
        }
    }

    fn resume_process(&mut self, pid: ProcessId) {
        // Only the body leaves the table while it runs: the kernel it
        // borrows through `Ctx` owns the table.
        let entry = &mut self.procs[pid.index()];
        let mut body = entry.body.take().expect("process resumed re-entrantly");
        self.resumes += 1;
        let resume = body.resume(&mut Ctx { kernel: self });
        let state = match resume {
            Resume::WaitTime(span) => {
                if span.is_zero() {
                    self.next_delta.push_back(pid);
                    ProcState::Runnable
                } else {
                    self.seq += 1;
                    self.heap.push(Reverse((self.now.saturating_add(span), self.seq, pid)));
                    ProcState::WaitingTime
                }
            }
            Resume::WaitEvent(ev) => {
                self.events[ev.index()].waiters.push(pid);
                ProcState::WaitingEvent(ev)
            }
            Resume::Finish => ProcState::Done,
        };
        let entry = &mut self.procs[pid.index()];
        entry.state = state;
        entry.body = Some(body);
    }

    fn fire_event(&mut self, ev: EventId) {
        let state = &mut self.events[ev.index()];
        state.fired += 1;
        self.events_fired += 1;
        let mut waiters = std::mem::take(&mut state.waiters);
        for &pid in &waiters {
            let entry = &mut self.procs[pid.index()];
            if entry.body.is_some() {
                debug_assert_eq!(entry.state, ProcState::WaitingEvent(ev));
                entry.state = ProcState::Runnable;
                self.next_delta.push_back(pid);
            }
        }
        // Hand the emptied list back, so the next wait reuses its buffer.
        waiters.clear();
        self.events[ev.index()].waiters = waiters;
    }
}

/// The kernel-side API available to a process while it runs.
///
/// Borrowed mutably for the duration of one [`Process::resume`] call;
/// channels take it as an argument so that sends and receives can notify
/// events.
#[derive(Debug)]
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.kernel.now
    }

    /// Notifies an event one delta cycle from now (SystemC's
    /// `event.notify(SC_ZERO_TIME)`): all waiters become runnable at the
    /// current timestamp, after currently-runnable processes.
    pub fn notify(&mut self, ev: EventId) {
        self.kernel.fire_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_kernel_completes_at_zero() {
        let mut k = Kernel::new();
        let report = k.run();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.stop, StopReason::Completed);
        assert_eq!(report.resumes, 0);
    }

    #[test]
    fn single_process_wait_chain() {
        let mut k = Kernel::new();
        let mut step = 0;
        k.spawn_fn("chain", move |_ctx| {
            step += 1;
            match step {
                1 => Resume::WaitTime(SimTime::from_ns(10)),
                2 => Resume::WaitTime(SimTime::from_ns(5)),
                _ => Resume::Finish,
            }
        });
        let report = k.run();
        assert_eq!(report.end_time, SimTime::from_ns(15));
        assert_eq!(report.stop, StopReason::Completed);
        assert_eq!(report.resumes, 3);
    }

    #[test]
    fn event_wakes_waiter() {
        let mut k = Kernel::new();
        let ev = k.event();
        let mut first = true;
        k.spawn_fn("waiter", move |_ctx| {
            if first {
                first = false;
                Resume::WaitEvent(ev)
            } else {
                Resume::Finish
            }
        });
        let mut slept = false;
        k.spawn_fn("notifier", move |ctx| {
            if !slept {
                slept = true;
                Resume::WaitTime(SimTime::from_ns(3))
            } else {
                ctx.notify(ev);
                Resume::Finish
            }
        });
        let report = k.run();
        assert_eq!(report.end_time, SimTime::from_ns(3));
        assert_eq!(report.stop, StopReason::Completed);
        assert_eq!(report.events_fired, 1);
    }

    #[test]
    fn starved_process_reported_by_name() {
        let mut k = Kernel::new();
        let ev = k.event();
        k.spawn_fn("orphan", move |_ctx| Resume::WaitEvent(ev));
        let report = k.run();
        assert_eq!(report.stop, StopReason::Starved(vec!["orphan".to_string()]));
    }

    #[test]
    fn time_limit_stops_run() {
        let mut k = Kernel::new();
        k.spawn_fn("slow", |_ctx| Resume::WaitTime(SimTime::from_us(1)));
        let report = k.run_until(SimTime::from_ns(10));
        assert_eq!(report.stop, StopReason::TimeLimit);
        // Time never advanced past an executed timestamp.
        assert!(report.end_time <= SimTime::from_ns(10));
    }

    #[test]
    fn zero_wait_is_a_delta_cycle() {
        let mut k = Kernel::new();
        let mut laps = 0;
        k.spawn_fn("spinner", move |ctx| {
            assert_eq!(ctx.time(), SimTime::ZERO);
            laps += 1;
            if laps < 4 {
                Resume::WaitTime(SimTime::ZERO)
            } else {
                Resume::Finish
            }
        });
        let report = k.run();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert!(report.deltas >= 3);
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let mut k = Kernel::new();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let log = log.clone();
            let mut ticks = 0;
            k.spawn_fn(name, move |ctx| {
                log.borrow_mut().push((name, ctx.time()));
                ticks += 1;
                if ticks < 3 {
                    Resume::WaitTime(SimTime::from_ns(2))
                } else {
                    Resume::Finish
                }
            });
        }
        k.run();
        let got = log.borrow().clone();
        let expect: Vec<(&str, SimTime)> = vec![
            ("a", SimTime::ZERO),
            ("b", SimTime::ZERO),
            ("a", SimTime::from_ns(2)),
            ("b", SimTime::from_ns(2)),
            ("a", SimTime::from_ns(4)),
            ("b", SimTime::from_ns(4)),
        ];
        assert_eq!(got, expect);
    }

    /// Runs eight processes that tick at a shared cadence and records
    /// the resume order; the return is the full `(name, time)` log.
    fn wakeup_log(seed: Option<u64>) -> Vec<(usize, SimTime)> {
        let mut k = Kernel::new();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for name in 0..8usize {
            let log = log.clone();
            let mut ticks = 0;
            k.spawn_fn(format!("p{name}"), move |ctx| {
                log.borrow_mut().push((name, ctx.time()));
                ticks += 1;
                if ticks < 4 {
                    Resume::WaitTime(SimTime::from_ns(5))
                } else {
                    Resume::Finish
                }
            });
        }
        if let Some(seed) = seed {
            k.set_order_seed(seed);
        }
        k.run();
        let out = log.borrow().clone();
        out
    }

    #[test]
    fn same_order_seed_replays_identical_order() {
        let a = wakeup_log(Some(0xfeed));
        let b = wakeup_log(Some(0xfeed));
        assert_eq!(a, b);
    }

    #[test]
    fn different_order_seeds_diverge() {
        // Deterministic, not flaky: both runs are fully seeded, so this
        // either always passes or always fails. 8 processes × 4 rounds
        // leaves (8!)^4 possible orders; these two seeds differ.
        let a = wakeup_log(Some(1));
        let b = wakeup_log(Some(2));
        assert_ne!(a, b);
    }

    #[test]
    fn order_seed_permutes_only_same_timestamp_wakeups() {
        // Whatever the permutation, the multiset of (process, time)
        // pairs and the end time are invariant.
        let base = wakeup_log(None);
        for seed in 0..16u64 {
            let mut permuted = wakeup_log(Some(seed));
            let mut sorted_base = base.clone();
            sorted_base.sort_unstable();
            permuted.sort_unstable();
            assert_eq!(permuted, sorted_base, "seed {seed}");
        }
    }
}
