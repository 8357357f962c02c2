//! Executable transaction-level models.
//!
//! [`run_annotated`] turns a [`Platform`] into a running simulation on the
//! `tlm-desim` kernel. Every application process becomes a kernel process
//! driven by a resumable CDFG interpreter; channels become FIFOs; PEs and
//! buses become shared clocks.
//!
//! Given no annotation the TLM is functional: transactions synchronize in
//! zero simulated time. Given an [`AnnotatedPlatform`] — from
//! `tlm_pipeline::Pipeline::annotate_design`, or from [`annotate_platform`]
//! outside a pipeline — it is timed: each process's interpreter is given
//! the annotated cycles of every basic block and adds them up as it enters
//! blocks (the generated `wait()` counter of the paper, kept inside the
//! decoded code rather than in an execution hook). The process collects
//! that total after every interpreter slice and applies it to simulated
//! time at inter-process transaction boundaries via the PE clock —
//! `sc_wait` is too expensive to call per block, so the paper applies it
//! per transaction, with user-controllable granularity
//! ([`TlmConfig::granularity`]).
//! Channel transfers additionally reserve their bus (or charge the PE-local
//! copy cost).
//!
//! # Interpretation runs ahead, the kernel replays
//!
//! The processes form a Kahn network: MiniC's only intrinsics are a
//! blocking `ch_recv`, `ch_send` and `out`, and none of them reads time, so
//! what a process computes does not depend on timing. A run is therefore
//! split in two halves that share one process table:
//!
//! - **Worker threads** — the calling thread plus up to
//!   `available_parallelism() − 1` helpers, which start with the run —
//!   interpret each process ahead of simulated time. They log one step per
//!   interpreter slice ([`TlmConfig::fuel_slice`]): the annotated cycles it
//!   entered and how it ended (out of fuel, a receive, a send — completed
//!   at once —, done or trapped). A process logs at most a fixed lookahead
//!   of 1024 steps beyond what the kernel has taken. Helpers keep driving
//!   whichever process is *ready*: it has room in its log and does not
//!   wait for a value.
//! - **The kernel**, on the calling thread, replays each process's steps
//!   against simulated time: PE and bus reservations, FIFOs and the
//!   per-process phase machine are exactly those of interpreting inline.
//!   It takes a process's whole log at once, while helpers keep logging.
//!   When the log is empty it drives the process itself if it is ready, or
//!   else waits for the helper driving it, which wakes it at its first
//!   logged step and leaves the process to it.
//!
//! A process is ready again when the kernel drains its full log, when a
//! send gives it the value it stopped for, or when the kernel delivers a
//! value to it.
//!
//! A receive takes its value straight from the sender's worker when the
//! channel has exactly one sending and one receiving process: its values
//! arrive in send order whatever the timing. On any other channel the
//! timed FIFO decides which value goes where, so the worker stops at the
//! receive and the kernel hands the value over when the FIFO delivers it.
//!
//! The step the kernel waits for always comes: simulated time reached it
//! only by replaying the receive before it, which needed the matching send
//! replayed, so that send was logged with its value, and the process is
//! logged, being driven or ready. Every
//! [`TlmReport`] field but the host-dependent `wall`, `threads`, `interp`
//! and `stall` is therefore the one inline interpretation gives, on any
//! number of threads (`tests/tlm_report_pins.rs` pins them).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tlm_cdfg::interp::{Exec, ExecStats, Machine, NoopHook};
use tlm_cdfg::ir::OpKind;
use tlm_cdfg::ChanId;
use tlm_core::annotate::{annotate_in_domain, PreparedModule, TimedModule};
use tlm_core::cache::{ScheduleCache, ScheduleDomain};
use tlm_core::EstimateError;
use tlm_desim::{Ctx, Fifo, Kernel, Process, Resume, RunReport, SimTime};

use crate::clock::{BusClock, PeClock, SharedBus, SharedPe};
use crate::desc::Platform;

/// TLM execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlmConfig {
    /// Accumulated compute delay is applied to simulated time every
    /// `granularity`-th transaction boundary (§4.3; 1 = every boundary).
    pub granularity: u32,
    /// Simulated-time limit; `None` runs to completion.
    pub time_limit: Option<SimTime>,
    /// Interpreter operations per slice; one slice is one logged step. The
    /// kernel yields a delta cycle when it replays a slice that ran out of
    /// fuel, so other processes due at the same simulated time run between
    /// two slices of a long computation. That does not stop a runaway
    /// loop: the cycles of a slice reach simulated time only at the
    /// process's next transaction, so a process that never reaches one
    /// spins the kernel through zero-time deltas forever, and
    /// [`TlmConfig::time_limit`] never stops it (ROADMAP, "Simulated time
    /// is a function of the model alone"). Computed cycles, busy
    /// cycles, transfers and outputs do not depend on the slice. On designs
    /// whose processes share a PE the end time can: the extra delta lets
    /// another process reach a same-time boundary first and reserve the PE
    /// (image:hw ends at 4,972,050 ns unsliced and 4,972,110 ns at every
    /// slice from 1 to 64).
    pub fuel_slice: u64,
    /// When set, the kernel permutes same-timestamp process wakeups from
    /// this splitmix64 seed ([`Kernel::set_order_seed`]). Deterministic:
    /// the same seed yields the identical event order. `None` keeps the
    /// default FIFO/heap order.
    pub order_seed: Option<u64>,
}

impl Default for TlmConfig {
    fn default() -> Self {
        TlmConfig { granularity: 1, time_limit: None, fuel_slice: 16_000_000, order_seed: None }
    }
}

/// Per-process outcome.
#[derive(Debug, Clone, Default)]
pub struct ProcessReport {
    /// Values the process emitted with `out()`.
    pub outputs: Vec<i64>,
    /// Total annotated cycles applied for this process.
    pub computed_cycles: u64,
    /// Interpreter counters.
    pub stats: ExecStats,
    /// Whether the process ran to completion.
    pub finished: bool,
    /// Trap message, if the process died.
    pub trap: Option<String>,
}

/// Result of one TLM run.
#[derive(Debug, Clone)]
pub struct TlmReport {
    /// Final simulated time.
    pub end_time: SimTime,
    /// Kernel statistics.
    pub sim: RunReport,
    /// Outputs per process name.
    pub outputs: BTreeMap<String, Vec<i64>>,
    /// Per-process details.
    pub processes: BTreeMap<String, ProcessReport>,
    /// Per-PE `(name, busy_cycles)`.
    pub pe_busy: Vec<(String, u64)>,
    /// Per-bus `(name, transfers)`.
    pub bus_transfers: Vec<(String, u64)>,
    /// Wall-clock time of the simulation itself.
    pub wall: Duration,
    /// Threads that interpreted the processes: the calling thread plus the
    /// helpers the run spawned. Like `wall`, it depends on the host.
    pub threads: usize,
    /// Part of `wall` the calling thread spent interpreting processes.
    pub interp: Duration,
    /// Part of `wall` the calling thread spent waiting for steps another
    /// thread was interpreting. The rest of `wall` is the kernel's replay.
    /// Like `wall`, `interp` and `stall` depend on the host.
    pub stall: Duration,
}

impl TlmReport {
    /// The busy cycles of the PE a named process ran on, a proxy for the
    /// paper's per-design cycle counts.
    pub fn pe_cycles(&self, pe_name: &str) -> Option<u64> {
        self.pe_busy.iter().find(|(n, _)| n == pe_name).map(|&(_, c)| c)
    }

    /// Whether every process finished.
    pub fn all_finished(&self) -> bool {
        self.processes.values().all(|p| p.finished)
    }
}

/// The annotation phase of timed-TLM generation, kept separate so its cost
/// can be reported like the paper's Table 1 does.
#[derive(Debug, Clone)]
pub struct AnnotatedPlatform {
    /// One annotated module per process, in process order.
    pub timed: Vec<Arc<TimedModule>>,
    /// Wall-clock cost of annotation.
    pub annotation_time: Duration,
}

/// Annotates every process of the platform with its PE's PUM, outside any
/// `tlm_pipeline::Pipeline`: the call owns one [`ScheduleCache`], so
/// processes sharing a datapath share its Algorithm 1 schedules, and
/// nothing outlives the call.
///
/// # Errors
///
/// Propagates [`EstimateError`] from the estimation engine.
pub fn annotate_platform(platform: &Platform) -> Result<AnnotatedPlatform, EstimateError> {
    let start = Instant::now();
    let cache = ScheduleCache::new();
    let timed = platform
        .processes
        .iter()
        .map(|proc| {
            let pum = &platform.pes[proc.pe.0].pum;
            let prepared = PreparedModule::new(Arc::clone(&proc.module));
            let handle = cache.domain(&ScheduleDomain::of(pum));
            annotate_in_domain(&prepared, pum, &handle).map(Arc::new)
        })
        .collect::<Result<_, _>>()?;
    Ok(AnnotatedPlatform { timed, annotation_time: start.elapsed() })
}

/// Runs a TLM given a pre-annotated platform (`None` = functional).
///
/// The processes' interpreters run ahead of simulated time on the calling
/// thread and, when there is more than one process, on up to
/// `available_parallelism() − 1` helper threads; the kernel replays their
/// logged steps on the calling thread (see the module docs). Every helper
/// is joined before this returns, whatever stopped the run.
pub fn run_annotated(
    platform: &Platform,
    annotated: Option<&AnnotatedPlatform>,
    config: &TlmConfig,
) -> TlmReport {
    let mut kernel = Kernel::new();
    if let Some(seed) = config.order_seed {
        kernel.set_order_seed(seed);
    }

    let pe_clocks: Vec<SharedPe> = platform
        .pes
        .iter()
        .map(|pe| PeClock::new(SimTime::from_ps(pe.pum.clock_period_ps), pe.rtos))
        .collect();
    let bus_clocks: Vec<SharedBus> = platform
        .buses
        .iter()
        .map(|bus| BusClock::new(bus.period, bus.sync_overhead, bus.cycles_per_word))
        .collect();

    // Indexed like `platform.channels`, which is sorted by channel id.
    let chans: Rc<[ChanHandle]> = platform
        .channels
        .iter()
        .map(|(&chan, binding)| ChanHandle {
            fifo: Fifo::new(&mut kernel, format!("{chan}"), Some(binding.capacity)),
            bus: binding.bus.map(|b| bus_clocks[b.0].clone()),
        })
        .collect();

    let machines = platform
        .processes
        .iter()
        .enumerate()
        .map(|(index, proc)| {
            let mut machine = Machine::from_arc(proc.module.clone(), proc.entry, &proc.args);
            if let Some(annotated) = annotated {
                let timed = &annotated.timed[index];
                machine.set_block_cycles(|func, block| timed.cycles(func, block));
            }
            machine
        })
        .collect();
    let workers = Rc::new(Workers::new(Table::new(platform, machines, config.fuel_slice)));

    let mut outcomes: Vec<Rc<RefCell<ProcessReport>>> = Vec::new();
    for (index, proc) in platform.processes.iter().enumerate() {
        let outcome = Rc::new(RefCell::new(ProcessReport::default()));
        outcomes.push(outcome.clone());
        let body = TlmProcess {
            index,
            workers: Rc::clone(&workers),
            replay: VecDeque::new(),
            timed: annotated.is_some(),
            acc: 0,
            pe: pe_clocks[proc.pe.0].clone(),
            chans: Rc::clone(&chans),
            granularity: config.granularity.max(1),
            boundaries: 0,
            phase: Phase::Run,
            outcome,
        };
        kernel.spawn(proc.name.clone(), body);
    }

    let wall_start = Instant::now();
    workers.spawn_helpers();
    let sim = match config.time_limit {
        Some(limit) => kernel.run_until(limit),
        None => kernel.run(),
    };
    let wall = wall_start.elapsed();
    let (helpers, panicked) = workers.stop();
    assert!(!panicked, "{PANICKED}");

    let mut outputs = BTreeMap::new();
    let mut processes = BTreeMap::new();
    for (proc, outcome) in platform.processes.iter().zip(&outcomes) {
        let report = outcome.borrow().clone();
        outputs.insert(proc.name.clone(), report.outputs.clone());
        processes.insert(proc.name.clone(), report);
    }
    let pe_busy = platform
        .pes
        .iter()
        .zip(&pe_clocks)
        .map(|(pe, clock)| (pe.name.clone(), clock.borrow().busy_cycles()))
        .collect();
    let bus_transfers = platform
        .buses
        .iter()
        .zip(&bus_clocks)
        .map(|(bus, clock)| (bus.name.clone(), clock.borrow().transfers()))
        .collect();

    TlmReport {
        end_time: kernel.time(),
        sim,
        outputs,
        processes,
        pe_busy,
        bus_transfers,
        wall,
        threads: 1 + helpers,
        interp: workers.interp.get(),
        stall: workers.stall.get(),
    }
}

/// Steps one process's interpreter may log ahead of the kernel's replay.
/// The kernel takes a whole log at a time, so a process holds at most
/// twice this many unreplayed steps (24 bytes each).
const LOOKAHEAD: usize = 1024;

/// How one interpreter slice ended. A channel is named by its index in
/// `platform.channels`.
#[derive(Debug, Clone, Copy)]
enum Event {
    OutOfFuel,
    /// Blocked on a receive; the machine waits for the value.
    Recv(u32),
    /// Sent a value; the machine has already moved past the send.
    Send(u32, i64),
    /// Returned from the entry function.
    Done,
    /// Trapped; the message is in [`Slot::trap`].
    Trap,
}

/// One logged `run_fuel` call: the cycles of the blocks it entered and how
/// it ended.
#[derive(Debug, Clone, Copy)]
struct Step {
    cycles: u64,
    event: Event,
}

const _: () = assert!(std::mem::size_of::<Step>() == 24);

/// Interpreter operations a helper may run ahead of its last logged step.
const BATCH_FUEL: u64 = 256;

/// One process's interpreter. Its step log has a lock of its own
/// ([`Table::logs`]), so the kernel can take steps while a worker drives.
struct Slot {
    machine: Machine,
    /// The channel of the logged receive the machine still waits on.
    awaiting: Option<usize>,
    trap: Option<String>,
}

/// A channel with one sending and one receiving process: its values in
/// send order, which is the order the receiver takes them in whatever the
/// timing.
struct Direct {
    values: VecDeque<i64>,
    receiver: usize,
    /// The receiver stopped on an empty queue and waits to be readied.
    parked: bool,
}

/// Which processes the workers may run.
#[derive(Default)]
struct Sched {
    ready: VecDeque<usize>,
    /// Waiting for a thread to drive it: in `ready`, unless a helper left
    /// it to the kernel.
    queued: Vec<bool>,
    /// Threads driving each process. A process is queued again once its
    /// driver decides to stop, which can be before that driver lets go of
    /// it, so a second thread may already wait to drive it.
    driving: Vec<u32>,
    /// A worker panicked; the run cannot complete.
    failed: bool,
    shutdown: bool,
}

impl Sched {
    fn enqueue(&mut self, process: usize) {
        if !std::mem::replace(&mut self.queued[process], true) {
            self.ready.push_back(process);
        }
    }
}

/// The process table the interpreter threads and the kernel share.
struct Table {
    slots: Box<[Mutex<Slot>]>,
    /// Each process's logged steps, not yet taken by the kernel.
    logs: Box<[Mutex<VecDeque<Step>>]>,
    /// The channel ids, sorted (the index of a channel is its position).
    chan_ids: Box<[ChanId]>,
    /// `Some` for channels whose values go straight from sender to receiver.
    direct: Box<[Option<Mutex<Direct>>]>,
    fuel_slice: u64,
    /// Steps a helper logs at once: as many slices as [`BATCH_FUEL`]
    /// operations fill.
    batch: usize,
    sched: Mutex<Sched>,
    /// Signals the helpers a ready process, a failure or shutdown.
    wake: Condvar,
    /// The process whose step the kernel waits for ([`NOBODY`] if none).
    wanted: AtomicUsize,
    /// Signals the kernel a first step logged or a driver stopped for
    /// `wanted`, or a failure.
    kernel_wake: Condvar,
}

const PANICKED: &str = "a TLM interpreter thread panicked";
const NOBODY: usize = usize::MAX;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(PANICKED)
}

impl Table {
    fn new(platform: &Platform, machines: Vec<Machine>, fuel_slice: u64) -> Table {
        let chan_ids: Box<[ChanId]> = platform.channels.keys().copied().collect();
        let index = |chan: ChanId| chan_ids.binary_search(&chan).expect("every channel is bound");
        // Which processes send and receive on each channel.
        let mut senders = vec![Vec::new(); chan_ids.len()];
        let mut receivers = vec![Vec::new(); chan_ids.len()];
        for (process, proc) in platform.processes.iter().enumerate() {
            let ops = proc.module.functions.iter().flat_map(|f| &f.blocks).flat_map(|b| &b.ops);
            for op in ops {
                let (ends, chan) = match op.kind {
                    OpKind::ChanSend { chan } => (&mut senders, chan),
                    OpKind::ChanRecv { chan } => (&mut receivers, chan),
                    _ => continue,
                };
                let ends: &mut Vec<usize> = &mut ends[index(chan)];
                if !ends.contains(&process) {
                    ends.push(process);
                }
            }
        }
        let direct = senders
            .iter()
            .zip(&receivers)
            .map(|(s, r)| match (s.as_slice(), r.as_slice()) {
                ([_], &[receiver]) => {
                    Some(Mutex::new(Direct { values: VecDeque::new(), receiver, parked: false }))
                }
                _ => None,
            })
            .collect();
        let processes = machines.len();
        let slots = machines
            .into_iter()
            .map(|machine| Mutex::new(Slot { machine, awaiting: None, trap: None }))
            .collect();
        // Every process starts ready.
        let sched = Sched {
            ready: (0..processes).collect(),
            queued: vec![true; processes],
            driving: vec![0; processes],
            ..Sched::default()
        };
        Table {
            slots,
            logs: (0..processes).map(|_| Mutex::default()).collect(),
            chan_ids,
            direct,
            fuel_slice: fuel_slice.max(1),
            batch: usize::try_from(BATCH_FUEL / fuel_slice.max(1)).unwrap_or(0),
            sched: Mutex::new(sched),
            wake: Condvar::new(),
            wanted: AtomicUsize::new(NOBODY),
            kernel_wake: Condvar::new(),
        }
    }

    fn chan(&self, chan: ChanId) -> usize {
        self.chan_ids.binary_search(&chan).expect("every channel is bound")
    }

    /// A helper's loop: drives ready processes until shutdown or a failure.
    fn work(&self) {
        let mut sched = lock(&self.sched);
        while !sched.failed && !sched.shutdown {
            sched = match sched.ready.pop_front() {
                Some(process) => self.run(sched, process, false),
                None => self.wake.wait(sched).expect(PANICKED),
            };
        }
    }

    /// Drives `process`, just taken off the ready queue, on a helper or on
    /// the `kernel`'s thread, without holding the scheduler lock, and takes
    /// the lock back. A panic marks the run failed and wakes every thread
    /// before it unwinds.
    fn run<'t>(
        &'t self,
        mut sched: MutexGuard<'t, Sched>,
        process: usize,
        kernel: bool,
    ) -> MutexGuard<'t, Sched> {
        sched.queued[process] = false;
        sched.driving[process] += 1;
        drop(sched);
        let run = panic::catch_unwind(AssertUnwindSafe(|| self.drive(process, kernel)));
        // Taken even from a panicked holder, so a failure still wakes all.
        let mut sched = self.sched.lock().unwrap_or_else(PoisonError::into_inner);
        sched.driving[process] -= 1;
        if let Err(payload) = run {
            sched.failed = true;
            drop(sched);
            self.wake.notify_all();
            self.kernel_wake.notify_all();
            panic::resume_unwind(payload);
        }
        if self.wanted.load(Ordering::SeqCst) == process {
            self.kernel_wake.notify_one();
        }
        sched
    }

    /// Runs `process` ahead, logging one step per `run_fuel` call, until it
    /// finishes, fills its log, or waits for a value that is not there
    /// yet.
    fn drive(&self, process: usize, kernel: bool) {
        let mut slot = lock(&self.slots[process]);
        let slot = &mut *slot;
        // Steps not yet moved to the log, and the log's length at the last
        // move (the kernel may have taken some since). Nobody reads the log
        // while the kernel drives; a helper moves its steps in batches of
        // short slices, so they cost no lock each.
        let (mut batch, mut logged) = (Vec::new(), lock(&self.logs[process]).len());
        let limit = if kernel { LOOKAHEAD } else { self.batch };
        loop {
            if let Some(chan) = slot.awaiting {
                // On any other channel the kernel delivers the value.
                let Some(direct) = &self.direct[chan] else { return };
                let mut direct = lock(direct);
                let Some(value) = direct.values.pop_front() else {
                    direct.parked = true;
                    return;
                };
                drop(direct);
                slot.machine.complete_recv(value);
                slot.awaiting = None;
            }
            let exec = slot.machine.run_fuel(&mut NoopHook, self.fuel_slice);
            let cycles = slot.machine.take_cycles();
            let event = match exec {
                Exec::OutOfFuel => Event::OutOfFuel,
                Exec::RecvPending(chan) => {
                    let chan = self.chan(chan);
                    slot.awaiting = Some(chan);
                    Event::Recv(chan as u32)
                }
                Exec::SendPending(chan, value) => {
                    let chan = self.chan(chan);
                    slot.machine.complete_send();
                    if let Some(direct) = &self.direct[chan] {
                        let mut direct = lock(direct);
                        direct.values.push_back(value);
                        if std::mem::take(&mut direct.parked) {
                            let receiver = direct.receiver;
                            drop(direct);
                            lock(&self.sched).enqueue(receiver);
                            self.wake.notify_one();
                        }
                    }
                    Event::Send(chan as u32, value)
                }
                Exec::Done => Event::Done,
                Exec::Trap(trap) => {
                    slot.trap = Some(trap.to_string());
                    Event::Trap
                }
            };
            batch.push(Step { cycles, event });
            // A receive may stop the driver, so it is logged at once.
            if matches!(event, Event::OutOfFuel | Event::Send(..))
                && batch.len() < limit
                && logged + batch.len() < LOOKAHEAD
                && self.wanted.load(Ordering::SeqCst) != process
            {
                continue;
            }
            // Whether to stop is decided under the log's lock, so a kernel
            // that drains a full log knows this driver stopped.
            let mut log = lock(&self.logs[process]);
            let first = log.is_empty();
            log.extend(batch.drain(..));
            logged = log.len();
            drop(log);
            let (full, last) = (logged >= LOOKAHEAD, matches!(event, Event::Done | Event::Trap));
            // The kernel set `wanted` before it found the log empty: wake
            // it and leave the process to it, queued but not where a
            // helper takes it, so the kernel runs it ahead in one batch
            // instead of waiting for it step by step.
            if first && self.wanted.load(Ordering::SeqCst) == process {
                let mut sched = lock(&self.sched);
                sched.queued[process] |= !last;
                self.kernel_wake.notify_one();
                return;
            }
            if full || last {
                return;
            }
        }
    }

    /// Hands a value the kernel's FIFO delivered on `chan` to `process`'s
    /// machine, unless it took the value from its sender already, and
    /// queues the process again.
    fn deliver(&self, process: usize, chan: usize, value: i64) {
        if self.direct[chan].is_none() {
            let mut slot = lock(&self.slots[process]);
            slot.machine.complete_recv(value);
            slot.awaiting = None;
            drop(slot);
            // The kernel wants its next step at once and drives it itself.
            lock(&self.sched).enqueue(process);
        }
    }
}

/// The interpreter threads of one run, owned by the kernel's thread: the
/// thread itself, plus helpers spawned when the run starts.
struct Workers {
    table: Arc<Table>,
    helpers: RefCell<Option<Vec<JoinHandle<()>>>>,
    /// The kernel's thread's time interpreting and waiting for helpers.
    interp: Cell<Duration>,
    stall: Cell<Duration>,
}

impl Workers {
    fn new(table: Table) -> Workers {
        Workers {
            table: Arc::new(table),
            helpers: RefCell::new(None),
            interp: Cell::new(Duration::ZERO),
            stall: Cell::new(Duration::ZERO),
        }
    }

    fn spawn_helpers(&self) {
        let threads = thread::available_parallelism().map_or(1, usize::from);
        let spawned = (1..threads.min(self.table.slots.len()))
            .map_while(|_| {
                let table = Arc::clone(&self.table);
                thread::Builder::new().name("tlm-interp".into()).spawn(move || table.work()).ok()
            })
            .collect();
        *self.helpers.borrow_mut() = Some(spawned);
    }

    /// The next logged step of `process`. With none logged, the kernel
    /// drives the process itself if it is queued, or else waits for the
    /// thread driving it: simulated time reached this step only after the
    /// sends it depends on were replayed, so they were logged, and the
    /// step can be logged too.
    fn take(&self, process: usize, replay: &mut VecDeque<Step>) -> Step {
        let table = &*self.table;
        let mut sched = lock(&table.sched);
        loop {
            assert!(!sched.failed, "{PANICKED}");
            // Checked under the scheduler lock: a driver that stops after
            // this check is still counted in `driving`.
            table.wanted.store(process, Ordering::SeqCst);
            let mut log = lock(&table.logs[process]);
            if let Some(&last) = log.back() {
                let full = log.len() >= LOOKAHEAD;
                std::mem::swap(replay, &mut log);
                drop(log);
                table.wanted.store(NOBODY, Ordering::SeqCst);
                // The driver stopped at a full log; run the process ahead
                // again unless that was its last step.
                if full && !matches!(last.event, Event::Done | Event::Trap) {
                    sched.enqueue(process);
                    table.wake.notify_one();
                }
                return replay.pop_front().expect("the log was not empty");
            }
            drop(log);
            let start = Instant::now();
            if sched.queued[process] {
                table.wanted.store(NOBODY, Ordering::SeqCst);
                sched.ready.retain(|&p| p != process);
                sched = table.run(sched, process, true);
                self.interp.set(self.interp.get() + start.elapsed());
            } else {
                assert!(sched.driving[process] > 0, "a process with no step logged is driven");
                sched = table.kernel_wake.wait(sched).expect(PANICKED);
                self.stall.set(self.stall.get() + start.elapsed());
            }
        }
    }

    /// Stops and joins the helpers, returning how many there were and
    /// whether any of them panicked.
    fn stop(&self) -> (usize, bool) {
        let Some(helpers) = self.helpers.borrow_mut().take() else { return (0, false) };
        // Raising a flag is sound on any state, even one a panic left.
        self.table.sched.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.table.wake.notify_all();
        let spawned = helpers.len();
        let panicked = helpers.into_iter().map(JoinHandle::join).any(|joined| joined.is_err());
        (spawned, panicked)
    }
}

impl Drop for Workers {
    /// Joins the helpers of a run that is unwinding.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct ChanHandle {
    fifo: Fifo<i64>,
    bus: Option<SharedBus>,
}

/// What to do once a wait elapses. A channel is named by its index in
/// [`TlmProcess::chans`].
#[derive(Debug, Clone, Copy)]
enum After {
    Recv(usize),
    Send(usize, i64),
    Finish,
}

enum Phase {
    Run,
    Wait { until: SimTime, after: After },
    BlockedRecv(usize),
    BlockedSend(usize, i64),
    Done,
}

/// One process on the kernel: it replays the steps its interpreter logged
/// against simulated time.
struct TlmProcess {
    index: usize,
    workers: Rc<Workers>,
    /// Logged steps taken from the process's slot, not yet replayed.
    replay: VecDeque<Step>,
    /// Whether the machine carries annotated block cycles.
    timed: bool,
    /// Accumulated, not-yet-applied cycles (the paper's `wait()` counter),
    /// collected from every replayed step.
    acc: u64,
    pe: SharedPe,
    /// Every channel of the platform, sorted by id.
    chans: Rc<[ChanHandle]>,
    granularity: u32,
    boundaries: u32,
    phase: Phase,
    outcome: Rc<RefCell<ProcessReport>>,
}

impl TlmProcess {
    /// Applies the accumulated compute delay (honouring granularity) and
    /// any transfer cost, returning the simulated time the transaction may
    /// proceed at.
    fn boundary(&mut self, now: SimTime, transfer: Option<usize>, last: bool) -> SimTime {
        self.boundaries += 1;
        let mut at = now;
        let apply = self.timed && (last || self.boundaries.is_multiple_of(self.granularity));
        if apply && self.acc > 0 {
            at = self.pe.borrow_mut().reserve(at, self.index, self.acc);
            self.outcome.borrow_mut().computed_cycles += self.acc;
            self.acc = 0;
        }
        if self.timed {
            if let Some(chan) = transfer {
                at = match &self.chans[chan].bus {
                    Some(bus) => bus.borrow_mut().reserve(at, 1),
                    None => {
                        self.pe.borrow_mut().reserve(at, self.index, Platform::LOCAL_SYNC_CYCLES)
                    }
                };
            }
        }
        at
    }

    /// The process's next logged step (see [`Workers::take`]).
    fn next_step(&mut self) -> Step {
        match self.replay.pop_front() {
            Some(step) => step,
            None => self.workers.take(self.index, &mut self.replay),
        }
    }

    fn finish(&mut self) {
        let slot = lock(&self.workers.table.slots[self.index]);
        let mut outcome = self.outcome.borrow_mut();
        outcome.outputs = slot.machine.outputs().to_vec();
        outcome.stats = *slot.machine.stats();
        outcome.finished = slot.trap.is_none();
        outcome.trap.clone_from(&slot.trap);
        self.phase = Phase::Done;
    }
}

impl Process for TlmProcess {
    fn resume(&mut self, ctx: &mut Ctx<'_>) -> Resume {
        loop {
            match self.phase {
                Phase::Done => return Resume::Finish,
                Phase::Wait { until, after } => {
                    let now = ctx.time();
                    if now < until {
                        return Resume::WaitTime(until - now);
                    }
                    self.phase = match after {
                        After::Recv(ch) => Phase::BlockedRecv(ch),
                        After::Send(ch, v) => Phase::BlockedSend(ch, v),
                        After::Finish => {
                            self.finish();
                            continue;
                        }
                    };
                }
                Phase::BlockedRecv(ch) => {
                    let fifo = &self.chans[ch].fifo;
                    match fifo.try_recv(ctx) {
                        Some(v) => {
                            self.workers.table.deliver(self.index, ch, v);
                            self.phase = Phase::Run;
                        }
                        None => return Resume::WaitEvent(fifo.readable_event()),
                    }
                }
                Phase::BlockedSend(ch, v) => {
                    let fifo = &self.chans[ch].fifo;
                    match fifo.try_send(ctx, v) {
                        Ok(()) => self.phase = Phase::Run,
                        Err(_) => return Resume::WaitEvent(fifo.writable_event()),
                    }
                }
                Phase::Run => {
                    let Step { cycles, event } = self.next_step();
                    self.acc += cycles;
                    let now = ctx.time();
                    match event {
                        Event::Done => {
                            let until = self.boundary(now, None, true);
                            if until > now {
                                self.phase = Phase::Wait { until, after: After::Finish };
                            } else {
                                self.finish();
                            }
                        }
                        Event::Recv(chan) => {
                            let chan = chan as usize;
                            let until = self.boundary(now, None, false);
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Recv(chan) }
                            } else {
                                Phase::BlockedRecv(chan)
                            };
                        }
                        Event::Send(chan, value) => {
                            let chan = chan as usize;
                            let until = self.boundary(now, Some(chan), false);
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Send(chan, value) }
                            } else {
                                Phase::BlockedSend(chan, value)
                            };
                        }
                        Event::Trap => self.finish(),
                        Event::OutOfFuel => {
                            // Yield a delta so other processes make progress.
                            return Resume::WaitTime(SimTime::ZERO);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::PlatformBuilder;
    use tlm_core::library;
    use tlm_desim::StopReason;

    fn timed(p: &Platform, config: &TlmConfig) -> TlmReport {
        run_annotated(p, Some(&annotate_platform(p).expect("annotates")), config)
    }

    fn module(src: &str) -> tlm_cdfg::ir::Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// producer → worker → consumer across two PEs.
    fn pipeline_platform() -> Platform {
        let producer = module("void main() { for (int i = 0; i < 16; i++) { ch_send(0, i); } }");
        let worker = module(
            "void main() {
                for (int i = 0; i < 16; i++) {
                    int v = ch_recv(0);
                    ch_send(1, v * v + 1);
                }
             }",
        );
        let consumer = module(
            "void main() {
                int s = 0;
                for (int i = 0; i < 16; i++) { s += ch_recv(1); }
                out(s);
             }",
        );
        let mut b = PlatformBuilder::new("pipeline");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("hw", 2, 1));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("worker", &worker, "main", &[], hw).expect("ok");
        b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
        b.build().expect("builds")
    }

    fn expected_sum() -> i64 {
        (0..16).map(|i: i64| i * i + 1).sum()
    }

    #[test]
    fn functional_tlm_computes_correctly_in_zero_time() {
        let p = pipeline_platform();
        let r = run_annotated(&p, None, &TlmConfig::default());
        assert_eq!(r.outputs["consumer"], vec![expected_sum()]);
        assert_eq!(r.end_time, SimTime::ZERO);
        assert!(r.all_finished());
        assert_eq!(r.sim.stop, StopReason::Completed);
    }

    #[test]
    fn timed_tlm_is_functionally_identical_and_advances_time() {
        let p = pipeline_platform();
        let r = timed(&p, &TlmConfig::default());
        assert_eq!(r.outputs["consumer"], vec![expected_sum()]);
        assert!(r.end_time > SimTime::ZERO);
        assert!(r.pe_cycles("cpu").expect("cpu exists") > 0);
        assert!(r.pe_cycles("hw").expect("hw exists") > 0);
        // Cross-PE channels rode the implicit bus: 32 transfers.
        assert_eq!(r.bus_transfers[0].1, 32);
    }

    #[test]
    fn timed_runs_are_deterministic() {
        let p = pipeline_platform();
        let a = timed(&p, &TlmConfig::default());
        let b = timed(&p, &TlmConfig::default());
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.pe_busy, b.pe_busy);
    }

    #[test]
    fn order_seed_is_deterministic_and_functionally_invariant() {
        let p = pipeline_platform();
        let base = timed(&p, &TlmConfig::default());
        for seed in [1u64, 7, 42] {
            let cfg = TlmConfig { order_seed: Some(seed), ..TlmConfig::default() };
            let a = timed(&p, &cfg);
            let b = timed(&p, &cfg);
            // Same seed → identical run, down to the timed results.
            assert_eq!(a.end_time, b.end_time, "seed {seed}");
            assert_eq!(a.pe_busy, b.pe_busy, "seed {seed}");
            // Any seed → identical functional outputs and per-process
            // computed cycles (the estimation semantics are
            // order-invariant; only interleaving may differ).
            assert_eq!(a.outputs, base.outputs, "seed {seed}");
            for (name, pr) in &base.processes {
                assert_eq!(
                    a.processes[name].computed_cycles, pr.computed_cycles,
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn granularity_preserves_total_computed_cycles() {
        let p = pipeline_platform();
        let fine = timed(&p, &TlmConfig { granularity: 1, ..TlmConfig::default() });
        let coarse = timed(&p, &TlmConfig { granularity: 8, ..TlmConfig::default() });
        // The accumulated-delay invariant: total applied compute cycles per
        // process are identical regardless of when they are applied.
        for name in ["producer", "worker", "consumer"] {
            assert_eq!(
                fine.processes[name].computed_cycles, coarse.processes[name].computed_cycles,
                "{name}"
            );
        }
        assert_eq!(fine.outputs, coarse.outputs);
    }

    #[test]
    fn same_pe_processes_serialize() {
        // Producer and consumer both on the CPU: busy cycles add up.
        let producer = module("void main() { for (int i = 0; i < 8; i++) { ch_send(0, i); } }");
        let consumer = module("void main() { for (int i = 0; i < 8; i++) { out(ch_recv(0)); } }");
        let mut b = PlatformBuilder::new("shared");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
        let p = b.build().expect("builds");
        let r = timed(&p, &TlmConfig::default());
        assert_eq!(r.outputs["consumer"], (0..8).collect::<Vec<i64>>());
        // End time covers both processes' compute (they share the PE).
        let total: u64 = r.pe_busy.iter().map(|&(_, c)| c).sum();
        let period = SimTime::from_ps(p.pes[0].pum.clock_period_ps);
        assert!(r.end_time >= SimTime::from_cycles(total, period));
    }

    #[test]
    fn trapping_process_is_reported_not_hung() {
        let bad = module("void main() { int t[2]; out(t[5]); ch_send(0, 1); }");
        let reader = module("void main() { out(ch_recv(0)); }");
        let mut b = PlatformBuilder::new("trap");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        b.add_process("bad", &bad, "main", &[], cpu).expect("ok");
        b.add_process("reader", &reader, "main", &[], cpu).expect("ok");
        let p = b.build().expect("builds");
        let r = run_annotated(&p, None, &TlmConfig::default());
        assert!(!r.processes["bad"].finished);
        assert!(r.processes["bad"].trap.as_deref().is_some_and(|t| t.contains("bounds")));
        // The reader starves (its producer died) and the kernel reports it.
        assert!(matches!(r.sim.stop, StopReason::Starved(_)));
    }

    #[test]
    fn time_limit_stops_runaway_models() {
        let spinner = module("void main() { while (1) { ch_send(0, 1); } }");
        let sink = module("void main() { while (1) { int v = ch_recv(0); out(v); } }");
        let mut b = PlatformBuilder::new("spin");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("hw", 1, 1));
        b.add_process("spinner", &spinner, "main", &[], cpu).expect("ok");
        b.add_process("sink", &sink, "main", &[], hw).expect("ok");
        let p = b.build().expect("builds");
        let r = timed(
            &p,
            &TlmConfig { time_limit: Some(SimTime::from_us(100)), ..TlmConfig::default() },
        );
        assert_eq!(r.sim.stop, StopReason::TimeLimit);
    }

    #[test]
    fn hw_mapping_reduces_pe_load_versus_sw() {
        // The same heavy worker mapped to HW vs to the CPU: the timed TLM
        // must show the HW design finishing earlier (Table 1/3 shape).
        let producer = module("void main() { for (int i = 0; i < 32; i++) { ch_send(0, i); } }");
        let worker = module(
            "void main() {
                for (int i = 0; i < 32; i++) {
                    int v = ch_recv(0);
                    int acc = 0;
                    for (int j = 0; j < 16; j++) { acc += (v + j) * (v - j); }
                    ch_send(1, acc);
                }
            }",
        );
        let consumer = module(
            "void main() { int s = 0; for (int i = 0; i < 32; i++) { s += ch_recv(1); } out(s); }",
        );
        let build = |hw_mapped: bool| {
            let mut b = PlatformBuilder::new("map");
            let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
            let hw = b.add_pe("hw", library::custom_hw("hw", 2, 2));
            b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
            b.add_process("worker", &worker, "main", &[], if hw_mapped { hw } else { cpu })
                .expect("ok");
            b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
            b.build().expect("builds")
        };
        let sw = timed(&build(false), &TlmConfig::default());
        let hw = timed(&build(true), &TlmConfig::default());
        assert_eq!(sw.outputs["consumer"], hw.outputs["consumer"]);
        assert!(hw.end_time < sw.end_time, "hw {} vs sw {}", hw.end_time, sw.end_time);
    }
}
