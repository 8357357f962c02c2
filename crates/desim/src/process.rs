//! Resumable simulation processes.

use std::fmt;

use crate::kernel::Ctx;
use crate::time::SimTime;
use crate::EventId;

/// Handle to a process registered with a [`Kernel`](crate::Kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// The raw index of this process inside its kernel.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// What a process asks the kernel to do when it yields.
///
/// A process is a cooperative coroutine: the kernel calls
/// [`Process::resume`], the process runs until it needs simulated time to
/// pass or data to arrive, and returns one of these requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Suspend for a span of simulated time, then resume.
    ///
    /// A zero span yields for one delta cycle (the process re-runs at the
    /// same timestamp, after all currently-runnable processes).
    WaitTime(SimTime),
    /// Suspend until the given event is notified.
    WaitEvent(EventId),
    /// The process is done and will never be resumed again.
    Finish,
}

/// A cooperative simulation process.
///
/// Implementations typically keep their own explicit state machine (the CDFG
/// interpreter in `tlm-cdfg` is one) so that `resume` can pick up where the
/// previous call left off.
///
/// # Example
///
/// ```
/// use tlm_desim::{Ctx, Kernel, Process, Resume, SimTime};
///
/// struct Ticker {
///     remaining: u32,
/// }
///
/// impl Process for Ticker {
///     fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Resume {
///         if self.remaining == 0 {
///             return Resume::Finish;
///         }
///         self.remaining -= 1;
///         Resume::WaitTime(SimTime::from_ns(1))
///     }
/// }
///
/// let mut kernel = Kernel::new();
/// kernel.spawn("ticker", Ticker { remaining: 4 });
/// assert_eq!(kernel.run().end_time, SimTime::from_ns(4));
/// ```
pub trait Process {
    /// Runs the process until it next needs to yield.
    fn resume(&mut self, ctx: &mut Ctx<'_>) -> Resume;
}

impl<F> Process for F
where
    F: FnMut(&mut Ctx<'_>) -> Resume,
{
    fn resume(&mut self, ctx: &mut Ctx<'_>) -> Resume {
        self(ctx)
    }
}

/// Book-keeping for one process inside the kernel.
pub(crate) struct ProcessEntry {
    pub(crate) name: String,
    /// `None` while the kernel is resuming the process.
    pub(crate) body: Option<Box<dyn Process>>,
    pub(crate) state: ProcState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Queued to run in the current or next delta.
    Runnable,
    /// Blocked on a timeout in the kernel's timer wheel.
    WaitingTime,
    /// Blocked on an event.
    WaitingEvent(EventId),
    /// Finished; never resumed again.
    Done,
}

impl fmt::Debug for ProcessEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessEntry")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}
