//! Blocking communication primitives built on kernel events.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::kernel::{Ctx, Kernel};
use crate::EventId;

/// A FIFO channel between processes, the abstract bus channel of the TLM.
///
/// `try_send` and `try_recv` never block; a process that finds the channel
/// full or empty returns [`Resume::WaitEvent`](crate::Resume::WaitEvent) on
/// the corresponding event and retries when resumed. This retry discipline is
/// what makes interpreter-backed processes resumable without coroutines.
///
/// Cloning a `Fifo` clones the handle, not the queue.
///
/// # Example
///
/// ```
/// use tlm_desim::{Fifo, Kernel, Resume, SimTime};
///
/// let mut kernel = Kernel::new();
/// let ch: Fifo<u32> = Fifo::new(&mut kernel, "data", Some(2));
///
/// let tx = ch.clone();
/// let mut sent = false;
/// kernel.spawn_fn("producer", move |ctx| {
///     if !sent {
///         sent = true;
///         tx.try_send(ctx, 42).expect("capacity 2, first send fits");
///     }
///     Resume::Finish
/// });
///
/// let rx = ch.clone();
/// kernel.spawn_fn("consumer", move |ctx| match rx.try_recv(ctx) {
///     Some(v) => {
///         assert_eq!(v, 42);
///         Resume::Finish
///     }
///     None => Resume::WaitEvent(rx.readable_event()),
/// });
///
/// kernel.run();
/// ```
pub struct Fifo<T> {
    inner: Rc<RefCell<FifoInner<T>>>,
}

struct FifoInner<T> {
    name: String,
    queue: VecDeque<T>,
    capacity: Option<usize>,
    readable: EventId,
    writable: EventId,
}

impl<T> Fifo<T> {
    /// Creates a channel registered with `kernel`. `capacity` of `None`
    /// means unbounded (sends never fail).
    pub fn new(kernel: &mut Kernel, name: impl Into<String>, capacity: Option<usize>) -> Self {
        let readable = kernel.event();
        let writable = kernel.event();
        Fifo {
            inner: Rc::new(RefCell::new(FifoInner {
                name: name.into(),
                queue: VecDeque::new(),
                capacity,
                readable,
                writable,
            })),
        }
    }

    /// Attempts to enqueue a value. On success notifies the readable event.
    ///
    /// # Errors
    ///
    /// Returns the value back if the channel is full; the caller should wait
    /// on [`Fifo::writable_event`] and retry.
    pub fn try_send(&self, ctx: &mut Ctx<'_>, value: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if let Some(cap) = inner.capacity {
            if inner.queue.len() >= cap {
                return Err(value);
            }
        }
        inner.queue.push_back(value);
        let readable = inner.readable;
        drop(inner);
        ctx.notify(readable);
        Ok(())
    }

    /// Attempts to dequeue a value. On success notifies the writable event.
    pub fn try_recv(&self, ctx: &mut Ctx<'_>) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let value = inner.queue.pop_front()?;
        let writable = inner.writable;
        drop(inner);
        ctx.notify(writable);
        Some(value)
    }

    /// Event notified whenever a value is enqueued.
    pub fn readable_event(&self) -> EventId {
        self.inner.borrow().readable
    }

    /// Event notified whenever a value is dequeued.
    pub fn writable_event(&self) -> EventId {
        self.inner.borrow().writable
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Fifo { inner: self.inner.clone() }
    }
}

impl<T> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Fifo")
            .field("name", &inner.name)
            .field("len", &inner.queue.len())
            .field("capacity", &inner.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resume;

    #[test]
    fn producer_consumer_moves_all_items() {
        let mut k = Kernel::new();
        let ch: Fifo<u32> = Fifo::new(&mut k, "pc", Some(4));
        let n = 100u32;

        let tx = ch.clone();
        let mut next = 0u32;
        k.spawn_fn("producer", move |ctx| {
            while next < n {
                match tx.try_send(ctx, next) {
                    Ok(()) => next += 1,
                    Err(_) => return Resume::WaitEvent(tx.writable_event()),
                }
            }
            Resume::Finish
        });

        let rx = ch.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        k.spawn_fn("consumer", move |ctx| {
            while let Some(v) = rx.try_recv(ctx) {
                sink.borrow_mut().push(v);
            }
            if sink.borrow().len() as u32 == n {
                Resume::Finish
            } else {
                Resume::WaitEvent(rx.readable_event())
            }
        });

        let report = k.run();
        assert_eq!(report.stop, crate::StopReason::Completed);
        let got = got.borrow();
        assert_eq!(got.len(), n as usize);
        assert!(got.iter().copied().eq(0..n), "FIFO order preserved");
        assert!(ch.is_empty(), "every value popped");
    }

    #[test]
    fn bounded_fifo_rejects_when_full() {
        let mut k = Kernel::new();
        let ch: Fifo<u8> = Fifo::new(&mut k, "tiny", Some(1));
        let tx = ch.clone();
        k.spawn_fn("p", move |ctx| {
            assert!(tx.try_send(ctx, 1).is_ok());
            assert_eq!(tx.try_send(ctx, 2), Err(2));
            Resume::Finish
        });
        k.run();
        assert_eq!(ch.len(), 1);
    }

    #[test]
    fn unbounded_fifo_never_fills() {
        let mut k = Kernel::new();
        let ch: Fifo<usize> = Fifo::new(&mut k, "big", None);
        let tx = ch.clone();
        k.spawn_fn("p", move |ctx| {
            for i in 0..10_000 {
                tx.try_send(ctx, i).expect("unbounded");
            }
            Resume::Finish
        });
        k.run();
        assert_eq!(ch.len(), 10_000);
    }

    #[test]
    fn fifo_debug_and_name() {
        let mut k = Kernel::new();
        let ch: Fifo<u8> = Fifo::new(&mut k, "dbg", Some(3));
        let text = format!("{ch:?}");
        assert!(text.contains("dbg"));
        assert!(ch.is_empty());
    }
}
