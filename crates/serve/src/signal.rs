//! SIGINT/SIGTERM latching for graceful shutdown.
//!
//! The offline build cannot pull the `libc` or `signal-hook` crates, so
//! this module declares the two C functions it needs — `signal(2)` and
//! `write(2)` from the platform libc every Rust binary already links —
//! and installs an async-signal-safe handler that stores to a static
//! atomic and writes one byte to a self-pipe. [`wait`] blocks on the
//! pipe's read end, so the daemon's main thread parks at zero cost and
//! wakes the instant a signal arrives — no polling loop, no 50 ms
//! drain-latency quantization.

// The single `extern "C"` block below is this module's only unsafe code;
// the crate root carries `#![deny(unsafe_code)]` so nothing else sneaks
// in without tripping the lint.
#![allow(unsafe_code)]

use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Mutex, OnceLock};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Raw fd of the self-pipe's write end, published for the signal
/// handler (which can only touch atomics and async-signal-safe
/// syscalls). `-1` until the pipe exists.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The self-pipe: a socketpair whose write end the signal handler pokes
/// and whose read end [`wait`] blocks on.
struct SelfPipe {
    /// Held open for the handler, which writes to its raw fd.
    _writer: std::os::unix::net::UnixStream,
    reader: Mutex<std::os::unix::net::UnixStream>,
}

static PIPE: OnceLock<Option<SelfPipe>> = OnceLock::new();

fn pipe() -> Option<&'static SelfPipe> {
    PIPE.get_or_init(|| {
        let (reader, writer) = std::os::unix::net::UnixStream::pair().ok()?;
        // The handler's raw write must never block inside a signal
        // context; a full pipe just drops the byte (the flag is already
        // latched, and `wait` re-checks it around every read).
        writer.set_nonblocking(true).ok()?;
        {
            use std::os::fd::AsRawFd;
            WAKE_FD.store(writer.as_raw_fd(), Ordering::SeqCst);
        }
        Some(SelfPipe { _writer: writer, reader: Mutex::new(reader) })
    })
    .as_ref()
}

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::SeqCst);
    #[cfg(unix)]
    {
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `write(2)` is async-signal-safe; the fd is the
            // nonblocking write end of a socketpair that lives for the
            // whole process (stored in a static `OnceLock`), and the
            // buffer is a live one-byte static. A short or failed write
            // is fine — the atomic store above already latched the
            // request.
            unsafe {
                write(fd, b"s".as_ptr(), 1);
            }
        }
    }
}

#[cfg(unix)]
extern "C" {
    /// `signal(2)`: installs a handler, returns the previous one.
    fn signal(signum: i32, handler: usize) -> usize;
    /// `write(2)`: async-signal-safe byte write, used only by the
    /// handler to poke the self-pipe.
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Installs handlers for SIGINT (ctrl-c) and SIGTERM that latch
/// [`requested`] and wake [`wait`]. Safe to call more than once. A
/// no-op on non-Unix targets.
pub fn install() {
    let _ = pipe();
    #[cfg(unix)]
    // SAFETY: `on_signal` only performs an atomic store and an
    // async-signal-safe `write(2)`; the handler address stays valid for
    // the life of the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Whether a shutdown signal has arrived.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Blocks until a shutdown request arrives ([`requested`] flips true).
/// Returns immediately if one already has. Intended for the daemon's
/// main thread; concurrent callers share the pipe and all wake.
pub fn wait() {
    loop {
        if requested() {
            return;
        }
        let Some(p) = pipe() else {
            // No self-pipe (fd exhaustion at startup): degrade to the
            // old polling behavior rather than never waking.
            std::thread::sleep(std::time::Duration::from_millis(20));
            continue;
        };
        let mut reader = match p.reader.lock() {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        // A byte (or an error) means "re-check the flag". The request
        // always writes its byte *after* latching the flag, so the
        // check-then-read order cannot miss a wakeup.
        let mut buf = [0u8; 64];
        let _ = reader.read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn request_wakes_a_blocked_wait() {
        let waiter = std::thread::spawn(|| {
            let start = Instant::now();
            wait();
            start.elapsed()
        });
        // Give the waiter time to park on the pipe before waking it.
        std::thread::sleep(Duration::from_millis(50));
        // Deliver SIGTERM's handler call by hand.
        let _ = pipe();
        on_signal(SIGTERM);
        let elapsed = waiter.join().expect("waiter thread");
        assert!(elapsed < Duration::from_secs(5), "wait() never woke: {elapsed:?}");
        assert!(requested());
    }
}
