//! A minimal `epoll(7)` binding — the readiness source of the event loop.
//!
//! The offline build cannot pull `libc` or `mio`, so this module declares
//! the four C functions the event loop needs from the platform libc every
//! Rust binary already links, with the same discipline as the `signal(2)`
//! use in [`crate::signal`]: one audited `extern "C"` block, a safe
//! wrapper around it, and nothing else in the crate allowed to write
//! `unsafe`.
//!
//! The wrapper is deliberately small: register a file descriptor with an
//! interest mask and a `u64` token, change or remove the registration,
//! and wait for readiness events. Level-triggered mode only — the event
//! loop re-reads until `WouldBlock`, so edge-triggered's extra care buys
//! nothing here.

// The single `extern "C"` block below is this module's only unsafe code;
// the crate root carries `#![deny(unsafe_code)]` so nothing else sneaks
// in without tripping the lint.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// The descriptor is readable.
pub const EPOLLIN: u32 = 0x001;
/// The descriptor is writable.
pub const EPOLLOUT: u32 = 0x004;
/// An error condition is pending (reported even when not requested).
pub const EPOLLERR: u32 = 0x008;
/// The peer is gone in both directions (reported even when not
/// requested).
pub const EPOLLHUP: u32 = 0x010;
/// The peer half-closed its write side (`shutdown(SHUT_WR)`): reads will
/// drain buffered bytes and then return EOF.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC`: the epoll fd must not leak across `exec` into any
/// child process the embedding program spawns.
const EPOLL_CLOEXEC: i32 = 0o200_0000;
const EINTR: i32 = 4;

/// One kernel event record. On x86-64 the kernel ABI packs this to 12
/// bytes; everywhere else it is the natural `repr(C)` layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::EpollEvent;

    extern "C" {
        /// `epoll_create1(2)`: a new epoll instance, `-1` on error.
        pub fn epoll_create1(flags: i32) -> i32;
        /// `epoll_ctl(2)`: add/modify/remove one registration.
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        /// `epoll_wait(2)`: blocks up to `timeout` ms for readiness.
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        /// `close(2)`: releases the epoll fd on drop.
        pub fn close(fd: i32) -> i32;
    }
}

/// Stubs so the crate still compiles off Linux; [`Epoll::new`] reports
/// the platform as unsupported before any of these could run.
#[cfg(not(target_os = "linux"))]
mod sys {
    use super::EpollEvent;

    pub unsafe fn epoll_create1(_flags: i32) -> i32 {
        -1
    }
    pub unsafe fn epoll_ctl(_epfd: i32, _op: i32, _fd: i32, _event: *mut EpollEvent) -> i32 {
        -1
    }
    pub unsafe fn epoll_wait(
        _epfd: i32,
        _events: *mut EpollEvent,
        _maxevents: i32,
        _timeout: i32,
    ) -> i32 {
        -1
    }
    pub unsafe fn close(_fd: i32) -> i32 {
        -1
    }
}

/// Events delivered per [`Epoll::wait`] call; more ready descriptors
/// simply surface on the next call (level-triggered).
const WAIT_BATCH: usize = 64;

/// A safe wrapper around one epoll instance.
///
/// Registrations are keyed by a caller-chosen `u64` token carried back
/// verbatim in every event — the event loop maps tokens to connections
/// without ever dereferencing anything kernel-provided.
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// A fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The underlying `epoll_create1` failure, or
    /// [`io::ErrorKind::Unsupported`] off Linux.
    pub fn new() -> io::Result<Epoll> {
        if !cfg!(target_os = "linux") {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the event loop requires epoll (linux)",
            ));
        }
        // SAFETY: `epoll_create1` takes no pointers; a negative return is
        // checked and surfaced as an error.
        let fd = unsafe { sys::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events: interest, data: token };
        let event_ptr = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut event };
        // SAFETY: `event_ptr` is either null (DEL, where the kernel
        // ignores it) or points at a live stack value for the duration of
        // the call; the return code is checked.
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, event_ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest mask and token.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest mask (and token) of a registered `fd`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes a registration. Safe to call for an fd that is about to be
    /// closed anyway; the error, if any, is returned for logging but
    /// carries no obligation.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses (`None` waits indefinitely), appending
    /// `(token, events)` pairs to `out`. Returns the number of events
    /// delivered; `0` means the timeout elapsed. `EINTR` is retried
    /// internally.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait` failure.
    pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => {
                // Round up so a 100 µs deadline does not busy-spin at
                // timeout 0.
                let ms = t.as_nanos().div_ceil(1_000_000);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let mut events = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        loop {
            // SAFETY: the events pointer is a live, writable array of
            // `WAIT_BATCH` records for the duration of the call; the
            // return count is checked before any record is read.
            let n = unsafe {
                sys::epoll_wait(self.fd, events.as_mut_ptr(), WAIT_BATCH as i32, timeout_ms)
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.raw_os_error() == Some(EINTR) {
                    continue;
                }
                return Err(e);
            }
            for event in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) record before use.
                let EpollEvent { events: mask, data } = *event;
                out.push((data, mask));
            }
            return Ok(n as usize);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by `epoll_create1` and is closed
        // exactly once.
        unsafe {
            sys::close(self.fd);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let epoll = Epoll::new().expect("epoll instance");
        let (mut writer, reader) = UnixStream::pair().expect("socket pair");
        reader.set_nonblocking(true).expect("nonblocking");
        epoll.add(reader.as_raw_fd(), EPOLLIN, 42).expect("add");

        // Nothing readable yet: a short wait times out empty.
        let mut out = Vec::new();
        let n = epoll.wait(&mut out, Some(Duration::from_millis(10))).expect("wait");
        assert_eq!(n, 0, "no events before a write");

        writer.write_all(b"x").expect("write");
        let n = epoll.wait(&mut out, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(n, 1);
        let (token, mask) = out[0];
        assert_eq!(token, 42, "token carried back verbatim");
        assert_ne!(mask & EPOLLIN, 0, "readable event");

        // Modify to watch for write readiness too, then remove.
        epoll.modify(reader.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).expect("modify");
        epoll.del(reader.as_raw_fd()).expect("del");
    }
}
