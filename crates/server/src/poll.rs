//! A minimal readiness poller over `poll(2)`, the same on every unix, with
//! no dependencies beyond `std`.
//!
//! The event loop in [`crate::event_loop`] drives every socket through this
//! one interface:
//!
//! - [`Poller::register`] / [`Poller::modify`] declare which readiness
//!   transitions a file descriptor should report ([`Interest`]);
//! - [`Poller::wait`] blocks until at least one descriptor is ready and
//!   fills a caller-owned buffer of [`PollEvent`]s.
//!
//! Polling is **level-triggered**: a descriptor keeps reporting ready
//! until the condition is drained. That makes the consuming loop obviously
//! correct (nothing is lost if a wakeup handles only part of a buffer) at
//! the cost of re-reporting, which the loop bounds by disabling interests it
//! is not currently able to act on.
//!
//! The poller keeps one `pollfd` array and a parallel token list for as long
//! as it lives: [`Poller::register`], [`Poller::modify`] and
//! [`Poller::deregister`] edit them in place, and [`Poller::wait`] hands the
//! array to the kernel as it is — a wakeup neither allocates nor rebuilds.
//! A wakeup costs O(registered descriptors), in the kernel's scan and in the
//! loop over `revents`. That fits the traffic the serving loop sees: the
//! connection cap defaults to 64, a client process holds a few connections,
//! and the coordinator pools at most a handful per shard endpoint.
//!
//! The syscall binding is a hand-written `extern "C"` declaration against the
//! libc symbol every unix already links (the same technique the durability
//! layer uses for `flock(2)`), so the crate stays dependency-free.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};

/// Which readiness transitions a registration should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or hangs up).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Neither direction: the fd stays registered but reports nothing
    /// (used to pause reads under per-connection backpressure).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// Readable now (data, EOF, or an incoming connection).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup: the descriptor should be drained and closed.
    pub hangup: bool,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const POLLNVAL: c_short = 0x20;

/// `struct pollfd`, the same layout on every unix.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `nfds_t`: `unsigned long` in glibc, musl and Solaris; `unsigned int` on
/// Apple, the BSDs and Android.
#[cfg(any(target_os = "linux", target_os = "solaris", target_os = "illumos"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "solaris", target_os = "illumos")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

fn mask(interest: Interest) -> c_short {
    (if interest.readable { POLLIN } else { 0 }) | (if interest.writable { POLLOUT } else { 0 })
}

/// The registrations: `fds[i]` is registered under `tokens[i]`.
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl Poller {
    /// Creates an empty registration table.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            fds: Vec::new(),
            tokens: Vec::new(),
        })
    }

    fn slot(&self, fd: RawFd) -> io::Result<usize> {
        self.fds
            .iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    /// Adds `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.fds.push(PollFd {
            fd,
            events: mask(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self.slot(fd)?;
        self.fds[i].events = mask(interest);
        self.tokens[i] = token;
        Ok(())
    }

    /// Removes `fd` from the poller.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.slot(fd)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    /// Blocks until at least one registration is ready, then fills
    /// `events` (cleared first) with the reports. Error, hangup and invalid
    /// descriptors are reported whatever the interest.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>) -> io::Result<()> {
        events.clear();
        loop {
            // SAFETY: the pointer and the length both come from `self.fds`,
            // a live `Vec<PollFd>` whose `#[repr(C)]` element is
            // `struct pollfd`; `&mut self` guarantees nothing else aliases it
            // while the kernel writes the `revents` fields, and the kernel
            // writes nothing past `nfds` entries.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, -1) };
            if n >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (slot, &token) in self.fds.iter().zip(&self.tokens) {
            let bits = slot.revents;
            if bits != 0 {
                events.push(PollEvent {
                    token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readability_level_triggered() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(b.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        a.write_all(b"xy").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: half-drained buffers keep reporting.
        let mut one = [0u8; 1];
        (&b).read_exact(&mut one).unwrap();
        poller.wait(&mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_interest_fires_for_an_open_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        let writable_only = Interest {
            readable: false,
            writable: true,
        };
        poller.register(a.as_raw_fd(), 3, writable_only).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
    }

    #[test]
    fn deregister_and_modify_edit_the_array_in_place() {
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let mut poller = Poller::new().unwrap();
        for (token, (a, _)) in pairs.iter().enumerate() {
            let writable_only = Interest {
                readable: false,
                writable: true,
            };
            poller
                .register(a.as_raw_fd(), token, writable_only)
                .unwrap();
        }
        // Removing the first slot moves the last one into it; silencing the
        // middle one leaves it registered.
        poller.deregister(pairs[0].0.as_raw_fd()).unwrap();
        poller
            .modify(pairs[1].0.as_raw_fd(), 1, Interest::NONE)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        let tokens: Vec<usize> = events.iter().map(|e| e.token).collect();
        assert_eq!(tokens, vec![2]);
        assert!(poller.deregister(pairs[0].0.as_raw_fd()).is_err());
        assert!(poller
            .modify(pairs[0].0.as_raw_fd(), 0, Interest::READABLE)
            .is_err());
    }

    #[test]
    fn hangup_is_reported_when_the_peer_closes() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(b.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events).unwrap();
        // Peer closure surfaces as readable (EOF) and/or hangup.
        assert!(events
            .iter()
            .any(|e| e.token == 1 && (e.readable || e.hangup)));
    }
}
