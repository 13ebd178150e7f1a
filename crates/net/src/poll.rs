//! `poll(2)`, the one foreign call of the crate: park the calling thread
//! until one of a set of sockets is ready or a timeout passes.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Data may be read without blocking (also set on EOF).
pub(crate) const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`. The kernel skips an entry whose `fd` is negative, so a
/// set can keep one slot per peer and switch slots off in place.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    /// Watch `socket` for `events`.
    pub(crate) fn new(socket: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// A slot `poll` ignores.
    pub(crate) fn off() -> PollFd {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

/// Wait until an entry of `fds` is ready or `timeout` (rounded up to a whole
/// millisecond) passes. Returns the number of ready entries, whose `revents`
/// say what happened — zero on timeout and on a signal, so callers loop on
/// their own deadline.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // `pollfd`s and `nfds` is exactly its length; the kernel writes only the
    // `revents` fields inside it.
    let rc = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    match err.kind() {
        io::ErrorKind::Interrupted => Ok(0),
        _ => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn reports_readable_sockets_and_skips_switched_off_slots() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let mut fds = [PollFd::off(), PollFd::new(&b, POLLIN)];

        let start = Instant::now();
        assert_eq!(poll(&mut fds, Duration::from_millis(30)).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(30));

        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(fds[0].revents, 0);
        assert_ne!(fds[1].revents & POLLIN, 0);

        // An idle connected socket is writable at once.
        let mut out = [PollFd::new(&b, POLLOUT)];
        assert_eq!(poll(&mut out, Duration::ZERO).unwrap(), 1);
        assert_ne!(out[0].revents & POLLOUT, 0);
    }
}
