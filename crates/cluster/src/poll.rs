//! `poll(2)` without a crate: the readiness wait the TCP substrate's
//! driver loop and worker sessions are built on (DESIGN.md §16.2).
//!
//! std links the C library on every Unix target, so one `extern "C"`
//! declaration reaches it. This module holds the workspace's only
//! `unsafe` block.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable: data, EOF or a pending error. The only event asked for;
/// `POLLERR` and `POLLHUP` are reported whether asked for or not.
const POLLIN: c_short = 0x1;

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One watched descriptor, laid out as the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for readability. The kernel skips a negative `fd`,
    /// which then never reports ready.
    pub(crate) fn readable(fd: RawFd) -> Self {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] found the descriptor ready: one `read`
    /// on it will not block (it returns data, EOF or an error).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None`: no
/// limit); returns how many are ready. The timeout is rounded *up* to
/// the millisecond, so a deadline under 1 ms away sleeps instead of
/// spinning. A signal cutting the wait short counts as a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed `#[repr(C)]` pollfd slice that outlives the call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        e => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn a_socket_is_readable_once_the_peer_writes() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].ready());
        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_hang_up_reports_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(), "EOF must wake the reader");
    }

    #[test]
    fn a_negative_fd_is_ignored() {
        // A dead worker's entry: never ready, and it does not stop the
        // live entry beside it from being reported.
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::readable(-1), PollFd::readable(b.as_raw_fd())];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
    }

    #[test]
    fn a_sub_millisecond_timeout_still_waits() {
        // Rounded up, not down: a lease deadline 300 µs away must not
        // become a zero-timeout spin.
        let (_a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        let t0 = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_micros(300));
    }
}
