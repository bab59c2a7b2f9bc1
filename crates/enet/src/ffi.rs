//! Raw Linux bindings for the epoll backend.
//!
//! The workspace vendors no crates, so `epoll(7)` and `eventfd(2)` are
//! reached through hand-written `extern "C"` declarations against the
//! symbols every Linux libc exports. This is the **only** module in the
//! crate containing `unsafe`; everything it exposes is a safe wrapper
//! returning [`std::io::Result`] over owned file descriptors.
//!
//! # Safety argument
//!
//! - `epoll_create1` / `eventfd` return owned fds; [`OwnedFd`] closes
//!   them exactly once on drop and is `!Clone`, so no double-close.
//! - `epoll_ctl` only receives fds the caller owns (borrowed as
//!   `RawFd`), and a pointer to a stack-local [`EpollEvent`] that the
//!   kernel copies before the call returns — no retained pointers.
//! - `epoll_wait` writes into a caller-provided `&mut [EpollEvent]`
//!   whose length bounds `maxevents`, so the kernel can never write
//!   past the buffer.
//! - `read`/`write` on the eventfd use an 8-byte stack buffer, the size
//!   `eventfd(2)` mandates.
//! - `setsockopt` reads a stack-local `i32`; `shutdown` takes only an fd.
//! - `EINTR` never escapes: waits report it as "zero events", reads and
//!   writes retry.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

// x86_64 is the one Linux ABI where epoll_event is packed (no padding
// between the u32 mask and the u64 data); everywhere else it is a
// normally-aligned struct.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness mask.
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for filling wait buffers.
    pub const fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const SHUT_RDWR: i32 = 2;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// A file descriptor this wrapper owns and closes exactly once.
#[derive(Debug)]
pub struct OwnedFd(RawFd);

impl OwnedFd {
    /// Take ownership of a descriptor returned by a raw syscall (used
    /// by `crate::uring_ffi` for the ring fd). The caller must not close
    /// `fd` itself afterwards.
    pub(crate) fn from_raw(fd: RawFd) -> OwnedFd {
        OwnedFd(fd)
    }

    /// The raw descriptor, for registration calls. The fd stays owned
    /// by `self`.
    pub fn raw(&self) -> RawFd {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // EINTR on close is unrecoverable by retry (the fd state is
        // unspecified); ignore errors as std does.
        unsafe { close(self.0) };
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Create an epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<OwnedFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(OwnedFd)
}

/// Create a non-blocking eventfd at zero (close-on-exec).
pub fn eventfd_create() -> io::Result<OwnedFd> {
    cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }).map(OwnedFd)
}

/// Add `fd` to `epfd` with `events` and the cookie `data`.
pub fn epoll_add(epfd: &OwnedFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
}

/// Change the event mask / cookie of an already-watched `fd`.
pub fn epoll_mod(epfd: &OwnedFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
}

/// Remove `fd` from `epfd`. `ENOENT`/`EBADF` are ignored — the socket
/// may already be closed, which removes it from every epoll set.
pub fn epoll_del(epfd: &OwnedFd, fd: RawFd) {
    let mut ev = EpollEvent::zeroed();
    let _ = unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_DEL, fd, &mut ev) };
}

/// Wait up to `timeout` for events (`None` blocks indefinitely).
/// Returns how many entries of `events` were filled; `EINTR` is
/// reported as `Ok(0)`.
pub fn epoll_wait_into(
    epfd: &OwnedFd,
    events: &mut [EpollEvent],
    timeout: Option<Duration>,
) -> io::Result<usize> {
    let timeout_ms = match timeout {
        Some(t) if t.is_zero() => 0,
        // Round sub-millisecond requests up so they actually sleep.
        Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
        None => -1,
    };
    let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
    let ret = unsafe { epoll_wait(epfd.raw(), events.as_mut_ptr(), max, timeout_ms) };
    match cvt(ret) {
        Ok(n) => Ok(n as usize),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

/// Bump the eventfd counter by one, making it readable (and the epoll
/// set it is registered in ready). Retries `EINTR`; a full counter
/// (`EAGAIN`, counter at `u64::MAX - 1`) already guarantees readability
/// and is treated as success.
pub fn eventfd_signal(fd: &OwnedFd) {
    let one: u64 = 1;
    loop {
        let ret = unsafe { write(fd.raw(), (&one as *const u64).cast(), 8) };
        if ret >= 0 {
            return;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// Drain the eventfd counter back to zero (nonblocking read). Safe to
/// call when the counter is already zero.
pub fn eventfd_drain(fd: &OwnedFd) {
    let mut buf = [0u8; 8];
    loop {
        let ret = unsafe { read(fd.raw(), buf.as_mut_ptr(), 8) };
        if ret >= 0 {
            return;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// Shrink a socket's kernel send/receive buffers to roughly `bytes`
/// (the kernel doubles and clamps the request). Used by the backend
/// conformance tests to force short writes with small payloads.
pub fn set_buf_sizes(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val = i32::try_from(bytes).unwrap_or(i32::MAX);
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let ret = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        cvt(ret)?;
    }
    Ok(())
}

/// Shut a listening socket down: the kernel takes it out of the LISTEN
/// state and wakes every waiter, so accepts pending in any ring fail
/// (`EINVAL`) even while a ring still holds the fd open. Errors (an
/// already-closed socket) are ignored.
pub fn shutdown_listener(fd: RawFd) {
    unsafe { shutdown(fd, SHUT_RDWR) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_round_trip_wakes_epoll() {
        let ep = epoll_create().expect("epoll_create1");
        let ev = eventfd_create().expect("eventfd");
        epoll_add(&ep, ev.raw(), EPOLLIN, 7).expect("epoll_ctl ADD");

        let mut buf = [EpollEvent::zeroed(); 4];
        let n = epoll_wait_into(&ep, &mut buf, Some(Duration::from_millis(1))).unwrap();
        assert_eq!(n, 0, "unsignalled eventfd is not readable");

        eventfd_signal(&ev);
        let n = epoll_wait_into(&ep, &mut buf, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        let data = buf[0].data;
        assert_eq!(data, 7);

        eventfd_drain(&ev);
        let n = epoll_wait_into(&ep, &mut buf, Some(Duration::from_millis(1))).unwrap();
        assert_eq!(n, 0, "drained eventfd goes quiet again");
    }

    #[test]
    fn del_of_unwatched_fd_is_harmless() {
        let ep = epoll_create().unwrap();
        let ev = eventfd_create().unwrap();
        epoll_del(&ep, ev.raw());
    }
}
