//! The one OS-specific corner of the deployment: holding a port and
//! binding a listener with `SO_REUSEADDR`, blocking on a set of sockets
//! until one is ready, and writing a file in place.
//!
//! A SIGKILLed node's accepted connections share its listening port; the
//! kernel closes them on its behalf, leaving that port in `TIME_WAIT`.
//! Without `SO_REUSEADDR` the respawned incarnation cannot rebind for a
//! minute — longer than any recovery budget — so on Linux the listener is
//! created by hand (socket → setsockopt → bind → listen) through a minimal
//! FFI surface and wrapped back into a [`TcpListener`]. The same option
//! lets the coordinator keep every node's port out of the kernel's hands
//! between choosing it and the node listening on it, and across respawns
//! ([`reserve_port`]).
//!
//! Both socket shells wait in [`poll`]: one `ppoll(2)` over the sockets
//! they hold, until one is ready or the earliest deadline anyone holds
//! has come. `ppoll` rather than `poll(2)` because the deadlines are
//! sub-millisecond apart (a commit due now, a 10 ms retransmission timer)
//! and `poll(2)` counts in whole milliseconds. Elsewhere the fallback
//! sleeps a short fixed time and reports every socket ready, which is the
//! sleep-polling loop the shells used to run everywhere.
//!
//! This module is the only `unsafe` code in the crate.

use std::fs::File;
use std::io;
use std::net::TcpListener;
use std::time::Instant;

/// One socket in a [`poll`] set: `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

impl PollFd {
    /// Interest in `socket` becoming readable (for a listener: having a
    /// connection to accept) and, if `writable`, in its send buffer having
    /// room again. A closed or failed socket is always reported ready.
    pub fn new(socket: &impl imp::Socket, writable: bool) -> Self {
        PollFd {
            fd: imp::fd(socket),
            events: if writable { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use super::*;
    use std::os::raw::{c_long, c_ulong, c_void};
    use std::os::unix::io::FromRawFd;

    pub use std::os::unix::io::AsRawFd as Socket;

    pub fn fd(socket: &impl Socket) -> i32 {
        socket.as_raw_fd()
    }

    /// `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    /// `struct sockaddr_in` for `AF_INET`; `sin_port` and `sin_addr` are
    /// in network byte order.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    /// A `SO_REUSEADDR` socket bound to localhost `port` (0: the kernel
    /// picks), listening if asked. Wrapped in a `TcpListener` either way:
    /// that owns the descriptor and reads the port back.
    fn bound_reuseaddr(port: u16, listening: bool) -> io::Result<TcpListener> {
        // SAFETY: plain libc socket calls on a freshly created fd; the fd
        // is closed on every error path and ownership passes to the
        // returned TcpListener on success.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let fail = |fd: i32| -> io::Error {
                let e = io::Error::last_os_error();
                close(fd);
                e
            };
            let one: i32 = 1;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0 {
                return Err(fail(fd));
            }
            let addr = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: port.to_be(),
                // 127.0.0.1 in network byte order: the first byte in
                // memory is 127.
                sin_addr: u32::from_ne_bytes([127, 0, 0, 1]),
                sin_zero: [0; 8],
            };
            if bind(fd, &addr, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
                return Err(fail(fd));
            }
            if listening && listen(fd, 128) < 0 {
                return Err(fail(fd));
            }
            Ok(TcpListener::from_raw_fd(fd))
        }
    }

    pub fn listen_reuseaddr(port: u16) -> io::Result<TcpListener> {
        bound_reuseaddr(port, true)
    }

    /// Bound and never listening: the kernel gives the port to no
    /// connection as its source and to no `bind` to port 0, while another
    /// `SO_REUSEADDR` socket may still bind it by number and listen.
    pub fn reserve_port() -> io::Result<(u16, Option<TcpListener>)> {
        let held = bound_reuseaddr(0, false)?;
        Ok((held.local_addr()?.port(), Some(held)))
    }

    pub fn write_at_start(file: &File, buf: &[u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(file, buf, 0)
    }

    pub fn poll(fds: &mut [PollFd], until: Option<Instant>) -> io::Result<usize> {
        loop {
            let timeout = until.map(|t| {
                let left = t.saturating_duration_since(Instant::now());
                Timespec {
                    tv_sec: c_long::try_from(left.as_secs()).unwrap_or(c_long::MAX),
                    // Below 10^9: fits even a 32-bit long.
                    tv_nsec: left.subsec_nanos() as c_long,
                }
            });
            let timeout = timeout.as_ref().map_or(std::ptr::null(), |t| t as *const _);
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `repr(C)` `struct pollfd`s and its length is passed with
            // it; `timeout` is null or points at a timespec that outlives
            // the call; a null signal mask leaves the mask alone.
            let ready = unsafe {
                ppoll(
                    fds.as_mut_ptr(),
                    fds.len() as c_ulong,
                    timeout,
                    std::ptr::null(),
                )
            };
            if ready >= 0 {
                return Ok(ready as usize);
            }
            let e = io::Error::last_os_error();
            // A signal cut the wait short: wait out what is left of it.
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;

    pub fn listen_reuseaddr(port: u16) -> io::Result<TcpListener> {
        TcpListener::bind(("127.0.0.1", port))
    }

    /// Bind and release: without `SO_REUSEADDR` a held port could not be
    /// bound by the node it is meant for.
    pub fn reserve_port() -> io::Result<(u16, Option<TcpListener>)> {
        let probe = TcpListener::bind("127.0.0.1:0")?;
        Ok((probe.local_addr()?.port(), None))
    }

    pub fn write_at_start(mut file: &File, buf: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        file.seek(SeekFrom::Start(0))?;
        file.write_all(buf)
    }

    pub trait Socket {}
    impl<T> Socket for T {}

    pub fn fd(_: &impl Socket) -> i32 {
        -1
    }

    pub fn poll(fds: &mut [PollFd], until: Option<Instant>) -> io::Result<usize> {
        let nap = std::time::Duration::from_micros(500);
        std::thread::sleep(until.map_or(nap, |t| {
            t.saturating_duration_since(Instant::now()).min(nap)
        }));
        Ok(fds.len())
    }
}

/// Binds a localhost listener on `port` with `SO_REUSEADDR` set, so a
/// respawned node can reclaim its port while the killed incarnation's
/// connections sit in `TIME_WAIT`.
///
/// # Errors
///
/// Propagates the failing socket call's `errno`.
pub fn listen_reuseaddr(port: u16) -> io::Result<TcpListener> {
    imp::listen_reuseaddr(port)
}

/// A localhost port set aside for a listener that does not exist yet (or
/// will exist again: a respawned node's). Dropping it gives the port back.
#[derive(Debug)]
pub struct PortReservation {
    port: u16,
    _held: Option<TcpListener>,
}

impl PortReservation {
    /// The reserved port.
    pub fn port(&self) -> u16 {
        self.port
    }
}

/// Picks a free localhost port and holds it: until the reservation is
/// dropped the kernel hands the port to nobody who did not ask for it by
/// number, and [`listen_reuseaddr`] on it succeeds — before and after the
/// reservation is dropped, and again after a listener on it has died.
///
/// # Errors
///
/// Propagates the failing socket call's `errno`.
pub fn reserve_port() -> io::Result<PortReservation> {
    let (port, _held) = imp::reserve_port()?;
    Ok(PortReservation { port, _held })
}

/// Writes all of `buf` over the start of `file`, in one positional write
/// where the platform has one. Neither truncates nor syncs.
///
/// # Errors
///
/// Propagates the write's failure.
pub fn write_at_start(file: &File, buf: &[u8]) -> io::Result<()> {
    imp::write_at_start(file, buf)
}

/// Blocks until a socket in `fds` is ready for what its entry asked, or
/// `until` has come (`None`: however long readiness takes), and returns
/// how many are ready — zero when the deadline came first. A signal
/// landing mid-wait does not end it early. An `until` already past makes
/// this a non-blocking check.
///
/// # Errors
///
/// Propagates `ppoll`'s `errno` (other than `EINTR`, which is retried).
pub fn poll(fds: &mut [PollFd], until: Option<Instant>) -> io::Result<usize> {
    imp::poll(fds, until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn reuseaddr_listener_accepts_connections() {
        // Port 0: the kernel picks; we read it back and connect.
        let listener = listen_reuseaddr(0).expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(b"ping").expect("write");
        let (mut server, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn poll_reports_a_readable_socket_and_times_out_on_an_idle_one() {
        use std::time::Duration;
        let listener = listen_reuseaddr(0).expect("bind");
        let mut client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");

        let mut fds = [PollFd::new(&server, false)];
        let began = Instant::now();
        let ready = poll(&mut fds, Some(began + Duration::from_millis(30))).expect("poll");
        assert_eq!(ready, 0, "nothing was sent");
        assert!(
            began.elapsed() >= Duration::from_millis(30),
            "waited it out"
        );

        client.write_all(b"x").expect("write");
        let began = Instant::now();
        let ready = poll(&mut fds, Some(began + Duration::from_secs(5))).expect("poll");
        assert_eq!(ready, 1);
        assert!(began.elapsed() < Duration::from_secs(1), "woke on the byte");
        // A deadline already past is a non-blocking check, not an error.
        assert_eq!(poll(&mut fds, Some(began)).expect("poll"), 1);
        // An empty send buffer is writable at once.
        let mut fds = [PollFd::new(&client, true)];
        assert_eq!(poll(&mut fds, None).expect("poll"), 1);
    }

    /// `ppoll` is never restarted after a signal handler ran, whatever
    /// `SA_RESTART` says: it fails with `EINTR`, and `poll` must go back
    /// in for the rest of the wait.
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    #[test]
    fn a_signal_does_not_end_the_wait_early() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        static HANDLED: AtomicUsize = AtomicUsize::new(0);
        extern "C" fn on_signal(_: i32) {
            HANDLED.fetch_add(1, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: i32) -> i32;
        }
        const SIGUSR1: i32 = 10;

        // SAFETY: installs a handler that only bumps an atomic
        // (async-signal-safe) for a signal nothing else in this test
        // binary uses.
        unsafe { signal(SIGUSR1, on_signal) };
        let listener = listen_reuseaddr(0).expect("bind");
        let wait = Duration::from_millis(300);
        let (tell, told) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            // SAFETY: `pthread_self` has no preconditions.
            tell.send(unsafe { pthread_self() })
                .expect("main is listening");
            let began = Instant::now();
            let ready = poll(&mut [PollFd::new(&listener, false)], Some(began + wait));
            (ready.expect("poll"), began.elapsed())
        });
        let thread = told.recv().expect("waiter started");
        // Signals all through the wait: some land inside `ppoll`.
        while !waiter.is_finished() {
            // SAFETY: `thread` names the waiter, which is joined only
            // after this loop, so the id is live.
            unsafe { pthread_kill(thread, SIGUSR1) };
            std::thread::sleep(Duration::from_millis(10));
        }
        let (ready, waited) = waiter.join().expect("waiter");
        assert!(HANDLED.load(Ordering::SeqCst) > 0, "signals were delivered");
        assert_eq!(ready, 0, "nobody connected");
        assert!(
            waited >= wait,
            "returned after {waited:?}, before the deadline"
        );
    }

    /// A reserved port stays bound (which is what keeps the kernel from
    /// handing it out), yet the node it is reserved for can listen and
    /// accept on it — while the reservation is held, again after a
    /// listener on it died with a connection open, and after the
    /// reservation is gone.
    #[test]
    fn a_reserved_port_is_still_listenable() {
        let reserved = reserve_port().expect("reserve");
        let port = reserved.port();
        assert_ne!(port, 0);
        let accept_on = |port: u16| {
            let listener = listen_reuseaddr(port).expect("listen on the reserved port");
            let client = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
            let (server, _) = listener.accept().expect("accept");
            (client, server)
        };
        // The listener dies with a connection open, as a killed node's does.
        drop(accept_on(port));
        drop(accept_on(port));
        drop(reserved);
        drop(accept_on(port));
    }

    #[test]
    fn write_at_start_overwrites_in_place_without_truncating() {
        let path = std::env::temp_dir().join(format!("seqnet-sys-write-{}", std::process::id()));
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("open");
        write_at_start(&file, b"0123456789").expect("write");
        write_at_start(&file, b"abc").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"abc3456789");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebinding_a_just_used_port_succeeds() {
        let first = listen_reuseaddr(0).expect("bind");
        let port = first.local_addr().expect("addr").port();
        // Hold a connection through the listener's death so the port has
        // live TCP state, then rebind immediately.
        let client = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let (server, _) = first.accept().expect("accept");
        drop(first);
        drop(server);
        drop(client);
        listen_reuseaddr(port).expect("rebind with SO_REUSEADDR");
    }
}
