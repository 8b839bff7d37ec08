//! Non-blocking connection machinery: framed streams, partial-write
//! buffering, and redial-with-backoff.
//!
//! No read or write ever blocks. Every [`Conn`] wraps a non-blocking
//! `TcpStream`: reads drain whatever the kernel has into a
//! [`FrameBuffer`] (tolerating arbitrarily short reads), writes spill into
//! an outbound buffer whenever the kernel accepts less than a full frame
//! (tolerating short writes), and both are pumped from the owner's loop.
//! A codec error quarantines the connection — framing cannot be
//! resynchronized — and the dialing side falls back to [`Dialer`], which
//! retries with capped exponential backoff. The one place a process does
//! block is `Peers::wait`, between two rounds of that loop: until a
//! connection is ready or a deadline has come, whichever is first.

use crate::sys::{self, PollFd};
use crate::topo::Proc;
use crate::wire::{encode, CodecError, FrameBuffer, WireMsg};
use seqnet_runtime::Transmission;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Why a connection must be discarded.
#[derive(Debug)]
pub enum ConnError {
    /// The peer closed the stream (or the kernel reported a hard error —
    /// a SIGKILLed peer surfaces here as reset-by-peer).
    Closed(io::Error),
    /// The stream produced undecodable bytes; the connection is
    /// quarantined because framing is unrecoverable.
    Quarantined(CodecError),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Closed(e) => write!(f, "connection closed: {e}"),
            ConnError::Quarantined(e) => write!(f, "connection quarantined: {e}"),
        }
    }
}

/// A framed, non-blocking, buffered TCP connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    rx: FrameBuffer,
    /// Where `read(2)` lands before the bytes move into `rx`; allocated
    /// and zeroed once per connection, not once per poll.
    chunk: Box<[u8]>,
    out: Vec<u8>,
    out_at: usize,
    /// A close observed while complete messages were still buffered; those
    /// messages are delivered first, the close surfaces on the next poll.
    closing: Option<io::ErrorKind>,
    /// Reads and writes are suppressed until this instant (chaos
    /// injection: a stalled link looks alive but moves no bytes).
    pub stalled_until: Option<Instant>,
}

impl Conn {
    /// Wraps a freshly established stream: non-blocking, Nagle off (the
    /// deployment's frames are latency-sensitive and tiny).
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking` failure.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rx: FrameBuffer::new(),
            chunk: vec![0; 65536].into_boxed_slice(),
            out: Vec::new(),
            out_at: 0,
            closing: None,
            stalled_until: None,
        })
    }

    fn stalled(&mut self) -> bool {
        match self.stalled_until {
            Some(t) if Instant::now() < t => true,
            Some(_) => {
                self.stalled_until = None;
                false
            }
            None => false,
        }
    }

    /// Queues one message for transmission (appended to the outbound
    /// buffer; bytes leave via [`poll_write`](Self::poll_write)).
    pub fn queue(&mut self, msg: &WireMsg) {
        encode(msg, &mut self.out);
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn backlog(&self) -> usize {
        self.out.len() - self.out_at
    }

    /// What a [`sys::poll`] should watch this connection for: readable,
    /// and — only while a backlog is waiting on the kernel — writable.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.stream, self.backlog() > 0)
    }

    /// Drains readable bytes and appends every complete message to the
    /// caller-owned `msgs` (the poll loops reuse one `Vec` across
    /// iterations so a quiet poll allocates nothing); returns how many
    /// were appended. A close racing with final messages (a peer that
    /// replies and exits — its data and FIN can land in one poll)
    /// delivers those messages first and surfaces [`ConnError::Closed`]
    /// on the next call.
    ///
    /// # Errors
    ///
    /// [`ConnError::Closed`] on EOF or a hard socket error,
    /// [`ConnError::Quarantined`] on a codec failure; messages appended
    /// before a codec failure stay in `msgs`.
    pub fn poll_read_into(&mut self, msgs: &mut Vec<WireMsg>) -> Result<usize, ConnError> {
        if self.stalled() {
            return Ok(0);
        }
        let before = msgs.len();
        while self.closing.is_none() {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => self.closing = Some(io::ErrorKind::UnexpectedEof),
                Ok(n) => self.rx.push(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => self.closing = Some(e.kind()),
            }
        }
        loop {
            match self.rx.next() {
                Ok(Some(m)) => msgs.push(m),
                Ok(None) => break,
                Err(e) => return Err(ConnError::Quarantined(e)),
            }
        }
        if msgs.len() == before {
            if let Some(kind) = self.closing {
                return Err(ConnError::Closed(io::Error::new(kind, "peer closed")));
            }
        }
        Ok(msgs.len() - before)
    }

    /// Writes as much of the outbound buffer as the kernel accepts.
    ///
    /// # Errors
    ///
    /// [`ConnError::Closed`] on a hard socket error (e.g. the peer was
    /// SIGKILLed mid-stream).
    pub fn poll_write(&mut self) -> Result<(), ConnError> {
        if self.stalled() || self.out_at == self.out.len() {
            return Ok(());
        }
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    return Err(ConnError::Closed(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "kernel accepted zero bytes",
                    )))
                }
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ConnError::Closed(e)),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        } else if self.out_at > 65536 {
            self.out.drain(..self.out_at);
            self.out_at = 0;
        }
        Ok(())
    }
}

/// Redials a peer with capped exponential backoff. Created whenever the
/// dialing side loses (or has yet to make) its connection; polled from the
/// owner's loop until it yields a stream.
#[derive(Debug)]
pub struct Dialer {
    addr: SocketAddr,
    next_attempt: Instant,
    backoff: Duration,
    base: Duration,
    cap: Duration,
}

impl Dialer {
    /// A dialer whose first attempt is due immediately. `base` is the
    /// delay after the first failure; it doubles per failure up to `cap`.
    pub fn new(addr: SocketAddr, base: Duration, cap: Duration) -> Self {
        Dialer {
            addr,
            next_attempt: Instant::now(),
            backoff: base.max(Duration::from_millis(1)),
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
        }
    }

    /// Attempts the connection if one is due. Returns the stream on
    /// success; on failure schedules the next attempt and returns `None`.
    pub fn poll(&mut self) -> Option<TcpStream> {
        if Instant::now() < self.next_attempt {
            return None;
        }
        // A refused localhost connect fails immediately; the timeout only
        // bounds pathological cases so the poll loop cannot wedge.
        match TcpStream::connect_timeout(&self.addr, Duration::from_millis(50)) {
            Ok(stream) => {
                self.backoff = self.base;
                Some(stream)
            }
            Err(_) => {
                self.next_attempt = Instant::now() + self.backoff;
                self.backoff = (self.backoff * 2).min(self.cap);
                None
            }
        }
    }
}

/// The connections one process keeps to its peer processes — the
/// coordinator to every node, a node to the coordinator and its neighbour
/// nodes: the live ones, a [`Dialer`] for each peer this process is
/// responsible for dialing and currently lacks, and a connection epoch per
/// peer (bumped on every new connection, gating reconnect replay). One
/// policy for both kinds of process: a connection that fails a read or a
/// write is closed and, if ours to dial, redialed.
#[derive(Debug)]
pub(crate) struct Peers {
    /// What this process says first on a connection it dialed.
    hello: WireMsg,
    /// The peers this process dials; everyone else dials it.
    dials: BTreeMap<Proc, SocketAddr>,
    backoff_cap: Duration,
    conns: HashMap<Proc, Conn>,
    dialers: BTreeMap<Proc, Dialer>,
    epochs: HashMap<Proc, u64>,
    /// The socket set of the last [`wait`](Self::wait); scratch, so a
    /// wait allocates nothing.
    fds: Vec<PollFd>,
}

/// Delay after a first failed dial; doubles per failure up to the
/// configured backoff cap.
const REDIAL_BASE: Duration = Duration::from_millis(5);

/// Bumps and returns `proc`'s connection epoch.
fn next_epoch(epochs: &mut HashMap<Proc, u64>, proc: Proc) -> u64 {
    let epoch = epochs.entry(proc).or_insert(0);
    *epoch += 1;
    *epoch
}

impl Peers {
    /// No connections yet, and a dial in flight to every peer in `dials`.
    pub(crate) fn new(
        hello: WireMsg,
        dials: BTreeMap<Proc, SocketAddr>,
        backoff_cap: Duration,
    ) -> Self {
        let dialers = dials
            .iter()
            .map(|(&proc, &addr)| (proc, Dialer::new(addr, REDIAL_BASE, backoff_cap)))
            .collect();
        Peers {
            hello,
            dials,
            backoff_cap,
            conns: HashMap::new(),
            dialers,
            epochs: HashMap::new(),
            fds: Vec::new(),
        }
    }

    /// Starts dialing `proc`, unless a dial is already in flight or `proc`
    /// is not this process's to dial.
    pub(crate) fn redial(&mut self, proc: Proc) {
        if let Some(&addr) = self.dials.get(&proc) {
            let cap = self.backoff_cap;
            self.dialers
                .entry(proc)
                .or_insert_with(|| Dialer::new(addr, REDIAL_BASE, cap));
        }
    }

    /// Closes the connection to `proc`, if any, and redials.
    pub(crate) fn drop_conn(&mut self, proc: Proc) {
        self.conns.remove(&proc);
        self.redial(proc);
    }

    /// Registers a fresh connection to `proc` (one that said hello to
    /// us); returns its epoch.
    pub(crate) fn connected(&mut self, proc: Proc, conn: Conn) -> u64 {
        self.conns.insert(proc, conn);
        next_epoch(&mut self.epochs, proc)
    }

    /// Completes the dials that are due: says hello on each new
    /// connection, reports it with its epoch, and registers it.
    pub(crate) fn poll_dials(&mut self, mut on_connect: impl FnMut(Proc, u64, &mut Conn)) {
        let Peers {
            hello,
            conns,
            dialers,
            epochs,
            ..
        } = self;
        dialers.retain(|&proc, dialer| {
            let Some(mut conn) = dialer.poll().and_then(|stream| Conn::new(stream).ok()) else {
                return true;
            };
            conn.queue(hello);
            on_connect(proc, next_epoch(epochs, proc), &mut conn);
            conns.insert(proc, conn);
            false
        });
    }

    /// Replaces `msgs` with what the connection to `proc` has readable. A
    /// dead or garbled connection yields nothing and is dropped.
    pub(crate) fn read_into(&mut self, proc: Proc, msgs: &mut Vec<WireMsg>) {
        msgs.clear();
        let Some(conn) = self.conns.get_mut(&proc) else {
            return;
        };
        if conn.poll_read_into(msgs).is_err() {
            msgs.clear();
            self.drop_conn(proc);
        }
    }

    /// The live connection to `proc`, if any.
    pub(crate) fn conn_mut(&mut self, proc: Proc) -> Option<&mut Conn> {
        self.conns.get_mut(&proc)
    }

    /// Queues `msg` on every live connection.
    pub(crate) fn broadcast(&mut self, msg: &WireMsg) {
        for conn in self.conns.values_mut() {
            conn.queue(msg);
        }
    }

    /// Queues a link engine's transmission on the connection to its
    /// addressee's process. No connection: the frame is dropped — the
    /// link layer's retransmission schedule and reconnect replay recover
    /// it.
    pub(crate) fn route(&mut self, t: Transmission) {
        if let Some(conn) = self.conns.get_mut(&Proc::owner(t.to)) {
            conn.queue(&WireMsg::Link {
                link: t.link,
                seq: t.seq,
                body: t.body,
            });
        }
    }

    /// Writes the backlog of the connection to `proc` if it has grown past
    /// `limit` bytes — for a caller that queues without pumping, so what
    /// it queues is bounded by `limit` plus one message (as long as the
    /// kernel takes the bytes). A failed write drops the connection.
    pub(crate) fn flush_past(&mut self, proc: Proc, limit: usize) {
        if let Some(conn) = self.conns.get_mut(&proc) {
            if conn.backlog() > limit && conn.poll_write().is_err() {
                self.drop_conn(proc);
            }
        }
    }

    /// Blocks until something this table could act on has happened — a
    /// live connection or one of the caller's `extra` sockets (a node's
    /// listener and its not-yet-introduced connections) is readable, a
    /// connection with a backlog can take bytes again — or until the
    /// earliest of `until` (`None`: the caller holds no deadline), the
    /// next redial attempt and the end of a stall. A stalled connection is
    /// not watched, so the bytes it is not reading cannot keep the caller
    /// spinning. Call it after a full round of reads and
    /// [`flush`](Self::flush): it reports nothing, the next round finds
    /// out what is ready by trying.
    pub(crate) fn wait(&mut self, extra: impl IntoIterator<Item = PollFd>, until: Option<Instant>) {
        let now = Instant::now();
        let mut until = self
            .dialers
            .values()
            .map(|d| d.next_attempt)
            .chain(until)
            .min();
        self.fds.clear();
        self.fds.extend(extra);
        for conn in self.conns.values() {
            match conn.stalled_until {
                Some(end) if now < end => until = Some(until.map_or(end, |u| u.min(end))),
                _ => self.fds.push(conn.poll_fd()),
            }
        }
        // An error here is not one a retry could hit differently (the
        // set is a handful of open sockets); the next round's reads and
        // writes surface whatever is wrong with them.
        let _ = sys::poll(&mut self.fds, until);
    }

    /// Writes every connection's backlog, dropping the ones that fail.
    pub(crate) fn flush(&mut self) {
        let dead: Vec<Proc> = self
            .conns
            .iter_mut()
            .filter_map(|(&proc, conn)| conn.poll_write().is_err().then_some(proc))
            .collect();
        for proc in dead {
            self.drop_conn(proc);
        }
    }

    /// Closes everything and stops dialing.
    pub(crate) fn close(&mut self) {
        self.conns.clear();
        self.dialers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireBody;
    use seqnet_core::proto::Peer;

    fn pair() -> (Conn, Conn) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (Conn::new(a).expect("conn a"), Conn::new(b).expect("conn b"))
    }

    fn drain(conn: &mut Conn, want: usize) -> Vec<WireMsg> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            conn.poll_read_into(&mut got).expect("readable");
            std::thread::sleep(Duration::from_micros(200));
        }
        got
    }

    #[test]
    fn framed_messages_survive_the_socket() {
        let (mut a, mut b) = pair();
        let msgs = vec![
            WireMsg::Hello {
                party: Peer::Node(1),
                incarnation: 0,
            },
            WireMsg::Link {
                link: 3,
                seq: 1,
                body: WireBody::Heartbeat,
            },
            WireMsg::Shutdown,
        ];
        for m in &msgs {
            a.queue(m);
        }
        while a.backlog() > 0 {
            a.poll_write().expect("write");
        }
        assert_eq!(drain(&mut b, msgs.len()), msgs);
    }

    #[test]
    fn garbled_stream_quarantines_the_connection() {
        let (a, mut b) = pair();
        let mut raw = a;
        // Bypass the codec: push a hostile length prefix straight into the
        // outbound buffer.
        raw.out.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.out.extend_from_slice(&[0xAB; 32]);
        while raw.backlog() > 0 {
            raw.poll_write().expect("write");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match b.poll_read_into(&mut Vec::new()) {
                Err(ConnError::Quarantined(_)) => break,
                Err(other) => panic!("expected quarantine, got {other}"),
                Ok(_) if Instant::now() > deadline => panic!("no quarantine"),
                Ok(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    #[test]
    fn final_messages_survive_a_racing_close() {
        // A peer that replies and exits: its data and FIN can arrive in
        // the same poll. The reply must not be lost to the close error.
        let (mut a, mut b) = pair();
        a.queue(&WireMsg::Shutdown);
        while a.backlog() > 0 {
            a.poll_write().expect("write");
        }
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        let closed = loop {
            match b.poll_read_into(&mut got) {
                Ok(_) => {}
                Err(ConnError::Closed(_)) => break true,
                Err(other) => panic!("unexpected: {other}"),
            }
            assert!(Instant::now() < deadline, "never saw the close");
            std::thread::sleep(Duration::from_micros(200));
        };
        assert!(closed);
        assert_eq!(got, vec![WireMsg::Shutdown], "reply arrived before close");
    }

    /// A connection table holding `conn` as its one live connection.
    fn table_with(conn: Conn) -> Peers {
        let mut peers = Peers::new(
            WireMsg::Shutdown,
            BTreeMap::new(),
            Duration::from_millis(80),
        );
        peers.connected(Proc::Node(0), conn);
        peers
    }

    /// How long `wait` blocked when given `timeout` from now.
    fn waited(peers: &mut Peers, timeout: Duration) -> Duration {
        let began = Instant::now();
        peers.wait([], Some(began + timeout));
        began.elapsed()
    }

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn wait_returns_on_a_readable_peer_and_at_the_deadline_when_idle() {
        let (near, mut far) = pair();
        let mut peers = table_with(near);
        let idle = waited(&mut peers, MS(40));
        assert!(idle >= MS(40), "nothing to wake it: {idle:?}");
        assert!(idle < MS(1000), "and the deadline does: {idle:?}");

        far.queue(&WireMsg::Shutdown);
        far.poll_write().expect("write");
        let woken = waited(&mut peers, MS(5000));
        assert!(woken < MS(1000), "the byte woke it: {woken:?}");
        // Readiness is level-triggered: until the round of reads `wait`
        // is called after has happened, it keeps reporting.
        assert!(waited(&mut peers, MS(5000)) < MS(1000));
        let mut msgs = Vec::new();
        peers.read_into(Proc::Node(0), &mut msgs);
        assert_eq!(msgs, vec![WireMsg::Shutdown]);
        assert!(waited(&mut peers, MS(40)) >= MS(40), "drained: idle again");
    }

    #[test]
    fn a_stalled_connection_with_unread_bytes_does_not_cut_the_wait_short() {
        let (near, mut far) = pair();
        let mut peers = table_with(near);
        far.queue(&WireMsg::Shutdown);
        far.poll_write().expect("write");

        // The stall ends first: the wait lasts exactly that long, then
        // the bytes are fair game again.
        let stall = |peers: &mut Peers, window| {
            peers.conn_mut(Proc::Node(0)).expect("live").stalled_until =
                Some(Instant::now() + window);
        };
        stall(&mut peers, MS(80));
        let through_stall = waited(&mut peers, MS(5000));
        assert!(through_stall >= MS(80), "woke mid-stall: {through_stall:?}");
        assert!(through_stall < MS(1000), "slept past it: {through_stall:?}");
        assert!(waited(&mut peers, MS(5000)) < MS(1000), "readable again");

        // The caller's deadline ends first.
        stall(&mut peers, MS(5000));
        let to_deadline = waited(&mut peers, MS(30));
        assert!(to_deadline >= MS(30), "woke mid-stall: {to_deadline:?}");
        assert!(to_deadline < MS(1000), "slept past it: {to_deadline:?}");
    }

    #[test]
    fn a_backlog_wakes_the_wait_when_the_kernel_can_take_more() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut far, _) = listener.accept().expect("accept");
        let mut peers = table_with(Conn::new(near).expect("conn"));

        // Far more than both kernel buffers hold, to a peer not reading.
        let conn = peers.conn_mut(Proc::Node(0)).expect("live");
        conn.out.resize(32 << 20, 0xAB);
        peers.flush();
        let stuck = peers.conn_mut(Proc::Node(0)).expect("still live").backlog();
        assert!(stuck > 0, "the kernel took all 32 MiB");
        let full = waited(&mut peers, MS(40));
        assert!(
            full >= MS(40),
            "nothing readable, nothing writable: {full:?}"
        );

        // The peer starts reading: room appears, the wait ends, and the
        // next flush moves bytes.
        let reader = std::thread::spawn(move || {
            let mut sink = vec![0u8; 1 << 20];
            let mut total = 0usize;
            while total < 32 << 20 {
                match far.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => total += n,
                }
            }
            total
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        while peers.conn_mut(Proc::Node(0)).expect("live").backlog() > 0 {
            assert!(Instant::now() < deadline, "backlog never drained");
            let blocked = waited(&mut peers, MS(5000));
            assert!(blocked < MS(4000), "POLLOUT never woke the wait");
            peers.flush();
        }
        assert_eq!(reader.join().expect("reader"), 32 << 20);
    }

    #[test]
    fn a_pending_redial_bounds_the_wait() {
        // A port with nothing listening: the first attempt is due at
        // once, fails, and schedules the next one REDIAL_BASE out.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = probe.local_addr().expect("addr");
        drop(probe);
        let mut peers = Peers::new(
            WireMsg::Shutdown,
            BTreeMap::from([(Proc::Node(0), addr)]),
            MS(80),
        );
        let began = Instant::now();
        peers.wait([], None);
        assert!(began.elapsed() < MS(1000), "a due dial is not slept on");
        peers.poll_dials(|_, _, _| panic!("nothing is listening"));
        let began = Instant::now();
        peers.wait([], None);
        let until_retry = began.elapsed();
        assert!(
            until_retry < MS(1000),
            "no caller deadline, but the dialer has one"
        );
    }

    #[test]
    fn dialer_backs_off_and_eventually_connects() {
        // A port with nothing listening: grab one, note it, release it.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = probe.local_addr().expect("addr");
        drop(probe);
        let mut dialer = Dialer::new(addr, Duration::from_millis(2), Duration::from_millis(20));
        let mut failures = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while failures < 3 && Instant::now() < deadline {
            if dialer.poll().is_none() {
                failures += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(failures >= 3, "refused connects should fail");
        let listener = crate::sys::listen_reuseaddr(addr.port()).expect("rebind");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(stream) = dialer.poll() {
                drop(stream);
                break;
            }
            assert!(Instant::now() < deadline, "dialer never connected");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(listener);
    }
}
