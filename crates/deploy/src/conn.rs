//! Non-blocking connection machinery: framed streams, partial-write
//! buffering, and redial-with-backoff.
//!
//! The deployment never blocks on the network. Every [`Conn`] wraps a
//! non-blocking `TcpStream`: reads drain whatever the kernel has into a
//! [`FrameBuffer`] (tolerating arbitrarily short reads), writes spill into
//! an outbound buffer whenever the kernel accepts less than a full frame
//! (tolerating short writes), and both are pumped from the owner's poll
//! loop. A codec error quarantines the connection — framing cannot be
//! resynchronized — and the dialing side falls back to [`Dialer`], which
//! retries with capped exponential backoff.

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
        let mut chunk = [0u8; 65536];
        while self.closing.is_none() {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closing = Some(io::ErrorKind::UnexpectedEof),
                Ok(n) => self.rx.push(&chunk[..n]),
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
