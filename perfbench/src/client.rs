//! The load generator's client connection: stream framing, per-user
//! stanza sealing, and the benchmark's own timing of every call it makes
//! into `enet` (the backend) and `xmpp::wire` (the connection crypto).

use std::time::{Duration, Instant};

use enet::{NetBackend, NetError, RecvOutcome, SocketId};
use sgx_sim::CostHandle;
use xmpp::stanza::Stanza;
use xmpp::wire::{encode_frame, ConnCrypto, FrameBuf};

/// How long an idle generator thread sleeps before polling again. The
/// generator waits instead of spinning so it never takes a core from the
/// runtime's workers.
pub const POLL: Duration = Duration::from_micros(20);

/// The chat service's listening port (the `XmppConfig` default).
pub const PORT: u16 = 5222;

/// What the generator's own calls cost, as it timed them.
#[derive(Debug, Default)]
pub struct ClientTimes {
    /// Keep per-call samples (traced runs only).
    pub record: bool,
    pub connect_ns: Vec<f64>,
    pub send_ns: Vec<f64>,
    pub recv_ns: Vec<f64>,
    pub seal_ns: Vec<f64>,
    pub open_ns: Vec<f64>,
    pub recv_calls: u64,
    pub recv_empty: u64,
    /// Backend calls made. Each one charges a simulated syscall to the
    /// platform the backend was built on (the service's), so the layer
    /// figures subtract them to count the service alone.
    pub net_calls: u64,
}

impl ClientTimes {
    pub fn new(record: bool) -> Self {
        ClientTimes {
            record,
            ..ClientTimes::default()
        }
    }

    fn note(record: bool, into: &mut Vec<f64>, since: Instant) {
        if record {
            into.push(since.elapsed().as_nanos() as f64);
        }
    }

    pub fn merge(&mut self, mut other: ClientTimes) {
        self.connect_ns.append(&mut other.connect_ns);
        self.send_ns.append(&mut other.send_ns);
        self.recv_ns.append(&mut other.recv_ns);
        self.seal_ns.append(&mut other.seal_ns);
        self.open_ns.append(&mut other.open_ns);
        self.recv_calls += other.recv_calls;
        self.recv_empty += other.recv_empty;
        self.net_calls += other.net_calls;
    }
}

/// Why a connection stopped being usable.
#[derive(Debug)]
pub enum ConnError {
    Net(NetError),
    /// The server closed the connection.
    Eof,
    /// A frame failed to unseal or parse.
    Garbled(String),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Net(e) => write!(f, "network error: {e}"),
            ConnError::Eof => write!(f, "closed by the server"),
            ConnError::Garbled(why) => write!(f, "garbled frame: {why}"),
        }
    }
}

impl From<NetError> for ConnError {
    fn from(e: NetError) -> Self {
        ConnError::Net(e)
    }
}

/// One client connection to the service.
pub struct Conn {
    socket: SocketId,
    crypto: ConnCrypto,
    frames: FrameBuf,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to the service listening on `port` (timed as `connect`).
    pub fn connect(
        net: &dyn NetBackend,
        port: u16,
        t: &mut ClientTimes,
    ) -> Result<Conn, NetError> {
        let began = Instant::now();
        t.net_calls += 1;
        let socket = net.connect(port)?;
        ClientTimes::note(t.record, &mut t.connect_ns, began);
        Ok(Conn {
            socket,
            crypto: ConnCrypto::plaintext(),
            frames: FrameBuf::new(),
            out: Vec::new(),
            buf: vec![0; 16 * 1024],
        })
    }

    /// Connect, retrying while the port is refused (a service that has
    /// just started opens its listener on its first pass), up to
    /// `deadline`.
    pub fn connect_when_listening(
        net: &dyn NetBackend,
        port: u16,
        deadline: Instant,
        t: &mut ClientTimes,
    ) -> Result<Conn, NetError> {
        loop {
            match Conn::connect(net, port, t) {
                Err(NetError::ConnectionRefused(_)) if Instant::now() < deadline => {
                    std::thread::sleep(POLL)
                }
                other => return other,
            }
        }
    }

    /// Queue the plaintext stream header announcing `user`, and switch
    /// the connection to `user`'s session key for everything after it.
    /// `costs` is the generator's own platform, so sealing by the
    /// client is never charged to the service.
    pub fn queue_stream(&mut self, user: &str, costs: CostHandle) {
        let header = Stanza::Stream {
            from: user.to_owned(),
            to: "eactors.example".into(),
        };
        encode_frame(header.to_xml().as_bytes(), &mut self.out);
        self.crypto = ConnCrypto::for_user(user, costs);
    }

    /// Seal `stanza` and queue its frame (timed as `seal`).
    pub fn queue_sealed(&mut self, stanza: &Stanza, t: &mut ClientTimes) {
        let xml = stanza.to_xml();
        let began = Instant::now();
        let sealed = self.crypto.seal_stanza(&xml);
        ClientTimes::note(t.record, &mut t.seal_ns, began);
        encode_frame(&sealed, &mut self.out);
    }

    /// Write queued bytes (timed as `send`). Returns whether everything
    /// queued has left.
    pub fn flush(&mut self, net: &dyn NetBackend, t: &mut ClientTimes) -> Result<bool, NetError> {
        while !self.out.is_empty() {
            let began = Instant::now();
            t.net_calls += 1;
            let n = net.send(self.socket, &self.out)?;
            ClientTimes::note(t.record, &mut t.send_ns, began);
            if n == 0 {
                return Ok(false);
            }
            self.out.drain(..n);
        }
        Ok(true)
    }

    /// Read everything the socket holds (each call timed as `recv`).
    /// Returns whether any bytes arrived.
    pub fn poll(&mut self, net: &dyn NetBackend, t: &mut ClientTimes) -> Result<bool, ConnError> {
        let mut got = false;
        loop {
            let began = Instant::now();
            t.net_calls += 1;
            t.recv_calls += 1;
            let outcome = net.recv(self.socket, &mut self.buf)?;
            ClientTimes::note(t.record, &mut t.recv_ns, began);
            match outcome {
                RecvOutcome::Data(n) => {
                    self.frames.push(&self.buf[..n]);
                    got = true;
                }
                RecvOutcome::WouldBlock => {
                    if !got {
                        t.recv_empty += 1;
                    }
                    return Ok(got);
                }
                RecvOutcome::Eof => return Err(ConnError::Eof),
            }
        }
    }

    /// The next complete stanza received, unsealed with this connection's
    /// key unless it is the plaintext stream answer (`plain`). Unsealing
    /// is timed as `open`.
    pub fn next_stanza(
        &mut self,
        plain: bool,
        t: &mut ClientTimes,
    ) -> Result<Option<Stanza>, ConnError> {
        let frame = match self.frames.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(None),
            Err(e) => return Err(ConnError::Garbled(e.to_string())),
        };
        let xml = if plain {
            String::from_utf8(frame).map_err(|e| ConnError::Garbled(e.to_string()))?
        } else {
            let began = Instant::now();
            let xml = self
                .crypto
                .open_stanza(&frame)
                .map_err(|e| ConnError::Garbled(e.to_string()))?;
            ClientTimes::note(t.record, &mut t.open_ns, began);
            xml
        };
        Stanza::parse(&xml)
            .map(Some)
            .map_err(|e| ConnError::Garbled(e.to_string()))
    }

    /// Wait (sleeping, never spinning) for the next stanza, up to
    /// `deadline`; `Ok(None)` on timeout.
    pub fn wait_stanza(
        &mut self,
        net: &dyn NetBackend,
        plain: bool,
        deadline: Instant,
        t: &mut ClientTimes,
    ) -> Result<Option<Stanza>, ConnError> {
        loop {
            if let Some(s) = self.next_stanza(plain, t)? {
                return Ok(Some(s));
            }
            self.flush(net, t)?;
            if !self.poll(net, t)? {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(POLL);
            }
        }
    }

    /// Close the connection (best effort: the server may already have).
    pub fn close(self, net: &dyn NetBackend, t: &mut ClientTimes) {
        t.net_calls += 1;
        let _ = net.close(self.socket);
    }
}
