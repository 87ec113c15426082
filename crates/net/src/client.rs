//! The TCP client: [`Client`] implements [`Submit`] over the wire
//! protocol, so code written against the trait runs unchanged whether the
//! engine is in-process or behind a socket.
//!
//! One background reader thread per connection correlates `Outcome`,
//! `Ack` and `Nack` frames back to their submissions by correlation id and
//! resolves the matching [`NetTicket`]s. The client is cheaply cloneable —
//! clones share the connection — and any clone may submit from any thread;
//! frame writes are serialized by a mutex.
//!
//! **Disconnect guarantee:** when the connection dies for any reason —
//! server shutdown, an `Error` frame, an abrupt TCP reset — every
//! outstanding [`NetTicket`] resolves as [`Outcome::Cancelled`] and every
//! in-flight admission decision (either mode) resolves as
//! [`SubmitError::Closed`] with the request handed back. Nothing hangs.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pe_runtime::ExecError;
use pockengine::{Outcome, Submit, SubmitError, SubmitHandle, TicketNotify};

use pe_data::serving::Request;

use crate::env::{env_value, parse_var, EnvError};
use crate::proto::{
    self, FrameKind, NackReason, SubmitMode, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// Reads `PE_NET_MAX_FRAME` (bytes), falling back to
/// [`DEFAULT_MAX_FRAME_BYTES`] when unset.
///
/// # Errors
///
/// [`EnvError`] when the variable is set to something other than a byte
/// count.
pub fn max_frame_from_env() -> Result<usize, EnvError> {
    max_frame_from(env_value("PE_NET_MAX_FRAME").as_deref())
}

/// [`max_frame_from_env`] over an explicit value (`None` when unset).
///
/// # Errors
///
/// [`EnvError`] when `value` is not a byte count.
pub(crate) fn max_frame_from(value: Option<&str>) -> Result<usize, EnvError> {
    parse_var(
        "PE_NET_MAX_FRAME",
        value,
        DEFAULT_MAX_FRAME_BYTES,
        "a frame size in bytes",
    )
}

enum NetSlot {
    Pending,
    Ready(Box<Result<Outcome, ExecError>>, Instant),
    Taken,
}

struct NetCell {
    slot: Mutex<NetSlot>,
    ready: Condvar,
    /// An optional external observer (see [`NetTicket::watch`]), poked
    /// once on resolution — the wire counterpart of a queue ticket's
    /// watcher.
    watcher: Mutex<Option<Arc<TicketNotify>>>,
}

impl NetCell {
    fn new() -> Arc<NetCell> {
        Arc::new(NetCell {
            slot: Mutex::new(NetSlot::Pending),
            ready: Condvar::new(),
            watcher: Mutex::new(None),
        })
    }

    fn fulfill(&self, result: Result<Outcome, ExecError>) {
        let mut slot = self.slot.lock().unwrap();
        if matches!(*slot, NetSlot::Pending) {
            *slot = NetSlot::Ready(Box::new(result), Instant::now());
            self.ready.notify_all();
            drop(slot);
            if let Some(watcher) = &*self.watcher.lock().unwrap() {
                watcher.notify();
            }
        }
    }
}

/// The completion handle a [`Client`] hands out: the wire-protocol
/// counterpart of [`pockengine::Ticket`], resolved by the connection's
/// reader thread when the matching `Outcome` frame arrives (or as
/// [`Outcome::Cancelled`] when the connection dies first).
pub struct NetTicket {
    cell: Arc<NetCell>,
}

impl std::fmt::Debug for NetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTicket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl NetTicket {
    /// Whether the submission has been resolved (stays `true` after the
    /// result was taken).
    pub fn is_ready(&self) -> bool {
        !matches!(*self.cell.slot.lock().unwrap(), NetSlot::Pending)
    }

    /// Takes the result without blocking, if resolved; `None` while
    /// pending and after the result was already taken.
    pub fn try_take(&mut self) -> Option<Result<Outcome, ExecError>> {
        let mut slot = self.cell.slot.lock().unwrap();
        if matches!(*slot, NetSlot::Ready(..)) {
            if let NetSlot::Ready(result, _) = std::mem::replace(&mut *slot, NetSlot::Taken) {
                return Some(*result);
            }
        }
        None
    }

    /// Blocks until the submission resolves and returns the result.
    pub fn wait(self) -> Result<Outcome, ExecError> {
        self.wait_timed().0
    }

    /// Registers a notify handle poked when this ticket resolves (or
    /// immediately, if it already has). One condvar can watch many tickets
    /// — the idiom a balancer's reaper thread uses to sleep until *any*
    /// in-flight submission on any worker resolves. A later `watch`
    /// replaces the previous observer.
    pub fn watch(&self, notify: Arc<TicketNotify>) {
        // Publish the watcher before checking readiness, so a fulfill that
        // races this call cannot slip between the check and the store.
        *self.cell.watcher.lock().unwrap() = Some(Arc::clone(&notify));
        if self.is_ready() {
            notify.notify();
        }
    }

    /// Blocks until the submission resolves; also returns the instant the
    /// reader thread resolved it (for latency accounting).
    pub fn wait_timed(self) -> (Result<Outcome, ExecError>, Instant) {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            match std::mem::replace(&mut *slot, NetSlot::Taken) {
                NetSlot::Ready(result, at) => return (*result, at),
                NetSlot::Taken => panic!("NetTicket result already taken"),
                NetSlot::Pending => {
                    *slot = NetSlot::Pending;
                    slot = self.cell.ready.wait(slot).unwrap();
                }
            }
        }
    }
}

impl SubmitHandle for NetTicket {
    fn is_ready(&self) -> bool {
        NetTicket::is_ready(self)
    }

    fn try_take(&mut self) -> Option<Result<Outcome, ExecError>> {
        NetTicket::try_take(self)
    }

    fn wait(self) -> Result<Outcome, ExecError> {
        NetTicket::wait(self)
    }
}

/// A try-mode submission's pending verdict (`Ack` or `Nack`).
struct Decision {
    verdict: Mutex<Option<Result<(), NackReason>>>,
    decided: Condvar,
}

impl Decision {
    fn new() -> Arc<Decision> {
        Arc::new(Decision {
            verdict: Mutex::new(None),
            decided: Condvar::new(),
        })
    }

    fn decide(&self, verdict: Result<(), NackReason>) {
        let mut slot = self.verdict.lock().unwrap();
        if slot.is_none() {
            *slot = Some(verdict);
            self.decided.notify_all();
        }
    }

    fn wait(&self) -> Result<(), NackReason> {
        let mut slot = self.verdict.lock().unwrap();
        loop {
            if let Some(verdict) = *slot {
                return verdict;
            }
            slot = self.decided.wait(slot).unwrap();
        }
    }
}

/// What a control-plane round trip resolved to.
enum ControlReply {
    /// `Pong`: the server's queue depth at probe time.
    Pong(u32),
    /// `Ack`: a pushed checkpoint was restored.
    Ack,
    /// `Checkpoint` answering a `SnapshotReq`: the store's snapshot bytes.
    Snapshot(Vec<u8>),
}

/// A pending control-plane reply (ping / checkpoint push / snapshot
/// fetch), resolved by the reader thread or by connection teardown.
struct ControlCell {
    slot: Mutex<Option<Result<ControlReply, String>>>,
    ready: Condvar,
}

impl ControlCell {
    fn new() -> Arc<ControlCell> {
        Arc::new(ControlCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn resolve(&self, reply: Result<ControlReply, String>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(reply);
            self.ready.notify_all();
        }
    }

    /// `None` on timeout (the reply may still arrive later; the caller
    /// must deregister the cell so it is dropped instead).
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<ControlReply, String>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock().unwrap();
        loop {
            if slot.is_some() {
                return slot.take();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (next, timed_out) = self.ready.wait_timeout(slot, left).unwrap();
            slot = next;
            if timed_out.timed_out() && slot.is_none() {
                return None;
            }
        }
    }
}

struct ClientShared {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Arc<NetCell>>>,
    decisions: Mutex<HashMap<u64, Arc<Decision>>>,
    control: Mutex<HashMap<u64, Arc<ControlCell>>>,
    next_corr: AtomicU64,
    closed: AtomicBool,
    last_error: Mutex<Option<String>>,
    max_frame: usize,
    /// User-facing `Client` clones (the reader thread holds its own `Arc`
    /// but is not a user): when the count hits zero the connection closes,
    /// which also lets the reader thread exit.
    users: AtomicUsize,
}

impl ClientShared {
    /// Marks the connection dead and resolves everything outstanding:
    /// pending tickets become `Cancelled`, pending try-decisions become
    /// `Closed`. Safe to call more than once.
    fn tear_down(&self, reason: Option<String>) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(reason) = reason {
            self.last_error.lock().unwrap().get_or_insert(reason);
        }
        let cells: Vec<_> = self.pending.lock().unwrap().drain().collect();
        for (_, cell) in cells {
            cell.fulfill(Ok(Outcome::Cancelled));
        }
        let decisions: Vec<_> = self.decisions.lock().unwrap().drain().collect();
        for (_, decision) in decisions {
            decision.decide(Err(NackReason::Closed));
        }
        let controls: Vec<_> = self.control.lock().unwrap().drain().collect();
        for (_, cell) in controls {
            cell.resolve(Err("connection closed".to_string()));
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// A connection to a `pe-server`, speaking the versioned wire protocol.
///
/// Cloneable — clones share the connection and its reader thread, exactly
/// as [`pockengine::Submitter`] clones share the queue. Dropping the last
/// clone closes the connection: any tickets still outstanding resolve as
/// [`Outcome::Cancelled`] (nobody is left to redeem a served result over
/// a readerless socket).
pub struct Client {
    shared: Arc<ClientShared>,
}

impl Clone for Client {
    fn clone(&self) -> Client {
        self.shared.users.fetch_add(1, Ordering::SeqCst);
        Client {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if self.shared.users.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.tear_down(None);
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl Client {
    /// Connects and performs the `Hello`/`HelloAck` version handshake,
    /// then starts the reader thread.
    ///
    /// # Errors
    ///
    /// Connection failures pass through; a handshake rejection (the server
    /// answered `Error` instead of `HelloAck`, or an unexpected frame) is
    /// an [`io::ErrorKind::InvalidData`] error carrying the server's
    /// message.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::with_stream(TcpStream::connect(addr)?, None)
    }

    /// [`Client::connect`] with an explicit bound on both the TCP connect
    /// and the version handshake, instead of the OS default (which can
    /// block for minutes against a dead address). Tries every resolved
    /// address in order and returns the last failure.
    ///
    /// # Errors
    ///
    /// Connection and handshake failures pass through; exhausting the
    /// timeout is [`io::ErrorKind::TimedOut`].
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Client::with_stream(stream, Some(timeout)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Retries [`Client::connect_timeout`] up to `attempts` times with
    /// exponential backoff between attempts (doubling from
    /// `initial_backoff`, capped at 5 s) — the reconnect idiom for a
    /// worker that may be restarting. Returns the last failure when every
    /// attempt is refused.
    ///
    /// # Errors
    ///
    /// The final attempt's error, verbatim.
    pub fn connect_with_backoff(
        addr: impl ToSocketAddrs,
        attempts: usize,
        timeout: Duration,
        initial_backoff: Duration,
    ) -> io::Result<Client> {
        let mut backoff = initial_backoff;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
            }
            // `&addr`: ToSocketAddrs is implemented for references, so one
            // unresolved address serves every attempt.
            match Client::connect_timeout(&addr, timeout) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// The shared tail of every constructor: handshake over an established
    /// stream (bounded by `handshake_timeout` when given), then start the
    /// reader thread.
    fn with_stream(stream: TcpStream, handshake_timeout: Option<Duration>) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        if handshake_timeout.is_some() {
            stream.set_read_timeout(handshake_timeout)?;
            stream.set_write_timeout(handshake_timeout)?;
        }
        let max_frame =
            max_frame_from_env().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut writer = stream.try_clone()?;
        proto::write_frame(&mut writer, FrameKind::Hello, &proto::encode_hello())?;
        let mut reader = stream.try_clone()?;
        let frame = proto::read_frame(&mut reader, max_frame)?;
        let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        match FrameKind::from_u8(frame.kind) {
            Some(FrameKind::HelloAck) => {
                let version =
                    proto::decode_hello_ack(&frame.payload).map_err(|e| invalid(e.to_string()))?;
                if version != PROTOCOL_VERSION {
                    return Err(invalid(format!(
                        "server speaks protocol v{version}, this build speaks v{PROTOCOL_VERSION}"
                    )));
                }
            }
            Some(FrameKind::Error) => {
                let message = proto::decode_error(&frame.payload)
                    .unwrap_or_else(|_| "unreadable server error".into());
                return Err(invalid(format!("server rejected the handshake: {message}")));
            }
            _ => {
                return Err(invalid(format!(
                    "unexpected frame kind {} during handshake",
                    frame.kind
                )))
            }
        }
        if handshake_timeout.is_some() {
            stream.set_read_timeout(None)?;
            stream.set_write_timeout(None)?;
        }
        let shared = Arc::new(ClientShared {
            stream,
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            decisions: Mutex::new(HashMap::new()),
            control: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            last_error: Mutex::new(None),
            max_frame,
            users: AtomicUsize::new(1),
        });
        let for_reader = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pe-net-client-reader".into())
            .spawn(move || reader_loop(for_reader, reader))
            .expect("spawn client reader");
        Ok(Client { shared })
    }

    /// Whether the connection has died (every subsequent submission fails
    /// with [`SubmitError::Closed`]).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// The connection-fatal error message, when the connection died on a
    /// protocol violation or a server-sent `Error` frame (`None` for a
    /// plain EOF and while healthy).
    pub fn last_error(&self) -> Option<String> {
        self.shared.last_error.lock().unwrap().clone()
    }

    /// Closes the connection now: outstanding tickets resolve as
    /// [`Outcome::Cancelled`].
    pub fn close(&self) {
        self.shared.tear_down(None);
    }

    /// The submission path shared by both modes: register the ticket cell
    /// and the admission decision *before* the frame hits the wire (the
    /// verdict can race back), write the `Submit` frame, then wait for the
    /// server's `Ack`/`Nack`. A refused submission never hands out a
    /// handle — the caller keeps the request on every failure, so a
    /// never-admitted request surfaces as `SubmitError`, distinct from a
    /// torn-down in-flight one (`Outcome::Cancelled`).
    fn send(&self, request: Request, mode: SubmitMode) -> Result<(u64, NetTicket), SubmitError> {
        let shared = &self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return Err(SubmitError::Closed(Box::new(request)));
        }
        let corr = shared.next_corr.fetch_add(1, Ordering::Relaxed);
        let cell = NetCell::new();
        shared
            .pending
            .lock()
            .unwrap()
            .insert(corr, Arc::clone(&cell));
        let decision = Decision::new();
        shared
            .decisions
            .lock()
            .unwrap()
            .insert(corr, Arc::clone(&decision));
        // Re-check after registering: the reader may have torn down and
        // drained the maps between our first check and the inserts.
        if shared.closed.load(Ordering::SeqCst) {
            shared.pending.lock().unwrap().remove(&corr);
            shared.decisions.lock().unwrap().remove(&corr);
            return Err(SubmitError::Closed(Box::new(request)));
        }
        let payload = proto::encode_submit(corr, mode, &request);
        let wrote = {
            let mut writer = shared.writer.lock().unwrap();
            proto::write_frame(&mut *writer, FrameKind::Submit, &payload)
        };
        if wrote.is_err() {
            shared.pending.lock().unwrap().remove(&corr);
            shared.decisions.lock().unwrap().remove(&corr);
            shared.tear_down(Some("write failed: connection lost".into()));
            return Err(SubmitError::Closed(Box::new(request)));
        }
        // Block-mode backpressure propagates through this wait: the server
        // only acks once the queue admits the request.
        match decision.wait() {
            Ok(()) => Ok((corr, NetTicket { cell })),
            Err(NackReason::Full) => {
                shared.pending.lock().unwrap().remove(&corr);
                Err(SubmitError::Full(Box::new(request)))
            }
            Err(NackReason::Closed) => {
                shared.pending.lock().unwrap().remove(&corr);
                Err(SubmitError::Closed(Box::new(request)))
            }
        }
    }

    /// One control-plane round trip: register the reply cell, write the
    /// frame, wait (bounded). A timeout deregisters the cell, so a late
    /// reply is dropped instead of resolving into the void.
    fn control(
        &self,
        kind: FrameKind,
        payload: impl FnOnce(u64) -> Vec<u8>,
        timeout: Duration,
    ) -> io::Result<ControlReply> {
        let shared = &self.shared;
        let closed = || io::Error::new(io::ErrorKind::NotConnected, "connection closed");
        if shared.closed.load(Ordering::SeqCst) {
            return Err(closed());
        }
        let corr = shared.next_corr.fetch_add(1, Ordering::Relaxed);
        let cell = ControlCell::new();
        shared
            .control
            .lock()
            .unwrap()
            .insert(corr, Arc::clone(&cell));
        if shared.closed.load(Ordering::SeqCst) {
            shared.control.lock().unwrap().remove(&corr);
            return Err(closed());
        }
        let payload = payload(corr);
        let wrote = {
            let mut writer = shared.writer.lock().unwrap();
            proto::write_frame(&mut *writer, kind, &payload)
        };
        if wrote.is_err() {
            shared.control.lock().unwrap().remove(&corr);
            shared.tear_down(Some("write failed: connection lost".into()));
            return Err(closed());
        }
        match cell.wait_timeout(timeout) {
            Some(Ok(reply)) => Ok(reply),
            Some(Err(message)) => Err(io::Error::new(io::ErrorKind::NotConnected, message)),
            None => {
                shared.control.lock().unwrap().remove(&corr);
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "control reply timed out",
                ))
            }
        }
    }

    /// Health probe: sends `Ping`, returns the server's submission-queue
    /// depth from the matching `Pong`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when no reply lands within `timeout`;
    /// [`io::ErrorKind::NotConnected`] on a dead connection.
    pub fn ping(&self, timeout: Duration) -> io::Result<u32> {
        match self.control(FrameKind::Ping, proto::encode_ping, timeout)? {
            ControlReply::Pong(depth) => Ok(depth),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mismatched control reply to Ping",
            )),
        }
    }

    /// Pushes a [`pe_runtime::ParamStore`] snapshot to the server, which
    /// restores it and confirms with an `Ack`. The caller is responsible
    /// for quiescing its own submissions around the push.
    ///
    /// # Errors
    ///
    /// A refused restore (incompatible snapshot, store-less server) kills
    /// the connection server-side and surfaces here as
    /// [`io::ErrorKind::NotConnected`]; timeouts as
    /// [`io::ErrorKind::TimedOut`].
    pub fn push_checkpoint(&self, snapshot: &[u8], timeout: Duration) -> io::Result<()> {
        let reply = self.control(
            FrameKind::Checkpoint,
            |corr| proto::encode_checkpoint(corr, snapshot),
            timeout,
        )?;
        match reply {
            ControlReply::Ack => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mismatched control reply to Checkpoint",
            )),
        }
    }

    /// Fetches the server's current parameter snapshot (a `SnapshotReq`
    /// answered with a `Checkpoint` frame).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when no reply lands within `timeout`;
    /// [`io::ErrorKind::NotConnected`] on a dead connection.
    pub fn fetch_snapshot(&self, timeout: Duration) -> io::Result<Vec<u8>> {
        match self.control(FrameKind::SnapshotReq, proto::encode_snapshot_req, timeout)? {
            ControlReply::Snapshot(bytes) => Ok(bytes),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mismatched control reply to SnapshotReq",
            )),
        }
    }
}

impl Submit for Client {
    type Handle = NetTicket;

    fn submit(&self, request: Request) -> Result<NetTicket, SubmitError> {
        self.send(request, SubmitMode::Block).map(|(_, t)| t)
    }

    fn try_submit(&self, request: Request) -> Result<NetTicket, SubmitError> {
        self.send(request, SubmitMode::Try).map(|(_, t)| t)
    }
}

/// Drains frames off the socket until the connection dies, resolving
/// tickets and decisions; on exit — EOF, I/O error, protocol violation or
/// a server `Error` frame — tears the connection down so nothing hangs.
fn reader_loop(shared: Arc<ClientShared>, mut stream: TcpStream) {
    let reason = loop {
        let frame = match proto::read_frame(&mut stream, shared.max_frame) {
            Ok(frame) => frame,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break None,
            Err(e) => break Some(format!("read failed: {e}")),
        };
        match FrameKind::from_u8(frame.kind) {
            Some(FrameKind::Outcome) => match proto::decode_outcome(&frame.payload) {
                Ok((corr, result)) => {
                    let cell = shared.pending.lock().unwrap().remove(&corr);
                    if let Some(cell) = cell {
                        cell.fulfill(result);
                    }
                }
                Err(e) => break Some(e.to_string()),
            },
            Some(FrameKind::Ack) => match proto::decode_ack(&frame.payload) {
                Ok(corr) => {
                    let decision = shared.decisions.lock().unwrap().remove(&corr);
                    if let Some(decision) = decision {
                        decision.decide(Ok(()));
                    } else {
                        // An Ack may also confirm a pushed checkpoint.
                        let cell = shared.control.lock().unwrap().remove(&corr);
                        if let Some(cell) = cell {
                            cell.resolve(Ok(ControlReply::Ack));
                        }
                    }
                }
                Err(e) => break Some(e.to_string()),
            },
            Some(FrameKind::Pong) => match proto::decode_pong(&frame.payload) {
                Ok((corr, depth)) => {
                    let cell = shared.control.lock().unwrap().remove(&corr);
                    if let Some(cell) = cell {
                        cell.resolve(Ok(ControlReply::Pong(depth)));
                    }
                }
                Err(e) => break Some(e.to_string()),
            },
            Some(FrameKind::Checkpoint) => match proto::decode_checkpoint(&frame.payload) {
                Ok((corr, bytes)) => {
                    let cell = shared.control.lock().unwrap().remove(&corr);
                    if let Some(cell) = cell {
                        cell.resolve(Ok(ControlReply::Snapshot(bytes)));
                    }
                }
                Err(e) => break Some(e.to_string()),
            },
            Some(FrameKind::Nack) => match proto::decode_nack(&frame.payload) {
                Ok((corr, reason)) => {
                    let decision = shared.decisions.lock().unwrap().remove(&corr);
                    match decision {
                        Some(decision) => decision.decide(Err(reason)),
                        None => {
                            // Both modes register a decision, so this is a
                            // misbehaving server (duplicate or uncorrelated
                            // Nack). If a handle is somehow out, cancel it
                            // rather than leave it hanging.
                            let cell = shared.pending.lock().unwrap().remove(&corr);
                            if let Some(cell) = cell {
                                cell.fulfill(Ok(Outcome::Cancelled));
                            }
                        }
                    }
                }
                Err(e) => break Some(e.to_string()),
            },
            Some(FrameKind::Error) => {
                let message = proto::decode_error(&frame.payload)
                    .unwrap_or_else(|_| "unreadable server error".into());
                break Some(format!("server error: {message}"));
            }
            _ => break Some(format!("unexpected frame kind {}", frame.kind)),
        }
    };
    shared.tear_down(reason);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_ticket_resolves_through_the_cell() {
        let cell = NetCell::new();
        let mut ticket = NetTicket {
            cell: Arc::clone(&cell),
        };
        assert!(!ticket.is_ready());
        assert!(ticket.try_take().is_none());
        cell.fulfill(Ok(Outcome::Cancelled));
        assert!(ticket.is_ready());
        assert!(matches!(ticket.try_take(), Some(Ok(Outcome::Cancelled))));
        assert!(ticket.try_take().is_none(), "take is one-shot");
    }

    #[test]
    fn decisions_are_first_writer_wins() {
        let decision = Decision::new();
        decision.decide(Err(NackReason::Full));
        decision.decide(Ok(()));
        assert_eq!(decision.wait(), Err(NackReason::Full));
    }
}
