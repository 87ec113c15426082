//! The TCP client: [`Client`] implements [`Submit`] over the wire
//! protocol, so code written against the trait runs unchanged whether the
//! engine is in-process or behind a socket.
//!
//! One background reader thread per connection correlates `Outcome`,
//! `Ack` and `Nack` frames back to their submissions by correlation id and
//! resolves the matching [`Ticket`]s. The client is cheaply cloneable —
//! clones share the connection — and any clone may submit from any thread;
//! frame writes are serialized by a mutex.
//!
//! **Disconnect guarantee:** when the connection dies for any reason —
//! server shutdown, an `Error` frame, an abrupt TCP reset — every
//! outstanding [`Ticket`] resolves as [`Outcome::Cancelled`] and every
//! in-flight admission decision (either mode) resolves as
//! [`SubmitError::Closed`] with the request handed back. Nothing hangs:
//! teardown drops every waiter the connection still owes an answer, and a
//! dropped [`Resolver`] cancels its ticket while a dropped reply sender
//! fails its receiver.
//!
//! [`Outcome::Cancelled`]: pockengine::Outcome::Cancelled

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pockengine::{Resolver, Submit, SubmitError, Ticket};

use pe_data::serving::Request;

use crate::env::{env_value, parse_var, EnvError};
use crate::proto::{
    self, FrameKind, NackReason, SubmitMode, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// Reads `PE_NET_MAX_FRAME` (bytes), falling back to
/// `DEFAULT_MAX_FRAME_BYTES` when unset.
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

/// What a control-plane round trip resolved to.
enum ControlReply {
    /// `Pong`: the server's queue depth at probe time.
    Pong(u32),
    /// `Ack`: a pushed checkpoint was restored.
    Ack,
    /// `Checkpoint` answering a `SnapshotReq`: the store's snapshot bytes.
    Snapshot(Vec<u8>),
}

/// Everything the connection still owes an answer, by correlation id.
/// Dropping an entry answers it: a dropped [`Resolver`] cancels its ticket,
/// a dropped sender makes its receiver fail.
#[derive(Default)]
struct Waiters {
    /// Admitted (or awaiting admission) submissions' tickets.
    tickets: HashMap<u64, Resolver>,
    /// Submissions awaiting their `Ack`/`Nack` verdict.
    verdicts: HashMap<u64, SyncSender<Result<(), NackReason>>>,
    /// Control-plane round trips (ping / checkpoint push / snapshot fetch).
    replies: HashMap<u64, SyncSender<ControlReply>>,
}

struct ClientShared {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    waiters: Mutex<Waiters>,
    next_corr: AtomicU64,
    /// Set under the `waiters` lock, so nothing registers after teardown.
    closed: AtomicBool,
    max_frame: usize,
    /// User-facing `Client` clones (the reader thread holds its own `Arc`
    /// but is not a user): when the count hits zero the connection closes,
    /// which also lets the reader thread exit.
    users: AtomicUsize,
}

impl ClientShared {
    /// Marks the connection dead and drops every waiter: pending tickets
    /// resolve `Cancelled`, pending verdicts and control replies see their
    /// sender gone. Safe to call more than once.
    fn tear_down(&self) {
        let waiters = {
            let mut waiters = self.waiters.lock().unwrap();
            self.closed.store(true, Ordering::SeqCst);
            std::mem::take(&mut *waiters)
        };
        drop(waiters);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Registers waiters under the next correlation id, unless the
    /// connection is already torn down (`None`).
    fn register(&self, add: impl FnOnce(u64, &mut Waiters)) -> Option<u64> {
        let mut waiters = self.waiters.lock().unwrap();
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        add(corr, &mut waiters);
        Some(corr)
    }

    /// Writes one frame; a failed write tears the connection down.
    fn write(&self, kind: FrameKind, payload: &[u8]) -> bool {
        let wrote = proto::write_frame(&mut *self.writer.lock().unwrap(), kind, payload);
        if wrote.is_err() {
            self.tear_down();
        }
        wrote.is_ok()
    }

    /// Hands a control reply to its waiter, if one is still registered.
    fn reply(&self, corr: u64, reply: ControlReply) {
        let waiter = self.waiters.lock().unwrap().replies.remove(&corr);
        if let Some(waiter) = waiter {
            let _ = waiter.send(reply);
        }
    }
}

/// A connection to a `pe-server`, speaking the versioned wire protocol.
///
/// Cloneable — clones share the connection and its reader thread, exactly
/// as [`pockengine::Submitter`] clones share the queue. Dropping the last
/// clone closes the connection: any tickets still outstanding resolve as
/// cancelled (nobody is left to redeem a served result over a readerless
/// socket).
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
            self.shared.tear_down();
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
            waiters: Mutex::new(Waiters::default()),
            next_corr: AtomicU64::new(1),
            closed: AtomicBool::new(false),
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

    /// The submission path shared by both modes: register the ticket's
    /// resolver and the verdict channel *before* the frame hits the wire
    /// (the verdict can race back), write the `Submit` frame, then wait for
    /// the server's `Ack`/`Nack`. A refused submission never hands out its
    /// ticket — the caller keeps the request on every failure, so a
    /// never-admitted request surfaces as `SubmitError`, distinct from a
    /// torn-down in-flight one (`Outcome::Cancelled`).
    fn send(&self, request: Request, mode: SubmitMode) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        let (verdict_tx, verdict) = sync_channel(1);
        let mut ticket = None;
        let registered = shared.register(|corr, waiters| {
            let (pending, resolver) = Ticket::pending(corr as usize);
            ticket = Some(pending);
            waiters.tickets.insert(corr, resolver);
            waiters.verdicts.insert(corr, verdict_tx);
        });
        let Some(corr) = registered else {
            return Err(SubmitError::Closed(Box::new(request)));
        };
        if !shared.write(
            FrameKind::Submit,
            &proto::encode_submit(corr, mode, &request),
        ) {
            return Err(SubmitError::Closed(Box::new(request)));
        }
        // Block-mode backpressure propagates through this wait: the server
        // only acks once the queue admits the request. A `Nack` (or a
        // teardown) has already dropped the ticket's resolver.
        match verdict.recv() {
            Ok(Ok(())) => Ok(ticket.expect("registered with the verdict")),
            Ok(Err(NackReason::Full)) => Err(SubmitError::Full(Box::new(request))),
            Ok(Err(NackReason::Closed)) | Err(_) => Err(SubmitError::Closed(Box::new(request))),
        }
    }

    /// One control-plane round trip: register the reply channel, write the
    /// frame, wait (bounded). A timeout deregisters the channel, so a late
    /// reply is dropped instead of resolving into the void.
    fn control(
        &self,
        kind: FrameKind,
        payload: impl FnOnce(u64) -> Vec<u8>,
        timeout: Duration,
    ) -> io::Result<ControlReply> {
        let shared = &self.shared;
        let closed = || io::Error::new(io::ErrorKind::NotConnected, "connection closed");
        let (reply_tx, reply) = sync_channel(1);
        let corr = shared
            .register(|corr, waiters| {
                waiters.replies.insert(corr, reply_tx);
            })
            .ok_or_else(closed)?;
        if !shared.write(kind, &payload(corr)) {
            return Err(closed());
        }
        match reply.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Disconnected) => Err(closed()),
            Err(RecvTimeoutError::Timeout) => {
                shared.waiters.lock().unwrap().replies.remove(&corr);
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
        match self.control(FrameKind::Ping, proto::encode_ack, timeout)? {
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
        match self.control(FrameKind::SnapshotReq, proto::encode_ack, timeout)? {
            ControlReply::Snapshot(bytes) => Ok(bytes),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mismatched control reply to SnapshotReq",
            )),
        }
    }
}

impl Submit for Client {
    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.send(request, SubmitMode::Block)
    }

    fn try_submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.send(request, SubmitMode::Try)
    }
}

/// Drains frames off the socket until the connection dies, resolving
/// tickets, verdicts and control replies; on exit — EOF, I/O error,
/// protocol violation or a server `Error` frame — tears the connection down
/// so nothing hangs.
fn reader_loop(shared: Arc<ClientShared>, mut stream: TcpStream) {
    while let Ok(frame) = proto::read_frame(&mut stream, shared.max_frame) {
        let payload = &frame.payload;
        let handled = match FrameKind::from_u8(frame.kind) {
            Some(FrameKind::Outcome) => proto::decode_outcome(payload).map(|(corr, result)| {
                let resolver = shared.waiters.lock().unwrap().tickets.remove(&corr);
                if let Some(resolver) = resolver {
                    resolver.fulfill(result);
                }
            }),
            Some(FrameKind::Ack) => proto::decode_ack(payload).map(|corr| {
                let verdict = shared.waiters.lock().unwrap().verdicts.remove(&corr);
                match verdict {
                    Some(verdict) => drop(verdict.send(Ok(()))),
                    // An Ack may also confirm a pushed checkpoint.
                    None => shared.reply(corr, ControlReply::Ack),
                }
            }),
            Some(FrameKind::Nack) => proto::decode_nack(payload).map(|(corr, reason)| {
                // A refused submission's ticket is never handed out: drop
                // its resolver with the verdict. A duplicate or
                // uncorrelated Nack finds no verdict, and cancels a ticket
                // that is somehow out rather than leave it hanging.
                let verdict = {
                    let mut waiters = shared.waiters.lock().unwrap();
                    waiters.tickets.remove(&corr);
                    waiters.verdicts.remove(&corr)
                };
                if let Some(verdict) = verdict {
                    let _ = verdict.send(Err(reason));
                }
            }),
            Some(FrameKind::Pong) => proto::decode_pong(payload)
                .map(|(corr, depth)| shared.reply(corr, ControlReply::Pong(depth))),
            Some(FrameKind::Checkpoint) => proto::decode_checkpoint(payload)
                .map(|(corr, bytes)| shared.reply(corr, ControlReply::Snapshot(bytes.to_vec()))),
            // A server `Error` frame, like any other frame kind, ends the
            // connection.
            _ => break,
        };
        if handled.is_err() {
            break;
        }
    }
    shared.tear_down();
}
