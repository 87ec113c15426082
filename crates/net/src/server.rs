//! The TCP server: an accept loop over an [`AsyncEngine`], thread-per-
//! connection readers feeding cloned [`Submitter`]s, and a per-connection
//! writer that streams `Outcome` frames back **in completion order**
//! (driven by [`TicketNotify`], not submission order).
//!
//! # Fault containment
//!
//! A connection's failures stay on that connection:
//!
//! * a malformed frame, an oversized length prefix, an unknown frame kind
//!   or a handshake violation draws one `Error` frame and a close;
//! * an abrupt client disconnect mid-burst simply ends the reader; the
//!   writer drops the orphaned tickets (the engine still serves them into
//!   the void — results are small) and exits;
//! * a slow reader is bounded by the write timeout: when the client's
//!   receive window stays full past [`ServerConfig::write_timeout`], the
//!   connection is severed.
//!
//! None of these wedge the accept loop, the submission queue or any other
//! connection. The engine never learns the connection existed.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pe_runtime::ParamStore;
use pockengine::{AsyncEngine, Engine, Submit, SubmitError, Submitter, Ticket, TicketNotify};

use crate::client::max_frame_from;
use crate::env::{env_value, parse_var, EnvError};
use crate::proto::{self, Frame, FrameKind, NackReason, SubmitMode, DEFAULT_MAX_FRAME_BYTES};

/// Server tuning knobs; [`ServerConfig::from_env`] reads the documented
/// environment variables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`PE_SERVER_ADDR`, default `127.0.0.1:0` — an
    /// ephemeral loopback port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Maximum frame length in bytes (`PE_NET_MAX_FRAME`, default 8 MiB).
    /// Enforced on the declared length *before* any allocation.
    pub max_frame: usize,
    /// Maximum simultaneous connections (`PE_NET_MAX_CONNS`, default 64).
    /// Excess connections are refused with an `Error` frame.
    pub max_connections: usize,
    /// How long one blocked socket write may stall before the connection
    /// is severed (`PE_NET_WRITE_TIMEOUT_MS`, default 5000). This is the
    /// slow-reader bound.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_FRAME_BYTES,
            max_connections: 64,
            write_timeout: Duration::from_millis(5000),
        }
    }
}

impl ServerConfig {
    /// Reads every knob from its environment variable, using the default
    /// for an unset one.
    ///
    /// # Errors
    ///
    /// [`EnvError`] naming the first variable set to a value that does not
    /// parse.
    pub fn from_env() -> Result<ServerConfig, EnvError> {
        ServerConfig::from_vars(env_value)
    }

    /// [`ServerConfig::from_env`] over `lookup`, which returns a
    /// variable's value or `None` when it is unset.
    ///
    /// # Errors
    ///
    /// As [`ServerConfig::from_env`].
    pub(crate) fn from_vars(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<ServerConfig, EnvError> {
        let default = ServerConfig::default();
        let write_timeout_ms = parse_var(
            "PE_NET_WRITE_TIMEOUT_MS",
            lookup("PE_NET_WRITE_TIMEOUT_MS").as_deref(),
            default.write_timeout.as_millis() as u64,
            "a timeout in milliseconds",
        )?;
        Ok(ServerConfig {
            addr: lookup("PE_SERVER_ADDR").unwrap_or(default.addr),
            max_frame: max_frame_from(lookup("PE_NET_MAX_FRAME").as_deref())?,
            max_connections: parse_var(
                "PE_NET_MAX_CONNS",
                lookup("PE_NET_MAX_CONNS").as_deref(),
                default.max_connections,
                "a connection count",
            )?,
            write_timeout: Duration::from_millis(write_timeout_ms),
        })
    }
}

/// What the per-connection reader hands the writer.
enum Cmd {
    /// A submission was admitted into the queue: send the `Ack` frame,
    /// then stream the outcome when ready.
    Track { corr: u64, ticket: Ticket },
    /// One encoded answer the reader produced itself: a `Nack`, a `Pong`,
    /// a checkpoint's `Ack` or a snapshot's `Checkpoint` frame.
    Reply { kind: FrameKind, payload: Vec<u8> },
    /// The reader hit a protocol violation: send one `Error` frame, then
    /// sever the connection.
    Fatal(String),
    /// The reader saw a clean EOF or an I/O error: sever without a frame.
    Hangup,
}

struct Conn {
    commands: Mutex<VecDeque<Cmd>>,
    notify: Arc<TicketNotify>,
}

impl Conn {
    fn push(&self, cmd: Cmd) {
        self.commands.lock().unwrap().push_back(cmd);
        self.notify.notify();
    }

    fn reply(&self, kind: FrameKind, payload: Vec<u8>) {
        self.push(Cmd::Reply { kind, payload });
    }

    fn nack(&self, corr: u64, reason: NackReason) {
        self.reply(FrameKind::Nack, proto::encode_nack(corr, reason));
    }

    /// Answers a `Ping` with the queue depth sampled now.
    fn pong(&self, state: &ServerState, payload: &[u8]) -> Result<(), proto::ProtoError> {
        let corr = proto::decode_ack(payload)?;
        let depth = state.submitter.len().min(u32::MAX as usize) as u32;
        self.reply(FrameKind::Pong, proto::encode_pong(corr, depth));
        Ok(())
    }
}

/// Frames read off the socket during a block-mode stall, replayed in order
/// before fresh bytes are read, and the memory they hold.
#[derive(Default)]
struct Deferred {
    frames: VecDeque<Frame>,
    bytes: usize,
}

impl Deferred {
    fn held(frame: &Frame) -> usize {
        std::mem::size_of::<Frame>() + frame.payload.len()
    }

    fn push(&mut self, frame: Frame) {
        self.bytes += Deferred::held(&frame);
        self.frames.push_back(frame);
    }

    fn pop(&mut self) -> Option<Frame> {
        let frame = self.frames.pop_front()?;
        self.bytes -= Deferred::held(&frame);
        Some(frame)
    }
}

struct ServerState {
    submitter: Submitter,
    /// The parameter store behind the submitter, if this listener fronts
    /// one engine directly. `Checkpoint` / `SnapshotReq` frames are served
    /// from it; a store-less listener (a balancer front door) refuses them.
    store: Option<Arc<ParamStore>>,
    config: ServerConfig,
    shutting_down: AtomicBool,
    /// Live connection sockets, keyed by a monotonic id — shutdown severs
    /// them all so connection threads unblock and exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The reusable wire-protocol front end: a listener, the accept loop and
/// every connection thread, feeding an arbitrary [`Submitter`]. This is
/// the machinery [`Server`] wraps around an in-process [`AsyncEngine`] and
/// `pe_fleet`'s balancer wraps around its routing queue — both speak the
/// identical protocol because both *are* this type.
///
/// `ServerCore` does not own whatever drains the submitter; dropping it
/// stops the listener and severs connections, nothing more.
pub struct ServerCore {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl ServerCore {
    /// Binds the listener and starts the accept loop feeding `submitter`.
    /// With a `store`, `Checkpoint` frames restore into it (then `Ack`)
    /// and `SnapshotReq` frames answer with its snapshot; without one,
    /// both draw an `Error` frame.
    ///
    /// # Errors
    ///
    /// Bind failures pass through.
    pub fn spawn(
        submitter: Submitter,
        store: Option<Arc<ParamStore>>,
        config: ServerConfig,
    ) -> io::Result<ServerCore> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            submitter,
            store,
            config,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("pe-net-accept".into())
            .spawn(move || accept_loop(listener, accept_state))
            .expect("spawn accept loop");
        Ok(ServerCore {
            state,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port of the default
    /// `127.0.0.1:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, severs every connection and joins all connection
    /// threads. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway self-connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        let conns: Vec<_> = self.state.conns.lock().unwrap().drain().collect();
        for (_, stream) in conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = std::mem::take(&mut *self.state.conn_threads.lock().unwrap());
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The network front door: owns the engine, the listener and every
/// connection thread. Dropping without [`Server::shutdown`] also shuts
/// down cleanly (the engine drains via [`AsyncEngine`]'s own drop).
#[derive(Debug)]
pub struct Server {
    // Declared before `engine` so drop severs connections first, then
    // drains the engine — the same order `shutdown` uses.
    core: ServerCore,
    engine: Option<AsyncEngine>,
}

impl Server {
    /// Binds the listener and starts the accept loop over `engine`.
    ///
    /// # Errors
    ///
    /// Bind failures pass through.
    pub fn spawn(engine: AsyncEngine, config: ServerConfig) -> io::Result<Server> {
        let core = ServerCore::spawn(engine.submitter(), Some(engine.param_store()), config)?;
        Ok(Server {
            core,
            engine: Some(engine),
        })
    }

    /// The bound address (resolves the ephemeral port of the default
    /// `127.0.0.1:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// Stops accepting, severs every connection, joins all threads and
    /// drains the engine, returning it for inspection.
    pub fn shutdown(mut self) -> Engine {
        self.core.stop();
        let engine = self.engine.take().expect("engine present until shutdown");
        engine.shutdown()
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if state.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept failure (EMFILE, say) must back off,
                // not spin hot on this core.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Reap finished connection threads so churn over a long-lived
        // server doesn't grow the handle list without bound.
        state
            .conn_threads
            .lock()
            .unwrap()
            .retain(|handle| !handle.is_finished());
        let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = state.conns.lock().unwrap();
            if conns.len() >= state.config.max_connections {
                drop(conns);
                refuse(stream, "connection limit reached");
                continue;
            }
            // A connection that cannot be registered would be invisible to
            // shutdown() and uncounted by the limit — refuse it instead.
            match stream.try_clone() {
                Ok(clone) => conns.insert(conn_id, clone),
                Err(_) => {
                    drop(conns);
                    refuse(stream, "connection setup failed");
                    continue;
                }
            };
        }
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("pe-net-conn-{conn_id}"))
            .spawn(move || {
                let _slot = SlotGuard {
                    state: conn_state.clone(),
                    conn_id,
                };
                serve_connection(stream, conn_id, conn_state);
            })
            .expect("spawn connection thread");
        state.conn_threads.lock().unwrap().push(handle);
    }
}

/// Frees a connection's `conns` slot when its thread ends — by drop, so a
/// panic anywhere in `serve_connection` cannot leak the slot (a leaked
/// slot counts toward `max_connections` forever).
struct SlotGuard {
    state: Arc<ServerState>,
    conn_id: u64,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        // Ignore a poisoned lock rather than double-panic while unwinding.
        if let Ok(mut conns) = self.state.conns.lock() {
            conns.remove(&self.conn_id);
        }
    }
}

/// Best-effort `Error` frame + close, for peers refused before the
/// connection gets a writer thread.
fn refuse(mut stream: TcpStream, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = proto::write_frame(&mut stream, FrameKind::Error, &proto::encode_error(message));
    let _ = stream.shutdown(Shutdown::Both);
}

/// Runs one connection: version handshake, then this thread reads frames
/// while a companion writer thread streams resolutions back.
fn serve_connection(mut stream: TcpStream, conn_id: u64, state: Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    // The handshake is bounded: a silent peer may not hold the slot.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    match handshake(&mut stream, &state) {
        Ok(()) => {}
        Err(message) => {
            refuse(stream, &message);
            return;
        }
    }
    let _ = stream.set_read_timeout(None);

    let conn = Arc::new(Conn {
        commands: Mutex::new(VecDeque::new()),
        notify: Arc::new(TicketNotify::new()),
    });
    let writer_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let _ = writer_stream.set_write_timeout(Some(state.config.write_timeout));
    let writer_conn = Arc::clone(&conn);
    let writer = std::thread::Builder::new()
        .name(format!("pe-net-conn-{conn_id}-writer"))
        .spawn(move || writer_loop(writer_stream, writer_conn))
        .expect("spawn connection writer");

    read_loop(&mut stream, &state, &conn);

    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

fn handshake(stream: &mut TcpStream, state: &ServerState) -> Result<(), String> {
    let frame = proto::read_frame(stream, state.config.max_frame)
        .map_err(|e| format!("handshake read failed: {e}"))?;
    if FrameKind::from_u8(frame.kind) != Some(FrameKind::Hello) {
        return Err(format!(
            "expected a Hello frame, got frame kind {}",
            frame.kind
        ));
    }
    proto::decode_hello(&frame.payload).map_err(|e| e.to_string())?;
    proto::write_frame(stream, FrameKind::HelloAck, &proto::encode_hello_ack())
        .map_err(|e| format!("handshake write failed: {e}"))
}

/// Decodes `Submit` frames and feeds the queue until the connection dies.
/// Every admitted submission is `Ack`ed (the client's `submit` returns on
/// it); a block-mode submission against a full queue delays its `Ack`, so
/// backpressure propagates to the submitting client — but the reader does
/// not go deaf while it waits: control frames (a balancer's health `Ping`)
/// are still answered, and other frames read during the stall are deferred
/// in arrival order (see [`block_submit`]).
fn read_loop(stream: &mut TcpStream, state: &ServerState, conn: &Conn) {
    let mut deferred = Deferred::default();
    loop {
        let frame = if let Some(frame) = deferred.pop() {
            frame
        } else {
            match proto::read_frame(stream, state.config.max_frame) {
                Ok(frame) => frame,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    conn.push(Cmd::Hangup);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    conn.push(Cmd::Fatal(e.to_string()));
                    return;
                }
                Err(_) => {
                    conn.push(Cmd::Hangup);
                    return;
                }
            }
        };
        match FrameKind::from_u8(frame.kind) {
            Some(FrameKind::Submit) => {}
            Some(FrameKind::Ping) => {
                if let Err(e) = conn.pong(state, &frame.payload) {
                    conn.push(Cmd::Fatal(e.to_string()));
                    return;
                }
                continue;
            }
            Some(FrameKind::Checkpoint) => {
                let (corr, bytes) = match proto::decode_checkpoint(&frame.payload) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        conn.push(Cmd::Fatal(e.to_string()));
                        return;
                    }
                };
                let Some(store) = &state.store else {
                    conn.push(Cmd::Fatal(
                        "this listener fronts no parameter store (checkpoints \
                         go to workers, not the balancer)"
                            .to_string(),
                    ));
                    return;
                };
                // Restores run inline on the reader: the sender has already
                // quiesced its submissions (a checkpoint between a train
                // fence and the next eval), and the store's exclusive guard
                // orders the restore against any stragglers anyway.
                match store.restore(bytes) {
                    Ok(()) => conn.reply(FrameKind::Ack, proto::encode_ack(corr)),
                    Err(e) => {
                        conn.push(Cmd::Fatal(e.to_string()));
                        return;
                    }
                }
                continue;
            }
            Some(FrameKind::SnapshotReq) => {
                let corr = match proto::decode_ack(&frame.payload) {
                    Ok(corr) => corr,
                    Err(e) => {
                        conn.push(Cmd::Fatal(e.to_string()));
                        return;
                    }
                };
                let Some(store) = &state.store else {
                    conn.push(Cmd::Fatal(
                        "this listener fronts no parameter store (snapshots \
                         come from workers, not the balancer)"
                            .to_string(),
                    ));
                    return;
                };
                let snapshot = proto::encode_checkpoint(corr, &store.snapshot());
                conn.reply(FrameKind::Checkpoint, snapshot);
                continue;
            }
            _ => {
                conn.push(Cmd::Fatal(format!(
                    "unexpected frame kind {} (expected Submit, Ping, Checkpoint \
                     or SnapshotReq after the handshake)",
                    frame.kind
                )));
                return;
            }
        }
        let (corr, mode, request) = match proto::decode_submit(&frame.payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                conn.push(Cmd::Fatal(e.to_string()));
                return;
            }
        };
        match mode {
            SubmitMode::Block => {
                if !block_submit(stream, state, conn, corr, request, &mut deferred) {
                    return;
                }
            }
            SubmitMode::Try => match state.submitter.try_submit(request) {
                Ok(ticket) => track(conn, corr, ticket),
                Err(SubmitError::Full(_)) => conn.nack(corr, NackReason::Full),
                Err(SubmitError::Closed(_)) => conn.nack(corr, NackReason::Closed),
            },
        }
    }
}

/// How long one bounded queue wait runs before the socket is polled while
/// a block-mode submission is stalled on a full queue. Admission itself is
/// condvar-driven inside [`Submitter::submit_for`], so room opening
/// mid-wait admits immediately — this bounds only the worst-case `Ping`
/// answer latency during a stall.
const BLOCK_POLL: Duration = Duration::from_millis(10);

/// How long one socket poll waits for bytes between bounded queue waits.
const BLOCK_PEEK: Duration = Duration::from_millis(1);

/// Admits a block-mode submission, waiting out a full queue **without
/// going deaf**: bounded condvar waits on the queue alternate with socket
/// polls, so arriving `Ping` frames are answered promptly and any other
/// frame is deferred (replayed in order once the submission lands).
/// Without this, a saturated-but-healthy worker would stop answering its
/// balancer's health probe and be marked down — severing the connection
/// and re-homing all its in-flight evals, a load-induced mark-down
/// cascade.
///
/// Deferral is bounded whatever the peer sends: once the deferred frames
/// hold `max_frame` bytes, the reader stops reading the socket and only
/// waits on the queue, so TCP flow control throttles the sender. (A
/// well-behaved blocking client never gets near the bound: it waits for
/// the `Ack` before pipelining more.) Pings behind a full deferral wait
/// with everything else until the submission lands.
///
/// Returns `false` when the connection must close.
fn block_submit(
    stream: &mut TcpStream,
    state: &ServerState,
    conn: &Conn,
    corr: u64,
    request: pockengine::pe_data::serving::Request,
    deferred: &mut Deferred,
) -> bool {
    let mut request = request;
    loop {
        match state.submitter.submit_for(request, BLOCK_POLL) {
            Ok(ticket) => {
                track(conn, corr, ticket);
                return true;
            }
            Err(SubmitError::Closed(_)) => {
                conn.nack(corr, NackReason::Closed);
                return true;
            }
            Err(SubmitError::Full(r)) => request = *r,
        }
        if deferred.bytes >= state.config.max_frame {
            // Not reading, the reader cannot see its socket severed:
            // shutdown is its cue to give up on an undrained queue.
            if state.shutting_down.load(Ordering::SeqCst) {
                conn.push(Cmd::Hangup);
                return false;
            }
            continue;
        }
        match try_read_frame(stream, state.config.max_frame, BLOCK_PEEK) {
            Ok(None) => {} // No bytes yet; retry the submission.
            Ok(Some(frame)) => {
                if FrameKind::from_u8(frame.kind) != Some(FrameKind::Ping) {
                    deferred.push(frame);
                } else if let Err(e) = conn.pong(state, &frame.payload) {
                    conn.push(Cmd::Fatal(e.to_string()));
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                conn.push(Cmd::Hangup);
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                conn.push(Cmd::Fatal(e.to_string()));
                return false;
            }
            Err(_) => {
                conn.push(Cmd::Hangup);
                return false;
            }
        }
    }
}

/// Waits up to `wait` for the *first byte* of a frame (via `peek`, so
/// nothing is consumed), then reads the whole frame in blocking mode —
/// a poll timeout can therefore never land mid-frame and corrupt framing.
/// Returns `Ok(None)` when no byte arrived within the window. Always
/// restores the stream to blocking reads.
fn try_read_frame(
    stream: &mut TcpStream,
    max_frame: usize,
    wait: Duration,
) -> io::Result<Option<Frame>> {
    stream.set_read_timeout(Some(wait))?;
    let arrived = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
        Ok(_) => Ok(true),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    };
    let restore = stream.set_read_timeout(None);
    match arrived? {
        true => {
            restore?;
            proto::read_frame(stream, max_frame).map(Some)
        }
        false => {
            restore?;
            Ok(None)
        }
    }
}

fn track(conn: &Conn, corr: u64, ticket: Ticket) {
    // Watch before handing over: resolution from here on pokes the
    // writer's notify, including the already-resolved case.
    ticket.watch(Arc::clone(&conn.notify));
    conn.push(Cmd::Track { corr, ticket });
}

/// Streams `Ack`/`Nack`/`Outcome` frames in completion order. Sleeps on
/// the shared [`TicketNotify`] between bursts — one condvar covers every
/// in-flight ticket of the connection, so resolutions wake it exactly
/// when there is something to write.
fn writer_loop(mut stream: TcpStream, conn: Arc<Conn>) {
    let mut pending: Vec<(u64, Ticket)> = Vec::new();
    let mut seen = conn.notify.generation();
    loop {
        let drained: Vec<Cmd> = conn.commands.lock().unwrap().drain(..).collect();
        for cmd in drained {
            let (kind, payload) = match cmd {
                Cmd::Track { corr, ticket } => {
                    pending.push((corr, ticket));
                    (FrameKind::Ack, proto::encode_ack(corr))
                }
                Cmd::Reply { kind, payload } => (kind, payload),
                Cmd::Fatal(message) => {
                    let _ = proto::write_frame(
                        &mut stream,
                        FrameKind::Error,
                        &proto::encode_error(&message),
                    );
                    sever(&stream);
                    return;
                }
                Cmd::Hangup => {
                    sever(&stream);
                    return;
                }
            };
            if !write_or_sever(&mut stream, kind, &payload) {
                return;
            }
        }
        // Stream every resolved ticket, preserving arrival order among
        // the ready (completion order overall).
        let mut i = 0;
        while i < pending.len() {
            if pending[i].1.is_ready() {
                let (corr, mut ticket) = pending.remove(i);
                let result = ticket
                    .try_take()
                    .expect("ready ticket yields a result exactly once");
                let payload = proto::encode_outcome(corr, &result);
                if !write_or_sever(&mut stream, FrameKind::Outcome, &payload) {
                    return;
                }
            } else {
                i += 1;
            }
        }
        seen = conn.notify.wait(seen, Duration::from_millis(50));
    }
}

/// Writes one frame, severing the connection when the write fails.
/// Returns whether the frame was written.
fn write_or_sever(stream: &mut TcpStream, kind: FrameKind, payload: &[u8]) -> bool {
    let wrote = proto::write_frame(stream, kind, payload).is_ok();
    if !wrote {
        sever(stream);
    }
    wrote
}

/// Severs both directions so the companion reader thread unblocks too.
fn sever(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(vars: &[(&str, &str)]) -> Result<ServerConfig, EnvError> {
        ServerConfig::from_vars(|name| {
            let found = vars.iter().find(|(var, _)| *var == name);
            found.map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn knobs_default_when_unset_parse_when_set_and_name_a_bad_value() {
        let unset = config(&[]).unwrap();
        assert_eq!(
            unset.max_connections,
            ServerConfig::default().max_connections
        );
        let set = config(&[
            ("PE_NET_MAX_FRAME", "4096"),
            ("PE_NET_WRITE_TIMEOUT_MS", "250"),
        ]);
        let set = set.unwrap();
        assert_eq!(set.max_frame, 4096);
        assert_eq!(set.write_timeout, Duration::from_millis(250));
        for var in [
            "PE_NET_MAX_FRAME",
            "PE_NET_MAX_CONNS",
            "PE_NET_WRITE_TIMEOUT_MS",
        ] {
            let err = config(&[(var, "-1")]).unwrap_err();
            assert_eq!((err.var.as_str(), err.value.as_str()), (var, "-1"));
        }
    }
}
