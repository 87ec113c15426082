//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame on the socket is `[len: u32 LE][kind: u8][payload]`, where
//! `len` counts the kind byte plus the payload. A reader enforces a maximum
//! frame length *before* allocating, so a malformed or hostile length
//! prefix cannot balloon memory — it errors out that one connection.
//!
//! Payload encodings use stable byte conventions: little-endian integers,
//! `f32` values as their IEEE-754 bit patterns (exact round trip — the
//! bit-identity proofs in `tests/tests/net_serving.rs` depend on it),
//! durations as `u64` nanoseconds, strings as `u32` length + UTF-8 bytes.
//!
//! # Frame vocabulary
//!
//! | kind | name       | direction | payload |
//! |------|------------|-----------|---------|
//! | 1    | `Hello`    | client → server | magic `PENW` + version `u16` |
//! | 2    | `HelloAck` | server → client | version `u16` |
//! | 3    | `Submit`   | client → server | corr `u64` + mode `u8` (0 block / 1 try) + request |
//! | 4    | `Outcome`  | server → client | corr `u64` + result |
//! | 5    | `Ack`      | server → client | corr `u64` (submission admitted to the queue) |
//! | 6    | `Nack`     | server → client | corr `u64` + reason `u8` (0 full / 1 closed) |
//! | 7    | `Error`    | either    | message string; the sender closes the connection after |
//! | 8    | `Ping`     | client → server | corr `u64` (health probe) |
//! | 9    | `Pong`     | server → client | corr `u64` + queue depth `u32` |
//! | 10   | `Checkpoint` | either  | corr `u64` + opaque `ParamStore` snapshot bytes |
//! | 11   | `SnapshotReq` | client → server | corr `u64` (answered with a `Checkpoint`) |
//!
//! `Ping`/`Pong` are the fleet balancer's health probes (any client may use
//! them — the server answers with its submission-queue depth). `Checkpoint`
//! carries a `pe_runtime::ParamStore` snapshot: sent *to* a server it is
//! applied to the serving engine's store and acknowledged with an `Ack`
//! carrying the same correlation id; sent *by* a server it answers a
//! `SnapshotReq`. A server not backed by a parameter store (the balancer's
//! own front door) refuses `Checkpoint`/`SnapshotReq` with an `Error`.
//!
//! # Version rules
//!
//! The client leads with `Hello` carrying [`PROTOCOL_MAGIC`] and
//! [`PROTOCOL_VERSION`]; the server answers `HelloAck` with its own version
//! only when magic and version match *exactly* (version 2 retired version
//! 1's executor-backend hint; version 3 retired the arrival stamp and added
//! exec-error tag 3, an out-of-range index; a future server may accept a
//! range). Any mismatch is answered with
//! an `Error` frame and a close — a client never talks payload frames to a
//! server that did not acknowledge its version.

use std::io::{Read, Write};
use std::time::Duration;

use pe_data::serving::{Priority, Request, RequestMeta, ServingKind};
use pe_runtime::ExecError;

/// Four magic bytes leading every `Hello`: "PockEngine Network Wire".
pub const PROTOCOL_MAGIC: [u8; 4] = *b"PENW";

/// The protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 3;

/// Default cap on one frame's length (kind byte + payload), 8 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Frame kinds (the `kind` byte after the length prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client handshake: magic + version.
    Hello = 1,
    /// Server handshake acknowledgement.
    HelloAck = 2,
    /// One request submission.
    Submit = 3,
    /// One resolved result, correlated by id.
    Outcome = 4,
    /// A submission was admitted into the queue.
    Ack = 5,
    /// A submission was refused (queue full or closed).
    Nack = 6,
    /// A fatal connection-level error; the sender closes after this.
    Error = 7,
    /// A health probe, answered with `Pong`.
    Ping = 8,
    /// The health-probe answer: correlation id + queue depth.
    Pong = 9,
    /// A `ParamStore` snapshot: applied when received by a server (then
    /// `Ack`ed), the answer to `SnapshotReq` when sent by one.
    Checkpoint = 10,
    /// Asks the server for a `Checkpoint` of its current parameters.
    SnapshotReq = 11,
}

impl FrameKind {
    /// Parses the kind byte.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        match byte {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::HelloAck),
            3 => Some(FrameKind::Submit),
            4 => Some(FrameKind::Outcome),
            5 => Some(FrameKind::Ack),
            6 => Some(FrameKind::Nack),
            7 => Some(FrameKind::Error),
            8 => Some(FrameKind::Ping),
            9 => Some(FrameKind::Pong),
            10 => Some(FrameKind::Checkpoint),
            11 => Some(FrameKind::SnapshotReq),
            _ => None,
        }
    }
}

/// Submission mode carried by a `Submit` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Backpressure mode: the server's blocking submit. The `Ack` is
    /// delayed until the queue admits the request, so a saturated queue
    /// stalls the submitting client, not just the socket.
    Block,
    /// Shedding mode: the server answers `Ack` (accepted) or `Nack`
    /// (full/closed) immediately after consulting the queue.
    Try,
}

/// Why a submission was refused (`Nack` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The submission queue is at capacity (try mode only).
    Full,
    /// The queue is closed: the engine behind the server shut down.
    Closed,
}

/// A malformed payload: decoding failed. Carried as the message of the
/// `Error` frame that kills the offending connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(message: impl Into<String>) -> ProtoError {
    ProtoError(message.into())
}

/// One decoded frame: the kind byte and the raw payload.
#[derive(Debug)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: u8,
    /// The payload bytes (everything after the kind byte).
    pub payload: Vec<u8>,
}

/// Writes one frame: `[len u32][kind][payload]` in a single buffer (one
/// syscall on an unbuffered socket, no partial-frame interleaving).
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() + 1;
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(kind as u8);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one frame, enforcing `max_frame` on the declared length before
/// allocating.
///
/// # Errors
///
/// I/O errors pass through; a length of zero or beyond `max_frame` is an
/// `InvalidData` error (the caller tears the connection down).
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> std::io::Result<Frame> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "zero-length frame",
        ));
    }
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let kind = body[0];
    body.remove(0);
    Ok(Frame {
        kind,
        payload: body,
    })
}

// ---------------------------------------------------------------------------
// Payload byte codec
// ---------------------------------------------------------------------------

/// Sequential reader over a payload with truncation checks.
struct Bytes<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Bytes<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bytes { data, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.data.len() - self.at < n {
            return Err(err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.data.len() - self.at
            )));
        }
        let slice = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32_bits(&mut self) -> Result<f32, ProtoError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn duration(&mut self) -> Result<Duration, ProtoError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("string is not UTF-8"))
    }

    fn tensor(&mut self) -> Result<pe_tensor::Tensor, ProtoError> {
        let ndims = self.u8()? as usize;
        if ndims == 0 || ndims > 8 {
            return Err(err(format!("tensor rank {ndims} out of range 1..=8")));
        }
        let mut dims = Vec::with_capacity(ndims);
        let mut numel = 1usize;
        for _ in 0..ndims {
            let d = self.u32()? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| err("tensor volume overflows"))?;
            dims.push(d);
        }
        // The volume must fit the remaining payload — checked before the
        // allocation so a hostile header cannot balloon memory. The byte
        // count is overflow-checked too: dims like [2^31, 2^31] pass the
        // per-dim product but wrap `numel * 4` to 0 in release.
        let bytes = numel
            .checked_mul(4)
            .ok_or_else(|| err("tensor volume overflows"))?;
        if self.data.len() - self.at < bytes {
            return Err(err(format!(
                "tensor claims {numel} elements but only {} payload bytes remain",
                self.data.len() - self.at
            )));
        }
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(self.f32_bits()?);
        }
        Ok(pe_tensor::Tensor::from_vec(data, dims))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at != self.data.len() {
            return Err(err(format!(
                "{} trailing bytes after the payload",
                self.data.len() - self.at
            )));
        }
        Ok(())
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_tensor(buf: &mut Vec<u8>, t: &pe_tensor::Tensor) {
    let dims = t.dims();
    buf.push(dims.len() as u8);
    for &d in dims {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.data() {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn put_duration(buf: &mut Vec<u8>, d: Duration) {
    buf.extend_from_slice(&(d.as_nanos().min(u128::from(u64::MAX)) as u64).to_le_bytes());
}

// ---------------------------------------------------------------------------
// Handshake payloads
// ---------------------------------------------------------------------------

/// Encodes a `Hello` payload.
pub fn encode_hello() -> Vec<u8> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(&PROTOCOL_MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    buf
}

/// Decodes and validates a `Hello` payload against this build's magic and
/// version.
///
/// # Errors
///
/// Magic or version mismatch (and any truncation) is a [`ProtoError`]
/// whose message names the expectation — it becomes the `Error` frame the
/// rejected peer sees.
pub fn decode_hello(payload: &[u8]) -> Result<(), ProtoError> {
    let mut b = Bytes::new(payload);
    let magic = b.take(4)?;
    if magic != PROTOCOL_MAGIC {
        return Err(err("bad magic: not a PockEngine wire-protocol peer"));
    }
    let version = b.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(err(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        )));
    }
    b.finish()
}

/// Encodes a `HelloAck` payload.
pub fn encode_hello_ack() -> Vec<u8> {
    PROTOCOL_VERSION.to_le_bytes().to_vec()
}

/// Decodes a `HelloAck` payload, returning the server's version.
///
/// # Errors
///
/// Truncated or oversized payloads are a [`ProtoError`].
pub fn decode_hello_ack(payload: &[u8]) -> Result<u16, ProtoError> {
    let mut b = Bytes::new(payload);
    let version = b.u16()?;
    b.finish()?;
    Ok(version)
}

// ---------------------------------------------------------------------------
// Submit
// ---------------------------------------------------------------------------

const KIND_TRAIN: u8 = 0;
const KIND_EVAL: u8 = 1;

const FLAG_ID: u8 = 1 << 0;
const FLAG_DEADLINE: u8 = 1 << 1;
// Bit 2 carried version 1's executor-backend hint and bit 3 version 2's
// arrival stamp; both are now unknown flags.

fn priority_byte(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

fn priority_from(byte: u8) -> Result<Priority, ProtoError> {
    match byte {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        other => Err(err(format!("unknown priority tag {other}"))),
    }
}

/// Encodes a `Submit` payload: correlation id, mode, and the full request —
/// payload tensors bit-exact, every [`RequestMeta`] field carried.
pub fn encode_submit(corr: u64, mode: SubmitMode, request: &Request) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(32 + request.features.numel() * 4 + request.labels.numel() * 4);
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.push(match mode {
        SubmitMode::Block => 0,
        SubmitMode::Try => 1,
    });
    buf.push(match request.kind {
        ServingKind::Train => KIND_TRAIN,
        ServingKind::Eval => KIND_EVAL,
    });
    let meta = &request.meta;
    let mut flags = 0u8;
    if meta.id.is_some() {
        flags |= FLAG_ID;
    }
    if meta.deadline.is_some() {
        flags |= FLAG_DEADLINE;
    }
    buf.push(flags);
    buf.push(priority_byte(meta.priority));
    if let Some(id) = meta.id {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    if let Some(deadline) = meta.deadline {
        put_duration(&mut buf, deadline);
    }
    put_tensor(&mut buf, &request.features);
    put_tensor(&mut buf, &request.labels);
    buf
}

/// Decodes a `Submit` payload back into `(corr, mode, request)`.
///
/// # Errors
///
/// Any truncation, unknown tag, hostile tensor header or trailing garbage
/// is a [`ProtoError`].
pub fn decode_submit(payload: &[u8]) -> Result<(u64, SubmitMode, Request), ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    let mode = match b.u8()? {
        0 => SubmitMode::Block,
        1 => SubmitMode::Try,
        other => return Err(err(format!("unknown submit mode {other}"))),
    };
    let kind = match b.u8()? {
        KIND_TRAIN => ServingKind::Train,
        KIND_EVAL => ServingKind::Eval,
        other => return Err(err(format!("unknown request kind {other}"))),
    };
    let flags = b.u8()?;
    if flags & !(FLAG_ID | FLAG_DEADLINE) != 0 {
        return Err(err(format!("unknown meta flags {flags:#04x}")));
    }
    let priority = priority_from(b.u8()?)?;
    let id = (flags & FLAG_ID != 0).then(|| b.u64()).transpose()?;
    let deadline = (flags & FLAG_DEADLINE != 0)
        .then(|| b.duration())
        .transpose()?;
    let features = b.tensor()?;
    let labels = b.tensor()?;
    b.finish()?;
    Ok((
        corr,
        mode,
        Request {
            kind,
            features,
            labels,
            meta: RequestMeta {
                id,
                deadline,
                priority,
            },
        },
    ))
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

use pockengine::{Outcome, RejectReason, Response};

const OUTCOME_COMPLETED: u8 = 0;
const OUTCOME_REJECTED: u8 = 1;
const OUTCOME_CANCELLED: u8 = 2;
const OUTCOME_EXEC_ERROR: u8 = 3;

const RESP_CLIENT_ID: u8 = 1 << 0;
const RESP_LOSS: u8 = 1 << 1;
const RESP_LOGITS: u8 = 1 << 2;

fn dtype_byte(dtype: pe_tensor::DType) -> u8 {
    match dtype {
        pe_tensor::DType::F32 => 0,
        pe_tensor::DType::F16 => 1,
        pe_tensor::DType::I32 => 2,
        pe_tensor::DType::I8 => 3,
    }
}

fn dtype_from(byte: u8) -> Result<pe_tensor::DType, ProtoError> {
    match byte {
        0 => Ok(pe_tensor::DType::F32),
        1 => Ok(pe_tensor::DType::F16),
        2 => Ok(pe_tensor::DType::I32),
        3 => Ok(pe_tensor::DType::I8),
        other => Err(err(format!("unknown dtype tag {other}"))),
    }
}

fn put_dims(buf: &mut Vec<u8>, dims: &[usize]) {
    buf.push(dims.len() as u8);
    for &d in dims {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

fn take_dims(b: &mut Bytes) -> Result<Vec<usize>, ProtoError> {
    let n = b.u8()? as usize;
    if n > 8 {
        return Err(err(format!("shape rank {n} out of range 0..=8")));
    }
    (0..n).map(|_| Ok(b.u32()? as usize)).collect()
}

/// Encodes an `Outcome` payload: correlation id plus the full
/// `Result<Outcome, ExecError>` a ticket resolves with — losses and logits
/// as exact bit patterns, rejection durations as exact nanoseconds.
pub fn encode_outcome(corr: u64, result: &Result<Outcome, ExecError>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&corr.to_le_bytes());
    match result {
        Ok(Outcome::Completed(response)) => {
            buf.push(OUTCOME_COMPLETED);
            buf.extend_from_slice(&(response.id as u64).to_le_bytes());
            let mut flags = 0u8;
            if response.client_id.is_some() {
                flags |= RESP_CLIENT_ID;
            }
            if response.loss.is_some() {
                flags |= RESP_LOSS;
            }
            if response.logits.is_some() {
                flags |= RESP_LOGITS;
            }
            buf.push(flags);
            buf.push(match response.kind {
                ServingKind::Train => KIND_TRAIN,
                ServingKind::Eval => KIND_EVAL,
            });
            buf.extend_from_slice(&(response.rows as u32).to_le_bytes());
            buf.extend_from_slice(&(response.batch as u32).to_le_bytes());
            if let Some(client_id) = response.client_id {
                buf.extend_from_slice(&client_id.to_le_bytes());
            }
            if let Some(loss) = response.loss {
                buf.extend_from_slice(&loss.to_bits().to_le_bytes());
            }
            if let Some(logits) = &response.logits {
                put_tensor(&mut buf, logits);
            }
        }
        Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible { estimated, budget })) => {
            buf.push(OUTCOME_REJECTED);
            put_duration(&mut buf, *estimated);
            put_duration(&mut buf, *budget);
        }
        Ok(Outcome::Cancelled) => buf.push(OUTCOME_CANCELLED),
        Err(error) => {
            buf.push(OUTCOME_EXEC_ERROR);
            match error {
                ExecError::MissingInput(name) => {
                    buf.push(0);
                    put_string(&mut buf, name);
                }
                ExecError::InputShapeMismatch {
                    name,
                    expected,
                    actual,
                } => {
                    buf.push(1);
                    put_string(&mut buf, name);
                    put_dims(&mut buf, expected);
                    put_dims(&mut buf, actual);
                }
                ExecError::InputDTypeMismatch {
                    name,
                    expected,
                    actual,
                } => {
                    buf.push(2);
                    put_string(&mut buf, name);
                    buf.push(dtype_byte(*expected));
                    buf.push(dtype_byte(*actual));
                }
                ExecError::InputIndexOutOfRange {
                    name,
                    position,
                    bound,
                } => {
                    buf.push(3);
                    put_string(&mut buf, name);
                    buf.extend_from_slice(&(*position as u64).to_le_bytes());
                    buf.extend_from_slice(&(*bound as u64).to_le_bytes());
                }
            }
        }
    }
    buf
}

/// Decodes an `Outcome` payload back into `(corr, result)`.
///
/// # Errors
///
/// Any truncation, unknown tag or trailing garbage is a [`ProtoError`].
#[allow(clippy::type_complexity)]
pub fn decode_outcome(payload: &[u8]) -> Result<(u64, Result<Outcome, ExecError>), ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    let result = match b.u8()? {
        OUTCOME_COMPLETED => {
            let id = b.u64()? as usize;
            let flags = b.u8()?;
            if flags & !(RESP_CLIENT_ID | RESP_LOSS | RESP_LOGITS) != 0 {
                return Err(err(format!("unknown response flags {flags:#04x}")));
            }
            let kind = match b.u8()? {
                KIND_TRAIN => ServingKind::Train,
                KIND_EVAL => ServingKind::Eval,
                other => return Err(err(format!("unknown response kind {other}"))),
            };
            let rows = b.u32()? as usize;
            let batch = b.u32()? as usize;
            let client_id = (flags & RESP_CLIENT_ID != 0).then(|| b.u64()).transpose()?;
            let loss = (flags & RESP_LOSS != 0).then(|| b.f32_bits()).transpose()?;
            let logits = (flags & RESP_LOGITS != 0).then(|| b.tensor()).transpose()?;
            Ok(Outcome::Completed(Response {
                id,
                client_id,
                kind,
                rows,
                batch,
                loss,
                logits,
            }))
        }
        OUTCOME_REJECTED => {
            let estimated = b.duration()?;
            let budget = b.duration()?;
            Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible {
                estimated,
                budget,
            }))
        }
        OUTCOME_CANCELLED => Ok(Outcome::Cancelled),
        OUTCOME_EXEC_ERROR => Err(match b.u8()? {
            0 => ExecError::MissingInput(b.string()?),
            1 => ExecError::InputShapeMismatch {
                name: b.string()?,
                expected: take_dims(&mut b)?,
                actual: take_dims(&mut b)?,
            },
            2 => ExecError::InputDTypeMismatch {
                name: b.string()?,
                expected: dtype_from(b.u8()?)?,
                actual: dtype_from(b.u8()?)?,
            },
            3 => ExecError::InputIndexOutOfRange {
                name: b.string()?,
                position: b.u64()? as usize,
                bound: b.u64()? as usize,
            },
            other => return Err(err(format!("unknown exec-error tag {other}"))),
        }),
        other => return Err(err(format!("unknown outcome tag {other}"))),
    };
    b.finish()?;
    Ok((corr, result))
}

// ---------------------------------------------------------------------------
// Ack / Nack / Error
// ---------------------------------------------------------------------------

/// Encodes an `Ack` payload (submission admitted to the queue).
pub fn encode_ack(corr: u64) -> Vec<u8> {
    corr.to_le_bytes().to_vec()
}

/// Decodes an `Ack` payload.
///
/// # Errors
///
/// Truncated or oversized payloads are a [`ProtoError`].
pub fn decode_ack(payload: &[u8]) -> Result<u64, ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    b.finish()?;
    Ok(corr)
}

/// Encodes a `Nack` payload (submission refused).
pub fn encode_nack(corr: u64, reason: NackReason) -> Vec<u8> {
    let mut buf = corr.to_le_bytes().to_vec();
    buf.push(match reason {
        NackReason::Full => 0,
        NackReason::Closed => 1,
    });
    buf
}

/// Decodes a `Nack` payload.
///
/// # Errors
///
/// Truncation and unknown reason tags are a [`ProtoError`].
pub fn decode_nack(payload: &[u8]) -> Result<(u64, NackReason), ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    let reason = match b.u8()? {
        0 => NackReason::Full,
        1 => NackReason::Closed,
        other => return Err(err(format!("unknown nack reason {other}"))),
    };
    b.finish()?;
    Ok((corr, reason))
}

/// Encodes an `Error` payload (a message string).
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + message.len());
    put_string(&mut buf, message);
    buf
}

/// Decodes an `Error` payload.
///
/// # Errors
///
/// Truncated or non-UTF-8 payloads are a [`ProtoError`].
pub fn decode_error(payload: &[u8]) -> Result<String, ProtoError> {
    let mut b = Bytes::new(payload);
    let message = b.string()?;
    b.finish()?;
    Ok(message)
}

// ---------------------------------------------------------------------------
// Ping / Pong / Checkpoint / SnapshotReq (fleet frames)
// ---------------------------------------------------------------------------

/// Encodes a `Ping` payload (a health probe's correlation id).
pub fn encode_ping(corr: u64) -> Vec<u8> {
    corr.to_le_bytes().to_vec()
}

/// Decodes a `Ping` payload.
///
/// # Errors
///
/// Truncated or oversized payloads are a [`ProtoError`].
pub fn decode_ping(payload: &[u8]) -> Result<u64, ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    b.finish()?;
    Ok(corr)
}

/// Encodes a `Pong` payload: the probe's correlation id plus the server's
/// current submission-queue depth.
pub fn encode_pong(corr: u64, queue_depth: u32) -> Vec<u8> {
    let mut buf = corr.to_le_bytes().to_vec();
    buf.extend_from_slice(&queue_depth.to_le_bytes());
    buf
}

/// Decodes a `Pong` payload into `(corr, queue_depth)`.
///
/// # Errors
///
/// Truncated or oversized payloads are a [`ProtoError`].
pub fn decode_pong(payload: &[u8]) -> Result<(u64, u32), ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    let depth = b.u32()?;
    b.finish()?;
    Ok((corr, depth))
}

/// Encodes a `Checkpoint` payload: correlation id + opaque snapshot bytes
/// (the `pe_runtime::ParamStore` binary format; this layer does not parse
/// it, the receiving store validates on restore).
pub fn encode_checkpoint(corr: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + snapshot.len());
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.extend_from_slice(snapshot);
    buf
}

/// Decodes a `Checkpoint` payload into `(corr, snapshot_bytes)`.
///
/// # Errors
///
/// A payload too short to carry the correlation id is a [`ProtoError`].
pub fn decode_checkpoint(payload: &[u8]) -> Result<(u64, Vec<u8>), ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    let rest = b.data.len() - b.at;
    let snapshot = b.take(rest)?.to_vec();
    b.finish()?;
    Ok((corr, snapshot))
}

/// Encodes a `SnapshotReq` payload (a correlation id).
pub fn encode_snapshot_req(corr: u64) -> Vec<u8> {
    corr.to_le_bytes().to_vec()
}

/// Decodes a `SnapshotReq` payload.
///
/// # Errors
///
/// Truncated or oversized payloads are a [`ProtoError`].
pub fn decode_snapshot_req(payload: &[u8]) -> Result<u64, ProtoError> {
    let mut b = Bytes::new(payload);
    let corr = b.u64()?;
    b.finish()?;
    Ok(corr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_tensor::Tensor;

    fn full_request() -> Request {
        Request::train(
            Tensor::from_vec(vec![0.1, -2.5e-7, f32::MIN_POSITIVE, 4.0], [2, 2]),
            Tensor::from_vec(vec![1.0, 0.0], [2]),
        )
        .deadline(Duration::from_nanos(1_234_567_891))
        .priority(Priority::High)
        .id(u64::MAX)
    }

    #[test]
    fn submit_round_trips_bit_exactly_with_full_meta() {
        let request = full_request();
        let payload = encode_submit(42, SubmitMode::Try, &request);
        let (corr, mode, back) = decode_submit(&payload).unwrap();
        assert_eq!(corr, 42);
        assert_eq!(mode, SubmitMode::Try);
        assert_eq!(back.kind, request.kind);
        assert_eq!(back.meta, request.meta);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.features), bits(&request.features));
        assert_eq!(bits(&back.labels), bits(&request.labels));
        assert_eq!(back.features.dims(), request.features.dims());
    }

    #[test]
    fn submit_round_trips_with_empty_meta() {
        let request = Request::eval(Tensor::zeros([1, 3]), Tensor::zeros([1]));
        let payload = encode_submit(0, SubmitMode::Block, &request);
        let (_, mode, back) = decode_submit(&payload).unwrap();
        assert_eq!(mode, SubmitMode::Block);
        assert_eq!(back.meta, RequestMeta::default());
    }

    #[test]
    fn the_retired_backend_hint_flag_is_an_unknown_meta_flag() {
        let request = Request::eval(Tensor::zeros([1, 2]), Tensor::zeros([1]));
        // Bit 2 was version 1's backend hint, bit 3 version 2's arrival stamp.
        for bit in [2, 3] {
            let mut payload = encode_submit(0, SubmitMode::Block, &request);
            // corr (8 bytes), mode and kind precede the flags byte.
            payload[10] |= 1 << bit;
            let e = decode_submit(&payload).unwrap_err();
            assert!(e.0.contains("unknown meta flags"), "{e}");
        }
    }

    #[test]
    fn outcome_round_trips_every_variant() {
        let completed = Ok(Outcome::Completed(Response {
            id: 7,
            client_id: Some(99),
            kind: ServingKind::Eval,
            rows: 2,
            batch: 4,
            loss: Some(f32::from_bits(0x3f8f_5c29)),
            logits: Some(Tensor::from_vec(vec![1.5, -0.25, 3.0, 0.0], [2, 2])),
        }));
        let rejected = Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible {
            estimated: Duration::from_nanos(123_456_789),
            budget: Duration::from_nanos(100),
        }));
        let cancelled = Ok(Outcome::Cancelled);
        let errors = [
            Err(ExecError::MissingInput("x".into())),
            Err(ExecError::InputShapeMismatch {
                name: "labels".into(),
                expected: vec![4],
                actual: vec![2, 2],
            }),
            Err(ExecError::InputDTypeMismatch {
                name: "x".into(),
                expected: pe_tensor::DType::F32,
                actual: pe_tensor::DType::I8,
            }),
            Err(ExecError::InputIndexOutOfRange {
                name: "labels".into(),
                position: 3,
                bound: 4,
            }),
        ];
        for (i, result) in [completed, rejected, cancelled]
            .iter()
            .chain(errors.iter())
            .enumerate()
        {
            let payload = encode_outcome(i as u64, result);
            let (corr, back) = decode_outcome(&payload).unwrap();
            assert_eq!(corr, i as u64);
            match (result, &back) {
                (Ok(Outcome::Completed(a)), Ok(Outcome::Completed(b))) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.client_id, b.client_id);
                    assert_eq!(a.kind, b.kind);
                    assert_eq!((a.rows, a.batch), (b.rows, b.batch));
                    assert_eq!(
                        a.loss.map(f32::to_bits),
                        b.loss.map(f32::to_bits),
                        "loss must round-trip bit-exactly"
                    );
                    let bits = |t: &Option<Tensor>| {
                        t.as_ref()
                            .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    };
                    assert_eq!(bits(&a.logits), bits(&b.logits));
                }
                (Ok(Outcome::Rejected(a)), Ok(Outcome::Rejected(b))) => assert_eq!(a, b),
                (Ok(Outcome::Cancelled), Ok(Outcome::Cancelled)) => {}
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (a, b) => panic!("variant changed in flight: {a:?} -> {b:?}"),
            }
        }
    }

    #[test]
    fn hello_validates_magic_and_version() {
        assert!(decode_hello(&encode_hello()).is_ok());
        let mut bad_magic = encode_hello();
        bad_magic[0] = b'X';
        assert!(decode_hello(&bad_magic).unwrap_err().0.contains("magic"));
        let mut bad_version = encode_hello();
        bad_version[4] = 99;
        assert!(decode_hello(&bad_version)
            .unwrap_err()
            .0
            .contains("version mismatch"));
        assert_eq!(decode_hello_ack(&encode_hello_ack()), Ok(PROTOCOL_VERSION));
    }

    #[test]
    fn ack_nack_error_round_trip() {
        assert_eq!(decode_ack(&encode_ack(5)), Ok(5));
        assert_eq!(
            decode_nack(&encode_nack(6, NackReason::Full)),
            Ok((6, NackReason::Full))
        );
        assert_eq!(
            decode_nack(&encode_nack(7, NackReason::Closed)),
            Ok((7, NackReason::Closed))
        );
        assert_eq!(decode_error(&encode_error("boom")).as_deref(), Ok("boom"));
    }

    #[test]
    fn frames_round_trip_and_enforce_the_length_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Submit, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, FrameKind::Error, &[]).unwrap();
        let mut cursor = &wire[..];
        let first = read_frame(&mut cursor, 1024).unwrap();
        assert_eq!(first.kind, FrameKind::Submit as u8);
        assert_eq!(first.payload, vec![1, 2, 3]);
        let second = read_frame(&mut cursor, 1024).unwrap();
        assert_eq!(second.kind, FrameKind::Error as u8);
        assert!(second.payload.is_empty());
        // An oversized declared length errors before allocating.
        let huge = u32::MAX.to_le_bytes();
        let mut cursor = &huge[..];
        let e = read_frame(&mut cursor, 1024).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_payloads_error_instead_of_panicking() {
        // Truncated everywhere.
        for len in 0..12 {
            assert!(decode_submit(&vec![0u8; len]).is_err());
        }
        // Hostile tensor volume: rank-1 tensor claiming u32::MAX elements.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // corr
        payload.push(0); // mode: block
        payload.push(KIND_EVAL);
        payload.push(0); // flags
        payload.push(1); // priority: normal
        payload.push(1); // features rank 1
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_submit(&payload).unwrap_err();
        assert!(e.0.contains("elements"), "{e}");
        // Hostile tensor volume, overflow flavor: each dim fits usize but
        // numel * 4 wraps past u64 — must error, not panic or pass.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // corr
        payload.push(0); // mode: block
        payload.push(KIND_EVAL);
        payload.push(0); // flags
        payload.push(1); // priority: normal
        payload.push(2); // features rank 2
        payload.extend_from_slice(&(1u32 << 31).to_le_bytes());
        payload.extend_from_slice(&(1u32 << 31).to_le_bytes());
        let e = decode_submit(&payload).unwrap_err();
        assert!(e.0.contains("overflows"), "{e}");
        // Trailing garbage after a valid request.
        let request = Request::eval(Tensor::zeros([1, 2]), Tensor::zeros([1]));
        let mut payload = encode_submit(1, SubmitMode::Block, &request);
        payload.push(0xAB);
        assert!(decode_submit(&payload).unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn fleet_frames_round_trip() {
        assert_eq!(decode_ping(&encode_ping(u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode_pong(&encode_pong(7, 12)).unwrap(), (7, 12));
        assert_eq!(decode_snapshot_req(&encode_snapshot_req(99)).unwrap(), 99);

        let blob = vec![0xDEu8, 0xAD, 0xBE, 0xEF];
        let (corr, back) = decode_checkpoint(&encode_checkpoint(3, &blob)).unwrap();
        assert_eq!(corr, 3);
        assert_eq!(back, blob);
        // An empty snapshot blob is a valid (if useless) checkpoint frame.
        let (corr, back) = decode_checkpoint(&encode_checkpoint(4, &[])).unwrap();
        assert_eq!(corr, 4);
        assert!(back.is_empty());

        // Truncation errors, never panics.
        assert!(decode_ping(&[0u8; 7]).is_err());
        assert!(decode_ping(&[0u8; 9]).is_err());
        assert!(decode_pong(&[0u8; 11]).is_err());
        assert!(decode_pong(&[0u8; 13]).is_err());
        assert!(decode_checkpoint(&[0u8; 7]).is_err());
        assert!(decode_snapshot_req(&[0u8; 9]).is_err());

        for kind in [8u8, 9, 10, 11] {
            assert!(FrameKind::from_u8(kind).is_some());
        }
        assert_eq!(FrameKind::Ping as u8, 8);
        assert_eq!(FrameKind::Pong as u8, 9);
        assert_eq!(FrameKind::Checkpoint as u8, 10);
        assert_eq!(FrameKind::SnapshotReq as u8, 11);
    }
}
