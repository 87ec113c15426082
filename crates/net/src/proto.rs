//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame on the socket is `[len: u32 LE][kind: u8][payload]`, where
//! `len` counts the kind byte plus the payload. A reader enforces a maximum
//! frame length *before* allocating, so a malformed or hostile length
//! prefix cannot balloon memory — it errors out that one connection.
//!
//! Payloads are written and read by `pe_tensor::codec`, the layout the
//! `ParamStore` snapshot shares: little-endian integers, `f32` values as
//! their IEEE-754 bit patterns (exact round trip — the bit-identity proofs
//! in `tests/tests/net_serving.rs` depend on it), durations as `u64`
//! nanoseconds, strings as `u32` length + UTF-8 bytes, tensors as a rank
//! `u8` (at most 8), `u32` dims and the elements.
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
//! The client leads with `Hello` carrying `PROTOCOL_MAGIC` and
//! `PROTOCOL_VERSION`; the server answers `HelloAck` with its own version
//! only when magic and version match *exactly* (version 2 retired version
//! 1's executor-backend hint; version 3 retired the arrival stamp and added
//! exec-error tag 3, an out-of-range index; version 4 retired exec-error
//! tag 2, the element-type mismatch; a future server may accept a range).
//! Any mismatch is answered with an `Error` frame and a close — a client
//! never talks payload frames to a server that did not acknowledge its
//! version.

use std::io::{Read, Write};

use pe_data::serving::{Priority, Request, RequestMeta, ServingKind};
use pe_runtime::ExecError;
use pe_tensor::codec::{fit, CodecError, Reader, Writer};

/// Four magic bytes leading every `Hello`: "PockEngine Network Wire".
pub(crate) const PROTOCOL_MAGIC: [u8; 4] = *b"PENW";

/// The protocol version spoken by this build.
pub(crate) const PROTOCOL_VERSION: u16 = 4;

/// Default cap on one frame's length (kind byte + payload), 8 MiB.
pub(crate) const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

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

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError(e.0)
    }
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
// Handshake payloads
// ---------------------------------------------------------------------------

/// Encodes a `Hello` payload.
pub fn encode_hello() -> Vec<u8> {
    Writer::encode(6, |w| {
        w.bytes(&PROTOCOL_MAGIC);
        w.u16(PROTOCOL_VERSION);
    })
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
    Reader::read_all(payload, |r| {
        if r.take(4)? != PROTOCOL_MAGIC {
            return Err(err("bad magic: not a PockEngine wire-protocol peer"));
        }
        match r.u16()? {
            PROTOCOL_VERSION => Ok(()),
            version => Err(err(format!(
                "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
            ))),
        }
    })
}

/// Encodes a `HelloAck` payload.
pub fn encode_hello_ack() -> Vec<u8> {
    Writer::encode(2, |w| w.u16(PROTOCOL_VERSION))
}

/// Decodes a `HelloAck` payload into the server's version; truncated or
/// oversized payloads are a [`ProtoError`].
pub(crate) fn decode_hello_ack(payload: &[u8]) -> Result<u16, ProtoError> {
    Reader::read_all(payload, |r| Ok(r.u16()?))
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

fn kind_byte(kind: ServingKind) -> u8 {
    match kind {
        ServingKind::Train => KIND_TRAIN,
        ServingKind::Eval => KIND_EVAL,
    }
}

fn kind_from(byte: u8, what: &str) -> Result<ServingKind, ProtoError> {
    match byte {
        KIND_TRAIN => Ok(ServingKind::Train),
        KIND_EVAL => Ok(ServingKind::Eval),
        other => Err(err(format!("unknown {what} kind {other}"))),
    }
}

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
    let capacity = 32 + request.features.numel() * 4 + request.labels.numel() * 4;
    Writer::encode(capacity, |w| {
        w.u64(corr);
        w.u8(match mode {
            SubmitMode::Block => 0,
            SubmitMode::Try => 1,
        });
        w.u8(kind_byte(request.kind));
        let meta = &request.meta;
        let mut flags = 0u8;
        if meta.id.is_some() {
            flags |= FLAG_ID;
        }
        if meta.deadline.is_some() {
            flags |= FLAG_DEADLINE;
        }
        w.u8(flags);
        w.u8(priority_byte(meta.priority));
        if let Some(id) = meta.id {
            w.u64(id);
        }
        if let Some(deadline) = meta.deadline {
            w.duration(deadline);
        }
        w.tensor(&request.features);
        w.tensor(&request.labels);
    })
}

/// Decodes a `Submit` payload back into `(corr, mode, request)`.
///
/// # Errors
///
/// Any truncation, unknown tag, hostile tensor header or trailing garbage
/// is a [`ProtoError`].
pub fn decode_submit(payload: &[u8]) -> Result<(u64, SubmitMode, Request), ProtoError> {
    Reader::read_all(payload, |r| {
        let corr = r.u64()?;
        let mode = match r.u8()? {
            0 => SubmitMode::Block,
            1 => SubmitMode::Try,
            other => return Err(err(format!("unknown submit mode {other}"))),
        };
        let kind = kind_from(r.u8()?, "request")?;
        let flags = r.u8()?;
        if flags & !(FLAG_ID | FLAG_DEADLINE) != 0 {
            return Err(err(format!("unknown meta flags {flags:#04x}")));
        }
        // Fields decode in the order they are written, as they sit on the wire.
        let meta = RequestMeta {
            priority: priority_from(r.u8()?)?,
            id: (flags & FLAG_ID != 0).then(|| r.u64()).transpose()?,
            deadline: (flags & FLAG_DEADLINE != 0)
                .then(|| r.duration())
                .transpose()?,
        };
        let request = Request {
            kind,
            features: r.tensor()?,
            labels: r.tensor()?,
            meta,
        };
        Ok((corr, mode, request))
    })
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

/// Encodes an `Outcome` payload: correlation id plus the full
/// `Result<Outcome, ExecError>` a ticket resolves with — losses and logits
/// as exact bit patterns, rejection durations as exact nanoseconds.
pub fn encode_outcome(corr: u64, result: &Result<Outcome, ExecError>) -> Vec<u8> {
    Writer::encode(64, |w| {
        w.u64(corr);
        match result {
            Ok(Outcome::Completed(response)) => {
                w.u8(OUTCOME_COMPLETED);
                w.u64(response.id as u64);
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
                w.u8(flags);
                w.u8(kind_byte(response.kind));
                w.u32(fit(response.rows));
                w.u32(fit(response.batch));
                if let Some(client_id) = response.client_id {
                    w.u64(client_id);
                }
                if let Some(loss) = response.loss {
                    w.u32(loss.to_bits());
                }
                if let Some(logits) = &response.logits {
                    w.tensor(logits);
                }
            }
            Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible { estimated, budget })) => {
                w.u8(OUTCOME_REJECTED);
                w.duration(*estimated);
                w.duration(*budget);
            }
            Ok(Outcome::Cancelled) => w.u8(OUTCOME_CANCELLED),
            Err(error) => {
                w.u8(OUTCOME_EXEC_ERROR);
                match error {
                    ExecError::MissingInput(name) => {
                        w.u8(0);
                        w.str(name);
                    }
                    ExecError::InputShapeMismatch {
                        name,
                        expected,
                        actual,
                    } => {
                        w.u8(1);
                        w.str(name);
                        w.dims(expected);
                        w.dims(actual);
                    }
                    ExecError::InputIndexOutOfRange {
                        name,
                        position,
                        bound,
                    } => {
                        w.u8(3);
                        w.str(name);
                        w.u64(*position as u64);
                        w.u64(*bound as u64);
                    }
                }
            }
        }
    })
}

/// Decodes an `Outcome` payload back into `(corr, result)`.
///
/// # Errors
///
/// Any truncation, unknown tag or trailing garbage is a [`ProtoError`].
#[allow(clippy::type_complexity)]
pub fn decode_outcome(payload: &[u8]) -> Result<(u64, Result<Outcome, ExecError>), ProtoError> {
    Reader::read_all(payload, |r| {
        let corr = r.u64()?;
        let result = match r.u8()? {
            OUTCOME_COMPLETED => {
                let id = r.u64()? as usize;
                let flags = r.u8()?;
                if flags & !(RESP_CLIENT_ID | RESP_LOSS | RESP_LOGITS) != 0 {
                    return Err(err(format!("unknown response flags {flags:#04x}")));
                }
                let kind = kind_from(r.u8()?, "response")?;
                let rows = r.u32()? as usize;
                let batch = r.u32()? as usize;
                let client_id = (flags & RESP_CLIENT_ID != 0).then(|| r.u64()).transpose()?;
                let loss = (flags & RESP_LOSS != 0).then(|| r.u32()).transpose()?;
                let logits = (flags & RESP_LOGITS != 0).then(|| r.tensor()).transpose()?;
                Ok(Outcome::Completed(Response {
                    id,
                    client_id,
                    kind,
                    rows,
                    batch,
                    loss: loss.map(f32::from_bits),
                    logits,
                }))
            }
            OUTCOME_REJECTED => Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible {
                estimated: r.duration()?,
                budget: r.duration()?,
            })),
            OUTCOME_CANCELLED => Ok(Outcome::Cancelled),
            OUTCOME_EXEC_ERROR => Err(match r.u8()? {
                0 => ExecError::MissingInput(r.str()?.to_owned()),
                1 => ExecError::InputShapeMismatch {
                    name: r.str()?.to_owned(),
                    expected: r.dims()?,
                    actual: r.dims()?,
                },
                3 => ExecError::InputIndexOutOfRange {
                    name: r.str()?.to_owned(),
                    position: r.u64()? as usize,
                    bound: r.u64()? as usize,
                },
                other => return Err(err(format!("unknown exec-error tag {other}"))),
            }),
            other => return Err(err(format!("unknown outcome tag {other}"))),
        };
        Ok((corr, result))
    })
}

// ---------------------------------------------------------------------------
// Ack / Ping / SnapshotReq, Nack, Error, Pong, Checkpoint
// ---------------------------------------------------------------------------

/// Encodes a payload that is one correlation id: an `Ack` (submission
/// admitted, or checkpoint applied), a `Ping` or a `SnapshotReq`.
pub fn encode_ack(corr: u64) -> Vec<u8> {
    Writer::encode(8, |w| w.u64(corr))
}

/// Decodes an [`encode_ack`] payload (`Ack`, `Ping` or `SnapshotReq`);
/// truncated or oversized payloads are a [`ProtoError`].
pub(crate) fn decode_ack(payload: &[u8]) -> Result<u64, ProtoError> {
    Reader::read_all(payload, |r| Ok(r.u64()?))
}

/// Encodes a `Nack` payload (submission refused).
pub fn encode_nack(corr: u64, reason: NackReason) -> Vec<u8> {
    Writer::encode(9, |w| {
        w.u64(corr);
        w.u8(match reason {
            NackReason::Full => 0,
            NackReason::Closed => 1,
        });
    })
}

/// Decodes a `Nack` payload; truncation and unknown reason tags are a
/// [`ProtoError`].
pub(crate) fn decode_nack(payload: &[u8]) -> Result<(u64, NackReason), ProtoError> {
    Reader::read_all(payload, |r| {
        let corr = r.u64()?;
        match r.u8()? {
            0 => Ok((corr, NackReason::Full)),
            1 => Ok((corr, NackReason::Closed)),
            other => Err(err(format!("unknown nack reason {other}"))),
        }
    })
}

/// Encodes an `Error` payload (a message string).
pub(crate) fn encode_error(message: &str) -> Vec<u8> {
    Writer::encode(4 + message.len(), |w| w.str(message))
}

/// Decodes an `Error` payload.
///
/// # Errors
///
/// Truncated or non-UTF-8 payloads are a [`ProtoError`].
pub fn decode_error(payload: &[u8]) -> Result<String, ProtoError> {
    Reader::read_all(payload, |r| Ok(r.str()?.to_owned()))
}

/// Encodes a `Pong` payload: the probe's correlation id plus the server's
/// current submission-queue depth.
pub(crate) fn encode_pong(corr: u64, queue_depth: u32) -> Vec<u8> {
    Writer::encode(12, |w| {
        w.u64(corr);
        w.u32(queue_depth);
    })
}

/// Decodes a `Pong` payload into `(corr, queue_depth)`; truncated or
/// oversized payloads are a [`ProtoError`].
pub(crate) fn decode_pong(payload: &[u8]) -> Result<(u64, u32), ProtoError> {
    Reader::read_all(payload, |r| Ok((r.u64()?, r.u32()?)))
}

/// Encodes a `Checkpoint` payload: correlation id + opaque snapshot bytes
/// (the `pe_runtime::ParamStore` binary format; this layer does not parse
/// it, the receiving store validates on restore).
pub fn encode_checkpoint(corr: u64, snapshot: &[u8]) -> Vec<u8> {
    Writer::encode(8 + snapshot.len(), |w| {
        w.u64(corr);
        w.bytes(snapshot);
    })
}

/// Decodes a `Checkpoint` payload into `(corr, snapshot_bytes)`, the
/// snapshot borrowed from the payload.
///
/// # Errors
///
/// A payload too short to carry the correlation id is a [`ProtoError`].
pub fn decode_checkpoint(payload: &[u8]) -> Result<(u64, &[u8]), ProtoError> {
    Reader::read_all(payload, |r| Ok((r.u64()?, r.rest())))
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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
    fn the_retired_exec_error_tag_2_is_refused() {
        // Version 3's tag 2, an element-type mismatch: name "x", then the
        // expected and provided type bytes (0 = f32, 3 = i8).
        let payload = Writer::encode(16, |w| {
            w.u64(5);
            w.bytes(&[OUTCOME_EXEC_ERROR, 2]);
            w.str("x");
            w.bytes(&[0, 3]);
        });
        let e = decode_outcome(&payload).unwrap_err();
        assert!(e.0.contains("unknown exec-error tag 2"), "{e}");
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
        let huge = [0xFF; 4];
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
        let payload = Writer::encode(17, |w| {
            w.u64(0); // corr
            w.u8(0); // mode: block
            w.u8(KIND_EVAL);
            w.u8(0); // flags
            w.u8(1); // priority: normal
            w.u8(1); // features rank 1
            w.u32(u32::MAX);
        });
        let e = decode_submit(&payload).unwrap_err();
        assert!(e.0.contains("elements"), "{e}");
        // Hostile tensor volume, overflow flavor: each dim fits usize but
        // numel * 4 wraps past u64 — must error, not panic or pass.
        let payload = Writer::encode(21, |w| {
            w.u64(0); // corr
            w.u8(0); // mode: block
            w.u8(KIND_EVAL);
            w.u8(0); // flags
            w.u8(1); // priority: normal
            w.u8(2); // features rank 2
            w.u32(1 << 31);
            w.u32(1 << 31);
        });
        let e = decode_submit(&payload).unwrap_err();
        assert!(e.0.contains("overflows"), "{e}");
        // Trailing garbage after a valid request.
        let request = Request::eval(Tensor::zeros([1, 2]), Tensor::zeros([1]));
        let mut payload = encode_submit(1, SubmitMode::Block, &request);
        payload.push(0xAB);
        assert!(decode_submit(&payload).unwrap_err().0.contains("trailing"));
    }

    /// FNV-1a 64 of a payload.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every payload's exact bytes, pinned by length and hash: a codec
    /// change that moves one byte of protocol version 4 fails here.
    #[test]
    fn payload_bytes_are_pinned() {
        let logits = Tensor::from_vec(vec![1.5, -0.25, 3.0, f32::from_bits(0x7fc0_0001)], [2, 2]);
        let outcomes = [
            Ok(Outcome::Completed(Response {
                id: 7,
                client_id: Some(99),
                kind: ServingKind::Eval,
                rows: 2,
                batch: 4,
                loss: Some(f32::from_bits(0x3f8f_5c29)),
                logits: Some(logits),
            })),
            Ok(Outcome::Rejected(RejectReason::DeadlineInfeasible {
                estimated: Duration::from_nanos(123_456_789),
                budget: Duration::from_nanos(100),
            })),
            Ok(Outcome::Cancelled),
            Err(ExecError::MissingInput("x".into())),
            Err(ExecError::InputShapeMismatch {
                name: "labels".into(),
                expected: vec![4],
                actual: vec![2, 2],
            }),
            Err(ExecError::InputIndexOutOfRange {
                name: "labels".into(),
                position: 3,
                bound: 4,
            }),
        ];
        let mut payloads = vec![
            ("hello", encode_hello()),
            ("hello_ack", encode_hello_ack()),
            (
                "submit",
                encode_submit(42, SubmitMode::Try, &full_request()),
            ),
            ("ack", encode_ack(5)),
            ("nack_full", encode_nack(6, NackReason::Full)),
            ("nack_closed", encode_nack(7, NackReason::Closed)),
            ("error", encode_error("boom")),
            ("pong", encode_pong(7, 12)),
            (
                "checkpoint",
                encode_checkpoint(3, &[0xDE, 0xAD, 0xBE, 0xEF]),
            ),
        ];
        for (name, result) in [
            "completed",
            "rejected",
            "cancelled",
            "missing",
            "shape",
            "index",
        ]
        .into_iter()
        .zip(&outcomes)
        {
            payloads.push((name, encode_outcome(11, result)));
        }
        let pinned: [(&str, usize, u64); 15] = [
            ("hello", 6, 0x79bc7ce788306c49),
            ("hello_ack", 2, 0x0824f007b4dfe349),
            ("submit", 66, 0xcf6a652074ae00e1),
            ("ack", 8, 0x0de21504f16dc720),
            ("nack_full", 9, 0xbf2fd77efb5a3d99),
            ("nack_closed", 9, 0x2bc5832166bf4939),
            ("error", 8, 0x9172292b378b39be),
            ("pong", 12, 0xf45d365d172a914e),
            ("checkpoint", 12, 0xb0566ad1a57ba414),
            ("completed", 64, 0x2821d31d57a63ad4),
            ("rejected", 25, 0x1ed7308ec56df6f5),
            ("cancelled", 9, 0x14c180845e02cd04),
            ("missing", 15, 0x8dbe61c6a2794f24),
            ("shape", 34, 0xe42bcc91f4d18fc0),
            ("index", 36, 0xa423fe1949e448ee),
        ];
        let actual: Vec<(&str, usize, u64)> = payloads
            .iter()
            .map(|(name, bytes)| (*name, bytes.len(), fnv1a(bytes)))
            .collect();
        assert_eq!(actual, pinned);
    }

    #[test]
    fn fleet_frames_round_trip() {
        // Ping and SnapshotReq carry the Ack payload: one correlation id.
        assert_eq!(decode_ack(&encode_ack(u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode_pong(&encode_pong(7, 12)).unwrap(), (7, 12));

        let blob = vec![0xDEu8, 0xAD, 0xBE, 0xEF];
        let payload = encode_checkpoint(3, &blob);
        let (corr, back) = decode_checkpoint(&payload).unwrap();
        assert_eq!(corr, 3);
        assert_eq!(back, blob);
        // An empty snapshot blob is a valid (if useless) checkpoint frame.
        let payload = encode_checkpoint(4, &[]);
        let (corr, back) = decode_checkpoint(&payload).unwrap();
        assert_eq!(corr, 4);
        assert!(back.is_empty());

        // Truncation errors, never panics.
        assert!(decode_ack(&[0u8; 7]).is_err());
        assert!(decode_ack(&[0u8; 9]).is_err());
        assert!(decode_pong(&[0u8; 11]).is_err());
        assert!(decode_pong(&[0u8; 13]).is_err());
        assert!(decode_checkpoint(&[0u8; 7]).is_err());

        for kind in [8u8, 9, 10, 11] {
            assert!(FrameKind::from_u8(kind).is_some());
        }
        assert_eq!(FrameKind::Ping as u8, 8);
        assert_eq!(FrameKind::Pong as u8, 9);
        assert_eq!(FrameKind::Checkpoint as u8, 10);
        assert_eq!(FrameKind::SnapshotReq as u8, 11);
    }
}
