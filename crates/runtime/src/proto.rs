//! The coordinator ↔ agent wire protocol.
//!
//! Hand-rolled binary framing over `bytes`: every frame is
//!
//! ```text
//! ┌─────────────┬─────────┬──────────┬───────────┐
//! │ len: u32 BE │ version │ type: u8 │ payload … │
//! └─────────────┴─────────┴──────────┴───────────┘
//! ```
//!
//! where `len` counts everything after itself. Integers are big-endian.
//! The protocol is deliberately tiny — the paper's agents piggyback all
//! coordination on one periodic stats report and one schedule push, and
//! that economy is why its local agents cost ~1.7 MB of memory (§7.3).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Protocol version byte; bumped on any incompatible change.
pub const VERSION: u8 = 1;

/// Maximum acceptable frame length (sanity bound against corrupt
/// length prefixes).
pub const MAX_FRAME: usize = 16 << 20;

/// The `node` a coordinator signs its own frames with (a
/// resynchronising [`Message::Hello`]).
pub const COORDINATOR: u32 = u32::MAX;

/// Statistics for one flow, as reported by the sending agent (§5:
/// "per-flow bytes sent so far and which flows finished in this
/// interval", plus the §4.3 data-readiness bit). A flow is reported
/// every δ while it is unfinished and once more with `finished` set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowStat {
    /// Dense flow id.
    pub flow: u32,
    /// Bytes sent so far.
    pub sent: u64,
    /// Whether the flow completed.
    pub finished: bool,
    /// Whether the flow has data available to send.
    pub ready: bool,
}

/// One rate assignment within a schedule push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateAssignment {
    /// Dense flow id.
    pub flow: u32,
    /// Assigned rate, bytes/second.
    pub rate: u64,
}

/// Every message that crosses the coordinator ↔ agent boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// The opening handshake, in either direction. An agent announces
    /// itself once per connection. Sent *to* an agent host (as
    /// [`COORDINATOR`]) it is how a fresh observer — a restarted
    /// coordinator — resynchronises: every hosted agent answers with one
    /// full report, finished flows included, and goes back to deltas.
    Hello {
        /// The sender's node index ([`COORDINATOR`] for the coordinator).
        node: u32,
    },
    /// Per-δ stats report from an agent: the flows that are activated
    /// and unfinished, plus — once — each flow that finished since the
    /// last report.
    Stats {
        /// Reporting node.
        node: u32,
        /// The agent's local emulated time, nanoseconds (lets the
        /// coordinator reason about staleness).
        now_ns: u64,
        /// Stats for flows whose *sender* is this node.
        flows: Vec<FlowStat>,
    },
    /// Schedule push from the coordinator.
    Schedule {
        /// Monotone epoch counter (agents ignore stale epochs).
        epoch: u64,
        /// New rates; flows absent from the list pause.
        rates: Vec<RateAssignment>,
    },
    /// Orderly shutdown (harness → everyone).
    Shutdown,
}

/// An encode/decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its header or payload truncated.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown message type byte.
    BadType(u8),
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            ProtoError::BadType(t) => write!(f, "unknown message type {t}"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
thread_local! {
    /// Frames encoded on this thread — lets tests hold a fan-out to
    /// "encoded once, whatever the number of links".
    pub(crate) static ENCODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

const T_HELLO: u8 = 1;
const T_STATS: u8 = 2;
const T_SCHEDULE: u8 = 3;
const T_SHUTDOWN: u8 = 4;
// Tags 5, 6 and 7 are retired: frames of a removed coordinator mode
// carried them. They are never reassigned, so a peer still sending one
// gets `ProtoError::BadType`, not a misread body.

impl Message {
    /// Exact frame-body length (everything after the 4-byte prefix)
    /// this message encodes to. Cheap — no buffer is built — so senders
    /// can reject oversized messages before allocating anything.
    pub fn encoded_len(&self) -> usize {
        2 + match self {
            Message::Hello { .. } => 4,
            Message::Stats { flows, .. } => 16 + 13 * flows.len(),
            Message::Schedule { rates, .. } => 12 + 12 * rates.len(),
            Message::Shutdown => 0,
        }
    }

    /// Encodes into a length-prefixed frame.
    ///
    /// Fails with [`ProtoError::Oversized`] when the body would exceed
    /// [`MAX_FRAME`] — the receiver's `decode_stream` would reject such
    /// a frame mid-stream anyway, so the failure belongs on the sender,
    /// where the message (and its flow count) is still in context.
    pub fn encode(&self) -> Result<Bytes, ProtoError> {
        let mut frame = BytesMut::new();
        self.encode_into(&mut frame)?;
        Ok(frame.freeze())
    }

    /// Appends the length-prefixed frame to `out` — the one encoder:
    /// [`Message::encoded_len`] is exact, so the prefix is written
    /// first and the body straight behind it, with no intermediate
    /// buffer. On `Err` nothing has been appended.
    pub fn encode_into(&self, out: &mut BytesMut) -> Result<(), ProtoError> {
        let body_len = self.encoded_len();
        if body_len > MAX_FRAME {
            return Err(ProtoError::Oversized(body_len));
        }
        #[cfg(test)]
        ENCODES.with(|n| n.set(n.get() + 1));
        out.reserve(4 + body_len);
        out.put_u32(body_len as u32);
        let start = out.len();
        out.put_u8(VERSION);
        match self {
            Message::Hello { node } => {
                out.put_u8(T_HELLO);
                out.put_u32(*node);
            }
            Message::Stats {
                node,
                now_ns,
                flows,
            } => {
                out.put_u8(T_STATS);
                out.put_u32(*node);
                out.put_u64(*now_ns);
                out.put_u32(flows.len() as u32);
                for f in flows {
                    out.put_u32(f.flow);
                    out.put_u64(f.sent);
                    out.put_u8(u8::from(f.finished) | (u8::from(f.ready) << 1));
                }
            }
            Message::Schedule { epoch, rates } => {
                out.put_u8(T_SCHEDULE);
                out.put_u64(*epoch);
                out.put_u32(rates.len() as u32);
                for r in rates {
                    out.put_u32(r.flow);
                    out.put_u64(r.rate);
                }
            }
            Message::Shutdown => {
                out.put_u8(T_SHUTDOWN);
            }
        }
        debug_assert_eq!(out.len() - start, body_len, "encoded_len out of sync");
        Ok(())
    }

    /// Decodes one frame *body* (everything after the length prefix).
    pub fn decode_body(mut body: Bytes) -> Result<Message, ProtoError> {
        if body.remaining() < 2 {
            return Err(ProtoError::Truncated);
        }
        let version = body.get_u8();
        if version != VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let ty = body.get_u8();
        let need = |b: &Bytes, n: usize| {
            if b.remaining() < n {
                Err(ProtoError::Truncated)
            } else {
                Ok(())
            }
        };
        match ty {
            T_HELLO => {
                need(&body, 4)?;
                Ok(Message::Hello {
                    node: body.get_u32(),
                })
            }
            T_STATS => {
                need(&body, 16)?;
                let node = body.get_u32();
                let now_ns = body.get_u64();
                let n = body.get_u32() as usize;
                if n > MAX_FRAME / 13 {
                    return Err(ProtoError::Oversized(n));
                }
                need(&body, n * 13)?;
                let mut flows = Vec::with_capacity(n);
                for _ in 0..n {
                    let flow = body.get_u32();
                    let sent = body.get_u64();
                    let bits = body.get_u8();
                    flows.push(FlowStat {
                        flow,
                        sent,
                        finished: bits & 1 != 0,
                        ready: bits & 2 != 0,
                    });
                }
                Ok(Message::Stats {
                    node,
                    now_ns,
                    flows,
                })
            }
            T_SCHEDULE => {
                need(&body, 12)?;
                let epoch = body.get_u64();
                let n = body.get_u32() as usize;
                if n > MAX_FRAME / 12 {
                    return Err(ProtoError::Oversized(n));
                }
                need(&body, n * 12)?;
                let mut rates = Vec::with_capacity(n);
                for _ in 0..n {
                    let flow = body.get_u32();
                    let rate = body.get_u64();
                    rates.push(RateAssignment { flow, rate });
                }
                Ok(Message::Schedule { epoch, rates })
            }
            T_SHUTDOWN => Ok(Message::Shutdown),
            other => Err(ProtoError::BadType(other)),
        }
    }

    /// Splits one complete frame off the front of `buf`, if present.
    /// Returns `Ok(None)` when more bytes are needed.
    pub fn decode_stream(buf: &mut BytesMut) -> Result<Option<Message>, ProtoError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized(len));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        buf.advance(4);
        let body = buf.split_to(len).freeze();
        Message::decode_body(body).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let frame = m.encode().unwrap();
        assert_eq!(
            frame.len(),
            4 + m.encoded_len(),
            "encoded_len must match the actual frame"
        );
        let mut buf = BytesMut::from(&frame[..]);
        let got = Message::decode_stream(&mut buf).unwrap().unwrap();
        assert_eq!(got, m);
        assert!(buf.is_empty(), "leftover bytes after decode");
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::Hello { node: 7 });
        roundtrip(Message::Shutdown);
        roundtrip(Message::Stats {
            node: 3,
            now_ns: 123_456_789,
            flows: vec![
                FlowStat {
                    flow: 0,
                    sent: 10,
                    finished: false,
                    ready: true,
                },
                FlowStat {
                    flow: 9,
                    sent: u64::MAX,
                    finished: true,
                    ready: false,
                },
            ],
        });
        roundtrip(Message::Schedule {
            epoch: 42,
            rates: vec![
                RateAssignment {
                    flow: 1,
                    rate: 125_000_000,
                },
                RateAssignment { flow: 2, rate: 0 },
            ],
        });
    }

    #[test]
    fn stats_flags_pack_independently() {
        for (finished, ready) in [(false, false), (true, false), (false, true), (true, true)] {
            roundtrip(Message::Stats {
                node: 0,
                now_ns: 0,
                flows: vec![FlowStat {
                    flow: 1,
                    sent: 2,
                    finished,
                    ready,
                }],
            });
        }
    }

    #[test]
    fn oversized_messages_fail_at_encode_time() {
        // A Stats report that would exceed MAX_FRAME must be rejected by
        // the *sender*, with the offending size, not abort the
        // receiver's stream mid-decode.
        let flows = vec![
            FlowStat {
                flow: 0,
                sent: 0,
                finished: false,
                ready: true,
            };
            MAX_FRAME / 13 + 1
        ];
        let m = Message::Stats {
            node: 0,
            now_ns: 0,
            flows,
        };
        assert!(m.encoded_len() > MAX_FRAME);
        assert!(matches!(m.encode(), Err(ProtoError::Oversized(_))));

        // Schedule pushes are bounded the same way.
        let rates = vec![RateAssignment { flow: 0, rate: 0 }; MAX_FRAME / 12 + 1];
        let m = Message::Schedule { epoch: 1, rates };
        assert!(matches!(m.encode(), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn streaming_decode_handles_partial_and_multiple_frames() {
        let a = Message::Hello { node: 1 }.encode().unwrap();
        let b = Message::Shutdown.encode().unwrap();
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        // Feed byte by byte: no frame until complete.
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for byte in stream.iter() {
            buf.extend_from_slice(&[*byte]);
            while let Some(m) = Message::decode_stream(&mut buf).unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, vec![Message::Hello { node: 1 }, Message::Shutdown]);
    }

    #[test]
    fn rejects_bad_version_and_type() {
        let mut frame = BytesMut::new();
        frame.put_u32(2);
        frame.put_u8(99); // bad version
        frame.put_u8(T_HELLO);
        let mut buf = frame.clone();
        assert_eq!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::BadVersion(99))
        );

        let mut frame = BytesMut::new();
        frame.put_u32(2);
        frame.put_u8(VERSION);
        frame.put_u8(200); // bad type
        let mut buf = frame;
        assert_eq!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::BadType(200))
        );
    }

    /// Tags 5, 6 and 7 belonged to the sharded coordinator's frames
    /// (`ShardSchedule`, `Reconcile`, `ContentionSummary`). A frame that
    /// was well-formed under that codec is now an unknown type, through
    /// either decoder, and never a panic.
    #[test]
    fn retired_tags_decode_to_bad_type() {
        // ShardSchedule: shard, epoch, one (flow, rate).
        let mut slice = BytesMut::new();
        slice.put_u32(2);
        slice.put_u64(11);
        slice.put_u32(1);
        slice.put_u32(4);
        slice.put_u64(2_000);
        // Reconcile: epoch, now_ns, rebuild.
        let mut barrier = BytesMut::new();
        barrier.put_u64(9);
        barrier.put_u64(77_000);
        barrier.put_u8(1);
        // ContentionSummary: shard, round, four empty counted lists.
        let mut summary = BytesMut::new();
        summary.put_u32(3);
        summary.put_u64(17);
        for _ in 0..4 {
            summary.put_u32(0);
        }
        for (tag, payload) in [(5, slice), (6, barrier), (7, summary)] {
            let mut body = BytesMut::new();
            body.put_u8(VERSION);
            body.put_u8(tag);
            body.extend_from_slice(&payload);
            assert_eq!(
                Message::decode_body(body.clone().freeze()),
                Err(ProtoError::BadType(tag))
            );
            let mut stream = BytesMut::new();
            stream.put_u32(body.len() as u32);
            stream.extend_from_slice(&body);
            assert_eq!(
                Message::decode_stream(&mut stream),
                Err(ProtoError::BadType(tag))
            );
        }
    }

    #[test]
    fn rejects_truncated_and_oversized() {
        // Truncated payload: claims a hello but has no node.
        let mut frame = BytesMut::new();
        frame.put_u32(2);
        frame.put_u8(VERSION);
        frame.put_u8(T_HELLO);
        let mut buf = frame;
        assert_eq!(Message::decode_stream(&mut buf), Err(ProtoError::Truncated));

        // Oversized length prefix.
        let mut frame = BytesMut::new();
        frame.put_u32((MAX_FRAME + 1) as u32);
        let mut buf = frame;
        assert!(matches!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::Oversized(_))
        ));

        // Stats with an absurd element count.
        let mut frame = BytesMut::new();
        frame.put_u32(18);
        frame.put_u8(VERSION);
        frame.put_u8(T_STATS);
        frame.put_u32(0);
        frame.put_u64(0);
        frame.put_u32(u32::MAX);
        let mut buf = frame;
        assert!(matches!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn empty_buffer_wants_more() {
        let mut buf = BytesMut::new();
        assert_eq!(Message::decode_stream(&mut buf), Ok(None));
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(Message::decode_stream(&mut buf), Ok(None));
    }
}
