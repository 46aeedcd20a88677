//! The coordinator ↔ agent wire protocol.
//!
//! Binary framing through `saath_simcore::codec` (DESIGN.md, "Byte
//! codec"): every frame is
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

use saath_simcore::codec::{CodecError, Fault, Put as _, Reader};

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

/// The wire reads only fixed-width integers and bounded counts, so
/// every codec failure is a frame cut short.
impl From<CodecError> for ProtoError {
    fn from(_: CodecError) -> ProtoError {
        ProtoError::Truncated
    }
}

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
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame)?;
        Ok(frame)
    }

    /// Appends the length-prefixed frame to `out` — the one encoder:
    /// [`Message::encoded_len`] is exact, so the prefix is written
    /// first and the body straight behind it, with no intermediate
    /// buffer. On `Err` nothing has been appended.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        let body_len = self.encoded_len();
        if body_len > MAX_FRAME {
            return Err(ProtoError::Oversized(body_len));
        }
        #[cfg(test)]
        ENCODES.with(|n| n.set(n.get() + 1));
        out.reserve(4 + body_len);
        out.put_u32_be(body_len as u32);
        let start = out.len();
        out.put_u8(VERSION);
        match self {
            Message::Hello { node } => {
                out.put_u8(T_HELLO);
                out.put_u32_be(*node);
            }
            Message::Stats {
                node,
                now_ns,
                flows,
            } => {
                out.put_u8(T_STATS);
                out.put_u32_be(*node);
                out.put_u64_be(*now_ns);
                out.put_u32_be(flows.len() as u32);
                for f in flows {
                    out.put_u32_be(f.flow);
                    out.put_u64_be(f.sent);
                    out.put_u8(u8::from(f.finished) | (u8::from(f.ready) << 1));
                }
            }
            Message::Schedule { epoch, rates } => {
                out.put_u8(T_SCHEDULE);
                out.put_u64_be(*epoch);
                out.put_u32_be(rates.len() as u32);
                for r in rates {
                    out.put_u32_be(r.flow);
                    out.put_u64_be(r.rate);
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
    pub fn decode_body(body: &[u8]) -> Result<Message, ProtoError> {
        let mut r = Reader::new(body);
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        match r.u8("type")? {
            T_HELLO => Ok(Message::Hello {
                node: r.u32_be("node")?,
            }),
            T_STATS => {
                let node = r.u32_be("node")?;
                let now_ns = r.u64_be("now_ns")?;
                let n = counted(&mut r, "flow stats", 13)?;
                let mut flows = Vec::with_capacity(n);
                for _ in 0..n {
                    let flow = r.u32_be("flow")?;
                    let sent = r.u64_be("sent")?;
                    let bits = r.u8("flags")?;
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
                let epoch = r.u64_be("epoch")?;
                let n = counted(&mut r, "rates", 12)?;
                let mut rates = Vec::with_capacity(n);
                for _ in 0..n {
                    let flow = r.u32_be("flow")?;
                    let rate = r.u64_be("rate")?;
                    rates.push(RateAssignment { flow, rate });
                }
                Ok(Message::Schedule { epoch, rates })
            }
            T_SHUTDOWN => Ok(Message::Shutdown),
            other => Err(ProtoError::BadType(other)),
        }
    }

    /// Splits one complete frame off the front of `buf`, if present.
    /// Returns `Ok(None)` when more bytes are needed. A frame that does
    /// not decode is consumed with its error.
    pub fn decode_stream(buf: &mut Vec<u8>) -> Result<Option<Message>, ProtoError> {
        let Ok(len) = Reader::new(buf).u32_be("length") else {
            return Ok(None);
        };
        let len = len as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized(len));
        }
        let Some(body) = buf.get(4..4 + len) else {
            return Ok(None);
        };
        let m = Message::decode_body(body);
        buf.drain(..4 + len);
        m.map(Some)
    }
}

/// A big-endian `u32` element count: over [`MAX_FRAME`]'s worth of
/// `elem`-byte elements it is [`ProtoError::Oversized`], past the bytes
/// left [`ProtoError::Truncated`].
fn counted(r: &mut Reader<'_>, field: &'static str, elem: usize) -> Result<usize, ProtoError> {
    r.count_u32_be(field, elem).map_err(|e| match e.fault {
        Fault::Count { count, .. } if count as usize > MAX_FRAME / elem => {
            ProtoError::Oversized(count as usize)
        }
        _ => ProtoError::Truncated,
    })
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
        let mut buf = frame.clone();
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
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        // Feed byte by byte: no frame until complete.
        let mut buf = Vec::new();
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
        let mut frame = Vec::new();
        frame.put_u32_be(2);
        frame.put_u8(99); // bad version
        frame.put_u8(T_HELLO);
        let mut buf = frame.clone();
        assert_eq!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::BadVersion(99))
        );

        let mut frame = Vec::new();
        frame.put_u32_be(2);
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
        let mut slice = Vec::new();
        slice.put_u32_be(2);
        slice.put_u64_be(11);
        slice.put_u32_be(1);
        slice.put_u32_be(4);
        slice.put_u64_be(2_000);
        // Reconcile: epoch, now_ns, rebuild.
        let mut barrier = Vec::new();
        barrier.put_u64_be(9);
        barrier.put_u64_be(77_000);
        barrier.put_u8(1);
        // ContentionSummary: shard, round, four empty counted lists.
        let mut summary = Vec::new();
        summary.put_u32_be(3);
        summary.put_u64_be(17);
        for _ in 0..4 {
            summary.put_u32_be(0);
        }
        for (tag, payload) in [(5, slice), (6, barrier), (7, summary)] {
            let mut body = Vec::new();
            body.put_u8(VERSION);
            body.put_u8(tag);
            body.extend_from_slice(&payload);
            assert_eq!(Message::decode_body(&body), Err(ProtoError::BadType(tag)));
            let mut stream = Vec::new();
            stream.put_u32_be(body.len() as u32);
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
        let mut frame = Vec::new();
        frame.put_u32_be(2);
        frame.put_u8(VERSION);
        frame.put_u8(T_HELLO);
        let mut buf = frame;
        assert_eq!(Message::decode_stream(&mut buf), Err(ProtoError::Truncated));

        // Oversized length prefix.
        let mut frame = Vec::new();
        frame.put_u32_be((MAX_FRAME + 1) as u32);
        let mut buf = frame;
        assert!(matches!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::Oversized(_))
        ));

        // Stats with an absurd element count.
        let mut frame = Vec::new();
        frame.put_u32_be(18);
        frame.put_u8(VERSION);
        frame.put_u8(T_STATS);
        frame.put_u32_be(0);
        frame.put_u64_be(0);
        frame.put_u32_be(u32::MAX);
        let mut buf = frame;
        assert!(matches!(
            Message::decode_stream(&mut buf),
            Err(ProtoError::Oversized(_))
        ));
    }

    /// One frame of each variant, byte for byte: the length prefix and
    /// every integer big-endian, the stats flags packed into one byte.
    #[test]
    fn golden_frames_are_pinned() {
        let cases: [(Message, &[u8]); 4] = [
            (Message::Hello { node: 7 }, &[0, 0, 0, 6, 1, 1, 0, 0, 0, 7]),
            (
                Message::Stats {
                    node: 3,
                    now_ns: 123_456_789,
                    flows: vec![FlowStat {
                        flow: 9,
                        sent: 10,
                        finished: true,
                        ready: true,
                    }],
                },
                &[
                    0, 0, 0, 31, 1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0x07, 0x5b, 0xcd, 0x15, 0, 0, 0, 1,
                    0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 10, 3,
                ],
            ),
            (
                Message::Schedule {
                    epoch: 42,
                    rates: vec![RateAssignment {
                        flow: 1,
                        rate: 125_000_000,
                    }],
                },
                &[
                    0, 0, 0, 26, 1, 3, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0,
                    0x07, 0x73, 0x59, 0x40,
                ],
            ),
            (Message::Shutdown, &[0, 0, 0, 2, 1, 4]),
        ];
        for (m, golden) in cases {
            assert_eq!(&m.encode().unwrap()[..], golden, "{m:?}");
            assert_eq!(Message::decode_body(golden[4..].into()), Ok(m));
        }
    }

    #[test]
    fn empty_buffer_wants_more() {
        let mut buf = Vec::new();
        assert_eq!(Message::decode_stream(&mut buf), Ok(None));
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(Message::decode_stream(&mut buf), Ok(None));
    }
}
