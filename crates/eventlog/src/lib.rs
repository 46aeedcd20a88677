//! # saath-eventlog
//!
//! A hash-chained, binary, integer-only event log for deterministic
//! replay runs, plus the differential harness that compares two logs
//! down to the first divergent scheduling round.
//!
//! Every equivalence guarantee in this workspace (incremental engine vs
//! reference loop, schedule reuse vs computing every round, incremental
//! vs full recompute) is stated over byte-identical per-CoFlow records —
//! an end-of-run property. This crate makes the *per-round* trajectory
//! durable and verifiable:
//!
//! * **Round records.** Each scheduling round appends one canonical
//!   binary record (round ordinal, simulated time, active-CoFlow count,
//!   and the schedule as `(flow, src, dst, rate)` tuples sorted by flow
//!   id). Everything is a fixed-width little-endian integer, written
//!   and read through `saath_simcore::codec` (DESIGN.md, "Byte codec").
//! * **Chained digests.** Record *i* carries
//!   `hash_i = H(hash_{i-1} ‖ canonical_round_bytes)` where `H` is the
//!   workspace [`FastHasher`] widened to 128 bits (two independently
//!   seeded lanes). Equal digests at round *i* imply the entire round
//!   prefix is equal, so first-divergence search is a binary search
//!   over digests instead of a record-by-record scan.
//! * **Snapshots.** Engine snapshots (opaque blobs produced by the
//!   simulator) are framed into the same log but **excluded from the
//!   chain**, so two runs with different snapshot cadences still chain
//!   to identical digests.
//! * **Streaming verify.** [`verify`] re-derives the chain in one
//!   forward pass holding only the current record — O(1) memory in the
//!   log length — and reports the exact first unverifiable round.
//! * **Resume-compatible chains.** A log written by a resumed run
//!   starts at `start_round > 0` with `start_digest` equal to the
//!   original chain value at the snapshot point, so [`diff_logs`] can
//!   align it against the uninterrupted log and prove byte-identical
//!   continuation round by round.
//!
//! [`FastHasher`]: saath_simcore::fasthash::FastHasher

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::hash::Hasher as _;
use std::io::{Read, Write};

use saath_simcore::codec::{CodecError, Put as _, Reader};
use saath_simcore::fasthash::FastHasher;

/// File magic ("Saath EVent log").
const MAGIC: [u8; 4] = *b"SAEV";
/// Format version.
const VERSION: u32 = 1;
/// Frame kind: a chained round record.
const KIND_ROUND: u8 = 1;
/// Frame kind: an engine snapshot (not chained).
const KIND_SNAPSHOT: u8 = 2;
/// Sanity bound on a single frame's payload (corrupt length prefixes
/// must not make readers allocate unbounded memory).
const MAX_FRAME: u64 = 1 << 31;

/// Domain-separation constants making the two digest lanes independent
/// mixers (same rotate-xor-multiply core, different starting words).
const LANE_DOMAIN: [u64; 2] = [0x5361_6174_6845_4c31, 0x5361_6174_6845_4c32];

/// The 128-bit chain digest: the workspace's `FastHasher` widened to
/// two independently seeded lanes.
///
/// Not cryptographic — this guards against drift and bit rot between
/// two *honest* runs, exactly like the hasher it is built from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainDigest(pub [u64; 2]);

impl ChainDigest {
    /// The chain's genesis value (an all-zero digest).
    pub const ZERO: ChainDigest = ChainDigest([0, 0]);

    /// `hash_i = H(hash_{i-1} ‖ payload)`: folds `payload` into the
    /// chain and returns the next digest.
    pub fn advance(self, payload: &[u8]) -> ChainDigest {
        let mut out = [0u64; 2];
        for (lane, slot) in out.iter_mut().enumerate() {
            let mut h = FastHasher::default();
            h.write_u64(LANE_DOMAIN[lane]);
            h.write_u64(self.0[0]);
            h.write_u64(self.0[1]);
            h.write(payload);
            // Length word: "abc" + "" must not chain like "ab" + "c".
            h.write_u64(payload.len() as u64);
            *slot = h.finish();
        }
        ChainDigest(out)
    }

    /// Digest over a standalone byte string (chains from [`ZERO`]).
    ///
    /// [`ZERO`]: ChainDigest::ZERO
    pub fn of(payload: &[u8]) -> ChainDigest {
        ChainDigest::ZERO.advance(payload)
    }

    /// Lowercase hex rendering (32 nibbles).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Why a log could not be written, read, or verified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// Underlying I/O failed (message carries the OS error text).
    Io(String),
    /// The header or framing preamble is not a valid event log.
    Malformed(String),
    /// The chain broke: `round` is the first round ordinal that could
    /// not be verified (digest mismatch, or an unreadable frame after
    /// `round - start_round` good rounds).
    Corrupt {
        /// First unverifiable round ordinal.
        round: u64,
        /// What exactly failed at that round.
        reason: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "event-log I/O error: {e}"),
            LogError::Malformed(e) => write!(f, "malformed event log: {e}"),
            LogError::Corrupt { round, reason } => {
                write!(f, "event log corrupt at round {round}: {reason}")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl From<CodecError> for LogError {
    fn from(e: CodecError) -> LogError {
        LogError::Malformed(e.to_string())
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> LogError {
        LogError::Io(e.to_string())
    }
}

/// One scheduled flow in a round record: the flow, its endpoints (node
/// indices — uplink port = `src`, downlink port = `num_nodes + dst`),
/// and the granted rate in bytes/second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateEntry {
    /// Dense flow id.
    pub flow: u32,
    /// Sending node index.
    pub src: u32,
    /// Receiving node index.
    pub dst: u32,
    /// Granted rate, bytes/second (never zero — paused flows are
    /// simply absent).
    pub rate: u64,
}

/// One scheduling round, in canonical form: entries sorted by flow id
/// so two policies or engines that emit the same rates in different
/// orders produce identical bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Scheduling-round ordinal (0-based, global across resumes).
    pub round: u64,
    /// Simulated time at the round boundary, nanoseconds.
    pub now_ns: u64,
    /// CoFlows active at the boundary.
    pub active: u32,
    /// The schedule; canonicalized (sorted by flow id) on encode.
    pub entries: Vec<RateEntry>,
}

impl RoundRecord {
    /// The canonical chained bytes: fixed-width little-endian fields
    /// with entries sorted by flow id. Encoding an already-decoded
    /// record reproduces the identical byte string.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.flow);
        let mut out = Vec::with_capacity(24 + entries.len() * 24);
        out.put_u64_le(self.round);
        out.put_u64_le(self.now_ns);
        out.put_u32_le(self.active);
        out.put_u32_le(entries.len() as u32);
        for e in &entries {
            out.put_u32_le(e.flow);
            out.put_u32_le(e.src);
            out.put_u32_le(e.dst);
            out.put_u64_le(e.rate);
        }
        out
    }

    /// Decodes canonical bytes back into a record.
    pub fn decode(buf: &[u8]) -> Result<RoundRecord, LogError> {
        let mut r = Reader::new(buf);
        let round = r.u64_le("round")?;
        let now_ns = r.u64_le("now_ns")?;
        let active = r.u32_le("active")?;
        // Each entry is 20 bytes (u32 flow/src/dst + u64 rate).
        let n = r.count_u32_le("entry count", 20)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(RateEntry {
                flow: r.u32_le("entry flow")?,
                src: r.u32_le("entry src")?,
                dst: r.u32_le("entry dst")?,
                rate: r.u64_le("entry rate")?,
            });
        }
        r.finish("round record")?;
        Ok(RoundRecord {
            round,
            now_ns,
            active,
            entries,
        })
    }
}

/// Log identity: enough run context to refuse apples-to-oranges diffs
/// and resumes, plus the chain seed for resumed logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHeader {
    /// Cluster size (ports number `2 * num_nodes`).
    pub num_nodes: u64,
    /// Nominal per-port rate, bytes/second.
    pub port_rate: u64,
    /// Coordination interval δ, nanoseconds.
    pub delta_ns: u64,
    /// Scheduler name (`CoflowScheduler::name`).
    pub scheduler: String,
    /// Digest of the trace the run replayed (drivers compute it over
    /// the flattened spec; zero when unused).
    pub trace_digest: ChainDigest,
    /// First round ordinal this log contains (0 for a fresh run, the
    /// snapshot round for a resumed run).
    pub start_round: u64,
    /// Chain value entering `start_round` ([`ChainDigest::ZERO`] for a
    /// fresh run; the original log's digest at the snapshot point for a
    /// resumed run).
    pub start_digest: ChainDigest,
}

impl LogHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64_le(self.num_nodes);
        out.put_u64_le(self.port_rate);
        out.put_u64_le(self.delta_ns);
        out.put_bytes_le(self.scheduler.as_bytes());
        out.put_u64_le(self.trace_digest.0[0]);
        out.put_u64_le(self.trace_digest.0[1]);
        out.put_u64_le(self.start_round);
        out.put_u64_le(self.start_digest.0[0]);
        out.put_u64_le(self.start_digest.0[1]);
        out
    }

    fn decode(buf: &[u8]) -> Result<LogHeader, LogError> {
        let mut r = Reader::new(buf);
        let digest = |r: &mut Reader<'_>, field| -> Result<ChainDigest, CodecError> {
            Ok(ChainDigest([r.u64_le(field)?, r.u64_le(field)?]))
        };
        let num_nodes = r.u64_le("num_nodes")?;
        let port_rate = r.u64_le("port_rate")?;
        let delta_ns = r.u64_le("delta_ns")?;
        let at = r.pos();
        let scheduler = String::from_utf8(r.bytes_le("scheduler")?.to_vec()).map_err(|e| {
            LogError::Malformed(format!("scheduler at offset {at}: not UTF-8: {e}"))
        })?;
        Ok(LogHeader {
            num_nodes,
            port_rate,
            delta_ns,
            scheduler,
            trace_digest: digest(&mut r, "trace_digest")?,
            start_round: r.u64_le("start_round")?,
            start_digest: digest(&mut r, "start_digest")?,
        })
    }
}

/// Anything the replay engine can append rounds and snapshots to.
///
/// The simulator takes `Option<&mut dyn RoundSink>` so it needs no
/// generic plumbing; [`EventLogWriter`] is the canonical
/// implementation. Both methods return the bytes written, which the
/// engine feeds into its telemetry counters.
pub trait RoundSink {
    /// Appends one round record; returns bytes written.
    fn append_round(&mut self, rec: &RoundRecord) -> Result<u64, LogError>;
    /// Appends one engine snapshot taken with `round` rounds completed;
    /// returns bytes written.
    fn append_snapshot(&mut self, round: u64, blob: &[u8]) -> Result<u64, LogError>;
}

/// Streaming log writer: frames round records (chained) and snapshots
/// (unchained) onto any [`Write`] target.
pub struct EventLogWriter<W: Write> {
    w: W,
    digest: ChainDigest,
    next_round: u64,
    bytes: u64,
}

impl<W: Write> EventLogWriter<W> {
    /// Writes the magic, version, and header; subsequent appends chain
    /// from `header.start_digest`.
    pub fn new(mut w: W, header: &LogHeader) -> Result<EventLogWriter<W>, LogError> {
        let mut pre = Vec::new();
        pre.extend_from_slice(&MAGIC);
        pre.put_u32_le(VERSION);
        pre.put_bytes_le(&header.encode());
        w.write_all(&pre)?;
        Ok(EventLogWriter {
            w,
            digest: header.start_digest,
            next_round: header.start_round,
            bytes: pre.len() as u64,
        })
    }

    /// The chain digest after the last appended round.
    pub fn digest(&self) -> ChainDigest {
        self.digest
    }

    /// Total bytes written (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> Result<W, LogError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> RoundSink for EventLogWriter<W> {
    fn append_round(&mut self, rec: &RoundRecord) -> Result<u64, LogError> {
        if rec.round != self.next_round {
            return Err(LogError::Malformed(format!(
                "round records must be contiguous: got {}, expected {}",
                rec.round, self.next_round
            )));
        }
        let payload = rec.canonical_bytes();
        self.digest = self.digest.advance(&payload);
        let mut frame = Vec::with_capacity(payload.len() + 25);
        frame.put_u8(KIND_ROUND);
        frame.put_bytes_le(&payload);
        frame.put_u64_le(self.digest.0[0]);
        frame.put_u64_le(self.digest.0[1]);
        self.w.write_all(&frame)?;
        self.next_round += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    fn append_snapshot(&mut self, round: u64, blob: &[u8]) -> Result<u64, LogError> {
        let mut frame = Vec::with_capacity(blob.len() + 17);
        frame.put_u8(KIND_SNAPSHOT);
        frame.put_u64_le((blob.len() + 8) as u64);
        frame.put_u64_le(round);
        frame.extend_from_slice(blob);
        self.w.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }
}

/// What a successful [`verify`] pass established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifySummary {
    /// First round ordinal in the log (`header.start_round`).
    pub start_round: u64,
    /// Round records verified.
    pub rounds: u64,
    /// Snapshot frames seen (not chained, not verified).
    pub snapshots: u64,
    /// The chain digest after the last round.
    pub digest: ChainDigest,
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, LogError> {
    let mut got = 0;
    while got < buf.len() {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

/// Replaces `buf` with the next `len` bytes of `r`; `false` when the
/// input ends first. The buffer grows with the bytes that arrive, not
/// with `len`, so a damaged length prefix (up to [`MAX_FRAME`]) costs no
/// more memory than the input holds.
fn read_len_prefixed<R: Read>(r: &mut R, len: u64, buf: &mut Vec<u8>) -> Result<bool, LogError> {
    buf.clear();
    r.by_ref().take(len).read_to_end(buf)?;
    Ok(buf.len() as u64 == len)
}

/// Reads the magic, the version and the header off the front of a
/// log; `buf` is scratch.
fn read_header<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<LogHeader, LogError> {
    let mut pre = [0u8; 8];
    if read_exact_or_eof(r, &mut pre)? != 8 {
        return Err(LogError::Malformed("shorter than the magic".into()));
    }
    if pre[..4] != MAGIC {
        return Err(LogError::Malformed("bad magic".into()));
    }
    let version = u32::from_le_bytes([pre[4], pre[5], pre[6], pre[7]]);
    if version != VERSION {
        return Err(LogError::Malformed(format!("unknown version {version}")));
    }
    let mut len8 = [0u8; 8];
    if read_exact_or_eof(r, &mut len8)? != 8 {
        return Err(LogError::Malformed("truncated header length".into()));
    }
    let hlen = u64::from_le_bytes(len8);
    if hlen > MAX_FRAME {
        return Err(LogError::Malformed(format!("header length {hlen} absurd")));
    }
    if !read_len_prefixed(r, hlen, buf)? {
        return Err(LogError::Malformed("truncated header".into()));
    }
    LogHeader::decode(buf)
}

/// Reads one frame's kind and length-prefixed payload into `payload`;
/// `None` at a clean end of the log. A round frame's stored digest,
/// which follows the payload, is left for the caller.
fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<Option<u8>, LogError> {
    let mut kind = [0u8; 1];
    if read_exact_or_eof(r, &mut kind)? == 0 {
        return Ok(None);
    }
    let mut len8 = [0u8; 8];
    if read_exact_or_eof(r, &mut len8)? != 8 {
        return Err(LogError::Malformed("truncated frame length".into()));
    }
    let plen = u64::from_le_bytes(len8);
    if plen > MAX_FRAME {
        return Err(LogError::Malformed(format!("frame length {plen} absurd")));
    }
    if !read_len_prefixed(r, plen, payload)? {
        return Err(LogError::Malformed("truncated frame payload".into()));
    }
    Ok(Some(kind[0]))
}

/// Streams through a log once, re-deriving the digest chain and
/// checking it against every stored digest. Holds one frame at a time —
/// O(1) memory in the number of rounds. Any unverifiable frame after
/// `k` good rounds fails with [`LogError::Corrupt`] at round
/// `start_round + k`.
pub fn verify<R: Read>(mut r: R) -> Result<VerifySummary, LogError> {
    let mut payload: Vec<u8> = Vec::new();
    let header = read_header(&mut r, &mut payload)?;

    let mut digest = header.start_digest;
    let mut rounds = 0u64;
    let mut snapshots = 0u64;
    loop {
        // Cannot wrap: a round is counted only once its end fits.
        let next_round = header.start_round + rounds;
        let corrupt = |reason: String| LogError::Corrupt {
            round: next_round,
            reason,
        };
        let kind = match read_frame(&mut r, &mut payload) {
            Ok(Some(kind)) => kind,
            Ok(None) => break, // clean end of log
            Err(LogError::Malformed(reason)) => return Err(corrupt(reason)),
            Err(e) => return Err(e),
        };
        match kind {
            KIND_ROUND => {
                let mut stored = [0u8; 16];
                if read_exact_or_eof(&mut r, &mut stored)? != 16 {
                    return Err(corrupt("truncated stored digest".into()));
                }
                let rec = RoundRecord::decode(&payload)
                    .map_err(|e| corrupt(format!("undecodable round record: {e}")))?;
                if rec.round != next_round {
                    return Err(corrupt(format!(
                        "round ordinal {} out of sequence",
                        rec.round
                    )));
                }
                digest = digest.advance(&payload);
                let mut d = Reader::new(&stored);
                let stored = ChainDigest([d.u64_le("stored digest")?, d.u64_le("stored digest")?]);
                if digest != stored {
                    return Err(corrupt(format!(
                        "chain digest mismatch (computed {}, stored {})",
                        digest.to_hex(),
                        stored.to_hex()
                    )));
                }
                if next_round == u64::MAX {
                    return Err(corrupt("the log's end ordinal overflows u64".into()));
                }
                rounds += 1;
            }
            KIND_SNAPSHOT => {
                if payload.len() < 8 {
                    return Err(corrupt("snapshot frame shorter than its round".into()));
                }
                snapshots += 1;
            }
            k => return Err(corrupt(format!("unknown frame kind {k}"))),
        }
    }
    Ok(VerifySummary {
        start_round: header.start_round,
        rounds,
        snapshots,
        digest,
    })
}

/// [`verify`] over a file path (buffered; still O(1) memory).
pub fn verify_path(path: &std::path::Path) -> Result<VerifySummary, LogError> {
    let f = std::fs::File::open(path)?;
    verify(std::io::BufReader::new(f))
}

/// A snapshot copied out of a log: the one blob a resume uses, not the
/// log around it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumePoint {
    /// Rounds completed at the snapshot (= the resumed log's
    /// `start_round`).
    pub round: u64,
    /// Chain digest entering `round`, as stored in the log (= the
    /// resumed log's `start_digest`).
    pub digest: ChainDigest,
    /// The engine blob.
    pub blob: Vec<u8>,
}

/// Streams through a log once and copies out the snapshot a resume
/// starts from: the last snapshot with a round record after it — a
/// cadence that hits the final round exactly leaves one with nothing
/// to continue — else the last snapshot; `None` when the log holds
/// none. In a log the engine wrote, the snapshot at round `s` lies
/// just before round `s`'s record, so this is also the last snapshot
/// whose round is below the log's end ordinal.
///
/// Holds one frame and at most two snapshot blobs at a time, however
/// long the log. Like [`index_log`], it refuses bad framing anywhere
/// in the log but does not re-derive the chain — [`verify`] does.
pub fn resume_point<R: Read>(mut r: R) -> Result<Option<ResumePoint>, LogError> {
    let mut payload: Vec<u8> = Vec::new();
    let header = read_header(&mut r, &mut payload)?;
    let mut digest = header.start_digest;
    let mut next_round = header.start_round;
    // The last snapshot with a round after it, and a later one with
    // none yet.
    let (mut followed, mut trailing): (Option<ResumePoint>, Option<ResumePoint>) = (None, None);
    while let Some(kind) = read_frame(&mut r, &mut payload)? {
        match kind {
            KIND_ROUND => {
                let mut stored = [0u8; 16];
                if read_exact_or_eof(&mut r, &mut stored)? != 16 {
                    return Err(LogError::Malformed("truncated stored digest".into()));
                }
                if next_round == u64::MAX {
                    return Err(LogError::Malformed(
                        "the log's end ordinal overflows u64".into(),
                    ));
                }
                next_round += 1;
                let mut d = Reader::new(&stored);
                digest = ChainDigest([d.u64_le("stored digest")?, d.u64_le("stored digest")?]);
                if trailing.is_some() {
                    followed = trailing.take();
                }
            }
            KIND_SNAPSHOT => {
                let round = Reader::new(&payload).u64_le("snapshot round")?;
                // The snapshot it displaces has no round after it and is
                // not the last: its buffer takes the new blob.
                let mut blob = trailing.take().map(|t| t.blob).unwrap_or_default();
                blob.clear();
                blob.extend_from_slice(&payload[8..]);
                trailing = Some(ResumePoint {
                    round,
                    digest,
                    blob,
                });
            }
            k => return Err(LogError::Malformed(format!("unknown frame kind {k}"))),
        }
    }
    Ok(followed.or(trailing))
}

/// One round's position in a parsed log.
#[derive(Clone, Copy, Debug)]
pub struct RoundIndexEntry {
    /// Round ordinal.
    pub round: u64,
    /// Stored chain digest after this round.
    pub digest: ChainDigest,
    /// Payload byte range within the log buffer.
    pub offset: usize,
    /// Payload length.
    pub len: usize,
}

/// A snapshot's engine blob, borrowed from the log an index was built
/// over rather than copied; a caller that outlives the log copies the
/// one it uses. A slice with the `as_slice` of the `Vec` this field
/// once was, which `[u8]` lacks on stable Rust.
#[derive(Clone, Copy, Debug)]
pub struct Blob<'a>(pub &'a [u8]);

impl<'a> Blob<'a> {
    /// The blob's bytes, borrowed from the log.
    pub fn as_slice(&self) -> &'a [u8] {
        self.0
    }
}

impl std::ops::Deref for Blob<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0
    }
}

/// A snapshot in a log, with everything a resume needs.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRef<'a> {
    /// Rounds completed when the snapshot was taken (= the resumed
    /// log's `start_round`).
    pub round: u64,
    /// The engine blob.
    pub blob: Blob<'a>,
    /// Chain digest entering `round` (= the resumed log's
    /// `start_digest`).
    pub digest: ChainDigest,
}

/// A fully indexed in-memory log (used by the differ and the resume
/// path; [`verify`] is the streaming alternative). [`index_log`]
/// refuses a log whose end ordinal `start_round + rounds.len()` would
/// not fit a `u64`.
#[derive(Clone, Debug)]
pub struct LogIndex<'a> {
    /// The log's header.
    pub header: LogHeader,
    /// Every round record, in order.
    pub rounds: Vec<RoundIndexEntry>,
    /// Every snapshot, in order.
    pub snapshots: Vec<SnapshotRef<'a>>,
}

/// Indexes a log held in memory: offsets and stored digests for every
/// round, and where every snapshot blob lies. Does not re-derive the
/// chain — run [`verify`] first when integrity is in question.
pub fn index_log(bytes: &[u8]) -> Result<LogIndex<'_>, LogError> {
    let mut r = Reader::new(bytes);
    if r.take("magic", 4)? != MAGIC {
        return Err(LogError::Malformed("bad magic".into()));
    }
    let version = r.u32_le("version")?;
    if version != VERSION {
        return Err(LogError::Malformed(format!("unknown version {version}")));
    }
    let header = LogHeader::decode(r.bytes_le("header")?)?;
    let mut rounds = Vec::new();
    let mut snapshots = Vec::new();
    let mut digest = header.start_digest;
    while !r.is_empty() {
        let kind = r.u8("frame kind")?;
        let payload_off = r.pos() + 8;
        let payload = r.bytes_le("frame payload")?;
        match kind {
            KIND_ROUND => {
                let stored = ChainDigest([r.u64_le("stored digest")?, r.u64_le("stored digest")?]);
                // Cannot wrap: the previous round's end was checked.
                let round = header.start_round + rounds.len() as u64;
                if round == u64::MAX {
                    return Err(LogError::Malformed(
                        "the log's end ordinal overflows u64".into(),
                    ));
                }
                rounds.push(RoundIndexEntry {
                    round,
                    digest: stored,
                    offset: payload_off,
                    len: payload.len(),
                });
                digest = stored;
            }
            KIND_SNAPSHOT => {
                let round = Reader::new(payload).u64_le("snapshot round")?;
                snapshots.push(SnapshotRef {
                    round,
                    blob: Blob(&payload[8..]),
                    digest,
                });
            }
            k => return Err(LogError::Malformed(format!("unknown frame kind {k}"))),
        }
    }
    Ok(LogIndex {
        header,
        rounds,
        snapshots,
    })
}

impl<'a> LogIndex<'a> {
    /// Decodes the round record at `entry` from the same buffer this
    /// index was built over (any other buffer too short for it is
    /// refused).
    pub fn read_round(
        &self,
        bytes: &[u8],
        entry: &RoundIndexEntry,
    ) -> Result<RoundRecord, LogError> {
        let payload = entry
            .offset
            .checked_add(entry.len)
            .and_then(|end| bytes.get(entry.offset..end))
            .ok_or_else(|| LogError::Malformed("round entry lies past the log".into()))?;
        RoundRecord::decode(payload)
    }

    /// The last snapshot in the log, if any.
    pub fn last_snapshot(&self) -> Option<&SnapshotRef<'a>> {
        self.snapshots.last()
    }
}

/// One differing field at the first divergent round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDiff {
    /// What differs — e.g. `now_ns`, or
    /// `flow 17 rate (src node 2 / uplink port 2 → dst node 5 / downlink port 45)`.
    pub field: String,
    /// Value in log A (`"paused"` for an absent schedule entry).
    pub a: String,
    /// Value in log B.
    pub b: String,
}

/// The differential harness's verdict on two logs.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// First round whose records differ; `None` when every overlapping
    /// round chained identically.
    pub first_divergent_round: Option<u64>,
    /// Rounds compared (the ordinal overlap of the two logs).
    pub compared: u64,
    /// Trailing rounds only log A has (length difference, not
    /// divergence).
    pub only_in_a: u64,
    /// Trailing rounds only log B has.
    pub only_in_b: u64,
    /// Field-level diff of the first divergent round (empty when logs
    /// agree).
    pub fields: Vec<FieldDiff>,
}

impl DiffOutcome {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.first_divergent_round {
            None => {
                out.push_str(&format!(
                    "no divergence: {} round(s) chain-identical",
                    self.compared
                ));
                if self.only_in_a > 0 {
                    out.push_str(&format!("; log A has {} extra round(s)", self.only_in_a));
                }
                if self.only_in_b > 0 {
                    out.push_str(&format!("; log B has {} extra round(s)", self.only_in_b));
                }
                out.push('\n');
            }
            Some(r) => {
                out.push_str(&format!("first divergent round: {r}\n"));
                for d in &self.fields {
                    out.push_str(&format!("  {}: A = {}, B = {}\n", d.field, d.a, d.b));
                }
            }
        }
        out
    }
}

fn entry_label(e: &RateEntry, num_nodes: u64) -> String {
    format!(
        "flow {} rate (src node {} / uplink port {} -> dst node {} / downlink port {})",
        e.flow,
        e.src,
        e.src,
        e.dst,
        // In 128 bits: a damaged header's `num_nodes` must not wrap.
        num_nodes as u128 + e.dst as u128
    )
}

fn field_diff(a: &RoundRecord, b: &RoundRecord, num_nodes: u64) -> Vec<FieldDiff> {
    let mut out = Vec::new();
    if a.now_ns != b.now_ns {
        out.push(FieldDiff {
            field: "now_ns".into(),
            a: a.now_ns.to_string(),
            b: b.now_ns.to_string(),
        });
    }
    if a.active != b.active {
        out.push(FieldDiff {
            field: "active_coflows".into(),
            a: a.active.to_string(),
            b: b.active.to_string(),
        });
    }
    // Both sides are flow-id sorted (canonical form): merge-walk.
    let (mut i, mut j) = (0, 0);
    while i < a.entries.len() || j < b.entries.len() {
        let ea = a.entries.get(i);
        let eb = b.entries.get(j);
        match (ea, eb) {
            (Some(x), Some(y)) if x.flow == y.flow => {
                if x != y {
                    out.push(FieldDiff {
                        field: entry_label(x, num_nodes),
                        a: x.rate.to_string(),
                        b: y.rate.to_string(),
                    });
                }
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x.flow < y.flow => {
                out.push(FieldDiff {
                    field: entry_label(x, num_nodes),
                    a: x.rate.to_string(),
                    b: "paused".into(),
                });
                i += 1;
            }
            (Some(_), Some(y)) => {
                out.push(FieldDiff {
                    field: entry_label(y, num_nodes),
                    a: "paused".into(),
                    b: y.rate.to_string(),
                });
                j += 1;
            }
            (Some(x), None) => {
                out.push(FieldDiff {
                    field: entry_label(x, num_nodes),
                    a: x.rate.to_string(),
                    b: "paused".into(),
                });
                i += 1;
            }
            (None, Some(y)) => {
                out.push(FieldDiff {
                    field: entry_label(y, num_nodes),
                    a: "paused".into(),
                    b: y.rate.to_string(),
                });
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

/// Finds the first divergent round between two logs by binary-searching
/// their stored chain digests (equal digest at round *i* ⟹ identical
/// record prefix through *i*), then emits the minimal field-level diff
/// of that round. Logs may start at different rounds (a resumed log vs
/// the uninterrupted one); only the ordinal overlap is compared.
pub fn diff_logs(a_bytes: &[u8], b_bytes: &[u8]) -> Result<DiffOutcome, LogError> {
    let a = index_log(a_bytes)?;
    let b = index_log(b_bytes)?;
    if a.header.num_nodes != b.header.num_nodes || a.header.scheduler != b.header.scheduler {
        return Err(LogError::Malformed(format!(
            "logs are not comparable: {} nodes/{} vs {} nodes/{}",
            a.header.num_nodes, a.header.scheduler, b.header.num_nodes, b.header.scheduler
        )));
    }
    let lo = a.header.start_round.max(b.header.start_round);
    let end = |log: &LogIndex<'_>| {
        log.header
            .start_round
            .checked_add(log.rounds.len() as u64)
            .ok_or_else(|| LogError::Malformed("the log's end ordinal overflows u64".into()))
    };
    let (a_end, b_end) = (end(&a)?, end(&b)?);
    let hi = a_end.min(b_end);
    if hi <= lo {
        return Ok(DiffOutcome {
            first_divergent_round: None,
            compared: 0,
            only_in_a: a_end.saturating_sub(hi),
            only_in_b: b_end.saturating_sub(hi),
            fields: Vec::new(),
        });
    }
    let a_at = |round: u64| &a.rounds[(round - a.header.start_round) as usize];
    let b_at = |round: u64| &b.rounds[(round - b.header.start_round) as usize];
    // "Digest differs at round r" is monotone in r: chains that agree
    // at r agree on every round ≤ r, and once they split they never
    // re-join (the digest folds the full prefix). Binary search the
    // boundary.
    let diverged = |round: u64| a_at(round).digest != b_at(round).digest;
    if !diverged(hi - 1) {
        return Ok(DiffOutcome {
            first_divergent_round: None,
            compared: hi - lo,
            only_in_a: a_end.saturating_sub(hi),
            only_in_b: b_end.saturating_sub(hi),
            fields: Vec::new(),
        });
    }
    let (mut good, mut bad) = (None::<u64>, hi - 1);
    let mut lo_probe = lo;
    while lo_probe < bad {
        let mid = lo_probe + (bad - lo_probe) / 2;
        if diverged(mid) {
            bad = mid;
        } else {
            good = Some(mid);
            lo_probe = mid + 1;
        }
    }
    debug_assert!(diverged(bad));
    debug_assert!(good.map(|g| !diverged(g)).unwrap_or(true));
    let ra = a.read_round(a_bytes, a_at(bad))?;
    let rb = b.read_round(b_bytes, b_at(bad))?;
    let mut fields = field_diff(&ra, &rb, a.header.num_nodes);
    if fields.is_empty() {
        // Identical decoded records but different digests: the chains
        // entered the overlap already split (e.g. incompatible
        // start_digest seeds). Say so rather than reporting nothing.
        fields.push(FieldDiff {
            field: "chain digest".into(),
            a: a_at(bad).digest.to_hex(),
            b: b_at(bad).digest.to_hex(),
        });
    }
    Ok(DiffOutcome {
        first_divergent_round: Some(bad),
        compared: hi - lo,
        only_in_a: a_end.saturating_sub(hi),
        only_in_b: b_end.saturating_sub(hi),
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn header(start_round: u64, start_digest: ChainDigest) -> LogHeader {
        LogHeader {
            num_nodes: 8,
            port_rate: 125_000_000,
            delta_ns: 8_000_000,
            scheduler: "saath".into(),
            trace_digest: ChainDigest::of(b"trace"),
            start_round,
            start_digest,
        }
    }

    fn record(round: u64, seed: u64) -> RoundRecord {
        let n = (seed % 5) as u32 + 1;
        RoundRecord {
            round,
            now_ns: round * 8_000_000,
            active: n,
            entries: (0..n)
                .map(|k| RateEntry {
                    flow: k * 3 + (seed % 7) as u32,
                    src: k % 8,
                    dst: (k + 1) % 8,
                    rate: 1_000_000 + seed * 17 + k as u64,
                })
                .collect(),
        }
    }

    fn write_log(n: u64) -> (Vec<u8>, Vec<(usize, usize)>) {
        let mut w = EventLogWriter::new(Vec::new(), &header(0, ChainDigest::ZERO)).unwrap();
        let mut ranges = Vec::new();
        for i in 0..n {
            let before = w.bytes_written() as usize;
            w.append_round(&record(i, i * 11 + 3)).unwrap();
            ranges.push((before, w.bytes_written() as usize));
            if i % 4 == 3 {
                w.append_snapshot(i + 1, &[7u8; 32]).unwrap();
            }
        }
        (w.into_inner().unwrap(), ranges)
    }

    /// The resume pass keeps the last snapshot with rounds after it,
    /// else the last one, else none — and copies out what an index of
    /// the same log holds for it.
    #[test]
    fn resume_point_picks_the_last_snapshot_with_rounds_after_it() {
        let pick = |n: u64| {
            let (log, _) = write_log(n);
            let p = resume_point(&log[..]).unwrap()?;
            let idx = index_log(&log).unwrap();
            let s = idx.snapshots.iter().find(|s| s.round == p.round).unwrap();
            assert_eq!((s.digest, s.blob.as_slice()), (p.digest, &p.blob[..]));
            Some(p.round)
        };
        // Snapshots at rounds 4 and 8, each with rounds after it.
        assert_eq!(pick(10), Some(8));
        // The snapshot at round 8 closes the log: nothing to continue.
        assert_eq!(pick(8), Some(4));
        // The only snapshot closes the log, and is all there is.
        assert_eq!(pick(4), Some(4));
        assert_eq!(pick(3), None);
        assert_eq!(
            resume_point(&b"SAEX"[..]),
            Err(LogError::Malformed("shorter than the magic".into()))
        );
    }

    #[test]
    fn chain_advance_depends_on_prev_and_payload() {
        let d0 = ChainDigest::ZERO.advance(b"a");
        let d1 = ChainDigest::ZERO.advance(b"b");
        assert_ne!(d0, d1);
        assert_ne!(d0.advance(b"x"), d1.advance(b"x"));
        // Length word prevents trivial extension aliasing.
        assert_ne!(
            ChainDigest::ZERO.advance(b"ab").advance(b""),
            ChainDigest::ZERO.advance(b"a").advance(b"b")
        );
        assert_eq!(d0, ChainDigest::ZERO.advance(b"a"));
        assert_eq!(d0.to_hex().len(), 32);
    }

    #[test]
    fn write_then_verify_roundtrips() {
        let (bytes, _) = write_log(13);
        let s = verify(&bytes[..]).unwrap();
        assert_eq!(s.rounds, 13);
        assert_eq!(s.snapshots, 3);
        assert_eq!(s.start_round, 0);
        let idx = index_log(&bytes).unwrap();
        assert_eq!(idx.rounds.len(), 13);
        assert_eq!(idx.rounds.last().unwrap().digest, s.digest);
        let rec = idx.read_round(&bytes, &idx.rounds[7]).unwrap();
        assert_eq!(rec, record(7, 7 * 11 + 3));
        // Snapshot refs carry the digest entering their round.
        let snap = &idx.snapshots[0];
        assert_eq!(snap.round, 4);
        assert_eq!(snap.digest, idx.rounds[3].digest);
        assert_eq!(snap.blob.as_slice(), [7u8; 32]);
    }

    #[test]
    fn writer_rejects_non_contiguous_rounds() {
        let mut w = EventLogWriter::new(Vec::new(), &header(5, ChainDigest::of(b"x"))).unwrap();
        let err = w.append_round(&record(7, 1)).unwrap_err();
        assert!(matches!(err, LogError::Malformed(_)), "{err}");
        w.append_round(&record(5, 1)).unwrap();
    }

    #[test]
    fn identical_logs_diff_clean() {
        let (a, _) = write_log(9);
        let (b, _) = write_log(9);
        let d = diff_logs(&a, &b).unwrap();
        assert_eq!(d.first_divergent_round, None);
        assert_eq!(d.compared, 9);
        assert!(d.render().contains("no divergence"));
    }

    #[test]
    fn perturbed_round_is_pinpointed_with_fields() {
        let mk = |perturb_at: Option<u64>| {
            let mut w = EventLogWriter::new(Vec::new(), &header(0, ChainDigest::ZERO)).unwrap();
            for i in 0..20 {
                let mut rec = record(i, i);
                if perturb_at == Some(i) {
                    rec.entries[0].rate += 1;
                }
                w.append_round(&rec).unwrap();
            }
            w.into_inner().unwrap()
        };
        let a = mk(None);
        let b = mk(Some(11));
        let d = diff_logs(&a, &b).unwrap();
        assert_eq!(d.first_divergent_round, Some(11));
        assert_eq!(d.fields.len(), 1);
        assert!(d.fields[0].field.contains("flow"), "{:?}", d.fields);
        assert!(d.fields[0].field.contains("port"), "{:?}", d.fields);
    }

    #[test]
    fn resumed_log_aligns_with_full_log() {
        let (full, _) = write_log(16);
        let idx = index_log(&full).unwrap();
        // Pretend we resumed after round 8: a log seeded at the stored
        // digest whose records equal the full log's suffix.
        let seed = idx.rounds[7].digest;
        let mut w = EventLogWriter::new(Vec::new(), &header(8, seed)).unwrap();
        for i in 8..16 {
            w.append_round(&record(i, i * 11 + 3)).unwrap();
        }
        let resumed = w.into_inner().unwrap();
        let d = diff_logs(&full, &resumed).unwrap();
        assert_eq!(d.first_divergent_round, None);
        assert_eq!(d.compared, 8);
    }

    #[test]
    fn trailing_rounds_are_length_difference_not_divergence() {
        let (a, _) = write_log(12);
        let (b, _) = write_log(9);
        let d = diff_logs(&a, &b).unwrap();
        assert_eq!(d.first_divergent_round, None);
        assert_eq!(d.only_in_a, 3);
        assert_eq!(d.only_in_b, 0);
    }

    /// Overwrites the `start_round` of a log written by [`write_log`]:
    /// the header's last 24 bytes are `start_round` and `start_digest`.
    fn patch_start_round(bytes: &mut [u8], start_round: u64) {
        let at = 16 + header(0, ChainDigest::ZERO).encode().len() - 24;
        bytes[at..at + 8].copy_from_slice(&start_round.to_le_bytes());
    }

    #[test]
    fn hostile_start_round_is_refused_not_wrapped() {
        let (mut bytes, _) = write_log(2);
        patch_start_round(&mut bytes, u64::MAX);
        let err = index_log(&bytes).unwrap_err();
        assert!(matches!(err, LogError::Malformed(_)), "{err}");
        let err = diff_logs(&bytes, &bytes).unwrap_err();
        assert!(matches!(err, LogError::Malformed(_)), "{err}");
        assert!(verify(&bytes[..]).is_err());

        // A chain that really reaches round u64::MAX: every frame
        // verifies, but the end ordinal does not fit.
        let at = |round| RoundRecord {
            round,
            ..record(0, 1)
        };
        let mut w =
            EventLogWriter::new(Vec::new(), &header(u64::MAX - 1, ChainDigest::ZERO)).unwrap();
        w.append_round(&at(u64::MAX - 1)).unwrap();
        let payload = at(u64::MAX).canonical_bytes();
        let digest = w.digest().advance(&payload);
        let mut bytes = w.into_inner().unwrap();
        bytes.put_u8(KIND_ROUND);
        bytes.put_bytes_le(&payload);
        bytes.put_u64_le(digest.0[0]);
        bytes.put_u64_le(digest.0[1]);
        match verify(&bytes[..]) {
            Err(LogError::Corrupt { round, .. }) => assert_eq!(round, u64::MAX),
            other => panic!("unexpected {other:?}"),
        }
        let err = index_log(&bytes).unwrap_err();
        assert!(matches!(err, LogError::Malformed(_)), "{err}");
        let err = diff_logs(&bytes, &bytes).unwrap_err();
        assert!(matches!(err, LogError::Malformed(_)), "{err}");
    }

    /// Runs every reader over `bytes`, alone and against `clean`; each
    /// must return (any `Result`), never panic.
    fn read_all_ways(bytes: &[u8], clean: &[u8]) {
        let _ = verify(bytes);
        if let Ok(idx) = index_log(bytes) {
            for entry in &idx.rounds {
                let _ = idx.read_round(bytes, entry);
            }
        }
        let _ = diff_logs(bytes, bytes);
        let _ = diff_logs(bytes, clean);
        let _ = diff_logs(clean, bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, bare and behind a valid magic and version,
        /// so that the header and frame decoders see them too.
        #[test]
        fn readers_return_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let (clean, _) = write_log(5);
            read_all_ways(&bytes, &clean);
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&VERSION.to_le_bytes());
            framed.extend_from_slice(&bytes);
            read_all_ways(&framed, &clean);
        }

        /// Bit-flipped and truncated copies of a log whose frames
        /// include snapshots.
        #[test]
        fn readers_return_on_damaged_logs(
            n_rounds in 4u64..12,
            flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
            cut in any::<usize>(),
        ) {
            let (clean, _) = write_log(n_rounds);
            prop_assert!(index_log(&clean).unwrap().last_snapshot().is_some());
            let mut flipped = clean.clone();
            for &(at, bit) in &flips {
                let at = at % flipped.len();
                flipped[at] ^= 1 << bit;
            }
            read_all_ways(&flipped, &clean);
            read_all_ways(&clean[..cut % (clean.len() + 1)], &clean);
        }
    }

    proptest! {
        /// encode → decode → re-encode is byte-identical.
        #[test]
        fn round_record_roundtrips(
            round in 0u64..1_000_000,
            now in 0u64..u64::MAX / 2,
            active in 0u32..10_000,
            raw in proptest::collection::vec((0u32..50_000, 0u32..1_000, 0u32..1_000, 1u64..u64::MAX / 2), 0..40),
        ) {
            let rec = RoundRecord {
                round,
                now_ns: now,
                active,
                entries: raw.iter().map(|&(flow, src, dst, rate)| RateEntry { flow, src, dst, rate }).collect(),
            };
            let bytes = rec.canonical_bytes();
            let dec = RoundRecord::decode(&bytes).unwrap();
            prop_assert_eq!(&dec.canonical_bytes(), &bytes);
            // And decoding is stable: canonical in, canonical out.
            prop_assert_eq!(RoundRecord::decode(&dec.canonical_bytes()).unwrap(), dec);
        }

        /// Any single corrupted byte inside a round frame fails
        /// verification at exactly that round's index.
        #[test]
        fn corruption_is_detected_at_the_right_round(
            n_rounds in 2u64..24,
            pick in 0u64..u64::MAX,
            bitflip in 0u8..8,
        ) {
            let (mut bytes, ranges) = write_log(n_rounds);
            let victim = (pick % n_rounds) as usize;
            let (lo, hi) = ranges[victim];
            let off = lo + (pick as usize / 7) % (hi - lo);
            bytes[off] ^= 1 << bitflip;
            let err = verify(&bytes[..]).expect_err("corruption went undetected");
            match err {
                LogError::Corrupt { round, .. } => prop_assert_eq!(round, victim as u64),
                other => prop_assert!(false, "unexpected error {:?}", other),
            }
        }

        /// The streaming verifier and the in-memory indexer agree on
        /// round counts and final digests for clean logs.
        #[test]
        fn verify_and_index_agree(n_rounds in 0u64..32) {
            let (bytes, _) = write_log(n_rounds);
            let s = verify(&bytes[..]).unwrap();
            let idx = index_log(&bytes).unwrap();
            prop_assert_eq!(s.rounds, idx.rounds.len() as u64);
            if let Some(last) = idx.rounds.last() {
                prop_assert_eq!(s.digest, last.digest);
            }
        }
    }
}
