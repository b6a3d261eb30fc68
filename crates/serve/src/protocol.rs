//! The wire protocol: length-prefixed, schema-versioned JSON frames.
//!
//! Every frame on the wire is a 4-byte little-endian length followed by that
//! many bytes of UTF-8 JSON. The JSON is always an object carrying
//! `"schema_version": 1` (stamped first) and a `"type"` discriminator; both
//! sides reject frames whose version they do not speak, so incompatible
//! clients fail loudly instead of mis-parsing.
//!
//! Frame length is capped at [`MAX_FRAME_BYTES`] on both sides: a malicious
//! or corrupt length prefix can never cause an unbounded allocation.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};
use uopcache_model::json::Json;

/// The protocol schema version stamped on (and required of) every frame.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Hard cap on the byte length of one frame, applied before allocating the
/// receive buffer. Metrics sweeps of full-length traces stay well under this.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A failure while reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The body is not valid JSON, or not an object.
    Malformed(String),
    /// The frame declares a schema version this build does not speak.
    SchemaMismatch(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => f.write_str("connection closed by peer"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::SchemaMismatch(v) => write!(
                f,
                "frame schema version {v} is not supported (this build speaks {SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Builds a protocol frame: `schema_version` first, then `type`, then the
/// frame-specific fields in the given order.
pub fn frame(ty: &str, fields: Vec<(String, Json)>) -> Json {
    let mut all = Vec::with_capacity(fields.len() + 2);
    all.push(("schema_version".to_string(), Json::U64(SCHEMA_VERSION)));
    all.push(("type".to_string(), Json::Str(ty.to_string())));
    all.extend(fields);
    Json::Obj(all)
}

/// The `type` discriminator of a received frame.
///
/// # Errors
///
/// Returns [`FrameError::Malformed`] if the field is absent or not a string.
pub(crate) fn frame_type(j: &Json) -> Result<&str, FrameError> {
    j.field("type")
        .map_err(|e| FrameError::Malformed(e.to_string()))?
        .as_str()
        .ok_or_else(|| FrameError::Malformed("\"type\" must be a string".to_string()))
}

/// Serialises one frame to its wire form: length prefix + JSON bytes.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] if the rendering exceeds the cap.
pub fn encode_frame(body: &Json) -> Result<Vec<u8>, FrameError> {
    let text = body.to_string();
    if text.len() > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(text.len()));
    }
    let len = u32::try_from(text.len()).map_err(|_| FrameError::TooLarge(text.len()))?;
    let mut wire = Vec::with_capacity(4 + text.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(text.as_bytes());
    Ok(wire)
}

/// Writes one frame: length prefix, then the serialised JSON.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] if the rendering exceeds the cap, or any
/// socket error.
pub fn write_frame<W: Write>(mut w: W, body: &Json) -> Result<(), FrameError> {
    let wire = encode_frame(body)?;
    w.write_all(&wire)?;
    w.flush()?;
    Ok(())
}

/// Parses and validates one frame body (UTF-8, JSON object, schema version).
fn decode_body(body: &[u8]) -> Result<Json, FrameError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| FrameError::Malformed("frame body is not UTF-8".to_string()))?;
    let json = Json::parse(text).map_err(|e| FrameError::Malformed(e.to_string()))?;
    let version = json
        .field("schema_version")
        .map_err(|e| FrameError::Malformed(e.to_string()))?
        .as_u64()
        .ok_or_else(|| {
            FrameError::Malformed("\"schema_version\" must be an integer".to_string())
        })?;
    if version != SCHEMA_VERSION {
        return Err(FrameError::SchemaMismatch(version));
    }
    Ok(json)
}

/// The most body bytes [`FrameDecoder`] and [`read_frame`] hold beyond
/// those that arrived; a longer body grows with the bytes that actually
/// come.
const BODY_RESERVE: usize = 64 << 10;

/// An incremental frame parser for nonblocking sockets: bytes go in as they
/// arrive, complete frames come out. Memory is bounded by construction — a
/// length prefix is validated against [`MAX_FRAME_BYTES`], and the body
/// buffer reserves at most 64 KB (`BODY_RESERVE`) up front, so a prefix that
/// claims 64 MB and sends 10 bytes holds kilobytes, not the claim.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    header: [u8; 4],
    header_len: usize,
    body: Vec<u8>,
    body_want: usize,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder {
            header: [0u8; 4],
            header_len: 0,
            body: Vec::with_capacity(0),
            body_want: 0,
        }
    }

    /// Whether a frame has started but not yet completed (stall detection:
    /// a decoder stuck mid-frame past a deadline means a broken peer).
    pub fn mid_frame(&self) -> bool {
        self.header_len > 0
    }

    /// Consumes `bytes`, appending every completed frame to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on an oversized length prefix, malformed JSON,
    /// or a schema mismatch. The decoder is poisoned after an error — the
    /// caller must drop the connection (the stream can no longer be framed).
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Json>) -> Result<(), FrameError> {
        while !bytes.is_empty() {
            if self.header_len < 4 {
                let take = (4 - self.header_len).min(bytes.len());
                self.header[self.header_len..self.header_len + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_len += take;
                bytes = &bytes[take..];
                if self.header_len < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(FrameError::TooLarge(len));
                }
                self.body_want = len;
                self.body.clear();
                self.body.reserve(len.min(BODY_RESERVE));
            }
            let take = (self.body_want - self.body.len()).min(bytes.len());
            self.body.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.body.len() == self.body_want {
                let frame = decode_body(&self.body)?;
                out.push(frame);
                self.header_len = 0;
                self.body_want = 0;
                self.body.clear();
            }
        }
        Ok(())
    }
}

/// Whether an I/O error is a read-timeout (both POSIX and Windows spellings).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes, starting at `*filled`, tolerating read
/// timeouts *after* the first byte (a frame once started is read to
/// completion, up to `deadline`). Returns `false` on a clean timeout before
/// any byte arrived.
fn read_full<R: Read>(
    mut r: R,
    buf: &mut [u8],
    filled: &mut usize,
    deadline: Instant,
) -> Result<bool, FrameError> {
    while *filled < buf.len() {
        match r.read(&mut buf[*filled..]) {
            Ok(0) => {
                return if *filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Malformed(
                        "frame truncated mid-body".to_string(),
                    ))
                }
            }
            Ok(n) => *filled += n,
            Err(e) if is_timeout(&e) => {
                if *filled == 0 {
                    return Ok(false); // idle: no frame started
                }
                if Instant::now() >= deadline {
                    return Err(FrameError::Malformed(
                        "frame stalled past the read deadline".to_string(),
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame, returning `Ok(None)` if the socket's read timeout
/// expired before any byte of a new frame arrived (an idle poll, letting the
/// caller check shutdown flags). Once a frame has started, it is read to
/// completion or until `stall_limit` elapses.
///
/// # Errors
///
/// Returns [`FrameError`] on EOF, an oversized or stalled frame, malformed
/// JSON, a schema mismatch, or any socket error.
pub fn read_frame<R: Read>(mut r: R, stall_limit: Duration) -> Result<Option<Json>, FrameError> {
    let deadline = Instant::now() + stall_limit;
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    if !read_full(&mut r, &mut header, &mut filled, deadline)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    // The buffer grows with the bytes that arrive, at most `BODY_RESERVE`
    // ahead of them, so a prefix that claims 64 MB and sends 10 bytes holds
    // kilobytes, not the claim. Its capacity doubles, capped at the claim,
    // so a frame that arrives whole ends with exactly `len` allocated.
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    let mut filled = 0usize;
    while filled < len {
        let end = len.min(filled + BODY_RESERVE);
        if end > body.capacity() {
            body.reserve_exact((len - body.len()).min(body.capacity().max(BODY_RESERVE)));
        }
        body.resize(end, 0);
        // The header arrived, so the body counts as started: keep reading
        // until the stall deadline trips inside `read_full`.
        if !read_full(&mut r, &mut body, &mut filled, deadline)? && Instant::now() >= deadline {
            return Err(FrameError::Malformed(
                "frame stalled past the read deadline".to_string(),
            ));
        }
    }
    Ok(Some(decode_body(&body)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let f = frame(
            "status",
            vec![("job_id".to_string(), Json::Str("ab12".to_string()))],
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).expect("writes");
        let back = read_frame(wire.as_slice(), Duration::from_secs(1))
            .expect("reads")
            .expect("one frame present");
        assert_eq!(back, f);
        assert_eq!(frame_type(&back).expect("typed"), "status");
        assert_eq!(
            back.field("schema_version").expect("stamped").as_u64(),
            Some(SCHEMA_VERSION)
        );
    }

    #[test]
    fn schema_version_leads_every_frame() {
        let f = frame("pong", Vec::with_capacity(0));
        assert!(f
            .to_string()
            .starts_with("{\"schema_version\":1,\"type\":\"pong\""));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(wire.as_slice(), Duration::from_secs(1)).expect_err("too large");
        assert!(matches!(err, FrameError::TooLarge(_)), "{err}");
    }

    #[test]
    fn eof_at_frame_boundary_is_closed_mid_frame_is_malformed() {
        let err = read_frame([].as_slice(), Duration::from_secs(1)).expect_err("eof");
        assert!(matches!(err, FrameError::Closed), "{err}");
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame("ping", Vec::with_capacity(0))).expect("writes");
        wire.truncate(wire.len() - 2);
        let err = read_frame(wire.as_slice(), Duration::from_secs(1)).expect_err("truncated");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn decoder_reassembles_frames_from_arbitrary_splits() {
        let frames = [
            frame("ping", Vec::with_capacity(0)),
            frame(
                "status",
                vec![("job_id".to_string(), Json::Str("ab".to_string()))],
            ),
            frame("pong", Vec::with_capacity(0)),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f).expect("encodes"));
        }
        // Every chunk size, from byte-at-a-time to one gulp, yields the same
        // frame sequence.
        for chunk in [1usize, 2, 3, 5, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece, &mut got).expect("clean stream");
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(!dec.mid_frame(), "chunk size {chunk} ends at a boundary");
        }
    }

    #[test]
    fn decoder_reports_mid_frame_and_rejects_oversized_prefixes() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let wire = encode_frame(&frame("ping", Vec::with_capacity(0))).expect("encodes");
        dec.feed(&wire[..3], &mut got).expect("partial header");
        assert!(dec.mid_frame());
        assert!(got.is_empty());
        dec.feed(&wire[3..], &mut got).expect("completes");
        assert_eq!(got.len(), 1);
        assert!(!dec.mid_frame());

        let mut dec = FrameDecoder::new();
        let err = dec
            .feed(&u32::MAX.to_le_bytes(), &mut got)
            .expect_err("oversized prefix");
        assert!(matches!(err, FrameError::TooLarge(_)), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let body = Json::Obj(vec![
            ("schema_version".to_string(), Json::U64(99)),
            ("type".to_string(), Json::Str("ping".to_string())),
        ]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("writes");
        let err = read_frame(wire.as_slice(), Duration::from_secs(1)).expect_err("version 99");
        assert!(matches!(err, FrameError::SchemaMismatch(99)), "{err}");
    }

    #[test]
    fn missing_version_or_type_is_malformed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Json::Obj(Vec::with_capacity(0))).expect("writes");
        let err = read_frame(wire.as_slice(), Duration::from_secs(1)).expect_err("versionless");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        let f = Json::Obj(vec![("schema_version".to_string(), Json::U64(1))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).expect("writes");
        let back = read_frame(wire.as_slice(), Duration::from_secs(1))
            .expect("reads")
            .expect("frame");
        assert!(frame_type(&back).is_err());
    }

    #[test]
    fn deeply_nested_bodies_are_malformed_not_a_crash() {
        let err = decode_body("[".repeat(50_000).as_bytes()).expect_err("too deep");
        assert!(
            matches!(&err, FrameError::Malformed(m) if m.contains("nesting deeper")),
            "{err}"
        );
        // The same through the framing layer, as a socket would deliver it.
        let body = format!("{{\"schema_version\":1,\"x\":{}", "[".repeat(50_000));
        let mut wire = u32::try_from(body.len())
            .expect("fits")
            .to_le_bytes()
            .to_vec();
        wire.extend_from_slice(body.as_bytes());
        let err = read_frame(wire.as_slice(), Duration::from_secs(1)).expect_err("too deep");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }
}
