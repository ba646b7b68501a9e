//! Length-prefixed frames: every protocol message travels as a 4-byte
//! big-endian byte length followed by that many bytes of UTF-8 JSON.
//!
//! The prefix makes message boundaries explicit on a byte stream, so a
//! reader never has to scan for delimiters inside JSON, and a malformed
//! payload poisons only its own frame. Frames above [`MAX_FRAME_BYTES`]
//! are rejected before any allocation, bounding what a misbehaving peer
//! can make the other side buffer.

use std::io::{ErrorKind as IoKind, Read, Write};
use tracto_trace::{TractoError, TractoResult};

/// Upper bound on a single frame's payload (16 MiB). Large enough for any
/// result this service returns, small enough to bound a hostile prefix.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Capacity `read_frame` reserves for a body before its bytes arrive.
const BODY_CHUNK: usize = 64 << 10;

/// Write one frame: 4-byte big-endian length, then the payload bytes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> TractoResult<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(TractoError::protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte limit",
            bytes.len(),
            MAX_FRAME_BYTES
        )));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    w.write_all(&len)
        .and_then(|()| w.write_all(bytes))
        .and_then(|()| w.flush())
        .map_err(|e| TractoError::io("write frame", e))
}

/// Read one frame's payload. Returns `Ok(None)` on a clean end-of-stream
/// (the peer closed between frames); a stream that ends *inside* a frame —
/// a truncated length prefix or a short body — is a typed
/// [protocol error](TractoError::Protocol).
pub fn read_frame(r: &mut impl Read) -> TractoResult<Option<String>> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix)? {
        Filled::Eof => return Ok(None),
        Filled::Partial(n) => {
            return Err(TractoError::protocol(format!(
                "stream ended inside a length prefix ({n} of 4 bytes)"
            )))
        }
        Filled::Complete => {}
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(TractoError::protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
        )));
    }
    // The body grows with the bytes that arrive, not with the announced
    // length: a peer that announces 16 MiB and sends ten bytes costs the
    // reader a small buffer, not a 16 MiB one.
    let mut body = Vec::with_capacity((len as usize).min(BODY_CHUNK));
    r.take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| TractoError::io("read frame body", e))?;
    if body.len() < len as usize {
        return Err(TractoError::protocol(format!(
            "stream ended inside a {len}-byte frame body"
        )));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| TractoError::protocol("frame body is not valid UTF-8"))
}

/// Incremental frame extraction over an append-only byte buffer, for
/// nonblocking readers (the reactor's per-connection inbox, the client's
/// event loop) that receive partial frames across many `read` calls.
///
/// Feed raw bytes with [`extend`](Self::extend); pull complete payloads
/// with [`next_frame`](Self::next_frame). An oversized length prefix is
/// reported before its body is buffered, so a hostile peer cannot make the
/// reader allocate past [`MAX_FRAME_BYTES`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Append raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by one frame plus one read.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extract the next complete frame payload, or `Ok(None)` if more
    /// bytes are needed. An oversized announcement or a non-UTF-8 body is
    /// a typed [protocol error](TractoError::Protocol).
    pub fn next_frame(&mut self) -> TractoResult<Option<String>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_BYTES {
            return Err(TractoError::protocol(format!(
                "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
            )));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let body = avail[4..total].to_vec();
        self.start += total;
        String::from_utf8(body)
            .map(Some)
            .map_err(|_| TractoError::protocol("frame body is not valid UTF-8"))
    }
}

enum Filled {
    Complete,
    Partial(usize),
    Eof,
}

/// Fill `buf`, distinguishing "no bytes at all" (clean EOF) from "some but
/// not all" (truncation mid-prefix).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> TractoResult<Filled> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(e) => return Err(TractoError::io("read frame prefix", e)),
        }
    }
    Ok(Filled::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::ErrorKind;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "second ünïcode frame").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("second ünïcode frame")
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn truncated_prefix_is_a_protocol_error() {
        let mut r: &[u8] = &[0u8, 0]; // two of four length bytes
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("length prefix"));
    }

    #[test]
    fn truncated_body_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = buf.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("frame body"));
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let mut r = buf.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("exceeds"));
    }

    /// A reader that records the largest buffer it was asked to fill.
    struct Widest<'a> {
        bytes: &'a [u8],
        widest: usize,
    }

    impl Read for Widest<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn body_buffer_grows_with_what_arrives_not_with_the_announcement() {
        // A prefix announcing the largest legal frame, then ten bytes: the
        // reader used to fill a zeroed buffer of the announced 16 MiB.
        let mut wire = MAX_FRAME_BYTES.to_be_bytes().to_vec();
        wire.extend_from_slice(b"0123456789");
        let mut r = Widest {
            bytes: &wire,
            widest: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("frame body"));
        assert!(r.widest <= BODY_CHUNK, "asked to fill {} bytes", r.widest);
        // A large frame that does arrive still reads whole.
        let payload = "x".repeat(3 * BODY_CHUNK + 5);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(payload.as_str())
        );
    }

    #[test]
    fn frame_buf_extracts_across_partial_feeds() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"a\":1}").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "tail").unwrap();
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        // Feed one byte at a time: frames must still come out whole.
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, ["{\"a\":1}", "", "tail"]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buf_rejects_oversize_before_buffering_body() {
        let mut fb = FrameBuf::new();
        fb.extend(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn non_utf8_body_rejected() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = buf.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
    }
}
