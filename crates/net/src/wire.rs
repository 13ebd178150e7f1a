//! The length-prefixed wire protocol carried on every TCP connection.
//!
//! A connection is a stream of **frames**. Every frame has a fixed 13-byte
//! header — kind (1 B), source rank (u32 LE), tag (u32 LE), payload length
//! (u32 LE) — followed by the payload. Data connections carry [`KIND_MSG`]
//! frames (the `(src, tag, payload)` triple the matching engine consumes)
//! plus the control frames that make the runtime hang-free: [`KIND_GONE`]
//! announces a clean departure, [`KIND_ABORT`] propagates a cooperative
//! abort (the origin rank rides in the `src` field). Bootstrap connections
//! carry [`KIND_HELLO`] / [`KIND_TABLE`] (rendezvous) and [`KIND_IDENT`]
//! (mesh connection ownership).
//!
//! Because each ordered rank pair shares exactly one TCP stream and TCP is
//! FIFO, frames from a given sender arrive in send order — which is what
//! gives the backend MPI's non-overtaking guarantee per (sender, receiver,
//! tag) once the matching queue preserves arrival order.

use exacoll_comm::{Rank, Tag};
use std::io::{self, IoSlice, Read, Write};

/// A message frame: `(src, tag, payload)`, matched by the receiver.
pub const KIND_MSG: u8 = 0;
/// The sender's endpoint is going away; no further frames will follow.
pub const KIND_GONE: u8 = 1;
/// Cooperative abort; the origin rank is carried in `src`.
pub const KIND_ABORT: u8 = 2;
/// Bootstrap: a worker reports `(rank, data-listener address)` to the
/// rendezvous (address as UTF-8 payload).
pub const KIND_HELLO: u8 = 3;
/// Bootstrap: the rendezvous answers with the full rank↔address table
/// (newline-joined addresses in rank order).
pub const KIND_TABLE: u8 = 4;
/// Mesh: the connecting side of a data connection announces its rank.
pub const KIND_IDENT: u8 = 5;

/// Refuse to allocate for absurd lengths: a corrupted or misaligned stream
/// fails fast with `InvalidData` instead of an OOM.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 13;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Source rank (or abort origin for [`KIND_ABORT`]).
    pub src: u32,
    /// Message tag (zero for control frames).
    pub tag: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data message frame.
    pub fn msg(src: Rank, tag: Tag, payload: Vec<u8>) -> Frame {
        Frame {
            kind: KIND_MSG,
            src: src as u32,
            tag,
            payload,
        }
    }

    /// A payload-free control frame.
    pub fn control(kind: u8, src: Rank) -> Frame {
        Frame {
            kind,
            src: src as u32,
            tag: 0,
            payload: Vec::new(),
        }
    }
}

/// Serialize one frame onto `w` and flush it. Header and payload go out in
/// one vectored write (one syscall on sockets), not two `write_all`s.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame_parts(w, frame.kind, frame.src, frame.tag, &[&frame.payload])
}

/// Serialize one frame whose payload is the ordered concatenation of
/// `segments`, then flush. This is the zero-copy send path: the segments
/// are borrowed straight from the caller's buffer and handed to the kernel
/// as one vectored write (`writev`) together with the header — no
/// intermediate payload `Vec` is ever built, and the wire bytes are
/// identical to [`write_frame`] on the gathered payload.
pub fn write_frame_parts(
    w: &mut impl Write,
    kind: u8,
    src: u32,
    tag: u32,
    segments: &[&[u8]],
) -> io::Result<()> {
    resume_frame_parts(w, kind, src, tag, segments, &mut 0)
}

/// [`write_frame_parts`] from byte `*written` of the frame on, advancing
/// `*written` past everything `w` accepted. On a nonblocking socket a full
/// send buffer surfaces as `WouldBlock` with `*written` short of the frame;
/// calling again with the same arguments once the socket drains continues
/// exactly where the write stopped, so this loop is the only place that
/// skips a written prefix.
pub(crate) fn resume_frame_parts(
    w: &mut impl Write,
    kind: u8,
    src: u32,
    tag: u32,
    segments: &[&[u8]],
    written: &mut usize,
) -> io::Result<()> {
    let payload_len: usize = segments.iter().map(|s| s.len()).sum();
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind;
    header[1..5].copy_from_slice(&src.to_le_bytes());
    header[5..9].copy_from_slice(&tag.to_le_bytes());
    header[9..13].copy_from_slice(&(payload_len as u32).to_le_bytes());

    // The common case is one full write; on a short write the slice list is
    // rebuilt past the written prefix (`IoSlice::advance_slices` is not
    // stable, so the skip is done by hand).
    let total = HEADER_LEN + payload_len;
    let mut bufs: Vec<IoSlice<'_>> = Vec::with_capacity(segments.len() + 1);
    while *written < total {
        bufs.clear();
        let mut skip = *written;
        for part in std::iter::once(&header[..]).chain(segments.iter().copied()) {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            bufs.push(IoSlice::new(&part[skip..]));
            skip = 0;
        }
        match w.write_vectored(&bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => *written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Decode a frame header into `(kind, src, tag, payload length)`. Every
/// decoder goes through here, so the [`MAX_FRAME_PAYLOAD`] guard runs before
/// anything is allocated for the payload.
#[inline]
fn parse_header(header: &[u8; HEADER_LEN]) -> io::Result<(u8, u32, u32, usize)> {
    let kind = header[0];
    let src = u32::from_le_bytes(header[1..5].try_into().expect("4-byte slice"));
    let tag = u32::from_le_bytes(header[5..9].try_into().expect("4-byte slice"));
    let len = u32::from_le_bytes(header[9..13].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {len} B exceeds the {MAX_FRAME_PAYLOAD} B limit"),
        ));
    }
    Ok((kind, src, tag, len))
}

/// Read exactly one frame from `r`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, src, tag, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        kind,
        src,
        tag,
        payload,
    })
}

/// Read-ahead per connection of the incremental decoder. A frame that fits
/// is decoded out of this buffer (small frames that are already in the
/// socket cost one `read` for however many there are); the body of a larger
/// one is read straight to where it is going — a claimed destination, or a
/// payload `Vec` allocated once.
pub(crate) const READ_BUF_LEN: usize = 16 * 1024;

/// Where the decoder puts the body of a message someone is blocked on,
/// instead of building a [`Frame`] for the queue.
pub(crate) trait Land {
    /// A [`KIND_MSG`] header was decoded: should its `len` body bytes go
    /// through [`window`](Self::window) rather than into a `Frame`? May be
    /// asked again for a header whose frame is still incomplete.
    fn claim(&mut self, src: u32, tag: u32, len: usize) -> bool;

    /// Room for the next body bytes of the claimed message — never empty,
    /// never more than the message has left — or `None` once nobody wants
    /// them, and they are discarded.
    fn window(&mut self) -> Option<&mut [u8]>;

    /// The first `n` bytes of the last window were written.
    fn advance(&mut self, n: usize);
}

/// The body the decoder is in the middle of.
enum Body {
    /// Between frames, or inside one that fits the read-ahead.
    None,
    /// A frame larger than the read-ahead, with how much of its payload has
    /// arrived.
    Queued(Frame, usize),
    /// A claimed message with this many bytes still to come; the read-ahead
    /// holds nothing else until they have.
    Landing(usize),
}

/// [`read_frame`] for a source that hands bytes over in arbitrary pieces —
/// a nonblocking socket. [`fill`](Self::fill) performs one `read`,
/// [`next_frame`](Self::next_frame) pops the frames that read completed;
/// the frames and the terminal error are those `read_frame` would produce
/// on the same byte stream, except that the body of a message the caller's
/// [`Land`] claims is written into its windows and yields no frame.
pub(crate) struct FrameDecoder {
    buf: Box<[u8]>,
    /// `buf[start..end]` holds bytes read but not yet decoded.
    start: usize,
    end: usize,
    body: Body,
}

/// One `read`, with end of stream as `UnexpectedEof` (as it is for
/// `read_frame`, also between frames).
fn read_some(r: &mut impl Read, space: &mut [u8]) -> io::Result<usize> {
    match r.read(space)? {
        0 => Err(io::ErrorKind::UnexpectedEof.into()),
        n => Ok(n),
    }
}

impl FrameDecoder {
    pub(crate) fn new() -> FrameDecoder {
        FrameDecoder {
            buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            body: Body::None,
        }
    }

    /// One `read` from `r` into the body in progress — a large frame's
    /// payload, a claimed message's window, or nowhere once the claim has
    /// lapsed — or else into the buffer. `Ok(true)` means the read came back
    /// short, i.e. the source had nothing more at that moment. Call only
    /// after [`next_frame`](Self::next_frame) returned `None`.
    pub(crate) fn fill(&mut self, r: &mut impl Read, land: &mut impl Land) -> io::Result<bool> {
        let (n, room) = match &mut self.body {
            Body::Queued(frame, filled) => {
                let space = &mut frame.payload[*filled..];
                let n = read_some(r, space)?;
                *filled += n;
                (n, space.len())
            }
            Body::Landing(left) => {
                let (n, room) = match land.window() {
                    Some(window) => {
                        let room = window.len().min(*left);
                        let n = read_some(r, &mut window[..room])?;
                        land.advance(n);
                        (n, room)
                    }
                    None => {
                        let room = self.buf.len().min(*left);
                        (read_some(r, &mut self.buf[..room])?, room)
                    }
                };
                *left -= n;
                if *left == 0 {
                    self.body = Body::None;
                }
                (n, room)
            }
            Body::None => {
                // What is left is the head of one incomplete frame that
                // fits the buffer; at the front it has room to complete.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                let space = &mut self.buf[self.end..];
                let n = read_some(r, space)?;
                self.end += n;
                (n, space.len())
            }
        };
        Ok(n < room)
    }

    /// The next complete frame, if the bytes read so far hold one. Body
    /// bytes of a claimed message that came in behind its header are moved
    /// to `land` on the way.
    pub(crate) fn next_frame(&mut self, land: &mut impl Land) -> io::Result<Option<Frame>> {
        loop {
            match &mut self.body {
                Body::None => {}
                Body::Queued(frame, filled) => {
                    if *filled < frame.payload.len() {
                        return Ok(None);
                    }
                    let Body::Queued(frame, _) = std::mem::replace(&mut self.body, Body::None)
                    else {
                        unreachable!("matched above");
                    };
                    return Ok(Some(frame));
                }
                Body::Landing(left) => {
                    let have = (self.end - self.start).min(*left);
                    if have == 0 {
                        return Ok(None);
                    }
                    let n = match land.window() {
                        Some(window) => {
                            let n = window.len().min(have);
                            window[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
                            land.advance(n);
                            n
                        }
                        None => have,
                    };
                    self.start += n;
                    *left -= n;
                    if *left == 0 {
                        self.body = Body::None;
                    }
                    continue;
                }
            }
            let avail = &self.buf[self.start..self.end];
            let Some((header, body)) = avail.split_first_chunk::<HEADER_LEN>() else {
                return Ok(None);
            };
            let (kind, src, tag, len) = parse_header(header)?;
            if kind == KIND_MSG && land.claim(src, tag, len) {
                self.start += HEADER_LEN;
                if len > 0 {
                    self.body = Body::Landing(len);
                }
                continue;
            }
            let mut frame = Frame {
                kind,
                src,
                tag,
                payload: Vec::new(),
            };
            if let Some(payload) = body.get(..len) {
                frame.payload = payload.to_vec();
                self.start += HEADER_LEN + len;
                return Ok(Some(frame));
            }
            if HEADER_LEN + len > self.buf.len() {
                frame.payload = vec![0u8; len];
                frame.payload[..body.len()].copy_from_slice(body);
                self.body = Body::Queued(frame, body.len());
                self.start = self.end;
            }
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Claims nothing: every frame is decoded for the queue.
    struct Queue;

    impl Land for Queue {
        fn claim(&mut self, _src: u32, _tag: u32, _len: usize) -> bool {
            false
        }
        fn window(&mut self) -> Option<&mut [u8]> {
            None
        }
        fn advance(&mut self, _n: usize) {}
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::msg(3, 42, vec![1, 2, 3, 4, 5]),
            Frame::msg(0, 0, Vec::new()),
            Frame::control(KIND_GONE, 7),
            Frame::control(KIND_ABORT, 1),
            Frame {
                kind: KIND_HELLO,
                src: 2,
                tag: 0,
                payload: b"127.0.0.1:5000".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert!(cursor.is_empty());
    }

    /// Satellite regression: the vectored encoder must put byte-identical
    /// frames on the wire as the historical two-`write_all` encoding
    /// (header array, then payload), for both whole payloads and
    /// scatter-gather segment lists.
    #[test]
    fn vectored_frames_match_the_legacy_encoding() {
        let payload: Vec<u8> = (0..200u8).collect();
        let frame = Frame::msg(3, 42, payload.clone());
        // The pre-vectored encoding, reproduced literally.
        let mut legacy = Vec::new();
        legacy.push(frame.kind);
        legacy.extend_from_slice(&frame.src.to_le_bytes());
        legacy.extend_from_slice(&frame.tag.to_le_bytes());
        legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        legacy.extend_from_slice(&payload);

        let mut whole = Vec::new();
        write_frame(&mut whole, &frame).unwrap();
        assert_eq!(whole, legacy);

        // Same payload as three segments (plus an empty one) — identical
        // wire bytes.
        let mut parts = Vec::new();
        write_frame_parts(
            &mut parts,
            KIND_MSG,
            3,
            42,
            &[
                &payload[..7],
                &payload[7..7],
                &payload[7..150],
                &payload[150..],
            ],
        )
        .unwrap();
        assert_eq!(parts, legacy);
    }

    /// A writer that accepts at most 3 bytes per call exercises the
    /// partial-write resume loop.
    #[test]
    fn partial_writes_resume_mid_segment() {
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..37u8).collect();
        let mut trickle = Trickle(Vec::new());
        write_frame_parts(
            &mut trickle,
            KIND_MSG,
            1,
            9,
            &[&payload[..20], &payload[20..]],
        )
        .unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &Frame::msg(1, 9, payload)).unwrap();
        assert_eq!(trickle.0, whole);
    }

    /// A socket whose buffer fills up: takes a few bytes, then refuses once.
    #[test]
    fn a_blocked_write_resumes_where_it_stopped() {
        struct Stutter(Vec<u8>, bool);
        impl Write for Stutter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..37u8).collect();
        let segments = [&payload[..20], &payload[20..]];
        let mut socket = Stutter(Vec::new(), false);
        let (mut written, mut refusals) = (0, 0);
        while let Err(e) = resume_frame_parts(&mut socket, KIND_MSG, 1, 9, &segments, &mut written)
        {
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
            assert_eq!(written, socket.0.len());
            refusals += 1;
        }
        assert!(refusals >= (HEADER_LEN + payload.len()) / 5);
        let mut whole = Vec::new();
        write_frame(&mut whole, &Frame::msg(1, 9, payload)).unwrap();
        assert_eq!(socket.0, whole);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::msg(0, 1, vec![9; 100])).unwrap();
        buf.truncate(buf.len() - 10);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = vec![KIND_MSG];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// What the poll loop's syscall count rests on: frames that are already
    /// in the socket all come out of one `read`, which also reports that it
    /// emptied the socket; a frame longer than the buffer takes the reads
    /// its payload needs and no more.
    #[test]
    fn one_read_decodes_every_frame_it_completed() {
        let mut wire = Vec::new();
        for tag in 0..3 {
            write_frame(&mut wire, &Frame::msg(1, tag, vec![tag as u8; 64])).unwrap();
        }
        let big = Frame::msg(2, 9, vec![5u8; 3 * READ_BUF_LEN]);
        write_frame(&mut wire, &big).unwrap();
        let (small, large) = wire.split_at(3 * (HEADER_LEN + 64));

        let mut decoder = FrameDecoder::new();
        let q = &mut Queue;
        assert!(decoder.next_frame(q).unwrap().is_none());
        let mut socket = small;
        assert!(decoder.fill(&mut socket, q).unwrap(), "short read: drained");
        for tag in 0..3 {
            let frame = decoder
                .next_frame(q)
                .unwrap()
                .expect("decoded from the buffer");
            assert_eq!(frame, Frame::msg(1, tag, vec![tag as u8; 64]));
        }
        assert!(decoder.next_frame(q).unwrap().is_none());

        let mut socket = large;
        assert!(!decoder.fill(&mut socket, q).unwrap(), "filled the buffer");
        assert!(decoder.next_frame(q).unwrap().is_none());
        // The rest goes straight into the payload, in one read here.
        assert!(!decoder.fill(&mut socket, q).unwrap());
        assert!(socket.is_empty());
        assert_eq!(decoder.next_frame(q).unwrap(), Some(big));
        let eof = decoder.fill(&mut socket, q).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// The same reads with the large message claimed: what came in behind
    /// its header is copied out of the read-ahead, the rest is read straight
    /// into the destination, window by window, and no frame comes out.
    #[test]
    fn a_claimed_body_is_read_into_its_windows() {
        struct Halves {
            dest: Vec<u8>,
            filled: usize,
        }
        impl Land for Halves {
            fn claim(&mut self, src: u32, tag: u32, len: usize) -> bool {
                (src, tag, len) == (2, 9, self.dest.len())
            }
            fn window(&mut self) -> Option<&mut [u8]> {
                // Two ranges' worth: a window never crosses the middle.
                let half = self.dest.len() / 2;
                let end = if self.filled < half {
                    half
                } else {
                    self.dest.len()
                };
                Some(&mut self.dest[self.filled..end])
            }
            fn advance(&mut self, n: usize) {
                self.filled += n;
            }
        }
        let payload: Vec<u8> = (0..3 * READ_BUF_LEN).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::msg(1, 0, vec![7; 64])).unwrap();
        write_frame(&mut wire, &Frame::msg(2, 9, payload.clone())).unwrap();
        write_frame(&mut wire, &Frame::control(KIND_GONE, 2)).unwrap();

        let mut land = Halves {
            dest: vec![0; payload.len()],
            filled: 0,
        };
        let mut decoder = FrameDecoder::new();
        let mut socket = &wire[..];
        assert!(!decoder.fill(&mut socket, &mut land).unwrap());
        let first = decoder.next_frame(&mut land).unwrap();
        assert_eq!(first, Some(Frame::msg(1, 0, vec![7; 64])));
        assert!(decoder.next_frame(&mut land).unwrap().is_none());
        let buffered = READ_BUF_LEN - 2 * HEADER_LEN - 64;
        assert_eq!(land.filled, buffered);
        // One read to the middle, one to the end — and not a byte further.
        assert!(!decoder.fill(&mut socket, &mut land).unwrap());
        assert_eq!(land.filled, payload.len() / 2);
        assert!(decoder.next_frame(&mut land).unwrap().is_none());
        assert!(!decoder.fill(&mut socket, &mut land).unwrap());
        assert_eq!(land.filled, payload.len());
        assert_eq!(socket.len(), HEADER_LEN);
        assert!(land.dest == payload);
        assert!(decoder.next_frame(&mut land).unwrap().is_none());
        assert!(decoder.fill(&mut socket, &mut land).unwrap());
        let last = decoder.next_frame(&mut land).unwrap();
        assert_eq!(last, Some(Frame::control(KIND_GONE, 2)));
    }

    /// Hands a byte stream over in pieces of `1..=max_chunk` bytes, refusing
    /// with `WouldBlock` now and then, the way a nonblocking socket does.
    struct Pieces<'a> {
        data: &'a [u8],
        max_chunk: usize,
        state: u64,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = (self.state >> 33) as usize;
            if draw % 5 == 4 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = (1 + draw % self.max_chunk)
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every frame `decode` yields from `stream`, and the error that ends it.
    fn drive(mut decode: impl FnMut() -> io::Result<Option<Frame>>) -> (Vec<Frame>, io::ErrorKind) {
        let mut frames = Vec::new();
        loop {
            match decode() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return (frames, e.kind()),
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The incremental decoder against `read_frame` on the same bytes:
        /// frames of every kind, empty, straddling the end of the read
        /// buffer and several buffers long, then a clean end, a truncated
        /// tail or a header announcing more than `MAX_FRAME_PAYLOAD`, fed in
        /// pieces down to one byte. Same frames, same order, same terminal
        /// error — `UnexpectedEof`, or `InvalidData` for the hostile length,
        /// which `parse_header` refuses before anything is allocated for it.
        #[test]
        fn incremental_decoder_agrees_with_read_frame(
            frames in collection::vec((0usize..6, 0u32..1000, 0u32..u32::MAX, 0usize..6, 0usize..4000), 0..7),
            ending in 0usize..3,
            cut in 1usize..40,
            hostile in (MAX_FRAME_PAYLOAD as u32 + 1)..u32::MAX,
            max_chunk in (0usize..6).prop_map(|i| [1, 2, 13, 100, 5000, 40_000][i]),
            seed in 0u64..u64::MAX,
        ) {
            let mut stream = Vec::new();
            for &(kind, src, tag, class, extra) in &frames {
                let kind = [KIND_MSG, KIND_MSG, KIND_MSG, KIND_GONE, KIND_ABORT, 200][kind];
                let len = match class {
                    0 => 0,
                    1 => extra % 100,
                    2 => extra,
                    // Around the largest frame the buffer holds whole.
                    3 => READ_BUF_LEN - HEADER_LEN - 2 + extra % 5,
                    4 => READ_BUF_LEN + extra,
                    _ => 2 * READ_BUF_LEN + extra,
                };
                let payload: Vec<u8> = (0..len).map(|i| (i + extra) as u8).collect();
                write_frame(&mut stream, &Frame { kind, src, tag, payload }).unwrap();
            }
            match ending {
                0 => {}
                1 => stream.truncate(stream.len().saturating_sub(cut)),
                _ => {
                    stream.push(KIND_MSG);
                    stream.extend_from_slice(&[0u8; 8]);
                    stream.extend_from_slice(&hostile.to_le_bytes());
                    stream.extend_from_slice(&[0xAB; 64][..cut]);
                }
            }

            let mut whole = &stream[..];
            let expected = drive(|| read_frame(&mut whole).map(Some));

            let mut pieces = Pieces { data: &stream, max_chunk, state: seed };
            let mut decoder = FrameDecoder::new();
            let got = drive(|| match decoder.next_frame(&mut Queue)? {
                Some(frame) => Ok(Some(frame)),
                None => decoder.fill(&mut pieces, &mut Queue).map(|_| None),
            });
            prop_assert_eq!(&got.1, &expected.1);
            prop_assert!(got.0 == expected.0, "frames differ ({} vs {})", got.0.len(), expected.0.len());
            let want = if ending == 2 { io::ErrorKind::InvalidData } else { io::ErrorKind::UnexpectedEof };
            prop_assert_eq!(got.1, want);

            // With some messages claimed — windows of a few bytes to a few
            // buffers, some claims dropped part-way as a failed
            // `waitall_into` drops them — landed bytes and queued frames
            // together are still what `read_frame` decodes: every message
            // whole and in order, a dropped one up to where it was dropped,
            // and the frames behind it untouched.
            let mut pieces = Pieces { data: &stream, max_chunk, state: seed };
            let mut decoder = FrameDecoder::new();
            let mut land = Claims { state: seed ^ 0x9E37_79B9, current: None, log: Vec::new() };
            let (queued, kind) = drive(|| match decoder.next_frame(&mut land)? {
                Some(frame) => {
                    land.log.push((frame.clone(), None));
                    Ok(Some(frame))
                }
                None => decoder.fill(&mut pieces, &mut land).map(|_| None),
            });
            prop_assert_eq!(kind, want);
            // A claim still open when the stream ended never completed; one
            // dropped before a truncated tail is the only entry `read_frame`
            // has no frame for.
            let log = land.log;
            prop_assert!(log.len() >= queued.len());
            prop_assert!(log.len() == expected.0.len()
                || (log.len() == expected.0.len() + 1 && log.last().unwrap().1.is_some()),
                "{} entries for {} frames", log.len(), expected.0.len());
            for ((frame, dropped_at), whole) in log.iter().zip(&expected.0) {
                match dropped_at {
                    None => prop_assert!(frame == whole),
                    Some(at) => {
                        prop_assert_eq!((frame.kind, frame.src, frame.tag), (whole.kind, whole.src, whole.tag));
                        prop_assert!(frame.payload.len() == *at && whole.payload.starts_with(&frame.payload));
                    }
                }
            }
        }
    }

    /// Claims about half the messages it is asked about, hands out windows
    /// of varying length over a buffer of its own, and drops about a third
    /// of its claims somewhere inside the body.
    struct Claims {
        state: u64,
        /// The claimed message, what has landed of it, and where it will be
        /// dropped.
        current: Option<(Frame, usize, Option<usize>)>,
        /// Every frame in stream order: queued ones as decoded, claimed ones
        /// once whole, dropped ones (with the offset) when dropped.
        log: Vec<(Frame, Option<usize>)>,
    }

    impl Claims {
        fn draw(&mut self) -> usize {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 33) as usize
        }
    }

    impl Land for Claims {
        fn claim(&mut self, src: u32, tag: u32, len: usize) -> bool {
            assert!(self.current.is_none(), "claim inside a claimed body");
            if self.draw().is_multiple_of(2) {
                return false;
            }
            let frame = Frame::msg(src as Rank, tag, vec![0; len]);
            if len == 0 {
                self.log.push((frame, None));
            } else {
                let drop_at = self.draw().is_multiple_of(3).then(|| self.draw() % len);
                self.current = Some((frame, 0, drop_at));
            }
            true
        }

        fn window(&mut self) -> Option<&mut [u8]> {
            let draw = self.draw();
            if matches!(self.current, Some((_, filled, Some(at))) if filled == at) {
                let (mut frame, filled, _) = self.current.take()?;
                frame.payload.truncate(filled);
                self.log.push((frame, Some(filled)));
                return None;
            }
            let (frame, filled, drop_at) = self.current.as_mut()?;
            let stop = drop_at.unwrap_or(frame.payload.len());
            let room = 1 + draw % [3, 100, 5000, 40_000][draw % 4];
            let end = stop.min(*filled + room);
            Some(&mut frame.payload[*filled..end])
        }

        fn advance(&mut self, n: usize) {
            let (frame, filled, _) = self.current.as_mut().expect("advance without a window");
            *filled += n;
            if *filled == frame.payload.len() {
                let (frame, ..) = self.current.take().expect("checked above");
                self.log.push((frame, None));
            }
        }
    }
}
