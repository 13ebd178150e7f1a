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
/// socket cost one `read` for however many there are); a larger one gets
/// its payload `Vec` once and is read straight into it.
pub(crate) const READ_BUF_LEN: usize = 16 * 1024;

/// [`read_frame`] for a source that hands bytes over in arbitrary pieces —
/// a nonblocking socket. [`fill`](Self::fill) performs one `read`,
/// [`next_frame`](Self::next_frame) pops the frames that read completed;
/// the frames and the terminal error are those `read_frame` would produce
/// on the same byte stream.
pub(crate) struct FrameDecoder {
    buf: Box<[u8]>,
    /// `buf[start..end]` holds bytes read but not yet decoded.
    start: usize,
    end: usize,
    /// A frame larger than `buf`, with how much of its payload has arrived.
    large: Option<(Frame, usize)>,
}

impl FrameDecoder {
    pub(crate) fn new() -> FrameDecoder {
        FrameDecoder {
            buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            large: None,
        }
    }

    /// One `read` from `r` into the large frame in progress, or else into
    /// the buffer. `Ok(true)` means the read came back short, i.e. the
    /// source had nothing more at that moment; end of stream is
    /// `UnexpectedEof` (as it is for `read_frame`, also between frames).
    /// Call only after [`next_frame`](Self::next_frame) returned `None`.
    pub(crate) fn fill(&mut self, r: &mut impl Read) -> io::Result<bool> {
        let (space, filled) = match &mut self.large {
            Some((frame, filled)) => (&mut frame.payload[*filled..], filled),
            None => {
                // What is left is the head of one incomplete frame that
                // fits the buffer; at the front it has room to complete.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                (&mut self.buf[self.end..], &mut self.end)
            }
        };
        match r.read(space)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                *filled += n;
                Ok(n < space.len())
            }
        }
    }

    /// The next complete frame, if the bytes read so far hold one.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if let Some((frame, filled)) = &self.large {
            if *filled < frame.payload.len() {
                return Ok(None);
            }
            return Ok(self.large.take().map(|(frame, _)| frame));
        }
        let avail = &self.buf[self.start..self.end];
        let Some((header, body)) = avail.split_first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (kind, src, tag, len) = parse_header(header)?;
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
            self.large = Some((frame, body.len()));
            self.start = self.end;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(decoder.next_frame().unwrap().is_none());
        let mut socket = small;
        assert!(decoder.fill(&mut socket).unwrap(), "short read: drained");
        for tag in 0..3 {
            let frame = decoder
                .next_frame()
                .unwrap()
                .expect("decoded from the buffer");
            assert_eq!(frame, Frame::msg(1, tag, vec![tag as u8; 64]));
        }
        assert!(decoder.next_frame().unwrap().is_none());

        let mut socket = large;
        assert!(!decoder.fill(&mut socket).unwrap(), "filled the buffer");
        assert!(decoder.next_frame().unwrap().is_none());
        // The rest goes straight into the payload, in one read here.
        assert!(!decoder.fill(&mut socket).unwrap());
        assert!(socket.is_empty());
        assert_eq!(decoder.next_frame().unwrap(), Some(big));
        let eof = decoder.fill(&mut socket).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
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
            let got = drive(|| match decoder.next_frame()? {
                Some(frame) => Ok(Some(frame)),
                None => decoder.fill(&mut pieces).map(|_| None),
            });
            prop_assert_eq!(&got.1, &expected.1);
            prop_assert!(got.0 == expected.0, "frames differ ({} vs {})", got.0.len(), expected.0.len());
            let want = if ending == 2 { io::ErrorKind::InvalidData } else { io::ErrorKind::UnexpectedEof };
            prop_assert_eq!(got.1, want);
        }
    }
}
