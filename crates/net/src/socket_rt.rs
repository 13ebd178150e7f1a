//! The TCP socket transport: every rank is an OS **process** (or a thread in
//! the in-process test harness), messages are wire frames over a full mesh
//! of nonblocking TCP connections.
//!
//! Matching, requests, the error taxonomy and the hang-free guarantee are
//! [`exacoll_comm::engine`]'s, shared with the threaded backend; this file
//! is what is particular to sockets.
//!
//! ## Progress
//!
//! The endpoint owns no thread. All progress is made by the rank's own
//! thread while it is inside a `Comm` call: a `wait`/`waitall` first reads
//! the sockets of the peers it is waiting for (a frame that has already
//! arrived costs one `read`), and only when those are empty parks in one
//! `poll(2)` over every peer that has not departed, then drains whatever
//! became readable into the engine's inbox (arrival order). A
//! [`FrameDecoder`] per peer turns the byte stream into frames. Nothing is
//! read while the rank is outside `Comm` calls — there is no asynchronous
//! progress during a reduction, the usual trade-off of an MPI without a
//! progress thread.
//!
//! A message the rank is blocked on in `waitall_into` skips the inbox: when
//! its header is decoded the engine is asked ([`Posted::claim`]) whether the
//! body may go straight to the posted destination, and if so the decoder
//! `read`s it there — out of the read-ahead for a small frame, from the
//! socket for a large one, range by range for a scattered destination. No
//! payload `Vec`, no second copy. A frame that arrives while nothing waits
//! for it (during a blocked send, or ahead of its `waitall_into`) is queued
//! as before. When the call fails half-way through a body — timeout, abort,
//! another peer's departure — the destination is gone but the bytes still
//! come: the decoder reads the rest of that frame to nowhere, so the stream
//! stays in step with its frames.
//!
//! Sends are eager: a send writes the frame into the kernel socket buffer
//! and completes locally. When the buffer is full the send does not block in
//! the kernel: it polls for room on that peer *and* for input from everyone,
//! delivers what arrives and resumes the partial write — so two ranks that
//! each send more than the buffers hold before either receives still
//! complete, and a send to a peer that never enters a `Comm` call ends in
//! [`CommError::Timeout`] at the deadline.
//!
//! ## Departure and abort on the wire
//!
//! A `GONE` frame on drop, EOF, a socket error and a corrupt stream all mark
//! a peer departed — a dead **process** is observed exactly like a departed
//! thread, in every case after everything it sent before has been
//! delivered. `ABORT` frames fan out to every peer; the first origin read
//! is the one [`Transport::aborted`] reports and the one relayed on drop.

use crate::bootstrap::{
    connect_with_retry_seeded, map_io, parse_table, serve_rendezvous, SocketOptions, TAG_BOOTSTRAP,
    TAG_MESH,
};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::wire::{
    read_frame, resume_frame_parts, write_frame, Frame, FrameDecoder, Land, KIND_ABORT, KIND_GONE,
    KIND_HELLO, KIND_IDENT, KIND_MSG, KIND_TABLE, READ_BUF_LEN,
};
use exacoll_comm::{
    expect_all_ranks, run_scoped, CommError, CommResult, Engine, Inbox, Payload, Posted, Rank, Tag,
    Transport,
};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a blocked receive or send parks in `poll` between deadline
/// checks when nothing arrives (arrivals end the `poll` immediately).
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// The connection to one peer.
struct Peer {
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// What one [`Peer::pump`] feeds: the engine's inbox for frames nobody is
/// blocked on, the posted destinations for the ones somebody is.
struct Delivery<'a, 'p> {
    inbox: &'a mut Inbox,
    posted: &'a mut Posted<'p>,
    peer: Rank,
    /// Payload bytes this pump has queued or landed.
    moved: usize,
    #[cfg(test)]
    landed: usize,
}

impl Land for Delivery<'_, '_> {
    fn claim(&mut self, src: u32, tag: u32, len: usize) -> bool {
        src as Rank == self.peer && self.posted.claim(self.inbox, self.peer, tag, len)
    }

    fn window(&mut self) -> Option<&mut [u8]> {
        self.posted.window(self.peer)
    }

    fn advance(&mut self, n: usize) {
        self.posted.advance(self.peer, n);
        self.moved += n;
        #[cfg(test)]
        {
            self.landed += n;
        }
    }
}

impl Peer {
    /// Read the socket, feeding `to`, until it has nothing more or this call
    /// has moved a read buffer's worth of payload: what the rank has not
    /// asked for yet stays in the kernel, where it counts against the
    /// sender's window, instead of piling up in the unexpected queue
    /// (level-triggered `poll` reports it again). `false` once the peer is
    /// done: GONE, an unrecognized kind (the stream is corrupt), EOF or a
    /// socket error — a crashed process looks exactly like a clean exit —
    /// and by then everything it sent before has been delivered.
    fn pump(&mut self, to: &mut Delivery<'_, '_>, abort_origin: &mut Option<Rank>) -> bool {
        loop {
            // A short read emptied the socket: level-triggered `poll`
            // reports whatever races in after it.
            let drained = match self.decoder.fill(&mut self.stream, to) {
                Ok(drained) => drained,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            loop {
                match self.decoder.next_frame(to) {
                    Ok(Some(frame)) => match frame.kind {
                        KIND_MSG => {
                            to.moved += frame.payload.len();
                            to.inbox
                                .deliver(frame.src as Rank, frame.tag, frame.payload);
                        }
                        KIND_ABORT => {
                            abort_origin.get_or_insert(frame.src as Rank);
                        }
                        _ => return false,
                    },
                    Ok(None) if drained || to.moved >= READ_BUF_LEN => return true,
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
        }
    }
}

/// One rank's side of the TCP mesh.
pub struct Mesh {
    rank: Rank,
    /// `None` at `self.rank`. Every stream is nonblocking.
    peers: Vec<Option<Peer>>,
    /// One `poll` slot per rank, watching for input; switched off at
    /// `self.rank` and for every peer that is gone — an fd at EOF is
    /// readable forever and would turn every wait into a spin.
    pollfds: Vec<PollFd>,
    /// First abort origin observed or raised here, if any.
    abort_origin: Option<Rank>,
    /// How many times this endpoint parked in `poll`.
    #[cfg(test)]
    polls: usize,
    /// Payload bytes read straight into a posted destination.
    #[cfg(test)]
    landed: usize,
}

/// One rank's endpoint of a TCP socket world.
pub type SocketComm = Engine<Mesh>;

/// Join a size-`size` world as `rank`: bind a data listener, report to the
/// rendezvous at `opts.root`, receive the address table, and build the full
/// mesh. Returns once every peer connection is live.
pub fn join(rank: Rank, size: usize, opts: &SocketOptions) -> CommResult<SocketComm> {
    assert!(size > 0, "communicator must have at least one rank");
    assert!(rank < size, "rank {rank} out of range for world of {size}");
    let listener = TcpListener::bind((opts.bind_host, 0))
        .map_err(|e| map_io(rank, rank, TAG_BOOTSTRAP, &e))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| map_io(rank, rank, TAG_BOOTSTRAP, &e))?;

    // Phase 1: rendezvous. Root rank 0 of the *error taxonomy* is the
    // rendezvous host; peers that cannot reach it fail with Timeout.
    let table = rendezvous(rank, size, my_addr, opts)?;

    // Phase 2: mesh. Connect to lower ranks, accept from higher ranks.
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    for (peer, &addr) in table.iter().enumerate().take(rank) {
        let mut s = connect_with_retry_seeded(addr, opts.connect_budget, rank as u64)
            .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
        write_frame(&mut s, &Frame::control(KIND_IDENT, rank))
            .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
        streams[peer] = Some(s);
    }
    accept_higher(rank, size, &listener, &mut streams, opts.deadline)?;

    // Bootstrap spoke blocking I/O; from here on nothing may block in
    // the kernel except `poll`.
    let mut pollfds = vec![PollFd::off(); size];
    let mut peers: Vec<Option<Peer>> = Vec::with_capacity(size);
    for (peer, stream) in streams.into_iter().enumerate() {
        if let Some(stream) = &stream {
            stream
                .set_nonblocking(true)
                .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
            pollfds[peer] = PollFd::new(stream, POLLIN);
        }
        peers.push(stream.map(|stream| Peer {
            stream,
            decoder: FrameDecoder::new(),
        }));
    }
    let mesh = Mesh {
        rank,
        peers,
        pollfds,
        abort_origin: None,
        #[cfg(test)]
        polls: 0,
        #[cfg(test)]
        landed: 0,
    };
    Ok(Engine::new(rank, size, opts.deadline, mesh))
}

impl Mesh {
    /// Raise the world-wide abort flag, attributing it to `origin`: fails
    /// local pending operations and fans ABORT frames out to every peer.
    pub fn abort(&mut self, origin: Rank) {
        self.abort_origin.get_or_insert(origin);
        self.notify_peers(&[Frame::control(KIND_ABORT, origin)]);
    }

    /// Write control `frames` to every peer, best effort: a peer whose
    /// socket is full has stopped reading and is not waited for.
    fn notify_peers(&mut self, frames: &[Frame]) {
        for peer in self.peers.iter_mut().flatten() {
            for frame in frames {
                let _ = write_frame(&mut peer.stream, frame);
            }
        }
    }

    /// Read what `peer`'s socket holds ([`Peer::pump`]) and note its
    /// departure if that is what it held.
    fn drain(&mut self, inbox: &mut Inbox, posted: &mut Posted<'_>, peer: Rank) {
        if inbox.is_gone(peer) {
            return;
        }
        let Some(conn) = self.peers[peer].as_mut() else {
            return;
        };
        let mut to = Delivery {
            inbox,
            posted,
            peer,
            moved: 0,
            #[cfg(test)]
            landed: 0,
        };
        let alive = conn.pump(&mut to, &mut self.abort_origin);
        #[cfg(test)]
        {
            self.landed += to.landed;
        }
        if !alive {
            self.mark_gone(inbox, peer);
        }
    }

    /// Record `peer`'s departure and take it out of the poll set.
    fn mark_gone(&mut self, inbox: &mut Inbox, peer: Rank) {
        inbox.depart(peer);
        self.pollfds[peer] = PollFd::off();
    }

    /// Park until some live peer's socket is readable — or `writable`'s has
    /// room again — or `timeout` passes, then drain every readable socket.
    fn park(
        &mut self,
        inbox: &mut Inbox,
        posted: &mut Posted<'_>,
        timeout: Duration,
        writable: Option<Rank>,
    ) {
        #[cfg(test)]
        {
            self.polls += 1;
        }
        if let Some(to) = writable {
            self.pollfds[to].events |= POLLOUT;
        }
        let ready = poll(&mut self.pollfds, timeout.min(POLL_QUANTUM));
        if let Some(to) = writable {
            self.pollfds[to].events &= !POLLOUT;
        }
        if !matches!(ready, Ok(n) if n > 0) {
            return;
        }
        for peer in 0..self.pollfds.len() {
            // Anything but "room to write" is input, EOF or an error, and
            // reading is how each of them is told apart.
            if self.pollfds[peer].revents & !POLLOUT != 0 {
                self.drain(inbox, posted, peer);
            }
        }
    }
}

impl Transport for Mesh {
    /// Write one frame to `to`, eagerly: return once the kernel holds all of
    /// it, as one vectored write of the header and the payload's segments —
    /// no intermediate payload `Vec`. A full socket buffer is waited out in
    /// [`Mesh::park`], which keeps receiving meanwhile, bounded by
    /// `deadline`.
    fn send(
        &mut self,
        inbox: &mut Inbox,
        to: Rank,
        tag: Tag,
        payload: Payload<'_>,
        deadline: Duration,
    ) -> CommResult<()> {
        let gathered: Vec<&[u8]>;
        let segments: &[&[u8]] = match &payload {
            Payload::Owned(data) => &[data.as_slice()],
            Payload::View(view) => {
                gathered = view.segments().collect();
                &gathered
            }
        };
        let src = self.rank as u32;
        let mut written = 0usize;
        let mut blocked_since = None;
        let failure = loop {
            let conn = self.peers[to].as_mut().expect("mesh stream for peer");
            match resume_frame_parts(&mut conn.stream, KIND_MSG, src, tag, segments, &mut written) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => break CommError::PeerGone { peer: to },
            }
            let start = *blocked_since.get_or_insert_with(Instant::now);
            let Some(left) = remaining(deadline, start) else {
                break CommError::Timeout {
                    rank: self.rank,
                    from: to,
                    tag,
                    bytes: segments.iter().map(|s| s.len()).sum(),
                };
            };
            // Nothing is offered a destination from here: a message read
            // while this send waits for room is queued.
            self.park(inbox, &mut Posted::none(), left, Some(to));
            if let Some(origin) = self.abort_origin {
                break CommError::Aborted { origin };
            }
            if inbox.is_gone(to) {
                break CommError::PeerGone { peer: to };
            }
        };
        if written > 0 {
            // The stream ends inside a frame: whatever followed would be
            // read as the rest of this payload. Close it, so the peer sees
            // this rank depart mid-frame and no later send can corrupt it.
            self.mark_gone(inbox, to);
            if let Some(conn) = &self.peers[to] {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        Err(failure)
    }

    /// With a peer named, read exactly its socket — a frame that has already
    /// arrived is taken with one `read`, and `poll` is only paid for when
    /// that came up empty; with none, park in `poll`.
    #[inline]
    fn progress(
        &mut self,
        inbox: &mut Inbox,
        posted: &mut Posted<'_>,
        timeout: Duration,
        from: Option<Rank>,
    ) {
        match from {
            Some(peer) => self.drain(inbox, posted, peer),
            None => self.park(inbox, posted, timeout, None),
        }
    }

    #[inline]
    fn aborted(&self) -> Option<Rank> {
        self.abort_origin
    }
}

/// What is left of `deadline` since `start`, or `None` once it has passed.
fn remaining(deadline: Duration, start: Instant) -> Option<Duration> {
    deadline
        .checked_sub(start.elapsed())
        .filter(|left| !left.is_zero())
}

/// Rendezvous phase of [`join`].
fn rendezvous(
    rank: Rank,
    size: usize,
    my_addr: SocketAddr,
    opts: &SocketOptions,
) -> CommResult<Vec<SocketAddr>> {
    let mut boot = connect_with_retry_seeded(opts.root, opts.connect_budget, rank as u64)
        .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    write_frame(
        &mut boot,
        &Frame {
            kind: KIND_HELLO,
            src: rank as u32,
            tag: 0,
            payload: my_addr.to_string().into_bytes(),
        },
    )
    .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    boot.set_read_timeout(Some(opts.deadline))
        .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    let frame = read_frame(&mut boot).map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    if frame.kind != KIND_TABLE {
        return Err(CommError::PeerGone { peer: 0 });
    }
    parse_table(&frame.payload, size).map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))
}

/// Accept one IDENT-announced connection from every rank above `rank`.
fn accept_higher(
    rank: Rank,
    size: usize,
    listener: &TcpListener,
    streams: &mut [Option<TcpStream>],
    deadline: Duration,
) -> CommResult<()> {
    let expected = size - 1 - rank;
    let mut got = 0usize;
    if expected == 0 {
        return Ok(());
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
    let start = Instant::now();
    while got < expected {
        let Some(left) = remaining(deadline, start) else {
            return Err(CommError::Timeout {
                rank,
                from: rank,
                tag: TAG_MESH,
                bytes: 0,
            });
        };
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nodelay(true);
                s.set_read_timeout(Some(Duration::from_secs(5)))
                    .map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
                let ident = read_frame(&mut s).map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
                let peer = ident.src as usize;
                if ident.kind != KIND_IDENT || peer <= rank || peer >= size {
                    return Err(CommError::InvalidRank { rank: peer, size });
                }
                s.set_read_timeout(None)
                    .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
                streams[peer] = Some(s);
                got += 1;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                // A pending connection makes the listener readable.
                poll(&mut [PollFd::new(listener, POLLIN)], left)
                    .map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
            }
            Err(e) => return Err(map_io(rank, rank, TAG_MESH, &e)),
        }
    }
    Ok(())
}

impl Drop for Mesh {
    fn drop(&mut self) {
        // Departure poison: announce GONE, then shut the sockets down. The
        // GONE frame precedes FIN on the wire, so peers drain every earlier
        // message first (per-sender FIFO). Nothing here waits: a control
        // frame that does not fit a full socket is skipped, and the FIN that
        // follows the queued data marks this rank gone just the same.
        //
        // An observed abort is relayed ahead of GONE: without the relay, a
        // rank two hops from the origin can see its neighbor's departure
        // before the origin's ABORT frame and misreport `PeerGone`. The
        // relay makes abort attribution flood-fill through the departure
        // cascade on the same FIFO streams. (The engine looks at the
        // sockets once more before this runs, so an ABORT that arrived while
        // the rank was outside `Comm` calls counts as observed.)
        let mut frames = Vec::with_capacity(2);
        if let Some(origin) = self.abort_origin {
            frames.push(Frame::control(KIND_ABORT, origin));
        }
        frames.push(Frame::control(KIND_GONE, self.rank));
        self.notify_peers(&frames);
        for peer in self.peers.iter().flatten() {
            let _ = peer.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Run closure `f` on every rank of a fresh size-`p` socket world — one OS
/// thread per rank in this process, full TCP mesh over loopback, rendezvous
/// hosted on an ephemeral port. The multi-process path
/// (`exacoll launch`) exercises identical code; this harness is what makes
/// the backend testable under `cargo test`.
///
/// Panics if any rank fails, reporting every failing rank.
pub fn run_socket_ranks<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    expect_all_ranks(try_run_socket_ranks(p, f))
}

/// Like [`run_socket_ranks`] but collects per-rank `Result`s, for
/// failure-injection tests. A panicking rank yields
/// [`CommError::RankPanicked`] (its dropped endpoint poisons peers).
pub fn try_run_socket_ranks<T, F>(p: usize, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    try_run_socket_ranks_with(p, Duration::from_secs(60), f)
}

/// [`try_run_socket_ranks`] with an explicit receive deadline.
pub fn try_run_socket_ranks_with<T, F>(p: usize, deadline: Duration, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
    let root = listener.local_addr().expect("rendezvous address");
    // The server outlives the slowest joiner by a margin so bootstrap never
    // races the deadline check.
    let server_deadline = deadline + Duration::from_secs(5);
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, server_deadline));
    let mut opts = SocketOptions::new(root);
    opts.deadline = deadline;
    let out = run_scoped(vec![(); p], |rank, ()| f(&mut join(rank, p, &opts)?));
    let _ = server.join();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{Comm, Regions, SgDests, SgView};

    /// A message far larger than the kernel's socket buffers, so a sender
    /// cannot finish it unless the receiver reads.
    const HUGE: usize = 64 << 20;

    fn pattern(from: Rank, to: Rank, n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i % 251) as u8 ^ (from * 16 + to) as u8)
            .collect()
    }

    /// Every rank sends `n` bytes to every other rank *before* it posts a
    /// receive. Nobody reads while it sends unless a blocked send makes
    /// progress on the receive side itself.
    fn exchange_before_receiving(p: usize, n: usize) {
        let out = run_socket_ranks(p, |c| {
            let me = c.rank();
            let others: Vec<Rank> = (0..p).filter(|&r| r != me).collect();
            let mut reqs = Vec::new();
            for &to in &others {
                reqs.push(c.isend(to, 4, pattern(me, to, n))?);
            }
            for &from in &others {
                reqs.push(c.irecv(from, 4, n)?);
            }
            let got = c.waitall(reqs)?;
            for (&from, msg) in others.iter().zip(got.into_iter().flatten()) {
                assert!(msg == pattern(from, me, n), "rank {me}: bytes from {from}");
            }
            Ok(())
        });
        assert_eq!(out.len(), p);
    }

    #[test]
    fn two_ranks_sending_8_mib_before_receiving_complete() {
        exchange_before_receiving(2, 8 << 20);
    }

    #[test]
    fn all_to_all_of_4_mib_sent_before_receiving_completes() {
        exchange_before_receiving(4, 4 << 20);
    }

    #[test]
    fn send_to_a_peer_outside_comm_calls_times_out() {
        let start = Instant::now();
        let results = try_run_socket_ranks_with(2, Duration::from_millis(300), |c| {
            if c.rank() == 0 {
                c.send(1, 6, vec![0u8; HUGE])
            } else {
                // Alive, but computing: outlive rank 0's deadline so it
                // times out rather than observing a departure.
                std::thread::sleep(Duration::from_millis(900));
                Ok(())
            }
        });
        assert_eq!(
            results[0],
            Err(CommError::Timeout {
                rank: 0,
                from: 1,
                tag: 6,
                bytes: HUGE,
            })
        );
        assert!(results[1].is_ok());
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn abort_unblocks_a_blocked_send() {
        let start = Instant::now();
        let results = try_run_socket_ranks(3, |c| match c.rank() {
            0 => c.send(1, 6, vec![0u8; HUGE]),
            1 => {
                std::thread::sleep(Duration::from_millis(600));
                Ok(())
            }
            _ => {
                std::thread::sleep(Duration::from_millis(100));
                c.transport_mut().abort(2);
                Ok(())
            }
        });
        assert_eq!(results[0], Err(CommError::Aborted { origin: 2 }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn departing_receiver_unblocks_a_blocked_send() {
        let start = Instant::now();
        let results = try_run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 6, vec![0u8; HUGE])
            } else {
                std::thread::sleep(Duration::from_millis(100));
                Ok(())
            }
        });
        assert_eq!(results[0], Err(CommError::PeerGone { peer: 1 }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn large_message_before_departure_still_delivered() {
        // Longer than the decoder's read buffer, once small enough to sit
        // in the kernel with GONE and FIN behind it before the receiver
        // first looks, once so large that the sender departs mid-drain.
        for n in [48 << 10, 1 << 20] {
            let out = run_socket_ranks(2, |c| {
                if c.rank() == 0 {
                    c.send(1, 0, pattern(0, 1, n))?;
                    Ok(vec![])
                } else {
                    std::thread::sleep(Duration::from_millis(50));
                    c.recv(0, 0, n)
                }
            });
            assert!(out[1] == pattern(0, 1, n), "{n} B");
        }
    }

    #[test]
    fn payloads_not_asked_for_yet_stay_in_the_kernel() {
        // Eight messages, each longer than the read buffer, are on their
        // way before the receiver's first call. Every `recv` reads the one
        // it returns and leaves the rest to the socket buffers.
        let n = 64 << 10;
        run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                for i in 0..8u8 {
                    c.send(1, 2, vec![i; n])?;
                }
                c.recv(1, 3, 1)?;
            } else {
                std::thread::sleep(Duration::from_millis(50));
                for i in 0..8u8 {
                    assert!(c.recv(0, 2, n)? == vec![i; n], "message {i}");
                    assert!(c.queued() == 0, "read ahead of message {i}");
                }
                c.send(0, 3, vec![0])?;
            }
            Ok(())
        });
    }

    #[test]
    fn a_receive_waited_on_before_it_arrives_is_read_into_its_destination() {
        // Rank 1 sends only once rank 0 has told it to, and nothing is read
        // outside `Comm` calls: whenever the megabyte reaches rank 0's
        // socket, the first read of it happens inside the `waitall_into`
        // that names its destination — two ranges, swapped — and takes as
        // many reads as the kernel's buffers make it, none of them past the
        // message's end: the small one behind it stays in the socket.
        let n = 1 << 20;
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 1 {
                c.recv(0, 1, 1)?;
                c.send(0, 2, pattern(1, 0, n))?;
                c.send(0, 3, vec![9; 16])?;
                return Ok(vec![]);
            }
            let go = c.isend(1, 1, vec![0])?;
            let mut reqs = vec![go, c.irecv(1, 2, n)?];
            let mut buf = vec![0u8; n];
            let (ranges, spans) = ([n / 2..n, 0..n / 2], [0..0, 0..2]);
            c.waitall_into(
                &mut reqs,
                Regions::one(&mut buf),
                SgDests::new(&ranges, &spans),
            )?;
            assert_eq!(c.transport().landed, n);
            assert_eq!(c.queued(), 0);
            assert_eq!(c.recv(1, 3, 16)?, vec![9; 16]);
            assert_eq!(c.transport().landed, n, "an owned receive never lands");
            Ok(buf)
        });
        let sent = pattern(1, 0, n);
        assert!(out[0][n / 2..] == sent[..n / 2] && out[0][..n / 2] == sent[n / 2..]);
    }

    #[test]
    fn departed_peer_leaves_the_poll_set() {
        // Rank 0 leaves at once; rank 1 stays but never sends. Rank 0's
        // socket is at EOF — readable forever — so unless it is dropped
        // from the poll set, rank 2's wait for rank 1 spins instead of
        // sleeping through its quanta.
        let results = try_run_socket_ranks_with(3, Duration::from_millis(300), |c| {
            match c.rank() {
                0 => {}
                1 => std::thread::sleep(Duration::from_millis(900)),
                _ => return Ok((c.recv(1, 5, 8), c.transport().polls)),
            }
            Ok((Ok(vec![]), 0))
        });
        let (res, polls) = results[2].clone().expect("rank 2 reports");
        assert_eq!(
            res,
            Err(CommError::Timeout {
                rank: 2,
                from: 1,
                tag: 5,
                bytes: 8,
            })
        );
        assert!(polls < 100, "wait loop ran {polls} times in 300 ms");
    }

    #[test]
    fn sendrecv_exchange_and_large_world() {
        let p = 8;
        let out = run_socket_ranks(p, |c| {
            let peer = (c.rank() + 1) % p;
            let from = (c.rank() + p - 1) % p;
            c.sendrecv(peer, 0, vec![c.rank() as u8; 16], from, 0, 16)
        });
        for (r, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![((r + p - 1) % p) as u8; 16]);
        }
    }

    #[test]
    fn send_sg_delivers_identical_bytes_to_isend() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                let buf: Vec<u8> = (0..64).collect();
                // Out-of-order segments with a gap: payload is 40..64 ++ 0..16.
                let ranges = [40..64, 0..16];
                let view = SgView::new(&buf, &ranges);
                let expect = view.to_vec();
                let r1 = c.send_sg(1, 7, view)?;
                let r2 = c.isend(1, 7, expect)?;
                c.waitall(vec![r1, r2])?;
                Ok(vec![])
            } else {
                let a = c.recv(0, 7, 40)?;
                let b = c.recv(0, 7, 40)?;
                assert_eq!(a, b, "vectored and gathered sends must match");
                Ok(a)
            }
        });
        let mut expect: Vec<u8> = (40..64).collect();
        expect.extend(0..16);
        assert_eq!(out[1], expect);
    }

    #[test]
    fn send_sg_to_self_lands_in_local_queue() {
        let out = run_socket_ranks(1, |c| {
            let buf = [9u8, 8, 7, 6];
            let ranges = [2..4, 0..2];
            let r = c.send_sg(0, 1, SgView::new(&buf, &ranges))?;
            c.wait(r)?;
            c.recv(0, 1, 4)
        });
        assert_eq!(out[0], vec![7, 6, 9, 8]);
    }

    #[test]
    fn large_payload_survives_the_wire() {
        let n = 1 << 20;
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                c.send(1, 3, data)?;
                Ok(vec![])
            } else {
                c.recv(0, 3, n)
            }
        });
        assert_eq!(out[1].len(), n);
        assert!(out[1]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 251) as u8));
    }
}
