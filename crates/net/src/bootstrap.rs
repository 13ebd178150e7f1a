//! Rendezvous bootstrap: how `p` freshly started processes find each other.
//!
//! The protocol has two phases:
//!
//! 1. **Rendezvous.** Every worker binds a data listener on an ephemeral
//!    port, connects to the rendezvous address (the launcher, or rank 0's
//!    host for manual runs) with retry + exponential backoff, and sends a
//!    `HELLO` frame carrying its rank and data address. Once all `p` ranks
//!    have reported, the rendezvous answers each with the full rank↔address
//!    `TABLE` and closes.
//! 2. **Mesh.** Each rank connects to every *lower* rank's data listener
//!    (announcing itself with an `IDENT` frame) and accepts one connection
//!    from every *higher* rank. Connects never block on accepts — the
//!    listener backlog holds them — so the sequential connect-then-accept
//!    order cannot deadlock.
//!
//! Every blocking step is bounded: connects by [`SocketOptions::
//! connect_budget`], rendezvous and accepts by the deadline — a worker that
//! never shows up fails the job with [`CommError::Timeout`] instead of
//! hanging it.

use crate::poll::{poll, PollFd, POLLIN};
use crate::wire::{read_frame, write_frame, Frame, KIND_HELLO, KIND_TABLE};
use exacoll_comm::{CommError, Rank, Tag};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Reserved tag reported by bootstrap-phase timeouts (rendezvous/table).
pub const TAG_BOOTSTRAP: Tag = u32::MAX - 1;
/// Reserved tag reported by mesh-phase timeouts (peer connections).
pub const TAG_MESH: Tag = u32::MAX - 2;

/// Construction options for a socket world endpoint.
#[derive(Debug, Clone, Copy)]
pub struct SocketOptions {
    /// Address of the rendezvous listener every worker reports to.
    pub root: SocketAddr,
    /// Upper bound on how long any single blocking receive may wait before
    /// failing with [`CommError::Timeout`]. Also bounds each bootstrap
    /// phase (table wait, mesh accept).
    pub deadline: Duration,
    /// Total retry budget for one TCP connect (exponential backoff from
    /// 2 ms, capped at 250 ms between attempts).
    pub connect_budget: Duration,
    /// Host address the data listener binds on (`127.0.0.1` by default;
    /// use an external interface for multi-host runs).
    pub bind_host: IpAddr,
}

impl SocketOptions {
    /// Defaults for a localhost world reporting to `root`.
    pub fn new(root: SocketAddr) -> SocketOptions {
        SocketOptions {
            root,
            deadline: Duration::from_secs(60),
            connect_budget: Duration::from_secs(10),
            bind_host: IpAddr::V4(Ipv4Addr::LOCALHOST),
        }
    }
}

/// Cap on the nominal backoff between connect attempts.
const MAX_BACKOFF: Duration = Duration::from_millis(250);

/// SplitMix64 step: the jitter generator of the retry path. Dependency-free
/// and deterministic, so a rank's whole retry schedule is a pure function of
/// its salt — reruns of the same world sleep the same sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Initial generator state for `salt`. The constant separates the streams
/// of adjacent salts (ranks) far more than the salt's own bits would.
fn jitter_seed(salt: u64) -> u64 {
    salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd6e8_feb8_6659_fd93
}

/// The next jittered sleep: uniform over `[backoff/2, backoff]`, advanced
/// deterministically from `state`.
fn jittered(backoff: Duration, state: &mut u64) -> Duration {
    let r = splitmix64(state);
    let half = backoff / 2;
    let span_ns = backoff.saturating_sub(half).as_nanos() as u64;
    if span_ns == 0 {
        return backoff;
    }
    half + Duration::from_nanos(r % (span_ns + 1))
}

/// The deterministic sleep schedule `connect_with_retry_seeded` uses for its
/// first `attempts` retries under `salt`: nominal backoff doubles from 2 ms
/// (capped at [`MAX_BACKOFF`]), each sleep jittered into the upper half of
/// the nominal interval. Shares its generator with the connect path, so the
/// two cannot drift apart; exposed for tests and diagnostics.
pub fn backoff_schedule(salt: u64, attempts: usize) -> Vec<Duration> {
    let mut state = jitter_seed(salt);
    let mut backoff = Duration::from_millis(2);
    (0..attempts)
        .map(|_| {
            let sleep = jittered(backoff, &mut state);
            backoff = (backoff * 2).min(MAX_BACKOFF);
            sleep
        })
        .collect()
}

/// Connect to `addr`, retrying with exponential backoff until `budget` is
/// exhausted. Workers race the rendezvous/peer listeners at startup; the
/// backoff absorbs that window. Legacy entry with a zero jitter salt.
pub fn connect_with_retry(addr: SocketAddr, budget: Duration) -> io::Result<TcpStream> {
    connect_with_retry_seeded(addr, budget, 0)
}

/// [`connect_with_retry`] with a jitter `salt` (typically the caller's
/// rank). When a whole world of workers starts at once and hammers the same
/// listener, identical backoff schedules retry in lockstep; per-rank jitter
/// spreads the retries across the interval while keeping every rank's
/// schedule deterministic — the record/replay contract extends to bootstrap
/// timing.
pub fn connect_with_retry_seeded(
    addr: SocketAddr,
    budget: Duration,
    salt: u64,
) -> io::Result<TcpStream> {
    let start = Instant::now();
    let mut state = jitter_seed(salt);
    let mut backoff = Duration::from_millis(2);
    loop {
        let remaining = budget.saturating_sub(start.elapsed());
        let attempt = remaining.max(Duration::from_millis(50)).min(budget);
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => {
                let sleep = jittered(backoff, &mut state);
                // Budget check uses the actual jittered sleep, so a rank
                // never oversleeps its budget by more than one attempt.
                if start.elapsed() + sleep >= budget {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "connecting to {addr} failed after {:?}: {e}",
                            start.elapsed()
                        ),
                    ));
                }
                std::thread::sleep(sleep);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Serve one rendezvous round on `listener`: collect `p` HELLOs, answer
/// each with the address table, return the table. Bounded by `deadline` —
/// a missing worker yields `TimedOut` naming how many ranks reported.
pub fn serve_rendezvous(
    listener: &TcpListener,
    p: usize,
    deadline: Duration,
) -> io::Result<Vec<SocketAddr>> {
    listener.set_nonblocking(true)?;
    let start = Instant::now();
    let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    let mut addrs: Vec<Option<SocketAddr>> = vec![None; p];
    let mut got = 0usize;
    while got < p {
        if start.elapsed() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("rendezvous: only {got}/{p} ranks reported within {deadline:?}"),
            ));
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                let hello = read_frame(&mut stream)?;
                if hello.kind != KIND_HELLO {
                    return Err(bad_proto(format!(
                        "rendezvous expected HELLO, got kind {}",
                        hello.kind
                    )));
                }
                let rank = hello.src as usize;
                if rank >= p {
                    return Err(bad_proto(format!(
                        "rendezvous: rank {rank} out of range for world of {p}"
                    )));
                }
                if addrs[rank].is_some() {
                    return Err(bad_proto(format!("rendezvous: duplicate rank {rank}")));
                }
                let text = String::from_utf8(hello.payload)
                    .map_err(|_| bad_proto("HELLO address is not UTF-8".into()))?;
                let addr: SocketAddr = text
                    .parse()
                    .map_err(|_| bad_proto(format!("HELLO address `{text}` does not parse")))?;
                addrs[rank] = Some(addr);
                streams[rank] = Some(stream);
                got += 1;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                // A pending connection makes the listener readable.
                let left = deadline.saturating_sub(start.elapsed());
                poll(&mut [PollFd::new(listener, POLLIN)], left)?;
            }
            Err(e) => return Err(e),
        }
    }
    let table: Vec<SocketAddr> = addrs
        .into_iter()
        .map(|a| a.expect("all reported"))
        .collect();
    let text = table
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    for stream in streams.iter_mut() {
        let stream = stream.as_mut().expect("all reported");
        write_frame(
            stream,
            &Frame {
                kind: KIND_TABLE,
                src: 0,
                tag: 0,
                payload: text.as_bytes().to_vec(),
            },
        )?;
    }
    Ok(table)
}

/// Parse a TABLE payload back into the rank↔address table.
pub fn parse_table(payload: &[u8], p: usize) -> io::Result<Vec<SocketAddr>> {
    let text =
        std::str::from_utf8(payload).map_err(|_| bad_proto("TABLE payload is not UTF-8".into()))?;
    let table: Vec<SocketAddr> = text
        .lines()
        .map(|l| {
            l.parse()
                .map_err(|_| bad_proto(format!("TABLE address `{l}` does not parse")))
        })
        .collect::<io::Result<_>>()?;
    if table.len() != p {
        return Err(bad_proto(format!(
            "TABLE has {} addresses, expected {p}",
            table.len()
        )));
    }
    Ok(table)
}

fn bad_proto(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Map a bootstrap-phase failure onto the runtime error taxonomy: timeouts
/// stay [`CommError::Timeout`] (tagged [`TAG_BOOTSTRAP`]/[`TAG_MESH`] so
/// diagnostics name the phase), everything else means the peer is
/// unreachable.
pub fn map_io(rank: Rank, peer: Rank, tag: Tag, e: &io::Error) -> CommError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => CommError::Timeout {
            rank,
            from: peer,
            tag,
            bytes: 0,
        },
        _ => CommError::PeerGone { peer },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_retry_gives_up_within_budget() {
        // An address nothing listens on: port 1 on localhost.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let start = Instant::now();
        let err = connect_with_retry(addr, Duration::from_millis(120));
        assert!(err.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_salt() {
        assert_eq!(backoff_schedule(7, 10), backoff_schedule(7, 10));
        assert_eq!(backoff_schedule(0, 10), backoff_schedule(0, 10));
    }

    #[test]
    fn backoff_schedule_jitters_within_the_nominal_interval() {
        for salt in [0u64, 1, 2, 41] {
            let mut nominal = Duration::from_millis(2);
            for sleep in backoff_schedule(salt, 12) {
                assert!(
                    sleep >= nominal / 2 && sleep <= nominal,
                    "salt {salt}: sleep {sleep:?} outside [{:?}, {nominal:?}]",
                    nominal / 2
                );
                nominal = (nominal * 2).min(MAX_BACKOFF);
            }
            assert_eq!(nominal, MAX_BACKOFF, "schedule reaches the backoff cap");
        }
    }

    #[test]
    fn adjacent_salts_get_decorrelated_schedules() {
        let a = backoff_schedule(0, 8);
        let b = backoff_schedule(1, 8);
        assert_ne!(a, b, "rank 0 and rank 1 must not retry in lockstep");
        // Legacy entry == salt 0, by construction.
        assert_eq!(a, backoff_schedule(0, 8));
    }

    #[test]
    fn rendezvous_times_out_on_missing_ranks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve_rendezvous(&listener, 2, Duration::from_millis(100)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("0/2"));
    }

    #[test]
    fn rendezvous_distributes_the_table() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let root = listener.local_addr().unwrap();
        let p = 3;
        let workers: Vec<_> = (0..p)
            .map(|rank| {
                std::thread::spawn(move || {
                    let fake: SocketAddr = format!("127.0.0.1:{}", 9000 + rank).parse().unwrap();
                    let mut s = connect_with_retry(root, Duration::from_secs(5)).unwrap();
                    write_frame(
                        &mut s,
                        &Frame {
                            kind: KIND_HELLO,
                            src: rank as u32,
                            tag: 0,
                            payload: fake.to_string().into_bytes(),
                        },
                    )
                    .unwrap();
                    let table = read_frame(&mut s).unwrap();
                    assert_eq!(table.kind, KIND_TABLE);
                    parse_table(&table.payload, p).unwrap()
                })
            })
            .collect();
        let served = serve_rendezvous(&listener, p, Duration::from_secs(10)).unwrap();
        for w in workers {
            assert_eq!(w.join().unwrap(), served);
        }
        assert_eq!(served.len(), p);
        assert_eq!(served[2].port(), 9002);
    }

    #[test]
    fn io_errors_map_onto_the_comm_taxonomy() {
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "slow");
        assert!(matches!(
            map_io(1, 0, TAG_BOOTSTRAP, &timeout),
            CommError::Timeout {
                rank: 1,
                from: 0,
                tag: TAG_BOOTSTRAP,
                ..
            }
        ));
        let refused = io::Error::new(io::ErrorKind::ConnectionRefused, "no");
        assert!(matches!(
            map_io(1, 2, TAG_MESH, &refused),
            CommError::PeerGone { peer: 2 }
        ));
    }
}
