//! Replication, both halves: the primary's push stream
//! (`serve_replication`, which a store connection becomes on
//! `SubscribeReplication`) and the read-replica runtime — bootstrap, tail,
//! reconnect, promote.
//!
//! A store node started with `--replica-of <addr>` keeps an **in-memory**
//! [`EncryptedPhrStore`] that mirrors a durable primary by replaying the
//! primary's own commit format: raw WAL bytes shipped as `SegmentChunk`
//! frames and whole snapshot generation files shipped as
//! `SnapshotGeneration` frames.  The replica applies frames exactly the way
//! crash recovery does — buffer bytes, scan for intact CRC frames, apply
//! the longest valid prefix — so every invariant the recovery tests pin
//! down ("a crash cannot resurrect a revoked key") transfers verbatim to
//! replication.
//!
//! The stream protocol is deliberately dumb:
//!
//! 1. the replica connects and sends one `SubscribeReplication { applied }`
//!    request — an empty vector on first boot (the primary's answer sizes
//!    the replica's shard count), per-shard resume offsets afterwards;
//! 2. the primary answers with a `ReplicaStatus` and then pushes
//!    `SegmentChunk` / `SnapshotGeneration` frames, interleaving
//!    `ReplicaStatus` heartbeats while idle;
//! 3. the replica never writes again on that connection.  Any defect — a
//!    torn TCP stream, a chunk that does not start exactly at the next
//!    expected byte, a CRC failure inside a chunk — tears the connection
//!    down and re-subscribes from the last *applied* offsets, dropping any
//!    partially buffered bytes.  Resume-from-applied makes redelivery
//!    idempotent: a frame is either fully applied (and never requested
//!    again) or not applied at all.

use crate::node::wait_readable;
use crate::service::RoleService;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tibpre_client::{RemoteError, Request, Response};
use tibpre_pairing::DecodeCtx;
use tibpre_phr::EncryptedPhrStore;
use tibpre_storage::{frame, ChunkOutcome};
use tibpre_wire::{read_frame, write_frame, WireDecode, WireEncode};

/// Upper bound on a replication frame the replica will accept.  Snapshot
/// generations ship as one frame, so this is deliberately far above the
/// request-path default.
pub const MAX_REPLICATION_FRAME: usize = 1 << 30;

/// How long the tail thread waits for the next pushed frame before
/// re-checking the stop flag.
const TAIL_POLL: Duration = Duration::from_millis(100);

/// No frame (the primary heartbeats about once a second) for this long
/// means the primary is gone: tear down and reconnect.
const SILENCE_LIMIT: Duration = Duration::from_secs(10);

/// Steady-state backoff between reconnect attempts while the primary is
/// unreachable.  A subscription that dies *after making progress* (any
/// applied offset advanced) reconnects immediately instead: a transient
/// network cut mid-stream must not cost a quarter second of catch-up per
/// incident, or a flaky path that cuts faster than the backoff can starve
/// the replica outright.  Only consecutive fruitless attempts climb the
/// ladder — see [`reconnect_delay`].
const RECONNECT_BACKOFF: Duration = Duration::from_millis(250);

/// Intermediate rung of the reconnect ladder: one free immediate retry,
/// then this, then [`RECONNECT_BACKOFF`] steady-state.
const RECONNECT_BACKOFF_SHORT: Duration = Duration::from_millis(25);

/// Delay before the next subscription attempt, given how many consecutive
/// attempts have ended without applying anything: immediate, 25ms, then
/// 250ms steady-state.  The ladder keeps a cut-prone-but-live path from
/// starving the replica while still bounding the connect rate against a
/// dead or persistently defective primary.
fn reconnect_delay(fruitless: u32) -> Duration {
    match fruitless {
        0 | 1 => Duration::ZERO,
        2 => RECONNECT_BACKOFF_SHORT,
        _ => RECONNECT_BACKOFF,
    }
}

/// Shared replica state: the write gate and the per-shard applied offsets.
///
/// `applied[shard]` is the logical WAL offset *after* the last frame fully
/// applied to the replica store — the exact resume point sent on
/// re-subscription, and the offset the revocation-ordering invariant is
/// stated against: every policy event at an offset below `applied` is
/// visible, nothing at or above it is.
#[derive(Debug)]
pub struct ReplicaControl {
    promoted: AtomicBool,
    stopping: AtomicBool,
    connected: AtomicBool,
    applied: parking_lot::Mutex<Vec<u64>>,
}

impl ReplicaControl {
    /// Fresh control state with `shards` offsets at the given start.
    pub fn new(applied: Vec<u64>) -> Self {
        ReplicaControl {
            promoted: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            applied: parking_lot::Mutex::new(applied),
        }
    }

    /// Whether this replica accepts writes (only after [`Self::promote`]).
    pub fn writable(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }

    /// Flips the write gate open and stops the tail thread: the replica
    /// stops following its former primary and serves writes from now on.
    pub fn promote(&self) {
        self.promoted.store(true, Ordering::SeqCst);
    }

    /// Asks the tail thread to exit (node shutdown).
    pub fn request_stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// Whether the tail thread should exit.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst) || self.promoted.load(Ordering::SeqCst)
    }

    /// Whether the tail is currently subscribed to the primary.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// The per-shard applied offsets (a snapshot; the tail keeps moving).
    pub fn positions(&self) -> Vec<u64> {
        self.applied.lock().clone()
    }

    fn set_position(&self, shard: usize, offset: u64) {
        self.applied.lock()[shard] = offset;
    }
}

/// Reads one pushed frame, polling `stop` while idle.  Returns `Ok(None)`
/// when asked to stop; a primary silent too long is a `TimedOut` error.
fn read_pushed(
    reader: &mut BufReader<TcpStream>,
    ctx: &DecodeCtx,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<Response>> {
    let deadline = Instant::now() + SILENCE_LIMIT;
    // Once a frame has started, the rest of it gets a generous window
    // (snapshot generations can be large).
    if !wait_readable(reader, TAIL_POLL, Duration::from_secs(60), deadline, stop)? {
        return Ok(None);
    }
    let payload = match read_frame(reader, MAX_REPLICATION_FRAME) {
        Ok(Some(payload)) => payload,
        Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
        Err(e) => return Err(io::Error::other(format!("replication frame: {e}"))),
    };
    let response = Response::from_wire_bytes(&payload, ctx)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad push frame: {e}")))?;
    Ok(Some(response))
}

/// Frames and writes one message: a replica's subscription, or a frame the
/// primary pushes.  Outbound frames are uncapped (a snapshot generation
/// ships as one frame); the replica caps what it reads.
fn send_frame(stream: &mut TcpStream, message: &impl WireEncode) -> io::Result<()> {
    let payload = message.to_wire_bytes();
    let mut out = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut out, &payload, usize::MAX)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "unframeable message"))?;
    stream.write_all(&out)
}

/// Connects to the primary and subscribes from the given applied offsets.
/// Returns the live stream (with whatever the primary pushed behind its
/// first status frame already buffered) plus that status frame's positions.
pub fn subscribe(
    addr: &str,
    ctx: &DecodeCtx,
    applied: Vec<u64>,
) -> io::Result<(BufReader<TcpStream>, Vec<u64>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    send_frame(&mut stream, &Request::SubscribeReplication { applied })?;
    let mut reader = BufReader::new(stream);
    match read_pushed(&mut reader, ctx, &|| false)? {
        Some(Response::ReplicaStatus { positions, .. }) => Ok((reader, positions)),
        Some(Response::Error(e)) => Err(io::Error::other(format!("primary refused: {e}"))),
        Some(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected ReplicaStatus, got {}", other.kind()),
        )),
        None => Err(io::ErrorKind::TimedOut.into()),
    }
}

/// Connects and subscribes, retrying until `deadline` (boot path: the
/// primary may still be coming up).
pub fn subscribe_with_retry(
    addr: &str,
    ctx: &DecodeCtx,
    applied: Vec<u64>,
    deadline: Instant,
) -> io::Result<(BufReader<TcpStream>, Vec<u64>)> {
    loop {
        match subscribe(addr, ctx, applied.clone()) {
            Ok(found) => return Ok(found),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(RECONNECT_BACKOFF),
        }
    }
}

/// Why one subscription ended (the tail loop decides whether to resume).
enum TailEnd {
    /// Stop/promote observed — exit the tail thread.
    Stopped,
    /// Connection defect — drop buffers, reconnect from applied offsets.
    Resync(io::Error),
}

/// Consumes pushed frames on one subscription until defect or stop.
fn drain_stream(
    mut stream: BufReader<TcpStream>,
    store: &EncryptedPhrStore,
    control: &ReplicaControl,
    ctx: &DecodeCtx,
) -> TailEnd {
    let shards = control.positions().len();
    // Raw bytes received but not yet forming a complete frame, per shard.
    let mut buffered: Vec<Vec<u8>> = vec![Vec::new(); shards];
    loop {
        let pushed = match read_pushed(&mut stream, ctx, &|| control.stopping()) {
            Ok(Some(response)) => response,
            Ok(None) => return TailEnd::Stopped,
            Err(e) => return TailEnd::Resync(e),
        };
        match pushed {
            Response::ReplicaStatus { .. } => {} // heartbeat
            Response::SnapshotGeneration {
                shard,
                gen,
                wal_offset: _,
                bytes,
            } => {
                let shard = shard as usize;
                if shard >= shards {
                    return TailEnd::Resync(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "snapshot for an unknown shard",
                    ));
                }
                match store.install_replica_snapshot(shard, gen, &bytes) {
                    Ok(offset) => {
                        buffered[shard].clear();
                        control.set_position(shard, offset);
                    }
                    Err(e) => {
                        return TailEnd::Resync(io::Error::other(format!(
                            "snapshot install failed: {e}"
                        )))
                    }
                }
            }
            Response::SegmentChunk {
                shard,
                start,
                bytes,
            } => {
                let shard = shard as usize;
                if shard >= shards {
                    return TailEnd::Resync(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "chunk for an unknown shard",
                    ));
                }
                let applied = control.positions()[shard];
                let expected = applied + buffered[shard].len() as u64;
                if start != expected {
                    // Chain gap: bytes are missing between what we hold and
                    // what arrived.  Never apply across a gap — resubscribe
                    // from the applied offset instead.
                    return TailEnd::Resync(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("chunk gap on shard {shard}: expected {expected}, got {start}"),
                    ));
                }
                buffered[shard].extend_from_slice(&bytes);
                let scan = frame::scan(&buffered[shard], 0);
                if matches!(scan.defect, Some(frame::FrameDefect::CrcMismatch)) {
                    return TailEnd::Resync(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt frame in replication stream on shard {shard}"),
                    ));
                }
                for payload in &scan.frames {
                    if let Err(e) = store.apply_replication_frame(shard, payload) {
                        return TailEnd::Resync(io::Error::other(format!(
                            "replication apply failed: {e}"
                        )));
                    }
                }
                // A torn tail (incomplete trailing frame) stays buffered
                // until the next chunk completes it.
                buffered[shard].drain(..scan.valid_len as usize);
                control.set_position(shard, applied + scan.valid_len);
            }
            Response::Error(e) => {
                return TailEnd::Resync(io::Error::other(format!("primary error: {e}")))
            }
            other => {
                return TailEnd::Resync(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected push frame: {}", other.kind()),
                ))
            }
        }
    }
}

/// The tail thread body: follow the primary until stopped or promoted,
/// reconnecting (and resuming from the applied offsets) on any defect.
pub fn run_tail(
    primary: String,
    store: Arc<EncryptedPhrStore>,
    control: Arc<ReplicaControl>,
    ctx: DecodeCtx,
    first_stream: BufReader<TcpStream>,
) {
    let mut stream = Some(first_stream);
    // Consecutive subscription attempts that ended without applying a
    // single byte — the index into the reconnect ladder.
    let mut fruitless: u32 = 0;
    while !control.stopping() {
        let live = match stream.take() {
            Some(live) => live,
            None => {
                match subscribe(&primary, &ctx, control.positions()) {
                    Ok((live, _positions)) => live,
                    Err(_) => {
                        // Primary unreachable: keep serving reads from what
                        // is already applied, retry until stop/promote.
                        fruitless = fruitless.saturating_add(1);
                        std::thread::sleep(reconnect_delay(fruitless));
                        continue;
                    }
                }
            }
        };
        control.connected.store(true, Ordering::SeqCst);
        let before = control.positions();
        let end = drain_stream(live, &store, &control, &ctx);
        control.connected.store(false, Ordering::SeqCst);
        match end {
            TailEnd::Stopped => break,
            TailEnd::Resync(_defect) => {
                // Partial buffers died with drain_stream; the next
                // subscription resumes from the applied offsets.  A stream
                // that advanced them earns an immediate reconnect.
                if control.positions() != before {
                    fruitless = 0;
                } else {
                    fruitless = fruitless.saturating_add(1);
                }
                std::thread::sleep(reconnect_delay(fruitless));
            }
        }
    }
}

/// Maximum raw WAL bytes shipped in one `SegmentChunk` frame.
const CHUNK_MAX: usize = 256 * 1024;

/// How often an idle replication stream sends a `ReplicaStatus` heartbeat.
const HEARTBEAT_EVERY: Duration = Duration::from_secs(1);

/// How long the push loop blocks on the commit notifier per wait (bounds
/// how late it notices shutdown).
const COMMIT_WAIT: Duration = Duration::from_millis(100);

/// Ends a subscription with one error frame (best effort: the stream
/// closes right after it either way).
fn refuse(stream: &mut TcpStream, error: RemoteError) -> io::Result<()> {
    let _ = send_frame(stream, &Response::Error(error));
    Ok(())
}

/// The server half of a replication subscription: stream committed WAL
/// bytes (and snapshot generations for garbage-collected prefixes) to the
/// peer until it disconnects or `stop` holds (the node drains).
pub(crate) fn serve_replication(
    mut stream: TcpStream,
    service: &RoleService,
    stop: &dyn Fn() -> bool,
    applied: Vec<u64>,
) -> io::Result<()> {
    let Some(store) = service.store() else {
        return refuse(
            &mut stream,
            RemoteError::WrongRole("replication is served by the store role".to_string()),
        );
    };
    if !store.is_durable() {
        // An in-memory store has no WAL to ship; refusing here beats a
        // subscriber silently tailing an empty log forever.
        return refuse(
            &mut stream,
            RemoteError::BadRequest(
                "replication needs a durable primary (boot it with --data-dir)".to_string(),
            ),
        );
    }
    let committed = store.replication_positions();
    let shards = committed.len();
    // An empty vector is the fresh-replica handshake: the status frame
    // below tells the peer the shard count, and streaming starts at zero.
    let mut from = if applied.is_empty() {
        vec![0; shards]
    } else {
        applied
    };
    if from.len() != shards {
        return refuse(
            &mut stream,
            RemoteError::BadRequest(format!(
                "subscription carries {} shard offsets but the store has {shards} shards",
                from.len()
            )),
        );
    }
    send_frame(
        &mut stream,
        &Response::ReplicaStatus {
            positions: committed,
            writable: service.writable(),
        },
    )?;

    let notifier = store.commit_notifier();
    let mut epoch = notifier.epoch();
    let mut last_heartbeat = Instant::now();
    while !stop() {
        let mut sent_any = false;
        for (shard, pos) in from.iter_mut().enumerate() {
            loop {
                if stop() {
                    return Ok(());
                }
                match store.replication_chunk(shard, *pos, CHUNK_MAX) {
                    Ok(ChunkOutcome::Bytes(bytes)) => {
                        let len = bytes.len() as u64;
                        send_frame(
                            &mut stream,
                            &Response::SegmentChunk {
                                shard: shard as u64,
                                start: *pos,
                                bytes,
                            },
                        )?;
                        *pos += len;
                        sent_any = true;
                    }
                    Ok(ChunkOutcome::CaughtUp) => break,
                    Ok(ChunkOutcome::Ahead) => {
                        // The peer claims more log than this store has
                        // committed — it is following the wrong primary (or
                        // a demoted one).  Refuse rather than guess.
                        return refuse(
                            &mut stream,
                            RemoteError::BadRequest(format!(
                                "shard {shard}: subscriber offset {} is ahead of this store",
                                *pos
                            )),
                        );
                    }
                    // The requested offset was garbage-collected; ship the
                    // newest snapshot generation and resume the byte stream
                    // from its WAL offset.
                    Ok(ChunkOutcome::Gone) => match store.replication_snapshot(shard) {
                        Ok(Some((gen, offset, bytes))) => {
                            send_frame(
                                &mut stream,
                                &Response::SnapshotGeneration {
                                    shard: shard as u64,
                                    gen,
                                    wal_offset: offset,
                                    bytes,
                                },
                            )?;
                            *pos = offset;
                            sent_any = true;
                        }
                        Ok(None) => {
                            return refuse(
                                &mut stream,
                                RemoteError::Internal(format!(
                                    "shard {shard}: log prefix gone but no snapshot exists"
                                )),
                            );
                        }
                        Err(e) => return refuse(&mut stream, RemoteError::from_phr(&e)),
                    },
                    Err(e) => return refuse(&mut stream, RemoteError::from_phr(&e)),
                }
            }
        }
        if sent_any {
            last_heartbeat = Instant::now();
            continue;
        }
        // Fully caught up: block until the next commit (or a short timeout
        // so shutdown is noticed), heartbeating about once a second so the
        // peer can tell a quiet primary from a dead one.
        epoch = notifier.wait_beyond(epoch, COMMIT_WAIT);
        if last_heartbeat.elapsed() >= HEARTBEAT_EVERY {
            send_frame(
                &mut stream,
                &Response::ReplicaStatus {
                    positions: from.clone(),
                    writable: service.writable(),
                },
            )?;
            last_heartbeat = Instant::now();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconnect_ladder_climbs_only_on_consecutive_fruitless_attempts() {
        // A subscription that made progress reconnects immediately, and so
        // does the first fruitless retry — a transient mid-stream cut must
        // not cost a steady-state backoff.  Only repeated failures climb.
        assert_eq!(reconnect_delay(0), Duration::ZERO);
        assert_eq!(reconnect_delay(1), Duration::ZERO);
        assert_eq!(reconnect_delay(2), RECONNECT_BACKOFF_SHORT);
        assert_eq!(reconnect_delay(3), RECONNECT_BACKOFF);
        assert_eq!(reconnect_delay(u32::MAX), RECONNECT_BACKOFF);
        assert!(RECONNECT_BACKOFF_SHORT < RECONNECT_BACKOFF);
    }
}
