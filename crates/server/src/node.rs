//! The TCP node: bind, accept, dispatch, drain.
//!
//! One hand-rolled blocking listener per node.  Each accepted connection
//! gets a *reader* thread running a frame-decode loop and a paired *writer*
//! thread that frames responses back in request order (coalescing
//! consecutive ready responses into one vectored write).  A connection
//! waits for the *first byte* of a frame in short timeout slices (so it
//! notices shutdown while idle), then switches to the full read timeout for
//! the remainder — a slow-but-live peer mid-frame is never cut off by the
//! idle poll, and a pipelined peer whose next frame is already buffered
//! never re-enters the poll at all.
//!
//! On a proxy, pairing-heavy requests (`Disclose` / `DiscloseCategory`) are
//! not handled on the connection thread: readers submit them to the batch
//! scheduler, which drains up to `batch_max` requests per tick across *all*
//! connections and executes them as one engine batch.  Cheap requests bypass
//! the queue and are answered inline.  Per-connection response order is
//! preserved either way, because each reader enqueues its response slot with
//! the writer before submitting.
//!
//! Shutdown — via [`crate::signal`] or a `Shutdown` frame — stops the
//! accept loop, lets every in-flight request finish (including entries
//! still queued in the scheduler: they are answered, not dropped), joins
//! the connection threads, `sync()`s the store, and releases the advisory
//! directory lock by dropping it.

use crate::config::NodeConfig;
use crate::metrics;
use crate::replica::{self, ReplicaControl};
use crate::scheduler::{BatchEntry, ResponseSlot, Scheduler};
use crate::service::RoleService;
use crate::signal;
use rand::rngs::OsRng;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tibpre_client::{params_for_level, ClientConfig, NodeRole, RemoteError, Request, Response};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::Kgc;
use tibpre_pairing::DecodeCtx;
use tibpre_phr::{Durability, EncryptedPhrStore, ProxyService};
use tibpre_storage::ChunkOutcome;
use tibpre_wire::{read_frame, write_frame, write_frames, FrameError, WireDecode, WireEncode};

/// How long an idle connection sleeps between shutdown-flag checks while
/// waiting for the first byte of the next frame.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps when no connection is pending.  Accept
/// latency is paid on every reconnect — a replica resubscribing after a
/// network cut, a client pool refilling — so the poll is short: a coarse
/// slice here puts tens of milliseconds in front of every handshake, which
/// is enough for a flaky path to sever the new connection before it ever
/// authenticates its first frame.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection bound on responses in flight between reader and writer.
/// A pipelined peer deeper than this blocks its reader (backpressure)
/// instead of growing server memory without limit.
const PIPELINE_BACKLOG: usize = 256;

/// Caps one coalesced vectored response write (frame count and payload
/// bytes) so a burst of ready responses cannot monopolize the socket
/// buffer in a single syscall.
const WRITE_COALESCE_MAX: usize = 64;
const WRITE_COALESCE_BYTES: usize = 1024 * 1024;

/// Errors booting a node.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// Opening the durable store or proxy state failed.
    Phr(tibpre_phr::PhrError),
    /// The proxy could not reach its store node.
    Client(tibpre_client::ClientError),
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "I/O error: {e}"),
            ServerError::Phr(e) => write!(f, "PHR state error: {e}"),
            ServerError::Client(e) => write!(f, "store connection error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<tibpre_phr::PhrError> for ServerError {
    fn from(e: tibpre_phr::PhrError) -> Self {
        ServerError::Phr(e)
    }
}

impl From<tibpre_client::ClientError> for ServerError {
    fn from(e: tibpre_client::ClientError) -> Self {
        ServerError::Client(e)
    }
}

struct Shared {
    service: RoleService,
    config: NodeConfig,
    ctx: DecodeCtx,
    shutdown: AtomicBool,
    /// The cross-request batch scheduler (proxy role).
    scheduler: Option<Arc<Scheduler>>,
    /// Joined by the accept loop on drain, after the scheduler stops.
    sched_thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
    /// Joined by the accept loop on drain (replica nodes only).
    tail_thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::interrupted()
    }
}

/// A running node.  Dropping the handle does **not** stop the node; call
/// [`NodeHandle::shutdown`] (or send a `Shutdown` frame / SIGINT) and then
/// [`NodeHandle::wait`].
pub struct NodeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    engine_note: Option<String>,
}

impl NodeHandle {
    /// The bound listen address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `TIBPRE_WORKERS` value the engine rejected at startup, if any
    /// (surfaced in the `tibpre-node` banner).
    pub fn engine_note(&self) -> Option<&str> {
        self.engine_note.as_deref()
    }

    /// Requests a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the node has drained and released its state.
    pub fn wait(mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

/// Boots a node from its configuration and returns once the listener is
/// accepting.
pub fn start(config: NodeConfig) -> Result<NodeHandle, ServerError> {
    let params = params_for_level(config.level);
    let mut engine_note = None;
    // A replica's bootstrap connection, deferred until `Shared` exists so
    // the tail thread's join handle has somewhere to live.
    let mut replica_boot: Option<(
        TcpStream,
        Arc<EncryptedPhrStore>,
        Arc<ReplicaControl>,
        String,
    )> = None;

    let service = match config.role {
        NodeRole::Kgc => RoleService::Kgc(Box::new(Kgc::setup(
            Arc::clone(&params),
            &config.kgc_label,
            &mut OsRng,
        ))),
        NodeRole::Store => match &config.replica_of {
            Some(primary) => {
                // Handshake first: the primary's initial status frame tells
                // us its shard count, which sizes the replica store.  The
                // primary may still be booting, so retry for a while.
                let ctx = DecodeCtx::from(&params);
                let deadline = Instant::now() + Duration::from_secs(30);
                let (stream, positions) =
                    replica::subscribe_with_retry(primary, &ctx, Vec::new(), deadline)?;
                let store = Arc::new(EncryptedPhrStore::with_shards_and_params(
                    &config.name,
                    positions.len(),
                    Arc::clone(&params),
                ));
                let control = Arc::new(ReplicaControl::new(vec![0; positions.len()]));
                replica_boot = Some((
                    stream,
                    Arc::clone(&store),
                    Arc::clone(&control),
                    primary.clone(),
                ));
                RoleService::Store {
                    store,
                    replica: Some(control),
                }
            }
            None => {
                let store = match &config.data_dir {
                    Some(dir) => {
                        EncryptedPhrStore::open(dir, Durability::new(Arc::clone(&params)))?
                    }
                    None => {
                        EncryptedPhrStore::in_memory_with_params(&config.name, Arc::clone(&params))
                    }
                };
                RoleService::Store {
                    store: Arc::new(store),
                    replica: None,
                }
            }
        },
        NodeRole::Proxy => {
            let store_addr = config
                .store_addr
                .clone()
                .expect("NodeConfig::parse_args rejects a proxy without --store");
            let client_config = ClientConfig {
                read_timeout: Some(config.read_timeout.max(Duration::from_secs(30))),
                write_timeout: Some(config.write_timeout.max(Duration::from_secs(30))),
                max_frame: config.max_frame,
            };
            let store = Arc::new(tibpre_client::RemoteStore::connect(
                store_addr.as_str(),
                &params,
                &client_config,
                config.store_connections,
            )?);
            let (engine, rejected) = ReEncryptEngine::from_env_reporting();
            engine_note = rejected;
            let mut proxy = match &config.data_dir {
                Some(dir) => ProxyService::open(
                    &config.name,
                    store,
                    dir,
                    &Durability::new(Arc::clone(&params)),
                )?,
                None => ProxyService::new(&config.name, store),
            };
            proxy.set_engine(engine);
            RoleService::Proxy(Box::new(parking_lot::RwLock::new(proxy)))
        }
    };

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // The scheduler only pays off where batches reach the pairing-heavy
    // engine paths — the proxy role.
    let scheduler = (config.role == NodeRole::Proxy)
        .then(|| Scheduler::new(config.batch_max, config.batch_window));

    let shared = Arc::new(Shared {
        service,
        config,
        ctx: DecodeCtx::from(&params),
        shutdown: AtomicBool::new(false),
        scheduler,
        sched_thread: parking_lot::Mutex::new(None),
        tail_thread: parking_lot::Mutex::new(None),
    });

    if let Some(scheduler) = shared.scheduler.as_ref().map(Arc::clone) {
        let sched_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("tibpre-sched".to_string())
            .spawn(move || {
                scheduler.run(|requests| sched_shared.service.handle_batch(requests));
            })?;
        *shared.sched_thread.lock() = Some(handle);
    }

    if let Some((stream, store, control, primary)) = replica_boot {
        let tail_ctx = DecodeCtx::from(&params);
        let handle = std::thread::Builder::new()
            .name("tibpre-replica-tail".to_string())
            .spawn(move || replica::run_tail(primary, store, control, tail_ctx, stream))?;
        *shared.tail_thread.lock() = Some(handle);
    }

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("tibpre-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;

    Ok(NodeHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        engine_note,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("tibpre-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, conn_shared);
                    });
                if let Ok(handle) = spawned {
                    connections.push(handle);
                }
                connections.retain(|handle| !handle.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                connections.retain(|handle| !handle.is_finished());
                std::thread::sleep(ACCEPT_POLL);
            }
            // A failed accept (e.g. a peer resetting mid-handshake) must
            // not take the listener down.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    drop(listener);
    // Drain: every connection thread observes the shutdown flag within one
    // idle-poll slice (or finishes its in-flight request) and exits.  The
    // scheduler keeps executing while they drain — queued entries are
    // answered, never dropped — and is stopped only once no reader can
    // submit any more.
    for handle in connections {
        let _ = handle.join();
    }
    if let Some(scheduler) = &shared.scheduler {
        scheduler.stop();
    }
    if let Some(sched) = shared.sched_thread.lock().take() {
        let _ = sched.join();
    }
    if let Some(control) = shared.service.replica() {
        control.request_stop();
    }
    if let Some(tail) = shared.tail_thread.lock().take() {
        let _ = tail.join();
    }
    if let Some(store) = shared.service.store() {
        let _ = store.sync();
    }
}

/// Waits for the first byte of the next frame, polling the shutdown flag
/// between short timeout slices.  Returns `Ok(None)` on clean EOF or
/// shutdown/idle-timeout, `Ok(Some(byte))` once a frame starts.
fn wait_first_byte(stream: &TcpStream, shared: &Shared) -> io::Result<Option<u8>> {
    let deadline = Instant::now() + shared.config.idle_timeout;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut first = [0u8; 1];
    let mut handle = stream;
    loop {
        match handle.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(first[0])),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() || Instant::now() >= deadline {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Frames and writes one message: a node's response, or a replica's request
/// to its primary.  Oversized *responses* are legitimate (a category
/// disclosure can exceed the request cap), so the frame cap is not applied
/// on the way out; clients size their own `max_frame` accordingly.
pub(crate) fn send_frame(stream: &mut TcpStream, message: &impl WireEncode) -> io::Result<()> {
    let payload = message.to_wire_bytes();
    let mut out = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut out, &payload, usize::MAX)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "unframeable message"))?;
    stream.write_all(&out)
}

/// The writer stage: consumes response slots strictly in enqueue (= request)
/// order, blocking on the head slot and coalescing every consecutive
/// already-filled slot behind it into one vectored multi-frame write.
fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Arc<ResponseSlot>>) {
    let mut pending: Option<Arc<ResponseSlot>> = None;
    loop {
        let head = match pending.take() {
            Some(slot) => slot,
            None => match rx.recv() {
                Ok(slot) => slot,
                Err(_) => return, // reader gone and channel drained
            },
        };
        let mut payloads = vec![head.wait_take().to_wire_bytes()];
        let mut bytes = payloads[0].len();
        while payloads.len() < WRITE_COALESCE_MAX && bytes < WRITE_COALESCE_BYTES {
            match rx.try_recv() {
                Ok(slot) => match slot.try_take() {
                    Some(response) => {
                        let payload = response.to_wire_bytes();
                        bytes += payload.len();
                        payloads.push(payload);
                    }
                    None => {
                        // Not ready yet: it becomes the next head so order
                        // is preserved.
                        pending = Some(slot);
                        break;
                    }
                },
                Err(_) => break,
            }
        }
        // Outbound frames are uncapped, same as `respond`.
        if write_frames(&mut stream, &payloads, usize::MAX).is_err() {
            return; // the reader notices via its closed channel sends
        }
    }
}

/// Enqueues an already-computed response with the writer.  `false` means
/// the writer is gone (its socket died) and the reader should close too.
fn enqueue_response(tx: &mpsc::SyncSender<Arc<ResponseSlot>>, response: Response) -> bool {
    tx.send(ResponseSlot::filled(response)).is_ok()
}

/// Reads one frame, stitching a pre-consumed lead byte back on when the
/// idle poll swallowed it.
fn read_frame_with_lead(
    reader: &mut BufReader<TcpStream>,
    lead: Option<u8>,
    max: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    match lead {
        Some(byte) => {
            let lead_buf = [byte];
            let mut chained = (&lead_buf[..]).chain(reader);
            read_frame(&mut chained, max)
        }
        None => read_frame(reader, max),
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer_stream = stream.try_clone()?;
    // A bounded channel is the pipelining backpressure: a peer more than
    // PIPELINE_BACKLOG requests deep blocks its own reader here.
    let (tx, rx) = mpsc::sync_channel::<Arc<ResponseSlot>>(PIPELINE_BACKLOG);
    let writer = std::thread::Builder::new()
        .name("tibpre-writer".to_string())
        .spawn(move || writer_loop(writer_stream, rx))?;

    let outcome = read_loop(&mut reader, &stream, &shared, &tx);
    // Closing the channel lets the writer finish flushing every response
    // still owed (slots are always eventually filled), then exit.
    drop(tx);
    let _ = writer.join();
    match outcome {
        // The connection leaves the request→response loop and becomes a
        // server-push replication stream until the peer disconnects or the
        // node drains.  The writer has already drained and exited, so the
        // stream is exclusively ours again.
        Ok(Some(applied)) => serve_replication(stream, &shared, applied),
        Ok(None) => Ok(()),
        Err(e) => Err(e),
    }
}

/// The reader stage: decodes frames, answers cheap requests inline, and
/// submits pairing-heavy requests to the scheduler — always enqueueing the
/// response slot with the writer first, which is what preserves
/// per-connection response order.  Returns `Ok(Some(applied))` to hand the
/// connection over to replication streaming.
fn read_loop(
    reader: &mut BufReader<TcpStream>,
    stream: &TcpStream,
    shared: &Shared,
    tx: &mpsc::SyncSender<Arc<ResponseSlot>>,
) -> io::Result<Option<Vec<u64>>> {
    let max_frame = shared.config.max_frame;
    loop {
        // Pipelined peers: bytes already buffered mean the next frame has
        // begun — skip the idle poll entirely instead of paying up to one
        // poll slice of latency per queued frame.
        let lead = if reader.buffer().is_empty() {
            match wait_first_byte(stream, shared)? {
                Some(byte) => {
                    // A frame has started: give the peer the full read
                    // timeout for the rest of it.
                    stream.set_read_timeout(Some(shared.config.read_timeout))?;
                    Some(byte)
                }
                None => return Ok(None),
            }
        } else {
            None
        };

        let payload = match read_frame_with_lead(reader, lead, max_frame) {
            Ok(Some(payload)) => payload,
            // EOF at (or inside) the prefix: the peer hung up — close.
            Ok(None) => return Ok(None),
            Err(FrameError::Oversized { len, max }) => {
                // The length prefix itself was readable, so the connection
                // is not desynchronized yet — but the payload behind it is
                // unread.  Report, then close.
                let _ = enqueue_response(
                    tx,
                    Response::Error(RemoteError::BadRequest(format!(
                        "frame of {len} bytes exceeds the {max} byte cap"
                    ))),
                );
                return Ok(None);
            }
            Err(FrameError::Io(_)) => return Ok(None),
        };

        let request = match Request::from_wire_bytes(&payload, &shared.ctx) {
            Ok(request) => request,
            Err(e) => {
                // Undecodable payload: the stream itself is still framed,
                // but trusting a peer that sends garbage is not worth it —
                // answer once, then close.
                let _ = enqueue_response(
                    tx,
                    Response::Error(RemoteError::BadRequest(format!("undecodable request: {e}"))),
                );
                return Ok(None);
            }
        };

        let alive = match request {
            Request::Ping => enqueue_response(
                tx,
                Response::Pong {
                    role: shared.service.role(),
                    level: shared.config.level_name().to_string(),
                },
            ),
            Request::Shutdown => {
                let _ = enqueue_response(tx, Response::ShuttingDown);
                shared.shutdown.store(true, Ordering::SeqCst);
                return Ok(None);
            }
            Request::SubscribeReplication { applied } => return Ok(Some(applied)),
            _ if shared.shutting_down() => {
                enqueue_response(tx, Response::Error(RemoteError::ShuttingDown))
            }
            other => match &shared.scheduler {
                Some(scheduler)
                    if matches!(
                        other,
                        Request::Disclose { .. } | Request::DiscloseCategory { .. }
                    ) =>
                {
                    // Slot goes to the writer BEFORE the scheduler can fill
                    // it: writer order == request order.
                    let slot = ResponseSlot::empty();
                    if tx.send(Arc::clone(&slot)).is_err() {
                        return Ok(None);
                    }
                    if let Err(entry) = scheduler.submit(BatchEntry {
                        request: other,
                        slot,
                    }) {
                        // Lost the race against scheduler stop: the slot is
                        // already with the writer, so answer it inline.
                        entry.slot.fill(shared.service.handle(entry.request));
                    }
                    true
                }
                scheduler => {
                    if scheduler.is_some() {
                        metrics::note_bypass();
                    }
                    enqueue_response(tx, shared.service.handle(other))
                }
            },
        };
        if !alive {
            return Ok(None);
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

/// The server half of a replication subscription: stream committed WAL
/// bytes (and snapshot generations for garbage-collected prefixes) to the
/// peer until it disconnects or this node drains.
fn serve_replication(mut stream: TcpStream, shared: &Shared, applied: Vec<u64>) -> io::Result<()> {
    let store = match shared.service.store() {
        Some(store) => Arc::clone(store),
        None => {
            let _ = send_frame(
                &mut stream,
                &Response::Error(RemoteError::WrongRole(
                    "replication is served by the store role".to_string(),
                )),
            );
            return Ok(());
        }
    };
    if !store.is_durable() {
        // An in-memory store has no WAL to ship; refusing here beats a
        // subscriber silently tailing an empty log forever.
        let _ = send_frame(
            &mut stream,
            &Response::Error(RemoteError::BadRequest(
                "replication needs a durable primary (boot it with --data-dir)".to_string(),
            )),
        );
        return Ok(());
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
        let _ = send_frame(
            &mut stream,
            &Response::Error(RemoteError::BadRequest(format!(
                "subscription carries {} shard offsets but the store has {shards} shards",
                from.len()
            ))),
        );
        return Ok(());
    }
    send_frame(
        &mut stream,
        &Response::ReplicaStatus {
            positions: committed,
            writable: shared.service.writable(),
        },
    )?;

    let notifier = store.commit_notifier();
    let mut epoch = notifier.epoch();
    let mut last_heartbeat = Instant::now();
    while !shared.shutting_down() {
        let mut sent_any = false;
        for (shard, pos) in from.iter_mut().enumerate() {
            loop {
                if shared.shutting_down() {
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
                        let _ = send_frame(
                            &mut stream,
                            &Response::Error(RemoteError::BadRequest(format!(
                                "shard {shard}: subscriber offset {} is ahead of this store",
                                *pos
                            ))),
                        );
                        return Ok(());
                    }
                    Ok(ChunkOutcome::Gone) => {
                        // The requested offset was garbage-collected; ship
                        // the newest snapshot generation and resume the
                        // byte stream from its WAL offset.
                        match store.replication_snapshot(shard) {
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
                                let _ = send_frame(
                                    &mut stream,
                                    &Response::Error(RemoteError::Internal(format!(
                                        "shard {shard}: log prefix gone but no snapshot exists"
                                    ))),
                                );
                                return Ok(());
                            }
                            Err(e) => {
                                let _ = send_frame(
                                    &mut stream,
                                    &Response::Error(RemoteError::from_phr(&e)),
                                );
                                return Ok(());
                            }
                        }
                    }
                    Err(e) => {
                        let _ =
                            send_frame(&mut stream, &Response::Error(RemoteError::from_phr(&e)));
                        return Ok(());
                    }
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
                    writable: shared.service.writable(),
                },
            )?;
            last_heartbeat = Instant::now();
        }
    }
    Ok(())
}
