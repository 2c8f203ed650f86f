//! The TCP node: bind, accept, serve, drain.
//!
//! One hand-rolled blocking listener per node, and one thread per accepted
//! connection.  The thread waits for the next frame in short idle-poll
//! slices (so it notices shutdown while idle), reads that frame plus every
//! further complete frame already buffered — the *backlog* one pipelined
//! flush carried — executes the backlog in request order, and writes all
//! of its responses with one vectored write.
//!
//! Execution cuts the backlog into *runs*: each maximal stretch of
//! consecutive `Disclose` requests, at most `batch_max` long, is one
//! [`ProxyService::disclose_batch`] call; every other request runs alone.
//! A run never spans another request, so execution order is request order
//! and a `RevokeKey` takes effect exactly between the disclosures around
//! it.  Connections are a node's only parallelism: a proxy converts on the
//! connection's thread, and one connection computes while another waits
//! on the store.
//!
//! Shutdown — via [`crate::signal`] or a `Shutdown` frame — stops the
//! accept loop, lets every connection answer the backlog it has read (a
//! backlog read after shutdown is observed is refused with
//! `ShuttingDown`), joins the connection threads, `sync()`s the store, and
//! releases the advisory directory lock by dropping it.

use crate::config::NodeConfig;
use crate::metrics;
use crate::replica::{self, ReplicaControl};
use crate::service::RoleService;
use crate::signal;
use rand::rngs::OsRng;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tibpre_client::{params_for_level, ClientConfig, NodeRole, RemoteError, Request, Response};
use tibpre_ibe::Kgc;
use tibpre_pairing::DecodeCtx;
use tibpre_phr::{Durability, EncryptedPhrStore, ProxyService};
use tibpre_wire::framing::FRAME_PREFIX_LEN;
use tibpre_wire::{read_frame, write_frames, FrameError, WireDecode, WireEncode};

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
}

impl NodeHandle {
    /// The bound listen address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
    // A replica's bootstrap connection, deferred until `Shared` exists so
    // the tail thread's join handle has somewhere to live.
    let mut replica_boot: Option<(
        BufReader<TcpStream>,
        Arc<EncryptedPhrStore>,
        Arc<ReplicaControl>,
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
                replica_boot = Some((stream, Arc::clone(&store), Arc::clone(&control)));
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
            )?);
            let proxy = match &config.data_dir {
                Some(dir) => ProxyService::open(
                    &config.name,
                    store,
                    dir,
                    &Durability::new(Arc::clone(&params)),
                )?,
                None => ProxyService::new(&config.name, store),
            };
            RoleService::Proxy(Box::new(proxy))
        }
    };

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        service,
        config,
        ctx: DecodeCtx::from(&params),
        shutdown: AtomicBool::new(false),
        tail_thread: parking_lot::Mutex::new(None),
    });

    if let (Some((stream, store, control)), Some(primary)) =
        (replica_boot, shared.config.replica_of.clone())
    {
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
    // idle-poll slice, or answers the backlog it has read first, and exits.
    for handle in connections {
        let _ = handle.join();
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

/// Waits until `reader` holds the start of the next frame, polling the
/// socket in `poll` slices so an idle peer never pins the thread past
/// `stop`.  `Ok(true)` once bytes are buffered — the socket then gets the
/// `rest` timeout for the remainder of the frame, so a slow-but-live peer
/// mid-frame is not cut off by the poll — and `Ok(false)` once `stop`
/// holds.  A hung-up peer is an `UnexpectedEof` error, silence past
/// `deadline` a `TimedOut` one.
pub(crate) fn wait_readable(
    reader: &mut BufReader<TcpStream>,
    poll: Duration,
    rest: Duration,
    deadline: Instant,
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    if reader.buffer().is_empty() {
        reader.get_ref().set_read_timeout(Some(poll))?;
        loop {
            match reader.fill_buf() {
                Ok([]) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => break,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop() {
                        return Ok(false);
                    }
                    if Instant::now() >= deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        reader.get_ref().set_read_timeout(Some(rest))?;
    }
    Ok(true)
}

/// The frame that ends a backlog early.  Every request read before it is
/// answered first.
enum Control {
    /// `Shutdown`: answered `ShuttingDown`, then the node drains.
    Shutdown,
    /// `SubscribeReplication`: the connection becomes a replication stream.
    Subscribe(Vec<u64>),
    /// An undecodable or oversized frame: one `BadRequest`, then close.
    BadRequest(String),
    /// The peer hung up or tore a frame: close.
    Close,
}

/// Whether `buffer` opens with a frame that can be read without blocking:
/// a whole frame, or a length prefix [`read_frame`] rejects at once.
fn frame_buffered(buffer: &[u8], max_frame: usize) -> bool {
    buffer
        .first_chunk::<FRAME_PREFIX_LEN>()
        .is_some_and(|prefix| {
            let len = u32::from_be_bytes(*prefix) as usize;
            len > max_frame || buffer.len() - FRAME_PREFIX_LEN >= len
        })
}

/// Reads one frame, plus every further complete frame already buffered:
/// the requests one pipelined flush carried.  A control frame ends the
/// backlog and comes back beside the requests read before it.
fn read_backlog(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> (Vec<Request>, Option<Control>) {
    let max_frame = shared.config.max_frame;
    let mut backlog = Vec::new();
    loop {
        let control = match read_frame(reader, max_frame) {
            Ok(Some(payload)) => match Request::from_wire_bytes(&payload, &shared.ctx) {
                Ok(Request::Shutdown) => Control::Shutdown,
                Ok(Request::SubscribeReplication { applied }) => Control::Subscribe(applied),
                Ok(request) => {
                    backlog.push(request);
                    if frame_buffered(reader.buffer(), max_frame) {
                        continue;
                    }
                    return (backlog, None);
                }
                // The stream is still framed, but trusting a peer that
                // sends garbage is not worth it: answer once, then close.
                Err(e) => Control::BadRequest(format!("undecodable request: {e}")),
            },
            // The prefix was readable, so the stream is still in sync, but
            // the payload behind it is unread: report, then close.
            Err(FrameError::Oversized { len, max }) => {
                Control::BadRequest(format!("frame of {len} bytes exceeds the {max} byte cap"))
            }
            Ok(None) | Err(FrameError::Io(_)) => Control::Close,
        };
        return (backlog, Some(control));
    }
}

/// Cuts a backlog into the runs it executes as, returned as run lengths in
/// request order: each maximal stretch of consecutive `Disclose` requests,
/// split at `batch_max`, is one run, and every other request runs alone.
fn cut_runs(backlog: &[Request], batch_max: usize) -> Vec<usize> {
    let disclose = |request: &Request| matches!(request, Request::Disclose { .. });
    backlog
        .chunk_by(|a, b| disclose(a) && disclose(b))
        .flat_map(|stretch| stretch.chunks(batch_max.max(1)).map(<[Request]>::len))
        .collect()
}

/// Answers a backlog in request order, one service call per run.  A backlog
/// read once shutdown was observed is refused, bar `Ping`.
fn execute(shared: &Shared, backlog: Vec<Request>) -> Vec<Response> {
    let refuse = shared.shutting_down();
    let runs = cut_runs(&backlog, shared.config.batch_max);
    let mut responses = Vec::with_capacity(backlog.len());
    let mut requests = backlog.into_iter();
    for len in runs {
        let run: Vec<Request> = requests.by_ref().take(len).collect();
        match &run[..] {
            [Request::Ping] => responses.push(Response::Pong {
                role: shared.service.role(),
                level: shared.config.level_name().to_string(),
            }),
            _ if refuse => responses.extend(
                run.iter()
                    .map(|_| Response::Error(RemoteError::ShuttingDown)),
            ),
            _ => responses.extend(shared.service.handle_run(run)),
        }
    }
    responses
}

/// Serves one connection on its own thread: wait for a frame, read the
/// backlog, execute it in request order, write every response with one
/// vectored write, repeat.  A peer that stops reading blocks only this
/// thread, inside the write.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let stop = || shared.shutting_down();
    loop {
        let deadline = Instant::now() + shared.config.idle_timeout;
        if !wait_readable(
            &mut reader,
            IDLE_POLL,
            shared.config.read_timeout,
            deadline,
            &stop,
        )? {
            return Ok(());
        }
        let (backlog, control) = read_backlog(&mut reader, &shared);
        let read = backlog.len();
        metrics::note_read(read);
        let mut responses = execute(&shared, backlog);
        match &control {
            Some(Control::Shutdown) => {
                responses.push(Response::ShuttingDown);
                shared.shutdown.store(true, Ordering::SeqCst);
            }
            Some(Control::BadRequest(why)) => {
                responses.push(Response::Error(RemoteError::BadRequest(why.clone())));
            }
            _ => {}
        }
        let payloads: Vec<Vec<u8>> = responses.iter().map(WireEncode::to_wire_bytes).collect();
        // Outbound frames are uncapped: a category disclosure can exceed
        // the request cap, and clients size their own `max_frame`.
        let written = write_frames(&mut writer, &payloads, usize::MAX).is_ok();
        metrics::note_answered(read);
        match control {
            None if written => {}
            Some(Control::Subscribe(applied)) if written => {
                return replica::serve_replication(writer, &shared.service, &stop, applied)
            }
            // The peer is gone, or the backlog ended in a closing frame.
            _ => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibpre_ibe::Identity;
    use tibpre_phr::{Category, RecordId};

    /// One request per letter: `d` a `Disclose`, `c` a `DiscloseCategory`,
    /// `r` a `RevokeKey`, `p` a `Ping`.
    fn backlog(kinds: &str) -> Vec<Request> {
        let who = || Identity::new("p");
        kinds
            .chars()
            .map(|kind| match kind {
                'd' => Request::Disclose {
                    patient: who(),
                    id: RecordId(7),
                    requester: who(),
                },
                'c' => Request::DiscloseCategory {
                    patient: who(),
                    category: Category::LabResults,
                    requester: who(),
                },
                'r' => Request::RevokeKey {
                    patient: who(),
                    category: Category::LabResults,
                    grantee: who(),
                },
                _ => Request::Ping,
            })
            .collect()
    }

    #[test]
    fn disclose_runs_are_capped_at_batch_max() {
        assert_eq!(cut_runs(&backlog("dddddddddd"), 4), [4, 4, 2]);
        assert_eq!(cut_runs(&backlog("dddd"), 4), [4]);
        assert_eq!(cut_runs(&backlog("dddd"), 16), [4]);
    }

    #[test]
    fn every_other_kind_stands_alone_and_order_is_kept() {
        // A run never spans another request: the revocation splits the
        // disclosures around it, and a category disclosure runs alone.
        assert_eq!(cut_runs(&backlog("ddrddd"), 16), [2, 1, 3]);
        assert_eq!(cut_runs(&backlog("dcdpprd"), 16), [1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(cut_runs(&backlog("ccdd"), 16), [1, 1, 2]);
        // The lengths tile the backlog in order.
        let kinds = "pddrdddddcdd";
        let runs = cut_runs(&backlog(kinds), 3);
        assert_eq!(runs, [1, 2, 1, 3, 2, 1, 2]);
        assert_eq!(runs.iter().sum::<usize>(), kinds.len());
    }

    #[test]
    fn batch_max_one_gives_all_singletons() {
        assert_eq!(cut_runs(&backlog("ddrdcp"), 1), [1; 6]);
        // 0 is refused at parse time; a hand-built config still cuts runs of one.
        assert_eq!(cut_runs(&backlog("ddd"), 0), [1; 3]);
    }

    #[test]
    fn an_empty_backlog_gives_no_runs() {
        assert!(cut_runs(&[], 4).is_empty());
    }
}
