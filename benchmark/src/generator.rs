//! The closed-loop load generator: one thread per connection, each waiting
//! for its replies before it sends again.  Work is counted in operations,
//! never in time.

use crate::check::{check_denied, check_disclosure, Failure, Failures};
use crate::trace::Recorder;
use crate::workload::{Kind, Spec};
use crate::world::{stream, stream_seed, upload_payload, Fixture};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Instant;
use tibpre_client::{ClientConfig, ClientError, Connection, Request, Response};
use tibpre_pairing::DecodeCtx;
use tibpre_phr::{HealthRecord, RecordId};
use tibpre_wire::{read_frame, write_frame, WireDecode, WireEncode};

/// A byte-counting socket half.
struct Counted {
    stream: TcpStream,
    bytes: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// The traced run's connection: the same frames as
/// [`tibpre_client::Connection`], built from the same public functions, with
/// encoding, round trip and decoding timed apart and socket bytes counted.
pub struct TracedConnection {
    reader: BufReader<Counted>,
    writer: BufWriter<Counted>,
    ctx: DecodeCtx,
    max_frame: usize,
}

impl TracedConnection {
    fn connect(
        addr: SocketAddr,
        fixture: &Fixture,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        stream.set_nodelay(true)?;
        let half = |stream| Counted { stream, bytes: 0 };
        Ok(TracedConnection {
            reader: BufReader::new(half(stream.try_clone()?)),
            writer: BufWriter::new(half(stream)),
            ctx: DecodeCtx::from(&fixture.params),
            max_frame: config.max_frame,
        })
    }

    /// Bytes that crossed this connection's socket, both directions.
    fn socket_bytes(&self) -> u64 {
        self.reader.get_ref().bytes + self.writer.get_ref().bytes
    }
}

/// One generator connection: the shipped client, or its traced counterpart.
pub enum Link {
    Plain(Connection),
    Traced(TracedConnection, Recorder),
}

impl Link {
    pub fn connect(
        addr: SocketAddr,
        fixture: &Fixture,
        traced: Option<Instant>,
    ) -> Result<Link, ClientError> {
        let config = ClientConfig::default();
        Ok(match traced {
            None => Link::Plain(Connection::connect(addr, &fixture.params, &config)?),
            Some(origin) => Link::Traced(
                TracedConnection::connect(addr, fixture, &config)?,
                Recorder::new(origin),
            ),
        })
    }

    /// Opens the `e2e.op` span of each operation of a burst.
    fn open_ops(&mut self, ops: std::ops::Range<u64>) -> Vec<usize> {
        match self {
            Link::Plain(_) => Vec::new(),
            Link::Traced(_, rec) => ops.map(|op| rec.open("e2e.op", op, None)).collect(),
        }
    }

    /// Records `f` as a child of an operation's span (untraced: just runs it).
    fn child<T>(
        &mut self,
        name: &'static str,
        op: u64,
        roots: &[usize],
        slot: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        match self {
            Link::Plain(_) => f(),
            Link::Traced(_, rec) => rec.span(name, op, Some(roots[slot]), f),
        }
    }

    fn close_op(&mut self, roots: &[usize], slot: usize) {
        if let Link::Traced(_, rec) = self {
            rec.close(roots[slot]);
        }
    }

    /// Sends a whole burst, then reads every response, in request order.
    /// `first_op` numbers the burst's operations; `roots` are their spans.
    fn exchange(
        &mut self,
        requests: &[Request],
        first_op: u64,
        roots: &[usize],
    ) -> Result<Vec<Response>, ClientError> {
        match self {
            Link::Plain(conn) => conn.call_pipelined(requests),
            Link::Traced(conn, rec) => {
                let ops = first_op..first_op + requests.len() as u64;
                for ((request, op), root) in requests.iter().zip(ops.clone()).zip(roots) {
                    let payload =
                        rec.span("client.encode", op, Some(*root), || request.to_wire_bytes());
                    write_frame(&mut conn.writer, &payload, conn.max_frame)?;
                }
                // Every operation of the burst waits from the flush until
                // its own response frame has arrived.
                let rtts: Vec<usize> = ops
                    .clone()
                    .zip(roots)
                    .map(|(op, root)| rec.open("client.rtt", op, Some(*root)))
                    .collect();
                conn.writer.flush()?;
                let mut responses = Vec::with_capacity(requests.len());
                for ((op, root), rtt) in ops.zip(roots).zip(rtts) {
                    let payload = read_frame(&mut conn.reader, conn.max_frame)?
                        .ok_or(ClientError::Disconnected)?;
                    rec.close(rtt);
                    let response = rec.span("client.decode", op, Some(*root), || {
                        Response::from_wire_bytes(&payload, &conn.ctx)
                    })?;
                    responses.push(response);
                }
                Ok(responses)
            }
        }
    }

    /// One lockstep request outside any operation (churn traffic).
    fn call(&mut self, request: Request) -> Result<Response, ClientError> {
        match self {
            Link::Plain(conn) => {
                conn.send(&request)?;
                conn.flush()?;
                conn.receive()
            }
            Link::Traced(conn, _) => {
                write_frame(&mut conn.writer, &request.to_wire_bytes(), conn.max_frame)?;
                conn.writer.flush()?;
                let payload = read_frame(&mut conn.reader, conn.max_frame)?
                    .ok_or(ClientError::Disconnected)?;
                Ok(Response::from_wire_bytes(&payload, &conn.ctx)?)
            }
        }
    }

    fn socket_bytes(&self) -> u64 {
        match self {
            Link::Plain(_) => 0,
            Link::Traced(conn, _) => conn.socket_bytes(),
        }
    }

    /// After a transport failure the stream position is lost: starts over on
    /// a new socket, keeping the spans recorded so far.
    fn reconnect(&mut self, plan: &Plan<'_>) -> Result<(), ClientError> {
        let addr = match plan.spec.kind {
            Kind::Disclose => plan.proxy,
            Kind::Upload => plan.store,
        };
        let config = ClientConfig::default();
        match self {
            Link::Plain(conn) => {
                *conn = Connection::connect(addr, &plan.fixture.params, &config)?;
            }
            Link::Traced(conn, _) => {
                *conn = TracedConnection::connect(addr, plan.fixture, &config)?;
            }
        }
        Ok(())
    }

    fn into_recorder(self) -> Option<Recorder> {
        match self {
            Link::Plain(_) => None,
            Link::Traced(_, recorder) => Some(recorder),
        }
    }
}

/// The seeded request order of one connection: which patient, which record.
pub struct Picker {
    owned: std::ops::Range<usize>,
    popularity: Zipf,
    rng: StdRng,
}

impl Picker {
    pub fn new(spec: &Spec, seed: u64, conn: usize) -> Self {
        let owned = spec.owned(conn);
        Picker {
            popularity: Zipf::new(owned.len(), spec.zipf),
            owned,
            rng: StdRng::seed_from_u64(stream_seed(seed, stream::REQUESTS, conn as u64)),
        }
    }

    /// The next `(patient, record)` to disclose.
    pub fn pick(&mut self, fixture: &Fixture) -> (usize, usize) {
        let p = self.owned.start + self.popularity.sample(&mut self.rng);
        let records = fixture.patients[p].records.len() as u64;
        (p, (self.rng.next_u64() % records) as usize)
    }
}

/// One measured operation: when it ended, and its latency in microseconds if
/// it passed its check.
pub type OpSample = (Instant, Option<f64>);

/// What one connection measured.
pub struct ConnReport {
    /// Every measured operation in the order it ended; warm-up excluded.
    pub ops: Vec<OpSample>,
    /// Operations and churn cycles attempted, warm-up included.
    pub attempted: u64,
    pub failures: Failures,
    /// Latency of each revoke → probe → re-install → disclose cycle.
    pub churn_us: Vec<f64>,
    /// Socket bytes of the measured operations (traced connections only).
    pub op_bytes: u64,
    /// Uploads the store acknowledged: `(record, patient, sequence number)`.
    pub uploaded: Vec<(RecordId, usize, u64)>,
    pub recorder: Option<Recorder>,
}

impl ConnReport {
    fn new(plan: &Plan<'_>) -> Self {
        ConnReport {
            ops: Vec::with_capacity(plan.measured_ops / plan.spec.connections),
            attempted: 0,
            failures: Failures::default(),
            churn_us: Vec::new(),
            op_bytes: 0,
            uploaded: Vec::new(),
            recorder: None,
        }
    }
}

/// What every connection of a run shares.
pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub fixture: &'a Fixture,
    pub proxy: SocketAddr,
    pub store: SocketAddr,
    /// Operations run, checked and discarded first, over all connections.
    pub warmup_ops: usize,
    /// Measured operations, over all connections.
    pub measured_ops: usize,
    /// `Some(origin)` records spans against that clock.
    pub traced: Option<Instant>,
    /// 0 for a run's first segment, 1 for the traced one that follows it on
    /// the same nodes: fresh uploads and fresh keys need fresh randomness, or
    /// the second segment would hit caches the first one filled.
    pub segment: u64,
}

impl Plan<'_> {
    /// The index of a connection's random streams in this segment.
    fn lane(&self, conn: usize) -> u64 {
        conn as u64 + 16 * self.segment
    }
}

/// Runs every connection of a plan.  `at_start` runs on the calling thread
/// once every connection has finished its warm-up and before any begins its
/// measured operations: set-up ends there.
pub fn run<T>(
    plan: &Plan<'_>,
    at_start: impl FnOnce() -> T,
) -> (T, Vec<Result<ConnReport, ClientError>>) {
    let connections = plan.spec.connections;
    let barrier = Barrier::new(connections + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let warmed = Cell::new(false);
                    let mut sync = || {
                        // Twice: the caller samples between the two.
                        barrier.wait();
                        barrier.wait();
                        warmed.set(true);
                    };
                    let report = match plan.spec.kind {
                        Kind::Disclose => disclose(plan, conn, &mut sync),
                        Kind::Upload => upload(plan, conn, &mut sync),
                    };
                    if !warmed.get() {
                        // A connection that failed during warm-up must not
                        // leave the others waiting.
                        sync();
                    }
                    report
                })
            })
            .collect();
        barrier.wait();
        let sampled = at_start();
        barrier.wait();
        let reports = workers
            .into_iter()
            .map(|worker| worker.join().expect("a generator thread panicked"))
            .collect();
        (sampled, reports)
    })
}

/// Runs one connection's share of the warm-up (run and checked, reported
/// nowhere) and then of the measured operations.  `run_ops` performs the given
/// number of operations; it is told whether they are measured.
fn phases(
    plan: &Plan<'_>,
    sync: &mut dyn FnMut(),
    report: &mut ConnReport,
    mut run_ops: impl FnMut(usize, bool, &mut ConnReport) -> Result<(), ClientError>,
) -> Result<(), ClientError> {
    run_ops(plan.warmup_ops / plan.spec.connections, false, report)?;
    sync();
    run_ops(plan.measured_ops / plan.spec.connections, true, report)
}

fn disclose(
    plan: &Plan<'_>,
    conn: usize,
    sync: &mut dyn FnMut(),
) -> Result<ConnReport, ClientError> {
    let Plan { spec, fixture, .. } = *plan;
    let mut link = Link::connect(plan.proxy, fixture, plan.traced)?;
    let mut picker = Picker::new(spec, fixture.seed, conn);
    let owned = picker.owned.clone();
    let mut churn_rng =
        StdRng::seed_from_u64(stream_seed(fixture.seed, stream::CHURN, plan.lane(conn)));
    let mut report = ConnReport::new(plan);
    let depth = spec.pipeline;
    let mut next_op = (conn as u64) << 32;
    let mut since_churn = 0usize;
    let mut churned = 0usize;

    phases(plan, sync, &mut report, |ops, measured, report| {
        let mut done = 0;
        while done < ops {
            let n = depth.min(ops - done);
            let picks: Vec<(usize, usize)> = (0..n).map(|_| picker.pick(fixture)).collect();
            let bytes_before = link.socket_bytes();
            let burst_began = Instant::now();
            let roots = link.open_ops(next_op..next_op + n as u64);
            let requests: Vec<Request> = picks
                .iter()
                .map(|&(p, r)| disclose_request(fixture, p, r))
                .collect();
            // One latency per operation of the burst, `None` where it failed.
            let mut latencies = vec![None; n];
            match link.exchange(&requests, next_op, &roots) {
                Ok(responses) => {
                    for (slot, (response, &(p, r))) in responses.iter().zip(&picks).enumerate() {
                        let record = &fixture.patients[p].records[r];
                        let op = next_op + slot as u64;
                        let verdict = link.child("core.open", op, &roots, slot, || {
                            check_disclosure(
                                &fixture.provider,
                                response,
                                record.id,
                                &record.plaintext,
                            )
                        });
                        link.close_op(&roots, slot);
                        match verdict {
                            Ok(()) => {
                                latencies[slot] = Some(burst_began.elapsed().as_secs_f64() * 1e6);
                            }
                            Err(failure) => report.failures.record(failure),
                        }
                    }
                }
                Err(_) => {
                    for _ in 0..n {
                        report.failures.record(Failure::Transport);
                    }
                    link.reconnect(plan)?;
                }
            }
            if measured {
                report.op_bytes += link.socket_bytes().saturating_sub(bytes_before);
                let ended = Instant::now();
                report.ops.extend(latencies.into_iter().map(|l| (ended, l)));
            }
            next_op += n as u64;
            done += n;
            report.attempted += n as u64;

            since_churn += n;
            if let Some(every) = spec.churn_every {
                while since_churn >= every {
                    since_churn -= every;
                    let victim = owned.start + churned % owned.len();
                    churned += 1;
                    let cycle_began = Instant::now();
                    report.attempted += 1;
                    match churn_cycle(&mut link, fixture, victim, &mut churn_rng) {
                        Ok(()) => report
                            .churn_us
                            .push(cycle_began.elapsed().as_secs_f64() * 1e6),
                        Err(failure) => report.failures.record(failure),
                    }
                }
            }
        }
        Ok(())
    })?;
    report.recorder = link.into_recorder();
    Ok(report)
}

pub fn disclose_request(fixture: &Fixture, patient: usize, record: usize) -> Request {
    let patient = &fixture.patients[patient];
    Request::Disclose {
        patient: patient.identity.clone(),
        id: patient.records[record].id,
        requester: fixture.provider_id.clone(),
    }
}

/// Revoke, probe (must be denied), re-install a fresh key (`Pextract` +
/// `InstallKey`), disclose again (must succeed): the write side of the proxy
/// running beside the reads.
pub fn churn_cycle(
    link: &mut Link,
    fixture: &Fixture,
    victim: usize,
    rng: &mut StdRng,
) -> Result<(), Failure> {
    let patient = &fixture.patients[victim];
    let transport = |_| Failure::Transport;
    let revoked = link
        .call(Request::RevokeKey {
            patient: patient.identity.clone(),
            category: fixture.category.clone(),
            grantee: fixture.provider_id.clone(),
        })
        .map_err(transport)?;
    if !matches!(revoked, Response::Bool(true)) {
        return Err(Failure::Transport);
    }
    let probe = link
        .call(disclose_request(fixture, victim, 0))
        .map_err(transport)?;
    check_denied(&probe)?;
    let key = patient
        .delegator
        .make_reencryption_key(
            &fixture.provider_id,
            &fixture.domain,
            &fixture.category.type_tag(),
            rng,
        )
        .map_err(|_| Failure::Transport)?;
    let installed = link
        .call(Request::InstallKey { key: Box::new(key) })
        .map_err(transport)?;
    if !matches!(installed, Response::Ok) {
        return Err(Failure::Transport);
    }
    let served = link
        .call(disclose_request(fixture, victim, 0))
        .map_err(transport)?;
    let record = &patient.records[0];
    check_disclosure(&fixture.provider, &served, record.id, &record.plaintext)
}

fn upload(plan: &Plan<'_>, conn: usize, sync: &mut dyn FnMut()) -> Result<ConnReport, ClientError> {
    let Plan { spec, fixture, .. } = *plan;
    let mut link = Link::connect(plan.store, fixture, plan.traced)?;
    let owned = spec.owned(conn);
    let mut rng =
        StdRng::seed_from_u64(stream_seed(fixture.seed, stream::UPLOADS, plan.lane(conn)));
    let mut report = ConnReport::new(plan);
    let mut next_op = (conn as u64) << 32;
    let mut sequence = plan.segment << 32;
    phases(plan, sync, &mut report, |ops, measured, report| {
        for _ in 0..ops {
            let p = owned.start + (sequence as usize) % owned.len();
            let patient = &fixture.patients[p];
            let payload = upload_payload(fixture.seed, conn, sequence, spec.payload_len);
            let title = upload_title(conn, sequence);
            let bytes_before = link.socket_bytes();
            let op_began = Instant::now();
            let roots = link.open_ops(next_op..next_op + 1);
            let ciphertext = link.child("core.encrypt", next_op, &roots, 0, || {
                let aad =
                    HealthRecord::associated_data(&patient.identity, &fixture.category, &title);
                patient.delegator.encrypt_bytes(
                    &payload,
                    &aad,
                    &fixture.category.type_tag(),
                    &mut rng,
                )
            });
            let request = Request::PutRecord {
                patient: patient.identity.clone(),
                category: fixture.category.clone(),
                title,
                ciphertext: Box::new(ciphertext),
            };
            let outcome = link.exchange(std::slice::from_ref(&request), next_op, &roots);
            link.close_op(&roots, 0);
            let mut latency = None;
            match outcome.as_deref() {
                Ok([Response::RecordId(id)]) => {
                    latency = Some(op_began.elapsed().as_secs_f64() * 1e6);
                    report.uploaded.push((*id, p, sequence));
                }
                Ok(_) => report.failures.record(Failure::Transport),
                Err(_) => {
                    report.failures.record(Failure::Transport);
                    link.reconnect(plan)?;
                }
            }
            if measured {
                report.op_bytes += link.socket_bytes().saturating_sub(bytes_before);
                report.ops.push((Instant::now(), latency));
            }
            next_op += 1;
            sequence += 1;
            report.attempted += 1;
        }
        Ok(())
    })?;
    report.recorder = link.into_recorder();
    Ok(report)
}

pub fn upload_title(conn: usize, sequence: u64) -> String {
    format!("upload-{conn}-{sequence:08}")
}
