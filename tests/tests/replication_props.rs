//! The replication fault-injection harness: a primary store node, read
//! replicas tailing its WAL over TCP, and a [`FaultProxy`] tearing the
//! stream at exact byte offsets in between.
//!
//! Every test ends with the same oracle: the replica's observable state —
//! record count, every record body, every patient listing, the full audit
//! trail — equal to the primary's, because replication replays the
//! primary's committed WAL bytes through the same frame-scan path crash
//! recovery uses.  The fault injection proves the *resume* logic: torn
//! chunks are re-shipped from the last applied offset, never duplicated,
//! never skipped, and a revocation that precedes the replica's applied
//! offset can never be observed un-applied ("replication cannot resurrect
//! a revoked key").

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, Connection, NodeRole, RemoteError, Request,
    Response, StoreClient,
};
use tibpre_core::Delegator;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{DecodeCtx, PairingParams, SecurityLevel};
use tibpre_phr::{Category, HealthRecord, RecordId};
use tibpre_server::{node, NodeConfig, NodeHandle};
use tibpre_storage::TempDir;
use tibpre_tests::FaultProxy;
use tibpre_wire::{read_frame, write_frame, WireDecode, WireEncode};

fn toy_params() -> Arc<PairingParams> {
    params_for_level(SecurityLevel::Toy)
}

/// Patients with client-side encryption keys, set up once: the replication
/// tests never decrypt, so one shared KGC serves every test.
fn patients() -> &'static Vec<(Identity, Delegator)> {
    static PATIENTS: OnceLock<Vec<(Identity, Delegator)>> = OnceLock::new();
    PATIENTS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        let kgc = Kgc::setup(toy_params(), "patients", &mut rng);
        (0..3)
            .map(|i| {
                let identity = Identity::new(format!("patient-{i:02}"));
                let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&identity));
                (identity, delegator)
            })
            .collect()
    })
}

fn boot_primary(data_dir: &std::path::Path) -> NodeHandle {
    let mut config = NodeConfig::new(NodeRole::Store);
    config.data_dir = Some(data_dir.to_path_buf());
    node::start(config).expect("primary store node")
}

fn boot_replica(primary_addr: &str) -> NodeHandle {
    let mut config = NodeConfig::new(NodeRole::Store);
    config.replica_of = Some(primary_addr.to_string());
    node::start(config).expect("replica store node")
}

fn connect(handle: &NodeHandle) -> StoreClient {
    StoreClient::connect(handle.addr(), &toy_params(), &ClientConfig::default())
        .expect("store client")
}

fn shut_down(handle: NodeHandle) {
    let mut conn = Connection::connect(handle.addr(), &toy_params(), &ClientConfig::default())
        .expect("connect for shutdown");
    conn.shutdown().expect("shutdown frame");
    handle.wait();
}

fn put(
    store: &mut StoreClient,
    patient_index: usize,
    title: &str,
    body: &[u8],
    rng: &mut StdRng,
) -> RecordId {
    let (patient, delegator) = &patients()[patient_index];
    let category = Category::LabResults;
    let aad = HealthRecord::associated_data(patient, &category, title);
    let ciphertext = delegator.encrypt_bytes(body, &aad, &category.type_tag(), rng);
    store
        .put(patient, &category, title, ciphertext)
        .expect("put on primary")
}

fn log_policy(store: &mut StoreClient, patient_index: usize, granted: bool) {
    let (patient, _) = &patients()[patient_index];
    let response = store
        .connection()
        .call(&Request::LogPolicyChange {
            patient: patient.clone(),
            category: Category::LabResults,
            grantee: Identity::new("dr-bob"),
            granted,
        })
        .expect("policy log");
    assert!(matches!(response, Response::Ok));
}

fn replication_status(conn: &mut Connection) -> (Vec<u64>, bool) {
    let report = conn.stats().expect("status");
    (report.positions, report.writable)
}

/// Blocks until the replica's applied offsets equal the primary's committed
/// offsets on every shard.
fn wait_caught_up(primary: &mut StoreClient, replica: &mut StoreClient) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (want, _) = replication_status(primary.connection());
        let (have, _) = replication_status(replica.connection());
        if want == have {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never caught up: applied {have:?}, committed {want:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The oracle: every observable of the replica equals the primary's.
fn assert_identical(primary: &mut StoreClient, replica: &mut StoreClient) {
    assert_eq!(
        replica.record_count().unwrap(),
        primary.record_count().unwrap()
    );
    assert_eq!(
        replica.audit_snapshot().unwrap(),
        primary.audit_snapshot().unwrap()
    );
    for (patient, _) in patients() {
        let ids = primary.list(patient, None).unwrap();
        assert_eq!(replica.list(patient, None).unwrap(), ids);
        for id in ids {
            assert_eq!(replica.get(id).unwrap(), primary.get(id).unwrap());
        }
    }
}

#[test]
fn a_lagging_replica_catches_up_and_serves_identical_reads() {
    let tmp = TempDir::new("repl-lag").unwrap();
    let primary_node = boot_primary(tmp.path());
    let mut primary = connect(&primary_node);
    let mut rng = StdRng::seed_from_u64(1);

    // History the replica has never seen: it must catch up from zero.
    for i in 0..12 {
        put(
            &mut primary,
            i % 3,
            &format!("pre-{i:02}"),
            b"before",
            &mut rng,
        );
    }
    log_policy(&mut primary, 0, true);

    let replica_node = boot_replica(&primary_node.addr().to_string());
    let mut replica = connect(&replica_node);

    // Live tail: writes arriving after the subscription.
    for i in 0..6 {
        put(
            &mut primary,
            i % 3,
            &format!("live-{i:02}"),
            b"after",
            &mut rng,
        );
    }
    wait_caught_up(&mut primary, &mut replica);
    assert_identical(&mut primary, &mut replica);

    // The replica serves reads but rejects every write with WrongRole.
    let (_, writable) = replication_status(replica.connection());
    assert!(!writable, "an unpromoted replica must not be writable");
    let (patient, delegator) = &patients()[0];
    let aad = HealthRecord::associated_data(patient, &Category::LabResults, "illegal");
    let ciphertext =
        delegator.encrypt_bytes(b"x", &aad, &Category::LabResults.type_tag(), &mut rng);
    assert!(matches!(
        replica.put(patient, &Category::LabResults, "illegal", ciphertext),
        Err(ClientError::Remote(RemoteError::WrongRole(_)))
    ));
    let some_id = primary.list(patient, None).unwrap()[0];
    assert!(matches!(
        replica.delete(some_id, patient),
        Err(ClientError::Remote(RemoteError::WrongRole(_)))
    ));

    shut_down(replica_node);
    shut_down(primary_node);
}

#[test]
fn a_torn_stream_resumes_with_no_duplicated_or_lost_ops() {
    let tmp = TempDir::new("repl-torn").unwrap();
    let primary_node = boot_primary(tmp.path());
    let mut primary = connect(&primary_node);
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..6 {
        put(
            &mut primary,
            i % 3,
            &format!("seed-{i:02}"),
            b"seed",
            &mut rng,
        );
    }

    // The replica only ever sees the primary through the fault proxy.
    let fault = FaultProxy::start(primary_node.addr().to_string()).unwrap();
    let replica_node = boot_replica(&fault.addr().to_string());
    let mut replica = connect(&replica_node);

    // Three rounds, each guaranteeing one real cut: arm a cut at an odd
    // byte offset (it lands mid-frame, leaving a torn tail the replica
    // must discard and re-request), then keep writing until the proxy
    // reports the cut fired.
    for round in 0u64..3 {
        let fired = fault.cuts() + 1;
        fault.cut_downstream_after(97 + round * 13);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut op = 0usize;
        while fault.cuts() < fired {
            let title = format!("round-{round}-{op}");
            put(
                &mut primary,
                (round as usize + op) % 3,
                &title,
                b"torn",
                &mut rng,
            );
            op += 1;
            assert!(Instant::now() < deadline, "the armed cut never fired");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    assert_eq!(fault.cuts(), 3);
    wait_caught_up(&mut primary, &mut replica);
    assert_identical(&mut primary, &mut replica);

    shut_down(replica_node);
    shut_down(primary_node);
}

#[test]
fn a_fresh_replica_bootstraps_from_a_shipped_snapshot_after_gc() {
    let tmp = TempDir::new("repl-snap").unwrap();
    let mut rng = StdRng::seed_from_u64(3);

    // Build the primary's directory in-process with an aggressive snapshot
    // cadence: shards snapshot and garbage-collect their WAL prefix, so a
    // replica subscribing from offset zero must be served a snapshot
    // generation (`ChunkOutcome::Gone`), not a segment stream.
    {
        let durability = tibpre_phr::Durability::new(toy_params()).snapshot_every(4);
        let store = tibpre_phr::EncryptedPhrStore::open(tmp.path(), durability).unwrap();
        let (patient, delegator) = &patients()[0];
        for i in 0..400 {
            let title = format!("gc-{i:03}");
            let aad = HealthRecord::associated_data(patient, &Category::LabResults, &title);
            let ciphertext =
                delegator.encrypt_bytes(b"x", &aad, &Category::LabResults.type_tag(), &mut rng);
            store.put(patient, &Category::LabResults, &title, ciphertext);
        }
        store.sync().unwrap();
        let gone = (0..store.replication_positions().len())
            .filter(|&shard| {
                matches!(
                    store.replication_chunk(shard, 0, 4096),
                    Ok(tibpre_storage::ChunkOutcome::Gone)
                )
            })
            .count();
        assert!(gone > 0, "no shard garbage-collected its WAL prefix");
    }

    let primary_node = boot_primary(tmp.path());
    let mut primary = connect(&primary_node);
    let replica_node = boot_replica(&primary_node.addr().to_string());
    let mut replica = connect(&replica_node);
    wait_caught_up(&mut primary, &mut replica);
    assert_eq!(replica.record_count().unwrap(), 400);
    assert_identical(&mut primary, &mut replica);

    shut_down(replica_node);
    shut_down(primary_node);
}

#[test]
fn primary_crash_then_promote_opens_the_write_gate() {
    let tmp = TempDir::new("repl-promote").unwrap();
    let primary_node = boot_primary(tmp.path());
    let mut primary = connect(&primary_node);
    let mut rng = StdRng::seed_from_u64(4);
    for i in 0..10 {
        put(
            &mut primary,
            i % 3,
            &format!("pre-{i:02}"),
            b"pre",
            &mut rng,
        );
    }

    let replica_node = boot_replica(&primary_node.addr().to_string());
    let mut replica = connect(&replica_node);
    wait_caught_up(&mut primary, &mut replica);
    let expected_count = primary.record_count().unwrap();

    // Primary dies.  The replica keeps serving reads from applied state
    // while its tail thread spins on reconnect.
    drop(primary);
    shut_down(primary_node);
    assert_eq!(replica.record_count().unwrap(), expected_count);

    // Still not writable: losing the primary is not a promotion.
    let (_, writable) = replication_status(replica.connection());
    assert!(!writable);

    // Operator promotes; the write gate opens and the replica is now the
    // primary of record (in-memory — documented limitation).
    let response = replica.connection().call(&Request::Promote).unwrap();
    assert!(matches!(response, Response::Ok));
    let (_, writable) = replication_status(replica.connection());
    assert!(writable, "a promoted replica accepts writes");
    put(&mut replica, 0, "post-promote", b"new", &mut rng);
    assert_eq!(replica.record_count().unwrap(), expected_count + 1);

    shut_down(replica_node);
}

fn send_response(stream: &mut TcpStream, response: &Response) {
    let payload = response.to_wire_bytes();
    let mut out = Vec::new();
    write_frame(&mut out, &payload, usize::MAX).unwrap();
    stream.write_all(&out).unwrap();
}

fn read_request(stream: &mut TcpStream, ctx: &DecodeCtx) -> Request {
    let payload = read_frame(stream, usize::MAX)
        .expect("request frame")
        .expect("request, not EOF");
    Request::from_wire_bytes(&payload, ctx).expect("decodable request")
}

fn accept_within(listener: &TcpListener, timeout: Duration) -> TcpStream {
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((stream, _)) => return stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(
                    Instant::now() < deadline,
                    "no connection within {timeout:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    }
}

/// A hand-rolled fake primary proves the replica's chain-gap refusal: a
/// chunk that does not start exactly at the next expected byte must tear
/// the subscription down un-applied, and the re-subscription must resume
/// from the replica's applied offset (zero), not from the gap.
#[test]
fn a_chain_gap_is_refused_and_resumed_from_the_applied_offset() {
    let params = toy_params();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();

    let (tx, rx) = std::sync::mpsc::channel::<Vec<u64>>();
    let server_params = Arc::clone(&params);
    let server = std::thread::spawn(move || {
        let ctx = DecodeCtx::from(&server_params);

        // Connection 1: the boot handshake.  Declare one shard, then push a
        // chunk claiming to start at offset 100 while the replica has
        // applied nothing.
        let mut c1 = accept_within(&listener, Duration::from_secs(10));
        let request = read_request(&mut c1, &ctx);
        match request {
            Request::SubscribeReplication { applied } => assert!(applied.is_empty()),
            other => panic!("expected a subscription, got {other:?}"),
        }
        send_response(
            &mut c1,
            &Response::ReplicaStatus {
                positions: vec![0],
                writable: true,
            },
        );
        send_response(
            &mut c1,
            &Response::SegmentChunk {
                shard: 0,
                start: 100,
                bytes: vec![1, 2, 3],
            },
        );
        // The replica must sever this connection rather than apply.
        c1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut byte = [0u8; 1];
        let severed = matches!(c1.read(&mut byte), Ok(0) | Err(_));
        assert!(severed, "the replica kept a gapped stream alive");

        // Connection 2: the re-subscription carries the applied offsets.
        let mut c2 = accept_within(&listener, Duration::from_secs(10));
        let request = read_request(&mut c2, &ctx);
        match request {
            Request::SubscribeReplication { applied } => tx.send(applied).unwrap(),
            other => panic!("expected a re-subscription, got {other:?}"),
        }
        send_response(
            &mut c2,
            &Response::ReplicaStatus {
                positions: vec![0],
                writable: true,
            },
        );
        // Hold the stream open until the replica shuts down.
        c2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = c2.read(&mut byte);
    });

    let replica_node = boot_replica(&addr.to_string());
    let applied = rx
        .recv_timeout(Duration::from_secs(15))
        .expect("the replica never re-subscribed after the gap");
    assert_eq!(
        applied,
        vec![0],
        "resume must start from the applied offset, not the gapped one"
    );
    // Nothing from the gapped chunk was applied.
    let mut replica = connect(&replica_node);
    assert_eq!(replica.record_count().unwrap(), 0);

    shut_down(replica_node);
    server.join().expect("fake primary panicked");
}

/// A replica sizes its store from the primary's first status frame, so a
/// shard count no store could have — none, or 65 536 when a store opens at
/// most 1 024 — fails the boot instead of being allocated.
#[test]
fn a_primary_reporting_no_or_too_many_shards_fails_replica_boot() {
    let params = toy_params();
    for shards in [0, 65_536] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let server_params = Arc::clone(&params);
        let server = std::thread::spawn(move || {
            let ctx = DecodeCtx::from(&server_params);
            let mut conn = accept_within(&listener, Duration::from_secs(10));
            let request = read_request(&mut conn, &ctx);
            assert!(matches!(request, Request::SubscribeReplication { .. }));
            send_response(
                &mut conn,
                &Response::ReplicaStatus {
                    positions: vec![0; shards],
                    writable: true,
                },
            );
            conn
        });
        let mut config = NodeConfig::new(NodeRole::Store);
        config.replica_of = Some(addr.to_string());
        let booted = node::start(config);
        let _conn = server.join().expect("fake primary panicked");
        match booted {
            Err(e) => assert!(e.to_string().contains(&format!("{shards} shards")), "{e}"),
            Ok(handle) => {
                shut_down(handle);
                panic!("a replica booted beside a primary reporting {shards} shards");
            }
        }
    }
}

#[test]
fn replication_never_resurrects_a_revoked_grant_or_deleted_record() {
    let tmp = TempDir::new("repl-revoke").unwrap();
    let primary_node = boot_primary(tmp.path());
    let mut primary = connect(&primary_node);
    let mut rng = StdRng::seed_from_u64(6);

    // One patient's policy history — grant, then records, then revoke,
    // then delete — all driven through the primary before the replica
    // exists, so the replica replays it from the log alone.
    let r1 = put(&mut primary, 0, "victim", b"to-delete", &mut rng);
    log_policy(&mut primary, 0, true);
    for i in 0..6 {
        put(&mut primary, 0, &format!("filler-{i}"), b"keep", &mut rng);
    }
    log_policy(&mut primary, 0, false);
    primary.delete(r1, &patients()[0].0).unwrap();
    let primary_audit = primary.audit_snapshot().unwrap();

    // Replicate through the fault proxy with repeated tiny cuts, and
    // sample the replica's state at every step of its catch-up.  Every
    // connection, the first one included, is cut `budget` bytes into its
    // stream, past the subscription handshake (the primary's status frame,
    // which the replica's boot must read whole); the proxy re-arms each cut
    // itself.  A cut after which the replica applied nothing widens the
    // next one by 61 bytes, until a connection carries a whole frame;
    // progress narrows it back to 61.  A fixed 61-byte cut is shorter than
    // a frame: a replica whose reconnects back off after fruitless
    // connections would meet one on every connection and never catch up.
    let fault = FaultProxy::start(primary_node.addr().to_string()).unwrap();
    let (committed, writable) = replication_status(primary.connection());
    let mut handshake = Vec::new();
    let status = Response::ReplicaStatus {
        positions: committed,
        writable,
    };
    write_frame(&mut handshake, &status.to_wire_bytes(), usize::MAX).unwrap();
    let arm = |budget: u64| fault.cut_downstream_every(handshake.len() as u64 + budget);
    let mut budget = 61;
    arm(budget);
    let replica_node = boot_replica(&fault.addr().to_string());
    let mut replica = connect(&replica_node);

    // Records shard by record id and policy events by patient, so the
    // merged audit is only per-shard ordered mid-catch-up.  The invariant
    // that matters is per-shard: every grant/revoke for a patient lands on
    // the patient's shard in log order, and a record's store/delete pair
    // lands on the record's shard in log order.
    let policy_order = |events: &[tibpre_phr::AuditEvent]| {
        events
            .iter()
            .filter(|event| {
                matches!(
                    event,
                    tibpre_phr::AuditEvent::AccessGranted { .. }
                        | tibpre_phr::AuditEvent::AccessRevoked { .. }
                )
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    let primary_policy = policy_order(&primary_audit);

    let mut cuts_seen = 0;
    let mut applied_at_last_cut = replication_status(replica.connection()).0;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_deleted = false;
    loop {
        let sample = replica.audit_snapshot().unwrap();
        // The replica never invents events.
        for event in &sample {
            assert!(
                primary_audit.contains(event),
                "replica invented audit event {event:?}"
            );
        }
        // Policy events apply strictly in the primary's order: a
        // revocation can never be observed without every grant/revoke
        // that preceded it on the patient's shard.
        assert!(
            primary_policy.starts_with(&policy_order(&sample)),
            "replica policy order diverged:\n  primary: {primary_policy:?}\n  \
             sample: {:?}",
            policy_order(&sample),
        );
        // A record's delete can never be observed before its store.
        let sample_stored = sample
            .iter()
            .any(|e| matches!(e, tibpre_phr::AuditEvent::RecordStored { id, .. } if *id == r1));
        let sample_deleted = sample
            .iter()
            .any(|e| matches!(e, tibpre_phr::AuditEvent::RecordDeleted { id, .. } if *id == r1));
        assert!(
            sample_stored || !sample_deleted,
            "replica observed a delete before the store it tombstones"
        );
        // Once the delete has applied it stays applied — a later chunk or
        // reconnect can never resurrect the record.
        let gone = matches!(
            replica.get(r1),
            Err(ClientError::Remote(RemoteError::NotFound))
        );
        if saw_deleted {
            assert!(gone, "a reconnect resurrected a deleted record");
        }
        saw_deleted = saw_deleted || gone;

        let (want, _) = replication_status(primary.connection());
        let (have, _) = replication_status(replica.connection());
        if want == have {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never caught up: {} cuts, applied {have:?}, committed {want:?}",
            fault.cuts()
        );
        let cuts = fault.cuts();
        if cuts > cuts_seen {
            budget = if have == applied_at_last_cut {
                budget + 61 * (cuts - cuts_seen)
            } else {
                61
            };
            arm(budget);
            cuts_seen = cuts;
            applied_at_last_cut = have;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        fault.cuts() >= 2,
        "the catch-up was cut {} times",
        fault.cuts()
    );
    assert!(saw_deleted, "the delete never reached the replica");
    assert_identical(&mut primary, &mut replica);

    shut_down(replica_node);
    shut_down(primary_node);
}

/// Randomized oracle: arbitrary op sequences against the primary with
/// arbitrary cut offsets in the stream; after catch-up the replica must be
/// indistinguishable from the primary.
#[test]
fn random_histories_and_random_cuts_converge_to_the_primary_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0u64..4 {
        let tmp = TempDir::new("repl-oracle").unwrap();
        let primary_node = boot_primary(tmp.path());
        let mut primary = connect(&primary_node);

        let fault = FaultProxy::start(primary_node.addr().to_string()).unwrap();
        let replica_node = boot_replica(&fault.addr().to_string());
        let mut replica = connect(&replica_node);

        let mut ids: Vec<(usize, RecordId)> = Vec::new();
        let op_count = 8 + (rng.next_u64() % 12) as usize;
        for op in 0..op_count {
            if rng.next_u64() % 4 == 0 {
                // Tear the stream at a pseudo-random offset mid-history.
                fault.cut_downstream_after(53 + rng.next_u64() % 900);
            }
            match rng.next_u64() % 5 {
                0..=2 => {
                    let patient = (rng.next_u64() % 3) as usize;
                    let mut body = vec![0u8; 8 + (rng.next_u64() % 48) as usize];
                    rng.fill_bytes(&mut body);
                    let id = put(
                        &mut primary,
                        patient,
                        &format!("case-{case}-op-{op}"),
                        &body,
                        &mut rng,
                    );
                    ids.push((patient, id));
                }
                3 if !ids.is_empty() => {
                    let index = (rng.next_u64() as usize) % ids.len();
                    let (patient, id) = ids.swap_remove(index);
                    primary.delete(id, &patients()[patient].0).unwrap();
                }
                _ => {
                    let patient = (rng.next_u64() % 3) as usize;
                    log_policy(&mut primary, patient, rng.next_u64() % 2 == 0);
                }
            }
        }
        wait_caught_up(&mut primary, &mut replica);
        assert_identical(&mut primary, &mut replica);

        shut_down(replica_node);
        shut_down(primary_node);
    }
}
