//! Fault injection against a live node: torn frames, hostile length
//! prefixes, wrong-version envelopes, vanishing clients, and concurrent
//! policy churn.  The invariant throughout: the node never panics, the
//! listener keeps accepting, and durable state reopens cleanly afterward.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, Connection, KgcClient, NodeRole, ProxyClient,
    RemoteError, RemoteStore, Request, Response, StoreClient,
};
use tibpre_core::Delegator;
use tibpre_ibe::Identity;
use tibpre_pairing::{DecodeCtx, PairingParams, SecurityLevel};
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{Category, Durability, EncryptedPhrStore, HealthRecord, RecordId, RecordSource};
use tibpre_server::{node, NodeConfig, NodeHandle};
use tibpre_tests::fixture::World;
use tibpre_wire::{read_frame, write_frame, WireDecode, WireEncode, DEFAULT_MAX_FRAME};

fn toy_params() -> Arc<PairingParams> {
    params_for_level(SecurityLevel::Toy)
}

fn boot(role: NodeRole) -> NodeHandle {
    node::start(NodeConfig::new(role)).expect("node boot")
}

/// The node still serves a fresh, well-behaved connection.
fn assert_alive(handle: &NodeHandle, role: NodeRole) {
    let mut conn =
        Connection::connect(handle.addr(), &toy_params(), &ClientConfig::default()).unwrap();
    assert_eq!(conn.ping().unwrap().0, role);
}

fn read_error_response(stream: &mut TcpStream) -> RemoteError {
    let payload = read_frame(stream, DEFAULT_MAX_FRAME)
        .expect("a response frame")
        .expect("a response, not EOF");
    let ctx = DecodeCtx::from(&toy_params());
    match Response::from_wire_bytes(&payload, &ctx).expect("decodable response") {
        Response::Error(err) => err,
        other => panic!("expected an error response, got {other:?}"),
    }
}

#[test]
fn torn_frame_mid_request_closes_only_that_connection() {
    let handle = boot(NodeRole::Kgc);

    // Promise 100 bytes, deliver 10, hang up.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[0xAA; 10]).unwrap();
    drop(stream);

    // Tear even earlier: one byte of the length prefix.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&[0x00]).unwrap();
    drop(stream);

    assert_alive(&handle, NodeRole::Kgc);
    handle.shutdown();
    handle.wait();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let handle = boot(NodeRole::Kgc);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // 3 GiB length prefix — must be refused without the node buffering it.
    stream.write_all(&0xC000_0000u32.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let err = read_error_response(&mut stream);
    assert!(matches!(err, RemoteError::BadRequest(_)), "got {err:?}");
    // The node then closes this connection.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    assert_alive(&handle, NodeRole::Kgc);
    handle.shutdown();
    handle.wait();
}

#[test]
fn wrong_version_envelope_is_a_bad_request_not_a_hang() {
    let handle = boot(NodeRole::Kgc);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A well-formed frame whose payload claims wire version 0x7F.
    let bogus = [0x7Fu8, 0x01, 0x02, 0x03];
    stream
        .write_all(&(bogus.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&bogus).unwrap();
    stream.flush().unwrap();
    let err = read_error_response(&mut stream);
    assert!(matches!(err, RemoteError::BadRequest(_)), "got {err:?}");

    // Garbage that *is* the right version but truncated mid-payload: a V1
    // envelope opening an `Extract` with no identity behind it.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let truncated = [0xE1u8, 0x04];
    stream
        .write_all(&(truncated.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&truncated).unwrap();
    stream.flush().unwrap();
    let err = read_error_response(&mut stream);
    assert!(matches!(err, RemoteError::BadRequest(_)), "got {err:?}");

    assert_alive(&handle, NodeRole::Kgc);
    handle.shutdown();
    handle.wait();
}

#[test]
fn client_disconnect_mid_response_does_not_poison_the_listener() {
    let handle = boot(NodeRole::Store);
    let params = toy_params();

    let _ = &params;
    for _ in 0..8 {
        // Fire a request and vanish before reading the response; the
        // node's write lands in a closed socket.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let payload = Request::RecordCount.to_wire_bytes();
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        stream.flush().unwrap();
        drop(stream);
    }

    assert_alive(&handle, NodeRole::Store);
    handle.shutdown();
    handle.wait();
}

#[test]
fn concurrent_grant_revoke_churn_on_one_patient_stays_consistent() {
    let kgc_node = boot(NodeRole::Kgc);
    let store_node = boot(NodeRole::Store);
    let mut proxy_config = NodeConfig::new(NodeRole::Proxy);
    proxy_config.store_addr = Some(store_node.addr().to_string());
    let proxy_node = node::start(proxy_config).expect("proxy boot");

    let params = toy_params();
    let config = ClientConfig::default();
    let mut rng = StdRng::seed_from_u64(0xC0117E57);

    let mut kgc = KgcClient::connect(kgc_node.addr(), &params, &config).unwrap();
    let domain = kgc.public_params().unwrap();
    let alice = Identity::new("alice");
    let doctor = Identity::new("doctor");
    let delegator = Delegator::new(domain.clone(), kgc.extract(&alice).unwrap());

    let mut store = StoreClient::connect(store_node.addr(), &params, &config).unwrap();
    let category = Category::LabResults;
    let aad = HealthRecord::associated_data(&alice, &category, "hba1c");
    let ct = delegator.encrypt_bytes(b"6.1%", &aad, &category.type_tag(), &mut rng);
    let record_id = store.put(&alice, &category, "hba1c", ct).unwrap();

    let grant = delegator
        .make_reencryption_key(&doctor, &domain, &category.type_tag(), &mut rng)
        .unwrap();

    // Four threads churn the same (patient, category, grantee) triple —
    // two flipping grant/revoke, two issuing disclosures that race the
    // policy flips.  Every outcome must be a clean protocol answer.
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let grant = grant.clone();
            let (alice, doctor, category) = (alice.clone(), doctor.clone(), category.clone());
            let (params, config) = (Arc::clone(&params), config.clone());
            let addr = proxy_node.addr();
            scope.spawn(move || {
                let mut proxy = ProxyClient::connect(addr, &params, &config).unwrap();
                for _ in 0..25 {
                    proxy.install_key(grant.clone()).unwrap();
                    let _ = proxy.revoke_key(&alice, &category, &doctor).unwrap();
                    let _ = worker;
                }
            });
        }
        for _ in 0..2 {
            let (alice, doctor) = (alice.clone(), doctor.clone());
            let (params, config) = (Arc::clone(&params), config.clone());
            let addr = proxy_node.addr();
            scope.spawn(move || {
                let mut proxy = ProxyClient::connect(addr, &params, &config).unwrap();
                for _ in 0..25 {
                    match proxy.disclose(&alice, record_id, &doctor) {
                        Ok(_) => {}
                        Err(ClientError::Remote(RemoteError::AccessDenied { .. })) => {}
                        Err(other) => panic!("disclosure race broke the protocol: {other}"),
                    }
                }
            });
        }
    });

    // The proxy answers a definite final state (whatever the race left).
    let mut proxy = ProxyClient::connect(proxy_node.addr(), &params, &config).unwrap();
    let final_state = proxy.has_grant(&alice, &category, &doctor).unwrap();
    assert_eq!(proxy.key_count().unwrap(), u64::from(final_state));

    for handle in [proxy_node, store_node, kgc_node] {
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn store_reopens_cleanly_after_surviving_the_fault_suite() {
    let tmp = tibpre_storage::TempDir::new("fault-reopen").unwrap();
    let params = toy_params();
    let config = ClientConfig::default();
    let mut rng = StdRng::seed_from_u64(0xFA017);

    let mut store_config = NodeConfig::new(NodeRole::Store);
    store_config.data_dir = Some(tmp.path().to_path_buf());
    let store_node = node::start(store_config).expect("durable store boot");

    // Real traffic first.
    let kgc_node = boot(NodeRole::Kgc);
    let mut kgc = KgcClient::connect(kgc_node.addr(), &params, &config).unwrap();
    let domain = kgc.public_params().unwrap();
    let alice = Identity::new("alice");
    let delegator = Delegator::new(domain, kgc.extract(&alice).unwrap());
    let mut store = StoreClient::connect(store_node.addr(), &params, &config).unwrap();
    let aad = HealthRecord::associated_data(&alice, &Category::Vaccinations, "mmr");
    let ct = delegator.encrypt_bytes(
        b"1998-05-12",
        &aad,
        &Category::Vaccinations.type_tag(),
        &mut rng,
    );
    let record_id = store
        .put(&alice, &Category::Vaccinations, "mmr", ct)
        .unwrap();

    // Then the fault barrage: torn frame, hostile prefix, garbage payload.
    let mut torn = TcpStream::connect(store_node.addr()).unwrap();
    torn.write_all(&64u32.to_be_bytes()).unwrap();
    torn.write_all(&[0x55; 5]).unwrap();
    drop(torn);
    let mut hostile = TcpStream::connect(store_node.addr()).unwrap();
    hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
    drop(hostile);
    let mut garbage = TcpStream::connect(store_node.addr()).unwrap();
    garbage.write_all(&4u32.to_be_bytes()).unwrap();
    garbage.write_all(&[0xFF; 4]).unwrap();
    drop(garbage);

    // The node still serves, drains, and syncs.
    assert_alive(&store_node, NodeRole::Store);
    store_node.shutdown();
    store_node.wait();
    kgc_node.shutdown();
    kgc_node.wait();

    // The directory lock was released and the WAL replays the record.
    let reopened =
        EncryptedPhrStore::open(tmp.path(), Durability::new(Arc::clone(&params))).unwrap();
    assert_eq!(reopened.record_count(), 1);
    assert_eq!(reopened.get(record_id).unwrap().title, "mmr");
}

/// A fake store node answers the first request it ever reads with an
/// undecodable payload and every other `GetRecord` with a record under the
/// requested id.  The first pipelined run fails on that payload; the rest
/// of its responses are still in flight, and the next run on the same
/// one-connection pool must not be answered with them.
#[test]
fn a_pooled_store_connection_that_failed_is_never_reused() {
    let params = toy_params();
    let record = World::new(params.clone()).record;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ctx = DecodeCtx::from(&params);
    std::thread::spawn(move || {
        let mut first = true;
        for mut stream in listener.incoming().take(2).flatten() {
            while let Ok(Some(payload)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
                let Ok(Request::GetRecord { id }) = Request::from_wire_bytes(&payload, &ctx) else {
                    return;
                };
                let response = match std::mem::take(&mut first) {
                    true => vec![0xE1, 0xFF],
                    false => Response::Record(Box::new(StoredRecord {
                        id,
                        ..record.clone()
                    }))
                    .to_wire_bytes(),
                };
                if write_frame(&mut stream, &response, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
            }
        }
    });

    let store = RemoteStore::connect(addr, &params, &ClientConfig::default()).unwrap();
    let run = store.get_many(&[RecordId(1), RecordId(2), RecordId(3)]);
    assert!(run.iter().all(Result::is_err));
    let next = store.get(RecordId(4));
    assert!(
        !matches!(&next, Ok(got) if got.id != RecordId(4)),
        "a stale response answered the next request: {:?}",
        next.map(|got| got.id)
    );
    assert_eq!(next.unwrap().id, RecordId(4));
}

/// A fake store node numbers its connections in accept order and parks
/// every `GetRecord` it reads: it reports the connection's number on
/// `arrived`, then answers once the test sends a token on `release`.  The
/// pool must open a connection only when every open one is busy.
#[test]
fn the_store_pool_opens_one_connection_per_concurrent_caller() {
    let params = toy_params();
    let record = World::new(params.clone()).record;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ctx = DecodeCtx::from(&params);
    let accepts = Arc::new(AtomicUsize::new(0));
    let (arrived_tx, arrived) = mpsc::channel::<usize>();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let counted = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let conn = counted.fetch_add(1, Ordering::SeqCst);
            let (arrived_tx, release_rx) = (arrived_tx.clone(), Arc::clone(&release_rx));
            let (ctx, record) = (ctx.clone(), record.clone());
            std::thread::spawn(move || {
                while let Ok(Some(payload)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
                    let Ok(Request::GetRecord { id }) = Request::from_wire_bytes(&payload, &ctx)
                    else {
                        return;
                    };
                    if arrived_tx.send(conn).is_err() || release_rx.lock().unwrap().recv().is_err()
                    {
                        return;
                    }
                    let response = Response::Record(Box::new(StoredRecord {
                        id,
                        ..record.clone()
                    }));
                    if write_frame(&mut stream, &response.to_wire_bytes(), DEFAULT_MAX_FRAME)
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    let store = Arc::new(RemoteStore::connect(addr, &params, &ClientConfig::default()).unwrap());
    // One caller at a time: each answer is released before its request.
    let sequential = |ids: std::ops::Range<u64>| {
        for n in ids {
            release.send(()).unwrap();
            assert_eq!(store.get(RecordId(n)).unwrap().id, RecordId(n));
            assert!(arrived.recv().unwrap() < 2);
        }
    };

    // Sequential calls reuse the connection `connect` opened.
    sequential(1..4);
    assert_eq!(accepts.load(Ordering::SeqCst), 1);

    // Two callers parked in a call at once hold two connections.
    let callers: Vec<_> = [10, 11]
        .map(|n| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.get(RecordId(n)).map(|got| got.id))
        })
        .into_iter()
        .collect();
    // A pool that made the second caller wait for the first's connection
    // would never deliver the second request; the deadline turns that
    // deadlock into a failure instead of a hang.
    let mut parked_on = [(); 2].map(|()| {
        arrived
            .recv_timeout(Duration::from_secs(60))
            .expect("a caller waited for another's connection")
    });
    parked_on.sort_unstable();
    assert_eq!(parked_on, [0, 1]);
    assert_eq!(accepts.load(Ordering::SeqCst), 2);
    release.send(()).unwrap();
    release.send(()).unwrap();
    for (caller, n) in callers.into_iter().zip([10, 11]) {
        assert_eq!(caller.join().unwrap().unwrap(), RecordId(n));
    }

    // Both went back to the pool: later calls open no third connection.
    sequential(20..26);
    assert_eq!(accepts.load(Ordering::SeqCst), 2);
}
