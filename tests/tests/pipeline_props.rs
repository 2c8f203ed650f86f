//! Properties of the pipelined node layer: per-connection response order,
//! byte-identity against a sequential oracle at every batch size, fault
//! tolerance of the scheduling node, the buffered-frame fast path, and
//! graceful drain of a non-empty scheduler queue.
//!
//! All traffic runs through real TCP against in-process nodes at the toy
//! level.  Disclosure is deterministic (no proxy-side randomness), so the
//! same request against the same installed re-encryption key must produce
//! byte-identical response frames no matter how requests are pipelined,
//! interleaved across connections, or batched by the scheduler.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tibpre_client::{
    params_for_level, ClientConfig, Connection, KgcClient, NodeRole, ProxyClient, Request,
    Response, StoreClient,
};
use tibpre_core::Delegator;
use tibpre_ibe::Identity;
use tibpre_pairing::{PairingParams, SecurityLevel};
use tibpre_phr::{Category, HealthRecord, RecordId};
use tibpre_server::{node, NodeConfig, NodeHandle};
use tibpre_tests::FaultProxy;
use tibpre_wire::WireEncode;

/// A booted kgc/store/proxy set with seeded records and one provider grant.
struct Fixture {
    kgc: NodeHandle,
    store: NodeHandle,
    proxy: NodeHandle,
    params: Arc<PairingParams>,
    patients: Vec<Identity>,
    records: Vec<Vec<RecordId>>,
    provider: Identity,
}

impl Fixture {
    /// Boots the node set (scheduler sized by `batch_max`) and uploads
    /// `records_per_patient` lab records for each of `patients` patients,
    /// all granted to one provider.  `store_via` reroutes the proxy's
    /// record reads (for fault injection between proxy and store).
    fn boot(
        patients: usize,
        records_per_patient: usize,
        batch_max: usize,
        store_via: Option<String>,
    ) -> Self {
        let kgc = node::start(NodeConfig::new(NodeRole::Kgc)).expect("kgc node");
        let store = node::start(NodeConfig::new(NodeRole::Store)).expect("store node");
        let mut proxy_config = NodeConfig::new(NodeRole::Proxy);
        proxy_config.store_addr = Some(store_via.unwrap_or_else(|| store.addr().to_string()));
        proxy_config.batch_max = batch_max;
        let proxy = node::start(proxy_config).expect("proxy node");

        let params = params_for_level(SecurityLevel::Toy);
        let config = ClientConfig::default();
        let mut kgc_client = KgcClient::connect(kgc.addr(), &params, &config).unwrap();
        let mut store_client = StoreClient::connect(store.addr(), &params, &config).unwrap();
        let mut proxy_client = ProxyClient::connect(proxy.addr(), &params, &config).unwrap();

        let domain = kgc_client.public_params().unwrap();
        let provider = Identity::new("dr-pipeline");
        let category = Category::LabResults;
        let mut rng = StdRng::seed_from_u64(0x9199_e11e);
        let mut all_patients = Vec::new();
        let mut all_records = Vec::new();
        for p in 0..patients {
            let identity = Identity::new(format!("patient-{p:02}"));
            let delegator = Delegator::new(domain.clone(), kgc_client.extract(&identity).unwrap());
            let mut ids = Vec::new();
            for r in 0..records_per_patient {
                let title = format!("lab-{r:02}");
                let mut body = vec![0u8; 48];
                rng.fill_bytes(&mut body);
                let aad = HealthRecord::associated_data(&identity, &category, &title);
                let ct = delegator.encrypt_bytes(&body, &aad, &category.type_tag(), &mut rng);
                ids.push(store_client.put(&identity, &category, &title, ct).unwrap());
            }
            let grant = delegator
                .make_reencryption_key(&provider, &domain, &category.type_tag(), &mut rng)
                .unwrap();
            proxy_client.install_key(grant).unwrap();
            all_patients.push(identity);
            all_records.push(ids);
        }
        Fixture {
            kgc,
            store,
            proxy,
            params,
            patients: all_patients,
            records: all_records,
            provider,
        }
    }

    fn proxy_conn(&self) -> Connection {
        Connection::connect(self.proxy.addr(), &self.params, &ClientConfig::default())
            .expect("proxy connection")
    }

    fn shut_down(self) {
        for handle in [self.proxy, self.store, self.kgc] {
            let mut conn =
                Connection::connect(handle.addr(), &self.params, &ClientConfig::default())
                    .expect("connect for shutdown");
            conn.shutdown().expect("shutdown frame");
            handle.wait();
        }
    }

    /// Maps one opcode byte onto a request: mostly granted disclosures
    /// (scheduler path), some denied ones (per-item error path inside a
    /// batch), some cheap bypass requests (inline path) — all three must
    /// interleave without disturbing per-connection order.
    fn request_for(&self, op: u8, pick: u8) -> Request {
        let p = pick as usize % self.patients.len();
        let ids = &self.records[p];
        let id = ids[(pick >> 4) as usize % ids.len()];
        match op % 4 {
            0 | 1 => Request::Disclose {
                patient: self.patients[p].clone(),
                id,
                requester: self.provider.clone(),
            },
            2 => Request::Disclose {
                patient: self.patients[p].clone(),
                id,
                requester: Identity::new("eve-no-grant"),
            },
            _ => Request::KeyCount,
        }
    }
}

/// Encoded response frames for one request sequence, issued strictly one
/// request at a time on a fresh connection — the oracle every pipelined
/// schedule must match byte for byte.
fn sequential_oracle(fixture: &Fixture, requests: &[Request]) -> Vec<Vec<u8>> {
    let mut conn = fixture.proxy_conn();
    requests
        .iter()
        .map(|request| {
            let responses = conn
                .call_pipelined(std::slice::from_ref(request))
                .expect("oracle call");
            responses[0].to_wire_bytes()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// N connections pipeline randomized request mixes concurrently through
    /// one proxy, each flushing random-sized chunks.  Every connection's
    /// responses come back in its own request order and byte-identical to
    /// the sequential oracle — whether the scheduler cuts batches of one or
    /// of up to four (`batch_max` is a size, not a mode).
    #[test]
    fn pipelined_interleavings_preserve_order_and_match_the_oracle(
        seed in any::<u64>(),
        wide in any::<bool>(),
        scripts in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 1..10),
            2..4,
        ),
    ) {
        let fixture = Fixture::boot(3, 2, if wide { 4 } else { 1 }, None);
        let sequences: Vec<Vec<Request>> = scripts
            .iter()
            .map(|script| {
                script
                    .iter()
                    // Low byte picks the operation, high byte the record.
                    .map(|&word| fixture.request_for(word as u8, (word >> 8) as u8))
                    .collect()
            })
            .collect();
        let oracles: Vec<Vec<Vec<u8>>> = sequences
            .iter()
            .map(|requests| sequential_oracle(&fixture, requests))
            .collect();

        let observed: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = sequences
                .iter()
                .enumerate()
                .map(|(index, requests)| {
                    let fixture = &fixture;
                    scope.spawn(move || {
                        let mut conn = fixture.proxy_conn();
                        let mut rng = StdRng::seed_from_u64(seed ^ index as u64);
                        let mut bytes = Vec::new();
                        let mut rest: &[Request] = requests;
                        while !rest.is_empty() {
                            // Random pipeline depth per flush, 1..=4.
                            let depth = (rng.next_u64() as usize % 4 + 1).min(rest.len());
                            let (chunk, tail) = rest.split_at(depth);
                            for response in conn.call_pipelined(chunk).expect("pipelined call") {
                                bytes.push(response.to_wire_bytes());
                            }
                            rest = tail;
                        }
                        bytes
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("worker panicked"))
                .collect()
        });

        for (conn_index, (got, want)) in observed.iter().zip(&oracles).enumerate() {
            prop_assert!(
                got.len() == want.len(),
                "connection {} answered {} of {} requests",
                conn_index,
                got.len(),
                want.len()
            );
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g == w,
                    "connection {} response {} diverged from the sequential oracle",
                    conn_index,
                    i
                );
            }
        }
        fixture.shut_down();
    }
}

/// Regression for the buffered-frame fast path: a pipelined peer that
/// lands many back-to-back frames in one TCP segment must have them all
/// answered promptly.  Before the fix, frames already sitting in the
/// connection's read buffer re-entered the first-byte idle poll, which
/// reads the raw socket — an indefinite stall on bytes that will never
/// arrive there.
#[test]
fn buffered_back_to_back_frames_skip_the_idle_poll() {
    let fixture = Fixture::boot(1, 1, 4, None);

    // Hand-frame 16 pings into a single write so they arrive (and get
    // buffered) together.
    let payload = Request::Ping.to_wire_bytes();
    let mut burst = Vec::new();
    for _ in 0..16 {
        tibpre_wire::write_frame(&mut burst, &payload, usize::MAX).unwrap();
    }
    let mut stream = TcpStream::connect(fixture.proxy.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&burst).unwrap();
    // A stalled frame fails the read below at the 10 s timeout.
    let mut answered = 0;
    while answered < 16 {
        let frame = tibpre_wire::read_frame(&mut stream, usize::MAX)
            .expect("response frame")
            .expect("connection stayed open");
        assert!(!frame.is_empty());
        answered += 1;
    }
    drop(stream);
    fixture.shut_down();
}

/// The fault suite against the scheduling proxy: a torn frame and a client
/// that vanishes mid-pipeline must leave the node able to serve the next
/// connection correctly.
#[test]
fn torn_frames_and_vanishing_clients_leave_the_scheduler_node_healthy() {
    let fixture = Fixture::boot(2, 2, 4, None);

    // Torn frame: a length prefix promising 200 bytes, then only 10, then
    // a hard disconnect mid-payload.
    {
        let mut stream = TcpStream::connect(fixture.proxy.addr()).unwrap();
        stream.write_all(&200u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xAB; 10]).unwrap();
    }

    // Vanishing client: several disclosures pipelined into the scheduler,
    // connection dropped before reading any response.
    {
        let mut conn = fixture.proxy_conn();
        for _ in 0..4 {
            conn.send(&Request::Disclose {
                patient: fixture.patients[0].clone(),
                id: fixture.records[0][0],
                requester: fixture.provider.clone(),
            })
            .unwrap();
        }
        conn.flush().unwrap();
    }

    // The node keeps answering, and what it answers is still the oracle.
    let requests = vec![
        fixture.request_for(0, 0),
        fixture.request_for(3, 0),
        fixture.request_for(2, 1),
    ];
    let oracle = sequential_oracle(&fixture, &requests);
    let mut conn = fixture.proxy_conn();
    let responses = conn.call_pipelined(&requests).expect("post-fault pipeline");
    assert_eq!(responses.len(), oracle.len());
    for (response, want) in responses.iter().zip(&oracle) {
        assert_eq!(&response.to_wire_bytes(), want);
    }
    fixture.shut_down();
}

/// Graceful drain with a non-empty scheduler queue: requests stuck behind
/// a stalled store are still answered — in order, with real bundles — when
/// the node is told to shut down mid-backlog.
#[test]
fn shutdown_answers_queued_scheduler_entries_before_closing() {
    // The proxy reads records through a fault proxy so the store path can
    // be frozen; batch_max 2 keeps most of an 8-deep pipeline queued while
    // the first batch is stuck inside the store call.
    let kgc = node::start(NodeConfig::new(NodeRole::Kgc)).expect("kgc node");
    let store = node::start(NodeConfig::new(NodeRole::Store)).expect("store node");
    let fault = FaultProxy::start(store.addr().to_string()).expect("fault proxy");
    let mut proxy_config = NodeConfig::new(NodeRole::Proxy);
    proxy_config.store_addr = Some(fault.addr().to_string());
    proxy_config.batch_max = 2;
    let proxy = node::start(proxy_config).expect("proxy node");

    let params = params_for_level(SecurityLevel::Toy);
    let config = ClientConfig::default();
    let mut kgc_client = KgcClient::connect(kgc.addr(), &params, &config).unwrap();
    let mut store_client = StoreClient::connect(store.addr(), &params, &config).unwrap();
    let mut proxy_client = ProxyClient::connect(proxy.addr(), &params, &config).unwrap();

    let domain = kgc_client.public_params().unwrap();
    let patient = Identity::new("alice");
    let provider = Identity::new("dr-drain");
    let category = Category::LabResults;
    let delegator = Delegator::new(domain.clone(), kgc_client.extract(&patient).unwrap());
    let mut rng = StdRng::seed_from_u64(0xD5A1);
    let mut ids = Vec::new();
    for r in 0..8 {
        let title = format!("lab-{r}");
        let aad = HealthRecord::associated_data(&patient, &category, &title);
        let ct = delegator.encrypt_bytes(
            format!("result {r}").as_bytes(),
            &aad,
            &category.type_tag(),
            &mut rng,
        );
        ids.push(store_client.put(&patient, &category, &title, ct).unwrap());
    }
    let grant = delegator
        .make_reencryption_key(&provider, &domain, &category.type_tag(), &mut rng)
        .unwrap();
    proxy_client.install_key(grant).unwrap();
    // Warm the proxy→store path once so the backlog below is pure queue.
    let warm = proxy_client.disclose(&patient, ids[0], &provider).unwrap();
    assert_eq!(warm.id, ids[0]);
    let before = proxy_client.connection().stats().unwrap();

    // Freeze store→proxy traffic, then pipeline 8 disclosures: the first
    // scheduler batch blocks inside its record fetch and the rest queue.
    fault.pause();
    let mut pipelined = Connection::connect(proxy.addr(), &params, &config).unwrap();
    for &id in &ids {
        pipelined
            .send(&Request::Disclose {
                patient: patient.clone(),
                id,
                requester: provider.clone(),
            })
            .unwrap();
    }
    pipelined.flush().unwrap();

    // Give the reader time to submit all 8 — dispatched since `before` plus
    // still queued; a disclosure the reader has not submitted when shutdown
    // lands is new work and is refused — confirm it (the proxy's own
    // counters, sampled while its reader races them, and the depth counts
    // the poll itself: a best-effort observation, not the correctness
    // assertion), then ask the node to shut down while the backlog is
    // still undispatched.
    let observe_until = Instant::now() + Duration::from_secs(2);
    let mut saw_backlog = false;
    while Instant::now() < observe_until {
        if let Ok(stats) = proxy_client.connection().stats() {
            let submitted = stats.batched_requests - before.batched_requests + stats.queue_depth;
            if submitted >= ids.len() as u64 {
                saw_backlog = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut admin = Connection::connect(proxy.addr(), &params, &config).unwrap();
    admin.shutdown().expect("shutdown frame");
    fault.resume();

    // Every queued disclosure is answered — in request order, with the
    // real bundle, not an error — before the connection closes.
    for &want in &ids {
        match pipelined.receive().expect("drained response") {
            Response::Bundle(bundle) => assert_eq!(bundle.id, want),
            other => panic!("queued entry answered with {other:?}"),
        }
    }
    proxy.wait();
    let _ = saw_backlog; // not load-bearing; see comment above

    // The store and kgc are still healthy; stop them cleanly.
    for handle in [store, kgc] {
        let mut conn = Connection::connect(handle.addr(), &params, &config).unwrap();
        conn.shutdown().expect("shutdown frame");
        handle.wait();
    }
}

/// Request order survives a revocation pipelined between disclosures: the
/// connection executes its requests in the order it sent them, so the
/// first `Disclose` sees the grant, the `RevokeKey` after it takes effect
/// before the second, and the re-installed key serves the third — at every
/// run length the proxy may cut.
#[test]
fn a_pipelined_revocation_takes_effect_in_request_order() {
    for batch_max in [1, 4, 16] {
        let fixture = Fixture::boot(1, 1, batch_max, None);
        let patient = fixture.patients[0].clone();
        let provider = fixture.provider.clone();
        let category = Category::LabResults;

        // Install a key the test holds, so re-installing it restores the
        // exact state the sequence started from.
        let config = ClientConfig::default();
        let mut kgc_client = KgcClient::connect(fixture.kgc.addr(), &fixture.params, &config)
            .expect("kgc connection");
        let domain = kgc_client.public_params().unwrap();
        let delegator = Delegator::new(domain.clone(), kgc_client.extract(&patient).unwrap());
        let mut rng = StdRng::seed_from_u64(0x0e0d_e125);
        let key = delegator
            .make_reencryption_key(&provider, &domain, &category.type_tag(), &mut rng)
            .unwrap();
        let mut proxy_client = ProxyClient::connect(fixture.proxy.addr(), &fixture.params, &config)
            .expect("proxy connection");
        proxy_client.install_key(key.clone()).unwrap();

        let disclose = Request::Disclose {
            patient: patient.clone(),
            id: fixture.records[0][0],
            requester: provider.clone(),
        };
        let requests = vec![
            disclose.clone(),
            Request::RevokeKey {
                patient: patient.clone(),
                category: category.clone(),
                grantee: provider.clone(),
            },
            disclose.clone(),
            Request::HasGrant {
                patient: patient.clone(),
                category: category.clone(),
                grantee: provider.clone(),
            },
            Request::InstallKey { key: Box::new(key) },
            disclose,
        ];
        let oracle = sequential_oracle(&fixture, &requests);

        let mut conn = fixture.proxy_conn();
        let responses = conn.call_pipelined(&requests).expect("pipelined call");
        assert_eq!(responses.len(), requests.len(), "batch_max {batch_max}");
        assert!(
            matches!(responses[0], Response::Bundle(_)),
            "batch_max {batch_max}: the disclosure before the revocation got {:?}",
            responses[0]
        );
        assert!(matches!(responses[1], Response::Bool(true)));
        assert!(
            matches!(
                responses[2],
                Response::Error(tibpre_client::RemoteError::AccessDenied { .. })
            ),
            "batch_max {batch_max}: the disclosure after the revocation got {:?}",
            responses[2]
        );
        assert!(matches!(responses[3], Response::Bool(false)));
        assert!(matches!(responses[4], Response::Ok));
        assert!(matches!(responses[5], Response::Bundle(_)));
        for (i, (response, want)) in responses.iter().zip(&oracle).enumerate() {
            assert_eq!(
                &response.to_wire_bytes(),
                want,
                "batch_max {batch_max}: response {i} diverged from the sequential oracle"
            );
        }
        fixture.shut_down();
    }
}
