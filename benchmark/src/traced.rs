//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! The workload runs twice on one node set — a short untraced segment, then
//! the same number of operations with spans kept in memory — so that the
//! tracing overhead is itself a figure.  Then the client-visible round trips
//! are timed against the live nodes, the request sequence is replayed in
//! process through the public functions a node calls, the micro rows are
//! measured, and the layer costs are summed into a model of one lockstep
//! operation whose residual is reported.  End-to-end metrics never come from
//! this run.

use crate::check::{check_disclosure, Failures};
use crate::generator::{churn_cycle, disclose_request, upload_title, Link, Picker};
use crate::layers::{self, Rows};
use crate::report::{self, Metric};
use crate::run::{self, Ready};
use crate::stats::median;
use crate::trace::{self, Recorder};
use crate::workload::{Kind, Spec, Split, TRACE_WINDOWS};
use crate::world::{stream, stream_seed, upload_payload, Fixture, RecordFix};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tibpre_client::{ClientConfig, Connection, ProxyClient, Request, Response, StoreClient};
use tibpre_core::hybrid;
use tibpre_engine::ReEncryptEngine;
use tibpre_pairing::DecodeCtx;
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{Durability, EncryptedPhrStore, HealthRecord, ProxyService, RecordId};
use tibpre_wire::{WireDecode, WireEncode};

/// Lockstep calls behind each `client.*` round-trip row.
const LIVE_CALLS: usize = 400;

/// Churn cycles timed when the workload itself has none.
const LIVE_CHURN_CYCLES: usize = 24;

/// Requests replayed in process.
const REPLAY_OPS: usize = 1000;

/// Replayed operations are numbered apart from the generator's.
const REPLAY_FIRST_OP: u64 = 1 << 48;

fn us(began: Instant) -> f64 {
    began.elapsed().as_secs_f64() * 1e6
}

/// Median latency of `calls` lockstep calls of `f`, microseconds.
fn live(calls: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let began = Instant::now();
        f()?;
        samples.push(us(began));
    }
    Ok(median(&samples))
}

pub fn run(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let spec = args.spec;
    let mut ready = run::set_up(spec, &args.out, args.seed)?;
    // Each segment runs a quarter of the measured operations, in whole bursts.
    let burst = spec.connections * spec.pipeline;
    let segment_ops = spec.measured_ops(args.seconds) / 4 / burst * burst;
    let mut rows = Rows::new(Duration::from_millis(2 * args.seconds));
    rows.push(
        "server.node_boot_ms",
        ready.world.boot_ms,
        "ms",
        "tibpre_server::start of kgc, store and proxy together",
    );

    // The workload, untraced then traced, on one node set.
    let plain_plan = run::plan(spec, &ready, spec.warmup_ops, segment_ops);
    let plain = run::segment(&plain_plan, started)?;
    let mut traced_plan = run::plan(spec, &ready, 0, segment_ops);
    traced_plan.traced = Some(Instant::now());
    traced_plan.segment = 1;
    let mut traced = run::segment(&traced_plan, started)?;
    let mut failures = plain.failures;
    failures.merge(&traced.failures);
    let mut attempted = plain.attempted + traced.attempted;

    let plain_windows = plain.windows(TRACE_WINDOWS);
    let plain_p50 = plain_windows.percentile(0.50).median;
    let traced_p50 = traced.windows(TRACE_WINDOWS).percentile(0.50).median;
    rows.push(
        "client.op_p99_us",
        plain_windows.percentile(0.99).median,
        "us",
        &format!(
            "untraced segment, median of {TRACE_WINDOWS} windows, n={}",
            plain_windows.samples()
        ),
    );
    rows.push(
        "wire.bytes_per_op",
        traced.op_bytes as f64 / traced.measured() as f64,
        "B",
        "request + response bytes on the generator's sockets over the traced ops",
    );
    rows.push(
        "phr.rss_growth_b_per_op",
        plain.rss_growth / plain.measured() as f64,
        "B",
        "VmRSS after minus before the untraced segment's measured ops",
    );
    rows.push(
        "trace.overhead_share",
        traced_p50 / plain_p50 - 1.0,
        "ratio",
        &format!("traced op_p50 {traced_p50:.1} us over untraced {plain_p50:.1} us, minus 1"),
    );

    // Round trips against the live nodes.
    let mut churn_us = plain.churn_us.clone();
    live_rows(
        spec,
        &mut ready,
        &mut rows,
        &mut churn_us,
        &mut failures,
        &mut attempted,
    )?;

    // The in-process replay needs the records as the store holds them; then
    // the nodes stop.
    let stored = fetch_records(&ready)?;
    let Ready { world, fixture } = ready;
    let mut recorder = traced
        .recorder
        .take()
        .unwrap_or_else(|| Recorder::new(started));
    match spec.kind {
        Kind::Disclose => world.shutdown(),
        Kind::Upload => {
            let uploaded: Vec<Vec<_>> = plain
                .uploaded
                .iter()
                .zip(&traced.uploaded)
                .map(|(a, b)| a.iter().chain(b).copied().collect())
                .collect();
            let (lost, _) = run::verify_uploads(spec, world, &fixture, &uploaded)?;
            failures.merge(&lost);
        }
    }
    let replay_dir = args.out.join("layers/replay");
    match spec.kind {
        Kind::Disclose => replay_disclosures(spec, &fixture, stored, &replay_dir, &mut recorder),
        Kind::Upload => replay_uploads(spec, &fixture, &replay_dir, &mut recorder),
    }
    .map_err(|e| format!("in-process replay: {e}"))?;

    layers::measure(spec, args.seed, &args.out.join("layers"), &mut rows)?;
    model(spec, &mut rows);

    let layers = trace::self_times(recorder.spans());
    let json = trace::to_json(spec.name, args.seed, recorder.spans(), &layers);
    let path = args.out.join("trace.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# trace: {} spans in {}",
        recorder.spans().len(),
        path.display()
    );
    for (name, layer) in layers {
        println!(
            "# span {name}: n={} total {:.1} us/op self {:.1} us/op",
            layer.count,
            layer.total_ns as f64 / 1e3 / layer.count as f64,
            layer.self_ns as f64 / 1e3 / layer.count as f64
        );
    }

    let mut metrics = rows.into_metrics();
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    report::print_metrics(&metrics);
    let split_ok = check_split(spec, &metrics);
    Ok(crate::finish(attempted, &failures, split_ok, &metrics))
}

/// `client.*` rows: lockstep calls from one thread against the running
/// nodes, and the whole lockstep operation the model is compared with.
fn live_rows(
    spec: &Spec,
    ready: &mut Ready,
    rows: &mut Rows,
    churn_us: &mut Vec<f64>,
    failures: &mut Failures,
    attempted: &mut u64,
) -> Result<(), String> {
    let text = |e: tibpre_client::ClientError| format!("live rows: {e}");
    let config = ClientConfig::default();
    let params = ready.fixture.params.clone();
    let mut store =
        StoreClient::connect(ready.world.store.addr(), &params, &config).map_err(text)?;
    let mut proxy =
        Connection::connect(ready.world.proxy.addr(), &params, &config).map_err(text)?;

    // Patient 0 needs one record and a grant; the upload workload's set-up
    // makes neither.
    if ready.fixture.patients[0].records.is_empty() {
        let fixture = &ready.fixture;
        let patient = &fixture.patients[0];
        let title = "live-record".to_string();
        let plaintext = upload_payload(fixture.seed, 9, 0, spec.payload_len);
        let mut rng = StdRng::seed_from_u64(stream_seed(fixture.seed, stream::FIXTURE, u64::MAX));
        let aad = HealthRecord::associated_data(&patient.identity, &fixture.category, &title);
        let ciphertext = patient.delegator.encrypt_bytes(
            &plaintext,
            &aad,
            &fixture.category.type_tag(),
            &mut rng,
        );
        let id = store
            .put(&patient.identity, &fixture.category, &title, ciphertext)
            .map_err(text)?;
        let grant = patient
            .delegator
            .make_reencryption_key(
                &fixture.provider_id,
                &fixture.domain,
                &fixture.category.type_tag(),
                &mut rng,
            )
            .map_err(|e| format!("live rows: {e}"))?;
        ProxyClient::connect(ready.world.proxy.addr(), &params, &config)
            .and_then(|mut client| client.install_key(grant))
            .map_err(text)?;
        ready.fixture.patients[0]
            .records
            .push(RecordFix { id, plaintext });
    }
    let fixture = &ready.fixture;
    let patient = &fixture.patients[0];
    let record = &patient.records[0];

    let value = live(LIVE_CALLS, || proxy.ping().map(drop).map_err(text))?;
    rows.push(
        "client.ping_rtt_us",
        value,
        "us",
        &live_note("Ping to the proxy node"),
    );
    let value = live(LIVE_CALLS, || store.get(record.id).map(drop).map_err(text))?;
    rows.push(
        "client.store_get_rtt_us",
        value,
        "us",
        &live_note("GetRecord of one hot record"),
    );

    let stored = store.get(record.id).map_err(text)?;
    let mut n = 0;
    let value = live(LIVE_CALLS, || {
        n += 1;
        store
            .put(
                &patient.identity,
                &fixture.category,
                &format!("live-put-{n}"),
                stored.ciphertext.clone(),
            )
            .map(drop)
            .map_err(text)
    })?;
    rows.push(
        "client.put_rtt_us",
        value,
        "us",
        &live_note("PutRecord of an encrypted record"),
    );

    let request = disclose_request(fixture, 0, 0);
    let value = live(LIVE_CALLS, || proxy.call(&request).map(drop).map_err(text))?;
    rows.push(
        "client.disclose_rtt_us",
        value,
        "us",
        &live_note("Disclose of one hot record, not opened"),
    );

    // The whole lockstep operation, checked like a measured one.
    *attempted += LIVE_CALLS as u64;
    let value = match spec.kind {
        Kind::Disclose => live(LIVE_CALLS, || {
            let response = proxy.call(&request).map_err(text)?;
            if let Err(failure) =
                check_disclosure(&fixture.provider, &response, record.id, &record.plaintext)
            {
                failures.record(failure);
            }
            Ok(())
        })?,
        Kind::Upload => {
            let mut rng =
                StdRng::seed_from_u64(stream_seed(fixture.seed, stream::UPLOADS, u64::MAX));
            let mut n = 0;
            live(LIVE_CALLS, || {
                n += 1;
                let title = upload_title(9, n);
                let aad =
                    HealthRecord::associated_data(&patient.identity, &fixture.category, &title);
                let ciphertext = patient.delegator.encrypt_bytes(
                    &record.plaintext,
                    &aad,
                    &fixture.category.type_tag(),
                    &mut rng,
                );
                store
                    .put(&patient.identity, &fixture.category, &title, ciphertext)
                    .map(drop)
                    .map_err(text)
            })?
        }
    };
    rows.push(
        "model.lockstep_op_us",
        value,
        "us",
        &live_note("one whole operation, lockstep, checked"),
    );

    if churn_us.is_empty() {
        let mut link = Link::connect(ready.world.proxy.addr(), fixture, None).map_err(text)?;
        let mut rng = StdRng::seed_from_u64(stream_seed(fixture.seed, stream::CHURN, u64::MAX));
        for _ in 0..LIVE_CHURN_CYCLES {
            *attempted += 1;
            let began = Instant::now();
            match churn_cycle(&mut link, fixture, 0, &mut rng) {
                Ok(()) => churn_us.push(us(began)),
                Err(failure) => failures.record(failure),
            }
        }
    }
    if churn_us.is_empty() {
        return Err("every churn cycle failed".to_string());
    }
    rows.push(
        "client.churn_op_p50_us",
        median(churn_us),
        "us",
        &format!(
            "revoke, probe, Pextract + InstallKey, disclose; median of {} cycles",
            churn_us.len()
        ),
    );
    Ok(())
}

fn live_note(what: &str) -> String {
    format!("{what}; median of {LIVE_CALLS} lockstep calls on the live nodes")
}

/// Every fixture record as the live store holds it, by patient.
fn fetch_records(ready: &Ready) -> Result<Vec<Vec<StoredRecord>>, String> {
    let fixture = &ready.fixture;
    let mut store = StoreClient::connect(
        ready.world.store.addr(),
        &fixture.params,
        &ClientConfig::default(),
    )
    .map_err(|e| format!("fetching the records to replay: {e}"))?;
    fixture
        .patients
        .iter()
        .map(|patient| {
            patient
                .records
                .iter()
                .map(|record| store.get(record.id))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("fetching the records to replay: {e}"))
}

fn ns(began: Instant) -> u64 {
    began.elapsed().as_nanos() as u64
}

/// Replays connection 0's seeded request order through the public functions
/// a proxy node calls, on a store and a proxy like the node's own:
/// `node.op` ⊃ `wire.request_decode`, `phr.disclose`, `wire.bundle_encode`.
///
/// `ProxyService::disclose` is one public call, so its children —
/// `phr.store_get`, `core.preenc`, `phr.audit` — are the same public calls
/// repeated right after it and laid inside its interval.  They run warm: what
/// a cache miss cost stays in the parent's self time.
fn replay_disclosures(
    spec: &Spec,
    fixture: &Fixture,
    stored: Vec<Vec<StoredRecord>>,
    dir: &Path,
    recorder: &mut Recorder,
) -> Result<(), Box<dyn std::error::Error>> {
    let durability = Durability::new(fixture.params.clone());
    let store = Arc::new(if spec.durable {
        EncryptedPhrStore::open(dir.join("store"), durability.clone())?
    } else {
        EncryptedPhrStore::in_memory_with_params("replay", fixture.params.clone())
    });
    let mut proxy = if spec.durable {
        ProxyService::open("replay", store.clone(), dir.join("proxy"), &durability)?
    } else {
        ProxyService::new("replay", store.clone())
    };
    proxy.set_engine(ReEncryptEngine::from_env());
    let mut rng = StdRng::seed_from_u64(stream_seed(fixture.seed, stream::FIXTURE, u64::MAX - 1));
    let mut ids: Vec<Vec<RecordId>> = Vec::with_capacity(stored.len());
    let mut keys = Vec::with_capacity(stored.len());
    for (patient, records) in fixture.patients.iter().zip(stored) {
        ids.push(
            records
                .into_iter()
                .map(|r| store.put(&r.patient, &r.category, &r.title, r.ciphertext))
                .collect(),
        );
        let key = patient.delegator.make_reencryption_key(
            &fixture.provider_id,
            &fixture.domain,
            &fixture.category.type_tag(),
            &mut rng,
        )?;
        proxy.install_key(key.clone());
        keys.push(key);
    }

    let ctx = DecodeCtx::from(&fixture.params);
    let mut picker = Picker::new(spec, fixture.seed, 0);
    for i in 0..REPLAY_OPS {
        let (p, r) = picker.pick(fixture);
        let id = ids[p][r];
        let frame = Request::Disclose {
            patient: fixture.patients[p].identity.clone(),
            id,
            requester: fixture.provider_id.clone(),
        }
        .to_wire_bytes();

        let op = REPLAY_FIRST_OP + i as u64;
        let root = recorder.open("node.op", op, None);
        let request = recorder.span("wire.request_decode", op, Some(root), || {
            Request::from_wire_bytes(&frame, &ctx)
        })?;
        let Request::Disclose {
            patient,
            id,
            requester,
        } = request
        else {
            unreachable!("a Disclose frame decodes to a Disclose request")
        };
        let disclose = recorder.open("phr.disclose", op, Some(root));
        let bundle = proxy.disclose(&patient, id, &requester);
        recorder.close(disclose);
        let bundle = bundle?;
        recorder.span("wire.bundle_encode", op, Some(root), || {
            black_box(Response::Bundle(Box::new(bundle)).to_wire_bytes())
        });
        recorder.close(root);

        let began = Instant::now();
        let record = store.get(id)?;
        let get_ns = ns(began);
        let began = Instant::now();
        black_box(hybrid::re_encrypt_hybrid(&record.ciphertext, &keys[p])?);
        let preenc_ns = ns(began);
        let began = Instant::now();
        store.log_disclosure(id, &requester, true);
        let audit_ns = ns(began);
        let at = recorder.lay_inside("phr.store_get", disclose, 0, get_ns);
        let at = recorder.lay_inside("core.preenc", disclose, at, preenc_ns);
        recorder.lay_inside("phr.audit", disclose, at, audit_ns);
    }
    Ok(())
}

/// The upload workload's replay: `node.op` ⊃ `wire.request_decode`,
/// `phr.store_put`, `wire.response_encode`, on a durable store.
fn replay_uploads(
    spec: &Spec,
    fixture: &Fixture,
    dir: &Path,
    recorder: &mut Recorder,
) -> Result<(), Box<dyn std::error::Error>> {
    let store =
        EncryptedPhrStore::open(dir.join("store"), Durability::new(fixture.params.clone()))?;
    let ctx = DecodeCtx::from(&fixture.params);
    let mut rng = StdRng::seed_from_u64(stream_seed(fixture.seed, stream::UPLOADS, u64::MAX - 1));
    let share = spec.owned(0);
    for i in 0..REPLAY_OPS {
        let patient = &fixture.patients[share.start + i % share.len()];
        let title = upload_title(0, i as u64);
        let payload = upload_payload(fixture.seed, 0, i as u64, spec.payload_len);
        let aad = HealthRecord::associated_data(&patient.identity, &fixture.category, &title);
        let frame = Request::PutRecord {
            patient: patient.identity.clone(),
            category: fixture.category.clone(),
            title,
            ciphertext: Box::new(patient.delegator.encrypt_bytes(
                &payload,
                &aad,
                &fixture.category.type_tag(),
                &mut rng,
            )),
        }
        .to_wire_bytes();

        let op = REPLAY_FIRST_OP + i as u64;
        let root = recorder.open("node.op", op, None);
        let request = recorder.span("wire.request_decode", op, Some(root), || {
            Request::from_wire_bytes(&frame, &ctx)
        })?;
        let Request::PutRecord {
            patient,
            category,
            title,
            ciphertext,
        } = request
        else {
            unreachable!("a PutRecord frame decodes to a PutRecord request")
        };
        let id = recorder.span("phr.store_put", op, Some(root), || {
            store.put(&patient, &category, &title, *ciphertext)
        });
        recorder.span("wire.response_encode", op, Some(root), || {
            black_box(Response::RecordId(id).to_wire_bytes())
        });
        recorder.close(root);
    }
    Ok(())
}

/// Sums the layer costs of one lockstep operation and compares the sum with
/// the operation as measured on the live nodes: ROADMAP aim 1's residual.
fn model(spec: &Spec, rows: &mut Rows) {
    let g = |name: &str| rows.get(name);
    let aead = g("symmetric.aead_us_per_kib") * spec.payload_len as f64 / 1024.0;
    let frame = g("wire.frame_roundtrip_us");
    // Decoding a message is mostly decompressing its group elements, which
    // is the pairing crate's work: a ciphertext holds one G1 and one Gt
    // element, a bundle two of each.
    let element_pair = g("pairing.g1_decode_us") + g("pairing.gt_decode_us");
    let (explained, crypto, terms) = match spec.kind {
        Kind::Disclose => (
            // Client to proxy and back; the proxy's GetRecord and
            // LogDisclosure calls to the store node; the record crossing
            // that hop; the disclosure itself; the bundle; the open.
            3.0 * frame
                + g("wire.request_decode_us")
                + g("wire.record_encode_us")
                + g("wire.record_decode_us")
                + g("phr.disclose_inproc_us")
                + g("wire.bundle_encode_us")
                + g("wire.bundle_decode_us")
                + g("core.open_hot_us"),
            g("core.preenc_us") + g("core.open_hot_us") - aead + 3.0 * element_pair,
            "3 frame_roundtrip + request_decode + record_encode + record_decode + \
             disclose_inproc + bundle_encode + bundle_decode + open_hot",
        ),
        Kind::Upload => {
            // The store has never seen a fresh record's `c1`: its decode
            // pays the full subgroup check where `record_decode` hit the memo.
            let fresh_point =
                g("pairing.subgroup_check_miss_us") - g("pairing.subgroup_check_hit_us");
            (
                g("core.encrypt_us")
                    + g("wire.record_encode_us")
                    + frame
                    + g("wire.record_decode_us")
                    + fresh_point
                    + g("phr.store_put_us"),
                g("core.encrypt_us") - aead + element_pair + fresh_point,
                "encrypt + record_encode + frame_roundtrip + record_decode + \
                 (subgroup_check_miss - subgroup_check_hit) + store_put",
            )
        }
    };
    let measured = g("model.lockstep_op_us");
    let server_self = g("client.disclose_rtt_us")
        - (g("wire.request_decode_us")
            + g("phr.disclose_inproc_us")
            + g("wire.bundle_encode_us")
            + frame);
    rows.push(
        "server.self_us",
        server_self,
        "us",
        "client.disclose_rtt_us - (request_decode + disclose_inproc + bundle_encode + \
         frame_roundtrip): hand-offs, scheduler, store hop and syscalls of the node layer",
    );
    rows.push("model.explained_us", explained, "us", terms);
    rows.push(
        "model.unexplained_us",
        measured - explained,
        "us",
        "model.lockstep_op_us - model.explained_us",
    );
    rows.push(
        "model.unexplained_share",
        (measured - explained) / measured,
        "ratio",
        "of model.lockstep_op_us",
    );
    rows.push(
        "model.crypto_share",
        crypto / explained,
        "ratio",
        "core rows (AEAD taken out) and group-element decoding, over model.explained_us",
    );
    rows.push(
        "model.crypto_share_of_op",
        crypto / measured,
        "ratio",
        "the same, over model.lockstep_op_us: the residual is nobody's crypto",
    );
}

/// The workloads were chosen to stress different layers; a run in which they
/// no longer do fails, so that the workload is resized, not the claim dropped.
fn check_split(spec: &Spec, metrics: &[Metric]) -> bool {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let (figure, ok, want) = match spec.split {
        Split::CryptoShareAtLeast(min) => {
            let share = value("model.crypto_share");
            (share, share >= min, format!("model.crypto_share >= {min}"))
        }
        Split::CryptoShareOfOpAtMost(max) => {
            let share = value("model.crypto_share_of_op");
            (
                share,
                share <= max,
                format!("model.crypto_share_of_op <= {max}"),
            )
        }
        Split::Unconstrained => (
            value("model.crypto_share"),
            true,
            "not constrained".to_string(),
        ),
    };
    println!(
        "# split: {figure:.3} on {} (required: {want}): {}",
        spec.name,
        if ok { "ok" } else { "FAILED" }
    );
    ok
}
