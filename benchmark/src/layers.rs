//! Per-layer micro rows: each crate's public functions, timed from outside
//! at the workload's security level.  Every timed row is the median of
//! [`BATCHES`] batches, each batch long enough to dwarf the clock.
//!
//! The rows are informational: they have no bound.  What each should move
//! end to end is written in `README.md`.

use crate::host;
use crate::report::Metric;
use crate::stats::median;
use crate::workload::Spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tibpre_bigint::random::random_below;
use tibpre_bigint::{MontCtx, WideAcc};
use tibpre_client::{params_for_level, Request, Response};
use tibpre_core::{hybrid, Delegator, HybridCiphertext};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::pairing::final_exponentiation;
use tibpre_pairing::wire::decode_g1_in_subgroup;
use tibpre_pairing::{multi_pairing, DecodeCtx, Fp, Fp2, G1Affine, Gt, PairingParams};
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{
    Category, Durability, EncryptedPhrStore, HealthRecord, HealthcareProvider, ProxyService,
    RecordId,
};
use tibpre_storage::{FsyncPolicy, WalWriter};
use tibpre_symmetric::AeadKey;
use tibpre_wire::{
    encode_bare, read_frame, write_frame, Reader, WireDecode, WireEncode, WireVersion,
};

const BATCHES: usize = 5;

/// Items of every "per item" batch row; the proxy's default `batch_max`.
const BATCH_ITEMS: usize = 16;

/// Records of the store the `storage.*` and `phr.store_*` rows run on: twice
/// what the decoded-record LRU holds (64 × 16 shards), so a scan always
/// misses, and eight snapshot cycles per shard.
const STORE_RECORDS: usize = 2048;

/// The rows measured so far, by name.
pub struct Rows {
    rows: Vec<Metric>,
    /// Shortest time one batch may take.
    batch: Duration,
}

impl Rows {
    pub fn new(batch: Duration) -> Self {
        Rows {
            rows: Vec::new(),
            batch,
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.rows.push(Metric::plain(name, value, unit, note));
    }

    /// The value of a row measured earlier.
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("row {name} has not been measured"))
            .value
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.rows
    }

    /// Seconds per call of `f`: the median of [`BATCHES`] batches of as many
    /// calls as fill the batch time.  The call count is found by running
    /// growing probes, so that a slow first call does not shorten the batches.
    fn seconds_per_call(&self, mut f: impl FnMut()) -> (f64, usize) {
        let mut run = |calls: usize| {
            let began = Instant::now();
            for _ in 0..calls {
                f();
            }
            began.elapsed().as_secs_f64()
        };
        let target = self.batch.as_secs_f64();
        let mut calls = 1;
        let calls = loop {
            let took = run(calls).max(1e-9);
            if took >= target / 8.0 || calls >= 1 << 24 {
                break ((calls as f64 * target / took).ceil() as usize).clamp(1, 1 << 26);
            }
            calls *= 4;
        };
        let per_call: Vec<f64> = (0..BATCHES).map(|_| run(calls) / calls as f64).collect();
        (median(&per_call), calls)
    }

    /// Times `f` and records it under `name` in `unit` (`ns`, `us` or `ms`);
    /// `per` divides a batched call into its items.
    fn time(&mut self, name: &str, unit: &'static str, per: usize, f: impl FnMut()) -> f64 {
        let (seconds, calls) = self.seconds_per_call(f);
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => panic!("no time unit {other}"),
        };
        let value = seconds * scale / per as f64;
        let note = format!("median of {BATCHES} batches x {calls} calls");
        self.push(name, value, unit, &note);
        value
    }
}

/// Scheme objects every crypto and wire row shares.
struct Cast {
    params: Arc<PairingParams>,
    ctx: DecodeCtx,
    kgc: Kgc,
    patient: Identity,
    doctor: Identity,
    category: Category,
    delegator: Delegator,
    rng: StdRng,
}

impl Cast {
    fn new(spec: &Spec, seed: u64) -> Self {
        let params = params_for_level(spec.level);
        let mut rng = StdRng::seed_from_u64(seed);
        let kgc = Kgc::setup(params.clone(), "layers", &mut rng);
        let patient = Identity::new("layers-patient");
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&patient));
        Cast {
            ctx: DecodeCtx::from(&params),
            params,
            kgc,
            patient,
            doctor: Identity::new("layers-doctor"),
            category: Category::LabResults,
            delegator,
            rng,
        }
    }

    fn encrypt(&mut self, title: &str, payload: &[u8]) -> HybridCiphertext {
        let aad = HealthRecord::associated_data(&self.patient, &self.category, title);
        self.delegator
            .encrypt_bytes(payload, &aad, &self.category.type_tag(), &mut self.rng)
    }
}

/// Measures every micro row.  Durable rows keep their files under `dir`.
pub fn measure(spec: &Spec, seed: u64, dir: &Path, rows: &mut Rows) -> Result<(), String> {
    let mut cast = Cast::new(spec, seed);
    bigint(&mut cast, rows);
    pairing(&mut cast, rows);
    scheme(spec, &mut cast, rows);
    wire(spec, &mut cast, rows)?;
    storage_and_phr(spec, &mut cast, dir, rows).map_err(|e| format!("storage rows: {e}"))
}

fn bigint(cast: &mut Cast, rows: &mut Rows) {
    let p = cast.params.p();
    let mont = MontCtx::new(p).expect("the field prime is odd");
    let mut a = mont.to_mont(&random_below(&mut cast.rng, p));
    let b = mont.to_mont(&random_below(&mut cast.rng, p));
    rows.time("bigint.mont_mul_ns", "ns", 1, || {
        a = mont.mont_mul(black_box(&a), black_box(&b));
    });
    rows.time("bigint.mont_sqr_ns", "ns", 1, || {
        a = mont.mont_sqr(black_box(&a));
    });
    let mut wide = WideAcc::zero();
    wide.accumulate(&a, &b, mont.nlimbs());
    wide.accumulate(&b, &b, mont.nlimbs());
    rows.time("bigint.mont_reduce_wide_ns", "ns", 1, || {
        black_box(mont.mont_reduce_wide(black_box(wide.clone()), 2));
    });
    rows.time("bigint.mont_inv_us", "us", 1, || {
        a = mont.mont_inv(black_box(&a)).expect("a non-zero residue");
    });
}

fn pairing(cast: &mut Cast, rows: &mut Rows) {
    let params = cast.params.clone();
    let fp = params.fp_ctx();
    let mut x = Fp::random(fp, &mut cast.rng);
    let y = Fp::random(fp, &mut cast.rng);
    let fp_mul = rows.time("pairing.fp_mul_ns", "ns", 1, || {
        x = black_box(&x).mul(black_box(&y));
    });
    rows.time("pairing.fp_invert_us", "us", 1, || {
        x = black_box(&x).invert().expect("a non-zero element");
    });
    let mont_mul = rows.get("bigint.mont_mul_ns");
    rows.push(
        "pairing.fp_over_mont_ratio",
        fp_mul / mont_mul,
        "ratio",
        "pairing.fp_mul_ns / bigint.mont_mul_ns: what the Fp wrapper adds",
    );
    let mut u = Fp2::random(fp, &mut cast.rng);
    let v = Fp2::random(fp, &mut cast.rng);
    rows.time("pairing.fp2_mul_ns", "ns", 1, || {
        u = black_box(&u).mul(black_box(&v));
    });
    rows.time("pairing.fp2_square_ns", "ns", 1, || {
        u = black_box(&u).square();
    });
    rows.push(
        "pairing.g1_affine_bytes",
        std::mem::size_of::<G1Affine>() as f64,
        "B",
        "size_of::<G1Affine>()",
    );

    let fixed = params.random_g1(&mut cast.rng);
    let moving = params.random_g1(&mut cast.rng);
    let prepared = params.prepare(&fixed);
    rows.time("pairing.miller_prepared_us", "us", 1, || {
        black_box(prepared.miller_loop(black_box(&moving)));
    });
    let unreduced = prepared.miller_loop(&moving);
    rows.time("pairing.final_exp_us", "us", 1, || {
        black_box(final_exponentiation(
            black_box(&unreduced),
            params.cofactor(),
        ))
        .expect("a Miller-loop value is invertible");
    });
    rows.time("pairing.pairing_prepared_us", "us", 1, || {
        black_box(prepared.pairing(black_box(&moving)));
    });
    rows.time("pairing.pairing_naive_us", "us", 1, || {
        black_box(params.pairing(black_box(&moving), black_box(&fixed)));
    });
    let points: Vec<G1Affine> = (0..BATCH_ITEMS)
        .map(|_| params.random_g1(&mut cast.rng))
        .collect();
    let tables: Vec<_> = points.iter().map(|p| params.prepare(p)).collect();
    let pairs: Vec<_> = tables.iter().zip(&points).collect();
    rows.time(
        "pairing.multi_pairing_per_pair_us",
        "us",
        BATCH_ITEMS,
        || {
            black_box(multi_pairing(black_box(&pairs)));
        },
    );
    let refs: Vec<&G1Affine> = points.iter().collect();
    rows.time(
        "pairing.pairing_batch_per_item_us",
        "us",
        BATCH_ITEMS,
        || {
            black_box(prepared.pairing_batch(black_box(&refs)));
        },
    );
    rows.time("pairing.prepare_us", "us", 1, || {
        black_box(params.prepare(black_box(&fixed)));
    });
    let mut counter = 0u64;
    rows.time("pairing.hash_to_g1_us", "us", 1, || {
        counter += 1;
        black_box(params.hash_to_g1("TIBPRE-BF-H1", &[&counter.to_be_bytes()]))
            .expect("hash-to-curve finds a point");
    });

    // The boundary check of an attacker-controlled point: a miss decodes and
    // multiplies by q, a hit finds the exact encoding in the memo.
    let encoded = encode_bare(&moving, WireVersion::DEFAULT);
    let version = WireVersion::DEFAULT;
    rows.time("pairing.subgroup_check_miss_us", "us", 1, || {
        let mut r = Reader::with_version(black_box(&encoded), version);
        let point = G1Affine::decode(&mut r, params.fp_ctx()).expect("a valid point");
        assert!(black_box(point.is_in_subgroup(params.q())));
    });
    rows.time("pairing.subgroup_check_hit_us", "us", 1, || {
        let mut r = Reader::with_version(black_box(&encoded), version);
        black_box(decode_g1_in_subgroup(&mut r, &cast.ctx, "point")).expect("a valid point");
    });

    // Decompressing one group element: a square root in Fp each.  Every
    // `wire.*_decode_us` row is mostly this.
    rows.time("pairing.g1_decode_us", "us", 1, || {
        let mut r = Reader::with_version(black_box(&encoded), version);
        black_box(G1Affine::decode(&mut r, params.fp_ctx())).expect("a valid point");
    });
    let gt = encode_bare(&params.random_gt(&mut cast.rng), version);
    rows.time("pairing.gt_decode_us", "us", 1, || {
        let mut r = Reader::with_version(black_box(&gt), version);
        black_box(Gt::decode(&mut r, params.fp_ctx())).expect("a valid target-group element");
    });

    let k = params.random_nonzero_scalar(&mut cast.rng);
    rows.time("pairing.g1_mul_fixed_us", "us", 1, || {
        black_box(params.mul_generator(black_box(&k)));
    });
    rows.time("pairing.g1_mul_var_us", "us", 1, || {
        black_box(moving.mul_scalar(black_box(&k)));
    });
}

/// `ibe`, `core`, `symmetric` and `engine` rows.
fn scheme(spec: &Spec, cast: &mut Cast, rows: &mut Rows) {
    let mut n = 0u64;
    let kgc = &cast.kgc;
    rows.time("ibe.extract_us", "us", 1, || {
        n += 1;
        black_box(kgc.extract(&Identity::new(format!("user-{n}"))));
    });

    let payload = vec![0x5au8; spec.payload_len];
    let title = "layers-record";
    let aad = HealthRecord::associated_data(&cast.patient, &cast.category, title);
    let tag = cast.category.type_tag();
    let (delegator, domain, doctor) = (&cast.delegator, cast.kgc.public_params(), &cast.doctor);
    let rng = &mut cast.rng;
    rows.time("core.encrypt_us", "us", 1, || {
        black_box(delegator.encrypt_bytes(black_box(&payload), &aad, &tag, rng));
    });
    rows.time("core.pextract_us", "us", 1, || {
        black_box(delegator.make_reencryption_key(doctor, domain, &tag, rng))
            .expect("one domain, one parameter set");
    });
    let rekey = delegator
        .make_reencryption_key(doctor, domain, &tag, rng)
        .expect("one domain, one parameter set");
    let ciphertext = delegator.encrypt_bytes(&payload, &aad, &tag, rng);
    rows.time("core.preenc_us", "us", 1, || {
        black_box(hybrid::re_encrypt_hybrid(black_box(&ciphertext), &rekey))
            .expect("the key's type matches");
    });
    let burst: Vec<HybridCiphertext> = (0..BATCH_ITEMS)
        .map(|_| delegator.encrypt_bytes(&payload, &aad, &tag, rng))
        .collect();
    let sequential = rows.time("core.preenc_batch_per_item_us", "us", BATCH_ITEMS, || {
        black_box(hybrid::re_encrypt_hybrid_batch(black_box(&burst), &rekey))
            .expect("the key's type matches");
    });

    let bundle = tibpre_phr::proxy_service::DisclosureBundle {
        id: RecordId(1),
        patient: cast.patient.clone(),
        category: cast.category.clone(),
        title: title.to_string(),
        ciphertext: hybrid::re_encrypt_hybrid(&ciphertext, &rekey).expect("the key's type matches"),
    };
    let doctor_key = cast.kgc.extract(doctor);
    let provider = HealthcareProvider::new(doctor_key.clone());
    rows.time("core.open_hot_us", "us", 1, || {
        black_box(provider.open(black_box(&bundle))).expect("an entitled bundle opens");
    });
    rows.time("core.open_cold_us", "us", 1, || {
        // A provider that has not seen this key yet: the mask is recovered
        // (IBE decrypt, hash to the curve, Miller tabulation) before use.
        let fresh = HealthcareProvider::new(doctor_key.clone());
        black_box(fresh.open(black_box(&bundle))).expect("an entitled bundle opens");
    });
    rows.time("core.decrypt_owner_us", "us", 1, || {
        black_box(delegator.decrypt_bytes(black_box(&ciphertext), &aad))
            .expect("the owner decrypts");
    });

    let key = AeadKey::derive(b"layers", "benchmark");
    let sealed = key.seal(rng, &payload, &aad);
    let (open_s, calls) = rows.seconds_per_call(|| {
        black_box(key.open(black_box(&sealed), &aad)).expect("the tag verifies");
    });
    rows.push(
        "symmetric.aead_us_per_kib",
        open_s * 1e6 * 1024.0 / spec.payload_len as f64,
        "us",
        &format!(
            "AEAD open of {} B, per KiB; median of {BATCHES} batches x {calls} calls",
            spec.payload_len
        ),
    );

    // The engine as a node builds it: one worker per core.
    let engine = ReEncryptEngine::from_env();
    let with_fanout = rows.seconds_per_call(|| {
        black_box(engine.par_map_chunks(BATCH_ITEMS, |range| vec![0u8; range.len()]));
    });
    let without = rows.seconds_per_call(|| {
        black_box(
            ReEncryptEngine::sequential()
                .par_map_chunks(BATCH_ITEMS, |range| vec![0u8; range.len()]),
        );
    });
    rows.push(
        "engine.fanout_overhead_us",
        (with_fanout.0 - without.0) * 1e6,
        "us",
        &format!(
            "empty {BATCH_ITEMS}-item batch over {} workers minus the same on one",
            engine.workers()
        ),
    );
    let (parallel, _) = rows.seconds_per_call(|| {
        black_box(engine.re_encrypt_hybrid_batch(black_box(&burst), &rekey))
            .expect("the key's type matches");
    });
    rows.push(
        "engine.batch16_speedup",
        sequential / (parallel * 1e6 / BATCH_ITEMS as f64),
        "ratio",
        &format!(
            "core.preenc_batch_per_item_us / the same batch through {} engine workers",
            engine.workers()
        ),
    );
}

fn wire(spec: &Spec, cast: &mut Cast, rows: &mut Rows) -> Result<(), String> {
    let payload = vec![0xa5u8; spec.payload_len];
    let title = "layers-record";
    let ciphertext = cast.encrypt(title, &payload);
    let rekey = cast
        .delegator
        .make_reencryption_key(
            &cast.doctor,
            cast.kgc.public_params(),
            &cast.category.type_tag(),
            &mut cast.rng,
        )
        .expect("one domain, one parameter set");
    let request = Request::Disclose {
        patient: cast.patient.clone(),
        id: RecordId(1),
        requester: cast.doctor.clone(),
    }
    .to_wire_bytes();
    let ctx = &cast.ctx;
    rows.time("wire.request_decode_us", "us", 1, || {
        black_box(Request::from_wire_bytes(black_box(&request), ctx)).expect("a valid request");
    });
    let bundle = Response::Bundle(Box::new(tibpre_phr::proxy_service::DisclosureBundle {
        id: RecordId(1),
        patient: cast.patient.clone(),
        category: cast.category.clone(),
        title: title.to_string(),
        ciphertext: hybrid::re_encrypt_hybrid(&ciphertext, &rekey).expect("the key's type matches"),
    }));
    rows.time("wire.bundle_encode_us", "us", 1, || {
        black_box(black_box(&bundle).to_wire_bytes());
    });
    let bundle_bytes = bundle.to_wire_bytes();
    rows.time("wire.bundle_decode_us", "us", 1, || {
        black_box(Response::from_wire_bytes(black_box(&bundle_bytes), ctx))
            .expect("a valid bundle");
    });
    let record = Response::Record(Box::new(StoredRecord {
        id: RecordId(1),
        patient: cast.patient.clone(),
        category: cast.category.clone(),
        title: title.to_string(),
        ciphertext,
    }));
    rows.time("wire.record_encode_us", "us", 1, || {
        black_box(black_box(&record).to_wire_bytes());
    });
    let record_bytes = record.to_wire_bytes();
    rows.time("wire.record_decode_us", "us", 1, || {
        black_box(Response::from_wire_bytes(black_box(&record_bytes), ctx))
            .expect("a valid record");
    });
    frame_roundtrip(&request, &bundle_bytes, rows).map_err(|e| format!("frame echo: {e}"))
}

/// One request-sized frame out and one bundle-sized frame back over
/// loopback TCP, against a thread that answers without looking: the
/// syscalls and wake-ups under every request, with no node behind them.
fn frame_roundtrip(request: &[u8], reply: &[u8], rows: &mut Rows) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            while let Ok(Some(_)) = read_frame(&mut reader, usize::MAX) {
                let mut out = Vec::with_capacity(reply.len() + 4);
                write_frame(&mut out, reply, usize::MAX).map_err(std::io::Error::other)?;
                stream.write_all(&out)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut failed = None;
        rows.time("wire.frame_roundtrip_us", "us", 1, || {
            let mut out = Vec::with_capacity(request.len() + 4);
            let sent = write_frame(&mut out, request, usize::MAX)
                .map_err(std::io::Error::other)
                .and_then(|()| stream.write_all(&out));
            match sent
                .and_then(|()| read_frame(&mut reader, usize::MAX).map_err(std::io::Error::other))
            {
                Ok(Some(_)) => {}
                Ok(None) => failed = Some(std::io::ErrorKind::UnexpectedEof.into()),
                Err(e) => failed = Some(e),
            }
        });
        drop(reader);
        stream.shutdown(std::net::Shutdown::Both)?;
        echo.join().expect("the echo thread panicked")?;
        failed.map_or(Ok(()), Err)
    })
}

fn storage_and_phr(
    spec: &Spec,
    cast: &mut Cast,
    dir: &Path,
    rows: &mut Rows,
) -> Result<(), Box<dyn std::error::Error>> {
    let payload = vec![0x3cu8; spec.payload_len];
    let ciphertext = cast.encrypt("layers-record", &payload);
    let frame = tibpre_phr::durable::WalOp::encode_put(
        &StoredRecord {
            id: RecordId(1),
            patient: cast.patient.clone(),
            category: cast.category.clone(),
            title: "layers-record".to_string(),
            ciphertext: ciphertext.clone(),
        },
        1,
    );

    // One record-sized frame appended and committed at the default policy.
    std::fs::create_dir_all(dir)?;
    let mut wal = WalWriter::open(&dir.join("row.wal"), 0, FsyncPolicy::from_env())?;
    let mut io_failed = None;
    rows.time("storage.wal_append_commit_us", "us", 1, || {
        wal.append(black_box(&frame));
        if let Err(e) = wal.commit() {
            io_failed = Some(e);
        }
    });
    drop(wal);
    if let Some(e) = io_failed {
        return Err(e.into());
    }

    // A durable store filled with a fixed number of records: bytes on disk
    // per put are exact, snapshots and segment GC included.
    let store_dir = dir.join("store");
    let durability = || Durability::new(cast.params.clone());
    let durable_store = EncryptedPhrStore::open(&store_dir, durability())?;
    let category = cast.category.clone();
    let patient = cast.patient.clone();
    let fill = |store: &EncryptedPhrStore| -> Vec<RecordId> {
        (0..STORE_RECORDS)
            .map(|i| store.put(&patient, &category, &format!("r{i}"), ciphertext.clone()))
            .collect()
    };
    let began = Instant::now();
    let durable_ids = fill(&durable_store);
    let durable_put_us = began.elapsed().as_secs_f64() * 1e6 / STORE_RECORDS as f64;
    durable_store.sync()?;
    rows.push(
        "storage.disk_bytes_per_put",
        host::dir_bytes(&store_dir) as f64 / STORE_RECORDS as f64,
        "B",
        &format!(
            "data-dir bytes after {STORE_RECORDS} puts of {} B at the default snapshot cadence",
            spec.payload_len
        ),
    );
    let mut snapshot_failed = None;
    rows.time("storage.snapshot_write_ms", "ms", 1, || {
        if let Err(e) = durable_store.force_snapshot() {
            snapshot_failed = Some(e);
        }
    });
    if let Some(e) = snapshot_failed {
        return Err(e.into());
    }
    drop(durable_store);
    let mut reopened = None;
    let mut reopen_failed = None;
    rows.time("storage.reopen_ms", "ms", 1, || {
        reopened = None; // release the directory lock before opening again
        match EncryptedPhrStore::open(&store_dir, durability()) {
            Ok(store) => reopened = Some(store),
            Err(e) => reopen_failed = Some(e),
        }
    });
    if let Some(e) = reopen_failed {
        return Err(e.into());
    }
    let durable_store = reopened.expect("the last reopen succeeded");
    if durable_store.record_count() != STORE_RECORDS {
        return Err("the reopened store lost records".into());
    }

    // The `phr` rows run on a store like the workload's: durable or not.
    let (store, ids) = if spec.durable {
        rows.push(
            "phr.store_put_us",
            durable_put_us,
            "us",
            &format!("mean of {STORE_RECORDS} durable puts (WAL append, fsync, snapshots)"),
        );
        (Arc::new(durable_store), durable_ids)
    } else {
        drop(durable_store);
        // A fixed fill of a fresh store each time, so the store stays small.
        let mut filled = None;
        let fills: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let store = EncryptedPhrStore::in_memory_with_params("layers", cast.params.clone());
                let began = Instant::now();
                let ids = fill(&store);
                let took = began.elapsed().as_secs_f64() * 1e6 / STORE_RECORDS as f64;
                filled = Some((Arc::new(store), ids));
                took
            })
            .collect();
        rows.push(
            "phr.store_put_us",
            median(&fills),
            "us",
            &format!("median of {BATCHES} fills of {STORE_RECORDS} in-memory puts"),
        );
        filled.expect("at least one fill")
    };
    let hot = ids[0];
    rows.time("phr.store_get_hot_ns", "ns", 1, || {
        black_box(store.get(black_box(hot))).expect("the record exists");
    });
    // A scan over twice the LRU's capacity: every get decodes.
    let mut next = 0;
    rows.time("phr.store_get_cold_us", "us", 1, || {
        next = (next + 1) % ids.len();
        black_box(store.get(black_box(ids[next]))).expect("the record exists");
    });

    let mut proxy = if spec.durable {
        ProxyService::open("layers", store.clone(), dir.join("proxy"), &durability())?
    } else {
        ProxyService::new("layers", store.clone())
    };
    proxy.set_engine(ReEncryptEngine::from_env());
    let rekey = cast
        .delegator
        .make_reencryption_key(
            &cast.doctor,
            cast.kgc.public_params(),
            &category.type_tag(),
            &mut cast.rng,
        )
        .expect("one domain, one parameter set");
    let doctor = cast.doctor.clone();
    let install = rows.time("phr.install_key_us", "us", 1, || {
        proxy.install_key(black_box(rekey.clone()));
    });
    let (cycle, calls) = rows.seconds_per_call(|| {
        proxy.install_key(black_box(rekey.clone()));
        assert!(proxy.revoke_key(&patient, &category, &doctor));
    });
    rows.push(
        "phr.revoke_key_us",
        cycle * 1e6 - install,
        "us",
        &format!("install + revoke minus phr.install_key_us, median of {BATCHES} batches x {calls} calls"),
    );
    proxy.install_key(rekey);
    rows.time("phr.disclose_inproc_us", "us", 1, || {
        black_box(proxy.disclose(&patient, black_box(hot), &doctor)).expect("a granted disclosure");
    });
    let items: Vec<_> = ids[..BATCH_ITEMS]
        .iter()
        .map(|id| (patient.clone(), *id, doctor.clone()))
        .collect();
    rows.time("phr.disclose_batch_per_item_us", "us", BATCH_ITEMS, || {
        for outcome in black_box(proxy.disclose_batch(black_box(&items))) {
            outcome.expect("a granted disclosure");
        }
    });
    Ok(())
}
