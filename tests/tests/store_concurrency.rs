//! Interleaving tests for the sharded `EncryptedPhrStore`: proptest drives a
//! randomised schedule of concurrent `put` / `get` / `delete` across several
//! threads and shard counts, then checks that every per-record history is
//! linearizable and that the merged audit trail is consistent.
//!
//! Per-record linearizability here means: a record is owned by the thread
//! that stored it, and from that thread's point of view `put → get → delete →
//! get` behaves exactly as it would on a single-threaded store, no matter
//! what the other threads do to *their* records on the same shards.  Records
//! are never shared between writer threads (the store's API already makes
//! cross-patient writes impossible), so this owner's-eye view plus the global
//! invariants below is the full linearizability statement for the store.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{Delegator, HybridCiphertext, TypeTag};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::audit::AuditEvent;
use tibpre_phr::category::Category;
use tibpre_phr::durable::Durability;
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_phr::{FsyncPolicy, PhrError};
use tibpre_storage::TempDir;

/// The store under test: in-memory by default; a durable store in a fresh
/// tempdir when `TIBPRE_DURABLE=1` (the CI recovery job sets it), so the
/// same interleaving schedules also exercise the per-shard WAL handles and
/// the snapshot path under write contention.
fn store_under_test(shards: usize) -> (Arc<EncryptedPhrStore>, Option<TempDir>) {
    if std::env::var("TIBPRE_DURABLE").as_deref() == Ok("1") {
        let tmp = TempDir::new("store-concurrency").unwrap();
        let store = EncryptedPhrStore::open(tmp.path().join("db"), durable_config(shards))
            .expect("open durable store");
        (Arc::new(store), Some(tmp))
    } else {
        (
            Arc::new(EncryptedPhrStore::with_shards_and_params(
                "db",
                shards,
                PairingParams::insecure_toy(),
            )),
            None,
        )
    }
}

/// Durable configuration for the concurrency schedules: no fsync (speed) and
/// an aggressive snapshot cadence so snapshots happen *during* the race.
fn durable_config(shards: usize) -> Durability {
    Durability::new(PairingParams::insecure_toy())
        .shards(shards)
        .fsync(FsyncPolicy::Never)
        .snapshot_every(16)
}

fn sample_ciphertext(seed: u64) -> HybridCiphertext {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(seed);
    let kgc = Kgc::setup(params, "kgc", &mut rng);
    let delegator = Delegator::new(
        kgc.public_params().clone(),
        kgc.extract(&Identity::new("alice")),
    );
    delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut rng)
}

/// One thread's deterministic workload: `puts` records, reads each back
/// immediately and again at the end, deletes those whose index satisfies the
/// mask, and asserts the single-threaded outcome of every step.
fn run_owner_thread(
    store: &EncryptedPhrStore,
    thread_id: u64,
    puts: usize,
    delete_mask: u64,
    ciphertext: &HybridCiphertext,
) -> (usize, usize) {
    let patient = Identity::new(format!("patient-{thread_id}"));
    let categories = [Category::Emergency, Category::LabResults];
    let mut kept = Vec::new();
    let mut deleted = 0usize;
    for i in 0..puts {
        let title = format!("t{thread_id}-r{i}");
        let id = store.put(
            &patient,
            &categories[i % categories.len()],
            &title,
            ciphertext.clone(),
        );
        // Linearizability, owner's view: the record is immediately visible.
        let fetched = store.get(id).expect("own record visible after put");
        assert_eq!(fetched.title, title);
        assert_eq!(&fetched.patient, &patient);
        if delete_mask >> (i % 64) & 1 == 1 {
            // A foreign requester must be rejected without deleting.
            assert!(matches!(
                store.delete(id, &Identity::new("intruder")),
                Err(PhrError::AccessDenied { .. })
            ));
            store.delete(id, &patient).expect("owner delete succeeds");
            assert!(matches!(store.get(id), Err(PhrError::RecordNotFound)));
            // Double delete is cleanly reported.
            assert!(matches!(
                store.delete(id, &patient),
                Err(PhrError::RecordNotFound)
            ));
            deleted += 1;
        } else {
            kept.push(id);
        }
    }
    // Every kept record is still there, exactly once, in id order.
    assert_eq!(store.list_for_patient(&patient), kept);
    for &id in &kept {
        assert!(store.get(id).is_ok());
    }
    (kept.len(), deleted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent owner threads on a shared store: every thread observes
    /// single-threaded semantics for its own records, and the store's global
    /// counters and merged audit trail add up afterwards.
    #[test]
    fn concurrent_put_get_delete_is_per_record_linearizable(
        threads in 2usize..5,
        puts in 1usize..20,
        delete_mask in any::<u64>(),
        shards in 1usize..9,
    ) {
        let (store, tmp) = store_under_test(shards);
        let ciphertext = sample_ciphertext(0xC0);
        let outcomes: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|thread_id| {
                    let store = Arc::clone(&store);
                    let ciphertext = ciphertext.clone();
                    scope.spawn(move || {
                        run_owner_thread(&store, thread_id, puts, delete_mask, &ciphertext)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });

        let total_kept: usize = outcomes.iter().map(|(kept, _)| kept).sum();
        let total_deleted: usize = outcomes.iter().map(|(_, deleted)| deleted).sum();
        prop_assert_eq!(total_kept + total_deleted, threads * puts);
        prop_assert_eq!(store.record_count(), total_kept);

        // The merged audit trail: one RecordStored per put, one RecordDeleted
        // per delete, strictly increasing timestamps across all shards.
        let audit = store.audit_snapshot();
        let stored = audit.iter().filter(|e| matches!(e.as_ref(), AuditEvent::RecordStored { .. })).count();
        let removed = audit.iter().filter(|e| matches!(e.as_ref(), AuditEvent::RecordDeleted { .. })).count();
        prop_assert_eq!(stored, threads * puts);
        prop_assert_eq!(removed, total_deleted);
        for pair in audit.windows(2) {
            prop_assert!(pair[0].at() < pair[1].at());
        }

        // Durable mode: a clean reopen recovers exactly what the racing
        // writers committed.
        if let Some(tmp) = tmp {
            let count = store.record_count();
            drop(store);
            let reopened = EncryptedPhrStore::open(tmp.path().join("db"), durable_config(shards))
                .expect("reopen durable store");
            prop_assert_eq!(reopened.record_count(), count);
            prop_assert_eq!(reopened.audit_snapshot(), audit);
        }
    }

    /// Readers racing writers: `get` / `list_for_patient` / `record_count`
    /// never observe torn state (a record is either fully present with its
    /// title and owner intact, or absent).
    #[test]
    fn readers_never_observe_torn_records(
        puts in 4usize..24,
        shards in 1usize..9,
    ) {
        let (store, _tmp) = store_under_test(shards);
        let ciphertext = sample_ciphertext(0xC1);
        let writer_patient = Identity::new("patient-w");
        std::thread::scope(|scope| {
            let writer = {
                let store = Arc::clone(&store);
                let ciphertext = ciphertext.clone();
                let patient = writer_patient.clone();
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..puts {
                        ids.push(store.put(&patient, &Category::Medication, &format!("r{i}"), ciphertext.clone()));
                    }
                    for &id in ids.iter().step_by(2) {
                        store.delete(id, &patient).expect("owner delete");
                    }
                    ids
                })
            };
            let reader = {
                let store = Arc::clone(&store);
                let patient = writer_patient.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        let listed = store.list_for_patient(&patient);
                        for id in listed {
                            match store.get(id) {
                                Ok(record) => {
                                    // Never torn: full metadata or nothing.
                                    assert_eq!(&record.patient, &patient);
                                    assert!(record.title.starts_with('r'));
                                }
                                // Deleted between list and get: fine.
                                Err(PhrError::RecordNotFound) => {}
                                Err(other) => panic!("unexpected read error: {other:?}"),
                            }
                        }
                    }
                })
            };
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
        prop_assert_eq!(store.record_count(), puts - puts.div_ceil(2));
    }
}
