//! Per-category proxy services: they hold re-encryption keys, transform
//! ciphertexts on request, and log every disclosure.
//!
//! In the paper's design the patient "finds a proxy" per category and installs
//! the corresponding re-encryption key there.  A proxy is semi-trusted: it is
//! expected to convert ciphertexts honestly, but even a fully compromised
//! proxy only exposes the categories whose keys it holds (Theorem 1), which is
//! exactly what experiment E6 measures.
//!
//! Every disclosure — one record, a node's run, a whole category — is
//! one run through [`ProxyService::disclose_batch`]'s path: one record fetch,
//! one conversion per re-encryption key, one audit commit.  The conversions
//! run on the calling thread: in a node, each connection's thread is the
//! only place a disclosure runs, and concurrent connections are the proxy's
//! parallelism.
//!
//! A service does its own locking, so every method but
//! [`ProxyService::set_engine`] takes `&self`.  Two locks, always taken in
//! this order: the key table (`keys`, a read–write lock), then the journal
//! (`journal`: the audit trail, its logical clock and, for a durable proxy,
//! its write-ahead log).  A run fetches its records *before* taking the key
//! lock; key lookup, conversion, the proxy's journal commit and the
//! store-side log then run under a read guard, and a grant or revocation
//! holds the write guard from its check to its store-side log.  So no
//! conversion starts after a revocation returned, and both audit trails
//! order a revocation and the disclosures around it the same way.  No
//! other lock is held across a store call.
//!
//! A proxy can also be opened *durably* ([`ProxyService::open`]): installed
//! re-encryption keys and the proxy's own audit log are then written to a
//! CRC-framed WAL and replayed on the next open, so a restart loses neither
//! the grants nor the disclosure history.

use crate::audit::AuditEvent;
use crate::category::Category;
use crate::durable::{self, Durability, ProxyWalOp};
use crate::legacy;
use crate::record::RecordId;
use crate::source::RecordSource;
use crate::store::StoredRecord;
use crate::{PhrError, Result};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use tibpre_core::{hybrid, Proxy, ReEncryptedHybridCiphertext, ReEncryptionKey};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::Identity;
use tibpre_pairing::DecodeCtx;
use tibpre_storage::{DirLock, WalWriter};
use tibpre_wire::{Codec, DecodeError, Elem, Field, Nested, Reader, WireEncode, Writer};

tibpre_wire::message! {
    /// A re-encrypted record on its way to a healthcare provider, in a stored
    /// record's field order with the re-encrypted ciphertext nested bare
    /// (inheriting the container's version).
    #[derive(Debug, Clone)]
    pub struct DisclosureBundle: DecodeCtx {
        /// The record identifier.
        pub id: RecordId,
        /// The owning patient.
        pub patient: Identity,
        /// The record category.
        pub category: Category,
        /// The non-secret title (needed to reconstruct the AEAD associated data).
        pub title: String,
        /// The re-encrypted hybrid ciphertext.
        pub ciphertext: ReEncryptedHybridCiphertext as Nested,
    }
}

/// A bundle inside a response is nested.
impl Field<DecodeCtx> for DisclosureBundle {
    fn put(&self, w: &mut Writer) {
        Nested::put(self, w);
    }
    fn read(r: &mut Reader<'_>, ctx: &DecodeCtx) -> core::result::Result<Self, DecodeError> {
        Nested::read(r, ctx)
    }
}

impl Elem for DisclosureBundle {}

/// What one item of a disclosure run owes the audit trails.
#[derive(Clone, Copy, PartialEq)]
enum Mark {
    /// Nothing logged (the record fetch itself failed).
    Silent,
    /// Store-side log only (patient mismatch logs no proxy event).
    StoreOnly,
    /// Proxy audit denial + store-side log.
    Denied,
    /// Proxy audit success + store-side log.
    Granted,
}

/// A proxy's audit trail: its events, its logical clock and, for a durable
/// proxy, the log they are committed to before they are appended.
#[derive(Default)]
struct Journal {
    events: Vec<AuditEvent>,
    clock: u64,
    /// The durable proxy log and the advisory lock that excludes concurrent
    /// opens of it, held for the proxy's lifetime and released by the OS on
    /// exit or crash (`None` for in-memory proxies).
    wal: Option<(WalWriter, DirLock)>,
}

impl Journal {
    /// Advances the logical clock and returns the new timestamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Re-appends an event recovered from the log, advancing the clock to
    /// at least the event's timestamp so later ticks stay strictly
    /// increasing.
    fn replay(&mut self, event: AuditEvent) {
        self.clock = self.clock.max(event.at());
        self.events.push(event);
    }

    /// The one write step: on a durable proxy, the policy op `op` yields
    /// (if any), then one audit frame per event, as one group commit —
    /// fail-stop on I/O errors, like the store's WAL (see [`crate::store`]'s
    /// module docs); then the events join the trail.  A run that owes no
    /// event writes nothing.
    fn commit(&mut self, op: impl FnOnce() -> Option<ProxyWalOp>, events: Vec<AuditEvent>) {
        if let Some((wal, _)) = self.wal.as_mut().filter(|_| !events.is_empty()) {
            let audit = events.iter().map(|event| ProxyWalOp::Audit {
                event: event.clone(),
            });
            for frame in op().into_iter().chain(audit) {
                wal.append(&frame.to_wire_bytes());
            }
            wal.commit()
                .expect("proxy WAL append failed; cannot continue without durability (fail-stop)");
        }
        self.events.extend(events);
    }
}

/// A proxy service bound to one record source — an in-process
/// [`EncryptedPhrStore`](crate::EncryptedPhrStore) or a client for a remote
/// store node (any [`RecordSource`]).
pub struct ProxyService {
    name: String,
    store: Arc<dyn RecordSource>,
    keys: RwLock<Proxy>,
    engine: ReEncryptEngine,
    journal: Mutex<Journal>,
}

impl ProxyService {
    /// Creates a proxy service with no keys installed.
    pub fn new(name: impl AsRef<str>, store: Arc<dyn RecordSource>) -> Self {
        ProxyService {
            name: name.as_ref().to_string(),
            store,
            keys: RwLock::new(Proxy::new(name.as_ref())),
            engine: ReEncryptEngine::sequential(),
            journal: Mutex::default(),
        }
    }

    /// Opens (or creates) a *durable* proxy service: installed re-encryption
    /// keys and the proxy's own audit trail are logged to
    /// `dir/proxy-<name>.wal` and replayed here, so a restarted proxy still
    /// holds exactly the grants the patients installed.  The log is
    /// truncated at the first torn or corrupt frame, like every WAL in this
    /// workspace.  A log holding frames in an older format is read through
    /// the private `legacy` module and rewritten as v1 frames, in order,
    /// before this returns.
    ///
    /// Store-side audit entries are *not* replayed from this log — the store
    /// has its own durable trail ([`crate::EncryptedPhrStore::open`]); replaying
    /// them here would double-log every disclosure.
    pub fn open(
        name: impl AsRef<str>,
        store: Arc<dyn RecordSource>,
        dir: impl AsRef<Path>,
        durability: &Durability,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = durable::proxy_wal_path(dir, name.as_ref());
        // Same guard as the store: a second concurrent holder would truncate
        // frames this one is appending and interleave writes.
        let lock = DirLock::acquire(&path.with_extension("wal.lock"))?;
        let scan = WalWriter::recover(&path, 0)?;
        let ctx = DecodeCtx::from(durability.params());

        let mut proxy = Proxy::new(name.as_ref());
        let mut journal = Journal::default();
        let mut legacy = false;
        let mut frames = Vec::with_capacity(scan.frames.len());
        for payload in scan.frames {
            // A checksummed frame that fails to decode is not storage
            // corruption — it means wrong pairing parameters or an unknown
            // format tag.  Fail the open rather than truncate intact data
            // (same policy as the store's recovery path).
            let (op, frame) = legacy::read_frame(payload, &ctx, &mut legacy).map_err(|_| {
                PhrError::CorruptedRecord(
                    "CRC-valid proxy WAL frame failed to decode; check pairing \
                     parameters and binary version — refusing to truncate intact data",
                )
            })?;
            frames.push(frame);
            match op {
                ProxyWalOp::Audit { event } => journal.replay(event),
                ProxyWalOp::InstallKey { key } => {
                    proxy.install_key(*key);
                }
                ProxyWalOp::RevokeKey {
                    patient,
                    category,
                    grantee,
                } => {
                    proxy.revoke_key(&patient, &category.type_tag(), &grantee);
                }
            }
        }
        // Every frame decoded (a failure returned above), so the valid
        // prefix ends where the scanner stopped — or, after a legacy log is
        // rewritten as v1, at the end of the new file.
        let valid_len = if legacy {
            legacy::rewrite_log(dir, &path, &frames)?
        } else {
            scan.valid_len
        };
        let wal = WalWriter::open(&path, valid_len, durability.fsync_policy())?;
        journal.wal = Some((wal, lock));

        Ok(ProxyService {
            name: name.as_ref().to_string(),
            store,
            keys: RwLock::new(proxy),
            engine: ReEncryptEngine::sequential(),
            journal: Mutex::new(journal),
        })
    }

    /// Whether this proxy persists its keys and audit log.
    pub fn is_durable(&self) -> bool {
        self.journal.lock().wal.is_some()
    }

    /// Replaces the re-encryption engine, which otherwise converts on the
    /// calling thread (kept for the benchmark's engine rows).
    pub fn set_engine(&mut self, engine: ReEncryptEngine) {
        self.engine = engine;
    }

    /// The proxy's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a re-encryption key (called by the patient when granting access).
    pub fn install_key(&self, key: ReEncryptionKey) {
        let patient = key.delegator().clone();
        let grantee = key.delegatee().clone();
        let category = Category::from_label(&key.type_tag().display());
        let mut keys = self.keys.write();
        // A clone shares the key's pairing table (`Arc`), so logging it
        // copies only the key material.
        let op = || ProxyWalOp::InstallKey {
            key: Box::new(key.clone()),
        };
        self.log_policy_change(&patient, &category, &grantee, true, op);
        keys.install_key(key);
    }

    /// Removes a re-encryption key (revocation).
    pub fn revoke_key(&self, patient: &Identity, category: &Category, grantee: &Identity) -> bool {
        let mut keys = self.keys.write();
        if !keys.has_key(patient, &category.type_tag(), grantee) {
            return false;
        }
        let op = || ProxyWalOp::RevokeKey {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
        };
        self.log_policy_change(patient, category, grantee, false, op);
        keys.revoke_key(patient, &category.type_tag(), grantee);
        true
    }

    /// Logs a grant or revocation: `op` and its audit entry in one journal
    /// commit, then the store-side entry.  The caller holds the key table's
    /// write guard and changes the table afterwards: a crash must never
    /// leave a change that took effect in memory but is absent from the log
    /// (a revoked grantee would regain access on restart).
    fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
        op: impl FnOnce() -> ProxyWalOp,
    ) {
        let mut journal = self.journal.lock();
        let at = journal.tick();
        let event = AuditEvent::policy_change(patient, category, grantee, granted, at);
        journal.commit(|| Some(op()), vec![event]);
        drop(journal);
        self.store
            .log_policy_change(patient, category, grantee, granted);
    }

    /// Number of re-encryption keys currently installed.
    pub fn key_count(&self) -> usize {
        self.keys.read().key_count()
    }

    /// Whether a grant is active for the given triple.
    pub fn has_grant(&self, patient: &Identity, category: &Category, grantee: &Identity) -> bool {
        self.keys
            .read()
            .has_key(patient, &category.type_tag(), grantee)
    }

    /// Handles a disclosure request: looks up the record, re-encrypts its KEM
    /// header with the matching key, and logs the outcome — a run of one
    /// through [`Self::disclose_batch`].
    pub fn disclose(
        &self,
        patient: &Identity,
        record_id: RecordId,
        requester: &Identity,
    ) -> Result<DisclosureBundle> {
        self.disclose_batch(&[(patient.clone(), record_id, requester.clone())])
            .pop()
            .expect("one result per item")
    }

    /// Handles a run of *independent* disclosure requests as one batch —
    /// the seam a node's connection feeds with each pipelined run of
    /// `Disclose` requests.  Per item the observable behaviour (result
    /// value, proxy audit events, store-side log entries, and their order)
    /// does not depend on how requests are cut into runs; what a longer run
    /// buys is amortization:
    ///
    /// * all records are fetched through one [`RecordSource::get_many`]
    ///   call (a remote store answers the whole run pipelined), before the
    ///   key lock is taken,
    /// * conversions sharing a re-encryption key run as one engine call
    ///   (shared pairing precomputation, batched final exponentiation),
    /// * the audit writes are group-committed: one WAL commit and one
    ///   [`RecordSource::log_disclosures`] run for the whole batch.
    ///
    /// The result vector has exactly one entry per input, in input order.
    pub fn disclose_batch(
        &self,
        items: &[(Identity, RecordId, Identity)],
    ) -> Vec<Result<DisclosureBundle>> {
        self.run(items, |marks| 0..marks.len())
    }

    /// Discloses every record of one category the requester is entitled to,
    /// all or nothing: the same run as [`Self::disclose_batch`] over the
    /// category's records, except that one refused record refuses the whole
    /// request — the error is that of the first record that failed, and the
    /// audit trails name that record only (nothing was disclosed, so the
    /// others have nothing to log).
    pub fn disclose_category(
        &self,
        patient: &Identity,
        category: &Category,
        requester: &Identity,
    ) -> Result<Vec<DisclosureBundle>> {
        let items: Vec<(Identity, RecordId, Identity)> = self
            .store
            .list_for_patient_category(patient, category)?
            .into_iter()
            .map(|id| (patient.clone(), id, requester.clone()))
            .collect();
        self.run(&items, |marks| {
            match marks.iter().position(|mark| *mark != Mark::Granted) {
                Some(failed) => failed..failed + 1,
                None => 0..marks.len(),
            }
        })
        .into_iter()
        .collect()
    }

    /// One disclosure run: one [`RecordSource::get_many`] with no lock held,
    /// then, under the key table's read guard, [`Self::resolve`] and
    /// [`Self::log_run`] over the items `logged` picks from the resolved
    /// marks.
    fn run(
        &self,
        items: &[(Identity, RecordId, Identity)],
        logged: impl FnOnce(&[Mark]) -> Range<usize>,
    ) -> Vec<Result<DisclosureBundle>> {
        let ids: Vec<RecordId> = items.iter().map(|(_, id, _)| *id).collect();
        let fetched = self.store.get_many(&ids);
        let keys = self.keys.read();
        let (marks, results) = self.resolve(&keys, items, fetched);
        let logged = logged(&marks);
        self.log_run(&items[logged.clone()], &marks[logged]);
        drop(keys);
        results
    }

    /// Resolves a run of fetched records without logging anything: per item
    /// the fetch and patient checks and the key lookup, then one conversion
    /// per key.  Returns, per item in input order, what it owes the audit
    /// trails and its result.
    fn resolve(
        &self,
        keys: &Proxy,
        items: &[(Identity, RecordId, Identity)],
        fetched: Vec<Result<Arc<StoredRecord>>>,
    ) -> (Vec<Mark>, Vec<Result<DisclosureBundle>>) {
        let mut resolved: Vec<Option<(Mark, Result<DisclosureBundle>)>> = vec![None; items.len()];
        // Items that resolved a key, grouped for batched conversion.  The
        // same (patient, type, requester) triple resolves to the same key
        // object, so pointer identity is the group key.
        #[allow(clippy::type_complexity)]
        let mut groups: Vec<(&ReEncryptionKey, Vec<(usize, Arc<StoredRecord>)>)> = Vec::new();

        for (i, ((patient, id, requester), fetched)) in items.iter().zip(fetched).enumerate() {
            let stored = match fetched {
                Ok(stored) if stored.id == *id => stored,
                // A source that answers with another record has failed the
                // fetch: nothing was disclosed, so nothing is logged.
                Ok(stored) => {
                    let e = format!("asked the record source for {id}, got {}", stored.id);
                    resolved[i] = Some((Mark::Silent, Err(PhrError::Storage(e))));
                    continue;
                }
                Err(e) => {
                    resolved[i] = Some((Mark::Silent, Err(e)));
                    continue;
                }
            };
            if &stored.patient != patient {
                resolved[i] = Some((Mark::StoreOnly, Err(PhrError::RecordNotFound)));
                continue;
            }
            match keys.key_for(patient, &stored.category.type_tag(), requester) {
                Some(key) => match groups.iter_mut().find(|(k, _)| core::ptr::eq(*k, key)) {
                    Some((_, members)) => members.push((i, stored)),
                    None => groups.push((key, vec![(i, stored)])),
                },
                None => {
                    let denial = PhrError::AccessDenied {
                        category: stored.category.label(),
                        requester: requester.display(),
                    };
                    resolved[i] = Some((Mark::Denied, Err(denial)));
                }
            }
        }

        for (key, members) in groups {
            // The conversion refuses a run atomically on the first header
            // whose type is not the key's, and the contract here is per
            // item: such a header goes in as a run of its own (and is
            // refused alone), the rest share one call.
            let (clean, odd): (Vec<_>, Vec<_>) = members
                .into_iter()
                .partition(|(_, stored)| stored.ciphertext.type_tag() == key.type_tag());
            for run in odd.into_iter().map(|member| vec![member]).chain([clean]) {
                let headers = run.iter().map(|(_, stored)| &stored.ciphertext);
                match self.engine.re_encrypt_hybrid_batch(headers, key) {
                    Ok(converted) => {
                        for ((i, stored), ciphertext) in run.iter().zip(converted) {
                            let bundle = DisclosureBundle {
                                id: stored.id,
                                patient: stored.patient.clone(),
                                category: stored.category.clone(),
                                title: stored.title.clone(),
                                ciphertext,
                            };
                            resolved[*i] = Some((Mark::Granted, Ok(bundle)));
                        }
                    }
                    Err(e) => {
                        for (i, _) in &run {
                            resolved[*i] = Some((Mark::Denied, Err(PhrError::Pre(e.clone()))));
                        }
                    }
                }
            }
        }

        resolved
            .into_iter()
            .map(|item| item.expect("every item resolved to a result"))
            .unzip()
    }

    /// Logs a resolved run — the only place disclosure events are written:
    /// one pass in input order and one commit under a single journal lock,
    /// then one store-side log run.
    fn log_run(&self, items: &[(Identity, RecordId, Identity)], marks: &[Mark]) {
        let mut store_entries: Vec<(RecordId, Identity, bool)> = Vec::new();
        let mut events = Vec::new();
        let mut journal = self.journal.lock();
        for ((_, id, requester), mark) in items.iter().zip(marks) {
            let granted = *mark == Mark::Granted;
            if *mark != Mark::Silent {
                store_entries.push((*id, requester.clone(), granted));
            }
            if matches!(mark, Mark::Denied | Mark::Granted) {
                let (id, requester, at) = (*id, requester.clone(), journal.tick());
                events.push(if granted {
                    AuditEvent::DisclosurePerformed { id, requester, at }
                } else {
                    AuditEvent::DisclosureDenied { id, requester, at }
                });
            }
        }
        journal.commit(|| None, events);
        drop(journal);
        if !store_entries.is_empty() {
            self.store.log_disclosures(&store_entries);
        }
    }

    /// What a *corrupted* proxy could do: try to convert every record of the
    /// patient with every key it holds, ignoring the type checks.  Returns the
    /// record identifiers whose conversion succeeded — i.e. the extent of the
    /// breach.  Used by the proxy-compromise experiment (E6) and the
    /// `proxy_compromise` example binary, which contrasts this with the
    /// identity-only baseline where one key converts *everything*.
    ///
    /// The paper's containment claim (Theorem 1), executable:
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use std::sync::Arc;
    /// use tibpre_ibe::{Identity, Kgc};
    /// use tibpre_pairing::PairingParams;
    /// use tibpre_phr::category::Category;
    /// use tibpre_phr::patient::Patient;
    /// use tibpre_phr::proxy_service::ProxyService;
    /// use tibpre_phr::record::HealthRecord;
    /// use tibpre_phr::store::EncryptedPhrStore;
    ///
    /// let mut rng = StdRng::seed_from_u64(13);
    /// let params = PairingParams::insecure_toy();
    /// let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    /// let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    ///
    /// let store = Arc::new(EncryptedPhrStore::in_memory_with_params("db", params));
    /// let mut alice = Patient::new("alice@phr.example", &patient_kgc);
    /// let diet_proxy = ProxyService::new("diet-proxy", store.clone());
    ///
    /// // One record per category; only the diet category is delegated
    /// // through this proxy.
    /// for (category, body) in [
    ///     (Category::FoodStatistics, "low sodium"),
    ///     (Category::IllnessHistory, "2007 angioplasty"),
    /// ] {
    ///     let record = HealthRecord::new(
    ///         alice.identity().clone(),
    ///         category,
    ///         "entry",
    ///         body.as_bytes().to_vec(),
    ///     );
    ///     alice.store_record(&store, &record, &mut rng).unwrap();
    /// }
    /// let dietician = Identity::new("dietician@wellness.example");
    /// alice
    ///     .grant_access(
    ///         Category::FoodStatistics,
    ///         &dietician,
    ///         provider_kgc.public_params(),
    ///         &diet_proxy,
    ///         &mut rng,
    ///     )
    ///     .unwrap();
    ///
    /// // The proxy is compromised by a colluding dietician: the breach is
    /// // exactly the one delegated category — one record, not two.
    /// let exposed = diet_proxy.simulate_compromise(alice.identity(), &dietician);
    /// assert_eq!(exposed.len(), 1);
    /// assert_eq!(
    ///     store.get(exposed[0]).unwrap().category,
    ///     Category::FoodStatistics
    /// );
    /// ```
    pub fn simulate_compromise(&self, patient: &Identity, attacker: &Identity) -> Vec<RecordId> {
        let mut exposed = Vec::new();
        for id in self.store.list_for_patient(patient).unwrap_or_default() {
            if let Ok(stored) = self.store.get(id) {
                let converted = self.keys.read().installed_keys().any(|key| {
                    key.delegatee() == attacker
                        && hybrid::re_encrypt_hybrid(&stored.ciphertext, key).is_ok()
                });
                if converted {
                    exposed.push(id);
                }
            }
        }
        exposed
    }

    /// A snapshot of the proxy's own audit trail.
    pub fn audit_snapshot(&self) -> Vec<AuditEvent> {
        self.journal.lock().events.clone()
    }
}

impl core::fmt::Debug for ProxyService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ProxyService(name={}, keys={})",
            self.name,
            self.key_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_orders_and_filters_events() {
        let mut journal = Journal::default();
        let alice = Identity::new("alice");
        let doctor = Identity::new("doctor");
        let at1 = journal.tick();
        let stored = AuditEvent::RecordStored {
            id: RecordId(1),
            patient: alice.clone(),
            category: Category::Emergency,
            at: at1,
        };
        journal.commit(|| None, vec![stored]);
        let at2 = journal.tick();
        let performed = AuditEvent::DisclosurePerformed {
            id: RecordId(1),
            requester: doctor.clone(),
            at: at2,
        };
        journal.commit(|| None, vec![performed]);
        let at3 = journal.tick();
        let denied = AuditEvent::DisclosureDenied {
            id: RecordId(2),
            requester: doctor.clone(),
            at: at3,
        };
        journal.commit(|| None, vec![denied]);

        assert_eq!(journal.events.len(), 3);
        assert!(!journal.events.is_empty());
        assert!(at1 < at2 && at2 < at3);
        assert_eq!(journal.events[0].at(), at1);
    }
}
