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
//! run on the proxy's [`ReEncryptEngine`] ([`ProxyService::set_engine`]
//! sizes its worker pool; the output is bit-identical at every size).
//!
//! A proxy can also be opened *durably* ([`ProxyService::open`]): installed
//! re-encryption keys and the proxy's own audit log are then written to a
//! CRC-framed WAL and replayed on the next open, so a restart loses neither
//! the grants nor the disclosure history.

use crate::audit::{AuditEvent, AuditLog};
use crate::category::Category;
use crate::durable::{self, Durability, ProxyWalOp};
use crate::legacy;
use crate::record::RecordId;
use crate::source::RecordSource;
use crate::store::StoredRecord;
use crate::{PhrError, Result};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use tibpre_core::{hybrid, Proxy, ReEncryptedHybridCiphertext, ReEncryptionKey};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::Identity;
use tibpre_pairing::DecodeCtx;
use tibpre_storage::WalWriter;
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

/// A proxy service bound to one record source — an in-process
/// [`EncryptedPhrStore`](crate::EncryptedPhrStore) or a client for a remote
/// store node (any [`RecordSource`]).
pub struct ProxyService {
    name: String,
    store: Arc<dyn RecordSource>,
    proxy: Proxy,
    engine: ReEncryptEngine,
    audit: Mutex<AuditLog>,
    /// The durable proxy log (`None` for in-memory proxies).  Lock order:
    /// `audit` before `wal`, everywhere.
    wal: Option<Mutex<WalWriter>>,
    /// Advisory lock excluding concurrent opens of the same proxy log; held
    /// for the proxy's lifetime, released by the OS on exit or crash.
    _wal_lock: Option<tibpre_storage::DirLock>,
}

impl ProxyService {
    /// Creates a proxy service with no keys installed.  Conversions run on
    /// the calling thread until [`Self::set_engine`] says otherwise.
    pub fn new(name: impl AsRef<str>, store: Arc<dyn RecordSource>) -> Self {
        ProxyService {
            name: name.as_ref().to_string(),
            store,
            proxy: Proxy::new(name.as_ref()),
            engine: ReEncryptEngine::sequential(),
            audit: Mutex::new(AuditLog::new()),
            wal: None,
            _wal_lock: None,
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
        let lock = tibpre_storage::DirLock::acquire(&path.with_extension("wal.lock"))?;
        let scan = WalWriter::recover(&path, 0)?;
        let ctx = DecodeCtx::from(durability.params());

        let mut proxy = Proxy::new(name.as_ref());
        let mut audit = AuditLog::new();
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
                ProxyWalOp::Audit { event } => audit.replay(event),
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

        Ok(ProxyService {
            name: name.as_ref().to_string(),
            store,
            proxy,
            engine: ReEncryptEngine::sequential(),
            audit: Mutex::new(audit),
            wal: Some(Mutex::new(wal)),
            _wal_lock: Some(lock),
        })
    }

    /// Whether this proxy persists its keys and audit log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends already-encoded frame payloads to the proxy log as one group
    /// commit.  Fail-stop on I/O errors, like the store's WAL (see
    /// [`crate::store`]'s module docs).
    fn persist(&self, payloads: &[Vec<u8>]) {
        let Some(wal) = &self.wal else { return };
        let mut wal = wal.lock();
        for payload in payloads {
            wal.append(payload);
        }
        wal.commit()
            .expect("proxy WAL append failed; cannot continue without durability (fail-stop)");
    }

    /// Replaces the re-encryption engine (e.g. to resize the worker pool).
    pub fn set_engine(&mut self, engine: ReEncryptEngine) {
        self.engine = engine;
    }

    /// The proxy's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a re-encryption key (called by the patient when granting access).
    pub fn install_key(&mut self, key: ReEncryptionKey) {
        let patient = key.delegator().clone();
        let grantee = key.delegatee().clone();
        let category = Category::from_label(&key.type_tag().display());
        // A clone shares the key's pairing table (`Arc`), so logging it
        // copies only the key material.
        let persisted_key = self.wal.is_some().then(|| {
            let key = Box::new(key.clone());
            ProxyWalOp::InstallKey { key }.to_wire_bytes()
        });
        self.proxy.install_key(key);
        let mut audit = self.audit.lock();
        let at = audit.tick();
        let event = AuditEvent::AccessGranted {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
            at,
        };
        if let Some(install) = persisted_key {
            // One group commit covers the key and its audit entry.
            let audit_frame = ProxyWalOp::Audit {
                event: event.clone(),
            }
            .to_wire_bytes();
            self.persist(&[install, audit_frame]);
        }
        audit.append(event);
        self.store
            .log_policy_change(&patient, &category, &grantee, true);
    }

    /// Removes a re-encryption key (revocation).
    pub fn revoke_key(
        &mut self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
    ) -> bool {
        // Check first, mutate after the log write: a crash must never leave
        // a revocation that took effect in memory but is absent from the
        // log (the revoked grantee would regain access on restart).
        if !self.proxy.has_key(patient, &category.type_tag(), grantee) {
            return false;
        }
        let mut audit = self.audit.lock();
        let at = audit.tick();
        let event = AuditEvent::AccessRevoked {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
            at,
        };
        if self.wal.is_some() {
            self.persist(&[
                ProxyWalOp::RevokeKey {
                    patient: patient.clone(),
                    category: category.clone(),
                    grantee: grantee.clone(),
                }
                .to_wire_bytes(),
                ProxyWalOp::Audit {
                    event: event.clone(),
                }
                .to_wire_bytes(),
            ]);
        }
        audit.append(event);
        drop(audit);
        self.proxy
            .revoke_key(patient, &category.type_tag(), grantee);
        self.store
            .log_policy_change(patient, category, grantee, false);
        true
    }

    /// Number of re-encryption keys currently installed.
    pub fn key_count(&self) -> usize {
        self.proxy.key_count()
    }

    /// Whether a grant is active for the given triple.
    pub fn has_grant(&self, patient: &Identity, category: &Category, grantee: &Identity) -> bool {
        self.proxy.has_key(patient, &category.type_tag(), grantee)
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
    ///   call (a remote store answers the whole run pipelined),
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
        let (marks, results) = self.resolve(items);
        self.log_run(items, &marks);
        results
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
        let (marks, results) = self.resolve(&items);
        let logged = match marks.iter().position(|mark| *mark != Mark::Granted) {
            Some(failed) => failed..failed + 1,
            None => 0..items.len(),
        };
        self.log_run(&items[logged.clone()], &marks[logged]);
        results.into_iter().collect()
    }

    /// Resolves a run of disclosure requests without logging anything: one
    /// [`RecordSource::get_many`], then per item the patient check and the
    /// key lookup, then one conversion per key.  Returns, per item in input
    /// order, what it owes the audit trails and its result.
    fn resolve(
        &self,
        items: &[(Identity, RecordId, Identity)],
    ) -> (Vec<Mark>, Vec<Result<DisclosureBundle>>) {
        let ids: Vec<RecordId> = items.iter().map(|(_, id, _)| *id).collect();
        let fetched = self.store.get_many(&ids);

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
            match self
                .proxy
                .key_for(patient, &stored.category.type_tag(), requester)
            {
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
    /// one pass in input order under a single audit lock, one WAL group
    /// commit, and one store-side log run.
    fn log_run(&self, items: &[(Identity, RecordId, Identity)], marks: &[Mark]) {
        let mut store_entries: Vec<(RecordId, Identity, bool)> = Vec::new();
        let mut frames = Vec::new();
        let mut events = Vec::new();
        let mut audit = self.audit.lock();
        for ((_, id, requester), mark) in items.iter().zip(marks) {
            let granted = *mark == Mark::Granted;
            if *mark != Mark::Silent {
                store_entries.push((*id, requester.clone(), granted));
            }
            if matches!(mark, Mark::Denied | Mark::Granted) {
                let (id, requester, at) = (*id, requester.clone(), audit.tick());
                let event = if granted {
                    AuditEvent::DisclosurePerformed { id, requester, at }
                } else {
                    AuditEvent::DisclosureDenied { id, requester, at }
                };
                if self.wal.is_some() {
                    frames.push(
                        ProxyWalOp::Audit {
                            event: event.clone(),
                        }
                        .to_wire_bytes(),
                    );
                }
                events.push(event);
            }
        }
        if !frames.is_empty() {
            self.persist(&frames);
        }
        for event in events {
            audit.append(event);
        }
        drop(audit);
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
    /// let mut diet_proxy = ProxyService::new("diet-proxy", store.clone());
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
    ///         &mut diet_proxy,
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
                let converted = self.proxy.installed_keys().any(|key| {
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
        self.audit.lock().events().to_vec()
    }
}

impl core::fmt::Debug for ProxyService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ProxyService(name={}, keys={})",
            self.name,
            self.proxy.key_count()
        )
    }
}
