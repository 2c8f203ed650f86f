//! The load generator behind `tibpre-load`: a correctness smoke against a
//! live kgc/store/proxy node set (timings come from `benchmark/`).
//!
//! A setup phase extracts keys, encrypts and uploads records, and installs
//! grants; a closed-loop phase runs N concurrent clients issuing
//! disclosures for uniformly chosen patients, with grant/revoke churn on
//! one *hot* patient riding along.  Every disclosure is *opened
//! client-side* (a real delegatee decrypt), so a counted success is a full
//! encrypt → store → re-encrypt → decrypt round trip, not just a 200-OK.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, KgcClient, ProxyClient, RemoteError, StoreClient,
};
use tibpre_core::{Delegator, ReEncryptionKey};
use tibpre_ibe::Identity;
use tibpre_pairing::SecurityLevel;
use tibpre_phr::{Category, HealthRecord, HealthcareProvider, RecordId};

/// Distinct patients.
const PATIENTS: usize = 16;
/// Records uploaded per patient during setup.
const RECORDS_PER_PATIENT: usize = 4;
/// Record payload size in bytes.
const PAYLOAD_LEN: usize = 256;
/// Every this many requests a client revokes and re-installs [`HOT`]'s grant.
const CHURN_EVERY: u64 = 25;
/// The patient whose grant churns — the only one a disclosure may be denied for.
const HOT: usize = 0;
/// Seed for payloads and patient choice.
const SEED: u64 = 0x7135_e2e1;

/// What to throw at the node set.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// KGC node address.
    pub kgc_addr: String,
    /// Store node address.
    pub store_addr: String,
    /// Proxy node address.
    pub proxy_addr: String,
    /// Pairing level — must match the nodes'.
    pub level: SecurityLevel,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests across all clients (closed-loop budget).
    pub requests: u64,
    /// Pipeline depth per client connection: each client keeps up to this
    /// many disclosures in flight on its one socket, which the proxy
    /// executes as one `disclose_batch` run.  `1` is lockstep
    /// request/response.  Ignored by replica-read traffic.
    pub pipeline: usize,
    /// Read-replica store addresses.  When non-empty the traffic becomes
    /// record *reads* round-robined across these replicas; every write —
    /// setup uploads and grant churn — still goes to the primary node set.
    pub read_replicas: Vec<String>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            kgc_addr: "127.0.0.1:7070".to_string(),
            store_addr: "127.0.0.1:7071".to_string(),
            proxy_addr: "127.0.0.1:7072".to_string(),
            level: SecurityLevel::Toy,
            clients: 4,
            requests: 400,
            pipeline: 1,
            read_replicas: Vec::new(),
        }
    }
}

/// What came back.  `ok + denied + errors + reordered` is the request budget.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Disclosures that decrypted client-side, or replica reads that
    /// returned the requested record.
    pub ok: u64,
    /// Disclosures of the hot patient denied by policy: the expected race
    /// window while its churned grant is between revoke and re-install.
    pub denied: u64,
    /// Everything else: transport errors, any other remote error, failed
    /// decrypts, a read that returned the wrong record.
    pub errors: u64,
    /// Pipelined responses that came back for a different record than the
    /// one their slot requested — an ordering bug in the node.
    pub reordered: u64,
    /// Revoke + install operations performed by the churn traffic.
    pub churn_ops: u64,
    /// Wall-clock of the measurement phase.
    pub elapsed: Duration,
}

/// Load-generator failures.
#[derive(Debug)]
pub enum LoadError {
    /// A node call failed during setup or churn.
    Client(ClientError),
    /// Local setup failed.
    Setup(String),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Client(e) => write!(f, "node call failed: {e}"),
            LoadError::Setup(what) => write!(f, "setup failed: {what}"),
        }
    }
}

impl From<ClientError> for LoadError {
    fn from(e: ClientError) -> Self {
        LoadError::Client(e)
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Denied,
    Error,
    Reordered,
}

/// The one remote answer a healthy run may see besides success is the
/// policy denial of a disclosure for the patient whose grant is churning.
/// `NotFound` from a replica that lost its records, `Internal`,
/// `WrongRole`, `ShuttingDown`, … are failures of the node set.
fn classify_remote(error: &RemoteError, hot_patient: bool) -> Outcome {
    match error {
        RemoteError::AccessDenied { .. } if hot_patient => Outcome::Denied,
        _ => Outcome::Error,
    }
}

impl LoadReport {
    fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Denied => self.denied += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Reordered => self.reordered += 1,
        }
    }
}

struct Fixture {
    patients: Vec<Identity>,
    records: Vec<Vec<RecordId>>,
    grants: Vec<ReEncryptionKey>,
    provider_id: Identity,
    category: Category,
}

/// Runs setup + measurement against a live node set.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, LoadError> {
    let params = params_for_level(config.level);
    let client_config = ClientConfig::default();
    let category = Category::LabResults;

    // --- Setup: extract, encrypt, upload, grant. -------------------------
    let mut kgc = KgcClient::connect(config.kgc_addr.as_str(), &params, &client_config)?;
    let mut store = StoreClient::connect(config.store_addr.as_str(), &params, &client_config)?;
    let mut proxy = ProxyClient::connect(config.proxy_addr.as_str(), &params, &client_config)?;

    let domain = kgc.public_params()?;
    let provider_id = Identity::new("provider-oncology");
    let provider_key = kgc.extract(&provider_id)?;

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut patients = Vec::with_capacity(PATIENTS);
    let mut records = Vec::with_capacity(PATIENTS);
    let mut grants = Vec::with_capacity(PATIENTS);
    for p in 0..PATIENTS {
        let identity = Identity::new(format!("patient-{p:04}"));
        let delegator = Delegator::new(domain.clone(), kgc.extract(&identity)?);
        let mut ids = Vec::with_capacity(RECORDS_PER_PATIENT);
        for r in 0..RECORDS_PER_PATIENT {
            let title = format!("lab-report-{r:03}");
            let mut payload = vec![0u8; PAYLOAD_LEN];
            rng.fill_bytes(&mut payload);
            let aad = HealthRecord::associated_data(&identity, &category, &title);
            let ciphertext =
                delegator.encrypt_bytes(&payload, &aad, &category.type_tag(), &mut rng);
            ids.push(store.put(&identity, &category, &title, ciphertext)?);
        }
        let grant = delegator
            .make_reencryption_key(&provider_id, &domain, &category.type_tag(), &mut rng)
            .map_err(|e| LoadError::Setup(format!("re-encryption key: {e}")))?;
        proxy.install_key(grant.clone())?;
        patients.push(identity);
        records.push(ids);
        grants.push(grant);
    }
    store.sync()?;

    // Replicated topology: do not start until every replica has applied the
    // whole setup upload, or early reads would miss.
    if !config.read_replicas.is_empty() {
        let expected = store.record_count()?;
        for addr in &config.read_replicas {
            let mut replica = StoreClient::connect(addr.as_str(), &params, &client_config)?;
            let deadline = Instant::now() + Duration::from_secs(30);
            while replica.record_count()? < expected {
                if Instant::now() >= deadline {
                    return Err(LoadError::Setup(format!(
                        "replica {addr} did not catch up to {expected} records"
                    )));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    let fixture = Fixture {
        patients,
        records,
        grants,
        provider_id,
        category,
    };

    // --- Measurement: N clients, shared request budget. ------------------
    let issued = AtomicU64::new(0);
    let started = Instant::now();
    let mut report = LoadReport::default();
    std::thread::scope(|scope| -> Result<(), LoadError> {
        let workers: Vec<_> = (0..config.clients.max(1))
            .map(|client_index| {
                let (fixture, issued, params) = (&fixture, &issued, &params);
                let provider = HealthcareProvider::new(provider_key.clone());
                let client_config = client_config.clone();
                scope.spawn(move || -> Result<LoadReport, LoadError> {
                    let mut proxy =
                        ProxyClient::connect(config.proxy_addr.as_str(), params, &client_config)?;
                    let mut replicas: Vec<StoreClient> = config
                        .read_replicas
                        .iter()
                        .map(|addr| StoreClient::connect(addr.as_str(), params, &client_config))
                        .collect::<Result<_, _>>()?;
                    let mut rng = StdRng::seed_from_u64(SEED ^ (0x9e37 + client_index as u64));
                    let mut tally = LoadReport::default();

                    // Pipelined disclosure traffic claims a whole chunk of
                    // the shared budget per round trip; replica reads claim
                    // one request at a time.
                    let depth = if replicas.is_empty() {
                        config.pipeline.max(1) as u64
                    } else {
                        1
                    };
                    loop {
                        let start = issued.fetch_add(depth, Ordering::Relaxed);
                        if start >= config.requests {
                            break;
                        }
                        let n = depth.min(config.requests - start);
                        let picks: Vec<(usize, RecordId)> = (0..n)
                            .map(|_| {
                                let p = rng.next_u64() as usize % PATIENTS;
                                let ids = &fixture.records[p];
                                (p, ids[rng.next_u64() as usize % ids.len()])
                            })
                            .collect();

                        if !replicas.is_empty() {
                            // Reads round-robin across the replica set; a
                            // read is policy-free, so nothing may be denied.
                            let (p, id) = picks[0];
                            let which = (start as usize) % replicas.len();
                            tally.count(match replicas[which].get(id) {
                                Ok(record)
                                    if record.id == id && record.patient == fixture.patients[p] =>
                                {
                                    Outcome::Ok
                                }
                                Ok(_) => Outcome::Error,
                                Err(ClientError::Remote(e)) => classify_remote(&e, false),
                                Err(_) => Outcome::Error,
                            });
                        } else {
                            let items: Vec<_> = picks
                                .iter()
                                .map(|&(p, id)| {
                                    (fixture.patients[p].clone(), id, fixture.provider_id.clone())
                                })
                                .collect();
                            match proxy.disclose_pipelined(&items) {
                                // Responses land in request order or the
                                // run is broken: a bundle for the wrong
                                // record counts as reordered, not ok.
                                Ok(outcomes) => {
                                    for (&(p, want), outcome) in picks.iter().zip(outcomes) {
                                        tally.count(match outcome {
                                            Ok(bundle) if bundle.id != want => Outcome::Reordered,
                                            Ok(bundle) if provider.open(&bundle).is_ok() => {
                                                Outcome::Ok
                                            }
                                            Ok(_) => Outcome::Error,
                                            Err(e) => classify_remote(&e, p == HOT),
                                        });
                                    }
                                }
                                Err(_) => tally.errors += n,
                            }
                        }

                        // Grant/revoke churn riding along in the traffic:
                        // drop the hot patient's grant and restore it, once
                        // per cadence crossing inside the claimed chunk.
                        let crossings = (start..start + n)
                            .filter(|i| i % CHURN_EVERY == CHURN_EVERY - 1)
                            .count();
                        for _ in 0..crossings {
                            let hot = &fixture.patients[HOT];
                            proxy.revoke_key(hot, &fixture.category, &fixture.provider_id)?;
                            proxy.install_key(fixture.grants[HOT].clone())?;
                            tally.churn_ops += 2;
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        for worker in workers {
            let tally = worker
                .join()
                .map_err(|_| LoadError::Setup("a load client panicked".to_string()))??;
            report.ok += tally.ok;
            report.denied += tally.denied;
            report.errors += tally.errors;
            report.reordered += tally.reordered;
            report.churn_ops += tally.churn_ops;
        }
        Ok(())
    })?;
    report.elapsed = started.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_hot_patient_access_denial_counts_as_denied() {
        let denial = RemoteError::AccessDenied {
            category: "lab-results".to_string(),
            requester: "provider-oncology".to_string(),
        };
        assert_eq!(classify_remote(&denial, true), Outcome::Denied);
        // A denial for a patient whose grant never churns is a lost grant.
        assert_eq!(classify_remote(&denial, false), Outcome::Error);
        // Every other remote error fails the run, on any patient: these are
        // what a replica that lost its records or a draining, misrouted or
        // crashing node answers.
        for error in [
            RemoteError::NotFound,
            RemoteError::PolicyConflict("duplicate grant".to_string()),
            RemoteError::BadRequest("no proxy for category".to_string()),
            RemoteError::WrongRole("store".to_string()),
            RemoteError::ShuttingDown,
            RemoteError::Internal("wal append failed".to_string()),
        ] {
            for hot_patient in [true, false] {
                assert_eq!(
                    classify_remote(&error, hot_patient),
                    Outcome::Error,
                    "{error:?}"
                );
            }
        }
    }
}
