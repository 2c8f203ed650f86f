//! Set-up: the in-process node set and the seeded fixture.
//!
//! The nodes boot through `tibpre_server::start` with shipped defaults — the
//! configuration a user gets from `tibpre-node --role … --level …` — and are
//! reached over loopback TCP only.

use crate::workload::Spec;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, KgcClient, NodeRole, ProxyClient, StoreClient,
};
use tibpre_core::{Delegator, ReEncryptionKey};
use tibpre_ibe::{IbePublicParams, Identity};
use tibpre_pairing::PairingParams;
use tibpre_phr::{Category, HealthRecord, HealthcareProvider, RecordId};
use tibpre_server::{start, NodeConfig, NodeHandle, ServerError};

/// The running kgc, store and proxy nodes.
pub struct World {
    pub kgc: NodeHandle,
    pub store: NodeHandle,
    pub proxy: NodeHandle,
    store_config: NodeConfig,
    /// Time the three `start` calls took together.
    pub boot_ms: f64,
}

impl World {
    /// Boots kgc, store and proxy; durable roles keep their state under
    /// `out/store` and `out/proxy`.
    pub fn boot(spec: &Spec, out: &Path) -> Result<World, ServerError> {
        let began = Instant::now();
        let config = |role: NodeRole, dir: &str| {
            let mut config = NodeConfig::new(role);
            config.level = spec.level;
            if spec.durable && role != NodeRole::Kgc {
                config.data_dir = Some(out.join(dir));
            }
            config
        };
        let kgc = start(config(NodeRole::Kgc, ""))?;
        let store_config = config(NodeRole::Store, "store");
        let store = start(store_config.clone())?;
        let mut proxy_config = config(NodeRole::Proxy, "proxy");
        proxy_config.store_addr = Some(store.addr().to_string());
        let proxy = start(proxy_config)?;
        Ok(World {
            kgc,
            store,
            proxy,
            store_config,
            boot_ms: began.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Drains and stops every node.
    pub fn shutdown(self) {
        for node in [self.proxy, self.store, self.kgc] {
            stop(node);
        }
    }

    /// Stops proxy and store, then boots a new store node from the files the
    /// old one left: what a restart finds on disk.  Returns the kgc (still
    /// running), the reopened store and the time the reopen took.
    pub fn restart_store(self) -> Result<(NodeHandle, NodeHandle, f64), ServerError> {
        stop(self.proxy);
        stop(self.store);
        let began = Instant::now();
        let store = start(self.store_config)?;
        Ok((self.kgc, store, began.elapsed().as_secs_f64() * 1e3))
    }
}

pub fn stop(node: NodeHandle) {
    node.shutdown();
    node.wait();
}

pub struct RecordFix {
    pub id: RecordId,
    /// What was uploaded; every disclosure is compared with it.
    pub plaintext: Vec<u8>,
}

pub struct PatientFix {
    pub identity: Identity,
    pub delegator: Delegator,
    pub records: Vec<RecordFix>,
}

/// Everything the generator needs, derived from the seed alone.
pub struct Fixture {
    pub params: Arc<PairingParams>,
    pub domain: IbePublicParams,
    pub category: Category,
    pub provider_id: Identity,
    /// One provider for all connections: its mask cache sees every grant.
    pub provider: HealthcareProvider,
    pub patients: Vec<PatientFix>,
    pub seed: u64,
}

/// Decorrelates the seeds of the fixture's random streams.
pub fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random streams of one run; the tag keeps them apart.
pub mod stream {
    pub const FIXTURE: u64 = 1;
    pub const REQUESTS: u64 = 2;
    pub const PAYLOAD: u64 = 3;
    pub const CHURN: u64 = 4;
    pub const UPLOADS: u64 = 5;
}

/// The payload of upload `n` of connection `conn`: regenerated, not kept,
/// when the reopened store is checked.
pub fn upload_payload(seed: u64, conn: usize, n: u64, len: usize) -> Vec<u8> {
    let lane = stream_seed(seed, stream::PAYLOAD, conn as u64);
    let mut rng = StdRng::seed_from_u64(stream_seed(lane, stream::PAYLOAD, n));
    let mut payload = vec![0u8; len];
    rng.fill_bytes(&mut payload);
    payload
}

impl Fixture {
    /// Extracts every key, uploads every record and installs every grant.
    /// The patients are split over as many threads as the workload has
    /// connections; each patient's randomness depends on the seed and the
    /// patient's index only.
    pub fn build(spec: &Spec, world: &World, seed: u64) -> Result<Fixture, ClientError> {
        let params = params_for_level(spec.level);
        let client = ClientConfig::default();
        let mut kgc = KgcClient::connect(world.kgc.addr(), &params, &client)?;
        let domain = kgc.public_params()?;
        let provider_id = Identity::new(format!("provider-{seed:x}"));
        let provider = HealthcareProvider::new(kgc.extract(&provider_id)?);
        let category = Category::LabResults;

        let shares = (0..spec.connections).map(|conn| spec.share(conn));
        let built: Vec<Result<Vec<PatientFix>, ClientError>> = std::thread::scope(|scope| {
            let workers: Vec<_> = shares
                .map(|share| {
                    let (params, domain, category) = (&params, &domain, &category);
                    let (provider_id, client) = (&provider_id, &client);
                    let (kgc, store, proxy) =
                        (world.kgc.addr(), world.store.addr(), world.proxy.addr());
                    scope.spawn(move || {
                        let mut kgc = KgcClient::connect(kgc, params, client)?;
                        let mut store = StoreClient::connect(store, params, client)?;
                        let mut proxy = ProxyClient::connect(proxy, params, client)?;
                        share
                            .map(|p| {
                                let (patient, grant) = build_patient(
                                    spec,
                                    seed,
                                    p,
                                    domain,
                                    category,
                                    provider_id,
                                    &mut kgc,
                                    &mut store,
                                )?;
                                proxy.install_key(grant)?;
                                Ok(patient)
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("a set-up thread panicked"))
                .collect()
        });
        let mut patients = Vec::with_capacity(spec.patients);
        for share in built {
            patients.extend(share?);
        }
        Ok(Fixture {
            params,
            domain,
            category,
            provider_id,
            provider,
            patients,
            seed,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn build_patient(
    spec: &Spec,
    seed: u64,
    index: usize,
    domain: &IbePublicParams,
    category: &Category,
    provider_id: &Identity,
    kgc: &mut KgcClient,
    store: &mut StoreClient,
) -> Result<(PatientFix, ReEncryptionKey), ClientError> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream::FIXTURE, index as u64));
    let identity = Identity::new(format!("patient-{seed:x}-{index:04}"));
    let delegator = Delegator::new(domain.clone(), kgc.extract(&identity)?);
    let mut records = Vec::with_capacity(spec.records_per_patient);
    for r in 0..spec.records_per_patient {
        let title = format!("lab-report-{r:03}");
        let mut plaintext = vec![0u8; spec.payload_len];
        rng.fill_bytes(&mut plaintext);
        let aad = HealthRecord::associated_data(&identity, category, &title);
        let ciphertext = delegator.encrypt_bytes(&plaintext, &aad, &category.type_tag(), &mut rng);
        let id = store.put(&identity, category, &title, ciphertext)?;
        records.push(RecordFix { id, plaintext });
    }
    let grant = delegator
        .make_reencryption_key(provider_id, domain, &category.type_tag(), &mut rng)
        .expect("both domains share the node set's parameters");
    Ok((
        PatientFix {
            identity,
            delegator,
            records,
        },
        grant,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_depend_on_seed_connection_and_index_only() {
        let a = upload_payload(7, 0, 3, 64);
        assert_eq!(a, upload_payload(7, 0, 3, 64));
        assert_ne!(a, upload_payload(8, 0, 3, 64));
        assert_ne!(a, upload_payload(7, 1, 3, 64));
        assert_ne!(a, upload_payload(7, 0, 4, 64));
    }
}
