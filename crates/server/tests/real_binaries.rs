//! The shipped `tibpre-node` binary, exactly as deployed: one process per
//! role on an ephemeral loopback port, driven through `tibpre-client` and
//! stopped with `SIGTERM`.
//!
//! Each node's address is its startup banner (`… listening on <addr> …`),
//! read from its piped stderr.  Every disclosure is opened client-side and
//! compared with the bytes uploaded; every replica read is decrypted by the
//! record's owner.  A node passes only if it drains and exits 0 on
//! `SIGTERM`, sent with `kill(1)`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, KgcClient, ProxyClient, RemoteError, StoreClient,
};
use tibpre_core::{Delegator, ReEncryptionKey};
use tibpre_ibe::Identity;
use tibpre_pairing::{PairingParams, SecurityLevel};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::{Category, HealthRecord, HealthcareProvider, RecordId};
use tibpre_storage::TempDir;

const NODE: &str = env!("CARGO_BIN_EXE_tibpre-node");
const PATIENTS: usize = 4;
const RECORDS_PER_PATIENT: usize = 3;
const PAYLOAD_LEN: usize = 256;

/// One `tibpre-node` process; killed if the test fails before stopping it.
struct Node {
    child: Child,
    addr: String,
    /// Collects the node's stderr after its banner, so a chatty node never
    /// blocks on a full pipe.
    log: Option<JoinHandle<String>>,
}

impl Node {
    /// Starts `tibpre-node <args>` on an ephemeral port and returns once its
    /// banner names the bound address.
    fn spawn(args: &[&str]) -> Node {
        let mut child = Command::new(NODE)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tibpre-node");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("read the banner");
        let Some(addr) = banner
            .split_once("listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
        else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("tibpre-node {args:?} printed no banner: {banner:?}");
        };
        let addr = addr.to_string();
        let log = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Node {
            child,
            addr,
            log: Some(log),
        }
    }

    /// Sends `SIGTERM` through `kill(1)` and requires the node to drain and
    /// exit 0.
    fn stop(mut self) {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill(1)");
        assert!(sent.success(), "kill -TERM {pid} failed");
        let status = self.child.wait().expect("wait for tibpre-node");
        let log = self.log.take().expect("running node").join().expect("log");
        assert!(
            status.success(),
            "node at {} exited with {status} after SIGTERM; stderr: {log:?}",
            self.addr
        );
        assert!(log.contains("drained and stopped"), "stderr: {log:?}");
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if self.log.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs an admin verb (`--status`, `--promote`) and returns its JSON line.
fn admin(verb: &str, addr: &str) -> String {
    let out = Command::new(NODE)
        .args([verb, addr])
        .output()
        .expect("run tibpre-node");
    assert!(
        out.status.success(),
        "tibpre-node {verb} {addr}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 status")
}

/// The unsigned integer after `"key":` in a `--status` line.
fn status_count(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let (_, rest) = json
        .split_once(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {json}"))
}

/// One uploaded record and what its owner holds to check it.
struct Upload {
    patient: usize,
    id: RecordId,
    title: String,
    body: Vec<u8>,
}

/// What the test holds after uploading through the node set: the patients'
/// keys and grants, the provider's key, and every record's plaintext.
struct World {
    params: Arc<PairingParams>,
    patients: Vec<(Identity, Delegator)>,
    grants: Vec<ReEncryptionKey>,
    provider: HealthcareProvider,
    provider_id: Identity,
    uploads: Vec<Upload>,
}

const CATEGORY: Category = Category::LabResults;

impl World {
    /// Extracts keys at the KGC, uploads every record to the store and
    /// installs one grant per patient at the proxy.
    fn upload(kgc: &Node, store: &Node, proxy: &Node) -> World {
        let params = params_for_level(SecurityLevel::Toy);
        let config = ClientConfig::default();
        let mut kgc = KgcClient::connect(kgc.addr.as_str(), &params, &config).unwrap();
        let mut store = StoreClient::connect(store.addr.as_str(), &params, &config).unwrap();
        let mut proxy = ProxyClient::connect(proxy.addr.as_str(), &params, &config).unwrap();
        let domain = kgc.public_params().unwrap();
        let provider_id = Identity::new("provider-oncology");
        let provider = HealthcareProvider::new(kgc.extract(&provider_id).unwrap());

        let mut rng = StdRng::seed_from_u64(0x7135_e2e1);
        let (mut patients, mut grants, mut uploads) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..PATIENTS {
            let identity = Identity::new(format!("patient-{p:04}"));
            let delegator = Delegator::new(domain.clone(), kgc.extract(&identity).unwrap());
            for r in 0..RECORDS_PER_PATIENT {
                let title = format!("lab-report-{r:03}");
                let mut body = vec![0u8; PAYLOAD_LEN];
                rng.fill_bytes(&mut body);
                let aad = HealthRecord::associated_data(&identity, &CATEGORY, &title);
                let ciphertext =
                    delegator.encrypt_bytes(&body, &aad, &CATEGORY.type_tag(), &mut rng);
                let id = store.put(&identity, &CATEGORY, &title, ciphertext).unwrap();
                uploads.push(Upload {
                    patient: p,
                    id,
                    title,
                    body,
                });
            }
            let grant = delegator
                .make_reencryption_key(&provider_id, &domain, &CATEGORY.type_tag(), &mut rng)
                .unwrap();
            proxy.install_key(grant.clone()).unwrap();
            patients.push((identity, delegator));
            grants.push(grant);
        }
        store.sync().unwrap();
        World {
            params,
            patients,
            grants,
            provider,
            provider_id,
            uploads,
        }
    }

    fn proxy(&self, proxy: &Node) -> ProxyClient {
        ProxyClient::connect(proxy.addr.as_str(), &self.params, &ClientConfig::default()).unwrap()
    }

    fn store(&self, store: &Node) -> StoreClient {
        StoreClient::connect(store.addr.as_str(), &self.params, &ClientConfig::default()).unwrap()
    }

    /// Asks for every record in one pipelined run and opens each bundle.
    fn disclose_all(&self, proxy: &mut ProxyClient) {
        let items: Vec<_> = self
            .uploads
            .iter()
            .map(|u| {
                (
                    self.patients[u.patient].0.clone(),
                    u.id,
                    self.provider_id.clone(),
                )
            })
            .collect();
        let outcomes = proxy.disclose_pipelined(&items).unwrap();
        assert_eq!(outcomes.len(), self.uploads.len());
        for (upload, outcome) in self.uploads.iter().zip(outcomes) {
            self.check_bundle(upload, outcome.expect("disclosed"));
        }
    }

    fn check_bundle(&self, upload: &Upload, bundle: DisclosureBundle) {
        let opened = self.provider.open(&bundle).expect("the provider opens it");
        assert_eq!(opened.id, upload.id);
        assert_eq!(opened.patient, self.patients[upload.patient].0);
        assert_eq!(opened.title, upload.title);
        assert!(
            opened.body == upload.body,
            "record {:?} opened to other bytes",
            upload.id
        );
    }

    /// Revoking patient 0's grant draws `AccessDenied`; re-installing it
    /// serves the record again.
    fn revoke_and_restore(&self, proxy: &mut ProxyClient) {
        let upload = &self.uploads[0];
        let patient = &self.patients[upload.patient].0;
        proxy
            .revoke_key(patient, &CATEGORY, &self.provider_id)
            .unwrap();
        match proxy.disclose(patient, upload.id, &self.provider_id) {
            Err(ClientError::Remote(RemoteError::AccessDenied { .. })) => {}
            other => panic!("a revoked grant disclosed: {:?}", other.map(|b| b.id)),
        }
        proxy
            .install_key(self.grants[upload.patient].clone())
            .unwrap();
        let bundle = proxy
            .disclose(patient, upload.id, &self.provider_id)
            .unwrap();
        self.check_bundle(upload, bundle);
    }

    /// Reads every record from a replica store and decrypts it as its owner.
    fn read_through(&self, replica: &Node) {
        let mut store = self.store(replica);
        for upload in &self.uploads {
            let (patient, owner) = &self.patients[upload.patient];
            let record = store.get(upload.id).unwrap();
            assert_eq!(record.id, upload.id);
            assert_eq!(&record.patient, patient);
            let aad = HealthRecord::associated_data(patient, &CATEGORY, &upload.title);
            let body = owner.decrypt_bytes(&record.ciphertext, &aad).unwrap();
            assert!(
                body == upload.body,
                "replica {} altered {:?}",
                replica.addr,
                upload.id
            );
        }
    }

    /// Blocks until the replica has applied every shard position the
    /// primary committed.
    fn wait_caught_up(&self, primary: &Node, replica: &Node) {
        let want = self.store(primary).connection().stats().unwrap().positions;
        let mut follower = self.store(replica);
        let deadline = Instant::now() + Duration::from_secs(60);
        while follower.connection().stats().unwrap().positions != want {
            assert!(
                Instant::now() < deadline,
                "replica {} never caught up",
                replica.addr
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[test]
fn a_three_role_node_set_serves_disclosures_and_drains() {
    let kgc = Node::spawn(&["--role", "kgc"]);
    let store = Node::spawn(&["--role", "store"]);
    let proxy = Node::spawn(&["--role", "proxy", "--store", &store.addr]);

    let world = World::upload(&kgc, &store, &proxy);
    let mut client = world.proxy(&proxy);
    world.disclose_all(&mut client);
    world.revoke_and_restore(&mut client);
    world.disclose_all(&mut client);
    drop(client);

    let status = admin("--status", &proxy.addr);
    assert!(status_count(&status, "batched_requests") >= 1, "{status}");

    proxy.stop();
    store.stop();
    kgc.stop();
}

#[test]
fn replicas_serve_reads_and_one_is_promoted_after_the_primary_stops() {
    let data = TempDir::new("real-binaries-primary").expect("temp dir");
    let data_dir = data.path().to_str().expect("utf-8 temp path");
    let kgc = Node::spawn(&["--role", "kgc"]);
    let primary = Node::spawn(&["--role", "store", "--data-dir", data_dir]);
    let proxy = Node::spawn(&["--role", "proxy", "--store", &primary.addr]);
    let replicas = [
        Node::spawn(&["--role", "store", "--replica-of", &primary.addr]),
        Node::spawn(&["--role", "store", "--replica-of", &primary.addr]),
    ];

    let world = World::upload(&kgc, &primary, &proxy);
    let mut client = world.proxy(&proxy);
    world.disclose_all(&mut client);
    world.revoke_and_restore(&mut client);
    drop(client);
    for replica in &replicas {
        world.wait_caught_up(&primary, replica);
        world.read_through(replica);
        assert!(admin("--status", &replica.addr).contains("\"writable\":false"));
    }
    let status = admin("--status", &proxy.addr);
    assert!(status_count(&status, "batched_requests") >= 1, "{status}");

    primary.stop();
    let [promoted, follower] = replicas;
    assert_eq!(
        admin("--promote", &promoted.addr).trim(),
        "{\"promoted\":true}"
    );
    let status = admin("--status", &promoted.addr);
    assert!(status.contains("\"writable\":true"), "{status}");
    world.read_through(&promoted);

    proxy.stop();
    kgc.stop();
    promoted.stop();
    follower.stop();
}
