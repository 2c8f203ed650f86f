//! Typed clients for the three node roles, and the [`RemoteStore`] that
//! plugs a store node into [`tibpre_phr::RecordSource`] so a proxy node can
//! serve disclosures from records it does not hold.

use crate::conn::{ClientConfig, ClientError, Connection, Result};
use crate::protocol::{RemoteError, Request, Response};
use parking_lot::Mutex;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use tibpre_core::{HybridCiphertext, ReEncryptionKey};
use tibpre_ibe::{IbePrivateKey, IbePublicParams, Identity};
use tibpre_pairing::PairingParams;
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{AuditEvent, Category, RecordId, RecordSource};

/// Client for a KGC node.
#[derive(Debug)]
pub struct KgcClient {
    conn: Connection,
}

impl KgcClient {
    /// Connects to a KGC node.
    pub fn connect(
        addr: impl ToSocketAddrs,
        params: &Arc<PairingParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        Ok(KgcClient {
            conn: Connection::connect(addr, params, config)?,
        })
    }

    /// The domain's public parameters.
    pub fn public_params(&mut self) -> Result<IbePublicParams> {
        match self.conn.call(&Request::PublicParams)? {
            Response::PublicParams(params) => Ok(*params),
            _ => Err(ClientError::UnexpectedResponse("expected PublicParams")),
        }
    }

    /// `Extract`: the private key for an identity.
    pub fn extract(&mut self, identity: &Identity) -> Result<IbePrivateKey> {
        let request = Request::Extract {
            identity: identity.clone(),
        };
        match self.conn.call(&request)? {
            Response::PrivateKey(key) => Ok(*key),
            _ => Err(ClientError::UnexpectedResponse("expected PrivateKey")),
        }
    }

    /// The underlying connection (for ping/shutdown).
    pub fn connection(&mut self) -> &mut Connection {
        &mut self.conn
    }
}

/// Client for a store node.
#[derive(Debug)]
pub struct StoreClient {
    conn: Connection,
}

impl StoreClient {
    /// Connects to a store node.
    pub fn connect(
        addr: impl ToSocketAddrs,
        params: &Arc<PairingParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        Ok(StoreClient {
            conn: Connection::connect(addr, params, config)?,
        })
    }

    /// Stores an encrypted record; the node assigns and returns the id.
    pub fn put(
        &mut self,
        patient: &Identity,
        category: &Category,
        title: &str,
        ciphertext: HybridCiphertext,
    ) -> Result<RecordId> {
        let request = Request::PutRecord {
            patient: patient.clone(),
            category: category.clone(),
            title: title.to_string(),
            ciphertext: Box::new(ciphertext),
        };
        match self.conn.call(&request)? {
            Response::RecordId(id) => Ok(id),
            _ => Err(ClientError::UnexpectedResponse("expected RecordId")),
        }
    }

    /// Fetches one record.
    pub fn get(&mut self, id: RecordId) -> Result<StoredRecord> {
        match self.conn.call(&Request::GetRecord { id })? {
            Response::Record(record) => Ok(*record),
            _ => Err(ClientError::UnexpectedResponse("expected Record")),
        }
    }

    /// Deletes one record.
    pub fn delete(&mut self, id: RecordId, requester: &Identity) -> Result<()> {
        self.conn.call_ok(&Request::DeleteRecord {
            id,
            requester: requester.clone(),
        })
    }

    /// Lists a patient's record ids, optionally within one category.
    pub fn list(
        &mut self,
        patient: &Identity,
        category: Option<&Category>,
    ) -> Result<Vec<RecordId>> {
        let request = Request::ListRecords {
            patient: patient.clone(),
            category: category.cloned(),
        };
        match self.conn.call(&request)? {
            Response::RecordIds(ids) => Ok(ids),
            _ => Err(ClientError::UnexpectedResponse("expected RecordIds")),
        }
    }

    /// Total number of records on the node.
    pub fn record_count(&mut self) -> Result<u64> {
        match self.conn.call(&Request::RecordCount)? {
            Response::Count(n) => Ok(n),
            _ => Err(ClientError::UnexpectedResponse("expected Count")),
        }
    }

    /// Forces WAL durability for everything accepted so far.
    pub fn sync(&mut self) -> Result<()> {
        self.conn.call_ok(&Request::Sync)
    }

    /// The store's audit trail.
    pub fn audit_snapshot(&mut self) -> Result<Vec<AuditEvent>> {
        match self.conn.call(&Request::AuditSnapshot)? {
            Response::AuditEvents(events) => Ok(events),
            _ => Err(ClientError::UnexpectedResponse("expected AuditEvents")),
        }
    }

    /// The underlying connection (for ping/shutdown).
    pub fn connection(&mut self) -> &mut Connection {
        &mut self.conn
    }
}

/// Client for a proxy node.
#[derive(Debug)]
pub struct ProxyClient {
    conn: Connection,
}

impl ProxyClient {
    /// Connects to a proxy node.
    pub fn connect(
        addr: impl ToSocketAddrs,
        params: &Arc<PairingParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        Ok(ProxyClient {
            conn: Connection::connect(addr, params, config)?,
        })
    }

    /// Installs a re-encryption key (granting access).
    pub fn install_key(&mut self, key: ReEncryptionKey) -> Result<()> {
        self.conn
            .call_ok(&Request::InstallKey { key: Box::new(key) })
    }

    /// Removes a re-encryption key; `true` if a key was actually removed.
    pub fn revoke_key(
        &mut self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
    ) -> Result<bool> {
        let request = Request::RevokeKey {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
        };
        match self.conn.call(&request)? {
            Response::Bool(removed) => Ok(removed),
            _ => Err(ClientError::UnexpectedResponse("expected Bool")),
        }
    }

    /// Whether a grant is active.
    pub fn has_grant(
        &mut self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
    ) -> Result<bool> {
        let request = Request::HasGrant {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
        };
        match self.conn.call(&request)? {
            Response::Bool(has) => Ok(has),
            _ => Err(ClientError::UnexpectedResponse("expected Bool")),
        }
    }

    /// Number of installed re-encryption keys.
    pub fn key_count(&mut self) -> Result<u64> {
        match self.conn.call(&Request::KeyCount)? {
            Response::Count(n) => Ok(n),
            _ => Err(ClientError::UnexpectedResponse("expected Count")),
        }
    }

    /// Re-encrypts one record for a requester.
    pub fn disclose(
        &mut self,
        patient: &Identity,
        id: RecordId,
        requester: &Identity,
    ) -> Result<DisclosureBundle> {
        let request = Request::Disclose {
            patient: patient.clone(),
            id,
            requester: requester.clone(),
        };
        match self.conn.call(&request)? {
            Response::Bundle(bundle) => Ok(*bundle),
            _ => Err(ClientError::UnexpectedResponse("expected Bundle")),
        }
    }

    /// Issues one disclosure per `(patient, id, requester)` triple as a
    /// single pipelined run: every request is written before the first
    /// response is read, so the node executes them as one run.
    /// Responses come back in request order; per-item policy denials are
    /// values in the returned vector, while a transport failure aborts the
    /// whole run (the connection is no longer usable mid-pipeline).
    pub fn disclose_pipelined(
        &mut self,
        items: &[(Identity, RecordId, Identity)],
    ) -> Result<Vec<core::result::Result<DisclosureBundle, RemoteError>>> {
        let requests: Vec<Request> = items
            .iter()
            .map(|(patient, id, requester)| Request::Disclose {
                patient: patient.clone(),
                id: *id,
                requester: requester.clone(),
            })
            .collect();
        self.conn
            .call_pipelined(&requests)?
            .into_iter()
            .map(|response| match response {
                Response::Bundle(bundle) => Ok(Ok(*bundle)),
                Response::Error(e) => Ok(Err(e)),
                _ => Err(ClientError::UnexpectedResponse("expected Bundle")),
            })
            .collect()
    }

    /// The proxy's audit trail.
    pub fn audit_snapshot(&mut self) -> Result<Vec<AuditEvent>> {
        match self.conn.call(&Request::AuditSnapshot)? {
            Response::AuditEvents(events) => Ok(events),
            _ => Err(ClientError::UnexpectedResponse("expected AuditEvents")),
        }
    }

    /// Re-encrypts every record of one category for a requester.
    pub fn disclose_category(
        &mut self,
        patient: &Identity,
        category: &Category,
        requester: &Identity,
    ) -> Result<Vec<DisclosureBundle>> {
        let request = Request::DiscloseCategory {
            patient: patient.clone(),
            category: category.clone(),
            requester: requester.clone(),
        };
        match self.conn.call(&request)? {
            Response::Bundles(bundles) => Ok(bundles),
            _ => Err(ClientError::UnexpectedResponse("expected Bundles")),
        }
    }

    /// The underlying connection (for ping/shutdown).
    pub fn connection(&mut self) -> &mut Connection {
        &mut self.conn
    }
}

/// A store node viewed through [`RecordSource`]: the piece that lets a
/// *proxy node* serve disclosures for records held on a *store node*.
///
/// Requests are strictly serial per connection, so it keeps a pool of idle
/// connections: a call takes one, or connects if none is idle, and puts it
/// back afterwards — the pool grows to the most calls ever in flight at
/// once.  A connection whose call failed short of a decoded response may
/// have responses still in flight, so it is dropped rather than put back; a
/// [`ClientError::Remote`] leaves the stream in step and keeps it.  An idle
/// connection the store has since closed (its idle timeout), or one holding
/// unread bytes, is dropped when taken, before a request goes out on it.  A
/// call is never retried: `LogDisclosure` and `LogPolicyChange` are not
/// idempotent.
pub struct RemoteStore {
    idle: Mutex<Vec<Connection>>,
    addrs: Vec<SocketAddr>,
    params: Arc<PairingParams>,
    config: ClientConfig,
}

impl RemoteStore {
    /// Connects to the store node.  One connection opens here, so an
    /// unreachable store fails now rather than on first use.
    pub fn connect(
        addr: impl ToSocketAddrs,
        params: &Arc<PairingParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let first = Connection::connect(&addrs[..], params, config)?;
        Ok(RemoteStore {
            idle: Mutex::new(vec![first]),
            addrs,
            params: Arc::clone(params),
            config: config.clone(),
        })
    }

    /// Runs `f` on an idle connection that is still open, or on a new one
    /// if none is, and returns the connection to the pool unless `f` left
    /// it out of step.  The pool's lock is never held across `f` or the
    /// liveness check.
    fn with_connection<T>(&self, f: impl FnOnce(&mut Connection) -> Result<T>) -> Result<T> {
        let idle = std::iter::from_fn(|| self.idle.lock().pop()).find(Connection::reusable);
        let mut conn = match idle {
            Some(conn) => conn,
            None => Connection::connect(&self.addrs[..], &self.params, &self.config)?,
        };
        let result = f(&mut conn);
        if matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
            self.idle.lock().push(conn);
        }
        result
    }

    fn call(&self, request: &Request) -> Result<Response> {
        self.with_connection(|conn| conn.call(request))
    }

    /// Sends a run of requests down ONE pooled connection pipelined: all
    /// frames in one flush, all responses read back in order.
    fn call_pipelined(&self, requests: &[Request]) -> Result<Vec<Response>> {
        self.with_connection(|conn| conn.call_pipelined(requests))
    }

    fn phr_call(&self, request: &Request) -> tibpre_phr::Result<Response> {
        self.call(request).map_err(transport_err)
    }
}

fn transport_err(e: ClientError) -> tibpre_phr::PhrError {
    match e {
        ClientError::Remote(remote) => remote.into_phr(),
        other => tibpre_phr::PhrError::Storage(other.to_string()),
    }
}

impl RecordSource for RemoteStore {
    fn list_for_patient(&self, patient: &Identity) -> tibpre_phr::Result<Vec<RecordId>> {
        let request = Request::ListRecords {
            patient: patient.clone(),
            category: None,
        };
        match self.phr_call(&request)? {
            Response::RecordIds(ids) => Ok(ids),
            _ => Err(tibpre_phr::PhrError::Storage(
                "store node answered ListRecords with the wrong variant".into(),
            )),
        }
    }

    fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> tibpre_phr::Result<Vec<RecordId>> {
        let request = Request::ListRecords {
            patient: patient.clone(),
            category: Some(category.clone()),
        };
        match self.phr_call(&request)? {
            Response::RecordIds(ids) => Ok(ids),
            _ => Err(tibpre_phr::PhrError::Storage(
                "store node answered ListRecords with the wrong variant".into(),
            )),
        }
    }

    fn get_many(&self, ids: &[RecordId]) -> Vec<tibpre_phr::Result<Arc<StoredRecord>>> {
        let requests: Vec<Request> = ids
            .iter()
            .map(|id| Request::GetRecord { id: *id })
            .collect();
        match self.call_pipelined(&requests) {
            Ok(responses) => responses
                .into_iter()
                .map(|response| match response {
                    Response::Record(record) => Ok(Arc::new(*record)),
                    Response::Error(err) => Err(err.into_phr()),
                    _ => Err(tibpre_phr::PhrError::Storage(
                        "store node answered GetRecord with the wrong variant".into(),
                    )),
                })
                .collect(),
            // A transport failure tears the whole pipelined run: every id
            // in the batch gets the same error.
            Err(e) => {
                let err = transport_err(e);
                ids.iter().map(|_| Err(err.clone())).collect()
            }
        }
    }

    fn log_disclosures(&self, entries: &[(RecordId, Identity, bool)]) {
        // Best-effort: the proxy keeps its own durable audit trail, and a
        // disclosure must not fail because the store's trail was
        // unreachable.  One pipelined run, not a round trip per entry.
        let requests: Vec<Request> = entries
            .iter()
            .map(|(id, requester, granted)| Request::LogDisclosure {
                id: *id,
                requester: requester.clone(),
                granted: *granted,
            })
            .collect();
        let _ = self.call_pipelined(&requests);
    }

    fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
    ) {
        let _ = self.call(&Request::LogPolicyChange {
            patient: patient.clone(),
            category: category.clone(),
            grantee: grantee.clone(),
            granted,
        });
    }
}

impl core::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RemoteStore(idle={})", self.idle.lock().len())
    }
}
