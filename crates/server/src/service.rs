//! Request dispatch for the three node roles.
//!
//! [`RoleService::handle_run`] is the single seam between the wire protocol
//! and the in-process scheme objects: it maps one run of a connection's
//! backlog — consecutive `Disclose` requests, or one other request — onto
//! the [`Kgc`] / [`EncryptedPhrStore`] / [`ProxyService`] call it names, and
//! maps every failure — including a panic in the handler — onto a
//! [`Response::Error`], so a connection thread can never poison the node.

use crate::replica::ReplicaControl;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tibpre_client::{NodeRole, RemoteError, Request, Response};
use tibpre_ibe::{Identity, Kgc};
use tibpre_phr::{EncryptedPhrStore, ProxyService, RecordId};

/// The role-specific state behind a node's listener.
pub enum RoleService {
    /// Key generation centre: answers `PublicParams` and `Extract`.
    /// Boxed: the KGC's cached parameter tables dwarf the other variants.
    Kgc(Box<Kgc>),
    /// Record store: CRUD, listing, audit, and durability control.
    Store {
        /// The record store itself (durable primary or in-memory replica).
        store: Arc<EncryptedPhrStore>,
        /// Present when this store is a read replica: holds the write gate
        /// and the per-shard applied offsets.
        replica: Option<Arc<ReplicaControl>>,
    },
    /// Re-encryption proxy: grant/revoke and disclosure.  The service locks
    /// its own key table, so disclosures on different connections run
    /// concurrently.
    Proxy(Box<ProxyService>),
}

impl RoleService {
    /// The role this service answers for.
    pub fn role(&self) -> NodeRole {
        match self {
            RoleService::Kgc(_) => NodeRole::Kgc,
            RoleService::Store { .. } => NodeRole::Store,
            RoleService::Proxy(_) => NodeRole::Proxy,
        }
    }

    /// The store, if this node holds one (used by the drain path to sync).
    pub fn store(&self) -> Option<&Arc<EncryptedPhrStore>> {
        match self {
            RoleService::Store { store, .. } => Some(store),
            _ => None,
        }
    }

    /// The replica control state, if this node is a read replica.
    pub fn replica(&self) -> Option<&Arc<ReplicaControl>> {
        match self {
            RoleService::Store {
                replica: Some(control),
                ..
            } => Some(control),
            _ => None,
        }
    }

    /// Whether this node currently accepts writes: anything but an
    /// unpromoted replica.
    pub fn writable(&self) -> bool {
        self.replica().is_none_or(|control| control.writable())
    }

    /// A store's per-shard logical WAL positions: applied offsets on a
    /// replica, committed offsets on a primary; empty on the other roles.
    pub(crate) fn positions(&self) -> Vec<u64> {
        match self {
            RoleService::Store {
                replica: Some(control),
                ..
            } => control.positions(),
            RoleService::Store { store, .. } => store.replication_positions(),
            _ => Vec::new(),
        }
    }

    /// Executes one run of a connection's backlog: consecutive `Disclose`
    /// requests (one [`ProxyService::disclose_batch`] call on a proxy), or a
    /// single other request.  Exactly one response per request, in request
    /// order.  Never panics: a panicking handler is reported as
    /// [`RemoteError::Internal`] on every request of the run and the
    /// connection stays usable.
    pub fn handle_run(&self, run: Vec<Request>) -> Vec<Response> {
        let role = self.role();
        let len = run.len();
        catch_unwind(AssertUnwindSafe(|| self.dispatch_run(run))).unwrap_or_else(|_| {
            vec![
                Response::Error(RemoteError::Internal(format!(
                    "request handler panicked on the {} node",
                    role.name()
                )));
                len
            ]
        })
    }

    fn dispatch_run(&self, run: Vec<Request>) -> Vec<Response> {
        if let (RoleService::Proxy(proxy), Some(Request::Disclose { .. })) = (self, run.first()) {
            return Self::disclose_run(proxy, run);
        }
        run.into_iter().map(|r| self.dispatch(r)).collect()
    }

    /// A run of `Disclose` requests is one [`ProxyService::disclose_batch`]
    /// call (one record fetch, batched pairing work, group-committed audit
    /// writes) — the only place a `Disclose` is served.
    fn disclose_run(proxy: &ProxyService, run: Vec<Request>) -> Vec<Response> {
        let items: Vec<(Identity, RecordId, Identity)> = run
            .into_iter()
            .map(|request| match request {
                Request::Disclose {
                    patient,
                    id,
                    requester,
                } => (patient, id, requester),
                other => unreachable!("a {} request inside a Disclose run", other.kind()),
            })
            .collect();
        let disclosed = proxy.disclose_batch(&items);
        // A short answer would desynchronise the connection; inside
        // `handle_run` this panic answers `Internal` for the whole run.
        assert_eq!(disclosed.len(), items.len(), "one result per disclosure");
        disclosed
            .into_iter()
            .map(|disclosed| match disclosed {
                Ok(bundle) => Response::Bundle(Box::new(bundle)),
                Err(e) => Response::Error(RemoteError::from_phr(&e)),
            })
            .collect()
    }

    fn dispatch(&self, request: Request) -> Response {
        match self {
            RoleService::Kgc(kgc) => Self::dispatch_kgc(kgc, request),
            RoleService::Store { store, replica } => {
                Self::dispatch_store(store, replica.as_deref(), request)
            }
            RoleService::Proxy(proxy) => Self::dispatch_proxy(proxy, request),
        }
    }

    fn wrong_role(role: NodeRole, request: &Request) -> Response {
        Response::Error(RemoteError::WrongRole(format!(
            "{} is not served by the {} role",
            request.kind(),
            role.name()
        )))
    }

    fn dispatch_kgc(kgc: &Kgc, request: Request) -> Response {
        match request {
            Request::PublicParams => Response::PublicParams(Box::new(kgc.public_params().clone())),
            Request::Extract { identity } => Response::PrivateKey(Box::new(kgc.extract(&identity))),
            other => Self::wrong_role(NodeRole::Kgc, &other),
        }
    }

    /// Whether a request mutates store state (gated on an unpromoted
    /// replica).
    fn mutates_store(request: &Request) -> bool {
        matches!(
            request,
            Request::PutRecord { .. }
                | Request::DeleteRecord { .. }
                | Request::LogDisclosure { .. }
                | Request::LogPolicyChange { .. }
        )
    }

    fn dispatch_store(
        store: &EncryptedPhrStore,
        replica: Option<&ReplicaControl>,
        request: Request,
    ) -> Response {
        if let Some(control) = replica {
            if !control.writable() && Self::mutates_store(&request) {
                return Response::Error(RemoteError::WrongRole(
                    "read replica (writes go to the primary; promote to accept them here)"
                        .to_string(),
                ));
            }
        }
        match request {
            Request::Promote => match replica {
                Some(control) => {
                    control.promote();
                    Response::Ok
                }
                None => Response::Error(RemoteError::BadRequest(
                    "this store is not a replica; there is nothing to promote".to_string(),
                )),
            },
            Request::PutRecord {
                patient,
                category,
                title,
                ciphertext,
            } => Response::RecordId(store.put(&patient, &category, &title, *ciphertext)),
            Request::GetRecord { id } => match store.get(id) {
                Ok(record) => Response::Record(Box::new((*record).clone())),
                Err(e) => Response::Error(RemoteError::from_phr(&e)),
            },
            Request::DeleteRecord { id, requester } => match store.delete(id, &requester) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(RemoteError::from_phr(&e)),
            },
            Request::ListRecords { patient, category } => Response::RecordIds(match category {
                Some(category) => store.list_for_patient_category(&patient, &category),
                None => store.list_for_patient(&patient),
            }),
            Request::RecordCount => Response::Count(store.record_count() as u64),
            Request::Sync => match store.sync() {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(RemoteError::from_phr(&e)),
            },
            Request::AuditSnapshot => Response::AuditEvents(
                store
                    .audit_snapshot()
                    .iter()
                    .map(|event| (**event).clone())
                    .collect(),
            ),
            Request::LogDisclosure {
                id,
                requester,
                granted,
            } => {
                store.log_disclosure(id, &requester, granted);
                Response::Ok
            }
            Request::LogPolicyChange {
                patient,
                category,
                grantee,
                granted,
            } => {
                store.log_policy_change(&patient, &category, &grantee, granted);
                Response::Ok
            }
            other => Self::wrong_role(NodeRole::Store, &other),
        }
    }

    /// Everything a proxy serves except `Disclose`, which
    /// [`Self::disclose_run`] serves.
    fn dispatch_proxy(proxy: &ProxyService, request: Request) -> Response {
        match request {
            Request::InstallKey { key } => {
                proxy.install_key(*key);
                Response::Ok
            }
            Request::RevokeKey {
                patient,
                category,
                grantee,
            } => Response::Bool(proxy.revoke_key(&patient, &category, &grantee)),
            Request::HasGrant {
                patient,
                category,
                grantee,
            } => Response::Bool(proxy.has_grant(&patient, &category, &grantee)),
            Request::KeyCount => Response::Count(proxy.key_count() as u64),
            Request::DiscloseCategory {
                patient,
                category,
                requester,
            } => match proxy.disclose_category(&patient, &category, &requester) {
                Ok(bundles) => Response::Bundles(bundles),
                Err(e) => Response::Error(RemoteError::from_phr(&e)),
            },
            Request::AuditSnapshot => Response::AuditEvents(proxy.audit_snapshot()),
            other => Self::wrong_role(NodeRole::Proxy, &other),
        }
    }
}
