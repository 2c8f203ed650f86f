//! Golden protocol frames and the hostile-frame sweep built on them.
//!
//! One value of every `Request`, `Response` and `RemoteError` kind, plus a
//! non-zero `StatsReport`, is built from the seeded scheme world of
//! `tibpre_tests::fixture` at the toy level.  Three properties hold:
//!
//! - **Byte identity.**  SHA-256 of each value's frame under both envelopes
//!   is pinned; the digests were captured at `7bcdd2a`, before the protocol
//!   codec was derived from one declaration per message.
//! - **The same rejections.**  Every golden v1 frame is mutated in a fixed
//!   order (every truncation; each byte set to `0x00`, to `0xFF` and to its
//!   value plus one; each 4-byte window set to `u32::MAX` and to the bytes
//!   remaining plus one; each 8-byte window set to `u64::MAX`) and decoded
//!   as its type.  Each
//!   verdict is the SHA-256 of the re-encoding, or the error's offset and
//!   kind (without its `what` label); the SHA-256 of the whole verdict
//!   stream is pinned.  Nothing may panic; an accepted frame must re-encode
//!   to bytes that decode to the same re-encoding; and no decode may make an
//!   allocation larger than its input plus a fixed allowance for the boxed
//!   values it builds — an over-allocation aborts the test binary.
//! - **One `BadRequest`, then close.**  For every request kind a live toy
//!   node is sent a truncated frame, a frame with an unassigned tag and,
//!   where the kind has one, a frame with its first count or length at the
//!   maximum.  Each draws one `BadRequest` and EOF, and the node still
//!   answers `Ping` afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tibpre_client::{
    params_for_level, ClientConfig, Connection, NodeRole, RemoteError, Request, Response,
    StatsReport,
};
use tibpre_hash::Sha256;
use tibpre_pairing::{DecodeCtx, SecurityLevel};
use tibpre_phr::{Category, RecordId};
use tibpre_server::{node, NodeConfig};
use tibpre_tests::compressed;
use tibpre_tests::fixture::{World, TITLE};
use tibpre_wire::{
    read_frame, DecodeErrorKind, WireDecode, WireEncode, WireVersion, DEFAULT_MAX_FRAME,
};

// ---------------------------------------------------------------------------
// The allocation guard.

/// Room for the fixed-size values a decode builds regardless of its input
/// (boxed records, keys, bundles and their decoded group elements).
const ALLOWANCE: usize = 16 << 10;

thread_local! {
    /// The largest single allocation this thread may make (armed only
    /// around a sweep decode).
    static CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator, aborting when an armed thread exceeds its cap.
struct Guard;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a read of a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Guard {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        check(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        check(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        check(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GUARD: Guard = Guard;

fn check(size: usize) {
    if size > CAP.try_with(Cell::get).unwrap_or(usize::MAX) {
        let _ = std::io::stderr().write_all(b"protocol_frames: a decode over-allocated\n");
        std::process::abort();
    }
}

/// Runs `f` with this thread's allocations capped at `cap` bytes each.
fn capped<T>(cap: usize, f: impl FnOnce() -> T) -> T {
    CAP.with(|c| c.set(cap));
    let out = f();
    CAP.with(|c| c.set(usize::MAX));
    out
}

// ---------------------------------------------------------------------------
// The golden values.

fn ctx() -> DecodeCtx {
    DecodeCtx::from(&params_for_level(SecurityLevel::Toy))
}

fn world() -> World {
    World::new(params_for_level(SecurityLevel::Toy))
}

fn requests(w: &World) -> Vec<Request> {
    let (alice, doctor) = (&w.alice, &w.doctor);
    vec![
        Request::Ping,
        Request::Shutdown,
        Request::PublicParams,
        Request::Extract {
            identity: alice.clone(),
        },
        Request::PutRecord {
            patient: alice.clone(),
            category: Category::Emergency,
            title: TITLE.into(),
            ciphertext: Box::new(w.hybrid.clone()),
        },
        Request::GetRecord { id: RecordId(7) },
        Request::DeleteRecord {
            id: RecordId(8),
            requester: alice.clone(),
        },
        Request::ListRecords {
            patient: alice.clone(),
            category: Some(Category::Custom("genomics".into())),
        },
        Request::RecordCount,
        Request::Sync,
        Request::AuditSnapshot,
        Request::LogDisclosure {
            id: RecordId(9),
            requester: doctor.clone(),
            granted: true,
        },
        Request::LogPolicyChange {
            patient: alice.clone(),
            category: Category::Medication,
            grantee: doctor.clone(),
            granted: false,
        },
        Request::InstallKey {
            key: Box::new(w.rekey.clone()),
        },
        Request::RevokeKey {
            patient: alice.clone(),
            category: Category::Emergency,
            grantee: doctor.clone(),
        },
        Request::HasGrant {
            patient: alice.clone(),
            category: Category::LabResults,
            grantee: doctor.clone(),
        },
        Request::KeyCount,
        Request::Disclose {
            patient: alice.clone(),
            id: RecordId(1),
            requester: doctor.clone(),
        },
        Request::DiscloseCategory {
            patient: alice.clone(),
            category: Category::Emergency,
            requester: doctor.clone(),
        },
        Request::SubscribeReplication {
            applied: vec![0, 4096, u64::MAX],
        },
        Request::Promote,
        Request::Stats,
    ]
}

fn report() -> StatsReport {
    StatsReport {
        batches: 5,
        batched_requests: 40,
        bypass: 12,
        queue_depth: 3,
        queue_peak: 17,
        hist: [1, 2, 3, 4, 5, 6, 7, 8],
        positions: vec![10, 0, 7],
        writable: true,
    }
}

fn responses(w: &World) -> Vec<Response> {
    vec![
        Response::Pong {
            role: NodeRole::Store,
            level: "toy".into(),
        },
        Response::Ok,
        Response::Bool(true),
        Response::Count(42),
        Response::RecordId(RecordId(3)),
        Response::RecordIds(vec![RecordId(1), RecordId(2), RecordId(9)]),
        Response::Record(Box::new(w.record.clone())),
        Response::PublicParams(Box::new(w.patients.clone())),
        Response::PrivateKey(Box::new(w.doctor_key.clone())),
        Response::Bundle(Box::new(w.bundle.clone())),
        Response::Bundles(vec![w.bundle.clone()]),
        Response::AuditEvents(w.audit.clone()),
        Response::ShuttingDown,
        Response::Error(RemoteError::WrongRole("kgc".into())),
        Response::ReplicaStatus {
            positions: vec![10, 0, 7],
            writable: true,
        },
        Response::SnapshotGeneration {
            shard: 3,
            gen: 9,
            wal_offset: 4096,
            bytes: vec![0xAB; 32],
        },
        Response::SegmentChunk {
            shard: 1,
            start: 128,
            bytes: vec![0xCD; 16],
        },
        Response::Stats(report()),
    ]
}

fn remote_errors() -> Vec<RemoteError> {
    vec![
        RemoteError::NotFound,
        RemoteError::AccessDenied {
            category: "emergency".into(),
            requester: "mallory".into(),
        },
        RemoteError::PolicyConflict("duplicate grant".into()),
        RemoteError::BadRequest("no proxy for category".into()),
        RemoteError::WrongRole("kgc".into()),
        RemoteError::ShuttingDown,
        RemoteError::Internal("disk full".into()),
    ]
}

/// Every kind, by name — a new kind fails to compile here until it has a
/// golden value above and pinned digests below.
fn kind_name(message: &Message) -> &'static str {
    match message {
        Message::Request(r) => match r {
            Request::Ping => "Ping",
            Request::Shutdown => "Shutdown",
            Request::PublicParams => "PublicParams",
            Request::Extract { .. } => "Extract",
            Request::PutRecord { .. } => "PutRecord",
            Request::GetRecord { .. } => "GetRecord",
            Request::DeleteRecord { .. } => "DeleteRecord",
            Request::ListRecords { .. } => "ListRecords",
            Request::RecordCount => "RecordCount",
            Request::Sync => "Sync",
            Request::AuditSnapshot => "AuditSnapshot",
            Request::LogDisclosure { .. } => "LogDisclosure",
            Request::LogPolicyChange { .. } => "LogPolicyChange",
            Request::InstallKey { .. } => "InstallKey",
            Request::RevokeKey { .. } => "RevokeKey",
            Request::HasGrant { .. } => "HasGrant",
            Request::KeyCount => "KeyCount",
            Request::Disclose { .. } => "Disclose",
            Request::DiscloseCategory { .. } => "DiscloseCategory",
            Request::SubscribeReplication { .. } => "SubscribeReplication",
            Request::Promote => "Promote",
            Request::Stats => "Stats",
        },
        Message::Response(r) => match r {
            Response::Pong { .. } => "Pong",
            Response::Ok => "Ok",
            Response::Bool(_) => "Bool",
            Response::Count(_) => "Count",
            Response::RecordId(_) => "RecordId",
            Response::RecordIds(_) => "RecordIds",
            Response::Record(_) => "Record",
            Response::PublicParams(_) => "PublicParams",
            Response::PrivateKey(_) => "PrivateKey",
            Response::Bundle(_) => "Bundle",
            Response::Bundles(_) => "Bundles",
            Response::AuditEvents(_) => "AuditEvents",
            Response::ShuttingDown => "ShuttingDown",
            Response::Error(_) => "Error",
            Response::ReplicaStatus { .. } => "ReplicaStatus",
            Response::SnapshotGeneration { .. } => "SnapshotGeneration",
            Response::SegmentChunk { .. } => "SegmentChunk",
            Response::Stats(_) => "Stats",
        },
        Message::Error(e) => match e {
            RemoteError::NotFound => "NotFound",
            RemoteError::AccessDenied { .. } => "AccessDenied",
            RemoteError::PolicyConflict(_) => "PolicyConflict",
            RemoteError::BadRequest(_) => "BadRequest",
            RemoteError::WrongRole(_) => "WrongRole",
            RemoteError::ShuttingDown => "ShuttingDown",
            RemoteError::Internal(_) => "Internal",
        },
        Message::Report(_) => "StatsReport",
    }
}

/// One golden value of any of the four message types.
enum Message {
    Request(Request),
    Response(Response),
    Error(RemoteError),
    Report(StatsReport),
}

impl Message {
    fn frame(&self, version: WireVersion) -> Vec<u8> {
        match self {
            Message::Request(m) => m.to_wire_bytes_versioned(version),
            Message::Response(m) => m.to_wire_bytes_versioned(version),
            Message::Error(m) => m.to_wire_bytes_versioned(version),
            Message::Report(m) => m.to_wire_bytes_versioned(version),
        }
    }

    /// Decodes `frame` as this value's type and appends the verdict.
    fn judge(&self, frame: &[u8], ctx: &DecodeCtx, out: &mut Vec<u8>) {
        match self {
            Message::Request(_) => verdict::<Request>(frame, ctx, out),
            Message::Response(_) => verdict::<Response>(frame, ctx, out),
            Message::Error(_) => verdict::<RemoteError>(frame, &(), out),
            Message::Report(_) => verdict::<StatsReport>(frame, &(), out),
        }
    }
}

fn golden(w: &World) -> Vec<Message> {
    let mut all: Vec<Message> = requests(w).into_iter().map(Message::Request).collect();
    all.extend(responses(w).into_iter().map(Message::Response));
    all.extend(remote_errors().into_iter().map(Message::Error));
    all.push(Message::Report(report()));
    all
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// Byte identity.

/// `(kind, SHA-256 of the v0 frame, SHA-256 of the v1 frame)` per golden
/// value, captured at `7bcdd2a`; the three `Stats` rows were pinned when
/// that verb replaced `ReplicationStatus` and `SchedStats`.  The v1 digests
/// of the seven frames that carry a `G1` or `Gt` element were re-pinned
/// when the writers stopped compressing them (a `G1` point carries `y`, a
/// `Gt` element its torus coordinate).
const PINNED_FRAMES: &[(&str, &str, &str)] = &[
    (
        "Ping",
        "f5e0da8d7a9a79e7141b9e674d0d70eefd2f5416fda74ef18c8665bfc3812a54",
        "83d9749292117a7555982bfdbec3c4bd6eebc4ccd972e62d55f08e74217a1adb",
    ),
    (
        "Shutdown",
        "ff9b320889a7939031ba1d6ba0313a207740477a0492c58f0ed5f4e6cb8ab318",
        "6f3d721648df05a0250811fc01b5aeda312601af478a2a589ee3ed28f5d8a3f7",
    ),
    (
        "PublicParams",
        "ccec14ad1d46418e127e29d125f1dab58834fe6bfb2acca13d42c05ad28a4d85",
        "1f6bfd046b01cd8ac9826f6dfcf531f997289f5be46ab94dca0180c4b769aec3",
    ),
    (
        "Extract",
        "09be360aef0561d218bae70e206cea28d5f80b9d95bf5842bdfa55a6700fa5db",
        "cac621b3da7f8f5c6bfa42e777ec2cfbd90ddc25ae15b108333e9fa4fedb4eba",
    ),
    (
        "PutRecord",
        "6f65448efed5399b010767793871b5930d7abfbc8b445be3e939a8581e5d1866",
        "f50979a748c454e0f644d3fe3fd4f0e16dc38e19daf61ba1f43618e42715e288",
    ),
    (
        "GetRecord",
        "7deb4866665dd2bc14d686148f58427978a0d2a6fab84a94824fa8afa5fafc0b",
        "e67552663a33d17622f943d35827f65abaa312e393a40225a5332f4ddc7a03a5",
    ),
    (
        "DeleteRecord",
        "d1cc4fc1be38b1a9ed57b3968f35795a8339fd2a7e21ce8db38573416c9b9320",
        "e6514e8ba8578e4ee61b7e8f1e72a45b7d5d3e8b44c800b124a8185042422c2d",
    ),
    (
        "ListRecords",
        "549789f211fff46359221f5e28fe2b27c66ac74d08930df05a250b1dc3c7ecdb",
        "8f057246444594e637b625d25753f926ec3740bf8ffa5b1e9c94d354581641bf",
    ),
    (
        "RecordCount",
        "2b272b2033690e6ef105b42bcb4701ae4d9a0cd42c0b3d207472eb3506881592",
        "587875e507cbf5cdc697a25ddfd32fbf37fa0d08415945f0ba15afb83025e6aa",
    ),
    (
        "Sync",
        "507d0c98da538d8f970989bcf99fd98d76174c2449b70e9b2d6ed2968e4ab770",
        "219c4ae77be3272439074c9972f3d04ca680897583b12649450447dc30d1cec5",
    ),
    (
        "AuditSnapshot",
        "3c7ec1783836ee0c281abb259a1f355aff5bc34973cad07bc6aa29e5ae2fb22d",
        "dd0cff16993eb833b49499aaea1167dfc052dfdcf4cc1127093f7d8cc3f818e5",
    ),
    (
        "LogDisclosure",
        "b7cf80b3b33ad7d849395086ad3fc4051d191dc77da934b84c10690ba53ac56f",
        "4f902165cd84cad2b13e807ca0bd5a3d07f2532d960985eddc139d1159d27b80",
    ),
    (
        "LogPolicyChange",
        "9b42c1eb2ee42a00d3e98dd36d5814f2f7ffe462dfa6d7b1e9073d7a38fde50d",
        "470e08e4129b1ed5eb537800e2110d922f771bcacd4963596f7bb3b1c62218e7",
    ),
    (
        "InstallKey",
        "a1b00cf47c793cb624858d78bab15151da732d7b79d0de22c6c66b0665890ad9",
        "5b0de8cd69207b9f9c95b28644a8636d8e03d04ba35a3f235fcdee50c4dc1fc3",
    ),
    (
        "RevokeKey",
        "e92c076f71577c9d7f3d354861cb878f2f5c0f2ff735c24e0cd34be7e7b1606c",
        "76911364a7bed96175215fc2d8e11afe659558df6a81e7a16bd91bdfebde2ef6",
    ),
    (
        "HasGrant",
        "7203b114acfd8dc66bc0745090234efe5e2b49fe35d0ec2afe264a659d5bb5c4",
        "9e77fe484be849205e9134004f929122cf05e8c704142e43174c9d2bb63081ec",
    ),
    (
        "KeyCount",
        "94109eb98cc350b71728bc777e8b301a508e69c065780918bc2c2e5404985efe",
        "91d90634757c8842725fed95030aa0f5be0bb6f025fcfdb55c2c958412ecd816",
    ),
    (
        "Disclose",
        "374e5bf99401d3627005787c20db36075d4e5cd755823e72a941d39f61a8a9c6",
        "519c9fed6e4fbe0dba879a7534864d52d5d815ff0cc04ed4f97983cd468c96a4",
    ),
    (
        "DiscloseCategory",
        "38cc3aead16fb27aa804cd7d6c043663cf9ead884bc7b752e35c3f9aec0a0f50",
        "08c5e987e4cff13f4a97eff14c0cec661b62310b264dc4611ccf3e1602127e4d",
    ),
    (
        "SubscribeReplication",
        "81cc21a8da4c90f014034890c27b6e7a9c8d4a7779c5d9e9fe2b94934d0c357e",
        "939a076e01160aa4dd8747339a7f4c7480cbc8389682d922c087171e635472b1",
    ),
    (
        "Promote",
        "b62c306a16f1069fd1859c1997e6d54eca0ac4a218c5c9dc67697ca594c65208",
        "0da855bdb849afaeab53a6da70c5d2fcb36ba56ea6884b0389749818f151d077",
    ),
    (
        "Stats",
        "3f9947a251eae52be634fd95f346b7c439ff32cc2bb9682efb12de5f93d071b9",
        "3a7cba971cb6df3b1fa9493774daca37ee71de70ba888e673d4e76a2ca53a8de",
    ),
    (
        "Pong",
        "19f89d6b6d72895b50cb27edc66dffa26687fbad62f8ad41868b7dbdb7bde72b",
        "690960da504586092cec9147f3d749b5e3bce43e334de50c5bad9683a163a301",
    ),
    (
        "Ok",
        "ff9b320889a7939031ba1d6ba0313a207740477a0492c58f0ed5f4e6cb8ab318",
        "6f3d721648df05a0250811fc01b5aeda312601af478a2a589ee3ed28f5d8a3f7",
    ),
    (
        "Bool",
        "ab95bd25d7d42aa8ad8bb2613411264012a658cf3d00fd1e8411cd8a7501eb8c",
        "97a4e3b9bea3ed65311072966b959448f6b5e0b78af0cd692240d16942998ec3",
    ),
    (
        "Count",
        "538c9b0d58e145994fec85ab0ddb309019a7586f678fc43c1418e8bb84aed925",
        "4011a97dc7b60e82ae1f1be6305b5cdbfe7b83a6943065f7abc0cfe1947a6932",
    ),
    (
        "RecordId",
        "e6d17905b4fbed0b987789ae827c109174fc0189e699077e5e6d2bc93a8cc7ea",
        "3642ef2db3040daea84b69b36519ce9584af4bbff7b89c51731aee729be1ec14",
    ),
    (
        "RecordIds",
        "f90498e7ee22786f6c51afbce5e0789d32a2c6bbd5a668d8c0c9f57d458d5d8b",
        "853c88c3fdfcf6031237ef35aa965fe40ab735821879010cb27649b14d979a55",
    ),
    (
        "Record",
        "664210a38766d8058f91e660c486efd690466784852d8e09571d07d411689218",
        "4cddacc1a6cc3415349c1fc80922af54ecb0aad59770eb011187932c98412d3f",
    ),
    (
        "PublicParams",
        "985d20e3f0e2323b1ba12cf1020ae6c8bdb0fc1ab3f14b6fc43e22b6307ce1bf",
        "659c19064535b7158f8f278484f29ac12bf4f319ba797c3b5b8cfe061f3fb733",
    ),
    (
        "PrivateKey",
        "ec86bc09d2b1bf2d9059a0aa8f1798575842d81eb3c82a2b0dca6597705bda04",
        "f5c3ee35f1a54fb5c06ed09d55ae1098ad2e5306621532f10227cfd7173e39bc",
    ),
    (
        "Bundle",
        "af57f42495b13a720280b4311d54a41a8ea2a7d7efd710b324741b96ed7a21d1",
        "bd5fa2cdfdb9f4320cdf2faf509a03ffdeccca880154fe58f5b164a8f9571d95",
    ),
    (
        "Bundles",
        "f5243e3fc5550a75aa6402f39926ede169b032f4a95c88a08cb8391a3ea0c0fd",
        "e871aa4a543abe9436248e9e22a0379cb1a2698d91eed40def80629b7250dda1",
    ),
    (
        "AuditEvents",
        "6c4ee5c34ad445f50bec1abb38d865cf5215d841d189ea91492e302220b4dfbb",
        "58c7c3e00a2075b4ab52efddddc60831b371f2bbda4b776148444f78d12c22a8",
    ),
    (
        "ShuttingDown",
        "cc70eaa52ee21cbb39bf4bd00c2b7050d24d3e80d403dcc1ee667503ccaee862",
        "ee634fd7ea8d3a0133e584bd8498f25ec648f2362bce361f372ef9f48633176d",
    ),
    (
        "Error",
        "a769baad2bf517c948ebd931fc874b74ac25dedc0a347c6f52e9fdf546a757e5",
        "065d9edcc42bb0aff4b945ec83c82f7b40301416d35baa0c1843826fc8983ed4",
    ),
    (
        "ReplicaStatus",
        "40e99bc42be07514b92d0185d6a722da30f8ba3c93c82c8167340cec929e4ce4",
        "02cb1168f6405bdca8d1a82949628f9b8dab4f79aec386128a4278264cf76c7c",
    ),
    (
        "SnapshotGeneration",
        "208638274e526b1b4e79e41d6405534117b6af160540cdc9ec7d2bee5d4dc657",
        "180338cb27bcaaa4a1e3a23183702fee77eef38022c2001f0127d97169e760b1",
    ),
    (
        "SegmentChunk",
        "b361615d92123454e7e8f8022990053de86238d58f8dc187b7ad3c53bff361ad",
        "f2187df272d44bf2840a5ec10da00c9d34533ee0ffe2773bd48c2890ed364586",
    ),
    (
        "Stats",
        "7ea023b72d6aaeb3eaa64ab2b659e19c8b95af756c68d5e1acd9295ca5b9c6a1",
        "591831ebe89c92865562004afd40428ea08dd3733b32f696910c9e713667aade",
    ),
    (
        "NotFound",
        "f5e0da8d7a9a79e7141b9e674d0d70eefd2f5416fda74ef18c8665bfc3812a54",
        "83d9749292117a7555982bfdbec3c4bd6eebc4ccd972e62d55f08e74217a1adb",
    ),
    (
        "AccessDenied",
        "afe327797ad71fea569956b89eb86c58b966919703334ea9eb68e356c186a110",
        "c1aab534bc2b8764a8fc870933241a2a27817a5f4b30cecfc25904766d10c172",
    ),
    (
        "PolicyConflict",
        "ac36b17d3a92e8fcca0f63fe008d57e5e7fead1537a5c1ab9051fdf46bf8571b",
        "99321f51f31c2465a795c56932dc4d1282049dc3c7133284025242fa6fde4389",
    ),
    (
        "BadRequest",
        "34741b2c6f1279f9c13e6907786592e2986317052edf2c344def68fed827495e",
        "0d109f150f1ed9bc049935081d603a2580883f6beb0dd1c5d337c4425651229d",
    ),
    (
        "WrongRole",
        "475fa5d8207225b89d4ff85d2c0e88d546cc7ebfd97a4eb522edb7bc9ca470c8",
        "f4d3b15049b3aeb0550375559a811fb3f569af5820b5410f264eaf73abc098fd",
    ),
    (
        "ShuttingDown",
        "1b8842e6fe594f1fd563137dc9fd1a26589d19a602a3d8899fc7ebe7a2ff0ac7",
        "3faf99a50abdfa755baa7a7601d1e28b8db8347d147d8c4e733d06e2f63a0a9a",
    ),
    (
        "Internal",
        "8f45686e2359e443655b74a6c8e4e58fb60d3cc97d1b18e9ba75938c7b783643",
        "7212921956adbdc3f2e4b6871d30df3f40ecfe2bcebbc75a9ae6a73d74383260",
    ),
    (
        "StatsReport",
        "34a1c078c8aec4f8c05ea09eb58d5cd9eee1f4ba2045e1864c360318a8007fc2",
        "eba3950250a68f52c44c7ceb4ab510269af47911bb9f04e90718302b28e088a3",
    ),
];

#[test]
fn golden_frames_match_their_pinned_digests() {
    let w = world();
    let got: Vec<(&str, String, String)> = golden(&w)
        .iter()
        .map(|m| {
            let digest = |v| hex(&Sha256::digest(&m.frame(v)));
            (
                kind_name(m),
                digest(WireVersion::V0),
                digest(WireVersion::V1),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, v0, v1)| format!("    (\"{n}\", \"{v0}\", \"{v1}\"),\n"))
        .collect();
    assert_eq!(got.len(), PINNED_FRAMES.len(), "got\n{table}");
    for ((name, v0, v1), (want_name, want_v0, want_v1)) in got.iter().zip(PINNED_FRAMES) {
        assert_eq!(name, want_name);
        assert_eq!(v0, want_v0, "{name} under v0");
        assert_eq!(v1, want_v1, "{name} under v1");
    }
}

// ---------------------------------------------------------------------------
// The hostile-frame sweep.

/// Decodes `frame` as `T` under the allocation cap and appends its verdict:
/// `0 ‖ SHA-256(re-encoding)` or `1 ‖ offset ‖ kind` (labels left out).
fn verdict<T: WireEncode + WireDecode>(frame: &[u8], ctx: &T::Ctx, out: &mut Vec<u8>) {
    match capped(frame.len() + ALLOWANCE, || T::from_wire_bytes(frame, ctx)) {
        Ok(value) => {
            let version = WireVersion::from_tag(frame[0]).expect("an accepted envelope");
            let bytes = value.to_wire_bytes_versioned(version);
            let again = T::from_wire_bytes(&bytes, ctx).expect("a re-encoding decodes");
            assert_eq!(again.to_wire_bytes_versioned(version), bytes);
            out.push(0);
            out.extend_from_slice(&Sha256::digest(&bytes));
        }
        Err(e) => {
            out.push(1);
            out.extend_from_slice(&(e.offset as u64).to_be_bytes());
            let numbers: &[usize] = match e.kind {
                DecodeErrorKind::Truncated { expected, got } => &[0, expected, got],
                DecodeErrorKind::TrailingBytes { trailing } => &[1, trailing],
                DecodeErrorKind::UnknownVersion { tag } => &[2, tag as usize],
                DecodeErrorKind::InvalidTag { tag, .. } => &[3, tag as usize],
                DecodeErrorKind::Invalid { .. } => &[4],
            };
            for n in numbers {
                out.extend_from_slice(&(*n as u64).to_be_bytes());
            }
        }
    }
}

/// Every mutation of `frame`, in the sweep's fixed order.
fn mutations(frame: &[u8]) -> Vec<Vec<u8>> {
    let n = frame.len();
    let mut all: Vec<Vec<u8>> = (0..n).map(|cut| frame[..cut].to_vec()).collect();
    let with = |at: usize, bytes: &[u8]| {
        let mut m = frame.to_vec();
        m[at..at + bytes.len()].copy_from_slice(bytes);
        m
    };
    for (i, byte) in frame.iter().enumerate() {
        for b in [0x00, 0xFF, byte.wrapping_add(1)] {
            all.push(with(i, &[b]));
        }
    }
    for i in 0..n.saturating_sub(3) {
        let remaining_plus_one = (n - i - 4 + 1) as u32;
        all.push(with(i, &u32::MAX.to_be_bytes()));
        all.push(with(i, &remaining_plus_one.to_be_bytes()));
    }
    for i in 0..n.saturating_sub(7) {
        all.push(with(i, &u64::MAX.to_be_bytes()));
    }
    all
}

/// SHA-256 of the verdict stream over every mutation of every golden v1
/// frame, captured at `7bcdd2a` and re-pinned when `Stats` replaced
/// `ReplicationStatus` and `SchedStats`.  Besides the verdicts of the
/// swapped frames, three verdicts moved, each a tag byte plus one that now
/// lands on a retired tag: `SubscribeReplication` (40 → 41), `Promote`
/// (42 → 43) and `SegmentChunk` (17 → 18) now draw `InvalidTag`.
/// Re-pinned again with those seven frames: their elements' bytes and
/// offsets moved.
const PINNED_VERDICTS: &str = "810c8a782c2390260a3b592e2edf6eb25d8bff8adc08f5decfe86aefd68aa492";

#[test]
fn hostile_mutations_of_every_golden_frame_draw_the_pinned_verdicts() {
    let (w, ctx) = (world(), ctx());
    let mut stream = Vec::new();
    let mut count = 0;
    for message in golden(&w) {
        let frame = message.frame(WireVersion::V1);
        let mut own = Vec::new();
        message.judge(&frame, &ctx, &mut own);
        assert_eq!(
            own[0],
            0,
            "the golden {} frame decodes",
            kind_name(&message)
        );
        stream.extend(own);
        for mutated in mutations(&frame) {
            message.judge(&mutated, &ctx, &mut stream);
            count += 1;
        }
    }
    assert_eq!(
        hex(&Sha256::digest(&stream)),
        PINNED_VERDICTS,
        "{count} mutations"
    );
}

// ---------------------------------------------------------------------------
// Hostile frames against a live node.

/// The payload offset and width of `request`'s first count or length
/// field, if it has one.
fn first_count_or_length(request: &Request, frame: &[u8]) -> Option<(usize, usize)> {
    match request {
        Request::GetRecord { .. } => None,
        Request::DeleteRecord { .. } | Request::LogDisclosure { .. } => Some((10, 4)),
        Request::SubscribeReplication { .. } => Some((2, 8)),
        _ if frame.len() > 2 => Some((2, 4)),
        _ => None,
    }
}

/// Sends `payload` as one frame on a fresh connection and expects one
/// `BadRequest`, then EOF.
fn expect_bad_request_then_close(addr: std::net::SocketAddr, payload: &[u8], what: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    let answer = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .unwrap_or_else(|| panic!("{what}: EOF before the answer"));
    match Response::from_wire_bytes(&answer, &ctx()).unwrap() {
        Response::Error(RemoteError::BadRequest(_)) => {}
        other => panic!("{what}: expected BadRequest, got {other:?}"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{what}: bytes after the BadRequest");
}

#[test]
fn hostile_request_frames_draw_one_bad_request_then_close() {
    let handle = node::start(NodeConfig::new(NodeRole::Store)).expect("node boot");
    let w = world();
    for request in requests(&w) {
        let name = request.kind();
        let frame = request.to_wire_bytes();
        expect_bad_request_then_close(handle.addr(), &frame[..frame.len() - 1], name);
        let mut unassigned = frame.clone();
        unassigned[1] = 0xFF;
        expect_bad_request_then_close(handle.addr(), &unassigned, name);
        if let Some((at, width)) = first_count_or_length(&request, &frame) {
            let mut max = frame.clone();
            max[at..at + width].fill(0xFF);
            expect_bad_request_then_close(handle.addr(), &max, name);
        }
    }
    // The element forms the writers emit, made hostile inside an upload:
    // the header is `0x04 ‖ x ‖ y` (`c₁`), then `0x05 ‖ t` (`c₂`).
    let params = params_for_level(SecurityLevel::Toy);
    let flen = params.fp_ctx().byte_len();
    let p = params.p().to_be_bytes(flen).unwrap();
    let header = &w.hybrid.header;
    let put = Request::PutRecord {
        patient: w.alice.clone(),
        category: Category::Emergency,
        title: TITLE.into(),
        ciphertext: Box::new(w.hybrid.clone()),
    }
    .to_wire_bytes();
    let bare = tibpre_wire::encode_bare(header, WireVersion::V1);
    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bare = bare.clone();
        edit(&mut bare);
        bare
    };
    let torus_member = [&[0x04][..], &header.c2.to_bytes()].concat();
    let cases = [
        ("off-curve (x, y)", edited(&|h| h[2 * flen] ^= 0x01)),
        (
            "y = p",
            edited(&|h| h[1 + flen..1 + 2 * flen].copy_from_slice(&p)),
        ),
        (
            "t = p",
            edited(&|h| h[2 + 2 * flen..2 + 3 * flen].copy_from_slice(&p)),
        ),
        (
            "torus member under 0x04",
            edited(&|h| drop(h.splice(1 + 2 * flen..2 + 3 * flen, torus_member.clone()))),
        ),
    ];
    for (what, hostile) in cases {
        let frame = compressed::edit_header(&put, &w.hybrid, header, |_| hostile);
        expect_bad_request_then_close(handle.addr(), &frame, what);
    }
    let c1 = tibpre_wire::encode_bare(&header.c1, WireVersion::V1);
    let at = put.windows(c1.len()).position(|x| x == c1).unwrap();
    let inside_y = &put[..at + 2 * flen];
    expect_bad_request_then_close(handle.addr(), inside_y, "a truncated y");

    let mut conn = Connection::connect(handle.addr(), &params, &ClientConfig::default()).unwrap();
    assert_eq!(conn.ping().unwrap().0, NodeRole::Store);
    handle.shutdown();
    handle.wait();
}

/// The regression case of the one defect the allocation guard found: a
/// `Bundles` or `AuditEvents` count that passes the 4-bytes-per-element
/// bound while each element is far larger in memory than on the wire.
/// 16 384 claimed elements over 64 KiB of input once reserved 16 384 ×
/// `size_of::<DisclosureBundle>()` ≈ 19 MB before the first element failed.
#[test]
fn a_count_of_large_elements_cannot_pre_allocate_beyond_its_input() {
    const BODY: usize = 64 << 10;
    for tag in [11, 12] {
        let mut frame = vec![WireVersion::V1.tag(), tag];
        frame.extend_from_slice(&(BODY as u64 / 4).to_be_bytes());
        frame.resize(frame.len() + BODY, 0);
        let mut out = Vec::new();
        verdict::<Response>(&frame, &ctx(), &mut out);
        assert_eq!(out[0], 1, "response tag {tag} is rejected");
    }
}
