//! Golden on-disk frames and the hostile-frame sweep built on them.
//!
//! One value of every `WalOp`, `ProxyWalOp` and `AuditEvent` variant is
//! built from the seeded scheme world of `tibpre_tests::fixture` at the toy
//! level.  These are the bytes a store or a proxy writes to its WAL, and the
//! bytes a replica receives from its primary.  Four properties hold:
//!
//! - **Byte identity.**  SHA-256 of each value's frame under both envelopes
//!   is pinned, as are the audit metadata and the record index metadata of
//!   one snapshotted shard; all were captured at `3f0cab4`, before these
//!   types derived their codecs from one declaration each.
//! - **The same rejections.**  Every golden v1 `WalOp` and `ProxyWalOp`
//!   frame is put through `protocol_frames`' mutation set, in the same
//!   order, and decoded as its type; each verdict is the SHA-256 of the
//!   re-encoding, or the error's offset and kind (without its `what`
//!   label), and the SHA-256 of the whole verdict stream is pinned.
//! - **No over-allocation.**  No decode may make an allocation larger than
//!   its input plus `protocol_frames`' allowance; an over-allocation aborts
//!   the test binary.
//! - **The same legacy rejections.**  Every golden v0 `WalOp` and
//!   `ProxyWalOp` frame goes through the same mutation set and is decoded
//!   as its type, which is what `legacy::read_frame` does with a `0xE0`
//!   frame; the SHA-256 of that verdict stream is pinned too, captured at
//!   `07a5f1b`, before the scheme values derived their codecs.
//! - **Replica apply.**  Every mutated `WalOp` frame is fed to
//!   `EncryptedPhrStore::apply_replication_frame` on an in-memory store,
//!   under the same allocation cap: each call returns `Ok` or `Err`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use tibpre_client::params_for_level;
use tibpre_hash::Sha256;
use tibpre_pairing::{DecodeCtx, SecurityLevel};
use tibpre_phr::durable::{Durability, ProxyWalOp, WalOp};
use tibpre_phr::{AuditEvent, Category, EncryptedPhrStore, FsyncPolicy, RecordId};
use tibpre_storage::{snapshot, TempDir};
use tibpre_tests::fixture::{World, TITLE};
use tibpre_wire::{DecodeErrorKind, WireDecode, WireEncode, WireVersion};

// ---------------------------------------------------------------------------
// The allocation guard (the one `protocol_frames` installs; a global
// allocator belongs to one test binary).

/// Room for the fixed-size values a decode builds regardless of its input.
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
        let _ = std::io::stderr().write_all(b"disk_frames: a decode over-allocated\n");
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

fn events(w: &World) -> Vec<AuditEvent> {
    let (alice, doctor) = (&w.alice, &w.doctor);
    vec![
        AuditEvent::RecordStored {
            id: RecordId(1),
            patient: alice.clone(),
            category: Category::Emergency,
            at: 1,
        },
        AuditEvent::RecordDeleted {
            id: RecordId(1),
            at: 2,
        },
        AuditEvent::AccessGranted {
            patient: alice.clone(),
            category: Category::Custom("genomics".into()),
            grantee: doctor.clone(),
            at: 3,
        },
        AuditEvent::AccessRevoked {
            patient: alice.clone(),
            category: Category::Medication,
            grantee: doctor.clone(),
            at: 4,
        },
        AuditEvent::DisclosurePerformed {
            id: RecordId(7),
            requester: doctor.clone(),
            at: 5,
        },
        AuditEvent::DisclosureDenied {
            id: RecordId(8),
            requester: doctor.clone(),
            at: u64::MAX,
        },
    ]
}

fn wal_ops(w: &World) -> Vec<WalOp> {
    vec![
        WalOp::Put {
            record: Box::new(w.record.clone()),
            at: 1,
        },
        WalOp::Delete {
            id: RecordId(1),
            at: 2,
        },
        WalOp::Audit {
            event: events(w)[4].clone(),
        },
    ]
}

fn proxy_ops(w: &World) -> Vec<ProxyWalOp> {
    vec![
        ProxyWalOp::Audit {
            event: events(w)[2].clone(),
        },
        ProxyWalOp::InstallKey {
            key: Box::new(w.rekey.clone()),
        },
        ProxyWalOp::RevokeKey {
            patient: w.alice.clone(),
            category: Category::Emergency,
            grantee: w.doctor.clone(),
        },
    ]
}

/// One golden value of any of the three persisted types.
enum Persisted {
    Wal(WalOp),
    Proxy(ProxyWalOp),
    Event(AuditEvent),
}

/// Every variant, by name — a new variant fails to compile here until it
/// has a golden value above and pinned digests below.
fn kind_name(value: &Persisted) -> &'static str {
    match value {
        Persisted::Wal(op) => match op {
            WalOp::Put { .. } => "WalOp::Put",
            WalOp::Delete { .. } => "WalOp::Delete",
            WalOp::Audit { .. } => "WalOp::Audit",
        },
        Persisted::Proxy(op) => match op {
            ProxyWalOp::Audit { .. } => "ProxyWalOp::Audit",
            ProxyWalOp::InstallKey { .. } => "ProxyWalOp::InstallKey",
            ProxyWalOp::RevokeKey { .. } => "ProxyWalOp::RevokeKey",
        },
        Persisted::Event(event) => match event {
            AuditEvent::RecordStored { .. } => "RecordStored",
            AuditEvent::RecordDeleted { .. } => "RecordDeleted",
            AuditEvent::AccessGranted { .. } => "AccessGranted",
            AuditEvent::AccessRevoked { .. } => "AccessRevoked",
            AuditEvent::DisclosurePerformed { .. } => "DisclosurePerformed",
            AuditEvent::DisclosureDenied { .. } => "DisclosureDenied",
        },
    }
}

impl Persisted {
    fn frame(&self, version: WireVersion) -> Vec<u8> {
        match self {
            Persisted::Wal(op) => op.to_wire_bytes_versioned(version),
            Persisted::Proxy(op) => op.to_wire_bytes_versioned(version),
            Persisted::Event(event) => event.to_wire_bytes_versioned(version),
        }
    }

    /// Decodes `frame` as this value's type and appends the verdict.
    fn judge(&self, frame: &[u8], ctx: &DecodeCtx, out: &mut Vec<u8>) {
        match self {
            Persisted::Wal(_) => verdict::<WalOp>(frame, ctx, out),
            Persisted::Proxy(_) => verdict::<ProxyWalOp>(frame, ctx, out),
            Persisted::Event(_) => verdict::<AuditEvent>(frame, &(), out),
        }
    }
}

fn golden(w: &World) -> Vec<Persisted> {
    let mut all: Vec<Persisted> = wal_ops(w).into_iter().map(Persisted::Wal).collect();
    all.extend(proxy_ops(w).into_iter().map(Persisted::Proxy));
    all.extend(events(w).into_iter().map(Persisted::Event));
    all
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// Byte identity.

/// `(kind, SHA-256 of the v0 frame, SHA-256 of the v1 frame)` per golden
/// value, captured at `3f0cab4`.  The v1 digests of `WalOp::Put` and
/// `ProxyWalOp::InstallKey`, the two frames that carry a `G1` or `Gt`
/// element, were re-pinned when the writers stopped compressing them.
const PINNED_FRAMES: &[(&str, &str, &str)] = &[
    (
        "WalOp::Put",
        "2f1f272a2c8039d608d0766f5ffe2c2c36e6f6bf1bbb833397f98f3fdd0aec7d",
        "d7124b0f4c4e3e2d26c6f48a527fd6eee8db558fc40b866887f18cb408f9ab93",
    ),
    (
        "WalOp::Delete",
        "7e2ca008f78f6698221de6c7d10147c9e1d529b382689a46c88ada17a5745488",
        "b3f8283e5b21dcaab6092a2adb601b116363d374de7369f4e3f58bad69f89c4d",
    ),
    (
        "WalOp::Audit",
        "742e8b3337e6ccbc76cda06bcc2820409c4eec9f57ba481bbe28fc97c0781b06",
        "bcbddc7a17071cc1787dc748ac8c01de7427d246542fe16c4df2227aed000bff",
    ),
    (
        "ProxyWalOp::Audit",
        "d8f3736cc76093ef9354ddb8116e7b41d50a5f2462b8fd4562bb88b1811aa0b1",
        "5e574e3885a314c0075eacd61a9a422e9ed337a8c1a83e56fbf747db889d772e",
    ),
    (
        "ProxyWalOp::InstallKey",
        "992478888cc066aa7b1785572beb3c908ac261d08ae61b8f75fbaa4a1d6e9cd1",
        "da226c7bd351b1aa9f62efd355bd990dd0e38600528cb30af3ca130a2c9edb39",
    ),
    (
        "ProxyWalOp::RevokeKey",
        "814b9bfeb800ac97ba4e4a164a85a18c27bed14d1821cfe42bec163ba3a13fa9",
        "c3835bda014f49f708dfd49fe57e32b0e64495f180b44ddc34e312655a8c344e",
    ),
    (
        "RecordStored",
        "a31e7bd54f61c36a9956d0ba9a617f94ecf8fdc2e4fff726069961d366e10bb3",
        "3b39f86aee5121476b59e62e1362fff9421ad60e27c2d32ea06961a9f9ad6658",
    ),
    (
        "RecordDeleted",
        "7bebcd4ef91cb58778038846f86c8a79a416c880e2ca7e95e7f908b0cd00a414",
        "7df47f821a2a073698fa18e71053c8fd7738e1f66b6498ea856e98e387fb25a1",
    ),
    (
        "AccessGranted",
        "ac69baed1fe21974363a615598444f0118e4f0bb9944046afd8e61db2b2a1c70",
        "e288cfbc513ef94684f90ee8e667e4b2469a304874df07c265a3cd83722a57c9",
    ),
    (
        "AccessRevoked",
        "05f89c791e806aab8ab478b6af217b4e15eee0f8e8e2c1040ac17239fc7cab0c",
        "fb53bf019d59de63ba8914ea0c798829f923829977ae35a5f417d49a8bef0aa4",
    ),
    (
        "DisclosurePerformed",
        "9325eee43fcc682e6dd661d904ebda1af8373c7ce0e135f4560dfb423f1a5c96",
        "291fe8f8fb7d6c6c76ae02274f267ed6b868fb081ae6559f8490f324e66b4546",
    ),
    (
        "DisclosureDenied",
        "87921db6c7df74cd7969cc807bfc50672c870d28b11a9c0aa324ef9d58ae439c",
        "1fcd66a0e1b795e8e8a4b37ca93e518ea85f2dd1b35ff199498052e48c58494f",
    ),
];

#[test]
fn golden_frames_match_their_pinned_digests() {
    let w = world();
    let got: Vec<(&str, String, String)> = golden(&w)
        .iter()
        .map(|value| {
            let digest = |v| hex(&Sha256::digest(&value.frame(v)));
            (
                kind_name(value),
                digest(WireVersion::V0),
                digest(WireVersion::V1),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, v0, v1)| {
            format!("    (\n        \"{n}\",\n        \"{v0}\",\n        \"{v1}\",\n    ),\n")
        })
        .collect();
    assert_eq!(got.len(), PINNED_FRAMES.len(), "got\n{table}");
    for ((name, v0, v1), (want_name, want_v0, want_v1)) in got.iter().zip(PINNED_FRAMES) {
        assert_eq!(name, want_name);
        assert_eq!(v0, want_v0, "{name} under v0");
        assert_eq!(v1, want_v1, "{name} under v1");
    }
}

/// SHA-256 of one shard's snapshot audit metadata and of its one record's
/// index metadata, captured at `3f0cab4`.
const PINNED_SNAPSHOT_META: (&str, &str) = (
    "6960373729ec5d87a1f0d56945e52c51dae52a62d3652357700874132a28f5f6",
    "18325240906e28e04655f3567994bcb70101d353373b1b251c740fa751ce8f6c",
);

#[test]
fn snapshot_metadata_matches_its_pinned_digests() {
    let w = world();
    let dir = TempDir::new("disk-frames").unwrap();
    let durability = Durability::new(params_for_level(SecurityLevel::Toy))
        .shards(1)
        .fsync(FsyncPolicy::Never)
        .snapshot_every(0);
    let store = EncryptedPhrStore::open(dir.path(), durability).unwrap();
    let id = store.put(&w.alice, &Category::Emergency, TITLE, w.hybrid.clone());
    store.log_disclosure(id, &w.doctor, true);
    store.log_policy_change(&w.alice, &Category::Emergency, &w.doctor, true);
    store.log_disclosure(id, &w.doctor, false);
    store.force_snapshot().unwrap();
    let gen = *snapshot::list_generations(dir.path(), "shard-00")
        .unwrap()
        .iter()
        .max()
        .expect("one snapshot generation");
    let snap = snapshot::load_indexed(dir.path(), "shard-00", gen).unwrap();
    assert_eq!(snap.blob_count(), 1);
    let got = (
        hex(&Sha256::digest(snap.meta())),
        hex(&Sha256::digest(snap.index_meta(0).unwrap())),
    );
    assert_eq!(
        (got.0.as_str(), got.1.as_str()),
        PINNED_SNAPSHOT_META,
        "got {got:?}"
    );
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

/// Every mutation of `frame`, in `protocol_frames`' fixed order: every
/// truncation; each byte set to `0x00`, to `0xFF` and to its value plus
/// one; each 4-byte window set to `u32::MAX` and to the bytes remaining
/// plus one; each 8-byte window set to `u64::MAX`.
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
/// `WalOp` and `ProxyWalOp` frame, captured at `3f0cab4`, re-pinned with
/// the two frames above.
const PINNED_VERDICTS: &str = "b7a764ab3cd275f8e797dddafbe78721c983c07d4470b711406b1287e44a63d5";

#[test]
fn hostile_mutations_of_every_wal_frame_draw_the_pinned_verdicts() {
    let (w, ctx) = (world(), ctx());
    let mut stream = Vec::new();
    let mut count = 0;
    let ops = golden(&w)
        .into_iter()
        .filter(|value| !matches!(value, Persisted::Event(_)));
    for value in ops {
        let frame = value.frame(WireVersion::V1);
        let mut own = Vec::new();
        value.judge(&frame, &ctx, &mut own);
        assert_eq!(own[0], 0, "the golden {} frame decodes", kind_name(&value));
        stream.extend(own);
        for mutated in mutations(&frame) {
            value.judge(&mutated, &ctx, &mut stream);
            count += 1;
        }
    }
    assert_eq!(
        hex(&Sha256::digest(&stream)),
        PINNED_VERDICTS,
        "{count} mutations"
    );
}

/// SHA-256 of the verdict stream over every mutation of every golden v0
/// `WalOp` and `ProxyWalOp` frame, captured at `07a5f1b`.
const PINNED_V0_VERDICTS: &str = "84c1d1adf31b17693f045f3642fb20ef385268bb6ac7c7b2be5cc5f731c95244";

#[test]
fn hostile_mutations_of_every_v0_wal_frame_draw_the_pinned_verdicts() {
    let (w, ctx) = (world(), ctx());
    let mut stream = Vec::new();
    let mut count = 0;
    let ops = golden(&w)
        .into_iter()
        .filter(|value| !matches!(value, Persisted::Event(_)));
    for value in ops {
        let frame = value.frame(WireVersion::V0);
        let mut own = Vec::new();
        value.judge(&frame, &ctx, &mut own);
        assert_eq!(
            own[0],
            0,
            "the golden v0 {} frame decodes",
            kind_name(&value)
        );
        stream.extend(own);
        for mutated in mutations(&frame) {
            value.judge(&mutated, &ctx, &mut stream);
            count += 1;
        }
    }
    assert_eq!(
        hex(&Sha256::digest(&stream)),
        PINNED_V0_VERDICTS,
        "{count} mutations"
    );
}

/// How many mutated `WalOp` frames a replica applies and refuses, captured
/// at `3f0cab4`, re-pinned with the `WalOp::Put` frame: it is longer by
/// `|p|` bytes (`c₁`'s `y`), and a mutated torus coordinate decodes (to
/// another element) where a mutated compressed `c0` often had no square
/// root.
const PINNED_APPLY: (usize, usize) = (847, 955);

#[test]
fn a_replica_applies_or_refuses_every_mutated_wal_frame() {
    let w = world();
    let store =
        EncryptedPhrStore::in_memory_with_params("replica", params_for_level(SecurityLevel::Toy));
    let (mut applied, mut refused) = (0, 0);
    for op in wal_ops(&w) {
        let frame = op.to_wire_bytes();
        store.apply_replication_frame(0, &frame).unwrap();
        for mutated in mutations(&frame) {
            let cap = mutated.len() + ALLOWANCE;
            match capped(cap, || store.apply_replication_frame(0, &mutated)) {
                Ok(()) => applied += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert_eq!((applied, refused), PINNED_APPLY);
}
