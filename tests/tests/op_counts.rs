//! Operation counts per step of a disclosure, pinned at toy and at 80 bits.
//!
//! A count, unlike a time, is the same on every run, in debug and release,
//! so it moves only with the algorithm.  Counts are per thread
//! ([`OpCounts`]); every step here runs on the test's own thread.  The
//! frames the writers emit travel with every coordinate a decode needs, so
//! a hot disclosure solves no square root, while the compressed frames
//! older writers emitted (still read, since stored data is read as it was
//! written) solve one per group element.  Every torus `Gt` element costs
//! one `F_p` inversion to encode and one to decode.

use std::sync::Arc;
use tibpre_client::{params_for_level, Request, Response};
use tibpre_hash::Sha256;
use tibpre_pairing::{DecodeCtx, OpCounts, SecurityLevel};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::{Category, EncryptedPhrStore, HealthcareProvider, ProxyService};
use tibpre_tests::compressed;
use tibpre_tests::fixture::{World, PLAINTEXT, TITLE};
use tibpre_wire::{encode_bare, WireDecode, WireEncode, WireVersion};

/// `f`'s result and the operations it did on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
    let before = OpCounts::now();
    let out = f();
    (out, OpCounts::now() - before)
}

/// `sqrt` square roots and `inv` inversions, no record codec.
fn ops(sqrt: u64, inv: u64) -> OpCounts {
    OpCounts {
        sqrt,
        inv,
        ..OpCounts::default()
    }
}

/// Operations per step of one disclosure, in the order the steps run.
#[derive(Debug, PartialEq, Eq)]
struct Steps {
    /// The store node's decode of an uploaded record (`PutRecord`).
    put_decode: OpCounts,
    /// The store's `put` of the decoded record.
    put: OpCounts,
    /// The store node's answer to `GetRecord` for a hot record: `get`,
    /// then the `Response::Record` frame.
    get_record: OpCounts,
    /// The proxy's decode of the record the store sends
    /// (`Response::Record`).
    record_decode: OpCounts,
    /// `ProxyService::disclose_batch` of one request, in process.
    disclose_1: OpCounts,
    /// `ProxyService::disclose_batch` of 16 requests, in process.
    disclose_16: OpCounts,
    /// The proxy node's `Response::Bundle` frame.
    bundle_encode: OpCounts,
    /// The client's decode of the bundle.
    bundle_decode: OpCounts,
    /// The client's open of the decoded bundle on a mask hit.
    open: OpCounts,
}

/// The frames of one disclosure at `level`: as the writers emit them, or
/// (`old`) as the compressed writers did.
fn frames(w: &World, old: bool) -> [Vec<u8>; 3] {
    let put = Request::PutRecord {
        patient: w.alice.clone(),
        category: Category::Emergency,
        title: TITLE.into(),
        ciphertext: Box::new(w.hybrid.clone()),
    }
    .to_wire_bytes();
    let record = Response::Record(Box::new(w.record.clone())).to_wire_bytes();
    let bundle = w.bundle.to_wire_bytes();
    if !old {
        return [put, record, bundle];
    }
    let header = &w.hybrid.header;
    let put = compressed::edit_header(&put, &w.hybrid, header, |bare| {
        compressed::compress(bare, &[&header.c1], &[&header.c2])
    });
    let old_record = &compressed::record_frame(&w.record)[1..];
    let bare = encode_bare(&w.record, WireVersion::V1);
    let record = compressed::replace_nested(&record, &bare, old_record);
    [put, record, compressed::bundle_frame(&w.bundle)]
}

/// Counts every step at `level` over the frames [`frames`] builds.
fn count(level: SecurityLevel, old: bool) -> Steps {
    let params = params_for_level(level);
    let w = World::new(Arc::clone(&params));
    let ctx = DecodeCtx::from(&params);
    let [put, record, bundle] = frames(&w, old);

    let (request, put_decode) = counted(|| Request::from_wire_bytes(&put, &ctx).unwrap());
    let Request::PutRecord { ciphertext, .. } = request else {
        panic!("a PutRecord frame");
    };
    assert_eq!(*ciphertext, w.hybrid);
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "counts",
        params.clone(),
    ));
    let (id, put) = counted(|| store.put(&w.alice, &Category::Emergency, TITLE, *ciphertext));
    // `put` primed the read cache: the record is hot.
    let (served, get_record) = counted(|| {
        let record = store.get(id).unwrap();
        Response::Record(Box::new((*record).clone())).to_wire_bytes()
    });
    assert!(!served.is_empty());

    // A fresh record is encoded by the store (the compressed frames were
    // written beforehand), then decoded by the proxy.
    let fresh = || match old {
        true => record.clone(),
        false => Response::Record(Box::new(w.record.clone())).to_wire_bytes(),
    };
    let frame = fresh();
    let (response, record_decode) = counted(|| Response::from_wire_bytes(&frame, &ctx).unwrap());
    assert!(matches!(response, Response::Record(r) if *r == w.record));

    let proxy = ProxyService::new("counts", store);
    proxy.install_key(w.rekey.clone());
    let item = (w.alice.clone(), id, w.doctor.clone());
    let (mut one, disclose_1) = counted(|| proxy.disclose_batch(std::slice::from_ref(&item)));
    let (bundles, disclose_16) = counted(|| proxy.disclose_batch(&vec![item; 16]));
    assert!(bundles.iter().all(Result::is_ok));
    let disclosed = one.pop().unwrap().unwrap();
    let (_, bundle_encode) = counted(|| Response::Bundle(Box::new(disclosed)).to_wire_bytes());

    // The provider has opened this bundle's `c'₃` before: a mask hit.
    let provider = HealthcareProvider::new(w.doctor_key.clone());
    let warm = DisclosureBundle::from_wire_bytes(&bundle, &ctx).unwrap();
    assert_eq!(provider.open(&warm).unwrap().body, PLAINTEXT);
    let frame = match old {
        true => bundle,
        false => w.bundle.to_wire_bytes(),
    };
    let (decoded, bundle_decode) =
        counted(|| DisclosureBundle::from_wire_bytes(&frame, &ctx).unwrap());
    let (opened, open) = counted(|| provider.open(&decoded).unwrap());
    assert_eq!(opened.body, PLAINTEXT);
    Steps {
        put_decode,
        put,
        get_record,
        record_decode,
        disclose_1,
        disclose_16,
        bundle_encode,
        bundle_decode,
        open,
    }
}

/// What the writers' frames cost: no square root, and one inversion per
/// step.  The upload pays two (decode, `put`); a hot disclosure pays five
/// per record (serve, proxy decode, bundle encode, bundle decode, open)
/// plus one per `disclose_batch` run, so 5 + 1/16 in runs of 16.
#[test]
fn a_hot_disclosure_solves_no_square_root() {
    for level in [SecurityLevel::Toy, SecurityLevel::Low80] {
        let want = Steps {
            put_decode: ops(0, 1),
            put: OpCounts {
                record_encode: 1,
                ..ops(0, 1)
            },
            get_record: OpCounts {
                record_encode: 1,
                ..ops(0, 1)
            },
            record_decode: OpCounts {
                record_decode: 1,
                ..ops(0, 1)
            },
            disclose_1: ops(0, 1),
            disclose_16: ops(0, 1),
            bundle_encode: ops(0, 1),
            bundle_decode: ops(0, 1),
            open: ops(0, 1),
        };
        assert_eq!(count(level, false), want, "{level:?}");
    }
}

/// SHA-256 of the fixture's record, bundle and re-encryption key frames
/// as the compressed writers emitted them (`scheme_digests`' wire pins
/// before the writers changed), at toy and 80 bits.
const COMPRESSED_FRAMES: [[&str; 3]; 2] = [
    [
        "0a02dfa5b8341c504326a4fa52ce1296fc1b569dbcc705c1a59f82824b632520",
        "b13e4d8eab5a83d8ae9d73fdd9f01cf2df5f278b474a2eab26076cc4642f5118",
        "754632ca1a3af2642253746e8099314de9ce9d1b659260bf420d674760f87df6",
    ],
    [
        "99fd0601a1281a80f5fab5cab0c31493fec13862cf6e56130570699b9701da3c",
        "ee6214c8518551c5d2ee5e16ab5847c3cdce89e727223127f9f06778ee8d0f4e",
        "e7e1b6d150075665ed941c659ea7352d0597262e691c2bb432a5883ddf9e70b3",
    ],
];

/// What the compressed frames cost: one root per group element decoded,
/// four per hot disclosure (`c₁`, `c₂` at the proxy, `c'₁`, `c'₂` at the
/// client; `c'₃` is only framed on a mask hit), each in place of the
/// torus inversion; the steps that encode still write the torus form.
/// The frames are byte for byte those the compressed writers emitted.
#[test]
fn compressed_frames_still_cost_a_root_per_element() {
    for (level, pins) in [SecurityLevel::Toy, SecurityLevel::Low80]
        .into_iter()
        .zip(COMPRESSED_FRAMES)
    {
        let w = World::new(params_for_level(level));
        let frames = [
            compressed::record_frame(&w.record),
            compressed::bundle_frame(&w.bundle),
            compressed::rekey_frame(&w.rekey),
        ];
        for (frame, pin) in frames.iter().zip(pins) {
            let digest: String = Sha256::digest(frame)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(digest, pin, "{level:?}");
        }
        let want = Steps {
            put_decode: ops(2, 0),
            put: OpCounts {
                record_encode: 1,
                ..ops(0, 1)
            },
            get_record: OpCounts {
                record_encode: 1,
                ..ops(0, 1)
            },
            record_decode: OpCounts {
                record_decode: 1,
                ..ops(2, 0)
            },
            disclose_1: ops(0, 1),
            disclose_16: ops(0, 1),
            bundle_encode: ops(0, 1),
            bundle_decode: ops(2, 0),
            open: ops(0, 1),
        };
        assert_eq!(count(level, true), want, "{level:?}");
    }
}
