//! End-to-end integration tests of the full TIB-PRE stack: pairing substrate,
//! IBE domains, typed encryption, delegation, proxy conversion and delegatee
//! decryption, for both group-element and byte-payload (hybrid) messages.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{hybrid, proxy, Delegatee, Delegator, Proxy, TypeTag};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{DecodeCtx, PairingParams};
use tibpre_wire::{WireDecode, WireEncode};

struct World {
    params: Arc<PairingParams>,
    kgc1: Kgc,
    kgc2: Kgc,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PairingParams::insecure_toy();
    let kgc1 = Kgc::setup(params.clone(), "delegator-domain", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "delegatee-domain", &mut rng);
    World {
        params,
        kgc1,
        kgc2,
        rng,
    }
}

#[test]
fn paper_walkthrough_single_delegation() {
    let mut w = world(1);
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));
    let delegatee = Delegatee::new(w.kgc2.extract(&bob));

    let t = TypeTag::new("illness-history");
    let m = w.params.random_gt(&mut w.rng);

    // Encrypt1 / Decrypt1.
    let ct = delegator.encrypt_typed(&m, &t, &mut w.rng);
    assert_eq!(delegator.decrypt_typed(&ct).unwrap(), m);

    // Pextract / Preenc / delegatee decryption.
    let rk = delegator
        .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
        .unwrap();
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
    assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
}

#[test]
fn many_types_one_key_pair() {
    // The paper's headline property: one delegator key pair supports an
    // arbitrary number of independently delegatable types.
    let mut w = world(2);
    let alice = Identity::new("alice");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));

    let types: Vec<TypeTag> = (0..8).map(|i| TypeTag::new(format!("type-{i}"))).collect();
    let delegatees: Vec<Identity> = (0..8)
        .map(|i| Identity::new(format!("delegatee-{i}")))
        .collect();

    for (t, dee) in types.iter().zip(delegatees.iter()) {
        let delegatee = Delegatee::new(w.kgc2.extract(dee));
        let m = w.params.random_gt(&mut w.rng);
        let ct = delegator.encrypt_typed(&m, t, &mut w.rng);
        let rk = delegator
            .make_reencryption_key(dee, w.kgc2.public_params(), t, &mut w.rng)
            .unwrap();
        let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
        assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    }
}

#[test]
fn type_isolation_between_two_delegatees() {
    // Bob is entitled to "illness-history", Charlie to "food-statistics".
    // Each re-encryption key works for its own type only (Section 1.1).
    let mut w = world(3);
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let charlie = Identity::new("charlie");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));
    let bob_delegatee = Delegatee::new(w.kgc2.extract(&bob));
    let charlie_delegatee = Delegatee::new(w.kgc2.extract(&charlie));

    let illness = TypeTag::new("illness-history");
    let diet = TypeTag::new("food-statistics");
    let m_illness = w.params.random_gt(&mut w.rng);
    let m_diet = w.params.random_gt(&mut w.rng);
    let ct_illness = delegator.encrypt_typed(&m_illness, &illness, &mut w.rng);
    let ct_diet = delegator.encrypt_typed(&m_diet, &diet, &mut w.rng);

    let rk_bob = delegator
        .make_reencryption_key(&bob, w.kgc2.public_params(), &illness, &mut w.rng)
        .unwrap();
    let rk_charlie = delegator
        .make_reencryption_key(&charlie, w.kgc2.public_params(), &diet, &mut w.rng)
        .unwrap();

    // The intended flows work.
    let for_bob = proxy::re_encrypt(&ct_illness, &rk_bob).unwrap();
    assert_eq!(
        bob_delegatee.decrypt_reencrypted(&for_bob).unwrap(),
        m_illness
    );
    let for_charlie = proxy::re_encrypt(&ct_diet, &rk_charlie).unwrap();
    assert_eq!(
        charlie_delegatee.decrypt_reencrypted(&for_charlie).unwrap(),
        m_diet
    );

    // The cross flows are refused by the type check...
    assert!(proxy::re_encrypt(&ct_diet, &rk_bob).is_err());
    assert!(proxy::re_encrypt(&ct_illness, &rk_charlie).is_err());

    // ... and even a proxy that forges the type label produces garbage.
    let mut relabelled = ct_diet.clone();
    relabelled.type_tag = illness.clone();
    let forced = proxy::re_encrypt(&relabelled, &rk_bob).unwrap();
    assert_ne!(bob_delegatee.decrypt_reencrypted(&forced).unwrap(), m_diet);

    // Delegatees cannot open each other's re-encrypted ciphertexts either.
    assert_ne!(
        charlie_delegatee.decrypt_reencrypted(&for_bob).unwrap(),
        m_illness
    );
}

#[test]
fn stateful_proxy_serves_multiple_delegations() {
    let mut w = world(4);
    let alice = Identity::new("alice");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));
    let mut proxy_store = Proxy::new("gateway");

    let pairs: Vec<(TypeTag, Identity)> = (0..4)
        .map(|i| {
            (
                TypeTag::new(format!("t{i}")),
                Identity::new(format!("dee{i}")),
            )
        })
        .collect();
    for (t, dee) in &pairs {
        let rk = delegator
            .make_reencryption_key(dee, w.kgc2.public_params(), t, &mut w.rng)
            .unwrap();
        proxy_store.install_key(rk);
    }
    assert_eq!(proxy_store.key_count(), 4);

    for (t, dee) in &pairs {
        let delegatee = Delegatee::new(w.kgc2.extract(dee));
        let m = w.params.random_gt(&mut w.rng);
        let ct = delegator.encrypt_typed(&m, t, &mut w.rng);
        let out = proxy_store.re_encrypt_for(&ct, &alice, dee).unwrap();
        assert_eq!(delegatee.decrypt_reencrypted(&out).unwrap(), m);
    }
}

#[test]
fn hybrid_mode_end_to_end_with_serialization() {
    let mut w = world(5);
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));
    let delegatee = Delegatee::new(w.kgc2.extract(&bob));
    let t = TypeTag::new("lab-results");

    let payload = vec![0x42u8; 10_000];
    let ct = delegator.encrypt_bytes(&payload, b"record-7", &t, &mut w.rng);
    assert_eq!(delegator.decrypt_bytes(&ct, b"record-7").unwrap(), payload);

    let rk = delegator
        .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
        .unwrap();

    // Exercise the wire formats of the header on the way.
    let header_bytes = ct.header.to_wire_bytes();
    let parsed_header =
        tibpre_core::TypedCiphertext::from_wire_bytes(&header_bytes, &DecodeCtx::from(&w.params))
            .unwrap();
    assert_eq!(parsed_header, ct.header);
    let rk_bytes = rk.to_wire_bytes();
    let parsed_rk =
        tibpre_core::ReEncryptionKey::from_wire_bytes(&rk_bytes, &DecodeCtx::from(&w.params))
            .unwrap();

    let transformed = hybrid::re_encrypt_hybrid(&ct, &parsed_rk).unwrap();
    assert_eq!(
        delegatee.decrypt_bytes(&transformed, b"record-7").unwrap(),
        payload
    );
    // Wrong associated data is rejected by the DEM.
    assert!(delegatee.decrypt_bytes(&transformed, b"record-8").is_err());
}

#[test]
fn delegation_chains_do_not_exist() {
    // The scheme is single-hop by design: a re-encrypted ciphertext is no
    // longer a typed ciphertext, so it cannot be fed into Preenc again.  This
    // is a compile-time property (different types); what we check here is the
    // runtime counterpart — the delegatee of hop 1 cannot act as a delegator
    // for the received ciphertext without re-encrypting the plaintext himself.
    let mut w = world(6);
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(w.kgc1.public_params().clone(), w.kgc1.extract(&alice));
    let bob_delegatee = Delegatee::new(w.kgc2.extract(&bob));
    let t = TypeTag::new("t");
    let m = w.params.random_gt(&mut w.rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut w.rng);
    let rk = delegator
        .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
        .unwrap();
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
    let recovered = bob_delegatee.decrypt_reencrypted(&transformed).unwrap();
    assert_eq!(recovered, m);
    // Bob can of course re-encrypt the *plaintext* under his own identity in
    // his own domain — but that is a fresh encryption, not a further hop.
    let bob_as_delegator = Delegator::new(w.kgc2.public_params().clone(), w.kgc2.extract(&bob));
    let fresh = bob_as_delegator.encrypt_typed(&recovered, &t, &mut w.rng);
    assert_eq!(bob_as_delegator.decrypt_typed(&fresh).unwrap(), m);
}

#[test]
fn works_with_freshly_generated_parameters_too() {
    // Everything above uses the cached toy parameters; make sure nothing
    // secretly depends on the cache by generating a fresh set.
    let mut rng = StdRng::seed_from_u64(7);
    let params = PairingParams::generate(tibpre_pairing::SecurityLevel::Toy, &mut rng).unwrap();
    let kgc1 = Kgc::setup(params.clone(), "fresh-1", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "fresh-2", &mut rng);
    let delegator = Delegator::new(
        kgc1.public_params().clone(),
        kgc1.extract(&Identity::new("alice")),
    );
    let delegatee = Delegatee::new(kgc2.extract(&Identity::new("bob")));
    let t = TypeTag::new("t");
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let rk = delegator
        .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
        .unwrap();
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
    assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
}
