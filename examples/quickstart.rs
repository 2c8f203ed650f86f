//! Quickstart: the type-and-identity-based PRE scheme in ~60 lines.
//!
//! Walks through the paper's algorithms once, printing what happens at every
//! step: setup of the two domains, typed encryption, re-encryption-key
//! generation, proxy conversion, and delegatee decryption — plus the
//! fine-grainedness check (a key for one type refuses to convert another).
//!
//! Run with: `cargo run --bin quickstart`
//!
//! The same flow, assertion-checked on every `cargo test`, lives as the
//! "Quick start" doctest on the `tibpre_core` crate root.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_core::{proxy, Delegatee, Delegator, TypeTag};
use tibpre_examples::banner;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{PairingParams, SecurityLevel};
use tibpre_wire::WireEncode;

fn main() {
    let mut rng = StdRng::seed_from_u64(2008);

    banner("Setup: shared pairing parameters and two KGC domains");
    // The cached 80-bit parameter set matches the paper-era security level.
    // (Use `PairingParams::generate` with a fresh RNG in production.)
    let params = PairingParams::cached(SecurityLevel::Low80);
    println!("security level : {}", params.level().label());
    println!("group order q  : {} bits", params.q().bits());
    println!("field prime p  : {} bits", params.p().bits());

    let kgc1 = Kgc::setup(params.clone(), "patient-domain", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "clinician-domain", &mut rng);
    println!("KGC1 (delegator domain) and KGC2 (delegatee domain) share the parameters");

    banner("Key extraction");
    let alice = Identity::new("alice@phr.example");
    let doctor = Identity::new("dr.smith@heart-clinic.example");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let delegatee = Delegatee::new(kgc2.extract(&doctor));
    println!("delegator : {alice}  (one key pair, however many types she uses)");
    println!("delegatee : {doctor}");

    banner("Encrypt1: typed encryption to herself");
    let illness = TypeTag::new("illness-history");
    let diet = TypeTag::new("food-statistics");
    let secret_illness = params.random_gt(&mut rng);
    let secret_diet = params.random_gt(&mut rng);
    let ct_illness = delegator.encrypt_typed(&secret_illness, &illness, &mut rng);
    let ct_diet = delegator.encrypt_typed(&secret_diet, &diet, &mut rng);
    println!("encrypted one message of type '{illness}' and one of type '{diet}'");
    println!(
        "typed ciphertext size: {} bytes",
        ct_illness.to_wire_bytes().len()
    );
    assert_eq!(
        delegator.decrypt_typed(&ct_illness).unwrap(),
        secret_illness
    );
    println!("Decrypt1 by the delegator round-trips ✓");

    banner("Pextract: delegate ONLY the illness history to the doctor");
    let rk = delegator
        .make_reencryption_key(&doctor, kgc2.public_params(), &illness, &mut rng)
        .expect("domains share parameters");
    println!(
        "re-encryption key bound to (delegator={}, delegatee={}, type={})",
        rk.delegator(),
        rk.delegatee(),
        rk.type_tag()
    );
    println!("re-encryption key size: {} bytes", rk.to_wire_bytes().len());

    banner("Preenc: the proxy converts the illness-history ciphertext");
    let transformed = proxy::re_encrypt(&ct_illness, &rk).expect("types match");
    println!("proxy produced a re-encrypted ciphertext (Alice stayed offline)");

    banner("Delegatee decryption");
    let recovered = delegatee.decrypt_reencrypted(&transformed).unwrap();
    assert_eq!(recovered, secret_illness);
    println!("the doctor recovered the illness-history message ✓");

    banner("Fine-grainedness: the same key refuses the diet ciphertext");
    match proxy::re_encrypt(&ct_diet, &rk) {
        Err(e) => println!("proxy refused, as it must: {e}"),
        Ok(_) => unreachable!("a type mismatch must be refused"),
    }
    println!();
    println!("Done: one key pair, per-type delegation, no trust in the proxy beyond availability.");
}
