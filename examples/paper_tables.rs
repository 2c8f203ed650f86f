//! The paper's storage claims as tables: key material per delegator (E3)
//! and serialized sizes per security level (E5).
//!
//! "One key pair for the delegator" (Section 1.1) is a claim about stored
//! bytes: the type-based scheme keeps one private key however many
//! categories exist, where the one-identity-per-category baseline keeps one
//! per category.  Timings live in `benchmark/`; this binary only counts.
//!
//! Run with: `cargo run --release --bin paper_tables`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_core::TypeTag;
use tibpre_examples::baseline::multikey::MultiKeyDelegator;
use tibpre_examples::sizes::SizeReport;
use tibpre_examples::{banner, human_bytes};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{PairingParams, SecurityLevel};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let params = PairingParams::cached(SecurityLevel::Low80);
    let report = SizeReport::for_params(&params);
    let kgc = Kgc::setup(params, "patients", &mut rng);

    banner("E3: private-key material one delegator stores for T categories (80-bit)");
    println!(
        "{:>4} {:>16} {:>24}",
        "T", "TIB-PRE (ours)", "one key per category"
    );
    let mut baseline = MultiKeyDelegator::new(
        kgc.public_params().clone(),
        Identity::new("alice@phr.example"),
    );
    for types in [1usize, 2, 4, 8, 16, 32] {
        for i in baseline.stored_key_count()..types {
            baseline.register_type(&kgc, &TypeTag::new(format!("category-{i}")));
        }
        // The accounting and the keys actually extracted agree.
        assert_eq!(
            baseline.stored_key_bytes(),
            report.multikey_delegator_storage(types)
        );
        println!(
            "{types:>4} {:>16} {:>24}",
            human_bytes(report.tibpre_delegator_storage(types)),
            human_bytes(baseline.stored_key_bytes())
        );
    }

    banner("E5: serialized sizes per security level, v0 (uncompressed) vs v1 (default)");
    for level in [
        SecurityLevel::Toy,
        SecurityLevel::Low80,
        SecurityLevel::Medium112,
    ] {
        println!("{}", SizeReport::for_params(&PairingParams::cached(level)));
    }
}
