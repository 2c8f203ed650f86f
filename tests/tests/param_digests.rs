//! The cached parameter sets are fixed points of the code that generates
//! them: `PairingParams::cached` seeds a deterministic search for `q`, `p`
//! and `g`, and computes `ê(g, g)` with the crate's pairing.  Every stored
//! key, ciphertext and golden fixture is only meaningful under those exact
//! values, so a change to prime search, point sampling, the Miller loop or
//! the final exponentiation that moves any of them must fail here, loudly,
//! rather than surface as undecryptable data.
//!
//! The toy level is always checked; `TIBPRE_TEST_LEVELS` adds the others
//! (`tibpre_tests::test_levels`).

use tibpre_hash::Sha256;
use tibpre_pairing::{PairingParams, SecurityLevel};
use tibpre_tests::test_levels as levels;

/// SHA-256 of `p`, `q` (minimal big-endian bytes), `generator()` and
/// `gt_generator()` (their uncompressed `to_bytes` encodings), per level.
fn pinned(level: SecurityLevel) -> [&'static str; 4] {
    match level {
        SecurityLevel::Toy => [
            "d8694fb058aa968b3eafc7bf66bbdc05d730d3aec39501565ce5334175772b2d",
            "a2cef0334fe52a3d044e0afa842170ac7c3bb47494bc9489d5bfbf15f5053bdc",
            "b8334b2c0621d735baff61a3d5d53ce8e7834afb931f33e54506cc874ea4217b",
            "a8f7697ef8189c8f034e96f92c45314622195b27012b74ad68f1a20a7760892e",
        ],
        SecurityLevel::Low80 => [
            "cffbcdac8c07f2a773f20a968cc9f52a9a0913df3c459e19638c12705d72a486",
            "1bcf8aeaa06292b28ca3971c403f6df06d182c6e0e08a08e4b6cff67be6724e6",
            "dfc5d042f0083d714ab67d18151ded4494bfe4396f1c67b979576f6205b362c6",
            "6cbb28d1246252c518458ab8dbb525826b1582fe63539bff7c3102f69d0a161b",
        ],
        SecurityLevel::Medium112 => [
            "42169971b43c61cd6b3630f8121c6071f579453472a399f7177b5ad951252868",
            "4f0d1367a409442a4392cbf1daab38140706cf029a0dc5d1d8dfd7695a005d23",
            "c64f78b872c8cf173fe3cf09c90f7b00252ef5f803bf0544221c08c570bb00a2",
            "1b155ca5ceb41be466356274fdc1ff43d9958d61f3ea84885c523b304d59c94f",
        ],
        SecurityLevel::High128 => [
            "46462c5b9496b1029a9871ad7f836ef043883439e82bcd2ac9f9707744b80bf3",
            "17a97d4e883f487e4532aec8937baeb90e93ea0a0d0b8eab5a30ef72090a00e5",
            "6ba1dbdd4354a765d7f4ee97e7ea0fd338e74db639deef5f14e34971632b5340",
            "9ec334df28392a56da13b4525a463899c883e3e6605d36144fb78e7569b77149",
        ],
    }
}

fn hex_digest(bytes: &[u8]) -> String {
    Sha256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn digests(params: &PairingParams) -> [String; 4] {
    [
        hex_digest(&params.p().to_be_bytes_minimal()),
        hex_digest(&params.q().to_be_bytes_minimal()),
        hex_digest(&params.generator().to_bytes()),
        hex_digest(&params.gt_generator().to_bytes()),
    ]
}

#[test]
fn cached_parameters_match_their_pinned_digests() {
    for params in levels() {
        let got = digests(&params);
        for ((name, got), want) in ["p", "q", "generator", "gt_generator"]
            .iter()
            .zip(&got)
            .zip(pinned(params.level()))
        {
            assert_eq!(got, want, "{name} at {:?}", params.level());
        }
    }
}
