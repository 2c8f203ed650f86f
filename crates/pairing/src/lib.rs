//! Symmetric ("Type A") pairing substrate for the TIB-PRE workspace.
//!
//! The scheme of Ibraimi et al. is stated over two multiplicative groups `G`
//! and `G1` of prime order with an efficiently computable bilinear map
//! `ê : G × G → G1`.  The standard instantiation of that abstraction — and the
//! one the original Boneh–Franklin paper uses — is a supersingular elliptic
//! curve with a distortion map, which is what this crate builds from scratch:
//!
//! * **Field tower** — [`Fp`] (prime field, Montgomery arithmetic on top of
//!   `tibpre-bigint`) and [`Fp2`] = `F_p[i]/(i² + 1)`, which requires the field
//!   prime to satisfy `p ≡ 3 (mod 4)`.
//! * **Curve** — the supersingular curve `E : y² = x³ + x` over `F_p`, which
//!   has exactly `p + 1` points.  Parameters are generated so that
//!   `p + 1 = h·q` for a large prime `q`; the order-`q` subgroup is the
//!   pairing group `G` ([`G1Affine`]).  Inside the crate one Jacobian point
//!   runs every curve walk — scalar multiplication, the fixed-base tables
//!   and the Miller table build — with one doubling and one mixed addition.
//! * **Distortion map** — `φ(x, y) = (−x, i·y)` maps `E(F_p)` into
//!   `E(F_{p²}) \ E(F_p)`, making the modified Tate pairing
//!   `ê(P, Q) = e(P, φ(Q))` non-degenerate on `G × G` (a "Type 1" /
//!   symmetric pairing, exactly the object the paper works with).
//! * **Pairing** — Miller's algorithm in the BKLS form (denominator
//!   elimination thanks to the even embedding degree), run once per fixed
//!   argument into a [`PreparedPairing`] table, followed by the batched
//!   final exponentiation `(p² − 1)/q` in [`pairing`]; the result lives in
//!   the order-`q` subgroup [`Gt`] of `F_{p²}^*`.
//! * **Hashing** — `MapToPoint`-style hash-to-curve and hash-to-scalar oracles
//!   in [`hash`], used by the IBE and PRE layers for `H1` and `H2`.
//! * **Parameters** — [`PairingParams`] generation for several security
//!   levels, with process-wide cached instances.
//! * **Precomputation** — [`precomp`] provides fixed-base multiplication
//!   tables ([`G1Precomp`]) and fixed-argument prepared pairings
//!   ([`PreparedPairing`]); the parameter set caches the table for `g`, and
//!   the scheme layers cache both for `pk`, private keys, and re-encryption
//!   keys.
//!
//! The scheme layers treat this crate the way they would treat `arkworks` or
//! `pbc`: as the group-and-pairing provider.  See `DESIGN.md` for why this
//! substitution is faithful to the paper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod counts;
pub mod curve;
pub mod error;
pub mod fp;
pub mod fp2;
pub mod generations;
pub mod gt;
pub mod hash;
pub mod pairing;
pub mod params;
pub mod precomp;
pub mod scalar;
pub mod wire;

pub use counts::OpCounts;
pub use curve::G1Affine;
pub use error::PairingError;
pub use fp::{Fp, FpCtx};
pub use fp2::Fp2;
pub use generations::Generations;
pub use gt::Gt;
pub use params::{PairingParams, SecurityLevel};
pub use precomp::{multi_pairing, G1Precomp, PreparedPairing};
pub use scalar::{Scalar, ScalarCtx};
pub use wire::DecodeCtx;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, PairingError>;

// The affine reference pairing of the test package, compiled into the unit
// tests as well so they cross-check the Miller loop against the same single
// oracle.  It names this crate by its package name.
#[cfg(test)]
extern crate self as tibpre_pairing;
#[cfg(test)]
#[path = "../../../tests/src/oracle.rs"]
mod oracle;
