//! Multi-precision integer arithmetic for the TIB-PRE pairing substrate.
//!
//! The crate provides a single fixed-capacity unsigned integer type, [`Uint`],
//! that holds up to [`MAX_BITS`] bits in a stack-allocated little-endian limb
//! array, together with the modular machinery the rest of the workspace needs:
//!
//! * plain ring arithmetic (addition, subtraction, schoolbook multiplication,
//!   binary long division, shifts, bit access),
//! * [`MontCtx`], a Montgomery-form modular context with CIOS multiplication,
//!   sliding-window exponentiation, a Lucas-sequence ladder,
//!   binary-extended-GCD inversion and [`Registers`] of the modulus' width,
//! * [`prime`], Miller–Rabin primality testing and random prime generation,
//! * hex / big-endian byte encoding and random sampling helpers.
//!
//! The capacity ([`MAX_LIMBS`] 64-bit limbs, i.e. 1664 bits) holds the
//! largest field prime used by the pairing crate (1536 bits) with a spare limb
//! for modular addition, and the 208-byte x-candidate `hash_to_curve` reads
//! at the 128-bit level.  [`MontCtx`] runs one limb kernel per modulus width
//! the security levels use and refuses any other.  All operations are *not*
//! constant time; the workspace documents that side-channel resistance is out
//! of scope for the reproduction.
//!
//! # Example
//!
//! ```
//! use tibpre_bigint::{Uint, MontCtx};
//!
//! let p = Uint::from_u64(1_000_003); // a small prime
//! let ctx = MontCtx::new(&p).unwrap();
//! let a = ctx.to_mont(&Uint::from_u64(12345));
//! let b = ctx.to_mont(&Uint::from_u64(67890));
//! let prod = ctx.from_mont(&ctx.mont_mul(&a, &b));
//! assert_eq!(prod, Uint::from_u64(12345u64 * 67890 % 1_000_003));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod error;
mod kernel;
pub mod limb;
pub mod mont;
pub mod prime;
pub mod random;
pub mod uint;

pub use error::BigIntError;
pub use mont::{MontCtx, OnRegisters, Registers};
pub use uint::{Uint, WideAcc, MAX_BITS, MAX_LIMBS};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, BigIntError>;
