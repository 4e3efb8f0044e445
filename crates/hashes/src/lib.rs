//! # eks-hashes — MD5, SHA-1 and SHA-256 from scratch
//!
//! The test functions of the paper's password-cracking application
//! (Section IV): the *Message Digest algorithm 5* (RFC 1321), the *Secure
//! Hash Algorithm 1* (RFC 3174) and SHA-256 (FIPS 180-4, used by the
//! Bitcoin-mining motivation in the paper's introduction).
//!
//! Besides the streaming implementations, this crate provides the
//! single-block fast paths a cracking kernel uses (candidate keys are at
//! most 20 bytes, far below the 55-byte single-block limit) and the two
//! MD5 optimizations of Section V:
//!
//! * [`md5_reverse`]: the BarsWF trick — because message word `w[0]`
//!   (the first 4 key bytes) is used by step 0 and step 48 but **not** by
//!   the last 15 steps, a search that only varies the first 4 bytes can
//!   *reverse* the final 15 steps from the target digest once, then run
//!   only 49 forward steps per candidate;
//! * early-exit comparison: each of the last steps produces one word of
//!   the result, so mismatches are detected before finishing the state
//!   comparison;
//! * [`md4_reverse`]: the same reversal for MD4 (the NTLM test
//!   function), where `w[0]` also skips the last 15 steps and the early
//!   exit drops three more — 30 forward steps and a one-word compare.
//!
//! Batched (multi-candidate) hashing follows the paper's Section V
//! per-architecture kernels: one family of compression cores, generic
//! over a vector leaf, instantiated by [`simd`] as explicit
//! AVX2/AVX-512/NEON kernels behind runtime CPU-feature detection and by
//! [`lanes`] over plain arrays as the portable fallback (vectorised only
//! as far as the build's target features let the compiler), all driven
//! through the [`LaneHasher`] trait.

pub mod algo;
pub mod digest;
pub mod lanes;
pub mod md4;
pub mod md4_reverse;
pub mod md5;
pub mod md5_reverse;
pub mod padding;
pub mod sha1;
pub mod sha1_partial;
pub mod sha256;
pub mod simd;

pub use algo::HashAlgo;
pub use digest::{from_hex, to_hex, Digest};
pub use lanes::{AutoVec, LaneHasher};
pub use simd::{cpu_features, SimdHasher, SimdIsa};
pub use md4::{md4, ntlm, Md4};
pub use md4_reverse::Md4PrefixSearch;
pub use md5::{md5, Md5};
pub use md5_reverse::Md5PrefixSearch;
pub use sha1::{sha1, Sha1};
pub use sha1_partial::Sha1PartialSearch;
pub use sha256::{sha256, sha256d, Sha256};
