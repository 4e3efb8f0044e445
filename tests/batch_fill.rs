//! The seeded and exhaustive block-writer properties of `eks-keyspace`,
//! run from the root package so that the tier-1 `cargo test -q` gates
//! them: the batched backends' candidate stream is only as right as this
//! writer.

#[path = "../crates/keyspace/tests/batch_fill.rs"]
mod batch_fill;
