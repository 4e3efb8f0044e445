//! The seeded `BlockBatch` run-fill property of `eks-keyspace`, run from
//! the root package so that the tier-1 `cargo test -q` gates it: the
//! batched backends' candidate stream is only as right as this writer.

#[path = "../crates/keyspace/tests/batch_fill.rs"]
mod batch_fill;
