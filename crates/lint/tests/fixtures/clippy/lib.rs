//! The fixtures of the rules clippy enforces, compiled as one crate.

#[path = "../d1_hash_collections.rs"]
pub mod d1;
#[path = "../d2_ambient_time.rs"]
pub mod d2;
#[path = "../p1_panic_paths.rs"]
pub mod p1;
