//! `lightwsp-store`: the persistent result store behind the
//! evaluation's figures and crash audits.
//!
//! Each record is keyed by
//! `(kind, workload, scheme, config-digest, point, code-digest)`
//! ([`StoreKey`]) and appended to one record log per store directory;
//! opening replays the log into a last-writer-wins index
//! ([`ResultStore`]). Values are text in the field-list format of
//! [`codec`] ([`Codec`], [`record_codec!`]). A config-knob change
//! misses exactly the cells whose config digest includes that knob;
//! the build-time code digest ([`digest`]) is global, so any edit to a
//! simulation source misses every record, while older records stay in
//! the log under their own digest. The crate is dependency-free.
//!
//! ```
//! use lightwsp_store::{ResultStore, StoreKey};
//!
//! let store = ResultStore::in_memory_with(0xC0DE);
//! let key = StoreKey::new("run", "bzip2", "LightWSP", 42, 0, store.code());
//! let (value, hit) = store.memo(&key, || "cycles=123".to_string());
//! assert!(!hit);
//! let (value2, hit2) = store.memo(&key, || unreachable!("served from store"));
//! assert!(hit2);
//! assert_eq!(value, value2);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod key;
pub mod store;

pub use codec::Codec;
pub use digest::{
    build_code_digest, code_digest, code_digest_from_env, combine, digest_bytes, digest_debug,
    digest_str, BUILD_CODE_DIGEST_HEX,
};
pub use key::StoreKey;
pub use store::{CacheStats, ResultStore, LOG_FILE};
