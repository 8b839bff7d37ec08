//! Marker-trait stand-in for `serde`. The derives (feature `derive`)
//! expand to nothing, so no seqnet type implements these traits; nothing
//! in the program bounds on them.

/// Marker for `serde::Serialize`.
pub trait Serialize {}

/// Marker for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
