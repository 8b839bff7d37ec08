//! `bytes::Bytes` as seqnet uses it: an immutable, cheaply clonable
//! payload handle. Backed by `Arc<[u8]>`; a `'static` slice is copied
//! once on conversion (the real crate borrows it), which is a per-publish
//! cost the program never pays on its forwarding path.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}
