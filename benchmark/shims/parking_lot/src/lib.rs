//! `parking_lot::Mutex` over `std::sync::Mutex`: `lock()` returns the
//! guard directly. A poisoned lock is recovered, as parking_lot has no
//! poisoning.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard};

pub type MutexGuard<'a, T> = StdGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}
