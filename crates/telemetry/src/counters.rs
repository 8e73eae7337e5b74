//! Lock-free named counters and the name→handle registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A named event counter (monotonically increasing unless used as a
/// gauge via [`Counter::sub`]).
///
/// Cheap to clone (shared cell); increments are single relaxed RMW
/// operations, so holding a handle on a per-byte hot path costs roughly
/// one uncontended atomic add per event — the "compiled in but almost
/// free" budget the benches hold the stack to.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (registry use normally goes through
    /// `Telemetry::counter`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, so a handle can serve as a gauge (bytes held,
    /// entries live). Snapshot deltas saturate at zero, so a gauge that
    /// fell between two snapshots is absent from their delta.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Name → handle table. Reads (the common case after warm-up: every
/// layer caches its handles) take the read lock only on resolution, never
/// on increment.
pub(crate) struct Registry<T: Clone> {
    map: RwLock<BTreeMap<String, T>>,
}

impl<T: Clone> Registry<T> {
    pub fn new() -> Self {
        Self {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    pub fn get_or_insert(&self, name: &str, make: impl FnOnce() -> T) -> T {
        if let Some(v) = self.map.read().get(name) {
            return v.clone();
        }
        let mut w = self.map.write();
        w.entry(name.to_owned()).or_insert_with(make).clone()
    }

    pub fn iter_entries(&self) -> Vec<(String, T)> {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.map.read().len()
    }
}
