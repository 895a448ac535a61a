//! Model-conformance auditing.
//!
//! The round structure is enforced *syntactically* by [`RoundExecutor`]'s
//! API shape, but two semantic properties deserve independent verification,
//! and both are checkable by wrapping the table oracle:
//!
//! * **purity** — a cell is a fixed function of the address: re-reading
//!   must return the identical word ([`PurityAuditTable`] memoizes first
//!   reads and panics on divergence);
//! * **probe attribution** — which logical tables a scheme actually
//!   touches, and how often ([`CountingTable`]); used by ablation analyses
//!   ("how many probes go to auxiliary vs main tables?") and by tests
//!   asserting a scheme never touches structures it shouldn't (e.g. λ-ANNS
//!   must touch exactly one main table).
//!
//! [`RoundExecutor`]: crate::executor::RoundExecutor

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::space::SpaceModel;
use crate::table::{Address, Table, TableId};
use crate::word::Word;

/// Wraps a table; memoizes every read and panics if a re-read diverges.
pub struct PurityAuditTable<'a> {
    inner: &'a dyn Table,
    seen: Mutex<HashMap<Address, Word>>,
}

impl<'a> PurityAuditTable<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Table) -> Self {
        PurityAuditTable {
            inner,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// Number of distinct cells read so far.
    pub fn distinct_cells(&self) -> usize {
        self.seen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Table for PurityAuditTable<'_> {
    fn read(&self, addr: &Address) -> Word {
        let word = self.inner.read(addr);
        let mut seen = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        match seen.get(addr) {
            Some(prev) => assert_eq!(
                prev, &word,
                "purity violation: cell {addr:?} changed between reads"
            ),
            None => {
                seen.insert(addr.clone(), word.clone());
            }
        }
        word
    }

    fn space_model(&self) -> SpaceModel {
        self.inner.space_model()
    }
}

/// Wraps a table; counts probes per logical table id.
pub struct CountingTable<'a> {
    inner: &'a dyn Table,
    counts: Mutex<HashMap<TableId, usize>>,
}

impl<'a> CountingTable<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Table) -> Self {
        CountingTable {
            inner,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Probe count of one table id.
    pub fn count(&self, table: TableId) -> usize {
        self.counts().get(&table).copied().unwrap_or(0)
    }

    /// All `(table id, probes)` pairs, sorted by id.
    pub fn snapshot(&self) -> Vec<(TableId, usize)> {
        let mut v: Vec<(TableId, usize)> = self.counts().iter().map(|(&t, &c)| (t, c)).collect();
        v.sort_unstable();
        v
    }

    /// Total probes across all tables.
    pub fn total(&self) -> usize {
        self.counts().values().sum()
    }

    /// The counters; a panic elsewhere while they were held cannot
    /// corrupt a count, so a poisoned lock is recovered.
    fn counts(&self) -> MutexGuard<'_, HashMap<TableId, usize>> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Table for CountingTable<'_> {
    fn read(&self, addr: &Address) -> Word {
        *self.counts().entry(addr.table).or_insert(0) += 1;
        self.inner.read(addr)
    }

    fn space_model(&self) -> SpaceModel {
        self.inner.space_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecOptions, RoundExecutor};
    use crate::table::MaterializedTable;

    fn toy_table() -> MaterializedTable {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(16, 64));
        for i in 0..16u64 {
            t.write(Address::with_u64((i % 3) as u32, i), Word::from_u64(i * i));
        }
        t
    }

    #[test]
    fn purity_audit_passes_on_pure_tables() {
        let t = toy_table();
        let audit = PurityAuditTable::new(&t);
        let mut exec = RoundExecutor::new(&audit, ExecOptions::default());
        let addrs = vec![Address::with_u64(0, 3), Address::with_u64(0, 3)];
        let words = exec.round(&addrs);
        assert_eq!(words[0], words[1]);
        assert_eq!(audit.distinct_cells(), 1);
        // Read again in a later round — still consistent.
        let again = exec.round(&[Address::with_u64(0, 3)]);
        assert_eq!(again[0], words[0]);
    }

    #[test]
    #[should_panic(expected = "purity violation")]
    fn purity_audit_catches_mutating_oracles() {
        struct Mutating(Mutex<u64>);
        impl Table for Mutating {
            fn read(&self, _addr: &Address) -> Word {
                let mut v = self.0.lock().unwrap_or_else(PoisonError::into_inner);
                *v += 1;
                Word::from_u64(*v)
            }
            fn space_model(&self) -> SpaceModel {
                SpaceModel::zero()
            }
        }
        let bad = Mutating(Mutex::new(0));
        let audit = PurityAuditTable::new(&bad);
        let addr = Address::with_u64(0, 0);
        let _ = audit.read(&addr);
        let _ = audit.read(&addr); // diverges → panic
    }

    #[test]
    fn counting_table_attributes_probes() {
        let t = toy_table();
        let counting = CountingTable::new(&t);
        let mut exec = RoundExecutor::new(&counting, ExecOptions::default());
        let _ = exec.round(&[
            Address::with_u64(0, 3),
            Address::with_u64(1, 4),
            Address::with_u64(1, 7),
            Address::with_u64(2, 5),
        ]);
        assert_eq!(counting.count(0), 1);
        assert_eq!(counting.count(1), 2);
        assert_eq!(counting.count(2), 1);
        assert_eq!(counting.count(9), 0);
        assert_eq!(counting.total(), 4);
        assert_eq!(counting.snapshot(), vec![(0, 1), (1, 2), (2, 1)]);
    }
}
