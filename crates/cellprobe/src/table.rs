//! The data-structure side of the model: tables as address → word oracles.
//!
//! The paper's schemes use many logical tables (`T_0 … T_{⌈log_α d⌉}`, the
//! auxiliary `T̃_{i,j}`, two perfect-hash tables for the degenerate cases).
//! An [`Address`] names a logical table plus a cell key within it; a
//! [`Table`] resolves addresses to [`Word`]s.
//!
//! Two implementation styles coexist, per substitution S1 of `DESIGN.md`:
//!
//! * [`MaterializedTable`] stores cells in a hash map — usable only for toy
//!   address spaces, but it is the literal object of the paper's model and
//!   serves as the cross-check oracle;
//! * lazy tables (defined next to each scheme, e.g. in `anns-core`)
//!   implement [`Table::read`] by *computing* the cell content from the
//!   database + shared randomness. The content of a cell is a function of
//!   the address and database-side data only, so the information revealed
//!   per probe is identical to reading a materialized cell.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use serde::{Deserialize, Serialize};

use crate::space::SpaceModel;
use crate::word::Word;

/// Identifier of a logical table within a scheme's data structure.
pub type TableId = u32;

/// Address of one cell: logical table + cell key.
///
/// Cell keys are byte strings because the paper's addresses are bit strings
/// of scheme-chosen width (`j ∈ {0,1}^{c₁ log n}` for `T_i`; concatenations
/// `⟨l, u, w₀, w₁ … w_s⟩` for `T̃_{i,j}`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Address {
    /// Which logical table.
    pub table: TableId,
    /// Cell key within the table.
    pub key: Vec<u8>,
}

impl Address {
    /// Convenience constructor.
    pub fn new(table: TableId, key: Vec<u8>) -> Self {
        Address { table, key }
    }

    /// Address with a `u64` key (little-endian).
    pub fn with_u64(table: TableId, key: u64) -> Self {
        Address {
            table,
            key: key.to_le_bytes().to_vec(),
        }
    }

    /// Number of bits in this address (table id + key), for the
    /// communication-protocol translation (Proposition 18 charges
    /// `⌈log s⌉` bits per probed address).
    pub fn bits(&self) -> u64 {
        32 + self.key.len() as u64 * 8
    }
}

/// The data structure: an oracle from addresses to words.
///
/// `Sync` is required so a round's probes can execute on parallel threads —
/// reading cells never mutates the table (static data structures, paper §2).
pub trait Table: Sync {
    /// Reads the content of one cell.
    ///
    /// Must be a pure function of `(table data, address)`: two reads of the
    /// same address return the same word. The executor relies on this for
    /// its round-replay audit.
    fn read(&self, addr: &Address) -> Word;

    /// The *model* size of this data structure — the size the paper's
    /// accounting assigns to it (cells it would occupy if materialized,
    /// declared word width) — independent of how the oracle is implemented.
    fn space_model(&self) -> SpaceModel;
}

/// A table fully materialized in memory. Missing addresses read as
/// [`Word::empty`], mirroring an all-zeros initialized memory.
#[derive(Default)]
pub struct MaterializedTable {
    cells: RwLock<HashMap<Address, Word>>,
    declared: SpaceModel,
}

impl MaterializedTable {
    /// Creates an empty materialized table with a declared space model.
    pub fn new(declared: SpaceModel) -> Self {
        MaterializedTable {
            cells: RwLock::new(HashMap::new()),
            declared,
        }
    }

    /// Writes one cell (preprocessing time — not charged as a probe).
    pub fn write(&self, addr: Address, word: Word) {
        self.cells
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(addr, word);
    }

    /// Number of cells explicitly stored.
    pub fn populated_cells(&self) -> usize {
        self.cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Table for MaterializedTable {
    fn read(&self, addr: &Address) -> Word {
        self.cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(addr)
            .cloned()
            .unwrap_or_else(Word::empty)
    }

    fn space_model(&self) -> SpaceModel {
        self.declared
    }
}

/// Routes addresses to one of several sub-tables by [`TableId`] range.
///
/// Schemes compose their data structure out of independent pieces (main
/// tables, auxiliary tables, degenerate-case structures); this lets each
/// piece stay a separate [`Table`] while the executor sees one oracle.
pub struct RoutedTable<'a> {
    routes: Vec<(std::ops::Range<TableId>, &'a dyn Table)>,
}

impl<'a> RoutedTable<'a> {
    /// Builds a router. Ranges must not overlap (checked).
    pub fn new(routes: Vec<(std::ops::Range<TableId>, &'a dyn Table)>) -> Self {
        for (i, (ra, _)) in routes.iter().enumerate() {
            for (rb, _) in routes.iter().skip(i + 1) {
                assert!(
                    ra.end <= rb.start || rb.end <= ra.start,
                    "overlapping table-id ranges {ra:?} and {rb:?}"
                );
            }
        }
        RoutedTable { routes }
    }
}

impl Table for RoutedTable<'_> {
    fn read(&self, addr: &Address) -> Word {
        for (range, table) in &self.routes {
            if range.contains(&addr.table) {
                return table.read(addr);
            }
        }
        panic!("no route for table id {}", addr.table);
    }

    fn space_model(&self) -> SpaceModel {
        self.routes
            .iter()
            .map(|(_, t)| t.space_model())
            .fold(SpaceModel::zero(), SpaceModel::combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialized_read_write_roundtrip() {
        let t = MaterializedTable::new(SpaceModel::from_cells(10.0, 64));
        let a = Address::with_u64(0, 42);
        assert_eq!(t.read(&a), Word::empty(), "unwritten cells read empty");
        t.write(a.clone(), Word::from_u64(7));
        assert_eq!(t.read(&a).to_u64(), 7);
        assert_eq!(t.populated_cells(), 1);
    }

    #[test]
    fn addresses_distinguish_tables_and_keys() {
        let a = Address::with_u64(0, 1);
        let b = Address::with_u64(1, 1);
        let c = Address::with_u64(0, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.bits() >= 64 + 32 - 32); // 8-byte key + id bits
    }

    #[test]
    fn routed_table_dispatches_by_id() {
        let t0 = MaterializedTable::new(SpaceModel::from_cells(4.0, 32));
        let t1 = MaterializedTable::new(SpaceModel::from_cells(5.0, 32));
        t0.write(Address::with_u64(0, 9), Word::from_u64(100));
        t1.write(Address::with_u64(7, 9), Word::from_u64(200));
        let routed = RoutedTable::new(vec![(0..5, &t0 as &dyn Table), (5..10, &t1)]);
        assert_eq!(routed.read(&Address::with_u64(0, 9)).to_u64(), 100);
        assert_eq!(routed.read(&Address::with_u64(7, 9)).to_u64(), 200);
    }

    #[test]
    #[should_panic]
    fn routed_table_rejects_overlap() {
        let t0 = MaterializedTable::new(SpaceModel::zero());
        let t1 = MaterializedTable::new(SpaceModel::zero());
        let _ = RoutedTable::new(vec![(0..5, &t0 as &dyn Table), (3..10, &t1)]);
    }

    #[test]
    #[should_panic]
    fn routed_table_panics_on_unrouted_id() {
        let t0 = MaterializedTable::new(SpaceModel::zero());
        let routed = RoutedTable::new(vec![(0..5, &t0 as &dyn Table)]);
        let _ = routed.read(&Address::with_u64(99, 0));
    }
}
