//! Lazily decoded shards over a memory-mapped bundle.
//!
//! Both backends parse a bundle with the same
//! [`MappedStore`](anns_store::MappedStore) and the same shard-record
//! parser; they differ in when index payloads are decoded. The heap
//! backend decodes every pooled index at mount. A mapped mount
//! ([`crate::Registry::mount_mapped`]) defers that work: the pool's
//! entry *table* is read eagerly (it is manifest-sized), but each entry's
//! payload stays cold — unread, unverified, undecoded — until the first
//! query routes at a shard that needs it. [`LazyPool`] owns that
//! deferral: a verified-once cell per entry checks the entry's own
//! CRC-32 over exactly its window (never the whole section) and latches
//! either the decoded `Arc<AnnIndex>` or a typed [`PayloadFault`]
//! replayed to every later toucher. The check reads the window through
//! the file rather than the mapping, so it maps no page in. The decoded
//! index's database-sketch slabs borrow the mapped entry bytes in place
//! and check their tail bits on first scan, so the index holds the
//! mapping alive, its scans read the page cache, and a shard's resident
//! set is the slabs its queries scan.
//!
//! [`LazyServable`] is the registry-facing face of one deferred shard:
//! it carries the parsed shard record and instantiates the real scheme
//! behind a `OnceLock` on first use. `ready()` forces it fallibly, then
//! readies the real scheme, so an Algorithm 2 shard over an index whose
//! bundle stored no `N` sketches makes them here, not inside a query.
//! The engine's name-addressed path calls it before routing, so bit rot
//! in a cold index surfaces as `ServeError::ShardFault`, not a panic.

use std::sync::{Arc, OnceLock};

use anns_cellprobe::{ProbeLedger, RoundExecutor, Table};
use anns_core::serve::{QueryMachine, ServableScheme, ServedAnswer};
use anns_core::AnnIndex;
use anns_hamming::Point;
use anns_store::pool::{decode_pool_table, PoolEntry, POOL_ENTRY_BYTES, POOL_TABLE_PREFIX_BYTES};
use anns_store::{Codec, LazySection, PayloadFault, PayloadSource, StoreError};

use crate::registry::{instantiate_record, ShardRecord};

/// One pool entry's deferred state.
struct LazySlot {
    /// Window of the mapped `IDXP` section holding this entry's bytes.
    source: PayloadSource,
    /// CRC-32 of exactly those bytes, from the pool's entry table.
    crc: u32,
    /// Verified-once latch: decoded index or the permanent fault.
    cell: OnceLock<Result<Arc<AnnIndex>, PayloadFault>>,
}

/// The deferred index pool of one mapped bundle.
///
/// Construction reads only the entry table (count, table CRC, rows) —
/// the eager cost recorded in the mount manifest. Entry payloads are
/// decoded on first [`LazyPool::get`], each verified against its own
/// table CRC so the working set stays proportional to the shards
/// actually queried.
pub struct LazyPool {
    slots: Vec<LazySlot>,
    /// Bytes read eagerly at construction (the table prefix + rows).
    table_bytes: u64,
}

impl LazyPool {
    /// Builds the pool over a mapped `IDXP` section (`None` for bundles
    /// with no pool — foreign-only shard sets).
    pub fn new(section: Option<LazySection>) -> Result<LazyPool, StoreError> {
        let Some(section) = section else {
            return Ok(LazyPool {
                slots: Vec::new(),
                table_bytes: 0,
            });
        };
        // The section-level CRC would hash the whole pool; the table
        // carries its own digest, so only the leading pages are touched.
        let entries = decode_pool_table(section.raw())?;
        let source = PayloadSource::mapped(section);
        let slots = entries
            .iter()
            .map(|entry: &PoolEntry| {
                Ok(LazySlot {
                    source: source.window(entry.offset as usize, entry.len as usize)?,
                    crc: entry.crc,
                    cell: OnceLock::new(),
                })
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        Ok(LazyPool {
            table_bytes: (POOL_TABLE_PREFIX_BYTES + slots.len() * POOL_ENTRY_BYTES) as u64,
            slots,
        })
    }

    /// Number of pool entries (decoded or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes read eagerly at construction.
    pub fn table_bytes(&self) -> u64 {
        self.table_bytes
    }

    /// The entry's index, decoding (and CRC-verifying the entry window)
    /// on first touch; later calls replay the latched verdict.
    pub fn get(&self, id: u32) -> Result<Arc<AnnIndex>, PayloadFault> {
        let slot = self.slots.get(id as usize).ok_or_else(|| {
            PayloadFault::Decode(format!(
                "pool entry {id} out of range ({} entries)",
                self.slots.len()
            ))
        })?;
        slot.cell
            .get_or_init(|| {
                // Read through the file, so the check leaves the
                // entry's pages out of the resident set until a scan
                // reads them.
                let computed = slot.source.crc32()?;
                if computed != slot.crc {
                    return Err(PayloadFault::Checksum {
                        tag: anns_store::section_tag::INDEX_POOL,
                        stored: slot.crc,
                        computed,
                    });
                }
                // The reader keeps the mapping alive, so the index's
                // sketch slabs borrow these (now verified) bytes.
                let mut reader = slot.source.reader();
                AnnIndex::decode(&mut reader)
                    .and_then(|index| reader.finish().map(|()| Arc::new(index)))
                    .map_err(|e| PayloadFault::from(&e))
            })
            .clone()
    }

    /// Every entry decoded so far (the pool's live working set).
    pub fn decoded(&self) -> Vec<Arc<AnnIndex>> {
        self.slots
            .iter()
            .filter_map(|s| s.cell.get())
            .filter_map(|r| r.as_ref().ok())
            .cloned()
            .collect()
    }
}

/// A registered shard whose scheme materializes on first use.
///
/// Holds the parsed (manifest-sized) shard record and the bundle's
/// [`LazyPool`]; the real [`ServableScheme`] is instantiated — decoding
/// any pool entries it references — behind a once-cell. The advertised
/// label is the one recorded in the bundle's `META` directory at save
/// time, so listings describe the shard without forcing it.
pub struct LazyServable {
    name: String,
    label: String,
    record: ShardRecord,
    pool: Arc<LazyPool>,
    cell: OnceLock<Result<Arc<dyn ServableScheme>, PayloadFault>>,
}

impl LazyServable {
    pub(crate) fn new(
        name: String,
        label: String,
        record: ShardRecord,
        pool: Arc<LazyPool>,
    ) -> Self {
        LazyServable {
            name,
            label,
            record,
            pool,
            cell: OnceLock::new(),
        }
    }

    /// Forces instantiation, returning the latched fault on damage.
    fn force(&self) -> Result<&Arc<dyn ServableScheme>, PayloadFault> {
        self.cell
            .get_or_init(|| {
                instantiate_record(&self.name, &self.record, &mut |id| {
                    self.pool.get(id).map_err(StoreError::from)
                })
                .map(Arc::from)
                .map_err(|e| PayloadFault::from(&e))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The forced scheme, panicking with the fault if the backing bytes
    /// are damaged. The engine's fallible path checks
    /// [`ServableScheme::ready`] first and never reaches this panic.
    fn forced(&self) -> &Arc<dyn ServableScheme> {
        match self.force() {
            Ok(scheme) => scheme,
            Err(fault) => panic!(
                "mapped shard {:?} failed lazy load (route through \
                 submit_named for the typed error): {fault}",
                self.name
            ),
        }
    }
}

impl ServableScheme for LazyServable {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn ready(&self) -> Result<(), PayloadFault> {
        self.force()?.ready()
    }

    fn table(&self) -> &dyn Table {
        self.forced().table()
    }

    fn word_bits(&self) -> u64 {
        self.forced().word_bits()
    }

    fn query_dim(&self) -> Option<u32> {
        self.forced().query_dim()
    }

    fn round_budget(&self) -> Option<u32> {
        self.forced().round_budget()
    }

    fn probe_budget(&self) -> Option<u64> {
        self.forced().probe_budget()
    }

    fn within_budget(&self, ledger: &ProbeLedger) -> bool {
        self.forced().within_budget(ledger)
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        self.forced().start(query)
    }

    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        self.forced().serve(query, exec)
    }

    fn stored(&self) -> Option<anns_core::StoredScheme> {
        self.force().ok().and_then(|s| s.stored())
    }
}
