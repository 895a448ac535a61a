//! The answer check: served requests replayed one at a time through
//! `execute_with`, against the bundle of the epoch that served them.

use std::sync::Arc;
use std::time::Instant;

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::Registry;

use crate::drive::Check;
use crate::layers::{ReadLog, TimedScheme};

/// The registries a run's checks replay against.
pub struct Reference {
    /// One registry per bundle the run served.
    pub registries: Vec<Arc<Registry>>,
    /// The index behind each registry's shards, for the exact answer.
    pub indexes: Vec<Arc<AnnIndex>>,
    /// `(epoch, index into registries)`; with one registry every epoch
    /// maps to it.
    pub epochs: Vec<(u64, usize)>,
}

impl Reference {
    fn bundle(&self, epoch: u64) -> Option<usize> {
        if self.registries.len() == 1 {
            return Some(0);
        }
        self.epochs
            .iter()
            .rev()
            .find(|(e, _)| *e == epoch)
            .map(|&(_, bundle)| bundle)
    }
}

/// What the replay found and what it cost.
#[derive(Default)]
pub struct Replayed {
    /// Checks replayed.
    pub checks: u64,
    /// Checks whose answer, round count or probe count differed (or
    /// whose shard or epoch could not be resolved).
    pub mismatches: u64,
    /// Wall time of each solo `execute_with`.
    pub solo_ns: Vec<u64>,
    /// The same, minus the time inside `Table::read`.
    pub compute_ns: Vec<u64>,
    /// Table reads over all replays.
    pub reads: u64,
    /// Nanoseconds inside `Table::read` over all replays.
    pub read_ns: u64,
    /// Sum of the replays' wall times.
    pub wall_ns: u64,
    /// Checked answers that are γ-approximate nearest neighbors.
    pub gamma_ok: u64,
}

fn replay_one(check: &Check, reference: &Reference, log: &Arc<ReadLog>, out: &mut Replayed) {
    out.checks += 1;
    let Some((bundle, id)) = reference.bundle(check.epoch).and_then(|b| {
        let id = reference.registries.get(b)?.resolve(&check.shard)?;
        Some((b, id))
    }) else {
        out.mismatches += 1;
        return;
    };
    let (registry, index) = (&reference.registries[bundle], &reference.indexes[bundle]);
    let data = index.dataset();
    let gamma = index.family().params().gamma;
    if check
        .index
        .is_some_and(|i| data.is_gamma_approximate_nn(&check.query, data.point(i as usize), gamma))
    {
        out.gamma_ok += 1;
    }
    let scheme = TimedScheme::new(Arc::clone(registry), id, Arc::clone(log));
    let (reads0, ns0) = log.totals();
    let started = Instant::now();
    let (answer, ledger, _) =
        execute_with(&SoloServable(&scheme), &check.query, ExecOptions::default());
    let solo = started.elapsed().as_nanos() as u64;
    let (reads1, ns1) = log.totals();
    let same = check.answer.as_ref().is_none_or(|a| *a == answer)
        && check.index == answer.index()
        && check.rounds == ledger.rounds() as u64
        && check.probes == ledger.total_probes() as u64;
    if !same {
        out.mismatches += 1;
    }
    out.solo_ns.push(solo);
    out.compute_ns.push(solo.saturating_sub(ns1 - ns0));
    out.reads += reads1 - reads0;
    out.read_ns += ns1 - ns0;
    out.wall_ns += solo;
}

/// Replays every check on `threads` threads.
pub fn replay(checks: &[Check], reference: &Reference, epoch: Instant, threads: usize) -> Replayed {
    if checks.is_empty() {
        return Replayed::default();
    }
    let chunk = checks.len().div_ceil(threads.max(1));
    let parts: Vec<Replayed> = std::thread::scope(|scope| {
        let handles: Vec<_> = checks
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let log = Arc::new(ReadLog::new(epoch, false));
                    let mut out = Replayed::default();
                    for check in part {
                        replay_one(check, reference, &log, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut total = Replayed::default();
    for part in parts {
        total.checks += part.checks;
        total.mismatches += part.mismatches;
        total.solo_ns.extend(part.solo_ns);
        total.compute_ns.extend(part.compute_ns);
        total.reads += part.reads;
        total.read_ns += part.read_ns;
        total.wall_ns += part.wall_ns;
        total.gamma_ok += part.gamma_ok;
    }
    total
}
