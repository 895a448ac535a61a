//! Serving adapters: the baselines behind the engine's trait surface.
//!
//! The engine registry (`anns-engine`) holds every index instance behind
//! `anns_core::serve::ServableScheme`. These adapters put the two baseline
//! structures there too, so a serving deployment can A/B the paper's
//! round-bounded schemes against classic 1-round LSH and the exact linear
//! scan on the *same* coalesced, round-synchronous dispatch path — both
//! baselines are non-adaptive (all addresses depend on the query alone),
//! so they coalesce perfectly: one generation, one batch.

use std::sync::Arc;

use anns_cellprobe::{CellProbeScheme, RoundMachine, Table};
use anns_core::serve::{Candidate, QueryMachine, ServableScheme, ServedAnswer};
use anns_hamming::Point;

use crate::bitsampling::LshIndex;
use crate::linear::LinearScan;

/// Bit-sampling LSH behind the serving surface. Non-adaptive: declared
/// round budget 1, probe budget `L`.
pub struct ServeLsh {
    /// The built LSH index.
    pub index: Arc<LshIndex>,
}

impl ServableScheme for ServeLsh {
    fn label(&self) -> String {
        format!(
            "lsh[K={},L={}]",
            self.index.params().k_bits,
            self.index.params().l_tables
        )
    }

    fn table(&self) -> &dyn Table {
        CellProbeScheme::table(&*self.index)
    }

    fn word_bits(&self) -> u64 {
        CellProbeScheme::word_bits(&*self.index)
    }

    fn query_dim(&self) -> Option<u32> {
        Some(self.index.dataset().dim())
    }

    fn round_budget(&self) -> Option<u32> {
        Some(1)
    }

    fn probe_budget(&self) -> Option<u64> {
        Some(u64::from(self.index.params().l_tables))
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let machine = self.index.machine(query).map(|best| {
            ServedAnswer::Candidate(best.map(|(index, distance)| Candidate {
                index: index as u64,
                distance,
            }))
        });
        Some(Box::new(machine))
    }

    fn stored(&self) -> Option<anns_core::StoredScheme> {
        Some(self.stored_scheme())
    }
}

/// The exact linear scan behind the serving surface. Non-adaptive: one
/// round of `n` probes.
pub struct ServeLinear {
    /// The wrapped scan.
    pub scan: Arc<LinearScan>,
}

impl ServableScheme for ServeLinear {
    fn label(&self) -> String {
        format!("linear[n={}]", self.scan.dataset().len())
    }

    fn table(&self) -> &dyn Table {
        CellProbeScheme::table(&*self.scan)
    }

    fn word_bits(&self) -> u64 {
        CellProbeScheme::word_bits(&*self.scan)
    }

    fn query_dim(&self) -> Option<u32> {
        Some(self.scan.dataset().dim())
    }

    fn round_budget(&self) -> Option<u32> {
        Some(1)
    }

    fn probe_budget(&self) -> Option<u64> {
        Some(self.scan.dataset().len() as u64)
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let machine = self.scan.machine(query).map(|best| {
            ServedAnswer::Candidate(Some(Candidate {
                index: best.index as u64,
                distance: best.distance,
            }))
        });
        Some(Box::new(machine))
    }

    fn stored(&self) -> Option<anns_core::StoredScheme> {
        Some(self.stored_scheme())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsampling::LshParams;
    use anns_cellprobe::execute;
    use anns_core::serve::SoloServable;
    use anns_hamming::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn served_lsh_matches_direct_query() {
        let mut rng = StdRng::seed_from_u64(12);
        let inst = gen::planted(256, 256, 6, &mut rng);
        let params = LshParams::for_radius(256, 256, 6.0, 2.0, 8.0);
        let index = Arc::new(LshIndex::build(inst.dataset, params, &mut rng));
        let servable = ServeLsh {
            index: Arc::clone(&index),
        };
        let (answer, ledger) = execute(&SoloServable(&servable), &inst.query);
        let (direct, direct_ledger) = index.query(&inst.query);
        assert_eq!(
            answer.index(),
            direct.map(|(i, _)| i as u64),
            "served answer must match the direct query"
        );
        assert_eq!(ledger, direct_ledger);
        assert_eq!(ledger.rounds() as u32, 1);
        assert!(ledger.total_probes() as u64 <= servable.probe_budget().unwrap());
    }

    #[test]
    fn served_linear_scan_is_exact() {
        let mut rng = StdRng::seed_from_u64(13);
        let inst = gen::planted(64, 128, 4, &mut rng);
        let scan = Arc::new(LinearScan::new(inst.dataset.clone()));
        let servable = ServeLinear { scan };
        let (answer, ledger) = execute(&SoloServable(&servable), &inst.query);
        match answer {
            ServedAnswer::Candidate(Some(c)) => {
                assert_eq!(c.index, inst.planted_index as u64);
                assert_eq!(c.distance, 4);
            }
            other => panic!("expected a candidate, got {other:?}"),
        }
        assert_eq!(ledger.total_probes(), 64);
        assert_eq!(ledger.rounds(), 1);
        assert!(servable.label().starts_with("linear[n=64]"));
    }
}
