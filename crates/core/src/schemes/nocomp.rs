//! The no-compression baseline: physical addresses *are* DRAM addresses.
//!
//! This is the "No Compression" system of Fig. 18: an LLC miss goes
//! straight to DRAM with no CTE translation of any kind.

use super::{MemRequest, Scheme};
use crate::error::TmccError;
use crate::stats::SimStats;
use tmcc_sim_dram::DramSim;
use tmcc_types::addr::DramAddr;

/// The conventional memory system.
#[derive(Debug, Clone)]
pub struct NoCompressionScheme {
    footprint_bytes: u64,
}

impl NoCompressionScheme {
    /// Creates the scheme for a workload of `footprint_bytes`.
    pub fn new(footprint_bytes: u64) -> Self {
        Self { footprint_bytes }
    }
}

impl Scheme for NoCompressionScheme {
    fn access(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        _stats: &mut SimStats,
    ) -> Result<f64, TmccError> {
        Ok(dram.access_latency(now_ns, DramAddr::new(req.block.base().raw()), req.write))
    }

    fn writeback(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        _stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        let _ = dram.access_background(now_ns, DramAddr::new(req.block.base().raw()), true);
        Ok(())
    }

    fn dram_used_bytes(&self) -> u64 {
        self.footprint_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmcc_sim_dram::{DramConfig, InterleavePolicy};
    use tmcc_types::addr::{BlockAddr, Ppn};

    #[test]
    fn access_is_one_dram_trip() {
        let mut dram = DramSim::new(DramConfig::default(), InterleavePolicy::baseline());
        let mut scheme = NoCompressionScheme::new(4096);
        let mut stats = SimStats::default();
        let req = MemRequest {
            ppn: Ppn::new(1),
            block: BlockAddr::new(64),
            write: false,
            is_ptb: false,
            after_tlb_miss: false,
        };
        let lat = scheme.access(&req, 0.0, &mut dram, &mut stats).unwrap();
        // One activate + CAS + burst: 30 ns.
        assert!((lat - 30.0).abs() < 0.5, "{lat}");
        assert_eq!(stats.cte_misses, 0, "no CTEs in this scheme");
    }
}
