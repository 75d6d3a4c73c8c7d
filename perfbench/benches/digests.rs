//! Digests of the golden-stats field list, pinned at the standard
//! detailed budget. A run whose simulated statistics differ from the
//! pinned digest fails, so a "speed-up" that changes a simulated number
//! is caught by the benchmark itself.

use pfm_core::SimStats;
use pfm_fabric::FabricStats;
use pfm_mem::HierarchyStats;

/// FNV-1a over the same fields, in the same order, as the golden-stats
/// regression test.
pub fn digest(s: &SimStats, m: &HierarchyStats, f: Option<&FabricStats>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for v in [
        s.cycles,
        s.retired,
        s.cond_branches,
        s.mispredicts,
        s.target_mispredicts,
        s.squash_mispredict,
        s.squash_disambiguation,
        s.squash_roi,
        s.fetch_icache_stall_cycles,
        s.fetch_fabric_stall_cycles,
        s.fetch_redirect_stall_cycles,
        s.retire_agent_stall_cycles,
        s.fabric_predictions_used,
        s.fabric_mispredicts,
        s.fabric_loads,
        s.fabric_prefetches,
        s.loads,
        s.stores,
    ] {
        fold(v);
    }
    for v in [
        m.l1d_hits,
        m.l1d_misses,
        m.inflight_merges,
        m.l2_hits,
        m.l3_hits,
        m.dram_accesses,
        m.l1i_misses,
        m.prefetches_issued,
        m.mshr_wait_cycles,
    ] {
        fold(v);
    }
    if let Some(f) = f {
        for v in [
            f.fetched_in_roi,
            f.fst_hits,
            f.retired_in_roi,
            f.rst_hits,
            f.obs_packets,
            f.preds_delivered,
            f.preds_dropped,
            f.pred_mismatch_passes,
            f.loads_injected,
            f.prefetches_injected,
            f.mlb_replays,
            f.mlb_full_drops,
            f.squash_packets,
            f.port_conflict_delays,
            u64::from(f.watchdog_fired),
        ] {
            fold(v);
        }
    }
    h
}

/// `(kernel, mode, digest)` at the default seed and the standard
/// detailed budget. Regenerate (only after an intentional model change)
/// with `--print-digests`.
pub const PINNED: &[(&str, &str, u64)] = &[
    ("astar", "baseline", 0x1fa20009f37c6699),
    ("astar", "pfm", 0x1c3dbbba3c6312a8),
    ("astar-slipstream", "baseline", 0x1fa20009f37c6699),
    ("astar-slipstream", "pfm", 0x3537ae6ce092dc40),
    ("astar-alt", "baseline", 0x1fa20009f37c6699),
    ("astar-alt", "pfm", 0x57c074b69c08a9eb),
    ("bfs-roads", "baseline", 0x56a32c956d3705f0),
    ("bfs-roads", "pfm", 0xfbf65165d364ceef),
    ("bfs-roads-slipstream", "baseline", 0x56a32c956d3705f0),
    ("bfs-roads-slipstream", "pfm", 0xc73edce9d96dd205),
    ("bfs-youtube", "baseline", 0xf5bf4923625b126d),
    ("bfs-youtube", "pfm", 0x4f5c83e0f5f4f449),
    ("libquantum", "baseline", 0x51b8e4b8cbbfc5fc),
    ("libquantum", "pfm", 0x7fe5ef7002e16416),
    ("bwaves", "baseline", 0x3a6c5d3897b0e2b0),
    ("bwaves", "pfm", 0x417c4d47e19f89e2),
    ("lbm", "baseline", 0xc64cd94e84d7a167),
    ("lbm", "pfm", 0xab9f7582fe18c8d3),
    ("milc", "baseline", 0xced54183c7e8b243),
    ("milc", "pfm", 0x14fa83b9d57a5620),
    ("leslie", "baseline", 0xb2c71994656cf54a),
    ("leslie", "pfm", 0x31ec48f77cb8e55c),
];

/// The pinned digest of `(kernel, mode)`, if any.
pub fn pinned(kernel: &str, mode: &str) -> Option<u64> {
    PINNED
        .iter()
        .find(|(k, m, _)| *k == kernel && *m == mode)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detailed::MODES;
    use crate::inputs::{BRANCH_KERNELS, PREFETCH_KERNELS};

    #[test]
    fn every_detailed_run_has_a_pinned_digest() {
        for k in BRANCH_KERNELS.iter().chain(&PREFETCH_KERNELS) {
            for m in MODES {
                assert!(pinned(k, m).is_some(), "{k}/{m}");
            }
        }
        assert_eq!(
            PINNED.len(),
            2 * (BRANCH_KERNELS.len() + PREFETCH_KERNELS.len())
        );
    }

    #[test]
    fn the_digest_sees_every_layer() {
        let (s, m, f) = (
            SimStats::default(),
            HierarchyStats::default(),
            FabricStats::default(),
        );
        let base = digest(&s, &m, Some(&f));
        let s2 = SimStats {
            cycles: 1,
            ..s.clone()
        };
        let m2 = HierarchyStats { l3_hits: 1, ..m };
        let f2 = FabricStats {
            mlb_replays: 1,
            ..f
        };
        assert_ne!(digest(&s2, &m, Some(&f)), base);
        assert_ne!(digest(&s, &m2, Some(&f)), base);
        assert_ne!(digest(&s, &m, Some(&f2)), base);
        assert_ne!(digest(&s, &m, None), base);
    }
}
