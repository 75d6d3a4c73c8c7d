//! Issue-stage regression: a microkernel that keeps the issue queue
//! full and drives every path of the out-of-order issue stage, with
//! its complete statistics and commit checksum pinned.
//!
//! The kernel chases a pointer list that overflows the L2, so the
//! window fills behind long-latency loads and most of the issue queue
//! waits on an incomplete producer. Around the chase it mixes:
//! - a store whose data comes from the chase, followed by a load of a
//!   slot that sometimes aliases it (memory-disambiguation squashes);
//! - a store and an immediately following load of the same slot
//!   (store-to-load forwarding);
//! - a branch on a pseudo-random bit (mispredict squashes).
//!
//! The hooks add a Retire-Agent `SquashYounger` on every 97th retire
//! of the loop branch (ROI squashes) and offer the Load Agent a load
//! or prefetch in every leftover load/store issue slot, so the Agent
//! counters count exactly the slots the issue stage left free.
//!
//! A second kernel issues a store and a younger load of the same slot
//! in the same cycle, every iteration: the load is forwarded from the
//! store issued just before it in select order, and still squashed
//! when the store completes. Only the memory hierarchy's counters see
//! the forwarding, so every kernel pins those too.
//!
//! `golden_stats` runs only 30k instructions per use case, where the
//! issue queue rarely fills; this kernel spends most of its cycles
//! with it full. Any change to the issue stage must keep these
//! numbers bit-identical.

use pfm_core::{
    Core, CoreConfig, FabricLoad, PfmHooks, RetireDirective, RetireInfo, SimStats, SquashKind,
};
use pfm_isa::asm::Asm;
use pfm_isa::machine::Machine;
use pfm_isa::mem::SpecMemory;
use pfm_isa::program::Program;
use pfm_isa::reg::names::*;
use pfm_mem::{Hierarchy, HierarchyConfig, HierarchyStats};

/// Nodes in the chased list (64-byte stride: 4 MB, past the L2).
const NODES: u64 = 65_536;
const LIST_BASE: u64 = 0x100_0000;
/// 512-byte arena the aliasing stores and loads share.
const ARENA: u64 = 0x80_0000;
/// Retired instructions per run.
const INSTRS: u64 = 60_000;

/// Builds the full-issue-queue kernel and returns it with the PC of its
/// loop branch.
fn kernel() -> (Program, u64) {
    let mut a = Asm::new(0x1000);
    let top = a.label();
    let skip = a.label();
    a.li(A0, LIST_BASE as i64);
    a.li(A2, ARENA as i64);
    a.li(S0, 12345);
    a.li(S1, 6364136223846793005);
    a.li(S2, 1442695040888963407);
    a.li(T0, 1_000_000);
    a.bind(top).unwrap();
    // Pointer chase plus a dependent value load.
    a.ld(A0, A0, 0);
    a.ld(T1, A0, 8);
    // LCG step, independent of the chase.
    a.mul(S0, S0, S1);
    a.add(S0, S0, S2);
    // Work that waits on the chase and fills the issue queue.
    for _ in 0..4 {
        a.add(S3, S3, T1);
        a.xor(S4, S3, T1);
        a.add(S5, S5, S4);
        a.mul(S6, S5, S4);
        a.add(S7, S7, S6);
        a.xor(S3, S3, S7);
    }
    // Data-dependent branch on a pseudo-random bit.
    a.srli(T2, S0, 61);
    a.andi(T2, T2, 1);
    a.beq(T2, X0, skip);
    a.addi(S8, S8, 1);
    a.bind(skip).unwrap();
    // A store that waits on the chase for its data, then a load of a
    // slot picked from other LCG bits: when the slots match, the load
    // issues before the store and the store's completion squashes it.
    a.srli(T3, S0, 20);
    a.andi(T3, T3, 0x1f8);
    a.add(T3, T3, A2);
    a.sd(T1, T3, 0);
    a.srli(T4, S0, 40);
    a.andi(T4, T4, 0x1f8);
    a.add(T4, T4, A2);
    a.ld(T5, T4, 0);
    a.add(S9, S9, T5);
    // A store, then a load of the same slot whose address waits on the
    // store's data: the store issues first and the load is forwarded.
    a.sd(S0, A2, 0x200);
    a.andi(T6, S0, 0);
    a.add(T6, T6, A2);
    a.ld(T6, T6, 0x200);
    a.xor(S10, S10, T6);
    a.addi(T0, T0, -1);
    let loop_branch = a.here();
    a.bne(T0, X0, top);
    a.halt();
    (a.finish().unwrap(), loop_branch)
}

/// The list: node `perm[i]` points at node `perm[i + 1]` (a single
/// pseudo-random cycle) and carries a value word at offset 8.
fn memory() -> SpecMemory {
    let mut perm: Vec<u64> = (0..NODES).collect();
    let mut x = 99u64;
    for i in (1..NODES as usize).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (x >> 33) as usize % (i + 1));
    }
    let mut mem = SpecMemory::new();
    for i in 0..NODES as usize {
        let node = LIST_BASE + perm[i] * 64;
        let next = LIST_BASE + perm[(i + 1) % NODES as usize] * 64;
        mem.committed_mut().write(node, 8, next);
        mem.committed_mut().write(node + 8, 8, perm[i] * 3 + 1);
    }
    // The chase starts at node 0.
    let start = perm.iter().position(|&p| p == 0).unwrap();
    let first = LIST_BASE + perm[(start + 1) % NODES as usize] * 64;
    mem.committed_mut().write(LIST_BASE, 8, first);
    mem
}

/// Retire-Agent ROI squashes on the loop branch, and a Load Agent
/// that fills every leftover load/store slot.
struct Agents {
    loop_branch: u64,
    branch_retires: u64,
    next_id: u64,
    roi_squashes: u64,
}

impl PfmHooks for Agents {
    fn on_retire(&mut self, info: &RetireInfo<'_>) -> RetireDirective {
        if info.pc != self.loop_branch {
            return RetireDirective::Continue;
        }
        self.branch_retires += 1;
        if self.branch_retires.is_multiple_of(97) {
            RetireDirective::SquashYounger
        } else {
            RetireDirective::Continue
        }
    }

    fn on_squash(&mut self, kind: SquashKind, _boundary: u64, _cycle: u64) {
        self.roi_squashes += u64::from(kind == SquashKind::RoiBegin);
    }

    fn pop_load(&mut self) -> Option<FabricLoad> {
        self.next_id += 1;
        let id = self.next_id;
        // Mostly L1-resident arena loads; every eighth request
        // prefetches a list line.
        let (addr, is_prefetch) = if id.is_multiple_of(8) {
            (LIST_BASE + (id * 0x9e37 % NODES) * 64, true)
        } else {
            (ARENA + (id % 64) * 8, false)
        };
        Some(FabricLoad {
            id,
            addr,
            size: 8,
            is_prefetch,
        })
    }
}

/// Builds the same-cycle forwarding kernel: the store and the load
/// share one address register, computed from the store's data, so both
/// become ready in the same cycle.
fn same_cycle_kernel() -> (Program, u64) {
    let mut a = Asm::new(0x1000);
    let top = a.label();
    a.li(A2, ARENA as i64);
    a.li(S0, 12345);
    a.li(S1, 6364136223846793005);
    a.li(S2, 1442695040888963407);
    a.li(T0, 1_000_000);
    a.bind(top).unwrap();
    a.mul(S0, S0, S1);
    a.add(S0, S0, S2);
    a.srli(T6, S0, 30);
    a.andi(T6, T6, 0x38);
    a.add(T6, T6, A2);
    a.sd(S0, T6, 0);
    a.ld(T5, T6, 0);
    a.add(S9, S9, T5);
    a.addi(T0, T0, -1);
    let loop_branch = a.here();
    a.bne(T0, X0, top);
    a.halt();
    (a.finish().unwrap(), loop_branch)
}

/// Runs `kernel` for [`INSTRS`] retires and returns the core, the
/// hooks, and the number of cycles the issue queue was full.
fn run(cfg: CoreConfig, (program, loop_branch): (Program, u64)) -> (Core, Agents, u64) {
    let iq_size = cfg.iq_size;
    let mut core = Core::new(
        cfg,
        Machine::new(program, memory()),
        Hierarchy::new(HierarchyConfig::micro21()),
    );
    let mut agents = Agents {
        loop_branch,
        branch_retires: 0,
        next_id: 0,
        roi_squashes: 0,
    };
    let mut full_cycles = 0;
    while core.stats().retired < INSTRS {
        core.tick(&mut agents).expect("functional fault");
        let (waiting, _) = core.iq_occupancy();
        full_cycles += u64::from(waiting >= iq_size);
    }
    (core, agents, full_cycles)
}

fn check(
    core: &Core,
    agents: &Agents,
    want: SimStats,
    want_hier: HierarchyStats,
    want_checksum: u64,
) {
    if std::env::var_os("PFM_ISSUE_PIN_PRINT").is_some() {
        println!(
            "{:#?}\n{:#?}\nchecksum {:#018x}",
            core.stats(),
            core.hierarchy().stats(),
            core.commit_checksum()
        );
    }
    let s = core.stats();
    assert_eq!(s.squash_roi, agents.roi_squashes);
    assert_eq!(*s, want, "statistics diverged from the pinned run");
    assert_eq!(
        *core.hierarchy().stats(),
        want_hier,
        "memory statistics diverged from the pinned run"
    );
    assert_eq!(
        core.commit_checksum(),
        want_checksum,
        "committed stream diverged from the pinned run"
    );
}

#[test]
fn full_issue_queue_kernel_is_pinned() {
    let (core, agents, full_cycles) = run(CoreConfig::micro21(), kernel());
    assert!(
        full_cycles * 2 > core.cycle(),
        "the issue queue must be full most of the time: {full_cycles} of {} cycles",
        core.cycle()
    );
    let s = core.stats();
    assert!(s.squash_mispredict > 0, "no mispredict squashes");
    assert!(s.squash_disambiguation > 0, "no disambiguation squashes");
    assert!(s.squash_roi > 0, "no ROI squashes");
    assert!(s.fabric_loads > 0 && s.fabric_prefetches > 0);
    check(
        &core,
        &agents,
        SimStats {
            cycles: 331252,
            retired: 60003,
            cond_branches: 2525,
            mispredicts: 628,
            target_mispredicts: 0,
            squash_mispredict: 679,
            squash_disambiguation: 57,
            squash_roi: 13,
            fetch_icache_stall_cycles: 1913,
            fetch_fabric_stall_cycles: 0,
            fetch_redirect_stall_cycles: 155994,
            retire_agent_stall_cycles: 0,
            fabric_predictions_used: 0,
            fabric_mispredicts: 0,
            fabric_loads: 572544,
            fabric_prefetches: 81791,
            loads: 5051,
            stores: 2526,
        },
        HierarchyStats {
            l1d_hits: 574825,
            l1d_misses: 2369,
            inflight_merges: 1867,
            l2_hits: 1132,
            l3_hits: 120,
            dram_accesses: 1117,
            l1i_misses: 4,
            prefetches_issued: 86531,
            mshr_wait_cycles: 11411,
        },
        0xf089_fc06_e7d2_530e,
    );
}

/// The same kernel on a tiny window, where every structure (ROB, issue
/// queue, load and store queues) is a bottleneck in turn.
#[test]
fn tiny_window_kernel_is_pinned() {
    let cfg = CoreConfig {
        rob_size: 20,
        iq_size: 8,
        ldq_size: 4,
        stq_size: 3,
        ..CoreConfig::micro21()
    };
    let (core, agents, _) = run(cfg, kernel());
    check(
        &core,
        &agents,
        SimStats {
            cycles: 420782,
            retired: 60003,
            cond_branches: 2525,
            mispredicts: 586,
            target_mispredicts: 0,
            squash_mispredict: 586,
            squash_disambiguation: 0,
            squash_roi: 13,
            fetch_icache_stall_cycles: 1763,
            fetch_fabric_stall_cycles: 0,
            fetch_redirect_stall_cycles: 187970,
            retire_agent_stall_cycles: 0,
            fabric_predictions_used: 0,
            fabric_mispredicts: 0,
            fabric_loads: 729715,
            fabric_prefetches: 104244,
            loads: 5051,
            stores: 2526,
        },
        HierarchyStats {
            l1d_hits: 733122,
            l1d_misses: 2377,
            inflight_merges: 542,
            l2_hits: 1144,
            l3_hits: 118,
            dram_accesses: 1115,
            l1i_misses: 4,
            prefetches_issued: 108476,
            mshr_wait_cycles: 12208,
        },
        0xf089_fc06_e7d2_530e,
    );
}

#[test]
fn same_cycle_forwarding_kernel_is_pinned() {
    let (core, agents, _) = run(CoreConfig::micro21(), same_cycle_kernel());
    assert!(core.stats().squash_disambiguation > 0);
    check(
        &core,
        &agents,
        SimStats {
            cycles: 90902,
            retired: 60000,
            cond_branches: 5999,
            mispredicts: 0,
            target_mispredicts: 0,
            squash_mispredict: 0,
            squash_disambiguation: 6000,
            squash_roi: 61,
            fetch_icache_stall_cycles: 6352,
            fetch_fabric_stall_cycles: 0,
            fetch_redirect_stall_cycles: 0,
            retire_agent_stall_cycles: 0,
            fabric_predictions_used: 0,
            fabric_mispredicts: 0,
            fabric_loads: 143330,
            fabric_prefetches: 20475,
            loads: 5999,
            stores: 5999,
        },
        HierarchyStats {
            l1d_hits: 154803,
            l1d_misses: 4,
            inflight_merges: 521,
            l2_hits: 1,
            l3_hits: 0,
            dram_accesses: 3,
            l1i_misses: 1,
            prefetches_issued: 20485,
            mshr_wait_cycles: 0,
        },
        0xe85d_0187_40a6_3666,
    );
}
