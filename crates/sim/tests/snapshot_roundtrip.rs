//! Snapshot round-trip regression: a detailed run snapshotted
//! mid-stream and restored into a *fresh* core (and fabric) must
//! continue bit-identically — same committed-stream checksum, same
//! statistics — as the same run left uninterrupted.
//!
//! This is the invariant the sampled-run mode stands on: an interval
//! simulated from a restored snapshot measures the same machine the
//! full detailed run would have been at that point.
//!
//! Both legs drive the core with manual `tick` loops (not
//! `run_watched`) so the commit checksum folds every retired
//! instruction in both the split and the uninterrupted run — the
//! watched entry point caps the fold at its own budget, which would
//! make the split run's first-leg cap differ.

use pfm_core::{Core, NoPfm};
use pfm_fabric::{Fabric, FabricParams};
use pfm_mem::Hierarchy;
use pfm_sim::usecases;
use pfm_sim::RunConfig;
use pfm_workloads::{astar, AstarParams};

const SPLIT: u64 = 8_000;
const TOTAL: u64 = 25_000;

/// Ticks `core` (with `hooks`) until `target` instructions have
/// retired or the workload halts.
fn tick_until(core: &mut Core, hooks: &mut dyn pfm_core::PfmHooks, target: u64) {
    while !core.finished() && core.stats().retired < target {
        core.tick(hooks).expect("functional fault");
    }
}

#[test]
fn astar_baseline_roundtrip_is_bit_identical() {
    let p = AstarParams {
        grid_w: 48,
        grid_h: 48,
        fills: 1,
        ..AstarParams::default()
    };
    let uc = astar(&p);
    let rc = RunConfig::test_scale();

    // Uninterrupted reference.
    let mut reference = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    tick_until(&mut reference, &mut NoPfm, TOTAL);

    // Split run: snapshot at SPLIT, restore into a fresh core,
    // continue to the same target.
    let mut first = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    tick_until(&mut first, &mut NoPfm, SPLIT);
    let bytes = first.snapshot();
    drop(first);
    let mut resumed = Core::restore(rc.core.clone(), rc.hier.clone(), uc.program.clone(), &bytes)
        .expect("snapshot restores");
    tick_until(&mut resumed, &mut NoPfm, TOTAL);

    assert!(reference.stats().retired >= TOTAL, "workload too short");
    assert_eq!(
        resumed.commit_checksum(),
        reference.commit_checksum(),
        "committed stream diverged after restore"
    );
    assert_eq!(resumed.stats(), reference.stats(), "core stats diverged");
    assert_eq!(
        resumed.hierarchy().stats(),
        reference.hierarchy().stats(),
        "hierarchy stats diverged"
    );
    assert_eq!(resumed.cycle(), reference.cycle());
}

#[test]
fn libquantum_pfm_roundtrip_is_bit_identical() {
    let uc = usecases::libquantum_scale();
    let rc = RunConfig::test_scale();
    let params = FabricParams::paper_default();

    // Uninterrupted reference: detailed core + fabric.
    let mut ref_fabric = uc.fabric(params.clone());
    let mut reference = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    while !reference.finished() && reference.stats().retired < TOTAL {
        reference.tick(&mut ref_fabric).expect("functional fault");
    }

    // Split run: snapshot core AND fabric at SPLIT, restore both into
    // fresh instances, continue to the same target.
    let mut first_fabric = uc.fabric(params.clone());
    let mut first = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    while !first.finished() && first.stats().retired < SPLIT {
        first.tick(&mut first_fabric).expect("functional fault");
    }
    let core_bytes = first.snapshot();
    let fabric_bytes = first_fabric.snapshot().expect("fabric snapshots");
    drop(first);
    drop(first_fabric);

    let mut resumed_fabric = Fabric::restore(
        params,
        uc.fst.clone(),
        uc.rst.clone(),
        uc.component(),
        &fabric_bytes,
    )
    .expect("fabric restores");
    let mut resumed = Core::restore(
        rc.core.clone(),
        rc.hier.clone(),
        uc.program.clone(),
        &core_bytes,
    )
    .expect("core restores");
    while !resumed.finished() && resumed.stats().retired < TOTAL {
        resumed.tick(&mut resumed_fabric).expect("functional fault");
    }

    assert!(reference.stats().retired >= TOTAL, "workload too short");
    assert_eq!(
        resumed.commit_checksum(),
        reference.commit_checksum(),
        "committed stream diverged after restore"
    );
    assert_eq!(resumed.stats(), reference.stats(), "core stats diverged");
    assert_eq!(
        resumed.hierarchy().stats(),
        reference.hierarchy().stats(),
        "hierarchy stats diverged"
    );
    assert_eq!(
        resumed_fabric.stats(),
        ref_fabric.stats(),
        "fabric stats diverged"
    );
    assert!(
        reference.stats().fabric_prefetches > 0 || ref_fabric.stats().prefetches_injected > 0,
        "the fabric must actually be doing something for this test to mean anything"
    );
}

// --- Mid-swap checkpoints -------------------------------------------------
//
// A machine checkpointed while the fabric slot is mid-reconfiguration
// (Draining, then Loading) must restore and continue bit-identically:
// the residency machine, the remaining drain/load window, and the
// swap counters are all part of the snapshot. This is what lets the
// sampled-run mode (and the experiment service's warm restarts) cut a
// run anywhere, even inside a swap.

const SWAP_AT: u64 = 6_000;
const SWAP_LOAD_CYCLES: u64 = 2_000;

/// Drives one leg of the mid-swap scenario: run to [`SWAP_AT`]
/// retires, begin a swap to a fresh instance of the same
/// configuration, and continue to [`TOTAL`]. When `checkpoint_in`
/// matches the residency state at a tick boundary after the swap
/// began, the machine is snapshotted, torn down, restored into fresh
/// instances, and the run continues from the restored state.
fn midswap_leg(
    uc: &pfm_workloads::UseCase,
    rc: &RunConfig,
    params: &FabricParams,
    checkpoint_in: Option<fn(&pfm_fabric::Residency) -> bool>,
) -> (Core, Fabric) {
    let mut fabric = uc.fabric(params.clone());
    let mut core = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    let mut swapped = false;
    let mut bytes = None;
    while !core.finished() && core.stats().retired < TOTAL {
        if !swapped && core.stats().retired >= SWAP_AT {
            assert!(
                fabric.begin_swap(
                    uc.fst.clone(),
                    uc.rst.clone(),
                    uc.component(),
                    SWAP_LOAD_CYCLES
                ),
                "swap must start from Resident"
            );
            swapped = true;
        }
        if bytes.is_none() && swapped {
            if let Some(want) = checkpoint_in {
                if want(&fabric.residency()) {
                    bytes = Some((
                        core.snapshot(),
                        fabric.snapshot().expect("mid-swap fabric snapshots"),
                    ));
                    break;
                }
            }
        }
        core.tick(&mut fabric).expect("functional fault");
    }
    if checkpoint_in.is_none() {
        return (core, fabric);
    }

    let (core_bytes, fabric_bytes) = bytes.expect("checkpoint state never reached");
    drop(core);
    drop(fabric);
    let mut fabric = Fabric::restore(
        params.clone(),
        uc.fst.clone(),
        uc.rst.clone(),
        uc.component(),
        &fabric_bytes,
    )
    .expect("mid-swap fabric restores");
    let mut core = Core::restore(
        rc.core.clone(),
        rc.hier.clone(),
        uc.program.clone(),
        &core_bytes,
    )
    .expect("core restores");
    while !core.finished() && core.stats().retired < TOTAL {
        core.tick(&mut fabric).expect("functional fault");
    }
    (core, fabric)
}

#[test]
fn machine_checkpointed_mid_swap_roundtrips_bit_identically() {
    let uc = usecases::libquantum_scale();
    let rc = RunConfig::test_scale();
    let params = FabricParams::paper_default();

    let (ref_core, ref_fabric) = midswap_leg(&uc, &rc, &params, None);
    assert!(ref_core.stats().retired >= TOTAL, "workload too short");
    assert_eq!(
        ref_fabric.residency(),
        pfm_fabric::Residency::Resident,
        "the swap must complete well before the run ends"
    );
    assert_eq!(ref_fabric.stats().swaps, 1);
    assert!(ref_fabric.stats().reconfig_cycles >= SWAP_LOAD_CYCLES);

    for (label, want) in [
        (
            "Draining",
            (|r: &pfm_fabric::Residency| matches!(r, pfm_fabric::Residency::Draining { .. }))
                as fn(&pfm_fabric::Residency) -> bool,
        ),
        ("Loading", |r: &pfm_fabric::Residency| {
            matches!(r, pfm_fabric::Residency::Loading { .. })
        }),
    ] {
        let (split_core, split_fabric) = midswap_leg(&uc, &rc, &params, Some(want));
        assert_eq!(
            split_core.commit_checksum(),
            ref_core.commit_checksum(),
            "committed stream diverged after a {label} checkpoint"
        );
        assert_eq!(
            split_core.stats(),
            ref_core.stats(),
            "core stats diverged after a {label} checkpoint"
        );
        assert_eq!(
            split_core.hierarchy().stats(),
            ref_core.hierarchy().stats(),
            "hierarchy stats diverged after a {label} checkpoint"
        );
        assert_eq!(
            split_fabric.stats(),
            ref_fabric.stats(),
            "fabric stats diverged after a {label} checkpoint"
        );
        assert_eq!(split_core.cycle(), ref_core.cycle());
    }
}

// --- Full-issue-queue checkpoints -----------------------------------------
//
// The core's issue-stage bookkeeping (which instructions wait on which
// producer, which are ready, the load and store queues) is derived from
// the ROB at decode rather than serialized. These checkpoints are cut
// while that state is at its fullest: the issue queue full and
// instructions waiting on incomplete producers.

/// Cycles between checkpoint candidates.
const CHECK_EVERY: u64 = 1_500;
/// Checkpoints restored and run to the end.
const CHECKPOINTS: usize = 4;
/// The cycle whose snapshot bytes are pinned by content hash.
const PINNED_CYCLE: u64 = 6_000;
/// `content_key` of the libquantum baseline core's snapshot at
/// [`PINNED_CYCLE`], captured before the issue stage was made
/// event-driven.
const PINNED_KEY: u64 = 0x95d8_2615_a15f_2677;

#[test]
fn libquantum_full_issue_queue_checkpoints_roundtrip() {
    let uc = usecases::libquantum_scale();
    let rc = RunConfig::test_scale();
    let iq_size = rc.core.iq_size;

    let mut core = Core::new(
        rc.core.clone(),
        uc.machine(),
        Hierarchy::new(rc.hier.clone()),
    );
    let mut snaps = Vec::new();
    let mut pinned = None;
    while !core.finished() && core.stats().retired < TOTAL {
        if core.cycle() == PINNED_CYCLE {
            pinned = Some(pfm_isa::snap::content_key(&core.snapshot()));
        }
        if core.cycle().is_multiple_of(CHECK_EVERY) && snaps.len() < CHECKPOINTS {
            let (waiting, blocked) = core.iq_occupancy();
            if waiting >= iq_size && blocked > 0 {
                snaps.push(core.snapshot());
            }
        }
        core.tick(&mut NoPfm).expect("functional fault");
    }
    assert!(core.stats().retired >= TOTAL, "workload too short");
    assert_eq!(
        snaps.len(),
        CHECKPOINTS,
        "the issue queue was full at too few checkpoint candidates"
    );
    assert_eq!(
        pinned,
        Some(PINNED_KEY),
        "snapshot bytes at cycle {PINNED_CYCLE} changed"
    );

    for (i, bytes) in snaps.iter().enumerate() {
        let mut resumed =
            Core::restore(rc.core.clone(), rc.hier.clone(), uc.program.clone(), bytes)
                .expect("core restores");
        assert_eq!(
            &resumed.snapshot(),
            bytes,
            "checkpoint {i}: re-encode differs"
        );
        tick_until(&mut resumed, &mut NoPfm, TOTAL);
        assert_eq!(
            resumed.commit_checksum(),
            core.commit_checksum(),
            "checkpoint {i}: committed stream diverged after restore"
        );
        assert_eq!(
            resumed.stats(),
            core.stats(),
            "checkpoint {i}: core stats diverged"
        );
        assert_eq!(
            resumed.hierarchy().stats(),
            core.hierarchy().stats(),
            "checkpoint {i}: hierarchy stats diverged"
        );
    }
}
