//! The cycle-level out-of-order superscalar core.
//!
//! Functional-first discipline: the architectural [`Machine`] executes
//! correct-path instructions at fetch, producing exact values; this
//! module layers the timing model — fetch bundles and I-cache, a
//! front-end pipe, rename with PRF free-list accounting, an issue
//! queue with wakeup/select over 8 lanes, a load/store queue with
//! store-to-load forwarding and speculative memory disambiguation, and
//! 4-wide in-order retirement — on top of those records. Wrong-path
//! execution is modeled as fetch bubbles (the standard
//! trace-replay simplification), applied identically to baseline and
//! PFM runs.
//!
//! Squashes (mispredicts, disambiguation violations, Retire-Agent ROI
//! squashes) rewind *timing* state only: squashed records park in a
//! replay queue and re-enter fetch, while architectural state — which
//! only ever executed the correct path — is untouched.

use crate::config::{CoreConfig, LaneClass, NUM_LANES};
use crate::hooks::{
    FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
};
use crate::stats::SimStats;
use crate::window::{BranchMeta, BranchTable, MemOp, MemQueue, WakeupRing, NOT_ISSUED};
use pfm_bpred::{BranchKind, Btb, Checkpoint, Prediction, Predictor, Ras};
use pfm_isa::fxhash::FxHashMap;
use pfm_isa::inst::{ExecClass, Inst};
use pfm_isa::machine::{ExecError, Machine, StepOut};
use pfm_isa::program::Program;
use pfm_isa::snap::{read_version, write_version, Dec, Enc, SnapError};
use pfm_isa::InstInfo;
use pfm_mem::cache::line_of;
use pfm_mem::{AccessKind, Hierarchy, HierarchyConfig, HitLevel};
use std::collections::VecDeque;

/// Number of slots in the unified architectural register space
/// ([`pfm_isa::RegRef::index`]: 32 integer + 32 FP).
const NUM_ARCH_REGS: usize = 64;

/// Brackets an Agent hook invocation with the debug-build
/// non-interference cross-check (PAPER.md §3: Agents observe the
/// retired stream and intervene microarchitecturally, but never change
/// architectural state). Architectural state — integer/FP registers,
/// the PC, and the committed-memory write generation — is checksummed
/// before and after the hook; any drift aborts the run. The
/// fault-injection seam runs inside the bracket so the check's own
/// alarm is testable (see `PfmHooks::debug_inject_arch_fault`).
/// Compiles to the bare hook call in release builds.
macro_rules! checked_hook {
    ($core:expr, $hooks:expr, $name:literal, $call:expr) => {{
        #[cfg(debug_assertions)]
        let before = $core.machine.arch_checksum();
        #[cfg(debug_assertions)]
        $hooks.debug_inject_arch_fault(&mut $core.machine);
        let out = $call;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            before,
            $core.machine.arch_checksum(),
            concat!("agent hook `", $name, "` mutated architectural state")
        );
        out
    }};
}

/// Instruction timing state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InstState {
    /// In the front-end pipe (fetched, not yet in the window).
    InFront,
    /// In the issue queue waiting for operands/lane.
    Waiting,
    /// Executing.
    Issued,
    /// Done executing; waiting to retire.
    Completed,
}

/// One in-flight dynamic instruction. Its branch-predictor state lives
/// in the core's [`BranchTable`], not here.
#[derive(Clone, Debug)]
struct DynInst {
    step: StepOut,
    info: InstInfo,
    state: InstState,
    /// Cycle at which it may leave the front-end into the window.
    dispatch_ready: u64,
    /// Producer sequence numbers for each source operand.
    srcs: [Option<u64>; 2],
    has_dst: bool,
    issue_cycle: u64,
    complete_cycle: u64,
    /// Direction used by fetch (prediction or fabric override).
    pred_taken: bool,
    /// Direction misprediction (resolved at execute).
    mispredicted: bool,
    /// Return/indirect target misprediction.
    target_mispredicted: bool,
    /// Prediction was supplied by the Fetch Agent.
    from_fabric: bool,
    ras_snap: Option<(usize, usize)>,
}

impl DynInst {
    fn is_load(&self) -> bool {
        self.info.class == ExecClass::Load
    }
    fn is_store(&self) -> bool {
        self.info.class == ExecClass::Store
    }
    /// The load/store-queue entry for this memory operation. A record
    /// without an access gets an empty range, which overlaps nothing.
    fn mem_op(&self) -> MemOp {
        let range = self.step.mem.map_or((0, 0), |m| (m.addr, m.addr + m.size));
        let issue_cycle = match self.state {
            InstState::Issued | InstState::Completed => self.issue_cycle,
            InstState::InFront | InstState::Waiting => NOT_ISSUED,
        };
        MemOp {
            seq: self.step.seq,
            range,
            issue_cycle,
        }
    }

    /// Serializes one in-flight instruction's timing state, with its
    /// branch-predictor state `meta` from the side table inline. The
    /// decoded [`InstInfo`] is not serialized: it is a pure function of
    /// the instruction, re-derived at decode.
    fn snapshot_encode(&self, meta: Option<&BranchMeta>, e: &mut Enc) {
        self.step.snapshot_encode(e);
        e.u8(match self.state {
            InstState::InFront => 0,
            InstState::Waiting => 1,
            InstState::Issued => 2,
            InstState::Completed => 3,
        });
        e.u64(self.dispatch_ready);
        for src in self.srcs {
            match src {
                None => e.u8(0),
                Some(s) => {
                    e.u8(1);
                    e.u64(s);
                }
            }
        }
        e.bool(self.has_dst);
        e.u64(self.issue_cycle);
        e.u64(self.complete_cycle);
        e.bool(self.pred_taken);
        e.bool(self.mispredicted);
        e.bool(self.target_mispredicted);
        e.bool(self.from_fabric);
        match meta.and_then(|m| m.prediction.as_ref()) {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                p.snapshot_encode(e);
            }
        }
        match meta.and_then(|m| m.checkpoint.as_ref()) {
            None => e.u8(0),
            Some(cp) => {
                e.u8(1);
                cp.snapshot_encode(e);
            }
        }
        match self.ras_snap {
            None => e.u8(0),
            Some((top, used)) => {
                e.u8(1);
                e.usize(top);
                e.usize(used);
            }
        }
    }

    /// Decodes an instruction serialized by
    /// [`DynInst::snapshot_encode`], re-fetching the instruction from
    /// `program`, and records its branch-predictor state in `branches`.
    fn snapshot_decode(
        program: &Program,
        branches: &mut BranchTable,
        d: &mut Dec<'_>,
    ) -> Result<DynInst, SnapError> {
        let step = StepOut::snapshot_decode(program, d)?;
        let info = step.inst.info();
        let state = match d.u8()? {
            0 => InstState::InFront,
            1 => InstState::Waiting,
            2 => InstState::Issued,
            3 => InstState::Completed,
            _ => return Err(SnapError::Corrupt("inst state tag")),
        };
        let dispatch_ready = d.u64()?;
        let mut srcs = [None, None];
        for src in &mut srcs {
            *src = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                _ => return Err(SnapError::Corrupt("source producer tag")),
            };
        }
        let has_dst = d.bool()?;
        let issue_cycle = d.u64()?;
        let complete_cycle = d.u64()?;
        let pred_taken = d.bool()?;
        let mispredicted = d.bool()?;
        let target_mispredicted = d.bool()?;
        let from_fabric = d.bool()?;
        let prediction = match d.u8()? {
            0 => None,
            1 => Some(Prediction::snapshot_decode(d)?),
            _ => return Err(SnapError::Corrupt("prediction tag")),
        };
        let checkpoint = match d.u8()? {
            0 => None,
            1 => Some(Checkpoint::snapshot_decode(d)?),
            _ => return Err(SnapError::Corrupt("checkpoint tag")),
        };
        let ras_snap = match d.u8()? {
            0 => None,
            1 => Some((d.usize()?, d.usize()?)),
            _ => return Err(SnapError::Corrupt("ras snapshot tag")),
        };
        if prediction.is_some() || checkpoint.is_some() {
            branches.set(step.seq, prediction, checkpoint);
        }
        Ok(DynInst {
            step,
            info,
            state,
            dispatch_ready,
            srcs,
            has_dst,
            issue_cycle,
            complete_cycle,
            pred_taken,
            mispredicted,
            target_mispredicted,
            from_fabric,
            ras_snap,
        })
    }
}

/// Errors from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The functional machine faulted (bad PC, etc.).
    Exec(ExecError),
    /// The run exceeded the cycle limit without retiring `Halt` or the
    /// requested instruction count (deadlock guard).
    CycleLimit(u64),
    /// The forward-progress watchdog fired: no instruction committed
    /// for the configured number of cycles (see [`Core::run_watched`]).
    /// Distinguishes "the pipeline is wedged" from the blunt
    /// [`SimError::CycleLimit`] cap long before the cap is reached.
    Watchdog {
        /// Cycle at which the last instruction committed (0 if none
        /// ever did).
        last_commit_cycle: u64,
        /// Commit-free cycles elapsed when the watchdog fired.
        stalled_cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit {c} reached (possible deadlock)"),
            SimError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
            } => write!(
                f,
                "forward-progress watchdog: no commit for {stalled_cycles} cycles \
                 (last commit at cycle {last_commit_cycle})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

/// The superscalar core plus its memory hierarchy and predictor.
pub struct Core {
    config: CoreConfig,
    machine: Machine,
    hierarchy: Hierarchy,
    bp: Predictor,
    btb: Btb,
    ras: Ras,

    cycle: u64,
    front: VecDeque<DynInst>,
    rob: VecDeque<DynInst>,
    replay: VecDeque<StepOut>,
    peeked: Option<StepOut>,
    // The event maps are keyed by absolute cycle and only ever point-
    // looked-up (insert at schedule, remove at that cycle) — never
    // iterated, so the hash function cannot influence simulated order.
    // Drained buckets park in a pool for reuse; a cycle's bucket keeps
    // push order, which is what makes completion order deterministic.
    events: FxHashMap<u64, Vec<u64>>,
    event_pool: Vec<Vec<u64>>,
    fabric_load_events: FxHashMap<u64, Vec<(u64, u64, u64)>>, // cycle -> (id, addr, size)
    fabric_load_pool: Vec<Vec<(u64, u64, u64)>>,
    /// Operand readiness, waiter lists and the ready set (event-driven
    /// issue). Derived from the ROB.
    wake: WakeupRing,
    /// Load and store queues in program order. Derived from the ROB.
    lq: MemQueue,
    sq: MemQueue,
    /// Prediction and checkpoint of every in-flight conditional branch.
    branches: BranchTable,
    last_writer: [Option<u64>; NUM_ARCH_REGS],
    /// Reused squash scratch: avoids a fresh allocation per squash.
    squash_scratch: Vec<StepOut>,

    /// Issue-queue occupancy as of the last dispatch (deliberately
    /// *stale* during a cycle: issue() frees IQ entries mid-cycle, but
    /// dispatch sees them freed only next cycle, modeling a one-cycle
    /// IQ-deallocate delay).
    iq_count: usize,
    /// True number of `Waiting` instructions, maintained incrementally
    /// (dispatch +1, issue -1, squash recount). `iq_count` is refreshed
    /// from this at the end of every dispatch, replacing what used to
    /// be an O(ROB) recount per cycle.
    waiting_count: usize,
    dest_count: usize,
    /// Bumped by every change to the window (dispatch, issue,
    /// completion, retire, squash). The debug-build window cross-check
    /// runs only when it moved since `window_checked`, so a window
    /// stalled on a long miss is not re-verified every cycle.
    window_changes: u64,
    window_checked: u64,

    fetch_stall_until: u64,
    fetch_blocked_on: Option<u64>,
    halt_fetched: bool,
    finished: bool,
    last_fetch_line: u64,

    lane_busy: [bool; NUM_LANES],
    lane_busy_prev: [bool; NUM_LANES],

    /// Running FNV fold over the committed instruction stream (PC,
    /// branch outcome, destination write, store), capped at
    /// `checksum_cap` retired instructions. Unlike the live
    /// [`Machine::arch_checksum`] — which includes speculated-ahead
    /// state — this fingerprints exactly what retired, so two runs of
    /// the same workload are comparable even when wide retire
    /// overshoots an instruction budget by different amounts.
    commit_checksum: u64,
    /// Retired instructions folded into `commit_checksum` (set to the
    /// run's instruction budget by [`Core::run_watched`]).
    checksum_cap: u64,

    stats: SimStats,
}

/// FNV-1a constants for the commit-stream checksum.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("retired", &self.stats.retired)
            .field("rob", &self.rob.len())
            .finish()
    }
}

impl Core {
    /// Creates a core around a functional machine and memory hierarchy.
    pub fn new(config: CoreConfig, machine: Machine, hierarchy: Hierarchy) -> Core {
        let bp = Predictor::new(config.predictor);
        let ras_depth = config.ras_depth;
        let wake = WakeupRing::new(config.rob_size);
        let branches = BranchTable::new(config.rob_size + config.front_capacity());
        Core {
            config,
            machine,
            hierarchy,
            bp,
            btb: Btb::default(),
            ras: Ras::new(ras_depth),
            cycle: 0,
            front: VecDeque::new(),
            rob: VecDeque::new(),
            replay: VecDeque::new(),
            peeked: None,
            events: FxHashMap::default(),
            event_pool: Vec::new(),
            fabric_load_events: FxHashMap::default(),
            fabric_load_pool: Vec::new(),
            wake,
            lq: MemQueue::default(),
            sq: MemQueue::default(),
            branches,
            last_writer: [None; NUM_ARCH_REGS],
            squash_scratch: Vec::new(),
            iq_count: 0,
            waiting_count: 0,
            dest_count: 0,
            window_changes: 0,
            window_checked: u64::MAX,
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            halt_fetched: false,
            finished: false,
            last_fetch_line: u64::MAX,
            lane_busy: [false; NUM_LANES],
            lane_busy_prev: [false; NUM_LANES],
            commit_checksum: FNV_OFFSET,
            checksum_cap: u64::MAX,
            stats: SimStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The memory hierarchy (for cache statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The architectural machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Whether `Halt` has retired.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Checksum of the committed instruction stream (the first
    /// `checksum_cap` retired instructions — see the field docs). The
    /// chaos harness compares this between fault-free and
    /// fault-injected runs: equal checksums certify the faults never
    /// reached architectural state.
    pub fn commit_checksum(&self) -> u64 {
        self.commit_checksum
    }

    /// Folds one retired instruction's architectural effects into the
    /// commit-stream checksum. Tags keep absent/present fields from
    /// aliasing (e.g. a store of 0 vs. no store).
    fn fold_commit(&mut self, step: &StepOut) {
        let mut h = self.commit_checksum;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        fold(step.pc);
        fold(step.next_pc);
        fold(u64::from(step.taken));
        match step.wrote {
            Some((reg, value)) => {
                fold(1 + reg.index() as u64);
                fold(value);
            }
            None => fold(0),
        }
        match step.mem {
            Some(m) if m.is_store => {
                fold(1);
                fold(m.addr);
                fold(m.size);
                fold(m.value);
            }
            _ => fold(0),
        }
        self.commit_checksum = h;
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Issue-queue occupancy: the instructions in the window waiting to
    /// issue, and how many of those still wait on an incomplete source
    /// operand.
    pub fn iq_occupancy(&self) -> (usize, usize) {
        let ready = self.wake.ready_count();
        (self.waiting_count, self.waiting_count - ready)
    }

    /// Serializes the complete core state — architectural machine, warm
    /// memory hierarchy, branch-prediction state, and every in-flight
    /// instruction — as snapshot fields (no version header; see
    /// [`Core::snapshot`] for the standalone form).
    ///
    /// Configuration ([`CoreConfig`], [`HierarchyConfig`], the program)
    /// is *not* serialized: it comes from the run key and is passed back
    /// to [`Core::restore`]. Scratch pools (event buckets, squash
    /// scratch) and bookkeeping that is a pure function of the window
    /// (rename map, wakeup ring, load/store queues, queue occupancy
    /// counts) are rebuilt at decode rather than serialized. Branch
    /// predictor state, kept in a side table while in flight, is
    /// encoded inline with its instruction.
    ///
    /// The encoding is canonical: equal state always produces equal
    /// bytes, so `content_key` over the stream is a stable dedup key.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        self.machine.snapshot_encode(e);
        self.hierarchy.snapshot_encode(e);
        self.bp.snapshot_encode(e);
        self.btb.snapshot_encode(e);
        self.ras.snapshot_encode(e);
        e.u64(self.cycle);
        e.usize(self.front.len());
        for d in &self.front {
            d.snapshot_encode(self.branches.get(d.step.seq), e);
        }
        e.usize(self.rob.len());
        for d in &self.rob {
            d.snapshot_encode(self.branches.get(d.step.seq), e);
        }
        e.usize(self.replay.len());
        for s in &self.replay {
            s.snapshot_encode(e);
        }
        match &self.peeked {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                s.snapshot_encode(e);
            }
        }
        // Completion events, keyed by absolute cycle. The cycle keys
        // are sorted so the byte stream is canonical; each bucket's
        // push order (which decides same-cycle completion order) is
        // preserved as-is.
        // pfm-lint: allow(snapshot-hash-iter): sorted before encoding
        let mut cycles: Vec<u64> = self.events.keys().copied().collect();
        cycles.sort_unstable();
        e.usize(cycles.len());
        for c in cycles {
            e.u64(c);
            let bucket = &self.events[&c];
            e.usize(bucket.len());
            for &seq in bucket {
                e.u64(seq);
            }
        }
        // pfm-lint: allow(snapshot-hash-iter): sorted before encoding
        let mut cycles: Vec<u64> = self.fabric_load_events.keys().copied().collect();
        cycles.sort_unstable();
        e.usize(cycles.len());
        for c in cycles {
            e.u64(c);
            let bucket = &self.fabric_load_events[&c];
            e.usize(bucket.len());
            for &(id, addr, size) in bucket {
                e.u64(id);
                e.u64(addr);
                e.u64(size);
            }
        }
        e.u64(self.fetch_stall_until);
        match self.fetch_blocked_on {
            None => e.u8(0),
            Some(seq) => {
                e.u8(1);
                e.u64(seq);
            }
        }
        e.bool(self.halt_fetched);
        e.bool(self.finished);
        e.u64(self.last_fetch_line);
        for b in self.lane_busy {
            e.bool(b);
        }
        for b in self.lane_busy_prev {
            e.bool(b);
        }
        e.u64(self.commit_checksum);
        e.u64(self.checksum_cap);
        self.stats.snapshot_encode(e);
    }

    /// Decodes core state serialized by [`Core::snapshot_encode`],
    /// reconstructing it over the given configuration and program.
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated or structurally invalid input
    /// (bad tags, out-of-order windows, a predictor that does not match
    /// `config.predictor`, ...).
    pub fn snapshot_decode(
        config: CoreConfig,
        hconfig: HierarchyConfig,
        program: Program,
        d: &mut Dec<'_>,
    ) -> Result<Core, SnapError> {
        let machine = Machine::snapshot_decode(program, d)?;
        let hierarchy = Hierarchy::snapshot_decode(hconfig, d)?;
        let bp = Predictor::snapshot_decode(d)?;
        let decoded_kind = match &bp {
            Predictor::TageScl(_) => pfm_bpred::PredictorKind::TageScl,
            Predictor::Gshare(_) => pfm_bpred::PredictorKind::Gshare,
            Predictor::Bimodal(_) => pfm_bpred::PredictorKind::Bimodal,
            Predictor::Perfect => pfm_bpred::PredictorKind::Perfect,
        };
        if decoded_kind != config.predictor {
            return Err(SnapError::Corrupt("predictor kind"));
        }
        let btb = Btb::snapshot_decode(d)?;
        let ras = Ras::snapshot_decode(d)?;
        if ras.depth() != config.ras_depth {
            return Err(SnapError::Corrupt("ras depth"));
        }

        let mut core = Core::new(config, machine, hierarchy);
        core.bp = bp;
        core.btb = btb;
        core.ras = ras;
        core.cycle = d.u64()?;

        let program = core.machine.program().clone();
        let n = d.seq_len()?;
        for _ in 0..n {
            let di = DynInst::snapshot_decode(&program, &mut core.branches, d)?;
            core.front.push_back(di);
        }
        let n = d.seq_len()?;
        for _ in 0..n {
            let di = DynInst::snapshot_decode(&program, &mut core.branches, d)?;
            core.rob.push_back(di);
        }
        let n = d.seq_len()?;
        for _ in 0..n {
            core.replay
                .push_back(StepOut::snapshot_decode(&program, d)?);
        }
        core.peeked = match d.u8()? {
            0 => None,
            1 => Some(StepOut::snapshot_decode(&program, d)?),
            _ => return Err(SnapError::Corrupt("peeked record tag")),
        };
        let ascending = |seqs: &mut dyn Iterator<Item = u64>| {
            let mut prev = None;
            for s in seqs {
                if prev.is_some_and(|p| p >= s) {
                    return false;
                }
                prev = Some(s);
            }
            true
        };
        // The ROB and the front-end pipe hold consecutive seqs (the
        // seq-indexed rings below depend on it), within their sizes.
        let mut window = core.rob.iter().chain(core.front.iter());
        let contiguous = window.next().is_none_or(|first| {
            (first.step.seq..)
                .zip(window)
                .all(|(prev, d)| d.step.seq == prev + 1)
        });
        if !contiguous || !ascending(&mut core.replay.iter().map(|s| s.seq)) {
            return Err(SnapError::Corrupt("window order"));
        }
        if core.rob.len() > core.config.rob_size || core.front.len() > core.config.front_capacity()
        {
            return Err(SnapError::Corrupt("window size"));
        }
        if core.rob.iter().any(|d| d.state == InstState::InFront)
            || core.front.iter().any(|d| d.state != InstState::InFront)
        {
            return Err(SnapError::Corrupt("window state"));
        }

        let n = d.seq_len()?;
        let mut prev_cycle = None;
        for _ in 0..n {
            let c = d.u64()?;
            if prev_cycle.is_some_and(|p| p >= c) {
                return Err(SnapError::Corrupt("event cycle order"));
            }
            prev_cycle = Some(c);
            let m = d.seq_len()?;
            let mut bucket = Vec::with_capacity(m);
            for _ in 0..m {
                bucket.push(d.u64()?);
            }
            core.events.insert(c, bucket);
        }
        let n = d.seq_len()?;
        let mut prev_cycle = None;
        for _ in 0..n {
            let c = d.u64()?;
            if prev_cycle.is_some_and(|p| p >= c) {
                return Err(SnapError::Corrupt("fabric load cycle order"));
            }
            prev_cycle = Some(c);
            let m = d.seq_len()?;
            let mut bucket = Vec::with_capacity(m);
            for _ in 0..m {
                bucket.push((d.u64()?, d.u64()?, d.u64()?));
            }
            core.fabric_load_events.insert(c, bucket);
        }

        core.fetch_stall_until = d.u64()?;
        core.fetch_blocked_on = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            _ => return Err(SnapError::Corrupt("fetch block tag")),
        };
        core.halt_fetched = d.bool()?;
        core.finished = d.bool()?;
        core.last_fetch_line = d.u64()?;
        for b in &mut core.lane_busy {
            *b = d.bool()?;
        }
        for b in &mut core.lane_busy_prev {
            *b = d.bool()?;
        }
        core.commit_checksum = d.u64()?;
        core.checksum_cap = d.u64()?;
        core.stats = SimStats::snapshot_decode(d)?;

        // Rebuild the window bookkeeping that is a pure function of the
        // ROB: rename map, wakeup ring, load/store queues, and occupancy
        // counts. Replaying dispatch in age order registers every
        // waiting instruction with its still-incomplete producers.
        for di in &core.rob {
            let seq = di.step.seq;
            if let Some((reg, _)) = di.step.wrote {
                core.last_writer[reg.index()] = Some(seq);
            }
            if di.is_load() {
                core.lq.push(di.mem_op());
            }
            if di.is_store() {
                core.sq.push(di.mem_op());
            }
            core.dest_count += usize::from(di.has_dst);
            match di.state {
                InstState::Waiting => {
                    core.waiting_count += 1;
                    core.wake.dispatch(seq, di.srcs);
                }
                InstState::Issued => {
                    core.wake.dispatch(seq, [None, None]);
                    core.wake.issue(seq);
                }
                InstState::InFront | InstState::Completed => {}
            }
        }
        core.iq_count = core.waiting_count;
        core.debug_check_window();
        Ok(core)
    }

    /// A standalone snapshot of the complete core state: version header
    /// plus [`Core::snapshot_encode`] fields. Restoring it with
    /// [`Core::restore`] (same config and program) yields a core whose
    /// continued execution is bit-identical to the original's.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        write_version(&mut e);
        self.snapshot_encode(&mut e);
        e.finish()
    }

    /// Restores a core from [`Core::snapshot`] bytes.
    ///
    /// # Errors
    /// Typed [`SnapError`] on version mismatch or invalid input.
    pub fn restore(
        config: CoreConfig,
        hconfig: HierarchyConfig,
        program: Program,
        bytes: &[u8],
    ) -> Result<Core, SnapError> {
        let mut d = Dec::new(bytes);
        read_version(&mut d)?;
        let core = Core::snapshot_decode(config, hconfig, program, &mut d)?;
        d.finish()?;
        Ok(core)
    }

    /// Runs until `Halt` retires, `max_instrs` instructions retire, or
    /// `max_cycles` elapses.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] on functional faults and
    /// [`SimError::CycleLimit`] if `max_cycles` elapses first (which
    /// usually indicates a deadlocked custom component).
    pub fn run(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
    ) -> Result<(), SimError> {
        self.run_watched(hooks, max_instrs, max_cycles, None)
    }

    /// Like [`Core::run`], with a forward-progress watchdog: if no
    /// instruction commits for `commit_watchdog` consecutive cycles the
    /// run is aborted. A hung pipeline (e.g. a custom component that
    /// stalls fetch forever with its chicken switch disabled) is
    /// detected within the watchdog budget instead of burning the full
    /// `max_cycles` cap.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] on functional faults,
    /// [`SimError::CycleLimit`] if `max_cycles` elapses, and
    /// [`SimError::Watchdog`] if the commit watchdog fires first.
    pub fn run_watched(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
        commit_watchdog: Option<u64>,
    ) -> Result<(), SimError> {
        // Cap the commit checksum at the instruction budget so two
        // runs of the same workload fold the same prefix of the
        // retired stream even if their final (wide) retire groups
        // overshoot the budget by different amounts.
        self.checksum_cap = self.checksum_cap.min(max_instrs);
        self.run_watched_until(hooks, max_instrs, max_cycles, commit_watchdog)
    }

    /// Sets the retired-instruction cap of the commit-stream checksum
    /// explicitly. Time-sliced runs (the context-switch scheduler)
    /// call this once with the workload's full budget, then advance in
    /// slices via [`Core::run_watched_until`] — whose intermediate
    /// targets must not shrink the cap the way
    /// [`Core::run_watched`]'s budget does, or the checksum would stop
    /// folding at the first slice boundary.
    pub fn set_checksum_cap(&mut self, cap: u64) {
        self.checksum_cap = cap;
    }

    /// Like [`Core::run_watched`], but `max_instrs` is treated as an
    /// intermediate absolute target that leaves the checksum cap
    /// untouched (see [`Core::set_checksum_cap`]). `max_cycles` stays
    /// an absolute cycle cap.
    ///
    /// # Errors
    /// Same contract as [`Core::run_watched`].
    pub fn run_watched_until(
        &mut self,
        hooks: &mut dyn PfmHooks,
        max_instrs: u64,
        max_cycles: u64,
        commit_watchdog: Option<u64>,
    ) -> Result<(), SimError> {
        let mut last_retired = self.stats.retired;
        let mut last_commit_cycle = self.cycle;
        while !self.finished && self.stats.retired < max_instrs {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit(max_cycles));
            }
            if let Some(wd) = commit_watchdog {
                let stalled_cycles = self.cycle - last_commit_cycle;
                if stalled_cycles >= wd {
                    return Err(SimError::Watchdog {
                        last_commit_cycle,
                        stalled_cycles,
                    });
                }
            }
            self.tick(hooks)?;
            if self.stats.retired != last_retired {
                last_retired = self.stats.retired;
                last_commit_cycle = self.cycle;
            }
        }
        Ok(())
    }

    /// Advances the core by one cycle.
    ///
    /// # Errors
    /// Returns [`SimError::Exec`] if the functional machine faults.
    pub fn tick(&mut self, hooks: &mut dyn PfmHooks) -> Result<(), SimError> {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.lane_busy_prev = self.lane_busy;
        self.lane_busy = [false; NUM_LANES];

        checked_hook!(
            self,
            hooks,
            "begin_cycle",
            hooks.begin_cycle(self.cycle, self.lane_busy_prev)
        );
        self.retire(hooks);
        self.complete(hooks);
        self.issue(hooks);
        self.dispatch();
        self.fetch(hooks)?;
        checked_hook!(self, hooks, "end_cycle", hooks.end_cycle(self.cycle));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Retire
    // ------------------------------------------------------------------

    fn retire(&mut self, hooks: &mut dyn PfmHooks) {
        if checked_hook!(self, hooks, "retire_stalled", hooks.retire_stalled()) {
            self.stats.retire_agent_stall_cycles += 1;
            return;
        }
        for _ in 0..self.config.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != InstState::Completed || head.complete_cycle >= self.cycle {
                break;
            }
            // pfm-lint: allow(hygiene): front() just returned Some
            let inst = self.rob.pop_front().expect("head exists");
            let seq = inst.step.seq;
            self.window_changes += 1;

            // Commit stores: architectural memory + write-buffer D$
            // access (does not stall retire).
            if inst.is_store() {
                self.machine.mem_mut().commit_store(seq);
                // pfm-lint: allow(hygiene): is_store() implies a memory access
                let m = inst.step.mem.expect("store has a memory access");
                self.hierarchy.access(m.addr, AccessKind::Store, self.cycle);
                self.stats.stores += 1;
                self.sq.retire(seq);
            }
            if inst.is_load() {
                self.stats.loads += 1;
                self.lq.retire(seq);
            }
            if inst.has_dst {
                self.dest_count -= 1;
            }

            // Branch bookkeeping and predictor training.
            if inst.info.is_cond_branch {
                self.stats.cond_branches += 1;
                if inst.mispredicted {
                    self.stats.mispredicts += 1;
                    if inst.from_fabric {
                        self.stats.fabric_mispredicts += 1;
                    }
                }
                if inst.from_fabric {
                    self.stats.fabric_predictions_used += 1;
                }
                if let Some(pred) = self.branches.get(seq).and_then(|m| m.prediction.as_ref()) {
                    self.bp.train(inst.step.pc, inst.step.taken, pred);
                }
            }
            if inst.target_mispredicted {
                self.stats.target_mispredicts += 1;
            }
            if inst.info.is_control {
                let kind = match inst.step.inst {
                    Inst::Branch { .. } => BranchKind::Conditional,
                    Inst::Jal { rd, .. } if rd == pfm_isa::Reg::RA => BranchKind::Call,
                    Inst::Jal { .. } => BranchKind::DirectJump,
                    Inst::Jalr { rd, base, .. }
                        if rd == pfm_isa::Reg::X0 && base == pfm_isa::Reg::RA =>
                    {
                        BranchKind::Return
                    }
                    _ => BranchKind::IndirectJump,
                };
                if inst.step.taken {
                    self.btb.update(inst.step.pc, inst.step.next_pc, kind);
                }
            }

            // Rename-table cleanup.
            if let Some((reg, _)) = inst.step.wrote {
                if self.last_writer[reg.index()] == Some(seq) {
                    self.last_writer[reg.index()] = None;
                }
            }
            debug_assert!(!self.wake.is_incomplete(seq));

            self.stats.retired += 1;
            if self.stats.retired <= self.checksum_cap {
                self.fold_commit(&inst.step);
            }

            // Retire Agent observation.
            let info = RetireInfo {
                seq,
                pc: inst.step.pc,
                inst: &inst.step.inst,
                taken: inst.step.taken,
                dest_value: inst.step.wrote.map(|(_, v)| v),
                store: inst.step.mem.and_then(|m| {
                    if m.is_store {
                        Some((m.addr, m.size, m.value))
                    } else {
                        None
                    }
                }),
                lane_busy: self.lane_busy_prev,
            };
            let directive = checked_hook!(self, hooks, "on_retire", hooks.on_retire(&info));

            if inst.step.halted {
                self.finished = true;
                return;
            }
            if directive == RetireDirective::SquashYounger {
                self.stats.squash_roi += 1;
                self.squash_from(seq + 1, SquashKind::RoiBegin, hooks);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Complete / writeback
    // ------------------------------------------------------------------

    /// Position of `seq` in the ROB. Its seqs are consecutive, so this
    /// is an offset from the head.
    fn rob_pos(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.step.seq;
        let pos = usize::try_from(seq.checked_sub(head)?).ok()?;
        (pos < self.rob.len()).then(|| {
            debug_assert_eq!(self.rob[pos].step.seq, seq);
            pos
        })
    }

    fn complete(&mut self, hooks: &mut dyn PfmHooks) {
        // Fabric load data returns.
        if let Some(mut loads) = self.fabric_load_events.remove(&self.cycle) {
            for (id, addr, size) in loads.drain(..) {
                let value = self.machine.mem().read_committed(addr, size);
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(id, FabricLoadResult::Hit { value }, self.cycle)
                );
            }
            self.fabric_load_pool.push(loads);
        }

        let Some(mut seqs) = self.events.remove(&self.cycle) else {
            return;
        };
        for seq in seqs.drain(..) {
            let Some(pos) = self.rob_pos(seq) else {
                continue;
            };
            if self.rob[pos].state != InstState::Issued
                || self.rob[pos].complete_cycle != self.cycle
            {
                continue; // stale event from a squashed incarnation
            }
            self.rob[pos].state = InstState::Completed;
            self.wake.complete(seq);
            self.window_changes += 1;

            let is_store = self.rob[pos].is_store();
            let mispredicted = self.rob[pos].mispredicted || self.rob[pos].target_mispredicted;

            if is_store {
                // Memory-disambiguation check: a younger load that
                // already executed and overlaps this store's bytes
                // violated the dependence.
                let range = self.rob[pos].mem_op().range;
                if let Some(v) = self.lq.first_violator(seq, range, self.cycle) {
                    self.stats.squash_disambiguation += 1;
                    self.squash_from(v, SquashKind::Disambiguation, hooks);
                    continue;
                }
            }

            if mispredicted {
                // Resolve: repair predictor history, notify the fabric,
                // redirect fetch.
                let actual = self.rob[pos].step.taken;
                let is_cond = self.rob[pos].info.is_cond_branch;
                if let Some(cp) = self.branches.take_checkpoint(seq) {
                    if is_cond {
                        self.bp.recover(&cp, actual);
                    } else {
                        self.bp.restore(&cp);
                    }
                }
                if let Some(snap) = self.rob[pos].ras_snap.take() {
                    self.ras.restore(snap);
                }
                self.stats.squash_mispredict += 1;
                checked_hook!(
                    self,
                    hooks,
                    "on_squash",
                    hooks.on_squash(SquashKind::Mispredict, seq + 1, self.cycle)
                );
                if self.fetch_blocked_on == Some(seq) {
                    self.fetch_blocked_on = None;
                    self.fetch_stall_until = self.fetch_stall_until.max(self.cycle + 1);
                }
            }
        }
        self.event_pool.push(seqs);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn lane_for(class: ExecClass) -> LaneClass {
        match class {
            ExecClass::Load | ExecClass::Store => LaneClass::LoadStore,
            ExecClass::Complex => LaneClass::Complex,
            _ => LaneClass::SimpleAlu,
        }
    }

    /// Select: walks the ready set (waiting instructions whose sources
    /// have all completed) oldest first, issuing each that has a free
    /// lane, up to the issue width. Wakeup happens in
    /// [`Core::complete`], so nothing issued this cycle readies another
    /// instruction this cycle.
    fn issue(&mut self, hooks: &mut dyn PfmHooks) {
        let mut lane_free: [usize; 3] = [4, 2, 2]; // SimpleAlu, LoadStore, Complex
        let mut issued = 0usize;
        let cycle = self.cycle;
        let head = self.rob.front().map_or(0, |d| d.step.seq);
        let end = head + self.rob.len() as u64;
        let mut cursor = head;

        while issued < self.config.issue_width {
            let Some(seq) = self.wake.next_ready(cursor, end) else {
                break;
            };
            cursor = seq + 1;
            let pos = (seq - head) as usize;
            let d = &self.rob[pos];
            debug_assert!(d.state == InstState::Waiting && d.step.seq == seq);
            if d.dispatch_ready > cycle {
                continue;
            }
            let lane = Self::lane_for(d.info.class);
            let lane_idx = match lane {
                LaneClass::SimpleAlu => 0,
                LaneClass::LoadStore => 1,
                LaneClass::Complex => 2,
            };
            if lane_free[lane_idx] == 0 {
                continue;
            }

            // Compute completion time.
            let complete_at = match d.info.class {
                ExecClass::Load => {
                    // pfm-lint: allow(hygiene): loads always carry a memory access
                    let m = d.step.mem.expect("load has an access");
                    // Store-to-load forwarding: an older in-flight store
                    // with a known (executed) address that overlaps.
                    if self.sq.forwards(seq, (m.addr, m.addr + m.size), cycle) {
                        cycle + self.hierarchy.config().l1d.latency
                    } else {
                        let outcome = self.hierarchy.access(m.addr, AccessKind::Load, cycle + 1);
                        cycle + outcome.latency
                    }
                }
                ExecClass::Store => cycle + 1, // address generation
                _ => cycle + d.info.latency as u64,
            };

            lane_free[lane_idx] -= 1;
            issued += 1;
            // Mark a concrete lane busy for PRF-port contention modeling.
            let base = match lane {
                LaneClass::SimpleAlu => 0,
                LaneClass::LoadStore => 4,
                LaneClass::Complex => 6,
            };
            let width = match lane {
                LaneClass::SimpleAlu => 4,
                _ => 2,
            };
            for l in base..base + width {
                if !self.lane_busy[l] {
                    self.lane_busy[l] = true;
                    break;
                }
            }

            let d = &mut self.rob[pos];
            d.state = InstState::Issued;
            d.issue_cycle = cycle;
            d.complete_cycle = complete_at;
            if d.is_load() {
                self.lq.issue(seq, cycle);
            } else if d.is_store() {
                self.sq.issue(seq, cycle);
            }
            self.wake.issue(seq);
            self.waiting_count -= 1;
            self.window_changes += 1;
            let pool = &mut self.event_pool;
            self.events
                .entry(complete_at)
                .or_insert_with(|| pool.pop().unwrap_or_default())
                .push(seq);
        }

        // Load Agent: offer leftover load/store issue slots to the
        // fabric ("when the corresponding issue port is not busy").
        let mut free_ls = lane_free[1];
        while free_ls > 0 {
            let Some(req) = checked_hook!(self, hooks, "pop_load", hooks.pop_load()) else {
                break;
            };
            free_ls -= 1;
            if req.is_prefetch {
                self.stats.fabric_prefetches += 1;
                self.hierarchy.external_prefetch(req.addr, cycle);
                continue;
            }
            self.stats.fabric_loads += 1;
            let outcome = self.hierarchy.access(req.addr, AccessKind::Load, cycle);
            if outcome.level == HitLevel::L1 {
                let at = cycle + outcome.latency;
                let pool = &mut self.fabric_load_pool;
                self.fabric_load_events
                    .entry(at)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .push((req.id, req.addr, req.size));
            } else {
                checked_hook!(
                    self,
                    hooks,
                    "load_result",
                    hooks.load_result(req.id, FabricLoadResult::Miss, cycle)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch / rename
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        for _ in 0..self.config.dispatch_width {
            let Some(head) = self.front.front() else {
                break;
            };
            if head.dispatch_ready > self.cycle + 1 {
                // Still flowing through the front-end pipe. (It may
                // enter the window the cycle it becomes ready.)
                break;
            }
            // Structural resources.
            if self.rob.len() >= self.config.rob_size
                || self.iq_count >= self.config.iq_size
                || (head.is_load() && self.lq.len() >= self.config.ldq_size)
                || (head.is_store() && self.sq.len() >= self.config.stq_size)
                || (head.has_dst && self.dest_count >= self.config.rename_regs())
            {
                break;
            }
            // pfm-lint: allow(hygiene): the loop guard checked front() is Some
            let mut d = self.front.pop_front().expect("head exists");
            // Rename: source producers from the last-writer map.
            for (i, src) in d.info.srcs.iter().enumerate() {
                d.srcs[i] = src
                    .filter(|r| !r.is_zero())
                    .and_then(|r| self.last_writer[r.index()]);
            }
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(d.step.seq);
                self.dest_count += 1;
                d.has_dst = true;
            }
            d.state = InstState::Waiting;
            if d.is_load() {
                self.lq.push(d.mem_op());
            }
            if d.is_store() {
                self.sq.push(d.mem_op());
            }
            self.iq_count += 1;
            self.waiting_count += 1;
            self.wake.dispatch(d.step.seq, d.srcs);
            self.rob.push_back(d);
            self.window_changes += 1;
        }
        // IQ entries free at issue; approximate by counting Waiting.
        // `waiting_count` tracks that exactly, so the refresh is O(1).
        debug_assert_eq!(
            self.waiting_count,
            self.rob
                .iter()
                .filter(|d| d.state == InstState::Waiting)
                .count()
        );
        if cfg!(debug_assertions) && self.window_checked != self.window_changes {
            self.window_checked = self.window_changes;
            self.debug_check_window();
        }
        self.iq_count = self.waiting_count;
    }

    /// Debug-build cross-check of the bookkeeping derived from the ROB
    /// against the ROB itself:
    /// - every entry sits at `seq - head` (consecutive seqs);
    /// - the ready set plus the pending slots are exactly the `Waiting`
    ///   entries, each pending count being its incomplete sources;
    /// - the wakeup ring marks exactly the waiting and issued entries
    ///   incomplete;
    /// - the load and store queues are the ROB's loads and stores, in
    ///   order, with their ranges and issue cycles.
    fn debug_check_window(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut ready = 0;
        for (pos, d) in self.rob.iter().enumerate() {
            let seq = d.step.seq;
            assert_eq!(self.rob_pos(seq), Some(pos), "ROB seqs are not consecutive");
            let waiting = d.state == InstState::Waiting;
            assert_eq!(
                self.wake.is_incomplete(seq),
                matches!(d.state, InstState::Waiting | InstState::Issued),
                "seq {seq} incomplete mark disagrees with {:?}",
                d.state
            );
            let pending = if waiting {
                d.srcs
                    .iter()
                    .flatten()
                    .filter(|&&p| self.wake.is_incomplete(p))
                    .count()
            } else {
                0
            };
            assert_eq!(usize::from(self.wake.pending(seq)), pending, "seq {seq}");
            let is_ready = waiting && pending == 0;
            assert_eq!(self.wake.is_ready(seq), is_ready, "seq {seq} ready bit");
            ready += usize::from(is_ready);
        }
        assert_eq!(self.wake.ready_count(), ready, "stray ready bits");
        let loads = self.rob.iter().filter(|d| d.is_load()).map(DynInst::mem_op);
        assert!(loads.eq(self.lq.iter().copied()), "load queue out of sync");
        let stores = self
            .rob
            .iter()
            .filter(|d| d.is_store())
            .map(DynInst::mem_op);
        assert!(
            stores.eq(self.sq.iter().copied()),
            "store queue out of sync"
        );
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn next_record(&mut self) -> Result<Option<StepOut>, ExecError> {
        if let Some(r) = self.peeked.take() {
            return Ok(Some(r));
        }
        if let Some(r) = self.replay.pop_front() {
            return Ok(Some(r));
        }
        if self.machine.halted() {
            return Ok(None);
        }
        self.machine.step().map(Some)
    }

    fn fetch(&mut self, hooks: &mut dyn PfmHooks) -> Result<(), SimError> {
        if self.halt_fetched || self.finished {
            return Ok(());
        }
        if self.fetch_blocked_on.is_some() {
            self.stats.fetch_redirect_stall_cycles += 1;
            return Ok(());
        }
        if self.cycle < self.fetch_stall_until {
            self.stats.fetch_icache_stall_cycles += 1;
            return Ok(());
        }
        let front_cap = self.config.front_capacity();

        for _ in 0..self.config.fetch_width {
            if self.front.len() >= front_cap {
                break;
            }
            let Some(rec) = self.next_record()? else {
                break;
            };

            // I-cache: charge a stall when crossing into a missing line.
            let pc_line = line_of(rec.pc);
            if pc_line != self.last_fetch_line {
                let outcome = self
                    .hierarchy
                    .access(rec.pc, AccessKind::Ifetch, self.cycle);
                self.last_fetch_line = pc_line;
                if outcome.level != HitLevel::L1 {
                    self.fetch_stall_until = self.cycle + outcome.latency;
                    self.peeked = Some(rec);
                    break;
                }
            }

            let info = rec.inst.info();

            // Fetch Agent.
            let over = checked_hook!(
                self,
                hooks,
                "fetch_inst",
                hooks.fetch_inst(rec.seq, rec.pc, info.is_cond_branch)
            );
            if over == FetchOverride::Stall {
                self.stats.fetch_fabric_stall_cycles += 1;
                self.peeked = Some(rec);
                break;
            }

            let mut d = DynInst {
                step: rec,
                info,
                state: InstState::InFront,
                dispatch_ready: self.cycle + self.config.front_depth,
                srcs: [None, None],
                has_dst: false,
                issue_cycle: 0,
                complete_cycle: 0,
                pred_taken: false,
                mispredicted: false,
                target_mispredicted: false,
                from_fabric: false,
                ras_snap: None,
            };

            if info.is_cond_branch {
                let cp = self.bp.checkpoint();
                let pred = self.bp.predict(rec.pc, rec.taken);
                let mut used = pred.taken();
                match over {
                    FetchOverride::Use(dir) => {
                        d.from_fabric = true;
                        if dir != used {
                            // Keep the core predictor's speculative
                            // history aligned with the fetch direction.
                            self.bp.recover(&cp, dir);
                        }
                        used = dir;
                    }
                    FetchOverride::Pass => {}
                    FetchOverride::Stall => unreachable!(),
                }
                d.pred_taken = used;
                d.mispredicted = used != rec.taken;
                self.branches.set(rec.seq, Some(pred), Some(cp));
            } else if info.is_control {
                // jal/jalr: direction always taken; model RAS for
                // returns and BTB for other indirect targets.
                d.pred_taken = true;
                match rec.inst {
                    Inst::Jal { rd, .. } if rd == pfm_isa::Reg::RA => {
                        d.ras_snap = Some(self.ras.snapshot());
                        self.ras.push(rec.pc + 4);
                    }
                    Inst::Jalr { rd, base, .. } => {
                        d.ras_snap = Some(self.ras.snapshot());
                        if rd == pfm_isa::Reg::X0 && base == pfm_isa::Reg::RA {
                            let predicted = self.ras.pop();
                            d.target_mispredicted = predicted != Some(rec.next_pc);
                        } else {
                            let predicted = self.btb.lookup(rec.pc).map(|(t, _)| t);
                            d.target_mispredicted = predicted != Some(rec.next_pc);
                            if rd == pfm_isa::Reg::RA {
                                self.ras.push(rec.pc + 4);
                            }
                        }
                    }
                    _ => {}
                }
            }

            let ends_bundle = (d.info.is_control && (d.pred_taken || d.step.taken))
                || d.step.halted
                || d.mispredicted
                || d.target_mispredicted;
            let seq = d.step.seq;
            let halted = d.step.halted;
            let blocked = d.mispredicted || d.target_mispredicted;
            self.front.push_back(d);

            if halted {
                self.halt_fetched = true;
                break;
            }
            if blocked {
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if ends_bundle {
                break;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Rolls all timing state for instructions with `seq >= boundary`
    /// back to fetch (their records re-enter via the replay queue).
    fn squash_from(&mut self, boundary: u64, kind: SquashKind, hooks: &mut dyn PfmHooks) {
        // Split the ROB. Everything at `cut` and beyond is squashed,
        // but the tail is walked in place and truncated rather than
        // moved out, so a squash allocates nothing.
        let cut = self.rob.partition_point(|d| d.step.seq < boundary);

        // Repair predictor/RAS speculative state using the oldest
        // squashed control instruction's checkpoint.
        for d in self.rob.range(cut..).chain(self.front.iter()) {
            if let Some(cp) = self
                .branches
                .get(d.step.seq)
                .and_then(|m| m.checkpoint.as_ref())
            {
                self.bp.restore(cp);
                break;
            }
            if let Some(snap) = d.ras_snap {
                self.ras.restore(snap);
                break;
            }
        }

        // Records back to replay, in order, via the reusable scratch
        // buffer. Squashed bookkeeping rides along in the same pass.
        let mut scratch = std::mem::take(&mut self.squash_scratch);
        scratch.clear();
        for d in self.rob.range(cut..).chain(self.front.iter()) {
            scratch.push(d.step);
            self.wake.squash(d.step.seq);
            if d.step.halted {
                self.halt_fetched = false;
            }
        }
        scratch.extend(self.peeked.take());
        self.rob.truncate(cut);
        self.window_changes += 1;
        self.lq.squash_from(boundary);
        self.sq.squash_from(boundary);
        self.front.clear();
        // The squashed records are in program order and all older than
        // anything still in the replay queue (replay drains oldest-
        // first before the machine produces fresh records), so they
        // prepend without a sort or merge.
        debug_assert!(scratch.windows(2).all(|w| w[0].seq < w[1].seq));
        debug_assert!(
            match (scratch.last(), self.replay.front()) {
                (Some(s), Some(r)) => s.seq < r.seq,
                _ => true,
            },
            "squashed records must be older than queued replays"
        );
        for r in scratch.drain(..).rev() {
            self.replay.push_front(r);
        }
        self.squash_scratch = scratch;

        // Bookkeeping rebuilds over the surviving window (single pass);
        // surviving producers forget their squashed waiters.
        self.last_writer = [None; NUM_ARCH_REGS];
        self.dest_count = 0;
        self.waiting_count = 0;
        for d in &self.rob {
            if let Some((reg, _)) = d.step.wrote {
                self.last_writer[reg.index()] = Some(d.step.seq);
            }
            self.dest_count += usize::from(d.has_dst);
            self.waiting_count += usize::from(d.state == InstState::Waiting);
            if matches!(d.state, InstState::Waiting | InstState::Issued) {
                self.wake.forget_waiters_from(d.step.seq, boundary);
            }
        }
        self.iq_count = self.waiting_count;

        self.fetch_blocked_on = None;
        self.fetch_stall_until = self.cycle + 1;
        self.last_fetch_line = u64::MAX;

        checked_hook!(
            self,
            hooks,
            "on_squash",
            hooks.on_squash(kind, boundary, self.cycle)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoPfm;
    use pfm_bpred::PredictorKind;
    use pfm_isa::asm::Asm;
    use pfm_isa::mem::SpecMemory;
    use pfm_isa::reg::names::*;
    use pfm_mem::HierarchyConfig;

    fn run_asm(f: impl FnOnce(&mut Asm), cfg: CoreConfig) -> Core {
        run_asm_mem(f, cfg, SpecMemory::new())
    }

    fn run_asm_mem(f: impl FnOnce(&mut Asm), cfg: CoreConfig, mem: SpecMemory) -> Core {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        let machine = Machine::new(a.finish().unwrap(), mem);
        let mut core = Core::new(cfg, machine, Hierarchy::new(HierarchyConfig::micro21()));
        core.run(&mut NoPfm, u64::MAX, 20_000_000).unwrap();
        core
    }

    #[test]
    fn straightline_code_retires_and_matches_functional_result() {
        let core = run_asm(
            |a| {
                a.li(A0, 5);
                a.li(A1, 7);
                a.add(A2, A0, A1);
                a.mul(A3, A2, A2);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        assert!(core.finished());
        assert_eq!(core.machine().reg(A2), 12);
        assert_eq!(core.machine().reg(A3), 144);
        assert_eq!(core.stats().retired, 5);
    }

    #[test]
    fn independent_instructions_achieve_ilp() {
        // 4 independent ALU chains: should sustain IPC well above 1.
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(S0, 0);
                a.li(S1, 0);
                a.li(S2, 0);
                a.li(S3, 0);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.addi(S0, S0, 1);
                a.addi(S1, S1, 1);
                a.addi(S2, S2, 1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0, "expected ILP, got IPC {ipc}");
        assert_eq!(core.machine().reg(S0), 20_000);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // One long dependence chain: IPC must be ~1 or below.
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(S0, 0);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(S0, S0, 1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let ipc = core.stats().ipc();
        assert!(
            ipc < 1.7,
            "dependence chain should serialize, got IPC {ipc}"
        );
        assert_eq!(core.machine().reg(S0), 80_000);
    }

    #[test]
    fn random_branches_cause_mispredicts_and_pipeline_cost() {
        // Data-dependent branch on an LCG: high MPKI, low IPC.
        let core = run_asm(
            |a| {
                let top = a.label();
                let skip = a.label();
                a.li(S0, 12345);
                a.li(S1, 6364136223846793005);
                a.li(S2, 1442695040888963407);
                a.li(T0, 20_000);
                a.li(S4, 0);
                a.bind(top).unwrap();
                a.mul(S0, S0, S1);
                a.add(S0, S0, S2);
                a.srli(T1, S0, 62);
                a.andi(T1, T1, 1);
                a.beq(T1, X0, skip);
                a.addi(S4, S4, 1);
                a.bind(skip).unwrap();
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        let mpki = core.stats().mpki();
        assert!(
            mpki > 30.0,
            "random branch should mispredict often, MPKI {mpki}"
        );
        assert!(core.stats().squash_mispredict > 5_000);
    }

    #[test]
    fn perfect_bp_removes_mispredicts() {
        let mut cfg = CoreConfig::micro21();
        cfg.predictor = PredictorKind::Perfect;
        let core = run_asm(
            |a| {
                let top = a.label();
                let skip = a.label();
                a.li(S0, 12345);
                a.li(S1, 6364136223846793005);
                a.li(S2, 1442695040888963407);
                a.li(T0, 5_000);
                a.bind(top).unwrap();
                a.mul(S0, S0, S1);
                a.add(S0, S0, S2);
                a.srli(T1, S0, 62);
                a.andi(T1, T1, 1);
                a.beq(T1, X0, skip);
                a.addi(S4, S4, 1);
                a.bind(skip).unwrap();
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            cfg,
        );
        assert_eq!(core.stats().mispredicts, 0);
        assert_eq!(core.stats().squash_mispredict, 0);
    }

    #[test]
    fn store_load_forwarding_keeps_values_correct() {
        let core = run_asm(
            |a| {
                let top = a.label();
                a.li(A0, 0x10_0000);
                a.li(T0, 1000);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.sd(T0, A0, 0);
                a.ld(T1, A0, 0); // forwarded from the store
                a.add(S0, S0, T1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
        );
        assert_eq!(core.machine().reg(S0), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn pointer_chase_is_memory_latency_bound() {
        // Build a linked list spanning far more than L1/L2, then chase it.
        let mut mem = SpecMemory::new();
        let n = 40_000u64;
        let base = 0x100_0000u64;
        // Pseudo-random permutation chain with large strides.
        let mut perm: Vec<u64> = (0..n).collect();
        let mut x = 99u64;
        for i in (1..n as usize).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        for i in 0..n as usize {
            let next = perm[(i + 1) % n as usize];
            m_write(&mut mem, base + perm[i] * 64, base + next * 64);
        }
        fn m_write(mem: &mut SpecMemory, addr: u64, v: u64) {
            mem.committed_mut().write(addr, 8, v);
        }
        let core = run_asm_mem(
            |a| {
                let top = a.label();
                a.li(A0, 0x100_0000);
                a.li(T0, 20_000);
                a.bind(top).unwrap();
                a.ld(A0, A0, 0);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
            mem,
        );
        let ipc = core.stats().ipc();
        assert!(
            ipc < 0.25,
            "pointer chase should be latency bound, IPC {ipc}"
        );
        assert!(core.hierarchy().stats().dram_accesses > 1_000);
    }

    #[test]
    fn disambiguation_violation_squashes_but_stays_correct() {
        // A store whose address depends on a long-latency load, followed
        // immediately by a load to the same address: the load issues
        // first (store address unknown) -> violation -> replay.
        let mut mem = SpecMemory::new();
        mem.committed_mut().write(0x20_0000, 8, 0x30_0000); // pointer
        let core = run_asm_mem(
            |a| {
                let top = a.label();
                a.li(A0, 0x20_0000);
                a.li(T0, 200);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.ld(A1, A0, 0); // long-latency pointer load (cold)
                a.sd(T0, A1, 0); // store through pointer
                a.li(A2, 0x30_0000);
                a.ld(T1, A2, 0); // same address; issues before store agen
                a.add(S0, S0, T1);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
            },
            CoreConfig::micro21(),
            mem,
        );
        assert!(
            core.stats().squash_disambiguation > 0,
            "expected violations"
        );
        // Values must still be exact: sum of 200..=1.
        assert_eq!(core.machine().reg(S0), (1..=200u64).sum::<u64>());
    }

    #[test]
    fn rob_size_bounds_memory_level_parallelism() {
        // Independent streaming loads that all miss: a big window
        // overlaps many misses (MLP); a tiny window serializes them.
        fn kernel(a: &mut Asm) {
            let top = a.label();
            a.li(A0, 0x200_0000);
            a.li(T0, 3_000);
            a.bind(top).unwrap();
            a.ld(T1, A0, 0);
            a.ld(T2, A0, 4096);
            a.ld(T3, A0, 8192);
            a.addi(A0, A0, 12288);
            a.addi(T0, T0, -1);
            a.bne(T0, X0, top);
            a.halt();
        }
        let mut small_cfg = CoreConfig::micro21();
        small_cfg.rob_size = 8;
        let small = run_asm(kernel, small_cfg);
        let big = run_asm(kernel, CoreConfig::micro21());
        assert!(
            big.stats().ipc() > small.stats().ipc() * 1.5,
            "big window IPC {} vs small {}",
            big.stats().ipc(),
            small.stats().ipc()
        );
    }

    #[test]
    fn calls_and_returns_predicted_by_ras() {
        let core = run_asm(
            |a| {
                let func = a.label();
                let top = a.label();
                a.li(T0, 2000);
                a.li(S0, 0);
                a.bind(top).unwrap();
                a.call(func);
                a.addi(T0, T0, -1);
                a.bne(T0, X0, top);
                a.halt();
                a.bind(func).unwrap();
                a.addi(S0, S0, 1);
                a.ret();
            },
            CoreConfig::micro21(),
        );
        assert_eq!(core.machine().reg(S0), 2000);
        assert!(
            core.stats().target_mispredicts < 10,
            "RAS should predict returns, got {}",
            core.stats().target_mispredicts
        );
    }

    #[test]
    fn mid_pipeline_snapshot_roundtrip_is_bit_identical() {
        // A branchy, memory-heavy kernel so the snapshot catches a full
        // window: in-flight loads, stores, mispredicted branches,
        // checkpoints, replay records, and pending completion events.
        let build = |a: &mut Asm| {
            let top = a.label();
            let skip = a.label();
            a.li(S0, 12345);
            a.li(S1, 6364136223846793005);
            a.li(S2, 1442695040888963407);
            a.li(A0, 0x40_0000);
            a.li(T0, 30_000);
            a.bind(top).unwrap();
            a.mul(S0, S0, S1);
            a.add(S0, S0, S2);
            a.srli(T1, S0, 62);
            a.andi(T1, T1, 1);
            a.beq(T1, X0, skip);
            a.sd(S0, A0, 0);
            a.ld(T2, A0, 0);
            a.addi(A0, A0, 64);
            a.bind(skip).unwrap();
            a.addi(T0, T0, -1);
            a.bne(T0, X0, top);
            a.halt();
        };
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let program = a.finish().unwrap();
        let machine = Machine::new(program.clone(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );

        // Run mid-flight (manual ticks so nothing caps the checksum).
        for _ in 0..4_000 {
            core.tick(&mut NoPfm).unwrap();
        }
        assert!(!core.finished(), "snapshot point must be mid-run");
        let bytes = core.snapshot();

        let mut restored = Core::restore(
            CoreConfig::micro21(),
            HierarchyConfig::micro21(),
            program,
            &bytes,
        )
        .unwrap();
        assert_eq!(restored.snapshot(), bytes, "re-encode must be canonical");

        // Both continuations must be bit-identical to the end.
        core.run(&mut NoPfm, u64::MAX, 20_000_000).unwrap();
        restored.run(&mut NoPfm, u64::MAX, 20_000_000).unwrap();
        assert!(core.finished() && restored.finished());
        assert_eq!(core.stats(), restored.stats());
        assert_eq!(core.commit_checksum(), restored.commit_checksum());
        assert_eq!(
            core.machine().arch_checksum(),
            restored.machine().arch_checksum()
        );
        assert_eq!(core.hierarchy().stats(), restored.hierarchy().stats());
    }

    #[test]
    fn in_flight_record_stays_small() {
        // Branch-predictor state lives in the side table; inline, the
        // TAGE-SC-L checkpoint alone made every record ~900 bytes.
        let size = std::mem::size_of::<DynInst>();
        assert!(size <= 256, "DynInst grew to {size} bytes");
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_config() {
        let mut a = Asm::new(0x1000);
        let top = a.label();
        a.li(T0, 1000);
        a.bind(top).unwrap();
        a.mul(S0, S0, S0); // a serial chain, so the window fills
        a.addi(T0, T0, -1);
        a.bne(T0, X0, top);
        a.halt();
        let program = a.finish().unwrap();
        let machine = Machine::new(program.clone(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        // Past the cold I-cache miss, into the loop.
        for _ in 0..600 {
            core.tick(&mut NoPfm).unwrap();
        }
        assert!(core.rob.len() > 8, "the window must hold instructions");
        let bytes = core.snapshot();

        // A window larger than the configured ROB cannot be restored:
        // the seq-indexed wakeup ring is sized from `rob_size`.
        let mut wrong = CoreConfig::micro21();
        wrong.rob_size = 8;
        let err =
            Core::restore(wrong, HierarchyConfig::micro21(), program.clone(), &bytes).unwrap_err();
        assert_eq!(err, pfm_isa::snap::SnapError::Corrupt("window size"));

        let mut wrong = CoreConfig::micro21();
        wrong.predictor = PredictorKind::Gshare;
        let err =
            Core::restore(wrong, HierarchyConfig::micro21(), program.clone(), &bytes).unwrap_err();
        assert_eq!(err, pfm_isa::snap::SnapError::Corrupt("predictor kind"));

        let mut wrong = CoreConfig::micro21();
        wrong.ras_depth = 16;
        let err = Core::restore(wrong, HierarchyConfig::micro21(), program, &bytes).unwrap_err();
        assert_eq!(err, pfm_isa::snap::SnapError::Corrupt("ras depth"));
    }

    #[test]
    fn cycle_limit_guard_fires() {
        let mut a = Asm::new(0x1000);
        let top = a.label();
        a.bind(top).unwrap();
        a.j(top); // infinite loop, no halt
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let err = core.run(&mut NoPfm, u64::MAX, 10_000).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit(_)));
    }

    #[test]
    fn commit_watchdog_detects_a_wedged_fetch_long_before_the_cycle_cap() {
        // A hook that stalls fetch forever (a component that never
        // supplies its promised prediction, chicken switch off).
        struct StallForever;
        impl PfmHooks for StallForever {
            fn fetch_inst(&mut self, _: u64, _: u64, _: bool) -> FetchOverride {
                FetchOverride::Stall
            }
        }
        let mut a = Asm::new(0x1000);
        let top = a.label();
        a.bind(top).unwrap();
        a.j(top);
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let err = core
            .run_watched(&mut StallForever, u64::MAX, u64::MAX, Some(500))
            .unwrap_err();
        match err {
            SimError::Watchdog {
                last_commit_cycle,
                stalled_cycles,
            } => {
                assert_eq!(last_commit_cycle, 0, "nothing ever committed");
                assert!(stalled_cycles >= 500);
                assert!(core.cycle() < 2_000, "fired promptly, not at the cap");
            }
            other => panic!("expected Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn arch_checksum_tracks_registers_pc_and_committed_memory() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let base = m.arch_checksum();

        let saved = m.reg(T6);
        m.set_reg(T6, saved.wrapping_add(0xdead));
        assert_ne!(m.arch_checksum(), base, "register writes must show");
        m.set_reg(T6, saved);
        assert_eq!(
            m.arch_checksum(),
            base,
            "restoring the register restores the checksum"
        );

        let pc = m.pc();
        m.set_pc(pc.wrapping_add(4));
        assert_ne!(m.arch_checksum(), base, "pc changes must show");
        m.set_pc(pc);
        assert_eq!(m.arch_checksum(), base);

        // Committed-memory writes bump the generation counter, so even
        // a write of the value already present changes the checksum.
        m.mem_mut().committed_mut().write_u8(0x5000, 0);
        assert_ne!(m.arch_checksum(), base, "committed writes must show");
    }

    /// The misbehaving component for the non-interference cross-check:
    /// it abuses the debug fault-injection seam to corrupt a register
    /// from inside a hook bracket, which must trip the `debug_assert`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mutated architectural state")]
    fn rogue_hook_trips_noninterference_check() {
        struct Rogue;
        impl PfmHooks for Rogue {
            fn debug_inject_arch_fault(&mut self, machine: &mut Machine) {
                let v = machine.reg(T6);
                machine.set_reg(T6, v.wrapping_add(1));
            }
        }
        let mut a = Asm::new(0x1000);
        a.li(A0, 1);
        a.halt();
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let _ = core.run(&mut Rogue, u64::MAX, 10_000);
    }

    /// Same seam, but the "fault" leaves architectural state untouched:
    /// the bracket must stay silent and the run must complete normally.
    #[cfg(debug_assertions)]
    #[test]
    fn benign_seam_override_passes_noninterference_check() {
        struct Benign {
            probes: u64,
        }
        impl PfmHooks for Benign {
            fn debug_inject_arch_fault(&mut self, machine: &mut Machine) {
                // Reads are observation, not interference.
                let _ = machine.reg(T6);
                self.probes += 1;
            }
        }
        let mut a = Asm::new(0x1000);
        a.li(A0, 5);
        a.addi(A0, A0, 2);
        a.halt();
        let machine = Machine::new(a.finish().unwrap(), SpecMemory::new());
        let mut core = Core::new(
            CoreConfig::micro21(),
            machine,
            Hierarchy::new(HierarchyConfig::micro21()),
        );
        let mut hooks = Benign { probes: 0 };
        core.run(&mut hooks, u64::MAX, 10_000).unwrap();
        assert!(core.finished());
        assert_eq!(core.machine().reg(A0), 7);
        assert!(hooks.probes > 0, "seam must have been exercised");
    }
}
