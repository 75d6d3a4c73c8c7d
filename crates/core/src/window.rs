//! Bookkeeping the core derives from its instruction window: the
//! wakeup ring behind event-driven issue, the load and store queues,
//! and the side table of in-flight branch-predictor state.
//!
//! Every structure here is a pure function of the front-end pipe and
//! the ROB. None is serialized: [`crate::Core::snapshot_decode`]
//! rebuilds them from the decoded window.
//!
//! All three are indexed by `seq` modulo a power-of-two size. That is
//! sound because window seqs are contiguous (fetch consumes records in
//! program order and a squash truncates a suffix that re-enters in the
//! same order), so two instructions that are live at once never share
//! a slot while the size exceeds the live span.

use pfm_bpred::{Checkpoint, Prediction};
use std::collections::VecDeque;

/// Marks an empty slot (no real instruction has this `seq`).
const NO_SEQ: u64 = u64::MAX;

/// One slot of the [`WakeupRing`].
#[derive(Clone, Debug)]
struct WakeSlot {
    /// The `seq` that owns the slot while it is in the window and
    /// incomplete (waiting or issued); [`NO_SEQ`] otherwise.
    incomplete: u64,
    /// For a waiting instruction: source operands whose producer is
    /// still incomplete.
    pending: u8,
    /// For an incomplete producer: the waiting consumers of its
    /// result, in dispatch (age) order. The `Vec` keeps its capacity
    /// across the instructions that reuse the slot, so steady-state
    /// wakeup allocates nothing.
    waiters: Vec<u64>,
}

/// Operand readiness and the ready set of the issue queue.
///
/// A consumer's producers are at most `rob_size` older than it, and the
/// ROB spans fewer than `rob_size` seqs, so a ring of at least
/// `2 * rob_size` slots never lets a newer instruction evict a
/// producer that some waiting consumer still names.
#[derive(Clone, Debug)]
pub(crate) struct WakeupRing {
    mask: u64,
    slots: Vec<WakeSlot>,
    /// One bit per slot: a waiting instruction whose sources are all
    /// complete. Iterated from the ROB head's slot, so bit order is age
    /// order.
    ready: Vec<u64>,
}

impl WakeupRing {
    /// A ring for a window of `rob_size` instructions.
    pub(crate) fn new(rob_size: usize) -> WakeupRing {
        let size = (2 * rob_size).next_power_of_two().max(64);
        WakeupRing {
            mask: size as u64 - 1,
            slots: vec![
                WakeSlot {
                    incomplete: NO_SEQ,
                    pending: 0,
                    waiters: Vec::new(),
                };
                size
            ],
            ready: vec![0; size / 64],
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Whether `seq` is in the window and has not completed.
    pub(crate) fn is_incomplete(&self, seq: u64) -> bool {
        self.slots[self.slot(seq)].incomplete == seq
    }

    /// Whether `seq` is in the ready set.
    pub(crate) fn is_ready(&self, seq: u64) -> bool {
        let s = self.slot(seq);
        self.ready[s / 64] & (1 << (s % 64)) != 0
    }

    /// Pending-source count of the waiting instruction `seq`.
    pub(crate) fn pending(&self, seq: u64) -> u8 {
        self.slots[self.slot(seq)].pending
    }

    /// Number of instructions in the ready set.
    pub(crate) fn ready_count(&self) -> usize {
        self.ready.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn set_ready(&mut self, seq: u64, on: bool) {
        let s = self.slot(seq);
        let bit = 1 << (s % 64);
        if on {
            self.ready[s / 64] |= bit;
        } else {
            self.ready[s / 64] &= !bit;
        }
    }

    /// Dispatches `seq` into the issue queue with the given source
    /// producers: it waits on each producer still incomplete, or joins
    /// the ready set at once if there is none.
    pub(crate) fn dispatch(&mut self, seq: u64, srcs: [Option<u64>; 2]) {
        let mut pending = 0;
        for p in srcs.into_iter().flatten() {
            if self.is_incomplete(p) {
                let ps = self.slot(p);
                self.slots[ps].waiters.push(seq);
                pending += 1;
            }
        }
        let s = self.slot(seq);
        debug_assert_eq!(self.slots[s].incomplete, NO_SEQ, "ring slot still live");
        self.slots[s].incomplete = seq;
        self.slots[s].pending = pending;
        self.set_ready(seq, pending == 0);
    }

    /// Takes the ready instruction `seq` out of the ready set as it
    /// issues; it stays incomplete until [`WakeupRing::complete`].
    pub(crate) fn issue(&mut self, seq: u64) {
        debug_assert!(self.is_ready(seq));
        self.set_ready(seq, false);
    }

    /// Completes `seq`: its consumers' pending counts drop, and those
    /// reaching zero join the ready set.
    pub(crate) fn complete(&mut self, seq: u64) {
        let s = self.slot(seq);
        debug_assert_eq!(self.slots[s].incomplete, seq);
        self.slots[s].incomplete = NO_SEQ;
        for i in 0..self.slots[s].waiters.len() {
            let w = self.slots[s].waiters[i];
            let ws = self.slot(w);
            debug_assert!(self.slots[ws].incomplete == w && self.slots[ws].pending > 0);
            self.slots[ws].pending -= 1;
            if self.slots[ws].pending == 0 {
                self.set_ready(w, true);
            }
        }
        self.slots[s].waiters.clear();
    }

    /// Removes the squashed instruction `seq` from the ring.
    pub(crate) fn squash(&mut self, seq: u64) {
        let s = self.slot(seq);
        if self.slots[s].incomplete == seq {
            self.slots[s].incomplete = NO_SEQ;
            self.slots[s].pending = 0;
            self.slots[s].waiters.clear();
            self.set_ready(seq, false);
        }
    }

    /// Drops the waiters of the surviving producer `seq` that a squash
    /// at `boundary` removed. Waiter lists are in age order, so the
    /// squashed ones form a suffix.
    pub(crate) fn forget_waiters_from(&mut self, seq: u64, boundary: u64) {
        let s = self.slot(seq);
        let waiters = &mut self.slots[s].waiters;
        let keep = waiters.partition_point(|&w| w < boundary);
        waiters.truncate(keep);
    }

    /// The oldest instruction in the ready set with `from <= seq < end`.
    pub(crate) fn next_ready(&self, from: u64, end: u64) -> Option<u64> {
        let mut seq = from;
        while seq < end {
            let s = self.slot(seq);
            // Slots within one word are consecutive seqs (the ring is a
            // whole number of words), so the shift never wraps.
            let word = self.ready[s / 64] >> (s % 64);
            if word != 0 {
                let found = seq + u64::from(word.trailing_zeros());
                return (found < end).then_some(found);
            }
            seq += 64 - (s % 64) as u64;
        }
        None
    }
}

/// Issue cycle of a queued memory operation that has not issued.
pub(crate) const NOT_ISSUED: u64 = u64::MAX;

/// One load- or store-queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemOp {
    pub(crate) seq: u64,
    /// Accessed bytes `[start, end)`.
    pub(crate) range: (u64, u64),
    /// Cycle it issued, or [`NOT_ISSUED`].
    pub(crate) issue_cycle: u64,
}

/// A load or store queue: the window's memory operations of one kind
/// in program order. Pushed at dispatch, popped at retire, truncated at
/// a squash.
#[derive(Clone, Debug, Default)]
pub(crate) struct MemQueue {
    ops: VecDeque<MemOp>,
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

impl MemQueue {
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &MemOp> {
        self.ops.iter()
    }

    /// Appends a dispatched operation (younger than every queued one).
    pub(crate) fn push(&mut self, op: MemOp) {
        debug_assert!(self.ops.back().is_none_or(|b| b.seq < op.seq));
        self.ops.push_back(op);
    }

    /// Removes the retiring operation `seq`, which must be the oldest.
    pub(crate) fn retire(&mut self, seq: u64) {
        let head = self.ops.pop_front();
        debug_assert_eq!(head.map(|h| h.seq), Some(seq), "memory queue out of order");
    }

    /// Drops every operation with `seq >= boundary`.
    pub(crate) fn squash_from(&mut self, boundary: u64) {
        let keep = self.ops.partition_point(|o| o.seq < boundary);
        self.ops.truncate(keep);
    }

    /// Records that `seq` issued at `cycle`.
    pub(crate) fn issue(&mut self, seq: u64, cycle: u64) {
        let i = self.ops.partition_point(|o| o.seq < seq);
        debug_assert_eq!(self.ops.get(i).map(|o| o.seq), Some(seq));
        self.ops[i].issue_cycle = cycle;
    }

    /// Store-to-load forwarding: whether a store older than `seq` has
    /// issued by `cycle` and overlaps `range`.
    pub(crate) fn forwards(&self, seq: u64, range: (u64, u64), cycle: u64) -> bool {
        self.ops
            .iter()
            .take_while(|s| s.seq < seq)
            .any(|s| s.issue_cycle <= cycle && overlaps(s.range, range))
    }

    /// Memory disambiguation: the oldest load younger than `seq` that
    /// issued before `cycle` and overlaps `range`.
    pub(crate) fn first_violator(&self, seq: u64, range: (u64, u64), cycle: u64) -> Option<u64> {
        let start = self.ops.partition_point(|o| o.seq <= seq);
        self.ops
            .range(start..)
            .find(|l| l.issue_cycle < cycle && overlaps(l.range, range))
            .map(|l| l.seq)
    }
}

/// Branch-predictor state of one in-flight instruction.
#[derive(Clone, Debug)]
pub(crate) struct BranchMeta {
    seq: u64,
    /// The direction predictor's metadata, for training at retire.
    pub(crate) prediction: Option<Prediction>,
    /// Speculative-history checkpoint, until a mispredict resolves.
    pub(crate) checkpoint: Option<Checkpoint>,
}

/// Branch-predictor state of the in-flight conditional branches, kept
/// off the per-instruction record (it is most of its size, and most
/// instructions are not branches). Indexed by `seq`; sized to cover the
/// ROB plus the front-end pipe.
#[derive(Clone, Debug)]
pub(crate) struct BranchTable {
    mask: u64,
    slots: Vec<BranchMeta>,
}

impl BranchTable {
    /// A table for a window of `live` instructions (ROB plus front-end
    /// pipe).
    pub(crate) fn new(live: usize) -> BranchTable {
        let size = live.next_power_of_two();
        BranchTable {
            mask: size as u64 - 1,
            slots: vec![
                BranchMeta {
                    seq: NO_SEQ,
                    prediction: None,
                    checkpoint: None,
                };
                size
            ],
        }
    }

    /// The state recorded for `seq`, if any.
    pub(crate) fn get(&self, seq: u64) -> Option<&BranchMeta> {
        let m = &self.slots[(seq & self.mask) as usize];
        (m.seq == seq).then_some(m)
    }

    /// Records `seq`'s state, replacing whatever an older incarnation
    /// of the same instruction (squashed and refetched) left.
    pub(crate) fn set(
        &mut self,
        seq: u64,
        prediction: Option<Prediction>,
        checkpoint: Option<Checkpoint>,
    ) {
        self.slots[(seq & self.mask) as usize] = BranchMeta {
            seq,
            prediction,
            checkpoint,
        };
    }

    /// Takes `seq`'s checkpoint (a resolved mispredict consumes it).
    pub(crate) fn take_checkpoint(&mut self, seq: u64) -> Option<Checkpoint> {
        let m = &mut self.slots[(seq & self.mask) as usize];
        if m.seq == seq {
            m.checkpoint.take()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_readies_consumers_in_age_order() {
        let mut r = WakeupRing::new(8);
        r.dispatch(10, [None, None]);
        r.dispatch(11, [Some(10), Some(10)]);
        r.dispatch(12, [Some(10), None]);
        r.dispatch(13, [Some(9), None]); // producer already complete
        assert_eq!(r.next_ready(10, 14), Some(10));
        assert_eq!(r.next_ready(11, 14), Some(13));
        r.issue(10);
        r.complete(10);
        assert_eq!(r.pending(11), 0);
        assert_eq!(r.next_ready(10, 14), Some(11));
        assert_eq!(r.next_ready(12, 14), Some(12));
        assert_eq!(r.ready_count(), 3);
    }

    #[test]
    fn next_ready_wraps_around_the_ring() {
        let mut r = WakeupRing::new(32); // 64 slots
        for seq in 60..70 {
            r.dispatch(seq, [None, None]);
        }
        r.issue(60);
        r.issue(62);
        let mut order = Vec::new();
        let mut cur = 60;
        while let Some(s) = r.next_ready(cur, 70) {
            order.push(s);
            cur = s + 1;
        }
        assert_eq!(order, [61, 63, 64, 65, 66, 67, 68, 69]);
    }

    #[test]
    fn squash_forgets_squashed_waiters() {
        let mut r = WakeupRing::new(8);
        r.dispatch(1, [None, None]);
        r.issue(1);
        r.dispatch(2, [Some(1), None]);
        r.dispatch(3, [Some(1), None]);
        r.squash(3);
        r.forget_waiters_from(1, 3);
        r.dispatch(3, [Some(1), None]); // refetched, waits again
        r.complete(1);
        assert!(r.is_ready(2) && r.is_ready(3));
        assert_eq!(r.pending(3), 0);
    }

    #[test]
    fn memory_queue_forwarding_and_disambiguation() {
        let mut sq = MemQueue::default();
        let mut lq = MemQueue::default();
        sq.push(MemOp {
            seq: 5,
            range: (100, 108),
            issue_cycle: NOT_ISSUED,
        });
        lq.push(MemOp {
            seq: 6,
            range: (104, 112),
            issue_cycle: NOT_ISSUED,
        });
        lq.push(MemOp {
            seq: 8,
            range: (96, 104),
            issue_cycle: NOT_ISSUED,
        });
        assert!(!sq.forwards(6, (104, 112), 3), "store has not issued");
        lq.issue(8, 3);
        assert_eq!(lq.first_violator(5, (100, 108), 3), None, "same cycle");
        assert_eq!(lq.first_violator(5, (100, 108), 4), Some(8));
        sq.issue(5, 4);
        assert!(sq.forwards(6, (104, 112), 4));
        assert!(!sq.forwards(5, (100, 108), 4), "only older stores forward");
        lq.squash_from(7);
        assert_eq!(lq.len(), 1);
        lq.retire(6);
        assert_eq!(lq.len(), 0);
    }

    #[test]
    fn branch_table_tags_by_seq() {
        let mut t = BranchTable::new(5); // 8 slots
        t.set(
            3,
            Some(Prediction::Perfect { taken: true }),
            Some(Checkpoint::None),
        );
        assert!(t.get(3).is_some());
        assert!(t.get(11).is_none(), "same slot, different seq");
        assert!(t.take_checkpoint(3).is_some());
        assert!(t.take_checkpoint(3).is_none());
        assert!(t.get(3).unwrap().prediction.is_some());
    }
}
