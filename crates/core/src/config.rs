//! Superscalar core configuration (Table 1 of the paper).

use pfm_bpred::PredictorKind;

/// Number of execution lanes (4 simple ALU + 2 load/store + 2
/// FP/complex).
pub const NUM_LANES: usize = 8;

/// Execution lane classes, in lane-index order: lanes 0–3 are simple
/// ALUs, 4–5 are load/store, 6–7 are FP/complex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneClass {
    /// Simple single-cycle integer ALU.
    SimpleAlu,
    /// Load/store pipeline.
    LoadStore,
    /// FP / complex-integer pipeline.
    Complex,
}

/// Returns the class of lane `i`.
///
/// # Panics
/// Panics if `i >= NUM_LANES`.
pub fn lane_class(i: usize) -> LaneClass {
    match i {
        0..=3 => LaneClass::SimpleAlu,
        4..=5 => LaneClass::LoadStore,
        6..=7 => LaneClass::Complex,
        _ => panic!("lane index {i} out of range"),
    }
}

/// Indices of the load/store lanes.
pub const LS_LANES: [usize; 2] = [4, 5];

/// Core configuration.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Instructions issued per cycle (across all lanes).
    pub issue_width: usize,
    /// Instructions moved from the front-end into the window per cycle.
    pub dispatch_width: usize,
    /// Cycles between fetch and dispatch (front-end depth; together
    /// with issue/execute/writeback/retire this yields the paper's
    /// 10-stage fetch-to-retire pipeline).
    pub front_depth: u64,
    /// Reorder buffer (active list) entries.
    pub rob_size: usize,
    /// Issue queue entries.
    pub iq_size: usize,
    /// Load queue entries.
    pub ldq_size: usize,
    /// Store queue entries.
    pub stq_size: usize,
    /// Physical register file size (int + fp unified).
    pub prf_size: usize,
    /// Conditional branch predictor.
    pub predictor: PredictorKind,
    /// Return address stack depth.
    pub ras_depth: usize,
}

impl CoreConfig {
    /// The exact superscalar configuration of Table 1.
    pub fn micro21() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            retire_width: 4,
            issue_width: 8,
            dispatch_width: 4,
            front_depth: 5,
            rob_size: 224,
            iq_size: 100,
            ldq_size: 72,
            stq_size: 72,
            prf_size: 288,
            predictor: PredictorKind::TageScl,
            ras_depth: 32,
        }
    }

    /// Instructions the front-end pipe holds: a fetch bundle per stage
    /// plus the one being fetched.
    pub fn front_capacity(&self) -> usize {
        self.fetch_width * (self.front_depth as usize + 1)
    }

    /// Free physical registers available for renaming (PRF minus the
    /// committed architectural state).
    pub fn rename_regs(&self) -> usize {
        self.prf_size.saturating_sub(pfm_isa::reg::NUM_ARCH_REGS)
    }

    /// Canonical content key covering every field. Two configs with
    /// the same key time identically; the experiment planner relies on
    /// this to deduplicate runs.
    pub fn key(&self) -> String {
        format!(
            "f{}d{}i{}r{}_fd{}_rob{}iq{}ldq{}stq{}prf{}_ras{}_{}",
            self.fetch_width,
            self.dispatch_width,
            self.issue_width,
            self.retire_width,
            self.front_depth,
            self.rob_size,
            self.iq_size,
            self.ldq_size,
            self.stq_size,
            self.prf_size,
            self.ras_depth,
            self.predictor.label()
        )
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::micro21()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let c = CoreConfig::micro21();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.retire_width, 4);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_size, 224);
        assert_eq!(c.iq_size, 100);
        assert_eq!(c.ldq_size, 72);
        assert_eq!(c.stq_size, 72);
        assert_eq!(c.prf_size, 288);
        assert_eq!(c.predictor, PredictorKind::TageScl);
    }

    #[test]
    fn lane_layout_matches_table1() {
        let alus = (0..NUM_LANES)
            .filter(|&i| lane_class(i) == LaneClass::SimpleAlu)
            .count();
        let ls = (0..NUM_LANES)
            .filter(|&i| lane_class(i) == LaneClass::LoadStore)
            .count();
        let fp = (0..NUM_LANES)
            .filter(|&i| lane_class(i) == LaneClass::Complex)
            .count();
        assert_eq!((alus, ls, fp), (4, 2, 2));
        assert_eq!(LS_LANES, [4, 5]);
    }

    #[test]
    fn rename_regs_excludes_architectural() {
        assert_eq!(CoreConfig::micro21().rename_regs(), 288 - 64);
    }
}
