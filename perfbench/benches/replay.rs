//! Host time of the `mem` and `bpred` layers, measured from outside
//! the core: the committed stream of a run is captured with
//! `Machine::step`, and its loads, stores and conditional branches are
//! replayed through a fresh `Hierarchy` and `Predictor`.

use pfm_bpred::{Predictor, PredictorKind};
use pfm_isa::machine::ExecError;
use pfm_mem::{AccessKind, Hierarchy, HierarchyConfig};
use pfm_workloads::UseCase;
use std::time::Instant;

/// The parts of a committed stream the replays need.
#[derive(Debug, Default)]
pub struct Stream {
    /// `(address, is_store)` of every retired load and store.
    pub mem: Vec<(u64, bool)>,
    /// `(pc, taken)` of every retired conditional branch.
    pub branches: Vec<(u64, bool)>,
}

/// Captures the first `budget` committed instructions of `uc`.
///
/// # Errors
/// The machine's fault, if it leaves its program.
pub fn capture(uc: &UseCase, budget: u64) -> Result<Stream, String> {
    let mut m = uc.machine();
    let mut s = Stream::default();
    for _ in 0..budget {
        let out = match m.step() {
            Ok(out) => out,
            Err(ExecError::Halted) => break,
            Err(e) => return Err(e.to_string()),
        };
        if let Some(op) = out.mem {
            s.mem.push((op.addr, op.is_store));
        }
        if out.inst.is_cond_branch() {
            s.branches.push((out.pc, out.taken));
        }
        if out.halted {
            break;
        }
    }
    Ok(s)
}

/// Replays the loads and stores through a fresh hierarchy, one access
/// per cycle; returns host seconds.
pub fn replay_mem(s: &Stream, config: &HierarchyConfig) -> f64 {
    let mut h = Hierarchy::new(config.clone());
    let t = Instant::now();
    for (cycle, &(addr, store)) in s.mem.iter().enumerate() {
        let kind = if store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        std::hint::black_box(h.access(addr, kind, cycle as u64));
    }
    t.elapsed().as_secs_f64()
}

/// Replays the conditional branches through a fresh predictor, as the
/// core does at fetch and retire (checkpoint, predict, repair history
/// on a mispredict, train); returns host seconds.
pub fn replay_bpred(s: &Stream, kind: PredictorKind) -> f64 {
    let mut p = Predictor::new(kind);
    let t = Instant::now();
    for &(pc, taken) in &s.branches {
        let cp = p.checkpoint();
        let pred = p.predict(pc, taken);
        if pred.taken() != taken {
            p.recover(&cp, taken);
        }
        p.train(pc, taken, &pred);
    }
    std::hint::black_box(&p);
    t.elapsed().as_secs_f64()
}
