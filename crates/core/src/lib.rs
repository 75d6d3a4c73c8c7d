//! # pfm-core — cycle-level out-of-order superscalar core
//!
//! The paper's Table 1 core: 10-stage fetch-to-retire, 4-wide
//! fetch/retire, 8-wide issue over {4 simple-ALU, 2 load/store, 2
//! FP/complex} lanes, 224-entry active list, 100-entry issue queue,
//! 72/72 load/store queues, 288-entry unified physical register file,
//! TAGE-SC-L branch prediction, store-to-load forwarding, speculative
//! memory disambiguation with replay, and perfect-BP/perfect-D$ oracle
//! modes.
//!
//! PFM attaches through [`hooks::PfmHooks`]: the Fetch, Retire and Load
//! Agents of `pfm-fabric` observe and intervene at exactly the pipeline
//! points described in §2 of the paper.
//!
//! ## Example
//!
//! ```
//! use pfm_core::{Core, CoreConfig, NoPfm};
//! use pfm_isa::{Asm, Machine, SpecMemory};
//! use pfm_isa::reg::names::*;
//! use pfm_mem::{Hierarchy, HierarchyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0x1000);
//! let top = a.label();
//! a.li(T0, 1000);
//! a.bind(top)?;
//! a.addi(S0, S0, 1);
//! a.addi(T0, T0, -1);
//! a.bne(T0, X0, top);
//! a.halt();
//! let machine = Machine::new(a.finish()?, SpecMemory::new());
//! let mut core = Core::new(CoreConfig::micro21(), machine, Hierarchy::new(HierarchyConfig::micro21()));
//! core.run(&mut NoPfm, u64::MAX, 1_000_000)?;
//! assert_eq!(core.machine().reg(S0), 1000);
//! println!("IPC = {:.2}", core.stats().ipc());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod hooks;
pub mod stats;
mod window;

pub use crate::core::{Core, SimError};
pub use config::{CoreConfig, LaneClass, NUM_LANES};
pub use hooks::{
    FabricLoad, FabricLoadResult, FetchOverride, NoPfm, PfmHooks, RetireDirective, RetireInfo,
    SquashKind,
};
pub use stats::SimStats;
