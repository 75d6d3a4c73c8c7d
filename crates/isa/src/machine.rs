//! Functional (architectural) execution.
//!
//! [`Machine`] walks the correct execution path one instruction at a
//! time. The cycle-level core consumes the produced [`StepOut`] records
//! ("functional-first" simulation): values are architecturally exact,
//! while the timing model separately accounts for speculation, squashes
//! and replay. Stores are registered in the speculative overlay of
//! [`SpecMemory`] at execution and must be committed by the timing model
//! at retirement (see [`SpecMemory::commit_store`]).

use crate::inst::{AluOp, FAluOp, Inst, MemWidth};
use crate::mem::SpecMemory;
use crate::program::{Program, ProgramError};
use crate::reg::{FReg, Reg, RegRef, NUM_FP_REGS, NUM_INT_REGS};
use crate::snap::{Dec, Enc, SnapError, FNV_OFFSET, FNV_PRIME};

/// A functional memory access performed by one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// True for stores, false for loads.
    pub is_store: bool,
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Value loaded or stored (zero-extended raw bits).
    pub value: u64,
}

/// The architectural effects of one executed instruction.
#[derive(Clone, Copy, Debug)]
pub struct StepOut {
    /// Global program-order sequence number (starts at 1).
    pub seq: u64,
    /// Address of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Architecturally correct next PC.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken.
    pub taken: bool,
    /// Memory access, if any.
    pub mem: Option<MemOp>,
    /// Destination register write, if any (raw 64-bit value).
    pub wrote: Option<(RegRef, u64)>,
    /// Whether this instruction halts the machine.
    pub halted: bool,
}

/// Errors raised during functional execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program.
    Program(ProgramError),
    /// Step was called after `Halt` executed.
    Halted,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Program(e) => write!(f, "functional execution error: {e}"),
            ExecError::Halted => write!(f, "machine is halted"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ProgramError> for ExecError {
    fn from(e: ProgramError) -> ExecError {
        ExecError::Program(e)
    }
}

/// Architectural machine state: registers, PC, and data memory.
#[derive(Clone, Debug)]
pub struct Machine {
    regs: [u64; NUM_INT_REGS],
    fregs: [u64; NUM_FP_REGS],
    pc: u64,
    mem: SpecMemory,
    program: Program,
    next_seq: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the program's base address with zeroed
    /// registers and the given data memory.
    pub fn new(program: Program, mem: SpecMemory) -> Machine {
        let pc = program.base();
        Machine {
            regs: [0; NUM_INT_REGS],
            fregs: [0; NUM_FP_REGS],
            pc,
            mem,
            program,
            next_seq: 1,
            halted: false,
        }
    }

    /// Current PC (address of the next instruction to execute).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Overrides the PC (e.g., to start at an exported symbol).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Whether `Halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.num() as usize]
        }
    }

    /// Writes an integer register (writes to `x0` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.num() as usize] = v;
        }
    }

    /// Reads a floating-point register as raw bits.
    pub fn freg_bits(&self, r: FReg) -> u64 {
        self.fregs[r.num() as usize]
    }

    /// Writes a floating-point register from raw bits.
    pub fn set_freg_bits(&mut self, r: FReg, bits: u64) {
        self.fregs[r.num() as usize] = bits;
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The data memory.
    pub fn mem(&self) -> &SpecMemory {
        &self.mem
    }

    /// Mutable access to the data memory (commit/squash bookkeeping is
    /// driven by the timing model).
    pub fn mem_mut(&mut self) -> &mut SpecMemory {
        &mut self.mem
    }

    /// A cheap fingerprint of architectural state: every register file
    /// entry, the PC, and the committed memory's write-generation
    /// counter, folded FNV-style.
    ///
    /// Two equal checksums bracketing a fabric Agent hook invocation
    /// certify the hook did not change architectural state — the PFM
    /// non-interference contract (observe retired stream, intervene
    /// microarchitecturally only). The timing core cross-checks this in
    /// debug builds around every hook call.
    pub fn arch_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for &r in &self.regs {
            fold(r);
        }
        for &f in &self.fregs {
            fold(f);
        }
        fold(self.pc);
        fold(self.mem.committed().generation());
        h
    }

    /// Executes one instruction at the current PC.
    ///
    /// # Errors
    /// Returns [`ExecError::Halted`] if the machine already halted, or
    /// [`ExecError::Program`] if the PC is outside the program.
    pub fn step(&mut self) -> Result<StepOut, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let fall = pc + crate::inst::INST_BYTES;

        let mut out = StepOut {
            seq,
            pc,
            inst,
            next_pc: fall,
            taken: false,
            mem: None,
            wrote: None,
            halted: false,
        };

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                out.wrote = wrote_int(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
                out.wrote = wrote_int(rd, v);
            }
            Inst::Li { rd, imm } => {
                self.set_reg(rd, imm as u64);
                out.wrote = wrote_int(rd, imm as u64);
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let size = width.bytes();
                let raw = self.mem.read_spec(addr, size);
                let v = extend(raw, width, signed);
                self.set_reg(rd, v);
                out.mem = Some(MemOp {
                    is_store: false,
                    addr,
                    size,
                    value: v,
                });
                out.wrote = wrote_int(rd, v);
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let size = width.bytes();
                let v = self.reg(src);
                self.mem.write_spec(seq, addr, size, v);
                out.mem = Some(MemOp {
                    is_store: true,
                    addr,
                    size,
                    value: v,
                });
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                out.taken = taken;
                out.next_pc = if taken { target } else { fall };
            }
            Inst::Jal { rd, target } => {
                self.set_reg(rd, fall);
                out.wrote = wrote_int(rd, fall);
                out.taken = true;
                out.next_pc = target;
            }
            Inst::Jalr { rd, base, offset } => {
                let target = self.reg(base).wrapping_add(offset as u64) & !1u64;
                self.set_reg(rd, fall);
                out.wrote = wrote_int(rd, fall);
                out.taken = true;
                out.next_pc = target;
            }
            Inst::FLoad { fd, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let bits = self.mem.read_spec(addr, 8);
                self.set_freg_bits(fd, bits);
                out.mem = Some(MemOp {
                    is_store: false,
                    addr,
                    size: 8,
                    value: bits,
                });
                out.wrote = Some((fd.into(), bits));
            }
            Inst::FStore { fs, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let bits = self.freg_bits(fs);
                self.mem.write_spec(seq, addr, 8, bits);
                out.mem = Some(MemOp {
                    is_store: true,
                    addr,
                    size: 8,
                    value: bits,
                });
            }
            Inst::FAlu { op, fd, fs1, fs2 } => {
                let a = f64::from_bits(self.freg_bits(fs1));
                let b = f64::from_bits(self.freg_bits(fs2));
                let r = match op {
                    FAluOp::Fadd => a + b,
                    FAluOp::Fsub => a - b,
                    FAluOp::Fmul => a * b,
                    FAluOp::Fdiv => a / b,
                    FAluOp::Fmin => a.min(b),
                    FAluOp::Fmax => a.max(b),
                };
                let bits = r.to_bits();
                self.set_freg_bits(fd, bits);
                out.wrote = Some((fd.into(), bits));
            }
            Inst::FMvToF { fd, rs1 } => {
                let bits = self.reg(rs1);
                self.set_freg_bits(fd, bits);
                out.wrote = Some((fd.into(), bits));
            }
            Inst::FMvToX { rd, fs1 } => {
                let bits = self.freg_bits(fs1);
                self.set_reg(rd, bits);
                out.wrote = wrote_int(rd, bits);
            }
            Inst::Nop => {}
            Inst::Halt => {
                out.halted = true;
                self.halted = true;
            }
        }

        self.pc = out.next_pc;
        Ok(out)
    }

    /// Runs until `Halt` or `max_steps`, returning the number of
    /// instructions executed. Commits every store immediately
    /// (pure-functional mode, no timing model attached).
    ///
    /// # Errors
    /// Propagates any [`ExecError`] from `step`.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        let mut n = 0;
        while !self.halted && n < max_steps {
            let out = self.step()?;
            if let Some(m) = out.mem {
                if m.is_store {
                    self.mem.commit_store(out.seq);
                }
            }
            n += 1;
        }
        Ok(n)
    }

    /// Serializes the architectural state — registers, PC, sequence
    /// counter, halt flag, data memory — as snapshot fields (no
    /// version header; composed into larger snapshots by the core).
    ///
    /// The program itself is not serialized: it is immutable and
    /// identified by the run spec, so the decoder takes it as input.
    pub fn snapshot_encode(&self, e: &mut Enc) {
        for &r in &self.regs {
            e.u64(r);
        }
        for &f in &self.fregs {
            e.u64(f);
        }
        e.u64(self.pc);
        e.u64(self.next_seq);
        e.bool(self.halted);
        self.mem.snapshot_encode(e);
    }

    /// Reconstructs a machine serialized by
    /// [`Machine::snapshot_encode`] over `program`.
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated or invalid input.
    pub fn snapshot_decode(program: Program, d: &mut Dec<'_>) -> Result<Machine, SnapError> {
        let mut regs = [0u64; NUM_INT_REGS];
        for r in &mut regs {
            *r = d.u64()?;
        }
        if regs[0] != 0 {
            return Err(SnapError::Corrupt("x0 not zero"));
        }
        let mut fregs = [0u64; NUM_FP_REGS];
        for f in &mut fregs {
            *f = d.u64()?;
        }
        let pc = d.u64()?;
        let next_seq = d.u64()?;
        if next_seq == 0 {
            return Err(SnapError::Corrupt("sequence counter"));
        }
        let halted = d.bool()?;
        let mem = SpecMemory::snapshot_decode(d)?;
        Ok(Machine {
            regs,
            fregs,
            pc,
            mem,
            program,
            next_seq,
            halted,
        })
    }

    /// A standalone architectural snapshot: version header plus
    /// [`Machine::snapshot_encode`] fields.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        crate::snap::write_version(&mut e);
        self.snapshot_encode(&mut e);
        e.finish()
    }

    /// Restores a machine from [`Machine::snapshot`] bytes.
    ///
    /// # Errors
    /// Typed [`SnapError`] on version mismatch or invalid input.
    pub fn restore(program: Program, bytes: &[u8]) -> Result<Machine, SnapError> {
        let mut d = Dec::new(bytes);
        crate::snap::read_version(&mut d)?;
        let m = Machine::snapshot_decode(program, &mut d)?;
        d.finish()?;
        Ok(m)
    }
}

impl StepOut {
    /// Serializes everything but the instruction itself (re-fetched
    /// from the program at decode, keyed by `pc`).
    pub fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.seq);
        e.u64(self.pc);
        e.u64(self.next_pc);
        e.bool(self.taken);
        match self.mem {
            None => e.u8(0),
            Some(m) => {
                e.u8(1);
                e.bool(m.is_store);
                e.u64(m.addr);
                e.u64(m.size);
                e.u64(m.value);
            }
        }
        match self.wrote {
            None => e.u8(0),
            Some((RegRef::Int(r), v)) => {
                e.u8(1);
                e.u8(r.num());
                e.u64(v);
            }
            Some((RegRef::Fp(f), v)) => {
                e.u8(2);
                e.u8(f.num());
                e.u64(v);
            }
        }
        e.bool(self.halted);
    }

    /// Reconstructs a record serialized by
    /// [`StepOut::snapshot_encode`], re-fetching the instruction from
    /// `program`.
    ///
    /// # Errors
    /// Typed [`SnapError`] on truncated input, a PC outside the
    /// program, or an out-of-range register number.
    pub fn snapshot_decode(program: &Program, d: &mut Dec<'_>) -> Result<StepOut, SnapError> {
        let seq = d.u64()?;
        let pc = d.u64()?;
        let inst = program
            .fetch(pc)
            .map_err(|_| SnapError::Corrupt("step pc outside program"))?;
        let next_pc = d.u64()?;
        let taken = d.bool()?;
        let mem = match d.u8()? {
            0 => None,
            1 => {
                let m = MemOp {
                    is_store: d.bool()?,
                    addr: d.u64()?,
                    size: d.u64()?,
                    value: d.u64()?,
                };
                if !matches!(m.size, 1 | 2 | 4 | 8) {
                    return Err(SnapError::Corrupt("mem op size"));
                }
                Some(m)
            }
            _ => return Err(SnapError::Corrupt("mem op tag")),
        };
        let wrote = match d.u8()? {
            0 => None,
            1 => {
                let n = d.u8()?;
                if n as usize >= NUM_INT_REGS {
                    return Err(SnapError::Corrupt("int register number"));
                }
                Some((RegRef::Int(Reg::new(n)), d.u64()?))
            }
            2 => {
                let n = d.u8()?;
                if n as usize >= NUM_FP_REGS {
                    return Err(SnapError::Corrupt("fp register number"));
                }
                Some((RegRef::Fp(FReg::new(n)), d.u64()?))
            }
            _ => return Err(SnapError::Corrupt("dest write tag")),
        };
        let halted = d.bool()?;
        Ok(StepOut {
            seq,
            pc,
            inst,
            next_pc,
            taken,
            mem,
            wrote,
            halted,
        })
    }
}

fn wrote_int(rd: Reg, v: u64) -> Option<(RegRef, u64)> {
    if rd.is_zero() {
        None
    } else {
        Some((rd.into(), v))
    }
}

pub(crate) fn extend(raw: u64, width: MemWidth, signed: bool) -> u64 {
    if !signed {
        return raw;
    }
    match width {
        MemWidth::B1 => raw as u8 as i8 as i64 as u64,
        MemWidth::B2 => raw as u16 as i16 as i64 as u64,
        MemWidth::B4 => raw as u32 as i32 as i64 as u64,
        MemWidth::B8 => raw,
    }
}

pub(crate) fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    op.eval(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::names::*;

    fn machine(f: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new(0x1000);
        f(&mut a);
        Machine::new(a.finish().unwrap(), SpecMemory::new())
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum 1..=10
        let mut m = machine(|a| {
            let top = a.label();
            a.li(A0, 0);
            a.li(A1, 10);
            a.bind(top).unwrap();
            a.add(A0, A0, A1);
            a.addi(A1, A1, -1);
            a.bne(A1, X0, top);
            a.halt();
        });
        m.run(1000).unwrap();
        assert_eq!(m.reg(A0), 55);
        assert!(m.halted());
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut m = machine(|a| {
            a.li(A0, 0x8000);
            a.li(A1, -42);
            a.sd(A1, A0, 0);
            a.ld(A2, A0, 0);
            a.sw(A1, A0, 8);
            a.lw(A3, A0, 8); // sign-extended
            a.lwu(A4, A0, 8); // zero-extended
            a.halt();
        });
        m.run(1000).unwrap();
        assert_eq!(m.reg(A2) as i64, -42);
        assert_eq!(m.reg(A3) as i64, -42);
        assert_eq!(m.reg(A4), 0xFFFF_FFD6);
    }

    #[test]
    fn branch_taken_and_not_taken_reported() {
        let mut m = machine(|a| {
            let skip = a.label();
            a.li(A0, 1);
            a.beq(A0, X0, skip); // not taken
            a.bne(A0, X0, skip); // taken
            a.nop(); // skipped
            a.bind(skip).unwrap();
            a.halt();
        });
        let _li = m.step().unwrap();
        let beq = m.step().unwrap();
        assert!(!beq.taken);
        assert_eq!(beq.next_pc, beq.pc + 4);
        let bne = m.step().unwrap();
        assert!(bne.taken);
        assert_eq!(bne.next_pc, 0x1010);
    }

    #[test]
    fn call_and_return() {
        let mut m = machine(|a| {
            let func = a.label();
            a.call(func);
            a.halt();
            a.bind(func).unwrap();
            a.li(A0, 99);
            a.ret();
        });
        m.run(100).unwrap();
        assert_eq!(m.reg(A0), 99);
        assert!(m.halted());
    }

    #[test]
    fn step_records_seq_and_dest_values() {
        let mut m = machine(|a| {
            a.li(A0, 7);
            a.addi(A1, A0, 3);
            a.halt();
        });
        let s1 = m.step().unwrap();
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.wrote, Some((A0.into(), 7)));
        let s2 = m.step().unwrap();
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.wrote, Some((A1.into(), 10)));
    }

    #[test]
    fn stores_stay_speculative_until_committed() {
        let mut m = machine(|a| {
            a.li(A0, 0x9000);
            a.li(A1, 5);
            a.sd(A1, A0, 0);
            a.ld(A2, A0, 0);
            a.halt();
        });
        m.step().unwrap();
        m.step().unwrap();
        let st = m.step().unwrap();
        assert!(st.mem.unwrap().is_store);
        // Committed view does not see it yet; spec view does.
        assert_eq!(m.mem().read_committed(0x9000, 8), 0);
        let ld = m.step().unwrap();
        assert_eq!(ld.mem.unwrap().value, 5);
        m.mem_mut().commit_store(st.seq);
        assert_eq!(m.mem().read_committed(0x9000, 8), 5);
    }

    #[test]
    fn riscv_division_semantics() {
        assert_eq!(alu(AluOp::Div, 7, 0), u64::MAX);
        assert_eq!(alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(
            alu(AluOp::Div, i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64
        );
        assert_eq!(alu(AluOp::Rem, i64::MIN as u64, (-1i64) as u64), 0);
        assert_eq!(alu(AluOp::Divu, 7, 0), u64::MAX);
        assert_eq!(alu(AluOp::Remu, 7, 0), 7);
    }

    #[test]
    fn fp_pipeline() {
        let mut m = machine(|a| {
            a.li(A0, 0x8000);
            a.li(A1, 2.5f64.to_bits() as i64);
            a.sd(A1, A0, 0);
            a.fld(FT0, A0, 0);
            a.fadd(FT1, FT0, FT0);
            a.fmul(FT2, FT1, FT0);
            a.fsd(FT2, A0, 8);
            a.halt();
        });
        m.run(100).unwrap();
        let bits = m.mem().read_committed(0x8008, 8);
        assert_eq!(f64::from_bits(bits), 12.5);
    }

    #[test]
    fn halt_stops_stepping() {
        let mut m = machine(|a| {
            a.halt();
        });
        let out = m.step().unwrap();
        assert!(out.halted);
        assert_eq!(m.step().unwrap_err(), ExecError::Halted);
    }

    #[test]
    fn x0_is_immutable() {
        let mut m = machine(|a| {
            a.li(X0, 42);
            a.addi(A0, X0, 1);
            a.halt();
        });
        m.run(10).unwrap();
        assert_eq!(m.reg(X0), 0);
        assert_eq!(m.reg(A0), 1);
    }

    #[test]
    fn bad_pc_is_reported() {
        let mut m = machine(|a| {
            a.nop();
        });
        m.step().unwrap();
        assert!(matches!(m.step().unwrap_err(), ExecError::Program(_)));
    }
}
