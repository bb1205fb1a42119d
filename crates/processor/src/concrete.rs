//! Concrete (executable) twin of the symbolic processor model.
//!
//! [`MutantCore`] interprets the same architectural semantics and the same
//! [`Mutation`] descriptions as [`SymbolicProcessor`](crate::symbolic::SymbolicProcessor),
//! so that counterexamples found by BMC can be replayed step by step, and so
//! that the symbolic model can be differentially tested against an
//! independent implementation.

use sepe_isa::{Instr, Opcode, OperandKind, Reg};
use sepe_smt::sort::{mask, sign_extend};

use crate::config::ProcessorConfig;
use crate::mutation::{Effect, Mutation};
use crate::symbolic::materialise_imm;

/// Computes the ALU result of an opcode at a reduced data-path width.
///
/// This mirrors [`sepe_isa::exec::alu_value`] but is parametric in XLEN; at
/// `xlen == 32` the two agree bit for bit.
pub fn alu_value_width(opcode: Opcode, a: u64, b: u64, xlen: u32) -> u64 {
    use Opcode::*;
    let a = mask(a, xlen);
    let b = mask(b, xlen);
    let sa = sign_extend(a, xlen) as i64;
    let sb = sign_extend(b, xlen) as i64;
    let shamt = (b & u64::from(xlen - 1)) as u32;
    let value = match opcode {
        Add | Addi => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Sll | Slli => a << shamt,
        Slt | Slti => u64::from(sa < sb),
        Sltu | Sltiu => u64::from(a < b),
        Xor | Xori => a ^ b,
        Srl | Srli => a >> shamt,
        Sra | Srai => (sa >> shamt) as u64,
        Or | Ori => a | b,
        And | Andi => a & b,
        Mul => a.wrapping_mul(b),
        Mulh => ((sa.wrapping_mul(sb)) as u64) >> xlen,
        Mulhsu => ((sa.wrapping_mul(b as i64)) as u64) >> xlen,
        Mulhu => (a.wrapping_mul(b)) >> xlen,
        Lui => b,
        Lw | Sw => unreachable!("memory instructions are not ALU operations"),
    };
    mask(value, xlen)
}

/// The concrete mutant core: register file, small word memory, history
/// window and an optional injected bug.
#[derive(Debug, Clone)]
pub struct MutantCore {
    config: ProcessorConfig,
    mutation: Option<Mutation>,
    regs: Vec<u64>,
    mem: Vec<u64>,
    history: Vec<Instr>,
}

impl MutantCore {
    /// Creates a core with all state zeroed.
    pub fn new(config: ProcessorConfig, mutation: Option<Mutation>) -> Self {
        config.validate();
        MutantCore {
            regs: vec![0; 32],
            mem: vec![0; config.mem_words],
            history: Vec::new(),
            config,
            mutation,
        }
    }

    /// The configuration of this core.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (masked to XLEN; writes to `x0` are dropped).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = mask(value, self.config.xlen);
        }
    }

    /// Reads a data-memory word by index.
    pub fn mem_word(&self, index: usize) -> u64 {
        self.mem[index % self.config.mem_words]
    }

    /// The full register file (with `x0` forced to zero).
    pub fn regs(&self) -> Vec<u64> {
        let mut out = self.regs.clone();
        out[0] = 0;
        out
    }

    /// The full data memory.
    pub fn mem(&self) -> &[u64] {
        &self.mem
    }

    /// The most recently committed instructions, newest first.
    pub fn history(&self) -> &[Instr] {
        &self.history
    }

    fn memory_index(&self, address: u64, bank: bool) -> usize {
        let half = self.config.mem_words / 2;
        let low = ((address >> 2) as usize) & (half - 1);
        usize::from(bank) * half + low
    }

    /// Commits one instruction with memory accesses routed to the lower
    /// bank, applying the injected bug if its trigger fires.
    pub fn commit(&mut self, instr: &Instr) {
        self.commit_banked(instr, false);
    }

    /// Commits one instruction with memory accesses routed to the given
    /// bank (the QED transformations use the upper bank for
    /// duplicate/equivalent instructions).
    pub fn commit_banked(&mut self, instr: &Instr, bank: bool) {
        let xlen = self.config.xlen;
        let prev = self.history.first().cloned();
        let prev2 = self.history.get(1).cloned();
        let triggered = self
            .mutation
            .as_ref()
            .map(|m| m.trigger.fires(instr, prev.as_ref(), prev2.as_ref()))
            .unwrap_or(false);
        let effect = self.mutation.as_ref().map(|m| m.effect);

        let rs1_raw = self.reg(instr.rs1);
        let rs2_val = self.reg(instr.rs2);
        let rs1_val = match effect {
            Some(Effect::ZeroFirstOperand) if triggered => 0,
            Some(Effect::SwapOperands) if triggered => rs2_val,
            _ => rs1_raw,
        };
        let imm = materialise_imm(instr, xlen);

        let mut address = mask(rs1_val.wrapping_add(imm), xlen);
        match effect {
            Some(Effect::AddressOffset(off)) if triggered => {
                address = mask(address.wrapping_add(off), xlen);
            }
            Some(Effect::IgnoreMemOffset) if triggered => {
                address = rs1_val;
            }
            _ => {}
        }
        let mem_read = self.mem[self.memory_index(address, bank)];

        let nominal = match instr.opcode {
            Opcode::Lw => mem_read,
            Opcode::Sw => rs2_val,
            Opcode::Lui => imm,
            op => match op.operand_kind() {
                OperandKind::RegReg => alu_value_width(op, rs1_val, rs2_val, xlen),
                OperandKind::RegImm | OperandKind::RegShamt => {
                    alu_value_width(op, rs1_val, imm, xlen)
                }
                _ => unreachable!("handled above"),
            },
        };
        let result = match effect {
            Some(Effect::XorResult(c)) if triggered => mask(nominal ^ c, xlen),
            Some(Effect::AddToResult(c)) if triggered => mask(nominal.wrapping_add(c), xlen),
            Some(Effect::WrongOperation(op2)) if triggered => match instr.opcode {
                Opcode::Lw => mem_read,
                Opcode::Sw => rs2_val,
                Opcode::Lui => imm,
                op => {
                    let b = if op.operand_kind() == OperandKind::RegReg {
                        rs2_val
                    } else {
                        imm
                    };
                    alu_value_width(op2, rs1_val, b, xlen)
                }
            },
            _ => nominal,
        };

        let drops_writeback = matches!(effect, Some(Effect::DropWriteback)) && triggered;
        if instr.opcode == Opcode::Sw {
            let idx = self.memory_index(address, bank);
            self.mem[idx] = result;
        } else if instr.opcode.writes_rd() && !drops_writeback {
            self.set_reg(instr.rd, result);
        }

        self.history.insert(0, *instr);
        self.history.truncate(self.config.history_depth);
    }

    /// Commits a sequence of instructions.
    pub fn run<'a, I: IntoIterator<Item = &'a Instr>>(&mut self, program: I) {
        for instr in program {
            self.commit(instr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicProcessor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sepe_smt::concrete::Assignment;
    use sepe_smt::TermManager;

    #[test]
    fn reduced_width_alu_matches_full_width_at_32_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let opcodes = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::Sll,
            Opcode::Slt,
            Opcode::Sltu,
            Opcode::Xor,
            Opcode::Srl,
            Opcode::Sra,
            Opcode::Or,
            Opcode::And,
            Opcode::Mul,
            Opcode::Mulh,
            Opcode::Mulhsu,
            Opcode::Mulhu,
        ];
        for &op in &opcodes {
            for _ in 0..30 {
                let a: u32 = rng.gen();
                let b: u32 = rng.gen();
                assert_eq!(
                    alu_value_width(op, u64::from(a), u64::from(b), 32) as u32,
                    sepe_isa::exec::alu_value(op, a, b),
                    "mismatch for {op} on {a:#x},{b:#x}"
                );
            }
        }
    }

    fn random_program(rng: &mut StdRng, len: usize) -> Vec<Instr> {
        (0..len)
            .map(|_| {
                let op = Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())];
                let rd = Reg(rng.gen_range(0..32));
                let rs1 = Reg(rng.gen_range(0..32));
                let rs2 = Reg(rng.gen_range(0..32));
                match op.operand_kind() {
                    OperandKind::RegReg => Instr::reg_reg(op, rd, rs1, rs2),
                    OperandKind::RegImm => {
                        Instr::new(op, rd, rs1, Reg::ZERO, rng.gen_range(-2048..2048))
                    }
                    OperandKind::RegShamt => {
                        Instr::new(op, rd, rs1, Reg::ZERO, rng.gen_range(0..32))
                    }
                    OperandKind::Upper => Instr::lui(rd, rng.gen_range(0..(1 << 20))),
                    OperandKind::Load => Instr::lw(rd, rs1, rng.gen_range(-2048..2048)),
                    OperandKind::Store => Instr::sw(rs1, rs2, rng.gen_range(-2048..2048)),
                }
            })
            .collect()
    }

    /// The symbolic model (evaluated concretely) and the mutant core must
    /// agree on every register and memory word, for random programs, with and
    /// without injected bugs, at multiple widths.
    #[test]
    fn differential_symbolic_vs_concrete() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut mutations: Vec<Option<Mutation>> = vec![None];
        mutations.extend(Mutation::table1().into_iter().map(Some).take(4));
        mutations.extend(Mutation::figure4().into_iter().map(Some).take(4));
        for xlen in [8u32, 32] {
            for mutation in &mutations {
                let config = ProcessorConfig {
                    xlen,
                    mem_words: 4,
                    ..ProcessorConfig::default()
                };
                let program = random_program(&mut rng, 12);

                let mut core = MutantCore::new(config.clone(), mutation.clone());
                core.run(&program);

                let mut tm = TermManager::new();
                let proc = SymbolicProcessor::build(&mut tm, &config, mutation.as_ref());
                let inputs: Vec<Assignment> = program.iter().map(|i| proc.port_inputs(i)).collect();
                let trace = proc.ts.simulate(&tm, &inputs);
                let last = trace.last().expect("trace");

                for r in 0..32 {
                    assert_eq!(
                        last[&proc.regs[r]],
                        core.regs()[r],
                        "register x{r} mismatch (xlen={xlen}, mutation={:?})",
                        mutation.as_ref().map(|m| m.name.clone())
                    );
                }
                for w in 0..config.mem_words {
                    assert_eq!(
                        last[&proc.mem[w]],
                        core.mem()[w],
                        "memory word {w} mismatch (xlen={xlen}, mutation={:?})",
                        mutation.as_ref().map(|m| m.name.clone())
                    );
                }
            }
        }
    }

    #[test]
    fn buggy_core_differs_from_clean_core_only_when_triggered() {
        let config = ProcessorConfig::default();
        let bug = Mutation::table1()[1].clone(); // SUB computes ADD
        let mut clean = MutantCore::new(config.clone(), None);
        let mut buggy = MutantCore::new(config, Some(bug));
        let setup = [
            Instr::addi(Reg(1), Reg(0), 30),
            Instr::addi(Reg(2), Reg(0), 12),
        ];
        clean.run(&setup);
        buggy.run(&setup);
        assert_eq!(clean.regs(), buggy.regs());
        let sub = Instr::sub(Reg(3), Reg(1), Reg(2));
        clean.commit(&sub);
        buggy.commit(&sub);
        assert_eq!(clean.reg(Reg(3)), 18);
        assert_eq!(buggy.reg(Reg(3)), 42, "buggy SUB adds instead");
    }

    #[test]
    fn history_window_is_bounded() {
        let config = ProcessorConfig::default();
        let mut core = MutantCore::new(config.clone(), None);
        for i in 0..10 {
            core.commit(&Instr::addi(Reg(1), Reg(0), i));
        }
        assert_eq!(core.history().len(), config.history_depth);
        assert_eq!(core.history()[0].imm, 9, "newest first");
    }

    #[test]
    fn store_address_wraps_into_the_small_memory() {
        let config = ProcessorConfig {
            mem_words: 4,
            ..ProcessorConfig::default()
        };
        let mut core = MutantCore::new(config, None);
        core.set_reg(Reg(1), 100); // word index (100/4) % 4 == 1
        core.set_reg(Reg(2), 77);
        core.commit(&Instr::sw(Reg(1), Reg(2), 0));
        assert_eq!(core.mem_word(1), 77);
    }
}
