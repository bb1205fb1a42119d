//! The symbolic processor model (design under verification).
//!
//! [`SymbolicProcessor::build`] produces a [`TransitionSystem`] describing the
//! architectural datapath of the core: a 32-entry register file, a small data
//! memory, a committed-instruction history window and a single-cycle commit
//! interface.  Injected [`Mutation`]s are compiled directly into the
//! next-state functions, exactly as the paper injects logic bugs into the
//! RIDECORE RTL before translating it to BTOR2.
//!
//! The QED modules of the `sepe-sqed` crate extend the returned transition
//! system with the dispatch queue, commit counters and the universal
//! property, and constrain the [`InstrPort`] inputs to legal QED instruction
//! streams.

use sepe_isa::{Instr, Opcode, OperandKind};
use sepe_smt::concrete::Assignment;
use sepe_smt::{Sort, TermId, TermManager};
use sepe_tsys::TransitionSystem;

use crate::config::ProcessorConfig;
use crate::datapath::{
    opcode_in, opcode_index, opcode_is, opcode_result, result_mux, select_mem, select_reg,
    writes_rd_term, OPCODE_BITS, REG_BITS,
};
use crate::mutation::{Effect, Mutation, Trigger};

/// The symbolic instruction port: the per-cycle input of the model.
///
/// `imm` carries the *materialised* immediate operand (sign-extended I-type
/// immediate, or the already-shifted `LUI` value); the binary instruction
/// decoder is abstracted away, which does not change the architectural
/// behaviour being verified (see `DESIGN.md`).
#[derive(Debug, Clone, Copy)]
pub struct InstrPort {
    /// Whether an instruction commits this cycle (boolean).
    pub valid: TermId,
    /// Opcode selector (dense index into [`Opcode::ALL`], 5 bits).
    pub op: TermId,
    /// Destination register index (5 bits).
    pub rd: TermId,
    /// First source register index (5 bits).
    pub rs1: TermId,
    /// Second source register index (5 bits).
    pub rs2: TermId,
    /// Materialised immediate operand (XLEN bits).
    pub imm: TermId,
    /// Memory bank select (1 bit): memory accesses land in the lower half of
    /// the data memory when 0 and in the upper half when 1.  The QED modules
    /// drive this to keep original and duplicate/equivalent address spaces
    /// disjoint, exactly like the EDDI-V memory split.
    pub bank: TermId,
}

/// One slot of the committed-instruction history window (state variables).
#[derive(Debug, Clone, Copy)]
pub struct HistorySlot {
    /// Whether the slot holds a committed instruction.
    pub valid: TermId,
    /// Its opcode selector.
    pub op: TermId,
    /// Its destination register.
    pub rd: TermId,
    /// Whether it architecturally wrote a register.
    pub writes_reg: TermId,
}

/// The symbolic processor: transition system plus handles to its interface.
#[derive(Debug, Clone)]
pub struct SymbolicProcessor {
    /// The model configuration.
    pub config: ProcessorConfig,
    /// The transition system (extended further by the QED modules).
    pub ts: TransitionSystem,
    /// The instruction input port.
    pub port: InstrPort,
    /// Current-state register-file variables (`regs[0]` is the hard-wired
    /// zero register).
    pub regs: Vec<TermId>,
    /// Current-state data-memory word variables.
    pub mem: Vec<TermId>,
    /// History window, most recent first.
    pub history: Vec<HistorySlot>,
    /// Derived: an instruction commits this cycle (equals `port.valid`).
    pub commit_valid: TermId,
    /// Derived: the committing instruction architecturally writes a register
    /// (independent of injected write-back bugs, used by the QED counters).
    pub nominal_writes_reg: TermId,
    /// Derived: the value written back / stored this cycle (after mutation).
    pub result: TermId,
}

/// A catalogue entry compiled into a shared datapath: the mutation plus the
/// activation literal guarding its trigger.
///
/// The activation term is a free boolean variable that is deliberately *not*
/// registered as a transition-system input or state variable: the unroller
/// only creates per-frame copies for registered variables, so the literal is
/// *rigid* — the same term (and later the same CNF variable) in every frame.
/// Asserting it as a [`check_assuming`](sepe_smt::IncrementalSolver::check_assuming)
/// assumption therefore switches the entry's mutated gate on or off across
/// the whole unrolling at once.
///
/// The lone entry of a one-entry catalogue has no literal: its activation is
/// the constant `true`, because its mutation is compiled in unguarded.
#[derive(Debug, Clone)]
pub struct ActivatedMutation {
    /// The catalogue entry.
    pub mutation: Mutation,
    /// Its rigid activation literal, or `true` for a lone entry.
    pub activation: TermId,
}

impl SymbolicProcessor {
    /// Builds the model, optionally with an injected bug.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn build(
        tm: &mut TermManager,
        config: &ProcessorConfig,
        mutation: Option<&Mutation>,
    ) -> Self {
        let entries: Vec<(TermId, &Mutation)> =
            mutation.into_iter().map(|m| (tm.tru(), m)).collect();
        Self::build_inner(tm, config, &entries)
    }

    /// Builds the model with a whole mutation *catalogue* compiled in, each
    /// entry's mutated gate guarded by a fresh activation literal.
    ///
    /// With two or more entries, every activation literal assumed false
    /// gives exactly the clean design, and entry `i`'s literal true (the
    /// others false) gives exactly the design with bug `i` injected.  All
    /// entries share the register file, memory, history window and result
    /// mux, so one unrolling encodes the whole catalogue once.
    ///
    /// A one-entry catalogue is the classic single-bug build of
    /// [`build`](Self::build): no activation variable is created and the
    /// entry's activation is the constant `true`, so the one-hot assumption
    /// set selects it and no assumption yields the clean design.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn build_catalogue(
        tm: &mut TermManager,
        config: &ProcessorConfig,
        mutations: &[Mutation],
    ) -> (Self, Vec<ActivatedMutation>) {
        // A lone entry shares nothing: its activation is the constant
        // `true`, which folds its guard to the bare trigger — the classic
        // single-bug build.  A guard literal would only perturb the search.
        let activations: Vec<TermId> = match mutations {
            [_] => vec![tm.tru()],
            _ => mutations
                .iter()
                .enumerate()
                .map(|(i, m)| tm.var(&format!("act{i:02}_{}", m.name), Sort::Bool))
                .collect(),
        };
        let entries: Vec<(TermId, &Mutation)> =
            activations.iter().copied().zip(mutations).collect();
        let proc = Self::build_inner(tm, config, &entries);
        let activated = mutations
            .iter()
            .zip(activations)
            .map(|(m, activation)| ActivatedMutation {
                mutation: m.clone(),
                activation,
            })
            .collect();
        (proc, activated)
    }

    /// The shared build: each entry contributes an effect at the mutation
    /// sites, guarded by `activation ∧ trigger`.  An activation of `true`
    /// folds the guard to the bare trigger (the classic single-bug build).
    fn build_inner(
        tm: &mut TermManager,
        config: &ProcessorConfig,
        entries: &[(TermId, &Mutation)],
    ) -> Self {
        config.validate();
        let xlen = config.xlen;
        let mut ts = TransitionSystem::new();

        // ------------------------------------------------------------------
        // Inputs: the instruction port.
        // ------------------------------------------------------------------
        let port = InstrPort {
            valid: tm.var("in_valid", Sort::Bool),
            op: tm.var("in_op", Sort::BitVec(OPCODE_BITS)),
            rd: tm.var("in_rd", Sort::BitVec(REG_BITS)),
            rs1: tm.var("in_rs1", Sort::BitVec(REG_BITS)),
            rs2: tm.var("in_rs2", Sort::BitVec(REG_BITS)),
            imm: tm.var("in_imm", Sort::BitVec(xlen)),
            bank: tm.var("in_bank", Sort::BitVec(1)),
        };
        for input in [
            port.valid, port.op, port.rd, port.rs1, port.rs2, port.imm, port.bank,
        ] {
            ts.add_input(tm, input);
        }
        // Only opcodes of the allowed universe may appear.
        let legal_op = opcode_in(tm, port.op, &config.allowed_opcodes);
        ts.add_constraint(legal_op);

        // ------------------------------------------------------------------
        // State: register file, data memory, history window.
        // ------------------------------------------------------------------
        let regs: Vec<TermId> = (0..32)
            .map(|i| tm.var(&format!("reg{i:02}"), Sort::BitVec(xlen)))
            .collect();
        let mem: Vec<TermId> = (0..config.mem_words)
            .map(|w| tm.var(&format!("mem{w:02}"), Sort::BitVec(xlen)))
            .collect();
        let mut history = Vec::new();
        for d in 0..config.history_depth {
            history.push(HistorySlot {
                valid: tm.var(&format!("hist{d}_valid"), Sort::Bool),
                op: tm.var(&format!("hist{d}_op"), Sort::BitVec(OPCODE_BITS)),
                rd: tm.var(&format!("hist{d}_rd"), Sort::BitVec(REG_BITS)),
                writes_reg: tm.var(&format!("hist{d}_writes"), Sort::Bool),
            });
        }

        // ------------------------------------------------------------------
        // Datapath.
        // ------------------------------------------------------------------
        let rs1_raw = select_reg(tm, &regs, port.rs1);
        let rs2_val = select_reg(tm, &regs, port.rs2);

        // Guarded effects, in catalogue order.  An entry activated by `true`
        // folds to exactly the classic single-bug terms; guarded entries chain
        // `ite`s whose conditions are mutually exclusive under one-hot
        // activation assumptions (`sepe_smt::one_hot_assumptions`).
        let guarded: Vec<(TermId, Effect)> = entries
            .iter()
            .map(|&(activation, m)| {
                let trigger =
                    trigger_term(tm, &m.trigger, &port, &history, &config.allowed_opcodes);
                (tm.and(activation, trigger), m.effect)
            })
            .collect();

        // Operand-level effects.
        let rs1_val = guarded
            .iter()
            .fold(rs1_raw, |acc, &(guard, effect)| match effect {
                Effect::ZeroFirstOperand => {
                    let zero = tm.zero(xlen);
                    tm.ite(guard, zero, acc)
                }
                Effect::SwapOperands => tm.ite(guard, rs2_val, acc),
                _ => acc,
            });

        // Effective address and memory read (LW/SW only, but computed
        // unconditionally and muxed).  The word index combines the bank
        // select (upper half vs lower half) with the low address bits.
        let mut addr = tm.bv_add(rs1_val, port.imm);
        for &(guard, effect) in &guarded {
            match effect {
                Effect::AddressOffset(off) => {
                    let offset = tm.bv_const(off, xlen);
                    let shifted = tm.bv_add(addr, offset);
                    addr = tm.ite(guard, shifted, addr);
                }
                Effect::IgnoreMemOffset => {
                    addr = tm.ite(guard, rs1_val, addr);
                }
                _ => {}
            }
        }
        let half_bits = (config.mem_words / 2).trailing_zeros();
        let low_index = tm.bv_extract(addr, 2 + half_bits - 1, 2);
        let word_index = tm.bv_concat(port.bank, low_index);
        let index_bits = config.mem_words.trailing_zeros();
        debug_assert_eq!(tm.width(word_index), index_bits);
        let mem_read = select_mem(tm, &mem, word_index);

        // Result mux over the allowed opcodes, then result-level effects.
        let nominal_result = result_mux(
            tm,
            &config.allowed_opcodes,
            port.op,
            rs1_val,
            rs2_val,
            port.imm,
            mem_read,
        );
        let result = guarded
            .iter()
            .fold(nominal_result, |acc, &(guard, effect)| match effect {
                Effect::XorResult(c) => {
                    let k = tm.bv_const(c, xlen);
                    let corrupted = tm.bv_xor(nominal_result, k);
                    tm.ite(guard, corrupted, acc)
                }
                Effect::AddToResult(c) => {
                    let k = tm.bv_const(c, xlen);
                    let corrupted = tm.bv_add(nominal_result, k);
                    tm.ite(guard, corrupted, acc)
                }
                Effect::WrongOperation(op2) => {
                    let wrong = opcode_result(tm, op2, rs1_val, rs2_val, port.imm, mem_read);
                    tm.ite(guard, wrong, acc)
                }
                _ => acc,
            });

        // Write-back and store enables.
        let writes = writes_rd_term(tm, port.op, &config.allowed_opcodes);
        let rd_nonzero = {
            let zero = tm.bv_const(0, REG_BITS);
            tm.neq(port.rd, zero)
        };
        let nominal_writes_reg = {
            let a = tm.and(port.valid, writes);
            tm.and(a, rd_nonzero)
        };
        let write_enable = guarded
            .iter()
            .fold(nominal_writes_reg, |acc, &(guard, effect)| match effect {
                Effect::DropWriteback => {
                    let not_trig = tm.not(guard);
                    tm.and(acc, not_trig)
                }
                _ => acc,
            });
        let is_store = opcode_is(tm, port.op, Opcode::Sw);
        let store_enable = tm.and(port.valid, is_store);

        // ------------------------------------------------------------------
        // Next-state functions.
        // ------------------------------------------------------------------
        let zero_xlen = tm.zero(xlen);
        for (i, &reg) in regs.iter().enumerate() {
            if i == 0 {
                ts.add_state_var(tm, reg, Some(zero_xlen), zero_xlen);
                continue;
            }
            let idx = tm.bv_const(i as u64, REG_BITS);
            let hit = tm.eq(port.rd, idx);
            let cond = tm.and(write_enable, hit);
            let next = tm.ite(cond, result, reg);
            ts.add_state_var(tm, reg, Some(zero_xlen), next);
        }
        for (w, &m) in mem.iter().enumerate() {
            let idx = tm.bv_const(w as u64, index_bits);
            let hit = tm.eq(word_index, idx);
            let cond = tm.and(store_enable, hit);
            let next = tm.ite(cond, result, m);
            ts.add_state_var(tm, m, Some(zero_xlen), next);
        }

        // History shift register: slot 0 is the most recently committed
        // instruction; older slots shift down only when a commit happens.
        let committed_writes = tm.and(writes, rd_nonzero);
        let fls = tm.fls();
        let tru = tm.tru();
        let zero_op = tm.bv_const(0, OPCODE_BITS);
        let zero_rd = tm.bv_const(0, REG_BITS);
        for (d, slot) in history.iter().enumerate() {
            let (new_valid, new_op, new_rd, new_writes) = if d == 0 {
                (tru, port.op, port.rd, committed_writes)
            } else {
                let prev = &history[d - 1];
                (prev.valid, prev.op, prev.rd, prev.writes_reg)
            };
            let next_valid = tm.ite(port.valid, new_valid, slot.valid);
            let next_op = tm.ite(port.valid, new_op, slot.op);
            let next_rd = tm.ite(port.valid, new_rd, slot.rd);
            let next_writes = tm.ite(port.valid, new_writes, slot.writes_reg);
            ts.add_state_var(tm, slot.valid, Some(fls), next_valid);
            ts.add_state_var(tm, slot.op, Some(zero_op), next_op);
            ts.add_state_var(tm, slot.rd, Some(zero_rd), next_rd);
            ts.add_state_var(tm, slot.writes_reg, Some(fls), next_writes);
        }

        SymbolicProcessor {
            config: config.clone(),
            ts,
            port,
            regs,
            mem,
            history,
            commit_valid: port.valid,
            nominal_writes_reg,
            result,
        }
    }

    /// The materialised immediate operand value an instruction carries on the
    /// port, masked to the model's XLEN.
    pub fn materialised_imm(&self, instr: &Instr) -> u64 {
        materialise_imm(instr, self.config.xlen)
    }

    /// The port input assignment encoding one concrete instruction (for
    /// simulation and witness replay).
    pub fn port_inputs(&self, instr: &Instr) -> Assignment {
        self.port_inputs_banked(instr, false)
    }

    /// The port input assignment for one instruction routed to the given
    /// memory bank.
    pub fn port_inputs_banked(&self, instr: &Instr, bank: bool) -> Assignment {
        Assignment::from_iter([
            (self.port.valid, 1),
            (self.port.op, opcode_index(instr.opcode)),
            (self.port.rd, u64::from(instr.rd.0)),
            (self.port.rs1, u64::from(instr.rs1.0)),
            (self.port.rs2, u64::from(instr.rs2.0)),
            (self.port.imm, self.materialised_imm(instr)),
            (self.port.bank, u64::from(bank)),
        ])
    }

    /// The port input assignment for an idle (no-commit) cycle.
    pub fn idle_inputs(&self) -> Assignment {
        Assignment::from_iter([
            (self.port.valid, 0),
            (self.port.op, 0),
            (self.port.rd, 0),
            (self.port.rs1, 0),
            (self.port.rs2, 0),
            (self.port.imm, 0),
            (self.port.bank, 0),
        ])
    }
}

/// Computes the materialised immediate operand for `instr` at a given XLEN.
pub fn materialise_imm(instr: &Instr, xlen: u32) -> u64 {
    let raw: u64 = match instr.opcode.operand_kind() {
        OperandKind::Upper => ((instr.imm as u32) << 12) as u64,
        _ => instr.imm as i64 as u64,
    };
    sepe_smt::sort::mask(raw, xlen)
}

/// Builds the boolean trigger term of a mutation over the port and history.
fn trigger_term(
    tm: &mut TermManager,
    trigger: &Trigger,
    port: &InstrPort,
    history: &[HistorySlot],
    allowed: &[Opcode],
) -> TermId {
    let mut cond = tm.tru();
    if let Some(op) = trigger.opcode {
        let c = opcode_is(tm, port.op, op);
        cond = tm.and(cond, c);
    }
    if let Some(op) = trigger.prev_opcode {
        let slot = &history[0];
        let is = opcode_is(tm, slot.op, op);
        let c = tm.and(slot.valid, is);
        cond = tm.and(cond, c);
    }
    if let Some(op) = trigger.prev2_opcode {
        assert!(history.len() >= 2, "trigger needs history_depth >= 2");
        let slot = &history[1];
        let is = opcode_is(tm, slot.op, op);
        let c = tm.and(slot.valid, is);
        cond = tm.and(cond, c);
    }
    if trigger.raw_on_prev_rd {
        let slot = &history[0];
        let dep = tm.eq(port.rs1, slot.rd);
        let c = tm.and(slot.valid, slot.writes_reg);
        let c = tm.and(c, dep);
        cond = tm.and(cond, c);
    }
    if trigger.waw_on_prev_rd {
        let slot = &history[0];
        let same_rd = tm.eq(port.rd, slot.rd);
        let cur_writes = writes_rd_term(tm, port.op, allowed);
        let c = tm.and(slot.valid, slot.writes_reg);
        let c = tm.and(c, same_rd);
        let c = tm.and(c, cur_writes);
        cond = tm.and(cond, c);
    }
    if trigger.prev_writes_reg {
        let slot = &history[0];
        let c = tm.and(slot.valid, slot.writes_reg);
        cond = tm.and(cond, c);
    }
    cond
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::Reg;

    fn simulate_program(
        config: &ProcessorConfig,
        mutation: Option<&Mutation>,
        program: &[Instr],
    ) -> (TermManager, SymbolicProcessor, Vec<Assignment>) {
        let mut tm = TermManager::new();
        let proc = SymbolicProcessor::build(&mut tm, config, mutation);
        let inputs: Vec<Assignment> = program.iter().map(|i| proc.port_inputs(i)).collect();
        let trace = proc.ts.simulate(&tm, &inputs);
        (tm, proc, trace)
    }

    #[test]
    fn executes_a_simple_program_like_the_golden_model() {
        let config = ProcessorConfig::default();
        let program = vec![
            Instr::addi(Reg(1), Reg(0), 5),
            Instr::addi(Reg(2), Reg(1), 6),
            Instr::add(Reg(3), Reg(1), Reg(2)),
            Instr::sub(Reg(4), Reg(3), Reg(1)),
            Instr::reg_imm(Opcode::Slli, Reg(5), Reg(4), 2),
        ];
        let (_tm, proc, trace) = simulate_program(&config, None, &program);
        let last = trace.last().expect("trace");
        let mut golden = sepe_isa::exec::ArchState::new();
        golden.run(&program);
        for r in 1..6u8 {
            assert_eq!(
                last[&proc.regs[r as usize]],
                u64::from(golden.reg(Reg(r))),
                "register x{r} mismatch"
            );
        }
        // x0 stays zero even if targeted
        assert_eq!(last[&proc.regs[0]], 0);
    }

    #[test]
    fn memory_stores_and_loads_roundtrip() {
        let config = ProcessorConfig::default();
        let program = vec![
            Instr::addi(Reg(1), Reg(0), 8),
            Instr::addi(Reg(2), Reg(0), 1234),
            Instr::sw(Reg(1), Reg(2), 4),
            Instr::lw(Reg(3), Reg(1), 4),
        ];
        let (_tm, proc, trace) = simulate_program(&config, None, &program);
        let last = trace.last().expect("trace");
        assert_eq!(last[&proc.regs[3]], 1234);
        // address 12 -> word 3
        assert_eq!(last[&proc.mem[3]], 1234);
    }

    #[test]
    fn single_instruction_bug_corrupts_only_its_opcode() {
        let config = ProcessorConfig::default();
        let bug = &Mutation::table1()[0]; // ADD off by one
        let program = vec![
            Instr::addi(Reg(1), Reg(0), 10),
            Instr::addi(Reg(2), Reg(0), 20),
            Instr::add(Reg(3), Reg(1), Reg(2)),
            Instr::sub(Reg(4), Reg(2), Reg(1)),
        ];
        let (_tm, proc, trace) = simulate_program(&config, Some(bug), &program);
        let last = trace.last().expect("trace");
        assert_eq!(last[&proc.regs[3]], 31, "buggy ADD is off by one");
        assert_eq!(last[&proc.regs[4]], 10, "SUB is unaffected");
    }

    #[test]
    fn multi_instruction_bug_requires_its_history_pattern() {
        let config = ProcessorConfig::default();
        // multi-01: ADD raw-dependent on an immediately preceding ADD reads zero
        let bug = Mutation::figure4()
            .into_iter()
            .find(|b| b.name == "multi-01-raw-add-add")
            .expect("bug exists");
        // pattern present: add then dependent add
        let program = vec![
            Instr::addi(Reg(1), Reg(0), 7),
            Instr::add(Reg(2), Reg(1), Reg(1)),
            Instr::add(Reg(3), Reg(2), Reg(1)),
        ];
        let (_tm, proc, trace) = simulate_program(&config, Some(&bug), &program);
        let last = trace.last().expect("trace");
        // the dependent ADD reads rs1 (=x2) as zero: x3 = 0 + 7
        assert_eq!(last[&proc.regs[3]], 7);

        // pattern broken by an intervening XOR: result is correct
        let program_ok = vec![
            Instr::addi(Reg(1), Reg(0), 7),
            Instr::add(Reg(2), Reg(1), Reg(1)),
            Instr::reg_reg(Opcode::Xor, Reg(5), Reg(1), Reg(1)),
            Instr::add(Reg(3), Reg(2), Reg(1)),
        ];
        let (_tm2, proc2, trace2) = simulate_program(&config, Some(&bug), &program_ok);
        let last2 = trace2.last().expect("trace");
        assert_eq!(last2[&proc2.regs[3]], 21);
    }

    #[test]
    fn reduced_width_masks_values() {
        let config = ProcessorConfig {
            xlen: 8,
            mem_words: 4,
            ..ProcessorConfig::default()
        };
        let program = vec![
            Instr::addi(Reg(1), Reg(0), 200),
            Instr::addi(Reg(2), Reg(0), 100),
            Instr::add(Reg(3), Reg(1), Reg(2)),
        ];
        let (_tm, proc, trace) = simulate_program(&config, None, &program);
        let last = trace.last().expect("trace");
        assert_eq!(last[&proc.regs[3]], (200 + 100) % 256);
    }

    #[test]
    fn materialised_immediates() {
        assert_eq!(
            materialise_imm(&Instr::addi(Reg(1), Reg(0), -1), 32),
            0xffff_ffff
        );
        assert_eq!(materialise_imm(&Instr::addi(Reg(1), Reg(0), -1), 8), 0xff);
        assert_eq!(
            materialise_imm(&Instr::lui(Reg(1), 0x12345), 32),
            0x1234_5000
        );
        assert_eq!(materialise_imm(&Instr::lw(Reg(1), Reg(2), 16), 32), 16);
    }

    #[test]
    fn idle_cycles_leave_state_unchanged() {
        let mut tm = TermManager::new();
        let config = ProcessorConfig::tiny();
        let proc = SymbolicProcessor::build(&mut tm, &config, None);
        let inputs = vec![
            proc.port_inputs(&Instr::addi(Reg(1), Reg(0), 3)),
            proc.idle_inputs(),
            proc.idle_inputs(),
        ];
        let trace = proc.ts.simulate(&tm, &inputs);
        assert_eq!(trace[1][&proc.regs[1]], 3);
        assert_eq!(trace[3][&proc.regs[1]], 3);
    }
}
