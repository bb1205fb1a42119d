//! The symbolic QED module: dispatch queue, commit counters and the
//! universal property, wired onto the symbolic processor model.
//!
//! This is the formal counterpart of Figure 2 of the paper.  Each cycle the
//! model checker chooses an *original instruction* (constrained to the
//! original register set) and a selection signal.  When the original is
//! selected it executes on the design under verification and its transformed
//! counterpart — the EDDI-V duplicate for SQED, or the EDSEP-V semantically
//! equivalent program for SEPE-SQED — is pushed into a dispatch queue.  When
//! the queue is selected its head instruction executes instead.  Once the
//! number of committed originals equals the number of completed transformed
//! programs (`QED-ready`), the consistency property over the register-file
//! split (and the memory halves) must hold; its violation is the bad state
//! handed to the bounded model checker.

use sepe_isa::{Opcode, OperandKind};
use sepe_processor::datapath::{opcode_in, opcode_index, opcode_is, OPCODE_BITS, REG_BITS};
use sepe_processor::{ActivatedMutation, Mutation, ProcessorConfig, SymbolicProcessor};
use sepe_smt::{Sort, TermId, TermManager};
use sepe_synth::program::{ImmSlot, Slot};
use sepe_tsys::TransitionSystem;

use crate::equivalence::EquivalenceDb;
use crate::mapping::RegisterMapping;

/// Which QED transformation the module applies.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// SQED: EDDI-V instruction duplication.
    Sqed,
    /// SEPE-SQED: EDSEP-V semantically equivalent programs drawn from the
    /// given database.
    Sepe(EquivalenceDb),
}

impl Scheme {
    /// The register mapping the scheme uses.
    pub fn mapping(&self) -> RegisterMapping {
        match self {
            Scheme::Sqed => RegisterMapping::sqed(),
            Scheme::Sepe(_) => RegisterMapping::sepe(),
        }
    }

    /// Length of the transformed program for one original opcode.
    pub fn program_len(&self, opcode: Opcode) -> usize {
        match self {
            Scheme::Sqed => 1,
            Scheme::Sepe(db) => {
                if opcode.touches_memory() {
                    2
                } else {
                    db.template(opcode).map(|t| t.len()).unwrap_or(1)
                }
            }
        }
    }

    /// The opcodes the transformed programs may introduce (beyond the
    /// original opcodes themselves); the processor's allowed-opcode universe
    /// must include them.
    pub fn transform_opcodes(&self, originals: &[Opcode]) -> Vec<Opcode> {
        let mut ops = Vec::new();
        match self {
            Scheme::Sqed => {}
            Scheme::Sepe(db) => {
                for &op in originals {
                    if op.touches_memory() {
                        ops.push(Opcode::Addi);
                        ops.push(op);
                    } else if let Some(t) = db.template(op) {
                        ops.extend(t.instrs.iter().map(|i| i.opcode));
                    }
                }
            }
        }
        ops.sort();
        ops.dedup();
        ops
    }
}

/// Handles to the QED-level inputs (useful for witness interpretation).
#[derive(Debug, Clone, Copy)]
pub struct QedPort {
    /// Original instruction opcode selector.
    pub op: TermId,
    /// Original destination register.
    pub rd: TermId,
    /// Original first source register.
    pub rs1: TermId,
    /// Original second source register.
    pub rs2: TermId,
    /// Original materialised immediate.
    pub imm: TermId,
    /// Selection signal: `true` dispatches the original instruction, `false`
    /// dispatches the head of the transformed-program queue.
    pub pick_original: TermId,
}

/// The fully assembled verification model.
#[derive(Debug, Clone)]
pub struct QedSystem {
    /// The transition system handed to the bounded model checker.
    pub ts: TransitionSystem,
    /// The register mapping in use.
    pub mapping: RegisterMapping,
    /// QED-level input handles.
    pub port: QedPort,
    /// The underlying processor model.
    pub processor: SymbolicProcessor,
    /// Depth of the dispatch queue.
    pub queue_depth: usize,
}

/// Everything needed to build a [`QedSystem`].
#[derive(Debug, Clone)]
pub struct QedBuilder {
    /// Processor configuration (its allowed opcodes must include the
    /// transform opcodes; [`QedBuilder::build`] extends them automatically).
    pub processor: ProcessorConfig,
    /// The opcodes the *original* instruction stream may use.
    pub original_opcodes: Vec<Opcode>,
    /// Queue depth override (`None` sizes it as `max_program_len + 3`).
    pub queue_depth: Option<usize>,
}

impl QedBuilder {
    /// Builds the verification model for a scheme and an optional injected
    /// bug.
    pub fn build(
        &self,
        tm: &mut TermManager,
        scheme: &Scheme,
        mutation: Option<&Mutation>,
    ) -> QedSystem {
        self.build_with(tm, scheme, |tm, cfg| {
            SymbolicProcessor::build(tm, cfg, mutation)
        })
    }

    /// Builds one verification model with a whole mutation catalogue compiled
    /// into the shared datapath, each entry guarded by a fresh activation
    /// literal (see [`SymbolicProcessor::build_catalogue`]).
    ///
    /// The QED layer — dispatch queue, commit counters, the universal
    /// property — is built once and shared by every entry; the returned
    /// activation terms select which bug the bounded model checker is asking
    /// about, via `check_assuming` assumptions.  A one-entry catalogue builds
    /// the same system as [`build`](Self::build) with that bug, and its
    /// entry's activation is the constant `true`.
    pub fn build_catalogue(
        &self,
        tm: &mut TermManager,
        scheme: &Scheme,
        mutations: &[Mutation],
    ) -> (QedSystem, Vec<ActivatedMutation>) {
        let mut activated = Vec::new();
        let system = self.build_with(tm, scheme, |tm, cfg| {
            let (proc, acts) = SymbolicProcessor::build_catalogue(tm, cfg, mutations);
            activated = acts;
            proc
        });
        (system, activated)
    }

    /// The shared assembly, parameterised over how the processor model is
    /// constructed.
    fn build_with(
        &self,
        tm: &mut TermManager,
        scheme: &Scheme,
        build_processor: impl FnOnce(&mut TermManager, &ProcessorConfig) -> SymbolicProcessor,
    ) -> QedSystem {
        let mapping = scheme.mapping();
        let originals = &self.original_opcodes;
        assert!(
            !originals.is_empty(),
            "at least one original opcode is required"
        );

        // The DUV must accept both the original opcodes and whatever the
        // transformed programs contain.
        let mut allowed = self.processor.allowed_opcodes.clone();
        allowed.extend(originals.iter().copied());
        allowed.extend(scheme.transform_opcodes(originals));
        allowed.sort();
        allowed.dedup();
        let proc_config = ProcessorConfig {
            allowed_opcodes: allowed,
            ..self.processor.clone()
        };

        let max_prog_len = originals
            .iter()
            .map(|&op| scheme.program_len(op))
            .max()
            .unwrap_or(1);
        let depth = self
            .queue_depth
            .unwrap_or(max_prog_len + 3)
            .max(max_prog_len + 1);

        let processor = build_processor(tm, &proc_config);
        let mut ts = processor.ts.clone();
        let xlen = proc_config.xlen;

        // ------------------------------------------------------------------
        // QED-level inputs.
        // ------------------------------------------------------------------
        let port = QedPort {
            op: tm.var("orig_op", Sort::BitVec(OPCODE_BITS)),
            rd: tm.var("orig_rd", Sort::BitVec(REG_BITS)),
            rs1: tm.var("orig_rs1", Sort::BitVec(REG_BITS)),
            rs2: tm.var("orig_rs2", Sort::BitVec(REG_BITS)),
            imm: tm.var("orig_imm", Sort::BitVec(xlen)),
            pick_original: tm.var("pick_original", Sort::Bool),
        };
        for input in [
            port.op,
            port.rd,
            port.rs1,
            port.rs2,
            port.imm,
            port.pick_original,
        ] {
            ts.add_input(tm, input);
        }

        // ------------------------------------------------------------------
        // Constraints on the original instruction stream.
        // ------------------------------------------------------------------
        let legal_orig_op = opcode_in(tm, port.op, originals);
        ts.add_constraint(legal_orig_op);
        let orig_count = tm.bv_const(u64::from(mapping.original_count), REG_BITS);
        let one_reg = tm.bv_const(1, REG_BITS);
        for reg in [port.rs1, port.rs2] {
            let in_set = tm.bv_ult(reg, orig_count);
            ts.add_constraint(in_set);
        }
        let rd_low = tm.bv_ule(one_reg, port.rd);
        let rd_high = tm.bv_ult(port.rd, orig_count);
        ts.add_constraint(rd_low);
        ts.add_constraint(rd_high);
        ts.add_constraint(immediate_constraint(tm, port.op, port.imm, originals, xlen));

        // ------------------------------------------------------------------
        // Transformed-program entries (functions of the original fields).
        // ------------------------------------------------------------------
        let entries = transform_entries(tm, scheme, &mapping, &port, originals, max_prog_len, xlen);
        let len_bits = {
            let mut bits = 1;
            while (1usize << bits) <= depth + max_prog_len {
                bits += 1;
            }
            bits as u32
        };
        let prog_len = {
            let mut acc = tm.bv_const(1, len_bits);
            for &op in originals {
                let len = tm.bv_const(scheme.program_len(op) as u64, len_bits);
                let hit = opcode_is(tm, port.op, op);
                acc = tm.ite(hit, len, acc);
            }
            acc
        };

        // ------------------------------------------------------------------
        // Dispatch queue state.
        // ------------------------------------------------------------------
        let slot_sorts = [
            ("op", Sort::BitVec(OPCODE_BITS)),
            ("rd", Sort::BitVec(REG_BITS)),
            ("rs1", Sort::BitVec(REG_BITS)),
            ("rs2", Sort::BitVec(REG_BITS)),
            ("imm", Sort::BitVec(xlen)),
            ("last", Sort::Bool),
        ];
        // queue[field][slot]
        let mut queue: Vec<Vec<TermId>> = Vec::new();
        for (field, sort) in slot_sorts {
            let slots = (0..depth)
                .map(|i| tm.var(&format!("q{i}_{field}"), sort))
                .collect::<Vec<_>>();
            queue.push(slots);
        }
        let q_len = tm.var("q_len", Sort::BitVec(len_bits));

        let pick = port.pick_original;
        let not_pick = tm.not(pick);

        // Dispatch legality: pushing must fit, popping needs a non-empty queue.
        let depth_const = tm.bv_const(depth as u64, len_bits);
        let after_push = tm.bv_add(q_len, prog_len);
        let fits = tm.bv_ule(after_push, depth_const);
        let push_ok = tm.implies(pick, fits);
        ts.add_constraint(push_ok);
        let zero_len = tm.bv_const(0, len_bits);
        let non_empty = tm.neq(q_len, zero_len);
        let pop_ok = tm.implies(not_pick, non_empty);
        ts.add_constraint(pop_ok);

        // The executed instruction is the original or the queue head.
        let in_port = processor.port;
        let tie = |tm: &mut TermManager, processor_field: TermId, orig: TermId, head: TermId| {
            let chosen = tm.ite(pick, orig, head);
            tm.eq(processor_field, chosen)
        };
        ts.add_constraint(tie(tm, in_port.op, port.op, queue[0][0]));
        ts.add_constraint(tie(tm, in_port.rd, port.rd, queue[1][0]));
        ts.add_constraint(tie(tm, in_port.rs1, port.rs1, queue[2][0]));
        ts.add_constraint(tie(tm, in_port.rs2, port.rs2, queue[3][0]));
        ts.add_constraint(tie(tm, in_port.imm, port.imm, queue[4][0]));
        let tru = tm.tru();
        let valid_always = tm.eq(in_port.valid, tru);
        ts.add_constraint(valid_always);
        let bank0 = tm.bv_const(0, 1);
        let bank1 = tm.bv_const(1, 1);
        let bank_sel = tm.ite(pick, bank0, bank1);
        let bank_tie = tm.eq(in_port.bank, bank_sel);
        ts.add_constraint(bank_tie);

        // ------------------------------------------------------------------
        // Queue next-state functions.
        // ------------------------------------------------------------------
        for (field_idx, (_, sort)) in slot_sorts.iter().enumerate() {
            let zero_field = match sort {
                Sort::Bool => tm.fls(),
                Sort::BitVec(w) => tm.bv_const(0, *w),
            };
            for j in 0..depth {
                let current = queue[field_idx][j];
                // Pop: everything shifts down by one.
                let popped = if j + 1 < depth {
                    queue[field_idx][j + 1]
                } else {
                    zero_field
                };
                // Push: entries are appended starting at the current length.
                let mut pushed = current;
                for ql in 0..=j.min(depth - 1) {
                    let offset = j - ql;
                    if offset >= max_prog_len {
                        continue;
                    }
                    let ql_const = tm.bv_const(ql as u64, len_bits);
                    let len_is_ql = tm.eq(q_len, ql_const);
                    let offset_const = tm.bv_const(offset as u64, len_bits);
                    let within = tm.bv_ult(offset_const, prog_len);
                    let value = tm.ite(within, entries[offset][field_idx], current);
                    pushed = tm.ite(len_is_ql, value, pushed);
                }
                let next = tm.ite(pick, pushed, popped);
                ts.add_state_var(tm, current, Some(zero_field), next);
            }
        }
        let len_after_pop = {
            let one = tm.bv_const(1, len_bits);
            tm.bv_sub(q_len, one)
        };
        let next_len = tm.ite(pick, after_push, len_after_pop);
        ts.add_state_var(tm, q_len, Some(zero_len), next_len);

        // ------------------------------------------------------------------
        // Commit counters and the universal property.
        // ------------------------------------------------------------------
        let count_bits = 8;
        let count_o = tm.var("count_original", Sort::BitVec(count_bits));
        let count_e = tm.var("count_equivalent", Sort::BitVec(count_bits));
        let one_count = tm.bv_const(1, count_bits);
        let zero_count = tm.bv_const(0, count_bits);
        let inc_o = tm.bv_add(count_o, one_count);
        let next_o = tm.ite(pick, inc_o, count_o);
        ts.add_state_var(tm, count_o, Some(zero_count), next_o);
        let head_is_last = queue[5][0];
        let completes = tm.and(not_pick, head_is_last);
        let inc_e = tm.bv_add(count_e, one_count);
        let next_e = tm.ite(completes, inc_e, count_e);
        ts.add_state_var(tm, count_e, Some(zero_count), next_e);

        let counts_match = tm.eq(count_o, count_e);
        let some_committed = tm.bv_ult(zero_count, count_o);
        let qed_ready = tm.and(counts_match, some_committed);

        let mut consistent = tm.tru();
        for (o, e) in mapping.consistency_pairs() {
            let eq = tm.eq(processor.regs[o.index()], processor.regs[e.index()]);
            consistent = tm.and(consistent, eq);
        }
        let half = proc_config.mem_words / 2;
        for w in 0..half {
            let eq = tm.eq(processor.mem[w], processor.mem[w + half]);
            consistent = tm.and(consistent, eq);
        }
        let inconsistent = tm.not(consistent);
        let bad = tm.and(qed_ready, inconsistent);
        ts.add_bad(bad);

        QedSystem {
            ts,
            mapping,
            port,
            processor,
            queue_depth: depth,
        }
    }
}

/// Constraints tying the original immediate input to values its instruction
/// format can encode (materialised form).
fn immediate_constraint(
    tm: &mut TermManager,
    op: TermId,
    imm: TermId,
    originals: &[Opcode],
    xlen: u32,
) -> TermId {
    let mut acc = tm.tru();
    for &o in originals {
        let applies = opcode_is(tm, op, o);
        let legal = match o.operand_kind() {
            OperandKind::RegReg => {
                let zero = tm.zero(xlen);
                tm.eq(imm, zero)
            }
            OperandKind::RegShamt => {
                let limit = tm.bv_const(u64::from(xlen), xlen);
                tm.bv_ult(imm, limit)
            }
            OperandKind::Upper => {
                if xlen <= 12 {
                    let zero = tm.zero(xlen);
                    tm.eq(imm, zero)
                } else {
                    let low = tm.bv_extract(imm, 11, 0);
                    let zero = tm.zero(12);
                    tm.eq(low, zero)
                }
            }
            OperandKind::RegImm | OperandKind::Load | OperandKind::Store => {
                if xlen <= 12 {
                    tm.tru()
                } else {
                    let low = tm.bv_extract(imm, 11, 0);
                    let sext = tm.bv_sign_ext(low, xlen - 12);
                    tm.eq(imm, sext)
                }
            }
        };
        let implied = tm.implies(applies, legal);
        acc = tm.and(acc, implied);
    }
    acc
}

/// Builds the transformed-program entry fields, indexed `[position][field]`
/// with fields ordered op, rd, rs1, rs2, imm, last.
fn transform_entries(
    tm: &mut TermManager,
    scheme: &Scheme,
    mapping: &RegisterMapping,
    port: &QedPort,
    originals: &[Opcode],
    max_prog_len: usize,
    xlen: u32,
) -> Vec<Vec<TermId>> {
    let offset = tm.bv_const(u64::from(mapping.offset), REG_BITS);
    let shadow_rd = tm.bv_add(port.rd, offset);
    let shadow_rs1 = tm.bv_add(port.rs1, offset);
    let shadow_rs2 = tm.bv_add(port.rs2, offset);
    let zero_reg = tm.bv_const(0, REG_BITS);
    let zero_imm = tm.zero(xlen);
    let fls = tm.fls();
    let tru = tm.tru();

    match scheme {
        Scheme::Sqed => {
            vec![vec![
                port.op, shadow_rd, shadow_rs1, shadow_rs2, port.imm, tru,
            ]]
        }
        Scheme::Sepe(db) => {
            let temp_reg = |t: u8| u64::from(mapping.temps[t as usize].0);
            let slot_term = |tm: &mut TermManager, slot: Slot| match slot {
                Slot::Rs1 => shadow_rs1,
                Slot::Rs2 => shadow_rs2,
                Slot::Zero => zero_reg,
                Slot::Dest => shadow_rd,
                Slot::Temp(t) => tm.bv_const(temp_reg(t), REG_BITS),
            };
            let mut entries = Vec::with_capacity(max_prog_len);
            for position in 0..max_prog_len {
                // default (never dispatched): a NOP-shaped entry
                let mut fields = vec![
                    tm.bv_const(opcode_index(Opcode::Addi), OPCODE_BITS),
                    zero_reg,
                    zero_reg,
                    zero_reg,
                    zero_imm,
                    fls,
                ];
                for &orig in originals {
                    let hit = opcode_is(tm, port.op, orig);
                    let instr_fields: Option<[TermId; 6]> = if orig.touches_memory() {
                        match position {
                            0 => Some([
                                tm.bv_const(opcode_index(Opcode::Addi), OPCODE_BITS),
                                tm.bv_const(temp_reg(0), REG_BITS),
                                shadow_rs1,
                                zero_reg,
                                port.imm,
                                fls,
                            ]),
                            1 => {
                                let t0 = tm.bv_const(temp_reg(0), REG_BITS);
                                if orig == Opcode::Lw {
                                    Some([
                                        tm.bv_const(opcode_index(Opcode::Lw), OPCODE_BITS),
                                        shadow_rd,
                                        t0,
                                        zero_reg,
                                        zero_imm,
                                        tru,
                                    ])
                                } else {
                                    Some([
                                        tm.bv_const(opcode_index(Opcode::Sw), OPCODE_BITS),
                                        zero_reg,
                                        t0,
                                        shadow_rs2,
                                        zero_imm,
                                        tru,
                                    ])
                                }
                            }
                            _ => None,
                        }
                    } else if let Some(template) = db.template(orig) {
                        template.instrs.get(position).map(|ti| {
                            let imm_term = match ti.imm {
                                ImmSlot::FromOriginal => port.imm,
                                ImmSlot::Const(c) => match ti.opcode {
                                    Opcode::Lui => tm.bv_const(((c as u32) as u64) << 12, xlen),
                                    _ => tm.bv_const(c as i64 as u64, xlen),
                                },
                            };
                            let last = position == template.len() - 1;
                            [
                                tm.bv_const(opcode_index(ti.opcode), OPCODE_BITS),
                                slot_term(tm, ti.dest),
                                slot_term(tm, ti.src1),
                                slot_term(tm, ti.src2),
                                imm_term,
                                if last { tru } else { fls },
                            ]
                        })
                    } else {
                        None
                    };
                    if let Some(values) = instr_fields {
                        for (f, value) in values.into_iter().enumerate() {
                            fields[f] = tm.ite(hit, value, fields[f]);
                        }
                    }
                }
                entries.push(fields);
            }
            entries
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::{Instr, Reg};
    use sepe_processor::MutantCore;
    use sepe_smt::concrete::Assignment;

    fn builder(opcodes: &[Opcode]) -> QedBuilder {
        QedBuilder {
            processor: ProcessorConfig::tiny().with_opcodes(opcodes),
            original_opcodes: opcodes.to_vec(),
            queue_depth: None,
        }
    }

    /// Simulates the QED system concretely for a sequence of decisions
    /// (`Some(instr)` dispatches an original, `None` pops the queue head) and
    /// returns the state trace.
    ///
    /// `TransitionSystem::simulate` does not solve constraints, and the
    /// processor port is tied to the QED port by constraints, so this helper
    /// resolves the dispatch mux explicitly while stepping the next-state
    /// functions.
    fn simulate(
        tm: &TermManager,
        system: &QedSystem,
        steps: &[Option<Instr>],
        xlen: u32,
    ) -> Vec<Assignment> {
        use sepe_smt::concrete::eval;
        // initial state
        let mut state: Assignment = system
            .ts
            .state_vars()
            .iter()
            .map(|sv| {
                let v = sv
                    .init
                    .map(|t| eval(tm, t, &Assignment::default()))
                    .unwrap_or(0);
                (sv.current, v)
            })
            .collect();
        let mut trace = vec![state.clone()];
        let port = system.processor.port;
        let queue_head: Vec<TermId> = ["q0_op", "q0_rd", "q0_rs1", "q0_rs2", "q0_imm"]
            .iter()
            .map(|name| tm.find_var(name).expect("queue head variable"))
            .collect();
        for step in steps {
            let mut env = state.clone();
            match step {
                Some(instr) => {
                    env.insert(system.port.pick_original, 1);
                    env.insert(system.port.op, opcode_index(instr.opcode));
                    env.insert(system.port.rd, u64::from(instr.rd.0));
                    env.insert(system.port.rs1, u64::from(instr.rs1.0));
                    env.insert(system.port.rs2, u64::from(instr.rs2.0));
                    env.insert(
                        system.port.imm,
                        sepe_processor::symbolic::materialise_imm(instr, xlen),
                    );
                    env.insert(port.valid, 1);
                    env.insert(port.bank, 0);
                    env.insert(port.op, env[&system.port.op]);
                    env.insert(port.rd, env[&system.port.rd]);
                    env.insert(port.rs1, env[&system.port.rs1]);
                    env.insert(port.rs2, env[&system.port.rs2]);
                    env.insert(port.imm, env[&system.port.imm]);
                }
                None => {
                    env.insert(system.port.pick_original, 0);
                    env.insert(port.valid, 1);
                    env.insert(port.bank, 1);
                    env.insert(port.op, state[&queue_head[0]]);
                    env.insert(port.rd, state[&queue_head[1]]);
                    env.insert(port.rs1, state[&queue_head[2]]);
                    env.insert(port.rs2, state[&queue_head[3]]);
                    env.insert(port.imm, state[&queue_head[4]]);
                }
            }
            let next: Assignment = system
                .ts
                .state_vars()
                .iter()
                .map(|sv| (sv.current, eval(tm, sv.next, &env)))
                .collect();
            state = next;
            trace.push(state.clone());
        }
        trace
    }

    #[test]
    fn sqed_queue_dispatches_duplicates() {
        let mut tm = TermManager::new();
        let b = builder(&[Opcode::Add, Opcode::Addi]);
        let system = b.build(&mut tm, &Scheme::Sqed, None);
        assert_eq!(system.mapping, RegisterMapping::sqed());

        // original ADDI x1, x0, 5 ; pop its duplicate ; original ADD x2,x1,x1 ; pop
        let steps = vec![
            Some(Instr::addi(Reg(1), Reg(0), 5)),
            None,
            Some(Instr::add(Reg(2), Reg(1), Reg(1))),
            None,
        ];
        let trace = simulate(&tm, &system, &steps, 8);
        let last = trace.last().expect("trace");
        // originals
        assert_eq!(last[&system.processor.regs[1]], 5);
        assert_eq!(last[&system.processor.regs[2]], 10);
        // duplicates in the shadow half
        assert_eq!(last[&system.processor.regs[17]], 5);
        assert_eq!(last[&system.processor.regs[18]], 10);
        // counters agree
        let count_o = tm.find_var("count_original").expect("counter");
        let count_e = tm.find_var("count_equivalent").expect("counter");
        assert_eq!(last[&count_o], 2);
        assert_eq!(last[&count_e], 2);
        let q_len = tm.find_var("q_len").expect("q_len");
        assert_eq!(last[&q_len], 0);
    }

    #[test]
    fn sepe_queue_dispatches_equivalent_programs() {
        let mut tm = TermManager::new();
        let b = QedBuilder {
            processor: ProcessorConfig {
                xlen: 32,
                ..ProcessorConfig::tiny()
            }
            .with_opcodes(&[Opcode::Sub]),
            original_opcodes: vec![Opcode::Sub],
            queue_depth: None,
        };
        let db = EquivalenceDb::curated();
        let system = b.build(&mut tm, &Scheme::Sepe(db), None);
        assert_eq!(system.mapping, RegisterMapping::sepe());

        // prepare distinct operands by running ADDI originals is not possible
        // here (only SUB allowed), so rely on zero-initialised registers:
        // SUB x1, x2, x3 = 0, and its equivalent program also produces 0.
        let steps = vec![Some(Instr::sub(Reg(1), Reg(2), Reg(3))), None, None, None];
        let trace = simulate(&tm, &system, &steps, 32);
        let last = trace.last().expect("trace");
        assert_eq!(last[&system.processor.regs[1]], 0);
        assert_eq!(
            last[&system.processor.regs[14]], 0,
            "equivalent program wrote rd+13"
        );
        let count_o = tm.find_var("count_original").expect("counter");
        let count_e = tm.find_var("count_equivalent").expect("counter");
        assert_eq!(last[&count_o], 1);
        assert_eq!(last[&count_e], 1);
    }

    #[test]
    fn transform_opcodes_cover_template_contents() {
        let db = EquivalenceDb::curated();
        let scheme = Scheme::Sepe(db);
        let ops = scheme.transform_opcodes(&[Opcode::Sub]);
        assert!(ops.contains(&Opcode::Xori));
        assert!(ops.contains(&Opcode::Add));
        assert_eq!(scheme.program_len(Opcode::Sub), 3);
        assert_eq!(Scheme::Sqed.program_len(Opcode::Sub), 1);
        assert_eq!(Scheme::Sqed.transform_opcodes(&[Opcode::Sub]), vec![]);
    }

    #[test]
    fn concrete_duplicate_semantics_match_the_eddiv_transformation() {
        // The queue entry produced for SQED must equal EddiV::duplicate.
        let mut tm = TermManager::new();
        let b = builder(&[Opcode::Add]);
        let system = b.build(&mut tm, &Scheme::Sqed, None);
        let steps = vec![Some(Instr::add(Reg(3), Reg(4), Reg(5))), None];
        let trace = simulate(&tm, &system, &steps, 8);
        // after the pop both x3 and x19 were written (with zero operands)
        let last = trace.last().expect("trace");
        let mut core = MutantCore::new(system.processor.config.clone(), None);
        core.commit_banked(&Instr::add(Reg(3), Reg(4), Reg(5)), false);
        core.commit_banked(
            &crate::eddiv::EddiV::new().duplicate(&Instr::add(Reg(3), Reg(4), Reg(5))),
            true,
        );
        for r in 0..32 {
            assert_eq!(
                last[&system.processor.regs[r]],
                core.regs()[r],
                "register x{r}"
            );
        }
    }
}
