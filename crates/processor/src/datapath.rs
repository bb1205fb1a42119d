//! Symbolic datapath helpers shared by the processor model and the QED
//! modules: opcode selectors, register-file muxes and the ALU result mux.

use sepe_isa::{semantics, Opcode};
use sepe_smt::{TermId, TermManager};

/// Width of the opcode selector field on the symbolic instruction port.
pub const OPCODE_BITS: u32 = 5;
/// Width of a register-index field.
pub const REG_BITS: u32 = 5;

/// The dense index of an opcode on the symbolic instruction port.
pub fn opcode_index(op: Opcode) -> u64 {
    Opcode::ALL
        .iter()
        .position(|&o| o == op)
        .expect("opcode is part of the supported subset") as u64
}

/// The opcode encoded by a dense index, if valid.
pub fn opcode_from_index(index: u64) -> Option<Opcode> {
    Opcode::ALL.get(index as usize).copied()
}

/// A boolean term stating that the opcode selector `op_term` encodes `op`.
pub fn opcode_is(tm: &mut TermManager, op_term: TermId, op: Opcode) -> TermId {
    let c = tm.bv_const(opcode_index(op), OPCODE_BITS);
    tm.eq(op_term, c)
}

/// A boolean term stating that the opcode selector is one of `ops`.
pub fn opcode_in(tm: &mut TermManager, op_term: TermId, ops: &[Opcode]) -> TermId {
    let mut acc = tm.fls();
    for &op in ops {
        let hit = opcode_is(tm, op_term, op);
        acc = tm.or(acc, hit);
    }
    acc
}

/// A register-index constant term.
pub fn reg_const(tm: &mut TermManager, index: u8) -> TermId {
    tm.bv_const(u64::from(index), REG_BITS)
}

/// Reads the register file: an if-then-else chain selecting `regs[idx]`.
///
/// `regs[0]` is expected to be the constant-zero state variable, so no
/// special case is needed here.
pub fn select_reg(tm: &mut TermManager, regs: &[TermId], idx: TermId) -> TermId {
    debug_assert_eq!(regs.len(), 32);
    let mut out = regs[0];
    for (i, &r) in regs.iter().enumerate().skip(1) {
        let c = reg_const(tm, i as u8);
        let hit = tm.eq(idx, c);
        out = tm.ite(hit, r, out);
    }
    out
}

/// Reads the data memory: selects `mem[word_index]`.
pub fn select_mem(tm: &mut TermManager, mem: &[TermId], word_index: TermId) -> TermId {
    let bits = tm.width(word_index);
    let mut out = mem[0];
    for (i, &m) in mem.iter().enumerate().skip(1) {
        let c = tm.bv_const(i as u64, bits);
        let hit = tm.eq(word_index, c);
        out = tm.ite(hit, m, out);
    }
    out
}

/// Whether an opcode writes a destination register, as a term over the
/// opcode selector, restricted to the `allowed` universe.
pub fn writes_rd_term(tm: &mut TermManager, op_term: TermId, allowed: &[Opcode]) -> TermId {
    let writers: Vec<Opcode> = allowed.iter().copied().filter(|o| o.writes_rd()).collect();
    opcode_in(tm, op_term, &writers)
}

/// The value an instruction writes back (or stores), as a mux over the
/// allowed opcodes.
///
/// * `rs1_val` / `rs2_val` — effective source operand values,
/// * `imm` — the materialised immediate operand (already sign-extended /
///   shifted), used by I-type, shift-immediate and `LUI` instructions,
/// * `mem_read` — the value read from data memory at the effective address
///   (used by `LW`).
///
/// `SW` contributes `rs2_val` (the value to store); callers gate the register
/// write-back with [`writes_rd_term`] so the value is only routed to memory.
pub fn result_mux(
    tm: &mut TermManager,
    allowed: &[Opcode],
    op_term: TermId,
    rs1_val: TermId,
    rs2_val: TermId,
    imm: TermId,
    mem_read: TermId,
) -> TermId {
    let width = tm.width(rs1_val);
    let mut out = tm.zero(width);
    for &op in allowed {
        let value = opcode_result(tm, op, rs1_val, rs2_val, imm, mem_read);
        let hit = opcode_is(tm, op_term, op);
        out = tm.ite(hit, value, out);
    }
    out
}

/// The result of one specific opcode over the given operand terms.
pub fn opcode_result(
    tm: &mut TermManager,
    op: Opcode,
    rs1_val: TermId,
    rs2_val: TermId,
    imm: TermId,
    mem_read: TermId,
) -> TermId {
    use sepe_isa::OperandKind::*;
    match op {
        Opcode::Lw => mem_read,
        Opcode::Sw => rs2_val,
        Opcode::Lui => imm,
        _ => match op.operand_kind() {
            RegReg => semantics::alu_result(tm, op, rs1_val, rs2_val),
            RegImm | RegShamt => semantics::alu_result(tm, op, rs1_val, imm),
            Upper | Load | Store => unreachable!("handled above"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::concrete::Assignment;
    use sepe_smt::{concrete, Sort};

    #[test]
    fn opcode_indices_roundtrip() {
        for &op in &Opcode::ALL {
            let idx = opcode_index(op);
            assert_eq!(opcode_from_index(idx), Some(op));
        }
        assert_eq!(opcode_from_index(26), None);
        assert!(opcode_index(Opcode::Sw) < (1 << OPCODE_BITS));
    }

    #[test]
    fn opcode_is_and_in_evaluate_correctly() {
        let mut tm = TermManager::new();
        let op = tm.var("op", Sort::BitVec(OPCODE_BITS));
        let is_add = opcode_is(&mut tm, op, Opcode::Add);
        let in_set = opcode_in(&mut tm, op, &[Opcode::Add, Opcode::Sub]);
        let env_add: Assignment = [(op, opcode_index(Opcode::Add))].into_iter().collect();
        let env_xor: Assignment = [(op, opcode_index(Opcode::Xor))].into_iter().collect();
        assert_eq!(concrete::eval(&tm, is_add, &env_add), 1);
        assert_eq!(concrete::eval(&tm, is_add, &env_xor), 0);
        assert_eq!(concrete::eval(&tm, in_set, &env_add), 1);
        assert_eq!(concrete::eval(&tm, in_set, &env_xor), 0);
    }

    #[test]
    fn select_reg_picks_the_indexed_register() {
        let mut tm = TermManager::new();
        let regs: Vec<TermId> = (0..32)
            .map(|i| tm.var(&format!("r{i}"), Sort::BitVec(8)))
            .collect();
        let idx = tm.var("idx", Sort::BitVec(REG_BITS));
        let sel = select_reg(&mut tm, &regs, idx);
        let mut env: Assignment = regs
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u64))
            .collect();
        for pick in [0u64, 1, 17, 31] {
            env.insert(idx, pick);
            assert_eq!(concrete::eval(&tm, sel, &env), pick);
        }
    }

    #[test]
    fn writes_rd_excludes_stores() {
        let mut tm = TermManager::new();
        let op = tm.var("op", Sort::BitVec(OPCODE_BITS));
        let w = writes_rd_term(&mut tm, op, &Opcode::ALL);
        let env_sw: Assignment = [(op, opcode_index(Opcode::Sw))].into_iter().collect();
        let env_lw: Assignment = [(op, opcode_index(Opcode::Lw))].into_iter().collect();
        assert_eq!(concrete::eval(&tm, w, &env_sw), 0);
        assert_eq!(concrete::eval(&tm, w, &env_lw), 1);
    }

    #[test]
    fn result_mux_matches_per_opcode_semantics() {
        let mut tm = TermManager::new();
        let op = tm.var("op", Sort::BitVec(OPCODE_BITS));
        let a = tm.var("a", Sort::BitVec(16));
        let b = tm.var("b", Sort::BitVec(16));
        let imm = tm.var("imm", Sort::BitVec(16));
        let mr = tm.var("mr", Sort::BitVec(16));
        let allowed = [
            Opcode::Add,
            Opcode::Xori,
            Opcode::Lw,
            Opcode::Sw,
            Opcode::Lui,
        ];
        let mux = result_mux(&mut tm, &allowed, op, a, b, imm, mr);
        let base: Assignment = [(a, 100u64), (b, 7u64), (imm, 0xff00u64), (mr, 0xabcdu64)]
            .into_iter()
            .collect();
        let with_op = |env: &Assignment, o: Opcode| {
            let mut e = env.clone();
            e.insert(op, opcode_index(o));
            e
        };
        assert_eq!(concrete::eval(&tm, mux, &with_op(&base, Opcode::Add)), 107);
        assert_eq!(
            concrete::eval(&tm, mux, &with_op(&base, Opcode::Xori)),
            100 ^ 0xff00
        );
        assert_eq!(
            concrete::eval(&tm, mux, &with_op(&base, Opcode::Lw)),
            0xabcd
        );
        assert_eq!(concrete::eval(&tm, mux, &with_op(&base, Opcode::Sw)), 7);
        assert_eq!(
            concrete::eval(&tm, mux, &with_op(&base, Opcode::Lui)),
            0xff00
        );
    }
}
