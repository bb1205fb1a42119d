//! Symbolic (bit-vector) semantics of the instruction subset.
//!
//! The formal semantic model of Section 4.1 of the paper describes every
//! instruction's input/output behaviour as a bit-vector formula
//! `φ_instr(I, A, O)`.  This module provides those formulas as term builders
//! over [`sepe_smt::TermManager`].  They are used in two places:
//!
//! * the synthesis component library (`sepe-synth`), where each component's
//!   `Φ_j` is exactly one of these builders, and
//! * the symbolic processor datapath (`sepe-processor`), so the design under
//!   verification and the specification share one semantic definition.
//!
//! All builders are parametric in the operand width.  The paper works at
//! XLEN = 32; reduced widths (8 or 16) are used by some benchmarks to keep
//! full parameter sweeps fast, and must be powers of two so that shift
//! amounts can be masked the same way RV32 masks them to 5 bits.

use sepe_smt::{TermId, TermManager};

use crate::instr::{Instr, Opcode};

/// Sign-extends a 12-bit style immediate into a `width`-bit constant term.
pub fn imm_term(tm: &mut TermManager, imm: i32, width: u32) -> TermId {
    tm.bv_const(imm as i64 as u64, width)
}

/// Masks a shift-amount operand to `log2(width)` bits, mirroring how RV32
/// uses only `rs2[4:0]`.
///
/// # Panics
///
/// Panics if `width` is not a power of two.
pub fn shift_amount(tm: &mut TermManager, amount: TermId, width: u32) -> TermId {
    assert!(
        width.is_power_of_two(),
        "symbolic semantics require a power-of-two width"
    );
    let mask = tm.bv_const(u64::from(width) - 1, width);
    tm.bv_and(amount, mask)
}

/// The value written by an ALU-class instruction, given operand terms `a`
/// (rs1) and `b` (rs2 value or sign-extended immediate) of equal width.
///
/// This is the symbolic counterpart of [`crate::exec::alu_value`].
///
/// # Panics
///
/// Panics for `LW`/`SW` (memory semantics live in the processor model) and
/// for non-power-of-two widths when a shift opcode is requested.
pub fn alu_result(tm: &mut TermManager, opcode: Opcode, a: TermId, b: TermId) -> TermId {
    use Opcode::*;
    let width = tm.width(a);
    debug_assert_eq!(width, tm.width(b), "ALU operands must have equal width");
    match opcode {
        Add | Addi => tm.bv_add(a, b),
        Sub => tm.bv_sub(a, b),
        Sll | Slli => {
            let s = shift_amount(tm, b, width);
            tm.bv_shl(a, s)
        }
        Srl | Srli => {
            let s = shift_amount(tm, b, width);
            tm.bv_lshr(a, s)
        }
        Sra | Srai => {
            let s = shift_amount(tm, b, width);
            tm.bv_ashr(a, s)
        }
        Slt | Slti => {
            let c = tm.bv_slt(a, b);
            tm.bool_to_bv(c, width)
        }
        Sltu | Sltiu => {
            let c = tm.bv_ult(a, b);
            tm.bool_to_bv(c, width)
        }
        Xor | Xori => tm.bv_xor(a, b),
        Or | Ori => tm.bv_or(a, b),
        And | Andi => tm.bv_and(a, b),
        Mul => tm.bv_mul(a, b),
        Mulh => mul_high(tm, a, b, true, true),
        Mulhsu => mul_high(tm, a, b, true, false),
        Mulhu => mul_high(tm, a, b, false, false),
        Lui => {
            let twelve = tm.bv_const(12 % u64::from(width), width);
            tm.bv_shl(b, twelve)
        }
        Lw | Sw => unreachable!("memory instructions have no ALU result"),
    }
}

fn mul_high(tm: &mut TermManager, a: TermId, b: TermId, a_signed: bool, b_signed: bool) -> TermId {
    let width = tm.width(a);
    assert!(width * 2 <= 64, "MULH semantics need 2*width <= 64");
    let ea = if a_signed {
        tm.bv_sign_ext(a, width)
    } else {
        tm.bv_zero_ext(a, width)
    };
    let eb = if b_signed {
        tm.bv_sign_ext(b, width)
    } else {
        tm.bv_zero_ext(b, width)
    };
    let p = tm.bv_mul(ea, eb);
    tm.bv_extract(p, 2 * width - 1, width)
}

/// The value written to `rd` by a non-memory instruction, given the symbolic
/// values of its source registers.
///
/// Immediates are taken from the instruction and materialised as constants of
/// the requested width (sign-extended for I-type, shifted for `LUI`).
///
/// # Panics
///
/// Panics for `LW`/`SW`.
pub fn instr_result(
    tm: &mut TermManager,
    instr: &Instr,
    rs1: TermId,
    rs2: TermId,
    width: u32,
) -> TermId {
    use crate::instr::OperandKind::*;
    match instr.opcode.operand_kind() {
        RegReg => alu_result(tm, instr.opcode, rs1, rs2),
        RegImm | RegShamt => {
            let imm = imm_term(tm, instr.imm, width);
            alu_result(tm, instr.opcode, rs1, imm)
        }
        Upper => {
            let value = ((instr.imm as u32) << 12) as u64;
            tm.bv_const(value, width)
        }
        Load | Store => unreachable!("memory instructions have no pure result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::alu_value;
    use crate::reg::Reg;
    use sepe_smt::concrete::Assignment;
    use sepe_smt::{concrete, IncrementalSolver, SatResult, Sort};

    /// Cross-checks the symbolic semantics against the concrete golden model
    /// on random operand values for every ALU opcode at 32 bits.
    #[test]
    fn symbolic_matches_concrete_semantics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let alu_opcodes = [
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
        for &op in &alu_opcodes {
            for _ in 0..20 {
                let av: u32 = rng.gen();
                let bv: u32 = rng.gen();
                let mut tm = TermManager::new();
                let a = tm.var("a", Sort::BitVec(32));
                let b = tm.var("b", Sort::BitVec(32));
                let r = alu_result(&mut tm, op, a, b);
                let env: Assignment = [(a, u64::from(av)), (b, u64::from(bv))]
                    .into_iter()
                    .collect();
                let got = concrete::eval(&tm, r, &env) as u32;
                assert_eq!(
                    got,
                    alu_value(op, av, bv),
                    "mismatch for {op} on {av:#x},{bv:#x}"
                );
            }
        }
    }

    #[test]
    fn instr_result_handles_immediates_and_lui() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(32));
        let b = tm.var("b", Sort::BitVec(32));
        let env: Assignment = [(a, 100u64), (b, 7u64)].into_iter().collect();

        let addi = Instr::addi(Reg(1), Reg(2), -1);
        let r = instr_result(&mut tm, &addi, a, b, 32);
        assert_eq!(concrete::eval(&tm, r, &env), 99);

        let srai = Instr::reg_imm(Opcode::Srai, Reg(1), Reg(2), 2);
        let r = instr_result(&mut tm, &srai, a, b, 32);
        assert_eq!(concrete::eval(&tm, r, &env), 25);

        let lui = Instr::lui(Reg(1), 0x12345);
        let r = instr_result(&mut tm, &lui, a, b, 32);
        assert_eq!(concrete::eval(&tm, r, &env), 0x1234_5000);
    }

    #[test]
    fn shift_amount_uses_low_bits_only() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(32));
        let b = tm.var("b", Sort::BitVec(32));
        let r = alu_result(&mut tm, Opcode::Sll, a, b);
        let env: Assignment = [(a, 1u64), (b, 33u64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, r, &env), 2);
    }

    /// Proves the Listing-1 equivalence symbolically at 16 bits through the
    /// SMT solver: SUB(a,b) == XORI(ADD(XORI(a,-1), b), -1).
    #[test]
    fn listing1_equivalence_is_valid_symbolically() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(16));
        let b = tm.var("b", Sort::BitVec(16));
        let sub = alu_result(&mut tm, Opcode::Sub, a, b);
        let minus_one = imm_term(&mut tm, -1, 16);
        let t1 = alu_result(&mut tm, Opcode::Xori, a, minus_one);
        let t2 = alu_result(&mut tm, Opcode::Add, t1, b);
        let rd = alu_result(&mut tm, Opcode::Xori, t2, minus_one);
        let goal = tm.neq(sub, rd);
        let mut solver = IncrementalSolver::new();
        solver.assert_all(&mut tm, &[goal]);
        assert_eq!(solver.check(&mut tm), SatResult::Unsat);
    }

    #[test]
    fn mulh_agrees_with_reference_at_reduced_width() {
        // exhaustive check at 8 bits
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let r = mul_high(&mut tm, a, b, true, true);
        for av in 0..=255u64 {
            for bv in (0..=255u64).step_by(17) {
                let env: Assignment = [(a, av), (b, bv)].into_iter().collect();
                let expect = (((av as i8 as i16) * (bv as i8 as i16)) as u16 >> 8) as u64 & 0xff;
                assert_eq!(concrete::eval(&tm, r, &env), expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_width_shift_panics() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(12));
        let b = tm.var("b", Sort::BitVec(12));
        let _ = alu_result(&mut tm, Opcode::Sll, a, b);
    }
}
