//! Synthesis specifications: the formal semantic model of original
//! instructions (Section 4.1).

use sepe_isa::{semantics, Opcode, OperandKind};
use sepe_smt::{Sort, TermId, TermManager};

/// The specification of one original instruction.
///
/// A spec exposes `num_inputs()` bit-vector inputs of the synthesis width:
/// the register operands first, then (for immediate-form originals) the
/// materialised immediate operand.  [`Spec::result`] is the paper's
/// `φ_g(I, O)` and [`Spec::input_constraint`] restricts the immediate input
/// to the values the instruction format can actually encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Display name (`"SUB"`, `"NOT"`, …).
    pub name: String,
    /// The original instruction's opcode.
    pub opcode: Opcode,
    /// Bit width of all spec inputs and of the output.
    pub width: u32,
    /// Number of register-value inputs (0–2).
    pub num_reg_inputs: usize,
    /// Whether the immediate is a symbolic input of the spec.
    pub has_imm_input: bool,
    /// A fixed immediate value (derived cases such as `NOT` = `XORI -1`).
    pub fixed_imm: Option<i32>,
}

impl Spec {
    /// The specification of an opcode with fully symbolic operands.
    ///
    /// # Panics
    ///
    /// Panics for memory instructions, which are not synthesis targets.
    pub fn for_opcode(opcode: Opcode, width: u32) -> Self {
        let (num_reg_inputs, has_imm_input) = match opcode.operand_kind() {
            OperandKind::RegReg => (2, false),
            OperandKind::RegImm | OperandKind::RegShamt => (1, true),
            OperandKind::Upper => (0, true),
            OperandKind::Load | OperandKind::Store => {
                panic!("memory instructions are not synthesis targets")
            }
        };
        Spec {
            name: opcode.mnemonic().to_uppercase(),
            opcode,
            width,
            num_reg_inputs,
            has_imm_input,
            fixed_imm: None,
        }
    }

    /// A derived case: an immediate-form opcode with a fixed immediate
    /// (e.g. `NOT` is `XORI` with immediate `-1`).
    pub fn with_fixed_imm(name: &str, opcode: Opcode, imm: i32, width: u32) -> Self {
        let mut spec = Spec::for_opcode(opcode, width);
        spec.name = name.to_string();
        spec.has_imm_input = false;
        spec.fixed_imm = Some(imm);
        spec
    }

    /// Total number of spec inputs (register operands plus the immediate
    /// input when present).
    pub fn num_inputs(&self) -> usize {
        self.num_reg_inputs + usize::from(self.has_imm_input)
    }

    /// Index of the immediate input among the spec inputs, if any.
    pub fn imm_input_index(&self) -> Option<usize> {
        self.has_imm_input.then_some(self.num_reg_inputs)
    }

    /// The paper's `φ_g`: the output term over the spec input terms.
    pub fn result(&self, tm: &mut TermManager, inputs: &[TermId]) -> TermId {
        assert_eq!(inputs.len(), self.num_inputs(), "wrong spec input count");
        match self.opcode.operand_kind() {
            OperandKind::RegReg => semantics::alu_result(tm, self.opcode, inputs[0], inputs[1]),
            OperandKind::RegImm | OperandKind::RegShamt => {
                let imm = if self.has_imm_input {
                    inputs[1]
                } else {
                    semantics::imm_term(tm, self.fixed_imm.expect("fixed immediate"), self.width)
                };
                semantics::alu_result(tm, self.opcode, inputs[0], imm)
            }
            OperandKind::Upper => {
                if self.has_imm_input {
                    inputs[0]
                } else {
                    let value = ((self.fixed_imm.expect("fixed immediate") as u32) << 12) as u64;
                    tm.bv_const(value, self.width)
                }
            }
            _ => unreachable!("memory specs are rejected in the constructor"),
        }
    }

    /// Constraint restricting the spec inputs to encodable operand values
    /// (the immediate input must be a sign-extended 12-bit value, a legal
    /// shift amount, or an upper-immediate pattern).
    pub fn input_constraint(&self, tm: &mut TermManager, inputs: &[TermId]) -> TermId {
        let Some(idx) = self.imm_input_index() else {
            return tm.tru();
        };
        let imm = inputs[idx];
        match self.opcode.operand_kind() {
            OperandKind::RegShamt => {
                let limit = tm.bv_const(u64::from(self.width), self.width);
                tm.bv_ult(imm, limit)
            }
            OperandKind::Upper => {
                if self.width <= 12 {
                    tm.tru()
                } else {
                    let low = tm.bv_extract(imm, 11, 0);
                    let zero = tm.zero(12);
                    tm.eq(low, zero)
                }
            }
            _ => {
                if self.width <= 12 {
                    tm.tru()
                } else {
                    let low = tm.bv_extract(imm, 11, 0);
                    let sext = tm.bv_sign_ext(low, self.width - 12);
                    tm.eq(imm, sext)
                }
            }
        }
    }

    /// Creates fresh input variables for this spec.
    pub fn fresh_inputs(&self, tm: &mut TermManager, tag: &str) -> Vec<TermId> {
        (0..self.num_inputs())
            .map(|i| tm.fresh_var(&format!("spec_{tag}_in{i}"), Sort::BitVec(self.width)))
            .collect()
    }
}

/// One of the 26 synthesis cases used for the Figure 3 comparison.
///
/// The paper does not name its 26 cases; this reproduction uses the 20
/// non-memory, non-multiply instructions of the subset with fully symbolic
/// operands, plus six derived fixed-immediate cases (`NOT`, `INC`, `DEC`,
/// `DOUBLE`, `MASK_BYTE`, `SIGN`), for a total of 26.  Multiplication
/// specs are excluded because two-variable multiplication is exactly the
/// case the paper routes through CIC components rather than through
/// synthesis (Section 4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisCase {
    /// Case identifier (`case1` … `case26`).
    pub id: String,
    /// The spec to synthesize.
    pub spec: Spec,
}

impl SynthesisCase {
    /// The full list of 26 cases at the given synthesis width.
    pub fn all(width: u32) -> Vec<SynthesisCase> {
        let mut specs: Vec<Spec> = Vec::new();
        for op in [
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
            Opcode::Addi,
            Opcode::Slti,
            Opcode::Sltiu,
            Opcode::Xori,
            Opcode::Ori,
            Opcode::Andi,
            Opcode::Slli,
            Opcode::Srli,
            Opcode::Srai,
            Opcode::Lui,
        ] {
            specs.push(Spec::for_opcode(op, width));
        }
        specs.push(Spec::with_fixed_imm("NOT", Opcode::Xori, -1, width));
        specs.push(Spec::with_fixed_imm("INC", Opcode::Addi, 1, width));
        specs.push(Spec::with_fixed_imm("DEC", Opcode::Addi, -1, width));
        specs.push(Spec::with_fixed_imm("DOUBLE", Opcode::Slli, 1, width));
        specs.push(Spec::with_fixed_imm("MASK_BYTE", Opcode::Andi, 0xff, width));
        specs.push(Spec::with_fixed_imm(
            "SIGN",
            Opcode::Srai,
            width as i32 - 1,
            width,
        ));
        specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| SynthesisCase {
                id: format!("case{}", i + 1),
                spec,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::concrete::{self, Assignment};

    #[test]
    fn regreg_spec_semantics() {
        let mut tm = TermManager::new();
        let spec = Spec::for_opcode(Opcode::Sub, 32);
        assert_eq!(spec.num_inputs(), 2);
        assert_eq!(spec.imm_input_index(), None);
        let inputs = spec.fresh_inputs(&mut tm, "t");
        let out = spec.result(&mut tm, &inputs);
        let env: Assignment = [(inputs[0], 10u64), (inputs[1], 4u64)]
            .into_iter()
            .collect();
        assert_eq!(concrete::eval(&tm, out, &env), 6);
        let c = spec.input_constraint(&mut tm, &inputs);
        assert_eq!(tm.const_value(c), Some(1), "no immediate, no constraint");
    }

    #[test]
    fn imm_spec_has_an_imm_input_with_constraint() {
        let mut tm = TermManager::new();
        let spec = Spec::for_opcode(Opcode::Xori, 32);
        assert_eq!(spec.num_inputs(), 2);
        assert_eq!(spec.imm_input_index(), Some(1));
        let inputs = spec.fresh_inputs(&mut tm, "x");
        let out = spec.result(&mut tm, &inputs);
        let env: Assignment = [(inputs[0], 0xffu64), (inputs[1], 0xffff_ffffu64)]
            .into_iter()
            .collect();
        assert_eq!(concrete::eval(&tm, out, &env), 0xffff_ff00);
        let c = spec.input_constraint(&mut tm, &inputs);
        assert_eq!(
            concrete::eval(&tm, c, &env),
            1,
            "-1 is a legal 12-bit immediate"
        );
        let bad: Assignment = [(inputs[0], 0u64), (inputs[1], 0x10_0000u64)]
            .into_iter()
            .collect();
        assert_eq!(
            concrete::eval(&tm, c, &bad),
            0,
            "too-large immediates are excluded"
        );
    }

    #[test]
    fn shift_spec_constrains_the_amount() {
        let mut tm = TermManager::new();
        let spec = Spec::for_opcode(Opcode::Slli, 32);
        let inputs = spec.fresh_inputs(&mut tm, "s");
        let c = spec.input_constraint(&mut tm, &inputs);
        let ok: Assignment = [(inputs[1], 31u64)].into_iter().collect();
        let bad: Assignment = [(inputs[1], 32u64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, c, &ok), 1);
        assert_eq!(concrete::eval(&tm, c, &bad), 0);
    }

    #[test]
    fn fixed_imm_case_folds_the_immediate() {
        let mut tm = TermManager::new();
        let spec = Spec::with_fixed_imm("NOT", Opcode::Xori, -1, 32);
        assert_eq!(spec.num_inputs(), 1);
        let inputs = spec.fresh_inputs(&mut tm, "n");
        let out = spec.result(&mut tm, &inputs);
        let env: Assignment = [(inputs[0], 0x0f0fu64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, out, &env), 0xffff_f0f0);
    }

    #[test]
    fn lui_spec_is_the_identity_on_upper_patterns() {
        let mut tm = TermManager::new();
        let spec = Spec::for_opcode(Opcode::Lui, 32);
        assert_eq!(spec.num_inputs(), 1);
        let inputs = spec.fresh_inputs(&mut tm, "l");
        let out = spec.result(&mut tm, &inputs);
        assert_eq!(out, inputs[0]);
        let c = spec.input_constraint(&mut tm, &inputs);
        let ok: Assignment = [(inputs[0], 0xabcd_e000u64)].into_iter().collect();
        let bad: Assignment = [(inputs[0], 0xabcd_e001u64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, c, &ok), 1);
        assert_eq!(concrete::eval(&tm, c, &bad), 0);
    }

    #[test]
    fn there_are_26_cases_with_unique_names() {
        let cases = SynthesisCase::all(32);
        assert_eq!(cases.len(), 26);
        let mut names: Vec<&str> = cases.iter().map(|c| c.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
        assert_eq!(cases[0].id, "case1");
        assert_eq!(cases[25].id, "case26");
    }

    #[test]
    #[should_panic(expected = "not synthesis targets")]
    fn memory_specs_are_rejected() {
        Spec::for_opcode(Opcode::Lw, 32);
    }
}
