//! Library components (Section 4.1 of the paper).
//!
//! A component is a reusable building block of synthesized programs.  The
//! paper defines three classes:
//!
//! * **NIC** (native instruction class) — semantics identical to an R-type
//!   instruction over register inputs,
//! * **DIC** (derived instruction class) — an immediate-form instruction
//!   whose immediate operand is an *internal attribute* fixed by the
//!   synthesizer rather than an input,
//! * **CIC** (composite instruction class) — a short fixed instruction
//!   sequence whose overall semantics are treated as one component (used to
//!   cover behaviours that are hard to reach otherwise, such as
//!   multiplication by a constant).

use sepe_isa::{semantics, Opcode};
use sepe_smt::{TermId, TermManager};

use crate::program::{ImmSlot, Slot, TemplateInstr};

/// The component class (NIC / DIC / CIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentClass {
    /// Native instruction class.
    Nic,
    /// Derived instruction class.
    Dic,
    /// Composite instruction class.
    Cic,
}

/// How a component's internal attribute is constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// No internal attribute.
    None,
    /// A sign-extended 12-bit immediate.
    Imm12,
    /// A shift amount in `0..width`.
    Shamt,
    /// An upper-immediate value (low 12 bits zero), as produced by `LUI`.
    Upper20,
}

/// The concrete behaviour of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// NIC: one R-type instruction.
    Native(Opcode),
    /// DIC: one immediate-form instruction, immediate as attribute.
    Derived(Opcode),
    /// CIC: multiply (of the given flavour) by a constant.
    MulByConst(Opcode),
    /// CIC: `(I1 << A) + I2`.
    ShiftLeftAdd,
    /// CIC: `0 - I1`.
    Negate,
    /// CIC: materialise a constant (`sext(A)`).
    LoadImmediate,
    /// CIC: `I1 & !I2`.
    AndNot,
    /// CIC: `(I1 <s 0) ? 1 : 0`.
    SignBit,
}

/// How a decoded attribute is carried into the instruction template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrResolution {
    /// A constant chosen by the synthesizer.
    Const(i64),
    /// The original instruction's immediate, passed through.
    FromOriginal,
}

/// A synthesis component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Unique component name (e.g. `"ADD"`, `"XORI"`, `"MUL_CONST"`).
    pub name: String,
    /// The class (NIC / DIC / CIC).
    pub class: ComponentClass,
    /// The behaviour.
    pub kind: ComponentKind,
}

impl Component {
    /// Creates a component; the name is derived from the kind.
    pub fn new(class: ComponentClass, kind: ComponentKind) -> Self {
        let name = match kind {
            ComponentKind::Native(op) | ComponentKind::Derived(op) => op.mnemonic().to_uppercase(),
            ComponentKind::MulByConst(op) => format!("{}_CONST", op.mnemonic().to_uppercase()),
            ComponentKind::ShiftLeftAdd => "SHL_ADD".to_string(),
            ComponentKind::Negate => "NEG".to_string(),
            ComponentKind::LoadImmediate => "LOAD_IMM".to_string(),
            ComponentKind::AndNot => "AND_NOT".to_string(),
            ComponentKind::SignBit => "SIGN_BIT".to_string(),
        };
        Component { name, class, kind }
    }

    /// Number of register-value inputs.
    pub fn num_inputs(&self) -> usize {
        match self.kind {
            ComponentKind::Native(_) => 2,
            ComponentKind::Derived(Opcode::Lui) => 0,
            ComponentKind::Derived(_) => 1,
            ComponentKind::MulByConst(_) => 1,
            ComponentKind::ShiftLeftAdd => 2,
            ComponentKind::Negate => 1,
            ComponentKind::LoadImmediate => 0,
            ComponentKind::AndNot => 2,
            ComponentKind::SignBit => 1,
        }
    }

    /// Whether swapping the component's two inputs never changes its
    /// output: the native ADD, XOR, OR and AND.  CEGIS fixes the operand
    /// order of such a component, since both orders compute the same value.
    pub fn is_commutative(&self) -> bool {
        matches!(
            self.kind,
            ComponentKind::Native(Opcode::Add | Opcode::Xor | Opcode::Or | Opcode::And)
        )
    }

    /// The attribute kind (how the internal immediate is constrained).
    pub fn attr_kind(&self) -> AttrKind {
        match self.kind {
            ComponentKind::Native(_)
            | ComponentKind::Negate
            | ComponentKind::AndNot
            | ComponentKind::SignBit => AttrKind::None,
            ComponentKind::Derived(Opcode::Lui) => AttrKind::Upper20,
            ComponentKind::Derived(Opcode::Slli | Opcode::Srli | Opcode::Srai)
            | ComponentKind::ShiftLeftAdd => AttrKind::Shamt,
            ComponentKind::Derived(_)
            | ComponentKind::MulByConst(_)
            | ComponentKind::LoadImmediate => AttrKind::Imm12,
        }
    }

    /// Whether the component has an internal attribute.
    pub fn has_attr(&self) -> bool {
        self.attr_kind() != AttrKind::None
    }

    /// The base opcode this component is built around (used for the χ
    /// "same name as the original instruction" check of the HPF priority and
    /// for reporting).
    pub fn base_opcode(&self) -> Option<Opcode> {
        match self.kind {
            ComponentKind::Native(op)
            | ComponentKind::Derived(op)
            | ComponentKind::MulByConst(op) => Some(op),
            ComponentKind::ShiftLeftAdd => Some(Opcode::Sll),
            ComponentKind::Negate => Some(Opcode::Sub),
            ComponentKind::LoadImmediate => Some(Opcode::Addi),
            ComponentKind::AndNot => Some(Opcode::And),
            ComponentKind::SignBit => Some(Opcode::Slt),
        }
    }

    /// Number of instructions the component expands to in a deployed
    /// equivalent program.
    pub fn expansion_len(&self) -> usize {
        match self.kind {
            ComponentKind::Native(_)
            | ComponentKind::Derived(_)
            | ComponentKind::Negate
            | ComponentKind::LoadImmediate
            | ComponentKind::SignBit => 1,
            ComponentKind::MulByConst(_) | ComponentKind::ShiftLeftAdd | ComponentKind::AndNot => 2,
        }
    }

    /// The symbolic semantics `Φ_j(I, A, O)`: builds the output term from the
    /// input terms (all of the given width) and the attribute term.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match, or an attribute is
    /// required but missing.
    pub fn semantics(
        &self,
        tm: &mut TermManager,
        inputs: &[TermId],
        attr: Option<TermId>,
    ) -> TermId {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "wrong input count for {}",
            self.name
        );
        let attr = || attr.expect("component requires an attribute");
        match self.kind {
            ComponentKind::Native(op) => semantics::alu_result(tm, op, inputs[0], inputs[1]),
            ComponentKind::Derived(Opcode::Lui) => attr(),
            ComponentKind::Derived(op) => semantics::alu_result(tm, op, inputs[0], attr()),
            ComponentKind::MulByConst(op) => semantics::alu_result(tm, op, inputs[0], attr()),
            ComponentKind::ShiftLeftAdd => {
                let shifted = semantics::alu_result(tm, Opcode::Sll, inputs[0], attr());
                tm.bv_add(shifted, inputs[1])
            }
            ComponentKind::Negate => {
                let width = tm.width(inputs[0]);
                let zero = tm.zero(width);
                tm.bv_sub(zero, inputs[0])
            }
            ComponentKind::LoadImmediate => attr(),
            ComponentKind::AndNot => {
                let n = tm.bv_not(inputs[1]);
                tm.bv_and(inputs[0], n)
            }
            ComponentKind::SignBit => {
                let width = tm.width(inputs[0]);
                let zero = tm.zero(width);
                let lt = tm.bv_slt(inputs[0], zero);
                tm.bool_to_bv(lt, width)
            }
        }
    }

    /// The constraint the attribute value must satisfy so that the deployed
    /// template's immediates stay encodable.
    pub fn attr_constraint(&self, tm: &mut TermManager, attr: TermId) -> TermId {
        let width = tm.width(attr);
        match self.attr_kind() {
            AttrKind::None => tm.tru(),
            AttrKind::Imm12 => {
                if width <= 12 {
                    tm.tru()
                } else {
                    // attr must equal the sign extension of its low 12 bits
                    let low = tm.bv_extract(attr, 11, 0);
                    let sext = tm.bv_sign_ext(low, width - 12);
                    tm.eq(attr, sext)
                }
            }
            AttrKind::Shamt => {
                let limit = tm.bv_const(u64::from(width), width);
                tm.bv_ult(attr, limit)
            }
            AttrKind::Upper20 => {
                if width <= 12 {
                    tm.tru()
                } else {
                    let low = tm.bv_extract(attr, 11, 0);
                    let zero = tm.zero(12);
                    tm.eq(low, zero)
                }
            }
        }
    }

    /// Converts a decoded attribute bit pattern (width-bit, as chosen by the
    /// synthesizer) into the immediate constant carried by the template.
    pub fn attr_to_imm(&self, raw: u64, width: u32) -> i32 {
        let signed = sepe_smt::sort::sign_extend(raw, width) as i64;
        match self.attr_kind() {
            AttrKind::None => 0,
            AttrKind::Imm12 => signed as i32,
            AttrKind::Shamt => (raw & u64::from(width - 1)) as i32,
            AttrKind::Upper20 => ((raw >> 12) & 0xf_ffff) as i32,
        }
    }

    /// Expands the component into template instructions.
    ///
    /// * `inputs` — the slots feeding the component,
    /// * `attr` — the resolved attribute (constant or pass-through),
    /// * `dest` — where the component's output goes,
    /// * `next_temp` — allocator for intermediate temporaries.
    pub fn expand(
        &self,
        inputs: &[Slot],
        attr: Option<AttrResolution>,
        dest: Slot,
        next_temp: &mut u8,
    ) -> Vec<TemplateInstr> {
        let imm = match attr {
            Some(AttrResolution::Const(c)) => ImmSlot::Const(c as i32),
            Some(AttrResolution::FromOriginal) => ImmSlot::FromOriginal,
            None => ImmSlot::Const(0),
        };
        let mut fresh_temp = || {
            let t = Slot::Temp(*next_temp);
            *next_temp += 1;
            t
        };
        match self.kind {
            ComponentKind::Native(op) => vec![TemplateInstr {
                opcode: op,
                dest,
                src1: inputs[0],
                src2: inputs[1],
                imm: ImmSlot::Const(0),
            }],
            ComponentKind::Derived(Opcode::Lui) => vec![TemplateInstr {
                opcode: Opcode::Lui,
                dest,
                src1: Slot::Zero,
                src2: Slot::Zero,
                imm,
            }],
            ComponentKind::Derived(op) => vec![TemplateInstr {
                opcode: op,
                dest,
                src1: inputs[0],
                src2: Slot::Zero,
                imm,
            }],
            ComponentKind::MulByConst(op) => {
                let t = fresh_temp();
                vec![
                    TemplateInstr {
                        opcode: Opcode::Addi,
                        dest: t,
                        src1: Slot::Zero,
                        src2: Slot::Zero,
                        imm,
                    },
                    TemplateInstr {
                        opcode: op,
                        dest,
                        src1: inputs[0],
                        src2: t,
                        imm: ImmSlot::Const(0),
                    },
                ]
            }
            ComponentKind::ShiftLeftAdd => {
                let t = fresh_temp();
                vec![
                    TemplateInstr {
                        opcode: Opcode::Slli,
                        dest: t,
                        src1: inputs[0],
                        src2: Slot::Zero,
                        imm,
                    },
                    TemplateInstr {
                        opcode: Opcode::Add,
                        dest,
                        src1: t,
                        src2: inputs[1],
                        imm: ImmSlot::Const(0),
                    },
                ]
            }
            ComponentKind::Negate => vec![TemplateInstr {
                opcode: Opcode::Sub,
                dest,
                src1: Slot::Zero,
                src2: inputs[0],
                imm: ImmSlot::Const(0),
            }],
            ComponentKind::LoadImmediate => vec![TemplateInstr {
                opcode: Opcode::Addi,
                dest,
                src1: Slot::Zero,
                src2: Slot::Zero,
                imm,
            }],
            ComponentKind::AndNot => {
                let t = fresh_temp();
                vec![
                    TemplateInstr {
                        opcode: Opcode::Xori,
                        dest: t,
                        src1: inputs[1],
                        src2: Slot::Zero,
                        imm: ImmSlot::Const(-1),
                    },
                    TemplateInstr {
                        opcode: Opcode::And,
                        dest,
                        src1: inputs[0],
                        src2: t,
                        imm: ImmSlot::Const(0),
                    },
                ]
            }
            ComponentKind::SignBit => vec![TemplateInstr {
                opcode: Opcode::Slt,
                dest,
                src1: inputs[0],
                src2: Slot::Zero,
                imm: ImmSlot::Const(0),
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::{concrete, Sort};
    use std::collections::HashMap;

    fn eval_component(c: &Component, inputs: &[u64], attr: Option<u64>, width: u32) -> u64 {
        let mut tm = TermManager::new();
        let in_terms: Vec<TermId> = inputs
            .iter()
            .enumerate()
            .map(|(i, _)| tm.var(&format!("i{i}"), Sort::BitVec(width)))
            .collect();
        let attr_term = attr.map(|_| tm.var("attr", Sort::BitVec(width)));
        let out = c.semantics(&mut tm, &in_terms, attr_term);
        let mut env: HashMap<TermId, u64> = in_terms
            .iter()
            .copied()
            .zip(inputs.iter().copied())
            .collect();
        if let (Some(t), Some(v)) = (attr_term, attr) {
            env.insert(t, v);
        }
        concrete::eval(&tm, out, &env)
    }

    #[test]
    fn native_component_matches_isa_semantics() {
        let add = Component::new(ComponentClass::Nic, ComponentKind::Native(Opcode::Add));
        assert_eq!(add.num_inputs(), 2);
        assert!(!add.has_attr());
        assert_eq!(eval_component(&add, &[40, 2], None, 32), 42);
        let sra = Component::new(ComponentClass::Nic, ComponentKind::Native(Opcode::Sra));
        assert_eq!(
            eval_component(&sra, &[0x8000_0000, 4], None, 32),
            0xf800_0000
        );
    }

    #[test]
    fn derived_component_uses_its_attribute() {
        let xori = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Xori));
        assert_eq!(xori.num_inputs(), 1);
        assert!(xori.has_attr());
        assert_eq!(
            eval_component(&xori, &[0xff], Some(0xffff_ffff), 32),
            0xffff_ff00
        );
        let lui = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Lui));
        assert_eq!(lui.num_inputs(), 0);
        assert_eq!(
            eval_component(&lui, &[], Some(0x1234_5000), 32),
            0x1234_5000
        );
    }

    #[test]
    fn composite_components_compute_their_identities() {
        let neg = Component::new(ComponentClass::Cic, ComponentKind::Negate);
        assert_eq!(
            eval_component(&neg, &[5], None, 32),
            (5u32).wrapping_neg() as u64
        );
        let andnot = Component::new(ComponentClass::Cic, ComponentKind::AndNot);
        assert_eq!(eval_component(&andnot, &[0xff, 0x0f], None, 32), 0xf0);
        let sign = Component::new(ComponentClass::Cic, ComponentKind::SignBit);
        assert_eq!(eval_component(&sign, &[0x8000_0000], None, 32), 1);
        assert_eq!(eval_component(&sign, &[0x7000_0000], None, 32), 0);
        let shladd = Component::new(ComponentClass::Cic, ComponentKind::ShiftLeftAdd);
        assert_eq!(eval_component(&shladd, &[3, 5], Some(4), 32), 3 * 16 + 5);
        let mulc = Component::new(ComponentClass::Cic, ComponentKind::MulByConst(Opcode::Mul));
        assert_eq!(eval_component(&mulc, &[7], Some(6), 32), 42);
    }

    #[test]
    fn attr_constraints_enforce_encodability() {
        let mut tm = TermManager::new();
        let attr = tm.var("a", Sort::BitVec(32));
        let addi = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Addi));
        let c = addi.attr_constraint(&mut tm, attr);
        let ok: HashMap<_, _> = [(attr, 0xffff_ffffu64)].into_iter().collect(); // -1
        let bad: HashMap<_, _> = [(attr, 0x8000u64)].into_iter().collect(); // 32768 not sext12
        assert_eq!(concrete::eval(&tm, c, &ok), 1);
        assert_eq!(concrete::eval(&tm, c, &bad), 0);

        let slli = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Slli));
        let c = slli.attr_constraint(&mut tm, attr);
        let ok: HashMap<_, _> = [(attr, 31u64)].into_iter().collect();
        let bad: HashMap<_, _> = [(attr, 32u64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, c, &ok), 1);
        assert_eq!(concrete::eval(&tm, c, &bad), 0);

        let lui = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Lui));
        let c = lui.attr_constraint(&mut tm, attr);
        let ok: HashMap<_, _> = [(attr, 0x1234_5000u64)].into_iter().collect();
        let bad: HashMap<_, _> = [(attr, 0x1234_5001u64)].into_iter().collect();
        assert_eq!(concrete::eval(&tm, c, &ok), 1);
        assert_eq!(concrete::eval(&tm, c, &bad), 0);
    }

    #[test]
    fn attr_to_imm_interprets_the_bit_pattern() {
        let addi = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Addi));
        assert_eq!(addi.attr_to_imm(0xffff_ffff, 32), -1);
        assert_eq!(addi.attr_to_imm(5, 32), 5);
        let slli = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Slli));
        assert_eq!(slli.attr_to_imm(7, 32), 7);
        let lui = Component::new(ComponentClass::Dic, ComponentKind::Derived(Opcode::Lui));
        assert_eq!(lui.attr_to_imm(0x1234_5000, 32), 0x12345);
    }

    #[test]
    fn expansion_produces_executable_instructions() {
        let mulc = Component::new(ComponentClass::Cic, ComponentKind::MulByConst(Opcode::Mul));
        let mut next_temp = 0;
        let instrs = mulc.expand(
            &[Slot::Rs1],
            Some(AttrResolution::Const(6)),
            Slot::Dest,
            &mut next_temp,
        );
        assert_eq!(instrs.len(), 2);
        assert_eq!(instrs.len(), mulc.expansion_len());
        assert_eq!(next_temp, 1);
        assert_eq!(instrs[0].opcode, Opcode::Addi);
        assert_eq!(instrs[1].opcode, Opcode::Mul);
        assert_eq!(instrs[1].dest, Slot::Dest);
    }

    #[test]
    fn component_names_are_stable() {
        let c = Component::new(ComponentClass::Nic, ComponentKind::Native(Opcode::Add));
        assert_eq!(c.name, "ADD");
        let c = Component::new(ComponentClass::Cic, ComponentKind::MulByConst(Opcode::Mulh));
        assert_eq!(c.name, "MULH_CONST");
        assert_eq!(c.base_opcode(), Some(Opcode::Mulh));
    }
}
