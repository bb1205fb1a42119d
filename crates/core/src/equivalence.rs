//! The equivalence database: original opcode → semantically equivalent
//! program template.
//!
//! Templates come from two sources: the synthesis drivers of `sepe-synth`
//! (the paper's HPF-CEGIS pipeline) and a curated set of hand-verified
//! identities.  The curated set means the verification experiments can run
//! without first running synthesis, and it covers the multiply instructions
//! that the paper routes around the synthesizer via CIC components.

use sepe_isa::Opcode;
use sepe_smt::FastMap;
use sepe_synth::program::{EquivTemplate, ImmSlot, Slot, TemplateInstr};

/// Maps opcodes to their chosen semantically equivalent program.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceDb {
    templates: FastMap<Opcode, EquivTemplate>,
}

fn rr(opcode: Opcode, dest: Slot, src1: Slot, src2: Slot) -> TemplateInstr {
    TemplateInstr {
        opcode,
        dest,
        src1,
        src2,
        imm: ImmSlot::Const(0),
    }
}

fn ri(opcode: Opcode, dest: Slot, src1: Slot, imm: ImmSlot) -> TemplateInstr {
    TemplateInstr {
        opcode,
        dest,
        src1,
        src2: Slot::Zero,
        imm,
    }
}

impl EquivalenceDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The curated database covering every non-memory opcode of the subset,
    /// with RV32 (32-bit) constants.
    ///
    /// Each template avoids the original instruction's own datapath whenever
    /// the instruction appears in the paper's Table 1, so single-instruction
    /// bugs on those opcodes cannot corrupt both sides identically.
    pub fn curated() -> Self {
        Self::curated_for_width(32)
    }

    /// The curated database with sign-bit and shift constants adjusted to a
    /// reduced data-path width (used by the fast benchmark configurations;
    /// `width` must be a power of two between 8 and 32).
    pub fn curated_for_width(width: u32) -> Self {
        use ImmSlot::{Const, FromOriginal};
        use Opcode::*;
        use Slot::{Dest, Rs1, Rs2, Temp, Zero};
        assert!(
            (4..=32).contains(&width) && width.is_power_of_two(),
            "unsupported width"
        );
        // an instruction materialising the single sign bit of the data path
        let sign_bit_instr = |dest: Slot| {
            if width > 12 {
                TemplateInstr {
                    opcode: Lui,
                    dest,
                    src1: Zero,
                    src2: Zero,
                    imm: Const(1 << (width - 13)),
                }
            } else {
                ri(Addi, dest, Zero, Const(-(1 << (width - 1))))
            }
        };
        let msb = width as i32 - 1;
        let mut db = EquivalenceDb::new();
        let mut add = |op: Opcode, instrs: Vec<TemplateInstr>, names: Vec<&str>| {
            db.templates.insert(
                op,
                EquivTemplate {
                    for_opcode: op,
                    instrs,
                    component_names: names.into_iter().map(String::from).collect(),
                },
            );
        };

        // ADD rd,rs1,rs2  ==  rs1 - (0 - rs2)
        add(
            Add,
            vec![rr(Sub, Temp(0), Zero, Rs2), rr(Sub, Dest, Rs1, Temp(0))],
            vec!["SUB", "SUB"],
        );
        // SUB: Listing 1 of the paper.
        add(
            Sub,
            vec![
                ri(Xori, Temp(0), Rs1, Const(-1)),
                rr(Add, Temp(1), Temp(0), Rs2),
                ri(Xori, Dest, Temp(1), Const(-1)),
            ],
            vec!["XORI", "ADD", "XORI"],
        );
        // SLL via a copied shift amount (SLL is not a Table-1 target).
        add(
            Sll,
            vec![rr(Add, Temp(0), Rs2, Zero), rr(Sll, Dest, Rs1, Temp(0))],
            vec!["ADD", "SLL"],
        );
        // SLT via the unsigned comparison after biasing both operands.
        add(
            Slt,
            vec![
                sign_bit_instr(Temp(0)),
                rr(Add, Temp(1), Rs1, Temp(0)),
                rr(Add, Temp(2), Rs2, Temp(0)),
                rr(Sltu, Dest, Temp(1), Temp(2)),
            ],
            vec!["LUI", "ADD", "ADD", "SLTU"],
        );
        // SLTU via the signed comparison after flipping the sign bits.
        add(
            Sltu,
            vec![
                sign_bit_instr(Temp(0)),
                rr(Xor, Temp(1), Rs1, Temp(0)),
                rr(Xor, Temp(2), Rs2, Temp(0)),
                rr(Slt, Dest, Temp(1), Temp(2)),
            ],
            vec!["LUI", "XOR", "XOR", "SLT"],
        );
        // XOR == (rs1 | rs2) & ~(rs1 & rs2)
        add(
            Xor,
            vec![
                rr(Or, Temp(0), Rs1, Rs2),
                rr(And, Temp(1), Rs1, Rs2),
                ri(Xori, Temp(2), Temp(1), Const(-1)),
                rr(And, Dest, Temp(0), Temp(2)),
            ],
            vec!["OR", "AND", "XORI", "AND"],
        );
        // SRL via a copied shift amount.
        add(
            Srl,
            vec![rr(Add, Temp(0), Rs2, Zero), rr(Srl, Dest, Rs1, Temp(0))],
            vec!["ADD", "SRL"],
        );
        // SRA == (rs1 >>u sh) | (sign ? ~(~0 >>u sh) : 0), built without SRA.
        add(
            Sra,
            vec![
                ri(Addi, Temp(0), Zero, Const(-1)),
                rr(Srl, Temp(1), Temp(0), Rs2),
                ri(Xori, Temp(2), Temp(1), Const(-1)),
                ri(Srai, Temp(3), Rs1, Const(msb)),
                rr(And, Temp(4), Temp(3), Temp(2)),
                rr(Srl, Temp(5), Rs1, Rs2),
                rr(Or, Dest, Temp(5), Temp(4)),
            ],
            vec!["ADDI", "SRL", "XORI", "SRAI", "AND", "SRL", "OR"],
        );
        // OR == (rs1 ^ rs2) + (rs1 & rs2)
        add(
            Or,
            vec![
                rr(Xor, Temp(0), Rs1, Rs2),
                rr(And, Temp(1), Rs1, Rs2),
                rr(Add, Dest, Temp(0), Temp(1)),
            ],
            vec!["XOR", "AND", "ADD"],
        );
        // AND == (rs1 | rs2) - (rs1 ^ rs2)
        add(
            And,
            vec![
                rr(Or, Temp(0), Rs1, Rs2),
                rr(Xor, Temp(1), Rs1, Rs2),
                rr(Sub, Dest, Temp(0), Temp(1)),
            ],
            vec!["OR", "XOR", "SUB"],
        );
        // MUL / MULHU / MULHSU via a copied operand (not Table-1 targets).
        add(
            Mul,
            vec![rr(Add, Temp(0), Rs2, Zero), rr(Mul, Dest, Rs1, Temp(0))],
            vec!["ADD", "MUL"],
        );
        add(
            Mulhu,
            vec![rr(Add, Temp(0), Rs2, Zero), rr(Mulhu, Dest, Rs1, Temp(0))],
            vec!["ADD", "MULHU"],
        );
        add(
            Mulhsu,
            vec![rr(Add, Temp(0), Rs2, Zero), rr(Mulhsu, Dest, Rs1, Temp(0))],
            vec!["ADD", "MULHSU"],
        );
        // MULH == MULHU adjusted for the operand signs (no MULH used).
        add(
            Mulh,
            vec![
                ri(Srai, Temp(0), Rs1, Const(msb)),
                rr(And, Temp(1), Temp(0), Rs2),
                ri(Srai, Temp(2), Rs2, Const(msb)),
                rr(And, Temp(3), Temp(2), Rs1),
                rr(Mulhu, Temp(4), Rs1, Rs2),
                rr(Sub, Temp(5), Temp(4), Temp(1)),
                rr(Sub, Dest, Temp(5), Temp(3)),
            ],
            vec!["SRAI", "AND", "SRAI", "AND", "MULHU", "SUB", "SUB"],
        );
        // Immediate forms: materialise the immediate, then use the R-type
        // datapath instead of the immediate datapath.
        let imm_pairs = [
            (Addi, Add),
            (Slti, Slt),
            (Sltiu, Sltu),
            (Xori, Xor),
            (Ori, Or),
            (Andi, And),
            (Slli, Sll),
            (Srli, Srl),
            (Srai, Sra),
        ];
        for (imm_op, reg_op) in imm_pairs {
            add(
                imm_op,
                vec![
                    ri(Addi, Temp(0), Zero, FromOriginal),
                    rr(reg_op, Dest, Rs1, Temp(0)),
                ],
                vec!["ADDI", "R-TYPE"],
            );
        }
        // LUI: materialise in a temporary, move through the adder.
        add(
            Lui,
            vec![
                TemplateInstr {
                    opcode: Lui,
                    dest: Temp(0),
                    src1: Zero,
                    src2: Zero,
                    imm: FromOriginal,
                },
                rr(Add, Dest, Temp(0), Zero),
            ],
            vec!["LUI", "ADD"],
        );
        db
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The template for an opcode, if present.
    pub fn template(&self, opcode: Opcode) -> Option<&EquivTemplate> {
        self.templates.get(&opcode)
    }

    /// Inserts (or replaces) a template, e.g. one produced by the synthesis
    /// drivers.
    pub fn insert(&mut self, template: EquivTemplate) {
        self.templates.insert(template.for_opcode, template);
    }

    /// The opcodes covered by the database.
    pub fn opcodes(&self) -> Vec<Opcode> {
        let mut ops: Vec<Opcode> = self.templates.keys().copied().collect();
        ops.sort();
        ops
    }

    /// The maximum template length in the database (the QED module sizes its
    /// dispatch queue from this).
    pub fn max_template_len(&self) -> usize {
        self.templates.values().map(|t| t.len()).max().unwrap_or(1)
    }

    /// Whether a template avoids using its own original opcode (the property
    /// that makes single-instruction bugs on that opcode detectable).
    pub fn avoids_own_opcode(&self, opcode: Opcode) -> bool {
        self.template(opcode)
            .map(|t| t.instrs.iter().all(|i| i.opcode != opcode))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::OperandKind;

    #[test]
    fn curated_db_covers_every_non_memory_opcode() {
        let db = EquivalenceDb::curated();
        for op in Opcode::ALL {
            if op.touches_memory() {
                assert!(db.template(op).is_none());
            } else {
                assert!(db.template(op).is_some(), "missing template for {op}");
            }
        }
        assert_eq!(db.len(), 24);
        assert!(db.max_template_len() >= 3);
        assert!(db.max_template_len() <= 7);
    }

    #[test]
    fn every_curated_template_is_semantically_equivalent() {
        let db = EquivalenceDb::curated();
        for op in db.opcodes() {
            let template = db.template(op).expect("template exists");
            let imms: Vec<i32> = match op.operand_kind() {
                OperandKind::RegImm => vec![-2048, -1, 0, 1, 5, 2047],
                OperandKind::RegShamt => vec![0, 1, 13, 31],
                OperandKind::Upper => vec![0, 1, 0x12345, 0xfffff],
                _ => vec![0],
            };
            for imm in imms {
                assert_eq!(
                    template.differential_check(imm, 300, 0xc0ffee ^ imm as u64),
                    0,
                    "template for {op} disagrees with the ISA semantics at imm={imm}"
                );
            }
        }
    }

    #[test]
    fn table1_opcodes_avoid_their_own_datapath() {
        let db = EquivalenceDb::curated();
        // the Table-1 single-instruction bug targets (minus SW, which the
        // EDSEP-V module handles natively)
        for op in [
            Opcode::Add,
            Opcode::Sub,
            Opcode::Xor,
            Opcode::Or,
            Opcode::And,
            Opcode::Slt,
            Opcode::Sltu,
            Opcode::Sra,
            Opcode::Mulh,
            Opcode::Xori,
            Opcode::Slli,
            Opcode::Srai,
        ] {
            assert!(
                db.avoids_own_opcode(op),
                "the equivalent program for {op} must not use {op} itself"
            );
        }
    }

    #[test]
    fn templates_fit_the_sepe_temporary_budget() {
        let db = EquivalenceDb::curated();
        for op in db.opcodes() {
            let t = db.template(op).expect("template exists");
            assert!(
                t.temps_used() <= 6,
                "{op}: equivalent programs may use at most the six T registers"
            );
        }
    }

    #[test]
    fn insert_replaces_existing_templates() {
        let mut db = EquivalenceDb::curated();
        let custom = sepe_synth::program::listing1_sub_template();
        db.insert(custom.clone());
        assert_eq!(db.template(Opcode::Sub), Some(&custom));
    }
}
