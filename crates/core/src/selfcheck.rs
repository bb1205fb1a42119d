//! Witness self-check: replay counterexamples on the concrete processor twin
//! before a `Bug` verdict leaves the engine.
//!
//! A model checker that reports a counterexample is making a falsifiable
//! claim: *this instruction sequence drives the mutated design into a
//! QED-inconsistent state*.  The claim is cheap to check — the repository
//! carries a concrete mutant core (`sepe_processor::MutantCore`) that shares
//! the mutation semantics with the symbolic model, so the committed stream
//! can be replayed in microseconds and the consistency predicate re-evaluated
//! on real values.  If the replay does **not** reproduce an inconsistency,
//! something upstream is wrong (an encoding bug, a bit-blaster defect, or an
//! injected fault corrupting the witness), and the honest answer is a
//! structured failure — [`StopReason::WitnessMismatch`] — not a silently
//! wrong `Bug` verdict.
//!
//! The replay is sound because the QED module constrains every witness input
//! to a materialisable instruction: opcodes are drawn from the allowed
//! universe, register indices are range-limited, and
//! `immediate_constraint` in `qed.rs` forces each immediate to a value the
//! operand format can actually encode (sign-extension-consistent 12-bit
//! immediates, in-range shift amounts, page-aligned upper immediates).  The
//! reconstruction in [`committed_stream`] therefore round-trips exactly.
//!
//! This check runs on every [`Detector`] counterexample.
//!
//! [`Detector`]: crate::detect::Detector
//! [`StopReason::WitnessMismatch`]: sepe_smt::StopReason::WitnessMismatch

use sepe_isa::{Instr, Opcode, Reg};
use sepe_processor::datapath::opcode_from_index;
use sepe_processor::{MutantCore, Mutation, ProcessorConfig};
use sepe_tsys::Witness;

use crate::detect::Method;
use crate::mapping::RegisterMapping;

/// Reconstructs the committed instruction stream (instruction, memory bank)
/// from a QED-system witness.
///
/// Each committed step either dispatches the original instruction from the
/// input port (`pick_original`) into bank 0, or pops the head of the
/// transformed-program queue (`q0_*` state) into the shadow bank 1 — the
/// same convention `commit_banked` uses on the concrete core.
pub fn committed_stream(witness: &Witness) -> Vec<(Instr, bool)> {
    let mut out = Vec::new();
    for frame in &witness.frames()[..witness.num_steps()] {
        let pick = frame.input("pick_original") == 1;
        let (op, rd, rs1, rs2, imm) = if pick {
            (
                frame.input("orig_op"),
                frame.input("orig_rd"),
                frame.input("orig_rs1"),
                frame.input("orig_rs2"),
                frame.input("orig_imm"),
            )
        } else {
            (
                frame.state("q0_op"),
                frame.state("q0_rd"),
                frame.state("q0_rs1"),
                frame.state("q0_rs2"),
                frame.state("q0_imm"),
            )
        };
        let Some(opcode) = opcode_from_index(op) else {
            // An out-of-range opcode index cannot come from a constrained
            // witness; treat the step as unreplayable (the caller will
            // report a mismatch rather than panic on hostile data).
            continue;
        };
        let instr = reconstruct(opcode, rd as u8, rs1 as u8, rs2 as u8, imm);
        out.push((instr, !pick));
    }
    out
}

/// Builds an [`Instr`] from raw witness fields (the immediate in the witness
/// is the materialised value).
fn reconstruct(opcode: Opcode, rd: u8, rs1: u8, rs2: u8, imm: u64) -> Instr {
    use sepe_isa::OperandKind::*;
    let signed = imm as i64 as i32;
    match opcode.operand_kind() {
        RegReg => Instr::reg_reg(opcode, Reg(rd), Reg(rs1), Reg(rs2)),
        RegImm | Load => {
            let imm12 = ((signed << 20) >> 20).clamp(-2048, 2047);
            Instr::new(opcode, Reg(rd), Reg(rs1), Reg::ZERO, imm12)
        }
        Store => {
            let imm12 = ((signed << 20) >> 20).clamp(-2048, 2047);
            Instr::new(opcode, Reg::ZERO, Reg(rs1), Reg(rs2), imm12)
        }
        RegShamt => Instr::new(opcode, Reg(rd), Reg(rs1), Reg::ZERO, signed & 0x1f),
        Upper => Instr::lui(Reg(rd), (imm >> 12) as i32),
    }
}

/// Replays `witness` on the concrete mutant core and reports whether the
/// QED consistency predicate really fails (i.e. the counterexample is
/// confirmed).
///
/// The replay core widens `allowed_opcodes` to the full ISA: the symbolic
/// model legally commits equivalent-program instructions outside the
/// original universe, and the concrete twin must accept them too.
pub fn replay_confirms(
    processor: &ProcessorConfig,
    mutation: Option<&Mutation>,
    method: Method,
    witness: &Witness,
) -> bool {
    let mut replay_config = processor.clone();
    replay_config.allowed_opcodes = Opcode::ALL.to_vec();
    let mut core = MutantCore::new(replay_config, mutation.cloned());
    for (instr, shadow_bank) in committed_stream(witness) {
        core.commit_banked(&instr, shadow_bank);
    }
    let mapping = match method {
        Method::Sqed => RegisterMapping::sqed(),
        Method::SepeSqed => RegisterMapping::sepe(),
    };
    let reg_mismatch = mapping
        .consistency_pairs()
        .into_iter()
        .any(|(o, e)| core.reg(o) != core.reg(e));
    let half = core.config().mem_words / 2;
    let mem_mismatch = (0..half).any(|w| core.mem_word(w) != core.mem_word(w + half));
    reg_mismatch || mem_mismatch
}

/// Deterministically corrupts a witness (fault injection for the
/// [`FaultPlan::corrupt_witness`](crate::fault::FaultPlan) hook): flips the
/// `pick_original` input of the first committed step, so the replayed stream
/// diverges from the solver's model and the self-check must demote the
/// verdict.
pub fn corrupt_witness(witness: &Witness) -> Witness {
    let mut frames = witness.frames().to_vec();
    if let Some(first) = frames.first_mut() {
        let flipped = 1 - (first.input("pick_original") & 1);
        first.inputs.insert("pick_original".to_string(), flipped);
    }
    Witness::new(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_tsys::witness::Frame;

    #[test]
    fn corrupt_flips_the_first_pick() {
        let mut frame = Frame::default();
        frame.inputs.insert("pick_original".to_string(), 1);
        let w = Witness::new(vec![frame.clone(), frame]);
        let corrupted = corrupt_witness(&w);
        assert_eq!(corrupted.frames()[0].input("pick_original"), 0);
        assert_eq!(corrupted.frames()[1].input("pick_original"), 1);
        // Corruption is idempotent in shape: a second flip restores.
        let restored = corrupt_witness(&corrupted);
        assert_eq!(restored.frames()[0].input("pick_original"), 1);
    }

    #[test]
    fn unreplayable_opcode_indices_are_skipped_not_fatal() {
        let mut frame = Frame::default();
        frame.inputs.insert("pick_original".to_string(), 1);
        frame.inputs.insert("orig_op".to_string(), 999);
        let w = Witness::new(vec![frame, Frame::default()]);
        assert!(committed_stream(&w).is_empty());
    }
}
