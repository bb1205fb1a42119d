//! Component-based CEGIS for one multiset of components.
//!
//! This implements the counterexample-guided inductive synthesis core used by
//! all three drivers (classical, iterative, HPF).  The encoding follows
//! Gulwani et al.'s component-based synthesis with first-order location
//! variables, restricted to one multiset, plus the paper's additional input
//! constraint that prevents the synthesized program from being the original
//! instruction itself (Section 4.1).
//!
//! # Symmetry breaking
//!
//! The location encoding has one model per relabelling of identical
//! components and per operand swap of a commutative component, so without
//! help an UNSAT answer ("this multiset has no program") refutes each wiring
//! up to `n!` times.  The well-formedness constraint ψ_wfp therefore fixes
//! one representative (a symmetry-breaking predicate in the sense of
//! Crawford–Ginsberg–Luks–Roy, KR 1996):
//!
//! * for every pair `j < j2` of identical components (every pair, not only
//!   neighbours, since callers pass slices in any order), `o_j < o_j2`
//!   replaces `o_j ≠ o_j2`;
//! * for every commutative component ([`Component::is_commutative`]),
//!   `l_{j,0} ≤ l_{j,1}`.
//!
//! Neither order loses a program.  Any model maps onto one that satisfies
//! both: swap two identical components' locations, attributes and
//! per-example variables, or swap a commutative component's operands; every
//! other constraint, the identity exclusion included, is unchanged by the
//! swap.  So a multiset has a program under the orders exactly when it has
//! one without them, and the drivers try and accept the same multisets.
//! Decoding sorts the components by output location, so a relabelling of
//! identical components decodes to the same template; only which of several
//! programs the solver happens to return first (and so the component order
//! of a reported template) can differ.

use std::cell::Cell;
use std::time::Duration;

use sepe_isa::{Opcode, OperandKind};
use sepe_smt::{
    FastMap, IncrementalSolver, SatResult, SolverReuseStats, Sort, TermId, TermManager,
};

use crate::component::{AttrResolution, Component};
use crate::program::{EquivTemplate, ImmSlot, Slot, TemplateInstr};
use crate::spec::Spec;

/// Configuration shared by the synthesis drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisConfig {
    /// Bit width of the synthesis semantics (the paper works at 32).
    pub width: u32,
    /// Multiset size `n`: number of components per candidate program.
    pub multiset_size: usize,
    /// `k`: stop after this many equivalent programs have been found.
    pub programs_wanted: usize,
    /// Only programs with at least this many components count towards `k`
    /// (the paper uses 3).
    pub min_components: usize,
    /// Maximum number of synthesize/verify rounds per multiset.
    pub max_cegis_iterations: usize,
    /// SAT conflict budget per synthesis query.
    pub synth_conflict_limit: Option<u64>,
    /// SAT conflict budget per verification query.
    pub verify_conflict_limit: Option<u64>,
    /// Wall-clock budget for a whole driver run on one specification.
    pub time_limit: Option<Duration>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            width: 32,
            multiset_size: 3,
            programs_wanted: 20,
            min_components: 3,
            max_cegis_iterations: 16,
            synth_conflict_limit: Some(200_000),
            verify_conflict_limit: Some(200_000),
            time_limit: None,
        }
    }
}

impl SynthesisConfig {
    /// The acceptance rule both multiset drivers share: a program counts
    /// towards `k` (and is reported) when it has at least `min_components`
    /// components, or when the multisets are smaller than `min_components`
    /// so that no program could.
    pub fn counts_towards_k(&self, program: &EquivTemplate) -> bool {
        program.component_names.len() >= self.min_components
            || self.multiset_size < self.min_components
    }
}

/// Outcome of one CEGIS run on a multiset.
#[derive(Debug, Clone)]
pub enum CegisOutcome {
    /// A verified equivalent program.
    Program(EquivTemplate),
    /// The multiset cannot implement the specification.
    NoProgram,
    /// The conflict or iteration budget ran out before a verdict.
    ResourceOut,
}

impl CegisOutcome {
    /// The synthesized program, if any.
    pub fn program(self) -> Option<EquivTemplate> {
        match self {
            CegisOutcome::Program(p) => Some(p),
            _ => None,
        }
    }
}

/// The CEGIS engine for a fixed multiset of components.
#[derive(Debug, Clone)]
pub struct CegisEngine {
    config: SynthesisConfig,
    /// Solver-reuse counters accumulated over every CEGIS run of this
    /// engine (a `Cell` so the engine API can stay `&self`).
    stats: Cell<SolverReuseStats>,
}

impl CegisEngine {
    /// Creates an engine.
    pub fn new(config: SynthesisConfig) -> Self {
        CegisEngine {
            config,
            stats: Cell::new(SolverReuseStats::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Solver-reuse statistics accumulated across every synthesis call made
    /// through this engine.
    pub fn solver_stats(&self) -> SolverReuseStats {
        self.stats.get()
    }

    /// Attempts to synthesize a program equivalent to `spec` using exactly
    /// the components of `multiset`.
    ///
    /// Both sides of the refinement loop run on persistent
    /// [`IncrementalSolver`]s.  The synthesis side asserts the
    /// well-formedness constraints once and each counterexample adds its
    /// constraints monotonically.  The verification side encodes the spec
    /// (symbolic inputs, input constraint, spec semantics) once and checks
    /// each round's candidate by *assuming* the candidate/spec disequality —
    /// retracted on return instead of rebuilding the verifier from scratch —
    /// so successive candidates share subterm encodings and learnt clauses.
    pub fn synthesize_with_multiset(&self, spec: &Spec, multiset: &[&Component]) -> CegisOutcome {
        let width = self.config.width;
        let num_inputs = spec.num_inputs();
        let n = multiset.len();
        let total_locations = num_inputs + n;
        let loc_bits = location_bits(total_locations);

        let mut examples: Vec<Vec<u64>> = seed_examples(spec, width);

        // ----------------------------------------------------------
        // Persistent synthesis query state (one per multiset).
        // ----------------------------------------------------------
        let mut tm = TermManager::new();
        let mut solver = IncrementalSolver::new();
        solver.set_conflict_limit(self.config.synth_conflict_limit);

        let outputs: Vec<TermId> = (0..n)
            .map(|j| tm.var(&format!("o{j}"), Sort::BitVec(loc_bits)))
            .collect();
        let inputs_loc: Vec<Vec<TermId>> = (0..n)
            .map(|j| {
                (0..multiset[j].num_inputs())
                    .map(|k| tm.var(&format!("l{j}_{k}"), Sort::BitVec(loc_bits)))
                    .collect()
            })
            .collect();
        let attrs: Vec<Option<TermId>> = (0..n)
            .map(|j| {
                multiset[j]
                    .has_attr()
                    .then(|| tm.var(&format!("attr{j}"), Sort::BitVec(width)))
            })
            .collect();

        // ψ_wfp: output locations in range and distinct, inputs strictly
        // before their component's output (acyclicity).  Asserted once.
        // The two symmetry-breaking orders ride along (see the module docs).
        let lo = tm.bv_const(num_inputs as u64, loc_bits);
        let hi = tm.bv_const(total_locations as u64, loc_bits);
        for j in 0..n {
            let ge = tm.bv_ule(lo, outputs[j]);
            let lt = tm.bv_ult(outputs[j], hi);
            solver.assert_term(&mut tm, ge);
            solver.assert_term(&mut tm, lt);
            for j2 in (j + 1)..n {
                // Every pair, not only neighbours: callers pass slices in
                // any order, so identical components need not be adjacent.
                let distinct = if multiset[j] == multiset[j2] {
                    tm.bv_ult(outputs[j], outputs[j2])
                } else {
                    tm.neq(outputs[j], outputs[j2])
                };
                solver.assert_term(&mut tm, distinct);
            }
            for &l in &inputs_loc[j] {
                let before = tm.bv_ult(l, outputs[j]);
                solver.assert_term(&mut tm, before);
            }
            if multiset[j].is_commutative() {
                let ordered = tm.bv_ule(inputs_loc[j][0], inputs_loc[j][1]);
                solver.assert_term(&mut tm, ordered);
            }
            if let Some(attr) = attrs[j] {
                let c = multiset[j].attr_constraint(&mut tm, attr);
                solver.assert_term(&mut tm, c);
            }
            // The paper's "not identical to the original instruction"
            // constraint: a component with the same base operation must
            // not read exactly the original register operands.
            if multiset[j].base_opcode() == Some(spec.opcode) && !inputs_loc[j].is_empty() {
                let regs = tm.bv_const(spec.num_reg_inputs as u64, loc_bits);
                let mut all_direct = tm.tru();
                for &l in &inputs_loc[j] {
                    let direct = tm.bv_ult(l, regs);
                    all_direct = tm.and(all_direct, direct);
                }
                let forbidden = tm.not(all_direct);
                solver.assert_term(&mut tm, forbidden);
            }
        }

        // Examples whose constraints are already asserted.
        let mut encoded_examples = 0usize;

        // ----------------------------------------------------------
        // Persistent verification query state (one per multiset).
        //
        // Every round verifies a *different* candidate, so the candidate
        // constraints cannot be asserted permanently — but the spec side
        // (symbolic inputs, input constraint, the spec's own semantics) is
        // identical across rounds.  Encoding it once on an incremental
        // solver and assuming only the per-candidate disequality makes each
        // round pay just for the candidate's own subgraph, with the
        // disequality retracted when the check returns.
        // ----------------------------------------------------------
        let mut vtm = TermManager::new();
        let mut verifier = IncrementalSolver::new();
        verifier.set_conflict_limit(self.config.verify_conflict_limit);
        let vinputs = spec.fresh_inputs(&mut vtm, "v");
        let constraint = spec.input_constraint(&mut vtm, &vinputs);
        verifier.assert_term(&mut vtm, constraint);
        let spec_out = spec.result(&mut vtm, &vinputs);

        let outcome = 'refine: {
            for _round in 0..self.config.max_cegis_iterations {
                // ----------------------------------------------------------
                // φ_lib ∧ ψ_conn ∧ φ_spec for every example not yet encoded
                // (the example set only grows, so this is monotone).
                // ----------------------------------------------------------
                while encoded_examples < examples.len() {
                    let e_idx = encoded_examples;
                    let example = examples[e_idx].clone();
                    let input_consts: Vec<TermId> =
                        example.iter().map(|&v| tm.bv_const(v, width)).collect();
                    let comp_inputs: Vec<Vec<TermId>> = (0..n)
                        .map(|j| {
                            (0..multiset[j].num_inputs())
                                .map(|k| tm.var(&format!("I{e_idx}_{j}_{k}"), Sort::BitVec(width)))
                                .collect()
                        })
                        .collect();
                    let comp_outputs: Vec<TermId> = (0..n)
                        .map(|j| tm.var(&format!("O{e_idx}_{j}"), Sort::BitVec(width)))
                        .collect();
                    for j in 0..n {
                        let sem = multiset[j].semantics(&mut tm, &comp_inputs[j], attrs[j]);
                        let eq = tm.eq(comp_outputs[j], sem);
                        solver.assert_term(&mut tm, eq);
                        for (k, &l) in inputs_loc[j].iter().enumerate() {
                            // connection to the program inputs
                            for (i, &value) in input_consts.iter().enumerate() {
                                let loc = tm.bv_const(i as u64, loc_bits);
                                let here = tm.eq(l, loc);
                                let same = tm.eq(comp_inputs[j][k], value);
                                let implied = tm.implies(here, same);
                                solver.assert_term(&mut tm, implied);
                            }
                            // connection to other components' outputs
                            for j2 in 0..n {
                                if j2 == j {
                                    continue;
                                }
                                let here = tm.eq(l, outputs[j2]);
                                let same = tm.eq(comp_inputs[j][k], comp_outputs[j2]);
                                let implied = tm.implies(here, same);
                                solver.assert_term(&mut tm, implied);
                            }
                        }
                    }
                    // The program output lives at the last location; whichever
                    // component writes it must produce the spec's value.
                    let spec_value = spec.result(&mut tm, &input_consts);
                    let last = tm.bv_const((total_locations - 1) as u64, loc_bits);
                    for j in 0..n {
                        let here = tm.eq(outputs[j], last);
                        let same = tm.eq(comp_outputs[j], spec_value);
                        let implied = tm.implies(here, same);
                        solver.assert_term(&mut tm, implied);
                    }
                    encoded_examples += 1;
                }

                match solver.check(&mut tm) {
                    SatResult::Unsat => break 'refine CegisOutcome::NoProgram,
                    SatResult::Unknown => break 'refine CegisOutcome::ResourceOut,
                    SatResult::Sat => {}
                }
                let model = solver.model(&tm);

                // ----------------------------------------------------------
                // Decode the candidate program.
                // ----------------------------------------------------------
                let decoded_outputs: Vec<u64> = outputs.iter().map(|&o| model.value(o)).collect();
                let decoded_inputs: Vec<Vec<u64>> = inputs_loc
                    .iter()
                    .map(|ls| ls.iter().map(|&l| model.value(l)).collect())
                    .collect();
                let decoded_attrs: Vec<Option<u64>> =
                    attrs.iter().map(|a| a.map(|t| model.value(t))).collect();
                let candidate = decode_program(
                    spec,
                    multiset,
                    &decoded_outputs,
                    &decoded_inputs,
                    &decoded_attrs,
                    width,
                );

                // ----------------------------------------------------------
                // Verification query: does the candidate match for all
                // inputs?  The candidate changes every round, so its
                // disequality rides along as a retractable assumption over
                // the shared spec encoding — UNSAT ("no distinguishing
                // input exists") verifies the candidate, and the next
                // round's candidate simply assumes a fresh disequality on
                // the same solver, reusing every shared subterm encoding
                // and all learnt clauses.
                // ----------------------------------------------------------
                let prog_out = template_result_term(&mut vtm, &candidate, spec, &vinputs);
                let differ = vtm.neq(spec_out, prog_out);
                match verifier.check_assuming(&mut vtm, &[differ]) {
                    SatResult::Unsat => break 'refine CegisOutcome::Program(candidate),
                    SatResult::Unknown => break 'refine CegisOutcome::ResourceOut,
                    SatResult::Sat => {
                        let cex_model = verifier.model(&vtm);
                        let cex: Vec<u64> = vinputs.iter().map(|&v| cex_model.value(v)).collect();
                        if examples.contains(&cex) {
                            // No progress (should not happen); avoid looping.
                            break 'refine CegisOutcome::ResourceOut;
                        }
                        examples.push(cex);
                    }
                }
            }
            CegisOutcome::ResourceOut
        };

        let mut accumulated = self.stats.get();
        accumulated.absorb(&solver.stats());
        accumulated.absorb(&verifier.stats());
        self.stats.set(accumulated);
        outcome
    }
}

/// Number of bits needed to address `total` locations.
fn location_bits(total: usize) -> u32 {
    let mut bits = 1;
    while (1usize << bits) < total + 1 {
        bits += 1;
    }
    bits
}

/// Initial example inputs, respecting the spec's input constraint.
fn seed_examples(spec: &Spec, width: u32) -> Vec<Vec<u64>> {
    let mask = sepe_smt::sort::mask(u64::MAX, width);
    let reg_patterns: [u64; 2] = [0x0000_0003 & mask, 0xdead_beef & mask];
    let imm_patterns: Vec<u64> = match spec.opcode.operand_kind() {
        OperandKind::RegShamt => vec![1, u64::from(width) - 1],
        OperandKind::Upper => vec![0x1000 & mask, 0x7f00_0000 & mask & !0xfff],
        _ => vec![1, mask], // 1 and -1
    };
    (0..2)
        .map(|i| {
            let mut example = Vec::new();
            for r in 0..spec.num_reg_inputs {
                example.push(reg_patterns[(i + r) % reg_patterns.len()]);
            }
            if spec.has_imm_input {
                example.push(imm_patterns[i % imm_patterns.len()]);
            }
            example
        })
        .collect()
}

/// Turns a satisfying synthesis model into an [`EquivTemplate`].
fn decode_program(
    spec: &Spec,
    multiset: &[&Component],
    outputs: &[u64],
    input_locs: &[Vec<u64>],
    attrs: &[Option<u64>],
    width: u32,
) -> EquivTemplate {
    let num_inputs = spec.num_inputs();
    let total = num_inputs + multiset.len();
    let imm_loc = spec.imm_input_index();

    // Does any component read the immediate input?  If so it must be
    // materialised into a temporary first.
    let reads_imm =
        imm_loc.is_some_and(|imm| input_locs.iter().flatten().any(|&l| l as usize == imm));

    let mut next_temp: u8 = 0;
    let mut location_slot: Vec<Slot> = Vec::with_capacity(total);
    for i in 0..num_inputs {
        if Some(i) == imm_loc {
            if reads_imm {
                location_slot.push(Slot::Temp(next_temp));
                next_temp += 1;
            } else {
                location_slot.push(Slot::Zero); // never read
            }
        } else if i == 0 {
            location_slot.push(Slot::Rs1);
        } else {
            location_slot.push(Slot::Rs2);
        }
    }
    for loc in num_inputs..total {
        if loc == total - 1 {
            location_slot.push(Slot::Dest);
        } else {
            location_slot.push(Slot::Temp(next_temp));
            next_temp += 1;
        }
    }

    let mut instrs: Vec<TemplateInstr> = Vec::new();
    if reads_imm {
        let imm_slot_loc = location_slot[imm_loc.expect("imm location")];
        let opcode = match spec.opcode.operand_kind() {
            OperandKind::Upper => Opcode::Lui,
            _ => Opcode::Addi,
        };
        instrs.push(TemplateInstr {
            opcode,
            dest: imm_slot_loc,
            src1: Slot::Zero,
            src2: Slot::Zero,
            imm: ImmSlot::FromOriginal,
        });
    }

    // Emit components in program order (by output location).
    let mut order: Vec<usize> = (0..multiset.len()).collect();
    order.sort_by_key(|&j| outputs[j]);
    let mut component_names = Vec::new();
    for j in order {
        let component = multiset[j];
        component_names.push(component.name.clone());
        let inputs: Vec<Slot> = input_locs[j]
            .iter()
            .map(|&l| location_slot[l as usize])
            .collect();
        let dest = location_slot[outputs[j] as usize];
        let attr =
            attrs[j].map(|raw| AttrResolution::Const(i64::from(component.attr_to_imm(raw, width))));
        instrs.extend(component.expand(&inputs, attr, dest, &mut next_temp));
    }

    EquivTemplate {
        for_opcode: spec.opcode,
        instrs,
        component_names,
    }
}

/// Builds the symbolic result of a template over the spec's symbolic inputs
/// (used by the verification query and by the EDSEP-V consistency tests).
pub fn template_result_term(
    tm: &mut TermManager,
    template: &EquivTemplate,
    spec: &Spec,
    spec_inputs: &[TermId],
) -> TermId {
    let width = spec.width;
    let imm_input = spec.imm_input_index().map(|i| spec_inputs[i]);
    let zero = tm.zero(width);
    let mut temps: FastMap<u8, TermId> = FastMap::default();
    let mut dest = zero;
    let read = |tm: &mut TermManager,
                temps: &FastMap<u8, TermId>,
                dest: TermId,
                slot: Slot,
                spec_inputs: &[TermId]| {
        match slot {
            Slot::Rs1 => spec_inputs[0],
            Slot::Rs2 => {
                if spec.num_reg_inputs >= 2 {
                    spec_inputs[1]
                } else {
                    tm.zero(width)
                }
            }
            Slot::Zero => tm.zero(width),
            Slot::Dest => dest,
            Slot::Temp(t) => temps.get(&t).copied().unwrap_or_else(|| tm.zero(width)),
        }
    };
    for instr in &template.instrs {
        let imm_term = match instr.imm {
            ImmSlot::FromOriginal => imm_input.expect("template uses the original immediate"),
            ImmSlot::Const(c) => match instr.opcode {
                Opcode::Lui => tm.bv_const(((c as u32) as u64) << 12, width),
                _ => sepe_isa::semantics::imm_term(tm, c, width),
            },
        };
        let a = read(tm, &temps, dest, instr.src1, spec_inputs);
        let b = read(tm, &temps, dest, instr.src2, spec_inputs);
        let value = match instr.opcode {
            Opcode::Lui => imm_term,
            op => match op.operand_kind() {
                OperandKind::RegReg => sepe_isa::semantics::alu_result(tm, op, a, b),
                OperandKind::RegImm | OperandKind::RegShamt => {
                    sepe_isa::semantics::alu_result(tm, op, a, imm_term)
                }
                _ => unreachable!("templates never contain memory instructions"),
            },
        };
        match instr.dest {
            Slot::Dest => dest = value,
            Slot::Temp(t) => {
                temps.insert(t, value);
            }
            other => unreachable!("templates never write {other:?}"),
        }
    }
    dest
}

/// Proves `program` equivalent to `spec` on every legal input
/// ([`Spec::input_constraint`]) through an independent validity query on a
/// fresh solver.
#[cfg(test)]
pub(crate) fn assert_equivalent(program: &EquivTemplate, spec: &Spec) {
    let mut tm = TermManager::new();
    let inputs = spec.fresh_inputs(&mut tm, "chk");
    let got = template_result_term(&mut tm, program, spec, &inputs);
    let want = spec.result(&mut tm, &inputs);
    let eq = tm.eq(got, want);
    let legal = spec.input_constraint(&mut tm, &inputs);
    let claim = tm.implies(legal, eq);
    assert_eq!(
        sepe_smt::solver::is_valid(&mut tm, claim, None),
        SatResult::Sat,
        "{}: {:?} is not equivalent",
        spec.name,
        program.component_names
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::program::listing1_sub_template;
    use sepe_smt::solver::is_valid;

    fn engine(width: u32) -> CegisEngine {
        CegisEngine::new(SynthesisConfig {
            width,
            ..SynthesisConfig::default()
        })
    }

    #[test]
    fn template_result_term_matches_listing1() {
        let mut tm = TermManager::new();
        let spec = Spec::for_opcode(Opcode::Sub, 16);
        let inputs = spec.fresh_inputs(&mut tm, "q");
        let prog = template_result_term(&mut tm, &listing1_sub_template(), &spec, &inputs);
        let sub = spec.result(&mut tm, &inputs);
        let eq = tm.eq(prog, sub);
        assert_eq!(is_valid(&mut tm, eq, None), SatResult::Sat);
    }

    #[test]
    fn synthesizes_sub_from_xori_add_xori() {
        // Force the Listing-1 multiset {XORI, ADD, XORI} in each of its
        // three slice orders; in the first the identical pair is not
        // adjacent, which the output order of identical components must
        // handle as well as the adjacent ones.
        let lib = Library::standard();
        let xori = lib.find("XORI").expect("XORI exists");
        let add = lib.find("ADD").expect("ADD exists");
        let spec = Spec::for_opcode(Opcode::Sub, 16);
        for multiset in [[xori, add, xori], [xori, xori, add], [add, xori, xori]] {
            let names: Vec<&str> = multiset.iter().map(|c| c.name.as_str()).collect();
            let program = match engine(16).synthesize_with_multiset(&spec, &multiset) {
                CegisOutcome::Program(p) => p,
                other => panic!("{names:?}: expected a program, got {other:?}"),
            };
            assert_eq!(program.for_opcode, Opcode::Sub);
            assert!(program.len() >= 3, "{names:?}");
            assert_equivalent(&program, &spec);
            // the synthesized program must hold at 32 bits as well (differential)
            assert_eq!(program.differential_check(0, 300, 42), 0, "{names:?}");
        }
    }

    #[test]
    fn synthesizes_from_commutative_components_only() {
        // OR = (a ^ b) ^ (a & b): every component is commutative and the
        // identical XORs are not adjacent, so both symmetry orders apply.
        let lib = Library::standard();
        let xor = lib.find("XOR").expect("XOR exists");
        let and = lib.find("AND").expect("AND exists");
        assert!(xor.is_commutative() && and.is_commutative());
        let spec = Spec::for_opcode(Opcode::Or, 8);
        let program = match engine(8).synthesize_with_multiset(&spec, &[xor, and, xor]) {
            CegisOutcome::Program(p) => p,
            other => panic!("expected a program, got {other:?}"),
        };
        assert_eq!(program.component_names.len(), 3);
        assert_equivalent(&program, &spec);
    }

    #[test]
    fn synthesizes_add_from_sub_components() {
        // The paper's motivating example: represent ADD with SUBs.
        let lib = Library::standard();
        let sub = lib.find("SUB").expect("SUB exists");
        let spec = Spec::for_opcode(Opcode::Add, 16);
        let outcome = engine(16).synthesize_with_multiset(&spec, &[sub, sub, sub]);
        let program = match outcome {
            CegisOutcome::Program(p) => p,
            other => panic!("expected a program, got {other:?}"),
        };
        assert_eq!(program.differential_check(0, 300, 7), 0);
    }

    #[test]
    fn rejects_impossible_multisets() {
        // AND/OR alone cannot implement ADD.
        let lib = Library::standard();
        let and = lib.find("AND").expect("AND exists");
        let or = lib.find("OR").expect("OR exists");
        let spec = Spec::for_opcode(Opcode::Add, 8);
        let outcome = engine(8).synthesize_with_multiset(&spec, &[and, or]);
        assert!(
            matches!(outcome, CegisOutcome::NoProgram),
            "got {outcome:?}"
        );
    }

    #[test]
    fn excludes_the_identity_program() {
        // A single ADD component for the ADD spec must not synthesize the
        // identity `add rd, rs1, rs2`; with only one component available the
        // query is unsatisfiable.  The same holds for every commutative
        // operation: its operand order admits only `op rd, rs1, rs2` (or
        // `op rd, rs1, rs1`), and the exclusion forbids each of them.
        let lib = Library::standard();
        for (name, opcode) in [
            ("ADD", Opcode::Add),
            ("XOR", Opcode::Xor),
            ("OR", Opcode::Or),
            ("AND", Opcode::And),
        ] {
            let component = lib.find(name).expect("component exists");
            assert!(component.is_commutative(), "{name}");
            let spec = Spec::for_opcode(opcode, 8);
            let outcome = engine(8).synthesize_with_multiset(&spec, &[component]);
            assert!(
                matches!(outcome, CegisOutcome::NoProgram),
                "{name}: got {outcome:?}"
            );
        }
    }

    #[test]
    fn synthesizes_an_immediate_spec_using_the_original_imm() {
        // XORI rd rs1 imm can be implemented by materialising the immediate
        // and applying the XOR component.
        let lib = Library::standard();
        let xor = lib.find("XOR").expect("XOR exists");
        let add = lib.find("ADD").expect("ADD exists");
        let spec = Spec::for_opcode(Opcode::Xori, 16);
        let outcome = engine(16).synthesize_with_multiset(&spec, &[xor, add]);
        let program = match outcome {
            CegisOutcome::Program(p) => p,
            other => panic!("expected a program, got {other:?}"),
        };
        assert!(program.uses_original_imm());
        for imm in [-1, 0, 1, 100, -2048, 2047] {
            assert_eq!(program.differential_check(imm, 100, 3), 0, "imm={imm}");
        }
    }

    #[test]
    fn location_bits_covers_the_range() {
        assert!(location_bits(2) >= 1);
        assert!((1usize << location_bits(5)) > 5);
        assert!((1usize << location_bits(8)) > 8);
        assert!((1usize << location_bits(33)) > 33);
    }
}
