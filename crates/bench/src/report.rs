//! The experiment rows' solver counters: how they are serialized and how
//! they are summarised for print.
//!
//! Rows carry the library's [`SolverReuseStats`] as a [`Counters`] field,
//! whose one `Serialize` impl is the list of counter names in every JSON
//! output (the `table1`/`fig4`/`fig3` rows and bench_smoke's mode entries).
//! [`SolverSummary`] renders the printed summary of a run from the same
//! records: the aggregated [`EncodeStats`](sepe_smt::EncodeStats) line, the
//! learnt-clause reuse line and the per-depth conflict table.

use std::fmt;

use sepe_smt::SolverReuseStats;
use serde::{Serialize, Value};

/// A row's solver counters, serialized as one flat object of `u64`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters(pub SolverReuseStats);

impl Serialize for Counters {
    fn to_value(&self) -> Value {
        let s = &self.0;
        let (rewrite, aig) = (&s.encode.rewrite, &s.encode.aig);
        let fields = [
            ("conflicts", s.conflicts),
            ("learnt_high_water", s.learnt_high_water),
            ("learnt_deleted", s.learnt_deleted),
            ("learnt_retained", s.learnt_retained),
            ("terms_cached", s.encode.terms_cached),
            ("terms_reused", s.encode.terms_reused),
            ("terms_rewritten", rewrite.terms_rewritten),
            ("rewrite_rules", rewrite.rule_applications),
            ("rewrite_pins", rewrite.pins),
            ("assertions_dropped", rewrite.assertions_dropped),
            ("coi_dropped", rewrite.coi_dropped_updates),
            ("aig_nodes", aig.nodes),
            ("aig_strash_hits", aig.strash_hits),
            ("aig_consts_folded", aig.consts_folded),
            ("aig_rewrites", aig.rewrites),
            ("cnf_vars", s.cnf_vars),
            ("cnf_clauses", s.cnf_clauses),
        ];
        Value::Object(
            fields
                .into_iter()
                .map(|(name, n)| (name.to_string(), Value::UInt(n)))
                .collect(),
        )
    }
}

/// One experiment row's contribution to the summary: its solver counters
/// and (for the BMC sweeps) per-depth conflict deltas.
#[derive(Debug, Clone, Default)]
pub struct SolverRow {
    /// Row label for the per-depth conflict table (bug or case name).
    pub label: String,
    /// The row's solver counters (summed into the aggregate lines).
    pub solver: SolverReuseStats,
    /// Per-depth SAT-conflict deltas (empty for non-BMC rows).
    pub depth_conflicts: Vec<u64>,
}

/// The rendered summary: construct with [`SolverSummary::new`] and print
/// with `{}`.
#[derive(Debug, Clone)]
pub struct SolverSummary {
    /// What the encoding line describes, e.g.
    /// `"SEPE-SQED incremental per-depth sweeps"`.
    encode_context: String,
    /// What the learnt clauses were retained across, e.g. `"depths"` or
    /// `"refinement rounds"`.
    reuse_context: String,
    rows: Vec<SolverRow>,
    /// Column width of the labels in the per-depth conflict table.
    label_width: usize,
}

impl SolverSummary {
    /// Builds a summary over the given rows.
    pub fn new(
        encode_context: impl Into<String>,
        reuse_context: impl Into<String>,
        rows: Vec<SolverRow>,
        label_width: usize,
    ) -> Self {
        SolverSummary {
            encode_context: encode_context.into(),
            reuse_context: reuse_context.into(),
            rows,
            label_width,
        }
    }
}

impl fmt::Display for SolverSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut total = SolverReuseStats::default();
        for r in &self.rows {
            total.absorb(&r.solver);
        }
        writeln!(f, "encoding ({}): {}", self.encode_context, total.encode)?;
        write!(
            f,
            "solver reuse: {} learnt clauses retained across {}",
            total.learnt_retained, self.reuse_context
        )?;
        if total.learnt_deleted > 0 || total.learnt_high_water > 0 {
            write!(
                f,
                ", {} deleted by reduction (live high-water {})",
                total.learnt_deleted, total.learnt_high_water
            )?;
        }
        if self.rows.iter().any(|r| !r.depth_conflicts.is_empty()) {
            write!(f, "\n\nper-depth SAT conflicts (one column per depth):")?;
            for r in &self.rows {
                let cols: Vec<String> = r.depth_conflicts.iter().map(|c| c.to_string()).collect();
                write!(
                    f,
                    "\n{:<width$} {}",
                    r.label,
                    cols.join(" "),
                    width = self.label_width
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders_reduction_and_depth_table_only_when_present() {
        let quiet = SolverSummary::new(
            "HPF incremental CEGIS",
            "refinement rounds",
            vec![SolverRow {
                label: "case1".into(),
                solver: SolverReuseStats {
                    learnt_retained: 7,
                    ..SolverReuseStats::default()
                },
                ..SolverRow::default()
            }],
            8,
        );
        let text = quiet.to_string();
        assert!(text.contains("encoding (HPF incremental CEGIS):"));
        assert!(text.contains("7 learnt clauses retained across refinement rounds"));
        assert!(!text.contains("deleted by reduction"));
        assert!(!text.contains("per-depth SAT conflicts"));

        let full = SolverSummary::new(
            "sweeps",
            "depths",
            vec![SolverRow {
                label: "bug-a".into(),
                solver: SolverReuseStats {
                    learnt_retained: 3,
                    learnt_deleted: 11,
                    learnt_high_water: 5,
                    ..SolverReuseStats::default()
                },
                depth_conflicts: vec![1, 2, 3],
            }],
            10,
        );
        let text = full.to_string();
        assert!(text.contains("11 deleted by reduction (live high-water 5)"));
        assert!(text.contains("per-depth SAT conflicts"));
        assert!(text.contains("bug-a"));
        assert!(text.contains("1 2 3"));
    }

    #[test]
    fn counters_serialize_each_field_under_its_own_name() {
        let mut s = SolverReuseStats {
            conflicts: 1,
            learnt_high_water: 2,
            learnt_deleted: 3,
            learnt_retained: 4,
            cnf_vars: 16,
            cnf_clauses: 17,
            ..SolverReuseStats::default()
        };
        s.encode.terms_cached = 5;
        s.encode.terms_reused = 6;
        s.encode.rewrite.terms_rewritten = 7;
        s.encode.rewrite.rule_applications = 8;
        s.encode.rewrite.pins = 9;
        s.encode.rewrite.assertions_dropped = 10;
        s.encode.rewrite.coi_dropped_updates = 11;
        s.encode.aig.nodes = 12;
        s.encode.aig.strash_hits = 13;
        s.encode.aig.consts_folded = 14;
        s.encode.aig.rewrites = 15;
        // The AIG's definition-only CNF counts must not leak into the
        // solver-total fields.
        s.encode.aig.cnf_vars = 99;
        s.encode.aig.cnf_clauses = 99;
        let value = Counters(s).to_value();
        let fields = value.as_object().expect("an object");
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "conflicts",
                "learnt_high_water",
                "learnt_deleted",
                "learnt_retained",
                "terms_cached",
                "terms_reused",
                "terms_rewritten",
                "rewrite_rules",
                "rewrite_pins",
                "assertions_dropped",
                "coi_dropped",
                "aig_nodes",
                "aig_strash_hits",
                "aig_consts_folded",
                "aig_rewrites",
                "cnf_vars",
                "cnf_clauses",
            ]
        );
        for (i, (name, n)) in fields.iter().enumerate() {
            assert_eq!(n.as_u64(), Some(i as u64 + 1), "{name}");
        }
    }
}
