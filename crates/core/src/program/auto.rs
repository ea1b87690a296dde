//! The auto-scheduler: which concrete schedule each statement runs under.
//!
//! | Step | When | Decides from |
//! |------|------|--------------|
//! | Static choice | a statement has no schedule yet | the driver's row-block nnz imbalance vs [`STATIC_IMBALANCE`] |
//! | Warm-up feedback | once, after iteration 0 — whichever verb ran it | the compiled plan's modeled imbalance vs [`SWITCH_IMBALANCE`], the executor's measured skew vs [`SWITCH_TASK_SKEW`] |
//! | Drift re-selection | before every pass | the *mutated* driver's imbalance vs [`SWITCH_IMBALANCE`], only while streamed deltas are tracked |
//!
//! ## Ownership
//!
//! - Owns `ProgramStmt::{chosen, tuned}`, the three thresholds, and every
//!   [`AutoDecision`] (report and trace).
//! - Does NOT compile: a (re)selection only changes the statement's
//!   schedule text, hence its plan-cache key; `exec` looks the plan up.
//! - Does NOT drop retained state on a re-selection: the new key fails
//!   `exec`'s eligibility check by itself.
//! - Explicit and canned [`ScheduleSpec`]s are resolved here but never
//!   re-selected.
//! - Never moves SpAdd3 off outer-dim, at any step: it assembles each row
//!   in the one color that owns it, which a non-zero split breaks
//!   (`codegen` refuses the plan). The decision says so.

use spdistal_ir::{Assignment, ParallelUnit, Schedule};

use super::{CompiledProgram, ScheduleSpec};
use crate::api::{schedule_nonzero, schedule_outer_dim};
use crate::codegen;
use crate::dist_tensor::{Context, Error, Initial};
use crate::kernels::{self, LeafKernel};

/// Static auto-scheduling threshold: if the driver's equal outer-dimension
/// blocks carry nnz imbalance above this, [`ScheduleSpec::Auto`] picks the
/// non-zero distribution before ever running.
pub const STATIC_IMBALANCE: f64 = 2.0;

/// Warm-up feedback threshold on the *compiled* outer-dimension plan's
/// modeled partition imbalance: above it, auto re-selects to non-zero.
pub const SWITCH_IMBALANCE: f64 = 1.5;

/// Warm-up feedback threshold on the executor's *measured* task skew
/// (critical color over balanced share); combined with observed steals it
/// re-selects to non-zero even when the modeled imbalance looked mild.
pub const SWITCH_TASK_SKEW: f64 = 1.75;

/// One auto-scheduler (re)selection, surfaced by
/// [`CompiledProgram::report`].
#[derive(Clone, Debug)]
pub struct AutoDecision {
    /// Statement index within the program.
    pub stmt: usize,
    /// Iteration the decision was taken at (0 = before the first run;
    /// later iterations are warm-up feedback re-selections).
    pub iteration: usize,
    /// The distribution picked: `"outer-dim"` or `"non-zero"`.
    pub choice: &'static str,
    /// Why, in human-readable terms (thresholds and measured values).
    pub reason: String,
}

impl std::fmt::Display for AutoDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stmt {} iter {}: {} ({})",
            self.stmt, self.iteration, self.choice, self.reason
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ChosenKind {
    OuterDim,
    Nonzero,
    Explicit,
}

impl ChosenKind {
    pub(super) fn label(self) -> &'static str {
        match self {
            ChosenKind::OuterDim => "outer-dim",
            ChosenKind::Nonzero => "non-zero",
            ChosenKind::Explicit => "explicit",
        }
    }
}

/// A statement's currently selected concrete schedule.
pub(super) struct Chosen {
    pub(super) kind: ChosenKind,
    pub(super) schedule: Schedule,
}

impl Chosen {
    /// Figure 1's row/slice distribution.
    pub(super) fn outer_dim(
        ctx: &mut Context,
        stmt: &Assignment,
        pieces: usize,
        unit: ParallelUnit,
    ) -> Chosen {
        Chosen {
            kind: ChosenKind::OuterDim,
            schedule: schedule_outer_dim(ctx, stmt, pieces, unit),
        }
    }

    /// Section II-D's non-zero distribution over `driver`. The default
    /// split depth of 2 covers matrix non-zeros and 3-tensor tubes (the
    /// evaluation's static load-balancing splits).
    fn nonzero(
        ctx: &mut Context,
        stmt: &Assignment,
        driver: &str,
        depth: Option<usize>,
        pieces: usize,
        unit: ParallelUnit,
    ) -> Result<Chosen, Error> {
        let depth =
            depth.unwrap_or_else(|| ctx.tensor(driver).map_or(2, |t| t.data.order().min(2)));
        Ok(Chosen {
            kind: ChosenKind::Nonzero,
            schedule: schedule_nonzero(ctx, stmt, driver, depth, pieces, unit)?,
        })
    }
}

impl CompiledProgram {
    /// Record an auto-scheduler decision for statement `k`, taken at the
    /// current iteration, in the report *and* on the trace.
    pub(super) fn push_decision(&mut self, k: usize, choice: &'static str, reason: String) {
        let iteration = self.report.iterations;
        self.ctx
            .trace()
            .auto_decision(k as u32, iteration as u32, choice, &reason);
        self.report.decisions.push(AutoDecision {
            stmt: k,
            iteration,
            choice,
            reason,
        });
    }

    /// Assign statement `k`'s selection. Its plan key is rebuilt at the next
    /// lookup, and its slice of [`ProgramReport::stmts`](super::ProgramReport)
    /// is refreshed here — the one place a selection changes.
    pub(super) fn select(&mut self, k: usize, chosen: Chosen) {
        let ps = &mut self.stmts[k];
        (ps.chosen, ps.key) = (Some(chosen), None);
        self.report.stmts[k] = ps.report();
    }

    /// The first sparse tensor on the statement's right-hand side — the
    /// operand that drives iteration and decides skew.
    pub(super) fn sparse_driver(&self, stmt: &Assignment) -> Option<String> {
        let sparse = |name: &str| {
            self.ctx
                .tensor(name)
                .is_ok_and(|t| kernels::is_sparse(&t.data))
        };
        let accesses = stmt.rhs.accesses();
        let driver = accesses.iter().find(|a| sparse(&a.tensor))?;
        Some(driver.tensor.clone())
    }

    /// nnz imbalance of equal outer-dimension blocks of `name` — the
    /// static statistic behind the auto-scheduler's first pick.
    fn outer_block_imbalance(&self, name: &str, pieces: usize) -> Result<f64, Error> {
        let part = self
            .ctx
            .tensor(name)?
            .partition(0, Initial::Universe, pieces);
        Ok(part.vals().imbalance())
    }

    pub(super) fn default_pieces(&self) -> usize {
        self.ctx.machine().dim(0)
    }

    /// The non-zero distribution over `driver` an `Auto` statement may move
    /// to, or why there is none: never for SpAdd3 (see the module docs).
    fn auto_nonzero(&mut self, stmt: &Assignment, driver: &str) -> Result<Chosen, Error> {
        if matches!(codegen::leaf(&self.ctx, stmt), Ok(LeafKernel::SpAdd3)) {
            return Err(Error::Unsupported(
                "SpAdd3 assembles whole rows per color, and a non-zero split cuts them".into(),
            ));
        }
        let (pieces, unit) = (self.default_pieces(), ParallelUnit::CpuThread);
        Chosen::nonzero(&mut self.ctx, stmt, driver, None, pieces, unit)
    }

    /// Build the concrete schedule for every statement that does not have
    /// one yet (first run, or after a feedback re-selection cleared it).
    pub(super) fn ensure_schedules(&mut self) -> Result<(), Error> {
        let default = self.default_pieces();
        for k in 0..self.stmts.len() {
            if self.stmts[k].chosen.is_some() {
                continue;
            }
            let stmt = self.stmts[k].stmt.clone();
            let chosen = match self.stmts[k].spec.clone() {
                ScheduleSpec::Explicit(schedule) => Chosen {
                    kind: ChosenKind::Explicit,
                    schedule,
                },
                ScheduleSpec::OuterDim { pieces, unit } => {
                    Chosen::outer_dim(&mut self.ctx, &stmt, pieces.unwrap_or(default), unit)
                }
                ScheduleSpec::Nonzero {
                    driver,
                    depth,
                    pieces,
                    unit,
                } => {
                    let driver = driver.or_else(|| self.sparse_driver(&stmt));
                    let driver = driver.ok_or_else(|| {
                        let msg = format!("no sparse driver for non-zero schedule of '{stmt}'");
                        Error::Unsupported(msg)
                    })?;
                    let pieces = pieces.unwrap_or(default);
                    Chosen::nonzero(&mut self.ctx, &stmt, &driver, depth, pieces, unit)?
                }
                ScheduleSpec::Auto => self.auto_initial(k, &stmt, default)?,
            };
            self.select(k, chosen);
        }
        Ok(())
    }

    /// The auto-scheduler's static pick for statement `k`: non-zero when
    /// the driver's block statistics already show severe skew, Figure 1's
    /// outer-dimension distribution otherwise.
    fn auto_initial(
        &mut self,
        k: usize,
        stmt: &Assignment,
        pieces: usize,
    ) -> Result<Chosen, Error> {
        let unit = ParallelUnit::CpuThread;
        let (nonzero, reason) = match self.sparse_driver(stmt) {
            None => (None, "no sparse driver on the right-hand side".to_string()),
            Some(driver) => {
                let imbalance = self.outer_block_imbalance(&driver, pieces)?;
                let stat = format!("{driver} row-block nnz imbalance {imbalance:.2}x");
                if imbalance <= STATIC_IMBALANCE {
                    (None, format!("{stat} <= {STATIC_IMBALANCE:.2}x"))
                } else {
                    let stat = format!("{stat} > {STATIC_IMBALANCE:.2}x");
                    match self.auto_nonzero(stmt, &driver) {
                        Ok(chosen) => (Some(chosen), stat),
                        Err(e) => (None, format!("{stat}; non-zero schedule unavailable ({e})")),
                    }
                }
            }
        };
        let chosen =
            nonzero.unwrap_or_else(|| Chosen::outer_dim(&mut self.ctx, stmt, pieces, unit));
        self.push_decision(k, chosen.kind.label(), reason);
        Ok(chosen)
    }

    /// Whether statement `k` is an `Auto` statement still on the
    /// outer-dimension schedule — the only kind feedback may re-select.
    fn auto_on_outer_dim(&self, k: usize) -> bool {
        let ps = &self.stmts[k];
        let kind = ps.chosen.as_ref().map(|c| c.kind);
        matches!(ps.spec, ScheduleSpec::Auto) && kind == Some(ChosenKind::OuterDim)
    }

    /// Re-select statement `k` onto the non-zero distribution over
    /// `driver` for `reason` (staying on outer-dim, with the reason logged,
    /// when that schedule cannot be built). Either way the statement has
    /// had its feedback.
    fn reselect_nonzero(&mut self, k: usize, driver: &str, reason: String) {
        let stmt = self.stmts[k].stmt.clone();
        match self.auto_nonzero(&stmt, driver) {
            Ok(chosen) => {
                self.select(k, chosen);
                self.push_decision(k, "non-zero", reason);
            }
            Err(e) => {
                let reason = format!("{reason}; non-zero schedule unavailable ({e})");
                self.push_decision(k, "outer-dim", reason);
            }
        }
        self.stmts[k].tuned = true;
    }

    /// The executor-feedback half of the auto-tuning loop: after the
    /// warm-up iteration, re-examine every `Auto` statement still on the
    /// outer-dimension schedule and switch it to the non-zero distribution
    /// if the compiled plan's modeled imbalance or the executor's measured
    /// skew/steal counters say one color gated the launch.
    pub(super) fn warmup_feedback(&mut self) {
        for k in 0..self.stmts.len() {
            if self.stmts[k].tuned || !self.auto_on_outer_dim(k) {
                continue;
            }
            self.stmts[k].tuned = true;
            let plan = self.cache.peek(&self.cache_key(k).key);
            let plan_imbalance = plan.map_or(1.0, |p| p.inputs[0].part.vals().imbalance());
            let sched = self.last_results[k].as_ref().map(|r| &r.sched);
            let (task_skew, steals) = sched.map_or((1.0, 0), |s| (s.task_skew(), s.steals));
            let reason = if plan_imbalance > SWITCH_IMBALANCE {
                format!(
                    "warm-up: modeled partition imbalance {plan_imbalance:.2}x > \
                     {SWITCH_IMBALANCE:.2}x"
                )
            } else if task_skew > SWITCH_TASK_SKEW && steals > 0 {
                format!(
                    "warm-up: measured task skew {task_skew:.2}x > {SWITCH_TASK_SKEW:.2}x \
                     with {steals} steals"
                )
            } else {
                continue;
            };
            if let Some(driver) = self.sparse_driver(&self.stmts[k].stmt) {
                self.reselect_nonzero(k, &driver, reason);
            }
        }
    }

    /// The drift half of the auto-tuning loop: accumulated streamed deltas
    /// can skew a driver that was balanced when the outer-dimension
    /// schedule was picked. Re-examine every `Auto` statement still on
    /// outer-dim whose driver carries tracked *structural* deltas — only an
    /// insert or a delete moves the row-block nnz measured here, and
    /// measuring it partitions the whole driver — and re-select the
    /// non-zero distribution when the *current* imbalance crosses
    /// [`SWITCH_IMBALANCE`].
    pub(super) fn drift_reselect(&mut self) -> Result<(), Error> {
        let pieces = self.default_pieces();
        for k in 0..self.stmts.len() {
            if !self.auto_on_outer_dim(k) {
                continue;
            }
            let Some(driver) = self.sparse_driver(&self.stmts[k].stmt) else {
                continue;
            };
            let deltas = match self.ctx.dirty_state(&driver) {
                Some(d) if d.structural => d.deltas_applied,
                _ => continue,
            };
            let imbalance = self.outer_block_imbalance(&driver, pieces)?;
            if imbalance > SWITCH_IMBALANCE {
                let reason = format!(
                    "drift: {driver} row-block nnz imbalance {imbalance:.2}x > \
                     {SWITCH_IMBALANCE:.2}x after {deltas} streamed delta(s)"
                );
                self.reselect_nonzero(k, &driver, reason);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::{spmv_program, PIECES};
    use super::*;
    use crate::level_funcs::outer_dim_partition;
    use spdistal_sparse::{generate, reference, SpTensor};

    #[test]
    fn auto_stays_outer_dim_on_balanced_input() {
        let b = generate::banded(128, 7, 9);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(2).unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "outer-dim");
        assert!(report.decisions_for(0).all(|d| d.choice == "outer-dim"));
    }

    #[test]
    fn auto_picks_nonzero_on_heavily_clustered_input() {
        // Hub rows clustered at low indices: the blocked row distribution
        // hands color 0 most of the non-zeros, visible statically.
        let b = generate::rmat_clustered(9, 6000, 0.95, 7);
        let c = generate::dense_vec(b.dims()[1], 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run().unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        let first = report.decisions_for(0).next().unwrap();
        assert_eq!(first.choice, "non-zero");
        assert!(first.reason.contains("imbalance"));
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    #[test]
    fn auto_switches_after_warmup_on_moderately_skewed_input() {
        // Moderate clustering: mild enough that the static statistic keeps
        // the outer-dim pick, skewed enough that the warm-up plan's modeled
        // partition imbalance crosses the switch threshold.
        let b = find_moderate_skew();
        let c = generate::dense_vec(b.dims()[1], 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(3).unwrap();
        let report = p.report();
        let choices: Vec<&str> = report.decisions_for(0).map(|d| d.choice).collect();
        assert_eq!(
            choices,
            vec!["outer-dim", "non-zero"],
            "auto must start outer-dim and switch after the warm-up run: {:#?}",
            report.decisions
        );
        assert!(report.decisions[1].reason.starts_with("warm-up"));
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        // Two compiles (one per selection), the rest cache hits.
        assert_eq!(report.compiles, 2);
        assert_eq!(report.cache_hits, 1);
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    #[test]
    fn warmup_feedback_follows_whichever_verb_ran_iteration_zero() {
        // Same input, same expectations as the test above — but iteration 0
        // is `run_incremental()` (a full pass: nothing is retained yet).
        let mut p = spmv_program(find_moderate_skew(), ScheduleSpec::Auto)
            .build()
            .unwrap();
        p.run_incremental().unwrap();
        assert!(p.last_incremental(0).unwrap().fallback);
        p.run().unwrap();
        let report = p.report();
        let choices: Vec<&str> = report.decisions_for(0).map(|d| d.choice).collect();
        assert_eq!(
            choices,
            vec!["outer-dim", "non-zero"],
            "{:#?}",
            report.decisions
        );
        assert!(report.decisions[1].reason.starts_with("warm-up"));
        assert_eq!(report.decisions[1].iteration, 1);
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        assert_eq!(report.compiles, 2);
    }

    /// A clustered R-MAT whose equal row-block nnz imbalance lands between
    /// [`SWITCH_IMBALANCE`] and [`STATIC_IMBALANCE`] (asserted, so the
    /// warm-up-switch test cannot silently test the wrong regime).
    pub(in crate::program) fn find_moderate_skew() -> SpTensor {
        for alpha in [0.45, 0.5, 0.55, 0.6, 0.65, 0.7] {
            let b = generate::rmat_clustered(9, 6000, alpha, 11);
            let imbalance = outer_dim_partition(&b, PIECES).vals().imbalance();
            if imbalance > SWITCH_IMBALANCE && imbalance <= STATIC_IMBALANCE {
                return b;
            }
        }
        panic!("no alpha produced a moderately skewed input");
    }

    #[test]
    fn drift_reselects_nonzero_after_streamed_skew() {
        use crate::streaming::CoordDelta;
        // Balanced band: auto stays outer-dim through warm-up.
        let b = generate::banded(128, 7, 9);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(2).unwrap();
        assert_eq!(p.report().stmts[0].schedule_kind, "outer-dim");
        // Stream inserts concentrated in the first row block until its nnz
        // share crosses the switch threshold.
        let mut deltas = Vec::new();
        for i in 0..32 {
            for j in 64..72 {
                deltas.push(CoordDelta::insert(vec![i, j], 0.5));
            }
        }
        p.update_batch("B", &deltas).unwrap();
        p.run_incremental().unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        let drift = report
            .decisions_for(0)
            .find(|d| d.reason.starts_with("drift"))
            .expect("a drift re-selection must be recorded");
        assert_eq!(drift.choice, "non-zero");
        // Correct under the re-selected schedule.
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let c = generate::dense_vec(128, 5);
        let expect = reference::spmv(&b2, &c);
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    #[test]
    fn value_only_deltas_never_measure_drift() {
        use crate::streaming::CoordDelta;
        let mut p = spmv_program(generate::banded(128, 7, 9), ScheduleSpec::Auto)
            .build()
            .unwrap();
        p.run_iters(2).unwrap();
        // The driver turns skewed behind the tuner's back (an untracked
        // replacement), so a drift measurement, were one taken, would
        // re-select — the witness that a value-only batch takes none.
        let skewed = generate::rmat_clustered(7, 3000, 0.95, 11);
        let first = skewed.to_coo().swap_remove(0).0;
        p.context_mut().replace_tensor_data("B", skewed).unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(first.clone(), 2.0)])
            .unwrap();
        p.run_incremental().unwrap();
        assert!(p
            .report()
            .decisions_for(0)
            .all(|d| !d.reason.starts_with("drift")));
        assert_eq!(p.report().stmts[0].schedule_kind, "outer-dim");
        // The same state with one structural delta does measure, and moves.
        p.update_batch("B", &[CoordDelta::delete(first)]).unwrap();
        p.run_incremental().unwrap();
        assert!(p
            .report()
            .decisions_for(0)
            .any(|d| d.reason.starts_with("drift")));
        assert_eq!(p.report().stmts[0].schedule_kind, "non-zero");
    }
}
