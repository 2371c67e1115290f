//! The correctness gate and the accuracy scores.
//!
//! Exact answers are recomputed with the storage crate's scalar reference
//! kernels and must match bit for bit. Sampled answers are scored against
//! the exact values.

use crate::gen::{day_ts, Kind, Pred, Stmt, HORIZON};
use flashp_core::ExecOutput;
use flashp_storage::reference::{aggregate_masked_scalar, evaluate_scalar};
use flashp_storage::{AggFunc, CompiledPredicate, TimeSeriesTable};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub struct Reference {
    table: Arc<TimeSeriesTable>,
    preds: Vec<CompiledPredicate>,
    /// Exact per-measure sums by (predicate, day): one scalar mask serves
    /// every measure.
    sums: Mutex<HashMap<(usize, i64), Vec<f64>>>,
}

impl Reference {
    pub fn new(table: Arc<TimeSeriesTable>, preds: &[Pred]) -> Self {
        let preds = preds
            .iter()
            .map(|p| table.compile_predicate(&p.predicate()).expect("generated predicates bind"))
            .collect();
        Reference { table, preds, sums: Mutex::default() }
    }

    /// Exact SUM of `measure` under predicate `pred` on day `d`.
    pub fn day(&self, pred: usize, measure: usize, d: i64) -> f64 {
        let mut sums = self.sums.lock().expect("reference cache poisoned");
        sums.entry((pred, d)).or_insert_with(|| {
            let part = self.table.partition(day_ts(d)).expect("every day has a partition");
            let mask = evaluate_scalar(&self.preds[pred], part);
            (0..part.measures().len())
                .map(|m| aggregate_masked_scalar(part, m, &mask).finalize(AggFunc::Sum))
                .collect()
        })[measure]
    }
}

/// Whether an answer has the shape its statement asks for.
pub fn shape_ok(out: &ExecOutput, stmt: &Stmt) -> bool {
    match (out, stmt.kind) {
        (ExecOutput::Select(s), Kind::Exact | Kind::Sampled) => {
            s.approximate == (stmt.kind == Kind::Sampled)
                && s.rows.len() == stmt.days()
                && s.rows.iter().all(|r| r.1.is_finite())
        }
        (ExecOutput::Forecast(f), Kind::Forecast(_)) => {
            f.estimates.len() == stmt.days()
                && f.forecasts.len() == HORIZON as usize
                && f.forecasts
                    .iter()
                    .all(|p| p.value.is_finite() && p.lo <= p.value && p.value <= p.hi)
        }
        _ => false,
    }
}

/// The interval score of a central `(1 - alpha)` interval (Gneiting and
/// Raftery, 2007): its width plus `2 / alpha` times how far the actual
/// value falls outside it. Lower is better; it rewards narrow intervals
/// only while they keep covering.
pub fn interval_score(lo: f64, hi: f64, actual: f64, alpha: f64) -> f64 {
    (hi - lo) + 2.0 / alpha * ((lo - actual).max(0.0) + (actual - hi).max(0.0))
}

/// What the gate saw: mismatches plus the raw material of the accuracy
/// metrics.
#[derive(Default)]
pub struct Scores {
    pub checked: u64,
    pub mismatches: u64,
    pub rel_errs: Vec<f64>,
    pub mapes: Vec<f64>,
    /// Per forecast: mean interval score over the horizon, relative to the
    /// actual values.
    pub interval_scores: Vec<f64>,
    pub covered: u64,
    pub points: u64,
    pub nominal: f64,
    pub first_mismatch: Option<String>,
}

impl Scores {
    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    /// Check one in-process answer and score it.
    pub fn score(&mut self, out: &ExecOutput, stmt: &Stmt, sql: &str, r: &Reference) {
        self.checked += 1;
        if !shape_ok(out, stmt) {
            return self.fail(format!("wrong shape: {sql}"));
        }
        let rel = |est: f64, exact: f64| ((est - exact) / exact).abs();
        match out {
            ExecOutput::Select(s) if stmt.kind == Kind::Exact => {
                for (k, row) in s.rows.iter().enumerate() {
                    let d = stmt.start + k as i64;
                    let want = r.day(stmt.pred, stmt.measure, d);
                    if row.0 != day_ts(d) || row.1.to_bits() != want.to_bits() {
                        return self.fail(format!(
                            "exact mismatch on day {d}: {} vs {want}: {sql}",
                            row.1
                        ));
                    }
                }
            }
            ExecOutput::Select(s) => {
                for (k, row) in s.rows.iter().enumerate() {
                    let exact = r.day(stmt.pred, stmt.measure, stmt.start + k as i64);
                    if exact > 0.0 {
                        self.rel_errs.push(rel(row.1, exact));
                    }
                }
            }
            ExecOutput::Forecast(f) => {
                for (k, p) in f.estimates.iter().enumerate() {
                    let exact = r.day(stmt.pred, stmt.measure, stmt.start + k as i64);
                    if exact > 0.0 {
                        self.rel_errs.push(rel(p.value, exact));
                    }
                }
                if stmt.end + HORIZON < crate::gen::DAYS {
                    self.nominal = f.confidence;
                    let alpha = 1.0 - f.confidence;
                    let (mut apes, mut scores) = (Vec::new(), Vec::new());
                    for (h, p) in f.forecasts.iter().enumerate() {
                        let actual = r.day(stmt.pred, stmt.measure, stmt.end + 1 + h as i64);
                        if actual > 0.0 {
                            apes.push(rel(p.value, actual));
                            scores.push(interval_score(p.lo, p.hi, actual, alpha) / actual);
                        }
                        self.points += 1;
                        self.covered += u64::from(p.lo <= actual && actual <= p.hi);
                    }
                    if !apes.is_empty() {
                        self.mapes.push(crate::stats::mean(&apes));
                        self.interval_scores.push(crate::stats::mean(&scores));
                    }
                }
            }
            ExecOutput::Plan(_) => self.fail(format!("unexpected plan: {sql}")),
        }
    }

    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.points.max(1) as f64
    }
}
