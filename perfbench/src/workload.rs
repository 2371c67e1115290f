//! The workloads: their statements, as a pure function of the seed.

use crate::gen::{date, MEASURES, SAMPLE_RATE};
use crate::gen::{
    random_pred, random_window, stratified_windows, Kind, Pred, Rng, Stmt, DAYS, HORIZON,
};
use flashp_core::Literal;
use flashp_storage::TimeSeriesTable;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Name {
    IngestPublish,
    ForecastArima,
}

impl Name {
    pub const ALL: [Name; 2] = [Name::IngestPublish, Name::ForecastArima];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::IngestPublish => "ingest_publish",
            Name::ForecastArima => "forecast_arima",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// One statement a client sends: the bound statement it stands for, its
/// literal text, and the prepared handle and arguments that execute it.
#[derive(Clone, Debug)]
pub struct Call {
    pub stmt: Stmt,
    pub sql: String,
    pub handle: usize,
    pub args: Vec<i64>,
}

impl Call {
    /// The request line a wire client sends.
    pub fn line(&self) -> String {
        let args: Vec<String> = self.args.iter().map(i64::to_string).collect();
        format!("EXECUTE h{} ({})", self.handle, args.join(", "))
    }

    pub fn params(&self) -> Vec<Literal> {
        self.args.iter().map(|v| Literal::Int(*v)).collect()
    }
}

pub struct Workload {
    pub name: Name,
    pub seed: u64,
    /// Predicates statements refer to by index.
    pub preds: Vec<Pred>,
    /// Prepared statement texts, handle `h{i}` = `templates[i]`.
    pub templates: Vec<String>,
    windows: Vec<(i64, i64)>,
    measures: Vec<usize>,
}

/// Closed-loop readers every workload runs: one, so a run measures the
/// program rather than how the host schedules several threads.
pub const READERS: usize = 1;
/// Window-length ranges in days.
const ARIMA_LEN: (i64, i64) = (31, 150);
/// `USING LAST n DAYS` lengths; ar(7) needs at least 16 points.
const INGEST_LAST_DAYS: [i64; 3] = [21, 28, 56];
/// Prepared FORECAST handles (and as many SELECT handles) on `ingest_publish`.
const INGEST_HANDLES: usize = 4;
/// Prepared handles on `forecast_arima`, each with its own predicate and
/// window, the window lengths spread evenly over `ARIMA_LEN`; one round
/// runs each once. A round's fit cost averages over this many predicates
/// and windows, so fewer would let the seed move it more; more would
/// leave fewer repeats of each statement in a run.
const ARIMA_HANDLES: usize = 64;
/// Gate statements: exact SELECTs over the workload's own predicates, and
/// sampled SELECTs and FORECASTs over the accuracy predicates.
const GATE_EXACT: usize = 16;
const GATE_SAMPLED: usize = 192;
/// Predicates kept when drawing: at least 5% of a day's rows.
const MIN_SELECTIVITY: f64 = 0.05;

fn forecast_sql(measure: usize, pred: &str, using: &str, model: &str) -> String {
    format!(
        "FORECAST SUM({}) FROM ads WHERE {pred} USING {using} \
         OPTION (MODEL = '{model}', FORE_PERIOD = {HORIZON}, SAMPLE_RATE = {SAMPLE_RATE})",
        MEASURES[measure]
    )
}

fn select_sql(measure: usize, pred: &str, time: &str) -> String {
    format!(
        "SELECT SUM({}) FROM ads WHERE {pred} AND {time} GROUP BY t OPTION (SAMPLE_RATE = {SAMPLE_RATE})",
        MEASURES[measure]
    )
}

/// Substitute `?` placeholders left to right.
fn bind(template: &str, args: &[i64]) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut args = args.iter();
    for c in template.chars() {
        if c == '?' {
            out.push_str(&args.next().expect("one argument per placeholder").to_string());
        } else {
            out.push(c);
        }
    }
    out
}

/// Handle `k` aggregates measure `k % 4`, so every seed sees each measure
/// equally often.
fn balanced_measures(handles: usize) -> Vec<usize> {
    (0..handles).map(|k| k % MEASURES.len()).collect()
}

impl Workload {
    pub fn new(name: Name, seed: u64, table: &TimeSeriesTable) -> Self {
        let mut rng = Rng::new(seed).fork(0x57A7);
        let pred = |rng: &mut Rng| random_pred(rng, table, MIN_SELECTIVITY);
        let last_fit = DAYS - 1 - HORIZON;
        let mut w = Workload {
            name,
            seed,
            preds: Vec::new(),
            templates: Vec::new(),
            windows: Vec::new(),
            measures: Vec::new(),
        };
        match name {
            Name::IngestPublish => {
                // Handles 0..4 are FORECASTs over preds 0..4, handles 4..8
                // SELECTs over preds 4..8.
                w.preds = (0..2 * INGEST_HANDLES).map(|_| pred(&mut rng)).collect();
                w.measures = balanced_measures(2 * INGEST_HANDLES);
                w.templates = (0..2 * INGEST_HANDLES)
                    .map(|k| match k < INGEST_HANDLES {
                        true => {
                            forecast_sql(w.measures[k], &w.preds[k].sql(), "LAST ? DAYS", "ar(7)")
                        }
                        false => select_sql(w.measures[k], &w.preds[k].sql(), "t BETWEEN ? AND ?"),
                    })
                    .collect();
            }
            Name::ForecastArima => {
                w.preds = (0..ARIMA_HANDLES).map(|_| pred(&mut rng)).collect();
                w.measures = balanced_measures(ARIMA_HANDLES);
                w.windows =
                    stratified_windows(&mut rng, ARIMA_HANDLES, ARIMA_LEN.0, ARIMA_LEN.1, last_fit);
                w.templates = (0..ARIMA_HANDLES)
                    .map(|k| forecast_sql(w.measures[k], &w.preds[k].sql(), "(?, ?)", "arima"))
                    .collect();
            }
        }
        w
    }

    fn prepared(&self, handle: usize, args: Vec<i64>, stmt: Stmt) -> Call {
        Call { sql: bind(&self.templates[handle], &args), stmt, handle, args }
    }

    /// Statements in the round a reader repeats until the deadline, if it
    /// repeats one: `forecast_arima` runs each of its [`ARIMA_HANDLES`]
    /// statements ~13 times in a 40-second run and keeps each one's
    /// fastest (see [`crate::run::Tally::read_metrics`]). `ingest_publish`
    /// is summarised over time slices instead.
    pub fn round(&self) -> Option<usize> {
        match self.name {
            Name::IngestPublish => None,
            Name::ForecastArima => Some(ARIMA_HANDLES),
        }
    }

    /// The `i`-th statement of a reader's stream. Pure in (seed, i).
    pub fn call(&self, i: u64) -> Call {
        let i = i as usize;
        match self.name {
            Name::IngestPublish => {
                // Two FORECASTs per SELECT, so the median statement is a
                // FORECAST rather than one on the edge between the two
                // kinds' latencies. Windows are stated against the initial
                // table; under concurrent ingest a FORECAST's slides with
                // the newest day, a SELECT's stays put.
                let (j, r) = (i / 3, i % 3);
                let n = INGEST_LAST_DAYS[(j / INGEST_HANDLES) % INGEST_LAST_DAYS.len()];
                let (start, end) = (DAYS - n, DAYS - 1);
                if r < 2 {
                    let k = (2 * j + r) % INGEST_HANDLES;
                    let stmt = Stmt {
                        kind: Kind::Forecast("ar(7)"),
                        pred: k,
                        measure: self.measures[k],
                        start,
                        end,
                    };
                    self.prepared(k, vec![n], stmt)
                } else {
                    let k = INGEST_HANDLES + j % INGEST_HANDLES;
                    let stmt = Stmt {
                        kind: Kind::Sampled,
                        pred: k,
                        measure: self.measures[k],
                        start,
                        end,
                    };
                    self.prepared(k, vec![date(start), date(end)], stmt)
                }
            }
            Name::ForecastArima => {
                // The round: every handle once, on its own window.
                let k = i % ARIMA_HANDLES;
                let (start, end) = self.windows[k];
                let stmt = Stmt {
                    kind: Kind::Forecast("arima"),
                    pred: k,
                    measure: self.measures[k],
                    start,
                    end,
                };
                self.prepared(k, vec![date(start), date(end)], stmt)
            }
        }
    }

    /// Statements the correctness gate runs before timing. `preds` are the
    /// workload's own followed by `accuracy_preds` more: exact SELECTs over
    /// the workload's predicates, then sampled SELECTs and FORECASTs over
    /// the accuracy predicates, the FORECASTs with the workload's models
    /// and window lengths and a horizon inside the table, so the actual
    /// values exist.
    pub fn gate_stmts(&self, accuracy_preds: usize) -> Vec<Stmt> {
        let mut rng = Rng::new(self.seed).fork(0x6A7E);
        let own = self.preds.len();
        let last_fit = DAYS - 1 - HORIZON;
        let mut out = Vec::new();
        for _ in 0..GATE_EXACT {
            let (start, end) = random_window(&mut rng, 14, 60, DAYS - 1);
            out.push(Stmt {
                kind: Kind::Exact,
                pred: rng.below(own),
                measure: rng.below(4),
                start,
                end,
            });
        }
        for k in 0..GATE_SAMPLED {
            let (start, end) = random_window(&mut rng, 14, 60, DAYS - 1);
            out.push(Stmt {
                kind: Kind::Sampled,
                pred: own + k % accuracy_preds,
                measure: rng.below(4),
                start,
                end,
            });
        }
        let (models, forecasts): (&[&'static str], usize) = match self.name {
            Name::IngestPublish => (&["ar(7)"], 1440),
            Name::ForecastArima => (&["arima"], 240),
        };
        for k in 0..forecasts {
            let (start, end) = match self.name {
                Name::IngestPublish => {
                    let n = INGEST_LAST_DAYS[k % INGEST_LAST_DAYS.len()];
                    random_window(&mut rng, n, n, last_fit)
                }
                Name::ForecastArima => random_window(&mut rng, ARIMA_LEN.0, ARIMA_LEN.1, last_fit),
            };
            let kind = Kind::Forecast(models[k % models.len()]);
            out.push(Stmt {
                kind,
                pred: own + k % accuracy_preds,
                measure: rng.below(4),
                start,
                end,
            });
        }
        out
    }

    /// The workload's predicates followed by `n` more drawn the same way,
    /// which the accuracy scores average over.
    pub fn with_accuracy_preds(&self, table: &TimeSeriesTable, n: usize) -> Vec<Pred> {
        let mut rng = Rng::new(self.seed).fork(0xACC0);
        let mut preds = self.preds.clone();
        preds.extend((0..n).map(|_| random_pred(&mut rng, table, MIN_SELECTIVITY)));
        preds
    }

    /// Distinct (predicate, measure, day) day-partial cache keys the timed
    /// statements can touch, against the cache's 65,536 entries.
    pub fn working_set(&self) -> usize {
        match self.name {
            Name::IngestPublish => {
                2 * INGEST_HANDLES * *INGEST_LAST_DAYS.iter().max().expect("non-empty") as usize
            }
            Name::ForecastArima => self.windows.iter().map(|(a, b)| (b - a + 1) as usize).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generated_statement_parses_and_plans() {
        let table = crate::sys::generate(5).0;
        let (backend, _, _) = crate::sys::build(&table, crate::sys::Shape::Single, 5);
        let engine = crate::sys::single(&backend);
        for name in Name::ALL {
            let w = Workload::new(name, 5, &table);
            for t in &w.templates {
                engine.prepare(t).unwrap_or_else(|e| panic!("{t}: {e}"));
            }
            let preds = w.with_accuracy_preds(&table, 8);
            let mut sqls: Vec<String> = (0..200).map(|i| w.call(i).sql).collect();
            sqls.extend(w.gate_stmts(8).iter().map(|s| s.sql(&preds)));
            for sql in sqls {
                let stmt = flashp_core::parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                engine.plan(&stmt).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
        }
    }
}
