//! Deterministic input generation: every predicate, window, statement and
//! ingest batch a run sends is a pure function of `--seed`.

use flashp_data::dimensions::{city_name, CHANNELS, DEVICES, GENDERS, OSES};
use flashp_data::{BatchStream, DatasetConfig, StreamConfig};
use flashp_storage::{CmpOp, Partition, Predicate, TimeSeriesTable, Timestamp, Value};

/// Table shape shared by every workload: ~5k rows per day over 180 days.
pub const ROWS_PER_DAY: usize = 5_000;
pub const DAYS: i64 = 180;
pub const START_DATE: i64 = 20200101;
/// Forecast horizon of every FORECAST the benchmark sends.
pub const HORIZON: i64 = 7;
/// Sampling rate of every sampled statement; the catalog holds this layer.
pub const SAMPLE_RATE: &str = "0.05";
/// Sample layers the catalog is built with.
pub const LAYER_RATES: [f64; 2] = [0.2, 0.05];
/// Measures of the generated `ads` table.
pub const MEASURES: [&str; 4] = ["Impression", "Click", "Favorite", "Cart"];

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// An independent stream derived from this one's seed and `salt`.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

pub fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig::new(ROWS_PER_DAY, DAYS as usize, seed)
}

/// `YYYYMMDD` of day `d` of the table's timeline (0 = first day).
pub fn date(d: i64) -> i64 {
    day_ts(d).to_yyyymmdd()
}

pub fn day_ts(d: i64) -> Timestamp {
    Timestamp::from_yyyymmdd(START_DATE).expect("valid start date") + d
}

/// One `column op literal` filter.
#[derive(Clone, Debug, PartialEq)]
pub struct Filter {
    pub column: &'static str,
    pub op: CmpOp,
    pub value: Value,
}

/// A conjunction of 1-3 dimension filters.
#[derive(Clone, Debug, PartialEq)]
pub struct Pred(pub Vec<Filter>);

impl Pred {
    pub fn sql(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|f| {
                let v = match &f.value {
                    Value::Str(s) => format!("'{s}'"),
                    Value::Int(i) => i.to_string(),
                    Value::Float(x) => format!("{x:?}"),
                };
                format!("{} {} {}", f.column, f.op.symbol(), v)
            })
            .collect();
        parts.join(" AND ")
    }

    pub fn predicate(&self) -> Predicate {
        let mut it = self.0.iter().map(|f| Predicate::cmp(f.column, f.op, f.value.clone()));
        let first = it.next().expect("a predicate has at least one filter");
        it.fold(first, Predicate::and)
    }
}

/// Filter families. Correlated columns share a family (device/os,
/// city/tier, interest/intent) so no conjunction is empty by construction.
fn filter(rng: &mut Rng, family: usize) -> Filter {
    let str_eq = |column, v: &str| Filter { column, op: CmpOp::Eq, value: Value::from(v) };
    let int = |column, op, v: i64| Filter { column, op, value: Value::Int(v) };
    match family {
        0 => {
            let op = if rng.below(2) == 0 { CmpOp::Le } else { CmpOp::Ge };
            int("age", op, rng.range(25, 55))
        }
        1 => str_eq("gender", GENDERS[rng.below(2)]),
        2 => match rng.below(2) {
            0 => str_eq("device", DEVICES[rng.below(2)]),
            _ => str_eq("os", OSES[rng.below(2)]),
        },
        3 => match rng.below(2) {
            0 => str_eq("city", &city_name(rng.below(4))),
            _ => int("tier", CmpOp::Le, rng.range(1, 3)),
        },
        4 => int("interest", CmpOp::Le, rng.range(8, 28)),
        5 => int("membership", CmpOp::Ge, rng.range(1, 3)),
        6 => str_eq("channel", CHANNELS[rng.below(CHANNELS.len())]),
        _ => int("daypart", CmpOp::Le, rng.range(2, 5)),
    }
}

/// Draw a predicate of 1-3 filters over distinct families that keeps at
/// least `min_sel` of the table's first day, so sampled answers stay
/// defined.
pub fn random_pred(rng: &mut Rng, table: &TimeSeriesTable, min_sel: f64) -> Pred {
    let first = table.partitions().next().expect("table has a partition").1;
    loop {
        let n = 1 + rng.below(3);
        let mut families: Vec<usize> = Vec::new();
        while families.len() < n {
            let f = rng.below(8);
            if !families.contains(&f) {
                families.push(f);
            }
        }
        let pred = Pred(families.into_iter().map(|f| filter(rng, f)).collect());
        let compiled = table.compile_predicate(&pred.predicate()).expect("generated filters bind");
        let hits = flashp_storage::reference::evaluate_scalar(&compiled, first).count_ones();
        if hits as f64 >= min_sel * first.num_rows() as f64 {
            return pred;
        }
    }
}

/// A window `[start, end]` of day indices, `min_len..=max_len` days long,
/// ending no later than day `last`.
pub fn random_window(rng: &mut Rng, min_len: i64, max_len: i64, last: i64) -> (i64, i64) {
    let len = rng.range(min_len, max_len);
    let end = rng.range(len - 1, last);
    (end - len + 1, end)
}

/// `n` windows with lengths spread evenly over `min_len..=max_len` and
/// random ends no later than day `last`, so every seed sees the same
/// mix of window lengths.
pub fn stratified_windows(
    rng: &mut Rng,
    n: usize,
    min_len: i64,
    max_len: i64,
    last: i64,
) -> Vec<(i64, i64)> {
    (0..n)
        .map(|k| {
            let len = min_len + (max_len - min_len) * k as i64 / (n as i64 - 1).max(1);
            random_window(rng, len, len, last)
        })
        .collect()
}

/// What one generated statement asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `SELECT … GROUP BY t` answered by a full scan.
    Exact,
    /// `SELECT … GROUP BY t` answered from the sample catalog.
    Sampled,
    /// `FORECAST` with the given model over sampled aggregation.
    Forecast(&'static str),
}

/// A fully bound statement: kind, predicate, measure and window.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub kind: Kind,
    pub pred: usize,
    pub measure: usize,
    pub start: i64,
    pub end: i64,
}

impl Stmt {
    /// The literal statement text.
    pub fn sql(&self, preds: &[Pred]) -> String {
        let m = MEASURES[self.measure];
        let p = preds[self.pred].sql();
        let (a, b) = (date(self.start), date(self.end));
        match self.kind {
            Kind::Exact => format!(
                "SELECT SUM({m}) FROM ads WHERE {p} AND t BETWEEN {a} AND {b} GROUP BY t \
                 OPTION (SAMPLE_RATE = 1.0)"
            ),
            Kind::Sampled => format!(
                "SELECT SUM({m}) FROM ads WHERE {p} AND t BETWEEN {a} AND {b} GROUP BY t \
                 OPTION (SAMPLE_RATE = {SAMPLE_RATE})"
            ),
            Kind::Forecast(model) => format!(
                "FORECAST SUM({m}) FROM ads WHERE {p} USING ({a}, {b}) \
                 OPTION (MODEL = '{model}', FORE_PERIOD = {HORIZON}, SAMPLE_RATE = {SAMPLE_RATE})"
            ),
        }
    }

    /// Number of days the answer covers (rows of a SELECT, training
    /// points of a FORECAST): every day of the table has a partition.
    pub fn days(&self) -> usize {
        (self.end - self.start + 1) as usize
    }
}

/// The rows of one ingest batch: late rows for one of the last 28
/// existing days, in turn, plus rows for a new day, which opens every
/// tenth batch. Spreading the late rows keeps each day's growth, and so
/// the cost of a publish, nearly level along the schedule.
pub struct Batch {
    pub parts: Vec<(Timestamp, Partition)>,
}

pub const BATCH_EXISTING_ROWS: usize = 400;
pub const BATCH_NEW_ROWS: usize = 100;

pub fn batch(seed: u64, i: usize) -> Batch {
    let cfg = dataset_config(seed);
    let day_rows = |day: usize, rows: usize, salt: u64| {
        let stream_seed = Rng::new(seed).fork(0xBA7C_0000 + salt).next_u64();
        let b = BatchStream::starting_at_day(&cfg, StreamConfig::new(rows, stream_seed), day)
            .next()
            .expect("batch streams are unbounded");
        (b.t, b.partition)
    };
    let days = DAYS as usize;
    Batch {
        parts: vec![
            day_rows(days - 1 - i % 28, BATCH_EXISTING_ROWS, 2 * i as u64),
            day_rows(days + i / 10, BATCH_NEW_ROWS, 2 * i as u64 + 1),
        ],
    }
}

impl Batch {
    /// The batch as an in-process ingest batch, dimension values decoded
    /// through `table`'s dictionaries.
    pub fn ingest_batch(&self, table: &TimeSeriesTable) -> flashp_core::IngestBatch {
        let dicts = table.dictionaries();
        let mut b = flashp_core::IngestBatch::new();
        let mut dims: Vec<Value> = Vec::new();
        let mut measures: Vec<f64> = Vec::new();
        for (t, p) in &self.parts {
            for row in 0..p.num_rows() {
                dims.clear();
                dims.extend(
                    p.dims().iter().zip(dicts).map(|(c, d)| c.display_value(row, d.as_ref())),
                );
                measures.clear();
                measures.extend(p.measures().iter().map(|m| m[row]));
                b.push_row(*t, &dims, &measures);
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table(seed: u64) -> TimeSeriesTable {
        flashp_data::generate_dataset(&DatasetConfig::new(400, 20, seed)).unwrap().table
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        let table = small_table(3);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let preds: Vec<String> =
                (0..20).map(|_| random_pred(&mut rng, &table, 0.03).sql()).collect();
            let windows: Vec<(i64, i64)> =
                (0..20).map(|_| random_window(&mut rng, 5, 15, 19)).collect();
            (preds, windows)
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let rows = |seed| batch(seed, 3).parts[0].1.measure(0).to_vec();
        assert_eq!(rows(1), rows(1));
        assert_ne!(rows(1), rows(2));
    }

    #[test]
    fn windows_stay_inside_bounds() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            let (a, b) = random_window(&mut rng, 28, 120, DAYS - 1 - HORIZON);
            assert!(a >= 0 && b <= DAYS - 1 - HORIZON && (28..=120).contains(&(b - a + 1)));
        }
    }
}
