//! End-to-end and per-layer benchmark of the FlashP workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the system up from `--seed`, runs the correctness gate,
//! measures the workload for `--seconds`, and prints one JSON object as
//! its last line: the `end_to_end` metrics of BENCHMARK.json, or with
//! `--trace 1` the `per_layer` ones. A line before it carries the run's
//! metadata. A failed gate exits with code 1.

mod alloc;
mod check;
mod gen;
mod layers;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod workload;

use stats::median;
use std::collections::BTreeMap;
use workload::{Name, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Entries the engine's day-partial cache holds.
const PARTIAL_CACHE_CAPACITY: usize = 65_536;

pub struct Args {
    pub workload: Name,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Name::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A finished run: the gate verdict, counts, metrics and metadata.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric of a measured series; a series with no sample (every
    /// statement of its kind failed) fails the run instead.
    pub fn series_metric(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) => self.metric(name, v),
            None => {
                self.correct = false;
                self.note("empty_series", name);
            }
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }
}

/// Metadata every run reports.
fn common_meta(
    out: &mut Outcome,
    args: &Args,
    w: &Workload,
    table: &flashp_storage::TimeSeriesTable,
) {
    out.note("workload", args.workload.as_str());
    out.note("seed", args.seed);
    out.note("nproc", stats::nproc());
    out.note("git_revision", stats::git_revision());
    out.note("kernel_tier", flashp_storage::simd::active_tier().name());
    out.note("table_rows", table.num_rows());
    out.note("table_days", table.num_partitions());
    out.note("cache_working_set_entries", w.working_set());
    out.note("cache_capacity_entries", PARTIAL_CACHE_CAPACITY);
}

fn end_to_end(args: &Args, spec: &spec::Spec) -> Outcome {
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        drop(sys.take());
        let s = sys::setup(args.seed);
        setups.push(s.setup_s());
        sys = Some(s);
    }
    let sys = sys.expect("at least one set-up");
    let w = Workload::new(args.workload, args.seed, &sys.table);
    let mut out = Outcome::default();
    common_meta(&mut out, args, &w, &sys.table);
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note("setups_s", each.join(" "));

    let (mut scores, digest) = run::gate(&w, &sys);
    out.note("answer_digest", digest.hex());
    let mut server = sys::serve(&sys.backend);
    // Statements whose wire bytes the gate compares with in-process
    // answers; each auto-ARIMA one costs two ~60 ms fits.
    let wire_n = match args.workload {
        Name::IngestPublish => 64,
        Name::ForecastArima => 4,
    };
    let (checked, bad, first) = run::wire_gate(&w, server.local_addr(), &sys.backend, wire_n);
    out.note("wire_gate_busy_rejections", server.shutdown().busy_rejections);
    scores.checked += checked;
    scores.mismatches += bad;
    if let Some(m) = first {
        out.note("wire_gate_first_mismatch", m);
    }
    out.note("gate_checked", scores.checked);
    if let Some(m) = &scores.first_mismatch {
        out.note("gate_first_mismatch", m);
    }

    let (tally, elapsed) = run::readers(&w, &sys, args.seconds, 0);

    out.attempted = scores.checked + tally.attempted;
    out.failed = scores.mismatches + tally.failed;
    out.correct = scores.mismatches == 0 && tally.incorrect == 0;
    if let Some(n) = w.round() {
        out.note("round_statements", n);
        out.note("rounds", format!("{:.2}", tally.attempted as f64 / n as f64));
    }
    out.note("timed_reads", tally.reads.values.len());
    if !tally.reads.values.is_empty() {
        out.note("latency_deciles_us", stats::deciles(&tally.reads.values, 0));
    }
    // Freshness is reported here, not as a metric: see perfbench/README.md.
    if !tally.fresh.values.is_empty() {
        out.note("publishes", tally.fresh.values.len());
        out.note("freshness_deciles_ms", stats::deciles(&tally.fresh.values, 2));
        out.note("writer_max_late_ms", format!("{:.3}", tally.writer_late_ms));
    }
    if let Some(e) = &tally.first_error {
        out.note("first_error", e);
    }

    let limit = spec.limit_us(args.workload.as_str());
    out.note("goodput_limit_us", limit);
    out.metric("setup_s", median(&setups));
    let reads = tally.read_metrics(w.round().is_some(), elapsed, limit);
    out.series_metric("latency_p50_us", reads.p50_us);
    out.series_metric("latency_p95_us", reads.p95_us);
    out.series_metric("throughput_stmt_s", reads.throughput);
    out.series_metric("goodput_stmt_s", reads.goodput);
    out.metric("ok_frac", (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64);
    if !scores.rel_errs.is_empty() {
        out.metric("agg_rel_err", median(&scores.rel_errs));
    }
    if !scores.mapes.is_empty() {
        out.metric("forecast_mape", median(&scores.mapes));
        out.metric("interval_score", median(&scores.interval_scores));
        out.note("interval_coverage", format!("{:.4}", scores.coverage()));
        out.note("coverage_gap", format!("{:.4}", (scores.coverage() - scores.nominal).abs()));
        out.note("interval_nominal", scores.nominal);
    }
    out.metric("peak_rss_mb", stats::peak_rss_mb());
    out.metric("space_ratio", sys.space_ratio());
    out
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::from(s)).expect("strings encode")
}

/// The metadata line and the result line, which carries exactly the
/// metrics the spec lists for this mode, in spec order. A failed run
/// leaves out the metrics it has no value for.
fn render(out: &Outcome, spec: &spec::Spec, traced: bool) -> Result<(String, String), String> {
    let meta: Vec<String> =
        out.meta.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let meta = format!("{{\"meta\":{{{}}}}}", meta.join(","));
    let specs = spec.metrics(traced);
    let listed: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
    let computed: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
    if let Some(extra) = computed.iter().find(|n| !listed.contains(n)) {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }
    let mut metrics = Vec::new();
    for m in &specs {
        let v = match out.metrics.get(&m.name) {
            Some(v) => v,
            None if !out.correct => continue,
            None => return Err(format!("no value for metric {}", m.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        metrics.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(&m.name),
            json_str(&m.unit)
        ));
    }
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    Ok((meta, result))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let spec = spec::Spec::load();
    let out = if args.trace { layers::traced_run(&args) } else { end_to_end(&args, &spec) };
    match render(&out, &spec, args.trace) {
        Ok((meta, result)) => println!("{meta}\n{result}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    }
    if !out.correct {
        eprintln!("correctness gate failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let spec = spec::Spec::load();
        for trace in [false, true] {
            let args = Args { workload: Name::IngestPublish, seed: 3, seconds: 0.3, trace };
            let out = if trace { layers::traced_run(&args) } else { end_to_end(&args, &spec) };
            let (_, result) = render(&out, &spec, trace).expect("every listed metric has a value");
            let parsed = serde_json::from_str(&result).expect("the result line is JSON");
            let printed: Vec<&String> = parsed
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k)
                .collect();
            let listed: Vec<String> = spec.metrics(trace).into_iter().map(|m| m.name).collect();
            assert_eq!(printed, listed.iter().collect::<Vec<_>>());
            assert!(out.correct);
        }
    }

    #[test]
    fn a_run_without_a_successful_read_fails_with_its_counts() {
        let spec = spec::Spec::load();
        let mut out = Outcome { correct: true, attempted: 5, failed: 5, ..Default::default() };
        out.series_metric(
            "latency_p50_us",
            run::Tally::default().read_metrics(false, 1.0, 1.0).p50_us,
        );
        assert!(!out.correct);
        let (_, result) = render(&out, &spec, false).expect("a failed run still renders");
        assert!(result.starts_with(r#"{"correct":false,"attempted":5,"failed":5,"#), "{result}");
    }
}
