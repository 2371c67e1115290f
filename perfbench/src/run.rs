//! The gates and the measured phases: closed-loop readers, the open-loop
//! writer, and their tallies.

use crate::check::{shape_ok, Reference, Scores};
use crate::gen::batch;
use crate::stats::{timed, us, Digest};
use crate::sys::System;
use crate::trace::{derive_children, span};
use crate::workload::{Call, Name, Workload, READERS};
use flashp_core::{EngineError, ExecOutput, IngestBatch, PublishStats};
use flashp_server::harness::{is_ok, Client};
use flashp_server::protocol::encode_output;
use flashp_server::{Backend, PreparedHandle};
use flashp_storage::TimeSeriesTable;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Threads the gate runs on: one per core of the 2-core reference host.
const CLIENTS: usize = 2;
/// Predicates the accuracy scores average over, beyond the workload's own.
pub const ACCURACY_PREDS: usize = 256;

/// Samples of a measured phase, each with when it completed, s after the
/// phase started.
#[derive(Default)]
pub struct Series {
    pub values: Vec<f64>,
    pub done_s: Vec<f64>,
}

impl Series {
    fn push(&mut self, value: f64, start: Instant) {
        self.values.push(value);
        self.done_s.push(start.elapsed().as_secs_f64());
    }

    fn extend(&mut self, o: Series) {
        self.values.extend(o.values);
        self.done_s.extend(o.done_s);
    }

    /// `stat(samples, slice_seconds)` over the samples completed in each
    /// [`SLICE_S`]-long slice of `elapsed` seconds, and of those the value
    /// at [`BEST_SLICE_Q`] from the good end (`lower_is_better` picks which
    /// end). `None` when no slice has a value.
    pub fn best_slice(
        &self,
        elapsed: f64,
        lower_is_better: bool,
        stat: impl Fn(&[f64], f64) -> f64,
    ) -> Option<f64> {
        let slices = ((elapsed / SLICE_S).round() as usize).max(1);
        let width = elapsed / slices as f64;
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for (v, d) in self.values.iter().zip(&self.done_s) {
            parts[((d / width) as usize).min(slices - 1)].push(*v);
        }
        let stats: Vec<f64> =
            parts.iter().filter(|p| !p.is_empty()).map(|p| stat(p, width)).collect();
        let q = if lower_is_better { BEST_SLICE_Q } else { 1.0 - BEST_SLICE_Q };
        (!stats.is_empty()).then(|| crate::stats::quantile(&stats, q))
    }
}

/// Length of the slices a phase without a round is cut into, s: on
/// `ingest_publish` a slice holds ~25k reads and 5 publishes.
pub const SLICE_S: f64 = 0.25;
/// Share of slices at least as good as the reported one. The reference
/// host moves between a fast state and states up to ~1.5x slower, each
/// lasting seconds; a slice is slowed by it or not, so a low quantile of
/// the slices measures the program in the fast state, while a median
/// would flip between the states from run to run. Each slice holds
/// thousands of reads, so its own quantiles barely vary within a state.
pub const BEST_SLICE_Q: f64 = 0.02;

/// What one measured phase saw.
#[derive(Default)]
pub struct Tally {
    /// Latency of every successful read, µs.
    pub reads: Series,
    /// Freshness of every publish, ms from when its batch was due.
    pub fresh: Series,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that were wrong, not merely refused.
    pub incorrect: u64,
    /// Largest delay of a batch's send past its due time, ms.
    pub writer_late_ms: f64,
    pub first_error: Option<String>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.reads.extend(o.reads);
        self.fresh.extend(o.fresh);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.incorrect += o.incorrect;
        self.writer_late_ms = self.writer_late_ms.max(o.writer_late_ms);
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }

    fn fail(&mut self, incorrect: bool, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.incorrect += u64::from(incorrect);
        if self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }

    /// A phase without a round is summarised over its slices, by the slice
    /// at [`BEST_SLICE_Q`]. A phase that repeated a round holds each
    /// statement's fastest run (host interference only ever slows a run
    /// down), and its rates count statements per second of that busy time.
    pub fn read_metrics(&self, round: bool, elapsed: f64, limit_us: f64) -> ReadMetrics {
        let r = &self.reads;
        let quantile = |q: f64| move |p: &[f64], _: f64| crate::stats::quantile(p, q);
        let good = |p: &[f64]| p.iter().filter(|x| **x <= limit_us).count() as f64;
        if !round {
            return ReadMetrics {
                p50_us: r.best_slice(elapsed, true, quantile(0.5)),
                p95_us: r.best_slice(elapsed, true, quantile(0.95)),
                throughput: r.best_slice(elapsed, false, |p, w| p.len() as f64 / w),
                goodput: r.best_slice(elapsed, false, |p, w| good(p) / w),
            };
        }
        if r.values.is_empty() {
            return ReadMetrics { p50_us: None, p95_us: None, throughput: None, goodput: None };
        }
        let busy_s = r.values.iter().sum::<f64>() / 1e6;
        ReadMetrics {
            p50_us: Some(crate::stats::quantile(&r.values, 0.5)),
            p95_us: Some(crate::stats::quantile(&r.values, 0.95)),
            throughput: Some(r.values.len() as f64 / busy_s),
            goodput: Some(good(&r.values) / busy_s),
        }
    }
}

/// The read metrics of a measured phase: p50 and p95 latency in µs, and
/// throughput and goodput (reads within `limit_us`) in statements per
/// second; `None` where no read succeeded.
pub struct ReadMetrics {
    pub p50_us: Option<f64>,
    pub p95_us: Option<f64>,
    pub throughput: Option<f64>,
    pub goodput: Option<f64>,
}

pub fn prepare_all(w: &Workload, backend: &Backend) -> Vec<PreparedHandle> {
    w.templates.iter().map(|t| backend.prepare(t).expect("workload templates prepare")).collect()
}

/// Execute a call in process through its prepared handle.
pub fn execute(handles: &[PreparedHandle], call: &Call) -> Result<ExecOutput, EngineError> {
    handles[call.handle].execute_with(&call.params())
}

/// Attach the program's own aggregation / fit split of a FORECAST below
/// the span of the call that just returned; every timed FORECAST
/// aggregates from samples.
pub fn derive_timing(out: &Result<ExecOutput, EngineError>) {
    if let Ok(ExecOutput::Forecast(f)) = out {
        derive_children(&[
            ("sampling.estimate", f.timing.aggregation),
            ("forecast.fit", f.timing.forecasting),
        ]);
    }
}

/// Run the gate statements in process on the system under test, check
/// and score every answer, and digest the answers in statement order.
pub fn gate(w: &Workload, sys: &System) -> (Scores, Digest) {
    let preds = w.with_accuracy_preds(&sys.table, ACCURACY_PREDS);
    let reference = Reference::new(sys.table.clone(), &preds);
    let stmts = w.gate_stmts(ACCURACY_PREDS);
    let sqls: Vec<String> = stmts.iter().map(|s| s.sql(&preds)).collect();
    let outs: Vec<Result<ExecOutput, EngineError>> = std::thread::scope(|scope| {
        let parts: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (sqls, backend) = (&sqls, &sys.backend);
                scope.spawn(move || {
                    (c..sqls.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, backend.execute(&sqls[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> =
            parts.into_iter().flat_map(|h| h.join().expect("gate thread")).collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, o)| o).collect()
    });
    let mut scores = Scores::default();
    let mut digest = Digest::default();
    for ((stmt, sql), out) in stmts.iter().zip(&sqls).zip(&outs) {
        match out {
            Ok(o) => {
                digest.add(encode_output(o).as_bytes());
                scores.score(o, stmt, sql, &reference);
            }
            Err(e) => {
                digest.add(e.to_string().as_bytes());
                scores.checked += 1;
                scores.mismatches += 1;
                scores.first_mismatch.get_or_insert(format!("{e}: {sql}"));
            }
        }
    }
    (scores, digest)
}

/// Before timing, with no writer running: the first `n` statements of the
/// workload over the wire must answer with exactly the bytes
/// `protocol::encode_output` gives for the in-process answer at the same
/// version. Returns (checked, mismatches, first mismatch).
pub fn wire_gate(
    w: &Workload,
    addr: SocketAddr,
    backend: &Backend,
    n: u64,
) -> (u64, u64, Option<String>) {
    let mut c = Client::connect(addr).expect("gate connects");
    for (h, sql) in w.templates.iter().enumerate() {
        let r = c.roundtrip(&format!("PREPARE h{h} AS {sql}")).expect("prepare roundtrip");
        assert!(is_ok(&r), "PREPARE failed: {r}");
    }
    let handles = prepare_all(w, backend);
    let (mut mismatches, mut first) = (0, None);
    for i in 0..n {
        let call = w.call(i);
        let wire = c.roundtrip(&call.line()).expect("gate roundtrip");
        let local = execute(&handles, &call).map(|o| encode_output(&o));
        if local.as_ref().ok() != Some(&wire) {
            mismatches += 1;
            first.get_or_insert_with(|| format!("{} -> {wire}", call.line()));
        }
    }
    let _ = c.roundtrip("CLOSE");
    (n, mismatches, first)
}

/// When a measured phase runs, and where in each reader's statement
/// stream it starts, so consecutive phases never repeat statements.
#[derive(Clone, Copy)]
struct Phase {
    start: Instant,
    deadline: Instant,
    first: u64,
}

/// A closed-loop reader: client `client`'s statements through prepared
/// handles, one after another until the deadline, each timed and checked
/// for the shape its statement asks for. A workload without a round keeps
/// every latency; one that repeats a round keeps each statement's fastest
/// latency, leaving out statements that failed in any round.
fn reader(w: &Workload, backend: &Backend, client: usize, phase: Phase) -> Tally {
    let Phase { start, deadline, first } = phase;
    let handles = prepare_all(w, backend);
    let mut t = Tally::default();
    let n = w.round().unwrap_or(0);
    let (mut best, mut broken) = (vec![f64::INFINITY; n], vec![false; n]);
    let mut i = first;
    while Instant::now() < deadline {
        let req = ((client as u64) << 40) | i;
        span("bench.request", req, || {
            let call = w.call(i);
            let t0 = Instant::now();
            let out = span("core.execute_with", req, || execute(&handles, &call));
            let lat = us(t0.elapsed());
            derive_timing(&out);
            t.attempted += 1;
            let ok = match &out {
                Ok(o) if shape_ok(o, &call.stmt) => true,
                Ok(_) => {
                    t.fail(true, || format!("wrong shape: {}", call.sql));
                    false
                }
                Err(e) => {
                    t.fail(false, || format!("{e}: {}", call.sql));
                    false
                }
            };
            match (n, ok) {
                (0, true) => t.reads.push(lat, start),
                (0, false) => {}
                (_, true) => best[i as usize % n] = best[i as usize % n].min(lat),
                (_, false) => broken[i as usize % n] = true,
            }
        });
        i += 1;
    }
    for (b, _) in best.into_iter().zip(broken).filter(|(b, x)| b.is_finite() && !x) {
        t.reads.push(b, start);
    }
    t
}

/// What the writer saw: its tally, and per published batch the ingest
/// time in µs and the publish's own stats.
pub struct Writes {
    pub tally: Tally,
    pub ingest_us: Vec<f64>,
    pub publishes: Vec<PublishStats>,
}

/// The batches `0..n` of the write schedule, built before a writer
/// starts so building them costs its schedule nothing.
pub fn batches(table: &TimeSeriesTable, seed: u64, n: usize) -> Vec<IngestBatch> {
    (0..n).map(|i| batch(seed, i).ingest_batch(table)).collect()
}

/// The open-loop writer: batch `i` is due at `i * period` after the start
/// and is ingested and published then however long earlier publishes
/// took; freshness runs from the due time until `publish` returns. Stops
/// when the batches run out or at `deadline`.
pub fn writer(
    backend: &Backend,
    batches: Vec<IngestBatch>,
    period: Duration,
    deadline: Option<Instant>,
) -> Writes {
    let (mut t, mut ingest_us, mut publishes) = (Tally::default(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, b) in batches.into_iter().enumerate() {
        let due = start + period * i as u32;
        if deadline.is_some_and(|d| due >= d) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        t.writer_late_ms = t.writer_late_ms.max(us(Instant::now() - due) / 1e3);
        let req = (9u64 << 40) | i as u64;
        t.attempted += 2;
        let done = span("bench.write", req, || {
            let (r, us) = timed(|| span("core.ingest", req, || backend.ingest(b)));
            r.map_err(|e| format!("ingest: {e}"))?;
            ingest_us.push(us);
            let stats = span("core.publish", req, || backend.publish())
                .map_err(|e| format!("publish: {e}"))?;
            publishes.push(stats);
            Ok::<_, String>(())
        });
        match done {
            Ok(()) => t.fresh.push(us(Instant::now() - due) / 1e3, start),
            Err(e) => {
                // The batch's ingest and publish both count as failed.
                t.fail(false, || e.clone());
                t.failed += 1;
            }
        }
    }
    Writes { tally: t, ingest_us, publishes }
}

/// `ingest_publish`'s writer: one 500-row batch every 50 ms, 800 in a
/// 40-second run.
pub const INGEST_PERIOD: Duration = Duration::from_millis(50);

/// The measured phase: the workload's closed-loop readers (and, for
/// `ingest_publish`, its open-loop writer) for `seconds`, each reader
/// starting at statement `first` of its stream.
pub fn readers(w: &Workload, sys: &System, seconds: f64, first: u64) -> (Tally, f64) {
    let batches = (w.name == Name::IngestPublish).then(|| {
        let n = (seconds * 1e3 / INGEST_PERIOD.as_millis() as f64).ceil() as usize;
        batches(&sys.table, w.seed, n)
    });
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let phase = Phase { start, deadline, first };
    let mut total = Tally::default();
    let backend = &sys.backend;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..READERS {
            handles.push(scope.spawn(move || traced(|| reader(w, backend, client, phase))));
        }
        if let Some(batches) = batches {
            handles.push(scope.spawn(move || {
                traced(|| writer(backend, batches, INGEST_PERIOD, Some(deadline)).tally)
            }));
        }
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

/// Run `f` and hand the thread's spans to the collector.
fn traced<R>(f: impl FnOnce() -> R) -> R {
    let r = f();
    crate::trace::flush_thread();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64], done_s: &[f64]) -> Series {
        Series { values: values.to_vec(), done_s: done_s.to_vec() }
    }

    #[test]
    fn slices_report_the_fast_end() {
        // 40 slices of 0.25 s: 37 slow ones, then 3 fast ones.
        let mut values = Vec::new();
        let mut done = Vec::new();
        for k in 0..40 {
            let lat = if k < 37 { 20.0 } else { 10.0 };
            for j in 0..4 {
                values.push(lat);
                done.push(k as f64 * SLICE_S + (j as f64 + 0.5) * SLICE_S / 4.0);
            }
        }
        let t = Tally { reads: series(&values, &done), ..Default::default() };
        let m = t.read_metrics(false, 10.0, 15.0);
        assert_eq!(m.p50_us, Some(10.0));
        assert_eq!(m.throughput, Some(16.0));
        assert_eq!(m.goodput, Some(16.0));
    }

    #[test]
    fn a_round_reports_rates_over_its_fastest_latencies() {
        let t = Tally { reads: series(&[1e3, 2e3, 3e3, 4e3], &[0.0; 4]), ..Default::default() };
        let m = t.read_metrics(true, 99.0, 2.5e3);
        assert_eq!((m.p50_us, m.p95_us), (Some(2e3), Some(4e3)));
        assert_eq!(m.throughput, Some(400.0));
        assert_eq!(m.goodput, Some(200.0));
        assert!(Tally::default().read_metrics(true, 1.0, 1.0).p50_us.is_none());
    }
}
