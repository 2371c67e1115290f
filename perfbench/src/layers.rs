//! The traced run: per-layer numbers from spans around the benchmark's
//! calls into each layer's public functions, plus the program's own
//! counters where a public call cannot isolate a layer (`Timing` for the
//! aggregation / fit split, plan- and day-partial-cache stats, EXPLAIN's
//! warm/cold day split, `PublishStats`).
//!
//! Work counters come from a single-threaded replay of the workload's
//! first statements on a fresh single engine over the same table, so they
//! repeat exactly for a seed. End-to-end numbers never come from here.

use crate::gen::{day_ts, SAMPLE_RATE};
use crate::run::{self, derive_timing, execute, prepare_all};
use crate::stats::{median, timed};
use crate::sys::{self, Shape, System};
use crate::trace::{self, span};
use crate::workload::{Call, Name, Workload};
use crate::{Args, Outcome};
use flashp_core::{ExecOutput, PlanNode, PublishStats};
use flashp_server::harness::{is_ok, Client};
use flashp_server::protocol::{encode_output, parse_command};
use flashp_server::{Backend, PreparedHandle};
use flashp_storage::{aggregate_range, AggFunc, ScanOptions};
use std::time::Duration;

/// Statements replayed and probed per layer; auto-ARIMA costs ~75 ms a
/// statement, so `forecast_arima` probes fewer.
fn probe_size(name: Name) -> (usize, usize) {
    match name {
        Name::IngestPublish => (400, 200),
        Name::ForecastArima => (16, 8),
    }
}

/// Batches the write probe ingests and publishes.
const WRITE_PROBE_BATCHES: usize = 20;
/// Spans written out per thread; `ingest_publish` records millions, and
/// self times are computed from all of them before writing.
const WRITTEN_SPANS_PER_THREAD: usize = 10_000;
/// Layers whose self time the run reports.
const LAYERS: [&str; 8] =
    ["bench", "server", "query", "core", "storage", "sampling", "forecast", "data"];

fn single_handle(h: &PreparedHandle) -> &flashp_core::PreparedQuery {
    match h {
        PreparedHandle::Single(q) => q,
        PreparedHandle::Sharded(_) => panic!("replay runs on a single engine"),
    }
}

/// Sum `warm_days` / `cold_days` over an EXPLAIN tree.
fn day_split(node: &PlanNode) -> (f64, f64) {
    let prop = |k: &str| {
        node.props
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    node.children
        .iter()
        .map(day_split)
        .fold((prop("warm_days"), prop("cold_days")), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Single-threaded replay of `calls` on a fresh single engine: execute
/// and encode timings, the aggregation / fit split, and exact counters.
fn replay(w: &Workload, b: &Backend, calls: &[Call], out: &mut Outcome) {
    let engine = sys::single(b);
    let handles = prepare_all(w, b);
    let (mut exec, mut encode, mut agg, mut fit) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut warm, mut cold) = (0.0, 0.0);
    for (i, call) in calls.iter().enumerate() {
        let req = i as u64;
        let plan = span("core.explain", req, || {
            single_handle(&handles[call.handle]).explain_with(&call.params())
        });
        let (wd, cd) = day_split(&plan.expect("replayed statements explain"));
        warm += wd;
        cold += cd;
        let (res, us) = timed(|| span("core.execute_with", req, || execute(&handles, call)));
        derive_timing(&res);
        let res = res.expect("replayed statements execute");
        if !crate::check::shape_ok(&res, &call.stmt) {
            out.correct = false;
            out.note("replay_wrong_shape", &call.sql);
        }
        exec.push(us);
        encode.push(timed(|| span("server.encode_output", req, || encode_output(&res))).1);
        if let ExecOutput::Forecast(f) = &res {
            agg.push(crate::stats::us(f.timing.aggregation));
            fit.push(crate::stats::us(f.timing.forecasting));
        }
    }
    let part = engine.partial_cache_stats().expect("the day-partial cache is on by default");
    out.note("partial_cache_hits", part.hits);
    out.note("partial_cache_misses", part.misses);

    // The same statements as one-shot text, which only the plan cache
    // keeps from being parsed and planned again.
    let before = engine.plan_cache_stats();
    for (i, call) in calls.iter().enumerate() {
        let res = span("core.execute", i as u64, || engine.execute(&call.sql));
        if !res.is_ok_and(|r| crate::check::shape_ok(&r, &call.stmt)) {
            out.correct = false;
            out.note("replay_one_shot_failed", &call.sql);
        }
    }
    let after = engine.plan_cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.note("plan_cache_hits", hits);
    out.note("plan_cache_misses", misses);
    out.metric("core.plan_cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.metric("core.execute_us", median(&exec));
    out.metric("server.encode_us", median(&encode));
    out.metric("core.aggregation_us", median(&agg));
    out.metric("forecast.fit_us", median(&fit));
    out.metric(
        "core.partial_cache.hit_ratio",
        part.hits as f64 / (part.hits + part.misses).max(1) as f64,
    );
    out.metric("core.partial_cache.evictions", part.evictions as f64);
    out.metric("core.partial_cache.entries", part.entries as f64);
    out.metric("core.warm_day_frac", warm / (warm + cold).max(1.0));
    out.metric(
        "core.spec_count",
        handles.iter().map(|h| single_handle(h).specialization_count()).sum::<usize>() as f64,
    );
    out.note("replayed_statements", calls.len());

    // Allocations of a warm execute, single-threaded.
    let reps = if w.name == Name::ForecastArima { 2 } else { 20 };
    execute(&handles, &calls[0]).expect("warm-up execute");
    let (allocs, bytes) = crate::alloc::count(|| {
        for _ in 0..reps {
            std::hint::black_box(execute(&handles, &calls[0]).expect("warm execute"));
        }
    });
    out.metric("core.alloc_per_execute", allocs as f64 / reps as f64);
    out.metric("core.alloc_bytes_per_execute", bytes as f64 / reps as f64);
}

/// Parse, plan and prepare each statement on its own, and run its
/// aggregation through the storage and sampling entry points directly.
fn layer_calls(
    w: &Workload,
    b: &Backend,
    table: &flashp_storage::TimeSeriesTable,
    calls: &[Call],
    out: &mut Outcome,
) {
    let engine = sys::single(b);
    let (mut parse, mut plan, mut prepare, mut estimate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut scan_s) = (0usize, 0.0);
    let rate: f64 = SAMPLE_RATE.parse().expect("numeric sample rate");
    for (i, call) in calls.iter().enumerate() {
        let req = i as u64;
        let (stmt, us) = timed(|| span("query.parse", req, || flashp_core::parse(&call.sql)));
        parse.push(us);
        let stmt = stmt.expect("generated statements parse");
        plan.push(timed(|| span("core.plan", req, || engine.plan(&stmt))).1);
        prepare.push(timed(|| span("core.prepare", req, || engine.prepare(&call.sql))).1);

        let s = &call.stmt;
        let pred = table.compile_predicate(&w.preds[s.pred].predicate()).expect("predicates bind");
        let (start, end) = (day_ts(s.start), day_ts(s.end));
        estimate.push(
            timed(|| {
                span("sampling.estimate_series", req, || {
                    engine.estimate_series(s.measure, &pred, AggFunc::Sum, start, end, rate)
                })
            })
            .1,
        );
        let (res, us) = timed(|| {
            span("storage.aggregate_range", req, || {
                aggregate_range(
                    table,
                    s.measure,
                    &pred,
                    AggFunc::Sum,
                    start,
                    end,
                    ScanOptions::default(),
                )
            })
        });
        res.expect("exact scans succeed");
        scan_s += us / 1e6;
        rows += table.partitions_in(start, end).map(|(_, p)| p.num_rows()).sum::<usize>();
    }
    out.metric("query.parse_us", median(&parse));
    out.metric("core.plan_us", median(&plan));
    out.metric("core.prepare_us", median(&prepare));
    out.metric("sampling.estimate_us", median(&estimate));
    out.metric("storage.rows_scanned", rows as f64);
    out.metric("storage.scan_rows_s", rows as f64 / scan_s);
}

/// The same statements over the wire and in process on one warm engine:
/// round trip, the server's share of it, and its own STATS histogram.
fn wire_probe(w: &Workload, b: &Backend, calls: &[Call], out: &mut Outcome) -> u64 {
    let mut server = sys::serve(b);
    let mut c = Client::connect(server.local_addr()).expect("probe connects");
    for (h, sql) in w.templates.iter().enumerate() {
        assert!(is_ok(&c.roundtrip(&format!("PREPARE h{h} AS {sql}")).expect("prepare")));
    }
    let handles = prepare_all(w, b);
    for call in calls {
        execute(&handles, call).expect("warm-up execute");
    }
    let (mut parse, mut wire) = (Vec::new(), Vec::new());
    for (i, call) in calls.iter().enumerate() {
        let line = call.line();
        parse.push(timed(|| span("server.parse_command", i as u64, || parse_command(&line))).1);
        let (r, us) = timed(|| span("server.roundtrip", i as u64, || c.roundtrip(&line)));
        assert!(is_ok(&r.expect("probe roundtrip")), "probe statement failed: {line}");
        wire.push(us);
    }
    let stats = c.roundtrip("STATS").expect("stats roundtrip");
    let _ = c.roundtrip("CLOSE");
    let stats = serde_json::from_str(&stats).expect("STATS is JSON");
    let stats_p50 = ["server", "latency", "execute", "p50_us"]
        .iter()
        .try_fold(&stats, |v, k| v.get(k))
        .and_then(serde_json::Value::as_f64)
        .expect("STATS reports the class's p50");
    let busy = server.shutdown().busy_rejections;

    let inproc: Vec<f64> = calls
        .iter()
        .enumerate()
        .map(|(i, call)| {
            timed(|| span("core.execute_with", i as u64, || execute(&handles, call))).1
        })
        .collect();
    out.metric("server.parse_command_us", median(&parse));
    out.metric("server.roundtrip_us", median(&wire));
    out.metric("server.overhead_us", median(&wire) - median(&inproc));
    out.metric("server.stats_execute_p50_us", stats_p50);
    busy
}

/// p50 of `calls` on a warm sharded engine against the single engine.
fn sharded_ratio(
    w: &Workload,
    single: &Backend,
    sharded: &Backend,
    calls: &[Call],
    out: &mut Outcome,
) {
    let pass = |b: &Backend| -> Vec<f64> {
        let handles = prepare_all(w, b);
        calls.iter().map(|c| timed(|| execute(&handles, c).expect("probe executes")).1).collect()
    };
    pass(sharded);
    pass(single);
    let s = median(&span("core.sharded_execute", 0, || pass(sharded)));
    let one = median(&pass(single));
    out.metric("core.sharded.execute_us", s);
    out.metric("core.sharded.overhead_x", s / one);
}

/// Ingest and publish a fixed batch sequence in process, single-threaded,
/// back to back.
fn write_probe(seed: u64, table: &flashp_storage::TimeSeriesTable, b: &Backend, out: &mut Outcome) {
    let batches = run::batches(table, seed, WRITE_PROBE_BATCHES);
    let w = run::writer(b, batches, Duration::ZERO, None);
    out.attempted += w.tally.attempted;
    out.failed += w.tally.failed;
    if let Some(e) = w.tally.first_error {
        out.correct = false;
        out.note("write_probe_error", e);
        return;
    }
    let publish: Vec<f64> = w.publishes.iter().map(|p| p.duration.as_secs_f64() * 1e3).collect();
    let per_batch = |cells: fn(&PublishStats) -> usize| {
        w.publishes.iter().map(cells).sum::<usize>() as f64 / w.publishes.len() as f64
    };
    out.metric("core.ingest_us", median(&w.ingest_us));
    out.metric("core.publish_ms", median(&publish));
    out.metric("sampling.rebuilt_cells", per_batch(|p| p.delta.rebuilt_cells));
    out.metric("sampling.absorbed_cells", per_batch(|p| p.delta.absorbed_cells));
    out.metric("sampling.fallback_redraws", per_batch(|p| p.delta.fallback_redraws));
}

pub fn traced_run(args: &Args) -> Outcome {
    let name = args.workload;
    trace::set_enabled(true);
    let a: System = sys::setup(args.seed);
    let w = Workload::new(name, args.seed, &a.table);
    let mut out = Outcome { correct: true, ..Default::default() };
    crate::common_meta(&mut out, args, &w, &a.table);
    out.metric("data.generate_s", a.generate_s);
    out.metric("sampling.catalog_build_s", a.build_s);

    let (scores, digest) = run::gate(&w, &a);
    out.note("answer_digest", digest.hex());
    out.correct &= scores.mismatches == 0;
    out.attempted += scores.checked;
    out.failed += scores.mismatches;

    // A fresh single engine over the same table for the replay and probes.
    let (replay_n, probe_n) = probe_size(name);
    let calls: Vec<Call> = (0..replay_n).map(|i| w.call(i as u64)).collect();
    let (b, _, _) = sys::build(&a.table, Shape::Single, args.seed);
    replay(&w, &b, &calls, &mut out);
    layer_calls(&w, &b, &a.table, &calls[..probe_n], &mut out);
    let probe_busy = wire_probe(&w, &b, &calls[..probe_n], &mut out);
    let sharded = sys::build(&a.table, Shape::Sharded, args.seed).0;
    sharded_ratio(&w, &b, &sharded, &calls[..probe_n], &mut out);
    drop(sharded);
    write_probe(args.seed, &a.table, &b, &mut out);
    drop(b);
    out.attempted += (2 * replay_n + 4 * probe_n) as u64;

    // The workload itself: a warm-up slice, then untraced and traced
    // slices in turn, so both modes see the same cache and table state.
    let slice = args.seconds / 6.0;
    run::readers(&w, &a, slice, 0);
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (k, on) in [false, true, false, true, false, true].into_iter().enumerate() {
        trace::set_enabled(on);
        let first = (k as u64 + 1) << 32;
        let (t, _) = run::readers(&w, &a, slice * 5.0 / 6.0, first);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.correct &= t.incorrect == 0;
        lat[usize::from(on)].extend(t.reads.values);
    }
    trace::set_enabled(false);
    out.metric("server.busy_rejections", probe_busy as f64);
    if lat.iter().any(Vec::is_empty) {
        out.correct = false;
        out.note("empty_series", "trace slices");
    } else {
        let p50 = [median(&lat[0]), median(&lat[1])];
        out.metric("trace.untraced_p50_us", p50[0]);
        out.metric("trace.traced_p50_us", p50[1]);
        out.metric("trace.overhead_x", p50[1] / p50[0]);
    }

    trace::flush_thread();
    let self_ms = trace::self_ms_by_layer();
    for layer in LAYERS {
        out.metric(&format!("trace.self_ms.{layer}"), self_ms.get(layer).copied().unwrap_or(0.0));
    }
    let path = std::path::PathBuf::from(format!(
        ".perfbench/spans-{}-seed{}.jsonl",
        name.as_str(),
        args.seed
    ));
    match trace::write_spans(&path, WRITTEN_SPANS_PER_THREAD) {
        Ok((n, total)) => out.note("spans", format!("{n} of {total} spans in {}", path.display())),
        Err(e) => out.note("spans", format!("not written: {e}")),
    }
    out
}
