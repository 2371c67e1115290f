//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and request id. Spans stay
//! in thread-local buffers while the run is measured and are collected,
//! reduced to per-layer self time and written out at the end. When
//! tracing is off, [`span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
    /// Reconstructed from the program's own counters (`Timing`), not timed
    /// by the benchmark.
    derived: bool,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` (`<layer>.<call>`), child of the
/// innermost open span on this thread.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
    let id = BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, req, derived: false });
        (b.len() - 1) as u32
    });
    STACK.with(|s| s.borrow_mut().push(id));
    let r = f();
    STACK.with(|s| s.borrow_mut().pop());
    BUF.with(|b| b.borrow_mut()[id as usize].end_ns = now_ns());
    r
}

/// Attach children to the most recently closed span on this thread from
/// the program's own stage durations, laid end to end from its start.
pub fn derive_children(parts: &[(&'static str, std::time::Duration)]) {
    if !enabled() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let Some(parent) = b.iter().rposition(|s| !s.derived) else { return };
        let (mut at, req) = (b[parent].start_ns, b[parent].req);
        for (name, d) in parts {
            let end = at + d.as_nanos() as u64;
            b.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: parent as u32,
                req,
                derived: true,
            });
            at = end;
        }
    });
}

/// Hand this thread's spans to the collector; call before a traced
/// thread exits.
pub fn flush_thread() {
    let spans = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !spans.is_empty() {
        COLLECTED.lock().expect("span collector poisoned").push(spans);
    }
}

/// Per-layer self time in milliseconds over every collected span: a
/// span's duration minus the part of it its children cover, summed by
/// the layer prefix of its name.
pub fn self_ms_by_layer() -> BTreeMap<String, f64> {
    let threads = COLLECTED.lock().expect("span collector poisoned");
    let mut out = BTreeMap::new();
    for spans in threads.iter() {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let kids = &mut children[i];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
    }
    out
}

/// Write each thread's first `per_thread` collected spans as JSON lines
/// to `path`, and return how many were written of how many collected. A
/// parent opens before its children, so every written span's parent is
/// written too.
pub fn write_spans(path: &std::path::Path, per_thread: usize) -> std::io::Result<(usize, usize)> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let threads = COLLECTED.lock().expect("span collector poisoned");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let (mut written, mut total) = (0, 0);
    for (thread, spans) in threads.iter().enumerate() {
        total += spans.len();
        for (id, s) in spans.iter().enumerate().take(per_thread) {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                w,
                r#"{{"thread":{thread},"id":{id},"parent":{parent},"req":{},"name":"{}","start_ns":{},"end_ns":{},"derived":{}}}"#,
                s.req, s.name, s.start_ns, s.end_ns, s.derived
            )?;
            written += 1;
        }
    }
    w.flush()?;
    Ok((written, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        span("outer.a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span("inner.b", 1, || std::thread::sleep(std::time::Duration::from_millis(4)));
        });
        flush_thread();
        set_enabled(false);
        let by = self_ms_by_layer();
        assert!(by["inner"] >= 4.0);
        assert!(by["outer"] >= 2.0 && by["outer"] < by["inner"] + 2.0);
    }
}
