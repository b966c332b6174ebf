//! The traced pass: the per-layer breakdown, timed from the outside.
//!
//! It calls the same public functions the daemon (or the queue replay)
//! calls, in the same order and under the daemon's cohort admission
//! rule, and records one span around each call. Spans stay in memory
//! while the pass runs and are written to `out/spans-<workload>.jsonl`
//! under the benchmark's directory when it ends. The pass must
//! reproduce the untraced placement stream byte for byte: that equality
//! is what shows the trace replays the program's own path.

use crate::check::{fnv1a, placement_hash};
use crate::inputs::{self, Feed, Inputs, Workload, PROCS};
use crate::passes::{serve_config, QueueRecord};
use demt_api::{DeltaFingerprint, ScheduleReport, Scheduler, SchedulerContext};
use demt_frontend::{replay_queue, QueueOrder, QueuePolicy};
use demt_model::{Instance, TaskId};
use demt_online::BatchLoop;
use demt_serve::{resolve_scheduler, EventReader, JobEvent, ServeError, ServeStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's base.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.at(Instant::now());
        self.push(name, start, start, parent)
    }

    fn close(&mut self, id: usize) {
        let end = self.at(Instant::now());
        self.spans[id].end = end;
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Total self time per span name: each span's duration minus the
    /// durations of its children.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut total = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *total.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(*c);
        }
        total
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Times `f` as a span named `name` under `parent`.
fn timed<T>(
    spans: &RefCell<Spans>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    let id = spans.borrow_mut().open(name, parent);
    let out = f();
    spans.borrow_mut().close(id);
    out
}

/// One scheduler call: its start and end, and the phases its report
/// carries (label, seconds).
type PlanCall = (Instant, Instant, Vec<(String, f64)>);

/// A `Scheduler` that times each call to the daemon's resolved
/// scheduler and keeps the phase split its report carries.
struct TimedScheduler {
    inner: &'static dyn Scheduler,
    calls: Mutex<Vec<PlanCall>>,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn legend(&self) -> &str {
        self.inner.legend()
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        let t0 = Instant::now();
        let report = self.inner.schedule(inst, ctx);
        let t1 = Instant::now();
        let phases = report
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.seconds))
            .collect();
        self.calls
            .lock()
            .expect("no thread panicked while holding the plan log")
            .push((t0, t1, phases));
        report
    }
}

/// The traced pass's result.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub hash_matches: bool,
}

/// Layer names reported as self times, with the span names they sum.
const LAYERS: [(&str, &str); 9] = [
    ("workload.gen.self_ms", "workload.gen"),
    ("serve.parse.self_ms", "serve.parse"),
    ("serve.lift.self_ms", "serve.lift"),
    ("online.admit.self_ms", "online.admit"),
    ("plan.dual.self_ms", "plan.dual"),
    ("plan.batch_compact.self_ms", "plan.batch_compact"),
    ("plan.greedy.self_ms", "plan.greedy"),
    ("serve.write.self_ms", "serve.write"),
    ("queue.engine.self_ms", "queue.engine"),
];

/// Counters gathered alongside the spans.
#[derive(Debug, Default)]
struct Counters {
    parse_bytes: u64,
    write_bytes: u64,
    batches: u64,
    batch_jobs_max: u64,
    dual_runs: u64,
    depth_sum: u64,
    depth_max: u64,
    decisions: u64,
}

/// Runs the traced set-up and pass; `untraced_pass_s` is the median
/// untraced pass and `expected_hash` its placement hash.
pub fn run(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    untraced_pass_s: f64,
    expected_hash: u64,
) -> Result<Layers, String> {
    let spans = RefCell::new(Spans::new());

    // Traced set-up: every TraceGen::next call, same seed and inputs.
    drop(inputs::build(workload, seed, &mut |g| {
        timed(&spans, "workload.gen", None, || g.next())
    }));

    let mut counters = Counters::default();
    let (root, hash) = match &inputs.feed {
        Feed::Events(events) => {
            let mut feed = events.iter().cloned().map(Ok);
            let root = spans.borrow_mut().open("serve.pass", None);
            let out = serve_traced(workload, root, &spans, &mut counters, &mut || feed.next());
            spans.borrow_mut().close(root);
            (root, fnv1a(&out?))
        }
        Feed::Jsonl(bytes) => {
            counters.parse_bytes = bytes.len() as u64;
            let mut reader = EventReader::new(&bytes[..]);
            let root = spans.borrow_mut().open("serve.pass", None);
            let spans_ref = &spans;
            let mut pull = || timed(spans_ref, "serve.parse", Some(root), || reader.next());
            let out = serve_traced(workload, root, &spans, &mut counters, &mut pull);
            spans.borrow_mut().close(root);
            (root, fnv1a(&out?))
        }
        Feed::Queue(jobs) => queue_traced(jobs.clone(), &spans, &mut counters)?,
    };
    let spans = spans.into_inner();

    let self_ns = spans.self_ns();
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let mut metrics = Vec::new();
    let mut covered_ms = 0.0;
    for (metric, span) in LAYERS {
        let v = ms(span);
        if span != "workload.gen" {
            covered_ms += v;
        }
        metrics.push((metric, v, "ms"));
    }
    let root_ms = {
        let r = &spans.spans[root];
        (r.end - r.start) as f64 / 1e6
    };
    let traced_s = root_ms / 1e3;
    let depth_mean = if counters.decisions > 0 {
        counters.depth_sum as f64 / counters.decisions as f64
    } else {
        0.0
    };
    metrics.extend([
        (
            "workload.gen.calls",
            spans.count("workload.gen") as f64,
            "count",
        ),
        (
            "serve.parse.calls",
            spans.count("serve.parse") as f64,
            "count",
        ),
        ("serve.parse.bytes", counters.parse_bytes as f64, "bytes"),
        (
            "serve.lift.calls",
            spans.count("serve.lift") as f64,
            "count",
        ),
        ("online.batches", counters.batches as f64, "count"),
        (
            "online.batch_jobs_max",
            counters.batch_jobs_max as f64,
            "count",
        ),
        ("plan.dual_runs", counters.dual_runs as f64, "count"),
        ("serve.write.bytes", counters.write_bytes as f64, "bytes"),
        ("queue.depth_mean", depth_mean, "count"),
        ("queue.depth_max", counters.depth_max as f64, "count"),
        ("trace.unattributed_ms", root_ms - covered_ms, "ms"),
        ("trace.overhead_s", traced_s - untraced_pass_s, "s"),
    ]);

    let mut notes = vec![format!(
        "traced pass {traced_s:.4} s (untraced median {untraced_pass_s:.4} s), {} spans, placement hash {hash:016x}",
        spans.spans.len()
    )];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", workload.name()));
    match spans.write(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    let hash_matches = hash == expected_hash;
    if !hash_matches {
        notes.push(format!(
            "traced placement hash {hash:016x} differs from the untraced {expected_hash:016x}"
        ));
    }
    Ok(Layers {
        metrics,
        notes,
        hash_matches,
    })
}

type Pull<'a> = dyn FnMut() -> Option<Result<(usize, JobEvent), ServeError>> + 'a;

/// The daemon's loop (`demt_serve::run_events` with one worker),
/// spelled out over the same public calls so each can be timed.
/// Every span nests under `root`; returns the placement bytes.
fn serve_traced(
    workload: Workload,
    root: usize,
    spans: &RefCell<Spans>,
    counters: &mut Counters,
    pull: &mut Pull<'_>,
) -> Result<Vec<u8>, String> {
    let cfg = serve_config(workload.algorithm().unwrap_or("greedy"));
    let scheduler = TimedScheduler {
        inner: resolve_scheduler(&cfg.algorithm).map_err(|e| e.to_string())?,
        calls: Mutex::new(Vec::new()),
    };
    let plan_span = if cfg.algorithm == "greedy" {
        "plan.greedy"
    } else {
        "plan.call"
    };
    let m = cfg.procs;
    let under = Some(root);
    let mut stats = ServeStats::new(m);
    let mut bl = BatchLoop::new(m);
    let mut out: Vec<u8> = Vec::new();
    let mut held: Option<(usize, JobEvent)> = None;
    let mut exhausted = false;
    loop {
        // Admission to fixpoint, by the daemon's cohort rule.
        loop {
            let mut cohort: Vec<(usize, JobEvent)> = Vec::new();
            let mut bound = timed(spans, "online.admit", under, || bl.next_batch_start());
            loop {
                let next = match held.take() {
                    Some(ev) => Some(ev),
                    None if exhausted => None,
                    None => match pull() {
                        Some(r) => {
                            stats.event();
                            Some(r.map_err(|e| e.to_string())?)
                        }
                        None => {
                            exhausted = true;
                            None
                        }
                    },
                };
                let Some((line, ev)) = next else { break };
                if bound.is_some_and(|b| ev.release > b + 1e-12) {
                    held = Some((line, ev));
                    break;
                }
                if ev.is_submit() {
                    let start = ev.release.max(bl.now());
                    bound = Some(bound.map_or(start, |b| b.min(start)));
                }
                cohort.push((line, ev));
            }
            if cohort.is_empty() {
                break;
            }
            for (line, ev) in cohort {
                if ev.is_submit() {
                    let (task, hash) = timed(spans, "serve.lift", under, || {
                        ev.to_task(m).map(|task| {
                            let hash = DeltaFingerprint::task_hash(&task);
                            (task, hash)
                        })
                    })
                    .map_err(|e| format!("line {line}: {e}"))?;
                    timed(spans, "online.admit", under, || {
                        bl.submit_hashed(task, ev.release, hash)
                    })
                    .map_err(|e| e.to_string())?;
                } else if !timed(spans, "online.admit", under, || bl.cancel(TaskId(ev.job))) {
                    return Err(format!("line {line}: cancel of job {} failed", ev.job));
                }
            }
        }

        let before = bl.decisions();
        stats.batch_starts();
        let admit = spans.borrow_mut().open("online.admit", under);
        let emitted = bl.run_batch(&scheduler).map_err(|e| e.to_string())?;
        spans.borrow_mut().close(admit);
        for (t0, t1, phases) in scheduler
            .calls
            .lock()
            .expect("no thread panicked while holding the plan log")
            .drain(..)
        {
            let mut sp = spans.borrow_mut();
            let (start, end) = (sp.at(t0), sp.at(t1));
            let call = sp.push(plan_span, start, end, Some(admit));
            if plan_span == "plan.call" {
                let mut at = start;
                for (phase, seconds) in phases {
                    let name = match phase.as_str() {
                        "dual" => "plan.dual",
                        "batch+compact" => "plan.batch_compact",
                        _ => continue,
                    };
                    let d = (seconds * 1e9) as u64;
                    sp.push(name, at, at + d, Some(call));
                    at += d;
                }
            }
        }
        let fresh = &bl.schedule().placements()[before..];
        let busy: f64 = fresh
            .iter()
            .map(|p| p.procs.len() as f64 * p.duration)
            .sum();
        stats.batch_done(emitted, busy);
        if emitted > 0 {
            counters.batches += 1;
            counters.batch_jobs_max = counters.batch_jobs_max.max(emitted as u64);
            for p in fresh {
                timed(spans, "serve.write", under, || {
                    let mut line = Vec::with_capacity(64 + 8 * p.procs.len());
                    p.write_json(&mut line);
                    line.push(b'\n');
                    out.extend_from_slice(&line);
                });
            }
        }
        if emitted == 0 && held.is_none() && exhausted {
            break;
        }
    }
    counters.write_bytes = out.len() as u64;
    counters.dual_runs = bl.context().dual_runs() as u64;
    counters.decisions = bl.decisions() as u64;
    Ok(out)
}

/// `replay_queue` under one span; the feed pulls and the sink
/// callbacks are its child spans, so the engine's self time excludes
/// them. The engine reads one job ahead and pulls the next job right
/// after admitting one, so the jobs in its waiting queue are the pulls
/// so far minus one, minus the jobs started.
fn queue_traced(
    jobs: Vec<demt_frontend::SubmittedJob>,
    spans: &RefCell<Spans>,
    counters: &mut Counters,
) -> Result<(usize, u64), String> {
    let root = spans.borrow_mut().open("queue.engine", None);
    let under = Some(root);
    let pulls = std::cell::Cell::new(0u64);
    let mut started = 0u64;
    let mut record = QueueRecord::for_feed(&jobs);
    let mut feed = jobs.into_iter();
    replay_queue(
        PROCS,
        std::iter::from_fn(|| {
            timed(spans, "queue.feed", under, || {
                pulls.set(pulls.get() + 1);
                feed.next()
            })
        }),
        QueuePolicy::EasyBackfill,
        QueueOrder::Arrival,
        |_, p| {
            timed(spans, "queue.sink", under, || {
                let depth = pulls.get().saturating_sub(1) - started;
                counters.depth_sum += depth;
                counters.depth_max = counters.depth_max.max(depth);
                started += 1;
                record.record(p);
            })
        },
    )
    .map_err(|e| e.to_string())?;
    spans.borrow_mut().close(root);
    counters.decisions = started;
    Ok((root, placement_hash(&record.placements())))
}
