//! Untimed set-up of one pass, then the timed call into the program's
//! entry point, then the read-back of what reached the sink.

use crate::check::{fnv1a, parse_line, placement_hash, Rec};
use crate::heap;
use crate::inputs::{Feed, Inputs, PROCS};
use demt_frontend::{replay_queue, QueueOrder, QueuePolicy, SubmittedJob};
use demt_model::{ProcSet, TaskId};
use demt_platform::Placement;
use demt_serve::{run_events, EventReader, JobEvent, ServeConfig, ServeError, ServeStats};
use std::io::Write;
use std::time::Instant;

/// What one pass produced.
#[derive(Debug)]
pub struct PassOut {
    /// Wall time of the program call, seconds.
    pub wall: f64,
    /// One sample per decision: nanoseconds from the pull of the job's
    /// event to the arrival of its placement at the sink.
    pub latency_ns: Vec<u64>,
    /// FNV-1a of the placement stream as JSON lines, in decision order.
    pub hash: u64,
    pub recs: Vec<Rec>,
    /// Largest heap the program call held above what was live when it
    /// began, bytes.
    pub heap_peak: usize,
    /// The program's heap above the call's start as each placement
    /// reached the sink, averaged over the decisions, bytes.
    pub heap_mean: f64,
}

/// The daemon's configuration: one scheduling thread, no stats ticks,
/// no self-check.
pub fn serve_config(algorithm: &str) -> ServeConfig {
    let mut cfg = ServeConfig::new(PROCS);
    cfg.algorithm = algorithm.to_string();
    cfg.workers = 1;
    cfg
}

/// Stamps the instant the daemon pulls each submit from the feed.
struct Clocked<'a, I> {
    inner: I,
    pulled: &'a mut [Option<Instant>],
}

impl<I> Iterator for Clocked<'_, I>
where
    I: Iterator<Item = Result<(usize, JobEvent), ServeError>>,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<Self::Item> {
        let t = Instant::now();
        let item = self.inner.next();
        if let Some(Ok((_, ev))) = &item {
            if ev.is_submit() {
                if let Some(slot) = self.pulled.get_mut(ev.job) {
                    *slot = Some(t);
                }
            }
        }
        item
    }
}

/// The benchmark-owned output: the bytes, and for each write the offset
/// it ended at, the instant it arrived and the live heap then.
#[derive(Debug, Default)]
pub struct Sink {
    bytes: Vec<u8>,
    writes: Vec<(usize, Instant, usize)>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        self.bytes.extend_from_slice(buf);
        self.writes.push((self.bytes.len(), t, heap::live()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One pass of the daemon over the workload's feed.
pub fn serve_pass(cfg: &ServeConfig, inputs: &Inputs, sink: &mut Sink) -> Result<PassOut, String> {
    let mut pulled = vec![None; inputs.jobs.len()];
    sink.bytes.clear();
    sink.writes.clear();
    let mut stats = ServeStats::new(cfg.procs);
    let (wall, base, heap_peak) = match &inputs.feed {
        Feed::Events(events) => {
            // Each pull hands the daemon its own copy of the decoded
            // event, as a reader would: what it holds is then its heap.
            let mut feed = Clocked {
                inner: events.iter().cloned().map(Ok),
                pulled: &mut pulled,
            };
            let base = heap::reset_peak();
            let t0 = Instant::now();
            run_events(cfg, &mut feed, sink, &mut stats, None).map_err(|e| e.to_string())?;
            (t0.elapsed(), base, heap::peak() - base)
        }
        Feed::Jsonl(bytes) => {
            let mut feed = Clocked {
                inner: EventReader::new(&bytes[..]),
                pulled: &mut pulled,
            };
            let base = heap::reset_peak();
            let t0 = Instant::now();
            run_events(cfg, &mut feed, sink, &mut stats, None).map_err(|e| e.to_string())?;
            (t0.elapsed(), base, heap::peak() - base)
        }
        Feed::Queue(_) => return Err("the queue feed is not a daemon feed".to_string()),
    };

    // Read back: each line gets the instant and the heap of the write
    // that completed it.
    let mut recs = Vec::with_capacity(inputs.jobs.len());
    let mut latency_ns = Vec::with_capacity(inputs.jobs.len());
    let mut heap_sum = 0.0;
    let mut writes = sink.writes.iter().peekable();
    let mut at = 0;
    for line in sink.bytes.split_inclusive(|&b| b == b'\n') {
        at += line.len();
        while writes.next_if(|&&(end, _, _)| end < at).is_some() {}
        let body = line.strip_suffix(b"\n").unwrap_or(line);
        let rec = parse_line(body).ok_or_else(|| {
            format!(
                "malformed placement line {:?}",
                String::from_utf8_lossy(body)
            )
        })?;
        let pulled_at = pulled.get(rec.task).copied().flatten();
        if let Some(&&(_, t1, live)) = writes.peek() {
            if let Some(t0) = pulled_at {
                latency_ns.push(nanos(t1.saturating_duration_since(t0)));
            }
            heap_sum += live.saturating_sub(base) as f64;
        }
        recs.push(rec);
    }
    Ok(PassOut {
        wall: wall.as_secs_f64(),
        latency_ns,
        hash: fnv1a(&sink.bytes),
        heap_mean: heap_sum / recs.len().max(1) as f64,
        recs,
        heap_peak,
    })
}

/// The queue's placements as its callback hands them over, copied into
/// buffers reserved before the call, so that the callback neither
/// allocates nor clones.
pub struct QueueRecord {
    /// Task, start, duration, and the end of its ids in `procs`.
    heads: Vec<(usize, f64, f64, usize)>,
    procs: Vec<u32>,
    /// The instant each placement reached the callback, and the live
    /// heap then.
    pub started: Vec<(Instant, usize)>,
}

impl QueueRecord {
    pub fn for_feed(jobs: &[SubmittedJob]) -> Self {
        QueueRecord {
            heads: Vec::with_capacity(jobs.len()),
            procs: Vec::with_capacity(jobs.iter().map(|j| j.rigid_procs).sum()),
            started: Vec::with_capacity(jobs.len()),
        }
    }

    pub fn record(&mut self, p: &Placement) {
        self.started.push((Instant::now(), heap::live()));
        self.procs.extend(p.procs.iter());
        self.heads
            .push((p.task.index(), p.start, p.duration, self.procs.len()));
    }

    /// The placements in decision order.
    pub fn placements(&self) -> Vec<Placement> {
        let mut from = 0;
        self.heads
            .iter()
            .map(|&(task, start, duration, to)| {
                let procs = ProcSet::from_ids(self.procs[from..to].iter().copied());
                from = to;
                Placement {
                    task: TaskId(task),
                    start,
                    duration,
                    procs,
                }
            })
            .collect()
    }
}

/// One pass of the EASY-backfilling replay over the workload's requests.
///
/// The engine reads its feed one job ahead: right after it admits job
/// i to the waiting queue it pulls job i + 1 to look at its release. So
/// the instant of pull i + 1 is job i's admission, and a latency sample
/// runs from there to the job's start decision.
pub fn queue_pass(inputs: &Inputs) -> Result<PassOut, String> {
    let Feed::Queue(jobs) = &inputs.feed else {
        return Err("the daemon feeds are not queue feeds".to_string());
    };
    let mut feed = jobs.clone().into_iter();
    let mut pulls: Vec<Instant> = Vec::with_capacity(jobs.len() + 1);
    let mut record = QueueRecord::for_feed(jobs);
    let base = heap::reset_peak();
    let t0 = Instant::now();
    replay_queue(
        PROCS,
        std::iter::from_fn(|| {
            pulls.push(Instant::now());
            feed.next()
        }),
        QueuePolicy::EasyBackfill,
        QueueOrder::Arrival,
        |_, p| record.record(p),
    )
    .map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    let heap_peak = heap::peak() - base;
    let heap_mean = record
        .started
        .iter()
        .map(|&(_, live)| live.saturating_sub(base) as f64)
        .sum::<f64>()
        / record.started.len().max(1) as f64;

    let mut admitted = vec![None; jobs.len()];
    for (j, &t) in jobs.iter().zip(pulls.iter().skip(1)) {
        if let Some(slot) = admitted.get_mut(j.task.id().index()) {
            *slot = Some(t);
        }
    }
    let placed = record.placements();
    let latency_ns = placed
        .iter()
        .zip(&record.started)
        .filter_map(|(p, (t1, _))| {
            let t0 = admitted.get(p.task.index()).copied().flatten()?;
            Some(nanos(t1.saturating_duration_since(t0)))
        })
        .collect();
    Ok(PassOut {
        wall: wall.as_secs_f64(),
        latency_ns,
        hash: placement_hash(&placed),
        recs: placed.iter().map(Rec::from_placement).collect(),
        heap_peak,
        heap_mean,
    })
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
