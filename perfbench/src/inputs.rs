//! The workloads and their inputs. Everything the program reads is
//! generated and encoded here, from the workload seed, before any pass
//! is timed; the program only ever sees the result.

use demt_frontend::{rigid_request, SubmittedJob};
use demt_model::MoldableTask;
use demt_serve::JobEvent;
use demt_workload::{TraceGen, TraceJob, TraceSpec, WorkloadKind};

/// Machine size `m` of every workload.
pub const PROCS: usize = 256;

/// On `serve-jsonl`, every `CANCEL_EVERY`-th submit is followed, at the
/// same instant, by a cancel of that job: a fixed share, so every seed
/// attempts the same number of operations.
const CANCEL_EVERY: usize = 10;

/// The benchmark's workloads (see the README for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pre-decoded moldable submits through the daemon, planned by DEMT.
    ServeDemt,
    /// Canonical JSONL bytes through the daemon's reader, greedy
    /// planning, with cancels.
    ServeJsonl,
    /// Rigid knee-rule requests through the EASY-backfilling replay.
    QueueBacklog,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeDemt,
        Workload::ServeJsonl,
        Workload::QueueBacklog,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeDemt => "serve-demt",
            Workload::ServeJsonl => "serve-jsonl",
            Workload::QueueBacklog => "queue-backlog",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated trace: family, job count, machine size, Pareto
    /// mean gap and tail shape.
    pub fn spec(self, seed: u64) -> TraceSpec {
        let (jobs, gap, shape) = match self {
            Workload::ServeDemt => (20_000, 0.05, 2.5),
            Workload::ServeJsonl => (20_000, 0.4, 2.5),
            Workload::QueueBacklog => (4_000, 0.05, 2.5),
        };
        let mut spec = TraceSpec::new(jobs, PROCS, seed);
        spec.kind = WorkloadKind::Mixed;
        spec.mean_interarrival = gap;
        spec.pareto_shape = shape;
        spec
    }

    /// The daemon's planning algorithm (`None` for the queue workload).
    pub fn algorithm(self) -> Option<&'static str> {
        match self {
            Workload::ServeDemt => Some("demt"),
            Workload::ServeJsonl => Some("greedy"),
            Workload::QueueBacklog => None,
        }
    }
}

/// One job as the output checks see it: the task exactly as the program
/// received it, its release date, and whether it was cancelled.
#[derive(Debug, Clone)]
pub struct RefJob {
    pub task: MoldableTask,
    pub release: f64,
    pub cancelled: bool,
}

/// What the program reads, already in the form its entry point takes.
#[derive(Debug, Clone)]
pub enum Feed {
    /// Decoded events for `demt_serve::run_events`.
    Events(Vec<(usize, JobEvent)>),
    /// Canonical JSONL bytes for `demt_serve::EventReader`.
    Jsonl(Vec<u8>),
    /// Release-sorted rigid requests for `demt_frontend::replay_queue`.
    Queue(Vec<SubmittedJob>),
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub jobs: Vec<RefJob>,
    pub feed: Feed,
    /// Operations one pass attempts: submits plus cancels.
    pub events: usize,
}

impl Inputs {
    /// Decisions one correct pass makes: one per job not cancelled.
    pub fn decisions(&self) -> usize {
        self.jobs.iter().filter(|j| !j.cancelled).count()
    }
}

/// Builds the inputs of `workload` for `seed`, drawing every job through
/// `next` (plain `TraceGen::next`, or a timed wrapper in the traced
/// set-up).
pub fn build(
    workload: Workload,
    seed: u64,
    next: &mut dyn FnMut(&mut TraceGen) -> Option<TraceJob>,
) -> Inputs {
    let mut gen = TraceGen::new(&workload.spec(seed));
    let trace: Vec<TraceJob> = std::iter::from_fn(|| next(&mut gen)).collect();
    match workload {
        Workload::ServeDemt => {
            let events = trace
                .iter()
                .enumerate()
                .map(|(i, tj)| (i + 1, submit_event(tj)))
                .collect();
            Inputs {
                events: trace.len(),
                jobs: reference(trace, |_| false),
                feed: Feed::Events(events),
            }
        }
        Workload::ServeJsonl => {
            let cancelled = |id: usize| id % CANCEL_EVERY == CANCEL_EVERY - 1;
            let mut bytes = Vec::new();
            let mut events = 0;
            for tj in &trace {
                let id = tj.task.id().index();
                push_line(&mut bytes, &submit_event(tj));
                events += 1;
                if cancelled(id) {
                    push_line(&mut bytes, &JobEvent::cancel(id, tj.release));
                    events += 1;
                }
            }
            Inputs {
                events,
                jobs: reference(trace, cancelled),
                feed: Feed::Jsonl(bytes),
            }
        }
        Workload::QueueBacklog => {
            // The queue sees what a user submits to it: the knee-rule
            // rigid request, stored compactly.
            let jobs: Vec<RefJob> = trace
                .iter()
                .map(|tj| {
                    let k = rigid_request(&tj.task, PROCS);
                    let task = MoldableTask::rigid(
                        tj.task.id(),
                        tj.task.weight(),
                        k,
                        tj.task.time(k),
                        PROCS,
                    )
                    .expect("a generated profile gives a valid rigid request");
                    RefJob {
                        task,
                        release: tj.release,
                        cancelled: false,
                    }
                })
                .collect();
            let feed = jobs
                .iter()
                .map(|j| SubmittedJob {
                    task: j.task.clone(),
                    release: j.release,
                    rigid_procs: j.task.rigid_shape().map_or(1, |(k, _)| k),
                })
                .collect();
            Inputs {
                events: jobs.len(),
                jobs,
                feed: Feed::Queue(feed),
            }
        }
    }
}

fn submit_event(tj: &TraceJob) -> JobEvent {
    JobEvent::submit_moldable(
        tj.task.id().index(),
        tj.release,
        tj.task.weight(),
        tj.task.times().to_vec(),
    )
}

fn push_line(bytes: &mut Vec<u8>, ev: &JobEvent) {
    let line = serde_json::to_string(ev).expect("job events serialize");
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
}

fn reference(trace: Vec<TraceJob>, cancelled: impl Fn(usize) -> bool) -> Vec<RefJob> {
    trace
        .into_iter()
        .map(|tj| RefJob {
            cancelled: cancelled(tj.task.id().index()),
            task: tj.task,
            release: tj.release,
        })
        .collect()
}
