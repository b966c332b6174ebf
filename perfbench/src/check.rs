//! Output checks written independently of `demt_platform::validate`:
//! they read the placements as the sink received them and compare them
//! with the inputs the benchmark generated.

use crate::inputs::RefJob;
use demt_platform::Placement;

/// One placement as the sink received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rec {
    pub task: usize,
    pub start: f64,
    pub duration: f64,
    pub procs: Vec<u32>,
}

impl Rec {
    pub fn from_placement(p: &Placement) -> Self {
        Rec {
            task: p.task.index(),
            start: p.start,
            duration: p.duration,
            procs: p.procs.iter().collect(),
        }
    }

    fn completion(&self) -> f64 {
        self.start + self.duration
    }
}

/// Parses one placement line, `{"task":N,"start":F,"duration":F,"procs":[…]}`
/// without its newline. Any other shape is `None`.
pub fn parse_line(line: &[u8]) -> Option<Rec> {
    let s = std::str::from_utf8(line).ok()?;
    let s = s.strip_prefix("{\"task\":")?;
    let (task, s) = s.split_once(",\"start\":")?;
    let (start, s) = s.split_once(",\"duration\":")?;
    let (duration, s) = s.split_once(",\"procs\":[")?;
    let list = s.strip_suffix("]}")?;
    let procs = if list.is_empty() {
        Vec::new()
    } else {
        list.split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?
    };
    Some(Rec {
        task: task.parse().ok()?,
        start: start.parse().ok()?,
        duration: duration.parse().ok()?,
        procs,
    })
}

/// 64-bit FNV-1a: the placement-stream hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The placement-stream hash of placements the sink received decoded:
/// serialized as the daemon's JSON lines, in decision order.
pub fn placement_hash(placements: &[Placement]) -> u64 {
    let mut bytes = Vec::new();
    for p in placements {
        p.write_json(&mut bytes);
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

/// Outcome of checking one pass.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations that failed: a submit without exactly one valid
    /// placement, or a cancel whose job was placed.
    pub failed: u64,
    /// Human-readable findings (the first few are printed).
    pub problems: Vec<String>,
    /// Paper criterion 1, max over placements of `start + duration`.
    pub makespan: f64,
    /// Paper criterion 2, `Σ wⱼCⱼ / Σ wⱼ`.
    pub weighted_mean_completion: f64,
}

/// Slack for float comparisons: the engines gather a job into a batch
/// when its release is within `1e-12` of the batch start and may let
/// two windows share one ulp on a processor, so comparisons allow a
/// relative `1e-9`, the tolerance the program's own validator uses.
fn tol(x: f64) -> f64 {
    1e-9 * x.abs().max(1.0)
}

/// Checks one pass's placements against the jobs the benchmark
/// generated, on an `m`-processor machine.
pub fn check(m: usize, jobs: &[RefJob], recs: &[Rec]) -> Verdict {
    let mut v = Verdict::default();
    let mut placed = vec![0usize; jobs.len()];
    let mut bad = vec![false; jobs.len()];
    let problem = |v: &mut Verdict, msg: String| {
        if v.problems.len() < 8 {
            v.problems.push(msg);
        }
    };

    for r in recs {
        let Some(job) = jobs.get(r.task) else {
            problem(&mut v, format!("placement of unknown job {}", r.task));
            v.failed += 1;
            continue;
        };
        placed[r.task] += 1;
        let k = r.procs.len();
        let ids_ok = r.procs.windows(2).all(|w| w[0] < w[1])
            && r.procs.last().is_some_and(|&q| (q as usize) < m);
        if !(1..=m).contains(&k) || !ids_ok {
            problem(
                &mut v,
                format!("job {}: processor set {:?}", r.task, r.procs),
            );
            bad[r.task] = true;
            continue;
        }
        let expected = match job.task.rigid_shape() {
            Some((width, time)) if width == k => Some(time),
            Some(_) => None,
            None => Some(job.task.time(k)),
        };
        if expected != Some(r.duration) {
            problem(
                &mut v,
                format!(
                    "job {}: duration {} on {k} processors, profile says {expected:?}",
                    r.task, r.duration
                ),
            );
            bad[r.task] = true;
        }
        if r.start < job.release - tol(job.release) {
            problem(
                &mut v,
                format!(
                    "job {}: starts at {} before its release {}",
                    r.task, r.start, job.release
                ),
            );
            bad[r.task] = true;
        }
    }

    // Per-processor sweep in start order: a window overlaps an earlier
    // one on processor q exactly when it starts before the latest end
    // seen on q so far.
    let mut order: Vec<usize> = (0..recs.len()).collect();
    order.sort_by(|&a, &b| recs[a].start.total_cmp(&recs[b].start));
    let mut busy_until = vec![f64::NEG_INFINITY; m];
    for &i in &order {
        let r = &recs[i];
        if r.task >= jobs.len() || bad[r.task] {
            continue;
        }
        let end = r.completion();
        for &q in &r.procs {
            let last = &mut busy_until[q as usize];
            if r.start < *last - tol(*last) {
                if !bad[r.task] {
                    problem(
                        &mut v,
                        format!(
                            "job {}: processor {q} still busy until {} at start {}",
                            r.task, *last, r.start
                        ),
                    );
                }
                bad[r.task] = true;
            }
            *last = last.max(end);
        }
    }

    for (id, job) in jobs.iter().enumerate() {
        let ok = if job.cancelled {
            placed[id] == 0
        } else {
            placed[id] == 1 && !bad[id]
        };
        if !ok {
            v.failed += 1;
            if placed[id] != usize::from(!job.cancelled) {
                problem(
                    &mut v,
                    format!(
                        "job {id} (cancelled: {}) placed {} times",
                        job.cancelled, placed[id]
                    ),
                );
            }
        }
    }

    // The two criteria, and a lower bound on each that every valid
    // schedule meets: no job completes before rⱼ + minₖ pⱼ(k).
    let (mut cmax, mut lb_cmax) = (0.0f64, 0.0f64);
    let (mut wsum, mut wc, mut wlb) = (0.0, 0.0, 0.0);
    for r in recs {
        let Some(job) = jobs.get(r.task).filter(|j| !j.cancelled) else {
            continue;
        };
        let w = job.task.weight();
        let c = r.completion();
        let earliest = job.release + job.task.min_time();
        cmax = cmax.max(c);
        lb_cmax = lb_cmax.max(earliest);
        wsum += w;
        wc += w * c;
        wlb += w * earliest;
    }
    v.makespan = cmax;
    v.weighted_mean_completion = if wsum > 0.0 { wc / wsum } else { 0.0 };
    if cmax < lb_cmax - tol(lb_cmax) {
        problem(
            &mut v,
            format!("makespan {cmax} below its lower bound {lb_cmax}"),
        );
    }
    let wlb = if wsum > 0.0 { wlb / wsum } else { 0.0 };
    let wmc = v.weighted_mean_completion;
    if wmc < wlb - tol(wlb) {
        problem(
            &mut v,
            format!("weighted mean completion {wmc} below its lower bound {wlb}"),
        );
    }
    if recs.is_empty() {
        problem(&mut v, "no placements".to_string());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::{MoldableTask, TaskId};

    fn job(id: usize, release: f64, k: usize, time: f64, cancelled: bool) -> RefJob {
        RefJob {
            task: MoldableTask::rigid(TaskId(id), 1.0, k, time, 4).unwrap(),
            release,
            cancelled,
        }
    }

    fn rec(task: usize, start: f64, duration: f64, procs: &[u32]) -> Rec {
        Rec {
            task,
            start,
            duration,
            procs: procs.to_vec(),
        }
    }

    #[test]
    fn placement_lines_round_trip() {
        let line = br#"{"task":7,"start":1.5,"duration":0.25,"procs":[0,1,3]}"#;
        assert_eq!(parse_line(line), Some(rec(7, 1.5, 0.25, &[0, 1, 3])));
        assert_eq!(parse_line(br#"{"task":7,"start":1.5}"#), None);
    }

    #[test]
    fn a_valid_schedule_passes_and_its_criteria_are_exact() {
        let jobs = [job(0, 0.0, 2, 2.0, false), job(1, 1.0, 2, 1.0, false)];
        let recs = [rec(0, 0.0, 2.0, &[0, 1]), rec(1, 1.0, 1.0, &[2, 3])];
        let v = check(4, &jobs, &recs);
        assert_eq!((v.failed, v.problems.len()), (0, 0), "{:?}", v.problems);
        assert_eq!(v.makespan, 2.0);
        assert_eq!(v.weighted_mean_completion, 2.0);
    }

    #[test]
    fn each_fault_fails_its_operation() {
        let jobs = [
            job(0, 0.0, 2, 2.0, false),
            job(1, 1.0, 2, 1.0, false),
            job(2, 0.0, 1, 1.0, true),
        ];
        // Overlap on processor 1, wrong duration, a cancelled job placed.
        let recs = [
            rec(0, 0.0, 2.0, &[0, 1]),
            rec(1, 1.0, 1.0, &[1, 2]),
            rec(2, 3.0, 1.0, &[3]),
        ];
        assert_eq!(check(4, &jobs, &recs).failed, 2);
        let recs = [rec(0, 0.0, 3.0, &[0, 1]), rec(1, 1.0, 1.0, &[2, 3])];
        assert_eq!(check(4, &jobs, &recs).failed, 1);
        // Early start, and a job placed twice.
        let recs = [
            rec(0, 0.0, 2.0, &[0, 1]),
            rec(1, 0.5, 1.0, &[2, 3]),
            rec(1, 2.0, 1.0, &[2, 3]),
        ];
        assert_eq!(check(4, &jobs, &recs).failed, 1);
    }
}
