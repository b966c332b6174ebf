//! `demt-perfbench`: the end-to-end and per-layer benchmark of the DEMT
//! daemon and the EASY queue.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-demt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run sets up the workload's inputs several times (reporting the
//! median as `setup_s`), makes one warm-up pass, then timed passes over
//! the same inputs for `--seconds`, checking every pass's output.
//! `jobs_per_s` counts the decisions of every timed pass over their
//! total wall time; each latency quantile is the median over the timed
//! passes of that quantile within the pass. With
//! `--trace 1` a traced pass follows and the per-layer metrics are
//! printed instead of the end-to-end ones. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod check;
mod heap;
mod inputs;
mod passes;
mod trace;

use check::{check, Verdict};
use inputs::{Inputs, Workload, PROCS};
use passes::{queue_pass, serve_config, serve_pass, PassOut, Sink};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 5;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: demt-perfbench --workload serve-demt|serve-jsonl|queue-backlog --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("demt-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The process's resident-set high-water mark (`VmHWM`), in MB: printed
/// as a note only, since it is mostly the benchmark's own buffers.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

const MB: f64 = 1024.0 * 1024.0;

fn one_pass(workload: Workload, inputs: &Inputs, sink: &mut Sink) -> Result<PassOut, String> {
    match workload.algorithm() {
        Some(algorithm) => serve_pass(&serve_config(algorithm), inputs, sink),
        None => queue_pass(inputs),
    }
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let mut notes = vec![format!(
        "workload {} seed {} m {} spec {}",
        w.name(),
        args.seed,
        PROCS,
        w.spec(args.seed).display()
    )];

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous inputs first, so set-up never holds two copies.
        drop(inputs.take());
        let t0 = Instant::now();
        let built = inputs::build(w, args.seed, &mut |g| g.next());
        setup_times.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let setup_s = median(&mut setup_times);

    let mut correct = true;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut sink = Sink::default();
    let mut walls = Vec::new();
    let mut heap_peaks = Vec::new();
    let mut heap_means = Vec::new();
    // Each timed pass's latency quantiles (microseconds) and sample count.
    // The reported quantiles are medians over passes: pooled samples let
    // the slowest passes decide the p99, since it falls on the largest
    // batches of all passes together.
    let (mut pass_p50, mut pass_p99) = (Vec::new(), Vec::new());
    let mut samples = 0usize;
    let mut first: Option<(u64, Verdict)> = None;

    // The warm-up pass is checked like the others but not timed.
    let window = Duration::from_secs_f64(args.seconds);
    let mut t_window = None;
    let mut pass_no = 0usize;
    loop {
        let timed = pass_no > 0;
        if timed
            && walls.len() >= MIN_PASSES
            && t_window.is_some_and(|t: Instant| t.elapsed() >= window)
        {
            break;
        }
        let out = match one_pass(w, &inputs, &mut sink) {
            Ok(out) => out,
            Err(e) => {
                notes.push(format!("pass {pass_no} failed: {e}"));
                correct = false;
                attempted += inputs.events as u64;
                failed += inputs.events as u64;
                break;
            }
        };
        let verdict = check(PROCS, &inputs.jobs, &out.recs);
        for p in &verdict.problems {
            notes.push(format!("pass {pass_no}: {p}"));
        }
        correct &= verdict.problems.is_empty();
        match &first {
            None => first = Some((out.hash, verdict.clone())),
            Some((hash, _)) if *hash != out.hash => {
                notes.push(format!(
                    "pass {pass_no}: placement hash {:016x} differs from {hash:016x}",
                    out.hash
                ));
                correct = false;
            }
            Some(_) => {}
        }
        if timed {
            attempted += inputs.events as u64;
            failed += verdict.failed;
            walls.push(out.wall);
            heap_peaks.push(out.heap_peak as f64 / MB);
            heap_means.push(out.heap_mean / MB);
            let mut lat = out.latency_ns;
            lat.sort_unstable();
            pass_p50.push(quantile(&lat, 0.50) as f64 / 1e3);
            pass_p99.push(quantile(&lat, 0.99) as f64 / 1e3);
            samples += lat.len();
        } else {
            t_window = Some(Instant::now());
        }
        pass_no += 1;
    }

    // Throughput over every timed pass: this host alternates between fast
    // and slow phases lasting seconds, under which the median pass flips
    // between the two modes while the total moves with their mix (see the
    // README's steadiness section).
    let timed_s: f64 = walls.iter().sum();
    let jobs_per_s = (inputs.decisions() * walls.len()) as f64 / timed_s;
    let median_pass_s = median(&mut walls.clone());
    let p50 = median(&mut pass_p50);
    let p99 = median(&mut pass_p99);
    let peak_heap_mb = median(&mut heap_peaks);
    let mean_heap_mb = median(&mut heap_means);
    let (hash, verdict) = first.unwrap_or_default();
    notes.push(format!(
        "timed passes {} over {timed_s:.3} s (median {median_pass_s:.4} s, min {:.4} s, max {:.4} s), placement hash {hash:016x}",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    ));
    notes.push(format!(
        "decision latency, median over the timed passes of each pass's quantile: p50 {p50:.3} us, p99 {p99:.3} us ({samples} samples, {} a pass)",
        samples / walls.len().max(1)
    ));
    notes.push(format!(
        "program heap at decisions {mean_heap_mb:.4} MB on average, peak {peak_heap_mb:.4} MB (medians over the timed passes); process VmHWM {:.1} MB, benchmark buffers included",
        vm_hwm_mb(),
    ));

    let metrics = if args.trace {
        match trace::run(w, args.seed, &inputs, median_pass_s, hash) {
            Ok(layers) => {
                notes.extend(layers.notes);
                correct &= layers.hash_matches;
                layers.metrics
            }
            Err(e) => {
                notes.push(format!("traced pass failed: {e}"));
                correct = false;
                Vec::new()
            }
        }
    } else {
        vec![
            ("jobs_per_s", jobs_per_s, "1/s"),
            ("decision_latency_p50_us", p50, "us"),
            ("decision_latency_p99_us", p99, "us"),
            ("setup_s", setup_s, "s"),
            ("mean_heap_mb", mean_heap_mb, "MB"),
            ("makespan", verdict.makespan, "time_unit"),
            (
                "weighted_mean_completion",
                verdict.weighted_mean_completion,
                "time_unit",
            ),
        ]
    };
    for (name, value, unit) in &metrics {
        notes.push(format!("{name} = {value} {unit}"));
    }
    Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted = [1, 2, 3, 4, 5, 7, 8, 9, 9, 10];
        assert_eq!(quantile(&sorted, 0.01), 1);
        assert_eq!(quantile(&sorted, 0.5), 5);
        assert_eq!(quantile(&sorted, 0.99), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
