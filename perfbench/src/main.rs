//! Wall-clock benchmark of Mitos.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <visit_count|step_loop|branchy_control> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed pass: a closed loop with one client submits
//! one job at a time through `mitos::Run`, alternating the simulator
//! (`Engine::Mitos`, 8 simulated machines on one thread) and the thread
//! driver (`Engine::MitosThreads`, one worker thread), and reports
//! end-to-end metrics. `--trace 1` is the separate per-layer pass (see
//! `layers.rs`). Either way every job is checked against the reference
//! interpreter, and the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod job;
mod layers;
mod report;
mod workload;

use job::{Oracle, SIM_MACHINES, THREAD_MACHINES};
use mitos::core::{planned_graph, EngineConfig, PathRules};
use mitos::{Engine, ObsLevel};
use report::{beyond, mean, median, percentile, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed no tuning looked at; a claimed gain is re-checked on it.
pub const HELDOUT_SEED: u64 = 7919;

/// Jobs per driver in one timed pass, at least: nearest-rank p90 then has
/// ten samples beyond it.
const MIN_JOBS: usize = 100;
/// The timed loop stops here even short of [`MIN_JOBS`], so a much slower
/// program still finishes its run.
const MAX_LOOP: Duration = Duration::from_secs(130);
/// Compile-and-plan repetitions behind `setup_s`, taken after every pair
/// of jobs so that they span the whole run, as the job samples do.
const SETUP_REPS: usize = 5;
/// `peak_rss_mb` is the median over this many fresh processes, each
/// running [`RSS_JOBS`] simulator jobs. One process's peak depends on its
/// allocation history (`HashMap` seeds differ per process), and it can
/// jump between two levels; the median settles on the usual one.
const RSS_PROBES: usize = 5;
const RSS_JOBS: usize = 8;

/// The end-to-end metrics of the timed pass, in emission order.
pub const E2E_METRICS: [&str; 7] = [
    "setup_s",
    "threads_job_ms_mean",
    "threads_job_ms_p90",
    "sim_job_ms_mean",
    "sim_job_ms_p90",
    "peak_rss_mb",
    "ok_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as one `peak_rss_mb` probe (see [`probe_rss`]).
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rss-probe" => rss_probe = number()? == 1,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let func = match mitos::compile(&w.src) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {}: program does not compile: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let oracle = match Oracle::new(&func, w.fs.clone()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::new(w.name);
    if args.rss_probe {
        let peak = sim_peak_rss(&func, &oracle, &mut tally);
        println!("{peak} {} {}", tally.attempted, tally.failed);
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench: workload {} seed {} (default {DEFAULT_SEED}, held out {HELDOUT_SEED}), \
         {} s, trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        layers::traced_pass(&w, &func, &oracle, budget, &mut tally)
    } else {
        let peak_rss_mb = probe_rss(&args, &mut tally);
        timed_pass(
            &w,
            &func,
            &oracle,
            budget,
            MIN_JOBS,
            peak_rss_mb,
            &mut tally,
        )
    };
    print!("{}", metrics.render());
    println!(
        "  jobs attempted {}, failed {} (failed_frac {} of {} jobs)",
        tally.attempted,
        tally.failed,
        tally.failed_frac(),
        tally.attempted
    );
    println!("{}", metrics.result_json(tally.attempted, tally.failed));
    ExitCode::SUCCESS
}

/// Jobs attempted and failed, with the first failures named.
pub struct Tally {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn new(workload: &'static str) -> Tally {
        Tally {
            workload,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one checked job; reports the first few failures by name.
    pub fn record<T>(&mut self, engine: Engine, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {} on {engine}: FAILED: {e}", self.workload);
                }
                None
            }
        }
    }

    /// Failed jobs over attempted jobs.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set, in bytes, of [`RSS_JOBS`] simulator jobs: `VmHWM`
/// reset after input generation and the reference run, then read after
/// the jobs. The simulator holds every machine's state in this one thread;
/// thread-driver residency depends on scheduling (queue backlogs,
/// per-thread allocator arenas) and is reported by `core.mem.peak_bytes`.
fn sim_peak_rss(func: &mitos::ir::FuncIr, oracle: &Oracle, tally: &mut Tally) -> u64 {
    if !layers::reset_peak_rss() {
        eprintln!("perfbench: could not reset VmHWM; peak_rss_mb covers the whole process");
    }
    for _ in 0..RSS_JOBS {
        let (_, r) = oracle.job(func, Engine::Mitos, SIM_MACHINES, ObsLevel::Off);
        tally.record(Engine::Mitos, r);
    }
    layers::peak_rss_bytes()
}

/// `peak_rss_mb`: the median of [`RSS_PROBES`] fresh processes running
/// [`sim_peak_rss`], one after another. Their jobs count toward `tally`.
fn probe_rss(args: &Args, tally: &mut Tally) -> f64 {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let seed = args.seed.to_string();
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--rss-probe", "1"])
            // glibc's mmap threshold held at its default starting value,
            // 128 KiB. Left dynamic, it rises each time a large mmapped
            // block is freed, later large blocks land on the heap, and
            // whether that memory is returned depends on the order of
            // frees: `branchy_control`'s peak read 12.0–19.0 MB by seed
            // and by process. Held fixed, 11.7–12.0 MB on every seed.
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let line = String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()?
                .to_string();
            let f: Vec<u64> = line.split(' ').filter_map(|x| x.parse().ok()).collect();
            (f.len() == 3).then(|| (f[0], f[1], f[2]))
        });
        match parsed {
            Some((peak, attempted, failed)) => {
                tally.attempted += attempted;
                tally.failed += failed;
                peaks.push(peak as f64 / (1024.0 * 1024.0));
            }
            None => {
                tally.record::<()>(Engine::Mitos, Err("peak-RSS probe process failed".into()));
            }
        }
    }
    if peaks.is_empty() {
        0.0
    } else {
        median(&peaks)
    }
}

/// Appends `SETUP_REPS` timings, in seconds, of compiling the program and
/// planning its dataflow job (`planned_graph` + `PathRules::build`): the
/// set-up every job pays.
fn time_setup(src: &str, samples: &mut Vec<f64>) {
    let config = EngineConfig::default();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let func = mitos::compile(std::hint::black_box(src)).expect("program compiled before");
        let graph = planned_graph(&func, &config).expect("program planned before");
        std::hint::black_box(PathRules::build(&graph));
        samples.push(start.elapsed().as_secs_f64());
    }
}

/// The end-to-end pass: a closed loop alternating one simulator job and
/// one thread-driver job until `budget` has passed and each driver has at
/// least `min_jobs` samples, with set-up timings taken between pairs.
fn timed_pass(
    w: &workload::Workload,
    func: &mitos::ir::FuncIr,
    oracle: &Oracle,
    budget: Duration,
    min_jobs: usize,
    peak_rss_mb: f64,
    tally: &mut Tally,
) -> Metrics {
    // Warm-up: one job per driver, checked but not sampled.
    for (engine, machines) in [
        (Engine::Mitos, SIM_MACHINES),
        (Engine::MitosThreads, THREAD_MACHINES),
    ] {
        let (_, r) = oracle.job(func, engine, machines, ObsLevel::Off);
        tally.record(engine, r);
    }
    let mut setup_s = Vec::new();
    let mut sim_ms = Vec::new();
    let mut threads_ms = Vec::new();
    let start = Instant::now();
    while (start.elapsed() < budget || sim_ms.len() < min_jobs || threads_ms.len() < min_jobs)
        && start.elapsed() < MAX_LOOP
    {
        for (engine, machines, samples) in [
            (Engine::Mitos, SIM_MACHINES, &mut sim_ms),
            (Engine::MitosThreads, THREAD_MACHINES, &mut threads_ms),
        ] {
            let (wall, r) = oracle.job(func, engine, machines, ObsLevel::Off);
            samples.push(wall.as_secs_f64() * 1e3);
            tally.record(engine, r);
        }
        time_setup(&w.src, &mut setup_s);
    }
    if beyond(sim_ms.len().min(threads_ms.len()), 90.0) < report::MIN_BEYOND {
        eprintln!(
            "perfbench: only {}/{} sim/threads jobs ran; p90 has fewer than {} samples beyond it",
            sim_ms.len(),
            threads_ms.len(),
            report::MIN_BEYOND
        );
    }
    sim_ms.sort_by(f64::total_cmp);
    threads_ms.sort_by(f64::total_cmp);
    println!(
        "  samples: {} sim jobs, {} threads jobs in {:.1} s (closed loop, one client); \
         p50 {:.3} ms sim, {:.3} ms threads (not gated)",
        sim_ms.len(),
        threads_ms.len(),
        start.elapsed().as_secs_f64(),
        percentile(&sim_ms, 50.0),
        percentile(&threads_ms, 50.0)
    );
    let values = [
        (median(&setup_s), "s"),
        (mean(&threads_ms), "ms"),
        (percentile(&threads_ms, 90.0), "ms"),
        (mean(&sim_ms), "ms"),
        (percentile(&sim_ms, 90.0), "ms"),
        (peak_rss_mb, "MB"),
        (1.0 - tally.failed_frac(), "ratio"),
    ];
    let mut m = Metrics::default();
    for (name, (value, unit)) in E2E_METRICS.into_iter().zip(values) {
        m.put(name, value, unit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `key` in `BENCHMARK.json` (keys appear in
    /// the order workloads, end_to_end, per_layer).
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let keys = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""];
        let at = |k: &str| text.find(k).unwrap_or_else(|| panic!("{k} missing"));
        let i = keys
            .iter()
            .position(|k| k.trim_matches('"') == key)
            .unwrap();
        let end = keys.get(i + 1).map_or(text.len(), |k| at(k));
        text[at(keys[i])..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn setup(name: &str) -> (workload::Workload, mitos::ir::FuncIr, Oracle) {
        let w = workload::build(name, DEFAULT_SEED).unwrap();
        let func = mitos::compile(&w.src).unwrap();
        let oracle = Oracle::new(&func, w.fs.clone()).unwrap();
        (w, func, oracle)
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_end_to_end_metrics() {
        assert_eq!(declared("workloads"), workload::NAMES);
        assert_eq!(declared("end_to_end"), E2E_METRICS);
        for name in declared("per_layer") {
            assert!(report::valid_name(&name), "{name}");
        }
    }

    #[test]
    fn every_end_to_end_metric_for_every_workload() {
        for name in workload::NAMES {
            let (w, func, oracle) = setup(name);
            let mut tally = Tally::new(w.name);
            let rss = sim_peak_rss(&func, &oracle, &mut tally) as f64 / (1024.0 * 1024.0);
            let m = timed_pass(&w, &func, &oracle, Duration::ZERO, 3, rss, &mut tally);
            assert_eq!(m.names().collect::<Vec<_>>(), E2E_METRICS, "{name}");
            assert_eq!(tally.failed, 0, "{name}");
            assert_eq!(m.get("ok_frac"), Some(1.0), "{name}");
            assert!(m.get("setup_s").unwrap() > 0.0, "{name}");
        }
    }

    #[test]
    fn every_per_layer_metric_for_every_workload() {
        let declared = declared("per_layer");
        for name in workload::NAMES {
            let (w, func, oracle) = setup(name);
            let mut tally = Tally::new(w.name);
            let m = layers::traced_pass(&w, &func, &oracle, Duration::ZERO, &mut tally);
            assert_eq!(m.names().collect::<Vec<_>>(), declared, "{name}");
            assert_eq!(tally.failed, 0, "{name}");
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::new("x");
        assert_eq!(t.record(Engine::Mitos, Ok::<_, String>(1)), Some(1));
        assert_eq!(t.record::<()>(Engine::Mitos, Err("bad".into())), None);
        assert_eq!((t.attempted, t.failed, t.failed_frac()), (2, 1, 0.5));
    }
}
