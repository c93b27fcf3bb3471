//! End-to-end and per-layer benchmark of the mcmap design-space
//! exploration.
//!
//! ```text
//! cargo run --release --manifest-path dsebench/Cargo.toml -- \
//!     --workload <dtmed-ga|fleetmed-dse|fleetsmall-audit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times `mcmap_core::explore_checked` and reports the
//! end-to-end metrics; `--trace 1` runs the traced exploration and the
//! per-candidate replay and reports the per-layer metrics. Either way the
//! output is checked, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod layers;
mod stats;
mod trace;
mod workload;

use check::{check_outcome, front_digest, Fnv, Verdict};
use mcmap_core::{explore_checked, DseConfig};
use stats::median;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;
use workload::{host_cores, sub_seed, SetupSamples, Workload};

const USAGE: &str = "usage: dsebench --workload <dtmed-ga|fleetmed-dse|fleetsmall-audit> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Each exploration's system is set up at least `SETUP_REPS` times and
/// for at least `SETUP_SECS` seconds; spreading the set-up timings over
/// the whole run keeps a passing burst of host noise out of the median.
const SETUP_REPS: usize = 5;
const SETUP_SECS: f64 = 0.025;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of one run.
struct RunResult {
    attempted: usize,
    verdict: Verdict,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.ok(),
            self.attempted,
            self.verdict.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON syntax (JSON has no NaN or infinity).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_facts());
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_timed(&args)
    };
    for e in &result.verdict.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "check: {} ({} attempted, {} failed)",
        if result.verdict.ok() { "ok" } else { "FAILED" },
        result.attempted,
        result.verdict.failed()
    );
    for m in &result.metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Host facts: cores, evaluation-pool capacity, source revision, compiler
/// and build profile.
fn host_facts() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!(
        "host nproc={} pool_capacity={} git_rev={} rustc=\"{}\" profile={}",
        host_cores(),
        mcmap_eval::pool_capacity(),
        git_rev(),
        rustc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One checked exploration.
struct Explored {
    wall_s: f64,
    digest: u64,
}

/// Runs `explore_checked` once on a prepared system, then checks its
/// output (outside the timed call) into `v`.
fn explore_once(
    bench: &mcmap_benchmarks::Benchmark,
    cfg: &DseConfig,
    v: &mut Verdict,
) -> Option<Explored> {
    let t = Instant::now();
    let outcome = explore_checked(&bench.apps, &bench.arch, cfg.clone());
    let wall_s = t.elapsed().as_secs_f64();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            v.errors
                .push(format!("seed {}: explore_checked failed: {e}", cfg.ga.seed));
            v.bad_members += 1;
            return None;
        }
    };
    let digest = front_digest(&outcome.result.front, &outcome.reports);
    let checked = check_outcome(bench, cfg, &outcome);
    v.degraded += checked.degraded;
    v.bad_members += checked.bad_members;
    let seed = cfg.ga.seed;
    v.errors.extend(
        checked
            .errors
            .into_iter()
            .map(|e| format!("seed {seed}: {e}")),
    );
    println!(
        "explore seed={seed} tasks={} pes={} wall={wall_s:.6} s front={} feasible={} digest={digest:016x}",
        bench.apps.num_tasks(),
        bench.arch.num_processors(),
        outcome.reports.len(),
        outcome.reports.iter().filter(|r| r.feasible).count()
    );
    Some(Explored { wall_s, digest })
}

/// `--trace 0`: explorations with successive seeds until `--seconds` of
/// exploration have been timed; reports the median rate.
fn run_timed(args: &Args) -> RunResult {
    println!("{}", args.workload.facts(args.seed));
    let candidates = args.workload.candidates();
    let mut setup = SetupSamples::default();
    let mut v = Verdict::default();
    let mut rates = Vec::new();
    let mut timed = 0.0;
    let mut run_digest = Fnv::new();
    for i in 0.. {
        if timed >= args.seconds {
            break;
        }
        let (bench, cfg) =
            args.workload
                .setup(sub_seed(args.seed, i), SETUP_REPS, SETUP_SECS, &mut setup);
        let Some(e) = explore_once(&bench, &cfg, &mut v) else {
            break;
        };
        timed += e.wall_s;
        rates.push(candidates as f64 / e.wall_s);
        run_digest.u64(e.digest);
    }
    println!(
        "timed: {} exploration(s) of {candidates} candidates in {timed:.3} s, run digest {:016x}",
        rates.len(),
        run_digest.0
    );
    println!(
        "setup: {} set-up(s), median {:.9} s",
        setup.total.len(),
        median(&setup.total)
    );
    RunResult {
        attempted: candidates * rates.len().max(1),
        verdict: v,
        metrics: vec![
            Metric {
                name: "candidates_per_s".into(),
                value: median(&rates),
                unit: "1/s",
            },
            Metric {
                name: "setup_s".into(),
                value: median(&setup.total),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb".into(),
                value: peak_rss_mb(),
                unit: "MB",
            },
        ],
    }
}

/// `--trace 1`: alternating untraced and traced explorations of the run's
/// first seed until `--seconds` have passed, then a replay of every
/// distinct genome the first traced exploration submitted.
fn run_traced(args: &Args) -> RunResult {
    println!("{}", args.workload.facts(args.seed));
    let candidates = args.workload.candidates();
    let mut setup = SetupSamples::default();
    let (bench, cfg) =
        args.workload
            .setup(sub_seed(args.seed, 0), SETUP_REPS, SETUP_SECS, &mut setup);
    let mut v = Verdict::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let Some(e) = explore_once(&bench, &cfg, &mut v) else {
            break;
        };
        untraced.push(e.wall_s);
        let d = *first.get_or_insert(e.digest);
        same_front(d, e.digest, "untraced", &mut v);
        let t = trace::traced_dse(&bench, &cfg);
        same_front(
            d,
            front_digest(&t.result.front, &t.reports),
            "traced",
            &mut v,
        );
        traced.push(t);
    }
    let attempted = candidates * (untraced.len() + traced.len());
    let Some(run) = traced.first() else {
        return RunResult {
            attempted: attempted.max(1),
            verdict: v,
            metrics: Vec::new(),
        };
    };

    // Replay each distinct submitted genome once, in submission order.
    let problem = mcmap_core::MappingProblem::new(&bench.apps, &bench.arch, cfg.clone());
    let mut seen = HashSet::new();
    let mut pool = trace::PhenotypePool::new();
    let mut replays = Vec::new();
    let t = Instant::now();
    for (genome, eval) in &run.submitted {
        if !seen.insert(genome) {
            continue;
        }
        match trace::replay(&problem, &cfg, genome, eval, &mut pool) {
            Ok(c) => replays.push(c),
            Err(e) => {
                v.bad_members += 1;
                v.errors.push(format!("replay: {e}"));
            }
        }
    }
    println!(
        "traced: {} pair(s) of explorations, {} fresh candidate(s) replayed in {:.3} s",
        traced.len(),
        replays.len(),
        t.elapsed().as_secs_f64()
    );
    let metrics = layers::layer_metrics(&layers::LayerInputs {
        traced: &traced,
        untraced_walls: &untraced,
        replays: &replays,
        submitted: run.submitted.len(),
        threads: args.workload.threads_on_host(),
        generate_s: median(&setup.generate),
    });
    RunResult {
        attempted,
        verdict: v,
        metrics,
    }
}

/// Compares a repeated exploration's digest with the first one's.
fn same_front(first: u64, digest: u64, what: &str, v: &mut Verdict) {
    if digest != first {
        v.bad_members += 1;
        v.errors.push(format!(
            "{what} front digest {digest:016x} differs from {first:016x}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short dt-med exploration (the workloads' code path at test size).
    fn short(threads: usize) -> (mcmap_benchmarks::Benchmark, DseConfig) {
        let wl = Workload {
            population: 16,
            generations: 3,
            ..Workload::by_name("dtmed-ga").unwrap()
        };
        let bench = wl.build(5);
        let cfg = wl.config(&bench, 5, threads);
        (bench, cfg)
    }

    fn explored_digest(threads: usize) -> u64 {
        let (bench, cfg) = short(threads);
        let outcome = explore_checked(&bench.apps, &bench.arch, cfg.clone()).unwrap();
        assert!(check_outcome(&bench, &cfg, &outcome).ok());
        front_digest(&outcome.result.front, &outcome.reports)
    }

    #[test]
    fn front_digest_is_identical_at_one_and_two_threads() {
        assert_eq!(explored_digest(1), explored_digest(2));
    }

    #[test]
    fn traced_run_reproduces_the_explored_front_and_its_evaluations() {
        let (bench, cfg) = short(2);
        let t = trace::traced_dse(&bench, &cfg);
        assert_eq!(
            front_digest(&t.result.front, &t.reports),
            explored_digest(2)
        );
        assert_eq!(t.submitted.len(), 16 * 4);
        assert_eq!(t.batches.len(), 4);
        let problem = mcmap_core::MappingProblem::new(&bench.apps, &bench.arch, cfg.clone());
        let mut pool = trace::PhenotypePool::new();
        for (genome, eval) in &t.submitted {
            trace::replay(&problem, &cfg, genome, eval, &mut pool).unwrap();
        }
    }

    #[test]
    fn fleet_audit_replay_matches_the_dse() {
        let wl = Workload {
            population: 4,
            generations: 1,
            ..Workload::by_name("fleetsmall-audit").unwrap()
        };
        let bench = wl.build(3);
        let cfg = wl.config(&bench, 3, 1);
        let t = trace::traced_dse(&bench, &cfg);
        let problem = mcmap_core::MappingProblem::new(&bench.apps, &bench.arch, cfg.clone());
        let mut pool = trace::PhenotypePool::new();
        for (genome, eval) in &t.submitted {
            trace::replay(&problem, &cfg, genome, eval, &mut pool).unwrap();
        }
    }
}
