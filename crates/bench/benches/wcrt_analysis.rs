//! Criterion-compat harness for the Algorithm 1 **analysis fast path**
//! (warm-started scenario fixed points + dominance pruning), in two parts:
//!
//! 1. a macro A/B run over a heavily hardened DT-med design — the cold,
//!    prune-free reference enumeration ([`AnalysisOptions::reference`])
//!    against the default fast path — asserting **bit-identical** windows
//!    and verdicts while requiring strictly fewer backend calls;
//! 2. the same design with its droppable applications dropped, so the
//!    certainly-dropped and in-transition classes are exercised too:
//!    bit-identical windows asserted, timed and reported, no speed bound;
//! 3. criterion-timed legs of both variants for per-iteration figures.
//!
//! The macro part writes a machine-readable summary to
//! `results/BENCH_sched.json` (override the directory with
//! `MCMAP_BENCH_OUT`). Unlike the eval-engine bench, the speedup here *is*
//! asserted (`>= 1.5`): both variants run single-threaded in the same
//! process and the timing is interleaved min-of-batches (preemption can
//! only slow a batch down, never speed it up), so the ratio is a genuine
//! algorithmic measurement, not a core-count or host-load lottery.
//!
//! Budget knob: `MCMAP_ANALYSIS_ITERS` (default 300) timed repetitions per
//! variant, split over ten alternating batches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcmap_bench::env_usize;
use mcmap_benchmarks::{dt_med, Benchmark};
use mcmap_core::{analyze_with, AnalysisOptions, GenomeSpace, McAnalysis};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{AppId, ProcId};
use mcmap_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A benchmark design under analysis: the system, its hardened tasks, the
/// mapping and the dropped applications.
type Design = (Benchmark, HardenedSystem, Mapping, Vec<AppId>);

/// DT-med with every task hardened by two re-executions: every trigger
/// spawns a transition scenario whose bound vector inflates towards the
/// head tasks', which is exactly the workload the dominance pruner and the
/// warm starts are built for. The placement comes from the first clustered
/// chromosome whose reference analysis under `dropped` converges — and,
/// with a non-empty `dropped`, classifies some tasks as certainly dropped
/// and some as in transition — so both timed variants chase real fixed
/// points rather than saturating.
fn hardened_dt_med(drop_droppable: bool) -> Design {
    let b = dt_med();
    let mut plan = HardeningPlan::unhardened(&b.apps);
    for flat in 0..b.apps.task_refs().len() {
        plan.set_by_flat_index(flat, TaskHardening::reexecution(2));
    }
    let hsys = harden(&b.apps, &plan, &b.arch).expect("uniform re-execution plans are valid");
    let dropped: Vec<AppId> = if drop_droppable {
        b.apps.droppable_apps().collect()
    } else {
        Vec::new()
    };
    let space = GenomeSpace::new(&b.apps, &b.arch);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = space.clustered(&mut rng);
        let (_, _, bindings) = space.decode(&g);
        let placement: Vec<ProcId> = hsys
            .tasks()
            .map(|(_, t)| match t.fixed_proc {
                Some(p) => p,
                None => bindings[hsys.flat_of_origin(t.origin).expect("origin tracked")],
            })
            .collect();
        let Ok(mapping) = Mapping::new(&hsys, &b.arch, placement) else {
            continue;
        };
        let probe = analyze_with(
            &hsys,
            &b.arch,
            &mapping,
            &b.policies,
            &dropped,
            AnalysisOptions::reference(),
        );
        let classes_exercised =
            dropped.is_empty() || (probe.class_dropped > 0 && probe.class_transition > 0);
        if probe.normal.converged && probe.worst.converged && classes_exercised {
            return (b, hsys, mapping, dropped);
        }
    }
    panic!("no clustered DT-med placement converges under full re-execution");
}

fn run((b, hsys, mapping, dropped): &Design, opts: AnalysisOptions) -> McAnalysis {
    analyze_with(hsys, &b.arch, mapping, &b.policies, dropped, opts)
}

/// Wall time of `iters` repetitions of one variant, in seconds.
fn timed(design: &Design, opts: AnalysisOptions, iters: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(run(design, opts));
    }
    t0.elapsed().as_secs_f64()
}

/// Interleaved min-of-batches wall time of both variants: `batches`
/// alternating (cold, fast) batch timings of `per_batch` repetitions each,
/// keeping each variant's fastest batch. The minimum estimates the
/// undisturbed cost — a preempted batch can only be slower, never faster —
/// and interleaving exposes both variants to the same host-load phases, so
/// the ratio measures the algorithm instead of the scheduler.
fn min_walls(design: &Design, batches: usize, per_batch: usize) -> (f64, f64) {
    let mut best_cold = f64::INFINITY;
    let mut best_fast = f64::INFINITY;
    for _ in 0..batches {
        best_cold = best_cold.min(timed(design, AnalysisOptions::reference(), per_batch));
        best_fast = best_fast.min(timed(design, AnalysisOptions::default(), per_batch));
    }
    (best_cold, best_fast)
}

/// Runs both variants on one design, asserts that the fast path is an
/// optimization, not an approximation — identical windows, verdicts, and
/// classification; only the effort counters may differ — and times them.
/// Returns the two analyses and the two best-batch walls.
fn compare(
    label: &str,
    design: &Design,
    batches: usize,
    per_batch: usize,
) -> (McAnalysis, McAnalysis, f64, f64) {
    let (_, hsys, _, dropped) = design;
    let cold = run(design, AnalysisOptions::reference());
    let fast = run(design, AnalysisOptions::default());
    assert_eq!(cold.normal, fast.normal, "{label}: normal-state windows");
    assert_eq!(cold.worst, fast.worst, "{label}: worst-case windows");
    assert_eq!(
        cold.schedulable(hsys, dropped),
        fast.schedulable(hsys, dropped),
        "{label}: verdict"
    );
    assert_eq!(
        (
            cold.scenarios,
            cold.class_normal,
            cold.class_dropped,
            cold.class_transition,
            cold.class_critical
        ),
        (
            fast.scenarios,
            fast.class_normal,
            fast.class_dropped,
            fast.class_transition,
            fast.class_critical
        ),
        "{label}: classification"
    );
    // Warm both code paths above; now the timed legs, scored by the
    // fastest of the alternating batches (see [`min_walls`]).
    let (wall_cold, wall_fast) = min_walls(design, batches, per_batch);
    println!(
        "wcrt_analysis/{label}: cold {:.2} ms, fast {:.2} ms (best of {batches} \
         batches x {per_batch} iters; speedup x{:.2}; backend calls {} -> {}, \
         {} of {} scenarios pruned, {} warm iters saved; classes \
         normal/dropped/transition/critical {}/{}/{}/{})",
        wall_cold * 1e3,
        wall_fast * 1e3,
        wall_cold / wall_fast.max(1e-9),
        cold.backend_calls,
        fast.backend_calls,
        fast.scenarios_pruned,
        fast.scenarios,
        fast.warm_iters_saved,
        fast.class_normal,
        fast.class_dropped,
        fast.class_transition,
        fast.class_critical,
    );
    (cold, fast, wall_cold, wall_fast)
}

fn bench_wcrt_macro(c: &mut Criterion) {
    let design = hardened_dt_med(false);
    let iters = env_usize("MCMAP_ANALYSIS_ITERS", 300).max(1);
    let batches = 10;
    let per_batch = iters.div_ceil(batches);

    let (cold, fast, wall_cold, wall_fast) = compare("dt_med", &design, batches, per_batch);
    let speedup = wall_cold / wall_fast.max(1e-9);
    assert!(
        fast.backend_calls < cold.backend_calls,
        "pruning must strictly reduce backend calls ({} vs {})",
        fast.backend_calls,
        cold.backend_calls
    );
    assert!(
        fast.scenarios_pruned > 0,
        "the workload must exercise the pruner"
    );
    assert!(
        speedup >= 1.5,
        "the fast path must be at least 1.5x the cold enumeration (got x{speedup:.2})"
    );

    // The dropping case: bit identity only, no speed bound.
    let dropping = hardened_dt_med(true);
    let (drop_cold, drop_fast, drop_wall_cold, drop_wall_fast) =
        compare("dt_med_dropping", &dropping, batches, per_batch);

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    let json = format!(
        "{{\"benchmark\":\"dt-med-hardened\",\"tasks\":{},\"scenarios\":{},\
         \"batches\":{batches},\"iters_per_batch\":{per_batch},\
         \"wall_secs_cold\":{wall_cold:.6},\
         \"wall_secs_fast\":{wall_fast:.6},\"speedup\":{speedup:.3},\
         \"backend_calls_cold\":{},\"backend_calls_fast\":{},\
         \"scenarios_pruned\":{},\"warm_iters_saved\":{},\
         \"fixedpoint_iters_cold\":{},\"fixedpoint_iters_fast\":{},\
         \"windows_identical\":true,\
         \"dropping\":{{\"dropped_apps\":{},\"wall_secs_cold\":{drop_wall_cold:.6},\
         \"wall_secs_fast\":{drop_wall_fast:.6},\"backend_calls_cold\":{},\
         \"backend_calls_fast\":{},\"class_normal\":{},\"class_dropped\":{},\
         \"class_transition\":{},\"class_critical\":{},\"windows_identical\":true}}}}\n",
        design.1.num_tasks(),
        fast.scenarios,
        cold.backend_calls,
        fast.backend_calls,
        fast.scenarios_pruned,
        fast.warm_iters_saved,
        cold.fixedpoint_iters,
        fast.fixedpoint_iters,
        dropping.3.len(),
        drop_cold.backend_calls,
        drop_fast.backend_calls,
        drop_fast.class_normal,
        drop_fast.class_dropped,
        drop_fast.class_transition,
        drop_fast.class_critical,
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = format!("{out_dir}/BENCH_sched.json");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .expect("write BENCH_sched.json");
    println!("wcrt_analysis/dt_med: wrote {path}");

    // Criterion-timed legs for per-iteration figures (the asserts above
    // are the real gate).
    let mut group = c.benchmark_group("wcrt_analysis");
    group.sample_size(10);
    group.bench_function("dt_med/cold_reference", |bench| {
        bench.iter(|| run(&design, AnalysisOptions::reference()))
    });
    group.bench_function("dt_med/fast_path", |bench| {
        bench.iter(|| run(&design, AnalysisOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_wcrt_macro);
criterion_main!(benches);
