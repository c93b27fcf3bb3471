//! Determinism suite for the `mcmap-eval` candidate-evaluation engine and
//! the `mcmap-obs` tracing layer: the `--threads` knob must be *purely* a
//! speed knob. At a fixed seed, any thread count produces the same Pareto
//! front, objective vectors, and per-genome accounting; the memoization
//! cache is transparent — turning it off changes nothing but wall-clock —
//! and tracing is a read-only observer whose *canonical* event stream is
//! itself bit-identical for any thread count or cache capacity.

use mcmap::benchmarks::cruise;
use mcmap::core::{explore, DseConfig, DseOutcome, ObjectiveMode};
use mcmap::ga::GaConfig;
use mcmap::obs::{canonical_trace, Recorder};
use mcmap::telemetry::Registry;
use proptest::prelude::*;

fn outcome_with(threads: usize, cache_cap: usize, seed: u64) -> DseOutcome {
    outcome_traced(threads, cache_cap, seed, false)
}

fn outcome_traced(threads: usize, cache_cap: usize, seed: u64, traced: bool) -> DseOutcome {
    outcome_full(threads, 1, cache_cap, seed, traced, Registry::default()).0
}

/// The fully-knobbed exploration: worker threads, scenario threads, cache
/// capacity, optional tracing, and an optional metrics registry (returned
/// alongside so callers can snapshot it).
fn outcome_full(
    threads: usize,
    scenario_threads: usize,
    cache_cap: usize,
    seed: u64,
    traced: bool,
    telemetry: Registry,
) -> (DseOutcome, Registry) {
    let b = cruise();
    let analysis = mcmap::core::AnalysisOptions {
        scenario_threads,
        ..mcmap::core::AnalysisOptions::default()
    };
    let outcome = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 12,
                generations: 4,
                seed,
                threads,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            allow_dropping: true,
            policies: Some(b.policies.clone()),
            repair_iters: 40,
            cache_cap,
            analysis,
            obs: if traced {
                Recorder::ring(1 << 18)
            } else {
                Recorder::default()
            },
            telemetry: telemetry.clone(),
            ..DseConfig::default()
        },
    );
    (outcome, telemetry)
}

/// The canonicalized trace of an outcome (non-deterministic payload such as
/// wall-clock and cache hit/miss splits stripped).
fn trace_of(o: &DseOutcome) -> String {
    canonical_trace(&o.obs.events())
}

/// The full comparable state of an exploration: every front report
/// (feasibility, power, service, dropped set) in front order.
fn fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

#[test]
fn pareto_front_is_identical_for_1_2_and_8_threads() {
    let serial = outcome_with(1, 65_536, 8);
    let two = outcome_with(2, 65_536, 8);
    let eight = outcome_with(8, 65_536, 8);

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&two),
        "2 worker threads changed the Pareto front"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&eight),
        "8 worker threads changed the Pareto front"
    );

    // The engine accounts every submitted genome exactly once, so the
    // evaluation counts agree too (cache hit/miss split may differ across
    // thread counts — first-fill races are benign — but the genome and
    // batch totals may not).
    assert_eq!(serial.eval_stats.genomes, two.eval_stats.genomes);
    assert_eq!(serial.eval_stats.genomes, eight.eval_stats.genomes);
    assert_eq!(serial.eval_stats.batches, eight.eval_stats.batches);
    assert_eq!(serial.audit.evaluated, eight.audit.evaluated);
}

#[test]
fn canonical_trace_is_identical_for_1_2_and_8_threads() {
    let serial = outcome_traced(1, 65_536, 8, true);
    let two = outcome_traced(2, 65_536, 8, true);
    let eight = outcome_traced(8, 65_536, 8, true);

    // Tracing must not perturb the search itself…
    assert_eq!(fingerprint(&serial), fingerprint(&two));
    assert_eq!(fingerprint(&serial), fingerprint(&eight));
    let untraced = outcome_with(1, 65_536, 8);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&untraced),
        "tracing changed the Pareto front"
    );

    // …and the canonical event stream must itself be deterministic.
    let reference = trace_of(&serial);
    assert!(!reference.is_empty(), "traced run produced no events");
    assert_eq!(
        reference,
        trace_of(&two),
        "2 worker threads changed the canonical trace"
    );
    assert_eq!(
        reference,
        trace_of(&eight),
        "8 worker threads changed the canonical trace"
    );

    // The canonical rendering must not leak non-deterministic payload.
    assert!(!reference.contains("nondet"));
    assert!(!reference.contains("wall_ns"));
    assert!(!reference.contains("cache_hits"));
}

#[test]
fn canonical_trace_is_identical_for_any_cache_capacity() {
    let cached = outcome_traced(2, 65_536, 8, true);
    let tiny = outcome_traced(2, 64, 8, true);
    let bare = outcome_traced(1, 0, 8, true);

    assert_eq!(fingerprint(&cached), fingerprint(&bare));
    let reference = trace_of(&cached);
    assert_eq!(
        reference,
        trace_of(&tiny),
        "a 64-entry cache changed the canonical trace"
    );
    assert_eq!(
        reference,
        trace_of(&bare),
        "disabling the cache changed the canonical trace"
    );
}

/// The deterministic half of a metrics snapshot rendered as JSON — what
/// must be invariant across thread counts.
fn det_snapshot_of(reg: &Registry) -> String {
    reg.snapshot_canonical().to_json()
}

#[test]
fn canonical_trace_is_identical_with_telemetry_enabled_at_any_threads() {
    // Metrics collection must be a read-only observer exactly like
    // tracing: same front, same canonical trace, for any combination of
    // worker and scenario threads.
    let (serial, reg_serial) = outcome_full(1, 1, 65_536, 8, true, Registry::new());
    let (eight, reg_eight) = outcome_full(8, 1, 65_536, 8, true, Registry::new());
    let (scen, reg_scen) = outcome_full(2, 4, 65_536, 8, true, Registry::new());

    let untraced = outcome_with(1, 65_536, 8);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&untraced),
        "metrics collection changed the Pareto front"
    );
    assert_eq!(fingerprint(&serial), fingerprint(&eight));
    assert_eq!(fingerprint(&serial), fingerprint(&scen));

    let reference = trace_of(&serial);
    assert!(!reference.is_empty(), "traced run produced no events");
    assert_eq!(
        reference,
        trace_of(&eight),
        "metrics collection broke canonical-trace identity at 8 threads"
    );
    assert_eq!(
        reference,
        trace_of(&scen),
        "metrics collection broke canonical-trace identity with scenario threads"
    );

    // The deterministic metric classes themselves replay identically:
    // counters like eval.genomes and sched.candidates, and the
    // fixedpoint-iteration histogram, are functions of the run — not of
    // the schedule that executed it.
    let det = det_snapshot_of(&reg_serial);
    assert!(
        det.contains("eval.genomes") && det.contains("sched.candidates"),
        "canonical snapshot lost its deterministic instruments: {det}"
    );
    assert_eq!(
        det,
        det_snapshot_of(&reg_eight),
        "8 worker threads changed a deterministic metric"
    );
    assert_eq!(
        det,
        det_snapshot_of(&reg_scen),
        "scenario threads changed a deterministic metric"
    );
    // And the nondet classes stayed out of the canonical snapshot.
    assert!(!det.contains("batch_wall_ns"));
    assert!(!det.contains("analysis_ns"));
}

/// A smoke-budget exploration of a generated fleet preset: the same
/// determinism contract must hold on the workloads the parallel fan-out
/// was built for, including their deeper hardening spaces and composed
/// batch- + scenario-level fan-out.
fn fleet_outcome(threads: usize, scenario_threads: usize, seed: u64) -> DseOutcome {
    let preset = mcmap::benchmarks::fleet_small_config();
    let b = mcmap::benchmarks::fleet(&preset, 7);
    explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 8,
                generations: 2,
                seed,
                threads,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            allow_dropping: true,
            policies: Some(b.policies.clone()),
            repair_iters: 40,
            max_reexec: preset.max_reexec,
            max_replicas: preset.max_replicas,
            analysis: mcmap::core::AnalysisOptions {
                scenario_threads,
                ..mcmap::core::AnalysisOptions::default()
            },
            ..DseConfig::default()
        },
    )
}

#[test]
fn fleet_front_is_identical_for_any_thread_count() {
    let serial = fleet_outcome(1, 1, 8);
    let four = fleet_outcome(4, 1, 8);
    let composed = fleet_outcome(2, 4, 8);

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&four),
        "4 worker threads changed the fleet Pareto front"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&composed),
        "composed batch x scenario fan-out changed the fleet Pareto front"
    );
    assert_eq!(serial.eval_stats.genomes, four.eval_stats.genomes);
    assert_eq!(serial.audit.evaluated, composed.audit.evaluated);
}

#[test]
fn multi_generation_run_hits_the_cache() {
    let outcome = outcome_with(2, 65_536, 8);
    assert!(
        outcome.eval_stats.cache_hits > 0,
        "elitist re-evaluation across generations must produce cache hits"
    );
    assert!(outcome.eval_stats.hit_rate() > 0.0);
}

proptest! {
    // Each case is a full (small) exploration, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cache_on_and_cache_off_explorations_agree(
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let cached = outcome_with(threads, 65_536, seed);
        let bare = outcome_with(1, 0, seed);
        prop_assert_eq!(fingerprint(&cached), fingerprint(&bare));
        prop_assert_eq!(cached.eval_stats.genomes, bare.eval_stats.genomes);
        // With the cache disabled every lookup is a miss.
        prop_assert_eq!(bare.eval_stats.cache_hits, 0);
        prop_assert_eq!(bare.eval_stats.cache_misses, bare.eval_stats.genomes);
    }
}

/// FNV-1a digest of a front: every member's genome (allocation bits, keep
/// bits, per-task binding and hardening) with its feasibility, penalty and
/// objective bits, in front order.
fn front_digest(o: &DseOutcome) -> u64 {
    use mcmap::core::GeneHardening;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    put(o.result.front.len() as u64);
    for ind in &o.result.front {
        let g = &ind.genotype;
        for bits in [&g.alloc, &g.keep] {
            put(bits.len() as u64);
            bits.iter().for_each(|&b| put(u64::from(b)));
        }
        for gene in &g.genes {
            put(gene.binding.index() as u64);
            put(match gene.hardening {
                GeneHardening::None => 0,
                GeneHardening::Reexec(k) => 1 + u64::from(k),
                GeneHardening::Active { .. } => 1 << 8,
                GeneHardening::Passive { ref standbys, .. } => (2 << 8) + standbys.len() as u64,
            });
            let procs = gene.hardening.referenced_procs();
            put(procs.len() as u64);
            procs.iter().for_each(|p| put(p.index() as u64));
        }
        put(u64::from(ind.eval.feasible));
        put(ind.eval.penalty.to_bits());
        ind.eval.objectives.iter().for_each(|x| put(x.to_bits()));
    }
    h
}

/// Golden fronts: fixed digests of two small explorations, so that any
/// change to the repair RNG, the variation order or the evaluation order
/// shows up even when every thread count still agrees with every other.
#[test]
fn dt_med_front_matches_its_golden_digest() {
    let b = mcmap::benchmarks::dt_med();
    let outcome = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 16,
                generations: 3,
                seed: 5,
                threads: 2,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 80,
            ..DseConfig::default()
        },
    );
    assert_eq!(
        format!("{:016x}", front_digest(&outcome)),
        "7696cb2cb878f66a"
    );
}

#[test]
fn audited_fleet_front_matches_its_golden_digest() {
    let preset = mcmap::benchmarks::fleet_small_config();
    let b = mcmap::benchmarks::fleet(&preset, 3);
    let outcome = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 6,
                generations: 1,
                seed: 3,
                threads: 1,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 80,
            audit: true,
            max_reexec: preset.max_reexec,
            max_replicas: preset.max_replicas,
            ..DseConfig::default()
        },
    );
    let a = &outcome.audit;
    assert_eq!(
        (a.evaluated, a.feasible, a.audited, a.rescued_by_dropping),
        (12, 0, 12, 0)
    );
    assert_eq!(
        (
            a.reexecutions,
            a.active_replications,
            a.passive_replications
        ),
        (1829, 531, 566)
    );
    assert_eq!(
        format!("{:016x}", front_digest(&outcome)),
        "770366bb94ef15ae"
    );
}
