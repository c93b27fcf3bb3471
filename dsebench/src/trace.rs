//! The traced run: spans around calls into each layer's public functions,
//! taken from the benchmark's side so that no program code changes.
//!
//! Two levels:
//! - DSE level: [`traced_dse`] drives `mcmap_ga::optimize` over
//!   [`TracedProblem`], which delegates to a `MappingProblem` and times
//!   every evaluation batch.
//! - Candidate level: [`replay`] runs one genome through the evaluation
//!   pipeline layer by layer, timing each call, with the schedulability
//!   backend wrapped in [`TimedBackend`].

use mcmap_benchmarks::Benchmark;
use mcmap_core::{
    expected_power, lost_service, proposed_analysis_delta, repair_reliability, repair_structure,
    AnalysisSolutions, DesignReport, DseConfig, Genome, MappingProblem, TaskGene,
};
use mcmap_ga::{optimize, Evaluation, GaResult, Problem};
use mcmap_hardening::{harden, HardenedSystem, Reliability};
use mcmap_model::{AppId, ExecBounds, ProcId};
use mcmap_sched::{nominal_bounds, HolisticAnalysis, Mapping, SchedBackend, TaskWindows};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

/// One fixed-point run of the schedulability backend.
#[derive(Debug, Clone, Copy)]
pub struct FixpointRun {
    pub secs: f64,
    /// `TaskWindows::outer_iters` of the run.
    pub outer_iters: usize,
}

/// A [`SchedBackend`] that times every `analyze` / `analyze_from` call of
/// the backend it wraps and returns its windows unchanged.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    runs: Mutex<Vec<FixpointRun>>,
}

impl<B: SchedBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            runs: Mutex::new(Vec::new()),
        }
    }

    /// The runs recorded since the last call.
    pub fn take_runs(&self) -> Vec<FixpointRun> {
        std::mem::take(&mut *self.runs.lock().expect("run log poisoned"))
    }

    fn timed(&self, run: impl FnOnce() -> TaskWindows) -> TaskWindows {
        let t = Instant::now();
        let windows = run();
        let secs = t.elapsed().as_secs_f64();
        self.runs
            .lock()
            .expect("run log poisoned")
            .push(FixpointRun {
                secs,
                outer_iters: windows.outer_iters,
            });
        windows
    }
}

impl<B: SchedBackend> SchedBackend for TimedBackend<B> {
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
        self.timed(|| self.inner.analyze(bounds))
    }

    fn analyze_from(&self, bounds: &[ExecBounds], seed: &TaskWindows) -> TaskWindows {
        self.timed(|| self.inner.analyze_from(bounds, seed))
    }

    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
}

/// What the DSE-level wrapper records.
#[derive(Debug, Default)]
struct DseLog {
    /// Wall seconds of each evaluation batch.
    batches: Vec<f64>,
    /// Every submitted genome with the evaluation it received.
    submitted: Vec<(Genome, Evaluation)>,
}

/// A [`Problem`] that delegates every method to a `MappingProblem` and
/// records a span per evaluation batch plus the genomes submitted.
pub struct TracedProblem<'p, 'a> {
    inner: &'p MappingProblem<'a>,
    log: Mutex<DseLog>,
}

impl<'p, 'a> TracedProblem<'p, 'a> {
    pub fn new(inner: &'p MappingProblem<'a>) -> Self {
        TracedProblem {
            inner,
            log: Mutex::new(DseLog::default()),
        }
    }

    fn batch(&self, genomes: &[Genome], eval: impl FnOnce() -> Vec<Evaluation>) -> Vec<Evaluation> {
        let t = Instant::now();
        let evals = eval();
        let secs = t.elapsed().as_secs_f64();
        let mut log = self.log.lock().expect("dse log poisoned");
        log.batches.push(secs);
        log.submitted
            .extend(genomes.iter().cloned().zip(evals.iter().cloned()));
        evals
    }
}

impl Problem for TracedProblem<'_, '_> {
    type Genotype = Genome;

    fn random(&self, rng: &mut dyn RngCore) -> Genome {
        self.inner.random(rng)
    }

    fn crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> Genome {
        self.inner.crossover(a, b, rng)
    }

    fn mutate(&self, g: &mut Genome, rng: &mut dyn RngCore) {
        self.inner.mutate(g, rng)
    }

    fn evaluate(&self, g: &Genome) -> Evaluation {
        self.batch(std::slice::from_ref(g), || vec![self.inner.evaluate(g)])
            .remove(0)
    }

    fn evaluate_batch(&self, genotypes: &[Genome], threads: usize) -> Vec<Evaluation> {
        self.batch(genotypes, || self.inner.evaluate_batch(genotypes, threads))
    }

    fn evaluate_batch_with_parents(
        &self,
        genotypes: &[Genome],
        parents: &[Option<&Genome>],
        threads: usize,
    ) -> Vec<Evaluation> {
        self.batch(genotypes, || {
            self.inner
                .evaluate_batch_with_parents(genotypes, parents, threads)
        })
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }
}

/// One traced exploration.
pub struct TracedDse {
    /// Wall seconds of lint pre-flight + GA + front reports, the same
    /// stretch `explore_checked` covers.
    pub wall_s: f64,
    pub lint_s: f64,
    pub report_s: f64,
    pub batches: Vec<f64>,
    pub submitted: Vec<(Genome, Evaluation)>,
    pub result: GaResult<Genome>,
    pub reports: Vec<DesignReport>,
    /// Nanoseconds the evaluation workers spent inside the evaluation
    /// function (`EvalStats::eval_nanos`).
    pub eval_nanos: u64,
}

/// Runs the exploration `explore_checked` runs, through [`TracedProblem`].
pub fn traced_dse(bench: &Benchmark, cfg: &DseConfig) -> TracedDse {
    let start = Instant::now();
    let lint = mcmap_lint::Linter::new(&bench.apps, &bench.arch)
        .with_limits(cfg.max_reexec, cfg.max_replicas)
        .lint();
    let lint_s = start.elapsed().as_secs_f64();
    assert!(!lint.has_errors(), "workload fails the lint pre-flight");
    let inner = MappingProblem::new(&bench.apps, &bench.arch, cfg.clone());
    let traced = TracedProblem::new(&inner);
    let result = optimize(&traced, &cfg.ga);
    let t = Instant::now();
    let reports: Vec<DesignReport> = result
        .front
        .iter()
        .map(|ind| inner.report(&ind.genotype))
        .collect();
    let report_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let log = traced.log.into_inner().expect("dse log poisoned");
    TracedDse {
        wall_s,
        lint_s,
        report_s,
        batches: log.batches,
        submitted: log.submitted,
        result,
        reports,
        eval_nanos: inner.eval_stats().eval_nanos,
    }
}

/// The per-layer spans of one replayed candidate, in seconds.
#[derive(Debug, Clone, Default)]
pub struct CandidateTrace {
    /// `MappingProblem::decode_repaired`: structure repair + reliability
    /// repair + decode.
    pub decode_repaired: f64,
    /// `repair_structure` alone, on a copy.
    pub structure: f64,
    /// `GenomeSpace::decode` alone, on the repaired copy.
    pub decode: f64,
    /// `repair_reliability` ran out of iterations.
    pub unmet: bool,
    pub harden: f64,
    /// Placement from the bindings + `Mapping::new`.
    pub mapping: f64,
    /// `Reliability::new` + `check_all`.
    pub check: f64,
    /// `HolisticAnalysis::new` + `nominal_bounds`.
    pub context: f64,
    /// Algorithm 1 (`proposed_analysis_delta`) under the protocol's
    /// dropped set.
    pub alg1: f64,
    /// The audit's second Algorithm 1 run with nothing dropped.
    pub audit: Option<f64>,
    /// Backend runs of the protocol analysis and of the audit.
    pub fixpoints: Vec<FixpointRun>,
    pub audit_fixpoints: Vec<FixpointRun>,
    pub scenarios: usize,
    pub scenarios_pruned: usize,
    /// `expected_power` + `lost_service`.
    pub objectives: f64,
}

impl CandidateTrace {
    /// Reliability-repair seconds: the `decode_repaired` span minus its
    /// structure-repair and decode parts.
    pub fn reliability_repair(&self) -> f64 {
        (self.decode_repaired - self.structure - self.decode).max(0.0)
    }

    /// Seconds in backend fixed-point runs (protocol analysis and audit).
    pub fn fixpoint_secs(&self) -> f64 {
        self.fixpoints
            .iter()
            .chain(&self.audit_fixpoints)
            .map(|r| r.secs)
            .sum()
    }

    /// Algorithm 1 self time: both analyses minus their backend runs
    /// (classify, dedup, prune and fold).
    pub fn alg1_self(&self) -> f64 {
        (self.alg1 + self.audit.unwrap_or(0.0) - self.fixpoint_secs()).max(0.0)
    }

    /// The reliability check counts towards the candidate only where the
    /// DSE runs it: after the repair ran out of iterations.
    pub fn check_on_path(&self) -> f64 {
        if self.unmet {
            self.check
        } else {
            0.0
        }
    }

    /// Seconds of the candidate's evaluation path, layer by layer.
    pub fn total(&self) -> f64 {
        self.decode_repaired
            + self.harden
            + self.mapping
            + self.check_on_path()
            + self.context
            + self.alg1
            + self.audit.unwrap_or(0.0)
            + self.objectives
    }
}

/// The DSE's repair RNG of one genome, seeded from the repair-relevant
/// projection of the chromosome (allocation bits and genes) and the GA
/// seed, as `MappingProblem` seeds it. [`replay`] checks that the copy
/// repaired with it decodes exactly as `decode_repaired` does.
fn repair_rng(genome: &Genome, seed: u64) -> StdRng {
    let mut h = DefaultHasher::new();
    genome.alloc.hash(&mut h);
    genome.genes.hash(&mut h);
    seed.hash(&mut h);
    StdRng::seed_from_u64(h.finish())
}

/// The DSE's placement of a hardened system: fixed slots from the
/// hardening plan, primaries on their genome bindings.
fn placement(hsys: &HardenedSystem, bindings: &[ProcId]) -> Vec<ProcId> {
    hsys.tasks()
        .map(|(_, t)| match t.fixed_proc {
            Some(p) => p,
            None => {
                bindings[hsys
                    .flat_of_origin(t.origin)
                    .expect("primary origins are tracked")]
            }
        })
        .collect()
}

fn timed<T>(secs: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *secs = t.elapsed().as_secs_f64();
    out
}

/// Fixed-point solutions of the candidates replayed so far, keyed by their
/// repaired genes: the replay's counterpart of the DSE's phenotype pool,
/// so that a replayed candidate reuses backend runs where the DSE can.
pub type PhenotypePool = HashMap<Vec<TaskGene>, AnalysisSolutions>;

/// Replays one genome through the evaluation layers with a span per call,
/// and checks that the replay reaches the evaluation the DSE gave it.
pub fn replay(
    problem: &MappingProblem<'_>,
    cfg: &DseConfig,
    genome: &Genome,
    expected: &Evaluation,
    pool: &mut PhenotypePool,
) -> Result<CandidateTrace, String> {
    let (apps, arch, space) = (problem.apps(), problem.arch(), problem.space());
    let mut c = CandidateTrace::default();
    let (plan, dropped, bindings) =
        timed(&mut c.decode_repaired, || problem.decode_repaired(genome));

    // Split the repair span on a copy.
    let mut g = genome.clone();
    let mut rng = repair_rng(genome, cfg.ga.seed);
    timed(&mut c.structure, || {
        repair_structure(&mut g, space, &mut rng)
    });
    c.unmet = !repair_reliability(&mut g, space, apps, arch, &mut rng, cfg.repair_iters);
    let (plan2, dropped2, bindings2) = timed(&mut c.decode, || space.decode(&g));
    if plan2 != plan || dropped2 != dropped || bindings2 != bindings {
        return Err("repair replay decodes differently from decode_repaired".into());
    }

    let hsys = timed(&mut c.harden, || harden(apps, &plan, arch));
    let mapping = hsys.as_ref().ok().and_then(|hsys| {
        timed(&mut c.mapping, || {
            Mapping::new(hsys, arch, placement(hsys, &bindings)).ok()
        })
    });
    let (Ok(hsys), Some(mapping)) = (&hsys, mapping) else {
        // The DSE scores a system it cannot harden or map as infeasible.
        return if expected.feasible {
            Err("replay cannot harden or map a feasible candidate".into())
        } else {
            Ok(c)
        };
    };

    let reliable = timed(&mut c.check, || {
        Reliability::new(hsys, arch)
            .check_all(mapping.placement())
            .iter()
            .all(|v| v.satisfied)
    });
    let (backend, nominal) = timed(&mut c.context, || {
        let backend = TimedBackend::new(HolisticAnalysis::new(
            hsys,
            arch,
            &mapping,
            problem.policies().to_vec(),
        ));
        let nominal = nominal_bounds(hsys, arch, &mapping);
        (backend, nominal)
    });
    let analyze = |dropped: &[AppId], seed: Option<&AnalysisSolutions>| {
        proposed_analysis_delta(
            &backend,
            hsys,
            arch,
            &mapping,
            &nominal,
            dropped,
            cfg.analysis,
            seed,
        )
    };
    // With delta reuse on, the DSE seeds both analyses from earlier runs
    // of the same repaired genes, and the audit at least from the
    // candidate's own protocol run.
    let source = pool.get(&g.genes).filter(|_| cfg.delta).cloned();
    let (mc, mut solutions, _) = timed(&mut c.alg1, || analyze(&dropped, source.as_ref()));
    c.fixpoints = backend.take_runs();
    c.scenarios = mc.scenarios;
    c.scenarios_pruned = mc.scenarios_pruned;
    if cfg.audit && !dropped.is_empty() {
        let seed = cfg.delta.then(|| source.as_ref().unwrap_or(&solutions));
        let mut secs = 0.0;
        let (_, audit_solutions, _) = timed(&mut secs, || analyze(&[], seed));
        c.audit = Some(secs);
        c.audit_fixpoints = backend.take_runs();
        solutions.absorb(&audit_solutions);
    }
    if cfg.delta {
        match pool.get_mut(&g.genes) {
            Some(merged) => merged.absorb(&solutions),
            None => {
                pool.insert(g.genes.clone(), solutions);
            }
        }
    }
    let (power, lost) = timed(&mut c.objectives, || {
        (
            expected_power(
                hsys,
                arch,
                &mapping,
                &g.alloc,
                &dropped,
                cfg.critical_weight,
            ),
            lost_service(apps, &dropped),
        )
    });

    let feasible = mc.schedulable(hsys, &dropped) && (!c.unmet || reliable);
    let objectives = [power.to_bits(), lost.to_bits()];
    let evaluated: Vec<u64> = expected.objectives.iter().map(|x| x.to_bits()).collect();
    if evaluated != objectives || feasible != expected.feasible {
        return Err("replayed objectives or feasibility differ from the DSE's".into());
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_backend_returns_the_inner_windows_unchanged() {
        let b = mcmap_benchmarks::cruise();
        let problem = MappingProblem::new(&b.apps, &b.arch, DseConfig::default());
        let genome = problem.space().random(&mut StdRng::seed_from_u64(1));
        let (plan, _, bindings) = problem.decode_repaired(&genome);
        let hsys = harden(&b.apps, &plan, &b.arch).unwrap();
        let mapping = Mapping::new(&hsys, &b.arch, placement(&hsys, &bindings)).unwrap();
        let policies = problem.policies().to_vec();
        let plain = HolisticAnalysis::new(&hsys, &b.arch, &mapping, policies.clone());
        let timed = TimedBackend::new(HolisticAnalysis::new(&hsys, &b.arch, &mapping, policies));
        let nominal = nominal_bounds(&hsys, &b.arch, &mapping);
        let cold = plain.analyze(&nominal);
        assert_eq!(timed.analyze(&nominal), cold);
        assert_eq!(timed.num_tasks(), plain.num_tasks());
        let wide: Vec<ExecBounds> = nominal
            .iter()
            .map(|x| ExecBounds::new(x.bcet, x.wcet + x.wcet))
            .collect();
        assert_eq!(
            timed.analyze_from(&wide, &cold),
            plain.analyze_from(&wide, &cold)
        );
        let runs = timed.take_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].outer_iters, cold.outer_iters);
        assert!(timed.take_runs().is_empty());
    }
}
