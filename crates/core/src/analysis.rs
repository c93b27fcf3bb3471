//! Mixed-criticality, fault-tolerance-aware WCRT analysis.
//!
//! This module is the heart of the reproduction: Algorithm 1 of the paper
//! ([`proposed_analysis`]) together with the two static comparison points of
//! §5.1, [`naive_analysis`] and [`adhoc_analysis`].
//!
//! All three are *wrappers* over a pluggable [`SchedBackend`]; the proposed
//! analysis enumerates the possible normal→critical state transitions and
//! re-runs the backend with per-task execution bounds modified according to
//! the chronological information of each transition, which is exactly what
//! removes the pessimism of the naive treatment.

use mcmap_eval::parallel_map;
use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{AppId, Architecture, ExecBounds, Time};
use mcmap_sched::{
    nominal_bounds, HolisticAnalysis, Mapping, SchedBackend, SchedPolicy, TaskWindows,
};
use mcmap_sim::{ExhaustiveReexecution, SimConfig, Simulator};
use std::borrow::Cow;
use std::collections::HashMap;

/// Tuning knobs of the scenario-level WCRT fast path.
///
/// `warm_start` and `scenario_threads` never change the [`McAnalysis`]
/// windows and verdicts, and neither does `prune` as long as every
/// pruned vector's dominator converges (see `DESIGN.md` §15 for the
/// argument). A dominator that diverges stops with partial windows, and
/// then `prune` can change the response times of an unschedulable
/// candidate — an open defect (ROADMAP, "Dominance pruning trusts
/// diverged dominators"). The knobs are meant to trade only wall time for
/// backend work, so they are deliberately *not* part of any result
/// fingerprint. The effort counters ([`McAnalysis::backend_calls`],
/// [`McAnalysis::fixedpoint_iters`], [`McAnalysis::scenarios_pruned`],
/// [`McAnalysis::warm_iters_saved`]) report the work *actually performed*
/// and therefore change — still deterministically — with
/// `warm_start`/`prune` (never with `scenario_threads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Seed each scenario fixed point from the normal-state solution
    /// whenever the scenario's bounds pointwise contain the normal-state
    /// bounds ([`SchedBackend::analyze_from`]).
    pub warm_start: bool,
    /// Skip backend runs for scenarios whose bound vector is pointwise
    /// dominated by another scenario's: by backend monotonicity the
    /// dominating run's windows contain the dominated one's, so folding the
    /// dominated scenario into the worst case is a no-op.
    pub prune: bool,
    /// Worker threads for independent scenario runs of one candidate
    /// (`<= 1` runs inline). Results are order-preserved and identical for
    /// any thread count.
    pub scenario_threads: usize,
}

impl Default for AnalysisOptions {
    /// The fast path: warm starts and pruning on, serial scenario runs.
    fn default() -> Self {
        Self {
            warm_start: true,
            prune: true,
            scenario_threads: 1,
        }
    }
}

impl AnalysisOptions {
    /// The cold, prune-free reference enumeration — one cold backend run
    /// per distinct scenario, exactly the pre-fast-path behavior. Used by
    /// the equivalence proptests and the `wcrt_analysis` bench baseline.
    pub fn reference() -> Self {
        Self {
            warm_start: false,
            prune: false,
            scenario_threads: 1,
        }
    }
}

/// `true` when every `[bcet, wcet]` interval of `a` contains the
/// corresponding interval of `b` — the pointwise-dominance order of the
/// scenario fast path (`a` dominates `b`).
fn dominates(a: &[ExecBounds], b: &[ExecBounds]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.bcet <= y.bcet && x.wcet >= y.wcet)
}

/// The reusable fixed-point solutions of one candidate's analysis: the
/// normal-state run plus every scenario run the backend actually performed,
/// each keyed by the exact bound vector it solved.
///
/// Nothing in the workspace reuses solutions; this type,
/// [`AnalysisSolutions::absorb`] and [`proposed_analysis_delta`] remain only
/// because the `dsebench` benchmark's replay calls them, and go with the
/// next change to that benchmark.
///
/// Captured by [`proposed_analysis_delta`] and fed back as the `parent` of
/// a later analysis. A solution is reused **only** when its bound vector is
/// bit-equal to the one the child is about to solve — and scenario
/// solutions additionally require the normal-state vectors to coincide
/// *and* the stored warm-gate decision to match the child's,
/// because a warm-started run's iteration counters depend on the seeding
/// solution. The caller must guarantee the parent solutions were
/// produced by an identically-behaving backend (same hardened system,
/// architecture, mapping, and policies), e.g. by checking that the
/// repaired genes are equal.
///
/// Under those gates the backend — a deterministic pure function of its
/// bound vector (and warm seed) — would return exactly the stored windows,
/// *including* `outer_iters`, so every deterministic effort counter of the
/// resulting [`McAnalysis`] keeps its as-if-freshly-computed value, even
/// when the parent was analyzed under different [`AnalysisOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSolutions {
    /// The normal-state bound vector the `normal` solution solves.
    pub normal_bounds: Vec<ExecBounds>,
    /// The normal-state fixed-point solution.
    pub normal: TaskWindows,
    /// Every scenario run performed: `(bound vector, solution, warmed)`,
    /// where `warmed` records whether the run was warm-started from the
    /// normal-state solution.
    pub runs: Vec<(Vec<ExecBounds>, TaskWindows, bool)>,
}

impl AnalysisSolutions {
    /// Folds `extra`'s scenario runs into `self`, skipping runs whose
    /// `(bound vector, warmed)` key is already present. A no-op when the
    /// normal-state vectors differ (the sets then stem from different
    /// systems and must not be mixed). Callers must uphold the same
    /// same-backend obligation as [`proposed_analysis_delta`]'s `parent`:
    /// under it, equal keys imply bit-equal windows, so merging variants
    /// of one phenotype (e.g. across dropped sets) is lossless.
    pub fn absorb(&mut self, extra: &AnalysisSolutions) {
        if self.normal_bounds != extra.normal_bounds {
            return;
        }
        for (v, w, warmed) in &extra.runs {
            if !self.runs.iter().any(|(v2, _, w2)| v2 == v && w2 == warmed) {
                self.runs.push((v.clone(), w.clone(), *warmed));
            }
        }
    }
}

/// Result of the mixed-criticality analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct McAnalysis {
    /// Windows of the fault-free (normal) state: passive replicas pinned to
    /// `[0, 0]`, no re-executions, nothing dropped.
    pub normal: TaskWindows,
    /// Per-task worst case over the normal state **and** every possible
    /// state transition (the return value of Algorithm 1, computed for all
    /// tasks at once).
    pub worst: TaskWindows,
    /// Number of transition scenarios analyzed (one per trigger task).
    pub scenarios: usize,
    /// Number of backend invocations actually performed: the normal-state
    /// run plus one per *distinct, non-pruned* scenario bound-vector —
    /// triggers whose transitions classify every task identically share one
    /// run, and dominated vectors are skipped entirely when pruning is on.
    pub backend_calls: usize,
    /// Per analyzed scenario: the trigger task and the per-application
    /// worst-case response times of that scenario (diagnostic only). For a
    /// pruned scenario these are the *dominating* run's response times — a
    /// safe upper bound on the scenario's own.
    pub scenario_app_wcrt: Vec<(HTaskId, Vec<Time>)>,
    /// Task classifications across all transition scenarios: completed
    /// before the fault could occur (normal bounds kept).
    pub class_normal: usize,
    /// Classifications: certainly dropped (`[0, 0]`).
    pub class_dropped: usize,
    /// Classifications: in transition — maybe dropped (`[0, wcet]`).
    pub class_transition: usize,
    /// Classifications: critical (Eq. 1 bounds), including the triggers.
    pub class_critical: usize,
    /// Total fixed-point iterations across the normal-state run and every
    /// *distinct* scenario the backend actually analyzed.
    pub fixedpoint_iters: usize,
    /// Distinct scenario bound-vectors whose backend run was skipped
    /// because another analyzed scenario pointwise dominates them (their
    /// windows are bounded by — and their diagnostics taken from — the
    /// dominating run). Always 0 with [`AnalysisOptions::reference`].
    pub scenarios_pruned: usize,
    /// Estimated fixed-point sweeps avoided by warm-starting scenario runs
    /// from the normal-state solution, using the normal-state run's
    /// iteration count as the cold-run proxy (a cold scenario run starts
    /// from the same floor). Deterministic; 0 when warm starts are off.
    pub warm_iters_saved: usize,
}

impl McAnalysis {
    /// Worst-case response time of an application under the
    /// mixed-criticality protocol: applications in the dropped set only
    /// answer for their *normal-state* response (once dropped they provide
    /// no service and have no deadline to meet); everything else answers
    /// over all scenarios.
    pub fn app_wcrt(&self, hsys: &HardenedSystem, app: AppId, dropped: &[AppId]) -> Time {
        if dropped.contains(&app) {
            self.normal.app_wcrt(hsys, app)
        } else {
            self.worst.app_wcrt(hsys, app)
        }
    }

    /// The trigger task whose transition scenario produces the largest
    /// response time for `app` — `None` when the fault-free state already
    /// binds the WCRT (or the app has no tasks). Useful for explaining a
    /// design: "the binding fault is in `wheel_pulse`".
    pub fn binding_trigger(&self, hsys: &HardenedSystem, app: AppId) -> Option<HTaskId> {
        let normal = self.normal.app_wcrt(hsys, app);
        self.scenario_app_wcrt
            .iter()
            .map(|(trigger, wcrt)| (*trigger, wcrt[app.index()]))
            .filter(|&(_, w)| w > normal)
            .max_by_key(|&(_, w)| w)
            .map(|(trigger, _)| trigger)
    }

    /// `true` when every application meets its deadline under the protocol
    /// (dropped applications in the normal state, all others in every
    /// scenario).
    pub fn schedulable(&self, hsys: &HardenedSystem, dropped: &[AppId]) -> bool {
        self.normal.converged
            && self.worst.converged
            && hsys
                .apps()
                .iter()
                .all(|happ| self.app_wcrt(hsys, happ.app, dropped) <= happ.deadline)
    }
}

/// Execution bounds of the normal (fault-free) state: nominal bounds with
/// passive replicas pinned to `[0, 0]` (Algorithm 1, lines 2–6).
pub fn normal_state_bounds(hsys: &HardenedSystem, nominal: &[ExecBounds]) -> Vec<ExecBounds> {
    let mut bounds = nominal.to_vec();
    for (id, t) in hsys.tasks() {
        if t.is_passive() {
            bounds[id.index()] = ExecBounds::ZERO;
        }
    }
    bounds
}

/// Critical-state WCET of a task on its mapped processor: Eq. (1).
fn critical_wcet(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    id: HTaskId,
) -> Time {
    let kind = arch.processor(mapping.proc_of(id)).kind;
    hsys.task(id)
        .critical_wcet(kind)
        .expect("mapped processors are kind-compatible")
}

/// **Algorithm 1** of the paper, generic over the schedulability backend.
///
/// For every task `v` that may trigger a normal→critical transition
/// (re-execution hardened or passively replicated), the bounds of every
/// other task `w` are rewritten based on the *normal-state* windows:
///
/// * `maxFinish_w < minStart_v` — `w` completed before the first fault
///   could occur: normal bounds (passive replicas stay `[0, 0]`);
/// * otherwise, if `w` belongs to a dropped application:
///   `minStart_w > maxFinish_v` — certainly dropped, `[0, 0]`; else in
///   transition, `[0, wcet_w]`;
/// * otherwise (non-droppable in the critical state): `[bcet_w, Eq. (1)]`
///   (passive replicas get `[0, Eq. (1)]` — they may or may not be
///   invoked).
///
/// The trigger `v` itself executes through its fault: `[bcet_v, Eq. (1)]`.
///
/// Returns the per-task maximum over the normal state and all transitions.
///
/// Runs with the default [`AnalysisOptions`] (the fast path); see
/// [`proposed_analysis_with`] to pick different knobs.
pub fn proposed_analysis<B: SchedBackend + Sync + ?Sized>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
) -> McAnalysis {
    proposed_analysis_with(
        backend,
        hsys,
        arch,
        mapping,
        nominal,
        dropped,
        AnalysisOptions::default(),
    )
}

/// [`proposed_analysis`] with explicit fast-path knobs.
///
/// The enumeration runs in three deterministic stages: (1) classify every
/// trigger's transition scenario into a bound vector and deduplicate the
/// vectors; (2) when pruning is on, drop every vector that is pointwise
/// dominated by another and remember its first *maximal* dominator; (3)
/// run the backend once per surviving vector — warm-started from the
/// normal-state solution when the vector contains the normal-state bounds
/// — optionally fanned out over the order-preserving worker pool, then
/// fold the worst case and resolve per-scenario diagnostics (pruned
/// scenarios report their dominator's windows).
///
/// Stage (1) does not classify task by task per trigger. Every task other
/// than the trigger is classified by two thresholds of the trigger alone —
/// its normal-state `minStart` and `maxFinish` — and the tasks a threshold
/// selects are a prefix (or suffix) of one order sorted once per analysis.
/// So the pair of selected-set sizes is a key that fixes the whole vector
/// up to the trigger's own entry: each key's vector and class counts are
/// built once, and a trigger costs two binary searches (`DESIGN.md` §15).
pub fn proposed_analysis_with<B: SchedBackend + Sync + ?Sized>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
    opts: AnalysisOptions,
) -> McAnalysis {
    enumerate(backend, hsys, arch, mapping, nominal, dropped, opts, None).mc
}

/// [`proposed_analysis_with`] with incremental solution reuse. Its last
/// caller is the `dsebench` benchmark's replay; it goes with the next
/// change to that benchmark.
///
/// In addition to the [`McAnalysis`], returns the candidate's own
/// [`AnalysisSolutions`] (for reuse by *its* children) and the number of
/// backend runs satisfied from `parent` instead of being recomputed. The
/// result — every field of the `McAnalysis`, including all deterministic
/// effort counters — is **bit-identical** with or without a parent; reuse
/// only skips recomputing values the bit-equality gates prove equal (see
/// [`AnalysisSolutions`] for the argument and the caller obligation).
#[allow(clippy::too_many_arguments)]
pub fn proposed_analysis_delta<B: SchedBackend + Sync + ?Sized>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
    opts: AnalysisOptions,
    parent: Option<&AnalysisSolutions>,
) -> (McAnalysis, AnalysisSolutions, usize) {
    let e = enumerate(backend, hsys, arch, mapping, nominal, dropped, opts, parent);
    let solutions = AnalysisSolutions {
        normal_bounds: e.normal_bounds,
        normal: e.mc.normal.clone(),
        runs: e.runs,
    };
    (e.mc, solutions, e.reused)
}

/// One Algorithm 1 enumeration: the analysis plus, by move rather than by
/// copy, the pieces [`proposed_analysis_delta`] captures.
struct Enumeration {
    mc: McAnalysis,
    normal_bounds: Vec<ExecBounds>,
    /// Every backend run performed: `(bound vector, windows, warmed)`.
    runs: Vec<(Vec<ExecBounds>, TaskWindows, bool)>,
    /// Backend runs satisfied from the parent's solutions.
    reused: usize,
}

/// Class counts of one scenario, in the order normal, certainly dropped,
/// in transition, critical.
type ClassCounts = [usize; 4];
const NORMAL: usize = 0;
const DROPPED: usize = 1;
const TRANSITION: usize = 2;
const CRITICAL: usize = 3;

/// The bound vector and class counts shared by every trigger with one
/// threshold key, with the trigger treated like any other task.
struct KeyedScenario {
    bounds: Vec<ExecBounds>,
    counts: ClassCounts,
    /// Index of `bounds` among the distinct vectors, once a trigger used it
    /// unpatched.
    distinct: Option<usize>,
}

/// Returns the index of `bounds` among the distinct vectors interned so
/// far, interning an owned copy on a miss (first-occurrence order).
fn intern(index_of: &mut HashMap<Vec<ExecBounds>, usize>, bounds: Cow<'_, [ExecBounds]>) -> usize {
    if let Some(&i) = index_of.get(bounds.as_ref()) {
        return i;
    }
    let i = index_of.len();
    index_of.insert(bounds.into_owned(), i);
    i
}

/// The shared core of [`proposed_analysis_with`] and
/// [`proposed_analysis_delta`].
#[allow(clippy::too_many_arguments)]
fn enumerate<B: SchedBackend + Sync + ?Sized>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
    opts: AnalysisOptions,
    parent: Option<&AnalysisSolutions>,
) -> Enumeration {
    let n = hsys.num_tasks();
    assert_eq!(nominal.len(), n, "one bound per hardened task required");

    let normal_bounds = normal_state_bounds(hsys, nominal);
    // The parent's solutions apply only when the normal-state vectors
    // coincide bit-for-bit; scenario reuse is gated on the same check
    // because warm-started runs are seeded from the normal solution.
    let reusable = parent.filter(|p| p.normal_bounds == normal_bounds);
    let (normal, normal_reused) = match reusable {
        Some(p) => (p.normal.clone(), true),
        None => (backend.analyze(&normal_bounds), false),
    };

    // Per task: membership in a dropped application, and the bounds it
    // gets once the critical state may have begun — Eq. 1 for kept tasks
    // (passive replicas may or may not be invoked: `[0, Eq. 1]`), `[0,
    // wcet]` for tasks of dropped applications (executed or dropped). The
    // latter is also a trigger's own entry: a trigger executes through its
    // fault, except that one of a *dropped* application is discarded
    // instead of re-executed the moment its fault is detected.
    let is_dropped: Vec<bool> = hsys
        .tasks()
        .map(|(_, t)| dropped.contains(&t.app))
        .collect();
    let elevated: Vec<ExecBounds> = hsys
        .tasks()
        .map(|(w, wt)| {
            if is_dropped[w.index()] {
                ExecBounds::new(Time::ZERO, nominal[w.index()].wcet)
            } else {
                let bcet = if wt.is_passive() {
                    Time::ZERO
                } else {
                    nominal[w.index()].bcet
                };
                ExecBounds::new(bcet, critical_wcet(hsys, arch, mapping, w))
            }
        })
        .collect();
    // The class of task `w` under trigger thresholds `(min_start, max_finish)`.
    let class_of = |w: usize, v_min_start: Time, v_max_finish: Time| {
        if normal.max_finish[w] < v_min_start {
            NORMAL // completed before the fault could occur
        } else if !is_dropped[w] {
            CRITICAL // may re-execute (Eq. 1)
        } else if normal.min_start[w] > v_max_finish {
            DROPPED // starts after the transition completed: never released
        } else {
            TRANSITION // either executed or dropped
        }
    };
    // The tasks classified normal are a prefix of the ascending normal
    // `maxFinish` order; the dropped-application tasks certainly dropped
    // (before excluding the normal ones) are a suffix of their ascending
    // normal `minStart` order. The two sizes key the whole classification.
    let mut finishes = normal.max_finish.clone();
    finishes.sort_unstable();
    let mut dropped_starts: Vec<Time> = (0..n)
        .filter(|&w| is_dropped[w])
        .map(|w| normal.min_start[w])
        .collect();
    dropped_starts.sort_unstable();

    let mut classes: ClassCounts = [0; 4];
    let mut keyed: HashMap<(usize, usize), KeyedScenario> = HashMap::new();
    // Distinct bound-vectors, indexed in first-occurrence order. Two
    // triggers with identical windows produce identical scenarios;
    // analyzing one suffices.
    let mut index_of: HashMap<Vec<ExecBounds>, usize> = HashMap::new();
    // Per scenario: the trigger and its distinct-vector index.
    let mut scenario_vec: Vec<(HTaskId, usize)> = Vec::new();

    for (v, vt) in hsys.tasks() {
        if !vt.is_trigger() {
            continue;
        }
        let v_min_start = normal.min_start[v.index()];
        let v_max_finish = normal.max_finish[v.index()];
        let key = (
            finishes.partition_point(|&f| f < v_min_start),
            dropped_starts.len() - dropped_starts.partition_point(|&s| s <= v_max_finish),
        );
        let scenario = keyed.entry(key).or_insert_with(|| {
            let mut counts = [0; 4];
            let bounds = (0..n)
                .map(|w| {
                    let class = class_of(w, v_min_start, v_max_finish);
                    counts[class] += 1;
                    match class {
                        NORMAL => normal_bounds[w],
                        DROPPED => ExecBounds::ZERO,
                        _ => elevated[w],
                    }
                })
                .collect();
            KeyedScenario {
                bounds,
                counts,
                distinct: None,
            }
        });
        for (total, c) in classes.iter_mut().zip(scenario.counts) {
            *total += c;
        }
        // The trigger itself is classified critical whatever its class
        // under the key.
        classes[class_of(v.index(), v_min_start, v_max_finish)] -= 1;
        classes[CRITICAL] += 1;
        // The key's entry for the trigger is its own entry unless the
        // normal windows put the trigger's `maxFinish` before its own
        // `minStart`, which the backend contract does not rule out.
        let di = if scenario.bounds[v.index()] == elevated[v.index()] {
            let bounds = &scenario.bounds;
            *scenario
                .distinct
                .get_or_insert_with(|| intern(&mut index_of, Cow::Borrowed(bounds)))
        } else {
            let mut patched = scenario.bounds.clone();
            patched[v.index()] = elevated[v.index()];
            intern(&mut index_of, Cow::Owned(patched))
        };
        scenario_vec.push((v, di));
    }
    drop(keyed);
    let mut distinct: Vec<Vec<ExecBounds>> = vec![Vec::new(); index_of.len()];
    for (bounds, i) in index_of {
        distinct[i] = bounds;
    }

    // Dominance pruning: a vector pointwise dominated by another needs no
    // backend run — by monotonicity the dominating run's windows contain
    // its own, so its fold into the worst case is a no-op. Dominance over
    // *distinct* vectors is a strict partial order (mutual dominance would
    // mean equality), so every dominated vector has a maximal dominator.
    let m = distinct.len();
    let mut maximal = vec![true; m];
    if opts.prune {
        for i in 0..m {
            maximal[i] = !(0..m).any(|j| j != i && dominates(&distinct[j], &distinct[i]));
        }
    }
    let to_run: Vec<usize> = (0..m).filter(|&i| maximal[i]).collect();

    // Backend runs for the surviving vectors, warm-started from the
    // normal-state solution whenever the scenario's bounds pointwise
    // contain the normal-state bounds (the `analyze_from` contract; the
    // gate fails exactly for scenarios with certainly-dropped `[0, 0]`
    // tasks). Identical results for any thread count: the pool preserves
    // order and each run is a pure function of its vector.
    // A stored solution is reused only when its recorded warm-gate decision
    // matches the one this run would make — then the fresh invocation would
    // be the identical pure-function call, so the stored windows (including
    // `outer_iters`, and with it `warm_iters_saved`) keep their
    // as-if-freshly-computed values.
    let run_one = |&i: &usize| -> (TaskWindows, bool, bool) {
        let b = &distinct[i];
        let warmed = opts.warm_start && normal.converged && dominates(b, &normal_bounds);
        let stored = reusable.and_then(|p| {
            p.runs
                .iter()
                .find(|(v, _, was_warmed)| v == b && *was_warmed == warmed)
                .map(|(_, w, _)| w.clone())
        });
        match stored {
            Some(w) => (w, warmed, true),
            None if warmed => (backend.analyze_from(b, &normal), true, false),
            None => (backend.analyze(b), false, false),
        }
    };
    let results: Vec<(TaskWindows, bool, bool)> = if opts.scenario_threads > 1 && to_run.len() > 1 {
        parallel_map(&to_run, opts.scenario_threads, run_one)
    } else {
        to_run.iter().map(run_one).collect()
    };
    let reused =
        usize::from(normal_reused) + results.iter().filter(|(_, _, reused)| *reused).count();

    // Fold the worst case over the runs actually performed and resolve the
    // run each distinct vector is bounded by.
    let mut worst = normal.clone();
    let mut fixedpoint_iters = normal.outer_iters;
    let mut warm_iters_saved = 0usize;
    let mut resolved: Vec<Option<usize>> = vec![None; m];
    for (k, &i) in to_run.iter().enumerate() {
        let (windows, warmed, _) = &results[k];
        fixedpoint_iters += windows.outer_iters;
        if *warmed {
            warm_iters_saved += normal.outer_iters.saturating_sub(windows.outer_iters);
        }
        worst.converged &= windows.converged;
        for t in 0..n {
            worst.max_finish[t] = worst.max_finish[t].max(windows.max_finish[t]);
            worst.min_start[t] = worst.min_start[t].min(windows.min_start[t]);
        }
        resolved[i] = Some(k);
    }
    for i in 0..m {
        if resolved[i].is_none() {
            let dominator = to_run
                .iter()
                .position(|&j| dominates(&distinct[j], &distinct[i]))
                .expect("every pruned vector has a maximal dominator");
            resolved[i] = Some(dominator);
        }
    }

    // Per-application response times once per run, shared by every
    // scenario the run bounds.
    let run_app_wcrt: Vec<Vec<Time>> = results
        .iter()
        .map(|(windows, _, _)| {
            hsys.apps()
                .iter()
                .map(|happ| windows.app_wcrt(hsys, happ.app))
                .collect()
        })
        .collect();
    let scenario_app_wcrt = scenario_vec
        .iter()
        .map(|&(v, di)| {
            let k = resolved[di].expect("all vectors resolved");
            (v, run_app_wcrt[k].clone())
        })
        .collect();

    let backend_calls = 1 + to_run.len();
    let runs = to_run
        .iter()
        .zip(results)
        .map(|(&i, (windows, warmed, _))| (std::mem::take(&mut distinct[i]), windows, warmed))
        .collect();
    let [class_normal, class_dropped, class_transition, class_critical] = classes;
    Enumeration {
        mc: McAnalysis {
            normal,
            worst,
            scenarios: scenario_vec.len(),
            backend_calls,
            scenario_app_wcrt,
            class_normal,
            class_dropped,
            class_transition,
            class_critical,
            fixedpoint_iters,
            scenarios_pruned: m - to_run.len(),
            warm_iters_saved,
        },
        normal_bounds,
        runs,
        reused,
    }
}

/// The **Naive** analysis of §3/§5.1: a single backend run where every task
/// of a dropped application gets `[0, wcet]`, every other task gets its full
/// critical-state bounds (`[bcet, Eq. (1)]`, passive replicas `[0, Eq. (1)]`).
/// Safe but pessimistic — it ignores all chronological information.
pub fn naive_analysis<B: SchedBackend + ?Sized>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
) -> TaskWindows {
    let bounds: Vec<ExecBounds> = hsys
        .tasks()
        .map(|(w, wt)| {
            if dropped.contains(&wt.app) {
                ExecBounds::new(Time::ZERO, nominal[w.index()].wcet)
            } else {
                let bcet = if wt.is_passive() {
                    Time::ZERO
                } else {
                    nominal[w.index()].bcet
                };
                ExecBounds::new(bcet, critical_wcet(hsys, arch, mapping, w))
            }
        })
        .collect();
    backend.analyze(&bounds)
}

/// The **Adhoc** estimator of §5.1: an artificial worst-case *scheduling
/// trace* (not an analysis) where the system is critical from the beginning
/// of the hyperperiod, every re-execution-hardened task is maximally
/// re-executed, and dropped applications never release work. The paper uses
/// it to show that such hand-built traces are **not** safe bounds.
///
/// Returns the per-application observed response times.
pub fn adhoc_analysis(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &[SchedPolicy],
    dropped: &[AppId],
) -> Vec<Time> {
    let sim = Simulator::new(hsys, arch, mapping, policies.to_vec());
    let cfg = SimConfig {
        dropped: dropped.to_vec(),
        start_critical: true,
        ..SimConfig::default()
    };
    let mut faults = ExhaustiveReexecution::new(hsys);
    sim.run(&cfg, &mut faults).app_wcrt
}

/// Convenience wrapper running [`proposed_analysis`] with the library's
/// holistic backend.
pub fn analyze(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &[SchedPolicy],
    dropped: &[AppId],
) -> McAnalysis {
    analyze_with(
        hsys,
        arch,
        mapping,
        policies,
        dropped,
        AnalysisOptions::default(),
    )
}

/// [`analyze`] with explicit [`AnalysisOptions`] (`--no-warm-start`,
/// `--no-prune`, `--scenario-threads`).
pub fn analyze_with(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &[SchedPolicy],
    dropped: &[AppId],
    opts: AnalysisOptions,
) -> McAnalysis {
    let backend = HolisticAnalysis::new(hsys, arch, mapping, policies.to_vec());
    let nominal = nominal_bounds(hsys, arch, mapping);
    proposed_analysis_with(&backend, hsys, arch, mapping, &nominal, dropped, opts)
}

/// Convenience wrapper running [`naive_analysis`] with the library's
/// holistic backend.
pub fn analyze_naive(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &[SchedPolicy],
    dropped: &[AppId],
) -> TaskWindows {
    let backend = HolisticAnalysis::new(hsys, arch, mapping, policies.to_vec());
    let nominal = nominal_bounds(hsys, arch, mapping);
    naive_analysis(&backend, hsys, arch, mapping, &nominal, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Criticality, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };
    use mcmap_sched::uniform_policies;

    fn arch(n: usize) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap()
    }

    fn task(name: &str, bcet: u64, wcet: u64) -> Task {
        Task::new(name)
            .with_uniform_exec(
                1,
                ExecBounds::new(Time::from_ticks(bcet), Time::from_ticks(wcet)),
            )
            .with_detect_overhead(Time::from_ticks(2))
    }

    /// hi: one re-executed task (wcet 30, k=1); lo: droppable task (wcet 20),
    /// both on one PE, periods 200.
    pub(super) fn mixed_system(
        drop_lo: bool,
    ) -> (
        Architecture,
        HardenedSystem,
        Mapping,
        Vec<SchedPolicy>,
        Vec<AppId>,
    ) {
        let hi = TaskGraph::builder("hi", Time::from_ticks(200))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1.0,
            })
            .task(task("h", 30, 30))
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(200))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(task("l", 20, 20))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi, lo]).unwrap();
        let arch = arch(1);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0); 2]).unwrap();
        let policies = uniform_policies(1, SchedPolicy::FixedPriorityPreemptive);
        let dropped = if drop_lo { vec![AppId::new(1)] } else { vec![] };
        (arch, hsys, mapping, policies, dropped)
    }

    #[test]
    fn normal_state_pins_passive_replicas_to_zero() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(
                Task::new("a")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10)))
                    .with_voting_overhead(Time::from_ticks(1)),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(3);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::passive(vec![ProcId::new(1)], vec![ProcId::new(2)], ProcId::new(0)),
        );
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(
            &hsys,
            &arch,
            hsys.tasks()
                .map(|(_, t)| t.fixed_proc.unwrap_or(ProcId::new(0)))
                .collect(),
        )
        .unwrap();
        let nominal = nominal_bounds(&hsys, &arch, &mapping);
        let bounds = normal_state_bounds(&hsys, &nominal);
        let passive = hsys
            .tasks()
            .find(|(_, t)| t.is_passive())
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(bounds[passive.index()], ExecBounds::ZERO);
        // Non-passive tasks keep their nominal bounds.
        assert_eq!(bounds[0], nominal[0]);
    }

    #[test]
    fn proposed_covers_reexecution_worst_case() {
        let (arch, hsys, mapping, policies, dropped) = mixed_system(false);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        assert_eq!(mc.scenarios, 1);
        // hi normal: 32 (wcet+dt); critical: 64.
        let hi_wcrt = mc.app_wcrt(&hsys, AppId::new(0), &dropped);
        assert!(hi_wcrt >= Time::from_ticks(64), "got {hi_wcrt}");
        // Normal state is tighter than the merged worst case.
        assert!(mc.normal.app_wcrt(&hsys, AppId::new(0)) < hi_wcrt);
        // The binding fault is attributed to the (only) re-executed task.
        assert_eq!(
            mc.binding_trigger(&hsys, AppId::new(0)),
            Some(mcmap_hardening::HTaskId::new(0))
        );
    }

    #[test]
    fn dropping_tightens_the_nondroppable_wcrt() {
        let (arch, hsys, mapping, policies, _) = mixed_system(false);
        let keep = analyze(&hsys, &arch, &mapping, &policies, &[]);
        let drop = analyze(&hsys, &arch, &mapping, &policies, &[AppId::new(1)]);
        let hi = AppId::new(0);
        assert!(
            drop.app_wcrt(&hsys, hi, &[AppId::new(1)]) <= keep.app_wcrt(&hsys, hi, &[]),
            "dropping low-criticality work can only help the critical app"
        );
    }

    #[test]
    fn naive_upper_bounds_proposed() {
        for drop_lo in [false, true] {
            let (arch, hsys, mapping, policies, dropped) = mixed_system(drop_lo);
            let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
            let naive = analyze_naive(&hsys, &arch, &mapping, &policies, &dropped);
            for i in 0..hsys.num_tasks() {
                assert!(
                    naive.max_finish[i] >= mc.worst.max_finish[i],
                    "naive must dominate proposed at task {i}"
                );
            }
        }
    }

    #[test]
    fn proposed_upper_bounds_adhoc_trace() {
        let (arch, hsys, mapping, policies, dropped) = mixed_system(true);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        let adhoc = adhoc_analysis(&hsys, &arch, &mapping, &policies, &dropped);
        // The critical app's trace response is below the analysis bound.
        assert!(adhoc[0] <= mc.app_wcrt(&hsys, AppId::new(0), &dropped));
    }

    #[test]
    fn schedulable_verdict_respects_dropping_semantics() {
        // Two pipelines over two PEs, mirroring Fig. 1's rescue: hi's head
        // h0 (p0, re-executed) feeds h1 (p1); lo's head l0 (p0) feeds the
        // expensive l1 (p1), which outranks h1 locally. Because l1 cannot
        // start before l0's best case (40) — after the fault detection
        // window of h0 (maxFinish 32) — a critical transition certainly
        // drops l1, rescuing h1's deadline. Without dropping, l1's
        // interference pushes hi past its 150-tick deadline.
        let hi = TaskGraph::builder("hi", Time::from_ticks(400))
            .deadline(Time::from_ticks(150))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1.0,
            })
            .task(task("h0", 30, 30))
            .task(task("h1", 30, 30))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(400))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(task("l0", 40, 40))
            .task(task("l1", 80, 80))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi, lo]).unwrap();
        let arch = arch(2);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(
            &hsys,
            &arch,
            vec![
                ProcId::new(0),
                ProcId::new(1),
                ProcId::new(0),
                ProcId::new(1),
            ],
        )
        .unwrap()
        .with_priorities(vec![0, 3, 1, 2]);
        let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);

        let without = analyze(&hsys, &arch, &mapping, &policies, &[]);
        let with = analyze(&hsys, &arch, &mapping, &policies, &[AppId::new(1)]);
        assert!(with.schedulable(&hsys, &[AppId::new(1)]));
        assert!(!without.schedulable(&hsys, &[]));
    }

    #[test]
    fn analysis_is_safe_against_the_simulator() {
        use mcmap_sim::{RandomFaults, Simulator};
        let (arch, hsys, mapping, policies, dropped) = mixed_system(true);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies.clone());
        for seed in 0..40 {
            let mut faults = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(1e5);
            let r = sim.run(&SimConfig::worst_case(dropped.clone()), &mut faults);
            // Non-dropped app: simulated response within the analysis bound.
            assert!(
                r.app_wcrt[0] <= mc.app_wcrt(&hsys, AppId::new(0), &dropped),
                "seed {seed}: sim {} > bound {}",
                r.app_wcrt[0],
                mc.app_wcrt(&hsys, AppId::new(0), &dropped)
            );
        }
    }
}

#[cfg(test)]
mod dedup_tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Criticality, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };
    use mcmap_sched::uniform_policies;

    /// Two identical independent re-executed tasks produce identical
    /// transition scenarios: one backend call covers both.
    #[test]
    fn identical_scenarios_share_backend_calls() {
        let arch = Architecture::builder()
            .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        let mk = |name: &str| {
            TaskGraph::builder(name, Time::from_ticks(1_000))
                .criticality(Criticality::NonDroppable {
                    max_failure_rate: 0.9,
                })
                .task(
                    Task::new(name)
                        .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50)))
                        .with_detect_overhead(Time::from_ticks(5)),
                )
                .build()
                .unwrap()
        };
        let apps = AppSet::new(vec![mk("a"), mk("b")]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        plan.set_by_flat_index(1, TaskHardening::reexecution(1));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0), ProcId::new(1)]).unwrap();
        let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &[]);
        assert_eq!(mc.scenarios, 2);
        // Scenario of `a`: a at Eq1, b at Eq1 (overlapping) — scenario of
        // `b` is the mirror image with identical bounds on an isomorphic
        // system? Not identical here (a's Eq1 vs b's Eq1 occupy different
        // slots), so both run…
        assert!(mc.backend_calls <= 3);
        // …but a degenerate case with one trigger costs exactly 2 calls.
        let mut plan2 = HardeningPlan::unhardened(&apps);
        plan2.set_by_flat_index(0, TaskHardening::reexecution(1));
        let hsys2 = harden(&apps, &plan2, &arch).unwrap();
        let mapping2 = Mapping::new(&hsys2, &arch, vec![ProcId::new(0), ProcId::new(1)]).unwrap();
        let mc2 = analyze(&hsys2, &arch, &mapping2, &policies, &[]);
        assert_eq!(mc2.scenarios, 1);
        assert_eq!(mc2.backend_calls, 2);
    }

    /// Triggers whose bound-vectors coincide exactly (same task, same
    /// windows — e.g. symmetric replicas) are analyzed once.
    #[test]
    fn coinciding_bound_vectors_hit_the_cache() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        // Two re-executed tasks with identical parameters on ONE PE, same
        // app, no precedence: their scenarios classify tasks identically
        // only if the bound vectors match; with symmetric windows they do
        // not in general, so simply assert the call count never exceeds
        // scenarios + 1 and results are unchanged by caching.
        let g = TaskGraph::builder("g", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 0.9,
            })
            .task(
                Task::new("x")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(40)))
                    .with_detect_overhead(Time::from_ticks(4)),
            )
            .task(
                Task::new("y")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(40)))
                    .with_detect_overhead(Time::from_ticks(4)),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        plan.set_by_flat_index(1, TaskHardening::reexecution(1));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0); 2]).unwrap();
        let policies = uniform_policies(1, SchedPolicy::FixedPriorityPreemptive);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &[]);
        assert!(mc.backend_calls <= mc.scenarios + 1);
        // Both tasks inflated in both scenarios → identical bound vectors →
        // exactly one scenario analysis. The second scenario is a *dedup*
        // hit (borrowed-slice lookup, no key clone), not a prune.
        assert_eq!(mc.backend_calls, 2);
        assert_eq!(mc.scenarios_pruned, 0);
    }

    /// A pipelined pair of re-executed tasks across two PEs with a real
    /// channel delay: the head's scenario classifies everything critical
    /// and pointwise dominates the tail's (which sees the head finished
    /// normally), so pruning skips the tail's backend run while the merged
    /// windows stay bit-identical to the reference enumeration.
    #[test]
    fn dominated_scenarios_are_pruned_without_changing_windows() {
        let arch = Architecture::builder()
            .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .fabric(mcmap_model::Fabric::new(8))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 0.9,
            })
            .task(
                Task::new("head")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(40)))
                    .with_detect_overhead(Time::from_ticks(4)),
            )
            .task(
                Task::new("tail")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(40)))
                    .with_detect_overhead(Time::from_ticks(4)),
            )
            .channel(0, 1, 64)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        plan.set_by_flat_index(1, TaskHardening::reexecution(1));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0), ProcId::new(1)]).unwrap();
        let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);

        let reference = analyze_with(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &[],
            AnalysisOptions::reference(),
        );
        let fast = analyze(&hsys, &arch, &mapping, &policies, &[]);

        assert_eq!(fast.normal, reference.normal);
        assert_eq!(fast.worst, reference.worst);
        assert_eq!(fast.scenarios, reference.scenarios);
        assert_eq!(reference.scenarios_pruned, 0);
        assert!(
            fast.scenarios_pruned > 0,
            "the tail scenario must be dominated"
        );
        assert!(
            fast.backend_calls < reference.backend_calls,
            "pruning must strictly reduce backend work ({} vs {})",
            fast.backend_calls,
            reference.backend_calls
        );
    }

    /// A backend whose normal-state windows put the trigger's `maxFinish`
    /// before its own `minStart` (the [`SchedBackend`] contract does not
    /// rule that out); every other vector gets `maxFinish = wcet`. It
    /// records each vector it is asked to analyze.
    struct InvertedTrigger {
        normal_bounds: Vec<ExecBounds>,
        seen: std::sync::Mutex<Vec<Vec<ExecBounds>>>,
    }

    impl SchedBackend for InvertedTrigger {
        fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
            self.seen.lock().unwrap().push(bounds.to_vec());
            let (min_start, max_finish) = if bounds == self.normal_bounds.as_slice() {
                // Trigger `h` (task 0): minStart 50 > maxFinish 10.
                (
                    vec![Time::from_ticks(50), Time::ZERO],
                    vec![Time::from_ticks(10), Time::from_ticks(100)],
                )
            } else {
                (
                    vec![Time::ZERO; bounds.len()],
                    bounds.iter().map(|b| b.wcet).collect(),
                )
            };
            TaskWindows {
                min_start,
                max_finish,
                converged: true,
                outer_iters: 1,
            }
        }

        fn num_tasks(&self) -> usize {
            self.normal_bounds.len()
        }
    }

    /// Under its own thresholds the inverted trigger falls in the "completed
    /// before the fault" class, so the keyed vector holds its normal bounds;
    /// the trigger must still execute through its fault with its Eq. 1
    /// bounds, and be counted critical.
    #[test]
    fn an_inverted_trigger_keeps_its_own_critical_entry() {
        let (arch, hsys, mapping, _, _) = super::tests::mixed_system(false);
        let nominal = nominal_bounds(&hsys, &arch, &mapping);
        let backend = InvertedTrigger {
            normal_bounds: normal_state_bounds(&hsys, &nominal),
            seen: Default::default(),
        };
        let h = HTaskId::new(0);
        let eq1 = ExecBounds::new(nominal[0].bcet, critical_wcet(&hsys, &arch, &mapping, h));
        assert_ne!(eq1, nominal[0], "the trigger is re-execution hardened");
        let mc = proposed_analysis_with(
            &backend,
            &hsys,
            &arch,
            &mapping,
            &nominal,
            &[],
            AnalysisOptions::reference(),
        );
        let seen = backend.seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2, "the normal state and one scenario");
        assert_eq!(seen[1], vec![eq1, nominal[1]]);
        assert_eq!(mc.worst.max_finish[0], eq1.wcet);
        assert_eq!(mc.backend_calls, 2);
        assert_eq!(
            (
                mc.class_normal,
                mc.class_dropped,
                mc.class_transition,
                mc.class_critical
            ),
            (0, 0, 0, 2)
        );
    }

    /// [`proposed_analysis_delta`] over the holistic backend.
    fn solve_with_parent(
        hsys: &HardenedSystem,
        arch: &Architecture,
        mapping: &Mapping,
        policies: &[SchedPolicy],
        dropped: &[AppId],
        opts: AnalysisOptions,
        parent: Option<&AnalysisSolutions>,
    ) -> (McAnalysis, AnalysisSolutions, usize) {
        let backend = HolisticAnalysis::new(hsys, arch, mapping, policies.to_vec());
        let nominal = nominal_bounds(hsys, arch, mapping);
        proposed_analysis_delta(
            &backend, hsys, arch, mapping, &nominal, dropped, opts, parent,
        )
    }

    /// Re-analyzing a candidate with its *own* solutions as the parent
    /// reuses every backend run and changes nothing, for any knob setting.
    #[test]
    fn self_parent_reuses_every_run_bit_identically() {
        let (arch, hsys, mapping, policies, dropped) = super::tests::mixed_system(true);
        for opts in [
            AnalysisOptions::default(),
            AnalysisOptions::reference(),
            AnalysisOptions {
                warm_start: true,
                prune: false,
                scenario_threads: 3,
            },
        ] {
            let (cold, sols, reused0) =
                solve_with_parent(&hsys, &arch, &mapping, &policies, &dropped, opts, None);
            assert_eq!(reused0, 0);
            let (warm, sols2, reused) = solve_with_parent(
                &hsys,
                &arch,
                &mapping,
                &policies,
                &dropped,
                opts,
                Some(&sols),
            );
            assert_eq!(warm, cold, "{opts:?}");
            assert_eq!(sols2, sols, "{opts:?}");
            assert_eq!(reused, cold.backend_calls, "{opts:?}");
        }
    }

    /// Changing the dropped set keeps the normal-state vector (dropping
    /// only affects scenario classification), so the normal run is reused
    /// while the scenario vectors differ — and the result still matches a
    /// cold analysis bit-for-bit.
    #[test]
    fn cross_dropped_reuse_keeps_results_bit_identical() {
        let (arch, hsys, mapping, policies, _) = super::tests::mixed_system(false);
        let opts = AnalysisOptions::default();
        let (_, parent_sols, _) =
            solve_with_parent(&hsys, &arch, &mapping, &policies, &[], opts, None);
        let dropped = vec![AppId::new(1)];
        let (cold, _, _) =
            solve_with_parent(&hsys, &arch, &mapping, &policies, &dropped, opts, None);
        let (warm, _, reused) = solve_with_parent(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &dropped,
            opts,
            Some(&parent_sols),
        );
        assert_eq!(warm, cold);
        assert!(reused >= 1, "the normal run must be reused");
        assert!(reused <= cold.backend_calls);
    }

    /// A parent whose normal-state vector differs is ignored wholesale:
    /// zero reuse, identical results.
    #[test]
    fn mismatched_parent_is_ignored() {
        let (arch, hsys, mapping, policies, dropped) = super::tests::mixed_system(true);
        let opts = AnalysisOptions::default();
        let (cold, sols, _) =
            solve_with_parent(&hsys, &arch, &mapping, &policies, &dropped, opts, None);
        let mut bogus = sols.clone();
        bogus.normal_bounds[0] = ExecBounds::exact(Time::from_ticks(12345));
        let (warm, _, reused) = solve_with_parent(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &dropped,
            opts,
            Some(&bogus),
        );
        assert_eq!(warm, cold);
        assert_eq!(reused, 0);
    }

    /// All knob combinations (and any scenario thread count) produce the
    /// same windows, verdicts, and classification counts.
    #[test]
    fn fast_path_knobs_never_change_the_result() {
        let arch = Architecture::builder()
            .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        let mk = |name: &str, wcet: u64, crit: Criticality| {
            TaskGraph::builder(name, Time::from_ticks(2_000))
                .criticality(crit)
                .task(
                    Task::new(name)
                        .with_uniform_exec(
                            1,
                            ExecBounds::new(Time::from_ticks(wcet / 2), Time::from_ticks(wcet)),
                        )
                        .with_detect_overhead(Time::from_ticks(3)),
                )
                .build()
                .unwrap()
        };
        let apps = AppSet::new(vec![
            mk(
                "a",
                60,
                Criticality::NonDroppable {
                    max_failure_rate: 0.9,
                },
            ),
            mk("b", 80, Criticality::Droppable { service: 1.0 }),
            mk(
                "c",
                40,
                Criticality::NonDroppable {
                    max_failure_rate: 0.9,
                },
            ),
        ])
        .unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        plan.set_by_flat_index(2, TaskHardening::reexecution(2));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(1), ProcId::new(0)],
        )
        .unwrap();
        let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
        let dropped = vec![AppId::new(1)];

        let reference = analyze_with(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &dropped,
            AnalysisOptions::reference(),
        );
        for warm_start in [false, true] {
            for prune in [false, true] {
                for scenario_threads in [1, 4] {
                    let opts = AnalysisOptions {
                        warm_start,
                        prune,
                        scenario_threads,
                    };
                    let mc = analyze_with(&hsys, &arch, &mapping, &policies, &dropped, opts);
                    assert_eq!(mc.normal, reference.normal, "{opts:?}");
                    assert_eq!(mc.worst, reference.worst, "{opts:?}");
                    assert_eq!(
                        mc.schedulable(&hsys, &dropped),
                        reference.schedulable(&hsys, &dropped),
                        "{opts:?}"
                    );
                    assert_eq!(
                        (
                            mc.scenarios,
                            mc.class_normal,
                            mc.class_dropped,
                            mc.class_transition,
                            mc.class_critical
                        ),
                        (
                            reference.scenarios,
                            reference.class_normal,
                            reference.class_dropped,
                            reference.class_transition,
                            reference.class_critical
                        ),
                        "{opts:?}"
                    );
                    if !warm_start {
                        assert_eq!(mc.warm_iters_saved, 0, "{opts:?}");
                    }
                    if !prune {
                        assert_eq!(mc.scenarios_pruned, 0, "{opts:?}");
                        assert_eq!(
                            mc.scenario_app_wcrt, reference.scenario_app_wcrt,
                            "{opts:?}"
                        );
                    }
                }
            }
        }
    }
}
