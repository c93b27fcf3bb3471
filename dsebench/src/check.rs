//! Output check and front digest.
//!
//! The check holds for any seed: it compares the exploration against
//! itself and against an independent re-evaluation, never against a stored
//! answer, and it does not assume that any feasible point exists.

use mcmap_benchmarks::Benchmark;
use mcmap_core::{AnalysisOptions, DesignReport, DseConfig, DseOutcome, Genome, MappingProblem};
use mcmap_ga::{constrained_dominates, Individual};

/// FNV-1a over a byte stream.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of a front and its reports: every genome, objective, penalty and
/// report field, bit for bit, in front order.
pub fn front_digest(front: &[Individual<Genome>], reports: &[DesignReport]) -> u64 {
    let mut h = Fnv::new();
    h.u64(front.len() as u64);
    for ind in front {
        h.bytes(format!("{:?}", ind.genotype).as_bytes());
        for x in &ind.eval.objectives {
            h.u64(x.to_bits());
        }
        h.u64(u64::from(ind.eval.feasible));
        h.u64(ind.eval.penalty.to_bits());
    }
    for r in reports {
        report_digest(&mut h, r);
    }
    h.0
}

fn report_digest(h: &mut Fnv, r: &DesignReport) {
    h.u64(r.power.to_bits());
    h.u64(r.service.to_bits());
    h.u64(r.lost_service.to_bits());
    h.u64(u64::from(r.feasible));
    h.bytes(format!("{:?}{:?}", r.dropped, r.app_wcrt).as_bytes());
}

/// The verdict on one exploration's output.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Candidates degraded after repeated panics.
    pub degraded: usize,
    /// Front members whose output is wrong.
    pub bad_members: usize,
    /// What was wrong, one line each.
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Operations that failed: degraded candidates plus bad front members.
    pub fn failed(&self) -> usize {
        self.degraded + self.bad_members
    }
}

/// Checks one finished exploration:
/// - nothing degraded, not interrupted, the full budget was evaluated;
/// - the front is mutually non-dominated and each report agrees with its
///   member's evaluation;
/// - a fresh problem on the cold reference analysis, without delta reuse
///   or caching, reproduces every front report bit for bit.
pub fn check_outcome(bench: &Benchmark, cfg: &DseConfig, outcome: &DseOutcome) -> Verdict {
    let mut v = Verdict {
        degraded: outcome.failures.len(),
        ..Verdict::default()
    };
    if v.degraded > 0 {
        v.errors
            .push(format!("{} candidate(s) degraded after panics", v.degraded));
    }
    if outcome.interrupted {
        v.errors.push("exploration was interrupted".into());
    }
    let expected = cfg.ga.population.max(2) * (cfg.ga.generations + 1);
    if outcome.result.evaluations != expected || outcome.audit.evaluated != expected {
        v.errors.push(format!(
            "evaluated {} (audit {}), expected {expected}",
            outcome.result.evaluations, outcome.audit.evaluated
        ));
    }
    check_front(bench, cfg, &outcome.result.front, &outcome.reports, &mut v);
    v
}

/// The front part of [`check_outcome`].
fn check_front(
    bench: &Benchmark,
    cfg: &DseConfig,
    front: &[Individual<Genome>],
    reports: &[DesignReport],
    v: &mut Verdict,
) {
    if front.is_empty() || reports.len() != front.len() {
        v.errors.push(format!(
            "front of {} member(s) with {} report(s)",
            front.len(),
            reports.len()
        ));
        v.bad_members += front.len().max(1);
        return;
    }
    let reference = MappingProblem::new(
        &bench.apps,
        &bench.arch,
        DseConfig {
            analysis: AnalysisOptions::reference(),
            delta: false,
            cache_cap: 0,
            ..cfg.clone()
        },
    );
    for (i, (ind, report)) in front.iter().zip(reports).enumerate() {
        let mut bad = Vec::new();
        if front
            .iter()
            .any(|other| constrained_dominates(&other.eval, &ind.eval))
        {
            bad.push("is dominated by another front member".to_string());
        }
        let objectives = [report.power.to_bits(), report.lost_service.to_bits()];
        let evaluated: Vec<u64> = ind.eval.objectives.iter().map(|x| x.to_bits()).collect();
        if evaluated != objectives || ind.eval.feasible != report.feasible {
            bad.push("report disagrees with the member's evaluation".to_string());
        }
        let fresh = reference.report(&ind.genotype);
        let differs = report_diff(&fresh, report);
        if !differs.is_empty() {
            bad.push(format!(
                "reference re-evaluation differs from the report in {}",
                differs.join(", ")
            ));
        }
        if !bad.is_empty() {
            v.bad_members += 1;
            v.errors
                .push(format!("front member {i}: {}", bad.join("; ")));
        }
    }
}

/// The report fields the DSE produces on which `a` and `b` differ, bit
/// for bit.
fn report_diff(a: &DesignReport, b: &DesignReport) -> Vec<String> {
    let mut d = Vec::new();
    if a.power.to_bits() != b.power.to_bits() {
        d.push(format!("power ({} vs {})", a.power, b.power));
    }
    if a.lost_service.to_bits() != b.lost_service.to_bits() {
        d.push(format!(
            "lost service ({} vs {})",
            a.lost_service, b.lost_service
        ));
    }
    if a.feasible != b.feasible {
        d.push(format!("feasible ({} vs {})", a.feasible, b.feasible));
    }
    if a.dropped != b.dropped {
        d.push(format!("dropped set ({:?} vs {:?})", a.dropped, b.dropped));
    }
    if a.app_wcrt != b.app_wcrt {
        let apps: Vec<String> = a
            .app_wcrt
            .iter()
            .zip(&b.app_wcrt)
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, (x, y))| format!("app {i}: {x:?} vs {y:?}"))
            .collect();
        d.push(format!("app_wcrt ({})", apps.join(", ")));
    }
    d
}
