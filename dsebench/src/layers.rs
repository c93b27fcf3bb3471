//! Per-layer metrics of a traced run.

use crate::stats::{max, median, tail};
use crate::trace::{CandidateTrace, TracedDse};
use crate::Metric;

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Traced explorations (at least one).
    pub traced: &'a [TracedDse],
    /// Wall seconds of the untraced `explore_checked` runs.
    pub untraced_walls: &'a [f64],
    /// Replays of the distinct genomes of the first traced run.
    pub replays: &'a [CandidateTrace],
    /// Candidates submitted per exploration.
    pub submitted: usize,
    pub threads: usize,
    pub generate_s: f64,
}

/// One per-candidate figure of a replay.
type Part = fn(&CandidateTrace) -> f64;

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every per-layer metric.
pub fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let each =
        |f: fn(&TracedDse) -> f64| -> f64 { median(&x.traced.iter().map(f).collect::<Vec<_>>()) };
    let wall = each(|t| t.wall_s);
    let batch_total = each(|t| t.batches.iter().sum());
    let ga_self =
        each(|t| (t.wall_s - t.lint_s - t.report_s - t.batches.iter().sum::<f64>()).max(0.0));
    let eval_busy = each(|t| t.eval_nanos as f64 * 1e-9);
    let batches: Vec<f64> = x
        .traced
        .iter()
        .flat_map(|t| t.batches.iter().copied())
        .collect();

    // DSE level.
    put("ga.self_s", ga_self, "s");
    put("ga.share", ratio(ga_self, wall), "ratio");
    put("dse.report_ms", ms(each(|t| t.report_s)), "ms");
    put("eval.batch_ms_p50", ms(median(&batches)), "ms");
    put("eval.batch_ms_max", ms(max(&batches)), "ms");
    let fresh = x.replays.len();
    put(
        "eval.dup_ratio",
        1.0 - ratio(fresh as f64, x.submitted as f64),
        "ratio",
    );
    put("eval.fresh", fresh as f64, "count");

    // Candidate level, over the fresh candidates.
    let r = x.replays;
    let col = |f: Part| -> Vec<f64> { r.iter().map(f).collect() };
    let sum = |f: Part| -> f64 { r.iter().map(f).sum() };
    let replayed = sum(|c| c.total());
    put(
        "eval.idle_share",
        1.0 - ratio(replayed, batch_total * x.threads as f64),
        "ratio",
    );

    let reliability = col(|c| c.reliability_repair());
    put(
        "repair.structure_us_p50",
        us(median(&col(|c| c.structure))),
        "us",
    );
    put("repair.decode_us_p50", us(median(&col(|c| c.decode))), "us");
    put("repair.reliability_ms_p50", ms(median(&reliability)), "ms");
    put("repair.reliability_ms_p90", ms(tail(&reliability)), "ms");
    put("repair.reliability_ms_max", ms(max(&reliability)), "ms");
    put(
        "repair.unmet_ratio",
        ratio(r.iter().filter(|c| c.unmet).count() as f64, fresh as f64),
        "ratio",
    );
    put("harden_ms_p50", ms(median(&col(|c| c.harden))), "ms");
    put(
        "reliability.check_ms_p50",
        ms(median(&col(|c| c.check))),
        "ms",
    );
    put("mapping_ms_p50", ms(median(&col(|c| c.mapping))), "ms");
    put(
        "sched.context_ms_p50",
        ms(median(&col(|c| c.context))),
        "ms",
    );
    let runs: Vec<_> = r
        .iter()
        .flat_map(|c| c.fixpoints.iter().chain(&c.audit_fixpoints))
        .collect();
    put("sched.fixpoint_runs", runs.len() as f64, "count");
    put(
        "sched.fixpoint_us_p50",
        us(median(&runs.iter().map(|f| f.secs).collect::<Vec<_>>())),
        "us",
    );
    put(
        "sched.fixpoint_iters",
        runs.iter().map(|f| f.outer_iters).sum::<usize>() as f64,
        "count",
    );
    put(
        "alg1.self_ms_p50",
        ms(median(&col(|c| c.alg1_self()))),
        "ms",
    );
    let scenarios: usize = r.iter().map(|c| c.scenarios).sum();
    let pruned: usize = r.iter().map(|c| c.scenarios_pruned).sum();
    put("alg1.scenarios", scenarios as f64, "count");
    put(
        "alg1.prune_rate",
        ratio(pruned as f64, scenarios as f64),
        "ratio",
    );
    let audits: Vec<f64> = r.iter().filter_map(|c| c.audit).collect();
    put("alg1.audit_ms_p50", ms(median(&audits)), "ms");
    put(
        "objectives_us_p50",
        us(median(&col(|c| c.objectives))),
        "us",
    );

    let totals = col(|c| c.total());
    put("candidate_ms_p50", ms(median(&totals)), "ms");
    put("candidate_ms_p90", ms(tail(&totals)), "ms");
    put("candidate_ms_max", ms(max(&totals)), "ms");
    let shares: [(&str, Part); 8] = [
        ("repair.share", |c| c.decode_repaired),
        ("harden.share", |c| c.harden),
        ("mapping.share", |c| c.mapping),
        ("reliability.share", |c| c.check_on_path()),
        ("sched.context.share", |c| c.context),
        ("sched.fixpoint.share", |c| c.fixpoint_secs()),
        ("alg1.self.share", |c| c.alg1_self()),
        ("objectives.share", |c| c.objectives),
    ];
    for (name, part) in shares {
        put(name, ratio(sum(part), replayed), "ratio");
    }
    put("trace.coverage", ratio(replayed, eval_busy), "ratio");
    put(
        "trace.overhead",
        ratio(wall, median(x.untraced_walls)),
        "ratio",
    );

    // Set-up layers.
    put("setup.generate_s", x.generate_s, "s");
    put("setup.lint_s", each(|t| t.lint_s), "s");
    out
}
