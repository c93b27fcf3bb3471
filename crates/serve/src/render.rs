//! Human-facing table rendering of server documents — what the CLI's
//! `client stats` / `client status` print when `--json` is not given.

use mcmap_obs::Json;

/// One aligned `key  value` row block from an object's members, in source
/// order, with `snake_case` keys prettified to spaced words.
fn rows(doc: &Json, keys: &[&str], out: &mut String) {
    let width = keys
        .iter()
        .filter(|k| doc.get(k).is_some())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    for key in keys {
        let Some(value) = doc.get(key) else { continue };
        out.push_str(&format!(
            "  {:<width$}  {}\n",
            key.replace('_', " "),
            scalar(value)
        ));
    }
}

/// A scalar rendered for a table cell (integers without the float tail,
/// strings unquoted).
fn scalar(v: &Json) -> String {
    match v {
        Json::Null => "-".into(),
        Json::Bool(b) => b.to_string(),
        Json::UInt(n) => n.to_string(),
        Json::Int(n) => n.to_string(),
        Json::Num(n) => format!("{n:.4}"),
        Json::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Renders the `stats` verb payload as an aligned table: server totals,
/// job population by state, and the shared-cache counters.
pub fn render_stats(stats: &Json) -> String {
    let mut out = String::from("server\n");
    rows(
        stats,
        &["workers", "queue_depth", "dropped_events"],
        &mut out,
    );
    if let Some(Json::Obj(states)) = stats.get("jobs") {
        out.push_str("jobs\n");
        let width = states.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        for (state, count) in states {
            out.push_str(&format!("  {state:<width$}  {}\n", scalar(count)));
        }
    }
    if let Some(cache) = stats.get("cache") {
        out.push_str("shared cache\n");
        rows(
            cache,
            &[
                "entries",
                "hits",
                "misses",
                "insertions",
                "evictions",
                "hit_rate",
            ],
            &mut out,
        );
    }
    out
}

/// Renders the `status` verb payload as an aligned table: identity and
/// progress first, then the per-job evaluation and analysis counters.
pub fn render_status(job: &Json) -> String {
    let mut out = String::from("job");
    if let Some(id) = job.get("id").and_then(|v| v.as_str()) {
        out.push(' ');
        out.push_str(id);
    }
    out.push('\n');
    rows(
        job,
        &["state", "generation_done", "slices", "error"],
        &mut out,
    );
    if let Some(spec) = job.get("spec") {
        out.push_str("spec\n");
        rows(
            spec,
            &["benchmark", "population", "generations", "seed"],
            &mut out,
        );
    }
    if let Some(eval) = job.get("eval") {
        out.push_str("eval\n");
        rows(
            eval,
            &[
                "batches",
                "genomes",
                "cache_hits",
                "cache_misses",
                "evictions",
                "panics",
                "degraded",
            ],
            &mut out,
        );
    }
    if let Some(analysis) = job.get("analysis") {
        out.push_str("analysis\n");
        rows(
            analysis,
            &[
                "candidates",
                "scenarios",
                "backend_calls",
                "fixedpoint_iters",
                "scenarios_pruned",
                "warm_iters_saved",
            ],
            &mut out,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_table_lists_server_jobs_and_cache_blocks() {
        let doc = mcmap_obs::parse_json(
            "{\"cache\":{\"entries\":10,\"hits\":7,\"misses\":3,\"insertions\":3,\
             \"evictions\":0,\"hit_rate\":0.7},\"workers\":2,\"queue_depth\":1,\
             \"dropped_events\":0,\"jobs\":{\"completed\":2,\"running\":1}}",
        )
        .unwrap();
        let text = render_stats(&doc);
        assert!(text.contains("server\n"));
        assert!(text.contains("queue depth"));
        assert!(text.contains("completed  2"));
        assert!(text.contains("hit rate"));
        assert!(text.contains("0.7000"));
    }

    #[test]
    fn status_table_leads_with_identity_and_skips_absent_blocks() {
        let doc = mcmap_obs::parse_json(
            "{\"id\":\"job-000001\",\"state\":\"running\",\"generation_done\":3,\
             \"slices\":2,\"spec\":{\"benchmark\":\"cruise\",\"population\":8,\
             \"generations\":4,\"seed\":8}}",
        )
        .unwrap();
        let text = render_status(&doc);
        assert!(text.starts_with("job job-000001\n"));
        assert!(text.contains("generation done  3"));
        assert!(text.contains("benchmark"));
        assert!(!text.contains("eval\n"), "absent blocks are not rendered");
    }
}
