//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root names the same metrics; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[m("setup_s", "s"), m("peak_rss_mb", "MB")];

/// Reported by every traced run. A layer a workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The whole workload, from the untraced half of the run. Each
    // workload defines its own operation (a Fig-4 table, a query); see
    // the README for why these are not end-to-end metrics.
    m("p50_ms", "ms"),
    m("tail_ms", "ms"),
    m("cpu_ms_per_op", "ms"),
    // Set-up.
    m("datagen.generate_ms", "ms"),
    m("flavordb.artifact.build_ms", "ms"),
    m("recipedb.artifact.build_ms", "ms"),
    m("artifact.open_ms", "ms"),
    m("artifact.bytes", "bytes"),
    m("serve.warmup_ms", "ms"),
    // Offline Fig-4 pipeline.
    m("core.pairing.overlap_build_ms", "ms"),
    m("core.pairing.overlap_cells", "count"),
    m("core.z_analysis.prepare_ms", "ms"),
    m("core.monte_carlo.mc_ms", "ms"),
    m("core.monte_carlo.block_us.p50", "us"),
    m("core.monte_carlo.block_us.p99", "us"),
    m("core.monte_carlo.null_recipes", "count"),
    m("core.z_analysis.merge_ms", "ms"),
    m("stats.pool.busy_frac", "ratio"),
    // Serving.
    m("serve.protocol.parse_us.p50", "us"),
    m("serve.queue.batch_mean", "count"),
    m("serve.server.handle_batch_us.p50", "us"),
    m("serve.compute_share", "ratio"),
    m("serve.cache.hit_rate", "ratio"),
    m("serve.cache.evictions", "count"),
    m("serve.cache.invalidations", "count"),
    m("serve.server.shard_builds", "count"),
    m("serve.server.pair_us.p99", "us"),
    m("serve.server.zprof_us.p99", "us"),
    m("serve.server.topk_us.p99", "us"),
    m("serve.server.score_us.p99", "us"),
    m("serve.busy", "count"),
    m("serve.max_rate_rps", "1/s"),
    m("loadgen.late_us.p99", "us"),
    // Ingest beside serving.
    m("recipedb.import.us_per_recipe", "us"),
    m("recipedb.import.resolved_frac", "ratio"),
    m("recipedb.segment.append_ms.p50", "ms"),
    m("recipedb.segment.append_ms.p99", "ms"),
    m("recipedb.segment.bytes_per_recipe", "bytes"),
    m("core.streaming.ingest_batch_ms.p50", "ms"),
    m("core.streaming.ingest_batch_ms.p99", "ms"),
    m("bench.snapshot_ms", "ms"),
    m("serve.server.swap_us.p50", "us"),
    m("serve.server.swap_us.p99", "us"),
    m("ingest.freshness_ms.p50", "ms"),
    m("ingest.freshness_ms.tail", "ms"),
    // The tracing itself.
    m("trace.overhead_frac", "ratio"),
];

/// Metric values collected by one run, checked against the catalogue.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Record `name`. Panics on a name outside the catalogue: that is a
    /// bug in this benchmark, not in the program measured.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome of one run, as the last stdout line reports it.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Render the result line: every end-to-end metric for an untraced run,
/// every per-layer metric (unmeasured layers as 0) for a traced one.
///
/// # Errors
/// An end-to-end metric that was not measured or any non-finite value.
pub fn render(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let value = match (outcome.values.get(d.name), traced) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("metric {} was not measured", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn untraced_render_requires_every_end_to_end_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values: Values::default(),
        };
        assert!(render(&outcome, false).is_err());
        for d in END_TO_END {
            outcome.values.set(d.name, 1.25);
        }
        let line = render(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let traced = render(&outcome, true).unwrap();
        assert!(traced.contains("\"trace.overhead_frac\": {\"value\": 0, \"unit\": \"ratio\"}"));
        outcome.values.set("peak_rss_mb", f64::NAN);
        assert!(render(&outcome, false).is_err());
    }
}
