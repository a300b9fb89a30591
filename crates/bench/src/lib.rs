#![warn(missing_docs)]

//! # culinaria-bench
//!
//! Reproduction harnesses (one binary per paper table/figure, under
//! `src/bin/`) and Criterion micro-benchmarks (under `benches/`).
//!
//! Every harness regenerates one artifact of the paper's evaluation:
//!
//! | binary            | paper artifact |
//! |-------------------|----------------|
//! | `repro_table1`    | Table 1 — recipes & ingredients per region |
//! | `repro_fig2`      | Fig 2 — category-composition heatmap |
//! | `repro_fig3a`     | Fig 3a — recipe-size distribution |
//! | `repro_fig3b`     | Fig 3b — ingredient rank-frequency scaling |
//! | `repro_fig4`      | Fig 4 — z-scores vs the four null models |
//! | `repro_fig5`      | Fig 5 — top-3 contributing ingredients |
//! | `repro_ntuples`   | §V extension — triple/quadruple sharing |
//! | `repro_evolution` | paper ref 10 — copy-mutate evolution model |
//! | `repro_robustness`| §V extension — subsampling / profile dilution |
//! | `repro_cooking`   | §V extension — cooking flavor transformation |
//! | `repro_network`   | supplementary — Ahn-style flavor network |
//! | `repro_similarity`| supplementary — fingerprints + clustering |
//! | `repro_classifier`| supplementary — cuisine classification |
//! | `repro_ablation`  | DESIGN.md §5 — generator design ablation |
//!
//! ## Environment knobs
//!
//! * `CULINARIA_SCALE` — recipe-count multiplier on Table 1
//!   (default 1.0 = full paper scale);
//! * `CULINARIA_MC` — Monte-Carlo recipes per null model
//!   (default 100000, the paper's number);
//! * `CULINARIA_SEED` — master seed (default 2018);
//! * `CULINARIA_METRICS` — `text` or `json`: dump the observability
//!   registry (see `culinaria-obs`) on stderr when the harness exits.
//!   The instrumented harnesses also accept `--metrics[=json]` on the
//!   command line, which takes precedence over the variable.
//!
//! Every harness reads its numeric knobs, these and `bench_ntuple`'s
//! own (`CULINARIA_NTUPLE_MC`, `CULINARIA_BENCH_OUT`), through
//! [`env_or`]. An unset knob takes its default. A set knob that does
//! not parse is an error, as a malformed CLI flag is:
//! `CULINARIA_SCALE=0.0l` prints `error: CULINARIA_SCALE: cannot parse
//! "0.0l"` and exits with code 2 instead of running at the default.

use culinaria_core::MonteCarloConfig;
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_obs::Metrics;

/// Read a knob from the environment. An unset variable gives
/// `default`; a malformed one is a usage error, as a malformed CLI flag
/// is: it prints `error: NAME: cannot parse "…"` and exits with code 2
/// rather than run with a default nobody asked for.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    or_exit(parse_knob(name, std::env::var(name).ok(), default))
}

/// Parse a knob's raw value: `None` (unset) gives `default`.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<String>,
    default: T,
) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
    }
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// The world configuration selected by the environment (see the crate
/// docs for the knobs).
pub fn world_config_from_env() -> WorldConfig {
    let scale: f64 = env_or("CULINARIA_SCALE", 1.0);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = scale;
    cfg.seed = seed;
    cfg
}

/// Generate the world selected by the environment, logging timings.
pub fn world_from_env() -> World {
    let cfg = world_config_from_env();
    eprintln!(
        "generating world: scale {}, seed {}, {} ingredients / {} molecules",
        cfg.recipe_scale, cfg.seed, cfg.flavor.n_ingredients, cfg.flavor.n_molecules
    );
    let t = std::time::Instant::now();
    let world = generate_world(&cfg);
    eprintln!(
        "world ready: {} recipes in {:.1?}",
        world.recipes.n_recipes(),
        t.elapsed()
    );
    world
}

/// The Monte-Carlo configuration selected by the environment.
pub fn mc_config_from_env() -> MonteCarloConfig {
    MonteCarloConfig {
        n_recipes: env_or("CULINARIA_MC", 100_000),
        seed: env_or("CULINARIA_SEED", 2018),
        n_threads: 0,
    }
}

/// Print a harness section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// A [`Metrics`] handle plus the rendering format the harness was asked
/// for. Build one with [`metrics_from_env`]; pass `.metrics` to the
/// `*_observed` entry points and call [`MetricsSink::dump`] at exit.
pub struct MetricsSink {
    /// The handle the instrumented pipeline records into. Disabled
    /// (every operation a no-op) unless metrics were requested.
    pub metrics: Metrics,
    /// Render as one JSON object instead of aligned text.
    pub json: bool,
}

impl MetricsSink {
    /// Render the registry to stderr (stdout stays the harness's
    /// tables). No-op when metrics were not requested.
    pub fn dump(&self) {
        if !self.metrics.is_enabled() {
            return;
        }
        if self.json {
            eprintln!("{}", self.metrics.render_json());
        } else {
            eprint!("{}", self.metrics.render_text());
        }
    }
}

/// The metrics sink selected by `--metrics[=json]` on the command line
/// or, failing that, the `CULINARIA_METRICS` environment variable
/// (`text` or `json`). Returns a disabled (zero-cost) sink when
/// neither asks for metrics.
pub fn metrics_from_env() -> MetricsSink {
    let mode = std::env::args()
        .skip(1)
        .find_map(|arg| match arg.as_str() {
            "--metrics" => Some("text".to_owned()),
            _ => arg.strip_prefix("--metrics=").map(str::to_owned),
        })
        .or_else(|| std::env::var("CULINARIA_METRICS").ok());
    match mode {
        None => MetricsSink {
            metrics: Metrics::disabled(),
            json: false,
        },
        Some(mode) => MetricsSink {
            metrics: Metrics::enabled(),
            json: mode == "json",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_strictly() {
        let knob = |raw: Option<&str>| parse_knob("CULINARIA_SCALE", raw.map(str::to_owned), 1.0);
        assert_eq!(knob(None), Ok(1.0));
        assert_eq!(knob(Some("0.05")), Ok(0.05));
        assert_eq!(
            knob(Some("0.0l")),
            Err(r#"CULINARIA_SCALE: cannot parse "0.0l""#.to_owned())
        );
        // Set but empty is malformed too, not "unset".
        assert!(knob(Some("")).is_err());
        assert_eq!(
            parse_knob("CULINARIA_BENCH_OUT", None, "BENCH.json".to_owned()),
            Ok("BENCH.json".to_owned())
        );
    }

    #[test]
    fn env_defaults() {
        // Tolerate exported overrides by only checking types/ranges.
        let cfg = world_config_from_env();
        assert!(cfg.recipe_scale > 0.0);
        let mc = mc_config_from_env();
        assert!(mc.n_recipes > 0);
    }
}
