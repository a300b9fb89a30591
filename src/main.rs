//! `culinaria` — command-line front end for the culinary-patterns
//! framework.
//!
//! ```text
//! culinaria generate [--scale S] [--seed N] [--out DIR]
//! culinaria analyze  [--scale S] [--seed N] [--mc N] [--metrics[=json]]
//! culinaria report   <REGION> [--scale S] [--seed N] [--mc N] [--metrics[=json]]
//! culinaria import   <FILE> [--threads N] [--metrics[=json]]
//! culinaria ingest   <FILE> --wal DIR [--threads N]
//!                    [--fsync always|batch|off] [--segment-bytes N]
//! culinaria replay   --wal DIR [--prefix N] [--threads N] [--analyze]
//! culinaria pairings <REGION> [--scale S] [--top K]
//! culinaria suggest  <REGION> [--scale S] [--size N] [--uniform|--contrast]
//! culinaria serve    (--stdio | --socket PATH) [--data DIR] [--threads N]
//!                    [--batch N] [--cache-entries N] [--max-queue N]
//!                    [--mc N] [--seed N] [--once] [--metrics[=json]]
//!                    [--read-timeout MS] [--write-timeout MS] [--idle-timeout MS]
//!                    [--max-conns N] [--force-bind]
//! culinaria regions
//! ```
//!
//! `generate` writes the dataset as zero-copy artifacts: `flavor.cfdb2`
//! (carrying one precomputed overlap section per populated region),
//! `recipes.crdb2`, and a `recipes.csv` export. `serve` opens them.
//! `ingest` and `replay` work on one durable log, the segmented WAL
//! directory named by `--wal`.
//!
//! A flag the subcommand does not accept, or a flag value that does not
//! parse, is a usage error: the command exits 2 and names the flag
//! before it touches any data.
//! `--metrics` renders the observability registry (spans, counters,
//! histograms — see `culinaria-obs`) to stderr when the command
//! finishes; `--metrics=json` renders it as one JSON object instead.

use std::collections::HashMap;
use std::process::ExitCode;

use culinaria::analysis::contribution::top_contributors;
use culinaria::analysis::generation::{Objective, RecipeGenerator};
use culinaria::analysis::pairing::OverlapCache;
use culinaria::analysis::z_analysis::{
    analyses_to_frame, try_analyze_cuisine_view_observed, try_analyze_world_view_observed,
};
use culinaria::analysis::{FlavorViewRef, RecipesViewRef};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::{AlignedBytes, FlavorArtifactBuilder};
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{
    FsyncPolicy, RecipeArtifactBuilder, RecipeStore, Region, SegmentedLog, Source,
};
use culinaria::serve::protocol::{encode_conn_limit, write_frame};
use culinaria::serve::{arm, install_signal_handlers, ServeConfig, Server};

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if let Some(name) = raw[i].strip_prefix("--") {
            // `--name=value` binds inline; otherwise a non-`--`
            // successor is the value. A `--`-prefixed successor is the
            // next flag, not a value — boolean flags (`--uniform`,
            // `--contrast`) must not swallow it, whatever order the
            // flags come in.
            if let Some((name, value)) = name.split_once('=') {
                flags.insert(name.to_owned(), value.to_owned());
                i += 1;
                continue;
            }
            let value = match raw.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    i += 2;
                    next.clone()
                }
                _ => {
                    i += 1;
                    String::new()
                }
            };
            flags.insert(name.to_owned(), value);
        } else {
            positional.push(raw[i].clone());
            i += 1;
        }
    }
    Args { flags, positional }
}

impl Args {
    /// The value of `--name`, or `default` when the flag is absent. A
    /// present-yet-unparseable value is an error naming the flag, so a
    /// typo'd `--mc 2OO` exits 2 instead of running with a surprise
    /// default.
    fn flag_checked<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse value {v:?}")),
        }
    }

    /// The metrics sink selected by `--metrics` (text) or
    /// `--metrics=json`; disabled (zero-cost no-op) when absent.
    fn metrics(&self) -> Result<MetricsSink, String> {
        let (metrics, json) = match self.flags.get("metrics").map(String::as_str) {
            None => (Metrics::disabled(), false),
            Some("") => (Metrics::enabled(), false),
            Some("json") => (Metrics::enabled(), true),
            Some(other) => {
                return Err(format!(
                    "--metrics: expected `--metrics` or `--metrics=json`, got {other:?}"
                ))
            }
        };
        Ok(MetricsSink { metrics, json })
    }
}

/// A [`Metrics`] handle plus the output format `--metrics` selected.
struct MetricsSink {
    metrics: Metrics,
    json: bool,
}

impl MetricsSink {
    /// Render the registry to stderr (stdout stays the command's data).
    /// No-op when metrics were not requested.
    fn dump(&self) {
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

fn build_world(args: &Args) -> Result<World, String> {
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = args.flag_checked("scale", 0.1)?;
    if !(cfg.recipe_scale.is_finite() && cfg.recipe_scale >= 0.0) {
        return Err(format!(
            "--scale: expected a finite, non-negative number, got {}",
            cfg.recipe_scale
        ));
    }
    cfg.seed = args.flag_checked("seed", 2018u64)?;
    eprintln!(
        "generating world (scale {}, seed {})…",
        cfg.recipe_scale, cfg.seed
    );
    Ok(generate_world(&cfg))
}

/// The Monte-Carlo settings of `--mc` and `--seed`.
fn mc_config(args: &Args, default_recipes: usize) -> Result<MonteCarloConfig, String> {
    Ok(MonteCarloConfig {
        n_recipes: args.flag_checked("mc", default_recipes)?,
        seed: args.flag_checked("seed", 2018u64)?,
        n_threads: 0,
    })
}

/// One malformed block found while parsing the `import` text format.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParseIssue {
    /// 1-based line number of the offending block header.
    line: usize,
    message: String,
}

/// Parse the `import` command's plain-text recipe format: recipes are
/// blank-line-separated blocks, the first line of each block is
/// `name | REGION_CODE`, every following line is one free-text
/// ingredient line. `#` starts a comment line anywhere.
///
/// Malformed blocks (bad header, unknown region tag) do not abort the
/// parse: every well-formed recipe is returned, and every bad block is
/// reported as a [`ParseIssue`] with its line number so curators can
/// fix the whole file in one pass.
fn parse_raw_recipes(text: &str) -> (Vec<RawRecipe>, Vec<ParseIssue>) {
    let mut raws = Vec::new();
    let mut issues = Vec::new();
    let mut block: Vec<(usize, &str)> = Vec::new();
    // A sentinel blank line flushes the final block without a special case.
    for (idx, line) in text.lines().chain(std::iter::once("")).enumerate() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if !line.is_empty() {
            block.push((idx + 1, line));
            continue;
        }
        let Some(((header_line, header), ingredients)) = block.split_first() else {
            continue;
        };
        let Some((name, code)) = header.split_once('|') else {
            issues.push(ParseIssue {
                line: *header_line,
                message: format!("recipe header must be `name | REGION_CODE`, got {header:?}"),
            });
            block.clear();
            continue;
        };
        let code = code.trim();
        let Ok(region) = code.parse::<Region>() else {
            issues.push(ParseIssue {
                line: *header_line,
                message: format!("unknown region code {code:?}"),
            });
            block.clear();
            continue;
        };
        raws.push(RawRecipe {
            name: name.trim().to_owned(),
            region,
            source: Source::Synthetic,
            ingredient_lines: ingredients.iter().map(|(_, l)| (*l).to_owned()).collect(),
        });
        block.clear();
    }
    (raws, issues)
}

/// Read a recipe text file, reporting every malformed block on stderr.
fn read_raw_recipes(path: &str) -> Result<(Vec<RawRecipe>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (raws, issues) = parse_raw_recipes(&text);
    for issue in &issues {
        eprintln!("{path}:{}: {}", issue.line, issue.message);
    }
    Ok((raws, issues.len()))
}

/// Open (and recover) the segmented log in `dir`: torn tails are
/// truncated and orphans tolerated, and either is reported on stderr.
fn open_wal(dir: &str, policy: FsyncPolicy, segment_bytes: u64) -> Result<SegmentedLog, String> {
    let log = SegmentedLog::open(dir, policy, segment_bytes)
        .map_err(|e| format!("{dir}: cannot open wal: {e}"))?;
    let rec = log.recovery();
    if rec.recovered() || rec.orphans > 0 {
        eprintln!(
            "{dir}: recovered — {} torn byte(s) truncated, {} orphan segment(s)",
            rec.truncated_bytes, rec.orphans
        );
    }
    Ok(log)
}

/// The `--wal DIR` every log command needs.
fn wal_dir(args: &Args) -> Result<&str, String> {
    match args.flags.get("wal") {
        Some(dir) if !dir.is_empty() => Ok(dir),
        _ => Err("needs --wal DIR (the segmented log directory)".to_owned()),
    }
}

/// The flags each subcommand accepts, including the ones its shared
/// helpers read (`build_world`: `scale`, `seed`; `mc_config`: `mc`,
/// `seed`; `Args::metrics`: `metrics`). [`run`] rejects any other flag
/// before dispatch, so a typo such as `--tpo` fails instead of being
/// silently ignored.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("regions", ""),
    ("generate", "out scale seed"),
    ("analyze", "mc seed metrics scale"),
    ("import", "threads metrics"),
    ("ingest", "wal fsync segment-bytes threads"),
    ("replay", "wal threads prefix mc seed metrics analyze"),
    ("report", "mc seed metrics scale"),
    ("suggest", "size contrast uniform scale seed"),
    ("pairings", "top scale seed"),
    (
        "serve",
        "stdio socket data threads batch cache-entries max-queue mc seed once metrics \
         read-timeout write-timeout idle-timeout max-conns force-bind",
    ),
];

/// Reject a flag `command` does not accept (unknown commands pass;
/// [`run`] answers them with the usage text).
fn check_flags(command: &str, args: &Args) -> Result<(), String> {
    let Some(&(_, accepted)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == command) else {
        return Ok(());
    };
    let accepted: Vec<&str> = accepted.split_whitespace().collect();
    // The smallest name, so the flag named is deterministic when
    // several are off.
    let unknown = args
        .flags
        .keys()
        .filter(|f| !accepted.contains(&f.as_str()));
    match unknown.min() {
        None => Ok(()),
        Some(flag) if accepted.is_empty() => Err(format!("--{flag}: takes no flags")),
        Some(flag) => Err(format!(
            "--{flag}: unknown flag (accepted: --{})",
            accepted.join(", --")
        )),
    }
}

/// Report a runtime failure and exit 1; usage errors are `Err` (exit 2).
fn fail(msg: impl std::fmt::Display) -> Result<ExitCode, String> {
    eprintln!("{msg}");
    Ok(ExitCode::FAILURE)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         culinaria generate [--scale S] [--seed N] [--out DIR]   write CFDB2/CRDB2 artifacts + CSV\n  \
         culinaria analyze  [--scale S] [--seed N] [--mc N]      Fig-4 z-score table\n  \
         culinaria report   <REGION> [--scale S] [--seed N]      one cuisine in depth\n  \
         culinaria import   <FILE> [--threads N]                 import raw recipes from a file\n  \
         culinaria ingest   <FILE> --wal DIR                     import + append to the log\n  \
         culinaria replay   --wal DIR [--prefix N] [--analyze]   rebuild the store from the log\n  \
         culinaria pairings <REGION> [--scale S] [--top K]       novel pairing suggestions\n  \
         culinaria suggest  <REGION> [--size N] [--uniform|--contrast]  generate a recipe\n  \
         culinaria serve    (--stdio | --socket PATH) [--data DIR]      online query service\n  \
         culinaria regions                                       list Table 1 regions\n\
         \n\
         analyze, report, import and replay accept --metrics[=json]: a\n\
         pipeline-telemetry dump (spans, counters, histograms) on stderr at exit."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        return usage();
    };
    match run(command, &parse_args(&raw[1..])) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{command}: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Run one subcommand. `Err` is a usage error (exit 2); a runtime
/// failure is reported where it happens and returns exit code 1.
fn run(command: &str, args: &Args) -> Result<ExitCode, String> {
    check_flags(command, args)?;
    match command {
        "regions" => {
            println!(
                "{:5} {:24} {:>8} {:>12} {:>12}",
                "code", "name", "recipes", "ingredients", "pairing"
            );
            for r in Region::ALL {
                println!(
                    "{:5} {:24} {:>8} {:>12} {:>12}",
                    r.code(),
                    r.name(),
                    r.paper_recipe_count(),
                    r.paper_ingredient_count(),
                    if r.paper_positive_pairing() {
                        "uniform"
                    } else {
                        "contrasting"
                    }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "generate" => {
            let out = args
                .flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "culinaria-data".to_owned());
            let world = build_world(args)?;
            // One overlap section per populated region, so an analysis
            // over the artifact reuses the triangle instead of sweeping
            // the region's pool again.
            let mut flavor = FlavorArtifactBuilder::new(&world.flavor);
            for region in world.recipes.regions() {
                let cache = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region));
                if let Err(e) = flavor.add_overlap(region.code(), cache.pool(), cache.tri()) {
                    return fail(format!("cannot attach {region} overlap section: {e}"));
                }
            }
            let (flavor, recipes) = match (
                flavor.build(),
                RecipeArtifactBuilder::new(&world.recipes).build(),
            ) {
                (Ok(f), Ok(r)) => (f, r),
                (Err(e), _) | (_, Err(e)) => return fail(format!("cannot encode artifact: {e}")),
            };
            let csv = culinaria::recipedb::io::to_csv(&world.recipes);
            if let Err(e) = std::fs::create_dir_all(&out) {
                return fail(format!("cannot create {out}: {e}"));
            }
            let write = |name: &str, bytes: &[u8]| -> std::io::Result<()> {
                let path = format!("{out}/{name}");
                std::fs::write(&path, bytes)?;
                println!("wrote {path} ({} bytes)", bytes.len());
                Ok(())
            };
            if let Err(e) = write("flavor.cfdb2", &flavor)
                .and_then(|()| write("recipes.crdb2", &recipes))
                .and_then(|()| write("recipes.csv", csv.as_bytes()))
            {
                return fail(format!("write failed: {e}"));
            }
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let mc = mc_config(args, 20_000)?;
            let sink = args.metrics()?;
            let world = build_world(args)?;
            let analyses = match try_analyze_world_view_observed(
                &world.flavor,
                &world.recipes,
                &NullModel::ALL,
                &mc,
                &sink.metrics,
            ) {
                Ok(a) => a,
                Err(failure) => {
                    eprintln!("analysis failed: {failure}");
                    sink.dump();
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!("{}", analyses_to_frame(&analyses).to_table_string(22));
            let matches = analyses
                .iter()
                .filter(|a| {
                    (a.z_random().unwrap_or(0.0) > 0.0) == a.region.paper_positive_pairing()
                })
                .count();
            println!("pairing-sign agreement with the paper: {matches}/22");
            sink.dump();
            Ok(ExitCode::SUCCESS)
        }
        "import" => {
            let Some(path) = args.positional.first() else {
                return Err("needs a file path (see --help for the format)".to_owned());
            };
            let threads = args.flag_checked("threads", 0usize)?;
            let sink = args.metrics()?;
            let (raws, n_issues) = match read_raw_recipes(path) {
                Ok(parsed) => parsed,
                Err(msg) => return fail(msg),
            };
            let db = culinaria::flavordb::curated::curated_db();
            let importer = Importer::from_flavor_db(&db);
            let mut store = RecipeStore::new();
            let stats = match importer.import_batch_observed(
                &db,
                &mut store,
                &raws,
                threads,
                &sink.metrics,
            ) {
                Ok(s) => s,
                Err(e) => return fail(format!("import failed: {e}")),
            };
            println!(
                "imported {}/{} recipes ({} dropped), {} lines resolved, {} unresolved",
                stats.stored,
                stats.offered,
                stats.dropped,
                stats.lines_resolved,
                stats.lines_unresolved
            );
            if !stats.unresolved_tokens.is_empty() {
                println!("top unresolved tokens (curation worklist):");
                for (tok, count) in stats.unresolved_tokens.iter().take(10) {
                    println!("  {count:>4}× {tok}");
                }
            }
            for failure in &stats.failures {
                eprintln!("dropped {failure}");
            }
            sink.dump();
            if n_issues == 0 {
                Ok(ExitCode::SUCCESS)
            } else {
                fail(format!(
                    "{path}: {n_issues} malformed block(s) skipped — fix them and re-import"
                ))
            }
        }
        "ingest" => {
            let Some(path) = args.positional.first() else {
                return Err("needs a file path (same text format as `import`)".to_owned());
            };
            let dir = wal_dir(args)?;
            let policy = args
                .flag_checked("fsync", FsyncPolicy::Batch)
                .map_err(|msg| format!("{msg} (expected always|batch|off)"))?;
            let segment_bytes = args.flag_checked("segment-bytes", 8u64 * 1024 * 1024)?;
            let threads = args.flag_checked("threads", 0usize)?;
            let (raws, n_issues) = match read_raw_recipes(path) {
                Ok(parsed) => parsed,
                Err(msg) => return fail(msg),
            };
            let db = culinaria::flavordb::curated::curated_db();
            let importer = Importer::from_flavor_db(&db);
            let mut log = match open_wal(dir, policy, segment_bytes) {
                Ok(log) => log,
                Err(msg) => return fail(msg),
            };
            // Prior records replay first, so the grown log still
            // replays ≡ one big batch.
            let mut store = if log.is_empty() {
                RecipeStore::new()
            } else {
                match log.replay(&db, &importer, threads) {
                    Ok((store, _)) => store,
                    Err(e) => return fail(format!("{dir}: cannot replay existing wal: {e}")),
                }
            };
            let prior = log.len();
            let stats = match log.append_batch(&db, &importer, &mut store, &raws, threads) {
                Ok(s) => s,
                Err(e) => return fail(format!("ingest failed: {e}")),
            };
            // The tail is durable before we report, whatever the policy.
            if let Err(e) = log.sync() {
                return fail(format!("{dir}: cannot sync wal tail: {e}"));
            }
            println!(
                "ingested {}/{} recipes ({} tombstoned); \
                 wal {dir}: {} records (+{}) across {} segment(s) [fsync={policy}]; store: {} recipes",
                stats.stored,
                stats.offered,
                stats.failures.len(),
                log.len(),
                log.len() - prior,
                log.n_segments(),
                store.n_recipes()
            );
            for failure in &stats.failures {
                eprintln!("tombstoned {failure}");
            }
            if n_issues == 0 {
                Ok(ExitCode::SUCCESS)
            } else {
                fail(format!(
                    "{path}: {n_issues} malformed block(s) skipped — fix them and re-ingest"
                ))
            }
        }
        "replay" => {
            let dir = wal_dir(args)?;
            let threads = args.flag_checked("threads", 0usize)?;
            // `--prefix` defaults to the whole log, whose length is
            // known only once it is open; parse it first regardless.
            let prefix = args
                .flags
                .contains_key("prefix")
                .then(|| args.flag_checked("prefix", 0usize))
                .transpose()?;
            let mc = mc_config(args, 2000)?;
            let sink = args.metrics()?;
            // Opening a log creates a missing directory; replay must
            // not, so a mistyped path fails instead of replaying 0/0.
            if !std::path::Path::new(dir).is_dir() {
                return fail(format!("{dir}: no wal directory to replay"));
            }
            let db = culinaria::flavordb::curated::curated_db();
            let importer = Importer::from_flavor_db(&db);
            // Fsync off: replay only reads (recovery may still
            // truncate a torn tail, which does sync).
            let log = match open_wal(dir, FsyncPolicy::Off, 0) {
                Ok(log) => log,
                Err(msg) => return fail(msg),
            };
            let n = prefix.unwrap_or(log.len());
            let (store, stats) = match log.replay_prefix(&db, &importer, n, threads) {
                Ok(out) => out,
                Err(e) => return fail(format!("replay failed: {e}")),
            };
            println!(
                "replayed {n}/{} records: {} stored, {} tombstoned, \
                 {} lines resolved, {} unresolved",
                log.len(),
                stats.stored,
                stats.failures.len(),
                stats.lines_resolved,
                stats.lines_unresolved
            );
            if args.flags.contains_key("analyze") {
                let analyses = match try_analyze_world_view_observed(
                    &db,
                    &store,
                    &NullModel::ALL,
                    &mc,
                    &sink.metrics,
                ) {
                    Ok(a) => a,
                    Err(failure) => {
                        eprintln!("analysis failed: {failure}");
                        sink.dump();
                        return Ok(ExitCode::FAILURE);
                    }
                };
                println!("{}", analyses_to_frame(&analyses).to_table_string(22));
                sink.dump();
            }
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let Some(region) = args
                .positional
                .first()
                .and_then(|s| s.parse::<Region>().ok())
            else {
                return Err("needs a region code (see `culinaria regions`)".to_owned());
            };
            let mc = mc_config(args, 20_000)?;
            let sink = args.metrics()?;
            let world = build_world(args)?;
            let cuisine = world.recipes.cuisine(region);
            let analysis = match try_analyze_cuisine_view_observed(
                &world.flavor,
                &cuisine,
                &NullModel::ALL,
                &mc,
                &sink.metrics,
            ) {
                Ok(Some(analysis)) => analysis,
                Ok(None) => return fail(format!("{region}: no pairing-bearing recipes")),
                Err(failure) => {
                    eprintln!("report failed: {failure}");
                    sink.dump();
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!(
                "{} — {} recipes, {} ingredients",
                region.name(),
                analysis.n_recipes,
                analysis.n_ingredients
            );
            println!("observed <Ns> = {:.3}", analysis.observed_mean);
            for c in &analysis.comparisons {
                println!(
                    "  vs {:22} z = {:+10.1}",
                    c.model.name(),
                    c.z.unwrap_or(f64::NAN)
                );
            }
            println!("verdict: {} food pairing", analysis.verdict());
            let positive = analysis.z_random().unwrap_or(0.0) > 0.0;
            println!("\ntop contributors:");
            for c in top_contributors(&world.flavor, &cuisine, 5, positive) {
                println!(
                    "  {:30} {:+7.2}%  ({} recipes)",
                    c.name, c.percent_change, c.n_recipes
                );
            }
            sink.dump();
            Ok(ExitCode::SUCCESS)
        }
        "suggest" => {
            let Some(region) = args
                .positional
                .first()
                .and_then(|s| s.parse::<Region>().ok())
            else {
                return Err("needs a region code (see `culinaria regions`)".to_owned());
            };
            let size = args.flag_checked("size", 7usize)?;
            let world = build_world(args)?;
            let cuisine = world.recipes.cuisine(region);
            let objective = if args.flags.contains_key("contrast") {
                Objective::MinimizeSharing
            } else {
                Objective::MaximizeSharing
            };
            let generator = RecipeGenerator::new(&world.flavor, &cuisine, 100);
            let Some(recipe) = generator.generate_recipe(size, objective, 0) else {
                return fail(format!(
                    "{region}: pool too small for a {size}-ingredient recipe"
                ));
            };
            println!(
                "generated {} recipe for {} (Ns = {:.2}):",
                match objective {
                    Objective::MinimizeSharing => "contrasting",
                    _ => "uniform",
                },
                region.name(),
                recipe.ns
            );
            for id in &recipe.ingredients {
                println!("  {}", generator.name(*id));
            }
            Ok(ExitCode::SUCCESS)
        }
        "pairings" => {
            let Some(region) = args
                .positional
                .first()
                .and_then(|s| s.parse::<Region>().ok())
            else {
                return Err("needs a region code (see `culinaria regions`)".to_owned());
            };
            let top_k = args.flag_checked("top", 10usize)?;
            let world = build_world(args)?;
            let cuisine = world.recipes.cuisine(region);
            let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
            let pool = cache.pool().to_vec();
            let mut candidates: Vec<(f64, usize, usize, usize, usize)> = Vec::new();
            for i in 0..pool.len() {
                for j in (i + 1)..pool.len() {
                    let overlap = cache.overlap(i as u32, j as u32) as usize;
                    if overlap == 0 {
                        continue;
                    }
                    let cooc = world.recipes.cooccurrence(pool[i], pool[j]);
                    candidates.push((overlap as f64 / (1.0 + cooc as f64), overlap, cooc, i, j));
                }
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
            println!(
                "novel pairings for {} (high overlap, low co-use):",
                region.name()
            );
            for &(novelty, overlap, cooc, i, j) in candidates.iter().take(top_k) {
                // The pool comes straight from the overlap cache, so
                // both ids should be live; a mismatch means the cache
                // and database went out of sync — report, don't panic.
                let (a, b) = match (
                    world.flavor.ingredient(pool[i]),
                    world.flavor.ingredient(pool[j]),
                ) {
                    (Ok(a), Ok(b)) => (&a.name, &b.name),
                    (Err(e), _) | (_, Err(e)) => {
                        return fail(format!("pairing table references a dead ingredient: {e}"))
                    }
                };
                println!("  {novelty:7.1}  {a} + {b}  (overlap {overlap}, co-used {cooc}×)");
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => Ok(run_serve(&ServeOptions::from_args(args)?)),
        _ => Ok(usage()),
    }
}

/// Which transport `culinaria serve` listens on. No network — queries
/// arrive framed over stdin/stdout or a unix-domain socket.
#[derive(Debug)]
enum ServeTransport {
    /// One connection on stdin/stdout; exits at EOF or `QUIT`.
    Stdio,
    /// Unix-domain socket at the given path; one thread per connection.
    Socket(String),
}

/// Fully validated `culinaria serve` options. Validation happens
/// *before* any data is opened, so a malformed flag fails fast with
/// exit code 2 and a message naming the flag.
#[derive(Debug)]
struct ServeOptions {
    data_dir: String,
    transport: ServeTransport,
    cfg: ServeConfig,
    /// Accept exactly one socket connection, then exit (smoke tests).
    once: bool,
    /// Bind over a socket path even when a live server answers on it.
    force_bind: bool,
    /// `Some(json)` when `--metrics[=json]` asked for an exit dump.
    metrics_dump: Option<bool>,
}

impl ServeOptions {
    fn from_args(args: &Args) -> Result<ServeOptions, String> {
        let cfg = ServeConfig {
            threads: args.flag_checked("threads", 0usize)?,
            batch_max: args.flag_checked("batch", 32usize)?,
            cache_entries: args.flag_checked("cache-entries", 4096usize)?,
            max_queue: args.flag_checked("max-queue", 256usize)?,
            mc_recipes: args.flag_checked("mc", 2000usize)?,
            seed: args.flag_checked("seed", 2018u64)?,
            read_timeout_ms: args.flag_checked("read-timeout", 30_000u64)?,
            write_timeout_ms: args.flag_checked("write-timeout", 30_000u64)?,
            idle_timeout_ms: args.flag_checked("idle-timeout", 300_000u64)?,
            max_conns: args.flag_checked("max-conns", 64usize)?,
        };
        if cfg.batch_max == 0 {
            return Err("--batch: must be at least 1".to_owned());
        }
        if cfg.max_queue == 0 {
            return Err("--max-queue: must be at least 1".to_owned());
        }
        let transport = match (args.flags.contains_key("stdio"), args.flags.get("socket")) {
            (true, Some(_)) => return Err("--stdio and --socket are mutually exclusive".to_owned()),
            (true, None) => ServeTransport::Stdio,
            (false, Some(path)) if !path.is_empty() => ServeTransport::Socket(path.clone()),
            (false, Some(_)) => return Err("--socket: needs a path".to_owned()),
            (false, None) => return Err("pick a transport: --stdio or --socket PATH".to_owned()),
        };
        let force_bind = args.flags.contains_key("force-bind");
        if force_bind && matches!(transport, ServeTransport::Stdio) {
            return Err("--force-bind only applies to --socket".to_owned());
        }
        let dump = args.metrics()?;
        Ok(ServeOptions {
            data_dir: args
                .flags
                .get("data")
                .cloned()
                .unwrap_or_else(|| "culinaria-data".to_owned()),
            transport,
            cfg,
            once: args.flags.contains_key("once"),
            force_bind,
            metrics_dump: dump.metrics.is_enabled().then_some(dump.json),
        })
    }
}

/// Read the serve dataset, `flavor.cfdb2` + `recipes.crdb2`, into
/// aligned buffers that live as long as the server. The borrowed views
/// into them are built (O(1)) inside [`run_serve`].
fn read_serve_data(dir: &str) -> Result<(AlignedBytes, AlignedBytes), String> {
    let flavor = format!("{dir}/flavor.cfdb2");
    let recipes = format!("{dir}/recipes.crdb2");
    if !(std::path::Path::new(&flavor).exists() && std::path::Path::new(&recipes).exists()) {
        return Err(format!(
            "{dir}: no dataset (flavor.cfdb2 + recipes.crdb2) — \
             run `culinaria generate --out {dir}` first"
        ));
    }
    let read = |p: &str| AlignedBytes::read_file(p).map_err(|e| format!("cannot read {p}: {e}"));
    Ok((read(&flavor)?, read(&recipes)?))
}

/// Open the artifacts and run the server until the transport drains.
fn run_serve(opts: &ServeOptions) -> ExitCode {
    let (fbuf, rbuf) = match read_serve_data(&opts.data_dir) {
        Ok(bufs) => bufs,
        Err(msg) => {
            eprintln!("serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let flavor = match culinaria::flavordb::artifact::open(fbuf.as_slice()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve: corrupt flavor artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recipes = match culinaria::recipedb::artifact::open(rbuf.as_slice()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: corrupt recipe artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: opened artifacts from {} (zero-copy)", opts.data_dir);
    // The METRICS endpoint serves live telemetry, so the server always
    // records; `--metrics[=json]` only controls the exit dump below.
    let server = Server::new(
        FlavorViewRef::Artifact(&flavor),
        RecipesViewRef::Artifact(&recipes),
        opts.cfg,
        Metrics::enabled(),
    );
    let code = match &opts.transport {
        ServeTransport::Stdio => {
            let stats = server.serve_connection(std::io::stdin().lock(), std::io::stdout());
            match stats {
                Ok(stats) => {
                    eprintln!(
                        "serve: connection closed ({} served, {} shed, {} protocol errors)",
                        stats.served, stats.shed, stats.protocol_errors
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve: transport error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ServeTransport::Socket(path) => serve_socket(&server, path, opts),
    };
    if let Some(json) = opts.metrics_dump {
        if json {
            eprintln!("{}", server.metrics().render_json());
        } else {
            eprint!("{}", server.metrics().render_text());
        }
    }
    code
}

/// How often the accept loop polls for connections and the shutdown
/// flag, and the base of the accept-failure backoff.
const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(25);

/// Consecutive accept failures tolerated (with capped exponential
/// backoff between retries) before the server gives up. Transient
/// conditions — fd exhaustion, aborted handshakes — clear well inside
/// this horizon; only a persistently broken listener is fatal.
const MAX_ACCEPT_ERRORS: u32 = 8;

/// Accept loop for `--socket`, hardened for operation:
///
/// * **clobber guard** — an existing socket path is probed first; a
///   live server on it is refused unless `--force-bind`, a stale file
///   (dead peer) is removed;
/// * **graceful shutdown** — SIGINT/SIGTERM stop the accept loop; each
///   connection sees the flag on its next deadline tick, drains its
///   accepted requests through the batcher, and replies before closing;
///   the socket file is unlinked and the process exits 0;
/// * **connection cap** — over `--max-conns`, a connection gets one
///   framed `ERR conn-limit` and is dropped;
/// * **deadlines** — every accepted stream is armed with the configured
///   read/write/idle timeouts, so a stalled client is shed instead of
///   wedging its thread;
/// * **accept resilience** — transient accept failures back off and
///   retry instead of killing the server.
fn serve_socket(server: &Server<'_>, path: &str, opts: &ServeOptions) -> ExitCode {
    use std::os::unix::net::{UnixListener, UnixStream};
    if std::path::Path::new(path).exists() {
        // Only replace a socket nobody answers on. A successful connect
        // means a live server; clobbering it would steal its clients.
        match UnixStream::connect(path) {
            Ok(_) if !opts.force_bind => {
                eprintln!(
                    "serve: {path}: a live server is answering on this socket; \
                     refusing to replace it (pass --force-bind to override)"
                );
                return ExitCode::FAILURE;
            }
            Ok(_) => eprintln!("serve: {path}: replacing a live server (--force-bind)"),
            Err(_) => {} // stale file from a dead process
        }
        if let Err(e) = std::fs::remove_file(path) {
            eprintln!("serve: cannot remove stale socket {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Non-blocking accepts let the loop poll the shutdown flag; the
    // accepted streams are switched back to blocking (with deadline
    // timeouts) below.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("serve: cannot poll {path}: {e}");
        return ExitCode::FAILURE;
    }
    let shutdown = install_signal_handlers();
    eprintln!(
        "serve: listening on {path}{}",
        if opts.once { " (one connection)" } else { "" }
    );
    let cfg = *server.config();
    let mut accept_errors = 0u32;
    let code = std::thread::scope(|scope| {
        loop {
            if shutdown.is_triggered() {
                eprintln!("serve: shutdown signal received; draining connections");
                break ExitCode::SUCCESS;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => {
                    accept_errors = 0;
                    stream
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) => {
                    accept_errors += 1;
                    if accept_errors >= MAX_ACCEPT_ERRORS {
                        eprintln!(
                            "serve: accept failed {accept_errors} times in a row, \
                             giving up: {e}"
                        );
                        break ExitCode::FAILURE;
                    }
                    let backoff = ACCEPT_POLL * 2u32.pow(accept_errors.min(6));
                    eprintln!("serve: accept failed ({e}); retrying in {backoff:?}");
                    std::thread::sleep(backoff);
                    continue;
                }
            };
            if cfg.max_conns > 0 && server.active_connections() >= cfg.max_conns as u64 {
                let mut stream = stream;
                let _ = write_frame(&mut stream, encode_conn_limit(cfg.max_conns).as_bytes());
                continue; // dropping the stream closes it
            }
            // Arm the per-connection deadlines, and make reads blocking
            // again so the poll tick (not O_NONBLOCK) paces them.
            if let Err(e) = stream
                .set_nonblocking(false)
                .and_then(|()| arm(&stream, &cfg))
            {
                eprintln!("serve: cannot arm connection deadlines: {e}");
                continue;
            }
            let reader = match stream.try_clone() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("serve: cannot clone socket: {e}");
                    continue;
                }
            };
            if opts.once {
                break match server.serve_connection_with(reader, stream, &shutdown) {
                    Ok(stats) => {
                        eprintln!(
                            "serve: connection closed ({} served, {} shed, {} protocol errors)",
                            stats.served, stats.shed, stats.protocol_errors
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("serve: transport error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            let conn_shutdown = shutdown.clone();
            scope.spawn(move || {
                if let Err(e) = server.serve_connection_with(reader, stream, &conn_shutdown) {
                    eprintln!("serve: transport error: {e}");
                }
            });
        }
        // Scope exit joins every connection thread: each sees the
        // shutdown flag on its next deadline tick, drains its queue
        // through the batcher, and flushes its replies first.
    });
    let _ = std::fs::remove_file(path);
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Args {
        parse_args(&raw.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn boolean_flag_does_not_swallow_next_flag() {
        let args = parse(&["ita", "--uniform", "--size", "3"]);
        assert_eq!(args.positional, vec!["ita"]);
        assert_eq!(args.flags.get("uniform").map(String::as_str), Some(""));
        assert_eq!(args.flag_checked("size", 7usize), Ok(3));
    }

    #[test]
    fn flag_orders_are_equivalent() {
        let a = parse(&["ita", "--size", "3", "--uniform"]);
        let b = parse(&["ita", "--uniform", "--size", "3"]);
        assert_eq!(a.flags, b.flags);
        assert_eq!(a.positional, b.positional);
    }

    #[test]
    fn trailing_boolean_flag_is_empty() {
        let args = parse(&["--contrast"]);
        assert_eq!(args.flags.get("contrast").map(String::as_str), Some(""));
        assert!(args.positional.is_empty());
    }

    #[test]
    fn valued_flags_and_positionals() {
        let args = parse(&["ita", "--scale", "0.5", "--seed", "7", "extra"]);
        assert_eq!(args.positional, vec!["ita", "extra"]);
        assert_eq!(args.flag_checked("scale", 0.1f64), Ok(0.5));
        assert_eq!(args.flag_checked("seed", 2018u64), Ok(7));
        // Missing flag falls back to the default.
        assert_eq!(args.flag_checked("mc", 20_000usize), Ok(20_000));
    }

    #[test]
    fn equals_syntax_binds_inline() {
        let args = parse(&["analyze", "--scale=0.5", "--metrics=json", "--seed", "7"]);
        assert_eq!(args.positional, vec!["analyze"]);
        assert_eq!(args.flag_checked("scale", 0.1f64), Ok(0.5));
        assert_eq!(args.flags.get("metrics").map(String::as_str), Some("json"));
        assert_eq!(args.flag_checked("seed", 2018u64), Ok(7));
    }

    #[test]
    fn metrics_flag_selects_sink() {
        let sink = |raw: &[&str]| parse(raw).metrics().expect("valid --metrics");
        assert!(!sink(&["analyze"]).metrics.is_enabled());
        let text = sink(&["analyze", "--metrics"]);
        assert!(text.metrics.is_enabled() && !text.json);
        let json = sink(&["analyze", "--metrics=json"]);
        assert!(json.metrics.is_enabled() && json.json);
        let err = parse(&["analyze", "--metrics=xml"]).metrics().err();
        assert!(err.is_some_and(|e| e.contains("--metrics")));
    }

    #[test]
    fn flag_checked_rejects_malformed_values() {
        let args = parse(&["--threads", "two"]);
        let err = args.flag_checked("threads", 0usize).unwrap_err();
        assert!(err.contains("--threads") && err.contains("two"), "{err}");
        // Absent flag is still the default; well-formed value parses.
        assert_eq!(parse(&[]).flag_checked("threads", 3usize), Ok(3));
        assert_eq!(
            parse(&["--threads", "8"]).flag_checked("threads", 0usize),
            Ok(8)
        );
        // A bare flag (empty value) is malformed for a numeric flag.
        assert!(parse(&["--threads"])
            .flag_checked("threads", 0usize)
            .is_err());
    }

    #[test]
    fn serve_options_reject_malformed_flags() {
        let reject = |raw: &[&str], needle: &str| {
            let err = ServeOptions::from_args(&parse(raw)).unwrap_err();
            assert!(
                err.contains(needle),
                "args {raw:?}: error {err:?} lacks {needle:?}"
            );
        };
        reject(&["--stdio", "--cache-entries", "lots"], "--cache-entries");
        reject(&["--stdio", "--max-queue", "-4"], "--max-queue");
        reject(&["--stdio", "--max-queue", "0"], "--max-queue");
        reject(&["--stdio", "--batch", "0"], "--batch");
        reject(&["--stdio", "--threads", "two"], "--threads");
        reject(&["--stdio", "--seed", "7.5"], "--seed");
        reject(&["--stdio", "--metrics=xml"], "--metrics");
        reject(
            &["--stdio", "--socket", "/tmp/x.sock"],
            "mutually exclusive",
        );
        reject(&["--socket"], "--socket");
        reject(&[], "--stdio or --socket");
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        let check = |command: &str, raw: &[&str]| check_flags(command, &parse(raw));
        assert_eq!(
            check("pairings", &["ITA", "--top", "3", "--scale", "0.1"]),
            Ok(())
        );
        let err = check("pairings", &["ITA", "--tpo", "3"]).unwrap_err();
        assert!(
            err.starts_with("--tpo: unknown flag") && err.contains("--top"),
            "{err}"
        );
        let err = check("regions", &["--bogus", "1"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // The first unknown flag in name order is the one reported.
        let err = check("analyze", &["--zeta", "--alpha"]).unwrap_err();
        assert!(err.starts_with("--alpha"), "{err}");
        // Unknown commands are left to the usage text.
        assert_eq!(check("frobnicate", &["--anything"]), Ok(()));
        // Every flag serve reads is on its list.
        let hardening = "--stdio --read-timeout 1 --write-timeout 1 --idle-timeout 1 --max-conns 1";
        let raw: Vec<&str> = hardening.split(' ').chain(["--force-bind"]).collect();
        assert_eq!(check("serve", &raw), Ok(()));
    }

    #[test]
    fn serve_options_accept_a_full_flag_set() {
        let args = parse(&[
            "--socket",
            "/tmp/culinaria.sock",
            "--data",
            "d",
            "--threads",
            "4",
            "--batch",
            "16",
            "--cache-entries",
            "128",
            "--max-queue",
            "64",
            "--mc",
            "500",
            "--seed",
            "9",
            "--once",
            "--metrics=json",
        ]);
        assert_eq!(check_flags("serve", &args), Ok(()));
        let opts = ServeOptions::from_args(&args).expect("valid flags");
        assert_eq!(opts.data_dir, "d");
        assert!(
            matches!(opts.transport, ServeTransport::Socket(ref p) if p == "/tmp/culinaria.sock")
        );
        assert_eq!(opts.cfg.threads, 4);
        assert_eq!(opts.cfg.batch_max, 16);
        assert_eq!(opts.cfg.cache_entries, 128);
        assert_eq!(opts.cfg.max_queue, 64);
        assert_eq!(opts.cfg.mc_recipes, 500);
        assert_eq!(opts.cfg.seed, 9);
        assert!(opts.once);
        assert_eq!(opts.metrics_dump, Some(true));
        // Defaults: stdio transport, no dump, ServeConfig::default() knobs.
        let opts = ServeOptions::from_args(&parse(&["--stdio"])).expect("valid flags");
        assert!(matches!(opts.transport, ServeTransport::Stdio));
        assert_eq!(opts.metrics_dump, None);
        assert_eq!(opts.cfg.cache_entries, ServeConfig::default().cache_entries);
    }

    #[test]
    fn raw_recipe_format_parses() {
        let text = "# comment\nPesto Pasta | ITA\n2 cups basil\n1/2 cup olive oil\n\n\
                    Miso Soup | JPN\n1 tbsp miso paste\n";
        let (raws, issues) = parse_raw_recipes(text);
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(raws.len(), 2);
        assert_eq!(raws[0].name, "Pesto Pasta");
        assert_eq!(raws[0].ingredient_lines.len(), 2);
        assert_eq!(raws[1].region.to_string(), "JPN");
        assert_eq!(raws[1].source, Source::Synthetic);
    }

    #[test]
    fn raw_recipe_format_reports_bad_headers_with_line_numbers() {
        let (raws, issues) = parse_raw_recipes("No Region Here\nbasil\n");
        assert!(raws.is_empty());
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].line, 1);
        assert!(issues[0].message.contains("REGION_CODE"), "{issues:?}");

        let (raws, issues) = parse_raw_recipes("Dish | NOPE\nbasil\n");
        assert!(raws.is_empty());
        assert_eq!(issues[0].line, 1);
        assert!(issues[0].message.contains("NOPE"), "{issues:?}");
    }

    #[test]
    fn malformed_blocks_do_not_abort_the_parse() {
        // Good, bad-region, headerless, good — every issue is reported
        // with its line number and both good recipes survive.
        let text = "Pesto | ITA\nbasil\n\n\
                    Dish | NOPE\nbasil\n\n\
                    # comment\nJust Ingredients Here\n\n\
                    Miso Soup | JPN\nmiso paste\n";
        let (raws, issues) = parse_raw_recipes(text);
        assert_eq!(raws.len(), 2);
        assert_eq!(raws[0].name, "Pesto");
        assert_eq!(raws[1].name, "Miso Soup");
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].line, 4);
        assert_eq!(issues[1].line, 8);
    }
}
