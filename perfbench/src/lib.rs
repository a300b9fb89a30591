//! End-to-end benchmark of culinaria; see README.md.
//!
//! ```text
//! benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! benchmark compare <parent-runs-dir> <change-runs-dir>
//! ```
//!
//! `run` prints, as its last stdout line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; it exits 1 when
//! a correctness check fails and 2 on bad arguments.

pub mod compare;
mod corpus;
mod fig4;
mod ingest;
mod loadgen;
pub mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use trace::Tracer;

/// The benchmark's workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["fig4-paper", "serve-hot", "serve-cold", "ingest-serve"];

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Set-ups continue past [`SETUP_REPS`] until they add up to this many
/// seconds: a short set-up (a tenth of a second for `ingest-serve`) is
/// the most exposed to the host's bursts, so it gets more samples.
const SETUP_MIN_S: f64 = 3.0;

/// Most set-ups per run, which bounds the tiny ones of `--smoke`.
const SETUP_MAX_REPS: usize = 25;

/// The times behind `setup_s`: `first`, then one more set-up from
/// `again` at a time until the rule above is met.
fn setup_times(first: f64, mut again: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = vec![first];
    while times.len() < SETUP_MAX_REPS
        && (times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S)
    {
        times.push(again());
    }
    times
}

/// One run's settings, checked at the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs and short passes, for the test suite.
    pub smoke: bool,
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_run(args: impl Iterator<Item = String>) -> Result<RunCfg, String> {
    let mut args = args;
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value::<String>(&flag, args.next())?),
            "--seed" => seed = Some(value::<u64>(&flag, args.next())?),
            "--seconds" => seconds = Some(value::<u32>(&flag, args.next())?),
            "--trace" => {
                traced = Some(match value::<u8>(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunCfg {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds),
        traced: traced.ok_or("--trace is required")?,
        smoke,
    })
}

fn run(cfg: &RunCfg) -> ExitCode {
    let stamp = vec![
        ("workload", format!("\"{}\"", cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("traced", cfg.traced.to_string()),
        ("available_cores", sys::available_cores().to_string()),
        ("cpu_model", format!("\"{}\"", sys::cpu_model())),
        ("commit", format!("\"{}\"", sys::commit())),
    ];
    eprintln!(
        "stamp: {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let tracer = Tracer::new(cfg.traced);
    let outcome = match cfg.workload.as_str() {
        "fig4-paper" => fig4::run(cfg, &tracer),
        "serve-hot" => serve::run(cfg, &tracer, serve::Mix::Hot),
        "serve-cold" => serve::run(cfg, &tracer, serve::Mix::Cold),
        "ingest-serve" => ingest::run(cfg, &tracer),
        other => unreachable!("workload {other} passed argument checks"),
    };
    if cfg.traced {
        let path = format!("trace-{}.json", cfg.workload);
        for (name, (calls, ms)) in tracer.self_times_ms() {
            eprintln!("self time {name:<36} {calls:>8} calls {ms:>12.3} ms");
        }
        if let Err(e) = tracer.write(&path, &stamp) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("wrote {path}");
    }
    match report::render(&outcome, cfg.traced) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the `benchmark` command line (arguments after the program name).
pub fn cli(mut args: impl Iterator<Item = String>) -> ExitCode {
    match args.next().as_deref() {
        Some("run") => match parse_run(args) {
            Ok(cfg) => run(&cfg),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Some("compare") => compare::main(args),
        _ => {
            eprintln!(
                "usage: benchmark run --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--smoke]\n\
                 \x20      benchmark compare <parent-runs-dir> <change-runs-dir>",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunCfg, String> {
        parse_run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn short_setups_get_more_samples() {
        let reps = |each: f64| setup_times(each, || each).len();
        assert_eq!(reps(1.5), SETUP_REPS);
        assert_eq!(reps(0.25), 12);
        assert_eq!(reps(0.001), SETUP_MAX_REPS);
    }

    #[test]
    fn run_arguments_fail_fast() {
        let ok = parse(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.seed, ok.seconds, ok.traced, ok.smoke),
            (7, 10.0, true, false)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "x",
                "--seconds",
                "10",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "2",
            ],
            &["--workload", "serve-hot", "--seed", "7", "--seconds", "10"],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "0",
                "--x",
            ],
            &["--workload", "serve-hot", "--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
