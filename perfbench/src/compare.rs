//! `benchmark compare`: the acceptance rule for a change against its
//! parent.
//!
//! Each directory holds one file per run, the run's captured stdout,
//! named `<workload>.<anything>`; files sort into run order and the
//! i-th parent run pairs with the i-th change run (alternate which side
//! runs first). For every metric of `BENCHMARK.json` that the runs
//! print (untraced runs print the end-to-end metrics, traced runs the
//! per-layer ones) and every workload the verdict is:
//!
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound (a share of the parent's median);
//! * **better** — at least ten pairs, the change wins at least nine
//!   tenths of them (ties count for neither), and the medians differ by
//!   more than the parent's interquartile range;
//! * **unresolved** — fewer than ten pairs, or the parent's own spread
//!   is wider than the bound while the change's runs do not all beat
//!   every parent run;
//! * **unchanged** — otherwise.
//!
//! Per-layer metrics have no bound, so they read better or unresolved.
//!
//! The command fails when any verdict is worse, when any run on either
//! side failed its correctness checks, or when the share of failed
//! operations rose on any workload. The bounds are those of the
//! `BENCHMARK.json` this binary was built with.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::stats::{median, quartiles};

/// A parsed JSON value (the subset results and `BENCHMARK.json` use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse one JSON document.
    ///
    /// # Errors
    /// Malformed input, with the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return self.err("expected a string key");
                    };
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let Some(&c) = self.s.get(self.i) else {
                        return self.err("unterminated string");
                    };
                    self.i += 1;
                    match c {
                        b'"' => return Ok(Json::Str(out)),
                        b'\\' => {
                            let Some(&e) = self.s.get(self.i) else {
                                return self.err("unterminated escape");
                            };
                            self.i += 1;
                            match e {
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex = std::str::from_utf8(
                                        self.s.get(self.i..self.i + 4).unwrap_or(b""),
                                    )
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32);
                                    let Some(ch) = hex else {
                                        return self.err("bad \\u escape");
                                    };
                                    out.push(ch);
                                    self.i += 4;
                                }
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // Copy one whole UTF-8 sequence.
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
            }
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.err("bad number"), Ok)
            }
        }
    }
}

/// One metric's acceptance settings from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    /// Set for end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

/// Apply the acceptance rule to paired runs of one metric on one
/// workload (see the module docs).
pub fn verdict(rule: &Rule, parent: &[f64], change: &[f64]) -> Verdict {
    let n = parent.len().min(change.len());
    let (Some(mp), Some(mc)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let worse_share = if rule.lower_is_better {
        mc - mp
    } else {
        mp - mc
    } / mp.abs();
    if rule.bound.is_some_and(|bound| worse_share > bound) {
        return Verdict::Worse;
    }
    let (q1, q3) = quartiles(parent).unwrap_or((mp, mp));
    let wins = (0..n).filter(|&i| better(change[i], parent[i])).count();
    if n >= 10 && wins * 10 >= n * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    match rule.bound {
        Some(bound) if n >= 10 && ((q3 - q1) / mp.abs() <= bound || all_beat) => Verdict::Unchanged,
        _ => Verdict::Unresolved,
    }
}

/// One run's result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn read_result(path: &Path) -> Result<RunResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let v = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::num)
            .ok_or_else(|| format!("{}: no {k}", path.display()))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = v.get("metrics") {
        for (name, m) in fields {
            if let Some(x) = m.get("value").and_then(Json::num) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(RunResult {
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: field("attempted")?,
        failed: field("failed")?,
        metrics,
    })
}

/// Runs per workload, in file-name order.
fn read_runs(dir: &Path) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut runs: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some((workload, _)) = name.split_once('.') else {
            continue;
        };
        runs.entry(workload.to_owned())
            .or_default()
            .push(read_result(&p)?);
    }
    Ok(runs)
}

/// Every metric of `BENCHMARK.json` at the repository root, end-to-end
/// ones first.
fn rules() -> Result<Vec<Rule>, String> {
    let v = Json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut rules = Vec::new();
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Some(Json::Arr(items)) = v.get(list) else {
            return Err(format!("BENCHMARK.json: no {list} list"));
        };
        for m in items {
            let bound = m.get("bound").and_then(Json::num);
            if bounded && bound.is_none() {
                return Err("end-to-end metric without a bound".into());
            }
            rules.push(Rule {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound,
            });
        }
    }
    Ok(rules)
}

/// Print the verdicts; true when the change is accepted.
fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let rules = rules()?;
    let parent_runs = read_runs(parent)?;
    let change_runs = read_runs(change)?;
    let mut ok = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} verdict",
        "metric", "workload", "parent p50", "change p50", "wins"
    );
    for (workload, p_runs) in &parent_runs {
        let Some(c_runs) = change_runs.get(workload) else {
            println!("{workload}: no change runs");
            ok = false;
            continue;
        };
        for (side, runs) in [("parent", p_runs), ("change", c_runs)] {
            let incorrect = runs.iter().filter(|r| !r.correct).count();
            if incorrect > 0 {
                println!("{workload}: {incorrect} {side} run(s) failed their correctness checks");
                ok = false;
            }
        }
        for rule in &rules {
            let values = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(rule, &p, &c);
            ok &= v != Verdict::Worse;
            let n = p.len().min(c.len());
            let wins = (0..n)
                .filter(|&i| {
                    if rule.lower_is_better {
                        c[i] < p[i]
                    } else {
                        c[i] > p[i]
                    }
                })
                .count();
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>5}/{:<2} {v:?}",
                rule.name,
                workload,
                median(&p).unwrap_or(f64::NAN),
                median(&c).unwrap_or(f64::NAN),
                wins,
                n
            );
        }
        let share = |runs: &[RunResult]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (fp, fc) = (share(p_runs), share(c_runs));
        if fc > fp {
            println!("{workload}: failed share rose from {fp} to {fc}");
            ok = false;
        }
    }
    Ok(ok)
}

pub fn main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(parent), Some(change), None) = (args.next(), args.next(), args.next()) else {
        eprintln!("usage: benchmark compare <parent-runs-dir> <change-runs-dir>");
        return ExitCode::from(2);
    };
    match compare(Path::new(&parent), Path::new(&change)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            name: "setup_s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn comparison_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Every pair won and the medians 20 apart against an IQR of ~5.
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(verdict(&rule(0.1), &parent, &faster), Verdict::Better);
        // 8 of 10 pairs won is not enough.
        let mut mostly = faster.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_eq!(verdict(&rule(0.1), &parent, &mostly), Verdict::Unchanged);
        // Nine wins but the gap sits inside the parent's IQR.
        let close: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(verdict(&rule(0.1), &parent, &close), Verdict::Unchanged);
        // Median 30% slower against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(verdict(&rule(0.1), &parent, &slower), Verdict::Worse);
        // Within the bound but the parent's own spread exceeds it.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * f64::from(i)).collect();
        let same = noisy.clone();
        assert_eq!(verdict(&rule(0.1), &noisy, &same), Verdict::Unresolved);
        // Too few pairs to claim anything.
        assert_eq!(
            verdict(&rule(0.1), &parent[..5], &faster[..5]),
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip every comparison.
        let up = Rule {
            lower_is_better: false,
            ..rule(0.1)
        };
        assert_eq!(verdict(&up, &parent, &faster), Verdict::Worse);
        // A per-layer metric has no bound: better, or else unresolved.
        let layer = Rule {
            bound: None,
            ..rule(0.1)
        };
        assert_eq!(verdict(&layer, &parent, &faster), Verdict::Better);
        assert_eq!(verdict(&layer, &parent, &close), Verdict::Unresolved);
        assert_eq!(verdict(&layer, &parent, &slower), Verdict::Unresolved);
    }

    #[test]
    fn compare_rejects_a_run_that_failed_its_checks() {
        let root = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        let metrics: Vec<String> = rules()
            .unwrap()
            .iter()
            .map(|r| format!("\"{}\": {{\"value\": 2.5, \"unit\": \"s\"}}", r.name))
            .collect();
        let line = |correct: bool| {
            format!(
                "{{\"correct\": {correct}, \"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}\n",
                metrics.join(", ")
            )
        };
        for side in ["parent", "change"] {
            std::fs::create_dir_all(root.join(side)).unwrap();
            for i in 0..10 {
                std::fs::write(root.join(side).join(format!("w.{i:02}")), line(true)).unwrap();
            }
        }
        let (parent, change) = (root.join("parent"), root.join("change"));
        assert_eq!(compare(&parent, &change), Ok(true));
        // Identical numbers, but one change run served wrong answers.
        std::fs::write(change.join("w.03"), line(false)).unwrap();
        assert_eq!(compare(&parent, &change), Ok(false));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn json_round_trip_of_a_result_line() {
        let v = Json::parse(
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.5e-1, \"unit\": \"ms\"}}, \"s\": \"a\\\"b µ\", \"n\": null, \"l\": [1, -2]}",
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(Json::num),
            Some(0.15)
        );
        assert_eq!(v.get("s").and_then(Json::str), Some("a\"b µ"));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] x").is_err());
    }
}
