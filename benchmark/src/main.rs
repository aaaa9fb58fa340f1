//! The repository's benchmark. See README.md beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed <n>] [--seconds <s>] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! benchmark list
//! ```

mod compare;
mod config;
mod drives;
mod engine;
mod gen;
mod json;
mod metrics;
mod report;
mod served;
mod stack;
mod stats;
mod trace;

use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use config::WorkloadSpec;
use metrics::{json_number, per_layer, Report, END_TO_END};
use report::RunArgs;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       benchmark all [--seed <n>] [--seconds <s>] [--out <file>]\n       benchmark compare <a.json> <b.json>\n       benchmark list";

/// `--flag value` pairs of a command line.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a number")),
            None => Ok(default),
        }
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        Ok(self.number::<u8>(name, 0)? != 0)
    }
}

/// `(name, unit)` of the metrics a run reports.
fn units(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// The report's metrics with their units, in report order.
fn with_units(report: &Report, traced: bool) -> Vec<(&str, f64, &'static str)> {
    let units = units(traced);
    report
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.as_str(),
                *value,
                units
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| *u),
            )
        })
        .collect()
}

/// The one-line result the contract asks for.
fn result_line(report: &Report, traced: bool) -> String {
    let metrics: Vec<String> = with_units(report, traced)
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// The highest CPU this process may run on.
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Starts this program again as the workload's own process, pinned to
/// one CPU when `taskset` exists.
fn spawn_child(args: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let spawn = |cpu: Option<u32>| {
        let mut command = match cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.arg("-c").arg(cpu.to_string()).arg(&exe);
                taskset
            }
            None => Command::new(&exe),
        };
        let pinned = if cpu.is_some() { "1" } else { "0" };
        command
            .args(args)
            .args(["--child", "1", "--pinned", pinned])
            .stdout(Stdio::piped())
            .spawn()
    };
    last_allowed_cpu()
        .and_then(|cpu| spawn(Some(cpu)).ok())
        .map_or_else(|| spawn(None), Ok)
        .map_err(|e| format!("starting the workload's process: {e}"))
}

/// Runs one workload in a child with a deadline; its standard output.
fn run_in_child(
    spec: &WorkloadSpec,
    seconds: f64,
    traced: bool,
    args: &[String],
) -> Result<(String, bool), String> {
    // A traced run measures twice: once untraced for the overhead.
    let expected =
        (spec.wall_fixed + spec.wall_per_second * seconds) * if traced { 2.0 } else { 1.0 };
    let deadline = Duration::from_secs_f64((4.0 * expected).min(170.0));
    let mut child = spawn_child(args)?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                // A hang is cut, not waited for: see README, "Failures".
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} ran past its {:.0} s deadline and was killed; everything it had not finished counts as failed", spec.name, deadline.as_secs_f64()));
            }
            Err(e) => return Err(format!("waiting for {}: {e}", spec.name)),
        }
    };
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut out)
            .map_err(|e| format!("reading {}'s output: {e}", spec.name))?;
    }
    Ok((out, status.success()))
}

fn workload_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let name = flags
        .get("workload")
        .ok_or("`--workload <name>` is required")?;
    let spec = config::workload(name)
        .ok_or_else(|| format!("no workload `{name}`; `benchmark list` names them"))?;
    let seconds: f64 = flags.number("seconds", 5.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("`--seconds {seconds}` is outside 0..=60"));
    }
    let traced = flags.switch("trace")?;
    if !flags.switch("child")? {
        let (out, ok) = run_in_child(spec, seconds, traced, args)?;
        print!("{out}");
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }
    let run = RunArgs {
        spec,
        seed: flags.number("seed", 7)?,
        seconds,
        traced,
        check: flags.switch("check")?,
        pinned: flags.switch("pinned")?,
    };
    let report = report::run(&run)?;
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# INVALID: {problem}");
    }
    for (name, value, unit) in with_units(&report, traced) {
        println!("{name:<36} {value:>18.4} {unit}");
    }
    println!("{}", result_line(&report, traced));
    Ok(if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Runs every workload untraced and traced and writes one file that
/// `compare` takes.
fn all_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let seed: u64 = flags.number("seed", 7)?;
    let seconds: f64 = flags.number("seconds", 5.0)?;
    let out_path = flags.get("out").map_or_else(
        || report::out_dir().join("result.json"),
        std::path::PathBuf::from,
    );
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for spec in &config::WORKLOADS {
        let mut parts = Vec::new();
        for traced in [false, true] {
            let args: Vec<String> = [
                "--workload",
                spec.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let (out, ok) = run_in_child(spec, seconds, traced, &args)?;
            print!("{out}");
            all_ok &= ok;
            let line = out.lines().last().unwrap_or("null");
            parts.push(format!(
                "\"{}\": {line}",
                if traced { "per_layer" } else { "end_to_end" }
            ));
        }
        workloads.push(format!("    \"{}\": {{{}}}", spec.name, parts.join(", ")));
    }
    let text = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_number(seconds),
        workloads.join(",\n")
    );
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, text).map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!("# wrote {}", out_path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn list_command() -> ExitCode {
    for w in &config::WORKLOADS {
        println!("workload {}", w.name);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} [{}] better {:?}, bound {}",
            m.name, m.unit, m.better, m.bound
        );
    }
    for m in per_layer() {
        println!("per_layer {} [{}] better {:?}", m.name, m.unit, m.better);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => Ok(list_command()),
        Some("drives") => {
            for (name, value) in drives::run_all() {
                println!("{name:<36} {value:>18.4}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => all_command(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::command(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some(flag) if flag.starts_with("--") => workload_command(&args),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<String> {
        list.as_arr()
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_tables_hold() {
        let file = benchmark_json();
        assert_eq!(
            names(file.get("workloads").unwrap()),
            config::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        let e2e = file.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(ours.name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(ours.unit));
            assert_eq!(
                listed.get("better").unwrap().as_str(),
                Some(if ours.better == metrics::Better::Lower {
                    "lower"
                } else {
                    "higher"
                })
            );
            assert_eq!(
                listed.get("bound").unwrap().as_f64(),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }
        let layers = per_layer();
        let listed = file.get("per_layer").unwrap().as_arr();
        assert_eq!(listed.len(), layers.len());
        assert!(layers.len() <= 128);
        for (listed, ours) in listed.iter().zip(&layers) {
            assert_eq!(
                listed.get("name").unwrap().as_str(),
                Some(ours.name.as_str())
            );
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(ours.unit));
            assert_eq!(
                listed.get("better").unwrap().as_str(),
                Some(if ours.better == metrics::Better::Lower {
                    "lower"
                } else {
                    "higher"
                })
            );
        }
        let mut all: Vec<String> = names(file.get("end_to_end").unwrap());
        all.extend(names(file.get("per_layer").unwrap()));
        all.extend(names(file.get("workloads").unwrap()));
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(all.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }

    /// The `--check` smoke: every workload, both modes, at a scale of
    /// tenths of a second, reports exactly the names `BENCHMARK.json`
    /// lists, as a line that parses, with nothing failed and no wrong
    /// byte. Regime guards are not enforced at this scale.
    #[test]
    fn check_smoke_reports_every_listed_metric() {
        let file = benchmark_json();
        for spec in &config::WORKLOADS {
            for traced in [false, true] {
                let run = RunArgs {
                    spec,
                    seed: 7,
                    seconds: 0.3,
                    traced,
                    check: true,
                    pinned: false,
                };
                let report = report::run(&run)
                    .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", spec.name));
                assert!(
                    report.problems.is_empty(),
                    "{}: {:?}",
                    spec.name,
                    report.problems
                );
                assert_eq!(report.failed, 0, "{}", spec.name);
                assert!(report.attempted > 100, "{}", spec.name);
                let line = parse(&result_line(&report, traced)).expect("the result line is JSON");
                let reported: Vec<String> = line
                    .get("metrics")
                    .unwrap()
                    .as_obj()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(
                    reported,
                    names(
                        file.get(if traced { "per_layer" } else { "end_to_end" })
                            .unwrap()
                    ),
                    "{} (traced {traced})",
                    spec.name
                );
                for (name, value) in &report.metrics {
                    assert!(value.is_finite(), "{}: {name} is {value}", spec.name);
                    if !traced {
                        assert!(*value > 0.0, "{}: end-to-end {name} is {value}", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--workload", "hot", "--seed", "9", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.get("workload"), Some("hot"));
        assert_eq!(flags.number::<u64>("seed", 7), Ok(9));
        assert_eq!(flags.number::<f64>("seconds", 5.0), Ok(5.0));
        assert_eq!(flags.switch("trace"), Ok(true));
        assert_eq!(flags.switch("child"), Ok(false));
        assert!(Flags::parse(&["hot".to_string()]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(flags.number::<u64>("workload", 0).is_err());
    }
}
