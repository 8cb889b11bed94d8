//! `pairs`: the repo benchmark's binaries of a parent commit and of a
//! change, run in alternating pairs, and the host-speed gate's verdict on
//! each (workload, host metric).
//!
//! ```text
//! pairs PARENT_BIN CHANGE_BIN --workloads W[,W...] --seeds A..B --seconds S
//!       [--out-dir DIR] [--append FILE --commit REV]
//! pairs PARENT_BIN CHANGE_BIN --model [--out-dir DIR]
//! ```
//!
//! Each binary is a `topick-benchmark` built from its own checkout; it
//! re-executes itself for its children, so it must stay where it is for
//! the whole run. Pair `k` runs seed `A + k` on both sides, the parent
//! first on even `k` and the change first on odd `k`, one run at a time.
//! `--workloads all` runs every workload in one child per side. Both ends
//! of `A..B` are included.
//!
//! `--model` runs both sides once at `--seed 1 --traced` and hands the two
//! results files to `CHANGE_BIN --compare`: the bit-for-bit gate against
//! the parent commit. It exits 1 unless nothing regressed, no digest
//! differs, every `model_*` ratio is 1.0000 and the traced real-token
//! `measured_cycles` are equal.
//!
//! `--append FILE` adds one JSON line per gain to FILE: the commit the
//! change was measured at (`--commit`), the seeds, `--seconds` and both
//! medians.

mod gate;

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use gate::{json_string, judge, metric_lines, Judged, Verdict, HOST_METRICS};

const USAGE: &str = "usage:
  pairs PARENT_BIN CHANGE_BIN --workloads W[,W...] --seeds A..B --seconds S
        [--out-dir DIR] [--append FILE --commit REV]
  pairs PARENT_BIN CHANGE_BIN --model [--out-dir DIR]";

/// A traced figure the model gate holds equal besides `--compare`'s.
const PINNED_TRACED: &str = "serve.token_backed.measured_cycles";

#[derive(Debug, PartialEq)]
struct Args {
    parent: PathBuf,
    change: PathBuf,
    /// `None`: every workload, in one child per side.
    workloads: Option<Vec<String>>,
    seeds: (u64, u64),
    seconds: String,
    model: bool,
    out_dir: PathBuf,
    append: Option<(PathBuf, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let [parent, change, flags @ ..] = argv else {
        return Err(USAGE.into());
    };
    let mut workloads = None;
    let mut seeds = None;
    let mut seconds = None;
    let mut model = false;
    let mut out_dir = None;
    let (mut append, mut commit) = (None, None);
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = || {
            flags
                .next()
                .filter(|v| !v.is_empty())
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workloads" => {
                let list = value()?;
                workloads =
                    Some((list != "all").then(|| list.split(',').map(String::from).collect()));
            }
            "--seeds" => {
                let range = value()?;
                let parsed = range.split_once("..").and_then(|(a, b)| {
                    let (a, b) = (a.parse::<u64>().ok()?, b.parse::<u64>().ok()?);
                    (a <= b).then_some((a, b))
                });
                seeds = Some(parsed.ok_or(format!("--seeds: '{range}' is not A..B with A <= B"))?);
            }
            "--seconds" => {
                let s = value()?;
                s.parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("--seconds: '{s}' is not a positive number"))?;
                seconds = Some(s.clone());
            }
            "--model" => model = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--append" => append = Some(PathBuf::from(value()?)),
            "--commit" => commit = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let append = match (append, commit) {
        (Some(file), Some(commit)) => Some((file, commit)),
        (None, None) => None,
        _ => return Err("--append and --commit go together".into()),
    };
    if [workloads.is_some(), seeds.is_some(), seconds.is_some()] != [!model; 3] {
        return Err(format!(
            "either --model or all of --workloads, --seeds and --seconds\n{USAGE}"
        ));
    }
    if model && append.is_some() {
        return Err("--append records pairs, not --model".into());
    }
    let out_dir = out_dir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("pairs-{}", std::process::id())));
    Ok(Args {
        parent: parent.into(),
        change: change.into(),
        workloads: workloads.flatten(),
        seeds: seeds.unwrap_or((1, 1)),
        seconds: seconds.unwrap_or_default(),
        model,
        out_dir,
        append,
    })
}

/// Runs `bin` with `args` and returns its stdout.
fn run(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} exited with {}\n{}{}",
            bin.display(),
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Every host metric line of one benchmark run, in the order printed.
type Samples = Vec<(String, String, f64)>;

/// One side's run of `workload` (`None`: all) at `seed`.
fn run_side(args: &Args, side: &str, workload: Option<&str>, seed: u64) -> Result<Samples, String> {
    let bin = if side == "parent" {
        &args.parent
    } else {
        &args.change
    };
    let out = args
        .out_dir
        .join(format!("{side}-{}-{seed}.json", workload.unwrap_or("all")));
    let seed = seed.to_string();
    let mut argv = vec!["--seed", &seed, "--seconds", &args.seconds];
    argv.extend(["--out", out.to_str().ok_or("a UTF-8 --out-dir")?]);
    if let Some(w) = workload {
        argv.extend(["--workload", w]);
    }
    let stdout = run(bin, &argv)?;
    let host = metric_lines(&stdout)
        .into_iter()
        .filter(|(_, metric, _)| HOST_METRICS.iter().any(|m| m.name == *metric))
        .map(|(w, m, v)| (w.to_string(), m.to_string(), v))
        .collect();
    Ok(host)
}

/// The `(parent, change)` samples of every (workload, host metric), in the
/// order the first run printed them.
type Pairs = Vec<((String, String), Vec<(f64, f64)>)>;

fn run_pairs(args: &Args) -> Result<Pairs, String> {
    let workloads: Vec<Option<&str>> = match &args.workloads {
        Some(list) => list.iter().map(|w| Some(w.as_str())).collect(),
        None => vec![None],
    };
    let mut pairs: Pairs = Vec::new();
    for (k, seed) in (args.seeds.0..=args.seeds.1).enumerate() {
        for &workload in &workloads {
            let run = |side| run_side(args, side, workload, seed);
            let (parent, change) = if k % 2 == 0 {
                let parent = run("parent")?;
                (parent, run("change")?)
            } else {
                let change = run("change")?;
                (run("parent")?, change)
            };
            for (w, m, p) in parent {
                let c = change
                    .iter()
                    .find(|(cw, cm, _)| (cw, cm) == (&w, &m))
                    .ok_or(format!("seed {seed}: the change printed no {w} {m}"))?
                    .2;
                eprintln!("# seed {seed} {w} {m}: parent {p} change {c}");
                let key = (w, m);
                match pairs.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, samples)) => samples.push((p, c)),
                    None => pairs.push((key, vec![(p, c)])),
                }
            }
        }
    }
    Ok(pairs)
}

fn pairs_main(args: &Args) -> Result<bool, String> {
    let pairs = run_pairs(args)?;
    let (a, b) = args.seeds;
    println!(
        "# {} pairs, seeds {a}..{b} (both included), --seconds {}; the parent ran first on seed {a}, the change on the next, and so on",
        b - a + 1,
        args.seconds
    );
    println!("# workload metric: parent median [q1 q3], change median [q1 q3], change/parent, wins, verdict");
    let mut gains = Vec::new();
    for ((workload, metric), samples) in &pairs {
        let host = HOST_METRICS
            .iter()
            .find(|m| m.name == metric)
            .expect("a host metric");
        let Judged {
            parent,
            change,
            wins,
            pairs: n,
            verdict,
            ..
        } = judge(*host, samples);
        println!(
            "{workload} {metric} parent {} [{} {}] change {} [{} {}] ratio {:.4} wins {wins}/{n} {}",
            parent.median,
            parent.q1,
            parent.q3,
            change.median,
            change.q1,
            change.q3,
            change.median / parent.median,
            verdict.name()
        );
        if verdict == Verdict::Gain {
            gains.push((workload, metric, parent.median, change.median, wins, n));
        }
    }
    for ((workload, metric), samples) in &pairs {
        let side = |f: fn(&(f64, f64)) -> f64| {
            samples
                .iter()
                .map(|s| f(s).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("# runs {workload} {metric} parent {}", side(|s| s.0));
        println!("# runs {workload} {metric} change {}", side(|s| s.1));
    }
    if let Some((file, commit)) = &args.append {
        let mut lines = String::new();
        for (workload, metric, parent, change, wins, n) in &gains {
            lines.push_str(&format!(
                "{{\"commit\":{},\"seeds\":\"{a}..{b}\",\"seconds\":{},\"workload\":{},\"metric\":{},\"parent_median\":{parent},\"change_median\":{change},\"wins\":{wins},\"pairs\":{n}}}\n",
                json_string(commit),
                args.seconds,
                json_string(workload),
                json_string(metric),
            ));
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        f.write_all(lines.as_bytes())
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "# appended {} gain line(s) to {}",
            gains.len(),
            file.display()
        );
    }
    Ok(true)
}

fn model_main(args: &Args) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut pinned = Vec::new();
    for (side, bin) in [("parent", &args.parent), ("change", &args.change)] {
        let out = args.out_dir.join(format!("model-{side}.json"));
        let path = out.to_str().ok_or("a UTF-8 --out-dir")?.to_string();
        let stdout = run(bin, &["--seed", "1", "--traced", "--out", &path])?;
        let figures: Vec<(String, f64)> = metric_lines(&stdout)
            .into_iter()
            .filter(|(_, metric, _)| *metric == PINNED_TRACED)
            .map(|(w, _, v)| (w.to_string(), v))
            .collect();
        for (w, v) in figures.iter().filter(|(_, v)| *v != 0.0) {
            println!("# {side} {w} {PINNED_TRACED} {v}");
        }
        pinned.push(figures);
        files.push(path);
    }
    let compare = run(&args.change, &["--compare", &files[0], &files[1]])?;
    let mut holds = pinned[0] == pinned[1] && !pinned[0].is_empty();
    let mut regressed_line = false;
    for line in compare.lines() {
        let model = line
            .split_whitespace()
            .nth(1)
            .is_some_and(|m| m.starts_with("model_"));
        if line.contains("differs") || (model && !line.contains("ratio 1.0000")) {
            holds = false;
            println!("{line}");
        } else if line.ends_with(" regressed") && line.starts_with("# ") {
            regressed_line = true;
            holds &= line == "# 0 regressed";
            println!("{line}");
        }
    }
    holds &= regressed_line;
    println!("# model gate {}", if holds { "holds" } else { "FAILS" });
    Ok(holds)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        if args.model {
            model_main(&args)
        } else {
            pairs_main(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn a_pair_run_needs_workloads_seeds_and_seconds() {
        let a =
            args("p c --workloads long-decode,prefix-chat --seeds 501..510 --seconds 12").unwrap();
        assert_eq!(
            a.workloads,
            Some(vec!["long-decode".into(), "prefix-chat".into()])
        );
        assert_eq!(
            (a.seeds, a.seconds.as_str(), a.model),
            ((501, 510), "12", false)
        );
        let all = args("p c --workloads all --seeds 1..1 --seconds 4").unwrap();
        assert_eq!(all.workloads, None);
        assert!(args("p c --workloads all --seconds 4").is_err());
        assert!(args("p c --workloads all --seeds 9..1 --seconds 4").is_err());
        assert!(args("p c --workloads all --seeds 1..2 --seconds 0").is_err());
        assert!(args("p c").is_err());
    }

    #[test]
    fn the_model_gate_takes_no_pair_flags() {
        assert!(args("p c --model").unwrap().model);
        assert!(args("p c --model --seeds 1..2").is_err());
        assert!(args("p c --model --append t.jsonl --commit x").is_err());
    }

    #[test]
    fn append_and_commit_go_together() {
        let base = "p c --workloads all --seeds 1..2 --seconds 4";
        let a = args(&format!("{base} --append t.jsonl --commit abc")).unwrap();
        assert_eq!(a.append, Some(("t.jsonl".into(), "abc".into())));
        assert!(args(&format!("{base} --append t.jsonl")).is_err());
        assert!(args(&format!("{base} --commit abc")).is_err());
        assert!(args(&format!("{base} --bogus")).is_err());
    }
}
