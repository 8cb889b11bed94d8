//! The repo benchmark. One command runs every workload, prints every
//! metric as `workload metric value unit`, verifies outputs and writes a
//! results file:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! ```
//!
//! Options: `--workload NAME`, `--seed N`, `--reps N` (default 5) or
//! `--seconds S` (repeat until S host seconds were measured, at least 3
//! repetitions), `--traced` / `--trace 0|1`, `--out PATH`, and
//! `--compare A.json B.json`. See `benchmark/README.md`.
//!
//! One repetition of one workload is one child process of this same
//! binary (so `VmHWM` is per workload and set-up is measured afresh every
//! time). The parent runs repetition 1 of every workload, then repetition
//! 2 of every workload, and so on, so that each workload's samples span
//! the whole run and slow drift of the host's speed averages out.

mod compare;
mod json;
mod latency;
mod layers;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{hex, obj, Value};
use metrics::{END_TO_END, FAILED_SHARE, LAYERS};
use run::{Mode, Outcome};
use stats::median;
use workloads::Workload;

const USAGE: &str =
    "usage: topick-benchmark [--workload NAME] [--seed N] [--reps N | --seconds S] \
[--traced | --trace 0|1] [--out PATH]\n       topick-benchmark --compare A.json B.json";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    /// Run the traced repetition.
    traced: bool,
    /// `--trace 1`: the result line carries the per-layer metrics.
    layer_result: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<(Mode, Option<PathBuf>)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        reps: None,
        seconds: None,
        traced: false,
        layer_result: false,
        out: PathBuf::from("benchmark/out/results.json"),
        compare: None,
        child: None,
    };
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of {})", known.join(", "))
                })?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--traced" => args.traced = true,
            "--trace" => match value()?.as_str() {
                "0" => {}
                "1" => {
                    args.traced = true;
                    args.layer_result = true;
                }
                other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
            },
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            "--child" => {
                let name = value()?;
                let mode = Mode::from_name(name).ok_or(format!("unknown child mode '{name}'"))?;
                args.child = Some((mode, None));
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    if let Some((_, path)) = &mut args.child {
        *path = spans;
        if args.workloads.len() != 1 {
            return Err("--child needs --workload".into());
        }
    }
    Ok(args)
}

fn outcome_json(mode: Mode, o: &Outcome) -> Value {
    let mut fields = vec![
        ("mode", Value::from(mode.name())),
        ("setup_s", Value::from(o.setup_s)),
        ("setup_builds", Value::from(o.setup_builds)),
        ("setup_speed", Value::from(o.setup_speed)),
        ("loop_s", Value::from(o.loop_s)),
        ("loop_speed", Value::from(o.loop_speed)),
        ("tokens", Value::from(o.tokens)),
        ("steps", Value::from(o.steps)),
        ("requests", Value::from(o.requests)),
        ("total_cycles", Value::from(o.total_cycles)),
        ("clock_hz", Value::from(o.clock_hz)),
        ("stream_digest", hex(o.stream_digest)),
        ("event_digest", hex(o.event_digest)),
        ("peak_rss_mb", Value::from(o.peak_rss_mb)),
        ("ops_attempted", Value::from(o.ops_attempted)),
        ("ops_failed", Value::from(o.ops_failed)),
        (
            "failures",
            Value::Arr(o.failures.iter().map(|f| Value::from(f.as_str())).collect()),
        ),
        (
            "model",
            obj([
                (
                    "model_tokens_per_s",
                    Value::from(o.tokens as f64 / (o.total_cycles as f64 / o.clock_hz)),
                ),
                (
                    "model_kv_access_reduction",
                    Value::from(o.kv_access_reduction),
                ),
                ("model_ttft_us_p50", Value::from(o.latency.ttft_us_p50)),
                ("model_ttft_us_p99", Value::from(o.latency.ttft_us_p99)),
                ("model_itl_us_p50", Value::from(o.latency.itl_us_p50)),
                ("model_itl_us_p99", Value::from(o.latency.itl_us_p99)),
                (
                    "model_goodput_tokens_per_s",
                    Value::from(o.latency.goodput_tokens_per_s),
                ),
            ]),
        ),
        (
            "notes",
            obj(o.notes.iter().map(|(k, v)| (*k, Value::from(*v))).chain([
                ("ttft_samples", Value::from(o.latency.ttft_samples)),
                ("itl_samples", Value::from(o.latency.itl_samples)),
            ])),
        ),
    ];
    if let Some(t) = &o.traced {
        fields.push(("shadow_s", Value::from(t.shadow_s)));
        if let Some(s) = t.one_thread_loop_s {
            fields.push(("one_thread_loop_s", Value::from(s)));
        }
        fields.push((
            "layers",
            obj(t.layers.iter().map(|(k, v)| (*k, Value::from(*v)))),
        ));
    }
    obj(fields)
}

/// A child: one repetition, one line of JSON on stdout.
fn child_main(args: &Args, mode: Mode, spans_path: Option<&Path>) -> Result<(), String> {
    let workload = args.workloads[0];
    let outcome = run::run(workload, args.seed, mode);
    if let (Some(path), Some(t)) = (spans_path, &outcome.traced) {
        write_file(path, &spans::spans_json(workload.name(), &t.spans).render())?;
    }
    println!("{}", outcome_json(mode, &outcome).render());
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one child to completion and parses its result line. The child's
/// stderr passes through; a child that dies reports as an error.
fn spawn_child(args: &Args, workload: Workload, mode: Mode) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.name(), "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if mode == Mode::Traced {
        cmd.arg("--spans").arg(spans_path(args, workload));
    }
    let out = cmd.output().map_err(|e| format!("spawning a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} repetition exited with {}",
            workload.name(),
            mode.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("a child printed nothing")?;
    json::parse(line).map_err(|e| format!("a child's result line: {e}"))
}

fn spans_path(args: &Args, workload: Workload) -> PathBuf {
    args.out
        .parent()
        .unwrap_or(Path::new(""))
        .join(format!("{}.spans.json", workload.name()))
}

/// Everything the parent gathered for one workload.
struct Gathered {
    workload: Workload,
    reps: Vec<Value>,
    baseline: Option<Value>,
    traced: Option<Value>,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.num(key)
        .ok_or(format!("a child's result has no number '{key}'"))
}

/// A repetition's measured loop in seconds at the reference host speed.
fn reference_loop_s(rep: &Value) -> Result<f64, String> {
    Ok(num(rep, "loop_s")? * num(rep, "loop_speed")?)
}

/// Median, quartiles, range and samples of one metric.
fn distribution(samples: &[f64]) -> Vec<(&'static str, Value)> {
    let side = compare::Side::of(samples);
    vec![
        ("value", Value::from(side.median)),
        ("q1", Value::from(side.q1)),
        ("q3", Value::from(side.q3)),
        ("min", Value::from(side.min)),
        ("max", Value::from(side.max)),
        (
            "samples",
            Value::Arr(samples.iter().map(|s| Value::from(*s)).collect()),
        ),
    ]
}

struct Summary {
    json: Value,
    /// Median host speed against the reference during the loops, and the
    /// two corrected metrics as the clock read them.
    host: [(&'static str, f64, &'static str); 3],
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    attempted: usize,
    failed: usize,
}

/// Turns one workload's repetitions into its metrics, checking on the
/// way that everything deterministic repeated exactly.
fn summarize(g: &Gathered, need_baseline: bool) -> Result<Summary, String> {
    let w = g.workload;
    let first = g.reps.first().ok_or("no repetition ran")?;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // Host clock: one sample per repetition, in seconds at the reference
    // host speed (what the clock read, times the speed the probe saw).
    let mut setup = Vec::new();
    let mut wall = Vec::new();
    let mut rss = Vec::new();
    let mut raw_setup = Vec::new();
    let mut raw_wall = Vec::new();
    let mut speed = Vec::new();
    for r in &g.reps {
        setup.push(num(r, "setup_s")? * num(r, "setup_speed")?);
        wall.push(num(r, "tokens")? / reference_loop_s(r)?);
        rss.push(num(r, "peak_rss_mb")?);
        raw_setup.push(num(r, "setup_s")?);
        raw_wall.push(num(r, "tokens")? / num(r, "loop_s")?);
        speed.push(num(r, "loop_speed")?);
        attempted += num(r, "ops_attempted")? as usize;
        failed += num(r, "ops_failed")? as usize;
        for f in r.get("failures").and_then(Value::as_arr).unwrap_or(&[]) {
            failures.extend(f.as_str().map(String::from));
        }
    }
    failures.dedup();

    // Modeled clock and digests: bit-identical across repetitions.
    let model = first.get("model").ok_or("no model metrics")?;
    let fingerprint = |r: &Value| -> Vec<String> {
        let mut f: Vec<String> = ["stream_digest", "event_digest"]
            .iter()
            .map(|k| r.str(k).unwrap_or("?").to_string())
            .collect();
        f.push(format!("{:?}", r.num("total_cycles").map(f64::to_bits)));
        for (_, v) in r.get("model").and_then(Value::as_obj).unwrap_or(&[]) {
            f.push(format!("{:?}", v.as_f64().map(f64::to_bits)));
        }
        f
    };
    let reference = fingerprint(first);
    for (i, r) in g.reps.iter().enumerate().skip(1) {
        attempted += 1;
        if fingerprint(r) != reference {
            failed += 1;
            failures.push(format!(
                "repetition {} differs from repetition 1 in a digest or modeled metric",
                i + 1
            ));
        }
    }
    if let Some(t) = &g.traced {
        attempted += 1;
        if fingerprint(t) != reference {
            failed += 1;
            failures.push("the traced repetition's digests or modeled metrics differ".into());
        }
    }

    let mut speedup = None;
    if let Some(b) = &g.baseline {
        attempted += 1;
        if b.str("stream_digest") != first.str("stream_digest") {
            failed += 1;
            failures.push("the Baseline run saw a different stream".into());
        }
        // Baseline kernel-sweep runs one round of the pool; scale per call.
        let per_token = |r: &Value| Ok::<f64, String>(num(r, "total_cycles")? / num(r, "tokens")?);
        speedup = Some(per_token(b)? / per_token(first)?);
    } else if need_baseline {
        return Err("the Baseline run is missing".into());
    }

    let failed_share = failed as f64 / attempted.max(1) as f64;
    let mut e2e: Vec<(&'static str, f64)> = Vec::new();
    let mut e2e_json: Vec<(&'static str, Value)> = Vec::new();
    for m in END_TO_END.iter().chain(std::iter::once(&FAILED_SHARE)) {
        let samples: Vec<f64> = match m.name {
            "setup_s" => setup.clone(),
            "wall_tokens_per_s" => wall.clone(),
            "peak_rss_mb" => rss.clone(),
            "model_speedup_vs_baseline" => match speedup {
                Some(s) => vec![s],
                None => continue,
            },
            "failed_share" => vec![failed_share],
            name => vec![num(model, name)?],
        };
        let mut fields = vec![
            ("unit", Value::from(m.unit)),
            ("better", Value::from(m.better.name())),
            ("bound", Value::from(m.bound)),
            ("meaning", Value::from(m.meaning)),
        ];
        fields.extend(distribution(&samples));
        e2e.push((m.name, median(&samples)));
        e2e_json.push((m.name, obj(fields)));
    }

    // Layers: what the traced child measured, plus the two shares that
    // need the untraced repetitions to compare against.
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if let Some(t) = &g.traced {
        let untraced_loop: Vec<f64> = g
            .reps
            .iter()
            .map(reference_loop_s)
            .collect::<Result<_, _>>()?;
        let base = median(&untraced_loop);
        let loop_s = reference_loop_s(t)?;
        let shadow_s = num(t, "shadow_s")? * num(t, "loop_speed")?;
        let measured = t.get("layers").ok_or("the traced child sent no layers")?;
        for m in &LAYERS {
            let value = match m.name {
                "trace_overhead_share" => (loop_s - shadow_s) / base - 1.0,
                "trace_shadow_share" => shadow_s / base,
                "serve.cluster.thread_speedup" if w == Workload::ClusterAgentic => {
                    t.num("one_thread_loop_s").map_or(1.0, |one| one / base)
                }
                name => measured.num(name).unwrap_or(0.0),
            };
            layers.push((m.name, value));
        }
    }

    let limits = w.limits();
    let mut fields = vec![
        ("why", Value::from(w.why())),
        ("load_model", Value::from(w.load_model())),
        (
            "limits",
            obj([
                ("ttft_us", Value::from(limits.ttft_us)),
                ("itl_us", Value::from(limits.itl_us)),
            ]),
        ),
        ("reps", Value::from(g.reps.len())),
        (
            "stream_digest",
            first.get("stream_digest").cloned().unwrap_or(Value::Null),
        ),
        (
            "event_digest",
            first.get("event_digest").cloned().unwrap_or(Value::Null),
        ),
        ("tokens", Value::from(num(first, "tokens")?)),
        ("steps", Value::from(num(first, "steps")?)),
        ("requests", Value::from(num(first, "requests")?)),
        ("total_cycles", Value::from(num(first, "total_cycles")?)),
        ("ops_attempted", Value::from(attempted)),
        ("ops_failed", Value::from(failed)),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| Value::from(f.as_str())).collect()),
        ),
        ("notes", first.get("notes").cloned().unwrap_or(Value::Null)),
        (
            "host",
            obj([
                ("speed", obj(distribution(&speed))),
                ("setup_s_as_clocked", obj(distribution(&raw_setup))),
                ("wall_tokens_per_s_as_clocked", obj(distribution(&raw_wall))),
            ]),
        ),
        ("end_to_end", obj(e2e_json)),
    ];
    if !layers.is_empty() {
        fields.push((
            "per_layer",
            obj(layers.iter().map(|(name, v)| {
                let mut fields = vec![("value", Value::from(*v))];
                if let Some(m) = metrics::layer(name) {
                    fields.push(("unit", Value::from(m.unit)));
                    fields.push(("better", Value::from(m.better.name())));
                }
                (*name, obj(fields))
            })),
        ));
    }
    Ok(Summary {
        json: obj(fields),
        host: [
            ("host_speed", median(&speed), "x"),
            ("setup_s_as_clocked", median(&raw_setup), "s"),
            (
                "wall_tokens_per_s_as_clocked",
                median(&raw_wall),
                "tokens/s",
            ),
        ],
        e2e,
        layers,
        attempted,
        failed,
    })
}

fn print_summary(w: Workload, s: &Summary) {
    let name = w.name();
    println!("# {name}: {}", w.load_model());
    for (metric, value) in &s.e2e {
        let unit = metrics::end_to_end(metric).map_or("", |m| m.unit);
        println!("{name} {metric} {value} {unit}");
    }
    for (key, value, unit) in &s.host {
        println!("{name} {key} {value} {unit}");
    }
    println!("{name} ops_attempted {} count", s.attempted);
    println!("{name} ops_failed {} count", s.failed);
    for key in ["stream_digest", "event_digest"] {
        println!("{name} {key} {} hex", s.json.str(key).unwrap_or("?"));
    }
    for (k, v) in s.json.get("notes").and_then(Value::as_obj).unwrap_or(&[]) {
        println!("{name} note.{k} {} n", v.as_f64().unwrap_or(0.0));
    }
    for f in s
        .json
        .get("failures")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        println!("# {name} FAILED: {}", f.as_str().unwrap_or("?"));
    }
    for (metric, value) in &s.layers {
        let unit = metrics::layer(metric).map_or("", |m| m.unit);
        println!("{name} {metric} {value} {unit}");
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn parent_main(args: &Args) -> Result<bool, String> {
    // How many untraced repetitions: a fixed count, or until enough host
    // time has been measured. A layer-only run (`--trace 1`) keeps two,
    // as the yardstick the traced repetition's overhead is read against.
    let fixed = match (args.reps, args.seconds) {
        (Some(n), _) => Some(n),
        (None, Some(_)) if !args.layer_result => None,
        (None, _) if args.layer_result => Some(2),
        (None, _) => Some(5),
    };
    let budget = args.seconds.unwrap_or(f64::INFINITY);
    let mut gathered: Vec<Gathered> = args
        .workloads
        .iter()
        .map(|&workload| Gathered {
            workload,
            reps: Vec::new(),
            baseline: None,
            traced: None,
        })
        .collect();
    let mut measured_s = vec![0.0f64; gathered.len()];
    for round in 0.. {
        let mut ran = false;
        for (g, spent) in gathered.iter_mut().zip(&mut measured_s) {
            let wanted = match fixed {
                Some(n) => round < n,
                None => round < 3 || (*spent < budget && round < 50),
            };
            if !wanted {
                continue;
            }
            let rep = spawn_child(args, g.workload, Mode::Topick)?;
            *spent += num(&rep, "loop_s")? + num(&rep, "setup_s")? * num(&rep, "setup_builds")?;
            g.reps.push(rep);
            ran = true;
        }
        if !ran {
            break;
        }
    }
    let need_baseline = !args.layer_result;
    for g in &mut gathered {
        if need_baseline {
            g.baseline = Some(spawn_child(args, g.workload, Mode::Baseline)?);
        }
        if args.traced {
            g.traced = Some(spawn_child(args, g.workload, Mode::Traced)?);
        }
    }

    println!(
        "# two clocks: wall_*, setup_s, peak_rss_mb are host time/memory; model_* are modeled \
         accelerator time at 500 MHz, deterministic in the seed"
    );
    println!(
        "# host times are in seconds at the reference host speed: as clocked x host_speed (the \
         benchmark's own probe, timed between steps); *_as_clocked are the plain readings"
    );
    println!(
        "# arrivals are stamped in engine steps and consumed synchronously: generator lateness \
         is 0 by construction"
    );
    println!("# model_kv_access_reduction is computed from fetch counts, not measured on hardware");
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    let mut results: Vec<(Workload, Summary)> = Vec::new();
    for g in &gathered {
        let s = summarize(g, need_baseline)?;
        print_summary(g.workload, &s);
        all_correct &= s.failed == 0;
        workloads_json.push((g.workload.name(), s.json.clone()));
        results.push((g.workload, s));
    }

    let doc = obj([
        (
            "meta",
            obj([
                ("seed", Value::from(args.seed)),
                (
                    "reps",
                    Value::from(gathered.iter().map(|g| g.reps.len()).max().unwrap_or(0)),
                ),
                ("traced", Value::from(args.traced)),
                (
                    "nproc",
                    Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
                ),
                ("cluster_threads", Value::from(workloads::cluster_threads())),
                ("rustc", Value::from(rustc_version().as_str())),
                ("clock_hz", Value::from(500e6)),
            ]),
        ),
        ("workloads", obj(workloads_json)),
    ]);
    write_file(&args.out, &doc.render_pretty())?;
    println!("# results written to {}", args.out.display());

    // The result line: one workload's metrics by name, or every
    // workload's under `workload/metric`.
    let single = results.len() == 1;
    let mut line_metrics = Vec::new();
    for (w, s) in &results {
        let rows: Vec<(&str, f64, &str)> = if args.layer_result {
            s.layers
                .iter()
                .map(|(n, v)| (*n, *v, metrics::layer(n).map_or("", |m| m.unit)))
                .collect()
        } else {
            s.e2e
                .iter()
                .filter(|(n, _)| *n != FAILED_SHARE.name)
                .map(|(n, v)| (*n, *v, metrics::end_to_end(n).map_or("", |m| m.unit)))
                .collect()
        };
        for (name, value, unit) in rows {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", w.name())
            };
            line_metrics.push((
                key,
                obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
            ));
        }
    }
    let line = obj([
        ("correct", Value::from(all_correct)),
        (
            "attempted",
            Value::from(
                results
                    .iter()
                    .map(|(_, s)| s.attempted)
                    .sum::<usize>()
                    .max(1),
            ),
        ),
        (
            "failed",
            Value::from(results.iter().map(|(_, s)| s.failed).sum::<usize>()),
        ),
        ("metrics", obj(line_metrics)),
    ]);
    println!("{}", line.render());
    // A failed check is reported in the line above (`correct: false`),
    // not by the exit code: the run itself completed.
    Ok(true)
}

fn compare_main(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(compare::compare(&load(a)?, &load(b)?)? == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare_main(a, b)
        } else if let Some((mode, spans)) = &args.child {
            child_main(&args, *mode, spans.as_deref()).map(|()| true)
        } else {
            parent_main(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `--compare` found a regression.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
