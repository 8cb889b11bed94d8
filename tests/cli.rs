//! End-to-end tests of the `topick` binary: `serve`, `prune`, `sweep`,
//! `accel` and `traffic` stdout against checked-in goldens, `--record` →
//! `--replay` byte-identity, and the error paths that must exit 1 instead
//! of running something else.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn topick(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_topick"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the topick binary runs")
}

/// Stdout of a successful run, minus the measured (run-varying)
/// `wall clock` line.
fn stdout_of(args: &[&str]) -> String {
    let out = topick(args);
    assert!(
        out.status.success(),
        "topick {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter(|l| !l.starts_with("wall clock"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Stderr of a run that must exit 1.
fn error_of(args: &[&str]) -> String {
    let out = topick(args);
    assert_eq!(out.status.code(), Some(1), "topick {args:?} must exit 1");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn serve_output_matches_the_goldens() {
    let golden_trace = "tests/data/agentic_affinity_cluster.trace";
    let cases: [(&str, &[&str]); 7] = [
        ("default", &["serve"]),
        ("policy_all", &["serve", "--policy", "all"]),
        (
            "shards4_affinity_stealing",
            &[
                "serve",
                "--shards",
                "4",
                "--routing",
                "affinity",
                "--stealing",
            ],
        ),
        (
            "shards4_policy_all",
            &["serve", "--shards", "4", "--policy", "all"],
        ),
        (
            "preemption_host_swap",
            &[
                "serve",
                "--preemption",
                "--retention",
                "0.75",
                "--policy",
                "priority",
                "--host-pages",
                "1024",
                "--swap-cost",
                "0.25",
            ],
        ),
        ("replay_golden_trace", &["serve", "--replay", golden_trace]),
        // Real synth-model tokens out of the paged KV store: the golden
        // says "16/16 requests byte-identical to unsharded generate".
        (
            "real_tokens",
            &[
                "serve",
                "--real-tokens",
                "--prefix-cache",
                "--preemption",
                "--retention",
                "0.75",
                "--policy",
                "priority",
            ],
        ),
    ];
    for (name, args) in cases {
        assert_golden(name, args);
    }
}

/// The stdout of `topick args` equals `tests/data/cli/{name}.txt`.
fn assert_golden(name: &str, args: &[&str]) {
    let path = format!("{}/tests/data/cli/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden exists");
    assert_eq!(stdout_of(args), golden, "topick {args:?} vs {path}");
}

/// The commands that price one synthetic attention step, from the key
/// codes of an instance: at the default head width and at OPT-2.7B's 80.
#[test]
fn cost_only_output_matches_the_goldens() {
    let cases: [(&str, &[&str]); 4] = [
        ("prune", &["prune"]),
        (
            "prune_dim80_context300",
            &["prune", "--dim", "80", "--context", "300"],
        ),
        ("sweep", &["sweep"]),
        ("accel", &["accel"]),
    ];
    for (name, args) in cases {
        assert_golden(name, args);
    }
}

/// The outputs that price nothing per run: OPT-6.7B's DRAM traffic
/// breakdown and the serving scenario catalogue.
#[test]
fn traffic_and_the_scenario_list_match_the_goldens() {
    assert_golden("traffic", &["traffic"]);
    assert_golden("list_scenarios", &["serve", "--list-scenarios"]);
}

#[test]
fn a_recorded_run_replays_to_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("topick-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let shape = [
        "--shards",
        "2",
        "--routing",
        "least",
        "--stealing",
        "--preemption",
        "--retention",
        "0.5",
        "--policy",
        "sjf",
    ];
    let record = |to: &str| {
        let mut args = vec!["serve", "--record", to];
        args.extend(shape);
        stdout_of(&args)
    };
    let (first, second) = (path("first.trace"), path("second.trace"));
    // Same flags, same trace bytes; and the trace replays to its own digest.
    record(&first);
    record(&second);
    let bytes = std::fs::read(&first).expect("recorded trace");
    assert_eq!(bytes, std::fs::read(&second).expect("recorded trace"));
    let replayed = stdout_of(&["serve", "--replay", &first]);
    assert!(replayed.contains("(matches the recording)"), "{replayed}");
    assert!(stdout_of(&["trace", "diff", &first, &second]).contains("schedules identical"));
    // A host tier changes the schedule: the diff against the tier-off twin
    // exits 1 and localizes the divergence to the first swap event.
    let tier = |to: &str, extra: &[&'static str]| {
        let mut args = vec!["serve", "--requests", "24", "--record", to];
        args.extend([
            "--preemption",
            "--retention",
            "0.75",
            "--policy",
            "priority",
        ]);
        args.extend(extra);
        stdout_of(&args)
    };
    let (tier_off, tier_on) = (path("tier_off.trace"), path("tier_on.trace"));
    tier(&tier_off, &[]);
    tier(&tier_on, &["--host-pages", "1024", "--swap-cost", "0.25"]);
    let diff = topick(&["trace", "diff", &tier_off, &tier_on]);
    assert_eq!(
        diff.status.code(),
        Some(1),
        "diverging schedules must exit 1"
    );
    let diff = String::from_utf8(diff.stdout).expect("utf-8 stdout");
    let first_right = diff.lines().find(|l| l.trim_start().starts_with("> ["));
    assert!(
        first_right.is_some_and(|l| l.contains(r#""kind":"swapped_out""#)),
        "{diff}"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn a_trace_with_a_huge_kv_budget_replays_without_aborting() {
    // The pager costs memory per page used, not per page of the budget,
    // so a budget of 10^12 tokens neither aborts nor allocates it.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/agentic_affinity_cluster.trace"
    ))
    .expect("golden trace");
    let edited = golden.replacen(
        "\"max_batch_tokens\":1600,",
        "\"max_batch_tokens\":1000000000000,",
        1,
    );
    assert_ne!(edited, golden, "the meta line names max_batch_tokens");
    let dir = std::env::temp_dir().join(format!("topick-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("huge_budget.trace");
    std::fs::write(&path, edited).expect("edited trace");
    // Slots, not KV pages, bound this run, so the schedule stays the
    // recorded one.
    let replayed = stdout_of(&["serve", "--replay", path.to_str().expect("utf-8 path")]);
    assert!(replayed.contains("(matches the recording)"), "{replayed}");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

/// Stderr of replaying the golden cluster trace with its first `from`
/// replaced by `to`; the replay must exit 1.
fn replay_error_with(from: &str, to: &str) -> String {
    static EDITS: AtomicUsize = AtomicUsize::new(0);
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/agentic_affinity_cluster.trace"
    ))
    .expect("golden trace");
    let edited = golden.replacen(from, to, 1);
    assert_ne!(edited, golden, "the golden trace holds {from}");
    let path = std::env::temp_dir().join(format!(
        "topick-cli-edited-{}-{}.trace",
        std::process::id(),
        EDITS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, edited).expect("edited trace");
    let err = error_of(&["serve", "--replay", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("edited trace removed");
    err
}

#[test]
fn a_trace_with_a_price_factor_out_of_range_is_refused_naming_it() {
    for field in ["prefill_factor", "swap_cost_factor", "ship_cost_factor"] {
        for value in ["inf", "1e300", "NaN", "-1", "10.5"] {
            // The writer leaves the last two out at their defaults, so they
            // go in beside the first.
            let fields = match field {
                "prefill_factor" => format!("\"{field}\":{value},"),
                _ => format!("\"prefill_factor\":1,\"{field}\":{value},"),
            };
            let err = replay_error_with("\"prefill_factor\":1,", &fields);
            assert!(
                err.contains(&format!("field '{field}' must be within [0, 10]")),
                "{field} {value}: {err}"
            );
        }
    }
}

#[test]
fn a_trace_with_a_zero_count_is_refused_naming_it() {
    for (field, recorded) in [
        ("max_batch", 6),
        ("page_size", 16),
        ("heads", 4),
        ("shards", 4),
    ] {
        let err = replay_error_with(
            &format!("\"{field}\":{recorded},"),
            &format!("\"{field}\":0,"),
        );
        assert!(
            err.contains(&format!("field '{field}' must be at least 1")),
            "{field}: {err}"
        );
    }
}

#[test]
fn a_trace_whose_heads_overflow_a_step_is_refused_naming_heads() {
    let err = replay_error_with("\"heads\":4,", &format!("\"heads\":{},", u64::MAX));
    assert!(err.contains("heads"), "{err}");
}

#[test]
fn serve_errors_exit_one_and_name_the_problem() {
    let trace = "tests/data/agentic_affinity_cluster.trace";
    assert!(error_of(&["serve", "--replay", trace, "--batch", "3"])
        .contains("--batch cannot be combined with --replay"));
    // The trace fixes the whole run: *any* other flag is refused, not
    // only the ones an exclusion list remembered.
    for extra in [
        &["--host-pages", "1"][..],
        &["--slo-reject"],
        &["--ship-cost", "1"],
    ] {
        let args = [&["serve", "--replay", trace][..], extra].concat();
        assert!(error_of(&args).contains(&format!("{} cannot be combined with --replay", extra[0])));
    }
    // Typos and garbage are errors naming the flag, never a silent
    // fallback to the default.
    assert!(error_of(&["serve", "--polcy", "sjf"]).contains("unknown flag --polcy"));
    assert!(
        error_of(&["serve", "--shards", "4", "--threads", "2"]).contains("unknown flag --threads")
    );
    assert!(error_of(&["serve", "--replay", trace, "--bogus-flag"])
        .contains("unknown flag --bogus-flag"));
    assert!(error_of(&["serve", "--batch", "abc"]).contains("--batch: cannot parse 'abc'"));
    assert!(error_of(&["serve", "--batch"]).contains("--batch: cannot parse ''"));
}

#[test]
fn a_price_factor_flag_out_of_range_is_refused_naming_its_field() {
    // The flags meet the range check a trace's meta line does, with its
    // message, before anything is served.
    for (args, field) in [
        (&["serve", "--prefill-factor", "11"][..], "prefill_factor"),
        (
            &["serve", "--host-pages", "1", "--swap-cost", "-1"],
            "swap_cost_factor",
        ),
        (
            &["serve", "--shards", "2", "--ship-cost", "NaN"],
            "ship_cost_factor",
        ),
    ] {
        let out = topick(args);
        assert_eq!(out.status.code(), Some(1), "topick {args:?} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("field '{field}' must be within [0, 10]")),
            "{args:?}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn a_zero_count_is_refused_naming_its_flag() {
    // Each used to panic with exit 101 (`--context` and `--dim` in the
    // instance sampler), print a breakdown at context 0 (`traffic`), bend
    // to 1 (`--shards`, and `--page-size` in the pager), start a run
    // that stalls (`--batch`) or serve nothing and print an infinite V
    // reduction (`--requests`).
    for (args, flag) in [
        (&["prune", "--context", "0"][..], "--context"),
        (&["prune", "--dim", "0"], "--dim"),
        (&["sweep", "--context", "0"], "--context"),
        (&["accel", "--context", "0"], "--context"),
        (&["traffic", "--context", "0"], "--context"),
        (&["serve", "--shards", "0"], "--shards"),
        (&["serve", "--page-size", "0"], "--page-size"),
        (&["serve", "--batch", "0"], "--batch"),
        (&["serve", "--requests", "0"], "--requests"),
    ] {
        let refusal = format!("{flag}: must be at least 1, got '0'");
        assert!(error_of(args).contains(&refusal), "{args:?}");
    }
}

#[test]
fn an_empty_record_is_refused_before_the_run() {
    let out = topick(&["serve", "--record"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--record: needs the path"));
    // Refused up front: nothing was served first.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_command_refuses_a_flag_it_does_not_declare() {
    // Each is a typo or a flag of another command, which would otherwise
    // run at the defaults it did not name.
    let trace = "tests/data/agentic_affinity_cluster.trace";
    for (args, unknown) in [
        (&["prune", "--contxt", "64"][..], "--contxt"),
        (&["sweep", "--threshold", "1e-4"][..], "--threshold"),
        (&["accel", "--dim", "128"][..], "--dim"),
        (&["traffic", "--seed", "3"][..], "--seed"),
        (
            &["trace", "diff", trace, trace, "--context", "8"][..],
            "--context",
        ),
    ] {
        assert!(
            error_of(args).contains(&format!("unknown flag {unknown}")),
            "{args:?}"
        );
    }
}

#[test]
fn every_command_refuses_an_argument_it_would_ignore() {
    // Each used to exit 0 running something other than what was typed.
    for (args, refusal) in [
        // A bare word no flag takes: `prune` ran at context 512.
        (&["prune", "64"][..], "unexpected argument '64'"),
        (
            &["serve", "--batch", "4", "8"][..],
            "unexpected argument '8'",
        ),
        // A value after a flag that takes none: `serve` ran *with*
        // preemption.
        (
            &["serve", "--preemption", "0"][..],
            "--preemption: takes no value, got '0'",
        ),
        // A repeated flag: the later value silently won.
        (
            &["sweep", "--context", "64", "--context", "128"][..],
            "--context: given more than once",
        ),
        (
            &["serve", "--stealing", "--shards", "2", "--stealing"][..],
            "--stealing: given more than once",
        ),
    ] {
        assert!(error_of(args).contains(refusal), "{args:?}");
    }
}

#[test]
fn help_lists_every_serve_flag_the_goldens_use() {
    let help = stdout_of(&["help"]);
    for flag in [
        "--policy",
        "--shards",
        "--routing",
        "--stealing",
        "--preemption",
        "--retention",
        "--host-pages",
        "--swap-cost",
        "--record",
        "--replay",
    ] {
        assert!(help.contains(flag), "{flag} missing from:\n{help}");
    }
}
