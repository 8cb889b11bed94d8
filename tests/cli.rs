//! End-to-end tests of the `topick` binary: `serve` stdout against
//! checked-in goldens, `--record` → `--replay` byte-identity, and the
//! error paths that must exit 1 instead of running something else.

use std::process::{Command, Output};

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
        let path = format!("{}/tests/data/cli/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).expect("golden exists");
        assert_eq!(stdout_of(args), golden, "topick {args:?} vs {path}");
    }
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
fn serve_errors_exit_one_and_name_the_problem() {
    assert!(error_of(&["serve", "--batch", "0"]).contains("admission stalled"));
    let trace = "tests/data/agentic_affinity_cluster.trace";
    assert!(error_of(&["serve", "--replay", trace, "--batch", "3"])
        .contains("--batch cannot be combined with --replay"));
    // The trace fixes the whole run: *any* other flag is refused, not
    // only the ones an exclusion list remembered.
    for extra in ["--host-pages", "--slo-reject", "--ship-cost"] {
        assert!(error_of(&["serve", "--replay", trace, extra, "1"])
            .contains(&format!("{extra} cannot be combined with --replay")));
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
