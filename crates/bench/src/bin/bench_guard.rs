//! CI ratio guard for the benchmark trajectory (see
//! [`retri_bench::guard`] for the rules and their rationale).
//!
//! Usage:
//! `bench_guard --file <trajectory.json> --entry <label>
//! [--baseline <path>] [--baseline-entry <label>]`
//!
//! Evaluates the named entry — usually the one `bench_summary` just
//! wrote — against every rule in [`retri_bench::guard::RULES`],
//! printing one verdict line per rule. Exits non-zero if any rule
//! fails; skipped rules (for example sharded-vs-serial on a small CI
//! host) are reported with a count and reasons rather than passing
//! silently, and workload-level `skipped` markers recorded in the entry
//! are echoed as NOTE lines. The baseline defaults to the committed
//! `BENCH_netsim.json`'s `pr6-shard-fix` entry, the full-effort entry
//! CI pins as its baseline (later entries exist; CI does not follow
//! them). Pass `--baseline-entry` to compare against another point.

use std::path::PathBuf;

use retri_bench::guard;
use serde_json::Value;

struct Args {
    file: PathBuf,
    entry: String,
    baseline: PathBuf,
    baseline_entry: String,
}

fn parse_args() -> Args {
    let mut file = None;
    let mut entry = None;
    let mut baseline = PathBuf::from("BENCH_netsim.json");
    let mut baseline_entry = "pr6-shard-fix".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--file" => file = Some(PathBuf::from(value("--file"))),
            "--entry" => entry = Some(value("--entry")),
            "--baseline" => baseline = PathBuf::from(value("--baseline")),
            "--baseline-entry" => baseline_entry = value("--baseline-entry"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    Args {
        file: file.expect("--file is required"),
        entry: entry.expect("--entry is required"),
        baseline,
        baseline_entry,
    }
}

fn load(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|err| panic!("cannot parse {}: {err}", path.display()))
}

fn main() {
    let args = parse_args();
    let doc = load(&args.file);
    let baseline_doc = load(&args.baseline);
    let entry = guard::find_entry(&doc, &args.entry).unwrap_or_else(|| {
        panic!(
            "no entry labelled {:?} in {}",
            args.entry,
            args.file.display()
        )
    });
    let baseline = guard::find_entry(&baseline_doc, &args.baseline_entry).unwrap_or_else(|| {
        panic!(
            "no entry labelled {:?} in {}",
            args.baseline_entry,
            args.baseline.display()
        )
    });
    let mut failed = false;
    let mut skipped = 0usize;
    for (name, verdict) in guard::run_all(entry, baseline, &args.baseline_entry) {
        println!(
            "[bench_guard] {:4} {name}: {}",
            verdict.label(),
            verdict.detail()
        );
        failed |= verdict.is_fail();
        if matches!(verdict, guard::Verdict::Skip(_)) {
            skipped += 1;
        }
    }
    // Workload-level markers recorded by bench_summary: measurements
    // that ran but whose usual interpretation does not hold (e.g. a
    // sharded workload timed on a 1-core host).
    for (workload, reason) in guard::skipped_workloads(entry) {
        println!("[bench_guard] NOTE {workload}: {reason}");
    }
    if skipped > 0 {
        println!("[bench_guard] {skipped} rule(s) skipped — reasons above, not silent passes");
    }
    if failed {
        eprintln!(
            "[bench_guard] entry '{}' violates the trajectory guard rules",
            args.entry
        );
        std::process::exit(1);
    }
}
