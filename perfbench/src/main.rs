//! The repository benchmark: three workloads that each put most of
//! their work in a different layer, measured end to end (untraced) or
//! layer by layer (traced). See `README.md` for why each workload
//! exists and which metric each layer should move.
//!
//! ```text
//! retri-perfbench --workload <aff_clique|mesh_10k|retrid_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod aff_clique;
mod affinity;
mod checks;
mod mesh;
mod report;
mod retrid;
mod setup;
mod sim;
mod span;

use std::process::ExitCode;

use report::{peak_rss_mb, print_result, Metrics, END_TO_END, PER_LAYER};

/// One measured run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    /// Host seconds the timed region lasts.
    pub seconds: f64,
    /// Whether layer spans are timed.
    pub traced: bool,
}

/// What a workload run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS of the kept set-up, before the run.
    pub setup_peak_rss_mb: Option<f64>,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            self.problems.push(problem);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

type Workload = fn(&Run) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("aff_clique", aff_clique::run),
    ("mesh_10k", mesh::run),
    ("retrid_tcp", retrid::run),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let run = WORKLOADS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, run)| *run)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload: run,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
    };
    let (outcome, table, metrics) = if args.trace {
        // Half the time untraced, half traced: the difference in
        // throughput is the tracing overhead.
        let half = Run {
            seconds: args.seconds / 2.0,
            ..run
        };
        let plain = (args.workload)(&half);
        let mut traced = (args.workload)(&Run {
            traced: true,
            ..half
        });
        let base = plain
            .end_to_end
            .get("throughput_per_s")
            .copied()
            .unwrap_or(0.0);
        let with = traced
            .end_to_end
            .get("throughput_per_s")
            .copied()
            .unwrap_or(0.0);
        let mut layers = std::mem::take(&mut traced.layers);
        layers.insert(
            "trace.overhead_share",
            if with > 0.0 { base / with - 1.0 } else { 0.0 },
        );
        traced.note(format!(
            "tracing overhead {:.1}% of untraced throughput",
            (base / with - 1.0) * 100.0
        ));
        traced.problems.extend(plain.problems);
        (traced, PER_LAYER, layers)
    } else {
        let mut outcome = (args.workload)(&run);
        let mut metrics = std::mem::take(&mut outcome.end_to_end);
        match peak_rss_mb() {
            Some(mb) => {
                metrics.insert(
                    "peak_rss_mb",
                    mb.max(outcome.setup_peak_rss_mb.unwrap_or(0.0)),
                );
            }
            None => outcome
                .problems
                .push("peak RSS unavailable (no /proc/self/status)".into()),
        }
        (outcome, END_TO_END, metrics)
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if outcome.attempted == 0 {
        println!("  CHECK FAILED: the run attempted nothing");
    }
    let correct = outcome.problems.is_empty() && outcome.attempted > 0;
    print_result(
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        table,
        &metrics,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args("--workload mesh_10k --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.name.as_str(), ok.seed, ok.seconds, ok.trace),
            ("mesh_10k", 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10").is_err());
        assert!(args("--workload mesh_10k --seed x --seconds 10").is_err());
        assert!(args("--workload mesh_10k --seed 3 --seconds 0").is_err());
        assert!(args("--workload mesh_10k --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload mesh_10k --seconds 10").is_err());
    }

    #[test]
    fn every_workload_passes_its_checks_on_a_short_run() {
        for (name, workload) in WORKLOADS {
            for traced in [false, true] {
                let outcome = workload(&Run {
                    seed: 9,
                    seconds: 0.3,
                    traced,
                });
                assert!(
                    outcome.problems.is_empty(),
                    "{name}: {:?}",
                    outcome.problems
                );
                assert!(outcome.attempted > 0, "{name} attempted nothing");
                for metric in [
                    "setup_s",
                    "throughput_per_s",
                    "latency_p50_us",
                    "latency_p99_us",
                ] {
                    assert!(outcome.end_to_end[metric] > 0.0, "{name}: {metric} is zero");
                }
            }
        }
    }
}
