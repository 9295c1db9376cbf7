//! Ratio guards over a freshly recorded benchmark-trajectory entry.
//!
//! The `pr5-sharded` trajectory entry landed with `sim_fault_channel`
//! 30× over its `pr4-obs` baseline and `sim_mesh_10k_sharded` *losing*
//! to the serial mesh — and nothing failed. This module gives the CI
//! `bench-smoke` job teeth: the `bench_guard` binary evaluates a
//! trajectory entry (usually the one `bench_summary` just wrote)
//! against every row of [`RULES`] and exits non-zero when any fails.
//!
//! A [`Rule`] divides one workload's median by what it is measured
//! [`Against`] and compares the ratio with its budget, after its
//! detail [`Check`]s hold. Raw wall-clock is never compared across
//! entries: the cross-entry rule compares costs *anchored* on
//! `wire_roundtrip` (pure CPU work untouched by simulator changes), so
//! the ratio survives a change of machine. Rules whose workload, detail
//! field or baseline is missing SKIP, so entries recorded before a
//! workload existed do not fail.
//!
//! | rule | workload (mode) | against | budget | also |
//! |---|---|---|---|---|
//! | `sharded-beats-serial` | `sim_mesh_10k_sharded` (parallel) | `sim_mesh_10k` (serial) | 1× | ≥ [`MIN_CORES_FOR_SHARD_CHECK`] cores |
//! | `fault-channel-ratio` | `sim_fault_channel` (serial) | its anchored cost in the baseline entry | [`FAULT_RATIO_BUDGET_FACTOR`]× | |
//! | `scale-ratio-1m-vs-100k` | `sim_mesh_1m_sharded` (serial) | `sim_mesh_100k_sharded` (serial) | [`SCALE_RATIO_BUDGET_FACTOR`]× | |
//! | `svc-allocation-run` | `svc_alloc_1m` (serial) | `wire_roundtrip` | [`SVC_ALLOC_RATIO_BUDGET`]× | `svc_allocs` ≥ [`SVC_ALLOC_FLOOR`] |
//! | `dfa-adaptive-mac` | `sim_dfa_saturated` (serial) | `wire_roundtrip` | [`DFA_RATIO_BUDGET`]× | `dfa_wilson_ok` = 1; `dfa_estimated_successes` ≥ [`DFA_ESTIMATED_FLOOR_PCT`]% of `dfa_known_successes` |
//!
//! The anchored fault-channel ratio is *not* perfectly effort-invariant
//! — per-trial setup amortizes differently over `--quick`'s shorter sim
//! time, shifting it ~1.4× between quick and full — so its budget is a
//! multiple of the baseline entry's ratio. CI pins the full-effort
//! `pr6-shard-fix` entry as that baseline: the 2× budget absorbs noise
//! and the quick/full shift, while the `pr5-sharded` regression (a 32×
//! ratio blowup) fails it by more than an order of magnitude.

use serde_json::Value;

/// The pure-CPU workload whose serial median anchors every cost.
pub const ANCHOR: &str = "wire_roundtrip";

/// Cores below which the sharded-beats-serial comparison is noise.
pub const MIN_CORES_FOR_SHARD_CHECK: u64 = 4;

/// Allowed growth of the fault-channel ratio over the baseline.
pub const FAULT_RATIO_BUDGET_FACTOR: f64 = 2.0;

/// `scale-ratio-1m-vs-100k`'s budget: the 1M-node mesh may cost at most this multiple of
/// the 100k-node mesh, with both normalized by the `wire_roundtrip`
/// anchor (serial medians, same entry). The 1M workload carries 10× the
/// nodes but a deliberately *sparser* traffic pattern (one frame per
/// node scattered over 10 s, so a quick run sees ~1.5% of nodes
/// transmit), so an O(active)-work engine lands well under 10×; an
/// engine that pays O(topology) per window blows straight past it.
/// The measured pr7-scale point is ~1.2× — the budget leaves headroom
/// for noise and the quick/full amortization shift without admitting
/// a per-window topology scan.
pub const SCALE_RATIO_BUDGET_FACTOR: f64 = 10.0;

/// `svc-allocation-run`'s budget: `svc_alloc_1m` (one million in-process
/// allocations, never shrunk by `--quick`) may cost at most this
/// multiple of the `wire_roundtrip` anchor. Calibrated against the
/// quick-effort anchor, where the ratio is largest (~0.4 measured).
pub const SVC_ALLOC_RATIO_BUDGET: f64 = 1.5;

/// The allocation floor `svc-allocation-run` enforces: the recorded run must have
/// minted at least this many identifiers.
pub const SVC_ALLOC_FLOOR: u64 = 1_000_000;

/// `dfa-adaptive-mac`'s throughput floor, in percent: Dynamic-Frame Aloha sizing
/// its frames from the density estimator must keep at least this share
/// of the known-population throughput over the same horizon. The
/// estimator's only handicaps are the warm-up at the configured frame
/// floor and identifier-rotation overshoot, both small against a full
/// run; a converged estimate lands ~97-99% measured, so 90% catches a
/// broken loop (estimate stuck at the floor, or wildly inflated)
/// without flagging estimator noise.
pub const DFA_ESTIMATED_FLOOR_PCT: u64 = 90;

/// `dfa-adaptive-mac`'s anchored-cost budget: `sim_dfa_saturated` (four saturated
/// 16-node clique runs: DFA known-N, DFA estimated, CSMA, ALOHA) may
/// cost at most this multiple of the `wire_roundtrip` anchor, serial
/// medians in the same entry. Measured ~0.6x at both efforts; 2.0
/// leaves >3x headroom without admitting per-slot work creeping into
/// the frame-step hot path.
pub const DFA_RATIO_BUDGET: f64 = 2.0;

/// Outcome of one guard rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The rule held.
    Pass(String),
    /// The rule could not be evaluated meaningfully; the reason says
    /// why. Skips do not fail the guard.
    Skip(String),
    /// The rule was violated.
    Fail(String),
}

impl Verdict {
    /// Whether this verdict should fail the run.
    #[must_use]
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// The verdict's human-readable detail.
    #[must_use]
    pub fn detail(&self) -> &str {
        match self {
            Verdict::Pass(s) | Verdict::Skip(s) | Verdict::Fail(s) => s,
        }
    }

    /// `PASS` / `SKIP` / `FAIL`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass(_) => "PASS",
            Verdict::Skip(_) => "SKIP",
            Verdict::Fail(_) => "FAIL",
        }
    }
}

/// Finds the entry with `label` in a trajectory document.
#[must_use]
pub fn find_entry<'doc>(doc: &'doc Value, label: &str) -> Option<&'doc Value> {
    doc.get("entries")?
        .as_array()?
        .iter()
        .find(|e| e.get("label").and_then(Value::as_str) == Some(label))
}

/// The latest entry in `entries`, other than `current` itself, that
/// was recorded at `current`'s effort: raw medians are only comparable
/// between entries of the same effort.
#[must_use]
pub fn latest_same_effort<'doc>(entries: &'doc [Value], current: &Value) -> Option<&'doc Value> {
    entries.iter().rev().find(|e| {
        e.get("effort") == current.get("effort") && e.get("label") != current.get("label")
    })
}

fn workload<'e>(entry: &'e Value, name: &str) -> Option<&'e Value> {
    entry
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

/// The recorded median for `(workload, mode)` in one entry, where
/// `mode` is `"serial"` or `"parallel"`.
#[must_use]
pub fn median_ns(entry: &Value, name: &str, mode: &str) -> Option<u64> {
    workload(entry, name)?.get(mode)?.get("median_ns")?.as_u64()
}

/// An integer detail field recorded next to a workload's timings.
fn detail_field(entry: &Value, name: &str, field: &str) -> Option<u64> {
    workload(entry, name)?.get(field)?.as_u64()
}

/// The core count the entry was recorded on. Prefers the explicit
/// `host_parallelism` field; entries from before that field existed
/// fall back to `parallel_workers` (capped at the host, so still a
/// lower bound on cores).
#[must_use]
pub fn recorded_cores(entry: &Value) -> Option<u64> {
    entry
        .get("host_parallelism")
        .or_else(|| entry.get("parallel_workers"))
        .and_then(Value::as_u64)
}

/// What a rule's workload median is divided by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Against {
    /// The [`ANCHOR`]'s serial median in the same entry.
    Anchor,
    /// Another `(workload, mode)` median in the same entry.
    Workload(&'static str, &'static str),
    /// The same workload's anchored cost in the baseline entry, with
    /// this entry's cost anchored too.
    Baseline,
}

/// A predicate over a workload's integer detail fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The field is at least this value.
    AtLeast(&'static str, u64),
    /// The field equals this value.
    Equals(&'static str, u64),
    /// `field` is at least `pct`% of `of`.
    PercentOf {
        /// The field held to the floor.
        field: &'static str,
        /// The field the floor is a share of.
        of: &'static str,
        /// The floor, in percent.
        pct: u64,
    },
}

impl Check {
    /// The detail fields this check reads.
    pub(crate) fn fields(&self) -> Vec<&'static str> {
        match *self {
            Check::AtLeast(field, _) | Check::Equals(field, _) => vec![field],
            Check::PercentOf { field, of, .. } => vec![field, of],
        }
    }

    /// Whether the check holds, or `None` when a field is missing.
    fn holds(&self, field: impl Fn(&str) -> Option<u64>) -> Option<bool> {
        Some(match *self {
            Check::AtLeast(name, min) => field(name)? >= min,
            Check::Equals(name, want) => field(name)? == want,
            Check::PercentOf { field: f, of, pct } => field(f)? * 100 >= field(of)? * pct,
        })
    }
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Check::AtLeast(field, min) => write!(f, "{field} >= {min}"),
            Check::Equals(field, want) => write!(f, "{field} == {want}"),
            Check::PercentOf { field, of, pct } => write!(f, "{field} >= {pct}% of {of}"),
        }
    }
}

/// One guard rule: a row of [`RULES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Stable rule name, printed in every verdict line.
    pub name: &'static str,
    /// The workload whose median is judged.
    pub workload: &'static str,
    /// `"serial"` or `"parallel"`: which pass's median is judged.
    pub mode: &'static str,
    /// What the median is divided by.
    pub against: Against,
    /// The largest ratio that passes.
    pub budget: f64,
    /// Cores the entry must record for the rule to be meaningful.
    pub min_cores: u64,
    /// Detail predicates on the workload, checked before the ratio.
    pub detail: &'static [Check],
    /// What a failure means, appended to the FAIL line.
    pub regressed: &'static str,
}

/// Every guard rule, in the order `bench_guard` prints them.
pub const RULES: [Rule; 5] = [
    Rule {
        name: "sharded-beats-serial",
        workload: "sim_mesh_10k_sharded",
        mode: "parallel",
        against: Against::Workload("sim_mesh_10k", "serial"),
        budget: 1.0,
        min_cores: MIN_CORES_FOR_SHARD_CHECK,
        detail: &[],
        regressed: "sharding no longer beats the one-shard engine",
    },
    Rule {
        name: "fault-channel-ratio",
        workload: "sim_fault_channel",
        mode: "serial",
        against: Against::Baseline,
        budget: FAULT_RATIO_BUDGET_FACTOR,
        min_cores: 0,
        detail: &[],
        regressed: "sim_fault_channel has regressed relative to pure-CPU work",
    },
    Rule {
        name: "scale-ratio-1m-vs-100k",
        workload: "sim_mesh_1m_sharded",
        mode: "serial",
        against: Against::Workload("sim_mesh_100k_sharded", "serial"),
        budget: SCALE_RATIO_BUDGET_FACTOR,
        min_cores: 0,
        detail: &[],
        regressed: "per-window cost is scaling with topology size, not active work",
    },
    Rule {
        name: "svc-allocation-run",
        workload: "svc_alloc_1m",
        mode: "serial",
        against: Against::Anchor,
        budget: SVC_ALLOC_RATIO_BUDGET,
        min_cores: 0,
        detail: &[Check::AtLeast("svc_allocs", SVC_ALLOC_FLOOR)],
        regressed: "the allocator hot path has regressed or the run came up short",
    },
    Rule {
        name: "dfa-adaptive-mac",
        workload: "sim_dfa_saturated",
        mode: "serial",
        against: Against::Anchor,
        budget: DFA_RATIO_BUDGET,
        min_cores: 0,
        detail: &[
            Check::Equals("dfa_wilson_ok", 1),
            Check::PercentOf {
                field: "dfa_estimated_successes",
                of: "dfa_known_successes",
                pct: DFA_ESTIMATED_FLOOR_PCT,
            },
        ],
        regressed: "the known-N closed form, the estimator-to-frame-size loop or the \
                    DFA frame-step hot path has regressed",
    },
];

impl Rule {
    /// Evaluates the rule on `entry`, reading `baseline` (labelled
    /// `baseline_label`) only for [`Against::Baseline`].
    #[must_use]
    pub fn evaluate(&self, entry: &Value, baseline: &Value, baseline_label: &str) -> Verdict {
        let cores = recorded_cores(entry).unwrap_or(0);
        if cores < self.min_cores {
            return Verdict::Skip(format!(
                "entry records {cores} core(s); {} needs at least {} to be meaningful",
                self.name, self.min_cores
            ));
        }
        let field = |name: &str| detail_field(entry, self.workload, name);
        for check in self.detail {
            match check.holds(field) {
                None => {
                    return Verdict::Skip(format!(
                        "entry predates {}'s detail for {check}",
                        self.workload
                    ))
                }
                Some(false) => {
                    let recorded: Vec<String> = check
                        .fields()
                        .into_iter()
                        .map(|name| format!("{name} = {}", field(name).unwrap_or(0)))
                        .collect();
                    return Verdict::Fail(format!(
                        "{} fails {check} ({}) — {}",
                        self.workload,
                        recorded.join(", "),
                        self.regressed
                    ));
                }
                Some(true) => {}
            }
        }
        let (ratio, against) = match self.ratio(entry, baseline, baseline_label) {
            Ok(measured) => measured,
            Err(missing) => return Verdict::Skip(missing),
        };
        let checks: String = self.detail.iter().map(|c| format!("; {c} holds")).collect();
        let line = format!(
            "{} {} at {ratio:.3}x {against} (budget {}x){checks}",
            self.workload, self.mode, self.budget
        );
        if ratio <= self.budget {
            Verdict::Pass(line)
        } else {
            Verdict::Fail(format!("{line} — {}", self.regressed))
        }
    }

    /// The workload's median over what it is measured against, with a
    /// description of the latter; `Err` says which median is missing.
    fn ratio(
        &self,
        entry: &Value,
        baseline: &Value,
        baseline_label: &str,
    ) -> Result<(f64, String), String> {
        let (other, mode) = match self.against {
            Against::Anchor | Against::Baseline => (ANCHOR, "serial"),
            Against::Workload(other, mode) => (other, mode),
        };
        let lacks = |e: &str| format!("{e} lacks the {}/{other} pair", self.workload);
        let now = self
            .over(entry, other, mode)
            .ok_or_else(|| lacks("entry"))?;
        if self.against != Against::Baseline {
            return Ok((now, format!("{other} {mode}")));
        }
        let base = self
            .over(baseline, other, mode)
            .ok_or_else(|| lacks(&format!("baseline entry '{baseline_label}'")))?;
        Ok((
            now / base,
            format!("its anchored cost in '{baseline_label}'"),
        ))
    }

    /// This rule's median over `(other, mode)`'s in the same entry.
    fn over(&self, entry: &Value, other: &str, mode: &str) -> Option<f64> {
        let ns = |name, mode| median_ns(entry, name, mode).filter(|&ns| ns > 0);
        Some(ns(self.workload, self.mode)? as f64 / ns(other, mode)? as f64)
    }
}

/// Workload-level `skipped` markers recorded in the entry by
/// `bench_summary` (e.g. sharded comparisons timed on a small host),
/// as `(workload, reason)` pairs. `bench_guard` prints these so a
/// recorded skip shows up in CI output instead of passing silently.
#[must_use]
pub fn skipped_workloads(entry: &Value) -> Vec<(String, String)> {
    entry
        .get("workloads")
        .and_then(Value::as_array)
        .map_or_else(Vec::new, |workloads| {
            workloads
                .iter()
                .filter_map(|w| {
                    Some((
                        w.get("name")?.as_str()?.to_string(),
                        w.get("skipped")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
}

/// Runs every rule and returns `(name, verdict)` pairs.
#[must_use]
pub fn run_all(
    entry: &Value,
    baseline: &Value,
    baseline_label: &str,
) -> Vec<(&'static str, Verdict)> {
    RULES
        .iter()
        .map(|rule| (rule.name, rule.evaluate(entry, baseline, baseline_label)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str) -> &'static Rule {
        RULES
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no rule {name}"))
    }

    /// A rule that reads no baseline, evaluated on `entry` alone.
    fn check(name: &str, entry: &Value) -> Verdict {
        rule(name).evaluate(entry, entry, "self")
    }

    fn measurement(median_ms: u64) -> Value {
        Value::Object(vec![(
            "median_ns".to_string(),
            Value::UInt(median_ms * 1_000_000),
        )])
    }

    fn workload(name: &str, serial_ms: u64, parallel_ms: u64) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(name.to_string())),
            ("serial".to_string(), measurement(serial_ms)),
            ("parallel".to_string(), measurement(parallel_ms)),
        ])
    }

    fn entry(label: &str, cores: u64, workloads: Vec<Value>) -> Value {
        Value::Object(vec![
            ("label".to_string(), Value::String(label.to_string())),
            ("host_parallelism".to_string(), Value::UInt(cores)),
            ("workloads".to_string(), Value::Array(workloads)),
        ])
    }

    #[test]
    fn sharded_check_passes_when_sharding_wins() {
        let e = entry(
            "x",
            8,
            vec![
                workload("sim_mesh_10k", 1600, 1500),
                workload("sim_mesh_10k_sharded", 900, 700),
            ],
        );
        assert_eq!(check("sharded-beats-serial", &e).label(), "PASS");
    }

    #[test]
    fn sharded_check_fails_on_the_pr5_shape() {
        // pr5-sharded: sharded 2452/3009 ms vs serial 1588 ms.
        let e = entry(
            "pr5",
            8,
            vec![
                workload("sim_mesh_10k", 1588, 1537),
                workload("sim_mesh_10k_sharded", 2452, 3009),
            ],
        );
        assert!(check("sharded-beats-serial", &e).is_fail());
    }

    #[test]
    fn sharded_check_skips_on_small_hosts() {
        let e = entry(
            "tiny",
            1,
            vec![
                workload("sim_mesh_10k", 1000, 1000),
                workload("sim_mesh_10k_sharded", 9000, 9000),
            ],
        );
        assert_eq!(check("sharded-beats-serial", &e).label(), "SKIP");
    }

    #[test]
    fn cores_fall_back_to_parallel_workers() {
        let e = Value::Object(vec![
            ("label".to_string(), Value::String("old".to_string())),
            ("parallel_workers".to_string(), Value::UInt(6)),
        ]);
        assert_eq!(recorded_cores(&e), Some(6));
    }

    #[test]
    fn fault_channel_rule_catches_the_pr5_regression_but_not_pr4() {
        // pr4-obs: fault 313 ms, wire 1380 ms. pr5: fault 10154 ms,
        // wire 1402 ms.
        let pr4 = entry(
            "pr4-obs",
            1,
            vec![
                workload("sim_fault_channel", 313, 224),
                workload("wire_roundtrip", 1380, 1356),
            ],
        );
        let pr5 = entry(
            "pr5-sharded",
            1,
            vec![
                workload("sim_fault_channel", 10154, 10472),
                workload("wire_roundtrip", 1402, 1680),
            ],
        );
        assert_eq!(
            rule("fault-channel-ratio")
                .evaluate(&pr4, &pr4, "pr4-obs")
                .label(),
            "PASS"
        );
        assert!(rule("fault-channel-ratio")
            .evaluate(&pr5, &pr4, "pr4-obs")
            .is_fail());
        // A machine half as fast scales both medians together: still
        // within budget.
        let slow = entry(
            "slow-host",
            1,
            vec![
                workload("sim_fault_channel", 626, 448),
                workload("wire_roundtrip", 2760, 2712),
            ],
        );
        assert_eq!(
            rule("fault-channel-ratio")
                .evaluate(&slow, &pr4, "pr4-obs")
                .label(),
            "PASS"
        );
    }

    #[test]
    fn missing_workloads_skip_instead_of_failing() {
        let empty = entry("empty", 8, vec![]);
        let full = entry(
            "full",
            8,
            vec![
                workload("sim_fault_channel", 313, 224),
                workload("wire_roundtrip", 1380, 1356),
            ],
        );
        assert_eq!(check("sharded-beats-serial", &empty).label(), "SKIP");
        assert_eq!(
            rule("fault-channel-ratio")
                .evaluate(&empty, &full, "full")
                .label(),
            "SKIP"
        );
        assert_eq!(
            rule("fault-channel-ratio")
                .evaluate(&full, &empty, "empty")
                .label(),
            "SKIP"
        );
        for (_, verdict) in run_all(&empty, &empty, "empty") {
            assert!(!verdict.is_fail());
        }
    }

    #[test]
    fn scale_ratio_passes_within_budget_and_fails_beyond_it() {
        let lean = entry(
            "lean",
            1,
            vec![
                workload("wire_roundtrip", 1400, 1400),
                workload("sim_mesh_100k_sharded", 2800, 2800),
                workload("sim_mesh_1m_sharded", 5600, 5600),
            ],
        );
        let verdict = check("scale-ratio-1m-vs-100k", &lean);
        assert_eq!(verdict.label(), "PASS", "{}", verdict.detail());

        // O(topology)-per-window shape: 10x the nodes, ~30x the cost.
        let bloated = entry(
            "bloated",
            1,
            vec![
                workload("wire_roundtrip", 1400, 1400),
                workload("sim_mesh_100k_sharded", 2800, 2800),
                workload("sim_mesh_1m_sharded", 84_000, 84_000),
            ],
        );
        assert!(check("scale-ratio-1m-vs-100k", &bloated).is_fail());
    }

    #[test]
    fn scale_ratio_skips_entries_predating_the_1m_workload() {
        let old = entry(
            "pr6-shard-fix",
            1,
            vec![
                workload("wire_roundtrip", 1400, 1400),
                workload("sim_mesh_100k_sharded", 2800, 2800),
            ],
        );
        assert_eq!(check("scale-ratio-1m-vs-100k", &old).label(), "SKIP");
        for (_, verdict) in run_all(&old, &old, "pr6-shard-fix") {
            assert!(!verdict.is_fail());
        }
    }

    #[test]
    fn scale_ratio_is_machine_independent() {
        // A host 3x slower scales every median together; the anchored
        // multiple is unchanged.
        let slow = entry(
            "slow",
            1,
            vec![
                workload("wire_roundtrip", 4200, 4200),
                workload("sim_mesh_100k_sharded", 8400, 8400),
                workload("sim_mesh_1m_sharded", 16_800, 16_800),
            ],
        );
        assert_eq!(check("scale-ratio-1m-vs-100k", &slow).label(), "PASS");
    }

    fn svc_workload(name: &str, serial_ms: u64, allocs: u64) -> Value {
        let Value::Object(mut fields) = workload(name, serial_ms, serial_ms) else {
            unreachable!("workload() builds an object");
        };
        fields.push(("svc_allocs".to_string(), Value::UInt(allocs)));
        fields.push(("svc_busy".to_string(), Value::UInt(0)));
        Value::Object(fields)
    }

    #[test]
    fn svc_rule_passes_a_cheap_million_and_fails_a_slow_or_short_one() {
        let good = entry(
            "good",
            1,
            vec![
                workload("wire_roundtrip", 370, 370),
                svc_workload("svc_alloc_1m", 150, 1_000_000),
            ],
        );
        let verdict = check("svc-allocation-run", &good);
        assert_eq!(verdict.label(), "PASS", "{}", verdict.detail());

        // A lock or allocation on the mint hot path: 1M ids now cost
        // multiples of the anchor.
        let slow = entry(
            "slow",
            1,
            vec![
                workload("wire_roundtrip", 370, 370),
                svc_workload("svc_alloc_1m", 1_200, 1_000_000),
            ],
        );
        assert!(check("svc-allocation-run", &slow).is_fail());

        // A run that silently minted less than the floor.
        let short = entry(
            "short",
            1,
            vec![
                workload("wire_roundtrip", 370, 370),
                svc_workload("svc_alloc_1m", 20, 40_000),
            ],
        );
        assert!(check("svc-allocation-run", &short).is_fail());
    }

    #[test]
    fn svc_rule_skips_entries_predating_the_service() {
        let old = entry("pr7-scale", 1, vec![workload("wire_roundtrip", 370, 370)]);
        assert_eq!(check("svc-allocation-run", &old).label(), "SKIP");
        for (_, verdict) in run_all(&old, &old, "pr7-scale") {
            assert!(!verdict.is_fail());
        }
    }

    #[test]
    fn detail_fields_read_back_from_the_entry() {
        let e = entry(
            "x",
            1,
            vec![svc_workload("svc_alloc_contended", 30, 200_000)],
        );
        assert_eq!(
            detail_field(&e, "svc_alloc_contended", "svc_allocs"),
            Some(200_000)
        );
        assert_eq!(detail_field(&e, "svc_alloc_contended", "svc_busy"), Some(0));
        assert_eq!(detail_field(&e, "svc_alloc_1m", "svc_allocs"), None);
    }

    fn dfa_workload(serial_ms: u64, known: u64, estimated: u64, wilson_ok: u64) -> Value {
        let Value::Object(mut fields) = workload("sim_dfa_saturated", serial_ms, serial_ms) else {
            unreachable!("workload() builds an object");
        };
        fields.push(("dfa_known_successes".to_string(), Value::UInt(known)));
        fields.push((
            "dfa_estimated_successes".to_string(),
            Value::UInt(estimated),
        ));
        fields.push(("dfa_wilson_ok".to_string(), Value::UInt(wilson_ok)));
        Value::Object(fields)
    }

    #[test]
    fn dfa_rule_passes_a_converged_loop_and_fails_each_regression() {
        let anchor = workload("wire_roundtrip", 370, 370);
        let good = entry(
            "good",
            1,
            vec![anchor.clone(), dfa_workload(230, 5700, 5500, 1)],
        );
        let verdict = check("dfa-adaptive-mac", &good);
        assert_eq!(verdict.label(), "PASS", "{}", verdict.detail());

        // The estimator loop breaks: frames stuck at the warm-up floor.
        let stuck = entry(
            "stuck",
            1,
            vec![anchor.clone(), dfa_workload(230, 5700, 2400, 1)],
        );
        assert!(check("dfa-adaptive-mac", &stuck).is_fail());

        // The engine drifts off the closed form.
        let skewed = entry(
            "skewed",
            1,
            vec![anchor.clone(), dfa_workload(230, 5700, 5500, 0)],
        );
        assert!(check("dfa-adaptive-mac", &skewed).is_fail());

        // Per-slot work creeps into the frame step: anchored cost blows
        // past the budget.
        let slow = entry("slow", 1, vec![anchor, dfa_workload(2_000, 5700, 5500, 1)]);
        assert!(check("dfa-adaptive-mac", &slow).is_fail());
    }

    #[test]
    fn dfa_rule_skips_entries_predating_the_workload() {
        let old = entry("pr9-service", 1, vec![workload("wire_roundtrip", 370, 370)]);
        assert_eq!(check("dfa-adaptive-mac", &old).label(), "SKIP");
        for (_, verdict) in run_all(&old, &old, "pr9-service") {
            assert!(!verdict.is_fail());
        }
    }

    #[test]
    fn skipped_markers_are_surfaced_not_swallowed() {
        let marked = Value::Object(vec![(
            "workloads".to_string(),
            Value::Array(vec![
                workload("sim_mesh_10k", 1000, 1000),
                Value::Object(vec![
                    (
                        "name".to_string(),
                        Value::String("sim_mesh_10k_sharded".to_string()),
                    ),
                    (
                        "skipped".to_string(),
                        Value::String("host_parallelism 1 < 4 cores".to_string()),
                    ),
                ]),
            ]),
        )]);
        let skips = skipped_workloads(&marked);
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].0, "sim_mesh_10k_sharded");
        assert!(skips[0].1.contains("host_parallelism"));
        assert!(skipped_workloads(&entry("clean", 8, vec![])).is_empty());
    }

    #[test]
    fn find_entry_locates_labels() {
        let doc = Value::Object(vec![(
            "entries".to_string(),
            Value::Array(vec![entry("a", 1, vec![]), entry("b", 2, vec![])]),
        )]);
        assert_eq!(find_entry(&doc, "b").and_then(recorded_cores), Some(2));
        assert!(find_entry(&doc, "missing").is_none());
    }

    #[test]
    fn committed_trajectory_replays_to_the_pinned_verdicts() {
        // Labels the five hand-written rules gave every committed entry
        // against CI's baseline before they became table rows. A newly
        // recorded entry needs a row here: its verdicts are pinned too.
        const EXPECTED: [(&str, [&str; 5]); 8] = [
            ("pr2-pre-opt", ["SKIP", "SKIP", "SKIP", "SKIP", "SKIP"]),
            ("pr2-post-opt", ["SKIP", "SKIP", "SKIP", "SKIP", "SKIP"]),
            ("pr4-obs", ["SKIP", "PASS", "SKIP", "SKIP", "SKIP"]),
            ("pr5-sharded", ["SKIP", "FAIL", "SKIP", "SKIP", "SKIP"]),
            ("pr6-shard-fix", ["SKIP", "PASS", "SKIP", "SKIP", "SKIP"]),
            ("pr7-scale", ["SKIP", "PASS", "PASS", "SKIP", "SKIP"]),
            ("pr9-service", ["SKIP", "PASS", "PASS", "PASS", "SKIP"]),
            ("pr10-dfa", ["SKIP", "PASS", "PASS", "PASS", "PASS"]),
        ];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netsim.json");
        let text = std::fs::read_to_string(path).expect("committed trajectory");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let baseline = find_entry(&doc, "pr6-shard-fix").expect("CI baseline");
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .expect("entries");
        assert_eq!(entries.len(), EXPECTED.len());
        for (entry, (label, labels)) in entries.iter().zip(EXPECTED) {
            assert_eq!(entry.get("label").and_then(Value::as_str), Some(label));
            let verdicts = run_all(entry, baseline, "pr6-shard-fix");
            let got: Vec<&str> = verdicts.iter().map(|(_, v)| v.label()).collect();
            assert_eq!(got, labels, "{label}: {verdicts:?}");
        }
    }

    #[test]
    fn speedups_compare_only_within_one_effort() {
        let at = |label: &str, effort: &str| {
            Value::Object(vec![
                ("label".to_string(), Value::String(label.to_string())),
                ("effort".to_string(), Value::String(effort.to_string())),
            ])
        };
        fn label(e: Option<&Value>) -> Option<&str> {
            e?.get("label")?.as_str()
        }
        let entries = [at("a", "full"), at("b", "quick"), at("c", "full")];
        // Quick after full: skips the full entry for the earlier quick one.
        assert_eq!(
            label(latest_same_effort(&entries, &at("new", "quick"))),
            Some("b")
        );
        // Full after quick.
        assert_eq!(
            label(latest_same_effort(&entries[..2], &at("new", "full"))),
            Some("a")
        );
        // No entry of the same effort; re-recording a label never
        // compares the entry with its own previous version.
        assert_eq!(latest_same_effort(&entries[..1], &at("new", "quick")), None);
        assert_eq!(latest_same_effort(&entries[..2], &at("b", "quick")), None);
    }
}
