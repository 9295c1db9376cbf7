//! Metric tables, summary statistics and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every `END_TO_END` metric,
//! a traced run every `PER_LAYER` metric, on every workload. A layer a
//! workload does not run reports zero.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_s", "s"),
    ("netsim.self_s", "s"),
    ("netsim.windows", "count"),
    ("netsim.windows_skipped", "count"),
    ("netsim.self_ns_per_window", "ns"),
    ("netsim.self_ns_per_frame", "ns"),
    ("netsim.frames", "count"),
    ("netsim.deliveries", "count"),
    ("netsim.rf_collisions", "count"),
    ("netsim.half_duplex_losses", "count"),
    ("netsim.delivery_ratio", "ratio"),
    ("netsim.topology_s", "s"),
    ("netsim.build_s", "s"),
    ("netsim.moves", "count"),
    ("app.callback_s", "s"),
    ("app.self_s", "s"),
    ("aff.fragment_s", "s"),
    ("aff.fragment_calls", "count"),
    ("aff.decode_s", "s"),
    ("aff.decode_calls", "count"),
    ("aff.reassemble_s", "s"),
    ("aff.reassemble_calls", "count"),
    ("aff.packets_offered", "count"),
    ("aff.packets_delivered", "count"),
    ("aff.delivery_ratio", "ratio"),
    ("aff.checksum_failures", "count"),
    ("aff.false_accepts", "count"),
    ("aff.identifier_conflicts", "count"),
    ("aff.expired", "count"),
    ("aff.decode_errors", "count"),
    ("core.select_s", "s"),
    ("core.select_calls", "count"),
    ("core.observe_s", "s"),
    ("core.observe_calls", "count"),
    ("service.roundtrip_s", "s"),
    ("service.requests", "count"),
    ("service.codec_s", "s"),
    ("service.handle_s", "s"),
    ("service.transport_wait_s", "s"),
    ("service.ids_minted", "count"),
    ("service.collisions", "count"),
    ("service.busy", "count"),
    ("service.err", "count"),
    ("service.fail_share", "ratio"),
    ("service.request_bytes", "bytes"),
    ("service.reply_bytes", "bytes"),
    ("trace.overhead_share", "ratio"),
];

/// Named metric values of one run, keyed by table name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Prints the result line: `table` metrics in table order, each taken
/// from `values` or zero if the workload has no such layer.
///
/// # Panics
///
/// Panics if `values` holds a name outside `table` (a benchmark bug).
pub fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Metrics,
) {
    for name in values.keys() {
        assert!(
            table.iter().any(|(known, _)| known == name),
            "metric {name} is not in the benchmark's table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    );
}

/// JSON has no NaN or infinity; a non-finite value prints as zero.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Host time per block. Host speed on a shared machine drifts in
/// phases of a few seconds; throughput is the median of its per-block
/// values, so one slow phase moves it less than a mean would.
pub const BLOCK_NS: u64 = 2_000_000_000;

/// Per-block throughput, and latency percentiles per block (service)
/// or for the whole run (simulators); each metric is their median.
#[derive(Debug, Default)]
pub struct Blocks {
    pub per_s: Vec<f64>,
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
}

impl Blocks {
    /// Adds the latency percentiles of one block's `samples` (sorted in
    /// place).
    pub fn push_latencies(&mut self, samples: &mut [u64]) {
        samples.sort_unstable();
        self.p50_ns.push(percentile(samples, 0.50) as f64);
        self.p99_ns.push(percentile(samples, 0.99) as f64);
    }

    /// Inserts the medians over blocks as the timing metrics.
    pub fn insert_metrics(&self, metrics: &mut Metrics) {
        metrics.insert("throughput_per_s", median(&self.per_s));
        metrics.insert("latency_p50_us", median(&self.p50_ns) / 1e3);
        metrics.insert("latency_p99_us", median(&self.p99_ns) / 1e3);
    }
}

/// `part / whole`, or zero when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// This process's peak resident set (`VmHWM`) in MiB. Each benchmark
/// invocation runs one workload in a fresh process, so the peak is that
/// workload's own.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Returns freed heap memory to the kernel, then resets the peak
/// resident set to the current one (`/proc/self/clear_refs`), where the
/// C library and kernel allow it.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases
        // free pages of the allocator's own heaps.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// FNV-1a over 64-bit words: the digests the output checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches(r#""unit": "#).count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn digests_see_every_word() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1);
        b.word(2);
        assert_ne!(a.value(), b.value());
    }
}
