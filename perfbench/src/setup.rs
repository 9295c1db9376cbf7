//! Repeated set-up. `setup_s` is the median of `SETUP_REPS` set-ups,
//! and every set-up of one seed must reach the same warm-up digest.

use crate::report::median;

/// Set-ups per run.
pub const SETUP_REPS: usize = 5;

/// Host seconds of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub topology_s: f64,
    pub build_s: f64,
    /// Everything: construction, connection and warm-up.
    pub total_s: f64,
}

/// The kept set-up and what all the set-ups measured.
pub struct SetUp<T> {
    pub kept: T,
    pub times: Vec<SetupTimes>,
    pub digests: Vec<u64>,
    /// Peak RSS right after the kept set-up.
    pub peak_rss_mb: Option<f64>,
}

/// The median of one field over the set-ups.
pub fn median_of(times: &[SetupTimes], field: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(field).collect::<Vec<_>>())
}

/// Runs `set_up` `SETUP_REPS` times. The first set-up is the one kept,
/// so it is built in a heap no other set-up has touched; the repeats
/// only time and check, and `discard` ends each at once. The peak RSS
/// is read after the first set-up and reset after the repeats, so a
/// run's peak is that of one set-up and its run, not of the repeats.
pub fn repeat<T, E>(
    mut set_up: impl FnMut() -> Result<(T, u64, SetupTimes), E>,
    mut discard: impl FnMut(T),
) -> Result<SetUp<T>, E> {
    let (kept, digest, times) = set_up()?;
    let mut out = SetUp {
        kept,
        times: vec![times],
        digests: vec![digest],
        peak_rss_mb: crate::report::peak_rss_mb(),
    };
    for _ in 1..SETUP_REPS {
        let (extra, digest, times) = set_up()?;
        discard(extra);
        out.times.push(times);
        out.digests.push(digest);
    }
    crate::report::reset_peak_rss();
    Ok(out)
}
