//! Spans recorded from outside a layer: the benchmark wraps each call
//! into a layer's public functions and accumulates host time and calls.

use std::time::Instant;

/// Accumulated host time and call count of one layer boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    /// Runs `f`, counting the call and, when `traced`, timing it.
    #[inline]
    pub fn time<T>(&mut self, traced: bool, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns += elapsed_ns(start);
        out
    }

    /// Closes a span opened with [`open`]: counts the call and adds the
    /// time since `started`, if it was timed.
    pub fn close(&mut self, started: Option<Instant>) {
        self.calls += 1;
        if let Some(started) = started {
            self.ns += elapsed_ns(started);
        }
    }

    pub fn merge(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    pub fn secs(self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Opens a span whose body is not one call: the start time when
/// `traced`, else nothing. Close it with [`Span::close`].
pub fn open(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

/// Host nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_count_calls_without_timing() {
        let mut span = Span::default();
        assert_eq!(span.time(false, || 7), 7);
        assert_eq!(span, Span { ns: 0, calls: 1 });
        span.time(true, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(span.calls, 2);
        assert!(span.ns >= 1_000_000);
    }
}
