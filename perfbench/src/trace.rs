//! Outside-in layer trace.
//!
//! Every span wraps exactly one call into one layer's public function,
//! made from this package's own code; no span sits inside the program.
//! Spans never nest, so a span's self time is its whole duration, and
//! the part of a traced pass no span covers (job building, result
//! assembly, allocator work between calls) is reported as
//! `trace.unattributed_s` instead of being spread over the layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Self times (seconds) and counts of one traced pass, keyed by metric
/// name.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Times one call into a layer and charges it to `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        *self.times.entry(layer).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Raises the maximum `name` to at least `v`.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        let e = self.maxima.entry(name).or_default();
        *e = e.max(v);
    }

    /// Self seconds charged to `layer` (0 if it was never entered).
    pub fn time(&self, layer: &str) -> f64 {
        self.times.get(layer).copied().unwrap_or(0.0)
    }

    /// The count or maximum `name` (0 if never recorded).
    pub fn get_count(&self, name: &str) -> f64 {
        let c = self.counts.get(name).or(self.maxima.get(name));
        c.copied().unwrap_or(0.0)
    }

    /// Sum of every span's self time.
    pub fn attributed_s(&self) -> f64 {
        self.times.values().sum()
    }

    /// Adds another trace's spans and counts to this one.
    pub fn merge(&mut self, other: &Trace) {
        for (k, v) in &other.times {
            *self.times.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            self.count(k, *v);
        }
        for (k, v) in &other.maxima {
            self.count_max(k, *v);
        }
    }
}
