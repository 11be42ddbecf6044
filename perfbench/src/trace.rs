//! Spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] keeps, per layer name, the number of spans, their summed
//! duration, and their summed self time (duration minus the part covered
//! by child spans). Traced passes run on one thread, so spans nest
//! strictly and the self times of all layers plus the root's own time add
//! up to the root's duration exactly. A disabled tracer records nothing,
//! which is how the same pass runs untraced for the overhead comparison.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated spans of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time: durations minus child spans.
    pub self_time: Duration,
}

struct Open {
    name: &'static str,
    start: Instant,
    children: Duration,
}

/// The span recorder of one pass.
pub struct Tracer {
    enabled: bool,
    open: Vec<Open>,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or ignores them.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            open: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Opens a span; it covers everything until the matching [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.open.push(Open {
                name,
                start: Instant::now(),
                children: Duration::ZERO,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let span = self.open.pop().expect("exit matches an enter");
        let elapsed = span.start.elapsed();
        if let Some(parent) = self.open.last_mut() {
            parent.children += elapsed;
        }
        let layer = self.layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total += elapsed;
        layer.self_time += elapsed.saturating_sub(span.children);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded layers, by name.
    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.enter("root");
        t.span("a", || std::thread::sleep(Duration::from_millis(2)));
        t.enter("b");
        t.span("a", || std::thread::sleep(Duration::from_millis(1)));
        t.exit();
        t.exit();
        let l = t.layers();
        let sum: Duration = l.values().map(|x| x.self_time).sum();
        assert_eq!(sum, l["root"].total);
        assert_eq!(l["a"].calls, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("root");
        t.span("a", || ());
        t.exit();
        assert!(t.layers().is_empty());
    }
}
