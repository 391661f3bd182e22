//! Folds recorded spans into simulated time per `(track kind, span name)`.
//!
//! Spans on different tracks overlap in simulated time (a fill's core span
//! contains its bank access), so the sums are not a partition of the run:
//! each says how much simulated time that one kind of work occupied.

use std::collections::BTreeMap;

use obfusmem_obs::trace::{TraceEvent, Track};

/// Every `(track kind, span name)` the simulator's recorder emits, in
/// report order. One `sim.<kind>.<name>_ns` metric each.
pub const SPANS: [(&str, &str); 13] = [
    ("core", "fill"),
    ("core", "mshr-stall"),
    ("core", "drain"),
    ("engine", "encrypt"),
    ("crypto", "pad-stall"),
    ("crypto", "counter-fetch"),
    ("bus", "request-wire"),
    ("bus", "reply-wire"),
    ("link", "recovery"),
    ("bank", "array-read"),
    ("bank", "array-write"),
    ("bank", "recovery"),
    ("oram", "path-access"),
];

/// The kind of a track: its name with the channel and bank indices
/// dropped, so every bank folds into `bank`.
pub fn track_kind(track: Track) -> &'static str {
    match track {
        Track::Core => "core",
        Track::Engine => "engine",
        Track::Crypto => "crypto",
        Track::Link(_) => "link",
        Track::Channel(_) => "bus",
        Track::Bank { .. } => "bank",
        Track::Oram => "oram",
        Track::Attack => "attack",
    }
}

/// Summed span durations, picoseconds, per `(kind, name)`.
#[derive(Debug, Clone, Default)]
pub struct SpanFold {
    ps: BTreeMap<(&'static str, &'static str), u64>,
}

impl SpanFold {
    /// Adds every span in `events`; instants carry no duration and are
    /// skipped.
    pub fn add(&mut self, events: &[TraceEvent]) {
        for event in events {
            if let TraceEvent::Span {
                track,
                name,
                start,
                end,
            } = *event
            {
                *self.ps.entry((track_kind(track), name)).or_default() +=
                    end.as_ps().saturating_sub(start.as_ps());
            }
        }
    }

    /// Total picoseconds folded under `(kind, name)`.
    pub fn total_ps(&self, kind: &str, name: &str) -> u64 {
        self.ps
            .iter()
            .find(|((k, n), _)| *k == kind && *n == name)
            .map_or(0, |(_, &ps)| ps)
    }

    /// Keys the recorder emitted that [`SPANS`] does not list.
    pub fn unlisted(&self) -> Vec<String> {
        self.ps
            .keys()
            .filter(|key| !SPANS.contains(key))
            .map(|(k, n)| format!("{k}.{n}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_sim::time::Time;

    fn span(track: Track, name: &'static str, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent::Span {
            track,
            name,
            start: Time::from_ps(start_ns * 1000),
            end: Time::from_ps(end_ns * 1000),
        }
    }

    #[test]
    fn overlapping_spans_sum_per_kind_and_name() {
        let bank = |channel, bank| Track::Bank { channel, bank };
        let events = vec![
            // One fill: the core span contains the engine, wire and bank
            // spans, which overlap each other.
            span(Track::Core, "fill", 0, 100),
            span(Track::Engine, "encrypt", 0, 10),
            span(Track::Channel(0), "request-wire", 8, 20),
            span(bank(0, 3), "array-read", 20, 80),
            // A second fill on another channel overlaps the first.
            span(Track::Core, "fill", 50, 120),
            span(Track::Channel(1), "request-wire", 55, 60),
            span(bank(1, 0), "array-read", 60, 110),
            span(bank(1, 0), "recovery", 60, 61),
            TraceEvent::Instant {
                track: Track::Core,
                name: "writeback",
                at: Time::from_ps(70_000),
            },
            // An inverted span contributes nothing rather than wrapping.
            span(Track::Crypto, "pad-stall", 9, 3),
        ];
        let mut fold = SpanFold::default();
        fold.add(&events);
        assert_eq!(
            fold.total_ps("core", "fill"),
            170_000,
            "overlap counted twice"
        );
        assert_eq!(fold.total_ps("bus", "request-wire"), 17_000);
        assert_eq!(fold.total_ps("bank", "array-read"), 110_000, "banks fold");
        assert_eq!(fold.total_ps("bank", "recovery"), 1_000);
        assert_eq!(fold.total_ps("engine", "encrypt"), 10_000);
        assert_eq!(fold.total_ps("crypto", "pad-stall"), 0);
        assert_eq!(fold.total_ps("core", "writeback"), 0, "instants skipped");
        assert!(fold.unlisted().is_empty());

        fold.add(&[span(Track::Attack, "capture", 0, 1)]);
        assert_eq!(fold.unlisted(), vec!["attack.capture".to_string()]);
    }
}
