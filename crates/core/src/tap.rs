//! The backend's one bus-event hook.
//!
//! A [`BusTap`] sees every [`BusEvent`] as the backend records it, so an
//! attacker model (the leakage observatory) can fold each packet into
//! running statistics without the backend ever materialising the full
//! trace. The buffered trace behind
//! [`crate::backend::ObfusMemBackend::enable_trace`] is just another tap:
//! a `Vec<BusEvent>` that collects every event, for the one-shot
//! estimators in `obfusmem-sec::leakage`. The backend holds one handle,
//! so attaching a tap replaces the buffered trace and vice versa.
//!
//! The handle mirrors the `obfusmem-obs` no-op recorder contract: a
//! disabled [`BusTapHandle`] is a `None` and every call short-circuits on
//! an `Option` check, so runs without an observer pay a single branch per
//! would-be event. Observing changes no simulated state, so results are
//! byte-identical with or without a tap.

use std::cell::RefCell;
use std::rc::Rc;

use crate::busmsg::BusEvent;

/// Observer of the encrypted bus. Implementations fold events into
/// running state; they must not assume events arrive in batches or that
/// a full trace is ever available.
pub trait BusTap {
    /// Called once per bus event, in emission order.
    fn on_event(&mut self, event: &BusEvent);

    /// Drains the events the observer buffered. Streaming observers
    /// buffer nothing.
    fn take_buffered(&mut self) -> Vec<BusEvent> {
        Vec::new()
    }
}

/// The buffered trace: collects every event for post-hoc analysis.
impl BusTap for Vec<BusEvent> {
    fn on_event(&mut self, event: &BusEvent) {
        self.push(event.clone());
    }

    fn take_buffered(&mut self) -> Vec<BusEvent> {
        std::mem::take(self)
    }
}

/// A tap that discards everything. Used to measure the cost of event
/// construction + delivery without any analysis riding on top.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBusTap;

impl BusTap for NullBusTap {
    fn on_event(&mut self, _event: &BusEvent) {}
}

/// Shared, optionally-absent tap. Cloning shares the underlying
/// observer (mirrors `obfusmem_obs::TraceHandle`).
#[derive(Clone, Default)]
pub struct BusTapHandle {
    inner: Option<Rc<RefCell<dyn BusTap>>>,
}

impl BusTapHandle {
    /// A handle with no observer attached; `deliver` is a no-op.
    pub fn disabled() -> Self {
        BusTapHandle { inner: None }
    }

    /// Wraps an observer. The caller keeps its own `Rc` to read the
    /// accumulated state back out after the run.
    pub fn attached(tap: Rc<RefCell<dyn BusTap>>) -> Self {
        BusTapHandle { inner: Some(tap) }
    }

    /// A fresh buffered trace: a `Vec` that collects every event until
    /// [`Self::take_buffered`] drains it.
    pub(crate) fn buffered() -> Self {
        Self::attached(Rc::new(RefCell::new(Vec::<BusEvent>::new())))
    }

    /// Whether an observer is listening. The backend uses this to decide
    /// if event construction is worth doing at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Streams one event to the observer, if any.
    pub fn deliver(&self, event: &BusEvent) {
        if let Some(tap) = &self.inner {
            tap.borrow_mut().on_event(event);
        }
    }

    /// Drains the observer's buffered events; empty when nothing is
    /// attached or the observer only streams.
    pub(crate) fn take_buffered(&self) -> Vec<BusEvent> {
        self.inner
            .as_ref()
            .map(|tap| tap.borrow_mut().take_buffered())
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for BusTapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusTapHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busmsg::{BusPacket, Direction, GroundTruth};
    use obfusmem_mem::request::AccessKind;

    fn event() -> BusEvent {
        BusEvent {
            at: obfusmem_sim::time::Time::ZERO,
            channel: 0,
            direction: Direction::ToMemory,
            packet: BusPacket {
                header_ct: [0; 16],
                data_ct: None,
                tag: None,
            },
            truth: GroundTruth {
                real: true,
                kind: AccessKind::Read,
                addr: 7,
            },
        }
    }

    struct Counting(u64);
    impl BusTap for Counting {
        fn on_event(&mut self, _event: &BusEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = BusTapHandle::disabled();
        assert!(!h.is_enabled());
        h.deliver(&event()); // must not panic
    }

    #[test]
    fn attached_handle_streams_events() {
        let tap = Rc::new(RefCell::new(Counting(0)));
        let h = BusTapHandle::attached(tap.clone());
        assert!(h.is_enabled());
        h.deliver(&event());
        h.deliver(&event());
        assert_eq!(tap.borrow().0, 2);
    }

    #[test]
    fn buffered_trace_collects_until_drained() {
        let h = BusTapHandle::buffered();
        assert!(h.is_enabled());
        h.deliver(&event());
        h.deliver(&event());
        assert_eq!(h.take_buffered().len(), 2);
        assert!(h.take_buffered().is_empty(), "draining empties the buffer");
        h.deliver(&event());
        assert_eq!(h.take_buffered().len(), 1, "recording stays enabled");
    }

    #[test]
    fn streaming_taps_and_disabled_handles_buffer_nothing() {
        let tap = Rc::new(RefCell::new(Counting(0)));
        let h = BusTapHandle::attached(tap.clone());
        h.deliver(&event());
        assert!(h.take_buffered().is_empty());
        assert!(BusTapHandle::disabled().take_buffered().is_empty());
    }

    #[test]
    fn clones_share_the_observer() {
        let tap = Rc::new(RefCell::new(Counting(0)));
        let h = BusTapHandle::attached(tap.clone());
        let h2 = h.clone();
        h.deliver(&event());
        h2.deliver(&event());
        assert_eq!(tap.borrow().0, 2);
    }
}
