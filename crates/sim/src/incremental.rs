//! The event-stream protocol interface.
//!
//! [`crate::Protocol::advance_window`] hands a protocol one whole window and
//! lets it rescan the graph at every boundary — `O(n + m)` work per window
//! even when nothing changed. [`IncrementalProtocol`] decomposes the same
//! process into the pieces the [`crate::EventSimulation`] engine schedules:
//!
//! * [`IncrementalProtocol::rebuild`] — full state construction (graph
//!   replaced wholesale);
//! * [`IncrementalProtocol::apply_delta`] — `O(|delta| · deg)` repair after
//!   a reported [`EdgeDelta`];
//! * [`IncrementalProtocol::event_rate`] — the total rate `λ` of the
//!   protocol's superposed Poisson event clock;
//! * [`IncrementalProtocol::resolve_event`] — resolve one clock tick,
//!   possibly informing a node;
//! * [`IncrementalProtocol::commit`] — `O(deg(v))` frontier update after
//!   `v` joined the informed set.
//!
//! Each migrated protocol keeps its window-based `advance_window`
//! implementation as the independently-tested reference; the equivalence
//! tests cross-validate the two engines' spread-time distributions.

use crate::async_naive::{resolve_tick, resolve_tick_faulty, Direction};
use crate::{
    AsyncPull, AsyncPush, AsyncPushPull, CutRateAsync, FaultState, LossyAsync, Protocol,
    SimWorkspace, TwoPush,
};
use gossip_dynamics::EdgeDelta;
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_stats::SimRng;

/// What one [`IncrementalProtocol::drive_window`] call did inside its unit
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStep {
    /// `Some(tau)` when the last uninformed node was informed at time
    /// `tau` inside this window; `None` when the window closed (or the
    /// event clock idled) with the spread still incomplete.
    pub completed_at: Option<f64>,
    /// Number of Poisson events resolved in this window (informative or
    /// not) — the unit of the events/sec throughput accounting.
    pub events: u64,
}

/// Engine-supplied context for one [`IncrementalProtocol::drive_window`]
/// call: the static-network promise, the active fault state (if any), and
/// the remaining event budget.
#[derive(Debug)]
pub struct WindowCtx<'a> {
    /// The engine's promise that the network is static for the entire run
    /// (no RNG-consuming topology callbacks between windows) — the
    /// license for optimizations whose state or pre-drawn randomness
    /// outlives one window, e.g. batched exponential-clock draws.
    pub static_window: bool,
    /// The per-trial fault state, already advanced to this window via
    /// [`FaultState::begin_window`]; `None` when no faults are active.
    /// When `Some`, the loop must veto events through the fault state
    /// (protocols advertise support via
    /// [`IncrementalProtocol::supports_faults`]).
    pub faults: Option<&'a mut FaultState>,
    /// How many more Poisson events this trial may resolve
    /// ([`crate::RunConfig::max_events`] watchdog); `u64::MAX` when
    /// unbounded. The loop must return — before drawing the next clock
    /// gap — once it has resolved this many events in the window.
    pub events_left: u64,
}

impl<'a> WindowCtx<'a> {
    /// A fault-free, unbounded context (the common case).
    pub fn unbounded(static_window: bool) -> Self {
        WindowCtx {
            static_window,
            faults: None,
            events_left: u64::MAX,
        }
    }
}

/// A protocol whose per-node state advances event by event instead of
/// window by window.
///
/// Implementations must keep the sampled process distribution identical to
/// their [`Protocol::advance_window`] reference: the engine draws the next
/// event after `Exp(event_rate)` and resolves it through
/// [`IncrementalProtocol::resolve_event`].
///
/// State-building hooks receive the engine's [`SimWorkspace`] so scratch
/// storage (Fenwick trees, uninformed pools, delta-repair buffers) can be
/// recycled across trials instead of re-allocated; implementations may
/// ignore it. Whatever they check out must be reset to the exact state a
/// newly allocated structure would have — the workspace is a memory optimization,
/// never an observable input (see the [`SimWorkspace`] invariants).
pub trait IncrementalProtocol: Protocol {
    /// Trial-boundary reset for the workspace-reuse path: like
    /// [`Protocol::begin`], but retained allocations are parked in the
    /// workspace for this trial's [`IncrementalProtocol::rebuild`] to
    /// check out again. The default ignores the workspace and delegates
    /// to `begin` (correct for stateless protocols).
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        let _ = ws;
        self.begin(n);
    }

    /// Rebuilds all internal event state for graph `g` and the informed
    /// set (called at the start of a run and whenever the network declines
    /// to report a delta).
    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace);

    /// Repairs internal state after a topology delta (the graph `g` is the
    /// *post-delta* graph). The default falls back to a full rebuild.
    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        let _ = delta;
        self.rebuild(g, informed, ws);
    }

    /// Hook at each unit-window boundary for state that is redrawn per
    /// window (e.g. [`LossyAsync`] downtime). Default: nothing.
    fn on_window(&mut self, g: &Topology, t: u64, informed: &NodeSet, rng: &mut SimRng) {
        let _ = (g, t, informed, rng);
    }

    /// Total rate `λ` of the protocol's event clock in its current state;
    /// `0` means no event can change anything under this graph (the engine
    /// idles to the next window).
    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64;

    /// Resolves one event of the superposed clock: returns the node that
    /// becomes informed, or `None` for a non-informative event (the clock
    /// tick of an uninformed node, a dropped message, …).
    ///
    /// The engine inserts the returned node into `informed` and then calls
    /// [`IncrementalProtocol::commit`]; `resolve_event` itself must not
    /// mutate the informed set.
    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId>;

    /// Whether this protocol honors an active [`crate::FaultModel`]
    /// (crashed nodes rate-zero, per-message drops) through
    /// [`IncrementalProtocol::resolve_event_faulty`]. Protocols that
    /// return `false` (the default) are rejected up front when a fault
    /// model is attached ([`crate::SimError::FaultsUnsupported`]) rather
    /// than silently ignoring it.
    fn supports_faults(&self) -> bool {
        false
    }

    /// [`IncrementalProtocol::resolve_event`] under an active fault
    /// state: the tick must additionally be voided when a down node is
    /// involved or the fault drop coin fires (exact thinning — see the
    /// `fault` module docs). Fault coins come from `faults`' dedicated
    /// RNG, never from `rng`, so the trial stream is untouched. The
    /// default ignores faults entirely and is only correct for protocols
    /// with `supports_faults() == false` (which never receive a fault
    /// state).
    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        let _ = faults;
        self.resolve_event(g, informed, rng)
    }

    /// `O(deg(v))` state update after `v` was inserted into `informed`.
    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet);

    /// Selects the scalar or the vectorized inner event loop.
    ///
    /// Invariants of the selector:
    ///
    /// * `set_vectorized(false)` pins the protocol to the scalar reference
    ///   loop ([`generic_drive_window`]'s exact per-event virtual-dispatch
    ///   sequence) — the A/B baseline, analogous to
    ///   `RunPlan::workspace(false)`.
    /// * `set_vectorized(true)` (the construction default) *allows* a
    ///   protocol to drive its window through a specialized monomorphic
    ///   loop. Protocols without one ignore the flag — the default is a
    ///   no-op — and always run the scalar loop.
    /// * Whatever the flag, the sampled process distribution is identical:
    ///   a vectorized loop may consume the per-trial RNG stream in a
    ///   different order (documented per protocol; KS-verified by
    ///   `tests/vectorized_equivalence.rs`), but each mode on its own is
    ///   fully deterministic per `(seed, trial)`.
    /// * The flag must be set before [`Protocol::begin`] /
    ///   [`IncrementalProtocol::begin_in`]; flipping it mid-trial is
    ///   unsupported.
    fn set_vectorized(&mut self, vectorized: bool) {
        let _ = vectorized;
    }

    /// Drives the whole event loop of window `[t, t + 1)` on the fixed
    /// graph `g`, informing nodes into `informed` until the window closes,
    /// the event clock idles, the event budget runs out, or the spread
    /// completes.
    ///
    /// `ctx` carries the engine's static-network promise, the active
    /// fault state, and the remaining event budget (see [`WindowCtx`]).
    /// The default delegates to [`generic_drive_window`], the scalar
    /// per-event reference loop.
    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        generic_drive_window(self, g, t, informed, rng, ctx)
    }
}

/// The scalar reference event loop for one unit window `[t, t + 1)`:
/// draw `Exp(event_rate)` gaps, resolve each event through the protocol's
/// virtual interface, insert and commit informed nodes.
///
/// This is the loop every protocol runs unless it overrides
/// [`IncrementalProtocol::drive_window`]; overriding protocols use it as
/// their scalar fallback so `set_vectorized(false)` is exactly the
/// historical per-event dispatch sequence, RNG draw for RNG draw.
pub(crate) fn generic_drive_window<P: IncrementalProtocol + ?Sized>(
    protocol: &mut P,
    g: &Topology,
    t: u64,
    informed: &mut NodeSet,
    rng: &mut SimRng,
    ctx: WindowCtx<'_>,
) -> WindowStep {
    let WindowCtx {
        mut faults,
        events_left,
        ..
    } = ctx;
    let mut tau = t as f64;
    let end = (t + 1) as f64;
    let mut events = 0u64;
    loop {
        if events == events_left {
            break; // event budget exhausted: stop before the next gap draw
        }
        let lambda = protocol.event_rate(g, informed);
        if lambda <= 0.0 {
            break; // idle until the next topology change
        }
        tau += -rng.uniform_open().ln() / lambda;
        if tau >= end {
            break;
        }
        events += 1;
        let resolved = match faults.as_deref_mut() {
            Some(f) => protocol.resolve_event_faulty(g, informed, rng, f),
            None => protocol.resolve_event(g, informed, rng),
        };
        if let Some(v) = resolved {
            debug_assert!(!informed.contains(v), "event informed a known node");
            informed.insert(v);
            if informed.is_full() {
                return WindowStep {
                    completed_at: Some(tau),
                    events,
                };
            }
            protocol.commit(g, v, informed);
        }
    }
    WindowStep {
        completed_at: None,
        events,
    }
}

impl<T: IncrementalProtocol + ?Sized> IncrementalProtocol for &mut T {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        (**self).begin_in(n, ws)
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild(g, informed, ws)
    }

    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        (**self).apply_delta(g, delta, informed, ws)
    }

    fn on_window(&mut self, g: &Topology, t: u64, informed: &NodeSet, rng: &mut SimRng) {
        (**self).on_window(g, t, informed, rng)
    }

    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64 {
        (**self).event_rate(g, informed)
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        (**self).resolve_event(g, informed, rng)
    }

    fn supports_faults(&self) -> bool {
        (**self).supports_faults()
    }

    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        (**self).resolve_event_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        (**self).commit(g, v, informed)
    }

    fn set_vectorized(&mut self, vectorized: bool) {
        (**self).set_vectorized(vectorized)
    }

    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        (**self).drive_window(g, t, informed, rng, ctx)
    }
}

impl<T: IncrementalProtocol + ?Sized> IncrementalProtocol for Box<T> {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        (**self).begin_in(n, ws)
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild(g, informed, ws)
    }

    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        (**self).apply_delta(g, delta, informed, ws)
    }

    fn on_window(&mut self, g: &Topology, t: u64, informed: &NodeSet, rng: &mut SimRng) {
        (**self).on_window(g, t, informed, rng)
    }

    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64 {
        (**self).event_rate(g, informed)
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        (**self).resolve_event(g, informed, rng)
    }

    fn supports_faults(&self) -> bool {
        (**self).supports_faults()
    }

    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        (**self).resolve_event_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        (**self).commit(g, v, informed)
    }

    fn set_vectorized(&mut self, vectorized: bool) {
        (**self).set_vectorized(vectorized)
    }

    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        (**self).drive_window(g, t, informed, rng, ctx)
    }
}

// ---------------------------------------------------------------------------
// CutRateAsync: the protocol the event stream was designed around. Only
// informative events are scheduled (λ = the paper's Equation (1) cut rate),
// so every resolve_event informs a node.
// ---------------------------------------------------------------------------

impl IncrementalProtocol for CutRateAsync {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        self.begin_reusing(n, ws);
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        self.rebuild_rates_in(g, informed, Some(ws));
    }

    /// Repairs only the nodes whose in-rate could have moved: uninformed
    /// endpoints of changed edges, and uninformed neighbors of informed
    /// endpoints (whose `1/d_u` contribution shifted with `u`'s degree).
    /// Closed-form states (implicit complete/star/bipartite backends)
    /// rebuild instead — that is O(n), no slower than walking a delta.
    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        if !self.is_fenwick() {
            self.rebuild(g, informed, ws);
            return;
        }
        let mut stale = ws.take_stale();
        for e in delta.touched_nodes() {
            if informed.contains(e) {
                g.for_each_neighbor(e, |w| {
                    if !informed.contains(w) {
                        stale.push(w);
                    }
                });
            } else {
                stale.push(e);
            }
        }
        stale.sort_unstable();
        stale.dedup();
        for &v in &stale {
            self.recompute_rate(g, v, informed);
        }
        ws.put_stale(stale);
    }

    fn event_rate(&self, _g: &Topology, _informed: &NodeSet) -> f64 {
        self.total_rate()
    }

    fn resolve_event(
        &mut self,
        _g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        let v = self.sample_next(rng);
        debug_assert!(
            v.is_none_or(|v| !informed.contains(v)),
            "cut-rate sampler returned an informed node"
        );
        v
    }

    fn supports_faults(&self) -> bool {
        true
    }

    /// Exact thinning of the cut-rate proposal: the sampler keeps drawing
    /// from the fault-free rates (trial RNG untouched) and the fault
    /// state vetoes the proposed node with the complementary probability
    /// of `(1 − drop) · r'_v / r_v` (see [`FaultState::accepts_cut_event`]).
    /// A vetoed proposal is a non-informative event: no commit, rates
    /// unchanged.
    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        let v = self.resolve_event(g, informed, rng)?;
        faults.accepts_cut_event(g, informed, v).then_some(v)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        self.absorb_informed(g, v, informed);
    }

    fn set_vectorized(&mut self, vectorized: bool) {
        self.select_vectorized(vectorized);
    }

    /// Static Fenwick-state windows run the vectorized frontier loop (see
    /// `async_cut.rs`); everything else — scalar mode, dynamic networks,
    /// closed-form pool states — falls back to the scalar reference loop.
    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        if self.use_fast_loop(ctx.static_window) {
            self.drive_window_fast(g, t, informed, rng, ctx.faults, ctx.events_left)
        } else {
            generic_drive_window(self, g, t, informed, rng, ctx)
        }
    }
}

// ---------------------------------------------------------------------------
// Naive tick-by-tick protocols: the event clock is every node's rate-1
// clock superposed (λ = n), resolution replays exactly the window-based
// loop body. No per-topology state at all.
// ---------------------------------------------------------------------------

macro_rules! impl_incremental_naive {
    ($ty:ty, $rate:expr, $resolve:expr, $resolve_faulty:expr) => {
        impl IncrementalProtocol for $ty {
            fn rebuild(&mut self, _g: &Topology, _informed: &NodeSet, _ws: &mut SimWorkspace) {}

            fn apply_delta(
                &mut self,
                _g: &Topology,
                _delta: &EdgeDelta,
                _informed: &NodeSet,
                _ws: &mut SimWorkspace,
            ) {
            }

            fn event_rate(&self, g: &Topology, _informed: &NodeSet) -> f64 {
                #[allow(clippy::redundant_closure_call)]
                ($rate)(g)
            }

            fn resolve_event(
                &mut self,
                g: &Topology,
                informed: &NodeSet,
                rng: &mut SimRng,
            ) -> Option<NodeId> {
                #[allow(clippy::redundant_closure_call)]
                ($resolve)(g, informed, rng)
            }

            fn supports_faults(&self) -> bool {
                true
            }

            fn resolve_event_faulty(
                &mut self,
                g: &Topology,
                informed: &NodeSet,
                rng: &mut SimRng,
                faults: &mut FaultState,
            ) -> Option<NodeId> {
                #[allow(clippy::redundant_closure_call)]
                ($resolve_faulty)(g, informed, rng, faults)
            }

            fn commit(&mut self, _g: &Topology, _v: NodeId, _informed: &NodeSet) {}
        }
    };
}

impl_incremental_naive!(
    AsyncPushPull,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::PushPull,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::PushPull, g, informed, rng, faults)
    }
);
impl_incremental_naive!(
    AsyncPush,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::Push,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::Push, g, informed, rng, faults)
    }
);
impl_incremental_naive!(
    AsyncPull,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::Pull,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::Pull, g, informed, rng, faults)
    }
);

// 2-push: rate-2 clocks, informed callers push to a uniform neighbor.
impl_incremental_naive!(
    TwoPush,
    |g: &Topology| 2.0 * g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| {
        let caller = rng.index(g.n()) as NodeId;
        if !informed.contains(caller) {
            return None;
        }
        let deg = g.degree(caller);
        if deg == 0 {
            return None;
        }
        let callee = g.neighbor(caller, rng.index(deg));
        (!informed.contains(callee)).then_some(callee)
    },
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        let caller = rng.index(g.n()) as NodeId;
        if !informed.contains(caller) || faults.is_down(caller) {
            return None;
        }
        let deg = g.degree(caller);
        if deg == 0 {
            return None;
        }
        let callee = g.neighbor(caller, rng.index(deg));
        if informed.contains(callee) || faults.is_down(callee) || faults.drops_message() {
            return None;
        }
        Some(callee)
    }
);

// ---------------------------------------------------------------------------
// LossyAsync: the naive clock plus fault injection; the per-window down set
// is redrawn in on_window, exactly as advance_window does at entry.
// ---------------------------------------------------------------------------

impl IncrementalProtocol for LossyAsync {
    /// Reuses the retained down-set bitset across trials (cleared in
    /// place; fresh only when the universe changed).
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        let _ = ws;
        self.reset_reusing(n);
    }

    fn rebuild(&mut self, _g: &Topology, _informed: &NodeSet, _ws: &mut SimWorkspace) {}

    fn apply_delta(
        &mut self,
        _g: &Topology,
        _delta: &EdgeDelta,
        _informed: &NodeSet,
        _ws: &mut SimWorkspace,
    ) {
    }

    fn on_window(&mut self, g: &Topology, t: u64, _informed: &NodeSet, rng: &mut SimRng) {
        self.ensure_down_window(g.n(), t, rng);
    }

    fn event_rate(&self, g: &Topology, _informed: &NodeSet) -> f64 {
        g.n() as f64
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        self.resolve_contact(g, informed, rng)
    }

    fn supports_faults(&self) -> bool {
        true
    }

    /// Composes the protocol's own loss/downtime with the external fault
    /// layer: a contact survives only if neither endpoint is down in
    /// *either* layer, the protocol loss coin passes (trial RNG, same
    /// draw order as the fault-free path), and the fault drop coin passes
    /// (fault RNG).
    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        self.resolve_contact_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, _g: &Topology, _v: NodeId, _informed: &NodeSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_safe() {
        let mut ws = SimWorkspace::new();
        let mut boxed: Box<dyn IncrementalProtocol> = Box::new(AsyncPushPull::new());
        let g = Topology::materialized(gossip_graph::Graph::from_edges(2, &[(0, 1)]).unwrap());
        let mut informed = NodeSet::new(2);
        informed.insert(0);
        boxed.begin_in(2, &mut ws);
        boxed.rebuild(&g, &informed, &mut ws);
        assert_eq!(boxed.event_rate(&g, &informed), 2.0);
        let mut rng = SimRng::seed_from_u64(1);
        // On a 2-path with one informed node, every contact is informative.
        assert_eq!(boxed.resolve_event(&g, &informed, &mut rng), Some(1));
    }

    #[test]
    fn cut_rate_delta_repair_matches_rebuild() {
        // Repairing after a delta must leave identical rates to a fresh
        // rebuild on the new graph.
        let old = gossip_graph::generators::cycle(10).unwrap();
        let new = {
            let mut edges: Vec<(u32, u32)> = old.edges().collect();
            edges.retain(|&e| e != (3, 4));
            edges.push((0, 5));
            edges.push((2, 7));
            gossip_graph::Graph::from_edges(10, &edges).unwrap()
        };
        let delta = EdgeDelta::between(&old, &new);
        let old = Topology::materialized(old);
        let new = Topology::materialized(new);
        let mut informed = NodeSet::new(10);
        for v in [0, 1, 2, 3] {
            informed.insert(v);
        }

        let mut ws = SimWorkspace::new();
        let mut repaired = CutRateAsync::new();
        repaired.begin(10);
        repaired.rebuild(&old, &informed, &mut ws);
        repaired.apply_delta(&new, &delta, &informed, &mut ws);

        let mut fresh = CutRateAsync::new();
        fresh.begin(10);
        fresh.rebuild(&new, &informed, &mut ws);

        for v in 0..10u32 {
            assert!(
                (repaired.rate_of(v) - fresh.rate_of(v)).abs() < 1e-12,
                "rate mismatch at node {v}: {} vs {}",
                repaired.rate_of(v),
                fresh.rate_of(v)
            );
        }
    }

    #[test]
    fn two_push_rate_doubles() {
        let g = Topology::materialized(gossip_graph::generators::cycle(5).unwrap());
        let informed = NodeSet::new(5);
        let p = TwoPush::new();
        assert_eq!(p.event_rate(&g, &informed), 10.0);
    }
}
