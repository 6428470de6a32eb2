//! Timestamped per-domain edge schedules for multi-clock simulation.
//!
//! [`SimEngine::step_clock`] edges one clock domain at a time; driving a multi-clock
//! design therefore needs a *schedule* deciding which domain edges next. [`EdgeQueue`]
//! is that scheduler: a queue of `(time, domain)` events, built either from periodic
//! clocks ([`EdgeQueue::periodic`] — e.g. a 3:1 ratio between two domains) or from an
//! arbitrary interleaving ([`EdgeQueue::from_events`], handy for fuzzing random CDC
//! timings).
//!
//! Ties are **simultaneous**: events at the same timestamp are grouped into one
//! multi-domain edge and fired through a single [`SimEngine::step_clocks`] call, so
//! every tied domain stages against the same pre-edge state — exactly what aligned
//! clock edges mean in hardware, and observably different from two back-to-back
//! `step_clock` calls whenever state crosses the tied domains (a cross-domain
//! register exchange swaps on the simultaneous edge but duplicates back-to-back).
//! Within a tie, duplicate domain names collapse; [`EdgeQueue::events`] still
//! reports the individual `(time, domain)` events in deterministic order (domains
//! as added for [`EdgeQueue::periodic`], as pushed for explicit queues).
//!
//! # Example
//!
//! ```
//! use rechisel_hcl::prelude::*;
//! use rechisel_sim::{EdgeQueue, EngineKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-domain design: `fast` counts on clk_f, `slow` counts on clk_s.
//! let mut m = ModuleBuilder::raw("TwoClocks");
//! let clk_f = m.input("clk_f", Type::Clock);
//! let clk_s = m.input("clk_s", Type::Clock);
//! let f = m.output("f", Type::uint(8));
//! let s = m.output("s", Type::uint(8));
//! m.with_clock(&clk_f, |m| {
//!     let c = m.reg("fast", Type::uint(8));
//!     m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
//!     m.connect(&f, &c);
//! });
//! m.with_clock(&clk_s, |m| {
//!     let c = m.reg("slow", Type::uint(8));
//!     m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
//!     m.connect(&s, &c);
//! });
//! let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit())?;
//! let mut sim = EngineKind::Compiled.simulator(&netlist)?;
//!
//! // clk_f every 2 time units, clk_s every 6: a 3:1 edge ratio.
//! let queue = EdgeQueue::periodic(&[("clk_f", 2), ("clk_s", 6)], 12);
//! queue.run(sim.as_mut())?;
//! assert_eq!(sim.peek("f")?, 6); // edges at t = 2, 4, 6, 8, 10, 12
//! assert_eq!(sim.peek("s")?, 2); // edges at t = 6, 12
//! # Ok(())
//! # }
//! ```

use crate::engine::SimEngine;
use crate::simulator::SimError;

/// One scheduled clock edge: the domain to step and the virtual time it fires at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Virtual timestamp (arbitrary units; only the ordering matters).
    pub time: u64,
    /// Clock-domain name, as reported by [`SimEngine::clock_domains`].
    pub domain: String,
}

/// An ordered queue of per-domain clock edges (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct EdgeQueue {
    /// Events sorted by time; same-time events keep their insertion order.
    events: Vec<Edge>,
}

impl EdgeQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a queue from periodic clocks: each `(domain, period)` fires at
    /// `period, 2*period, ...` up to and including `horizon`. Same-time events fire
    /// in the order the domains are listed. Zero periods are ignored (a zero-period
    /// clock would fire infinitely often).
    pub fn periodic(clocks: &[(&str, u64)], horizon: u64) -> Self {
        let mut queue = Self::new();
        for t in 1..=horizon {
            for (domain, period) in clocks {
                if *period > 0 && t % *period == 0 {
                    queue.push(t, domain);
                }
            }
        }
        queue
    }

    /// Builds a queue from explicit `(time, domain)` events. The events are sorted
    /// by time with a stable sort, so same-time events keep the given order.
    pub fn from_events(events: impl IntoIterator<Item = (u64, String)>) -> Self {
        let mut events: Vec<Edge> =
            events.into_iter().map(|(time, domain)| Edge { time, domain }).collect();
        events.sort_by_key(|e| e.time);
        Self { events }
    }

    /// Appends one edge, keeping the queue sorted (stable: ties go after existing
    /// events at the same time).
    pub fn push(&mut self, time: u64, domain: &str) {
        let at = self.events.partition_point(|e| e.time <= time);
        self.events.insert(at, Edge { time, domain: domain.to_string() });
    }

    /// The scheduled edges, in firing order.
    pub fn events(&self) -> &[Edge] {
        &self.events
    }

    /// Number of scheduled edges.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no edges are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drives `sim` through every scheduled edge in time order. Events sharing a
    /// timestamp fire as **one** simultaneous multi-domain edge
    /// ([`step_clocks`](SimEngine::step_clocks), one cycle); lone events fire as a
    /// plain [`step_clock`](SimEngine::step_clock).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when an event names a domain the design
    /// does not have; the simulator is left at the last successfully applied edge.
    pub fn run(&self, sim: &mut dyn SimEngine) -> Result<(), SimError> {
        let mut at = 0;
        while at < self.events.len() {
            let time = self.events[at].time;
            let end = at + self.events[at..].partition_point(|e| e.time == time);
            let mut domains: Vec<&str> = Vec::with_capacity(end - at);
            for edge in &self.events[at..end] {
                if !domains.contains(&edge.domain.as_str()) {
                    domains.push(&edge.domain);
                }
            }
            match domains[..] {
                [domain] => sim.step_clock(domain)?,
                _ => sim.step_clocks(&domains)?,
            }
            at = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    #[test]
    fn periodic_schedules_interleave_by_time() {
        let q = EdgeQueue::periodic(&[("a", 2), ("b", 3)], 6);
        let got: Vec<(u64, &str)> =
            q.events().iter().map(|e| (e.time, e.domain.as_str())).collect();
        assert_eq!(got, vec![(2, "a"), (3, "b"), (4, "a"), (6, "a"), (6, "b")]);
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
    }

    #[test]
    fn zero_periods_are_ignored() {
        let q = EdgeQueue::periodic(&[("a", 0), ("b", 2)], 4);
        assert_eq!(q.len(), 2);
        assert!(q.events().iter().all(|e| e.domain == "b"));
    }

    #[test]
    fn pushes_keep_stable_time_order() {
        let mut q = EdgeQueue::new();
        q.push(5, "x");
        q.push(1, "y");
        q.push(5, "z");
        let got: Vec<(u64, &str)> =
            q.events().iter().map(|e| (e.time, e.domain.as_str())).collect();
        assert_eq!(got, vec![(1, "y"), (5, "x"), (5, "z")]);
    }

    #[test]
    fn from_events_sorts_stably() {
        let q = EdgeQueue::from_events([(3, "a".to_string()), (1, "b".into()), (3, "c".into())]);
        let got: Vec<&str> = q.events().iter().map(|e| e.domain.as_str()).collect();
        assert_eq!(got, vec!["b", "a", "c"]);
    }

    #[test]
    fn run_drives_unequal_ratios() {
        // Two independent counters on two clocks; a 3:1 schedule must advance them
        // 3:1. Uses the interpreter through the trait object.
        let mut m = ModuleBuilder::raw("TwoClocks");
        let clk_f = m.input("clk_f", Type::Clock);
        let clk_s = m.input("clk_s", Type::Clock);
        let f = m.output("f", Type::uint(8));
        let s = m.output("s", Type::uint(8));
        m.with_clock(&clk_f, |m| {
            let c = m.reg("fast", Type::uint(8));
            m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
            m.connect(&f, &c);
        });
        m.with_clock(&clk_s, |m| {
            let c = m.reg("slow", Type::uint(8));
            m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
            m.connect(&s, &c);
        });
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        for kind in [crate::EngineKind::Interp, crate::EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            assert_eq!(sim.clock_domains(), vec!["clk_f".to_string(), "clk_s".to_string()]);
            let q = EdgeQueue::periodic(&[("clk_f", 1), ("clk_s", 3)], 9);
            q.run(sim.as_mut()).unwrap();
            assert_eq!(sim.peek("f").unwrap(), 9, "engine {kind}");
            assert_eq!(sim.peek("s").unwrap(), 3, "engine {kind}");
            // 12 scheduled events, but the ties at t = 3, 6, 9 merge into one
            // simultaneous edge each: 9 cycles.
            assert_eq!(sim.cycles(), 9);
        }
    }

    /// The semantic heart of the tie fix: registers exchanging values across two
    /// domains. On a simultaneous edge both stage the other's PRE-edge value and the
    /// pair swaps; fired back-to-back, the second domain would observe the first's
    /// post-edge value and the pair duplicates instead.
    #[test]
    fn tied_edges_fire_simultaneously_not_back_to_back() {
        let mut m = ModuleBuilder::raw("Exchange");
        let clk_a = m.input("clk_a", Type::Clock);
        let clk_b = m.input("clk_b", Type::Clock);
        let load = m.input("load", Type::bool());
        let ia = m.input("ia", Type::uint(8));
        let ib = m.input("ib", Type::uint(8));
        let oa = m.output("oa", Type::uint(8));
        let ob = m.output("ob", Type::uint(8));
        let mut regs = (None, None);
        m.with_clock(&clk_a, |m| regs.0 = Some(m.reg("a", Type::uint(8))));
        m.with_clock(&clk_b, |m| regs.1 = Some(m.reg("b", Type::uint(8))));
        let (a, b) = (regs.0.unwrap(), regs.1.unwrap());
        m.connect(&a, &load.mux(&ia, &b));
        m.connect(&b, &load.mux(&ib, &a));
        m.connect(&oa, &a);
        m.connect(&ob, &b);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        for kind in [crate::EngineKind::Interp, crate::EngineKind::Compiled] {
            let preload = |sim: &mut dyn SimEngine| {
                sim.poke("load", 1).unwrap();
                sim.poke("ia", 1).unwrap();
                sim.poke("ib", 2).unwrap();
                sim.step().unwrap();
                sim.poke("load", 0).unwrap();
                sim.eval().unwrap();
            };

            // Both clocks tie at every timestamp: each event is one simultaneous
            // edge, so the registers keep swapping 1 <-> 2.
            let mut sim = kind.simulator(&netlist).unwrap();
            preload(sim.as_mut());
            let q = EdgeQueue::periodic(&[("clk_a", 1), ("clk_b", 1)], 3);
            q.run(sim.as_mut()).unwrap();
            assert_eq!(sim.cycles(), 4, "engine {kind}");
            assert_eq!(sim.peek("oa").unwrap(), 2, "engine {kind}");
            assert_eq!(sim.peek("ob").unwrap(), 1, "engine {kind}");

            // The broken back-to-back interpretation visibly diverges: after
            // `a` edges alone, `b` captures a's POST-edge value and duplicates.
            let mut sim = kind.simulator(&netlist).unwrap();
            preload(sim.as_mut());
            sim.step_clock("clk_a").unwrap();
            sim.step_clock("clk_b").unwrap();
            assert_eq!(sim.peek("oa").unwrap(), 2, "engine {kind}");
            assert_eq!(sim.peek("ob").unwrap(), 2, "engine {kind}");
        }
    }

    #[test]
    fn unknown_domains_error() {
        let mut m = ModuleBuilder::new("R");
        let a = m.input("a", Type::uint(4));
        let o = m.output("o", Type::uint(4));
        let r = m.reg("r", Type::uint(4));
        m.connect(&r, &a);
        m.connect(&o, &r);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = crate::EngineKind::Compiled.simulator(&netlist).unwrap();
        let q = EdgeQueue::from_events([(1, "ghost".to_string())]);
        assert!(matches!(q.run(sim.as_mut()), Err(SimError::NoSuchClock(d)) if d == "ghost"));
    }
}
