//! The execution-engine seam: one trait, two implementations.
//!
//! [`SimEngine`] abstracts over *how* a lowered netlist is executed, so every consumer
//! of simulation — the testbench runner, the functional tester, the benchmark sweeps —
//! is engine-agnostic:
//!
//! * [`Simulator`] (selected by [`EngineKind::Interp`]) walks the
//!   expression trees of the netlist on every evaluation. Zero startup cost, ideal for
//!   one-shot evaluation and as the semantic reference.
//! * [`CompiledSimulator`] (selected by
//!   [`EngineKind::Compiled`]) levelizes the netlist once into a flat instruction
//!   [`Tape`](crate::Tape) — slot-indexed state, pre-resolved operand indices,
//!   pre-pooled constants, a register commit list — and then executes cycles with no
//!   hashing or allocation. Sweeps that simulate the same design for thousands of
//!   cycles amortize the one-time compile many times over.
//!
//! Both engines execute the *same* operator kernel ([`crate::eval::apply_prim`]) and
//! are pinned cycle-for-cycle identical by the differential fuzz suite in
//! `rechisel-benchsuite`.

use rechisel_firrtl::lower::Netlist;

use crate::compiled::CompiledSimulator;
use crate::simulator::{SimError, Simulator};

/// A cycle-accurate execution engine over a lowered netlist.
///
/// The trait mirrors the poke/peek/eval/step surface of [`Simulator`]; `step_n` and
/// `reset` are provided in terms of the required methods.
///
/// # Example
///
/// ```
/// use rechisel_hcl::prelude::*;
/// use rechisel_sim::{EngineKind, SimEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ModuleBuilder::new("AddOne");
/// let a = m.input("a", Type::uint(8));
/// let out = m.output("out", Type::uint(8));
/// m.connect(&out, &a.add(&Signal::lit_w(1, 8)).bits(7, 0));
/// let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit())?;
///
/// // The same driver code works against either engine.
/// for kind in [EngineKind::Interp, EngineKind::Compiled] {
///     let mut sim = kind.simulator(&netlist)?;
///     sim.poke("a", 41)?;
///     sim.eval()?;
///     assert_eq!(sim.peek("out")?, 42);
/// }
/// # Ok(())
/// # }
/// ```
pub trait SimEngine {
    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if `name` is not an input port and
    /// [`SimError::ValueTooWide`] if `value` does not fit in the port's width.
    fn poke(&mut self, name: &str, value: u128) -> Result<(), SimError>;

    /// Reads the current value of any signal (port, wire or register).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if the signal does not exist.
    fn peek(&self, name: &str) -> Result<u128, SimError>;

    /// Re-evaluates all combinational logic with the current inputs and register state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Eval`] when the netlist is structurally broken (dangling
    /// references, non-ground expressions).
    fn eval(&mut self) -> Result<(), SimError>;

    /// Advances one clock cycle on **every** domain: evaluate, compute register
    /// next-states (applying synchronous reset), commit them simultaneously,
    /// re-evaluate. For a single-clock design this is the only stepping primitive
    /// needed; for a multi-clock design it models all clocks edging at the same
    /// instant (the lockstep schedule, bit-identical to the pre-`step_clock`
    /// behaviour).
    ///
    /// # Errors
    ///
    /// Same conditions as [`eval`](Self::eval).
    fn step(&mut self) -> Result<(), SimError>;

    /// Edges **one** clock domain: evaluate, compute next-states, but commit only the
    /// registers and memory write ports clocked by `domain`, then re-evaluate. State
    /// in other domains is untouched — their registers keep pre-edge values, exactly
    /// like the unclocked `always` blocks in the emitted Verilog.
    ///
    /// Domain names are mangled clock nets, e.g. `"clock"` for the implicit clock of
    /// a `Module` or `"clk_b"` for a `with_clock` scope (see
    /// [`clock_domains`](Self::clock_domains)). Each call counts as one cycle in
    /// [`cycles`](Self::cycles).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when `domain` is not a clock domain of the
    /// design; otherwise the same conditions as [`eval`](Self::eval).
    fn step_clock(&mut self, domain: &str) -> Result<(), SimError>;

    /// Edges **several** clock domains simultaneously: one edge event, one cycle,
    /// with every listed domain's registers and memory write ports staged against the
    /// same pre-edge state and committed together. This is the coincident-edge
    /// primitive: two domains whose edges land on the same timestamp must be stepped
    /// through one `step_clocks(&[a, b])` call — stepping them back to back instead
    /// lets the second domain observe the first domain's *post*-edge values, which is
    /// observably different whenever state crosses domains (e.g. a cross-domain
    /// register exchange swaps on a simultaneous edge but duplicates on back-to-back
    /// edges).
    ///
    /// `step_clocks(&[d])` is equivalent to [`step_clock(d)`](Self::step_clock), and
    /// listing every domain is equivalent to [`step`](Self::step). Duplicate names
    /// are allowed and redundant. Each call counts as **one** cycle in
    /// [`cycles`](Self::cycles).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when `domains` is empty or names a domain
    /// that is not a clock domain of the design; otherwise the same conditions as
    /// [`eval`](Self::eval).
    fn step_clocks(&mut self, domains: &[&str]) -> Result<(), SimError>;

    /// The design's clock domains, in first-appearance order (register declaration
    /// order, then memory write ports). Empty for purely combinational designs.
    fn clock_domains(&self) -> Vec<String>;

    /// Number of clock cycles simulated so far.
    fn cycles(&self) -> u64;

    /// Reads all output ports, in port order.
    ///
    /// Unlike [`peek`](Self::peek), this reports **raw** signal values without the
    /// `SyncReadBeforeClock` guard: before the first clock edge an output fed by a
    /// sequential memory read reads as its zero-initialised register value. Use
    /// `peek` when the distinction matters.
    fn outputs(&self) -> Vec<(String, u128)>;

    /// True when the design has a `reset` input port.
    fn has_reset(&self) -> bool;

    /// Reads the current contents of one memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories (the default for designs
    /// without memories) and [`SimError::MemAddrOutOfRange`] for addresses outside
    /// `0..depth`.
    fn peek_mem(&self, mem: &str, _addr: u128) -> Result<u128, SimError> {
        Err(SimError::NoSuchMem(mem.to_string()))
    }

    /// Overwrites one memory word, validating the address and value first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories,
    /// [`SimError::MemAddrOutOfRange`] for addresses outside `0..depth`, and
    /// [`SimError::MemValueTooWide`] when the value has bits above the word width —
    /// out-of-range pokes are rejected on both engines, never silently masked.
    fn poke_mem(&mut self, mem: &str, _addr: u128, _value: u128) -> Result<(), SimError> {
        Err(SimError::NoSuchMem(mem.to_string()))
    }

    /// Names of the design's memories, in declaration order.
    fn mem_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Word depth of one memory, if it exists.
    fn mem_depth(&self, _mem: &str) -> Option<usize> {
        None
    }

    /// Advances `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    fn step_n(&mut self, n: u32) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Asserts the `reset` input (when present) for `cycles` cycles, then deasserts it.
    ///
    /// Each cycle is a full [`step`](Self::step), so the reset pulse edges **every**
    /// clock domain — registers with a synchronous reset take their init value in all
    /// domains, keeping reset semantics identical across engines under per-domain
    /// stepping. Memory init images are **not** restored: initialization applies at
    /// time zero only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    fn reset(&mut self, cycles: u32) -> Result<(), SimError> {
        if self.has_reset() {
            self.poke("reset", 1)?;
            self.step_n(cycles)?;
            self.poke("reset", 0)?;
            self.eval()?;
        }
        Ok(())
    }

    /// Asserts the `reset` input (when present) for `cycles` cycles, edging **only**
    /// `domain` — registers and write ports in other clock domains keep their state,
    /// so one side of a CDC design can be reset independently while the other keeps
    /// running. Registers in `domain` whose reset net is a `with_reset` override (see
    /// `ModuleBuilder::with_clock_and_reset`) only take their init value when their
    /// own reset net is asserted.
    ///
    /// [`reset`](Self::reset) remains the all-domain pulse.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when `domain` is not a clock domain of the
    /// design (even for designs without a reset port — the domain name is validated
    /// first); otherwise the same conditions as [`step_clock`](Self::step_clock).
    fn reset_domain(&mut self, domain: &str, cycles: u32) -> Result<(), SimError> {
        if !self.clock_domains().iter().any(|d| d == domain) {
            return Err(SimError::NoSuchClock(domain.to_string()));
        }
        if self.has_reset() {
            self.poke("reset", 1)?;
            for _ in 0..cycles {
                self.step_clock(domain)?;
            }
            self.poke("reset", 0)?;
            self.eval()?;
        }
        Ok(())
    }
}

/// Which [`SimEngine`] implementation to instantiate.
///
/// The default is [`EngineKind::Compiled`]: benchmark sweeps simulate each reference
/// design for many points × cycles, which is exactly the regime where the one-time
/// tape compilation pays for itself. Pick [`EngineKind::Interp`] for one-shot
/// evaluations or when debugging the compiled engine against the reference semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Tree-walking interpreter ([`Simulator`]).
    Interp,
    /// Levelized instruction-tape engine ([`CompiledSimulator`]).
    #[default]
    Compiled,
}

impl EngineKind {
    /// A short display name (`"interp"` / `"compiled"`), also the engine's name on
    /// the serving wire.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Compiled => "compiled",
        }
    }

    /// The engine whose [`name`](Self::name) is `name`, or `None` for any other
    /// string — the inverse of `name`, so the names live in one place.
    pub fn from_name(name: &str) -> Option<Self> {
        [EngineKind::Interp, EngineKind::Compiled].into_iter().find(|kind| kind.name() == name)
    }

    /// Instantiates the engine for a netlist.
    ///
    /// # Errors
    ///
    /// [`EngineKind::Compiled`] returns [`SimError::Eval`] when the netlist cannot be
    /// compiled to a tape (dangling references or non-ground expressions — conditions
    /// the interpreter would only report at evaluation time).
    pub fn simulator(self, netlist: &Netlist) -> Result<Box<dyn SimEngine>, SimError> {
        match self {
            EngineKind::Interp => Ok(Box::new(Simulator::new(netlist.clone()))),
            EngineKind::Compiled => Ok(Box::new(CompiledSimulator::new(netlist)?)),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    fn counter() -> Netlist {
        let mut m = ModuleBuilder::new("Counter");
        let en = m.input("en", Type::bool());
        let out = m.output("out", Type::uint(8));
        let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
        m.when(&en, |m| {
            let next = count.add(&Signal::lit_w(1, 8)).bits(7, 0);
            m.connect(&count, &next);
        });
        m.connect(&out, &count);
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn both_kinds_drive_the_same_trait_object_protocol() {
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&counter()).unwrap();
            assert!(sim.has_reset());
            sim.reset(2).unwrap();
            sim.poke("en", 1).unwrap();
            sim.step_n(5).unwrap();
            assert_eq!(sim.peek("out").unwrap(), 5, "engine {kind}");
            assert_eq!(sim.cycles(), 7);
            assert_eq!(sim.outputs(), vec![("out".to_string(), 5)]);
        }
    }

    #[test]
    fn reset_domain_pulses_only_that_domain() {
        // Two free-running counters on independent clocks, one shared reset net.
        let mut m = ModuleBuilder::raw("PerDomainReset");
        let clk_a = m.input("clk_a", Type::Clock);
        let clk_b = m.input("clk_b", Type::Clock);
        let _reset = m.input("reset", Type::bool());
        let oa = m.output("oa", Type::uint(8));
        let ob = m.output("ob", Type::uint(8));
        m.with_clock(&clk_a, |m| {
            let c = m.reg_init("a", Type::uint(8), &Signal::lit_w(0, 8));
            m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
            m.connect(&oa, &c);
        });
        m.with_clock(&clk_b, |m| {
            let c = m.reg_init("b", Type::uint(8), &Signal::lit_w(0, 8));
            m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
            m.connect(&ob, &c);
        });
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            sim.step_n(3).unwrap();
            assert_eq!(sim.peek("oa").unwrap(), 3, "engine {kind}");
            assert_eq!(sim.peek("ob").unwrap(), 3, "engine {kind}");
            // Resetting only clk_a's side: `a` takes its init value while `b` keeps
            // both its value and its standstill (its domain never edges).
            sim.reset_domain("clk_a", 2).unwrap();
            assert_eq!(sim.peek("oa").unwrap(), 0, "engine {kind}");
            assert_eq!(sim.peek("ob").unwrap(), 3, "engine {kind}");
            assert_eq!(sim.cycles(), 5, "engine {kind}");
            // The all-domain pulse still resets everything.
            sim.reset(1).unwrap();
            assert_eq!(sim.peek("oa").unwrap(), 0, "engine {kind}");
            assert_eq!(sim.peek("ob").unwrap(), 0, "engine {kind}");
            // Unknown domains are rejected up front.
            assert!(matches!(
                sim.reset_domain("ghost", 1),
                Err(SimError::NoSuchClock(d)) if d == "ghost"
            ));
        }
    }

    #[test]
    fn step_clocks_validates_and_merges_domains() {
        let netlist = {
            let mut m = ModuleBuilder::raw("Two");
            let clk_a = m.input("clk_a", Type::Clock);
            let clk_b = m.input("clk_b", Type::Clock);
            let o = m.output("o", Type::uint(8));
            let mut tmp = None;
            m.with_clock(&clk_a, |m| {
                let c = m.reg("a", Type::uint(8));
                m.connect(&c, &c.add(&Signal::lit_w(1, 8)).bits(7, 0));
                tmp = Some(c);
            });
            let a = tmp.unwrap();
            m.with_clock(&clk_b, |m| {
                let c = m.reg("b", Type::uint(8));
                m.connect(&c, &a);
                m.connect(&o, &c);
            });
            lower_circuit(&m.into_circuit()).unwrap()
        };
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            // One simultaneous edge: `b` captures a's PRE-edge value (0), `a` -> 1.
            sim.step_clocks(&["clk_a", "clk_b"]).unwrap();
            assert_eq!(sim.peek("a").unwrap(), 1, "engine {kind}");
            assert_eq!(sim.peek("o").unwrap(), 0, "engine {kind}");
            assert_eq!(sim.cycles(), 1, "engine {kind}");
            // Duplicates collapse; a singleton set equals step_clock.
            sim.step_clocks(&["clk_a", "clk_a"]).unwrap();
            assert_eq!(sim.peek("a").unwrap(), 2, "engine {kind}");
            assert_eq!(sim.peek("o").unwrap(), 0, "engine {kind}");
            // Empty and unknown sets error without stepping.
            assert!(matches!(sim.step_clocks(&[]), Err(SimError::NoSuchClock(_))));
            assert!(matches!(
                sim.step_clocks(&["clk_a", "ghost"]),
                Err(SimError::NoSuchClock(d)) if d == "ghost"
            ));
            assert_eq!(sim.cycles(), 2, "engine {kind}");
        }
    }

    #[test]
    fn kind_names_and_default() {
        assert_eq!(EngineKind::default(), EngineKind::Compiled);
        assert_eq!(EngineKind::Interp.name(), "interp");
        assert_eq!(EngineKind::Compiled.to_string(), "compiled");
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        for unknown in ["batched", "native", "Compiled", ""] {
            assert_eq!(EngineKind::from_name(unknown), None, "{unknown:?}");
        }
    }
}
