//! Cycle-accurate netlist simulation.
//!
//! [`Simulator`] interprets a lowered [`Netlist`]: combinational definitions are
//! evaluated in topological order, registers update on [`Simulator::step`]. The
//! ReChisel workflow uses it as the "Simulator" external tool (step ❸ of Fig. 2): the
//! generated design (DUT) and the benchmark's reference design are simulated side by
//! side and their outputs compared.

use std::collections::BTreeMap;

use rechisel_firrtl::ir::Direction;
use rechisel_firrtl::lower::Netlist;

use crate::engine::InputPort;
use crate::eval::{eval_expr_with_mems, mask, EvalError, MemState};

/// Errors produced by simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A signal name passed to poke/peek does not exist or has the wrong direction.
    NoSuchPort(String),
    /// A poked literal does not fit the port: the value has bits above the port width.
    ValueTooWide {
        /// The input port being driven.
        port: String,
        /// The port's width in bits.
        width: u32,
        /// The rejected value.
        value: u128,
    },
    /// A memory name passed to poke_mem/peek_mem does not exist.
    NoSuchMem(String),
    /// A memory address outside `0..depth` was passed to poke_mem/peek_mem.
    MemAddrOutOfRange {
        /// The memory being accessed.
        mem: String,
        /// The memory's depth in words.
        depth: usize,
        /// The rejected address.
        addr: u128,
    },
    /// A poked memory word does not fit the word width (rejected rather than masked).
    MemValueTooWide {
        /// The memory being written.
        mem: String,
        /// The word width in bits.
        width: u32,
        /// The rejected value.
        value: u128,
    },
    /// A signal fed by a sequential (registered) memory read was peeked before the
    /// first edge of the read port's clock domain: the implicit read register has
    /// never captured a word.
    SyncReadBeforeClock {
        /// The peeked signal.
        signal: String,
    },
    /// A clock domain passed to `step_clock` does not exist in the design.
    NoSuchClock(String),
    /// Expression evaluation failed (lowering bug or corrupted netlist).
    Eval(EvalError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchPort(name) => write!(f, "no such port: {name}"),
            SimError::ValueTooWide { port, width, value } => {
                write!(f, "value {value} does not fit input port {port} ({width} bits)")
            }
            SimError::NoSuchMem(name) => write!(f, "no such memory: {name}"),
            SimError::MemAddrOutOfRange { mem, depth, addr } => {
                write!(f, "address {addr} is out of range for memory {mem} ({depth} words)")
            }
            SimError::MemValueTooWide { mem, width, value } => {
                write!(f, "value {value} does not fit a word of memory {mem} ({width} bits)")
            }
            SimError::SyncReadBeforeClock { signal } => {
                write!(
                    f,
                    "signal {signal} depends on a sequential memory read; step the clock at \
                     least once before peeking it"
                )
            }
            SimError::NoSuchClock(name) => write!(f, "no such clock domain: {name}"),
            SimError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// A cycle-accurate interpreter for a lowered netlist.
///
/// # Example
///
/// ```
/// use rechisel_hcl::prelude::*;
/// use rechisel_sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ModuleBuilder::new("AddOne");
/// let a = m.input("a", Type::uint(8));
/// let out = m.output("out", Type::uint(8));
/// m.connect(&out, &a.add(&Signal::lit_w(1, 8)).bits(7, 0));
/// let netlist = rechisel_firrtl::lower_circuit(&m.into_circuit())?;
///
/// let mut sim = Simulator::new(netlist);
/// sim.poke("a", 41)?;
/// sim.eval()?;
/// assert_eq!(sim.peek("out")?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    /// Current value of every signal (ports, combinational defs, registers).
    values: BTreeMap<String, u128>,
    /// Current contents of every memory.
    mems: BTreeMap<String, MemState>,
    /// For every signal depending on a sequential memory read, the implicit read
    /// registers it depends on; peeking is rejected while any of them is uncaptured.
    sync_sources: BTreeMap<String, std::collections::BTreeSet<String>>,
    /// Implicit read registers whose clock domain has never edged (they have never
    /// captured a word).
    uncaptured: std::collections::BTreeSet<String>,
    /// Clock domains in first-appearance order (cached from the netlist).
    domains: Vec<String>,
    cycles: u64,
}

impl Simulator {
    /// Creates a simulator with all inputs and registers at zero and every memory
    /// holding its declared initial image (zero where uninitialized).
    pub fn new(netlist: Netlist) -> Self {
        let mut values = BTreeMap::new();
        for port in &netlist.ports {
            values.insert(port.name.clone(), 0);
        }
        for reg in &netlist.regs {
            values.insert(reg.name.clone(), 0);
        }
        for def in &netlist.defs {
            values.insert(def.name.clone(), 0);
        }
        let mems = netlist
            .mems
            .iter()
            .map(|m| (m.name.clone(), MemState::with_init(m.info, m.depth, &m.init)))
            .collect();
        let sync_sources = netlist.sync_read_sources();
        let uncaptured = netlist.mems.iter().flat_map(|m| m.sync_reads.iter().cloned()).collect();
        let domains = netlist.clock_domains();
        Self { netlist, values, mems, sync_sources, uncaptured, domains, cycles: 0 }
    }

    /// The design's clock domains, in first-appearance order.
    pub fn clock_domains(&self) -> &[String] {
        &self.domains
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of clock cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if `name` is not an input port, and
    /// [`SimError::ValueTooWide`] if `value` is wider than the port (out-of-range
    /// literals are rejected rather than silently masked, so a testbench driving
    /// `256` into an 8-bit port is a caller bug, not a quiet truncation to 0).
    pub fn poke(&mut self, name: &str, value: u128) -> Result<(), SimError> {
        let port = self.input_port(name).ok_or_else(|| SimError::NoSuchPort(name.to_string()))?;
        if self.poke_input(port, value) {
            Ok(())
        } else {
            let width = self.netlist.ports[port.0].info.width;
            Err(SimError::ValueTooWide { port: name.to_string(), width, value })
        }
    }

    /// Resolves an input port by name, once, for [`poke_input`](Self::poke_input).
    pub fn input_port(&self, name: &str) -> Option<InputPort> {
        self.netlist
            .ports
            .iter()
            .position(|p| p.name == name && p.direction == Direction::Input)
            .map(InputPort)
    }

    /// Drives a resolved input port; a value wider than the port is not applied, and
    /// the call returns `false`.
    pub fn poke_input(&mut self, port: InputPort, value: u128) -> bool {
        let port = &self.netlist.ports[port.0];
        let fits = value == mask(value, port.info.width);
        if fits {
            // Every port has held a value since construction.
            *self.values.get_mut(&port.name).expect("ports have values") = value;
        }
        fits
    }

    /// Reads the current value of any signal (port, wire or register).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if the signal does not exist, and
    /// [`SimError::SyncReadBeforeClock`] when the signal depends on a sequential
    /// memory read whose clock domain has not edged yet (the implicit read register
    /// has never captured a word).
    pub fn peek(&self, name: &str) -> Result<u128, SimError> {
        if !self.uncaptured.is_empty() {
            if let Some(sources) = self.sync_sources.get(name) {
                if sources.iter().any(|s| self.uncaptured.contains(s)) {
                    return Err(SimError::SyncReadBeforeClock { signal: name.to_string() });
                }
            }
        }
        self.values.get(name).copied().ok_or_else(|| SimError::NoSuchPort(name.to_string()))
    }

    /// Reads the current contents of one memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories and
    /// [`SimError::MemAddrOutOfRange`] for addresses outside `0..depth`.
    pub fn peek_mem(&self, mem: &str, addr: u128) -> Result<u128, SimError> {
        let state = self.mems.get(mem).ok_or_else(|| SimError::NoSuchMem(mem.to_string()))?;
        if addr >= state.words.len() as u128 {
            return Err(SimError::MemAddrOutOfRange {
                mem: mem.to_string(),
                depth: state.words.len(),
                addr,
            });
        }
        Ok(state.words[addr as usize])
    }

    /// Overwrites one memory word, validating the address and value first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories,
    /// [`SimError::MemAddrOutOfRange`] for addresses outside `0..depth`, and
    /// [`SimError::MemValueTooWide`] when `value` has bits above the word width
    /// (out-of-range data is rejected rather than silently masked, mirroring
    /// [`Simulator::poke`]).
    pub fn poke_mem(&mut self, mem: &str, addr: u128, value: u128) -> Result<(), SimError> {
        let state = self.mems.get_mut(mem).ok_or_else(|| SimError::NoSuchMem(mem.to_string()))?;
        if addr >= state.words.len() as u128 {
            return Err(SimError::MemAddrOutOfRange {
                mem: mem.to_string(),
                depth: state.words.len(),
                addr,
            });
        }
        if value != mask(value, state.info.width) {
            return Err(SimError::MemValueTooWide {
                mem: mem.to_string(),
                width: state.info.width,
                value,
            });
        }
        state.words[addr as usize] = value;
        Ok(())
    }

    /// Re-evaluates all combinational logic with the current inputs and register state.
    pub fn eval(&mut self) -> Result<(), SimError> {
        // Definitions are already in topological order.
        for def in &self.netlist.defs {
            let value =
                eval_expr_with_mems(&def.expr, &self.values, &self.netlist.signals, &self.mems)?;
            self.values.insert(def.name.clone(), mask(value.bits, def.info.width));
        }
        Ok(())
    }

    /// Advances one clock cycle on **every** domain: evaluates combinational logic,
    /// computes every register's next value (applying synchronous reset) and every
    /// enabled memory write, commits them simultaneously, and re-evaluates.
    ///
    /// Memory writes observe nonblocking-assignment semantics: all next-states and
    /// write ports are staged against the pre-edge state before anything commits.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_filtered(None)
    }

    /// Edges one clock domain only: registers and memory write ports in other
    /// domains keep their pre-edge state (see `SimEngine::step_clock`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when `domain` is not a clock domain of the
    /// design; otherwise the same conditions as [`Simulator::step`].
    pub fn step_clock(&mut self, domain: &str) -> Result<(), SimError> {
        if !self.domains.iter().any(|d| d == domain) {
            return Err(SimError::NoSuchClock(domain.to_string()));
        }
        self.step_filtered(Some(&[domain]))
    }

    /// Edges several clock domains **simultaneously**: one edge event, one cycle,
    /// with every listed domain's registers and write ports staged against the same
    /// pre-edge state (see `SimEngine::step_clocks`). This is *not* equivalent to
    /// stepping the domains back to back — cross-domain register exchanges observe
    /// each other's pre-edge values only on a simultaneous edge.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchClock`] when `domains` is empty or names a domain
    /// that is not a clock domain of the design; otherwise the same conditions as
    /// [`Simulator::step`].
    pub fn step_clocks(&mut self, domains: &[&str]) -> Result<(), SimError> {
        if domains.is_empty() {
            return Err(SimError::NoSuchClock("(empty domain set)".to_string()));
        }
        for domain in domains {
            if !self.domains.iter().any(|d| d == domain) {
                return Err(SimError::NoSuchClock(domain.to_string()));
            }
        }
        self.step_filtered(Some(domains))
    }

    /// Shared stage-then-commit edge: with `domains == None` every register and write
    /// port commits (the lockstep all-domain edge `step` has always performed); with
    /// `Some(set)` only state clocked by a listed domain commits.
    fn step_filtered(&mut self, domains: Option<&[&str]>) -> Result<(), SimError> {
        self.eval()?;
        let mut next_values: Vec<(String, u128)> = Vec::with_capacity(self.netlist.regs.len());
        for reg in self
            .netlist
            .regs
            .iter()
            .filter(|r| domains.is_none_or(|ds| ds.iter().any(|d| *d == r.clock)))
        {
            let next =
                eval_expr_with_mems(&reg.next, &self.values, &self.netlist.signals, &self.mems)?;
            let value = match &reg.reset {
                Some((reset_expr, init_expr)) => {
                    let r = eval_expr_with_mems(
                        reset_expr,
                        &self.values,
                        &self.netlist.signals,
                        &self.mems,
                    )?;
                    if r.bits & 1 != 0 {
                        eval_expr_with_mems(
                            init_expr,
                            &self.values,
                            &self.netlist.signals,
                            &self.mems,
                        )?
                        .bits
                    } else {
                        next.bits
                    }
                }
                None => next.bits,
            };
            next_values.push((reg.name.clone(), mask(value, reg.info.width)));
        }
        // Stage memory writes against the same pre-edge state (simultaneous update):
        // (memory index, word index, fully merged word), ports in declaration order.
        // A lane-masked port merges its data into the PRE-EDGE word; the commit loop
        // then stores whole words in port order, so a same-cycle same-address
        // collision resolves to the textually last port — exactly the semantics of
        // the emitted Verilog, where every port is a nonblocking assignment (reading
        // pre-edge state) and the last scheduled assignment wins.
        let mut mem_commits: Vec<(usize, usize, u128)> = Vec::new();
        for (mem_index, mem) in self.netlist.mems.iter().enumerate() {
            let word_mask = mask(u128::MAX, mem.info.width);
            for port in mem
                .writes
                .iter()
                .filter(|w| domains.is_none_or(|ds| ds.iter().any(|d| *d == w.clock)))
            {
                let en = eval_expr_with_mems(
                    &port.enable,
                    &self.values,
                    &self.netlist.signals,
                    &self.mems,
                )?;
                if en.bits & 1 == 0 {
                    continue;
                }
                let addr = eval_expr_with_mems(
                    &port.addr,
                    &self.values,
                    &self.netlist.signals,
                    &self.mems,
                )?
                .as_u128();
                let value = eval_expr_with_mems(
                    &port.value,
                    &self.values,
                    &self.netlist.signals,
                    &self.mems,
                )?;
                if addr >= mem.depth as u128 {
                    continue;
                }
                let value = mask(value.bits, mem.info.width);
                let merged = match &port.mask {
                    None => value,
                    Some(m) => {
                        let lanes = eval_expr_with_mems(
                            m,
                            &self.values,
                            &self.netlist.signals,
                            &self.mems,
                        )?
                        .bits
                            & word_mask;
                        let old = self.mems[&mem.name].words[addr as usize];
                        (old & !lanes) | (value & lanes)
                    }
                };
                mem_commits.push((mem_index, addr as usize, merged));
            }
        }
        for (name, value) in next_values {
            self.values.insert(name, value);
        }
        for (mem_index, addr, word) in mem_commits {
            let name = &self.netlist.mems[mem_index].name;
            if let Some(state) = self.mems.get_mut(name) {
                state.words[addr] = word;
            }
        }
        // An implicit read register leaves the uncaptured set on the first edge of
        // its own clock domain — edges of other domains don't capture anything.
        if !self.uncaptured.is_empty() {
            self.uncaptured.retain(|name| {
                !self.netlist.regs.iter().any(|r| {
                    r.name == *name && domains.is_none_or(|ds| ds.iter().any(|d| *d == r.clock))
                })
            });
        }
        self.cycles += 1;
        self.eval()
    }

    /// Advances `n` clock cycles.
    pub fn step_n(&mut self, n: u32) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Asserts the `reset` input (when present) for `cycles` cycles, then deasserts it.
    ///
    /// Each pulse cycle is a full [`Simulator::step`], so reset edges **every** clock
    /// domain; memory init images are not restored (time-zero preload only).
    pub fn reset(&mut self, cycles: u32) -> Result<(), SimError> {
        let has_reset =
            self.netlist.ports.iter().any(|p| p.name == "reset" && p.direction == Direction::Input);
        if has_reset {
            self.poke("reset", 1)?;
            self.step_n(cycles)?;
            self.poke("reset", 0)?;
            self.eval()?;
        }
        Ok(())
    }

    /// Reads all output ports, in port order (raw values — no
    /// [`SimError::SyncReadBeforeClock`] guard; see `SimEngine::outputs`).
    pub fn outputs(&self) -> Vec<(String, u128)> {
        self.netlist
            .ports
            .iter()
            .filter(|p| p.direction == Direction::Output)
            .map(|p| (p.name.clone(), self.values.get(&p.name).copied().unwrap_or(0)))
            .collect()
    }
}

impl crate::engine::SimEngine for Simulator {
    fn poke(&mut self, name: &str, value: u128) -> Result<(), SimError> {
        Simulator::poke(self, name, value)
    }

    fn peek(&self, name: &str) -> Result<u128, SimError> {
        Simulator::peek(self, name)
    }

    fn eval(&mut self) -> Result<(), SimError> {
        Simulator::eval(self)
    }

    fn step(&mut self) -> Result<(), SimError> {
        Simulator::step(self)
    }

    fn step_clock(&mut self, domain: &str) -> Result<(), SimError> {
        Simulator::step_clock(self, domain)
    }

    fn step_clocks(&mut self, domains: &[&str]) -> Result<(), SimError> {
        Simulator::step_clocks(self, domains)
    }

    fn clock_domains(&self) -> Vec<String> {
        self.domains.clone()
    }

    fn cycles(&self) -> u64 {
        Simulator::cycles(self)
    }

    fn outputs(&self) -> Vec<(String, u128)> {
        Simulator::outputs(self)
    }

    fn input_port(&self, name: &str) -> Option<InputPort> {
        Simulator::input_port(self, name)
    }

    fn poke_input(&mut self, port: InputPort, value: u128) -> bool {
        Simulator::poke_input(self, port, value)
    }

    fn output_names(&self) -> Vec<&str> {
        self.netlist.outputs().map(|p| p.name.as_str()).collect()
    }

    fn read_outputs(&self, values: &mut Vec<u128>) {
        values
            .extend(self.netlist.outputs().map(|p| self.values.get(&p.name).copied().unwrap_or(0)));
    }

    fn has_reset(&self) -> bool {
        self.netlist.ports.iter().any(|p| p.name == "reset" && p.direction == Direction::Input)
    }

    fn peek_mem(&self, mem: &str, addr: u128) -> Result<u128, SimError> {
        Simulator::peek_mem(self, mem, addr)
    }

    fn poke_mem(&mut self, mem: &str, addr: u128, value: u128) -> Result<(), SimError> {
        Simulator::poke_mem(self, mem, addr, value)
    }

    fn mem_names(&self) -> Vec<String> {
        self.netlist.mems.iter().map(|m| m.name.clone()).collect()
    }

    fn mem_depth(&self, mem: &str) -> Option<usize> {
        self.netlist.mems.iter().find(|m| m.name == mem).map(|m| m.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_firrtl::lower_circuit;
    use rechisel_hcl::prelude::*;

    fn counter_netlist() -> Netlist {
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
    fn combinational_adder() {
        let mut m = ModuleBuilder::new("Adder");
        let a = m.input("a", Type::uint(8));
        let b = m.input("b", Type::uint(8));
        let out = m.output("out", Type::uint(9));
        m.connect(&out, &a.add(&b));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("a", 100).unwrap();
        sim.poke("b", 200).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("out").unwrap(), 300);
    }

    #[test]
    fn counter_counts_when_enabled() {
        let mut sim = Simulator::new(counter_netlist());
        sim.reset(2).unwrap();
        assert_eq!(sim.peek("out").unwrap(), 0);
        sim.poke("en", 1).unwrap();
        sim.step_n(5).unwrap();
        assert_eq!(sim.peek("out").unwrap(), 5);
        sim.poke("en", 0).unwrap();
        sim.step_n(3).unwrap();
        assert_eq!(sim.peek("out").unwrap(), 5);
        assert_eq!(sim.cycles(), 10);
    }

    #[test]
    fn reset_reinitialises_registers() {
        let mut sim = Simulator::new(counter_netlist());
        sim.reset(1).unwrap();
        sim.poke("en", 1).unwrap();
        sim.step_n(4).unwrap();
        assert_eq!(sim.peek("out").unwrap(), 4);
        sim.reset(1).unwrap();
        assert_eq!(sim.peek("out").unwrap(), 0);
    }

    #[test]
    fn poke_unknown_port_fails() {
        let mut sim = Simulator::new(counter_netlist());
        assert!(sim.poke("ghost", 1).is_err());
        // Outputs cannot be poked.
        assert!(sim.poke("out", 1).is_err());
        assert!(sim.peek("ghost").is_err());
    }

    #[test]
    fn poke_rejects_values_wider_than_the_port() {
        let mut sim = Simulator::new(counter_netlist());
        // In-range values (including the maximum) are accepted.
        sim.poke("en", 1).unwrap();
        assert_eq!(sim.peek("en").unwrap(), 1);
        sim.poke("en", 0).unwrap();
        // Out-of-range literals are an error, not a silent mask.
        let err = sim.poke("en", 0xFF).unwrap_err();
        match &err {
            SimError::ValueTooWide { port, width, value } => {
                assert_eq!(port, "en");
                assert_eq!(*width, 1);
                assert_eq!(*value, 0xFF);
            }
            other => panic!("expected ValueTooWide, got {other:?}"),
        }
        // The rejected poke must not have clobbered the port value.
        assert_eq!(sim.peek("en").unwrap(), 0);
    }

    #[test]
    fn sim_error_display_formats() {
        assert_eq!(SimError::NoSuchPort("x".into()).to_string(), "no such port: x");
        assert_eq!(
            SimError::ValueTooWide { port: "en".into(), width: 1, value: 255 }.to_string(),
            "value 255 does not fit input port en (1 bits)"
        );
        assert_eq!(
            SimError::Eval(EvalError::UnknownSignal("s".into())).to_string(),
            "evaluation error: unknown signal s"
        );
        assert_eq!(
            SimError::from(EvalError::UnsupportedExpression("w.f".into())).to_string(),
            "evaluation error: unsupported expression during simulation: w.f"
        );
        // SimError is a std error with no source chaining.
        let err: Box<dyn std::error::Error> = Box::new(SimError::NoSuchPort("x".into()));
        assert!(err.source().is_none());
    }

    #[test]
    fn outputs_lists_output_ports() {
        let sim = Simulator::new(counter_netlist());
        let outs = sim.outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "out");
    }

    #[test]
    fn register_without_reset_holds_value() {
        let mut m = ModuleBuilder::new("Hold");
        let d = m.input("d", Type::uint(4));
        let we = m.input("we", Type::bool());
        let q = m.output("q", Type::uint(4));
        let r = m.reg("r", Type::uint(4));
        m.when(&we, |m| m.connect(&r, &d));
        m.connect(&q, &r);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = Simulator::new(netlist);
        sim.poke("d", 9).unwrap();
        sim.poke("we", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek("q").unwrap(), 9);
        sim.poke("we", 0).unwrap();
        sim.poke("d", 3).unwrap();
        sim.step_n(4).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 9);
    }

    fn ram_netlist() -> Netlist {
        let mut m = ModuleBuilder::new("Ram");
        let we = m.input("we", Type::bool());
        let waddr = m.input("waddr", Type::uint(3));
        let wdata = m.input("wdata", Type::uint(8));
        let raddr = m.input("raddr", Type::uint(3));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 8);
        m.when(&we, |m| {
            m.mem_write(&mem, &waddr, &wdata);
        });
        m.connect(&rdata, &mem.read(&raddr));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn memory_write_then_read() {
        let mut sim = Simulator::new(ram_netlist());
        sim.poke("we", 1).unwrap();
        sim.poke("waddr", 3).unwrap();
        sim.poke("wdata", 0xAB).unwrap();
        sim.step().unwrap();
        sim.poke("we", 0).unwrap();
        sim.poke("raddr", 3).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0xAB);
        // Unwritten words read as zero.
        sim.poke("raddr", 4).unwrap();
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").unwrap(), 0);
        assert_eq!(sim.peek_mem("store", 3).unwrap(), 0xAB);
    }

    #[test]
    fn memory_read_under_write_returns_old_data() {
        let mut sim = Simulator::new(ram_netlist());
        sim.poke_mem("store", 5, 0x11).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("waddr", 5).unwrap();
        sim.poke("wdata", 0x22).unwrap();
        sim.poke("raddr", 5).unwrap();
        sim.eval().unwrap();
        // Before the edge the old word is visible.
        assert_eq!(sim.peek("rdata").unwrap(), 0x11);
        sim.step().unwrap();
        // After the edge the write has committed.
        assert_eq!(sim.peek("rdata").unwrap(), 0x22);
    }

    #[test]
    fn memory_write_disabled_leaves_contents() {
        let mut sim = Simulator::new(ram_netlist());
        sim.poke_mem("store", 2, 0x7F).unwrap();
        sim.poke("we", 0).unwrap();
        sim.poke("waddr", 2).unwrap();
        sim.poke("wdata", 0x01).unwrap();
        sim.step_n(3).unwrap();
        assert_eq!(sim.peek_mem("store", 2).unwrap(), 0x7F);
    }

    #[test]
    fn poke_mem_validates_address_and_value() {
        let mut sim = Simulator::new(ram_netlist());
        assert!(matches!(
            sim.poke_mem("ghost", 0, 0),
            Err(SimError::NoSuchMem(name)) if name == "ghost"
        ));
        assert!(matches!(
            sim.poke_mem("store", 8, 0),
            Err(SimError::MemAddrOutOfRange { depth: 8, addr: 8, .. })
        ));
        assert!(matches!(
            sim.poke_mem("store", 0, 0x100),
            Err(SimError::MemValueTooWide { width: 8, value: 0x100, .. })
        ));
        // The rejected pokes must not have touched the store.
        assert_eq!(sim.peek_mem("store", 0).unwrap(), 0);
        assert!(matches!(
            sim.peek_mem("store", 9),
            Err(SimError::MemAddrOutOfRange { depth: 8, addr: 9, .. })
        ));
    }

    #[test]
    fn mem_error_display_formats() {
        assert_eq!(SimError::NoSuchMem("m".into()).to_string(), "no such memory: m");
        assert_eq!(
            SimError::MemAddrOutOfRange { mem: "m".into(), depth: 8, addr: 9 }.to_string(),
            "address 9 is out of range for memory m (8 words)"
        );
        assert_eq!(
            SimError::MemValueTooWide { mem: "m".into(), width: 8, value: 256 }.to_string(),
            "value 256 does not fit a word of memory m (8 bits)"
        );
        assert_eq!(
            SimError::SyncReadBeforeClock { signal: "rdata".into() }.to_string(),
            "signal rdata depends on a sequential memory read; step the clock at least once \
             before peeking it"
        );
    }

    fn masked_ram_netlist() -> Netlist {
        let mut m = ModuleBuilder::new("MaskedRam");
        let addr = m.input("addr", Type::uint(2));
        let wdata = m.input("wdata", Type::uint(8));
        let wmask = m.input("wmask", Type::uint(8));
        let we = m.input("we", Type::bool());
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.when(&we, |m| m.mem_write_masked(&mem, &addr, &wdata, &wmask));
        m.connect(&rdata, &mem.read(&addr));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn masked_write_touches_only_the_set_lanes() {
        let mut sim = Simulator::new(masked_ram_netlist());
        sim.poke_mem("store", 2, 0b1010_0101).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("addr", 2).unwrap();
        sim.poke("wdata", 0xFF).unwrap();
        sim.poke("wmask", 0x0F).unwrap();
        sim.step().unwrap();
        // Low nibble takes the data, high nibble keeps the old word.
        assert_eq!(sim.peek_mem("store", 2).unwrap(), 0b1010_1111);
        // An all-zero mask is an enabled write that changes nothing.
        sim.poke("wmask", 0x00).unwrap();
        sim.poke("wdata", 0x00).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.peek_mem("store", 2).unwrap(), 0b1010_1111);
    }

    fn sync_ram_netlist() -> Netlist {
        let mut m = ModuleBuilder::new("SyncRam");
        let we = m.input("we", Type::bool());
        let addr = m.input("addr", Type::uint(2));
        let wdata = m.input("wdata", Type::uint(8));
        let rdata = m.output("rdata", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.when(&we, |m| m.mem_write(&mem, &addr, &wdata));
        m.connect(&rdata, &mem.read_sync(&addr));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    #[test]
    fn sync_read_lags_one_cycle_and_returns_old_data_under_write() {
        let mut sim = Simulator::new(sync_ram_netlist());
        // Peeking the registered read (or anything fed by it) before the first edge
        // is a typed error, not a silent zero.
        assert_eq!(
            sim.peek("rdata"),
            Err(SimError::SyncReadBeforeClock { signal: "rdata".into() })
        );
        sim.poke_mem("store", 1, 0x55).unwrap();
        sim.poke("addr", 1).unwrap();
        sim.poke("we", 1).unwrap();
        sim.poke("wdata", 0xAA).unwrap();
        sim.step().unwrap();
        // The edge captured the PRE-edge word (read-under-write = old data) even
        // though the write to the same address committed on the same edge.
        assert_eq!(sim.peek("rdata").unwrap(), 0x55);
        assert_eq!(sim.peek_mem("store", 1).unwrap(), 0xAA);
        sim.poke("we", 0).unwrap();
        sim.step().unwrap();
        // One cycle later the new word is visible through the registered port.
        assert_eq!(sim.peek("rdata").unwrap(), 0xAA);
    }

    #[test]
    fn initialized_memory_reads_back_image_and_survives_reset() {
        let mut m = ModuleBuilder::new("Rom");
        let addr = m.input("addr", Type::uint(2));
        let dout = m.output("dout", Type::uint(8));
        let mem = m.mem("rom", Type::uint(8), 4);
        m.mem_init(&mem, &[0x10, 0x20, 0x30]);
        m.connect(&dout, &mem.read(&addr));
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let mut sim = Simulator::new(netlist);
        for (addr, expected) in [(0u128, 0x10u128), (1, 0x20), (2, 0x30), (3, 0)] {
            sim.poke("addr", addr).unwrap();
            sim.eval().unwrap();
            assert_eq!(sim.peek("dout").unwrap(), expected, "addr {addr}");
        }
        // Reset does not restore the image: it is a time-zero preload only.
        sim.poke_mem("rom", 0, 0x77).unwrap();
        sim.reset(2).unwrap();
        assert_eq!(sim.peek_mem("rom", 0).unwrap(), 0x77);
    }

    #[test]
    fn mem_names_and_depth_via_engine_trait() {
        use crate::engine::SimEngine;
        let sim = Simulator::new(ram_netlist());
        assert_eq!(SimEngine::mem_names(&sim), vec!["store".to_string()]);
        assert_eq!(SimEngine::mem_depth(&sim, "store"), Some(8));
        assert_eq!(SimEngine::mem_depth(&sim, "ghost"), None);
    }
}
