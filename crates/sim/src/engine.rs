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
//! The trait is the one surface of both engines, in two parts:
//!
//! * **Kernels**, the required methods, are what an engine does its own way: resolve
//!   and drive an input port, read a signal, evaluate, edge a set of clock domains
//!   ([`edge`](SimEngine::edge)), and expose its clock domains, cycle count, outputs
//!   and memory words.
//! * **Rules**, the provided methods, are what both engines must agree on, written
//!   once on top of the kernels: the poke check and its [`SimError::ValueTooWide`],
//!   the [`SimError::NoSuchClock`] domain check of every stepping method, the reset
//!   pulse, `step_n`, `outputs`, and the memory-word checks of `peek_mem` and
//!   `poke_mem`.
//!
//! The sequential-read rule is shared the same way: one guard, built from the netlist,
//! answers both engines' [`SimError::SyncReadBeforeClock`] peek check and their
//! per-domain capture on an edge.
//!
//! Both engines execute the *same* operator kernel ([`crate::eval::apply_prim`]) and
//! are pinned cycle-for-cycle identical by the differential fuzz suite in
//! `rechisel-benchsuite`.

use std::collections::BTreeMap;

use rechisel_firrtl::lower::Netlist;

use crate::compiled::CompiledSimulator;
use crate::eval::mask;
use crate::simulator::{SimError, Simulator};

/// A cycle-accurate execution engine over a lowered netlist.
///
/// An engine supplies the kernels (the required methods); the rules every engine must
/// agree on (the provided methods) are written once here and are not overridden.
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
    // --- kernels ---------------------------------------------------------------------

    /// Resolves the input port `name` once, for repeated
    /// [`poke_input`](Self::poke_input)s that look up no name. `None` when the design
    /// has no input of that name.
    fn input_port(&self, name: &str) -> Option<InputPort>;

    /// Drives an input port resolved by [`input_port`](Self::input_port). A value
    /// wider than the port is not applied: the port keeps its previous value and the
    /// call returns `false`.
    fn poke_input(&mut self, port: InputPort, value: u128) -> bool;

    /// Reads the current value of any signal (port, wire or register).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if the signal does not exist, and
    /// [`SimError::SyncReadBeforeClock`] when the signal depends on a sequential
    /// memory read whose own clock domain has not edged yet (the implicit read
    /// register has never captured a word).
    fn peek(&self, name: &str) -> Result<u128, SimError>;

    /// Re-evaluates all combinational logic with the current inputs and register state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Eval`] when the netlist is structurally broken (dangling
    /// references, non-ground expressions).
    fn eval(&mut self) -> Result<(), SimError>;

    /// The one edge primitive: evaluate, stage every register next-state and memory
    /// write against the pre-edge state, commit only the state clocked by an edged
    /// domain, re-evaluate. `None` edges every domain; `Some(indices)` edges the
    /// domains at those indices into [`clock_domains`](Self::clock_domains), all in
    /// one simultaneous edge. Either way the call counts as one cycle in
    /// [`cycles`](Self::cycles).
    ///
    /// Prefer the named stepping rules ([`step`](Self::step),
    /// [`step_clock`](Self::step_clock), [`step_clocks`](Self::step_clocks)), which
    /// validate domain names; an index past the domain list edges nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`eval`](Self::eval).
    fn edge(&mut self, domains: Option<&[usize]>) -> Result<(), SimError>;

    /// The design's clock domains, in first-appearance order (register declaration
    /// order, then memory write ports). Empty for purely combinational designs.
    fn clock_domains(&self) -> &[String];

    /// Number of clock cycles simulated so far.
    fn cycles(&self) -> u64;

    /// The output port names, in port order: the names of [`outputs`](Self::outputs).
    fn output_names(&self) -> Vec<&str>;

    /// Appends every output port's raw value, in port order, to `values`: the values
    /// of [`outputs`](Self::outputs), with no names and no allocation once `values`
    /// has room.
    fn read_outputs(&self, values: &mut Vec<u128>);

    /// The words of memory `mem`, one per address, and its word width in bits; `None`
    /// when the design has no memory of that name.
    fn mem(&self, mem: &str) -> Option<(&[u128], u32)>;

    /// Like [`mem`](Self::mem), with the words writable. Writes bypass every check:
    /// [`poke_mem`](Self::poke_mem) is the checked way in.
    fn mem_mut(&mut self, mem: &str) -> Option<(&mut [u128], u32)>;

    // --- rules -----------------------------------------------------------------------

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] if `name` is not an input port, and
    /// [`SimError::ValueTooWide`] if `value` is wider than the port (out-of-range
    /// literals are rejected rather than silently masked, so a testbench driving
    /// `256` into an 8-bit port is a caller bug, not a quiet truncation to 0).
    fn poke(&mut self, name: &str, value: u128) -> Result<(), SimError> {
        let port = self.input_port(name).ok_or_else(|| SimError::NoSuchPort(name.to_string()))?;
        if self.poke_input(port, value) {
            Ok(())
        } else {
            Err(SimError::ValueTooWide { port: name.to_string(), width: port.width, value })
        }
    }

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
    fn step(&mut self) -> Result<(), SimError> {
        self.edge(None)
    }

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
    fn step_clock(&mut self, domain: &str) -> Result<(), SimError> {
        let index = domain_index(self.clock_domains(), domain)?;
        self.edge(Some(&[index]))
    }

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
    fn step_clocks(&mut self, domains: &[&str]) -> Result<(), SimError> {
        if domains.is_empty() {
            return Err(SimError::NoSuchClock("(empty domain set)".to_string()));
        }
        let indices = domains
            .iter()
            .map(|domain| domain_index(self.clock_domains(), domain))
            .collect::<Result<Vec<_>, _>>()?;
        self.edge(Some(&indices))
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
        pulse_reset(self, cycles, None)
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
        let index = domain_index(self.clock_domains(), domain)?;
        pulse_reset(self, cycles, Some(&[index]))
    }

    /// Reads all output ports, in port order.
    ///
    /// Unlike [`peek`](Self::peek), this reports **raw** signal values without the
    /// `SyncReadBeforeClock` guard: before the first clock edge an output fed by a
    /// sequential memory read reads as its zero-initialised register value. Use
    /// `peek` when the distinction matters.
    fn outputs(&self) -> Vec<(String, u128)> {
        let mut values = Vec::new();
        self.read_outputs(&mut values);
        self.output_names().into_iter().map(str::to_owned).zip(values).collect()
    }

    /// True when the design has a `reset` input port.
    fn has_reset(&self) -> bool {
        self.input_port("reset").is_some()
    }

    /// Reads the current contents of one memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories and
    /// [`SimError::MemAddrOutOfRange`] for addresses outside `0..depth`.
    fn peek_mem(&self, mem: &str, addr: u128) -> Result<u128, SimError> {
        let (words, _) = self.mem(mem).ok_or_else(|| SimError::NoSuchMem(mem.to_string()))?;
        Ok(words[word_index(mem, words.len(), addr)?])
    }

    /// Overwrites one memory word, validating the address and value first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchMem`] for unknown memories,
    /// [`SimError::MemAddrOutOfRange`] for addresses outside `0..depth`, and
    /// [`SimError::MemValueTooWide`] when the value has bits above the word width —
    /// out-of-range data is rejected, never silently masked, mirroring
    /// [`poke`](Self::poke).
    fn poke_mem(&mut self, mem: &str, addr: u128, value: u128) -> Result<(), SimError> {
        let (words, width) =
            self.mem_mut(mem).ok_or_else(|| SimError::NoSuchMem(mem.to_string()))?;
        let word = word_index(mem, words.len(), addr)?;
        if value != mask(value, width) {
            return Err(SimError::MemValueTooWide { mem: mem.to_string(), width, value });
        }
        words[word] = value;
        Ok(())
    }
}

/// The index of `domain` in an engine's [`clock_domains`](SimEngine::clock_domains).
fn domain_index(domains: &[String], domain: &str) -> Result<usize, SimError> {
    domains
        .iter()
        .position(|d| d == domain)
        .ok_or_else(|| SimError::NoSuchClock(domain.to_string()))
}

/// The reset pulse behind [`SimEngine::reset`] (`edged == None`) and
/// [`SimEngine::reset_domain`].
fn pulse_reset<E: SimEngine + ?Sized>(
    sim: &mut E,
    cycles: u32,
    edged: Option<&[usize]>,
) -> Result<(), SimError> {
    if sim.has_reset() {
        sim.poke("reset", 1)?;
        for _ in 0..cycles {
            sim.edge(edged)?;
        }
        sim.poke("reset", 0)?;
        sim.eval()?;
    }
    Ok(())
}

/// `addr` as a word index of a memory `depth` words deep.
fn word_index(mem: &str, depth: usize, addr: u128) -> Result<usize, SimError> {
    if addr < depth as u128 {
        Ok(addr as usize)
    } else {
        Err(SimError::MemAddrOutOfRange { mem: mem.to_string(), depth, addr })
    }
}

/// An input port of one engine instance, resolved by [`SimEngine::input_port`].
///
/// A handle is only meaningful to the engine that resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputPort {
    /// The port's position in the engine's own input list.
    pub(crate) index: usize,
    /// The port's width in bits.
    pub(crate) width: u32,
}

impl InputPort {
    /// The poke check both engines apply: true when `value` has no bits above the
    /// port's width.
    pub(crate) fn fits(self, value: u128) -> bool {
        value == mask(value, self.width)
    }
}

/// The sequential-read rule both engines share.
///
/// Lowering hoists every sequential memory read into an implicit read register. A
/// signal fed by such a register (the register itself, or a definition reading it)
/// cannot be peeked until the register has captured a word, which it does on the
/// first edge of **its own** clock domain. The guard holds what the netlist fixes;
/// each engine instance keeps its own list of uncaptured registers, starting from
/// [`uncaptured`](Self::uncaptured), and hands it to [`check`](Self::check) on a peek
/// and to [`capture`](Self::capture) on an edge.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncReadGuard {
    /// For every signal fed by an implicit read register, the registers it
    /// (transitively) depends on, as indices into `domains`.
    sources: BTreeMap<String, Vec<usize>>,
    /// The clock-domain index of each implicit read register (`None` for a register
    /// the netlist does not list, which never captures).
    domains: Vec<Option<usize>>,
}

impl SyncReadGuard {
    /// The guard of `netlist`, whose clock domains are `clock_domains`.
    pub(crate) fn new(netlist: &Netlist, clock_domains: &[String]) -> Self {
        let regs: Vec<&String> = netlist.mems.iter().flat_map(|m| m.sync_reads.iter()).collect();
        if regs.is_empty() {
            return Self::default();
        }
        let domains = regs
            .iter()
            .map(|name| {
                let reg = netlist.regs.iter().find(|r| r.name == **name)?;
                clock_domains.iter().position(|d| *d == reg.clock)
            })
            .collect();
        let mut sources: BTreeMap<String, Vec<usize>> =
            regs.iter().enumerate().map(|(i, name)| ((*name).clone(), vec![i])).collect();
        // `defs` is topologically ordered, so one forward pass closes the map.
        for def in &netlist.defs {
            let mut acc: Vec<usize> = Vec::new();
            for name in def.expr.referenced_names() {
                if let Some(up) = sources.get(&name) {
                    acc.extend(up);
                }
            }
            if !acc.is_empty() {
                acc.sort_unstable();
                acc.dedup();
                sources.insert(def.name.clone(), acc);
            }
        }
        Self { sources, domains }
    }

    /// The uncaptured registers of a fresh engine: every one.
    pub(crate) fn uncaptured(&self) -> Vec<usize> {
        (0..self.domains.len()).collect()
    }

    /// Rejects a peek of `signal` while it depends on a register in `uncaptured`.
    pub(crate) fn check(&self, uncaptured: &[usize], signal: &str) -> Result<(), SimError> {
        if !uncaptured.is_empty() {
            if let Some(sources) = self.sources.get(signal) {
                if sources.iter().any(|s| uncaptured.contains(s)) {
                    return Err(SimError::SyncReadBeforeClock { signal: signal.to_string() });
                }
            }
        }
        Ok(())
    }

    /// Drops from `uncaptured` every register whose clock domain an edge of `edged`
    /// (see [`SimEngine::edge`]) ticked.
    pub(crate) fn capture(&self, uncaptured: &mut Vec<usize>, edged: Option<&[usize]>) {
        if !uncaptured.is_empty() {
            uncaptured.retain(|&reg| {
                !self.domains[reg].is_some_and(|d| edged.is_none_or(|ds| ds.contains(&d)))
            });
        }
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

    /// A counter next to an 8-word RAM with a combinational read port, on the implicit
    /// clock and reset.
    fn counter_and_ram() -> Netlist {
        let mut m = ModuleBuilder::new("CounterRam");
        let en = m.input("en", Type::bool());
        let we = m.input("we", Type::bool());
        let waddr = m.input("waddr", Type::uint(3));
        let wdata = m.input("wdata", Type::uint(8));
        let raddr = m.input("raddr", Type::uint(3));
        let out = m.output("out", Type::uint(8));
        let rdata = m.output("rdata", Type::uint(8));
        let count = m.reg_init("count", Type::uint(8), &Signal::lit_w(0, 8));
        m.when(&en, |m| m.connect(&count, &count.add(&Signal::lit_w(1, 8)).bits(7, 0)));
        m.connect(&out, &count);
        let mem = m.mem("store", Type::uint(8), 8);
        m.when(&we, |m| m.mem_write(&mem, &waddr, &wdata));
        m.connect(&rdata, &mem.read(&raddr));
        lower_circuit(&m.into_circuit()).unwrap()
    }

    /// Every provided rule, with its exact result, on both engines. The rows run in
    /// order on one engine, so a row sees what the rows above it did.
    #[test]
    fn the_shared_rules_give_the_same_exact_results_on_both_engines() {
        type Row = (&'static str, fn(&mut dyn SimEngine) -> Result<u128, SimError>);
        let no_port = |name: &str| Err(SimError::NoSuchPort(name.into()));
        let no_clock = |name: &str| Err(SimError::NoSuchClock(name.into()));
        let table: &[(Row, Result<u128, SimError>)] = &[
            (("poke an unknown port", |s| s.poke("ghost", 1).map(|()| 0)), no_port("ghost")),
            (("poke an output", |s| s.poke("out", 1).map(|()| 0)), no_port("out")),
            (("peek an unknown signal", |s| s.peek("ghost")), no_port("ghost")),
            (("poke the widest value", |s| s.poke("en", 1).and_then(|()| s.peek("en"))), Ok(1)),
            (
                ("poke a too-wide value", |s| s.poke("en", 0xFF).map(|()| 0)),
                Err(SimError::ValueTooWide { port: "en".into(), width: 1, value: 0xFF }),
            ),
            (("a rejected poke keeps the port", |s| s.peek("en")), Ok(1)),
            (
                ("poke a too-wide word", |s| s.poke("wdata", 0x100).map(|()| 0)),
                Err(SimError::ValueTooWide { port: "wdata".into(), width: 8, value: 0x100 }),
            ),
            (
                ("step_clock an unknown domain", |s| s.step_clock("ghost").map(|()| 0)),
                no_clock("ghost"),
            ),
            (
                ("step_clocks no domain", |s| s.step_clocks(&[]).map(|()| 0)),
                no_clock("(empty domain set)"),
            ),
            (
                ("step_clocks an unknown domain", |s| {
                    s.step_clocks(&["clock", "ghost"]).map(|()| 0)
                }),
                no_clock("ghost"),
            ),
            (
                ("reset_domain an unknown domain", |s| s.reset_domain("ghost", 1).map(|()| 0)),
                no_clock("ghost"),
            ),
            (("a rejected step counts no cycle", |s| Ok(s.cycles().into())), Ok(0)),
            (("step", |s| s.step().map(|()| s.cycles().into())), Ok(1)),
            (("step_clock", |s| s.step_clock("clock").map(|()| s.cycles().into())), Ok(2)),
            (
                ("step_clocks", |s| s.step_clocks(&["clock", "clock"]).map(|()| s.cycles().into())),
                Ok(3),
            ),
            (("step_n", |s| s.step_n(2).map(|()| s.cycles().into())), Ok(5)),
            (("the counter counted", |s| s.peek("out")), Ok(5)),
            (("reset", |s| s.reset(2).map(|()| s.cycles().into())), Ok(7)),
            (("reset clears the counter", |s| s.peek("out")), Ok(0)),
            (("reset_domain", |s| s.reset_domain("clock", 1).map(|()| s.cycles().into())), Ok(8)),
            (("has_reset", |s| Ok(s.has_reset().into())), Ok(1)),
            (
                ("poke_mem an unknown memory", |s| s.poke_mem("ghost", 0, 0).map(|()| 0)),
                Err(SimError::NoSuchMem("ghost".into())),
            ),
            (
                ("peek_mem an unknown memory", |s| s.peek_mem("ghost", 0)),
                Err(SimError::NoSuchMem("ghost".into())),
            ),
            (
                ("poke_mem out of range", |s| s.poke_mem("store", 8, 0).map(|()| 0)),
                Err(SimError::MemAddrOutOfRange { mem: "store".into(), depth: 8, addr: 8 }),
            ),
            (
                ("poke_mem a too-wide word", |s| s.poke_mem("store", 0, 0x100).map(|()| 0)),
                Err(SimError::MemValueTooWide { mem: "store".into(), width: 8, value: 0x100 }),
            ),
            (("rejected pokes keep the word", |s| s.peek_mem("store", 0)), Ok(0)),
            (
                ("peek_mem out of range", |s| s.peek_mem("store", 9)),
                Err(SimError::MemAddrOutOfRange { mem: "store".into(), depth: 8, addr: 9 }),
            ),
            (
                ("poke_mem", |s| {
                    s.poke_mem("store", 6, 0x5A).and_then(|()| s.peek_mem("store", 6))
                }),
                Ok(0x5A),
            ),
            (
                ("a poked word reads through the design", |s| {
                    s.poke("raddr", 6)?;
                    s.eval()?;
                    s.peek("rdata")
                }),
                Ok(0x5A),
            ),
        ];
        let netlist = counter_and_ram();
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            for ((rule, run), expected) in table {
                assert_eq!(run(sim.as_mut()), *expected, "{rule} on the {kind} engine");
            }
            let outputs = vec![("out".to_string(), 0), ("rdata".to_string(), 0x5A)];
            assert_eq!(sim.outputs(), outputs, "outputs on the {kind} engine");
        }

        // Without a reset port a reset pulse does nothing, and an unknown domain is
        // still rejected first.
        let mut m = ModuleBuilder::raw("NoReset");
        let a = m.input("a", Type::uint(4));
        let o = m.output("o", Type::uint(4));
        m.connect(&o, &a);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            assert!(!sim.has_reset(), "{kind}");
            assert_eq!(sim.reset(3), Ok(()), "{kind}");
            assert_eq!(sim.cycles(), 0, "{kind}");
            let unknown = Err(SimError::NoSuchClock("clock".into()));
            assert_eq!(sim.reset_domain("clock", 1), unknown, "{kind}");
            assert_eq!(sim.outputs(), vec![("o".to_string(), 0)], "{kind}");
        }
    }

    /// The sync-read guard is one rule both engines share, so the differential fuzz,
    /// which compares the engines, cannot see a fault in it: this pins it absolutely.
    #[test]
    fn a_sync_read_is_peekable_only_after_its_own_domain_edges() {
        let mut m = ModuleBuilder::raw("DualClockRead");
        let clk_w = m.input("clk_w", Type::Clock);
        let clk_r = m.input("clk_r", Type::Clock);
        let addr = m.input("addr", Type::uint(2));
        let din = m.input("din", Type::uint(8));
        let dout = m.output("dout", Type::uint(8));
        let echo = m.output("echo", Type::uint(8));
        let mem = m.mem("store", Type::uint(8), 4);
        m.with_clock(&clk_w, |m| m.mem_write(&mem, &addr, &din));
        m.with_clock(&clk_r, |m| {
            let word = m.mem_read_sync(&mem, &addr, None);
            m.connect(&dout, &word);
        });
        m.connect(&echo, &din);
        let netlist = lower_circuit(&m.into_circuit()).unwrap();
        let uncaptured = Err(SimError::SyncReadBeforeClock { signal: "dout".into() });
        for kind in [EngineKind::Interp, EngineKind::Compiled] {
            let mut sim = kind.simulator(&netlist).unwrap();
            assert_eq!(sim.peek("dout"), uncaptured, "{kind}");
            assert_eq!(sim.peek("echo"), Ok(0), "{kind}: a signal no read feeds");
            sim.poke("addr", 1).unwrap();
            sim.poke("din", 0x5A).unwrap();
            // The write domain edges: the word is stored, the read port captures nothing.
            sim.step_clock("clk_w").unwrap();
            assert_eq!(sim.peek_mem("store", 1), Ok(0x5A), "{kind}");
            assert_eq!(sim.peek("dout"), uncaptured, "{kind}");
            sim.step_clock("clk_r").unwrap();
            assert_eq!(sim.peek("dout"), Ok(0x5A), "{kind}");
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
