//! The synthetic LLM: a calibrated stochastic stand-in for the five API models of the
//! paper.
//!
//! [`SyntheticLlm`] implements the `rechisel-core` [`Generator`] and [`Reviewer`] agent
//! roles. Generation clones the benchmark's reference design and injects defects drawn
//! from the model profile's distributions; revision interprets the revision plan and,
//! with model-dependent probabilities, removes, keeps, or mis-fixes each live defect.
//! Everything downstream — compilation, diagnostics, simulation mismatches, trace
//! growth, escape events, success curves — is *computed* by the real substrate, not
//! sampled.
//!
//! This is the substitution stated in the README introduction: the paper's LLM API
//! calls are replaced by a defect-process model whose zero-shot rates are calibrated
//! against the paper's own baselines, while the reflection dynamics emerge from the
//! interaction of the defect process with the genuine compiler/simulator feedback loop.

use std::collections::HashMap;

use rand::Rng;
use rechisel_core::{
    Candidate, CommonErrorKnowledge, Feedback, Generator, Reviewer, RevisionPlan, Spec,
    TemplateReviewer, Trace,
};
use rechisel_firrtl::ir::Circuit;

use crate::defects::{DefectInstance, DefectKind};
use crate::inject::inject_defects;
use crate::profile::{Language, ModelProfile};
use crate::rng::{mix, rng_from};

/// One live mistake in a candidate, with its repair state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LiveDefect {
    instance: DefectInstance,
    /// The model has locked onto a wrong fix for this defect; it will repeat it until
    /// an escape resets the approach.
    stuck: bool,
    /// The model will never fix this defect (inherent capability ceiling).
    hopeless: bool,
}

#[derive(Debug, Clone, Default)]
struct CandidateState {
    defects: Vec<LiveDefect>,
}

/// FNV-1a hash of a model name, used to derive the per-case hardness seed.
fn name_hash(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// A synthetic LLM bound to one benchmark case (one reference design).
#[derive(Debug, Clone)]
pub struct SyntheticLlm {
    profile: ModelProfile,
    language: Language,
    reference: Circuit,
    case_seed: u64,
    reviewer: TemplateReviewer,
    states: HashMap<u64, CandidateState>,
    next_id: u64,
    attempt: u32,
}

impl SyntheticLlm {
    /// Creates a synthetic LLM for one case.
    pub fn new(
        profile: ModelProfile,
        language: Language,
        reference: Circuit,
        case_seed: u64,
    ) -> Self {
        Self {
            profile,
            language,
            reference,
            case_seed,
            reviewer: TemplateReviewer::new(),
            states: HashMap::new(),
            next_id: 0,
            attempt: 0,
        }
    }

    /// The model profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The language this instance generates.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Number of live defects in the given candidate (for tests and diagnostics).
    pub fn live_defects(&self, candidate_id: u64) -> usize {
        self.states.get(&candidate_id).map(|s| s.defects.len()).unwrap_or(0)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn sample_kind(&self, syntax: bool, rng: &mut impl Rng) -> DefectKind {
        let kinds: &[DefectKind] =
            if syntax { DefectKind::syntax_kinds() } else { DefectKind::functional_kinds() };
        let weights: Vec<u32> =
            kinds.iter().map(|k| self.profile.defect_weight(self.language, *k).max(1)).collect();
        let total: u32 = weights.iter().sum();
        let mut roll = rng.gen_range(0..total);
        for (kind, weight) in kinds.iter().zip(&weights) {
            if roll < *weight {
                return *kind;
            }
            roll -= weight;
        }
        kinds[kinds.len() - 1]
    }

    fn sample_defects(&self, syntax: bool, rng: &mut impl Rng) -> Vec<LiveDefect> {
        let gen = self.profile.generation(self.language);
        let mut out = Vec::new();
        let count = {
            let extra = (gen.defect_density - 1.0).clamp(0.0, 1.5);
            1 + usize::from(rng.gen_bool(extra.clamp(0.0, 1.0)))
        };
        for _ in 0..count {
            let kind = self.sample_kind(syntax, rng);
            let seed = rng.gen::<u64>();
            out.push(LiveDefect {
                instance: DefectInstance::new(kind, seed),
                stuck: false,
                hopeless: false,
            });
        }
        out
    }

    fn build_candidate(&mut self, iteration: u32, defects: Vec<LiveDefect>) -> Candidate {
        let id = self.fresh_id();
        let instances: Vec<DefectInstance> = defects.iter().map(|d| d.instance).collect();
        let circuit = inject_defects(&self.reference, &instances);
        self.states.insert(id, CandidateState { defects });
        Candidate::new(id, iteration, circuit)
    }

    /// True when the plan contains an item addressing this defect.
    fn plan_targets(&self, plan: &RevisionPlan, defect: &LiveDefect) -> bool {
        match defect.instance.kind.expected_code() {
            Some(code) => plan.items.iter().any(|item| item.code == Some(code)),
            // Functional defects are addressed by any functional-mismatch item.
            None => plan.items.iter().any(|item| item.code.is_none()),
        }
    }
}

impl Generator for SyntheticLlm {
    fn generate(&mut self, _spec: &Spec, attempt: u32) -> Candidate {
        self.attempt = attempt;
        let mut rng = rng_from(&[self.case_seed, attempt as u64, mix(&[1])]);
        let gen = self.profile.generation(self.language);
        let repair = self.profile.repair(self.language);

        // Per-case (not per-attempt) hardness: some problems are simply beyond a model's
        // zero-shot ability no matter how many samples are drawn, which is what keeps
        // the paper's zero-shot Pass@10 well below 100%.
        let name_seed = name_hash(&self.profile.name);
        let language_tag = match self.language {
            Language::Chisel => 1u64,
            Language::Verilog => 2u64,
        };
        let mut hardness_rng = rng_from(&[self.case_seed, name_seed, language_tag, mix(&[7])]);
        let is_hard_case = hardness_rng.gen_bool(gen.hard_case_rate.clamp(0.0, 1.0));

        let mut defects = Vec::new();
        if is_hard_case {
            // Hard cases fail essentially always, with the same syntax/functional
            // composition as ordinary failures.
            if !rng.gen_bool(0.005) {
                let syntax = rng.gen_bool(gen.syntax_share_of_failures().clamp(0.0, 1.0));
                defects.extend(self.sample_defects(syntax, &mut rng));
            }
            // For hard cases the inability to repair is a property of the (case, model)
            // pair, not of the individual sample: this is what keeps the paper's Pass@5
            // and Pass@10 below 100% even after ten reflection iterations.
            if !defects.is_empty() && hardness_rng.gen_bool(repair.hopeless_rate.clamp(0.0, 1.0)) {
                defects[0].hopeless = true;
            }
        } else {
            if rng.gen_bool(gen.syntax_rate.clamp(0.0, 1.0)) {
                defects.extend(self.sample_defects(true, &mut rng));
            }
            if rng.gen_bool(gen.functional_rate.clamp(0.0, 1.0)) {
                defects.extend(self.sample_defects(false, &mut rng));
            }
            // A fraction of defective samples is beyond the model's ability to repair:
            // this produces the success-rate plateau the paper observes after ~4
            // iterations.
            if !defects.is_empty() && rng.gen_bool(repair.hopeless_rate.clamp(0.0, 1.0)) {
                defects[0].hopeless = true;
            }
        }
        self.build_candidate(0, defects)
    }

    fn revise(&mut self, previous: &Candidate, plan: &RevisionPlan, iteration: u32) -> Candidate {
        let state = self.states.get(&previous.id).cloned().unwrap_or_default();
        let mut rng = rng_from(&[
            self.case_seed,
            self.attempt as u64,
            iteration as u64,
            previous.id,
            mix(&[2]),
        ]);
        let repair = self.profile.repair(self.language);
        let mut next = Vec::new();

        for defect in state.defects {
            if defect.hopeless {
                // The model keeps rearranging this part of the code without ever fixing
                // it.
                next.push(defect);
                continue;
            }
            let mut stuck = defect.stuck;
            if stuck && plan.after_escape && rng.gen_bool(repair.escape_effectiveness) {
                // The escape discarded the looping attempts; the model tries a genuinely
                // different strategy (paper §IV-C: "with the inherent diversity, the LLM
                // is expected to break out of the loop").
                stuck = false;
            }
            if stuck {
                next.push(LiveDefect { stuck: true, ..defect });
                continue;
            }
            let targeted = self.plan_targets(plan, &defect);
            let base = if defect.instance.kind.is_syntax() {
                repair.syntax_repair
            } else {
                repair.functional_repair
            };
            let p = if targeted { base } else { base * repair.unguided_factor };
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                // Fixed. Occasionally the fix breaks something else (Fig. 7: syntax
                // errors re-introduced while fixing functional ones).
                if rng.gen_bool(repair.collateral_prob.clamp(0.0, 1.0)) {
                    let syntax = rng.gen_bool(0.7);
                    let kind = self.sample_kind(syntax, &mut rng);
                    next.push(LiveDefect {
                        instance: DefectInstance::new(kind, rng.gen()),
                        stuck: false,
                        hopeless: false,
                    });
                }
            } else {
                let becomes_stuck = rng.gen_bool(repair.stuck_prob.clamp(0.0, 1.0));
                next.push(LiveDefect { stuck: becomes_stuck, ..defect });
            }
        }
        self.build_candidate(iteration, next)
    }
}

impl Reviewer for SyntheticLlm {
    fn review(
        &mut self,
        candidate: &Candidate,
        feedback: &Feedback,
        trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan {
        self.reviewer.review(candidate, feedback, trace, knowledge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_core::{
        ChiselCompiler, Engine, FunctionalTester, PortSpec, TraceInspector, WorkflowConfig,
    };
    use rechisel_firrtl::ir::Type;
    use rechisel_hcl::prelude::*;
    use rechisel_sim::Testbench;

    fn reference() -> Circuit {
        let mut m = ModuleBuilder::new("AddSel");
        let sel = m.input("sel", Type::bool());
        let a = m.input("a", Type::uint(4));
        let b = m.input("b", Type::uint(4));
        let out = m.output("out", Type::uint(5));
        let sum = m.node("sum", &a.add(&b));
        let alt = m.node("alt", &a.sub(&b).bits(4, 0));
        m.when_else(&sel, |m| m.connect(&out, &sum), |m| m.connect(&out, &alt));
        m.into_circuit()
    }

    fn spec() -> Spec {
        Spec::new(
            "AddSel",
            "Output a+b when sel is high, a-b otherwise.",
            vec![
                PortSpec::input("sel", Type::bool()),
                PortSpec::input("a", Type::uint(4)),
                PortSpec::input("b", Type::uint(4)),
                PortSpec::output("out", Type::uint(5)),
            ],
        )
    }

    fn tester() -> FunctionalTester {
        let compiler = ChiselCompiler::new();
        let netlist = compiler.compile(&reference()).unwrap().netlist;
        let tb = Testbench::random_for(&netlist, 16, 0, 5);
        FunctionalTester::new(netlist, tb)
    }

    fn run_case(
        profile: ModelProfile,
        seed: u64,
        config: WorkflowConfig,
    ) -> rechisel_core::WorkflowResult {
        let llm = SyntheticLlm::new(profile, Language::Chisel, reference(), seed);
        let engine = Engine::builder().config(config).build();
        // The session takes the SyntheticLlm as its generator, so the reviewer role
        // uses the deterministic TemplateReviewer here (the SyntheticLlm's Reviewer
        // impl delegates to it anyway).
        engine.session(llm, TemplateReviewer::new(), TraceInspector::new(), spec(), tester()).run(0)
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_attempt() {
        let mut a = SyntheticLlm::new(ModelProfile::gpt4o(), Language::Chisel, reference(), 42);
        let mut b = SyntheticLlm::new(ModelProfile::gpt4o(), Language::Chisel, reference(), 42);
        let ca = a.generate(&spec(), 3);
        let cb = b.generate(&spec(), 3);
        assert_eq!(ca.circuit, cb.circuit);
        let cc = a.generate(&spec(), 4);
        // Different attempts usually differ (they may coincide when both are clean).
        let _ = cc;
    }

    #[test]
    fn zero_shot_success_rate_tracks_profile() {
        // With a strong profile most samples are clean; with a weak one most are broken.
        let compiler = ChiselCompiler::new();
        let mut clean_strong = 0;
        let mut clean_weak = 0;
        let strong = ModelProfile {
            chisel: crate::profile::GenerationRates {
                syntax_rate: 0.05,
                functional_rate: 0.05,
                defect_density: 1.0,
                hard_case_rate: 0.0,
            },
            ..ModelProfile::gpt4o()
        };
        let weak = ModelProfile::gpt4o_mini();
        for seed in 0..40u64 {
            let mut s = SyntheticLlm::new(strong.clone(), Language::Chisel, reference(), seed);
            if compiler.compile(&s.generate(&spec(), 0).circuit).is_ok() {
                clean_strong += 1;
            }
            let mut w = SyntheticLlm::new(weak.clone(), Language::Chisel, reference(), seed);
            if compiler.compile(&w.generate(&spec(), 0).circuit).is_ok() {
                clean_weak += 1;
            }
        }
        assert!(clean_strong > clean_weak, "strong {clean_strong} vs weak {clean_weak}");
        assert!(clean_strong >= 32);
        assert!(clean_weak <= 20);
    }

    #[test]
    fn reflection_improves_success_over_zero_shot() {
        let mut zero_shot = 0;
        let mut reflected = 0;
        let runs = 30u64;
        for seed in 0..runs {
            let z = run_case(ModelProfile::claude35_sonnet(), seed, WorkflowConfig::zero_shot());
            if z.success {
                zero_shot += 1;
            }
            let r =
                run_case(ModelProfile::claude35_sonnet(), seed, WorkflowConfig::paper_default());
            if r.success {
                reflected += 1;
            }
        }
        assert!(
            reflected > zero_shot,
            "reflection ({reflected}/{runs}) should beat zero-shot ({zero_shot}/{runs})"
        );
    }

    #[test]
    fn workflow_with_synthetic_llm_terminates_within_cap() {
        for seed in 0..10u64 {
            let r = run_case(ModelProfile::gpt4o_mini(), seed, WorkflowConfig::paper_default());
            assert!(r.iterations_evaluated() <= 11);
        }
    }

    #[test]
    fn hopeless_samples_never_succeed() {
        let profile = ModelProfile {
            chisel: crate::profile::GenerationRates {
                syntax_rate: 1.0,
                functional_rate: 0.0,
                defect_density: 1.0,
                hard_case_rate: 0.0,
            },
            chisel_repair: crate::profile::RepairRates {
                hopeless_rate: 1.0,
                ..ModelProfile::gpt4o().chisel_repair
            },
            ..ModelProfile::gpt4o()
        };
        for seed in 0..5u64 {
            let r = run_case(profile.clone(), seed, WorkflowConfig::paper_default());
            assert!(!r.success, "a hopeless sample unexpectedly succeeded");
        }
    }

    #[test]
    fn verilog_language_generates_mostly_compilable_designs() {
        let compiler = ChiselCompiler::new();
        let mut compilable = 0;
        for seed in 0..30u64 {
            let mut llm = SyntheticLlm::new(
                ModelProfile::claude35_sonnet(),
                Language::Verilog,
                reference(),
                seed,
            );
            if compiler.compile(&llm.generate(&spec(), 0).circuit).is_ok() {
                compilable += 1;
            }
        }
        // Fig. 1: Verilog generations rarely fail at compile time for strong models.
        assert!(compilable >= 24, "only {compilable}/30 compiled");
    }
}
