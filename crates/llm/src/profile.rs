//! Model profiles: the calibrated behavioural parameters of the five LLMs evaluated in
//! the ReChisel paper.
//!
//! A [`ModelProfile`] does **not** hard-code any of the paper's result tables. It
//! encodes the behavioural primitives that drive the synthetic LLM — how often a
//! zero-shot generation carries syntax or functional defects, how reliably a structured
//! revision plan is converted into a correct fix, how often the model gets stuck
//! repeating the same wrong fix, and how much an escape helps — and the experiment
//! harness then *measures* success rates by actually running generation, compilation,
//! simulation and reflection. Zero-shot rates are calibrated against Table I / Fig. 1 of
//! the paper; repair/stuck/ceiling parameters are calibrated so that the overall
//! dynamics (Table III, Fig. 6, Fig. 7) come out with the right shape.

use crate::defects::DefectKind;

/// Which language the model is asked to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// Chisel generation, compiled to Verilog (the ReChisel path).
    Chisel,
    /// Direct Verilog generation (the AutoChip baseline path).
    Verilog,
}

/// Per-language generation statistics.
///
/// `syntax_rate` / `functional_rate` describe *ordinary* cases. A fraction
/// `hard_case_rate` of (case, model) pairs are **hard cases**: problems this model
/// essentially never gets right zero-shot no matter how often it samples (the paper's
/// Pass@10 staying well below 100% at n = 0 shows such per-case correlation). Hard
/// cases fail with the same syntax-vs-functional composition as ordinary failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationRates {
    /// Probability that a zero-shot sample of an ordinary case contains at least one
    /// syntax defect.
    pub syntax_rate: f64,
    /// Probability that a zero-shot sample of an ordinary case contains at least one
    /// functional defect (independent of syntax defects).
    pub functional_rate: f64,
    /// Expected number of defects given that a sample is defective (1.0–2.5).
    pub defect_density: f64,
    /// Fraction of cases that are hard for this model (near-zero zero-shot success).
    pub hard_case_rate: f64,
}

impl GenerationRates {
    /// Share of failures that are syntax failures (used to keep hard-case failures
    /// compositionally identical to ordinary ones).
    pub fn syntax_share_of_failures(&self) -> f64 {
        let syntax = self.syntax_rate;
        let functional_only = self.functional_rate * (1.0 - self.syntax_rate);
        if syntax + functional_only <= f64::EPSILON {
            0.5
        } else {
            syntax / (syntax + functional_only)
        }
    }
}

/// Reflection (repair) behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairRates {
    /// Probability of fixing a targeted syntax defect in one iteration, given full
    /// structured feedback.
    pub syntax_repair: f64,
    /// Probability of fixing a targeted functional defect in one iteration.
    pub functional_repair: f64,
    /// Probability that a failed repair attempt locks onto a wrong strategy: the defect
    /// becomes *stuck* and every further attempt repeats the same wrong fix until an
    /// escape resets the approach (paper §IV-C, Fig. 4).
    pub stuck_prob: f64,
    /// Probability of introducing a fresh defect while fixing another one (the paper
    /// observes syntax errors being re-introduced while fixing functional ones, Fig. 7).
    pub collateral_prob: f64,
    /// Fraction of defective samples the model can never repair regardless of feedback
    /// (the ~10%+ plateau the paper attributes to inherent LLM limitations).
    pub hopeless_rate: f64,
    /// Probability that a stuck defect becomes repairable again after the escape
    /// mechanism discards the non-progress loop.
    pub escape_effectiveness: f64,
    /// Multiplier applied to repair probabilities when feedback is reduced to counts
    /// only (ablation).
    pub unguided_factor: f64,
}

/// The full behavioural profile of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Display name (as in the paper's tables).
    pub name: String,
    /// Chisel generation statistics.
    pub chisel: GenerationRates,
    /// Verilog generation statistics.
    pub verilog: GenerationRates,
    /// Repair behaviour for Chisel.
    pub chisel_repair: RepairRates,
    /// Repair behaviour for Verilog.
    pub verilog_repair: RepairRates,
}

impl ModelProfile {
    /// Generation rates for a language.
    pub fn generation(&self, language: Language) -> GenerationRates {
        match language {
            Language::Chisel => self.chisel,
            Language::Verilog => self.verilog,
        }
    }

    /// Repair rates for a language.
    pub fn repair(&self, language: Language) -> RepairRates {
        match language {
            Language::Chisel => self.chisel_repair,
            Language::Verilog => self.verilog_repair,
        }
    }

    /// Relative weight of a defect kind during generation for the given language.
    ///
    /// Verilog generations skew much further towards functional defects: the paper's
    /// motivation experiment (Fig. 1) shows Chisel failing predominantly at compile time
    /// while the same models produce mostly-compilable Verilog.
    pub fn defect_weight(&self, language: Language, kind: DefectKind) -> u32 {
        let base = kind.weight();
        match language {
            Language::Chisel => base,
            Language::Verilog => {
                if kind.is_syntax() {
                    // Only a few syntax error classes are plausible in Verilog output.
                    match kind {
                        DefectKind::Misspelling
                        | DefectKind::MissingInit
                        | DefectKind::OutOfBounds
                        | DefectKind::CombLoop => base / 2 + 1,
                        _ => 1,
                    }
                } else {
                    base
                }
            }
        }
    }

    /// GPT-4 Turbo (version 2024-04-09 in the paper).
    pub fn gpt4_turbo() -> Self {
        Self {
            name: "GPT-4 Turbo".into(),
            chisel: GenerationRates {
                syntax_rate: 0.21,
                functional_rate: 0.11,
                defect_density: 1.5,
                hard_case_rate: 0.36,
            },
            verilog: GenerationRates {
                syntax_rate: 0.04,
                functional_rate: 0.12,
                defect_density: 1.3,
                hard_case_rate: 0.20,
            },
            chisel_repair: RepairRates {
                syntax_repair: 0.55,
                functional_repair: 0.42,
                stuck_prob: 0.30,
                collateral_prob: 0.10,
                hopeless_rate: 0.34,
                escape_effectiveness: 0.55,
                unguided_factor: 0.35,
            },
            verilog_repair: RepairRates {
                syntax_repair: 0.60,
                functional_repair: 0.45,
                stuck_prob: 0.25,
                collateral_prob: 0.08,
                hopeless_rate: 0.55,
                escape_effectiveness: 0.55,
                unguided_factor: 0.35,
            },
        }
    }

    /// GPT-4o (version 2024-08-06).
    pub fn gpt4o() -> Self {
        Self {
            name: "GPT-4o".into(),
            chisel: GenerationRates {
                syntax_rate: 0.21,
                functional_rate: 0.18,
                defect_density: 1.5,
                hard_case_rate: 0.31,
            },
            verilog: GenerationRates {
                syntax_rate: 0.02,
                functional_rate: 0.07,
                defect_density: 1.3,
                hard_case_rate: 0.24,
            },
            chisel_repair: RepairRates {
                syntax_repair: 0.58,
                functional_repair: 0.45,
                stuck_prob: 0.28,
                collateral_prob: 0.10,
                hopeless_rate: 0.32,
                escape_effectiveness: 0.60,
                unguided_factor: 0.35,
            },
            verilog_repair: RepairRates {
                syntax_repair: 0.60,
                functional_repair: 0.42,
                stuck_prob: 0.25,
                collateral_prob: 0.08,
                hopeless_rate: 0.66,
                escape_effectiveness: 0.55,
                unguided_factor: 0.35,
            },
        }
    }

    /// GPT-4o mini (version 2024-07-18).
    pub fn gpt4o_mini() -> Self {
        Self {
            name: "GPT-4o mini".into(),
            chisel: GenerationRates {
                syntax_rate: 0.65,
                functional_rate: 0.07,
                defect_density: 2.1,
                hard_case_rate: 0.66,
            },
            verilog: GenerationRates {
                syntax_rate: 0.04,
                functional_rate: 0.13,
                defect_density: 1.6,
                hard_case_rate: 0.29,
            },
            chisel_repair: RepairRates {
                syntax_repair: 0.34,
                functional_repair: 0.24,
                stuck_prob: 0.38,
                collateral_prob: 0.16,
                hopeless_rate: 0.42,
                escape_effectiveness: 0.35,
                unguided_factor: 0.35,
            },
            verilog_repair: RepairRates {
                syntax_repair: 0.40,
                functional_repair: 0.30,
                stuck_prob: 0.35,
                collateral_prob: 0.12,
                hopeless_rate: 0.60,
                escape_effectiveness: 0.40,
                unguided_factor: 0.35,
            },
        }
    }

    /// Claude 3.5 Sonnet (version 2024-10-22).
    pub fn claude35_sonnet() -> Self {
        Self {
            name: "Claude 3.5 Sonnet".into(),
            chisel: GenerationRates {
                syntax_rate: 0.38,
                functional_rate: 0.08,
                defect_density: 1.6,
                hard_case_rate: 0.42,
            },
            verilog: GenerationRates {
                syntax_rate: 0.02,
                functional_rate: 0.05,
                defect_density: 1.2,
                hard_case_rate: 0.17,
            },
            chisel_repair: RepairRates {
                syntax_repair: 0.74,
                functional_repair: 0.58,
                stuck_prob: 0.22,
                collateral_prob: 0.08,
                hopeless_rate: 0.21,
                escape_effectiveness: 0.70,
                unguided_factor: 0.35,
            },
            verilog_repair: RepairRates {
                syntax_repair: 0.75,
                functional_repair: 0.60,
                stuck_prob: 0.20,
                collateral_prob: 0.06,
                hopeless_rate: 0.30,
                escape_effectiveness: 0.70,
                unguided_factor: 0.35,
            },
        }
    }

    /// Claude 3.5 Haiku (version 2024-10-22).
    pub fn claude35_haiku() -> Self {
        Self {
            name: "Claude 3.5 Haiku".into(),
            chisel: GenerationRates {
                syntax_rate: 0.48,
                functional_rate: 0.11,
                defect_density: 1.7,
                hard_case_rate: 0.43,
            },
            verilog: GenerationRates {
                syntax_rate: 0.02,
                functional_rate: 0.07,
                defect_density: 1.3,
                hard_case_rate: 0.17,
            },
            chisel_repair: RepairRates {
                syntax_repair: 0.72,
                functional_repair: 0.55,
                stuck_prob: 0.24,
                collateral_prob: 0.09,
                hopeless_rate: 0.20,
                escape_effectiveness: 0.68,
                unguided_factor: 0.35,
            },
            verilog_repair: RepairRates {
                syntax_repair: 0.70,
                functional_repair: 0.55,
                stuck_prob: 0.22,
                collateral_prob: 0.07,
                hopeless_rate: 0.42,
                escape_effectiveness: 0.65,
                unguided_factor: 0.35,
            },
        }
    }

    /// The five models evaluated in the paper, in table order.
    pub fn paper_models() -> Vec<ModelProfile> {
        vec![
            Self::gpt4_turbo(),
            Self::gpt4o(),
            Self::gpt4o_mini(),
            Self::claude35_sonnet(),
            Self::claude35_haiku(),
        ]
    }

    /// The three models used for the AutoChip comparison (Table IV).
    pub fn comparison_models() -> Vec<ModelProfile> {
        vec![Self::gpt4_turbo(), Self::gpt4o(), Self::claude35_sonnet()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_have_expected_names() {
        let names: Vec<String> = ModelProfile::paper_models().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["GPT-4 Turbo", "GPT-4o", "GPT-4o mini", "Claude 3.5 Sonnet", "Claude 3.5 Haiku"]
        );
    }

    #[test]
    fn rates_are_probabilities() {
        for model in ModelProfile::paper_models() {
            for lang in [Language::Chisel, Language::Verilog] {
                let g = model.generation(lang);
                assert!((0.0..=1.0).contains(&g.syntax_rate));
                assert!((0.0..=1.0).contains(&g.functional_rate));
                assert!(g.defect_density >= 1.0);
                let r = model.repair(lang);
                for p in [
                    r.syntax_repair,
                    r.functional_repair,
                    r.stuck_prob,
                    r.collateral_prob,
                    r.hopeless_rate,
                    r.escape_effectiveness,
                    r.unguided_factor,
                ] {
                    assert!((0.0..=1.0).contains(&p), "{} has out-of-range rate", model.name);
                }
            }
        }
    }

    #[test]
    fn chisel_is_harder_than_verilog_zero_shot() {
        // Table I: every model's zero-shot Chisel success is worse than its Verilog
        // success, driven by much higher syntax-defect rates.
        for model in ModelProfile::paper_models() {
            assert!(model.chisel.syntax_rate > model.verilog.syntax_rate, "{}", model.name);
        }
    }

    #[test]
    fn claude_models_reflect_better_than_they_generate() {
        // Fig. 6: the Claude models start lower but climb faster / higher.
        let sonnet = ModelProfile::claude35_sonnet();
        let turbo = ModelProfile::gpt4_turbo();
        assert!(sonnet.chisel_repair.syntax_repair > turbo.chisel_repair.syntax_repair);
        assert!(sonnet.chisel_repair.hopeless_rate < turbo.chisel_repair.hopeless_rate);
    }

    #[test]
    fn verilog_defects_skew_functional() {
        let m = ModelProfile::gpt4o();
        assert!(m.defect_weight(Language::Verilog, DefectKind::ScalaCast) <= 1);
        assert!(
            m.defect_weight(Language::Verilog, DefectKind::WrongOperator)
                == DefectKind::WrongOperator.weight()
        );
    }
}
