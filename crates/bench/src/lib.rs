//! # rechisel-bench
//!
//! Experiment binaries and Criterion benches for the ReChisel reproduction.
//!
//! One binary per table/figure of the paper's evaluation regenerates the corresponding
//! result from this repository's substrate, with the paper's LLM calls replaced by the
//! synthetic defect-process model described in the README introduction:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1` | Table I — zero-shot Chisel vs Verilog Pass@k |
//! | `fig1` | Fig. 1 — zero-shot error-type proportions |
//! | `table2` | Table II — common syntax errors and compiler feedback |
//! | `table3` | Table III — ReChisel success rate vs iteration cap |
//! | `table4` | Table IV — ReChisel vs AutoChip |
//! | `fig6` | Fig. 6 — success rate vs iterations per model |
//! | `fig7` | Fig. 7 — syntax/functional error proportions across iterations |
//! | `ablation_escape` | §IV-C — escape mechanism and knowledge-base ablations |
//!
//! The binaries honour two environment variables so they can be scaled between a quick
//! smoke run and the paper's full protocol:
//!
//! * `RECHISEL_CASES` — number of benchmark cases (default 48, paper 216);
//! * `RECHISEL_SAMPLES` — samples per case (default 4, paper 10).
//!
//! An unset variable keeps its default; a set value that is not a non-negative
//! integer stops the binary with an error naming the variable and the value.

#![warn(missing_docs)]

use std::str::FromStr;

use rechisel_benchsuite::{full_suite, sampled_suite, BenchmarkCase};

/// Experiment scale resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of benchmark cases.
    pub cases: usize,
    /// Samples per case.
    pub samples: u32,
}

impl Scale {
    /// Reads the scale from `RECHISEL_CASES` / `RECHISEL_SAMPLES`, with defaults that
    /// keep every binary under a couple of minutes on a laptop.
    ///
    /// A set but unparsable value ends the process with status 2 and a message
    /// naming the variable and the value, instead of silently running the default
    /// scale.
    pub fn from_env() -> Self {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::from_vars(var("RECHISEL_CASES").as_deref(), var("RECHISEL_SAMPLES").as_deref())
            .unwrap_or_else(|message| {
                eprintln!("error: {message}");
                std::process::exit(2)
            })
    }

    /// The scale for the raw values of `RECHISEL_CASES` and `RECHISEL_SAMPLES`
    /// (`None` when unset), clamped to 1..=216 cases and 1..=10 samples.
    ///
    /// # Errors
    ///
    /// Names the variable and the value when a set value does not parse.
    fn from_vars(cases: Option<&str>, samples: Option<&str>) -> Result<Self, String> {
        Ok(Self {
            cases: parse_var("RECHISEL_CASES", cases, 48)?
                .clamp(1, rechisel_benchsuite::SUITE_SIZE),
            samples: parse_var("RECHISEL_SAMPLES", samples, 4)?.clamp(1, 10),
        })
    }

    /// The benchmark cases for this scale.
    pub fn suite(&self) -> Vec<BenchmarkCase> {
        if self.cases >= rechisel_benchsuite::SUITE_SIZE {
            full_suite()
        } else {
            sampled_suite(self.cases)
        }
    }

    /// The paper's Pass@k columns (k = 1, 5, 10) that this scale can estimate: those
    /// with k ≤ samples. `pass_at_k` clamps a larger k to the sample count, so a
    /// Pass@10 column printed from 4 samples would really be Pass@4.
    pub fn pass_ks(&self) -> Vec<usize> {
        [1, 5, 10].into_iter().filter(|&k| k <= self.samples as usize).collect()
    }

    /// A one-line description printed at the top of every experiment.
    pub fn banner(&self, experiment: &str) -> String {
        format!(
            "{experiment}: {} cases x {} samples (paper protocol: 216 x 10; set RECHISEL_CASES / \
             RECHISEL_SAMPLES to rescale)\n",
            self.cases, self.samples
        )
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self { cases: 48, samples: 4 }
    }
}

/// The raw value of the environment variable `name`, parsed; `default` when unset.
fn parse_var<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| format!("{name}={value:?} is not a count")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_bounded() {
        let s = Scale::default();
        assert!(s.cases <= rechisel_benchsuite::SUITE_SIZE);
        assert!(s.samples <= 10);
        assert_eq!(s.suite().len(), s.cases);
        assert!(s.banner("Table I").contains("Table I"));
    }

    #[test]
    fn unset_vars_keep_the_defaults_and_set_ones_are_clamped() {
        assert_eq!(Scale::from_vars(None, None), Ok(Scale::default()));
        assert_eq!(
            Scale::from_vars(Some("216"), Some("10")),
            Ok(Scale { cases: 216, samples: 10 })
        );
        assert_eq!(Scale::from_vars(Some("0"), Some("99")), Ok(Scale { cases: 1, samples: 10 }));
        assert_eq!(Scale::from_vars(Some("9999"), None), Ok(Scale { cases: 216, samples: 4 }));
    }

    #[test]
    fn unparsable_vars_are_errors_naming_the_variable_and_the_value() {
        assert_eq!(
            Scale::from_vars(Some("all"), None),
            Err("RECHISEL_CASES=\"all\" is not a count".to_string())
        );
        for samples in ["8k", "", "-1", "2.5"] {
            let message = Scale::from_vars(None, Some(samples)).unwrap_err();
            assert!(message.starts_with("RECHISEL_SAMPLES="), "{message}");
            assert!(message.contains(&format!("{samples:?}")), "{message}");
        }
    }

    #[test]
    fn pass_ks_never_exceed_the_sample_count() {
        assert_eq!(Scale { cases: 8, samples: 4 }.pass_ks(), vec![1]);
        assert_eq!(Scale { cases: 8, samples: 5 }.pass_ks(), vec![1, 5]);
        assert_eq!(Scale { cases: 8, samples: 10 }.pass_ks(), vec![1, 5, 10]);
    }
}
