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

#![warn(missing_docs)]

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
    pub fn from_env() -> Self {
        let cases = std::env::var("RECHISEL_CASES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(48)
            .clamp(1, rechisel_benchsuite::SUITE_SIZE);
        let samples = std::env::var("RECHISEL_SAMPLES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(4)
            .clamp(1, 10);
        Self { cases, samples }
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
    fn pass_ks_never_exceed_the_sample_count() {
        assert_eq!(Scale { cases: 8, samples: 4 }.pass_ks(), vec![1]);
        assert_eq!(Scale { cases: 8, samples: 5 }.pass_ks(), vec![1, 5]);
        assert_eq!(Scale { cases: 8, samples: 10 }.pass_ks(), vec![1, 5, 10]);
    }
}
