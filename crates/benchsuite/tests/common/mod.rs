//! Helpers shared by the benchsuite integration tests.

use rechisel_firrtl::Circuit;
use rechisel_llm::{apply_defect, DefectInstance, DefectKind};

/// One step of the splitmix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `circuit` after a seeded chain of 1–4 defects, each of any kind the synthetic LLM
/// injects (syntax or functional).
pub fn with_defect_chain(mut circuit: Circuit, seed: u64) -> Circuit {
    let kinds: Vec<DefectKind> =
        DefectKind::syntax_kinds().iter().chain(DefectKind::functional_kinds()).copied().collect();
    let mut state = seed;
    for _ in 0..1 + splitmix(&mut state) % 4 {
        let kind = kinds[(splitmix(&mut state) % kinds.len() as u64) as usize];
        apply_defect(&mut circuit, DefectInstance::new(kind, splitmix(&mut state)));
    }
    circuit
}
