//! Simulated LLM outputs for accuracy experiments (paper §6.4, Fig. 6).
//!
//! The paper's accuracy finding is *behavioural*: reordering fields changes
//! the prompt the model sees, and model answers shift slightly with field
//! position — within ±5% for large models, and up to +14.2% for Llama-3-8B
//! on FEVER, which answers better when the `claim` field lands at the end of
//! the prompt. We reproduce that behaviour with a deterministic labeler:
//!
//! * each row carries a ground-truth label (generated with the dataset);
//! * a [`ModelProfile`] answers correctly with probability
//!   `base_accuracy + order_sensitivity · alignment(key-field position)`;
//! * randomness is a hash of `(seed, row)`, so the *same* row uses the same
//!   underlying draw under both orderings (monotone coupling) — accuracy
//!   deltas between orderings are then exactly the probability shift plus
//!   bootstrap noise, mirroring Fig. 6's methodology.

use serde::{Deserialize, Serialize};

/// Where a model answers best when the semantically key field moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KeyFieldPreference {
    /// Better when the key field is near the end of the prompt (recency) —
    /// the paper observes this for Llama-3-8B on FEVER.
    Late,
    /// Better when the key field leads the prompt (primacy).
    Early,
    /// Insensitive to position.
    #[default]
    None,
}

/// A simulated model's answering behaviour.
///
/// # Examples
///
/// ```
/// use llmqo_serve::{ModelProfile, SimLlm};
/// let model = ModelProfile::llama3_70b().with_base_accuracy(0.9);
/// let labels = ["Yes".to_string(), "No".to_string()];
/// let out = model.generate("Yes".to_string(), 3, &labels, 0.5);
/// assert!(out == "Yes" || out == "No");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model name for reports.
    pub name: String,
    /// Probability of a correct answer with the key field mid-prompt.
    pub base_accuracy: f64,
    /// Maximum accuracy shift attributable to key-field position.
    pub order_sensitivity: f64,
    /// Direction of the positional effect.
    pub preference: KeyFieldPreference,
    /// Seed decorrelating models from each other.
    pub seed: u64,
}

impl ModelProfile {
    /// Llama-3-8B: noticeably order-sensitive, prefers the key field late
    /// (the +14.2% FEVER effect in Fig. 6a).
    pub fn llama3_8b() -> Self {
        ModelProfile {
            name: "Llama-3-8B-Instruct".to_owned(),
            base_accuracy: 0.78,
            order_sensitivity: 0.071,
            preference: KeyFieldPreference::Late,
            seed: 0x8b,
        }
    }

    /// Llama-3-70B: robust to reordering (Fig. 6b, deltas within ±4%).
    pub fn llama3_70b() -> Self {
        ModelProfile {
            name: "Llama-3-70B-Instruct".to_owned(),
            base_accuracy: 0.88,
            order_sensitivity: 0.01,
            preference: KeyFieldPreference::Late,
            seed: 0x70b,
        }
    }

    /// GPT-4o: robust, slight primacy preference (Fig. 6c shows small
    /// negative deltas under GGR, which tends to push key fields later).
    pub fn gpt4o() -> Self {
        ModelProfile {
            name: "GPT-4o".to_owned(),
            base_accuracy: 0.91,
            order_sensitivity: 0.012,
            preference: KeyFieldPreference::Early,
            seed: 0x40,
        }
    }

    /// Returns the profile with a different base accuracy (datasets differ).
    pub fn with_base_accuracy(mut self, base: f64) -> Self {
        self.base_accuracy = base;
        self
    }

    /// Probability of answering correctly given the key field's relative
    /// position in the prompt (`0.0` = first field, `1.0` = last).
    pub fn p_correct(&self, key_field_pos: f64) -> f64 {
        let pos = key_field_pos.clamp(0.0, 1.0);
        let alignment = match self.preference {
            KeyFieldPreference::Late => 2.0 * pos - 1.0,
            KeyFieldPreference::Early => 1.0 - 2.0 * pos,
            KeyFieldPreference::None => 0.0,
        };
        (self.base_accuracy + self.order_sensitivity * alignment).clamp(0.02, 0.995)
    }
}

/// Anything that produces an output string for a row.
pub trait SimLlm {
    /// Generates the model's answer for one row: `truth` is the ground-truth
    /// answer, owned so that a model whose answer *is* the truth hands the
    /// buffer back instead of copying it; `row_id` is a stable row
    /// identifier (it drives the coupled random draw); `label_space` holds
    /// the possible answers of a classification query, empty for free text;
    /// `key_field_pos` is the relative position of the semantically key
    /// field in the serialized prompt (`0.0` first … `1.0` last).
    fn generate(
        &self,
        truth: String,
        row_id: u64,
        label_space: &[String],
        key_field_pos: f64,
    ) -> String;
}

impl SimLlm for ModelProfile {
    fn generate(
        &self,
        truth: String,
        row_id: u64,
        label_space: &[String],
        key_field_pos: f64,
    ) -> String {
        if unit_hash(self.seed, row_id) < self.p_correct(key_field_pos) {
            truth
        } else if label_space.len() > 1 {
            // Deterministic wrong answer: the next label in the space.
            let idx = label_space.iter().position(|l| *l == truth).unwrap_or(0);
            let offset =
                1 + (mix(self.seed ^ 0xabcd, row_id) % (label_space.len() as u64 - 1)) as usize;
            label_space[(idx + offset) % label_space.len()].clone()
        } else {
            // A generic free-text miss.
            "UNCLEAR".to_owned()
        }
    }
}

/// A perfectly order-insensitive oracle — answers the ground truth always.
/// Used by tests asserting that reordering preserves query semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleLlm;

impl SimLlm for OracleLlm {
    fn generate(&self, truth: String, _: u64, _: &[String], _: f64) -> String {
        truth
    }
}

/// Uniform draw in `[0, 1)` from a seed/row pair.
fn unit_hash(seed: u64, row: u64) -> f64 {
    (mix(seed, row) >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64-style mixing.
fn mix(seed: u64, row: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(row.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        vec!["Yes".to_owned(), "No".to_owned()]
    }

    fn accuracy(profile: &ModelProfile, pos: f64, n: u64) -> f64 {
        let ls = labels();
        let correct = (0..n)
            .filter(|&row| profile.generate("Yes".to_owned(), row, &ls, pos) == "Yes")
            .count();
        correct as f64 / n as f64
    }

    #[test]
    fn deterministic_per_row() {
        let m = ModelProfile::llama3_8b();
        let ls = labels();
        let ask = || m.generate("Yes".to_owned(), 42, &ls, 0.2);
        assert_eq!(ask(), ask());
    }

    #[test]
    fn accuracy_tracks_p_correct() {
        let m = ModelProfile::llama3_8b().with_base_accuracy(0.7);
        let measured = accuracy(&m, 0.5, 20_000);
        assert!(
            (measured - 0.7).abs() < 0.02,
            "measured {measured}, expected ≈0.7"
        );
    }

    #[test]
    fn late_preference_improves_with_late_key() {
        let m = ModelProfile::llama3_8b();
        let early = accuracy(&m, 0.0, 20_000);
        let late = accuracy(&m, 1.0, 20_000);
        assert!(
            late > early + 0.10,
            "late {late} should beat early {early} by ≈2·sensitivity (14pp)"
        );
    }

    #[test]
    fn early_preference_mirrors() {
        let m = ModelProfile::gpt4o();
        let early = accuracy(&m, 0.0, 20_000);
        let late = accuracy(&m, 1.0, 20_000);
        assert!(early > late);
        assert!((early - late) < 0.1, "large models are robust");
    }

    #[test]
    fn none_preference_is_flat() {
        let m = ModelProfile {
            preference: KeyFieldPreference::None,
            ..ModelProfile::llama3_70b()
        };
        assert_eq!(m.p_correct(0.0), m.p_correct(1.0));
    }

    #[test]
    fn monotone_coupling_only_flips_marginal_rows() {
        // Moving the key field later can only flip answers in one direction
        // for a Late-preference model: incorrect → correct.
        let m = ModelProfile::llama3_8b();
        let ls = labels();
        for row in 0..2_000 {
            let at = |pos: f64| m.generate("Yes".to_owned(), row, &ls, pos) == "Yes";
            assert!(!at(0.0) || at(1.0), "row {row} flipped backwards");
        }
    }

    #[test]
    fn wrong_answers_stay_in_label_space() {
        // base 0.0 clamps to 0.02, so nearly all answers are wrong.
        let m = ModelProfile::llama3_8b().with_base_accuracy(0.0);
        let ls = vec!["A".to_owned(), "B".to_owned(), "C".to_owned()];
        let mut wrong = 0;
        for row in 0..200 {
            let out = m.generate("A".to_owned(), row, &ls, 0.5);
            assert!(ls.contains(&out), "answer {out} escaped the label space");
            if out != "A" {
                wrong += 1;
            }
        }
        assert!(wrong >= 180, "only {wrong}/200 wrong at p≈0.02");
    }

    #[test]
    fn free_text_miss_is_marked() {
        let m = ModelProfile::llama3_8b().with_base_accuracy(0.0);
        let out = m.generate("a summary".to_owned(), 1, &[], 0.5);
        assert_eq!(out, "UNCLEAR");
    }

    #[test]
    fn oracle_is_always_right() {
        let ls = labels();
        for row in 0..50 {
            let out = OracleLlm.generate("No".to_owned(), row, &ls, row as f64 / 50.0);
            assert_eq!(out, "No");
        }
    }

    #[test]
    fn p_correct_is_clamped() {
        let m = ModelProfile {
            base_accuracy: 1.5,
            ..ModelProfile::llama3_8b()
        };
        assert!(m.p_correct(1.0) <= 0.995);
        let m = ModelProfile {
            base_accuracy: -1.0,
            ..ModelProfile::llama3_8b()
        };
        assert!(m.p_correct(0.0) >= 0.02);
    }
}
