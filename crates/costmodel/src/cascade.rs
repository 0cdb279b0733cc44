//! Model-tier cascades: price a cheap-model-first, escalate-on-low-confidence
//! execution plan for one LLM operator.
//!
//! The paper's optimizer decides *which order* LLM operators run in; the
//! cascade extends the cost model to decide *which model* each row runs on.
//! A [`CascadePlan`] pairs a cheap [`ModelTier`] with an expensive one: every
//! row is first answered by the cheap tier, and rows whose deterministic
//! per-row confidence falls below `escalate_below` are re-run on the
//! expensive tier (whose answer then wins). The expected per-row cost is
//!
//! ```text
//! cheap_cost + escalation_rate × expensive_cost
//! ```
//!
//! which undercuts the single-expensive-tier cost whenever the escalation
//! rate is below `1 − cheap_cost / expensive_cost`.
//!
//! Everything here is a pure function of `(seed, row)` — a counter-based
//! SplitMix64 draw — so a cascade run reproduces byte for byte regardless
//! of dedup, caching, batching, or pipelining, and the differential suites
//! can construct exact single-tier oracles for both endpoints of the
//! threshold:
//! `escalate_below ≥ 1` is the expensive tier verbatim, `escalate_below ≤ 0`
//! is the cheap tier verbatim.

use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic uniform draw in `[0, 1)` keyed by `(seed, stream, draw)`.
fn unit(seed: u64, stream: u64, draw: u64) -> f64 {
    let z = mix64(seed ^ mix64(stream).wrapping_add(mix64(draw.wrapping_add(0x51ed_2701))));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Draw counter reserved for the per-row confidence signal.
const CONFIDENCE_DRAW: u64 = 0xC0FD;

/// Draw counter reserved for the cheap tier's answer correctness roll.
const ANSWER_DRAW: u64 = 0xC0FE;

/// One model tier of a cascade: its token pricing and how often it agrees
/// with the expensive (reference) tier when maximally uncertain.
///
/// `base_accuracy` is the probability the tier's answer matches the
/// reference tier at confidence 0; agreement rises linearly to 1 as
/// confidence approaches 1, so low-confidence rows are exactly the ones
/// worth escalating. The expensive tier of a plan is the reference — its
/// answers *define* correctness, so its own `base_accuracy` is 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelTier {
    /// $ per 1M input tokens.
    pub input_per_mtok: f64,
    /// $ per 1M output tokens.
    pub output_per_mtok: f64,
    /// Agreement probability with the reference tier at confidence 0, in
    /// `[0, 1]`.
    pub base_accuracy: f64,
}

impl ModelTier {
    /// Creates a tier.
    pub fn new(input_per_mtok: f64, output_per_mtok: f64, base_accuracy: f64) -> Self {
        ModelTier {
            input_per_mtok,
            output_per_mtok,
            base_accuracy,
        }
    }

    /// The cheap tier the paper benchmarks against: GPT-4o-mini pricing
    /// ($0.15/M input, $0.60/M output) with an 88% base agreement rate.
    pub fn mini() -> Self {
        ModelTier::new(0.15, 0.60, 0.88)
    }

    /// The expensive reference tier: Claude 3.5 Sonnet pricing ($3/M input,
    /// $15/M output). As the reference its answers define ground truth.
    pub fn sonnet() -> Self {
        ModelTier::new(3.0, 15.0, 1.0)
    }

    /// Dollar cost of one request against this tier.
    pub fn cost(&self, prompt_tokens: f64, output_tokens: f64) -> f64 {
        (prompt_tokens * self.input_per_mtok + output_tokens * self.output_per_mtok) / 1e6
    }
}

/// A two-tier cascade plan for one LLM operator: run every row on `cheap`,
/// escalate rows whose confidence falls below `escalate_below` to
/// `expensive`.
///
/// All stochastic behaviour is a pure function of `(seed, row)`:
/// [`confidence`](CascadePlan::confidence) and
/// [`cheap_label`](CascadePlan::cheap_label) never consult execution state,
/// so dedup, answer caching, batching, and pipelining cannot change which
/// rows escalate or what the cheap tier answers.
///
/// # Examples
///
/// ```
/// use llmqo_costmodel::{CascadePlan, ModelTier};
///
/// let plan = CascadePlan::new(ModelTier::mini(), ModelTier::sonnet(), 0.3, 42);
/// // The two threshold endpoints degenerate to single tiers.
/// assert!(CascadePlan { escalate_below: 1.0, ..plan }.escalates(7));
/// assert!(!CascadePlan { escalate_below: 0.0, ..plan }.escalates(7));
/// // Escalation is deterministic per row.
/// assert_eq!(plan.escalates(7), plan.escalates(7));
/// // Cascade beats the single expensive tier while escalation is rare.
/// let single = plan.expensive.cost(200.0, 4.0);
/// assert!(plan.expected_per_row_cost(200.0, 4.0, 0.3) < single);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadePlan {
    /// The tier every row runs on first.
    pub cheap: ModelTier,
    /// The reference tier low-confidence rows escalate to.
    pub expensive: ModelTier,
    /// Escalation threshold in `[0, 1]`: rows with
    /// `confidence < escalate_below` escalate. Confidence lives in `[0, 1)`,
    /// so `1.0` escalates every row and `0.0` escalates none.
    pub escalate_below: f64,
    /// Seed for the per-row confidence and answer draws.
    pub seed: u64,
}

impl CascadePlan {
    /// Creates a plan.
    pub fn new(cheap: ModelTier, expensive: ModelTier, escalate_below: f64, seed: u64) -> Self {
        CascadePlan {
            cheap,
            expensive,
            escalate_below,
            seed,
        }
    }

    /// The default mini → sonnet cascade at threshold `escalate_below`.
    pub fn mini_to_sonnet(escalate_below: f64, seed: u64) -> Self {
        CascadePlan::new(ModelTier::mini(), ModelTier::sonnet(), escalate_below, seed)
    }

    /// The cheap tier's deterministic confidence in its answer for `row`,
    /// uniform in `[0, 1)`.
    pub fn confidence(&self, row: u64) -> f64 {
        unit(self.seed, row, CONFIDENCE_DRAW)
    }

    /// Whether `row` escalates to the expensive tier.
    pub fn escalates(&self, row: u64) -> bool {
        self.confidence(row) < self.escalate_below
    }

    /// The cheap tier's answer for `row`, given the reference (expensive)
    /// tier's answer.
    ///
    /// The answer is correct with probability
    /// `base_accuracy + (1 − base_accuracy) × confidence` — low-confidence
    /// rows are exactly the error-prone ones, so raising the escalation
    /// threshold buys accuracy. A wrong answer is the cyclically next label
    /// in `label_space`; operators without a discrete label space (free-text
    /// projections) are modelled as tier-insensitive and pass through. The
    /// answer borrows `reference` or `label_space`, so it costs nothing.
    pub fn cheap_label<'a>(
        &self,
        row: u64,
        reference: &'a str,
        label_space: &'a [String],
    ) -> &'a str {
        let p_correct =
            self.cheap.base_accuracy + (1.0 - self.cheap.base_accuracy) * self.confidence(row);
        if unit(self.seed, row, ANSWER_DRAW) < p_correct {
            return reference;
        }
        if label_space.len() >= 2 {
            if let Some(pos) = label_space.iter().position(|l| l == reference) {
                return &label_space[(pos + 1) % label_space.len()];
            }
        }
        reference
    }

    /// The label the cascade emits for `row`: the reference answer when the
    /// row escalates, the cheap tier's answer otherwise.
    pub fn label<'a>(&self, row: u64, reference: &'a str, label_space: &'a [String]) -> &'a str {
        if self.escalates(row) {
            reference
        } else {
            self.cheap_label(row, reference, label_space)
        }
    }

    /// Expected dollar cost per row at an assumed `escalation_rate`: every
    /// row pays the cheap tier, escalated rows additionally pay the
    /// expensive tier.
    pub fn expected_per_row_cost(
        &self,
        prompt_tokens: f64,
        output_tokens: f64,
        escalation_rate: f64,
    ) -> f64 {
        self.cheap.cost(prompt_tokens, output_tokens)
            + escalation_rate.clamp(0.0, 1.0) * self.expensive.cost(prompt_tokens, output_tokens)
    }

    /// Dollar cost per row of skipping the cascade and running the expensive
    /// tier alone — what the optimizer compares
    /// [`expected_per_row_cost`](CascadePlan::expected_per_row_cost) against.
    pub fn single_tier_per_row_cost(&self, prompt_tokens: f64, output_tokens: f64) -> f64 {
        self.expensive.cost(prompt_tokens, output_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SelectivityPosterior;

    fn labels() -> Vec<String> {
        vec!["Yes".to_owned(), "No".to_owned()]
    }

    #[test]
    fn confidence_is_deterministic_uniform() {
        let plan = CascadePlan::mini_to_sonnet(0.3, 9);
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|r| plan.confidence(r)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        for r in 0..64 {
            assert_eq!(plan.confidence(r), plan.confidence(r));
            assert!((0.0..1.0).contains(&plan.confidence(r)));
        }
    }

    #[test]
    fn escalation_rate_tracks_threshold() {
        for &t in &[0.1, 0.3, 0.7] {
            let plan = CascadePlan::mini_to_sonnet(t, 5);
            let n = 10_000u64;
            let esc = (0..n).filter(|&r| plan.escalates(r)).count() as f64 / n as f64;
            assert!((esc - t).abs() < 0.02, "threshold {t} escalated {esc}");
        }
    }

    #[test]
    fn endpoints_degenerate_to_single_tiers() {
        let all = CascadePlan::mini_to_sonnet(1.0, 1);
        let none = CascadePlan::mini_to_sonnet(0.0, 1);
        for r in 0..256 {
            assert!(all.escalates(r));
            assert!(!none.escalates(r));
            assert_eq!(all.label(r, "Yes", &labels()), "Yes");
            assert_eq!(
                none.label(r, "Yes", &labels()),
                none.cheap_label(r, "Yes", &labels())
            );
        }
    }

    #[test]
    fn cheap_label_errors_are_rare_and_in_label_space() {
        let plan = CascadePlan::mini_to_sonnet(0.0, 3);
        let space = labels();
        let n = 10_000u64;
        let wrong = (0..n)
            .filter(|&r| plan.cheap_label(r, "Yes", &space) != "Yes")
            .count() as f64
            / n as f64;
        // base_accuracy 0.88, averaged over uniform confidence: the error
        // rate is (1 − 0.88) × E[1 − conf] = 0.06.
        assert!((wrong - 0.06).abs() < 0.01, "error rate {wrong}");
        for r in 0..256 {
            let l = plan.cheap_label(r, "Yes", &space);
            assert!(space.iter().any(|s| s == l), "{l} not in label space");
        }
    }

    #[test]
    fn raising_the_threshold_monotonically_reduces_errors() {
        let space = labels();
        let n = 5_000u64;
        let errors = |t: f64| {
            let plan = CascadePlan::mini_to_sonnet(t, 11);
            (0..n)
                .filter(|&r| plan.label(r, "No", &space) != "No")
                .count()
        };
        let (e0, e5, e10) = (errors(0.0), errors(0.5), errors(1.0));
        assert!(e0 > e5, "{e0} vs {e5}");
        assert!(e5 > e10, "{e5} vs {e10}");
        assert_eq!(e10, 0);
    }

    #[test]
    fn free_text_operators_are_tier_insensitive() {
        let plan = CascadePlan::mini_to_sonnet(0.0, 3);
        for r in 0..256 {
            assert_eq!(plan.cheap_label(r, "a summary", &[]), "a summary");
        }
    }

    #[test]
    fn expected_cost_interpolates_between_tiers() {
        let plan = CascadePlan::mini_to_sonnet(0.3, 0);
        let cheap = plan.cheap.cost(300.0, 5.0);
        let single = plan.single_tier_per_row_cost(300.0, 5.0);
        assert!((plan.expected_per_row_cost(300.0, 5.0, 0.0) - cheap).abs() < 1e-12);
        let all = plan.expected_per_row_cost(300.0, 5.0, 1.0);
        assert!((all - (cheap + single)).abs() < 1e-12);
        assert!(plan.expected_per_row_cost(300.0, 5.0, 0.3) < single);
    }

    /// The per-operator tier posterior the SQL runner keeps: a
    /// [`SelectivityPosterior`] seeded at the threshold learns the plan's
    /// escalation rate from one batch's split, and refuses a split with more
    /// escalated rows than rows.
    #[test]
    fn tier_posterior_converges_and_validates() {
        let plan = CascadePlan::mini_to_sonnet(0.2, 7);
        let mut p = SelectivityPosterior::new(plan.escalate_below, 8.0);
        assert_eq!(p.observations(), 0);
        let escalated = (0..1000).filter(|&r| plan.escalates(r)).count() as u64;
        p.observe(escalated, 1000);
        assert!((p.mean() - 0.2).abs() < 0.03, "{}", p.mean());
        assert_eq!(p.observations(), 1000);
        let over = std::panic::catch_unwind(move || p.observe(11, 10));
        assert!(over.is_err(), "more escalated rows than rows must panic");
    }
}
