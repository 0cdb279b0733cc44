//! Per-operator cost estimates for the relational layer's logical optimizer.
//!
//! The paper's SQL-aware optimizations need a notion of how expensive one
//! `LLM(...)` operator is per row so that (a) cheap SQL predicates always run
//! first and (b) several LLM predicates in one `WHERE` conjunction run in the
//! order that minimizes expected spend. [`LlmOpEstimate`] carries the numbers
//! an optimizer can know *before* execution — average prompt/output tokens
//! per row and an estimated pass rate — and prices them through a
//! [`Pricing`] schedule.
//!
//! Ordering rule: for filters applied in sequence, each one only sees the
//! rows its predecessors passed, so expected cost for order `1, 2, …` is
//! `n·(c₁ + s₁·c₂ + s₁·s₂·c₃ + …)`. The classic exchange argument shows this
//! is minimized by ascending `rank = cost / (1 − selectivity)` — an
//! expensive filter can still deserve the front if it rejects nearly
//! everything.

use crate::pricing::Pricing;
use serde::{Deserialize, Serialize};

/// A Beta-smoothed selectivity posterior: the static prior the optimizer
/// starts from (typically uniform over the query's label space), updated
/// with pass/fail counts the executor observes at runtime.
///
/// The prior enters as `strength` pseudo-observations split
/// `strength × prior` passes / `strength × (1 − prior)` fails, so early
/// batches nudge the estimate smoothly instead of yanking it to an extreme
/// after one lucky batch, while large observation counts dominate the prior
/// entirely — the standard Beta–Bernoulli posterior mean.
///
/// # Examples
///
/// ```
/// use llmqo_costmodel::SelectivityPosterior;
/// let mut post = SelectivityPosterior::new(0.5, 8.0);
/// assert_eq!(post.mean(), 0.5);
/// post.observe(2, 100); // the filter actually passes ~2% of rows
/// assert!(post.mean() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectivityPosterior {
    /// Pseudo-pass count from the prior (`strength × prior`).
    alpha: f64,
    /// Pseudo-fail count from the prior (`strength × (1 − prior)`).
    beta: f64,
    /// Observed rows that passed.
    passed: u64,
    /// Observed rows offered.
    total: u64,
}

impl SelectivityPosterior {
    /// Creates a posterior around `prior` (clamped to `[0, 1]`) weighted as
    /// `strength` pseudo-observations. A non-positive `strength` is clamped
    /// to a tiny positive weight so the mean is always well defined.
    pub fn new(prior: f64, strength: f64) -> Self {
        let prior = prior.clamp(0.0, 1.0);
        let strength = strength.max(1e-6);
        SelectivityPosterior {
            alpha: strength * prior,
            beta: strength * (1.0 - prior),
            passed: 0,
            total: 0,
        }
    }

    /// Folds in one batch of observations: `passed` of `total` offered rows
    /// passed the filter.
    ///
    /// # Panics
    ///
    /// Panics if `passed > total`.
    pub fn observe(&mut self, passed: u64, total: u64) {
        assert!(passed <= total, "cannot pass more rows than were offered");
        self.passed += passed;
        self.total += total;
    }

    /// The posterior mean pass rate.
    pub fn mean(&self) -> f64 {
        (self.alpha + self.passed as f64) / (self.alpha + self.beta + self.total as f64)
    }

    /// Rows observed so far (0 means the mean is still the pure prior).
    pub fn observations(&self) -> u64 {
        self.total
    }
}

/// What the optimizer estimates about one LLM operator before running it.
///
/// # Examples
///
/// ```
/// use llmqo_costmodel::{LlmOpEstimate, Pricing};
/// let cheap_picky = LlmOpEstimate::new(100.0, 2.0, 0.2);
/// let pricey_lax = LlmOpEstimate::new(900.0, 40.0, 0.9);
/// let p = Pricing::gpt4o_mini();
/// // The cheap, highly selective filter should run first.
/// assert!(cheap_picky.rank(&p) < pricey_lax.rank(&p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlmOpEstimate {
    /// Average prompt tokens per row (instruction prefix + serialized
    /// fields).
    pub prompt_tokens_per_row: f64,
    /// Average output tokens per row.
    pub output_tokens_per_row: f64,
    /// Estimated fraction of rows the operator *passes* (for filters).
    /// Non-filter operators use `1.0`.
    pub selectivity: f64,
}

impl LlmOpEstimate {
    /// Creates an estimate, clamping `selectivity` into `[0, 1]`.
    pub fn new(prompt_tokens_per_row: f64, output_tokens_per_row: f64, selectivity: f64) -> Self {
        LlmOpEstimate {
            prompt_tokens_per_row,
            output_tokens_per_row,
            selectivity: selectivity.clamp(0.0, 1.0),
        }
    }

    /// Dollar cost of evaluating the operator on one row, assuming uncached
    /// input (a conservative upper bound: ordering decisions should not rely
    /// on hit rates the schedule has not produced yet).
    pub fn per_row_cost(&self, pricing: &Pricing) -> f64 {
        (self.prompt_tokens_per_row * pricing.input_per_mtok
            + self.output_tokens_per_row * pricing.output_per_mtok)
            / 1e6
    }

    /// Ordering key for sequenced filters: `per_row_cost / (1 − selectivity)`,
    /// ascending. A selectivity of 1 (passes everything) ranks last via a
    /// tiny-denominator clamp rather than a division by zero.
    pub fn rank(&self, pricing: &Pricing) -> f64 {
        if llmqo_obs::enabled() {
            llmqo_obs::registry()
                .counter("costmodel.rank_evaluations")
                .inc();
        }
        self.per_row_cost(pricing) / (1.0 - self.selectivity).max(1e-9)
    }

    /// The same estimate with its selectivity replaced by an observed (or
    /// posterior) value — how the adaptive executor re-prices an operator
    /// mid-query without re-estimating its token costs.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        self.selectivity = selectivity.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_is_clamped() {
        assert_eq!(LlmOpEstimate::new(1.0, 1.0, 7.0).selectivity, 1.0);
        assert_eq!(LlmOpEstimate::new(1.0, 1.0, -1.0).selectivity, 0.0);
    }

    #[test]
    fn per_row_cost_prices_both_directions() {
        let p = Pricing::gpt4o_mini();
        let e = LlmOpEstimate::new(1_000_000.0, 1_000_000.0, 0.5);
        // 1M input at $0.15 + 1M output at $0.60.
        assert!((e.per_row_cost(&p) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn rank_orders_by_exchange_argument() {
        // Verify the rank rule against the two-filter expected-cost formula
        // on a grid of costs and selectivities.
        let p = Pricing::claude35_sonnet();
        let grid = [
            (50.0, 2.0, 0.1),
            (50.0, 2.0, 0.9),
            (400.0, 30.0, 0.3),
            (400.0, 30.0, 0.7),
            (1200.0, 5.0, 0.5),
        ];
        for &(pa, oa, sa) in &grid {
            for &(pb, ob, sb) in &grid {
                let a = LlmOpEstimate::new(pa, oa, sa);
                let b = LlmOpEstimate::new(pb, ob, sb);
                let (ca, cb) = (a.per_row_cost(&p), b.per_row_cost(&p));
                let ab = ca + sa * cb;
                let ba = cb + sb * ca;
                if a.rank(&p) < b.rank(&p) {
                    assert!(ab <= ba + 1e-12, "rank said a-first but {ab} > {ba}");
                }
                if b.rank(&p) < a.rank(&p) {
                    assert!(ba <= ab + 1e-12, "rank said b-first but {ba} > {ab}");
                }
            }
        }
    }

    #[test]
    fn posterior_starts_at_prior_and_converges_to_observations() {
        let mut p = SelectivityPosterior::new(0.5, 8.0);
        assert!((p.mean() - 0.5).abs() < 1e-12);
        assert_eq!(p.observations(), 0);
        // A small batch moves the mean part-way: 8 pseudo + 10 real.
        p.observe(1, 10);
        let after_small = p.mean();
        assert!(after_small < 0.5 && after_small > 0.1, "{after_small}");
        // A large batch dominates the prior.
        p.observe(99, 990);
        assert!((p.mean() - 0.1).abs() < 0.01, "{}", p.mean());
        assert_eq!(p.observations(), 1000);
    }

    #[test]
    fn posterior_clamps_degenerate_inputs() {
        let p = SelectivityPosterior::new(7.0, -3.0);
        assert!((p.mean() - 1.0).abs() < 1e-9);
        let mut z = SelectivityPosterior::new(0.0, 4.0);
        z.observe(0, 0); // empty batches are no-ops
        assert_eq!(z.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot pass more rows")]
    fn posterior_rejects_passed_above_total() {
        SelectivityPosterior::new(0.5, 1.0).observe(3, 2);
    }

    #[test]
    fn with_selectivity_replaces_only_selectivity() {
        let e = LlmOpEstimate::new(100.0, 2.0, 0.5).with_selectivity(0.05);
        assert_eq!(e.selectivity, 0.05);
        assert_eq!(e.prompt_tokens_per_row, 100.0);
        let p = Pricing::gpt4o_mini();
        assert!(e.rank(&p) < LlmOpEstimate::new(100.0, 2.0, 0.5).rank(&p));
        assert_eq!(e.with_selectivity(9.0).selectivity, 1.0);
    }

    #[test]
    fn pass_everything_filter_ranks_last() {
        let p = Pricing::gpt4o_mini();
        let always = LlmOpEstimate::new(10.0, 1.0, 1.0);
        let usually = LlmOpEstimate::new(10_000.0, 500.0, 0.99);
        assert!(always.rank(&p) > usually.rank(&p));
        assert!(always.rank(&p).is_finite());
    }
}
