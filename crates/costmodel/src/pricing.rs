//! Price schedules and billable usage.

use serde::{Deserialize, Serialize};

/// Per-million-token prices for one provider model. Which input tokens
/// qualify for the cached rate is the provider cache's rule
/// ([`OpenAiCache`](crate::OpenAiCache), [`AnthropicCache`](crate::AnthropicCache)).
///
/// # Examples
///
/// ```
/// use llmqo_costmodel::{Pricing, Usage};
/// let p = Pricing::gpt4o_mini();
/// let usage = Usage {
///     uncached_input: 1_000_000,
///     cached_input: 1_000_000,
///     cache_write: 0,
///     output: 0,
/// };
/// // 1M uncached at $0.15 + 1M cached at $0.075.
/// assert!((usage.cost(&p) - 0.225).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pricing {
    /// Model name for reports.
    pub name: String,
    /// $ per 1M uncached input tokens.
    pub input_per_mtok: f64,
    /// $ per 1M cached (read) input tokens.
    pub cached_per_mtok: f64,
    /// $ per 1M cache-written input tokens (equals `input_per_mtok` when the
    /// provider charges no write premium).
    pub write_per_mtok: f64,
    /// $ per 1M output tokens.
    pub output_per_mtok: f64,
}

impl Pricing {
    /// OpenAI GPT-4o-mini (paper footnote 2): $0.15/M input, $0.075/M
    /// cached, $0.60/M output; automatic caching from 1 024 tokens in
    /// 128-token increments.
    pub fn gpt4o_mini() -> Self {
        Pricing {
            name: "GPT-4o-mini".to_owned(),
            input_per_mtok: 0.15,
            cached_per_mtok: 0.075,
            write_per_mtok: 0.15,
            output_per_mtok: 0.60,
        }
    }

    /// Anthropic Claude 3.5 Sonnet (paper footnote 3): $3/M input, $3.75/M
    /// cache write, $0.30/M cache read, $15/M output; explicit breakpoints
    /// from 1 024 tokens.
    pub fn claude35_sonnet() -> Self {
        Pricing {
            name: "Claude 3.5 Sonnet".to_owned(),
            input_per_mtok: 3.0,
            cached_per_mtok: 0.30,
            write_per_mtok: 3.75,
            output_per_mtok: 15.0,
        }
    }

    /// Analytical input-cost multiplier at prefix hit rate `phr`
    /// (Table 4's model): uncached tokens pay the write rate, cached tokens
    /// the read rate, normalized by the base input rate.
    pub fn estimated_cost_ratio(&self, phr: f64) -> f64 {
        let phr = phr.clamp(0.0, 1.0);
        ((1.0 - phr) * self.write_per_mtok + phr * self.cached_per_mtok) / self.input_per_mtok
    }

    /// Estimated relative savings of an optimized ordering over a baseline
    /// ordering, both using this provider's cache (Table 4).
    pub fn estimated_savings(&self, baseline_phr: f64, optimized_phr: f64) -> f64 {
        1.0 - self.estimated_cost_ratio(optimized_phr) / self.estimated_cost_ratio(baseline_phr)
    }
}

/// Billable token counts accumulated over a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Usage {
    /// Input tokens billed at the base rate.
    pub uncached_input: u64,
    /// Input tokens billed at the cached (read) rate.
    pub cached_input: u64,
    /// Input tokens billed at the cache-write rate.
    pub cache_write: u64,
    /// Output tokens.
    pub output: u64,
}

impl Usage {
    /// Adds another usage record into this one.
    pub fn add(&mut self, other: Usage) {
        self.uncached_input += other.uncached_input;
        self.cached_input += other.cached_input;
        self.cache_write += other.cache_write;
        self.output += other.output;
    }

    /// Total input tokens regardless of billing class.
    pub fn total_input(&self) -> u64 {
        self.uncached_input + self.cached_input + self.cache_write
    }

    /// Fraction of input tokens served from cache (the provider-measured
    /// hit rate of paper Table 3).
    pub fn hit_rate(&self) -> f64 {
        if self.total_input() == 0 {
            0.0
        } else {
            self.cached_input as f64 / self.total_input() as f64
        }
    }

    /// Dollar cost under `pricing`.
    pub fn cost(&self, pricing: &Pricing) -> f64 {
        (self.uncached_input as f64 * pricing.input_per_mtok
            + self.cached_input as f64 * pricing.cached_per_mtok
            + self.cache_write as f64 * pricing.write_per_mtok
            + self.output as f64 * pricing.output_per_mtok)
            / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openai_prices_match_paper_footnote() {
        let p = Pricing::gpt4o_mini();
        assert_eq!(p.input_per_mtok, 0.15);
        assert_eq!(p.cached_per_mtok, 0.075);
        assert_eq!(p.write_per_mtok, p.input_per_mtok, "no write premium");
    }

    #[test]
    fn anthropic_prices_match_paper_footnote() {
        let p = Pricing::claude35_sonnet();
        assert_eq!(p.input_per_mtok, 3.0);
        assert_eq!(p.write_per_mtok, 3.75);
        assert_eq!(p.cached_per_mtok, 0.30);
    }

    #[test]
    fn cost_accumulates_all_classes() {
        let p = Pricing::claude35_sonnet();
        let u = Usage {
            uncached_input: 1_000_000,
            cached_input: 2_000_000,
            cache_write: 1_000_000,
            output: 100_000,
        };
        let expected = 3.0 + 2.0 * 0.30 + 3.75 + 0.1 * 15.0;
        assert!((u.cost(&p) - expected).abs() < 1e-9);
        assert_eq!(u.total_input(), 4_000_000);
        assert!((u.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn savings_increase_with_hit_rate() {
        let p = Pricing::gpt4o_mini();
        let low = p.estimated_cost_ratio(0.1);
        let high = p.estimated_cost_ratio(0.9);
        assert!(high < low);
        assert!(p.estimated_savings(0.1, 0.9) > 0.0);
    }

    #[test]
    fn openai_table4_movies_row() {
        // Paper Table 4: Movies PHR 34.6% → 85.7% yields ≈31% OpenAI savings.
        let p = Pricing::gpt4o_mini();
        let s = p.estimated_savings(0.346, 0.857);
        assert!((s - 0.31).abs() < 0.02, "got {s}");
    }

    #[test]
    fn anthropic_table4_movies_row() {
        // Paper Table 4: Movies → ≈73% Anthropic savings; our model lands
        // within a few points.
        let p = Pricing::claude35_sonnet();
        let s = p.estimated_savings(0.346, 0.857);
        assert!((s - 0.73).abs() < 0.06, "got {s}");
    }

    #[test]
    fn anthropic_write_premium_can_make_low_hit_caching_unprofitable() {
        // At 0% hit rate everything is written at 1.25×: ratio > 1.
        let p = Pricing::claude35_sonnet();
        assert!(p.estimated_cost_ratio(0.0) > 1.0);
        // Break-even near p = 0.25/1.15 ≈ 0.217.
        assert!(p.estimated_cost_ratio(0.3) < 1.0);
    }

    #[test]
    fn usage_add() {
        let mut a = Usage::default();
        a.add(Usage {
            uncached_input: 1,
            cached_input: 2,
            cache_write: 3,
            output: 4,
        });
        a.add(Usage {
            uncached_input: 10,
            cached_input: 20,
            cache_write: 30,
            output: 40,
        });
        assert_eq!(a.uncached_input, 11);
        assert_eq!(a.output, 44);
    }

    #[test]
    fn hit_rate_of_empty_usage_is_zero() {
        assert_eq!(Usage::default().hit_rate(), 0.0);
    }
}
