//! # llmqo-costmodel — provider prompt-cache pricing (paper §6.3)
//!
//! The paper evaluates cost savings on OpenAI GPT-4o-mini and Anthropic
//! Claude 3.5 Sonnet, whose prompt caches have *different* billing and
//! qualification rules:
//!
//! * **OpenAI** — automatic longest-prefix caching; a prefix qualifies only
//!   from 1 024 tokens, extending in 128-token increments; cached input is
//!   billed at 50% of the base rate, and there is no write premium.
//! * **Anthropic** — the user marks explicit cache breakpoints; writes cost
//!   1.25× the base input rate and reads 0.10×. The paper conservatively
//!   marks only the first 1 024 tokens of every request for caching.
//!
//! This crate simulates both providers' cache behaviour over a stream of
//! prompts ([`OpenAiCache`], [`AnthropicCache`]), accumulates billable
//! [`Usage`], prices it ([`Pricing`]), and provides the analytical model
//! behind the paper's Table 4 ([`Pricing::estimated_cost_ratio`]). It also
//! exposes the per-operator estimates ([`LlmOpEstimate`]) the relational
//! layer's cost-based optimizer uses to order LLM predicates, and the
//! Beta-smoothed [`SelectivityPosterior`] its adaptive executor refines
//! those estimates with at runtime. Model-tier cascades extend the same
//! machinery across models: [`ModelTier`]/[`CascadePlan`] price a
//! cheap-first, escalate-on-low-confidence plan per operator, and a
//! [`SelectivityPosterior`] per cascaded operator learns its escalation
//! rate online.
//!
//! # Example
//!
//! Price two candidate filter orders and verify the optimizer's ranking
//! rule picks the cheaper one, then sharpen an estimate with observations:
//!
//! ```
//! use llmqo_costmodel::{LlmOpEstimate, Pricing, SelectivityPosterior};
//!
//! let pricing = Pricing::gpt4o_mini();
//! let cheap_picky = LlmOpEstimate::new(120.0, 2.0, 0.2);
//! let pricey_lax = LlmOpEstimate::new(900.0, 40.0, 0.9);
//! // Ascending cost/(1−selectivity) minimizes expected spend.
//! assert!(cheap_picky.rank(&pricing) < pricey_lax.rank(&pricing));
//!
//! // At runtime the executor observes the "picky" filter passing nearly
//! // everything; the posterior pulls its selectivity up and its priority
//! // down.
//! let mut post = SelectivityPosterior::new(cheap_picky.selectivity, 8.0);
//! post.observe(97, 100);
//! let revised = cheap_picky.with_selectivity(post.mean());
//! assert!(revised.rank(&pricing) > cheap_picky.rank(&pricing));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cascade;
mod operator;
mod pricing;
mod provider;

pub use cascade::{CascadePlan, ModelTier};
pub use operator::{LlmOpEstimate, SelectivityPosterior};
pub use pricing::{Pricing, Usage};
pub use provider::{AnthropicCache, OpenAiCache, ProviderCache};
