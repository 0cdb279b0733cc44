//! Drives the workloads: set-up, warm-up, timed passes with observability
//! off, then one traced pass plus the staged replay. Single process, single
//! driving thread.

use crate::metrics::{Ledger, END_TO_END};
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::workloads::{self, Inputs, Kind, Meter, Sim};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The first one precedes the
/// passes, the others are spread evenly over the timed phase: this machine's
/// noise comes in bursts of seconds, which back-to-back set-ups would all
/// catch or all miss, making the median swing by 15–20% between runs.
const SETUPS: usize = 5;

/// How long the timed passes of one workload go on: until `seconds` of its
/// own pass time are spent, within the pass-count limits. Pass counts do
/// not change any `sim`/`count` figure, because every pass does the same
/// work.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_passes: usize,
    pub max_passes: usize,
}

/// What the traced pass and the replay add.
pub struct Traced {
    pub ledger: Ledger,
    pub spans: Vec<Span>,
    pub job_names: Vec<String>,
}

/// Everything measured on one workload.
pub struct Outcome {
    pub kind: Kind,
    pub input_digest: u64,
    pub jobs: usize,
    pub rows_per_pass: u64,
    pub setup_s: Vec<f64>,
    /// Host cost of each timed pass.
    pub passes: Vec<Meter>,
    /// The first timed pass's deterministic totals.
    pub sim: Sim,
    /// Whether every other pass (timed and traced) produced equal totals.
    pub repeatable: bool,
    pub traced: Option<Traced>,
}

struct State {
    inputs: Option<Inputs>,
    outcome: Outcome,
    seed: u64,
    scale: f64,
    spent_s: f64,
}

fn untraced_pass(inputs: &Inputs) -> (Sim, Meter) {
    workloads::run_pass(inputs, &mut Recorder::new(false), &mut Ledger::new())
}

impl State {
    fn start(kind: Kind, seed: u64, scale: f64) -> State {
        let t = Instant::now();
        let inputs = workloads::setup(kind, seed, scale);
        let setup_s = vec![t.elapsed().as_secs_f64()];
        // Warm-up: page in the tables and the allocator's arenas.
        untraced_pass(&inputs);
        State {
            outcome: Outcome {
                kind,
                input_digest: inputs.digest,
                jobs: inputs.jobs.len(),
                rows_per_pass: inputs.rows_per_pass,
                setup_s,
                passes: Vec::new(),
                sim: Sim::default(),
                repeatable: true,
                traced: None,
            },
            inputs: Some(inputs),
            seed,
            scale,
            spent_s: 0.0,
        }
    }

    fn inputs(&self) -> &Inputs {
        self.inputs.as_ref().expect("inputs are only ever replaced")
    }

    /// Sets up again, from the same seed and so to the same inputs, once the
    /// timed phase has used the next fifth of its budget.
    fn maybe_setup_again(&mut self, budget: Budget) {
        let done = self.outcome.setup_s.len();
        if done >= SETUPS || self.spent_s < budget.seconds * done as f64 / SETUPS as f64 {
            return;
        }
        // Free the previous inputs first, so every set-up starts from the
        // same heap.
        self.inputs = None;
        let t = Instant::now();
        let inputs = workloads::setup(self.outcome.kind, self.seed, self.scale);
        self.outcome.setup_s.push(t.elapsed().as_secs_f64());
        self.outcome.repeatable &= inputs.digest == self.outcome.input_digest;
        self.inputs = Some(inputs);
    }

    fn wants_pass(&self, budget: Budget) -> bool {
        let n = self.outcome.passes.len();
        n < budget.min_passes || (n < budget.max_passes && self.spent_s < budget.seconds)
    }

    fn timed_pass(&mut self, budget: Budget) {
        self.maybe_setup_again(budget);
        let t = Instant::now();
        let (sim, meter) = untraced_pass(self.inputs());
        self.spent_s += t.elapsed().as_secs_f64();
        if self.outcome.passes.is_empty() {
            self.outcome.sim = sim;
        } else {
            self.outcome.repeatable &= sim == self.outcome.sim;
        }
        self.outcome.passes.push(meter);
    }

    /// One more pass with `llmqo-obs` on and clean sinks, then the replay
    /// with the sinks off again so its engine runs do not land in the
    /// in-run histograms.
    fn traced_pass(&mut self) {
        let reg = llmqo_obs::registry();
        reg.reset();
        llmqo_obs::tracer().clear();
        let mut rec = Recorder::new(true);
        let mut ledger = Ledger::new();
        llmqo_obs::set_enabled(true);
        let (sim, meter) = workloads::run_pass(self.inputs(), &mut rec, &mut ledger);
        llmqo_obs::set_enabled(false);
        self.outcome.repeatable &= sim == self.outcome.sim;
        let statements = workloads::replay(self.inputs(), &mut rec, &mut ledger);

        let total = |name| spans::total_s(&rec.spans, name);
        let per = |whole: f64, parts: f64| if parts > 0.0 { whole / parts } else { 0.0 };
        let step = reg.histogram("wall.step_s");
        let admit = reg.histogram("wall.cache_admit_s");
        let decode = reg.histogram("wall.decode_recurrence_s");
        ledger.set("serve.wall_step_s", step.sum());
        ledger.set("serve.wall_cache_admit_s", admit.sum());
        ledger.set("serve.cache_admit_calls", admit.count() as f64);
        ledger.set("serve.wall_decode_recurrence_s", decode.sum());
        for (metric, counter) in [
            ("serve.block_map_probes", "cache.block_map_probes"),
            (
                "serve.heap_stale_invalidations",
                "cache.heap_stale_invalidations",
            ),
            ("serve.mark_computed_calls", "cache.mark_computed_calls"),
            ("costmodel.rank_evaluations", "costmodel.rank_evaluations"),
            ("cluster.requests_routed", "cluster.requests_routed"),
        ] {
            ledger.set(metric, reg.counter(counter).get() as f64);
        }
        ledger.set("obs.trace_events", llmqo_obs::tracer().len() as f64);
        ledger.set("obs.trace_dropped", llmqo_obs::tracer().dropped() as f64);
        llmqo_obs::tracer().clear();

        let run_s = total("relational.run") + total("relational.execute");
        ledger.set("relational.run_s", run_s);
        ledger.set("cluster.run_s", total("cluster.run"));
        ledger.set("relational.restore_s", total("relational.restore"));
        if run_s > 0.0 {
            // What the relational layer keeps for itself once the solver
            // and the engine stepping it calls are taken out.
            let inner = ledger.get("core.inrun_solve_s") + step.sum() + decode.sum();
            ledger.set("relational.self_s", run_s - inner);
        }
        ledger.set("relational.encode_s", total("relational.encode"));
        ledger.set(
            "relational.plan_requests_s",
            total("relational.plan_requests"),
        );
        ledger.set("core.solve_s", total("core.solve"));
        ledger.set("serve.run_s", total("serve.run"));
        ledger.set("tokenizer.tokenize_s", total("tokenizer.tokenize"));
        let n = f64::from(statements);
        ledger.set(
            "relational.parse_us_per_stmt",
            per(total("relational.parse") * 1e6, n),
        );
        ledger.set(
            "relational.explain_us_per_stmt",
            per(total("relational.explain") * 1e6, n),
        );
        let rows_per_s = per(ledger.get("core.solve_rows"), total("core.solve"));
        ledger.set("core.solve_rows_per_s", rows_per_s);
        let mtok = per(
            ledger.get("tokenizer.tokens") / 1e6,
            total("tokenizer.tokenize"),
        );
        ledger.set("tokenizer.mtok_per_s", mtok);
        ledger.set("datasets.generate_s", self.inputs().generate_s);
        ledger.set("datasets.rows", self.inputs().dataset_rows as f64);

        let walls = self.outcome.per_pass(|m| m.wall_s);
        let fastest = stats::fastest(&walls);
        ledger.set("obs.overhead_pct", (meter.wall_s / fastest - 1.0) * 100.0);
        ledger.set("driver.passes", walls.len() as f64);
        ledger.set("driver.jobs_per_pass", self.outcome.jobs as f64);
        ledger.set("driver.rows_per_pass", self.outcome.rows_per_pass as f64);
        ledger.set("driver.pass_wall_s_min", fastest);
        ledger.set("driver.pass_wall_s_p50", stats::median(&walls));
        ledger.set("driver.pass_wall_s_iqr", stats::iqr(&walls));
        let allocs = self.outcome.per_pass(|m| m.allocs as f64);
        ledger.set("driver.allocs_per_pass", stats::median(&allocs));
        let alloc_mb = self.outcome.per_pass(|m| m.bytes as f64 / 1e6);
        ledger.set("driver.alloc_mb_per_pass", stats::median(&alloc_mb));
        // Arrivals live on the simulated clock: the generator cannot run late.
        ledger.set("driver.generator_late_s", 0.0);

        self.outcome.traced = Some(Traced {
            ledger,
            spans: rec.spans,
            job_names: self.inputs().jobs.iter().map(|j| j.name.clone()).collect(),
        });
    }
}

/// Runs `kinds`. Timed passes are interleaved round-robin — pass *k* of
/// every workload before pass *k+1* of any — so each workload's samples
/// span the whole run and a noisy stretch of the machine does not land on
/// one workload alone.
pub fn run(kinds: &[Kind], seed: u64, scale: f64, budget: Budget, trace: bool) -> Vec<Outcome> {
    let mut states: Vec<State> = kinds
        .iter()
        .map(|&k| State::start(k, seed, scale))
        .collect();
    while states.iter().any(|s| s.wants_pass(budget)) {
        for s in states.iter_mut().filter(|s| s.wants_pass(budget)) {
            s.timed_pass(budget);
        }
    }
    if trace {
        states.iter_mut().for_each(State::traced_pass);
    }
    states.into_iter().map(|s| s.outcome).collect()
}

/// One end-to-end figure: the headline value and how far the run's own
/// samples disagree about it, as a share of the value — the estimator
/// applied to the even-numbered and to the odd-numbered samples (which are
/// interleaved in time), and the gap between the two. Deterministic
/// figures have no spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    pub value: f64,
    pub spread: f64,
}

impl Outcome {
    /// One figure of every timed pass.
    fn per_pass(&self, figure: fn(&Meter) -> f64) -> Vec<f64> {
        self.passes.iter().map(figure).collect()
    }

    /// Whether every job's output passed its check and every pass repeated
    /// the first one exactly.
    pub fn correct(&self) -> bool {
        self.repeatable && self.sim.ops_wrong == 0
    }

    /// The end-to-end metrics, in the order of [`END_TO_END`].
    pub fn end_to_end(&self) -> [Figure; END_TO_END.len()] {
        let rows = self.rows_per_pass as f64;
        let walls = self.per_pass(|m| m.wall_s);
        let allocs = self.per_pass(|m| m.allocs as f64);
        let peaks = self.per_pass(|m| m.peak_growth as f64 / 1e6);
        let sampled = |samples: &[f64], estimate: fn(&[f64]) -> f64, scale: f64| Figure {
            value: estimate(samples) * scale,
            spread: stats::halves_disagree(samples, estimate),
        };
        let s = &self.sim;
        let exact = |value: f64| Figure { value, spread: 0.0 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut rows_per_s = sampled(&walls, stats::fastest, 1.0);
        rows_per_s.value = rows / rows_per_s.value;
        [
            sampled(&self.setup_s, stats::median, 1.0),
            rows_per_s,
            sampled(&allocs, stats::median, 1.0 / rows),
            sampled(&peaks, stats::slowest, 1.0),
            exact(s.jct_s),
            exact(ratio(s.cached_tokens as f64, s.prompt_tokens as f64)),
            exact(s.llm_calls as f64),
            exact(s.cost_usd),
            exact(s.tail_p99_s),
            exact(ratio(s.good as f64, s.jct_s)),
            exact(1.0 - ratio(s.ops_failed as f64, s.ops as f64)),
        ]
    }
}
