//! What the benchmark prints and writes: the metric listing, the contract's
//! one-line result, `results.json`, `BENCHMARK.json`, and `--compare`.

use crate::driver::Outcome;
use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans;

/// `x` as a JSON number with all its digits (`null` if not finite, which a
/// healthy run never produces).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// One `"name":{"value":…,"unit":"…"}` member, as the contract writes it.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        num(value)
    )
}

/// Prints every metric of `o` by name with its unit: the end-to-end metrics
/// with clock, direction, bound and in-run spread, then (after a traced
/// pass) the per-layer ledger and the host self time of each span name.
pub fn print_outcome(o: &Outcome, tag: &str) {
    let name = o.kind.name();
    println!(
        "== {name}{tag}: {} jobs, {} rows/pass, {} timed passes, input digest {:016x}, {}",
        o.jobs,
        o.rows_per_pass,
        o.passes.len(),
        o.input_digest,
        if o.correct() {
            "outputs correct"
        } else {
            "OUTPUT CHECK FAILED"
        },
    );
    for (m, f) in END_TO_END.iter().zip(o.end_to_end()) {
        println!(
            "{name} {:<16} {:>16.6} {:<10} [{}, {} is better, bound {:.0}%, spread {:.2}%]",
            m.name,
            f.value,
            m.unit,
            m.clock,
            m.better.as_str(),
            m.bound * 100.0,
            f.spread * 100.0,
        );
    }
    let Some(t) = &o.traced else { return };
    for (metric, unit, _) in PER_LAYER {
        println!("{name} {metric:<34} {:>16.6} {unit}", t.ledger.get(metric));
    }
    println!("{name} host time by span (calls, total s, self s):");
    for (span, calls, total, own) in spans::by_name(&t.spans) {
        println!("{name}   {span:<26} {calls:>5} {total:>10.4} {own:>10.4}");
    }
}

/// The contract's last line: `correct`, `attempted`, `failed`, and either
/// every end-to-end metric or (traced) every per-layer metric.
/// `attempted` counts operations over the timed passes; `failed` counts
/// those whose result was wrong — a request the chaos workload sheds by
/// design is behaviour, reported through `ops_ok_share`, not a defect.
pub fn contract_line(o: &Outcome, traced: bool) -> String {
    let passes = o.passes.len() as u64;
    let metrics: Vec<String> = match &o.traced {
        Some(t) if traced => PER_LAYER
            .iter()
            .map(|(name, unit, _)| metric_json(name, t.ledger.get(name), unit))
            .collect(),
        _ => END_TO_END
            .iter()
            .zip(o.end_to_end())
            .map(|(m, f)| metric_json(m.name, f.value, m.unit))
            .collect(),
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        (o.sim.ops * passes).max(1),
        o.sim.ops_wrong * passes,
        metrics.join(","),
    )
}

/// `results.json`: per workload, every end-to-end metric with what
/// `--compare` needs to judge it, and the per-layer ledger.
pub fn results_json(outcomes: &[Outcome], seed: u64, smoke: bool) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .zip(o.end_to_end())
                .map(|(m, f)| {
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"clock\":\"{}\",\"better\":\"{}\",\
                         \"bound\":{},\"spread\":{}}}",
                        m.name,
                        num(f.value),
                        m.unit,
                        m.clock,
                        m.better.as_str(),
                        num(m.bound),
                        num(f.spread),
                    )
                })
                .collect();
            let layers: Vec<String> = o
                .traced
                .iter()
                .flat_map(|t| {
                    PER_LAYER
                        .iter()
                        .map(|(name, unit, _)| metric_json(name, t.ledger.get(name), unit))
                })
                .collect();
            format!(
                "\"{}\":{{\"correct\":{},\"passes\":{},\"jobs\":{},\"rows_per_pass\":{},\
                 \"input_digest\":\"{:016x}\",\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                o.kind.name(),
                o.correct(),
                o.passes.len(),
                o.jobs,
                o.rows_per_pass,
                o.input_digest,
                e2e.join(","),
                layers.join(","),
            )
        })
        .collect();
    format!(
        "{{\"benchmark\":\"llmqo-benchmark\",\"seed\":{seed},\"smoke\":{smoke},\"workloads\":{{{}}}}}\n",
        workloads.join(",")
    )
}

/// The contents of `BENCHMARK.json`, from the tables the program reports
/// from (a unit test keeps the committed file equal to this).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

/// One row of `--compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Beyond the metric's bound in its bad direction.
    Worse,
    /// A run's own spread is wider than the bound: the metric cannot tell.
    Unresolved,
}

/// Judges `after` against `before` for one metric.
pub fn judge(before: f64, after: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => after - before,
        Better::Higher => before - after,
    };
    // `worse_by > bound * before` rather than a quotient, so that a zero
    // baseline with bound 0 still flags any worsening.
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound * before.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Reads two `results.json` texts and prints one row per workload and
/// end-to-end metric. Returns whether any row is `worse`.
pub fn compare(before: &str, after: &str) -> Result<bool, String> {
    let (a, b) = (json::parse(before)?, json::parse(after)?);
    let field = |doc: &Json, workload: &str, metric: &str, key: &str| -> Option<f64> {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get(key)?
            .as_f64()
    };
    let mut any_worse = false;
    println!(
        "{:<15} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "change", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                field(&a, workload, m.name, "value"),
                field(&b, workload, m.name, "value"),
            ) else {
                continue;
            };
            let spread = [&a, &b]
                .iter()
                .filter_map(|doc| field(doc, workload, m.name, "spread"))
                .fold(0.0, f64::max);
            let verdict = judge(x, y, m.better, m.bound, spread);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<15} {:<16} {x:>16.6} {y:>16.6} {:>+8.2}% {:>6.1}%  {}",
                m.name,
                if x == 0.0 {
                    0.0
                } else {
                    (y - x) / x.abs() * 100.0
                },
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{self, Budget};
    use crate::workloads::Kind;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(10.0, 10.9, Lower, 0.1, 0.0), Verdict::Ok);
        assert_eq!(judge(10.0, 11.1, Lower, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(10.0, 5.0, Lower, 0.1, 0.0), Verdict::Ok);
        assert_eq!(judge(10.0, 8.9, Higher, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(10.0, 20.0, Higher, 0.1, 0.0), Verdict::Ok);
        assert_eq!(judge(10.0, 11.1, Lower, 0.1, 0.2), Verdict::Unresolved);
        assert_eq!(judge(3.0, 3.0, Lower, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(0.0, 1e-9, Lower, 0.0, 0.0), Verdict::Worse);
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json());
        llmqo_obs::validate_json(&on_disk).expect("valid JSON");
        assert!(on_disk.len() < 64 * 1024);
    }

    /// A whole smoke-sized run of one workload: the files it would write
    /// are valid JSON, `--compare` of a run with itself is all `ok`, and a
    /// doctored copy is flagged.
    #[test]
    fn results_traces_and_compare_round_trip() {
        let budget = Budget {
            seconds: 0.0,
            min_passes: 2,
            max_passes: 2,
        };
        let outcomes = driver::run(&[Kind::SqlCold], 5, 0.02, budget, true);
        let o = &outcomes[0];
        assert!(o.correct());
        let results = results_json(&outcomes, 5, true);
        llmqo_obs::validate_json(&results).expect("results.json");
        let t = o.traced.as_ref().expect("traced");
        llmqo_obs::validate_json(&spans::chrome_json(&t.spans, &t.job_names)).expect("trace");
        for traced in [false, true] {
            let line = contract_line(o, traced);
            let doc = json::parse(&line).expect("contract line");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics object expected");
            };
            assert_eq!(
                metrics.len(),
                if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        }
        assert!(t.ledger.get("relational.rows_in") > 0.0);
        assert!(t.ledger.get("relational.run_s") > 0.0);

        assert_eq!(compare(&results, &results), Ok(false));
        let slower = results.replacen("\"llm_calls\":{\"value\":", "\"llm_calls\":{\"value\":9", 1);
        assert_eq!(compare(&results, &slower), Ok(true));
    }
}
