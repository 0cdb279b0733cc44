//! The repo's end-to-end benchmark with a per-layer ledger. See `README.md`
//! for how to run it and what every metric means.
//!
//! ```text
//! llmqo-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! llmqo-benchmark [--seed N] [--seconds S] [--smoke]              all six, results.json + traces
//! llmqo-benchmark --compare before.json after.json                judge two results.json files
//! llmqo-benchmark --benchmark-json                                print BENCHMARK.json
//! ```

mod alloc;
mod driver;
mod inputs;
mod json;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use driver::Budget;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 12;
const DEFAULT_SEED: u64 = 11;
/// Every workload does at least this many timed passes.
const MIN_PASSES: usize = 5;
/// `--smoke`: rows / 20 and two passes, to exercise the harness quickly.
const SMOKE_SCALE: f64 = 0.05;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: llmqo-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] | --compare BEFORE.json AFTER.json | --benchmark-json\nworkloads: {}",
        Kind::ALL.map(Kind::name).join(", ")
    );
    ExitCode::from(2)
}

/// Where results and traces go: `out/` beside this package's manifest, in
/// the checkout the binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(name);
    std::fs::write(&path, text)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn write_trace(o: &driver::Outcome) -> std::io::Result<()> {
    let Some(t) = &o.traced else { return Ok(()) };
    let json = spans::chrome_json(&t.spans, &t.job_names);
    llmqo_obs::validate_json(&json).map_err(std::io::Error::other)?;
    write_out(&format!("trace_{}.json", o.kind.name()), &json)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--benchmark-json") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, before, after] = argv.as_slice() else {
            return usage("--compare takes two results.json files");
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let verdict = read(before).and_then(|a| report::compare(&a, &read(after)?));
        return match verdict {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => usage(&e),
        };
    }

    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => Kind::from_name(value).map(|k| args.workload = Some(k)),
            "--seed" => value.parse().ok().map(|n| args.seed = n),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .map(|s| args.seconds = s),
            "--trace" => ["0", "1"]
                .iter()
                .position(|v| v == value)
                .map(|i| args.trace = i == 1),
            _ => return usage(&format!("unknown option {flag}")),
        };
        if parsed.is_none() {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }

    let (scale, tag) = if args.smoke {
        (SMOKE_SCALE, " (smoke)")
    } else {
        (1.0, "")
    };
    let budget = |seconds| {
        if args.smoke {
            Budget {
                seconds: 0.0,
                min_passes: 2,
                max_passes: 2,
            }
        } else {
            Budget {
                seconds,
                min_passes: MIN_PASSES,
                max_passes: usize::MAX,
            }
        }
    };

    let Some(kind) = args.workload else {
        // The whole benchmark: every workload, traced, results on disk.
        let outcomes = driver::run(&Kind::ALL, args.seed, scale, budget(args.seconds), true);
        for o in &outcomes {
            report::print_outcome(o, tag);
        }
        let written = outcomes.iter().try_for_each(write_trace).and_then(|()| {
            write_out(
                "results.json",
                &report::results_json(&outcomes, args.seed, args.smoke),
            )
        });
        if let Err(e) = written {
            eprintln!("cannot write under {}: {e}", out_dir().display());
            return ExitCode::FAILURE;
        }
        return if outcomes.iter().all(driver::Outcome::correct) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };

    // One workload under the driver's contract. A traced run spends half
    // its time on untraced passes: the traced pass is judged against them.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcomes = driver::run(&[kind], args.seed, scale, budget(seconds), args.trace);
    let o = &outcomes[0];
    report::print_outcome(o, tag);
    if let Err(e) = write_trace(o) {
        eprintln!("cannot write under {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::contract_line(o, args.trace));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
