//! The `artifacts` binary's subcommands: one entry per paper table, figure
//! and sweep, all reading one [`Grid`], so a dataset or a simulated run that
//! several artifacts share is made once per process.

mod cluster;
mod paper;
mod sql;

use crate::harness::Grid;
use llmqo_datasets::DatasetId;

/// A subcommand: its name and what it prints.
pub type Artifact = (&'static str, fn(&mut Grid));

/// Every artifact, in the order `all` runs them.
pub const ARTIFACTS: [Artifact; 21] = [
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("table3", paper::table3),
    ("table4", paper::table4),
    ("table5", paper::table5),
    ("table6", paper::table6),
    ("table7", paper::table7),
    ("fig1", paper::fig1),
    ("fig3a", paper::fig3a),
    ("fig3b", paper::fig3b),
    ("fig4", paper::fig4),
    ("fig5", paper::fig5),
    ("fig6", paper::fig6),
    ("fig_cluster", cluster::fig_cluster),
    ("diagnose", |grid| paper::diagnose(grid, &DatasetId::all())),
    ("table_sqlopt", sql::table_sqlopt),
    ("table_adaptive", sql::table_adaptive),
    ("perf_chaos", cluster::perf_chaos),
    ("perf_overload", cluster::perf_overload),
    ("perf_pipeline", sql::perf_pipeline),
    ("perf_cascade", sql::perf_cascade),
];

/// One thing the command line asked for.
#[derive(Debug)]
enum Job {
    Artifact(&'static Artifact),
    /// `diagnose <dataset>`: the calibration tables of one dataset.
    Diagnose(DatasetId),
}

/// The jobs the arguments after the binary's name ask for: one artifact's
/// name, `diagnose <dataset>` (any case), or `all` for every artifact in
/// table order.
///
/// # Errors
///
/// A one-line message listing the choices for anything else.
fn parse<S: AsRef<str>>(args: &[S]) -> Result<Vec<Job>, String> {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let jobs = match args[..] {
        ["all"] => Some(ARTIFACTS.iter().map(Job::Artifact).collect()),
        ["diagnose", name] => DatasetId::all()
            .into_iter()
            .find(|id| id.name().eq_ignore_ascii_case(name))
            .map(|id| vec![Job::Diagnose(id)]),
        [name] => ARTIFACTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|artifact| vec![Job::Artifact(artifact)]),
        _ => None,
    };
    jobs.ok_or_else(|| {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        let datasets: Vec<&str> = DatasetId::all().iter().map(|id| id.name()).collect();
        format!(
            "artifacts: got {args:?}; expected `all`, `diagnose <{}>` or one of {}",
            datasets.join("|"),
            names.join(", ")
        )
    })
}

/// Runs the artifacts the command line names, in order, on one [`Grid`]; a
/// missing or unknown name is a one-line error and exit status 2.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = parse(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        std::process::exit(2)
    });
    let mut grid = Grid::default();
    for job in jobs {
        match job {
            Job::Artifact((_, run)) => run(&mut grid),
            Job::Diagnose(id) => paper::diagnose(&mut grid, &[id]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(jobs: &[Job]) -> Vec<&'static str> {
        jobs.iter()
            .map(|job| match job {
                Job::Artifact((name, _)) => *name,
                Job::Diagnose(_) => "diagnose <dataset>",
            })
            .collect()
    }

    #[test]
    fn every_name_resolves_to_its_own_entry() {
        for (name, _) in ARTIFACTS {
            assert_eq!(names(&parse(&[name]).expect(name)), [name]);
        }
        let mut sorted: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ARTIFACTS.len(), "artifact names are unique");
    }

    #[test]
    fn all_runs_every_entry_once_in_table_order() {
        let all = parse(&["all"]).expect("all");
        let table: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&all), table);
    }

    #[test]
    fn diagnose_takes_a_dataset() {
        assert!(matches!(
            parse(&["diagnose", "movies"])
                .expect("a dataset")
                .as_slice(),
            [Job::Diagnose(DatasetId::Movies)]
        ));
        assert!(matches!(
            parse(&["diagnose", "SQuAD"]).expect("any case").as_slice(),
            [Job::Diagnose(DatasetId::Squad)]
        ));
    }

    #[test]
    fn anything_else_is_a_one_line_error() {
        let bad: [&[&str]; 7] = [
            &[],
            &["table8"],
            &["Table2"],
            &["table2", "table3"],
            &["all", "table2"],
            &["diagnose", "imdb"],
            &["diagnose", "movies", "beer"],
        ];
        for args in bad {
            let problem = parse(args).expect_err(&format!("{args:?}"));
            assert!(!problem.contains('\n'), "{problem}");
            assert!(problem.starts_with("artifacts"), "{problem}");
        }
        let problem = parse::<&str>(&[]).expect_err("no name");
        assert!(
            problem.contains("table1") && problem.contains("all"),
            "{problem}"
        );
    }
}
