//! Everything random in the benchmark, derived from `--seed`: the row
//! sample of each generated table and the per-row truth labels (arrival
//! times, the fault plan and the cascade confidence stream take the seed
//! through the crates' own seeded constructors). The program under test
//! receives only the generated inputs.

use llmqo_datasets::{Dataset, DatasetId};

/// SplitMix64 finalizer over `(seed, x)`.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(x.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed by `(seed, x)`.
pub fn unit(seed: u64, x: u64) -> f64 {
    (mix(seed, x) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a, the digest the checks and the input fingerprint fold into.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Share of each generated table a run keeps.
const SAMPLE_SHARE: f64 = 0.9;

/// A seeded without-replacement sample of `0..n`, in ascending order
/// (Knuth's selection sampling), so the generated row order — and with it
/// the original-order adjacency the datasets are calibrated to — survives.
pub fn sample_rows(n: usize, seed: u64) -> Vec<usize> {
    let keep = ((n as f64) * SAMPLE_SHARE).round() as usize;
    let mut rows = Vec::with_capacity(keep);
    for i in 0..n {
        let need = keep - rows.len();
        if unit(seed, i as u64) * ((n - i) as f64) < need as f64 {
            rows.push(i);
        }
    }
    rows
}

/// Generates `id` with `rows` rows and keeps a seeded 90% of them. Declared
/// functional dependencies hold on any subset of rows, so they carry over.
pub fn sampled_dataset(id: DatasetId, rows: usize, seed: u64) -> Dataset {
    let full = Dataset::generate_with_rows(id, rows);
    let keep = sample_rows(full.table.nrows(), mix(seed, id as u64));
    Dataset {
        id,
        table: full.table.select_rows(&keep),
        fds: full.fds,
        queries: full.queries,
    }
}

/// Folds every cell of `ds` into `h`.
pub fn digest_dataset(mut h: u64, ds: &Dataset) -> u64 {
    use std::fmt::Write;
    // One reused buffer: this runs inside the timed set-up, which should
    // not pay for an allocation per cell.
    let mut cell = String::new();
    for c in 0..ds.table.ncols() {
        for v in ds.table.column(c) {
            cell.clear();
            write!(cell, "{v}\0").expect("writing to a String cannot fail");
            h = fnv(h, cell.as_bytes());
        }
    }
    h
}

/// The ground truth of one job: `OracleLlm` answers with it, and the
/// benchmark computes every expected output from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    seed: u64,
    labels: Vec<String>,
    /// Cumulative share of rows up to and including each label.
    upto: Vec<f64>,
}

impl Truth {
    /// Labels drawn with the given shares (which sum to 1).
    pub fn weighted(seed: u64, mix: &[(&str, f64)]) -> Self {
        let mut total = 0.0;
        Truth {
            seed,
            labels: mix.iter().map(|(label, _)| (*label).to_owned()).collect(),
            upto: mix
                .iter()
                .map(|(_, share)| {
                    total += share;
                    total
                })
                .collect(),
        }
    }

    /// Uniform over `labels`; free text (one distinct string per row) when
    /// `labels` is empty.
    pub fn uniform(seed: u64, labels: &[String]) -> Self {
        let share = 1.0 / labels.len().max(1) as f64;
        let mix: Vec<(&str, f64)> = labels.iter().map(|l| (l.as_str(), share)).collect();
        Truth::weighted(seed, &mix)
    }

    pub fn at(&self, row: usize) -> String {
        let Some(last) = self.labels.last() else {
            let tag = mix(self.seed, row as u64) as u32;
            return format!("Synthesized answer {tag:08x} for record {row}.");
        };
        let u = unit(self.seed, row as u64);
        let pick = self.upto.iter().position(|&edge| u < edge);
        pick.map_or(last, |i| &self.labels[i]).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_keeps_ninety_percent_in_order() {
        let rows = sample_rows(1000, 5);
        assert_eq!(rows.len(), 900);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert!(*rows.last().expect("non-empty") < 1000);
        assert_eq!(rows, sample_rows(1000, 5));
        assert_ne!(rows, sample_rows(1000, 6));
        assert!(sample_rows(0, 1).is_empty());
    }

    #[test]
    fn truth_follows_its_shares() {
        let skewed = Truth::weighted(3, &[("Yes", 0.05), ("Maybe", 0.9), ("No", 0.05)]);
        let count = |label: &str| (0..20_000).filter(|&r| skewed.at(r) == label).count();
        assert!((800..1200).contains(&count("Yes")), "{}", count("Yes"));
        assert!((800..1200).contains(&count("No")), "{}", count("No"));
        assert_eq!(count("Yes") + count("Maybe") + count("No"), 20_000);
        let labels: Vec<String> = (1..=5).map(|v| v.to_string()).collect();
        let scores = Truth::uniform(3, &labels);
        for want in &labels {
            let n = (0..10_000).filter(|&r| &scores.at(r) == want).count();
            assert!((1700..2300).contains(&n), "{want}: {n}");
        }
        let text = Truth::uniform(3, &[]);
        assert_ne!(text.at(1), text.at(2));
        assert_eq!(text.at(1), text.at(1));
    }
}
