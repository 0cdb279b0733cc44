//! Deterministic pseudo-randomness for fault injection.
//!
//! Every stochastic decision in the workspace's failure machinery — transient
//! error rolls, retry-backoff jitter — draws from [`fault_unit`], a counter
//! -based SplitMix64 generator: the draw is a pure function of
//! `(seed, stream, draw)`, so a chaos run is reproducible byte for byte from
//! its seed alone, independent of evaluation order, thread scheduling, or
//! how many other streams drew in between. Zero wall-clock, zero state.

/// SplitMix64 finalizer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic uniform draw in `[0, 1)` keyed by `(seed, stream, draw)`.
///
/// `stream` identifies the logical entity (a request id, a replica index)
/// and `draw` the occasion (an attempt number, a submission counter), so
/// distinct decisions never share a draw and the same decision always
/// reproduces it. 53-bit resolution.
///
/// # Examples
///
/// ```
/// use llmqo_serve::fault_unit;
///
/// let u = fault_unit(7, 42, 1);
/// assert!((0.0..1.0).contains(&u));
/// assert_eq!(u, fault_unit(7, 42, 1));
/// assert_ne!(u, fault_unit(7, 42, 2));
/// assert_ne!(u, fault_unit(8, 42, 1));
/// ```
pub fn fault_unit(seed: u64, stream: u64, draw: u64) -> f64 {
    let z = mix64(seed ^ mix64(stream).wrapping_add(mix64(draw.wrapping_add(0x51ed_2701))));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_in_range() {
        for seed in 0..4u64 {
            for stream in 0..16u64 {
                for draw in 0..16u64 {
                    let u = fault_unit(seed, stream, draw);
                    assert!((0.0..1.0).contains(&u));
                    assert_eq!(u, fault_unit(seed, stream, draw));
                }
            }
        }
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| fault_unit(3, 9, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let below: usize = (0..n).filter(|&i| fault_unit(3, 9, i) < 0.1).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "P(<0.1) = {frac}");
    }

    #[test]
    fn streams_are_independent() {
        // Adjacent streams/draws must not produce correlated values.
        let a: Vec<f64> = (0..64).map(|d| fault_unit(1, 5, d)).collect();
        let b: Vec<f64> = (0..64).map(|d| fault_unit(1, 6, d)).collect();
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert_eq!(same, 0);
    }
}
