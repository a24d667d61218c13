//! Percentile and quartile arithmetic on known vectors.

use gridbench::compare::{relative_change, verdict, Verdict};
use gridbench::stats::{median, percentile, quartiles, spread};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 95.0), 95);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&v, 100.0), 100);
    assert_eq!(percentile(&v, 0.0), 1);
    assert_eq!(percentile(&[7], 95.0), 7);
    assert_eq!(percentile(&[], 50.0), 0);
    // Ten samples: the 95th percentile is the largest.
    let ten: Vec<u64> = (1..=10).map(|x| x * 10).collect();
    assert_eq!(percentile(&ten, 95.0), 100);
    assert_eq!(percentile(&ten, 50.0), 50);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(median(&v), 5.5);
    assert!((spread(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(spread(&[1.0]), 0.0);
}

#[test]
fn verdicts() {
    // Throughput fell 12 % against a 10 % bound: worse. Rose 12 %: better.
    assert_eq!(
        verdict(relative_change(100.0, 88.0, "higher"), Some(0.02), 0.10),
        Verdict::Worse
    );
    assert_eq!(
        verdict(relative_change(100.0, 112.0, "higher"), Some(0.02), 0.10),
        Verdict::Better
    );
    // Latency rose 5 % against a 10 % bound: same.
    assert_eq!(
        verdict(relative_change(100.0, 105.0, "lower"), Some(0.02), 0.10),
        Verdict::Same
    );
    // Spread wider than the bound, or a single run a side: cannot tell.
    assert_eq!(
        verdict(relative_change(100.0, 150.0, "lower"), Some(0.12), 0.10),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(relative_change(100.0, 150.0, "lower"), None, 0.10),
        Verdict::Unresolved
    );
}
