//! Pure helpers: percentiles, medians, best-of-laps times and the metric
//! output formats.

use std::collections::BTreeMap;
use std::time::Duration;

/// Fewest timed requests a p95 may be taken from: the nearest-rank p95 of
/// `n` samples has `n / 20` samples beyond it, and it should have at least
/// ten.
pub const MIN_P95_SAMPLES: usize = 200;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, which summarize
/// `samples` timed requests: the smallest value with at least `q · n`
/// values at or below it.
///
/// # Errors
///
/// Refuses no values, and any percentile above the median taken from fewer
/// than [`MIN_P95_SAMPLES`] samples.
pub fn percentile(values: &[f64], q: f64, samples: usize) -> Result<f64, String> {
    if values.is_empty() {
        return Err("percentile of no samples".to_owned());
    }
    if q > 0.5 && samples < MIN_P95_SAMPLES {
        return Err(format!(
            "p{} needs at least {MIN_P95_SAMPLES} samples, got {samples}",
            q * 100.0
        ));
    }
    Ok(nearest_rank(values.to_vec(), q))
}

fn nearest_rank(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The best time of each input a run repeats, lap after lap. Other work on
/// a shared host only ever adds time to a request, in bursts that meet
/// some laps and miss others and in slow spells that last seconds, so an
/// input's fastest lap is the estimate such load moves least; it still
/// moves with the code.
pub struct Best<K> {
    by_input: BTreeMap<K, f64>,
    samples: usize,
}

impl<K: Ord> Best<K> {
    /// Groups `(input, time)` samples by input.
    pub fn new(samples: impl IntoIterator<Item = (K, f64)>) -> Self {
        let mut by_input: BTreeMap<K, f64> = BTreeMap::new();
        let mut count = 0;
        for (input, value) in samples {
            let best = by_input.entry(input).or_insert(value);
            *best = best.min(value);
            count += 1;
        }
        Best {
            by_input,
            samples: count,
        }
    }

    /// Percentile `q` over the inputs' best times.
    ///
    /// # Errors
    ///
    /// As [`percentile`], counting every sample behind the best times.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        let values: Vec<f64> = self.by_input.values().copied().collect();
        percentile(&values, q, self.samples)
    }

    /// The best time of `input`, if it was timed.
    pub fn get(&self, input: &K) -> Option<f64> {
        self.by_input.get(input).copied()
    }

    /// Every timed input with its best time.
    pub fn iter(&self) -> impl Iterator<Item = (&K, f64)> {
        self.by_input.iter().map(|(k, v)| (k, *v))
    }
}

/// Milliseconds, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One metric as printed: `name value unit`.
pub fn metric_line(name: &str, value: f64, unit: &str) -> String {
    format!("{name} {value} {unit}")
}

/// One metric as a JSON member: `"name": {"value": v, "unit": "u"}`.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_below_two_hundred_samples() {
        let few: Vec<f64> = (1..200).map(f64::from).collect();
        assert!(percentile(&few, 0.95, few.len()).is_err());
        assert_eq!(percentile(&few, 0.5, few.len()), Ok(100.0));
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.95, enough.len()), Ok(190.0));
        assert!(percentile(&[], 0.5, 0).is_err());
        // Twenty values that summarize two hundred samples are enough.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.95, 200), Ok(19.0));
        assert!(percentile(&twenty, 0.95, 199).is_err());
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.5, 5), Ok(3.0));
        assert_eq!(percentile(&samples, 0.2, 5), Ok(1.0));
        assert_eq!(percentile(&samples, 0.21, 5), Ok(2.0));
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn an_input_counts_at_its_fastest_lap() {
        // Input 'a' ran eight laps, two of them slowed by a burst; 'b' ran
        // three.
        let a = [9.0, 4.5, 30.0, 5.0, 4.5, 6.0, 25.0, 5.5];
        let b = [12.0, 10.0, 11.0];
        let samples = a
            .iter()
            .map(|&t| ('a', t))
            .chain(b.iter().map(|&t| ('b', t)));
        let best = Best::new(samples);
        assert_eq!(best.get(&'a'), Some(4.5));
        assert_eq!(best.get(&'b'), Some(10.0));
        assert_eq!(best.get(&'c'), None);
        assert_eq!(best.iter().count(), 2);
        assert_eq!(best.percentile(0.5), Ok(4.5));
        // Eleven samples are too few for a p95.
        assert!(best.percentile(0.95).is_err());
    }

    #[test]
    fn metrics_print_as_name_value_unit() {
        assert_eq!(
            metric_line("latency_p50_ms", 6.625, "ms"),
            "latency_p50_ms 6.625 ms"
        );
        assert_eq!(
            metric_json("setup_s", 0.5, "s"),
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"
        );
        // Every digit survives: nothing is rounded away.
        let v = 1.0 / 3.0;
        assert_eq!(metric_line("x", v, "ms"), format!("x {v} ms"));
        assert_eq!(format!("{v}").parse::<f64>(), Ok(v));
    }
}
