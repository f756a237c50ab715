//! The profiling-accuracy metric of Fig. 10.

/// Profiling accuracy as reported in Fig. 10: `mean(max(0, 1 − |ŷ−y|/y))`
/// over the test set (the "1 − MAPE" accuracy, clipped at zero per
/// sample). Samples with non-positive ground truth are skipped.
///
/// Returns 0 for empty inputs.
pub fn accuracy(truth: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(truth.len(), predictions.len(), "length mismatch");
    let mut acc = 0.0;
    let mut count = 0usize;
    for (&y, &p) in truth.iter().zip(predictions) {
        if y > 0.0 {
            acc += (1.0 - (p - y).abs() / y).max(0.0);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let y = [1.0, 2.0, 4.0];
        assert!((accuracy(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_clips_at_zero() {
        // 300% error on a single sample clips to 0, not -2.
        assert_eq!(accuracy(&[1.0], &[4.0]), 0.0);
    }

    #[test]
    fn accuracy_is_one_minus_mape_when_errors_small() {
        let y = [10.0, 20.0];
        let p = [11.0, 18.0];
        // MAPE = (1/10 + 2/20) / 2 = 0.1.
        assert!((accuracy(&y, &p) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn skips_non_positive_truths() {
        assert_eq!(accuracy(&[0.0, -1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
