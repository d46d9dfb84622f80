//! Seeded open-loop arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets, in nanoseconds from the start of the window, of a
/// Poisson process at `rate` per second over `seconds`, conditioned on
/// its expected count: `round(rate * seconds)` independent uniform
/// times, sorted. Fixing the count keeps the offered load identical
/// across seeds while gaps stay exponential — bursts and lulls included.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "rate and seconds must be positive"
    );
    let n = (rate * seconds).round().max(1.0) as usize;
    let window_ns = seconds * 1e9;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.gen::<f64>() * window_ns) as u64)
        .collect();
    due.sort_unstable();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules() {
        assert_eq!(
            poisson_schedule(7, 250.0, 4.0),
            poisson_schedule(7, 250.0, 4.0)
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        assert_ne!(
            poisson_schedule(7, 250.0, 4.0),
            poisson_schedule(8, 250.0, 4.0)
        );
    }

    #[test]
    fn schedule_is_sorted_sized_and_inside_the_window() {
        let due = poisson_schedule(3, 250.0, 4.0);
        assert_eq!(due.len(), 1000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 4_000_000_000);
        // Poisson gaps: some arrivals closer than a fifth of the mean
        // gap, some further apart than twice it.
        let mean_gap = 4e9 / 1000.0;
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        assert!(gaps.iter().any(|&g| g < mean_gap / 5.0));
        assert!(gaps.iter().any(|&g| g > mean_gap * 2.0));
    }
}
