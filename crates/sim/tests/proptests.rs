//! Property-based tests of the simulation substrate: statistical sanity
//! of the distributions and arrival processes. The queueing models'
//! conservation, capacity and determinism properties are tested where
//! they run, in `jmst-harness`'s `model_proptests`.

use jmst_sim::{ArrivalProcess, DurationDist, SimRng};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn duration_distributions_sample_nonnegative_and_near_mean(
        mean_ms in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        for dist in [
            DurationDist::constant(Duration::from_millis(mean_ms)),
            DurationDist::exponential(Duration::from_millis(mean_ms)),
            DurationDist::normal(
                Duration::from_millis(mean_ms),
                Duration::from_millis(mean_ms / 4 + 1),
            ),
            DurationDist::uniform(
                Duration::from_millis(mean_ms / 2),
                Duration::from_millis(mean_ms * 3 / 2 + 1),
            ),
        ] {
            let n = 2_000u32;
            let total: Duration = (0..n).map(|_| dist.sample(&mut rng)).sum();
            let sample_mean_ms = total.as_secs_f64() * 1e3 / f64::from(n);
            // Loose statistical envelope: within 25% of nominal.
            prop_assert!(
                (sample_mean_ms - mean_ms as f64).abs() <= mean_ms as f64 * 0.25 + 1.0,
                "{dist}: sample mean {sample_mean_ms} vs {mean_ms}"
            );
        }
    }

    #[test]
    fn arrival_generators_hit_their_mean_rate(
        rate in 5.0f64..500.0,
        seed in any::<u64>(),
    ) {
        for process in [
            ArrivalProcess::steady(rate),
            ArrivalProcess::poisson(rate),
        ] {
            let mut generator = process.generator(SimRng::seed_from_u64(seed));
            let n = 5_000;
            let total: Duration = (0..n).map(|_| generator.next_gap()).sum();
            let measured = f64::from(n) / total.as_secs_f64();
            prop_assert!(
                (measured - rate).abs() / rate < 0.1,
                "{process}: measured {measured} vs {rate}"
            );
        }
    }
}
