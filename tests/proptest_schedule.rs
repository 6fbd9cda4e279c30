//! Property: the cost-ordered schedule fed to the supervised sweep pool
//! steers only *when* items run, so arbitrary (even adversarially wrong)
//! cost vectors must leave results and outcomes in input order.

use proptest::prelude::*;

use fpb::sim::supervise::supervise_map_ordered;
use fpb::sim::{schedule_by_cost, CancelToken, JobOutcome, SupervisePolicy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn supervise_map_ordered_invariant_under_arbitrary_costs(
        costs in prop::collection::vec(0u64..1_000_000, 40),
        jobs in 1usize..5,
    ) {
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<Option<u64>> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| Some(x * 7 + i as u64))
            .collect();
        let report = supervise_map_ordered(
            items,
            &SupervisePolicy { jobs, ..SupervisePolicy::default() },
            &CancelToken::new(),
            Some(schedule_by_cost(&costs)),
            |i, &x| x * 7 + i as u64,
            |_, _| {},
        );
        prop_assert_eq!(report.results, expect, "results must ignore the cost schedule");
        prop_assert_eq!(report.outcomes, vec![JobOutcome::Ok; 40]);
    }
}
