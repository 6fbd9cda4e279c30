//! Property test of analysis determinism: the findings must be identical
//! no matter what order files are visited in.

// Integration-test crate: unwraps on test data are the assertion.
#![allow(clippy::unwrap_used)]

use std::path::Path;

use fpb_analyze::rules::Violation;
use fpb_analyze::semantic::{self, FileFacts};
use proptest::prelude::*;

/// The fixture corpus, with crate keys matching the harness.
const CORPUS: &[(&str, &str)] = &[
    ("panic_reachability.rs", "sim"),
    ("panic_reachability_clean.rs", "sim"),
    ("atomic_ordering.rs", "sim"),
    ("atomic_ordering_clean.rs", "sim"),
];

fn corpus_facts() -> Vec<FileFacts> {
    CORPUS
        .iter()
        .map(|(name, key)| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures")
                .join(name);
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            semantic::file_facts(name, key, &src)
        })
        .collect()
}

/// A seed-determined permutation of `0..n` (Fisher–Yates over an LCG),
/// so proptest explores visit orders without a shuffle combinator.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (seed >> 33) as usize % (i + 1));
    }
    order
}

proptest! {
    #[test]
    fn findings_are_identical_under_file_order_shuffles(seed in any::<u64>()) {
        let facts = corpus_facts();
        let order = permutation(facts.len(), seed);
        let reference: Vec<Violation> = semantic::analyze(&facts);
        let shuffled: Vec<FileFacts> =
            order.iter().map(|&i| facts[i].clone()).collect();
        prop_assert_eq!(semantic::analyze(&shuffled), reference, "order {:?}", order);
    }
}
