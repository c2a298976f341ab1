//! Property-based tests for the link-type classifier.

use proptest::prelude::*;
use sleepwatch_linktype::{address_features, classify_block, LinkFeature};

/// Arbitrary hostname-ish strings.
fn hostname() -> impl Strategy<Value = String> {
    "[a-z0-9-]{0,20}(\\.[a-z]{2,8}){0,3}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn classifier_never_panics(names in prop::collection::vec(prop::option::of(hostname()), 0..256)) {
        let label = classify_block(names.iter().map(|n| n.as_deref()));
        prop_assert!(label.named_addresses as usize <= names.len());
        // Surviving features all have non-zero counts.
        for f in label.features.features() {
            prop_assert!(label.counts[f.index()] > 0);
        }
    }

    #[test]
    fn surviving_features_meet_threshold(
        names in prop::collection::vec(prop::option::of(hostname()), 0..256)
    ) {
        let label = classify_block(names.iter().map(|n| n.as_deref()));
        let max = label.counts.iter().copied().max().unwrap_or(0);
        for f in LinkFeature::ALL {
            let c = label.counts[f.index()];
            let survives = label.features.contains(f);
            if survives {
                prop_assert!(c >= max.div_ceil(15), "{f}: {c} of max {max}");
            } else {
                prop_assert!(c == 0 || c < max.div_ceil(15));
            }
        }
    }

    #[test]
    fn address_features_consistent_with_substrings(name in hostname()) {
        let fs = address_features(&name);
        for f in LinkFeature::ALL {
            prop_assert_eq!(
                fs.contains(f),
                name.to_ascii_lowercase().contains(f.keyword()),
                "feature {} on {}", f, name
            );
        }
    }

    #[test]
    fn case_insensitivity(name in hostname()) {
        let upper = name.to_ascii_uppercase();
        prop_assert_eq!(address_features(&name), address_features(&upper));
    }

    #[test]
    fn kept_features_is_a_subset(names in prop::collection::vec(prop::option::of(hostname()), 0..64)) {
        let label = classify_block(names.iter().map(|n| n.as_deref()));
        for f in label.features.kept().features() {
            prop_assert!(label.features.contains(f));
            prop_assert!(!f.discarded());
        }
    }
}
