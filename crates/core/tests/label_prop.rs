//! The join's reverse-DNS label, computed from a block's PTR template,
//! against the per-name reference: `classify_block` over the block's 256
//! rendered `ptr_name`s.

use proptest::prelude::*;
use sleepwatch_core::{analyze_world, block_label, AnalysisConfig};
use sleepwatch_geoecon::COUNTRIES;
use sleepwatch_linktype::{classify_block, BlockLabel};
use sleepwatch_simnet::{ptr_name, BlockProfile, BlockSpec, LinkClass, World, WorldConfig};

/// The label counted name by name, as §2.3.3 states it.
fn per_name_label(block: &BlockSpec) -> BlockLabel {
    let names: Vec<Option<String>> = (0..=255u8).map(|addr| ptr_name(block, addr)).collect();
    classify_block(names.iter().map(Option::as_deref))
}

fn arb_block() -> impl Strategy<Value = BlockSpec> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        0..COUNTRIES.len(),
        prop::collection::vec(0..LinkClass::ALL.len(), 0..3),
    )
        .prop_map(|(id, seed, asn, country_idx, links)| {
            let mut b = BlockSpec::bare(id, seed, BlockProfile::always_on(100, 0.8));
            b.asn = asn;
            b.country_idx = country_idx;
            b.links = links.into_iter().map(|i| LinkClass::ALL[i]).collect();
            b
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Counts, named addresses and surviving features all agree.
    #[test]
    fn template_label_equals_the_per_name_label(block in arb_block()) {
        prop_assert_eq!(block_label(&block), per_name_label(&block));
    }
}

/// Every country, with every link class alone, paired with another and
/// paired with itself.
#[test]
fn template_label_equals_the_per_name_label_over_every_country_and_class() {
    for country_idx in 0..COUNTRIES.len() {
        for (i, &first) in LinkClass::ALL.iter().enumerate() {
            let second = LinkClass::ALL[(i + country_idx + 1) % LinkClass::ALL.len()];
            for (id, links) in [(0, vec![first]), (1, vec![first, second]), (2, vec![first, first])]
            {
                let mut b = BlockSpec::bare(
                    country_idx as u64 * 64 + i as u64 * 4 + id,
                    9,
                    BlockProfile::always_on(100, 0.8),
                );
                b.country_idx = country_idx;
                b.asn = 100 + country_idx as u32;
                b.links = links.into_iter().collect();
                assert_eq!(block_label(&b), per_name_label(&b), "{b:?}");
            }
        }
    }
}

/// A world run's joined `link_features` equal the per-name path's on
/// every block.
#[test]
fn a_world_runs_link_features_equal_the_per_name_path() {
    let wcfg = WorldConfig { num_blocks: 4096, seed: 23, span_days: 2.0, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    let world = World::generate(wcfg);
    let analysis = analyze_world(&world, &cfg, 2, None);
    assert_eq!(analysis.reports.len(), world.blocks.len());
    let mut labelled = 0;
    for (report, block) in analysis.reports.iter().zip(&world.blocks) {
        assert_eq!(report.summary.block_id, block.id);
        let want = per_name_label(block).features.kept();
        assert_eq!(report.link_features, want, "block {}", block.id);
        labelled += usize::from(!want.is_empty());
    }
    assert!(labelled > 1000, "only {labelled} labelled blocks");
}
