//! The PTR-name writer against a `format!` rendition of the same rule.

use proptest::prelude::*;
use sleepwatch_geoecon::rng::KeyedRng;
use sleepwatch_geoecon::COUNTRIES;
use sleepwatch_simnet::{ptr_name, BlockProfile, BlockSpec, LinkClass, PtrTemplate};

/// `rdns`'s stream tag for name-synthesis draws.
const STREAM_RDNS: u64 = 0x7264_6e73;

/// The name rule written out with `format!`, one allocation per piece.
fn reference_name(block: &BlockSpec, addr: u8) -> Option<String> {
    let mut blk = KeyedRng::from_parts(&[block.seed, STREAM_RDNS, block.id]);
    if blk.chance(0.45) || block.links.is_empty() {
        return None;
    }
    let country = COUNTRIES[block.country_idx].code.to_ascii_lowercase();
    let style = blk.below(3);
    let both_keywords = block.links.len() > 1 && blk.chance(0.6);
    if KeyedRng::from_parts(&[block.seed, STREAM_RDNS, block.id, addr as u64]).chance(0.15) {
        return None;
    }
    let kw1 = block.links[0].keyword();
    let tech = if both_keywords {
        format!("{}-{}", kw1, block.links[1].keyword())
    } else {
        kw1.to_string()
    };
    let host = match style {
        0 => format!("{tech}-{addr:03}"),
        1 => format!("{tech}{}-{addr}", block.id % 100),
        _ => format!("host{addr}.{tech}"),
    };
    Some(format!("{host}.isp{}.example.{country}", block.asn))
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_the_format_rendition_at_every_octet(block in arb_block()) {
        let template = PtrTemplate::of(&block);
        let mut out = String::from("prefix|");
        for addr in 0..=255u8 {
            let want = reference_name(&block, addr);
            prop_assert_eq!(ptr_name(&block, addr), want.clone(), "octet {}", addr);
            // The writer appends to what the buffer holds and leaves it
            // untouched where the address has no record.
            out.truncate("prefix|".len());
            let wrote = template.is_some_and(|t| t.write_name(addr, &mut out));
            prop_assert_eq!(wrote, want.is_some());
            prop_assert_eq!(&out[.."prefix|".len()], "prefix|");
            prop_assert_eq!(&out["prefix|".len()..], want.as_deref().unwrap_or(""));
        }
    }

}

#[test]
fn every_country_renders_in_lower_case() {
    for idx in 0..COUNTRIES.len() {
        for id in 0..8 {
            let mut b = BlockSpec::bare(id, 5, BlockProfile::always_on(100, 0.8));
            b.country_idx = idx;
            b.links = [LinkClass::Dsl, LinkClass::Cable].into();
            for addr in 0..=255u8 {
                assert_eq!(ptr_name(&b, addr), reference_name(&b, addr), "country {idx}");
            }
        }
    }
}
