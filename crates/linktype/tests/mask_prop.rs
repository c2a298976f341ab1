//! The one-pass keyword matcher against `to_ascii_lowercase().contains`.

use proptest::prelude::*;
use sleepwatch_linktype::{feature_mask, LinkFeature};

/// The reference: one lower-cased copy and sixteen substring searches.
fn reference_mask(name: &str) -> u16 {
    let lower = name.to_ascii_lowercase();
    LinkFeature::ALL
        .iter()
        .filter(|f| lower.contains(f.keyword()))
        .fold(0, |mask, f| mask | 1 << f.index())
}

/// Names built from keywords in either case, keyword fragments, non-ASCII
/// letters (some whose Unicode lower case is ASCII, which
/// `to_ascii_lowercase` must not apply) and filler.
fn name() -> impl Strategy<Value = String> {
    "(sta|dyn|srv|rtr|gw|dhcp|ppp|dsl|dial|cable|ded|res|client|sql|wireless|wifi|STA|DhCp|WiFi|GW|Res|dh|wi|cli|re|s|d|é|ß|İ|K|ſ|[a-zA-Z0-9.-]){0,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mask_matches_lowercase_contains(name in name()) {
        prop_assert_eq!(feature_mask(&name), reference_mask(&name), "{:?}", name);
    }
}

#[test]
fn mask_matches_lowercase_contains_at_the_edges() {
    for name in [
        "",
        "d",
        "gw",
        "dhc",
        "dhcpdialup",
        "wirelesswifi",
        "resres",
        "dededed",
        "pppp",
        "staSTAsta",
        "cable-000.example.net",
        "x.wifi",
        "gw.x",
        "WIRELESS",
        "wİfi",
        "\u{212A}wifi",
        "ſta",
        "dé-sl",
        "clientsqlsrvrtr",
    ] {
        assert_eq!(feature_mask(name), reference_mask(name), "{name:?}");
    }
    for f in LinkFeature::ALL {
        let kw = f.keyword();
        let upper = kw.to_ascii_uppercase();
        for name in [kw.to_string(), format!("x{kw}"), format!("{kw}x"), upper] {
            assert_eq!(feature_mask(&name) & (1 << f.index()), 1 << f.index(), "{name:?}");
        }
        assert_eq!(feature_mask(&kw[1..]) & (1 << f.index()), 0, "{kw} without its first byte");
    }
}
