//! Property-based tests for geography/registry substrates.

use proptest::prelude::*;
use sleepwatch_geoecon::rng::{chance_at, hash_parts, uniform_at, KeyPrefix, KeyedRng};
use sleepwatch_geoecon::{AllocationRegistry, GeoConfig, GeoDatabase, Rir, YearMonth, COUNTRIES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn year_month_roundtrips(m in -600i64..2_000) {
        let ym = YearMonth::from_months_since_epoch(m);
        prop_assert_eq!(ym.months_since_epoch(), m);
    }

    #[test]
    fn months_between_is_antisymmetric(a in 0i64..1_000, b in 0i64..1_000) {
        let ya = YearMonth::from_months_since_epoch(a);
        let yb = YearMonth::from_months_since_epoch(b);
        prop_assert_eq!(ya.months_between(yb), -(yb.months_between(ya)));
    }

    #[test]
    fn keyed_rng_outputs_unit_interval(parts in prop::collection::vec(any::<u64>(), 1..6)) {
        let mut rng = KeyedRng::from_parts(&parts);
        for _ in 0..32 {
            let u = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_respects_bound(parts in prop::collection::vec(any::<u64>(), 1..4), n in 1u64..10_000) {
        let mut rng = KeyedRng::from_parts(&parts);
        for _ in 0..16 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn hash_is_pure(parts in prop::collection::vec(any::<u64>(), 0..8)) {
        prop_assert_eq!(hash_parts(&parts), hash_parts(&parts));
    }

    /// A key hashed from any stored prefix is the key hashed whole: the
    /// prober's per-block prefixes change no draw.
    #[test]
    fn prefix_then_rest_is_the_whole_key(parts in prop::collection::vec(any::<u64>(), 0..9)) {
        for k in 0..=parts.len() {
            let (head, rest) = parts.split_at(k);
            let prefix = KeyPrefix::new(head);
            prop_assert_eq!(prefix.hash(rest), hash_parts(&parts), "split {}", k);
            prop_assert_eq!(prefix.uniform(rest).to_bits(), uniform_at(&parts).to_bits());
        }
    }

    #[test]
    fn geolocation_outputs_valid_coordinates(
        seed in any::<u64>(),
        block in any::<u64>(),
        ci in 0usize..COUNTRIES.len(),
        dlon in -5.0f64..5.0,
        dlat in -5.0f64..5.0,
    ) {
        let db = GeoDatabase::with_config(
            seed,
            GeoConfig { coverage: 1.0, error_km: 40.0, centroid_fraction: 0.1 },
        );
        let c = &COUNTRIES[ci];
        let loc = db.locate(block, c, (c.lon + dlon).clamp(-179.9, 179.9), (c.lat + dlat).clamp(-85.0, 85.0));
        let loc = loc.expect("full coverage configured");
        prop_assert!((-180.0..180.0).contains(&loc.lon));
        prop_assert!((-90.0..=90.0).contains(&loc.lat));
        prop_assert_eq!(loc.country, c.code);
    }

    #[test]
    fn registry_pick_is_always_in_rir(seed in any::<u64>(), key in any::<u64>(), m in 0i64..360) {
        let reg = AllocationRegistry::synthesize(seed);
        for rir in [Rir::Arin, Rir::RipeNcc, Rir::Apnic, Rir::Lacnic, Rir::Afrinic] {
            let p = reg.pick_prefix(rir, YearMonth::from_months_since_epoch(m), key);
            prop_assert_eq!(reg.get(p).expect("allocated").rir, rir);
        }
    }
}

/// (key, `hash_parts`, `uniform_at` bits, `chance_at(0.5)`, `next_u64`,
/// `normal` bits).
type KnownAnswer = (&'static [u64], u64, u64, bool, u64, u64);

/// The keyed hash by value, recorded before the hash was written over
/// [`KeyPrefix`]: every stream in the workspace (worlds, probes, faults)
/// depends on these bits, so a change to the mixing rule must fail here
/// rather than as a golden diff.
#[test]
fn keyed_hash_known_answers() {
    let cases: [KnownAnswer; 4] = [
        (
            &[],
            0x2cb0_f69f_4abe_a221,
            0x3fc6_587b_4fa5_5f50,
            true,
            0x93a9_bdb5_1e5d_5285,
            0xbff0_8f6a_66a0_69ba,
        ),
        (
            &[7],
            0x17f2_a255_ee62_4158,
            0x3fb7_f2a2_55ee_6240,
            true,
            0x782f_27c0_0f12_d643,
            0xbff2_a973_cc1e_1fbd,
        ),
        (
            &[1, 2, 3, 4],
            0xd437_8315_a077_6644,
            0x3fea_86f0_62b4_0eec,
            false,
            0x8392_4103_234e_26aa,
            0x3fcc_382f_8162_fd76,
        ),
        (
            &[42, 0x7072_6f62, 9, 17, 123_456],
            0x9f9c_202e_6d68_d5e1,
            0x3fe3_f384_05cd_ad1a,
            false,
            0x0933_e3fd_7812_8e66,
            0x4004_60b1_3b37_c9e6,
        ),
    ];
    for (key, hash, uniform, coin, next, normal) in cases {
        assert_eq!(hash_parts(key), hash, "hash_parts({key:?})");
        assert_eq!(uniform_at(key).to_bits(), uniform, "uniform_at({key:?})");
        assert_eq!(chance_at(0.5, key), coin, "chance_at(0.5, {key:?})");
        assert_eq!(KeyedRng::from_parts(key).next_u64(), next, "next_u64 of {key:?}");
        assert_eq!(KeyedRng::from_parts(key).normal().to_bits(), normal, "normal of {key:?}");
    }
}
