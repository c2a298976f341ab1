//! Property tests pinning the batched real-FFT path to the single-series
//! path **bit-for-bit**.
//!
//! World runs group same-length series and push them through
//! `FftPlan::real_batch_with_scratch`; every golden and differential suite
//! in the workspace assumes the spectra are byte-identical to
//! `real_with_scratch`. These tests assert exact `f64` bit equality — not
//! approximate closeness — across transform kinds (radix-2, even and odd
//! Bluestein, tiny), lane counts 1–8, and the ragged final group a batch
//! of non-multiple-of-8 blocks produces.

use proptest::prelude::*;
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex, FftPlan, MAX_BATCH_LANES};

/// Single-series reference spectra via the scalar scratch path.
fn reference(plan: &FftPlan, series: &[Vec<f64>]) -> Vec<Vec<Complex>> {
    let mut scratch = vec![Complex::ZERO; plan.real_scratch_len()];
    series
        .iter()
        .map(|s| {
            let mut out = vec![Complex::ZERO; plan.len()];
            plan.real_with_scratch(s, &mut out, &mut scratch);
            out
        })
        .collect()
}

/// Batched spectra for the same series.
fn batched(
    plan: &FftPlan,
    series: &[Vec<f64>],
    scratch: &mut BatchRealScratch,
) -> Vec<Vec<Complex>> {
    let inputs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let mut outs: Vec<Vec<Complex>> =
        series.iter().map(|_| vec![Complex::ZERO; plan.len()]).collect();
    {
        let mut out_refs: Vec<&mut [Complex]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        plan.real_batch_with_scratch(&inputs, &mut out_refs, scratch);
    }
    outs
}

fn assert_bit_identical(a: &[Vec<Complex>], b: &[Vec<Complex>], ctx: &str) {
    assert_eq!(a.len(), b.len());
    for (lane, (x, y)) in a.iter().zip(b).enumerate() {
        for (k, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                (p.re.to_bits(), p.im.to_bits()),
                (q.re.to_bits(), q.im.to_bits()),
                "{ctx}: lane {lane} bin {k}: {p:?} vs {q:?}"
            );
        }
    }
}

/// Lengths covering every plan kind: tiny, pure radix-2, even lengths whose
/// half is radix-2 or Bluestein, odd Bluestein with the shortened real
/// convolution (131, 4451) and without (393, 1833), and the lengths world
/// runs produce (131, 393 and 4451 after the midnight trim).
const LENGTHS: &[usize] =
    &[1, 2, 3, 4, 6, 9, 12, 16, 30, 33, 100, 128, 131, 257, 393, 1833, 4451, 4582];

fn series_group(n: usize, lanes: usize, seed: u64) -> Vec<Vec<f64>> {
    // Cheap deterministic values with varied magnitudes and signs.
    (0..lanes)
        .map(|l| {
            (0..n)
                .map(|j| {
                    let t = seed as f64 + l as f64 * 0.37 + j as f64 * 0.113;
                    (t.sin() * 10.0_f64.powi((l % 5) as i32 - 2)) + (j % 3) as f64
                })
                .collect()
        })
        .collect()
}

#[test]
fn batch_matches_single_series_bitwise_across_kinds_and_lanes() {
    let mut scratch = BatchRealScratch::new();
    for &n in LENGTHS {
        let plan = plan_for(n);
        for lanes in 1..=MAX_BATCH_LANES {
            // Skip the slowest combinations to keep the sweep quick; the
            // survey lengths still cover every lane count ≤ 4 plus 8.
            if n > 1000 && !(lanes <= 4 || lanes == 8) {
                continue;
            }
            let series = series_group(n, lanes, n as u64 * 31 + lanes as u64);
            let want = reference(&plan, &series);
            let got = batched(&plan, &series, &mut scratch);
            assert_bit_identical(&want, &got, &format!("n={n} lanes={lanes}"));
        }
    }
}

/// A ragged tail — e.g. 11 series at one length split 8 + 3 — must be
/// bit-identical whichever grouping produced it.
#[test]
fn ragged_final_group_is_bit_identical() {
    let n = 60;
    let plan = plan_for(n);
    let series = series_group(n, 11, 7);
    let want = reference(&plan, &series);
    let mut scratch = BatchRealScratch::new();
    let first = batched(&plan, &series[..8], &mut scratch);
    let rest = batched(&plan, &series[8..], &mut scratch);
    let got: Vec<_> = first.into_iter().chain(rest).collect();
    assert_bit_identical(&want, &got, "ragged 8+3");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary lengths (1..=200, both parities), arbitrary lane counts,
    /// arbitrary values: batched output bits == scalar output bits.
    #[test]
    fn batch_is_bitwise_equal_for_arbitrary_inputs(
        n in 1usize..=200,
        lanes in 1usize..=MAX_BATCH_LANES,
        seed in 0u64..1000,
    ) {
        let plan = plan_for(n);
        let series = series_group(n, lanes, seed);
        let want = reference(&plan, &series);
        let mut scratch = BatchRealScratch::new();
        let got = batched(&plan, &series, &mut scratch);
        for (lane, (x, y)) in want.iter().zip(&got).enumerate() {
            for (k, (p, q)) in x.iter().zip(y).enumerate() {
                prop_assert_eq!(
                    (p.re.to_bits(), p.im.to_bits()),
                    (q.re.to_bits(), q.im.to_bits()),
                    "n={} lanes={} lane {} bin {}", n, lanes, lane, k
                );
            }
        }
    }
}

/// Steady state allocates nothing new: after one warm-up call at the
/// largest working-set length, footprints stop changing.
#[test]
fn batch_scratch_is_grow_only() {
    let mut scratch = BatchRealScratch::new();
    let plan = plan_for(4582);
    let series = series_group(4582, 8, 1);
    batched(&plan, &series, &mut scratch);
    let warm = scratch.footprint_bytes();
    assert!(warm > 0);
    for &n in &[1833usize, 128, 4582] {
        let plan = plan_for(n);
        let series = series_group(n, 8, 2);
        batched(&plan, &series, &mut scratch);
        assert_eq!(scratch.footprint_bytes(), warm, "n={n} grew a warm scratch");
    }
}

/// The odd-length path works in the two convolution planes alone: eight
/// lanes at the 35-day length are 2 × 8192 × 8 `f64` = 1 MiB.
#[test]
fn world_length_batch_fits_in_two_convolution_planes() {
    let mut scratch = BatchRealScratch::new();
    let plan = plan_for(4451);
    batched(&plan, &series_group(4451, 8, 3), &mut scratch);
    let bytes = scratch.footprint_bytes();
    const MIB: usize = 1 << 20;
    assert!((MIB..MIB + MIB / 4).contains(&bytes), "footprint {bytes} B");
}

#[test]
#[should_panic(expected = "lane count")]
fn rejects_oversized_lane_count() {
    let plan = plan_for(16);
    let series = series_group(16, MAX_BATCH_LANES + 1, 0);
    let mut scratch = BatchRealScratch::new();
    batched(&plan, &series, &mut scratch);
}
