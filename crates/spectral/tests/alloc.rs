//! Proves the steady-state plan APIs are allocation-free.
//!
//! A counting global allocator wraps `System`; each scenario plans and
//! sizes its buffers up front, then asserts the allocation counter does not
//! move across `process_with_scratch` / `inverse_with_scratch` /
//! `real_with_scratch`. The counter is *thread-local* so the test harness's
//! own threads (output capture, progress printing) cannot perturb the
//! counted window.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex, MAX_BATCH_LANES};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn assert_no_allocations(label: &str, mut f: impl FnMut()) {
    // One warm-up call outside the counted window (lazy statics, cache
    // population), then the counted steady-state calls.
    f();
    let before = allocations();
    for _ in 0..8 {
        f();
    }
    let after = allocations();
    assert_eq!(after - before, 0, "{label}: steady state allocated {} times", after - before);
}

#[test]
fn steady_state_transforms_do_not_allocate() {
    // Radix-2 (2048), odd Bluestein (1833; 131 and 4451, whose real path
    // convolves at half the complex length), even Bluestein (4582): every
    // plan kind, the packed real path and the lengths world runs produce.
    for n in [2_048usize, 131, 1_833, 4_451, 4_582] {
        let plan = plan_for(n);
        let series: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
        let mut buf: Vec<Complex> = series.iter().map(|&x| Complex::from_re(x)).collect();
        let mut out = vec![Complex::ZERO; n];
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        let mut real_scratch = vec![Complex::ZERO; plan.real_scratch_len()];

        assert_no_allocations(&format!("forward n={n}"), || {
            plan.process_with_scratch(&mut buf, &mut scratch);
        });
        assert_no_allocations(&format!("inverse n={n}"), || {
            plan.inverse_with_scratch(&mut buf, &mut scratch);
        });
        assert_no_allocations(&format!("real n={n}"), || {
            plan.real_with_scratch(&series, &mut out, &mut real_scratch);
        });

        let inputs = [series.as_slice(); MAX_BATCH_LANES];
        let mut outs = vec![vec![Complex::ZERO; n]; MAX_BATCH_LANES];
        let mut out_refs: Vec<&mut [Complex]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        let mut batch_scratch = BatchRealScratch::new();
        assert_no_allocations(&format!("batch n={n}"), || {
            plan.real_batch_with_scratch(&inputs, &mut out_refs, &mut batch_scratch);
        });
    }
}
