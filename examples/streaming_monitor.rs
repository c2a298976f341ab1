//! Operational monitoring: online diurnal detection over a live probe
//! stream, with the Goertzel pre-screen keeping per-round cost flat.
//!
//! Feeds three blocks round by round — one diurnal, one flat, one that
//! *becomes* diurnal mid-stream (an ISP turning on nightly pool shutdowns)
//! — and prints verdict changes as they happen.
//!
//! Run with: `cargo run --release --example streaming_monitor`

use sleepwatch::core::{OnlineConfig, OnlineDetector};
use sleepwatch::probing::{TrinocularConfig, TrinocularProber};
use sleepwatch::simnet::{BlockProfile, BlockSpec};
use sleepwatch::spectral::{DiurnalClass, SpectrumScratch};

fn diurnal_profile() -> BlockProfile {
    BlockProfile {
        n_stable: 40,
        n_diurnal: 160,
        stable_avail: 0.9,
        diurnal_avail: 0.85,
        onset_hours: 8.0,
        onset_spread: 2.0,
        duration_hours: 9.0,
        duration_spread: 1.0,
        sigma_start: 0.5,
        sigma_duration: 0.5,
        utc_offset_hours: 0.0,
    }
}

fn main() {
    let rounds_per_day = (86_400 / 660) as u64;
    let total_rounds = 21 * rounds_per_day; // three weeks

    // The mid-stream change: same addresses, but after day 10 the ISP
    // starts powering the pool down at night. Model as two specs probed in
    // sequence.
    let scenarios: Vec<(&str, Vec<(BlockSpec, u64)>)> = vec![
        ("always diurnal", vec![(BlockSpec::bare(1, 7, diurnal_profile()), total_rounds)]),
        (
            "always flat",
            vec![(BlockSpec::bare(2, 7, BlockProfile::always_on(150, 0.8)), total_rounds)],
        ),
        (
            "turns diurnal on day 10",
            vec![
                (BlockSpec::bare(3, 7, BlockProfile::always_on(200, 0.85)), 10 * rounds_per_day),
                (BlockSpec::bare(3, 7, diurnal_profile()), total_rounds - 10 * rounds_per_day),
            ],
        ),
    ];

    let cfg = OnlineConfig {
        window_rounds: (7 * rounds_per_day) as usize,
        // Two consecutive agreeing verdicts before announcing a change.
        hysteresis: 2,
        ..Default::default()
    };

    for (name, phases) in scenarios {
        println!("\n== {name} ==");
        let mut detector = OnlineDetector::new(cfg);
        // The detector reads its window from the history the caller keeps,
        // and transforms it in the caller's spectrum workspace.
        let mut history = Vec::new();
        let mut scratch = SpectrumScratch::new();
        let mut last = DiurnalClass::NonDiurnal;
        let mut round = 0u64;
        for (block, span) in &phases {
            let mut prober = TrinocularProber::new(block, TrinocularConfig::default());
            for _ in 0..*span {
                if let Some(rec) = prober.round(block, round, round * 660) {
                    history.push(rec.a_short);
                    // A due verdict is deferred; settle it to report now.
                    detector.push(&history, &mut scratch);
                    detector.settle(&history, &mut scratch);
                    let class = detector.class();
                    if class != last {
                        println!(
                            "  day {:>5.1}: {:?} → {:?}",
                            round as f64 / rounds_per_day as f64,
                            last,
                            class
                        );
                        last = class;
                    }
                }
                round += 1;
            }
        }
        println!(
            "  final: {:?} after {} rounds ({} full FFTs, {} skipped by the screen)",
            detector.class(),
            detector.rounds_seen(),
            detector.classifications(),
            detector.screens_skipped()
        );
    }
}
