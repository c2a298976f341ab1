//! Outage monitoring: the system sleepwatch's estimators were built for.
//!
//! Bootstraps a prober from a census (discovering which addresses to walk,
//! like the real Trinocular), injects an outage, and shows detection —
//! plus the diurnal failure mode that motivated the paper: a block that
//! "sleeps" at night can look like an outage to a prober that assumes
//! stationary availability.
//!
//! Run with: `cargo run --release --example outage_monitor`

use sleepwatch::probing::{run_census, CensusConfig, TrinocularConfig, TrinocularProber};
use sleepwatch::simnet::{BlockProfile, BlockSpec, ROUND_SECONDS};

fn main() {
    // --- A healthy block that suffers a 4-hour outage on day 3 ---
    let mut block = BlockSpec::bare(1, 99, BlockProfile::always_on(120, 0.85));
    let outage_start = 3 * 131 + 40; // round index
    block.outage = Some((
        outage_start * ROUND_SECONDS,
        (outage_start + 22) * ROUND_SECONDS, // ~4 hours
    ));

    // Bootstrap exactly like the real system: census first.
    let census_cfg = CensusConfig::default();
    let census = run_census(&block, 0, &census_cfg);
    println!(
        "census discovered {} ever-active addresses, historical A ≈ {:.2}",
        census.discovered(),
        census.hist_avail
    );

    let mut prober = TrinocularProber::from_census(&block, &census, TrinocularConfig::default())
        .expect("block is analyzable");
    let run = prober.run(&block, 0, 7 * 131);

    println!(
        "\nweek of monitoring ({} probes, {:.1}/hour):",
        run.total_probes,
        run.probes_per_hour()
    );
    for o in &run.outages {
        let end = o.end_round.map(|e| e.to_string()).unwrap_or_else(|| "ongoing".into());
        println!("  outage: rounds {}..{} (injected at {})", o.start_round, end, outage_start);
    }
    assert!(!run.outages.is_empty(), "the injected outage must be found");

    // --- The diurnal failure mode ---
    let night_block = BlockSpec::bare(
        2,
        99,
        BlockProfile {
            n_stable: 6, // barely any always-on core
            n_diurnal: 180,
            stable_avail: 0.8,
            diurnal_avail: 0.9,
            onset_hours: 8.0,
            onset_spread: 1.5,
            duration_hours: 10.0,
            duration_spread: 1.0,
            sigma_start: 0.5,
            sigma_duration: 0.5,
            utc_offset_hours: 0.0,
        },
    );
    let census2 = run_census(&night_block, 0, &census_cfg);
    let mut prober2 =
        TrinocularProber::from_census(&night_block, &census2, TrinocularConfig::default())
            .expect("analyzable");
    let run2 = prober2.run(&night_block, 0, 7 * 131);

    println!(
        "\ndiurnal block with a thin always-on core: {} apparent 'outages' in one week",
        run2.outages.len()
    );
    for o in run2.outages.iter().take(5) {
        let hour = (o.start_round * ROUND_SECONDS % 86_400) / 3_600;
        println!("  down at round {} (~{:02}:00 UTC)", o.start_round, hour);
    }
    println!(
        "\nThese night-time false alarms are exactly why the paper separates\n\
         *diurnal* blocks from *down* blocks before interpreting outages."
    );
}
