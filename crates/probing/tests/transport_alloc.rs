//! Proves the `SLPWFEED` codec's steady state is allocation-free on both
//! sides of the wire.
//!
//! A counting global allocator wraps `System`; each scenario warms up on
//! one frame (buffer growth, lazy statics), then asserts the allocation
//! counter does not move while 64 further 256-event frames are encoded or
//! drained (an event at a time, or a frame at a time). The counter is *thread-local* so the test harness's own
//! threads cannot perturb the counted window.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_framing::RunIdentity;
use sleepwatch_probing::transport::{encode_frame, write_feed, EventSource, FileSource, Frame};
use sleepwatch_probing::RoundEvent;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const FRAME_EVENTS: usize = 256;
const FRAMES: usize = 65; // one warm-up frame, 64 counted

fn ident() -> RunIdentity {
    RunIdentity { world_seed: 7, num_blocks: 16, rounds: 1_040, start_time: 1_000 }
}

/// `FRAMES` frames' worth of events, a `Finish` every 100th so both
/// record sizes are on the wire.
fn events() -> Vec<RoundEvent> {
    (0..(FRAMES * FRAME_EVENTS) as u64)
        .map(|i| match i % 100 {
            99 => RoundEvent::Finish { block_id: i % 16, outages: 1, total_probes: i },
            _ => RoundEvent::Round { block_id: i % 16, round: (i / 16) as u32, a_short: 0.5 },
        })
        .collect()
}

#[test]
fn steady_state_encoding_does_not_allocate() {
    let frames: Vec<Frame> = events()
        .chunks(FRAME_EVENTS)
        .enumerate()
        .map(|(i, chunk)| Frame::Events { seq: (i * FRAME_EVENTS) as u64, events: chunk.to_vec() })
        .collect();
    let mut out = Vec::new();
    encode_frame(&mut out, &frames[0], 0xDEAD_BEEF);
    let before = allocations();
    for frame in &frames[1..] {
        out.clear();
        encode_frame(&mut out, frame, 0xDEAD_BEEF);
    }
    let grew = allocations() - before;
    assert_eq!(grew, 0, "encoding {} frames allocated {grew} times", frames.len() - 1);
}

#[test]
fn write_feed_allocates_per_feed_not_per_frame() {
    let events = events();
    let count = |n_frames: usize| {
        let before = allocations();
        write_feed(
            &mut std::io::sink(),
            &events[..n_frames * FRAME_EVENTS],
            &ident(),
            FRAME_EVENTS,
        )
        .expect("write into a sink");
        allocations() - before
    };
    let (short, long) = (count(1), count(FRAMES));
    assert_eq!(short, long, "a {FRAMES}-frame feed allocated more often than a 1-frame feed");
}

#[test]
fn steady_state_draining_does_not_allocate() {
    let events = events();
    let mut wire = Vec::new();
    write_feed(&mut wire, &events, &ident(), FRAME_EVENTS).expect("write into memory");
    let mut source = FileSource::new(&wire[..], &ident(), true).expect("own hello");
    for _ in 0..FRAME_EVENTS {
        source.next_event().expect("a clean feed").expect("the warm-up frame");
    }
    let before = allocations();
    let mut drained = FRAME_EVENTS;
    while let Some(ev) = source.next_event().expect("a clean feed") {
        assert_eq!(ev, events[drained]);
        drained += 1;
    }
    let grew = allocations() - before;
    assert_eq!(drained, events.len());
    assert!(source.stats().clean_end);
    assert_eq!(grew, 0, "draining {} frames allocated {grew} times", FRAMES - 1);
}

#[test]
fn steady_state_draining_by_frame_does_not_allocate() {
    let events = events();
    let mut wire = Vec::new();
    write_feed(&mut wire, &events, &ident(), FRAME_EVENTS).expect("write into memory");
    let mut source = FileSource::new(&wire[..], &ident(), true).expect("own hello");
    let warm_up = source.next_run().expect("a clean feed").len();
    assert_eq!(warm_up, FRAME_EVENTS);
    let before = allocations();
    let mut drained = FRAME_EVENTS;
    loop {
        let run = source.next_run().expect("a clean feed");
        if run.is_empty() {
            break;
        }
        assert_eq!(run, &events[drained..drained + run.len()]);
        drained += run.len();
    }
    let grew = allocations() - before;
    assert_eq!(drained, events.len());
    assert!(source.stats().clean_end);
    assert_eq!(grew, 0, "draining {} frames by run allocated {grew} times", FRAMES - 1);
}
