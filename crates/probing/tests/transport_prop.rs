//! Property-based tests for the `SLPWFEED` wire codec.
//!
//! The decoder's contract is *totality*: arbitrary byte soup must never
//! panic, never read out of bounds, and never be trusted — every
//! malformation surfaces as `Damaged`, `NeedMore`, or a refused
//! handshake. On top of that, every single-byte flip anywhere in a feed
//! must be detected (strict mode refuses, lenient mode skips and
//! counts), truncation must heal to a valid prefix of the original
//! event sequence, and sequence gaps must be detected and accounted.

use proptest::prelude::*;
use sleepwatch_framing::{RunIdentity, PRELUDE_LEN};
use sleepwatch_probing::transport::{
    decode_frame, encode_frame, encode_hello, session_chain, write_feed, EventSource, FileSource,
    Frame, FrameDecode, TransportError, TransportStats,
};
use sleepwatch_probing::RoundEvent;

fn ident() -> RunIdentity {
    RunIdentity { world_seed: 0x5EED, num_blocks: 9, rounds: 64, start_time: 7_200 }
}

/// A mixed feed: rounds for a few blocks, finishes last. The rounds run
/// from `base` and wrap, so a drawn `base` reaches any part of the `u32`
/// range, and the first four rounds are always its edges.
fn mk_events(n: usize, base: u32) -> Vec<RoundEvent> {
    const EDGES: [u32; 4] = [0, 1, u32::MAX - 1, u32::MAX];
    let mut out: Vec<RoundEvent> = (0..n as u64)
        .map(|i| {
            let k = (i / 9) as usize;
            let round = EDGES.get(k).copied().unwrap_or(base.wrapping_add(k as u32));
            RoundEvent::Round { block_id: i % 9, round, a_short: (i as f64) / 97.0 }
        })
        .collect();
    for b in 0..3u64 {
        out.push(RoundEvent::Finish { block_id: b, outages: b as u32, total_probes: 11 * b });
    }
    out
}

fn feed_bytes(events: &[RoundEvent], frame_events: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_feed(&mut bytes, events, &ident(), frame_events).expect("write feed");
    bytes
}

/// Drains a file source to completion, collecting everything it yields.
fn drain<R: std::io::Read>(
    mut fs: FileSource<R>,
) -> (Vec<RoundEvent>, TransportStats, Option<TransportError>) {
    let mut out = Vec::new();
    loop {
        match fs.next_event() {
            Ok(Some(ev)) => out.push(ev),
            Ok(None) => return (out, fs.stats(), None),
            Err(e) => return (out, fs.stats(), Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Totality: `decode_frame` on arbitrary bytes and an arbitrary
    /// session chain never panics, and whatever it reports stays inside
    /// the buffer it was given.
    #[test]
    fn decode_frame_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        chain in any::<u32>(),
    ) {
        match decode_frame(&bytes, chain) {
            FrameDecode::Frame { consumed, .. } => {
                prop_assert!(consumed <= bytes.len());
                prop_assert!(consumed >= 4);
            }
            FrameDecode::NeedMore { need } => {
                prop_assert!(need > bytes.len());
            }
            FrameDecode::Damaged { skip, .. } => {
                if let Some(n) = skip {
                    prop_assert!(n >= 4);
                }
            }
        }
    }

    /// Byte soup after a valid handshake never panics the reader, in
    /// either mode; strict mode refuses the first damage with a typed
    /// error.
    #[test]
    fn byte_soup_after_hello_is_survived(
        soup in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut bytes = feed_bytes(&[], 8);
        bytes.truncate(PRELUDE_LEN); // keep only the hello
        bytes.extend_from_slice(&soup);
        let id = ident();
        let (_, _, err) = drain(FileSource::new(&bytes[..], &id, false).expect("handshake"));
        prop_assert!(err.is_none(), "lenient mode errored on soup: {err:?}");
        let fs = FileSource::new(&bytes[..], &id, true).expect("handshake");
        let (_, _, err) = drain(fs);
        // Anything undecodable after the hello is damage, and strict
        // mode must say so (a chained-CRC-valid frame arising from
        // random bytes is a 2^-32 event the fixed proptest seeds never
        // hit).
        if !soup.is_empty() {
            prop_assert!(err.is_some(), "strict mode swallowed {} soup bytes", soup.len());
        }
    }

    /// Every single-byte corruption of the handshake prelude is refused
    /// before any event is decoded.
    /// A feed round-trips exactly through the file reader, rounds at both
    /// ends of the `u32` range included.
    #[test]
    fn feed_round_trips_over_the_whole_round_range(
        n in 0usize..200,
        frame_events in 1usize..24,
        base in any::<u32>(),
    ) {
        let events = mk_events(n, base);
        let bytes = feed_bytes(&events, frame_events);
        let (got, stats, err) = drain(FileSource::new(&bytes[..], &ident(), true).expect("handshake"));
        prop_assert!(err.is_none(), "strict mode refused a clean feed: {err:?}");
        prop_assert!(stats.clean_end);
        prop_assert_eq!(got, events);
    }

    #[test]
    fn every_hello_flip_is_refused(pos in 0usize..PRELUDE_LEN, mask in 1u8..=255) {
        let mut bytes = feed_bytes(&mk_events(40, 0), 8);
        bytes[pos] ^= mask;
        let id = ident();
        prop_assert!(
            FileSource::new(&bytes[..], &id, false).is_err(),
            "flipped hello byte {pos} accepted"
        );
    }

    /// Every single-byte flip in the framed stream is detected: lenient
    /// mode skips and counts, strict mode refuses with a typed error —
    /// no flip is ever silently absorbed into the event stream.
    #[test]
    fn every_frame_flip_is_detected_or_counted(
        n in 1usize..160,
        frame_events in 1usize..24,
        pick in any::<u64>(),
        mask in 1u8..=255,
        base in any::<u32>(),
    ) {
        let events = mk_events(n, base);
        let clean = feed_bytes(&events, frame_events);
        let pos = PRELUDE_LEN + (pick as usize) % (clean.len() - PRELUDE_LEN);
        let mut bytes = clean;
        bytes[pos] ^= mask;
        let id = ident();

        let (got, stats, err) = drain(FileSource::new(&bytes[..], &id, false).expect("handshake"));
        prop_assert!(err.is_none(), "lenient mode errored: {err:?}");
        prop_assert!(
            stats.skipped_corrupt + stats.lost_events > 0,
            "flip at {pos} went uncounted (got {} of {} events)",
            got.len(),
            events.len()
        );
        prop_assert!(got.len() <= events.len(), "corruption conjured events");

        let (_, _, err) = drain(FileSource::new(&bytes[..], &id, true).expect("handshake"));
        prop_assert!(
            matches!(err, Some(TransportError::Corrupt { .. })),
            "strict mode did not refuse the flip at {pos}: {err:?}"
        );
    }

    /// Truncation at any point heals to a valid prefix: the lenient
    /// reader yields exactly the leading events that survived the cut,
    /// in order, with no error — and claims a clean end only when the
    /// end marker itself survived.
    #[test]
    fn truncation_heals_to_a_valid_prefix(
        n in 1usize..160,
        frame_events in 1usize..24,
        pick in any::<u64>(),
        base in any::<u32>(),
    ) {
        let events = mk_events(n, base);
        let clean = feed_bytes(&events, frame_events);
        let cut = PRELUDE_LEN + (pick as usize) % (clean.len() - PRELUDE_LEN + 1);
        let bytes = &clean[..cut];
        let id = ident();
        let (got, stats, err) = drain(FileSource::new(bytes, &id, false).expect("handshake"));
        prop_assert!(err.is_none(), "lenient truncation errored: {err:?}");
        prop_assert!(got.len() <= events.len());
        prop_assert_eq!(
            &got[..],
            &events[..got.len()],
            "truncated feed is not a prefix of the original"
        );
        if stats.clean_end {
            prop_assert_eq!(got.len(), events.len(), "clean end without the whole stream");
        }
        if cut == clean.len() {
            prop_assert!(stats.clean_end, "untruncated feed lost its end marker");
        }
    }

    /// A missing frame is a detected sequence gap: lenient mode accounts
    /// every lost event and still delivers everything else in order;
    /// strict mode refuses.
    #[test]
    fn sequence_gaps_are_detected_and_accounted(
        n in 24usize..200,
        frame_events in 1usize..16,
        pick in any::<u64>(),
        base in any::<u32>(),
    ) {
        let events = mk_events(n, base);
        let id = ident();
        let chain = session_chain(&id);
        let chunks: Vec<&[RoundEvent]> = events.chunks(frame_events).collect();
        prop_assert!(chunks.len() >= 2);
        let skip_at = (pick as usize) % chunks.len();
        let mut bytes = encode_hello(&id).to_vec();
        let mut seq = 0u64;
        for (i, chunk) in chunks.iter().enumerate() {
            if i != skip_at {
                encode_frame(
                    &mut bytes,
                    &Frame::Events { seq, events: chunk.to_vec() },
                    chain,
                );
            }
            seq += chunk.len() as u64;
        }
        encode_frame(&mut bytes, &Frame::End { total: events.len() as u64 }, chain);

        let lost = chunks[skip_at].len() as u64;
        let want: Vec<RoundEvent> = chunks
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip_at)
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        let (got, stats, err) = drain(FileSource::new(&bytes[..], &id, false).expect("handshake"));
        prop_assert!(err.is_none(), "lenient gap errored: {err:?}");
        prop_assert_eq!(stats.lost_events, lost, "gap size misaccounted");
        prop_assert_eq!(got, want, "surviving events diverged");

        let (_, _, err) = drain(FileSource::new(&bytes[..], &id, true).expect("handshake"));
        prop_assert!(
            matches!(err, Some(TransportError::Corrupt { .. })),
            "strict mode did not refuse the gap: {err:?}"
        );
    }
}
