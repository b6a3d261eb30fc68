//! Seeded fuzz wall for `FrameDecoder`, which every byte a client sends to
//! `serve` or `route` passes through, and for the blocking `read_frame` the
//! client and the router read replies with: split, truncated, oversized,
//! pipelined and garbled frames, checked against `MAX_FRAME_BYTES`.
//!
//! Invariants: the decoder returns frames or an error, never a panic; a
//! valid stream yields the same frames however it is split; and the memory
//! it holds is bounded by the bytes that actually arrived, not by what a
//! length prefix claims.
//!
//! One test function runs every case in turn, so the counting global
//! allocator measures one decoder at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use uopcache_model::alloc::CountingAllocator;
use uopcache_model::json::Json;
use uopcache_model::rng::{Prng, Rng};
use uopcache_serve::protocol::{
    encode_frame, frame, read_frame, FrameDecoder, FrameError, MAX_FRAME_BYTES,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Random streams per run.
const CASES: usize = 2_000;

/// The most live bytes one decoder may hold in this wall. Every frame here
/// is under 8 KB, so this is the decoder's up-front body reservation
/// (64 KB) plus the parse of one frame, with room to spare; a decoder that
/// reserved what a prefix claims would hold up to 64 MB.
const PEAK_BOUND: usize = 1 << 20;

/// A length prefix claiming `len` body bytes.
fn header(len: usize) -> [u8; 4] {
    u32::try_from(len).expect("fits a prefix").to_le_bytes()
}

/// Feeds `wire` to a fresh decoder in `chunks`, returning the frames it
/// produced, the first error, whether it ended mid-frame, and its peak.
fn decode(wire: &[u8], chunks: &[usize]) -> (Vec<Json>, Option<FrameError>, bool, usize) {
    let ((frames, err, mid), stats) = CountingAllocator::measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            let mut rest = wire;
            for &chunk in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at(chunk.clamp(1, rest.len()));
                rest = tail;
                if let Err(e) = dec.feed(piece, &mut frames) {
                    return (frames, Some(e), dec.mid_frame());
                }
            }
            (frames, None, dec.mid_frame())
        }))
        .unwrap_or_else(|_| panic!("decoder panicked on {} bytes", wire.len()))
    });
    (frames, err, mid, stats.peak)
}

fn valid_frames(rng: &mut Prng) -> Vec<Json> {
    (0..rng.gen_range(1..5usize))
        .map(|i| {
            let text: String = (0..rng.gen_range(0..2_000usize))
                .map(|_| ['a', '"', '\\', '\n', 'é', '😀'][rng.gen_range(0..6usize)])
                .collect();
            frame(
                ["ping", "status", "submit"][i % 3],
                vec![
                    ("job_id".to_string(), Json::Str(text)),
                    ("n".to_string(), Json::U64(rng.next_u64())),
                ],
            )
        })
        .collect()
}

fn wire_of(frames: &[Json]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|f| encode_frame(f).expect("encodes"))
        .collect()
}

#[test]
fn hostile_frame_streams_decode_cleanly_in_bounded_memory() {
    // A prefix claiming the largest legal frame, then 10 bytes: the decoder
    // waits for the rest holding what arrived, not the 64 MB it was told.
    let mut wire = header(MAX_FRAME_BYTES).to_vec();
    wire.extend_from_slice(b"{\"schema_v");
    let (frames, err, mid, peak) = decode(&wire, &[wire.len()]);
    assert!(frames.is_empty() && err.is_none() && mid);
    assert!(peak < 1 << 20, "a 64 MB claim held {peak} live bytes");
    // The blocking reader too: the body ends after 10 bytes, and the claim
    // is never allocated.
    let (read, stats) =
        CountingAllocator::measure(|| read_frame(wire.as_slice(), Duration::from_secs(1)));
    assert!(matches!(read, Err(FrameError::Malformed(_))), "{read:?}");
    assert!(
        stats.peak < 1 << 20,
        "read_frame held {} live bytes for a 64 MB claim",
        stats.peak
    );

    // A frame just past a power of two (1 MB + 17 bytes, whitespace-padded
    // so its parse is small) ends with exactly its length allocated, not the
    // next power of two. A `realloc` holds the old and the new block at
    // once, so the peak is the last grow: 1 MB plus the frame.
    let ping = frame("ping", Vec::new());
    let len = (1 << 20) + 17;
    let mut wire = header(len).to_vec();
    wire.extend_from_slice(ping.to_string().as_bytes());
    wire.resize(4 + len, b' ');
    let (read, stats) =
        CountingAllocator::measure(|| read_frame(wire.as_slice(), Duration::from_secs(1)));
    assert_eq!(read.ok().flatten(), Some(ping));
    assert!(
        stats.peak < 2 * len + (64 << 10),
        "read_frame held {} live bytes for a {len}-byte frame",
        stats.peak
    );

    // One byte past the cap is refused at the prefix, however it is split.
    for chunks in [[4], [1], [3]] {
        let (_, err, _, peak) = decode(&header(MAX_FRAME_BYTES + 1), &chunks);
        assert!(matches!(err, Some(FrameError::TooLarge(n)) if n == MAX_FRAME_BYTES + 1));
        assert!(peak < 1 << 10, "a refused prefix held {peak} live bytes");
    }
    let (_, err, _, _) = decode(&u32::MAX.to_le_bytes(), &[4]);
    assert!(matches!(err, Some(FrameError::TooLarge(_))));

    let mut rng = Prng::seed_from_u64(0xf4a3_e5ed);
    for case in 0..CASES {
        let frames = valid_frames(&mut rng);
        let wire = wire_of(&frames);
        let chunks: Vec<usize> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(1..=wire.len()))
            .collect();

        // Pipelined and split anyhow: the same frames, ending at a boundary.
        let (got, err, mid, peak) = decode(&wire, &chunks);
        assert!(err.is_none(), "case {case}: {err:?}");
        assert_eq!(got, frames, "case {case}: split {chunks:?}");
        assert!(!mid, "case {case} ends at a frame boundary");
        assert!(peak <= PEAK_BOUND, "case {case}: peak {peak} bytes");
        let read = read_frame(wire.as_slice(), Duration::from_secs(1));
        assert_eq!(read.ok().flatten().as_ref(), frames.first(), "case {case}");

        // Truncated: the frames wholly before the cut, mid-frame otherwise.
        let cut = rng.gen_range(0..wire.len());
        let (got, err, mid, peak) = decode(&wire[..cut], &chunks);
        assert!(err.is_none(), "case {case} cut at {cut}: {err:?}");
        assert_eq!(got[..], frames[..got.len()], "case {case} cut at {cut}");
        assert_eq!(mid, wire_of(&got).len() < cut, "case {case} cut at {cut}");
        assert!(peak <= PEAK_BOUND, "case {case}: peak {peak} bytes");

        // Garbled: flipped bytes in bodies and prefixes give frames or an
        // error, and an oversized prefix is refused before any body.
        let mut garbled = wire.clone();
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..garbled.len());
            garbled[at] ^= 1 << rng.gen_range(0..8u32);
        }
        let (_, err, _, peak) = decode(&garbled, &chunks);
        if let Some(FrameError::TooLarge(n)) = err {
            assert!(n > MAX_FRAME_BYTES, "case {case}: refused {n} bytes");
        }
        assert!(peak <= PEAK_BOUND, "case {case}: garbled peak {peak} bytes");
    }
}
