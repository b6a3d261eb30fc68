//! Seeded fuzz wall for the binary trace reader: truncations, bit flips,
//! lying counts and empty windows must come back as `Err`, never as a panic,
//! and the reader's memory must stay bounded by what the input backs, not
//! by what its header claims.
//!
//! One test function runs every case in turn, so the counting global
//! allocator measures one read at a time.

use uopcache_model::alloc::CountingAllocator;
use uopcache_model::rng::{Prng, Rng};
use uopcache_trace::io::{read_binary, write_binary};
use uopcache_trace::{build_trace, AppId, InputVariant, TraceIoError};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Reads `bytes` and returns the result with the bytes the read held live
/// at its peak.
fn read_measured(bytes: &[u8]) -> (Result<uopcache_model::LookupTrace, TraceIoError>, usize) {
    let (result, stats) = CountingAllocator::measure(|| read_binary(bytes));
    (result, stats.peak)
}

/// Every read here backs at most a few dozen records, so it may hold only
/// the reader's up-front reservation (4 096 records of 16 bytes) plus
/// slack.
const PEAK_BOUND: usize = 4096 * 16 + 4096;

/// Byte offset of record `i`'s field at `field` (0 start, 8 uops, 12 bytes,
/// 16 flags) behind the 16-byte header.
fn offset(i: usize, field: usize) -> usize {
    16 + 17 * i + field
}

#[test]
fn hostile_binary_traces_fail_cleanly_with_bounded_memory() {
    let trace = build_trace(AppId::Wordpress, InputVariant(0), 24);
    let mut valid = Vec::new();
    write_binary(&mut valid, &trace).expect("in-memory write");
    assert_eq!(valid.len(), offset(24, 0));
    let (back, _) = read_measured(&valid);
    assert_eq!(back.expect("valid file"), trace);

    // Truncation at every offset.
    for cut in 0..valid.len() {
        let (result, peak) = read_measured(&valid[..cut]);
        assert!(result.is_err(), "truncated at {cut}");
        assert!(peak <= PEAK_BOUND, "truncated at {cut}: peak {peak} bytes");
    }

    // Counts the body cannot back, up to u64::MAX.
    for count in [25u64, 1 << 20, 1 << 32, 1 << 40, u64::MAX] {
        let mut lying = valid.clone();
        lying[8..16].copy_from_slice(&count.to_le_bytes());
        let (result, peak) = read_measured(&lying);
        assert!(
            matches!(result, Err(TraceIoError::Truncated)),
            "count {count}: {result:?}"
        );
        assert!(peak <= PEAK_BOUND, "count {count}: peak {peak} bytes");
    }

    // Empty windows, unknown flags and trailing bytes.
    for i in [0, 11, 23] {
        for (field, value) in [(8, 0u8), (12, 0), (16, 4), (16, 0x80)] {
            let mut bad = valid.clone();
            let at = offset(i, field);
            if field == 16 {
                bad[at] = value;
            } else {
                bad[at..at + 4].copy_from_slice(&[0; 4]);
            }
            let (result, _) = read_measured(&bad);
            assert!(
                matches!(result, Err(TraceIoError::InvalidRecord(_))),
                "record {i} field {field}: {result:?}"
            );
        }
    }
    // Windows wider than a record's 16-bit byte span.
    for i in [0, 23] {
        let mut wide = valid.clone();
        let at = offset(i, 12);
        wide[at..at + 4].copy_from_slice(&65_536u32.to_le_bytes());
        let (result, _) = read_measured(&wide);
        assert!(
            matches!(&result, Err(TraceIoError::InvalidRecord(why)) if why.contains("65536 bytes")),
            "record {i}: {result:?}"
        );
    }
    let mut trailing = valid.clone();
    trailing.push(0);
    assert!(matches!(
        read_measured(&trailing).0,
        Err(TraceIoError::InvalidRecord(_))
    ));

    // Random bit flips: a flipped file either fails or reads back to a
    // trace whose encoding is exactly the flipped bytes.
    let mut rng = Prng::seed_from_u64(0x10_f022);
    for round in 0..4_000 {
        let mut flipped = valid.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let bit = rng.gen_range(0..flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let (result, peak) = read_measured(&flipped);
        assert!(peak <= PEAK_BOUND, "round {round}: peak {peak} bytes");
        if let Ok(read) = result {
            let mut again = Vec::new();
            write_binary(&mut again, &read).expect("in-memory write");
            assert_eq!(
                again, flipped,
                "round {round}: accepted a non-canonical file"
            );
        }
    }
}
