//! Memory wall for resident traces. A lookup record is 16 bytes, so
//! building the `sweep-sampled`-shaped trace (kafka, 12 000 accesses at
//! scale 100, i.e. 1.2 M records) may hold 16 bytes per record plus at
//! most 1 MiB of generator working set (program, segment table, walker) at
//! its peak.
//!
//! One test function, so the counting global allocator measures one build
//! at a time.

use uopcache_model::alloc::CountingAllocator;
use uopcache_trace::{build_trace_scaled, AppId, InputVariant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_scaled_trace_peaks_at_sixteen_bytes_per_access() {
    assert!(
        CountingAllocator::is_installed(),
        "the wall would be vacuous"
    );
    let (trace, stats) = CountingAllocator::measure(|| {
        build_trace_scaled(AppId::Kafka, InputVariant::new(0), 12_000, 100)
    });
    assert_eq!(trace.len(), 1_200_000);
    let bound = 16 * trace.len() + (1 << 20);
    assert!(
        stats.peak <= bound,
        "building {} accesses peaked at {} bytes, over {bound}",
        trace.len(),
        stats.peak
    );
}
