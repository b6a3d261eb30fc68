//! # uopcache-obs
//!
//! The deterministic observability layer of the `uopcache` workspace:
//! structured replacement-decision events, pluggable recorders, and a
//! metrics registry of named counters and fixed-bucket histograms.
//!
//! The paper's headline results reduce to aggregate miss rates, but
//! explaining *why* a policy wins requires seeing individual replacement
//! decisions. This crate gives the cache and frontend a place to stream
//! those decisions without perturbing them:
//!
//! * [`Event`] — one replacement-relevant occurrence (`hit` / `partial-hit` /
//!   `miss` / `insert` / `evict` / `bypass` / `invalidate`), stamped with the
//!   frontend cycle, the set/slot it touched, the prediction window, and the
//!   [`Verdict`] the policy rendered;
//! * [`Recorder`] — the sink trait the cache emits into, with
//!   [`NullRecorder`] (retains nothing — the zero-cost default),
//!   [`RingRecorder`] (bounded, keeps the last *N* events),
//!   [`SamplingRecorder`] (key-seeded 1-in-*k* sampling that reuses the
//!   `uopcache-exec` SplitMix64 derivation, so the retained subset is a pure
//!   function of the task seed and the event index — bit-identical at any
//!   worker count), and [`MetricsRecorder`] (derives histograms and counters
//!   from the stream, then forwards to an inner recorder);
//! * [`MetricsRegistry`] — named counters plus fixed-bucket [`Histogram`]s
//!   (reuse distance, PW length, set occupancy, eviction age) that serialise
//!   through the in-repo JSON model and merge associatively, so the
//!   engine's submission-order merge keeps parallel sweeps deterministic.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads a wall clock, thread id, or allocator state.
//! Every retained event and every histogram bucket is a pure function of the
//! simulated access stream and (for sampling) the task-key-derived seed.
//! Two runs of the same task therefore produce byte-identical JSON whether
//! they execute serially or on a 32-worker pool.
//!
//! # Examples
//!
//! ```
//! use uopcache_obs::{Event, EventKind, RingRecorder, Recorder, Verdict};
//!
//! let mut rec = RingRecorder::new(2);
//! for cycle in 0..5 {
//!     rec.record(&Event {
//!         cycle,
//!         kind: EventKind::Miss,
//!         set: 0,
//!         slot: None,
//!         start: 0x40,
//!         uops: 6,
//!         entries: 1,
//!         verdict: Verdict::None,
//!     });
//! }
//! assert_eq!(rec.offered(), 5);
//! let kept = rec.events();
//! assert_eq!(kept.len(), 2, "bounded to the last two");
//! assert_eq!(kept[0].cycle, 3);
//! ```

pub mod digest;
mod duel;
pub mod event;
mod metrics;
mod recorder;

pub use digest::{DigestRecorder, StreamDigest};
pub use duel::{CandidateDuel, DuelStats};
pub use event::{Event, EventKind, Verdict};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{MetricsRecorder, NullRecorder, Recorder, RingRecorder, SamplingRecorder};
