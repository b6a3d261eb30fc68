//! Top-level trace generation entry points, and the resumable walk they
//! share.

use crate::program::Program;
use crate::pwstream::{PwBuilder, WindowState};
use crate::walker::{WalkState, Walker};
use crate::workload::{AppId, InputVariant, WorkloadSpec};
use std::ops::{ControlFlow, Range};
use uopcache_model::rng::{Prng, Rng};
use uopcache_model::{LookupTrace, PwAccess};

/// The most accesses a build reserves up front (2^21, 32 MiB of windows).
/// A longer trace grows past it as windows arrive, so an absurd length
/// fails on memory it really uses, never on one giant reservation.
const RESERVE_CHUNK: usize = 1 << 21;

/// Generates `accesses` micro-op cache lookups for an application and input
/// variant. Deterministic: the same arguments always produce the same trace.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let a = build_trace(AppId::Postgres, InputVariant::default(), 1000);
/// let b = build_trace(AppId::Postgres, InputVariant::default(), 1000);
/// assert_eq!(a, b);
/// ```
pub fn build_trace(app: AppId, variant: InputVariant, accesses: usize) -> LookupTrace {
    build_trace_with_spec(&app.spec(), variant, accesses)
}

/// As [`build_trace`] with an explicit (possibly customised) workload spec.
pub fn build_trace_with_spec(
    spec: &WorkloadSpec,
    variant: InputVariant,
    accesses: usize,
) -> LookupTrace {
    build_trace_scaled_with_spec(spec, variant, accesses, 1)
}

/// Generates `accesses * scale` lookups as `scale` consecutive execution
/// epochs of the same program — phase-structured repetition with drift, not
/// plain tiling. Each epoch re-keys the walk RNG, rotates the phase clock,
/// and drifts the popularity skew and phase locality a few percent, the way
/// a long-running server's load mix wanders over time; the static program
/// (and therefore the hot code) is shared by every epoch.
///
/// `scale == 1` is byte-identical to [`build_trace`].
///
/// # Panics
///
/// Panics if `scale` is zero.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{build_trace, build_trace_scaled, AppId, InputVariant};
///
/// let v = InputVariant::default();
/// let one = build_trace_scaled(AppId::Kafka, v, 1000, 1);
/// assert_eq!(one, build_trace(AppId::Kafka, v, 1000));
/// let three = build_trace_scaled(AppId::Kafka, v, 1000, 3);
/// assert_eq!(three.len(), 3000);
/// ```
pub fn build_trace_scaled(
    app: AppId,
    variant: InputVariant,
    accesses: usize,
    scale: u64,
) -> LookupTrace {
    build_trace_scaled_with_spec(&app.spec(), variant, accesses, scale)
}

/// As [`build_trace_scaled`] with an explicit workload spec.
///
/// # Panics
///
/// Panics if `scale` is zero.
pub(crate) fn build_trace_scaled_with_spec(
    spec: &WorkloadSpec,
    variant: InputVariant,
    accesses: usize,
    scale: u64,
) -> LookupTrace {
    let generator = Generator::new(spec, variant, accesses, scale);
    // A few windows past the target: the last block may overshoot it.
    let reserve = generator.accesses().saturating_add(8);
    let mut out = Vec::with_capacity(reserve.min(RESERVE_CHUNK));
    generator.walk(&generator.start(), &mut out, |_, _| {
        ControlFlow::Continue(())
    });
    out.into_iter().collect()
}

/// Blocks between two checkpoints of a walk ([`Generator::walk`]). A walk
/// resumed from the latest checkpoint before an access walks fewer than
/// this many blocks before it forms that access. A checkpoint is a copy of
/// under 200 bytes, so taking one this often costs nothing measurable.
pub const CHECKPOINT_BLOCKS: u64 = 64;

/// The window builder's i-cache line size.
const LINE_BYTES: u64 = 64;

/// One scaled trace, not yet formed: its static program and the recipe of
/// its walk (spec, input variant, `len` accesses per epoch, `scale`
/// epochs).
///
/// Epoch `e` owns accesses `e·len .. (e+1)·len` exactly, walked by a fresh
/// `Walker::with_epoch` into fresh window state. So the whole trace is
/// one [`Generator::walk`] from [`Generator::start`], and any range of it
/// can be formed again from a [`Checkpoint`] taken on an earlier walk
/// ([`Generator::rebuild`]), without forming what comes before.
///
/// # Examples
///
/// ```
/// use std::ops::ControlFlow;
/// use uopcache_trace::{build_trace_scaled, AppId, Generator, InputVariant};
///
/// let v = InputVariant::default();
/// let generator = Generator::new(&AppId::Kafka.spec(), v, 1_000, 3);
/// // Walk until access 1 500 is formed, keeping the checkpoint the walk
/// // held then.
/// let mut formed = Vec::new();
/// let mut checkpoint = generator.start();
/// generator.walk(&generator.start(), &mut formed, |formed, latest| {
///     checkpoint = *latest;
///     if formed.len() > 1_500 {
///         ControlFlow::Break(())
///     } else {
///         ControlFlow::Continue(())
///     }
/// });
/// assert!(checkpoint.position() <= 1_500);
///
/// let trace = build_trace_scaled(AppId::Kafka, v, 1_000, 3);
/// let rebuilt = generator.rebuild(&checkpoint, 1_500..2_600);
/// assert_eq!(rebuilt, trace.slice(1_500..2_600));
/// ```
#[derive(Clone, Debug)]
pub struct Generator {
    program: Program,
    spec: WorkloadSpec,
    variant: InputVariant,
    len: usize,
    scale: u64,
}

impl Generator {
    /// Synthesizes the program of `spec` for a trace of `len × scale`
    /// accesses.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn new(spec: &WorkloadSpec, variant: InputVariant, len: usize, scale: u64) -> Self {
        assert!(scale >= 1, "scale must be at least 1");
        Generator {
            program: Program::synthesize(spec),
            spec: *spec,
            variant,
            len,
            scale,
        }
    }

    /// Accesses in the whole trace, `len × scale` (saturating).
    pub fn accesses(&self) -> usize {
        let scale = usize::try_from(self.scale).unwrap_or(usize::MAX);
        self.len.saturating_mul(scale)
    }

    /// The checkpoint before the trace's first access.
    pub fn start(&self) -> Checkpoint {
        Checkpoint {
            epoch: 0,
            base: 0,
            offset: 0,
            blocks: 0,
            walker: self.walker(0).state(),
            window: WindowState::default(),
        }
    }

    /// Walks the trace from `from`, a checkpoint of a walk of this
    /// generator, exactly as that walk continued. After each block it
    /// appends the accesses the block formed (perhaps none; each epoch is
    /// cut at `len`) to `out`, then calls `visit` with `out` and the
    /// latest checkpoint, taken every [`CHECKPOINT_BLOCKS`] blocks of an
    /// epoch at or before the block. Resuming from that checkpoint forms
    /// the block's accesses again. `visit` may drain `out`, and stops the
    /// walk by returning `Break`; otherwise the walk ends with the trace.
    pub fn walk<F>(&self, from: &Checkpoint, out: &mut Vec<PwAccess>, mut visit: F)
    where
        F: FnMut(&mut Vec<PwAccess>, &Checkpoint) -> ControlFlow<()>,
    {
        let len = self.len;
        let (mut epoch, mut base, mut offset, mut blocks) =
            (from.epoch, from.base, from.offset, from.blocks);
        let mut builder = PwBuilder::new(&self.program, LINE_BYTES);
        builder.restore(from.window);
        let mut resume = Some(from.walker);
        let mut latest = *from;
        loop {
            let mut walker = self.walker(epoch);
            if let Some(state) = resume.take() {
                walker.restore(state);
            }
            while offset < len {
                if blocks.is_multiple_of(CHECKPOINT_BLOCKS) {
                    latest = Checkpoint {
                        epoch,
                        base,
                        offset,
                        blocks,
                        walker: walker.state(),
                        window: builder.state(),
                    };
                }
                let exec = walker.next().expect("a walk never runs out of blocks");
                let before = out.len();
                builder.push(&exec, out);
                blocks += 1;
                let room = len - offset;
                if out.len() - before > room {
                    out.truncate(before + room);
                }
                offset += out.len() - before;
                if visit(out, &latest).is_break() {
                    return;
                }
            }
            if len == 0 || epoch + 1 >= self.scale {
                return;
            }
            (epoch, base, offset, blocks) = (epoch + 1, base + len, 0, 0);
            builder.restore(WindowState::default());
        }
    }

    /// The accesses in `range` of the trace, formed by resuming from
    /// `from` and dropping what precedes the range: equal to
    /// `build_trace_scaled(..).slice(range)`, at the cost of walking from
    /// the checkpoint to the end of the range only.
    ///
    /// # Panics
    ///
    /// Panics if `range` starts before `from` or ends past the trace.
    pub fn rebuild(&self, from: &Checkpoint, range: Range<usize>) -> LookupTrace {
        let mut skip = (range.start)
            .checked_sub(from.position())
            .expect("the range starts at or after the checkpoint");
        assert!(
            range.end <= self.accesses(),
            "the range ends inside the trace"
        );
        let mut out = Vec::with_capacity(range.len());
        if !range.is_empty() {
            self.walk(from, &mut Vec::new(), |block, _| {
                let dropped = skip.min(block.len());
                skip -= dropped;
                let kept = (block.len() - dropped).min(range.len() - out.len());
                out.extend_from_slice(&block[dropped..dropped + kept]);
                block.clear();
                if out.len() == range.len() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        out.into_iter().collect()
    }

    /// A fresh walker of epoch `epoch`.
    fn walker(&self, epoch: u64) -> Walker<'_> {
        let spec = drifted_spec(&self.spec, epoch);
        Walker::with_epoch(&self.program, &spec, self.variant, epoch)
    }
}

/// A walk's whole state between two blocks ([`Generator::walk`]): where
/// the walk stands (epoch, accesses formed) plus the walker's and the
/// window builder's mutable state. [`Generator::walk`] continues from it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    epoch: u64,
    /// Position of the epoch's first access in the trace.
    base: usize,
    /// Accesses of the epoch formed before the checkpoint.
    offset: usize,
    /// Blocks of the epoch walked before the checkpoint.
    blocks: u64,
    walker: WalkState,
    window: WindowState,
}

impl Checkpoint {
    /// Position in the trace of the first access formed after the
    /// checkpoint.
    pub fn position(&self) -> usize {
        self.base + self.offset
    }
}

/// The workload spec as observed during execution epoch `epoch`: popularity
/// skew and phase locality wander a few percent per epoch (deterministically,
/// from the application seed). Epoch 0 is the spec unchanged, so a scaled
/// trace starts with exactly the unscaled one.
fn drifted_spec(spec: &WorkloadSpec, epoch: u64) -> WorkloadSpec {
    if epoch == 0 {
        return *spec;
    }
    let mut s = *spec;
    let mut rng = Prng::seed_from_u64(
        spec.program_seed() ^ 0xec0c_d21f ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    // Zipf skew drifts ±5%, phase locality ±10% (clamped to sane bounds).
    s.zipf_alpha = (s.zipf_alpha * (1.0 + (rng.gen_f64() - 0.5) * 0.10)).clamp(0.3, 2.5);
    s.phase_local_fraction =
        (s.phase_local_fraction * (1.0 + (rng.gen_f64() - 0.5) * 0.20)).clamp(0.02, 0.5);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::hash::FastHashSet;

    #[test]
    fn exact_length() {
        let t = build_trace(AppId::Finagle, InputVariant(2), 777);
        assert_eq!(t.len(), 777);
    }

    #[test]
    fn variants_share_the_static_code() {
        let a = build_trace(AppId::Kafka, InputVariant(0), 30_000);
        let b = build_trace(AppId::Kafka, InputVariant(1), 30_000);
        // Dynamic streams differ...
        assert_ne!(a, b);
        // ...but the bulk of variant-b *accesses* go to addresses variant-a
        // also touched (same binary, shared hot code; the cold Zipf tail may
        // differ by sampling).
        let sa: FastHashSet<u64> = a.iter().map(|x| x.pw().start.get()).collect();
        let shared_accesses = b
            .iter()
            .filter(|x| sa.contains(&x.pw().start.get()))
            .count();
        assert!(
            shared_accesses * 10 > b.len() * 6,
            "{shared_accesses} of {} accesses hit shared code",
            b.len()
        );
    }

    #[test]
    fn scaled_trace_is_drifted_repetition_not_tiling() {
        let n = 4_000;
        let scaled = build_trace_scaled(AppId::Finagle, InputVariant(0), n, 3);
        assert_eq!(scaled.len(), 3 * n);
        let base = build_trace(AppId::Finagle, InputVariant(0), n);
        // Epoch 0 is exactly the unscaled trace...
        assert_eq!(scaled.slice(0..n), base);
        // ...and later epochs are not copies of it (no plain tiling)...
        assert_ne!(scaled.slice(n..2 * n), base);
        assert_ne!(scaled.slice(2 * n..3 * n), scaled.slice(n..2 * n));
        // ...yet they mostly revisit the same (hot) code.
        let first: FastHashSet<u64> = base.iter().map(|a| a.pw().start.get()).collect();
        let revisits = scaled
            .slice(n..2 * n)
            .iter()
            .filter(|a| first.contains(&a.pw().start.get()))
            .count();
        assert!(revisits * 10 > n * 5, "{revisits} of {n} accesses shared");
    }

    #[test]
    fn custom_spec_is_respected() {
        let mut spec = AppId::Python.spec();
        spec.regions = 50;
        let t = build_trace_with_spec(&spec, InputVariant(0), 2000);
        assert!(t.unique_starts() < 50 * 60);
    }
}
