//! Round-based timing, in-memory span tracing and the small statistics the
//! report needs.
//!
//! A run times many identical rounds of one workload.  Inside a round the
//! workload times every call it makes into the library through [`Calls`]:
//! untraced rounds keep only the per-call latencies, traced rounds also keep
//! one [`Span`] per call boundary (round → batch → call) so that each layer's
//! self time can be computed afterwards.

/// What a span stands for: the two levels the benchmark itself drives, and
/// the library layer a timed call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole round (benchmark code).
    Round,
    /// One mini-batch step inside a round (benchmark code).
    Batch,
    /// Insertion descent, split and summary refresh (`insert_batch`,
    /// `learn_batch`).
    Descent,
    /// Anytime query refinement (`outlier_score`, `classify_with_budget`,
    /// `anytime_knn`).
    Query,
    /// Pinning a snapshot and releasing the pin.
    Snapshot,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Round => "round",
            Kind::Batch => "batch",
            Kind::Descent => "descent",
            Kind::Query => "query",
            Kind::Snapshot => "snapshot",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Which timed interval is one latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyOf {
    /// Every call into this layer.
    Call(Kind),
    /// Every mini-batch step.
    Batch,
}

/// One recorded interval, in nanoseconds of thread CPU time ([`cpu_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the enclosing span within the same round, `None` for the
    /// round itself.
    pub parent: Option<u32>,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds this thread has spent on a CPU.
///
/// Every timing of the benchmark reads this clock
/// (`CLOCK_THREAD_CPUTIME_ID`) rather than the wall clock.  The thread is
/// the only one doing the work, so the two agree except for time the thread
/// did not run: time other processes held the vCPU, and time the host took
/// the vCPU away (steal, which the kernel keeps out of task run time).  Both
/// come from the machine, not from the program.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// The per-round call timer handed to a workload.
pub struct Calls {
    latency_of: LatencyOf,
    traced: bool,
    /// Latency samples of the current round, in nanoseconds.
    latencies: Vec<u64>,
    /// Spans of the current round (traced rounds only).
    spans: Vec<Span>,
    /// The span new calls nest under.
    parent: Option<u32>,
}

impl Calls {
    pub fn new(latency_of: LatencyOf) -> Self {
        Self {
            latency_of,
            traced: false,
            latencies: Vec::new(),
            spans: Vec::new(),
            parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        cpu_ns()
    }

    /// Starts a round, traced or not; clears the previous round's samples.
    pub fn begin_round(&mut self, traced: bool) {
        self.traced = traced;
        self.latencies.clear();
        self.spans.clear();
        self.parent = None;
        if traced {
            let now = self.now_ns();
            self.parent = Some(self.push(Kind::Round, now));
        }
    }

    /// Ends the round; returns its latency samples and spans.
    pub fn end_round(&mut self) -> (Vec<u64>, Vec<Span>) {
        if let Some(round) = self.parent.take() {
            let now = self.now_ns();
            self.spans[round as usize].end_ns = now;
        }
        (
            std::mem::take(&mut self.latencies),
            std::mem::take(&mut self.spans),
        )
    }

    fn push(&mut self, kind: Kind, start_ns: u64) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per round");
        self.spans.push(Span {
            parent: self.parent,
            kind,
            start_ns,
            end_ns: start_ns,
        });
        index
    }

    /// Runs one mini-batch step; everything `step` does outside a
    /// [`Calls::call`] is benchmark self time.
    pub fn batch<R>(&mut self, step: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.now_ns();
        let outer = self.parent;
        if self.traced {
            self.parent = Some(self.push(Kind::Batch, start));
        }
        let result = step(self);
        let end = self.now_ns();
        if self.traced {
            let index = self.parent.expect("batch span is open") as usize;
            self.spans[index].end_ns = end;
            self.parent = outer;
        }
        if self.latency_of == LatencyOf::Batch {
            self.latencies.push(end - start);
        }
        result
    }

    /// Times one call into the library layer `kind`.
    pub fn call<R>(&mut self, kind: Kind, call: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let result = call();
        let end = self.now_ns();
        if self.traced {
            let index = self.push(kind, start);
            self.spans[index as usize].end_ns = end;
        }
        if self.latency_of == LatencyOf::Call(kind) {
            self.latencies.push(end - start);
        }
        result
    }
}

/// Self time per span kind over one round's spans (indexed by
/// [`self_time_of`]): a span's duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> [u64; 5] {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut by_kind = [0u64; 5];
    for (span, children) in spans.iter().zip(child_ns) {
        by_kind[span.kind.index()] += span.duration_ns().saturating_sub(children);
    }
    by_kind
}

/// Self time of `kind` in a [`self_times`] result.
pub fn self_time_of<T: Copy>(times: &[T; 5], kind: Kind) -> T {
    times[kind.index()]
}

/// Nearest-rank percentile `p` (0–100) of unsorted samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Median of a non-empty slice of floats.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Values the speed probe sorts per pass: 8192 random `f64` (64 KiB),
/// about 0.3 ms on the 2-vCPU host.
const PROBE_VALUES: usize = 8_192;
/// Passes per probe; the fastest one counts.
const PROBE_TRIES: usize = 3;
/// The probe time every timing is scaled to (see [`SpeedProbe`]).
pub const PROBE_NOMINAL_S: f64 = 300e-6;

/// A fixed reference kernel that tracks how fast the host runs right now.
///
/// A shared host changes speed for seconds to minutes at a time, so whole
/// runs can read 2× slow.  The probe, which sorts a fixed array of random
/// floats, is timed just before and just after each round and each set-up.
/// Its code belongs to the benchmark, never to the library, so a library
/// change leaves it alone.  A timing `t` is reported as
/// `t × PROBE_NOMINAL_S / probe`: the time at the speed where one probe
/// pass takes [`PROBE_NOMINAL_S`].
///
/// Sorting random data is made of data-dependent branches and short loads,
/// like the trees' descents and scans, and its time moved in proportion to
/// the workloads' own across host phases.  Kernels of plain arithmetic,
/// vector arithmetic or random reads over 8–32 MiB moved by less than the
/// workloads and left them 1.1–1.3× apart (see `perfbench/README.md`).
pub struct SpeedProbe {
    values: Vec<f64>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut rng = SplitMix(0x5eed);
        Self {
            values: (0..PROBE_VALUES).map(|_| rng.next_f64()).collect(),
        }
    }

    /// Seconds of the fastest of [`PROBE_TRIES`] passes.
    pub fn time(&self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PROBE_TRIES {
            let start = cpu_ns();
            let mut values = self.values.clone();
            values.sort_unstable_by(f64::total_cmp);
            std::hint::black_box(&values);
            best = best.min((cpu_ns() - start) as f64 * 1e-9);
        }
        best
    }

    /// Times `work` between two probes; returns its result, its seconds
    /// and the scale that brings them to the nominal speed.
    pub fn bracket<R>(&self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.time();
        let start = cpu_ns();
        let result = work();
        let secs = (cpu_ns() - start) as f64 * 1e-9;
        let after = self.time();
        (result, secs, 2.0 * PROBE_NOMINAL_S / (before + after))
    }
}

/// Tiny deterministic generator (SplitMix64) for query noise.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(None, Kind::Round, 0, 100),
            span(Some(0), Kind::Batch, 10, 60),
            span(Some(1), Kind::Descent, 20, 40),
            span(Some(1), Kind::Query, 40, 55),
        ];
        let t = self_times(&spans);
        assert_eq!(self_time_of(&t, Kind::Round), 50);
        assert_eq!(self_time_of(&t, Kind::Batch), 15);
        assert_eq!(self_time_of(&t, Kind::Descent), 20);
        assert_eq!(self_time_of(&t, Kind::Query), 15);
        assert_eq!(t.iter().sum::<u64>(), 100);
    }

    #[test]
    fn percentiles_and_median() {
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 50.0), 50.0);
        assert_eq!(percentile(&mut samples, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn calls_nest_spans_under_batches() {
        let mut calls = Calls::new(LatencyOf::Call(Kind::Query));
        calls.begin_round(true);
        calls.batch(|c| {
            c.call(Kind::Descent, || ());
            c.call(Kind::Query, || ());
        });
        let (latencies, spans) = calls.end_round();
        assert_eq!(latencies.len(), 1);
        let kinds: Vec<Kind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [Kind::Round, Kind::Batch, Kind::Descent, Kind::Query]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
    }
}
