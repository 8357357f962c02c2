//! Machinery shared by the workloads: the seeded generator, timing
//! statistics, peak memory, span tracing, the estimate-error metric and
//! the result line.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_bench::{characterize_cpu, characterized_design, end_time_cycles};
use tlm_core::parallel::par_map;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::{Pipeline, PipelineError, PipelineStats};
use tlm_platform::tlm::TlmConfig;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// When the process started; the first set-up is timed from here.
    pub started: Instant,
}

/// Times the set-up is repeated in an end-to-end run; `setup_s` is the
/// median, so one slow repetition cannot move it.
const SETUP_REPEATS: usize = 5;

/// Deterministic xorshift64* generator seeded through splitmix64, so
/// neighbouring seeds give unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of item `index` of stream `stream` under `seed`. Each
    /// op draws from its own generator, so its inputs do not depend on
    /// which thread runs it or how many ops ran before.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Rng {
        let mut x = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f) ^ index;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((x ^ (x >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile of `values` by nearest rank (`q` in `0..=1`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

/// One closed span: a layer call timed from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.annotate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

/// Span recorder for one thread. When off, every call is a no-op, so the
/// end-to-end run executes the same code without recording.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer { epoch, on, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let span = Span { name, start: self.now(), end: 0, parent: self.open.last().copied() };
            self.open.push(self.spans.len());
            self.spans.push(span);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let now = self.now();
            let id = self.open.pop().expect("close matches an open span");
            self.spans[id].end = now;
        }
    }

    /// Closes the innermost open span under a name chosen after the call
    /// returned (a stage demand is a lookup or a compute only in hindsight).
    pub fn close_as(&mut self, name: &'static str) {
        if self.on {
            let id = *self.open.last().expect("close matches an open span");
            self.spans[id].name = name;
            self.close();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Drops every recorded span (used to discard warm-up spans).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

thread_local! {
    /// Pipeline stage demands on this thread that ran their computation.
    static STAGE_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Installs the pipeline's stage observer so [`stage_misses`] counts the
/// computations a thread's demands ran. Process-wide; the first
/// installation wins.
pub fn count_stage_misses() {
    tlm_pipeline::set_stage_observer(|_stage, hit| {
        if !hit {
            STAGE_MISSES.with(|m| m.set(m.get() + 1));
        }
    });
}

/// Stage computations run by this thread's demands so far.
pub fn stage_misses() -> u64 {
    STAGE_MISSES.with(Cell::get)
}

/// Runs one pipeline demand inside a span named `miss` when it ran a stage
/// computation and `hit` when the stores answered it.
pub fn demand<R>(
    tr: &mut Tracer,
    miss: &'static str,
    hit: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let before = stage_misses();
    tr.open(hit);
    let out = f();
    tr.close_as(if stage_misses() > before { miss } else { hit });
    out
}

/// The MiniC sources of the MP3 decoder's six processes.
pub fn mp3_sources() -> Vec<String> {
    use tlm_apps::mp3::{self, chan};
    vec![
        mp3::frontend_source(),
        mp3::imdct_source(chan::SPEC_L, chan::SUB_L),
        mp3::imdct_source(chan::SPEC_R, chan::SUB_R),
        mp3::filter_source(chan::SUB_L, chan::PCM_L),
        mp3::filter_source(chan::SUB_R, chan::PCM_R),
        mp3::sink_source(),
    ]
}

/// Runs the front end over `sources` on a cold pipeline, one span per
/// layer: `Pipeline::ast` (parse), `Pipeline::frontend` (lower and
/// optimize, the parse now a hit) and `Pipeline::prepared`.
///
/// # Errors
///
/// The first front-end failure.
pub fn warm_sources(
    pipeline: &Pipeline,
    tr: &mut Tracer,
    sources: &[String],
) -> Result<(), PipelineError> {
    for source in sources {
        tr.time("minic.parse", || pipeline.ast(source))?;
        let artifact = tr.time("cdfg.lower", || pipeline.frontend(source))?;
        tr.time("core.prepare", || pipeline.prepared(&artifact))?;
    }
    Ok(())
}

/// Self time (span time minus the time of its child spans) summed per
/// span name, with the number of spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (Duration, u64)> {
    let mut child = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child[p] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(child) {
        let entry = out.entry(span.name).or_default();
        entry.0 += Duration::from_nanos(span.end - span.start - child_ns);
        entry.1 += 1;
    }
    out
}

/// Total time of every span named `name`.
pub fn total_time(spans: &[Span], name: &str) -> Duration {
    spans.iter().filter(|s| s.name == name).map(|s| Duration::from_nanos(s.end - s.start)).sum()
}

/// Renders spans as a Chrome trace (`"X"` complete events, one `tid` per
/// recording thread), the format `GET /trace/{id}` exports. At most
/// `limit` spans per thread are written.
pub fn chrome_trace(threads: &[&[Span]], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for (id, span) in spans.iter().take(limit).enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start as f64 / 1e3,
                (span.end - span.start) as f64 / 1e3,
            );
        }
    }
    out.push_str("]}\n");
    out
}

/// The (design, cache label) cells the estimate error is measured on: the
/// software-only design at a small and a large cache, and one
/// hardware-accelerated design at the base cache.
const ACCURACY_CELLS: [(Mp3Design, &str); 3] =
    [(Mp3Design::Sw, "2k/2k"), (Mp3Design::Sw, "16k/16k"), (Mp3Design::SwPlus2, "8k/4k")];

/// Mean |TLM − board| / board cycles in percent over [`ACCURACY_CELLS`],
/// the role of the paper's Tables 2 and 3: the CPU is characterized on the
/// training input, and each cell's timed TLM is compared with the
/// cycle-accurate board model on the evaluation input. Deterministic.
///
/// # Errors
///
/// A message when a cell's TLM and board runs decode different outputs.
pub fn estimate_error_pct() -> Result<f64, String> {
    let designs = [Mp3Design::Sw, Mp3Design::SwPlus2];
    let chrs = par_map(&designs, |&d| characterize_cpu(d, Mp3Params::training()));
    let errors = par_map(&ACCURACY_CELLS, |&(design, label)| {
        let &(_, ic, dc) =
            CACHE_SWEEP.iter().find(|(l, _, _)| *l == label).expect("label is a sweep point");
        let chr = &chrs[designs.iter().position(|&d| d == design).expect("characterized")];
        let prepared = characterized_design(design, Mp3Params::evaluation(), ic, dc, chr);
        let board = run_board(&prepared.platform, &BoardConfig::default())
            .map_err(|e| format!("{design} {label}: board: {e}"))?;
        let tlm = Pipeline::global()
            .run_timed(&prepared, &TlmConfig::default())
            .map_err(|e| format!("{design} {label}: TLM: {e}"))?;
        if board.outputs != tlm.outputs {
            return Err(format!("{design} {label}: TLM and board decode different outputs"));
        }
        let (b, t) = (end_time_cycles(board.end_time), end_time_cycles(tlm.end_time));
        Ok((t as f64 - b as f64).abs() / b as f64 * 100.0)
    });
    let errors = errors.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(mean(&errors))
}

/// Spans whose per-op self time is a per-layer metric, with the metric.
const OP_LAYERS: [(&str, &str); 6] = [
    ("core.annotate", "core.annotate_ms"),
    ("pipeline.lookup", "pipeline.lookup_ms"),
    ("pipeline.report", "pipeline.report_ms"),
    ("pipeline.design", "pipeline.design_ms"),
    ("platform.run", "platform.run_ms"),
    ("bench.op", "bench.glue_ms"),
];

/// Spans of a traced set-up whose total is a per-layer metric.
const SETUP_LAYERS: [(&str, &str); 3] = [
    ("minic.parse", "minic.parse_ms"),
    ("cdfg.lower", "cdfg.lower_ms"),
    ("core.prepare", "core.prepare_ms"),
];

/// Per-layer metrics of a traced run, by declared name; undeclared names
/// are refused when the result line is assembled.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// The traced phase's spans, one list per recording thread.
    pub spans: Vec<Vec<Span>>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// One metric; 0 when the workload did not touch the layer.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric set.
    pub fn names(&self) -> impl Iterator<Item = &&'static str> {
        self.values.keys()
    }

    /// Front-end layer times (ms) from a traced set-up.
    pub fn setup(&mut self, spans: &[Span]) {
        for (span, metric) in SETUP_LAYERS {
            self.set(metric, ms(total_time(spans, span)));
        }
    }

    /// Per-op self time (ms) of each op layer over `ops` traced ops rooted
    /// at `bench.op` spans, the traced op time, and the residual: the share
    /// of op time no layer span covers (the benchmark's own glue).
    pub fn ops(&mut self, spans: &[Span], ops: u64) {
        let selfs = self_times(spans);
        for (span, metric) in OP_LAYERS {
            self.set(metric, selfs.get(span).map_or(0.0, |&(d, _)| ms(d)) / ops as f64);
        }
        let op = ms(total_time(spans, "bench.op")) / ops as f64;
        self.set("trace.op_ms", op);
        self.set("trace.residual_pct", self.get("bench.glue_ms") / op * 100.0);
    }

    /// Tracing overhead: how much lower traced throughput is than untraced
    /// throughput over the same number of ops, in percent.
    pub fn overhead(&mut self, untraced: Duration, traced: Duration) {
        self.set(
            "trace.overhead_pct",
            (1.0 - untraced.as_secs_f64() / traced.as_secs_f64()) * 100.0,
        );
    }

    /// Pipeline counter deltas between two snapshots, plus the resident
    /// key bytes at the end.
    pub fn pipeline_deltas(&mut self, before: &PipelineStats, after: &PipelineStats) {
        let d = |a: u64, b: u64| (b - a) as f64;
        self.set("pipeline.annotated.hits", d(before.annotated.hits, after.annotated.hits));
        self.set("pipeline.annotated.misses", d(before.annotated.misses, after.annotated.misses));
        self.set("pipeline.report.hits", d(before.report.hits, after.report.hits));
        self.set("pipeline.report.misses", d(before.report.misses, after.report.misses));
        self.set("pipeline.rows.misses", d(before.rows.misses, after.rows.misses));
        self.set("pipeline.schedules.misses", d(before.schedules.misses, after.schedules.misses));
        let evictions = |s: &PipelineStats| s.stages().iter().map(|(_, st)| st.evictions).sum();
        self.set("pipeline.evictions", d(evictions(before), evictions(after)));
        let bytes: u64 = after.stages().iter().map(|(_, st)| st.bytes).sum();
        self.set("pipeline.resident_bytes", bytes as f64);
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the measured region(s).
    pub attempted: u64,
    /// Ops that failed or whose outputs did not check.
    pub failed: u64,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Lines of human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one failed op with its reason.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// The last stdout line: the result object.
    pub fn result_line(&self) -> String {
        let correct = self.failed == 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Iterations of the host-speed probe, about 3 ms on the reference host.
const PROBE_ITERS: u64 = 400_000;
/// The probe's time on the reference host, a quiet 2-vCPU x86-64 VM.
const PROBE_REF_MS: f64 = 3.3;
/// Length of one slice of the timed region; the probe runs between slices.
const SLICE: Duration = Duration::from_millis(100);

/// A fixed piece of CPU work, independent of the code under test, with
/// the shape of an interpreter's inner loop: data-dependent branches and
/// scattered reads and writes over a 256 KiB table.
fn probe(iters: u64) -> u64 {
    let mut table = vec![0u32; 1 << 16];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & 0xffff;
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add((x >> 35) as u32);
            acc = acc.wrapping_add(u64::from(v));
        } else {
            table[(i * 7) & 0xffff] ^= v >> 1;
            acc ^= x;
        }
    }
    acc
}

/// How fast the host runs right now relative to the reference host: the
/// probe's reference time over its measured time (below 1 when slower).
pub fn host_speed() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(probe(std::hint::black_box(PROBE_ITERS)));
    PROBE_REF_MS / ms(t0.elapsed())
}

/// The timed region's clock. The host this runs on shares its cores with
/// other tenants, and its speed drifts by tens of percent over seconds to
/// minutes. Ops therefore run in slices of [`SLICE`], the host-speed probe
/// runs before the first and after every slice, and every time is also
/// reported in reference-host units: scaled by the speed measured around
/// its slice. A change to the program moves both kinds of time alike; a
/// busier host moves only the raw ones.
#[derive(Debug)]
pub struct Clock {
    /// Raw op latency (ms) and the slice it ran in.
    ops: Vec<(f64, usize)>,
    /// Raw wall time of each slice.
    walls: Vec<Duration>,
    /// Host speed before the first and after every slice.
    speeds: Vec<f64>,
}

impl Clock {
    /// A clock whose first speed reading is taken now.
    pub fn new() -> Clock {
        Clock { ops: Vec::new(), walls: Vec::new(), speeds: vec![host_speed()] }
    }

    /// Whether the current slice, started at `start`, is over.
    pub fn slice_over(start: Instant) -> bool {
        start.elapsed() >= SLICE
    }

    /// Slices in a timed region of `seconds`.
    pub fn slices(seconds: f64) -> usize {
        ((seconds / SLICE.as_secs_f64()).round() as usize).max(1)
    }

    /// Records one op of the current slice.
    pub fn record(&mut self, raw_ms: f64) {
        self.ops.push((raw_ms, self.walls.len()));
    }

    /// Records one op that ran in slice `slice` (of a phase whose slices
    /// another thread closed).
    pub fn record_in(&mut self, raw_ms: f64, slice: usize) {
        self.ops.push((raw_ms, slice));
    }

    /// Closes the current slice after `wall` and reads the host speed.
    pub fn end_slice(&mut self, wall: Duration) {
        self.walls.push(wall);
        self.speeds.push(host_speed());
    }

    fn speed(&self, slice: usize) -> f64 {
        (self.speeds[slice] + self.speeds[slice + 1]) / 2.0
    }

    /// Runs `op(i)` for i = 0, 1, … back to back for `seconds`, one thread.
    pub fn run(seconds: f64, mut op: impl FnMut(u64)) -> Clock {
        let mut clock = Clock::new();
        let mut i = 0;
        for _ in 0..Clock::slices(seconds) {
            let start = Instant::now();
            while !Clock::slice_over(start) {
                let t0 = Instant::now();
                op(i);
                clock.record(ms(t0.elapsed()));
                i += 1;
            }
            clock.end_slice(start.elapsed());
        }
        clock
    }

    /// Ops recorded.
    pub fn ops(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Op latencies (ms): raw, or in reference-host units.
    pub fn latencies(&self, reference: bool) -> Vec<f64> {
        self.ops.iter().map(|&(t, k)| if reference { t * self.speed(k) } else { t }).collect()
    }

    /// Throughput (ops/s): raw, or in reference-host units.
    pub fn throughput(&self, reference: bool) -> f64 {
        let wall: f64 = self
            .walls
            .iter()
            .enumerate()
            .map(|(k, w)| w.as_secs_f64() * if reference { self.speed(k) } else { 1.0 })
            .sum();
        self.ops.len() as f64 / wall
    }

    /// Median host speed over the region.
    pub fn median_speed(&self) -> f64 {
        quantile(&self.speeds, 0.5)
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next, and returns the last result with every repetition's duration in
/// reference-host seconds (scaled by the host speed read around it).
/// The first repetition is timed from process start.
pub fn repeat_setup<S>(
    started: Instant,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let mut state = None;
    let mut times = Vec::new();
    for k in 0..SETUP_REPEATS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let before = if k == 0 { None } else { Some(host_speed()) };
        let t0 = if k == 0 { started } else { Instant::now() };
        state = Some(setup());
        let raw = t0.elapsed().as_secs_f64();
        let after = host_speed();
        times.push(raw * before.map_or(after, |b| (b + after) / 2.0));
    }
    (state.expect("set up at least once"), times)
}

/// The end-to-end metrics shared by every workload, from the set-up
/// repetitions and the timed region.
pub fn end_to_end(out: &mut Outcome, setups: &[f64], clock: &Clock, rss: f64) {
    let lat = clock.latencies(true);
    out.metric("setup_s", quantile(setups, 0.5), "s");
    out.metric("throughput_per_s", clock.throughput(true), "1/s");
    out.metric("p50_ms", quantile(&lat, 0.5), "ms");
    out.metric("p90_ms", quantile(&lat, 0.9), "ms");
    out.metric("peak_rss_mib", rss, "MiB");
    let raw = clock.latencies(false);
    out.notes.push(format!(
        "latency samples {}; host speed {:.3} of reference; raw throughput {:.4}/s, p50 {:.4} ms, p90 {:.4} ms",
        lat.len(),
        clock.median_speed(),
        clock.throughput(false),
        quantile(&raw, 0.5),
        quantile(&raw, 0.9),
    ));
}
