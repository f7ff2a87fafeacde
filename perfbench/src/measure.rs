//! Timing, process accounting and the span recorder behind the traced
//! per-layer report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linux reports process CPU time in clock ticks of this rate (USER_HZ).
const TICKS_PER_SECOND: f64 = 100.0;

/// Value at quantile `q` (nearest rank) of an unsorted sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time (user + system, all threads) process `pid` has consumed so
/// far, in ms.
pub fn process_cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND * 1e3
}

/// CPU time the calling thread has consumed so far, in ms, to the
/// nanosecond (the scheduler's own runtime count, user and system).
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e6)
}

/// Peak resident set size (`VmHWM`) of `pid` (this process for `None`),
/// in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let dir = pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"));
    let status = std::fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall time of one operation, and the CPU time the program under test
/// spent in it (0 where the loop measures the program's CPU as a whole).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall: Duration,
    pub cpu_ms: f64,
}

/// Runs `f` on the calling thread and returns its result with its wall
/// and CPU time; what the caller does before and after (making inputs,
/// checking outputs) stays out of both.
pub fn cost<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu = thread_cpu_ms();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed();
    let cpu_ms = thread_cpu_ms() - cpu;
    (out, Cost { wall, cpu_ms })
}

/// Operations per block of the 99th percentile: ten samples lie beyond
/// each block's.
pub const P99_BLOCK_OPS: usize = 1_000;

/// One attempted operation of a closed loop.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    /// When it completed, counted from the start of the loop.
    done_ms: f64,
    latency_ms: f64,
    cpu_ms: f64,
    ok: bool,
}

/// What a timed closed loop observed.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every attempted operation, in order of completion.
    ops: Vec<OpRecord>,
    pub attempted: u64,
    pub failed: u64,
    /// Concurrent callers of the loop.
    pub connections: usize,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// CPU time of the process under test over the whole loop, in ms,
    /// where the loop measured it as a whole (`pid`).
    pub process_cpu_ms: Option<f64>,
}

impl Timed {
    fn record(&mut self, done: Duration, cost: Cost, result: Result<(), String>) {
        self.attempted += 1;
        self.ops.push(OpRecord {
            done_ms: ms(done),
            latency_ms: ms(cost.wall),
            cpu_ms: cost.cpu_ms,
            ok: result.is_ok(),
        });
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: operation failed: {e}");
            }
        }
    }

    fn merge(&mut self, other: Timed) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn latencies_ms(ops: &[OpRecord]) -> Vec<f64> {
        ops.iter().map(|o| o.latency_ms).collect()
    }

    pub fn p50(&self) -> f64 {
        quantile(&Self::latencies_ms(&self.ops), 0.50)
    }

    /// The lowest, over consecutive blocks of `P99_BLOCK_OPS` operations,
    /// of each block's 99th percentile (over the whole loop when it is
    /// shorter than a block). The load is the same in every block, so the
    /// program's own tail shows in each; stalls of the host come in
    /// phases and only lengthen the blocks they fall in.
    pub fn p99(&self) -> f64 {
        if self.ops.len() < P99_BLOCK_OPS {
            return quantile(&Self::latencies_ms(&self.ops), 0.99);
        }
        self.ops
            .chunks_exact(P99_BLOCK_OPS)
            .map(|block| quantile(&Self::latencies_ms(block), 0.99))
            .fold(f64::INFINITY, f64::min)
    }

    /// Verified operations per second the callers spent waiting on the
    /// program: the benchmark's own work between operations (making
    /// inputs, checking outputs) does not count.
    pub fn throughput(&self) -> f64 {
        let ok = self.ops.iter().filter(|o| o.ok).count();
        let busy_ms: f64 = self.ops.iter().map(|o| o.latency_ms).sum();
        ok as f64 * self.connections as f64 / (busy_ms / 1e3)
    }

    /// CPU time of the program under test per operation, in ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let cpu_ms = self
            .process_cpu_ms
            .unwrap_or_else(|| self.ops.iter().map(|o| o.cpu_ms).sum());
        cpu_ms / self.attempted as f64
    }
}

/// Runs a closed loop of one caller per entry of `callers` until `budget`
/// has passed. Each caller runs `op` on its own state back to back; `op`
/// returns its operation's cost and whether its output checked out. With
/// `pid`, the program under test is that process and the loop reads the
/// CPU time it used meanwhile; otherwise the operations report their
/// own. Returns the merged observations and the callers' states.
pub fn closed_loop<S: Send>(
    budget: Duration,
    callers: Vec<S>,
    pid: Option<u32>,
    op: impl Fn(&mut S) -> (Cost, Result<(), String>) + Sync,
) -> (Timed, Vec<S>) {
    let connections = callers.len();
    let cpu_before = pid.map(process_cpu_ms);
    let started = Instant::now();
    let per_caller: Vec<(Timed, S)> = std::thread::scope(|scope| {
        let op = &op;
        let workers: Vec<_> = callers
            .into_iter()
            .map(|mut state| {
                scope.spawn(move || {
                    let mut timed = Timed::default();
                    while started.elapsed() < budget {
                        let (cost, result) = op(&mut state);
                        timed.record(started.elapsed(), cost, result);
                    }
                    (timed, state)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a load caller panicked"))
            .collect()
    });
    let mut timed = Timed {
        connections,
        ..Timed::default()
    };
    let mut states = Vec::with_capacity(connections);
    for (t, state) in per_caller {
        timed.merge(t);
        states.push(state);
    }
    timed.ops.sort_by(|a, b| a.done_ms.total_cmp(&b.done_ms));
    timed.wall = started.elapsed();
    if let (Some(pid), Some(before)) = (pid, cpu_before) {
        timed.process_cpu_ms = Some(process_cpu_ms(pid) - before);
    }
    (timed, states)
}

/// One operation's spans: a tree rooted at the operation itself.
/// Estimated spans stand for calls the benchmark cannot wrap from the
/// outside (they happen inside a layer's public function); their
/// duration is a call count times a per-call time measured on the same
/// inputs, capped by what the parent has left.
#[derive(Debug)]
pub struct OpTrace {
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Span {
    layer: &'static str,
    parent: usize,
    calls: f64,
    ms: f64,
}

pub const ROOT: usize = 0;

impl OpTrace {
    pub fn new() -> Self {
        OpTrace {
            spans: vec![Span {
                layer: "op",
                parent: ROOT,
                calls: 1.0,
                ms: 0.0,
            }],
        }
    }

    /// Records a measured span of `calls` calls under `parent`.
    pub fn span(&mut self, parent: usize, layer: &'static str, calls: f64, d: Duration) -> usize {
        self.spans.push(Span {
            layer,
            parent,
            calls,
            ms: ms(d),
        });
        self.spans.len() - 1
    }

    /// Records `calls` calls of `per_call_ms` each under `parent`,
    /// capped at the parent's uncovered time.
    pub fn estimate(
        &mut self,
        parent: usize,
        layer: &'static str,
        calls: f64,
        per_call_ms: f64,
    ) -> usize {
        let left = (self.spans[parent].ms - self.children_ms(parent)).max(0.0);
        let ms = (calls * per_call_ms).min(left);
        self.spans.push(Span {
            layer,
            parent,
            calls,
            ms,
        });
        self.spans.len() - 1
    }

    pub fn finish(&mut self, d: Duration) {
        self.spans[ROOT].ms = ms(d);
    }

    pub fn total_ms(&self) -> f64 {
        self.spans[ROOT].ms
    }

    fn children_ms(&self, parent: usize) -> f64 {
        // Spans are pushed after their parent, so the root (index 0) is
        // nobody's child.
        self.spans[1..]
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| s.ms)
            .sum()
    }

    fn self_ms(&self, i: usize) -> f64 {
        (self.spans[i].ms - self.children_ms(i)).max(0.0)
    }
}

/// Per-layer self time and call counts over a traced phase.
#[derive(Debug, Default)]
pub struct LayerReport {
    ops: usize,
    op_ms: Vec<f64>,
    /// Layer -> (total self ms, total calls).
    layers: BTreeMap<&'static str, (f64, f64)>,
    unexplained_ms: f64,
}

impl LayerReport {
    pub fn add(&mut self, trace: &OpTrace) {
        self.ops += 1;
        self.op_ms.push(trace.total_ms());
        self.unexplained_ms += trace.self_ms(ROOT);
        for (i, span) in trace.spans.iter().enumerate().skip(1) {
            let entry = self.layers.entry(span.layer).or_default();
            entry.0 += trace.self_ms(i);
            entry.1 += span.calls;
        }
    }

    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Calls recorded for `layer` (0 when it never ran).
    pub fn calls(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |&(_, calls)| calls)
    }

    /// Mean self time per call, in µs (0 when the layer never ran).
    pub fn per_call_us(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(&(ms, calls)) if calls > 0.0 => ms * 1e3 / calls,
            _ => 0.0,
        }
    }

    /// Mean self time per operation, in ms.
    pub fn per_op_ms(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |&(ms, _)| ms / self.ops.max(1) as f64)
    }

    /// Mean time per operation no layer accounts for, in ms.
    pub fn unexplained_ms(&self) -> f64 {
        self.unexplained_ms / self.ops.max(1) as f64
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&self.op_ms, 0.5)
    }

    /// Every layer's self time, largest first, for the stderr report.
    pub fn table(&self) -> String {
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
        let mut out = String::from("layer                          self ms/op   calls/op\n");
        let n = self.ops.max(1) as f64;
        for (layer, (ms, calls)) in rows {
            out.push_str(&format!(
                "{layer:<30} {:>10.4} {:>10.2}\n",
                ms / n,
                calls / n
            ));
        }
        out.push_str(&format!(
            "{:<30} {:>10.4}\n",
            "(unexplained)",
            self.unexplained_ms()
        ));
        out
    }
}

/// Median wall time of `f` over `n` calls, in ms.
pub fn probe_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    quantile(&samples, 0.5)
}
