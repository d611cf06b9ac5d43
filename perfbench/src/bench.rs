//! Shared machinery of the workloads: the result record, the timed
//! window, the traced window, and small helpers over registry plans.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_graph::EngineChoice;
use wino_guard::{GuardedConv, GuardrailPolicy};
use wino_probe::Mode;
use wino_serve::LayerPlan;
use wino_transform::{TransformRecipes, WinogradSpec};

use crate::spans::{TraceTotals, CONV_PHASES};

/// Repeats a workload's set-up at least three times and, while they
/// are cheap, until two seconds have gone into them (at most 25
/// times). Keeps the last set-up and returns it; puts the median
/// set-up seconds as `setup_s` and the peak RSS so far as
/// `peak_rss_mib`. `teardown` retires each earlier set-up.
///
/// The peak is taken here, after set-up and its warm-up round, and
/// not at the end of the run: later growth depends on how glibc's
/// per-thread arenas happen to interleave the engines' transient
/// buffers (net-stream ended anywhere between 275 and 381 MiB on
/// identical runs), so it is only printed on standard error.
pub fn setups<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> (T, f64),
    mut teardown: impl FnMut(T),
) -> T {
    let (mut kept, first) = setup();
    let mut times = vec![first];
    while times.len() < 3 || (times.iter().sum::<f64>() < 2.0 && times.len() < 25) {
        teardown(kept);
        let (next, s) = setup();
        kept = next;
        times.push(s);
    }
    eprintln!("{}", crate::stats::describe("setup", &times, "s"));
    report.put("setup_s", crate::stats::median(&times));
    report.put("peak_rss_mib", crate::sys::peak_rss_mib());
    kept
}

/// Runs `f` and reports on stderr how long it took (for the parts of
/// a run that are not measured, such as building references).
pub fn noted<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    eprintln!(
        "perfbench: {what} took {:.2}s (peak RSS {:.1} MiB)",
        secs(t0),
        crate::sys::peak_rss_mib()
    );
    out
}

/// End-to-end metrics, printed by every untraced run in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("rel_err_max", "1"),
    ("throughput_rps", "op/s"),
    ("gflops", "GFLOP/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
];

/// The Table-4 convs whose batched-GEMM shapes the gemm probe times:
/// few tiles at batch 1, few tiles at batch 5, many tiles.
pub const GEMM_PROBES: &[usize] = &[10, 25, 20];

/// Per-layer metrics, printed by every traced run in this order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("transform.recipe_gen_ms", "ms"),
        ("graph.engine_winograd", "count"),
        ("graph.engine_im2col", "count"),
        ("graph.engine_direct", "count"),
        ("conv.filter_transform_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for i in 1..=31 {
        v.push((format!("conv.t4-{i:02}_ms"), "ms"));
    }
    for (n, u) in [
        ("conv.table4_b1_gflops", "GFLOP/s"),
        ("conv.table4_b5_gflops", "GFLOP/s"),
        ("conv.input_transform_ms", "ms"),
        ("conv.batched_sgemm_ms", "ms"),
        ("conv.output_transform_ms", "ms"),
        ("conv.tile_gather_ms", "ms"),
        ("conv.tile_scatter_ms", "ms"),
        ("conv.input_transform_gflops", "GFLOP/s"),
        ("conv.batched_sgemm_gflops", "GFLOP/s"),
        ("conv.output_transform_gflops", "GFLOP/s"),
        ("conv.phase_coverage", "1"),
    ] {
        v.push((n.to_string(), u));
    }
    for &i in GEMM_PROBES {
        v.push((format!("gemm.gflops.t4-{i:02}"), "GFLOP/s"));
    }
    for (n, u) in [
        ("gemm.flops", "count"),
        ("gemm.batches", "count"),
        ("runtime.cpu_util", "1"),
        ("runtime.tasks", "count"),
        ("runtime.steals", "count"),
        ("runtime.parks", "count"),
        ("guard.check_ms", "ms"),
        ("guard.demotions", "count"),
        ("guard.fallback_served", "count"),
        ("exec.compile_ms", "ms"),
        ("exec.run_ms", "ms"),
        ("exec.node_conv_ms", "ms"),
        ("exec.node_pool_ms", "ms"),
        ("exec.node_concat_ms", "ms"),
        ("exec.waves", "count"),
        ("exec.arena_peak_bytes", "bytes"),
        ("exec.allocs_steady", "count"),
        ("exec.node_coverage", "1"),
        ("serve.register_ms", "ms"),
        ("serve.start_ms", "ms"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.execute_p50_ms", "ms"),
        ("serve.overhead_p50_ms", "ms"),
        ("serve.batch_mean", "count"),
        ("alloc.count_per_op", "count"),
        ("alloc.bytes_per_op", "bytes"),
        ("probe.trace_overhead_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that errored or fell outside the reference tolerance.
    pub failed: u64,
    /// Metric name → value (units come from the name tables).
    pub metrics: BTreeMap<String, f64>,
    /// Accounting checks of the traced run that did not hold.
    pub broken: Vec<String>,
}

/// Least share of a timed call its child spans must cover: the rest
/// is work no span claims (the guardrail scan and spot check, output
/// allocation, the executor's per-wave bookkeeping).
pub const MIN_COVERAGE: f64 = 0.9;

impl Report {
    /// Puts a coverage metric and books the accounting check on it.
    pub fn put_coverage(&mut self, name: &str, covered: f64, what: &str) {
        let ok = (MIN_COVERAGE..=1.0).contains(&covered);
        eprintln!(
            "accounting: {what} cover {:.1}% of the timed calls (needs {:.0}%..100%): {}",
            covered * 100.0,
            MIN_COVERAGE * 100.0,
            if ok { "pass" } else { "FAIL" }
        );
        if !ok {
            self.broken.push(name.to_string());
        }
        self.put(name, covered);
    }

    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Books one checked operation: it fails when the call errored or
    /// its output was rejected (`err` is `None`), or when its
    /// normalised error exceeds `tol`. Every finite error, failing or
    /// not, feeds `rel_err_max`.
    pub fn check(&mut self, err: Option<f64>, tol: f64, what: &str) {
        self.attempted += 1;
        if let Some(e) = err.filter(|e| e.is_finite()) {
            let worst = self.metrics.entry("rel_err_max".into()).or_insert(0.0);
            *worst = worst.max(e);
        }
        if !matches!(err, Some(e) if e <= tol) {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: {what} failed: error {err:?}, tolerance {tol:e}");
            }
        }
    }
}

/// Seeded generator for one workload's inputs: the workload name is
/// folded in so two workloads never share a stream.
pub fn rng(seed: u64, workload: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs whole rounds, at least one, until `seconds` have passed.
pub fn window(seconds: f64, mut round: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        round();
        if secs(t0) >= seconds {
            break;
        }
    }
}

/// Arms span and counter recording from a clean slate.
pub fn trace_on() {
    wino_probe::reset();
    wino_probe::set_mode(Mode::Summary);
    wino_probe::set_telemetry(true);
}

/// The accounting checks every traced window folds: the phase spans
/// of each direct `run_warm` call (its thread only), and the node
/// spans of each direct network run (any thread).
pub const CHECKS: &[(&str, &[&str], bool)] = &[
    ("bench.run_warm", CONV_PHASES, true),
    ("bench.exec_run", &["exec.node."], false),
];

/// Drains the last spans, reads every counter, and disarms recording.
pub fn trace_off(totals: &mut TraceTotals) -> BTreeMap<String, f64> {
    totals.drain(CHECKS);
    let values = wino_probe::counter_values()
        .into_iter()
        .map(|(n, v)| (n, v as f64))
        .collect();
    wino_probe::set_mode(Mode::Off);
    wino_probe::set_telemetry(false);
    values
}

/// Sum of every counter whose name starts with `prefix` and ends
/// with `suffix`.
pub fn counter_sum(values: &BTreeMap<String, f64>, prefix: &str, suffix: &str) -> f64 {
    values
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// The guarded runner a registered layer is served with.
pub fn guarded(plan: &LayerPlan, policy: GuardrailPolicy) -> GuardedConv {
    GuardedConv::new(plan.warm.as_ref().map_or(4, |pre| pre.spec().m))
        .with_chain(plan.chain.clone())
        .with_policy(policy)
        .with_gemm_config(plan.gemm)
}

/// Unit roundoff of f32.
const F32_U: f64 = f32::EPSILON as f64 / 2.0;

/// Largest absolute row sum of a transform matrix.
fn inf_norm(m: &wino_num::RatMat) -> f64 {
    let v = m.to_f64_vec();
    v.chunks(m.cols().max(1))
        .map(|row| row.iter().map(|x| x.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Tolerated normalised error of one conv served by `plan`:
/// `u · ‖Aᵀ‖∞ · ‖Bᵀ‖∞ · ‖G‖∞ · √(C·r²)`. `u` is the f32 unit roundoff.
/// Each transform can grow a rounding error by its largest row sum,
/// and random-signed errors over the `C·r²` products accumulate as
/// their square root. Direct and im2col plans have no transforms, so
/// their growth factor is 1.
pub fn conv_tolerance(plan: &LayerPlan) -> f64 {
    let growth = plan.warm.as_ref().map_or(1.0, |pre| {
        let m = &pre.recipes().matrices;
        inf_norm(&m.a_t) * inf_norm(&m.b_t) * inf_norm(&m.g)
    });
    let k = (plan.desc.in_ch * plan.desc.ksz * plan.desc.ksz) as f64;
    F32_U * growth * k.sqrt()
}

/// Winograd / im2col / direct counts over pinned plans.
pub fn engine_counts(plans: &[Arc<LayerPlan>]) -> [f64; 3] {
    let mut n = [0.0; 3];
    for p in plans {
        match p.engine {
            EngineChoice::Winograd(_) => n[0] += 1.0,
            EngineChoice::Im2col => n[1] += 1.0,
            EngineChoice::Direct => n[2] += 1.0,
        }
    }
    n
}

/// Generates the transform recipes of every distinct F(m, r) the
/// plans pin; returns the total milliseconds.
pub fn recipe_gen_ms(plans: &[Arc<LayerPlan>]) -> f64 {
    let mut seen = Vec::new();
    let t0 = Instant::now();
    for p in plans {
        if let EngineChoice::Winograd(cfg) = p.engine {
            let key = (cfg.m, p.desc.ksz, cfg.options);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let spec = WinogradSpec::new(cfg.m, p.desc.ksz).expect("pinned F(m, r) is valid");
            std::hint::black_box(
                TransformRecipes::generate(spec, cfg.options).expect("pinned recipes generate"),
            );
        }
    }
    secs(t0) * 1e3
}

/// Re-runs the filter transform of every Winograd plan through
/// `PrecomputedFilters::for_config`; returns the total milliseconds.
pub fn filter_transform_ms(plans: &[Arc<LayerPlan>]) -> f64 {
    let t0 = Instant::now();
    for p in plans {
        if let EngineChoice::Winograd(cfg) = p.engine {
            let pre = wino_conv::PrecomputedFilters::for_config(&p.weights, &p.desc, &cfg)
                .expect("a registered plan's filters transform");
            std::hint::black_box(pre);
        }
    }
    secs(t0) * 1e3
}

/// Winograd FLOPs of one call, by steady phase: input transform,
/// multiplication, output transform (the filter transform is warm).
pub fn phase_flops(plan: &LayerPlan, batch: usize) -> [f64; 3] {
    let Some(pre) = plan.warm.as_ref() else {
        return [0.0; 3];
    };
    let mut desc = plan.desc;
    desc.batch = batch;
    let f = wino_conv::winograd_flops(&desc, pre.recipes()).expect("pinned recipes fit the conv");
    [
        f.input_transform as f64,
        f.multiplication as f64,
        f.output_transform as f64,
    ]
}

/// Puts the metrics of the workload's own traced segment: conv phase
/// time per operation and its GFLOP/s (`flops` = Winograd FLOPs of
/// the input transform, multiplication and output transform executed
/// in the segment), and the gemm, runtime and guard counters (per
/// operation, except the guard's, which are totals and expected 0).
pub fn put_main_trace(
    report: &mut Report,
    totals: &TraceTotals,
    counters: &BTreeMap<String, f64>,
    ops: f64,
    flops: [f64; 3],
) {
    let phases = [
        ("input_transform", flops[0]),
        ("batched_sgemm", flops[1]),
        ("output_transform", flops[2]),
    ];
    for (phase, f) in phases {
        let ms = totals.ms(&format!("conv.{phase}"));
        report.put(format!("conv.{phase}_ms"), ms / ops);
        report.put(
            format!("conv.{phase}_gflops"),
            if ms > 0.0 { f / ms / 1e6 } else { 0.0 },
        );
    }
    report.put("conv.tile_gather_ms", totals.ms("conv.tile_gather") / ops);
    report.put("conv.tile_scatter_ms", totals.ms("conv.tile_scatter") / ops);
    report.put("gemm.flops", counter_sum(counters, "gemm.flops", "") / ops);
    report.put(
        "gemm.batches",
        counter_sum(counters, "gemm.batches", "") / ops,
    );
    for what in ["tasks", "steals", "parks"] {
        report.put(
            format!("runtime.{what}"),
            counter_sum(counters, "runtime.worker", &format!(".{what}")) / ops,
        );
    }
    report.put(
        "guard.demotions",
        counter_sum(counters, "guard.demote.", ""),
    );
    report.put(
        "guard.fallback_served",
        counter_sum(counters, "guard.served_by_fallback", ""),
    );
}

/// Process-level readings over an untraced window.
pub struct Usage {
    t0: Instant,
    cpu0: f64,
    allocs0: (u64, u64),
}

impl Usage {
    /// Starts the readings.
    pub fn start() -> Usage {
        Usage {
            t0: Instant::now(),
            cpu0: crate::sys::cpu_seconds(),
            allocs0: crate::sys::alloc_counts(),
        }
    }

    /// Puts `runtime.cpu_util` and the allocations per operation.
    pub fn put(&self, report: &mut Report, ops: f64) {
        let wall = secs(self.t0);
        let cpu = crate::sys::cpu_seconds() - self.cpu0;
        let (n, bytes) = crate::sys::alloc_counts();
        report.put("runtime.cpu_util", cpu / wall);
        report.put("alloc.count_per_op", (n - self.allocs0.0) as f64 / ops);
        report.put("alloc.bytes_per_op", (bytes - self.allocs0.1) as f64 / ops);
    }
}

/// Puts `probe.trace_overhead_pct` from the main timing's untraced
/// and traced samples.
pub fn put_overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (crate::stats::median(untraced), crate::stats::median(traced));
    report.put("probe.trace_overhead_pct", (t - u) / u * 100.0);
}

/// Least busy time one chunk of a run spans. Throughput is the median
/// over a run's chunks: other processes on a shared host slow a run
/// for seconds at a time, and a median over one-second chunks moves
/// only when most of the run is slowed.
const CHUNK_MS: f64 = 1000.0;

/// Splits time-ordered round latencies into consecutive chunks of
/// whole groups of `group` rounds, each spanning at least `CHUNK_MS`;
/// a shorter remainder joins the last chunk.
fn chunks(round_ms: &[f64], group: usize) -> Vec<&[f64]> {
    let mut ends = Vec::new();
    let mut busy = 0.0;
    for (g, rounds) in round_ms.chunks(group.max(1)).enumerate() {
        busy += rounds.iter().sum::<f64>();
        if busy >= CHUNK_MS {
            ends.push((g * group.max(1) + rounds.len()).min(round_ms.len()));
            busy = 0.0;
        }
    }
    match ends.last_mut() {
        Some(last) => *last = round_ms.len(),
        None => ends.push(round_ms.len()),
    }
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let chunk = &round_ms[start..end];
            start = end;
            chunk
        })
        .collect()
}

/// Puts the end-to-end latency, throughput and GFLOP/s metrics from
/// time-ordered round latencies (ms), the operations and direct-conv
/// FLOPs one round stands for, and the rounds that make up one
/// repeating group. Throughput and GFLOP/s are medians over the run's
/// chunks (a chunk holds whole groups, so every chunk does the same
/// mix of work): a mean over the whole run moves with every stall.
/// The percentiles are exact nearest-rank values over the whole run.
pub fn put_timing(
    report: &mut Report,
    round_ms: &[f64],
    ops_per_round: f64,
    flops_per_round: f64,
    group: usize,
) {
    let rate: Vec<f64> = chunks(round_ms, group)
        .iter()
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    let rounds_per_s = crate::stats::median(&rate);
    report.put("throughput_rps", rounds_per_s * ops_per_round);
    report.put("gflops", rounds_per_s * flops_per_round / 1e9);
    let s = crate::stats::sorted(round_ms);
    report.put("latency_p50_ms", crate::stats::percentile(&s, 0.5));
    report.put("latency_p75_ms", crate::stats::percentile(&s, 0.75));
    eprintln!("{}", crate::stats::describe("latency", round_ms, "ms"));
    eprintln!(
        "{}",
        crate::stats::describe("rounds/s per chunk", &rate, "/s")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_hold_whole_groups_and_the_remainder() {
        let ms = [400.0, 400.0, 400.0, 100.0, 900.0, 50.0, 10.0];
        let parts = chunks(&ms, 1);
        assert_eq!(parts, vec![&ms[..3], &ms[3..]]);
        // Groups of two: 800 < 1000, then 1300 closes the first chunk
        // after four rounds; the last three (960 ms) join it.
        assert_eq!(chunks(&ms, 2), vec![&ms[..]]);
        let even = [400.0, 400.0, 400.0, 100.0, 900.0, 150.0];
        assert_eq!(chunks(&even, 2), vec![&even[..4], &even[4..]]);
        let short = [10.0, 20.0];
        assert_eq!(chunks(&short, 1), vec![&short[..]]);
    }

    #[test]
    fn throughput_is_the_median_over_chunks() {
        // Three one-second chunks of 1, 2 and 4 rounds: 1, 2 and 4
        // rounds/s, median 2; one slow chunk does not move it. The
        // percentiles are over all seven rounds.
        let ms = [1000.0, 500.0, 500.0, 250.0, 250.0, 250.0, 250.0];
        let mut report = Report::default();
        put_timing(&mut report, &ms, 5.0, 10e9, 1);
        assert_eq!(report.metrics["throughput_rps"], 10.0);
        assert_eq!(report.metrics["gflops"], 20.0);
        assert_eq!(report.metrics["latency_p50_ms"], 250.0);
        assert_eq!(report.metrics["latency_p75_ms"], 500.0);
    }
}
