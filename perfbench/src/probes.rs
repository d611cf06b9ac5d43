//! Fixed per-layer probes of the traced run. Each calls one layer's
//! public entry point directly and times it from outside; together
//! they give every traced run a value for every per-layer metric,
//! also for the layers its workload bypasses.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use wino_gemm::BatchedGemmShape;
use wino_graph::{select_engine_static, table4_convs, EngineChoice, NodeId};
use wino_guard::GuardrailPolicy;
use wino_runtime::Runtime;
use wino_serve::{LayerPlan, NetworkPlan, PlanRegistry};
use wino_tensor::Tensor4;

use crate::bench::{self, counter_sum, guarded, secs, trace_off, trace_on, Report, GEMM_PROBES};
use crate::spans::TraceTotals;
use crate::stats::median;

/// Median milliseconds of `reps` calls of `f` after one warm-up call.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0) * 1e3
        })
        .collect();
    median(&times)
}

/// Puts `conv.t4-XX_ms` and the batch-1 / batch-5 GFLOP/s derived
/// from them, given each Table-4 conv's median call time.
pub fn put_table4_convs(report: &mut Report, per_conv_ms: &[f64]) {
    let convs = table4_convs();
    let (mut flops, mut ms) = ([0.0f64; 2], [0.0f64; 2]);
    for (i, (d, &t)) in convs.iter().zip(per_conv_ms).enumerate() {
        report.put(format!("conv.t4-{:02}_ms", i + 1), t);
        let b = usize::from(d.batch != 1);
        flops[b] += d.flops() as f64;
        ms[b] += t;
    }
    report.put("conv.table4_b1_gflops", flops[0] / ms[0] / 1e6);
    report.put("conv.table4_b5_gflops", flops[1] / ms[1] / 1e6);
}

/// Registers each Table-4 conv alone (so at most one warm bank is
/// resident) and returns the median `run_warm` milliseconds of each.
pub fn table4_conv_ms(rng: &mut StdRng) -> Vec<f64> {
    table4_convs()
        .iter()
        .map(|d| {
            let registry = PlanRegistry::new();
            let weights = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, rng);
            let input = Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, rng);
            registry
                .register_layer("probe", *d, weights)
                .expect("Table-4 conv registers");
            let plan = registry.get("probe").expect("just registered");
            let conv = guarded(&plan, GuardrailPolicy::full());
            median_ms(3, || {
                conv.run_warm(&input, &plan.weights, d, plan.warm.as_ref())
                    .expect("Table-4 conv runs");
            })
        })
        .collect()
}

/// Times `batched_sgemm_rt_level` at the multiplication-stage shape
/// of the Table-4 convs in [`GEMM_PROBES`], under the plan the
/// registry would pin.
pub fn gemm_gflops(report: &mut Report, rng: &mut StdRng) {
    let convs = table4_convs();
    for &i in GEMM_PROBES {
        let d = convs[i - 1];
        let EngineChoice::Winograd(cfg) = select_engine_static(&d) else {
            panic!("Table-4 conv {i} is pinned to Winograd");
        };
        let alpha = cfg.m + d.ksz - 1;
        let shape = BatchedGemmShape {
            batches: alpha * alpha,
            m: d.out_ch,
            k: d.in_ch,
            n: wino_conv::winograd_tile_total(&d, cfg.m) as usize,
        };
        let a = Tensor4::<f32>::random(1, 1, 1, shape.a_len(), -1.0, 1.0, rng).into_raw();
        let b = Tensor4::<f32>::random(1, 1, 1, shape.b_len(), -1.0, 1.0, rng).into_raw();
        let mut c = vec![0.0f32; shape.c_len()];
        let level = wino_gemm::simd_level();
        let ms = median_ms(5, || {
            let _span = wino_probe::span("bench.batched_sgemm");
            wino_gemm::batched_sgemm_rt_level(
                &shape,
                &a,
                &b,
                &mut c,
                &cfg.gemm,
                Runtime::global(),
                level,
            );
        });
        report.put(
            format!("gemm.gflops.t4-{i:02}"),
            shape.flops() as f64 / ms / 1e6,
        );
    }
}

/// Timed calls of each conv under each policy in `guard_and_phases`.
const GUARD_REPS: usize = 3;

/// Runs each `(plan, input)` conv under the full guardrails and with
/// them disabled, alternating, `GUARD_REPS` times each, in its own traced
/// segment. Puts `guard.check_ms` (added milliseconds per operation,
/// `ops` being the operations one pass over `convs` stands for) and
/// `conv.phase_coverage`.
pub fn guard_and_phases(report: &mut Report, convs: &[(Arc<LayerPlan>, Tensor4<f32>)], ops: f64) {
    trace_on();
    let mut totals = TraceTotals::default();
    let mut added = 0.0;
    for (plan, input) in convs {
        let mut desc = plan.desc;
        desc.batch = input.n();
        let mut times = [Vec::new(), Vec::new()];
        for policy in [GuardrailPolicy::full(), GuardrailPolicy::disabled()] {
            // Warm-up under each policy.
            guarded(plan, policy)
                .run_warm(input, &plan.weights, &desc, plan.warm.as_ref())
                .expect("probe conv runs");
        }
        for _ in 0..GUARD_REPS {
            for (slot, policy) in [GuardrailPolicy::full(), GuardrailPolicy::disabled()]
                .into_iter()
                .enumerate()
            {
                let conv = guarded(plan, policy);
                let t0 = Instant::now();
                {
                    // Only Winograd calls have phase spans to account.
                    let _span = wino_probe::span(if plan.warm.is_some() {
                        "bench.run_warm"
                    } else {
                        "bench.run_warm.other"
                    });
                    conv.run_warm(input, &plan.weights, &desc, plan.warm.as_ref())
                        .expect("probe conv runs");
                }
                times[slot].push(secs(t0) * 1e3);
            }
        }
        added += median(&times[0]) - median(&times[1]);
        totals.drain(bench::CHECKS);
    }
    trace_off(&mut totals);
    report.put("guard.check_ms", added / ops);
    report.put_coverage(
        "conv.phase_coverage",
        totals.coverage("bench.run_warm"),
        "conv phase spans",
    );
}

/// The network the exec probe runs: the branchiest zoo graph, with
/// conv, pool and concat nodes.
pub const EXEC_NETWORK: &str = "inception-v1";

/// Compiles `plan`'s graph again through `wino_exec::compile` and
/// runs it directly with `NetworkExecutor::run` at batch 1, in its own
/// traced segment. Puts every `exec.*` metric.
pub fn exec(report: &mut Report, registry: &PlanRegistry, plan: &NetworkPlan, rng: &mut StdRng) {
    let (c, h, w) = plan.input_dims();
    let input = &Tensor4::random(1, c, h, w, -1.0, 1.0, rng);
    let reps = 5;
    trace_on();
    let mut totals = TraceTotals::default();
    let t0 = Instant::now();
    let compiled = {
        let _span = wino_probe::span("bench.compile");
        wino_exec::compile(
            plan.name.clone(),
            &plan.graph,
            plan.input_dims(),
            &mut |id: NodeId, _| {
                registry
                    .get(&format!("{}/node{}", plan.name, id.0))
                    .map(|p| p as Arc<dyn wino_exec::ConvPlan>)
                    .ok_or(wino_exec::ExecError::MissingPlan(id.0))
            },
        )
        .expect("a registered network compiles")
    };
    let compile_ms = secs(t0) * 1e3;
    let executor = wino_exec::NetworkExecutor::new(Arc::new(compiled), Arc::clone(&plan.pool));
    executor.run(input).expect("network runs");
    // Discard the warm-up run's spans and counts.
    wino_probe::reset();
    wino_exec::set_steady_phase(true);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        {
            let _span = wino_probe::span("bench.exec_run");
            executor.run(input).expect("network runs");
        }
        times.push(secs(t0) * 1e3);
        totals.drain(bench::CHECKS);
    }
    wino_exec::set_steady_phase(false);
    let counters = trace_off(&mut totals);
    let runs = reps as f64;
    report.put("exec.compile_ms", compile_ms);
    report.put("exec.run_ms", median(&times));
    report.put("exec.node_conv_ms", totals.ms("exec.node.conv") / runs);
    report.put("exec.node_pool_ms", totals.ms("exec.node.max_pool") / runs);
    report.put("exec.node_concat_ms", totals.ms("exec.node.concat") / runs);
    report.put("exec.waves", executor.network().wave_count() as f64);
    report.put(
        "exec.arena_peak_bytes",
        executor.network().peak_arena_bytes(input.n()) as f64,
    );
    report.put(
        "exec.allocs_steady",
        counter_sum(&counters, "exec.allocs_steady", ""),
    );
    report.put_coverage(
        "exec.node_coverage",
        totals.coverage("bench.exec_run"),
        "exec node spans",
    );
}

/// Random inputs for every conv node of `plan` at `batch`, paired with
/// the node's registry plan (the guard probe's conv set for a network).
pub fn network_convs(
    registry: &PlanRegistry,
    plan: &NetworkPlan,
    batch: usize,
    rng: &mut StdRng,
) -> Vec<(Arc<LayerPlan>, Tensor4<f32>)> {
    plan.graph
        .conv_nodes()
        .into_iter()
        .map(|(id, d)| {
            let layer = registry
                .get(&format!("{}/node{}", plan.name, id.0))
                .expect("every conv node has a layer plan");
            let input = Tensor4::random(batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, rng);
            (layer, input)
        })
        .collect()
}

/// One served response as the serve metrics need it.
pub struct Served {
    /// Client-side latency, ms.
    pub client_ms: f64,
    /// `RequestTrace.queue_wait`, ms.
    pub queue_ms: f64,
    /// `RequestTrace.execute`, ms.
    pub execute_ms: f64,
    /// `batched_with`.
    pub batch: f64,
}

impl Served {
    /// From a response and the client's own timing of it.
    pub fn new(resp: &wino_serve::ConvResponse, client_ms: f64) -> Served {
        Served {
            client_ms,
            queue_ms: resp.trace.queue_wait.as_secs_f64() * 1e3,
            execute_ms: resp.trace.execute.as_secs_f64() * 1e3,
            batch: resp.batched_with as f64,
        }
    }
}

/// Puts the exact `serve.*` medians and the mean batch.
pub fn put_serve(report: &mut Report, served: &[Served]) {
    let col = |f: fn(&Served) -> f64| -> Vec<f64> { served.iter().map(f).collect() };
    report.put("serve.queue_wait_p50_ms", median(&col(|s| s.queue_ms)));
    report.put("serve.execute_p50_ms", median(&col(|s| s.execute_ms)));
    report.put(
        "serve.overhead_p50_ms",
        median(&col(|s| s.client_ms - s.execute_ms)),
    );
    report.put(
        "serve.batch_mean",
        col(|s| s.batch).iter().sum::<f64>() / served.len() as f64,
    );
    eprintln!(
        "{}",
        crate::stats::describe("serve queue wait", &col(|s| s.queue_ms), "ms")
    );
    eprintln!(
        "{}",
        crate::stats::describe("serve execute", &col(|s| s.execute_ms), "ms")
    );
}
