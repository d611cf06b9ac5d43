//! `table4-offline`: the paper's 31 Table-4 convolutions, registered
//! once each and run back to back through `GuardedConv::run_warm`
//! with the layer's pinned chain, GEMM config and warm filters. No
//! server. One operation is one conv call; one round is one sweep.

use std::sync::Arc;
use std::time::Instant;

use wino_guard::{GuardedConv, GuardrailPolicy};
use wino_serve::{ConvRequest, LayerPlan, PlanRegistry, Server, ServerConfig};
use wino_tensor::{ConvDesc, Tensor4};

use crate::bench::{self, guarded, secs, Report, Usage};
use crate::probes::{self, Served};
use crate::reference;
use crate::spans::TraceTotals;
use crate::Args;

/// One Table-4 conv with its seeded operands and f64 reference.
struct Case {
    name: String,
    desc: ConvDesc,
    weights: Tensor4<f32>,
    input: Tensor4<f32>,
    reference: Tensor4<f64>,
}

/// A registered, warmed-up sweep.
struct Ready {
    registry: Arc<PlanRegistry>,
    plans: Vec<Arc<LayerPlan>>,
    convs: Vec<GuardedConv>,
    /// Each conv's tolerance, from its pinned plan.
    tol: Vec<f64>,
    register_ms: f64,
    recipe_ms: f64,
}

fn cases(args: &Args) -> Vec<Case> {
    let mut rng = bench::rng(args.seed, "table4-offline");
    wino_graph::table4_convs()
        .into_iter()
        .enumerate()
        .map(|(i, desc)| {
            let d = desc;
            let weights = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, &mut rng);
            let input = Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng);
            let reference = reference::conv(&input.to_f64(), &weights.to_f64(), &desc);
            Case {
                name: format!("t4-{:02}", i + 1),
                desc,
                weights,
                input,
                reference,
            }
        })
        .collect()
}

/// Registration, recipe generation and one warm-up sweep; returns the
/// sweep and its wall seconds.
fn setup(cases: &[Case]) -> (Ready, f64) {
    let weights: Vec<Tensor4<f32>> = cases.iter().map(|c| c.weights.clone()).collect();
    let t0 = Instant::now();
    let registry = Arc::new(PlanRegistry::new());
    for (c, w) in cases.iter().zip(weights) {
        registry
            .register_layer(c.name.clone(), c.desc, w)
            .expect("Table-4 conv registers");
    }
    let register_ms = secs(t0) * 1e3;
    let plans: Vec<Arc<LayerPlan>> = cases
        .iter()
        .map(|c| registry.get(&c.name).expect("just registered"))
        .collect();
    let recipe_ms = bench::recipe_gen_ms(&plans);
    let convs: Vec<GuardedConv> = plans
        .iter()
        .map(|p| guarded(p, GuardrailPolicy::full()))
        .collect();
    for ((c, p), conv) in cases.iter().zip(&plans).zip(&convs) {
        conv.run_warm(&c.input, &p.weights, &c.desc, p.warm.as_ref())
            .expect("warm-up conv runs");
    }
    let took = secs(t0);
    let tol = plans.iter().map(|p| bench::conv_tolerance(p)).collect();
    let ready = Ready {
        registry,
        plans,
        convs,
        tol,
        register_ms,
        recipe_ms,
    };
    (ready, took)
}

/// One timed, checked sweep: pushes each call's milliseconds to
/// `call_ms` and returns the sweep's summed milliseconds.
fn sweep(ready: &Ready, cases: &[Case], report: &mut Report, call_ms: &mut [Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for (i, c) in cases.iter().enumerate() {
        let plan = &ready.plans[i];
        let t0 = Instant::now();
        let result = {
            let _span = wino_probe::span("bench.run_warm");
            ready.convs[i].run_warm(&c.input, &plan.weights, &c.desc, plan.warm.as_ref())
        };
        let ms = secs(t0) * 1e3;
        total += ms;
        call_ms[i].push(ms);
        let err = result
            .ok()
            .map(|out| reference::normalised_error(&out.output, &c.reference));
        report.check(err, ready.tol[i], &c.name);
    }
    total
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Report {
    let cases = bench::noted("inputs and references", || cases(args));
    let mut report = Report::default();
    let ready = bench::setups(&mut report, || setup(&cases), drop);
    let mut call_ms = vec![Vec::new(); cases.len()];
    bench::window(args.seconds as f64, || {
        sweep(&ready, &cases, &mut report, &mut call_ms);
    });
    // Calls in the order they ran: sweep after sweep.
    let sweeps = call_ms[0].len();
    let calls: Vec<f64> = (0..sweeps)
        .flat_map(|s| call_ms.iter().map(move |conv| conv[s]))
        .collect();
    let flops: f64 = cases.iter().map(|c| c.desc.flops() as f64).sum();
    // One round per call: the mean call stands for 1/31 of a sweep,
    // and chunks hold whole sweeps.
    bench::put_timing(
        &mut report,
        &calls,
        1.0,
        flops / cases.len() as f64,
        cases.len(),
    );
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args) -> Report {
    let cases = bench::noted("inputs and references", || cases(args));
    let mut report = Report::default();
    let (ready, _) = setup(&cases);
    let plans = &ready.plans;
    report.put("serve.register_ms", ready.register_ms);
    report.put("transform.recipe_gen_ms", ready.recipe_ms);
    report.put(
        "conv.filter_transform_ms",
        bench::filter_transform_ms(plans),
    );
    let [w, i, d] = bench::engine_counts(plans);
    report.put("graph.engine_winograd", w);
    report.put("graph.engine_im2col", i);
    report.put("graph.engine_direct", d);

    let half = args.seconds as f64 / 2.0;
    let mut call_ms = vec![Vec::new(); cases.len()];
    let usage = Usage::start();
    let mut untraced = Vec::new();
    bench::window(half, || {
        untraced.push(sweep(&ready, &cases, &mut report, &mut call_ms));
    });
    usage.put(&mut report, (untraced.len() * cases.len()) as f64);
    let per_conv: Vec<f64> = call_ms.iter().map(|v| crate::stats::median(v)).collect();
    probes::put_table4_convs(&mut report, &per_conv);

    bench::trace_on();
    let mut totals = TraceTotals::default();
    let mut traced = Vec::new();
    let mut scratch = vec![Vec::new(); cases.len()];
    bench::window(half, || {
        traced.push(sweep(&ready, &cases, &mut report, &mut scratch));
        totals.drain(bench::CHECKS);
    });
    let counters = bench::trace_off(&mut totals);
    let mut flops = [0.0; 3];
    for (p, c) in plans.iter().zip(&cases) {
        let f = bench::phase_flops(p, c.desc.batch);
        for k in 0..3 {
            flops[k] += f[k] * traced.len() as f64;
        }
    }
    let ops = (traced.len() * cases.len()) as f64;
    bench::put_main_trace(&mut report, &totals, &counters, ops, flops);
    bench::put_overhead(&mut report, &untraced, &traced);

    let mut rng = bench::rng(args.seed, "table4-offline/probes");
    probes::gemm_gflops(&mut report, &mut rng);
    let convs: Vec<(Arc<LayerPlan>, Tensor4<f32>)> = plans
        .iter()
        .zip(&cases)
        .map(|(p, c)| (Arc::clone(p), c.input.clone()))
        .collect();
    probes::guard_and_phases(&mut report, &convs, cases.len() as f64);

    // Serve bypassed: time the serve layer on these same layers.
    let t0 = Instant::now();
    let server = Server::start(Arc::clone(&ready.registry), ServerConfig::default());
    report.put("serve.start_ms", secs(t0) * 1e3);
    let mut served = Vec::new();
    for _ in 0..2 {
        for c in &cases {
            let t0 = Instant::now();
            let resp = server
                .infer(ConvRequest::new(c.name.clone(), c.input.clone()))
                .expect("Table-4 conv serves");
            served.push(Served::new(&resp, secs(t0) * 1e3));
        }
    }
    server.shutdown();
    probes::put_serve(&mut report, &served);

    // Exec bypassed: time the exec layer on its probe network.
    let registry = PlanRegistry::new();
    let plan = registry
        .register_zoo_network(probes::EXEC_NETWORK)
        .expect("zoo network registers");
    probes::exec(&mut report, &registry, &plan, &mut rng);
    report
}
