//! `net-latency` and `net-stream`: whole zoo networks registered with
//! `register_zoo_network` and served by `Server` at its default
//! config, one closed-loop client.
//!
//! - `net-latency`: inception-v1, one image per request, one request
//!   at a time. One operation and one round are one request.
//! - `net-stream`: alexnet, a burst of five images submitted with
//!   `submit_network`, then all five awaited. One operation is one
//!   image; one round is one burst. Every image of a burst must also
//!   be bit-identical to the same image served alone.

use std::sync::Arc;
use std::time::Instant;

use wino_serve::{NetworkPlan, NetworkRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::Tensor4;

use crate::bench::{self, secs, Report, Usage};
use crate::probes::{self, Served};
use crate::reference;
use crate::spans::TraceTotals;
use crate::Args;

/// Which of the two network workloads runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Shape {
    /// inception-v1, one image per round.
    Latency,
    /// alexnet, a burst of five images per round.
    Stream,
}

impl Shape {
    fn network(self) -> &'static str {
        match self {
            Shape::Latency => "inception-v1",
            Shape::Stream => "alexnet",
        }
    }

    fn workload(self) -> &'static str {
        match self {
            Shape::Latency => "net-latency",
            Shape::Stream => "net-stream",
        }
    }

    /// Distinct seeded images; a round uses one (latency) or all
    /// (stream).
    fn images(self) -> usize {
        match self {
            Shape::Latency => 3,
            Shape::Stream => 5,
        }
    }

    fn ops_per_round(self) -> usize {
        match self {
            Shape::Latency => 1,
            Shape::Stream => 5,
        }
    }
}

/// A registered, started, warmed-up server.
struct Ready {
    registry: Arc<PlanRegistry>,
    plan: Arc<NetworkPlan>,
    server: Server,
    register_ms: f64,
    start_ms: f64,
    recipe_ms: f64,
}

/// The seeded images, their f64 references, and (stream) each image
/// served alone.
struct Inputs {
    images: Vec<Tensor4<f32>>,
    references: Vec<Tensor4<f64>>,
    alone: Vec<Tensor4<f32>>,
    tol: f64,
}

/// Registration, recipe generation, `Server::start` and one warm-up
/// round; returns the server and the wall seconds.
fn setup(shape: Shape) -> (Ready, f64) {
    let t0 = Instant::now();
    let registry = Arc::new(PlanRegistry::new());
    let plan = registry
        .register_zoo_network(shape.network())
        .expect("zoo network registers");
    let register_ms = secs(t0) * 1e3;
    let (c, h, w) = plan.input_dims();
    let warm = vec![Tensor4::zeros(1, c, h, w); shape.ops_per_round()];
    let recipe_ms = bench::recipe_gen_ms(&registry.plans());
    let t1 = Instant::now();
    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    let start_ms = secs(t1) * 1e3;
    let handles: Vec<_> = warm
        .into_iter()
        .map(|x| {
            server
                .submit_network(NetworkRequest::new(shape.network(), x))
                .expect("warm-up admitted")
        })
        .collect();
    for h in handles {
        h.wait().expect("warm-up served");
    }
    let ready = Ready {
        registry,
        plan,
        server,
        register_ms,
        start_ms,
        recipe_ms,
    };
    (ready, secs(t0))
}

fn inputs(shape: Shape, args: &Args, ready: &Ready) -> Inputs {
    let mut rng = bench::rng(args.seed, shape.workload());
    let (c, h, w) = ready.plan.input_dims();
    let images: Vec<Tensor4<f32>> = (0..shape.images())
        .map(|_| Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng))
        .collect();
    let references = images
        .iter()
        .map(|x| reference::network(&ready.plan.graph, &x.to_f64()))
        .collect();
    let alone = match shape {
        Shape::Latency => Vec::new(),
        Shape::Stream => images
            .iter()
            .map(|x| {
                let resp = ready
                    .server
                    .infer_network(NetworkRequest::new(shape.network(), x.clone()))
                    .expect("image served alone");
                assert_eq!(resp.batched_with, 1, "a lone request rides alone");
                resp.output
            })
            .collect(),
    };
    let plan = &ready.plan;
    let tol = reference::path_tolerance(&plan.graph, |id| {
        let layer = format!("{}/node{}", plan.name, id.0);
        bench::conv_tolerance(
            &ready
                .registry
                .get(&layer)
                .expect("every conv node has a plan"),
        )
    });
    eprintln!("perfbench: output tolerance {tol:.3e}");
    Inputs {
        images,
        references,
        alone,
        tol,
    }
}

/// One timed, checked round starting at image `next`; returns the
/// round's milliseconds, and pushes every response to `served`.
fn round(
    shape: Shape,
    ready: &Ready,
    inputs: &Inputs,
    next: usize,
    report: &mut Report,
    served: &mut Vec<Served>,
) -> f64 {
    let picks: Vec<usize> = match shape {
        Shape::Latency => vec![next % inputs.images.len()],
        Shape::Stream => (0..inputs.images.len()).collect(),
    };
    let requests: Vec<NetworkRequest> = picks
        .iter()
        .map(|&i| NetworkRequest::new(shape.network(), inputs.images[i].clone()))
        .collect();
    let t0 = Instant::now();
    let results: Vec<_> = {
        let _span = wino_probe::span("bench.serve_round");
        let handles: Vec<_> = requests
            .into_iter()
            .map(|r| ready.server.submit_network(r))
            .collect();
        handles
            .into_iter()
            .map(|h| h.and_then(|h| h.wait()))
            .collect()
    };
    let ms = secs(t0) * 1e3;
    for (&i, result) in picks.iter().zip(results) {
        // A batched image that differs from itself served alone
        // fails, whatever its error.
        let err = result.ok().and_then(|resp| {
            served.push(Served::new(&resp, ms));
            let alone_ok = inputs
                .alone
                .get(i)
                .is_none_or(|a| a.data() == resp.output.data());
            alone_ok.then(|| reference::normalised_error(&resp.output, &inputs.references[i]))
        });
        report.check(err, inputs.tol, shape.workload());
    }
    ms
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: Shape, args: &Args) -> Report {
    let mut report = Report::default();
    let ready = bench::setups(&mut report, || setup(shape), |r| r.server.shutdown());
    let inputs = bench::noted("inputs and references", || inputs(shape, args, &ready));
    let mut round_ms = Vec::new();
    let mut served = Vec::new();
    bench::window(args.seconds as f64, || {
        let next = round_ms.len();
        round_ms.push(round(
            shape,
            &ready,
            &inputs,
            next,
            &mut report,
            &mut served,
        ));
    });
    ready.server.shutdown();
    let per_image = network_flops(&ready.plan);
    let ops = shape.ops_per_round() as f64;
    bench::put_timing(&mut report, &round_ms, ops, per_image * ops, 1);
    report
}

/// Direct-conv FLOPs of one image through the network.
fn network_flops(plan: &NetworkPlan) -> f64 {
    plan.graph
        .conv_nodes()
        .iter()
        .map(|(_, d)| d.flops() as f64)
        .sum()
}

/// The traced run: per-layer metrics.
pub fn run_traced(shape: Shape, args: &Args) -> Report {
    let mut report = Report::default();
    let (ready, _) = setup(shape);
    let inputs = bench::noted("inputs and references", || inputs(shape, args, &ready));
    let plans = ready.registry.plans();
    report.put("serve.register_ms", ready.register_ms);
    report.put("serve.start_ms", ready.start_ms);
    report.put("transform.recipe_gen_ms", ready.recipe_ms);
    report.put(
        "conv.filter_transform_ms",
        bench::filter_transform_ms(&plans),
    );
    let [w, i, d] = bench::engine_counts(&plans);
    report.put("graph.engine_winograd", w);
    report.put("graph.engine_im2col", i);
    report.put("graph.engine_direct", d);

    let half = args.seconds as f64 / 2.0;
    let ops_per_round = shape.ops_per_round();
    let usage = Usage::start();
    let mut untraced = Vec::new();
    let mut served = Vec::new();
    bench::window(half, || {
        let next = untraced.len();
        untraced.push(round(
            shape,
            &ready,
            &inputs,
            next,
            &mut report,
            &mut served,
        ));
    });
    usage.put(&mut report, (untraced.len() * ops_per_round) as f64);
    probes::put_serve(&mut report, &served);

    bench::trace_on();
    let mut totals = TraceTotals::default();
    let mut traced = Vec::new();
    let mut scratch = Vec::new();
    bench::window(half, || {
        let next = traced.len();
        traced.push(round(
            shape,
            &ready,
            &inputs,
            next,
            &mut report,
            &mut scratch,
        ));
        totals.drain(bench::CHECKS);
    });
    let counters = bench::trace_off(&mut totals);
    let images = (traced.len() * ops_per_round) as f64;
    let mut flops = [0.0; 3];
    for p in &plans {
        let f = bench::phase_flops(p, 1);
        for k in 0..3 {
            flops[k] += f[k] * images;
        }
    }
    bench::put_main_trace(&mut report, &totals, &counters, images, flops);
    bench::put_overhead(&mut report, &untraced, &traced);
    ready.server.shutdown();

    let mut rng = bench::rng(args.seed, "net/probes");
    let batch = ops_per_round;
    if shape.network() == probes::EXEC_NETWORK {
        probes::exec(&mut report, &ready.registry, &ready.plan, &mut rng);
    } else {
        let registry = PlanRegistry::new();
        let plan = registry
            .register_zoo_network(probes::EXEC_NETWORK)
            .expect("zoo network registers");
        probes::exec(&mut report, &registry, &plan, &mut rng);
    }
    let convs = probes::network_convs(&ready.registry, &ready.plan, batch, &mut rng);
    probes::guard_and_phases(&mut report, &convs, batch as f64);
    probes::gemm_gflops(&mut report, &mut rng);
    let per_conv = probes::table4_conv_ms(&mut rng);
    probes::put_table4_convs(&mut report, &per_conv);
    report
}
