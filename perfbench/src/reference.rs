//! The benchmark's own f64 reference: direct convolution, ReLU,
//! max-pool and channel concat, plus a walker that evaluates a whole
//! served network from the graph the registry kept.
//!
//! Nothing here calls the program's engines: the arithmetic is
//! written out in this file so that a fault shared by every engine
//! (a wrong padding rule, a transposed filter) still shows as an
//! error against the reference. `Tensor4` is used only as storage.

use wino_graph::{ComputeGraph, NodeId, Op};
use wino_tensor::{ConvDesc, Tensor4};

/// Output channels one micro-kernel call accumulates at once.
const KB: usize = 8;
/// Output columns one micro-kernel call accumulates at once.
const XB: usize = 4;

/// Direct convolution in f64: `out[n,k,y,x] = Σ_c Σ_i Σ_j
/// w[k,c,i,j] · in[n,c,y·s+i−p,x·s+j−p]`, with zero padding.
///
/// # Panics
/// When the tensors do not match `desc`.
pub fn conv(input: &Tensor4<f64>, weights: &Tensor4<f64>, desc: &ConvDesc) -> Tensor4<f64> {
    let (n, c, h, w) = input.dims();
    assert_eq!(
        (c, h, w),
        (desc.in_ch, desc.in_h, desc.in_w),
        "reference conv: input does not match {desc}"
    );
    assert_eq!(
        weights.dims(),
        (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz),
        "reference conv: weights do not match {desc}"
    );
    let (r, s, p) = (desc.ksz, desc.stride, desc.pad);
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    // Zero-padded copy, so the inner loops need no bounds tests.
    let mut padded = vec![0.0f64; n * c * ph * pw];
    for (plane, src) in padded
        .chunks_exact_mut(ph * pw)
        .zip(input.data().chunks_exact(h * w))
    {
        for (y, row) in src.chunks_exact(w).enumerate() {
            plane[(y + p) * pw + p..(y + p) * pw + p + w].copy_from_slice(row);
        }
    }
    // Filters regrouped as [k-block][c][i][j][KB], zero beyond K.
    let kblocks = desc.out_ch.div_ceil(KB);
    let mut packed = vec![0.0f64; kblocks * c * r * r * KB];
    for k in 0..desc.out_ch {
        for ci in 0..c {
            for i in 0..r {
                for j in 0..r {
                    let at = (((k / KB * c + ci) * r + i) * r + j) * KB + k % KB;
                    packed[at] = weights[(k, ci, i, j)];
                }
            }
        }
    }

    let mut out = Tensor4::<f64>::zeros(n, desc.out_ch, oh, ow);
    let plane = oh * ow;
    // One work item = up to KB output planes of one image.
    let mut items: Vec<(usize, usize, &mut [f64])> = Vec::new();
    for (img, planes) in out.data_mut().chunks_mut(desc.out_ch * plane).enumerate() {
        for (kb, block) in planes.chunks_mut(KB * plane).enumerate() {
            items.push((img, kb, block));
        }
    }
    let geo = Geometry {
        c,
        r,
        s,
        ph,
        pw,
        oh,
        ow,
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(items.len().max(1));
    let per = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for chunk in items.chunks_mut(per) {
            let (padded, packed, geo) = (&padded, &packed, &geo);
            scope.spawn(move || {
                for (img, kb, block) in chunk.iter_mut() {
                    let src = &padded[*img * c * ph * pw..(*img + 1) * c * ph * pw];
                    let wts = &packed[*kb * c * r * r * KB..(*kb + 1) * c * r * r * KB];
                    conv_block(src, wts, geo, block);
                }
            });
        }
    });
    out
}

/// Shape facts the micro-kernel needs.
struct Geometry {
    c: usize,
    r: usize,
    s: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
}

/// Computes up to `KB` output planes (`block`, plane-major) of one
/// image from its padded input planes `src` and packed filters `wts`.
fn conv_block(src: &[f64], wts: &[f64], g: &Geometry, block: &mut [f64]) {
    let planes = block.len() / (g.oh * g.ow);
    for y in 0..g.oh {
        let mut x0 = 0;
        while x0 < g.ow {
            let xs = XB.min(g.ow - x0);
            let mut acc = [[0.0f64; XB]; KB];
            for ci in 0..g.c {
                let chan = &src[ci * g.ph * g.pw..(ci + 1) * g.ph * g.pw];
                for i in 0..g.r {
                    let row = &chan[(y * g.s + i) * g.pw..(y * g.s + i + 1) * g.pw];
                    for j in 0..g.r {
                        let at = ((ci * g.r + i) * g.r + j) * KB;
                        let wv = &wts[at..at + KB];
                        let mut xv = [0.0f64; XB];
                        for (t, v) in xv.iter_mut().enumerate().take(xs) {
                            *v = row[(x0 + t) * g.s + j];
                        }
                        for (a, &wk) in acc.iter_mut().zip(wv) {
                            for (a, &x) in a.iter_mut().zip(&xv) {
                                *a += wk * x;
                            }
                        }
                    }
                }
            }
            for (k, a) in acc.iter().enumerate().take(planes) {
                let row = &mut block[k * g.oh * g.ow + y * g.ow..][..g.ow];
                row[x0..x0 + xs].copy_from_slice(&a[..xs]);
            }
            x0 += XB;
        }
    }
}

/// `max(x, 0)` elementwise.
pub fn relu(t: &Tensor4<f64>) -> Tensor4<f64> {
    t.map(|v| v.max(0.0))
}

/// Max-pool with square window `k` and stride `s`, no padding.
pub fn max_pool(t: &Tensor4<f64>, k: usize, s: usize) -> Tensor4<f64> {
    let (n, c, h, w) = t.dims();
    let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
    Tensor4::from_fn(n, c, oh, ow, |b, ch, y, x| {
        let mut best = f64::NEG_INFINITY;
        for i in 0..k {
            for j in 0..k {
                best = best.max(t[(b, ch, y * s + i, x * s + j)]);
            }
        }
        best
    })
}

/// Channel concat of tensors that agree in `N`, `H` and `W`.
///
/// # Panics
/// When the inputs disagree in batch or spatial size.
pub fn concat(parts: &[&Tensor4<f64>]) -> Tensor4<f64> {
    let (n, _, h, w) = parts[0].dims();
    for t in parts {
        assert_eq!((t.n(), t.h(), t.w()), (n, h, w), "concat: shapes differ");
    }
    let c: usize = parts.iter().map(|t| t.c()).sum();
    let mut out = Tensor4::<f64>::zeros(n, c, h, w);
    let mut base = 0;
    for t in parts {
        for b in 0..n {
            for ch in 0..t.c() {
                out.plane_mut(b, base + ch).copy_from_slice(t.plane(b, ch));
            }
        }
        base += t.c();
    }
    out
}

/// Evaluates `graph` on `input` node by node in f64 and returns the
/// value of the last node, the network output the executor serves.
/// Fused ReLUs (set by the registry's graph optimiser) are applied
/// after their conv; the pass-through nodes they leave alias their
/// source.
///
/// # Panics
/// On a conv node without weights or a malformed edge.
pub fn network(graph: &ComputeGraph, input: &Tensor4<f64>) -> Tensor4<f64> {
    let mut values: Vec<Option<Tensor4<f64>>> = vec![None; graph.len()];
    for i in 0..graph.len() {
        let node = graph.node(NodeId(i));
        let arg = |k: usize| -> &Tensor4<f64> {
            values[node.inputs[k].0]
                .as_ref()
                .expect("graph nodes are in topological order")
        };
        let value = match &node.op {
            Op::Input if node.inputs.is_empty() => input.clone(),
            Op::Input => arg(0).clone(),
            Op::Relu => relu(arg(0)),
            Op::MaxPool { k, s } => max_pool(arg(0), *k, *s),
            Op::Concat => {
                let parts: Vec<&Tensor4<f64>> = (0..node.inputs.len()).map(arg).collect();
                concat(&parts)
            }
            Op::Conv { desc, fused_relu } => {
                let src = arg(0);
                let mut desc = *desc;
                desc.batch = src.n();
                let weights = graph
                    .weights(NodeId(i))
                    .expect("every served conv node carries weights")
                    .to_f64();
                let out = conv(src, &weights, &desc);
                if *fused_relu {
                    relu(&out)
                } else {
                    out
                }
            }
        };
        values[i] = Some(value);
    }
    values
        .pop()
        .flatten()
        .expect("a served graph has at least one node")
}

/// Normalised error of a served output against its reference, the
/// relative L1 error `Σ|y_i − r_i| / Σ|r_i|`: an average over every
/// element, so it moves with the engines' accuracy rather than with
/// one unlucky element. Shapes must agree; a shape mismatch or a
/// non-finite value reads as infinite error.
pub fn normalised_error(served: &Tensor4<f32>, reference: &Tensor4<f64>) -> f64 {
    if served.dims() != reference.dims() {
        return f64::INFINITY;
    }
    let mut diff = 0.0f64;
    let mut scale = 0.0f64;
    for (&y, &r) in served.data().iter().zip(reference.data()) {
        diff += (f64::from(y) - r).abs();
        scale += r.abs();
    }
    if diff.is_nan() {
        return f64::INFINITY;
    }
    if scale == 0.0 {
        return if diff == 0.0 { 0.0 } else { f64::INFINITY };
    }
    diff / scale
}

/// Largest conv-node sum of `tol` over any path from the input to
/// the last node: the tolerance of a network output, given each conv
/// node's own tolerance (errors of successive layers add to first
/// order; ReLU, max-pool and concat do not amplify them).
pub fn path_tolerance(graph: &ComputeGraph, tol: impl Fn(NodeId) -> f64) -> f64 {
    let mut acc = vec![0.0f64; graph.len()];
    for i in 0..graph.len() {
        let node = graph.node(NodeId(i));
        let below = node.inputs.iter().map(|s| acc[s.0]).fold(0.0, f64::max);
        acc[i] = below
            + match node.op {
                Op::Conv { .. } => tol(NodeId(i)),
                _ => 0.0,
            };
    }
    acc.last().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: usize, c: usize, h: usize, w: usize, v: &[f64]) -> Tensor4<f64> {
        assert_eq!(v.len(), n * c * h * w);
        Tensor4::from_raw(n, c, h, w, v.to_vec())
    }

    #[test]
    fn conv_3x3_pad_1_on_a_ramp() {
        // in = [[1,2],[3,4]], w = all-ones 3×3, pad 1: each output is
        // the sum of the whole 2×2 image (every window covers it).
        let input = t(1, 1, 2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let w = t(1, 1, 3, 3, &[1.0; 9]);
        let desc = ConvDesc::new(3, 1, 1, 1, 1, 2, 2, 1);
        let out = conv(&input, &w, &desc);
        assert_eq!(out.dims(), (1, 1, 2, 2));
        assert_eq!(out.data(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn conv_picks_the_right_tap_and_channel() {
        // Two input channels, one filter that reads only channel 1 at
        // tap (0, 1): out[y][x] = in1[y][x+1] with no padding.
        let input = t(
            1,
            2,
            2,
            3,
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        let mut wv = vec![0.0; 2 * 2 * 2];
        wv[4 + 1] = 1.0; // channel 1, tap (0, 1)
        let w = t(1, 2, 2, 2, &wv);
        let desc = ConvDesc::new(2, 1, 0, 1, 1, 2, 3, 2);
        let out = conv(&input, &w, &desc);
        assert_eq!(out.dims(), (1, 1, 1, 2));
        assert_eq!(out.data(), &[2.0, 3.0]);
    }

    #[test]
    fn conv_stride_2_and_many_output_channels() {
        // 1×1 filters with weight k+1 on a 4×4 ramp, stride 2: output
        // channel k holds (k+1)·in at the even positions. Ten output
        // channels cross the micro-kernel's channel block of eight.
        let input = Tensor4::from_fn(1, 1, 4, 4, |_, _, y, x| (4 * y + x) as f64);
        let w = Tensor4::from_fn(10, 1, 1, 1, |k, _, _, _| (k + 1) as f64);
        let desc = ConvDesc::new(1, 2, 0, 10, 1, 4, 4, 1);
        let out = conv(&input, &w, &desc);
        assert_eq!(out.dims(), (1, 10, 2, 2));
        for k in 0..10 {
            let f = (k + 1) as f64;
            assert_eq!(out.plane(0, k), &[0.0, 2.0 * f, 8.0 * f, 10.0 * f]);
        }
    }

    #[test]
    fn conv_batch_images_are_independent() {
        // Image 1 is image 0 times -2; a 2×2 sum filter, 5 output
        // columns crosses the micro-kernel's column block of four.
        let input = Tensor4::from_fn(2, 1, 2, 6, |b, _, y, x| {
            let v = (y * 6 + x) as f64;
            if b == 0 {
                v
            } else {
                -2.0 * v
            }
        });
        let w = t(1, 1, 2, 2, &[1.0; 4]);
        let desc = ConvDesc::new(2, 1, 0, 1, 2, 2, 6, 1);
        let out = conv(&input, &w, &desc);
        // window sum at x: (x + x+1 + x+6 + x+7) = 4x + 14
        let img0: Vec<f64> = (0..5).map(|x| (4 * x + 14) as f64).collect();
        let img1: Vec<f64> = img0.iter().map(|v| -2.0 * v).collect();
        assert_eq!(out.plane(0, 0), img0.as_slice());
        assert_eq!(out.plane(1, 0), img1.as_slice());
    }

    #[test]
    fn relu_pool_and_concat_by_hand() {
        let a = t(1, 1, 2, 2, &[-1.0, 2.0, 3.0, -4.0]);
        assert_eq!(relu(&a).data(), &[0.0, 2.0, 3.0, 0.0]);
        let b = t(1, 1, 3, 3, &[1.0, 5.0, 2.0, 0.0, -1.0, 7.0, 3.0, 4.0, 6.0]);
        // 2×2 windows, stride 1: max of each quadrant.
        assert_eq!(max_pool(&b, 2, 1).data(), &[5.0, 7.0, 4.0, 7.0]);
        // 2×2 window, stride 2 on 3×3 keeps one window.
        assert_eq!(max_pool(&b, 2, 2).data(), &[5.0]);
        let c = concat(&[&a, &relu(&a)]);
        assert_eq!(c.dims(), (1, 2, 2, 2));
        assert_eq!(c.data(), &[-1.0, 2.0, 3.0, -4.0, 0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn network_walk_matches_hand_composition() {
        // input → conv(1×1, w=−1, fused relu) → pool 2/2, concat with a
        // second 1×1 conv (w=2) → the walker must equal the same ops
        // composed by hand.
        let mut g = ComputeGraph::new();
        let x = g.add_input();
        let c1 = g
            .add_conv(x, ConvDesc::new(1, 1, 0, 1, 1, 2, 2, 1))
            .unwrap();
        let r1 = g.add_relu(c1).unwrap();
        let c2 = g
            .add_conv(x, ConvDesc::new(1, 1, 0, 1, 1, 2, 2, 1))
            .unwrap();
        let cat = g.add_concat(&[r1, c2]).unwrap();
        let _pool = g.add_max_pool(cat, 2, 2).unwrap();
        g.set_weights(c1, Tensor4::from_raw(1, 1, 1, 1, vec![-1.0]))
            .unwrap();
        g.set_weights(c2, Tensor4::from_raw(1, 1, 1, 1, vec![2.0]))
            .unwrap();
        assert_eq!(g.fuse_relu(), 1);
        let input = t(1, 1, 2, 2, &[1.0, -2.0, 3.0, -4.0]);
        let out = network(&g, &input);
        // channel 0: relu(−in) = [0,2,0,4] → max 4; channel 1: 2·in → max 6.
        assert_eq!(out.dims(), (1, 2, 1, 1));
        assert_eq!(out.data(), &[4.0, 6.0]);
    }

    #[test]
    fn path_tolerance_takes_the_worst_branch() {
        // x → a → b (two convs) and x → c (one conv), joined by concat.
        let mut g = ComputeGraph::new();
        let x = g.add_input();
        let d = ConvDesc::new(1, 1, 0, 1, 1, 2, 2, 1);
        let a = g.add_conv(x, d).unwrap();
        let b = g.add_conv(a, d).unwrap();
        let c = g.add_conv(x, d).unwrap();
        g.add_concat(&[b, c]).unwrap();
        let tol = |id: NodeId| if id == c { 5.0 } else { 1.0 };
        assert_eq!(path_tolerance(&g, tol), 5.0);
        assert_eq!(path_tolerance(&g, |_| 1.0), 2.0);
    }

    #[test]
    fn normalised_error_is_relative_l1() {
        let r = t(1, 1, 1, 3, &[2.0, -4.0, 2.0]);
        let y = Tensor4::from_raw(1, 1, 1, 3, vec![2.0f32, -3.0, 1.5]);
        // (0 + 1 + 0.5) / (2 + 4 + 2)
        assert_eq!(normalised_error(&y, &r), 1.5 / 8.0);
        let bad = Tensor4::from_raw(1, 1, 1, 3, vec![f32::NAN, 0.0, 0.0]);
        assert!(normalised_error(&bad, &r).is_infinite());
        let short = Tensor4::from_raw(1, 1, 1, 2, vec![0.0f32, 0.0]);
        assert!(normalised_error(&short, &r).is_infinite());
    }
}
