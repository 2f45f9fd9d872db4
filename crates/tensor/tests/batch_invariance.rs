//! Batch invariance of the forward row-sharded products: row `i` of
//! `par_matmul` (on a serial and a pooled executor) / `matmul_quant` over
//! an `m`-row left operand is bit-for-bit the product of that row alone, at
//! every `m` from 1 to 40.
//! The serving engine relies on this to score a window to the same bits in
//! whichever chunk it lands (DESIGN.md §18). Shapes straddle the old
//! `m·k·n` blocking threshold (16×16 flips at m = 32), fill partial micro
//! tiles (n = 17, 40) and span two k-blocks (k = 300).

use tfmae_tensor::kernels::{matmul_quant, par_matmul, Mkn};
use tfmae_tensor::{f32_to_bf16, Executor, QuantData};

fn rndvec(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32 * 12.9898 + seed as f32).sin() * 43758.547).fract() - 0.5)
        .collect()
}

const SHAPES: [(usize, usize); 5] = [(16, 16), (24, 16), (16, 40), (64, 64), (300, 17)];
const MAX_M: usize = 40;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `product(rows, m)` row by row against `product(row, 1)`.
fn assert_rows_invariant(
    what: &str,
    k: usize,
    n: usize,
    product: &dyn Fn(&[f32], usize) -> Vec<f32>,
) {
    let a = rndvec(MAX_M * k, 7);
    let solo: Vec<Vec<u32>> = (0..MAX_M)
        .map(|i| bits(&product(&a[i * k..(i + 1) * k], 1)))
        .collect();
    for m in 1..=MAX_M {
        let out = product(&a[..m * k], m);
        for (i, want) in solo.iter().enumerate().take(m) {
            assert!(
                bits(&out[i * n..(i + 1) * n]) == *want,
                "{what} k={k} n={n}: row {i} of an m={m} product differs from the solo row"
            );
        }
    }
}

#[test]
fn matmul_rows_are_bitwise_independent_of_the_row_count() {
    let serial = Executor::serial();
    let par = Executor::with_threads(2);
    for (k, n) in SHAPES {
        let b = rndvec(k * n, 11);
        assert_rows_invariant("serial par_matmul", k, n, &|a, m| {
            let mut out = vec![0.0; m * n];
            par_matmul(&serial, a, &b, Mkn { m, k, n }, &mut out);
            out
        });
        assert_rows_invariant("par_matmul", k, n, &|a, m| {
            let mut out = vec![0.0; m * n];
            par_matmul(&par, a, &b, Mkn { m, k, n }, &mut out);
            out
        });
    }
}

#[test]
fn matmul_quant_rows_are_bitwise_independent_of_the_row_count() {
    let exec = Executor::serial();
    for (k, n) in SHAPES {
        let w = rndvec(k * n, 13);
        let bf16 = QuantData::Bf16(w.iter().map(|&x| f32_to_bf16(x)).collect());
        let scales: Vec<f32> = (0..k)
            .map(|r| {
                w[r * n..(r + 1) * n]
                    .iter()
                    .fold(0.0f32, |a, x| a.max(x.abs()))
                    / 127.0
            })
            .collect();
        let int8 = QuantData::Int8 {
            data: (0..k * n)
                .map(|i| (w[i] / scales[i / n]).round() as i8)
                .collect(),
            scales,
        };
        for (name, q) in [("bf16", &bf16), ("int8", &int8)] {
            assert_rows_invariant(&format!("matmul_quant {name}"), k, n, &|a, m| {
                let mut out = vec![0.0; m * n];
                matmul_quant(&exec, a, q, Mkn { m, k, n }, &mut out);
                out
            });
        }
    }
}
