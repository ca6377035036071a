//! Seeded inputs.
//!
//! Kernel shapes come from `graphiti_bench::suite`; every array the
//! program reads is then drawn afresh from the benchmark's own seed, with
//! the ranges the suite constructors use. Output arrays keep their zeros.
//! The program under test receives only these arrays.

use graphiti_bench::suite;
use graphiti_frontend::Program;
use graphiti_ir::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Table-2 kernels plus gcd, histogram and scatter, with every
/// dimension multiplied by `scale`. At scale 1 the six Table-2 kernels
/// have their `evaluation_suite()` sizes.
pub fn shapes(scale: i64) -> Vec<Program> {
    let s = scale;
    vec![
        suite::bicg(14 * s),
        suite::gemm(6 * s, 6 * s, 8 * s),
        suite::gsum_many(16 * s, 24 * s),
        suite::gsum_single(160 * s),
        suite::matvec(20 * s),
        suite::mvt(14 * s),
        suite::gcd(16 * s),
        suite::histogram(12 * s, 16 * s, 8 * s),
        suite::scatter(12 * s, 16 * s, 24 * s),
    ]
}

/// A generator for one `(seed, stream)` pair: set-up draws stream 0,
/// timed pass `k` of a workload that redraws its arrays draws stream `k`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

enum Draw {
    /// An output array: keep the constructor's zeros.
    Keep,
    /// Floats in 0.1..4.
    Positive,
    /// Floats in -2..2 (gsum's data-dependent condition).
    Signed,
    /// Integers in `lo..hi`.
    Int(i64, i64),
}

fn draw_for(p: &Program, array: &str) -> Draw {
    let len = |a: &str| {
        let n = p.arrays.get(a).map_or(0, Vec::len);
        i64::try_from(n).expect("suite array lengths fit in i64")
    };
    match (p.name.as_str(), array) {
        ("bicg", "s" | "q") | ("matvec", "y") | ("gsum-many" | "gsum-single", "out") => Draw::Keep,
        ("gcd", "result") | ("histogram", "h") | ("scatter", "out") => Draw::Keep,
        ("bicg" | "gemm" | "matvec" | "mvt", _) => Draw::Positive,
        ("gsum-many" | "gsum-single", "data") => Draw::Signed,
        ("gcd", "arr1" | "arr2") => Draw::Int(1, 2000),
        ("histogram", "data") => Draw::Int(0, len("h")),
        ("scatter", "idx") => Draw::Int(0, len("out")),
        ("scatter", "val") => Draw::Int(-9, 10),
        (prog, arr) => panic!("no input range for array `{arr}` of `{prog}`"),
    }
}

/// `shape` with every input array redrawn from `rng`, in array-name order.
pub fn seeded(shape: &Program, rng: &mut StdRng) -> Program {
    let mut p = shape.clone();
    for (name, values) in p.arrays.iter_mut() {
        let n = values.len();
        match draw_for(shape, name) {
            Draw::Keep => {}
            Draw::Positive => {
                *values = (0..n).map(|_| Value::from_f64(rng.gen_range(0.1..4.0))).collect();
            }
            Draw::Signed => {
                *values = (0..n).map(|_| Value::from_f64(rng.gen_range(-2.0..2.0))).collect();
            }
            Draw::Int(lo, hi) => {
                *values = (0..n).map(|_| Value::Int(rng.gen_range(lo..hi))).collect();
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_has_an_input_range() {
        let mut r = rng(1, 0);
        for p in shapes(1) {
            let q = seeded(&p, &mut r);
            assert_eq!(q.arrays.keys().collect::<Vec<_>>(), p.arrays.keys().collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_seed_alone_decides_the_arrays() {
        let shape = suite::gcd(16);
        let a = seeded(&shape, &mut rng(5, 0));
        let b = seeded(&shape, &mut rng(5, 0));
        let c = seeded(&shape, &mut rng(6, 0));
        assert_eq!(a.arrays, b.arrays);
        assert_ne!(a.arrays["arr1"], c.arrays["arr1"]);
        assert_eq!(a.arrays["result"], shape.arrays["result"], "outputs stay zero");
    }
}
