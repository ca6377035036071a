//! Golden digests of the rewrite layer's output.
//!
//! For every marked kernel of the evaluation suite, `gcd(8)`,
//! `histogram(16,4,8)` and `scatter(6,5,8)`, the verified flow runs in
//! `CheckMode::Off` and `CheckMode::Deferred`, and the DF-OoO baseline runs
//! once. Each run is folded into one 64-bit FNV-1a digest:
//!
//! * verified flow: `print_dot` of the optimized graph, the report's
//!   `rewrites` and `refusal`, and each obligation's rewrite name and
//!   `Debug` text;
//! * DF-OoO: `print_dot` of `dfooo_loop`'s graph.
//!
//! The digests pin node names, wiring and obligation text, which the
//! debug-build §4.2 assert and the rewrite counters do not. A change to the
//! engine that claims identical output must pass unchanged; one that means
//! to change the output re-pins the table below, and the failure message
//! names each kernel, flow and mode that moved.

use graphiti::bench::suite::{evaluation_suite, gcd, histogram, scatter};
use graphiti::prelude::*;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, s: &str) {
        // A separator keeps adjacent fields from running together.
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(kernel, flow/mode, digest)`. The DF-OoO digests and the refused
/// kernels' (bicg, histogram, scatter) date from the engine that cloned the
/// whole graph for every application; the transformed kernels' GRAPHITI
/// digests from pure generation as one oracle step, whose circuits equal
/// the earlier ones up to node names.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("bicg/bicg_k0", "GRAPHITI/off", 0xb588d0f86a107fa6),
    ("bicg/bicg_k0", "GRAPHITI/deferred", 0xb588d0f86a107fa6),
    ("bicg/bicg_k0", "DF-OoO", 0xbcc9b9db35b44cff),
    ("gemm/gemm_k0", "GRAPHITI/off", 0xfe86f1108b4f5383),
    ("gemm/gemm_k0", "GRAPHITI/deferred", 0xa2acc2e5cc4c2161),
    ("gemm/gemm_k0", "DF-OoO", 0xab44b5ad3879fc09),
    ("gsum-many/gsum-many_k0", "GRAPHITI/off", 0xccaff5f856c6dee5),
    ("gsum-many/gsum-many_k0", "GRAPHITI/deferred", 0x8937868f4c19e609),
    ("gsum-many/gsum-many_k0", "DF-OoO", 0xdad723515700f6ac),
    ("gsum-single/gsum-single_k0", "GRAPHITI/off", 0x4a5497bc796c5eed),
    ("gsum-single/gsum-single_k0", "GRAPHITI/deferred", 0x2d5ca88f53c71d51),
    ("gsum-single/gsum-single_k0", "DF-OoO", 0x50619d1c0243ccd4),
    ("matvec/matvec_k0", "GRAPHITI/off", 0x201bcd1cea521527),
    ("matvec/matvec_k0", "GRAPHITI/deferred", 0x9d8ff31b1bf5fdfb),
    ("matvec/matvec_k0", "DF-OoO", 0x831f306ab5a2f8cf),
    ("mvt/mvt_k0", "GRAPHITI/off", 0x816309d8775bf86f),
    ("mvt/mvt_k0", "GRAPHITI/deferred", 0x5a701e43539b21ee),
    ("mvt/mvt_k0", "DF-OoO", 0x64a8bd0582933295),
    ("mvt/mvt_k1", "GRAPHITI/off", 0xf71aafcde62efb52),
    ("mvt/mvt_k1", "GRAPHITI/deferred", 0x61ecd364ad152888),
    ("mvt/mvt_k1", "DF-OoO", 0x6ce1dee94b82c46e),
    ("gcd/gcd_k0", "GRAPHITI/off", 0xada6796dddafb21b),
    ("gcd/gcd_k0", "GRAPHITI/deferred", 0x1d087c0f06040319),
    ("gcd/gcd_k0", "DF-OoO", 0xc3c908e9a28402fb),
    ("histogram/histogram_k0", "GRAPHITI/off", 0xf6aa613cf766e839),
    ("histogram/histogram_k0", "GRAPHITI/deferred", 0xf6aa613cf766e839),
    ("histogram/histogram_k0", "DF-OoO", 0x94ef791abaa7df72),
    ("scatter/scatter_k0", "GRAPHITI/off", 0x2a0155b4800c9d92),
    ("scatter/scatter_k0", "GRAPHITI/deferred", 0x2a0155b4800c9d92),
    ("scatter/scatter_k0", "DF-OoO", 0xc235ca75374a9d28),
];

fn digests() -> Vec<(String, &'static str, u64)> {
    let mut programs = evaluation_suite();
    programs.extend([gcd(8), histogram(16, 4, 8), scatter(6, 5, 8)]);
    let mut out = Vec::new();
    for p in &programs {
        for k in compile(p).unwrap().kernels {
            // histogram and scatter mark no kernel; at 8 tags their store
            // queues pin the refusal path.
            let tags = k.ooo_tags.unwrap_or(8);
            let kernel = format!("{}/{}", p.name, k.name);
            for (mode, check) in
                [("GRAPHITI/off", CheckMode::Off), ("GRAPHITI/deferred", CheckMode::Deferred)]
            {
                let opts = PipelineOptions { tags, check, ..Default::default() };
                let (g, report) = optimize_loop(&k.graph, &k.inner_init, &opts).unwrap();
                let mut h = Fnv::new();
                h.feed(&print_dot(&g));
                h.feed(&report.rewrites.to_string());
                h.feed(&format!("{:?}", report.refusal));
                for o in &report.obligations {
                    h.feed(&o.rewrite);
                    h.feed(&format!("{o:?}"));
                }
                out.push((kernel.clone(), mode, h.0));
            }
            let opts = PipelineOptions { tags, ..Default::default() };
            let mut h = Fnv::new();
            h.feed(&print_dot(&dfooo_loop(&k.graph, &k.inner_init, &opts).unwrap()));
            out.push((kernel, "DF-OoO", h.0));
        }
    }
    out
}

#[test]
fn rewrite_layer_output_matches_the_golden_digests() {
    let got = digests();
    let table: String =
        got.iter().map(|(k, m, d)| format!("    (\"{k}\", \"{m}\", {d:#018x}),\n")).collect();
    let mut moved = Vec::new();
    for (k, m, d) in &got {
        match GOLDEN.iter().find(|(gk, gm, _)| gk == k && gm == m) {
            Some((_, _, want)) if want == d => {}
            Some((_, _, want)) => moved.push(format!("{k} {m}: {d:#018x}, pinned {want:#018x}")),
            None => moved.push(format!("{k} {m}: {d:#018x}, not pinned")),
        }
    }
    for (k, m, _) in GOLDEN {
        if !got.iter().any(|(gk, gm, _)| gk == k && gm == m) {
            moved.push(format!("{k} {m}: pinned but not produced"));
        }
    }
    assert!(
        moved.is_empty(),
        "rewrite output moved:\n{}\ncurrent table:\n{table}",
        moved.join("\n")
    );
}
