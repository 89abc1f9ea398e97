//! The host-libm canary.
//!
//! Every sampled bit in the workspace passes through the host's libm:
//! `SimRng` draws exponentials with `ln`, normals by Box–Muller with `ln`,
//! `sin` and `cos`, and lognormals with `exp`; profile calibration and
//! trace synthesis scale with `powf`. Rust's std documents the precision
//! of these functions as platform-dependent, so the golden digests, the
//! pinned sampler digest and the checked-in `BENCH_*.json` artifacts hold
//! only on a host whose libm rounds them as x86_64 Linux with glibc does.
//!
//! This test pins their output bits at a few hundred inputs across the
//! ranges the simulator feeds them. On a host that rounds differently it
//! names the function that moved, where the digests would only report
//! thousands of changed words. Its inputs come from `SimRng`'s integer
//! stream and plain arithmetic, which no libm touches.

use v10_sim::SimRng;

/// FNV-1a over the bit patterns of `values`.
fn bits_digest(values: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `n` inputs drawn uniformly from `[lo, hi)` by a stream seeded with
/// `seed`.
fn uniform_inputs(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// The `ln` inputs: the `(0, 1]` draws of the exponential and Box–Muller
/// samplers, and the operator-length, request-length and ratio means the
/// lognormal sampler and the feature vectors take logarithms of.
fn ln_inputs() -> Vec<f64> {
    let mut rng = SimRng::seed_from(0x1);
    let mut v: Vec<f64> = (0..100).map(|_| 1.0 - rng.unit_f64()).collect();
    v.extend(uniform_inputs(0x2, 40, 1.0e-6, 1.0));
    v.extend(uniform_inputs(0x3, 40, 1.0, 1.0e3));
    v.extend(uniform_inputs(0x4, 40, 1.0e3, 1.0e8));
    v
}

/// The `exp` inputs: `mu + sigma * z` of the lognormal sampler, for
/// log-means up to a 5-million-cycle operator and normals out to six
/// standard deviations.
fn exp_inputs() -> Vec<f64> {
    uniform_inputs(0x5, 160, -12.0, 24.0)
}

/// The Box–Muller angles, `2π · u` for `u` in `[0, 1)`.
fn angle_inputs() -> Vec<f64> {
    let mut rng = SimRng::seed_from(0x6);
    (0..160)
        .map(|_| 2.0 * std::f64::consts::PI * rng.unit_f64())
        .collect()
}

/// The `powf` inputs: batch ratios (a legal batch over a model's default
/// batch, both powers of two, and random ratios between) raised to the
/// calibration and synthesis exponents.
fn powf_inputs() -> Vec<(f64, f64)> {
    const EXPONENTS: [f64; 6] = [0.15, -0.25, 0.8, 0.7, 0.85, 0.3];
    let mut ratios: Vec<f64> = (0..12)
        .flat_map(|b| [1.0, 8.0, 32.0, 128.0].map(|d| f64::from(1u32 << b) / d))
        .collect();
    ratios.extend(uniform_inputs(0x7, 12, 1.0 / 128.0, 64.0));
    EXPONENTS
        .iter()
        .flat_map(|&e| ratios.iter().map(move |&r| (r, e)))
        .collect()
}

/// Each function's digest over its inputs on x86_64 Linux with glibc's
/// libm, the host every pinned digest in the workspace was recorded on.
const PINNED: [(&str, u64); 5] = [
    ("ln", 0x4415_D8CC_A85E_EE29),
    ("exp", 0x2653_60F3_796C_BBCE),
    ("sin", 0xA252_62D9_2FCD_CA34),
    ("cos", 0x6E10_75E3_598F_9F9B),
    ("powf", 0xB55C_60C6_95A0_3195),
];

#[test]
fn host_libm_rounds_as_pinned() {
    let (ln, exp, angles, powf) = (ln_inputs(), exp_inputs(), angle_inputs(), powf_inputs());
    let got = [
        ("ln", bits_digest(ln.iter().map(|x| x.ln()))),
        ("exp", bits_digest(exp.iter().map(|x| x.exp()))),
        ("sin", bits_digest(angles.iter().map(|x| x.sin()))),
        ("cos", bits_digest(angles.iter().map(|x| x.cos()))),
        ("powf", bits_digest(powf.iter().map(|&(r, e)| r.powf(e)))),
    ];
    let moved: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, g), (_, want))| g != want)
        .map(|((name, g), (_, want))| format!("{name}: {g:#018X}, pinned {want:#018X}"))
        .collect();
    assert!(
        moved.is_empty(),
        "this host's libm rounds differently from the one every pinned digest assumes \
         (x86_64 Linux, glibc), so golden, sampler and BENCH digests will not match:\n{}",
        moved.join("\n")
    );
}
