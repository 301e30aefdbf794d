//! Lookup rows from uniform draws, vectorized and bit-identical to `powf`.
//!
//! A feature's lookup with uniform draw `u ∈ [0, 1)` hits row
//! `min(⌊rows · u^e⌋, rows − 1)`, `e = 1 + row_skew` ([`exact_row`], one
//! libm `powf` per lookup). [`map_rows`] maps a whole slice of draws at
//! once. A branch-free loop, built for AVX-512 and for AVX2+FMA and picked
//! at run time, approximates `q ≈ rows · u^e` ([`approx_scaled_pow`]) and
//! *decides* a lane only when a margin proves that the row equals
//! [`exact_row`]'s. Every undecided lane is then recomputed by
//! [`exact_row`] itself, so the output never depends on the approximation.
//!
//! **Why a decided lane is exact.** Let `T = rows · u^e` be the true
//! value. [`exact_row`] floors `P = rows ⊗ pow(u, e)`, and libm's `pow` is
//! accurate to a few ulps, so `|P − T| ≤ 2⁻⁵⁰ · T`. The approximation
//! satisfies `|q − T| < 2⁻⁴⁰ · T` (tested). Both errors lie
//! far inside the margin `η = 2⁻³⁰` ([`ETA`]), so `q · (1 − η) < P <
//! q · (1 + η)`, even after rounding the two products. A lane is decided
//! only when both ends floor to the same integer `r` below `i32::MAX`;
//! `⌊P⌋` lies between them, so it is `r` too, and both sides clamp `r` to
//! `rows − 1` alike. Nothing here assumes that `pow` is monotone, or
//! anything else about how libm computes it.
//!
//! **Domain.** `y = e · ln u` is clamped to `[−700, 0]`. For
//! `u ∈ [2⁻¹⁰²², 1)`, wherever the clamp is inactive, the bound holds
//! (the worst measured error is 2⁻⁴³). Below −700 both `T` and `q` are
//! far below 1, so both floor to 0, and the clamp keeps `2ⁿ` a normal
//! number. Every other input ends up decided correctly or undecided:
//! - `u = 0` has `ln u = −∞`: row 0 for `e > 0`, as `pow` gives; a NaN
//!   `y` for `e = 0`; `y` clamped to 0 for `e < 0`;
//! - `e ≤ 0` or `e = −∞` clamps `y` to 0, so `q = rows`, whose margin
//!   ends floor to `rows − 1` and `rows`: undecided;
//! - `e = +∞` clamps `y = −∞` to −700: row 0, as `pow` gives;
//! - a NaN `e` gives a NaN `q`: undecided;
//! - subnormal, negative, NaN and `u ≥ 1` draws get a NaN `ln u`:
//!   undecided;
//! - in tables of 2³¹ rows or more, every `q` at or above `i32::MAX` is
//!   undecided.
//!
//! **Platforms.** The fast loop ships only where it pays. Per draw over
//! 2²⁰ draws (`e = 1.7`, 500 000 rows, best of 7, three runs on a 2-vCPU
//! AVX-512 VM): `powf` 15–23 ns, the AVX-512 build 4.2–5.0 ns, the
//! AVX2+FMA build 9.8–10.7 ns. Built for the x86-64 baseline (SSE2, no
//! FMA, `floor` a libm call) the same loop took 45 ns, slower than
//! `powf`, so every other host runs [`exact_row`] for every lane.

/// The decision margin `η`: a lane is decided when `q · (1 ± η)` floor to
/// the same integer.
const ETA: f64 = 1.0 / (1u64 << 30) as f64;

/// The relative error of [`approx_scaled_pow`] that the margin assumes,
/// `2⁻⁴⁰`: 2¹⁰ times smaller than [`ETA`].
#[cfg(test)]
const APPROX_REL_ERR: f64 = 1.0 / (1u64 << 40) as f64;

/// Decided rows stay below this, so they convert through `i32`.
const DECIDE_LIMIT: f64 = i32::MAX as f64;

/// Marks an undecided lane in [`map_rows`]'s output; never a decided row.
const UNDECIDED: u32 = u32::MAX;

/// `y = e · ln u` is clamped to `[Y_MIN, 0]`.
const Y_MIN: f64 = -700.0;

/// `ln 2 = LN2_HI + LN2_LO` (fdlibm's split): `LN2_HI` has 32 significant
/// bits, so `k · LN2_HI` is exact for `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// Adding `1.5 · 2⁵²` rounds a double below 2⁵¹ in magnitude to an
/// integer, which the low mantissa bits then hold in two's complement.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `rows · u^e` for one draw, with relative error below 2⁻⁴⁰ on the domain
/// in the module docs; outside it, a value that [`decide_rows`] leaves
/// undecided or decides correctly.
///
/// `ln u = k · ln 2 + ln(1 + f)` with `1 + f ∈ [√½, √2)`, and
/// `ln(1 + f) = 2 · atanh(s)`, `s = f / (2 + f)`, `|s| < 0.172`, summed
/// as `f − s · (f − R(s²))` with the Taylor series of `atanh` through
/// `s¹⁹` (truncation below 2⁻⁵⁵). `exp y = 2ⁿ · exp r` with
/// `n = round(y / ln 2)` (Cody–Waite: `r = y − n · ln 2` in two exact
/// steps, `|r| ≤ ln 2 / 2`), `exp r` by its Taylor series through `r¹¹`
/// (truncation below 2⁻⁴⁶), and `2ⁿ` built from exponent bits. `ln u`
/// is within about an ulp, so `y` is within about `|y| · 2⁻⁵²`, which is
/// 2⁻⁴² at `|y| = 700`.
///
/// Branch-free and always inlined, so that each `#[target_feature]` build
/// below vectorizes its own copy. Every operation is IEEE-exact or rounds
/// once, and FMA appears only as explicit `mul_add`, so every build
/// computes the same bits as a scalar call.
#[inline(always)]
fn approx_scaled_pow(u: f64, e: f64, rows: f64) -> f64 {
    // u = 2^k · m, m ∈ [1, 2); then m ∈ [√½, √2) by moving a factor 2.
    let bits = u.to_bits();
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // The biased exponent, read as a double without an integer convert.
    let k =
        f64::from_bits((bits >> 52) | 0x4330_0000_0000_0000) - (4_503_599_627_370_496.0 + 1023.0);
    let big = m > std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let k = if big { k + 1.0 } else { k };
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let mut r: f64 = 2.0 / 19.0;
    for c in [
        2.0 / 17.0,
        2.0 / 15.0,
        2.0 / 13.0,
        2.0 / 11.0,
        2.0 / 9.0,
        2.0 / 7.0,
        2.0 / 5.0,
        2.0 / 3.0,
    ] {
        r = r.mul_add(z, c);
    }
    let ln_m = s.mul_add(z * r - f, f);
    let ln_u = k.mul_add(LN2_HI, k.mul_add(LN2_LO, ln_m));
    // 0 ↦ −∞; subnormal, negative, NaN and u ≥ 1 ↦ NaN (undecided).
    let normal = (f64::MIN_POSITIVE..1.0).contains(&u);
    let ln_u = if normal {
        ln_u
    } else if u == 0.0 {
        f64::NEG_INFINITY
    } else {
        f64::NAN
    };
    // NaN passes both clamps.
    let y = e * ln_u;
    let y = if y < Y_MIN { Y_MIN } else { y };
    let y = if y > 0.0 { 0.0 } else { y };
    let t = y.mul_add(std::f64::consts::LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let r = (-n).mul_add(LN2_HI, y);
    let r = (-n).mul_add(LN2_LO, r);
    let mut p: f64 = 1.0 / 39_916_800.0;
    for c in [
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ] {
        p = p.mul_add(r, c);
    }
    // n ∈ [−1010, 0], so n + 1023 is a normal exponent.
    let two_n = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    rows * (p * two_n)
}

/// The reference row for one draw, `min(⌊rows · u^e⌋, rows − 1)` through
/// libm's `powf`: the fallback of [`map_rows`], its only path on hosts
/// without AVX2 and FMA, and the oracle its tests compare against.
/// `rows ≥ 1`.
#[inline]
pub(crate) fn exact_row(u: f64, e: f64, rows: u32) -> u32 {
    ((rows as f64 * u.powf(e)) as u32).min(rows - 1)
}

/// The decided row of every lane, or [`UNDECIDED`]; returns the number of
/// undecided lanes. Always inlined into the `#[target_feature]` builds.
#[inline(always)]
fn decide_rows(draws: &[f64], e: f64, rows: u32, out: &mut [u32]) -> usize {
    let rows_f = rows as f64;
    let max_row = (rows - 1) as f64;
    let mut undecided = 0;
    for (&u, slot) in draws.iter().zip(out.iter_mut()) {
        let q = approx_scaled_pow(u, e, rows_f);
        let lo = (q * (1.0 - ETA)).floor();
        let hi = (q * (1.0 + ETA)).floor();
        // False for NaN, so a NaN `q` is undecided.
        let decided = lo == hi && hi < DECIDE_LIMIT;
        undecided += usize::from(!decided);
        let row = if lo < max_row { lo } else { max_row };
        *slot = if decided {
            row as i32 as u32
        } else {
            UNDECIDED
        };
    }
    undecided
}

/// [`decide_rows`] built for AVX-512F and AVX-512DQ.
///
/// # Safety
///
/// The running CPU must support AVX-512F, AVX-512DQ and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,fma")]
unsafe fn decide_rows_avx512(draws: &[f64], e: f64, rows: u32, out: &mut [u32]) -> usize {
    decide_rows(draws, e, rows, out)
}

/// [`decide_rows`] built for AVX2 and FMA.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn decide_rows_avx2(draws: &[f64], e: f64, rows: u32, out: &mut [u32]) -> usize {
    decide_rows(draws, e, rows, out)
}

/// Replace every [`UNDECIDED`] lane by its [`exact_row`]. A branch-free
/// test per chunk of 64 lanes vectorizes; only the rare chunk holding an
/// undecided lane is walked lane by lane.
fn fill_undecided(draws: &[f64], e: f64, rows: u32, out: &mut [u32]) {
    for (us, slots) in draws.chunks(64).zip(out.chunks_mut(64)) {
        if slots.iter().fold(false, |any, &r| any | (r == UNDECIDED)) {
            for (&u, slot) in us.iter().zip(slots) {
                if *slot == UNDECIDED {
                    *slot = exact_row(u, e, rows);
                }
            }
        }
    }
}

/// Write [`exact_row`] of every draw into `out`, bit-identically, through
/// the fastest build the running CPU supports.
///
/// # Panics
///
/// If `rows` is 0 or the slices differ in length.
pub(crate) fn map_rows(draws: &[f64], e: f64, rows: u32, out: &mut [u32]) {
    assert!(rows > 0, "map_rows: a table needs at least one row");
    assert_eq!(draws.len(), out.len(), "map_rows: one output per draw");
    #[cfg(target_arch = "x86_64")]
    {
        let fma = is_x86_feature_detected!("fma");
        let undecided =
            if fma && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: `is_x86_feature_detected!` just found AVX-512F,
                // AVX-512DQ and FMA on this CPU.
                Some(unsafe { decide_rows_avx512(draws, e, rows, out) })
            } else if fma && is_x86_feature_detected!("avx2") {
                // SAFETY: `is_x86_feature_detected!` just found AVX2 and FMA
                // on this CPU.
                Some(unsafe { decide_rows_avx2(draws, e, rows, out) })
            } else {
                None
            };
        if let Some(undecided) = undecided {
            if undecided > 0 {
                fill_undecided(draws, e, rows, out);
            }
            return;
        }
    }
    for (&u, slot) in draws.iter().zip(out.iter_mut()) {
        *slot = exact_row(u, e, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `e = 1 + row_skew` for the exponents and skews the generator must
    /// handle: in the domain, at the edges of the clamps, and outside it.
    fn exponents() -> Vec<f64> {
        let in_domain = [1.0, 1.0 + 1e-12, 1.5, 2.0, 3.0 - 1e-9, 40.0];
        let skews = [-1.0, -2.0, -61.0, -1001.0, f64::NAN, f64::INFINITY];
        let skews = skews.into_iter().chain([f64::NEG_INFINITY]);
        in_domain
            .into_iter()
            .chain(skews.map(|s| 1.0 + s))
            .collect()
    }

    const TABLES: [u32; 6] = [1, 2, 2_000, 500_000, 1 << 31, u32::MAX];

    /// Draws `0`, `2⁻⁵³`, `1 − 2⁻⁵³`, a few outside the domain, random
    /// draws, and every draw within 3 ulps of a sampled row boundary
    /// `(r / rows)^(1/e)`, where the fallback has to run.
    fn draws(e: f64, rows: u32, rng: &mut StdRng) -> Vec<f64> {
        let tiny = 1.0 / (1u64 << 53) as f64;
        let mut us = vec![
            0.0,
            tiny,
            1.0 - tiny,
            f64::MIN_POSITIVE,
            1e-310,
            1.0,
            -0.5,
            f64::NAN,
        ];
        us.extend((0..2_000).map(|_| rng.gen_range(0.0..1.0)));
        if e > 0.0 && e.is_finite() {
            let boundaries: Vec<u32> = if rows <= 2_000 {
                (1..rows).collect()
            } else {
                let random = (0..400).map(|_| rng.gen_range(1..rows));
                [1, 2, rows / 2, rows - 1]
                    .into_iter()
                    .chain(random)
                    .collect()
            };
            for r in boundaries {
                let u0 = (r as f64 / rows as f64).powf(1.0 / e);
                let mut below = u0;
                let mut above = u0;
                us.push(u0);
                for _ in 0..3 {
                    below = f64::from_bits(below.to_bits() - 1);
                    above = f64::from_bits(above.to_bits() + 1);
                    us.extend(
                        [below, above]
                            .into_iter()
                            .filter(|u| (0.0..1.0).contains(u)),
                    );
                }
            }
        }
        us
    }

    /// Every lane of every build the host supports, after the fallback,
    /// equals [`exact_row`]. Adds each build's undecided lanes to its
    /// entry of `undecided` (AVX-512, AVX2), which stays `None` for a
    /// build the host lacks.
    fn check_builds(us: &[f64], e: f64, rows: u32, undecided: &mut [Option<usize>; 2]) {
        let expect: Vec<u32> = us.iter().map(|&u| exact_row(u, e, rows)).collect();
        let mut out = vec![0; us.len()];
        map_rows(us, e, rows, &mut out);
        assert_eq!(out, expect, "map_rows, e = {e}, rows = {rows}");
        #[cfg(target_arch = "x86_64")]
        {
            let fma = is_x86_feature_detected!("fma");
            if fma && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                out.fill(0);
                // SAFETY: `is_x86_feature_detected!` just found AVX-512F,
                // AVX-512DQ and FMA.
                let n = unsafe { decide_rows_avx512(us, e, rows, &mut out) };
                *undecided[0].get_or_insert(0) += n;
                fill_undecided(us, e, rows, &mut out);
                assert_eq!(out, expect, "AVX-512, e = {e}, rows = {rows}");
            }
            if fma && is_x86_feature_detected!("avx2") {
                out.fill(0);
                // SAFETY: `is_x86_feature_detected!` just found AVX2 and
                // FMA.
                let n = unsafe { decide_rows_avx2(us, e, rows, &mut out) };
                *undecided[1].get_or_insert(0) += n;
                fill_undecided(us, e, rows, &mut out);
                assert_eq!(out, expect, "AVX2, e = {e}, rows = {rows}");
            }
        }
    }

    #[test]
    fn every_build_equals_powf_at_edges_and_row_boundaries() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut undecided = [None; 2];
        for e in exponents() {
            for rows in TABLES {
                let us = draws(e, rows, &mut rng);
                check_builds(&us, e, rows, &mut undecided);
            }
        }
        assert!(
            undecided.iter().flatten().all(|&n| n > 0),
            "the boundary draws must reach the fallback of every build: {undecided:?}"
        );
    }

    #[test]
    fn approximation_error_stays_below_the_bound_the_margin_assumes() {
        let mut rng = StdRng::seed_from_u64(40);
        let tiny = 1.0 / (1u64 << 53) as f64;
        let mut worst: f64 = 0.0;
        for e in [
            1e-3f64,
            0.5,
            1.0,
            1.0 + 1e-12,
            1.5,
            2.0,
            3.0 - 1e-9,
            7.0,
            19.0,
            40.0,
            400.0,
        ] {
            let edges = [tiny, 0.5, 1.0 - tiny, (-700.0 / e).exp()];
            let mut us: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..1.0)).collect();
            // Draws across every scale of `ln u`, down to `y = −700`.
            us.extend((0..2_000).map(|_| (rng.gen_range(-700.0f64..0.0) / e).exp()));
            for u in edges.into_iter().chain(us) {
                if !(f64::MIN_POSITIVE..1.0).contains(&u) || e * u.ln() < Y_MIN + 1e-6 {
                    continue;
                }
                let truth = u.powf(e);
                let q = approx_scaled_pow(u, e, 1.0);
                worst = worst.max((q / truth - 1.0).abs());
            }
        }
        assert!(
            worst < APPROX_REL_ERR,
            "relative error {worst:e} ≥ the assumed 2⁻⁴⁰"
        );
    }
}
