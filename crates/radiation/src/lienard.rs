//! The Liénard-Wiechert far-field amplitude accumulator.
//!
//! Per (particle, direction) the kernel forms the radiation vector
//! `G = n × ((n − β) × β̇)` and the retarded time once, then walks the
//! frequency axis: `A(ω) += w·dt/(1 − n·β)² · G · e^{iω t_ret}`. The
//! frequencies are log-spaced, so no phase recurrence exists; the sines
//! and cosines come from [`sin_cos_lanes`], [`LANES`] phases at a time
//! without a branch or a library call.
//!
//! **Accuracy contract:** for `|phase| ≤ 10⁶` both lane results are within
//! 2.3·10⁻¹⁶ absolute of libm (asserted in the tests); a lane group with
//! a larger or non-finite phase goes through libm. The summation order —
//! 256-particle chunks, merged in chunk order — does not depend on it.
//!
//! A chunk's body — the caller's lane particle states, `add_particle` and
//! [`sin_cos_lanes`], all inlined — is compiled for the SSE2 baseline and
//! a second time for AVX2, picked at run time. Both give the same bits:
//! packed operations round each lane as scalar ones do and nothing is
//! fused (see `as_tensor::matmul`'s CPU instances).

use crate::detector::Detector;
use rayon::prelude::*;
use std::ops::Range;

/// Complex vector amplitude per (direction, frequency), accumulated over
/// time steps and particles.
///
/// Storage layout: `[dir][freq][re_x, im_x, re_y, im_y, re_z, im_z]`.
/// Macro-particle weights multiply the *amplitude* (macro-particles
/// radiate coherently within themselves — the standard PIC form-factor
/// treatment at frequencies below the macro-particle scale).
#[derive(Debug, Clone, PartialEq)]
pub struct RadiationAccumulator {
    n_dirs: usize,
    n_freqs: usize,
    amp: Vec<f64>,
}

/// One particle's kinematic state at a time step, as seen by the
/// accumulator.
#[derive(Debug, Clone, Copy)]
pub struct ParticleState {
    /// Position (normalised units).
    pub r: [f64; 3],
    /// Velocity β.
    pub beta: [f64; 3],
    /// Acceleration dβ/dt.
    pub beta_dot: [f64; 3],
    /// Macro-particle weight.
    pub weight: f64,
}

/// Particles per partial sum; fixes the summation order.
const CHUNK: usize = 256;

impl RadiationAccumulator {
    /// Zeroed accumulator matching `det`.
    pub fn new(det: &Detector) -> Self {
        Self {
            n_dirs: det.n_dirs(),
            n_freqs: det.n_freqs(),
            amp: vec![0.0; det.n_dirs() * det.n_freqs() * 6],
        }
    }

    /// Frequency count.
    pub fn n_freqs(&self) -> usize {
        self.n_freqs
    }

    /// Raw amplitude storage (for cross-rank reduction).
    pub fn amplitudes(&self) -> &[f64] {
        &self.amp
    }

    /// Mutable raw amplitude storage (for cross-rank reduction).
    pub fn amplitudes_mut(&mut self) -> &mut [f64] {
        &mut self.amp
    }

    /// Zero the amplitudes in place (start of a new window).
    pub(crate) fn reset(&mut self) {
        self.amp.fill(0.0);
    }

    /// Merge another accumulator (sum of amplitudes — radiation from
    /// different ranks superposes coherently).
    pub fn merge(&mut self, other: &RadiationAccumulator) {
        assert_eq!(
            self.amp.len(),
            other.amp.len(),
            "accumulator shape mismatch"
        );
        for (a, b) in self.amp.iter_mut().zip(&other.amp) {
            *a += b;
        }
    }

    /// Accumulate one step's contributions from `particles` at simulation
    /// time `t`, integrating with weight `dt`.
    ///
    /// Parallelises over fixed-size particle chunks with per-chunk partial
    /// amplitudes merged in chunk order, so the amplitude sums are
    /// bit-reproducible for *any* worker count.
    pub fn accumulate(&mut self, det: &Detector, particles: &[ParticleState], t: f64, dt: f64) {
        let state = |[i]: [usize; 1]| [particles[i]];
        self.accumulate_with(det, particles.len(), state, t, dt, &mut Vec::new());
    }

    /// [`Self::accumulate`] over the `n` particles `0..n`, whose states
    /// `states` computes `L` at a time where they are consumed instead of
    /// collected first, with the per-chunk partial amplitudes kept in
    /// `partials` — a scratch buffer the caller reuses from step to step.
    /// A chunk's last group pads its idle lanes with its last particle and
    /// drops their states; the states enter the sum one by one in index
    /// order, so the amplitudes do not depend on `L`.
    pub(crate) fn accumulate_with<const L: usize>(
        &mut self,
        det: &Detector,
        n: usize,
        states: impl Fn([usize; L]) -> [ParticleState; L] + Sync,
        t: f64,
        dt: f64,
        partials: &mut Vec<f64>,
    ) {
        let len = self.amp.len();
        partials.clear();
        partials.resize(n.div_ceil(CHUNK) * len, 0.0);
        partials
            .par_chunks_mut(len)
            .enumerate()
            .for_each(|(c, acc)| {
                let chunk = c * CHUNK..(c * CHUNK + CHUNK).min(n);
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has AVX2.
                    return unsafe { chunk_avx2(acc, det, chunk, &states, t, dt) };
                }
                accumulate_chunk(acc, det, chunk, &states, t, dt);
            });
        for part in partials.chunks_exact(len) {
            for (a, b) in self.amp.iter_mut().zip(part) {
                *a += b;
            }
        }
    }

    /// Observed intensity `|A|²`, direction-major over (direction,
    /// frequency).
    pub fn intensities(&self) -> impl Iterator<Item = f64> + '_ {
        self.amp
            .chunks_exact(6)
            .map(|a| a.iter().map(|v| v * v).sum())
    }

    /// Observed intensity `|A|²` per (direction, frequency).
    pub fn intensity(&self) -> Vec<Vec<f64>> {
        let flat: Vec<f64> = self.intensities().collect();
        flat.chunks_exact(self.n_freqs)
            .map(<[f64]>::to_vec)
            .collect()
    }
}

/// [`accumulate_chunk`] compiled for AVX2 (same bits: see
/// `as_tensor::matmul`'s CPU instances).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn chunk_avx2<const L: usize>(
    acc: &mut [f64],
    det: &Detector,
    chunk: Range<usize>,
    states: &impl Fn([usize; L]) -> [ParticleState; L],
    t: f64,
    dt: f64,
) {
    accumulate_chunk(acc, det, chunk, states, t, dt)
}

/// Add the particles of `chunk`, their states computed `L` at a time, to
/// the chunk's partial amplitudes `acc`.
#[inline(always)]
fn accumulate_chunk<const L: usize>(
    acc: &mut [f64],
    det: &Detector,
    chunk: Range<usize>,
    states: &impl Fn([usize; L]) -> [ParticleState; L],
    t: f64,
    dt: f64,
) {
    for start in chunk.clone().step_by(L) {
        let live = (chunk.end - start).min(L);
        let group = states(std::array::from_fn(|l| start + l.min(live - 1)));
        for p in &group[..live] {
            add_particle(acc, det, p, t, dt);
        }
    }
}

/// Add one particle's Liénard-Wiechert contribution to a raw amplitude
/// buffer.
#[inline(always)]
fn add_particle(acc: &mut [f64], det: &Detector, p: &ParticleState, t: f64, dt: f64) {
    let n_freqs = det.n_freqs();
    for (d, n) in det.directions.iter().enumerate() {
        let n_dot_beta = n[0] * p.beta[0] + n[1] * p.beta[1] + n[2] * p.beta[2];
        let denom = 1.0 - n_dot_beta;
        // Guard against the exact light-cone singularity.
        let denom2 = (denom * denom).max(1e-12);
        // G = n × ((n − β) × β̇) = (n·β̇)(n − β) − (n·(n−β)) β̇
        //   = (n·β̇)(n − β) − (1 − n·β) β̇   (since n·n = 1)
        let n_dot_bdot = n[0] * p.beta_dot[0] + n[1] * p.beta_dot[1] + n[2] * p.beta_dot[2];
        let gx = n_dot_bdot * (n[0] - p.beta[0]) - denom * p.beta_dot[0];
        let gy = n_dot_bdot * (n[1] - p.beta[1]) - denom * p.beta_dot[1];
        let gz = n_dot_bdot * (n[2] - p.beta[2]) - denom * p.beta_dot[2];
        let scale = p.weight * dt / denom2;
        let (sgx, sgy, sgz) = (scale * gx, scale * gy, scale * gz);
        let retard = t - (n[0] * p.r[0] + n[1] * p.r[1] + n[2] * p.r[2]);
        let acc = &mut acc[d * n_freqs * 6..(d + 1) * n_freqs * 6];
        for (omegas, acc) in det.frequencies.chunks(LANES).zip(acc.chunks_mut(LANES * 6)) {
            // Idle lanes of the last group compute sin/cos of 0.
            let mut phase = [0.0f64; LANES];
            for (ph, &omega) in phase.iter_mut().zip(omegas) {
                *ph = omega * retard;
            }
            let (s, c) = sin_cos_lanes(&phase);
            for ((a, &s), &c) in acc.chunks_exact_mut(6).zip(&s).zip(&c) {
                a[0] += sgx * c;
                a[1] += sgx * s;
                a[2] += sgy * c;
                a[3] += sgy * s;
                a[4] += sgz * c;
                a[5] += sgz * s;
            }
        }
    }
}

/// Phases evaluated per [`sin_cos_lanes`] call: four independent SSE2
/// dependency chains (two AVX ones in the AVX2 instance), enough to hide
/// the polynomial's latency.
pub const LANES: usize = 8;

/// Largest |phase| the branch-free path takes; beyond it the two-term
/// argument reduction no longer holds the accuracy contract.
const LANE_RANGE: f64 = 1e6;

/// `(sin, cos)` of every lane (see the module docs for the contract).
///
/// Quadrant by magic-number rounding of `x·2/π`, a two-term Cody–Waite
/// reduction with the 33-bit head of `π/2` (so `k·head` is exact for
/// `|k| < 2²⁰`), the fdlibm kernel polynomials with the reduction's tail,
/// and a select-based quadrant fix-up on the bit patterns. No lane
/// branches, so the loop vectorises.
#[inline(always)]
pub fn sin_cos_lanes(x: &[f64; LANES]) -> ([f64; LANES], [f64; LANES]) {
    // fdlibm's constants, by bit pattern: the first 33 bits of π/2 and
    // π/2 minus those; the sine (S1..S6) and cosine (C1..C6) kernels.
    const PIO2_HEAD: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
    const PIO2_TAIL: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
    #[rustfmt::skip]
    const S: [u64; 6] = [
        0xBFC5_5555_5555_5549, 0x3F81_1111_1110_F8A6, 0xBF2A_01A0_19C1_61D5,
        0x3EC7_1DE3_57B1_FE7D, 0xBE5A_E5E6_8A2B_9CEB, 0x3DE5_D93A_5ACF_D57C,
    ];
    #[rustfmt::skip]
    const C: [u64; 6] = [
        0x3FA5_5555_5555_554C, 0xBF56_C16C_16C1_5177, 0x3EFA_01A0_19CB_1590,
        0xBE92_7E4F_809C_52AD, 0x3E21_EE9E_BDB4_B1C4, 0xBDA8_FAE9_BE88_38D4,
    ];
    let [s1, s2, s3, s4, s5, s6] = S.map(f64::from_bits);
    let [c1, c2, c3, c4, c5, c6] = C.map(f64::from_bits);
    // 1.5·2⁵²: adding it leaves the nearest integer in the low mantissa.
    const MAGIC: f64 = 6_755_399_441_055_744.0;

    let mut sin = [0.0f64; LANES];
    let mut cos = [0.0f64; LANES];
    if !x.iter().all(|v| v.abs() <= LANE_RANGE) {
        for ((s, c), v) in sin.iter_mut().zip(&mut cos).zip(x) {
            (*s, *c) = v.sin_cos();
        }
        return (sin, cos);
    }
    for l in 0..LANES {
        let t = x[l] * std::f64::consts::FRAC_2_PI + MAGIC;
        let k = t - MAGIC;
        let quadrant = t.to_bits();
        // y + y_tail = x − k·π/2, |y| ≤ π/4 (+ a rounding of k).
        let r = x[l] - k * PIO2_HEAD;
        let w = k * PIO2_TAIL;
        let y = r - w;
        let y_tail = (r - y) - w;
        let z = y * y;
        let z2 = z * z;
        let ps = s2 + z * (s3 + z * s4) + z * z2 * (s5 + z * s6);
        let v = z * y;
        let sin_y = y - ((z * (0.5 * y_tail - v * ps) - y_tail) - v * s1);
        let pc = z * (c1 + z * (c2 + z * c3)) + (z2 * z2) * (c4 + z * (c5 + z * c6));
        let hz = 0.5 * z;
        let one_hz = 1.0 - hz;
        let cos_y = one_hz + (((1.0 - one_hz) - hz) + (z * pc - y * y_tail));
        // Odd quadrants swap sin and cos; quadrants 2, 3 negate the sine
        // and 1, 2 the cosine.
        let swap = 0u64.wrapping_sub(quadrant & 1);
        let (sb, cb) = (sin_y.to_bits(), cos_y.to_bits());
        let sin_sign = (quadrant & 2) << 62;
        let cos_sign = (quadrant.wrapping_add(1) & 2) << 62;
        sin[l] = f64::from_bits(((sb & !swap) | (cb & swap)) ^ sin_sign);
        cos[l] = f64::from_bits(((cb & !swap) | (sb & swap)) ^ cos_sign);
    }
    (sin, cos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;

    fn single_x_detector(freqs: Vec<f64>) -> Detector {
        Detector::new(vec![[1.0, 0.0, 0.0]], freqs)
    }

    /// Simulate an oscillating particle analytically and return its
    /// spectrum: y-oscillation at frequency `omega0` with drift `beta_d`
    /// along x.
    fn oscillator_spectrum(
        det: &Detector,
        beta_d: f64,
        omega0: f64,
        amp: f64,
        steps: usize,
        dt: f64,
    ) -> Vec<Vec<f64>> {
        let mut acc = RadiationAccumulator::new(det);
        for s in 0..steps {
            let t = s as f64 * dt;
            let p = ParticleState {
                r: [beta_d * t, 0.0, 0.0],
                beta: [beta_d, amp * (omega0 * t).cos(), 0.0],
                beta_dot: [0.0, -amp * omega0 * (omega0 * t).sin(), 0.0],
                weight: 1.0,
            };
            acc.accumulate(det, &[p], t, dt);
        }
        acc.intensity()
    }

    fn peak_index(spec: &[f64]) -> usize {
        spec.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("nonempty")
    }

    /// The accuracy contract: within 2.3·10⁻¹⁶ of libm for |x| ≤ 10⁶ —
    /// random phases at every magnitude, multiples of π/2 (where the
    /// reduced argument cancels) and the quadrant boundaries at odd
    /// multiples of π/4 — and libm itself beyond, for NaN and for ±∞.
    #[test]
    fn lane_sin_cos_holds_its_contract() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut xs = vec![0.0, -0.0, 5e-324, 1e-300, -1e-9, 1e6, -1e6];
        for k in 0..700_000 {
            if k % 7 == 0 {
                xs.extend([k as f64 * FRAC_PI_2, -(k as f64) * FRAC_PI_2]);
                xs.extend([
                    (2 * k + 1) as f64 * FRAC_PI_4,
                    f64::next_up(k as f64 * FRAC_PI_2),
                ]);
            }
            let scale = [1.0, 30.0, 1e3, 1e6][k % 4];
            xs.push((2.0 * unit() - 1.0) * scale);
        }
        xs.retain(|x: &f64| x.abs() <= LANE_RANGE);
        xs.resize(xs.len().next_multiple_of(LANES), 0.0);
        let mut worst = 0.0f64;
        for group in xs.chunks_exact(LANES) {
            let group: &[f64; LANES] = group.try_into().expect("whole group");
            let (s, c) = sin_cos_lanes(group);
            for l in 0..LANES {
                let (ls, lc) = group[l].sin_cos();
                let err = (s[l] - ls).abs().max((c[l] - lc).abs());
                assert!(err <= 2.3e-16, "sin_cos({:e}) is off by {err:e}", group[l]);
                worst = worst.max(err);
            }
        }
        assert!(
            worst > 0.0,
            "the lanes are not libm; the bound is the contract"
        );

        for special in [
            1.000_001e6,
            -3e9,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut group = [0.25; LANES];
            group[3] = special;
            let (s, c) = sin_cos_lanes(&group);
            for l in 0..LANES {
                let (ls, lc) = group[l].sin_cos();
                let same =
                    |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
                assert!(
                    same(s[l], ls) && same(c[l], lc),
                    "fallback lane {l} of {special}"
                );
            }
        }
    }

    /// Deterministic particle states with a spread of phases.
    fn test_states(n: usize) -> Vec<ParticleState> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                ParticleState {
                    r: [0.37 * f % 11.0, 0.11 * f % 7.0, 0.05 * f % 3.0],
                    beta: [0.2 * (0.3 * f).sin(), 0.1 * (0.7 * f).cos(), 0.05],
                    beta_dot: [0.01 * (0.9 * f).cos(), 0.02, -0.01 * (0.2 * f).sin()],
                    weight: 0.5 + (f % 5.0) * 0.25,
                }
            })
            .collect()
    }

    /// The chunked accumulation, written as the sentence that defines it:
    /// per 256 particles one partial from zero, partials merged in order.
    fn collect_then_chunk(
        det: &Detector,
        states: &[ParticleState],
        t: f64,
        dt: f64,
    ) -> RadiationAccumulator {
        let mut total = RadiationAccumulator::new(det);
        for chunk in states.chunks(CHUNK) {
            let mut partial = vec![0.0f64; total.amp.len()];
            for p in chunk {
                add_particle(&mut partial, det, p, t, dt);
            }
            for (a, b) in total.amp.iter_mut().zip(partial) {
                *a += b;
            }
        }
        total
    }

    /// `accumulate` (states computed where they are consumed, partials in
    /// a reused scratch, chunks on whatever workers there are) against
    /// the collect-then-chunk reference, bit for bit, at particle counts
    /// on both sides of the chunk size and across repeated calls.
    #[test]
    fn accumulate_equals_collect_then_chunk_bitwise() {
        let det = Detector::fan_xy(0.3, 2, 0.2, 20.0, 13);
        let mut partials = Vec::new();
        for n in [0usize, 1, 255, 256, 257, 700, 1024, 1300] {
            let states = test_states(n);
            let want = collect_then_chunk(&det, &states, 1.5, 0.1);
            let mut got = RadiationAccumulator::new(&det);
            got.accumulate(&det, &states, 1.5, 0.1);
            let bits = |acc: &RadiationAccumulator| -> Vec<u64> {
                acc.amp.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{n} particles");
            let mut streamed = RadiationAccumulator::new(&det);
            streamed.accumulate_with(&det, n, |[i]| [states[i]], 1.5, 0.1, &mut partials);
            assert_eq!(
                bits(&streamed),
                bits(&want),
                "{n} particles, reused scratch"
            );
            let mut lanes = RadiationAccumulator::new(&det);
            let group = |i: [usize; 3]| i.map(|i| states[i]);
            lanes.accumulate_with(&det, n, group, 1.5, 0.1, &mut partials);
            assert_eq!(bits(&lanes), bits(&want), "{n} particles, three lanes");
        }
    }

    /// Each instance of the chunk body this CPU can run against the
    /// collect-then-chunk reference, bit for bit, on a chunk in which one
    /// particle sits far enough out that its lane groups' phases pass
    /// `LANE_RANGE` and go through libm.
    #[test]
    fn chunk_instances_equal_collect_then_chunk_bitwise() {
        let det = Detector::fan_xy(0.3, 2, 0.2, 20.0, 13);
        let mut states = test_states(CHUNK - 3);
        states[100].r[0] = 3e5;
        let retard = 1.5 - det.directions[0][0] * 3e5;
        assert!(det
            .frequencies
            .iter()
            .any(|w| (w * retard).abs() > LANE_RANGE));
        let bits = |amp: &[f64]| amp.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&collect_then_chunk(&det, &states, 1.5, 0.1).amp);
        let group = |i: [usize; 3]| i.map(|i| states[i]);
        let mut acc = vec![0.0; want.len()];
        accumulate_chunk(&mut acc, &det, 0..states.len(), &group, 1.5, 0.1);
        assert_eq!(bits(&acc), want, "sse2");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            acc.fill(0.0);
            // SAFETY: the CPU has AVX2.
            unsafe { chunk_avx2(&mut acc, &det, 0..states.len(), &group, 1.5, 0.1) };
            assert_eq!(bits(&acc), want, "avx2");
            return;
        }
        eprintln!("no AVX2 on this CPU: checking the baseline instance alone");
    }

    #[test]
    fn no_acceleration_no_radiation() {
        let det = single_x_detector(vec![0.5, 1.0, 2.0]);
        let mut acc = RadiationAccumulator::new(&det);
        for s in 0..100 {
            let t = s as f64 * 0.1;
            let p = ParticleState {
                r: [0.3 * t, 0.0, 0.0],
                beta: [0.3, 0.0, 0.0],
                beta_dot: [0.0, 0.0, 0.0],
                weight: 1.0,
            };
            acc.accumulate(&det, &[p], t, 0.1);
        }
        let total: f64 = acc.intensity().iter().flatten().sum();
        assert_eq!(total, 0.0);
    }

    #[test]
    fn oscillator_peaks_at_its_frequency() {
        // No drift: spectrum peaks at ω = ω₀.
        let freqs: Vec<f64> = (1..=40).map(|i| i as f64 * 0.25).collect();
        let det = single_x_detector(freqs.clone());
        let spec = oscillator_spectrum(&det, 0.0, 3.0, 0.05, 4000, 0.02);
        let peak = freqs[peak_index(&spec[0])];
        assert!(
            (peak - 3.0).abs() <= 0.3,
            "oscillator at ω=3 peaked at {peak}"
        );
    }

    #[test]
    fn doppler_shift_between_approaching_and_receding() {
        // The Fig. 9(a) physics: same oscillator, drifting towards vs away
        // from the detector; peak frequencies must differ by
        // (1+β)/(1−β) = 1.5 at β = 0.2.
        let freqs: Vec<f64> = (1..=120).map(|i| i as f64 * 0.05).collect();
        let det = single_x_detector(freqs.clone());
        let beta = 0.2;
        let towards = oscillator_spectrum(&det, beta, 2.0, 0.02, 8000, 0.01);
        let away = oscillator_spectrum(&det, -beta, 2.0, 0.02, 8000, 0.01);
        let f_towards = freqs[peak_index(&towards[0])];
        let f_away = freqs[peak_index(&away[0])];
        let expect_towards = 2.0 / (1.0 - beta);
        let expect_away = 2.0 / (1.0 + beta);
        assert!(
            (f_towards - expect_towards).abs() < 0.15,
            "approaching peak {f_towards} vs {expect_towards}"
        );
        assert!(
            (f_away - expect_away).abs() < 0.15,
            "receding peak {f_away} vs {expect_away}"
        );
        let ratio = f_towards / f_away;
        let expect_ratio = (1.0 + beta) / (1.0 - beta);
        assert!(
            (ratio - expect_ratio).abs() < 0.12,
            "Doppler ratio {ratio} vs {expect_ratio}"
        );
    }

    #[test]
    fn intensity_scales_quadratically_with_acceleration() {
        let freqs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.3).collect();
        let det = single_x_detector(freqs);
        let weak = oscillator_spectrum(&det, 0.0, 2.0, 0.01, 2000, 0.02);
        let strong = oscillator_spectrum(&det, 0.0, 2.0, 0.02, 2000, 0.02);
        let sw: f64 = weak[0].iter().sum();
        let ss: f64 = strong[0].iter().sum();
        assert!(
            (ss / sw - 4.0).abs() < 0.3,
            "Larmor scaling |a|²: ratio {}",
            ss / sw
        );
    }

    #[test]
    fn weight_scales_amplitude_coherently() {
        let freqs = vec![1.0, 2.0];
        let det = single_x_detector(freqs);
        let mut a1 = RadiationAccumulator::new(&det);
        let mut a2 = RadiationAccumulator::new(&det);
        let p = |w: f64| ParticleState {
            r: [0.0, 0.0, 0.0],
            beta: [0.0, 0.1, 0.0],
            beta_dot: [0.0, 0.5, 0.0],
            weight: w,
        };
        a1.accumulate(&det, &[p(1.0)], 0.0, 0.1);
        a2.accumulate(&det, &[p(3.0)], 0.0, 0.1);
        let i1: f64 = a1.intensity()[0].iter().sum();
        let i2: f64 = a2.intensity()[0].iter().sum();
        assert!((i2 / i1 - 9.0).abs() < 1e-9, "coherent w² scaling");
    }

    #[test]
    fn merge_superposes_amplitudes() {
        let det = single_x_detector(vec![1.0]);
        let p = ParticleState {
            r: [0.0; 3],
            beta: [0.0, 0.1, 0.0],
            beta_dot: [0.0, 1.0, 0.0],
            weight: 1.0,
        };
        let mut a = RadiationAccumulator::new(&det);
        a.accumulate(&det, &[p], 0.0, 0.1);
        let mut b = a.clone();
        b.merge(&a);
        let ia: f64 = a.intensity()[0].iter().sum();
        let ib: f64 = b.intensity()[0].iter().sum();
        assert!(
            (ib / ia - 4.0).abs() < 1e-9,
            "doubled amplitude → 4× intensity"
        );
    }

    #[test]
    fn perpendicular_observation_sees_unshifted_frequency() {
        // Observe along z while drifting along x: no first-order Doppler.
        let freqs: Vec<f64> = (1..=60).map(|i| i as f64 * 0.1).collect();
        let det = Detector::new(vec![[0.0, 0.0, 1.0]], freqs.clone());
        let mut acc = RadiationAccumulator::new(&det);
        let (omega0, amp, beta_d) = (2.0, 0.02, 0.2);
        for s in 0..8000 {
            let t = s as f64 * 0.01;
            let p = ParticleState {
                r: [beta_d * t, 0.0, 0.0],
                beta: [beta_d, amp * (omega0 * t).cos(), 0.0],
                beta_dot: [0.0, -amp * omega0 * (omega0 * t).sin(), 0.0],
                weight: 1.0,
            };
            acc.accumulate(&det, &[p], t, 0.01);
        }
        let spec = acc.intensity();
        let peak = freqs[peak_index(&spec[0])];
        assert!(
            (peak - omega0).abs() < 0.15,
            "transverse observation shifted: {peak} vs {omega0}"
        );
    }
}
