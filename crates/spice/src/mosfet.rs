//! Alpha-power-law MOSFET model (Sakurai–Newton).
//!
//! The paper's reference data comes from SPICE LEVEL 3; for this
//! reproduction we substitute the alpha-power law [13 in the paper], which
//! captures short-channel velocity saturation with three parameters and is
//! accurate enough to exhibit every qualitative phenomenon the delay model
//! is fitted to (see the crate docs for the list).
//!
//! Unit system (consistent with `C·dV/dt = I`):
//! volts, nanoseconds, femtofarads and **microamperes** —
//! `1 fF · 1 V / 1 ns = 1 µA`.

use std::fmt;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel: conducts when the gate is high.
    N,
    /// P-channel: conducts when the gate is low.
    P,
}

impl fmt::Display for MosType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosType::N => write!(f, "nmos"),
            MosType::P => write!(f, "pmos"),
        }
    }
}

/// Alpha-power-law parameters for one device polarity.
///
/// Current is computed per micron of gate width:
///
/// * cutoff (`v_gt ≤ 0`): `I = 0`;
/// * saturation (`v_ds ≥ v_dsat`): `I = W · pc · v_gt^α · (1 + λ·v_ds)`;
/// * triode: `I = I_sat · (v_ds / v_dsat) · (2 − v_ds / v_dsat)`, the
///   parabolic interpolation that is continuous (with continuous first
///   derivative in `v_ds`) at `v_dsat = pv · v_gt^{α/2}`.
///
/// where `v_gt = v_gs − v_th` (magnitudes for PMOS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Threshold voltage magnitude (V).
    pub vth: f64,
    /// Velocity-saturation index α (≈ 2 long-channel, ≈ 1.3 at 0.5 µm).
    pub alpha: f64,
    /// Saturation transconductance (µA / µm / V^α).
    pub pc: f64,
    /// Saturation-voltage coefficient (V^(1−α/2)).
    pub pv: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
}

impl MosParams {
    /// Saturation current per micron at gate overdrive `v_gt` (V), before
    /// channel-length modulation.
    #[inline]
    pub fn idsat_per_um(&self, v_gt: f64) -> f64 {
        if v_gt <= 0.0 {
            0.0
        } else {
            self.pc * v_gt.powf(self.alpha)
        }
    }

    /// Saturation drain-source voltage at overdrive `v_gt` (V).
    #[inline]
    pub fn vdsat(&self, v_gt: f64) -> f64 {
        if v_gt <= 0.0 {
            0.0
        } else {
            self.pv * v_gt.powf(self.alpha / 2.0)
        }
    }
}

/// One transistor's memo of its last saturation point: the `v_gt` bits it
/// was computed at and `(idsat, vdsat)` there, plus how often it was
/// computed and reused.
///
/// Reuse is exact: `idsat` and `vdsat` are deterministic functions of the
/// `v_gt` bits (`powf` included), so a key match returns the very bits a
/// fresh computation would. An empty entry holds the bits of `+0.0`, which
/// never reaches the lookup (the cutoff test `v_gt <= 0` returns first),
/// so it matches no overdrive that is looked up, NaN payloads included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceMemo {
    v_gt: u64,
    idsat: f64,
    vdsat: f64,
    /// Saturation points computed into this entry.
    pub computed: u64,
    /// Conducting evaluations answered from this entry.
    pub reused: u64,
}

impl DeviceMemo {
    /// An entry that holds nothing yet.
    pub const EMPTY: DeviceMemo = DeviceMemo {
        v_gt: 0,
        idsat: 0.0,
        vdsat: 0.0,
        computed: 0,
        reused: 0,
    };
}

/// A sized transistor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Polarity.
    pub mtype: MosType,
    /// Gate width in microns.
    pub width_um: f64,
}

impl Mosfet {
    /// Creates a transistor.
    ///
    /// # Panics
    ///
    /// Panics if `width_um` is not strictly positive and finite.
    pub fn new(mtype: MosType, width_um: f64) -> Mosfet {
        assert!(
            width_um.is_finite() && width_um > 0.0,
            "mosfet width must be positive, got {width_um}"
        );
        Mosfet { mtype, width_um }
    }

    /// Channel current in µA flowing **from terminal `d` to terminal `s`**,
    /// given gate voltage `vg` and terminal voltages `vd`, `vs` (V).
    ///
    /// The channel is symmetric: if the nominal drain is at the lower
    /// (NMOS) / higher (PMOS) potential the roles swap and the sign flips,
    /// so the same function serves every transistor in a series stack
    /// regardless of orientation.
    pub fn current(&self, params: &MosParams, vg: f64, vd: f64, vs: f64) -> f64 {
        let mut fresh = DeviceMemo::EMPTY;
        self.current_memo(params, vg, vd, vs, &mut fresh)
    }

    /// [`Mosfet::current`] through this device's `memo`, which it reads
    /// and refreshes. The result is bit-identical to [`Mosfet::current`].
    pub fn current_memo(
        &self,
        params: &MosParams,
        vg: f64,
        vd: f64,
        vs: f64,
        memo: &mut DeviceMemo,
    ) -> f64 {
        match self.mtype {
            MosType::N => {
                if vd >= vs {
                    self.channel(params, vg - vs, vd - vs, memo)
                } else {
                    -self.channel(params, vg - vd, vs - vd, memo)
                }
            }
            MosType::P => {
                // Mirror: a PMOS with source at the higher potential.
                if vd <= vs {
                    -self.channel(params, vs - vg, vs - vd, memo)
                } else {
                    self.channel(params, vd - vg, vd - vs, memo)
                }
            }
        }
    }

    /// Magnitude of channel current for effective overdrive geometry:
    /// `v_gs` is gate-to-source, `v_ds ≥ 0` drain-to-source.
    fn channel(&self, params: &MosParams, v_gs: f64, v_ds: f64, memo: &mut DeviceMemo) -> f64 {
        debug_assert!(v_ds >= 0.0);
        let v_gt = v_gs - params.vth;
        if v_gt <= 0.0 {
            return 0.0;
        }
        if memo.v_gt == v_gt.to_bits() {
            memo.reused += 1;
        } else {
            memo.v_gt = v_gt.to_bits();
            memo.idsat = self.width_um * params.idsat_per_um(v_gt);
            memo.vdsat = params.vdsat(v_gt);
            memo.computed += 1;
        }
        let (idsat, vdsat) = (memo.idsat, memo.vdsat);
        if v_ds >= vdsat {
            idsat * (1.0 + params.lambda * v_ds)
        } else {
            let x = v_ds / vdsat;
            idsat * x * (2.0 - x) * (1.0 + params.lambda * v_ds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nparams() -> MosParams {
        MosParams {
            vth: 0.75,
            alpha: 1.3,
            pc: 118.0,
            pv: 0.8,
            lambda: 0.02,
        }
    }

    #[test]
    fn cutoff_conducts_nothing() {
        let m = Mosfet::new(MosType::N, 1.0);
        let p = nparams();
        assert_eq!(m.current(&p, 0.0, 3.3, 0.0), 0.0);
        assert_eq!(m.current(&p, 0.74, 3.3, 0.0), 0.0);
    }

    #[test]
    fn saturation_current_scales_with_width() {
        let p = nparams();
        let m1 = Mosfet::new(MosType::N, 1.0);
        let m3 = Mosfet::new(MosType::N, 3.0);
        let i1 = m1.current(&p, 3.3, 3.3, 0.0);
        let i3 = m3.current(&p, 3.3, 3.3, 0.0);
        assert!(i1 > 0.0);
        assert!((i3 / i1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_magnitude_is_realistic() {
        // ~0.5 µm NMOS at full overdrive: a few hundred µA/µm.
        let p = nparams();
        let m = Mosfet::new(MosType::N, 1.0);
        let i = m.current(&p, 3.3, 3.3, 0.0);
        assert!(i > 200.0 && i < 800.0, "idsat/µm = {i}");
    }

    #[test]
    fn triode_is_continuous_at_vdsat() {
        let p = nparams();
        let m = Mosfet::new(MosType::N, 2.0);
        let v_gt: f64 = 3.3 - p.vth;
        let vdsat = p.pv * v_gt.powf(p.alpha / 2.0);
        let below = m.current(&p, 3.3, vdsat - 1e-9, 0.0);
        let above = m.current(&p, 3.3, vdsat + 1e-9, 0.0);
        assert!((below - above).abs() < 1e-3, "{below} vs {above}");
    }

    #[test]
    fn triode_current_increases_with_vds() {
        let p = nparams();
        let m = Mosfet::new(MosType::N, 1.0);
        let mut last = 0.0;
        for i in 1..=10 {
            let vds = 0.05 * i as f64;
            let cur = m.current(&p, 3.3, vds, 0.0);
            assert!(cur > last, "vds={vds}: {cur} <= {last}");
            last = cur;
        }
    }

    #[test]
    fn reverse_conduction_is_antisymmetric() {
        let p = nparams();
        let m = Mosfet::new(MosType::N, 1.0);
        // Same |vds| seen from either side with the gate far above both
        // terminals: currents are equal and opposite.
        let fwd = m.current(&p, 3.3, 0.4, 0.1);
        let rev = m.current(&p, 3.3, 0.1, 0.4);
        assert!(fwd > 0.0);
        assert!((fwd + rev).abs() < 1e-9);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = MosParams {
            vth: 0.8,
            ..nparams()
        };
        let m = Mosfet::new(MosType::P, 2.0);
        // Gate at 0, source at vdd, drain low: strong conduction, current
        // flows source→drain, i.e. negative from drain to source... the
        // convention: current(d, s) from d to s; here d=0.3V, s=3.3V, so
        // current should flow from s to d → negative.
        let i = m.current(&p, 0.0, 0.3, 3.3);
        assert!(i < 0.0, "pmos pull-up current from drain to source = {i}");
        // Gate at vdd: off.
        assert_eq!(m.current(&p, 3.3, 0.3, 3.3), 0.0);
    }

    #[test]
    fn vdsat_monotone_in_overdrive() {
        let p = nparams();
        assert!(p.vdsat(1.0) < p.vdsat(2.0));
        assert_eq!(p.vdsat(-1.0), 0.0);
        assert_eq!(p.idsat_per_um(-0.5), 0.0);
    }

    /// Gate voltages that, with a zero threshold and a terminal at 0 V,
    /// put the overdrive exactly on ±0, subnormals, NaN and ±inf, plus
    /// ordinary values.
    const GATE: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        -1e-310,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.75,
        1.2,
        -1.2,
        3.3,
        -3.3,
    ];

    /// Terminal voltages: finite (the channel needs `v_ds ≥ 0`), with
    /// signed zeros and subnormals.
    const TERMINAL: [f64; 8] = [0.0, -0.0, 5e-324, 1e-310, 0.3, 1.2, 3.0, 3.3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-device memos answer every call of a random sequence with
        /// the bits `Mosfet::current` computes afresh: two devices of
        /// different width and polarity, both orientations, repeated
        /// overdrives, and overdrives of exactly ±0, subnormal, NaN and
        /// ±inf (a zero threshold passes the gate voltage through).
        #[test]
        fn memoized_channel_matches_fresh_current(
            polarity in 0u8..4,
            zero_vth in 0u8..2,
            calls in prop::collection::vec(0u64..u64::MAX, 1..64),
            fresh_vg in prop::collection::vec(0.0..3.3f64, 64..65),
        ) {
            let params = MosParams {
                vth: if zero_vth == 1 { 0.0 } else { 0.75 },
                ..nparams()
            };
            let mtype = |bit: u8| if polarity & bit == 0 { MosType::N } else { MosType::P };
            let devices = [Mosfet::new(mtype(1), 1.0), Mosfet::new(mtype(2), 2.5)];
            let mut memos = [DeviceMemo::EMPTY; 2];
            for (call, v) in calls.into_iter().zip(fresh_vg) {
                // Each call draws a device, pooled voltages (which
                // repeat) and sometimes a fresh gate voltage; terminals
                // in either order give both orientations.
                let field = |shift: u32, n: usize| (call >> shift) as usize % n;
                let d = field(0, 2);
                let vg = if field(1, 4) == 0 { v } else { GATE[field(8, GATE.len())] };
                let (vd, vs) = (TERMINAL[field(16, TERMINAL.len())], TERMINAL[field(24, TERMINAL.len())]);
                let memoized = devices[d].current_memo(&params, vg, vd, vs, &mut memos[d]);
                let fresh = devices[d].current(&params, vg, vd, vs);
                prop_assert_eq!(
                    memoized.to_bits(),
                    fresh.to_bits(),
                    "device {} vg {:e} vd {:e} vs {:e}: {} vs {}",
                    d, vg, vd, vs, memoized, fresh
                );
            }
        }
    }

    #[test]
    fn empty_memo_matches_no_nan() {
        let params = MosParams {
            vth: 0.0,
            ..nparams()
        };
        let m = Mosfet::new(MosType::N, 1.0);
        for bits in [
            0x7ff8_0000_0000_0000u64,
            0x7ff0_0000_0000_0001,
            0xfff8_0000_0000_0000,
        ] {
            let mut memo = DeviceMemo::EMPTY;
            let i = m.current_memo(&params, f64::from_bits(bits), 1.0, 0.0, &mut memo);
            assert!(i.is_nan(), "NaN overdrive {bits:#x} gave {i}");
            assert_eq!((memo.computed, memo.reused), (1, 0));
        }
    }

    #[test]
    fn memo_counts_computed_and_reused_points() {
        let p = nparams();
        let m = Mosfet::new(MosType::N, 1.0);
        let mut memo = DeviceMemo::EMPTY;
        for (vg, vd) in [(3.3, 3.3), (3.3, 0.2), (2.0, 0.2), (0.0, 1.0), (2.0, 1.0)] {
            m.current_memo(&p, vg, vd, 0.0, &mut memo);
        }
        // Cutoff (vg = 0) neither computes nor reuses.
        assert_eq!((memo.computed, memo.reused), (2, 2));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_non_positive_width() {
        let _ = Mosfet::new(MosType::N, 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(MosType::N.to_string(), "nmos");
        assert_eq!(MosType::P.to_string(), "pmos");
    }
}
