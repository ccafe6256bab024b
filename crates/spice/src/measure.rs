//! High-level gate measurement: the API characterization and experiments
//! drive.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ssdm_core::{Capacitance, Edge, Time, Transition};
use ssdm_obs::Counter;

use crate::circuit::Circuit;
use crate::error::SpiceError;
use crate::gates::{build, GateKind};
use crate::process::Process;
use crate::transient::{SettleStop, Transient, TransientConfig};
use crate::waveform::{InputWave, Trace};

/// State of one gate input during a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PinState {
    /// Held constant at logic 0 or 1.
    Steady(bool),
    /// Applies a single saturating-ramp transition.
    Switch(Transition),
}

impl PinState {
    fn wave(&self) -> InputWave {
        match *self {
            PinState::Steady(level) => InputWave::Steady(level),
            PinState::Switch(tr) => InputWave::Ramp(tr),
        }
    }

    /// The transition carried, if switching.
    pub fn transition(&self) -> Option<Transition> {
        match *self {
            PinState::Steady(_) => None,
            PinState::Switch(tr) => Some(tr),
        }
    }
}

/// Result of a gate measurement.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Direction of the output response.
    pub out_edge: Edge,
    /// Output arrival time (50 % Vdd crossing).
    pub arrival: Time,
    /// Output 10 %–90 % transition time.
    pub ttime: Time,
    /// Gate delay per the paper's to-controlling convention: output
    /// arrival minus the **earliest** switching-input arrival.
    pub delay: Time,
    /// The simulated output waveform. It ends at the first recorded
    /// sample after the last input ramp where the output is within 1 %
    /// Vdd of its final rail (or at the end of the window if it never
    /// settles), so it holds every 10/50/90 % crossing but not the
    /// settled tail.
    pub trace: Trace,
}

/// Cache key of a DC operating point: the initial input levels and the
/// output load's bit pattern.
type SettleKey = (Vec<bool>, u64);

/// Per-instance memo of DC operating points, plus the simulator's work
/// counters. A clone starts empty, with counters of its own.
#[derive(Debug)]
struct SimCache {
    memo: Mutex<HashMap<SettleKey, Vec<f64>>>,
    transients: Counter,
    rk4_steps: Counter,
    settle_hits: Counter,
    settle_misses: Counter,
}

impl SimCache {
    fn new() -> SimCache {
        SimCache {
            memo: Mutex::new(HashMap::new()),
            transients: ssdm_obs::counter("spice.transients"),
            rk4_steps: ssdm_obs::counter("spice.rk4_steps"),
            settle_hits: ssdm_obs::counter("spice.settle.hit"),
            settle_misses: ssdm_obs::counter("spice.settle.miss"),
        }
    }

    /// The memo. Recovering it from a poisoned lock is sound: every update
    /// is a single insert of a complete state.
    fn memo(&self) -> MutexGuard<'_, HashMap<SettleKey, Vec<f64>>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for SimCache {
    fn clone(&self) -> SimCache {
        SimCache::new()
    }
}

/// The full simulation window `[t0, t1]` for the input `transitions`
/// driving `load`: from 0.5 ns before the first ramp starts to a margin
/// after the last one ends that grows with the slowest ramp and the load.
fn window(transitions: &[Transition], load: Capacitance) -> (Time, Time) {
    let earliest_start = transitions
        .iter()
        .map(|t| t.start())
        .fold(Time::INFINITY, Time::min);
    let latest_end = transitions
        .iter()
        .map(|t| t.end())
        .fold(Time::NEG_INFINITY, Time::max);
    let max_tt = transitions
        .iter()
        .map(|t| t.ttime)
        .fold(Time::ZERO, Time::max);
    let t0 = earliest_start - Time::from_ns(0.5);
    let t1 = latest_end + Time::from_ns(4.0) + max_tt * 2.0 + Time::from_ns(0.03 * load.as_ff());
    (t0, t1)
}

/// A reusable measurement harness for one gate instance.
///
/// The harness remembers the DC operating point of every (initial input
/// levels, load) it has measured, so repeated measurements skip the
/// settle run. The memo is private to the instance: a new harness (or a
/// clone) starts cold, and [`GateSim::with_config`] clears it.
///
/// # Example
///
/// ```
/// use ssdm_core::{Capacitance, Edge, Time, Transition};
/// use ssdm_spice::{GateSim, PinState};
///
/// // Figure 1: simultaneous falling inputs switch a NAND faster than one.
/// let sim = GateSim::nand(2);
/// let t = |a: f64| Transition::new(Edge::Fall, Time::from_ns(a), Time::from_ns(0.4));
/// let load = Capacitance::from_ff(12.0);
/// let single = sim.measure(&[PinState::Switch(t(1.0)), PinState::Steady(true)], load)?;
/// let both = sim.measure(&[PinState::Switch(t(1.0)), PinState::Switch(t(1.0))], load)?;
/// assert!(both.delay < single.delay);
/// # Ok::<(), ssdm_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GateSim {
    kind: GateKind,
    n: usize,
    wn_um: f64,
    wp_um: f64,
    process: Process,
    config: TransientConfig,
    circuit: Circuit,
    cache: SimCache,
}

impl GateSim {
    /// Default NMOS width (µm) for "minimum-size" gates.
    pub const DEFAULT_WN_UM: f64 = 1.5;
    /// Default PMOS width (µm) for "minimum-size" gates.
    pub const DEFAULT_WP_UM: f64 = 3.0;

    /// Creates a harness for an arbitrary gate.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError::BadCircuit`] from the gate template.
    pub fn new(
        kind: GateKind,
        n: usize,
        wn_um: f64,
        wp_um: f64,
        process: Process,
    ) -> Result<GateSim, SpiceError> {
        let circuit = build(kind, n, wn_um, wp_um)?;
        Ok(GateSim {
            kind,
            n,
            wn_um,
            wp_um,
            process,
            config: TransientConfig::default(),
            circuit,
            cache: SimCache::new(),
        })
    }

    /// An `n`-input minimum-size NAND in the default process.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nand(n: usize) -> GateSim {
        GateSim::new(
            GateKind::Nand,
            n,
            Self::DEFAULT_WN_UM,
            Self::DEFAULT_WP_UM,
            Process::p05um(),
        )
        .expect("n >= 1 required")
    }

    /// An `n`-input minimum-size NOR in the default process.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nor(n: usize) -> GateSim {
        GateSim::new(
            GateKind::Nor,
            n,
            Self::DEFAULT_WN_UM,
            Self::DEFAULT_WP_UM,
            Process::p05um(),
        )
        .expect("n >= 1 required")
    }

    /// A minimum-size inverter in the default process.
    pub fn inv() -> GateSim {
        GateSim::new(
            GateKind::Inv,
            1,
            Self::DEFAULT_WN_UM,
            Self::DEFAULT_WP_UM,
            Process::p05um(),
        )
        .expect("inverter is always valid")
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Number of inputs.
    pub fn n_inputs(&self) -> usize {
        self.n
    }

    /// The process in use.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// NMOS width (µm).
    pub fn wn_um(&self) -> f64 {
        self.wn_um
    }

    /// PMOS width (µm).
    pub fn wp_um(&self) -> f64 {
        self.wp_um
    }

    /// Overrides the transient configuration (step size, settle time)
    /// and drops the memoized operating points, which depend on it.
    pub fn with_config(mut self, config: TransientConfig) -> GateSim {
        self.config = config;
        self.cache = SimCache::new();
        self
    }

    /// Input capacitance this gate presents to a driver.
    pub fn input_cap(&self) -> Capacitance {
        Capacitance::from_ff(self.process.input_cap_ff(self.wn_um, self.wp_um))
    }

    /// The paper's standard load: one minimum-size inverter.
    pub fn inverter_load(&self) -> Capacitance {
        Capacitance::from_ff(
            self.process
                .input_cap_ff(Self::DEFAULT_WN_UM, Self::DEFAULT_WP_UM),
        )
    }

    /// Simulates the gate under `pins` driving `load` and measures the
    /// output response.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadStimulus`] — wrong pin count, or a stimulus under
    ///   which the output does not switch;
    /// * [`SpiceError::NoCrossing`] — the output failed to complete the
    ///   expected transition within the simulation window;
    /// * [`SpiceError::Diverged`] — numerical failure.
    pub fn measure(&self, pins: &[PinState], load: Capacitance) -> Result<Measured, SpiceError> {
        if pins.len() != self.n {
            return Err(SpiceError::BadStimulus {
                reason: format!("{} pin states for a {}-input gate", pins.len(), self.n),
            });
        }
        let initial: Vec<bool> = pins.iter().map(|p| p.wave().initial_level()).collect();
        let final_: Vec<bool> = pins.iter().map(|p| p.wave().final_level()).collect();
        let out0 = self.kind.eval(&initial);
        let out1 = self.kind.eval(&final_);
        if out0 == out1 {
            return Err(SpiceError::BadStimulus {
                reason: "output does not switch under this stimulus".into(),
            });
        }
        let out_edge = if out1 { Edge::Rise } else { Edge::Fall };

        let transitions: Vec<Transition> = pins.iter().filter_map(|p| p.transition()).collect();
        debug_assert!(
            !transitions.is_empty(),
            "output switched without input transitions"
        );
        let latest_end = transitions
            .iter()
            .map(|t| t.end())
            .fold(Time::NEG_INFINITY, Time::max);
        let earliest_arrival = transitions
            .iter()
            .map(|t| t.arrival)
            .fold(Time::INFINITY, Time::min);
        let (t0, t1) = window(&transitions, load);

        let waves: Vec<InputWave> = pins.iter().map(|p| p.wave()).collect();
        let transient = Transient::new(
            &self.circuit,
            &self.process,
            waves,
            load.as_ff(),
            self.config,
        )?;
        let (state, settle_steps) = self.settled_state(&transient, initial, load, t0)?;
        let vdd = self.process.vdd.as_volts();
        let stop = SettleStop {
            after: latest_end,
            rail: if out1 { vdd } else { 0.0 },
            tol: 0.01 * vdd,
        };
        let (trace, steps) = transient.integrate(state, t0, t1, Some(stop))?;
        self.cache.transients.incr();
        self.cache.rk4_steps.add((settle_steps + steps) as u64);

        let arrival = trace.last_crossing(0.5 * vdd, out_edge)?;
        let ttime = trace.transition_time(0.1 * vdd, 0.9 * vdd, out_edge)?;
        Ok(Measured {
            out_edge,
            arrival,
            ttime,
            delay: arrival - earliest_arrival,
            trace,
        })
    }

    /// The DC operating point `transient` starts from at `t0`, from the
    /// memo when this harness has settled the same input levels and load
    /// before, and the number of RK4 steps it took to find (0 on a hit).
    ///
    /// The key is exact: `t0` precedes every input ramp, so each input
    /// sits exactly on the rail of its initial level there, and the
    /// settle run sees nothing else of the stimulus.
    fn settled_state(
        &self,
        transient: &Transient<'_>,
        initial: Vec<bool>,
        load: Capacitance,
        t0: Time,
    ) -> Result<(Vec<f64>, usize), SpiceError> {
        let key = (initial, load.as_ff().to_bits());
        if let Some(state) = self.cache.memo().get(&key) {
            self.cache.settle_hits.incr();
            return Ok((state.clone(), 0));
        }
        let state = transient.dc_settle(t0)?;
        self.cache.settle_misses.incr();
        self.cache.memo().insert(key, state.clone());
        Ok((state, transient.settle_steps()))
    }

    /// Pin-to-pin measurement: a single transition on `pin` with all other
    /// inputs steady at the non-controlling value, per the paper's
    /// definition of `d^Z_{X,tr}`.
    ///
    /// # Errors
    ///
    /// As for [`GateSim::measure`], plus [`SpiceError::BadStimulus`] when
    /// `pin` is out of range.
    pub fn pin_to_pin(
        &self,
        pin: usize,
        in_edge: Edge,
        ttime: Time,
        load: Capacitance,
    ) -> Result<Measured, SpiceError> {
        if pin >= self.n {
            return Err(SpiceError::BadStimulus {
                reason: format!("pin {pin} out of range for {}-input gate", self.n),
            });
        }
        let noncontrolling = !self.kind.controlling_value();
        let pins: Vec<PinState> = (0..self.n)
            .map(|i| {
                if i == pin {
                    PinState::Switch(Transition::new(in_edge, Time::from_ns(1.0), ttime))
                } else {
                    PinState::Steady(noncontrolling)
                }
            })
            .collect();
        self.measure(&pins, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn fall(arr: f64, tt: f64) -> PinState {
        PinState::Switch(Transition::new(
            Edge::Fall,
            Time::from_ns(arr),
            Time::from_ns(tt),
        ))
    }

    #[test]
    fn nand2_single_fall_makes_output_rise() {
        let sim = GateSim::nand(2);
        let m = sim
            .measure(
                &[fall(1.0, 0.5), PinState::Steady(true)],
                sim.inverter_load(),
            )
            .unwrap();
        assert_eq!(m.out_edge, Edge::Rise);
        assert!(m.delay > Time::ZERO, "delay = {}", m.delay);
        assert!(m.delay < Time::from_ns(1.0));
        assert!(m.ttime > Time::ZERO);
    }

    #[test]
    fn figure1_simultaneous_switching_is_faster() {
        // The headline phenomenon: two simultaneous falling inputs charge
        // the output through two parallel PMOS devices.
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        let single = sim
            .measure(&[fall(1.0, 0.5), PinState::Steady(true)], load)
            .unwrap();
        let both = sim
            .measure(&[fall(1.0, 0.5), fall(1.0, 0.5)], load)
            .unwrap();
        assert!(
            both.delay < single.delay * 0.8,
            "simultaneous {} vs single {}",
            both.delay,
            single.delay
        );
    }

    #[test]
    fn large_skew_matches_pin_to_pin() {
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        let single = sim
            .measure(&[fall(1.0, 0.5), PinState::Steady(true)], load)
            .unwrap();
        // Y lags by 3 ns: the output has long risen; delay (from earliest
        // arrival, which is X) equals the pin-to-pin delay.
        let skewed = sim
            .measure(&[fall(1.0, 0.5), fall(4.0, 0.5)], load)
            .unwrap();
        let diff = (skewed.delay - single.delay).abs();
        assert!(diff < Time::from_ps(10.0), "diff = {diff}");
    }

    #[test]
    fn position_far_from_output_is_slower() {
        // Section 3.1.2: pin-to-pin delay from the rail end of a NAND5
        // stack is substantially larger than from position 0.
        let sim = GateSim::nand(5);
        let load = sim.inverter_load();
        let near = sim
            .pin_to_pin(0, Edge::Fall, Time::from_ns(0.5), load)
            .unwrap();
        let far = sim
            .pin_to_pin(4, Edge::Fall, Time::from_ns(0.5), load)
            .unwrap();
        assert!(
            far.delay > near.delay * 1.15,
            "far {} vs near {}",
            far.delay,
            near.delay
        );
    }

    #[test]
    fn nor_gate_mirror() {
        let sim = GateSim::nor(2);
        let load = sim.inverter_load();
        let rise = PinState::Switch(Transition::new(
            Edge::Rise,
            Time::from_ns(1.0),
            Time::from_ns(0.5),
        ));
        let m = sim.measure(&[rise, PinState::Steady(false)], load).unwrap();
        assert_eq!(m.out_edge, Edge::Fall);
        assert!(m.delay > Time::ZERO);
    }

    #[test]
    fn rejects_non_switching_stimulus() {
        let sim = GateSim::nand(2);
        // X falls but Y is 0: output stays 1.
        let r = sim.measure(
            &[fall(1.0, 0.5), PinState::Steady(false)],
            sim.inverter_load(),
        );
        assert!(matches!(r, Err(SpiceError::BadStimulus { .. })));
    }

    #[test]
    fn rejects_wrong_pin_count() {
        let sim = GateSim::nand(2);
        let r = sim.measure(&[fall(1.0, 0.5)], sim.inverter_load());
        assert!(matches!(r, Err(SpiceError::BadStimulus { .. })));
    }

    #[test]
    fn rejects_bad_pin_index() {
        let sim = GateSim::nand(2);
        let r = sim.pin_to_pin(5, Edge::Fall, Time::from_ns(0.5), sim.inverter_load());
        assert!(matches!(r, Err(SpiceError::BadStimulus { .. })));
    }

    #[test]
    fn inverter_round_trip() {
        let sim = GateSim::inv();
        let m = sim
            .measure(
                &[PinState::Switch(Transition::new(
                    Edge::Rise,
                    Time::from_ns(1.0),
                    Time::from_ns(0.3),
                ))],
                sim.inverter_load(),
            )
            .unwrap();
        assert_eq!(m.out_edge, Edge::Fall);
        assert!(m.delay > Time::ZERO && m.delay < Time::from_ns(0.5));
    }

    #[test]
    fn input_caps() {
        let sim = GateSim::nand(2);
        assert!(sim.input_cap().as_ff() > 0.0);
        assert_eq!(sim.input_cap(), sim.inverter_load());
        assert_eq!(sim.n_inputs(), 2);
        assert_eq!(sim.kind(), GateKind::Nand);
        assert_eq!(sim.wn_um(), GateSim::DEFAULT_WN_UM);
        assert_eq!(sim.wp_um(), GateSim::DEFAULT_WP_UM);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The full-window reference: a cold [`Transient::run`] over the
    /// window `measure` would use, measured with the same trace queries.
    fn full_window(
        sim: &GateSim,
        pins: &[PinState],
        load: Capacitance,
        out_edge: Edge,
    ) -> Result<(Trace, Time, Time), SpiceError> {
        let transitions: Vec<Transition> = pins.iter().filter_map(|p| p.transition()).collect();
        let (t0, t1) = window(&transitions, load);
        let waves = pins.iter().map(|p| p.wave()).collect();
        let trace = Transient::new(&sim.circuit, &sim.process, waves, load.as_ff(), sim.config)?
            .run(t0, t1)?;
        let vdd = sim.process.vdd.as_volts();
        let arrival = trace.last_crossing(0.5 * vdd, out_edge)?;
        let ttime = trace.transition_time(0.1 * vdd, 0.9 * vdd, out_edge)?;
        Ok((trace, arrival, ttime))
    }

    /// One harness per gate shape, shared by every case so that later
    /// cases hit operating points earlier ones settled.
    fn shared_sims() -> &'static [GateSim; 3] {
        static SIMS: OnceLock<[GateSim; 3]> = OnceLock::new();
        SIMS.get_or_init(|| [GateSim::inv(), GateSim::nand(2), GateSim::nor(3)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn early_stop_and_settle_cache_match_the_full_window(
            gate in 0usize..3,
            rise in 0u8..2,
            mask in 1usize..8,
            skews in prop::collection::vec(-3.5..3.5f64, 3..4),
            tts in prop::collection::vec(0.1..2.0f64, 3..4),
            load_x in 1.0..3.0f64,
        ) {
            let sim = &shared_sims()[gate];
            let n = sim.n_inputs();
            let mask = match mask % (1 << n) {
                0 => 1,
                m => m,
            };
            let edge = if rise == 1 { Edge::Rise } else { Edge::Fall };
            let noncontrolling = !sim.kind().controlling_value();
            let pins: Vec<PinState> = (0..n)
                .map(|p| {
                    if mask & (1 << p) != 0 {
                        PinState::Switch(Transition::new(
                            edge,
                            Time::from_ns(5.0 + skews[p]),
                            Time::from_ns(tts[p]),
                        ))
                    } else {
                        PinState::Steady(noncontrolling)
                    }
                })
                .collect();
            let load = Capacitance::from_ff(sim.inverter_load().as_ff() * load_x);
            // Every gate here inverts.
            let (full, arrival, ttime) =
                full_window(sim, &pins, load, edge.inverted()).expect("full window measures");
            let m = sim.measure(&pins, load).expect("measure succeeds");
            let earliest = pins
                .iter()
                .filter_map(|p| p.transition())
                .map(|t| t.arrival)
                .fold(Time::INFINITY, Time::min);
            prop_assert_eq!(m.arrival.as_ns().to_bits(), arrival.as_ns().to_bits());
            prop_assert_eq!(m.ttime.as_ns().to_bits(), ttime.as_ns().to_bits());
            prop_assert_eq!(m.delay.as_ns().to_bits(), (arrival - earliest).as_ns().to_bits());
            // The early-stopped trace is a prefix of the full one.
            let k = m.trace.len();
            prop_assert!(k <= full.len());
            prop_assert_eq!(bits(m.trace.times_ns()), bits(&full.times_ns()[..k]));
            prop_assert_eq!(bits(m.trace.volts()), bits(&full.volts()[..k]));
        }
    }

    #[test]
    fn settle_cache_hit_returns_fresh_dc_settle_bits() {
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        sim.measure(&[fall(1.0, 0.5), PinState::Steady(true)], load)
            .unwrap();
        assert_eq!(sim.cache.memo().len(), 1);
        assert_eq!(sim.cache.settle_misses.get(), 1);

        // A different stimulus from the same initial levels and load.
        let pins = [fall(3.0, 1.2), fall(2.0, 0.2)];
        let transitions: Vec<Transition> = pins.iter().filter_map(|p| p.transition()).collect();
        let (t0, _) = window(&transitions, load);
        let waves = pins.iter().map(|p| p.wave()).collect();
        let transient =
            Transient::new(&sim.circuit, &sim.process, waves, load.as_ff(), sim.config).unwrap();
        let fresh = transient.dc_settle(t0).unwrap();
        let (cached, steps) = sim
            .settled_state(&transient, vec![true, true], load, t0)
            .unwrap();
        assert_eq!(steps, 0, "expected a cache hit");
        assert_eq!(sim.cache.settle_hits.get(), 1);
        assert_eq!(bits(&cached), bits(&fresh));

        // Another load is another operating point.
        let heavier = Capacitance::from_ff(load.as_ff() * 2.0);
        sim.measure(&[fall(1.0, 0.5), PinState::Steady(true)], heavier)
            .unwrap();
        assert_eq!(sim.cache.memo().len(), 2);

        let sim = sim.with_config(TransientConfig::default());
        assert_eq!(sim.cache.memo().len(), 0);
    }

    #[test]
    fn clones_start_cold() {
        let sim = GateSim::inv();
        sim.pin_to_pin(0, Edge::Rise, Time::from_ns(0.3), sim.inverter_load())
            .unwrap();
        assert_eq!(sim.cache.memo().len(), 1);
        assert_eq!(sim.clone().cache.memo().len(), 0);
    }
}
