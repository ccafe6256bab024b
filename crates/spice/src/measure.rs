//! High-level gate measurement: the API characterization and experiments
//! drive.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ssdm_core::{Capacitance, Edge, Time, Transition};
use ssdm_obs::Counter;

use crate::circuit::Circuit;
use crate::error::SpiceError;
use crate::gates::{build, GateKind};
use crate::process::Process;
use crate::transient::{Channels, Run, SettleStop, Trajectory, Transient, TransientConfig};
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

/// Key of a memoized trajectory prefix (DESIGN.md §10).
///
/// A **quiet** prefix ends before the first ramp starts; it depends only
/// on the operating point it starts from. A **lead** prefix ends before
/// the second distinct ramp start; it also depends on `t0`'s bits and on
/// the ramps that start first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrefixKey {
    settle: SettleKey,
    /// `t0`'s bits; `None` for a quiet prefix.
    t0: Option<u64>,
    /// The ramps that start first as `(pin, arrival bits, ttime bits)`
    /// (their edges follow from the initial levels); empty for a quiet
    /// prefix.
    leading: Vec<(usize, u64, u64)>,
}

/// Most `f64`s of trajectory one harness keeps: 2 MiB, room for about 80
/// prefixes of 2000 steps on a four-input gate, more than one
/// characterization unit stores. A prefix that would not fit drops all
/// the others.
const PREFIX_BUDGET: usize = 1 << 18;

/// Most lead keys remembered as measured once; the set is cleared when it
/// fills up.
const SEEN_CAP: usize = 1 << 12;

/// A memoized prefix.
#[derive(Debug)]
struct Prefix {
    steps: Arc<Trajectory>,
    /// The step bound it was recorded under. Every run under the same key
    /// that may replay further than this records a longer prefix.
    bound: usize,
}

/// The bounded memo of trajectory prefixes.
#[derive(Debug, Default)]
struct Prefixes {
    map: HashMap<PrefixKey, Prefix>,
    /// `f64`s held in `map`; at most [`PREFIX_BUDGET`].
    held: usize,
    /// Hashes of lead keys measured once. A lead prefix is stored on its
    /// key's second sighting only: most skew probes are never repeated.
    seen: HashSet<u64>,
}

impl Prefixes {
    /// The prefix under `key` and the bound it was recorded under.
    fn get(&self, key: &PrefixKey) -> Option<(Arc<Trajectory>, usize)> {
        let p = self.map.get(key)?;
        Some((Arc::clone(&p.steps), p.bound))
    }

    /// Whether `key` was sighted before; remembers it either way.
    fn sighted(&mut self, key: &PrefixKey) -> bool {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        if self.seen.len() >= SEEN_CAP {
            self.seen.clear();
        }
        !self.seen.insert(h.finish())
    }

    /// Stores `steps` (recorded under `bound`) for `key` unless a prefix
    /// recorded under a bound at least as large is already there, first
    /// dropping every prefix if it would not fit in the budget.
    fn insert(&mut self, key: PrefixKey, steps: Trajectory, bound: usize) {
        let size = steps.size();
        if size > PREFIX_BUDGET || self.map.get(&key).is_some_and(|p| p.bound >= bound) {
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.held -= old.steps.size();
        }
        if self.held + size > PREFIX_BUDGET {
            self.map.clear();
            self.held = 0;
        }
        self.held += size;
        self.map.insert(
            key,
            Prefix {
                steps: Arc::new(steps),
                bound,
            },
        );
    }
}

/// What a run replays and what it records for later runs.
struct PrefixPlan {
    replay: Option<Arc<Trajectory>>,
    /// Steps to replay from `replay`.
    reuse: usize,
    /// Prefixes to store after the run, with the step bound of each.
    store: Vec<(PrefixKey, usize)>,
}

/// Per-instance memo of DC operating points and trajectory prefixes, plus
/// the simulator's work counters. A clone starts empty, with counters of
/// its own.
#[derive(Debug)]
struct SimCache {
    memo: Mutex<HashMap<SettleKey, Vec<f64>>>,
    prefixes: Mutex<Prefixes>,
    transients: Counter,
    rk4_steps: Counter,
    rk4_shared: Counter,
    settle_hits: Counter,
    settle_misses: Counter,
    channel_computed: Counter,
    channel_reused: Counter,
}

impl SimCache {
    fn new() -> SimCache {
        SimCache {
            memo: Mutex::new(HashMap::new()),
            prefixes: Mutex::new(Prefixes::default()),
            transients: ssdm_obs::counter("spice.transients"),
            rk4_steps: ssdm_obs::counter("spice.rk4_steps"),
            rk4_shared: ssdm_obs::counter("spice.rk4_steps.shared"),
            settle_hits: ssdm_obs::counter("spice.settle.hit"),
            settle_misses: ssdm_obs::counter("spice.settle.miss"),
            channel_computed: ssdm_obs::counter("spice.channel.computed"),
            channel_reused: ssdm_obs::counter("spice.channel.reused"),
        }
    }

    /// The memo. Recovering it from a poisoned lock is sound: every update
    /// is a single insert of a complete state.
    fn memo(&self) -> MutexGuard<'_, HashMap<SettleKey, Vec<f64>>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The prefix memo. Recovering it from a poisoned lock is sound: no
    /// update panics between changing `map` and `held`.
    fn prefixes(&self) -> MutexGuard<'_, Prefixes> {
        self.prefixes.lock().unwrap_or_else(PoisonError::into_inner)
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
/// settle run, and a bounded set of trajectory prefixes, so a run that
/// begins exactly like an earlier one replays those steps instead of
/// integrating them. The memos are private to the instance: a new harness
/// (or a clone) starts cold, and [`GateSim::with_config`] clears them.
///
/// # Example
///
/// ```
/// use ssdm_core::{Capacitance, Edge, Time, Transition};
/// use ssdm_spice::GateSim;
///
/// // Figure 1: simultaneous falling inputs switch a NAND faster than one.
/// let sim = GateSim::nand(2);
/// let t = Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.4));
/// let load = Capacitance::from_ff(12.0);
/// let single = sim.measure_switching(&[(0, t)], load)?;
/// let both = sim.measure_switching(&[(0, t), (1, t)], load)?;
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
    /// and drops the memoized operating points and prefixes, which depend
    /// on it.
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
        let settle_key = (initial, load.as_ff().to_bits());
        let (state, settle_steps, settle_channels) =
            self.settled_state(&transient, settle_key.clone(), t0)?;
        let vdd = self.process.vdd.as_volts();
        let stop = SettleStop {
            after: latest_end,
            rail: if out1 { vdd } else { 0.0 },
            tol: 0.01 * vdd,
        };
        let plan = self.prefix_plan(&transient, pins, settle_key, t0);
        let replay = plan.replay.as_deref().map(|p| (p, plan.reuse));
        let keep = plan
            .store
            .iter()
            .map(|&(_, bound)| bound)
            .max()
            .unwrap_or(0);
        let n_state = state.len();
        let Run {
            trace,
            steps,
            replayed,
            kept,
            channels,
        } = transient.integrate(state, t0, t1, Some(stop), replay, keep)?;
        if !plan.store.is_empty() {
            let mut memo = self.cache.prefixes();
            for (key, bound) in plan.store {
                memo.insert(key, kept.prefix(bound, n_state), bound);
            }
        }
        self.cache.transients.incr();
        self.cache
            .rk4_steps
            .add((settle_steps + steps - replayed) as u64);
        self.cache.rk4_shared.add(replayed as u64);
        self.cache
            .channel_computed
            .add(settle_channels.computed + channels.computed);
        self.cache
            .channel_reused
            .add(settle_channels.reused + channels.reused);

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
    /// before, and the number of RK4 steps and channel evaluations it took
    /// to find (none on a hit).
    ///
    /// The key is exact: `t0` precedes every input ramp, so each input
    /// sits exactly on the rail of its initial level there, and the
    /// settle run sees nothing else of the stimulus.
    fn settled_state(
        &self,
        transient: &Transient<'_>,
        key: SettleKey,
        t0: Time,
    ) -> Result<(Vec<f64>, usize, Channels), SpiceError> {
        if let Some(state) = self.cache.memo().get(&key) {
            self.cache.settle_hits.incr();
            return Ok((state.clone(), 0, Channels::default()));
        }
        let (state, channels) = transient.dc_settle(t0)?;
        self.cache.settle_misses.incr();
        self.cache.memo().insert(key, state.clone());
        Ok((state, transient.settle_steps(), channels))
    }

    /// Which memoized prefix the run of `transient` under `pins` from the
    /// operating point `settle` at `t0` replays, and which prefixes it
    /// records.
    ///
    /// Both keys are exact (DESIGN.md §10). Up to the first ramp start the
    /// inputs sit on their initial rails with zero slope, and `integrate`
    /// derives each step's time from its index, so the quiet prefix is the
    /// same for every `t0`. Up to the second distinct ramp start the run
    /// also sees the ramps that start first, at times fixed by `t0`.
    fn prefix_plan(
        &self,
        transient: &Transient<'_>,
        pins: &[PinState],
        settle: SettleKey,
        t0: Time,
    ) -> PrefixPlan {
        let ramps: Vec<(usize, Transition)> = pins
            .iter()
            .enumerate()
            .filter_map(|(p, pin)| pin.transition().map(|tr| (p, tr)))
            .collect();
        let first = ramps
            .iter()
            .map(|(_, tr)| tr.start())
            .fold(Time::INFINITY, Time::min);
        let second = ramps
            .iter()
            .map(|(_, tr)| tr.start())
            .filter(|&s| s > first)
            .fold(Time::INFINITY, Time::min);
        let leading = ramps
            .iter()
            .filter(|(_, tr)| tr.start() == first)
            .map(|&(p, tr)| (p, tr.arrival.as_ns().to_bits(), tr.ttime.as_ns().to_bits()))
            .collect();
        let quiet = PrefixKey {
            settle: settle.clone(),
            t0: None,
            leading: Vec::new(),
        };
        let lead = PrefixKey {
            settle,
            t0: Some(t0.as_ns().to_bits()),
            leading,
        };
        let quiet_bound = transient.steps_before(t0, first);
        // With every ramp starting together the lead prefix is the whole
        // run: only an identical stimulus shares it.
        let lead_bound = if second.is_finite() {
            transient.steps_before(t0, second)
        } else {
            usize::MAX
        };

        let mut memo = self.cache.prefixes();
        let mut plan = PrefixPlan {
            replay: None,
            reuse: 0,
            store: Vec::new(),
        };
        let mut recorded = [0; 2];
        for (i, (key, bound)) in [(&quiet, quiet_bound), (&lead, lead_bound)]
            .into_iter()
            .enumerate()
        {
            if let Some((steps, rec)) = memo.get(key) {
                recorded[i] = rec;
                let reuse = steps.replayable(bound);
                if reuse > plan.reuse {
                    plan.replay = Some(steps);
                    plan.reuse = reuse;
                }
            }
        }
        if recorded[0] < quiet_bound {
            plan.store.push((quiet, quiet_bound));
        }
        if memo.sighted(&lead) && recorded[1] < lead_bound {
            plan.store.push((lead, lead_bound));
        }
        plan
    }

    /// Measures the gate with the listed `(pin, transition)` inputs
    /// switching and every other input held at the non-controlling level:
    /// the stimulus behind every pin-to-pin, pair and k-way measurement of
    /// the paper's Section 3.
    ///
    /// # Errors
    ///
    /// As for [`GateSim::measure`], plus [`SpiceError::BadStimulus`] when a
    /// pin is out of range or listed twice.
    pub fn measure_switching(
        &self,
        switching: &[(usize, Transition)],
        load: Capacitance,
    ) -> Result<Measured, SpiceError> {
        let mut pins = vec![PinState::Steady(!self.kind.controlling_value()); self.n];
        for &(pin, tr) in switching {
            let reason = match pins.get_mut(pin) {
                Some(p @ PinState::Steady(_)) => {
                    *p = PinState::Switch(tr);
                    continue;
                }
                Some(PinState::Switch(_)) => format!("pin {pin} switches twice"),
                None => format!("pin {pin} out of range for {}-input gate", self.n),
            };
            return Err(SpiceError::BadStimulus { reason });
        }
        self.measure(&pins, load)
    }

    /// Pin-to-pin measurement: a single transition on `pin` at 1 ns with
    /// all other inputs steady at the non-controlling value, per the
    /// paper's definition of `d^Z_{X,tr}`.
    ///
    /// # Errors
    ///
    /// As for [`GateSim::measure_switching`].
    pub fn pin_to_pin(
        &self,
        pin: usize,
        in_edge: Edge,
        ttime: Time,
        load: Capacitance,
    ) -> Result<Measured, SpiceError> {
        let tr = Transition::new(in_edge, Time::from_ns(1.0), ttime);
        self.measure_switching(&[(pin, tr)], load)
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
    fn measure_switching_holds_the_other_pins_non_controlling() {
        let sim = GateSim::nor(3);
        let load = sim.inverter_load();
        let rise = |a: f64| Transition::new(Edge::Rise, Time::from_ns(a), Time::from_ns(0.4));
        let m = sim.measure_switching(&[(2, rise(1.0)), (0, rise(1.2))], load);
        let [a, b] = [rise(1.2), rise(1.0)].map(PinState::Switch);
        let want = fresh(&sim).measure(&[a, PinState::Steady(false), b], load);
        assert_eq!(
            m.unwrap().arrival.as_ns().to_bits(),
            want.unwrap().arrival.as_ns().to_bits()
        );
        let twice = sim.measure_switching(&[(1, rise(1.0)), (1, rise(1.5))], load);
        assert!(matches!(twice, Err(SpiceError::BadStimulus { .. })));
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
        let (fresh, _) = transient.dc_settle(t0).unwrap();
        let (cached, steps, _) = sim
            .settled_state(&transient, (vec![true, true], load.as_ff().to_bits()), t0)
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

    /// A fresh harness like `sim`: no memoized settles or prefixes.
    fn fresh(sim: &GateSim) -> GateSim {
        GateSim::new(sim.kind, sim.n, sim.wn_um, sim.wp_um, sim.process.clone()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Probes that share `t0` (a leading ramp on one of two pins always
        /// starts at exactly 1.5 ns, with one of two arrivals and
        /// transition times), with mixed skews, transition times and loads
        /// and some exact repeats, measured in random order through one
        /// harness: every result equals a fresh harness's and the full
        /// window's bit for bit, however much of it was replayed.
        #[test]
        fn replayed_prefixes_match_fresh_runs_and_the_full_window(
            gate in 0usize..3,
            rise in 0u8..2,
            alt_lead in 0usize..2,
            loads in prop::collection::vec(1.0..3.0f64, 2..3),
            picks in prop::collection::vec(0usize..4, 8..9),
            masks in prop::collection::vec(0usize..8, 8..9),
            skews in prop::collection::vec(-2.0..3.5f64, 24..25),
            snap in prop::collection::vec(0usize..2, 24..25),
            tts in prop::collection::vec(0.1..2.0f64, 24..25),
            order in prop::collection::vec(0u64..1 << 32, 12..13),
        ) {
            // (arrival, ttime) pairs whose ramps all start at exactly 1.5 ns,
            // so `t0` is 1 ns whichever leads.
            const LEADS: [(f64, f64); 3] = [(2.0, 0.8), (1.75, 0.4), (2.5, 1.6)];
            let dt = TransientConfig::default().dt.as_ns();
            let sim = match gate {
                0 => GateSim::inv(),
                1 => GateSim::nand(2),
                _ => GateSim::nor(3),
            };
            let n = sim.n_inputs();
            let edge = if rise == 1 { Edge::Rise } else { Edge::Fall };
            let noncontrolling = !sim.kind().controlling_value();
            let probe = |k: usize| -> (Vec<PinState>, Capacitance) {
                // Pin 0 or the last pin leads.
                let (leader, lead) = match picks[k] & 1 {
                    0 => (0, LEADS[0]),
                    _ => (n - 1, LEADS[1 + alt_lead]),
                };
                let pins = (0..n)
                    .map(|p| {
                        let i = 3 * k + p;
                        let (at, tt) = if p == leader {
                            lead
                        } else if masks[k] & (1 << p) != 0 {
                            // Half the later ramps start half a step into
                            // the last step before a replay checkpoint:
                            // the latest start a replay must stop short of.
                            let at = if snap[i] == 1 && skews[i] > 0.0 {
                                let j = 32 + (skews[i] / (8.0 * dt)) as usize;
                                1.0 + (8 * j) as f64 * dt + 7.5 * dt + tts[i] / 1.6
                            } else {
                                2.0 + skews[i]
                            };
                            (at, tts[i])
                        } else {
                            return PinState::Steady(noncontrolling);
                        };
                        PinState::Switch(Transition::new(edge, Time::from_ns(at), Time::from_ns(tt)))
                    })
                    .collect();
                let load = sim.inverter_load().as_ff() * loads[picks[k] >> 1];
                (pins, Capacitance::from_ff(load))
            };
            // Eight probes and four exact repeats, in random order.
            let mut keyed: Vec<(u64, usize)> = order.iter().copied().zip((0..12).map(|i| i % 8)).collect();
            keyed.sort_unstable();
            for (_, k) in keyed {
                let (pins, load) = probe(k);
                let m = sim.measure(&pins, load).expect("measure succeeds");
                let f = fresh(&sim).measure(&pins, load).expect("fresh measure succeeds");
                let (full, arrival, ttime) =
                    full_window(&sim, &pins, load, edge.inverted()).expect("full window measures");
                let earliest = pins
                    .iter()
                    .filter_map(|p| p.transition())
                    .map(|t| t.arrival)
                    .fold(Time::INFINITY, Time::min);
                for (a, t, d) in [(f.arrival, f.ttime, f.delay), (arrival, ttime, arrival - earliest)] {
                    prop_assert_eq!(m.arrival.as_ns().to_bits(), a.as_ns().to_bits());
                    prop_assert_eq!(m.ttime.as_ns().to_bits(), t.as_ns().to_bits());
                    prop_assert_eq!(m.delay.as_ns().to_bits(), d.as_ns().to_bits());
                }
                prop_assert_eq!(bits(m.trace.times_ns()), bits(f.trace.times_ns()));
                prop_assert_eq!(bits(m.trace.volts()), bits(f.trace.volts()));
                let k = m.trace.len();
                prop_assert!(k <= full.len());
                prop_assert_eq!(bits(m.trace.times_ns()), bits(&full.times_ns()[..k]));
                prop_assert_eq!(bits(m.trace.volts()), bits(&full.volts()[..k]));
            }
            prop_assert!(sim.cache.rk4_shared.get() > 0, "nothing was replayed");
        }
    }

    /// Computed plus replayed steps: a fixed probe sequence through one
    /// harness takes exactly as many integration steps as the same probes
    /// on fresh harnesses, which replay nothing.
    #[test]
    fn replayed_and_computed_steps_add_up_to_the_steps_without_replay() {
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        let settle_steps = |s: &GateSim| s.cache.settle_misses.get() * 1000;
        let mut without_replay = 0;
        for skew in [0.0, 0.0, 1.75, 0.9, 2.6, -0.4, 3.5, 1.75] {
            let pins = [fall(2.0, 0.7), fall(2.0 + skew, 0.3)];
            sim.measure(&pins, load).unwrap();
            let f = fresh(&sim);
            f.measure(&pins, load).unwrap();
            assert_eq!(f.cache.rk4_shared.get(), 0);
            without_replay += f.cache.rk4_steps.get() - settle_steps(&f);
        }
        let shared = sim.cache.rk4_shared.get();
        assert!(shared > 0, "nothing was replayed");
        assert_eq!(
            sim.cache.rk4_steps.get() - settle_steps(&sim) + shared,
            without_replay
        );
    }

    /// The hardest spot for replay: the second ramp starts half a step
    /// into the last step before a checkpoint, so the exact bound is one
    /// step short of the checkpoint and replay must stop one checkpoint
    /// earlier.
    #[test]
    fn replay_stops_short_of_a_ramp_starting_just_before_a_checkpoint() {
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        let dt = sim.config.dt.as_ns();
        // X starts at 1.5 ns, so t0 = 1 ns; Y starts at t0 + (8j + 7.5)·dt.
        let probe = |j: usize| {
            let y_start = 1.0 + (8 * j) as f64 * dt + 7.5 * dt;
            [fall(2.0, 0.8), fall(y_start + 0.3 / 1.6, 0.3)]
        };
        // Twice, so the X-only lead prefix up to Y's far start is stored.
        for _ in 0..2 {
            sim.measure(&probe(400), load).unwrap();
        }
        let pins = probe(200);
        let before = sim.cache.rk4_shared.get();
        let m = sim.measure(&pins, load).unwrap();
        assert_eq!(sim.cache.rk4_shared.get() - before, 8 * 200, "replayed");
        let f = fresh(&sim).measure(&pins, load).unwrap();
        assert_eq!(bits(m.trace.volts()), bits(f.trace.volts()));
        assert_eq!(m.arrival.as_ns().to_bits(), f.arrival.as_ns().to_bits());
        assert_eq!(m.ttime.as_ns().to_bits(), f.ttime.as_ns().to_bits());
    }

    #[test]
    fn clones_and_new_configs_start_with_no_prefixes() {
        let sim = GateSim::nand(2);
        let load = sim.inverter_load();
        for _ in 0..2 {
            sim.measure(&[fall(2.0, 0.7), fall(3.0, 0.3)], load)
                .unwrap();
        }
        assert_eq!(sim.cache.prefixes().map.len(), 2, "quiet and lead");
        assert!(sim.cache.rk4_shared.get() > 0);
        let clone = sim.clone();
        assert!(clone.cache.prefixes().map.is_empty());
        assert_eq!(clone.cache.prefixes().held, 0);
        assert_eq!(clone.cache.rk4_shared.get(), 0);
        let sim = sim.with_config(TransientConfig::default());
        assert!(sim.cache.prefixes().map.is_empty());
        assert!(sim.cache.prefixes().seen.is_empty());
    }

    #[test]
    fn distinct_keys_stay_inside_the_memory_bound() {
        let mut memo = Prefixes::default();
        let steps = 2000;
        let trajectory = Trajectory {
            out: vec![0.5; steps],
            marks: vec![0.5; steps / crate::transient::CHECKPOINT * 4],
        };
        for i in 0..1000u64 {
            let key = PrefixKey {
                settle: (vec![true, false], i),
                t0: Some(i),
                leading: vec![(0, i, i)],
            };
            memo.sighted(&key);
            memo.insert(key, trajectory.clone(), steps);
            assert!(memo.held <= PREFIX_BUDGET);
            assert!(memo.seen.len() <= SEEN_CAP);
            assert_eq!(
                memo.held,
                memo.map.values().map(|p| p.steps.size()).sum::<usize>()
            );
        }
        // The newest prefix is always kept.
        let newest = PrefixKey {
            settle: (vec![true, false], 999),
            t0: Some(999),
            leading: vec![(0, 999, 999)],
        };
        assert!(memo.get(&newest).is_some());
        // A prefix larger than the whole budget is never stored.
        let huge = Trajectory {
            out: vec![0.5; PREFIX_BUDGET + 1],
            marks: Vec::new(),
        };
        memo.insert(newest.clone(), huge, usize::MAX);
        assert!(memo.held <= PREFIX_BUDGET);
        for i in 0..2 * SEEN_CAP as u64 {
            memo.sighted(&PrefixKey {
                settle: (vec![false], i),
                t0: None,
                leading: Vec::new(),
            });
            assert!(memo.seen.len() <= SEEN_CAP);
        }
    }
}
