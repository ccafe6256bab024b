//! Fixed-step RK4 transient integration.
//!
//! The networks here are tiny (≤ 6 solved nodes) and the device equations
//! smooth within each operating region, so classic RK4 at a 1–2 ps step is
//! both fast and more than accurate enough for delays measured in tens to
//! hundreds of picoseconds. A divergence guard catches pathological
//! configurations.
//!
//! [`Transient::run`] always integrates the whole window.
//! [`crate::GateSim::measure`] starts from a memoized DC operating point
//! and ends the run once the output has settled on its final rail; both
//! shortcuts leave every measured crossing bit-identical (DESIGN.md §10).

use ssdm_core::Time;

use crate::circuit::Circuit;
use crate::error::SpiceError;
use crate::process::Process;
use crate::waveform::{InputWave, Trace};

/// Integration configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Integration step.
    pub dt: Time,
    /// Duration of the constant-input settling run used to find the
    /// initial DC operating point.
    pub settle: Time,
    /// Record every `record_stride`-th step into the output trace.
    pub record_stride: usize,
}

impl Default for TransientConfig {
    fn default() -> TransientConfig {
        TransientConfig {
            dt: Time::from_ps(2.0),
            settle: Time::from_ns(8.0),
            record_stride: 2,
        }
    }
}

/// A transient analysis of one gate circuit under given input waves.
#[derive(Debug, Clone)]
pub struct Transient<'a> {
    circuit: &'a Circuit,
    process: &'a Process,
    inputs: Vec<InputWave>,
    caps: Vec<f64>,
    config: TransientConfig,
}

/// Where [`Transient::integrate`] may end the run early: at the first
/// recorded step at or after `after` whose output voltage is within `tol`
/// of `rail`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SettleStop {
    /// The latest input ramp end; from here on the inputs are static.
    pub after: Time,
    /// The output's final rail (V).
    pub rail: f64,
    /// How close to `rail` counts as settled (V).
    pub tol: f64,
}

/// Working vectors of one run, allocated once and reused by every RK4
/// step.
struct Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
    eval: EvalBuf,
}

/// Working vectors of one derivative evaluation.
struct EvalBuf {
    vins: Vec<f64>,
    slopes: Vec<f64>,
    current: Vec<f64>,
}

impl Scratch {
    fn new(n_state: usize, n_inputs: usize) -> Scratch {
        Scratch {
            k1: vec![0.0; n_state],
            k2: vec![0.0; n_state],
            k3: vec![0.0; n_state],
            k4: vec![0.0; n_state],
            tmp: vec![0.0; n_state],
            eval: EvalBuf {
                vins: Vec::with_capacity(n_inputs),
                slopes: Vec::with_capacity(n_inputs),
                current: vec![0.0; n_state],
            },
        }
    }
}

impl<'a> Transient<'a> {
    /// Creates an analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadStimulus`] when the number of input waves
    /// does not match the circuit's pin count.
    pub fn new(
        circuit: &'a Circuit,
        process: &'a Process,
        inputs: Vec<InputWave>,
        load_ff: f64,
        config: TransientConfig,
    ) -> Result<Transient<'a>, SpiceError> {
        if inputs.len() != circuit.n_inputs() {
            return Err(SpiceError::BadStimulus {
                reason: format!(
                    "{} input waves for a {}-input circuit",
                    inputs.len(),
                    circuit.n_inputs()
                ),
            });
        }
        let caps = circuit.node_caps_ff(process, load_ff);
        Ok(Transient {
            circuit,
            process,
            inputs,
            caps,
            config,
        })
    }

    /// Runs the transient over the full window `[t0, t1]`, returning the
    /// output-node trace.
    ///
    /// The initial condition is found by holding the inputs at their
    /// `t0` values and integrating for the configured settle duration.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Diverged`] if any node voltage becomes
    /// non-finite.
    pub fn run(&self, t0: Time, t1: Time) -> Result<Trace, SpiceError> {
        let state = self.dc_settle(t0)?;
        Ok(self.integrate(state, t0, t1, None)?.0)
    }

    /// Integrates from the initial `state` at `t0` towards `t1`, recording
    /// every `record_stride`-th step and the last one. With a `stop`, the
    /// run ends at the first recorded step that satisfies it. Returns the
    /// trace and the number of RK4 steps taken.
    pub(crate) fn integrate(
        &self,
        mut state: Vec<f64>,
        t0: Time,
        t1: Time,
        stop: Option<SettleStop>,
    ) -> Result<(Trace, usize), SpiceError> {
        let mut scratch = Scratch::new(state.len(), self.inputs.len());
        let mut trace = Trace::with_capacity(1024);
        let dt = self.config.dt.as_ns();
        let t0n = t0.as_ns();
        let t1n = t1.as_ns();
        let steps = ((t1n - t0n) / dt).ceil() as usize;
        trace.push(t0, state[0]);
        let mut t = t0n;
        for step in 1..=steps {
            self.rk4_step(&mut state, t, dt, false, &mut scratch);
            t = t0n + step as f64 * dt;
            if !state.iter().all(|v| v.is_finite()) {
                return Err(SpiceError::Diverged { at_ns: t });
            }
            if step % self.config.record_stride == 0 || step == steps {
                trace.push(Time::from_ns(t), state[0]);
                if let Some(s) = stop {
                    if t >= s.after.as_ns() && (state[0] - s.rail).abs() <= s.tol {
                        return Ok((trace, step));
                    }
                }
            }
        }
        Ok((trace, steps))
    }

    /// Number of coarse RK4 steps [`Transient::dc_settle`] takes.
    pub(crate) fn settle_steps(&self) -> usize {
        (self.config.settle.as_ns() / (self.config.dt.as_ns() * 4.0)).ceil() as usize
    }

    /// Finds the DC operating point at `t0` by integrating with inputs
    /// frozen at their `t0` values.
    pub(crate) fn dc_settle(&self, t0: Time) -> Result<Vec<f64>, SpiceError> {
        let n = self.circuit.n_state();
        let mut state = vec![0.0; n];
        let mut scratch = Scratch::new(n, self.inputs.len());
        // Coarse settling steps: the settle run only needs the endpoint.
        let dt = self.config.dt.as_ns() * 4.0;
        let t = t0.as_ns();
        for _ in 0..self.settle_steps() {
            self.rk4_step(&mut state, t, dt, true, &mut scratch);
            if !state.iter().all(|v| v.is_finite()) {
                return Err(SpiceError::Diverged { at_ns: t });
            }
        }
        Ok(state)
    }

    fn input_voltages(&self, t: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.inputs
                .iter()
                .map(|w| w.voltage(Time::from_ns(t), self.process.vdd)),
        );
    }

    fn input_slopes(&self, t: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.inputs
                .iter()
                .map(|w| w.slope(Time::from_ns(t), self.process.vdd)),
        );
    }

    /// Evaluates dV/dt for all solved nodes.
    fn derivative(
        &self,
        state: &[f64],
        t: f64,
        frozen_t: Option<f64>,
        dvdt: &mut [f64],
        buf: &mut EvalBuf,
    ) {
        let teff = frozen_t.unwrap_or(t);
        self.input_voltages(teff, &mut buf.vins);
        buf.current.fill(0.0);
        self.circuit
            .channel_currents(self.process, state, &buf.vins, &mut buf.current);
        if frozen_t.is_none() {
            self.input_slopes(t, &mut buf.slopes);
            self.circuit
                .miller_injection(self.process, &buf.slopes, &mut buf.current);
        }
        for (d, (c, cap)) in dvdt.iter_mut().zip(buf.current.iter().zip(&self.caps)) {
            *d = c / cap;
        }
    }

    fn rk4_step(&self, state: &mut [f64], t: f64, dt: f64, frozen: bool, s: &mut Scratch) {
        let n = state.len();
        let frozen_t = if frozen { Some(t) } else { None };
        let Scratch {
            k1,
            k2,
            k3,
            k4,
            tmp,
            eval,
        } = s;
        self.derivative(state, t, frozen_t, k1, eval);
        for i in 0..n {
            tmp[i] = state[i] + 0.5 * dt * k1[i];
        }
        self.derivative(tmp, t + 0.5 * dt, frozen_t, k2, eval);
        for i in 0..n {
            tmp[i] = state[i] + 0.5 * dt * k2[i];
        }
        self.derivative(tmp, t + 0.5 * dt, frozen_t, k3, eval);
        for i in 0..n {
            tmp[i] = state[i] + dt * k3[i];
        }
        self.derivative(tmp, t + dt, frozen_t, k4, eval);
        let vdd = self.process.vdd.as_volts();
        for i in 0..n {
            state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            // Ideal-rail clamp: diffusion nodes cannot exceed the rails by
            // more than a junction drop; keep them in range for stability.
            state[i] = state[i].clamp(-0.5, vdd + 0.5);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{build, GateKind};
    use ssdm_core::{Edge, Transition};

    fn inv_circuit() -> Circuit {
        build(GateKind::Inv, 1, 1.5, 3.0).unwrap()
    }

    #[test]
    fn rejects_wrong_pin_count() {
        let c = inv_circuit();
        let p = Process::p05um();
        let r = Transient::new(&c, &p, vec![], 10.0, TransientConfig::default());
        assert!(matches!(r, Err(SpiceError::BadStimulus { .. })));
    }

    #[test]
    fn inverter_static_levels() {
        let c = inv_circuit();
        let p = Process::p05um();
        let tr = Transient::new(
            &c,
            &p,
            vec![InputWave::Steady(true)],
            10.0,
            TransientConfig::default(),
        )
        .unwrap();
        let trace = tr.run(Time::ZERO, Time::from_ns(1.0)).unwrap();
        // Input high → output settled low.
        assert!(trace.volts().last().unwrap().abs() < 0.05);

        let tr2 = Transient::new(
            &c,
            &p,
            vec![InputWave::Steady(false)],
            10.0,
            TransientConfig::default(),
        )
        .unwrap();
        let trace2 = tr2.run(Time::ZERO, Time::from_ns(1.0)).unwrap();
        assert!((trace2.volts().last().unwrap() - 3.3).abs() < 0.05);
    }

    #[test]
    fn inverter_switches_on_rising_input() {
        let c = inv_circuit();
        let p = Process::p05um();
        let stim = InputWave::Ramp(Transition::new(
            Edge::Rise,
            Time::from_ns(1.0),
            Time::from_ns(0.3),
        ));
        let tr = Transient::new(&c, &p, vec![stim], 10.0, TransientConfig::default()).unwrap();
        let trace = tr.run(Time::ZERO, Time::from_ns(4.0)).unwrap();
        // Starts high, ends low.
        assert!(
            (trace.volts()[0] - 3.3).abs() < 0.05,
            "v0 = {}",
            trace.volts()[0]
        );
        assert!(trace.volts().last().unwrap().abs() < 0.05);
        // Output falls through 50% after the input's arrival.
        let t50 = trace.last_crossing(1.65, Edge::Fall).unwrap();
        assert!(
            t50 > Time::from_ns(1.0) && t50 < Time::from_ns(1.6),
            "t50 = {t50}"
        );
    }

    #[test]
    fn heavier_load_is_slower() {
        let c = inv_circuit();
        let p = Process::p05um();
        let stim = InputWave::Ramp(Transition::new(
            Edge::Rise,
            Time::from_ns(1.0),
            Time::from_ns(0.3),
        ));
        let mut delays = Vec::new();
        for load in [5.0, 20.0, 80.0] {
            let tr = Transient::new(&c, &p, vec![stim], load, TransientConfig::default()).unwrap();
            let trace = tr.run(Time::ZERO, Time::from_ns(8.0)).unwrap();
            delays.push(trace.last_crossing(1.65, Edge::Fall).unwrap());
        }
        assert!(delays[0] < delays[1]);
        assert!(delays[1] < delays[2]);
    }

    #[test]
    fn trace_is_recorded_densely() {
        let c = inv_circuit();
        let p = Process::p05um();
        let tr = Transient::new(
            &c,
            &p,
            vec![InputWave::Steady(false)],
            10.0,
            TransientConfig::default(),
        )
        .unwrap();
        let trace = tr.run(Time::ZERO, Time::from_ns(1.0)).unwrap();
        assert!(trace.len() > 100);
    }
}
