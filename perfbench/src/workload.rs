//! The three workloads and the run that measures them.
//!
//! A run repeats one *cycle* of short operations until its time budget is
//! spent. Each workload sizes up its *home* operations; between them the
//! cycle runs rounds of small *probe* operations of the other sections,
//! so that every run reports every end-to-end metric and every kind of
//! operation is sampled many times, spread over the whole run. See
//! README.md for the table.

use std::path::PathBuf;
use std::time::Instant;

use ssdm_cells::CellLibrary;
use ssdm_core::{Bound, Edge, Time};
use ssdm_itr::Itr;
use ssdm_logic::{imply, Assignments};
use ssdm_models::ProposedModel;
use ssdm_netlist::{coupling_sites, generate, suite, Circuit, GeneratorConfig};
use ssdm_spice::{GateSim, PinState};
use ssdm_sta::{required_times, IncrementalSta, ModelKind, Sta, StaConfig};
use ssdm_tsim::{SimInput, TimingSim};

use crate::harness::{digest_bytes, json_object, median, Checks, Metric, Rng, RunReport, Tracer};
use crate::layers::{
    assignment_digest, cell_block, characterize_cell, decision_assignment, decision_value,
    fresh_refine_digest, outcome_digest, participation_map, run_campaign, timing_digest, Campaign,
    Decision,
};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Time budget of one run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold serial characterization of the one- and two-input cells.
    CharFast,
    /// Full STA passes and ITR steps on a 100k-gate circuit.
    StaScale,
    /// The §7 ATPG campaign pair over the benchmark suite.
    AtpgSec7,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::CharFast, Workload::StaScale, Workload::AtpgSec7];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CharFast => "char_fast",
            Workload::StaScale => "sta_scale",
            Workload::AtpgSec7 => "atpg_sec7",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or a tiny version for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// Seconds-long versions of every section, for the self-test.
    Tiny,
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time budget of the measured cycles, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Worker threads for the parallel entry points.
    pub jobs: usize,
    /// The benchmark's copy of the fast-grid library.
    pub library: PathBuf,
    /// Directory the traced run writes its span log to (`None`: no file).
    pub out_dir: Option<PathBuf>,
    /// Name of one check to break on purpose (smoke tests only).
    pub tamper: Option<String>,
}

impl Opts {
    /// Default options for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Opts {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        Opts {
            workload,
            seed,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            library: dir.join("data/library-fast.txt"),
            out_dir: Some(dir.join("out")),
            tamper: None,
        }
    }
}

/// Where the STA/ITR sections' circuit comes from.
#[derive(Debug, Clone, Copy)]
enum StaPlan {
    /// A `GeneratorConfig::iscas_like` circuit generated from `SCALE_SEED`.
    Generated {
        gates: usize,
        inputs: usize,
        outputs: usize,
    },
    /// A fixed member of the benchmark suite.
    Suite(&'static str),
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Cells characterized one after another, each as its own operation.
    cells: &'static [&'static str],
    sta: StaPlan,
    campaigns: &'static [(&'static str, usize)],
    /// Size of the decision pool; every cycle steps through all of it.
    decisions: usize,
    /// Sites per circuit and mode timed one by one in the traced run.
    traced_sites: usize,
}

/// The §7 circuits and their site counts.
const SEC7: &[(&str, usize)] = &[
    ("c17", 20),
    ("c880s", 40),
    ("c1355s", 40),
    ("c3540s", 40),
    ("c7552s", 40),
];
/// Seed of the 100k-gate circuit. Its inputs are what the decision pool
/// draws from, so it is fixed like the pool itself (see `setup`).
const SCALE_SEED: u64 = 100_003;
/// Seed of the fixed decision pool.
const DECISION_SEED: u64 = 5;
/// Seed of the fixed coupling-site sets (the `sec7_atpg` experiment's).
const SITE_SEED: u64 = 7001;
/// The STA and ITR probe circuit of the other workloads. Its working set
/// stays in the core's own caches: probes on c7552s, whose working set
/// fills the shared cache, drifted by up to 25 % from run to run with the
/// load of other tenants of the host.
const STA_PROBE: &str = "c880s";
/// The campaign probe of the other workloads.
const CAMPAIGN_PROBE: &[(&str, usize)] = &[("c17", 20), ("c880s", 30)];
/// The cells `char_fast` characterizes: every one- and two-input cell.
/// The three- and four-input cells take 13–36 s each, too long to sample
/// repeatedly within one run.
const CHAR_CELLS: &[&str] = &["INV", "NAND2", "NOR2"];
/// The characterization probe of the other workloads.
const CHAR_PROBE: &[&str] = &["INV"];

fn plan(w: Workload, scale: Scale) -> Plan {
    match scale {
        Scale::Full => Plan {
            cells: match w {
                Workload::CharFast => CHAR_CELLS,
                _ => CHAR_PROBE,
            },
            sta: match w {
                Workload::StaScale => StaPlan::Generated {
                    gates: 100_000,
                    inputs: 2_000,
                    outputs: 1_000,
                },
                _ => StaPlan::Suite(STA_PROBE),
            },
            campaigns: match w {
                Workload::AtpgSec7 => SEC7,
                _ => CAMPAIGN_PROBE,
            },
            decisions: if w == Workload::StaScale { 4 } else { 8 },
            traced_sites: 6,
        },
        Scale::Tiny => Plan {
            cells: match w {
                Workload::CharFast => &["INV", "NAND2"],
                _ => CHAR_PROBE,
            },
            sta: match w {
                Workload::StaScale => StaPlan::Generated {
                    gates: 2_000,
                    inputs: 64,
                    outputs: 32,
                },
                _ => StaPlan::Suite(STA_PROBE),
            },
            campaigns: match w {
                Workload::AtpgSec7 => &[("c17", 10), ("c880s", 6)],
                _ => &[("c17", 6)],
            },
            decisions: 2,
            traced_sites: 2,
        },
    }
}

/// One measured operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Library load and parse, circuit generation, site and decision
    /// sampling.
    Setup,
    /// One cold serial characterization of the plan's `i`-th cell.
    Char(usize),
    /// One full STA pass under the proposed model.
    Sta,
    /// Assign → refine → retract → refine of the `i`-th decision.
    Step(usize),
    /// The `i`-th campaign, with ITR on or off.
    Campaign { circuit: usize, itr: bool },
}

impl Plan {
    /// The home operations of `w`, and the probe round run between them.
    fn cycle(&self, w: Workload) -> (Vec<Op>, Vec<Op>) {
        let char_ops: Vec<Op> = (0..self.cells.len()).map(Op::Char).collect();
        let campaign_ops: Vec<Op> = (0..self.campaigns.len())
            .flat_map(|circuit| [true, false].map(|itr| Op::Campaign { circuit, itr }))
            .collect();
        let steps = (0..self.decisions).map(Op::Step);
        match w {
            Workload::CharFast => {
                let probe = std::iter::once(Op::Sta)
                    .chain(steps)
                    .chain(campaign_ops)
                    .collect();
                (char_ops, probe)
            }
            // One STA pass before every two decisions.
            Workload::StaScale => {
                let home = (0..self.decisions)
                    .flat_map(|i| {
                        let sta = (i % 2 == 0).then_some(Op::Sta);
                        sta.into_iter().chain([Op::Step(i)])
                    })
                    .collect();
                (home, char_ops.into_iter().chain(campaign_ops).collect())
            }
            Workload::AtpgSec7 => {
                let probe = char_ops.into_iter().chain([Op::Sta]).chain(steps).collect();
                (campaign_ops, probe)
            }
        }
    }
}

/// Exact outputs at full scale.
#[derive(Debug, Clone, Copy)]
struct Pins {
    sta: u64,
    steps: u64,
    outcomes: u64,
    /// (detected + undetectable, total) with ITR on, then off.
    efficiency: [(usize, usize); 2],
}

fn pins(w: Workload) -> Pins {
    // The probe STA circuit and its decisions are shared by char_fast and
    // atpg_sec7, and the campaign probe by char_fast and sta_scale.
    const PROBE_STA: u64 = 0xe3c2a64d02bc30c4;
    const PROBE_STEPS: u64 = 0x4b80c9b761966707;
    const PROBE_OUTCOMES: u64 = 0x90a5fca2605f8b1a;
    const PROBE_EFFICIENCY: [(usize, usize); 2] = [(47, 50), (20, 50)];
    match w {
        Workload::CharFast => Pins {
            sta: PROBE_STA,
            steps: PROBE_STEPS,
            outcomes: PROBE_OUTCOMES,
            efficiency: PROBE_EFFICIENCY,
        },
        Workload::StaScale => Pins {
            sta: 0x7a2efee9a4fd2dbf,
            steps: 0xc2cea8f8124481b3,
            outcomes: PROBE_OUTCOMES,
            efficiency: PROBE_EFFICIENCY,
        },
        // §7 efficiency: 170/180 = 94.4 % with ITR, 21/180 = 11.7 % without.
        Workload::AtpgSec7 => Pins {
            sta: PROBE_STA,
            steps: PROBE_STEPS,
            outcomes: 0xa83cb1e373b315a1,
            efficiency: [(170, 180), (21, 180)],
        },
    }
}

/// Everything set-up produces.
struct Inputs {
    lib_text: String,
    lib: CellLibrary,
    sta: Circuit,
    decisions: Vec<Decision>,
    campaigns: Vec<Campaign>,
}

fn suite_circuit(name: &str) -> Option<Circuit> {
    if name == "c17" {
        Some(suite::c17())
    } else {
        suite::synthetic(name)
    }
}

/// One set-up: load the library from disk, generate the circuits, sample
/// the coupling sites and the ITR decisions.
fn setup(plan: &Plan, opts: &Opts, tr: &Tracer, ck: &mut Checks) -> Option<Inputs> {
    let lib_text = ck.op("read library", std::fs::read_to_string(&opts.library))?;
    let lib = ck.op(
        "parse library",
        tr.span("cells.parse", || CellLibrary::from_text(&lib_text)),
    )?;
    let (sta, circuits) = tr.span("netlist.generate", || {
        let sta = match plan.sta {
            StaPlan::Generated {
                gates,
                inputs,
                outputs,
            } => Some(generate(&GeneratorConfig::iscas_like(
                "scale", inputs, outputs, gates, SCALE_SEED,
            ))),
            StaPlan::Suite(name) => suite_circuit(name),
        };
        let circuits: Option<Vec<Circuit>> = plan
            .campaigns
            .iter()
            .map(|&(name, _)| suite_circuit(name))
            .collect();
        (sta, circuits)
    });
    let sta = ck.op("generate", sta.ok_or("unknown suite circuit"))?;
    let circuits = ck.op("generate", circuits.ok_or("unknown suite circuit"))?;
    // The site sets and their order are fixed, as in the paper's
    // experiment. A site's cost is heavy-tailed (an aborted search costs
    // ~15x a proven-untestable one) and the order decides which sites are
    // dropped, so seeded sets or orders move campaign times by 30-40 %
    // from seed to seed.
    let campaigns = tr.span("netlist.sites", || {
        circuits
            .into_iter()
            .zip(plan.campaigns)
            .map(|(circuit, &(_, count))| Campaign {
                sites: coupling_sites(&circuit, count, SITE_SEED),
                circuit,
            })
            .collect()
    });
    // Likewise the decision pool is fixed and the seed orders it: the cost
    // of one decision follows the size of its input's fan-out cone, which
    // varies by 4x between inputs of the 100k-gate circuit.
    let mut rng = Rng::new(DECISION_SEED, "decisions");
    let pis = sta.inputs();
    let mut decisions: Vec<Decision> = (0..plan.decisions)
        .map(|_| (pis[rng.below(pis.len())], decision_value(rng.below(4))))
        .collect();
    let mut rng = Rng::new(opts.seed, "decisions");
    for i in (1..decisions.len()).rev() {
        decisions.swap(i, rng.below(i + 1));
    }
    Some(Inputs {
        lib_text,
        lib,
        sta,
        decisions,
        campaigns,
    })
}

/// The digest recorded next to the library copy.
fn recorded_library_digest(opts: &Opts) -> Result<u64, String> {
    let path = opts.library.with_extension("digest");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let hex = text
        .trim()
        .strip_prefix("fnv1a64:")
        .ok_or("digest file must read fnv1a64:<hex>")?;
    u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

/// Raw samples of the end-to-end operations, one list per operation.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    /// Seconds per plan cell.
    char_s: Vec<Vec<f64>>,
    proposed_ms: Vec<f64>,
    /// Milliseconds per decision.
    step_ms: Vec<Vec<f64>>,
    /// Seconds per campaign circuit, ITR on then off.
    campaign_s: [Vec<Vec<f64>>; 2],
    /// Σ dropped and Σ targeted over every campaign run.
    dropped: usize,
    targeted: usize,
}

impl Samples {
    fn new(plan: &Plan) -> Samples {
        let per_circuit = vec![Vec::new(); plan.campaigns.len()];
        Samples {
            char_s: vec![Vec::new(); plan.cells.len()],
            step_ms: vec![Vec::new(); plan.decisions],
            campaign_s: [per_circuit.clone(), per_circuit],
            ..Samples::default()
        }
    }
}

/// A campaign's outcome digest and (detected + undetectable, total).
type Outcome = (u64, (usize, usize));

/// The state the operations check their repeated outputs against.
#[derive(Debug, Default)]
struct Expect {
    proposed: Option<u64>,
    /// The first outcome per campaign circuit, ITR on then off.
    outcomes: [Vec<Option<Outcome>>; 2],
    /// The assigned result's digest per decision.
    steps: Vec<Option<u64>>,
}

/// Seconds of probe rounds per second of home operations: the probes get
/// a third of the run.
const PROBE_SHARE: f64 = 0.5;

/// Set-ups per cycle, unless they take [`SETUP_S`] seconds first: a set-up
/// takes milliseconds except on the 100k-gate circuit, and the median of
/// a few millisecond samples moves with single bursts of the host.
const SETUPS: usize = 8;
const SETUP_S: f64 = 0.2;

/// Complete cycles a full-scale run makes however short its budget.
const MIN_CYCLES: usize = 2;

struct Run<'a> {
    plan: Plan,
    opts: &'a Opts,
    inputs: &'a Inputs,
    ck: Checks,
    tr: Tracer,
    samples: Samples,
    expect: Expect,
}

impl<'a> Run<'a> {
    /// Repeats the workload's cycle — set-ups, then the home operations,
    /// each followed by probe rounds until the probes have had
    /// [`PROBE_SHARE`] of the home operations' time — until the time budget
    /// is spent and at least [`MIN_CYCLES`] cycles are complete; returns
    /// the wall time. A `fixed` pass (the traced run) makes exactly one
    /// cycle. Every cycle makes at least one probe round.
    fn measure(&mut self, fixed: bool) -> f64 {
        let (home, probe) = self.plan.cycle(self.opts.workload);
        let min_cycles = if fixed || self.opts.scale == Scale::Tiny {
            1
        } else {
            MIN_CYCLES
        };
        let budget = if fixed { 0.0 } else { self.opts.seconds };
        let start = Instant::now();
        let (mut cycles, mut home_s, mut probe_s) = (0, 0.0, 0.0);
        let done = |cycles: usize| cycles >= min_cycles && start.elapsed().as_secs_f64() >= budget;
        'run: while !done(cycles) {
            let t = Instant::now();
            for _ in 0..SETUPS {
                if !self.op(Op::Setup) {
                    break 'run;
                }
                if t.elapsed().as_secs_f64() >= SETUP_S {
                    break;
                }
            }
            let mut rounds = 0;
            for (i, &h) in home.iter().enumerate() {
                if i > 0 && done(cycles) {
                    break 'run;
                }
                let t = Instant::now();
                let ok = self.op(h);
                home_s += t.elapsed().as_secs_f64();
                if !ok {
                    break 'run;
                }
                while rounds == 0 || probe_s < PROBE_SHARE * home_s {
                    let t = Instant::now();
                    let ok = probe.iter().all(|&p| self.op(p));
                    probe_s += t.elapsed().as_secs_f64();
                    rounds += 1;
                    if !ok {
                        break 'run;
                    }
                }
            }
            cycles += 1;
        }
        start.elapsed().as_secs_f64()
    }

    /// One operation; false when it failed.
    fn op(&mut self, op: Op) -> bool {
        match op {
            Op::Setup => {
                let start = Instant::now();
                let ok = setup(&self.plan, self.opts, &self.tr, &mut self.ck).is_some();
                self.samples.setup_s.push(start.elapsed().as_secs_f64());
                ok
            }
            Op::Char(i) => self.char_op(i),
            Op::Sta => self.sta_pass(),
            Op::Step(i) => self.step(i),
            Op::Campaign { circuit, itr } => self.campaign(circuit, itr),
        }
    }

    /// One cold serial characterization of the `i`-th plan cell, checked
    /// byte for byte against its block of the library copy.
    fn char_op(&mut self, i: usize) -> bool {
        let cell = self.plan.cells[i];
        let start = Instant::now();
        let text = self
            .tr
            .span("cells.characterize", || characterize_cell(cell));
        let secs = start.elapsed().as_secs_f64();
        let Some(text) = self.ck.op("characterize", text) else {
            return false;
        };
        self.samples.char_s[i].push(secs);
        self.check_cell(cell, &text);
        true
    }

    fn check_cell(&mut self, cell: &str, text: &str) {
        match cell_block(&self.inputs.lib_text, cell) {
            Some(block) => self.ck.same(
                "char.cell",
                digest_bytes(text.as_bytes()),
                digest_bytes(block.as_bytes()),
            ),
            None => self
                .ck
                .fail("char.cell", format!("{cell} missing from library")),
        }
    }

    /// One full proposed-model STA pass, checked against the first.
    fn sta_pass(&mut self) -> bool {
        let c = &self.inputs.sta;
        let start = Instant::now();
        let r = Sta::new(c, &self.inputs.lib, StaConfig::default()).run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let Some(r) = self.ck.op("sta.run", r) else {
            return false;
        };
        let d = timing_digest(c, &r);
        self.samples.proposed_ms.push(ms);
        let want = *self.expect.proposed.get_or_insert(d);
        self.ck.same("sta.repeat", d, want);
        true
    }

    /// Assign → refine → retract → refine of the `i`-th decision on a
    /// freshly primed refiner, timed as one step. A refiner of its own
    /// keeps each decision's cost independent of the decisions before it,
    /// whose work the engine's memo would otherwise carry over. The
    /// assigned result must equal the decision's earlier samples (and, in
    /// `verify`, a fresh refiner); the retracted result must equal the
    /// unconstrained analysis.
    fn step(&mut self, i: usize) -> bool {
        let c = &self.inputs.sta;
        let itr = Itr::new(c, &self.inputs.lib, StaConfig::default());
        let r = itr.refine(&mut Assignments::new(c.n_nets()));
        let Some(r) = self.ck.op("itr.refine", r) else {
            return false;
        };
        let base = timing_digest(c, &r);
        drop(r);
        let Some(mut a) = self
            .ck
            .op("assign", decision_assignment(c, self.inputs.decisions[i]))
        else {
            return false;
        };
        let t0 = Instant::now();
        let r = itr.refine(&mut a);
        let assign_s = t0.elapsed().as_secs_f64();
        let Some(r) = self.ck.op("itr.refine", r) else {
            return false;
        };
        let assigned = timing_digest(c, &r);
        drop(r);
        let mut empty = Assignments::new(c.n_nets());
        let t1 = Instant::now();
        let r = itr.refine(&mut empty);
        let retract_s = t1.elapsed().as_secs_f64();
        let Some(r) = self.ck.op("itr.refine", r) else {
            return false;
        };
        self.ck.same("itr.retract", timing_digest(c, &r), base);
        self.samples.step_ms[i].push((assign_s + retract_s) * 1e3);
        let want = *self.expect.steps[i].get_or_insert(assigned);
        self.ck.same("itr.repeat", assigned, want);
        true
    }

    /// The `i`-th campaign (ITR on or off) at `jobs` workers, checked
    /// against the first time it ran.
    fn campaign(&mut self, i: usize, use_itr: bool) -> bool {
        let mode = usize::from(!use_itr);
        let campaign = &self.inputs.campaigns[i];
        let run = run_campaign(campaign, &self.inputs.lib, use_itr, self.opts.jobs);
        let Some(run) = self.ck.op("campaign", run) else {
            return false;
        };
        let s = run.result.stats;
        self.samples.campaign_s[mode][i].push(run.secs);
        self.samples.dropped += s.dropped;
        self.samples.targeted += s.total();
        let digest = outcome_digest(&run.result);
        let efficiency = (s.detected + s.undetectable, s.total());
        let (want, _) = *self.expect.outcomes[mode][i].get_or_insert((digest, efficiency));
        self.ck.same("atpg.repeat", digest, want);
        true
    }

    /// The output checks, and at full scale the pinned digests. The seed
    /// only orders the decisions, so the pins hold on every seed. Returns the wall time of the one-job campaigns and
    /// the backtracks they took.
    fn verify(&mut self) -> (f64, u64) {
        let c = &self.inputs.sta;
        let lib = &self.inputs.lib;
        // `Sta::run` equals `Sta::run_parallel`.
        if let Some(want) = self.expect.proposed {
            let r = Sta::new(c, lib, StaConfig::default()).run_parallel(self.opts.jobs);
            if let Some(r) = self.ck.op("sta.run_parallel", r) {
                self.ck.same("sta.parallel", timing_digest(c, &r), want);
            }
        }
        // Every refine step equals a fresh refiner on the same assignment;
        // the unconstrained refinement equals plain STA.
        for (&decision, &got) in self.inputs.decisions.iter().zip(&self.expect.steps) {
            let Some(got) = got else { continue };
            let fresh =
                decision_assignment(c, decision).and_then(|a| fresh_refine_digest(c, lib, &a));
            if let Some(want) = self.ck.op("fresh refine", fresh) {
                self.ck.same("itr.fresh", got, want);
            }
        }
        let base = fresh_refine_digest(c, lib, &Assignments::new(c.n_nets()));
        if let (Some(base), Some(sta)) = (self.ck.op("fresh refine", base), self.expect.proposed) {
            self.ck.same("itr.base", base, sta);
        }
        // Campaign outcomes and statistics at one job equal those at `jobs`.
        let backtracks_before = ssdm_obs::counter_total("atpg.podem.backtracks");
        let mut one_job_s = 0.0;
        for (mode, use_itr) in [true, false].into_iter().enumerate() {
            for (campaign, want) in self
                .inputs
                .campaigns
                .iter()
                .zip(&self.expect.outcomes[mode])
            {
                let Some((want, _)) = *want else { continue };
                let run = run_campaign(campaign, lib, use_itr, 1);
                if let Some(run) = self.ck.op("campaign", run) {
                    one_job_s += run.secs;
                    self.ck.same("atpg.jobs", outcome_digest(&run.result), want);
                }
            }
        }
        let backtracks = ssdm_obs::counter_total("atpg.podem.backtracks") - backtracks_before;
        // Exact outputs at full scale.
        if self.opts.scale == Scale::Full {
            let outcomes: Vec<u64> = self
                .expect
                .outcomes
                .iter()
                .flatten()
                .map(|o| o.map_or(0, |o| o.0))
                .collect();
            let efficiency = self.expect.outcomes.each_ref().map(|mode| {
                mode.iter()
                    .flatten()
                    .fold((0, 0), |acc, &(_, (ok, total))| (acc.0 + ok, acc.1 + total))
            });
            // In pool order, not in the seeded order.
            let mut steps: Vec<u64> = self.expect.steps.iter().map(|s| s.unwrap_or(0)).collect();
            steps.sort_unstable();
            let want = pins(self.opts.workload);
            self.ck
                .same("pin.sta", self.expect.proposed.unwrap_or(0), want.sta);
            self.ck.same("pin.steps", digest_list(&steps), want.steps);
            self.ck
                .same("pin.outcomes", digest_list(&outcomes), want.outcomes);
            for (g, w) in efficiency.into_iter().zip(want.efficiency) {
                self.ck.same(
                    "pin.efficiency",
                    (g.0 << 32 | g.1) as u64,
                    (w.0 << 32 | w.1) as u64,
                );
            }
        }
        (one_job_s, backtracks)
    }
}

fn digest_list(xs: &[u64]) -> u64 {
    let mut d = crate::harness::Digest::default();
    for &x in xs {
        d.u64(x);
    }
    d.finish()
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Σ over the lists of each list's median: the time of one pass over
/// every operation.
fn sum_median(lists: &[Vec<f64>]) -> f64 {
    lists.iter().map(|xs| median(xs)).sum()
}

/// Runs one workload and returns its report.
pub fn run(opts: &Opts) -> RunReport {
    let plan = plan(opts.workload, opts.scale);
    let mut ck = Checks::new(opts.tamper.clone());
    let tr = Tracer::default();
    let mut report = RunReport::default();
    let start = Instant::now();
    let inputs = setup(&plan, opts, &tr, &mut ck);
    let first_setup_s = start.elapsed().as_secs_f64();
    let Some(inputs) = inputs else {
        report.attempted = ck.attempted();
        report.failed = ck.failed();
        report.notes = ck.failures;
        return report;
    };
    let recorded = recorded_library_digest(opts);
    if let Some(want) = ck.op("library digest", recorded) {
        ck.same(
            "library.digest",
            digest_bytes(inputs.lib_text.as_bytes()),
            want,
        );
    }
    report.meta = metadata(opts, &inputs);
    let mut run = Run {
        plan,
        opts,
        inputs: &inputs,
        ck,
        tr,
        samples: Samples {
            setup_s: vec![first_setup_s],
            ..Samples::new(&plan)
        },
        expect: Expect {
            outcomes: [
                vec![None; plan.campaigns.len()],
                vec![None; plan.campaigns.len()],
            ],
            steps: vec![None; plan.decisions],
            ..Expect::default()
        },
    };
    if opts.trace {
        traced(&mut run, &mut report);
    } else {
        run.measure(false);
        run.verify();
        let s = &run.samples;
        // Other tenants of a shared host slow it down by up to 1.5x, in
        // phases of seconds to minutes; the host's fast state is the rarer
        // one. The median of many samples spread over the run stays in the
        // common state, where a low quantile flips between the two. Each
        // operation whose samples repeat the same work gets its own median;
        // decisions differ in work, so the step metric is the mean of the
        // per-decision medians.
        let step_ms = sum_median(&s.step_ms) / s.step_ms.len().max(1) as f64;
        report.metrics = vec![
            metric("setup_s", median(&s.setup_s), "s"),
            metric("char_s", sum_median(&s.char_s), "s"),
            metric("sta_pass_ms", median(&s.proposed_ms), "ms"),
            metric("refine_step_ms", step_ms, "ms"),
            metric("campaign_itr_s", sum_median(&s.campaign_s[0]), "s"),
            metric("campaign_noitr_s", sum_median(&s.campaign_s[1]), "s"),
        ];
        report.notes.push(format!(
            "samples: setup {}, char {:?}, sta {}, steps {:?}, campaigns on {:?}, off {:?}",
            s.setup_s.len(),
            s.char_s.iter().map(Vec::len).collect::<Vec<_>>(),
            s.proposed_ms.len(),
            s.step_ms.iter().map(Vec::len).collect::<Vec<_>>(),
            s.campaign_s[0].iter().map(Vec::len).collect::<Vec<_>>(),
            s.campaign_s[1].iter().map(Vec::len).collect::<Vec<_>>(),
        ));
    }
    report.attempted = run.ck.attempted();
    report.failed = run.ck.failed();
    if !opts.trace {
        let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
        report.metrics.push(metric("ok_ops_ratio", ok, "ratio"));
    }
    report.notes.extend(run.ck.failures);
    report
}

fn metadata(opts: &Opts, inputs: &Inputs) -> Vec<(String, String)> {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let size = |c: &Circuit| {
        format!(
            "{}: {} gates, {} nets, depth {}",
            c.name(),
            c.n_gates(),
            c.n_nets(),
            c.depth()
        )
    };
    let mut meta = vec![
        ("workload".into(), opts.workload.name().into()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("scale".into(), format!("{:?}", opts.scale)),
        ("trace".into(), opts.trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("threads".into(), opts.jobs.to_string()),
        ("git_describe".into(), git),
        (
            "library_digest".into(),
            format!("fnv1a64:{:016x}", digest_bytes(inputs.lib_text.as_bytes())),
        ),
        ("sta_circuit".into(), size(&inputs.sta)),
    ];
    for c in &inputs.campaigns {
        meta.push((
            format!("campaign.{}", c.circuit.name()),
            format!("{}, {} sites", size(&c.circuit), c.sites.len()),
        ));
    }
    meta
}

/// The traced run: one cycle untraced and one traced (their ratio is the
/// tracing overhead), the output checks, then each layer's public calls
/// under the benchmark's own spans.
fn traced(run: &mut Run<'_>, report: &mut RunReport) {
    let untraced = run.measure(true);
    let untraced_samples = std::mem::replace(&mut run.samples, Samples::new(&run.plan));
    let (one_job_s, backtracks) = run.verify();
    ssdm_obs::set_enabled(true);
    let traced = run.measure(true);
    let mut m = vec![metric(
        "obs.trace_overhead_ratio",
        traced / untraced,
        "ratio",
    )];
    layer_metrics(run, &mut m, &mut report.notes);
    let nproc_s: f64 = untraced_samples
        .campaign_s
        .iter()
        .flatten()
        .map(|s| median(s))
        .sum();
    m.push(metric("atpg.worker_speedup", one_job_s / nproc_s, "ratio"));
    m.push(metric("atpg.backtracks", backtracks as f64, "count"));
    let drop_rate = untraced_samples.dropped as f64 / untraced_samples.targeted.max(1) as f64;
    m.push(metric("atpg.drop_rate", drop_rate, "ratio"));
    m.push(metric(
        "cells.parse_ms",
        run.tr.median_s("cells.parse") * 1e3,
        "ms",
    ));
    m.push(metric(
        "netlist.generate_s",
        run.tr.median_s("netlist.generate"),
        "s",
    ));
    m.push(metric(
        "netlist.sites_ms",
        run.tr.median_s("netlist.sites") * 1e3,
        "ms",
    ));
    // Reported here, without a bound: the campaigns' worker threads each
    // allocate from their own glibc arena, so the peak moved between 44 and
    // 73 MB from run to run of the same code.
    m.push(metric(
        "peak_rss_mb",
        crate::harness::peak_rss_mb().unwrap_or(0.0),
        "MB",
    ));
    ssdm_obs::set_enabled(false);
    if let Some(dir) = &run.opts.out_dir {
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            run.opts.workload.name(),
            run.opts.seed
        ));
        let body = format!(
            "{{\"meta\": {}, \"spans\": {}, \"obs\": {}}}\n",
            json_object(&report.meta),
            run.tr.to_json(),
            ssdm_obs::capture().to_json()
        );
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
        if run.ck.op("write trace", written).is_some() {
            report
                .notes
                .push(format!("trace written to {}", path.display()));
        }
    }
    report.metrics = m;
}

/// Per-layer numbers: each public entry point timed under its own span.
fn layer_metrics(run: &mut Run<'_>, m: &mut Vec<Metric>, notes: &mut Vec<String>) {
    spice_layer(run, m);
    cells_layer(run, m, notes);
    sta_layer(run, m);
    step_layer(run, m);
    tsim_layer(run, m);
    site_layer(run, m);
}

fn spice_layer(run: &mut Run<'_>, m: &mut Vec<Metric>) {
    let sim = GateSim::nand(2);
    let load = sim.inverter_load();
    let mut rng = Rng::new(run.opts.seed, "spice");
    let grid = [0.15, 0.4, 0.7, 1.1, 1.6];
    for _ in 0..12 {
        let pin = rng.below(2);
        let t = Time::from_ns(grid[rng.below(grid.len())]);
        let r = run.tr.span("spice.pin_to_pin", || {
            sim.pin_to_pin(pin, Edge::Fall, t, load)
        });
        run.ck.op("spice.pin_to_pin", r);
        let skew = Time::from_ns(rng.below(200) as f64 * 0.01 - 1.0);
        let ramp = |at: Time| PinState::Switch(ssdm_core::Transition::new(Edge::Fall, at, t));
        let pins = [ramp(Time::from_ns(3.0)), ramp(Time::from_ns(3.0) + skew)];
        let r = run.tr.span("spice.measure", || sim.measure(&pins, load));
        run.ck.op("spice.measure", r);
    }
    m.push(metric(
        "spice.measure_us.pin",
        run.tr.median_s("spice.pin_to_pin") * 1e6,
        "us",
    ));
    m.push(metric(
        "spice.measure_us.pair",
        run.tr.median_s("spice.measure") * 1e6,
        "us",
    ));
}

/// Serial `Characterizer::characterize` of each of the workload's cells,
/// with the sweep units it ran.
fn cells_layer(run: &mut Run<'_>, m: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let units_before = ssdm_obs::counter_total("cells.sweep.units");
    let mut serial = 0.0;
    let mut slowest: f64 = 0.0;
    for &cell in run.plan.cells {
        let start = Instant::now();
        let text = characterize_cell(cell);
        let secs = start.elapsed().as_secs_f64();
        if let Some(text) = run.ck.op("characterize", text) {
            run.check_cell(cell, &text);
        }
        notes.push(format!("cells.cell_s.{cell} {secs}"));
        serial += secs;
        slowest = slowest.max(secs);
    }
    let units = ssdm_obs::counter_total("cells.sweep.units") - units_before;
    m.push(metric("cells.serial_s", serial, "s"));
    m.push(metric("cells.slowest_cell_s", slowest, "s"));
    m.push(metric("cells.units", units as f64, "count"));
}

fn sta_layer(run: &mut Run<'_>, m: &mut Vec<Metric>) {
    let c = &run.inputs.sta;
    let lib = &run.inputs.lib;
    let cfg = StaConfig::default();
    for _ in 0..3 {
        let r = run
            .tr
            .span("sta.full_pass", || Sta::new(c, lib, cfg.clone()).run());
        let r = run.ck.op("sta.run", r);
        let p = run.tr.span("models.pin_to_pin_pass", || {
            Sta::new(c, lib, cfg.clone().with_model(ModelKind::PinToPin)).run()
        });
        run.ck.op("sta.run", p);
        let par = run.tr.span("sta.full_pass_parallel", || {
            Sta::new(c, lib, cfg.clone()).run_parallel(run.opts.jobs)
        });
        run.ck.op("sta.run_parallel", par);
        if let Some(r) = r {
            let deadline = Bound::new(Time::NEG_INFINITY, r.endpoint_max_delay(c) * 1.02)
                .expect("an open-ended deadline is a valid bound");
            let q = run.tr.span("sta.required", || {
                required_times(c, &r, [deadline, deadline])
            });
            std::hint::black_box(q);
        }
    }
    let full = run.tr.median_s("sta.full_pass") * 1e3;
    m.push(metric("sta.full_pass_ms", full, "ms"));
    m.push(metric(
        "sta.full_pass_parallel_ms",
        run.tr.median_s("sta.full_pass_parallel") * 1e3,
        "ms",
    ));
    m.push(metric(
        "models.vshape_extra_ms",
        full - run.tr.median_s("models.pin_to_pin_pass") * 1e3,
        "ms",
    ));
    m.push(metric(
        "sta.required_ms",
        run.tr.median_s("sta.required") * 1e3,
        "ms",
    ));
}

/// One decision step broken into its layers: implication, the
/// incremental engine on the implied participation map, and the whole
/// `Itr::refine` call on the same assignment.
fn step_layer(run: &mut Run<'_>, m: &mut Vec<Metric>) {
    let c = &run.inputs.sta;
    let lib = &run.inputs.lib;
    let itr = Itr::new(c, lib, StaConfig::default());
    let engine = IncrementalSta::new(c, lib, StaConfig::default());
    let Some(mut engine) = run.ck.op("engine", engine) else {
        return;
    };
    let empty = Assignments::new(c.n_nets());
    let primed = engine
        .refine(&participation_map(c, &empty))
        .map_err(|e| e.to_string())
        .and_then(|_| {
            itr.refine(&mut empty.clone())
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
    if run.ck.op("prime", primed).is_none() {
        return;
    }
    let (mut gates, mut hits, mut evaluated) = (Vec::new(), 0u64, 0u64);
    for &decision in &run.inputs.decisions {
        let Some(assigned) = run.ck.op("assign", decision_assignment(c, decision)) else {
            continue;
        };
        for a in [assigned, empty.clone()] {
            let mut implied = a.clone();
            let r = run.tr.span("logic.imply", || imply(c, &mut implied));
            if run.ck.op("imply", r).is_none() {
                continue;
            }
            let part = participation_map(c, &implied);
            let before = engine.stats();
            let r = run
                .tr
                .span("sta.incremental_refine", || engine.refine(&part));
            run.ck.op("sta.refine", r);
            let after = engine.stats();
            gates.push((after.gates_evaluated - before.gates_evaluated) as f64);
            evaluated += after.gates_evaluated - before.gates_evaluated;
            hits += after.memo_hits - before.memo_hits;
            let mut a = a;
            let r = run.tr.span("itr.refine", || itr.refine(&mut a));
            if run.ck.op("itr.refine", r).is_some() {
                // The refiner's implication must match the standalone one.
                run.ck.same(
                    "itr.imply",
                    assignment_digest(&a),
                    assignment_digest(&implied),
                );
            }
        }
    }
    let imply_ms = run.tr.median_s("logic.imply") * 1e3;
    let inc_ms = run.tr.median_s("sta.incremental_refine") * 1e3;
    let itr_ms = run.tr.median_s("itr.refine") * 1e3;
    m.push(metric("logic.imply_ms", imply_ms, "ms"));
    m.push(metric("sta.incremental_refine_ms", inc_ms, "ms"));
    m.push(metric("itr.refine_ms", itr_ms, "ms"));
    m.push(metric("itr.overhead_ms", itr_ms - imply_ms - inc_ms, "ms"));
    m.push(metric("sta.gates_evaluated", median(&gates), "count"));
    m.push(metric(
        "sta.memo_hit_ratio",
        hits as f64 / evaluated.max(1) as f64,
        "ratio",
    ));
}

fn tsim_layer(run: &mut Run<'_>, m: &mut Vec<Metric>) {
    let c = &run.inputs.sta;
    let sim = TimingSim::new(c, &run.inputs.lib, ProposedModel::new());
    let mut rng = Rng::new(run.opts.seed, "tsim");
    let reps = if c.n_nets() > 50_000 { 5 } else { 20 };
    for _ in 0..reps {
        let v: Vec<bool> = (0..2 * c.inputs().len())
            .map(|_| rng.next_u64() & 1 == 1)
            .collect();
        let (v1, v2) = v.split_at(c.inputs().len());
        let input = SimInput::step(c, v1, v2);
        let r = run.tr.span("tsim.run", || sim.run(&input));
        run.ck.op("tsim.run", r);
    }
    m.push(metric(
        "tsim.run_us",
        run.tr.median_s("tsim.run") * 1e6,
        "us",
    ));
}

/// Serial `Atpg::run_site` on the first sites of every campaign, ITR on
/// and off, timed per outcome.
fn site_layer(run: &mut Run<'_>, m: &mut Vec<Metric>) {
    use ssdm_atpg::{Atpg, FaultOutcome};
    let lib = &run.inputs.lib;
    for campaign in &run.inputs.campaigns {
        let take = if campaign.circuit.name() == "c17" {
            campaign.sites.len()
        } else {
            run.plan.traced_sites
        };
        for use_itr in [true, false] {
            let config = crate::layers::atpg_config(&campaign.circuit, lib, use_itr);
            let Some(config) = run.ck.op("atpg config", config) else {
                continue;
            };
            let atpg = Atpg::new(&campaign.circuit, lib, config);
            for &site in campaign.sites.iter().take(take) {
                let start = Instant::now();
                let outcome = atpg.run_site(site);
                let dur = start.elapsed();
                let name = match run.ck.op("atpg.run_site", outcome) {
                    Some(FaultOutcome::Detected(_)) => "atpg.site.detected",
                    Some(FaultOutcome::Undetectable) => "atpg.site.undetectable",
                    Some(FaultOutcome::Aborted) => "atpg.site.aborted",
                    None => continue,
                };
                run.tr.record(name, start, dur);
            }
        }
    }
    for (span, name) in [
        ("atpg.site.detected", "atpg.site_ms.detected"),
        ("atpg.site.undetectable", "atpg.site_ms.undetectable"),
        ("atpg.site.aborted", "atpg.site_ms.aborted"),
    ] {
        m.push(metric(name, run.tr.median_s(span) * 1e3, "ms"));
    }
}
