//! Seeded synthetic benchmark generator.
//!
//! We do not ship the copyrighted ISCAS85 netlists (beyond the tiny,
//! universally reproduced `c17`). For Table 2-class experiments what
//! matters is the *statistical* shape of the circuits — gate count, gate
//! mix, fan-in distribution, reconvergence and logic depth — so this
//! module generates circuits matched to those statistics, deterministically
//! from a seed. See DESIGN.md §3 for the substitution argument.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit::{Circuit, CircuitBuilder};
use crate::gate::GateType;

/// Configuration for the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// Number of primary outputs (all dangling nets become outputs too).
    pub n_outputs: usize,
    /// Number of logic gates.
    pub n_gates: usize,
    /// RNG seed; equal configs generate identical circuits.
    pub seed: u64,
    /// Maximum gate fan-in (the characterized library supports up to 4).
    pub max_fanin: usize,
    /// Probability that a fan-in is drawn from the recent-net window
    /// (drives logic depth up) rather than uniformly (drives
    /// reconvergence).
    pub locality: f64,
    /// Size of the recent-net window.
    pub window: usize,
}

impl GeneratorConfig {
    /// A reasonable default for an ISCAS85-class circuit of `n_gates`
    /// gates.
    pub fn iscas_like(
        name: impl Into<String>,
        n_inputs: usize,
        n_outputs: usize,
        n_gates: usize,
        seed: u64,
    ) -> GeneratorConfig {
        GeneratorConfig {
            name: name.into(),
            n_inputs,
            n_outputs,
            n_gates,
            seed,
            max_fanin: 4,
            locality: 0.72,
            window: (n_gates / 14).max(8),
        }
    }
}

/// Gate-type mix modeled on the published ISCAS85 statistics: NAND/AND
/// heavy, a sizeable inverter population, few buffers.
fn pick_type(rng: &mut StdRng) -> GateType {
    let x: f64 = rng.gen();
    if x < 0.34 {
        GateType::Nand
    } else if x < 0.55 {
        GateType::And
    } else if x < 0.66 {
        GateType::Nor
    } else if x < 0.74 {
        GateType::Or
    } else if x < 0.93 {
        GateType::Not
    } else {
        GateType::Buf
    }
}

fn pick_fanin_count(rng: &mut StdRng, max_fanin: usize) -> usize {
    let x: f64 = rng.gen();
    let n = if x < 0.58 {
        2
    } else if x < 0.86 {
        3
    } else {
        4
    };
    n.min(max_fanin)
}

/// The pool of dangling nets that `generate` prefers fan-ins from, as a
/// rank-select set over net indices.
///
/// Its members, in net-index order, are every net not yet consumed as a
/// fan-in plus the nets consumed since the last [`compact`](Self::compact)
/// (stale members). That is exactly what a `Vec` of net indices holds when
/// each new net is pushed and the vector is `retain`ed down to unconsumed
/// nets at the same moments, so `select(k)` is that vector's `[k]` and
/// every draw lands on the same net. A draw or insert costs O(log n)
/// instead of the vector's O(pool) compaction per gate.
struct DanglingPool {
    /// Fenwick tree of membership flags; node `i` (1-based) counts the
    /// members among nets `i - lowbit(i)..i`.
    tree: Vec<u32>,
    /// Members, stale ones included.
    len: usize,
    /// Members consumed since the last compaction.
    stale: Vec<usize>,
}

impl DanglingPool {
    /// A pool over nets `0..capacity` whose members are `0..members`.
    fn new(capacity: usize, members: usize) -> DanglingPool {
        let mut tree = vec![0u32; capacity + 1];
        for i in 1..=capacity {
            tree[i] += u32::from(i <= members);
            let parent = i + (i & i.wrapping_neg());
            if parent <= capacity {
                tree[parent] += tree[i];
            }
        }
        DanglingPool {
            tree,
            len: members,
            stale: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn set(&mut self, net: usize, member: bool) {
        let mut i = net + 1;
        while i < self.tree.len() {
            if member {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Adds a net that is not a member.
    fn insert(&mut self, net: usize) {
        self.set(net, true);
        self.len += 1;
    }

    /// Records that a member was consumed; it stays a member until the
    /// next compaction.
    fn consume(&mut self, net: usize) {
        self.stale.push(net);
    }

    /// Drops every stale member.
    fn compact(&mut self) {
        for net in std::mem::take(&mut self.stale) {
            self.set(net, false);
            self.len -= 1;
        }
    }

    /// The `k`-th member in net-index order (0-based): a binary descent
    /// to the last node whose prefix count is at most `k`.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        let (mut pos, mut rest) = (0, k);
        let mut step = (self.tree.len() - 1)
            .checked_ilog2()
            .map_or(0, |log| 1 << log);
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] as usize <= rest {
                pos = next;
                rest -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        pos
    }
}

/// Generates a synthetic combinational circuit.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`n_inputs == 0`,
/// `n_gates == 0`, `n_outputs == 0` or `max_fanin < 2`) — generator
/// configurations are produced by code, not end users.
pub fn generate(cfg: &GeneratorConfig) -> Circuit {
    assert!(cfg.n_inputs > 0, "need at least one input");
    assert!(cfg.n_gates > 0, "need at least one gate");
    assert!(cfg.n_outputs > 0, "need at least one output");
    assert!(cfg.max_fanin >= 2, "max fan-in must allow 2-input gates");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = CircuitBuilder::new(cfg.name.clone());
    let n_nets = cfg.n_inputs + cfg.n_gates;
    let mut nets: Vec<String> = Vec::with_capacity(n_nets);
    for i in 0..cfg.n_inputs {
        let name = format!("pi{i}");
        b.input(&name);
        nets.push(name);
    }
    let mut consumed = vec![false; n_nets];
    // Nets not yet used as a fan-in anywhere (kept lazily compacted).
    let mut unconsumed = DanglingPool::new(n_nets, cfg.n_inputs);
    for g in 0..cfg.n_gates {
        let gtype = pick_type(&mut rng);
        let want = match gtype {
            GateType::Not | GateType::Buf => 1,
            _ => pick_fanin_count(&mut rng, cfg.max_fanin),
        };
        let mut fanin: Vec<usize> = Vec::with_capacity(want);
        let mut guard = 0;
        while fanin.len() < want && guard < 1000 {
            guard += 1;
            let idx = if rng.gen::<f64>() < cfg.locality && nets.len() > cfg.window {
                rng.gen_range(nets.len() - cfg.window..nets.len())
            } else if unconsumed.len() > 0 && rng.gen::<f64>() < 0.8 {
                // Prefer consuming a dangling net: real circuits have no
                // dead logic, and this keeps primary outputs deep.
                unconsumed.select(rng.gen_range(0..unconsumed.len()))
            } else {
                rng.gen_range(0..nets.len())
            };
            if !fanin.contains(&idx) {
                fanin.push(idx);
            }
        }
        // A tiny circuit may not have `want` distinct nets; degrade to what
        // exists (switching a starved multi-input gate to an inverter).
        let gtype = if fanin.len() == 1 && want > 1 {
            GateType::Not
        } else {
            gtype
        };
        let name = format!("g{g}");
        let fanin_names: Vec<&str> = fanin.iter().map(|&i| nets[i].as_str()).collect();
        b.gate(&name, gtype, &fanin_names)
            .expect("generator produces valid fan-in counts");
        for &i in &fanin {
            if !consumed[i] {
                consumed[i] = true;
                unconsumed.consume(i);
            }
        }
        unconsumed.insert(nets.len());
        nets.push(name);
        // Compact the unconsumed pool every so often.
        if unconsumed.len() > 64 || g + 1 == cfg.n_gates {
            unconsumed.compact();
        }
    }
    // Outputs: every dangling net must be observable, then top up with the
    // most recently defined (deepest) nets to reach the requested count.
    // A gate net is already an output exactly when it dangles.
    let mut outputs: Vec<usize> = (cfg.n_inputs..nets.len())
        .filter(|&i| !consumed[i])
        .collect();
    let mut cursor = nets.len();
    while outputs.len() < cfg.n_outputs && cursor > cfg.n_inputs {
        cursor -= 1;
        if consumed[cursor] {
            outputs.push(cursor);
        }
    }
    for &o in &outputs {
        b.output(&nets[o]);
    }
    b.build().expect("generator output is structurally valid")
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::circuit::reference;

    /// The generator before its rank-select pool and output flags, kept as
    /// the oracle: a `Vec` pool `retain`ed after every gate once it passes
    /// 64 entries, and a quadratic output top-up.
    fn reference_generate(cfg: &GeneratorConfig) -> Circuit {
        assert!(cfg.n_inputs > 0, "need at least one input");
        assert!(cfg.n_gates > 0, "need at least one gate");
        assert!(cfg.n_outputs > 0, "need at least one output");
        assert!(cfg.max_fanin >= 2, "max fan-in must allow 2-input gates");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = CircuitBuilder::new(cfg.name.clone());
        let mut nets: Vec<String> = Vec::with_capacity(cfg.n_inputs + cfg.n_gates);
        for i in 0..cfg.n_inputs {
            let name = format!("pi{i}");
            b.input(&name);
            nets.push(name);
        }
        let mut fanout_count = vec![0usize; cfg.n_inputs + cfg.n_gates];
        // Nets not yet used as a fan-in anywhere (kept lazily compacted).
        let mut unconsumed: Vec<usize> = (0..cfg.n_inputs).collect();
        for g in 0..cfg.n_gates {
            let gtype = pick_type(&mut rng);
            let want = match gtype {
                GateType::Not | GateType::Buf => 1,
                _ => pick_fanin_count(&mut rng, cfg.max_fanin),
            };
            let mut fanin: Vec<usize> = Vec::with_capacity(want);
            let mut guard = 0;
            while fanin.len() < want && guard < 1000 {
                guard += 1;
                let idx = if rng.gen::<f64>() < cfg.locality && nets.len() > cfg.window {
                    rng.gen_range(nets.len() - cfg.window..nets.len())
                } else if !unconsumed.is_empty() && rng.gen::<f64>() < 0.8 {
                    // Prefer consuming a dangling net: real circuits have no
                    // dead logic, and this keeps primary outputs deep.
                    unconsumed[rng.gen_range(0..unconsumed.len())]
                } else {
                    rng.gen_range(0..nets.len())
                };
                if !fanin.contains(&idx) {
                    fanin.push(idx);
                }
            }
            // A tiny circuit may not have `want` distinct nets; degrade to what
            // exists (switching a starved multi-input gate to an inverter).
            let gtype = if fanin.len() == 1 && want > 1 {
                GateType::Not
            } else {
                gtype
            };
            let name = format!("g{g}");
            let fanin_names: Vec<&str> = fanin.iter().map(|&i| nets[i].as_str()).collect();
            b.gate(&name, gtype, &fanin_names)
                .expect("generator produces valid fan-in counts");
            for &i in &fanin {
                fanout_count[i] += 1;
            }
            unconsumed.push(nets.len());
            nets.push(name);
            // Compact the unconsumed pool every so often.
            if unconsumed.len() > 64 || g + 1 == cfg.n_gates {
                unconsumed.retain(|&i| fanout_count[i] == 0);
            }
        }
        // Outputs: every dangling net must be observable, then top up with the
        // most recently defined (deepest) nets to reach the requested count.
        let mut outputs: Vec<usize> = (cfg.n_inputs..nets.len())
            .filter(|&i| fanout_count[i] == 0)
            .collect();
        let mut cursor = nets.len();
        while outputs.len() < cfg.n_outputs && cursor > cfg.n_inputs {
            cursor -= 1;
            if !outputs.contains(&cursor) {
                outputs.push(cursor);
            }
        }
        for &o in &outputs {
            b.output(&nets[o]);
        }
        reference::build(b).expect("generator output is structurally valid")
    }

    /// FNV-1a over everything a circuit holds: its name, every gate's
    /// name, type and fan-ins, the outputs and every fan-out list.
    fn fingerprint(c: &Circuit) -> u64 {
        let id = |i: usize| (i as u64).to_le_bytes();
        let mut bytes = c.name().as_bytes().to_vec();
        for g in c.gates() {
            bytes.extend(g.name.bytes());
            bytes.extend(g.gtype.bench_keyword().bytes());
            bytes.extend(id(g.fanin.len()));
            for f in &g.fanin {
                bytes.extend(id(f.index()));
            }
        }
        bytes.extend(id(c.outputs().len()));
        for o in c.outputs() {
            bytes.extend(id(o.index()));
        }
        for net in c.topo() {
            bytes.extend(id(c.fanouts(net).len()));
            for f in c.fanouts(net) {
                bytes.extend(id(f.index()));
            }
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Fingerprints recorded with the `Vec`-pool generator and the nested
    /// build, before either was replaced.
    #[test]
    fn circuits_match_pinned_fingerprints() {
        let pinned = [
            ("c880s", 0xb7ee_8c6b_dc4e_6eb4),
            ("c1355s", 0xec0a_fd2f_f7f5_88de),
            ("c1908s", 0xa98b_2426_7bf3_fa13),
            ("c3540s", 0x2eb3_93fd_b529_007d),
            ("c7552s", 0xe48e_18a1_6dad_b3b1),
        ];
        for (name, want) in pinned {
            let c = crate::suite::synthetic(name).expect("suite member");
            assert_eq!(fingerprint(&c), want, "{name}");
        }
        let c = generate(&GeneratorConfig::iscas_like(
            "fp20k", 400, 200, 20_000, 20_011,
        ));
        assert_eq!(fingerprint(&c), 0x4b31_89e2_8476_6360, "fp20k");
        assert_eq!(
            fingerprint(&crate::suite::c17()),
            0x2e4e_b691_d568_c42e,
            "c17"
        );
    }

    /// Small configurations hit the generator's corner cases: a pool whose
    /// every member is already consumed (one input), starved multi-input
    /// gates, and an output top-up when fewer nets dangle than requested.
    #[test]
    fn corner_cases_match_reference() {
        let mut topped_up = 0;
        for n_gates in 1..=12 {
            for n_inputs in 1..=3 {
                let cfg = GeneratorConfig {
                    name: "tiny".into(),
                    n_inputs,
                    n_outputs: 20,
                    n_gates,
                    seed: n_gates as u64 * 31 + n_inputs as u64,
                    max_fanin: 4,
                    locality: 0.0,
                    window: 1,
                };
                let c = generate(&cfg);
                assert_eq!(c, reference_generate(&cfg), "{cfg:?}");
                let dangling = c
                    .topo()
                    .filter(|&n| !c.is_input(n) && c.fanouts(n).is_empty())
                    .count();
                topped_up += usize::from(c.outputs().len() > dangling);
            }
        }
        assert!(topped_up > 0, "no configuration reached the output top-up");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The rank-select pool draws every fan-in the `Vec` pool drew, so
        /// whole circuits are equal. Half the cases have at most 24 gates,
        /// where starved fan-ins and the output top-up are common.
        #[test]
        fn generate_matches_reference(
            n_inputs in 1usize..=40,
            n_outputs in 1usize..=60,
            tiny in 0u8..2,
            n_tiny in 1usize..=24,
            n_gates in 1usize..=3_000,
            max_fanin in 2usize..=4,
            locality in 0.0f64..=1.0,
            window in 1usize..=200,
            seed in 0u64..u64::MAX,
        ) {
            let cfg = GeneratorConfig {
                name: "prop".into(),
                n_inputs,
                n_outputs,
                n_gates: if tiny == 1 { n_tiny } else { n_gates },
                seed,
                max_fanin,
                locality,
                window,
            };
            prop_assert_eq!(generate(&cfg), reference_generate(&cfg));
        }
    }

    fn cfg(n_gates: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig::iscas_like("t", 16, 8, n_gates, seed)
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = generate(&cfg(200, 42));
        let b = generate(&cfg(200, 42));
        assert_eq!(a, b);
        let c = generate(&cfg(200, 43));
        assert_ne!(a, c);
    }

    #[test]
    fn matches_requested_sizes() {
        let c = generate(&cfg(383, 880));
        assert_eq!(c.n_gates(), 383);
        assert_eq!(c.inputs().len(), 16);
        assert!(c.outputs().len() >= 8);
    }

    #[test]
    fn no_dangling_nets() {
        let c = generate(&cfg(250, 7));
        for id in c.topo() {
            if c.is_input(id) {
                continue;
            }
            assert!(
                !c.fanouts(id).is_empty() || c.is_output(id),
                "net {} dangles",
                c.gate(id).name
            );
        }
    }

    #[test]
    fn depth_is_iscas_like() {
        // ISCAS85 depths run roughly 20–50 levels.
        let c = generate(&GeneratorConfig::iscas_like("d", 60, 26, 383, 880));
        assert!(c.depth() >= 10, "depth {} too shallow", c.depth());
        assert!(c.depth() <= 120, "depth {} too deep", c.depth());
    }

    #[test]
    fn gate_mix_is_plausible() {
        let c = generate(&cfg(1000, 99));
        let h = c.gate_histogram();
        let nand = *h.get(&GateType::Nand).unwrap_or(&0);
        let not = *h.get(&GateType::Not).unwrap_or(&0);
        assert!(nand > 200, "nand count {nand}");
        assert!(not > 100, "inverter count {not}");
        // Fan-in never exceeds the configured maximum.
        for id in c.topo() {
            assert!(c.gate(id).fanin.len() <= 4);
        }
    }

    #[test]
    fn evaluates_without_panicking() {
        let c = generate(&cfg(120, 5));
        let zeros = vec![false; c.inputs().len()];
        let ones = vec![true; c.inputs().len()];
        assert_eq!(c.eval(&zeros).len(), c.outputs().len());
        assert_eq!(c.eval(&ones).len(), c.outputs().len());
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_zero_inputs() {
        let mut c = cfg(10, 1);
        c.n_inputs = 0;
        generate(&c);
    }
}
