//! The combinational circuit DAG.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::NetlistError;
use crate::gate::{Gate, GateType, NetId};

/// A combinational gate-level circuit.
///
/// Gates are stored in **topological order** (fan-ins always precede their
/// gate), which every traversal in STA/ITR/ATPG relies on. Construction via
/// [`CircuitBuilder`] establishes and validates this invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Every net's fan-outs, concatenated in net order: net `i`'s are
    /// `fanouts[fanout_start[i]..fanout_start[i + 1]]`.
    fanouts: Vec<NetId>,
    fanout_start: Vec<usize>,
    levels: Vec<usize>,
}

impl Circuit {
    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates, in topological order. `gates()[id.index()]` is the gate
    /// driving net `id`.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate driving `net`.
    pub fn gate(&self, net: NetId) -> &Gate {
        &self.gates[net.index()]
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Nets that consume `net` as a fan-in.
    pub fn fanouts(&self, net: NetId) -> &[NetId] {
        &self.fanouts[self.fanout_start[net.index()]..self.fanout_start[net.index() + 1]]
    }

    /// Topological level of `net` (inputs are level 0).
    pub fn level(&self, net: NetId) -> usize {
        self.levels[net.index()]
    }

    /// The largest level in the circuit (its logic depth).
    pub fn depth(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Number of nets (= gates, counting primary inputs).
    pub fn n_nets(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic gates (excluding primary inputs).
    pub fn n_gates(&self) -> usize {
        self.gates.len() - self.inputs.len()
    }

    /// Iterates net ids in topological order.
    pub fn topo(&self) -> impl Iterator<Item = NetId> {
        (0..self.gates.len()).map(NetId)
    }

    /// Iterates net ids in reverse topological order.
    pub fn topo_rev(&self) -> impl Iterator<Item = NetId> {
        (0..self.gates.len()).rev().map(NetId)
    }

    /// Looks up a net by name.
    pub fn find(&self, name: &str) -> Option<NetId> {
        self.gates.iter().position(|g| g.name == name).map(NetId)
    }

    /// True when `net` is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.gate(net).gtype == GateType::Input
    }

    /// True when `net` is a primary output.
    pub fn is_output(&self, net: NetId) -> bool {
        self.outputs.contains(&net)
    }

    /// Evaluates the circuit on a full input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != inputs().len()`.
    pub fn eval(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length mismatch"
        );
        let mut values = vec![false; self.gates.len()];
        for (pi, &v) in self.inputs.iter().zip(assignment) {
            values[pi.index()] = v;
        }
        let mut fanin_vals = Vec::new();
        for id in self.topo() {
            let g = self.gate(id);
            if g.gtype == GateType::Input {
                continue;
            }
            fanin_vals.clear();
            fanin_vals.extend(g.fanin.iter().map(|f| values[f.index()]));
            values[id.index()] = g.gtype.eval(&fanin_vals);
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Per-type gate counts, for benchmark statistics reports.
    pub fn gate_histogram(&self) -> HashMap<GateType, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            *h.entry(g.gtype).or_insert(0) += 1;
        }
        h
    }

    /// Completes a circuit from gates already in topological order: the
    /// primary inputs, the fan-out lists (each in ascending consumer
    /// order, a repeated fan-in listed once per pin) and the levels.
    fn from_topo_gates(name: String, gates: Vec<Gate>, outputs: Vec<NetId>) -> Circuit {
        let n = gates.len();
        let inputs: Vec<NetId> = gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.gtype == GateType::Input)
            .map(|(i, _)| NetId(i))
            .collect();
        let (fanout_start, fanouts) = group_by_source(
            n,
            gates
                .iter()
                .enumerate()
                .flat_map(|(i, g)| g.fanin.iter().map(move |f| (f.index(), i))),
        );
        let mut levels = vec![0usize; n];
        for (i, g) in gates.iter().enumerate() {
            levels[i] = g
                .fanin
                .iter()
                .map(|f| levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        Circuit {
            name,
            gates,
            inputs,
            outputs,
            fanouts: fanouts.into_iter().map(NetId).collect(),
            fanout_start,
            levels,
        }
    }
}

/// Groups `(source, target)` edges by source, keeping their order: the
/// targets of source `i` are `targets[start[i]..start[i + 1]]`.
fn group_by_source(
    n: usize,
    edges: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; n + 1];
    for (from, _) in edges.clone() {
        start[from + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start[..n].to_vec();
    let mut targets = vec![0; start[n]];
    for (from, to) in edges {
        targets[fill[from]] = to;
        fill[from] += 1;
    }
    (start, targets)
}

/// Builds a [`Circuit`] from named gates, resolving references and
/// validating the result.
///
/// # Example
///
/// ```
/// use ssdm_netlist::{CircuitBuilder, GateType};
///
/// let mut b = CircuitBuilder::new("half");
/// b.input("a");
/// b.input("b");
/// b.gate("n", GateType::Nand, &["a", "b"])?;
/// b.gate("y", GateType::Not, &["n"])?;
/// b.output("y");
/// let c = b.build()?;
/// assert_eq!(c.n_gates(), 2);
/// assert_eq!(c.eval(&[true, true]), vec![true]); // AND via NAND+NOT
/// # Ok::<(), ssdm_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    name: String,
    defs: Vec<Def>,
    /// Every definition's fan-in names, concatenated.
    fanin_text: String,
    /// Each fan-in reference's span in `fanin_text`, in definition and
    /// pin order.
    fanin_spans: Vec<Range<usize>>,
    outputs: Vec<String>,
}

/// One net definition.
#[derive(Debug, Clone)]
struct Def {
    name: String,
    gtype: GateType,
    /// The definition's fan-ins, as a range of `fanin_spans`.
    fanin: Range<usize>,
}

impl CircuitBuilder {
    /// Creates a builder for a named circuit.
    pub fn new(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder {
            name: name.into(),
            ..CircuitBuilder::default()
        }
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> &mut Self {
        let at = self.fanin_spans.len();
        self.defs.push(Def {
            name: name.into(),
            gtype: GateType::Input,
            fanin: at..at,
        });
        self
    }

    /// Declares a gate driving net `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadFanin`] when the fan-in count is invalid
    /// for the gate type.
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        gtype: GateType,
        fanin: &[&str],
    ) -> Result<&mut Self, NetlistError> {
        let name = name.into();
        let (lo, hi) = gtype.fanin_range();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(NetlistError::BadFanin {
                name,
                got: fanin.len(),
            });
        }
        let first = self.fanin_spans.len();
        for f in fanin {
            let start = self.fanin_text.len();
            self.fanin_text.push_str(f);
            self.fanin_spans.push(start..self.fanin_text.len());
        }
        self.defs.push(Def {
            name,
            gtype,
            fanin: first..self.fanin_spans.len(),
        });
        Ok(self)
    }

    /// Declares a primary output.
    pub fn output(&mut self, name: impl Into<String>) -> &mut Self {
        self.outputs.push(name.into());
        self
    }

    /// The definitions in the nested layout the reference build reads.
    #[cfg(test)]
    fn definitions(&self) -> Vec<(String, GateType, Vec<String>)> {
        self.defs
            .iter()
            .map(|d| {
                let fanin = self.fanin_spans[d.fanin.clone()]
                    .iter()
                    .map(|span| self.fanin_text[span.clone()].to_string())
                    .collect();
                (d.name.clone(), d.gtype, fanin)
            })
            .collect()
    }

    /// Resolves names, topologically sorts and validates.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateNet`] — a name is driven twice;
    /// * [`NetlistError::UnknownNet`] / [`NetlistError::UnknownOutput`] —
    ///   dangling references;
    /// * [`NetlistError::Cyclic`] — a combinational loop;
    /// * [`NetlistError::Empty`] — no gates or no outputs.
    pub fn build(self) -> Result<Circuit, NetlistError> {
        if self.defs.is_empty() || self.outputs.is_empty() {
            return Err(NetlistError::Empty);
        }
        let n = self.defs.len();
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(n);
        for (i, def) in self.defs.iter().enumerate() {
            if index.insert(def.name.as_str(), i).is_some() {
                return Err(NetlistError::DuplicateNet {
                    name: def.name.clone(),
                });
            }
        }
        // Resolve fan-ins to definition indices: definition `d` reads
        // `fanin[d.fanin]`.
        let mut fanin = Vec::with_capacity(self.fanin_spans.len());
        for span in &self.fanin_spans {
            let f = &self.fanin_text[span.clone()];
            match index.get(f) {
                Some(&i) => fanin.push(i),
                None => {
                    return Err(NetlistError::UnknownNet {
                        name: f.to_string(),
                    })
                }
            }
        }
        // Kahn topological sort over flat consumer lists, each in
        // ascending definition order.
        let (consumer_start, consumers) = group_by_source(
            n,
            self.defs
                .iter()
                .enumerate()
                .flat_map(|(i, def)| fanin[def.fanin.clone()].iter().map(move |&f| (f, i))),
        );
        let mut indegree: Vec<usize> = self.defs.iter().map(|d| d.fanin.len()).collect();
        // `order` is also the FIFO queue: entries before `head` are placed.
        let mut order: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let i = order[head];
            head += 1;
            for &c in &consumers[consumer_start[i]..consumer_start[i + 1]] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    order.push(c);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .expect("cycle implies a stuck node");
            return Err(NetlistError::Cyclic {
                name: self.defs[stuck].name.clone(),
            });
        }
        // Remap definition index → topological position.
        let mut position = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        // Resolve outputs while `index` still borrows the definitions.
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for o in &self.outputs {
            match index.get(o.as_str()) {
                Some(&i) => outputs.push(NetId(position[i])),
                None => return Err(NetlistError::UnknownOutput { name: o.clone() }),
            }
        }
        drop(index);
        // Place the gates straight into topological order.
        let mut defs = self.defs;
        let gates: Vec<Gate> = order
            .iter()
            .map(|&i| Gate {
                name: std::mem::take(&mut defs[i].name),
                gtype: defs[i].gtype,
                fanin: fanin[defs[i].fanin.clone()]
                    .iter()
                    .map(|&f| NetId(position[f]))
                    .collect(),
            })
            .collect();
        Ok(Circuit::from_topo_gates(self.name, gates, outputs))
    }
}

/// The nested-`Vec` build that the flat [`CircuitBuilder::build`]
/// replaced, kept as its oracle: the body is the old one, reading the
/// definitions in their old layout and flattening the final fan-out lists
/// into the stored one.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::{Circuit, CircuitBuilder};
    use crate::error::NetlistError;
    use crate::gate::{Gate, GateType, NetId};

    pub(crate) fn build(b: CircuitBuilder) -> Result<Circuit, NetlistError> {
        let defs = b.definitions();
        if defs.is_empty() || b.outputs.is_empty() {
            return Err(NetlistError::Empty);
        }
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(defs.len());
        for (i, (name, _, _)) in defs.iter().enumerate() {
            if index.insert(name.as_str(), i).is_some() {
                return Err(NetlistError::DuplicateNet { name: name.clone() });
            }
        }
        // Resolve fan-ins to definition indices.
        let mut fanin_idx: Vec<Vec<usize>> = Vec::with_capacity(defs.len());
        for (name, _, fanin) in &defs {
            let mut row = Vec::with_capacity(fanin.len());
            for f in fanin {
                match index.get(f.as_str()) {
                    Some(&i) => row.push(i),
                    None => {
                        let _ = name;
                        return Err(NetlistError::UnknownNet { name: f.clone() });
                    }
                }
            }
            fanin_idx.push(row);
        }
        // Kahn topological sort.
        let n = defs.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, row) in fanin_idx.iter().enumerate() {
            indegree[i] = row.len();
            for &f in row {
                consumers[f].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .expect("cycle implies a stuck node");
            return Err(NetlistError::Cyclic {
                name: defs[stuck].0.clone(),
            });
        }
        // Remap definition index → topological position.
        let mut position = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        // Resolve outputs while `index` still borrows the definitions.
        let mut outputs = Vec::with_capacity(b.outputs.len());
        for o in &b.outputs {
            match index.get(o.as_str()) {
                Some(&i) => outputs.push(NetId(position[i])),
                None => return Err(NetlistError::UnknownOutput { name: o.clone() }),
            }
        }
        drop(index);
        let mut gates: Vec<Option<Gate>> = vec![None; n];
        for (i, (name, gtype, _)) in defs.into_iter().enumerate() {
            gates[position[i]] = Some(Gate {
                name,
                gtype,
                fanin: fanin_idx[i].iter().map(|&f| NetId(position[f])).collect(),
            });
        }
        let gates: Vec<Gate> = gates.into_iter().map(|g| g.expect("all placed")).collect();
        let inputs: Vec<NetId> = gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.gtype == GateType::Input)
            .map(|(i, _)| NetId(i))
            .collect();
        let mut fanouts: Vec<Vec<NetId>> = vec![Vec::new(); n];
        let mut levels = vec![0usize; n];
        for (i, g) in gates.iter().enumerate() {
            let mut lvl = 0;
            for &f in &g.fanin {
                fanouts[f.index()].push(NetId(i));
                lvl = lvl.max(levels[f.index()] + 1);
            }
            levels[i] = lvl;
        }
        // Flatten into the stored layout.
        let mut fanout_start = vec![0usize];
        for row in &fanouts {
            fanout_start.push(fanout_start[fanout_start.len() - 1] + row.len());
        }
        Ok(Circuit {
            name: b.name,
            gates,
            inputs,
            outputs,
            fanouts: fanouts.concat(),
            fanout_start,
            levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn c17() -> Circuit {
        crate::suite::c17()
    }

    #[test]
    fn c17_shape() {
        let c = c17();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.n_gates(), 6);
        assert_eq!(c.n_nets(), 11);
        assert!(c.depth() >= 3);
    }

    #[test]
    fn topological_invariant() {
        let c = c17();
        for id in c.topo() {
            for &f in &c.gate(id).fanin {
                assert!(f.index() < id.index(), "fan-in after gate");
            }
        }
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let c = c17();
        for id in c.topo() {
            for &f in &c.gate(id).fanin {
                assert!(c.fanouts(f).contains(&id));
            }
        }
    }

    #[test]
    fn c17_truth_sample() {
        let c = c17();
        // All-ones: trace through the real c17.
        // 10 = NAND(1,3)=0, 11 = NAND(3,6)=0, 16 = NAND(2,11)=1,
        // 19 = NAND(11,7)=1, 22 = NAND(10,16)=1, 23 = NAND(16,19)=0.
        assert_eq!(c.eval(&[true; 5]), vec![true, false]);
        // All-zeros: 10=1, 11=1, 16=1, 19=1, 22=0, 23=0... check:
        // 22 = NAND(10,16) = NAND(1,1) = 0; 23 = NAND(16,19) = 0.
        assert_eq!(c.eval(&[false; 5]), vec![false, false]);
    }

    #[test]
    fn builder_rejects_duplicates() {
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        b.input("a");
        b.output("a");
        assert!(matches!(b.build(), Err(NetlistError::DuplicateNet { .. })));
    }

    #[test]
    fn builder_rejects_unknown_references() {
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        b.gate("y", GateType::Not, &["ghost"]).unwrap();
        b.output("y");
        assert!(matches!(b.build(), Err(NetlistError::UnknownNet { .. })));

        let mut b = CircuitBuilder::new("t");
        b.input("a");
        b.output("ghost");
        assert!(matches!(b.build(), Err(NetlistError::UnknownOutput { .. })));
    }

    #[test]
    fn builder_rejects_cycles() {
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        b.gate("x", GateType::Nand, &["a", "y"]).unwrap();
        b.gate("y", GateType::Nand, &["a", "x"]).unwrap();
        b.output("y");
        assert!(matches!(b.build(), Err(NetlistError::Cyclic { .. })));
    }

    #[test]
    fn builder_rejects_bad_fanin() {
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        assert!(matches!(
            b.gate("y", GateType::Nand, &["a"]),
            Err(NetlistError::BadFanin { .. })
        ));
        assert!(matches!(
            b.gate("z", GateType::Not, &["a", "a"]),
            Err(NetlistError::BadFanin { .. })
        ));
    }

    #[test]
    fn builder_rejects_empty() {
        assert!(matches!(
            CircuitBuilder::new("t").build(),
            Err(NetlistError::Empty)
        ));
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        assert!(matches!(b.build(), Err(NetlistError::Empty)));
    }

    #[test]
    fn out_of_order_definitions_are_sorted() {
        let mut b = CircuitBuilder::new("t");
        // Gate defined before its fan-in exists textually.
        b.gate("y", GateType::Not, &["a"]).unwrap();
        b.input("a");
        b.output("y");
        let c = b.build().unwrap();
        let y = c.find("y").unwrap();
        let a = c.find("a").unwrap();
        assert!(a.index() < y.index());
        assert_eq!(c.level(a), 0);
        assert_eq!(c.level(y), 1);
    }

    #[test]
    fn lookup_and_flags() {
        let c = c17();
        let g10 = c.find("10").unwrap();
        assert!(!c.is_input(g10));
        let pi = c.find("1").unwrap();
        assert!(c.is_input(pi));
        let po = c.find("22").unwrap();
        assert!(c.is_output(po));
        assert!(c.find("nonexistent").is_none());
        let h = c.gate_histogram();
        assert_eq!(h[&GateType::Nand], 6);
        assert_eq!(h[&GateType::Input], 5);
    }

    /// Faults [`random_builder`] can inject, each selected by its own
    /// value of a fault draw; any other value injects nothing.
    const DUPLICATE: u8 = 4;
    const UNKNOWN_FANIN: u8 = 5;
    const UNKNOWN_OUTPUT: u8 = 6;
    const REWIRE: u8 = 7;

    fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// A random named DAG: `n_inputs` inputs, then one gate per spec word,
    /// each reading earlier nets (repeats allowed); outputs picked from
    /// any net, so some also feed logic. Names are a shuffled labelling,
    /// and definitions are given in shuffled order, so most fan-ins are
    /// forward references. `faults` may add a duplicate name, a gate on
    /// an unknown net, an unknown output, or rewire a fan-in to the gate
    /// itself or a later net (a cycle when that net reads the gate).
    fn random_builder(
        n_inputs: usize,
        specs: &[u64],
        outs: &[u64],
        seed: u64,
        faults: [u8; 2],
    ) -> CircuitBuilder {
        const TYPES: [GateType; 6] = [
            GateType::Buf,
            GateType::Not,
            GateType::And,
            GateType::Nand,
            GateType::Or,
            GateType::Nor,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = n_inputs + specs.len();
        let mut label: Vec<usize> = (0..n).collect();
        shuffle(&mut label, &mut rng);
        let name = |v: usize| format!("n{}", label[v]);
        let mut defs: Vec<(String, GateType, Vec<String>)> = (0..n_inputs)
            .map(|v| (name(v), GateType::Input, Vec::new()))
            .collect();
        let mut fanins: Vec<Vec<usize>> = specs
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                let arity = if w % 6 < 2 {
                    1
                } else {
                    2 + (w >> 8) as usize % 3
                };
                (0..arity)
                    .map(|k| (w >> (16 + 8 * k)) as usize % (n_inputs + j))
                    .collect()
            })
            .collect();
        if faults.contains(&REWIRE) && !specs.is_empty() {
            let j = rng.gen_range(0..specs.len());
            fanins[j][0] = n_inputs + j + rng.gen_range(0..specs.len() - j);
        }
        for (j, (&w, row)) in specs.iter().zip(&fanins).enumerate() {
            let fanin = row.iter().map(|&f| name(f)).collect();
            defs.push((name(n_inputs + j), TYPES[(w % 6) as usize], fanin));
        }
        if faults.contains(&DUPLICATE) && n > 0 {
            defs.push((name(rng.gen_range(0..n)), GateType::Input, Vec::new()));
        }
        if faults.contains(&UNKNOWN_FANIN) {
            defs.push(("stray".into(), GateType::Not, vec!["ghost".into()]));
        }
        shuffle(&mut defs, &mut rng);
        let mut b = CircuitBuilder::new("random");
        for (net, gtype, fanin) in &defs {
            if *gtype == GateType::Input {
                b.input(net.as_str());
            } else {
                let fanin: Vec<&str> = fanin.iter().map(String::as_str).collect();
                b.gate(net.as_str(), *gtype, &fanin).expect("valid arity");
            }
        }
        for &o in outs.iter().filter(|_| n > 0) {
            b.output(name(o as usize % n));
        }
        if faults.contains(&UNKNOWN_OUTPUT) {
            b.output("ghost");
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The flat build gives the reference build's circuit, or its
        /// error variant with the same name, on random named DAGs.
        #[test]
        fn build_matches_reference(
            n_inputs in 0usize..6,
            specs in prop::collection::vec(0u64..u64::MAX, 0..40),
            outs in prop::collection::vec(0u64..u64::MAX, 0..6),
            seed in 0u64..u64::MAX,
            fault_a in 0u8..8,
            fault_b in 0u8..8,
        ) {
            let n_inputs = if specs.is_empty() { n_inputs } else { n_inputs.max(1) };
            let faults = [fault_a, fault_b];
            let b = random_builder(n_inputs, &specs, &outs, seed, faults);
            let got = b.clone().build();
            prop_assert_eq!(&got, &reference::build(b));
            if faults.iter().all(|&f| f < DUPLICATE) && n_inputs > 0 && !outs.is_empty() {
                prop_assert!(got.is_ok(), "a valid DAG failed: {:?}", got);
            }
        }
    }
}
