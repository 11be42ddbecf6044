//! Building configurations from dataflow graphs: placement and routing.
//!
//! [`ConfigBuilder`] accepts a small dataflow graph — input ports,
//! constants, operations, output ports — places each operation on a
//! compatible functional unit, and routes every edge through the switch
//! network with breadth-first search over free route registers. Fan-out
//! reuses existing route prefixes of the same signal, exactly as the
//! circuit-switched hardware does (one switch input line can feed several
//! of that switch's output muxes).
//!
//! The builder is the mechanism; *policy* (operation ordering and
//! seeded random-restart placement refinement) lives in the compiler's
//! spatial scheduler, which drives the builder with placement hints.
//!
//! The scheduler builds every region many times over, and every build
//! tries many candidate sites, so a candidate costs what its routes cost:
//! the placer keeps its state in dense arrays, undoes a failed candidate
//! from a log instead of restoring a snapshot, reuses one set of search
//! arrays for every route, and formats edge labels only for the error it
//! returns. [`ConfigBuilder::build_within`] serves the scheduler's
//! refinement: it keeps those arrays in a caller-owned [`BuildScratch`]
//! from one build to the next, skips validation, and gives up on a build
//! as soon as it cannot beat the best cost so far.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::config::topo;
use crate::config::{ConfigError, FabricConfig, FabricConfigError, FuConfig, InDir, OperandSrc, OutDir};
use crate::geom::{FabricGeometry, FuId, SwitchId};
use crate::op::{FuKind, FuOp};

/// Handle to a value in the dataflow graph under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(usize);

/// Errors produced while building a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An input or output port index is out of range for the geometry.
    BadPort {
        /// The offending port.
        port: usize,
        /// Whether it was used as an input.
        input: bool,
    },
    /// Two values were bound to the same input port.
    DuplicateInputPort {
        /// The port bound twice.
        port: usize,
    },
    /// Two values were bound to the same output port.
    DuplicateOutputPort {
        /// The port bound twice.
        port: usize,
    },
    /// An operation received the wrong number of arguments.
    ArityMismatch {
        /// The operation.
        op: FuOp,
        /// Arguments provided.
        got: usize,
    },
    /// No free functional unit can execute the operation.
    Unplaceable {
        /// The operation.
        op: FuOp,
    },
    /// No route could be found for an edge.
    Unroutable {
        /// Description of the edge.
        edge: String,
    },
    /// The finished configuration failed validation (internal error).
    Invalid(ConfigError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadPort { port, input } => {
                let dir = if *input { "input" } else { "output" };
                write!(f, "{dir} port {port} does not exist on this geometry")
            }
            BuildError::DuplicateInputPort { port } => {
                write!(f, "input port {port} bound to two values")
            }
            BuildError::DuplicateOutputPort { port } => {
                write!(f, "output port {port} bound to two values")
            }
            BuildError::ArityMismatch { op, got } => {
                write!(f, "{op} takes {} operands, got {got}", op.arity())
            }
            BuildError::Unplaceable { op } => {
                write!(f, "no free functional unit supports {op}")
            }
            BuildError::Unroutable { edge } => write!(f, "no route for edge {edge}"),
            BuildError::Invalid(e) => write!(f, "built configuration is invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Invalid(e)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Input { port: usize },
    Const(u64),
    Op { op: FuOp, args: Vec<ValueId> },
}

/// Builds a [`FabricConfig`] from a dataflow graph.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    geom: FabricGeometry,
    kinds: Vec<FuKind>,
    nodes: Vec<Node>,
    outputs: Vec<(ValueId, usize)>,
    /// Placement hint per node index (`None` past the end or unhinted).
    hints: Vec<Option<FuId>>,
    vec_in: Vec<(usize, Vec<usize>)>,
    vec_out: Vec<(usize, Vec<usize>)>,
    name: String,
}

impl ConfigBuilder {
    /// Creates a builder for `geom` with the default heterogeneous kinds.
    pub fn new(geom: FabricGeometry) -> Self {
        let kinds = geom.fus().map(|f| FuKind::default_pattern(f.row, f.col)).collect();
        Self::build_with_kinds(geom, kinds)
    }

    /// Creates a builder with explicit per-site hardware kinds (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::KindCountMismatch`] if
    /// `kinds.len() != geom.fu_count()`.
    pub fn with_kinds(
        geom: FabricGeometry,
        kinds: Vec<FuKind>,
    ) -> Result<Self, FabricConfigError> {
        if kinds.len() != geom.fu_count() {
            return Err(FabricConfigError::KindCountMismatch {
                expected: geom.fu_count(),
                got: kinds.len(),
            });
        }
        Ok(Self::build_with_kinds(geom, kinds))
    }

    /// Infallible constructor for kinds vectors built from the geometry.
    fn build_with_kinds(geom: FabricGeometry, kinds: Vec<FuKind>) -> Self {
        debug_assert_eq!(kinds.len(), geom.fu_count(), "one kind per FU site");
        ConfigBuilder {
            geom,
            kinds,
            nodes: Vec::new(),
            outputs: Vec::new(),
            hints: Vec::new(),
            vec_in: Vec::new(),
            vec_out: Vec::new(),
            name: String::from("unnamed"),
        }
    }

    /// Sets the configuration name.
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// The geometry this builder targets.
    pub fn geometry(&self) -> FabricGeometry {
        self.geom
    }

    /// Declares a value arriving on input port `port`.
    pub fn input_value(&mut self, port: usize) -> ValueId {
        self.nodes.push(Node::Input { port });
        ValueId(self.nodes.len() - 1)
    }

    /// Declares a configuration-time constant.
    pub fn const_value(&mut self, value: u64) -> ValueId {
        self.nodes.push(Node::Const(value));
        ValueId(self.nodes.len() - 1)
    }

    /// Declares an operation over previously declared values.
    ///
    /// For [`FuOp::Select`], pass `[then_value, else_value, predicate]`.
    ///
    /// # Panics
    ///
    /// Panics if an argument handle comes from a different builder
    /// (out-of-range index).
    pub fn op(&mut self, op: FuOp, args: &[ValueId]) -> ValueId {
        for a in args {
            assert!(a.0 < self.nodes.len(), "argument from a different builder");
        }
        self.nodes.push(Node::Op { op, args: args.to_vec() });
        ValueId(self.nodes.len() - 1)
    }

    /// Binds `value` to output port `port`.
    pub fn output_value(&mut self, value: ValueId, port: usize) -> &mut Self {
        assert!(value.0 < self.nodes.len(), "value from a different builder");
        self.outputs.push((value, port));
        self
    }

    /// Hints that `value` (which must be an operation) should be placed on
    /// `fu`. The spatial scheduler uses hints to drive refinement.
    pub fn hint(&mut self, value: ValueId, fu: FuId) -> &mut Self {
        if self.hints.len() <= value.0 {
            self.hints.resize(value.0 + 1, None);
        }
        self.hints[value.0] = Some(fu);
        self
    }

    /// Drops every placement hint, so the graph can be rebuilt with a
    /// fresh set.
    pub fn clear_hints(&mut self) -> &mut Self {
        self.hints.clear();
        self
    }

    /// Maps vector input port `vp` to scalar input ports.
    pub fn vec_in(&mut self, vp: usize, ports: Vec<usize>) -> &mut Self {
        self.vec_in.push((vp, ports));
        self
    }

    /// Maps vector output port `vp` to scalar output ports.
    pub fn vec_out(&mut self, vp: usize, ports: Vec<usize>) -> &mut Self {
        self.vec_out.push((vp, ports));
        self
    }

    /// Number of operation nodes declared so far.
    pub fn op_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Op { .. })).count()
    }

    /// Whether the graph passes the capacity check: no more operations
    /// than FU sites, and no more uses of any one [`FuOp`] than sites
    /// supporting it.
    ///
    /// Every placement puts each operation on its own site of a
    /// supporting kind, so when this is `false`, [`ConfigBuilder::build`]
    /// fails under any set of hints. When it is `true` a build can still
    /// fail, on routing or on operations competing for shared sites.
    pub fn fits(&self) -> bool {
        let mut uses: Vec<(FuOp, usize)> = Vec::new();
        for node in &self.nodes {
            if let Node::Op { op, .. } = node {
                match uses.iter_mut().find(|(o, _)| o == op) {
                    Some((_, n)) => *n += 1,
                    None => uses.push((*op, 1)),
                }
            }
        }
        uses.iter().map(|&(_, n)| n).sum::<usize>() <= self.kinds.len()
            && uses
                .iter()
                .all(|&(op, n)| n <= self.kinds.iter().filter(|k| k.supports(op)).count())
    }

    /// Places, routes, and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if ports clash, arities mismatch, placement
    /// runs out of compatible units, or routing fails.
    pub fn build(&self) -> Result<FabricConfig, BuildError> {
        let cfg = self
            .build_within(&mut BuildScratch::default(), usize::MAX)?
            .expect("no build reaches an unbounded cost");
        cfg.validate()?;
        Ok(cfg)
    }

    /// Places and routes like [`ConfigBuilder::build`], with two
    /// differences for a caller that builds one graph many times and keeps
    /// the cheapest result: the finished configuration is **not**
    /// validated (validate the one you keep), and the build gives up with
    /// `Ok(None)` once its cost, [`FabricConfig::configured_routes`], is
    /// sure to reach `bound`.
    ///
    /// A build only ever adds route registers, and every edge still to
    /// route (a non-constant operand of an unplaced operation, or an
    /// unrouted output) needs a goal register of its own, so the
    /// registers committed so far plus one per such edge never exceed the
    /// finished cost. The build checks that sum before it starts and after
    /// each placed operation and routed output; a build that completes
    /// therefore costs less than `bound`. `scratch` keeps the placer's
    /// buffers from one call to the next.
    ///
    /// # Errors
    ///
    /// As [`ConfigBuilder::build`], except that a build stopped by the
    /// bound returns `Ok(None)` instead of any later error, and no
    /// [`BuildError::Invalid`] is returned.
    pub fn build_within(
        &self,
        scratch: &mut BuildScratch,
        bound: usize,
    ) -> Result<Option<FabricConfig>, BuildError> {
        Placer::new(self, scratch)?.run(bound)
    }
}

/// The placer's buffers, kept by the caller of
/// [`ConfigBuilder::build_within`] so that repeated builds of a graph
/// reuse them: the route-owner table, the search's stamp, parent and queue
/// arrays, the per-signal reach lists and the free-site heap. Any builder
/// may use any scratch; each build resets what it reads.
#[derive(Debug, Default)]
pub struct BuildScratch {
    /// Which signal (producer node index) occupies each route register,
    /// or [`FREE`].
    reg_owner: Vec<u32>,
    /// States reached by each signal's committed routes, in no order.
    signal_states: Vec<Vec<u32>>,
    /// Placement of op nodes.
    node_fu: Vec<Option<FuId>>,
    /// Occupied FU sites, by FU index.
    fu_used: Vec<bool>,
    /// Changes made by the current candidate, oldest first.
    undo: Vec<Undo>,
    /// Search state, reused by every route: a switch has been reached by
    /// the current search iff its stamp equals `epoch`, and then `parent`
    /// holds, for the state it was first reached in, the state it was
    /// reached from.
    stamp: Vec<u32>,
    epoch: u32,
    parent: Vec<u32>,
    queue: Vec<u32>,
    /// Candidate sites of the operation being placed (see
    /// `Placer::place_op`).
    free: BinaryHeap<Reverse<u32>>,
}

// Route states pack a `(switch, arrival line)` pair as
// `switch_index * InDir::COUNT + InDir::index`, and route registers a
// `(switch, output)` pair as `switch_index * OUT_DIRS + OutDir::index`.
// Switch indices are row-major, so sorting packed states sorts them by
// `(SwitchId, InDir)`, the order the search breaks ties in.

/// Output registers per switch.
const OUT_DIRS: usize = OutDir::ALL.len();
/// `reg_owner` entry of a register no signal drives.
const FREE: u32 = u32::MAX;
/// `parent` entry of a search seed.
const ROOT: u32 = u32::MAX;

/// Why a route could not be laid, before the edge is named.
enum RouteMiss {
    /// The goal register already carries another signal.
    GoalBusy,
    /// No path of free registers reaches the goal switch.
    NoPath,
    /// The signal has nothing to route from.
    Unsourced(BuildError),
}

impl RouteMiss {
    fn into_error(self, label: String) -> BuildError {
        match self {
            RouteMiss::GoalBusy => {
                BuildError::Unroutable { edge: format!("{label}: goal register busy") }
            }
            RouteMiss::NoPath => BuildError::Unroutable { edge: label },
            RouteMiss::Unsourced(e) => e,
        }
    }
}

/// A candidate placement that failed: operand `slot` of `fu`, fed by
/// `value`, could not be routed.
struct Miss {
    value: usize,
    fu: FuId,
    slot: usize,
    why: RouteMiss,
}

impl Miss {
    fn into_error(self) -> BuildError {
        let label = format!("value {} -> {} operand {}", self.value, self.fu, self.slot);
        self.why.into_error(label)
    }
}

/// One change made by the candidate under trial.
#[derive(Debug)]
enum Undo {
    /// A route register was claimed.
    Claim(usize),
    /// A state was appended to this signal's reached list.
    Reach(usize),
}

struct Placer<'a> {
    b: &'a ConfigBuilder,
    s: &'a mut BuildScratch,
    cfg: FabricConfig,
    /// Route registers claimed, the candidate under trial's included.
    claimed: usize,
    /// Edges not yet routed by a committed placement or output route.
    unrouted: usize,
}

impl<'a> Placer<'a> {
    fn new(b: &'a ConfigBuilder, s: &'a mut BuildScratch) -> Result<Self, BuildError> {
        // Port sanity.
        let mut in_ports = vec![false; b.geom.input_ports()];
        for node in &b.nodes {
            if let Node::Input { port } = node {
                if *port >= b.geom.input_ports() {
                    return Err(BuildError::BadPort { port: *port, input: true });
                }
                if std::mem::replace(&mut in_ports[*port], true) {
                    return Err(BuildError::DuplicateInputPort { port: *port });
                }
            }
        }
        let mut out_ports = vec![false; b.geom.output_ports()];
        for (_, port) in &b.outputs {
            if *port >= b.geom.output_ports() {
                return Err(BuildError::BadPort { port: *port, input: false });
            }
            if std::mem::replace(&mut out_ports[*port], true) {
                return Err(BuildError::DuplicateOutputPort { port: *port });
            }
        }
        // Arity sanity.
        let mut edges = b.outputs.len();
        for node in &b.nodes {
            if let Node::Op { op, args } = node {
                if args.len() != op.arity() {
                    return Err(BuildError::ArityMismatch { op: *op, got: args.len() });
                }
                edges += args.iter().filter(|a| !matches!(b.nodes[a.0], Node::Const(_))).count();
            }
        }
        let mut cfg = FabricConfig::empty(b.geom);
        cfg.set_name(b.name.clone());
        let nodes = b.nodes.len();
        s.reg_owner.clear();
        s.reg_owner.resize(b.geom.switch_count() * OUT_DIRS, FREE);
        s.signal_states.iter_mut().for_each(Vec::clear);
        s.signal_states.resize_with(nodes, Vec::new);
        s.node_fu.clear();
        s.node_fu.resize(nodes, None);
        s.fu_used.clear();
        s.fu_used.resize(b.geom.fu_count(), false);
        s.undo.clear();
        // Stamps left by earlier builds are below the epoch, so they read
        // as unreached.
        s.stamp.resize(b.geom.switch_count(), 0);
        s.parent.resize(b.geom.switch_count() * InDir::COUNT, ROOT);
        Ok(Placer { b, s, cfg, claimed: 0, unrouted: edges })
    }

    /// Places every operation and routes every output, or gives up with
    /// `Ok(None)` once the cost is sure to reach `bound` (see
    /// [`ConfigBuilder::build_within`]).
    fn run(mut self, bound: usize) -> Result<Option<FabricConfig>, BuildError> {
        let b = self.b;
        if self.unrouted >= bound {
            return Ok(None);
        }
        for (idx, node) in b.nodes.iter().enumerate() {
            if let Node::Op { op, args } = node {
                self.place_op(idx, *op, args)?;
                if self.claimed + self.unrouted >= bound {
                    return Ok(None);
                }
            }
        }
        for (value, port) in &b.outputs {
            let goal_sw =
                b.geom.output_port_switch(*port).expect("output port validated in Placer::new");
            self.route_signal(value.0, goal_sw, OutDir::ExtOut).map_err(|why| {
                why.into_error(format!("value {} -> output port {port}", value.0))
            })?;
            self.unrouted -= 1;
            if self.claimed + self.unrouted >= bound {
                return Ok(None);
            }
        }
        for (vp, ports) in &b.vec_in {
            self.cfg.set_vec_in(*vp, ports.clone());
        }
        for (vp, ports) in &b.vec_out {
            self.cfg.set_vec_out(*vp, ports.clone());
        }
        Ok(Some(self.cfg))
    }

    /// Rough physical location of a node's output, for placement cost.
    fn node_pos(&self, node: usize) -> Option<(isize, isize)> {
        let sw = match &self.b.nodes[node] {
            Node::Input { port } => self.b.geom.input_port_switch(*port)?,
            Node::Const(_) => return None,
            Node::Op { .. } => topo::fu_output_switch(self.s.node_fu[node]?),
        };
        Some((sw.row as isize, sw.col as isize))
    }

    fn place_op(&mut self, node: usize, op: FuOp, args: &[ValueId]) -> Result<(), BuildError> {
        // Candidate sites: hinted site first, then free compatible sites by
        // distance to the argument producers, ties in row-major order. A
        // key packs `(distance, FU index)`, which orders like
        // `(distance, row, col)`; the heap yields keys lazily, since most
        // operations land on one of their first few sites.
        let geom = self.b.geom;
        let hint = self.b.hints.get(node).copied().flatten().filter(|&fu| geom.fu_valid(fu));
        let mut arg_positions = [(0, 0); 3];
        let mut positioned = 0;
        for pos in args.iter().filter_map(|a| self.node_pos(a.0)) {
            arg_positions[positioned] = pos;
            positioned += 1;
        }
        let arg_positions = &arg_positions[..positioned];
        let mut free = std::mem::take(&mut self.s.free);
        free.clear();
        free.extend(geom.fus().enumerate().filter(|&(_, fu)| self.site_open(fu, op)).map(
            |(idx, fu)| {
                let (r, c) = (fu.row as isize, fu.col as isize);
                let dist: isize =
                    arg_positions.iter().map(|(ar, ac)| (ar - r).abs() + (ac - c).abs()).sum();
                Reverse((dist as u32) << 16 | idx as u32)
            },
        ));
        let by_distance = std::iter::from_fn(|| {
            let Reverse(key) = free.pop()?;
            let idx = (key & 0xffff) as usize;
            Some(FuId { row: idx / geom.cols(), col: idx % geom.cols() })
        });

        // The given operand order, plus the swapped order for commutative
        // binary operations (a routing degree of freedom real spatial
        // schedulers exploit).
        let swapped = (is_commutative(op) && args.len() == 2 && args[0] != args[1])
            .then(|| [args[1], args[0]]);
        let orderings = std::iter::once(args).chain(swapped.as_ref().map(|s| &s[..]));

        let mut placed = Err(None);
        'sites: for fu in hint.into_iter().chain(by_distance) {
            if !self.site_open(fu, op) {
                continue;
            }
            for ordering in orderings.clone() {
                match self.try_place_at(node, op, ordering, fu) {
                    Ok(()) => {
                        placed = Ok(());
                        break 'sites;
                    }
                    Err(miss) => placed = Err(Some(miss)),
                }
            }
        }
        self.s.free = free;
        placed.map_err(|miss| miss.map_or(BuildError::Unplaceable { op }, Miss::into_error))
    }

    /// Whether `fu` is unoccupied and its kind supports `op`.
    fn site_open(&self, fu: FuId, op: FuOp) -> bool {
        let idx = self.b.geom.fu_index(fu);
        !self.s.fu_used[idx] && self.b.kinds[idx].supports(op)
    }

    fn try_place_at(
        &mut self,
        node: usize,
        op: FuOp,
        args: &[ValueId],
        fu: FuId,
    ) -> Result<(), Miss> {
        let mut operands = [OperandSrc::None; 3];
        let mut routed = 0;
        for (slot, arg) in args.iter().enumerate() {
            match &self.b.nodes[arg.0] {
                Node::Const(c) => operands[slot] = OperandSrc::Const(*c),
                _ => {
                    let (goal_sw, goal_dir) = topo::fu_operand_switch(fu, slot);
                    if let Err(why) = self.route_signal(arg.0, goal_sw, goal_dir) {
                        self.rollback();
                        return Err(Miss { value: arg.0, fu, slot, why });
                    }
                    operands[slot] = OperandSrc::Switch;
                    routed += 1;
                }
            }
        }
        // Committed: nothing before this point is rolled back again.
        self.s.undo.clear();
        self.unrouted -= routed;
        self.cfg.set_fu(fu, FuConfig { op, operands });
        self.s.fu_used[self.b.geom.fu_index(fu)] = true;
        self.s.node_fu[node] = Some(fu);
        Ok(())
    }

    /// Undoes every change the current candidate made, newest first.
    fn rollback(&mut self) {
        while let Some(step) = self.s.undo.pop() {
            match step {
                Undo::Claim(reg) => {
                    self.s.reg_owner[reg] = FREE;
                    self.claimed -= 1;
                    let sources = self.cfg.switch_at_mut(reg / OUT_DIRS);
                    sources.clear_source(OutDir::ALL[reg % OUT_DIRS]);
                }
                Undo::Reach(signal) => {
                    self.s.signal_states[signal].pop();
                }
            }
        }
    }

    /// Initial route state of a signal that has no committed routes yet.
    fn seed_state(&self, signal: usize) -> Result<u32, BuildError> {
        let (sw, line) = match &self.b.nodes[signal] {
            Node::Input { port } => {
                (self.b.geom.input_port_switch(*port).expect("validated port"), InDir::ExtIn)
            }
            Node::Op { .. } => {
                let fu = self.s.node_fu[signal].ok_or_else(|| BuildError::Unroutable {
                    edge: format!("value {signal} used before placement"),
                })?;
                (topo::fu_output_switch(fu), InDir::FuOut)
            }
            Node::Const(_) => {
                return Err(BuildError::Unroutable {
                    edge: format!("constant value {signal} cannot be routed"),
                })
            }
        };
        Ok((self.b.geom.switch_index(sw) * InDir::COUNT + line.index()) as u32)
    }

    /// Routes `signal` so that register `(goal_sw, goal_dir)` carries it.
    ///
    /// BFS over `(switch, arrival line)` states; existing routes of the
    /// same signal seed the frontier at distance zero, which makes fan-out
    /// share prefixes.
    fn route_signal(
        &mut self,
        signal: usize,
        goal_sw: SwitchId,
        goal_dir: OutDir,
    ) -> Result<(), RouteMiss> {
        let goal = self.b.geom.switch_index(goal_sw);
        if self.s.reg_owner[goal * OUT_DIRS + goal_dir.index()] != FREE {
            return Err(RouteMiss::GoalBusy);
        }
        // The search breaks shortest-path ties by seed order, so seeds go
        // in sorted to keep routing (and every downstream cycle count)
        // deterministic.
        let fresh = self.s.signal_states[signal].is_empty();
        self.s.queue.clear();
        if fresh {
            let seed = self.seed_state(signal).map_err(RouteMiss::Unsourced)?;
            self.s.queue.push(seed);
        } else {
            let s = &mut *self.s;
            s.queue.extend_from_slice(&s.signal_states[signal]);
            s.queue.sort_unstable();
        }
        if self.s.epoch == u32::MAX {
            self.s.stamp.fill(0);
            self.s.epoch = 0;
        }
        self.s.epoch += 1;
        let s = &mut *self.s;
        for &seed in &s.queue {
            s.stamp[seed as usize / InDir::COUNT] = s.epoch;
            s.parent[seed as usize] = ROOT;
        }

        let goal_state = match self.s.queue.iter().find(|&&s| s as usize / InDir::COUNT == goal) {
            Some(&seed) => seed as usize,
            None => self.search(goal)?,
        };

        // Claim the final register, then walk parents claiming hop registers.
        self.claim(signal, goal * OUT_DIRS + goal_dir.index(), goal_state % InDir::COUNT);
        let mut cursor = goal_state;
        while self.s.parent[cursor] != ROOT {
            let prev = self.s.parent[cursor] as usize;
            let taken = mirror_line(cursor % InDir::COUNT);
            self.claim(signal, prev / InDir::COUNT * OUT_DIRS + taken, prev % InDir::COUNT);
            self.reach(signal, cursor);
            cursor = prev;
        }
        // A seed that came from `seed_state` is reached now too; seeds
        // from committed routes already are.
        if fresh {
            self.reach(signal, cursor);
        }
        Ok(())
    }

    /// Breadth-first search from the seeds in `queue` (their switches
    /// already stamped) for the first state at switch `goal` in queue
    /// order. A state's moves depend on its switch alone, so a later state
    /// at a switch could reach only what the first one already reached,
    /// and no route the search returns passes through it: each switch is
    /// pushed once, in the first state to reach it. The first goal state
    /// pushed is then the one a pop-time test would find first, so the
    /// search stops there instead of draining the layer.
    fn search(&mut self, goal: usize) -> Result<usize, RouteMiss> {
        let (rows, cols) = (self.b.geom.rows(), self.b.geom.cols());
        let stride = cols + 1;
        let s = &mut *self.s;
        let mut head = 0;
        while let Some(&state) = s.queue.get(head) {
            head += 1;
            let sw = state as usize / InDir::COUNT;
            let (row, col) = (sw / stride, sw % stride);
            // North, South, East, West: `OutDir::index` 0..4.
            let neighbours = [
                (row > 0).then(|| sw - stride),
                (row < rows).then(|| sw + stride),
                (col < cols).then(|| sw + 1),
                (col > 0).then(|| sw - 1),
            ];
            for (d, next_sw) in neighbours.into_iter().enumerate() {
                let Some(next_sw) = next_sw else { continue };
                if s.reg_owner[sw * OUT_DIRS + d] != FREE || s.stamp[next_sw] == s.epoch {
                    continue;
                }
                s.stamp[next_sw] = s.epoch;
                let next = next_sw * InDir::COUNT + mirror_line(d);
                s.parent[next] = state;
                if next_sw == goal {
                    return Ok(next);
                }
                s.queue.push(next as u32);
            }
        }
        Err(RouteMiss::NoPath)
    }

    /// Drives register `reg` from input line `line` of its switch.
    fn claim(&mut self, signal: usize, reg: usize, line: usize) {
        let sources = self.cfg.switch_at_mut(reg / OUT_DIRS);
        sources.set_source(OutDir::ALL[reg % OUT_DIRS], InDir::ALL[line]);
        self.s.reg_owner[reg] = signal as u32;
        self.s.undo.push(Undo::Claim(reg));
        self.claimed += 1;
    }

    fn reach(&mut self, signal: usize, state: usize) {
        self.s.signal_states[signal].push(state as u32);
        self.s.undo.push(Undo::Reach(signal));
    }
}

/// Maps a mesh output direction to the line it arrives on at the
/// neighbour (`topo::mirror`), and back: North and South swap, as do East
/// and West, which is index `^ 1` in both enums.
fn mirror_line(index: usize) -> usize {
    debug_assert!(index < 4, "only mesh directions mirror");
    index ^ 1
}

/// Whether the operand order of `op` can be swapped.
fn is_commutative(op: FuOp) -> bool {
    matches!(
        op,
        FuOp::IAdd
            | FuOp::IMul
            | FuOp::IAnd
            | FuOp::IOr
            | FuOp::IXor
            | FuOp::IMax
            | FuOp::IMin
            | FuOp::ICmpEq
            | FuOp::ICmpNe
            | FuOp::FAdd
            | FuOp::FMul
            | FuOp::FMax
            | FuOp::FMin
            | FuOp::PredAnd
            | FuOp::PredOr
    )
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Fabric;

    fn geom() -> FabricGeometry {
        FabricGeometry::new(4, 4)
    }

    #[test]
    fn build_single_op() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        let cfg = b.build().unwrap();
        assert_eq!(cfg.configured_fus(), 1);
        assert!(cfg.configured_routes() >= 3);
    }

    #[test]
    fn build_respects_name() {
        let mut b = ConfigBuilder::new(geom());
        b.set_name("vecadd");
        let x = b.input_value(0);
        b.output_value(x, 0);
        assert_eq!(b.build().unwrap().name(), "vecadd");
    }

    #[test]
    fn fanout_shares_prefix() {
        // x feeds two ops; the routed configuration must still validate
        // and execute correctly (x duplicated by the switch network).
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        let d = b.op(FuOp::IMul, &[x, x]);
        b.output_value(s, 0);
        b.output_value(d, 1);
        let cfg = b.build().expect("fanout must route");

        let mut f = Fabric::new(geom());
        f.load_config(&cfg).unwrap();
        f.try_send(0, 7);
        f.try_send(1, 3);
        let mut got = (None, None);
        for _ in 0..200 {
            f.tick();
            if got.0.is_none() {
                got.0 = f.try_recv(0);
            }
            if got.1.is_none() {
                got.1 = f.try_recv(1);
            }
            if got.0.is_some() && got.1.is_some() {
                break;
            }
        }
        assert_eq!(got, (Some(10), Some(49)));
    }

    #[test]
    fn chain_of_ops_executes() {
        // ((a+b) * (a-b)) routed through three FUs.
        let mut b = ConfigBuilder::new(geom());
        let a = b.input_value(0);
        let c = b.input_value(1);
        let sum = b.op(FuOp::IAdd, &[a, c]);
        let diff = b.op(FuOp::ISub, &[a, c]);
        let prod = b.op(FuOp::IMul, &[sum, diff]);
        b.output_value(prod, 0);
        let cfg = b.build().unwrap();
        let mut f = Fabric::new(geom());
        f.load_config(&cfg).unwrap();
        f.try_send(0, 9);
        f.try_send(1, 4);
        assert_eq!(f.run_until_output(0, 300), Some((13 * 5) as u64));
    }

    #[test]
    fn duplicate_input_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let _ = b.input_value(0);
        let _ = b.input_value(0);
        let e = b.build().unwrap_err();
        assert!(matches!(e, BuildError::DuplicateInputPort { port: 0 }));
    }

    #[test]
    fn duplicate_output_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        b.output_value(x, 0);
        b.output_value(y, 0);
        assert!(matches!(b.build().unwrap_err(), BuildError::DuplicateOutputPort { port: 0 }));
    }

    #[test]
    fn bad_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let _ = b.input_value(999);
        assert!(matches!(b.build().unwrap_err(), BuildError::BadPort { input: true, .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let _bad = b.op(FuOp::IAdd, &[x]);
        assert!(matches!(b.build().unwrap_err(), BuildError::ArityMismatch { .. }));
    }

    #[test]
    fn unplaceable_when_no_capable_unit() {
        // All-IntSimple hardware cannot place a multiply.
        let g = FabricGeometry::new(2, 2);
        let mut b = ConfigBuilder::with_kinds(g, vec![FuKind::IntSimple; 4]).unwrap();
        let x = b.input_value(0);
        let y = b.input_value(1);
        let m = b.op(FuOp::IMul, &[x, y]);
        b.output_value(m, 0);
        assert!(matches!(b.build().unwrap_err(), BuildError::Unplaceable { op: FuOp::IMul }));
    }

    #[test]
    fn placement_exhaustion_detected() {
        // A 1x1 IntSimple fabric can host exactly one op.
        let g = FabricGeometry::new(1, 1);
        let mut b = ConfigBuilder::with_kinds(g, vec![FuKind::IntSimple; 1]).unwrap();
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s1 = b.op(FuOp::IAdd, &[x, y]);
        let s2 = b.op(FuOp::ISub, &[s1, y]);
        b.output_value(s2, 0);
        let e = b.build().unwrap_err();
        assert!(
            matches!(e, BuildError::Unplaceable { .. } | BuildError::Unroutable { .. }),
            "got {e}"
        );
    }

    #[test]
    fn hint_pins_placement() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        let target = FuId { row: 2, col: 2 };
        b.hint(s, target);
        let cfg = b.build().unwrap();
        assert!(cfg.fu(target).is_some(), "hinted site must be used");
        assert_eq!(cfg.fu(target).unwrap().op, FuOp::IAdd);
    }

    #[test]
    fn deep_graph_on_8x8() {
        // A reduction tree of 8 inputs: 7 adders.
        let g = FabricGeometry::new(8, 8);
        let mut b = ConfigBuilder::new(g);
        let mut layer: Vec<ValueId> = (0..8).map(|p| b.input_value(p)).collect();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|pair| b.op(FuOp::IAdd, &[pair[0], pair[1]])).collect();
        }
        b.output_value(layer[0], 0);
        let cfg = b.build().expect("reduction tree must place and route on 8x8");
        let mut f = Fabric::new(g);
        f.load_config(&cfg).unwrap();
        for p in 0..8 {
            assert!(f.try_send(p, (p + 1) as u64));
        }
        assert_eq!(f.run_until_output(0, 500), Some(36));
    }

    #[test]
    fn vector_port_maps_carried_through() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        b.vec_in(0, vec![0, 1]);
        b.vec_out(0, vec![0]);
        let cfg = b.build().unwrap();
        assert_eq!(cfg.vec_in(0), &[0, 1]);
        assert_eq!(cfg.vec_out(0), &[0]);
    }

    /// One placement hint: an operation and the site it is hinted to.
    type Hint = (ValueId, FuId);

    /// Seeded random case `case`: a graph on a 1x1 to 3x3 grid of one of
    /// three kind mixes, and 20 random hint sets over its operations.
    fn random_case(rng: &mut dyser_rng::Rng64, case: usize) -> (ConfigBuilder, Vec<Vec<Hint>>) {
        const OPS: [FuOp; 10] = [
            FuOp::IAdd,
            FuOp::ISub,
            FuOp::IMul,
            FuOp::IXor,
            FuOp::ICmpSLt,
            FuOp::FAdd,
            FuOp::FMul,
            FuOp::FSqrt,
            FuOp::Select,
            FuOp::PassA,
        ];
        let g = FabricGeometry::new(rng.gen_range(1..4), rng.gen_range(1..4));
        let kinds = match case % 3 {
            0 => g.fus().map(|fu| FuKind::default_pattern(fu.row, fu.col)).collect(),
            1 => vec![FuKind::IntSimple; g.fu_count()],
            _ => vec![FuKind::Universal; g.fu_count()],
        };
        let mut b = ConfigBuilder::with_kinds(g, kinds).unwrap();
        let mut values: Vec<ValueId> =
            (0..rng.gen_range(1..4)).map(|p| b.input_value(p)).collect();
        values.push(b.const_value(7));
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(1..2 * g.fu_count() + 2) {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let args: Vec<ValueId> =
                (0..op.arity()).map(|_| values[rng.gen_range(0..values.len())]).collect();
            let v = b.op(op, &args);
            values.push(v);
            ops.push(v);
        }
        b.output_value(*ops.last().unwrap(), 0);
        let hint_sets = (0..20)
            .map(|_| {
                let mut hints = Vec::new();
                for &v in &ops {
                    if rng.gen_bool(0.5) {
                        let row = rng.gen_range(0..g.rows());
                        hints.push((v, FuId { row, col: rng.gen_range(0..g.cols()) }));
                    }
                }
                hints
            })
            .collect();
        (b, hint_sets)
    }

    /// Replaces `b`'s hints with `hints`.
    fn set_hints(b: &mut ConfigBuilder, hints: &[Hint]) {
        b.clear_hints();
        for &(v, fu) in hints {
            b.hint(v, fu);
        }
    }

    /// The 300 random cases: whenever the capacity check fails, the graph
    /// builds neither greedily nor under any of its hint sets, and every
    /// graph that builds passes the check. The check is what lets the
    /// scheduler skip refinement without changing its result.
    #[test]
    fn capacity_check_holds_for_every_build() {
        let mut rng = dyser_rng::Rng64::seed_from_u64(0xF175);
        let (mut refused, mut built) = (0, 0);
        for case in 0..300 {
            let (mut b, hint_sets) = random_case(&mut rng, case);
            let mut builds = usize::from(b.build().is_ok());
            for hints in &hint_sets {
                set_hints(&mut b, hints);
                builds += usize::from(b.build().is_ok());
            }
            assert!(b.fits() || builds == 0, "case {case}: {builds} builds of an unfittable graph");
            if !b.fits() {
                refused += 1;
            }
            if builds > 0 {
                built += 1;
            }
        }
        assert!(refused > 30 && built > 30, "exercised: {refused} refused, {built} built");
    }

    /// The 300 random cases, refined the scheduler's way (keep the
    /// cheapest of the greedy build and one build per hint set): bounding
    /// each build by the best cost so far and validating only the builds
    /// about to be kept adopts what building and validating every
    /// candidate, then comparing, adopts.
    #[test]
    fn bounded_refinement_adopts_what_building_every_candidate_adopts() {
        let mut rng = dyser_rng::Rng64::seed_from_u64(0xF175);
        let (mut stopped, mut improved) = (0, 0);
        for case in 0..300 {
            let (mut b, hint_sets) = random_case(&mut rng, case);

            // The reference: the loop before builds were bounded.
            let mut reference = b.build();
            let mut reference_cost = reference.as_ref().ok().map(FabricConfig::configured_routes);
            for hints in &hint_sets {
                set_hints(&mut b, hints);
                if let Ok(candidate) = b.build() {
                    let cost = candidate.configured_routes();
                    if reference_cost.is_none_or(|best| cost < best) {
                        reference_cost = Some(cost);
                        reference = Ok(candidate);
                    }
                }
            }

            b.clear_hints();
            let mut scratch = BuildScratch::default();
            let mut best = b.build_within(&mut scratch, usize::MAX).and_then(|greedy| {
                let greedy = greedy.expect("an unbounded build completes");
                greedy.validate()?;
                Ok(greedy)
            });
            for hints in &hint_sets {
                set_hints(&mut b, hints);
                let bound = best.as_ref().map_or(usize::MAX, FabricConfig::configured_routes);
                match b.build_within(&mut scratch, bound) {
                    Ok(Some(candidate)) => {
                        let cost = candidate.configured_routes();
                        assert!(cost < bound, "case {case}: a completed build costs {cost}");
                        if candidate.validate().is_ok() {
                            best = Ok(candidate);
                            improved += 1;
                        }
                    }
                    Ok(None) => stopped += 1,
                    Err(_) => {}
                }
            }
            assert_eq!(best, reference, "case {case}");
        }
        assert!(stopped > 1000 && improved > 30, "exercised: {stopped} stopped, {improved} kept");
    }

    #[test]
    fn fp_pipeline_executes() {
        let g = geom();
        let mut b = ConfigBuilder::new(g);
        let x = b.input_value(0);
        let y = b.input_value(1);
        let prod = b.op(FuOp::FMul, &[x, y]);
        let k = b.const_value(1.0f64.to_bits());
        let shifted = b.op(FuOp::FAdd, &[prod, k]);
        b.output_value(shifted, 0);
        let cfg = b.build().unwrap();
        let mut f = Fabric::new(g);
        f.load_config(&cfg).unwrap();
        f.try_send(0, 2.5f64.to_bits());
        f.try_send(1, 4.0f64.to_bits());
        let out = f.run_until_output(0, 300).expect("fp chain produces output");
        assert_eq!(f64::from_bits(out), 11.0);
    }
}
