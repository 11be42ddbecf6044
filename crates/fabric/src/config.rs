//! Fabric configurations: the "bitstream" that turns the grid into one
//! compound functional unit.
//!
//! A configuration assigns each switch-output multiplexer a source
//! direction and each FU an operation with operand bindings. The model
//! validates structural legality (links exist, arities match, routes are
//! acyclic) and computes the configuration frame size, from which the
//! configuration-load latency is derived — the overhead the paper's
//! invocation-count experiment (E7) amortises.

use std::fmt;

use crate::geom::{FabricGeometry, FuId, SwitchId};
use crate::op::{FuKind, FuOp};

/// A switch input line: where a value arrives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InDir {
    /// From the north neighbour switch.
    North,
    /// From the south neighbour switch.
    South,
    /// From the east neighbour switch.
    East,
    /// From the west neighbour switch.
    West,
    /// From the north-west FU's result.
    FuOut,
    /// From this switch's external input port.
    ExtIn,
}

impl InDir {
    /// All input directions.
    pub const ALL: [InDir; 6] =
        [InDir::North, InDir::South, InDir::East, InDir::West, InDir::FuOut, InDir::ExtIn];

    /// Number of distinct input lines per switch.
    pub const COUNT: usize = 6;

    /// Index used for flat storage.
    pub const fn index(self) -> usize {
        match self {
            InDir::North => 0,
            InDir::South => 1,
            InDir::East => 2,
            InDir::West => 3,
            InDir::FuOut => 4,
            InDir::ExtIn => 5,
        }
    }
}

/// A switch output line: where a value is driven to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutDir {
    /// To the north neighbour switch.
    North,
    /// To the south neighbour switch.
    South,
    /// To the east neighbour switch.
    East,
    /// To the west neighbour switch.
    West,
    /// To operand 0 of the south-east FU.
    FuOp0,
    /// To operand 1 of the south-west FU.
    FuOp1,
    /// To operand 2 (predicate) of the north-east FU.
    FuOp2,
    /// To this switch's external output port.
    ExtOut,
}

impl OutDir {
    /// All output directions.
    pub const ALL: [OutDir; 8] = [
        OutDir::North,
        OutDir::South,
        OutDir::East,
        OutDir::West,
        OutDir::FuOp0,
        OutDir::FuOp1,
        OutDir::FuOp2,
        OutDir::ExtOut,
    ];

    /// Index used for flat storage.
    pub fn index(self) -> usize {
        match self {
            OutDir::North => 0,
            OutDir::South => 1,
            OutDir::East => 2,
            OutDir::West => 3,
            OutDir::FuOp0 => 4,
            OutDir::FuOp1 => 5,
            OutDir::FuOp2 => 6,
            OutDir::ExtOut => 7,
        }
    }
}

/// Topology helpers tying directions to neighbours and FUs.
pub(crate) mod topo {
    use super::*;

    /// The neighbour switch reached by `d`, if any (N/S/E/W only).
    pub fn neighbor(geom: &FabricGeometry, sw: SwitchId, d: OutDir) -> Option<SwitchId> {
        let (r, c) = (sw.row as isize, sw.col as isize);
        let (nr, nc) = match d {
            OutDir::North => (r - 1, c),
            OutDir::South => (r + 1, c),
            OutDir::East => (r, c + 1),
            OutDir::West => (r, c - 1),
            _ => return None,
        };
        if nr < 0 || nc < 0 {
            return None;
        }
        let n = SwitchId { row: nr as usize, col: nc as usize };
        geom.switch_valid(n).then_some(n)
    }

    /// The input line on the receiving switch when sending in direction `d`.
    pub fn mirror(d: OutDir) -> InDir {
        match d {
            OutDir::North => InDir::South,
            OutDir::South => InDir::North,
            OutDir::East => InDir::West,
            OutDir::West => InDir::East,
            _ => unreachable!("only mesh directions mirror"),
        }
    }

    /// The FU (and operand slot) driven by output `d` of switch `sw`.
    ///
    /// Operand 0 comes from the FU's north-west switch, operand 1 from its
    /// north-east switch, operand 2 from its south-west switch.
    pub fn fu_operand_target(
        geom: &FabricGeometry,
        sw: SwitchId,
        d: OutDir,
    ) -> Option<(FuId, usize)> {
        let (r, c) = (sw.row as isize, sw.col as isize);
        let (fr, fc, slot) = match d {
            OutDir::FuOp0 => (r, c, 0),
            OutDir::FuOp1 => (r, c - 1, 1),
            OutDir::FuOp2 => (r - 1, c, 2),
            _ => return None,
        };
        if fr < 0 || fc < 0 {
            return None;
        }
        let fu = FuId { row: fr as usize, col: fc as usize };
        geom.fu_valid(fu).then_some((fu, slot))
    }

    /// The switch that delivers operand `slot` to `fu`.
    pub fn fu_operand_switch(fu: FuId, slot: usize) -> (SwitchId, OutDir) {
        match slot {
            0 => (SwitchId { row: fu.row, col: fu.col }, OutDir::FuOp0),
            1 => (SwitchId { row: fu.row, col: fu.col + 1 }, OutDir::FuOp1),
            2 => (SwitchId { row: fu.row + 1, col: fu.col }, OutDir::FuOp2),
            _ => panic!("operand slot {slot} out of range"),
        }
    }

    /// The switch that receives `fu`'s result (its south-east switch).
    pub fn fu_output_switch(fu: FuId) -> SwitchId {
        SwitchId { row: fu.row + 1, col: fu.col + 1 }
    }

    /// The FU whose output feeds switch `sw`'s `FuOut` line, if any.
    pub fn fu_feeding(geom: &FabricGeometry, sw: SwitchId) -> Option<FuId> {
        if sw.row == 0 || sw.col == 0 {
            return None;
        }
        let fu = FuId { row: sw.row - 1, col: sw.col - 1 };
        geom.fu_valid(fu).then_some(fu)
    }
}

/// The per-switch output multiplexer settings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchConfig {
    sources: [Option<InDir>; 8],
}

impl SwitchConfig {
    /// The configured source of output `d`, if any.
    pub fn source(&self, d: OutDir) -> Option<InDir> {
        self.sources[d.index()]
    }

    /// Sets the source of output `d`.
    pub fn set_source(&mut self, d: OutDir, src: InDir) {
        self.sources[d.index()] = Some(src);
    }

    /// Clears the source of output `d`.
    pub fn clear_source(&mut self, d: OutDir) {
        self.sources[d.index()] = None;
    }

    /// Iterates over configured `(output, source)` pairs.
    pub fn routes(&self) -> impl Iterator<Item = (OutDir, InDir)> + '_ {
        OutDir::ALL.into_iter().filter_map(|d| self.sources[d.index()].map(|s| (d, s)))
    }

    /// Whether no output is configured.
    pub fn is_empty(&self) -> bool {
        self.sources.iter().all(Option::is_none)
    }
}

/// The source of one FU operand slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSrc {
    /// The slot is unused.
    None,
    /// Delivered by the slot's dedicated switch link.
    Switch,
    /// A configuration-time constant (always available; never consumes).
    Const(u64),
}

/// The configuration of one FU site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// The operation this site performs.
    pub op: FuOp,
    /// Sources of the three operand slots.
    pub operands: [OperandSrc; 3],
}

/// Errors detected when validating or loading a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The configuration was built for a different geometry.
    GeometryMismatch {
        /// Geometry the configuration was built for.
        config: FabricGeometry,
        /// Geometry of the fabric it was loaded into.
        fabric: FabricGeometry,
    },
    /// A switch output is configured but has no physical destination.
    DanglingOutput {
        /// The switch.
        switch: SwitchId,
        /// The configured output.
        out: OutDir,
    },
    /// A switch output sources from a line that does not physically exist.
    MissingInput {
        /// The switch.
        switch: SwitchId,
        /// The configured source line.
        source: InDir,
    },
    /// An FU operand slot expects a switch value but no switch drives it.
    UndrivenOperand {
        /// The FU.
        fu: FuId,
        /// The operand slot.
        slot: usize,
    },
    /// A switch drives an FU operand slot the FU does not use.
    UnusedDrive {
        /// The FU.
        fu: FuId,
        /// The operand slot.
        slot: usize,
    },
    /// An FU's operand bindings do not match its operation's arity.
    ArityMismatch {
        /// The FU.
        fu: FuId,
        /// Its operation.
        op: FuOp,
    },
    /// The FU site's hardware kind cannot execute the configured operation.
    UnsupportedOp {
        /// The FU.
        fu: FuId,
        /// Its hardware kind.
        kind: FuKind,
        /// The configured operation.
        op: FuOp,
    },
    /// The switch routes contain a cycle.
    RoutingCycle {
        /// A switch on the cycle.
        switch: SwitchId,
    },
    /// A vector port maps to a scalar port that does not exist.
    BadVectorPort {
        /// The vector port index.
        vport: usize,
        /// The offending scalar port.
        port: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::GeometryMismatch { config, fabric } => {
                write!(f, "configuration is for a {config} fabric, not {fabric}")
            }
            ConfigError::DanglingOutput { switch, out } => {
                write!(f, "{switch} output {out:?} has no physical destination")
            }
            ConfigError::MissingInput { switch, source } => {
                write!(f, "{switch} sources from non-existent line {source:?}")
            }
            ConfigError::UndrivenOperand { fu, slot } => {
                write!(f, "{fu} operand {slot} expects a switch value but none is routed")
            }
            ConfigError::UnusedDrive { fu, slot } => {
                write!(f, "a switch drives {fu} operand {slot}, which the FU does not use")
            }
            ConfigError::ArityMismatch { fu, op } => {
                write!(f, "{fu} operand bindings do not match the arity of {op}")
            }
            ConfigError::UnsupportedOp { fu, kind, op } => {
                write!(f, "{fu} is a {kind:?} unit and cannot execute {op}")
            }
            ConfigError::RoutingCycle { switch } => {
                write!(f, "switch routes form a cycle through {switch}")
            }
            ConfigError::BadVectorPort { vport, port } => {
                write!(f, "vector port vp{vport} references non-existent scalar port {port}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// User-reachable construction errors: a malformed request for fabric
/// hardware, as opposed to [`ConfigError`], which reports a structurally
/// invalid *routing configuration*.
///
/// These used to be `panic!`s/`assert!`s deep inside the fabric crate;
/// they are now returned as values from the public constructors
/// ([`crate::Fabric::with_kinds`], [`crate::ConfigBuilder::with_kinds`],
/// [`crate::Fabric::set_fifo_depth`]) and the checked `try_*` accessors,
/// while internal post-validation invariants remain debug assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfigError {
    /// A per-site kinds vector whose length does not match the grid (a
    /// mismatched hardware frame).
    KindCountMismatch {
        /// FU sites in the geometry.
        expected: usize,
        /// Kinds supplied.
        got: usize,
    },
    /// A switch or FU coordinate outside the grid.
    OutOfGrid {
        /// What was addressed (`"switch"` or `"fu"`).
        what: &'static str,
        /// Requested row.
        row: usize,
        /// Requested column.
        col: usize,
        /// FU rows in the geometry (switch grids have one more).
        rows: usize,
        /// FU columns in the geometry (switch grids have one more).
        cols: usize,
    },
    /// A port index beyond the geometry's edge.
    BadPort {
        /// The offending port number.
        port: usize,
        /// Whether an input (true) or output (false) port was addressed.
        input: bool,
        /// Number of ports of that kind the geometry exposes.
        limit: usize,
    },
    /// A port FIFO depth of zero (the interface could never move data).
    ZeroFifoDepth,
    /// Grid dimensions outside `1..=FabricGeometry::MAX_DIM`.
    BadGeometry {
        /// Requested FU rows.
        rows: usize,
        /// Requested FU columns.
        cols: usize,
    },
}

impl fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricConfigError::KindCountMismatch { expected, got } => {
                write!(f, "kinds vector has {got} entries but the grid has {expected} FU sites")
            }
            FabricConfigError::OutOfGrid { what, row, col, rows, cols } => write!(
                f,
                "{what} ({row},{col}) outside a {rows}x{cols} fabric"
            ),
            FabricConfigError::BadPort { port, input, limit } => {
                let dir = if *input { "input" } else { "output" };
                write!(f, "{dir} port {port} does not exist (geometry has {limit})")
            }
            FabricConfigError::ZeroFifoDepth => write!(f, "port FIFO depth must be non-zero"),
            FabricConfigError::BadGeometry { rows, cols } => write!(
                f,
                "fabric geometry {rows}x{cols} is outside the supported 1..={} range",
                crate::FabricGeometry::MAX_DIM
            ),
        }
    }
}

impl std::error::Error for FabricConfigError {}

/// A complete fabric configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    name: String,
    geometry: FabricGeometry,
    switches: Vec<SwitchConfig>,
    fus: Vec<Option<FuConfig>>,
    vec_in: Vec<Vec<usize>>,
    vec_out: Vec<Vec<usize>>,
}

impl FabricConfig {
    /// Creates an empty configuration for `geometry`.
    pub fn empty(geometry: FabricGeometry) -> Self {
        FabricConfig {
            name: String::from("unnamed"),
            geometry,
            switches: vec![SwitchConfig::default(); geometry.switch_count()],
            fus: vec![None; geometry.fu_count()],
            vec_in: Vec::new(),
            vec_out: Vec::new(),
        }
    }

    /// The geometry this configuration targets.
    pub fn geometry(&self) -> FabricGeometry {
        self.geometry
    }

    /// A human-readable name (the compiler uses the region name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the configuration name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The switch configuration at `sw`.
    ///
    /// # Panics
    ///
    /// Panics if `sw` is out of range.
    pub fn switch(&self, sw: SwitchId) -> &SwitchConfig {
        &self.switches[self.geometry.switch_index(sw)]
    }

    /// Mutable access to the switch configuration at `sw`.
    ///
    /// # Panics
    ///
    /// Panics if `sw` is out of range.
    pub fn switch_mut(&mut self, sw: SwitchId) -> &mut SwitchConfig {
        let idx = self.geometry.switch_index(sw);
        &mut self.switches[idx]
    }

    /// Mutable access to the switch configuration at row-major switch
    /// index `index` ([`FabricGeometry::switch_index`]).
    pub(crate) fn switch_at_mut(&mut self, index: usize) -> &mut SwitchConfig {
        &mut self.switches[index]
    }

    /// The FU configuration at `fu`, if configured.
    pub fn fu(&self, fu: FuId) -> Option<&FuConfig> {
        self.fus[self.geometry.fu_index(fu)].as_ref()
    }

    /// Sets the FU configuration at `fu`.
    pub fn set_fu(&mut self, fu: FuId, cfg: FuConfig) {
        let idx = self.geometry.fu_index(fu);
        self.fus[idx] = Some(cfg);
    }

    /// Checked variant of [`FabricConfig::switch`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::OutOfGrid`] if `sw` is outside the grid.
    pub fn try_switch(&self, sw: SwitchId) -> Result<&SwitchConfig, FabricConfigError> {
        self.check_switch(sw)?;
        Ok(&self.switches[self.geometry.switch_index(sw)])
    }

    /// Checked variant of [`FabricConfig::switch_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::OutOfGrid`] if `sw` is outside the grid.
    pub fn try_switch_mut(&mut self, sw: SwitchId) -> Result<&mut SwitchConfig, FabricConfigError> {
        self.check_switch(sw)?;
        let idx = self.geometry.switch_index(sw);
        Ok(&mut self.switches[idx])
    }

    /// Checked variant of [`FabricConfig::fu`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::OutOfGrid`] if `fu` is outside the grid.
    pub fn try_fu(&self, fu: FuId) -> Result<Option<&FuConfig>, FabricConfigError> {
        self.check_fu(fu)?;
        Ok(self.fus[self.geometry.fu_index(fu)].as_ref())
    }

    /// Checked variant of [`FabricConfig::set_fu`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::OutOfGrid`] if `fu` is outside the grid.
    pub fn try_set_fu(&mut self, fu: FuId, cfg: FuConfig) -> Result<(), FabricConfigError> {
        self.check_fu(fu)?;
        let idx = self.geometry.fu_index(fu);
        self.fus[idx] = Some(cfg);
        Ok(())
    }

    fn check_switch(&self, sw: SwitchId) -> Result<(), FabricConfigError> {
        if self.geometry.switch_valid(sw) {
            Ok(())
        } else {
            Err(FabricConfigError::OutOfGrid {
                what: "switch",
                row: sw.row,
                col: sw.col,
                rows: self.geometry.rows(),
                cols: self.geometry.cols(),
            })
        }
    }

    fn check_fu(&self, fu: FuId) -> Result<(), FabricConfigError> {
        if self.geometry.fu_valid(fu) {
            Ok(())
        } else {
            Err(FabricConfigError::OutOfGrid {
                what: "fu",
                row: fu.row,
                col: fu.col,
                rows: self.geometry.rows(),
                cols: self.geometry.cols(),
            })
        }
    }

    /// The scalar input ports behind vector input port `vp` (empty if unmapped).
    pub fn vec_in(&self, vp: usize) -> &[usize] {
        self.vec_in.get(vp).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The scalar output ports behind vector output port `vp` (empty if unmapped).
    pub fn vec_out(&self, vp: usize) -> &[usize] {
        self.vec_out.get(vp).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Maps vector input port `vp` to a list of scalar input ports.
    pub fn set_vec_in(&mut self, vp: usize, ports: Vec<usize>) {
        if self.vec_in.len() <= vp {
            self.vec_in.resize(vp + 1, Vec::new());
        }
        self.vec_in[vp] = ports;
    }

    /// Maps vector output port `vp` to a list of scalar output ports.
    pub fn set_vec_out(&mut self, vp: usize, ports: Vec<usize>) {
        if self.vec_out.len() <= vp {
            self.vec_out.resize(vp + 1, Vec::new());
        }
        self.vec_out[vp] = ports;
    }

    /// Checked variant of [`FabricConfig::set_vec_in`]: rejects scalar
    /// port numbers the geometry does not expose.
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::BadPort`] on an out-of-range port.
    pub fn try_set_vec_in(
        &mut self,
        vp: usize,
        ports: Vec<usize>,
    ) -> Result<(), FabricConfigError> {
        let limit = self.geometry.input_ports();
        if let Some(&port) = ports.iter().find(|&&p| p >= limit) {
            return Err(FabricConfigError::BadPort { port, input: true, limit });
        }
        self.set_vec_in(vp, ports);
        Ok(())
    }

    /// Checked variant of [`FabricConfig::set_vec_out`]: rejects scalar
    /// port numbers the geometry does not expose.
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::BadPort`] on an out-of-range port.
    pub fn try_set_vec_out(
        &mut self,
        vp: usize,
        ports: Vec<usize>,
    ) -> Result<(), FabricConfigError> {
        let limit = self.geometry.output_ports();
        if let Some(&port) = ports.iter().find(|&&p| p >= limit) {
            return Err(FabricConfigError::BadPort { port, input: false, limit });
        }
        self.set_vec_out(vp, ports);
        Ok(())
    }

    /// Number of configured FU sites.
    pub fn configured_fus(&self) -> usize {
        self.fus.iter().flatten().count()
    }

    /// Number of configured switch-output routes.
    pub fn configured_routes(&self) -> usize {
        self.switches.iter().map(|s| s.routes().count()).sum()
    }

    /// Size of the configuration frame in bits.
    ///
    /// The frame covers every physical resource (as a real bitstream
    /// would): 3 bits per existing switch output mux, 6 bits of opcode plus
    /// 3 x 2 bits of operand select per FU, and 64 bits for each constant
    /// actually used.
    pub fn frame_bits(&self) -> u64 {
        let mut bits = 0u64;
        for sw in self.geometry.switches() {
            for d in OutDir::ALL {
                if self.output_exists(sw, d) {
                    bits += 3;
                }
            }
        }
        for fu in self.geometry.fus() {
            bits += 6 + 3 * 2;
            if let Some(cfg) = self.fu(fu) {
                for o in cfg.operands {
                    if matches!(o, OperandSrc::Const(_)) {
                        bits += 64;
                    }
                }
            }
        }
        // Vector port mapping table: 5 bits per scalar-port entry.
        let vec_entries: usize =
            self.vec_in.iter().chain(self.vec_out.iter()).map(Vec::len).sum();
        bits + 5 * vec_entries as u64
    }

    /// Whether output `d` physically exists at switch `sw`.
    pub fn output_exists(&self, sw: SwitchId, d: OutDir) -> bool {
        match d {
            OutDir::North | OutDir::South | OutDir::East | OutDir::West => {
                topo::neighbor(&self.geometry, sw, d).is_some()
            }
            OutDir::FuOp0 | OutDir::FuOp1 | OutDir::FuOp2 => {
                topo::fu_operand_target(&self.geometry, sw, d).is_some()
            }
            OutDir::ExtOut => self.geometry.switch_output_port(sw).is_some(),
        }
    }

    /// Whether input line `src` physically exists at switch `sw`.
    pub fn input_exists(&self, sw: SwitchId, src: InDir) -> bool {
        match src {
            InDir::North => sw.row > 0,
            InDir::South => sw.row < self.geometry.rows(),
            InDir::West => sw.col > 0,
            InDir::East => sw.col < self.geometry.cols(),
            InDir::FuOut => topo::fu_feeding(&self.geometry, sw).is_some(),
            InDir::ExtIn => self.geometry.switch_input_port(sw).is_some(),
        }
    }

    /// Validates structural legality.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: dangling or phantom links,
    /// operand/arity mismatches, routing cycles, or bad vector-port maps.
    /// FU capability (`kind`) is checked by [`crate::Fabric::load_config`],
    /// which knows the grid's hardware kinds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Links must exist at both ends.
        for sw in self.geometry.switches() {
            for (d, src) in self.switch(sw).routes() {
                if !self.output_exists(sw, d) {
                    return Err(ConfigError::DanglingOutput { switch: sw, out: d });
                }
                if !self.input_exists(sw, src) {
                    return Err(ConfigError::MissingInput { switch: sw, source: src });
                }
            }
        }

        // FU operand slots and switch drives must agree, and arity must match.
        let mut driven = vec![false; self.geometry.fu_count() * 3];
        for sw in self.geometry.switches() {
            for (d, _) in self.switch(sw).routes() {
                if let Some((fu, slot)) = topo::fu_operand_target(&self.geometry, sw, d) {
                    driven[self.geometry.fu_index(fu) * 3 + slot] = true;
                }
            }
        }
        for fu in self.geometry.fus() {
            let cfg = self.fu(fu);
            for slot in 0..3 {
                let expects = matches!(
                    cfg.map(|c| c.operands[slot]),
                    Some(OperandSrc::Switch)
                );
                let has = driven[self.geometry.fu_index(fu) * 3 + slot];
                if expects && !has {
                    return Err(ConfigError::UndrivenOperand { fu, slot });
                }
                if !expects && has {
                    return Err(ConfigError::UnusedDrive { fu, slot });
                }
            }
            if let Some(c) = cfg {
                let arity = c.op.arity();
                // `Select` uses slots (0, 1, 2); binary ops (0, 1); unary (0).
                for (slot, operand) in c.operands.iter().enumerate() {
                    let required = slot < arity || (c.op == FuOp::Select && slot == 2);
                    let used = !matches!(operand, OperandSrc::None);
                    if required != used {
                        return Err(ConfigError::ArityMismatch { fu, op: c.op });
                    }
                }
            }
        }

        self.check_acyclic()?;

        for (vp, ports) in self.vec_in.iter().enumerate() {
            if let Some(&port) = ports.iter().find(|&&p| p >= self.geometry.input_ports()) {
                return Err(ConfigError::BadVectorPort { vport: vp, port });
            }
        }
        for (vp, ports) in self.vec_out.iter().enumerate() {
            if let Some(&port) = ports.iter().find(|&&p| p >= self.geometry.output_ports()) {
                return Err(ConfigError::BadVectorPort { vport: vp, port });
            }
        }
        Ok(())
    }

    /// Topologically orders the configured switch-output registers,
    /// downstream (sinks) first; fails if the routes form a cycle.
    pub(crate) fn check_acyclic(&self) -> Result<Vec<(SwitchId, OutDir)>, ConfigError> {
        // Edge: register (sw, d) feeds register (sw2, d2) when d reaches sw2
        // on line `mirror(d)` and (sw2, d2) sources from that line.
        let regs: Vec<(SwitchId, OutDir)> = self
            .geometry
            .switches()
            .flat_map(|sw| self.switch(sw).routes().map(move |(d, _)| (sw, d)))
            .collect();
        // Register `(sw, d)` is node `index[switch_index(sw) * 8 + d.index()]`.
        let width = OutDir::ALL.len();
        let mut index = vec![usize::MAX; self.geometry.switch_count() * width];
        for (i, &(sw, d)) in regs.iter().enumerate() {
            index[self.geometry.switch_index(sw) * width + d.index()] = i;
        }
        // Successors in CSR form: node `i` feeds `targets[starts[i]..starts[i + 1]]`.
        let mut starts = Vec::with_capacity(regs.len() + 1);
        let mut targets = Vec::new();
        for &(sw, d) in &regs {
            starts.push(targets.len());
            if let Some(sw2) = topo::neighbor(&self.geometry, sw, d) {
                let arrive = topo::mirror(d);
                for (d2, src2) in self.switch(sw2).routes() {
                    if src2 == arrive {
                        targets.push(index[self.geometry.switch_index(sw2) * width + d2.index()]);
                    }
                }
            }
        }
        starts.push(targets.len());
        // Iterative DFS with colours; produce reverse-postorder (sinks first
        // means we emit a node after all its successors).
        let mut colour = vec![0u8; regs.len()]; // 0 white, 1 grey, 2 black
        let mut order = Vec::with_capacity(regs.len());
        let mut stack = Vec::new();
        for start in 0..regs.len() {
            if colour[start] != 0 {
                continue;
            }
            stack.push((start, 0usize));
            colour[start] = 1;
            while let Some(&(node, child)) = stack.last() {
                let succs = &targets[starts[node]..starts[node + 1]];
                if child < succs.len() {
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    let next = succs[child];
                    match colour[next] {
                        0 => {
                            colour[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            return Err(ConfigError::RoutingCycle { switch: regs[next].0 });
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        Ok(order.into_iter().map(|i| regs[i]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> FabricGeometry {
        FabricGeometry::new(2, 2)
    }

    #[test]
    fn empty_config_is_valid() {
        let cfg = FabricConfig::empty(geom());
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.configured_fus(), 0);
        assert_eq!(cfg.configured_routes(), 0);
    }

    #[test]
    fn dangling_output_detected() {
        let mut cfg = FabricConfig::empty(geom());
        // North output of the top-left switch leaves the fabric.
        cfg.switch_mut(SwitchId { row: 0, col: 0 }).set_source(OutDir::North, InDir::ExtIn);
        assert!(matches!(cfg.validate(), Err(ConfigError::DanglingOutput { .. })));
    }

    #[test]
    fn missing_input_detected() {
        let mut cfg = FabricConfig::empty(geom());
        // The top-left switch has no north neighbour to receive from.
        cfg.switch_mut(SwitchId { row: 0, col: 0 }).set_source(OutDir::South, InDir::North);
        assert!(matches!(cfg.validate(), Err(ConfigError::MissingInput { .. })));
    }

    #[test]
    fn ext_in_only_on_edges() {
        let mut cfg = FabricConfig::empty(geom());
        // Switch (1,1) is interior: no external input.
        cfg.switch_mut(SwitchId { row: 1, col: 1 }).set_source(OutDir::South, InDir::ExtIn);
        assert!(matches!(cfg.validate(), Err(ConfigError::MissingInput { .. })));
    }

    #[test]
    fn undriven_operand_detected() {
        let mut cfg = FabricConfig::empty(geom());
        cfg.set_fu(
            FuId { row: 0, col: 0 },
            FuConfig {
                op: FuOp::IAdd,
                operands: [OperandSrc::Switch, OperandSrc::Switch, OperandSrc::None],
            },
        );
        assert!(matches!(cfg.validate(), Err(ConfigError::UndrivenOperand { .. })));
    }

    #[test]
    fn unused_drive_detected() {
        let mut cfg = FabricConfig::empty(geom());
        // Drive operand 0 of fu(0,0) without configuring the FU.
        cfg.switch_mut(SwitchId { row: 0, col: 0 }).set_source(OutDir::FuOp0, InDir::ExtIn);
        assert!(matches!(cfg.validate(), Err(ConfigError::UnusedDrive { .. })));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut cfg = FabricConfig::empty(geom());
        // PassA is unary but binds two operands.
        let fu = FuId { row: 0, col: 0 };
        cfg.set_fu(
            fu,
            FuConfig {
                op: FuOp::PassA,
                operands: [OperandSrc::Const(1), OperandSrc::Const(2), OperandSrc::None],
            },
        );
        assert!(matches!(cfg.validate(), Err(ConfigError::ArityMismatch { .. })));
    }

    #[test]
    fn valid_single_adder_config() {
        // Two constants into an adder, result routed to output port 1
        // (south edge, switch (2,1)).
        let mut cfg = FabricConfig::empty(geom());
        let fu = FuId { row: 0, col: 0 };
        cfg.set_fu(
            fu,
            FuConfig {
                op: FuOp::IAdd,
                operands: [OperandSrc::Const(20), OperandSrc::Const(22), OperandSrc::None],
            },
        );
        // Result: fu(0,0) -> sw(1,1) -> south -> sw(2,1) -> ExtOut.
        cfg.switch_mut(SwitchId { row: 1, col: 1 }).set_source(OutDir::South, InDir::FuOut);
        cfg.switch_mut(SwitchId { row: 2, col: 1 }).set_source(OutDir::ExtOut, InDir::North);
        cfg.validate().expect("config should be legal");
        assert_eq!(cfg.configured_routes(), 2);
        assert_eq!(cfg.configured_fus(), 1);
    }

    #[test]
    fn routing_cycle_detected() {
        let mut cfg = FabricConfig::empty(geom());
        // sw(1,1) reflects its east input back east; sw(1,2) reflects its
        // west input back west: together a 2-cycle of route registers.
        cfg.switch_mut(SwitchId { row: 1, col: 1 }).set_source(OutDir::East, InDir::East);
        cfg.switch_mut(SwitchId { row: 1, col: 2 }).set_source(OutDir::West, InDir::West);
        assert!(matches!(cfg.validate(), Err(ConfigError::RoutingCycle { .. })));
    }

    #[test]
    fn topo_order_is_sinks_first() {
        let mut cfg = FabricConfig::empty(geom());
        cfg.switch_mut(SwitchId { row: 0, col: 0 }).set_source(OutDir::South, InDir::ExtIn);
        cfg.switch_mut(SwitchId { row: 1, col: 0 }).set_source(OutDir::South, InDir::North);
        cfg.switch_mut(SwitchId { row: 2, col: 0 }).set_source(OutDir::ExtOut, InDir::North);
        let order = cfg.check_acyclic().unwrap();
        let pos = |sw: SwitchId, d: OutDir| order.iter().position(|&x| x == (sw, d)).unwrap();
        assert!(
            pos(SwitchId { row: 2, col: 0 }, OutDir::ExtOut)
                < pos(SwitchId { row: 0, col: 0 }, OutDir::South),
            "sink register must be ordered before its source"
        );
    }

    #[test]
    fn frame_bits_grow_with_geometry_and_constants() {
        let small = FabricConfig::empty(FabricGeometry::new(2, 2));
        let big = FabricConfig::empty(FabricGeometry::new(8, 8));
        assert!(big.frame_bits() > small.frame_bits());

        let mut with_const = FabricConfig::empty(FabricGeometry::new(2, 2));
        with_const.set_fu(
            FuId { row: 0, col: 0 },
            FuConfig {
                op: FuOp::PassA,
                operands: [OperandSrc::Const(5), OperandSrc::None, OperandSrc::None],
            },
        );
        assert_eq!(with_const.frame_bits(), small.frame_bits() + 64);
    }

    #[test]
    fn bad_vector_port_detected() {
        let mut cfg = FabricConfig::empty(geom());
        cfg.set_vec_in(0, vec![0, 99]);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadVectorPort { .. })));
    }

    #[test]
    fn vector_maps_readback() {
        let mut cfg = FabricConfig::empty(geom());
        cfg.set_vec_in(1, vec![0, 2]);
        cfg.set_vec_out(0, vec![1]);
        assert_eq!(cfg.vec_in(1), &[0, 2]);
        assert_eq!(cfg.vec_in(0), &[] as &[usize]);
        assert_eq!(cfg.vec_out(0), &[1]);
        cfg.validate().unwrap();
    }
}
