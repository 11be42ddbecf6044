//! # dyser-fabric
//!
//! A cycle-level model of the DySER fabric: the dynamically specialized
//! execution resource the prototype integrates into OpenSPARC.
//!
//! DySER is a heterogeneous grid of functional units (FUs) embedded in a
//! circuit-switched network of switches. A *configuration* programs each
//! switch's output multiplexers and each FU's operation, turning the grid
//! into one large compound functional unit matched to a program region.
//! Values stream in through named **input ports** on the north/west edges,
//! flow through statically configured routes with credit-based
//! backpressure (modelled as single-entry elastic registers), fire FUs in
//! dataflow fashion, and exit through **output ports** on the south/east
//! edges. Because every resource is pipelined, consecutive invocations of
//! the region overlap — the source of DySER's throughput.
//!
//! The model reproduces the microarchitectural behaviour the ISPASS 2015
//! evaluation measures:
//!
//! * dataflow firing with per-link flow control (one hop per cycle),
//! * FU pipelining with per-operation latencies,
//! * port FIFOs and the flexible **vector port** mapping,
//! * configuration as a bitstream with a load latency proportional to the
//!   configuration size,
//! * structural and activity statistics (for the resource table and the
//!   energy model).
//!
//! ```
//! use dyser_fabric::{ConfigBuilder, Fabric, FabricGeometry, FuOp};
//!
//! // Route two inputs through one adder to one output on a 2x2 fabric.
//! let geom = FabricGeometry::new(2, 2);
//! let mut b = ConfigBuilder::new(geom);
//! let a = b.input_value(0);
//! let c = b.input_value(1);
//! let sum = b.op(FuOp::IAdd, &[a, c]);
//! b.output_value(sum, 0);
//! let config = b.build().unwrap();
//!
//! let mut fabric = Fabric::new(geom);
//! fabric.load_config(&config).unwrap();
//! assert!(fabric.try_send(0, 20));
//! assert!(fabric.try_send(1, 22));
//! let out = fabric.run_until_output(0, 100).unwrap();
//! assert_eq!(out, 42);
//! ```


#![warn(missing_docs)]
pub mod builder;
pub mod config;
pub mod exec;
pub mod geom;
pub mod op;
pub mod stats;

pub use builder::{BuildError, BuildScratch, ConfigBuilder, ValueId};
pub use config::{
    ConfigError, FabricConfig, FabricConfigError, FuConfig, InDir, OperandSrc, OutDir,
    SwitchConfig,
};
pub use exec::{Fabric, DEFAULT_CONFIG_BUS_BITS, DEFAULT_FIFO_DEPTH};
pub use geom::{FabricGeometry, FuId, SwitchId};
pub use op::{FuKind, FuOp};
pub use stats::{FabricStats, StructuralStats};
