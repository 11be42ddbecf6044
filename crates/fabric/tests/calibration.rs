//! The fabric's calibrated FU latencies, measured back through a
//! configured fabric: one operation between input and output ports must
//! deliver its result exactly the cycles DESIGN.md "Calibration" lists
//! after a one-cycle operation on the same site and routes would. A
//! changed latency constant fails here by name, not only as changed
//! golden bytes.

use dyser_fabric::{
    ConfigBuilder, Fabric, FabricConfig, FabricGeometry, FuConfig, FuId, FuKind, FuOp,
};

/// The site every measured operation occupies.
const SITE: FuId = FuId { row: 1, col: 1 };

/// A one-op configuration with every operand routed from an input port
/// and the result routed to output port 0: `op` with the placement and
/// routes the builder lays for the one-cycle `reference` of the same
/// arity.
fn one_op_config(op: FuOp, reference: FuOp) -> FabricConfig {
    let geom = FabricGeometry::new(3, 3);
    let mut b = ConfigBuilder::with_kinds(geom, universal(geom)).expect("one kind per site");
    let args: Vec<_> = (0..reference.arity()).map(|port| b.input_value(port)).collect();
    let result = b.op(reference, &args);
    b.hint(result, SITE);
    b.output_value(result, 0);
    let mut config = b.build().expect("a one-op graph builds");
    let operands = config.fu(SITE).expect("the op sits on its hinted site").operands;
    config.set_fu(SITE, FuConfig { op, operands });
    config
}

/// Sites that support every operation.
fn universal(geom: FabricGeometry) -> Vec<FuKind> {
    vec![FuKind::Universal; geom.fu_count()]
}

/// Cycles from sending the operands until the result leaves output
/// port 0.
fn cycles_to_result(config: &FabricConfig) -> u64 {
    let geom = config.geometry();
    let mut fabric = Fabric::with_kinds(geom, universal(geom)).expect("one kind per site");
    fabric.load_config(config).expect("the configuration loads");
    for port in 0..config.fu(SITE).map_or(0, |fu| fu.op.arity()) {
        assert!(fabric.try_send(port, 2.0f64.to_bits()));
    }
    for cycle in 1..=100 {
        fabric.tick();
        if fabric.try_recv(0).is_some() {
            return cycle;
        }
    }
    panic!("no result within 100 cycles");
}

#[test]
fn fu_latencies_match_the_calibration_table() {
    // (the constant, the operation it times, a one-cycle op of the same
    // arity, DESIGN.md's latency)
    let table = [
        ("FuOp::FAdd.latency()", FuOp::FAdd, FuOp::IAdd, 3),
        ("FuOp::FMul.latency()", FuOp::FMul, FuOp::IAdd, 4),
        ("FuOp::FDiv.latency()", FuOp::FDiv, FuOp::IAdd, 12),
        ("FuOp::FSqrt.latency()", FuOp::FSqrt, FuOp::PassA, 14),
        ("FuOp::IMul.latency()", FuOp::IMul, FuOp::IAdd, 3),
        ("FuOp::IDiv.latency()", FuOp::IDiv, FuOp::IAdd, 12),
    ];
    for (constant, op, reference, calibrated) in table {
        assert_eq!(reference.latency(), 1, "{reference} is a one-cycle reference");
        let base = cycles_to_result(&one_op_config(reference, reference));
        let spent = cycles_to_result(&one_op_config(op, reference)) - base + 1;
        assert_eq!(
            spent, calibrated,
            "{constant}: `{op}` delivers its result {spent} cycles after its operands \
             arrive; DESIGN.md \"Calibration\" says {calibrated}"
        );
    }
}
