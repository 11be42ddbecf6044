//! Golden snapshot of place-and-route across the DSE design space.
//!
//! Every [`dse_kernels`] kernel is compiled on 2x2, 4x4, 8x8 and 16x16
//! fabrics, with both FU mixes, at unroll 1, 4 and 8. Each case writes
//! one line: every region's fate, then the FNV-64 of the
//! `CompiledProgram` `Debug` rendering. That rendering covers the fabric
//! configurations, the port assignments baked into the DySER
//! instructions, both binaries and every scheduling error string, so a
//! placer or scheduler change that moves a single route register shows
//! up here.
//!
//! Regenerate with `BLESS=1 cargo test -p dyser-bench --test
//! golden_schedules` after an intentional change, and review the diff
//! like any other code change.

use dyser_bench::dse::{dse_kernels, DsePoint, FuMix, MemPreset};
use dyser_compiler::{compile, RegionFate};
use dyser_fabric::{InDir, OutDir};
use dyser_isa::Port;

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/schedules.txt");

const DIMS: [usize; 4] = [2, 4, 8, 16];
const UNROLLS: [usize; 3] = [1, 4, 8];

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn schedules_match_snapshot() {
    let mut got = String::new();
    for kernel in dse_kernels() {
        let function = kernel.function();
        for dim in DIMS {
            for mix in FuMix::ALL {
                for unroll in UNROLLS {
                    let point = DsePoint {
                        kernel: kernel.name.to_owned(),
                        rows: dim,
                        cols: dim,
                        mix,
                        fifo_depth: 4,
                        mem: MemPreset::Default,
                        unroll,
                    };
                    let rc = point.run_config(&kernel, None).expect("valid point");
                    let compiled = compile(&function, &rc.compiler)
                        .unwrap_or_else(|e| panic!("{point}: {e}"));
                    let fates: Vec<String> = compiled
                        .regions
                        .iter()
                        .map(|r| match &r.fate {
                            RegionFate::Accelerated => format!("{}=mapped", r.name),
                            RegionFate::Unmapped(e) => format!("{}=unmapped({e})", r.name),
                        })
                        .collect();
                    got.push_str(&format!(
                        "{} {dim}x{dim} {} u{unroll}: [{}] {:016x}\n",
                        kernel.name,
                        mix.label(),
                        fates.join(", "),
                        fnv64(&format!("{compiled:?}"))
                    ));
                }
            }
        }
    }

    if std::env::var_os("BLESS").is_some() {
        std::fs::write(SNAPSHOT, &got).expect("write snapshot");
        return;
    }
    let want =
        std::fs::read_to_string(SNAPSHOT).expect("snapshot missing; regenerate with BLESS=1");
    if let Some((i, (g, w))) =
        got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!(
            "place-and-route drifted from the golden snapshot at line {}:\n  got:  {g}\n  want: {w}\n\
             bless with BLESS=1 if the change is intentional",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "snapshot line counts differ");
}

/// A 16x16 fabric has 33 input and 33 output ports, but the ISA names
/// only 32. At unroll 16 the `dot` and `mm` slices want 33, so the
/// compiler must fall back to a smaller unroll rather than emit a port
/// the ISA cannot encode.
#[test]
fn wide_unrolls_on_16x16_stay_within_isa_ports() {
    for name in ["dot", "mm"] {
        let kernel = dse_kernels().into_iter().find(|k| k.name == name).expect("suite kernel");
        let point = DsePoint {
            kernel: name.into(),
            rows: 16,
            cols: 16,
            mix: FuMix::Universal,
            fifo_depth: 4,
            mem: MemPreset::Default,
            unroll: 16,
        };
        let rc = point.run_config(&kernel, None).expect("valid point");
        let compiled =
            compile(&kernel.function(), &rc.compiler).unwrap_or_else(|e| panic!("{point}: {e}"));
        assert!(compiled.accelerated_any, "{point}: {:?}", compiled.regions);
        for config in &compiled.accelerated.configs {
            let geom = config.geometry();
            for sw in geom.switches() {
                for (out, src) in config.switch(sw).routes() {
                    let ports = [
                        (src == InDir::ExtIn).then(|| geom.switch_input_port(sw)),
                        (out == OutDir::ExtOut).then(|| geom.switch_output_port(sw)),
                    ];
                    for port in ports.into_iter().flatten() {
                        let port = port.expect("edge lines sit on edge switches");
                        assert!(port < Port::COUNT, "{point}: {sw} uses port {port}");
                    }
                }
            }
        }
    }
}
