//! The compile cache serves a key that does not map at its unroll factor
//! from the key with half the factor, through that key's own slot: every
//! result equals a plain `compile`, and each option set a plain compile
//! attempts compiles once. Declarative middle ends lower their unroll
//! passes instead of the `unroll_factor` knob, and compile to the same
//! programs as the built-in pipeline they spell out.

use dyser_bench::dse::{dse_kernels, DsePoint, FuMix, MemPreset};
use dyser_compiler::{compile, compile_attempt, Attempt, CompilerOptions, Function, PassSpec};
use dyser_core::{compile_cache_misses, compile_cached};

/// The options of every attempt a plain compile of `options` makes, in
/// order: the requested factor, then each lowered one.
fn attempts(function: &Function, options: &CompilerOptions) -> Vec<CompilerOptions> {
    let mut made = vec![options.clone()];
    while let Attempt::Lowered(lowered) =
        compile_attempt(function, made.last().expect("one attempt made")).expect("compiles")
    {
        made.push(lowered);
    }
    made
}

/// The built-in middle end of `options`, spelled as a declarative one.
fn spelled_out(options: &CompilerOptions) -> CompilerOptions {
    let ifconv = if options.if_convert { "ifconv, " } else { "" };
    let unroll = match options.unroll_factor {
        0 | 1 => String::new(),
        n => format!("unroll({n}), "),
    };
    let spec: PassSpec = format!("{ifconv}licm, cleanup, {unroll}cleanup").parse().expect("a spec");
    CompilerOptions { middle_end: Some(spec), ..options.clone() }
}

/// The only test in this binary, so the process-wide miss counter moves
/// for its compiles alone.
#[test]
fn cached_compiles_equal_plain_ones_and_compile_each_attempted_factor_once() {
    let mut lowered = 0;
    for kernel in dse_kernels() {
        let function = kernel.function();
        for (rows, cols) in [(2, 2), (2, 4), (8, 8), (16, 16)] {
            for mix in FuMix::ALL {
                let mut attempted: Vec<CompilerOptions> = Vec::new();
                // Highest factor first, so a lower key is first reached by
                // lowering a higher one, and later requested as a hit.
                for unroll in [16, 8, 4, 2, 1] {
                    let point = DsePoint {
                        kernel: kernel.name.into(),
                        rows,
                        cols,
                        mix,
                        fifo_depth: 4,
                        mem: MemPreset::Default,
                        unroll,
                    };
                    let options = point.run_config(&kernel, None).expect("a valid point").compiler;
                    let plain = format!("{:?}", compile(&function, &options).expect("compiles"));
                    for options in [options.clone(), spelled_out(&options)] {
                        let made = attempts(&function, &options);
                        lowered += made.len() - 1;
                        let before = compile_cache_misses();
                        let cached = compile_cached(&function, &options).expect("compiles");
                        let mut new = 0;
                        for o in made {
                            if !attempted.contains(&o) {
                                attempted.push(o);
                                new += 1;
                            }
                        }
                        assert_eq!(
                            compile_cache_misses() - before,
                            new,
                            "{point}: one compile per factor attempted for the first time"
                        );
                        assert_eq!(format!("{cached:?}"), plain, "{point} {:?}", options.middle_end);
                    }
                }
            }
        }
    }
    assert!(lowered > 200, "only {lowered} attempts lowered a factor");
}
