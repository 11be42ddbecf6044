//! The process-wide compile cache compiles each key once, however many
//! callers race on it, never caches a failure, and tells keys apart by
//! every bit of their constants.

use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread;

use dyser_compiler::ir::parser::parse_module;
use dyser_compiler::{CompilerOptions, Function, FunctionBuilder, Type};
use dyser_core::{compile_cache_misses, compile_cached};

/// Both tests read the process-wide miss counter; run them one at a time
/// so each sees only its own compilations.
static SERIAL: Mutex<()> = Mutex::new(());

/// A loop the compiler accelerates, so one compile takes long enough for
/// racing callers to overlap it.
const SCALE_ADD: &str = r"
func @scale_add(%a: ptr, %b: ptr, %c: ptr, %n: i64) {
entry:
  br loop
loop:
  %i = phi i64 [0, entry] [%i2, loop]
  %pa = gep %a, %i, 8
  %pb = gep %b, %i, 8
  %va = load %pa, f64
  %vb = load %pb, f64
  %sq = fmul %va, %va
  %sum = fadd %sq, %vb
  %pc = gep %c, %i, 8
  store %sum, %pc
  %i2 = add %i, 1
  %cond = cmp slt %i2, %n
  condbr %cond, loop, exit
exit:
  ret
}
";

/// Seven parameters do not fit the `%o0..%o5` calling convention, so
/// this function parses but never compiles.
const SEVEN_PARAMS: &str = r"
func @seven(%a: i64, %b: i64, %c: i64, %d: i64, %e: i64, %f: i64, %g: i64) {
entry:
  ret
}
";

fn function(text: &str) -> Function {
    let module = parse_module(text).expect("valid IR");
    module.functions[0].clone()
}

#[test]
fn racing_callers_share_one_compilation() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const CALLERS: usize = 8;
    let function = function(SCALE_ADD);
    let options = CompilerOptions::default();
    let start = Barrier::new(CALLERS);
    let before = compile_cache_misses();
    let results: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    compile_cached(&function, &options).expect("compiles")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    assert_eq!(compile_cache_misses() - before, 1, "one compilation for one key");
    assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])), "every caller shares it");
    let again = compile_cached(&function, &options).expect("compiles");
    assert!(Arc::ptr_eq(&again, &results[0]));
    assert_eq!(compile_cache_misses() - before, 1, "a later call hits");
}

#[test]
fn failed_compiles_are_retried() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let function = function(SEVEN_PARAMS);
    let options = CompilerOptions::default();
    let before = compile_cache_misses();
    for attempt in 1..=2 {
        assert!(compile_cached(&function, &options).is_err());
        assert_eq!(compile_cache_misses() - before, attempt, "attempt {attempt} compiled again");
    }
}

/// Stores the double constant `c` through its one argument.
fn stores(c: f64) -> Function {
    let mut b = FunctionBuilder::new("store_const", &[("p", Type::Ptr)]);
    let p = b.param(0);
    let k = b.const_f(c);
    b.store(k, p);
    b.ret(None);
    b.build().expect("valid IR")
}

#[test]
fn keys_compare_constants_by_bits() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let options = CompilerOptions::default();
    let program = |c: f64| compile_cached(&stores(c), &options).expect("compiles");
    let before = compile_cache_misses();
    // Equal as doubles (`0.0 == -0.0`) or alike as text (every NaN
    // prints as `NaN`), yet four different programs.
    let nan_payload = f64::from_bits(f64::NAN.to_bits() | 1);
    let programs = [program(0.0), program(-0.0), program(f64::NAN), program(nan_payload)];
    assert_eq!(compile_cache_misses() - before, 4, "four keys");
    for (i, a) in programs.iter().enumerate() {
        for b in &programs[i + 1..] {
            let (a, b) = (&a.baseline, &b.baseline);
            assert!(a.code != b.code || a.pool != b.pool, "the constant's bits reach the program");
        }
    }
    // `NaN != NaN` as doubles, but a NaN constant's key still hits.
    assert!(Arc::ptr_eq(&program(f64::NAN), &programs[2]));
    assert_eq!(compile_cache_misses() - before, 4, "a repeated key hits");
}
