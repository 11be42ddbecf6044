//! The process-wide compile cache compiles each key once, however many
//! callers race on it, and never caches a failure.

use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread;

use dyser_compiler::ir::parser::parse_module;
use dyser_compiler::{CompilerOptions, Function};
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
