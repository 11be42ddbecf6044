//! The syscall leg of the fuzzer: whole-program trap sequences.
//!
//! The kernel-grammar fuzzer ([`crate::gen`]) covers computation; this
//! module covers the *proxy-kernel ABI*. A [`SysRecipe`] is a random
//! sequence of syscall operations — `write`s to every fd (valid and
//! bad), `brk` grows and refused shrinks, chunked `read`s, virtual-clock
//! reads, and compute spacers that shift where traps land relative to
//! slice boundaries — assembled into a real trap-issuing program. The
//! oracle runs it on every engine (`run`, `run_stepped`, `run_compiled`)
//! and demands:
//!
//! * captured **stdout and stderr bytes** equal the host-side model's
//!   prediction, on every engine;
//! * the **exit code** propagates identically everywhere;
//! * **`RunStats` are bit-identical** across engines — including the
//!   `Syscall` cycle bucket, so trap service costs settle the same way
//!   at every engine's slice boundaries;
//! * every run's **cycle account balances**.
//!
//! Failures shrink by op deletion ([`shrink_sys`]) and serialize to the
//! JSON corpus under `crates/fuzz/corpus/syscall/`, which replays on
//! every `cargo test`.

use std::fmt;
use std::path::{Path, PathBuf};

use dyser_core::{RunStats, SysError, System, SystemConfig};
use dyser_isa::{regs, AluOp, Assembler, Instr, Op2, RCond, StoreKind};
use dyser_rng::Rng64;
use dyser_sparc::syscall::{SYS_BRK, SYS_EXIT, SYS_GETTIME, SYS_READ, SYS_WRITE};
use dyser_sparc::CycleBucket;

/// Base of the 256-byte data window `write` ops source from. Low enough
/// that every address fits a 13-bit immediate.
pub const DATA_BASE: u64 = 0xC00;
/// Size of the data window.
pub const DATA_LEN: usize = 256;
/// Where `read` ops deposit stdin bytes.
pub const READ_BASE: u64 = 0xD00;

/// Cycle budget per engine run; generous for programs this small.
const MAX_CYCLES: u64 = 500_000;

/// Syscall corpus format version.
pub const SYS_CORPUS_VERSION: u64 = 1;

/// One operation in a syscall program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOp {
    /// `write(fd, DATA_BASE + off, len)`. `fd` may be invalid on
    /// purpose; `off + len` is clamped to the data window by
    /// construction.
    Write {
        /// Target fd: 1, 2, or a deliberately bad one.
        fd: u8,
        /// Offset into the data window.
        off: u8,
        /// Byte count.
        len: u8,
    },
    /// `brk(0)` then `brk(current + delta)` — a query and a grow.
    BrkGrow {
        /// Bytes to grow by (13-bit-immediate sized).
        delta: u16,
    },
    /// `brk(0)` then `brk(current - 0x40)` — a shrink attempt the kernel
    /// must refuse.
    BrkShrink,
    /// `read(0, READ_BASE, len)` — drains stdin, eventually hitting EOF.
    Read {
        /// Byte count requested.
        len: u8,
    },
    /// `gettime()` — the cycle-derived virtual clock; the result is
    /// discarded (it differs run to run but never engine to engine).
    Gettime,
    /// A compute spacer: `iters + 1` loop iterations that shift where
    /// the next trap lands relative to slice and quantum boundaries.
    Compute {
        /// Extra iterations.
        iters: u8,
    },
}

impl SysOp {
    /// Stable tag used by the JSON corpus.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            SysOp::Write { .. } => "write",
            SysOp::BrkGrow { .. } => "brk-grow",
            SysOp::BrkShrink => "brk-shrink",
            SysOp::Read { .. } => "read",
            SysOp::Gettime => "gettime",
            SysOp::Compute { .. } => "compute",
        }
    }
}

/// One syscall fuzz case. Self-contained: the data window and stdin both
/// derive from `data_seed`, so a saved recipe replays without generator
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysRecipe {
    /// The trap sequence.
    pub ops: Vec<SysOp>,
    /// Code passed to the final `exit` trap.
    pub exit_code: u8,
    /// Seed of the xorshift stream filling the data window and stdin.
    pub data_seed: u64,
    /// Bytes of stdin made available to `read` ops.
    pub stdin_len: u8,
}

/// Draws one syscall recipe.
pub fn generate_sys(rng: &mut Rng64) -> SysRecipe {
    let n_ops = rng.gen_range(2usize..10);
    let ops = (0..n_ops)
        .map(|_| match rng.gen_range(0u64..100) {
            0..=39 => {
                let fd = match rng.gen_range(0u64..10) {
                    0..=5 => 1,
                    6..=7 => 2,
                    _ => 7, // deliberately bad
                };
                let off = rng.gen_range(0u64..(DATA_LEN as u64 - 64)) as u8;
                SysOp::Write { fd, off, len: rng.gen_range(0u64..64) as u8 }
            }
            40..=54 => SysOp::BrkGrow { delta: rng.gen_range(8u64..0x800) as u16 },
            55..=64 => SysOp::BrkShrink,
            65..=79 => SysOp::Read { len: rng.gen_range(1u64..48) as u8 },
            80..=87 => SysOp::Gettime,
            _ => SysOp::Compute { iters: rng.gen_range(0u64..24) as u8 },
        })
        .collect();
    SysRecipe {
        ops,
        exit_code: rng.gen_range(0u64..64) as u8,
        data_seed: rng.next_u64(),
        stdin_len: rng.gen_range(0u64..64) as u8,
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The data window a recipe's `write` ops source from.
#[must_use]
pub fn data_bytes(r: &SysRecipe) -> Vec<u8> {
    let mut s = r.data_seed | 1;
    (0..DATA_LEN).map(|_| (xorshift(&mut s) & 0xFF) as u8).collect()
}

/// The stdin bytes available to the recipe's `read` ops.
#[must_use]
pub fn stdin_bytes(r: &SysRecipe) -> Vec<u8> {
    let mut s = (r.data_seed ^ 0x0571_7D10) | 1;
    (0..r.stdin_len).map(|_| (xorshift(&mut s) & 0xFF) as u8).collect()
}

/// Assembles the recipe into program words (entry at `0x10000`).
#[must_use]
pub fn sys_program(r: &SysRecipe) -> Vec<u32> {
    let mut asm = Assembler::new();
    for (i, op) in r.ops.iter().enumerate() {
        match *op {
            SysOp::Write { fd, off, len } => {
                asm.push(Instr::mov_imm(regs::O0, i16::from(fd)));
                asm.push(Instr::mov_imm(regs::O1, DATA_BASE as i16 + i16::from(off)));
                asm.push(Instr::mov_imm(regs::O2, i16::from(len)));
                asm.push(Instr::Trap { code: SYS_WRITE });
            }
            SysOp::BrkGrow { delta } => {
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::Trap { code: SYS_BRK });
                asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(delta as i16)));
                asm.push(Instr::Trap { code: SYS_BRK });
            }
            SysOp::BrkShrink => {
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::Trap { code: SYS_BRK });
                asm.push(Instr::alu(AluOp::Sub, regs::O0, regs::O0, Op2::Imm(0x40)));
                asm.push(Instr::Trap { code: SYS_BRK });
            }
            SysOp::Read { len } => {
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::mov_imm(regs::O1, READ_BASE as i16));
                asm.push(Instr::mov_imm(regs::O2, i16::from(len)));
                asm.push(Instr::Trap { code: SYS_READ });
            }
            SysOp::Gettime => {
                asm.push(Instr::Trap { code: SYS_GETTIME });
            }
            SysOp::Compute { iters } => {
                let label = format!("spin{i}");
                asm.push(Instr::mov_imm(regs::L0, i16::from(iters) + 1));
                asm.label(&label);
                asm.push(Instr::alu(AluOp::Sub, regs::L0, regs::L0, Op2::Imm(1)));
                asm.branch_reg(RCond::NonZero, regs::L0, &label);
                asm.push(Instr::Nop);
                // Keep one observable side effect per spacer so the
                // compiled backend cannot elide it structurally.
                asm.push(Instr::mov_imm(regs::L1, DATA_BASE as i16 - 8));
                asm.push(Instr::Store {
                    kind: StoreKind::Stx,
                    rs: regs::L0,
                    rs1: regs::L1,
                    op2: Op2::Imm(0),
                });
            }
        }
    }
    asm.push(Instr::mov_imm(regs::O0, i16::from(r.exit_code)));
    asm.push(Instr::Trap { code: SYS_EXIT });
    asm.push(Instr::Halt);
    asm.assemble().expect("syscall program assembles")
}

/// Host-side model of the recipe's observable behaviour: the exact
/// stdout and stderr byte streams and the exit code.
#[must_use]
pub fn expected_streams(r: &SysRecipe) -> (Vec<u8>, Vec<u8>, u64) {
    let data = data_bytes(r);
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    for op in &r.ops {
        if let SysOp::Write { fd, off, len } = *op {
            let slice = &data[usize::from(off)..usize::from(off) + usize::from(len)];
            match fd {
                1 => stdout.extend_from_slice(slice),
                2 => stderr.extend_from_slice(slice),
                _ => {} // bad fd: no bytes move
            }
        }
    }
    (stdout, stderr, u64::from(r.exit_code))
}

/// One syscall-oracle violation.
#[derive(Debug, Clone)]
pub struct SysFailure {
    /// Stable failure class (shrinking preserves it).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for SysFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

fn fail(kind: &'static str, detail: String) -> SysFailure {
    SysFailure { kind, detail }
}

fn fresh_sys(words: &[u32], stdin: &[u8], data: &[u8]) -> System {
    let mut sys = System::new(SystemConfig::default());
    sys.load_raw(0x10000, words);
    sys.setup_process(&["fuzz"], &[], stdin);
    sys.memory_mut().write_bytes(DATA_BASE, data);
    sys
}

/// Checks one syscall recipe against every engine. Returns the total
/// simulated cycles of all runs.
///
/// # Errors
///
/// Returns the first [`SysFailure`] encountered.
pub fn check_sys_case(r: &SysRecipe) -> Result<u64, SysFailure> {
    check_sys_case_with(r, false)
}

/// [`check_sys_case`] with an optional synthetic lost-write hook: when
/// `sabotage` is set the model's expected stdout gains a byte no engine
/// will produce, proving the oracle detects dropped syscall output.
///
/// # Errors
///
/// Returns the first [`SysFailure`] encountered.
pub fn check_sys_case_with(r: &SysRecipe, sabotage: bool) -> Result<u64, SysFailure> {
    let words = sys_program(r);
    let stdin = stdin_bytes(r);
    let data = data_bytes(r);
    let (mut want_out, want_err, want_exit) = expected_streams(r);
    if sabotage {
        want_out.push(0xFF);
    }

    let mut runs: Vec<(&'static str, System, Result<RunStats, SysError>)> = Vec::new();
    let mut sys = fresh_sys(&words, &stdin, &data);
    let res = sys.run(MAX_CYCLES);
    runs.push(("run", sys, res));
    let mut sys = fresh_sys(&words, &stdin, &data);
    let res = sys.run_stepped(MAX_CYCLES);
    runs.push(("stepped", sys, res));
    let mut sys = fresh_sys(&words, &stdin, &data);
    let res = sys.run_compiled(MAX_CYCLES);
    runs.push(("compiled", sys, res));

    let mut cycles = 0u64;
    let mut reference: Option<RunStats> = None;
    for (label, sys, result) in &runs {
        let stats = result
            .as_ref()
            .map_err(|e| fail("run-error", format!("{label}: {e}")))?;
        cycles += stats.cycles;
        let acct = stats.cycle_account();
        if !acct.balanced() {
            return Err(fail(
                "unbalanced-account",
                format!("{label}: sum(buckets) {} != cycles {}", acct.sum(), stats.cycles),
            ));
        }
        if r.ops.iter().any(|o| !matches!(o, SysOp::Compute { .. }))
            && acct.get(CycleBucket::Syscall) == 0
        {
            return Err(fail(
                "unbalanced-account",
                format!("{label}: trap-issuing program charged no Syscall cycles"),
            ));
        }
        match &reference {
            None => reference = Some(stats.clone()),
            Some(first) => {
                if stats != first {
                    return Err(fail(
                        "stats-diverge",
                        format!("run {first:?} vs {label} {stats:?}"),
                    ));
                }
            }
        }
        if sys.kernel().stdout() != want_out.as_slice() {
            return Err(fail(
                "stream-mismatch",
                format!(
                    "{label}: stdout {:02x?} != expected {:02x?}",
                    sys.kernel().stdout(),
                    want_out
                ),
            ));
        }
        if sys.kernel().stderr() != want_err.as_slice() {
            return Err(fail(
                "stream-mismatch",
                format!(
                    "{label}: stderr {:02x?} != expected {:02x?}",
                    sys.kernel().stderr(),
                    want_err
                ),
            ));
        }
        if sys.kernel().exit_code() != Some(want_exit) {
            return Err(fail(
                "exit-mismatch",
                format!("{label}: exit {:?} != expected {want_exit}", sys.kernel().exit_code()),
            ));
        }
    }
    Ok(cycles)
}

/// Greedy op-deletion shrinker: removes ops (then zeroes the exit code
/// and empties stdin) while `still_fails` keeps returning `true`.
pub fn shrink_sys(r: &SysRecipe, mut still_fails: impl FnMut(&SysRecipe) -> bool) -> SysRecipe {
    let mut best = r.clone();
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.ops.len() {
            let mut cand = best.clone();
            cand.ops.remove(i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if best.exit_code != 0 {
            let mut cand = best.clone();
            cand.exit_code = 0;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if best.stdin_len != 0 {
            let mut cand = best.clone();
            cand.stdin_len = 0;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            return best;
        }
    }
}

// ---------------------------------------------------------------------------
// JSON corpus
// ---------------------------------------------------------------------------

fn op_json(op: SysOp) -> String {
    match op {
        SysOp::Write { fd, off, len } => format!("[\"write\", {fd}, {off}, {len}]"),
        SysOp::BrkGrow { delta } => format!("[\"brk-grow\", {delta}]"),
        SysOp::BrkShrink => "[\"brk-shrink\"]".to_string(),
        SysOp::Read { len } => format!("[\"read\", {len}]"),
        SysOp::Gettime => "[\"gettime\"]".to_string(),
        SysOp::Compute { iters } => format!("[\"compute\", {iters}]"),
    }
}

/// Serializes a syscall recipe as a corpus entry.
#[must_use]
pub fn sys_recipe_json(r: &SysRecipe, failure: Option<&str>) -> String {
    let ops: Vec<String> = r.ops.iter().map(|&o| op_json(o)).collect();
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"version\": {SYS_CORPUS_VERSION},\n"));
    if let Some(kind) = failure {
        s.push_str(&format!("  \"failure\": \"{kind}\",\n"));
    }
    s.push_str(&format!("  \"ops\": [{}],\n", ops.join(", ")));
    s.push_str(&format!("  \"exit_code\": {},\n", r.exit_code));
    s.push_str(&format!("  \"data_seed\": {},\n", r.data_seed));
    s.push_str(&format!("  \"stdin_len\": {}\n", r.stdin_len));
    s.push_str("}\n");
    s
}

/// Parses one syscall corpus entry. The format is deliberately tiny, so
/// this is a line-oriented scraper over the encoder's own output shape
/// rather than a full JSON parser.
///
/// # Errors
///
/// Malformed entries, unknown op tags, or out-of-range fields.
pub fn sys_recipe_from_json(text: &str) -> Result<SysRecipe, String> {
    fn field<'t>(text: &'t str, key: &str) -> Result<&'t str, String> {
        let pat = format!("\"{key}\":");
        let at = text.find(&pat).ok_or_else(|| format!("missing `{key}`"))?;
        let rest = text[at + pat.len()..].trim_start();
        let end = rest
            .find([',', '\n', '}'])
            .ok_or_else(|| format!("unterminated `{key}`"))?;
        Ok(rest[..end].trim())
    }
    fn num<T: std::str::FromStr>(s: &str, key: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("bad `{key}`: {s}"))
    }

    let version: u64 = num(field(text, "version")?, "version")?;
    if version != SYS_CORPUS_VERSION {
        return Err(format!("unsupported syscall corpus version {version}"));
    }
    let ops_at = text.find("\"ops\":").ok_or("missing `ops`")?;
    let ops_text = &text[ops_at..];
    let open = ops_text.find('[').ok_or("`ops` is not an array")?;
    let close = ops_text.rfind(']').ok_or("`ops` is not an array")?;
    let body = &ops_text[open + 1..close];
    let mut ops = Vec::new();
    for item in body.split('[').skip(1) {
        let item = item.split(']').next().ok_or("unterminated op")?;
        let parts: Vec<&str> = item.split(',').map(str::trim).collect();
        let tag = parts.first().map(|t| t.trim_matches('"')).ok_or("empty op")?;
        let arg = |i: usize| -> Result<u64, String> {
            parts.get(i).ok_or_else(|| format!("op `{tag}` too short")).and_then(|s| {
                s.parse().map_err(|_| format!("bad op arg `{s}`"))
            })
        };
        ops.push(match tag {
            "write" => SysOp::Write { fd: arg(1)? as u8, off: arg(2)? as u8, len: arg(3)? as u8 },
            "brk-grow" => SysOp::BrkGrow { delta: arg(1)? as u16 },
            "brk-shrink" => SysOp::BrkShrink,
            "read" => SysOp::Read { len: arg(1)? as u8 },
            "gettime" => SysOp::Gettime,
            "compute" => SysOp::Compute { iters: arg(1)? as u8 },
            other => return Err(format!("unknown op tag `{other}`")),
        });
    }
    for op in &ops {
        if let SysOp::Write { off, len, .. } = op {
            if usize::from(*off) + usize::from(*len) > DATA_LEN {
                return Err(format!("write [{off}, {len}) exceeds the data window"));
            }
        }
    }
    Ok(SysRecipe {
        ops,
        exit_code: num(field(text, "exit_code")?, "exit_code")?,
        data_seed: num(field(text, "data_seed")?, "data_seed")?,
        stdin_len: num(field(text, "stdin_len")?, "stdin_len")?,
    })
}

/// The checked-in syscall corpus directory
/// (`crates/fuzz/corpus/syscall/`). A subdirectory, so the kernel-recipe
/// loader ([`crate::corpus::load_corpus`]) never sees these entries.
#[must_use]
pub fn sys_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join("syscall")
}

/// Loads every syscall corpus entry under `dir`, sorted by filename.
///
/// # Errors
///
/// I/O failures or malformed entries (with the offending filename).
pub fn load_sys_corpus(dir: &Path) -> Result<Vec<(String, SysRecipe)>, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|path| {
            let name =
                path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("read {name}: {e}"))?;
            let recipe = sys_recipe_from_json(&text).map_err(|e| format!("{name}: {e}"))?;
            Ok((name, recipe))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// One syscall-campaign failure, shrunk.
#[derive(Debug, Clone)]
pub struct SysCaseFailure {
    /// Case index within the campaign.
    pub index: u64,
    /// What the oracle rejected.
    pub failure: SysFailure,
    /// The minimized recipe (same failure kind).
    pub shrunk: SysRecipe,
}

/// Aggregate syscall-campaign results.
#[derive(Debug, Clone, Default)]
pub struct SysCampaignReport {
    /// Cases drawn.
    pub cases: u64,
    /// Total simulated cycles across all engines of all passing cases.
    pub sim_cycles: u64,
    /// Oracle violations.
    pub failures: Vec<SysCaseFailure>,
}

impl SysCampaignReport {
    /// Zero oracle mismatches and zero panics.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The syscall recipe a `(campaign seed, case index)` pair denotes.
#[must_use]
pub fn sys_case_recipe(seed: u64, index: u64) -> SysRecipe {
    let mut rng = Rng64::seed_from_u64(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    generate_sys(&mut rng)
}

/// [`check_sys_case`] hardened against panics, mirroring
/// [`crate::checked`]: a panic anywhere in the stack is a finding, not a
/// campaign crash.
///
/// # Errors
///
/// Returns the [`SysFailure`] the oracle (or a panic) produced.
pub fn checked_sys(r: &SysRecipe) -> Result<u64, SysFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check_sys_case(r))) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(fail("panic", detail))
        }
    }
}

/// Runs a syscall fuzz campaign: `cases` random trap programs, each
/// checked on all three engine runs, failures shrunk by op deletion.
#[must_use]
pub fn run_sys_campaign(cases: u64, seed: u64) -> SysCampaignReport {
    let mut report = SysCampaignReport { cases, ..SysCampaignReport::default() };
    for index in 0..cases {
        let recipe = sys_case_recipe(seed, index);
        match checked_sys(&recipe) {
            Ok(cycles) => report.sim_cycles += cycles,
            Err(failure) => {
                let kind = failure.kind;
                let shrunk = shrink_sys(&recipe, |cand| {
                    checked_sys(cand).err().is_some_and(|f| f.kind == kind)
                });
                report.failures.push(SysCaseFailure { index, failure, shrunk });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-seed generator coverage: every op kind, bad fds, and
    /// nonzero exit codes all appear.
    #[test]
    fn generator_covers_the_abi() {
        let mut writes = 0;
        let mut bad_fd = 0;
        let mut grows = 0;
        let mut shrinks = 0;
        let mut reads = 0;
        let mut times = 0;
        let mut spacers = 0;
        let mut nonzero_exit = 0;
        for i in 0..200 {
            let r = sys_case_recipe(0x5C5C, i);
            nonzero_exit += u64::from(r.exit_code != 0);
            for op in &r.ops {
                match op {
                    SysOp::Write { fd, .. } => {
                        writes += 1;
                        bad_fd += u64::from(*fd != 1 && *fd != 2);
                    }
                    SysOp::BrkGrow { .. } => grows += 1,
                    SysOp::BrkShrink => shrinks += 1,
                    SysOp::Read { .. } => reads += 1,
                    SysOp::Gettime => times += 1,
                    SysOp::Compute { .. } => spacers += 1,
                }
            }
        }
        for (label, count) in [
            ("write", writes),
            ("bad-fd write", bad_fd),
            ("brk-grow", grows),
            ("brk-shrink", shrinks),
            ("read", reads),
            ("gettime", times),
            ("compute", spacers),
            ("nonzero exit", nonzero_exit),
        ] {
            assert!(count > 0, "grammar never drew {label}");
        }
    }

    /// A small but real syscall campaign is clean on every engine.
    #[test]
    fn small_sys_campaign_is_clean() {
        let report = run_sys_campaign(40, 0xD75E);
        assert_eq!(report.cases, 40);
        assert!(
            report.clean(),
            "syscall oracle failures: {:?}",
            report.failures.iter().map(|f| f.failure.to_string()).collect::<Vec<_>>()
        );
        assert!(report.sim_cycles > 0);
    }

    /// The synthetic lost-write hook is detected as a stream mismatch and
    /// shrinks to a minimal recipe that still fails the same way.
    #[test]
    fn lost_write_is_detected_and_shrinks() {
        let recipe = (0..)
            .map(|i| sys_case_recipe(0x10_57, i))
            .find(|r| r.ops.len() >= 4)
            .expect("the grammar draws multi-op programs");
        let failure = check_sys_case_with(&recipe, true).expect_err("lost write detected");
        assert_eq!(failure.kind, "stream-mismatch", "{failure}");
        let small = shrink_sys(&recipe, |cand| {
            check_sys_case_with(cand, true).err().is_some_and(|f| f.kind == failure.kind)
        });
        // The sabotage perturbs expected stdout unconditionally, so the
        // empty program still trips it — the shrinker must reach bottom.
        assert!(small.ops.is_empty(), "shrunk to {:?}", small.ops);
        assert_eq!(small.exit_code, 0);
        check_sys_case(&small).expect("shrunken recipe is otherwise clean");
    }

    /// JSON round-trips random syscall recipes exactly.
    #[test]
    fn sys_json_round_trips() {
        for i in 0..60 {
            let r = sys_case_recipe(0xC0DE, i);
            let text = sys_recipe_json(&r, Some("stream-mismatch"));
            let back = sys_recipe_from_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(r, back);
        }
        assert!(sys_recipe_from_json("").is_err());
        assert!(sys_recipe_from_json("{\"version\": 99}").is_err());
        assert!(sys_recipe_from_json(
            "{\"version\": 1, \"ops\": [[\"write\", 1, 250, 63]], \"exit_code\": 0, \
             \"data_seed\": 1, \"stdin_len\": 0}"
        )
        .is_err());
    }
}
