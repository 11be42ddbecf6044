//! FASE-style trap-and-emulate syscall layer.
//!
//! A `ta`-style [`Instr::Trap`](dyser_isa::Instr) freezes the core (see
//! [`Pipeline::pending_syscall`](crate::Pipeline::pending_syscall)); the
//! *harness* — not the self-ticking core — then services the call through
//! a [`SyscallHandler`] and resumes the core with
//! [`Pipeline::complete_syscall`](crate::Pipeline::complete_syscall).
//! Keeping the handler outside the core preserves the bit-identity
//! contract: every backend (interpreted, stepped, compiled)
//! observes the trap at the same retired-instruction boundary, performs
//! the same memory effects, and charges the same deterministic service
//! latency, so stdout bytes, exit codes, and cycle counts are identical
//! across engines.
//!
//! The ABI is a minimal proxy-kernel surface (numbers in the SunOS
//! tradition): arguments travel in `%o0..%o5`, the result returns in
//! `%o0`, and errors return `-1` (`u64::MAX`) — there is no errno cell.
//!
//! | # | name | arguments | result |
//! |---|------|-----------|--------|
//! | 1 | `exit` | code | does not return |
//! | 3 | `read` | fd, buf, len | bytes read (0 at EOF), -1 bad fd |
//! | 4 | `write` | fd, buf, len | bytes written, -1 bad fd |
//! | 17 | `brk` | addr (0 queries) | new break, current break on refusal |
//! | 116 | `gettime` | — | virtual time in cycles |
//!
//! `gettime` reads the *virtual* clock — the core's own cycle counter —
//! so timing queries are bit-reproducible and independent of host time.

use dyser_mem::Memory;

/// `exit(code)` — terminate the program.
pub const SYS_EXIT: u16 = 1;
/// `read(fd, buf, len)` — read from captured stdin.
pub const SYS_READ: u16 = 3;
/// `write(fd, buf, len)` — write to captured stdout/stderr.
pub const SYS_WRITE: u16 = 4;
/// `brk(addr)` — move the program break (0 queries, shrink refused).
pub const SYS_BRK: u16 = 17;
/// `gettime()` — the virtual (cycle-derived) clock.
pub const SYS_GETTIME: u16 = 116;

/// The error result every failed call returns in `%o0`.
pub const SYS_ERR: u64 = u64::MAX;

/// Fixed service latency of any syscall, in cycles — the trap, the
/// privilege switch, and the handler dispatch.
pub const SYSCALL_BASE_COST: u64 = 40;

/// Deterministic service latency: a fixed base plus one cycle per eight
/// bytes moved between guest and harness memory. Identical across
/// backends by construction — it depends only on the call's arguments.
pub fn service_cost(bytes_moved: u64) -> u64 {
    SYSCALL_BASE_COST + (bytes_moved >> 3)
}

/// What servicing a syscall decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOutcome {
    /// Resume the core: `retval` goes to `%o0`, `stall` cycles of
    /// [`StallCause::Syscall`](crate::StallCause) service latency are
    /// charged before the next instruction issues.
    Done {
        /// Value returned in `%o0`.
        retval: u64,
        /// Service latency in cycles.
        stall: u64,
    },
    /// The program called `exit(code)`: halt the core.
    Exit {
        /// The exit code (low 8 bits are the process status).
        code: u64,
    },
    /// The trap number is not part of the ABI: a typed error, never a
    /// panic (the system maps it to `SysError::UnknownSyscall`).
    Unknown,
}

/// A harness-side syscall service routine.
///
/// `args` are the guest's `%o0..%o5` at the trap; `cycles` is the core's
/// cycle counter (the virtual clock); `mem` is the guest's functional
/// memory, accessed untimed (the deterministic [`service_cost`] stands in
/// for the data movement).
pub trait SyscallHandler {
    /// Services one trap.
    fn syscall(&mut self, code: u16, args: [u64; 6], cycles: u64, mem: &mut Memory) -> SysOutcome;
}

/// The proxy kernel: captured standard streams, a bump-only program
/// break, and the virtual clock.
///
/// All state is plain data — cloning a [`ProxyKernel`] clones the whole
/// OS state.
#[derive(Debug, Clone, Default)]
pub struct ProxyKernel {
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    stdin: Vec<u8>,
    stdin_pos: usize,
    /// Current program break; 0 until the loader sets the heap base.
    brk: u64,
    /// Lowest address `brk` may hold (the loader's heap base).
    heap_base: u64,
    exit_code: Option<u64>,
}

impl ProxyKernel {
    /// A kernel with empty streams and an unset heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the heap base: the initial program break and the floor below
    /// which `brk` refuses to move.
    pub fn set_heap_base(&mut self, base: u64) {
        self.heap_base = base;
        self.brk = base;
    }

    /// Replaces captured stdin with `bytes` and rewinds the read cursor.
    pub fn set_stdin(&mut self, bytes: &[u8]) {
        self.stdin = bytes.to_vec();
        self.stdin_pos = 0;
    }

    /// Bytes the program has written to stdout so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Bytes the program has written to stderr so far.
    pub fn stderr(&self) -> &[u8] {
        &self.stderr
    }

    /// The current program break.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// The code passed to `exit`, once the program has exited.
    pub fn exit_code(&self) -> Option<u64> {
        self.exit_code
    }
}

impl SyscallHandler for ProxyKernel {
    fn syscall(&mut self, code: u16, args: [u64; 6], cycles: u64, mem: &mut Memory) -> SysOutcome {
        match code {
            SYS_EXIT => {
                self.exit_code = Some(args[0]);
                SysOutcome::Exit { code: args[0] }
            }
            SYS_READ => {
                let [fd, buf, len, ..] = args;
                if fd != 0 {
                    return SysOutcome::Done { retval: SYS_ERR, stall: service_cost(0) };
                }
                let remaining = self.stdin.len() - self.stdin_pos;
                let n = (len as usize).min(remaining);
                for i in 0..n {
                    mem.write_u8(buf + i as u64, self.stdin[self.stdin_pos + i]);
                }
                self.stdin_pos += n;
                SysOutcome::Done { retval: n as u64, stall: service_cost(n as u64) }
            }
            SYS_WRITE => {
                let [fd, buf, len, ..] = args;
                let sink = match fd {
                    1 => &mut self.stdout,
                    2 => &mut self.stderr,
                    _ => return SysOutcome::Done { retval: SYS_ERR, stall: service_cost(0) },
                };
                for i in 0..len {
                    sink.push(mem.read_u8(buf + i));
                }
                SysOutcome::Done { retval: len, stall: service_cost(len) }
            }
            SYS_BRK => {
                let addr = args[0];
                // Grow-only: a query (0), a shrink, or an address below
                // the heap base all leave the break where it is; the
                // returned break tells the program what happened.
                if addr >= self.brk.max(self.heap_base) {
                    self.brk = addr;
                }
                SysOutcome::Done { retval: self.brk, stall: service_cost(0) }
            }
            SYS_GETTIME => SysOutcome::Done { retval: cycles, stall: service_cost(0) },
            _ => SysOutcome::Unknown,
        }
    }
}

/// The startup image `write_startup_stack` lays out, with the register
/// seeds the loader must install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupStack {
    /// Argument count, for `%o0`.
    pub argc: u64,
    /// Address of the argv pointer array, for `%o1`.
    pub argv: u64,
    /// Address of the envp pointer array, for `%o2`.
    pub envp: u64,
    /// Stack-pointer seed (`%sp`/`%o6`): the base of the image.
    pub sp: u64,
}

/// Writes the process-startup image at `base` and returns the pointers
/// the loader seeds into registers.
///
/// Layout (all cells 8 bytes, big-endian, strings NUL-terminated):
///
/// ```text
/// base + 0                argc
/// base + 8                argv[0] .. argv[argc-1], NULL
/// ...                     envp[0] .. envp[m-1], NULL
/// ...                     the string bytes themselves
/// ```
pub fn write_startup_stack(mem: &mut Memory, base: u64, argv: &[&str], envp: &[&str]) -> StartupStack {
    let argc = argv.len() as u64;
    mem.write_u64(base, argc);
    let argv_ptr = base + 8;
    let envp_ptr = argv_ptr + 8 * (argc + 1);
    let mut str_at = envp_ptr + 8 * (envp.len() as u64 + 1);
    let mut cell = argv_ptr;
    for (i, s) in argv.iter().chain(envp.iter()).enumerate() {
        // The NULL terminator between the two arrays.
        if i == argv.len() {
            mem.write_u64(cell, 0);
            cell += 8;
        }
        mem.write_u64(cell, str_at);
        cell += 8;
        mem.write_bytes(str_at, s.as_bytes());
        mem.write_u8(str_at + s.len() as u64, 0);
        str_at += s.len() as u64 + 1;
    }
    if argv.is_empty() {
        // The chain loop above never emitted the argv terminator.
        mem.write_u64(cell, 0);
        cell += 8;
    }
    mem.write_u64(cell, 0); // envp terminator
    StartupStack { argc, argv: argv_ptr, envp: envp_ptr, sp: base }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(k: &mut ProxyKernel, mem: &mut Memory, code: u16, args: [u64; 6]) -> SysOutcome {
        k.syscall(code, args, 0, mem)
    }

    #[test]
    fn write_captures_stdout_and_stderr() {
        let mut k = ProxyKernel::new();
        let mut mem = Memory::new();
        mem.write_bytes(0x100, b"hi!");
        let out = call(&mut k, &mut mem, SYS_WRITE, [1, 0x100, 3, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: 3, stall: service_cost(3) });
        let out = call(&mut k, &mut mem, SYS_WRITE, [2, 0x100, 2, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: 2, stall: service_cost(2) });
        assert_eq!(k.stdout(), b"hi!");
        assert_eq!(k.stderr(), b"hi");
    }

    #[test]
    fn write_bad_fd_errors() {
        let mut k = ProxyKernel::new();
        let mut mem = Memory::new();
        let out = call(&mut k, &mut mem, SYS_WRITE, [7, 0x100, 3, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: SYS_ERR, stall: service_cost(0) });
        assert!(k.stdout().is_empty());
    }

    #[test]
    fn read_drains_stdin_then_eof() {
        let mut k = ProxyKernel::new();
        k.set_stdin(b"abcde");
        let mut mem = Memory::new();
        let out = call(&mut k, &mut mem, SYS_READ, [0, 0x200, 3, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: 3, stall: service_cost(3) });
        assert_eq!(mem.read_bytes(0x200, 3), b"abc");
        let out = call(&mut k, &mut mem, SYS_READ, [0, 0x200, 99, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: 2, stall: service_cost(2) });
        let out = call(&mut k, &mut mem, SYS_READ, [0, 0x200, 1, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done { retval: 0, stall: service_cost(0) }, "EOF reads 0");
    }

    #[test]
    fn brk_grows_never_shrinks() {
        let mut k = ProxyKernel::new();
        k.set_heap_base(0x7000);
        let mut mem = Memory::new();
        assert_eq!(
            call(&mut k, &mut mem, SYS_BRK, [0, 0, 0, 0, 0, 0]),
            SysOutcome::Done { retval: 0x7000, stall: service_cost(0) },
            "query returns the current break",
        );
        assert_eq!(
            call(&mut k, &mut mem, SYS_BRK, [0x9000, 0, 0, 0, 0, 0]),
            SysOutcome::Done { retval: 0x9000, stall: service_cost(0) },
        );
        assert_eq!(
            call(&mut k, &mut mem, SYS_BRK, [0x8000, 0, 0, 0, 0, 0]),
            SysOutcome::Done { retval: 0x9000, stall: service_cost(0) },
            "shrink refused",
        );
    }

    #[test]
    fn gettime_reads_the_virtual_clock() {
        let mut k = ProxyKernel::new();
        let mut mem = Memory::new();
        let out = k.syscall(SYS_GETTIME, [0; 6], 12345, &mut mem);
        assert_eq!(out, SysOutcome::Done { retval: 12345, stall: service_cost(0) });
    }

    #[test]
    fn exit_records_code() {
        let mut k = ProxyKernel::new();
        let mut mem = Memory::new();
        let out = call(&mut k, &mut mem, SYS_EXIT, [42, 0, 0, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Exit { code: 42 });
        assert_eq!(k.exit_code(), Some(42));
    }

    #[test]
    fn unknown_numbers_are_typed() {
        let mut k = ProxyKernel::new();
        let mut mem = Memory::new();
        assert_eq!(call(&mut k, &mut mem, 999, [0; 6]), SysOutcome::Unknown);
    }

    #[test]
    fn startup_stack_layout() {
        let mut mem = Memory::new();
        let s = write_startup_stack(&mut mem, 0x6000, &["prog", "x"], &["K=V"]);
        assert_eq!(s, StartupStack { argc: 2, argv: 0x6008, envp: 0x6020, sp: 0x6000 });
        assert_eq!(mem.read_u64(0x6000), 2, "argc");
        let a0 = mem.read_u64(s.argv);
        let a1 = mem.read_u64(s.argv + 8);
        assert_eq!(mem.read_u64(s.argv + 16), 0, "argv NULL terminator");
        assert_eq!(mem.read_bytes(a0, 5), b"prog\0");
        assert_eq!(mem.read_bytes(a1, 2), b"x\0");
        let e0 = mem.read_u64(s.envp);
        assert_eq!(mem.read_u64(s.envp + 8), 0, "envp NULL terminator");
        assert_eq!(mem.read_bytes(e0, 4), b"K=V\0");
        // The string pool starts right after the envp terminator.
        assert_eq!(a0, s.envp + 16);
    }

    #[test]
    fn startup_stack_empty_argv() {
        let mut mem = Memory::new();
        let s = write_startup_stack(&mut mem, 0x6000, &[], &[]);
        assert_eq!(s.argc, 0);
        assert_eq!(mem.read_u64(s.argv), 0);
        assert_eq!(mem.read_u64(s.envp), 0);
    }
}
