//! The simulation-service protocol: job requests, job results, typed
//! job errors, and the blocking HTTP/JSON client behind `repro --serve`.
//!
//! The wire format is deliberately small: one `POST /job` carrying a
//! JSON request, one JSON reply carrying either a result or a typed
//! error — the transport/driver split of an FPGA bring-up harness, with
//! TCP standing in for the board link. Everything is hand-written over
//! `std::net` and the dependency-free JSON parser in `dyser-trace`, so
//! the service adds no external dependencies.
//!
//! The daemon itself lives in `crates/serve` (`dyser-serve`); this
//! module is the shared contract between it and its clients.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dyser_core::{Backend, HarnessError, SysError};
use dyser_trace::{json_escaped, parse_json, JsonValue};

/// Default per-job cycle budget when a request does not carry one —
/// the harness's own default.
pub const DEFAULT_JOB_CYCLES: u64 = 50_000_000;

/// I/O timeout on service sockets, both sides. A stuck peer must never
/// wedge a shard worker (or a client) forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(120);

// ------------------------------------------------------------ JobError

/// Typed failure of a service job — and of the `repro` CLI's own I/O
/// paths, which reuse it so file-write failures exit with a message
/// instead of a panic.
///
/// Every variant serializes into the reply envelope; a malformed or
/// impossible job (the fuzzer's zero-depth FIFO configurations, an
/// unknown kernel, a busted JSON body) must come back as one of these,
/// never as a worker panic.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The request body was not a valid job description.
    InvalidRequest(String),
    /// The named kernel is not in the workload suite.
    UnknownKernel(String),
    /// The experiment id is not one of `EXPERIMENT_IDS` or `stats`.
    UnknownExperiment(String),
    /// The job's `SystemConfig` describes impossible hardware
    /// (`SysError::InvalidConfig` on the wire).
    InvalidConfig(String),
    /// Compilation (or IR parsing) failed.
    Compile(String),
    /// The job's cycle budget elapsed without `halt` — the system's
    /// `SysError::Timeout`, surfaced with the cycles it ran.
    Timeout {
        /// Cycles executed when the budget elapsed.
        cycles: u64,
    },
    /// The simulated core faulted or another run error occurred.
    Run(String),
    /// An output buffer mismatched the reference (a simulator or
    /// compiler bug, reported rather than swallowed).
    Mismatch(String),
    /// The admission queue was full; retry later.
    Overloaded(String),
    /// A file or socket operation failed.
    Io(String),
    /// The HTTP/JSON exchange itself was malformed.
    Protocol(String),
    /// A worker caught a panic while executing the job.
    Internal(String),
}

impl JobError {
    /// The stable machine-readable tag for this error.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::InvalidRequest(_) => "invalid-request",
            JobError::UnknownKernel(_) => "unknown-kernel",
            JobError::UnknownExperiment(_) => "unknown-experiment",
            JobError::InvalidConfig(_) => "invalid-config",
            JobError::Compile(_) => "compile",
            JobError::Timeout { .. } => "timeout",
            JobError::Run(_) => "run",
            JobError::Mismatch(_) => "mismatch",
            JobError::Overloaded(_) => "overloaded",
            JobError::Io(_) => "io",
            JobError::Protocol(_) => "protocol",
            JobError::Internal(_) => "internal",
        }
    }

    /// The HTTP status the daemon replies with (the JSON envelope is
    /// authoritative; the status is a courtesy for curl users).
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            JobError::InvalidRequest(_)
            | JobError::UnknownKernel(_)
            | JobError::UnknownExperiment(_)
            | JobError::InvalidConfig(_)
            | JobError::Compile(_)
            | JobError::Protocol(_) => 400,
            JobError::Timeout { .. } => 408,
            JobError::Overloaded(_) => 503,
            JobError::Run(_) | JobError::Mismatch(_) | JobError::Io(_) | JobError::Internal(_) => {
                500
            }
        }
    }

    /// Folds a harness failure into the wire taxonomy, splitting out the
    /// configuration and budget cases the daemon treats specially.
    #[must_use]
    pub fn from_harness(e: &HarnessError) -> JobError {
        match e {
            HarnessError::Compile(c) => JobError::Compile(c.to_string()),
            HarnessError::Run { source: SysError::Timeout { cycles }, .. } => {
                JobError::Timeout { cycles: *cycles }
            }
            HarnessError::Run { source: SysError::InvalidConfig(c), .. } => {
                JobError::InvalidConfig(c.to_string())
            }
            HarnessError::Run { source: SysError::TooManyArgs { .. }, .. } => {
                JobError::InvalidRequest(e.to_string())
            }
            HarnessError::Run { .. } => JobError::Run(e.to_string()),
            HarnessError::Mismatch { .. }
            | HarnessError::StdoutMismatch { .. }
            | HarnessError::ExitMismatch { .. } => JobError::Mismatch(e.to_string()),
        }
    }

    /// Serializes into the error member of a reply envelope: the kind,
    /// the variant's own text as `message` (the `Display` prefix is the
    /// kind's, so the reader adds it back), and a timeout's `cycles`. A
    /// timeout carries no text, so its `message` is its `Display` text.
    #[must_use]
    pub fn to_json(&self) -> String {
        let message = match self {
            JobError::InvalidRequest(m)
            | JobError::UnknownKernel(m)
            | JobError::UnknownExperiment(m)
            | JobError::InvalidConfig(m)
            | JobError::Compile(m)
            | JobError::Run(m)
            | JobError::Mismatch(m)
            | JobError::Overloaded(m)
            | JobError::Io(m)
            | JobError::Protocol(m)
            | JobError::Internal(m) => json_escaped(m),
            JobError::Timeout { .. } => json_escaped(&self.to_string()),
        };
        let mut s = format!("{{\"kind\": \"{}\", \"message\": \"{message}\"", self.kind());
        if let JobError::Timeout { cycles } = self {
            s.push_str(&format!(", \"cycles\": {cycles}"));
        }
        s.push('}');
        s
    }

    /// Reconstructs a `JobError` from a reply envelope's error member.
    fn from_json(v: &JsonValue) -> JobError {
        let message = v
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("(no message)")
            .to_owned();
        match v.get("kind").and_then(JsonValue::as_str).unwrap_or("protocol") {
            "invalid-request" => JobError::InvalidRequest(message),
            "unknown-kernel" => JobError::UnknownKernel(message),
            "unknown-experiment" => JobError::UnknownExperiment(message),
            "invalid-config" => JobError::InvalidConfig(message),
            "compile" => JobError::Compile(message),
            "timeout" => JobError::Timeout {
                cycles: v.get("cycles").and_then(JsonValue::as_u64).unwrap_or(0),
            },
            "run" => JobError::Run(message),
            "mismatch" => JobError::Mismatch(message),
            "overloaded" => JobError::Overloaded(message),
            "io" => JobError::Io(message),
            "internal" => JobError::Internal(message),
            _ => JobError::Protocol(message),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            JobError::UnknownKernel(m) => write!(f, "unknown kernel `{m}`"),
            JobError::UnknownExperiment(m) => write!(f, "unknown experiment `{m}`"),
            JobError::InvalidConfig(m) => write!(f, "invalid system configuration: {m}"),
            JobError::Compile(m) => write!(f, "compile failed: {m}"),
            JobError::Timeout { cycles } => write!(f, "cycle budget elapsed after {cycles} cycles"),
            JobError::Run(m) => write!(f, "run failed: {m}"),
            JobError::Mismatch(m) => write!(f, "output mismatch: {m}"),
            JobError::Overloaded(m) => write!(f, "service overloaded: {m}"),
            JobError::Io(m) => write!(f, "i/o error: {m}"),
            JobError::Protocol(m) => write!(f, "protocol error: {m}"),
            JobError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io(e.to_string())
    }
}

// ------------------------------------------------------- request types

/// Per-job execution knobs shared by kernel and IR jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSpec {
    /// Execution engine; `None` means the harness default.
    pub backend: Option<Backend>,
    /// Use the per-cycle reference path (`System::run_stepped`).
    pub stepped: bool,
    /// Cycle budget; `None` means [`DEFAULT_JOB_CYCLES`]. The daemon
    /// clamps it to its own cap, and the budget is enforced through the
    /// system's `Timeout` plumbing mid-run.
    pub max_cycles: Option<u64>,
    /// Capture and return a Chrome-trace artifact for the runs.
    pub trace: bool,
}

/// System-hardware overrides for kernel and IR jobs; unset fields keep
/// the harness defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSpec {
    /// Fabric grid rows.
    pub rows: Option<usize>,
    /// Fabric grid columns.
    pub cols: Option<usize>,
    /// Port FIFO depth (zero is impossible hardware and comes back as
    /// an `invalid-config` error, never a panic).
    pub fifo_depth: Option<usize>,
    /// Whether a fabric is attached at all.
    pub has_fabric: Option<bool>,
}

/// An initial- or expected-memory region: `(address, 64-bit words)`.
pub type MemImage = Vec<(u64, Vec<u64>)>;

/// One compile+simulate job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// Run experiments (each of `e1`..`e10`, `p1`..`p3`, `ablation`, or
    /// `stats`) in order in one session and return their rendered tables
    /// joined by newlines: what `repro` prints for the same ids.
    Experiment {
        /// Experiment ids, checked before any runs.
        ids: Vec<String>,
        /// Render CSV (`to_csv`) instead of the human table.
        csv: bool,
        /// Input size scale (1.0 = the full evaluation sizes).
        scale: f64,
        /// Backend for every run of the experiment.
        backend: Option<Backend>,
    },
    /// Run one suite kernel by name, baseline and DySER, and verify both.
    Kernel {
        /// Suite kernel name (e.g. `saxpy`).
        name: String,
        /// Problem size; `None` uses the kernel's default.
        n: Option<usize>,
        /// Execution knobs.
        run: RunSpec,
        /// Hardware overrides.
        system: SystemSpec,
    },
    /// Compile and run IR text (the compiler's own textual format).
    Ir {
        /// The IR module text.
        text: String,
        /// Function to run; `None` uses the module's first function.
        function: Option<String>,
        /// Arguments passed in `%o0..%o5`.
        args: Vec<u64>,
        /// Initial memory contents.
        init: MemImage,
        /// Expected memory after the run (empty = unverified).
        expected: MemImage,
        /// Execution knobs.
        run: RunSpec,
        /// Hardware overrides.
        system: SystemSpec,
    },
    /// Run one whole-program workload (`p1`..`p3`) through the syscall
    /// emulation layer, baseline and DySER, verify stdout and exit code
    /// on both legs, and return the captured output.
    Program {
        /// Program name (`p1`, `p2`, `p3`).
        name: String,
        /// Stdin size in 8-byte words; `None` uses the default.
        n: Option<usize>,
        /// Execution knobs.
        run: RunSpec,
    },
    /// Run one `repro dse` sweep: `args` are its command line without
    /// `--serve URL`, parsed by `dse::parse_dse_args`. The reply is an
    /// [`JobResult::Experiment`] carrying the text `repro dse` prints and
    /// the report it writes.
    Dse {
        /// The `repro dse` arguments.
        args: Vec<String>,
    },
    /// Simulate one design-space-exploration point and return its sweep
    /// metrics: cycles, geometry-scaled energy, and config-load stall
    /// cycles.
    DsePoint {
        /// Suite kernel name.
        kernel: String,
        /// Problem size.
        n: usize,
        /// Fabric grid rows.
        rows: usize,
        /// Fabric grid columns.
        cols: usize,
        /// All-universal FU mix instead of the default checkerboard.
        universal: bool,
        /// Port FIFO depth.
        fifo_depth: usize,
        /// Memory preset label (`default`|`tiny`|`perfect`).
        mem: String,
        /// Requested unroll factor.
        unroll: usize,
        /// Execution knobs (backend, cycle budget).
        run: RunSpec,
    },
}

/// Renders a `u64` as a JSON string (`"0x..."`). Raw JSON numbers stop
/// being exact at 2^53, and arguments and memory words are frequently
/// f64 bit patterns that need all 64 bits.
fn u64_json(v: u64) -> String {
    format!("\"{v:#x}\"")
}

/// Accepts a `u64` encoded as a JSON number, a `"0x..."` string, or a
/// decimal string.
fn json_u64(v: &JsonValue) -> Option<u64> {
    if let Some(n) = v.as_u64() {
        return Some(n);
    }
    let s = v.as_str()?;
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn mem_image_json(image: &MemImage) -> String {
    let regions: Vec<String> = image
        .iter()
        .map(|(addr, words)| {
            let ws: Vec<String> = words.iter().map(|w| u64_json(*w)).collect();
            format!("{{\"addr\": {}, \"words\": [{}]}}", u64_json(*addr), ws.join(", "))
        })
        .collect();
    format!("[{}]", regions.join(", "))
}

fn parse_mem_image(v: Option<&JsonValue>, what: &str) -> Result<MemImage, JobError> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let items = v
        .as_array()
        .ok_or_else(|| JobError::InvalidRequest(format!("`{what}` must be an array")))?;
    items
        .iter()
        .map(|region| {
            let addr = region.get("addr").and_then(json_u64).ok_or_else(|| {
                JobError::InvalidRequest(format!("`{what}` region needs an `addr`"))
            })?;
            let words = region
                .get("words")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    JobError::InvalidRequest(format!("`{what}` region needs a `words` array"))
                })?
                .iter()
                .map(|w| {
                    json_u64(w).ok_or_else(|| {
                        JobError::InvalidRequest(format!("`{what}` words must be u64s"))
                    })
                })
                .collect::<Result<Vec<u64>, JobError>>()?;
            Ok((addr, words))
        })
        .collect()
}

impl RunSpec {
    fn json_fields(&self, out: &mut Vec<String>) {
        if let Some(b) = self.backend {
            out.push(format!("\"backend\": \"{}\"", b.label()));
        }
        if self.stepped {
            out.push("\"stepped\": true".into());
        }
        if let Some(mc) = self.max_cycles {
            out.push(format!("\"max_cycles\": {}", u64_json(mc)));
        }
        if self.trace {
            out.push("\"trace\": true".into());
        }
    }

    fn from_json(f: Fields<'_>) -> Result<RunSpec, JobError> {
        Ok(RunSpec {
            backend: f.backend()?,
            stepped: f.bool("stepped")?.unwrap_or(false),
            max_cycles: f.read("max_cycles", "an unsigned integer or a hex string", json_u64)?,
            trace: f.bool("trace")?.unwrap_or(false),
        })
    }
}

impl SystemSpec {
    fn json_fields(&self, out: &mut Vec<String>) {
        let mut fields = Vec::new();
        if let Some(r) = self.rows {
            fields.push(format!("\"rows\": {r}"));
        }
        if let Some(c) = self.cols {
            fields.push(format!("\"cols\": {c}"));
        }
        if let Some(d) = self.fifo_depth {
            fields.push(format!("\"fifo_depth\": {d}"));
        }
        if let Some(h) = self.has_fabric {
            fields.push(format!("\"has_fabric\": {h}"));
        }
        if !fields.is_empty() {
            out.push(format!("\"system\": {{{}}}", fields.join(", ")));
        }
    }

    /// Reads the request's optional `system` object.
    fn from_json(request: Fields<'_>) -> Result<SystemSpec, JobError> {
        let object = request.read("system", "an object", |v| {
            matches!(v, JsonValue::Object(_)).then_some(Fields(v))
        })?;
        let Some(f) = object else {
            return Ok(SystemSpec::default());
        };
        Ok(SystemSpec {
            rows: f.usize("rows")?,
            cols: f.usize("cols")?,
            fifo_depth: f.usize("fifo_depth")?,
            has_fabric: f.bool("has_fabric")?,
        })
    }
}

/// Reads the fields of one request object: an absent field is `None`, so
/// it takes its default; a present field of the wrong type is an
/// `invalid-request` naming its key; unknown keys are ignored.
#[derive(Clone, Copy)]
struct Fields<'a>(&'a JsonValue);

impl<'a> Fields<'a> {
    /// The field at `key`, read by `read`; `what` names what it must be.
    fn read<T>(
        self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, JobError> {
        let wrong = || JobError::InvalidRequest(format!("`{key}` must be {what}"));
        self.0.get(key).map(|v| read(v).ok_or_else(wrong)).transpose()
    }

    fn bool(self, key: &str) -> Result<Option<bool>, JobError> {
        self.read(key, "a boolean", JsonValue::as_bool)
    }

    fn str(self, key: &str) -> Result<Option<&'a str>, JobError> {
        self.read(key, "a string", JsonValue::as_str)
    }

    fn usize(self, key: &str) -> Result<Option<usize>, JobError> {
        let read = |v: &JsonValue| v.as_u64().and_then(|n| usize::try_from(n).ok());
        self.read(key, "a non-negative integer", read)
    }

    fn strings(self, key: &str) -> Result<Option<Vec<String>>, JobError> {
        self.read(key, "an array of strings", |v| {
            v.as_array()?.iter().map(|s| s.as_str().map(str::to_owned)).collect()
        })
    }

    fn backend(self) -> Result<Option<Backend>, JobError> {
        let parse = |s| Backend::parse(s).map_err(JobError::InvalidRequest);
        self.str("backend")?.map(parse).transpose()
    }
}

impl JobRequest {
    /// Serializes the job for the wire.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        match self {
            JobRequest::Experiment { ids, csv, scale, backend } => {
                fields.push("\"kind\": \"experiment\"".into());
                let ids: Vec<String> =
                    ids.iter().map(|id| format!("\"{}\"", json_escaped(id))).collect();
                fields.push(format!("\"ids\": [{}]", ids.join(", ")));
                fields.push(format!("\"csv\": {csv}"));
                fields.push(format!("\"scale\": {scale}"));
                if let Some(b) = backend {
                    fields.push(format!("\"backend\": \"{}\"", b.label()));
                }
            }
            JobRequest::Kernel { name, n, run, system } => {
                fields.push("\"kind\": \"kernel\"".into());
                fields.push(format!("\"name\": \"{}\"", json_escaped(name)));
                if let Some(n) = n {
                    fields.push(format!("\"n\": {n}"));
                }
                run.json_fields(&mut fields);
                system.json_fields(&mut fields);
            }
            JobRequest::Ir { text, function, args, init, expected, run, system } => {
                fields.push("\"kind\": \"ir\"".into());
                fields.push(format!("\"ir\": \"{}\"", json_escaped(text)));
                if let Some(f) = function {
                    fields.push(format!("\"function\": \"{}\"", json_escaped(f)));
                }
                let a: Vec<String> = args.iter().map(|v| u64_json(*v)).collect();
                fields.push(format!("\"args\": [{}]", a.join(", ")));
                fields.push(format!("\"init\": {}", mem_image_json(init)));
                fields.push(format!("\"expected\": {}", mem_image_json(expected)));
                run.json_fields(&mut fields);
                system.json_fields(&mut fields);
            }
            JobRequest::Program { name, n, run } => {
                fields.push("\"kind\": \"program\"".into());
                fields.push(format!("\"name\": \"{}\"", json_escaped(name)));
                if let Some(n) = n {
                    fields.push(format!("\"n\": {n}"));
                }
                run.json_fields(&mut fields);
            }
            JobRequest::Dse { args } => {
                fields.push("\"kind\": \"dse\"".into());
                let args: Vec<String> =
                    args.iter().map(|a| format!("\"{}\"", json_escaped(a))).collect();
                fields.push(format!("\"args\": [{}]", args.join(", ")));
            }
            JobRequest::DsePoint { kernel, n, rows, cols, universal, fifo_depth, mem, unroll, run } => {
                fields.push("\"kind\": \"dse-point\"".into());
                fields.push(format!("\"kernel\": \"{}\"", json_escaped(kernel)));
                fields.push(format!("\"n\": {n}"));
                fields.push(format!("\"rows\": {rows}"));
                fields.push(format!("\"cols\": {cols}"));
                fields.push(format!("\"universal\": {universal}"));
                fields.push(format!("\"fifo_depth\": {fifo_depth}"));
                fields.push(format!("\"mem\": \"{}\"", json_escaped(mem)));
                fields.push(format!("\"unroll\": {unroll}"));
                run.json_fields(&mut fields);
            }
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses a job from a request body.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::InvalidRequest`] describing the first problem.
    pub fn parse(body: &str) -> Result<JobRequest, JobError> {
        let v = parse_json(body).map_err(JobError::InvalidRequest)?;
        let f = Fields(&v);
        let kind =
            f.str("kind")?.ok_or_else(|| JobError::InvalidRequest("missing `kind`".into()))?;
        let needs = |what: &str| JobError::InvalidRequest(format!("{kind} job needs {what}"));
        match kind {
            "experiment" => Ok(JobRequest::Experiment {
                ids: f.strings("ids")?.ok_or_else(|| needs("an `ids` array of strings"))?,
                csv: f.bool("csv")?.unwrap_or(false),
                scale: f.read("scale", "a number", JsonValue::as_f64)?.unwrap_or(1.0),
                backend: f.backend()?,
            }),
            "kernel" => Ok(JobRequest::Kernel {
                name: f.str("name")?.ok_or_else(|| needs("a `name`"))?.to_owned(),
                n: f.usize("n")?,
                run: RunSpec::from_json(f)?,
                system: SystemSpec::from_json(f)?,
            }),
            "ir" => Ok(JobRequest::Ir {
                text: f.str("ir")?.ok_or_else(|| needs("an `ir` text"))?.to_owned(),
                function: f.str("function")?.map(str::to_owned),
                args: f
                    .read("args", "an array of u64s", |a| {
                        a.as_array()?.iter().map(json_u64).collect()
                    })?
                    .unwrap_or_default(),
                init: parse_mem_image(v.get("init"), "init")?,
                expected: parse_mem_image(v.get("expected"), "expected")?,
                run: RunSpec::from_json(f)?,
                system: SystemSpec::from_json(f)?,
            }),
            "program" => Ok(JobRequest::Program {
                name: f.str("name")?.ok_or_else(|| needs("a `name`"))?.to_owned(),
                n: f.usize("n")?,
                run: RunSpec::from_json(f)?,
            }),
            "dse" => Ok(JobRequest::Dse { args: f.strings("args")?.unwrap_or_default() }),
            "dse-point" => {
                let count =
                    |key: &str| f.usize(key)?.ok_or_else(|| needs(&format!("a `{key}` integer")));
                Ok(JobRequest::DsePoint {
                    kernel: f.str("kernel")?.ok_or_else(|| needs("a `kernel`"))?.to_owned(),
                    n: count("n")?,
                    rows: count("rows")?,
                    cols: count("cols")?,
                    universal: f.bool("universal")?.unwrap_or(false),
                    fifo_depth: count("fifo_depth")?,
                    mem: f.str("mem")?.unwrap_or("default").to_owned(),
                    unroll: count("unroll")?,
                    run: RunSpec::from_json(f)?,
                })
            }
            other => Err(JobError::InvalidRequest(format!("unknown job kind `{other}`"))),
        }
    }
}

// -------------------------------------------------------- result types

/// A successful job's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// An experiment's rendered tables, or a `dse` sweep's: exactly the
    /// bytes the in-process `repro` or `repro dse` would print.
    Experiment {
        /// The rendered tables.
        text: String,
        /// A `dse` sweep's `BENCH_dse.json` report, which `repro dse`
        /// writes to `dse_path`; `None` for experiments.
        report: Option<String>,
    },
    /// A kernel or IR run's statistics.
    Run {
        /// Kernel or function name.
        name: String,
        /// Baseline run cycles.
        baseline_cycles: u64,
        /// Accelerated run cycles.
        dyser_cycles: u64,
        /// Baseline cycles / accelerated cycles.
        speedup: f64,
        /// The exhaustive `Debug` rendering of the baseline `RunStats` —
        /// the byte-identity surface the equivalence tests compare
        /// (structural equality by construction, like the compile
        /// cache's keys).
        baseline_stats: String,
        /// The accelerated run's `RunStats` rendering.
        dyser_stats: String,
        /// The accelerated run's cycle attribution, `(label, cycles)`
        /// in `CycleBucket::ALL` order.
        buckets: Vec<(String, u64)>,
        /// Chrome-trace artifact of both runs, when the job asked for
        /// one.
        trace_json: Option<String>,
    },
    /// A whole-program run's outcome: cycle counts plus the captured
    /// process output (identical on both legs — the harness enforces
    /// it before the result is built).
    Program {
        /// Program name.
        name: String,
        /// Baseline run cycles.
        baseline_cycles: u64,
        /// Accelerated run cycles.
        dyser_cycles: u64,
        /// Baseline cycles / accelerated cycles.
        speedup: f64,
        /// The program's stdout bytes (ASCII).
        stdout: String,
        /// The program's exit code.
        exit_code: u64,
    },
    /// A design-space point's sweep metrics.
    DsePoint {
        /// Suite kernel name.
        kernel: String,
        /// Baseline (no-DySER) cycles.
        baseline_cycles: u64,
        /// Accelerated cycles.
        cycles: u64,
        /// Accelerated-run energy (nJ), leakage scaled to the point's
        /// grid size.
        energy_nj: f64,
        /// Cycles the core stalled on configuration loads.
        config_cycles: u64,
    },
}

impl JobResult {
    /// Serializes into the result member of a reply envelope. Every
    /// `f64` is written in its shortest form that parses back to the same
    /// bits, so a served result equals the in-process one.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            JobResult::Experiment { text, report } => {
                let report = report
                    .as_ref()
                    .map(|r| format!(", \"report\": \"{}\"", json_escaped(r)))
                    .unwrap_or_default();
                format!("{{\"text\": \"{}\"{report}}}", json_escaped(text))
            }
            JobResult::Run {
                name,
                baseline_cycles,
                dyser_cycles,
                speedup,
                baseline_stats,
                dyser_stats,
                buckets,
                trace_json,
            } => {
                let bucket_fields: Vec<String> = buckets
                    .iter()
                    .map(|(label, cycles)| format!("\"{}\": {cycles}", json_escaped(label)))
                    .collect();
                let mut s = format!(
                    "{{\"name\": \"{}\", \"baseline_cycles\": {baseline_cycles}, \
                     \"dyser_cycles\": {dyser_cycles}, \"speedup\": {speedup}, \
                     \"cycle_buckets\": {{{}}}, \"baseline_stats\": \"{}\", \
                     \"dyser_stats\": \"{}\"",
                    json_escaped(name),
                    bucket_fields.join(", "),
                    json_escaped(baseline_stats),
                    json_escaped(dyser_stats),
                );
                if let Some(t) = trace_json {
                    s.push_str(&format!(", \"trace_json\": \"{}\"", json_escaped(t)));
                }
                s.push('}');
                s
            }
            JobResult::Program { name, baseline_cycles, dyser_cycles, speedup, stdout, exit_code } => {
                format!(
                    "{{\"name\": \"{}\", \"baseline_cycles\": {baseline_cycles}, \
                     \"dyser_cycles\": {dyser_cycles}, \"speedup\": {speedup}, \
                     \"stdout\": \"{}\", \"exit_code\": {exit_code}}}",
                    json_escaped(name),
                    json_escaped(stdout)
                )
            }
            JobResult::DsePoint { kernel, baseline_cycles, cycles, energy_nj, config_cycles } => {
                format!(
                    "{{\"kernel\": \"{}\", \"baseline_cycles\": {baseline_cycles}, \
                     \"cycles\": {cycles}, \"energy_nj\": {energy_nj}, \
                     \"config_cycles\": {config_cycles}}}",
                    json_escaped(kernel)
                )
            }
        }
    }

    fn from_json(v: &JsonValue) -> Result<JobResult, JobError> {
        if let Some(text) = v.get("text").and_then(JsonValue::as_str) {
            let report = v.get("report").and_then(JsonValue::as_str).map(str::to_owned);
            return Ok(JobResult::Experiment { text: text.to_owned(), report });
        }
        if let Some(energy_nj) = v.get("energy_nj").and_then(JsonValue::as_f64) {
            let field = |key: &str| -> Result<u64, JobError> {
                v.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| JobError::Protocol(format!("dse result missing `{key}`")))
            };
            return Ok(JobResult::DsePoint {
                kernel: v
                    .get("kernel")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| JobError::Protocol("dse result missing `kernel`".into()))?
                    .to_owned(),
                baseline_cycles: field("baseline_cycles")?,
                cycles: field("cycles")?,
                energy_nj,
                config_cycles: field("config_cycles")?,
            });
        }
        if let Some(exit_code) = v.get("exit_code").and_then(JsonValue::as_u64) {
            let field_str = |key: &str| -> Result<String, JobError> {
                v.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| JobError::Protocol(format!("program result missing `{key}`")))
            };
            let field_u64 = |key: &str| -> Result<u64, JobError> {
                v.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| JobError::Protocol(format!("program result missing `{key}`")))
            };
            return Ok(JobResult::Program {
                name: field_str("name")?,
                baseline_cycles: field_u64("baseline_cycles")?,
                dyser_cycles: field_u64("dyser_cycles")?,
                speedup: v
                    .get("speedup")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| JobError::Protocol("program result missing `speedup`".into()))?,
                stdout: field_str("stdout")?,
                exit_code,
            });
        }
        let field_str = |key: &str| -> Result<String, JobError> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| JobError::Protocol(format!("result missing `{key}`")))
        };
        let field_u64 = |key: &str| -> Result<u64, JobError> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| JobError::Protocol(format!("result missing `{key}`")))
        };
        let buckets = match v.get("cycle_buckets") {
            Some(JsonValue::Object(members)) => members
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|c| (k.clone(), c))
                        .ok_or_else(|| JobError::Protocol("bucket cycles must be u64".into()))
                })
                .collect::<Result<Vec<_>, JobError>>()?,
            _ => Vec::new(),
        };
        Ok(JobResult::Run {
            name: field_str("name")?,
            baseline_cycles: field_u64("baseline_cycles")?,
            dyser_cycles: field_u64("dyser_cycles")?,
            speedup: v
                .get("speedup")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| JobError::Protocol("result missing `speedup`".into()))?,
            baseline_stats: field_str("baseline_stats")?,
            dyser_stats: field_str("dyser_stats")?,
            buckets,
            trace_json: v.get("trace_json").and_then(JsonValue::as_str).map(str::to_owned),
        })
    }
}

/// Wraps a job outcome as the reply envelope the daemon writes.
#[must_use]
pub fn envelope_json(outcome: &Result<JobResult, JobError>) -> String {
    match outcome {
        Ok(result) => format!("{{\"ok\": true, \"result\": {}}}\n", result.to_json()),
        Err(e) => format!("{{\"ok\": false, \"error\": {}}}\n", e.to_json()),
    }
}

/// Parses a reply envelope back into the job outcome.
///
/// # Errors
///
/// [`JobError::Protocol`] when the envelope itself is malformed; the
/// server's own typed error when the envelope carries one.
pub fn parse_envelope(body: &str) -> Result<JobResult, JobError> {
    let v = parse_json(body).map_err(JobError::Protocol)?;
    match v.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => JobResult::from_json(
            v.get("result").ok_or_else(|| JobError::Protocol("missing `result`".into()))?,
        ),
        Some(false) => Err(v
            .get("error")
            .map(JobError::from_json)
            .unwrap_or_else(|| JobError::Protocol("missing `error`".into()))),
        None => Err(JobError::Protocol("reply envelope missing `ok`".into())),
    }
}

// ---------------------------------------------------------------- HTTP

/// A parsed HTTP request: method, path, body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request path (`/job`, `/health`).
    pub path: String,
    /// Decoded body (empty for bodiless requests).
    pub body: String,
}

/// Reads one HTTP/1.1 request off `stream` (headers + `Content-Length`
/// body).
///
/// # Errors
///
/// [`JobError::Protocol`] on malformed framing, [`JobError::Io`] on
/// socket failures.
pub fn read_http_request(stream: &mut TcpStream) -> Result<HttpRequest, JobError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| JobError::Protocol("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| JobError::Protocol("request line missing a path".into()))?
        .to_owned();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((key, value)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| JobError::Protocol("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(JobError::Protocol(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| JobError::Protocol("body is not UTF-8".into()))?;
    Ok(HttpRequest { method, path, body })
}

/// Largest request/response body accepted, a backstop against a rogue
/// peer claiming a multi-gigabyte `Content-Length`.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Writes one HTTP/1.1 response with a JSON body and closes the
/// write side.
///
/// # Errors
///
/// [`JobError::Io`] on socket failures.
pub fn write_http_response(stream: &mut TcpStream, status: u16, body: &str) -> Result<(), JobError> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Extracts `host:port` from a service URL (`http://host:port` or bare
/// `host:port`).
fn host_of(url: &str) -> &str {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    rest.split('/').next().unwrap_or(rest).trim_end_matches('/')
}

/// One blocking HTTP exchange: connect, send, read the full reply.
///
/// # Errors
///
/// [`JobError::Io`] on connection failures, [`JobError::Protocol`] on
/// malformed replies.
pub fn http_exchange(url: &str, method: &str, path: &str, body: &str) -> Result<String, JobError> {
    let host = host_of(url);
    let mut stream = TcpStream::connect(host)
        .map_err(|e| JobError::Io(format!("connect {host}: {e}")))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if !status_line.starts_with("HTTP/1.") {
        return Err(JobError::Protocol(format!("not an HTTP reply: {status_line:?}")));
    }
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((key, value)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) if n <= MAX_BODY_BYTES => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        Some(n) => {
            return Err(JobError::Protocol(format!("reply body of {n} bytes is too large")));
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body).map_err(|_| JobError::Protocol("reply is not UTF-8".into()))
}

/// Submits one job to a running `dyser-serve` and returns its outcome.
///
/// # Errors
///
/// Transport failures ([`JobError::Io`]/[`JobError::Protocol`]) or the
/// server's own typed job error.
pub fn submit(url: &str, request: &JobRequest) -> Result<JobResult, JobError> {
    let reply = http_exchange(url, "POST", "/job", &request.to_json())?;
    parse_envelope(&reply)
}

/// Fetches the daemon's health document (a JSON object).
///
/// # Errors
///
/// Transport failures, or [`JobError::Protocol`] if the reply is not
/// JSON.
pub fn health(url: &str) -> Result<String, JobError> {
    let reply = http_exchange(url, "GET", "/health", "")?;
    parse_json(&reply).map_err(JobError::Protocol)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let jobs = vec![
            JobRequest::Experiment {
                ids: vec!["e2".into()],
                csv: true,
                scale: 0.25,
                backend: Some(Backend::Compiled),
            },
            JobRequest::Experiment {
                ids: vec!["e1".into(), "stats".into(), "p1".into(), "ablation".into()],
                csv: false,
                scale: 1.0,
                backend: None,
            },
            JobRequest::Kernel {
                name: "saxpy".into(),
                n: Some(128),
                run: RunSpec {
                    backend: Some(Backend::Interpreted),
                    stepped: true,
                    max_cycles: Some(123_456),
                    trace: true,
                },
                system: SystemSpec {
                    rows: Some(4),
                    cols: Some(4),
                    fifo_depth: Some(2),
                    has_fabric: Some(true),
                },
            },
            JobRequest::Ir {
                text: "func @f() {\n}\n".into(),
                function: Some("f".into()),
                args: vec![0x20_0000, f64::to_bits(1.5)],
                init: vec![(0x20_0000, vec![1, u64::MAX])],
                expected: vec![],
                run: RunSpec::default(),
                system: SystemSpec::default(),
            },
            JobRequest::DsePoint {
                kernel: "poly6".into(),
                n: 64,
                rows: 2,
                cols: 8,
                universal: true,
                fifo_depth: 4,
                mem: "tiny".into(),
                unroll: 2,
                run: RunSpec { backend: Some(Backend::Compiled), ..RunSpec::default() },
            },
            JobRequest::Program {
                name: "p1".into(),
                n: Some(64),
                run: RunSpec { backend: Some(Backend::Compiled), ..RunSpec::default() },
            },
            JobRequest::Program { name: "p3".into(), n: None, run: RunSpec::default() },
            JobRequest::Dse { args: vec![] },
            JobRequest::Dse {
                args: ["--kernels", "saxpy,\"quoted\"", "--csv"].map(str::to_owned).into(),
            },
        ];
        for job in jobs {
            let json = job.to_json();
            dyser_trace::validate_json(&json).expect("request renders valid JSON");
            let back = JobRequest::parse(&json).expect("request parses back");
            assert_eq!(back, job, "{json}");
        }
    }

    #[test]
    fn results_and_errors_round_trip_through_envelopes() {
        let ok: Result<JobResult, JobError> = Ok(JobResult::Run {
            name: "saxpy".into(),
            baseline_cycles: 1000,
            dyser_cycles: 3,
            speedup: 1000.0 / 3.0,
            baseline_stats: "RunStats { cycles: 1000, .. }".into(),
            dyser_stats: "RunStats { cycles: 250, .. }".into(),
            buckets: vec![("core-compute".into(), 200), ("mem-miss".into(), 50)],
            trace_json: Some("{\"traceEvents\": []}".into()),
        });
        let body = envelope_json(&ok);
        dyser_trace::validate_json(&body).expect("envelope is valid JSON");
        assert_eq!(parse_envelope(&body), ok.map_err(|_| unreachable!()));

        let program: Result<JobResult, JobError> = Ok(JobResult::Program {
            name: "p2".into(),
            baseline_cycles: 9000,
            dyser_cycles: 4500,
            speedup: 2.0,
            stdout: "17\n12345\n".into(),
            exit_code: 0,
        });
        let body = envelope_json(&program);
        dyser_trace::validate_json(&body).expect("program envelope is valid JSON");
        assert_eq!(parse_envelope(&body), program.map_err(|_| unreachable!()));
    }

    /// Every variant comes back equal, so a client that prints a served
    /// error shows its prefix once.
    #[test]
    fn every_error_round_trips_through_an_envelope() {
        let text = || "no \"experiment\" ids\nat all".to_owned();
        let errors = [
            JobError::InvalidRequest(text()),
            JobError::UnknownKernel(text()),
            JobError::UnknownExperiment(text()),
            JobError::InvalidConfig(text()),
            JobError::Compile(text()),
            JobError::Timeout { cycles: 99 },
            JobError::Run(text()),
            JobError::Mismatch(text()),
            JobError::Overloaded(text()),
            JobError::Io(text()),
            JobError::Protocol(text()),
            JobError::Internal(text()),
        ];
        for err in errors {
            let body = envelope_json(&Err(err.clone()));
            dyser_trace::validate_json(&body).expect("error envelope is valid JSON");
            assert_eq!(parse_envelope(&body), Err(err), "{body}");
        }
    }

    #[test]
    fn dse_point_result_round_trips() {
        let ok: Result<JobResult, JobError> = Ok(JobResult::DsePoint {
            kernel: "saxpy".into(),
            baseline_cycles: 4000,
            cycles: 900,
            // More digits than any fixed precision keeps.
            energy_nj: 26_225.456_789_012_34,
            config_cycles: 37,
        });
        let body = envelope_json(&ok);
        dyser_trace::validate_json(&body).expect("envelope is valid JSON");
        assert_eq!(parse_envelope(&body), ok.map_err(|_| unreachable!()));
    }

    #[test]
    fn experiment_text_round_trips_exactly() {
        let text = "a,b\n1,\"x,y\"\n# note with \"quotes\" and\nnewlines\n";
        for report in [None, Some("{\n  \"bench\": \"repro dse\"\n}\n".to_owned())] {
            let ok = Ok(JobResult::Experiment { text: text.into(), report });
            assert_eq!(parse_envelope(&envelope_json(&ok)), ok);
        }
    }

    #[test]
    fn harness_errors_map_to_the_wire_taxonomy() {
        use dyser_fabric::FabricConfigError;
        let timeout = HarnessError::Run {
            which: "dyser",
            source: SysError::Timeout { cycles: 500 },
        };
        assert_eq!(JobError::from_harness(&timeout), JobError::Timeout { cycles: 500 });
        let invalid = HarnessError::Run {
            which: "baseline",
            source: SysError::InvalidConfig(FabricConfigError::ZeroFifoDepth),
        };
        assert_eq!(JobError::from_harness(&invalid).kind(), "invalid-config");
        let args =
            HarnessError::Run { which: "baseline", source: SysError::TooManyArgs { count: 7 } };
        assert_eq!(JobError::from_harness(&args).kind(), "invalid-request");
    }

    #[test]
    fn url_host_extraction() {
        assert_eq!(host_of("http://127.0.0.1:7878"), "127.0.0.1:7878");
        assert_eq!(host_of("http://localhost:7878/"), "localhost:7878");
        assert_eq!(host_of("127.0.0.1:7878"), "127.0.0.1:7878");
    }
}
