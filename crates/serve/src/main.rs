//! The `dyser-serve` daemon binary.
//!
//! ```text
//! dyser-serve                                   # 127.0.0.1:7878, 4 shards
//! dyser-serve --addr 0.0.0.0:9000 --shards 8
//! dyser-serve --queue 128 --max-cycles 0x5f5e100
//! ```
//!
//! Endpoints: `POST /job` (a JSON job request, see `dyser_bench::serve`)
//! and `GET /health`. Submit jobs with `repro --serve http://host:port`
//! or any HTTP client.

use dyser_serve::{ServeConfig, Server};

/// Parses a `--flag value` pair out of `args`, removing both tokens.
fn take_value<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1).and_then(|v| parse(v)) else {
        eprintln!("{flag} requires a valid value");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(v)
}

/// Accepts `123` or `0x7b`.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig::default();
    if let Some(addr) = take_value(&mut args, "--addr", |v| Some(v.to_owned())) {
        config.addr = addr;
    }
    if let Some(shards) = take_value(&mut args, "--shards", |v| {
        v.parse::<usize>().ok().filter(|&n| n > 0)
    }) {
        config.shards = shards;
    }
    if let Some(depth) = take_value(&mut args, "--queue", |v| {
        v.parse::<usize>().ok().filter(|&n| n > 0)
    }) {
        config.queue_depth = depth;
    }
    if let Some(cap) = take_value(&mut args, "--max-cycles", parse_u64) {
        config.max_cycles_cap = cap;
    }
    if let Some(stray) = args.first() {
        eprintln!(
            "unknown argument `{stray}`; valid: --addr HOST:PORT --shards N --queue N --max-cycles N"
        );
        std::process::exit(2);
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dyser-serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "dyser-serve listening on {} ({} shards, queue depth {}, cycle cap {})",
        server.url(),
        server.config().shards,
        server.config().queue_depth,
        server.config().max_cycles_cap
    );
    server.run();
}
