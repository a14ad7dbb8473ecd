//! `rpqbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! rpqbench --workload hot-read|cold-eval|write-mix|learn-session
//!          --seed N --seconds S --trace 0|1
//!          --server PATH --work-dir DIR --out-dir DIR
//!          [--commit ID] [--rustc VERSION]
//! ```
//!
//! The TCP workloads drive a `pathlearn serve --listen` child (the binary
//! at `--server`) with closed loops of two connections; `learn-session`
//! runs §4 interactive sessions in-process. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, and the metrics — the
//! end-to-end set untraced, or every per-layer metric with `--trace 1`.
//! Normally started through `run.py`, which builds both binaries.

mod gen;
mod learn;
mod report;
mod server;
mod stats;
mod tcp;
mod trace;

use report::{Ctx, Env};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seconds a run may take beyond its window before the watchdog ends it
/// as a named failure (set-up, checks and the traced replay included).
const WATCHDOG_GRACE_S: u64 = 150;

fn usage(problem: &str) -> ExitCode {
    eprintln!("rpqbench: {problem}");
    eprintln!(
        "usage: rpqbench --workload hot-read|cold-eval|write-mix|learn-session --seed N \
         --seconds S --trace 0|1 --server PATH --work-dir DIR --out-dir DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return usage(&format!("unexpected argument `{flag}`"));
        };
        let Some(value) = iter.next() else {
            return usage(&format!("--{name} needs a value"));
        };
        flags.insert(name.to_owned(), value.clone());
    }
    let get = |name: &str| flags.get(name).cloned();
    let number = |name: &str| get(name).and_then(|v| v.parse::<u64>().ok());
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("workload"),
        number("seed"),
        number("seconds"),
        number("trace"),
    ) else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let (Some(server_bin), Some(work), Some(out)) =
        (get("server"), get("work-dir"), get("out-dir"))
    else {
        return usage("--server, --work-dir and --out-dir are required");
    };
    if !["hot-read", "cold-eval", "write-mix", "learn-session"].contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    if seconds == 0 || trace > 1 {
        return usage("--seconds must be positive and --trace 0 or 1");
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace: trace == 1,
        server_bin: PathBuf::from(server_bin),
        work: PathBuf::from(work),
        out: PathBuf::from(out),
    };
    let env = Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: get("commit").unwrap_or_else(|| "unknown".to_owned()),
        rustc: get("rustc").unwrap_or_else(|| "unknown".to_owned()),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    for dir in [&ctx.work, &ctx.out] {
        if let Err(err) = std::fs::create_dir_all(dir) {
            return usage(&format!("cannot create {}: {err}", dir.display()));
        }
    }
    watchdog(&workload, Duration::from_secs(seconds + WATCHDOG_GRACE_S));

    let result = match workload.as_str() {
        "hot-read" => tcp::run(&ctx, tcp::Tcp::HotRead),
        "cold-eval" => tcp::run(&ctx, tcp::Tcp::ColdEval),
        "write-mix" => tcp::run(&ctx, tcp::Tcp::WriteMix),
        _ => learn::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(run) if run.attempted > 0 => {
            run.print(&ctx, &env);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("rpqbench: {workload}: no operation was attempted");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("rpqbench: {workload}: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Ends a run that badly outlives its window: kills the server children
/// and exits with a named failure instead of hanging.
fn watchdog(workload: &str, limit: Duration) {
    let workload = workload.to_owned();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "rpqbench: WATCHDOG: {workload} still running after {} s; a request or a server \
             hung — failing the run",
            limit.as_secs()
        );
        let pids = server::LIVE_CHILDREN
            .lock()
            .map(|p| p.clone())
            .unwrap_or_default();
        for pid in pids {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
        std::process::exit(3);
    });
}
