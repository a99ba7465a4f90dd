//! The machine and configuration stamp printed with every output: a number
//! from this benchmark is never separated from what it ran on.

use crate::family::ITERATIONS;
use crate::json::Json;
use crate::Args;
use fml_core::prelude::*;
use std::process::Command;

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (the driver's checkout is not a git
/// repository, and a machine that only runs the binary has no `rustc`).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The resolved SIMD level, read from the registry by name
/// (`fml_simd_level`: 0 scalar, 1 AVX2 lanes, 2 lanes + FMA).  The gauge is
/// set when the first kernel resolves the level, so this is read after the run.
pub fn simd_level() -> i64 {
    fml_obs::gauge_handle("fml_simd_level").get()
}

/// The stamp: machine, toolchain, commit, resolved execution settings and
/// what was asked for.  `sizes` is the generated workload's shape.
pub fn stamp(args: &Args, sizes: Json) -> Json {
    let settings = ExecPolicy::new().seed(args.seed).resolve();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("benchmark", Json::str("fml end-to-end M/S/F fit and score")),
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        // Smoke output exercises every path at toy sizes: never comparable.
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Int(nproc as u64)),
        ("threads", Json::Int(settings.threads as u64)),
        (
            "kernel_policy",
            Json::str(settings.kernel_policy.to_string()),
        ),
        ("sparse_mode", Json::str(format!("{:?}", settings.sparse))),
        ("block_pages", Json::Int(settings.block_pages as u64)),
        ("obs", Json::str(settings.obs.label())),
        ("simd_level", Json::Int(simd_level().max(0) as u64)),
        ("iterations", Json::Int(ITERATIONS as u64)),
        ("f_reps_per_round", Json::Int(args.workload.f_reps as u64)),
        ("sizes", sizes),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
