//! `egg-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in this process and prints its result as the last
//! line of standard output, or with `all` runs every workload, each in its
//! own child process, one after another.

use std::io::Write;
use std::process::ExitCode;

use egg_perfbench::harness::{env_overrides, run};
use egg_perfbench::workloads::{find, WORKLOADS};

const USAGE: &str =
    "usage: egg-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run every workload in a child process of its own, in order.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("error: workload {} failed: {other:?}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let overrides = env_overrides(std::env::vars_os());
    if !overrides.is_empty() {
        eprintln!(
            "error: {} set; the benchmark measures the engine's defaults only — unset it",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {}; expected all or one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut stdout = std::io::stdout().lock();
    let result = run(w, args.seed, args.seconds, args.trace, &mut stdout)
        .and_then(|report| writeln!(stdout, "{}", report.json()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
