//! The repo's benchmark: request sojourns through the PathEnum serving
//! stack on six generated workloads. See `benchmark/README.md`.
//!
//! ```text
//! pathenum-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! pathenum-benchmark selfcheck [--seed N] [--seconds S]
//! pathenum-benchmark manifest        # prints BENCHMARK.json
//! ```
//!
//! `run` generates the inputs for `--seed` (unless they are on disk
//! already), then measures each workload in a fresh child process, so that
//! `peak_rss_mb` is the program's own and not the generator's. The last
//! line of standard output is the workload's result as one JSON object.

mod gen;
mod graph;
mod hash;
mod oracle;
mod report;
mod rng;
mod selfcheck;
mod serve;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;

/// Everything the benchmark writes goes under `benchmark/target/`.
fn output_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

#[derive(Debug, Clone)]
pub struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let value = args.get(at + 1).map(String::as_str);
        let needed = || value.ok_or(format!("{flag} needs a value"));
        at += 2;
        match flag {
            "--workload" => {
                let name = needed()?;
                options.workload = Some(
                    workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => options.seed = needed()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = needed()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => match value {
                Some("0") => options.trace = false,
                Some("1") => options.trace = true,
                _ => {
                    options.trace = true;
                    at -= 1;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// Measures one workload in a child process and returns its JSON line.
/// The child's standard output is passed through line by line.
pub fn measure_in_child(workload: &Workload, options: &Options) -> Result<String, String> {
    let (_, manifest) = gen::ensure_inputs(&output_root().join("inputs"), options.seed, workload)
        .map_err(|e| format!("generating inputs: {e}"))?;
    print!("{manifest}");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["exec", "--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the measuring process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} failed ({})", workload.name, output.status));
    }
    stdout
        .lines()
        .last()
        .filter(|line| line.starts_with('{'))
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed no result", workload.name))
}

fn run(options: &Options) -> Result<(), String> {
    let selected: Vec<&Workload> = match options.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    let mut lines = Vec::new();
    for workload in selected {
        lines.push(measure_in_child(workload, options)?);
    }
    // With several workloads the results are repeated together at the end.
    if lines.len() > 1 {
        for line in lines {
            println!("{line}");
        }
    }
    Ok(())
}

/// The child: one workload, one process. Exits non-zero when any response
/// was wrong, after printing the result.
fn exec(options: &Options) -> Result<bool, String> {
    let workload = options.workload.ok_or("exec needs --workload")?;
    let paths = gen::InputPaths::new(&output_root().join("inputs"), options.seed, workload);
    let results_dir = output_root().join("results");
    let result = if options.trace {
        trace::run(workload, &paths, options.seed, &output_root())?
    } else {
        serve::run(
            workload,
            &paths,
            options.seconds,
            options.seed,
            &results_dir,
        )?
    };
    let json = result.to_json();
    let file = results_dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name,
        options.seed,
        u8::from(options.trace)
    ));
    std::fs::create_dir_all(&results_dir).map_err(|e| e.to_string())?;
    std::fs::write(&file, format!("{json}\n")).map_err(|e| format!("{file:?}: {e}"))?;
    println!("{json}");
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: pathenum-benchmark <run|selfcheck> [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
        return ExitCode::from(2);
    };
    let outcome = parse_options(rest).and_then(|options| match command.as_str() {
        "run" => run(&options).map(|()| true),
        "exec" => exec(&options),
        "selfcheck" => selfcheck::run(&options),
        "manifest" => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pathenum-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let o = parse(&[
            "--workload",
            "dense_enum",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "dense_enum");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--seed", "3"]).unwrap().trace);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
