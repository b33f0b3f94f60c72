//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce <experiment|all|list> [--quick] [--queries N]
//!           [--time-limit-ms M] [--seed S]
//! ```
//!
//! `reproduce list` prints the experiments: the paper's (`table3` ..
//! `table7`, `fig6` .. `fig18`, `ablation`, `scaling`) and the two
//! measurements `benchmark/` cannot take (`overload`, `perf`).

use std::process::ExitCode;
use std::time::Duration;

use pathenum_bench::experiments::registry;
use pathenum_bench::ExperimentConfig;

fn usage() {
    eprintln!("usage: reproduce <experiment|all|list> [--quick] [--queries N]");
    eprintln!("                 [--time-limit-ms M] [--seed S]");
    eprintln!();
    eprintln!("experiments:");
    for (name, description, _) in registry() {
        eprintln!("  {name:<10} {description}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let mut target: Option<String> = None;
    let mut config = ExperimentConfig::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                config = ExperimentConfig::quick();
            }
            "--queries" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.queries_per_set = n,
                None => {
                    eprintln!("--queries expects a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--time-limit-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => config.time_limit = Duration::from_millis(ms),
                None => {
                    eprintln!("--time-limit-ms expects milliseconds");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => {
                    eprintln!("--seed expects an integer");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(target) = target else {
        usage();
        return ExitCode::FAILURE;
    };

    match target.as_str() {
        "list" => {
            usage();
            ExitCode::SUCCESS
        }
        "all" => {
            println!(
                "running all {} experiments ({} queries/set, {:?} limit, seed {})",
                registry().len(),
                config.queries_per_set,
                config.time_limit,
                config.seed
            );
            for (name, _, runner) in registry() {
                let start = std::time::Instant::now();
                runner(&config);
                println!("[{name} finished in {:.1?}]", start.elapsed());
            }
            ExitCode::SUCCESS
        }
        name => match registry().into_iter().find(|(n, _, _)| *n == name) {
            Some((_, _, runner)) => {
                runner(&config);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment: {name}");
                usage();
                ExitCode::FAILURE
            }
        },
    }
}
