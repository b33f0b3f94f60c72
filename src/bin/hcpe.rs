//! `hcpe` — ad-hoc hop-constrained s-t path enumeration on a graph file.
//!
//! ```text
//! hcpe <graph-file> <s> <t> <k> [--limit N] [--count-only]
//!      [--algorithm pathenum|idx-dfs|idx-join|bc-dfs|bc-join|t-dfs|yen]
//! ```
//!
//! The graph file's format is sniffed: `PEG2` images (the one binary
//! format the library writes) and `PEG1` images are accepted, and
//! anything else is parsed as a whitespace-separated `from to` edge list
//! with `#`/`%` comment lines ignored (SNAP / networkrepository format).
//! A first line `# vertices=N edges=M`, the header the library's text
//! writer emits, fixes the vertex count at `N`.

use std::process::ExitCode;

use pathenum_repro::core::sink::FnSink;
use pathenum_repro::graph::io_binary::read_graph_file;
use pathenum_repro::prelude::*;
use pathenum_repro::workloads::runner::BoundedSink;

struct Args {
    path: std::path::PathBuf,
    s: VertexId,
    t: VertexId,
    k: u32,
    limit: Option<u64>,
    count_only: bool,
    algorithm: Algorithm,
}

fn parse_args() -> Result<Args, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut limit = None;
    let mut count_only = false;
    let mut algorithm = Algorithm::PathEnum;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--limit" => {
                limit = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--limit expects a positive integer")?,
                );
            }
            "--count-only" => count_only = true,
            "--algorithm" => {
                // FromStr accepts every Method spelling too (dfs, join,
                // IDX-DFS, ...), so runs can force a method without code
                // changes.
                let name = iter.next().ok_or("--algorithm expects a name")?;
                algorithm = name.parse::<Algorithm>()?;
            }
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 4 {
        return Err("expected: <graph-file> <s> <t> <k>".to_string());
    }
    Ok(Args {
        path: positional[0].clone().into(),
        s: positional[1].parse().map_err(|_| "s must be a vertex id")?,
        t: positional[2].parse().map_err(|_| "t must be a vertex id")?,
        k: positional[3].parse().map_err(|_| "k must be a hop count")?,
        limit,
        count_only,
        algorithm,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: hcpe <graph-file> <s> <t> <k> [--limit N] [--count-only] \
                 [--algorithm pathenum|idx-dfs|idx-join|bc-dfs|bc-join|t-dfs|yen]"
            );
            return ExitCode::FAILURE;
        }
    };

    let handle = match read_graph_file(&args.path) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.path.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {} ({}): {} vertices, {} edges",
        args.path.display(),
        handle.representation(),
        handle.num_vertices(),
        handle.num_edges()
    );
    // The baseline algorithm drivers are CSR-bound; thaw frozen images
    // (one allocation pass, no re-sort) rather than forking every
    // baseline over the trait.
    let graph = match handle {
        GraphHandle::Heap(g) => (*g).clone(),
        GraphHandle::Frozen(g) => g.to_csr(),
        GraphHandle::Dynamic(g) => g.snapshot(),
    };

    let query = match Query::new(args.s, args.t, args.k)
        .and_then(|q| q.validate(graph.num_vertices()).map(|()| q))
    {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: invalid query: {e}");
            return ExitCode::FAILURE;
        }
    };

    let start = std::time::Instant::now();
    let count = if args.count_only {
        let mut sink = BoundedSink::new(args.limit, None);
        args.algorithm.run(&graph, query, &mut sink);
        sink.count
    } else {
        let mut printed = 0u64;
        let limit = args.limit.unwrap_or(u64::MAX);
        let mut sink = FnSink(|path: &[VertexId]| {
            println!(
                "{}",
                path.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
            printed += 1;
            if printed >= limit {
                SearchControl::Stop
            } else {
                SearchControl::Continue
            }
        });
        args.algorithm.run(&graph, query, &mut sink);
        printed
    };
    eprintln!(
        "{count} path(s) from {} to {} within {} hops via {} in {:.3?}",
        args.s,
        args.t,
        args.k,
        args.algorithm,
        start.elapsed()
    );
    ExitCode::SUCCESS
}
