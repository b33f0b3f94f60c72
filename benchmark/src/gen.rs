//! Input generation: graphs, request lists and update streams, all made
//! from `--seed` by the benchmark's own code and written as files under
//! `benchmark/target/inputs/seed-<n>/`. The program under test only ever
//! sees those files. Every file's FNV-1a hash goes into a `MANIFEST`, so
//! two commits can be shown to have run identical inputs.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::graph::{Adjacency, Csr, Edge};
use crate::hash::fnv1a;
use crate::rng::{squared_uniform, SplitMix64, Zipf};
use crate::workloads::{Class, GraphSpec, Requests, Workload, PREFERENTIAL, RECIPROCAL};

/// Hops within which the target of a generated query lies from its source.
const MAX_QUERY_DISTANCE: usize = 3;

pub const MANIFEST: &str = "MANIFEST";

/// Bump when a generator's algorithm changes, so that input sets written by
/// the old one are not mistaken for current. (A change of parameters shows
/// in the directory names by itself.)
const GENERATOR_VERSION: u32 = 1;

/// A directed preferential-attachment graph: vertices arrive one at a
/// time (after a founding ring) and attach `out_edges` out-edges, each to a vertex drawn by degree
/// mass with probability [`PREFERENTIAL`] (uniformly otherwise), adding the
/// reverse edge with probability [`RECIPROCAL`]. Returns the sorted,
/// duplicate-free edge list.
pub fn preferential_attachment(spec: &GraphSpec, seed: u64) -> Vec<Edge> {
    let (n, d) = (spec.vertices, spec.out_edges);
    assert!(n > d + 1 && n <= u32::MAX as usize);
    let mut rng = SplitMix64::stream(seed, spec.name);
    let mut edges: Vec<Edge> = Vec::with_capacity(n * d * 13 / 10);
    // One entry per edge endpoint: a uniform draw is a draw by degree.
    let mut mass: Vec<u32> = Vec::with_capacity(2 * n * d * 13 / 10);

    // A directed cycle over the first vertices gives each some mass. With
    // only a handful of founders, which of them grows into the one giant
    // hub is decided by the first few draws and differs wildly from seed to
    // seed; a founding ring of 1% of the vertices keeps the heavy tail but
    // makes its top repeatable.
    let founders = (d + 1).max(n / 100);
    for i in 0..founders {
        let (from, to) = (i as u32, ((i + 1) % founders) as u32);
        edges.push((from, to));
        mass.extend([from, to]);
    }
    for v in founders..n {
        let v = v as u32;
        let mut chosen: Vec<u32> = Vec::with_capacity(d);
        while chosen.len() < d {
            let target = if rng.chance(PREFERENTIAL) {
                mass[rng.below(mass.len())]
            } else {
                rng.below(v as usize) as u32
            };
            if target == v || chosen.contains(&target) {
                continue;
            }
            chosen.push(target);
            edges.push((v, target));
            mass.extend([v, target]);
            if rng.chance(RECIPROCAL) {
                edges.push((target, v));
                mass.extend([target, v]);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// `# vertices edges` then one `from to` per line.
pub fn encode_text(n: usize, edges: &[Edge]) -> Vec<u8> {
    let mut out = String::with_capacity(edges.len() * 12 + 32);
    writeln!(out, "# {n} {}", edges.len()).expect("writing to a String");
    for &(from, to) in edges {
        writeln!(out, "{from} {to}").expect("writing to a String");
    }
    out.into_bytes()
}

/// `PEG1`: magic, vertex and edge counts as u64, then sorted u32 pairs.
pub fn encode_peg1(n: usize, edges: &[Edge]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + edges.len() * 8);
    out.extend_from_slice(b"PEG1");
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for &(from, to) in edges {
        out.extend_from_slice(&from.to_le_bytes());
        out.extend_from_slice(&to.to_le_bytes());
    }
    out
}

/// Raw (uncompressed) `PEG2`: a 32-byte header, a table of four
/// `(offset, len)` sections, then forward offsets, forward adjacency,
/// reverse offsets and reverse adjacency, each 8-byte aligned. The header
/// checksum is FNV-1a folded over the payload one 8-byte word at a time.
pub fn encode_peg2(n: usize, edges: &[Edge]) -> Vec<u8> {
    const PAYLOAD_BASE: usize = 32 + 4 * 16;
    let (out, inn) = (Csr::forward(n, edges), Csr::backward(n, edges));
    let mut payload: Vec<u8> = Vec::with_capacity(2 * (8 * (n + 1) + 4 * edges.len()) + 32);
    let mut table = [(0u64, 0u64); 4];
    let mut slot = 0;
    for csr in [&out, &inn] {
        let start = payload.len();
        for &o in &csr.offsets {
            payload.extend_from_slice(&(o as u64).to_le_bytes());
        }
        table[slot] = (
            (PAYLOAD_BASE + start) as u64,
            (payload.len() - start) as u64,
        );
        let start = payload.len();
        for &t in &csr.targets {
            payload.extend_from_slice(&t.to_le_bytes());
        }
        table[slot + 1] = (
            (PAYLOAD_BASE + start) as u64,
            (payload.len() - start) as u64,
        );
        while !payload.len().is_multiple_of(8) {
            payload.push(0);
        }
        slot += 2;
    }

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        checksum ^= u64::from_le_bytes(word.try_into().expect("chunk of 8"));
        checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
    }
    debug_assert!(words.remainder().is_empty());

    let mut image = Vec::with_capacity(PAYLOAD_BASE + payload.len());
    image.extend_from_slice(b"PEG2");
    image.extend_from_slice(&0u32.to_le_bytes());
    image.extend_from_slice(&(n as u64).to_le_bytes());
    image.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    image.extend_from_slice(&checksum.to_le_bytes());
    for (offset, len) in table {
        image.extend_from_slice(&offset.to_le_bytes());
        image.extend_from_slice(&len.to_le_bytes());
    }
    image.extend_from_slice(&payload);
    image
}

/// Reads back a `PEG1` file written by [`encode_peg1`].
pub fn decode_peg1(bytes: &[u8]) -> Result<(usize, Vec<Edge>), String> {
    if bytes.len() < 20 || &bytes[..4] != b"PEG1" {
        return Err("not a PEG1 file".into());
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let (n, m) = (word(4) as usize, word(12) as usize);
    let body = &bytes[20..];
    if body.len() != m.checked_mul(8).ok_or("edge count overflows")? {
        return Err("PEG1 edge list has the wrong length".into());
    }
    let edges = body
        .chunks_exact(8)
        .map(|pair| {
            (
                u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(pair[4..].try_into().expect("4 bytes")),
            )
        })
        .collect();
    Ok((n, edges))
}

/// One `(s, t, k)` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub s: u32,
    pub t: u32,
    pub k: u32,
}

/// Picks queries the way the paper's section 7.1 does: endpoints from the
/// top-10%-degree set or from the rest, the target at most three hops from
/// the source (found by a short random walk).
pub struct QueryPicker<'g> {
    adjacency: &'g Adjacency,
    high: Vec<u32>,
    low: Vec<u32>,
    is_high: Vec<bool>,
}

impl<'g> QueryPicker<'g> {
    pub fn new(adjacency: &'g Adjacency) -> Self {
        let n = adjacency.num_vertices();
        let degree = |v: u32| adjacency.out.row(v).len() + adjacency.inn.row(v).len();
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
        let cut = n / 10;
        let mut is_high = vec![false; n];
        for &v in &by_degree[..cut] {
            is_high[v as usize] = true;
        }
        let low = by_degree.split_off(cut);
        QueryPicker {
            adjacency,
            high: by_degree,
            low,
            is_high,
        }
    }

    pub fn pick(&self, class: Class, rng: &mut SplitMix64) -> Query {
        let pool = if class.high { &self.high } else { &self.low };
        loop {
            let s = pool[rng.below(pool.len())];
            let mut at = s;
            for _ in 0..=rng.below(MAX_QUERY_DISTANCE) {
                let row = self.adjacency.out.row(at);
                if row.is_empty() {
                    break;
                }
                at = row[rng.below(row.len())];
            }
            if at != s && self.is_high[at as usize] == class.high {
                return Query {
                    s,
                    t: at,
                    k: class.k,
                };
            }
        }
    }

    /// `count` distinct queries, classes round-robin so that every prefix
    /// of the list has the same mix.
    pub fn distinct(&self, classes: &[Class], count: usize, rng: &mut SplitMix64) -> Vec<Query> {
        let mut seen = HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let query = self.pick(classes[out.len() % classes.len()], rng);
            if seen.insert(query) {
                out.push(query);
            }
        }
        out
    }
}

/// One step of the mutating stream: a burst of edge updates, then queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// `(insert, from, to)`; `false` removes an edge an earlier step added.
    pub mutations: Vec<(bool, u32, u32)>,
    pub queries: Vec<Query>,
}

#[allow(clippy::too_many_arguments)]
fn stream_steps(
    adjacency: &Adjacency,
    seed: u64,
    steps: usize,
    burst: usize,
    insert_share: f64,
    cycle_k: u32,
    watch: &[Query],
    watch_queries_per_step: usize,
) -> Vec<Step> {
    let n = adjacency.num_vertices();
    let mut rng = SplitMix64::stream(seed, "stream-steps");
    // Live added edges, split so that removals only ever target edges of
    // earlier steps: the last insertion of a burst is still present when
    // its cycle query runs.
    let mut earlier: Vec<Edge> = Vec::new();
    let mut live: HashSet<Edge> = HashSet::new();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut step = Step::default();
        let mut fresh: Vec<Edge> = Vec::with_capacity(burst);
        for j in 0..burst {
            if j == 0 || earlier.is_empty() || rng.chance(insert_share) {
                let edge = loop {
                    let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
                    if u != v && !adjacency.out.contains(u, v) && !live.contains(&(u, v)) {
                        break (u, v);
                    }
                };
                fresh.push(edge);
                live.insert(edge);
                step.mutations.push((true, edge.0, edge.1));
            } else {
                let edge = earlier.swap_remove(rng.below(earlier.len()));
                live.remove(&edge);
                step.mutations.push((false, edge.0, edge.1));
            }
        }
        let (u, v) = *fresh.last().expect("every burst starts with an insertion");
        earlier.append(&mut fresh);
        // The fraud scenario of the paper's Figure 8: the cycles a new
        // edge (u, v) closes are the paths from v back to u.
        step.queries.push(Query {
            s: v,
            t: u,
            k: cycle_k,
        });
        for _ in 0..watch_queries_per_step {
            step.queries
                .push(watch[squared_uniform(&mut rng, watch.len())]);
        }
        out.push(step);
    }
    out
}

pub fn encode_queries(queries: &[Query]) -> Vec<u8> {
    let mut out = String::with_capacity(queries.len() * 16);
    for q in queries {
        writeln!(out, "{} {} {}", q.s, q.t, q.k).expect("writing to a String");
    }
    out.into_bytes()
}

pub fn encode_steps(steps: &[Step]) -> Vec<u8> {
    let mut out = String::new();
    for step in steps {
        for &(insert, u, v) in &step.mutations {
            writeln!(out, "{} {u} {v}", if insert { '+' } else { '-' }).expect("String");
        }
        for q in &step.queries {
            writeln!(out, "q {} {} {}", q.s, q.t, q.k).expect("String");
        }
    }
    out.into_bytes()
}

fn fields<const N: usize>(line: &str) -> Result<[u32; N], String> {
    let mut out = [0u32; N];
    let mut parts = line.split_ascii_whitespace();
    for slot in &mut out {
        *slot = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("malformed line {line:?}"))?;
    }
    if parts.next().is_some() {
        return Err(format!("trailing fields in {line:?}"));
    }
    Ok(out)
}

pub fn decode_queries(text: &str) -> Result<Vec<Query>, String> {
    text.lines()
        .map(|line| fields::<3>(line).map(|[s, t, k]| Query { s, t, k }))
        .collect()
}

/// A step ends where an update line follows a query line.
pub fn decode_steps(text: &str) -> Result<Vec<Step>, String> {
    let mut steps: Vec<Step> = Vec::new();
    for line in text.lines() {
        let (tag, rest) = line.split_at(1.min(line.len()));
        match tag {
            "+" | "-" => {
                if !steps.last().is_some_and(|s| s.queries.is_empty()) {
                    steps.push(Step::default());
                }
                let [u, v] = fields::<2>(rest)?;
                let step = steps.last_mut().expect("a step was just opened");
                step.mutations.push((tag == "+", u, v));
            }
            "q" => {
                let [s, t, k] = fields::<3>(rest)?;
                steps
                    .last_mut()
                    .ok_or("query line before any update")?
                    .queries
                    .push(Query { s, t, k });
            }
            _ => return Err(format!("malformed line {line:?}")),
        }
    }
    Ok(steps)
}

/// Where one workload's input files live.
#[derive(Debug, Clone)]
pub struct InputPaths {
    pub graph_dir: PathBuf,
    pub requests_dir: PathBuf,
}

impl InputPaths {
    pub fn new(inputs_root: &Path, seed: u64, workload: &Workload) -> Self {
        let seed_dir = inputs_root.join(format!("seed-{seed}"));
        // The parameters that shaped the files are part of their address.
        let graph_tag = format!(
            "v{GENERATOR_VERSION} {:?} {PREFERENTIAL} {RECIPROCAL}",
            workload.graph
        );
        let requests_tag = format!("{graph_tag} {:?}", workload.requests);
        let tagged = |kind: &str, name: &str, tag: &str| {
            seed_dir.join(format!(
                "{kind}-{name}-{:08x}",
                fnv1a(tag.as_bytes()) as u32
            ))
        };
        InputPaths {
            graph_dir: tagged("graph", workload.graph.name, &graph_tag),
            requests_dir: tagged("requests", workload.requests_name, &requests_tag),
        }
    }

    pub fn peg1(&self) -> PathBuf {
        self.graph_dir.join("graph.peg1")
    }
    pub fn peg2(&self) -> PathBuf {
        self.graph_dir.join("graph.peg2")
    }
    pub fn text(&self) -> PathBuf {
        self.graph_dir.join("graph.txt")
    }
    pub fn warmup(&self) -> PathBuf {
        self.requests_dir.join("warmup.txt")
    }
    pub fn requests(&self) -> PathBuf {
        self.requests_dir.join("requests.txt")
    }
}

/// Writes `files` into a fresh `dir` with a `MANIFEST` of
/// `<fnv1a hex> <bytes> <name>` lines. The directory is assembled under a
/// temporary name and renamed into place, so an interrupted run never
/// leaves a half-written input set behind.
fn write_dir(dir: &Path, files: &[(&str, Vec<u8>)]) -> io::Result<()> {
    let staging = dir.with_extension(format!("tmp-{}", std::process::id()));
    if staging.exists() {
        fs::remove_dir_all(&staging)?;
    }
    fs::create_dir_all(&staging)?;
    let mut manifest = String::new();
    for (name, bytes) in files {
        fs::write(staging.join(name), bytes)?;
        writeln!(manifest, "{:016x} {} {name}", fnv1a(bytes), bytes.len()).expect("String");
    }
    fs::write(staging.join(MANIFEST), manifest)?;
    match fs::rename(&staging, dir) {
        Ok(()) => Ok(()),
        // Another run of the same seed finished first; its files are equal.
        Err(_) if dir.join(MANIFEST).is_file() => fs::remove_dir_all(&staging),
        Err(err) => Err(err),
    }
}

/// Generates whatever of `workload`'s inputs for `seed` is not on disk yet
/// and returns the manifest lines of its graph and request directories.
pub fn ensure_inputs(
    inputs_root: &Path,
    seed: u64,
    workload: &Workload,
) -> io::Result<(InputPaths, String)> {
    let paths = InputPaths::new(inputs_root, seed, workload);
    let have_graph = paths.graph_dir.join(MANIFEST).is_file();
    let have_requests = paths.requests_dir.join(MANIFEST).is_file();
    if !have_graph || !have_requests {
        let spec = workload.graph;
        let edges = preferential_attachment(spec, seed);
        if !have_graph {
            write_dir(
                &paths.graph_dir,
                &[
                    ("graph.peg1", encode_peg1(spec.vertices, &edges)),
                    ("graph.peg2", encode_peg2(spec.vertices, &edges)),
                    ("graph.txt", encode_text(spec.vertices, &edges)),
                ],
            )?;
        }
        if !have_requests {
            let adjacency = Adjacency::new(spec.vertices, &edges);
            let (warmup, requests) = generate_requests(&adjacency, seed, workload);
            write_dir(
                &paths.requests_dir,
                &[("warmup.txt", warmup), ("requests.txt", requests)],
            )?;
        }
    }
    let mut manifest = String::new();
    for dir in [&paths.graph_dir, &paths.requests_dir] {
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        for line in fs::read_to_string(dir.join(MANIFEST))?.lines() {
            writeln!(manifest, "input seed-{seed}/{name} {line}").expect("String");
        }
    }
    Ok((paths, manifest))
}

/// `(warmup.txt, requests.txt)` for one workload. Warm-up requests come
/// from their own stream, so on the no-repeat workloads they never
/// pre-plan a timed request.
fn generate_requests(adjacency: &Adjacency, seed: u64, workload: &Workload) -> (Vec<u8>, Vec<u8>) {
    let picker = QueryPicker::new(adjacency);
    let label = |part: &str| format!("{}-{part}", workload.requests_name);
    match workload.requests {
        Requests::Distinct { classes, count } => {
            let mut rng = SplitMix64::stream(seed, &label("timed"));
            let timed = picker.distinct(classes, count, &mut rng);
            let taken: HashSet<Query> = timed.iter().copied().collect();
            let mut rng = SplitMix64::stream(seed, &label("warmup"));
            let mut warmup =
                picker.distinct(classes, 2 * crate::workloads::WARMUP_REQUESTS, &mut rng);
            warmup.retain(|q| !taken.contains(q));
            warmup.truncate(crate::workloads::WARMUP_REQUESTS);
            (encode_queries(&warmup), encode_queries(&timed))
        }
        Requests::Zipf {
            classes,
            pool,
            exponent,
            draws,
            warmup_draws,
        } => {
            let mut rng = SplitMix64::stream(seed, &label("pool"));
            // Classes alternate down the popularity ranks, so whatever the
            // seed, the few top ranks that draw most of the traffic hold
            // every class.
            let pool = picker.distinct(classes, pool, &mut rng);
            let zipf = Zipf::new(pool.len(), exponent);
            let draw = |part: &str, count: usize| {
                let mut rng = SplitMix64::stream(seed, &label(part));
                let drawn: Vec<Query> = (0..count).map(|_| pool[zipf.sample(&mut rng)]).collect();
                encode_queries(&drawn)
            };
            (draw("warmup", warmup_draws), draw("timed", draws))
        }
        Requests::Stream {
            steps,
            warmup_steps,
            burst,
            insert_share,
            cycle_k,
            watch_pairs,
            watch_k,
            watch_queries_per_step,
        } => {
            let mut rng = SplitMix64::stream(seed, &label("watch"));
            let watch = picker.distinct(
                &[Class {
                    high: false,
                    k: watch_k,
                }],
                watch_pairs,
                &mut rng,
            );
            // One stream: the warm-up steps are its first steps, so the
            // timed portion starts from the graph they leave behind.
            let all = stream_steps(
                adjacency,
                seed,
                warmup_steps + steps,
                burst,
                insert_share,
                cycle_k,
                &watch,
                watch_queries_per_step,
            );
            let (warmup, timed) = all.split_at(warmup_steps);
            (encode_steps(warmup), encode_steps(timed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    static TINY: GraphSpec = GraphSpec {
        name: "tiny",
        vertices: 400,
        out_edges: 5,
    };

    #[test]
    fn graph_is_deterministic_per_seed_sorted_and_loop_free() {
        let a = preferential_attachment(&TINY, 11);
        assert_eq!(a, preferential_attachment(&TINY, 11));
        assert_ne!(a, preferential_attachment(&TINY, 12));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a
            .iter()
            .all(|&(u, v)| u != v && (u as usize) < 400 && (v as usize) < 400));
        // Every arriving vertex attaches exactly five distinct out-edges.
        assert!(a.len() >= 6 + 394 * 5);
    }

    #[test]
    fn peg1_round_trips() {
        let edges = preferential_attachment(&TINY, 3);
        let (n, back) = decode_peg1(&encode_peg1(400, &edges)).unwrap();
        assert_eq!((n, back), (400, edges));
        assert!(decode_peg1(b"PEG2").is_err());
    }

    #[test]
    fn library_loaders_read_all_three_formats_to_the_same_graph() {
        use pathenum_graph::NeighborAccess;
        let edges = preferential_attachment(&TINY, 5);
        let heap = pathenum_graph::io_binary::read_binary(&encode_peg1(400, &edges)[..]).unwrap();
        let frozen = pathenum_graph::io_binary::read_frozen(&encode_peg2(400, &edges)[..]).unwrap();
        let text = pathenum_graph::io::read_edge_list(&encode_text(400, &edges)[..])
            .unwrap()
            .graph;
        assert_eq!(heap.edges().collect::<Vec<_>>(), edges);
        assert_eq!(text.edges().collect::<Vec<_>>(), edges);
        assert_eq!(frozen.num_edges(), edges.len());
        assert!(!frozen.is_compressed());
        let adjacency = Adjacency::new(400, &edges);
        for v in 0..400u32 {
            let (mut out, mut inn) = (Vec::new(), Vec::new());
            frozen.for_each_out(v, |w| out.push(w));
            frozen.for_each_in(v, |w| inn.push(w));
            assert_eq!(out, adjacency.out.row(v));
            assert_eq!(inn, adjacency.inn.row(v));
        }
    }

    #[test]
    fn picked_queries_respect_class_and_distance() {
        let edges = preferential_attachment(&TINY, 9);
        let adjacency = Adjacency::new(400, &edges);
        let picker = QueryPicker::new(&adjacency);
        assert_eq!(picker.high.len(), 40);
        let classes = [Class { high: true, k: 4 }, Class { high: false, k: 5 }];
        let draw = |seed| picker.distinct(&classes, 60, &mut SplitMix64::new(seed));
        let queries = draw(1);
        assert_eq!(queries, draw(1));
        assert_ne!(queries, draw(2));
        let mut scratch = crate::oracle::OracleScratch::default();
        for (i, q) in queries.iter().enumerate() {
            let class = classes[i % 2];
            assert_eq!(q.k, class.k);
            assert_ne!(q.s, q.t);
            assert_eq!(picker.is_high[q.s as usize], class.high);
            assert_eq!(picker.is_high[q.t as usize], class.high);
            let within3 = crate::oracle::count_paths(&adjacency, &mut scratch, q.s, q.t, 3, 1);
            assert_eq!(within3, 1, "t is within three hops of s");
        }
        let unique: HashSet<_> = queries.iter().collect();
        assert_eq!(unique.len(), queries.len());
    }

    #[test]
    fn stream_inserts_are_new_and_removals_undo_earlier_steps() {
        let edges = preferential_attachment(&TINY, 4);
        let adjacency = Adjacency::new(400, &edges);
        let watch = [Query { s: 1, t: 2, k: 4 }, Query { s: 3, t: 4, k: 4 }];
        let steps = stream_steps(&adjacency, 4, 200, 16, 0.7, 5, &watch, 2);
        assert_eq!(
            steps,
            stream_steps(&adjacency, 4, 200, 16, 0.7, 5, &watch, 2)
        );
        let mut mirror = adjacency.clone();
        let mut removals = 0;
        for step in &steps {
            assert_eq!(step.mutations.len(), 16);
            assert_eq!(step.queries.len(), 3);
            let before: Vec<Edge> = step
                .mutations
                .iter()
                .filter(|m| !m.0)
                .map(|m| (m.1, m.2))
                .collect();
            // Every removal targets an edge that was live before the burst.
            for &(u, v) in &before {
                assert!(mirror.has_edge(u, v) && !adjacency.has_edge(u, v));
            }
            for &(insert, u, v) in &step.mutations {
                if insert {
                    assert!(mirror.insert(u, v), "insert of a present edge");
                } else {
                    assert!(mirror.remove(u, v), "removal of an absent edge");
                    removals += 1;
                }
            }
            let last = step.mutations.iter().rev().find(|m| m.0).unwrap();
            assert_eq!(
                step.queries[0],
                Query {
                    s: last.2,
                    t: last.1,
                    k: 5
                }
            );
            assert!(mirror.has_edge(last.1, last.2));
        }
        let share = removals as f64 / (200.0 * 16.0);
        assert!((0.2..0.35).contains(&share), "removal share {share}");
    }

    #[test]
    fn request_files_round_trip() {
        let queries = vec![Query { s: 1, t: 2, k: 3 }, Query { s: 9, t: 8, k: 6 }];
        assert_eq!(
            decode_queries(std::str::from_utf8(&encode_queries(&queries)).unwrap()).unwrap(),
            queries
        );
        let steps = vec![
            Step {
                mutations: vec![(true, 1, 2), (false, 3, 4)],
                queries: vec![queries[0], queries[1]],
            },
            Step {
                mutations: vec![(true, 5, 6)],
                queries: vec![queries[1]],
            },
        ];
        assert_eq!(
            decode_steps(std::str::from_utf8(&encode_steps(&steps)).unwrap()).unwrap(),
            steps
        );
        assert!(decode_queries("1 2").is_err());
        assert!(decode_steps("q 1 2 3").is_err());
        assert!(decode_steps("x 1 2").is_err());
    }

    #[test]
    fn ensure_inputs_is_reproducible_and_idempotent() {
        let root = std::env::temp_dir().join(format!("pathenum-bench-gen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // A scaled-down workload keeps the test fast.
        let small = Workload {
            graph: &TINY,
            requests_name: "tiny-requests",
            requests: Requests::Distinct {
                classes: &[Class { high: false, k: 4 }],
                count: 50,
            },
            ..workloads::find("sparse_cold_heap").unwrap().clone()
        };
        let (paths, first) = ensure_inputs(&root, 21, &small).unwrap();
        let (_, again) = ensure_inputs(&root, 21, &small).unwrap();
        assert_eq!(first, again);
        assert_eq!(first.lines().count(), 5);
        fs::remove_dir_all(root.join("seed-21")).unwrap();
        let (_, regenerated) = ensure_inputs(&root, 21, &small).unwrap();
        assert_eq!(first, regenerated, "same seed, same bytes");
        let (_, other) = ensure_inputs(&root, 22, &small).unwrap();
        assert_ne!(first.replace("seed-21", "seed-22"), other);
        assert_eq!(
            decode_queries(&fs::read_to_string(paths.requests()).unwrap())
                .unwrap()
                .len(),
            50
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
