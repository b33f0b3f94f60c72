//! The end-to-end run of one workload, in a process of its own: set the
//! program under test up from the generated files, warm it, drive the
//! timed closed loop, then check what it answered.
//!
//! The client checks every response as it arrives (endpoints, hop bound,
//! simplicity, edge presence). That time is the client's own think time:
//! sojourns are measured around the calls into the library only, and
//! throughput divides by the time spent inside those calls.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use pathenum::{
    AdmissionConfig, CacheOutcome, CatalogConfig, CatalogRequest, CatalogService, DynamicEngine,
    PathEnumConfig, PathEnumError, PlanCache, QueryRequest, QueryResponse, Termination,
};
use pathenum_graph::{DynamicGraph, GraphHandle};

use crate::gen::{decode_peg1, decode_queries, decode_steps, InputPaths, Query, Step};
use crate::graph::Adjacency;
use crate::hash::Fnv1a;
use crate::oracle::{check_count, check_path, Expectation, OracleScratch};
use crate::report::{Measured, RunResult, END_TO_END};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, sorted};
use crate::workloads::{Load, Requests, Workload};

pub const GRAPH_NAME: &str = "g";
pub const TENANT: &str = "bench";

/// Every timed portion issues at least this many queries however short
/// the time box: fifty samples beyond the p95, ten beyond the printed p99.
pub const MIN_TIMED_QUERIES: usize = 1000;
/// Timed set-up repetitions (after one discarded) are at least this many
/// and go on until they add up to [`SETUP_TIME_FLOOR`]: set-up takes a few
/// milliseconds here, and a median over more of them is steadier.
const MIN_SETUP_REPETITIONS: usize = 9;
const MAX_SETUP_REPETITIONS: usize = 200;
const SETUP_TIME_FLOOR: Duration = Duration::from_millis(400);
/// Requests per workload whose result count the oracle recomputes.
const ORACLE_SAMPLES: usize = 32;
/// Failure messages kept for the report (all failures are counted).
const MAX_MESSAGES: usize = 12;

/// The program under test, ready for its first request.
// One value per process: the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Program {
    Service(CatalogService),
    Stream(DynamicGraph),
}

pub fn catalog_config(workload: &Workload) -> CatalogConfig {
    CatalogConfig {
        workers: 2,
        tenant_cache_quota: workload.tenant_cache_quota,
        cache_shards: 4,
        result_cache_bytes: workload.result_cache_bytes,
        admission: if workload.admission {
            // Enabled, with a budget and queue bound two closed-loop
            // clients can never exhaust: both lanes and every admission
            // check run, nothing is shed.
            AdmissionConfig {
                cost_budget: Some(u64::MAX),
                max_queue_per_tenant: 64,
                interactive_cost_threshold: 100_000,
            }
        } else {
            AdmissionConfig::disabled()
        },
    }
}

/// Graph file on disk to a program ready for its first request.
pub fn set_up(workload: &Workload, paths: &InputPaths) -> Result<Program, String> {
    let heap = |path: &Path| {
        pathenum_graph::io_binary::read_binary_file(path).map_err(|e| format!("{path:?}: {e}"))
    };
    let handle: GraphHandle = match workload.load {
        Load::Peg1Dynamic => {
            let base = heap(&paths.peg1())?;
            return Ok(Program::Stream(DynamicGraph::new(base)));
        }
        Load::Peg1Heap => heap(&paths.peg1())?.into(),
        Load::Peg2Frozen => pathenum_graph::io_binary::read_frozen_file(&paths.peg2())
            .map_err(|e| format!("{:?}: {e}", paths.peg2()))?
            .into(),
        Load::TextHeap => pathenum_graph::io::read_edge_list_file(&paths.text())
            .map_err(|e| format!("{:?}: {e}", paths.text()))?
            .graph
            .into(),
    };
    let service = CatalogService::new(PathEnumConfig::default(), catalog_config(workload));
    service.catalog().register(GRAPH_NAME, handle);
    Ok(Program::Service(service))
}

/// Sets up once to warm the page cache, then repeatedly, each time after
/// dropping the previous program. Returns the last program, the median
/// set-up time in seconds and the number of timed repetitions.
pub fn timed_set_up(
    workload: &Workload,
    paths: &InputPaths,
) -> Result<(Program, f64, usize), String> {
    let mut program = set_up(workload, paths)?;
    let mut seconds = Vec::new();
    let begun = Instant::now();
    while seconds.len() < MIN_SETUP_REPETITIONS
        || (begun.elapsed() < SETUP_TIME_FLOOR && seconds.len() < MAX_SETUP_REPETITIONS)
    {
        drop(program);
        let start = Instant::now();
        program = set_up(workload, paths)?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    let repetitions = seconds.len();
    Ok((program, median(&mut seconds), repetitions))
}

pub fn build_request(workload: &Workload, q: Query) -> QueryRequest<'static> {
    let mut request = QueryRequest::paths(q.s, q.t)
        .max_hops(q.k)
        .collect_paths(workload.collect_paths);
    if let Some(limit) = workload.limit {
        request = request.limit(limit);
    }
    if let Some(budget) = workload.time_budget {
        request = request.time_budget(budget);
    }
    request
}

/// The client's own copy of the graph, read from the `PEG1` file with the
/// benchmark's reader.
pub fn load_adjacency(paths: &InputPaths) -> Result<Adjacency, String> {
    let bytes = fs::read(paths.peg1()).map_err(|e| format!("{:?}: {e}", paths.peg1()))?;
    let (n, edges) = decode_peg1(&bytes)?;
    Ok(Adjacency::new(n, &edges))
}

/// What the client keeps of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    pub results: u64,
    /// FNV-1a over the returned paths in order (over the count when paths
    /// are not collected).
    pub fingerprint: u64,
}

/// Tally of everything that went wrong, with the first few reasons.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, message: impl FnOnce() -> String) {
        self.count += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message());
        }
    }

    fn merge(&mut self, other: Failures) {
        self.count += other.count;
        let room = MAX_MESSAGES - self.messages.len();
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// Checks one response against what the request allows, path by path.
/// `Err` carries the first reason the request counts as failed.
pub fn inspect(
    workload: &Workload,
    adjacency: &Adjacency,
    q: Query,
    outcome: &Result<QueryResponse, PathEnumError>,
) -> Result<Observed, String> {
    let describe = |what: String| format!("q({}, {}, {}): {what}", q.s, q.t, q.k);
    let response = outcome
        .as_ref()
        .map_err(|e| describe(format!("refused: {e}")))?;
    let results = response.num_results();
    match response.termination {
        Termination::Completed | Termination::LimitReached => {}
        early => return Err(describe(format!("stopped early: {early:?}"))),
    }
    if workload.limit.is_some_and(|limit| results > limit) {
        return Err(describe(format!("{results} results exceed the limit")));
    }
    let mut hash = Fnv1a::default();
    if workload.collect_paths {
        if response.paths.len() as u64 != results {
            return Err(describe(format!(
                "{} paths collected, {results} counted",
                response.paths.len()
            )));
        }
        for path in &response.paths {
            check_path(adjacency, path, q.s, q.t, q.k)
                .map_err(|defect| describe(format!("{defect:?} in path {path:?}")))?;
            for &v in path {
                hash.write_u32(v);
            }
            hash.write_u32(u32::MAX);
        }
    } else {
        hash.write(&results.to_le_bytes());
    }
    Ok(Observed {
        results,
        fingerprint: hash.finish(),
    })
}

/// One timed request as the client logged it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Position in the timed request list.
    pub index: usize,
    pub query: Query,
    pub sojourn_ns: u64,
    /// How the plan was obtained, as the response reports it.
    pub cache: CacheOutcome,
    /// `None` when the response failed inspection.
    pub observed: Option<Observed>,
}

/// Everything one closed-loop client measured.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub records: Vec<Record>,
    /// Time spent inside calls into the library (sojourns, plus update
    /// bursts and engine re-binding on the stream workload).
    pub busy: Duration,
    pub failures: Failures,
    /// Per-mutation time of each update burst, in microseconds.
    pub update_us: Vec<f64>,
    pub mutations: u64,
}

/// Whether a client that has issued `issued` requests since `start` keeps
/// going: until the time box is used up and the percentile floor is met.
fn keep_going(start: Instant, seconds: f64, issued: usize, floor: usize) -> bool {
    issued < floor || start.elapsed().as_secs_f64() < seconds
}

fn cache_outcome(outcome: &Result<QueryResponse, PathEnumError>) -> CacheOutcome {
    outcome
        .as_ref()
        .map_or(CacheOutcome::Skipped, |response| response.report.cache)
}

/// Closed loop, one request in flight: `submit`, wait, inspect, repeat
/// over `requests` (pairs of list position and query). With a `tracer`,
/// each request also leaves its spans: `submit` (call to return),
/// `queue_wait` (return to worker pick-up), `execute` (the worker's
/// interval, from the outcome) and `wake` (worker done to response in
/// hand), under one `request` span.
pub fn service_client(
    workload: &Workload,
    service: &CatalogService,
    adjacency: &Adjacency,
    requests: impl Iterator<Item = (usize, Query)>,
    seconds: f64,
    floor: usize,
    mut tracer: Option<&mut SpanLog>,
) -> ClientLog {
    let mut log = ClientLog::default();
    // Replayed responses must equal the first response for that request.
    let replay = matches!(workload.requests, Requests::Zipf { .. });
    let mut first_seen: HashMap<Query, Observed> = HashMap::new();
    let start = Instant::now();
    for (index, query) in requests {
        if !keep_going(start, seconds, log.records.len(), floor) {
            break;
        }
        let routed = CatalogRequest::new(GRAPH_NAME, TENANT, build_request(workload, query));
        let sent = Instant::now();
        let ticket = service.submit(routed);
        let submitted = tracer.is_some().then(Instant::now);
        let outcome = ticket.wait_outcome();
        let received = Instant::now();
        let sojourn = received - sent;
        log.busy += sojourn;
        if let (Some(spans), Some(submitted)) = (tracer.as_deref_mut(), submitted) {
            let id = index as u64;
            let (started, finished) = (outcome.started, outcome.finished);
            let root = spans.record("request", sent, received, None, id);
            let submit = spans.record("submit", sent, submitted, Some(root), id);
            // A result-cache hit is answered inside `submit`.
            let inside_submit = finished <= submitted;
            let parent = if inside_submit { submit } else { root };
            spans.record("execute", started, finished, Some(parent), id);
            if started > submitted {
                spans.record("queue_wait", submitted, started, Some(root), id);
            }
            spans.record("wake", finished.max(submitted), received, Some(root), id);
        }
        let outcome = outcome.response;
        let mut observed = match inspect(workload, adjacency, query, &outcome) {
            Ok(observed) => Some(observed),
            Err(reason) => {
                log.failures.add(|| reason);
                None
            }
        };
        if let (true, Some(seen)) = (replay, observed) {
            let first = *first_seen.entry(query).or_insert(seen);
            if first != seen {
                log.failures.add(|| {
                    format!(
                        "q({}, {}, {}): replay {seen:?} differs from first response {first:?}",
                        query.s, query.t, query.k
                    )
                });
                observed = None;
            }
        }
        log.records.push(Record {
            index,
            query,
            sojourn_ns: sojourn.as_nanos() as u64,
            cache: cache_outcome(&outcome),
            observed,
        });
    }
    log
}

/// The mutating stream: per step, apply the update burst to the
/// `DynamicGraph`, re-bind a `DynamicEngine` carrying the plan cache over,
/// run the step's queries, unbind. `mirror` follows the same updates so
/// that paths are checked against the edge set of the moment. With a
/// `tracer`, each step leaves `update_burst`, `bind` and `unbind` spans and
/// each query a `request` span around its `execute`.
#[allow(clippy::too_many_arguments)]
pub fn stream_client(
    workload: &Workload,
    graph: &mut DynamicGraph,
    mirror: &mut Adjacency,
    cache: &mut PlanCache,
    steps: &[Step],
    seconds: f64,
    floor: usize,
    mut tracer: Option<&mut SpanLog>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut index = 0;
    for step in steps {
        if !keep_going(start, seconds, log.records.len(), floor) {
            break;
        }
        let burst_start = Instant::now();
        let mut applied = 0usize;
        for &(insert, u, v) in &step.mutations {
            let changed = if insert {
                graph.insert_edge(u, v)
            } else {
                graph.remove_edge(u, v)
            };
            applied += usize::from(changed);
        }
        let burst_end = Instant::now();
        let burst = burst_end - burst_start;
        log.busy += burst;
        let step_id = index as u64;
        if let Some(spans) = tracer.as_deref_mut() {
            spans.record("update_burst", burst_start, burst_end, None, step_id);
        }
        log.update_us
            .push(burst.as_secs_f64() * 1e6 / step.mutations.len() as f64);
        log.mutations += step.mutations.len() as u64;
        for _ in applied..step.mutations.len() {
            log.failures
                .add(|| "an edge update was a no-op".to_string());
        }
        for &(insert, u, v) in &step.mutations {
            if insert {
                mirror.insert(u, v);
            } else {
                mirror.remove(u, v);
            }
        }

        let bind = Instant::now();
        let mut engine =
            DynamicEngine::with_cache(graph, PathEnumConfig::default(), std::mem::take(cache));
        let bound = Instant::now();
        log.busy += bound - bind;
        if let Some(spans) = tracer.as_deref_mut() {
            spans.record("bind", bind, bound, None, step_id);
        }
        for &query in &step.queries {
            let request = build_request(workload, query);
            let sent = Instant::now();
            let outcome = engine.execute(&request);
            let received = Instant::now();
            let sojourn = received - sent;
            log.busy += sojourn;
            if let Some(spans) = tracer.as_deref_mut() {
                let root = spans.record("request", sent, received, None, index as u64);
                spans.record("execute", sent, received, Some(root), index as u64);
            }
            let observed = match inspect(workload, mirror, query, &outcome) {
                Ok(observed) => Some(observed),
                Err(reason) => {
                    log.failures.add(|| reason);
                    None
                }
            };
            log.records.push(Record {
                index,
                query,
                sojourn_ns: sojourn.as_nanos() as u64,
                cache: cache_outcome(&outcome),
                observed,
            });
            index += 1;
        }
        let unbind = Instant::now();
        *cache = engine.into_cache();
        let unbound = Instant::now();
        log.busy += unbound - unbind;
        if let Some(spans) = tracer.as_deref_mut() {
            spans.record("unbind", unbind, unbound, None, step_id);
        }
    }
    log
}

/// Evenly spaced positions in `0..len`, at most `samples` of them.
pub fn spaced(len: usize, samples: usize) -> Vec<usize> {
    let samples = samples.min(len);
    (0..samples).map(|i| i * len / samples).collect()
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Loaded request files of one workload.
pub enum RequestLists {
    Queries {
        warmup: Vec<Query>,
        timed: Vec<Query>,
    },
    Steps {
        warmup: Vec<Step>,
        timed: Vec<Step>,
    },
}

pub fn load_requests(workload: &Workload, paths: &InputPaths) -> Result<RequestLists, String> {
    let read =
        |path: std::path::PathBuf| fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"));
    let (warmup, timed) = (read(paths.warmup())?, read(paths.requests())?);
    Ok(match workload.requests {
        Requests::Stream { .. } => RequestLists::Steps {
            warmup: decode_steps(&warmup)?,
            timed: decode_steps(&timed)?,
        },
        _ => RequestLists::Queries {
            warmup: decode_queries(&warmup)?,
            timed: decode_queries(&timed)?,
        },
    })
}

/// Drives `clients` closed-loop clients over `timed`, client `c` taking
/// positions `c, c + clients, ..`. With `trace_from`, every client records
/// spans into a log of its own counting from that instant.
pub fn run_clients(
    workload: &Workload,
    service: &CatalogService,
    adjacency: &Adjacency,
    timed: &[Query],
    seconds: f64,
    floor: usize,
    trace_from: Option<Instant>,
) -> Vec<(ClientLog, Option<SpanLog>)> {
    let clients = workload.clients;
    let per_client_floor = floor.div_ceil(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mine = timed.iter().copied().enumerate().skip(c).step_by(clients);
                    let mut spans = trace_from.map(SpanLog::new);
                    let log = service_client(
                        workload,
                        service,
                        adjacency,
                        mine,
                        seconds,
                        per_client_floor,
                        spans.as_mut(),
                    );
                    (log, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Issues the untimed warm-up requests; any failure among them ends the
/// run.
pub fn warm_up_service(
    workload: &Workload,
    service: &CatalogService,
    adjacency: &Adjacency,
    warmup: &[Query],
) -> Result<(), String> {
    let logs = run_clients(
        workload,
        service,
        adjacency,
        warmup,
        0.0,
        warmup.len(),
        None,
    );
    warm_up_failures(logs.into_iter().map(|(log, _)| log))
}

/// Runs the stream's untimed first steps, leaving graph, mirror and plan
/// cache where the timed portion starts.
pub fn warm_up_stream(
    workload: &Workload,
    graph: &mut DynamicGraph,
    mirror: &mut Adjacency,
    cache: &mut PlanCache,
    warmup: &[Step],
) -> Result<(), String> {
    let log = stream_client(
        workload,
        graph,
        mirror,
        cache,
        warmup,
        0.0,
        usize::MAX,
        None,
    );
    warm_up_failures([log])
}

fn warm_up_failures(logs: impl IntoIterator<Item = ClientLog>) -> Result<(), String> {
    match logs.into_iter().find(|l| l.failures.count > 0) {
        Some(log) => Err(format!(
            "warm-up failed: {}",
            log.failures.messages.join("; ")
        )),
        None => Ok(()),
    }
}

/// The whole end-to-end run: returns the result and prints the human
/// lines. `results_dir` receives the per-request counts file.
pub fn run(
    workload: &'static Workload,
    paths: &InputPaths,
    seconds: f64,
    seed: u64,
    results_dir: &Path,
) -> Result<RunResult, String> {
    let (program, setup_s, setup_repetitions) = timed_set_up(workload, paths)?;
    let mut adjacency = load_adjacency(paths)?;
    let lists = load_requests(workload, paths)?;

    let (mut logs, timed_len) = match (program, &lists) {
        (Program::Service(service), RequestLists::Queries { warmup, timed }) => {
            warm_up_service(workload, &service, &adjacency, warmup)?;
            let logs = run_clients(
                workload,
                &service,
                &adjacency,
                timed,
                seconds,
                MIN_TIMED_QUERIES,
                None,
            );
            let logs: Vec<ClientLog> = logs.into_iter().map(|(log, _)| log).collect();
            if workload.admission {
                let shed = service.admission().stats().shed;
                println!("{} admission_shed {shed} count", workload.name);
            }
            (logs, timed.len())
        }
        (Program::Stream(mut graph), RequestLists::Steps { warmup, timed }) => {
            let mut cache = PlanCache::default();
            warm_up_stream(workload, &mut graph, &mut adjacency, &mut cache, warmup)?;
            let log = stream_client(
                workload,
                &mut graph,
                &mut adjacency,
                &mut cache,
                timed,
                seconds,
                MIN_TIMED_QUERIES,
                None,
            );
            (vec![log], timed.iter().map(|s| s.queries.len()).sum())
        }
        _ => return Err("request list does not match the program".into()),
    };
    // Taken before the oracle allocates anything of its own.
    let peak_rss = peak_rss_mb()?;

    let mut failures = Failures::default();
    let mut records: Vec<Record> = Vec::new();
    let mut busy_rate = 0.0;
    let mut paths_rate = 0.0;
    let mut update_us: Vec<f64> = Vec::new();
    let mut mutations = 0;
    for log in &mut logs {
        let correct = log.records.iter().filter(|r| r.observed.is_some()).count();
        let delivered: u64 = log
            .records
            .iter()
            .filter_map(|r| r.observed)
            .map(|o| o.results)
            .sum();
        let busy = log.busy.as_secs_f64();
        busy_rate += correct as f64 / busy;
        paths_rate += delivered as f64 / busy;
        failures.merge(std::mem::take(&mut log.failures));
        records.append(&mut log.records);
        update_us.append(&mut log.update_us);
        mutations += log.mutations;
    }
    records.sort_by_key(|r| r.index);
    if records.len() == timed_len {
        println!(
            "{} note: the request list was exhausted before the time box",
            workload.name
        );
    }

    // Replays across the two clients must agree too.
    if matches!(workload.requests, Requests::Zipf { .. }) {
        let mut first_seen: HashMap<Query, Observed> = HashMap::new();
        for record in &mut records {
            if let Some(seen) = record.observed {
                if *first_seen.entry(record.query).or_insert(seen) != seen {
                    failures.add(|| format!("{:?}: clients saw different responses", record.query));
                    record.observed = None;
                }
            }
        }
    }

    let oracle_checked = match &lists {
        RequestLists::Queries { .. } => {
            oracle_static(workload, &adjacency, &mut records, &mut failures)
        }
        RequestLists::Steps { warmup, timed } => {
            oracle_stream(workload, paths, warmup, timed, &mut records, &mut failures)?
        }
    };
    let compared = cross_check_counts(workload, seed, results_dir, &records, &mut failures)?;

    let attempted = records.len() as u64 + mutations;
    let failed = failures.count.min(attempted);
    let sojourns_ms = sorted(records.iter().map(|r| r.sojourn_ns as f64 / 1e6).collect());
    let p50 = percentile(&sojourns_ms, 0.50).ok_or("too few timed queries for a median")?;
    let p95 = percentile(&sojourns_ms, 0.95).ok_or("too few timed queries for a p95")?;

    let mut measured = Measured::new(&END_TO_END);
    measured.set("setup_s", setup_s);
    measured.set("query_p50_ms", p50);
    measured.set("query_p95_ms", p95);
    measured.set("throughput_qps", busy_rate);
    measured.set("paths_per_s", paths_rate);
    measured.set("peak_rss_mb", peak_rss);
    let result = RunResult {
        workload: workload.name,
        correct: failed == 0,
        attempted,
        failed,
        metrics: measured.complete()?,
    };

    result.print_lines();
    let name = workload.name;
    // Not gated: a p99 rests on a dozen or two samples of a 10 s run.
    if let Some(p99) = percentile(&sojourns_ms, 0.99) {
        println!("{name} query_p99_ms {p99} ms");
    }
    println!(
        "{name} failed_ratio {} ratio",
        failed as f64 / attempted as f64
    );
    if !update_us.is_empty() {
        println!("{name} update_p50_us {} us", median(&mut update_us));
        println!("{name} update_bursts {} count", update_us.len());
    }
    println!("{name} timed_queries {} count", records.len());
    println!("{name} setup_repetitions {setup_repetitions} count");
    println!("{name} oracle_checked {oracle_checked} count");
    println!("{name} cross_checked {compared} count");
    println!("{name} clients {} count", workload.clients);
    println!(
        "{name} available_parallelism {} count",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for message in &failures.messages {
        println!("{name} FAILED {message}");
    }
    Ok(result)
}

fn expectation(workload: &Workload, q: Query) -> Expectation {
    Expectation {
        s: q.s,
        t: q.t,
        k: q.k,
        limit: workload.limit,
    }
}

/// Recomputes the result count of evenly spaced timed requests.
fn oracle_static(
    workload: &Workload,
    adjacency: &Adjacency,
    records: &mut [Record],
    failures: &mut Failures,
) -> usize {
    let mut scratch = OracleScratch::default();
    let sampled = spaced(records.len(), ORACLE_SAMPLES);
    for &at in &sampled {
        let record = &mut records[at];
        let Some(observed) = record.observed else {
            continue;
        };
        let expect = expectation(workload, record.query);
        if let Err(reason) = check_count(adjacency, &mut scratch, expect, observed.results) {
            failures.add(|| reason);
            record.observed = None;
        }
    }
    sampled.len()
}

/// Replays the update stream on a fresh copy of the graph and recomputes
/// the result counts of evenly spaced steps on the edge set of that step.
fn oracle_stream(
    workload: &Workload,
    paths: &InputPaths,
    warmup: &[Step],
    timed: &[Step],
    records: &mut [Record],
    failures: &mut Failures,
) -> Result<usize, String> {
    let mut graph = load_adjacency(paths)?;
    let mut scratch = OracleScratch::default();
    let apply = |graph: &mut Adjacency, step: &Step| {
        for &(insert, u, v) in &step.mutations {
            if insert {
                graph.insert(u, v);
            } else {
                graph.remove(u, v);
            }
        }
    };
    warmup.iter().for_each(|step| apply(&mut graph, step));
    let per_step = timed.first().map_or(1, |s| s.queries.len());
    let steps_run = records.len() / per_step;
    let sampled = spaced(steps_run, ORACLE_SAMPLES);
    let mut checked = 0;
    for (at, step) in timed.iter().enumerate().take(steps_run) {
        apply(&mut graph, step);
        if sampled.binary_search(&at).is_err() {
            continue;
        }
        for record in &mut records[at * per_step..(at + 1) * per_step] {
            let Some(observed) = record.observed else {
                continue;
            };
            let expect = expectation(workload, record.query);
            if let Err(reason) = check_count(&graph, &mut scratch, expect, observed.results) {
                failures.add(|| format!("step {at}: {reason}"));
                record.observed = None;
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Writes this run's per-request result counts and compares them with
/// those of any other workload that replayed the same request list for
/// the same seed (heap and frozen serving must agree request by request).
fn cross_check_counts(
    workload: &Workload,
    seed: u64,
    results_dir: &Path,
    records: &[Record],
    failures: &mut Failures,
) -> Result<usize, String> {
    fs::create_dir_all(results_dir).map_err(|e| e.to_string())?;
    let file = |name: &str| results_dir.join(format!("{name}-seed{seed}.counts"));
    let mut text = String::new();
    for record in records {
        if let Some(observed) = record.observed {
            text.push_str(&format!("{} {}\n", record.index, observed.results));
        }
    }
    fs::write(file(workload.name), text).map_err(|e| e.to_string())?;

    let mine: HashMap<usize, u64> = records
        .iter()
        .filter_map(|r| r.observed.map(|o| (r.index, o.results)))
        .collect();
    let mut compared = 0;
    let same_answers = |other: &&Workload| {
        other.name != workload.name
            && other.requests_name == workload.requests_name
            && other.limit == workload.limit
    };
    for other in crate::workloads::WORKLOADS.iter().filter(same_answers) {
        let Ok(text) = fs::read_to_string(file(other.name)) else {
            continue;
        };
        for line in text.lines() {
            let mut parts = line.split(' ').filter_map(|p| p.parse::<u64>().ok());
            let (Some(index), Some(theirs)) = (parts.next(), parts.next()) else {
                continue;
            };
            if let Some(&ours) = mine.get(&(index as usize)) {
                compared += 1;
                if ours != theirs {
                    failures.add(|| {
                        format!(
                            "request {index}: {ours} results here, {theirs} on {}",
                            other.name
                        )
                    });
                }
            }
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::sync::Arc;

    fn toy() -> (Adjacency, pathenum_graph::CsrGraph) {
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
        let mut builder = pathenum_graph::GraphBuilder::new(4);
        builder.add_edges(edges).unwrap();
        (Adjacency::new(4, &edges), builder.finish())
    }

    #[test]
    fn inspect_accepts_the_library_answer_and_rejects_tampering() {
        let (adjacency, graph) = toy();
        let workload = workloads::find("dense_first1000").unwrap();
        let service = CatalogService::new(PathEnumConfig::default(), catalog_config(workload));
        service.catalog().register(GRAPH_NAME, Arc::new(graph));
        let q = Query { s: 0, t: 3, k: 3 };
        let ask = || {
            service
                .submit(CatalogRequest::new(
                    GRAPH_NAME,
                    TENANT,
                    build_request(workload, q),
                ))
                .wait()
        };
        let honest = ask();
        assert_eq!(cache_outcome(&honest), CacheOutcome::Miss);
        assert_eq!(cache_outcome(&ask()), CacheOutcome::Hit);
        let observed = inspect(workload, &adjacency, q, &honest).unwrap();
        assert_eq!(observed.results, 3);
        assert_eq!(inspect(workload, &adjacency, q, &ask()).unwrap(), observed);

        let mut tampered = honest.clone().unwrap();
        tampered.paths[0] = vec![0, 3];
        assert!(inspect(workload, &adjacency, q, &Ok(tampered))
            .unwrap_err()
            .contains("MissingEdge"));
        let mut short = honest.clone().unwrap();
        short.paths.pop();
        assert!(inspect(workload, &adjacency, q, &Ok(short)).is_err());
        let mut late = honest.unwrap();
        late.termination = Termination::DeadlineExceeded;
        assert!(inspect(workload, &adjacency, q, &Ok(late)).is_err());
        assert!(inspect(workload, &adjacency, q, &Err(PathEnumError::GraphNotFound)).is_err());
    }

    #[test]
    fn spaced_samples_cover_the_range() {
        assert_eq!(spaced(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(spaced(3, 32), vec![0, 1, 2]);
        assert!(spaced(0, 32).is_empty());
    }
}
