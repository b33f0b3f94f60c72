//! Intra-query parallel enumeration.
//!
//! The paper's algorithms are single-threaded per query; the request
//! layer otherwise exploits parallelism only *across* queries (the
//! [`catalog`](crate::catalog) worker pool). This module parallelizes
//! the search *inside* one query, which is what cuts tail latency when
//! a single heavy query dominates a latency budget:
//!
//! * **T-DFS** — the index-pruned neighborhood of `s` decomposes the
//!   search tree into independent subtrees. [`parallel_dfs`] splits the
//!   frontier into prefix tasks (expanding up to a few hops until there
//!   are enough tasks to balance the pool), runs each task's seeded DFS
//!   on a scoped worker, and concatenates the per-task buffers in prefix
//!   order — which reproduces the *sequential DFS emission order
//!   exactly*, for every worker count.
//! * **IDX-JOIN** — [`parallel_join`] materializes the prefix relation
//!   `R_a` once, groups its tuples by join key, and partitions the key
//!   ranges across workers; each worker enumerates the suffix relation
//!   for its keys and joins locally. Output is merged in key
//!   first-occurrence order (then prefix order, then suffix order) — a
//!   canonical sequence independent of the worker count. As a bonus the
//!   suffix relation is materialized per key instead of whole, so peak
//!   memory *drops* relative to the sequential join.
//!
//! Both executors observe one [`SharedControl`] — a single atomic
//! limit/deadline/cancellation state — through the existing
//! [`PathSink::probe`] stride, so `limit(n)` never over-delivers even
//! when every worker emits concurrently, and a fired
//! [`CancelToken`] or expired deadline
//! stops the whole pool within a bounded number of search steps.
//!
//! Callers normally reach this module through
//! [`QueryRequest::threads`](crate::request::QueryRequest::threads):
//!
//! ```
//! use pathenum::{PathEnumConfig, QueryEngine, QueryRequest};
//! use pathenum_graph::generators::erdos_renyi;
//!
//! let graph = erdos_renyi(60, 400, 7);
//! let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
//! let sequential = engine
//!     .execute(&QueryRequest::paths(0, 1).max_hops(4).collect_paths(true))
//!     .unwrap();
//! let parallel = engine
//!     .execute(&QueryRequest::paths(0, 1).max_hops(4).threads(4).collect_paths(true))
//!     .unwrap();
//! assert_eq!(sequential.paths, parallel.paths); // same paths, same order
//! ```
//!
//! # Determinism guarantee
//!
//! For a fixed graph and request, the merged output (set *and* order) of
//! a `threads(n)` run is identical for every `n >= 2` (and, for the DFS
//! method, identical to the sequential order too). When an early-stopping
//! rule fires, the *number* of delivered paths is exact (`limit` is
//! enforced by atomic slot reservation) but *which* partitions
//! contributed is timing-dependent — the same trade every bounded
//! concurrent search makes.
//!
//! # Cost of the deterministic merge
//!
//! Determinism is bought with buffering: workers hold their partition's
//! admitted paths in memory until the canonical merge replays them into
//! the caller's sink, so an *unbounded* parallel run costs `O(results)`
//! memory even when the sink only counts, and a `SearchControl::Stop`
//! returned by the caller's sink bounds **delivery only** — the search
//! itself has already run (the sequential `threads(1)` path stops the
//! search immediately, as before). Put the cut-off in the request —
//! [`limit`](crate::request::QueryRequest::limit),
//! [`time_budget`](crate::request::QueryRequest::time_budget), or a
//! [`CancelToken`] — and the shared budget
//! bounds both the buffering and the search across all workers.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pathenum_graph::VertexId;

use crate::enumerate::dfs_iterative::{idx_dfs_seeded, SeededScratch};
use crate::enumerate::join::{enumerate_side, valid_path_len, TupleBuffer};
use crate::enumerate::PROBE_STRIDE;
use crate::index::{Index, LocalId};
use crate::request::{CancelToken, Termination};
use crate::sink::{PathBuffer, PathSink, SearchControl};
use crate::stats::Counters;

/// Aim for this many tasks per worker when splitting a search frontier,
/// so stragglers (heavy subtrees, hot join keys) interleave with cheap
/// tasks instead of serializing the pool.
const TASKS_PER_WORKER: usize = 8;

/// Never split the DFS frontier deeper than this many hops from `s`:
/// each extra level multiplies the task count by the branching factor,
/// and three levels already saturate any realistic pool.
const MAX_SPLIT_DEPTH: u32 = 3;

/// How many [`PathSink::probe`] calls a worker passes between full
/// deadline polls (`Instant::now` is the expensive part; the shared stop
/// and cancel flags are checked on every probe). Combined with the
/// enumerators' own [`PROBE_STRIDE`], a deadline is observed at least
/// every `PROBE_STRIDE * WORKER_POLL_STRIDE` search-tree nodes.
const WORKER_POLL_STRIDE: u32 = 16;

const NOT_TRIPPED: u8 = 0;
const TRIP_LIMIT: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_CANCELLED: u8 = 3;

/// Resolves a [`QueryRequest::threads`](crate::request::QueryRequest::threads)
/// value: `0` means one worker per available core.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The one stopping-rule state every worker of a parallel run observes:
/// an atomic result budget plus the deadline and cancellation rules of
/// the request.
///
/// * the **limit** is enforced by slot reservation
///   ([`try_admit`](SharedControl::try_admit)): each emission atomically reserves one
///   of the `limit` slots, so the pool as a whole never over-delivers no
///   matter how many workers emit concurrently;
/// * **deadline** and **cancellation** are polled through the
///   [`PathSink::probe`] stride, so even barren partitions that emit
///   nothing observe them;
/// * the first rule to fire wins
///   ([`termination`](SharedControl::termination) reports it) and raises a stop flag
///   every worker sees on its next probe or emission.
///
/// All flags use relaxed atomics: result buffers are published by the
/// scoped-thread join (and the per-task mutexes), not by these flags, so
/// no ordering stronger than the trip monotonicity is needed.
#[derive(Debug)]
pub struct SharedControl {
    limit: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Emission slots handed out so far (may exceed `limit` by refused
    /// reservations; see [`delivered`](SharedControl::delivered)).
    admitted: AtomicU64,
    tripped: AtomicU8,
}

impl SharedControl {
    /// A control state with the given stopping rules (each optional).
    pub fn new(limit: Option<u64>, deadline: Option<Instant>, cancel: Option<CancelToken>) -> Self {
        SharedControl {
            limit,
            deadline,
            cancel,
            admitted: AtomicU64::new(0),
            tripped: AtomicU8::new(NOT_TRIPPED),
        }
    }

    /// A control state with no stopping rules.
    pub fn unbounded() -> Self {
        SharedControl::new(None, None, None)
    }

    /// Whether any stopping rule has fired.
    pub fn is_stopped(&self) -> bool {
        // ordering: a late-observed trip only delays stopping by one probe
        // stride; result buffers are published by the scoped-thread join
        // and the per-task mutexes, never by this flag.
        self.tripped.load(Ordering::Relaxed) != NOT_TRIPPED
    }

    /// Results admitted for delivery so far (never exceeds the limit).
    pub fn delivered(&self) -> u64 {
        // ordering: single-location counter read; callers read it either
        // after the join (exact) or mid-run as an advisory progress value.
        let admitted = self.admitted.load(Ordering::Relaxed);
        match self.limit {
            Some(limit) => admitted.min(limit),
            None => admitted,
        }
    }

    /// Why the run stopped, or [`Termination::Completed`] if no rule
    /// fired.
    pub fn termination(&self) -> Termination {
        // ordering: read after the scoped-thread join (which publishes all
        // worker writes); the flag value itself is a monotone one-shot.
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_LIMIT => Termination::LimitReached,
            TRIP_DEADLINE => Termination::DeadlineExceeded,
            TRIP_CANCELLED => Termination::Cancelled,
            _ => Termination::Completed,
        }
    }

    /// Records the first rule to fire; later trips are ignored.
    fn trip(&self, reason: u8) {
        // ordering: one-shot CAS on a single location — the per-location
        // total RMW order makes exactly one trip win regardless of
        // ordering strength; the flag publishes no other memory.
        let _ = self.tripped.compare_exchange(
            NOT_TRIPPED,
            reason,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Polls cancellation and the deadline. Called by workers through
    /// the probe stride.
    pub fn poll(&self) -> SearchControl {
        if self.is_stopped() {
            return SearchControl::Stop;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(TRIP_CANCELLED);
            return SearchControl::Stop;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip(TRIP_DEADLINE);
            return SearchControl::Stop;
        }
        SearchControl::Continue
    }

    /// Reserves one emission slot. Returns `false` (and the emission
    /// must be discarded) once the run is stopped or the limit's slots
    /// are exhausted; reserving the final slot trips the limit.
    pub fn try_admit(&self) -> bool {
        if self.is_stopped() {
            return false;
        }
        match self.limit {
            None => {
                // ordering: pure progress counter when unbounded.
                self.admitted.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(limit) => {
                // ordering: slot reservation rides the per-location total
                // order of RMWs on `admitted` — each racer gets a distinct
                // `prior`, so exactly `limit` reservations succeed (pinned
                // by the shared_limit_never_over_admits test); the emitted
                // paths are published by slot mutex + join, not by this.
                let prior = self.admitted.fetch_add(1, Ordering::Relaxed);
                if prior >= limit {
                    // Lost the race for the final slot; whoever won it
                    // has already tripped the limit.
                    false
                } else {
                    if prior + 1 == limit {
                        self.trip(TRIP_LIMIT);
                    }
                    true
                }
            }
        }
    }
}

/// The per-worker sink: buffers admitted paths for the task at hand and
/// observes the [`SharedControl`] on every emission and (strided) probe.
struct WorkerSink<'c> {
    control: &'c SharedControl,
    out: PathBuffer,
    probes: u32,
}

impl<'c> WorkerSink<'c> {
    fn new(control: &'c SharedControl) -> Self {
        WorkerSink {
            control,
            out: PathBuffer::new(),
            probes: 0,
        }
    }
}

impl PathSink for WorkerSink<'_> {
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        if !self.control.try_admit() {
            return SearchControl::Stop;
        }
        self.out.push(path);
        if self.control.is_stopped() {
            SearchControl::Stop
        } else {
            SearchControl::Continue
        }
    }

    fn probe(&mut self) -> SearchControl {
        strided_poll(self.control, &mut self.probes)
    }
}

/// The shared probe cadence of every worker-side sink: the first probe
/// polls the full rule set (so a task never starts under an
/// already-fired deadline or token), then every
/// `WORKER_POLL_STRIDE`-th probe after that; in between, only the cheap
/// shared stop flag is read.
fn strided_poll(control: &SharedControl, probes: &mut u32) -> SearchControl {
    let outcome = if *probes & (WORKER_POLL_STRIDE - 1) == 0 {
        control.poll()
    } else if control.is_stopped() {
        SearchControl::Stop
    } else {
        SearchControl::Continue
    };
    *probes = probes.wrapping_add(1);
    outcome
}

/// A sink that only forwards probes to the control state — used while
/// materializing relations that emit nothing.
struct ProbeOnlySink<'c> {
    control: &'c SharedControl,
    probes: u32,
}

impl PathSink for ProbeOnlySink<'_> {
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        debug_assert!(false, "materialization phases never emit");
        SearchControl::Continue
    }

    fn probe(&mut self) -> SearchControl {
        strided_poll(self.control, &mut self.probes)
    }
}

/// Splits the DFS search space into prefix tasks, in DFS preorder.
///
/// Starts from `[s]` and expands the whole frontier one hop at a time —
/// preserving the neighbor order the sequential DFS would visit — until
/// there are at least `target` tasks, the depth cap is hit, or nothing
/// expands. A prefix that already reaches `t` is kept as an emit-only
/// task at its preorder position, so concatenating per-task outputs
/// reproduces the sequential emission order exactly. Expansion scans and
/// generated prefixes are charged to `counters` so the merged totals
/// match a sequential run.
fn split_dfs_tasks(index: &Index, target: usize, counters: &mut Counters) -> Vec<Vec<LocalId>> {
    let (Some(s_local), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return Vec::new();
    };
    let k = index.k();
    let mut tasks: Vec<Vec<LocalId>> = vec![vec![s_local]];
    let max_depth = MAX_SPLIT_DEPTH.min(k.saturating_sub(1));
    let mut depth = 0u32;
    while tasks.len() < target && depth < max_depth {
        let mut next: Vec<Vec<LocalId>> = Vec::with_capacity(tasks.len() * 2);
        let mut grew = false;
        for prefix in &tasks {
            let last = *prefix.last().expect("prefixes are non-empty");
            let edges = prefix.len() as u32 - 1;
            if last == t_local && edges > 0 {
                next.push(prefix.clone());
                continue;
            }
            let budget = k - edges - 1;
            let neighbors = index.i_t(last, budget);
            counters.edges_accessed += neighbors.len() as u64;
            for &nb in neighbors {
                if prefix.contains(&nb) {
                    continue;
                }
                let mut extended = Vec::with_capacity(k as usize + 1);
                extended.extend_from_slice(prefix);
                extended.push(nb);
                counters.partial_results += 1;
                next.push(extended);
                grew = true;
            }
        }
        tasks = next;
        depth += 1;
        if !grew {
            break;
        }
    }
    tasks
}

/// Output slot of one task: the admitted paths (in task-local order)
/// plus the task's counters.
type TaskSlot = Mutex<(PathBuffer, Counters)>;

/// Replays per-task buffers into the caller's sink in task order,
/// merging counters along the way. A `Stop` from the caller's sink ends
/// delivery (counters still merge) — the caller issued that stop, so it
/// is not a request-level termination, mirroring the sequential
/// convention.
fn merge_outputs(slots: Vec<TaskSlot>, sink: &mut dyn PathSink, counters: &mut Counters) {
    let mut delivering = true;
    for slot in slots {
        let (buffer, task_counters) = slot.into_inner().expect("worker panics propagate earlier");
        counters.merge(&task_counters);
        if delivering {
            for path in buffer.iter() {
                if sink.emit(path) == SearchControl::Stop {
                    delivering = false;
                    break;
                }
            }
        }
    }
}

/// Parallel T-DFS: enumerates all hop-constrained s-t paths with
/// `workers` scoped threads, delivering into `sink` in the sequential
/// DFS emission order (see the module docs for the determinism
/// guarantee). Stopping rules live in `control`;
/// [`SharedControl::termination`] reports how the run ended and
/// [`SharedControl::delivered`] how many results were admitted.
///
/// `counters.results` counts results *found* (the sequential
/// convention: counted before the sink can refuse them); when a
/// stopping rule fires, `control.delivered()` is the authoritative
/// delivered count. Merged `results`, `partial_results`, and
/// `edges_accessed` equal the sequential totals exactly;
/// `invalid_partial_results` may come in *lower* than a sequential run
/// reports, because invalidity of the frontier prefixes that straddle
/// the split boundary (a subtree property) is not aggregated across
/// tasks.
pub fn parallel_dfs(
    index: &Index,
    workers: usize,
    control: &SharedControl,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) {
    let workers = workers.max(1);
    let tasks = split_dfs_tasks(index, workers * TASKS_PER_WORKER, counters);
    if tasks.is_empty() {
        return;
    }
    let workers = workers.min(tasks.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<TaskSlot> = (0..tasks.len())
        .map(|_| Mutex::new((PathBuffer::new(), Counters::default())))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = SeededScratch::default();
                loop {
                    // ordering: work-stealing cursor — the RMW total order
                    // hands each worker a distinct task index; `tasks` is
                    // read-only and published by the scope spawn.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() || control.is_stopped() {
                        break;
                    }
                    let prefix = &tasks[i];
                    let mut task_sink = WorkerSink::new(control);
                    let mut task_counters = Counters::default();
                    // The seed's own neighbor scan is charged here; the
                    // split phase charged every level above it.
                    let last = *prefix.last().expect("prefixes are non-empty");
                    let edges = prefix.len() as u32 - 1;
                    if Some(last) != index.t_local() {
                        let budget = index.k() - edges - 1;
                        task_counters.edges_accessed += index.i_t(last, budget).len() as u64;
                    }
                    idx_dfs_seeded(
                        index,
                        &mut index.rows(),
                        prefix,
                        &mut scratch,
                        &mut task_sink,
                        &mut task_counters,
                    );
                    *slots[i].lock().expect("no poisoned task slot") =
                        (task_sink.out, task_counters);
                }
            });
        }
    });

    merge_outputs(slots, sink, counters);
}

/// One parallel-join task: a contiguous range of join-key groups.
struct KeyGroup {
    key: LocalId,
    /// Indices into `R_a`, in prefix order.
    prefixes: Vec<u32>,
}

/// Parallel IDX-JOIN at `cut`: materializes the prefix relation once,
/// partitions the join keys across `workers` scoped threads, and merges
/// in key first-occurrence order — canonical for every worker count.
///
/// `cut` must satisfy `0 < cut < k`, as for
/// [`idx_join`](crate::enumerate::idx_join).
pub fn parallel_join(
    index: &Index,
    cut: u32,
    workers: usize,
    control: &SharedControl,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) {
    let k = index.k();
    assert!(cut > 0 && cut < k, "cut position must satisfy 0 < cut < k");
    let (Some(s_local), Some(_)) = (index.s_local(), index.t_local()) else {
        return;
    };
    let workers = workers.max(1);

    // Phase 1: R_a = Q[0 : cut], materialized once on the coordinator.
    let mut r_a = TupleBuffer::new(cut as usize + 1);
    let mut probe_sink = ProbeOnlySink { control, probes: 0 };
    let mut side_tick = 0u32;
    let mut side_stack: Vec<LocalId> = Vec::new();
    if enumerate_side(
        index,
        s_local,
        0,
        cut,
        &mut side_stack,
        &mut r_a,
        &mut probe_sink,
        &mut side_tick,
        counters,
    ) == SearchControl::Stop
    {
        return;
    }

    // Phase 2: group prefix tuples by join key, first-occurrence order.
    let mut group_of: Vec<u32> = vec![u32::MAX; index.num_vertices()];
    let mut groups: Vec<KeyGroup> = Vec::new();
    for (i, tuple) in r_a.iter().enumerate() {
        let key = *tuple.last().expect("tuples are non-empty");
        let slot = &mut group_of[key as usize];
        if *slot == u32::MAX {
            *slot = groups.len() as u32;
            groups.push(KeyGroup {
                key,
                prefixes: Vec::new(),
            });
        }
        groups[*slot as usize].prefixes.push(i as u32);
    }
    if groups.is_empty() {
        return;
    }

    // Phase 3: chunk the key groups into tasks.
    let num_tasks = groups.len().min(workers * TASKS_PER_WORKER).max(1);
    let chunk_size = groups.len().div_ceil(num_tasks);
    let chunks: Vec<&[KeyGroup]> = groups.chunks(chunk_size).collect();
    let workers = workers.min(chunks.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<TaskSlot> = (0..chunks.len())
        .map(|_| Mutex::new((PathBuffer::new(), Counters::default())))
        .collect();
    let suffix_width = (k - cut) as usize + 1;
    let r_a = &r_a;
    let t_local = index.t_local().expect("non-empty index has t");

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker scratch, reused across tasks and keys: the
                // suffix relation, the joined tuple, and the global-id
                // path being emitted.
                let mut r_b = TupleBuffer::new(suffix_width);
                let mut side_stack: Vec<LocalId> = Vec::new();
                let mut combined: Vec<LocalId> = Vec::with_capacity(k as usize + 1);
                let mut path: Vec<VertexId> = Vec::with_capacity(k as usize + 1);
                let mut peak_suffix_vertices = 0usize;
                'tasks: loop {
                    // ordering: work-stealing cursor — the RMW total order
                    // hands each worker a distinct chunk; `chunks` is
                    // read-only and published by the scope spawn.
                    let ti = cursor.fetch_add(1, Ordering::Relaxed);
                    if ti >= chunks.len() || control.is_stopped() {
                        break;
                    }
                    let mut task_sink = WorkerSink::new(control);
                    let mut task_counters = Counters::default();
                    let mut probe_tick = 0u32;
                    for group in chunks[ti] {
                        // Enumerate this key's suffix relation.
                        r_b.clear();
                        if enumerate_side(
                            index,
                            group.key,
                            cut,
                            k,
                            &mut side_stack,
                            &mut r_b,
                            &mut task_sink,
                            &mut probe_tick,
                            &mut task_counters,
                        ) == SearchControl::Stop
                        {
                            store_join_slot(
                                &slots[ti],
                                task_sink,
                                task_counters,
                                r_a,
                                peak_suffix_vertices,
                            );
                            break 'tasks;
                        }
                        peak_suffix_vertices = peak_suffix_vertices.max(r_b.flat_len());
                        if r_b.len() == 0 {
                            // Every prefix ending at this key is a dead end.
                            task_counters.invalid_partial_results += group.prefixes.len() as u64;
                            continue;
                        }
                        // Join: every prefix with this key against every
                        // suffix, in (prefix, suffix) order.
                        for &pi in &group.prefixes {
                            let prefix = r_a.get(pi as usize);
                            for suffix in r_b.iter() {
                                if probe_tick & (PROBE_STRIDE - 1) == 0
                                    && task_sink.probe() == SearchControl::Stop
                                {
                                    store_join_slot(
                                        &slots[ti],
                                        task_sink,
                                        task_counters,
                                        r_a,
                                        peak_suffix_vertices,
                                    );
                                    break 'tasks;
                                }
                                probe_tick = probe_tick.wrapping_add(1);
                                combined.clear();
                                combined.extend_from_slice(prefix);
                                combined.extend_from_slice(&suffix[1..]);
                                if let Some(len) = valid_path_len(&combined, t_local) {
                                    task_counters.results += 1;
                                    path.clear();
                                    path.extend(combined[..len].iter().map(|&l| index.global(l)));
                                    if task_sink.emit(&path) == SearchControl::Stop {
                                        store_join_slot(
                                            &slots[ti],
                                            task_sink,
                                            task_counters,
                                            r_a,
                                            peak_suffix_vertices,
                                        );
                                        break 'tasks;
                                    }
                                } else {
                                    task_counters.invalid_partial_results += 1;
                                }
                            }
                        }
                    }
                    store_join_slot(
                        &slots[ti],
                        task_sink,
                        task_counters,
                        r_a,
                        peak_suffix_vertices,
                    );
                }
            });
        }
    });

    merge_outputs(slots, sink, counters);
}

/// Publishes one join task's results, folding the memory statistic in:
/// the whole prefix relation is alive throughout, plus this worker's
/// largest per-key suffix relation.
fn store_join_slot(
    slot: &TaskSlot,
    task_sink: WorkerSink<'_>,
    mut task_counters: Counters,
    r_a: &TupleBuffer,
    peak_suffix_vertices: usize,
) {
    task_counters.peak_materialized_vertices = task_counters
        .peak_materialized_vertices
        .max((r_a.flat_len() + peak_suffix_vertices) as u64);
    *slot.lock().expect("no poisoned task slot") = (task_sink.out, task_counters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{idx_dfs, idx_join};
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};

    fn sequential_dfs(index: &Index) -> Vec<Vec<VertexId>> {
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_dfs(index, &mut sink, &mut counters);
        sink.paths
    }

    #[test]
    fn parallel_dfs_matches_sequential_order_for_every_worker_count() {
        for (g, k) in [
            (figure1_graph(), 4),
            (erdos_renyi(40, 220, 9), 5),
            (complete_digraph(7), 4),
        ] {
            let index = Index::build(&g, Query::new(0, 1, k).unwrap());
            let expected = sequential_dfs(&index);
            for workers in [1, 2, 4, 8] {
                let control = SharedControl::unbounded();
                let mut sink = CollectingSink::default();
                let mut counters = Counters::default();
                parallel_dfs(&index, workers, &control, &mut sink, &mut counters);
                assert_eq!(sink.paths, expected, "workers={workers} k={k}");
                assert_eq!(counters.results, expected.len() as u64);
                assert_eq!(control.delivered(), expected.len() as u64);
                assert_eq!(control.termination(), Termination::Completed);
            }
        }
    }

    #[test]
    fn parallel_dfs_counters_match_sequential_iterative_totals() {
        let g = erdos_renyi(40, 220, 9);
        let index = Index::build(&g, Query::new(0, 1, 5).unwrap());
        let mut seq_sink = CollectingSink::default();
        let mut seq = Counters::default();
        crate::enumerate::idx_dfs_iterative(&index, &mut seq_sink, &mut seq);
        let control = SharedControl::unbounded();
        let mut sink = CollectingSink::default();
        let mut par = Counters::default();
        parallel_dfs(&index, 4, &control, &mut sink, &mut par);
        assert_eq!(par.results, seq.results);
        assert_eq!(par.partial_results, seq.partial_results);
        assert_eq!(par.edges_accessed, seq.edges_accessed);
    }

    #[test]
    fn parallel_join_is_canonical_and_set_equal_to_sequential() {
        for (g, k) in [(figure1_graph(), 4), (erdos_renyi(40, 260, 5), 5)] {
            let index = Index::build(&g, Query::new(0, 1, k).unwrap());
            for cut in 1..k {
                let mut seq_sink = CollectingSink::default();
                let mut seq_counters = Counters::default();
                idx_join(&index, cut, &mut seq_sink, &mut seq_counters);
                let expected_sorted = seq_sink.sorted_paths();

                let mut canonical: Option<Vec<Vec<VertexId>>> = None;
                for workers in [1, 2, 4, 8] {
                    let control = SharedControl::unbounded();
                    let mut sink = CollectingSink::default();
                    let mut counters = Counters::default();
                    parallel_join(&index, cut, workers, &control, &mut sink, &mut counters);
                    let mut sorted = sink.paths.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, expected_sorted, "workers={workers} cut={cut}");
                    match &canonical {
                        None => canonical = Some(sink.paths),
                        Some(first) => {
                            assert_eq!(&sink.paths, first, "order varies at workers={workers}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shared_limit_never_over_admits() {
        let control = SharedControl::new(Some(10), None, None);
        let admitted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        if control.try_admit() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 10);
        assert_eq!(control.delivered(), 10);
        assert_eq!(control.termination(), Termination::LimitReached);
    }

    #[test]
    fn parallel_dfs_respects_a_shared_limit_exactly() {
        let g = complete_digraph(9);
        let index = Index::build(&g, Query::new(0, 8, 4).unwrap());
        let total = sequential_dfs(&index).len() as u64;
        for limit in [1u64, 7, 50] {
            assert!(limit < total, "limit must bite");
            let control = SharedControl::new(Some(limit), None, None);
            let mut sink = CollectingSink::default();
            let mut counters = Counters::default();
            parallel_dfs(&index, 4, &control, &mut sink, &mut counters);
            assert_eq!(sink.paths.len() as u64, limit);
            assert_eq!(control.delivered(), limit);
            assert_eq!(control.termination(), Termination::LimitReached);
        }
    }

    #[test]
    fn cancellation_stops_the_pool() {
        let g = complete_digraph(10);
        let index = Index::build(&g, Query::new(0, 9, 5).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let control = SharedControl::new(None, None, Some(token));
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        parallel_dfs(&index, 4, &control, &mut sink, &mut counters);
        assert_eq!(control.termination(), Termination::Cancelled);
        // A pre-fired token is observed within one poll stride per
        // worker, long before the full result set (tens of thousands).
        assert!(
            (sink.paths.len() as u64) < 5_000,
            "delivered {}",
            sink.paths.len()
        );
    }

    #[test]
    fn expired_deadline_stops_the_pool() {
        let g = complete_digraph(10);
        let index = Index::build(&g, Query::new(0, 9, 5).unwrap());
        let control = SharedControl::new(
            None,
            Some(Instant::now() - std::time::Duration::from_millis(1)),
            None,
        );
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        parallel_join(&index, 2, 4, &control, &mut sink, &mut counters);
        assert_eq!(control.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn empty_index_is_a_no_op() {
        let g = figure1_graph();
        let index = Index::build(&g, Query::new(T, S, 4).unwrap());
        let control = SharedControl::unbounded();
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        parallel_dfs(&index, 4, &control, &mut sink, &mut counters);
        parallel_join(&index, 2, 4, &control, &mut sink, &mut counters);
        assert!(sink.paths.is_empty());
        assert_eq!(control.termination(), Termination::Completed);
    }

    #[test]
    fn resolve_threads_maps_zero_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
