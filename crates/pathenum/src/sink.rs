//! Path emission: the `PathSink` visitor and stock implementations.
//!
//! Every enumerator in this workspace emits paths through a [`PathSink`]
//! instead of materializing a `Vec<Vec<VertexId>>`. This is what makes the
//! paper's metrics cheap to collect: *throughput* is a [`CountingSink`],
//! *response time* is a request with
//! [`limit(1000)`](crate::request::QueryRequest::limit), and the
//! constraint extensions of Appendix E are sinks/filters too. The
//! request layer's stopping rules (limit, deadline, cancellation) live
//! in [`ControlledSink`](crate::request::ControlledSink), which wraps
//! any sink here.

use pathenum_graph::VertexId;

/// Whether enumeration should keep producing results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchControl {
    /// Keep enumerating.
    Continue,
    /// Stop as soon as possible (used for response-time measurements and
    /// early termination).
    Stop,
}

/// Receiver for enumerated paths.
///
/// `path` is the full vertex sequence `s, ..., t` (no trailing padding);
/// the slice is only valid for the duration of the call.
pub trait PathSink {
    /// Called once per enumerated path.
    fn emit(&mut self, path: &[VertexId]) -> SearchControl;

    /// Called periodically by enumerators *between* emissions (once per
    /// search-tree node) so that sinks enforcing wall-clock or
    /// cancellation rules can interrupt barren stretches of the search —
    /// a query that emits rarely still observes its deadline. The
    /// default keeps searching.
    #[inline]
    fn probe(&mut self) -> SearchControl {
        SearchControl::Continue
    }
}

impl<S: PathSink + ?Sized> PathSink for &mut S {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        (**self).emit(path)
    }

    #[inline]
    fn probe(&mut self) -> SearchControl {
        (**self).probe()
    }
}

/// Counts results without storing them.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Number of paths emitted so far.
    pub count: u64,
}

impl PathSink for CountingSink {
    #[inline]
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.count += 1;
        SearchControl::Continue
    }
}

/// Collects every path. Intended for tests and small workloads.
#[derive(Debug, Default, Clone)]
pub struct CollectingSink {
    /// All emitted paths, in emission order.
    pub paths: Vec<Vec<VertexId>>,
}

impl PathSink for CollectingSink {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        self.paths.push(path.to_vec());
        SearchControl::Continue
    }
}

impl CollectingSink {
    /// Paths sorted lexicographically — the canonical form used when
    /// comparing the output of two algorithms.
    pub fn sorted_paths(mut self) -> Vec<Vec<VertexId>> {
        self.paths.sort_unstable();
        self.paths
    }
}

/// Flat storage for variable-length paths: one contiguous `data` vector
/// plus per-path end offsets.
///
/// A `Vec<Vec<VertexId>>` pays one heap allocation per path; enumeration
/// workloads emit millions of short paths, so the intra-query parallel
/// workers ([`crate::parallel`]) buffer their partition's results here
/// and the coordinator replays them into the caller's sink in canonical
/// order. Also usable directly as a [`PathSink`].
#[derive(Debug, Default, Clone)]
pub struct PathBuffer {
    /// End offset (exclusive) of each stored path within `data`.
    /// Full-width offsets: a buffer past 2^32 total vertices must not
    /// silently wrap (offsets are one word per *path*, so the overhead
    /// relative to the vertex data is small).
    ends: Vec<usize>,
    /// Concatenated vertex sequences.
    data: Vec<VertexId>,
}

impl PathBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        PathBuffer::default()
    }

    /// Appends one path.
    pub fn push(&mut self, path: &[VertexId]) {
        self.data.extend_from_slice(path);
        self.ends.push(self.data.len());
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no path is stored.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Removes every stored path, keeping the allocations.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.data.clear();
    }

    /// The `i`-th stored path.
    pub fn get(&self, i: usize) -> &[VertexId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.data[start..self.ends[i]]
    }

    /// Iterates the stored paths in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Approximate heap footprint in bytes (capacity, not length — this
    /// is what a byte-budgeted cache actually holds onto).
    pub fn heap_bytes(&self) -> usize {
        self.ends.capacity() * std::mem::size_of::<usize>()
            + self.data.capacity() * std::mem::size_of::<VertexId>()
    }
}

impl PathSink for PathBuffer {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        self.push(path);
        SearchControl::Continue
    }
}

/// Adapts a closure into a sink.
pub struct FnSink<F: FnMut(&[VertexId]) -> SearchControl>(pub F);

impl<F: FnMut(&[VertexId]) -> SearchControl> PathSink for FnSink<F> {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        (self.0)(path)
    }
}

/// A sink that counts results and aborts once a wall-clock deadline passes.
///
/// The experiment runner uses this for the paper's per-query time limit;
/// checking the clock only every `check_interval` emissions keeps overhead
/// negligible on high-throughput queries.
#[derive(Debug)]
pub struct DeadlineSink {
    /// Number of paths emitted so far.
    pub count: u64,
    deadline: std::time::Instant,
    check_interval: u64,
    probes: u64,
    /// Set to true if the deadline fired.
    pub timed_out: bool,
}

impl DeadlineSink {
    /// Sink that aborts after `budget` of wall-clock time.
    pub fn new(budget: std::time::Duration) -> Self {
        DeadlineSink {
            count: 0,
            deadline: std::time::Instant::now() + budget,
            check_interval: 1024,
            probes: 0,
            timed_out: false,
        }
    }
}

impl PathSink for DeadlineSink {
    #[inline]
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.count += 1;
        if self.count.is_multiple_of(self.check_interval)
            && std::time::Instant::now() >= self.deadline
        {
            self.timed_out = true;
            return SearchControl::Stop;
        }
        SearchControl::Continue
    }

    #[inline]
    fn probe(&mut self) -> SearchControl {
        if self.timed_out {
            return SearchControl::Stop;
        }
        if self.probes.is_multiple_of(self.check_interval)
            && std::time::Instant::now() >= self.deadline
        {
            self.timed_out = true;
            return SearchControl::Stop;
        }
        self.probes += 1;
        SearchControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        for _ in 0..5 {
            assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        }
        assert_eq!(sink.count, 5);
    }

    #[test]
    fn controlled_sink_is_the_canonical_stop_at_n_adapter() {
        // Stop-at-N is a request-level rule; ControlledSink is the one
        // mechanism behind it.
        let mut sink =
            crate::request::ControlledSink::new(CountingSink::default(), Some(3), None, None);
        assert_eq!(sink.emit(&[0]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0]), SearchControl::Stop);
        assert_eq!(
            sink.termination(),
            crate::request::Termination::LimitReached
        );
    }

    #[test]
    fn collecting_sink_sorts() {
        let mut sink = CollectingSink::default();
        sink.emit(&[0, 2, 1]);
        sink.emit(&[0, 1, 2]);
        assert_eq!(sink.sorted_paths(), vec![vec![0, 1, 2], vec![0, 2, 1]]);
    }

    #[test]
    fn path_buffer_round_trips_variable_length_paths() {
        let mut buf = PathBuffer::new();
        assert!(buf.is_empty());
        buf.push(&[0, 1, 2]);
        buf.push(&[3, 4]);
        assert_eq!(buf.emit(&[5, 6, 7, 8]), SearchControl::Continue);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.get(0), &[0, 1, 2]);
        assert_eq!(buf.get(1), &[3, 4]);
        assert_eq!(buf.get(2), &[5, 6, 7, 8]);
        let collected: Vec<Vec<VertexId>> = buf.iter().map(<[VertexId]>::to_vec).collect();
        assert_eq!(collected, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8]]);
        buf.clear();
        assert!(buf.is_empty());
        buf.push(&[9]);
        assert_eq!(buf.get(0), &[9]);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink(|p: &[VertexId]| {
                seen.push(p.len());
                SearchControl::Continue
            });
            sink.emit(&[0, 1, 2]);
        }
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn deadline_sink_times_out() {
        let mut sink = DeadlineSink::new(std::time::Duration::ZERO);
        let mut control = SearchControl::Continue;
        for _ in 0..2048 {
            control = sink.emit(&[0]);
            if control == SearchControl::Stop {
                break;
            }
        }
        assert_eq!(control, SearchControl::Stop);
        assert!(sink.timed_out);
    }
}
