//! The benchmark's own adjacency structures. The generator, the client's
//! path checks and the oracle all read the graph through these, never
//! through the library under test.

use std::collections::HashMap;

pub type Edge = (u32, u32);

/// One direction of a compressed-sparse-row digraph; rows ascending.
#[derive(Debug, Clone)]
pub struct Csr {
    pub offsets: Vec<usize>,
    pub targets: Vec<u32>,
}

impl Csr {
    /// Out-adjacency of `edges`, which must be sorted by `(from, to)` and
    /// free of duplicates.
    pub fn forward(n: usize, edges: &[Edge]) -> Csr {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let mut offsets = vec![0usize; n + 1];
        for &(from, _) in edges {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Csr {
            offsets,
            targets: edges.iter().map(|&(_, to)| to).collect(),
        }
    }

    /// In-adjacency of the same sorted edge list. Filling rows in edge
    /// order leaves every row's sources ascending.
    pub fn backward(n: usize, edges: &[Edge]) -> Csr {
        let mut offsets = vec![0usize; n + 1];
        for &(_, to) in edges {
            offsets[to as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(from, to) in edges {
            targets[cursor[to as usize]] = from;
            cursor[to as usize] += 1;
        }
        Csr { offsets, targets }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn row(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    pub fn contains(&self, from: u32, to: u32) -> bool {
        self.row(from).binary_search(&to).is_ok()
    }
}

/// Both directions of a base graph plus the edges a mutating stream has
/// added on top. Removals in the stream workload only ever undo earlier
/// additions, so base edges are never masked.
#[derive(Debug, Clone)]
pub struct Adjacency {
    pub out: Csr,
    pub inn: Csr,
    added_out: HashMap<u32, Vec<u32>>,
    added_in: HashMap<u32, Vec<u32>>,
}

impl Adjacency {
    pub fn new(n: usize, edges: &[Edge]) -> Adjacency {
        Adjacency {
            out: Csr::forward(n, edges),
            inn: Csr::backward(n, edges),
            added_out: HashMap::new(),
            added_in: HashMap::new(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    pub fn has_edge(&self, from: u32, to: u32) -> bool {
        self.out.contains(from, to)
            || self
                .added_out
                .get(&from)
                .is_some_and(|row| row.contains(&to))
    }

    /// Adds an edge on top of the base; returns false if it is present.
    pub fn insert(&mut self, from: u32, to: u32) -> bool {
        if self.has_edge(from, to) {
            return false;
        }
        self.added_out.entry(from).or_default().push(to);
        self.added_in.entry(to).or_default().push(from);
        true
    }

    /// Removes a previously added edge; returns false if it was not one.
    pub fn remove(&mut self, from: u32, to: u32) -> bool {
        let Some(row) = self.added_out.get_mut(&from) else {
            return false;
        };
        let Some(at) = row.iter().position(|&x| x == to) else {
            return false;
        };
        row.swap_remove(at);
        let back = self
            .added_in
            .get_mut(&to)
            .expect("an added edge is recorded in both directions");
        let at = back
            .iter()
            .position(|&x| x == from)
            .expect("an added edge is recorded in both directions");
        back.swap_remove(at);
        true
    }

    pub fn out_neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let added = self.added_out.get(&v).map_or(&[][..], Vec::as_slice);
        self.out.row(v).iter().chain(added).copied()
    }

    pub fn in_neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let added = self.added_in.get(&v).map_or(&[][..], Vec::as_slice);
        self.inn.row(v).iter().chain(added).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Vec<Edge> {
        vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    }

    #[test]
    fn forward_and_backward_rows_are_ascending_and_consistent() {
        let adj = Adjacency::new(4, &diamond());
        assert_eq!(adj.out.row(0), &[1, 2]);
        assert_eq!(adj.out.row(3), &[] as &[u32]);
        assert_eq!(adj.inn.row(3), &[1, 2]);
        assert_eq!(adj.inn.row(2), &[0, 1]);
        assert!(adj.has_edge(1, 3));
        assert!(!adj.has_edge(3, 1));
    }

    #[test]
    fn added_edges_come_and_go_without_touching_the_base() {
        let mut adj = Adjacency::new(4, &diamond());
        assert!(!adj.insert(0, 1), "base edge is already present");
        assert!(adj.insert(3, 0));
        assert!(!adj.insert(3, 0));
        assert!(adj.has_edge(3, 0));
        assert_eq!(adj.out_neighbors(3).collect::<Vec<_>>(), vec![0]);
        assert_eq!(adj.in_neighbors(0).collect::<Vec<_>>(), vec![3]);
        assert!(adj.remove(3, 0));
        assert!(!adj.remove(3, 0));
        assert!(!adj.remove(0, 1), "base edges are not removable");
        assert!(!adj.has_edge(3, 0));
    }
}
