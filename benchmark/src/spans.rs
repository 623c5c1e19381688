//! Host-time spans of one traced run, aggregated by name.
//!
//! The traced drive loop makes three timed calls per event, so a workload
//! with half a million events would record 1.4 M individual spans; instead
//! every span with the same name and parent is folded into one node that
//! keeps its total duration and how many times it was entered. Durations are
//! integer nanoseconds, so self times sum to the root's total exactly.

use std::time::Duration;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub total_ns: u64,
    pub count: u64,
}

#[derive(Default)]
pub struct Spans {
    nodes: Vec<Span>,
}

impl Spans {
    /// Register a span under `parent` (`None` for the root); returns its id.
    pub fn node(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.nodes.push(Span {
            name: name.to_string(),
            parent,
            total_ns: 0,
            count: 0,
        });
        self.nodes.len() - 1
    }

    /// Account one more entry of span `id` that lasted `d`.
    pub fn add(&mut self, id: usize, d: Duration) {
        let n = &mut self.nodes[id];
        n.total_ns += d.as_nanos() as u64;
        n.count += 1;
    }

    pub fn nodes(&self) -> &[Span] {
        &self.nodes
    }

    pub fn total_s(&self, id: usize) -> f64 {
        self.nodes[id].total_ns as f64 / 1e9
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .nodes
            .iter()
            .filter(|n| n.parent == Some(id))
            .map(|n| n.total_ns)
            .sum();
        self.nodes[id]
            .total_ns
            .checked_sub(children)
            .expect("child spans outlast their parent")
    }

    /// Time inside the root that no leaf span accounts for: the self time of
    /// every span that has children.
    pub fn unattributed_ns(&self) -> u64 {
        (0..self.nodes.len())
            .filter(|&id| self.nodes.iter().any(|n| n.parent == Some(id)))
            .map(|id| self.self_ns(id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_exactly() {
        let mut s = Spans::default();
        let root = s.node("run", None);
        let setup = s.node("new", Some(root));
        let kernel = s.node("loop", Some(root));
        let pop = s.node("pop", Some(kernel));
        let handle = s.node("handle", Some(kernel));
        s.add(setup, Duration::from_nanos(1_000));
        for _ in 0..3 {
            s.add(pop, Duration::from_nanos(7));
            s.add(handle, Duration::from_nanos(333));
        }
        s.add(kernel, Duration::from_nanos(3 * 340 + 11));
        s.add(root, Duration::from_nanos(1_000 + 3 * 340 + 11 + 500));

        assert_eq!(s.nodes()[pop].count, 3);
        assert_eq!(s.self_ns(kernel), 11);
        assert_eq!(s.self_ns(root), 500);
        assert_eq!(s.self_ns(handle), 999);
        let all: u64 = (0..s.nodes().len()).map(|id| s.self_ns(id)).sum();
        assert_eq!(all, s.nodes()[root].total_ns);
        // Leaves are attributed; the two inner spans' own time is not.
        assert_eq!(s.unattributed_ns(), 511);
    }
}
