//! Fixture: alloc-in-hot-path — the per-target walk is a hot root.
//! `lookup` keeping the boxed tree's habits (a path buffer and a boxed
//! node per call) fires twice; `is_allowed` in the flat form — one binary
//! search over the span table — and the table sizing in `finalize`, which
//! no root reaches, stay quiet.

pub struct Constraint {
    spans: Vec<Span>,
    dir: Vec<u32>,
}

impl Constraint {
    pub fn finalize(&mut self) {
        self.dir = Vec::with_capacity(4 * self.spans.len());
    }

    pub fn lookup(&self, index: u64) -> Option<u32> {
        let mut path = Vec::new();
        let node = Box::new(self.spans[self.dir[0] as usize]);
        path.push(node.first_index);
        Some(node.start + (index - node.first_index) as u32)
    }

    pub fn is_allowed(&self, addr: u32) -> bool {
        let after = self.spans.partition_point(|s| s.start <= addr);
        after > 0 && addr <= self.spans[after - 1].end
    }
}
