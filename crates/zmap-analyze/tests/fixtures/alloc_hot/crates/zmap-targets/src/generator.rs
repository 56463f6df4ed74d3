//! Fixture: alloc-in-hot-path — `TargetIter::next` is the walk's entry
//! point, so an allocation one hop below it (copying the port list per
//! element in `decode`) fires with the chain that reaches it. The bare
//! `finalize(…)` call lands in the free fn below, never in
//! `Constraint::finalize`, whose table sizing therefore stays quiet.

pub struct TargetIter<'a> {
    gen: &'a TargetGenerator,
    walk: ShardIter,
}

impl Iterator for TargetIter<'_> {
    type Item = Target;

    fn next(&mut self) -> Option<Target> {
        let element = self.walk.step()?;
        self.gen.decode(element)
    }
}

impl TargetGenerator {
    pub fn decode(&self, element: u64) -> Option<Target> {
        let ports = self.ports.to_vec();
        let port = ports[(element % ports.len() as u64) as usize];
        let ip = self.constraint.lookup(finalize(element) / ports.len() as u64)?;
        Some(Target { ip, port })
    }
}

fn finalize(element: u64) -> u64 {
    element - 1
}
