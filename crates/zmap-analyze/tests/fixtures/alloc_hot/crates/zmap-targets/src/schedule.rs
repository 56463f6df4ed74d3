//! Fixture: alloc-in-hot-path — the walk scheduler's `next` is a root:
//! the v6 and stealth walks both draw through it. Copying the lane passes
//! per draw to find the smallest fires; sizing the heap in `new`, which
//! no root reaches, stays quiet.

pub struct Schedule {
    passes: Vec<u128>,
    heap: Vec<(u128, usize)>,
}

impl Schedule {
    pub fn new(passes: Vec<u128>) -> Self {
        let heap = Vec::with_capacity(passes.len());
        Schedule { passes, heap }
    }
}

impl Iterator for Schedule {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        let passes = self.passes.to_vec();
        let lane = passes.iter().enumerate().min_by_key(|p| p.1)?.0;
        Some((lane, passes[lane] as u64))
    }
}
