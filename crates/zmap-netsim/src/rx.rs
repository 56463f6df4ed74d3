//! [`RxBatch`]: received frames back to back in one byte arena.

/// A reusable buffer of received frames — the engine-side model of a
/// receive ring: one byte arena plus a `(t_ns, offset, len)` entry per
/// frame. The world renders each delivered frame straight into the arena;
/// a reader takes the frames back as borrowed slices and clears the
/// batch, keeping both allocations, so a warm receive path allocates
/// nothing per frame.
/// The world also parks frames popped for another endpoint in one of
/// these until that endpoint's next receive.
#[derive(Debug, Default)]
pub struct RxBatch {
    bytes: Vec<u8>,
    frames: Vec<(u64, usize, usize)>,
}

impl RxBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a copy of `frame`, received at `t_ns`.
    #[inline]
    pub fn push(&mut self, t_ns: u64, frame: &[u8]) {
        self.push_with(t_ns, |bytes| bytes.extend_from_slice(frame));
    }

    /// Appends the frame `write` appends to the arena, received at `t_ns`.
    #[inline]
    pub(crate) fn push_with(&mut self, t_ns: u64, write: impl FnOnce(&mut Vec<u8>)) {
        let off = self.bytes.len();
        write(&mut self.bytes);
        self.frames.push((t_ns, off, self.bytes.len() - off));
    }

    /// Frames held.
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Receive time and bytes of frame `i` (`i < len`).
    #[inline]
    pub fn frame(&self, i: usize) -> (u64, &[u8]) {
        let (t, off, len) = self.frames[i];
        (t, &self.bytes[off..off + len])
    }

    /// Every frame, in arrival order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        (0..self.len()).map(|i| self.frame(i))
    }

    /// Empties the batch, keeping its allocations for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_batch_reuses_its_arena_without_stale_bytes() {
        let mut rx = RxBatch::new();
        rx.push(5, &[1, 2, 3]);
        rx.push(9, &[4]);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![(5, &[1, 2, 3][..]), (9, &[4][..])]);
        rx.clear();
        assert!(rx.is_empty());
        rx.push(12, &[7, 7]);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.frame(0), (12, &[7, 7][..]));
    }
}
