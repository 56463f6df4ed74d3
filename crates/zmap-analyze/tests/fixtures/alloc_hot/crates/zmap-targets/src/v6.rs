//! Fixture: alloc-in-hot-path — the v6 walk (`V6TargetIter::next`) and
//! the RX key lookup (`V6DedupSpace::key_for`) are roots. Formatting a
//! label one hop below `next` fires, and so does copying the port list
//! inside `key_for`; the `#[cold]` miss path that names the prefix in its
//! error stays quiet.

pub struct V6TargetIter<'a> {
    space: &'a V6TargetSpace,
    walk: Lane,
}

impl Iterator for V6TargetIter<'_> {
    type Item = Target6;

    fn next(&mut self) -> Option<Target6> {
        let element = self.walk.step()?;
        self.space.decode_walk(element)
    }
}

impl V6TargetSpace {
    fn decode_walk(&self, element: u64) -> Option<Target6> {
        let label = format!("walk element {element}");
        Some(Target6 { label })
    }
}

impl V6DedupSpace {
    pub fn key_for(&self, addr: Ipv6Addr, port: u16) -> Result<u64, DedupError> {
        let Some(index) = self.table.find(addr) else {
            return Err(self.miss(addr));
        };
        let ports = self.ports.to_vec();
        let slot = ports.iter().position(|&p| p == port).ok_or(DedupError::UnknownPort)?;
        Ok(index * ports.len() as u64 + slot as u64)
    }

    #[cold]
    fn miss(&self, addr: Ipv6Addr) -> DedupError {
        DedupError::Named(format!("{addr} is off every line"))
    }
}
