//! Fixture: alloc-in-hot-path — an allocation one call-graph hop below
//! a hot root fires; one in an unreachable fn, or in a reachable fn
//! declared `#[cold]` (an amortised doubling step), stays quiet.

pub struct ProbeModule {
    frame: Vec<u8>,
    builder: ProbeBuilder<V4>,
}

impl ProbeModule {
    pub fn render_into(&self, out: &mut Vec<u8>) {
        self.patch(out);
    }

    fn patch(&self, out: &mut Vec<u8>) {
        let copy = self.frame.to_vec();
        out.extend_from_slice(&copy);
        if out.len() == out.capacity() {
            Self::double(out);
        }
    }

    #[cold]
    fn double(out: &mut Vec<u8>) {
        let mut grown = Vec::with_capacity(out.len() * 2);
        grown.extend_from_slice(out);
        *out = grown;
    }

    pub fn label(&self) -> String {
        format!("module:{}", self.frame.len())
    }

    pub fn parse_response(&self, frame: &[u8]) -> Option<usize> {
        self.builder.parse_response(frame)
    }
}
