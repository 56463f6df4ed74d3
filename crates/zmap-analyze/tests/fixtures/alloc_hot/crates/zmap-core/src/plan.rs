//! Fixture: alloc-in-hot-path — an allocation one call-graph hop below
//! a hot root fires; the same allocation in an unreachable fn stays
//! quiet.

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
    }

    pub fn label(&self) -> String {
        format!("module:{}", self.frame.len())
    }

    pub fn parse_response(&self, frame: &[u8]) -> Option<usize> {
        self.builder.parse_response(frame)
    }
}
