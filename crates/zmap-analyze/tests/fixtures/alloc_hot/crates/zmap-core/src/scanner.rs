//! Fixture: alloc-in-hot-path — the engine's receive drain is a root.
//! Copying each borrowed frame into an owned buffer one hop below it
//! fires; the collecting compatibility receive, which no root reaches,
//! stays quiet.

pub struct Engine {
    rx: RxBatch,
    bytes: u64,
}

impl Engine {
    fn drain(&mut self) {
        for (ts, frame) in self.rx.iter() {
            self.on_frame(ts, frame);
        }
    }

    fn on_frame(&mut self, ts: u64, frame: &[u8]) {
        let owned = frame.to_vec();
        self.bytes += ts + owned.len() as u64;
    }

    pub fn recv_frames(&self) -> Vec<(u64, Vec<u8>)> {
        self.rx
            .iter()
            .map(|(ts, frame)| (ts, frame.to_vec()))
            .collect()
    }
}
