//! Fixture: alloc-in-hot-path — the data stream's per-row path is a hot
//! root too. Building the JSON line as a `String` fires; sizing the
//! reused buffer in the constructor, which no root reaches, stays quiet.

pub struct OutputModule<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> OutputModule<W> {
    pub fn new(out: W) -> Self {
        OutputModule { out, buf: Vec::with_capacity(65_536) }
    }

    pub fn record(&mut self, r: &ScanResult) -> io::Result<()> {
        let line = serde_json::to_string(r).map_err(io::Error::other)?;
        self.buf.extend_from_slice(line.as_bytes());
        self.out.write_all(&self.buf)
    }
}
