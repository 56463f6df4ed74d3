//! A small leveled logger — stream #2 of the four output streams.
//!
//! §5's lesson: keep logs separate from data, support levels, and use
//! debug logging liberally. We implement a minimal logger rather than
//! pulling a logging framework: scans run embedded in simulations and
//! tests where capturing log lines as values matters more than ecosystem
//! integration.

use std::fmt::Arguments;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Log severity, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    fn tag(&self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }
}

/// Where log lines go.
enum Sink {
    /// Discard (default for benchmarks).
    Null,
    /// Collect in memory (tests, metadata attachment).
    Memory(Vec<(Level, String)>),
    /// Write formatted lines to a writer (CLI: stderr).
    Writer(Box<dyn Write + Send>),
}

/// A cheap-to-clone handle to a shared logger.
#[derive(Clone)]
pub struct Logger {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    min: Level,
    sink: Sink,
}

impl Logger {
    /// A logger that discards everything below `min` and keeps the rest
    /// in memory.
    pub fn memory(min: Level) -> Self {
        Logger {
            inner: Arc::new(Mutex::new(Inner {
                min,
                sink: Sink::Memory(Vec::new()),
            })),
        }
    }

    /// A logger that discards everything.
    pub fn null() -> Self {
        Logger {
            inner: Arc::new(Mutex::new(Inner {
                min: Level::Error,
                sink: Sink::Null,
            })),
        }
    }

    /// A logger writing `LEVEL message` lines to `w`.
    pub fn writer(min: Level, w: Box<dyn Write + Send>) -> Self {
        Logger {
            inner: Arc::new(Mutex::new(Inner {
                min,
                sink: Sink::Writer(w),
            })),
        }
    }

    /// Logs at `level`. A poisoned logger recovers rather than panics:
    /// the sink only ever appends lines, so the state behind a poisoned
    /// lock is still coherent — and losing the whole scan because a
    /// *logging* thread died would invert the priority order.
    pub fn log(&self, level: Level, args: Arguments<'_>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if level >= inner.min {
            write_line(&mut inner.sink, level, args);
        }
    }

    /// Convenience wrappers.
    pub fn debug(&self, args: Arguments<'_>) {
        self.log(Level::Debug, args);
    }
    pub fn info(&self, args: Arguments<'_>) {
        self.log(Level::Info, args);
    }
    pub fn warn(&self, args: Arguments<'_>) {
        self.log(Level::Warn, args);
    }
    pub fn error(&self, args: Arguments<'_>) {
        self.log(Level::Error, args);
    }

    /// Snapshot of collected lines (memory sink only; empty otherwise).
    pub fn lines(&self) -> Vec<(Level, String)> {
        match &self.inner.lock().unwrap_or_else(|p| p.into_inner()).sink {
            Sink::Memory(v) => v.clone(),
            _ => Vec::new(),
        }
    }
}

/// Writes one line into `sink`. A line is the exceptional path of
/// whatever logs it — the receive path logs only rejected frames, at
/// debug level — so the formatting it costs is kept out of line.
#[cold]
fn write_line(sink: &mut Sink, level: Level, args: Arguments<'_>) {
    match sink {
        Sink::Null => {}
        Sink::Memory(v) => v.push((level, args.to_string())),
        Sink::Writer(w) => {
            let _ = writeln!(w, "{} {}", level.tag(), args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_filter() {
        let log = Logger::memory(Level::Info);
        log.debug(format_args!("hidden"));
        log.info(format_args!("shown {}", 1));
        log.error(format_args!("also shown"));
        let lines = log.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], (Level::Info, "shown 1".to_string()));
        assert_eq!(lines[1].0, Level::Error);
    }

    #[test]
    fn writer_sink_formats() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = Logger::writer(Level::Debug, Box::new(Shared(buf.clone())));
        log.warn(format_args!("watch out"));
        let s = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(s, "WARN watch out\n");
    }

    #[test]
    fn null_sink_collects_nothing() {
        let log = Logger::null();
        log.error(format_args!("gone"));
        assert!(log.lines().is_empty());
    }

    #[test]
    fn clone_shares_state() {
        let log = Logger::memory(Level::Debug);
        let log2 = log.clone();
        log2.info(format_args!("via clone"));
        assert_eq!(log.lines().len(), 1);
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }
}
