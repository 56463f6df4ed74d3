//! Fixture: acquires the same two locks in the opposite order from
//! transport.rs — the classic ABBA deadlock shape.

pub fn reversed(tx: &Tx) {
    let _stats = tx.stats.lock().unwrap_or_else(|p| p.into_inner());
    let _log = tx.log.lock().unwrap_or_else(|p| p.into_inner());
}
