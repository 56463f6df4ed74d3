//! The delivery queue: every record the world has scheduled and not yet
//! handed out, popped in `(at_ns, push order)` order.
//!
//! A record is opaque bytes to the queue: the world stores what each host
//! answered there (`responder::Reply`'s record) and renders it at
//! delivery.
//!
//! A calendar queue (Brown, CACM 1988) of paged record logs:
//!
//! * **Buckets.** Bucket `b` holds the deliveries with `at_ns >> 22 == b`
//!   (about 4.2 ms each). A ring of 256 buckets covers about 1.07 s past
//!   `cur`, the earliest bucket that can still hold a record; deliveries
//!   beyond that horizon (blowback tails) wait in an overflow log of
//!   pages from the same pool, ordered by a heap of `Copy` entries, and
//!   are copied into the ring as `cur` advances: to the earliest due
//!   bucket on a pop, or up to the receiver's clock when nothing is due.
//!   An overflow page goes back to the pool once its last record has
//!   moved. A push into an empty queue restarts the ring at its own
//!   bucket.
//! * **Pages.** A bucket is an append-only log of records, each an
//!   `(at, endpoint, len)` header followed by the record bytes, kept in
//!   4 KiB pages from one free list. A drained bucket returns its pages,
//!   so a scan's queue costs the bytes in flight and no allocation per
//!   record once the pool has grown.
//! * **Order.** Within one bucket, append order is push order: overflow
//!   records move into a bucket, in `(at, push)` order, as soon as the
//!   bucket enters the horizon, before any ring push can reach it, and
//!   every later push appends after them. So the header needs no
//!   sequence number. Only bucket `cur` is indexed: its `(at, ordinal,
//!   page, off)` entries, numbered in append order, are collected into one
//!   reused `Vec` and sorted once. A push earlier than `cur` (a sender
//!   whose clock lags the one that drained) is clamped into `cur`, and a
//!   push into `cur` while it is indexed takes the next ordinal and is
//!   inserted at its sorted place. Every other record sits in a later
//!   bucket or past the horizon, so the indexed minimum is the global
//!   minimum and pops come out in exactly `(at_ns, push)` order — the
//!   order a binary heap of the same pushes gives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// log2 of a bucket's span in ns: 2^22 ns ≈ 4.19 ms.
const BUCKET_SHIFT: u32 = 22;
/// Buckets in the ring: 256 × 4.19 ms ≈ 1.07 s of virtual time.
const RING: u64 = 256;
/// Words of the ring's occupancy bitmap.
const WORDS: usize = RING as usize / 64;
/// Bytes per page; a record larger than a page gets a page of its own.
const PAGE: usize = 4096;
/// A record's header: `at` (8), `endpoint` (4), `len` (4).
const HEADER: usize = 16;

/// One record's pop key and where its bytes sit. `ord` is the record's
/// place in push order among the records it is compared with: its ordinal
/// in the indexed bucket, or its push count in the overflow heap. `(at,
/// ord)` is unique there, so the derived order is the pop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    ord: u64,
    page: u32,
    off: u32,
}

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.at, self.ord)
    }
}

/// Pages from one free list. A page is a `Vec<u8>` filled by appends; a
/// freed page keeps its bytes until it is handed out again, so a record
/// popped as its bucket drains stays readable until the next push.
#[derive(Default)]
struct Pages {
    pages: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl Pages {
    /// A cleared page, from the free list when it has one.
    ///
    /// # Panics
    /// Panics past 2^32 pages (16 TiB of queued frames).
    #[expect(clippy::expect_used)]
    fn take(&mut self) -> u32 {
        if let Some(p) = self.free.pop() {
            self.pages[p as usize].clear();
            return p;
        }
        self.pages.push(Vec::with_capacity(PAGE));
        u32::try_from(self.pages.len() - 1).expect("fewer than 2^32 pages")
    }

    fn give(&mut self, page: u32) {
        self.free.push(page);
    }

    /// Appends a record to `tail` if it fits there, else to a fresh page;
    /// returns the page used and the record's offset in it.
    ///
    /// # Panics
    /// Panics on a record of 4 GiB or more, whose length the header
    /// cannot hold.
    #[expect(clippy::expect_used)]
    fn append(&mut self, tail: Option<u32>, at: u64, endpoint: u32, record: &[u8]) -> (u32, u32) {
        let page = match tail {
            Some(p) if self.pages[p as usize].len() + HEADER + record.len() <= PAGE => p,
            _ => self.take(),
        };
        let buf = &mut self.pages[page as usize];
        let off = u32::try_from(buf.len()).expect("a page holds under 4 GiB");
        let len = u32::try_from(record.len()).expect("a record is under 4 GiB");
        buf.extend_from_slice(&at.to_le_bytes());
        buf.extend_from_slice(&endpoint.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(record);
        (page, off)
    }

    /// `(at, endpoint, record range)` of the record at `off` in `page`.
    fn header(&self, page: u32, off: u32) -> (u64, u32, Range<usize>) {
        header_at(&self.pages[page as usize], off)
    }

    /// The endpoint and bytes of the record at `off` in `page`.
    fn record(&self, page: u32, off: u32) -> (u32, &[u8]) {
        let (_, endpoint, record) = self.header(page, off);
        (endpoint, &self.pages[page as usize][record])
    }
}

/// `(at, endpoint, record range)` of the record at `off` in the page bytes
/// `page`.
fn header_at(page: &[u8], off: u32) -> (u64, u32, Range<usize>) {
    let h = &page[off as usize..off as usize + HEADER];
    let u64_at = |i: usize| u64::from_le_bytes(std::array::from_fn(|k| h[i + k]));
    let u32_at = |i: usize| u32::from_le_bytes(std::array::from_fn(|k| h[i + k]));
    let start = off as usize + HEADER;
    (u64_at(0), u32_at(8), start..start + u32_at(12) as usize)
}

/// One bucket's log: its pages in append order and its earliest `at`.
struct Bucket {
    pages: Vec<u32>,
    min_at: u64,
}

/// The ring of [`RING`] buckets; bucket `b` lives in slot `b % RING`.
struct Ring {
    buckets: Vec<Bucket>,
    /// Bit `s` set ⇔ slot `s` holds records.
    occupied: [u64; WORDS],
}

impl Ring {
    fn new() -> Self {
        Ring {
            buckets: (0..RING)
                .map(|_| Bucket {
                    pages: Vec::new(),
                    min_at: u64::MAX,
                })
                .collect(),
            occupied: [0; WORDS],
        }
    }

    fn slot(b: u64) -> usize {
        (b % RING) as usize
    }

    fn is_empty(&self) -> bool {
        self.occupied == [0; WORDS]
    }

    fn append(&mut self, pages: &mut Pages, b: u64, at: u64, endpoint: u32, record: &[u8]) -> (u32, u32) {
        let slot = Self::slot(b);
        let bucket = &mut self.buckets[slot];
        let tail = bucket.pages.last().copied();
        let (page, off) = pages.append(tail, at, endpoint, record);
        if tail != Some(page) {
            bucket.pages.push(page);
        }
        bucket.min_at = bucket.min_at.min(at);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        (page, off)
    }

    /// The first bucket at or after `cur` that holds records.
    fn first_from(&self, cur: u64) -> Option<u64> {
        let start = Self::slot(cur);
        let (w0, bit0) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= u64::MAX << bit0;
            } else if k == WORDS {
                bits &= !(u64::MAX << bit0);
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (slot + RING as usize - start) % RING as usize;
                return Some(cur + ahead as u64);
            }
        }
        None
    }

    fn release(&mut self, pages: &mut Pages, b: u64) {
        let slot = Self::slot(b);
        let bucket = &mut self.buckets[slot];
        for p in bucket.pages.drain(..) {
            pages.give(p);
        }
        bucket.min_at = u64::MAX;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }
}

/// The deliveries past the ring's horizon: records appended to their own
/// pages, popped in `(at, push)` order.
#[derive(Default)]
struct Overflow {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Records pushed here so far: each heap entry's `ord`.
    pushes: u64,
    /// The page new records are appended to.
    tail: Option<u32>,
    /// Records not yet moved into the ring, per page index (0 for pages
    /// that hold none).
    live: Vec<u32>,
}

impl Overflow {
    fn push(&mut self, pages: &mut Pages, at: u64, endpoint: u32, record: &[u8]) {
        let (page, off) = pages.append(self.tail, at, endpoint, record);
        self.tail = Some(page);
        if self.live.len() <= page as usize {
            self.live.resize(pages.pages.len(), 0);
        }
        self.live[page as usize] += 1;
        self.pushes += 1;
        self.heap.push(Reverse(Entry { at, ord: self.pushes, page, off }));
    }

    /// Marks the record on `page` moved; the page goes back to the pool
    /// with its last record.
    fn moved(&mut self, pages: &mut Pages, page: u32) {
        let live = &mut self.live[page as usize];
        *live -= 1;
        if *live == 0 {
            pages.give(page);
            if self.tail == Some(page) {
                self.tail = None;
            }
        }
    }
}

/// The world's pending deliveries (see the module docs).
pub(crate) struct DeliveryQueue {
    pages: Pages,
    ring: Ring,
    /// Every ring record's bucket lies in `[cur, cur + RING)`; every
    /// overflow record's at or past `cur + RING`.
    cur: u64,
    /// Bucket `cur`'s entries, sorted by descending `(at, ord)`; non-empty
    /// exactly while `cur` is indexed.
    index: Vec<Entry>,
    /// The ordinal the next record indexed in bucket `cur` takes.
    next_ord: u64,
    far: Overflow,
}

impl DeliveryQueue {
    pub(crate) fn new() -> Self {
        DeliveryQueue {
            pages: Pages::default(),
            ring: Ring::new(),
            cur: 0,
            index: Vec::new(),
            next_ord: 0,
            far: Overflow::default(),
        }
    }

    /// Schedules a copy of `record` for `endpoint` at `at`, behind every
    /// earlier push with the same `at`.
    ///
    /// # Panics
    /// Panics on an endpoint index or a record length past 32 bits.
    #[expect(clippy::expect_used)]
    pub(crate) fn push(&mut self, at: u64, endpoint: usize, record: &[u8]) {
        let endpoint = u32::try_from(endpoint).expect("fewer than 2^32 endpoints");
        let b = (at >> BUCKET_SHIFT).max(self.cur);
        if b - self.cur >= RING {
            if !(self.far.heap.is_empty() && self.ring.is_empty()) {
                self.far.push(&mut self.pages, at, endpoint, record);
                return;
            }
            // Nothing pending: the ring restarts at this push, however
            // long the queue sat idle.
            self.cur = b;
        }
        let (page, off) = self.ring.append(&mut self.pages, b, at, endpoint, record);
        if b == self.cur && !self.index.is_empty() {
            let e = Entry { at, ord: self.next_ord, page, off };
            self.next_ord += 1;
            let pos = self.index.partition_point(|x| x.key() > e.key());
            self.index.insert(pos, e);
        }
    }

    /// When the earliest pending delivery is due.
    pub(crate) fn next_at(&self) -> Option<u64> {
        if let Some(e) = self.index.last() {
            return Some(e.at);
        }
        match self.ring.first_from(self.cur) {
            Some(b) => Some(self.ring.buckets[Ring::slot(b)].min_at),
            None => self.far.heap.peek().map(|Reverse(e)| e.at),
        }
    }

    /// Pops the earliest delivery if it is due by `now`: its time,
    /// endpoint and record.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, usize, &[u8])> {
        if self.index.is_empty() && !self.advance(now) {
            return None;
        }
        let e = *self.index.last().filter(|e| e.at <= now)?;
        self.index.pop();
        if self.index.is_empty() {
            self.ring.release(&mut self.pages, self.cur);
        }
        let (endpoint, record) = self.pages.record(e.page, e.off);
        Some((e.at, endpoint as usize, record))
    }

    /// With nothing indexed: moves `cur` to the earliest bucket holding a
    /// record due by `now` and indexes it, numbering its records in append
    /// order. When a record is pending but
    /// not due, `cur` still moves up to `now`'s bucket (never past the
    /// record), so pushes after an idle gap land in the ring rather than
    /// past its horizon; the result is then false. (An empty queue needs
    /// no move: its next push restarts the ring.)
    fn advance(&mut self, now: u64) -> bool {
        let earliest = match self.ring.first_from(self.cur) {
            Some(b) => Some((b, self.ring.buckets[Ring::slot(b)].min_at)),
            None => self.far.heap.peek().map(|Reverse(e)| (e.at >> BUCKET_SHIFT, e.at)),
        };
        let (b, due) = match earliest {
            Some((b, at)) if at <= now => (b, true),
            Some((b, _)) => ((now >> BUCKET_SHIFT).min(b), false),
            None => return false,
        };
        if b > self.cur {
            self.cur = b;
            self.migrate();
        }
        if !due {
            return false;
        }
        let slot = Ring::slot(b);
        let mut ord = 0;
        for &page in &self.ring.buckets[slot].pages {
            let filled = self.pages.pages[page as usize].len();
            let mut off = 0u32;
            while (off as usize) < filled {
                let (at, _, record) = self.pages.header(page, off);
                self.index.push(Entry { at, ord, page, off });
                ord += 1;
                off = record.end as u32;
            }
        }
        self.next_ord = ord;
        self.index.sort_unstable_by_key(|e| Reverse(e.key()));
        true
    }

    /// Bytes held in the pages in use: every queued record's header and
    /// bytes, plus any records an overflow page holds that have already
    /// moved into the ring.
    #[cfg(test)]
    pub(crate) fn bytes_held(&self) -> usize {
        let free: std::collections::HashSet<u32> = self.pages.free.iter().copied().collect();
        (0..self.pages.pages.len())
            .filter(|&p| !free.contains(&(p as u32)))
            .map(|p| self.pages.pages[p].len())
            .sum()
    }

    /// Copies every overflow record now inside the horizon into its bucket.
    fn migrate(&mut self) {
        while let Some(&Reverse(e)) = self.far.heap.peek() {
            let b = e.at >> BUCKET_SHIFT;
            if b >= self.cur + RING {
                break;
            }
            self.far.heap.pop();
            // The record's page is out of the pool's hands while its bytes
            // are appended to a ring page (never the same page: an overflow
            // page holds overflow records only), then put back unchanged.
            let src = std::mem::take(&mut self.pages.pages[e.page as usize]);
            let (_, endpoint, record) = header_at(&src, e.off);
            self.ring.append(&mut self.pages, b, e.at, endpoint, &src[record]);
            self.pages.pages[e.page as usize] = src;
            self.far.moved(&mut self.pages, e.page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Frame bytes that name their push: the sequence number, then a
    /// length drawn from `r` (a few are larger than a page).
    fn frame(seq: u64, r: u64) -> Vec<u8> {
        let len = if r.is_multiple_of(97) {
            PAGE + 900
        } else {
            8 + (r % 120) as usize
        };
        let mut f = seq.to_le_bytes().to_vec();
        f.resize(len, (seq % 251) as u8);
        f
    }

    /// The reference: a binary heap of `(at, seq, endpoint, frame)`.
    type Model = BinaryHeap<Reverse<(u64, u64, usize, Vec<u8>)>>;

    /// Pops everything due by `now` from both sides, comparing each pop.
    fn drain(q: &mut DeliveryQueue, model: &mut Model, now: u64) {
        loop {
            let want = match model.peek() {
                Some(Reverse(top)) if top.0 <= now => model.pop().map(|Reverse(t)| t),
                _ => None,
            };
            let got = q.pop_due(now).map(|(at, ep, f)| (at, ep, f.to_vec()));
            match (want, got) {
                (None, None) => return,
                (Some((at, _, ep, f)), Some(g)) => assert_eq!((at, ep, f), g, "pop by {now}"),
                (w, g) => panic!("pop by {now}: model {w:?}, queue {g:?}"),
            }
        }
    }

    proptest! {
        /// The queue against a binary heap of the same pushes, keyed
        /// `(at, seq)`: the same pops and the same `next_at` after every
        /// operation, across ties on `at`, pushes earlier than the
        /// current bucket, pushes into the bucket being drained, pushes
        /// past the horizon, and idle gaps longer than the ring.
        #[test]
        fn pops_match_a_binary_heap(ops in prop::collection::vec((0u8..12, any::<u64>()), 1..400)) {
            let mut q = DeliveryQueue::new();
            let mut model = BinaryHeap::new();
            let (mut now, mut seq, mut last_at) = (0u64, 0u64, 0u64);
            let horizon = RING << BUCKET_SHIFT;
            for (op, r) in ops {
                match op {
                    0..=7 => {
                        let at = match op {
                            // Into the bucket being drained (or the next).
                            0 | 1 => now + r % (1 << BUCKET_SHIFT),
                            // Earlier than the current bucket.
                            2 => now.saturating_sub(r % (40 << BUCKET_SHIFT)),
                            // A tie with the previous push.
                            3 => last_at,
                            // Anywhere inside the ring.
                            4 | 5 => now + r % horizon,
                            // Past the horizon.
                            _ => now + horizon + r % (8 * horizon),
                        };
                        seq += 1;
                        last_at = at;
                        let (ep, f) = ((r >> 40) as usize % 3, frame(seq, r >> 8));
                        q.push(at, ep, &f);
                        model.push(Reverse((at, seq, ep, f)));
                    }
                    8..=10 => {
                        // Advance the clock a little and drain.
                        now += r % (3 << BUCKET_SHIFT);
                        drain(&mut q, &mut model, now);
                    }
                    _ => {
                        // An idle gap longer than the ring.
                        now += horizon + r % (4 * horizon);
                        drain(&mut q, &mut model, now);
                    }
                }
                prop_assert_eq!(q.next_at(), model.peek().map(|Reverse(t)| t.0));
            }
            drain(&mut q, &mut model, u64::MAX);
            prop_assert_eq!(q.next_at(), None);
        }
    }

    #[test]
    fn drained_buckets_return_their_pages() {
        let mut q = DeliveryQueue::new();
        for round in 0..50u64 {
            let base = round << 30;
            for i in 0..2_000u64 {
                q.push(base + i * 1_000, 0, &[7; 60]);
            }
            // A tail past the horizon rides along in every round.
            q.push(base + (RING << BUCKET_SHIFT) * 3, 1, &[9; 60]);
            while q.pop_due(base + (1 << 29)).is_some() {}
        }
        // Each round holds ~120 kB of records; the pool stays near that
        // instead of growing with the rounds.
        assert!(q.pages.pages.len() < 120, "{} pages", q.pages.pages.len());
        while q.pop_due(u64::MAX).is_some() {}
        assert_eq!(q.pages.free.len(), q.pages.pages.len(), "every page is free");
    }
}
