//! The paged 2^32-bit bitmap ZMap used for single-port deduplication.
//!
//! Pages are allocated lazily: a scan that hears from 60M hosts touches
//! only the pages covering responsive space, so real memory use is far
//! below the worst-case 512 MB. Exact (no false positives or negatives)
//! but fundamentally capped at 32-bit keys.

use crate::Deduplicator;

/// Bits per page: 2^16 bits = 8 KiB per page, 2^16 pages max.
const PAGE_BITS: u64 = 1 << 16;
const PAGE_WORDS: usize = (PAGE_BITS / 64) as usize;

/// Lazily paged bitmap over the 32-bit key space.
pub struct PagedBitmap {
    pages: Vec<Option<Box<[u64; PAGE_WORDS]>>>,
    set_count: u64,
}

impl PagedBitmap {
    /// An empty bitmap (no pages allocated).
    pub fn new() -> Self {
        let mut pages = Vec::new();
        pages.resize_with(((1u64 << 32) / PAGE_BITS) as usize, || None);
        PagedBitmap {
            pages,
            set_count: 0,
        }
    }

    /// Whether `key` is set.
    pub fn contains(&self, key: u32) -> bool {
        let (p, w, b) = Self::locate(key);
        match &self.pages[p] {
            Some(page) => page[w] & (1 << b) != 0,
            None => false,
        }
    }

    /// Sets `key`; returns `true` if it was previously unset.
    pub fn insert(&mut self, key: u32) -> bool {
        let (p, w, b) = Self::locate(key);
        let page = self.pages[p].get_or_insert_with(new_page);
        let fresh = page[w] & (1 << b) == 0;
        page[w] |= 1 << b;
        self.set_count += u64::from(fresh);
        fresh
    }

    /// Number of set bits.
    pub fn len(&self) -> u64 {
        self.set_count
    }

    /// True if nothing is set.
    pub fn is_empty(&self) -> bool {
        self.set_count == 0
    }

    /// Number of allocated pages.
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn locate(key: u32) -> (usize, usize, u32) {
        let page = (u64::from(key) / PAGE_BITS) as usize;
        let bit_in_page = u64::from(key) % PAGE_BITS;
        ((page), (bit_in_page / 64) as usize, (bit_in_page % 64) as u32)
    }
}

/// A zeroed page: allocated once per 2^16 keys the first time one of
/// them is set, so its cost is amortised over the keys that fill it.
#[cold]
fn new_page() -> Box<[u64; PAGE_WORDS]> {
    Box::new([0u64; PAGE_WORDS])
}

impl Default for PagedBitmap {
    fn default() -> Self {
        Self::new()
    }
}

impl Deduplicator for PagedBitmap {
    /// # Panics
    /// Panics when `key` exceeds 32 bits. Truncating here would silently
    /// alias distinct (IP, port) composites onto the same bit — dropped
    /// results in release builds, where a `debug_assert` never fires —
    /// so an out-of-range key is a hard caller error: select a window
    /// deduplicator for composite keys instead.
    fn observe(&mut self, key: u64) -> bool {
        assert!(
            key <= u64::from(u32::MAX),
            "PagedBitmap keys are 32-bit (got {key:#x}); use window dedup for composite keys"
        );
        self.insert(key as u32)
    }

    fn memory_bytes(&self) -> u64 {
        (self.allocated_pages() as u64) * (PAGE_BITS / 8)
            + (self.pages.len() as u64) * std::mem::size_of::<Option<Box<[u64; PAGE_WORDS]>>>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_with_no_pages() {
        let b = PagedBitmap::new();
        assert!(b.is_empty());
        assert_eq!(b.allocated_pages(), 0);
        assert!(!b.contains(0));
        assert!(!b.contains(u32::MAX));
    }

    #[test]
    fn insert_is_exact() {
        let mut b = PagedBitmap::new();
        assert!(b.insert(42));
        assert!(!b.insert(42), "second insert is a duplicate");
        assert!(b.contains(42));
        assert!(!b.contains(43));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn keys_at_page_boundaries() {
        let mut b = PagedBitmap::new();
        for key in [0u32, 65535, 65536, 131071, u32::MAX - 1, u32::MAX] {
            assert!(b.insert(key), "{key}");
            assert!(b.contains(key), "{key}");
        }
        assert_eq!(b.len(), 6);
        // 0/65535 share a page; 65536/131071 share the next.
        assert_eq!(b.allocated_pages(), 3);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut b = PagedBitmap::new();
        b.insert(0);
        assert_eq!(b.allocated_pages(), 1);
        b.insert(1); // same page
        assert_eq!(b.allocated_pages(), 1);
        b.insert(1 << 20); // different page
        assert_eq!(b.allocated_pages(), 2);
    }

    #[test]
    fn dense_page_roundtrip() {
        let mut b = PagedBitmap::new();
        for k in 0..65536u32 {
            assert!(b.insert(k));
        }
        for k in 0..65536u32 {
            assert!(b.contains(k));
            assert!(!b.insert(k));
        }
        assert_eq!(b.len(), 65536);
        assert_eq!(b.allocated_pages(), 1);
    }

    #[test]
    fn memory_accounting_scales_with_pages() {
        let mut b = PagedBitmap::new();
        let base = b.memory_bytes();
        b.insert(0);
        let one = b.memory_bytes();
        assert_eq!(one - base, 8192, "one 8 KiB page");
    }

    #[test]
    fn deduplicator_trait() {
        let mut b = PagedBitmap::new();
        assert!(Deduplicator::observe(&mut b, 777));
        assert!(!Deduplicator::observe(&mut b, 777));
    }

    #[test]
    #[should_panic(expected = "PagedBitmap keys are 32-bit")]
    fn observe_rejects_64_bit_keys_instead_of_truncating() {
        let mut b = PagedBitmap::new();
        // Would alias onto key 1 if truncated: (1, port 1) composites.
        Deduplicator::observe(&mut b, (1u64 << 32) | 1);
    }
}
