//! The subentry buffer: per-miss metadata in linked rows.
//!
//! Every pending miss stores a *subentry* — the request ID and the word
//! offset within the line — in a row belonging to its MSHR. Rows hold a
//! fixed number of slots; in MOMS mode a full row links to a freshly
//! allocated row (costing one pipeline cycle), while in traditional mode a
//! full row stalls the input until the miss drains.

/// One pending miss: request ID plus the 32-bit-word offset within the
/// cache line (0..16 for 64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subentry {
    /// Issuer-chosen identifier (thread id / destination offset).
    pub id: u32,
    /// Word offset of the requested value within the line.
    pub word: u8,
}

/// Sentinel row index meaning "no next row".
pub const NO_ROW: u32 = u32::MAX;

/// A pool of subentry rows with a free list, as stored in URAM (§V-B).
///
/// Like the URAM it models, the pool is a few dense arrays: every row's
/// slots in one contiguous slot array, plus per-row fill lengths and
/// next-row links. Building a buffer costs a constant number of
/// allocations however many rows it holds.
///
/// # Example
///
/// ```
/// use moms::subentry::{Subentry, SubentryBuffer};
///
/// let mut buf = SubentryBuffer::new(16, 4, true);
/// let head = buf.alloc_row().unwrap();
/// let mut tail = head;
/// for i in 0..6 {
///     tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
/// }
/// let drained = buf.take_chain(head);
/// assert_eq!(drained.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct SubentryBuffer {
    /// Row `r` owns `slots[r * slots_per_row..][..slots_per_row]`.
    slots: Vec<Subentry>,
    /// Filled slots per row.
    lens: Vec<u32>,
    /// Next row of each row's chain, or [`NO_ROW`].
    next: Vec<u32>,
    free: Vec<u32>,
    slots_per_row: usize,
    used_entries: usize,
    peak_entries: usize,
    chain_rows: bool,
}

/// Error returned when the buffer has no free row or (in traditional mode)
/// the row is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubentryFull;

impl std::fmt::Display for SubentryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subentry buffer full")
    }
}

impl std::error::Error for SubentryFull {}

impl SubentryBuffer {
    /// Creates a buffer holding `total_entries` subentries in rows of
    /// `slots_per_row`; `chain_rows` selects MOMS (true) or traditional
    /// (false) overflow behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_row` is zero or exceeds `total_entries`.
    pub fn new(total_entries: usize, slots_per_row: usize, chain_rows: bool) -> Self {
        assert!(slots_per_row > 0, "rows must hold at least one entry");
        assert!(total_entries >= slots_per_row, "buffer smaller than a row");
        let num_rows = total_entries / slots_per_row;
        SubentryBuffer {
            slots: vec![Subentry { id: 0, word: 0 }; num_rows * slots_per_row],
            lens: vec![0; num_rows],
            next: vec![NO_ROW; num_rows],
            free: (0..num_rows as u32).rev().collect(),
            slots_per_row,
            used_entries: 0,
            peak_entries: 0,
            chain_rows,
        }
    }

    /// The filled slots of row `r`.
    fn row(&self, r: u32) -> &[Subentry] {
        let start = r as usize * self.slots_per_row;
        &self.slots[start..start + self.lens[r as usize] as usize]
    }

    /// Stores `e` in the next free slot of row `r`, which has room.
    fn push(&mut self, r: u32, e: Subentry) {
        let len = &mut self.lens[r as usize];
        self.slots[r as usize * self.slots_per_row + *len as usize] = e;
        *len += 1;
        self.used_entries += 1;
        self.peak_entries = self.peak_entries.max(self.used_entries);
    }

    /// Empties row `r`, unlinks it, returns it to the free list, and
    /// yields its former successor.
    fn free_row(&mut self, r: u32) -> u32 {
        self.used_entries -= self.lens[r as usize] as usize;
        self.lens[r as usize] = 0;
        let next = std::mem::replace(&mut self.next[r as usize], NO_ROW);
        self.free.push(r);
        next
    }

    /// Number of rows not currently allocated.
    pub fn free_rows(&self) -> usize {
        self.free.len()
    }

    /// Live subentries across all rows.
    pub fn used_entries(&self) -> usize {
        self.used_entries
    }

    /// Highest number of simultaneously live subentries observed.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Allocates an empty row, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`SubentryFull`] when no row is free.
    pub fn alloc_row(&mut self) -> Result<u32, SubentryFull> {
        let idx = self.free.pop().ok_or(SubentryFull)?;
        debug_assert_eq!(self.lens[idx as usize], 0);
        self.next[idx as usize] = NO_ROW;
        Ok(idx)
    }

    /// Appends `e` to the chain whose *tail* row is `tail`, returning the
    /// (possibly new) tail row index.
    ///
    /// # Errors
    ///
    /// Returns [`SubentryFull`] when the tail row is full and either
    /// chaining is disabled or no free row remains. The buffer is
    /// unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is not a valid allocated row.
    pub fn append(&mut self, tail: u32, e: Subentry) -> Result<u32, SubentryFull> {
        if (self.lens[tail as usize] as usize) < self.slots_per_row {
            self.push(tail, e);
            return Ok(tail);
        }
        if !self.chain_rows {
            return Err(SubentryFull);
        }
        let new_tail = self.alloc_row()?;
        self.next[tail as usize] = new_tail;
        self.push(new_tail, e);
        Ok(new_tail)
    }

    /// Returns a row allocated with [`alloc_row`](Self::alloc_row) that was
    /// never written (used when a failed MSHR insertion abandons its row).
    ///
    /// # Panics
    ///
    /// Panics if the row holds entries.
    pub fn release_empty_row(&mut self, row: u32) {
        assert_eq!(self.lens[row as usize], 0, "row {row} is not empty");
        self.free_row(row);
    }

    /// Drains the whole chain starting at `head`, freeing its rows and
    /// returning the subentries in append order.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a valid allocated row.
    pub fn take_chain(&mut self, head: u32) -> Vec<Subentry> {
        let mut out = Vec::new();
        let mut cur = head;
        while cur != NO_ROW {
            out.extend_from_slice(self.row(cur));
            cur = self.free_row(cur);
        }
        out
    }

    /// Like [`take_chain`](Self::take_chain), but appends each subentry
    /// tagged with `line` into a caller-owned queue instead of allocating
    /// a fresh `Vec` — the bank's replay path reuses one queue across the
    /// whole run. Rows free and the live-entry count drops immediately,
    /// exactly as with `take_chain`. Returns the number of drained
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a valid allocated row.
    pub fn drain_chain_into(
        &mut self,
        head: u32,
        line: u64,
        out: &mut std::collections::VecDeque<(u64, Subentry)>,
    ) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            let row = self.row(cur);
            n += row.len();
            out.extend(row.iter().map(|&e| (line, e)));
            cur = self.free_row(cur);
        }
        n
    }

    /// Number of subentries in the chain starting at `head` (O(rows)).
    pub fn chain_len(&self, head: u32) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            n += self.lens[cur as usize] as usize;
            cur = self.next[cur as usize];
        }
        n
    }

    /// Number of rows in the chain starting at `head` (O(rows)).
    pub fn chain_row_count(&self, head: u32) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            n += 1;
            cur = self.next[cur as usize];
        }
        n
    }

    /// Total rows in the pool (free plus allocated).
    pub fn total_rows(&self) -> usize {
        self.lens.len()
    }

    /// Verifies structural consistency: the live-entry counter matches the
    /// per-row sums, the free list holds only empty, distinct rows, and no
    /// free row links anywhere.
    ///
    /// # Panics
    ///
    /// Panics on any violation; used by the `invariants` feature.
    pub fn check_consistency(&self) {
        let total: usize = self.lens.iter().map(|&l| l as usize).sum();
        assert_eq!(
            total, self.used_entries,
            "subentry used_entries counter drifted from per-row sums"
        );
        let mut seen = vec![false; self.total_rows()];
        for &idx in &self.free {
            assert!(
                !std::mem::replace(&mut seen[idx as usize], true),
                "row {idx} on the free list twice"
            );
            assert_eq!(self.lens[idx as usize], 0, "free row {idx} holds entries");
            assert_eq!(
                self.next[idx as usize], NO_ROW,
                "free row {idx} links to another row"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_drain_preserves_order() {
        let mut buf = SubentryBuffer::new(64, 4, true);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..10u32 {
            tail = buf
                .append(
                    tail,
                    Subentry {
                        id: i,
                        word: (i % 16) as u8,
                    },
                )
                .unwrap();
        }
        assert_eq!(buf.used_entries(), 10);
        assert_eq!(buf.chain_len(head), 10);
        let drained = buf.take_chain(head);
        assert_eq!(
            drained.iter().map(|s| s.id).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(buf.used_entries(), 0);
        // All rows returned to the free list.
        assert_eq!(buf.free_rows(), 16);
    }

    #[test]
    fn chaining_allocates_rows() {
        let mut buf = SubentryBuffer::new(12, 4, true);
        let head = buf.alloc_row().unwrap();
        assert_eq!(buf.free_rows(), 2);
        let mut tail = head;
        for i in 0..5u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_ne!(tail, head, "fifth entry should land in a chained row");
        assert_eq!(buf.free_rows(), 1);
    }

    #[test]
    fn traditional_mode_rejects_overflow() {
        let mut buf = SubentryBuffer::new(16, 8, false);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..8u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_eq!(tail, head);
        assert_eq!(
            buf.append(tail, Subentry { id: 9, word: 0 }),
            Err(SubentryFull)
        );
        // Drain then reuse.
        assert_eq!(buf.take_chain(head).len(), 8);
    }

    #[test]
    fn exhaustion_reports_full() {
        let mut buf = SubentryBuffer::new(8, 4, true);
        let a = buf.alloc_row().unwrap();
        let _b = buf.alloc_row().unwrap();
        assert_eq!(buf.alloc_row(), Err(SubentryFull));
        // Fill row a, then overflow must fail (no free rows to chain).
        let mut tail = a;
        for i in 0..4u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_eq!(
            buf.append(tail, Subentry { id: 4, word: 0 }),
            Err(SubentryFull)
        );
    }

    #[test]
    fn peak_tracking() {
        let mut buf = SubentryBuffer::new(32, 4, true);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..7u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        buf.take_chain(head);
        assert_eq!(buf.used_entries(), 0);
        assert_eq!(buf.peak_entries(), 7);
    }

    /// Builds a chain of `n` entries with ids `base..base + n`.
    fn chain(buf: &mut SubentryBuffer, base: u32, n: u32) -> u32 {
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..n {
            let e = Subentry {
                id: base + i,
                word: i as u8,
            };
            tail = buf.append(tail, e).unwrap();
        }
        head
    }

    /// The rows of the chain starting at `head`, in link order.
    fn chain_rows(buf: &SubentryBuffer, head: u32) -> Vec<u32> {
        let mut rows = vec![head];
        while let Some(&r) = rows.last() {
            match buf.next[r as usize] {
                NO_ROW => break,
                n => rows.push(n),
            }
        }
        rows
    }

    #[test]
    fn drained_rows_are_reused_lifo_and_clean() {
        // Two three-row chains drained through both paths: every freed
        // row comes back empty and unlinked, the free list holds no
        // duplicates, and allocation pops the most recently freed row.
        let mut buf = SubentryBuffer::new(32, 2, true);
        let a = chain(&mut buf, 0, 6);
        let b = chain(&mut buf, 100, 6);
        let a_rows = chain_rows(&buf, a);
        assert_eq!(a_rows.len(), 3);
        buf.check_consistency();
        assert_eq!(buf.free_rows(), 10);

        let mut q = std::collections::VecDeque::new();
        assert_eq!(buf.drain_chain_into(b, 7, &mut q), 6);
        assert_eq!(
            q.iter().map(|&(l, e)| (l, e.id)).collect::<Vec<_>>(),
            (100..106).map(|id| (7, id)).collect::<Vec<_>>()
        );
        assert_eq!(buf.take_chain(a).len(), 6);
        buf.check_consistency();
        assert_eq!(buf.used_entries(), 0);
        assert_eq!(buf.free_rows(), 16);

        // Chain `a` was freed last, its tail row last of all.
        for &r in a_rows.iter().rev() {
            let got = buf.alloc_row().unwrap();
            assert_eq!(got, r);
            assert!(buf.row(got).is_empty());
            assert_eq!(buf.chain_row_count(got), 1, "reused row must be unlinked");
        }
        // A reused row holds a full row of entries again.
        let head = buf.alloc_row().unwrap();
        let tail = buf.append(head, Subentry { id: 1, word: 1 }).unwrap();
        let tail = buf.append(tail, Subentry { id: 2, word: 2 }).unwrap();
        assert_eq!(tail, head);
        buf.check_consistency();
    }

    #[test]
    #[should_panic(expected = "not empty")]
    fn releasing_a_written_row_panics() {
        let mut buf = SubentryBuffer::new(8, 4, true);
        let r = buf.alloc_row().unwrap();
        buf.append(r, Subentry { id: 0, word: 0 }).unwrap();
        buf.release_empty_row(r);
    }
}
