//! The per-bank MOMS pipeline.
//!
//! One request or response event is processed per cycle, as in the RTL:
//!
//! * **Request** → optional cache probe → on hit respond; on miss MSHR
//!   lookup → *secondary* miss appends a subentry (chaining a new row costs
//!   a cycle), *primary* miss allocates an MSHR via cuckoo insertion (each
//!   kick costs a cycle) and emits a line request to memory.
//! * **Response** → cache fill (if an array exists) → MSHR removal → the
//!   subentry chain replays one entry per cycle into the output queue.
//!
//! Responses have priority over requests (replays free MSHRs and
//! subentries, so draining them first avoids deadlock); requests and
//! replays share the single pipeline, which is the contention §V-E
//! discusses. All structural stalls (full output queue, full memory queue,
//! subentry exhaustion, failed cuckoo insertion) leave the input intact
//! and are counted.

use std::collections::VecDeque;

use simkit::trace::{EventKind, TraceEvent, Tracer};
use simkit::{Cycle, Fifo, Stats};

use crate::cache::CacheArray;
use crate::config::MomsConfig;
use crate::cuckoo::{CuckooMshr, InsertOutcome, MshrEntry};
use crate::subentry::{Subentry, SubentryBuffer, SubentryFull};

/// A read request for one 32-bit word: global line address, word offset
/// within the line, and an opaque ID returned with the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomsReq {
    /// Global cache-line address (byte address / 64).
    pub line: u64,
    /// 32-bit-word offset within the line (0..16).
    pub word: u8,
    /// Opaque identifier (thread id / destination offset / PE index).
    pub id: u32,
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomsResp {
    /// Line address the data belongs to.
    pub line: u64,
    /// Word offset copied from the request.
    pub word: u8,
    /// Identifier copied from the request.
    pub id: u32,
}

/// Point-in-time view of a bank's occupancy and cache statistics, returned
/// by [`MomsBank::snapshot`].
///
/// A plain value type: cheap to copy, comparable, and safe to hold across
/// further simulation (it does not borrow the bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MomsBankSnapshot {
    /// Outstanding misses right now (live MSHR entries).
    pub mshr_occupancy: usize,
    /// Peak simultaneous live MSHR entries (outstanding lines).
    pub peak_mshr_occupancy: usize,
    /// Peak simultaneous pending misses (live subentries) — the
    /// "thousands of simultaneous misses" headline metric.
    pub peak_pending_misses: usize,
    /// Cache probe hits (0 when cache-less).
    pub cache_hits: u64,
    /// Cache probe misses (0 when cache-less).
    pub cache_misses: u64,
    /// Requests refused because the cuckoo MSHR table was full.
    pub stall_mshr_full: u64,
    /// Requests refused because the subentry buffer was full.
    pub stall_subentry_full: u64,
    /// Requests refused because the memory request queue was full.
    pub stall_mem_full: u64,
}

impl MomsBankSnapshot {
    /// Hit fraction of cache probes; 0 when no probes were made.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Element-wise accumulation, for aggregating across banks: counters
    /// and peaks sum (per-bank structures are disjoint), as does current
    /// occupancy.
    pub fn accumulate(&mut self, other: &MomsBankSnapshot) {
        self.mshr_occupancy += other.mshr_occupancy;
        self.peak_mshr_occupancy += other.peak_mshr_occupancy;
        self.peak_pending_misses += other.peak_pending_misses;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stall_mshr_full += other.stall_mshr_full;
        self.stall_subentry_full += other.stall_subentry_full;
        self.stall_mem_full += other.stall_mem_full;
    }
}

/// One in-flight burst-assembly window (DynaBurst extension).
#[derive(Debug, Clone, Copy)]
struct AsmWindow {
    /// First line of the naturally aligned window.
    base: u64,
    /// Bitmap of requested lines within the window.
    mask: u32,
    /// Cycle at which the window dispatches even if not full.
    deadline: Cycle,
}

/// One MOMS (or traditional nonblocking cache) bank.
///
/// See the crate-level example for the drive loop.
#[derive(Debug, Clone)]
pub struct MomsBank {
    cfg: MomsConfig,
    cache: Option<CacheArray>,
    in_q: Fifo<MomsReq>,
    out_q: Fifo<MomsResp>,
    mem_req_q: Fifo<(u64, u32)>,
    mem_resp_q: Fifo<(u64, u32)>,
    mshr: CuckooMshr,
    subs: SubentryBuffer,
    /// Pending replays, one `(line, subentry)` pair per response to emit;
    /// a single persistent queue shared by all in-flight replays so
    /// completing a miss never allocates.
    replay: VecDeque<(u64, Subentry)>,
    assembly: VecDeque<AsmWindow>,
    busy_until: Cycle,
    stats: Stats,
    counters: BankCounters,
    tracer: Tracer,
    /// Requests ever accepted into `in_q` (conservation ledger).
    ledger_accepted: u64,
    /// Responses ever pushed into `out_q` (conservation ledger).
    ledger_responded: u64,
}

/// Hot-path event counters kept as plain fields: the bank charges one or
/// more of these nearly every tick, where a name-keyed [`Stats`] lookup
/// would dominate the simulation loop. [`MomsBank::stats`] folds them
/// into the exported registry under their usual names.
#[derive(Debug, Clone, Copy, Default)]
struct BankCounters {
    assembled_bursts: u64,
    responses: u64,
    cache_hits: u64,
    primary_misses: u64,
    secondary_misses: u64,
    stall_out_full: u64,
    stall_mem_full: u64,
    stall_subentry_full: u64,
    stall_mshr_insert: u64,
    busy_kick_cycles: u64,
    busy_chain_cycles: u64,
}

impl MomsBank {
    /// Creates an idle bank.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MomsConfig::validate`] or the
    /// MSHR capacity is not divisible by the cuckoo way count.
    pub fn new(cfg: MomsConfig) -> Self {
        cfg.validate();
        let mshrs = if cfg.cuckoo_ways > 0 {
            // Round capacity up to a multiple of the way count.
            cfg.mshrs.div_ceil(cfg.cuckoo_ways) * cfg.cuckoo_ways
        } else {
            cfg.mshrs
        };
        MomsBank {
            cache: cfg.cache.map(CacheArray::new),
            in_q: Fifo::new(cfg.in_queue),
            out_q: Fifo::new(cfg.out_queue),
            mem_req_q: Fifo::new(cfg.mem_queue),
            mem_resp_q: Fifo::new(cfg.mem_queue),
            mshr: CuckooMshr::new(mshrs, cfg.cuckoo_ways, cfg.max_kicks),
            subs: SubentryBuffer::new(cfg.subentries, cfg.subentry_slots_per_row, cfg.chain_rows),
            replay: VecDeque::with_capacity(64),
            assembly: VecDeque::with_capacity(16),
            busy_until: 0,
            stats: Stats::new(),
            counters: BankCounters::default(),
            tracer: Tracer::disabled(),
            ledger_accepted: 0,
            ledger_responded: 0,
            cfg,
        }
    }

    /// `true` when the input queue can accept a request this cycle.
    pub fn can_accept(&self) -> bool {
        self.in_q.can_push()
    }

    /// Offers a request; returns `false` (leaving the caller to retry)
    /// when the input queue is full.
    pub fn try_request(&mut self, req: MomsReq) -> bool {
        let ok = self.in_q.push(req).is_ok();
        if ok {
            self.ledger_accepted += 1;
        }
        ok
    }

    /// Pops a completed response.
    pub fn pop_response(&mut self) -> Option<MomsResp> {
        self.out_q.pop()
    }

    /// Pops a line-burst request `(first line, line count)` destined for
    /// the next memory level (count is 1 unless burst assembly is on).
    pub fn pop_mem_request(&mut self) -> Option<(u64, u32)> {
        self.mem_req_q.pop()
    }

    /// Peeks the next pending request without consuming it.
    pub fn peek_mem_request(&self) -> Option<(u64, u32)> {
        self.mem_req_q.peek().copied()
    }

    /// Occupancy of the input queue (visible plus staged), used by the
    /// crossbar for credit-based flow control.
    pub fn in_q_len(&self) -> usize {
        self.in_q.len()
    }

    /// `true` when a memory response can be delivered this cycle.
    pub fn can_accept_mem_response(&self) -> bool {
        self.mem_resp_q.can_push()
    }

    /// Delivers a returned line; returns `false` if the response queue is
    /// full (caller retries — in hardware this backpressures the network).
    pub fn push_mem_response(&mut self, line: u64) -> bool {
        self.mem_resp_q.push((line, 1)).is_ok()
    }

    /// Delivers a returned burst of `count` consecutive lines starting at
    /// `line` (burst-assembly responses).
    pub fn push_mem_burst_response(&mut self, line: u64, count: u32) -> bool {
        self.mem_resp_q.push((line, count)).is_ok()
    }

    /// `true` when nothing is queued, staged, replaying or assembling:
    /// ticking the bank changes nothing until a request or a memory
    /// response is pushed into it. It may still hold live MSHRs waiting on
    /// memory responses, which arrive through the caller.
    pub fn is_quiet(&self) -> bool {
        self.in_q.is_empty()
            && self.out_q.is_empty()
            && self.mem_req_q.is_empty()
            && self.mem_resp_q.is_empty()
            && self.replay.is_empty()
            && self.assembly.is_empty()
    }

    /// `true` when nothing is queued, pending, or replaying.
    pub fn is_idle(&self) -> bool {
        self.is_quiet() && self.mshr.occupancy() == 0
    }

    /// Point-in-time view of this bank's occupancy and cache statistics.
    ///
    /// This is the one sanctioned way to observe a bank from outside.
    pub fn snapshot(&self) -> MomsBankSnapshot {
        let (cache_hits, cache_misses) = self
            .cache
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        MomsBankSnapshot {
            mshr_occupancy: self.mshr.occupancy(),
            peak_mshr_occupancy: self.mshr.peak_occupancy(),
            peak_pending_misses: self.subs.peak_entries(),
            cache_hits,
            cache_misses,
            stall_mshr_full: self.counters.stall_mshr_insert,
            stall_subentry_full: self.counters.stall_subentry_full,
            stall_mem_full: self.counters.stall_mem_full,
        }
    }

    /// Counters: `cache_hits`, `secondary_misses`, `primary_misses`,
    /// `responses`, stalls by cause (`stall_out_full`, `stall_mem_full`,
    /// `stall_subentry_full`, `stall_mshr_insert`, `busy_kick_cycles`,
    /// `busy_chain_cycles`).
    ///
    /// Built on demand: the hot counters live in plain fields
    /// (`BankCounters`) and are folded in here, keeping the per-tick
    /// path free of name lookups. As with direct `Stats` use, a counter
    /// that never fired has no entry.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        let c = &self.counters;
        for (name, v) in [
            ("assembled_bursts", c.assembled_bursts),
            ("busy_chain_cycles", c.busy_chain_cycles),
            ("busy_kick_cycles", c.busy_kick_cycles),
            ("cache_hits", c.cache_hits),
            ("primary_misses", c.primary_misses),
            ("responses", c.responses),
            ("secondary_misses", c.secondary_misses),
            ("stall_mem_full", c.stall_mem_full),
            ("stall_mshr_insert", c.stall_mshr_insert),
            ("stall_out_full", c.stall_out_full),
            ("stall_subentry_full", c.stall_subentry_full),
        ] {
            if v > 0 {
                s.add(name, v);
            }
        }
        s
    }

    /// Configuration of this bank.
    pub fn config(&self) -> &MomsConfig {
        &self.cfg
    }

    /// Installs an event tracer (disabled by default). The tracer only
    /// observes; the differential suite verifies it cannot perturb timing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Live subentries right now (pending misses), for occupancy sampling.
    pub fn subentry_used(&self) -> usize {
        self.subs.used_entries()
    }

    /// Drains this bank's recorded trace events, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// The last `n` recorded trace events, for stall diagnostics.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.tracer.tail(n)
    }

    /// Events lost to ring wraparound in this bank.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// One-line occupancy summary for watchdog diagnostics.
    pub fn diagnostic(&self) -> String {
        let replaying: usize = self.replay.len();
        format!(
            "in_q={} out_q={} mem_req={} mem_resp={} replay={} asm={} mshr={}/{} \
             subs={} free_rows={} busy_until={}",
            self.in_q.len(),
            self.out_q.len(),
            self.mem_req_q.len(),
            self.mem_resp_q.len(),
            replaying,
            self.assembly.len(),
            self.mshr.occupancy(),
            self.mshr.capacity(),
            self.subs.used_entries(),
            self.subs.free_rows(),
            self.busy_until,
        )
    }

    /// How often the O(capacity) structural walks run: the conservation
    /// ledger is checked every tick, the full array/chain walks every
    /// `STRUCT_CHECK_MASK + 1` ticks (a drifted counter or leaked row is
    /// still caught, just up to 1024 ticks late — a per-tick walk over
    /// every cuckoo slot, cache way, and subentry row makes paper-sized
    /// configurations hundreds of times slower).
    #[cfg(feature = "invariants")]
    const STRUCT_CHECK_MASK: Cycle = (1 << 10) - 1;

    /// Conservation ledger, checked every tick when the `invariants`
    /// feature is on: every accepted request is in exactly one place.
    ///
    /// # Panics
    ///
    /// Panics when a request was lost or duplicated.
    #[cfg(feature = "invariants")]
    fn check_ledger(&self) {
        let replaying: u64 = self.replay.len() as u64;
        assert_eq!(
            self.ledger_accepted,
            self.ledger_responded
                + self.in_q.len() as u64
                + self.subs.used_entries() as u64
                + replaying,
            "request conservation violated: accepted {} != responded {} + queued {} \
             + pending {} + replaying {replaying}",
            self.ledger_accepted,
            self.ledger_responded,
            self.in_q.len(),
            self.subs.used_entries(),
        );
    }

    /// Deep structural consistency: cuckoo tag store, subentry free
    /// lists, cache arrays, and MSHR↔chain agreement.
    ///
    /// # Panics
    ///
    /// Panics when the MSHR/subentry alloc–free balance broke or a
    /// structure lost internal consistency.
    #[cfg(feature = "invariants")]
    fn check_structures(&self) {
        self.mshr.check_consistency();
        self.subs.check_consistency();
        if let Some(c) = &self.cache {
            c.check_consistency();
        }
        let mut pending_total = 0usize;
        let mut chain_rows = 0usize;
        for e in self.mshr.iter() {
            assert_eq!(
                self.subs.chain_len(e.head_row),
                e.pending as usize,
                "MSHR chain length disagrees with its pending count for line {}",
                e.line
            );
            pending_total += e.pending as usize;
            chain_rows += self.subs.chain_row_count(e.head_row);
        }
        assert_eq!(
            pending_total,
            self.subs.used_entries(),
            "subentries alive outside any MSHR chain"
        );
        assert_eq!(
            chain_rows,
            self.subs.total_rows() - self.subs.free_rows(),
            "subentry row alloc/free imbalance (leaked or double-freed row)"
        );
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_inner(now);
        #[cfg(feature = "invariants")]
        {
            self.check_ledger();
            if now & Self::STRUCT_CHECK_MASK == 0 {
                self.check_structures();
            }
        }
    }

    fn tick_inner(&mut self, now: Cycle) {
        self.in_q.tick();
        self.out_q.tick();
        self.mem_req_q.tick();
        self.mem_resp_q.tick();

        // 0. Dispatch mature assembly windows (a separate unit in the
        //    DynaBurst design; does not occupy the lookup pipeline).
        if !self.assembly.is_empty() && self.mem_req_q.can_push() {
            let full_mask = if self.cfg.burst_assembly.map_or(1, |b| b.max_lines) >= 32 {
                u32::MAX
            } else {
                (1u32 << self.cfg.burst_assembly.map_or(1, |b| b.max_lines)) - 1
            };
            if let Some(pos) = self
                .assembly
                .iter()
                .position(|w| w.deadline <= now || w.mask == full_mask)
            {
                let w = self.assembly.remove(pos).expect("position valid");
                let first = w.mask.trailing_zeros();
                let last = 31 - w.mask.leading_zeros();
                let span = last - first + 1;
                let requested = w.mask.count_ones();
                self.mem_req_q
                    .push((w.base + first as u64, span))
                    .unwrap_or_else(|_| unreachable!("checked can_push"));
                self.counters.assembled_bursts += 1;
                self.stats
                    .add("wasted_burst_lines", (span - requested) as u64);
            }
        }

        if now < self.busy_until {
            return; // paying a multi-cycle structural cost (kicks/chaining)
        }

        // 1. Replay in progress: one subentry per cycle into the output.
        if let Some(&(line, e)) = self.replay.front() {
            if self.out_q.can_push() {
                self.replay.pop_front();
                self.out_q
                    .push(MomsResp {
                        line,
                        word: e.word,
                        id: e.id,
                    })
                    .unwrap_or_else(|_| unreachable!("checked can_push"));
                self.counters.responses += 1;
                self.ledger_responded += 1;
                self.tracer.event(now, EventKind::MomsReplay, e.id as u64);
            } else {
                self.counters.stall_out_full += 1;
                self.tracer.event(now, EventKind::MomsStallReplayFull, line);
            }
            return;
        }

        // 2. Memory response: fill cache, free MSHRs, start replays. A
        //    burst response covers several lines; lines without an MSHR
        //    were speculative fill (wasted unless cached).
        if let Some(&(base, count)) = self.mem_resp_q.peek() {
            self.mem_resp_q.pop();
            let mut any = false;
            for line in base..base + count as u64 {
                if let Some(c) = &mut self.cache {
                    if let Some(evicted) = c.fill(line, now) {
                        self.tracer.event(now, EventKind::MomsEvict, evicted);
                    }
                }
                if let Some(entry) = self.mshr.remove(line) {
                    let n = self
                        .subs
                        .drain_chain_into(entry.head_row, line, &mut self.replay);
                    debug_assert_eq!(n as u32, entry.pending);
                    debug_assert!(n > 0, "MSHR with no pending subentries");
                    any = true;
                }
            }
            debug_assert!(
                any || self.cfg.burst_assembly.is_some(),
                "single-line response without MSHR"
            );
            return;
        }

        // 3. New request.
        let Some(&req) = self.in_q.peek() else {
            return;
        };

        // 3a. Cache probe.
        if let Some(c) = &mut self.cache {
            if c.probe(req.line, now) {
                if self.out_q.can_push() {
                    self.in_q.pop();
                    self.out_q
                        .push(MomsResp {
                            line: req.line,
                            word: req.word,
                            id: req.id,
                        })
                        .unwrap_or_else(|_| unreachable!("checked can_push"));
                    self.counters.cache_hits += 1;
                    self.counters.responses += 1;
                    self.ledger_responded += 1;
                    self.tracer.event(now, EventKind::MomsHit, req.line);
                } else {
                    self.counters.stall_out_full += 1;
                    self.tracer
                        .event(now, EventKind::MomsStallReplayFull, req.line);
                }
                return;
            }
        }

        // 3b. Secondary miss: append to the existing MSHR's chain.
        if let Some(entry) = self.mshr.lookup_mut(req.line) {
            let tail = entry.tail_row;
            let sub = Subentry {
                id: req.id,
                word: req.word,
            };
            match self.subs.append(tail, sub) {
                Ok(new_tail) => {
                    let chained = new_tail != tail;
                    let entry = self.mshr.lookup_mut(req.line).expect("entry still present");
                    entry.tail_row = new_tail;
                    entry.pending += 1;
                    self.in_q.pop();
                    self.counters.secondary_misses += 1;
                    self.tracer
                        .event(now, EventKind::MomsSecondaryMiss, req.line);
                    if chained {
                        // Linking a fresh row costs one extra cycle.
                        self.busy_until = now + 2;
                        self.counters.busy_chain_cycles += 1;
                        self.tracer.event(now, EventKind::SubentryChain, req.line);
                    }
                }
                Err(SubentryFull) => {
                    self.counters.stall_subentry_full += 1;
                    self.tracer
                        .event(now, EventKind::SubentryOverflow, req.line);
                }
            }
            return;
        }

        // 3c. Primary miss: allocate MSHR + subentry row, emit line read
        //     (or stage it in the assembly buffer).
        let assembly_limit = self.cfg.burst_assembly.map(|_| 16usize);
        let mem_path_free = match assembly_limit {
            None => self.mem_req_q.can_push(),
            Some(limit) => self.assembly.len() < limit || self.mem_req_q.can_push(),
        };
        if !mem_path_free {
            self.counters.stall_mem_full += 1;
            self.tracer
                .event(now, EventKind::MomsStallMemFull, req.line);
            return;
        }
        if self.mshr.is_full() {
            self.counters.stall_mshr_insert += 1;
            self.tracer
                .event(now, EventKind::MomsStallMshrFull, req.line);
            return;
        }
        let Ok(row) = self.subs.alloc_row() else {
            self.counters.stall_subentry_full += 1;
            self.tracer
                .event(now, EventKind::SubentryOverflow, req.line);
            return;
        };
        match self.mshr.insert(MshrEntry {
            line: req.line,
            head_row: row,
            tail_row: row,
            pending: 1,
        }) {
            InsertOutcome::Placed { kicks } => {
                self.subs
                    .append(
                        row,
                        Subentry {
                            id: req.id,
                            word: req.word,
                        },
                    )
                    .unwrap_or_else(|_| unreachable!("fresh row has space"));
                self.in_q.pop();
                match self.cfg.burst_assembly {
                    None => {
                        self.mem_req_q
                            .push((req.line, 1))
                            .unwrap_or_else(|_| unreachable!("checked can_push"));
                    }
                    Some(ba) => {
                        let base = req.line / ba.max_lines as u64 * ba.max_lines as u64;
                        let bit = 1u32 << (req.line - base);
                        match self.assembly.iter_mut().find(|w| w.base == base) {
                            Some(w) => w.mask |= bit,
                            None => self.assembly.push_back(AsmWindow {
                                base,
                                mask: bit,
                                deadline: now + ba.wait_cycles,
                            }),
                        }
                    }
                }
                self.counters.primary_misses += 1;
                self.tracer.event(now, EventKind::MomsPrimaryMiss, req.line);
                self.tracer.event(now, EventKind::SubentryAlloc, req.line);
                self.tracer
                    .event(now, EventKind::CuckooInsert, kicks as u64);
                if kicks > 0 {
                    self.busy_until = now + 1 + kicks as Cycle;
                    self.counters.busy_kick_cycles += kicks as u64;
                    self.tracer.event(now, EventKind::CuckooKick, kicks as u64);
                }
            }
            InsertOutcome::Failed => {
                // Return the unused row and stall; occupancy will drain.
                self.subs.release_empty_row(row);
                self.counters.stall_mshr_insert += 1;
                self.busy_until = now + self.cfg.max_kicks.max(1) as Cycle;
                self.tracer
                    .event(now, EventKind::MomsStallMshrFull, req.line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn small_cfg(cache: bool) -> MomsConfig {
        MomsConfig {
            cache: cache.then_some(CacheConfig { lines: 16, ways: 1 }),
            mshrs: 16,
            cuckoo_ways: 4,
            max_kicks: 8,
            subentries: 64,
            subentry_slots_per_row: 4,
            chain_rows: true,
            in_queue: 4,
            out_queue: 4,
            mem_queue: 4,
            burst_assembly: None,
        }
    }

    /// Drives the bank with an echo memory of the given latency until idle
    /// or `max` cycles; returns collected responses and the final cycle.
    fn drive(
        bank: &mut MomsBank,
        reqs: Vec<MomsReq>,
        mem_latency: u64,
        max: Cycle,
    ) -> Vec<MomsResp> {
        let mut pending: VecDeque<MomsReq> = reqs.into();
        let mut in_flight: VecDeque<(Cycle, u64)> = VecDeque::new();
        let mut out = Vec::new();
        for now in 0..max {
            if let Some(&r) = pending.front() {
                if bank.try_request(r) {
                    pending.pop_front();
                }
            }
            bank.tick(now);
            while let Some((line, count)) = bank.pop_mem_request() {
                debug_assert_eq!(count, 1);
                in_flight.push_back((now + mem_latency, line));
            }
            while let Some(&(ready, line)) = in_flight.front() {
                if ready <= now && bank.can_accept_mem_response() {
                    bank.push_mem_response(line);
                    in_flight.pop_front();
                } else {
                    break;
                }
            }
            while let Some(r) = bank.pop_response() {
                out.push(r);
            }
            if pending.is_empty() && in_flight.is_empty() && bank.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn miss_fetches_line_and_responds() {
        let mut bank = MomsBank::new(small_cfg(false));
        let out = drive(
            &mut bank,
            vec![MomsReq {
                line: 9,
                word: 3,
                id: 77,
            }],
            10,
            1000,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 77);
        assert_eq!(out[0].word, 3);
        assert_eq!(bank.stats().get("primary_misses"), 1);
        assert!(bank.is_idle());
    }

    #[test]
    fn secondary_misses_coalesce_into_one_fetch() {
        let mut bank = MomsBank::new(small_cfg(false));
        let reqs: Vec<MomsReq> = (0..10)
            .map(|i| MomsReq {
                line: 5,
                word: (i % 16) as u8,
                id: i,
            })
            .collect();
        let out = drive(&mut bank, reqs, 50, 5000);
        assert_eq!(out.len(), 10);
        assert_eq!(bank.stats().get("primary_misses"), 1, "one line fetch only");
        assert_eq!(bank.stats().get("secondary_misses"), 9);
        // All IDs come back exactly once.
        let mut ids: Vec<u32> = out.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cache_hit_serves_without_memory_traffic() {
        let mut bank = MomsBank::new(small_cfg(true));
        // First access misses and fills; second hits.
        let out = drive(
            &mut bank,
            vec![MomsReq {
                line: 3,
                word: 0,
                id: 1,
            }],
            5,
            500,
        );
        assert_eq!(out.len(), 1);
        let out = drive(
            &mut bank,
            vec![MomsReq {
                line: 3,
                word: 1,
                id: 2,
            }],
            5,
            500,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(bank.stats().get("cache_hits"), 1);
        assert_eq!(bank.stats().get("primary_misses"), 1);
        assert!(bank.snapshot().cache_hit_rate() > 0.0);
    }

    #[test]
    fn distinct_lines_fetch_separately() {
        let mut bank = MomsBank::new(small_cfg(false));
        let reqs: Vec<MomsReq> = (0..8)
            .map(|i| MomsReq {
                line: i as u64 * 131,
                word: 0,
                id: i,
            })
            .collect();
        let out = drive(&mut bank, reqs, 20, 5000);
        assert_eq!(out.len(), 8);
        assert_eq!(bank.stats().get("primary_misses"), 8);
        assert_eq!(bank.stats().get("secondary_misses"), 0);
    }

    #[test]
    fn traditional_bank_stalls_on_seventeenth_line() {
        // 16 MSHRs: 17 distinct outstanding lines cannot coexist, but with
        // a draining memory everything eventually completes.
        let mut bank = MomsBank::new(MomsConfig::traditional(None));
        let reqs: Vec<MomsReq> = (0..32)
            .map(|i| MomsReq {
                line: 1000 + i as u64,
                word: 0,
                id: i,
            })
            .collect();
        let out = drive(&mut bank, reqs, 100, 50_000);
        assert_eq!(out.len(), 32);
        assert!(
            bank.snapshot().peak_mshr_occupancy <= 16,
            "peak {} exceeds MSHR file",
            bank.snapshot().peak_mshr_occupancy
        );
    }

    #[test]
    fn traditional_subentry_limit_stalls_but_completes() {
        let mut bank = MomsBank::new(MomsConfig::traditional(None));
        // 20 requests to the same line: more than the 8-subentry row.
        let reqs: Vec<MomsReq> = (0..20)
            .map(|i| MomsReq {
                line: 7,
                word: 0,
                id: i,
            })
            .collect();
        let out = drive(&mut bank, reqs, 60, 50_000);
        assert_eq!(out.len(), 20);
        assert!(bank.stats().get("stall_subentry_full") > 0);
        // More than one fetch was needed since the row filled up.
        assert!(bank.stats().get("primary_misses") >= 2);
    }

    #[test]
    fn replay_is_one_per_cycle() {
        let mut bank = MomsBank::new(small_cfg(false));
        for i in 0..4u32 {
            assert!(bank.try_request(MomsReq {
                line: 1,
                word: 0,
                id: i
            }));
        }
        let mut now = 0;
        // Tick until the mem request appears, answer immediately.
        let line = loop {
            bank.tick(now);
            now += 1;
            if let Some((l, _)) = bank.pop_mem_request() {
                break l;
            }
            assert!(now < 100);
        };
        bank.push_mem_response(line);
        // Collect responses with their cycle stamps; late requests to the
        // same line re-fetch after the MSHR drained, so keep answering.
        let mut stamps = Vec::new();
        while stamps.len() < 4 {
            bank.tick(now);
            if let Some((l, _)) = bank.pop_mem_request() {
                bank.push_mem_response(l);
            }
            while let Some(r) = bank.pop_response() {
                stamps.push((now, r.id));
            }
            now += 1;
            assert!(now < 200);
        }
        // Replay emits at most one response per cycle.
        for w in stamps.windows(2) {
            assert!(w[1].0 > w[0].0, "two replays in one cycle: {stamps:?}");
        }
    }

    #[test]
    fn burst_assembly_merges_adjacent_lines() {
        use crate::config::BurstAssemblyConfig;
        let mut cfg = small_cfg(false);
        cfg.mshrs = 64;
        cfg.subentries = 256;
        cfg.burst_assembly = Some(BurstAssemblyConfig {
            max_lines: 8,
            wait_cycles: 16,
        });
        let mut bank = MomsBank::new(cfg);
        // Eight misses to consecutive lines of one window, fed as the
        // 4-deep input queue drains.
        let mut to_send: std::collections::VecDeque<u32> = (0..8u32).collect();
        let mut now = 0u64;
        let mut bursts = Vec::new();
        let mut got = 0;
        while got < 8 {
            if let Some(&i) = to_send.front() {
                if bank.try_request(MomsReq {
                    line: 64 + i as u64,
                    word: 0,
                    id: i,
                }) {
                    to_send.pop_front();
                }
            }
            bank.tick(now);
            while let Some((base, count)) = bank.pop_mem_request() {
                bursts.push((base, count));
                assert!(bank.push_mem_burst_response(base, count));
            }
            while bank.pop_response().is_some() {
                got += 1;
            }
            now += 1;
            assert!(now < 1000);
        }
        // One single burst covering the full window.
        assert_eq!(bursts, vec![(64, 8)]);
        assert_eq!(bank.stats().get("assembled_bursts"), 1);
        assert_eq!(bank.stats().get("wasted_burst_lines"), 0);
        assert!(bank.is_idle());
    }

    #[test]
    fn burst_assembly_dispatches_sparse_windows_on_deadline() {
        use crate::config::BurstAssemblyConfig;
        let mut cfg = small_cfg(false);
        cfg.burst_assembly = Some(BurstAssemblyConfig {
            max_lines: 8,
            wait_cycles: 4,
        });
        let mut bank = MomsBank::new(cfg);
        // Two misses with a hole between them: the span fetch wastes one
        // line.
        assert!(bank.try_request(MomsReq {
            line: 16,
            word: 0,
            id: 0
        }));
        assert!(bank.try_request(MomsReq {
            line: 18,
            word: 0,
            id: 1
        }));
        let mut now = 0u64;
        let mut got = 0;
        let mut bursts = Vec::new();
        while got < 2 {
            bank.tick(now);
            while let Some((base, count)) = bank.pop_mem_request() {
                bursts.push((base, count));
                assert!(bank.push_mem_burst_response(base, count));
            }
            while bank.pop_response().is_some() {
                got += 1;
            }
            now += 1;
            assert!(now < 1000);
        }
        assert_eq!(bursts, vec![(16, 3)]);
        assert_eq!(bank.stats().get("wasted_burst_lines"), 1);
    }

    #[test]
    fn peak_occupancy_tracks_thousands() {
        let mut cfg = small_cfg(false);
        cfg.mshrs = 4096;
        cfg.subentries = 8192;
        cfg.mem_queue = 4096;
        let mut bank = MomsBank::new(cfg);
        let reqs: Vec<MomsReq> = (0..2000)
            .map(|i| MomsReq {
                line: i as u64 * 7919,
                word: 0,
                id: i,
            })
            .collect();
        // Huge latency so misses accumulate.
        let out = drive(&mut bank, reqs, 5000, 100_000);
        assert_eq!(out.len(), 2000);
        assert!(
            bank.snapshot().peak_mshr_occupancy > 1000,
            "peak {} too low — misses are not accumulating",
            bank.snapshot().peak_mshr_occupancy
        );
    }
}
