//! Single-channel DRAM timing model.

use std::collections::VecDeque;

use simkit::trace::{EventKind, TraceEvent, Tracer};
use simkit::{Cycle, Fifo, Stats};

use crate::config::DramConfig;
use crate::system::LINE_BYTES;

/// A read or write transaction of one or more consecutive 64 B lines.
///
/// The id is opaque to the channel and returned unchanged in the response,
/// letting the issuer (MOMS bank or PE DMA) match responses to state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Issuer-chosen identifier, echoed in the response.
    pub id: u64,
    /// Byte address of the first line (need not be line aligned; the
    /// channel only looks at line/row/bank bits).
    pub addr: u64,
    /// Number of 64 B lines to transfer.
    pub lines: u32,
    /// `true` for writes (writes get a response too, used as completion
    /// acknowledgement for write-back ordering).
    pub write: bool,
}

impl DramRequest {
    /// Convenience constructor for a read.
    pub fn read(id: u64, addr: u64, lines: u32) -> Self {
        DramRequest {
            id,
            addr,
            lines,
            write: false,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(id: u64, addr: u64, lines: u32) -> Self {
        DramRequest {
            id,
            addr,
            lines,
            write: true,
        }
    }

    /// Total bytes moved by this transaction.
    pub fn bytes(&self) -> u64 {
        self.lines as u64 * LINE_BYTES
    }
}

/// Completion notification for a [`DramRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramResponse {
    /// Identifier copied from the request.
    pub id: u64,
    /// Address copied from the request.
    pub addr: u64,
    /// Lines transferred, copied from the request.
    pub lines: u32,
    /// Whether the completed transaction was a write.
    pub write: bool,
}

/// Point-in-time view of one channel's counters, returned by
/// [`DramChannel::snapshot`] — a plain value type that outlives the channel
/// and feeds result export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramChannelSnapshot {
    /// Transactions that hit an open row.
    pub row_hits: u64,
    /// Transactions that needed precharge + activate.
    pub row_misses: u64,
    /// 64 B lines read.
    pub read_lines: u64,
    /// 64 B lines written.
    pub write_lines: u64,
    /// Read transactions completed.
    pub read_txns: u64,
    /// Write transactions completed.
    pub write_txns: u64,
    /// Cycles the shared data bus was occupied (transfer + command
    /// overhead).
    pub bus_busy_cycles: u64,
}

impl DramChannelSnapshot {
    /// Fraction of transactions that hit an open row; 0 with no traffic.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total bytes moved in either direction.
    pub fn bytes(&self) -> u64 {
        (self.read_lines + self.write_lines) * LINE_BYTES
    }

    /// Achieved bandwidth in GB/s over `cycles` of simulated time at
    /// `freq_mhz`; 0 when no time has elapsed.
    pub fn bandwidth_gbs(&self, cycles: Cycle, freq_mhz: f64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / (freq_mhz * 1e6);
        self.bytes() as f64 / seconds / 1e9
    }

    /// Element-wise sum, for aggregating across channels.
    pub fn accumulate(&mut self, other: &DramChannelSnapshot) {
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.read_lines += other.read_lines;
        self.write_lines += other.write_lines;
        self.read_txns += other.read_txns;
        self.write_txns += other.write_txns;
        self.bus_busy_cycles += other.bus_busy_cycles;
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// Hot-path event counters kept as plain fields so the per-transaction
/// scheduling path never touches the name-keyed [`Stats`] map; they are
/// folded into a `Stats` value on demand by [`DramChannel::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct ChannelCounters {
    row_hits: u64,
    row_misses: u64,
    read_lines: u64,
    write_lines: u64,
    read_txns: u64,
    write_txns: u64,
    bus_busy_cycles: u64,
}

/// One DRAM channel: bounded request queue, per-bank row state, shared data
/// bus, FR-FCFS-lite scheduling, and an in-order completion queue.
///
/// Drive it by calling [`tick`](Self::tick) once per cycle and exchanging
/// requests/responses through [`push_request`](Self::push_request) /
/// [`pop_response`](Self::pop_response).
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    requests: Fifo<DramRequest>,
    banks: Vec<BankState>,
    bus_free_at: Cycle,
    /// (completion cycle, response); completion cycles are monotonically
    /// nondecreasing because transfers serialise on the data bus.
    completions: VecDeque<(Cycle, DramResponse)>,
    counters: ChannelCounters,
    tracer: Tracer,
    /// Transactions ever accepted (conservation ledger).
    ledger_pushed: u64,
    /// Responses ever handed out (conservation ledger).
    ledger_popped: u64,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![
            BankState {
                open_row: None,
                ready_at: 0,
            };
            cfg.num_banks
        ];
        DramChannel {
            requests: Fifo::new(cfg.queue_depth),
            banks,
            bus_free_at: 0,
            completions: VecDeque::new(),
            cfg,
            counters: ChannelCounters::default(),
            tracer: Tracer::disabled(),
            ledger_pushed: 0,
            ledger_popped: 0,
        }
    }

    /// `true` when the request queue can accept another transaction.
    pub fn can_accept(&self) -> bool {
        self.requests.can_push()
    }

    /// Enqueues a transaction.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full; callers retry next
    /// cycle (hardware backpressure).
    pub fn push_request(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        let out = self.requests.push(req).map_err(|e| e.0);
        if out.is_ok() {
            self.ledger_pushed += 1;
        }
        out
    }

    /// Pops a completed transaction if one has matured by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<DramResponse> {
        match self.completions.front() {
            Some((ready, _)) if *ready <= now => {
                self.ledger_popped += 1;
                let resp = self.completions.pop_front().map(|(_, r)| r);
                if let Some(r) = &resp {
                    self.tracer.event(now, EventKind::DramComplete, r.id);
                }
                resp
            }
            _ => None,
        }
    }

    /// Installs an event tracer (disabled by default); it only observes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drains this channel's recorded trace events, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// The last `n` recorded trace events, for stall diagnostics.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.tracer.tail(n)
    }

    /// Events lost to ring wraparound in this channel.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Transactions currently queued or awaiting completion, for
    /// occupancy sampling.
    pub fn pending(&self) -> usize {
        self.requests.len() + self.completions.len()
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row = addr / self.cfg.row_bytes;
        // Banks interleave on row address bits so that streaming rows
        // rotates banks, as typical controllers map them.
        let bank = (row % self.cfg.num_banks as u64) as usize;
        (bank, row)
    }

    /// Conservation invariants, checked every tick when the `invariants`
    /// feature is on.
    ///
    /// # Panics
    ///
    /// Panics when a transaction was lost or duplicated, or the in-order
    /// completion queue lost its monotonicity.
    #[cfg(feature = "invariants")]
    fn check_invariants(&self) {
        assert_eq!(
            self.ledger_pushed,
            self.ledger_popped + self.requests.len() as u64 + self.completions.len() as u64,
            "DRAM transaction conservation violated: pushed {} != popped {} \
             + queued {} + completing {}",
            self.ledger_pushed,
            self.ledger_popped,
            self.requests.len(),
            self.completions.len(),
        );
        let mut prev = 0;
        for &(ready, _) in &self.completions {
            assert!(
                ready >= prev,
                "completion queue lost in-order delivery ({ready} after {prev})"
            );
            prev = ready;
        }
    }

    /// One-line occupancy summary for watchdog diagnostics.
    pub fn diagnostic(&self) -> String {
        format!(
            "queued={} completing={} bus_free_at={}",
            self.requests.len(),
            self.completions.len(),
            self.bus_free_at,
        )
    }

    /// Advances one cycle: schedules at most one transaction onto the bus.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_inner(now);
        #[cfg(feature = "invariants")]
        self.check_invariants();
    }

    fn tick_inner(&mut self, now: Cycle) {
        self.requests.tick();
        if self.bus_free_at > now {
            return; // data bus busy; cannot start another transfer
        }
        if self.requests.visible_len() == 0 {
            return;
        }
        // FR-FCFS-lite: inspect a small window of the visible queue and
        // prefer the first row hit; otherwise take the oldest entry.
        let mut chosen = 0usize;
        for (i, r) in self.requests.iter().take(self.cfg.sched_window).enumerate() {
            let (bank, row) = self.bank_and_row(r.addr);
            if self.banks[bank].open_row == Some(row) && self.banks[bank].ready_at <= now {
                chosen = i;
                break;
            }
        }
        // Skipped older entries keep their slots (and thus priority for
        // next cycle's window): the ring removes in place.
        let req = self.requests.remove_visible(chosen);

        let (bank, row) = self.bank_and_row(req.addr);
        let row_hit = self.banks[bank].open_row == Some(row);
        let bank_latency = if row_hit {
            self.tracer.event(now, EventKind::DramRowHit, row);
            self.cfg.t_cas
        } else {
            if let Some(old) = self.banks[bank].open_row {
                self.tracer.event(now, EventKind::DramPrecharge, old);
            }
            self.tracer.event(now, EventKind::DramActivate, row);
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
        };
        let bank_ready = self.banks[bank].ready_at.max(now);
        // Failure injection: deterministic per-transaction jitter.
        let jitter = if self.cfg.jitter_cycles == 0 {
            0
        } else {
            let mut z = req.id ^ req.addr.rotate_left(17) ^ 0xA076_1D64_78BD_642F;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            z % (self.cfg.jitter_cycles + 1)
        };
        let data_start = (bank_ready + bank_latency + jitter).max(self.bus_free_at);
        let transfer = self.cfg.cmd_overhead + req.lines as u64 * self.cfg.cycles_per_line;
        let data_end = data_start + transfer;
        self.bus_free_at = data_end;
        self.banks[bank] = BankState {
            open_row: Some(row),
            ready_at: data_end,
        };
        let completion = data_end + self.cfg.base_latency;
        self.completions.push_back((
            completion,
            DramResponse {
                id: req.id,
                addr: req.addr,
                lines: req.lines,
                write: req.write,
            },
        ));

        if row_hit {
            self.counters.row_hits += 1;
        } else {
            self.counters.row_misses += 1;
        }
        if req.write {
            self.counters.write_lines += req.lines as u64;
            self.counters.write_txns += 1;
        } else {
            self.counters.read_lines += req.lines as u64;
            self.counters.read_txns += 1;
        }
        self.counters.bus_busy_cycles += transfer;
    }

    /// `true` when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty() && self.completions.is_empty()
    }

    /// Earliest future cycle at which this channel can change observable
    /// state: a staged request turning visible, the bus freeing up with
    /// work queued, or the oldest completion maturing. `None` when idle —
    /// idle skipping may then fast-forward the channel arbitrarily far.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        };
        if self.requests.len() > self.requests.visible_len() {
            merge(now + 1); // staged requests become schedulable next tick
        }
        if self.requests.visible_len() > 0 {
            merge(self.bus_free_at.max(now + 1));
        }
        if let Some(&(ready, _)) = self.completions.front() {
            merge(ready);
        }
        next
    }

    /// Counters: `row_hits`, `row_misses`, `read_lines`, `write_lines`,
    /// `read_txns`, `write_txns`, `bus_busy_cycles`.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        let c = &self.counters;
        for (name, v) in [
            ("bus_busy_cycles", c.bus_busy_cycles),
            ("read_lines", c.read_lines),
            ("read_txns", c.read_txns),
            ("row_hits", c.row_hits),
            ("row_misses", c.row_misses),
            ("write_lines", c.write_lines),
            ("write_txns", c.write_txns),
        ] {
            if v > 0 {
                s.add(name, v);
            }
        }
        s
    }

    /// Point-in-time view of this channel's counters as a value type.
    pub fn snapshot(&self) -> DramChannelSnapshot {
        DramChannelSnapshot {
            row_hits: self.counters.row_hits,
            row_misses: self.counters.row_misses,
            read_lines: self.counters.read_lines,
            write_lines: self.counters.write_lines,
            read_txns: self.counters.read_txns,
            write_txns: self.counters.write_txns,
            bus_busy_cycles: self.counters.bus_busy_cycles,
        }
    }

    /// Configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_response(ch: &mut DramChannel, start: Cycle, max: Cycle) -> (Cycle, DramResponse) {
        let mut now = start;
        loop {
            ch.tick(now);
            if let Some(r) = ch.pop_response(now) {
                return (now, r);
            }
            now += 1;
            assert!(now < max, "no response before cycle {max}");
        }
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg.clone());
        ch.push_request(DramRequest::read(42, 0, 1)).unwrap();
        let (done, resp) = run_until_response(&mut ch, 0, 1000);
        assert_eq!(resp.id, 42);
        // First access is a row miss: rp + rcd + cas + transfer + base.
        let expect = cfg.t_rp
            + cfg.t_rcd
            + cfg.t_cas
            + cfg.cmd_overhead
            + cfg.cycles_per_line
            + cfg.base_latency;
        assert!(
            done >= expect && done <= expect + 2,
            "done={done} expect≈{expect}"
        );
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        // Two reads to the same row: second should be a row hit.
        ch.push_request(DramRequest::read(1, 128, 1)).unwrap();
        ch.push_request(DramRequest::read(2, 192, 1)).unwrap();
        let mut now = 0;
        let mut got = vec![];
        while got.len() < 2 {
            ch.tick(now);
            if let Some(r) = ch.pop_response(now) {
                got.push((now, r.id));
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(ch.stats().get("row_hits"), 1);
        assert_eq!(ch.stats().get("row_misses"), 1);
    }

    #[test]
    fn burst_throughput_beats_singles() {
        // 32 lines as one burst vs 32 single-line transactions: the burst
        // must finish in roughly half the bus time.
        let cfg = DramConfig::default();
        let mut burst = DramChannel::new(cfg.clone());
        burst.push_request(DramRequest::read(0, 0, 32)).unwrap();
        let (burst_done, _) = run_until_response(&mut burst, 0, 100_000);

        let mut singles = DramChannel::new(cfg);
        for i in 0..32 {
            singles
                .push_request(DramRequest::read(i, i * 64, 1))
                .unwrap();
        }
        let mut now = 0;
        let mut count = 0;
        while count < 32 {
            singles.tick(now);
            if singles.pop_response(now).is_some() {
                count += 1;
            }
            now += 1;
            assert!(now < 100_000);
        }
        let singles_done = now;
        assert!(
            (singles_done as f64) > 1.5 * burst_done as f64,
            "singles {singles_done} vs burst {burst_done}"
        );
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        };
        let mut ch = DramChannel::new(cfg);
        assert!(ch.push_request(DramRequest::read(0, 0, 1)).is_ok());
        assert!(ch.push_request(DramRequest::read(1, 64, 1)).is_ok());
        assert!(ch.push_request(DramRequest::read(2, 128, 1)).is_err());
    }

    #[test]
    fn responses_in_bus_order() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        for i in 0..8u64 {
            ch.push_request(DramRequest::read(i, i * 8192 * 16, 1))
                .unwrap();
        }
        let mut now = 0;
        let mut ids = vec![];
        while ids.len() < 8 {
            ch.tick(now);
            if let Some(r) = ch.pop_response(now) {
                ids.push(r.id);
            }
            now += 1;
            assert!(now < 100_000);
        }
        // All different banks but same arrival order and serialized bus:
        // FCFS order expected.
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_changes_timing_but_not_delivery() {
        let base = DramConfig::default();
        let jit = DramConfig::default().with_jitter(37);
        let run = |cfg: DramConfig| -> (Cycle, Vec<u64>) {
            let mut ch = DramChannel::new(cfg);
            for i in 0..16u64 {
                ch.push_request(DramRequest::read(i, i * 8192, 1)).unwrap();
            }
            let mut now = 0;
            let mut ids = vec![];
            while ids.len() < 16 {
                ch.tick(now);
                while let Some(r) = ch.pop_response(now) {
                    ids.push(r.id);
                }
                now += 1;
                assert!(now < 100_000);
            }
            (now, ids)
        };
        let (t0, ids0) = run(base);
        let (t1, mut ids1) = run(jit);
        assert!(t1 > t0, "jitter should slow the channel");
        ids1.sort_unstable();
        let mut sorted0 = ids0;
        sorted0.sort_unstable();
        assert_eq!(sorted0, ids1, "every request still completes");
    }

    #[test]
    fn write_gets_completion() {
        let mut ch = DramChannel::new(DramConfig::default());
        ch.push_request(DramRequest::write(9, 4096, 4)).unwrap();
        let (_, resp) = run_until_response(&mut ch, 0, 10_000);
        assert!(resp.write);
        assert_eq!(resp.lines, 4);
        assert_eq!(ch.stats().get("write_lines"), 4);
    }

    #[test]
    fn idle_reporting() {
        let mut ch = DramChannel::new(DramConfig::default());
        assert!(ch.is_idle());
        ch.push_request(DramRequest::read(0, 0, 1)).unwrap();
        assert!(!ch.is_idle());
        let _ = run_until_response(&mut ch, 0, 10_000);
        assert!(ch.is_idle());
    }
}
