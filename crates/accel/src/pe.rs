//! The processing element (Fig. 9).
//!
//! A PE executes one job (destination interval) at a time through the
//! phases: node initialisation (single outstanding 32-beat burst), edge
//! pointer fetch, edge streaming (multiple outstanding tagged bursts, out
//! of order across channels), the per-edge source fetch through the MOMS
//! (or local BRAM when `use_local_src` applies), the `gather()` pipeline
//! with RAW stall handling, and finally `apply()` + write-back.
//!
//! Each in-flight edge is a suspended hardware thread (§IV-D): its state
//! lives in the free-ID/state-memory interface (weighted graphs,
//! Fig. 10a) or directly in the MOMS using the destination offset as the
//! ID (unweighted graphs, Fig. 10b).

use std::collections::{HashMap, VecDeque};

use simkit::trace::{EventKind, TraceEvent, Tracer};
use simkit::{Cycle, Stats};

use algos::Algorithm;
use dram::MemImage;
use graph::layout::EdgePointer;
use moms::{MomsReq, MomsSystem};

use crate::config::PeConfig;

/// Work descriptor pulled from the scheduler: one destination interval
/// plus every base address the PE needs (§IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Destination interval index.
    pub d: usize,
    /// First node of the interval.
    pub d_base: u32,
    /// Number of nodes in the interval.
    pub d_len: u32,
    /// Base address of `V_DRAM,in`.
    pub vin_base: u64,
    /// Base address of `V_const`, when the algorithm uses it.
    pub vconst_base: Option<u64>,
    /// Base address of `V_DRAM,out`.
    pub vout_base: u64,
    /// Address of this interval's edge-pointer row (Qs pointers).
    pub ptr_base: u64,
    /// Number of source intervals.
    pub qs: usize,
    /// Source interval size in nodes.
    pub ns: u32,
    /// `true` when each edge carries a 32-bit weight.
    pub weighted: bool,
    /// Whether sources inside the destination interval read from local
    /// BRAM (Template 1 `use_local_src`; forced off in synchronous mode).
    pub use_local_src: bool,
    /// The algorithm parameterisation.
    pub algo: Algorithm,
    /// Total node count (needed by `apply()`).
    pub num_nodes: u32,
}

/// A burst DMA request the PE asks the system to place on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeDramReq {
    /// PE-local burst tag, echoed by [`Pe::burst_complete`].
    pub tag: u64,
    /// Global byte address.
    pub addr: u64,
    /// Lines (64 B beats) to transfer.
    pub lines: u32,
    /// `true` for write-back bursts.
    pub write: bool,
}

/// Completion report for a finished job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    /// Destination interval processed.
    pub d: usize,
    /// Whether any destination value changed (Template 1, line 16).
    pub updated: bool,
    /// Edges processed by this job.
    pub edges: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Init,
    FetchPtrs,
    Stream,
    Apply,
    Writeback,
}

/// Exhaustive per-cycle attribution for one PE: every simulated cycle the
/// PE existed lands in exactly one field, so the fields always sum to the
/// cycles the PE was ticked. This is what `repro explain` renders — unlike
/// the event counters in [`Pe::stats`], it cannot under- or over-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeCycleBreakdown {
    /// No job assigned.
    pub idle: u64,
    /// Node-initialisation phase (vin/vconst bursts + BRAM fill).
    pub init: u64,
    /// Waiting on the edge-pointer burst.
    pub fetch_ptrs: u64,
    /// `apply()` sweep over the destination interval.
    pub apply: u64,
    /// Write-back bursts draining.
    pub writeback: u64,
    /// Stream cycles that made forward progress (retired, issued,
    /// accepted a MOMS response, or consumed an edge).
    pub stream_productive: u64,
    /// Stream cycles blocked only by a read-after-write hazard in the
    /// gather pipeline.
    pub stream_raw_hazard: u64,
    /// Stream cycles refused by a full MOMS input port.
    pub stream_backpressure: u64,
    /// Stream cycles starved for a free ID slot (weighted graphs).
    pub stream_id_starved: u64,
    /// Stream cycles waiting only on outstanding MOMS responses.
    pub stream_moms_wait: u64,
    /// Stream cycles waiting only on edge-burst DRAM data.
    pub stream_dram_wait: u64,
    /// Residual stream cycles (gather-pipeline latency drain).
    pub stream_drain: u64,
    /// Parked at a fabric iteration barrier, waiting on slower devices or
    /// the inter-accelerator link exchange. Always zero outside a fabric
    /// run.
    pub link_wait: u64,
}

impl PeCycleBreakdown {
    /// Sum of every class — equals the cycles this PE was ticked.
    pub fn total(&self) -> u64 {
        self.idle
            + self.init
            + self.fetch_ptrs
            + self.apply
            + self.writeback
            + self.stream_total()
            + self.link_wait
    }

    /// Cycles spent in the edge-streaming phase, all classes.
    pub fn stream_total(&self) -> u64 {
        self.stream_productive
            + self.stream_raw_hazard
            + self.stream_backpressure
            + self.stream_id_starved
            + self.stream_moms_wait
            + self.stream_dram_wait
            + self.stream_drain
    }

    /// Adds `other` into `self`, field by field (for summing over PEs).
    pub fn accumulate(&mut self, other: &PeCycleBreakdown) {
        self.idle += other.idle;
        self.init += other.init;
        self.fetch_ptrs += other.fetch_ptrs;
        self.apply += other.apply;
        self.writeback += other.writeback;
        self.stream_productive += other.stream_productive;
        self.stream_raw_hazard += other.stream_raw_hazard;
        self.stream_backpressure += other.stream_backpressure;
        self.stream_id_starved += other.stream_id_starved;
        self.stream_moms_wait += other.stream_moms_wait;
        self.stream_dram_wait += other.stream_dram_wait;
        self.stream_drain += other.stream_drain;
        self.link_wait += other.link_wait;
    }

    /// `(label, cycles)` rows in display order, for attribution tables.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("idle", self.idle),
            ("init", self.init),
            ("fetch-ptrs", self.fetch_ptrs),
            ("apply", self.apply),
            ("writeback", self.writeback),
            ("stream/productive", self.stream_productive),
            ("stream/raw-hazard", self.stream_raw_hazard),
            ("stream/moms-backpressure", self.stream_backpressure),
            ("stream/id-starved", self.stream_id_starved),
            ("stream/moms-wait", self.stream_moms_wait),
            ("stream/dram-wait", self.stream_dram_wait),
            ("stream/drain", self.stream_drain),
            ("link/barrier-wait", self.link_wait),
        ]
    }
}

#[derive(Debug, Clone, Copy)]
enum Burst {
    InitVin { start: u32, len: u32 },
    InitConst { len: u32 },
    Ptrs,
    Edges { shard: usize, addr: u64, lines: u32 },
    Write,
}

#[derive(Debug, Clone, Copy)]
struct ShardInfo {
    s: usize,
    base_addr: u64,
    edges: u64,
}

#[derive(Debug, Clone, Copy)]
struct EdgeItem {
    /// Global source node id.
    src: u32,
    /// Offset within the destination interval.
    dst_off: u16,
    /// Edge weight (1 when unweighted).
    w: u32,
}

#[derive(Debug, Clone, Copy)]
struct GatherIn {
    dst_off: u16,
    src_val: u32,
    w: u32,
}

/// One processing element. Drive with [`tick`](Self::tick); exchange DMA
/// bursts via [`pop_dram_request`](Self::pop_dram_request) /
/// [`burst_complete`](Self::burst_complete); collect results with
/// [`take_result`](Self::take_result).
#[derive(Debug)]
pub struct Pe {
    cfg: PeConfig,
    phase: Phase,
    job: Option<Job>,
    bram: Vec<[u32; 2]>,

    // DMA
    dram_out: VecDeque<PeDramReq>,
    outstanding: HashMap<u64, Burst>,
    next_tag: u64,
    ordered_burst_outstanding: bool,
    edge_bursts_outstanding: usize,

    // Init
    init_req_cursor: u32,
    init_done_cursor: u32,
    init_avail: u32,
    init_vin_pending: Option<(u32, u32)>,

    // Shards / streaming
    shards: Vec<ShardInfo>,
    shard_cursor: usize,
    shard_addr_cursor: u64,
    edge_q: VecDeque<EdgeItem>,
    edge_q_words: usize,
    edge_q_reserved: usize,

    // MOMS interface
    free_ids: VecDeque<u16>,
    state_mem: Vec<(u16, u32)>,
    inflight_moms: usize,
    moms_gather_q: VecDeque<GatherIn>,
    local_q: VecDeque<GatherIn>,

    // Gather pipeline
    pipe: VecDeque<(Cycle, GatherIn)>,
    inflight_dst: Vec<u16>,

    // Apply / writeback
    apply_cursor: u32,
    wb_cursor: u32,

    updated: bool,
    edges_done: u64,
    result: Option<JobResult>,
    stats: Stats,
    counters: PeCounters,
    breakdown: PeCycleBreakdown,
    tracer: Tracer,
}

/// Hot-path event counters kept as plain fields: these are bumped every
/// cycle or every edge, where a name-keyed [`Stats`] lookup would
/// dominate the simulation loop. [`Pe::stats`] folds them into the
/// exported registry under their usual names.
#[derive(Debug, Clone, Copy, Default)]
struct PeCounters {
    busy_cycles: u64,
    raw_stalls: u64,
    local_reads: u64,
    moms_reads: u64,
    moms_backpressure: u64,
    id_starved: u64,
    edges_processed: u64,
}

impl Pe {
    /// Creates an idle PE.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: PeConfig) -> Self {
        cfg.validate();
        Pe {
            bram: vec![[0, 0]; cfg.bram_nodes as usize],
            inflight_dst: vec![0; cfg.bram_nodes as usize],
            free_ids: (0..cfg.id_slots as u16).collect(),
            state_mem: vec![(0, 0); cfg.id_slots],
            dram_out: VecDeque::new(),
            outstanding: HashMap::new(),
            next_tag: 0,
            ordered_burst_outstanding: false,
            edge_bursts_outstanding: 0,
            init_req_cursor: 0,
            init_done_cursor: 0,
            init_avail: 0,
            init_vin_pending: None,
            shards: Vec::new(),
            shard_cursor: 0,
            shard_addr_cursor: 0,
            edge_q: VecDeque::new(),
            edge_q_words: 0,
            edge_q_reserved: 0,
            inflight_moms: 0,
            moms_gather_q: VecDeque::new(),
            local_q: VecDeque::new(),
            pipe: VecDeque::new(),
            apply_cursor: 0,
            wb_cursor: 0,
            updated: false,
            edges_done: 0,
            result: None,
            phase: Phase::Idle,
            job: None,
            stats: Stats::new(),
            counters: PeCounters::default(),
            breakdown: PeCycleBreakdown::default(),
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// `true` when the PE can pull a new job.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle) && self.result.is_none()
    }

    /// Accepts a job.
    ///
    /// # Panics
    ///
    /// Panics if the PE is busy or the interval exceeds its BRAM.
    pub fn start_job(&mut self, job: Job) {
        assert!(self.is_idle(), "PE is busy");
        assert!(
            job.d_len <= self.cfg.bram_nodes,
            "interval of {} nodes exceeds BRAM of {}",
            job.d_len,
            self.cfg.bram_nodes
        );
        self.phase = Phase::Init;
        self.init_req_cursor = 0;
        self.init_done_cursor = 0;
        self.init_avail = 0;
        self.init_vin_pending = None;
        self.shards.clear();
        self.shard_cursor = 0;
        self.shard_addr_cursor = 0;
        self.apply_cursor = 0;
        self.wb_cursor = 0;
        self.updated = false;
        self.edges_done = 0;
        for c in self.inflight_dst.iter_mut() {
            *c = 0;
        }
        self.job = Some(job);
        self.stats.inc("jobs");
    }

    /// Takes the completion report of the last finished job, if any.
    pub fn take_result(&mut self) -> Option<JobResult> {
        self.result.take()
    }

    /// Next DMA burst to place on the memory system, if any.
    pub fn pop_dram_request(&mut self) -> Option<PeDramReq> {
        self.dram_out.pop_front()
    }

    /// Counters: `edges_processed`, `raw_stalls`, `moms_backpressure`,
    /// `id_starved`, `local_reads`, `moms_reads`, `jobs`, `busy_cycles`.
    ///
    /// Built on demand: the hot counters live in plain fields
    /// (`PeCounters`) and are folded in here, keeping the per-tick path
    /// free of name lookups. As with direct `Stats` use, a counter that
    /// never fired has no entry.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        let c = &self.counters;
        for (name, v) in [
            ("busy_cycles", c.busy_cycles),
            ("edges_processed", c.edges_processed),
            ("id_starved", c.id_starved),
            ("local_reads", c.local_reads),
            ("moms_backpressure", c.moms_backpressure),
            ("moms_reads", c.moms_reads),
            ("raw_stalls", c.raw_stalls),
        ] {
            if v > 0 {
                s.add(name, v);
            }
        }
        s
    }

    /// Exhaustive per-cycle attribution accumulated since construction.
    pub fn cycle_breakdown(&self) -> PeCycleBreakdown {
        self.breakdown
    }

    /// Installs an event tracer (observing only — never alters timing).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Records an event on this PE's trace track; used by the system for
    /// job-boundary events that happen outside [`tick`](Self::tick).
    pub fn trace_event(&mut self, now: Cycle, kind: EventKind, arg: u64) {
        self.tracer.event(now, kind, arg);
    }

    /// Drains this PE's recorded event stream in time order.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// The last `n` recorded events without draining the ring.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.tracer.tail(n)
    }

    /// Events lost to ring wraparound.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// One-line phase and queue-occupancy summary for watchdog
    /// diagnostics.
    pub fn diagnostic(&self) -> String {
        let phase = match self.phase {
            Phase::Idle => "idle",
            Phase::Init => "init",
            Phase::FetchPtrs => "fetch-ptrs",
            Phase::Stream => "stream",
            Phase::Apply => "apply",
            Phase::Writeback => "writeback",
        };
        format!(
            "phase={} dram_out={} bursts_out={} edge_q={} inflight_moms={} \
             gather_q={} local_q={} pipe={} free_ids={}/{}",
            phase,
            self.dram_out.len(),
            self.outstanding.len(),
            self.edge_q.len(),
            self.inflight_moms,
            self.moms_gather_q.len(),
            self.local_q.len(),
            self.pipe.len(),
            self.free_ids.len(),
            self.cfg.id_slots,
        )
    }

    /// Earliest future cycle at which this PE can make progress *on its
    /// own* — without a MOMS response, DRAM burst completion, or new job
    /// arriving. `None` means the PE is inert: ticking it any number of
    /// times changes nothing observable (no state, no stats, no trace
    /// events) until some external completion lands. `Some(now + 1)` is
    /// the conservative "cannot prove inert" answer.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.dram_out.is_empty() {
            // The system moves these into channel queues every cycle.
            return Some(now + 1);
        }
        match self.phase {
            // An idle PE only acts when the scheduler hands it a job; the
            // system accounts for pullable jobs separately.
            Phase::Idle => None,
            Phase::Init => {
                if self.ordered_burst_outstanding && self.init_done_cursor == self.init_avail {
                    None // waiting purely on the vin/vconst burst
                } else {
                    Some(now + 1) // would issue a burst or fill BRAM
                }
            }
            Phase::FetchPtrs => {
                if self.ordered_burst_outstanding {
                    None // waiting purely on the pointer burst
                } else {
                    Some(now + 1)
                }
            }
            Phase::Stream => {
                // Any queued gather input or edge means the next tick
                // issues, consumes, or records a stall — all observable.
                if !self.moms_gather_q.is_empty()
                    || !self.local_q.is_empty()
                    || !self.edge_q.is_empty()
                {
                    return Some(now + 1);
                }
                // issue_dma may start another edge burst.
                if self.shard_cursor < self.shards.len()
                    && self.edge_bursts_outstanding < self.cfg.edge_tags
                {
                    return Some(now + 1);
                }
                // Only the gather pipeline can act by itself, at its
                // front's maturity; otherwise we wait on MOMS/DRAM.
                self.pipe.front().map(|&(ready, _)| ready.max(now + 1))
            }
            Phase::Apply => Some(now + 1), // makes progress every cycle
            Phase::Writeback => {
                if self.ordered_burst_outstanding {
                    None // waiting purely on the write acknowledgement
                } else {
                    Some(now + 1)
                }
            }
        }
    }

    /// Books `gap` skipped cycles into the statistics and attribution
    /// classes the next `gap` ticks would have charged. Only valid while
    /// the PE is inert (see [`next_event`](Self::next_event)): the charged
    /// class is a pure function of the frozen state, exactly as in
    /// [`tick`](Self::tick).
    pub fn credit_inert_cycles(&mut self, gap: u64) {
        if gap == 0 {
            return;
        }
        if !matches!(self.phase, Phase::Idle) {
            self.counters.busy_cycles += gap;
        }
        match self.phase {
            Phase::Idle => self.breakdown.idle += gap,
            Phase::Init => self.breakdown.init += gap,
            Phase::FetchPtrs => self.breakdown.fetch_ptrs += gap,
            Phase::Apply => self.breakdown.apply += gap,
            Phase::Writeback => self.breakdown.writeback += gap,
            Phase::Stream => {
                // Mirrors the no-progress arm of `tick_stream`'s
                // attribution: an inert stream cycle has empty queues, so
                // the raw/backpressure/starved observations cannot fire.
                if self.inflight_moms > 0 {
                    self.breakdown.stream_moms_wait += gap;
                } else if self.edge_bursts_outstanding > 0 || !self.edge_q.is_empty() {
                    self.breakdown.stream_dram_wait += gap;
                } else {
                    self.breakdown.stream_drain += gap;
                }
            }
        }
    }

    /// Books `gap` cycles spent parked at a fabric iteration barrier
    /// (waiting on slower devices or the link exchange). Unlike
    /// [`credit_inert_cycles`](Self::credit_inert_cycles) this is not an
    /// attribution of the PE's own state — the device clock is being
    /// advanced from outside — so the whole gap lands in the dedicated
    /// `link_wait` class.
    pub fn credit_link_wait(&mut self, gap: u64) {
        self.breakdown.link_wait += gap;
    }

    fn alloc_tag(&mut self, kind: Burst) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.outstanding.insert(tag, kind);
        tag
    }

    /// Notifies the PE that every segment of burst `tag` completed; the PE
    /// reads/decodes the relevant data from `img` functionally.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tag.
    pub fn burst_complete(&mut self, tag: u64, img: &MemImage) {
        let kind = self.outstanding.remove(&tag).expect("unknown burst tag");
        match kind {
            Burst::InitVin { start, len } => {
                self.ordered_burst_outstanding = false;
                let job = self.job.as_ref().expect("job in flight");
                if job.vconst_base.is_some() {
                    // Constants travel in a second burst before the chunk
                    // becomes available.
                    self.init_vin_pending = Some((start, len));
                } else {
                    self.init_avail += len;
                }
            }
            Burst::InitConst { len } => {
                self.ordered_burst_outstanding = false;
                let vin_chunk = self.init_vin_pending.take();
                debug_assert!(vin_chunk.is_some(), "const burst without vin chunk");
                self.init_avail += len;
            }
            Burst::Ptrs => {
                self.ordered_burst_outstanding = false;
                self.parse_pointers(img);
            }
            Burst::Edges { shard, addr, lines } => {
                self.edge_bursts_outstanding -= 1;
                self.edge_q_reserved -= lines as usize * 16;
                self.decode_edges(shard, addr, lines, img);
            }
            Burst::Write => {
                self.ordered_burst_outstanding = false;
            }
        }
    }

    fn parse_pointers(&mut self, img: &MemImage) {
        let job = self.job.as_ref().expect("job in flight");
        for s in 0..job.qs {
            let p = EdgePointer(img.read_u64(job.ptr_base + s as u64 * 8));
            if p.active() && p.edge_count() > 0 {
                self.shards.push(ShardInfo {
                    s,
                    base_addr: p.byte_addr(),
                    edges: p.edge_count(),
                });
            }
        }
        if self.shards.is_empty() {
            self.phase = Phase::Apply;
        } else {
            self.phase = Phase::Stream;
            self.shard_cursor = 0;
            self.shard_addr_cursor = self.shards[0].base_addr;
        }
    }

    fn words_per_edge(&self) -> u64 {
        if self.job.as_ref().is_some_and(|j| j.weighted) {
            2
        } else {
            1
        }
    }

    fn decode_edges(&mut self, shard: usize, addr: u64, lines: u32, img: &MemImage) {
        let wpe = self.words_per_edge();
        let info = self.shards[shard];
        let job = self.job.as_ref().expect("job in flight");
        let s_base = info.s as u32 * job.ns;
        let first_word = (addr - info.base_addr) / 4;
        let last_word = first_word + lines as u64 * 16;
        let first_edge = first_word / wpe;
        let last_edge = (last_word / wpe).min(info.edges);
        for e in first_edge..last_edge {
            let word_addr = info.base_addr + e * wpe * 4;
            let bits = img.read_u32(word_addr);
            let edge = graph::partition::CompressedEdge::from_bits(bits);
            debug_assert!(!edge.is_terminating(), "terminator before edge count");
            let w = if wpe == 2 {
                img.read_u32(word_addr + 4)
            } else {
                1
            };
            self.edge_q.push_back(EdgeItem {
                src: s_base + edge.src_offset(),
                dst_off: edge.dst_offset() as u16,
                w,
            });
            self.edge_q_words += wpe as usize;
        }
    }

    /// Issues phase-appropriate DMA bursts.
    fn issue_dma(&mut self, now: Cycle) {
        let Some(job) = self.job.clone() else { return };
        match self.phase {
            Phase::Init => {
                if self.ordered_burst_outstanding {
                    return;
                }
                if let Some((start, len)) = self.init_vin_pending {
                    // Matching V_const burst for the chunk in flight.
                    let base = job.vconst_base.expect("pending implies const");
                    let (addr, lines) = span_lines(base, job.d_base + start, len);
                    let tag = self.alloc_tag(Burst::InitConst { len });
                    self.dram_out.push_back(PeDramReq {
                        tag,
                        addr,
                        lines,
                        write: false,
                    });
                    self.ordered_burst_outstanding = true;
                    return;
                }
                if self.init_req_cursor < job.d_len {
                    // Keep one line of slack so misaligned spans stay ≤32.
                    let chunk_nodes =
                        (self.cfg.max_burst_lines * 16 - 16).min(job.d_len - self.init_req_cursor);
                    let start = self.init_req_cursor;
                    let (addr, lines) = span_lines(job.vin_base, job.d_base + start, chunk_nodes);
                    let tag = self.alloc_tag(Burst::InitVin {
                        start,
                        len: chunk_nodes,
                    });
                    self.dram_out.push_back(PeDramReq {
                        tag,
                        addr,
                        lines,
                        write: false,
                    });
                    self.ordered_burst_outstanding = true;
                    self.init_req_cursor += chunk_nodes;
                }
            }
            Phase::FetchPtrs => {
                // The pointer burst is in flight until parse_pointers
                // switches the phase, so the guard below fires only once.
                if self.ordered_burst_outstanding {
                    return;
                }
                let bytes = job.qs as u64 * 8;
                let start = job.ptr_base / 64 * 64;
                let end = (job.ptr_base + bytes).div_ceil(64) * 64;
                let total_lines = ((end - start) / 64) as u32;
                assert!(
                    total_lines <= self.cfg.max_burst_lines,
                    "Qs = {} exceeds one pointer burst; use larger Ns",
                    job.qs
                );
                let tag = self.alloc_tag(Burst::Ptrs);
                self.dram_out.push_back(PeDramReq {
                    tag,
                    addr: start,
                    lines: total_lines,
                    write: false,
                });
                self.ordered_burst_outstanding = true;
            }
            Phase::Stream => {
                while self.edge_bursts_outstanding < self.cfg.edge_tags
                    && self.shard_cursor < self.shards.len()
                {
                    let info = self.shards[self.shard_cursor];
                    let wpe = self.words_per_edge();
                    let shard_bytes = (info.edges + 1) * wpe * 4;
                    let shard_end = info.base_addr + shard_bytes;
                    if self.shard_addr_cursor >= shard_end {
                        self.shard_cursor += 1;
                        if self.shard_cursor < self.shards.len() {
                            self.shard_addr_cursor = self.shards[self.shard_cursor].base_addr;
                        }
                        continue;
                    }
                    let remaining_lines = (shard_end - self.shard_addr_cursor).div_ceil(64) as u32;
                    let lines = remaining_lines.min(self.cfg.max_burst_lines);
                    // Edge-queue credit (in words) for the whole burst.
                    let need = lines as usize * 16;
                    let used = self.edge_q_words + self.edge_q_reserved;
                    if used + need > self.cfg.edge_queue_words {
                        break;
                    }
                    self.edge_q_reserved += need;
                    let tag = self.alloc_tag(Burst::Edges {
                        shard: self.shard_cursor,
                        addr: self.shard_addr_cursor,
                        lines,
                    });
                    self.dram_out.push_back(PeDramReq {
                        tag,
                        addr: self.shard_addr_cursor,
                        lines,
                        write: false,
                    });
                    self.shard_addr_cursor += lines as u64 * 64;
                    self.edge_bursts_outstanding += 1;
                }
            }
            Phase::Writeback => {
                if self.ordered_burst_outstanding {
                    return;
                }
                if self.wb_cursor < job.d_len {
                    let chunk =
                        (self.cfg.max_burst_lines * 16 - 16).min(job.d_len - self.wb_cursor);
                    let (addr, lines) =
                        span_lines(job.vout_base, job.d_base + self.wb_cursor, chunk);
                    let tag = self.alloc_tag(Burst::Write);
                    self.dram_out.push_back(PeDramReq {
                        tag,
                        addr,
                        lines,
                        write: true,
                    });
                    self.ordered_burst_outstanding = true;
                    self.wb_cursor += chunk;
                } else if self.outstanding.is_empty() {
                    // All write bursts acknowledged: job done.
                    let job = self.job.take().expect("job in flight");
                    self.tracer.event(now, EventKind::PeJobDone, job.d as u64);
                    self.result = Some(JobResult {
                        d: job.d,
                        updated: self.updated,
                        edges: self.edges_done,
                    });
                    self.phase = Phase::Idle;
                }
            }
            Phase::Idle | Phase::Apply => {}
        }
    }

    /// Advances one cycle; exchanges irregular reads with the MOMS and
    /// reads/writes the functional image.
    pub fn tick(&mut self, now: Cycle, img: &mut MemImage, moms: &mut MomsSystem, pe_idx: usize) {
        if !matches!(self.phase, Phase::Idle) {
            self.counters.busy_cycles += 1;
        }
        // Attribute this cycle to the phase it started in; stream cycles
        // are sub-classified inside `tick_stream`.
        match self.phase {
            Phase::Idle => self.breakdown.idle += 1,
            Phase::Init => self.breakdown.init += 1,
            Phase::FetchPtrs => self.breakdown.fetch_ptrs += 1,
            Phase::Apply => self.breakdown.apply += 1,
            Phase::Writeback => self.breakdown.writeback += 1,
            Phase::Stream => {}
        }
        self.issue_dma(now);

        match self.phase {
            Phase::Init => self.tick_init(img),
            Phase::Stream => self.tick_stream(now, img, moms, pe_idx),
            Phase::Apply => self.tick_apply(img),
            _ => {}
        }
    }

    fn tick_init(&mut self, img: &MemImage) {
        let Some(job) = self.job.clone() else { return };
        let mut budget = self.cfg.init_rate;
        while budget > 0 && self.init_done_cursor < self.init_avail {
            let i = self.init_done_cursor;
            let node = job.d_base + i;
            let vin = img.read_u32(job.vin_base + node as u64 * 4);
            let vc = job
                .vconst_base
                .map_or(0, |b| img.read_u32(b + node as u64 * 4));
            self.bram[i as usize] = job.algo.init(vc, vin);
            self.init_done_cursor += 1;
            budget -= 1;
        }
        if self.init_done_cursor == job.d_len {
            self.phase = Phase::FetchPtrs;
        }
    }

    fn tick_stream(
        &mut self,
        now: Cycle,
        img: &mut MemImage,
        moms: &mut MomsSystem,
        pe_idx: usize,
    ) {
        let job = self.job.clone().expect("job in flight");
        let latency = job.algo.gather_latency();
        // Cycle-attribution observations (read at the bottom; exactly one
        // breakdown class is charged per stream cycle).
        let mut progressed = false;
        let mut raw_blocked = false;
        let mut backpressured = false;
        let mut starved = false;

        // 1. Retire one gather per cycle.
        if let Some(&(ready, g)) = self.pipe.front() {
            if ready <= now {
                self.pipe.pop_front();
                // Release the RAW hazard slot taken at issue.
                self.inflight_dst[g.dst_off as usize] -= 1;
                self.apply_gather_direct(&job, g);
                self.tracer
                    .event(now, EventKind::PeRetire, g.dst_off as u64);
                progressed = true;
            }
        }

        // 2. Issue one gather per cycle: MOMS responses first (draining
        //    the MOMS frees subentries), then local-BRAM edges.
        let issued_from = if self
            .moms_gather_q
            .front()
            .is_some_and(|g| self.can_issue(g, latency))
        {
            Some(true)
        } else if self
            .local_q
            .front()
            .is_some_and(|g| self.can_issue(g, latency))
        {
            Some(false)
        } else {
            if !self.moms_gather_q.is_empty() || !self.local_q.is_empty() {
                self.counters.raw_stalls += 1;
                raw_blocked = true;
                let waiting = (self.moms_gather_q.len() + self.local_q.len()) as u64;
                self.tracer.event(now, EventKind::PeStallRaw, waiting);
            }
            None
        };
        if let Some(from_moms) = issued_from {
            let g = if from_moms {
                self.moms_gather_q.pop_front().expect("checked nonempty")
            } else {
                self.local_q.pop_front().expect("checked nonempty")
            };
            self.tracer.event(now, EventKind::PeIssue, g.dst_off as u64);
            progressed = true;
            if latency == 0 {
                self.apply_gather_direct(&job, g);
            } else {
                self.inflight_dst[g.dst_off as usize] += 1;
                self.pipe.push_back((now + latency, g));
            }
        }

        // 3. Accept one MOMS response.
        if let Some(resp) = moms.pop_response(pe_idx) {
            progressed = true;
            let src_val = img.read_u32(resp.line * 64 + resp.word as u64 * 4);
            let (dst_off, w) = if job.weighted {
                let (d, w) = self.state_mem[resp.id as usize];
                self.free_ids.push_back(resp.id as u16);
                (d, w)
            } else {
                (resp.id as u16, 1)
            };
            self.inflight_moms -= 1;
            self.moms_gather_q.push_back(GatherIn {
                dst_off,
                src_val,
                w,
            });
        }

        // 4. Consume one edge from the edge queue.
        if let Some(&e) = self.edge_q.front() {
            let local = job.use_local_src && e.src >= job.d_base && e.src < job.d_base + job.d_len;
            let wpe = self.words_per_edge() as usize;
            if local {
                if self.local_q.len() < 16 {
                    let src_val = job
                        .algo
                        .local_src_value(self.bram[(e.src - job.d_base) as usize]);
                    self.local_q.push_back(GatherIn {
                        dst_off: e.dst_off,
                        src_val,
                        w: e.w,
                    });
                    self.edge_q.pop_front();
                    self.edge_q_words -= wpe;
                    self.counters.local_reads += 1;
                    progressed = true;
                }
            } else {
                let id = if job.weighted {
                    match self.free_ids.front() {
                        Some(&id) => Some(id),
                        None => {
                            self.counters.id_starved += 1;
                            starved = true;
                            self.tracer
                                .event(now, EventKind::PeStallIdStarved, e.src as u64);
                            None
                        }
                    }
                } else {
                    Some(e.dst_off)
                };
                if let Some(id) = id {
                    let addr = job.vin_base + e.src as u64 * 4;
                    let req = MomsReq {
                        line: addr / 64,
                        word: ((addr % 64) / 4) as u8,
                        id: id as u32,
                    };
                    if moms.try_request(pe_idx, req) {
                        if job.weighted {
                            self.free_ids.pop_front();
                            self.state_mem[id as usize] = (e.dst_off, e.w);
                        }
                        self.inflight_moms += 1;
                        self.edge_q.pop_front();
                        self.edge_q_words -= wpe;
                        self.counters.moms_reads += 1;
                        progressed = true;
                    } else {
                        self.counters.moms_backpressure += 1;
                        backpressured = true;
                        self.tracer
                            .event(now, EventKind::PeStallBackpressure, req.line);
                    }
                }
            }
        }

        // Charge exactly one attribution class for this stream cycle.
        // Priority: any forward progress wins; otherwise the most specific
        // observed blocker; otherwise whatever the PE is waiting on.
        if progressed {
            self.breakdown.stream_productive += 1;
        } else if raw_blocked {
            self.breakdown.stream_raw_hazard += 1;
        } else if backpressured {
            self.breakdown.stream_backpressure += 1;
        } else if starved {
            self.breakdown.stream_id_starved += 1;
        } else if self.inflight_moms > 0 {
            self.breakdown.stream_moms_wait += 1;
        } else if self.edge_bursts_outstanding > 0 || !self.edge_q.is_empty() {
            self.breakdown.stream_dram_wait += 1;
        } else {
            self.breakdown.stream_drain += 1;
        }

        // 5. Transition out when everything drained.
        let streaming_done = self.shard_cursor >= self.shards.len()
            && self.edge_bursts_outstanding == 0
            && self.edge_q.is_empty()
            && self.local_q.is_empty()
            && self.moms_gather_q.is_empty()
            && self.inflight_moms == 0
            && self.pipe.is_empty();
        if streaming_done {
            self.phase = Phase::Apply;
        }
    }

    fn can_issue(&self, g: &GatherIn, latency: u64) -> bool {
        latency == 0 || self.inflight_dst[g.dst_off as usize] == 0
    }

    fn apply_gather_direct(&mut self, job: &Job, g: GatherIn) {
        let dst = g.dst_off as usize;
        let out = job.algo.gather(g.src_val, self.bram[dst], g.w);
        self.bram[dst] = out.state;
        if out.updated {
            self.updated = true;
        }
        self.edges_done += 1;
        self.counters.edges_processed += 1;
    }

    fn tick_apply(&mut self, img: &mut MemImage) {
        let Some(job) = self.job.clone() else { return };
        let mut budget = self.cfg.writeback_rate;
        while budget > 0 && self.apply_cursor < job.d_len {
            let i = self.apply_cursor;
            let v = job.algo.apply(job.num_nodes, self.bram[i as usize]);
            img.write_u32(job.vout_base + (job.d_base + i) as u64 * 4, v);
            self.apply_cursor += 1;
            budget -= 1;
        }
        if self.apply_cursor == job.d_len {
            self.phase = Phase::Writeback;
            self.wb_cursor = 0;
        }
    }
}

/// Byte address and line count covering `len` 32-bit values starting at
/// element `first` of an array at `base` (line-aligned rounding).
fn span_lines(base: u64, first: u32, len: u32) -> (u64, u32) {
    let start = base + first as u64 * 4;
    let end = start + len as u64 * 4;
    let astart = start / 64 * 64;
    let aend = end.div_ceil(64) * 64;
    (astart, ((aend - astart) / 64) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_aligned() {
        let (addr, lines) = span_lines(0, 0, 16);
        assert_eq!(addr, 0);
        assert_eq!(lines, 1);
    }

    #[test]
    fn span_lines_misaligned_rounds_out() {
        // Elements 15..31 straddle two lines.
        let (addr, lines) = span_lines(0, 15, 16);
        assert_eq!(addr, 0);
        assert_eq!(lines, 2);
    }

    #[test]
    fn span_lines_with_base_offset() {
        let (addr, lines) = span_lines(128, 0, 16);
        assert_eq!(addr, 128);
        assert_eq!(lines, 1);
    }

    #[test]
    fn pe_starts_idle_and_rejects_oversized_jobs() {
        let mut pe = Pe::new(PeConfig {
            bram_nodes: 8,
            ..PeConfig::default()
        });
        assert!(pe.is_idle());
        let job = Job {
            d: 0,
            d_base: 0,
            d_len: 16,
            vin_base: 0,
            vconst_base: None,
            vout_base: 0,
            ptr_base: 0,
            qs: 1,
            ns: 16,
            weighted: false,
            use_local_src: true,
            algo: Algorithm::Scc,
            num_nodes: 16,
        };
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pe.start_job(job);
        }));
        assert!(res.is_err(), "oversized interval must be rejected");
    }

    #[test]
    fn burst_tags_are_unique() {
        let mut pe = Pe::new(PeConfig::default());
        let a = pe.alloc_tag(Burst::Ptrs);
        let b = pe.alloc_tag(Burst::Write);
        assert_ne!(a, b);
    }
}
