//! Multi-channel memory system with address interleaving.

use simkit::trace::{TraceConfig, TraceEvent, Tracer, Track};
use simkit::{Cycle, Stats};

use crate::channel::{DramChannel, DramChannelSnapshot, DramRequest, DramResponse};
use crate::config::DramConfig;

/// Bytes per memory line (512-bit DRAM port word).
pub const LINE_BYTES: u64 = 64;

/// Channel interleave granularity of the global address space (§IV-B:
/// "we interleave the addresses of each channel every 2,048 bytes").
pub const INTERLEAVE_BYTES: u64 = 2048;

/// A set of [`DramChannel`]s behind a flat, channel-interleaved address
/// space.
///
/// The global address seen by PEs maps to `(channel, local address)` with
/// 2,048 B granularity. Requests must not cross an interleave boundary —
/// use [`MemorySystem::split_burst`] to segment larger bursts the way the
/// hardware's burst splitter does.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    channels: Vec<DramChannel>,
}

impl MemorySystem {
    /// Creates `num_channels` identical channels.
    ///
    /// # Panics
    ///
    /// Panics if `num_channels` is zero.
    pub fn new(cfg: DramConfig, num_channels: usize) -> Self {
        assert!(num_channels > 0, "at least one channel required");
        MemorySystem {
            channels: (0..num_channels)
                .map(|_| DramChannel::new(cfg.clone()))
                .collect(),
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Maps a global byte address to `(channel index, channel-local address)`.
    #[inline]
    pub fn route(&self, addr: u64) -> (usize, u64) {
        let n = self.channels.len() as u64;
        let block = addr / INTERLEAVE_BYTES;
        let channel = (block % n) as usize;
        let local_block = block / n;
        let local = local_block * INTERLEAVE_BYTES + addr % INTERLEAVE_BYTES;
        (channel, local)
    }

    /// Splits a burst of `lines` 64 B lines starting at global `addr` into
    /// per-channel segments that each stay within one interleave block.
    ///
    /// Yields `(channel, local_addr, lines, global_addr)` tuples in
    /// address order, without allocating.
    pub fn split_burst(
        &self,
        addr: u64,
        lines: u32,
    ) -> impl Iterator<Item = (usize, u64, u32, u64)> + '_ {
        let mut cur = addr;
        let mut remaining = lines as u64;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let block_end = (cur / INTERLEAVE_BYTES + 1) * INTERLEAVE_BYTES;
            let lines_in_block = ((block_end - cur) / LINE_BYTES).max(1).min(remaining);
            let (ch, local) = self.route(cur);
            let seg = (ch, local, lines_in_block as u32, cur);
            cur += lines_in_block * LINE_BYTES;
            remaining -= lines_in_block;
            Some(seg)
        })
    }

    /// `true` when channel `ch` can accept a request this cycle.
    #[inline]
    pub fn can_accept(&self, ch: usize) -> bool {
        self.channels[ch].can_accept()
    }

    /// Enqueues `req` whose `addr` is a *global* address (must not cross an
    /// interleave boundary).
    ///
    /// # Errors
    ///
    /// Returns the request back if the owning channel's queue is full.
    pub fn push_request(&mut self, _now: Cycle, req: DramRequest) -> Result<(), DramRequest> {
        let (ch, local) = self.route(req.addr);
        let end = req.addr + req.bytes() - 1;
        debug_assert_eq!(
            req.addr / INTERLEAVE_BYTES,
            end / INTERLEAVE_BYTES,
            "request crosses interleave boundary; use split_burst"
        );
        let local_req = DramRequest { addr: local, ..req };
        self.channels[ch]
            .push_request(local_req)
            .map_err(|r| DramRequest {
                addr: req.addr,
                ..r
            })
    }

    /// Pops a response from channel `ch` if one has matured.
    ///
    /// The response's `addr` is channel-local; issuers match on `id`.
    #[inline]
    pub fn pop_response(&mut self, now: Cycle, ch: usize) -> Option<DramResponse> {
        self.channels[ch].pop_response(now)
    }

    /// Advances every channel one cycle.
    pub fn tick(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.tick(now);
        }
    }

    /// `true` when every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Earliest future cycle at which any channel can change observable
    /// state; `None` when the whole memory system is idle.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.channels.iter().filter_map(|c| c.next_event(now)).min()
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for c in &self.channels {
            s.merge(&c.stats());
        }
        s
    }

    /// Point-in-time view of every channel's counters, in channel order.
    pub fn snapshot(&self) -> Vec<DramChannelSnapshot> {
        self.channels.iter().map(|c| c.snapshot()).collect()
    }

    /// Installs event tracers on every channel (tracks `dram.ch[i]`).
    pub fn enable_event_tracing(&mut self, cfg: &TraceConfig) {
        for (i, c) in self.channels.iter_mut().enumerate() {
            c.set_tracer(Tracer::for_track(Track::dram(i), cfg));
        }
    }

    /// Drains every channel's event stream, one `Vec` per channel in
    /// channel order.
    pub fn take_trace_events(&mut self) -> Vec<Vec<TraceEvent>> {
        self.channels
            .iter_mut()
            .map(|c| c.take_trace_events())
            .collect()
    }

    /// The last `n` events across all channels, merged in time order.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        let merged =
            simkit::trace::merge_events(self.channels.iter().map(|c| c.trace_tail(n)).collect());
        let skip = merged.len().saturating_sub(n);
        merged.into_iter().skip(skip).collect()
    }

    /// Events lost to ring wraparound, summed over channels.
    pub fn trace_dropped(&self) -> u64 {
        self.channels.iter().map(|c| c.trace_dropped()).sum()
    }

    /// Transactions queued or awaiting completion across all channels,
    /// for occupancy sampling.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Per-channel queue and bus state as a watchdog diagnostic section.
    pub fn diagnostic(&self) -> simkit::watchdog::DiagnosticSection {
        let mut s = simkit::watchdog::DiagnosticSection::new("dram");
        for (i, c) in self.channels.iter().enumerate() {
            s.push(format!("channel[{i}]"), c.diagnostic());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_interleaves_every_2048_bytes() {
        let m = MemorySystem::new(DramConfig::default(), 4);
        assert_eq!(m.route(0).0, 0);
        assert_eq!(m.route(2047).0, 0);
        assert_eq!(m.route(2048).0, 1);
        assert_eq!(m.route(4096).0, 2);
        assert_eq!(m.route(6144).0, 3);
        assert_eq!(m.route(8192).0, 0);
        // Local addresses are compacted.
        assert_eq!(m.route(8192).1, 2048);
    }

    #[test]
    fn route_single_channel_is_identity() {
        let m = MemorySystem::new(DramConfig::default(), 1);
        for addr in [0u64, 64, 2048, 1 << 20] {
            assert_eq!(m.route(addr), (0, addr));
        }
    }

    #[test]
    fn split_burst_respects_boundaries() {
        let m = MemorySystem::new(DramConfig::default(), 2);
        // 64-line (4096 B) burst starting at 1024: spans three blocks.
        let segs: Vec<_> = m.split_burst(1024, 64).collect();
        let total: u32 = segs.iter().map(|s| s.2).sum();
        assert_eq!(total, 64);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], (0, 1024, 16, 1024));
        assert_eq!(segs[1].0, 1); // next block on channel 1
        assert_eq!(segs[1].2, 32);
        assert_eq!(segs[2].2, 16);
    }

    #[test]
    fn split_burst_aligned_single_segment() {
        let m = MemorySystem::new(DramConfig::default(), 4);
        let segs: Vec<_> = m.split_burst(2048, 32).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].2, 32);
    }

    #[test]
    fn requests_complete_on_their_channel() {
        let mut m = MemorySystem::new(DramConfig::default(), 2);
        m.push_request(0, DramRequest::read(1, 2048, 1)).unwrap();
        let mut now = 0;
        loop {
            m.tick(now);
            assert!(m.pop_response(now, 0).is_none(), "wrong channel");
            if let Some(r) = m.pop_response(now, 1) {
                assert_eq!(r.id, 1);
                break;
            }
            now += 1;
            assert!(now < 10_000);
        }
    }

    #[test]
    fn channels_serve_in_parallel() {
        // The same number of lines spread over 4 channels should finish
        // roughly 4x faster than on one channel.
        let lines = 256u64;
        let run = |nch: usize| -> Cycle {
            let mut m = MemorySystem::new(DramConfig::default(), nch);
            let mut pending: Vec<DramRequest> = (0..lines)
                .map(|i| DramRequest::read(i, i * 2048, 1))
                .collect();
            pending.reverse();
            let mut now = 0;
            let mut done = 0;
            while done < lines {
                while let Some(req) = pending.pop() {
                    if let Err(back) = m.push_request(now, req) {
                        pending.push(back);
                        break;
                    }
                }
                m.tick(now);
                for ch in 0..nch {
                    while m.pop_response(now, ch).is_some() {
                        done += 1;
                    }
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            now
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            (t1 as f64) > 3.0 * t4 as f64,
            "1ch {t1} vs 4ch {t4}: expected near-linear scaling"
        );
    }
}
