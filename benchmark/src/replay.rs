//! Replays a recorded MOMS request stream through `MomsSystem` and
//! `MemorySystem` in the benchmark's own driver loop — the loop of
//! `moms::harness::TraceRun::execute_tagged` — timing every `tick` call of
//! each layer. Per-call times are summed rather than kept as spans.

use std::collections::VecDeque;
use std::time::Instant;

use dram::{DramConfig, MemorySystem};
use moms::{MomsReq, MomsSystem, MomsSystemConfig};

/// Host time per `tick` call of each layer over one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickTimes {
    /// Mean host ns per `MomsSystem::tick`.
    pub moms_tick_ns: f64,
    /// Mean host ns per `MemorySystem::tick`.
    pub dram_tick_ns: f64,
}

/// Simulated cycles after which a replay that has not drained is a
/// deadlock.
const MAX_CYCLES: u64 = 50_000_000;

/// Replays `trace` (`(pe, line)` pairs, as `System` records them).
///
/// # Errors
///
/// Fails when the stream has not drained after [`MAX_CYCLES`].
pub fn replay(
    moms_cfg: &MomsSystemConfig,
    dram_cfg: &DramConfig,
    trace: &[(u16, u64)],
) -> Result<TickTimes, String> {
    let pes = moms_cfg.num_pes;
    let mut sys = MomsSystem::new(moms_cfg.clone());
    let mut mem = MemorySystem::new(dram_cfg.clone(), moms_cfg.num_channels);
    let mut per_pe: Vec<VecDeque<u64>> = vec![VecDeque::new(); pes];
    for &(pe, line) in trace {
        per_pe[pe as usize % pes].push_back(line);
    }
    let (mut moms_ns, mut dram_ns) = (0u128, 0u128);
    let mut received = 0usize;
    let mut now = 0u64;
    while received < trace.len() {
        for (p, q) in per_pe.iter_mut().enumerate() {
            if let Some(&line) = q.front() {
                let req = MomsReq {
                    line,
                    word: (line % 16) as u8,
                    id: (received % 65536) as u32,
                };
                if sys.try_request(p, req) {
                    q.pop_front();
                }
            }
        }
        let t0 = Instant::now();
        sys.tick(now, &mut mem);
        let t1 = Instant::now();
        mem.tick(now);
        let t2 = Instant::now();
        moms_ns += t1.duration_since(t0).as_nanos();
        dram_ns += t2.duration_since(t1).as_nanos();
        for ch in 0..mem.num_channels() {
            while let Some(r) = mem.pop_response(now, ch) {
                sys.dram_response(r.id, r.lines);
            }
        }
        for p in 0..pes {
            while sys.pop_response(p).is_some() {
                received += 1;
            }
        }
        now += 1;
        if now >= MAX_CYCLES {
            return Err(format!(
                "replay did not drain: {received}/{} responses after {now} cycles",
                trace.len()
            ));
        }
    }
    let per_call = |ns: u128| {
        if now == 0 {
            0.0
        } else {
            ns as f64 / now as f64
        }
    };
    Ok(TickTimes {
        moms_tick_ns: per_call(moms_ns),
        dram_tick_ns: per_call(dram_ns),
    })
}
