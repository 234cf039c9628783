//! Admission control, class queues, co-batching, and preemptive
//! dispatch over the device pool.
//!
//! The scheduler is a deterministic discrete-event loop in virtual time.
//! Two event sources exist — request arrivals (from the pre-generated
//! open-loop stream) and slice completions (from busy device slots) —
//! and ties are broken the same way every run: slice ends before
//! arrivals at the same cycle, lower slot index first, arrivals in
//! stream order. No wall clocks, no host randomness, no iteration over
//! hash maps: a run is a pure function of `(seed, config)`.
//!
//! Policy, in one paragraph: arrivals are shed when the fresh-request
//! queue is at capacity (explicit rejection beats unbounded queueing);
//! admitted requests wait in three strict-priority class queues;
//! dispatch pops the most urgent class and absorbs every queued request
//! for the same graph × query into one batch (they compute the same
//! answer, so one device run serves all of them); a running low-class
//! job is preempted at its next iteration boundary whenever a
//! higher-class request waits, parking its state in an
//! [`accel::CheckpointStore`]; parked state beyond the parking capacity
//! is evicted oldest-first and the victim restarts from scratch later.

use std::collections::VecDeque;

use accel::{CheckpointStore, Driver, Fabric, RunConfig};
use algos::{golden, Algorithm};
use simkit::trace::{EventKind, TraceConfig, TraceReport, Tracer, Track};
use simkit::{Cycle, LatencyHistogram};

use crate::report::ServeReport;
use crate::session::{Session, SliceEnd};
use crate::workload::{self, Catalog, JobKey, Request, WorkloadConfig, TENANTS};

/// PageRank completions are validated against the golden reference at
/// this relative tolerance (the workspace-wide float budget); integer
/// algorithms must match exactly.
pub const PAGERANK_TOLERANCE: f32 = 1e-5;

/// Parameters of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Master workload seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: u64,
    /// Device slots in the pool.
    pub slots: usize,
    /// Simulated devices per slot. `1` runs each job on a single
    /// preemptible [`accel::System`]; `> 1` runs each job on a
    /// [`Fabric`] of that many devices (non-preemptible: the barrier
    /// protocol owns the iteration loop).
    pub slot_devices: usize,
    /// Iterations a job may run before the scheduler reconsiders the
    /// slot (the preemption quantum).
    pub quantum: u32,
    /// Admission-control bound on queued fresh requests; arrivals
    /// beyond it are shed.
    pub max_queue: usize,
    /// Parked-checkpoint capacity; excess checkpoints are evicted
    /// oldest-first and their jobs restart from scratch.
    pub max_parked: usize,
    /// Offered load in permille of pool saturation: 1000 means arrivals
    /// carry exactly as much calibrated service time as the pool can
    /// retire; 10000 is a 10× overload.
    pub rate_permille: u64,
    /// Catalog shrink factor (1 = largest graphs; larger = smaller).
    pub shrink: u64,
    /// Host threads per fabric run when `slot_devices > 1`
    /// (bit-identical at any setting; ignored for single-device slots).
    pub sim_threads: usize,
    /// Per-device no-progress watchdog override (`None` keeps the
    /// driver default).
    pub watchdog_cycles: Option<Cycle>,
    /// Serving-layer event tracing (default off).
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 1,
            requests: 100,
            slots: 2,
            slot_devices: 1,
            quantum: 2,
            max_queue: 16,
            max_parked: 4,
            rate_permille: 1000,
            shrink: 4,
            sim_threads: 1,
            watchdog_cycles: None,
            trace: TraceConfig::default(),
        }
    }
}

/// Runs the full pipeline: build the catalog, calibrate per-job service
/// times, generate the seeded request stream, and schedule it.
///
/// # Errors
///
/// Returns a message when the configuration is invalid or calibration
/// cannot complete a job.
pub fn run(cfg: &ServeConfig) -> Result<ServeReport, String> {
    let scheduler = Scheduler::new(cfg)?;
    let requests = scheduler.generate();
    scheduler.run(&requests)
}

/// A calibrated scheduler, ready to run request streams.
///
/// Splitting construction from [`Scheduler::run`] lets tests hand-build
/// request lists (with [`Scheduler::service_estimates`]-derived
/// deadlines) instead of going through the generator.
pub struct Scheduler {
    cfg: ServeConfig,
    catalog: Catalog,
    run_configs: Vec<RunConfig>,
    service: Vec<Cycle>,
    goldens: Vec<Vec<u32>>,
    mean_service: Cycle,
    mean_interarrival: Cycle,
}

impl Scheduler {
    /// Builds the catalog and calibrates every `(graph, query)` job by
    /// running it once, uncontended, on a single device: the measured
    /// cycles become the service estimate (deadline sizing, arrival-rate
    /// scaling) and the run's values the golden reference for
    /// completion validation.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (zero slots/rate) and
    /// calibration runs that trip the watchdog.
    pub fn new(cfg: &ServeConfig) -> Result<Self, String> {
        if cfg.slots == 0 {
            return Err("serve: slots must be >= 1".to_owned());
        }
        if cfg.rate_permille == 0 {
            return Err("serve: rate must be >= 1 permille".to_owned());
        }
        let catalog = Catalog::small(cfg.shrink);
        let mut run_configs = Vec::with_capacity(catalog.graphs.len());
        for (_, g) in &catalog.graphs {
            let mut rc = Driver::new().run_config(g);
            if let Some(w) = cfg.watchdog_cycles {
                rc.watchdog_cycles = Some(w);
            }
            run_configs.push(rc);
        }
        let mut service = Vec::new();
        let mut goldens = Vec::new();
        for job in catalog.jobs() {
            let g = &catalog.graphs[job.graph].1;
            let query = catalog.queries[job.query];
            let mut s = Session::fresh(g, query, &run_configs[job.graph]);
            match s.step_slice(u32::MAX) {
                Ok((SliceEnd::Finished, _)) => {}
                Ok((SliceEnd::Boundary, _)) => unreachable!("u32::MAX quantum"),
                Err(e) => {
                    return Err(format!(
                        "serve: calibration of {} failed: {e:?}",
                        catalog.job_label(job)
                    ));
                }
            }
            service.push(s.device_cycles.max(1));
            goldens.push(golden::run(&query, g));
        }
        let mean_service = (service.iter().sum::<Cycle>() / service.len() as u64).max(1);
        // Offered load = mean_service / (slots × mean_interarrival); at
        // rate_permille = 1000 arrivals carry exactly the pool's
        // calibrated capacity.
        let mean_interarrival =
            (mean_service * 1000 / (cfg.slots as u64 * cfg.rate_permille)).max(1);
        Ok(Scheduler {
            cfg: cfg.clone(),
            catalog,
            run_configs,
            service,
            goldens,
            mean_service,
            mean_interarrival,
        })
    }

    /// The catalog this scheduler serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Calibrated mean service cycles per [`Catalog::job_index`].
    pub fn service_estimates(&self) -> &[Cycle] {
        &self.service
    }

    /// Mean interarrival gap implied by the configured rate.
    pub fn mean_interarrival(&self) -> Cycle {
        self.mean_interarrival
    }

    /// Generates this configuration's seeded request stream.
    pub fn generate(&self) -> Vec<Request> {
        workload::generate(
            &WorkloadConfig {
                seed: self.cfg.seed,
                requests: self.cfg.requests,
                mean_interarrival: self.mean_interarrival,
            },
            &self.catalog,
            &self.service,
        )
    }

    /// Schedules `requests` (sorted by arrival) to completion and
    /// reports the outcome.
    ///
    /// # Errors
    ///
    /// Returns a message if the loop stalls with work queued — a
    /// scheduler bug, not a workload property.
    pub fn run(&self, requests: &[Request]) -> Result<ServeReport, String> {
        let mut lp = Loop {
            sched: self,
            requests,
            queues: Default::default(),
            slots: (0..self.cfg.slots).map(|_| None).collect(),
            parked: Vec::new(),
            park_fifo: VecDeque::new(),
            tracer: Tracer::for_track(Track::serve(), &self.cfg.trace),
            rep: self.empty_report(requests.len() as u64),
        };
        lp.drive()?;
        Ok(lp.rep)
    }

    fn empty_report(&self, generated: u64) -> ServeReport {
        ServeReport {
            seed: self.cfg.seed,
            rate_permille: self.cfg.rate_permille,
            mean_interarrival: self.mean_interarrival,
            mean_service: self.mean_service,
            slots: self.cfg.slots,
            generated,
            admitted: 0,
            shed: 0,
            completed: 0,
            failed: 0,
            preemptions: 0,
            resumes: 0,
            restarts: 0,
            co_batched: 0,
            deadline_misses: 0,
            golden_mismatches: 0,
            watchdog_trips: 0,
            checkpoint_evictions: 0,
            makespan: 0,
            busy_cycles: 0,
            latency: LatencyHistogram::new(),
            class_latency: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            tenant_completed: vec![0; TENANTS.len()],
            trace: TraceReport::default(),
        }
    }
}

/// Queued work: a not-yet-started request or a parked (preempted) job.
enum Work {
    Fresh(usize),
    Parked(usize),
}

/// How a slot executes its job.
enum Exec {
    /// Single preemptible device, stepped slice by slice (boxed: a
    /// `Session` owns a whole simulated `System`, far larger than the
    /// finished-values variant).
    Sliced(Box<Session>),
    /// Multi-device fabric run, simulated to completion at dispatch;
    /// the slot stays busy until its virtual finish time.
    Whole { values: Vec<u32> },
}

/// A busy device slot.
struct Busy {
    until: Cycle,
    pending: SliceEnd,
    exec: Exec,
    batch: Vec<usize>,
    job: JobKey,
    class: usize,
}

/// A preempted job waiting to resume. `store` holds at most one
/// checkpoint; eviction empties it and the job restarts from scratch.
struct ParkedJob {
    store: CheckpointStore,
    batch: Vec<usize>,
    job: JobKey,
    class: usize,
    taken: bool,
}

impl ParkedJob {
    /// Still waiting with a live checkpoint (counts against the
    /// parking capacity).
    fn live(&self) -> bool {
        !self.taken && !self.store.is_empty()
    }
}

struct Loop<'a> {
    sched: &'a Scheduler,
    requests: &'a [Request],
    queues: [VecDeque<Work>; 3],
    slots: Vec<Option<Busy>>,
    parked: Vec<ParkedJob>,
    park_fifo: VecDeque<usize>,
    tracer: Tracer,
    rep: ServeReport,
}

impl Loop<'_> {
    fn drive(&mut self) -> Result<(), String> {
        let mut next = 0usize;
        let mut t: Cycle = 0;
        loop {
            let busy_next = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|b| (b.until, i)))
                .min();
            let arrival_next = self.requests.get(next).map(|r| r.arrival);
            // Slice ends run before arrivals at the same cycle so a
            // freed slot is visible to the requests arriving then.
            let take_slice = match (busy_next, arrival_next) {
                (Some((u, _)), Some(a)) => u <= a,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_slice {
                let (until, slot) = busy_next.unwrap();
                t = until;
                self.slice_end(t, slot);
            } else {
                t = arrival_next.unwrap();
                while next < self.requests.len() && self.requests[next].arrival == t {
                    self.arrive(t, next);
                    next += 1;
                }
            }
            self.dispatch(t);
        }
        self.rep.makespan = t;
        if self.queues.iter().any(|q| !q.is_empty()) {
            return Err("serve: scheduler stalled with work queued".to_owned());
        }
        self.rep.trace.dropped = self.tracer.dropped();
        self.rep.trace.events = self.tracer.take();
        self.rep.trace.cycles = t;
        Ok(())
    }

    fn arrive(&mut self, t: Cycle, idx: usize) {
        let r = &self.requests[idx];
        self.tracer.event(t, EventKind::ServeArrive, r.id);
        let fresh_queued: usize = self
            .queues
            .iter()
            .map(|q| q.iter().filter(|w| matches!(w, Work::Fresh(_))).count())
            .sum();
        if fresh_queued >= self.sched.cfg.max_queue {
            self.rep.shed += 1;
            self.tracer.event(t, EventKind::ServeShed, r.id);
        } else {
            self.rep.admitted += 1;
            self.queues[r.priority.index()].push_back(Work::Fresh(idx));
        }
    }

    fn dispatch(&mut self, t: Cycle) {
        loop {
            let Some(slot) = self.slots.iter().position(|s| s.is_none()) else {
                return;
            };
            let Some(class) = (0..self.queues.len()).find(|&c| !self.queues[c].is_empty()) else {
                return;
            };
            match self.queues[class].pop_front().unwrap() {
                Work::Fresh(i) => self.dispatch_fresh(t, slot, class, i),
                Work::Parked(p) => self.dispatch_parked(t, slot, p),
            }
        }
    }

    fn dispatch_fresh(&mut self, t: Cycle, slot: usize, class: usize, lead: usize) {
        let job = self.requests[lead].job;
        let mut batch = vec![lead];
        // Same graph × query computes the same answer: absorb every
        // queued duplicate (any class at or below ours — no higher
        // class has work, or we would not have popped this one) into
        // one device run.
        for q in self.queues.iter_mut() {
            let mut kept = VecDeque::with_capacity(q.len());
            while let Some(w) = q.pop_front() {
                if let Work::Fresh(j) = w {
                    if self.requests[j].job == job {
                        batch.push(j);
                        self.rep.co_batched += 1;
                        continue;
                    }
                }
                kept.push_back(w);
            }
            *q = kept;
        }
        self.tracer
            .event(t, EventKind::ServeDispatch, self.requests[lead].id);
        let cfg = &self.sched.cfg;
        let g = &self.sched.catalog.graphs[job.graph].1;
        let query = self.sched.catalog.queries[job.query];
        if cfg.slot_devices > 1 {
            let mut rc = self.sched.run_configs[job.graph].clone();
            rc.devices = cfg.slot_devices;
            rc.sim_threads = cfg.sim_threads;
            match Fabric::new(g, query, &rc).run_to_outcome(None) {
                Ok(r) => {
                    self.rep.busy_cycles += r.cycles;
                    self.slots[slot] = Some(Busy {
                        until: t + r.cycles,
                        pending: SliceEnd::Finished,
                        exec: Exec::Whole { values: r.values },
                        batch,
                        job,
                        class,
                    });
                }
                Err(_) => {
                    self.rep.watchdog_trips += 1;
                    self.rep.failed += batch.len() as u64;
                }
            }
        } else {
            let session = Session::fresh(g, query, &self.sched.run_configs[job.graph]);
            self.run_slice(
                t,
                slot,
                Busy {
                    until: t,
                    pending: SliceEnd::Boundary,
                    exec: Exec::Sliced(Box::new(session)),
                    batch,
                    job,
                    class,
                },
            );
        }
    }

    fn dispatch_parked(&mut self, t: Cycle, slot: usize, p: usize) {
        let entry = &mut self.parked[p];
        entry.taken = true;
        let leader = self.requests[entry.batch[0]].id;
        let job = entry.job;
        let class = entry.class;
        let batch = entry.batch.clone();
        let g = &self.sched.catalog.graphs[job.graph].1;
        let query = self.sched.catalog.queries[job.query];
        let rc = &self.sched.run_configs[job.graph];
        let session = if let Some(ckpt) = self.parked[p].store.latest() {
            let Ok(session) = Session::resume(g, query, rc, ckpt) else {
                // A checkpoint that does not fit its job cannot be
                // replayed: fail the batch, as a watchdog trip would.
                self.rep.failed += batch.len() as u64;
                return;
            };
            self.rep.resumes += 1;
            self.tracer.event(t, EventKind::ServeResume, leader);
            session
        } else {
            // The checkpoint was evicted for parking capacity: start
            // over (correct, just slower).
            self.rep.restarts += 1;
            self.tracer.event(t, EventKind::ServeDispatch, leader);
            Session::fresh(g, query, rc)
        };
        self.run_slice(
            t,
            slot,
            Busy {
                until: t,
                pending: SliceEnd::Boundary,
                exec: Exec::Sliced(Box::new(session)),
                batch,
                job,
                class,
            },
        );
    }

    /// Runs one quantum on `busy`'s session and installs it in `slot`,
    /// or fails the whole batch if the device watchdog trips.
    fn run_slice(&mut self, t: Cycle, slot: usize, mut busy: Busy) {
        let Exec::Sliced(session) = &mut busy.exec else {
            unreachable!("only sliced executions are stepped");
        };
        match session.step_slice(self.sched.cfg.quantum) {
            Ok((end, used)) => {
                busy.until = t + used;
                busy.pending = end;
                self.rep.busy_cycles += used;
                self.slots[slot] = Some(busy);
            }
            Err(_) => {
                self.rep.watchdog_trips += 1;
                self.rep.failed += busy.batch.len() as u64;
            }
        }
    }

    fn slice_end(&mut self, t: Cycle, slot: usize) {
        let busy = self.slots[slot].take().expect("slot is busy");
        match busy.pending {
            SliceEnd::Finished => self.complete(t, busy),
            SliceEnd::Boundary => {
                let higher_waiting = self.queues[..busy.class].iter().any(|q| !q.is_empty());
                if higher_waiting {
                    self.preempt(t, busy);
                } else {
                    self.run_slice(t, slot, busy);
                }
            }
        }
    }

    fn complete(&mut self, t: Cycle, busy: Busy) {
        let values = match busy.exec {
            Exec::Sliced(session) => session.finish().values,
            Exec::Whole { values } => values,
        };
        let want = &self.sched.goldens[self.sched.catalog.job_index(busy.job)];
        let query = self.sched.catalog.queries[busy.job.query];
        let ok = if matches!(query, Algorithm::PageRank { .. }) {
            golden::pagerank_mismatch(&values, want, PAGERANK_TOLERANCE).is_none()
        } else {
            values == *want
        };
        if !ok {
            self.rep.golden_mismatches += busy.batch.len() as u64;
        }
        for &i in &busy.batch {
            let r = &self.requests[i];
            let lat = t - r.arrival;
            self.rep.latency.record(lat);
            self.rep.class_latency[r.priority.index()].record(lat);
            self.rep.tenant_completed[r.tenant] += 1;
            self.rep.completed += 1;
            if t > r.deadline {
                self.rep.deadline_misses += 1;
            }
            self.tracer.event(t, EventKind::ServeComplete, r.id);
        }
    }

    fn preempt(&mut self, t: Cycle, busy: Busy) {
        let Exec::Sliced(session) = &busy.exec else {
            unreachable!("fabric slots are never preempted");
        };
        let mut store = CheckpointStore::new(1);
        store.save(session.checkpoint());
        let idx = self.parked.len();
        self.tracer
            .event(t, EventKind::ServePreempt, self.requests[busy.batch[0]].id);
        self.parked.push(ParkedJob {
            store,
            batch: busy.batch,
            job: busy.job,
            class: busy.class,
            taken: false,
        });
        self.park_fifo.push_back(idx);
        // Enforce the parking capacity: evict oldest live checkpoints
        // first (the same FIFO order CheckpointStore itself uses), so
        // the eviction sequence is a pure function of the park
        // sequence.
        let mut live = self.parked.iter().filter(|p| p.live()).count();
        let mut scan = 0;
        while live > self.sched.cfg.max_parked && scan < self.park_fifo.len() {
            let cand = self.park_fifo[scan];
            scan += 1;
            if self.parked[cand].live() {
                self.parked[cand].store = CheckpointStore::new(1);
                self.rep.checkpoint_evictions += 1;
                live -= 1;
            }
        }
        self.queues[self.parked[idx].class].push_front(Work::Parked(idx));
        self.rep.preemptions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Priority;

    fn tiny(requests: u64) -> ServeConfig {
        ServeConfig {
            requests,
            shrink: 64,
            ..ServeConfig::default()
        }
    }

    /// Every admitted request must complete or fail, and the latency
    /// histogram must account for exactly the completions.
    #[test]
    fn smoke_run_accounts_for_every_request() {
        let rep = run(&tiny(12)).unwrap();
        assert_eq!(rep.generated, 12);
        assert_eq!(rep.admitted + rep.shed, rep.generated);
        assert_eq!(rep.completed + rep.failed, rep.admitted);
        assert_eq!(rep.latency.count(), rep.completed);
        assert_eq!(rep.golden_mismatches, 0);
        assert_eq!(rep.watchdog_trips, 0);
        assert!(rep.makespan > 0);
        assert!(rep.utilization() > 0.0);
    }

    /// Identical queued jobs must collapse into one device run.
    #[test]
    fn identical_queued_requests_co_batch() {
        let sched = Scheduler::new(&ServeConfig {
            slots: 1,
            shrink: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let job = JobKey { graph: 0, query: 0 };
        let est = sched.service_estimates()[sched.catalog().job_index(job)];
        // Six same-job requests landing in one burst: the first
        // occupies the slot, the other five queue and then ride one
        // dispatch.
        let requests: Vec<Request> = (0..6)
            .map(|i| Request {
                id: i,
                arrival: 1 + i,
                tenant: 1,
                priority: Priority::Normal,
                job,
                deadline: 1 + i + 16 * est,
            })
            .collect();
        let rep = sched.run(&requests).unwrap();
        assert_eq!(rep.completed, 6);
        assert_eq!(rep.co_batched, 4, "five queued, one leads, four ride");
        assert_eq!(rep.golden_mismatches, 0);
    }

    /// A full queue must shed, not grow without bound.
    #[test]
    fn full_queue_sheds_arrivals() {
        let sched = Scheduler::new(&ServeConfig {
            slots: 1,
            max_queue: 2,
            shrink: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        // A burst of distinct jobs (no co-batching relief): 1 runs,
        // 2 queue, the rest must shed.
        let requests: Vec<Request> = (0..8)
            .map(|i| Request {
                id: i,
                arrival: 1 + i,
                tenant: 3,
                priority: Priority::Low,
                job: JobKey {
                    graph: (i % 3) as usize,
                    query: (i % 6) as usize,
                },
                deadline: Cycle::MAX,
            })
            .collect();
        let rep = sched.run(&requests).unwrap();
        assert!(rep.shed > 0, "queue bound must reject the burst tail");
        assert_eq!(rep.admitted + rep.shed, 8);
        assert_eq!(rep.completed, rep.admitted);
    }

    /// A high-priority arrival must preempt a running low-priority job
    /// at an iteration boundary, and the preempted job must still
    /// produce a correct result after resuming.
    #[test]
    fn high_priority_preempts_and_victim_still_validates() {
        let sched = Scheduler::new(&ServeConfig {
            slots: 1,
            quantum: 1,
            shrink: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let slow = JobKey { graph: 0, query: 4 }; // pagerank: 10 iterations
        let fast = JobKey { graph: 0, query: 0 }; // bfs(0)
        let requests = vec![
            Request {
                id: 0,
                arrival: 1,
                tenant: 3,
                priority: Priority::Low,
                job: slow,
                deadline: Cycle::MAX,
            },
            Request {
                id: 1,
                arrival: 2,
                tenant: 0,
                priority: Priority::High,
                job: fast,
                deadline: Cycle::MAX,
            },
        ];
        let rep = sched.run(&requests).unwrap();
        assert_eq!(rep.completed, 2);
        assert!(rep.preemptions >= 1, "low job must yield the only slot");
        assert_eq!(rep.resumes, rep.preemptions, "capacity 4 never evicts");
        assert_eq!(rep.golden_mismatches, 0);
        assert_eq!(rep.restarts, 0);
    }

    /// With zero parking capacity every preemption evicts, and the
    /// victim restarts from scratch — still correct.
    #[test]
    fn zero_parking_capacity_forces_restarts() {
        let sched = Scheduler::new(&ServeConfig {
            slots: 1,
            quantum: 1,
            max_parked: 0,
            shrink: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let requests = vec![
            Request {
                id: 0,
                arrival: 1,
                tenant: 3,
                priority: Priority::Low,
                job: JobKey { graph: 0, query: 4 },
                deadline: Cycle::MAX,
            },
            Request {
                id: 1,
                arrival: 2,
                tenant: 0,
                priority: Priority::High,
                job: JobKey { graph: 0, query: 0 },
                deadline: Cycle::MAX,
            },
        ];
        let rep = sched.run(&requests).unwrap();
        assert_eq!(rep.completed, 2);
        assert!(rep.preemptions >= 1);
        assert_eq!(rep.checkpoint_evictions, rep.preemptions);
        assert_eq!(rep.restarts, rep.preemptions);
        assert_eq!(rep.resumes, 0);
        assert_eq!(rep.golden_mismatches, 0);
    }
}
