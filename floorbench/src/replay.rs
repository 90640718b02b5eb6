//! The traced run: a single-thread replay of one floor run through the
//! layers' public functions, with a span around every call.
//!
//! `TestFloor::run_with` prepares a packed engine per lot, stamps and
//! dispatches cohorts, runs them on the pool while the collector records
//! reports and the admission thread samples snapshots, then sorts and
//! publishes per-lot metrics. The replay performs the same calls, in the
//! same order per lot, on the calling thread, so each layer's host time
//! can be measured from outside the program. Its reports must equal the
//! floor's, which `run` checks by digest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use casbus::RouteTableCache;
use casbus_controller::CompiledProgram;
use casbus_obs::MetricsRegistry;
use casbus_sim::engine_packed::COHORT_LANES;
use casbus_sim::{
    AdmissionPolicy, CompiledEngine, DeviceReport, FaultKind, InjectedFault, LotTracker,
    PackedDeviceEngine, SimError, SocSimulator,
};

use crate::workload::LotDef;

/// Spans that run off the floor's critical path (the collector and the
/// admission thread overlap the workers); measured but left out of the
/// closure sum.
pub const OVERLAPPED: [&str; 3] = [
    "sim.floor.record",
    "sim.monitor.snapshot",
    "sim.admission.decide",
];
/// Work only the replay does (a fresh simulator per defective scalar
/// device, where the floor restores a displaced wrapper); left out of the
/// closure sum.
pub const REPLAY_ONLY: [&str; 1] = ["sim.engine.scalar_setup"];
/// The root span of one replayed floor run.
pub const ROOT: &str = "floor.replay";

/// One span: what ran, when (ns since the tracer's origin), inside which
/// span, and in which replayed floor run.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub run: u32,
}

/// In-memory span recorder. Disabled, every call is a no-op, which gives
/// the untraced replay that tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Where each device of a replayed run went.
#[derive(Default, Clone, Copy, Debug)]
pub struct PathCounts {
    pub baseline: u64,
    pub lane: u64,
    pub fallback: u64,
    pub scalar: u64,
}

pub struct ReplayRun {
    pub wall: Duration,
    /// Per lot, sorted by device id.
    pub lots: Vec<Vec<DeviceReport>>,
    pub counts: PathCounts,
    pub ticks: u64,
}

/// A lot as the replay sees it: its definition plus the compiled program
/// `LotSpec::new` would produce.
pub struct ReplayLot<'a> {
    pub def: &'a LotDef,
    pub plan: Arc<CompiledProgram>,
}

impl<'a> ReplayLot<'a> {
    pub fn new(def: &'a LotDef) -> Result<Self, SimError> {
        let plan = CompiledProgram::compile(&def.soc, def.n, def.schedule.clone())?;
        Ok(Self {
            def,
            plan: Arc::new(plan),
        })
    }
}

type Member = (u64, Option<InjectedFault>);

/// Cohort members split by how the packed engine serves them. Each part
/// runs through `run_cohort` on its own: a lane run groups defective dies
/// by core, so the split leaves every lane run's members, and thus every
/// report, unchanged.
const PARTS: [&str; 5] = [
    "sim.engine_packed.cohort.healthy",
    "sim.engine_packed.cohort.scan",
    "sim.engine_packed.cohort.bist",
    "sim.engine_packed.cohort.memory",
    "sim.engine_packed.cohort.fallback",
];

fn part_of(engine: &PackedDeviceEngine, fault: &Option<InjectedFault>) -> usize {
    match fault {
        None => 0,
        Some(f) if !engine.fault_packable(f) => 4,
        Some(f) => match f.kind {
            FaultKind::ScanStuckAt { .. } => 1,
            FaultKind::BistResponse { .. } => 2,
            FaultKind::MemoryStuckCell { .. } => 3,
        },
    }
}

/// Runs one device on the scalar path: `InjectedFault::apply` on a fresh
/// simulator for a defective die, an in-place reset of the lot's reusable
/// simulator for a healthy one, then `CompiledEngine::run`.
pub fn scalar_device(
    tr: &mut Tracer,
    lot: &ReplayLot<'_>,
    healthy: &mut Option<SocSimulator>,
    engine: &CompiledEngine,
    (device_id, fault): Member,
) -> Result<DeviceReport, SimError> {
    let def = lot.def;
    let fresh = |tr: &mut Tracer| {
        tr.time("sim.engine.scalar_setup", || {
            SocSimulator::new_shared(Arc::clone(&def.soc), def.n)
        })
    };
    tr.enter("sim.engine.scalar_device");
    let report = match &fault {
        Some(f) => fresh(tr).and_then(|mut sim| {
            f.apply(&mut sim)?;
            engine.run(&mut sim, lot.plan.program())
        }),
        None => match healthy {
            Some(sim) => {
                sim.reset_device();
                engine.run(sim, lot.plan.program())
            }
            None => fresh(tr).and_then(|sim| engine.run(healthy.insert(sim), lot.plan.program())),
        },
    };
    tr.exit();
    Ok(DeviceReport {
        device_id,
        fault,
        report: report?,
    })
}

/// Publishes one lot's `fleet.*` metrics the way the floor does after a
/// run, through the registry's public API, and merges them under
/// `floor.lot.<name>.`.
fn publish_lot(
    floor_metrics: &MetricsRegistry,
    def: &LotDef,
    devices: &[DeviceReport],
    cache: &RouteTableCache,
    engine: Option<&PackedDeviceEngine>,
) {
    let metrics = MetricsRegistry::new();
    let passed = devices.iter().filter(|d| d.passed()).count() as u64;
    let defective = devices.iter().filter(|d| d.fault.is_some()).count() as u64;
    metrics.set("fleet.devices", def.devices);
    metrics.set("fleet.passed", passed);
    metrics.set("fleet.failed", devices.len() as u64 - passed);
    metrics.set("fleet.defects.injected", defective);
    metrics.set(
        "fleet.cycles.total",
        devices.iter().map(|d| d.report.total_cycles).sum(),
    );
    metrics.set(
        "fleet.bus.wire_cycles",
        devices.iter().map(|d| d.report.bus_cycles).sum(),
    );
    metrics.set("fleet.threads", 1);
    let stats = cache.stats();
    metrics.set("fleet.route_cache.hits", stats.hits);
    metrics.set("fleet.route_cache.misses", stats.misses);
    metrics.set("fleet.route_cache.evictions", stats.evictions);
    metrics.set("fleet.route_cache.shapes", stats.len as u64);
    if let Some(engine) = engine {
        let lane = devices
            .iter()
            .filter(|d| d.fault.as_ref().is_some_and(|f| engine.fault_packable(f)))
            .count() as u64;
        metrics.set(
            "fleet.packed.cohorts",
            def.devices.div_ceil(COHORT_LANES as u64),
        );
        metrics.set(
            "fleet.packed.baseline.devices",
            devices.len() as u64 - defective,
        );
        metrics.set("fleet.packed.lane.devices", lane);
        metrics.set("fleet.packed.fallback.devices", defective - lane);
        for fault in devices.iter().filter_map(|d| d.fault.as_ref()) {
            if let Some(reason) = engine.fallback_reason(fault) {
                metrics.inc(&format!("fleet.packed.fallback.reason.{reason}"), 1);
            }
        }
    }
    for device in devices {
        metrics.observe("fleet.device.cycles", device.report.total_cycles);
    }
    floor_metrics.merge_from_prefixed(&metrics, &format!("floor.lot.{}.", def.name));
}

/// Replays one floor run of `lots` on this thread against `cache`.
pub fn run(
    tr: &mut Tracer,
    lots: &[ReplayLot<'_>],
    cache: &Arc<RouteTableCache>,
    policy: &AdmissionPolicy,
) -> Result<ReplayRun, SimError> {
    tr.run += 1;
    let started = Instant::now();
    tr.enter(ROOT);

    // Prepare: one packed engine and one tracker per lot.
    let mut engines = Vec::with_capacity(lots.len());
    let mut trackers = Vec::with_capacity(lots.len());
    for lot in lots {
        let def = lot.def;
        engines.push(if def.packed && def.devices > 0 {
            Some(tr.time("sim.engine_packed.compile", || {
                PackedDeviceEngine::compile(&def.soc, &lot.plan, cache)
            })?)
        } else {
            None
        });
        trackers.push(LotTracker::new(def.devices, policy.window));
    }

    // Stamp: every device's defect, grouped into the jobs the floor
    // dispatches (cohorts for packed lots, single devices otherwise).
    let jobs: Vec<Vec<Vec<Member>>> = lots
        .iter()
        .zip(&engines)
        .map(|(lot, engine)| {
            tr.time("sim.fleet.stamp", || {
                let def = lot.def;
                let width = if engine.is_some() { COHORT_LANES } else { 1 };
                let ids: Vec<u64> = (0..def.devices).collect();
                ids.chunks(width)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .map(|&id| (id, def.variation.fault_for(&def.soc, id)))
                            .collect()
                    })
                    .collect()
            })
        })
        .collect();

    // Execute, recording reports and sampling admission ticks as the
    // floor's collector and admission thread would.
    let mut counts = PathCounts::default();
    let mut reports: Vec<Vec<DeviceReport>> = lots
        .iter()
        .map(|l| Vec::with_capacity(l.def.devices as usize))
        .collect();
    let mut ticks = 0u64;
    let mut last_tick = Instant::now();
    let mut queued: Vec<u64> = jobs.iter().map(|j| j.len() as u64).collect();
    let scalar_engine = CompiledEngine::new().with_cache(Arc::clone(cache));
    for (idx, lot_jobs) in jobs.into_iter().enumerate() {
        let mut healthy_sim = None;
        for members in lot_jobs {
            let batch = match &engines[idx] {
                Some(engine) => {
                    let mut parts: [Vec<Member>; 5] = Default::default();
                    for member in members {
                        parts[part_of(engine, &member.1)].push(member);
                    }
                    counts.baseline += parts[0].len() as u64;
                    counts.lane += (parts[1].len() + parts[2].len() + parts[3].len()) as u64;
                    counts.fallback += parts[4].len() as u64;
                    let mut batch = Vec::with_capacity(COHORT_LANES);
                    for (name, part) in PARTS.iter().zip(parts) {
                        if !part.is_empty() {
                            batch.extend(tr.time(name, || engine.run_cohort(part))?);
                        }
                    }
                    batch
                }
                None => {
                    let mut batch = Vec::with_capacity(members.len());
                    for member in members {
                        counts.scalar += 1;
                        batch.push(scalar_device(
                            tr,
                            &lots[idx],
                            &mut healthy_sim,
                            &scalar_engine,
                            member,
                        )?);
                    }
                    batch
                }
            };
            queued[idx] -= 1;
            tr.time("sim.floor.record", || {
                batch.iter().for_each(|r| trackers[idx].record(r))
            });
            reports[idx].extend(batch);
            if last_tick.elapsed() >= policy.interval {
                last_tick = Instant::now();
                ticks += 1;
                admission_tick(tr, &trackers, &queued, cache, policy, false);
            }
        }
    }
    admission_tick(tr, &trackers, &queued, cache, policy, true);

    // Finalize: sort each lot, publish its metrics, then the floor's own.
    let floor_metrics = MetricsRegistry::new();
    for ((lot, devices), engine) in lots.iter().zip(&mut reports).zip(&engines) {
        tr.time("sim.floor.sort", || devices.sort_by_key(|d| d.device_id));
        tr.time("obs.metrics.publish", || {
            publish_lot(&floor_metrics, lot.def, devices, cache, engine.as_ref())
        });
    }
    tr.time("obs.metrics.publish", || {
        let stats = cache.stats();
        let completed: u64 = reports.iter().map(|r| r.len() as u64).sum();
        floor_metrics.set("floor.lots", lots.len() as u64);
        floor_metrics.set("floor.completed", completed);
        floor_metrics.set("floor.route_cache.hits", stats.hits);
        floor_metrics.set("floor.route_cache.misses", stats.misses);
        floor_metrics.set("floor.route_cache.evictions", stats.evictions);
    });
    tr.exit();
    Ok(ReplayRun {
        wall: started.elapsed(),
        lots: reports,
        counts,
        ticks,
    })
}

/// One admission tick: a `LotTracker::snapshot` and an
/// `AdmissionPolicy::decide` per lot.
fn admission_tick(
    tr: &mut Tracer,
    trackers: &[LotTracker],
    queued_jobs: &[u64],
    cache: &RouteTableCache,
    policy: &AdmissionPolicy,
    last: bool,
) {
    for (tracker, &queued) in trackers.iter().zip(queued_jobs) {
        let queued = queued
            .saturating_mul(COHORT_LANES as u64)
            .min(tracker.remaining());
        let snapshot = tr.time("sim.monitor.snapshot", || {
            tracker.snapshot(cache, queued, last)
        });
        std::hint::black_box(snapshot);
        let decision = tr.time("sim.admission.decide", || {
            policy.decide(tracker.completed(), tracker.rolling_yield())
        });
        std::hint::black_box(decision);
    }
}
