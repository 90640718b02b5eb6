//! End-to-end and per-layer benchmark of the multi-lot `TestFloor`.
//!
//! ```text
//! cargo run --release --offline --manifest-path floorbench/Cargo.toml -- \
//!     --workload mixed_floor --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one client, closed loop: each floor run is prepared from
//! fresh `LotSpec`s outside the timed region, and the next starts when the
//! last returns, on one reused two-thread `TestFloor`. Every run's reports
//! are checked against the first, untimed run, and that run against an
//! oracle in the other execution mode. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer ledger of a single-thread replay (see
//! `replay.rs`). The last stdout line is one JSON object; the lines before
//! it name every figure with its unit. See `README.md`.

mod check;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use casbus_obs::MetricsRegistry;
use casbus_sim::{AdmissionPolicy, DeviceReport, FloorReport, TestFloor};

use crate::check::Digest;
use crate::replay::{ReplayLot, Tracer};
use crate::workload::Workload;

/// Worker threads of the timed floor.
pub const FLOOR_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed floor runs, however long they take.
const MIN_RUNS: usize = 3;
/// Fewest traced rounds (single-thread floor + traced + untraced replay).
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Device outcomes over a set of checked runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Floor runs and replays checked against the reference.
    runs: u64,
}

/// The reference every run is checked against: per lot, the first floor
/// run's sorted reports.
struct Reference {
    lots: Vec<Vec<DeviceReport>>,
    digests: Vec<u64>,
}

impl Reference {
    /// Devices of one lot's sorted reports that are missing or differ from
    /// the reference.
    fn lot_failures(&self, lot: usize, devices: &[DeviceReport], requested: u64) -> u64 {
        let missing = requested.saturating_sub(devices.len() as u64);
        let wrong = devices
            .iter()
            .filter(|d| self.lots[lot].get(d.device_id as usize) != Some(*d))
            .count() as u64;
        missing + wrong
    }

    fn check_floor(&self, w: &Workload, outcome: &Result<FloorReport, String>, tally: &mut Tally) {
        let requested = w.devices();
        tally.attempted += requested;
        tally.runs += 1;
        match outcome {
            Err(_) => tally.failed += requested,
            Ok(report) => {
                for (idx, lot) in report.lots.iter().enumerate() {
                    tally.failed += if lot.aborted() {
                        lot.requested
                    } else {
                        self.lot_failures(idx, &lot.fleet.devices, lot.requested)
                    };
                }
            }
        }
    }

    fn check_lots(&self, w: &Workload, lots: &[Vec<DeviceReport>], tally: &mut Tally) {
        tally.runs += 1;
        for (idx, (def, devices)) in w.lots.iter().zip(lots).enumerate() {
            tally.attempted += def.devices;
            if check::digest(devices) != self.digests[idx] {
                tally.failed += self.lot_failures(idx, devices, def.devices);
            }
        }
    }
}

/// One timed floor run.
struct Sample {
    wall_s: f64,
    devices: u64,
    wire_cycles: u64,
    priority_lot_s: f64,
    first_report_s: f64,
    last_report_s: f64,
    /// This run's `(percentile, latency ms)` from [`stats::tail`].
    tail_ms: (f64, f64),
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    snapshots_per_lot: f64,
    events: u64,
    export_ms: f64,
    series: u64,
}

struct Timed {
    samples: Vec<Sample>,
    latencies_ms: Vec<f64>,
}

impl Timed {
    fn devices_per_s(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.devices as f64 / s.wall_s)
            .collect()
    }

    /// Median devices/s of the first and of the last tenth of the runs.
    fn tenths(&self) -> (f64, f64) {
        let dps = self.devices_per_s();
        let k = dps.len().div_ceil(10).max(1);
        (
            stats::median(&dps[..k]),
            stats::median(&dps[dps.len() - k..]),
        )
    }

    fn column(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }
}

/// Runs the floor in a closed loop for `seconds` (and at least
/// [`MIN_RUNS`] times), checking every run. With `export`, each run
/// publishes into a fresh registry that is then exported, timed apart
/// from the run.
fn timed_runs(
    floor: &TestFloor,
    w: &Workload,
    reference: &Reference,
    seconds: f64,
    export: bool,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let priority = w.priority_lots();
    let mut timed = Timed {
        samples: Vec::new(),
        latencies_ms: Vec::new(),
    };
    let mut stamps: Vec<(u32, u64)> = Vec::with_capacity(w.devices() as usize);
    let loop_started = Instant::now();
    while timed.samples.len() < MIN_RUNS || loop_started.elapsed().as_secs_f64() < seconds {
        let specs = w.specs().map_err(|e| e.to_string())?;
        let metrics = MetricsRegistry::new();
        let before = floor.cache().stats();
        stamps.clear();
        let t0 = Instant::now();
        let on_report = |lot: usize, _: &DeviceReport| {
            stamps.push((lot as u32, t0.elapsed().as_nanos() as u64));
        };
        let outcome = if export {
            floor.run_with_metrics(specs, &metrics, on_report)
        } else {
            floor.run_with(specs, on_report)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let after = floor.cache().stats();
        let outcome = outcome.map_err(|e| e.to_string());
        reference.check_floor(w, &outcome, tally);
        let report = outcome?;

        let (export_ms, series) = if export {
            let t = Instant::now();
            let exported = (metrics.to_json(), metrics.to_prometheus());
            let export_ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(exported);
            let series = metrics.counters().len() + metrics.histograms().len();
            (export_ms, series as u64)
        } else {
            (0.0, 0)
        };
        let ns = |v: u64| v as f64 * 1e-9;
        let latencies_ms: Vec<f64> = stamps.iter().map(|&(_, t)| t as f64 * 1e-6).collect();
        let tail_ms = stats::tail(&latencies_ms).ok_or("too few devices for a latency tail")?;
        timed.latencies_ms.extend(latencies_ms);
        timed.samples.push(Sample {
            wall_s,
            devices: report.completed(),
            wire_cycles: report.lots.iter().map(|l| l.fleet.wire_cycles).sum(),
            priority_lot_s: ns(stamps
                .iter()
                .filter(|(lot, _)| priority.contains(&(*lot as usize)))
                .map(|&(_, t)| t)
                .max()
                .unwrap_or(0)),
            first_report_s: ns(stamps.iter().map(|s| s.1).min().unwrap_or(0)),
            last_report_s: ns(stamps.iter().map(|s| s.1).max().unwrap_or(0)),
            tail_ms,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            cache_evictions: after.evictions - before.evictions,
            snapshots_per_lot: stats::mean(
                &report
                    .lots
                    .iter()
                    .map(|l| l.snapshots.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            events: report.lots.iter().map(|l| l.events.len() as u64).sum(),
            export_ms,
            series,
        });
    }
    Ok(timed)
}

struct Setup {
    workload: Workload,
    floor: TestFloor,
    first: FloorReport,
    setup_s: Vec<f64>,
    schedule_ms: Vec<f64>,
    compile_ms: Vec<f64>,
}

/// Sets the workload up [`SETUPS`] times from scratch: SoCs, schedules,
/// `LotSpec::new` compiles, a new floor, and its first (cold-cache) run.
/// The last set-up's floor is kept for the timed runs.
fn setup(name: &str, seed: u64) -> Result<Setup, String> {
    let seeds = workload::variation_seeds(name, seed)?;
    let mut kept = None;
    let (mut setup_s, mut schedule_ms, mut compile_ms) = (vec![], vec![], vec![]);
    for _ in 0..SETUPS {
        // Drop the previous floor before building the next.
        drop(kept.take());
        let started = Instant::now();
        let (workload, times) = workload::build(name, &seeds)?;
        let compile = Instant::now();
        let specs = workload.specs().map_err(|e| e.to_string())?;
        compile_ms.push(compile.elapsed().as_secs_f64() * 1e3);
        let floor = workload.floor(FLOOR_THREADS);
        let first = floor.run(specs).map_err(|e| e.to_string())?;
        setup_s.push(started.elapsed().as_secs_f64());
        schedule_ms.push(times.schedule_s * 1e3);
        kept = Some((workload, floor, first));
    }
    let (workload, floor, first) = kept.expect("at least one set-up");
    Ok(Setup {
        workload,
        floor,
        first,
        setup_s,
        schedule_ms,
        compile_ms,
    })
}

/// Builds the reference from the first floor run, printing the
/// simulation digest and simulated totals.
fn reference(w: &Workload, first: &FloorReport) -> Result<Reference, String> {
    let mut sim = Digest::default();
    for (def, lot) in w.lots.iter().zip(&first.lots) {
        if lot.aborted() || lot.fleet.devices.len() as u64 != def.devices {
            return Err(format!("lot {} did not complete its first run", def.name));
        }
        sim.devices(&lot.fleet.devices);
    }
    let total_cycles: u64 = first.lots.iter().map(|l| l.fleet.total_cycles).sum();
    let wire_cycles: u64 = first.lots.iter().map(|l| l.fleet.wire_cycles).sum();
    println!(
        "sim_digest {:016x}  total_cycles {total_cycles} cycles  wire_cycles {wire_cycles} wire-cycles  (per floor run)",
        sim.value()
    );
    let lots: Vec<Vec<DeviceReport>> = first.lots.iter().map(|l| l.fleet.devices.clone()).collect();
    Ok(Reference {
        digests: lots.iter().map(|l| check::digest(l)).collect(),
        lots,
    })
}

/// Checks the reference against the oracle and returns how many of its
/// devices the oracle contradicts; each is wrong in every run that
/// reproduced the reference. It runs after the timed runs, once the peak
/// RSS is read, so that the oracle's own memory stays out of it.
fn oracle_check(w: &Workload, reference: &Reference) -> Result<u64, String> {
    let (mut checked, mut bad) = (0, 0);
    for (def, lot) in w.lots.iter().zip(&reference.lots) {
        let oracle = check::oracle(def).map_err(|e| e.to_string())?;
        checked += oracle.len();
        bad += oracle.iter().zip(lot).filter(|(o, f)| o != f).count() as u64;
    }
    println!("oracle: {checked} devices in the other execution mode, {bad} mismatched");
    Ok(bad)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn end_to_end(setup: &Setup, timed: &Timed, m: &mut Metrics) -> Result<(), String> {
    let dps = timed.devices_per_s();
    m.put("devices_per_s", stats::median(&dps), "1/s");
    m.put(
        "wire_cycles_per_s",
        stats::median(&timed.column(|s| s.wire_cycles as f64 / s.wall_s)),
        "1/s",
    );
    m.put(
        "verdict_latency_p50_ms",
        stats::median(&timed.latencies_ms),
        "ms",
    );
    // Per run, then the median over runs: one slow run cannot set it.
    let pct = timed.samples[0].tail_ms.0;
    println!(
        "verdict_latency_tail_ms is the median over {} runs of each run's p{pct} ({} samples per run, {} in all)",
        timed.samples.len(),
        timed.latencies_ms.len() / timed.samples.len(),
        timed.latencies_ms.len()
    );
    m.put(
        "verdict_latency_tail_ms",
        stats::median(&timed.column(|s| s.tail_ms.1)),
        "ms",
    );
    m.put(
        "priority_lot_s",
        stats::median(&timed.column(|s| s.priority_lot_s)),
        "s",
    );
    m.put("setup_s", stats::median(&setup.setup_s), "s");
    // Printed, not gated: allocator arena placement moves it by up to a
    // fifth between seeds (see README.md).
    println!("peak_rss_mb {} MiB", peak_rss_mb()?);
    Ok(())
}

/// The traced run's ledger, and the measurement faults it found.
fn per_layer(
    setup: &Setup,
    reference: &Reference,
    seconds: f64,
    spans_path: &std::path::Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<Vec<String>, String> {
    let w = &setup.workload;
    let devices = w.devices() as f64;
    let policy = AdmissionPolicy::default();

    // Phase A: the two-thread floor as timed end to end, exporting metrics.
    let timed = timed_runs(&setup.floor, w, reference, seconds / 2.0, true, tally)?;
    let dps2 = stats::median(&timed.devices_per_s());
    let peak_rss = peak_rss_mb()?;

    // Phase B: single-thread floor vs traced and untraced replays, in
    // interleaved rounds over the single-thread floor's own cache.
    let floor1 = w.floor(1);
    let warm = floor1
        .run(w.specs().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string());
    reference.check_floor(w, &warm, tally);
    warm?;
    let lots: Vec<ReplayLot<'_>> = w
        .lots
        .iter()
        .map(ReplayLot::new)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let mut traced = Tracer::new(true, origin);
    let mut untraced = Tracer::new(false, origin);
    let warm = replay::run(&mut untraced, &lots, floor1.cache(), &policy);
    let warm = warm.map_err(|e| e.to_string())?;
    reference.check_lots(w, &warm.lots, tally);

    let (mut w1, mut t_walls, mut u_walls, mut ratios) = (vec![], vec![], vec![], vec![]);
    let mut counts = warm.counts;
    let mut ticks = 0;
    let phase = Instant::now();
    while w1.len() < MIN_ROUNDS || phase.elapsed().as_secs_f64() < seconds / 2.0 {
        let specs = w.specs().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcome = floor1.run(specs).map_err(|e| e.to_string());
        w1.push(t.elapsed().as_secs_f64());
        reference.check_floor(w, &outcome, tally);
        outcome?;

        let mut round = |tr: &mut Tracer| -> Result<replay::ReplayRun, String> {
            let run = replay::run(tr, &lots, floor1.cache(), &policy).map_err(|e| e.to_string())?;
            reference.check_lots(w, &run.lots, tally);
            Ok(run)
        };
        let (t_run, u_run) = if w1.len() % 2 == 0 {
            let t_run = round(&mut traced)?;
            (t_run, round(&mut untraced)?)
        } else {
            let u_run = round(&mut untraced)?;
            (round(&mut traced)?, u_run)
        };
        let (tw, uw) = (t_run.wall.as_secs_f64(), u_run.wall.as_secs_f64());
        t_walls.push(tw);
        u_walls.push(uw);
        ratios.push(tw / uw - 1.0);
        counts = t_run.counts;
        ticks = t_run.ticks;
    }

    // Self time per layer, per traced run.
    let spans = traced.spans();
    let self_ns = replay::self_times(spans);
    let runs = t_walls.len() as f64;
    let mut layer_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut per_run_sum: BTreeMap<u32, f64> = BTreeMap::new();
    for (span, &ns) in spans.iter().zip(&self_ns) {
        *layer_ms.entry(span.name).or_default() += ns as f64 * 1e-6 / runs;
        let in_closure = span.name != replay::ROOT
            && !replay::OVERLAPPED.contains(&span.name)
            && !replay::REPLAY_ONLY.contains(&span.name);
        if in_closure {
            *per_run_sum.entry(span.run).or_default() += ns as f64 * 1e-6;
        }
    }
    let layer = |name: &str| layer_ms.get(name).copied().unwrap_or(0.0);
    let layer_sum_ms = stats::median(&per_run_sum.values().copied().collect::<Vec<_>>());
    let wall1_ms = stats::median(&w1) * 1e3;
    let other_ms = wall1_ms - layer_sum_ms;
    let overhead_pct = stats::median(&ratios) * 100.0;

    println!("layer ledger (self time per replayed floor run, single thread):");
    for (name, ms) in &layer_ms {
        let role = if *name == replay::ROOT {
            "replay bookkeeping, outside the closure sum"
        } else if replay::OVERLAPPED.contains(name) {
            "off the critical path, outside the closure sum"
        } else if replay::REPLAY_ONLY.contains(name) {
            "replay-only, outside the closure sum"
        } else {
            "in the closure sum"
        };
        println!("  {name:<36} {ms:>10.3} ms  ({role})");
    }
    println!("  {:<36} {other_ms:>10.3} ms  (single-thread floor wall {wall1_ms:.3} ms minus the closure sum {layer_sum_ms:.3} ms)", "other");

    // Scalar path: the floor's scalar-path devices where it has any, else
    // a fixed sample of the first lot's devices, run outside the replay.
    let scalar_devices = counts.scalar + counts.fallback;
    let scalar_device_ms = if scalar_devices > 0 {
        (layer("sim.engine.scalar_device") + layer("sim.engine_packed.cohort.fallback"))
            / scalar_devices as f64
    } else {
        scalar_sample_ms(&lots[0], floor1.cache())?
    };

    m.put(
        "controller.schedule_ms",
        stats::median(&setup.schedule_ms),
        "ms",
    );
    m.put(
        "controller.compile_ms",
        stats::median(&setup.compile_ms),
        "ms",
    );
    m.put(
        "sim.engine_packed.compile_ms",
        layer("sim.engine_packed.compile"),
        "ms",
    );
    m.put(
        "sim.engine_packed.cohort_ms.scan",
        layer("sim.engine_packed.cohort.scan"),
        "ms",
    );
    m.put(
        "sim.engine_packed.cohort_ms.bist",
        layer("sim.engine_packed.cohort.bist"),
        "ms",
    );
    m.put(
        "sim.engine_packed.cohort_ms.memory",
        layer("sim.engine_packed.cohort.memory"),
        "ms",
    );
    m.put(
        "sim.engine_packed.cohort_ms.healthy",
        layer("sim.engine_packed.cohort.healthy"),
        "ms",
    );
    m.put(
        "sim.engine_packed.lane_devices",
        counts.lane as f64,
        "count",
    );
    m.put(
        "sim.engine_packed.baseline_devices",
        counts.baseline as f64,
        "count",
    );
    m.put(
        "sim.engine_packed.fallback_devices",
        counts.fallback as f64,
        "count",
    );
    m.put("sim.engine.scalar_device_ms", scalar_device_ms, "ms");
    m.put("sim.engine.scalar_devices", scalar_devices as f64, "count");
    m.put("sim.fleet.stamp_ms", layer("sim.fleet.stamp"), "ms");
    m.put(
        "core.route_cache.hits",
        stats::mean(&timed.column(|s| s.cache_hits as f64)),
        "count",
    );
    m.put(
        "core.route_cache.misses",
        stats::mean(&timed.column(|s| s.cache_misses as f64)),
        "count",
    );
    m.put(
        "core.route_cache.evictions",
        stats::mean(&timed.column(|s| s.cache_evictions as f64)),
        "count",
    );
    m.put(
        "core.route_cache.get_or_compile_us",
        route_probe_us(w)?,
        "us",
    );
    m.put(
        "sim.floor.prepare_ms",
        stats::median(&timed.column(|s| s.first_report_s)) * 1e3,
        "ms",
    );
    m.put(
        "sim.floor.stream_ms",
        stats::median(&timed.column(|s| s.last_report_s - s.first_report_s)) * 1e3,
        "ms",
    );
    m.put(
        "sim.floor.finalize_ms",
        stats::median(&timed.column(|s| s.wall_s - s.last_report_s)) * 1e3,
        "ms",
    );
    m.put("sim.floor.record_ms", layer("sim.floor.record"), "ms");
    m.put("sim.floor.sort_ms", layer("sim.floor.sort"), "ms");
    m.put(
        "sim.admission.ticks",
        stats::mean(&timed.column(|s| s.snapshots_per_lot)),
        "count",
    );
    m.put(
        "sim.admission.events",
        stats::mean(&timed.column(|s| s.events as f64)),
        "count",
    );
    let snapshot_calls = spans
        .iter()
        .filter(|s| s.name == "sim.monitor.snapshot")
        .count();
    m.put(
        "sim.monitor.snapshot_us",
        layer("sim.monitor.snapshot") * runs * 1e3 / snapshot_calls.max(1) as f64,
        "us",
    );
    m.put("obs.metrics.publish_ms", layer("obs.metrics.publish"), "ms");
    m.put(
        "obs.metrics.series",
        stats::median(&timed.column(|s| s.series as f64)),
        "count",
    );
    m.put(
        "obs.metrics.export_ms",
        stats::median(&timed.column(|s| s.export_ms)),
        "ms",
    );
    m.put("floor.other_ms", other_ms, "ms");
    m.put("floor.layer_sum_ms", layer_sum_ms, "ms");
    m.put("floor.single_thread_wall_ms", wall1_ms, "ms");
    m.put("floor.closure_pct", other_ms / wall1_ms * 100.0, "%");
    m.put("trace.overhead_pct", overhead_pct, "%");
    m.put(
        "trace.traced_devices_per_s",
        devices / stats::median(&t_walls),
        "1/s",
    );
    m.put(
        "trace.untraced_devices_per_s",
        devices / stats::median(&u_walls),
        "1/s",
    );
    m.put("floor.devices_per_s", dps2, "1/s");
    let (first, last) = timed.tenths();
    m.put("floor.devices_per_s_first_tenth", first, "1/s");
    m.put("floor.devices_per_s_last_tenth", last, "1/s");
    m.put("sim.admission.replayed_ticks", ticks as f64, "count");
    m.put(
        "host.hardware_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    m.put("floor.threads", FLOOR_THREADS as f64, "count");
    m.put("host.peak_rss_mb", peak_rss, "MiB");

    // Measurement faults: numbers that cannot be right.
    let mut faults = Vec::new();
    // Perfect scaling sits right at the limit, so allow the runs' own
    // spread before calling it superlinear.
    let single = devices / (layer_sum_ms * 1e-3);
    let noise = stats::relative_range(&timed.devices_per_s()).max(stats::relative_range(&t_walls));
    if dps2 > 2.0 * single * (1.0 + noise) {
        faults.push(format!(
            "{FLOOR_THREADS}-thread floor {dps2:.1} devices/s exceeds twice the single-thread replay ({single:.1} devices/s)"
        ));
    }
    let spread = stats::relative_range(&u_walls).max(stats::relative_range(&t_walls)) * 100.0;
    if overhead_pct < -spread {
        faults.push(format!(
            "tracing overhead {overhead_pct:.2}% is negative beyond the rounds' spread {spread:.2}%"
        ));
    }
    let wall_spread = stats::relative_range(&w1);
    if layer_sum_ms > wall1_ms * (1.0 + wall_spread) {
        faults.push(format!(
            "layer sum {layer_sum_ms:.3} ms exceeds the single-thread floor wall {wall1_ms:.3} ms beyond its spread {:.2}%",
            wall_spread * 100.0
        ));
    }
    write_spans(spans, spans_path)?;
    Ok(faults)
}

/// Mean host time per device of the scalar path on a fixed sample of
/// `lot`'s devices, for workloads whose floor sends no device down it.
fn scalar_sample_ms(
    lot: &ReplayLot<'_>,
    cache: &Arc<casbus::RouteTableCache>,
) -> Result<f64, String> {
    const SAMPLE: u64 = 16;
    let engine = casbus_sim::CompiledEngine::new().with_cache(Arc::clone(cache));
    let mut tr = Tracer::new(true, Instant::now());
    let mut healthy = None;
    for id in 0..SAMPLE.min(lot.def.devices) {
        let fault = lot.def.variation.fault_for(&lot.def.soc, id);
        replay::scalar_device(&mut tr, lot, &mut healthy, &engine, (id, fault))
            .map_err(|e| e.to_string())?;
    }
    let self_ns = replay::self_times(tr.spans());
    let total: u64 = tr
        .spans()
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == "sim.engine.scalar_device")
        .map(|(_, ns)| ns)
        .sum();
    Ok(total as f64 * 1e-6 / SAMPLE.min(lot.def.devices).max(1) as f64)
}

/// Mean host time of one `RouteTableCache::get_or_compile` over every
/// step of every lot, on a cache of the floor's capacity after one
/// warming pass.
fn route_probe_us(w: &Workload) -> Result<f64, String> {
    let cache = match w.cache_capacity {
        Some(c) => casbus::RouteTableCache::with_capacity(c),
        None => casbus::RouteTableCache::new(),
    };
    let mut sims = Vec::with_capacity(w.lots.len());
    for def in &w.lots {
        let plan =
            casbus_controller::CompiledProgram::compile(&def.soc, def.n, def.schedule.clone())
                .map_err(|e| e.to_string())?;
        let sim = casbus_sim::SocSimulator::new_shared(Arc::clone(&def.soc), def.n)
            .map_err(|e| e.to_string())?;
        sims.push((sim, plan));
    }
    let (mut total, mut calls) = (Duration::ZERO, 0u32);
    for pass in 0..2 {
        for (sim, plan) in &mut sims {
            for step in plan.program().steps() {
                sim.configure(&step.configuration, &step.wrapper_instructions)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                std::hint::black_box(cache.get_or_compile(sim.tam().chain()));
                if pass == 1 {
                    total += t.elapsed();
                    calls += 1;
                }
            }
        }
    }
    Ok(total.as_secs_f64() * 1e6 / f64::from(calls.max(1)))
}

fn write_spans(spans: &[replay::Span], path: &std::path::Path) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

fn result_line(correct: bool, tally: &Tally, m: &Metrics) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

fn run(args: &Args) -> Result<bool, String> {
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  hardware_threads {hardware_threads}  floor_threads {FLOOR_THREADS}",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );
    let setup = setup(&args.workload, args.seed)?;
    let reference = reference(&setup.workload, &setup.first)?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let faults = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        per_layer(&setup, &reference, args.seconds, &path, &mut m, &mut tally)?
    } else {
        let timed = timed_runs(
            &setup.floor,
            &setup.workload,
            &reference,
            args.seconds,
            false,
            &mut tally,
        )?;
        let (first, last) = timed.tenths();
        println!(
            "timed runs {}  devices_per_s first tenth {first:.1} 1/s  last tenth {last:.1} 1/s",
            timed.samples.len()
        );
        end_to_end(&setup, &timed, &mut m)?;
        Vec::new()
    };
    let bad = oracle_check(&setup.workload, &reference)?;
    tally.failed = (tally.failed + bad * tally.runs).min(tally.attempted);
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ratio  ({} of {} devices failed)",
        tally.failed, tally.attempted
    );
    for (name, value, unit) in &m.0 {
        println!("{name} {value} {unit}");
    }
    for fault in &faults {
        eprintln!("measurement fault: {fault}");
    }
    let correct = tally.failed == 0 && faults.is_empty();
    let line = result_line(correct, &tally, &m)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("floorbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
