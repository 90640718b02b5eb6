//! Pins of the fleet's published surface: the exact metric names a packed
//! and a scalar fleet run publish, and that a runner compiles its packed
//! engine once, not once per run.

use casbus_controller::schedule::packed_schedule;
use casbus_obs::MetricsRegistry;
use casbus_sim::{FleetRunner, VariationSpec};
use casbus_soc::catalog;

/// Every non-`obs.*` metric name a run published: counters, then
/// histograms.
fn metric_names(metrics: &MetricsRegistry) -> Vec<String> {
    metrics
        .counters()
        .into_iter()
        .map(|(name, _)| name)
        .chain(metrics.histograms().into_iter().map(|(name, _)| name))
        .filter(|name| !name.starts_with("obs."))
        .collect()
}

#[test]
fn fleet_metric_keys_are_pinned() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).unwrap();
    let spec = VariationSpec::new(11, 0.5);
    let common = [
        "fleet.bus.wire_cycles",
        "fleet.cycles.total",
        "fleet.defects.injected",
        "fleet.devices",
        "fleet.failed",
    ];
    let cache_and_threads = [
        "fleet.passed",
        "fleet.route_cache.evictions",
        "fleet.route_cache.hits",
        "fleet.route_cache.misses",
        "fleet.route_cache.shapes",
        "fleet.threads",
    ];
    let packed_only = [
        "fleet.packed.baseline.devices",
        "fleet.packed.cohorts",
        "fleet.packed.fallback.devices",
        "fleet.packed.lane.devices",
    ];
    for packed in [true, false] {
        let runner = FleetRunner::new(&soc, 4, schedule.clone())
            .unwrap()
            .with_threads(2)
            .with_packed(packed);
        let metrics = MetricsRegistry::new();
        runner
            .run_with_metrics(&spec, 24, &metrics, None, |_| {})
            .unwrap();
        let mut expected: Vec<&str> = common.to_vec();
        if packed {
            expected.extend(packed_only);
        }
        expected.extend(cache_and_threads);
        expected.push("fleet.device.cycles");
        assert_eq!(metric_names(&metrics), expected, "packed = {packed}");
        assert!(
            metrics
                .counters()
                .iter()
                .all(|(n, _)| !n.starts_with("floor.")),
            "a fleet publishes no floor.* key"
        );
    }
}

#[test]
fn packed_engine_is_compiled_once_per_runner() {
    let soc = catalog::figure1_soc();
    let runner = FleetRunner::new(&soc, 8, packed_schedule(&soc, 8).unwrap())
        .unwrap()
        .with_threads(2);
    let first = runner.run(&VariationSpec::perfect(), 70).unwrap();
    let lookups = runner.cache().hits() + runner.cache().misses();
    assert!(lookups > 0, "the first run compiles the packed engine");
    let second = runner.run(&VariationSpec::perfect(), 70).unwrap();
    assert_eq!(
        runner.cache().hits() + runner.cache().misses(),
        lookups,
        "a second healthy packed run does no route-cache lookup"
    );
    assert_eq!(first.devices, second.devices);
}
