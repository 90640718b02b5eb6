//! Bad input to the public serving constructors and entry points: each is
//! either mapped to a documented safe value or rejected with a `SimError`,
//! never silently misread.

use casbus_controller::schedule::packed_schedule;
use casbus_controller::CompiledProgram;
use casbus_obs::MetricsRegistry;
use casbus_sim::engine_packed::COHORT_LANES;
use casbus_sim::{LotSpec, PackedDeviceEngine, SimError, TestFloor, VariationSpec};
use casbus_soc::catalog;
use std::sync::Arc;

#[test]
fn nan_defect_rate_stamps_no_defects() {
    let soc = catalog::figure1_soc();
    let spec = VariationSpec::new(9, f64::NAN);
    assert_eq!(spec.defect_rate(), 0.0);
    let defective = (0..64)
        .filter(|&id| spec.fault_for(&soc, id).is_some())
        .count();
    assert_eq!(defective, 0, "NaN rate must stamp 0 of 64 dies defective");
}

#[test]
fn out_of_range_defect_rates_clamp() {
    assert_eq!(VariationSpec::new(1, -0.5).defect_rate(), 0.0);
    assert_eq!(VariationSpec::new(1, 7.0).defect_rate(), 1.0);
    assert_eq!(VariationSpec::new(1, f64::INFINITY).defect_rate(), 1.0);
    assert_eq!(VariationSpec::new(1, f64::NEG_INFINITY).defect_rate(), 0.0);
}

#[test]
fn duplicate_lot_names_are_rejected_before_dispatch() {
    let soc = catalog::figure2a_scan_soc();
    let lot = |name: &str, devices| {
        LotSpec::new(
            name,
            &soc,
            4,
            packed_schedule(&soc, 4).expect("schedule"),
            devices,
            VariationSpec::new(3, 0.5),
        )
        .expect("lot")
    };
    let floor = TestFloor::new().with_threads(2);
    let metrics = MetricsRegistry::new();
    let mut streamed = 0usize;
    let result = floor.run_with_metrics(
        vec![lot("a", 10), lot("b", 5), lot("a", 20)],
        &metrics,
        |_, _| streamed += 1,
    );
    assert_eq!(result.unwrap_err(), SimError::DuplicateLot("a".to_owned()));
    assert_eq!(streamed, 0, "no device was dispatched");
    assert!(
        !metrics.to_json().contains("floor."),
        "no floor metrics were published"
    );
    assert_eq!(floor.cache().stats().misses, 0, "no engine was compiled");

    // The floor stays usable: distinct names run to completion.
    let report = floor
        .run(vec![lot("a", 10), lot("b", 20)])
        .expect("distinct names run");
    assert_eq!(report.lots.len(), 2);
    assert_eq!(report.lots[0].fleet.devices.len(), 10);
    assert_eq!(report.lots[1].fleet.devices.len(), 20);
}

#[test]
fn oversized_cohort_is_rejected() {
    let soc = Arc::new(catalog::figure2a_scan_soc());
    let plan = CompiledProgram::compile(&soc, 4, packed_schedule(&soc, 4).expect("schedule"))
        .expect("plan");
    let cache = Arc::new(casbus::RouteTableCache::new());
    let engine = PackedDeviceEngine::compile(&soc, &Arc::new(plan), &cache).expect("engine");
    let spec = VariationSpec::new(5, 0.5);
    let members = |n: u64| -> Vec<_> { (0..n).map(|id| (id, spec.fault_for(&soc, id))).collect() };

    assert_eq!(
        engine.run_cohort(members(COHORT_LANES as u64 + 1)),
        Err(SimError::CohortTooLarge {
            members: COHORT_LANES + 1,
            lanes: COHORT_LANES,
        })
    );
    let full = engine
        .run_cohort(members(COHORT_LANES as u64))
        .expect("a full cohort runs");
    assert_eq!(full.len(), COHORT_LANES);
}
