//! The three floor workloads, generated from the `--seed` argument.
//!
//! The seed drives only each lot's `VariationSpec` (which dies carry which
//! defect, and each fault site); lot composition is fixed per workload.
//! The floor receives only the generated `LotSpec`s.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use casbus_controller::schedule::packed_schedule;
use casbus_controller::Schedule;
use casbus_sim::{LotSpec, SimError, TestFloor, VariationSpec};
use casbus_soc::{catalog, CoreDescription, SocBuilder, SocDescription, TestMethod};

pub const WORKLOADS: [&str; 3] = ["packed_lot", "mixed_floor", "lot_churn"];

/// Everything needed to build one lot, for the floor and for the replay.
pub struct LotDef {
    pub name: String,
    pub soc: Arc<SocDescription>,
    pub n: usize,
    pub schedule: Schedule,
    pub devices: u64,
    pub variation: VariationSpec,
    pub priority: u64,
    pub packed: bool,
    /// Devices `0..oracle_prefix` are checked against the oracle; the rest
    /// against the first, untimed floor run.
    pub oracle_prefix: u64,
}

impl LotDef {
    /// A fresh `LotSpec`, compiling the lot's program as a user would.
    pub fn spec(&self) -> Result<LotSpec, SimError> {
        Ok(LotSpec::new(
            self.name.clone(),
            &self.soc,
            self.n,
            self.schedule.clone(),
            self.devices,
            self.variation,
        )?
        .with_priority(self.priority)
        .with_packed(self.packed))
    }
}

pub struct Workload {
    pub lots: Vec<LotDef>,
    /// Route-cache capacity of the floor; `None` is unbounded.
    pub cache_capacity: Option<usize>,
}

impl Workload {
    pub fn specs(&self) -> Result<Vec<LotSpec>, SimError> {
        self.lots.iter().map(LotDef::spec).collect()
    }

    pub fn floor(&self, threads: usize) -> TestFloor {
        let floor = TestFloor::new().with_threads(threads);
        match self.cache_capacity {
            Some(capacity) => floor.with_cache_capacity(capacity),
            None => floor,
        }
    }

    pub fn devices(&self) -> u64 {
        self.lots.iter().map(|l| l.devices).sum()
    }

    /// Indices of the lots sharing the highest priority.
    pub fn priority_lots(&self) -> Vec<usize> {
        let top = self.lots.iter().map(|l| l.priority).max().unwrap_or(1);
        (0..self.lots.len())
            .filter(|&i| self.lots[i].priority == top)
            .collect()
    }
}

/// One defective die a stratified lot must contain: the injectable core it
/// sits on (an index into [`injectable_cores`], modulo their count) and,
/// optionally, its device id.
type Stratum = (usize, Option<u64>);

/// A lot of a workload, before its SoC is scheduled or its program
/// compiled.
struct Shape {
    name: String,
    key: &'static str,
    soc: fn() -> SocDescription,
    /// Bus width; `None` is the SoC's `max_ports`.
    n: Option<usize>,
    devices: u64,
    defect_rate: f64,
    priority: u64,
    packed: bool,
    oracle_prefix: u64,
    /// `None`: plain Bernoulli stamping. `Some`: exactly these defects
    /// (see [`stratified_seed`]).
    strata: Option<Vec<Stratum>>,
}

fn bist_memory_soc() -> SocDescription {
    SocBuilder::new("bist_memory")
        .core(CoreDescription::new(
            "bist16",
            TestMethod::Bist {
                width: 16,
                patterns: 300,
            },
        ))
        .core(CoreDescription::new(
            "dram",
            TestMethod::Memory {
                words: 64,
                data_width: 8,
            },
        ))
        .core(CoreDescription::new(
            "bist8",
            TestMethod::Bist {
                width: 8,
                patterns: 200,
            },
        ))
        .build()
        .expect("valid by construction")
}

#[allow(clippy::too_many_arguments)]
fn shape(
    name: impl Into<String>,
    key: &'static str,
    soc: fn() -> SocDescription,
    n: Option<usize>,
    devices: u64,
    defect_rate: f64,
    priority: u64,
    packed: bool,
    oracle_prefix: u64,
    strata: Option<Vec<Stratum>>,
) -> Shape {
    Shape {
        name: name.into(),
        key,
        soc,
        n,
        devices,
        defect_rate,
        priority,
        packed,
        oracle_prefix,
        strata,
    }
}

/// The lots of workload `name` and its route-cache capacity.
fn shapes(name: &str) -> Result<(Vec<Shape>, Option<usize>), String> {
    let figure1 = catalog::figure1_soc as fn() -> SocDescription;
    Ok(match name {
        "packed_lot" => (
            vec![shape(
                "figure1",
                "figure1",
                figure1,
                Some(8),
                2048,
                0.25,
                1,
                true,
                96,
                None,
            )],
            None,
        ),
        "mixed_floor" => (
            vec![
                shape(
                    "figure1",
                    "figure1",
                    figure1,
                    Some(8),
                    512,
                    0.25,
                    3,
                    true,
                    64,
                    None,
                ),
                shape(
                    "bist_memory",
                    "bist_memory",
                    bist_memory_soc,
                    None,
                    4096,
                    1.0,
                    2,
                    true,
                    256,
                    None,
                ),
                // A quarter of 16 dies defective, on cpu0 (large scan),
                // sram0 (BIST), drameric (memory) and periph0 (small
                // scan). A defective cpu0 costs about ten healthy dies on
                // the scalar path, so where it sits in the lot's queue
                // decides when the floor finishes; it sits last, where it
                // sets the tail.
                shape(
                    "itc02_like",
                    "itc02_like",
                    catalog::itc02_like_soc,
                    Some(16),
                    16,
                    0.25,
                    1,
                    false,
                    16,
                    Some(vec![(0, Some(15)), (4, None), (6, None), (7, None)]),
                ),
            ],
            None,
        ),
        "lot_churn" => {
            type Kind = (&'static str, fn() -> SocDescription, Option<usize>, u64);
            let kinds: [Kind; 6] = [
                ("figure2a", catalog::figure2a_scan_soc, None, 64),
                ("figure2b", catalog::figure2b_bist_soc, None, 64),
                ("figure2c", catalog::figure2c_external_soc, None, 64),
                ("figure2d", catalog::figure2d_hierarchical_soc, None, 64),
                ("maintenance", catalog::maintenance_soc, None, 64),
                ("figure1", figure1, Some(8), 16),
            ];
            // One defective die per lot (2 % of 64, rounded), on the lot's
            // k-th injectable core for its k-th occurrence, so the lane runs
            // a run needs are the same for every seed.
            let lots = (0..24)
                .map(|i| {
                    let (key, soc, n, prefix) = kinds[i % kinds.len()];
                    let strata = vec![(i / kinds.len(), None)];
                    shape(
                        format!("{key}_{i}"),
                        key,
                        soc,
                        n,
                        64,
                        0.02,
                        1 + i as u64 % 3,
                        true,
                        prefix,
                        Some(strata),
                    )
                })
                .collect();
            (lots, Some(8))
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// SplitMix64 step: decorrelates the per-lot variation seeds.
fn mix(seed: u64, lot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lot.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cores `VariationSpec` may stamp a defect onto, in SoC order.
fn injectable_cores(soc: &SocDescription) -> Vec<&str> {
    soc.cores()
        .iter()
        .filter(|core| match core.method() {
            TestMethod::Scan { chains, .. } => !chains.is_empty(),
            TestMethod::Bist { patterns, .. } => *patterns > 0,
            TestMethod::Memory { .. } => true,
            _ => false,
        })
        .map(CoreDescription::name)
        .collect()
}

/// The first variation seed derived from `seed` under which the lot's
/// defective dies are exactly `strata`: one per entry, on that core, at
/// that device id where one is given. The seed still picks the other
/// defective dies' ids and every fault site. Fixing what a small lot's
/// cost depends on (how many dies take a lane run or a scalar run, on
/// which cores, and where the one costly die sits) keeps that cost the same
/// for every seed. A SoC with no injectable core can only have no defects.
fn stratified_seed(seed: u64, lot: u64, shape: &Shape, strata: &[Stratum]) -> Result<u64, String> {
    const ATTEMPTS: u64 = 1 << 24;
    let soc = (shape.soc)();
    let cores = injectable_cores(&soc);
    let strata: Vec<(&str, Option<u64>)> = match cores.len() {
        0 => Vec::new(),
        k => strata.iter().map(|&(i, id)| (cores[i % k], id)).collect(),
    };
    let mut free: Vec<&str> = strata
        .iter()
        .filter(|(_, id)| id.is_none())
        .map(|(core, _)| *core)
        .collect();
    free.sort_unstable();
    (0..ATTEMPTS)
        .map(|attempt| mix(seed, lot ^ (attempt << 32)))
        .find(|&candidate| {
            let spec = VariationSpec::new(candidate, shape.defect_rate);
            let defects: Vec<(u64, String)> = (0..shape.devices)
                .filter_map(|id| spec.fault_for(&soc, id).map(|f| (id, f.core)))
                .take(strata.len() + 1)
                .collect();
            if defects.len() != strata.len() {
                return false;
            }
            let pinned = |(id, core): &(u64, String)| {
                strata.iter().any(|&(c, at)| at == Some(*id) && c == core)
            };
            let mut rest: Vec<&str> = defects
                .iter()
                .filter(|d| !pinned(d))
                .map(|(_, core)| core.as_str())
                .collect();
            rest.sort_unstable();
            rest == free
        })
        .ok_or_else(|| format!("no seed in {ATTEMPTS} stamps defects as {strata:?}"))
}

/// The generated inputs of workload `name` for `seed`: one variation seed
/// per lot. Searching for stratified seeds is input generation, so it runs
/// once, apart from the set-up that `setup_s` times.
pub fn variation_seeds(name: &str, seed: u64) -> Result<Vec<u64>, String> {
    let (shapes, _) = shapes(name)?;
    shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| match &shape.strata {
            None => Ok(mix(seed, i as u64)),
            Some(strata) => stratified_seed(seed, i as u64, shape, strata),
        })
        .collect()
}

/// Host time spent building a workload, by controller layer.
#[derive(Default, Clone, Copy)]
pub struct BuildTimes {
    pub schedule_s: f64,
}

/// Builds workload `name` from its variation seeds: SoCs, one packed
/// schedule per distinct SoC, and lot definitions (programs are compiled
/// later, by `LotSpec::new`).
pub fn build(name: &str, seeds: &[u64]) -> Result<(Workload, BuildTimes), String> {
    let (shapes, cache_capacity) = shapes(name)?;
    let mut times = BuildTimes::default();
    let mut plans: BTreeMap<&str, (Arc<SocDescription>, usize, Schedule)> = BTreeMap::new();
    let mut lots = Vec::with_capacity(shapes.len());
    for (shape, &seed) in shapes.into_iter().zip(seeds) {
        if !plans.contains_key(shape.key) {
            let soc = Arc::new((shape.soc)());
            let n = shape.n.unwrap_or_else(|| soc.max_ports());
            let started = Instant::now();
            let schedule = packed_schedule(&soc, n).map_err(|e| e.to_string())?;
            times.schedule_s += started.elapsed().as_secs_f64();
            plans.insert(shape.key, (soc, n, schedule));
        }
        let (soc, n, schedule) = plans[shape.key].clone();
        lots.push(LotDef {
            name: shape.name,
            soc,
            n,
            schedule,
            devices: shape.devices,
            variation: VariationSpec::new(seed, shape.defect_rate),
            priority: shape.priority,
            packed: shape.packed,
            oracle_prefix: shape.oracle_prefix,
        });
    }
    Ok((
        Workload {
            lots,
            cache_capacity,
        },
        times,
    ))
}
