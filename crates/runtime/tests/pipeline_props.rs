//! Property tests for the deferred-execution pipeline.
//!
//! Three invariants carry inter-launch dependence inference:
//!
//! 1. **Summaries cover their launches.** Every point requirement is
//!    contained in a whole-launch summary entry of the same region and
//!    privilege, so summary-level analysis can never miss a conflict a
//!    point pair would have had.
//! 2. **The flat graph serializes cross-launch conflicts.** RAW, WAR,
//!    WAW, and read-or-write against a reduction between two launches'
//!    summaries order every point of the earlier launch before every point
//!    of the later one; disjoint and Reduce/Reduce launches get no cross
//!    edge.
//! 3. **Pipelined equals serial, bitwise.** Draining randomized multi-
//!    launch pipelines whose point bodies perform non-commutative updates
//!    produces bit-identical region contents under `ExecMode::Serial`
//!    (issue order — launch-at-a-time) and `ExecMode::Parallel(n)`.

use std::sync::Mutex;

use proptest::prelude::*;
use spdistal_runtime::pipeline::{LaunchDesc, Pipeline};
use spdistal_runtime::sched::{reqs_conflict, ExecMode, TaskGraph};
use spdistal_runtime::{
    IntervalSet, LaunchId, Machine, MachineProfile, Privilege, Rect1, RegionId, RegionReq, Runtime,
    TaskSpec,
};

const NUM_REGIONS: usize = 3;
const REGION_LEN: usize = 64;

fn privilege(k: usize) -> Privilege {
    match k {
        0 => Privilege::Read,
        1 => Privilege::ReadWrite,
        _ => Privilege::Reduce,
    }
}

/// A randomized pipeline: 1-5 launches of 1-4 point tasks, each point with
/// 1-3 requirements of (region, subset, privilege).
fn arb_launches() -> impl Strategy<Value = Vec<Vec<Vec<RegionReq>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec((0usize..NUM_REGIONS, 0i64..56, 0i64..8, 0usize..3), 1..4),
            1..5,
        ),
        1..6,
    )
    .prop_map(|launches| {
        launches
            .into_iter()
            .map(|points| {
                points
                    .into_iter()
                    .map(|reqs| {
                        reqs.into_iter()
                            .map(|(region, lo, len, p)| RegionReq {
                                region: RegionId(region as u32),
                                subset: IntervalSet::from_rect(Rect1::new(lo, lo + len)),
                                privilege: privilege(p),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    })
}

/// The summary-level analysis `Pipeline::new` replaced: launch edges from
/// `TaskGraph::from_reqs` over the whole-launch summaries, as predecessor
/// lists.
fn summary_preds(ds: &[LaunchDesc]) -> Vec<Vec<usize>> {
    let summaries: Vec<_> = ds.iter().map(LaunchDesc::summary).collect();
    let graph = TaskGraph::from_reqs(&summaries);
    let mut preds = vec![Vec::new(); ds.len()];
    for a in 0..ds.len() {
        for &b in graph.successors(a) {
            preds[b].push(a);
        }
    }
    preds
}

fn descs(launches: &[Vec<Vec<RegionReq>>]) -> Vec<LaunchDesc> {
    launches
        .iter()
        .enumerate()
        .map(|(k, points)| LaunchDesc::new(format!("launch{k}"), points.clone()))
        .collect()
}

/// Drain a pipeline the way plan execution does: `ReadWrite` requirements
/// mutate the shared region in place (non-commutatively), `Reduce`
/// requirements accumulate into point-private partials combined in
/// (launch, point) order afterwards, `Read` requirements only read.
/// Returns the bit patterns of every region.
fn execute(mode: ExecMode, launches: &[Vec<Vec<RegionReq>>]) -> Vec<Vec<u64>> {
    let pipeline = Pipeline::new(descs(launches));
    let regions: Vec<Mutex<Vec<f64>>> = (0..NUM_REGIONS)
        .map(|r| Mutex::new(vec![1.0 + r as f64; REGION_LEN]))
        .collect();
    type Partials = Vec<(usize, Vec<f64>)>;
    let partials: Vec<Vec<Mutex<Option<Partials>>>> = launches
        .iter()
        .map(|points| (0..points.len()).map(|_| Mutex::new(None)).collect())
        .collect();

    pipeline.run(mode, |l, p, _| {
        let salt = (pipeline.flat_index(l, p) + 1) as f64;
        let mut mine = Vec::new();
        for req in &launches[l][p] {
            let region = req.region.0 as usize;
            match req.privilege {
                Privilege::Read => {
                    let buf = regions[region].lock().unwrap();
                    let sum: f64 = req.subset.iter_points().map(|q| buf[q as usize]).sum();
                    std::hint::black_box(sum);
                }
                Privilege::ReadWrite => {
                    let mut buf = regions[region].lock().unwrap();
                    for q in req.subset.iter_points() {
                        // Non-commutative update: ordering errors flip bits.
                        buf[q as usize] = buf[q as usize] * 1.0625 + salt;
                    }
                }
                Privilege::Reduce => {
                    let mut local = vec![0.0; REGION_LEN];
                    for q in req.subset.iter_points() {
                        local[q as usize] += salt * 0.125;
                    }
                    mine.push((region, local));
                }
            }
        }
        *partials[l][p].lock().unwrap() = Some(mine);
    });

    // Deterministic ordered combine of the reduction partials.
    for launch in partials {
        for slot in launch {
            for (region, local) in slot.into_inner().unwrap().expect("point ran") {
                let mut buf = regions[region].lock().unwrap();
                for (dst, src) in buf.iter_mut().zip(&local) {
                    *dst += *src;
                }
            }
        }
    }

    regions
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summaries_cover_every_point_requirement(launches in arb_launches()) {
        for (k, points) in launches.iter().enumerate() {
            let summary = LaunchDesc::new(format!("l{k}"), points.clone()).summary();
            for req in points.iter().flatten() {
                prop_assert!(
                    summary.iter().any(|s| s.region == req.region
                        && s.privilege == req.privilege
                        && s.subset.contains_set(&req.subset)),
                    "summary of launch {k} misses a point requirement"
                );
            }
        }
    }

    /// The region-first launch analysis inside `Pipeline::new` decides
    /// exactly what the summary-level analysis decides (so `preds()` — what
    /// the model replay is gated on — is equal), extras included, and the
    /// flat graph is edge-for-edge the one the per-launch graphs plus the
    /// launch edges make: every successor list in the same order.
    #[test]
    fn region_first_analysis_equals_summary_analysis(
        launches in arb_launches(),
        extras in proptest::collection::vec((0usize..NUM_REGIONS, 0i64..56, 0i64..8, 0usize..3), 0..4),
    ) {
        let mut ds = descs(&launches);
        for (k, (region, lo, len, p)) in extras.into_iter().enumerate() {
            let n = ds.len();
            let d = ds.remove(k % n);
            ds.insert(k % n, d.with_extra_reqs(vec![RegionReq {
                region: RegionId(region as u32),
                subset: IntervalSet::from_rect(Rect1::new(lo, lo + len)),
                privilege: privilege(p),
            }]));
        }
        let preds = summary_preds(&ds);
        let pipeline = Pipeline::new(ds.clone());
        prop_assert_eq!(pipeline.preds(), &preds[..]);

        // The oracle: each launch's own point graph, offset, then all point
        // pairs of every launch edge `a -> b`, `a` then `b` ascending.
        let offsets: Vec<usize> = ds
            .iter()
            .scan(0, |next, d| {
                let base = *next;
                *next += d.num_points();
                Some(base)
            })
            .collect();
        let mut succs = vec![Vec::new(); pipeline.num_tasks()];
        for (d, &base) in ds.iter().zip(&offsets) {
            let intra = TaskGraph::from_reqs(&d.point_reqs);
            for i in 0..d.num_points() {
                succs[base + i].extend(intra.successors(i).iter().map(|&j| base + j));
            }
        }
        for a in 0..ds.len() {
            for b in (a + 1)..ds.len() {
                if preds[b].contains(&a) {
                    for i in 0..ds[a].num_points() {
                        succs[offsets[a] + i].extend((0..ds[b].num_points()).map(|j| offsets[b] + j));
                    }
                }
            }
        }
        let graph = pipeline.task_graph();
        prop_assert_eq!(graph.num_edges(), succs.iter().map(Vec::len).sum::<usize>());
        for (u, expected) in succs.iter().enumerate() {
            prop_assert_eq!(graph.successors(u), &expected[..], "successors of task {}", u);
        }
    }

    /// Point level: a pair of launches whose summaries conflict has every
    /// point of the earlier one ordered before every point of the later one
    /// in the flat graph; a pair that commutes has no cross edge at all.
    #[test]
    fn launch_graph_serializes_cross_launch_conflicts(launches in arb_launches()) {
        let ds = descs(&launches);
        let summaries: Vec<_> = ds.iter().map(LaunchDesc::summary).collect();
        let pipeline = Pipeline::new(ds);
        let graph = pipeline.task_graph();
        prop_assert_eq!(pipeline.num_launches(), launches.len());
        for i in 0..launches.len() {
            for j in (i + 1)..launches.len() {
                // Any conflicting cross-launch point pair implies a
                // summary conflict implies serialization.
                let point_conflict = launches[i].iter().any(|a| {
                    launches[j].iter().any(|b| reqs_conflict(a, b))
                });
                if point_conflict {
                    prop_assert!(
                        reqs_conflict(&summaries[i], &summaries[j]),
                        "summaries of {i}/{j} miss a point-pair conflict"
                    );
                }
                let conflict = reqs_conflict(&summaries[i], &summaries[j]);
                for p in 0..launches[i].len() {
                    let from = pipeline.flat_index(i, p);
                    for q in 0..launches[j].len() {
                        let to = pipeline.flat_index(j, q);
                        if conflict {
                            prop_assert!(
                                graph.path_exists(from, to),
                                "conflicting launches {i} and {j}: point {p} does not reach point {q}"
                            );
                        } else {
                            prop_assert!(
                                !graph.successors(from).contains(&to),
                                "commuting launches {i} and {j} got an edge {p} -> {q}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_execution_is_bit_identical_to_serial(launches in arb_launches()) {
        let serial = execute(ExecMode::Serial, &launches);
        for threads in [2usize, 4] {
            let pipelined = execute(ExecMode::Parallel(threads), &launches);
            prop_assert_eq!(
                &pipelined, &serial,
                "bitwise divergence with {} threads", threads
            );
        }
    }
}

const MODEL_PROCS: usize = 4;

/// Randomized model-replay workloads: 1-6 launches of 1-4 compute tasks
/// (proc, ops), plus a per-launch predecessor bitmask over earlier
/// launches.
fn arb_model_launches() -> impl Strategy<Value = Vec<(Vec<(usize, u32)>, u32)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..MODEL_PROCS, 0u32..2_000_000), 1..5),
            0u32..u32::MAX,
        ),
        1..7,
    )
}

/// Replay `launches` through `index_launch_after`, wiring predecessors from
/// each launch's bitmask (`preds_from_mask = false` forces a chain).
/// Returns (graph-ordered makespan, sum of sequential spans, canonical
/// `now()`).
fn model_replay(launches: &[(Vec<(usize, u32)>, u32)], chain: bool) -> (f64, f64, f64) {
    let mut rt = Runtime::new(Machine::grid1d(MODEL_PROCS, MachineProfile::test_profile()));
    let mut ids: Vec<LaunchId> = Vec::new();
    let mut seq_sum = 0.0;
    let mut makespan = 0.0f64;
    for (k, (tasks, mask)) in launches.iter().enumerate() {
        let specs: Vec<TaskSpec> = tasks
            .iter()
            .map(|&(p, ops)| TaskSpec::new(p, ops as f64))
            .collect();
        let preds: Vec<LaunchId> = if chain {
            ids.last().copied().into_iter().collect()
        } else {
            ids.iter()
                .enumerate()
                .filter(|(a, _)| mask & (1 << (a % 32)) != 0)
                .map(|(_, id)| *id)
                .collect()
        };
        let rec = rt
            .index_launch_after(&format!("l{k}"), specs, &preds)
            .unwrap();
        assert!(rec.model.issue <= rec.model.start && rec.model.start <= rec.model.finish);
        seq_sum += rec.model.seq_span;
        makespan = makespan.max(rec.model.finish);
        ids.push(rec.id);
    }
    (makespan, seq_sum, rt.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Graph-ordered modeled makespan never exceeds the sequential modeled
    /// sum, a chain tiles exactly to it, and the canonical timeline is
    /// blind to the predecessor structure.
    #[test]
    fn model_makespan_bounded_by_sequential_sum(launches in arb_model_launches()) {
        let (makespan, seq_sum, now) = model_replay(&launches, false);
        prop_assert!(
            makespan <= seq_sum * (1.0 + 1e-12) + 1e-15,
            "graph-ordered makespan {makespan} exceeds sequential sum {seq_sum}"
        );
        let (chain_span, chain_sum, chain_now) = model_replay(&launches, true);
        prop_assert!((chain_sum - seq_sum).abs() <= 1e-12 * seq_sum.max(1.0));
        prop_assert!(
            (chain_span - chain_sum).abs() <= 1e-9 * chain_sum.max(1.0),
            "a chain must tile: makespan {chain_span} vs sequential sum {chain_sum}"
        );
        // Canonical clocks (hence every launch's incremental simulated
        // time) are identical whatever the dependence structure claims.
        prop_assert_eq!(now, chain_now);
    }
}

/// The headline dependence cases, stated directly: RAW, WAR, and WAW
/// across launches serialize; disjoint writes and Reduce/Reduce overlap.
#[test]
fn raw_war_waw_serialize_disjoint_and_reduce_overlap() {
    let req = |lo: i64, hi: i64, p: Privilege| RegionReq {
        region: RegionId(0),
        subset: IntervalSet::from_rect(Rect1::new(lo, hi)),
        privilege: p,
    };
    // Two launches, each two points over [0,19] of region 0.
    let two_points =
        |p: Privilege| -> Vec<Vec<RegionReq>> { vec![vec![req(0, 9, p)], vec![req(10, 19, p)]] };
    // Whether launch `b` serializes behind launch `a`.
    let serialized = |a: Vec<Vec<RegionReq>>, b: Vec<Vec<RegionReq>>| {
        let pipeline = Pipeline::new(vec![LaunchDesc::new("a", a), LaunchDesc::new("b", b)]);
        pipeline.preds()[1] == [0]
    };

    // WAW.
    assert!(serialized(
        two_points(Privilege::ReadWrite),
        two_points(Privilege::ReadWrite),
    ));
    // RAW.
    assert!(serialized(
        two_points(Privilege::ReadWrite),
        two_points(Privilege::Read),
    ));
    // WAR.
    assert!(serialized(
        two_points(Privilege::Read),
        two_points(Privilege::ReadWrite),
    ));
    // Disjoint writes overlap.
    assert!(!serialized(
        vec![vec![req(0, 9, Privilege::ReadWrite)]],
        vec![vec![req(10, 19, Privilege::ReadWrite)]],
    ));
    // Reduce/Reduce over the same subset overlaps.
    assert!(!serialized(
        two_points(Privilege::Reduce),
        two_points(Privilege::Reduce)
    ));
    // Read/Read overlaps.
    assert!(!serialized(
        two_points(Privilege::Read),
        two_points(Privilege::Read)
    ));
}

/// The driver runs every point of every launch exactly once, and fully
/// orders dependent launches.
#[test]
fn driver_runs_points_once_and_orders_dependents() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let req = |p: Privilege| RegionReq {
        region: RegionId(0),
        subset: IntervalSet::from_rect(Rect1::new(0, 63)),
        privilege: p,
    };
    let launches: Vec<LaunchDesc> = (0..4)
        .map(|k| {
            LaunchDesc::new(
                format!("l{k}"),
                (0..3).map(|_| vec![req(Privilege::ReadWrite)]).collect(),
            )
        })
        .collect();
    let pipeline = Pipeline::new(launches);
    let counts: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
    let order = Mutex::new(Vec::new());
    let (report, timings) = pipeline.run(ExecMode::Parallel(4), |l, p, _| {
        counts[pipeline.flat_index(l, p)].fetch_add(1, Ordering::Relaxed);
        order.lock().unwrap().push(l);
    });
    assert_eq!(report.tasks, 12);
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    // Fully conflicting launches: the launch sequence must be sorted.
    let order = order.into_inner().unwrap();
    assert!(order.windows(2).all(|w| w[0] <= w[1]));
    // And the milestones reflect the serialization.
    for pair in timings.windows(2) {
        assert!(pair[1].start >= pair[0].drain);
    }
}
