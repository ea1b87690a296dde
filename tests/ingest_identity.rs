//! The ingestion bar: `Context::update_batch` locates each delta by
//! bisection and either writes values in place or merges the batch into the
//! stored entries — and must leave the tensor, its report, its dirty state
//! and its versions exactly where the algorithm it replaced left them. That
//! algorithm (flatten the tensor, apply the batch to a map of every entry,
//! re-pack) lives on here as the [`Oracle`], written against public API.
//!
//! Beside the differential sweep: what a value-only batch shows the machine
//! model equals what a wholesale replacement shows it, and its O(delta)
//! cost is witnessed by counts — the same allocations, the same regions —
//! not by clocks.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use spdistal_repro::runtime::IntervalSet;
use spdistal_repro::sparse::{
    convert::with_formats, dense_vector, generate, CooTensor, Level, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::prelude::*;

const PIECES: usize = 4;

fn machine() -> Machine {
    Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
}

/// The tracked dirty state, with the bitmap spelled out as a row set.
#[derive(Clone, Debug, PartialEq)]
struct Dirty {
    rows: BTreeSet<i64>,
    structural: bool,
    from_version: u64,
    tracked_version: u64,
    deltas_applied: u64,
}

/// `update_batch` as it was before it worked in O(delta).
struct Oracle {
    data: SpTensor,
    version: u64,
    dirty: Option<Dirty>,
}

impl Oracle {
    /// A tensor as `add_tensor` registers it: version 1, nothing tracked.
    fn new(data: SpTensor) -> Oracle {
        Oracle {
            data,
            version: 1,
            dirty: None,
        }
    }

    fn update_batch(&mut self, deltas: &[CoordDelta]) -> Result<UpdateReport, ()> {
        let dims = self.data.dims().to_vec();
        for d in deltas {
            let in_bounds = |(c, n): (&i64, &usize)| *c >= 0 && (*c as usize) < *n;
            if d.coord.len() != dims.len() || !d.coord.iter().zip(&dims).all(in_bounds) {
                return Err(());
            }
        }
        let mut report = UpdateReport::default();
        if deltas.is_empty() {
            report.rows_dirty = self.dirty.as_ref().map_or(0, |d| d.rows.len());
            return Ok(report);
        }
        let mut entries: BTreeMap<Vec<i64>, f64> = self.data.to_coo().into_iter().collect();
        let mut touched = Vec::new();
        for d in deltas {
            match d.op {
                DeltaOp::Insert | DeltaOp::Overwrite => {
                    match entries.insert(d.coord.clone(), d.val) {
                        Some(_) => report.overwritten += 1,
                        None => {
                            report.inserted += 1;
                            report.structural = true;
                        }
                    }
                    touched.push(d.coord[0]);
                }
                DeltaOp::Delete => {
                    if entries.remove(&d.coord).is_some() {
                        report.deleted += 1;
                        report.structural = true;
                        touched.push(d.coord[0]);
                    } else {
                        report.ignored += 1;
                    }
                }
            }
        }
        let mut coo = CooTensor::new(dims);
        for (c, v) in &entries {
            coo.push(c, *v);
        }
        self.data = coo.build(&self.data.formats());
        let dirty = self.dirty.get_or_insert(Dirty {
            rows: BTreeSet::new(),
            structural: false,
            from_version: self.version,
            tracked_version: 0,
            deltas_applied: 0,
        });
        self.version += 1;
        dirty.rows.extend(touched);
        dirty.structural |= report.structural;
        dirty.tracked_version = self.version;
        dirty.deltas_applied += report.applied() as u64;
        report.rows_dirty = dirty.rows.len();
        Ok(report)
    }
}

/// Everything the oracle predicts, read back from a context.
type Observed = (Vec<usize>, Vec<Level>, Vec<u64>, u64, Option<Dirty>);

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// The stored values as bits: NaN, subnormals and `-0.0` must survive as
/// themselves. One exception: under a trailing dense level a stored zero
/// means "absent" whatever its sign, and the rebuild forgot the sign of a
/// written `-0.0` one batch late (its next flattening dropped the entry),
/// where an in-place write keeps it — so there zeros compare unsigned.
fn stored_bits(t: &SpTensor) -> Vec<u64> {
    let trailing_dense = matches!(t.levels().last(), Some(Level::Dense { .. }));
    let unsigned_zero = |v: &f64| if trailing_dense && *v == 0.0 { 0.0 } else { *v };
    t.vals()
        .iter()
        .map(|v| unsigned_zero(v).to_bits())
        .collect()
}

fn observe(c: &Context) -> Observed {
    let t = &c.tensor("T").unwrap().data;
    let dirty = c.dirty_state("T").map(|d| Dirty {
        rows: (0..d.map.rows() as i64)
            .filter(|&r| d.map.is_dirty(r))
            .collect(),
        structural: d.structural,
        from_version: d.from_version,
        tracked_version: d.tracked_version,
        deltas_applied: d.deltas_applied,
    });
    (
        t.dims().to_vec(),
        t.levels().to_vec(),
        stored_bits(t),
        c.tensor_version("T"),
        dirty,
    )
}

fn predicted(o: &Oracle) -> Observed {
    (
        o.data.dims().to_vec(),
        o.data.levels().to_vec(),
        stored_bits(&o.data),
        o.version,
        o.dirty.clone(),
    )
}

/// What the runtime holds for the context's tensors.
fn footprint(c: &Context) -> (usize, Vec<u64>) {
    let resident = (0..PIECES).map(|p| c.runtime().resident_bytes(p)).collect();
    (c.runtime().live_regions(), resident)
}

fn registered(format: &Format, data: &SpTensor) -> (Context, Oracle) {
    let mut c = Context::new(machine());
    c.add_tensor("T", data.clone(), format.clone()).unwrap();
    (c, Oracle::new(data.clone()))
}

/// Apply one batch to both sides and hold every observable against the
/// oracle; a batch the oracle rejects must be rejected and change nothing.
fn apply(c: &mut Context, o: &mut Oracle, batch: &[CoordDelta], tag: &str) {
    let before = (observe(c), footprint(c));
    match o.update_batch(batch) {
        Ok(expect) => {
            let got = c.update_batch("T", batch);
            assert_eq!(got.ok(), Some(expect), "{tag}: report");
            assert_eq!(observe(c), predicted(o), "{tag}: state");
        }
        Err(()) => {
            let got = c.update_batch("T", batch);
            assert!(matches!(got, Err(Error::Unsupported(_))), "{tag}: {got:?}");
            assert_eq!((observe(c), footprint(c)), before, "{tag}: rejected");
        }
    }
}

use LevelFormat::{Compressed as C, Dense as D, Singleton as S};

/// The six storage layouts of the sweep, each with empty rows or slices.
fn layouts() -> Vec<(&'static str, Format, SpTensor)> {
    let m = generate::uniform(20, 15, 36, 7);
    let t3 = generate::tensor3_uniform([9, 6, 5], 40, 8);
    vec![
        ("CSR", Format::blocked_csr(), with_formats(&m, &[D, C])),
        ("DCSR", Format::blocked_dcsr(), with_formats(&m, &[C, C])),
        ("COO", Format::blocked_coo(), with_formats(&m, &[C, S])),
        (
            "CSF3",
            Format::blocked_csf3(),
            with_formats(&t3, &[D, C, C]),
        ),
        (
            "COO3",
            Format::blocked_coo3(),
            with_formats(&t3, &[C, S, S]),
        ),
        (
            "dense",
            Format::blocked_dense_matrix(),
            with_formats(&m, &[D, D]),
        ),
    ]
}

/// Two stored and two absent coordinates of `t`, spread over its rows.
fn probes(t: &SpTensor) -> ([Vec<i64>; 2], [Vec<i64>; 2]) {
    let stored = t.to_coo();
    let present = [stored[1].0.clone(), stored[stored.len() - 2].0.clone()];
    let mut absent = Vec::new();
    let mut coord = vec![0i64; t.order()];
    while absent.len() < 2 {
        if stored.iter().all(|(c, _)| *c != coord) {
            absent.push(coord.clone());
        }
        // Odometer with a stride, so the two land in different rows.
        for _ in 0..7 {
            for k in (0..coord.len()).rev() {
                coord[k] += 1;
                if (coord[k] as usize) < t.dims()[k] {
                    break;
                }
                coord[k] = 0;
            }
        }
    }
    (present, [absent[0].clone(), absent[1].clone()])
}

/// Values whose bits a careless comparison loses.
const SPECIALS: [f64; 5] = [0.0, -0.0, f64::NAN, 5e-324, -2.5];

/// Named batches over `t`: every op on stored and absent coordinates,
/// every order of the three ops on one coordinate, the delete/insert
/// pairs, the special values, and the empty batch.
fn scenarios(t: &SpTensor) -> Vec<(String, Vec<CoordDelta>)> {
    let ([p, p2], [a, a2]) = probes(t);
    let ops = |x: &Vec<i64>| {
        [
            CoordDelta::insert(x.clone(), 1.5),
            CoordDelta::overwrite(x.clone(), 2.5),
            CoordDelta::delete(x.clone()),
        ]
    };
    let mut out = vec![
        ("empty".to_string(), vec![]),
        ("overwrite".to_string(), vec![ops(&p)[1].clone()]),
        ("insert".to_string(), vec![ops(&a)[0].clone()]),
        ("delete".to_string(), vec![ops(&p)[2].clone()]),
        ("delete of absent".to_string(), vec![ops(&a)[2].clone()]),
        (
            "mixed".to_string(),
            vec![
                ops(&p)[1].clone(),
                ops(&a)[0].clone(),
                ops(&p2)[2].clone(),
                ops(&a2)[2].clone(),
            ],
        ),
    ];
    for (what, x) in [("stored", &p), ("absent", &a)] {
        let [i, o, d] = ops(x);
        for (order, batch) in [
            ("i,o,d", vec![&i, &o, &d]),
            ("i,d,o", vec![&i, &d, &o]),
            ("o,i,d", vec![&o, &i, &d]),
            ("o,d,i", vec![&o, &d, &i]),
            ("d,i,o", vec![&d, &i, &o]),
            ("d,o,i", vec![&d, &o, &i]),
            ("delete then insert", vec![&d, &i]),
            ("insert then delete", vec![&i, &d]),
            ("twice", vec![&o, &o]),
        ] {
            let batch = batch.into_iter().cloned().collect();
            out.push((format!("{order} on a {what} coordinate"), batch));
        }
        for v in SPECIALS {
            out.push((
                format!("{v:?} onto a {what} coordinate"),
                vec![CoordDelta::overwrite(x.clone(), v), ops(&p2)[1].clone()],
            ));
        }
    }
    out
}

#[test]
fn every_scenario_matches_the_rebuild_oracle_in_every_layout() {
    for (layout, format, data) in layouts() {
        let (mut running, mut running_oracle) = registered(&format, &data);
        for (name, batch) in scenarios(&data) {
            // On the tensor the scenario was written for ...
            let (mut c, mut o) = registered(&format, &data);
            apply(&mut c, &mut o, &batch, &format!("{layout}: {name}"));
            // ... and on whatever the scenarios before it left behind,
            // dirty state and versions accumulating.
            let tag = format!("{layout}, accumulated: {name}");
            apply(&mut running, &mut running_oracle, &batch, &tag);
        }
    }
}

#[test]
fn a_bad_coordinate_anywhere_rejects_the_whole_batch() {
    for (layout, format, data) in layouts() {
        let ([p, _], [a, _]) = probes(&data);
        let (mut c, mut o) = registered(&format, &data);
        // Tracked state to lose, from a batch that lands.
        apply(
            &mut c,
            &mut o,
            &[CoordDelta::overwrite(p.clone(), 4.0)],
            layout,
        );
        let mut past_the_end = p.clone();
        *past_the_end.last_mut().unwrap() = *data.dims().last().unwrap() as i64;
        let mut negative = p.clone();
        negative[0] = -1;
        let (short, long) = (p[1..].to_vec(), [&p[..], &[0]].concat());
        for bad in [past_the_end, negative, short, long] {
            for lead in [
                CoordDelta::overwrite(p.clone(), 8.0),
                CoordDelta::insert(a.clone(), 8.0),
                CoordDelta::delete(p.clone()),
            ] {
                let batch = [lead, CoordDelta::overwrite(bad.clone(), 1.0)];
                apply(&mut c, &mut o, &batch, &format!("{layout}: {bad:?}"));
            }
        }
    }
}

/// Strategy: one of the layouts over a small random pattern, and three
/// batches drawn from a coordinate space small enough that deltas collide
/// with stored entries and with each other.
fn arb_tensor_and_batches() -> impl Strategy<Value = (usize, SpTensor, Vec<Vec<CoordDelta>>)> {
    (0usize..6, 2usize..7, 2usize..6, 2usize..5, 0usize..30)
        .prop_flat_map(|(layout, d0, d1, d2, nnz)| {
            let order = if layout == 3 || layout == 4 { 3 } else { 2 };
            let dims: Vec<usize> = [d0, d1, d2][..order].to_vec();
            let coord = {
                let dims = dims.clone();
                move || {
                    (0..d0 as i64, 0..d1 as i64, 0..d2 as i64).prop_map({
                        let order = dims.len();
                        move |(i, j, k)| [i, j, k][..order].to_vec()
                    })
                }
            };
            let tensor = proptest::collection::vec((coord(), -4.0f64..4.0), nnz).prop_map({
                let dims = dims.clone();
                move |entries| {
                    let mut coo = CooTensor::new(dims.clone());
                    for (c, v) in entries {
                        coo.push(&c, if v == 0.0 { 1.0 } else { v });
                    }
                    coo
                }
            });
            let batch =
                proptest::collection::vec((coord(), 0usize..8, 0u32..3), 0..10).prop_map(|raw| {
                    raw.into_iter()
                        .map(|(c, v, op)| {
                            let v = SPECIALS.get(v).copied().unwrap_or(v as f64 * 0.75);
                            match op {
                                0 => CoordDelta::insert(c, v),
                                1 => CoordDelta::overwrite(c, v),
                                _ => CoordDelta::delete(c),
                            }
                        })
                        .collect::<Vec<_>>()
                });
            (Just(layout), tensor, proptest::collection::vec(batch, 3))
        })
        .prop_map(|(layout, coo, batches)| {
            let formats = layouts().swap_remove(layout).2.formats();
            (layout, coo.build(&formats), batches)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random batches over random patterns, three in a row on one tensor:
    /// tensors that empty out, batches of nothing but no-ops, coordinates
    /// hit several times in one batch.
    #[test]
    fn random_batches_match_the_rebuild_oracle(
        (layout, data, batches) in arb_tensor_and_batches()
    ) {
        let (name, format, _) = layouts().swap_remove(layout);
        let (mut c, mut o) = registered(&format, &data);
        for (k, batch) in batches.iter().enumerate() {
            apply(&mut c, &mut o, batch, &format!("{name}, batch {k}: {batch:?}"));
        }
    }
}

/// Where each of `name`'s regions is valid, processor by processor.
fn validity(c: &Context, name: &str) -> Vec<Vec<IntervalSet>> {
    let regions = &c.tensor(name).unwrap().regions;
    regions
        .ids()
        .into_iter()
        .map(|r| {
            (0..PIECES)
                .map(|p| c.runtime().valid_in(r, p).clone())
                .collect()
        })
        .collect()
}

/// SpMV over a row-distributed `B` under a non-zero schedule: colors read
/// rows whose home is another processor, so after a run `B` is valid in
/// places its distribution never put it.
fn off_home_program(b: &SpTensor) -> CompiledProgram {
    let n = b.dims()[0];
    Program::on(machine())
        .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), b.clone())
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(generate::dense_vec(b.dims()[1], 5)),
        )
        .stmt("a(i) = B(i,j) * c(j)")
        .schedule(ScheduleSpec::nonzero())
        .build()
        .unwrap()
}

#[test]
fn a_value_only_batch_shows_the_model_what_a_replacement_shows_it() {
    let b = generate::rmat_clustered(7, 900, 0.8, 3);
    let (mut streamed, mut replaced) = (off_home_program(&b), off_home_program(&b));
    streamed.run().unwrap();
    replaced.run().unwrap();
    let home = {
        let mut fresh = Context::new(machine());
        fresh
            .add_tensor("B", b.clone(), Format::blocked_csr())
            .unwrap();
        validity(&fresh, "B")
    };
    assert_ne!(
        validity(streamed.context(), "B"),
        home,
        "the run must read off-home"
    );

    let batch: Vec<CoordDelta> = b
        .to_coo()
        .into_iter()
        .step_by(40)
        .map(|(c, v)| CoordDelta::overwrite(c, v - 1.0))
        .collect();
    let mut oracle = Oracle::new(b);
    oracle.update_batch(&batch).unwrap();
    let report = streamed.update_batch("B", &batch).unwrap();
    assert!(!report.structural);
    replaced
        .context_mut()
        .replace_tensor_data("B", oracle.data)
        .unwrap();

    // Stale remote copies are gone on both sides, the owners hold theirs.
    assert_eq!(validity(streamed.context(), "B"), home);
    assert_eq!(
        validity(streamed.context(), "B"),
        validity(replaced.context(), "B")
    );
    assert_eq!(footprint(streamed.context()), footprint(replaced.context()));
    // And the next run moves, and costs, the same.
    streamed.run().unwrap();
    replaced.run().unwrap();
    let (s, r) = (streamed.result(0).unwrap(), replaced.result(0).unwrap());
    assert!(
        s.comm_bytes > 0,
        "re-fetching the off-home rows costs traffic"
    );
    assert_eq!(
        (s.time.to_bits(), s.comm_bytes, s.messages),
        (r.time.to_bits(), r.comm_bytes, r.messages)
    );
    assert_eq!(
        bits(s.output.as_tensor().unwrap().vals()),
        bits(r.output.as_tensor().unwrap().vals())
    );
}

/// The address of every array a tensor stores.
fn addresses(t: &SpTensor) -> Vec<usize> {
    let mut at = vec![t.vals().as_ptr() as usize];
    for level in t.levels() {
        match level {
            Level::Dense { .. } => {}
            Level::Singleton { crd } => at.push(crd.as_ptr() as usize),
            Level::Compressed { pos, crd } => {
                at.extend([pos.as_ptr() as usize, crd.as_ptr() as usize])
            }
        }
    }
    at
}

#[test]
fn a_value_only_batch_keeps_every_allocation_memo_and_region() {
    for (layout, format, data) in layouts() {
        let ([p, p2], _) = probes(&data);
        let (mut c, _) = registered(&format, &data);
        let tensor = |c: &Context| c.tensor("T").unwrap().data.clone();
        let hash = c.tensor("T").unwrap().data.pattern_hash();
        let at = addresses(&c.tensor("T").unwrap().data);
        let (version, held) = (c.tensor_version("T"), footprint(&c));
        let batch = [
            CoordDelta::overwrite(p.clone(), 6.0),
            CoordDelta::insert(p2.clone(), 7.0),
        ];
        assert!(!c.update_batch("T", &batch).unwrap().structural);
        let t = &c.tensor("T").unwrap().data;
        assert_eq!(addresses(t), at, "{layout}: written where it stood");
        assert_eq!(t.pattern_memo(), Some(hash), "{layout}: memo");
        assert_eq!(c.tensor_version("T"), version + 1, "{layout}: version");
        assert_eq!(footprint(&c), held, "{layout}: regions and bytes");

        // A thousand more: the runtime's state is the tensor's, not the
        // stream's age.
        for k in 0..1000 {
            let x = if k % 2 == 0 { &p } else { &p2 };
            c.update_batch("T", &[CoordDelta::overwrite(x.clone(), k as f64)])
                .unwrap();
        }
        assert_eq!(footprint(&c), held, "{layout}: after 1000 batches");
        assert_eq!(c.tensor_version("T"), version + 1001);
        assert_eq!(tensor(&c).levels(), data.levels());
    }
}

/// A registration owns its values, whichever way it came in and whoever
/// else holds the tensor it was made from: a value-only batch after it
/// writes where the registration's values stand, never into the held copy.
#[test]
fn a_registration_owns_its_values_whoever_holds_the_tensor() {
    for (layout, format, data) in layouts() {
        let ([p, _], [a, _]) = probes(&data);
        let held = bits(data.vals());
        let mut c = Context::new(machine());
        let value_only = |c: &mut Context, v: f64, what: &str| {
            let at = c.tensor("T").unwrap().data.vals().as_ptr();
            let report = c.update_batch("T", &[CoordDelta::overwrite(p.clone(), v)]);
            assert!(!report.unwrap().structural, "{layout}, {what}");
            let t = &c.tensor("T").unwrap().data;
            assert_eq!(
                t.vals().as_ptr(),
                at,
                "{layout}, {what}: written where it stood"
            );
            assert_eq!(t.vals()[t.locate(&p).unwrap()], v, "{layout}, {what}");
            assert_eq!(bits(data.vals()), held, "{layout}, {what}: the held tensor");
        };
        c.add_tensor("T", data.clone(), format.clone()).unwrap();
        value_only(&mut c, 6.0, "after add_tensor");
        c.replace_tensor_data("T", data.clone()).unwrap();
        value_only(&mut c, 7.0, "after replace_tensor_data");
        let report = c.update_batch("T", &[CoordDelta::insert(a.clone(), 8.0)]);
        assert!(report.unwrap().structural, "{layout}");
        value_only(&mut c, 9.0, "after a structural batch");
    }
}

#[test]
fn ingestion_shows_up_in_the_run_report() {
    let (_, format, data) = layouts().swap_remove(0);
    let ([p, p2], [a, _]) = probes(&data);
    let trace = Trace::enabled();
    let mut c = Context::new(machine()).with_trace(trace.clone());
    c.add_tensor("T", data, format).unwrap();
    c.update_batch("T", &[]).unwrap();
    let in_place = [
        CoordDelta::overwrite(p, 1.0),
        CoordDelta::delete(a.clone()),
        CoordDelta::overwrite(p2.clone(), 2.0),
    ];
    c.update_batch("T", &in_place).unwrap();
    c.update_batch("T", &[CoordDelta::insert(a, 3.0), CoordDelta::delete(p2)])
        .unwrap();
    assert!(c.update_batch("T", &[CoordDelta::delete(vec![0])]).is_err());

    let m = trace.metrics().unwrap();
    let count = |name: &str| m.counter(name).get();
    // The empty and the rejected batch ingested nothing.
    assert_eq!(count("ingest.batches"), 2);
    assert_eq!(count("ingest.deltas"), 5);
    assert_eq!(count("ingest.ignored"), 1);
    assert_eq!(count("ingest.in_place"), 1);
    assert_eq!(count("ingest.structural"), 1);
    assert_eq!(m.histogram("ingest_ns").summarize().count, 2);
    let report = trace.run_report_json("ingest");
    for key in [
        "\"ingest.in_place\":1",
        "\"ingest.structural\":1",
        "\"ingest_us\":{",
    ] {
        assert!(report.contains(key), "{key} missing from {report}");
    }
    let stats = spdistal_repro::obs::validate_chrome_trace(&trace.chrome_trace().unwrap());
    let stats = stats.unwrap();
    assert_eq!(stats.count("ingest-in-place"), 1);
    assert_eq!(stats.count("ingest-structural"), 1);
}
