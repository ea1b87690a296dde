//! What a delta batch does to a tensor, worked out before anything is
//! written.
//!
//! Owns the *meaning* of a batch: deltas apply in order, so two deltas on
//! one coordinate see each other (a delete then an insert of a stored
//! coordinate counts as one of each and nets to an overwrite), and the
//! [`UpdateReport`] counts every delta as the in-order application would.
//! Does not own where entries live — each coordinate is found once with
//! [`SpTensor::locate`] — nor what happens next: `Context::update_batch`
//! picks the arm from [`Resolved::value_only`] and keeps the versions, the
//! dirty map and the regions.

use std::collections::BTreeMap;

use spdistal_sparse::{CoordDelta, DeltaOp, SpTensor};

use super::UpdateReport;

/// The net effect of a batch on one coordinate.
pub(crate) struct NetEdit<'a> {
    pub coord: &'a [i64],
    /// Where the tensor stored the coordinate before the batch.
    pub at: Option<usize>,
    /// Its value after the batch (`None`: absent).
    pub now: Option<f64>,
}

/// A batch resolved against the tensor it is about to change.
pub(crate) struct Resolved<'a> {
    /// Everything but `rows_dirty`, which accumulates across batches.
    pub report: UpdateReport,
    /// Leading coordinate of every delta that changed the tensor.
    pub touched_rows: Vec<i64>,
    /// One edit per distinct coordinate of the batch, sorted by coordinate.
    pub edits: Vec<NetEdit<'a>>,
}

impl Resolved<'_> {
    /// Every coordinate stored before the batch is stored after it and no
    /// other is: the level arrays stay as they are, only values change.
    pub fn value_only(&self) -> bool {
        self.edits.iter().all(|e| e.at.is_some() == e.now.is_some())
    }
}

/// Apply `deltas` in order to the coordinates they name — a map over the
/// batch, never over the tensor.
pub(crate) fn resolve<'a>(data: &SpTensor, deltas: &'a [CoordDelta]) -> Resolved<'a> {
    let mut report = UpdateReport::default();
    let mut touched_rows = Vec::with_capacity(deltas.len());
    let mut slots: BTreeMap<&[i64], (Option<usize>, Option<f64>)> = BTreeMap::new();
    for d in deltas {
        let (_, now) = slots.entry(&d.coord).or_insert_with(|| {
            let at = data.locate(&d.coord);
            (at, at.map(|p| data.vals()[p]))
        });
        match d.op {
            DeltaOp::Insert | DeltaOp::Overwrite => {
                match now.replace(d.val) {
                    Some(_) => report.overwritten += 1,
                    None => {
                        report.inserted += 1;
                        report.structural = true;
                    }
                }
                touched_rows.push(d.coord[0]);
            }
            DeltaOp::Delete => {
                if now.take().is_some() {
                    report.deleted += 1;
                    report.structural = true;
                    touched_rows.push(d.coord[0]);
                } else {
                    report.ignored += 1;
                }
            }
        }
    }
    let edits = slots
        .into_iter()
        .map(|(coord, (at, now))| NetEdit { coord, at, now })
        .collect();
    Resolved {
        report,
        touched_rows,
        edits,
    }
}
