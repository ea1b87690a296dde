//! The partitioning code generation algorithm (Figure 9a, Section IV-C).
//!
//! For the one distributed loop [`spdistal_ir::lower()`] returns, the
//! generator:
//!
//! 1. creates an **initial level partition** of the driving tensor —
//!    a universe partition for coordinate-value loops, a non-zero partition
//!    for coordinate-position loops — or, when the driver's registered
//!    distribution starts from that very partition (the same kind, level,
//!    machine dimension and color count), reuses the tree its registration
//!    already derived (`DistTensor::partition`);
//! 2. derives the **full coordinate-tree partition** of the driver with
//!    `partitionFromChild` / `partitionFromParent` (Table I);
//! 3. partitions all **remaining tensors** from per-index-variable
//!    coordinate sets projected out of the driver's partition (the
//!    `partitionRemainingCoordinateTrees` step) — sparse tensors sharing the
//!    distributed dimension get universe partitions, dense operands get
//!    exactly the sub-arrays their colors touch, and everything else is
//!    replicated. The projected sets of a compressed level come from
//!    [`image_coords`] on the driver's `crd` region, costing O(points +
//!    coordinate words): a bitmap over the dimension, sorting only when
//!    the dimension is hypersparse;
//! 4. classifies the output: disjoint coordinate partitions write, aliased
//!    ones reduce (the communication the non-zero SpMV schedule pays,
//!    Section II-D).
//!
//! The result is a [`Plan`]: the executable artifact this compiler produces
//! in place of emitted C++.

use std::collections::HashMap;

use spdistal_ir::{Assignment, IndexVar, IterKind, Schedule};
use spdistal_runtime::{image_coords, IntervalSet, Partition, Rect1};
use spdistal_sparse::{Level, SpTensor};

use crate::dist_tensor::{Context, Error, Initial};
use crate::kernels::{self, LeafKernel};
use crate::level_funcs::{
    partition_tensor, replicated_partition, universe_partition, TensorPartition,
};

/// How the output tensor is produced.
#[derive(Clone, Debug)]
pub enum OutKind {
    /// Dense vector of the lhs extent.
    DenseVec,
    /// Dense row-major matrix; `width` columns per row.
    DenseMat { width: usize },
    /// Values aligned with a pattern borrowed from the driver (SDDMM uses
    /// the driver's leaf entries, SpTTV its level-1 fibers).
    PatternVals { level: usize },
    /// Sparse output with unknown pattern: two-phase assembly
    /// (Section V-B).
    SparseAssembled,
}

/// An input tensor with its coordinate-tree partition.
#[derive(Clone, Debug)]
pub struct PlannedInput {
    pub tensor: String,
    pub part: TensorPartition,
}

/// The output tensor plan.
#[derive(Clone, Debug)]
pub struct PlannedOutput {
    pub tensor: String,
    pub kind: OutKind,
    /// Per-color partition of the output's element space (coordinates for
    /// dense outputs, stored positions for pattern outputs). Empty subsets
    /// for [`OutKind::SparseAssembled`] (sized during execution).
    pub part: Partition,
    /// True if colors' output subsets alias and must be combined
    /// (reduction privilege).
    pub reduce: bool,
}

/// A compiled distributed plan.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: String,
    pub kernel: LeafKernel,
    pub colors: usize,
    pub machine_dim: usize,
    /// The tensor driving iteration (the sparse operand).
    pub driver: String,
    pub inputs: Vec<PlannedInput>,
    pub output: PlannedOutput,
    pub stmt: Assignment,
}

/// Compile a scheduled statement into a [`Plan`] (the top-level `codegen`
/// of Figure 9a).
pub fn compile(ctx: &Context, stmt: &Assignment, schedule: &Schedule) -> Result<Plan, Error> {
    let dist = spdistal_ir::lower(stmt, schedule, ctx.vars())?;
    let kernel = leaf(ctx, stmt)?;

    let [dist_loop] = dist.as_slice() else {
        return Err(Error::Unsupported(format!(
            "exactly one distributed loop supported, got {}",
            dist.len()
        )));
    };
    let machine_dim = dist_loop.machine_dim;
    let colors = dist_loop
        .pieces
        .unwrap_or_else(|| ctx.machine().dim(machine_dim));
    if colors != ctx.machine().dim(machine_dim) {
        return Err(Error::Unsupported(format!(
            "divide pieces ({colors}) must match machine dimension extent ({})",
            ctx.machine().dim(machine_dim)
        )));
    }

    // Identify the driver and its initial partition.
    let roots = ctx.vars().roots(dist_loop.var);
    let (driver_name, driver_part) = match &dist_loop.kind {
        IterKind::Position { tensor } => {
            let t = ctx.tensor(tensor)?;
            // The fused roots must prefix the driver's access; the initial
            // non-zero partition lands on the level of the last fused root.
            let access = stmt
                .rhs
                .accesses()
                .into_iter()
                .find(|a| &a.tensor == tensor)
                .ok_or_else(|| Error::UnknownTensor(tensor.clone()))?;
            let level = position_level(&roots, &access.indices)?;
            let initial = Initial::NonZero { level };
            let part = t.partition(machine_dim, initial, colors).into_owned();
            (tensor.clone(), part)
        }
        IterKind::Value => {
            let [root] = roots.as_slice() else {
                return Err(Error::Unsupported(
                    "distributed value loop derived from multiple roots; \
                     use a position-space (non-zero) distribution"
                        .into(),
                ));
            };
            // Driver: first sparse rhs tensor accessed with the root at
            // its outermost dimension.
            let driver = stmt
                .rhs
                .accesses()
                .into_iter()
                .find(|a| {
                    a.indices.first() == Some(root)
                        && ctx
                            .tensor(&a.tensor)
                            .is_ok_and(|t| kernels::is_sparse(&t.data))
                })
                .ok_or_else(|| {
                    Error::Unsupported(
                        "no sparse tensor indexed by the distributed variable".into(),
                    )
                })?;
            let t = ctx.tensor(&driver.tensor)?;
            let part = t.partition(machine_dim, Initial::Universe, colors);
            (driver.tensor.clone(), part.into_owned())
        }
    };

    // Per-index-variable coordinate sets projected from the driver.
    let driver_tensor = &ctx.tensor(&driver_name)?.data;
    if kernel == LeafKernel::SpAdd3 {
        tiles_rows(&driver_part, driver_tensor.dims()[0]).map_err(|split| {
            Error::Unsupported(format!(
                "'{stmt}' does not compile under this schedule: SpAdd3 assembles each \
                 output row in the one color that owns it, so the driver's level-0 \
                 subsets must be disjoint, ascend by color and cover every row; in this \
                 split {split}. The outer-dimension schedule tiles the rows"
            ))
        })?;
    }
    let driver_access = stmt
        .rhs
        .accesses()
        .into_iter()
        .find(|a| a.tensor == driver_name)
        .unwrap()
        .clone();
    let coord_sets = project_coord_sets(driver_tensor, &driver_part, &driver_access.indices);

    // Partition the remaining input tensors.
    let mut inputs = vec![PlannedInput {
        tensor: driver_name.clone(),
        part: driver_part.clone(),
    }];
    for access in stmt.rhs.accesses() {
        if access.tensor == driver_name || inputs.iter().any(|i| i.tensor == access.tensor) {
            continue;
        }
        let t = ctx.tensor(&access.tensor)?;
        let part = if kernels::is_sparse(&t.data) {
            sparse_operand_partition(&t.data, &access.indices, &coord_sets, colors)?
        } else {
            dense_operand_partition(&t.data, &access.indices, &coord_sets, colors)
        };
        inputs.push(PlannedInput {
            tensor: access.tensor.clone(),
            part,
        });
    }

    // Plan the output.
    let out_tensor = ctx.tensor(&stmt.lhs.tensor)?;
    let output = plan_output(
        &kernel,
        stmt,
        &out_tensor.data,
        driver_tensor,
        &driver_part,
        &coord_sets,
        colors,
    );

    Ok(Plan {
        name: format!("{}<-{}", stmt.lhs.tensor, driver_name),
        kernel,
        colors,
        machine_dim,
        driver: driver_name,
        inputs,
        output,
        stmt: stmt.clone(),
    })
}

/// The leaf that computes `stmt` over its operands' stored layouts — the
/// one gate of the leaf layer: a statement no leaf computes is refused
/// here, before anything is partitioned.
pub(crate) fn leaf(ctx: &Context, stmt: &Assignment) -> Result<LeafKernel, Error> {
    let lookup = |name: &str| {
        let t = &ctx.tensor(name).ok()?.data;
        Some((t.formats(), t.dims().to_vec()))
    };
    kernels::recognize(stmt, &lookup).map_err(|reason| {
        Error::Unsupported(format!(
            "'{stmt}' does not compile: {reason}. What compiles: {}",
            kernels::SHAPES
        ))
    })
}

/// Whether the driver's level-0 subsets tile `rows` in color order:
/// pairwise disjoint, ascending by color, and together covering every row.
/// A non-zero split fails both ways: a row it cuts belongs to two colors,
/// and a row the driver does not store belongs to none. `Err` says where.
fn tiles_rows(part: &TensorPartition, rows: usize) -> Result<(), String> {
    let mut next = 0i64;
    for color in 0..part.num_colors() {
        for r in part.entries[0].subset(color).rects() {
            if r.lo < next {
                return Err(format!(
                    "color {color} owns row {}, which an earlier color owns or passed",
                    r.lo
                ));
            }
            if r.lo > next {
                return Err(format!("rows {next}..{} belong to no color", r.lo));
            }
            next = r.hi + 1;
        }
    }
    if next < rows as i64 {
        return Err(format!("rows {next}..{rows} belong to no color"));
    }
    Ok(())
}

/// The driver level an initial non-zero partition targets: the level of the
/// last fused root within the access.
fn position_level(roots: &[IndexVar], access: &[IndexVar]) -> Result<usize, Error> {
    for (k, r) in roots.iter().enumerate() {
        if access.get(k) != Some(r) {
            return Err(Error::Unsupported(
                "position-space roots must prefix the driver access".into(),
            ));
        }
    }
    Ok(roots.len() - 1)
}

/// Project, per index variable of the driver's access, the coordinate set
/// each color touches. `None` means "unknown — assume all".
fn project_coord_sets(
    driver: &SpTensor,
    part: &TensorPartition,
    access: &[IndexVar],
) -> HashMap<IndexVar, Vec<IntervalSet>> {
    let mut out = HashMap::new();
    for (dim, &var) in access.iter().enumerate() {
        let coords: Option<Vec<IntervalSet>> = match driver.level(dim) {
            Level::Dense { .. } if dim == 0 => Some(
                (0..part.num_colors())
                    .map(|c| part.entries[0].subset(c).clone())
                    .collect(),
            ),
            Level::Compressed { crd, .. } => {
                let p = image_coords(crd, &part.entries[dim], driver.dims()[dim] as u64);
                Some((0..p.num_colors()).map(|c| p.subset(c).clone()).collect())
            }
            _ => None,
        };
        if let Some(sets) = coords {
            out.insert(var, sets);
        }
    }
    out
}

/// Universe-partition a sparse operand along its outermost dimension using
/// the distributed variable's coordinate bounds.
fn sparse_operand_partition(
    t: &SpTensor,
    access: &[IndexVar],
    coord_sets: &HashMap<IndexVar, Vec<IntervalSet>>,
    colors: usize,
) -> Result<TensorPartition, Error> {
    let Some(sets) = access.first().and_then(|v| coord_sets.get(v)) else {
        // No shared outer dimension: replicate.
        return Ok(replicated_partition(t, colors));
    };
    let bounds: Vec<Rect1> = sets.iter().map(IntervalSet::bounding_rect).collect();
    let init = universe_partition(t, 0, &bounds);
    Ok(partition_tensor(t, 0, init))
}

/// Partition a dense operand's values to exactly what each color touches.
/// Falls back to replication when the needed subset would be too fragmented
/// to represent profitably (the runtime then models a full broadcast, as a
/// library would).
fn dense_operand_partition(
    t: &SpTensor,
    access: &[IndexVar],
    coord_sets: &HashMap<IndexVar, Vec<IntervalSet>>,
    colors: usize,
) -> TensorPartition {
    const MAX_RECTS: usize = 262_144;
    let full = |extent: usize| IntervalSet::from_rect(Rect1::new(0, extent as i64 - 1));
    let mut part = replicated_partition(t, colors);
    // The leaf level's entries are the values: what a color touches is
    // written there, every level above stays replicated.
    let touched = match t.order() {
        1 => {
            let extent = t.dims()[0];
            let subsets: Vec<IntervalSet> = (0..colors)
                .map(|c| match access.first().and_then(|v| coord_sets.get(v)) {
                    Some(sets) => sets[c].clone(),
                    None => full(extent),
                })
                .collect();
            Partition::new(extent as u64, subsets)
        }
        2 => {
            let (rows, cols) = (t.dims()[0], t.dims()[1]);
            let row_sets = access.first().and_then(|v| coord_sets.get(v));
            let col_sets = access.get(1).and_then(|v| coord_sets.get(v));
            let subsets: Vec<IntervalSet> = (0..colors)
                .map(|c| {
                    let rset = row_sets.map_or_else(|| full(rows), |s| s[c].clone());
                    let cset = col_sets.map_or_else(|| full(cols), |s| s[c].clone());
                    if cset.total_len() as usize == cols {
                        // Whole rows: contiguous after row-major scaling.
                        IntervalSet::from_rects(
                            rset.rects()
                                .iter()
                                .map(|r| {
                                    Rect1::new(r.lo * cols as i64, (r.hi + 1) * cols as i64 - 1)
                                })
                                .collect(),
                        )
                    } else if rset.total_len() as usize * cset.num_runs() <= MAX_RECTS {
                        row_major_product(&rset, &cset, cols)
                    } else {
                        full(rows * cols)
                    }
                })
                .collect();
            Partition::new((rows * cols) as u64, subsets)
        }
        _ => return part,
    };
    part.entries[t.order() - 1] = touched;
    part
}

/// The row-major positions of `rows × cols_set` in a matrix `cols` wide:
/// each row's column runs, shifted to the row, in one vector sized once.
/// A run ending at the last column joins the next row's run starting at
/// column 0 in [`IntervalSet::from_rects`], which does not sort them.
fn row_major_product(rows: &IntervalSet, cols_set: &IntervalSet, cols: usize) -> IntervalSet {
    let mut rects = Vec::with_capacity(rows.total_len() as usize * cols_set.num_runs());
    for rr in rows.rects() {
        for i in rr.lo..=rr.hi {
            let base = i * cols as i64;
            rects.extend(
                cols_set
                    .rects()
                    .iter()
                    .map(|cr| Rect1::new(base + cr.lo, base + cr.hi)),
            );
        }
    }
    IntervalSet::from_rects(rects)
}

/// Decide how the output is produced and partitioned.
fn plan_output(
    kernel: &LeafKernel,
    stmt: &Assignment,
    out: &SpTensor,
    driver: &SpTensor,
    driver_part: &TensorPartition,
    coord_sets: &HashMap<IndexVar, Vec<IntervalSet>>,
    colors: usize,
) -> PlannedOutput {
    let name = stmt.lhs.tensor.clone();
    let i_sets = stmt
        .lhs
        .indices
        .first()
        .and_then(|v| coord_sets.get(v))
        .cloned()
        .unwrap_or_else(|| {
            vec![IntervalSet::from_rect(Rect1::new(0, out.dims()[0] as i64 - 1)); colors]
        });
    let coord_part = Partition::new(out.dims()[0] as u64, i_sets);
    let reduce = !coord_part.is_disjoint();

    let (kind, part) = match kernel {
        LeafKernel::SpMv => (OutKind::DenseVec, coord_part),
        LeafKernel::SpMm { jdim } => (OutKind::DenseMat { width: *jdim }, coord_part),
        LeafKernel::SpMttkrp { ldim } => (OutKind::DenseMat { width: *ldim }, coord_part),
        LeafKernel::Sddmm { .. } => (
            OutKind::PatternVals {
                level: driver.order() - 1,
            },
            driver_part.vals().clone(),
        ),
        LeafKernel::SpTtv => (
            OutKind::PatternVals { level: 1 },
            driver_part.entries[1].clone(),
        ),
        LeafKernel::SpAdd3 => (OutKind::SparseAssembled, Partition::empty(0, colors)),
    };

    // Pattern outputs never alias across colors if the driver partition is
    // disjoint at the pattern level.
    let reduce = match kind {
        OutKind::PatternVals { .. } => !part.is_disjoint(),
        OutKind::SparseAssembled => false,
        _ => reduce,
    };
    PlannedOutput {
        tensor: name,
        kind,
        part,
        reduce,
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;
    use crate::kernels::tensor3::spttv_output;
    use crate::level_funcs::entry_counts;
    use crate::{access, assign, schedule_nonzero, schedule_outer_dim};
    use spdistal_ir::{Format, ParallelUnit};
    use spdistal_runtime::{Machine, MachineProfile};
    use spdistal_sparse::{convert, dense_matrix, dense_vector, generate, CoordDelta};

    const PIECES: usize = 4;

    /// How a case schedules its statement: the outer-dimension schedule, or
    /// a non-zero one over the driver's first `depth` index variables.
    #[derive(Clone, Copy, Debug)]
    enum Split {
        OuterDim,
        NonZero(usize),
    }

    impl Split {
        /// The initial partition the schedule starts the driver's tree from.
        fn initial(self) -> Initial {
            match self {
                Split::OuterDim => Initial::Universe,
                Split::NonZero(depth) => Initial::NonZero { level: depth - 1 },
            }
        }
    }

    /// `a(i) = B(i,j) * c(j)`, or `A(i,j) = B(i,j,k) * c(k)` for a
    /// 3-tensor `b`, with `B` registered under `format`.
    fn context(b: SpTensor, format: Format) -> (Context, Assignment) {
        let machine = Machine::grid1d(PIECES, MachineProfile::lassen_cpu());
        let mut ctx = Context::new(machine);
        let (n, last) = (b.dims()[0], b.dims()[b.order() - 1]);
        let c = dense_vector(generate::dense_vec(last, 5));
        ctx.add_tensor("c", c, Format::replicated_dense_vec())
            .unwrap();
        let stmt = if b.order() == 2 {
            let a = dense_vector(vec![0.0; n]);
            ctx.add_tensor("a", a, Format::blocked_dense_vec()).unwrap();
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            assign("a", &[i], access("B", &[i, j]) * access("c", &[j]))
        } else {
            let fibers = entry_counts(&b)[1] as usize;
            let a = spttv_output(&b, vec![0.0; fibers]);
            ctx.add_tensor("A", a, Format::blocked_csr()).unwrap();
            let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
            assign("A", &[i, j], access("B", &[i, j, k]) * access("c", &[k]))
        };
        ctx.add_tensor("B", b, format).unwrap();
        (ctx, stmt)
    }

    fn compiled(ctx: &mut Context, stmt: &Assignment, split: Split) -> Plan {
        let unit = ParallelUnit::CpuThread;
        let sched = match split {
            Split::OuterDim => schedule_outer_dim(ctx, stmt, PIECES, unit),
            Split::NonZero(depth) => schedule_nonzero(ctx, stmt, "B", depth, PIECES, unit).unwrap(),
        };
        compile(ctx, stmt, &sched).unwrap()
    }

    /// The driver partition `plan` carries, level by level.
    fn driver_entries(plan: &Plan) -> &[Partition] {
        let driver = plan.inputs.iter().find(|i| i.tensor == "B").unwrap();
        &driver.part.entries
    }

    /// For every blessed driver layout under each distribution it is
    /// registered with, and each schedule over it: the compiled driver
    /// partition equals one derived afresh from the schedule's initial
    /// partition, and it is the registration's own exactly when the
    /// schedule distributes the tensor the way its data already is.
    #[test]
    fn a_compiled_driver_partition_is_the_one_its_schedule_derives() {
        use Split::{NonZero, OuterDim};
        let matrix = generate::rmat_clustered(7, 900, 0.9, 3);
        let tensor = generate::tensor3_uniform([24, 20, 18], 700, 4);
        let data = |layout: &str| match layout {
            "csr" => matrix.clone(),
            "dcsr" => convert::to_dcsr(&matrix),
            "coo" => convert::to_coo_format(&matrix),
            "csf" => tensor.clone(),
            _ => convert::to_coo_format(&tensor),
        };
        let cases = [
            ("csr", Format::blocked_csr(), OuterDim, true),
            // B0's case in the benchmark's sweep: row-blocked data under
            // the non-zero schedule the auto-scheduler picks for it.
            ("csr", Format::blocked_csr(), NonZero(2), false),
            ("csr", Format::nonzero_csr(), OuterDim, false),
            ("csr", Format::nonzero_csr(), NonZero(2), true),
            ("dcsr", Format::blocked_dcsr(), OuterDim, true),
            ("dcsr", Format::blocked_dcsr(), NonZero(2), false),
            ("coo", Format::blocked_coo(), OuterDim, true),
            ("coo", Format::blocked_coo(), NonZero(2), false),
            ("csf", Format::blocked_csf3(), OuterDim, true),
            ("csf", Format::blocked_csf3(), NonZero(2), false),
            ("csf", Format::blocked_csf3(), NonZero(3), false),
            ("csf", Format::nonzero_csf3(), OuterDim, false),
            ("csf", Format::nonzero_csf3(), NonZero(2), false),
            ("csf", Format::nonzero_csf3(), NonZero(3), true),
            ("coo3", Format::blocked_coo3(), OuterDim, true),
            ("coo3", Format::blocked_coo3(), NonZero(3), false),
        ];
        for (layout, format, split, reused) in cases {
            let what = format!("{layout} under {:?}, {split:?}", format.dist);
            let (mut ctx, stmt) = context(data(layout), format);
            let plan = compiled(&mut ctx, &stmt, split);
            let t = ctx.tensor("B").unwrap();
            let fresh = split.initial().tree(&t.data, PIECES);
            assert_eq!(driver_entries(&plan), fresh.entries, "{what}");
            let part = t.partition(plan.machine_dim, split.initial(), PIECES);
            assert_eq!(matches!(part, Cow::Borrowed(_)), reused, "{what}");
            let registered = driver_entries(&plan) == t.dist_part.entries;
            assert!(registered || !reused, "{what}");
        }
    }

    /// A dense operand's leaf partition under partial column sets is the
    /// per-point product of each color's rows and columns. Color 0's
    /// column set ends at the last column and starts at column 0, so each
    /// of its rows' last run joins the next row's first.
    #[test]
    fn a_dense_operand_partition_is_the_product_of_its_coordinate_sets() {
        let (rows, cols) = (6, 5);
        let d = dense_matrix(rows, cols, vec![0.0; rows * cols]);
        let (i, j) = (IndexVar(0), IndexVar(1));
        let set = |runs: &[(i64, i64)]| -> IntervalSet {
            runs.iter().map(|&(lo, hi)| Rect1::new(lo, hi)).collect()
        };
        let row_sets = vec![set(&[(0, 2)]), set(&[(1, 1), (3, 5)]), set(&[(4, 4)])];
        let col_sets = vec![
            set(&[(0, 1), (4, 4)]),
            set(&[(0, 0), (2, 4)]),
            set(&[(1, 3)]),
        ];
        let coord_sets = HashMap::from([(i, row_sets.clone()), (j, col_sets.clone())]);
        let part = dense_operand_partition(&d, &[i, j], &coord_sets, 3);
        for c in 0..3 {
            let expect: IntervalSet = row_sets[c]
                .iter_points()
                .flat_map(|r| col_sets[c].iter_points().map(move |q| r * cols as i64 + q))
                .map(|p| Rect1::new(p, p))
                .collect();
            assert_eq!(part.entries[1].subset(c), &expect, "color {c}");
        }
        let joined = [(0, 1), (4, 6), (9, 11), (14, 14)].map(|(lo, hi)| Rect1::new(lo, hi));
        assert_eq!(part.entries[1].subset(0).rects(), &joined);
    }

    /// A structural batch re-registers the tensor: the plan compiled after
    /// it carries the new registration's partition, not the old one.
    #[test]
    fn a_structural_batch_recompiles_against_the_new_partition() {
        let matrix = generate::rmat_clustered(7, 900, 0.9, 3);
        let (mut ctx, stmt) = context(matrix.clone(), Format::blocked_csr());
        let before = compiled(&mut ctx, &stmt, Split::OuterDim);
        // One new entry in the first row that has room for it.
        let absent = (0..matrix.dims()[1] as i64)
            .map(|j| vec![0, j])
            .find(|c| !matrix.to_coo().iter().any(|(d, _)| d == c))
            .unwrap();
        let report = ctx
            .update_batch("B", &[CoordDelta::insert(absent, 1.0)])
            .unwrap();
        assert_eq!(report.inserted, 1);
        let after = compiled(&mut ctx, &stmt, Split::OuterDim);
        let t = ctx.tensor("B").unwrap();
        assert_eq!(driver_entries(&after), t.dist_part.entries);
        let fresh = Initial::Universe.tree(&t.data, PIECES);
        assert_eq!(driver_entries(&after), fresh.entries);
        assert_ne!(driver_entries(&after), driver_entries(&before));
    }
}
