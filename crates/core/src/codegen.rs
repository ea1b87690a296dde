//! The partitioning code generation algorithm (Figure 9a, Section IV-C).
//!
//! For the one distributed loop [`spdistal_ir::lower()`] returns, the
//! generator:
//!
//! 1. creates an **initial level partition** of the driving tensor —
//!    a universe partition for coordinate-value loops, a non-zero partition
//!    for coordinate-position loops;
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

use crate::dist_tensor::{Context, Error};
use crate::kernels::{self, LeafKernel};
use crate::level_funcs::{
    nonzero_tree_partition, outer_dim_partition, partition_tensor, replicated_partition,
    universe_partition, TensorPartition,
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
            (
                tensor.clone(),
                nonzero_tree_partition(&t.data, level, colors),
            )
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
            (driver.tensor.clone(), outer_dim_partition(&t.data, colors))
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
                        let mut rects = Vec::new();
                        for i in rset.iter_points() {
                            for cr in cset.rects() {
                                rects.push(Rect1::new(
                                    i * cols as i64 + cr.lo,
                                    i * cols as i64 + cr.hi,
                                ));
                            }
                        }
                        IntervalSet::from_rects(rects)
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
