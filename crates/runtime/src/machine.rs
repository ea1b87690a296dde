//! The abstract machine model.
//!
//! SpDISTAL programs map data and computation onto an *n*-dimensional grid of
//! processors (`Machine M(Grid(pieces))` in Figure 1). Here a machine is a
//! grid of simulated processors, each with its own memory, connected by
//! intra-node and inter-node links. Profiles parameterize the model after
//! the Lassen supercomputer used in the paper's evaluation (IBM Power9 nodes
//! with four NVLink-connected V100 GPUs and an Infiniband EDR interconnect).
//!
//! Because the evaluation datasets are scaled down (~1000x) to run on a
//! laptop, absolute compute and communication *ratios* are preserved by
//! keeping real hardware throughput/bandwidth numbers; the only absolute
//! quantity that must co-scale is GPU memory capacity (it gates the OOM/DNC
//! cells of Figure 11), which the `lassen_gpu` constructor scales by the
//! same factor as the dataset.

/// The kind of processor a grid point represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// All cores of one CPU node acting as a single processor (the paper runs
    /// SpDISTAL with one rank per node, OpenMP within).
    Cpu,
    /// A single GPU.
    Gpu,
}

/// Performance characteristics of one processor and its directly attached
/// memory.
#[derive(Clone, Debug)]
pub struct ProcProfile {
    pub kind: ProcKind,
    /// Useful sparse-kernel operations per second (one "op" ~ one non-zero
    /// multiply-add, including its irregular memory traffic).
    pub throughput: f64,
    /// Capacity of the processor's memory in bytes. `u64::MAX` = unbounded.
    pub mem_capacity: u64,
    /// Fixed overhead per task launched on this processor, seconds.
    pub task_overhead: f64,
}

/// A point-to-point link between two memories.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

/// A full machine description: homogeneous processors arranged in nodes.
#[derive(Clone, Debug)]
pub struct MachineProfile {
    pub name: String,
    pub proc: ProcProfile,
    /// Grid points per physical node (4 for the GPU machine, 1 for CPU).
    pub procs_per_node: usize,
    /// Link between processors on the same node (NVLink for GPUs).
    pub intra_link: LinkProfile,
    /// Link between processors on different nodes (Infiniband).
    pub inter_link: LinkProfile,
}

impl MachineProfile {
    /// One Lassen CPU node per grid point: dual-socket 40-core Power9.
    /// Throughput is calibrated to ~100M irregular non-zero ops/s/core.
    pub fn lassen_cpu() -> Self {
        MachineProfile {
            name: "lassen-cpu".to_string(),
            proc: ProcProfile {
                kind: ProcKind::Cpu,
                throughput: 4.0e9,
                mem_capacity: u64::MAX,
                task_overhead: 5.0e-5,
            },
            procs_per_node: 1,
            intra_link: LinkProfile {
                latency: 5.0e-7,
                bandwidth: 8.0e10,
            },
            inter_link: LinkProfile {
                latency: 2.0e-6,
                bandwidth: 1.25e10, // EDR ~ 100 Gb/s
            },
        }
    }

    /// One V100 GPU per grid point, four per node. `capacity_scale` scales
    /// the 16 GiB HBM capacity by the dataset scale factor so that problems
    /// which OOM'ed on Lassen also OOM here.
    ///
    /// Sparse kernels are memory-bound: one V100 (~900 GB/s HBM2) sustains
    /// well under a whole Power9 node's aggregate on irregular non-zero
    /// traffic, so a 4-GPU node lands at the ~2-4x node-level advantage
    /// Figures 11-12 report.
    pub fn lassen_gpu(capacity_scale: f64) -> Self {
        MachineProfile {
            name: "lassen-gpu".to_string(),
            proc: ProcProfile {
                kind: ProcKind::Gpu,
                throughput: 2.5e9,
                mem_capacity: ((16.0 * (1u64 << 30) as f64) * capacity_scale) as u64,
                task_overhead: 2.0e-5,
            },
            procs_per_node: 4,
            intra_link: LinkProfile {
                latency: 1.0e-6,
                bandwidth: 7.5e10, // NVLink 2.0
            },
            inter_link: LinkProfile {
                latency: 2.0e-6,
                bandwidth: 1.25e10,
            },
        }
    }

    /// A tiny deterministic test profile with round numbers.
    pub fn test_profile() -> Self {
        MachineProfile {
            name: "test".to_string(),
            proc: ProcProfile {
                kind: ProcKind::Cpu,
                throughput: 1.0e9,
                mem_capacity: u64::MAX,
                task_overhead: 0.0,
            },
            procs_per_node: 1,
            intra_link: LinkProfile {
                latency: 0.0,
                bandwidth: 1.0e9,
            },
            inter_link: LinkProfile {
                latency: 0.0,
                bandwidth: 1.0e9,
            },
        }
    }

    /// Same as [`MachineProfile::test_profile`] but with a bounded memory,
    /// for OOM tests.
    pub fn test_profile_with_capacity(bytes: u64) -> Self {
        let mut p = Self::test_profile();
        p.proc.mem_capacity = bytes;
        p
    }

    /// Scale all *fixed time constants* (task overhead, link latencies) by
    /// `s`, leaving rates (throughput, bandwidth) untouched.
    ///
    /// When a workload is scaled down by `s` relative to the machine it is
    /// modeled after, compute and transfer times shrink by `s` automatically
    /// (they are proportional to data volume), but latency-like constants do
    /// not — they would dominate and distort every ratio the experiments
    /// measure. Scaling them by the same `s` preserves the dimensionless
    /// overhead-to-work ratios of the full-size system.
    pub fn time_scaled(mut self, s: f64) -> Self {
        self.proc.task_overhead *= s;
        self.intra_link.latency *= s;
        self.inter_link.latency *= s;
        self
    }
}

/// A machine: an *n*-dimensional grid of processors with a shared profile.
///
/// Grid points are linearized row-major; most schedules in the paper use 1-D
/// grids (`Grid(pieces)`), but TDN supports mapping tensor dimensions onto
/// multi-dimensional grids (Figure 4).
#[derive(Clone, Debug)]
pub struct Machine {
    dims: Vec<usize>,
    profile: MachineProfile,
}

impl Machine {
    /// Create a machine with the given grid shape.
    pub fn new(dims: Vec<usize>, profile: MachineProfile) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0));
        Machine { dims, profile }
    }

    /// Convenience: 1-D grid (`Machine M(Grid(pieces))`).
    pub fn grid1d(pieces: usize, profile: MachineProfile) -> Self {
        Machine::new(vec![pieces], profile)
    }

    /// Grid shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of machine dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Total number of processors (product of grid extents).
    pub fn num_procs(&self) -> usize {
        self.dims.iter().product()
    }

    /// The physical node hosting processor `p`.
    pub fn node_of(&self, p: usize) -> usize {
        p / self.profile.procs_per_node
    }

    /// The link profile between processors `a` and `b`.
    pub fn link(&self, a: usize, b: usize) -> LinkProfile {
        if self.node_of(a) == self.node_of(b) {
            self.profile.intra_link
        } else {
            self.profile.inter_link
        }
    }

    /// Machine profile.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let m = Machine::new(vec![4, 2], MachineProfile::test_profile());
        assert_eq!(m.num_procs(), 8);
        assert_eq!(m.dim(0), 4);
        let m1 = Machine::grid1d(16, MachineProfile::lassen_cpu());
        assert_eq!(m1.num_procs(), 16);
        assert_eq!(m1.node_of(15), 15);
    }

    #[test]
    fn gpu_nodes_group_four_procs() {
        let m = Machine::grid1d(8, MachineProfile::lassen_gpu(1.0));
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        // Intra-node link is faster than inter-node.
        assert!(m.link(0, 3).bandwidth > m.link(0, 4).bandwidth);
    }

    #[test]
    fn gpu_capacity_scales() {
        let full = MachineProfile::lassen_gpu(1.0);
        let scaled = MachineProfile::lassen_gpu(0.001);
        assert!(scaled.proc.mem_capacity < full.proc.mem_capacity / 500);
        assert!(scaled.proc.mem_capacity > 0);
    }

    #[test]
    #[should_panic]
    fn empty_grid_rejected() {
        Machine::new(vec![], MachineProfile::test_profile());
    }
}
