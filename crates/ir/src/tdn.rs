//! Tensor distribution notation (TDN), extended with SpDISTAL's non-zero
//! partitions (`~`) and coordinate fusion (Section II-B).
//!
//! A TDN statement names each dimension of a tensor and each dimension of a
//! machine grid; tensor dimensions sharing a name with a machine dimension
//! are partitioned by it. SpDISTAL adds:
//!
//! * **non-zero partitions**: `T x ↦ ~x M` distributes the *non-zero
//!   coordinates* of `x` equally rather than the coordinate universe;
//! * **coordinate fusion**: `T xy (xy→f) ↦ ~f M` flattens `x` and `y` into a
//!   single logical dimension `f` whose non-zeros are split equally.
//!
//! The text syntax accepted by [`parse`] is
//! `tensor dims (group->name)* -> [~]dim... machine`, e.g.:
//!
//! ```text
//! a x -> x M              // block the vector over M
//! c x -> y M              // replicate: no shared name
//! B xy -> x M             // row-wise matrix distribution (Fig. 4b)
//! B xy -> xy M            // 2-D tiled distribution (Fig. 4c)
//! B x -> ~x M             // non-zero partition (Fig. 5b)
//! B xy (xy->f) -> ~f M    // fused non-zero partition (Fig. 5c)
//! ```

/// One machine-grid dimension's mapping in a TDN statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineMap {
    /// The dimension name this machine dimension partitions.
    pub name: char,
    /// True for a `~` non-zero partition.
    pub nonzero: bool,
}

/// A distribution description: tensor dimension names, coordinate fusions,
/// and per-machine-dimension mappings. This is the payload shared by the
/// format language's `Distribution(...)` and full TDN statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    pub dim_names: Vec<char>,
    /// Ordered fusions: each fuses a consecutive group of current names
    /// into a new name.
    pub fusions: Vec<(Vec<char>, char)>,
    pub machine_dims: Vec<MachineMap>,
}

/// A parsed TDN statement: `tensor <dist> machine`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TdnStatement {
    pub tensor: String,
    pub machine: String,
    pub dist: Distribution,
}

/// Resolution of a [`Distribution`] against a tensor's order: which logical
/// dimension each machine dimension partitions, and how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistSpec {
    /// Logical dimensions as ordered groups of original dimension indices.
    /// Ungrouped dimensions appear as singleton groups; coordinate fusion
    /// produces multi-element groups.
    pub logical_dims: Vec<Vec<usize>>,
    /// Per machine dimension: the logical dimension it partitions, or
    /// `None` if the tensor is replicated along that machine dimension.
    pub map: Vec<Option<usize>>,
    /// Per machine dimension: true for non-zero partitioning.
    pub nonzero: Vec<bool>,
}

/// TDN parse/resolution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TdnError {
    Syntax(String),
    /// A dimension name is bound twice: repeated in the tensor's dimension
    /// list, repeated inside one fusion group, or reintroduced by a fusion
    /// result that collides with a still-live name. (Previously some of
    /// these resolved silently against whichever binding the lookup hit.)
    DuplicateDim(char),
    /// Two machine-grid dimensions name the same partitioning dimension —
    /// the mapping would be ambiguous, so it is rejected rather than
    /// resolved in favor of either binding.
    DuplicateMachineDim(char),
    UnknownDim(char),
    /// Fusion groups must name consecutive current dimensions.
    NonAdjacentFusion(String),
    /// A machine dimension maps a dimension that no longer exists (it was
    /// fused away).
    FusedAway(char),
}

impl std::fmt::Display for TdnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdnError::Syntax(m) => write!(f, "TDN syntax error: {m}"),
            TdnError::DuplicateDim(c) => write!(f, "duplicate dimension name '{c}'"),
            TdnError::DuplicateMachineDim(c) => {
                write!(f, "machine dimension name '{c}' bound twice")
            }
            TdnError::UnknownDim(c) => write!(f, "unknown dimension name '{c}'"),
            TdnError::NonAdjacentFusion(m) => write!(f, "non-adjacent fusion: {m}"),
            TdnError::FusedAway(c) => write!(f, "dimension '{c}' was fused away"),
        }
    }
}

impl std::error::Error for TdnError {}

/// Displays in the TDN concrete syntax [`parse`] accepts (minus the tensor
/// and machine names, which a [`Distribution`] does not carry):
/// `xy (xy->f) -> ~f`.
impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = |f: &mut std::fmt::Formatter<'_>, cs: &[char]| {
            cs.iter().try_for_each(|c| write!(f, "{c}"))
        };
        names(f, &self.dim_names)?;
        for (group, name) in &self.fusions {
            write!(f, " (")?;
            names(f, group)?;
            write!(f, "->{name})")?;
        }
        write!(f, " -> ")?;
        for m in &self.machine_dims {
            write!(f, "{}{}", if m.nonzero { "~" } else { "" }, m.name)?;
        }
        Ok(())
    }
}

impl Distribution {
    /// Build a simple (fusion-free) distribution: `dim_names` name the
    /// tensor dimensions; `machine` lists per-machine-dimension names with
    /// optional `~` prefix, e.g. `Distribution::new("xy", "x")` is the
    /// row-wise matrix distribution.
    pub fn new(dim_names: &str, machine: &str) -> Result<Self, TdnError> {
        let dist = Distribution {
            dim_names: dim_names.chars().collect(),
            fusions: Vec::new(),
            machine_dims: parse_machine_dims(machine)?,
        };
        dist.check_dims()?;
        Ok(dist)
    }

    /// Add a coordinate fusion: `group` (e.g. "xy") collapses into `name`.
    pub fn with_fusion(mut self, group: &str, name: char) -> Self {
        self.fusions.push((group.chars().collect(), name));
        self
    }

    /// Reject every ambiguous name binding up front: repeated tensor
    /// dimension names, repeated characters inside one fusion group, and a
    /// machine dimension named twice. Each used to resolve silently against
    /// one arbitrary binding; all are typed errors now.
    fn check_dims(&self) -> Result<(), TdnError> {
        let mut seen = std::collections::BTreeSet::new();
        for &c in &self.dim_names {
            if !seen.insert(c) {
                return Err(TdnError::DuplicateDim(c));
            }
        }
        for (group, _) in &self.fusions {
            let mut seen = std::collections::BTreeSet::new();
            for &c in group {
                if !seen.insert(c) {
                    return Err(TdnError::DuplicateDim(c));
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.machine_dims {
            if !seen.insert(m.name) {
                return Err(TdnError::DuplicateMachineDim(m.name));
            }
        }
        Ok(())
    }

    /// Resolve against a tensor of the given order.
    pub fn resolve(&self, order: usize) -> Result<DistSpec, TdnError> {
        if self.dim_names.len() != order {
            return Err(TdnError::Syntax(format!(
                "{} dimension names for order-{order} tensor",
                self.dim_names.len()
            )));
        }
        self.check_dims()?;
        // Current logical dims: (name, original dim group).
        let mut names: Vec<char> = self.dim_names.clone();
        let mut groups: Vec<Vec<usize>> = (0..order).map(|d| vec![d]).collect();
        for (fuse_group, new_name) in &self.fusions {
            let first = *fuse_group
                .first()
                .ok_or_else(|| TdnError::Syntax("empty fusion group".into()))?;
            let start = names
                .iter()
                .position(|&c| c == first)
                .ok_or(TdnError::UnknownDim(first))?;
            // Group members must appear consecutively starting at `start`.
            for (k, &c) in fuse_group.iter().enumerate() {
                if names.get(start + k) != Some(&c) {
                    return Err(TdnError::NonAdjacentFusion(format!(
                        "group {:?} at names {:?}",
                        fuse_group, names
                    )));
                }
            }
            let merged: Vec<usize> = groups[start..start + fuse_group.len()]
                .iter()
                .flatten()
                .copied()
                .collect();
            names.splice(start..start + fuse_group.len(), [*new_name]);
            groups.splice(start..start + fuse_group.len(), [merged]);
            // A fusion result colliding with a still-live name (an unfused
            // dimension or an earlier fusion's result) would make every
            // later lookup ambiguous.
            if names.iter().filter(|&&c| c == *new_name).count() > 1 {
                return Err(TdnError::DuplicateDim(*new_name));
            }
        }
        let mut map = Vec::with_capacity(self.machine_dims.len());
        let mut nonzero = Vec::with_capacity(self.machine_dims.len());
        for m in &self.machine_dims {
            let ld = names.iter().position(|&c| c == m.name);
            // A name present in the original dims but fused away is an error
            // when explicitly mapped.
            if ld.is_none() && m.nonzero {
                return Err(TdnError::UnknownDim(m.name));
            }
            if ld.is_none() && self.dim_names.contains(&m.name) {
                return Err(TdnError::FusedAway(m.name));
            }
            map.push(ld);
            nonzero.push(m.nonzero && ld.is_some());
        }
        Ok(DistSpec {
            logical_dims: groups,
            map,
            nonzero,
        })
    }
}

fn parse_machine_dims(s: &str) -> Result<Vec<MachineMap>, TdnError> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c == '~' {
            let name = chars
                .next()
                .ok_or_else(|| TdnError::Syntax("dangling ~".into()))?;
            out.push(MachineMap {
                name,
                nonzero: true,
            });
        } else if c.is_alphanumeric() {
            out.push(MachineMap {
                name: c,
                nonzero: false,
            });
        } else {
            return Err(TdnError::Syntax(format!("unexpected '{c}'")));
        }
    }
    Ok(out)
}

/// Parse a full TDN statement, e.g. `"B xy (xy->f) -> ~f M"`.
pub fn parse(input: &str) -> Result<TdnStatement, TdnError> {
    let (lhs, rhs) = input
        .split_once("->")
        .map(|(l, r)| {
            // Fusion arrows also contain "->"; split on the *last* top-level
            // arrow, i.e. the one outside parentheses.
            let mut depth = 0i32;
            let bytes = input.as_bytes();
            let mut split_at = None;
            let mut k = 0;
            while k + 1 < bytes.len() {
                match bytes[k] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b'-' if bytes[k + 1] == b'>' && depth == 0 => split_at = Some(k),
                    _ => {}
                }
                k += 1;
            }
            match split_at {
                Some(k) => (input[..k].trim(), input[k + 2..].trim()),
                None => (l.trim(), r.trim()),
            }
        })
        .ok_or_else(|| TdnError::Syntax("missing '->'".into()))?;

    // LHS: tensor name, dim names, optional fusion groups.
    let mut lhs_parts = lhs.split_whitespace();
    let tensor = lhs_parts
        .next()
        .ok_or_else(|| TdnError::Syntax("missing tensor name".into()))?
        .to_string();
    let dims = lhs_parts
        .next()
        .ok_or_else(|| TdnError::Syntax("missing dimension names".into()))?;
    let mut fusions = Vec::new();
    for part in lhs_parts {
        let inner = part
            .strip_prefix('(')
            .and_then(|p| p.strip_suffix(')'))
            .ok_or_else(|| TdnError::Syntax(format!("bad fusion '{part}'")))?;
        let (group, name) = inner
            .split_once("->")
            .ok_or_else(|| TdnError::Syntax(format!("bad fusion '{part}'")))?;
        let name_chars: Vec<char> = name.trim().chars().collect();
        if name_chars.len() != 1 {
            return Err(TdnError::Syntax(format!("fusion result '{name}'")));
        }
        fusions.push((group.trim().chars().collect(), name_chars[0]));
    }

    // RHS: machine dim names then machine name.
    let rhs_parts: Vec<&str> = rhs.split_whitespace().collect();
    if rhs_parts.len() != 2 {
        return Err(TdnError::Syntax(format!(
            "expected '<dims> <machine>', got '{rhs}'"
        )));
    }
    let machine_dims = parse_machine_dims(rhs_parts[0])?;
    let dist = Distribution {
        dim_names: dims.chars().collect(),
        fusions,
        machine_dims,
    };
    dist.check_dims()?;
    Ok(TdnStatement {
        tensor,
        machine: rhs_parts[1].to_string(),
        dist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_blocked_vector() {
        // Figure 4a: T x -> x M.
        let t = parse("T x -> x M").unwrap();
        assert_eq!(t.tensor, "T");
        assert_eq!(t.machine, "M");
        let spec = t.dist.resolve(1).unwrap();
        assert_eq!(spec.map, vec![Some(0)]);
        assert_eq!(spec.nonzero, vec![false]);
    }

    #[test]
    fn parse_replicated_vector() {
        // c x -> y M: no shared name, replicate.
        let t = parse("c x -> y M").unwrap();
        let spec = t.dist.resolve(1).unwrap();
        assert_eq!(spec.map, vec![None]);
    }

    #[test]
    fn parse_rowwise_matrix() {
        // Figure 4b: T xy -> x M.
        let t = parse("B xy -> x M").unwrap();
        let spec = t.dist.resolve(2).unwrap();
        assert_eq!(spec.logical_dims, vec![vec![0], vec![1]]);
        assert_eq!(spec.map, vec![Some(0)]);
    }

    #[test]
    fn parse_tiled_matrix() {
        // Figure 4c: T xy -> xy M (2-D machine).
        let t = parse("T xy -> xy M").unwrap();
        let spec = t.dist.resolve(2).unwrap();
        assert_eq!(spec.map, vec![Some(0), Some(1)]);
    }

    #[test]
    fn parse_nonzero_vector() {
        // Figure 5b: T x -> ~x M.
        let t = parse("T x -> ~x M").unwrap();
        let spec = t.dist.resolve(1).unwrap();
        assert_eq!(spec.map, vec![Some(0)]);
        assert_eq!(spec.nonzero, vec![true]);
    }

    #[test]
    fn parse_fused_nonzero_matrix() {
        // Figure 5c: T xy (xy->f) -> ~f M.
        let t = parse("B xy (xy->f) -> ~f M").unwrap();
        assert_eq!(t.dist.fusions, vec![(vec!['x', 'y'], 'f')]);
        let spec = t.dist.resolve(2).unwrap();
        assert_eq!(spec.logical_dims, vec![vec![0, 1]]);
        assert_eq!(spec.map, vec![Some(0)]);
        assert_eq!(spec.nonzero, vec![true]);
    }

    #[test]
    fn three_tensor_variants() {
        // T xyz -> ~x M: non-zero slices.
        let s1 = parse("T xyz -> ~x M").unwrap().dist.resolve(3).unwrap();
        assert_eq!(s1.logical_dims.len(), 3);
        assert_eq!(s1.map, vec![Some(0)]);
        // T xyz (xy->f) -> ~f M: non-zero tubes.
        let s2 = parse("T xyz (xy->f) -> ~f M")
            .unwrap()
            .dist
            .resolve(3)
            .unwrap();
        assert_eq!(s2.logical_dims, vec![vec![0, 1], vec![2]]);
        // T xyz (xyz->f) -> ~f M: non-zero values.
        let s3 = parse("T xyz (xyz->f) -> ~f M")
            .unwrap()
            .dist
            .resolve(3)
            .unwrap();
        assert_eq!(s3.logical_dims, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn duplicate_dim_rejected() {
        assert_eq!(parse("T xx -> x M"), Err(TdnError::DuplicateDim('x')));
        // Three dims with the middle repeated — still the *first* duplicate.
        assert_eq!(parse("T xyx -> y M"), Err(TdnError::DuplicateDim('x')));
    }

    #[test]
    fn duplicate_fusion_group_char_rejected() {
        // `(xx->f)` repeats a character inside the fusion group: previously
        // this fell through to an incidental NonAdjacentFusion (or silently
        // resolved, for groups the adjacency walk happened to accept); it
        // is a typed duplicate now, at parse time.
        assert_eq!(
            parse("B xy (xx->f) -> ~f M"),
            Err(TdnError::DuplicateDim('x'))
        );
        // And via the builder, at resolve time.
        let d = Distribution::new("xyz", "~f")
            .unwrap()
            .with_fusion("xyy", 'f');
        assert_eq!(d.resolve(3), Err(TdnError::DuplicateDim('y')));
    }

    #[test]
    fn fusion_result_colliding_with_live_dim_rejected() {
        // `(xy->z)` reintroduces `z`, which is still a live dimension: both
        // the machine mapping `z M` and any later fusion would bind to an
        // arbitrary one of the two.
        let t = parse("T xyz (xy->z) -> z M").unwrap();
        assert_eq!(t.dist.resolve(3), Err(TdnError::DuplicateDim('z')));
    }

    #[test]
    fn duplicate_machine_dim_rejected() {
        // `xx M` binds machine dimension name `x` twice: the partition
        // mapping would be ambiguous (the old code silently used whichever
        // binding it found first).
        assert_eq!(
            parse("T xy -> xx M"),
            Err(TdnError::DuplicateMachineDim('x'))
        );
        assert_eq!(
            Distribution::new("xy", "zz"),
            Err(TdnError::DuplicateMachineDim('z'))
        );
    }

    #[test]
    fn nonadjacent_fusion_rejected() {
        let t = parse("T xyz (xz->f) -> f M").unwrap();
        assert!(matches!(
            t.dist.resolve(3),
            Err(TdnError::NonAdjacentFusion(_))
        ));
    }

    #[test]
    fn fused_away_dim_rejected() {
        let t = parse("T xy (xy->f) -> x M").unwrap();
        assert_eq!(t.dist.resolve(2), Err(TdnError::FusedAway('x')));
    }

    #[test]
    fn order_mismatch_rejected() {
        let t = parse("T xy -> x M").unwrap();
        assert!(matches!(t.dist.resolve(3), Err(TdnError::Syntax(_))));
    }

    #[test]
    fn distribution_displays_in_tdn_syntax() {
        let t = parse("B xy (xy->f) -> ~f M").unwrap();
        assert_eq!(t.dist.to_string(), "xy (xy->f) -> ~f");
        assert_eq!(parse("T xy -> x M").unwrap().dist.to_string(), "xy -> x");
    }

    #[test]
    fn builder_api_matches_parser() {
        let d = Distribution::new("xy", "~f")
            .unwrap()
            .with_fusion("xy", 'f');
        let parsed = parse("B xy (xy->f) -> ~f M").unwrap();
        assert_eq!(d.resolve(2), parsed.dist.resolve(2));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("garbage").is_err());
        assert!(parse("T").is_err());
        assert!(parse("T xy -> x").is_err());
        assert!(parse("T xy (xy-f) -> x M").is_err());
        assert!(parse("T x -> ~ M").is_err());
    }
}
