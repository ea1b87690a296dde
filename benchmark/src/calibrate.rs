//! Machine-speed calibration: what makes a wall-clock time comparable
//! between two runs on a shared box.
//!
//! This VM changes speed under the benchmark's feet: for seconds to
//! minutes at a time ordinary code runs 10-30 % slower, or 15 % faster.
//! Ten runs of one binary on one seed spread 11-18 % in raw median latency
//! on a noisy quarter-hour, which would bury any code change smaller than
//! that. The noise is largely common-mode: a fixed loop of ordinary work
//! slows down and speeds up in step with the program under test. So the
//! measuring loop runs that fixed loop every quarter second, between the
//! ops, and every timed duration is scaled by how fast the machine was
//! when it was taken:
//!
//! ```text
//! reported = measured * REF_SECONDS / (calibration time near that moment)
//! ```
//!
//! The same ten runs then spread 2-7 %. The raw median and the window's
//! calibration level are printed beside every result.
//!
//! Which loop: chosen by trying them next to the five workloads through
//! noisy and quiet phases. A chain of register arithmetic keeps its speed
//! to 1 % through every phase, so it tracks nothing. A streaming sum, a
//! random pointer chase (2 and 16 MB) and a sort or hash table over
//! memory allocated once track the compile- and overhead-bound workloads
//! but leave `iter_heavy` and `stream_delta` at 6-8 %. Building a tree of
//! small heap allocations and filling a fresh buffer tracks all five best.
//! The price: the loop allocates from the process's heap, so its level
//! also follows the state of that heap (it reads ~10 % higher next to
//! `iter_small` than next to the others, and rises as a program that
//! retains memory ages). A change to how the program allocates can
//! therefore move the level; a claim should check that the printed level
//! of the workload did not move with it, and compare raw medians if it did.
//!
//! Owns: the calibration loop, its reference time, the scaling rule.
//! Does not own: when calibration runs (`measure`).

use std::collections::BTreeMap;
use std::time::Instant;

/// What one calibration pass takes on this box, between ops, when nothing
/// disturbs it (Xeon @ 2.10 GHz guest, 2 vCPUs). Scaling to it keeps
/// reported times close to raw times measured in a quiet minute.
pub const REF_SECONDS: f64 = 1.35e-3;

/// Seconds between calibration points inside a timed window.
pub const INTERVAL_SECONDS: f64 = 0.25;

/// Calibration points within this many seconds of a moment decide the
/// machine's speed at that moment (their median).
const NEARBY_SECONDS: f64 = 0.6;

/// One pass of the fixed work: build and walk a tree of 6 000 small heap
/// keys (allocator, compares, pointer chasing), then fill and sum a fresh
/// 1.6 MB buffer (memory streaming).
fn pass() -> f64 {
    let t0 = Instant::now();
    let mut tree: BTreeMap<Vec<i64>, f64> = BTreeMap::new();
    for i in 0..6000i64 {
        tree.insert(vec![(i * 7919) % 6007, i], i as f64);
    }
    let mut acc: f64 = tree.iter().map(|(k, v)| v + k[0] as f64).sum();
    let buffer: Vec<f64> = (0..200_000).map(|i| i as f64 * 0.5).collect();
    acc += buffer.iter().sum::<f64>();
    std::hint::black_box((acc, tree));
    t0.elapsed().as_secs_f64()
}

/// One calibration point: the fastest of three passes (a pass that was
/// itself interrupted says nothing about the machine's speed).
pub fn point() -> f64 {
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// The calibration points of one window: (seconds into the window,
/// seconds the pass took).
#[derive(Clone, Debug, Default)]
pub struct Track {
    points: Vec<(f64, f64)>,
}

impl Track {
    pub fn push(&mut self, at: f64, secs: f64) {
        self.points.push((at, secs));
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Median calibration time of the window (for the progress line).
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Calibration time at moment `at`: the median of the points nearby,
    /// or the nearest point when none is.
    fn secs_at(&self, at: f64) -> Option<f64> {
        let nearby: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| (t - at).abs() <= NEARBY_SECONDS)
            .map(|p| p.1)
            .collect();
        if !nearby.is_empty() {
            return Some(crate::stats::median(&nearby));
        }
        self.points
            .iter()
            .min_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()))
            .map(|p| p.1)
    }

    /// Scale a duration measured at moment `at` to the reference speed.
    /// An empty track scales nothing.
    pub fn scale(&self, at: f64, secs: f64) -> f64 {
        match self.secs_at(at) {
            Some(cal) if cal > 0.0 => secs * REF_SECONDS / cal,
            _ => secs,
        }
    }
}

/// Time `f` with a calibration point on either side and scale the result
/// to the reference speed (for set-up, which runs outside any window).
pub fn scaled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = point();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let after = point();
    (out, secs * REF_SECONDS / ((before + after) / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_slow_phase() {
        let mut track = Track::default();
        // Quiet until 5 s, then everything takes 1.3x as long.
        let mut t = 0.0;
        while t < 10.0 {
            let slow = if t >= 5.0 { 1.3 } else { 1.0 };
            track.push(t, REF_SECONDS * slow);
            t += INTERVAL_SECONDS;
        }
        let quiet = track.scale(2.0, 0.010);
        let slow = track.scale(8.0, 0.013);
        assert!((quiet - 0.010).abs() < 1e-12);
        assert!((slow - 0.010).abs() < 1e-12);
        assert!((track.median() / REF_SECONDS - 1.15).abs() < 0.2);
    }

    #[test]
    fn far_moments_use_the_nearest_point_and_empty_tracks_scale_nothing() {
        let mut track = Track::default();
        assert_eq!(track.scale(1.0, 0.5), 0.5);
        track.push(0.0, REF_SECONDS * 2.0);
        track.push(100.0, REF_SECONDS);
        assert_eq!(track.scale(30.0, 1.0), 0.5);
        assert_eq!(track.scale(90.0, 1.0), 1.0);
    }

    #[test]
    fn a_point_is_a_positive_duration() {
        let p = point();
        assert!(p > 0.0 && p < 1.0, "calibration pass took {p} s");
    }
}
