//! The per-lane ring-buffer event recorder.
//!
//! Each lane (control thread or pool worker) records into its own
//! `Mutex<VecDeque>` — one uncontended lock per event, no allocation once
//! the ring is warm, and a bounded footprint: when a lane's ring is full
//! the oldest event is dropped and counted, never blocking the recording
//! thread. Strings (launch names, cache keys, decision text) are interned
//! once into [`Sym`] handles so hot-path events stay `Copy`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, Sym, TraceEvent};

/// Default per-lane ring capacity (events). At 56 bytes per event this
/// bounds a lane at 3.5 MiB; rings only grow on demand.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

struct Lane {
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

/// Typed event sink: an epoch, one bounded ring per lane, an interner.
pub struct TraceRecorder {
    epoch: Instant,
    lanes: Vec<Mutex<Lane>>,
    capacity: usize,
    interner: Mutex<Interner>,
    /// Monotonic launch-id allocator shared by every pipeline drain that
    /// records into this recorder.
    next_launch: AtomicU64,
    /// Monotonic flush-id allocator.
    next_flush: AtomicU64,
}

impl TraceRecorder {
    /// A recorder with `lanes` recording lanes (lane 0 is the control
    /// thread) of `capacity` events each.
    pub fn new(lanes: usize, capacity: usize) -> TraceRecorder {
        let lanes = lanes.max(2);
        TraceRecorder {
            epoch: Instant::now(),
            lanes: (0..lanes)
                .map(|_| {
                    Mutex::new(Lane {
                        ring: VecDeque::new(),
                        dropped: 0,
                    })
                })
                .collect(),
            capacity: capacity.max(16),
            interner: Mutex::new(Interner {
                by_name: HashMap::new(),
                names: Vec::new(),
            }),
            next_launch: AtomicU64::new(0),
            next_flush: AtomicU64::new(0),
        }
    }

    /// Lanes sized to the host: control plus every worker the executor
    /// could spawn (available parallelism times the oversubscription
    /// clamp), bounded so a huge host cannot balloon the recorder.
    pub fn for_host() -> TraceRecorder {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // 4 matches ExecMode::MAX_OVERSUBSCRIPTION without depending on
        // the runtime crate (obs is a leaf).
        TraceRecorder::new((avail * 4 + 1).min(129), DEFAULT_LANE_CAPACITY)
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane_slot(&self, lane: u32) -> usize {
        // Out-of-range worker lanes fold into the worker range rather than
        // panicking or silently landing on the control lane.
        let n = self.lanes.len();
        if lane == 0 {
            0
        } else {
            1 + (lane as usize - 1) % (n - 1)
        }
    }

    /// Record `event` on `lane` at an explicit timestamp.
    pub fn record_at(&self, ts_ns: u64, lane: u32, event: Event) {
        let slot = self.lane_slot(lane);
        let mut guard = self.lanes[slot].lock().unwrap();
        if guard.ring.len() >= self.capacity {
            guard.ring.pop_front();
            guard.dropped += 1;
        }
        guard.ring.push_back(TraceEvent { ts_ns, lane, event });
    }

    /// Record `event` on `lane` stamped now.
    pub fn record(&self, lane: u32, event: Event) {
        self.record_at(self.now_ns(), lane, event);
    }

    /// Intern `name`, returning a stable [`Sym`] for it.
    pub fn intern(&self, name: &str) -> Sym {
        let mut guard = self.interner.lock().unwrap();
        if let Some(&id) = guard.by_name.get(name) {
            return Sym(id);
        }
        let id = guard.names.len() as u32;
        guard.names.push(name.to_string());
        guard.by_name.insert(name.to_string(), id);
        Sym(id)
    }

    /// The string behind `sym`, if it was interned here.
    pub fn resolve(&self, sym: Sym) -> Option<String> {
        self.interner
            .lock()
            .unwrap()
            .names
            .get(sym.0 as usize)
            .cloned()
    }

    /// Snapshot of the interned string table (index = `Sym` id).
    pub fn strings(&self) -> Vec<String> {
        self.interner.lock().unwrap().names.clone()
    }

    /// Reserve `n` consecutive launch ids; returns the first.
    pub fn alloc_launch_ids(&self, n: u32) -> u32 {
        self.next_launch.fetch_add(n as u64, Ordering::Relaxed) as u32
    }

    /// The next flush id.
    pub fn next_flush_id(&self) -> u32 {
        self.next_flush.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Per-lane snapshots, in lane order (clones; recording continues).
    pub fn snapshot_lanes(&self) -> Vec<Vec<TraceEvent>> {
        self.lanes
            .iter()
            .map(|l| l.lock().unwrap().ring.iter().copied().collect())
            .collect()
    }

    /// Every recorded event across all lanes, sorted by timestamp.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.snapshot_lanes().into_iter().flatten().collect();
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Events currently held across all rings.
    pub fn len(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.lock().unwrap().ring.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.lock().unwrap().dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_time_order() {
        let rec = TraceRecorder::new(3, 64);
        rec.record_at(30, 1, Event::StealAttempt);
        rec.record_at(10, 2, Event::ModelFence { name: Sym(0) });
        rec.record_at(
            20,
            0,
            Event::Flush {
                flush: 0,
                batches: 1,
                tasks: 4,
                dur_ns: 5,
            },
        );
        let all = rec.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(rec.dropped(), 0);
    }

    /// The ring's footprint: a window's `dur_ns` rides in the padding the
    /// widest event (`ModelLaunch`) already pays for.
    #[test]
    fn an_event_is_56_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 56);
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let rec = TraceRecorder::new(2, 16);
        for k in 0..40 {
            rec.record_at(k, 1, Event::StealAttempt);
        }
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.dropped(), 24);
        let first = rec.snapshot()[0];
        assert_eq!(first.ts_ns, 24, "oldest events were evicted first");
    }

    #[test]
    fn interner_is_stable_and_resolvable() {
        let rec = TraceRecorder::new(2, 16);
        let a = rec.intern("spmv");
        let b = rec.intern("spadd3");
        assert_eq!(rec.intern("spmv"), a);
        assert_ne!(a, b);
        assert_eq!(rec.resolve(a).as_deref(), Some("spmv"));
        assert_eq!(rec.resolve(b).as_deref(), Some("spadd3"));
        assert_eq!(rec.resolve(Sym(99)), None);
        assert_eq!(
            rec.strings(),
            vec!["spmv".to_string(), "spadd3".to_string()]
        );
    }

    #[test]
    fn out_of_range_lanes_fold_into_worker_lanes() {
        let rec = TraceRecorder::new(3, 16);
        rec.record_at(1, 0, Event::StealAttempt);
        rec.record_at(2, 7, Event::StealAttempt); // folds into a worker lane
        let lanes = rec.snapshot_lanes();
        assert_eq!(lanes[0].len(), 1);
        assert_eq!(lanes.iter().map(Vec::len).sum::<usize>(), 2);
        // The original lane id is preserved on the event itself.
        assert!(lanes.iter().flatten().any(|e| e.lane == 7));
    }

    #[test]
    fn id_allocators_are_monotonic() {
        let rec = TraceRecorder::new(2, 16);
        assert_eq!(rec.alloc_launch_ids(3), 0);
        assert_eq!(rec.alloc_launch_ids(2), 3);
        assert_eq!(rec.next_flush_id(), 0);
        assert_eq!(rec.next_flush_id(), 1);
    }
}
