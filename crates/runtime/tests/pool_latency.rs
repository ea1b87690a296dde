//! What a drain costs when there is next to nothing to run. A file (hence
//! a process) of its own: the measurement wants the helper to itself.

use std::time::Instant;

use spdistal_runtime::sched::pool::run_graph;
use spdistal_runtime::sched::TaskGraphBuilder;

#[test]
fn end_of_drain_never_waits_for_a_wake_up() {
    // The spawn-per-drain pool could leave a worker asleep for its whole
    // 200 us park timeout after the last span completed (the final notify
    // was not issued under the idle lock), and the drain waited for it. In
    // the resident pool a parked helper holds no slot, so no drain may cost
    // a sleep or a wake-up latency. A chain of two width-2 tasks keeps
    // `threads` at 2 and calls the helper for every drain; it lingers
    // between them, joins most and leaves each before its end. The slow
    // tail is held against the loop's own median — p99, not max, and the
    // best of three loops: a preempted test thread is not a pool bug, a
    // tail that comes back every time is.
    let mut chain = TaskGraphBuilder::new(2);
    chain.add_edge(0, 1);
    let graph = chain.build().with_widths(vec![2, 2]);
    let mut tails = Vec::new();
    for _ in 0..3 {
        let mut micros: Vec<f64> = (0..2000)
            .map(|_| {
                let t0 = Instant::now();
                let stats = run_graph(2, &graph, &|_, _| {});
                assert_eq!(stats.executed, 4);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        micros.sort_by(f64::total_cmp);
        let (median, p99) = (micros[1000], micros[1980]);
        let bound = 25.0 * median.max(4.0);
        if p99 <= bound {
            return;
        }
        tails.push(format!(
            "p99 {p99:.1} us vs median {median:.1} us (bound {bound:.1} us)"
        ));
    }
    panic!("some drains waited out a sleep, three loops running: {tails:?}");
}
