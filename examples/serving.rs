//! Serving: two tenants, one plan cache.
//!
//! Starts an in-process `spd-server` on a Unix socket, connects two
//! tenants in turn, and shows the multi-tenant contract end to end:
//! tenant `alice` pays the compile (a `plan_cache.miss`), tenant `bob`
//! submits the same statement/schedule/formats and rides her plan (a
//! cross-tenant `plan_cache.hit`), and both match the serial oracle. Each
//! tenant then submits again on the same connection: that request runs the
//! connection's resident program — no build, no compile, the same bits —
//! and the server's report says where a request's time went
//! (`req.*_us`).
//!
//! Run with: `cargo run --release --example serving`

use spdistal_repro::obs::json::Json;
use spdistal_repro::sparse::{dense_vector, generate, reference};

use spdistal_client::{Client, Event};
use spdistal_server::{Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path =
        std::env::temp_dir().join(format!("spd-serving-example-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let server = Server::bind_uds(&path, ServerConfig::default())?;
    let engine = server.engine().clone();
    let thread = std::thread::spawn(move || server.run());
    println!("spd-server listening on {}", path.display());

    let b_data = generate::banded(2_000, 11, 42);
    let (n, m) = (b_data.dims()[0], b_data.dims()[1]);
    let c_data = generate::dense_vec(m, 7);
    let oracle = reference::spmv(&b_data, &c_data);

    for tenant in ["alice", "bob"] {
        let mut client = Client::connect_uds(&path)?;
        client.hello(tenant)?;
        client.register_tensor("a", "blocked_dense_vec", &dense_vector(vec![0.0; n]))?;
        client.register_tensor("B", "blocked_csr", &b_data)?;
        client.register_tensor("c", "replicated_dense_vec", &dense_vector(c_data.clone()))?;
        let outcome = client.submit(&[("a(i) = B(i,j) * c(j)", "auto")], 1, true, |ev| {
            if let Event::AutoDecision { choice, reason, .. } = ev {
                println!("  [{tenant}] auto-scheduler picked: {choice} ({reason})");
            }
        })?;
        let vals = &outcome.results.first().ok_or("no result")?.1;
        assert!(reference::approx_eq(vals, &oracle, 1e-12));
        println!(
            "  [{tenant}] result matches the oracle; plan_cache.hit={} plan_cache.miss={}",
            outcome.cache_hits, outcome.compiles
        );

        // The same submit again: the connection's resident program runs it.
        let again = client.submit(&[("a(i) = B(i,j) * c(j)", "auto")], 1, true, |_| {})?;
        let warm = &again.results.first().ok_or("no result")?.1;
        assert!(warm
            .iter()
            .zip(vals)
            .all(|(w, v)| w.to_bits() == v.to_bits()));
        assert_eq!(again.compiles, 0);
        println!("  [{tenant}] second submit ran the resident program: bit-identical, 0 compiles");
    }

    let cache = engine.plan_cache();
    println!(
        "shared plan cache: {} plan(s), {} miss(es), {} hit(s) ({} cross-tenant)",
        cache.len(),
        cache.misses(),
        cache.hits(),
        cache.cross_tenant_hits()
    );
    assert_eq!(
        cache.cross_tenant_hits(),
        2,
        "both of bob's submits must ride alice's plan"
    );

    // Where a request's time went, per stage, and the program traffic.
    let mut client = Client::connect_uds(&path)?;
    let report = Json::parse(&client.report()?)?;
    let field = |group: &str, name: &str| report.get(group).and_then(|g| g.get(name)).cloned();
    for stage in [
        "decode",
        "queue_wait",
        "build",
        "execute",
        "encode",
        "write",
    ] {
        let hist = field("hist", &format!("req.{stage}_us")).ok_or("missing stage")?;
        let num = |key: &str| hist.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        println!(
            "  req.{stage}_us: mean {:.1} over {} observation(s)",
            num("mean"),
            num("count")
        );
    }
    let count = |name: &str| field("counters", name).and_then(|v| v.as_f64());
    let built = count("server.program.built").unwrap_or(0.0);
    let reused = count("server.program.reused").unwrap_or(0.0);
    println!("  server.program: built {built}, reused {reused}");
    assert_eq!((built, reused), (2.0, 2.0));

    client.shutdown_server()?;
    thread.join().expect("server thread")?;
    println!("server drained and stopped");
    Ok(())
}
