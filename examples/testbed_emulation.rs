//! The distributed runtime in action: a real coordinator and one agent
//! host per node exchanging framed messages over **TCP loopback** —
//! the same code path a multi-host deployment would use — including a
//! mid-run coordinator crash + failover (§5: the coordinator is
//! stateless and rebuilds from the agents' next stats wave).
//!
//! ```sh
//! cargo run --release --example testbed_emulation
//! ```

use saath::prelude::*;
use saath::runtime::{emulate, EmulationConfig, TransportKind};

fn main() {
    // 16 nodes, 40 CoFlows. At time-scale 50 this replays in about two
    // wall-seconds.
    let trace = workload::gen::generate(&workload::gen::small(11, 16, 40));
    println!(
        "emulating {} CoFlows / {} flows on {} agent hosts over TCP…",
        trace.coflows.len(),
        trace.num_flows(),
        trace.num_nodes
    );

    let cfg = EmulationConfig {
        transport: TransportKind::Tcp,
        // Kill the coordinator's scheduler partway through: agents keep
        // complying with the last schedule; the replacement rebuilds its
        // state from the next stats reports and re-derives deadlines.
        restart_coordinator_at: Some(Time::from_secs(20)),
        wall_deadline: std::time::Duration::from_secs(120),
        ..Default::default()
    };

    let saath = emulate(&trace, &|| Box::new(Saath::with_defaults()), &cfg);
    assert!(!saath.coordinator.timed_out, "emulation timed out");
    println!(
        "saath: {} CoFlows completed, {} schedule epochs, coordinator restarted: {}",
        saath.coordinator.records.len(),
        saath.coordinator.epochs,
        saath.coordinator.restarted,
    );

    let aalo = emulate(&trace, &|| Box::new(Aalo::with_defaults()), &cfg);
    assert!(!aalo.coordinator.timed_out);

    let speedup =
        SpeedupSummary::compute(&aalo.coordinator.records, &saath.coordinator.records).unwrap();
    println!("emulated testbed, Saath over Aalo: {speedup}");
    println!("(timestamps are δ-granular coordinator observations, like a real deployment)");
}
