//! Admission-queue stress suite (`-- --ignored`): many client
//! threads hammering one [`ShardedRuntime`] through both the blocking
//! and the load-shedding submission paths, with every answer checked
//! against the sequential oracle.
//!
//! A deliberately tiny queue (depth 4) under 8 concurrent clients
//! keeps the runtime saturated: producers block on backpressure or
//! get `Overloaded`, dispatchers micro-batch what they drain, and the
//! bounded-depth invariant (`high_water ≤ capacity`) must hold at the
//! end no matter the interleaving.

use evprop_bayesnet::networks;
use evprop_core::{InferenceSession, Query, SequentialEngine};
use evprop_potential::{EvidenceSet, PotentialTable, VarId};
use evprop_serve::{RuntimeConfig, ServeError, ShardedRuntime};
use std::sync::Arc;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 150;

/// Every distinct query this suite can issue, answered sequentially.
fn oracle_answers() -> Vec<Vec<PotentialTable>> {
    let session = InferenceSession::from_network(&networks::asia()).unwrap();
    (0..2)
        .map(|state| {
            let mut ev = EvidenceSet::new();
            ev.observe(VarId(7), state);
            let cal = session.propagate(&SequentialEngine, &ev).unwrap();
            (0..8u32).map(|v| cal.marginal(VarId(v)).unwrap()).collect()
        })
        .collect()
}

#[test]
#[ignore = "stress"]
fn eight_clients_hammer_a_tiny_queue() {
    let session = InferenceSession::from_network(&networks::asia()).unwrap();
    let rt = Arc::new(ShardedRuntime::new(
        session,
        RuntimeConfig::new(4, 1)
            .without_partitioning()
            .with_queue_depth(4)
            .with_max_batch(3),
    ));
    let oracle = Arc::new(oracle_answers());

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let rt = Arc::clone(&rt);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                let mut rejected = 0u64;
                for i in 0..QUERIES_PER_CLIENT {
                    let var = ((c + i) % 8) as u32;
                    let state = (c + i / 3) % 2;
                    let mut ev = EvidenceSet::new();
                    ev.observe(VarId(7), state);
                    let q = Query::new(VarId(var), ev);
                    // Odd clients shed load, even clients block.
                    let ticket = if c % 2 == 1 {
                        match rt.try_submit(q) {
                            Ok(t) => t,
                            Err(ServeError::Overloaded) => {
                                rejected += 1;
                                continue;
                            }
                            Err(e) => panic!("client {c}: {e}"),
                        }
                    } else {
                        rt.submit(q).unwrap_or_else(|e| panic!("client {c}: {e}"))
                    };
                    let got = ticket.wait().unwrap_or_else(|e| panic!("client {c}: {e}"));
                    let want = &oracle[state][var as usize];
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "client {c} query {i}: V{var} under state {state} diverged"
                    );
                    answered += 1;
                }
                (answered, rejected)
            })
        })
        .collect();

    let mut answered = 0u64;
    let mut rejected = 0u64;
    for c in clients {
        let (a, r) = c.join().unwrap();
        answered += a;
        rejected += r;
    }
    assert_eq!(answered + rejected, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    // Blocking clients always get through.
    assert!(answered >= (CLIENTS / 2 * QUERIES_PER_CLIENT) as u64);

    let stats = rt.stats();
    assert_eq!(stats.served, answered, "each admitted query answered once");
    assert_eq!(stats.errors, 0);
    assert!(
        stats.queue_high_water <= rt.config().queue_depth,
        "queue exceeded its bound: {} > {}",
        stats.queue_high_water,
        rt.config().queue_depth
    );
    // Steady state: every shard serves from its recycled arenas.
    let arenas: u64 = stats.shards.iter().map(|s| s.arenas_allocated).sum();
    assert!(arenas <= 4, "arena allocations kept growing: {arenas}");
    rt.shutdown();
}
