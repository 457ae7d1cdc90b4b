//! N tenants share one machine's memory bound through the multi-tenant
//! scheduling service (DESIGN.md §6.9).
//!
//! Every tenant submits its own tree and policy spec; the service prices
//! each session at its feasibility floor, admits what fits the free
//! budget, queues what does not, and refuses outright what could never
//! run — then rebalances freed budget to the queue as sessions complete.
//! The global booking peak provably never exceeds the bound: the budget
//! ledger hard-errors rather than overcommitting.
//!
//! Run with `cargo run --release --example service_demo`.

use memtree::gen::synthetic::paper_tree;
use memtree::runtime::Workload;
use memtree::sched::{HeuristicKind, PolicySpec};
use memtree::service::{
    Admission, Service, ServiceConfig, SessionBackend, SessionRequest, SubmitError,
};
use std::sync::Arc;

fn main() {
    // Eight tenants with their own trees; the machine only has room for
    // about three of the largest requests at a time.
    let tenants: Vec<Arc<_>> = (0..8)
        .map(|t| Arc::new(paper_tree(2_000 + 400 * t, 4_000 + t as u64)))
        .collect();
    let specs: Vec<PolicySpec> = tenants
        .iter()
        .map(|tree| {
            let probe = PolicySpec::new(HeuristicKind::MemBooking, 0);
            let floor = probe.min_feasible(tree);
            PolicySpec::new(HeuristicKind::MemBooking, floor * 2)
        })
        .collect();
    let max_request = specs.iter().map(|s| s.memory).max().unwrap();
    let capacity = max_request * 3;

    println!("machine bound M = {capacity} (room for ~3 of the largest requests)");
    // Real worker threads sleeping per task: sessions live long enough
    // that the contention — queueing, then rebalancing on completion —
    // actually shows.
    let service = Service::start(ServiceConfig::new(capacity).with_backend(
        SessionBackend::Threaded {
            workers: 2,
            workload: Workload::quick(),
        },
    ));

    // Submit everyone up front — later tenants queue — plus one session
    // that could never run: its requested bound is below its own floor.
    let mut tickets = Vec::new();
    for (t, (tree, spec)) in tenants.iter().zip(&specs).enumerate() {
        let ticket = service
            .submit(SessionRequest::new(spec.clone(), tree.clone()))
            .expect("feasible tenants are admitted or queued");
        let how = match ticket.admission {
            Admission::Immediate { budget } => format!("admitted with budget {budget}"),
            Admission::Queued { position } => format!("queued at position {position}"),
        };
        println!("tenant {t} (request {}): {how}", spec.memory);
        tickets.push((t, ticket));
    }
    let hopeless = PolicySpec::new(HeuristicKind::MemBooking, 1);
    match service.submit(SessionRequest::new(hopeless, tenants[0].clone())) {
        Err(SubmitError::Infeasible(refusal)) => {
            println!("hopeless tenant refused up front: {refusal}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    // Wait for everyone; completions hand their budget to the queue.
    for (t, ticket) in tickets {
        let outcome = ticket.wait().expect("service stays up");
        let report = outcome.result.expect("session runs");
        println!(
            "tenant {t}: {} tasks, peak booked {} within budget {}, waited {:?} for admission",
            report.tasks_run, report.peak_booked, outcome.budget, outcome.admission_wait
        );
        assert!(report.peak_booked <= outcome.budget);
    }

    let stats = service.shutdown();
    println!(
        "done: {} admitted / {} refused, peak {} tenants at once, peak booked {}/{} — \
         the ledger never overcommits",
        stats.admission.admitted,
        stats.admission.refused,
        stats.peak_running,
        stats.peak_reserved,
        stats.capacity
    );
    assert!(stats.peak_reserved <= stats.capacity);
}
