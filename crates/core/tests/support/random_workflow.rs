//! Seeded random workflows for the static-analysis tests.
//!
//! Layered graphs over one to three sources: services with zero to three
//! input ports under dot or cross products, synchronization barriers,
//! multiply-fed and unconnected ports, at most one cycle (a self-loop or
//! a back edge), coordination constraints, descriptor- and
//! locally-bound services, declared item sizes, and non-uniform
//! [`SourceSizes`] where some sources are empty. The `golden_static`
//! digests and the crate's unit property tests both draw from it, so
//! they search the same space.
//!
//! At most one cycle per workflow: the M004/M006 findings of a
//! programmatic workflow carry no source spans, so several cycles would
//! tie in the report order.
//!
//! The including module must have `IterationStrategy`, `ProcId`,
//! `ServiceBinding`, `ServiceProfile`, `SourceSizes`, `Token` and
//! `Workflow` in scope.

use super::{
    IterationStrategy, ProcId, ServiceBinding, ServiceProfile, SourceSizes, Token, Workflow,
};
use moteur_gridsim::Rng;
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn descriptor(name: &str, inputs: &[&str], rng: &mut Rng) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: inputs
            .iter()
            .map(|i| InputSlot {
                name: (*i).into(),
                option: format!("-{i}"),
                access: Some(AccessMethod::Gfn),
                bytes: rng.chance(0.2).then_some(3_000_000),
            })
            .collect(),
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-o".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: rng.chance(0.05),
    }
}

/// Workflow number `case` and the source sizes to analyse it under.
pub fn random_workflow(case: u64) -> (Workflow, SourceSizes) {
    let mut rng = Rng::new(case);
    let mut wf = Workflow::new(format!("fuzz{case}"));
    let n_sources = 1 + rng.index(3);
    let mut pool: Vec<ProcId> = Vec::new();
    let mut sizes = SourceSizes::uniform(1 + rng.index(6) as u64);
    for i in 0..n_sources {
        let name = format!("s{i}");
        let src = wf.add_source(name.clone());
        if rng.chance(0.3) {
            wf.set_item_bytes(src, 1_000_000);
        }
        if rng.chance(0.35) {
            // 0..=7 items: one override in eight is an empty source.
            sizes = sizes.with(name, rng.index(8) as u64);
        }
        pool.push(src);
    }

    let mut cyclic = false;
    let mut services: Vec<ProcId> = Vec::new();
    for i in 0..1 + rng.index(6) {
        let name = format!("v{i}");
        let fan_in = if rng.chance(0.05) {
            0
        } else {
            1 + rng.index(3)
        };
        let mut ports: Vec<String> = (0..fan_in).map(|p| format!("in{p}")).collect();
        let self_loop = !cyclic && fan_in > 0 && rng.chance(0.06);
        if self_loop {
            ports.push("loop".into());
            cyclic = true;
        }
        let refs: Vec<&str> = ports.iter().map(String::as_str).collect();
        let binding = if rng.chance(0.08) {
            ServiceBinding::local(|_: &[Token]| Ok(vec![]))
        } else {
            let mut profile = ServiceProfile::new(1.0 + i as f64);
            if rng.chance(0.25) {
                profile = profile.with_output_bytes("out", 2_000_000);
            }
            ServiceBinding::descriptor(descriptor(&name, &refs, &mut rng), profile)
        };
        let svc = wf.add_service(name, &refs, &["out"], binding);
        if rng.chance(0.4) {
            wf.set_iteration(svc, IterationStrategy::Cross);
        }
        if rng.chance(0.12) {
            wf.set_synchronization(svc, true);
        }
        for port in &ports[..fan_in] {
            if rng.chance(0.07) {
                continue; // unconnected
            }
            wf.connect(pool[rng.index(pool.len())], "out", svc, port)
                .unwrap();
            if rng.chance(0.1) {
                // multiply fed
                wf.connect(pool[rng.index(pool.len())], "out", svc, port)
                    .unwrap();
            }
        }
        if self_loop {
            wf.connect(svc, "out", svc, "loop").unwrap();
        }
        pool.push(svc);
        services.push(svc);
    }

    // A back edge closes a cycle when its target is an ancestor.
    if !cyclic && services.len() >= 2 && rng.chance(0.1) {
        let to = services[rng.index(services.len() - 1)];
        let from = services[services.len() - 1];
        if let Some(port) = wf.processor(to).inputs.first().cloned() {
            wf.connect(from, "out", to, &port).unwrap();
        }
    }
    if rng.chance(0.1) {
        let a = services[rng.index(services.len())];
        let b = services[rng.index(services.len())];
        wf.add_control(a, b);
    }
    for k in 0..1 + rng.index(2) {
        let sink = wf.add_sink(format!("sink{k}"));
        wf.connect(pool[rng.index(pool.len())], "out", sink, "in")
            .unwrap();
    }
    (wf, sizes)
}
