//! Behavioural tests of the multi-tenant enactment daemon: shared
//! memo table, per-instance cancel isolation, admission control and
//! weighted-fair dispatch.

use moteur::{
    serve, Daemon, DaemonConfig, DataStore, DataValue, EnactorConfig, FtConfig, InputData,
    InstanceState, MoteurError, ServiceBinding, SimBackend, StoreConfig, TenantConfig, Token,
    VirtualBackend, Workflow,
};
use moteur_gridsim::GridConfig;
use moteur_scufl::parse_submission;

fn tiny_workflow() -> String {
    r#"<scufl name="tiny">
  <source name="s" bytes="64"/>
  <processor name="p" compute="5">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="10"/>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="p:in"/>
  <link from="p:out" to="k:in"/>
</scufl>"#
        .to_string()
}

fn tiny_inputs(n: usize) -> String {
    let items: String = (0..n)
        .map(|j| format!(r#"<item type="file" gfn="gfn://x/i{j}" bytes="64"/>"#))
        .collect();
    format!(r#"<inputdata><input name="s">{items}</input></inputdata>"#)
}

fn daemon() -> Daemon {
    Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parse_submission,
        DaemonConfig::default(),
    )
}

fn submit(d: &mut Daemon, tenant: &str, n_data: usize) -> u32 {
    d.submit(
        tenant,
        &tiny_workflow(),
        &tiny_inputs(n_data),
        EnactorConfig::sp_dp(),
        FtConfig::default(),
    )
    .expect("tiny workflow submits")
}

/// [`parse_submission`], except that the workflow text `local` parses
/// to a source → in-process service → sink chain over one item.
fn parser_with_a_local_service(
    workflow: &str,
    inputs: &str,
) -> Result<(Workflow, InputData), MoteurError> {
    if workflow != "local" {
        return parse_submission(workflow, inputs);
    }
    let forward = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![("out".into(), inputs[0].value.clone())])
    };
    let mut wf = Workflow::new("local");
    let s = wf.add_source("s");
    let p = wf.add_service("p", &["in"], &["out"], ServiceBinding::local(forward));
    let k = wf.add_sink("k");
    wf.connect(s, "out", p, "in")?;
    wf.connect(p, "out", k, "in")?;
    Ok((wf, InputData::new().set("s", vec!["D0".into()])))
}

/// A grid daemon cannot run an in-process service: the tenant that
/// submits one gets a failed instance naming the processor, and the
/// daemon keeps serving every other tenant.
#[test]
fn a_local_service_on_a_grid_daemon_fails_its_instance_not_the_daemon() {
    let mut d = Daemon::new(
        Box::new(SimBackend::new(GridConfig::ideal(), 2006)),
        DataStore::in_memory(StoreConfig::default()),
        parser_with_a_local_service,
        DaemonConfig::default(),
    );
    let config = || EnactorConfig::sp_dp();
    let a = d
        .submit("alice", "local", "", config(), FtConfig::default())
        .expect("the workflow parses");
    let b = d
        .submit(
            "bob",
            &tiny_workflow(),
            &tiny_inputs(2),
            config(),
            FtConfig::default(),
        )
        .expect("tiny workflow submits");
    d.drain();
    let sa = d.status(a).unwrap();
    assert_eq!(sa.state, InstanceState::Failed, "{sa:?}");
    assert_eq!(
        sa.error.as_deref(),
        Some("SimBackend cannot execute in-process services; bind `p` to a descriptor")
    );
    let sb = d.status(b).unwrap();
    assert_eq!(sb.state, InstanceState::Succeeded, "{sb:?}");
}

/// A synchronization barrier linked to itself: the lint warns (M005)
/// but finds no error.
fn barrier_loop_workflow() -> String {
    r#"<scufl name="barrier-loop">
  <source name="s" bytes="64"/>
  <processor name="x" compute="5" sync="true">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="x:in"/>
  <link from="x:out" to="x:in"/>
  <link from="x:out" to="k:in"/>
</scufl>"#
        .to_string()
}

/// A barrier releases once, so one on a data cycle is refused at
/// compile time: the submitting tenant's instance fails naming it, and
/// the daemon keeps serving every other tenant.
#[test]
fn a_barrier_on_a_cycle_fails_its_instance_not_the_daemon() {
    let mut d = daemon();
    let config = || EnactorConfig::sp_dp();
    let a = d
        .submit(
            "alice",
            &barrier_loop_workflow(),
            &tiny_inputs(2),
            config(),
            FtConfig::default(),
        )
        .expect("the workflow parses");
    let b = submit(&mut d, "bob", 2);
    d.drain();
    let sa = d.status(a).unwrap();
    assert_eq!(sa.state, InstanceState::Failed, "{sa:?}");
    assert_eq!(
        sa.error.as_deref(),
        Some("synchronization processor `x` sits on a data cycle")
    );
    let sb = d.status(b).unwrap();
    assert_eq!(sb.state, InstanceState::Succeeded, "{sb:?}");
}

#[test]
fn second_tenants_identical_submission_hits_the_shared_memo_table() {
    let mut d = daemon();
    let a = submit(&mut d, "alice", 4);
    d.drain();
    let b = submit(&mut d, "bob", 4);
    d.drain();
    let sa = d.status(a).unwrap();
    let sb = d.status(b).unwrap();
    assert_eq!(sa.state, InstanceState::Succeeded);
    assert_eq!(sb.state, InstanceState::Succeeded);
    assert!(sa.store_misses > 0, "cold tenant misses: {sa:?}");
    assert_eq!(sb.store_misses, 0, "warm tenant recomputes: {sb:?}");
    assert!(sb.store_hits > 0, "warm tenant hits: {sb:?}");
    let m = d.metrics();
    let bob = m.tenants.iter().find(|t| t.tenant == "bob").unwrap();
    assert!((bob.hit_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn cancel_drains_only_the_instances_own_jobs() {
    let mut d = daemon();
    let doomed = submit(&mut d, "alice", 8);
    let sibling = submit(&mut d, "bob", 8);
    assert!(d.status(doomed).unwrap().inflight > 0, "jobs are in flight");
    assert!(d.cancel(doomed));
    assert!(!d.cancel(doomed), "double cancel is refused");
    d.drain();
    assert_eq!(d.status(doomed).unwrap().state, InstanceState::Cancelled);
    let s = d.status(sibling).unwrap();
    assert_eq!(
        s.state,
        InstanceState::Succeeded,
        "sibling jobs survived the cancel: {s:?}"
    );
}

#[test]
fn admission_queues_beyond_the_tenant_workflow_cap() {
    let mut d = daemon();
    d.set_tenant(
        "alice",
        TenantConfig {
            max_inflight_workflows: 1,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let ids: Vec<u32> = (0..3).map(|_| submit(&mut d, "alice", 2)).collect();
    let states: Vec<InstanceState> = ids.iter().map(|&id| d.status(id).unwrap().state).collect();
    assert_eq!(
        states,
        vec![
            InstanceState::Running,
            InstanceState::Queued,
            InstanceState::Queued
        ]
    );
    d.drain();
    for id in ids {
        assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
    }
}

#[test]
fn a_flooding_tenant_cannot_delay_anothers_first_job() {
    let mut d = daemon();
    for _ in 0..50 {
        submit(&mut d, "flood", 2);
    }
    let vip = submit(&mut d, "vip", 2);
    let s = d.status(vip).unwrap();
    // Admission is immediate (the vip tenant has free workflow slots)
    // and dispatch is weighted round-robin, so the vip's first job
    // fires at submission time regardless of the flood.
    assert_eq!(
        s.first_job_at,
        Some(s.submitted_at),
        "time-to-first-job exceeded the admission bound: {s:?}"
    );
    d.drain();
    assert_eq!(d.metrics().succeeded, 51);
}

#[test]
fn extreme_weight_and_quantum_saturate_instead_of_overflowing() {
    // weight × quantum overflows usize by many orders of magnitude;
    // the dispatch budget must saturate (then clamp to the job
    // ceiling), not wrap around to a tiny or panicking cap.
    let mut d = Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parse_submission,
        DaemonConfig {
            quantum: usize::MAX,
            ..DaemonConfig::default()
        },
    );
    d.set_tenant(
        "alice",
        TenantConfig {
            weight: u32::MAX,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let id = submit(&mut d, "alice", 4);
    d.drain();
    assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
}

#[test]
fn weight_zero_is_rejected_by_set_tenant() {
    let mut d = daemon();
    let err = d
        .set_tenant(
            "alice",
            TenantConfig {
                weight: 0,
                ..TenantConfig::default()
            },
        )
        .unwrap_err();
    assert!(
        err.message().contains("weight 0"),
        "error names the bad weight: {err:?}"
    );
    // The rejected override took no effect: alice still schedules.
    let id = submit(&mut d, "alice", 2);
    d.drain();
    assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
}

#[test]
fn weight_zero_tenant_default_is_rejected_at_submit() {
    // A config constructed directly (bypassing set_tenant) can still
    // carry weight 0; submission must fail loudly instead of admitting
    // a workflow that would never be dispatched.
    let mut d = Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parse_submission,
        DaemonConfig {
            tenant_defaults: TenantConfig {
                weight: 0,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        },
    );
    let err = d
        .submit(
            "alice",
            &tiny_workflow(),
            &tiny_inputs(1),
            EnactorConfig::sp_dp(),
            FtConfig::default(),
        )
        .unwrap_err();
    assert!(
        err.message().contains("weight 0"),
        "error names the starvation hazard: {err:?}"
    );
    assert!(d.list().is_empty(), "rejected submissions take no slot");
}

#[test]
fn protocol_surfaces_weight_zero_rejection_as_error_response() {
    let workflow = tiny_workflow().replace('"', "\\\"").replace('\n', "\\n");
    let inputs = tiny_inputs(1).replace('"', "\\\"");
    let session = format!(
        r#"{{"schema":"moteur/daemon/v1","op":"submit","tenant":"a","workflow":"{workflow}","inputs":"{inputs}"}}"#,
    );
    let mut d = Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parse_submission,
        DaemonConfig {
            tenant_defaults: TenantConfig {
                weight: 0,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        },
    );
    let mut out = Vec::new();
    serve(&mut d, session.as_bytes(), &mut out).unwrap();
    let response = String::from_utf8(out).unwrap();
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(response.contains("weight 0"), "{response}");
}

#[test]
fn a_tenants_job_ceiling_holds_after_every_step() {
    let mut d = daemon();
    d.set_tenant(
        "alice",
        TenantConfig {
            max_inflight_jobs: 4,
            max_inflight_workflows: 2,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let ids = [submit(&mut d, "alice", 10), submit(&mut d, "alice", 10)];
    loop {
        // The second instance, fresh and with nothing in flight, used to
        // be fired to its fixpoint whatever the first one held: 4 + 10.
        let inflight = d.metrics().tenants[0].inflight_jobs;
        assert!(
            inflight <= 4,
            "{inflight} jobs in flight under a ceiling of 4"
        );
        if !d.step() {
            break;
        }
    }
    for id in ids {
        let s = d.status(id).unwrap();
        assert_eq!(s.state, InstanceState::Succeeded, "{s:?}");
    }
}

/// A configuration per ceiling with that ceiling zero, and what the
/// rejection must name.
fn zero_ceilings() -> [(TenantConfig, &'static str); 2] {
    [
        (
            TenantConfig {
                max_inflight_workflows: 0,
                ..TenantConfig::default()
            },
            "max_inflight_workflows 0",
        ),
        (
            TenantConfig {
                max_inflight_jobs: 0,
                ..TenantConfig::default()
            },
            "max_inflight_jobs 0",
        ),
    ]
}

#[test]
fn zero_ceilings_are_rejected_by_set_tenant() {
    let mut d = daemon();
    for (config, field) in zero_ceilings() {
        let err = d.set_tenant("alice", config).unwrap_err();
        assert!(err.message().contains(field), "{err:?} names {field}");
    }
    // The rejected overrides took no effect: alice still schedules.
    let id = submit(&mut d, "alice", 2);
    d.drain();
    assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
}

/// A daemon whose tenant defaults carry one zero ceiling, bypassing
/// `set_tenant`: a zero workflow ceiling used to leave the submission
/// queued forever behind a `drain` that answered `ok`, a zero job
/// ceiling was ignored.
fn daemon_with_defaults(tenant_defaults: TenantConfig) -> Daemon {
    Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parse_submission,
        DaemonConfig {
            tenant_defaults,
            ..DaemonConfig::default()
        },
    )
}

#[test]
fn zero_ceiling_tenant_defaults_are_rejected_at_submit() {
    for (tenant_defaults, field) in zero_ceilings() {
        let mut d = daemon_with_defaults(tenant_defaults);
        let err = d
            .submit(
                "alice",
                &tiny_workflow(),
                &tiny_inputs(1),
                EnactorConfig::sp_dp(),
                FtConfig::default(),
            )
            .unwrap_err();
        assert!(err.message().contains(field), "{err:?} names {field}");
        assert!(d.list().is_empty(), "rejected submissions take no slot");
    }
}

#[test]
fn protocol_surfaces_zero_ceiling_rejection_as_error_response() {
    let workflow = tiny_workflow().replace('"', "\\\"").replace('\n', "\\n");
    let inputs = tiny_inputs(1).replace('"', "\\\"");
    let session = format!(
        r#"{{"schema":"moteur/daemon/v1","op":"submit","tenant":"a","workflow":"{workflow}","inputs":"{inputs}"}}"#,
    );
    let mut d = daemon_with_defaults(TenantConfig {
        max_inflight_workflows: 0,
        ..TenantConfig::default()
    });
    let mut out = Vec::new();
    serve(&mut d, session.as_bytes(), &mut out).unwrap();
    let response = String::from_utf8(out).unwrap();
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(response.contains("max_inflight_workflows 0"), "{response}");
}

#[test]
fn malformed_scufl_is_rejected_at_every_submit() {
    let mut d = daemon();
    let mut submit_malformed = || {
        d.submit(
            "alice",
            "<scufl",
            &tiny_inputs(1),
            EnactorConfig::sp_dp(),
            FtConfig::default(),
        )
        .unwrap_err()
    };
    // A rejection is not cached: the same pair is parsed again and
    // refused with the same message.
    let (first, second) = (submit_malformed(), submit_malformed());
    assert!(!first.message().is_empty());
    assert_eq!(first.message(), second.message());
    assert!(d.list().is_empty(), "rejected submissions take no slot");
    let id = submit(&mut d, "alice", 1);
    d.drain();
    assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
}

#[test]
fn serve_is_byte_stable_across_identical_sessions() {
    let workflow = tiny_workflow().replace('"', "\\\"").replace('\n', "\\n");
    let inputs = tiny_inputs(2).replace('"', "\\\"");
    let session = format!(
        concat!(
            r#"{{"schema":"moteur/daemon/v1","op":"submit","tenant":"a","workflow":"{w}","inputs":"{i}"}}"#,
            "\n",
            r#"{{"schema":"moteur/daemon/v1","op":"drain"}}"#,
            "\n",
            r#"{{"schema":"moteur/daemon/v1","op":"status","id":1}}"#,
            "\n",
            r#"{{"schema":"moteur/daemon/v1","op":"metrics"}}"#,
            "\n",
            r#"{{"schema":"moteur/daemon/v1","op":"shutdown"}}"#,
            "\n",
        ),
        w = workflow,
        i = inputs
    );
    let run = |input: &str| -> String {
        let mut d = daemon();
        let mut out = Vec::new();
        serve(&mut d, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let first = run(&session);
    let second = run(&session);
    assert_eq!(first, second, "responses drifted between sessions");
    let status_line = first
        .lines()
        .find(|l| l.contains(r#""op":"status""#))
        .unwrap();
    assert!(
        status_line.contains(r#""state":"succeeded""#),
        "{status_line}"
    );
    assert!(
        status_line.starts_with(
            r#"{"schema":"moteur/daemon/v1","op":"status","ok":true,"instance":{"id":1,"tenant":"a","workflow":"tiny","state":"succeeded","submitted_at":0,"first_job_at":0,"#
        ),
        "status field order is part of the protocol: {status_line}"
    );
}
