//! Cross-crate integration: the on-disk languages drive the whole
//! pipeline — serialise the built-in Bronze-Standard workflow and its
//! data set to XML, reload both, and enact on the simulated grid.

use moteur_repro::bench::{bronze_inputs, bronze_workflow, bronze_workflow_xml};
use moteur_repro::gridsim::GridConfig;
use moteur_repro::moteur::{Enactment, EnactorConfig, SimBackend};
use moteur_repro::scufl::{parse_input_data, parse_workflow, write_input_data, write_workflow};

#[test]
fn bronze_workflow_survives_a_full_xml_round_trip_and_enacts() {
    let original = bronze_workflow();
    let xml = write_workflow(&original).expect("bronze serialises");
    let reloaded = parse_workflow(&xml).expect("bronze reloads");
    assert_eq!(reloaded.processors.len(), original.processors.len());
    assert_eq!(reloaded.links.len(), original.links.len());

    let n = 3;
    let data = bronze_inputs(n);
    let data_xml = write_input_data(&[
        ("referenceImage", data.get("referenceImage").unwrap()),
        ("floatingImage", data.get("floatingImage").unwrap()),
        ("methodToTest", data.get("methodToTest").unwrap()),
    ])
    .expect("data set serialises");
    let data_reloaded = parse_input_data(&data_xml).expect("data set reloads");

    let mut backend = SimBackend::new(GridConfig::egee_2006(), 77);
    let result = Enactment::new(&reloaded, &data_reloaded, EnactorConfig::sp_dp())
        .run(&mut backend)
        .expect("reloaded workflow enacts");
    assert_eq!(result.jobs_submitted, n * 6 + 1);
    assert_eq!(result.sink("accuracy_translation").len(), 1);
    assert_eq!(result.sink("accuracy_rotation").len(), 1);
}

#[test]
fn reloaded_workflow_produces_identical_timings_to_the_built_in_one() {
    let original = bronze_workflow();
    let reloaded = parse_workflow(&write_workflow(&original).unwrap()).unwrap();
    let inputs = bronze_inputs(2);
    let mut b1 = SimBackend::new(GridConfig::egee_2006(), 5);
    let mut b2 = SimBackend::new(GridConfig::egee_2006(), 5);
    let r1 = Enactment::new(&original, &inputs, EnactorConfig::sp_dp())
        .run(&mut b1)
        .unwrap();
    let r2 = Enactment::new(&reloaded, &inputs, EnactorConfig::sp_dp())
        .run(&mut b2)
        .unwrap();
    assert_eq!(
        r1.makespan, r2.makespan,
        "XML round trip must not change semantics"
    );
    assert_eq!(r1.jobs_submitted, r2.jobs_submitted);
}

#[test]
fn built_in_xml_is_stable() {
    // The document itself is a public artifact; keep it parseable and
    // pointing at the Fig. 9 shape.
    let wf = parse_workflow(&bronze_workflow_xml()).unwrap();
    assert_eq!(wf.name, "bronze-standard");
    assert_eq!(wf.critical_path_services().unwrap(), 5);
}
