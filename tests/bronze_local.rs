//! Cross-crate integration: a miniature Bronze-Standard run with *real*
//! registration services on the thread-pool backend — the enactor, the
//! synchronization barrier and the registration substrate working
//! together, with results checked against the known ground truth.

use moteur_repro::moteur::prelude::*;
use moteur_repro::registration as reg;
use reg::prelude::*;

type Out = Vec<(String, DataValue)>;
type Tagged = (u32, RigidTransform);

fn mini_workflow() -> Workflow {
    let crest_lines = |inputs: &[Token]| -> Result<Out, String> {
        let reference = inputs[0].value.downcast::<Volume>().ok_or("ref")?;
        let floating = inputs[1].value.downcast::<Volume>().ok_or("float")?;
        let cr = extract_crest_points(reference, 1, auto_threshold(reference, 1.0));
        let cf = extract_crest_points(floating, 1, auto_threshold(floating, 1.0));
        Ok(vec![
            ("cr".into(), DataValue::opaque(cr)),
            ("cf".into(), DataValue::opaque(cf)),
        ])
    };
    let crest_match = |inputs: &[Token]| -> Result<Out, String> {
        let cr = inputs[0].value.downcast::<Vec<Vec3>>().ok_or("cr")?;
        let cf = inputs[1].value.downcast::<Vec<Vec3>>().ok_or("cf")?;
        let r = reg::icp(cr, cf, RigidTransform::IDENTITY, &IcpParams::coarse());
        let tag: Tagged = (inputs[0].index.0[0], r.transform);
        Ok(vec![("transfo".into(), DataValue::opaque(tag))])
    };
    let yasmina = |inputs: &[Token]| -> Result<Out, String> {
        let (pair, init) = *inputs[0].value.downcast::<Tagged>().ok_or("init")?;
        let reference = inputs[1].value.downcast::<Volume>().ok_or("ref")?;
        let floating = inputs[2].value.downcast::<Volume>().ok_or("float")?;
        let t = intensity_register(reference, floating, init, &IntensityParams::default());
        Ok(vec![(
            "transfo".into(),
            DataValue::opaque::<Tagged>((pair, t)),
        )])
    };
    let test = |inputs: &[Token]| -> Result<Out, String> {
        // Means of the two algorithm streams, paired by pair id.
        let mut pairs: std::collections::BTreeMap<u32, Vec<RigidTransform>> = Default::default();
        for input in inputs.iter().take(2) {
            for v in input.value.as_list().ok_or("stream")? {
                let (pair, t) = *v.downcast::<Tagged>().ok_or("tag")?;
                pairs.entry(pair).or_default().push(t);
            }
        }
        let worst_spread = pairs
            .values()
            .map(|ts| ts[0].rotation_error(ts[1]).to_degrees())
            .fold(0.0f64, f64::max);
        Ok(vec![("spread".into(), DataValue::from(worst_spread))])
    };

    let mut wf = Workflow::new("mini-bronze");
    let rs = wf.add_source("referenceImage");
    let fs = wf.add_source("floatingImage");
    let cl = wf.add_service(
        "crestLines",
        &["r", "f"],
        &["cr", "cf"],
        ServiceBinding::local(crest_lines),
    );
    let cm = wf.add_service(
        "crestMatch",
        &["cr", "cf"],
        &["transfo"],
        ServiceBinding::local(crest_match),
    );
    let ya = wf.add_service(
        "Yasmina",
        &["init", "r", "f"],
        &["transfo"],
        ServiceBinding::local(yasmina),
    );
    let tt = wf.add_service(
        "Test",
        &["a", "b"],
        &["spread"],
        ServiceBinding::local(test),
    );
    wf.set_synchronization(tt, true);
    let sink = wf.add_sink("spread");
    wf.connect(rs, "out", cl, "r").unwrap();
    wf.connect(fs, "out", cl, "f").unwrap();
    wf.connect(cl, "cr", cm, "cr").unwrap();
    wf.connect(cl, "cf", cm, "cf").unwrap();
    wf.connect(cm, "transfo", ya, "init").unwrap();
    wf.connect(rs, "out", ya, "r").unwrap();
    wf.connect(fs, "out", ya, "f").unwrap();
    wf.connect(cm, "transfo", tt, "a").unwrap();
    wf.connect(ya, "transfo", tt, "b").unwrap();
    wf.connect(tt, "spread", sink, "in").unwrap();
    wf
}

fn inputs(n: usize) -> (InputData, Vec<RigidTransform>) {
    let cfg = PhantomConfig {
        nx: 24,
        ny: 24,
        nz: 12,
        noise: 0.5,
        lesions: 3,
    };
    let pairs: Vec<ImagePair> = (0..n).map(|i| image_pair(&cfg, 900 + i as u64)).collect();
    let truths = pairs.iter().map(|p| p.truth).collect();
    let data = InputData::new()
        .set(
            "referenceImage",
            pairs
                .iter()
                .map(|p| DataValue::opaque(p.reference.clone()))
                .collect(),
        )
        .set(
            "floatingImage",
            pairs
                .iter()
                .map(|p| DataValue::opaque(p.floating.clone()))
                .collect(),
        );
    (data, truths)
}

#[test]
fn mini_bronze_runs_with_real_registration_on_threads() {
    let wf = mini_workflow();
    let (data, _) = inputs(2);
    let mut backend = LocalBackend::new();
    let result = Enactment::new(&wf, &data, EnactorConfig::sp_dp())
        .run(&mut backend)
        .expect("run");
    // 2 crestLines + 2 crestMatch + 2 Yasmina + 1 barrier.
    assert_eq!(result.jobs_submitted, 7);
    let spread = result.sink("spread")[0].value.as_num().expect("number");
    assert!(
        spread < 15.0,
        "coarse and intensity registrations should roughly agree, spread {spread} deg"
    );
}

#[test]
fn parallelism_configuration_does_not_change_results() {
    let wf = mini_workflow();
    let (data, _) = inputs(2);
    let mut b1 = LocalBackend::new();
    let r1 = Enactment::new(&wf, &data, EnactorConfig::sp_dp())
        .run(&mut b1)
        .expect("parallel");
    let mut b2 = LocalBackend::new();
    let r2 = Enactment::new(&wf, &data, EnactorConfig::nop())
        .run(&mut b2)
        .expect("sequential");
    let s1 = r1.sink("spread")[0].value.as_num().unwrap();
    let s2 = r2.sink("spread")[0].value.as_num().unwrap();
    assert!(
        (s1 - s2).abs() < 1e-12,
        "results must be configuration-independent: {s1} vs {s2}"
    );
    assert_eq!(r1.jobs_submitted, r2.jobs_submitted);
}
