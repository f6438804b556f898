//! The real thing: the Bronze-Standard application of paper §4.2 run
//! end to end, with the Fig. 9 workflow enacted by MOTEUR-RS on the
//! thread-pool backend and every service doing *actual* registration
//! work on synthetic brain images:
//!
//! - `crestLines` extracts feature points from both images,
//! - `crestMatch` computes the initial transform (coarse ICP),
//! - `PFMatchICP`/`PFRegister` refine it (full + tight ICP),
//! - `Yasmina` optimises image intensity similarity,
//! - `Baladin` does block matching,
//! - `MultiTransfoTest` (a synchronization processor) computes the
//!   bronze-standard accuracy of each algorithm.
//!
//! Because the phantoms have *known* ground-truth motions, the report
//! also shows each algorithm's true error — something the real
//! clinical study could never know.
//!
//! Run with: `cargo run --release --example bronze_standard [n_pairs]`

use moteur_repro::moteur::prelude::*;
use moteur_repro::registration as reg;
use reg::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Tokens carry opaque payloads between local services.
type Out = Vec<(String, DataValue)>;

fn volume_of(t: &Token) -> Result<&Volume, String> {
    t.value
        .downcast::<Volume>()
        .ok_or_else(|| "expected a Volume".into())
}

fn cloud_of(t: &Token) -> Result<&Vec<Vec3>, String> {
    t.value
        .downcast::<Vec<Vec3>>()
        .ok_or_else(|| "expected a point cloud".into())
}

/// Transform tagged with its image-pair index (read from provenance).
type Tagged = (u32, RigidTransform);

fn transfo_of(t: &Token) -> Result<Tagged, String> {
    t.value
        .downcast::<Tagged>()
        .copied()
        .ok_or_else(|| "expected a transform".into())
}

fn pair_index(t: &Token) -> u32 {
    t.index.0.first().copied().unwrap_or(0)
}

fn main() {
    let n_pairs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let phantom_cfg = PhantomConfig {
        nx: 32,
        ny: 32,
        nz: 16,
        noise: 1.0,
        lesions: 3,
    };

    // ---- generate the "clinical database": image pairs with known motions
    println!(
        "generating {n_pairs} synthetic image pairs ({}x{}x{})...",
        phantom_cfg.nx, phantom_cfg.ny, phantom_cfg.nz
    );
    let pairs: Vec<ImagePair> = (0..n_pairs)
        .map(|i| image_pair(&phantom_cfg, 7000 + i as u64))
        .collect();
    let truths: Vec<RigidTransform> = pairs.iter().map(|p| p.truth).collect();

    // ---- the Fig. 9 workflow with in-process service bindings
    let crest_lines = |inputs: &[Token]| -> Result<Out, String> {
        let reference = volume_of(&inputs[0])?;
        let floating = volume_of(&inputs[1])?;
        let scale = 1; // the descriptor's fixed `-s 2` maps to lattice scale here
        let cr = extract_crest_points(reference, scale, auto_threshold(reference, 1.0));
        let cf = extract_crest_points(floating, scale, auto_threshold(floating, 1.0));
        Ok(vec![
            ("crest_reference".into(), DataValue::opaque(cr)),
            ("crest_floating".into(), DataValue::opaque(cf)),
        ])
    };
    let crest_match = |inputs: &[Token]| -> Result<Out, String> {
        let cr = cloud_of(&inputs[0])?;
        let cf = cloud_of(&inputs[1])?;
        let r = reg::icp(cr, cf, RigidTransform::IDENTITY, &IcpParams::coarse());
        let tagged: Tagged = (pair_index(&inputs[0]), r.transform);
        Ok(vec![("transfo".into(), DataValue::opaque(tagged))])
    };
    let pf_match = |inputs: &[Token]| -> Result<Out, String> {
        let (pair, init) = transfo_of(&inputs[0])?;
        let cr = cloud_of(&inputs[1])?;
        let cf = cloud_of(&inputs[2])?;
        let r = reg::icp(cr, cf, init, &IcpParams::matching());
        Ok(vec![(
            "raw_transfo".into(),
            DataValue::opaque((pair, r.transform, Arc::new((cr.clone(), cf.clone())))),
        )])
    };
    let pf_register = |inputs: &[Token]| -> Result<Out, String> {
        let (pair, init, clouds) = inputs[0]
            .value
            .downcast::<(u32, RigidTransform, Arc<(Vec<Vec3>, Vec<Vec3>)>)>()
            .cloned()
            .ok_or("expected PFMatchICP output")?;
        let r = reg::icp(&clouds.0, &clouds.1, init, &IcpParams::refinement());
        let tagged: Tagged = (pair, r.transform);
        Ok(vec![("transfo".into(), DataValue::opaque(tagged))])
    };
    let yasmina = |inputs: &[Token]| -> Result<Out, String> {
        let (pair, init) = transfo_of(&inputs[0])?;
        let reference = volume_of(&inputs[1])?;
        let floating = volume_of(&inputs[2])?;
        let t = intensity_register(reference, floating, init, &IntensityParams::default());
        let tagged: Tagged = (pair, t);
        Ok(vec![("transfo".into(), DataValue::opaque(tagged))])
    };
    let baladin = |inputs: &[Token]| -> Result<Out, String> {
        let (pair, _init) = transfo_of(&inputs[0])?;
        let reference = volume_of(&inputs[1])?;
        let floating = volume_of(&inputs[2])?;
        let t = block_match(reference, floating, &BlockMatchParams::default())
            .ok_or("block matching found no informative blocks")?;
        let tagged: Tagged = (pair, t);
        Ok(vec![("transfo".into(), DataValue::opaque(tagged))])
    };
    // The synchronization processor: consumes the whole result streams.
    let multi_transfo_test = move |inputs: &[Token]| -> Result<Out, String> {
        let names = ["crestMatch", "PFRegister", "Yasmina", "Baladin"];
        let mut per_pair: HashMap<u32, Vec<AlgorithmResult>> = HashMap::new();
        for (port, name) in names.iter().enumerate() {
            let list = inputs[port]
                .value
                .as_list()
                .ok_or("expected collected stream")?;
            for v in list {
                let (pair, transform) =
                    *v.downcast::<Tagged>().ok_or("expected tagged transform")?;
                per_pair.entry(pair).or_default().push(AlgorithmResult {
                    algorithm: name.to_string(),
                    transform,
                });
            }
        }
        let mut pair_results: Vec<PairResults> = per_pair
            .into_iter()
            .map(|(pair_id, results)| PairResults {
                pair_id: pair_id as usize,
                results,
            })
            .collect();
        pair_results.sort_by_key(|p| p.pair_id);
        let report = bronze_standard(&pair_results);
        Ok(vec![
            ("report".into(), DataValue::opaque(report)),
            ("pairs".into(), DataValue::opaque(pair_results)),
        ])
    };

    let mut wf = Workflow::new("bronze-standard-local");
    let ref_src = wf.add_source("referenceImage");
    let float_src = wf.add_source("floatingImage");
    let cl = wf.add_service(
        "crestLines",
        &["reference", "floating"],
        &["crest_reference", "crest_floating"],
        ServiceBinding::local(crest_lines),
    );
    let cm = wf.add_service(
        "crestMatch",
        &["crest_reference", "crest_floating"],
        &["transfo"],
        ServiceBinding::local(crest_match),
    );
    let icp_p = wf.add_service(
        "PFMatchICP",
        &["init", "crest_reference", "crest_floating"],
        &["raw_transfo"],
        ServiceBinding::local(pf_match),
    );
    let reg_p = wf.add_service(
        "PFRegister",
        &["raw"],
        &["transfo"],
        ServiceBinding::local(pf_register),
    );
    let yas = wf.add_service(
        "Yasmina",
        &["init", "reference", "floating"],
        &["transfo"],
        ServiceBinding::local(yasmina),
    );
    let bal = wf.add_service(
        "Baladin",
        &["init", "reference", "floating"],
        &["transfo"],
        ServiceBinding::local(baladin),
    );
    let mtt = wf.add_service(
        "MultiTransfoTest",
        &["transfo_cm", "transfo_pf", "transfo_y", "transfo_b"],
        &["report", "pairs"],
        ServiceBinding::local(multi_transfo_test),
    );
    wf.set_synchronization(mtt, true);
    let report_sink = wf.add_sink("accuracy");
    let pairs_sink = wf.add_sink("pair_transforms");

    wf.connect(ref_src, "out", cl, "reference").unwrap();
    wf.connect(float_src, "out", cl, "floating").unwrap();
    wf.connect(cl, "crest_reference", cm, "crest_reference")
        .unwrap();
    wf.connect(cl, "crest_floating", cm, "crest_floating")
        .unwrap();
    wf.connect(cm, "transfo", icp_p, "init").unwrap();
    wf.connect(cl, "crest_reference", icp_p, "crest_reference")
        .unwrap();
    wf.connect(cl, "crest_floating", icp_p, "crest_floating")
        .unwrap();
    wf.connect(icp_p, "raw_transfo", reg_p, "raw").unwrap();
    wf.connect(cm, "transfo", yas, "init").unwrap();
    wf.connect(ref_src, "out", yas, "reference").unwrap();
    wf.connect(float_src, "out", yas, "floating").unwrap();
    wf.connect(cm, "transfo", bal, "init").unwrap();
    wf.connect(ref_src, "out", bal, "reference").unwrap();
    wf.connect(float_src, "out", bal, "floating").unwrap();
    wf.connect(cm, "transfo", mtt, "transfo_cm").unwrap();
    wf.connect(reg_p, "transfo", mtt, "transfo_pf").unwrap();
    wf.connect(yas, "transfo", mtt, "transfo_y").unwrap();
    wf.connect(bal, "transfo", mtt, "transfo_b").unwrap();
    wf.connect(mtt, "report", report_sink, "in").unwrap();
    wf.connect(mtt, "pairs", pairs_sink, "in").unwrap();

    let inputs = InputData::new()
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

    println!("enacting the Fig. 9 workflow on the thread-pool backend (DP + SP)...");
    let mut backend = LocalBackend::new();
    let result = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .expect("bronze standard run");
    println!(
        "done in {:.2} s wall clock, {} service invocations\n",
        result.makespan.as_secs_f64(),
        result.jobs_submitted
    );

    let report = result.sink("accuracy")[0]
        .value
        .downcast::<reg::BronzeReport>()
        .expect("report token");
    println!("Bronze-Standard accuracy (deviation from the leave-one-out mean):");
    for acc in &report.accuracies {
        println!(
            "  {:12} rotation {:6.3} deg   translation {:6.3} voxels   ({} pairs)",
            acc.algorithm, acc.rotation_error_deg, acc.translation_error, acc.pairs
        );
    }

    // Ground truth — available only because the phantom motions are known.
    let pair_results = result.sink("pair_transforms")[0]
        .value
        .downcast::<Vec<PairResults>>()
        .expect("pairs token");
    println!("\nTrue errors vs the synthetic ground truth:");
    let mut by_algo: HashMap<&str, (f64, f64, usize)> = HashMap::new();
    for pr in pair_results {
        let truth = truths[pr.pair_id];
        for r in &pr.results {
            let e = by_algo
                .entry(Box::leak(r.algorithm.clone().into_boxed_str()))
                .or_insert((0.0, 0.0, 0));
            e.0 += r.transform.rotation_error(truth).to_degrees();
            e.1 += r.transform.translation_error(truth);
            e.2 += 1;
        }
    }
    let mut rows: Vec<_> = by_algo.into_iter().collect();
    rows.sort_by_key(|(n, _)| *n);
    for (name, (rot, trans, n)) in rows {
        println!(
            "  {:12} rotation {:6.3} deg   translation {:6.3} voxels",
            name,
            rot / n as f64,
            trans / n as f64
        );
    }
    println!("\nThe mean registration (the bronze standard) over-determines the geometry,");
    println!("so consistent algorithms score tightly — the statistical idea of S4.2.");
}
