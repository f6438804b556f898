//! The Bronze-Standard application workflow (paper Fig. 9), expressed
//! in the Scufl dialect with descriptor-bound services, plus its input
//! data sets.
//!
//! Shape (matching the figure):
//!
//! ```text
//! referenceImage  floatingImage        methodToTest
//!        \          /                       |
//!        crestLines (fixed -s scale)        |
//!            | crest_ref, crest_float       |
//!        crestMatch ----------------------- MultiTransfoTest (sync)
//!         /    |    \                      /    |
//!  PFMatchICP Yasmina Baladin             /  accuracy_rotation
//!      |        \______\_________________/   accuracy_translation
//!  PFRegister ___________________________/
//! ```
//!
//! Each image pair costs 6 grid jobs (crestLines, crestMatch,
//! PFMatchICP, PFRegister, Yasmina, Baladin) exactly as in §4.4 (12/66/
//! 126 pairs → 72/396/756 submissions), plus one synchronization job.
//! Job grouping merges crestLines+crestMatch and PFMatchICP+PFRegister
//! (§3.6), cutting this to 4 jobs per pair.
//!
//! Compute costs approximate 2006-era runtimes on the paper's images;
//! what matters for the reproduction is that they are minutes-scale
//! while grid overhead is ~10 minutes and highly variable.

use moteur::{DataValue, InputData, Workflow};
use moteur_scufl::parse_workflow;

/// Nominal size of one 256×256×60 16-bit image (7.8 MB, §4.2).
pub const IMAGE_BYTES: u64 = 7_864_320;

/// The Fig. 9 workflow as a Scufl document.
pub fn bronze_workflow_xml() -> String {
    let image_in = |slot: &str, opt: &str| {
        format!(r#"<input name="{slot}" option="{opt}"><access type="GFN"/></input>"#)
    };
    let file_out = |slot: &str, opt: &str| {
        format!(r#"<output name="{slot}" option="{opt}"><access type="GFN"/></output>"#)
    };
    format!(
        r#"<scufl name="bronze-standard">
  <source name="referenceImage" bytes="7864320"/>
  <source name="floatingImage" bytes="7864320"/>
  <source name="methodToTest" bytes="64"/>

  <processor name="crestLines" compute="90">
    <executable name="CrestLines.pl">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="CrestLines.pl"/>
      {im1}{im2}
      <input name="scale" option="-s"/>
      {c1}{c2}
    </executable>
    <param slot="scale" value="2"/>
    <outputsize slot="crest_reference" bytes="400000"/>
    <outputsize slot="crest_floating" bytes="400000"/>
    <sandboxes/>
  </processor>

  <processor name="crestMatch" compute="35">
    <executable name="CrestMatch">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="cmatch"/>
      <input name="crest_reference" option="-c1"><access type="GFN"/></input>
      <input name="crest_floating" option="-c2"><access type="GFN"/></input>
      {tout}
    </executable>
    <outputsize slot="transfo" bytes="2048"/>
  </processor>

  <processor name="PFMatchICP" compute="60">
    <executable name="PFMatchICP">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="PFMatchICP"/>
      <input name="init" option="-init"><access type="GFN"/></input>
      {im1}{im2}
      <output name="raw_transfo" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="raw_transfo" bytes="2048"/>
  </processor>

  <processor name="PFRegister" compute="25">
    <executable name="PFRegister">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="PFRegister"/>
      <input name="raw" option="-i"><access type="GFN"/></input>
      {tout}
    </executable>
    <outputsize slot="transfo" bytes="2048"/>
  </processor>

  <processor name="Yasmina" compute="220">
    <executable name="Yasmina">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="yasmina"/>
      <input name="init" option="-init"><access type="GFN"/></input>
      {im1}{im2}
      {tout}
    </executable>
    <outputsize slot="transfo" bytes="2048"/>
  </processor>

  <processor name="Baladin" compute="200">
    <executable name="Baladin">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="baladin"/>
      <input name="init" option="-init"><access type="GFN"/></input>
      {im1}{im2}
      {tout}
    </executable>
    <outputsize slot="transfo" bytes="2048"/>
  </processor>

  <processor name="MultiTransfoTest" compute="120" sync="true">
    <executable name="MultiTransfoTest">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="MultiTransfoTest"/>
      <input name="method" option="-m"><access type="GFN"/></input>
      <input name="transfo_cm" option="-t1"><access type="GFN"/></input>
      <input name="transfo_pf" option="-t2"><access type="GFN"/></input>
      <input name="transfo_y" option="-t3"><access type="GFN"/></input>
      <input name="transfo_b" option="-t4"><access type="GFN"/></input>
      <output name="accuracy_translation" option="-at"><access type="GFN"/></output>
      <output name="accuracy_rotation" option="-ar"><access type="GFN"/></output>
    </executable>
    <outputsize slot="accuracy_translation" bytes="256"/>
    <outputsize slot="accuracy_rotation" bytes="256"/>
  </processor>

  <sink name="accuracy_translation"/>
  <sink name="accuracy_rotation"/>

  <link from="referenceImage:out" to="crestLines:reference_image"/>
  <link from="floatingImage:out" to="crestLines:floating_image"/>
  <link from="crestLines:crest_reference" to="crestMatch:crest_reference"/>
  <link from="crestLines:crest_floating" to="crestMatch:crest_floating"/>
  <link from="crestMatch:transfo" to="PFMatchICP:init"/>
  <link from="crestMatch:transfo" to="Yasmina:init"/>
  <link from="crestMatch:transfo" to="Baladin:init"/>
  <link from="referenceImage:out" to="PFMatchICP:reference_image"/>
  <link from="floatingImage:out" to="PFMatchICP:floating_image"/>
  <link from="referenceImage:out" to="Yasmina:reference_image"/>
  <link from="floatingImage:out" to="Yasmina:floating_image"/>
  <link from="referenceImage:out" to="Baladin:reference_image"/>
  <link from="floatingImage:out" to="Baladin:floating_image"/>
  <link from="PFMatchICP:raw_transfo" to="PFRegister:raw"/>
  <link from="methodToTest:out" to="MultiTransfoTest:method"/>
  <link from="crestMatch:transfo" to="MultiTransfoTest:transfo_cm"/>
  <link from="PFRegister:transfo" to="MultiTransfoTest:transfo_pf"/>
  <link from="Yasmina:transfo" to="MultiTransfoTest:transfo_y"/>
  <link from="Baladin:transfo" to="MultiTransfoTest:transfo_b"/>
  <link from="MultiTransfoTest:accuracy_translation" to="accuracy_translation:in"/>
  <link from="MultiTransfoTest:accuracy_rotation" to="accuracy_rotation:in"/>
</scufl>"#,
        im1 = image_in("floating_image", "-im1"),
        im2 = image_in("reference_image", "-im2"),
        c1 = file_out("crest_reference", "-c1"),
        c2 = file_out("crest_floating", "-c2"),
        tout = file_out("transfo", "-o"),
    )
    .replace("<sandboxes/>", "")
}

/// Parse the Fig. 9 workflow.
pub fn bronze_workflow() -> Workflow {
    parse_workflow(&bronze_workflow_xml()).expect("the built-in bronze workflow is valid")
}

/// The Bronze-Standard *critical path* as a pure streaming pipeline:
/// crestLines → crestMatch → PFMatchICP → PFRegister →
/// MultiTransfoTest, one input stream, no side branches and no
/// synchronization barrier.
///
/// The paper's closed forms (eq. 1–4) model exactly this chain — `n_W`
/// services on the critical path — so on an ideal grid the enactor's
/// observed makespan must match the model to within floating-point
/// noise. That makes this workflow the reference load of the perf
/// observatory's drift check: the full Fig. 9 DAG adds Yasmina/Baladin
/// branch slack the model deliberately ignores, which would show up as
/// spurious "drift".
pub fn bronze_chain_workflow_xml() -> String {
    let stage = |name: &str, compute: u32, exe: &str| {
        format!(
            r#"  <processor name="{name}" compute="{compute}">
    <executable name="{exe}">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="{exe}"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="2048"/>
  </processor>
"#
        )
    };
    let mut xml = String::from(
        "<scufl name=\"bronze-chain\">\n  <source name=\"images\" bytes=\"7864320\"/>\n",
    );
    for (name, compute, exe) in [
        ("crestLines", 90, "CrestLines.pl"),
        ("crestMatch", 35, "cmatch"),
        ("PFMatchICP", 60, "PFMatchICP"),
        ("PFRegister", 25, "PFRegister"),
        ("MultiTransfoTest", 120, "MultiTransfoTest"),
    ] {
        xml.push_str(&stage(name, compute, exe));
    }
    xml.push_str(
        r#"  <sink name="accuracy"/>
  <link from="images:out" to="crestLines:in"/>
  <link from="crestLines:out" to="crestMatch:in"/>
  <link from="crestMatch:out" to="PFMatchICP:in"/>
  <link from="PFMatchICP:out" to="PFRegister:in"/>
  <link from="PFRegister:out" to="MultiTransfoTest:in"/>
  <link from="MultiTransfoTest:out" to="accuracy:in"/>
</scufl>"#,
    );
    xml
}

/// Parse the critical-path chain workflow.
pub fn bronze_chain_workflow() -> Workflow {
    parse_workflow(&bronze_chain_workflow_xml()).expect("the built-in chain workflow is valid")
}

/// Input stream for the chain workflow: `n_data` images.
pub fn bronze_chain_inputs(n_data: usize) -> InputData {
    InputData::new().set(
        "images",
        (0..n_data)
            .map(|j| DataValue::File {
                gfn: format!("gfn://lacassagne/pair{j:03}.hdr"),
                bytes: IMAGE_BYTES,
            })
            .collect(),
    )
}

/// Input data set for `n_pairs` image pairs (the paper runs 12, 66 and
/// 126 pairs).
pub fn bronze_inputs(n_pairs: usize) -> InputData {
    let imgs = |prefix: &str| -> Vec<DataValue> {
        (0..n_pairs)
            .map(|j| DataValue::File {
                gfn: format!("gfn://lacassagne/{prefix}{j:03}.hdr"),
                bytes: IMAGE_BYTES,
            })
            .collect()
    };
    InputData::new()
        .set("referenceImage", imgs("ref"))
        .set("floatingImage", imgs("float"))
        .set(
            "methodToTest",
            vec![DataValue::File {
                gfn: "gfn://lacassagne/method.txt".into(),
                bytes: 64,
            }],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use moteur::{group_workflow, ProcessorKind};

    #[test]
    fn workflow_parses_and_validates() {
        let wf = bronze_workflow();
        assert_eq!(wf.sources().len(), 3);
        assert_eq!(wf.sinks().len(), 2);
        let services = wf
            .processors
            .iter()
            .filter(|p| p.kind == ProcessorKind::Service)
            .count();
        assert_eq!(services, 7, "6 registration jobs + MultiTransfoTest");
    }

    #[test]
    fn critical_path_has_five_services_as_in_the_paper() {
        // §5.1: "For our application, nW is 5": crestLines → crestMatch
        // → PFMatchICP → PFRegister → MultiTransfoTest.
        assert_eq!(bronze_workflow().critical_path_services().unwrap(), 5);
    }

    #[test]
    fn grouping_merges_exactly_the_papers_two_pairs() {
        // §3.6: group crestLines+crestMatch and PFMatchICP+PFRegister.
        let g = group_workflow(&bronze_workflow()).unwrap();
        assert!(g.find("crestLines+crestMatch").is_some(), "{:?}", names(&g));
        assert!(g.find("PFMatchICP+PFRegister").is_some(), "{:?}", names(&g));
        let services = g
            .processors
            .iter()
            .filter(|p| p.kind == ProcessorKind::Service)
            .count();
        assert_eq!(
            services, 5,
            "7 services collapse to 5 (4 grid jobs/pair + sync)"
        );
    }

    fn names(wf: &Workflow) -> Vec<&str> {
        wf.processors.iter().map(|p| p.name.as_str()).collect()
    }

    #[test]
    fn critical_path_names_match_the_papers_chain() {
        let wf = bronze_workflow();
        let names: Vec<String> = wf
            .critical_path()
            .unwrap()
            .into_iter()
            .map(|id| wf.processor(id).name.clone())
            .collect();
        assert_eq!(
            names,
            [
                "crestLines",
                "crestMatch",
                "PFMatchICP",
                "PFRegister",
                "MultiTransfoTest"
            ]
        );
    }

    #[test]
    fn model_prediction_matches_quiet_grid_simulation() {
        use moteur::{Enactment, EnactorConfig, SimBackend, TimeMatrix};
        use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
        // A quiet grid with a constant per-job overhead lets the model
        // predict the makespan of the *critical path*; the full DAG has
        // side branches (Yasmina/Baladin) that the model ignores, so
        // prediction is a lower bound within the branch slack.
        let overhead = 120.0;
        let grid = GridConfig {
            ces: vec![CeConfig::new("ce", 10_000, 1.0)],
            submission_overhead: Distribution::Constant(overhead),
            match_delay: Distribution::Constant(0.0),
            notify_delay: Distribution::Constant(0.0),
            failure_probability: 0.0,
            failure_detection: Distribution::Constant(0.0),
            max_retries: 0,
            network: NetworkConfig {
                transfer_latency: 0.0,
                bandwidth: f64::INFINITY,
                congestion: 0.0,
            },
            typical_job_duration: 100.0,
            info_refresh_period: 3600.0,
            compute_jitter: Distribution::Constant(1.0),
        };
        let wf = bronze_workflow();
        let n = 4;
        let t = TimeMatrix::from_workflow(&wf, n, overhead).unwrap();
        let predicted = t.sigma_dsp();
        let mut backend = SimBackend::new(grid, 1);
        let measured = Enactment::new(&wf, &bronze_inputs(n), EnactorConfig::sp_dp())
            .run(&mut backend)
            .unwrap()
            .makespan
            .as_secs_f64();
        // The prediction must bound from below and land within the
        // Yasmina/Baladin branch slack (~2 overhead+compute windows).
        assert!(
            measured >= predicted - 1e-6,
            "measured {measured} < predicted {predicted}"
        );
        assert!(
            measured < predicted * 1.5,
            "prediction too loose: measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn inputs_scale_with_pair_count() {
        let d = bronze_inputs(12);
        assert_eq!(d.get("referenceImage").unwrap().len(), 12);
        assert_eq!(d.get("floatingImage").unwrap().len(), 12);
        assert_eq!(d.get("methodToTest").unwrap().len(), 1);
        let (gfn, bytes) = d.get("referenceImage").unwrap()[0].as_file().unwrap();
        assert!(gfn.contains("ref000"));
        assert_eq!(bytes, IMAGE_BYTES);
    }
}
