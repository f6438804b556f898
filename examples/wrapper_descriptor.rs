//! The generic code wrapper in action (paper §3.6, Figs. 7–8): parse
//! the paper's exact crestLines descriptor, compile the job-plan
//! template of a crestLines → crestMatch group once and fill it per
//! invocation, as the enactor does, and build the same plan through the
//! `Binding` API, a thin adapter over that template. Grouping keeps the
//! crest files on the worker.
//!
//! Run with: `cargo run --example wrapper_descriptor`

use moteur_repro::wrapper::{
    compose_group, crest_lines_example, Binding, Catalog, ExecutableDescriptor, Feed, GroupMember,
    JobTemplate, SlotValue, StageSpec,
};

/// A job input as the enactor sees it: an image registered on the grid.
struct Image(String);

impl SlotValue for Image {
    fn file(&self) -> Option<(&str, u64)> {
        Some((&self.0, 7_864_320))
    }
    fn write_param(&self, out: &mut String) {
        out.push_str(&self.0);
    }
    fn describe(&self) -> String {
        self.0.clone()
    }
}

fn main() {
    // --- The Fig. 8 descriptor, round-tripped through its XML form.
    let lines = crest_lines_example();
    let xml = lines.to_xml().to_pretty_string();
    println!("=== the paper's Fig. 8 executable descriptor ===\n{xml}");
    let reparsed = ExecutableDescriptor::parse(&xml).expect("round trip");
    assert_eq!(reparsed, lines);
    let matcher = ExecutableDescriptor::parse(
        r#"<description><executable name="CrestMatch">
             <access type="URL"><path value="http://colors.unice.fr"/></access>
             <value value="cmatch"/>
             <input name="c1" option="-c1"><access type="GFN"/></input>
             <input name="c2" option="-c2"><access type="GFN"/></input>
             <output name="transfo" option="-o"><access type="GFN"/></output>
           </executable></description>"#,
    )
    .expect("crestMatch descriptor");

    // --- The static half, once per grouped processor: crestLines reads
    // the job's two images and a fixed scale; crestMatch reads both crest
    // files crestLines writes; the job delivers crestMatch's transform.
    let crest = |slot| Feed::Stage { stage: 0, slot };
    let stages = [
        StageSpec {
            group_member: Some("crestLines"),
            descriptor: &lines,
            feeds: vec![
                ("floating_image", Feed::Port(0)),
                ("reference_image", Feed::Port(1)),
                ("scale", Feed::Param("2")),
            ],
            output_bytes: vec![400_000, 400_000],
        },
        StageSpec {
            group_member: Some("crestMatch"),
            descriptor: &matcher,
            feeds: vec![
                ("c1", crest("crest_reference")),
                ("c2", crest("crest_floating")),
            ],
            output_bytes: vec![2048],
        },
    ];
    let template = JobTemplate::compile("bronze", "g", &stages, &[("transfo", 1, "transfo")]);

    // --- The dynamic half, once per invocation (dynamic declaration,
    // §2.1): only the values change.
    let images = |k: u64| {
        [
            Image(format!("gfn://lacassagne/float{k:03}.hdr")),
            Image(format!("gfn://lacassagne/ref{k:03}.hdr")),
        ]
    };
    let jobs: Vec<_> = (0..2)
        .map(|k| {
            template
                .fill(&images(k), k, |_| {})
                .expect("a complete job")
        })
        .collect();
    for (k, job) in jobs.iter().enumerate() {
        println!("=== invocation {k}: one grid job ===");
        for line in &job.plan.command_lines {
            println!("  $ {line}");
        }
        println!("  delivers {}", job.outputs[0].gfn);
    }

    // --- Invocation 0 through the Binding API: every value named up
    // front, each binding one stage of a template filled at once.
    let (crest_ref, crest_float) = (
        "gfn://bronze/g~crestLines/0/crest_reference",
        "gfn://bronze/g~crestLines/0/crest_floating",
    );
    let transfo = "gfn://bronze/g~crestMatch/0/transfo";
    let lines_binding = Binding::new()
        .bind_file("floating_image", "gfn://lacassagne/float000.hdr")
        .bind_file("reference_image", "gfn://lacassagne/ref000.hdr")
        .bind_value("scale", "2")
        .bind_output("crest_reference", crest_ref, 400_000)
        .bind_output("crest_floating", crest_float, 400_000);
    let matcher_binding = Binding::new()
        .bind_file("c1", crest_ref)
        .bind_file("c2", crest_float)
        .bind_output("transfo", transfo, 2048);
    let mut catalog = Catalog::new();
    catalog.register("gfn://lacassagne/float000.hdr", 7_864_320);
    catalog.register("gfn://lacassagne/ref000.hdr", 7_864_320);
    let members = [
        GroupMember {
            descriptor: lines,
            binding: lines_binding,
        },
        GroupMember {
            descriptor: matcher,
            binding: matcher_binding,
        },
    ];
    let grouped = compose_group(&members, &catalog, &[transfo.into()]).expect("grouped plan");
    assert_eq!(grouped, jobs[0].plan, "one builder behind both APIs");

    // --- What grouping saves against two separate jobs (Fig. 7).
    let separate_fetch: u64 = members
        .iter()
        .map(|member| {
            let alone = compose_group(std::slice::from_ref(member), &catalog, &[]);
            alone.expect("plan").fetch_bytes()
        })
        .sum();
    println!(
        "\nfetch {} bytes grouped vs {} bytes as two jobs — the crest files never\n\
         touch a storage element, and one submission overhead disappears (Fig. 7).",
        grouped.fetch_bytes(),
        separate_fetch
    );
}
