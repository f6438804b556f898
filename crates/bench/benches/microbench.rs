//! Micro-benchmarks for the performance-critical kernels: the XML
//! parser, the streaming iteration strategies, the simulator's event
//! loop, the enactor on an ideal backend, the §3.5 model, and the
//! registration numerics.
//!
//! Dependency-free harness (`harness = false`): each benchmark is
//! warmed up, then timed with `std::time::Instant` over enough
//! iterations to fill the measurement window, reporting mean time per
//! iteration. Run with `cargo bench -p moteur-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_secs(2);

/// Run `f` repeatedly for the warm-up then measurement window and print
/// the mean per-iteration time.
fn bench(name: &str, mut f: impl FnMut()) {
    let warm_until = Instant::now() + WARMUP;
    while Instant::now() < warm_until {
        f();
    }
    let started = Instant::now();
    let mut iters = 0u64;
    while started.elapsed() < MEASURE {
        f();
        iters += 1;
    }
    let per_iter = started.elapsed().as_secs_f64() / iters as f64;
    let (value, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else if per_iter >= 1e-6 {
        (per_iter * 1e6, "µs")
    } else {
        (per_iter * 1e9, "ns")
    };
    println!("{name:<40} {value:>10.3} {unit}/iter ({iters} iters)");
}

fn bench_xml() {
    let fig8 = moteur_wrapper::crest_lines_example()
        .to_xml()
        .to_pretty_string();
    bench("xml/parse_fig8_descriptor", || {
        black_box(moteur_xml::parse(black_box(&fig8)).unwrap());
    });
    let doc = moteur_xml::parse(&fig8).unwrap();
    bench("xml/write_fig8_descriptor", || {
        black_box(black_box(&doc).to_pretty_string());
    });
}

fn bench_iterate() {
    use moteur::{DataValue, IterationStrategy, MatchEngine, Token};
    let tokens: Vec<Token> = (0..512)
        .map(|i| Token::from_source("s", i, DataValue::Num(i as f64)))
        .collect();
    bench("iterate/dot_512_pairs", || {
        let mut e = MatchEngine::new(IterationStrategy::Dot, 2);
        let mut emitted = 0;
        for t in &tokens {
            emitted += e.push(0, t.clone()).len();
            emitted += e.push(1, t.clone()).len();
        }
        black_box(emitted);
    });
    bench("iterate/cross_64x64", || {
        let mut e = MatchEngine::new(IterationStrategy::Cross, 2);
        let mut emitted = 0;
        for t in tokens.iter().take(64) {
            emitted += e.push(0, t.clone()).len();
            emitted += e.push(1, t.clone()).len();
        }
        black_box(emitted);
    });
}

fn bench_gridsim() {
    use moteur_gridsim::{GridConfig, GridJobSpec, GridSim};
    bench("gridsim/100_jobs_egee", || {
        let mut sim = GridSim::new(GridConfig::egee_2006(), 7);
        for i in 0..100 {
            sim.submit(
                GridJobSpec::new(format!("j{i}"), 120.0)
                    .with_files(vec![7_864_320, 7_864_320], vec![400_000]),
            );
        }
        let mut n = 0;
        while sim.next_completion().is_some() {
            n += 1;
        }
        black_box(n);
    });
}

fn bench_enactor() {
    use moteur::prelude::*;
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
    let pass = |name: &str| ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: vec![InputSlot {
            name: "in".into(),
            option: "-i".into(),
            access: Some(AccessMethod::Gfn),
            bytes: None,
        }],
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-o".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: false,
    };
    let mut wf = Workflow::new("chain");
    let src = wf.add_source("source");
    let mut prev = src;
    for i in 0..5 {
        let svc = wf.add_service(
            format!("S{i}").as_str(),
            &["in"],
            &["out"],
            ServiceBinding::descriptor(pass(&format!("S{i}")), ServiceProfile::new(10.0)),
        );
        wf.connect(prev, "out", svc, "in").unwrap();
        prev = svc;
    }
    let sink = wf.add_sink("sink");
    wf.connect(prev, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "source",
        (0..50)
            .map(|j| DataValue::File {
                gfn: format!("gfn://{j}"),
                bytes: 0,
            })
            .collect(),
    );
    bench("enactor/5x50_virtual_dsp", || {
        let mut backend = VirtualBackend::new();
        black_box(
            Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
                .run(&mut backend)
                .unwrap(),
        );
    });
    let bronze = moteur_bench::bronze_workflow();
    bench("enactor/grouping_transform_bronze", || {
        black_box(moteur::group_workflow(black_box(&bronze)).unwrap());
    });
}

fn bench_model() {
    use moteur::TimeMatrix;
    let t = TimeMatrix::from_fn(5, 500, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64);
    bench("model/sigma_sp_5x500", || {
        black_box(black_box(&t).sigma_sp());
    });
}

fn bench_registration() {
    use moteur_registration::prelude::*;
    use moteur_registration::{fit_rigid, SmallRng};
    let mut rng = SmallRng::new(1);
    let pts: Vec<Vec3> = (0..200)
        .map(|_| {
            Vec3::new(
                rng.range(-20.0, 20.0),
                rng.range(-20.0, 20.0),
                rng.range(-20.0, 20.0),
            )
        })
        .collect();
    let truth = RigidTransform::from_params(0.1, -0.05, 0.07, 1.0, 2.0, -0.5);
    let pairs: Vec<(Vec3, Vec3)> = pts.iter().map(|&p| (p, truth.apply(p))).collect();
    bench("registration/fit_rigid_200", || {
        black_box(fit_rigid(black_box(&pairs)).unwrap());
    });
    let cfg = PhantomConfig {
        nx: 24,
        ny: 24,
        nz: 12,
        noise: 1.0,
        lesions: 3,
    };
    bench("registration/phantom_24x24x12", || {
        black_box(brain_phantom(black_box(&cfg), 5));
    });
    let vol = brain_phantom(&cfg, 5);
    bench("registration/ssd_similarity", || {
        black_box(moteur_registration::similarity_ssd(
            black_box(&vol),
            black_box(&vol),
            RigidTransform::from_params(0.01, 0.0, 0.0, 0.5, 0.0, 0.0),
            2,
        ));
    });
}

fn main() {
    // `cargo bench -- <filter>` runs only benchmarks whose group name
    // contains the filter substring.
    let filter = std::env::args().nth(1).unwrap_or_default();
    let groups: [(&str, fn()); 6] = [
        ("xml", bench_xml),
        ("iterate", bench_iterate),
        ("gridsim", bench_gridsim),
        ("enactor", bench_enactor),
        ("model", bench_model),
        ("registration", bench_registration),
    ];
    for (name, f) in groups {
        if filter.is_empty() || name.contains(&filter) {
            f();
        }
    }
}
