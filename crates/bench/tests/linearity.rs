//! The enactor's work per completion must not grow with the number of
//! invocations in flight. With unbounded ports the two-stage local
//! chain puts the whole stream in flight at once, so a per-completion
//! walk over the pending set makes the run quadratic: four times the
//! items then cost about sixteen times the wall clock instead of four.
//!
//! Checked under the default fault-tolerance configuration (no timeout
//! armed) and again under a fixed timeout too long ever to fire — the
//! second is the case a "skip the walk when no policy is set" shortcut
//! would still lose.
//!
//! The daemon's work per step must likewise not grow with the number of
//! instances it has ever finished: a scheduling round that walks every
//! slot makes a long-lived daemon quadratic in its own history.

use moteur::{
    Daemon, DaemonConfig, DataStore, Enactment, EnactorConfig, FtConfig, FtPolicy, StoreConfig,
    TimeoutPolicy, VirtualBackend,
};
use moteur_bench::stream::{stream_chain, stream_inputs};
use std::time::Instant;

const N: usize = 5_000;

/// Best-of-3 wall seconds of one unbounded enactment of `n` items.
fn best_of_three(n: usize, ft: &FtConfig) -> f64 {
    let workflow = stream_chain();
    let inputs = stream_inputs(n);
    (0..3)
        .map(|_| {
            let mut backend = VirtualBackend::new();
            let start = Instant::now();
            let result = Enactment::new(&workflow, &inputs, EnactorConfig::sp_dp())
                .ft(ft)
                .run(&mut backend)
                .unwrap();
            assert_eq!(result.sink_count("out"), n);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn four_times_the_items_cost_about_four_times_the_time() {
    let never_fires = FtConfig::default().with_default(FtPolicy {
        timeout: TimeoutPolicy::Fixed { seconds: 1e9 },
        ..FtConfig::default().default
    });
    for (label, ft) in [
        ("no timeout", FtConfig::default()),
        ("armed timeout", never_fires),
    ] {
        let small = best_of_three(N, &ft);
        let large = best_of_three(4 * N, &ft);
        let ratio = large / (4.0 * small);
        eprintln!("{label}: {small:.4} s -> {large:.4} s, ratio {ratio:.2}");
        assert!(
            ratio <= 2.0,
            "{label}: {N} items in {small:.4} s, {} in {large:.4} s: ratio {ratio:.2} \
             (1.0 is linear, 4.0 quadratic)",
            4 * N
        );
    }
}

const WAVES: usize = 100;

/// Best-of-3 wall seconds of one daemon taking `waves` waves of eight
/// one-service, two-item workflows over four tenants, drained wave by
/// wave — the finished instances pile up, the live ones never exceed
/// eight.
fn best_of_three_waves(waves: usize) -> f64 {
    let workflow = r#"<scufl name="tiny">
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
</scufl>"#;
    let inputs = r#"<inputdata><input name="s"><item type="file" gfn="gfn://x/i0" bytes="64"/><item type="file" gfn="gfn://x/i1" bytes="64"/></input></inputdata>"#;
    (0..3)
        .map(|_| {
            let mut daemon = Daemon::new(
                Box::new(VirtualBackend::new()),
                DataStore::in_memory(StoreConfig::default()),
                moteur_scufl::parse_submission,
                DaemonConfig::default(),
            );
            let start = Instant::now();
            for _ in 0..waves {
                for k in 0..8 {
                    let tenant = ["a", "b", "c", "d"][k % 4];
                    let (config, ft) = (EnactorConfig::sp_dp(), FtConfig::default());
                    daemon.submit(tenant, workflow, inputs, config, ft).unwrap();
                }
                daemon.drain();
            }
            assert_eq!(daemon.drain(), 8 * waves);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn four_times_the_waves_cost_about_four_times_the_time() {
    let small = best_of_three_waves(WAVES);
    let large = best_of_three_waves(4 * WAVES);
    let ratio = large / (4.0 * small);
    eprintln!("daemon: {small:.4} s -> {large:.4} s, ratio {ratio:.2}");
    assert!(
        ratio <= 2.0,
        "{WAVES} waves in {small:.4} s, {} in {large:.4} s: ratio {ratio:.2} \
         (1.0 is linear, 4.0 quadratic)",
        4 * WAVES
    );
}
